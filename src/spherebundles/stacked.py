"""Stacked spheres: scheduled subdivision, distance vectors, recognition.

A stacked sphere is the boundary of a simplex after repeatedly subdividing
facets (replace a facet by the cone from a new vertex over its boundary).
The builder here follows one fixed schedule: step i subdivides the facet
{i+1, ..., n+i} with new vertex n+i+1, so that the sphere built after i-1
steps has vertices 1..n+i and distances to the first n vertices obey a
min-recursion that can be tabulated without touching the complex itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import Complex
from .errors import DimensionTooLow, InfeasibleVertexCount, NotAFacet, VertexInUse


@dataclass(frozen=True)
class SubdivisionStep:
    facet: tuple[int, ...]
    new_vertex: int


@dataclass(frozen=True)
class SubdivisionTrace:
    """Witness of a stacked-sphere construction: base sphere plus ordered steps.

    Replaying the steps from the base reproduces the complex exactly; the
    base is always the boundary of a simplex (not necessarily on labels
    1..n+1 when the trace comes from recognition).
    """

    base: Complex
    steps: tuple[SubdivisionStep, ...]

    def replay(self) -> Complex:
        c = self.base
        for s in self.steps:
            c = subdivide_facet(c, s.facet, s.new_vertex)
        return c

    def to_text(self) -> str:
        """Line-oriented serialisation: one ``facet -> new vertex`` per step."""
        lines = [f"base: {' '.join(map(str, sorted(self.base.vertices)))}"]
        for s in self.steps:
            lines.append(f"{' '.join(map(str, s.facet))} -> {s.new_vertex}")
        return "\n".join(lines) + "\n"

    def __len__(self):
        return len(self.steps)


def boundary_of_simplex(n: int) -> Complex:
    """Boundary of the n-simplex: all n-subsets of {1..n+1}."""
    if n < 2:
        raise DimensionTooLow("n must be at least 2")
    verts = range(1, n + 2)
    return Complex([tuple(v for v in verts if v != skip) for skip in verts])


def subdivide_facet(c: Complex, facet, new_vertex: int) -> Complex:
    """Replace ``facet`` by the n facets coning ``new_vertex`` over its boundary."""
    F = tuple(sorted(facet))
    if F not in c.facets:
        raise NotAFacet(f"{F} is not a facet")
    if new_vertex in c.vertices:
        raise VertexInUse(f"vertex {new_vertex} already in use")
    out = [G for G in c.facets if G != F]
    for u in F:
        out.append(tuple(sorted((set(F) - {u}) | {new_vertex})))
    return Complex(out)


def build_delta(n: int, i: int) -> tuple[Complex, SubdivisionTrace]:
    """Stacked sphere number i of the fixed schedule (i=1 is the simplex boundary).

    Step j subdivides the facet {j+1, ..., n+j} with new vertex n+j+1; the
    result has n+i vertices and (n+1) + (i-1)(n-1) facets.  The schedule is
    followed literally so that distance tables and downstream facet
    identifications can refer to labels directly.

    The steps edit one facet set; only the finished sphere is built, and so
    validated, as a ``Complex``.  No step checks that its facet is present:
    {2, ..., n+1} is a facet of the simplex boundary, and for j >= 2 step
    j-1 creates {j+1, ..., n+j} as the cone facet that drops j, which only
    step j removes.  The new vertex exceeds every label in use, so appending
    it keeps each cone facet sorted.
    ``trace.replay()`` rebuilds the same sphere through ``subdivide_facet``,
    which does check.
    """
    if n < 3:
        raise DimensionTooLow("n must be at least 3")
    if i < 1:
        raise InfeasibleVertexCount(
            f"i must be at least 1 (stacked sphere number i has n + i vertices), got {i}"
        )
    base = boundary_of_simplex(n)
    facets = set(base.facets)
    steps = []
    for j in range(1, i):
        F = tuple(range(j + 1, n + j + 1))
        v = n + j + 1
        facets.remove(F)
        facets.update(F[:k] + F[k + 1 :] + (v,) for k in range(n))
        steps.append(SubdivisionStep(F, v))
    return Complex(facets), SubdivisionTrace(base, tuple(steps))


@dataclass(frozen=True)
class DistanceTable:
    """Columns x_1..x_{n+i}; column j lists the distances from vertex j to 1..n."""

    n: int
    columns: tuple[tuple[int, ...], ...]

    def entry(self, col_vertex: int, row_vertex: int) -> int:
        """Distance d(col_vertex, row_vertex) for row_vertex in 1..n."""
        return self.columns[col_vertex - 1][row_vertex - 1]

    @property
    def num_columns(self) -> int:
        return len(self.columns)


def distance_table(n: int, i: int) -> DistanceTable:
    """Distance vectors of build_delta(n, i) computed by the min-recursion.

    Initial columns: x_j (j <= n) is all ones with a zero in row j, and
    x_{n+1} is all ones.  For j >= 2 the vertex n+j is adjacent exactly to
    {j, ..., n+j-1}, so x_{n+j} = 1 + componentwise min of the n preceding
    columns x_j..x_{n+j-1}.
    """
    if n < 3 or i < 1:
        raise ValueError("need n >= 3 and i >= 1")
    cols = [tuple(0 if r == j else 1 for r in range(1, n + 1)) for j in range(1, n + 1)]
    cols.append(tuple([1] * n))  # x_{n+1}
    for j in range(2, i + 1):
        window = cols[j - 1 : j + n - 1]  # x_j .. x_{n+j-1}
        cols.append(tuple(min(w[r] for w in window) + 1 for r in range(n)))
    return DistanceTable(n, tuple(cols))


def _is_simplex_boundary(facets: frozenset, n: int) -> bool:
    verts = set()
    for f in facets:
        verts.update(f)
    if len(verts) != n + 1 or len(facets) != n + 1:
        return False
    vs = sorted(verts)
    need = {tuple(v for v in vs if v != skip) for skip in vs}
    return facets == need


def _reversal_candidates(facets: frozenset, n: int):
    """Vertices whose star is a cone over a simplex boundary, with the facet to restore."""
    incident: dict[int, list] = {}
    for f in facets:
        for v in f:
            incident.setdefault(v, []).append(f)
    out = []
    for v in sorted(incident):
        stars = incident[v]
        if len(stars) != n:
            continue
        union = set()
        for f in stars:
            union.update(f)
        union.discard(v)
        if len(union) != n:
            continue
        W = tuple(sorted(union))
        if W in facets:
            continue  # restoring W would collide; not a reversible subdivision
        out.append((v, W, stars))
    return out


def recognize_stacked(c: Complex):
    """Recover a subdivision trace if ``c`` is a stacked sphere, else ``None``.

    Works backwards: repeatedly find a vertex of degree n whose star is the
    cone over the boundary of the facet it subdivided, and undo that
    subdivision.  Greedy reversal is believed sufficient at n >= 4, but the
    search backtracks over candidate vertices so the answer is sound
    regardless; visited states are memoised.
    """
    n = c.n
    if n < 3 or c.num_vertices < n + 1:
        return None
    start = frozenset(c.facets)
    visited = set()
    # iterative DFS; each stack frame carries the peeled steps so far
    stack = [(start, ())]
    while stack:
        facets, peeled = stack.pop()
        if facets in visited:
            continue
        visited.add(facets)
        if _is_simplex_boundary(facets, n):
            base = Complex(list(facets))
            steps = tuple(SubdivisionStep(W, v) for v, W in reversed(peeled))
            return SubdivisionTrace(base, steps)
        for v, W, stars in _reversal_candidates(facets, n):
            nxt = (facets - frozenset(stars)) | {W}
            if nxt not in visited:
                stack.append((nxt, peeled + ((v, W),)))
    return None


@dataclass(frozen=True)
class Stack:
    """A maximal chain of subdivisions, each splitting a facet made by the previous one."""

    step_indices: tuple[int, ...]
    top_facets: tuple[tuple[int, ...], ...]
    top_vertex: int


@dataclass(frozen=True)
class StackDecomposition:
    stacks: tuple[Stack, ...]

    def __len__(self):
        return len(self.stacks)


def stack_decomposition(trace: SubdivisionTrace) -> StackDecomposition:
    """Maximal subdivision chains of a trace.

    Each step's parent is the step that created the facet it subdivides
    (none for facets of the base sphere).  A stack is a maximal root-to-leaf
    chain in this forest; chains may share a prefix when a step's children
    branch, but the tops of distinct stacks are disjoint facet sets.
    """
    created_by: dict[tuple[int, ...], int] = {}
    parent: list[int | None] = []
    created: list[tuple[tuple[int, ...], ...]] = []
    for t, step in enumerate(trace.steps):
        parent.append(created_by.get(step.facet))
        made = tuple(
            tuple(sorted((set(step.facet) - {u}) | {step.new_vertex}))
            for u in step.facet
        )
        created.append(made)
        for f in made:
            created_by[f] = t
    has_child = [False] * len(trace.steps)
    for p in parent:
        if p is not None:
            has_child[p] = True
    stacks = []
    for leaf in range(len(trace.steps)):
        if has_child[leaf]:
            continue
        chain = []
        t: int | None = leaf
        while t is not None:
            chain.append(t)
            t = parent[t]
        chain.reverse()
        stacks.append(
            Stack(tuple(chain), created[leaf], trace.steps[leaf].new_vertex)
        )
    return StackDecomposition(tuple(stacks))


def random_stacked_sphere(n: int, num_subdivisions: int, seed: int) -> tuple[Complex, SubdivisionTrace]:
    """Seeded random-schedule stacked sphere, for property tests."""
    rng = random.Random(seed)
    c = boundary_of_simplex(n)
    steps = []
    for k in range(num_subdivisions):
        F = rng.choice(c.facets)
        v = n + 2 + k
        c = subdivide_facet(c, F, v)
        steps.append(SubdivisionStep(F, v))
    return c, SubdivisionTrace(boundary_of_simplex(n), tuple(steps))
