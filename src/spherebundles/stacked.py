"""Stacked spheres: scheduled subdivision, distance vectors, recognition.

A stacked sphere is the boundary of a simplex after repeatedly subdividing
facets (replace a facet by the cone from a new vertex over its boundary,
``_cone``).  The builder here follows one fixed schedule: step i subdivides
the facet {i+1, ..., n+i} with new vertex n+i+1, so that the sphere built
after i-1 steps has vertices 1..n+i and distances to the first n vertices
obey a min-recursion that can be tabulated without touching the complex
itself.  Recognition undoes subdivisions greedily, which is proved enough
in ``recognize_stacked``; no search is needed.

A ``SubdivisionTrace`` is the one record of a stacked sphere: a base
sphere and steps, each storing its facet sorted.  ``SubdivisionTrace.replay``
is the one place where steps are checked and applied: ``subdivide_facet``
and ``build_delta`` replay a trace, and so does the two-stack reduction of
``handles``, which edits a trace and replays the result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

from .complexes import Complex, _scan
from .errors import DimensionTooLow, InfeasibleVertexCount, NotAFacet, VertexInUse


@dataclass(frozen=True)
class SubdivisionStep:
    """Subdivide ``facet`` with ``new_vertex``; the facet is stored sorted."""

    facet: tuple[int, ...]
    new_vertex: int

    def __post_init__(self):
        object.__setattr__(self, "facet", tuple(sorted(self.facet)))


@dataclass(frozen=True)
class SubdivisionTrace:
    """Witness of a stacked-sphere construction: base sphere plus ordered steps.

    Replaying the steps from the base reproduces the complex exactly; in
    every trace this package returns the base is the boundary of a simplex
    (not necessarily on labels 1..n+1 when the trace comes from
    recognition).
    """

    base: Complex
    steps: tuple[SubdivisionStep, ...]

    def replay(self) -> Complex:
        """The complex the steps build from the base.

        The one place where subdivision steps are checked and applied.  The
        steps edit one facet set and one vertex set, and each step refuses,
        in turn and at that step, a facet that is not present (NotAFacet), a
        new vertex already in use (VertexInUse) and a new vertex that is not
        a positive integer (NonPositiveLabel, by the constructor's own label
        rule).  Only the finished complex is built as a ``Complex``.
        """
        facets = set(self.base.facets)
        vertices = set(self.base.vertices)
        for s in self.steps:
            if s.facet not in facets:
                raise NotAFacet(f"{s.facet} is not a facet")
            if s.new_vertex in vertices:
                raise VertexInUse(f"vertex {s.new_vertex} already in use")
            _scan([(s.new_vertex,)])
            facets.remove(s.facet)
            facets.update(_cone(s.facet, s.new_vertex))
            vertices.add(s.new_vertex)
        return Complex(facets)

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


def _cone(F: tuple[int, ...], v: int) -> tuple[tuple[int, ...], ...]:
    # the cone from v over the boundary of F: F - {u} + {v}, sorted, for u in F's order
    return tuple(tuple(sorted(F[:k] + F[k + 1 :] + (v,))) for k in range(len(F)))


def subdivide_facet(c: Complex, facet, new_vertex: int) -> Complex:
    """Replace ``facet`` by the n facets coning ``new_vertex`` over its boundary.

    The one-step replay from ``c``, with its checks and messages.
    """
    return SubdivisionTrace(c, (SubdivisionStep(facet, new_vertex),)).replay()


def build_delta(n: int, i: int) -> tuple[Complex, SubdivisionTrace]:
    """Stacked sphere number i of the fixed schedule (i=1 is the simplex boundary).

    Step j subdivides the facet {j+1, ..., n+j} with new vertex n+j+1; the
    result has n+i vertices and (n+1) + (i-1)(n-1) facets.  The schedule is
    followed literally so that distance tables and downstream facet
    identifications can refer to labels directly.  The sphere is
    ``trace.replay()``.
    """
    if n < 3:
        raise DimensionTooLow("n must be at least 3")
    if i < 1:
        raise InfeasibleVertexCount(
            f"i must be at least 1 (stacked sphere number i has n + i vertices), got {i}"
        )
    steps = (SubdivisionStep(tuple(range(j + 1, n + j + 1)), n + j + 1) for j in range(1, i))
    trace = SubdivisionTrace(boundary_of_simplex(n), tuple(steps))
    return trace.replay(), trace


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


def recognize_stacked(c: Complex):
    """Recover a subdivision trace if ``c`` is a stacked sphere, else ``None``.

    Greedy peeling, without search.  While the facets are not n+1 facets on
    n+1 vertices, take the largest vertex v whose star has n facets, whose
    other star vertices form an n-set W, and for which W is not a facet;
    peel v: drop its star and add W.  When no vertex qualifies, the answer
    is ``None``.  The star is then the cone from v over the boundary of W
    (n distinct (n-1)-subsets of an n-set are all of them), so the steps
    read backwards replay to ``c``; and n+1 distinct n-subsets of an
    (n+1)-set are all of them, so the base is the boundary of a simplex.

    Why any qualifying v works on a stacked sphere S with more than n+1
    vertices.  S bounds a stacked n-ball B, and every face of B of dimension
    at most n-2 lies in S: each new simplex keeps every older low face on
    the boundary.  So for n >= 3 the edges of B at v are those of S, v's
    neighbours in B are W, and W + {v} is the only simplex of B through v.
    It is a leaf of B's dual tree, glued along W: every other ridge of it
    contains v, so it lies in no other simplex of B.  Removing it leaves a
    stacked ball whose boundary is S with v's subdivision undone, which is
    stacked again; and the last vertex added always qualifies.  So peeling
    never gets stuck on a stacked sphere, and on any other complex it stops
    with ``None``, since a trace that it finds replays to the input.  Taking
    the largest v gives the trace that a depth-first search over every
    candidate, popping the last one pushed, finds first.
    """
    n = c.n
    if n < 3 or c.num_vertices < n + 1:
        return None
    facets = set(c.facets)
    stars = {v: {c.facets[i] for i in star} for v, star in c.stars().items()}  # kept up to date
    small = {v for v, star in stars.items() if len(star) == n}  # every v with n facets
    peeled = []
    while not (len(facets) == n + 1 and len(stars) == n + 1):
        for v in sorted(small, reverse=True):
            W = tuple(sorted(set(chain.from_iterable(stars[v])) - {v}))
            if len(W) == n and W not in facets:
                break
        else:
            return None
        gone = stars.pop(v)
        facets -= gone
        facets.add(W)
        small.difference_update(W + (v,))
        for u in W:  # the other vertices of v's star
            stars[u] -= gone
            stars[u].add(W)
        small.update(u for u in W if len(stars[u]) == n)
        peeled.append(SubdivisionStep(W, v))
    return SubdivisionTrace(Complex(facets), tuple(reversed(peeled)))


@dataclass(frozen=True)
class Stack:
    """A maximal chain of subdivisions, each splitting a facet made by the previous one."""

    step_indices: tuple[int, ...]
    top_facets: tuple[tuple[int, ...], ...]
    top_vertex: int


def stack_decomposition(trace: SubdivisionTrace) -> tuple[Stack, ...]:
    """Maximal subdivision chains of a trace, one per leaf step.

    Each step's parent is the step that made the facet it subdivides (none
    for facets of the base sphere), read off one ``made_by`` dict; since
    steps store their facets sorted, a step finds its parent however it was
    written.  The leaves are the steps that no step names as a parent, in
    step order, and each stack is the root-to-leaf chain ending at one.
    Chains may share a prefix when a step's children branch, but the tops
    of distinct stacks are disjoint facet sets.
    """
    made_by: dict[tuple[int, ...], int] = {}
    parent: list[int | None] = []
    for t, s in enumerate(trace.steps):
        parent.append(made_by.get(s.facet))
        made_by.update(dict.fromkeys(_cone(s.facet, s.new_vertex), t))
    stacks = []
    for leaf in sorted(set(range(len(parent))) - set(parent)):
        path = [leaf]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        s = trace.steps[leaf]
        stacks.append(Stack(tuple(reversed(path)), _cone(s.facet, s.new_vertex), s.new_vertex))
    return tuple(stacks)


def random_stacked_sphere(n: int, num_subdivisions: int, seed: int) -> tuple[Complex, SubdivisionTrace]:
    """Seeded random-schedule stacked sphere, for property tests."""
    rng = random.Random(seed)
    base = boundary_of_simplex(n)
    facets = list(base.facets)  # sorted, as each step's complex lists its facets
    steps = []
    for k in range(num_subdivisions):
        F = rng.choice(facets)
        v = n + 2 + k
        facets = sorted([G for G in facets if G != F] + list(_cone(F, v)))
        steps.append(SubdivisionStep(F, v))
    return Complex(facets), SubdivisionTrace(base, tuple(steps))
