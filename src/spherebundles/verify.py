"""Exact rational homology, orientability, manifold evidence, isomorphism.

Ranks are computed over the integers by echelon insertion: every row of a
boundary matrix is reduced, by fraction-free elimination, against the pivots
found so far and keyed by its largest column, so no floating point and no
global pivot search is involved.  Boundary matrices are tiny but the covers
of the larger bundle triangulations reach a thousand faces per dimension,
hence the sparse row representation.

Betti numbers use clearing (Chen and Kerber, "Persistent homology
computation with a twist", 2011; Bauer, Kerber and Reininghaus, "Clear and
compress", 2014): the boundary maps are reduced top-down, and a d-face that
is the leading column of a pivot of the boundary of the (d+1)-faces is never
built or reduced as a row of the boundary of the d-faces.  Since the
composite of two boundary maps is zero, such a row is a combination of the
rows before it, so it would have reduced to zero.  This holds for any order
of the d-faces, provided both maps use the same one, and the ranks stay
exact.

The boundary rows are implicit, after Ripser's apparent pairs (Bauer,
"Ripser: efficient computation of Vietoris-Rips persistence barcodes",
J. Appl. Comput. Topol. 5, 2021).  With the (d-1)-faces in lexicographic
order, the largest facet of a d-face F is F[1:], the face without its least
vertex, with sign +1; so F's leading column is one index lookup.  When no
pivot holds that column, F is an apparent pivot: F itself is stored, and
its row is built only if a later row has to be reduced against it.  Most
rows are never built.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import chain, combinations
from math import gcd
from typing import TypeVar

from .complexes import Complex, PseudomanifoldReport, _walk_facet_graph, is_pseudomanifold, vertex_links
from .errors import InvalidWitness, NotPseudomanifold

K = TypeVar("K")


# ---------------------------------------------------------------------------
# boundary matrices and Betti numbers
# ---------------------------------------------------------------------------

def _boundary_row(face: tuple[int, ...], index: dict[tuple[int, ...], int]) -> dict[int, int]:
    # the face with its i-th vertex removed, at its index, gets (-1)^i
    return {index[face[:i] + face[i + 1 :]]: -1 if i & 1 else 1 for i in range(len(face))}


def boundary_matrix(c: Complex, d: int) -> list[dict[int, int]]:
    """Columns of the boundary operator from d-faces to (d-1)-faces.

    Column j, for the j-th d-face F in sorted order, is a sparse
    {row: value} dict over the sorted (d-1)-faces: the face F with its i-th
    vertex removed gets (-1)^i (the sorted-vertex orientation).  Both orders
    are the complex's one cached sorted list per dimension
    (``Complex.sorted_faces``).  For d = 0 the operator is zero (unreduced
    chain complex) and every column is empty.
    """
    if not 0 <= d <= c.n - 1:
        raise ValueError(f"d must be between 0 and {c.n - 1}")
    if d == 0:
        return [{} for _ in c.faces(0)]
    index = {f: i for i, f in enumerate(c.sorted_faces(d - 1))}
    return [_boundary_row(F, index) for F in c.sorted_faces(d)]


def _normalise(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return {k: v // g for k, v in row.items()}


def _pivots(
    keys: Iterable[K],
    lead: Callable[[K], int],
    row_of: Callable[[K], dict[int, int]],
) -> dict[int, K | dict[int, int]]:
    # echelon insertion (see exact_rank): {leading column: pivot}.  A key whose
    # leading column is free is stored as it is (an apparent pivot); any other
    # key's row is built and reduced.  A stored key is built into its row,
    # once, when a later row is reduced against it; a dict key is its own row.
    pivots: dict[int, K | dict[int, int]] = {}
    for key in keys:
        col = lead(key)
        if col not in pivots:
            pivots[col] = key
            continue
        row = row_of(key)
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = _normalise(row)
                break
            if not isinstance(pivot, dict):
                pivot = pivots[col] = row_of(pivot)
            p, v = pivot[col], row[col]
            scaled = v % p != 0
            if scaled:
                row = {c: p * x for c, x in row.items()}
                q = v
            else:
                q = v // p
            for c, x in pivot.items():
                nx = row.get(c, 0) - q * x
                if nx:
                    row[c] = nx
                else:
                    del row[c]
            if scaled:
                row = _normalise(row)
    return pivots


def exact_rank(sparse_rows: list[dict[int, int]]) -> int:
    """Rank over the rationals of an integer matrix given as sparse rows.

    Echelon insertion: each row in turn is reduced against the pivots kept
    so far, one per leading column, until it is zero or leads in a column
    that holds no pivot, where it becomes that column's pivot.  The leading
    column is the largest one with a nonzero entry: explicit zeros are
    dropped first, so they never key a pivot.  Every column of a pivot is at
    most its leading column, so each reduction strictly lowers the row's
    leading column and the reduction ends.  A row whose leading entry v is a
    multiple of the pivot's p loses (v // p) times the pivot; otherwise it is
    scaled by p, loses v times the pivot and is divided by its gcd.  A row
    that leads in a free column at once is kept as given (an apparent
    pivot); one that needed reducing is divided by the gcd of its entries.
    Integers only, exact for any input; the rank is the number of pivots of
    this elimination, which ``betti_numbers`` shares.  The input is not
    modified.
    """
    rows = [{c: v for c, v in r.items() if v} for r in sparse_rows]
    return len(_pivots([r for r in rows if r], max, dict))


def betti_numbers(c: Complex) -> tuple[int, ...]:
    """Rational Betti numbers (beta_0, ..., beta_{n-1}), unreduced.

    The boundary maps are reduced from d = n-1 down to 1 with clearing: the
    rows of the boundary of the d-faces are the d-faces in sorted order (the
    complex's one cached list, ``Complex.sorted_faces``), the same order
    that indexes the columns of the boundary of the (d+1)-faces,
    and the d-faces that lead a pivot there are skipped, because their rows
    are combinations of earlier rows (the boundary of a boundary is zero).
    The remaining f_d - rank(boundary_{d+1}) d-faces are handed to the
    elimination as keys, each leading in the column of F[1:] (the largest
    (d-1)-face of F in lexicographic order).  A face whose leading column is
    free is stored as an apparent pivot without a row; a row is built for a
    face whose leading column is taken, to be reduced, and for a stored face
    the first time a later row is reduced against it.  The rank of each map
    is the number of pivots found.
    """
    n = c.n
    faces = [c.sorted_faces(d) for d in range(n)]
    ranks = [0] * (n + 1)  # rank of boundary_d; d = 0 and d = n are zero maps
    cleared: set[int] = set()
    for d in range(n - 1, 0, -1):
        index = {f: i for i, f in enumerate(faces[d - 1])}
        cleared = set(
            _pivots(
                (F for j, F in enumerate(faces[d]) if j not in cleared),
                lambda F: index[F[1:]],
                lambda F: _boundary_row(F, index),
            )
        )
        ranks[d] = len(cleared)
    return tuple(len(faces[d]) - ranks[d] - ranks[d + 1] for d in range(n))


# ---------------------------------------------------------------------------
# orientability
# ---------------------------------------------------------------------------

def orientability(c: Complex) -> bool:
    """True iff a consistent +-1 assignment to facets exists over all ridges.

    Read from the one facet-graph walk of ``is_pseudomanifold``; raises
    NotPseudomanifold with that walk's detail when the complex is not a
    pseudomanifold.
    """
    pm = is_pseudomanifold(c)
    if not pm.ok:
        raise NotPseudomanifold(pm.detail)
    return pm.orientable


# ---------------------------------------------------------------------------
# closed-manifold evidence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkCheck:
    vertex: int
    betti: tuple[int, ...]
    orientable: bool
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ManifoldEvidence:
    """Evidence (not proof) that a complex triangulates a closed manifold."""

    pseudomanifold: PseudomanifoldReport
    link_checks: tuple[LinkCheck, ...]

    @property
    def ok(self) -> bool:
        return self.pseudomanifold.ok and all(lc.ok for lc in self.link_checks)


def _sphere_betti(dim: int) -> tuple[int, ...]:
    # unreduced Betti vector of a (dim)-sphere, dim >= 0
    b = [0] * (dim + 1)
    b[0] = 1
    b[dim] += 1
    return tuple(b)


def manifold_evidence(c: Complex) -> ManifoldEvidence:
    """Pseudomanifold checks plus, per vertex, sphere homology of its link.

    The vertex links come from one pass over the sorted faces of ``c``
    (``vertex_links``), one link at a time, so no link enumerates or sorts
    its own faces.  Each link gets its Betti vector compared against the
    sphere of dimension n-2 and an orientability check.  Its orientability
    and failure detail, the report ``is_pseudomanifold`` would give the
    link, are read off the facet graph of ``c`` restricted to v's star
    (``_walk_facet_graph(c, v)``), so ``c`` builds the one ridge index and
    no link builds its own.  Passing is evidence of manifoldness only; full
    sphere recognition is out of reach.
    """
    links = vertex_links(c)  # raises DimensionTooLow for n < 2
    pm = is_pseudomanifold(c)
    expected = _sphere_betti(c.n - 2)
    checks = []
    for v, lk in links:
        betti = betti_numbers(lk)
        lk_pm = _walk_facet_graph(c, v)
        ori = bool(lk_pm.orientable)
        detail = lk_pm.detail
        ok = betti == expected and ori
        if not ok and not detail:
            detail = f"link Betti {betti} vs sphere {expected}" if betti != expected else "link nonorientable"
        checks.append(LinkCheck(v, betti, ori, ok, detail))
    return ManifoldEvidence(pm, tuple(checks))


# ---------------------------------------------------------------------------
# combinatorial isomorphism
# ---------------------------------------------------------------------------

@dataclass
class IsoWitness:
    """Vertex bijection carrying the source facet list onto the target's."""

    mapping: dict[int, int]


def _faces(c: Complex) -> set[tuple[int, ...]]:
    # every face of c, of sizes 1..n, as one local set: nothing is cached on c
    return set(chain.from_iterable(combinations(F, k) for k in range(1, c.n + 1) for F in c.facets))


def _face_counts(c: Complex, faces: set[tuple[int, ...]]) -> dict[int, tuple[int, ...]]:
    """Each vertex v, in increasing order, mapped to the numbers of k-faces
    of c that contain v for k = 1..n-1: the f-vector of v's link, without
    its leading 1.

    Read from ``faces``, the set ``_faces(c)``, by one count of its
    (size, vertex) pairs.
    """
    count = Counter((len(f), v) for f in faces for v in f)
    return {v: tuple(count[k, v] for k in range(2, c.n + 1)) for v in sorted(c.vertices)}


def are_isomorphic(a: Complex, b: Complex) -> IsoWitness | None:
    """Search for a facet-preserving vertex bijection.

    Each complex is expanded into its faces once (``_faces``); each vertex
    is coloured by its face counts, read from that set (``_face_counts``),
    and a vertex of ``a`` is only tried on vertices of ``b`` of its colour.  The
    vertices of ``a`` are mapped in a fixed order: most neighbours among the
    vertices already ordered, then rarest colour, then least label.  A
    depth-first search over an explicit stack, one iterator of untried
    candidates per depth, extends the mapping one vertex at a time, in
    increasing label order of the candidates, so witnesses are reproducible.

    One test prunes the search: when v is mapped to w, the image of the
    mapped part of each facet through v must be a face of ``b``.  That test
    alone decides the answer.  In a complete mapping, each facet of ``a``
    was tested when its last vertex was mapped, with all its vertices
    mapped, so its image is a facet of ``b``; the mapping is injective and
    the facet counts agree, so it carries the facets onto the facets and is
    an isomorphism.  An isomorphism carries edges onto edges and non-edges
    onto non-edges, so every prefix of one keeps adjacency: a test that
    compares adjacency would only cut subtrees that hold no complete mapping,
    and the first complete mapping found is the same with it or without it.

    Two empty complexes are isomorphic by the empty mapping.  The witness is
    checked by an explicit raise before it is returned.
    """
    if a.n != b.n or a.num_vertices != b.num_vertices or len(a.facets) != len(b.facets):
        return None
    b_faces = _faces(b)
    sig_a = _face_counts(a, _faces(a))
    sig_b = _face_counts(b, b_faces)
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return None
    by_sig: dict[tuple, list[int]] = {}  # each list in increasing vertex order
    for v, s in sig_b.items():
        by_sig.setdefault(s, []).append(v)

    adj_a = a.adjacency()
    a_facets = a.facets
    star_a = a.stars()

    # order: stay connected to what is ordered, then rarest colour first
    sig_count = {s: len(vs) for s, vs in by_sig.items()}
    hits = dict.fromkeys(a.vertices, 0)  # hits[v]: neighbours of v already ordered
    remaining = set(a.vertices)
    order = []
    while remaining:
        nxt = min(remaining, key=lambda v: (-hits[v], sig_count[sig_a[v]], v))
        order.append(nxt)
        remaining.discard(nxt)
        for u in adj_a[nxt]:
            hits[u] += 1

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def consistent(v: int, w: int) -> bool:
        for i in star_a[v]:
            img = [mapping[u] for u in a_facets[i] if u in mapping]
            img.append(w)
            img.sort()
            if tuple(img) not in b_faces:
                return False
        return True

    stack = []  # stack[k] yields the untried images of order[k]
    while len(mapping) < len(order):
        if len(stack) == len(mapping):  # open the next depth
            stack.append(iter(by_sig[sig_a[order[len(mapping)]]]))
        v = order[len(stack) - 1]
        for w in stack[-1]:
            if w not in used and consistent(v, w):
                mapping[v] = w
                used.add(w)
                break
        else:  # no candidate left here: back up one depth and withdraw its image
            stack.pop()
            if not stack:
                return None
            used.discard(mapping.pop(order[len(stack) - 1]))
    image = {tuple(sorted(mapping[v] for v in F)) for F in a.facets}
    if image != set(b.facets):
        raise InvalidWitness(f"mapping {mapping} does not carry facets onto facets")
    return IsoWitness(dict(mapping))
