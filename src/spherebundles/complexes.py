"""Immutable pure simplicial complexes and their face-count arithmetic.

A complex is stored as a lexicographically sorted, duplicate-free tuple of
facets, each facet a sorted tuple of positive integer vertex labels.  Labels
are *not* required to be contiguous, which lets quotient and identification
maps compose without relabelling.  Every operation here is a pure function;
complexes are safe to share read-only between concurrent tasks.

Validation runs as a few whole-list passes, each at C speed: facet widths,
the type of every label occurrence, the least label, and repeated vertices
(ruled out already when every facet comes as a strictly increasing tuple).
A facet passed as a plain tuple already in order is kept as the caller's
own object, not copied; tuples are immutable, so sharing one between the
caller and the complex, or between a complex and the next one made from
its facets, is safe, and a replay that keeps every prefix holds each facet
once.  The facet-by-facet scan runs only when a pass fails, to name the
first fault.

Four indices are derived from the facets, each on first use and cached on
the complex:

- faces per dimension: the (d+1)-subsets of every facet, expanded into a
  frozenset one dimension at a time, so a caller that needs only the edges
  never pays for the other dimensions;
- sorted faces per dimension: the same faces as one list in lexicographic
  order, which indexes the boundary matrices and from which
  ``vertex_links`` reads every vertex link without enumerating or sorting
  the link's own faces;
- ridges: each ridge to the facets that contain it, which serves the one
  facet-graph walk that decides both pseudomanifoldness and orientability;
- stars: each vertex to the facets that contain it, which serves links, the
  orientation double cover and the isomorphism search.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb
from operator import lt

from .errors import (
    DimensionTooLow,
    Disconnected,
    EmptyInput,
    LengthMismatch,
    MixedCardinality,
    NonPositiveLabel,
    NotAFace,
)


class Complex:
    """Pure (n-1)-dimensional simplicial complex with integer vertex labels.

    ``n`` is the facet cardinality, so the complex has dimension ``n - 1``.
    Duplicate facets in the input are merged silently: quotient
    constructions naturally produce coincident facets that must collapse to
    one.  Instances are immutable; derived data (faces, ridges, stars,
    adjacency, the pseudomanifold report) is cached lazily.

    The constructor validates in whole-list passes and keeps each sorted
    plain-tuple facet as the caller's object; any other facet becomes
    ``tuple(sorted(f))``.  Only when a pass fails does the facet-by-facet
    scan run, which raises the same first fault, with the same message, as
    checking each facet in turn.
    """

    __slots__ = (
        "_facets", "_n", "_vertices", "_faces", "_sorted", "_ridges", "_stars", "_adjacency", "_pm",
    )

    def __init__(self, facets):
        facets = list(facets)
        increasing = _increasing(facets)
        # Of equal facets, such as (1, 2) and (True, 2), the set keeps the first.
        canon = sorted(set(facets) if increasing else set(map(_canonical, facets)))
        n = len(canon[0]) if canon else 0
        vertices = frozenset(chain.from_iterable(canon))
        # Whole-list passes; `and` stops at the first that fails, and only
        # then does the per-facet scan run, to raise the first fault in order.
        # Int labels that strictly increase in every facet repeat none.
        if not (
            set(map(len, canon)) == {n}
            and set(map(type, chain.from_iterable(canon))) == {int}
            and min(vertices) >= 1
            and (increasing or sum(map(len, map(set, canon))) == n * len(canon))
        ):
            _scan(canon)
        self._facets = tuple(canon)
        self._n = n
        self._vertices = vertices
        self._faces = [None] * self._n  # one face index per dimension
        self._sorted = None
        self._ridges = None
        self._stars = None
        self._adjacency = None
        self._pm = None

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        return self._facets

    @property
    def n(self) -> int:
        """Facet cardinality (dimension + 1)."""
        return self._n

    @property
    def vertices(self) -> frozenset[int]:
        return self._vertices

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def is_empty(self) -> bool:
        return not self._facets

    def faces(self, d: int) -> frozenset[tuple[int, ...]]:
        """The d-faces, as sorted tuples of d+1 vertices; empty outside
        0 <= d < n.  Built on first use and cached."""
        if not 0 <= d < self._n:
            return frozenset()
        found = self._faces[d]
        if found is None:
            found = self._faces[d] = frozenset(
                chain.from_iterable(combinations(F, d + 1) for F in self._facets)
            )
        return found

    def sorted_faces(self, d: int) -> list[tuple[int, ...]]:
        """The d-faces in lexicographic order; empty outside 0 <= d < n.

        Built on first use from ``faces(d)`` and cached; callers must not
        modify it.
        """
        if not 0 <= d < self._n:
            return []
        if self._sorted is None:
            self._sorted = [None] * self._n
        found = self._sorted[d]
        if found is None:
            found = self._sorted[d] = sorted(self.faces(d))
        return found

    @classmethod
    def _from_sorted_faces(cls, lists: list[list[tuple[int, ...]]]) -> "Complex":
        # trusted: lists[d] holds every d-face once, in lexicographic order,
        # and the last list holds the facets; nothing is re-sorted or checked
        c = cls.__new__(cls)
        c._facets = tuple(lists[-1])
        c._n = len(lists)
        c._vertices = frozenset(v for (v,) in lists[0])
        c._faces = [None] * c._n
        c._sorted = lists
        c._ridges = c._stars = c._adjacency = c._pm = None
        return c

    def ridges(self) -> dict[tuple[int, ...], list[tuple[int, int]]]:
        """Each ridge mapped to its (facet index, position of the dropped vertex)
        pairs, in facet order.  Ridges appear in the order of
        ``combinations(F, n - 1)`` over the facets F, so the first ridge that
        breaks a check is the same whichever check walks the index.

        Built on first use and cached; callers must not modify it.
        """
        if self._ridges is None:
            index: dict[tuple[int, ...], list[tuple[int, int]]] = {}
            for idx, F in enumerate(self._facets):
                for pos in range(len(F) - 1, -1, -1):
                    index.setdefault(F[:pos] + F[pos + 1 :], []).append((idx, pos))
            self._ridges = index
        return self._ridges

    def stars(self) -> dict[int, list[int]]:
        """Each vertex, in increasing order, mapped to the indices of the
        facets that contain it, in facet order.

        Built on first use and cached; callers must not modify it.
        """
        if self._stars is None:
            index: dict[int, list[int]] = {v: [] for v in sorted(self._vertices)}
            for idx, F in enumerate(self._facets):
                for v in F:
                    index[v].append(idx)
            self._stars = index
        return self._stars

    def adjacency(self) -> dict[int, set[int]]:
        if self._adjacency is None:
            adj: dict[int, set[int]] = {v: set() for v in self._vertices}
            for a, b in self.faces(1):
                adj[a].add(b)
                adj[b].add(a)
            self._adjacency = adj
        return self._adjacency

    def relabeled(self, mapping: dict[int, int]) -> "Complex":
        """Apply a vertex relabelling (identity outside ``mapping``)."""
        return Complex([tuple(mapping.get(v, v) for v in f) for f in self._facets])

    def __eq__(self, other):
        return isinstance(other, Complex) and self._facets == other._facets

    def __hash__(self):
        return hash(self._facets)

    def __repr__(self):
        return f"Complex(n={self._n}, vertices={self.num_vertices}, facets={len(self._facets)})"


def _increasing(facets: list) -> bool:
    """True if every facet is a plain tuple of one width whose labels
    strictly increase: each is then canonical as it stands and repeats no
    vertex.  Decided column by column, so no facet is visited one by one.
    """
    if set(map(type, facets)) != {tuple} or len(set(map(len, facets))) != 1:
        return False
    columns = list(zip(*facets))
    try:
        return all(all(map(lt, a, b)) for a, b in zip(columns, columns[1:]))
    except TypeError:  # unorderable labels; the facet-by-facet path names them
        return False


def _canonical(f) -> tuple:
    """``f`` itself if it is a plain tuple already in order, else ``tuple(sorted(f))``.

    The comparisons are the ones ``sorted`` makes first, in the same order,
    so an unorderable facet raises the same error either way.
    """
    if type(f) is tuple and not any(map(lt, f[1:], f)):
        return f
    return tuple(sorted(f))


def _scan(canon: list[tuple]) -> None:
    """Raise the first fault of ``canon`` facet by facet: mixed widths, then
    in facet order a repeated vertex or a label that is not a positive int.

    Accepts int subclasses other than bool, such as IntEnum members.
    """
    widths = {len(f) for f in canon}
    if len(widths) > 1:
        raise MixedCardinality(f"facet sizes {sorted(widths)} are mixed")
    for f in canon:
        if len(set(f)) != len(f):
            raise ValueError(f"facet {f} repeats a vertex")
        for v in f:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise NonPositiveLabel(f"vertex label {v!r} is not a positive integer")


@dataclass(frozen=True)
class IntVector:
    """An f-, h- or g-vector: integer entries whose first entry is 1.

    As an f-vector the entries are (f_{-1}, f_0, ..., f_{n-1}); as an
    h-vector h_0..h_n, where later entries may be negative; as a g-vector
    the differences g_i = h_i - h_{i-1} for i <= floor(n/2).
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries or self.entries[0] != 1:
            raise ValueError(f"vector {self.entries} must start with 1")

    def f(self, i: int) -> int:
        """f_i of an f-vector, for i from -1 to n-1."""
        return self.entries[i + 1]

    @property
    def g2(self) -> int:
        """g_2 of a g-vector."""
        return self.entries[2]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]


def from_facets(facet_list) -> Complex:
    """Build a canonical complex from an iterable of vertex sets.

    Facets are sorted and deduplicated.  Raises EmptyInput, MixedCardinality
    or NonPositiveLabel on malformed input.
    """
    facet_list = list(facet_list)
    if not facet_list:
        raise EmptyInput("no facets given")
    return Complex(facet_list)


def f_vector(c: Complex) -> IntVector:
    """Face counts read from the per-dimension face index."""
    return IntVector((1, *(len(c.faces(d)) for d in range(c.n))))


def h_from_f(f: IntVector, n: int) -> IntVector:
    """Alternating-sum transform: h_i = sum_j (-1)^(i-j) C(n-j, n-i) f_{j-1}."""
    if len(f) != n + 1:
        raise LengthMismatch(f"f-vector has {len(f)} entries, expected {n + 1}")
    ent = tuple(
        sum((-1) ** (i - j) * comb(n - j, n - i) * f[j] for j in range(i + 1))
        for i in range(n + 1)
    )
    return IntVector(ent)


def f_from_h(h: IntVector, n: int) -> IntVector:
    """Inverse transform: f_{i-1} = sum_j C(n-j, n-i) h_j (nonnegative weights)."""
    if len(h) != n + 1:
        raise LengthMismatch(f"h-vector has {len(h)} entries, expected {n + 1}")
    ent = tuple(
        sum(comb(n - j, n - i) * h[j] for j in range(i + 1)) for i in range(n + 1)
    )
    return IntVector(ent)


def g_vector(h: IntVector) -> IntVector:
    """g_i = h_i - h_{i-1} for i up to floor(n/2), where n = len(h) - 1."""
    n = len(h) - 1
    ent = [1]
    for i in range(1, n // 2 + 1):
        ent.append(h[i] - h[i - 1])
    return IntVector(tuple(ent))


def euler_characteristic(c: Complex) -> int:
    f = f_vector(c)
    return sum((-1) ** i * f.f(i) for i in range(c.n))


def sphere_euler_characteristic(n: int) -> int:
    """Euler characteristic of S^(n-1): 0 for n even... 1 + (-1)^(n-1)."""
    return 1 + (-1) ** (n - 1)


def klee_residual(c: Complex) -> list[int]:
    """Residuals of the closed-manifold linear relations on the h-vector.

    Returns r_i = h_{n-i} - h_i - (-1)^i C(n,i) (chi - chi(S^{n-1})) for
    i = 0..n.  All entries vanish exactly when the relations hold; for a
    complex that is not a closed manifold some entry is generically nonzero.
    """
    n = c.n
    h = h_from_f(f_vector(c), n)
    defect = euler_characteristic(c) - sphere_euler_characteristic(n)
    return [h[n - i] - h[i] - (-1) ** i * comb(n, i) * defect for i in range(n + 1)]


def link(c: Complex, face) -> Complex:
    """Link of ``face``: all faces G disjoint from it with G + face a face of c.

    The link of a facet is the empty complex (no facets).
    """
    t = tuple(sorted(face))
    if t not in c.faces(len(t) - 1):
        raise NotAFace(f"{t} is not a face")
    # every facet that contains the face lies in the star of each of its
    # vertices, so the smallest of those stars is all that is walked
    stars = c.stars()
    fs = set(t)
    out = []
    for i in min((stars[v] for v in t), key=len):
        F = c.facets[i]
        if fs.issubset(F):
            rest = tuple(v for v in F if v not in fs)
            if rest:
                out.append(rest)
    return Complex(out)


def vertex_links(c: Complex) -> Iterator[tuple[int, Complex]]:
    """Each vertex, in increasing order, with its link, equal to ``link(c, (v,))``.

    The links are read off the sorted faces of ``c``: one pass drops each
    (d+1)-face F into the bucket of every vertex of F, and the d-faces of the
    link of v are F without v over v's bucket.  Each link is built only when
    it is reached, from references to the faces of ``c``.
    """
    if c.n < 2:
        raise DimensionTooLow(f"vertex links need n >= 2, got n = {c.n}")
    buckets = {v: [[] for _ in range(c.n - 1)] for v in sorted(c.vertices)}
    for d in range(1, c.n):
        for F in c.sorted_faces(d):
            for v in F:
                buckets[v][d - 1].append(F)
    # Deleting a vertex v shared by two sorted tuples F < G keeps their order.
    # Let j be the first position where they differ, so F[j] < G[j].  If v
    # lies before j, the two still first differ at F[j] and G[j].  v cannot
    # be F[j]: it would be less than G[j] and so absent from sorted G beyond
    # j.  If v is G[j], F without v reads F[j] at position j while G without
    # v reads G[j+1] > G[j] > F[j].  Otherwise v lies beyond j in both.  And
    # F != G gives F - v != G - v.  So each bucket, in the order of the
    # sorted faces of c, yields the link's faces sorted and duplicate-free.
    for v in list(buckets):
        lists = [
            [F[:i] + F[i + 1 :] for F in faces for i in (F.index(v),)]
            for faces in buckets.pop(v)
        ]
        yield v, Complex._from_sorted_faces(lists)


def distances_from(c: Complex, u: int) -> dict[int, int]:
    """Edge-path distance from u to every vertex it reaches, by one BFS."""
    if u not in c.vertices:
        raise NotAFace(f"{u} is not a vertex")
    adj = c.adjacency()
    dist = {u: 0}
    frontier = [u]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def graph_distance(c: Complex, u: int, v: int) -> int:
    """BFS distance between two vertices in the 1-skeleton."""
    dist = distances_from(c, u)
    if v not in c.vertices:
        raise NotAFace(f"{v} is not a vertex")
    if v not in dist:
        raise Disconnected(f"no edge path from {u} to {v}")
    return dist[v]


@dataclass(frozen=True)
class PseudomanifoldReport:
    """Outcome of the pseudomanifold checks, with the first counterexample.

    ``orientable`` comes from the same walk; it is None unless ``ok``.
    """

    pure: bool
    ridges_ok: bool
    connected: bool
    detail: str = ""
    orientable: bool | None = None

    @property
    def ok(self) -> bool:
        return self.pure and self.ridges_ok and self.connected


def is_pseudomanifold(c: Complex) -> PseudomanifoldReport:
    """Check purity, ridge valence two, and facet-adjacency connectivity.

    Ridges are checked in ``c.ridges()`` order, so the first bad ridge is the
    same for every caller.  One walk of the facet graph then checks
    connectivity and signs the facets: across a ridge, two facets keep the
    same sign when the positions of their dropped vertices differ in parity,
    and take opposite signs otherwise; the complex is orientable when no
    ridge sees a conflict.  The walk never stops at a conflict, so a
    disconnected complex is always reported as disconnected.

    The report is cached on the complex, so a complex is walked once however
    many callers ask.
    """
    if c._pm is None:
        c._pm = _walk_facet_graph(c)
    return c._pm


def _walk_facet_graph(c: Complex) -> PseudomanifoldReport:
    if c.is_empty:
        return PseudomanifoldReport(False, False, False, "empty complex")
    # purity holds by construction (uniform facet cardinality); every vertex
    # lies in a facet by construction as well
    neighbors: list[list[tuple[int, int]]] = [[] for _ in c.facets]
    for ridge, incident in c.ridges().items():
        if len(incident) != 2:
            return PseudomanifoldReport(
                True, False, False,
                f"ridge {ridge} lies in {len(incident)} facets",
            )
        (a, pa), (b, pb) = incident
        flip = (pa + pb + 1) & 1  # 0: same sign, 1: opposite signs
        neighbors[a].append((b, flip))
        neighbors[b].append((a, flip))
    sign = {0: 0}
    stack = [0]
    orientable = True
    while stack:
        i = stack.pop()
        for j, flip in neighbors[i]:
            want = sign[i] ^ flip
            if j not in sign:
                sign[j] = want
                stack.append(j)
            elif sign[j] != want:
                orientable = False
    if len(sign) != len(c.facets):
        return PseudomanifoldReport(
            True, True, False,
            f"facet-adjacency graph has >= 2 components ({len(sign)} of {len(c.facets)} reachable)",
        )
    return PseudomanifoldReport(True, True, True, orientable=orientable)
