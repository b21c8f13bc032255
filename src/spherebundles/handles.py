"""Handle addition on stacked spheres and the bundle triangulations it yields.

Identifying two facets of a triangulated sphere (via a vertex pairing) and
removing the identified facet produces a triangulation of a sphere bundle
over the circle, provided every matched vertex pair is at edge-path distance
at least three.  Applied to a stacked sphere the result is an *identified
stacked sphere* (ISS); with the minimum vertex count 2n+1 it is a *minimal*
one (MISS), combinatorially the Kuehnel complex.  Which of the two bundles
appears is always computed from the quotient, never inferred from the
pairing's parity.  The quotient relabels only the facets that meet the
target facet, and its vertex, facet and edge counts prove it simplicial.

Constructions return a ``Construction`` record: the complex, the trace of
its stacked sphere, the pairing kept and the cross-pair notes of that
pairing.  ``sb.construct_iss(5, 12, sb.BundleType.NONORIENTABLE).notes``
lists the six short cross distances of the swapped pairing it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb

from .complexes import Complex, _across, _component, distances_from, graph_distance, is_pseudomanifold
from .errors import (
    AlreadyOrientable,
    DimensionTooLow,
    DistanceViolation,
    InfeasibleVertexCount,
    NonSimplicialQuotient,
    NotAFacet,
    NotTwoStacks,
    PairingNotOnTops,
)
from .stacked import (
    SubdivisionStep,
    SubdivisionTrace,
    build_delta,
    stack_decomposition,
    subdivide_facet,
)
from . import verify


class BundleType(Enum):
    ORIENTABLE = "orientable"
    NONORIENTABLE = "nonorientable"

    @property
    def orientable(self) -> bool:
        return self is BundleType.ORIENTABLE


@dataclass(frozen=True)
class Pairing:
    """Ordered vertex pairs (u_i, w_i) between the two facets to identify."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        us = [u for u, _ in self.pairs]
        ws = [w for _, w in self.pairs]
        if len(set(us)) != len(us) or len(set(ws)) != len(ws):
            raise ValueError("pairing must be a bijection between two facets")

    @property
    def source_facet(self) -> tuple[int, ...]:
        return tuple(sorted(u for u, _ in self.pairs))

    @property
    def target_facet(self) -> tuple[int, ...]:
        return tuple(sorted(w for _, w in self.pairs))

    def substituted(self, old_pair, new_pair) -> "Pairing":
        return Pairing(tuple(new_pair if p == old_pair else p for p in self.pairs))


@dataclass(frozen=True)
class Construction:
    """A handle-addition quotient with how it was made.

    ``complex`` is ``handle_addition(trace.replay(), pairing)``, and ``notes``
    are the ``cross_pair_flags`` of that sphere and pairing.
    """

    complex: Complex
    trace: SubdivisionTrace
    pairing: Pairing
    notes: tuple[str, ...]


def cross_pair_flags(sphere: Complex, pairing: Pairing) -> list[str]:
    """Cross distances d(u_i, w_j), i != j, that fall below three.

    Short cross distances are legal; the construction only needs matched
    pairs to be far apart, so these are notes, not errors.
    """
    flags = []
    for i, (u, _) in enumerate(pairing.pairs):
        dist = distances_from(sphere, u)
        for j, (_, w) in enumerate(pairing.pairs):
            if i == j:
                continue
            # graph_distance raises NotAFace or Disconnected for a w not reached
            d = dist[w] if w in dist else graph_distance(sphere, u, w)
            if d < 3:
                flags.append(f"cross pair ({u}, {w}) at distance {d}")
    return flags


def handle_addition(sphere: Complex, pairing: Pairing) -> Complex:
    """Identify two facets of a sphere along ``pairing`` and drop the result facet.

    Each w_i is relabelled to u_i, coincident faces merge, and the single
    identified facet is removed.  Requires matched-pair distances >= 3 and a
    quotient map q that is injective on faces apart from the intended merges;
    the result must come out a pseudomanifold.  The facet and edge counts
    (facets -2, edges -C(n,2)) are verified on every call.

    A pairing whose size is not n is refused as "F1 is not a facet": the
    u_i are distinct, so F1 has one vertex per pair.

    Each matched distance is one breadth-first search.  Only the facets in
    the stars of F2's vertices are relabelled; every other facet is its own
    image.  The counts alone prove the quotient simplicial:

    - F1 is fixed.  After the distance check F1 and F2 are disjoint, since a
      shared vertex would be some w_k equal or adjacent to u_k.  So q fixes
      F1 and maps F2's C(n,2) edges onto F1's, and the edge count drops by
      exactly C(n,2) iff no other two edges share an image.
    - Every unintended collision shows up in the edges.  Take distinct faces
      F and G with one image that are not an F1/F2 pair.  If |F| = 1 they
      are {w_i} and {u_i}, an intended merge.  Otherwise take x in F - G and
      the y in G with q(y) = q(x); for each other z in F take its partner
      z' in G.  The edges {x, z} != {y, z'} share an image, and if every
      such pair lay in F1 and F2, then F and G would too.  So the edge count
      refuses every such collision.
    - The vertex count drops by exactly n, so it is not checked.  Every w_i
      is relabelled.  A vertex outside F1 and F2 keeps each facet through
      it, since no such facet's image is F1.  For u_i to vanish, every
      facet through u_i would have to map onto F1; then lk(u_i) would take
      its vertices from one of u_k or w_k for each k != i, never both, as
      d(u_k, w_k) >= 3.  That is at most n - 1 vertices, but an
      (n-2)-sphere has at least n.
    """
    n = sphere.n
    F1 = pairing.source_facet
    F2 = pairing.target_facet
    if F1 not in sphere.facets:
        raise NotAFacet(f"{F1} is not a facet of the sphere")
    if F2 not in sphere.facets:
        raise NotAFacet(f"{F2} is not a facet of the sphere")
    for u, w in pairing.pairs:
        d = graph_distance(sphere, u, w)
        if d < 3:
            raise DistanceViolation(f"identified pair ({u}, {w}) at distance {d}")

    relabel = {w: u for u, w in pairing.pairs}
    stars = sphere.stars()
    facets = list(sphere.facets)
    for i in sorted({i for w in F2 for i in stars[w]}):
        F = facets[i]
        G = tuple(relabel.get(v, v) for v in F)
        if len(set(G)) != n:
            raise NonSimplicialQuotient(f"face {F} degenerates to {tuple(sorted(G))}")
        facets[i] = tuple(sorted(G))
    # F2's image is F1, and the identified facet is removed from the quotient
    result = Complex(set(facets) - {F1})

    if len(result.facets) != len(sphere.facets) - 2:
        raise NonSimplicialQuotient("facet count did not drop by 2")
    if len(result.faces(1)) != len(sphere.faces(1)) - comb(n, 2):
        raise NonSimplicialQuotient("edge count did not drop by C(n, 2)")
    pm = is_pseudomanifold(result)
    if not pm.ok:
        raise NonSimplicialQuotient(f"quotient is not a pseudomanifold: {pm.detail}")
    return result


def kuhnel_complex(n: int) -> Complex:
    """Kuehnel's cyclic triangulation on 2n+1 vertices (Csaszar torus at n=3).

    Facets are the n-subsets of the cyclic translates of {1, ..., n+1}
    modulo 2n+1 that are not arcs: each window with one interior vertex
    dropped, which leaves two gaps (an end leaves an arc); (2n+1)(n-1) facets.
    """
    if n < 3:
        raise DimensionTooLow("n must be at least 3")
    m = 2 * n + 1
    facets = []
    for t in range(m):
        window = [(t + j) % m + 1 for j in range(n + 1)]
        facets += (tuple(sorted(window[:k] + window[k + 1 :])) for k in range(1, n))
    return Complex(facets)


def standard_pairing(n: int, f0: int) -> Pairing:
    """Pairs (i, f0+i) identifying {1..n} with {f0+1..f0+n} in order."""
    return Pairing(tuple((i, f0 + i) for i in range(1, n + 1)))


def swapped_pairing(n: int, f0: int) -> Pairing:
    """The standard pairing with the last two partners exchanged."""
    pairs = [(i, f0 + i) for i in range(1, n - 1)]
    pairs.append((n - 1, f0 + n))
    pairs.append((n, f0 + n - 1))
    return Pairing(tuple(pairs))


VARIANTS = ("standard", "swapped")


def _iss_pairings(n: int, f0: int) -> dict[str, Pairing]:
    """The pairings an ISS on f0 vertices can use, by variant, in the order
    they are tried: the standard one, and the swapped one from f0 = 2n+2."""
    if f0 < 2 * n + 1:
        raise InfeasibleVertexCount(f"need f0 >= {2 * n + 1}, got {f0}")
    pairings = {"standard": standard_pairing(n, f0)}
    if f0 >= 2 * n + 2:
        pairings["swapped"] = swapped_pairing(n, f0)
    return pairings


def build_iss_variant(n: int, f0: int, variant: str) -> Complex:
    """Identified stacked sphere on f0 vertices from one explicit pairing.

    Takes the scheduled stacked sphere with f0+n vertices and applies the
    standard or swapped facet identification.  The result has n*f0 edges.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    pairings = _iss_pairings(n, f0)
    if variant not in pairings:
        raise InfeasibleVertexCount(f"swapped pairing needs f0 >= {2 * n + 2}, got {f0}")
    sphere, _ = build_delta(n, f0)
    return handle_addition(sphere, pairings[variant])


def construct_iss(n: int, f0: int, bundle: BundleType) -> Construction:
    """Identified stacked sphere on f0 vertices with the requested bundle type.

    Builds the scheduled stacked sphere once, tries the standard pairing on
    it, then the swapped one, and keeps whichever quotient's computed
    orientability matches the request; raises InfeasibleVertexCount when
    neither does (e.g. the nonorientable bundle at the odd-n minimum
    f0 = 2n+1).  The notes are those of the pairing kept.
    """
    pairings = _iss_pairings(n, f0)
    sphere, trace = build_delta(n, f0)
    for pairing in pairings.values():
        c = handle_addition(sphere, pairing)
        if verify.orientability(c) == bundle.orientable:
            return Construction(c, trace, pairing, tuple(cross_pair_flags(sphere, pairing)))
    raise InfeasibleVertexCount(
        f"no pairing on f0 = {f0} yields the {bundle.value} bundle (n = {n})"
    )


def construct_miss(n: int) -> Construction:
    """Minimal identified stacked sphere: 2n+1 vertices, the Kuehnel complex."""
    sphere, trace = build_delta(n, 2 * n + 1)
    pairing = standard_pairing(n, 2 * n + 1)
    c = handle_addition(sphere, pairing)
    return Construction(c, trace, pairing, tuple(cross_pair_flags(sphere, pairing)))


def build_iss(n: int, f0: int, bundle: BundleType) -> Complex:
    """The complex of ``construct_iss(n, f0, bundle)``."""
    return construct_iss(n, f0, bundle).complex


def build_miss(n: int) -> Complex:
    """The complex of ``construct_miss(n)``."""
    return construct_miss(n).complex


def two_stack_reduction(
    sphere: Complex, trace: SubdivisionTrace, pairing: Pairing
) -> tuple[Complex, SubdivisionTrace, Pairing]:
    """Trade a two-stack construction for a one-stack one with the same quotient.

    Undoes the last subdivision of the stack holding the pairing's source
    facet, then re-subdivides the partner facet, reusing the removed top
    vertex's label so the pairing update is a pure substitution.  The
    quotients before and after are combinatorially isomorphic and all
    matched distances stay >= 3.
    """
    decomp = stack_decomposition(trace)
    if len(decomp) != 2:
        raise NotTwoStacks(f"trace has {len(decomp)} stacks, need exactly 2")
    F1, F2 = pairing.source_facet, pairing.target_facet

    def owner(facet):
        for idx, st in enumerate(decomp.stacks):
            if facet in st.top_facets:
                return idx
        return None

    own1, own2 = owner(F1), owner(F2)
    if own1 is None or own2 is None or own1 == own2:
        raise PairingNotOnTops(
            "pairing must identify one facet from the top of each stack"
        )

    # undo the leaf subdivision of the stack holding the source facet
    undo_stack = decomp.stacks[own1]
    leaf_index = undo_stack.step_indices[-1]
    leaf = trace.steps[leaf_index]
    top_vertex = leaf.new_vertex
    restored = leaf.facet
    u_star = next(v for v in restored if v not in F1)

    reduced_facets = set(sphere.facets) - set(undo_stack.top_facets)
    reduced_facets.add(restored)
    reduced = Complex(reduced_facets)
    # re-subdivide the partner facet, reusing the freed label
    new_sphere = subdivide_facet(reduced, F2, top_vertex)

    new_steps = tuple(
        s for t, s in enumerate(trace.steps) if t != leaf_index
    ) + (SubdivisionStep(F2, top_vertex),)
    new_trace = SubdivisionTrace(trace.base, new_steps)

    # the undone top vertex sits on the source side of its pair; its partner
    # slot is taken over by the re-subdivision vertex (same label)
    old_pair = next(p for p in pairing.pairs if p[0] == top_vertex)
    new_pairing = pairing.substituted(old_pair, (u_star, top_vertex))

    for u, w in new_pairing.pairs:
        d = graph_distance(new_sphere, u, w)
        if d < 3:
            raise DistanceViolation(f"reduced pairing ({u}, {w}) at distance {d}")
    return new_sphere, new_trace, new_pairing


def orientation_double_cover(c: Complex) -> Complex:
    """Orientation double cover of a nonorientable pseudomanifold.

    Two copies of every facet are glued along every ridge, staying on the
    same sheet when the adjacency is orientation-preserving and swapping
    sheets otherwise.  Face counts double and the cover is orientable.
    Copies of vertex v are labelled v, v + max_label, v + 2 max_label, ...

    The copies of v are the components of the (facet, sheet) pairs of v's
    star under the one facet-graph walk (``_component``), kept to that star
    so that it crosses exactly the ridges through v: the walk that checks
    lk(v) for ``manifold_evidence``, on both sheets.  Crossing a ridge swaps
    sheets where the signs of ``_across`` are opposite.  A walk starts from
    each pair not yet reached, in (facet, sheet) order, so copies are
    numbered in the order of their least pair.
    """
    if verify.orientability(c):
        raise AlreadyOrientable("complex is already orientable")

    n, facets = c.n, c.facets
    across, _ = _across(c)
    shift = max(c.vertices)
    # label[(2 i + s) n + q]: the copy of facets[i][q] on sheet s
    label = [0] * (2 * n * len(facets))
    for v, star in c.stars().items():
        nodes = [2 * i + s for i in star for s in (0, 1)]
        left = set(nodes)
        copies = 0
        for start in nodes:
            if start in left:
                for k in _component(across, start, left):
                    label[k * n + facets[k >> 1].index(v)] = v + copies * shift
                copies += 1

    return Complex(label[k : k + n] for k in range(0, len(label), n))
