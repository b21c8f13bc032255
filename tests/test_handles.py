"""Handle addition, Kuehnel complexes, bundle builders, double covers."""

import random
import warnings
from collections import Counter, deque
from itertools import combinations, permutations
from math import comb

import pytest

import spherebundles as sb
from spherebundles import BundleType, complexes
from spherebundles.errors import (
    AlreadyOrientable,
    Disconnected,
    DistanceViolation,
    InfeasibleVertexCount,
    NonSimplicialQuotient,
    NotAFacet,
    NotPseudomanifold,
    NotTwoStacks,
    PairingNotOnTops,
    SphereBundleError,
)
from spherebundles.handles import CrossPairDistanceWarning, cross_pair_flags
from spherebundles.stacked import SubdivisionStep, SubdivisionTrace


def test_handle_addition_builds_miss4():
    sphere, _ = sb.build_delta(4, 9)
    q = sb.handle_addition(sphere, sb.standard_pairing(4, 9))
    assert q.num_vertices == 9
    assert len(q.facets) == 27
    assert len(q.edges()) == len(sphere.edges()) - comb(4, 2)


def test_handle_addition_deltas():
    for n, f0 in ((3, 7), (4, 9), (5, 11), (5, 12)):
        sphere, _ = sb.build_delta(n, f0)
        q = sb.handle_addition(sphere, sb.standard_pairing(n, f0))
        assert q.num_vertices == sphere.num_vertices - n
        assert len(q.facets) == len(sphere.facets) - 2
        assert len(q.edges()) == len(sphere.edges()) - comb(n, 2)


def test_handle_addition_distance_violation():
    sphere, _ = sb.build_delta(4, 2)  # every pair of vertices within distance 2
    facets = sphere.facets
    pairing = sb.Pairing(tuple(zip(facets[0], facets[-1])))
    with pytest.raises(DistanceViolation):
        sb.handle_addition(sphere, pairing)


def test_handle_addition_requires_facets():
    sphere, _ = sb.build_delta(4, 9)
    pairing = sb.Pairing(((1, 10), (2, 11), (3, 12), (13, 9)))  # {1,2,3,13} not a facet
    with pytest.raises(NotAFacet):
        sb.handle_addition(sphere, pairing)


def test_handle_addition_flags_short_cross_pairs():
    sphere, _ = sb.build_delta(4, 9)
    with pytest.warns(CrossPairDistanceWarning):
        sb.handle_addition(sphere, sb.standard_pairing(4, 9))


def test_swapped_pairs_opposite_orientability_one_extra_vertex():
    # at f0 = 2n+2 both pairings are feasible and give the two bundles
    for n in (3, 4, 5):
        std = sb.build_iss_variant(n, 2 * n + 2, "standard")
        sw = sb.build_iss_variant(n, 2 * n + 2, "swapped")
        assert std.num_vertices == 2 * n + 2
        assert sw.num_vertices == 2 * n + 2
        assert sb.orientability(std) != sb.orientability(sw)


# -- Kuehnel complexes ----------------------------------------------------------

def test_kuhnel_facet_membership():
    k4 = sb.kuhnel_complex(4)
    assert (1, 2, 3, 5) in k4.facets
    assert (1, 2, 3, 4) not in k4.facets  # consecutive


def test_kuhnel_csaszar_torus():
    k3 = sb.kuhnel_complex(3)
    assert tuple(sb.f_vector(k3)) == (1, 7, 21, 14)
    assert sb.euler_characteristic(k3) == 0


def test_kuhnel_n4_two_neighborly():
    k4 = sb.kuhnel_complex(4)
    f = sb.f_vector(k4)
    assert tuple(f) == (1, 9, 36, 54, 27)
    assert f.f(1) == comb(9, 2)
    assert f.f(1) == 4 * f.f(0)


def test_miss_isomorphic_to_kuhnel():
    for n in (3, 4, 5):
        w = sb.are_isomorphic(sb.build_miss(n), sb.kuhnel_complex(n))
        assert w is not None


# -- identified stacked spheres ----------------------------------------------------

def test_build_iss_minimal_orientable():
    c = sb.build_iss(5, 11, BundleType.ORIENTABLE)
    assert c.num_vertices == 11
    assert len(c.edges()) == 55
    assert sb.are_isomorphic(c, sb.build_miss(5)) is not None


def test_build_iss_nonorientable_needs_extra_vertex():
    c = sb.build_iss(5, 12, BundleType.NONORIENTABLE)
    assert c.num_vertices == 12
    assert len(c.edges()) == 60
    assert not sb.orientability(c)
    with pytest.raises(InfeasibleVertexCount):
        sb.build_iss(5, 11, BundleType.NONORIENTABLE)


def test_build_iss_walks_each_quotient_once(monkeypatch):
    # handle_addition's pseudomanifold check and build_iss's orientability
    # question are answered by one facet-graph walk per quotient
    walked = []
    walk = complexes._walk_facet_graph

    def counting(c):
        walked.append(c)
        return walk(c)

    monkeypatch.setattr(complexes, "_walk_facet_graph", counting)
    c = sb.build_iss(5, 12, BundleType.NONORIENTABLE)
    assert len(walked) == 2 and len(set(walked)) == 2
    assert sb.is_pseudomanifold(c) is sb.is_pseudomanifold(c)
    assert not sb.orientability(c)
    assert len(walked) == 2


def test_build_iss_below_minimum():
    with pytest.raises(InfeasibleVertexCount):
        sb.build_iss(5, 10, BundleType.ORIENTABLE)
    with pytest.raises(InfeasibleVertexCount):
        sb.build_iss_variant(5, 11, "swapped")


def test_iss_edge_count_and_g2():
    for n, f0 in ((4, 9), (4, 10), (5, 11), (5, 13), (6, 13)):
        c = sb.build_iss_variant(n, f0, "standard")
        f = sb.f_vector(c)
        assert f.f(1) == n * f0
        h = sb.h_from_f(f, n)
        assert sb.g_vector(h).g2 == comb(n + 1, 2)


def test_iss_first_betti_number_is_one():
    for n, f0, variant in ((4, 9, "standard"), (5, 11, "standard"), (5, 12, "swapped")):
        c = sb.build_iss_variant(n, f0, variant)
        assert sb.betti_numbers(c)[1] == 1


# -- two-stack reduction -------------------------------------------------------------

def _two_stack_instance():
    # a 2-stack sphere: the 7-step chain of the schedule plus one extra
    # subdivision of the untouched original facet {1,2,3,4}
    d8, tr8 = sb.build_delta(4, 8)
    sphere = sb.subdivide_facet(d8, (1, 2, 3, 4), 13)
    trace = SubdivisionTrace(tr8.base, tr8.steps + (SubdivisionStep((1, 2, 3, 4), 13),))
    pairing = sb.Pairing(((1, 10), (2, 11), (3, 12), (13, 9)))
    return sphere, trace, pairing


def test_two_stack_reduction_round_trip():
    sphere, trace, pairing = _two_stack_instance()
    assert len(sb.stack_decomposition(trace)) == 2
    original_quotient = sb.handle_addition(sphere, pairing)

    red_sphere, red_trace, red_pairing = sb.two_stack_reduction(sphere, trace, pairing)
    assert len(sb.stack_decomposition(red_trace)) == 1
    assert red_trace.replay() == red_sphere
    for u, w in red_pairing.pairs:
        assert sb.graph_distance(red_sphere, u, w) >= 3
    reduced_quotient = sb.handle_addition(red_sphere, red_pairing)
    assert sb.are_isomorphic(reduced_quotient, original_quotient) is not None
    # this instance reduces to the scheduled construction itself
    assert red_sphere == sb.build_delta(4, 9)[0]
    assert sb.are_isomorphic(reduced_quotient, sb.build_miss(4)) is not None


def test_two_stack_reduction_rejects_one_stack():
    sphere, trace = sb.build_delta(4, 9)
    with pytest.raises(NotTwoStacks):
        sb.two_stack_reduction(sphere, trace, sb.standard_pairing(4, 9))


def test_two_stack_reduction_rejects_pairing_off_tops():
    sphere, trace, _ = _two_stack_instance()
    # {1,2,3,13} is on a top but {6,7,8,9} is not a top facet of either stack
    bad = sb.Pairing(((1, 6), (2, 7), (3, 8), (13, 9)))
    with pytest.raises(PairingNotOnTops):
        sb.two_stack_reduction(sphere, trace, bad)


# -- orientation double cover ----------------------------------------------------------

def test_double_cover_of_miss4():
    m4 = sb.build_miss(4)
    cover = sb.orientation_double_cover(m4)
    assert cover.num_vertices == 18
    assert len(cover.edges()) == 72
    assert tuple(sb.f_vector(cover)) == (1, 18, 72, 108, 54)
    assert sb.orientability(cover)
    assert sb.betti_numbers(cover) == (1, 1, 1, 1)


def test_double_cover_g2_relation():
    m4 = sb.build_miss(4)
    cover = sb.orientation_double_cover(m4)

    def g2(c):
        f = sb.f_vector(c)
        return f.f(1) - c.n * f.f(0) + comb(c.n + 1, 2)

    assert g2(m4) == 10
    assert g2(cover) == 10
    assert g2(m4) == (g2(cover) + comb(5, 2)) // 2
    assert (g2(cover) + comb(5, 2)) % 2 == 0


def test_double_cover_doubles_f_vector():
    for n in (3, 4, 6):
        c = sb.build_miss(n) if n % 2 == 0 else sb.build_iss(n, 2 * n + 2, BundleType.NONORIENTABLE)
        cover = sb.orientation_double_cover(c)
        fc = tuple(sb.f_vector(c))[1:]
        fcover = tuple(sb.f_vector(cover))[1:]
        assert fcover == tuple(2 * x for x in fc)
        assert sb.orientability(cover)


def test_double_cover_rejects_orientable():
    with pytest.raises(AlreadyOrientable):
        sb.orientation_double_cover(sb.build_miss(5))


def test_double_cover_rejects_non_pseudomanifold():
    with pytest.raises(NotPseudomanifold) as exc:
        sb.orientation_double_cover(sb.Complex([(1, 2, 3)]))
    assert str(exc.value) == "ridge (1, 2) lies in 1 facets"


# -- the quotient check against the whole-face-image reference ---------------------------

def _reference_handle_addition(sphere, pairing):
    """Handle addition with one image per face of every dimension.

    Each distance is its own graph_distance call; returns the quotient and
    the cross-pair notes.
    """
    n = sphere.n
    F1, F2 = pairing.source_facet, pairing.target_facet
    if F1 not in sphere.facets or F2 not in sphere.facets or len(pairing.pairs) != n:
        raise NotAFacet("pairing is not between two facets")
    for u, w in pairing.pairs:
        d = sb.graph_distance(sphere, u, w)
        if d < 3:
            raise DistanceViolation(f"identified pair ({u}, {w}) at distance {d}")
    flags = [
        f"cross pair ({u}, {w}) at distance {d}"
        for i, (u, _) in enumerate(pairing.pairs)
        for j, (_, w) in enumerate(pairing.pairs)
        if i != j and (d := sb.graph_distance(sphere, u, w)) < 3
    ]
    relabel = {w: u for u, w in pairing.pairs}
    image_of = {}
    for d in range(n):
        for face in sphere.faces(d):
            img = tuple(sorted(relabel.get(v, v) for v in face))
            if len(set(img)) != len(face):
                raise NonSimplicialQuotient(f"face {face} degenerates to {img}")
            image_of[face] = img
    preimages = {}
    for face, img in image_of.items():
        preimages.setdefault(img, []).append(face)
    f1set, f2set = set(F1), set(F2)
    for img, pres in preimages.items():
        if len(pres) == 1:
            continue
        if len(pres) == 2:
            a, b = pres
            if (set(a) <= f1set and set(b) <= f2set) or (set(a) <= f2set and set(b) <= f1set):
                continue
        raise NonSimplicialQuotient(f"faces {pres} all map to {img}")
    new_facets = {image_of[F] for F in sphere.facets}
    new_facets.discard(F1)
    result = sb.Complex(new_facets)
    if (
        result.num_vertices != sphere.num_vertices - n
        or len(result.facets) != len(sphere.facets) - 2
        or len(result.faces(1)) != len(sphere.faces(1)) - comb(n, 2)
        or not sb.is_pseudomanifold(result).ok
    ):
        raise NonSimplicialQuotient("quotient counts or pseudomanifold check failed")
    return result, flags


def _outcome(build):
    try:
        return "ok", build(), ""
    except SphereBundleError as exc:
        return type(exc), None, str(exc)


def _against_reference(sphere, pairing):
    """'ok' or the exception type, after checking handle_addition against the reference."""
    want, ref, want_message = _outcome(lambda: _reference_handle_addition(sphere, pairing))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, quotient, message = _outcome(lambda: sb.handle_addition(sphere, pairing))
    assert got is not NonSimplicialQuotient
    assert (got, message) == (want, want_message)
    if got == "ok":
        assert quotient.facets == ref[0].facets
        assert [str(w.message) for w in caught] == ref[1]
    return got


def test_quotient_check_against_reference_on_scheduled_spheres():
    # every permutation of F2 at n = 3, 4 and a seeded sample at n = 5
    rng = random.Random(14)
    seen = Counter()
    for n, f0 in ((3, 7), (3, 8), (3, 9), (4, 9), (4, 10), (4, 11), (5, 12), (5, 13)):
        sphere, _ = sb.build_delta(n, f0)
        perms = list(permutations(range(f0 + 1, f0 + n + 1)))
        if n == 5:
            perms = rng.sample(perms, 24)
        for ws in perms:
            seen[_against_reference(sphere, sb.Pairing(tuple(zip(range(1, n + 1), ws))))] += 1
    assert seen["ok"] >= 40 and seen[DistanceViolation] >= 60


def _all_distances(c):
    adj = c.adjacency()
    table = {}
    for u in c.vertices:
        dist, queue = {u: 0}, deque([u])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        table[u] = dist
    return table


def test_quotient_check_against_reference_on_random_spheres():
    # a facet F1 of a random stacked sphere, and facets F2 whose vertices
    # are all at distance >= 2 or >= 3 from F1's, under random bijections:
    # some pass the distance check and some do not
    seen = Counter()
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.choice((3, 4))
        sphere, _ = sb.random_stacked_sphere(n, rng.randint(30, 50), seed)
        dist = _all_distances(sphere)
        for F1 in rng.sample(sphere.facets, 6):
            gap = {F: min(dist[u][w] for u in F1 for w in F) for F in sphere.facets}
            if max(gap.values()) >= 3:
                break
        for least in (2, 3):
            far = [F for F in sphere.facets if gap[F] >= least]
            for F2 in rng.sample(far, min(2, len(far))):
                ws = list(F2)
                rng.shuffle(ws)
                seen[_against_reference(sphere, sb.Pairing(tuple(zip(F1, ws))))] += 1
    assert seen["ok"] >= 30 and seen[DistanceViolation] >= 20


def test_handle_addition_on_a_disconnected_complex():
    # two tetrahedron boundaries: the distance check finds no edge path
    tetra = list(combinations(range(1, 5), 3))
    sphere = sb.Complex(tetra + [tuple(v + 4 for v in F) for F in tetra])
    pairing = sb.Pairing(((1, 5), (2, 6), (3, 7)))
    with pytest.raises(Disconnected, match=r"^no edge path from 1 to 5$"):
        sb.handle_addition(sphere, pairing)
    with pytest.raises(Disconnected, match=r"^no edge path from 1 to 6$"):
        cross_pair_flags(sphere, pairing)
