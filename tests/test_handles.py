"""Handle addition, Kuehnel complexes, bundle builders, double covers."""

import random
from collections import Counter, deque
from itertools import combinations, permutations
from math import comb
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from spherebundles import handles
from spherebundles.handles import cross_pair_flags
from spherebundles.stacked import SubdivisionStep, SubdivisionTrace


def test_handle_addition_builds_miss4():
    sphere, _ = sb.build_delta(4, 9)
    q = sb.handle_addition(sphere, sb.standard_pairing(4, 9))
    assert q.num_vertices == 9
    assert len(q.facets) == 27
    assert len(q.faces(1)) == len(sphere.faces(1)) - comb(4, 2)


def test_handle_addition_deltas():
    for n, f0 in ((3, 7), (4, 9), (5, 11), (5, 12)):
        sphere, _ = sb.build_delta(n, f0)
        q = sb.handle_addition(sphere, sb.standard_pairing(n, f0))
        assert q.num_vertices == sphere.num_vertices - n
        assert len(q.facets) == len(sphere.facets) - 2
        assert len(q.faces(1)) == len(sphere.faces(1)) - comb(n, 2)


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


def _flapped_sphere():
    # a triangle hung on the edge (6, 7), far from both identified facets
    sphere, _ = sb.build_delta(3, 10)
    return sb.Complex(list(sphere.facets) + [(6, 7, 14)])


@pytest.mark.parametrize(
    "sphere, pairs, error, message",
    [
        # only the source facet is missing, then only the target facet
        (sb.build_delta(4, 9)[0], ((1, 10), (2, 11), (3, 12), (9, 13)),
         NotAFacet, "(1, 2, 3, 9) is not a facet of the sphere"),
        (sb.build_delta(4, 9)[0], ((1, 9), (2, 10), (3, 11), (4, 12)),
         NotAFacet, "(9, 10, 11, 12) is not a facet of the sphere"),
        # three pairs on 4-vertex facets: the source cannot be a facet
        (sb.build_delta(4, 9)[0], ((1, 11), (2, 12), (3, 13)),
         NotAFacet, "(1, 2, 3) is not a facet of the sphere"),
        # the counts pass, and the ridge (6, 7) keeps three facets
        (_flapped_sphere(), ((1, 11), (2, 12), (3, 13)),
         NonSimplicialQuotient, "quotient is not a pseudomanifold: ridge (6, 7) lies in 3 facets"),
    ],
)
def test_handle_addition_names_each_fault(sphere, pairs, error, message):
    with pytest.raises(error) as exc:
        sb.handle_addition(sphere, sb.Pairing(pairs))
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: sb.Pairing(((1, 5), (2, 5))), ValueError,
         "pairing must be a bijection between two facets"),
        (lambda: sb.Pairing(((1, 5), (1, 6))), ValueError,
         "pairing must be a bijection between two facets"),
        (lambda: sb.kuhnel_complex(2), sb.errors.DimensionTooLow, "n must be at least 3"),
        (lambda: sb.build_iss_variant(5, 12, "twisted"), ValueError,
         "variant must be one of ('standard', 'swapped')"),
        (lambda: sb.build_iss_variant(5, 10, "standard"), InfeasibleVertexCount,
         "need f0 >= 11, got 10"),
        (lambda: sb.build_iss_variant(5, 11, "swapped"), InfeasibleVertexCount,
         "swapped pairing needs f0 >= 12, got 11"),
    ],
)
def test_constructors_name_each_fault(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


def test_handle_addition_flags_short_cross_pairs():
    sphere, _ = sb.build_delta(4, 9)
    pairing = sb.standard_pairing(4, 9)
    assert cross_pair_flags(sphere, pairing)
    assert sb.construct_miss(4).notes == tuple(cross_pair_flags(sphere, pairing))


def test_quotient_collision_guard(monkeypatch):
    # (1, 5) and (2, 6) are edges, so the pairing leaves (2, 5) and (5, 6)
    # to collide with (1, 2); reporting every distance as 3 lets it through
    # to the face counts, and the facets collide too
    monkeypatch.setattr(handles, "graph_distance", lambda c, u, w: 3)
    sphere, _ = sb.build_delta(3, 5)
    pairing = sb.Pairing(((1, 5), (2, 6), (3, 8)))
    with pytest.raises(NonSimplicialQuotient) as exc:
        sb.handle_addition(sphere, pairing)
    assert str(exc.value) == "facet count did not drop by 2"


def test_edge_count_alone_refuses_a_collision(monkeypatch):
    # below f0 = 2n + 1 the standard pairing's matched vertices share a
    # neighbour x, so the edges {u_i, x} and {w_i, x} collide; no facets
    # collide and the quotient is a pseudomanifold, so only the edge count
    # refuses it
    sphere, _ = sb.build_delta(4, 8)
    pairing = sb.standard_pairing(4, 8)
    assert {sb.graph_distance(sphere, u, w) for u, w in pairing.pairs} == {2}
    monkeypatch.setattr(handles, "graph_distance", lambda c, u, w: 3)
    with pytest.raises(NonSimplicialQuotient, match=r"^edge count did not drop by C\(n, 2\)$"):
        sb.handle_addition(sphere, pairing)


# the (n, f0, bundle) triples of the pipeline benchmark
_PIPELINE_TRIPLES = tuple(
    (n, f0, bundle)
    for n, f0 in ((5, 14), (6, 20), (7, 24), (8, 30))
    for bundle in BundleType
    if (n, f0, bundle) != (8, 30, BundleType.NONORIENTABLE)
)


def test_construction_record_replays():
    cases = [(sb.construct_iss(*t), sb.build_iss(*t)) for t in _PIPELINE_TRIPLES]
    cases += [(sb.construct_miss(n), sb.build_miss(n)) for n in range(3, 9)]
    for made, built in cases:
        assert built == made.complex
        sphere = made.trace.replay()
        assert sb.handle_addition(sphere, made.pairing) == made.complex
        assert made.notes == tuple(cross_pair_flags(sphere, made.pairing))


def test_nonorientable_5_12_keeps_the_swapped_pairing():
    # the standard pairing on (5,12) gives the orientable bundle, so the
    # nonorientable record comes from the swapped one
    made = sb.construct_iss(5, 12, BundleType.NONORIENTABLE)
    assert made.pairing == sb.swapped_pairing(5, 12)
    assert len(made.notes) == len(set(made.notes)) == 6


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


def _kuhnel_by_window_scan(n):
    """Reference: every n-subset of a cyclic window of n+1 vertices that is
    not n cyclically consecutive vertices, found by scanning for an arc."""
    m = 2 * n + 1

    def is_arc(subset):
        return any(all((a - 1 + t) % m + 1 in subset for t in range(n)) for a in subset)

    facets = set()
    for t in range(m):
        window = frozenset((t + j) % m + 1 for j in range(n + 1))
        for drop in window:
            if not is_arc(window - {drop}):
                facets.add(tuple(sorted(window - {drop})))
    return sb.Complex(facets)


def test_kuhnel_facets_equal_the_window_scan():
    for n in range(3, 13):
        k = sb.kuhnel_complex(n)
        assert k == _kuhnel_by_window_scan(n)
        assert len(k.facets) == (2 * n + 1) * (n - 1)


def test_miss_isomorphic_to_kuhnel():
    for n in (3, 4, 5):
        w = sb.are_isomorphic(sb.build_miss(n), sb.kuhnel_complex(n))
        assert w is not None


# -- identified stacked spheres ----------------------------------------------------

def test_build_iss_minimal_orientable():
    c = sb.build_iss(5, 11, BundleType.ORIENTABLE)
    assert c.num_vertices == 11
    assert len(c.faces(1)) == 55
    assert sb.are_isomorphic(c, sb.build_miss(5)) is not None


def test_build_iss_nonorientable_needs_extra_vertex():
    c = sb.build_iss(5, 12, BundleType.NONORIENTABLE)
    assert c.num_vertices == 12
    assert len(c.faces(1)) == 60
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
    assert len(cover.faces(1)) == 72
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

def _reference_handle_addition(sphere, pairing, check_distances=True):
    """Handle addition with one image per face of every dimension.

    Each distance is its own graph_distance call, and
    ``check_distances=False`` skips the matched-pair ones; returns the
    quotient and the cross-pair notes.
    """
    n = sphere.n
    F1, F2 = pairing.source_facet, pairing.target_facet
    if F1 not in sphere.facets or F2 not in sphere.facets or len(pairing.pairs) != n:
        raise NotAFacet("pairing is not between two facets")
    for u, w in pairing.pairs if check_distances else ():
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
    got, quotient, message = _outcome(lambda: sb.handle_addition(sphere, pairing))
    assert got is not NonSimplicialQuotient
    assert (got, message) == (want, want_message)
    if got == "ok":
        assert quotient.facets == ref[0].facets
        assert cross_pair_flags(sphere, pairing) == ref[1]
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


@st.composite
def _any_pairing(draw):
    """A random stacked sphere, a random facet F1, a facet F2 whose vertices
    are all at distance >= 1, 2 or 3 from F1's (the largest gap there is, if
    less), and a random bijection between them."""
    n = draw(st.sampled_from((3, 4, 5)))
    sphere, _ = sb.random_stacked_sphere(n, draw(st.integers(8, 40)), draw(st.integers(0, 10**6)))
    dist = _all_distances(sphere)
    F1 = draw(st.sampled_from(sphere.facets))
    gap = {F: min(dist[u][w] for u in F1 for w in F) for F in sphere.facets}
    least = min(draw(st.sampled_from((1, 2, 3))), max(gap.values()))
    assume(least >= 1)
    F2 = draw(st.sampled_from([F for F in sphere.facets if gap[F] >= least]))
    ws = draw(st.permutations(F2))
    return sphere, sb.Pairing(tuple(zip(F1, ws)))


@settings(max_examples=150, deadline=None)
@given(_any_pairing())
def test_quotient_check_without_distances_matches_reference(case):
    # with every distance reported as 3, whatever the pairing, the quotient
    # check alone must refuse exactly the quotients the reference refuses
    sphere, pairing = case
    want, ref, _ = _outcome(
        lambda: _reference_handle_addition(sphere, pairing, check_distances=False)
    )
    with mock.patch.object(handles, "graph_distance", lambda c, u, w: 3):
        got, quotient, _ = _outcome(lambda: sb.handle_addition(sphere, pairing))
    assert (got is NonSimplicialQuotient) == (want is NonSimplicialQuotient)
    assert got in ("ok", NonSimplicialQuotient)
    if got == "ok":
        assert quotient.facets == ref[0].facets


@st.composite
def _legal_pairing(draw):
    """A random stacked sphere, a random facet F1, a chain of 2n..3n more
    subdivisions from another facet, each of the newest facet that drops the
    oldest vertex of the last one, the chain's last facet F2, and a random
    bijection whose matched pairs are at distance >= 3.

    Stacking never changes the distances between old vertices, and the
    chain walks away from where it starts, so such a bijection often exists.
    """
    n = draw(st.sampled_from((3, 4, 5)))
    sphere, _ = sb.random_stacked_sphere(n, draw(st.integers(0, 10)), draw(st.integers(0, 10**6)))
    F1 = draw(st.sampled_from(sphere.facets))
    start = draw(st.sampled_from([F for F in sphere.facets if F != F1]))
    window = list(draw(st.permutations(start)))
    for _ in range(draw(st.integers(2 * n, 3 * n))):
        v = max(sphere.vertices) + 1
        sphere = sb.subdivide_facet(sphere, window, v)
        window = window[1:] + [v]
    dist = {u: complexes.distances_from(sphere, u) for u in F1}
    legal = [
        ws for ws in permutations(sorted(window)) if all(dist[u][w] >= 3 for u, w in zip(F1, ws))
    ]
    assume(legal)
    return sphere, sb.Pairing(tuple(zip(F1, draw(st.sampled_from(legal)))))


@settings(max_examples=60, deadline=None)
@given(_legal_pairing())
def test_legal_quotient_counts_klee_and_cover(case):
    sphere, pairing = case
    n = sphere.n
    q = sb.handle_addition(sphere, pairing)
    assert sb.klee_residual(q) == [0] * (n + 1)
    fs, fq = sb.f_vector(sphere), sb.f_vector(q)
    assert fq.f(0) == fs.f(0) - n
    assert fq.f(1) == fs.f(1) - comb(n, 2)
    assert fq.f(n - 1) == fs.f(n - 1) - 2
    if not sb.orientability(q):
        cover = sb.orientation_double_cover(q)
        assert tuple(sb.f_vector(cover))[1:] == tuple(2 * x for x in tuple(fq)[1:])
        assert sb.orientability(cover)


def test_handle_addition_on_a_disconnected_complex():
    # two tetrahedron boundaries: the distance check finds no edge path
    tetra = list(combinations(range(1, 5), 3))
    sphere = sb.Complex(tetra + [tuple(v + 4 for v in F) for F in tetra])
    pairing = sb.Pairing(((1, 5), (2, 6), (3, 7)))
    with pytest.raises(Disconnected, match=r"^no edge path from 1 to 5$"):
        sb.handle_addition(sphere, pairing)
    with pytest.raises(Disconnected, match=r"^no edge path from 1 to 6$"):
        cross_pair_flags(sphere, pairing)
