"""Bistellar edge insertion: single moves, schedules, the feasible region."""

from functools import cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spherebundles as sb
from spherebundles import BundleType, MoveSpec, moves
from spherebundles.errors import NotFlippable, ScheduleInvalid, TargetOutOfRange


@pytest.fixture(scope="module")
def iss_std():
    return sb.build_iss_variant(5, 12, "standard")


@pytest.fixture(scope="module")
def iss_sw():
    return sb.build_iss_variant(5, 12, "swapped")


def test_move_spec_validation():
    with pytest.raises(ValueError):
        MoveSpec((1, 1), (2, 3, 4, 5))
    with pytest.raises(ValueError):
        MoveSpec((1, 2), (2, 3, 4, 5))
    mv = MoveSpec((7, 1), (6, 2, 5, 3))
    assert mv.a == (1, 7) and mv.b == (2, 3, 5, 6)


def test_is_flippable_first_scheduled_move(iss_std):
    assert sb.is_flippable(iss_std, MoveSpec((1, 7), (2, 3, 5, 6)))


def test_is_flippable_rejects_existing_edge(iss_std):
    # {1, 2} is an edge, so no move may target it
    assert not sb.is_flippable(iss_std, MoveSpec((1, 2), (3, 4, 6, 7)))


def test_is_flippable_rejects_missing_cone(iss_std):
    # B must span two facets with the A vertices; {2,3,4,5} has no cone to 7
    assert not sb.is_flippable(iss_std, MoveSpec((1, 7), (2, 3, 4, 5)))


def _induced_subcomplex(c, vertex_set):
    """Reference: all faces of c inside ``vertex_set``, by size, then in order."""
    s = set(vertex_set)
    inside = (f for d in range(min(c.n, len(s))) for f in c.faces(d) if s.issuperset(f))
    return sorted(inside, key=lambda f: (len(f), f))


def test_induced_subcomplex_of_flippable_configuration(iss_std):
    a, b = (1, 7), (2, 3, 5, 6)
    faces = _induced_subcomplex(iss_std, set(a) | set(b))
    both = [f for f in faces if set(a) <= set(f)]
    assert both == []
    # every subset omitting one of the A vertices is present
    expected = set()
    for av in a:
        cone = tuple(sorted((av,) + b))
        for k in range(1, 6):
            expected.update(combinations(cone, k))
    assert set(faces) == expected


def test_is_flippable_matches_induced_subcomplex_definition(iss_std):
    # definitional oracle: faces inside A + B are exactly the subsets
    # missing at least one A-vertex
    candidates = [
        MoveSpec((1, 7), (2, 3, 5, 6)),
        MoveSpec((2, 8), (3, 4, 6, 7)),
        MoveSpec((1, 7), (2, 3, 4, 5)),
        MoveSpec((1, 2), (3, 4, 6, 7)),
        MoveSpec((3, 9), (1, 2, 5, 6)),
    ]
    for mv in candidates:
        union = set(mv.a) | set(mv.b)
        faces = set(_induced_subcomplex(iss_std, union))
        expected = set()
        for k in range(1, 7):
            for sub in combinations(sorted(union), k):
                if not set(mv.a) <= set(sub):
                    expected.add(sub)
        assert sb.is_flippable(iss_std, mv) == (faces == expected)


def test_apply_move_counts(iss_std):
    mv = MoveSpec((1, 7), (2, 3, 5, 6))
    out = sb.apply_move(iss_std, mv)
    assert out.vertices == iss_std.vertices
    assert len(out.faces(1)) == len(iss_std.faces(1)) + 1
    # two cone facets leave, n-1 join facets arrive
    gone = set(iss_std.facets) - set(out.facets)
    new = set(out.facets) - set(iss_std.facets)
    assert gone == {(1, 2, 3, 5, 6), (2, 3, 5, 6, 7)}
    assert new == {tuple(sorted({1, 7} | set((2, 3, 5, 6)) - {b})) for b in (2, 3, 5, 6)}
    assert len(new) == 4


def test_apply_move_shares_the_facets_it_keeps(iss_std):
    mv = MoveSpec((1, 7), (2, 3, 5, 6))
    out = sb.apply_move(iss_std, mv)
    before = {F: F for F in iss_std.facets}
    kept = [F for F in out.facets if F in before]
    assert len(kept) == len(iss_std.facets) - 2
    assert all(F is before[F] for F in kept)


def test_apply_move_preserves_invariants(iss_std):
    mv = MoveSpec((1, 7), (2, 3, 5, 6))
    out = sb.apply_move(iss_std, mv)
    assert sb.klee_residual(out) == [0] * 6
    assert sb.betti_numbers(out) == sb.betti_numbers(iss_std)
    assert sb.is_pseudomanifold(out).ok


def test_apply_move_rejects_unflippable(iss_std):
    with pytest.raises(NotFlippable) as exc:
        sb.apply_move(iss_std, MoveSpec((1, 2), (3, 4, 6, 7)))
    assert str(exc.value) == "A: 1 2 | B: 3 4 6 7 did not add exactly one edge"


def test_apply_move_checks_its_result(iss_std):
    # repeating a move adds no edge, and the move's own check catches it
    mv = MoveSpec((1, 7), (2, 3, 5, 6))
    once = sb.apply_move(iss_std, mv)
    with pytest.raises(NotFlippable, match="did not add exactly one edge"):
        sb.apply_move(once, mv)


def test_apply_move_on_a_surface_loses_the_edge_b():
    # at n = 3 the cone facets are the only triangles on the edge B, so every
    # flip drops B and adds A: the edge count stays, and the move is refused
    c, _ = sb.random_stacked_sphere(3, 4, seed=2)
    refused = 0
    for a in combinations(sorted(c.vertices), 2):
        if a in c.faces(1):
            continue
        for b in combinations(sorted(c.vertices - set(a)), 2):
            mv = MoveSpec(a, b)
            if not sb.is_flippable(c, mv):
                continue
            with pytest.raises(NotFlippable) as exc:
                sb.apply_move(c, mv)
            assert str(exc.value) == f"{mv.to_text()} did not add exactly one edge"
            refused += 1
    assert refused == 9


def test_apply_move_keeps_an_edge_held_by_a_third_facet():
    # not a pseudomanifold: B = {2, 3} also lies in (2, 3, 5), so it survives
    # the flip and the move adds exactly the edge A
    c = sb.Complex([(1, 2, 3), (2, 3, 4), (2, 3, 5)])
    out = sb.apply_move(c, MoveSpec((1, 4), (2, 3)))
    assert out.facets == ((1, 2, 4), (1, 3, 4), (2, 3, 5))
    assert out.faces(1) == sb.Complex(list(out.facets)).faces(1) == c.faces(1) | {(1, 4)}


def test_apply_move_loses_a_vertex_on_a_cycle():
    # n = 2: flipping A = {1, 3} over B = {2} on the 4-cycle removes vertex 2
    square = sb.Complex([(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(NotFlippable, match="changed the vertex set"):
        sb.apply_move(square, MoveSpec((1, 3), (2,)))


def test_fill_to_checks_its_result(iss_std, monkeypatch):
    # a flip that claims the edge A but leaves the facets alone must be
    # caught by the one validation at the end of the replay
    def claims_the_edge(facets, edges, mv):
        edges.add(mv.a)

    monkeypatch.setattr(moves, "_flip", claims_the_edge)
    with pytest.raises(ScheduleInvalid, match="^replaying 2 moves changed the vertex set"):
        sb.fill_to(iss_std, sb.build_fill_schedule(iss_std), 62)


_iss = cache(sb.build_iss_variant)


@st.composite
def _random_flippable_move(draw):
    """A stacked sphere or an ISS, n >= 4, and a move read off two facets
    {a1} + B and {a2} + B across the ridge B where a1a2 is a non-edge.  The
    ISS are not minimal: a minimal one has every edge."""
    if draw(st.booleans()):
        n = draw(st.integers(4, 6))
        c, _ = sb.random_stacked_sphere(n, draw(st.integers(1, 8)), draw(st.integers(0, 2 ** 30)))
    else:
        c = _iss(*draw(st.sampled_from(
            ((4, 10, "standard"), (4, 10, "swapped"), (5, 12, "standard"), (5, 12, "swapped"))
        )))
    edges = c.faces(1)
    moves_across = []
    for ridge, ((i, p), (j, q)) in c.ridges().items():
        a = tuple(sorted((c.facets[i][p], c.facets[j][q])))
        if a not in edges:
            moves_across.append(MoveSpec(a, ridge))
    return c, draw(st.sampled_from(moves_across))


@settings(max_examples=100, deadline=None)
@given(_random_flippable_move())
def test_random_flippable_move_keeps_the_topology(case):
    c, mv = case
    assert sb.is_flippable(c, mv)
    out = sb.apply_move(c, mv)
    assert out.faces(1) == c.faces(1) | {mv.a}
    assert sb.betti_numbers(out) == sb.betti_numbers(c)
    assert sb.orientability(out) == sb.orientability(c)
    assert sb.klee_residual(out) == sb.klee_residual(c) == [0] * (c.n + 1)


_REPLAYS = {}


def _replay(n, f0, bundle):
    """The (n, f0) ISS of the bundle, its schedule and every prefix."""
    key = (n, f0, bundle)
    if key not in _REPLAYS:
        c = sb.build_iss(n, f0, bundle)
        sched = sb.build_fill_schedule(c)
        _REPLAYS[key] = (sched, list(sb.iter_fill(c, sched)))
    return _REPLAYS[key]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(((5, 12), (6, 20))), st.sampled_from(tuple(BundleType)), st.data())
def test_replay_prefixes_match_fresh_complexes(size, bundle, data):
    # oracle: a freshly validated Complex on the same facets recomputes the
    # edges that apply_move carried forward and fill_to replayed
    n, f0 = size
    sched, prefixes = _replay(n, f0, bundle)
    t = data.draw(st.integers(0, len(sched)), label="prefix")
    x = prefixes[t]
    fresh = sb.Complex(list(x.facets))
    assert (x.facets, x.vertices, x.faces(1)) == (fresh.facets, fresh.vertices, fresh.faces(1))
    assert len(x.faces(1)) == n * f0 + t
    filled = sb.fill_to(prefixes[0], sched, n * f0 + t)
    assert (filled.facets, filled.vertices, filled.faces(1)) == (x.facets, x.vertices, x.faces(1))


def test_iter_fill_reports_the_move_it_cannot_make(iss_std, iss_sw):
    sched = sb.build_fill_schedule(iss_std)
    with pytest.raises(ScheduleInvalid, match=r"^move \d+ not flippable: A: ") as exc:
        list(sb.iter_fill(iss_sw, sched))
    assert isinstance(exc.value.__cause__, NotFlippable)


# -- schedules ------------------------------------------------------------------

def test_schedule_standard_shape(iss_std):
    sched = sb.build_fill_schedule(iss_std)
    assert len(sched) == comb(12, 2) - 60 == 6
    assert sched.moves[0].a == (1, 7) and sched.moves[0].b == (2, 3, 5, 6)
    assert sched.moves[1].a == (2, 8) and sched.moves[1].b == (3, 4, 6, 7)


def test_schedule_swapped_exceptional_move(iss_sw):
    sched = sb.build_fill_schedule(iss_sw)
    assert len(sched) == 6
    last = sched.moves[-1]
    assert last.a == (4, 11)
    assert set(last.b) == {12, 1, 3, 5}
    # the pair {n, f0-1} = {5, 11} is already an edge, so no move targets it
    assert all(mv.a != (5, 11) for mv in sched.moves)


def test_schedule_serialization(iss_std):
    sched = sb.build_fill_schedule(iss_std)
    lines = sched.to_text().splitlines()
    assert lines[0] == "A: 1 7 | B: 2 3 5 6"
    assert len(lines) == 6


def test_fill_to_identity_and_complete(iss_std):
    sched = sb.build_fill_schedule(iss_std)
    assert sb.fill_to(iss_std, sched, 60) == iss_std
    full = sb.fill_to(iss_std, sched, comb(12, 2))
    assert len(full.faces(1)) == comb(12, 2)
    assert full.faces(1) == {e for e in combinations(sorted(full.vertices), 2)}


def test_fill_to_range_errors(iss_std):
    sched = sb.build_fill_schedule(iss_std)
    with pytest.raises(TargetOutOfRange):
        sb.fill_to(iss_std, sched, 59)
    with pytest.raises(TargetOutOfRange):
        sb.fill_to(iss_std, sched, comb(12, 2) + 1)


def test_fill_to_needs_enough_moves(iss_std):
    short = sb.FillSchedule(sb.build_fill_schedule(iss_std).moves[:2])
    with pytest.raises(TargetOutOfRange) as exc:
        sb.fill_to(iss_std, short, 66)
    assert str(exc.value) == "schedule provides 2 moves, 6 needed"


def test_fill_intermediates_keep_invariants(iss_std):
    sched = sb.build_fill_schedule(iss_std)
    betti = sb.betti_numbers(iss_std)
    c = iss_std
    for t in range(1, len(sched) + 1):
        c = sb.apply_move(c, sched.moves[t - 1])
        assert len(c.faces(1)) == 60 + t
        assert sb.klee_residual(c) == [0] * 6
        assert sb.is_pseudomanifold(c).ok
        assert sb.betti_numbers(c) == betti


def test_mismatched_schedule_raises_schedule_invalid(iss_std, iss_sw):
    # replaying the standard schedule on the swapped complex must fail the
    # self-verification: {5, 11} is already an edge there
    sched = sb.build_fill_schedule(iss_std)
    with pytest.raises(ScheduleInvalid, match=r"^move \d+ not flippable: A: ") as exc:
        sb.fill_to(iss_sw, sched, comb(12, 2))
    assert isinstance(exc.value.__cause__, NotFlippable)


# -- feasible region -----------------------------------------------------------------

def test_feasible_region_values():
    assert sb.feasible_region(3, 11, BundleType.ORIENTABLE) == (55, 55)
    assert sb.feasible_region(3, 11, BundleType.NONORIENTABLE) is None
    assert sb.feasible_region(3, 12, BundleType.NONORIENTABLE) == (60, 66)
    assert sb.feasible_region(4, 13, BundleType.NONORIENTABLE) == (78, 78)
    assert sb.feasible_region(4, 13, BundleType.ORIENTABLE) is None
    assert sb.feasible_region(4, 14, BundleType.ORIENTABLE) == (84, 91)


def test_feasible_region_at_k_two():
    # the smallest k: the vertex minimum is 9 for the nonorientable bundle
    # and 10 for the orientable one
    for bundle in BundleType:
        assert sb.feasible_region(2, 8, bundle) is None
        assert sb.feasible_region(2, 10, bundle) == (40, 45)
    assert sb.feasible_region(2, 9, BundleType.NONORIENTABLE) == (36, 36)
    assert sb.feasible_region(2, 9, BundleType.ORIENTABLE) is None


def test_feasible_region_requires_k_at_least_two():
    with pytest.raises(ValueError):
        sb.feasible_region(1, 9, BundleType.ORIENTABLE)


def test_schedule_excludes_surfaces():
    torus = sb.build_miss(3)
    with pytest.raises(ValueError):
        sb.build_fill_schedule(torus)
