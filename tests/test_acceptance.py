"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything is exact integer equality; there are no tolerances.
"""

import random
from itertools import combinations
from math import comb

import pytest

import spherebundles as sb
from spherebundles import BundleType
from spherebundles.errors import InfeasibleVertexCount


def _line(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


# shared edge-filling replays: (f0, variant) -> list of (f1, complex)
_REPLAYS: dict[tuple[int, str], list[tuple[int, sb.Complex]]] = {}


def _replay(f0: int, variant: str) -> list[tuple[int, sb.Complex]]:
    key = (f0, variant)
    if key not in _REPLAYS:
        c = sb.build_iss_variant(5, f0, variant)
        prefixes = sb.iter_fill(c, sb.build_fill_schedule(c))
        _REPLAYS[key] = [(len(x.edges()), x) for x in prefixes]
    return _REPLAYS[key]


def _fill_cases():
    for f0 in (11, 12, 13, 14):
        for variant in ("standard", "swapped"):
            if variant == "swapped" and f0 < 12:
                continue
            yield f0, variant


def test_criterion_01_minimal_f_vectors():
    expected = {
        3: (1, 7, 21, 14),
        4: (1, 9, 36, 54, 27),
        5: (1, 11, 55, 110, 110, 44),
    }
    for n, f in expected.items():
        c = sb.build_miss(n)
        assert c.num_vertices == 2 * n + 1
        assert tuple(sb.f_vector(c)) == f
    _line(1, "f-vectors of build_miss(3..5) match exactly")


def test_criterion_02_extremal_g2():
    for n in range(3, 9):
        c = sb.build_miss(n)
        f = sb.f_vector(c)
        h = sb.h_from_f(f, n)
        assert h[2] - h[1] == comb(n + 1, 2)
        if n >= 4:
            assert sb.g_vector(h).g2 == comb(n + 1, 2)
    # every freshly identified stacked sphere has n*f0 edges, hence g2 hits
    # the lower bound C(n+1, 2) exactly
    for n, f0 in ((4, 9), (4, 11), (5, 11), (5, 13), (6, 13), (6, 15), (7, 15)):
        c = sb.build_iss_variant(n, f0, "standard")
        f = sb.f_vector(c)
        assert f.f(1) == n * f0
        assert sb.g_vector(sb.h_from_f(f, n)).g2 == comb(n + 1, 2)
    _line(2, "g2(build_miss(n)) = C(n+1,2) for n=3..8; ISS has n*f0 edges and extremal g2")


def test_criterion_03_uniqueness_evidence():
    rng = random.Random(20240817)
    for n in range(4, 8):
        m = sb.build_miss(n)
        k = sb.kuhnel_complex(n)
        w = sb.are_isomorphic(m, k)
        assert w is not None
        for _ in range(10):
            verts = sorted(m.vertices)
            perm = dict(zip(verts, rng.sample(verts, len(verts))))
            relabeled = m.relabeled(perm)
            w2 = sb.are_isomorphic(m, relabeled)
            assert w2 is not None
            image = {tuple(sorted(w2.mapping[v] for v in F)) for F in m.facets}
            assert image == set(relabeled.facets)
    _line(3, "build_miss(n) isomorphic to the cyclic complex for n=4..7, plus 10 relabelings each")


def test_criterion_04_klee_residual_everywhere():
    produced: list[sb.Complex] = []
    for n in (3, 4, 5, 6):
        produced.append(sb.boundary_of_simplex(n))
        produced.append(sb.build_delta(n, 2 * n + 2)[0])
        produced.append(sb.build_miss(n))
        produced.append(sb.kuhnel_complex(n))
    produced.append(sb.build_iss(5, 12, BundleType.NONORIENTABLE))
    produced.append(sb.build_iss(6, 14, BundleType.ORIENTABLE))
    produced.append(sb.orientation_double_cover(sb.build_miss(4)))
    produced.append(sb.orientation_double_cover(sb.build_miss(6)))
    for c in produced:
        assert sb.klee_residual(c) == [0] * (c.n + 1), c
    count = len(produced)
    for f0, variant in _fill_cases():
        for _, c in _replay(f0, variant):
            assert sb.klee_residual(c) == [0] * 6, (f0, variant, c)
            count += 1
    _line(4, f"Klee residual identically zero on {count} constructed/intermediate complexes")


def test_criterion_05_topology():
    for n in range(3, 8):
        assert sb.orientability(sb.build_miss(n)) == (n % 2 == 1)
    assert sb.betti_numbers(sb.build_miss(5)) == (1, 1, 0, 1, 1)
    m4 = sb.build_miss(4)
    assert sb.betti_numbers(m4) == (1, 1, 0, 0)
    cover = sb.orientation_double_cover(m4)
    f4 = tuple(sb.f_vector(m4))[1:]
    fcover = tuple(sb.f_vector(cover))[1:]
    assert fcover == tuple(2 * x for x in f4)
    assert sb.orientability(cover)

    def g2(c):
        f = sb.f_vector(c)
        return f.f(1) - c.n * f.f(0) + comb(c.n + 1, 2)

    assert 2 * g2(m4) == g2(cover) + comb(5, 2)
    _line(5, "orientability(M^n) iff n odd; Betti of M^4/M^5; cover doubles f and halves the g2 defect")


def test_criterion_06_full_region_n5():
    realized: dict[bool, dict[int, set[int]]] = {True: {}, False: {}}
    for f0, variant in _fill_cases():
        states = _replay(f0, variant)
        orientable = sb.orientability(states[0][1])
        f1s = {f1 for f1, _ in states}
        assert f1s == set(range(5 * f0, comb(f0, 2) + 1))
        realized[orientable][f0] = f1s
    for f0 in (11, 12, 13, 14):
        for bundle in BundleType:
            region = sb.feasible_region(3, f0, bundle)
            got = realized[bundle.orientable].get(f0)
            if region is None:
                assert got is None
                with pytest.raises(InfeasibleVertexCount):
                    sb.build_iss(5, f0, bundle)
            else:
                lo, hi = region
                assert got == set(range(lo, hi + 1))
    _line(6, "n=5, f0=11..14: every f1 in [(k+2)f0, C(f0,2)] realized; region matches; infeasible rejected")


def test_criterion_07_g_vector_corners():
    nonor = sb.build_iss(5, 12, BundleType.NONORIENTABLE)
    g_min = sb.g_vector(sb.h_from_f(sb.f_vector(nonor), 5))
    assert tuple(g_min) == (1, 6, 15)
    full = sb.fill_to(nonor, sb.build_fill_schedule(nonor), comb(12, 2))
    g_max = sb.g_vector(sb.h_from_f(sb.f_vector(full), 5))
    assert tuple(g_max) == (1, 6, 21)
    assert g_max.g2 == comb(g_max[1] + 1, 2)
    _line(7, "nonorientable k=3 corners: g = (1,6,15) at 60 edges, (1,6,21) at 66 edges")


def test_criterion_08_distance_oracle():
    for n in range(3, 7):
        for i in range(1, 2 * n + 3):
            c, _ = sb.build_delta(n, i)
            dt = sb.distance_table(n, i)
            for col in range(1, n + i + 1):
                for row in range(1, n + 1):
                    assert dt.entry(col, row) == sb.graph_distance(c, col, row)
    assert sb.distance_table(4, 10).entry(10, 1) == 3
    _line(8, "distance recursion equals BFS for n=3..6, i=1..2n+2; x_{2n+2} row 1 = 3 at n=4")


def test_criterion_09_one_extra_vertex_both_bundles():
    for n in (3, 4, 5):
        std = sb.build_iss_variant(n, 2 * n + 2, "standard")
        sw = sb.build_iss_variant(n, 2 * n + 2, "swapped")
        assert std.num_vertices == 2 * n + 2 == sw.num_vertices
        assert sb.orientability(std) != sb.orientability(sw)
    _line(9, "the two pairings on 2n+2 vertices produce opposite orientability for n=3,4,5")


def test_criterion_10_property_suites():
    rng = random.Random(5150)
    # stacked-sphere h-vectors and recognition on 50 seeded schedules per n
    for n in (4, 5, 6):
        for _ in range(50):
            steps = rng.randint(2, 10)
            c, _ = sb.random_stacked_sphere(n, steps, seed=rng.randrange(2 ** 30))
            m = c.num_vertices
            h = tuple(sb.h_from_f(sb.f_vector(c), n))
            assert h == (1, *([m - n] * (n - 1)), 1)
            trace = sb.recognize_stacked(c)
            assert trace is not None
            assert trace.replay() == c
    for n in (4, 5, 6):
        assert sb.recognize_stacked(sb.build_miss(n)) is None

    # handle-addition count deltas (also enforced inside handle_addition)
    for n, f0 in ((4, 9), (5, 12), (6, 13)):
        sphere, _ = sb.build_delta(n, f0)
        q = sb.handle_addition(sphere, sb.standard_pairing(n, f0))
        assert q.num_vertices == sphere.num_vertices - n
        assert len(q.facets) == len(sphere.facets) - 2
        assert len(q.edges()) == len(sphere.edges()) - comb(n, 2)

    # Betti invariance across every bistellar move of every replay
    moves_checked = 0
    for f0, variant in _fill_cases():
        states = _replay(f0, variant)
        base = sb.betti_numbers(states[0][1])
        for _, c in states[1:]:
            assert sb.betti_numbers(c) == base
            moves_checked += 1
    _line(10, f"150 random stacked spheres recognized; handle deltas hold; Betti invariant over {moves_checked} moves")
