"""Scheduled subdivision, distance tables, recognition, stack decomposition."""

from math import comb

import pytest

import spherebundles as sb
from spherebundles.errors import DimensionTooLow, InfeasibleVertexCount, NotAFacet, VertexInUse
from spherebundles.stacked import SubdivisionStep, SubdivisionTrace


def test_boundary_of_simplex_counts():
    for n in (3, 4, 5):
        c = sb.boundary_of_simplex(n)
        assert len(c.facets) == n + 1
        assert tuple(sb.f_vector(c)) == tuple(comb(n + 1, i + 1) for i in range(-1, n))


def test_subdivide_facet_counts():
    c = sb.boundary_of_simplex(4)
    d2 = sb.subdivide_facet(c, (2, 3, 4, 5), 6)
    assert d2.num_vertices == 6
    assert len(d2.facets) == 8
    assert len(d2.faces(1)) == 14  # C(5,2) + 4


def test_subdivide_facet_errors():
    c = sb.boundary_of_simplex(4)
    with pytest.raises(NotAFacet):
        sb.subdivide_facet(c, (1, 2, 3, 6), 7)
    with pytest.raises(VertexInUse):
        sb.subdivide_facet(c, (2, 3, 4, 5), 5)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: sb.boundary_of_simplex(1), DimensionTooLow, "n must be at least 2"),
        (lambda: sb.distance_table(2, 1), ValueError, "need n >= 3 and i >= 1"),
        (lambda: sb.distance_table(3, 0), ValueError, "need n >= 3 and i >= 1"),
    ],
)
def test_builders_name_each_fault(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


def test_build_delta_counts():
    c1, tr1 = sb.build_delta(4, 1)
    assert c1 == sb.boundary_of_simplex(4)
    assert len(tr1.steps) == 0

    c9, tr9 = sb.build_delta(4, 9)
    assert c9.num_vertices == 13
    assert len(c9.facets) == 29
    assert len(c9.faces(1)) == comb(5, 2) + 8 * 4
    assert tr9.replay() == c9

    # vertex count is n + i (the schedule adds one vertex per step)
    c12, _ = sb.build_delta(5, 12)
    assert c12.num_vertices == 17


def test_build_delta_counts_general():
    for n in (3, 4, 5, 6):
        for i in (1, 2, 5, 2 * n + 2):
            c, tr = sb.build_delta(n, i)
            assert c.num_vertices == n + i
            assert len(c.facets) == (n + 1) + (i - 1) * (n - 1)
            assert len(c.faces(1)) == comb(n + 1, 2) + (i - 1) * n
            assert tr.replay() == c


def test_build_delta_needs_one_step():
    # sphere number i has n + i vertices, so i < 1 names no sphere; the
    # error is also a ValueError, as before
    for i in (0, -2):
        with pytest.raises(InfeasibleVertexCount):
            sb.build_delta(4, i)
        with pytest.raises(ValueError):
            sb.build_delta(4, i)
    with pytest.raises(DimensionTooLow):
        sb.build_delta(2, 0)


def test_stacked_h_vector_shape():
    for n in (3, 4, 5):
        for i in (1, 4, 2 * n + 1):
            c, _ = sb.build_delta(n, i)
            m = c.num_vertices
            h = tuple(sb.h_from_f(sb.f_vector(c), n))
            assert h == (1, *([m - n] * (n - 1)), 1)


# -- distance table ------------------------------------------------------------

def test_distance_table_initial_columns():
    dt = sb.distance_table(4, 1)
    assert dt.columns[4] == (1, 1, 1, 1)  # x_{n+1}
    for j in range(1, 5):
        assert dt.entry(j, j) == 0


def test_distance_table_known_columns():
    dt = sb.distance_table(4, 9)
    assert dt.columns[10] == (3, 3, 2, 2)  # x_{2n+3}
    assert dt.entry(10, 1) == 3            # x_{2n+2}, row 1


def test_distance_table_last_two_columns_at_least_three():
    dt = sb.distance_table(5, 12)
    for col in (16, 17):  # x_{2n+2}, x_{2n+3} at n=5
        assert all(v >= 3 for v in dt.columns[col - 1])


def test_distance_table_matches_bfs():
    for n in range(3, 8):
        for i in range(1, 2 * n + 3):
            c, _ = sb.build_delta(n, i)
            dt = sb.distance_table(n, i)
            assert dt.num_columns == n + i
            for col in range(1, n + i + 1):
                for row in range(1, n + 1):
                    assert dt.entry(col, row) == sb.graph_distance(c, col, row)


# -- recognition ------------------------------------------------------------------

def test_recognize_scheduled_sphere():
    c, _ = sb.build_delta(4, 5)
    trace = sb.recognize_stacked(c)
    assert trace is not None
    assert len(trace.steps) == 4
    assert trace.replay() == c


def test_recognize_simplex_boundary():
    trace = sb.recognize_stacked(sb.boundary_of_simplex(5))
    assert trace is not None
    assert len(trace.steps) == 0


def test_recognize_rejects_bundles():
    assert sb.recognize_stacked(sb.build_miss(4)) is None


def test_recognize_random_schedules():
    for seed in range(10):
        c, _ = sb.random_stacked_sphere(5, 6, seed)
        trace = sb.recognize_stacked(c)
        assert trace is not None
        assert trace.replay() == c


# -- stacks ------------------------------------------------------------------------

def test_single_chain_schedule_is_one_stack():
    for n, i in ((4, 9), (5, 6)):
        _, trace = sb.build_delta(n, i)
        dec = sb.stack_decomposition(trace)
        assert len(dec) == 1
        assert dec.stacks[0].top_vertex == n + i


def test_single_subdivision_is_one_stack():
    base = sb.boundary_of_simplex(4)
    trace = SubdivisionTrace(base, (SubdivisionStep((2, 3, 4, 5), 6),))
    dec = sb.stack_decomposition(trace)
    assert len(dec) == 1
    assert len(dec.stacks[0].top_facets) == 4
    assert all(6 in f for f in dec.stacks[0].top_facets)


def test_two_branches_are_two_stacks():
    # subdivide two disjoint original facets, then one child of each
    base = sb.boundary_of_simplex(4)
    steps = (
        SubdivisionStep((2, 3, 4, 5), 6),
        SubdivisionStep((1, 2, 3, 4), 7),
        SubdivisionStep((3, 4, 5, 6), 8),
        SubdivisionStep((1, 2, 3, 7), 9),
    )
    trace = SubdivisionTrace(base, steps)
    dec = sb.stack_decomposition(trace)
    assert len(dec) == 2
    assert sorted(st.top_vertex for st in dec.stacks) == [8, 9]
    tops = [set(map(frozenset, st.top_facets)) for st in dec.stacks]
    assert not tops[0] & tops[1]


def test_trace_serialization():
    _, trace = sb.build_delta(4, 3)
    lines = trace.to_text().splitlines()
    assert lines[0] == "base: 1 2 3 4 5"
    assert lines[1] == "2 3 4 5 -> 6"
    assert lines[2] == "3 4 5 6 -> 7"


def test_branching_chains_share_root_step():
    # one root subdivision with two child chains: two stacks, both containing
    # the root step
    base = sb.boundary_of_simplex(4)
    steps = (
        SubdivisionStep((2, 3, 4, 5), 6),
        SubdivisionStep((3, 4, 5, 6), 7),
        SubdivisionStep((2, 3, 4, 6), 8),
    )
    trace = SubdivisionTrace(base, steps)
    dec = sb.stack_decomposition(trace)
    assert len(dec) == 2
    assert all(st.step_indices[0] == 0 for st in dec.stacks)
