"""Core complex type, f/h/g arithmetic, links, distances, pseudomanifold checks."""

import random
from enum import IntEnum
from math import comb

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import spherebundles as sb
from spherebundles.errors import (
    Disconnected,
    EmptyInput,
    MixedCardinality,
    NonPositiveLabel,
    NotAFace,
)


def boundary4():
    return sb.boundary_of_simplex(4)


# -- construction -------------------------------------------------------------

def test_from_facets_simplex_boundary():
    c = sb.from_facets([set(s) for s in
                        [(1,2,3,4),(1,2,3,5),(1,2,4,5),(1,3,4,5),(2,3,4,5)]])
    assert c.n == 4
    assert c.num_vertices == 5
    assert len(c.facets) == 5
    assert c == boundary4()


def test_from_facets_dedupes_silently():
    c = sb.from_facets([{1, 2, 3}, {3, 2, 1}])
    assert c.facets == ((1, 2, 3),)


def test_from_facets_mixed_cardinality():
    with pytest.raises(MixedCardinality):
        sb.from_facets([{1, 2, 3}, {1, 2, 3, 4}])


def test_from_facets_empty():
    with pytest.raises(EmptyInput):
        sb.from_facets([])


def test_from_facets_nonpositive_label():
    with pytest.raises(NonPositiveLabel):
        sb.from_facets([{0, 1, 2}])


class _Label(IntEnum):
    TWO = 2
    THREE = 3


# ints, labels that fail, labels equal to an int (True == 1 == 1.0), an int
# subclass that passes, unorderable labels and a big int
_LABELS = (1, 2, 3, 4, 5, 6, 0, -1, True, False, 1.0, 2.5, _Label.TWO, _Label.THREE,
           "x", None, 10 ** 20)
_KINDS = ("tuple", "list", "generator", "frozenset")


def _reference_complex(facets):
    # oracle: the facet-by-facet constructor loop, canonicalising every facet
    canon = sorted({tuple(sorted(f)) for f in facets})
    widths = {len(f) for f in canon}
    if len(widths) > 1:
        raise MixedCardinality(f"facet sizes {sorted(widths)} are mixed")
    for f in canon:
        if len(set(f)) != len(f):
            raise ValueError(f"facet {f} repeats a vertex")
        for v in f:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise NonPositiveLabel(f"vertex label {v!r} is not a positive integer")
    return tuple(canon), len(canon[0]) if canon else 0, frozenset(v for f in canon for v in f)


def _outcome(build, plan):
    # fresh facet objects per call: a generator is consumed once
    made = {"tuple": tuple, "list": list, "generator": iter, "frozenset": frozenset}
    try:
        facets, n, vertices = build([made[kind](labels) for kind, labels in plan])
    except Exception as exc:
        return type(exc), str(exc)
    types = [tuple(map(type, F)) for F in facets]
    return facets, types, n, vertices, sorted(map(repr, vertices))


def _built(facets):
    c = sb.Complex(facets)
    return c.facets, c.n, c.vertices


@st.composite
def _facet_plans(draw):
    """(kind, labels) per facet: strictly increasing tuples of one width over
    1..7, a few of them spoiled (one label swapped for a pool label or for an
    equal label of another type, labels shuffled, another kind), or any kind
    over the whole pool with mixed widths."""
    if draw(st.booleans()):
        return draw(st.lists(
            st.tuples(st.sampled_from(_KINDS), st.lists(st.sampled_from(_LABELS), max_size=4)),
            max_size=6,
        ))
    width = draw(st.integers(1, 4))
    plan = [("tuple", tuple(sorted(s))) for s in draw(st.lists(
        st.sets(st.integers(1, 7), min_size=width, max_size=width), min_size=1, max_size=8))]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(plan) - 1))
        labels = list(plan[i][1])
        j = draw(st.integers(0, width - 1))
        twin = {1: (1.0, True), 2: (2.0, _Label.TWO), 3: (3.0, _Label.THREE)}.get(labels[j])
        pool = st.sampled_from(_LABELS)
        labels[j] = draw(pool | st.sampled_from(twin) if twin else pool)
        plan[i] = (draw(st.sampled_from(_KINDS)), draw(st.permutations(labels)))
    return plan


@settings(max_examples=300, deadline=None)
@given(_facet_plans())
def test_constructor_matches_the_facet_by_facet_oracle(plan):
    assert _outcome(_built, plan) == _outcome(_reference_complex, plan)


def test_constructor_keeps_sorted_tuples_and_copies_the_rest():
    given_facets = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    c = sb.Complex(given_facets)
    assert all(F is G for F, G in zip(c.facets, given_facets))
    listed, unsorted, kept = [1, 2, 3], (4, 2, 1), (1, 3, 4)
    c = sb.Complex([listed, unsorted, kept])
    assert c.facets == ((1, 2, 3), (1, 2, 4), (1, 3, 4))
    assert type(c.facets[0]) is tuple and c.facets[2] is kept


def test_constructor_accepts_int_subclasses_but_not_bool():
    c = sb.Complex([(1, _Label.TWO, _Label.THREE)])
    assert c.facets == ((1, 2, 3),) and type(c.facets[0][1]) is _Label
    with pytest.raises(NonPositiveLabel, match=r"^vertex label True is not a positive integer$"):
        sb.Complex([(2, 3, 4), (True, 2, 3)])


# -- f-vector ------------------------------------------------------------------

def test_f_vector_simplex_boundary():
    f = sb.f_vector(boundary4())
    assert tuple(f) == tuple(comb(5, i + 1) for i in range(-1, 4))
    assert tuple(f) == (1, 5, 10, 10, 5)


def _f_vector_by_combinations(c):
    # second, independent enumeration path: per-dimension combinations
    from itertools import combinations
    counts = []
    for k in range(1, c.n + 1):
        seen = set()
        for F in c.facets:
            seen.update(combinations(F, k))
        counts.append(len(seen))
    return (1, *counts)


def test_f_vector_two_enumeration_routes_agree():
    m4 = sb.build_miss(4)
    for c in (boundary4(), m4, sb.build_delta(4, 6)[0], sb.kuhnel_complex(3)):
        assert tuple(sb.f_vector(c)) == _f_vector_by_combinations(c)


def _all_subsets_by_size(c):
    # oracle: every nonempty vertex subset of every facet, by bit mask
    by_size = {}
    for F in c.facets:
        for mask in range(1, 2 ** len(F)):
            face = tuple(v for i, v in enumerate(F) if mask >> i & 1)
            by_size.setdefault(len(face), set()).add(face)
    return by_size


def _index_oracle_cases():
    for seed in range(6):
        yield sb.random_stacked_sphere(3 + seed % 4, 4 + seed, seed)[0]
    for n in (4, 5, 6):
        yield sb.build_miss(n)
    iss = sb.build_iss_variant(5, 12, "standard")
    yield sb.fill_to(iss, sb.build_fill_schedule(iss), comb(12, 2))


def test_face_index_against_all_subsets_oracle():
    for c in _index_oracle_cases():
        by_size = _all_subsets_by_size(c)
        for d in range(c.n):
            assert c.faces(d) == by_size[d + 1]
        assert not c.faces(-1) and not c.faces(c.n)
        assert tuple(sb.f_vector(c)) == (1, *(len(by_size[k]) for k in range(1, c.n + 1)))
        for not_a_face in ((), tuple(sorted(c.vertices))):
            with pytest.raises(NotAFace):
                sb.link(c, not_a_face)


def test_ridge_index_against_facet_scan():
    for c in _index_oracle_cases():
        ridges = c.ridges()
        assert set(ridges) == _all_subsets_by_size(c)[c.n - 1]
        for ridge, incident in ridges.items():
            expected = [(i, F.index(next(v for v in F if v not in ridge)))
                        for i, F in enumerate(c.facets) if set(ridge) <= set(F)]
            assert incident == expected


def test_f_vector_miss4_forced_by_linear_relations():
    # oracle: with f0 = 9 and f1 = 36, Euler characteristic 0 and the
    # ridge-facet double count 2 f2 = 4 f3 force f3 = 27, f2 = 54
    f0, f1 = 9, 36
    f3 = f1 - f0  # from f0 - f1 + 2*f3 - f3 = 0
    f2 = 2 * f3
    assert (f2, f3) == (54, 27)
    assert tuple(sb.f_vector(sb.build_miss(4))) == (1, f0, f1, f2, f3)


def test_f_vector_miss5_from_klee_oracle():
    # oracle: h2 from (f0, f1) by the alternating-sum formula, the rest of
    # the h-vector from the closed-manifold relations at chi = 0, then f by
    # expanding h(x+1) symbolically
    f0, f1 = 11, 55
    h0, h1 = 1, f0 - 5
    h2 = comb(5, 3) - comb(4, 3) * f0 + f1
    h5, h4, h3 = h0 - 2, h1 + 10, h2 - 20
    assert (h0, h1, h2, h3, h4, h5) == (1, 6, 21, 1, 16, -1)
    x = sympy.Symbol("x")
    hpoly = sum(h * x ** (5 - i) for i, h in enumerate((h0, h1, h2, h3, h4, h5)))
    fpoly = sympy.expand(hpoly.subs(x, x + 1))
    f = tuple(int(fpoly.coeff(x, 5 - i)) for i in range(6))
    assert f == (1, 11, 55, 110, 110, 44)
    assert tuple(sb.f_vector(sb.build_miss(5))) == f


# -- h / f transforms ----------------------------------------------------------

@pytest.mark.parametrize(
    "f, n, h",
    [
        ((1, 5, 10, 10, 5), 4, (1, 1, 1, 1, 1)),
        ((1, 9, 36, 54, 27), 4, (1, 5, 15, 5, 1)),
        ((1, 11, 55, 110, 110, 44), 5, (1, 6, 21, 1, 16, -1)),
    ],
)
def test_h_from_f_frozen(f, n, h):
    assert tuple(sb.h_from_f(sb.IntVector(f), n)) == h


def test_h_from_f_polynomial_identity_oracle():
    # definitional oracle: the h-polynomial satisfies h(x+1) = f(x)
    x = sympy.Symbol("x")
    for c in (boundary4(), sb.build_miss(4), sb.build_delta(5, 7)[0]):
        n = c.n
        f = sb.f_vector(c)
        h = sb.h_from_f(f, n)
        fpoly = sum(f[i] * x ** (n - i) for i in range(n + 1))
        hpoly = sum(h[i] * x ** (n - i) for i in range(n + 1))
        assert sympy.expand(hpoly.subs(x, x + 1) - fpoly) == 0


def test_f_from_h_frozen():
    assert tuple(sb.f_from_h(sb.IntVector((1, 1, 1, 1, 1)), 4)) == (1, 5, 10, 10, 5)
    assert tuple(sb.f_from_h(sb.IntVector((1, 5, 15, 5, 1)), 4)) == (1, 9, 36, 54, 27)


def test_f_h_round_trip_random():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(3, 8)
        f = sb.IntVector((1, *[rng.randint(-50, 200) for _ in range(n)]))
        h = sb.h_from_f(f, n)
        assert tuple(sb.f_from_h(h, n)) == tuple(f)


def test_transform_length_mismatch():
    with pytest.raises(sb.errors.LengthMismatch):
        sb.h_from_f(sb.IntVector((1, 4, 6)), 4)
    with pytest.raises(sb.errors.LengthMismatch):
        sb.f_from_h(sb.IntVector((1, 2)), 4)


# -- g-vector -------------------------------------------------------------------

def test_g_vector_examples():
    assert tuple(sb.g_vector(sb.IntVector((1, 1, 1, 1, 1)))) == (1, 0, 0)
    g = sb.g_vector(sb.IntVector((1, 5, 15, 5, 1)))
    assert tuple(g) == (1, 4, 10)
    assert g.g2 == comb(5, 2)
    assert tuple(sb.g_vector(sb.IntVector((1, 6, 21, 1, 16, -1)))) == (1, 5, 15)


def test_g2_identity_on_corpus():
    for c in (boundary4(), sb.build_miss(4), sb.build_miss(5), sb.kuhnel_complex(3)):
        n = c.n
        f = sb.f_vector(c)
        h = sb.h_from_f(f, n)
        # h2 - h1 equals f1 - n f0 + C(n+1, 2) always; it sits inside the
        # g-vector only once n >= 4
        assert h[2] - h[1] == f.f(1) - n * f.f(0) + comb(n + 1, 2)
        if n >= 4:
            assert sb.g_vector(h).g2 == h[2] - h[1]


def test_one_vector_type_checks_its_leading_entry():
    f = sb.f_vector(sb.build_miss(4))
    h = sb.h_from_f(f, 4)
    for v in (f, h, sb.f_from_h(h, 4), sb.g_vector(h)):
        assert type(v) is sb.IntVector
    for entries in ((), (0, 1), (2, 5, 10)):
        with pytest.raises(ValueError, match="must start with 1"):
            sb.IntVector(entries)


# -- Euler characteristic and Klee residual --------------------------------------

def test_euler_characteristic():
    assert sb.euler_characteristic(boundary4()) == 0
    assert sb.euler_characteristic(sb.boundary_of_simplex(5)) == 2
    assert sb.euler_characteristic(sb.build_miss(4)) == 0


def test_klee_residual_closed_manifolds():
    assert sb.klee_residual(sb.build_miss(4)) == [0] * 5
    assert sb.klee_residual(sb.build_miss(5)) == [0] * 6


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 6), st.integers(0, 12), st.integers(0, 2 ** 30))
def test_klee_residual_vanishes_on_random_stacked_spheres(n, steps, seed):
    c, _ = sb.random_stacked_sphere(n, steps, seed)
    assert sb.klee_residual(c) == [0] * (n + 1)


def test_klee_residual_detects_non_manifold():
    # two triangles on a shared edge plus a dangling triangle
    c = sb.from_facets([{1, 2, 3}, {1, 2, 4}, {5, 6, 7}])
    assert any(r != 0 for r in sb.klee_residual(c))


# -- links ------------------------------------------------------------------------

def test_link_of_vertex_in_simplex_boundary():
    lk = sb.link(boundary4(), {1})
    assert lk == sb.Complex([(2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)])
    assert lk.num_vertices == 4 and len(lk.facets) == 4


def test_link_of_vertex_in_miss4_is_stacked_2_sphere():
    m4 = sb.build_miss(4)
    for v in sorted(m4.vertices):
        lk = sb.link(m4, {v})
        assert lk.num_vertices == 8
        assert sb.betti_numbers(lk) == (1, 0, 1)
        assert sb.recognize_stacked(lk) is not None


def test_link_of_facet_is_empty():
    c = boundary4()
    lk = sb.link(c, c.facets[0])
    assert lk.is_empty


def test_link_not_a_face():
    with pytest.raises(NotAFace):
        sb.link(boundary4(), {1, 99})


# -- graph distance ----------------------------------------------------------------

def test_graph_distance_table_rows():
    c, _ = sb.build_delta(4, 9)
    assert sb.graph_distance(c, 1, 10) == 3
    assert sb.graph_distance(c, 4, 13) == 3
    assert sb.graph_distance(c, 7, 7) == 0


def test_graph_distance_is_a_metric():
    c, _ = sb.build_delta(4, 7)
    verts = sorted(c.vertices)
    d = {(u, v): sb.graph_distance(c, u, v) for u in verts for v in verts}
    edges = c.faces(1)
    for u in verts:
        for v in verts:
            assert d[u, v] == d[v, u]
            assert (d[u, v] == 1) == (tuple(sorted((u, v))) in edges if u != v else False)
            for w in verts:
                assert d[u, w] <= d[u, v] + d[v, w]


def test_graph_distance_disconnected():
    c = sb.from_facets([{1, 2, 3}, {4, 5, 6}])
    with pytest.raises(Disconnected, match=r"^no edge path from 1 to 4$"):
        sb.graph_distance(c, 1, 4)


def test_graph_distance_names_a_missing_vertex_u_first():
    c = boundary4()
    with pytest.raises(NotAFace, match=r"^98 is not a vertex$"):
        sb.graph_distance(c, 98, 99)
    with pytest.raises(NotAFace, match=r"^99 is not a vertex$"):
        sb.graph_distance(c, 1, 99)


# -- pseudomanifold -------------------------------------------------------------------

def test_pseudomanifold_pass():
    assert sb.is_pseudomanifold(boundary4()).ok
    assert sb.is_pseudomanifold(sb.build_miss(4)).ok


def test_pseudomanifold_boundary_ridge_fails():
    c = sb.Complex(boundary4().facets[1:])
    report = sb.is_pseudomanifold(c)
    assert not report.ok
    assert "ridge" in report.detail


def test_pseudomanifold_disconnected_fails():
    two = list(sb.boundary_of_simplex(3).facets)
    two += [tuple(v + 10 for v in f) for f in sb.boundary_of_simplex(3).facets]
    report = sb.is_pseudomanifold(sb.Complex(two))
    assert not report.ok and not report.connected
