"""Homology, orientability, manifold evidence, isomorphism search."""

import hashlib
import random
import re
from fractions import Fraction
from math import comb

import networkx as nx
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import categorical_node_match
from sympy.polys.matrices import DomainMatrix

import spherebundles as sb
from spherebundles import BundleType, verify
from spherebundles.errors import AlreadyOrientable, DimensionTooLow, NotPseudomanifold
from spherebundles.verify import exact_rank


def _sympy_rank(columns, num_rows):
    """Rank over QQ, by sympy's sparse DomainMatrix, of sparse {row: value} columns."""
    entries = {}
    for j, col in enumerate(columns):
        for i, v in col.items():
            entries.setdefault(i, {})[j] = sympy.QQ(v)
    return DomainMatrix(entries, (num_rows, len(columns)), sympy.QQ).rank()


def _oracle_ranks(c):
    """[0, rank boundary_1, ..., rank boundary_{n-1}, 0] of the full matrices."""
    n = c.n
    ranks = [0] * (n + 1)
    for d in range(1, n):
        ranks[d] = _sympy_rank(sb.boundary_matrix(c, d), len(c.faces(d - 1)))
    return ranks


def _oracle_betti(c):
    ranks = _oracle_ranks(c)
    return tuple(len(c.faces(d)) - ranks[d] - ranks[d + 1] for d in range(c.n))


_FILLS = {}


def _fill_prefixes(bundle):
    """The (5,12) ISS of the bundle and every prefix of its fill schedule."""
    if bundle not in _FILLS:
        c = sb.build_iss(5, 12, bundle)
        _FILLS[bundle] = list(sb.iter_fill(c, sb.build_fill_schedule(c)))
    return _FILLS[bundle]


def _sparse(dense):
    """Sparse {column: value} rows of a row-major dense matrix."""
    return [{j: v for j, v in enumerate(row) if v} for row in dense]


def test_boundary_matrix_single_edge():
    c = sb.Complex([(1, 2)])
    assert sb.boundary_matrix(c, 1) == [{0: -1, 1: 1}]


def test_boundary_matrix_zero_in_dimension_zero():
    c = sb.boundary_of_simplex(4)
    assert sb.boundary_matrix(c, 0) == [{}] * 5


def test_boundary_matrix_rows_columns_and_signs():
    # rows: the sorted (d-1)-faces, columns: the sorted d-faces, (-1)^i signs
    c = sb.boundary_of_simplex(3)
    rows = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    cols = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    expected = [
        {rows.index(F[:i] + F[i + 1:]): (-1) ** i for i in range(3)} for F in cols
    ]
    assert sb.boundary_matrix(c, 2) == expected
    with pytest.raises(ValueError):
        sb.boundary_matrix(c, 3)


def test_boundary_squared_is_zero_on_miss4():
    # the composite boundary_d . boundary_{d+1}, column by column on the
    # sparse columns: sum_r v_r * (column r of boundary_d) must vanish
    m4 = sb.build_miss(4)
    for d in range(1, 3):
        a = sb.boundary_matrix(m4, d)
        b = sb.boundary_matrix(m4, d + 1)
        assert all(len(col) == d + 2 for col in b)
        for col in b:
            total: dict[int, int] = {}
            for r, v in col.items():
                for s, w in a[r].items():
                    total[s] = total.get(s, 0) + v * w
            assert not any(total.values())


def test_rank_of_tree_boundary():
    # a path on 6 vertices: rank of the edge boundary equals the edge count
    c = sb.Complex([(i, i + 1) for i in range(1, 6)])
    assert exact_rank(sb.boundary_matrix(c, 1)) == 5


def test_exact_rank_against_sympy_oracle():
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randint(1, 7)
        n = rng.randint(1, 7)
        dense = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        assert exact_rank(_sparse(dense)) == sympy.Matrix(dense).rank()


def test_exact_rank_small_cases():
    # a leading entry that the pivot does not divide takes the scaled step
    assert exact_rank([{0: 2}, {0: 3}]) == 1
    assert exact_rank([{0: 1, 1: 2}, {0: 1, 1: 3}]) == 2
    assert exact_rank([{0: 2, 1: 4}, {0: 3, 1: 6}]) == 1
    # explicit zero entries count as absent
    assert exact_rank([{0: 0}, {1: 0, 0: 5}]) == 1
    # also where the largest key holds the zero: both rows lead in column 2
    assert exact_rank([{5: 0, 2: 3}, {2: -1, 7: 0}]) == 1
    assert exact_rank([{9: 0, 1: 2, 0: 1}, {1: 4, 0: 2}, {8: 0, 3: 0}]) == 1
    assert exact_rank([]) == 0
    assert exact_rank([{}, {}]) == 0


# integer matrices up to 12 x 12 with entries in -9..9, about half of them
# zero so that dependent rows and the scaled step both occur
_matrices = st.integers(1, 12).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=n, max_size=n),
        min_size=1,
        max_size=12,
    )
)


@settings(max_examples=150, deadline=None)
@given(_matrices)
def test_exact_rank_equals_sympy_rank(dense):
    rows = _sparse(dense)
    assert exact_rank(rows) == sympy.Matrix(dense).rank()
    assert rows == _sparse(dense)  # the input is left as it was


@settings(max_examples=150, deadline=None)
@given(_matrices, st.randoms(use_true_random=False))
def test_exact_rank_ignores_row_order(dense, rnd):
    rows = _sparse(dense)
    shuffled = rows[:]
    rnd.shuffle(shuffled)
    assert exact_rank(shuffled) == exact_rank(rows)


@settings(max_examples=150, deadline=None)
@given(_matrices, st.data())
def test_exact_rank_ignores_a_sum_of_two_rows(dense, data):
    i = data.draw(st.integers(0, len(dense) - 1))
    j = data.draw(st.integers(0, len(dense) - 1))
    summed = [a + b for a, b in zip(dense[i], dense[j])]
    assert exact_rank(_sparse(dense + [summed])) == exact_rank(_sparse(dense))


def test_betti_spheres():
    assert sb.betti_numbers(sb.boundary_of_simplex(5)) == (1, 0, 0, 0, 1)
    assert sb.betti_numbers(sb.boundary_of_simplex(4)) == (1, 0, 0, 1)


def test_betti_bundles():
    assert sb.betti_numbers(sb.build_miss(5)) == (1, 1, 0, 1, 1)
    assert sb.betti_numbers(sb.build_miss(4)) == (1, 1, 0, 0)
    assert sb.betti_numbers(sb.kuhnel_complex(3)) == (1, 2, 1)  # torus


def test_betti_against_sympy_rank_oracle():
    # sympy ranks of the full, uncleared boundary matrices
    complete = _fill_prefixes(BundleType.NONORIENTABLE)[-1]
    assert len(complete.faces(1)) == 66
    cases = (
        sb.build_miss(4),
        sb.kuhnel_complex(3),
        sb.build_miss(5),
        sb.orientation_double_cover(sb.build_miss(4)),
        complete,
    )
    for c in cases:
        assert sb.betti_numbers(c) == _oracle_betti(c)


# random stacked spheres, and every fill-schedule prefix of the (5,12) ISS
_stacked_or_prefix = st.one_of(
    st.builds(
        lambda n, k, seed: sb.random_stacked_sphere(n, k, seed)[0],
        st.sampled_from((4, 5)),
        st.integers(2, 6),
        st.integers(0, 10**6),
    ),
    st.builds(
        lambda bundle, i: _fill_prefixes(bundle)[i],
        st.sampled_from(tuple(BundleType)),
        st.integers(0, 6),
    ),
)


@settings(max_examples=100, deadline=None)
@given(_stacked_or_prefix)
def test_betti_equals_sympy_ranks_on_random_complexes(c):
    assert sb.betti_numbers(c) == _oracle_betti(c)


def test_betti_reduces_only_uncleared_rows(monkeypatch):
    # clearing: the boundary of the d-faces is reduced on exactly
    # f_d - rank(boundary_{d+1}) keys, for every d
    reduced = []
    pivots = verify._pivots

    def recording(keys, lead, row_of):
        keys = list(keys)
        reduced.append(len(keys))
        return pivots(keys, lead, row_of)

    monkeypatch.setattr(verify, "_pivots", recording)
    for c in (sb.build_miss(5), _fill_prefixes(BundleType.NONORIENTABLE)[-1]):
        reduced.clear()
        ranks = _oracle_ranks(c)
        sb.betti_numbers(c)
        expected = [len(c.faces(d)) - ranks[d + 1] for d in range(c.n - 1, 0, -1)]
        assert reduced == expected


def _leads_taken(rows):
    """For each sparse row in turn: does its largest column already lead a
    pivot of the rows before it?  Plain Gaussian elimination over QQ, largest
    column first; the answer depends on the matrix only."""
    pivots = {}
    taken = []
    for r in rows:
        taken.append(max(r) in pivots)
        row = {c: Fraction(v) for c, v in r.items()}
        while row:
            col = max(row)
            if col not in pivots:
                pivots[col] = row
                break
            q = row[col] / pivots[col][col]
            for c, x in pivots[col].items():
                y = row.get(c, 0) - q * x
                if y:
                    row[c] = y
                else:
                    row.pop(c, None)
    return taken


def test_betti_builds_a_row_only_to_reduce(monkeypatch):
    # implicit rows: a face's row is built when its leading column is
    # taken, or, for an apparent pivot, when a later row is reduced against
    # it; never twice, and fewer rows than faces are built in all
    events = []
    pivots = verify._pivots
    build = verify._boundary_row

    def recording_pivots(keys, lead, row_of):
        def handed():
            for F in keys:
                events.append(("key", F))
                yield F
        return pivots(handed(), lead, row_of)

    def recording_build(F, index):
        events.append(("build", F))
        return build(F, index)

    monkeypatch.setattr(verify, "_pivots", recording_pivots)
    monkeypatch.setattr(verify, "_boundary_row", recording_build)
    for c in (sb.build_miss(5), _fill_prefixes(BundleType.NONORIENTABLE)[-1]):
        events.clear()
        sb.betti_numbers(c)
        num_keys = sum(kind == "key" for kind, _ in events)
        assert sum(kind == "build" for kind, _ in events) < num_keys
        for d in range(c.n - 1, 0, -1):
            timeline = [(kind, F) for kind, F in events if len(F) == d + 1]
            keys = [F for kind, F in timeline if kind == "key"]
            column = {F: j for j, F in enumerate(sorted(c.faces(d)))}
            matrix = sb.boundary_matrix(c, d)
            taken = dict(zip(keys, _leads_taken([matrix[column[F]] for F in keys])))
            current, built = None, set()
            for kind, F in timeline:
                if kind == "key":
                    current = F
                    continue
                assert F in taken and F not in built
                built.add(F)
                if F == current:
                    assert taken[F]  # built to be reduced
                else:
                    # an earlier apparent pivot, built while the current row
                    # is being reduced against it
                    assert not taken[F] and current in built
            assert {F for F in keys if taken[F]} <= built


def test_betti_alternating_sum_is_euler_characteristic():
    for c in (sb.boundary_of_simplex(5), sb.build_miss(4), sb.build_miss(5),
              sb.kuhnel_complex(3)):
        betti = sb.betti_numbers(c)
        assert sum((-1) ** i * b for i, b in enumerate(betti)) == sb.euler_characteristic(c)


# -- orientability ---------------------------------------------------------------

def test_orientability_examples():
    assert sb.orientability(sb.build_miss(5))
    assert not sb.orientability(sb.build_miss(4))
    for n in (3, 4, 5, 6):
        assert sb.orientability(sb.boundary_of_simplex(n))


def test_orientability_requires_pseudomanifold():
    c = sb.Complex(sb.boundary_of_simplex(4).facets[1:])
    with pytest.raises(NotPseudomanifold):
        sb.orientability(c)


def test_first_bad_ridge_is_the_same_for_every_reader():
    # (1, 2) comes first in combinations((1, 2, 3), 2) order
    c = sb.Complex([(1, 2, 3)])
    assert sb.is_pseudomanifold(c).detail == "ridge (1, 2) lies in 1 facets"
    for reader in (sb.orientability, sb.orientation_double_cover):
        with pytest.raises(NotPseudomanifold, match=r"^ridge \(1, 2\) lies in 1 facets$"):
            reader(c)


_COVERS = {}


def _cover_of_prefix(i):
    """Double cover of the i-th nonorientable (5,12) fill-schedule prefix."""
    if i not in _COVERS:
        _COVERS[i] = sb.orientation_double_cover(
            _fill_prefixes(BundleType.NONORIENTABLE)[i]
        )
    return _COVERS[i]


@settings(max_examples=100, deadline=None)
@given(st.one_of(_stacked_or_prefix, st.builds(_cover_of_prefix, st.integers(0, 6))))
def test_orientability_equals_top_cycle_count(c):
    # a connected closed pseudomanifold is orientable iff its top cycles
    # (the kernel of the top boundary map, over QQ) form a line
    assert sb.is_pseudomanifold(c).ok
    top = c.n - 1
    top_cycles = len(c.faces(top)) - _sympy_rank(sb.boundary_matrix(c, top), len(c.faces(top - 1)))
    assert sb.orientability(c) == (top_cycles == 1)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_stacked_or_prefix, st.builds(_cover_of_prefix, st.integers(0, 6))), st.data())
def test_star_index_and_links_against_facet_scan(c, data):
    scan = {v: [i for i, F in enumerate(c.facets) if v in F] for v in sorted(c.vertices)}
    assert list(c.stars().items()) == list(scan.items())
    vertex = (data.draw(st.sampled_from(sorted(c.vertices))),)
    edge = data.draw(st.sampled_from(sorted(c.faces(1))))
    facet = data.draw(st.sampled_from(c.facets))
    for face in (vertex, edge, facet):
        fs = set(face)
        expected = sb.Complex(tuple(v for v in F if v not in fs) for F in c.facets if fs < set(F))
        assert sb.link(c, face) == expected
    assert sb.link(c, facet).is_empty


def test_double_cover_labels_are_pinned():
    # sha256 of write() of the covers as labelled by a scan of every facet
    # per vertex; reading the star index must not change a label
    pinned = {
        4: (54, "9f3ec219605943b0914edd92bf1b715b98b6802b6a330f0dd0743acade1aa5cf"),
        6: (130, "2e8e2d28adf75c9b787f4293645c9c47619632208393325beba7df546e3e1a63"),
    }
    for n, (num_facets, digest) in pinned.items():
        text = sb.write(sb.orientation_double_cover(sb.build_miss(n)))
        assert len(text.splitlines()) == num_facets
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _reference_double_cover(c):
    """The double cover by a union-find over (vertex, facet, sheet) triples,
    copies of each vertex numbered in the order of their least triple."""
    if verify.orientability(c):
        raise AlreadyOrientable("complex is already orientable")
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for ridge, ((i, pi), (j, pj)) in c.ridges().items():
        flip = (pi + pj + 1) & 1
        for s in (0, 1):
            for v in ridge:
                rx, ry = find((v, i, s)), find((v, j, s ^ flip))
                if rx != ry:
                    parent[max(rx, ry)] = min(rx, ry)
    shift = max(c.vertices)
    label = {}
    for v, star in c.stars().items():
        roots = sorted({find((v, i, s)) for i in star for s in (0, 1)})
        for which, root in enumerate(roots):
            label[root] = v + which * shift
    return sb.Complex(
        [label[find((v, i, s))] for v in F] for i, F in enumerate(c.facets) for s in (0, 1)
    )


def _same_cover(c):
    try:
        want = sb.write(_reference_double_cover(c))
    except (AlreadyOrientable, NotPseudomanifold) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            sb.orientation_double_cover(c)
        return False
    assert sb.write(sb.orientation_double_cover(c)) == want
    return True


@settings(max_examples=40, deadline=None)
@given(st.one_of(_stacked_or_prefix, st.builds(_cover_of_prefix, st.integers(0, 6))))
def test_double_cover_against_union_find_on_random_complexes(c):
    _same_cover(c)


def test_double_cover_against_union_find():
    rp2 = sb.Complex([(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                      (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)])
    # RP^2 with a chain of subdivisions, then vertex 11 glued to vertex 1
    # at distance 3: the link of 1 is two circles, so 1 has four copies
    pinched, F = rp2, (1, 2, 3)
    for v in range(7, 13):
        pinched = sb.subdivide_facet(pinched, F, v)
        F = tuple(sorted(F[1:] + (v,)))
    pinched = pinched.relabeled({11: 1})
    cases = [rp2, pinched, *_fill_prefixes(BundleType.NONORIENTABLE)]
    cases += [sb.build_miss(n) for n in (4, 6, 8)]
    assert all(_same_cover(c) for c in cases)
    assert {1, 13, 25, 37} <= sb.orientation_double_cover(pinched).vertices


def test_walk_reports_a_nonorientable_component_as_disconnected():
    # the 6-vertex RP^2 beside the boundary of a tetrahedron: the walk must
    # not stop at the sign conflict inside RP^2 before counting the facets
    rp2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
           (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]
    tetra = [(7, 8, 9), (7, 8, 10), (7, 9, 10), (8, 9, 10)]
    c = sb.Complex(rp2 + tetra)
    report = sb.is_pseudomanifold(c)
    assert not report.ok and report.orientable is None
    message = r"^facet-adjacency graph has >= 2 components \(10 of 14 reachable\)$"
    with pytest.raises(NotPseudomanifold, match=message):
        sb.orientability(c)
    with pytest.raises(NotPseudomanifold, match=message):
        sb.orientation_double_cover(c)


def test_top_betti_matches_orientability():
    # beta_{n-1} = 1 iff orientable, for connected pseudomanifolds
    for c in (sb.build_miss(4), sb.build_miss(5), sb.boundary_of_simplex(5),
              sb.build_iss(5, 12, BundleType.NONORIENTABLE)):
        betti = sb.betti_numbers(c)
        assert (betti[-1] == 1) == sb.orientability(c)
        if not sb.orientability(c):
            assert betti[-1] == 0


# -- closed-manifold evidence -------------------------------------------------------

def test_manifold_evidence_passes_on_bundles():
    for n in (4, 5, 6):
        ev = sb.manifold_evidence(sb.build_miss(n))
        assert ev.ok
    assert sb.manifold_evidence(sb.boundary_of_simplex(4)).ok


def test_manifold_evidence_needs_edges():
    with pytest.raises(DimensionTooLow):
        sb.manifold_evidence(sb.Complex([(1,), (2,)]))


def test_manifold_evidence_detects_pinched_vertex():
    # two 2-spheres wedged at a vertex
    a = sb.boundary_of_simplex(3)
    b = a.relabeled({1: 1, 2: 12, 3: 13, 4: 14})
    wedge = sb.Complex(a.facets + b.facets)
    ev = sb.manifold_evidence(wedge)
    assert not ev.ok
    bad = [lc for lc in ev.link_checks if not lc.ok]
    assert [lc.vertex for lc in bad] == [1]
    assert bad[0].betti[0] == 2  # the link falls apart into two spheres


def _evidence_by_link_loop(c):
    """manifold_evidence(c) rebuilt from one validated link(c, (v,)) per vertex."""
    expected = verify._sphere_betti(c.n - 2)
    checks = []
    for v in sorted(c.vertices):
        lk = sb.link(c, (v,))
        betti = sb.betti_numbers(lk)
        lk_pm = sb.is_pseudomanifold(lk)
        ori = bool(lk_pm.orientable)
        ok = betti == expected and ori
        detail = lk_pm.detail
        if not ok and not detail:
            detail = f"link Betti {betti} vs sphere {expected}" if betti != expected else "link nonorientable"
        checks.append(verify.LinkCheck(v, betti, ori, ok, detail))
    return verify.ManifoldEvidence(sb.is_pseudomanifold(c), tuple(checks))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_stacked_or_prefix, st.builds(_cover_of_prefix, st.integers(0, 6))))
def test_link_pass_against_link(c):
    seen = []
    for v, lk in sb.vertex_links(c):
        seen.append(v)
        oracle = sb.link(c, (v,))
        assert lk.facets == oracle.facets
        assert lk.n == oracle.n and lk.vertices == oracle.vertices
        for d in range(-1, lk.n + 1):
            assert lk.sorted_faces(d) == sorted(oracle.faces(d))
            assert lk.faces(d) == oracle.faces(d)
    assert seen == sorted(c.vertices)
    assert sb.manifold_evidence(c) == _evidence_by_link_loop(c)


def test_link_pass_keeps_the_failure_details():
    # a vertex whose link falls apart, and ridges of valence three
    a = sb.boundary_of_simplex(3)
    pinched = sb.Complex(a.facets + a.relabeled({2: 12, 3: 13, 4: 14}).facets)
    valence3 = sb.Complex(a.facets + ((1, 2, 5), (1, 3, 5), (2, 3, 5)))
    cases = {
        pinched: {1: ((2, 2), "facet-adjacency graph has >= 2 components (3 of 6 reachable)")},
        valence3: {
            1: ((1, 2), "ridge (2,) lies in 3 facets"),
            2: ((1, 2), "ridge (1,) lies in 3 facets"),
            3: ((1, 2), "ridge (1,) lies in 3 facets"),
        },
    }
    for c, bad in cases.items():
        ev = sb.manifold_evidence(c)
        assert ev == _evidence_by_link_loop(c)
        assert {lc.vertex: (lc.betti, lc.detail) for lc in ev.link_checks if not lc.ok} == bad
        assert all(lc.detail == "" for lc in ev.link_checks if lc.ok)


def test_link_pass_needs_edges():
    with pytest.raises(DimensionTooLow):
        next(sb.vertex_links(sb.Complex([(1,), (2,)])))


def test_vertex_links_of_a_cycle():
    # n = 2, the least n with vertex links: each link is two points, a 0-sphere
    square = sb.Complex([(1, 2), (2, 3), (3, 4), (1, 4)])
    links = dict(sb.vertex_links(square))
    assert sorted(links) == [1, 2, 3, 4]
    for v, lk in links.items():
        assert lk == sb.link(square, (v,))
        assert lk.n == 1 and len(lk.facets) == 2
    ev = sb.manifold_evidence(square)
    assert ev.ok
    assert [lc.betti for lc in ev.link_checks] == [(2,)] * 4


# -- double cover hypothesis for the classification -----------------------------------

def test_nonorientable_covers_have_vanishing_beta2():
    cases = {5: 12, 6: 13, 7: 16}
    for n, f0 in cases.items():
        c = sb.build_iss(n, f0, BundleType.NONORIENTABLE)
        cover = sb.orientation_double_cover(c)
        betti = sb.betti_numbers(cover)
        assert betti[1] == 1
        assert betti[2] == 0


def test_g2_lower_bound_on_orientable_instances():
    # g2 >= beta_1 * C(n+1, 2) for the constructed orientable bundles, n >= 5
    for n, f0 in ((5, 11), (5, 13), (6, 14), (7, 15)):
        c = sb.build_iss(n, f0, BundleType.ORIENTABLE)
        f = sb.f_vector(c)
        g2 = f.f(1) - n * f.f(0) + comb(n + 1, 2)
        beta1 = sb.betti_numbers(c)[1]
        assert g2 >= beta1 * comb(n + 1, 2)


# -- isomorphism -----------------------------------------------------------------------

def test_isomorphic_relabeling_found():
    m4 = sb.build_miss(4)
    rng = random.Random(11)
    verts = sorted(m4.vertices)
    perm = dict(zip(verts, rng.sample(verts, len(verts))))
    w = sb.are_isomorphic(m4, m4.relabeled(perm))
    assert w is not None


def test_isomorphism_witness_carries_facets():
    a = sb.build_miss(4)
    b = sb.kuhnel_complex(4)
    w = sb.are_isomorphic(a, b)
    assert w is not None
    image = {tuple(sorted(w.mapping[v] for v in F)) for F in a.facets}
    assert image == set(b.facets)


def test_isomorphism_reflexive_and_symmetric():
    a = sb.build_miss(4)
    assert sb.are_isomorphic(a, a) is not None
    b = a.relabeled({v: v + 100 for v in a.vertices})
    w_ab = sb.are_isomorphic(a, b)
    w_ba = sb.are_isomorphic(b, a)
    assert w_ab is not None and w_ba is not None
    # the inverse of the b->a witness is itself an a->b isomorphism
    inverse = {v: w for w, v in w_ba.mapping.items()}
    image = {tuple(sorted(inverse[v] for v in F)) for F in a.facets}
    assert image == set(b.facets)


def test_non_isomorphic_quick_rejections():
    m4 = sb.build_miss(4)
    assert sb.are_isomorphic(m4, sb.orientation_double_cover(m4)) is None
    assert sb.are_isomorphic(m4, sb.boundary_of_simplex(4)) is None


def _incidence_graph(c):
    """The vertex-facet incidence graph of c, each node tagged with its kind."""
    g = nx.Graph()
    g.add_nodes_from((("v", v) for v in c.vertices), kind="vertex")
    for i, F in enumerate(c.facets):
        g.add_node(("F", i), kind="facet")
        g.add_edges_from((("F", i), ("v", v)) for v in F)
    return g


def _oracle_isomorphic(a, b):
    """networkx's matcher on the incidence graphs, vertices onto vertices."""
    return nx.is_isomorphic(_incidence_graph(a), _incidence_graph(b),
                            node_match=categorical_node_match("kind", None))


def test_non_isomorphic_same_counts():
    # two stacked spheres with the same number of subdivisions share every
    # face count, so the answer is left to the vertex colours and the search
    c1, _ = sb.random_stacked_sphere(4, 5, seed=1)
    c2, _ = sb.random_stacked_sphere(4, 5, seed=3)
    assert sb.f_vector(c1) == sb.f_vector(c2)
    w = sb.are_isomorphic(c1, c2)
    assert (w is not None) == _oracle_isomorphic(c1, c2)
    if w is not None:
        image = {tuple(sorted(w.mapping[v] for v in F)) for F in c1.facets}
        assert image == set(c2.facets)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((3, 4)),
    st.integers(1, 5),
    st.integers(0, 10**6),
    st.one_of(st.none(), st.integers(0, 10**6)),
    st.randoms(use_true_random=False),
)
def test_isomorphism_answer_equals_networkx(n, steps, seed, other, rnd):
    # b is a relabelled copy of a (other is None) or of another stacked
    # sphere with the same face counts, on labels spread over 1..99
    a, _ = sb.random_stacked_sphere(n, steps, seed=seed)
    b = a if other is None else sb.random_stacked_sphere(n, steps, seed=other)[0]
    vs = sorted(b.vertices)
    b = b.relabeled(dict(zip(vs, rnd.sample(range(1, 100), len(vs)))))
    w = sb.are_isomorphic(a, b)
    assert (w is not None) == _oracle_isomorphic(a, b)
    if other is None:
        assert w is not None


def test_isomorphism_of_empty_complexes():
    empty = sb.Complex([])
    assert sb.are_isomorphic(empty, empty) == verify.IsoWitness({})
    assert sb.are_isomorphic(empty, sb.boundary_of_simplex(3)) is None
