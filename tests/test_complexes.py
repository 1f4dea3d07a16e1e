import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umatch import GF, PersistenceEngine, UsageError, boundary_oracle
from umatch import complexes
from umatch.complexes import (
    FilteredCliqueComplex,
    FilteredCubicalComplex,
    clique_from_points,
    simplex_rank,
    torus_metric,
)
from umatch.datasets import circle_complex, er_complex
from umatch.decompose import pareto_pairs

from conftest import clique_inputs, image_inputs
from oracles import (
    boundary_reference,
    clique_reference,
    cube_faces_signed,
    cubical_reference,
    dense_boundary,
    mat_mul,
    pareto_reference,
    simplex_faces_signed,
)


def equilateral3():
    d = np.ones((3, 3)) - np.eye(3)
    return FilteredCliqueComplex(d, max_dim=2, threshold=1.5)


def test_build_order_three_points():
    cx = equilateral3()
    orders = [cx.order(n) for n in range(3)]
    assert orders[0].cells == [(0,), (1,), (2,)]
    assert orders[0].births == [0.0, 0.0, 0.0]
    assert orders[1].cells == [(0, 1), (0, 2), (1, 2)]
    assert orders[1].births == [1.0, 1.0, 1.0]
    assert orders[2].cells == [(0, 1, 2)]
    assert orders[2].births == [1.0]


def test_build_order_2x2_image():
    cx = FilteredCubicalComplex(np.array([[1.0, 2.0], [3.0, 4.0]]))
    top = cx.order(2)
    assert len(top) == 1
    assert top.births == [4.0]
    assert cx.n_cells(0) == 4
    assert cx.n_cells(1) == 4


def test_build_order_circle_edge_births():
    n = 20
    cx = circle_complex(n)
    expected = 2 * math.sin(math.pi / n)
    first_edges = [b for b in cx.order(1).births[:n]]
    assert all(abs(b - expected) < 1e-12 for b in first_edges)


def test_rejects_bad_dissimilarity():
    with pytest.raises(UsageError):
        FilteredCliqueComplex(np.array([[0.0, 1.0], [2.0, 0.0]]), 1, 2.0)
    with pytest.raises(UsageError):
        FilteredCliqueComplex(np.array([[0.0, np.inf], [np.inf, 0.0]]), 1, 2.0)
    with pytest.raises(UsageError):
        FilteredCliqueComplex(np.zeros((2, 3)), 1, 2.0)


def test_triangle_boundaries():
    f = GF(2)
    cx = equilateral3()
    d1 = boundary_oracle(cx, 1, f)
    assert d1.shape == (3, 3)
    for j in range(3):
        assert d1.col(j).nnz == 2
    d2 = boundary_oracle(cx, 2, f)
    assert d2.shape == (3, 1)
    assert d2.col(0).to_dense(3) == [1, 1, 1]
    with pytest.raises(UsageError):
        boundary_oracle(cx, 3, f)


def test_boundary_squared_is_zero_over_odd_field():
    f = GF(7)
    rnd = np.random.default_rng(3)
    pts = rnd.random((7, 2))
    cx = clique_from_points(pts, max_dim=3, threshold=2.0)
    for n in range(2, 4):
        if cx.n_cells(n) == 0:
            continue
        a = boundary_oracle(cx, n - 1, f).to_dense()
        b = boundary_oracle(cx, n, f).to_dense()
        prod = mat_mul(a, b, 7)
        assert all(all(v == 0 for v in row) for row in prod)
    img = FilteredCubicalComplex(rnd.random((3, 4)))
    a = boundary_oracle(img, 1, f).to_dense()
    b = boundary_oracle(img, 2, f).to_dense()
    assert all(all(v == 0 for v in r) for r in mat_mul(a, b, 7))
    vol = FilteredCubicalComplex(rnd.random((2, 3, 2)))
    for n in (2, 3):
        a = boundary_oracle(vol, n - 1, f).to_dense()
        b = boundary_oracle(vol, n, f).to_dense()
        assert all(all(v == 0 for v in r) for r in mat_mul(a, b, 7))


def test_row_col_consistency_fuzzed():
    f = GF(2)
    rnd = np.random.default_rng(17)
    pts = rnd.random((8, 3))
    cx = clique_from_points(pts, max_dim=2, threshold=1.0)
    for n in (1, 2):
        d = boundary_oracle(cx, n, f)
        dense = d.to_dense()
        for i in range(d.nrows):
            assert d.row(i).to_dense(d.ncols) == dense[i]
    img = FilteredCubicalComplex(rnd.random((4, 3)))
    for n in (1, 2):
        d = boundary_oracle(img, n, f)
        dense = d.to_dense()
        for i in range(d.nrows):
            assert d.row(i).to_dense(d.ncols) == dense[i]


def test_strict_upper_triangularity_of_total_order():
    cx = er_complex(8, seed=4)
    orders = {n: cx.order(n) for n in range(3)}
    keyed = []
    for n in range(3):
        for pos, cell in enumerate(orders[n].cells):
            keyed.append((orders[n].births[pos], n, cell, (n, pos)))
    keyed.sort(key=lambda t: (t[0], t[1], t[2]))
    gidx = {t[3]: g for g, t in enumerate(keyed)}
    f = GF(2)
    for n in (1, 2):
        d = boundary_oracle(cx, n, f)
        for j in range(d.ncols):
            gj = gidx[(n, j)]
            for i, _ in d.col(j).entries:
                assert gidx[(n - 1, i)] < gj


def test_cell_counts_complete_complex():
    n = 7
    cx = er_complex(n, seed=0, max_dim=3)
    for dim in range(4):
        assert cx.n_cells(dim) == math.comb(n, dim + 1)
    img = FilteredCubicalComplex(np.zeros((4, 5)))
    assert img.n_cells(0) == 20
    assert img.n_cells(1) == 3 * 5 + 4 * 4
    assert img.n_cells(2) == 12


def test_simplex_rank_is_injective_within_dimension():
    seen = {}
    import itertools

    for s in itertools.combinations(range(8), 3):
        r = simplex_rank(s)
        assert r not in seen
        seen[r] = s


def test_leading_entry_shortcut_triangle():
    f = GF(2)
    d2 = boundary_oracle(equilateral3(), 2, f)
    # the last edge in the order pairs with the triangle
    hit = d2.pareto_leading(2)
    assert hit is not None
    assert hit[0] == 0
    # earlier edges do not short-circuit: the triangle's last facet is edge 2
    assert d2.pareto_leading(0) is None
    # a vertex with no coface under the threshold yields nothing
    iso = FilteredCliqueComplex(np.array([[0.0, 5.0], [5.0, 0.0]]), 1, 1.0)
    assert boundary_oracle(iso, 1, f).pareto_leading(0) is None


def test_shortcut_agrees_with_pareto_pairs():
    f = GF(2)
    for seed in range(4):
        cx = er_complex(10, seed=seed)
        for n in (1, 2):
            d = boundary_oracle(cx, n, f)
            pareto = pareto_pairs(d)
            for i in range(d.nrows):
                hit = d.pareto_leading(i)
                if hit is not None:
                    assert (i, hit[0]) in pareto
                    lead = d.row(i).leading()
                    assert lead is not None and lead[0] == hit[0]
            # every pareto pair is found by the shortcut
            for (i, j) in pareto:
                hit = d.pareto_leading(i)
                assert hit is not None and hit[0] == j


def test_cubical_pareto_shortcut_disabled():
    f = GF(2)
    img = FilteredCubicalComplex(np.arange(6.0).reshape(2, 3))
    d = boundary_oracle(img, 1, f)
    assert all(d.pareto_leading(i) is None for i in range(d.nrows))


def test_vertex_births_bound_edge_births():
    # vertex 1 is born at 0.5, after its edges' weights 0.1 and 0.3
    d = np.array([[0, .1, .2], [.1, .5, .3], [.2, .3, 0]])
    cx = FilteredCliqueComplex(d, max_dim=2, threshold=1.0)
    assert cx.order(1).births == [0.2, 0.5, 0.5]
    assert cx.order(2).births == [0.5]
    engine = PersistenceEngine(cx, GF(2))
    for n in (0, 1):
        for bar in engine.bars(n):
            assert bar.birth_value <= bar.death_value
    # a vertex dropped by the threshold takes its edges with it
    cx = FilteredCliqueComplex(d, max_dim=2, threshold=0.4)
    assert cx.order(0).cells == [(0,), (2,)]
    assert cx.order(1).cells == [(0, 2)]
    engine = PersistenceEngine(cx, GF(2))
    assert [b.interval() for b in engine.bars(0)] == [(0.0, math.inf), (0.0, 0.2)]


def test_torus_metric_wraps():
    pts = np.array([[0.05, 0.5, 0.5], [0.95, 0.5, 0.5]])
    d = torus_metric(pts)
    assert abs(d[0, 1] - 0.1) < 1e-12
    euclid = np.linalg.norm(pts[0] - pts[1])
    assert d[0, 1] < euclid


@settings(max_examples=150, deadline=None)
@given(clique_inputs())
def test_clique_oracle_matches_brute_force(case):
    d, max_dim, threshold, p = case
    cx = FilteredCliqueComplex(d, max_dim, threshold)
    ref = clique_reference(d, max_dim, threshold)
    for dim in range(max_dim + 1):
        assert cx.order(dim).cells == [c for _, c in ref[dim]]
        assert cx.order(dim).births == [b for b, _ in ref[dim]]
    # positions are stored by simplex rank; `pos` reads them by vertex tuple
    # and admits no cell of another dimension or outside the threshold
    ref_pos = {dim: {c: i for i, (_, c) in enumerate(ref[dim])} for dim in ref}
    for dim in ref:
        pos = cx.order(dim).pos
        assert len(pos) == len(ref[dim]) and list(pos) == [c for _, c in ref[dim]]
        for size in range(1, min(max_dim + 2, len(d)) + 1):
            for c in itertools.combinations(range(len(d)), size):
                i = ref_pos[dim].get(c)
                assert (c in pos) == (i is not None) and pos.get(c) == i
                if i is None:
                    with pytest.raises(KeyError):
                        pos[c]
                else:
                    assert pos[c] == i
        assert (0.5,) not in pos and [0] not in pos and "ab" not in pos
    f = GF(p)
    for n in range(1, max_dim + 1):
        dense = dense_boundary(cx, n, p)
        oracle = boundary_oracle(cx, n, f)
        for j in range(oracle.ncols):
            assert oracle.col(j).to_dense(oracle.nrows) == [row[j] for row in dense]
            # faces located by rank agree with a plain tuple-keyed lookup
            faces = simplex_faces_signed(ref[n][j][1])
            assert list(oracle.col(j).entries) == sorted((ref_pos[n - 1][c], s % p) for c, s in faces)
        hits = set()
        for i in range(oracle.nrows):
            hit = oracle.pareto_leading(i)
            if hit is not None:
                hits.add((i, hit[0]))
                assert hit[1] % p == dense[i][hit[0]]
            assert oracle.row(i).to_dense(oracle.ncols) == dense[i]
            assert oracle.pareto_leading(i) == (None if hit is None else (hit[0], hit[1] % p))
            # the apparent-pair lookup leaves the row as it was
            assert oracle.row(i).to_dense(oracle.ncols) == dense[i]
        assert hits == set(pareto_pairs(oracle))


def assert_matches_reference(cx, d, max_dim, threshold):
    """Cells and births (to the sign of a zero) as the brute-force reference
    has them, and the apparent pairs of every boundary as pareto_pairs finds
    them, each hit carrying its row's leading entry."""
    ref = clique_reference(d, max_dim, threshold)
    for dim in range(max_dim + 1):
        assert cx.order(dim).cells == [c for _, c in ref[dim]]
        assert [(b, math.copysign(1, b)) for b in cx.order(dim).births] == \
            [(b, math.copysign(1, b)) for b, _ in ref[dim]]
    for n in range(1, max_dim + 1):
        oracle = boundary_oracle(cx, n, GF(7))
        hits = set()
        for i in range(oracle.nrows):
            hit = oracle.pareto_leading(i)
            if hit is not None:
                assert oracle.row(i).leading() == hit
                hits.add((i, hit[0]))
        assert hits == pareto_pairs(oracle)


def test_blocked_passes_match_reference_beyond_one_block():
    # 9,880 triangles: the parents of the top level and the rows of the top
    # boundary run to several blocks of both numpy passes
    cx = er_complex(40, seed=1, max_dim=3)
    assert cx.n_cells(1) > cx._block and cx.n_cells(2) > 4 * cx._block
    assert_matches_reference(cx, cx.d, 3, cx.threshold)


def test_isolated_vertices_and_vertices_born_above_threshold():
    # vertex 3 has no edge within the threshold, vertex 4 is born above it,
    # vertex 1 is born after its edge to vertex 0, and vertex 2 is born at
    # -0.0 with its edge (2, 5) weighing 0.0, so that edge is born at -0.0
    d = np.full((6, 6), 2.0)
    np.fill_diagonal(d, [0.0, 0.5, -0.0, 0.0, 1.5, 0.0])
    for (a, b), x in {(0, 1): .1, (0, 2): .2, (1, 2): .3, (0, 5): .7, (2, 5): 0.0,
                      (1, 5): .9, (0, 4): .1, (2, 4): .2}.items():
        d[a, b] = d[b, a] = x
    cx = FilteredCliqueComplex(d, max_dim=2, threshold=1.0)
    assert cx.order(0).cells == [(0,), (2,), (3,), (5,), (1,)]
    assert_matches_reference(cx, d, 2, 1.0)
    # the isolated vertex is no apparent pair; vertex 5 pairs with the edge
    # (2, 5), born with it
    d1 = boundary_oracle(cx, 1, GF(7))
    assert d1.pareto_leading(cx.order(0).pos[(3,)]) is None
    assert d1.pareto_leading(cx.order(0).pos[(5,)]) == (cx.order(1).pos[(2, 5)], 1)
    bars = PersistenceEngine(cx, GF(2)).bars(0)
    assert sorted(b.interval() for b in bars if not b.finite) == [(0.0, math.inf), (0.0, math.inf)]
    # a lone vertex, even under an infinite threshold, pairs with nothing
    lone = FilteredCliqueComplex(np.zeros((1, 1)), 1, math.inf)
    assert boundary_oracle(lone, 1, GF(7)).pareto_leading(0) is None


def test_object_ranks_give_the_same_complex(monkeypatch):
    # ranks past int64 are kept as Python ints in object arrays
    assert complexes._rank_dtype([[math.comb(v, 6) for v in range(5000)]]) is object
    assert complexes._rank_dtype([[math.comb(v, 4) for v in range(5000)]]) is np.int64
    d = er_complex(12, seed=2, max_dim=3).d
    monkeypatch.setattr(complexes, "_rank_dtype", lambda binom: object)
    cx = FilteredCliqueComplex(d, 3, 1.0)
    assert cx._binom_np.dtype == object
    assert_matches_reference(cx, d, 3, 1.0)


def assert_against_tuples(cx, d, max_dim, threshold, p=7):
    """Cells, births, `pos`, rows and columns of a clique complex as a plain
    tuple-keyed reference has them, every vertex and position a Python
    int."""
    ref = clique_reference(d, max_dim, threshold)
    ref_pos = {dim: {c: i for i, (_, c) in enumerate(ref[dim])} for dim in ref}
    for dim in ref:
        order = cx.order(dim)
        assert order.cells == [c for _, c in ref[dim]]
        assert order.births == [b for b, _ in ref[dim]]
        assert all(type(v) is int for c in order.cells for v in c)
        assert all(order.pos[c] == i for c, i in ref_pos[dim].items())
    for n in range(1, max_dim + 1):
        oracle = boundary_oracle(cx, n, GF(p))
        rows = [[] for _ in range(oracle.nrows)]
        for j, col in enumerate(boundary_reference(ref, n, p, simplex_faces_signed)):
            entries = oracle.col(j).entries
            assert list(entries) == col and all(type(i) is int for i, _ in entries)
            for i, v in col:
                rows[i].append((j, v))
        for i, row in enumerate(rows):
            entries = oracle.row(i).entries
            assert list(entries) == row
            assert all(type(j) is int and type(v) is int for j, v in entries)


def test_cells_compare_as_lists_of_int_tuples():
    cx = er_complex(9, seed=3, max_dim=2)
    again = FilteredCliqueComplex(cx.d, 2, cx.threshold)
    for dim in range(3):
        cells = cx.order(dim).cells
        as_list = list(cells)
        assert cells == as_list and as_list == cells and not cells != as_list
        assert cells == again.order(dim).cells
        assert cells[1:4] == as_list[1:4] and cells[-1] == as_list[-1]
        assert all(type(c) is tuple and all(type(v) is int for v in c) for c in as_list)
        assert cells != as_list[:-1] and cells != as_list[::-1]
        assert cells != tuple(as_list)
        with pytest.raises(IndexError):
            cells[len(as_list)]
    # different levels, and the same level of different complexes, differ
    assert cx.order(1).cells != cx.order(2).cells
    fewer = FilteredCliqueComplex(cx.d, 2, float(np.median(cx.d)))
    assert fewer.order(2).cells != cx.order(2).cells
    empty = FilteredCliqueComplex(np.zeros((2, 2)), 3, 1.0)
    assert empty.order(2).cells == [] and empty.order(3).cells == empty.order(3).cells


@pytest.mark.parametrize("n_points", [4, 9])
def test_pos_rejects_what_is_not_a_cell(n_points):
    # one triangle on vertices 0, 1, 2, and far from it, vertices from 3 on;
    # with 9 vertices, the edges and the triangle are found by search
    d = np.full((n_points, n_points), 0.9)
    np.fill_diagonal(d, 0.0)
    for (a, b), x in {(0, 1): .1, (0, 2): .2, (1, 2): .3}.items():
        d[a, b] = d[b, a] = x
    cx = FilteredCliqueComplex(d, max_dim=2, threshold=0.5)
    pos0, pos1, pos2 = (cx.order(k).pos for k in range(3))
    assert [pos._table is None for pos in (pos0, pos1, pos2)] == [False] + [n_points == 9] * 2
    assert pos1[(1, 2)] == 2 and pos2[(0, 1, 2)] == 0 and pos0.get((3,)) == 3
    misses = [
        (pos1, (1,)), (pos1, (0, 1, 2)), (pos2, (0, 1)),   # another dimension
        (pos1, (0, 3)), (pos2, (0, 1, 3)),                  # beyond the threshold
        (pos1, (2, 1)), (pos1, (1, 1)),                     # unsorted, repeated
        (pos0, (-1,)), (pos1, (-2, 1)), (pos1, (0, 4)),     # not a vertex
        (pos1, (0, 10 ** 30)), (pos0, (2 ** 63,)),
        (pos1, [0, 1]), (pos0, 0), (pos1, "ab"), (pos1, (0.0, 1.0)), (pos0, None),
    ]
    for pos, cell in misses:
        assert cell not in pos and pos.get(cell) is None and pos.get(cell, -1) == -1
        with pytest.raises(KeyError):
            pos[cell]
    assert list(pos1) == list(cx.order(1).cells) and len(pos1) == 3


def test_dense_and_searched_positions_match_reference():
    d = complexes.euclidean_metric(np.random.default_rng(11).random((14, 2)))
    # every level complete: each one a dense table over all its ranks
    full = FilteredCliqueComplex(d, 3, math.inf)
    assert all(full.order(k).pos._table is not None for k in range(4))
    assert_against_tuples(full, d, 3, math.inf)
    # a low threshold leaves the upper levels under a quarter of their ranks
    cut = FilteredCliqueComplex(d, 3, 0.45)
    assert cut.order(0).pos._table is not None
    assert [cut.order(k).pos._table is None for k in (2, 3)] == [True, True]
    assert cut.n_cells(3) > 0
    assert_against_tuples(cut, d, 3, 0.45)


def test_more_vertices_than_cpython_shares_ints():
    rnd = np.random.default_rng(5)
    pts = rnd.random((300, 2))
    for threshold, searched in ((0.07, True), (math.inf, False)):
        cx = clique_from_points(pts, max_dim=1, threshold=threshold)
        assert cx.n_cells(0) == 300 and (cx.order(1).pos._table is None) == searched
        assert cx.order(0).cells[299] == (299,)
        assert_against_tuples(cx, cx.d, 1, threshold)


def test_clique_complex_memory():
    import gc
    import tracemalloc

    d = er_complex(50, seed=0, max_dim=2).d
    gc.collect()
    tracemalloc.start()
    try:
        cx = FilteredCliqueComplex(d, 2, float(d.max()))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cx.n_cells(2) == 19600
    assert retained <= 1.5 * 2 ** 20
    # the numpy passes run in blocks of a fixed byte size
    assert peak <= 1.7 * 2 ** 20


@settings(max_examples=80, deadline=None)
@given(image_inputs(), st.sampled_from([2, 3, 7]))
def test_cubical_complex_matches_tuple_reference(pixels, p):
    cx = FilteredCubicalComplex(pixels)
    ref = cubical_reference(pixels)
    for dim in ref:
        assert cx.order(dim).cells == [c for _, c in ref[dim]]
        assert cx.order(dim).births == [b for b, _ in ref[dim]]
    for n in range(1, cx.max_dim + 1):
        oracle = boundary_oracle(cx, n, GF(p))
        cols = boundary_reference(ref, n, p, cube_faces_signed)
        rows = [[] for _ in range(oracle.nrows)]
        for j, col in enumerate(cols):
            assert list(oracle.col(j).entries) == col
            for i, v in col:
                rows[i].append((j, v))
        assert [list(oracle.row(i).entries) for i in range(oracle.nrows)] == rows
        assert pareto_pairs(oracle) == pareto_reference(cols)
