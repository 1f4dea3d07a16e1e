import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from umatch import (
    GF,
    SparseVector,
    StoredCsMatrix,
    UsageError,
    antitranspose_view,
    axpy,
    boundary_oracle,
    decompose_compressed,
    decompose_full,
    dot,
    matvec,
    rdv_bridge,
    scale,
    submatrix_view,
    to_echelon,
    vecmat,
)
from umatch.complexes import FilteredCliqueComplex, FilteredCubicalComplex
from umatch.linalg import RdvDecomposition, umatch_to_rdv
from umatch.matrix import _accumulate
from umatch.retrieve import PivotBlockProduct

from conftest import random_stored
from oracles import mat_mul, standard_rdv


def test_sparse_vector_invariants_enforced():
    f = GF(7)
    with pytest.raises(UsageError):
        SparseVector(f, [(2, 1), (1, 3)])
    with pytest.raises(UsageError):
        SparseVector(f, [(0, 0)])
    with pytest.raises(UsageError):
        SparseVector(f, [(0, 9)])


def test_from_pairs_combines_and_drops_zeros():
    f = GF(7)
    v = SparseVector.from_pairs(f, [(3, 4), (1, 2), (3, 3), (0, 7)])
    assert v.entries == ((1, 2),)


@given(st.sampled_from([2, 7]), st.data())
def test_axpy_matches_dense(p, data):
    f = GF(p)
    n = 12
    xs = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    ys = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    alpha = data.draw(st.integers(0, p - 1))
    x = SparseVector.from_pairs(f, [(i, v) for i, v in enumerate(xs) if v])
    y = SparseVector.from_pairs(f, [(i, v) for i, v in enumerate(ys) if v])
    z = axpy(alpha, x, y)
    # invariants: sorted support, no stored zeros
    assert list(z.support()) == sorted(z.support())
    assert all(v for _, v in z.entries)
    assert z.to_dense(n) == [(alpha * a + b) % p for a, b in zip(xs, ys)]


def test_axpy_cancellation_over_gf2():
    f = GF(2)
    e12 = SparseVector.from_pairs(f, [(0, 1), (1, 1)])
    e23 = SparseVector.from_pairs(f, [(1, 1), (2, 1)])
    assert axpy(1, e12, e23).entries == ((0, 1), (2, 1))


def test_dot_and_scale():
    f = GF(7)
    x = SparseVector.from_pairs(f, [(0, 2), (3, 4)])
    y = SparseVector.from_pairs(f, [(0, 3), (2, 1), (3, 2)])
    assert dot(x, y) == (2 * 3 + 4 * 2) % 7
    assert scale(3, x).entries == ((0, 6), (3, 5))


def test_matvec_identity():
    f = GF(7)
    eye = StoredCsMatrix.identity(f, 5)
    v = SparseVector.from_pairs(f, [(1, 3), (4, 6)])
    assert matvec(eye, v) == v
    assert vecmat(v, eye) == v


def test_matvec_example_matched_column():
    # left-multiplication by [[3,-6],[3,-6]] maps (1,0) to 3 * (1,1)
    f = GF(7)
    d = StoredCsMatrix.from_dense(f, [[3, 1], [3, 1]])
    v = SparseVector.from_pairs(f, [(0, 1)])
    assert matvec(d, v).to_dense(2) == [3, 3]


def test_matvec_dimension_mismatch():
    f = GF(7)
    d = StoredCsMatrix.from_dense(f, [[1, 0], [0, 1]])
    with pytest.raises(UsageError):
        matvec(d, SparseVector.from_pairs(f, [(5, 1)]))


def test_antitranspose_by_hand():
    f = GF(7)
    d = StoredCsMatrix.from_dense(f, [[1, 2], [0, 3]])
    assert antitranspose_view(d).to_dense() == [[3, 2], [0, 1]]


def test_antitranspose_involution_and_first_row():
    rnd = random.Random(7)
    d = random_stored(rnd, 7, 5, 7)
    at = antitranspose_view(d)
    assert antitranspose_view(at) is d
    assert antitranspose_view(antitranspose_view(d)).to_dense() == d.to_dense()
    # first row of the anti-transpose is the last column of d, reversed
    first = at.row(0).to_dense(at.ncols)
    last_col = d.col(d.ncols - 1).to_dense(d.nrows)
    assert first == last_col[::-1]


def test_submatrix_views():
    f = GF(7)
    d = StoredCsMatrix.from_dense(f, [[3, 1], [3, 1]])
    # pivot block of the worked 2x2 example: rows (1,), cols (0,)
    assert submatrix_view(d, [1], [0]).to_dense() == [[3]]
    # identity index sequences give back the same entries
    assert submatrix_view(d, [0, 1], [0, 1]).to_dense() == d.to_dense()
    ab = StoredCsMatrix.from_dense(f, [[1, 2], [3, 4]])
    assert submatrix_view(ab, [1, 0], [0]).to_dense() == [[3], [1]]


def test_submatrix_rejects_bad_indices():
    f = GF(2)
    d = StoredCsMatrix.identity(f, 3)
    with pytest.raises(UsageError):
        submatrix_view(d, [0, 0], [1])
    with pytest.raises(UsageError):
        submatrix_view(d, [0], [5])


def test_submatrix_composition():
    rnd = random.Random(11)
    d = random_stored(rnd, 7, 6, 8)
    r1, c1 = [4, 1, 3], [0, 6, 2, 5]
    r2, c2 = [2, 0], [3, 1]
    inner = submatrix_view(submatrix_view(d, r1, c1), r2, c2)
    direct = submatrix_view(d, [r1[i] for i in r2], [c1[j] for j in c2])
    assert inner.to_dense() == direct.to_dense()


@pytest.mark.parametrize("p", [2, 7])
def test_row_col_consistency_fuzzed(p):
    rnd = random.Random(p)
    for _ in range(15):
        m, n = rnd.randint(1, 7), rnd.randint(1, 7)
        d = random_stored(rnd, p, m, n)
        views = [d, antitranspose_view(d)]
        if m >= 2 and n >= 2:
            views.append(submatrix_view(d, [m - 1, 0], [0, n - 1]))
        for v in views:
            dense = v.to_dense()
            for i in range(v.nrows):
                assert v.row(i).to_dense(v.ncols) == dense[i]
            for j in range(v.ncols):
                assert v.col(j).to_dense(v.nrows) == [dense[i][j] for i in range(v.nrows)]


def test_stored_matrix_from_triplets_accumulates():
    f = GF(7)
    d = StoredCsMatrix.from_triplets(f, 2, 2, [(0, 0, 3), (0, 0, 4), (1, 1, 2)])
    assert d.to_dense() == [[0, 0], [0, 2]]
    assert d.nnz == 1


@given(st.sampled_from([2, 3, 7]), st.data())
def test_accumulate_kernels_match_dense(p, data):
    f = GF(p)
    m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    coeff = st.integers(0, p - 1)
    dense = data.draw(st.lists(st.lists(coeff, min_size=n, max_size=n), min_size=m, max_size=m))
    # a negated copy of the first column and of the first row, weighted
    # equally by the vectors below, makes terms cancel to zero
    dense = [r + [-r[0] % p] for r in dense]
    dense.append([-v % p for v in dense[0]])
    d = StoredCsMatrix.from_dense(f, dense)
    xs = data.draw(st.lists(coeff, min_size=n, max_size=n))
    ys = data.draw(st.lists(coeff, min_size=m, max_size=m))
    xs.append(xs[0])
    ys.append(ys[0])
    x = SparseVector.from_pairs(f, [(j, v) for j, v in enumerate(xs) if v])
    y = SparseVector.from_pairs(f, [(i, v) for i, v in enumerate(ys) if v])
    assert matvec(d, x).to_dense(m + 1) == [r[0] for r in mat_mul(dense, [[v] for v in xs], p)]
    assert vecmat(y, d).to_dense(n + 1) == mat_mul([ys], dense, p)[0]

    # the in-place primitive: acc += alpha * entries, cancelled keys deleted,
    # returning the number of entries passed in
    alpha = data.draw(coeff)
    acc = dict(y.entries)
    entries = SparseVector.from_pairs(f, [(i, v) for i, v in enumerate(dense[0]) if v]).entries
    assert _accumulate(acc, alpha, entries, p) == len(entries)
    width = max(m + 1, n + 1)
    want = [(a + alpha * b) % p for a, b in zip(y.to_dense(width), SparseVector(f, entries).to_dense(width))]
    assert acc == {i: v for i, v in enumerate(want) if v}
    acc = dict(entries)
    assert _accumulate(acc, p - 1, entries, p) == len(entries)
    assert acc == {}


def _clique(rnd, f):
    pts = np.array([[rnd.random(), rnd.random()] for _ in range(6)])
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return boundary_oracle(FilteredCliqueComplex(dist, 2, threshold=0.7), rnd.choice([1, 2]), f)


def _cubical(rnd, f):
    pixels = np.array([[rnd.randrange(5) for _ in range(3)] for _ in range(3)], dtype=float)
    return boundary_oracle(FilteredCubicalComplex(pixels), rnd.choice([1, 2]), f)


def _bridged_d(d, u):
    # the D that the bridge rebuilds from a right-reduction given without d
    f = d.field
    red, v, lows = standard_rdv(d.to_dense(), f.p)
    rdv = RdvDecomposition(StoredCsMatrix.from_dense(f, red), StoredCsMatrix.from_dense(f, v), lows)
    return rdv_bridge(rdv).d


def _decomposed(view):
    def build(rnd, f):
        d = random_stored(rnd, f.p, 7, 6)
        return view(d, decompose_compressed(d))
    return build


ORACLES = {
    "stored": _decomposed(lambda d, u: d),
    "antitranspose": _decomposed(lambda d, u: antitranspose_view(d)),
    "submatrix": _decomposed(lambda d, u: submatrix_view(d, [5, 0, 3, 2], [1, 4, 0])),
    "pivot_block": _decomposed(lambda d, u: PivotBlockProduct(u)),
    "row_echelon": _decomposed(lambda d, u: to_echelon(u, "row")),
    "column_echelon": _decomposed(lambda d, u: to_echelon(u, "column")),
    "reduced_product": _decomposed(lambda d, u: umatch_to_rdv(u).reduced),
    "rdv_c": _decomposed(lambda d, u: umatch_to_rdv(u).v),
    "full_bridge_reduced": _decomposed(lambda d, u: rdv_bridge(decompose_full(d)).reduced),
    "bridge_rebuilt_d": _decomposed(_bridged_d),
    "clique_boundary": _clique,
    "cubical_boundary": _cubical,
}


@pytest.mark.parametrize("p", [2, 7])
@pytest.mark.parametrize("kind", sorted(ORACLES))
def test_oracle_rows_agree_with_columns(kind, p):
    # the MatrixOracle contract: row(i)[j] == col(j)[i]
    rnd = random.Random(f"{kind}/{p}")
    f = GF(p)
    for _ in range(6):
        a = ORACLES[kind](rnd, f)
        rows = [a.row(i).to_dense(a.ncols) for i in range(a.nrows)]
        cols = [a.col(j).to_dense(a.nrows) for j in range(a.ncols)]
        assert rows == [[cols[j][i] for j in range(a.ncols)] for i in range(a.nrows)]
