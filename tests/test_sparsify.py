import random

import pytest

from umatch import (
    GF,
    RetrievalTarget,
    StoredCsMatrix,
    UsageError,
    boundary_oracle,
    column_validity_check,
    decompose_compressed,
    delete_coefficients,
    early_stop_solve,
    retrieve,
)
from umatch.datasets import er_complex
from umatch.matrix import matvec

from conftest import random_stored


def test_zero_cost_pivot_returns_unit():
    f = GF(7)
    # the pivot entry is the lowest nonzero of its column and leads its row
    d = StoredCsMatrix.from_dense(f, [[0, 2, 1], [3, 0, 0], [0, 0, 5]])
    u = decompose_compressed(d)
    for r, c, _ in u.matching.pairs:
        col = u.d.col(c)
        if col.trailing()[0] == r and u.d.row(r).leading()[0] == c:
            v = early_stop_solve(u, c)
            assert v.entries == ((c, 1),)


def test_one_by_one_pivot_block():
    f = GF(7)
    d = StoredCsMatrix.from_dense(f, [[3, 1], [3, 1]])
    u = decompose_compressed(d)
    assert early_stop_solve(u, 0).entries == ((0, 1),)


def test_requires_pivot_column():
    f = GF(7)
    u = decompose_compressed(StoredCsMatrix.from_dense(f, [[3, 1], [3, 1]]))
    with pytest.raises(UsageError):
        early_stop_solve(u, 1)
    with pytest.raises(UsageError):
        delete_coefficients(u, 1, retrieve(u, RetrievalTarget("C", "col", 1)))


def modified_domain_matrix_is_valid(u, replacements):
    """Build C with pivot columns replaced and re-derive its matching."""
    f = u.field
    n = u.d.ncols
    cols = []
    for j in range(n):
        if j in replacements:
            cols.append(replacements[j])
        else:
            cols.append(retrieve(u, RetrievalTarget("C", "col", j)))
    # unitriangular check
    for j, col in enumerate(cols):
        t = col.trailing()
        assert t == (j, 1)
    # the implied reduced matrix must reproduce the matching support/coeffs
    derived = {}
    for j, col in enumerate(cols):
        img = matvec(u.d, col)
        if img:
            t = img.trailing()
            derived[j] = t
        else:
            assert j not in u.kappa_pos
    for j, (r, v) in derived.items():
        assert u.matching.row(j) == r
        assert u.matching.coeff(r) == v
    assert set(derived) == set(u.kappa)


@pytest.mark.parametrize("p", [2, 7])
def test_early_stop_columns_pass_validity_and_preserve_matching(p):
    rnd = random.Random(700 + p)
    for _ in range(10):
        d = random_stored(rnd, p, rnd.randint(2, 7), rnd.randint(2, 7))
        u = decompose_compressed(d)
        reps = {}
        for c in u.kappa:
            v = early_stop_solve(u, c)
            assert column_validity_check(u, c, v)
            exact = retrieve(u, RetrievalTarget("C", "col", c))
            assert v.nnz <= exact.nnz
            reps[c] = v
        modified_domain_matrix_is_valid(u, reps)


def test_early_stop_on_clique_complex_is_never_denser():
    f = GF(2)
    cx = er_complex(12, seed=3)
    d2 = boundary_oracle(cx, 2, f)
    u = decompose_compressed(d2)
    for c in u.kappa:
        sparse = early_stop_solve(u, c)
        exact = retrieve(u, RetrievalTarget("C", "col", c))
        assert sparse.nnz <= exact.nnz
        assert column_validity_check(u, c, sparse)


def test_delete_coefficients_no_candidates_is_identity():
    f = GF(7)
    d = StoredCsMatrix.from_dense(f, [[3, 1], [3, 1]])
    u = decompose_compressed(d)
    exact = retrieve(u, RetrievalTarget("C", "col", 0))
    assert delete_coefficients(u, 0, exact) == exact


def test_delete_coefficients_finds_a_deletable_entry():
    # search a seeded family for an instance where deletion strictly sparsifies
    rnd = random.Random(42)
    found = False
    for _ in range(200):
        d = random_stored(rnd, 7, 4, 4, density=0.55)
        u = decompose_compressed(d)
        for c in u.kappa:
            exact = retrieve(u, RetrievalTarget("C", "col", c))
            pruned = delete_coefficients(u, c, exact)
            assert column_validity_check(u, c, pruned)
            if pruned.nnz < exact.nnz:
                found = True
        if found:
            break
    assert found


def test_validity_check_definition():
    f = GF(7)
    d = StoredCsMatrix.from_dense(f, [[3, 1], [3, 1]])
    u = decompose_compressed(d)
    from umatch import SparseVector

    # fails the unit-trailing condition
    assert not column_validity_check(u, 0, SparseVector.from_pairs(f, [(0, 2)]))
    # the exact column always passes
    assert column_validity_check(u, 0, retrieve(u, RetrievalTarget("C", "col", 0)))
