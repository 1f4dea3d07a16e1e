import random
import sys
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umatch import (
    GF,
    RetrievalTarget,
    SparseVector,
    StoredCsMatrix,
    UsageError,
    decompose_compressed,
    decompose_full,
    early_stop_solve,
    retrieve,
    solve_count_audit,
    solve_dx_b,
    solve_yd_c,
    triangular_solve,
)
from umatch.complexes import FilteredCliqueComplex, boundary_oracle
from umatch.datasets import er_complex
from umatch.decompose import CompressedUmatch
from umatch.errors import InternalInconsistencyError
from umatch.linalg import _invert_unitriangular
from umatch.matrix import MatrixOracle
from umatch.retrieve import PivotBlockProduct, _substitute, retrieve_with_stats

from conftest import clique_inputs, random_stored
from oracles import identity, invert_mod, mat_mul, mat_vec, substitute_walk, vec_mat


def test_triangular_solve_by_hand():
    f = GF(7)
    t = StoredCsMatrix.from_dense(f, [[1, 1], [0, 1]])
    b = SparseVector.from_pairs(f, [(1, 1)])
    x = triangular_solve(t, b, side="left")
    assert x.to_dense(2) == [6, 1]
    eye = StoredCsMatrix.identity(f, 3)
    b2 = SparseVector.from_pairs(f, [(0, 4), (2, 2)])
    assert triangular_solve(eye, b2, side="left") == b2


def test_triangular_solve_round_trip():
    rnd = random.Random(31)
    f = GF(7)
    for _ in range(15):
        n = rnd.randint(1, 7)
        dense = identity(n)
        for i in range(n):
            for j in range(i + 1, n):
                if rnd.random() < 0.5:
                    dense[i][j] = rnd.randrange(1, 7)
        t = StoredCsMatrix.from_dense(f, dense)
        b = SparseVector.from_pairs(
            f, [(i, rnd.randrange(7)) for i in range(n) if rnd.random() < 0.6]
        )
        x = triangular_solve(t, b, side="left")
        got = [sum(dense[i][j] * x.get(j) for j in range(n)) % 7 for i in range(n)]
        assert got == b.to_dense(n)
        y = triangular_solve(t, b, side="right")
        got = [sum(y.get(i) * dense[i][j] for i in range(n)) % 7 for j in range(n)]
        assert got == b.to_dense(n)


def test_triangular_solve_detects_zero_pivot():
    f = GF(7)
    t = StoredCsMatrix.from_dense(f, [[0, 1], [0, 1]])
    with pytest.raises(InternalInconsistencyError):
        triangular_solve(t, SparseVector.from_pairs(f, [(0, 1)]), side="left")


@st.composite
def permuted_triangles(draw):
    """(t, row_perm, side, b): t upper triangular with a nonzero diagonal
    once its rows are listed by row_perm, and b either random or the image
    of a solution supported on a run of steps, so that the residual of the
    solve reaches zero before the last step."""
    p = draw(st.sampled_from([2, 7]))
    k = draw(st.integers(1, 8))
    row_perm = draw(st.permutations(range(k)))
    upper = [[draw(st.integers(1, p - 1)) if i == j else
              draw(st.integers(0, p - 1)) if j > i else 0 for j in range(k)] for i in range(k)]
    dense = [None] * k
    for i in range(k):
        dense[row_perm[i]] = upper[i]
    side = draw(st.sampled_from(["left", "right"]))
    lo = draw(st.integers(0, k - 1))
    hi = draw(st.integers(lo, k - 1))
    x = [draw(st.integers(0, p - 1)) if lo <= i <= hi else 0 for i in range(k)]
    if draw(st.booleans()):
        b = x
    elif side == "left":
        b = mat_vec(dense, x, p)
    else:
        b = vec_mat([x[row_perm.index(r)] for r in range(k)], dense, p)
    return StoredCsMatrix.from_dense(GF(p), dense), row_perm, side, b


@settings(max_examples=300, deadline=None)
@given(permuted_triangles())
def test_substitute_keeps_the_order_of_the_walk(case):
    t, row_perm, side, b = case
    pi_inv = sorted(range(t.ncols), key=row_perm.__getitem__)
    resid = {i: v for i, v in enumerate(b) if v}
    want_resid = dict(resid)
    want = list(substitute_walk(t, want_resid, side, row_perm))
    assert list(_substitute(t, resid, side, row_perm, pi_inv)) == want
    assert resid == want_resid == {}
    b = SparseVector.from_pairs(t.field, enumerate(b))
    x = triangular_solve(t, b, side=side, row_perm=row_perm)
    assert x.entries == tuple(sorted((i, v) for i, v, _ in want))


@pytest.mark.parametrize("p", [2, 7])
def test_early_stop_keeps_the_walk(monkeypatch, p):
    cases = []
    for seed in range(3):
        cx = er_complex(12, seed=seed)
        for n in (1, 2):
            u = decompose_compressed(boundary_oracle(cx, n, GF(p)))
            cases.append((u, [early_stop_solve(u, j) for j in u.kappa]))
    monkeypatch.setattr("umatch.sparsify._substitute", lambda t, resid, side, row_perm, pi_inv:
                        substitute_walk(t, resid, side, row_perm))
    for u, cols in cases:
        assert [early_stop_solve(u, j) for j in u.kappa] == cols


class _GuardedLines(MatrixOracle):
    """A stored matrix that fails the test, instead of looping, once more
    lines are read than a solve of its size can need."""

    def __init__(self, t):
        self.t, self.field, self.nrows, self.ncols = t, t.field, t.nrows, t.ncols
        self.reads = 0

    def _read(self, line, i):
        self.reads += 1
        assert self.reads <= 2 * self.ncols, "the solve revisits steps"
        return line(i)

    def row(self, i):
        return self._read(self.t.row, i)

    def col(self, j):
        return self._read(self.t.col, j)


@pytest.mark.parametrize("side", ["left", "right"])
def test_malformed_solves_fail_fast(side):
    f = GF(7)
    # a right-hand side longer than the rank, with and without row_perm
    for row_perm in (None, [2, 0, 1]):
        rows = row_perm or range(3)
        perm = [[int(rows[j] == i) for j in range(3)] for i in range(3)]
        with pytest.raises(InternalInconsistencyError, match="nonzero residual"):
            triangular_solve(StoredCsMatrix.from_dense(f, perm),
                             SparseVector.from_pairs(f, [(1, 2), (5, 1)]),
                             side=side, row_perm=row_perm)
    # not triangular: a step writes the residual at a step already passed,
    # which a solve must leave there, whether it took that step before
    # (it must not take it again) or not (it must not take it late)
    for dense, key, reads in (([[1, 1], [1, 2]], 1 if side == "left" else 0, 2),
                              ([[1, 0, 0], [1, 1, 0], [0, 1, 1]], 1, 1)):
        t = _GuardedLines(StoredCsMatrix.from_dense(f, dense))
        b = SparseVector.unit(f, key)
        with pytest.raises(InternalInconsistencyError, match="nonzero residual"):
            triangular_solve(t, b, side=side)
        assert t.reads == reads
    # a row_perm that is not a permutation, where the left solve inverts it
    if side == "left":
        with pytest.raises(UsageError, match="permutation"):
            triangular_solve(t, b, side=side, row_perm=[1, 1])


class _CountedPerm(Sequence):
    """The reversal of range(k), counting its reads; iterating it fails."""

    def __init__(self, k):
        self.k, self.reads = k, 0

    def __len__(self):
        return self.k

    def __getitem__(self, i):
        self.reads += 1
        return self.k - 1 - i

    def __iter__(self):
        raise AssertionError("a solve walked the whole permutation")


class _LazyBidiagonal(MatrixOracle):
    """The k x k upper bidiagonal matrix of ones with its rows reversed,
    generated on demand: row k-1-i holds columns i and i+1."""

    def __init__(self, k):
        self.field, self.nrows, self.ncols = GF(7), k, k
        self.reads = 0

    def row(self, r):
        self.reads += 1
        i = self.ncols - 1 - r
        return SparseVector.from_pairs(self.field, [(j, 1) for j in (i, i + 1) if j < self.ncols])

    def col(self, j):
        self.reads += 1
        return SparseVector.from_pairs(self.field, [(self.ncols - 1 - i, 1) for i in (j, j - 1)
                                                    if i >= 0])


@pytest.mark.parametrize("side", ["left", "right"])
def test_solve_cost_follows_the_entries_not_the_rank(side):
    k = 100_000
    t, row_perm, pi_inv = _LazyBidiagonal(k), _CountedPerm(k), _CountedPerm(k)
    # the unit vector at step 5 (left) or k-6 (right) takes six steps
    b = SparseVector.unit(t.field, row_perm[5] if side == "left" else k - 6)
    row_perm.reads = 0
    resid = b.to_dict()
    steps = list(_substitute(t, resid, side, row_perm, pi_inv))
    assert not resid and len(steps) == 6 == t.reads
    assert [v for _, v, _ in steps] == [1, 6, 1, 6, 1, 6]
    assert row_perm.reads <= 2 * (len(steps) + 1)
    assert pi_inv.reads <= 2 * (len(steps) + 1)
    if side == "right":
        # the public solve reads row_perm as sparingly
        row_perm.reads = 0
        assert triangular_solve(t, b, side="right", row_perm=row_perm).nnz == 6
        assert row_perm.reads <= 2 * (len(steps) + 1)


def dense_ground_truth(d):
    full = decompose_full(d)
    r = _invert_unitriangular(full.rinv).to_dense()
    c = _invert_unitriangular(full.cinv).to_dense()
    return {
        "R": r,
        "Rinv": full.rinv.to_dense(),
        "C": c,
        "Cinv": full.cinv.to_dense(),
    }


@pytest.mark.parametrize("p", [2, 7])
def test_retrieval_matches_dense_factors(p):
    rnd = random.Random(60 + p)
    for _ in range(12):
        m, n = rnd.randint(1, 9), rnd.randint(1, 9)
        d = random_stored(rnd, p, m, n)
        u = decompose_compressed(d)
        truth = dense_ground_truth(d)
        sizes = {"R": m, "Rinv": m, "C": n, "Cinv": n}
        for which, mat in truth.items():
            k = sizes[which]
            for i in range(k):
                row = retrieve(u, RetrievalTarget(which, "row", i))
                assert row.to_dense(k) == mat[i]
                col = retrieve(u, RetrievalTarget(which, "col", i))
                assert col.to_dense(k) == [mat[t][i] for t in range(k)]


def test_worked_example_column_of_c():
    f = GF(7)
    d = StoredCsMatrix.from_dense(f, [[3, 1], [3, 1]])
    u = decompose_compressed(d)
    col2 = retrieve(u, RetrievalTarget("C", "col", 1))
    assert col2.to_dense(2) == [2, 1]


def test_unit_vector_cells():
    rnd = random.Random(3)
    d = random_stored(rnd, 7, 6, 7)
    u = decompose_compressed(d)
    f = u.field
    for i in u.matching.kappa_bar:
        got = retrieve(u, RetrievalTarget("Cinv", "row", i))
        assert got == SparseVector.unit(f, i)
    for i in u.matching.rho_bar:
        assert retrieve(u, RetrievalTarget("Rinv", "col", i)) == SparseVector.unit(f, i)
        assert retrieve(u, RetrievalTarget("R", "col", i)) == SparseVector.unit(f, i)


def test_solve_counts_follow_the_dispatch_table():
    rnd = random.Random(21)
    d = random_stored(rnd, 7, 7, 8, density=0.5)
    u = decompose_compressed(d)
    m = u.matching
    for i in range(d.nrows):
        pivot = i in u.rho_pos
        assert solve_count_audit(u, RetrievalTarget("Rinv", "row", i)) == (0 if pivot else 1)
        assert solve_count_audit(u, RetrievalTarget("R", "row", i)) == 1
        assert solve_count_audit(u, RetrievalTarget("Rinv", "col", i)) == (1 if pivot else 0)
        assert solve_count_audit(u, RetrievalTarget("R", "col", i)) == (1 if pivot else 0)
    for j in range(d.ncols):
        pivot = j in u.kappa_pos
        assert solve_count_audit(u, RetrievalTarget("Cinv", "row", j)) == 0
        assert solve_count_audit(u, RetrievalTarget("Cinv", "col", j)) == 0
        assert solve_count_audit(u, RetrievalTarget("C", "row", j)) == (1 if pivot else 0)
        assert solve_count_audit(u, RetrievalTarget("C", "col", j)) == 1


def test_out_of_range_retrieval_rejected():
    f = GF(2)
    u = decompose_compressed(StoredCsMatrix.identity(f, 3))
    with pytest.raises(UsageError):
        retrieve(u, RetrievalTarget("C", "col", 3))
    with pytest.raises(UsageError):
        RetrievalTarget("Q", "col", 0)


@pytest.mark.parametrize("index", [1.5, True, "1", None])
def test_retrieval_index_must_be_an_int(index):
    with pytest.raises(UsageError):
        RetrievalTarget("C", "col", index)


@pytest.mark.parametrize("p", [2, 7])
def test_inner_identities_dense(p):
    rnd = random.Random(90 + p)
    for _ in range(10):
        m, n = rnd.randint(2, 7), rnd.randint(2, 7)
        d = random_stored(rnd, p, m, n)
        u = decompose_compressed(d)
        match = u.matching
        if match.rank == 0:
            continue
        rho, kappa = match.rho, match.kappa
        rho_bar, kappa_bar = match.rho_bar, match.kappa_bar
        dd = d.to_dense()
        k = match.rank
        rbar = u.rbar.to_dense()
        d_rk = [[dd[i][j] for j in kappa] for i in rho]
        a = mat_mul(rbar, d_rk, p)
        a_inv = invert_mod(a, p)
        m_rk = [[0] * k for _ in range(k)]
        for pcol, c in enumerate(kappa):
            m_rk[u.pi[pcol]][pcol] = u.m_diag[pcol]
        truth = dense_ground_truth(d)
        c_mat, cinv, r_mat, rinv = truth["C"], truth["Cinv"], truth["R"], truth["Rinv"]
        # C_kk = A^-1 M_rk
        c_kk = mat_mul(a_inv, m_rk, p)
        for qi, i in enumerate(kappa):
            for qj, j in enumerate(kappa):
                assert c_mat[i][j] == c_kk[qi][qj]
        # C_k,kbar = -A^-1 rbar D_{rho,kbar}
        d_rkb = [[dd[i][j] for j in kappa_bar] for i in rho]
        c_kkb = mat_mul(a_inv, mat_mul(rbar, d_rkb, p), p)
        for qi, i in enumerate(kappa):
            for qj, j in enumerate(kappa_bar):
                assert c_mat[i][j] == (-c_kkb[qi][qj]) % p
        # (C^-1)_{kappa, all} = M_rk^-1 rbar D_{rho, all}
        m_rk_inv = invert_mod(m_rk, p)
        ci_k = mat_mul(m_rk_inv, mat_mul(rbar, [dd[i] for i in rho], p), p)
        for qi, i in enumerate(kappa):
            assert cinv[i] == ci_k[qi]
        # (R^-1)_{rho_bar, rho} = -D_{rho_bar,kappa} D_{rho,kappa}^-1
        d_rk_inv = invert_mod(d_rk, p)
        d_rbk = [[dd[i][j] for j in kappa] for i in rho_bar]
        ri_bb = mat_mul(d_rbk, d_rk_inv, p)
        for qi, i in enumerate(rho_bar):
            for qj, j in enumerate(rho):
                assert rinv[i][j] == (-ri_bb[qi][qj]) % p
        # R_{all, rho} = D_{all, kappa} A^-1
        d_ak = [[dd[i][j] for j in kappa] for i in range(m)]
        r_ar = mat_mul(d_ak, a_inv, p)
        for i in range(m):
            for qj, j in enumerate(rho):
                assert r_mat[i][j] == r_ar[i][qj]


@pytest.mark.parametrize("p", [2, 7])
def test_expanded_identities(p):
    rnd = random.Random(17 + p)
    for _ in range(8):
        m, n = rnd.randint(2, 7), rnd.randint(2, 7)
        d = random_stored(rnd, p, m, n)
        u = decompose_compressed(d)
        truth = dense_ground_truth(d)
        dd = d.to_dense()
        rid = mat_mul(truth["Rinv"], dd, p)
        # zero rows of R^-1 D exactly at unmatched row indices
        for i in range(m):
            is_zero = all(v == 0 for v in rid[i])
            assert is_zero == (i not in u.rho_pos)
        # pivot rows equal rbar * D_{rho, all}
        rbar = u.rbar.to_dense()
        block = mat_mul(rbar, [dd[i] for i in u.rho], p)
        for q, i in enumerate(u.rho):
            assert rid[i] == block[q]
        dc = mat_mul(dd, truth["C"], p)
        for j in range(n):
            is_zero = all(dc[i][j] == 0 for i in range(m))
            assert is_zero == (j not in u.kappa_pos)


def test_pivot_block_product_is_permuted_triangular():
    rnd = random.Random(8)
    d = random_stored(rnd, 7, 8, 8, density=0.5)
    u = decompose_compressed(d)
    a = PivotBlockProduct(u)
    k = u.rank
    dense = a.to_dense()
    # after permuting rows by the matched-column order the block is upper
    # triangular with the matching coefficients on the diagonal
    for pcol in range(k):
        for q in range(k):
            row = u.pi[q]
            if q > pcol:
                assert dense[row][pcol] == 0 or q <= pcol
    for pcol in range(k):
        assert dense[u.pi[pcol]][pcol] == u.m_diag[pcol]


def test_round_trip_r_times_rinv():
    rnd = random.Random(14)
    for p in (2, 7):
        d = random_stored(rnd, p, 6, 6)
        truth = dense_ground_truth(d)
        assert mat_mul(truth["R"], truth["Rinv"], p) == identity(6)
        assert mat_mul(truth["C"], truth["Cinv"], p) == identity(6)


def test_retrieval_cost_stays_within_matvec_scale():
    # coarse regression: scalar work per retrieval is bounded by a small
    # multiple of the dense product size, the promised reconstruction scale
    rnd = random.Random(71)
    from umatch.retrieve import retrieve_with_stats

    for p in (2, 7):
        for _ in range(6):
            m, n = rnd.randint(2, 10), rnd.randint(2, 12)
            d = random_stored(rnd, p, m, n)
            u = decompose_compressed(d)
            bound = 4 * (m * n + m + n + 1)
            for which, k in (("R", m), ("Rinv", m), ("C", n), ("Cinv", n)):
                for axis in ("row", "col"):
                    for i in range(k):
                        _, stats = retrieve_with_stats(u, RetrievalTarget(which, axis, i))
                        assert stats.axpy_entries <= bound, (which, axis, i)


# -- the memo of lines of A ----------------------------------------------


def _all_targets(d):
    return [RetrievalTarget(which, axis, i)
            for which in ("R", "Rinv", "C", "Cinv") for axis in ("row", "col")
            for i in range(d.nrows if which in ("R", "Rinv") else d.ncols)]


def _cold(u):
    """The same decomposition with an empty memo."""
    return CompressedUmatch(u.d, u.matching, u.rbar)


def _memo_within_bound(u):
    memo = u._a_memo
    return memo.held == sum(v.nnz for v in memo.lines.values()) <= u.rbar.nnz


def _check_memo_reuse(d, seed):
    """Every row and column of every factor, cold and then twice through one
    memo (in order, then shuffled), equals the cold result and the dense
    factors; the memo stays within rbar.nnz and serves lines once warm."""
    truth = dense_ground_truth(d)
    targets = _all_targets(d)
    u = decompose_compressed(d)
    cold = {}
    for t in targets:
        vec, counter = retrieve_with_stats(_cold(u), t)
        assert counter.a_memo_hits == 0
        cold[t] = (vec, counter.solves)
    shuffled = list(targets)
    random.Random(seed).shuffle(shuffled)
    for order in (targets, shuffled):
        built = hits = 0
        for t in order:
            vec, counter = retrieve_with_stats(u, t)
            assert (vec, counter.solves) == cold[t]
            k = d.nrows if t.which in ("R", "Rinv") else d.ncols
            mat = truth[t.which]
            want = mat[t.index] if t.axis == "row" else [mat[r][t.index] for r in range(k)]
            assert vec.to_dense(k) == want
            built += counter.a_lines_built
            hits += counter.a_memo_hits
            assert _memo_within_bound(u)
        # A's lines hold at most rank <= rbar.nnz entries, so the first
        # line built is always kept and a later pass finds it
        if order is shuffled and built + hits:
            assert hits
    return u


def _check_solves_cold_and_warm(u, rnd):
    """Solves and early stops on the warm u equal those with a cold memo."""
    f, d = u.field, u.d
    for _ in range(4):
        b = SparseVector.from_dict(f, {i: rnd.randrange(f.p) for i in range(d.nrows)
                                       if rnd.random() < 0.4})
        c = SparseVector.from_dict(f, {j: rnd.randrange(f.p) for j in range(d.ncols)
                                       if rnd.random() < 0.4})
        assert solve_dx_b(_cold(u), b) == solve_dx_b(u, b)
        assert solve_yd_c(_cold(u), c) == solve_yd_c(u, c)
    for j in u.kappa:
        assert early_stop_solve(_cold(u), j) == early_stop_solve(u, j)
    assert _memo_within_bound(u)


def _retrieve_concurrently(u, truth):
    """Four threads retrieve every column of R, R^-1, C and C^-1 twenty
    times each with a short switch interval; returns what went wrong."""
    import threading

    errors = []

    def worker(which, k):
        try:
            for _ in range(20):
                for i in range(k):
                    got = retrieve(u, RetrievalTarget(which, "col", i))
                    want = [truth[which][t][i] for t in range(k)]
                    if got.to_dense(k) != want:
                        errors.append((which, i))
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(w, u.d.nrows if w in ("R", "Rinv") else u.d.ncols))
        for w in ("R", "Rinv", "C", "Cinv")
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert _memo_within_bound(u)
    return errors


def test_concurrent_retrieval_is_consistent():
    rnd = random.Random(19)
    d = random_stored(rnd, 7, 8, 9)
    u = decompose_compressed(d)
    assert not _retrieve_concurrently(u, dense_ground_truth(d))


def test_concurrent_retrieval_on_a_warm_memo_is_consistent():
    rnd = random.Random(19)
    d = random_stored(rnd, 7, 8, 9)
    u = decompose_compressed(d)
    for t in _all_targets(d):
        retrieve(u, t)
    assert u._a_memo.lines
    assert not _retrieve_concurrently(u, dense_ground_truth(d))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 7]), st.integers(1, 9), st.integers(1, 9),
       st.floats(0.2, 0.8), st.integers(0, 2 ** 32))
def test_memo_reuse_on_random_stored_matrices(p, m, n, density, seed):
    rnd = random.Random(seed)
    d = random_stored(rnd, p, m, n, density=density)
    _check_solves_cold_and_warm(_check_memo_reuse(d, seed), rnd)


@settings(max_examples=100, deadline=None)
@given(clique_inputs(), st.integers(0, 2 ** 32))
def test_memo_reuse_on_clique_boundaries(case, seed):
    dist, max_dim, threshold, p = case
    cx = FilteredCliqueComplex(dist, max_dim, threshold)
    rnd = random.Random(seed)
    for n in range(1, max_dim + 1):
        d = boundary_oracle(cx, n, GF(p))
        if d.nrows and d.ncols:
            _check_solves_cold_and_warm(_check_memo_reuse(d, seed), rnd)


def test_memo_is_shared_by_every_solve_on_a_decomposition():
    rnd = random.Random(23)
    d = random_stored(rnd, 7, 12, 12, density=0.4)
    u = decompose_compressed(d)
    for j in u.kappa:
        early_stop_solve(u, j)
    held = dict(u._a_memo.lines)
    assert held and _memo_within_bound(u)
    # a retrieval that needs a column the solves built reads it from the memo
    key = next(k for k in held if k[0] == "col")
    j = u.kappa[key[1]]
    _, counter = retrieve_with_stats(u, RetrievalTarget("C", "col", j))
    assert counter.a_memo_hits and counter.solves == 1
