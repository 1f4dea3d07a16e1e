"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its time budget."""

import random
import statistics
import time

import numpy as np

from umatch import (
    GF,
    DecomposeOptions,
    RetrievalTarget,
    SparseVector,
    StoredCsMatrix,
    antitranspose_view,
    boundary_oracle,
    column_validity_check,
    decompose_compressed,
    decompose_full,
    rdv_bridge,
    retrieve,
    solve_count_audit,
    solve_dx_b,
    solve_yd_c,
    to_echelon,
    to_lu,
)
from umatch.complexes import FilteredCliqueComplex, FilteredCubicalComplex
from umatch.datasets import circle_complex, er_complex, torus_complex
from umatch.decompose import clearing_filter
from umatch.linalg import RdvDecomposition, _invert_unitriangular
from umatch.matrix import matvec, vecmat
from umatch.persistence import PersistenceEngine
from umatch.sparsify import early_stop_solve

from conftest import random_stored
from oracles import (
    all_solutions_gf2,
    betti_numbers,
    dense_boundary,
    invert_mod,
    is_rref_up_to_permutation_and_scale,
    mat_mul,
    mat_vec,
    matching_rank_oracle,
    rank_mod,
    standard_rdv,
    vec_mat,
)


class budget:
    """Times a criterion body and prints one pass/fail line."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.name} ({elapsed:.3f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its time budget: {elapsed:.3f}s"
            )
        return False


def fixtures():
    rng = np.random.default_rng(11)
    return [
        ("three-point", FilteredCliqueComplex(np.ones((3, 3)) - np.eye(3), 2, 1.5)),
        ("circle-20", circle_complex(20)),
        ("torus-sample", torus_complex(10, seed=7)),
        ("image-8x8", FilteredCubicalComplex(rng.random((8, 8)))),
    ]


def test_criterion_example_reproduction():
    f = GF(7)
    d = StoredCsMatrix.from_dense(f, [[3, 1], [3, 1]])  # -6 = 1 mod 7
    with budget("example-1 exact reproduction", 0.001):
        full = decompose_full(d)
        comp = decompose_compressed(d)
    assert full.matching.pairs == ((1, 0, 3),)
    assert comp.matching.pairs == ((1, 0, 3),)
    r = _invert_unitriangular(full.rinv).to_dense()
    c = _invert_unitriangular(full.cinv).to_dense()
    assert r == [[1, 1], [0, 1]]
    assert c == [[1, 2], [0, 1]]


def test_criterion_matching_uniqueness():
    with budget("matching uniqueness across four routes", 10.0):
        rnd = random.Random(1)
        checked = 0
        while checked < 200:
            p = rnd.choice([2, 7])
            m, n = rnd.randint(1, 12), rnd.randint(1, 16)
            d = random_stored(rnd, p, m, n, density=rnd.uniform(0.15, 0.6))
            support = decompose_full(d).matching.support()
            assert decompose_compressed(d).matching.support() == support
            at = decompose_compressed(antitranspose_view(d)).matching.support()
            assert {(m - 1 - c2, n - 1 - r2) for (r2, c2) in at} == support
            assert matching_rank_oracle(d) == support
            checked += 1


def test_criterion_defining_identity_and_inner_identities():
    with budget("defining identity, proper axioms, inner identities", 10.0):
        rnd = random.Random(2)
        for _ in range(40):
            p = rnd.choice([2, 7])
            m, n = rnd.randint(1, 9), rnd.randint(1, 9)
            d = random_stored(rnd, p, m, n)
            full = decompose_full(d)
            u = decompose_compressed(d)
            r = _invert_unitriangular(full.rinv).to_dense()
            c = _invert_unitriangular(full.cinv).to_dense()
            mm = full.matching.to_oracle(d.field).to_dense()
            dd = d.to_dense()
            assert mat_mul(r, mm, p) == mat_mul(dd, c, p)
            for k in full.matching.kappa_bar:
                assert c[k] == [1 if j == k else 0 for j in range(n)]
            for k in full.matching.rho_bar:
                assert [r[i][k] for i in range(m)] == [
                    1 if i == k else 0 for i in range(m)
                ]
            match = u.matching
            if match.rank == 0:
                continue
            rho, kappa = match.rho, match.kappa
            rho_bar, kappa_bar = match.rho_bar, match.kappa_bar
            k = match.rank
            rbar = u.rbar.to_dense()
            d_rk = [[dd[i][j] for j in kappa] for i in rho]
            a = mat_mul(rbar, d_rk, p)
            a_inv = invert_mod(a, p)
            m_rk = [[0] * k for _ in range(k)]
            for pc in range(k):
                m_rk[u.pi[pc]][pc] = u.m_diag[pc]
            cinv = full.cinv.to_dense()
            rinv = full.rinv.to_dense()
            c_kk = mat_mul(a_inv, m_rk, p)
            for qi, i in enumerate(kappa):
                for qj, j in enumerate(kappa):
                    assert c[i][j] == c_kk[qi][qj]
            d_rkb = [[dd[i][j] for j in kappa_bar] for i in rho]
            c_kkb = mat_mul(a_inv, mat_mul(rbar, d_rkb, p), p)
            for qi, i in enumerate(kappa):
                for qj, j in enumerate(kappa_bar):
                    assert c[i][j] == (-c_kkb[qi][qj]) % p
            ci_k = mat_mul(invert_mod(m_rk, p), mat_mul(rbar, [dd[i] for i in rho], p), p)
            for qi, i in enumerate(kappa):
                assert cinv[i] == ci_k[qi]
            d_rbk = [[dd[i][j] for j in kappa] for i in rho_bar]
            ri_bb = mat_mul(d_rbk, invert_mod(d_rk, p), p)
            for qi, i in enumerate(rho_bar):
                for qj, j in enumerate(rho):
                    assert rinv[i][j] == (-ri_bb[qi][qj]) % p
            r_ar = mat_mul([[dd[i][j] for j in kappa] for i in range(m)], a_inv, p)
            for i in range(m):
                for qj, j in enumerate(rho):
                    assert r[i][j] == r_ar[i][qj]


def test_criterion_table_retrieval():
    with budget("lazy retrieval equals dense factors, <= 1 solve", 10.0):
        rnd = random.Random(3)
        for _ in range(20):
            p = rnd.choice([2, 7])
            m, n = rnd.randint(1, 12), rnd.randint(1, 15)
            d = random_stored(rnd, p, m, n)
            u = decompose_compressed(d)
            full = decompose_full(d)
            truth = {
                "R": _invert_unitriangular(full.rinv).to_dense(),
                "Rinv": full.rinv.to_dense(),
                "C": _invert_unitriangular(full.cinv).to_dense(),
                "Cinv": full.cinv.to_dense(),
            }
            sizes = {"R": m, "Rinv": m, "C": n, "Cinv": n}
            for which, mat in truth.items():
                kdim = sizes[which]
                for i in range(kdim):
                    for axis in ("row", "col"):
                        t = RetrievalTarget(which, axis, i)
                        got = retrieve(u, t)
                        want = mat[i] if axis == "row" else [mat[q][i] for q in range(kdim)]
                        assert got.to_dense(kdim) == want
                        solves = solve_count_audit(u, t)
                        assert solves <= 1
                        if which == "Cinv":
                            assert solves == 0
                        if which == "Rinv" and axis == "row" and i in u.rho_pos:
                            assert solves == 0
                        if which == "C" and axis == "row" and i not in u.kappa_pos:
                            assert solves == 0  # unit-vector cell
                        if which in ("R", "Rinv") and axis == "col" and i not in u.rho_pos:
                            assert solves == 0  # unit-vector cell


def test_criterion_solver_extremality():
    with budget("minimal/maximal support solutions (exhaustive GF(2))", 30.0):
        rnd = random.Random(4)
        f = GF(2)
        checked = 0
        while checked < 40:
            m, n = rnd.randint(1, 6), rnd.randint(1, 12)
            d = random_stored(rnd, 2, m, n, density=0.4)
            dd = d.to_dense()
            if n - rank_mod(dd, 2) > 12:
                continue
            u = decompose_compressed(d)
            x0 = [rnd.randrange(2) for _ in range(n)]
            b_dense = mat_vec(dd, x0, 2)
            b = SparseVector.from_pairs(f, [(i, v) for i, v in enumerate(b_dense) if v])
            x = solve_dx_b(u, b)
            assert matvec(u.d, x) == b
            sols = all_solutions_gf2(dd, b_dense)

            def max_supp(vec):
                nz = [i for i, v in enumerate(vec) if v]
                return max(nz) if nz else -1

            assert max_supp(x.to_dense(n)) == min(max_supp(s) for s in sols)

            y0 = [rnd.randrange(2) for _ in range(m)]
            c_dense = vec_mat(y0, dd, 2)
            c = SparseVector.from_pairs(f, [(j, v) for j, v in enumerate(c_dense) if v])
            y = solve_yd_c(u, c)
            assert vecmat(y, u.d) == c
            dt = [[dd[i][j] for i in range(m)] for j in range(n)]
            dual = all_solutions_gf2(dt, c_dense)

            def min_supp(vec):
                nz = [i for i, v in enumerate(vec) if v]
                return min(nz) if nz else len(vec)

            assert min_supp(y.to_dense(m)) == max(min_supp(s) for s in dual)
            checked += 1


def test_criterion_barcode_correctness():
    with budget("barcodes equal rank-homology oracle on all fixtures", 60.0):
        for name, cx in fixtures():
            max_dim = min(cx.max_dim, 2)
            engine = PersistenceEngine(cx, GF(2))
            values = sorted(
                {b for n in range(max_dim + 1) for b in cx.order(n).births}
            )
            for t in values:
                bettis = betti_numbers(cx, 2, t, max_dim)
                for n in range(max_dim):
                    got = sum(
                        1 for b in engine.bars(n)
                        if b.birth_value <= t < b.death_value
                    )
                    assert got == bettis[n], (name, n, t)


def test_criterion_generator_validity():
    with budget("representatives born and bounded at their endpoints", 60.0):
        for name, cx in fixtures():
            if name == "circle-20":
                cx = circle_complex(14)  # same structure, lighter rank checks
            engine = PersistenceEngine(cx, GF(2))
            for n in range(min(cx.max_dim, 2)):
                d_up = (
                    dense_boundary(cx, n + 1, 2)
                    if len(cx.order(n + 1)) else []
                )
                d_here = dense_boundary(cx, n, 2) if n >= 1 else None
                cols_all = (
                    [[row[j] for j in range(len(d_up[0]))] for row in d_up]
                    if d_up else []
                )
                for bar in engine.bars(n):
                    ch = engine.cycle_representative(bar)
                    vec = ch.vector.to_dense(len(engine.order(n)))
                    if d_here is not None:
                        assert all(v == 0 for v in mat_vec(d_here, vec, 2))
                    assert ch.vector.trailing()[0] == bar.birth_pos
                    if bar.finite:
                        upto = [
                            [row[j] for j in range(bar.death_pos + 1)]
                            for row in d_up
                        ]
                        before = [
                            [row[j] for j in range(bar.death_pos)] for row in d_up
                        ]
                        cols = [[r[j] for r in upto] for j in range(bar.death_pos + 1)]
                        assert rank_mod(cols + [vec], 2) == rank_mod(cols, 2)
                        colsb = [[r[j] for r in before] for j in range(bar.death_pos)]
                        assert rank_mod(colsb + [vec], 2) == rank_mod(colsb, 2) + 1
                    else:
                        if d_up:
                            cols = [
                                [r[j] for r in d_up] for j in range(len(d_up[0]))
                            ]
                            assert rank_mod(cols + [vec], 2) == rank_mod(cols, 2) + 1


def test_criterion_optimization_neutrality():
    with budget("clearing/pareto/early-stop leave results unchanged", 60.0):
        for name, cx in fixtures():
            if name == "image-8x8":
                rng = np.random.default_rng(11)
                cx = FilteredCubicalComplex(rng.random((6, 6)))
            base = PersistenceEngine(cx, GF(2))
            # the engine clears and probes for apparent pairs as each oracle
            # decides; the full decomposition does neither
            for n in range(1, min(cx.max_dim, 2) + 1):
                assert base.matching(n) == decompose_full(base.boundary(n)).matching
            for n in range(min(cx.max_dim, 2)):
                for bar in base.bars(n):
                    ch = base.cycle_representative(bar, strategy="early_stop")
                    d_here = dense_boundary(cx, n, 2) if n >= 1 else None
                    vec = ch.vector.to_dense(len(base.order(n)))
                    if d_here is not None:
                        assert all(v == 0 for v in mat_vec(d_here, vec, 2))
                    assert ch.vector.trailing()[0] == bar.birth_pos
                    if bar.finite:
                        u = base.umatch(n + 1)
                        col = base.matching(n + 1).col(bar.birth_pos)
                        assert column_validity_check(u, col, early_stop_solve(u, col))


def test_criterion_compression_trend():
    with budget("pivot block is consistently sparser than the full inverse", 120.0):
        wins = 0
        ratios = []
        f = GF(2)
        for seed in range(20):
            cx = er_complex(25, seed=seed)
            d1 = boundary_oracle(cx, 1, f)
            d2 = boundary_oracle(cx, 2, f)
            full = decompose_full(d2)
            u1 = decompose_compressed(d1)
            comp = decompose_compressed(
                d2, DecomposeOptions(clear_rows=clearing_filter(u1.matching))
            )
            nnz_full = full.rinv.nnz_offdiag()
            nnz_comp = comp.rbar.nnz_offdiag()
            if nnz_comp < nnz_full:
                wins += 1
            ratios.append(nnz_comp / max(1, nnz_full))
        assert wins >= 19, f"compression won only {wins}/20 trials"
        assert statistics.median(ratios) < 0.5, ratios


def test_criterion_total_matching_nilpotency():
    with budget("def and val of the total matching are disjoint", 30.0):
        for name, cx in fixtures():
            engine = PersistenceEngine(cx, GF(2))
            pairs = engine.total_matching()
            defs = {r for r, _ in pairs}
            vals = {c for _, c in pairs}
            assert not (defs & vals), name


def test_criterion_factorization_bridges():
    with budget("LU, echelon, and right-reduction bridges", 10.0):
        rnd = random.Random(6)
        for _ in range(15):
            p = rnd.choice([2, 7])
            m, n = rnd.randint(2, 7), rnd.randint(2, 7)
            d = random_stored(rnd, p, m, n)
            u = decompose_compressed(d)
            k = u.rank
            if k:
                l, pm, nm, um = to_lu(u)
                ld, pd, nd, ud = (x.to_dense() for x in (l, pm, nm, um))
                assert mat_mul(ld, pd, p) == mat_mul(nd, ud, p)
                for i in range(k):
                    assert ld[i][i] == 1 and all(ld[i][j] == 0 for j in range(i + 1, k))
                    assert ud[i][i] == 1 and all(ud[i][j] == 0 for j in range(i))
                assert all(sum(1 for v in row if v) == 1 for row in pd)
            rows = to_echelon(u, "row").to_dense()
            assert is_rref_up_to_permutation_and_scale(rows, p)
            red, v, lows = standard_rdv(d.to_dense(), p)
            rdv = RdvDecomposition(
                StoredCsMatrix.from_dense(d.field, red),
                StoredCsMatrix.from_dense(d.field, v),
                lows,
                d=d,
            )
            full = rdv_bridge(rdv)
            assert _invert_unitriangular(full.cinv).to_dense() == v
            back = rdv_bridge(full)
            assert back.v.to_dense() == v
            assert back.reduced.to_dense() == red
