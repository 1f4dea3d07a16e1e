import random
import tracemalloc

import pytest

from umatch import (
    GF,
    NO_SOLUTION,
    SparseVector,
    StoredCsMatrix,
    UsageError,
    boundary_oracle,
    decompose_compressed,
    decompose_full,
    kernel_coords,
    rdv_bridge,
    solve_dx_b,
    solve_yd_c,
    subspace_basis,
    to_echelon,
    to_lu,
)
from umatch.linalg import (
    CodomainStep,
    DomainStep,
    ImageStep,
    Join,
    Meet,
    PreimageStep,
    RdvDecomposition,
    _Product,
    _invert_unitriangular,
    image_space,
    kernel_space,
)
from umatch.datasets import er_complex
from umatch.matrix import matvec, vecmat

from conftest import random_stored
from oracles import (
    all_solutions_gf2,
    identity,
    is_rref_up_to_permutation_and_scale,
    mat_mul,
    mat_vec,
    rank_mod,
    standard_rdv,
    vec_mat,
)


def eq6(f):
    return StoredCsMatrix.from_dense(f, [[3, 1], [3, 1]])


def test_solve_dx_b_worked_example():
    f = GF(7)
    u = decompose_compressed(eq6(f))
    b = SparseVector.from_pairs(f, [(0, 3), (1, 3)])
    x = solve_dx_b(u, b)
    assert x.to_dense(2) == [1, 0]
    assert solve_dx_b(u, SparseVector.zero(f)) == SparseVector.zero(f)
    # (1, 0) is outside the column space: columns are multiples of (1, 1)
    assert solve_dx_b(u, SparseVector.unit(f, 0)) is NO_SOLUTION


def test_solve_yd_c_worked_example():
    f = GF(7)
    u = decompose_compressed(eq6(f))
    c = SparseVector.from_pairs(f, [(0, 3), (1, 1)])
    y = solve_yd_c(u, c)
    assert y is not NO_SOLUTION
    assert vecmat(y, u.d) == c
    assert solve_yd_c(u, SparseVector.zero(f)) == SparseVector.zero(f)


def test_solver_extremality_exhaustive_gf2():
    rnd = random.Random(123)
    f = GF(2)
    for _ in range(30):
        m, n = rnd.randint(1, 5), rnd.randint(1, 6)
        d = random_stored(rnd, 2, m, n, density=0.5)
        u = decompose_compressed(d)
        dd = d.to_dense()
        x0 = [rnd.randrange(2) for _ in range(n)]
        b_dense = mat_vec(dd, x0, 2)
        b = SparseVector.from_pairs(f, [(i, v) for i, v in enumerate(b_dense) if v])
        x = solve_dx_b(u, b)
        assert x is not NO_SOLUTION
        assert matvec(u.d, x) == b
        sols = all_solutions_gf2(dd, b_dense)
        assert sols

        def max_supp(vec):
            nz = [i for i, v in enumerate(vec) if v]
            return max(nz) if nz else -1

        got = max_supp(x.to_dense(n))
        assert got == min(max_supp(s) for s in sols)
        # dual problem on the transpose data
        y0 = [rnd.randrange(2) for _ in range(m)]
        c_dense = vec_mat(y0, dd, 2)
        c = SparseVector.from_pairs(f, [(j, v) for j, v in enumerate(c_dense) if v])
        y = solve_yd_c(u, c)
        assert y is not NO_SOLUTION
        assert vecmat(y, u.d) == c
        dt = [[dd[i][j] for i in range(m)] for j in range(n)]
        dual_sols = all_solutions_gf2(dt, c_dense)

        def min_supp(vec):
            nz = [i for i, v in enumerate(vec) if v]
            return min(nz) if nz else len(vec)

        got = min_supp(y.to_dense(m))
        assert got == max(min_supp(s) for s in dual_sols)


def test_kernel_coords_worked_example():
    f = GF(7)
    u = decompose_compressed(eq6(f))
    b = SparseVector.from_pairs(f, [(0, 2), (1, 1)])
    assert kernel_coords(u, b, side="right").to_dense(2) == [0, 1]
    assert kernel_coords(u, SparseVector.zero(f)) == SparseVector.zero(f)
    with pytest.raises(UsageError):
        kernel_coords(u, SparseVector.unit(f, 0), side="right")


def test_solve_dx_b_rejects_a_right_hand_side_over_another_field():
    u = decompose_compressed(eq6(GF(7)))
    # b = (1, 1) lies in the column space over GF(7); over GF(2) it is a
    # usage error, not an inconsistent system
    assert solve_dx_b(u, SparseVector.from_pairs(GF(7), [(0, 1), (1, 1)])) is not NO_SOLUTION
    with pytest.raises(UsageError):
        solve_dx_b(u, SparseVector.from_pairs(GF(2), [(0, 1), (1, 1)]))


def test_solve_yd_c_rejects_a_right_hand_side_over_another_field():
    u = decompose_compressed(eq6(GF(7)))
    # c = (3, 1) is the first row of D over GF(7)
    assert solve_yd_c(u, SparseVector.from_pairs(GF(7), [(0, 3), (1, 1)])) is not NO_SOLUTION
    with pytest.raises(UsageError):
        solve_yd_c(u, SparseVector.from_pairs(GF(2), [(0, 1), (1, 1)]))


def test_kernel_coords_matches_dense_inverse():
    rnd = random.Random(55)
    for p in (2, 7):
        f = GF(p)
        for _ in range(10):
            m, n = rnd.randint(2, 6), rnd.randint(2, 7)
            d = random_stored(rnd, p, m, n)
            u = decompose_compressed(d)
            full = decompose_full(d)
            cinv = full.cinv.to_dense()
            # build kernel vectors from unmatched columns of C
            c = _invert_unitriangular(full.cinv).to_dense()
            for k in u.matching.kappa_bar:
                coeff = rnd.randrange(1, p)
                vec = [(coeff * c[i][k]) % p for i in range(n)]
                b = SparseVector.from_pairs(f, [(i, v) for i, v in enumerate(vec) if v])
                got = kernel_coords(u, b, side="right")
                want = mat_vec(cinv, vec, p)
                assert got.to_dense(n) == want
            # left kernels via unmatched rows of R^-1
            rinv = full.rinv.to_dense()
            for k in u.matching.rho_bar:
                vec = rinv[k]
                b = SparseVector.from_pairs(f, [(i, v) for i, v in enumerate(vec) if v])
                got = kernel_coords(u, b, side="left")
                want = vec_mat(vec, _invert_unitriangular(full.rinv).to_dense(), p)
                assert got.to_dense(m) == want


def test_subspace_basis_kernel_and_image_worked_example():
    f = GF(7)
    u = decompose_compressed(eq6(f))
    ker = subspace_basis(u, kernel_space())
    assert ker.factor == "C" and ker.generators == (1,)
    [gen] = ker.materialize(u)
    assert gen.to_dense(2) == [2, 1]
    img = subspace_basis(u, image_space(u))
    assert img.factor == "R" and img.generators == (1,)
    [gen] = img.materialize(u)
    assert gen.to_dense(2) == [1, 1]


def test_subspace_basis_against_dense_rank():
    rnd = random.Random(202)
    p = 7
    f = GF(p)
    for _ in range(8):
        m, n = rnd.randint(2, 6), rnd.randint(2, 6)
        d = random_stored(rnd, p, m, n)
        u = decompose_compressed(d)
        dd = d.to_dense()
        for q in range(n + 1):
            fq = subspace_basis(u, DomainStep(q))
            assert fq.dimension == q
            for pp in range(m + 1):
                pre = subspace_basis(u, PreimageStep(pp))
                # dimension of the preimage of G_p: n - rank(D) + rank(D restricted
                # to rows below p is removed) -> check by brute span instead
                vecs = [v.to_dense(n) for v in pre.materialize(u)]
                assert rank_mod(vecs, p) == len(vecs) if vecs else True
                for v in vecs:
                    img = mat_vec(dd, v, p)
                    assert all(img[i] == 0 for i in range(pp, m))
                # dimension check: nullity + matched rows below p
                want = (n - u.rank) + sum(1 for r in u.rho if r < pp)
                assert pre.dimension == want
                # meet with F_q drops generators supported outside [q]
                both = subspace_basis(u, Meet(DomainStep(q), PreimageStep(pp)))
                assert set(both.generators) == {
                    g for g in pre.generators if g < q
                }
        for pp in range(n + 1):
            img = subspace_basis(u, ImageStep(pp))
            vecs = [v.to_dense(m) for v in img.materialize(u)]
            cols = [[dd[i][j] for j in range(pp)] for i in range(m)]
            want_dim = rank_mod(cols, p) if pp else 0
            assert img.dimension == want_dim
            if vecs:
                assert rank_mod(vecs, p) == len(vecs)
                # each generator lies in the span of the first pp columns
                span = [[dd[i][j] for i in range(m)] for j in range(pp)]
                for v in vecs:
                    assert rank_mod(span + [v], p) == rank_mod(span, p)
        g_half = subspace_basis(u, CodomainStep(m // 2))
        assert g_half.dimension == m // 2
        joined = subspace_basis(u, Join(CodomainStep(m // 2), ImageStep(n)))
        assert set(joined.generators) == set(g_half.generators) | set(
            subspace_basis(u, ImageStep(n)).generators
        )


def test_subspace_basis_rejects_mixed_sides():
    u = decompose_compressed(eq6(GF(7)))
    with pytest.raises(UsageError):
        subspace_basis(u, Meet(DomainStep(1), CodomainStep(1)))


def test_to_lu_worked_example_and_random():
    f = GF(7)
    u = decompose_compressed(eq6(f))
    l, pm, nm, um = to_lu(u)
    assert l.to_dense() == [[1]]
    assert pm.to_dense() == [[3]]
    assert nm.to_dense() == [[3]]
    assert um.to_dense() == [[1]]

    # identity input: triangular factors are identities, and the exchange
    # conjugation leaves the matching and pivot blocks row-reversed
    eye = StoredCsMatrix.identity(f, 3)
    l, pm, nm, um = to_lu(decompose_compressed(eye))
    exchange = [[1 if i + j == 2 else 0 for j in range(3)] for i in range(3)]
    assert l.to_dense() == um.to_dense() == identity(3)
    assert pm.to_dense() == nm.to_dense() == exchange

    rnd = random.Random(44)
    for p in (2, 7):
        for _ in range(8):
            d = random_stored(rnd, p, rnd.randint(2, 6), rnd.randint(2, 6))
            u = decompose_compressed(d)
            k = u.rank
            if k == 0:
                continue
            l, pm, nm, um = to_lu(u)
            ld, pd, nd, ud = (x.to_dense() for x in (l, pm, nm, um))
            assert mat_mul(ld, pd, p) == mat_mul(nd, ud, p)
            for i in range(k):
                assert ld[i][i] == 1
                assert all(ld[i][j] == 0 for j in range(i + 1, k))
                assert ud[i][i] == 1
                assert all(ud[i][j] == 0 for j in range(i))
            # generalized permutation: one nonzero per row and column
            assert all(sum(1 for v in row if v) == 1 for row in pd)
            for j in range(k):
                assert sum(1 for i in range(k) if pd[i][j]) == 1


def test_to_lu_is_sparse_at_rank_406():
    # dense k x k copies of the pivot blocks would peak near 13 MiB here
    u = decompose_compressed(boundary_oracle(er_complex(30, seed=0), 2, GF(7)))
    k = u.rank
    assert k == 406
    tracemalloc.start()
    try:
        l, pm, nm, um = to_lu(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20, peak
    lp, nu = _Product(l, pm), _Product(nm, um)
    assert [lp.row(i) for i in range(k)] == [nu.row(i) for i in range(k)]
    for i in range(k):
        assert l.row(i).trailing() == (i, 1)
        assert um.row(i).leading() == (i, 1)


def test_to_echelon_row_form():
    f = GF(7)
    u = decompose_compressed(eq6(f))
    ech = to_echelon(u, "row")
    rows = ech.to_dense()
    # normalize leading entries for comparison with the hand reduction
    lead = rows[1][0]
    inv = f.inv(lead)
    assert [(v * inv) % 7 for v in rows[1]] == [1, 5]
    assert rows[0] == [0, 0]

    eye = StoredCsMatrix.identity(f, 3)
    assert to_echelon(decompose_compressed(eye), "row").to_dense() == identity(3)

    rnd = random.Random(99)
    for p in (2, 7):
        for _ in range(8):
            d = random_stored(rnd, p, rnd.randint(1, 6), rnd.randint(1, 6))
            u = decompose_compressed(d)
            ech = to_echelon(u, "row")
            rows = ech.to_dense()
            assert is_rref_up_to_permutation_and_scale(rows, p)
            for i in u.matching.rho_bar:
                assert all(v == 0 for v in rows[i])
            # row and column access agree
            for j in range(d.ncols):
                assert ech.col(j).to_dense(d.nrows) == [rows[i][j] for i in range(d.nrows)]
            # same row space as d
            dd = d.to_dense()
            assert rank_mod(dd + rows, p) == rank_mod(dd, p) == rank_mod(rows, p)


def test_to_echelon_column_form():
    rnd = random.Random(98)
    for p in (2, 7):
        for _ in range(6):
            d = random_stored(rnd, p, rnd.randint(1, 6), rnd.randint(1, 6))
            u = decompose_compressed(d)
            ech = to_echelon(u, "column")
            cols = [ech.col(j).to_dense(d.nrows) for j in range(d.ncols)]
            # distinct lowest nonzero rows across nonzero columns
            lows = {}
            for j, col in enumerate(cols):
                nz = [i for i, v in enumerate(col) if v]
                if nz:
                    assert nz[-1] not in lows
                    lows[nz[-1]] = j
            for j in u.matching.kappa_bar:
                assert all(v == 0 for v in cols[j])
            # row accessor consistency
            dense = ech.to_dense()
            for i in range(d.nrows):
                assert ech.row(i).to_dense(d.ncols) == dense[i]
            # row and column access agree
            for j in range(d.ncols):
                assert cols[j] == [dense[i][j] for i in range(d.nrows)]
            # same column space as d
            dd = d.to_dense()
            dt = [[dd[i][j] for i in range(d.nrows)] for j in range(d.ncols)]
            ct = [[dense[i][j] for i in range(d.nrows)] for j in range(d.ncols)]
            assert rank_mod(dt + ct, p) == rank_mod(dt, p)


def test_rdv_bridge_worked_example():
    f = GF(7)
    u = decompose_compressed(eq6(f))
    rdv = rdv_bridge(u)
    # R @ M = D @ C = [[3, 0], [3, 0]]: the matched column of C maps to three
    # times the matched column of R, and the unmatched column maps to zero
    assert rdv.reduced.to_dense() == [[3, 0], [3, 0]]
    assert rdv.low == {0: 1}
    # diagonal matrix: reduced equals the matrix itself, v is the identity
    diag = StoredCsMatrix.from_dense(f, [[2, 0], [0, 5]])
    rdv2 = rdv_bridge(decompose_compressed(diag))
    assert rdv2.reduced.to_dense() == diag.to_dense()
    assert rdv2.v.to_dense() == identity(2)


def test_rdv_round_trip_reproduces_v():
    rnd = random.Random(321)
    for p in (2, 7):
        f = GF(p)
        for _ in range(10):
            m, n = rnd.randint(1, 6), rnd.randint(1, 6)
            d = random_stored(rnd, p, m, n)
            red, v, lows = standard_rdv(d.to_dense(), p)
            # without d, the bridge rebuilds D as reduced @ v^-1
            for given_d in (d, None):
                rdv = RdvDecomposition(
                    StoredCsMatrix.from_dense(f, red),
                    StoredCsMatrix.from_dense(f, v),
                    lows,
                    d=given_d,
                )
                full = rdv_bridge(rdv)
                assert full.d.to_dense() == d.to_dense()
                # the defining identity holds with c = v
                r = _invert_unitriangular(full.rinv).to_dense()
                mm = full.matching.to_oracle(f).to_dense()
                c = _invert_unitriangular(full.cinv).to_dense()
                assert c == v
                assert mat_mul(r, mm, p) == mat_mul(d.to_dense(), c, p)
                # round trip back to a right-reduction reproduces v and the
                # reduced matrix exactly
                back = rdv_bridge(full)
                assert back.v.to_dense() == v
                assert back.reduced.to_dense() == red
                assert back.low == lows


def test_rdv_bridge_rejects_non_unitriangular():
    f = GF(7)
    bad = RdvDecomposition(
        StoredCsMatrix.from_dense(f, [[1]]),
        StoredCsMatrix.from_dense(f, [[2]]),
        {0: 0},
    )
    with pytest.raises(UsageError):
        rdv_bridge(bad)
