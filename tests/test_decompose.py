import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umatch import (
    GF,
    DecomposeOptions,
    MatchingArray,
    StoredCsMatrix,
    antitranspose_view,
    decompose_compressed,
    decompose_full,
    pareto_pairs,
)
from umatch.complexes import FilteredCubicalComplex, boundary_oracle
from umatch.datasets import circle_complex, er_complex
from umatch.decompose import clearing_filter
from umatch.errors import UsageError
from umatch.linalg import _invert_unitriangular

import numpy as np
from umatch.complexes import FilteredCliqueComplex

from conftest import clique_inputs, image_inputs, random_stored
from oracles import mat_mul, matching_rank_oracle, pivot_block_reference


def eq6_matrix(f):
    # the worked 2x2 example: [[3, -6], [3, -6]] with -6 = 1 mod 7
    return StoredCsMatrix.from_dense(f, [[3, 1], [3, 1]])


def dense_factors(full):
    r = _invert_unitriangular(full.rinv).to_dense()
    c = _invert_unitriangular(full.cinv).to_dense()
    return r, c


def test_worked_example_full():
    f = GF(7)
    full = decompose_full(eq6_matrix(f))
    assert full.matching.pairs == ((1, 0, 3),)
    r, c = dense_factors(full)
    assert r == [[1, 1], [0, 1]]
    assert c == [[1, 2], [0, 1]]


def test_worked_example_compressed():
    f = GF(7)
    u = decompose_compressed(eq6_matrix(f))
    assert u.matching.pairs == ((1, 0, 3),)
    assert u.rbar.to_dense() == [[1]]


def test_identity_and_zero_inputs():
    f = GF(7)
    eye = StoredCsMatrix.identity(f, 4)
    full = decompose_full(eye)
    assert full.matching.support() == {(i, i) for i in range(4)}
    assert full.rinv.to_dense() == eye.to_dense()
    assert full.cinv.to_dense() == eye.to_dense()
    u = decompose_compressed(eye)
    assert u.rbar.to_dense() == eye.to_dense()

    zero = StoredCsMatrix.from_dense(f, [[0, 0, 0], [0, 0, 0]])
    fz = decompose_full(zero)
    assert fz.matching.rank == 0
    assert fz.rinv.to_dense() == StoredCsMatrix.identity(f, 2).to_dense()
    assert fz.cinv.to_dense() == StoredCsMatrix.identity(f, 3).to_dense()

    empty = StoredCsMatrix.from_rows(f, 0, 3, [])
    assert decompose_full(empty).matching.rank == 0
    assert decompose_compressed(empty).rank == 0

    wide = StoredCsMatrix.from_rows(f, 3, 0, [[], [], []])
    fw = decompose_full(wide)
    assert fw.matching.rank == 0
    assert fw.rinv.to_dense() == StoredCsMatrix.identity(f, 3).to_dense()
    assert decompose_compressed(wide).rank == 0


def test_rank_oracle_on_worked_example_and_permutations():
    f = GF(7)
    assert matching_rank_oracle(eq6_matrix(f)) == {(1, 0)}
    perm = StoredCsMatrix.from_dense(GF(2), [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert matching_rank_oracle(perm) == {(0, 1), (1, 0), (2, 2)}


@pytest.mark.parametrize("p", [2, 7])
def test_matching_uniqueness_randomized(p):
    rnd = random.Random(100 + p)
    f = GF(p)
    for _ in range(25):
        m, n = rnd.randint(1, 9), rnd.randint(1, 10)
        d = random_stored(rnd, p, m, n)
        full = decompose_full(d)
        comp = decompose_compressed(d)
        assert full.matching == comp.matching
        assert full.matching.support() == matching_rank_oracle(d)
        # anti-transpose symmetry of the matching support
        at = decompose_compressed(antitranspose_view(d))
        mirrored = {(n - 1 - c, m - 1 - r) for r, c in full.matching.support()}
        assert at.matching.support() == mirrored


@pytest.mark.parametrize("p", [2, 7])
def test_defining_identity_and_proper_axioms(p):
    rnd = random.Random(7 + p)
    f = GF(p)
    for _ in range(20):
        m, n = rnd.randint(1, 8), rnd.randint(1, 8)
        d = random_stored(rnd, p, m, n)
        full = decompose_full(d)
        r, c = dense_factors(full)
        mm = full.matching.to_oracle(f).to_dense()
        assert mat_mul(r, mm, p) == mat_mul(d.to_dense(), c, p)
        # rows of C at unmatched column indices are standard unit rows
        for k in full.matching.kappa_bar:
            assert c[k] == [1 if j == k else 0 for j in range(n)]
        # columns of R at unmatched row indices are standard unit columns
        for k in full.matching.rho_bar:
            assert [r[i][k] for i in range(m)] == [1 if i == k else 0 for i in range(m)]
        # unitriangularity
        for i in range(m):
            assert r[i][i] == 1 and all(r[i][j] == 0 for j in range(i))
        for i in range(n):
            assert c[i][i] == 1 and all(c[i][j] == 0 for j in range(i))


@pytest.mark.parametrize("p", [2, 7])
def test_matching_identities_for_rows_and_columns(p):
    rnd = random.Random(40 + p)
    f = GF(p)
    for _ in range(10):
        m, n = rnd.randint(2, 7), rnd.randint(2, 7)
        d = random_stored(rnd, p, m, n)
        full = decompose_full(d)
        r, c = dense_factors(full)
        match = full.matching
        dd = d.to_dense()
        for col in range(n):
            image = [sum(dd[i][t] * c[t][col] for t in range(n)) % p for i in range(m)]
            row = match.row(col)
            if row is None:
                assert image == [0] * m
            else:
                coeff = match.coeff(row)
                expect = [(coeff * r[i][row]) % p for i in range(m)]
                assert image == expect
        rinv = full.rinv.to_dense()
        cinv = full.cinv.to_dense()
        for row in range(m):
            lhs = [sum(rinv[row][t] * dd[t][j] for t in range(m)) % p for j in range(n)]
            col = match.col(row)
            if col is None:
                assert lhs == [0] * n
            else:
                coeff = match.coeff(row)
                expect = [(coeff * cinv[col][j]) % p for j in range(n)]
                assert lhs == expect


def test_block_determinism_and_codetermination():
    # three of four blocks of both operation matrices are forced by D
    rnd = random.Random(9)
    p = 7
    f = GF(p)
    for _ in range(10):
        m, n = rnd.randint(2, 7), rnd.randint(2, 7)
        d = random_stored(rnd, p, m, n)
        full = decompose_full(d)
        match = full.matching
        if match.rank == 0:
            continue
        rinv = full.rinv.to_dense()
        dd = d.to_dense()
        rho, kappa = match.rho, match.kappa
        rho_bar, kappa_bar = match.rho_bar, match.kappa_bar
        from oracles import invert_mod

        d_rk = [[dd[i][j] for j in kappa] for i in rho]
        d_rk_inv = invert_mod(d_rk, p)
        # (R^-1)_{rho_bar, rho} = -D_{rho_bar, kappa} (D_{rho, kappa})^-1
        d_rbk = [[dd[i][j] for j in kappa] for i in rho_bar]
        want = mat_mul(d_rbk, d_rk_inv, p)
        got = [[(-rinv[i][j]) % p for j in rho] for i in rho_bar]
        assert got == want
        # C_{kappa, kappa_bar} = -(D_{rho,kappa})^-1 D_{rho, kappa_bar}
        _, c = dense_factors(full)
        d_rkb = [[dd[i][j] for j in kappa_bar] for i in rho]
        want_c = mat_mul(d_rk_inv, d_rkb, p)
        got_c = [[(-c[i][j]) % p for j in kappa_bar] for i in kappa]
        assert got_c == want_c
        # codetermination: R and the inner identities rebuild C exactly
        r, _ = dense_factors(full)
        r_rr = [[r[i][j] for j in rho] for i in rho]
        rbar = invert_mod(r_rr, p)
        a = mat_mul(rbar, d_rk, p)
        a_inv = invert_mod(a, p)
        m_rk = [[full.matching.to_oracle(f).to_dense()[i][j] for j in kappa] for i in rho]
        c_kk = mat_mul(a_inv, m_rk, p)
        c_kkb = mat_mul(a_inv, mat_mul(rbar, d_rkb, p), p)
        for qi, i in enumerate(kappa):
            for qj, j in enumerate(kappa):
                assert c[i][j] == c_kk[qi][qj]
            for qj, j in enumerate(kappa_bar):
                assert c[i][j] == (-c_kkb[qi][qj]) % p


def test_pareto_pairs_examples_and_subset_property():
    f = GF(7)
    assert pareto_pairs(eq6_matrix(f)) == {(1, 0)}
    diag = StoredCsMatrix.from_dense(f, [[2, 0], [0, 5]])
    assert pareto_pairs(diag) == {(0, 0), (1, 1)}
    rnd = random.Random(77)
    for _ in range(20):
        d = random_stored(rnd, 2, rnd.randint(1, 8), rnd.randint(1, 8))
        assert pareto_pairs(d) <= matching_rank_oracle(d)


def probe(d, pareto: bool):
    """Let d answer the apparent-pair probe as it does, or, when not
    `pareto`, make it decline every row."""
    if pareto:
        vars(d).pop("pareto_leading", None)
    else:
        d.pareto_leading = lambda i: None


def test_pareto_short_circuit_changes_nothing():
    rnd = random.Random(5)
    for p in (2, 7):
        for _ in range(10):
            d = random_stored(rnd, p, rnd.randint(1, 8), rnd.randint(1, 8))
            probe(d, True)
            with_sc = decompose_compressed(d)
            probe(d, False)
            without = decompose_compressed(d)
            assert with_sc.matching == without.matching
            assert with_sc.rbar.to_dense() == without.rbar.to_dense()


def triangle_complex():
    d = np.ones((3, 3)) - np.eye(3)
    return FilteredCliqueComplex(d, max_dim=2, threshold=1.5)


def test_clearing_on_triangle_complex():
    f = GF(2)
    cx = triangle_complex()
    d1 = boundary_oracle(cx, 1, f)
    d2 = boundary_oracle(cx, 2, f)
    u1 = decompose_compressed(d1)
    skip = clearing_filter(u1.matching)
    assert skip == frozenset(u1.matching.kappa)
    cleared = decompose_compressed(d2, DecomposeOptions(clear_rows=skip, counters=True))
    plain = decompose_compressed(d2)
    assert cleared.matching == plain.matching
    assert cleared.rbar.to_dense() == plain.rbar.to_dense()
    assert cleared.stats.rows_cleared == len(skip)


def test_empty_prior_matching_clears_nothing():
    prior = MatchingArray(4, 4, ())
    assert clearing_filter(prior) == frozenset()


def test_clearing_identical_on_benchmark_complex():
    f = GF(2)
    cx = circle_complex(10)
    d1 = boundary_oracle(cx, 1, f)
    d2 = boundary_oracle(cx, 2, f)
    u1 = decompose_compressed(d1)
    skip = clearing_filter(u1.matching)
    a = decompose_compressed(d2, DecomposeOptions(clear_rows=skip))
    b = decompose_compressed(d2, DecomposeOptions())
    assert a.matching == b.matching


def test_nilpotent_total_matrix_has_disjoint_def_and_val():
    f = GF(2)
    cx = triangle_complex()
    # assemble the strictly upper triangular total boundary matrix
    orders = {n: cx.order(n) for n in range(3)}
    offsets = {}
    total = 0
    cells = []
    for n in range(3):
        for pos in range(len(orders[n])):
            cells.append((n, pos))
    cells.sort(key=lambda t: (orders[t[0]].births[t[1]], t[0], orders[t[0]].cells[t[1]]))
    index = {cell: g for g, cell in enumerate(cells)}
    dense = [[0] * len(cells) for _ in cells]
    for n in (1, 2):
        d = boundary_oracle(cx, n, f)
        for j in range(d.ncols):
            for i, v in d.col(j).entries:
                dense[index[(n - 1, i)]][index[(n, j)]] = v
    sq = mat_mul(dense, dense, 2)
    assert all(all(v == 0 for v in row) for row in sq)
    u = decompose_compressed(StoredCsMatrix.from_dense(f, dense))
    defs = {r for r, _, _ in u.matching.pairs}
    vals = {c for _, c, _ in u.matching.pairs}
    assert not (defs & vals)


def test_matching_array_index_sequences():
    m = MatchingArray(5, 6, [(4, 0, 3), (1, 2, 1)])
    assert m.rho == (1, 4)
    assert m.kappa == (0, 2)
    assert m.rho_bar == (0, 2, 3)
    assert m.kappa_bar == (1, 3, 4, 5)
    assert m.kappa_star == (4, 1)
    assert sorted(m.kappa_star) == list(m.rho)
    assert m.rank == 2


@st.composite
def partial_matchings(draw):
    """A partial matching of an m x n array, up to 12 x 12, with
    coefficients in GF(7), its entries listed in random order."""
    m, n = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    k = draw(st.integers(0, min(m, n)))
    rows = draw(st.permutations(range(m)))[:k]
    cols = draw(st.permutations(range(n)))[:k]
    coeffs = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    return m, n, list(zip(rows, cols, coeffs))


@settings(max_examples=200, deadline=None)
@given(partial_matchings(), st.randoms(use_true_random=False))
def test_matching_array_against_dict_reference(case, rnd):
    m, n, triples = case
    col_of = {r: c for r, c, _ in triples}
    row_of = {c: r for r, c, _ in triples}
    coeff = {r: v for r, _, v in triples}
    rho, kappa = sorted(col_of), sorted(row_of)
    a = MatchingArray(m, n, iter(triples))
    assert a.pairs == tuple(sorted(triples))
    assert a.rank == len(triples)
    assert a.rho == tuple(rho)
    assert a.kappa == tuple(kappa)
    assert a.rho_pos == {r: q for q, r in enumerate(rho)}
    assert a.kappa_pos == {c: p for p, c in enumerate(kappa)}
    assert a.pi == tuple(rho.index(row_of[c]) for c in kappa)
    assert a.pi_inv == tuple(kappa.index(col_of[r]) for r in rho)
    assert a.m_diag == tuple(coeff[row_of[c]] for c in kappa)
    assert a.rho_bar == tuple(i for i in range(m) if i not in col_of)
    assert a.kappa_bar == tuple(j for j in range(n) if j not in row_of)
    assert a.kappa_star == tuple(row_of[c] for c in kappa)
    assert a.support() == {(r, c) for r, c, _ in triples}
    for i in range(m):
        assert a.col(i) == col_of.get(i)
        assert a.coeff(i) == coeff.get(i, 0)
        for j in range(n):
            assert a.coeff(i, j) == (coeff[i] if col_of.get(i) == j else 0)
    for j in range(n):
        assert a.row(j) == row_of.get(j)

    shuffled = triples[:]
    rnd.shuffle(shuffled)
    b = MatchingArray(m, n, shuffled)
    assert b == a and hash(b) == hash(a)

    # a matching matrix is its own matching array, and the decomposition
    # hands back the matching's own position tuples
    u = decompose_compressed(a.to_oracle(GF(7)))
    assert u.matching == a
    assert u.pi is u.matching.pi
    assert u.pi_inv is u.matching.pi_inv
    assert u.m_diag is u.matching.m_diag

    if triples:
        (r, c, v), rest = triples[0], triples[1:]
        bad = [rest + [(r, c, 0)]]
        bad += [triples + [(r, j, v)] for j in range(n) if j not in row_of][:1]
        bad += [triples + [(i, c, v)] for i in range(m) if i not in col_of][:1]
        for entries in bad:
            with pytest.raises(UsageError):
                MatchingArray(m, n, entries)


boundary_complexes = st.one_of(
    st.builds(lambda n, seed: er_complex(n, seed=seed, max_dim=3),
              st.integers(2, 9), st.integers(0, 2 ** 32 - 1)),
    image_inputs().map(FilteredCubicalComplex),
)


@settings(max_examples=80, deadline=None)
@given(boundary_complexes, st.sampled_from([2, 3, 7]))
def test_antitranspose_duality_on_complex_boundaries(cx, p):
    # the matching of J D^T J is J M^T J, coefficients included
    for k in range(1, cx.max_dim + 1):
        d = boundary_oracle(cx, k, GF(p))
        m, n = d.nrows, d.ncols
        u = decompose_compressed(d)
        at = decompose_compressed(antitranspose_view(d))
        assert at.matching.pairs == tuple(sorted(
            (n - 1 - c, m - 1 - r, v) for r, c, v in u.matching.pairs))


def test_fifty_random_10x14_gf7_instances_agree_with_oracle():
    rnd = random.Random(1014)
    for _ in range(50):
        d = random_stored(rnd, 7, 10, 14, density=0.35)
        full = decompose_full(d)
        comp = decompose_compressed(d)
        assert full.matching == comp.matching
        assert comp.matching.support() == matching_rank_oracle(d)


@pytest.mark.parametrize("p", [3, 101])
def test_other_prime_fields_soak(p):
    rnd = random.Random(8 + p)
    for _ in range(6):
        m, n = rnd.randint(5, 16), rnd.randint(5, 18)
        d = random_stored(rnd, p, m, n, density=0.3)
        full = decompose_full(d)
        comp = decompose_compressed(d)
        assert full.matching == comp.matching
        assert full.matching.support() == matching_rank_oracle(d)
        r = _invert_unitriangular(full.rinv).to_dense()
        c = _invert_unitriangular(full.cinv).to_dense()
        mm = full.matching.to_oracle(d.field).to_dense()
        assert mat_mul(r, mm, p) == mat_mul(d.to_dense(), c, p)


def rbar_rows(u):
    """The pivot block as {pivot row: {pivot row: coeff}}, by absolute index."""
    rho = u.matching.rho
    return {rho[q]: {rho[c]: v for c, v in u.rbar.row(q).entries} for q in range(u.rank)}


@settings(max_examples=200, deadline=None)
@given(clique_inputs())
def test_decompositions_agree_on_random_clique_complexes(case):
    d, max_dim, threshold, p = case
    cx = FilteredCliqueComplex(d, max_dim, threshold)
    f = GF(p)
    prior = None
    for n in range(1, max_dim + 1):
        dn = boundary_oracle(cx, n, f)
        clear = clearing_filter(prior) if prior is not None else None
        matching = decompose_full(dn).matching
        assert matching.support() == matching_rank_oracle(dn)
        for clearing in (True, False):
            cleared = clear if clearing and clear else frozenset()
            pairs, rbar = pivot_block_reference(dn, cleared)
            for pareto in (True, False):
                probe(dn, pareto)
                u = decompose_compressed(dn, DecomposeOptions(
                    clear_rows=clear if clearing else None))
                assert u.matching == matching
                assert list(u.matching.pairs) == pairs
                assert rbar_rows(u) == rbar
        prior = matching


def test_compressed_builds_each_row_once():
    rnd = random.Random(11)
    for p in (2, 7):
        d = random_stored(rnd, p, 30, 30, density=0.2)
        calls = Counter()
        row = d.row

        def counted(i):
            calls[i] += 1
            return row(i)

        d.row = counted
        probe(d, False)
        u = decompose_compressed(d, DecomposeOptions(counters=True))
        assert u.stats.eliminations > 0 and u.stats.row_memo_hits > 0
        assert sum(calls.values()) == u.stats.row_fetches
        # the row being reduced and the rows its eliminations stream share
        # one memo, so every row is built once
        assert max(calls.values()) == 1
        assert rbar_rows(u) == pivot_block_reference(d)[1]
        quiet = decompose_compressed(d)
        assert quiet.stats is None and rbar_rows(quiet) == rbar_rows(u)


def assert_matches_reference(d, pareto):
    probe(d, pareto)
    u = decompose_compressed(d)
    pairs, rbar = pivot_block_reference(d)
    assert list(u.matching.pairs) == pairs
    assert rbar_rows(u) == rbar
    return u


@pytest.mark.parametrize("p", [2, 7])
@pytest.mark.parametrize("pareto", [True, False])
def test_zero_rows(p, pareto):
    f = GF(p)
    d = StoredCsMatrix.from_dense(f, [[0, 0, 0], [1, 0, 1], [0, 0, 0], [0, 1, 1], [0, 0, 0]])
    assert assert_matches_reference(d, pareto).rank == 2
    # vertex 3 is isolated and the edge {0, 4} lies in no triangle
    w = np.full((5, 5), 0.9)
    np.fill_diagonal(w, 0.0)
    w[0, 1] = w[1, 0] = 0.1
    w[0, 2] = w[2, 0] = 0.2
    w[1, 2] = w[2, 1] = 0.3
    w[0, 4] = w[4, 0] = 0.4
    cx = FilteredCliqueComplex(w, 2, 0.5)
    for n in (1, 2):
        dn = boundary_oracle(cx, n, f)
        assert any(not dn.row(i).entries for i in range(dn.nrows))
        assert_matches_reference(dn, pareto)


@st.composite
def cancelling_matrices(draw):
    """A stored matrix over GF(p) whose rows are random, zero, or
    combinations of rows below them with at most one entry added, so the
    reduction meets pivot rows whose prefixes cancel."""
    p = draw(st.sampled_from([2, 3, 257, 2 ** 61 - 1]))
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    coeff = st.integers(1, p - 1)
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(("random", "zero", "combination", "combination")))
        row = [0] * n
        if kind == "random":
            row = [draw(coeff) if draw(st.booleans()) else 0 for _ in range(n)]
        elif kind == "combination" and rows:
            for r in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                a = draw(coeff)
                row = [(x + a * y) % p for x, y in zip(row, r)]
            if draw(st.booleans()):
                j = draw(st.integers(0, n - 1))
                row[j] = (row[j] + draw(coeff)) % p
        rows.append(row)
    # rows are drawn top down as combinations of those above; the reduction
    # runs bottom up, so reverse them
    return StoredCsMatrix.from_dense(GF(p), rows[::-1])


@settings(max_examples=150, deadline=None)
@given(cancelling_matrices(), st.booleans())
def test_cancelling_rows_and_antitranspose_duality(d, pareto):
    u = assert_matches_reference(d, pareto)
    assert u.matching == decompose_full(d).matching
    m, n = d.nrows, d.ncols
    at = assert_matches_reference(antitranspose_view(d), pareto)
    assert at.matching.support() == {(n - 1 - c, m - 1 - r) for r, c in u.matching.support()}


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 11), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([2, 7, 257, 2 ** 61 - 1]))
def test_compact_rows_are_exact_in_every_field(n, seed, p):
    # the memo keeps no coefficients at p = 2, bytes at p = 7 and a tuple at
    # 257 and 2^61 - 1, whose -1 does not fit in a byte; a clique boundary
    # and a stored copy of it must decompose alike, count for count
    cx = er_complex(n, seed=seed, max_dim=2)
    f = GF(p)
    prior = None
    for k in (1, 2):
        d = boundary_oracle(cx, k, f)
        stored = StoredCsMatrix.from_rows(f, d.nrows, d.ncols,
                                          [d.row(i).entries for i in range(d.nrows)])
        clear = clearing_filter(prior) if prior is not None else None
        opts = DecomposeOptions(counters=True, clear_rows=clear)
        u, v = decompose_compressed(d, opts), decompose_compressed(stored, opts)
        pairs, rbar = pivot_block_reference(d, clear or frozenset())
        assert list(u.matching.pairs) == list(v.matching.pairs) == pairs
        assert rbar_rows(u) == rbar_rows(v) == rbar
        for field in ("row_fetches", "row_memo_hits", "heap_pops", "eliminations",
                      "pareto_hits"):
            assert getattr(u.stats, field) == getattr(v.stats, field), field
        prior = u.matching


def test_pivot_block_columns_are_built_on_first_use():
    f = GF(7)
    cx = er_complex(12, seed=4, max_dim=2)
    u1 = decompose_compressed(boundary_oracle(cx, 1, f))
    u = decompose_compressed(boundary_oracle(cx, 2, f),
                             DecomposeOptions(clear_rows=clearing_filter(u1.matching)))
    assert u.rbar._csc is None
    cols = [[] for _ in range(u.rank)]
    for q in range(u.rank):
        for c, v in u.rbar.row(q).entries:
            cols[c].append((q, v))
    assert any(len(col) > 1 for col in cols)
    assert [list(u.rbar.col(q).entries) for q in range(u.rank)] == cols
    assert u.rbar._csc is not None


def test_decomposition_working_set():
    import gc
    import tracemalloc

    # the d2 boundary of er n=50 as the engine meets it: d1 decomposed, its
    # pivot columns cleared, the apparent-pair table of dimension 1 built
    cx = er_complex(50, seed=0, max_dim=2)
    f = GF(2)
    u1 = decompose_compressed(boundary_oracle(cx, 1, f))
    d = boundary_oracle(cx, 2, f)
    cx._apparent_pairs(1)
    opts = DecomposeOptions(clear_rows=clearing_filter(u1.matching), counters=True)
    gc.collect()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        u = decompose_compressed(d, opts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert u.stats.row_memo_hits > 0 and u.rank == 1176
    assert peak - start <= 1.3 * 2 ** 20
