import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from umatch import (
    GF,
    Chain,
    NEVER,
    NEVER_BOUNDS,
    PersistenceEngine,
    SparseVector,
    UsageError,
    antitranspose_view,
    boundary_oracle,
    decompose_compressed,
    decompose_full,
)
from umatch.complexes import FilteredCliqueComplex, FilteredCubicalComplex
from umatch.datasets import circle_complex, torus_complex
from umatch.linalg import Join, Meet
from umatch.persistence import BoundariesBorn, CyclesBorn, ImageOfFiltered

from conftest import clique_inputs, image_inputs
from oracles import (
    betti_numbers,
    dense_boundary,
    global_order_reference,
    kernel_basis_mod,
    mat_mul,
    mat_vec,
    rank_mod,
    solve_particular_mod,
)


def equilateral3():
    d = np.ones((3, 3)) - np.eye(3)
    return FilteredCliqueComplex(d, max_dim=2, threshold=1.5)


def filtration_values(cx, max_dim):
    vals = set()
    for n in range(max_dim + 1):
        vals.update(cx.order(n).births)
    return sorted(vals)


def bars_containing(engine, n, t):
    return sum(1 for b in engine.bars(n) if b.birth_value <= t < b.death_value)


def assert_barcode_matches_oracle(cx, p, max_dim):
    engine = PersistenceEngine(cx, GF(p))
    for t in filtration_values(cx, max_dim):
        bettis = betti_numbers(cx, p, t, max_dim)
        for n in range(max_dim):
            assert bars_containing(engine, n, t) == bettis[n], (n, t)
    return engine


def test_three_point_barcode():
    engine = PersistenceEngine(equilateral3(), GF(2))
    h0 = [(b.birth_value, b.death_value) for b in engine.bars(0)]
    assert sorted(h0) == [(0.0, 1.0), (0.0, 1.0), (0.0, math.inf)]
    assert engine.bars(1) == []


def test_keep_empty_bars_restores_zero_length_intervals():
    engine = PersistenceEngine(equilateral3(), GF(2), keep_empty_bars=True)
    h1 = [(b.birth_value, b.death_value) for b in engine.bars(1)]
    assert h1 == [(1.0, 1.0)]


def test_single_pixel_image_barcode():
    engine = PersistenceEngine(FilteredCubicalComplex(np.array([[3.5]])), GF(2))
    bars = engine.bars(0)
    assert len(bars) == 1
    assert bars[0].interval() == (3.5, math.inf)


def test_circle_barcode_and_oracle():
    cx = circle_complex(20)
    engine = assert_barcode_matches_oracle(cx, 2, 2)
    h1 = engine.bars(1)
    assert len(h1) == 1
    assert abs(h1[0].birth_value - 2 * math.sin(math.pi / 20)) < 1e-12


@pytest.mark.parametrize("p", [2, 7])
def test_barcode_oracle_on_fixtures(p):
    assert_barcode_matches_oracle(equilateral3(), p, 2)
    assert_barcode_matches_oracle(circle_complex(10), p, 2)
    assert_barcode_matches_oracle(torus_complex(8, seed=1), p, 2)
    rng = np.random.default_rng(0)
    assert_barcode_matches_oracle(FilteredCubicalComplex(rng.random((4, 4))), p, 2)


@settings(max_examples=60, deadline=None)
@given(image_inputs(), st.sampled_from([2, 3, 7]))
def test_cubical_barcode_matches_rank_oracle(pixels, p):
    # 2d and 3d images with tied values; the bars alive at each filtration
    # value count the Betti numbers there
    cx = FilteredCubicalComplex(pixels)
    assert_barcode_matches_oracle(cx, p, cx.max_dim)


def in_image(dense_cols, target, p):
    if not dense_cols or not dense_cols[0]:
        return all(v == 0 for v in target)
    cols = [[row[j] for row in dense_cols] for j in range(len(dense_cols[0]))]
    base = rank_mod(cols, p)
    return rank_mod(cols + [target], p) == base


def assert_valid_cycle_representative(engine, bar, chain, p):
    cx = engine.complex
    n = bar.dim
    m = len(engine.order(n))
    vec = chain.vector.to_dense(m)
    # pure-graded cycle
    assert chain.dim == n
    if n >= 1:
        d_n = dense_boundary(cx, n, p)
        assert all(v == 0 for v in mat_vec(d_n, vec, p))
    # born exactly at the birth cell
    assert chain.vector.trailing()[0] == bar.birth_pos
    # leading coefficient normalized
    assert chain.vector.leading()[1] == 1
    d_up = dense_boundary(cx, n + 1, p) if len(engine.order(n + 1)) else []
    if bar.finite:
        cols_to = [[row[j] for j in range(bar.death_pos + 1)] for row in d_up]
        cols_before = [[row[j] for j in range(bar.death_pos)] for row in d_up]
        assert in_image(cols_to, vec, p)
        assert not in_image(cols_before, vec, p)
    else:
        assert not in_image(d_up, vec, p)


@pytest.mark.parametrize("p", [2, 7])
def test_cycle_representatives_are_valid(p):
    for cx in (equilateral3(), circle_complex(10), torus_complex(8, seed=1)):
        engine = PersistenceEngine(cx, GF(p))
        for n in range(2):
            for bar in engine.bars(n):
                chain = engine.cycle_representative(bar)
                assert_valid_cycle_representative(engine, bar, chain, p)


def test_three_point_infinite_bar_is_single_vertex():
    engine = PersistenceEngine(equilateral3(), GF(2))
    inf_bars = [b for b in engine.bars(0) if not b.finite]
    assert len(inf_bars) == 1
    chain = engine.cycle_representative(inf_bars[0])
    assert chain.vector.nnz == 1


def test_circle_representative_is_a_nontrivial_cycle_at_birth():
    p = 2
    cx = circle_complex(12)
    engine = PersistenceEngine(cx, GF(p))
    [bar] = engine.bars(1)
    chain = engine.cycle_representative(bar)
    assert_valid_cycle_representative(engine, bar, chain, p)
    # nonzero in homology at birth: not in the image of the triangles born by then
    d2 = dense_boundary(cx, 2, p, value_cutoff=bar.birth_value)
    vec = chain.vector.to_dense(len(cx.order(1)))
    admitted_rows = len([b for b in cx.order(1).births if b <= bar.birth_value])
    assert not in_image([r for r in d2], vec[:admitted_rows] + [0] * 0, p) or not d2


def test_foreign_bar_handle_rejected():
    e1 = PersistenceEngine(equilateral3(), GF(2))
    e2 = PersistenceEngine(equilateral3(), GF(2))
    bar = e1.bars(0)[0]
    with pytest.raises(UsageError):
        e2.cycle_representative(bar)
    with pytest.raises(UsageError):
        e2.cocycle_representative(bar)


@pytest.mark.parametrize("p", [2, 7])
def test_cocycle_representatives(p):
    for cx in (equilateral3(), circle_complex(10)):
        engine = PersistenceEngine(cx, GF(p))
        for n in range(2):
            d_up2 = dense_boundary(cx, n + 2, p) if len(engine.order(n + 2)) else []
            for bar in engine.bars(n):
                co = engine.cocycle_representative(bar)
                if bar.finite:
                    # a relative cocycle pinned to the death cell
                    assert co.dim == n + 1
                    assert co.vector.leading() == (bar.death_pos, 1)
                    if d_up2:
                        row = co.vector.to_dense(len(engine.order(n + 1)))
                        prod = [
                            sum(row[i] * d_up2[i][j] for i in range(len(row))) % p
                            for j in range(len(d_up2[0]))
                        ]
                        assert all(v == 0 for v in prod)
                else:
                    assert co.dim == n
                    assert co.vector.leading() == (bar.birth_pos, 1)
                    # vanishes on every other unmatched row: support beyond the
                    # unit lies in pivot coordinates
                    up = engine.matching(n + 1)
                    for i, _ in co.vector.entries:
                        assert i == bar.birth_pos or i in up.rho_pos
                    d_up = dense_boundary(cx, n + 1, p) if len(engine.order(n + 1)) else []
                    if d_up:
                        row = co.vector.to_dense(len(engine.order(n)))
                        prod = [
                            sum(row[i] * d_up[i][j] for i in range(len(row))) % p
                            for j in range(len(d_up[0]))
                        ]
                        assert all(v == 0 for v in prod)


def test_cocycle_pairing_reproduces_barcode():
    # the index pairs recovered from cocycle leading entries equal the bars
    p = 2
    cx = circle_complex(10)
    engine = PersistenceEngine(cx, GF(p))
    for n in range(2):
        bars = engine.bars(n)
        derived = []
        for bar in bars:
            co = engine.cocycle_representative(bar)
            if bar.finite:
                derived.append((co.vector.leading()[0], "finite"))
            else:
                derived.append((co.vector.leading()[0], "infinite"))
        want = [
            ((b.death_pos if b.finite else b.birth_pos),
             "finite" if b.finite else "infinite")
            for b in bars
        ]
        assert derived == want


def test_barcode_invariance_under_antitranspose():
    # column-reducing is decomposing the anti-transpose: the matchings agree
    f = GF(2)
    for cx in (equilateral3(), circle_complex(10)):
        for n in (1, 2):
            d = boundary_oracle(cx, n, f)
            u = decompose_compressed(d)
            at = decompose_compressed(antitranspose_view(d))
            mirrored = {
                (d.nrows - 1 - r, d.ncols - 1 - c)
                for (c, r) in at.matching.support()
            }
            assert mirrored == u.matching.support()


def dense_jordan(engine):
    p = engine.field.p
    n_tot = engine.n_cells_total
    cols = []
    for g in range(n_tot):
        ch = engine.jordan_column(g)
        dim, pos = engine.global_cell(g)
        dense = [0] * n_tot
        for i, v in ch.vector.entries:
            dense[engine.global_index(dim, i)] = v
        cols.append(dense)
    return [[cols[j][i] for j in range(n_tot)] for i in range(n_tot)]


def dense_total_boundary(engine):
    p = engine.field.p
    n_tot = engine.n_cells_total
    out = [[0] * n_tot for _ in range(n_tot)]
    for n in range(1, engine.max_dim + 1):
        d = engine.boundary(n)
        if d is None:
            continue
        for j in range(d.ncols):
            gj = engine.global_index(n, j)
            for i, v in d.col(j).entries:
                out[engine.global_index(n - 1, i)][gj] = v
    return out


def is_generalized_matching(mat):
    rows = set()
    cols = set()
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if v:
                if i in rows or j in cols:
                    return False
                rows.add(i)
                cols.add(j)
    return True


@pytest.mark.parametrize("p", [2, 7])
def test_jordan_basis_conjugates_total_boundary_to_matching(p):
    from oracles import invert_mod

    for cx in (equilateral3(), torus_complex(7, seed=2)):
        engine = PersistenceEngine(cx, GF(p))
        e = dense_jordan(engine)
        d_tot = dense_total_boundary(engine)
        e_inv = invert_mod(e, p)
        conj = mat_mul(e_inv, mat_mul(d_tot, e, p), p)
        assert is_generalized_matching(conj)
        # upper triangular, 0-graded by construction
        for i in range(len(e)):
            for j in range(i):
                assert e[i][j] == 0
            assert e[i][i] != 0


def test_jordan_column_isolated_cell():
    # a vertex far from everything has no faces or cofaces: its column is a unit
    d = np.array([[0.0, 9.0], [9.0, 0.0]])
    cx = FilteredCliqueComplex(d, max_dim=1, threshold=1.0)
    engine = PersistenceEngine(cx, GF(2))
    for g in range(2):
        ch = engine.jordan_column(g)
        assert ch.vector.nnz == 1


def test_jordan_worked_example_via_decomposition():
    # the 2x2 worked example as an abstract 2-level chain complex: the reduced
    # column normalizes to (1, 1) and the unmatched domain column is (2, 1)
    from umatch import StoredCsMatrix, RetrievalTarget, retrieve, scale

    f = GF(7)
    d = StoredCsMatrix.from_dense(f, [[3, 1], [3, 1]])
    u = decompose_compressed(d)
    col_rm = scale(u.matching.coeff(1), retrieve(u, RetrievalTarget("R", "col", 1)))
    assert col_rm.to_dense(2) == [3, 3]
    lead = col_rm.leading()
    normalized = scale(f.inv(lead[1]), col_rm)
    assert normalized.to_dense(2) == [1, 1]
    assert retrieve(u, RetrievalTarget("C", "col", 1)).to_dense(2) == [2, 1]


def test_saecular_selections():
    p = 2
    cx = circle_complex(10)
    engine = PersistenceEngine(cx, GF(p))
    # cycles of dimension 1 at the end of the filtration
    z1 = engine.saecular_select(CyclesBorn(1, math.inf))
    d1 = dense_boundary(cx, 1, p)
    nullity = len(cx.order(1).cells) - rank_mod(d1, p)
    assert z1.dimension == nullity
    vecs = []
    for ch in z1.materialize(engine):
        assert ch.dim == 1
        vec = ch.vector.to_dense(len(cx.order(1)))
        assert all(v == 0 for v in mat_vec(d1, vec, p))
        vecs.append(vec)
    assert rank_mod(vecs, p) == len(vecs)
    # the zero step of the filtration carries nothing
    assert engine.saecular_select(CyclesBorn(1, 0)).dimension == 0
    assert engine.saecular_select(BoundariesBorn(0, 0)).dimension == 0
    # boundaries inject into cycles, step by step
    for gstep in range(0, engine.n_cells_total + 1, 7):
        b = engine.saecular_select(BoundariesBorn(1, gstep))
        z = engine.saecular_select(CyclesBorn(1, gstep))
        assert set(b.generators) <= set(z.generators)
    # meets and joins operate on generator sets
    half = engine.n_cells_total // 2
    m = engine.saecular_select(Meet(CyclesBorn(1, math.inf), CyclesBorn(1, half)))
    assert set(m.generators) == set(engine.saecular_select(CyclesBorn(1, half)).generators)
    j = engine.saecular_select(
        Join(BoundariesBorn(1, half), CyclesBorn(1, half))
    )
    assert set(j.generators) == set(engine.saecular_select(CyclesBorn(1, half)).generators)
    # image of the filtered next dimension: dimension matches a rank count
    img = engine.saecular_select(ImageOfFiltered(1, math.inf))
    d2 = dense_boundary(cx, 2, p)
    assert img.dimension == rank_mod(d2, p)


def test_bounding_chain_triangle():
    engine = PersistenceEngine(equilateral3(), GF(2))
    f = engine.field
    # boundary of the triangle: all three edges
    x = Chain(1, SparseVector.from_pairs(f, [(0, 1), (1, 1), (2, 1)]))
    res = engine.bounding_chain(x)
    assert res is not NEVER_BOUNDS
    assert res.index == engine.global_index(2, 0)
    assert res.witness.dim == 2
    assert res.witness.vector.entries == ((0, 1),)
    assert res.value == 1.0


def test_bounding_chain_rejects_non_cycles():
    engine = PersistenceEngine(equilateral3(), GF(2))
    f = engine.field
    x = Chain(1, SparseVector.from_pairs(f, [(0, 1)]))
    with pytest.raises(UsageError):
        engine.bounding_chain(x)


def test_infinite_representative_never_bounds():
    engine = PersistenceEngine(circle_complex(10), GF(2))
    [bar] = engine.bars(1)
    # the H1 class of the circle complex dies once triangles appear, so use a
    # complex truncated below the death value to get a genuine infinite bar
    cx = circle_complex(10, threshold=0.7)
    engine = PersistenceEngine(cx, GF(2))
    inf_bars = [b for b in engine.bars(1) if not b.finite]
    assert inf_bars
    for bar in inf_bars:
        ch = engine.cycle_representative(bar)
        assert engine.bounding_chain(ch) is NEVER_BOUNDS
        assert engine.lifespan(ch) == (bar.birth_value, math.inf)


def test_bounding_chain_matches_exhaustive_search():
    p = 2
    rnd = random.Random(6)
    cx = equilateral3()
    engine = PersistenceEngine(cx, GF(p))
    f = engine.field
    d2 = dense_boundary(cx, 2, p)
    d1 = dense_boundary(cx, 1, p)
    n2 = len(cx.order(2).cells)
    n1 = len(cx.order(1).cells)
    for _ in range(8):
        y0 = [rnd.randrange(2) for _ in range(n2)]
        x_dense = mat_vec(d2, y0, p)
        x = Chain(1, SparseVector.from_pairs(f, [(i, v) for i, v in enumerate(x_dense) if v]))
        res = engine.bounding_chain(x)
        if not x.vector:
            assert res.index == -1
            continue
        # exhaustive preimage search
        from oracles import all_solutions_gf2

        best = None
        for sol in all_solutions_gf2(d2, x_dense):
            nz = [j for j, v in enumerate(sol) if v]
            latest = max(nz) if nz else -1
            g = engine.global_index(2, latest) if latest >= 0 else -1
            best = g if best is None else min(best, g)
        assert res.index == best


def test_time_of_homology():
    p = 2
    cx = circle_complex(10)
    engine = PersistenceEngine(cx, GF(p))
    f = engine.field
    [bar] = engine.bars(1)
    x = engine.cycle_representative(bar)
    # a cycle is homologous to itself from its birth on
    assert engine.time_of_homology(x, x) == engine.birth_value_of(x)
    # two loops around the hole through different chords become homologous
    # exactly when their difference bounds: cross-check with a rank scan
    n1 = len(cx.order(1).cells)
    d1 = dense_boundary(cx, 1, p)
    kb = kernel_basis_mod(d1, p)
    other = None
    for cand in kb:
        if cand != x.vector.to_dense(n1):
            other = cand
            break
    assert other is not None
    fchain = Chain(1, SparseVector.from_pairs(f, [(i, v) for i, v in enumerate(other) if v]))
    t = engine.time_of_homology(x, fchain)
    # stepwise oracle
    diff = [(a - b) % p for a, b in zip(x.vector.to_dense(n1), other)]
    expected = None
    for val in sorted(set(cx.order(2).births) | {engine.birth_value_of(x), engine.birth_value_of(fchain)}):
        d2 = dense_boundary(cx, 2, p, value_cutoff=val)
        rows = len([b for b in cx.order(1).births if b <= val])
        if rows < n1 and any(diff[rows:]):
            continue
        if engine.birth_value_of(x) > val or engine.birth_value_of(fchain) > val:
            continue
        target = diff[:rows]
        if not d2 or not d2[0]:
            if all(v == 0 for v in target):
                expected = val
                break
            continue
        sol = solve_particular_mod([r for r in d2], target, p)
        if sol is not None:
            expected = val
            break
    if expected is None:
        assert t is NEVER
    else:
        assert t == expected


def test_time_of_homology_never():
    cx = circle_complex(10, threshold=0.7)
    engine = PersistenceEngine(cx, GF(2))
    inf_bar = [b for b in engine.bars(1) if not b.finite][0]
    x = engine.cycle_representative(inf_bar)
    zero = Chain(1, SparseVector.zero(engine.field))
    assert engine.time_of_homology(x, zero) is NEVER


def test_one_cycle_check_per_query(monkeypatch):
    engine = PersistenceEngine(circle_complex(10), GF(2))
    [bar] = engine.bars(1)
    x = engine.cycle_representative(bar)
    checked = []
    check = engine._require_cycle
    monkeypatch.setattr(engine, "_require_cycle", lambda c: checked.append(c) or check(c))
    engine.lifespan(x)
    assert len(checked) == 1
    checked.clear()
    assert engine.time_of_homology(x, x) == engine.birth_value_of(x)
    # x and f are checked, not their difference
    assert checked == [x, x]
    # a chain that is not a cycle is still refused, on either side
    edge = Chain(1, SparseVector.unit(engine.field, 0))
    for args in ((edge,), (x, edge), (edge, x)):
        with pytest.raises(UsageError, match="not a cycle"):
            (engine.lifespan if len(args) == 1 else engine.time_of_homology)(*args)


def test_lifespan_triangle_boundary_is_empty_interval():
    engine = PersistenceEngine(equilateral3(), GF(2))
    f = engine.field
    x = Chain(1, SparseVector.from_pairs(f, [(0, 1), (1, 1), (2, 1)]))
    lo, hi = engine.lifespan(x)
    assert lo == 1.0 and hi == 1.0


def test_lifespan_matches_stepwise_oracle_on_random_cycles():
    p = 2
    cx = circle_complex(8)
    engine = PersistenceEngine(cx, GF(p))
    f = engine.field
    n1 = len(cx.order(1).cells)
    d1 = dense_boundary(cx, 1, p)
    kb = kernel_basis_mod(d1, p)
    rnd = random.Random(2)
    for _ in range(6):
        coeffs = [rnd.randrange(2) for _ in kb]
        dense = [0] * n1
        for c, vec in zip(coeffs, kb):
            if c:
                dense = [(a + b) % p for a, b in zip(dense, vec)]
        if not any(dense):
            continue
        x = Chain(1, SparseVector.from_pairs(f, [(i, v) for i, v in enumerate(dense) if v]))
        lo, hi = engine.lifespan(x)
        assert lo == engine.birth_value_of(x)
        expected = math.inf
        for val in sorted(set(cx.order(2).births)):
            d2 = dense_boundary(cx, 2, p, value_cutoff=val)
            rows = len([b for b in cx.order(1).births if b <= val])
            if rows < n1 and any(dense[rows:]):
                continue
            if not d2 or not d2[0]:
                continue
            if solve_particular_mod(d2, dense[:rows], p) is not None:
                expected = val
                break
        assert hi == expected


@pytest.mark.parametrize("p", [2, 7])
def test_optimization_neutrality(p):
    for cx in (equilateral3(), circle_complex(8), torus_complex(7, seed=3)):
        base = PersistenceEngine(cx, GF(p))
        # the engine clears and probes for apparent pairs as each oracle
        # decides; the full decomposition does neither
        for n in range(1, 3):
            assert base.matching(n) == decompose_full(base.boundary(n)).matching
        # early-stop representatives stay valid
        for n in range(2):
            for bar in base.bars(n):
                ch = base.cycle_representative(bar, strategy="early_stop")
                assert_valid_cycle_representative(base, bar, ch, p)


def test_total_matching_def_val_disjoint():
    for cx in (equilateral3(), circle_complex(10), torus_complex(7, seed=5)):
        engine = PersistenceEngine(cx, GF(2))
        pairs = engine.total_matching()
        defs = {r for r, _ in pairs}
        vals = {c for _, c in pairs}
        assert not (defs & vals)


def test_euler_characteristic():
    for cx in (equilateral3(), circle_complex(8)):
        engine = PersistenceEngine(cx, GF(2))
        cells = sum((-1) ** n * len(cx.order(n).cells) for n in range(cx.max_dim + 1))
        # top-dimension bars are computed against an empty higher boundary
        betti = 0
        for n in range(cx.max_dim + 1):
            inf_bars = [b for b in engine.bars(n) if not b.finite]
            betti += (-1) ** n * len(inf_bars)
        assert cells == betti


def test_three_dimensional_image_barcode_against_oracle():
    rng = np.random.default_rng(9)
    cx = FilteredCubicalComplex(rng.random((3, 3, 3)))
    engine = PersistenceEngine(cx, GF(2))
    values = sorted({b for n in range(4) for b in cx.order(n).births})
    for t in values[:: max(1, len(values) // 8)]:
        bettis = betti_numbers(cx, 2, t, 3)
        for n in range(3):
            got = sum(
                1 for b in engine.bars(n) if b.birth_value <= t < b.death_value
            )
            assert got == bettis[n]


def assert_global_order_matches_reference(engine):
    ref = global_order_reference(engine)
    assert engine.n_cells_total == len(ref)
    for g, (n, pos) in enumerate(ref):
        assert engine.global_index(n, pos) == g
        assert engine.global_cell(g) == (n, pos)
    for g in (-1, len(ref), len(ref) + 5):
        with pytest.raises(UsageError):
            engine.global_cell(g)
    for n, pos in ((0, -1), (0, len(engine.order(0))), (-1, 0), (engine.max_dim + 1, 0)):
        with pytest.raises(UsageError):
            engine.global_index(n, pos)


@settings(max_examples=80, deadline=None)
@given(clique_inputs(), st.integers(0, 3))
def test_global_order_matches_sort_on_clique_complexes(case, top):
    d, max_dim, threshold, p = case
    cx = FilteredCliqueComplex(d, max_dim, threshold)
    assert_global_order_matches_reference(PersistenceEngine(cx, GF(p), max_dim=top))


@settings(max_examples=60, deadline=None)
@given(image_inputs())
def test_global_order_matches_sort_on_cubical_complexes(pixels):
    assert_global_order_matches_reference(PersistenceEngine(FilteredCubicalComplex(pixels), GF(3)))


def assert_jordan_columns_at_births_are_cycle_representatives(engine):
    for n in range(engine.max_dim + 1):
        for bar in engine.bars(n):
            g = engine.global_index(bar.dim, bar.birth_pos)
            assert engine.jordan_column(g) == engine.cycle_representative(bar)


@settings(max_examples=80, deadline=None)
@given(clique_inputs(), st.integers(0, 3))
def test_jordan_column_at_a_birth_is_the_cycle_representative_on_clique_complexes(case, top):
    d, max_dim, threshold, p = case
    cx = FilteredCliqueComplex(d, max_dim, threshold)
    engine = PersistenceEngine(cx, GF(p), max_dim=top, keep_empty_bars=True)
    assert_jordan_columns_at_births_are_cycle_representatives(engine)


@settings(max_examples=60, deadline=None)
@given(image_inputs(), st.sampled_from([2, 3, 7]))
def test_jordan_column_at_a_birth_is_the_cycle_representative_on_cubical_complexes(pixels, p):
    engine = PersistenceEngine(FilteredCubicalComplex(pixels), GF(p), keep_empty_bars=True)
    assert_jordan_columns_at_births_are_cycle_representatives(engine)
