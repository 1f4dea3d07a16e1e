"""Independent dense reference implementations used to check the package.

Everything here is deliberately written from first principles (dense arrays,
textbook elimination) and never calls into the lazy code paths it verifies.
"""

from __future__ import annotations

import itertools


def mod_inv(a: int, p: int) -> int:
    return pow(a % p, p - 2, p)


def rank_profile(rows, p: int) -> list[int]:
    """profile[j] = rank over GF(p) of the rows restricted to columns
    0..j-1, by plain Gaussian elimination, column by column."""
    work = [list(r) for r in rows]
    nr = len(work)
    nc = len(work[0]) if nr else 0
    profile = [0]
    rank = 0
    for j in range(nc):
        piv = next((i for i in range(rank, nr) if work[i][j] % p), None)
        if piv is not None:
            work[rank], work[piv] = work[piv], work[rank]
            inv = mod_inv(work[rank][j], p)
            for i in range(rank + 1, nr):
                if work[i][j] % p:
                    lam = (work[i][j] * inv) % p
                    work[i] = [(a - lam * b) % p for a, b in zip(work[i], work[rank])]
            rank += 1
        profile.append(rank)
    return profile


def rank_mod(rows, p: int) -> int:
    """Rank over GF(p) by plain Gaussian elimination."""
    return rank_profile(rows, p)[-1]


def matching_rank_oracle(d):
    """Support of the matching array of a matrix oracle, from dense
    lower-left corner ranks: (i, j) is in it iff the rank of rows i.. and
    columns ..j exceeds each of its one-step shrinkings by exactly one."""
    dense, p, n = d.to_dense(), d.field.p, d.ncols
    # ranks[i][j] = rank of rows i..m-1, columns 0..j-1
    ranks = [rank_profile(dense[i:], p) for i in range(d.nrows)] + [[0] * (n + 1)]
    return frozenset(
        (i, j) for i in range(d.nrows) for j in range(n)
        if ranks[i][j + 1] - ranks[i + 1][j + 1] - ranks[i][j] + ranks[i + 1][j] == 1
    )


def mat_mul(a, b, p: int):
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            v = a[i][t] % p
            if v:
                row_b = b[t]
                row_o = out[i]
                for j in range(m):
                    row_o[j] = (row_o[j] + v * row_b[j]) % p
    return out


def mat_vec(a, x, p: int):
    return [sum(r[j] * x[j] for j in range(len(x))) % p for r in a]


def vec_mat(x, a, p: int):
    m = len(a[0]) if a else 0
    return [sum(x[i] * a[i][j] for i in range(len(a))) % p for j in range(m)]


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def invert_mod(a, p: int):
    """Inverse of a square matrix over GF(p) by Gauss-Jordan."""
    n = len(a)
    work = [list(r) + ident_row for r, ident_row in zip(a, identity(n))]
    rank = 0
    for j in range(n):
        piv = None
        for i in range(rank, n):
            if work[i][j] % p:
                piv = i
                break
        if piv is None:
            raise ValueError("singular matrix")
        work[rank], work[piv] = work[piv], work[rank]
        inv = mod_inv(work[rank][j], p)
        work[rank] = [(v * inv) % p for v in work[rank]]
        for i in range(n):
            if i != rank and work[i][j] % p:
                lam = work[i][j] % p
                work[i] = [(a2 - lam * b2) % p for a2, b2 in zip(work[i], work[rank])]
        rank += 1
    return [r[n:] for r in work]


def solve_particular_mod(a, b, p: int):
    """One solution of A x = b over GF(p), or None."""
    n = len(a)
    m = len(a[0]) if n else 0
    work = [[a[i][j] % p for j in range(m)] + [b[i] % p] for i in range(n)]
    pivots = []
    rank = 0
    for j in range(m):
        piv = None
        for i in range(rank, n):
            if work[i][j]:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = mod_inv(work[rank][j], p)
        work[rank] = [(v * inv) % p for v in work[rank]]
        for i in range(n):
            if i != rank and work[i][j]:
                lam = work[i][j]
                work[i] = [(u - lam * v) % p for u, v in zip(work[i], work[rank])]
        pivots.append(j)
        rank += 1
    for i in range(rank, n):
        if work[i][m]:
            return None
    x = [0] * m
    for i, j in enumerate(pivots):
        x[j] = work[i][m]
    return x


def kernel_basis_mod(a, p: int):
    """Basis of the null space of A over GF(p)."""
    n = len(a)
    m = len(a[0]) if n else 0
    work = [[v % p for v in row] for row in a]
    pivots = []
    rank = 0
    for j in range(m):
        piv = None
        for i in range(rank, n):
            if work[i][j]:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = mod_inv(work[rank][j], p)
        work[rank] = [(v * inv) % p for v in work[rank]]
        for i in range(n):
            if i != rank and work[i][j]:
                lam = work[i][j]
                work[i] = [(u - lam * v) % p for u, v in zip(work[i], work[rank])]
        pivots.append(j)
        rank += 1
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for j in free:
        vec = [0] * m
        vec[j] = 1
        for i, pj in enumerate(pivots):
            vec[pj] = (-work[i][j]) % p
        basis.append(vec)
    return basis


def all_solutions_gf2(a, b):
    """Every solution of A x = b over GF(2); empty list when inconsistent.
    Intended for systems with at most ~12 free columns."""
    x0 = solve_particular_mod(a, b, 2)
    if x0 is None:
        return []
    basis = kernel_basis_mod(a, 2)
    out = []
    for mask in itertools.product((0, 1), repeat=len(basis)):
        x = list(x0)
        for bit, vec in zip(mask, basis):
            if bit:
                x = [(u + v) % 2 for u, v in zip(x, vec)]
        out.append(x)
    return out


def is_rref_up_to_permutation_and_scale(rows, p: int) -> bool:
    """Every nonzero row leads in a distinct column, and each leading column
    contains no other nonzero entry."""
    leads = {}
    for i, r in enumerate(rows):
        nz = [j for j, v in enumerate(r) if v % p]
        if not nz:
            continue
        j = nz[0]
        if j in leads:
            return False
        leads[j] = i
    for j, i in leads.items():
        for i2, r in enumerate(rows):
            if i2 != i and r[j] % p:
                return False
    return True


# -- chain complexes -------------------------------------------------------

def simplex_faces_signed(cell):
    out = []
    for k in range(len(cell)):
        out.append((cell[:k] + cell[k + 1:], -1 if k % 2 else 1))
    return out


def cube_faces_signed(cell):
    anchor, extent = cell
    out = []
    for j, ax in enumerate(extent):
        rest = tuple(a for a in extent if a != ax)
        sign = -1 if j % 2 else 1
        upper = tuple(anchor[i] + (1 if i == ax else 0) for i in range(len(anchor)))
        out.append(((upper, rest), sign))
        out.append(((anchor, rest), -sign))
    return out


def faces_signed(complex_, cell):
    if complex_.kind == "clique":
        return simplex_faces_signed(cell)
    return cube_faces_signed(cell)


def clique_reference(dissimilarity, max_dim: int, threshold: float):
    """Every filtered clique of a dissimilarity matrix, by brute force over
    vertex subsets: {dim: [(birth, cell)] sorted}.  A subset is admitted
    when every vertex and every pair is within the threshold, and born at the
    largest of its diagonal and pairwise entries."""
    d = [[float(x) for x in row] for row in dissimilarity]
    out = {}
    for dim in range(max_dim + 1):
        cells = []
        for cell in itertools.combinations(range(len(d)), dim + 1):
            birth = max(d[a][b] for a, b in itertools.combinations_with_replacement(cell, 2))
            if birth <= threshold:
                cells.append((birth, cell))
        out[dim] = sorted(cells)
    return out


def cubical_reference(pixels):
    """Every cell of the cubical grid on a pixel array, by brute force over
    anchors and extents: {dim: [(birth, (anchor, extent))] sorted}.  A cell
    spans its anchor pixel and one step along each axis of its extent, and
    is born at the largest pixel it spans."""
    shape = pixels.shape
    out = {dim: [] for dim in range(len(shape) + 1)}
    for steps in itertools.product((0, 1), repeat=len(shape)):
        extent = tuple(ax for ax, step in enumerate(steps) if step)
        for anchor in itertools.product(*(range(size - step) for size, step in zip(shape, steps))):
            corners = itertools.product(*(range(a, a + step + 1) for a, step in zip(anchor, steps)))
            birth = max(float(pixels[c]) for c in corners)
            out[len(extent)].append((birth, (anchor, extent)))
    return {dim: sorted(cells) for dim, cells in out.items()}


def boundary_reference(ref, n: int, p: int, faces_signed):
    """Columns of the boundary from dimension n to n - 1 of a complex given
    as a reference {dim: [(birth, cell)]} and its (face, sign) enumerator:
    sorted (row, coefficient) lists."""
    pos = {cell: i for i, (_, cell) in enumerate(ref[n - 1])}
    return [sorted((pos[face], sign % p) for face, sign in faces_signed(cell)) for _, cell in ref[n]]


def pareto_reference(cols):
    """(i, j) where entry (i, j) leads row i and is the lowest of column j,
    for a matrix given by its sorted (row, coefficient) columns."""
    lead = {}
    for j in range(len(cols) - 1, -1, -1):
        for i, _ in cols[j]:
            lead[i] = j
    return frozenset((i, j) for i, j in lead.items() if cols[j][-1][0] == i)


def dense_boundary(complex_, n: int, p: int, value_cutoff=None):
    """Dense boundary matrix of dimension n, rows/cols in filtration order,
    optionally restricted to cells born at or before value_cutoff."""
    rows_order = complex_.order(n - 1)
    cols_order = complex_.order(n)
    def admitted(order):
        if value_cutoff is None:
            return len(order)
        count = 0
        for b in order.births:
            if b <= value_cutoff:
                count += 1
            else:
                break
        return count
    nr = admitted(rows_order)
    nc = admitted(cols_order)
    out = [[0] * nc for _ in range(nr)]
    for j in range(nc):
        for face, sign in faces_signed(complex_, cols_order.cells[j]):
            i = rows_order.pos[face]
            out[i][j] = (out[i][j] + sign) % p
    return out


def betti_numbers(complex_, p: int, value_cutoff, max_dim: int):
    """dim H_n at the given filtration value, for n = 0..max_dim, by ranks."""
    counts = []
    for n in range(max_dim + 2):
        order = complex_.order(n)
        counts.append(sum(1 for b in order.births if b <= value_cutoff))
    bettis = []
    ranks = [0] * (max_dim + 2)
    for n in range(1, max_dim + 2):
        if counts[n] == 0 or counts[n - 1] == 0:
            ranks[n] = 0
            continue
        ranks[n] = rank_mod(dense_boundary(complex_, n, p, value_cutoff), p)
    for n in range(max_dim + 1):
        bettis.append(counts[n] - ranks[n] - ranks[n + 1])
    return bettis


# -- the standard left-to-right column algorithm ----------------------------

def standard_rdv(dense, p: int):
    """Left-to-right column reduction (the classic persistence algorithm):
    returns (reduced, v, low) with reduced = dense @ v, v upper unitriangular
    and proper, and distinct lows across nonzero reduced columns."""
    m = len(dense)
    n = len(dense[0]) if m else 0
    red = [[dense[i][j] % p for j in range(n)] for i in range(m)]
    v = identity(n)
    low_of = {}

    def low(j):
        for i in range(m - 1, -1, -1):
            if red[i][j]:
                return i
        return None

    for j in range(n):
        lj = low(j)
        while lj is not None and lj in low_of:
            j2 = low_of[lj]
            lam = (red[lj][j] * mod_inv(red[lj][j2], p)) % p
            for i in range(m):
                red[i][j] = (red[i][j] - lam * red[i][j2]) % p
            for i in range(n):
                v[i][j] = (v[i][j] - lam * v[i][j2]) % p
            lj = low(j)
        if lj is not None:
            low_of[lj] = j
    lows = {j2: lj for lj, j2 in low_of.items()}
    return red, v, lows


# -- persistence references -------------------------------------------------

def global_order_reference(engine):
    """Every (dimension, position) of the engine's cells, sorted by (birth,
    dimension, cell key): the total filtration order, materialized."""
    keyed = []
    for n in range(engine.max_dim + 1):
        order = engine.order(n)
        for pos, cell in enumerate(order.cells):
            keyed.append((order.births[pos], n, cell, pos))
    keyed.sort(key=lambda t: (t[0], t[1], t[2]))
    return [(n, pos) for _, n, _, pos in keyed]


def pivot_block_reference(d, clear_rows=frozenset()):
    """(matching pairs, pivot-block rows {row: {row: coeff}}) of the bottom-to-
    top row reduction of a matrix oracle, with dense rows.  As in compressed
    U-match only the pivot-block rows are kept: a modified pivot row is
    rebuilt from its pivot-block row and rows of d, read afresh, every time
    an elimination uses it."""
    p, n = d.field.p, d.ncols

    def dense_row(i):
        out = [0] * n
        for j, v in d.row(i).entries:
            out[j] = v % p
        return out

    rbar, row_of_lead, pairs = {}, {}, []
    for i in range(d.nrows - 1, -1, -1):
        if i in clear_rows:
            continue
        work, ops = dense_row(i), {i: 1}
        while any(work):
            k = next(j for j, v in enumerate(work) if v)
            r = row_of_lead.get(k)
            if r is None:
                rbar[i] = ops
                row_of_lead[k] = i
                pairs.append((i, k, work[k]))
                break
            pivot = [0] * n
            for jj, w in rbar[r].items():
                pivot = [(a + w * b) % p for a, b in zip(pivot, dense_row(jj))]
            lam = work[k] * mod_inv(pivot[k], p) % p
            work = [(a - lam * b) % p for a, b in zip(work, pivot)]
            for jj, w in rbar[r].items():
                ops[jj] = (ops.get(jj, 0) - lam * w) % p
            ops = {jj: w for jj, w in ops.items() if w}
    return sorted(pairs), rbar


def substitute_walk(t, resid, side: str, row_perm):
    """The ordered back-substitution walk: every step of the permuted
    triangle in turn, last column first on the left (t @ x = resid) and
    first column first on the right (y @ t = resid), until resid, updated
    in place, is zero.  Yields (index, coefficient, entries touched) per
    step with a nonzero residual at its key, as the package's heap-driven
    solve must, step for step."""
    p = t.field.p
    k = t.ncols
    if side == "left":
        steps = ((row_perm[j], j, t.col) for j in range(k - 1, -1, -1))
    else:
        steps = ((j, row_perm[j], t.row) for j in range(k))
    for key, idx, line in steps:
        if not resid:
            return
        if not resid.get(key, 0) % p:
            continue
        vec = dict(line(idx).entries)
        xv = resid[key] * mod_inv(vec[key], p) % p
        for i, v in vec.items():
            s = (resid.get(i, 0) - xv * v) % p
            if s:
                resid[i] = s
            else:
                resid.pop(i, None)
        yield idx, xv, len(vec)
