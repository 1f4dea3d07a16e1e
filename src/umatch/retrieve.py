"""Lazy reconstruction of rows and columns of R, R^-1, C, C^-1.

A compressed decomposition stores only D, the matching array, and the pivot
block (R_rho_rho)^(-1).  Everything else is rebuilt on demand from the block
identities, using at most one sparse triangular solve per request.  The
workhorse is the pivot-block product A = (R_rho_rho)^(-1) * D_rho_kappa,
which is upper triangular once its rows are listed in the order of their
matched columns.  A is not stored in full: a row or column is generated by
composing a stored pivot-block vector with rows or columns of D, and kept
in a memo on the decomposition only while the memo holds no more entries
than the pivot block itself (a fixed bound, rbar.nnz; lines are never
evicted).  Every retrieval and solve on one decomposition shares the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .decompose import CompressedUmatch, OpCounter
from .errors import InternalInconsistencyError, UsageError
from .matrix import MatrixOracle, SparseVector, _accumulate, _gather, axpy, scale

_TARGET_KINDS = ("R", "Rinv", "C", "Cinv")
_AXES = ("row", "col")


@dataclass(frozen=True)
class RetrievalTarget:
    which: str
    axis: str
    index: int

    def __post_init__(self):
        if self.which not in _TARGET_KINDS:
            raise UsageError(f"unknown factor {self.which!r}; expected one of {_TARGET_KINDS}")
        if self.axis not in _AXES:
            raise UsageError(f"unknown axis {self.axis!r}; expected 'row' or 'col'")
        if not isinstance(self.index, int) or isinstance(self.index, bool):
            raise UsageError(f"index must be an int, got {self.index!r}")


class PivotBlockProduct(MatrixOracle):
    """Lazy view of A = (R_rho_rho)^(-1) * D_rho_kappa, addressed by pivot
    position.  Row q and column p are generated on demand; permuting rows by
    the matched-column order makes the matrix upper triangular."""

    def __init__(self, u: CompressedUmatch, counter: OpCounter | None = None):
        self.u = u
        self.field = u.field
        k = u.rank
        self.nrows = k
        self.ncols = k
        self.counter = counter

    def row(self, q: int) -> SparseVector:
        self._check_row(q)
        line = self._memoised(("row", q))
        if line is None:
            u = self.u
            full = _product(u.d.row, u.lift(u.rbar.row(q), u.rho), self.counter)
            line = self._built(("row", q), u.restrict(full, u.kappa_pos))
        return line

    def col(self, p: int) -> SparseVector:
        self._check_col(p)
        line = self._memoised(("col", p))
        if line is None:
            u = self.u
            line = self._built(("col", p),
                               _product(u.rbar.col, u.d_col_rho(u.kappa[p]), self.counter))
        return line

    def _memoised(self, key: tuple[str, int]) -> SparseVector | None:
        line = self.u._a_memo.lines.get(key)
        if line is not None and self.counter is not None:
            self.counter.a_memo_hits += 1
        return line

    def _built(self, key: tuple[str, int], line: SparseVector) -> SparseVector:
        if self.counter is not None:
            self.counter.a_lines_built += 1
        self.u._a_memo.store(key, line)
        return line


def _product(line, v: SparseVector, counter: OpCounter | None) -> SparseVector:
    """matvec (line = d.col) or vecmat (line = d.row), counting the entries
    accumulated."""
    out, touched = _gather(line, v)
    if counter is not None:
        counter.axpy_entries += touched
    return out


def _substitute(t: MatrixOracle, resid: dict[int, int], side: str, row_perm, pi_inv):
    """Back-substitution steps for t @ x = resid (left) or y @ t = resid
    (right), updating resid in place.  Yields (index, coefficient, entries
    touched) for every coefficient it determines, so callers may stop early.
    The steps keep the order of a walk over the permuted triangle, but a heap
    of the residual's own steps picks them, each key queued once: a solve
    costs the entries it touches, not the rank.  pi_inv inverts row_perm
    (read on the left side).  A key outside 0..k-1, or one written at a step
    already passed, is never pushed: it stays in resid."""
    f = t.field
    k = t.ncols
    if side == "left":
        # column p removes the residual at row row_perm[p], last column
        # first; key q falls at step p = pi_inv[q], held as -p in the heap
        line, step_of = t.col, lambda q: -pi_inv[q]
        key_idx = lambda h: (row_perm[-h], -h)
    elif side == "right":
        # row row_perm[p] removes the residual at column p, first column first
        line, step_of = t.row, lambda q: q
        key_idx = lambda h: (h, row_perm[h])
    else:
        raise UsageError(f"side must be 'left' or 'right', got {side!r}")
    heap = [step_of(q) for q in resid if 0 <= q < k]
    heapify(heap)
    queued = set(resid)
    while heap:
        h = heappop(heap)
        key, idx = key_idx(h)
        rv = resid.get(key)
        if not rv:
            continue
        vec = line(idx)
        diag = vec.get(key)
        if not diag:
            raise InternalInconsistencyError(f"zero pivot at {side} step {idx}")
        xv = f.div(rv, diag)
        yield idx, xv, _accumulate(resid, -xv, vec.entries, f.p)
        if not resid:
            return
        for q, _ in vec.entries:
            if q not in queued:
                queued.add(q)
                g = step_of(q)
                if g > h:
                    heappush(heap, g)


def triangular_solve(t: MatrixOracle, b: SparseVector, side: str = "left",
                     row_perm=None, counter: OpCounter | None = None) -> SparseVector:
    """Solve t @ x = b (left) or y @ t = b (right) by back-substitution.

    t must be invertible and upper triangular after permuting rows by
    row_perm (row_perm[p] holds column p's pivot; identity when None).
    A missing pivot raises InternalInconsistencyError; on the left side, a
    row_perm that is not a permutation of range(t.ncols) raises UsageError.
    """
    k = t.ncols
    pi_inv = range(k)
    if row_perm is None:
        row_perm = pi_inv
    elif side == "left":
        pi_inv = {q: p for p, q in enumerate(row_perm)}
        if len(row_perm) != k or sorted(pi_inv) != list(range(k)):
            raise UsageError("row_perm must be a permutation of range(t.ncols)")
    return _triangular_solve(t, b, side, row_perm, pi_inv, counter)


def _triangular_solve(t: MatrixOracle, b: SparseVector, side: str, row_perm, pi_inv,
                      counter: OpCounter | None) -> SparseVector:
    """triangular_solve with the inverse pi_inv of row_perm supplied."""
    f = t.field
    if b.field != f:
        raise UsageError("right-hand side lies in a different field")
    if t.nrows != t.ncols:
        raise UsageError("triangular solve requires a square matrix")
    if counter is not None:
        counter.solves += 1
    resid = b.to_dict()
    out: dict[int, int] = {}
    touched = 0
    for idx, xv, n in _substitute(t, resid, side, row_perm, pi_inv):
        out[idx] = xv
        touched += n
    if resid:
        raise InternalInconsistencyError("triangular solve left a nonzero residual")
    if counter is not None:
        counter.axpy_entries += touched
    return SparseVector(f, tuple(sorted(out.items())), _checked=True)


def _plus_unit(v: SparseVector, i: int) -> SparseVector:
    """v + e_i for an index i outside the support of v."""
    return SparseVector(v.field, tuple(sorted(v.entries + ((i, 1),))), _checked=True)


def _outside(v: SparseVector, pos: dict[int, int]) -> SparseVector:
    """-v restricted to the indices not in pos."""
    f = v.field
    return SparseVector(f, tuple((i, f.neg(a)) for i, a in v.entries if i not in pos),
                        _checked=True)


class _Retriever:
    """Implements the dispatch table; one instance per retrieve call."""

    def __init__(self, u: CompressedUmatch):
        self.u = u
        self.f = u.field
        self.counter = OpCounter()
        self.a = PivotBlockProduct(u, counter=self.counter)

    # -- solves against A ---------------------------------------------

    def solve_a_left(self, b: SparseVector) -> SparseVector:
        """x with A x = b (b in pivot-row positions, x in pivot-col positions)."""
        return _triangular_solve(self.a, b, "left", self.u.pi, self.u.pi_inv, self.counter)

    def solve_a_right(self, c: SparseVector) -> SparseVector:
        """y with y A = c (c in pivot-col positions, y in pivot-row positions)."""
        return _triangular_solve(self.a, c, "right", self.u.pi, self.u.pi_inv, self.counter)

    # -- rows ----------------------------------------------------------

    def row_rinv(self, i: int) -> SparseVector:
        u = self.u
        q = u.rho_pos.get(i)
        if q is not None:
            # pivot row: permute/pad the stored pivot-block row, zero solves
            return u.lift(u.rbar.row(q), u.rho)
        z = self.solve_a_right(scale(-1, u.d_row_kappa(i)))
        return _plus_unit(u.lift(_product(u.rbar.row, z, self.counter), u.rho), i)

    def row_r(self, i: int) -> SparseVector:
        u, f = self.u, self.f
        q = u.rho_pos.get(i)
        if q is not None:
            x = triangular_solve(u.rbar, SparseVector.unit(f, q), side="right",
                                 counter=self.counter)
            return u.lift(x, u.rho)
        return _plus_unit(u.lift(self.solve_a_right(u.d_row_kappa(i)), u.rho), i)

    def row_cinv(self, j: int) -> SparseVector:
        u, f = self.u, self.f
        p = u.kappa_pos.get(j)
        if p is None:
            return SparseVector.unit(f, j)
        # (C^-1)_{kappa,*} = M_rk^-1 (R_rr)^-1 D_{rho,*}: scale one pivot-block
        # row and stream it through the rows of D; zero solves
        coeffs = scale(f.inv(u.m_diag[p]), u.rbar.row(u.pi[p]))
        return _product(u.d.row, u.lift(coeffs, u.rho), self.counter)

    def row_c(self, j: int) -> SparseVector:
        u, f = self.u, self.f
        p = u.kappa_pos.get(j)
        if p is None:
            return SparseVector.unit(f, j)
        x = self.solve_a_right(SparseVector.unit(f, p))
        # kappa block: x * M_rho_kappa; kappa_bar block: -(x * rbar) * D_{rho, kappa_bar}
        pi_inv = u.pi_inv
        kappa_part = sorted((u.kappa[pi_inv[q]], f.mul(v, u.m_diag[pi_inv[q]]))
                            for q, v in x.entries)
        z = _product(u.rbar.row, x, self.counter)
        full = _product(u.d.row, u.lift(z, u.rho), self.counter)
        return axpy(1, SparseVector(f, tuple(kappa_part), _checked=True),
                    _outside(full, u.kappa_pos))

    # -- columns -------------------------------------------------------

    def col_rinv(self, i: int) -> SparseVector:
        u = self.u
        q = u.rho_pos.get(i)
        if q is None:
            return SparseVector.unit(self.f, i)
        w = u.rbar.col(q)
        full = _product(u.d.col, u.lift(self.solve_a_left(w), u.kappa), self.counter)
        return axpy(1, u.lift(w, u.rho), _outside(full, u.rho_pos))

    def col_r(self, i: int) -> SparseVector:
        u = self.u
        q = u.rho_pos.get(i)
        if q is None:
            return SparseVector.unit(self.f, i)
        x = self.solve_a_left(SparseVector.unit(self.f, q))
        return _product(u.d.col, u.lift(x, u.kappa), self.counter)

    def col_cinv(self, j: int) -> SparseVector:
        u, f = self.u, self.f
        w = _product(u.rbar.col, u.d_col_rho(j), self.counter)
        # position p with pi[p] == q carries 1 / m_diag[p]
        pi_inv = u.pi_inv
        out = SparseVector(f, tuple(sorted((u.kappa[pi_inv[q]], f.div(v, u.m_diag[pi_inv[q]]))
                                           for q, v in w.entries)), _checked=True)
        return out if j in u.kappa_pos else _plus_unit(out, j)

    def col_c(self, j: int) -> SparseVector:
        u, f = self.u, self.f
        p = u.kappa_pos.get(j)
        if p is not None:
            x = self.solve_a_left(SparseVector.unit(f, u.pi[p], u.m_diag[p]))
            return u.lift(x, u.kappa)
        w = _product(u.rbar.col, u.d_col_rho(j), self.counter)
        return _plus_unit(u.lift(self.solve_a_left(scale(-1, w)), u.kappa), j)

    def run(self, t: RetrievalTarget) -> SparseVector:
        u = self.u
        bound = u.d.nrows if t.which in ("R", "Rinv") else u.d.ncols
        if not 0 <= t.index < bound:
            raise UsageError(f"index {t.index} out of range for {t.which} {t.axis}")
        method = {
            ("Rinv", "row"): self.row_rinv,
            ("R", "row"): self.row_r,
            ("Cinv", "row"): self.row_cinv,
            ("C", "row"): self.row_c,
            ("Rinv", "col"): self.col_rinv,
            ("R", "col"): self.col_r,
            ("Cinv", "col"): self.col_cinv,
            ("C", "col"): self.col_c,
        }[(t.which, t.axis)]
        return method(t.index)


def retrieve(u: CompressedUmatch, t: RetrievalTarget) -> SparseVector:
    """The requested row or column of the proper decomposition determined by
    u, fully materialized with entries ascending."""
    return _Retriever(u).run(t)


def retrieve_with_stats(u: CompressedUmatch, t: RetrievalTarget) -> tuple[SparseVector, OpCounter]:
    """retrieve(u, t) with the counts of its work.  Lines of A served from
    u's memo count as a_memo_hits and add no axpy_entries, so axpy_entries
    depends on the calls made on u before; solves does not."""
    r = _Retriever(u)
    vec = r.run(t)
    return vec, r.counter


def solve_count_audit(u: CompressedUmatch, t: RetrievalTarget) -> int:
    """Number of triangular solves performed by retrieve(u, t); at most 1."""
    _, counter = retrieve_with_stats(u, t)
    return counter.solves
