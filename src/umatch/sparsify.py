"""Early stopping and coefficient deletion for pivot columns of the domain
matrix.

A pivot column of C may be swapped for any vector that keeps the column
operation matrix valid: unit coefficient at the pivot column index, nothing
below it, and a boundary image supported no lower than the matched row.
Stopping the back-substitution at the first valid partial solution, or
deleting coefficients whose columns cannot disturb the image tail, yields
sparser but equally serviceable domain columns.
"""

from __future__ import annotations

from .decompose import CompressedUmatch
from .errors import InternalInconsistencyError, UsageError
from .matrix import SparseVector, _accumulate, matvec
from .retrieve import PivotBlockProduct, _substitute


def _image_tail_vanishes(u: CompressedUmatch, v: SparseVector, r: int) -> bool:
    """(D v)[i] == 0 for all i > r."""
    t = matvec(u.d, v).trailing()
    return t is None or t[0] <= r


def column_validity_check(u: CompressedUmatch, pivot_col: int, v: SparseVector) -> bool:
    """Whether v can replace column pivot_col of the domain matrix: unit
    coefficient at pivot_col, no support below it, and image vanishing below
    the matched row."""
    r = u.matching.row(pivot_col)
    if r is None:
        raise UsageError(f"column {pivot_col} is not a pivot column")
    t = v.trailing()
    if t is None or t[0] != pivot_col or t[1] != 1:
        return False
    return _image_tail_vanishes(u, v, r)


def early_stop_solve(u: CompressedUmatch, pivot_col: int) -> SparseVector:
    """Back-substitute toward the exact pivot column of C, returning the
    first partial vector that already passes the validity check.

    The exact column always passes, so the procedure cannot fail; in the
    common case where the pivot entry is the lowest nonzero of its column
    the unit vector is returned with no algebraic work.
    """
    f = u.field
    p = u.kappa_pos.get(pivot_col)
    if p is None:
        raise UsageError(f"column {pivot_col} is not a pivot column")
    r = u.rho[u.pi[p]]
    # solve A x = m * e_{pi(p)} through pivot-column positions, descending,
    # keeping the image tail (D x)[i > r] current after every coefficient
    resid = {u.pi[p]: u.m_diag[p]}
    solution: dict[int, int] = {}
    tail: dict[int, int] = {}
    for q, xv, _ in _substitute(PivotBlockProduct(u), resid, "left", u.pi, u.pi_inv):
        solution[q] = xv
        _accumulate(tail, xv, [(i, w) for i, w in u.d.col(u.kappa[q]).entries if i > r], f.p)
        if not tail:
            return u.lift(SparseVector(f, tuple(sorted(solution.items())), _checked=True), u.kappa)
    raise InternalInconsistencyError("exact pivot column failed the validity check")


def delete_coefficients(u: CompressedUmatch, pivot_col: int, v: SparseVector) -> SparseVector:
    """Drop coefficients of the exact pivot column whose own columns of D
    vanish below the matched row; the result still passes the validity check."""
    r = u.matching.row(pivot_col)
    if r is None:
        raise UsageError(f"column {pivot_col} is not a pivot column")
    kept = []
    for c, a in v.entries:
        if c == pivot_col:
            kept.append((c, a))
            continue
        tail = u.d.col(c).trailing()
        if tail is not None and tail[0] > r:
            kept.append((c, a))
    out = SparseVector(u.field, tuple(kept), _checked=True)
    if not column_validity_check(u, pivot_col, out):
        raise InternalInconsistencyError("coefficient deletion broke the validity check")
    return out
