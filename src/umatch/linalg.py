"""Linear-algebra services on top of a compressed decomposition: system
solving with support-extremal solutions, bases for kernels, images, inverse
images and their lattice meets/joins, and conversions to LU, echelon, and
right-reduced forms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .decompose import CompressedUmatch, FullUmatch, MatchingArray
from .errors import UsageError
from .matrix import (
    MatrixOracle,
    SparseVector,
    StoredCsMatrix,
    _accumulate,
    matvec,
    vecmat,
)
from .retrieve import PivotBlockProduct, RetrievalTarget, _Retriever, retrieve, triangular_solve


class Sentinel:
    """A falsy typed outcome that is not an error, such as an inconsistent
    linear system; each instance is a singleton compared with `is`."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name

    def __bool__(self):
        return False


NO_SOLUTION = Sentinel("NoSolution")


def solve_dx_b(u: CompressedUmatch, b: SparseVector) -> Union[SparseVector, Sentinel]:
    """Solve D x = b; the returned solution minimizes max supp(x) over all
    solutions.  Returns NO_SOLUTION when b is outside the column space."""
    if b.field != u.field:
        raise UsageError("right-hand side lies in a different field")
    if b.entries and b.entries[-1][0] >= u.d.nrows:
        raise UsageError("right-hand side longer than the codomain")
    w = matvec(u.rbar, u.restrict(b, u.rho_pos))
    x = u.lift(_Retriever(u).solve_a_left(w), u.kappa)
    if matvec(u.d, x) != b:
        return NO_SOLUTION
    return x


def solve_yd_c(u: CompressedUmatch, c: SparseVector) -> Union[SparseVector, Sentinel]:
    """Solve y D = c; the returned solution maximizes min supp(y) over all
    solutions.  Returns NO_SOLUTION when c is outside the row space."""
    if c.field != u.field:
        raise UsageError("right-hand side lies in a different field")
    if c.entries and c.entries[-1][0] >= u.d.ncols:
        raise UsageError("right-hand side longer than the domain")
    t = _Retriever(u).solve_a_right(u.restrict(c, u.kappa_pos))
    y = u.lift(vecmat(t, u.rbar), u.rho)
    if vecmat(y, u.d) != c:
        return NO_SOLUTION
    return y


def kernel_coords(u: CompressedUmatch, b: SparseVector, side: str = "right") -> SparseVector:
    """Coordinates of a kernel vector in the decomposition bases, obtained by
    zeroing pivot coordinates; no triangular solve is performed.

    right: b with D b = 0 yields C^-1 b; left: b with b D = 0 yields b R^-1.
    """
    f = u.field
    if side == "right":
        if matvec(u.d, b):
            raise UsageError("input is not in the kernel of D")
        drop = u.kappa_pos
    elif side == "left":
        if vecmat(b, u.d):
            raise UsageError("input is not in the left kernel of D")
        drop = u.rho_pos
    else:
        raise UsageError(f"side must be 'left' or 'right', got {side!r}")
    return SparseVector(f, tuple((i, v) for i, v in b.entries if i not in drop), _checked=True)


# -- subspace bases ------------------------------------------------------

@dataclass(frozen=True)
class DomainStep:
    """The subspace of domain vectors supported on the first p coordinates."""
    p: int


@dataclass(frozen=True)
class CodomainStep:
    """The subspace of codomain vectors supported on the first p coordinates."""
    p: int


@dataclass(frozen=True)
class PreimageStep:
    """Inverse image under D of the first-p-coordinates codomain subspace.
    p = 0 gives the kernel."""
    p: int


@dataclass(frozen=True)
class ImageStep:
    """Image under D of the first-p-coordinates domain subspace.
    p = ncols gives the full image."""
    p: int


@dataclass(frozen=True)
class Meet:
    left: object
    right: object


@dataclass(frozen=True)
class Join:
    left: object
    right: object


def kernel_space() -> PreimageStep:
    return PreimageStep(0)


def image_space(u: CompressedUmatch) -> ImageStep:
    return ImageStep(u.d.ncols)


@dataclass(frozen=True)
class SubspaceBasis:
    """Basis referencing columns of the decomposition factors.

    factor is 'C' (domain side) or 'R' (codomain side); generators are the
    referenced column indices, ascending.
    """

    factor: str
    generators: tuple[int, ...]
    ambient: int

    @property
    def dimension(self) -> int:
        return len(self.generators)

    def materialize(self, u: CompressedUmatch) -> list[SparseVector]:
        return [retrieve(u, RetrievalTarget(self.factor, "col", g)) for g in self.generators]


def eval_lattice(space, leaf) -> tuple[str, frozenset[int]]:
    """Evaluate a Meet/Join expression: leaf maps every other node to
    (tag, generator set); meets intersect and joins unite generator sets,
    whose tags must agree."""
    if isinstance(space, (Meet, Join)):
        tl, gl = eval_lattice(space.left, leaf)
        tr, gr = eval_lattice(space.right, leaf)
        if tl != tr:
            raise UsageError("cannot mix domain and codomain subspaces")
        return (tl, gl & gr if isinstance(space, Meet) else gl | gr)
    return leaf(space)


def _space_leaf(u: CompressedUmatch, space) -> tuple[str, frozenset[int]]:
    m = u.matching
    if isinstance(space, DomainStep):
        if not 0 <= space.p <= u.d.ncols:
            raise UsageError("filtration step out of range")
        return ("C", frozenset(range(space.p)))
    if isinstance(space, CodomainStep):
        if not 0 <= space.p <= u.d.nrows:
            raise UsageError("filtration step out of range")
        return ("R", frozenset(range(space.p)))
    if isinstance(space, PreimageStep):
        if not 0 <= space.p <= u.d.nrows:
            raise UsageError("filtration step out of range")
        gens = set(m.kappa_bar)
        gens.update(c for c in m.kappa if m.row(c) < space.p)
        return ("C", frozenset(gens))
    if isinstance(space, ImageStep):
        if not 0 <= space.p <= u.d.ncols:
            raise UsageError("filtration step out of range")
        return ("R", frozenset(r for r, c, _ in m.pairs if c < space.p))
    raise UsageError(f"unrecognized subspace expression {space!r}")


def subspace_basis(u: CompressedUmatch, space) -> SubspaceBasis:
    """Basis for a subspace in the lattice generated by the coordinate
    filtrations and their images/preimages under D; generators are selected
    from the columns of C (domain side) or R (codomain side) by the sparsity
    pattern of the matching array, and meets/joins are taken generator-wise.
    """
    factor, gens = eval_lattice(space, lambda leaf: _space_leaf(u, leaf))
    ambient = u.d.ncols if factor == "C" else u.d.nrows
    return SubspaceBasis(factor, tuple(sorted(gens)), ambient)


# -- related factorizations ----------------------------------------------

def to_lu(u: CompressedUmatch) -> tuple[StoredCsMatrix, StoredCsMatrix, StoredCsMatrix, StoredCsMatrix]:
    """(L, P, N, U) with L P = N U, L lower unitriangular, U upper
    unitriangular, P a generalized permutation: the pivot blocks of the
    decomposition conjugated by the exchange permutation, which maps index
    i to k - 1 - i.  Each factor is built from the entries of sparse
    solves, with no dense k x k copy."""
    f = u.field
    k = u.rank
    a = PivotBlockProduct(u)
    l, pm, nm, um = [], [], [], []
    for p in range(k):
        # column p of R_rho_rho, the inverse of the stored pivot block
        x = triangular_solve(u.rbar, SparseVector.unit(f, p), side="left")
        l.extend((k - 1 - i, k - 1 - p, v) for i, v in x.entries)
        pm.append((k - 1 - u.pi[p], p, u.m_diag[p]))
        nm.extend((k - 1 - q, p, v) for q, v in u.d_col_rho(u.kappa[p]).entries)
        # column p of C_kappa_kappa solves A x = col_p(M_rho_kappa)
        x = triangular_solve(a, SparseVector.unit(f, u.pi[p], u.m_diag[p]),
                             side="left", row_perm=u.pi)
        um.extend((i, p, v) for i, v in x.entries)
    return tuple(StoredCsMatrix.from_triplets(f, k, k, t) for t in (l, pm, nm, um))


class _RowEchelonOracle(MatrixOracle):
    """Lazy row echelon form: pivot rows are rescaled reduced rows, rows at
    unmatched indices are zero."""

    def __init__(self, u: CompressedUmatch):
        self.u = u
        self.field = u.field
        self.nrows = u.d.nrows
        self.ncols = u.d.ncols

    def row(self, i: int) -> SparseVector:
        self._check_row(i)
        u = self.u
        q = u.rho_pos.get(i)
        if q is None:
            return SparseVector.zero(self.field)
        # row rho_q carries the pivot of column kappa_p, p = pi_inv[q];
        # normalize so that leading entries match M and the pivot block is
        # a permutation
        p = u.pi_inv[q]
        x = _Retriever(u).solve_a_right(SparseVector.unit(self.field, p, u.m_diag[p]))
        return vecmat(u.lift(vecmat(x, u.rbar), u.rho), u.d)

    def col(self, j: int) -> SparseVector:
        self._check_col(j)
        u = self.u
        f = self.field
        x = _Retriever(u).solve_a_left(matvec(u.rbar, u.d_col_rho(j)))
        ent = sorted((u.rho[u.pi[p]], f.mul(v, u.m_diag[p])) for p, v in x.entries)
        return SparseVector(f, tuple(ent), _checked=True)


def to_echelon(u: CompressedUmatch, orientation: str = "row") -> MatrixOracle:
    """Reduced echelon oracle (row or column orientation), exact up to row/
    column permutation and leading-entry scaling.  The column form is the
    reduced matrix R @ M."""
    if orientation == "row":
        return _RowEchelonOracle(u)
    if orientation == "column":
        return umatch_to_rdv(u).reduced
    raise UsageError(f"orientation must be 'row' or 'column', got {orientation!r}")


# -- right-reduction bridge ------------------------------------------------

@dataclass
class RdvDecomposition:
    """Right-reduction triple: reduced = d @ v with v upper unitriangular and
    the nonzero columns of `reduced` having distinct lowest nonzero rows."""

    reduced: MatrixOracle
    v: MatrixOracle
    low: dict[int, int]
    d: Optional[MatrixOracle] = None


class _Factor(MatrixOracle):
    """Lazy view of one factor of the proper decomposition determined by u
    (which is 'R', 'Rinv', 'C' or 'Cinv'); each line is one retrieval, which
    checks its index."""

    def __init__(self, u: CompressedUmatch, which: str):
        self.u, self.which = u, which
        self.field = u.field
        self.nrows = self.ncols = u.d.nrows if which.startswith("R") else u.d.ncols

    def row(self, i: int) -> SparseVector:
        return retrieve(self.u, RetrievalTarget(self.which, "row", i))

    def col(self, j: int) -> SparseVector:
        return retrieve(self.u, RetrievalTarget(self.which, "col", j))


class _Product(MatrixOracle):
    """Lazy view of a @ b: a row is a combination of rows of b, a column a
    combination of columns of a; a.row and b.col check the index."""

    def __init__(self, a: MatrixOracle, b: MatrixOracle):
        self.a, self.b = a, b
        self.field = a.field
        self.nrows, self.ncols = a.nrows, b.ncols

    def row(self, i: int) -> SparseVector:
        return vecmat(self.a.row(i), self.b)

    def col(self, j: int) -> SparseVector:
        return matvec(self.a, self.b.col(j))


def umatch_to_rdv(u: CompressedUmatch) -> RdvDecomposition:
    """R @ M = D @ C is already a right-reduction; expose it lazily."""
    low = {c: r for r, c, _ in u.matching.pairs}
    reduced = _Product(_Factor(u, "R"), u.matching.to_oracle(u.field))
    return RdvDecomposition(reduced, _Factor(u, "C"), low, d=u.d)


def rdv_to_umatch(rdv: RdvDecomposition) -> FullUmatch:
    """Eliminate the reduced matrix bottom-up into a matching matrix; the
    recorded row operations and the given v constitute a proper U-match
    decomposition when v is proper.

    Once the rows below i are fully reduced, each is a single matching entry,
    so clearing row i means deleting its non-low entries one by one while
    accumulating the corresponding composite row operations.
    """
    red = rdv.reduced
    v = rdv.v
    f = red.field
    m, n = red.nrows, red.ncols
    _check_unitriangular(v)
    low_of_col: dict[int, int] = {}
    pivot_val: dict[int, int] = {}
    low_rows: set[int] = set()
    for j in range(n):
        t = red.col(j).trailing()
        if t is not None:
            if t[0] in low_rows:
                raise UsageError("input is not reduced: repeated low row")
            low_rows.add(t[0])
            low_of_col[j] = t[0]
            pivot_val[j] = t[1]
    rinv_rows: dict[int, dict[int, int]] = {}
    pairs: list[tuple[int, int, int]] = []
    for i in range(m - 1, -1, -1):
        ops = {i: 1}
        keep = None
        for c, val in red.row(i).entries:
            j = low_of_col[c]
            if j == i:
                keep = (c, val)
                continue
            _accumulate(ops, -f.div(val, pivot_val[c]), rinv_rows[j].items(), f.p)
        rinv_rows[i] = ops
        if keep is not None:
            pairs.append((i, keep[0], keep[1]))
    matching = MatchingArray(m, n, pairs)
    rinv = StoredCsMatrix.from_row_dicts(f, m, m, rinv_rows)
    cinv = _invert_unitriangular(v)
    d = rdv.d if rdv.d is not None else _Product(red, cinv)
    return FullUmatch(d, rinv, cinv, matching)


def rdv_bridge(x: Union[RdvDecomposition, FullUmatch, CompressedUmatch]):
    """Convert between right-reductions and U-match decompositions."""
    if isinstance(x, RdvDecomposition):
        return rdv_to_umatch(x)
    if isinstance(x, CompressedUmatch):
        return umatch_to_rdv(x)
    if isinstance(x, FullUmatch):
        return umatch_to_rdv_full(x)
    raise UsageError(f"cannot bridge {type(x).__name__}")


def _check_unitriangular(v: MatrixOracle) -> None:
    if v.nrows != v.ncols:
        raise UsageError("column operation matrix must be square")
    for j in range(v.ncols):
        t = v.col(j).trailing()
        if t is None or t[0] != j or t[1] != 1:
            raise UsageError("column operation matrix must be upper unitriangular")


def _invert_unitriangular(v: MatrixOracle) -> StoredCsMatrix:
    f, n = v.field, v.ncols
    return StoredCsMatrix.from_triplets(f, n, n, (
        (i, j, val) for j in range(n)
        for i, val in triangular_solve(v, SparseVector.unit(f, j), side="left").entries))


def umatch_to_rdv_full(fu: FullUmatch) -> RdvDecomposition:
    c = _invert_unitriangular(fu.cinv)
    low = {cc: r for r, cc, _ in fu.matching.pairs}
    return RdvDecomposition(_Product(fu.d, c), c, low, d=fu.d)
