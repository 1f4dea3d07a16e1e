"""Sparse vectors, stored sparse matrices, and lazy matrix oracles.

Every matrix in the package is consumed through the read-only
:class:`MatrixOracle` interface, which produces rows and columns as
:class:`SparseVector` values with entries in ascending index order.  Stored
arrays, anti-transposes, and submatrix views all implement the same
interface, so downstream code never needs to know whether a matrix is held
in memory or generated on the fly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .coeff import Field, FieldElement
from .errors import UsageError


class SparseVector:
    """Ordered (index, coefficient) pairs over a prime field.

    Indices are strictly increasing and no zero coefficient is stored.
    """

    __slots__ = ("field", "entries")

    def __init__(self, field: Field, entries: Iterable[tuple[int, int]], _checked: bool = False):
        entries = tuple(entries)
        if not _checked:
            prev = -1
            for i, v in entries:
                if i <= prev:
                    raise UsageError(f"indices not strictly increasing at {i}")
                if not 0 < v < field.p:
                    raise UsageError(f"coefficient {v} out of range for {field!r}")
                prev = i
        self.field = field
        self.entries = entries

    @classmethod
    def zero(cls, field: Field) -> "SparseVector":
        return cls(field, (), _checked=True)

    @classmethod
    def unit(cls, field: Field, i: int, coeff: int = 1) -> "SparseVector":
        coeff = field.normalize(coeff)
        if coeff == 0:
            return cls.zero(field)
        return cls(field, ((i, coeff),), _checked=True)

    @classmethod
    def from_dict(cls, field: Field, d: dict[int, int]) -> "SparseVector":
        items = [(i, field.normalize(v)) for i, v in sorted(d.items())]
        return cls(field, tuple((i, v) for i, v in items if v), _checked=True)

    @classmethod
    def from_pairs(cls, field: Field, pairs: Iterable[tuple[int, int]]) -> "SparseVector":
        """Build from possibly unsorted / duplicated pairs, combining mod p."""
        acc: dict[int, int] = {}
        _accumulate(acc, 1, tuple(pairs), field.p)
        return cls.from_dict(field, acc)

    def get(self, i: int) -> int:
        for j, v in self.entries:
            if j == i:
                return v
            if j > i:
                return 0
        return 0

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def leading(self) -> Optional[tuple[int, int]]:
        """Entry of minimum index, or None for the zero vector."""
        return self.entries[0] if self.entries else None

    def trailing(self) -> Optional[tuple[int, int]]:
        """Entry of maximum index, or None for the zero vector."""
        return self.entries[-1] if self.entries else None

    def to_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def to_dense(self, n: int) -> list[int]:
        out = [0] * n
        for i, v in self.entries:
            out[i] = v
        return out

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseVector)
            and other.field == self.field
            and other.entries == self.entries
        )

    def __hash__(self) -> int:
        return hash((self.field, self.entries))

    def __repr__(self) -> str:
        return f"SparseVector({self.field!r}, {list(self.entries)})"


def _alpha_value(field: Field, alpha) -> int:
    if isinstance(alpha, FieldElement):
        if alpha.field != field:
            raise UsageError("scalar belongs to a different field")
        return alpha.value
    return field.normalize(alpha)


def scale(alpha, x: SparseVector) -> SparseVector:
    f = x.field
    a = _alpha_value(f, alpha)
    if a == 0:
        return SparseVector.zero(f)
    if a == 1:
        return x
    return SparseVector(f, tuple((i, f.mul(a, v)) for i, v in x.entries), _checked=True)


def axpy(alpha, x: SparseVector, y: SparseVector) -> SparseVector:
    """alpha * x + y, scattered onto a dict of y's entries."""
    f = x.field
    if y.field != f:
        raise UsageError("axpy operands lie in different fields")
    a = _alpha_value(f, alpha)
    if a == 0:
        return y
    acc = dict(y.entries)
    _accumulate(acc, a, x.entries, f.p)
    return SparseVector(f, tuple(sorted(acc.items())), _checked=True)


def dot(x: SparseVector, y: SparseVector) -> int:
    f = x.field
    if y.field != f:
        raise UsageError("dot operands lie in different fields")
    xs = x.to_dict()
    return sum(v * xs.get(i, 0) for i, v in y.entries) % f.p


class MatrixOracle:
    """Read-only matrix with lazily generated rows and columns.

    Implementations must return entries in strictly ascending index order
    and must satisfy row(i)[j] == col(j)[i].
    """

    field: Field
    nrows: int
    ncols: int
    #: whether the Pareto-pair short circuit may probe this oracle
    pareto_enabled: bool = True

    def row(self, i: int) -> SparseVector:
        raise NotImplementedError

    def col(self, j: int) -> SparseVector:
        raise NotImplementedError

    def _check_row(self, i: int) -> None:
        if not 0 <= i < self.nrows:
            raise UsageError(f"row index {i} out of range [0, {self.nrows})")

    def _check_col(self, j: int) -> None:
        if not 0 <= j < self.ncols:
            raise UsageError(f"column index {j} out of range [0, {self.ncols})")

    def pareto_leading(self, i: int) -> Optional[tuple[int, int]]:
        """Row i's apparent pair (see _apparent_pair), or None when this
        oracle declines the probe.  Subclasses may override with a cheaper
        test, or return None to opt out of the short circuit.
        """
        return _apparent_pair(self, i) if self.pareto_enabled else None

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for i in range(self.nrows):
            for j, v in self.row(i):
                out[i][j] = v
        return out

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)


def _apparent_pair(d: MatrixOracle, i: int) -> Optional[tuple[int, int]]:
    """(j, coeff) when D[i, j] is both the leading entry of row i and the
    lowest entry of column j; None otherwise."""
    lead = d.row(i).leading()
    if lead is None:
        return None
    trail = d.col(lead[0]).trailing()
    if trail is not None and trail[0] == i:
        return lead
    return None


class StoredCsMatrix(MatrixOracle):
    """Row-major compressed sparse matrix; a column-major twin is built the
    first time column access is requested."""

    def __init__(self, field: Field, nrows: int, ncols: int,
                 row_ptr: list[int], col_idx: list[int], vals: list[int]):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._row_ptr = row_ptr
        self._col_idx = col_idx
        self._vals = vals
        self._csc: Optional[tuple[list[int], list[int], list[int]]] = None

    @classmethod
    def from_rows(cls, field: Field, nrows: int, ncols: int,
                  rows: Sequence[Iterable[tuple[int, int]]]) -> "StoredCsMatrix":
        row_ptr = [0]
        col_idx: list[int] = []
        vals: list[int] = []
        for r in rows:
            prev = -1
            for j, v in r:
                if not 0 <= j < ncols:
                    raise UsageError(f"column index {j} out of range")
                if j <= prev:
                    raise UsageError("row entries not strictly increasing")
                prev = j
                v = field.normalize(v)
                if v:
                    col_idx.append(j)
                    vals.append(v)
            row_ptr.append(len(col_idx))
        if len(row_ptr) - 1 != nrows:
            raise UsageError(f"expected {nrows} rows, got {len(row_ptr) - 1}")
        return cls(field, nrows, ncols, row_ptr, col_idx, vals)

    @classmethod
    def from_row_dicts(cls, field: Field, nrows: int, ncols: int,
                       rows: dict[int, dict[int, int]]) -> "StoredCsMatrix":
        return cls.from_rows(
            field, nrows, ncols,
            [sorted(rows.get(i, {}).items()) for i in range(nrows)],
        )

    @classmethod
    def from_dense(cls, field: Field, array: Sequence[Sequence[int]]) -> "StoredCsMatrix":
        nrows = len(array)
        ncols = len(array[0]) if nrows else 0
        rows = [
            [(j, field.normalize(v)) for j, v in enumerate(r) if field.normalize(v)]
            for r in array
        ]
        return cls.from_rows(field, nrows, ncols, rows)

    @classmethod
    def from_triplets(cls, field: Field, nrows: int, ncols: int,
                      triples: Iterable[tuple[int, int, int]]) -> "StoredCsMatrix":
        acc: dict[int, dict[int, int]] = {}
        for i, j, v in triples:
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise UsageError(f"entry ({i}, {j}) out of range")
            r = acc.setdefault(i, {})
            r[j] = field.add(r.get(j, 0), field.normalize(v))
        rows = {i: {j: v for j, v in r.items() if v} for i, r in acc.items()}
        return cls.from_row_dicts(field, nrows, ncols, rows)

    @classmethod
    def identity(cls, field: Field, n: int) -> "StoredCsMatrix":
        return cls(field, n, n, list(range(n + 1)), list(range(n)), [1] * n)

    def _build_csc(self) -> None:
        counts = [0] * (self.ncols + 1)
        for j in self._col_idx:
            counts[j + 1] += 1
        for j in range(self.ncols):
            counts[j + 1] += counts[j]
        col_ptr = counts
        row_idx = [0] * len(self._col_idx)
        cvals = [0] * len(self._col_idx)
        cursor = list(col_ptr[:-1])
        for i in range(self.nrows):
            for k in range(self._row_ptr[i], self._row_ptr[i + 1]):
                j = self._col_idx[k]
                pos = cursor[j]
                row_idx[pos] = i
                cvals[pos] = self._vals[k]
                cursor[j] = pos + 1
        self._csc = (col_ptr, row_idx, cvals)

    def row(self, i: int) -> SparseVector:
        self._check_row(i)
        lo, hi = self._row_ptr[i], self._row_ptr[i + 1]
        return SparseVector(
            self.field,
            tuple(zip(self._col_idx[lo:hi], self._vals[lo:hi])),
            _checked=True,
        )

    def col(self, j: int) -> SparseVector:
        self._check_col(j)
        if self._csc is None:
            self._build_csc()
        col_ptr, row_idx, cvals = self._csc
        lo, hi = col_ptr[j], col_ptr[j + 1]
        return SparseVector(
            self.field,
            tuple(zip(row_idx[lo:hi], cvals[lo:hi])),
            _checked=True,
        )

    @property
    def nnz(self) -> int:
        return len(self._vals)

    def nnz_offdiag(self) -> int:
        count = 0
        for i in range(self.nrows):
            for k in range(self._row_ptr[i], self._row_ptr[i + 1]):
                if self._col_idx[k] != i:
                    count += 1
        return count


class _AntitransposeView(MatrixOracle):
    def __init__(self, base: MatrixOracle):
        self.base = base
        self.field = base.field
        self.nrows = base.ncols
        self.ncols = base.nrows
        self.pareto_enabled = base.pareto_enabled

    def row(self, i: int) -> SparseVector:
        self._check_row(i)
        src = self.base.col(self.base.ncols - 1 - i)
        m = self.base.nrows
        return SparseVector(
            self.field,
            tuple((m - 1 - r, v) for r, v in reversed(src.entries)),
            _checked=True,
        )

    def col(self, j: int) -> SparseVector:
        self._check_col(j)
        src = self.base.row(self.base.nrows - 1 - j)
        n = self.base.ncols
        return SparseVector(
            self.field,
            tuple((n - 1 - c, v) for c, v in reversed(src.entries)),
            _checked=True,
        )


def antitranspose_view(d: MatrixOracle) -> MatrixOracle:
    """Transpose composed with reversal of row and column order; no copying.
    Applying it twice unwraps to the original oracle."""
    if isinstance(d, _AntitransposeView):
        return d.base
    return _AntitransposeView(d)


class _SubmatrixView(MatrixOracle):
    def __init__(self, base: MatrixOracle, rows: Sequence[int], cols: Sequence[int]):
        rows = tuple(rows)
        cols = tuple(cols)
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise UsageError("submatrix index sequences must be duplicate-free")
        for r in rows:
            if not 0 <= r < base.nrows:
                raise UsageError(f"row index {r} out of range")
        for c in cols:
            if not 0 <= c < base.ncols:
                raise UsageError(f"column index {c} out of range")
        self.base = base
        self.field = base.field
        self.rows = rows
        self.cols = cols
        self.nrows = len(rows)
        self.ncols = len(cols)
        self.pareto_enabled = base.pareto_enabled
        self._row_pos = {r: i for i, r in enumerate(rows)}
        self._col_pos = {c: j for j, c in enumerate(cols)}

    def row(self, i: int) -> SparseVector:
        self._check_row(i)
        src = self.base.row(self.rows[i])
        pos = self._col_pos
        picked = sorted((pos[j], v) for j, v in src.entries if j in pos)
        return SparseVector(self.field, tuple(picked), _checked=True)

    def col(self, j: int) -> SparseVector:
        self._check_col(j)
        src = self.base.col(self.cols[j])
        pos = self._row_pos
        picked = sorted((pos[i], v) for i, v in src.entries if i in pos)
        return SparseVector(self.field, tuple(picked), _checked=True)


def submatrix_view(d: MatrixOracle, rows: Sequence[int], cols: Sequence[int]) -> MatrixOracle:
    """Lazy view of d at the given row/column index sequences (no copying)."""
    return _SubmatrixView(d, rows, cols)


def _accumulate(acc: dict[int, int], alpha: int, entries, p: int) -> int:
    """acc += alpha * entries (mod p) in place, deleting keys that cancel;
    returns the number of entries touched.  The package's only scatter loop."""
    for i, v in entries:
        s = (acc.get(i, 0) + alpha * v) % p
        if s:
            acc[i] = s
        else:
            acc.pop(i, None)
    return len(entries)


def _gather(line, v: SparseVector) -> tuple[SparseVector, int]:
    """The sum of v[k] * line(k) over the support of v, and the number of
    entries accumulated.  The package's only gather loop, behind matvec
    (line = d.col) and vecmat (line = d.row)."""
    f = v.field
    acc: dict[int, int] = {}
    touched = 0
    for k, a in v.entries:
        touched += _accumulate(acc, a, line(k).entries, f.p)
    return SparseVector(f, tuple(sorted(acc.items())), _checked=True), touched


def matvec(d: MatrixOracle, v: SparseVector) -> SparseVector:
    """d @ v as a sparse combination of columns of d."""
    if v.field != d.field:
        raise UsageError("vector field does not match matrix field")
    if v.entries and v.entries[-1][0] >= d.ncols:
        raise UsageError("vector index exceeds matrix column count")
    return _gather(d.col, v)[0]


def vecmat(v: SparseVector, d: MatrixOracle) -> SparseVector:
    """v @ d as a sparse combination of rows of d."""
    if v.field != d.field:
        raise UsageError("vector field does not match matrix field")
    if v.entries and v.entries[-1][0] >= d.nrows:
        raise UsageError("vector index exceeds matrix row count")
    return _gather(d.row, v)[0]
