"""Filtered Vietoris-Rips (clique) and cubical complexes.

A complex stores its cells per dimension, sorted by filtration order, and
exposes each boundary operator as a lazy MatrixOracle whose rows are built
by a coface enumerator and whose columns are built by a face enumerator.
The matrices themselves are never materialized.  A level is kept as
arrays, read by integer ids (a simplex rank, a grid id), and its cells are
made only when asked for.  A clique complex builds each level of cliques,
and finds the apparent pairs of each boundary, by numpy passes over blocks
of cells; the apparent pairs are kept as a table that the pareto test reads.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from functools import reduce
from itertools import chain, compress, count, repeat
from operator import and_, itemgetter
from typing import Optional

import numpy as np

from .coeff import Field
from .errors import UsageError
from .matrix import MatrixOracle, SparseVector, _apparent_pair


# sort key of (position, coefficient) pairs
_first = itemgetter(0)
# binary digits "0" and "1" to bytes 0 and 1
_BITS = bytes.maketrans(b"01", b"\0\1")

# bytes of one (block x n_points) float array in the numpy passes that grow
# a level of cliques and that find apparent pairs: a block holds a few such
# arrays, so a pass's temporaries stay near a fixed size whatever n_points
_BLOCK_BYTES = 2 ** 17


class FiltrationOrder:
    """Linear order of the cells of one dimension: the cells, their birth
    values, and the cell -> position map `pos`."""

    def __init__(self, dim: int, cells: Sequence, births: list[float], pos: Mapping):
        self.dim = dim
        self.cells = cells
        self.births = births
        self.pos = pos

    def __len__(self) -> int:
        return len(self.births)


class _Cells(Sequence):
    """The cells of a level, read from its array in filtration order: a cell
    is decoded by `decode` from its item's Python value (a row of vertex ids
    to a tuple, a grid id to an (anchor, extent) pair) each time it is asked
    for.  It equals a list of the same cells."""

    __slots__ = ("array", "_decode")

    def __init__(self, array: np.ndarray, decode=tuple):
        self.array = array
        self._decode = decode

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._decode, self.array[i].tolist()))
        return self._decode(self.array[i].tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, _Cells):
            return np.array_equal(self.array, other.array)
        return list(self) == other if isinstance(other, list) else NotImplemented


class _Positions(Mapping):
    """Positions of the cells of a level, by cell and, for the complex, by
    int key (a simplex rank or a grid id): read from a dense table, the
    grid's shared `table` or the level's own (int16 below 2**15 cells) when
    it holds a quarter of the `n_keys` keys, else from its keys sorted and
    searched.  The cell at a key's position is checked: a key names a cell
    only in its level."""

    def __init__(self, cells: _Cells, key, keys: np.ndarray, n_keys: int = 0, table=None):
        self._cells = cells
        self._key = key
        width = np.int16 if len(keys) < 2 ** 15 else np.int32
        if table is None and n_keys <= 4 * len(keys):
            # a key of no cell reads -1
            table = np.full(n_keys, -1, dtype=width)
        self._table = table
        if table is not None:
            table[keys.astype(np.intp, copy=False)] = np.arange(len(keys), dtype=table.dtype)
            # at[k] reads the position of key k as a Python int, faster
            # than an array lookup on the few entries of a boundary line
            self.at = memoryview(table)
        else:
            self._sorted_pos = np.argsort(keys).astype(width)
            self._sorted_keys = keys[self._sorted_pos]
            # at[k] is k, searched for by sort_entries
            self.at = range(n_keys)

    def array(self, keys) -> np.ndarray:
        """The positions of cells of the level, given by key, as an array."""
        if self._table is not None:
            return self._table[np.asarray(keys, dtype=np.intp)]
        return self._sorted_pos[np.searchsorted(self._sorted_keys, keys)]

    def sort_entries(self, out: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """(at[key], sign) pairs of cells of the level, in place, made
        (position, sign) pairs sorted by position."""
        if self._table is None:
            out[:] = zip(self.array([k for k, _ in out]).tolist(), [s for _, s in out])
        out.sort(key=_first)
        return out

    def __getitem__(self, cell) -> int:
        try:
            i = int(self.array([self._key(cell)])[0])
        except (TypeError, ValueError, IndexError, OverflowError):  # not a cell of the complex's shape
            i = -1
        if not 0 <= i < len(self._cells) or self._cells[i] != cell:
            raise KeyError(cell)
        return i

    def __iter__(self):
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)


class _Filtered:
    """Per-dimension filtration orders, kept in `_orders`."""

    def order(self, dim: int) -> FiltrationOrder:
        if dim not in self._orders:
            return FiltrationOrder(dim, [], [], {})
        return self._orders[dim]

    def n_cells(self, dim: int) -> int:
        return len(self.order(dim))


def simplex_rank(simplex: Sequence[int]) -> int:
    """Combinatorial-number-system rank of a sorted vertex tuple: the
    canonical integer id of a simplex within its dimension."""
    return sum(math.comb(v, k + 1) for k, v in enumerate(simplex))


def _rank_dtype(binom: list[list[int]]):
    """int64 when every rank summed from the binomial table fits in it (a
    rank is below twice the largest entry), else Python ints in object
    arrays."""
    big = max((max(row, default=0) for row in binom), default=0)
    return np.int64 if 2 * big < 2 ** 63 else object


def _max_rows(w: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Per cell, the entrywise maximum of the rows of w at its vertices.  A
    tie keeps the value of the earlier vertex, as a scan that replaces only
    on a strictly larger value does, so even the sign of a zero is kept."""
    out = w[cells[:, 0]]
    for k in range(1, cells.shape[1]):
        row = w[cells[:, k]]
        np.copyto(out, row, where=row > out)
    return out


class FilteredCliqueComplex(_Filtered):
    """Vietoris-Rips complex of a dissimilarity matrix: a vertex is born at
    its diagonal entry, and a larger simplex at the largest vertex birth or
    pairwise dissimilarity of its vertices.

    Each level of cliques is built by numpy passes over blocks of the level
    below: a (d+1)-clique grows from a d-clique by a vertex above its last
    one that lies within the threshold of all its vertices.  A level keeps
    its vertex array (of the narrowest unsigned dtype) in filtration order,
    its births, and positions by simplex rank (see _Positions), but no
    Python object per cell.  The ranks of cofaces and faces are summed from
    a binomial table, so no vertex tuple is built per row entry.  The
    apparent pairs of a row dimension are found in one batch pass, the
    first time they are asked for, and kept as a table."""

    kind = "clique"

    def __init__(self, dissimilarity: np.ndarray, max_dim: int, threshold: float):
        d = np.asarray(dissimilarity, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise UsageError("dissimilarity must be a square matrix")
        if not np.all(np.isfinite(d)):
            raise UsageError("dissimilarity values must be finite")
        if not np.allclose(d, d.T):
            raise UsageError("dissimilarity must be symmetric")
        if max_dim < 0:
            raise UsageError("max_dim must be nonnegative")
        self.threshold = t = float(threshold)
        if math.isnan(t):
            raise UsageError("threshold must be a number, not NaN")
        # an edge is born no earlier than its vertices, so a simplex is born
        # at the maximum of its vertex births and edge weights
        diag = np.diag(d)
        self.d = np.maximum(d, np.maximum.outer(diag, diag))
        self.n_points = n = d.shape[0]
        self.max_dim = max_dim
        # cells per block of the numpy passes
        self._block = max(1, _BLOCK_BYTES // (8 * max(n, 1)))
        # the upper triangle mirrored: the pair {a, b} reads d[min, max]
        # from either side
        self._w = w = np.where(np.tri(n, dtype=bool).T, self.d, self.d.T)
        adjacent = w <= t
        np.fill_diagonal(adjacent, False)
        # per vertex, the bitmask of its neighbours: bit v for vertex v
        self._nbrs = [int.from_bytes(np.packbits(a, bitorder="little").tobytes(), "little") for a in adjacent]
        # _binom[k][v] = C(v, k), for the simplex ranks of up to max_dim + 1
        # vertices; _binom_np is the same table as an array
        self._binom = [[math.comb(v, k) for v in range(n)] for k in range(max_dim + 2)]
        self._binom_np = np.array(self._binom, dtype=_rank_dtype(self._binom)).reshape(max_dim + 2, n)
        self._orders: dict[int, FiltrationOrder] = {}
        # row dimension -> its apparent-pair table (see _apparent_pairs)
        self._pairs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._build()

    def _common(self, cell: Sequence[int]) -> int:
        """Bitmask of the vertices adjacent to every vertex of the cell."""
        return reduce(and_, map(self._nbrs.__getitem__, cell))

    def _rank(self, cell: tuple[int, ...]) -> int:
        """`simplex_rank(cell)`, read from the binomial table."""
        b = self._binom
        return sum([b[j + 1][v] for j, v in enumerate(cell)])

    def _build(self) -> None:
        # level 0 in lexicographic order: [vertex array, births]
        v = np.flatnonzero(np.diagonal(self._w) <= self.threshold)
        level = [v[:, None].astype(np.min_scalar_type(max(self.n_points - 1, 0))), self._w[v, v]]
        for dim in range(self.max_dim + 1):
            grown = self._grow(*level) if dim < self.max_dim else None
            self._store(dim, level.pop(0), level.pop())
            level = grown

    def _grow(self, cells: np.ndarray, births: np.ndarray) -> list[np.ndarray]:
        """The next level in lexicographic order, from this one in
        lexicographic order: each clique grows by every vertex v above its
        last vertex within the threshold of all its vertices, born at the
        clique's birth or at the largest weight to v."""
        above = np.arange(self.n_points)
        parts = [[], []]
        # one block runs even when the level is empty, for the array shapes
        for s in range(0, max(len(cells), 1), self._block):
            block = cells[s:s + self._block]
            wmax = _max_rows(self._w, block)
            # nonzero lists (parent, v) row by row: lexicographic order
            p, v = np.nonzero((wmax <= self.threshold) & (above > block[:, -1:]))
            grown = np.empty((len(p), block.shape[1] + 1), dtype=cells.dtype)
            grown[:, :-1] = block[p]
            grown[:, -1] = v
            born, wv = births[s + p], wmax[p, v]
            np.copyto(born, wv, where=wv > born)
            parts[0].append(grown)
            parts[1].append(born)
        # one field at a time, its parts dropped once joined
        return [np.concatenate(parts.pop(0)) for _ in range(2)]

    def _store(self, dim: int, cells: np.ndarray, births: np.ndarray) -> None:
        """Sort a level from lexicographic into (birth, cell) order by one
        stable sort on birth, and keep its filtration order: the vertex
        array, births that share one float per value, and the positions by
        simplex rank.  The caller keeps no reference to the arrays, so each
        is freed once it has been read."""
        order = np.argsort(births, kind="stable")
        cells, births = cells[order], births[order]
        del order
        # runs of equal births, told apart by bits so that 0.0 and -0.0 stay
        bits = births.view(np.int64)
        first = np.ones(len(bits), dtype=bool)
        first[1:] = bits[1:] != bits[:-1]
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, len(births))).tolist()
        values = births[starts].tolist()
        del births, bits, first, starts
        ranks = sum(self._binom_np[k + 1, cells[:, k]] for k in range(dim + 1))
        born = list(chain.from_iterable(map(repeat, values, counts)))
        seq = _Cells(cells)
        pos = _Positions(seq, self._rank, ranks, math.comb(self.n_points, dim + 1))
        self._orders[dim] = FiltrationOrder(dim, seq, born, pos)

    def _col_entries(self, n: int, j: int, minus: int) -> list[tuple[int, int]]:
        """Column j of the boundary from dimension n: (position, sign mapped
        by `minus`) pairs of the faces of cell j, sorted.  The face omitting
        vertex k keeps C(v, m+1) for the vertices m before it and moves the
        vertices after it down to C(v, m)."""
        cell = self._orders[n].cells.array[j].tolist()
        pos = self._orders[n - 1].pos
        at, b = pos.at, self._binom
        below, above = 0, sum([b[m][v] for m, v in enumerate(cell)])
        out, s = [], 1
        for k, v in enumerate(cell):
            above -= b[k][v]
            out.append((at[below + above], s))
            below += b[k + 1][v]
            s = 1 if k & 1 else minus
        return pos.sort_entries(out)

    def _runs(self, cell: Sequence[int], minus: int):
        """The sorted common neighbours of the cell, cut into the runs that
        go in at one slot k: (k, 1 or `minus` for odd k, run)."""
        # byte v of the mask's reversed binary digits is 1 for a vertex v
        vs = list(compress(count(), bin(self._common(cell)).encode()[:1:-1].translate(_BITS)))
        lo = 0
        for k in range(len(cell) + 1):
            hi = bisect_left(vs, cell[k], lo) if k < len(cell) else len(vs)
            yield k, minus if k & 1 else 1, vs[lo:hi]
            lo = hi

    def _row_entries(self, n: int, i: int, minus: int) -> list[tuple[int, int]]:
        """Row i of the boundary from dimension n: (position, sign mapped by
        `minus`) pairs of the cofaces of cell i, sorted.  The coface that
        puts v at slot k has rank base[k] + C(v, k+1), where base[k] ranks
        the cell's vertices, those from slot k on moved up one."""
        cell = self._orders[n - 1].cells.array[i].tolist()
        pos = self._orders[n].pos
        at, b = pos.at, self._binom
        base = [sum(b[m + 1 + (m >= k)][v] for m, v in enumerate(cell)) for k in range(len(cell) + 1)]
        return pos.sort_entries([(at[base[k] + b[k + 1][v]], c)
                                 for k, c, run in self._runs(cell, minus) for v in run])

    def _apparent_pair(self, d: BoundaryOracle, i: int) -> Optional[tuple[int, int]]:
        """(column, coefficient) of the leading entry of row i of boundary d
        when the two form an apparent pair, else None: a lookup in the
        apparent-pair table of d's row dimension."""
        cols, odd = self._apparent_pairs(d.n - 1)
        j = int(cols[i])
        return None if j < 0 else (j, d._minus if odd[i] else 1)

    def _apparent_pairs(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """The apparent pairs of the rows of dimension dim, as two arrays
        over the rows: the position of the row's leading coface when the row
        is that coface's last facet, else -1; and whether the coface puts
        its added vertex at an odd slot of the row's cell.

        The leading coface of a row is its minimum (birth, coface).  No
        coface is born before the cell, and a smaller added vertex makes a
        smaller tuple: so the coface with the smallest vertex v whose
        weights to the cell are within the cell's birth, if there is one,
        leads.  Without one, every coface is born later, and a later-born
        coface of a cell with two or more vertices has a facet born after
        the cell; so only a vertex can still pair, with the edge to its
        nearest neighbour (the smallest one on ties)."""
        if dim in self._pairs:
            return self._pairs[dim]
        if not 0 <= dim < self.max_dim:
            raise UsageError(f"no boundary rows in dimension {dim}")
        cells = self._orders[dim].cells.array
        births = np.array(self._orders[dim].births)
        cols = np.full(len(births), -1, dtype=np.int32)
        odd = np.zeros(len(births), dtype=bool)
        face_pos, coface_pos = self._orders[dim].pos.array, self._orders[dim + 1].pos.array
        w, b = self._w, self._binom_np
        # _binom rows for the vertices of a coface at its slots, kept (l + 1)
        # or moved down one (l) by an omitted vertex before them
        kept, moved = np.arange(1, dim + 3), np.arange(dim + 2)
        for s in range(0, len(births), self._block):
            block = cells[s:s + self._block]
            rows = np.arange(len(block))
            cand = _max_rows(w, block) <= births[s:s + self._block, None]
            cand[rows[:, None], block] = False
            found = cand.any(axis=1)
            r = np.flatnonzero(found)
            v = cand[r].argmax(axis=1)
            coface = np.concatenate((block[r], v[:, None]), axis=1)
            coface.sort(axis=1)
            keep, move = b[kept, coface], b[moved, coface]
            # facet l keeps the vertices before slot l and moves those after
            facets = (np.cumsum(keep, axis=1) - keep) + (move.sum(axis=1)[:, None] - np.cumsum(move, axis=1))
            hit = face_pos(facets).max(axis=1) <= s + r
            r, v, keep = r[hit], v[hit], keep[hit]
            cols[s + r] = coface_pos(keep.sum(axis=1))
            odd[s + r] = (block[r] < v[:, None]).sum(axis=1) & 1
            if dim == 0:
                r = np.flatnonzero(~found)
                u = block[r, 0]
                near = w[u]
                near[rows[:len(r)], u] = np.inf
                x = near.argmin(axis=1)
                # x is u only when u has no other vertex; then pos(x) < i fails
                hit = near[rows[:len(r)], x] <= self.threshold
                r, u, x = r[hit], u[hit], x[hit]
                hit = face_pos(x) < s + r
                r, u, x = r[hit], u[hit], x[hit]
                lo, hi = np.minimum(u, x), np.maximum(u, x)
                cols[s + r] = coface_pos(b[1, lo] + b[2, hi])
                odd[s + r] = x > u
        self._pairs[dim] = cols, odd
        return cols, odd


class FilteredCubicalComplex(_Filtered):
    """Full cubical grid on a 2d or 3d pixel array; every cell is born at the
    maximum value of the pixels it spans.  A cell (anchor, extent) is read
    by its grid id: its index in the doubled grid, of 2s - 1 points per
    axis of s pixels, at twice its anchor plus 1 on each axis of its extent.
    One int32 table over the grid holds every cell's position."""

    kind = "cubical"

    def __init__(self, pixels: np.ndarray):
        arr = np.asarray(pixels, dtype=float)
        if arr.ndim not in (2, 3):
            raise UsageError("pixel array must be 2D or 3D")
        if arr.size == 0:
            raise UsageError("pixel array must not be empty")
        if not np.all(np.isfinite(arr)):
            raise UsageError("pixel values must be finite")
        self.max_dim = arr.ndim
        self._grid = grid = tuple(2 * s - 1 for s in arr.shape)
        # per axis, the step between neighbouring grid ids
        self._strides = [math.prod(grid[ax + 1:]) for ax in range(arr.ndim)]
        self._orders: dict[int, FiltrationOrder] = {}
        self._build(arr)

    def _build(self, pixels: np.ndarray) -> None:
        """Births over the grid by max pooling, one axis at a time, where a
        tie keeps the lower corner, as a scan of the corners does, so that
        a zero keeps its sign; each level sorted by (birth, anchor, extent)."""
        born = pixels
        for ax in range(pixels.ndim):
            # pixels k, k, k + 1, k + 1, ...: grid point p pools entries p, p + 1
            r = np.moveaxis(np.repeat(born, 2, axis=ax), ax, 0)
            born = np.moveaxis(np.where(r[1:] > r[:-1], r[1:], r[:-1]), 0, ax)
        born = born.ravel()
        c = np.indices(self._grid).reshape(pixels.ndim, -1)[::-1]
        odd = (c & 1).sum(axis=0)
        # np.lexsort sorts by its last key first, so the grid ids run level
        # by level; an extent that holds an earlier axis comes first
        order = np.lexsort([*-(c & 1), *(c >> 1), born, odd])
        table = np.empty(len(order), dtype=np.int32)
        ends = np.cumsum(np.bincount(odd, minlength=pixels.ndim + 1))
        for dim, ids in enumerate(np.split(order, ends[:-1])):
            seq = _Cells(ids, self._cell)
            pos = _Positions(seq, self._grid_id, ids, table=table)
            self._orders[dim] = FiltrationOrder(dim, seq, born[ids].tolist(), pos)

    def _cell(self, g: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The (anchor, extent) pair of grid id g."""
        c = [int(x) for x in np.unravel_index(g, self._grid)]
        return tuple(x >> 1 for x in c), tuple(ax for ax, x in enumerate(c) if x & 1)

    def _grid_id(self, cell) -> int:
        """The grid id of an (anchor, extent) pair."""
        anchor, extent = cell
        return sum((2 * a + (ax in extent)) * s for ax, (a, s) in enumerate(zip(anchor, self._strides)))

    def _col_entries(self, n: int, j: int, minus: int) -> list[tuple[int, int]]:
        """(position of the face, sign mapped by `minus`) pairs of cell j of
        dimension n, sorted: the j-th extent axis contributes (-1)^j times
        the upper face, a stride up, minus the lower face, a stride down."""
        g = rest = int(self._orders[n].cells.array[j])
        pos = self._orders[n - 1].pos
        out, up, down = [], 1, minus
        for s in self._strides:
            c, rest = divmod(rest, s)
            if c & 1:
                out += ((pos.at[g + s], up), (pos.at[g - s], down))
                up, down = down, up
        return pos.sort_entries(out)

    def _row_entries(self, n: int, i: int, minus: int) -> list[tuple[int, int]]:
        """(position of the coface, sign mapped by `minus`) pairs of cell i of
        dimension n - 1, sorted: along an even axis the cell is the lower
        face of the coface a stride up, and the upper face of the one a
        stride down, where the grid has them."""
        g = rest = int(self._orders[n - 1].cells.array[i])
        pos = self._orders[n].pos
        out, up, down = [], 1, minus
        for s, size in zip(self._strides, self._grid):
            c, rest = divmod(rest, s)
            if c & 1:
                up, down = down, up
                continue
            if c < size - 1:
                out.append((pos.at[g + s], down))
            if c:
                out.append((pos.at[g - s], up))
        return pos.sort_entries(out)

    # the generic row-lead / column-trail test, cheap on integer steps
    _apparent_pair = staticmethod(_apparent_pair)


class BoundaryOracle(MatrixOracle):
    """Boundary operator of one dimension, rows indexed by (n-1)-cells and
    columns by n-cells, both in filtration order.  Signs are mapped into the
    coefficient field, so all coefficients are 1 when p = 2.

    The faces, and the cofaces, of a cell are distinct, so a column or a row
    is its (position, coefficient) pairs sorted by position."""

    def __init__(self, complex_, n: int, field: Field):
        if n < 1 or n > complex_.max_dim:
            raise UsageError(f"boundary dimension {n} out of range")
        self.complex = complex_
        self.n = n
        self.field = field
        self.nrows = complex_.n_cells(n - 1)
        self.ncols = complex_.n_cells(n)
        self._minus = field.normalize(-1)

    def _vector(self, entries: list[tuple[int, int]]) -> SparseVector:
        return SparseVector(self.field, entries, _checked=True)

    def col(self, j: int) -> SparseVector:
        self._check_col(j)
        return self._vector(self.complex._col_entries(self.n, j, self._minus))

    def row(self, i: int) -> SparseVector:
        self._check_row(i)
        return self._vector(self.complex._row_entries(self.n, i, self._minus))

    def pareto_leading(self, i: int) -> Optional[tuple[int, int]]:
        """The complex's test: a lookup in the clique table of this row
        dimension, which the first call builds, or the generic cubical one."""
        self._check_row(i)
        return self.complex._apparent_pair(self, i)


def boundary_oracle(complex_, n: int, field: Field) -> BoundaryOracle:
    return BoundaryOracle(complex_, n, field)


def torus_metric(points: np.ndarray) -> np.ndarray:
    """Quotient metric on the unit cube: min over integer shifts in
    {-1, 0, 1}^d of the Euclidean distance."""
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    shifts = np.array(np.meshgrid(*([[-1.0, 0.0, 1.0]] * d), indexing="ij")).reshape(d, -1).T
    out = np.zeros((n, n))
    for i in range(n):
        diff = pts[i] - (pts[None, :, :] + shifts[:, None, :])  # shifts x n x d
        dist = np.sqrt((diff ** 2).sum(axis=2)).min(axis=0)
        out[i] = dist
    np.fill_diagonal(out, 0.0)
    return out


def euclidean_metric(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    sq = (pts ** 2).sum(axis=1)
    g = pts @ pts.T
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2 * g, 0.0)
    out = np.sqrt(d2)
    np.fill_diagonal(out, 0.0)
    return out


def clique_from_points(points: np.ndarray, max_dim: int, threshold: float,
                       metric: str = "euclidean") -> FilteredCliqueComplex:
    metrics = {"euclidean": euclidean_metric, "torus": torus_metric}
    if metric not in metrics:
        raise UsageError(f"unknown metric {metric!r}")
    return FilteredCliqueComplex(metrics[metric](points), max_dim, threshold)
