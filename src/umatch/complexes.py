"""Filtered Vietoris-Rips (clique) and cubical complexes.

A complex stores its cells per dimension, sorted by filtration order, and
exposes each boundary operator as a lazy MatrixOracle whose rows are built
by a coface enumerator and whose columns are built by a face enumerator.
The matrices themselves are never materialized.  A clique complex builds
each level of cliques, and finds the apparent pairs of each boundary, by
numpy passes over blocks of cells, and keeps a level as arrays: vertex
tuples are made only when asked for, and positions are read by simplex
rank.  The apparent pairs are kept as a table that the pareto test reads.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from itertools import chain, combinations, repeat
from operator import itemgetter
from typing import Optional

import numpy as np

from .coeff import Field
from .errors import UsageError
from .matrix import MatrixOracle, SparseVector


# sort key of (position, coefficient) pairs
_first = itemgetter(0)

# bytes of one (block x n_points) float array in the numpy passes that grow
# a level of cliques and that find apparent pairs: a block holds a few such
# arrays, so a pass's temporaries stay near a fixed size whatever n_points
_BLOCK_BYTES = 2 ** 17


class FiltrationOrder:
    """Linear order of the cells of one dimension: the cells, their birth
    values, and the cell -> position map `pos`, a dict unless the complex
    supplies its own mapping."""

    def __init__(self, dim: int, cells: Sequence, births: list[float], pos: Optional[Mapping] = None):
        self.dim = dim
        self.cells = cells
        self.births = births
        self.pos = {c: i for i, c in enumerate(cells)} if pos is None else pos

    def __len__(self) -> int:
        return len(self.births)


class _CliqueCells(Sequence):
    """The cells of a clique level, read from its (cells x vertices) int32
    array of sorted vertex ids: a cell is a tuple of Python ints, made each
    time it is asked for.  It equals a list of the same tuples."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: np.ndarray):
        self.vertices = vertices

    def __len__(self) -> int:
        return len(self.vertices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [tuple(c) for c in self.vertices[i].tolist()]
        return tuple(self.vertices[i].tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, _CliqueCells):
            return np.array_equal(self.vertices, other.vertices)
        return list(self) == other if isinstance(other, list) else NotImplemented


class _CliquePositions(Mapping):
    """Positions of the cells of a clique level, by vertex tuple and, for
    the complex, by simplex rank: a dense int32 table over every rank of the
    dimension when the level holds at least a quarter of them, else the
    level's ranks sorted and searched.  A rank names a cell only among the
    cells of its level, so the cell at a tuple's position is checked."""

    def __init__(self, cells: _CliqueCells, ranks: np.ndarray, n_ranks: int, rank):
        self._cells = cells
        self._rank = rank
        if n_ranks <= 4 * len(ranks):
            # a rank of no cell reads -1
            self._table = np.full(n_ranks, -1, dtype=np.int32)
            self._table[ranks.astype(np.intp)] = np.arange(len(ranks), dtype=np.int32)
            # at[r] reads the position of rank r as a Python int, faster
            # than an array lookup on the few entries of a boundary line
            self.at = memoryview(self._table)
        else:
            self._table = None
            self._sorted_pos = np.argsort(ranks).astype(np.int32)
            self._sorted_ranks = ranks[self._sorted_pos]
            # at[r] is r, searched for by sort_entries
            self.at = range(n_ranks)

    def array(self, ranks) -> np.ndarray:
        """The positions of cells of the level, given by rank, as an array."""
        if self._table is not None:
            return self._table[np.asarray(ranks, dtype=np.intp)]
        return self._sorted_pos[np.searchsorted(self._sorted_ranks, ranks)]

    def sort_entries(self, out: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """(at[rank], sign) pairs of cells of the level, in place, made
        (position, sign) pairs sorted by position."""
        if self._table is None:
            out[:] = zip(self.array([r for r, _ in out]).tolist(), [s for _, s in out])
        out.sort(key=_first)
        return out

    def __getitem__(self, cell) -> int:
        try:
            i = int(self.array([self._rank(cell)])[0])
        except (TypeError, IndexError, OverflowError):  # not a tuple of admissible vertices
            i = -1
        if i < 0 or self._cells[i] != cell:
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
            return FiltrationOrder(dim, [], [])
        return self._orders[dim]

    def n_cells(self, dim: int) -> int:
        return len(self.order(dim))


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def simplex_rank(simplex: Sequence[int]) -> int:
    """Combinatorial-number-system rank of a sorted vertex tuple: the
    canonical integer id of a simplex within its dimension."""
    return sum(binomial(v, k + 1) for k, v in enumerate(simplex))


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
    its int32 vertex array in filtration order, its births, and positions
    by simplex rank (see _CliquePositions), but no Python object per cell.
    The ranks of cofaces and faces are summed from a binomial table, so no
    vertex tuple is built per row entry.  The apparent pairs of a row
    dimension are found in one batch pass, the first time they are asked
    for, and kept as a table."""

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
        # one int object per vertex id, shared by the neighbour sets
        ids = list(range(n))
        self._nbrs = [frozenset(map(ids.__getitem__, np.flatnonzero(a).tolist())) for a in adjacent]
        # _binom[k][v] = C(v, k), for the simplex ranks of up to max_dim + 1
        # vertices; _binom_np is the same table as an array
        self._binom = [[math.comb(v, k) for v in range(n)] for k in range(max_dim + 2)]
        self._binom_np = np.array(self._binom, dtype=_rank_dtype(self._binom)).reshape(max_dim + 2, n)
        self._orders: dict[int, FiltrationOrder] = {}
        # row dimension -> its apparent-pair table (see _apparent_pairs)
        self._pairs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._build()

    def _common(self, cell: Sequence[int]) -> frozenset:
        """Vertices adjacent to every vertex of the cell."""
        return frozenset.intersection(*map(self._nbrs.__getitem__, cell))

    def _rank(self, cell: tuple[int, ...]) -> int:
        """`simplex_rank(cell)`, read from the binomial table."""
        b = self._binom
        return sum([b[j + 1][v] for j, v in enumerate(cell)])

    def _build(self) -> None:
        # level 0 in lexicographic order: (vertex array, births, ranks); the
        # rank of (v,) is C(v, 1) = v
        v = np.flatnonzero(np.diagonal(self._w) <= self.threshold)
        level = (v[:, None].astype(np.int32), self._w[v, v], v.astype(self._binom_np.dtype))
        for dim in range(self.max_dim + 1):
            grown = self._grow(*level) if dim < self.max_dim else None
            self._store(dim, *level)
            level = grown

    def _grow(self, cells: np.ndarray, births: np.ndarray, ranks: np.ndarray):
        """The next level in lexicographic order, from this one in
        lexicographic order: each clique grows by every vertex v above its
        last vertex within the threshold of all its vertices, born at the
        clique's birth or at the largest weight to v, and ranked at the
        clique's rank plus C(v, size + 1)."""
        top = self._binom_np[cells.shape[1] + 1]
        above = np.arange(self.n_points)
        parts = []
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
            parts.append((grown, born, ranks[s + p] + top[v]))
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))

    def _store(self, dim: int, cells: np.ndarray, births: np.ndarray, ranks: np.ndarray) -> None:
        """Sort a level from lexicographic into (birth, cell) order, in
        place, by one stable sort on birth, and keep its filtration order:
        the vertex array, births that share one float per value, and the
        positions by rank."""
        order = np.argsort(births, kind="stable")
        for a in (cells, births, ranks):
            a[:] = a[order]
        del order
        # runs of equal births, told apart by bits so that 0.0 and -0.0 stay
        bits = births.view(np.int64)
        first = np.ones(len(bits), dtype=bool)
        first[1:] = bits[1:] != bits[:-1]
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, len(births)))
        born = list(chain.from_iterable(map(repeat, births[starts].tolist(), counts.tolist())))
        seq = _CliqueCells(cells)
        pos = _CliquePositions(seq, ranks, binomial(self.n_points, dim + 1), self._rank)
        self._orders[dim] = FiltrationOrder(dim, seq, born, pos)

    def _col_entries(self, n: int, j: int, minus: int) -> list[tuple[int, int]]:
        """Column j of the boundary from dimension n: (position, sign mapped
        by `minus`) pairs of the faces of cell j, sorted.  The face omitting
        vertex k keeps C(v, m+1) for the vertices m before it and moves the
        vertices after it down to C(v, m)."""
        cell = self._orders[n].cells.vertices[j].tolist()
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
        vs = sorted(self._common(cell))
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
        cell = self._orders[n - 1].cells.vertices[i].tolist()
        pos = self._orders[n].pos
        at, b = pos.at, self._binom
        base = [sum(b[m + 1 + (m >= k)][v] for m, v in enumerate(cell)) for k in range(len(cell) + 1)]
        return pos.sort_entries([(at[base[k] + b[k + 1][v]], c)
                                 for k, c, run in self._runs(cell, minus) for v in run])

    def _apparent_pair(self, dim: int, i: int, minus: int) -> Optional[tuple[int, int]]:
        """(column, 1 or `minus`) of the leading entry of row i of the
        boundary from dimension dim + 1 to dim when the two form an apparent
        pair, else None."""
        cols, odd = self._apparent_pairs(dim)
        j = int(cols[i])
        return None if j < 0 else (j, minus if odd[i] else 1)

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
        cells = self._orders[dim].cells.vertices
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
    maximum value of the pixels it spans."""

    kind = "cubical"

    def __init__(self, pixels: np.ndarray):
        arr = np.asarray(pixels, dtype=float)
        if arr.ndim not in (2, 3):
            raise UsageError("pixel array must be 2D or 3D")
        if not np.all(np.isfinite(arr)):
            raise UsageError("pixel values must be finite")
        self.pixels = arr
        self.shape = arr.shape
        self.ndim = arr.ndim
        self.max_dim = arr.ndim
        self.threshold = float(arr.max()) if arr.size else 0.0
        self._orders: dict[int, FiltrationOrder] = {}
        self._build()

    def _cell_birth(self, anchor: tuple[int, ...], extent: tuple[int, ...]) -> float:
        corners = [anchor]
        for ax in extent:
            corners = corners + [tuple(c[i] + (1 if i == ax else 0) for i in range(self.ndim))
                                 for c in corners]
        return max(float(self.pixels[c]) for c in corners)

    def _build(self) -> None:
        axes = list(range(self.ndim))
        for dim in range(self.ndim + 1):
            cells = []
            for extent in combinations(axes, dim):
                bounds = [self.shape[ax] - (1 if ax in extent else 0) for ax in axes]
                for anchor in np.ndindex(*bounds):
                    anchor = tuple(int(a) for a in anchor)
                    b = self._cell_birth(anchor, extent)
                    cells.append((b, (anchor, extent)))
            cells.sort(key=lambda t: (t[0], t[1][0], t[1][1]))
            self._orders[dim] = FiltrationOrder(dim, [c for _, c in cells], [b for b, _ in cells])

    def faces(self, cell) -> list:
        """(face, sign): the j-th extent axis contributes (-1)^j times the
        upper face minus the lower face."""
        anchor, extent = cell
        out = []
        for j, ax in enumerate(extent):
            new_extent = tuple(a for a in extent if a != ax)
            sign = -1 if j % 2 else 1
            upper = tuple(anchor[i] + (1 if i == ax else 0) for i in range(self.ndim))
            out.append(((upper, new_extent), sign))
            out.append(((anchor, new_extent), -sign))
        return out

    def cofaces(self, cell, dim: int) -> list:
        """(coface, sign): along each new axis the cell is the lower face of
        the coface at its anchor and the upper face of the one a step below."""
        anchor, extent = cell
        pos_up = self.order(dim + 1).pos
        out = []
        for ax in (ax for ax in range(self.ndim) if ax not in extent):
            new_extent = tuple(sorted(extent + (ax,)))
            sign = -1 if new_extent.index(ax) % 2 else 1
            lowered = tuple(a - (i == ax) for i, a in enumerate(anchor))
            out += [(c, s) for c, s in (((anchor, new_extent), -sign), ((lowered, new_extent), sign))
                    if c in pos_up]
        return out

    def _col_entries(self, n: int, j: int, minus: int) -> list[tuple[int, int]]:
        """(position of the face, sign mapped by `minus`) pairs of cell j of
        dimension n, sorted."""
        return _signed(self.faces(self._orders[n].cells[j]), self._orders[n - 1].pos, minus)

    def _row_entries(self, n: int, i: int, minus: int) -> list[tuple[int, int]]:
        """(position of the coface, sign mapped by `minus`) pairs of cell i of
        dimension n - 1, sorted."""
        return _signed(self.cofaces(self._orders[n - 1].cells[i], n - 1), self._orders[n].pos, minus)


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
        self.rows_order = complex_.order(n - 1)
        self.cols_order = complex_.order(n)
        self.nrows = len(self.rows_order)
        self.ncols = len(self.cols_order)
        self.pareto_enabled = complex_.kind == "clique"
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
        """A lookup in the complex's apparent-pair table of this row
        dimension, which the first call builds; a miss builds no row."""
        if not self.pareto_enabled:
            return None
        self._check_row(i)
        return self.complex._apparent_pair(self.n - 1, i, self._minus)


def _signed(cells, pos: dict, minus: int) -> list[tuple[int, int]]:
    """(pos[cell], 1 or `minus`) pairs of distinct signed cells, sorted."""
    return sorted([(pos[c], 1 if s > 0 else minus) for c, s in cells], key=_first)


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
