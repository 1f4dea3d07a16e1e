"""Filtered Vietoris-Rips (clique) and cubical complexes.

A complex stores its cells per dimension, sorted by filtration order, and
exposes each boundary operator as a lazy MatrixOracle whose rows are built
by a coface enumerator and whose columns are built by a face enumerator.
The matrices themselves are never materialized.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from itertools import combinations
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .coeff import Field
from .errors import UsageError
from .matrix import MatrixOracle, SparseVector


# sort key of (birth, cell) and of (position, coefficient) pairs
_first = itemgetter(0)


class FiltrationOrder:
    """Linear order of the cells of one dimension: cell keys, birth values,
    and the key -> position map `pos`, a dict unless the complex supplies
    its own mapping."""

    def __init__(self, dim: int, cells: list, births: list[float], pos: Optional[Mapping] = None):
        self.dim = dim
        self.cells = cells
        self.births = births
        self.pos = {c: i for i, c in enumerate(cells)} if pos is None else pos

    def __len__(self) -> int:
        return len(self.cells)


class _RankPositions(Mapping):
    """Read-only vertex tuple -> position map of a clique order, read
    through the rank-keyed positions."""

    def __init__(self, cells: list, by_rank: dict[int, int], rank):
        self._cells = cells
        self._by_rank = by_rank
        self._rank = rank

    def __getitem__(self, cell) -> int:
        try:
            i = self._by_rank.get(self._rank(cell))
        except (TypeError, IndexError):  # not a tuple of admissible vertices
            i = None
        # a rank names a cell only among the cells of this dimension
        if i is None or self._cells[i] != cell:
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


class FilteredCliqueComplex(_Filtered):
    """Vietoris-Rips complex of a dissimilarity matrix: a vertex is born at
    its diagonal entry, and a larger simplex at the largest vertex birth or
    pairwise dissimilarity of its vertices.

    Cliques are enumerated through neighbour sets: a (d+1)-clique grows from
    a d-clique by a common neighbour larger than its last vertex, and the
    cofaces of a cell are its splices with its common neighbours.  Positions
    are keyed by simplex rank, and the ranks of cofaces and faces are summed
    from a binomial table, so no vertex tuple is built per entry."""

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
        # an edge is born no earlier than its vertices, so a simplex is born
        # at the maximum of its vertex births and edge weights
        diag = np.diag(d)
        self.d = np.maximum(d, np.maximum.outer(diag, diag))
        self.n_points = n = d.shape[0]
        self.max_dim = max_dim
        self.threshold = t = float(threshold)
        # Python floats, the upper triangle mirrored: the pair {a, b} reads
        # d[min, max] from either side
        self._w = w = np.where(np.tri(n, dtype=bool).T, self.d, self.d.T).tolist()
        self._nbrs = [frozenset(v for v in range(n) if v != u and w[u][v] <= t) for u in range(n)]
        # _binom[k][v] = C(v, k), for the simplex ranks of up to max_dim + 1 vertices
        self._binom = [[math.comb(v, k) for v in range(n)] for k in range(max_dim + 2)]
        self._orders: dict[int, FiltrationOrder] = {}
        # rank -> position, per dimension: the one stored position map
        self._by_rank: dict[int, dict[int, int]] = {}
        self._build()

    def _common(self, cell: tuple[int, ...]) -> frozenset:
        """Vertices adjacent to every vertex of the cell."""
        return frozenset.intersection(*map(self._nbrs.__getitem__, cell))

    def _rank(self, cell: tuple[int, ...]) -> int:
        """`simplex_rank(cell)`, read from the binomial table."""
        b = self._binom
        return sum([b[j + 1][v] for j, v in enumerate(cell)])

    def _build(self) -> None:
        w = self._w
        # (birth, cell, simplex rank); the rank of (v,) is C(v, 1) = v
        lex = [(w[v][v], (v,), v) for v in range(self.n_points) if w[v][v] <= self.threshold]
        for dim in range(self.max_dim + 1):
            # the cells come in lexicographic order, so a stable sort by
            # birth puts them in (birth, cell) order
            level = sorted(lex, key=_first)
            cells = [c for _, c, _ in level]
            self._by_rank[dim] = by_rank = {r: i for i, (_, _, r) in enumerate(level)}
            self._orders[dim] = FiltrationOrder(dim, cells, [b for b, _, _ in level],
                                                _RankPositions(cells, by_rank, self._rank))
            if dim == self.max_dim:
                break
            # grow each clique by its common neighbours above its last vertex,
            # ascending; every pair of a clique is within the threshold, and
            # the rank of cell + (v,) is the cell's rank plus C(v, dim + 2)
            grown = []
            top = self._binom[dim + 2]
            for b, cell, r in lex:
                rows = [w[u] for u in cell]
                vs = sorted(self._common(cell))
                for v in vs[bisect_right(vs, cell[-1]):]:
                    birth = b
                    for row in rows:
                        if row[v] > birth:
                            birth = row[v]
                    grown.append((birth, cell + (v,), r + top[v]))
            lex = grown

    def faces(self, cell: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
        """(face, sign) pairs: omitting the k-th vertex carries (-1)^k."""
        return [(cell[:k] + cell[k + 1:], -1 if k % 2 else 1) for k in range(len(cell))]

    def _face_entries(self, cell: tuple[int, ...], order: FiltrationOrder, minus: int) -> list[tuple[int, int]]:
        """(position in `order` of the face, sign mapped by `minus`) pairs,
        sorted.  The face omitting vertex k keeps C(v, j+1) for the vertices
        j before it and moves the vertices after it down to C(v, j)."""
        b, by_rank = self._binom, self._by_rank[order.dim]
        below, above = 0, sum([b[j][v] for j, v in enumerate(cell)])
        out, s = [], 1
        for k, v in enumerate(cell):
            above -= b[k][v]
            out.append((by_rank[below + above], s))
            below += b[k + 1][v]
            s = 1 if k & 1 else minus
        out.sort(key=_first)
        return out

    def _runs(self, cell: tuple[int, ...], minus: int = -1):
        """The sorted common neighbours of the cell, cut into the runs that
        go in at one slot k: (k, 1 or `minus` for odd k, run)."""
        vs = sorted(self._common(cell))
        lo = 0
        for k in range(len(cell) + 1):
            hi = bisect_left(vs, cell[k], lo) if k < len(cell) else len(vs)
            yield k, minus if k & 1 else 1, vs[lo:hi]
            lo = hi

    def cofaces(self, cell: tuple[int, ...], dim: int) -> list[tuple[tuple[int, ...], int]]:
        """(coface, sign) pairs among admitted (dim+1)-cells, ascending by the
        added vertex; inserting it at slot k carries (-1)^k."""
        if dim >= self.max_dim:
            return []
        return [(cell[:k] + (v,) + cell[k:], s) for k, s, run in self._runs(cell) for v in run]

    def _coface_entries(self, cell: tuple[int, ...], order: FiltrationOrder, minus: int) -> list[tuple[int, int]]:
        """(position in `order` of the coface, sign mapped by `minus`) pairs,
        sorted.  The coface that puts v at slot k has rank base[k] + C(v, k+1),
        where base[k] ranks the cell's vertices, those from slot k on moved
        up one."""
        b, by_rank = self._binom, self._by_rank[order.dim]
        base = [sum(b[j + 1 + (j >= k)][v] for j, v in enumerate(cell)) for k in range(len(cell) + 1)]
        return sorted([(by_rank[base[k] + b[k + 1][v]], c)
                       for k, c, run in self._runs(cell, minus) for v in run], key=_first)

    def _apparent_pair(self, i: int, rows: FiltrationOrder, cols: FiltrationOrder, minus: int):
        """(leading entry, None) when row i of the boundary from `cols` to
        `rows` is the last facet of its leading coface, else (None, the row's
        entries sorted by position); signs map to 1 or `minus`.

        The leading coface is the minimum (birth, coface).  No coface is born
        before the cell, and a smaller added vertex makes a smaller tuple: so
        the first coface born with the cell, if any, leads, and a hit on it
        is found without building the row."""
        cell, birth, w = rows.cells[i], rows.births[i], self._w

        def last_facet(coface: tuple[int, ...]) -> bool:
            return self._face_entries(coface, rows, 1)[-1][0] <= i

        v = next((v for v in sorted(self._common(cell))
                  if max(map(w[v].__getitem__, cell)) <= birth), None)
        if v is not None:
            k = bisect_left(cell, v)
            coface = cell[:k] + (v,) + cell[k:]
            if last_facet(coface):
                return (self._by_rank[cols.dim][self._rank(coface)], minus if k & 1 else 1), None
        row = self._coface_entries(cell, cols, minus)
        if v is None and row and last_facet(cols.cells[row[0][0]]):
            return row[0], None
        return None, row


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

    def _face_entries(self, cell, order: FiltrationOrder, minus: int) -> list[tuple[int, int]]:
        """(position in `order` of the face, sign mapped by `minus`), sorted."""
        return _signed(self.faces(cell), order.pos, minus)

    def _coface_entries(self, cell, order: FiltrationOrder, minus: int) -> list[tuple[int, int]]:
        """(position in `order` of the coface, sign mapped by `minus`), sorted."""
        return _signed(self.cofaces(cell, order.dim - 1), order.pos, minus)


def build_order(complex_, dims) -> dict[int, FiltrationOrder]:
    """Per-dimension filtration orders: cells ascending by (birth value,
    dimension, canonical cell key), deterministically."""
    return {n: complex_.order(n) for n in dims}


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
        # the row built by a pareto_leading miss, handed to the row() call
        # that follows it, so that the cofaces are enumerated once
        self._missed: tuple[int, Optional[SparseVector]] = (-1, None)

    def _vector(self, entries: list[tuple[int, int]]) -> SparseVector:
        return SparseVector(self.field, entries, _checked=True)

    def col(self, j: int) -> SparseVector:
        self._check_col(j)
        return self._vector(self.complex._face_entries(self.cols_order.cells[j], self.rows_order, self._minus))

    def row(self, i: int) -> SparseVector:
        self._check_row(i)
        missed_i, missed = self._missed
        if missed_i == i:
            return missed
        return self._vector(self.complex._coface_entries(self.rows_order.cells[i], self.cols_order, self._minus))

    def pareto_leading(self, i: int) -> Optional[tuple[int, int]]:
        if self.complex.kind != "clique":
            return None
        self._check_row(i)
        hit, row = self.complex._apparent_pair(i, self.rows_order, self.cols_order, self._minus)
        if hit is None:
            self._missed = (i, self._vector(row))
        return hit


def _signed(cells, pos: dict, minus: int) -> list[tuple[int, int]]:
    """(pos[cell], 1 or `minus`) pairs of distinct signed cells, sorted."""
    return sorted([(pos[c], 1 if s > 0 else minus) for c, s in cells], key=_first)


def boundary_oracle(complex_, n: int, field: Field) -> BoundaryOracle:
    return BoundaryOracle(complex_, n, field)


def leading_entry_shortcut(complex_, n: int, i: int,
                           rows_order: Optional[FiltrationOrder] = None,
                           cols_order: Optional[FiltrationOrder] = None) -> Optional[tuple[int, int]]:
    """(column, sign) when row i and its leading coface j form an apparent
    pair (no later row meets column j), None otherwise; a miss builds the
    row in the same pass.  Clique complexes only."""
    if complex_.kind != "clique":
        raise UsageError("leading-entry shortcut applies to clique complexes only")
    rows_order = rows_order or complex_.order(n - 1)
    cols_order = cols_order or complex_.order(n)
    return complex_._apparent_pair(i, rows_order, cols_order, -1)[0]


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
