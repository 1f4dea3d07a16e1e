"""Filtered Vietoris-Rips (clique) and cubical complexes.

A complex stores its cells per dimension, sorted by filtration order, and
exposes each boundary operator as a lazy MatrixOracle whose rows are built
by a coface enumerator and whose columns are built by a face enumerator.
The matrices themselves are never materialized.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .coeff import Field
from .errors import UsageError
from .matrix import MatrixOracle, SparseVector


class FiltrationOrder:
    """Linear order of the cells of one dimension: cell keys, birth values,
    and the key -> position map."""

    def __init__(self, dim: int, cells: list, births: list[float]):
        self.dim = dim
        self.cells = cells
        self.births = births
        self.pos = {c: i for i, c in enumerate(cells)}

    def __len__(self) -> int:
        return len(self.cells)


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def simplex_rank(simplex: Sequence[int]) -> int:
    """Combinatorial-number-system rank of a sorted vertex tuple: the
    canonical integer id of a simplex within its dimension."""
    return sum(binomial(v, k + 1) for k, v in enumerate(simplex))


class FilteredCliqueComplex:
    """Vietoris-Rips complex of a dissimilarity matrix: a vertex is born at
    its diagonal entry, and a larger simplex at the largest vertex birth or
    pairwise dissimilarity of its vertices."""

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
        self.n_points = d.shape[0]
        self.max_dim = max_dim
        self.threshold = float(threshold)
        self._orders: dict[int, FiltrationOrder] = {}
        self._build()

    def _simplex_birth(self, simplex: tuple[int, ...]) -> float:
        if len(simplex) == 1:
            return float(self.d[simplex[0], simplex[0]])
        return max(float(self.d[a, b]) for a, b in combinations(simplex, 2))

    def _build(self) -> None:
        n = self.n_points
        # edges admitted under the threshold, as adjacency sets
        adj = [set() for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                if self.d[a, b] <= self.threshold:
                    adj[a].add(b)
                    adj[b].add(a)
        for dim in range(self.max_dim + 1):
            cells = []
            if dim == 0:
                for v in range(n):
                    b = float(self.d[v, v])
                    if b <= self.threshold:
                        cells.append((b, (v,)))
            else:
                for simplex in combinations(range(n), dim + 1):
                    ok = all(simplex[j] in adj[simplex[i]]
                             for i in range(dim + 1) for j in range(i + 1, dim + 1))
                    if not ok:
                        continue
                    b = self._simplex_birth(simplex)
                    if b <= self.threshold:
                        cells.append((b, simplex))
            cells.sort()
            self._orders[dim] = FiltrationOrder(
                dim, [c for _, c in cells], [b for b, _ in cells]
            )

    def order(self, dim: int) -> FiltrationOrder:
        if dim not in self._orders:
            return FiltrationOrder(dim, [], [])
        return self._orders[dim]

    def n_cells(self, dim: int) -> int:
        return len(self.order(dim))

    def faces(self, cell: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
        """(face, sign) pairs: omitting the k-th vertex carries (-1)^k."""
        out = []
        for k in range(len(cell)):
            face = cell[:k] + cell[k + 1:]
            out.append((face, -1 if k % 2 else 1))
        return out

    def cofaces(self, cell: tuple[int, ...], dim: int) -> list[tuple[tuple[int, ...], int]]:
        """(coface, sign) pairs among admitted (dim+1)-cells."""
        order_up = self.order(dim + 1)
        out = []
        vs = set(cell)
        for v in range(self.n_points):
            if v in vs:
                continue
            coface = tuple(sorted(cell + (v,)))
            if coface in order_up.pos:
                k = coface.index(v)
                out.append((coface, -1 if k % 2 else 1))
        return out

    def coface_candidates(self, cell: tuple[int, ...], dim: int):
        """Yield (birth, coface, sign) without consulting the stored order;
        used by the leading-entry shortcut."""
        vs = set(cell)
        base = self._simplex_birth(cell)
        for v in range(self.n_points):
            if v in vs:
                continue
            extra = max(float(self.d[v, u]) for u in cell)
            b = max(base, extra)
            if b > self.threshold:
                continue
            coface = tuple(sorted(cell + (v,)))
            k = coface.index(v)
            yield (b, coface, -1 if k % 2 else 1)


class FilteredCubicalComplex:
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
            self._orders[dim] = FiltrationOrder(
                dim, [c for _, c in cells], [b for b, _ in cells]
            )

    def order(self, dim: int) -> FiltrationOrder:
        if dim not in self._orders:
            return FiltrationOrder(dim, [], [])
        return self._orders[dim]

    def n_cells(self, dim: int) -> int:
        return len(self.order(dim))

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
        anchor, extent = cell
        order_up = self.order(dim + 1)
        out = []
        for ax in range(self.ndim):
            if ax in extent:
                continue
            new_extent = tuple(sorted(extent + (ax,)))
            j = new_extent.index(ax)
            sign = -1 if j % 2 else 1
            # the cell can be the upper or the lower face along this axis
            cand = (anchor, new_extent)
            if cand in order_up.pos:
                out.append((cand, -sign))
            lowered = tuple(anchor[i] - (1 if i == ax else 0) for i in range(self.ndim))
            if lowered[ax] >= 0:
                cand = (lowered, new_extent)
                if cand in order_up.pos:
                    out.append((cand, sign))
        return out


def build_order(complex_, dims) -> dict[int, FiltrationOrder]:
    """Per-dimension filtration orders: cells ascending by (birth value,
    dimension, canonical cell key), deterministically."""
    return {n: complex_.order(n) for n in dims}


class BoundaryOracle(MatrixOracle):
    """Boundary operator of one dimension, rows indexed by (n-1)-cells and
    columns by n-cells, both in filtration order.  Signs are mapped into the
    coefficient field, so all coefficients are 1 when p = 2."""

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

    def col(self, j: int) -> SparseVector:
        self._check_col(j)
        f = self.field
        cell = self.cols_order.cells[j]
        acc: dict[int, int] = {}
        for face, sign in self.complex.faces(cell):
            i = self.rows_order.pos[face]
            acc[i] = f.add(acc.get(i, 0), f.normalize(sign))
        return SparseVector.from_dict(f, acc)

    def row(self, i: int) -> SparseVector:
        self._check_row(i)
        f = self.field
        cell = self.rows_order.cells[i]
        acc: dict[int, int] = {}
        for coface, sign in self.complex.cofaces(cell, self.n - 1):
            j = self.cols_order.pos[coface]
            acc[j] = f.add(acc.get(j, 0), f.normalize(sign))
        return SparseVector.from_dict(f, acc)

    def pareto_leading(self, i: int) -> Optional[tuple[int, int]]:
        if self.complex.kind != "clique":
            return None
        hit = leading_entry_shortcut(self.complex, self.n, i, self.rows_order, self.cols_order)
        if hit is None:
            return None
        j, sign = hit
        return (j, self.field.normalize(sign))


def boundary_oracle(complex_, n: int, field: Field) -> BoundaryOracle:
    return BoundaryOracle(complex_, n, field)


def leading_entry_shortcut(complex_, n: int, i: int,
                           rows_order: Optional[FiltrationOrder] = None,
                           cols_order: Optional[FiltrationOrder] = None) -> Optional[tuple[int, int]]:
    """(column, sign) when the minimum-order coface j of row i satisfies the
    short-circuit condition (no later row meets column j), found without
    enumerating the full row; None otherwise.  Clique complexes only."""
    if complex_.kind != "clique":
        raise UsageError("leading-entry shortcut applies to clique complexes only")
    if rows_order is None:
        rows_order = complex_.order(n - 1)
    if cols_order is None:
        cols_order = complex_.order(n)
    cell = rows_order.cells[i]
    best = None
    for b, coface, sign in complex_.coface_candidates(cell, n - 1):
        key = (b, coface)
        if best is None or key < best[0]:
            best = (key, coface, sign)
    if best is None:
        return None
    coface, sign = best[1], best[2]
    # the pair short-circuits iff this row is the last facet of the coface
    last_face = max(complex_.faces(coface), key=lambda fs: rows_order.pos[fs[0]])
    if last_face[0] != cell:
        return None
    return (cols_order.pos[coface], sign)


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
    if metric == "euclidean":
        d = euclidean_metric(points)
    elif metric == "torus":
        d = torus_metric(points)
    else:
        raise UsageError(f"unknown metric {metric!r}")
    return FilteredCliqueComplex(d, max_dim, threshold)
