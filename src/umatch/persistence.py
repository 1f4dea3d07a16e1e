"""Barcodes, lazy cycle/cocycle representatives, Jordan-basis access, and
homological inverse problems.

The engine decomposes each boundary operator in increasing dimension with
cross-dimension clearing; the per-dimension matchings assemble into the
matching of the total boundary operator, and every generator query is
answered by lazy retrieval from the per-dimension decompositions.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Union

from .coeff import Field
from .complexes import boundary_oracle
from .decompose import (
    CompressedUmatch,
    DecomposeOptions,
    MatchingArray,
    clearing_filter,
    decompose_compressed,
)
from .errors import InternalInconsistencyError, UsageError
from .linalg import NO_SOLUTION, Sentinel, eval_lattice, solve_dx_b
from .matrix import SparseVector, axpy, matvec, scale
from .retrieve import RetrievalTarget, retrieve
from .sparsify import early_stop_solve


#: the chain is never a boundary at any filtration step
NEVER_BOUNDS = Sentinel("NeverBounds")
#: the two chains never become homologous
NEVER = Sentinel("Never")


@dataclass(frozen=True)
class Chain:
    """Pure-graded chain: a sparse vector over the cells of one dimension,
    indexed by filtration position."""

    dim: int
    vector: SparseVector

    def birth_position(self) -> Optional[int]:
        t = self.vector.trailing()
        return t[0] if t else None


@dataclass(frozen=True)
class Cochain:
    dim: int
    vector: SparseVector


class Bar:
    """One barcode interval with its index-level and value-level endpoints."""

    def __init__(self, engine: "PersistenceEngine", dim: int,
                 birth_pos: int, death_pos: Optional[int]):
        self.engine = engine
        self.dim = dim
        self.birth_pos = birth_pos
        self.death_pos = death_pos
        self.birth_value = engine.order(dim).births[birth_pos]
        self.death_value = (
            engine.order(dim + 1).births[death_pos] if death_pos is not None else math.inf
        )

    @property
    def finite(self) -> bool:
        return self.death_pos is not None

    def interval(self) -> tuple[float, float]:
        return (self.birth_value, self.death_value)

    def __repr__(self) -> str:
        end = f"{self.death_value}" if self.finite else "inf"
        return f"Bar(H{self.dim} [{self.birth_value}, {end}))"


@dataclass
class BoundingResult:
    index: int           # global order index of the latest witness cell
    value: float         # its birth value
    witness: Chain


# -- saecular space expressions -------------------------------------------

@dataclass(frozen=True)
class CyclesBorn:
    """Cycles of dimension n supported on the first p cells of the global
    filtration order (p may be math.inf)."""
    n: int
    p: float


@dataclass(frozen=True)
class BoundariesBorn:
    """Boundaries of dimension n supported on the first p cells."""
    n: int
    p: float


@dataclass(frozen=True)
class ImageOfFiltered:
    """Boundaries of (n+1)-chains supported on the first p cells."""
    n: int
    p: float


@dataclass(frozen=True)
class JordanBasisSelection:
    """Subset of Jordan-basis columns, identified by global cell index."""

    generators: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.generators)

    def materialize(self, engine: "PersistenceEngine") -> list[Chain]:
        return [engine.jordan_column(g) for g in self.generators]


class PersistenceEngine:
    """Per-dimension compressed decompositions of a filtered complex, plus
    all generator-level queries."""

    def __init__(self, complex_, field: Field, max_dim: Optional[int] = None,
                 keep_empty_bars: bool = False):
        self.complex = complex_
        self.field = field
        self.max_dim = complex_.max_dim if max_dim is None else min(max_dim, complex_.max_dim)
        self.keep_empty_bars = keep_empty_bars
        self._orders = {n: complex_.order(n) for n in range(self.max_dim + 1)}
        self._boundaries = {}
        self._umatch: dict[int, CompressedUmatch] = {}
        prior: Optional[MatchingArray] = None
        for n in range(1, self.max_dim + 1):
            d = boundary_oracle(complex_, n, field)
            self._boundaries[n] = d
            clear = clearing_filter(prior) if prior is not None else None
            u = decompose_compressed(d, DecomposeOptions(clear_rows=clear))
            self._umatch[n] = u
            prior = u.matching

    # -- structure accessors -------------------------------------------

    def order(self, n: int):
        return self._orders[n] if n in self._orders else self.complex.order(n)

    def boundary(self, n: int):
        if n in self._boundaries:
            return self._boundaries[n]
        return boundary_oracle(self.complex, n, self.field) if 1 <= n <= self.complex.max_dim else None

    def umatch(self, n: int) -> Optional[CompressedUmatch]:
        return self._umatch.get(n)

    def matching(self, n: int) -> MatchingArray:
        u = self._umatch.get(n)
        if u is not None:
            return u.matching
        rows = len(self.order(n - 1)) if n >= 1 else 0
        return MatchingArray(rows, len(self.order(n)), ())

    def global_index(self, n: int, pos: int) -> int:
        """Index of cell `pos` of dimension n in the order of all cells by
        (birth, dimension, cell key).  Each dimension's births are sorted, so
        the cells before it are `pos` plus, in every other dimension, those
        born earlier and, in a lower dimension, those born with it."""
        births = self._orders[n].births if n in self._orders else ()
        if not 0 <= pos < len(births):
            raise UsageError(f"cell {pos} of dimension {n} out of range")
        b = births[pos]
        return pos + sum((bisect_right if m < n else bisect_left)(order.births, b)
                         for m, order in self._orders.items() if m != n)

    def global_cell(self, g: int) -> tuple[int, int]:
        """(dimension, position) of the cell with global index g."""
        if not 0 <= g < self.n_cells_total:
            raise UsageError(f"global cell index {g} out of range")
        for n, order in self._orders.items():
            pos = bisect_left(range(len(order)), g, key=lambda p: self.global_index(n, p))
            if pos < len(order) and self.global_index(n, pos) == g:
                return n, pos
        raise InternalInconsistencyError(f"no cell has global index {g}")

    @property
    def n_cells_total(self) -> int:
        return sum(map(len, self._orders.values()))

    def total_matching(self) -> list[tuple[int, int]]:
        """All matched pairs in global order indices."""
        out = []
        for n in range(1, self.max_dim + 1):
            for r, c, _ in self.matching(n).pairs:
                out.append((self.global_index(n - 1, r), self.global_index(n, c)))
        return sorted(out)

    # -- barcode ---------------------------------------------------------

    def bars(self, n: int) -> list[Bar]:
        if n < 0 or n > self.max_dim:
            raise UsageError(f"dimension {n} out of range")
        up = self.matching(n + 1)
        # an empty bar is born and dies at one value; it is dropped before
        # any Bar is built for it, unless empty bars are kept
        born, dies = self.order(n).births, self.order(n + 1).births
        out = [Bar(self, n, r, c) for r, c, _ in up.pairs
               if self.keep_empty_bars or born[r] != dies[c]]
        here = self.matching(n)
        for k in range(len(self.order(n))):
            if k not in here.kappa_pos and k not in up.rho_pos:
                out.append(Bar(self, n, k, None))
        out.sort(key=lambda b: (b.birth_pos, b.death_pos if b.death_pos is not None else math.inf))
        return out

    # -- representatives -------------------------------------------------

    def _check_bar(self, bar: Bar) -> None:
        if bar.engine is not self:
            raise UsageError("bar handle belongs to a different engine")

    def _normalize(self, v: SparseVector) -> SparseVector:
        lead = v.leading()
        if lead is None or lead[1] == 1:
            return v
        return scale(self.field.inv(lead[1]), v)

    def cycle_representative(self, bar: Bar, strategy: str = "exact") -> Chain:
        """A cycle born at the bar's birth cell; for a finite bar it is first
        bounded exactly at the death cell."""
        self._check_bar(bar)
        if strategy not in ("exact", "early_stop"):
            raise UsageError(f"unknown strategy {strategy!r}")
        if strategy == "early_stop" and bar.finite:
            u = self._umatch[bar.dim + 1]
            col = early_stop_solve(u, u.matching.col(bar.birth_pos))
            return Chain(bar.dim, self._normalize(matvec(u.d, col)))
        return self._jordan_column(bar.dim, bar.birth_pos)

    def cocycle_representative(self, bar: Bar) -> Cochain:
        """A relative cocycle for the bar, read off the inverse Jordan basis:
        the death row of the domain inverse for a finite bar, the birth row
        of the codomain inverse for an infinite one."""
        self._check_bar(bar)
        n = bar.dim
        if bar.finite:
            u = self._umatch[n + 1]
            vec = retrieve(u, RetrievalTarget("Cinv", "row", bar.death_pos))
            return Cochain(n + 1, self._normalize(vec))
        u = self._umatch.get(n + 1)
        if u is None:
            return Cochain(n, SparseVector.unit(self.field, bar.birth_pos))
        vec = retrieve(u, RetrievalTarget("Rinv", "row", bar.birth_pos))
        return Cochain(n, self._normalize(vec))

    def jordan_column(self, g: int) -> Chain:
        """Column g of a filtered Jordan basis of the total boundary matrix:
        the reduced column at matched rows, the domain column elsewhere."""
        return self._jordan_column(*self.global_cell(g))

    def _jordan_column(self, n: int, pos: int) -> Chain:
        """The Jordan column of cell pos of dimension n: column pos of R
        when the cell is a matched row of the boundary above it, the unit
        vector in dimension 0, and column pos of C elsewhere."""
        up = self._umatch.get(n + 1)
        if up is not None and pos in up.matching.rho_pos:
            vec = retrieve(up, RetrievalTarget("R", "col", pos))
        elif n == 0:
            return Chain(0, SparseVector.unit(self.field, pos))
        else:
            vec = retrieve(self._umatch[n], RetrievalTarget("C", "col", pos))
        return Chain(n, self._normalize(vec))

    # -- saecular lattice -------------------------------------------------

    def _saecular_leaf(self, space) -> tuple[str, frozenset[int]]:
        if isinstance(space, CyclesBorn):
            n = space.n
            here = self.matching(n)
            out = []
            for k in range(len(self.order(n))):
                if k in here.kappa_pos:
                    continue  # not a cycle column
                g = self.global_index(n, k)
                if g < space.p:
                    out.append(g)
            return ("J", frozenset(out))
        if isinstance(space, BoundariesBorn):
            n = space.n
            up = self.matching(n + 1)
            out = [self.global_index(n, r) for r in up.rho
                   if self.global_index(n, r) < space.p]
            return ("J", frozenset(out))
        if isinstance(space, ImageOfFiltered):
            n = space.n
            up = self.matching(n + 1)
            out = [self.global_index(n, r) for r, c, _ in up.pairs
                   if self.global_index(n + 1, c) < space.p]
            return ("J", frozenset(out))
        raise UsageError(f"unrecognized saecular expression {space!r}")

    def saecular_select(self, space) -> JordanBasisSelection:
        """Jordan columns spanning the requested saecular-lattice element
        (leaves combined by linalg.Meet and Join), selected from the
        sparsity pattern of the matchings."""
        _, gens = eval_lattice(space, self._saecular_leaf)
        return JordanBasisSelection(tuple(sorted(gens)))

    # -- inverse problems --------------------------------------------------

    def _require_cycle(self, x: Chain) -> None:
        if x.dim < 0 or x.dim > self.max_dim:
            raise UsageError(f"chain dimension {x.dim} out of range")
        if x.dim == 0:
            return
        d = self.boundary(x.dim)
        if d is not None and matvec(d, x.vector):
            raise UsageError("input chain is not a cycle")

    def birth_value_of(self, x: Chain) -> float:
        pos = x.birth_position()
        if pos is None:
            return -math.inf
        return self.order(x.dim).births[pos]

    def bounding_chain(self, x: Chain) -> Union[BoundingResult, Sentinel]:
        """Earliest filtration step at which x becomes a boundary, with an
        explicit witness; the minimal-support solve makes the witness earliest."""
        self._require_cycle(x)
        n = x.dim
        if not x.vector:
            return BoundingResult(-1, -math.inf, Chain(n + 1, SparseVector.zero(self.field)))
        u = self._umatch.get(n + 1)
        if u is None:
            return NEVER_BOUNDS
        y = solve_dx_b(u, x.vector)
        if y is NO_SOLUTION:
            return NEVER_BOUNDS
        s = y.trailing()[0]
        return BoundingResult(
            self.global_index(n + 1, s),
            self.order(n + 1).births[s],
            Chain(n + 1, y),
        )

    def time_of_homology(self, x: Chain, f: Chain) -> Union[float, Sentinel]:
        """Earliest filtration value at which x and f are homologous cycles."""
        if x.dim != f.dim:
            raise UsageError("chains must have equal dimension")
        self._require_cycle(x)
        self._require_cycle(f)
        diff = axpy(self.field.neg(1), f.vector, x.vector)
        res = self.bounding_chain(Chain(x.dim, diff))
        if res is NEVER_BOUNDS:
            return NEVER
        return max(self.birth_value_of(x), self.birth_value_of(f), res.value)

    def lifespan(self, x: Chain) -> tuple[float, float]:
        """Half-open value interval [birth, bounding); right endpoint inf
        when x never bounds."""
        self._require_cycle(x)
        res = self.bounding_chain(x)
        right = math.inf if res is NEVER_BOUNDS else res.value
        return (self.birth_value_of(x), right)
