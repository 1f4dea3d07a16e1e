"""Proper U-match decomposition of a matrix oracle.

Both entry points perform the same bottom-to-top row reduction and produce
the same (unique) matching array.  :func:`decompose_full` stores the whole
row and column operation matrices; :func:`decompose_compressed` stores only
the pivot-row block of the row operation matrix and recomputes modified rows
on demand, which is what makes large decompositions affordable.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush, heapreplace
from itertools import islice, repeat
from typing import Iterable, Iterator, Optional, Sequence

from .coeff import Field
from .errors import InternalInconsistencyError, UsageError
from .matrix import MatrixOracle, SparseVector, StoredCsMatrix, _accumulate, _apparent_pair


@dataclass
class OpCounter:
    """Coarse operation counts, for benchmarking and regression tests.

    heap_pops counts the positions the merge of decompose_compressed pops,
    each once however many streamed rows hold it; the cancelled prefixes of
    pivot rows are skipped, never popped.  row_fetches counts the distinct
    rows of D the decomposition built, row_memo_hits the later reads of
    them.  A line of the pivot-block product A served from its
    decomposition's memo adds to a_memo_hits and to no other count, so
    axpy_entries depends on which lines earlier calls built; solves does not.
    """

    eliminations: int = 0
    heap_pops: int = 0
    rows_processed: int = 0
    rows_cleared: int = 0
    pareto_hits: int = 0
    solves: int = 0
    axpy_entries: int = 0
    row_fetches: int = 0
    row_memo_hits: int = 0
    a_lines_built: int = 0
    a_memo_hits: int = 0


@dataclass(frozen=True)
class DecomposeOptions:
    counters: bool = False
    clear_rows: Optional[frozenset[int]] = None


class MatchingArray:
    """The unique generalized matching matrix of a U-match decomposition,
    in pivot-position form: rho and kappa are the sorted matched rows and
    columns, rho_pos and kappa_pos their positions, and
    M[rho[pi[p]], kappa[p]] = m_diag[p], with pi_inv the inverse of pi.
    The pairs, the complements and row / column lookups derive from these.
    """

    def __init__(self, nrows: int, ncols: int, pairs: Iterable[tuple[int, int, int]]):
        self.nrows = nrows
        self.ncols = ncols
        by_col = sorted((c, r, v) for r, c, v in pairs)
        self.kappa = tuple(c for c, _, _ in by_col)
        self.rho = tuple(sorted(r for _, r, _ in by_col))
        self.kappa_pos = {c: p for p, c in enumerate(self.kappa)}
        self.rho_pos = {r: q for q, r in enumerate(self.rho)}
        if len(self.kappa_pos) < len(by_col) or len(self.rho_pos) < len(by_col):
            raise UsageError("matching has more than one entry in a row or column")
        # pi[p] = pivot-row position paired with pivot-column position p
        self.pi = tuple(self.rho_pos[r] for _, r, _ in by_col)
        self.m_diag = tuple(v for _, _, v in by_col)
        if 0 in self.m_diag:
            raise UsageError("matching coefficients must be nonzero")
        # pi_inv[q] = pivot-column position paired with pivot-row position q
        self.pi_inv = tuple(sorted(self.kappa_pos.values(), key=self.pi.__getitem__))

    # the complements scan every row or column, so they are built on first use

    @cached_property
    def rho_bar(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.nrows) if i not in self.rho_pos)

    @cached_property
    def kappa_bar(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.ncols) if j not in self.kappa_pos)

    @property
    def kappa_star(self) -> tuple[int, ...]:
        """The matched rows, in the order of their columns."""
        return tuple(self.rho[q] for q in self.pi)

    @property
    def pairs(self) -> tuple[tuple[int, int, int], ...]:
        """The (row, column, coefficient) triples, sorted by row."""
        return tuple((r, self.kappa[p], self.m_diag[p]) for r, p in zip(self.rho, self.pi_inv))

    @property
    def rank(self) -> int:
        return len(self.rho)

    def coeff(self, r: int, c: Optional[int] = None) -> int:
        """M[r, c]; with c omitted, the coefficient of row r's pivot."""
        q = self.rho_pos.get(r)
        if q is None:
            return 0
        p = self.pi_inv[q]
        if c is not None and self.kappa[p] != c:
            return 0
        return self.m_diag[p]

    def support(self) -> frozenset[tuple[int, int]]:
        return frozenset((r, c) for r, c, _ in self.pairs)

    def row(self, c: int) -> Optional[int]:
        p = self.kappa_pos.get(c)
        return None if p is None else self.rho[self.pi[p]]

    def col(self, r: int) -> Optional[int]:
        q = self.rho_pos.get(r)
        return None if q is None else self.kappa[self.pi_inv[q]]

    def to_oracle(self, field: Field) -> StoredCsMatrix:
        rows = {r: {c: v} for r, c, v in self.pairs}
        return StoredCsMatrix.from_row_dicts(field, self.nrows, self.ncols, rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatchingArray)
            and other.nrows == self.nrows
            and other.ncols == self.ncols
            and other.pairs == self.pairs
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.pairs))

    def __repr__(self) -> str:
        return f"MatchingArray({self.nrows}x{self.ncols}, rank {self.rank})"


@dataclass
class FullUmatch:
    """Uncompressed proper decomposition: both operation matrices stored."""

    d: MatrixOracle
    rinv: StoredCsMatrix
    cinv: StoredCsMatrix
    matching: MatchingArray

    @property
    def field(self) -> Field:
        return self.d.field


class _LineMemo:
    """Lines of a matrix, keyed by (axis, index), kept while their entries
    total at most `budget`; nothing is evicted.  Storing checks the total
    and then adds to it, so it holds a lock."""

    __slots__ = ("lines", "held", "budget", "_lock")

    def __init__(self, budget: int):
        self.lines: dict[tuple[str, int], SparseVector] = {}
        self.held = 0
        self.budget = budget
        self._lock = threading.Lock()

    def store(self, key: tuple[str, int], line: SparseVector) -> None:
        with self._lock:
            if key not in self.lines and self.held + line.nnz <= self.budget:
                self.lines[key] = line
                self.held += line.nnz


class CompressedUmatch:
    """Compressed decomposition: the matching array plus the pivot block
    (R_rho_rho)^(-1); every other factor is reconstructed lazily.  Lines of
    the pivot-block product A are memoised up to rbar.nnz entries in all
    (see umatch.retrieve)."""

    def __init__(self, d: MatrixOracle, matching: MatchingArray,
                 rbar: StoredCsMatrix, stats: Optional[OpCounter] = None):
        self.d = d
        self.matching = matching
        self.rbar = rbar
        self.stats = stats
        # the matching's own objects, read on every retrieval
        m = matching
        self.rho = m.rho
        self.kappa = m.kappa
        self.rho_pos = m.rho_pos
        self.kappa_pos = m.kappa_pos
        self.pi = m.pi
        self.pi_inv = m.pi_inv
        self.m_diag = m.m_diag
        self._a_memo = _LineMemo(rbar.nnz)

    @property
    def field(self) -> Field:
        return self.d.field

    @property
    def rank(self) -> int:
        return self.matching.rank

    def lift(self, v: SparseVector, index: Sequence[int]) -> SparseVector:
        """Pivot positions to absolute indices through rho or kappa; both
        are sorted, so the entries stay in order."""
        return SparseVector(self.field, tuple((index[k], a) for k, a in v.entries), _checked=True)

    def restrict(self, v: SparseVector, pos: dict[int, int]) -> SparseVector:
        """Absolute indices to pivot positions through rho_pos or kappa_pos,
        dropping the unmatched indices; the entries stay in order."""
        return SparseVector(self.field, tuple((pos[i], a) for i, a in v.entries if i in pos),
                            _checked=True)

    def d_row_kappa(self, i: int) -> SparseVector:
        """Row i of D restricted to pivot columns, in pivot-column positions."""
        return self.restrict(self.d.row(i), self.kappa_pos)

    def d_col_rho(self, j: int) -> SparseVector:
        """Column j of D restricted to pivot rows, in pivot-row positions."""
        return self.restrict(self.d.col(j), self.rho_pos)


def decompose_full(d: MatrixOracle) -> FullUmatch:
    """Bottom-to-top row reduction storing every factor (uncompressed form).

    Modified rows are kept in memory; the normalized nonzero rows of the
    reduced matrix become the pivot rows of the inverse domain matrix.
    """
    f = d.field
    m, n = d.nrows, d.ncols
    reduced: dict[int, dict[int, int]] = {}
    rinv_rows: dict[int, dict[int, int]] = {}
    lead_of: dict[int, int] = {}  # leading column -> pivot row below

    for i in range(m - 1, -1, -1):
        work = {j: v for j, v in d.row(i).entries}
        ops = {i: 1}
        while work:
            k = min(work)
            j = lead_of.get(k)
            if j is None:
                break
            neg_lam = f.neg(f.div(work[k], reduced[j][k]))
            _accumulate(work, neg_lam, reduced[j].items(), f.p)
            _accumulate(ops, neg_lam, rinv_rows[j].items(), f.p)
        rinv_rows[i] = ops
        if work:
            k = min(work)
            reduced[i] = work
            lead_of[k] = i

    matching = MatchingArray(m, n, ((r, c, reduced[r][c]) for c, r in lead_of.items()))
    cinv_rows: dict[int, dict[int, int]] = {}
    for c, r in lead_of.items():
        s = f.inv(reduced[r][c])
        cinv_rows[c] = {j: f.mul(s, w) for j, w in reduced[r].items()}
    for c in matching.kappa_bar:
        cinv_rows[c] = {c: 1}
    rinv = StoredCsMatrix.from_row_dicts(f, m, m, rinv_rows)
    cinv = StoredCsMatrix.from_row_dicts(f, n, n, cinv_rows)
    return FullUmatch(d, rinv, cinv, matching)


def decompose_compressed(d: MatrixOracle, opts: DecomposeOptions = DecomposeOptions()) -> CompressedUmatch:
    """Bottom-to-top row reduction storing only the matching array and the
    pivot-row block of the row operation matrix.

    Modified rows are never stored: whenever a pivot row is needed for an
    elimination, it is recomputed as the product of the corresponding stored
    pivot-block row with the rows of d, streamed through a lazy merge heap.
    By R^-1 D = M C^-1, with C^-1 upper unitriangular, the pivot row matched
    to column k is zero before k, so each of its rows of d is streamed from
    its first position past k.  While it runs, the call holds the matching
    so far, the pivot-block rows, one merge heap with one entry per streamed
    row, and a memo of the rows of d, the reduced ones and the streamed
    ones: each is built once per call through d.row and kept compact, so
    heap entries are made only for the entries the heap reads; the memo is
    dropped when the reduction ends.  The pivot block is returned
    row-major; its column-major twin is built on the first rbar.col.
    """
    f = d.field
    p = f.p
    m, n = d.nrows, d.ncols
    counter = OpCounter() if opts.counters else None
    clear_rows = opts.clear_rows or frozenset()

    # pivot row -> its (R_rr)^-1 row, by absolute index; an apparent pair's
    # row is the unit row, kept implicitly
    rbar_rows: dict[int, dict[int, int]] = {}
    row_of_lead: dict[int, int] = {}  # matched column -> pivot row
    coeff_of_lead: dict[int, int] = {}  # matched column -> matching coefficient, when not 1
    # row of d -> its compact line: the positions as machine ints, and the
    # coefficients as bytes when p < 256, a tuple otherwise, or None when
    # all are 1
    memo: dict[int, tuple[array, Optional[Sequence[int]]]] = {}
    typecode = "i" if n < 2 ** 31 else "q"
    # the merge: (position, source id, coefficient) per streamed row, and
    # source id -> the rest of that stream, None once it is exhausted; ids
    # are unique, so entries never compare past the id
    heap: list[tuple[int, int, int]] = []
    sources: list[Optional[Iterator[tuple[int, int, int]]]] = []

    def push(i: int, after: int, alpha: int) -> None:
        """Stream alpha * (row i of d) from its first position past `after`."""
        line = memo.get(i)
        if line is None:
            entries = d.row(i).entries
            positions, coeffs = zip(*entries) if entries else ((), ())
            if coeffs.count(1) == len(coeffs):
                coeffs = None
            elif p < 256:
                coeffs = bytes(coeffs)
            line = memo[i] = array(typecode, positions), coeffs
            if counter is not None:
                counter.row_fetches += 1
        elif counter is not None:
            counter.row_memo_hits += 1
        positions, coeffs = line
        s = bisect_right(positions, after)
        if s == len(positions):
            return
        if coeffs is None:
            values = repeat(alpha)
        elif alpha == 1:
            values = islice(coeffs, s, None)
        else:
            values = map(p.__rmod__, map(alpha.__mul__, islice(coeffs, s, None)))
        it = zip(islice(positions, s, None), repeat(len(sources)), values)
        sources.append(it)
        heappush(heap, next(it))

    for i in range(m - 1, -1, -1):
        if i in clear_rows:
            if counter is not None:
                counter.rows_cleared += 1
            continue
        if counter is not None:
            counter.rows_processed += 1

        hit = d.pareto_leading(i)
        if hit is not None:
            k, a = hit
            if k in row_of_lead:
                raise InternalInconsistencyError(
                    "pareto-leading column is already matched"
                )
            row_of_lead[k] = i
            if a != 1:
                coeff_of_lead[k] = a
            if counter is not None:
                counter.pareto_hits += 1
            continue

        push(i, -1, 1)
        vec: dict[int, int] = {}
        while heap:
            # pop the leading position, advancing every source that holds it
            k, a = heap[0][0], 0
            while heap and heap[0][0] == k:
                _, sid, v = heap[0]
                a += v
                nxt = next(sources[sid], None)
                if nxt is None:
                    heappop(heap)
                    sources[sid] = None
                else:
                    heapreplace(heap, nxt)
            if counter is not None:
                counter.heap_pops += 1
            a %= p
            if not a:
                continue
            j = row_of_lead.get(k)
            if j is None:
                # new pivot
                rbar_rows[i] = {i: 1, **vec}
                row_of_lead[k] = i
                if a != 1:
                    coeff_of_lead[k] = a
                break
            neg_lam = f.neg(f.div(a, coeff_of_lead.get(k, 1)))
            # the reduced pivot row j, row_j(rbar) * D, is zero before k
            # and cancels a at k, so its rows are streamed from past k
            ops = rbar_rows[j].items() if j in rbar_rows else ((j, 1),)
            for jj, w in ops:
                push(jj, k, neg_lam * w % p)
            _accumulate(vec, neg_lam, ops, p)
            if counter is not None:
                counter.eliminations += 1
        heap.clear()
        sources.clear()
    memo.clear()

    matching = MatchingArray(m, n, ((r, c, coeff_of_lead.get(c, 1)) for c, r in row_of_lead.items()))
    # rbar in CSR form, one row per pivot row in order; rho is sorted, so
    # sorting a row by absolute index sorts it by pivot-row position
    pos = matching.rho_pos
    row_ptr, col_idx, vals = [0], [], []
    for r in matching.rho:
        for j, v in sorted(rbar_rows[r].items()) if r in rbar_rows else ((r, 1),):
            col_idx.append(pos[j])
            vals.append(v)
        row_ptr.append(len(col_idx))
    k = matching.rank
    rbar = StoredCsMatrix(f, k, k, row_ptr, col_idx, vals)
    return CompressedUmatch(d, matching, rbar, stats=counter)


def clearing_filter(prior: MatchingArray) -> frozenset[int]:
    """Rows to skip when decomposing the next boundary block.

    A cell matched as a column of the previous block can never index a pivot
    row of the next one, because definition and value sets of the matching
    of a 2-nilpotent graded matrix are disjoint.
    """
    return frozenset(prior.kappa)


def pareto_pairs(d: MatrixOracle) -> frozenset[tuple[int, int]]:
    """All (i, j) where D[i, j] is the leading entry of row i and the lowest
    entry of column j; every such pair lies in the matching support.  The
    generic probe runs on every row, whatever test d.pareto_leading makes."""
    hits = ((i, _apparent_pair(d, i)) for i in range(d.nrows))
    return frozenset((i, hit[0]) for i, hit in hits if hit is not None)
