"""Span tracing of umatch from outside the program.

`install` replaces the layer-boundary functions and methods of umatch with
wrappers that record a span (name, start, end, parent) while the tracer is
enabled, and call straight through while it is not.  Spans stay in memory,
in flat arrays, until `layer_metrics` reduces them after a traced run.

A module-level function is imported by name into other umatch modules
(`persistence` holds its own reference to `retrieve.retrieve`), so every
module attribute that is the original function object is replaced.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import umatch.cli
import umatch.complexes
import umatch.decompose
import umatch.io
import umatch.linalg
import umatch.matrix
import umatch.persistence
import umatch.sparsify

# the package re-exports the function `retrieve` under the module's name
retrieval = importlib.import_module("umatch.retrieve")

_now = time.perf_counter_ns


class Tracer:
    """In-memory span store."""

    def __init__(self):
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        # integer counts taken at span boundaries, and objects whose sizes
        # are read after the run so that reading them is never timed
        self.counts: dict[str, int] = defaultdict(int)
        self.decompositions: list[tuple[str, object]] = []
        self.complexes: list[object] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.name)


def _span(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


def _count_entries(key):
    def after(tracer, args, result):
        tracer.counts[key] += len(result.entries)
    return after


def _count_if(key, pred):
    def after(tracer, args, result):
        if pred(result):
            tracer.counts[key] += 1
    return after


def _keep_complex(tracer, args, result):
    tracer.complexes.append(args[0])


def _decompose_wrapper(tracer: Tracer, fn):
    """decompose_compressed with OpCounter switched on, so its counts can be
    read; counting does not change the factorization."""

    @functools.wraps(fn)
    def traced(d, opts=umatch.decompose.DecomposeOptions()):
        if not tracer.enabled:
            return fn(d, opts)
        unit = f"d{d.n}" if hasattr(d, "n") else "other"
        idx = tracer.open(f"decompose.{unit}")
        try:
            u = fn(d, dataclasses.replace(opts, counters=True))
        finally:
            tracer.close(idx)
        tracer.decompositions.append((unit, u))
        return u

    return traced


def _retrieve_wrapper(tracer: Tracer, fn):
    """retrieve through retrieve_with_stats, which does the same work and
    also hands back the solve and axpy counts."""
    with_stats = retrieval.retrieve_with_stats

    @functools.wraps(fn)
    def traced(u, t):
        if not tracer.enabled:
            return fn(u, t)
        idx = tracer.open("retrieve.call")
        try:
            vec, counter = with_stats(u, t)
        finally:
            tracer.close(idx)
        tracer.counts["retrieve.solves"] += counter.solves
        tracer.counts["retrieve.axpy_entries"] += counter.axpy_entries
        return vec

    return traced


def _replace_function(module, attr: str, wrapper_of) -> None:
    original = getattr(module, attr)
    wrapped = wrapper_of(original)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("umatch") and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of umatch.  Call once per process."""
    cx, dec, mat, ret = umatch.complexes, umatch.decompose, umatch.matrix, retrieval
    lin, spa, per, io, cli = umatch.linalg, umatch.sparsify, umatch.persistence, umatch.io, umatch.cli

    methods = [
        (cx.FilteredCliqueComplex, "__init__", "complexes.build", _keep_complex),
        (cx.BoundaryOracle, "row", "complexes.row", _count_entries("complexes.row_entries")),
        (cx.BoundaryOracle, "col", "complexes.col", None),
        (cx.BoundaryOracle, "pareto_leading", "complexes.pareto",
         _count_if("complexes.pareto_hits", lambda r: r is not None)),
        (mat.StoredCsMatrix, "row", "matrix.row", None),
        (mat.StoredCsMatrix, "col", "matrix.col", None),
        (ret.PivotBlockProduct, "row", "retrieve.a_row", None),
        (ret.PivotBlockProduct, "col", "retrieve.a_col", None),
        (per.PersistenceEngine, "__init__", "persistence.engine", None),
        (per.PersistenceEngine, "bars", "persistence.bars", None),
        (per.PersistenceEngine, "cycle_representative", "persistence.cycle_rep", None),
        (per.PersistenceEngine, "cocycle_representative", "persistence.cocycle_rep", None),
        (per.PersistenceEngine, "bounding_chain", "persistence.bounding_chain", None),
        (per.PersistenceEngine, "time_of_homology", "persistence.time_of_homology", None),
        (per.PersistenceEngine, "lifespan", "persistence.lifespan", None),
    ]
    for cls, attr, name, after in methods:
        setattr(cls, attr, _span(tracer, name, getattr(cls, attr), after))

    no_solution = _count_if("linalg.no_solution", lambda r: r is lin.NO_SOLUTION)
    functions = [
        (io, "load_distance_csv", "io.load", None),
        (io, "barcode_json", "io.json", None),
        (io, "bar_json", "io.json", None),
        (io, "dump_json", "io.json", None),
        (lin, "solve_dx_b", "linalg.solve", no_solution),
        (lin, "solve_yd_c", "linalg.solve", no_solution),
        (spa, "early_stop_solve", "sparsify.early_stop", None),
        (cli, "main", "cli.main", None),
    ]
    for module, attr, name, after in functions:
        _replace_function(module, attr, lambda fn, n=name, a=after: _span(tracer, n, fn, a))
    _replace_function(dec, "decompose_compressed", lambda fn: _decompose_wrapper(tracer, fn))
    _replace_function(ret, "retrieve", lambda fn: _retrieve_wrapper(tracer, fn))


DECOMPOSE_UNITS = ("d1", "d2")
DECOMPOSE_FIELDS = ("eliminations", "heap_pops", "rows_processed", "rows_cleared", "pareto_hits")


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Reduce the spans of one traced run to per-layer timings (seconds),
    exact counts, and useful-outcome ratios (0 when nothing was attempted).
    A layer's time sums its outermost spans only, so a layer that calls
    itself is not counted twice; self time is a span minus the spans
    directly inside it."""
    n = len(tracer)
    names = [tracer.names[i] for i in tracer.name]
    dur = [(tracer.end[i] - tracer.start[i]) * 1e-9 for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for i in range(n):
        calls[names[i]] += 1
        total[names[i]] += dur[i]
        self_s[names[i]] += dur[i] - child[i]

    def outermost(prefix: str) -> float:
        def inside(name):
            return name == prefix or name.startswith(prefix + ".")
        out = 0.0
        for i in range(n):
            p = tracer.parent[i]
            if inside(names[i]) and (p < 0 or not inside(names[p])):
                out += dur[i]
        return out

    c = tracer.counts
    times = {
        "complexes.build_s": total["complexes.build"],
        "complexes.row_s": total["complexes.row"],
        "complexes.col_s": total["complexes.col"],
        "complexes.pareto_s": total["complexes.pareto"],
        "matrix.access_s": outermost("matrix"),
        "retrieve.s": total["retrieve.call"],
        "retrieve.a_s": total["retrieve.a_row"] + total["retrieve.a_col"],
        "linalg.solve_s": total["linalg.solve"],
        "sparsify.s": total["sparsify.early_stop"],
        "persistence.engine_s": total["persistence.engine"],
        "persistence.engine_self_s": self_s["persistence.engine"],
        "persistence.bars_s": total["persistence.bars"],
        "persistence.cycle_rep_s": total["persistence.cycle_rep"],
        "persistence.cocycle_rep_s": total["persistence.cocycle_rep"],
        "persistence.bounding_chain_s": total["persistence.bounding_chain"],
        "io.load_s": total["io.load"],
        "io.json_s": outermost("io.json"),
        "cli.self_s": self_s["cli.main"],
    }
    counts = {
        "complexes.row_calls": calls["complexes.row"],
        "complexes.row_entries": c["complexes.row_entries"],
        "complexes.col_calls": calls["complexes.col"],
        "complexes.pareto_calls": calls["complexes.pareto"],
        "complexes.pareto_hits": c["complexes.pareto_hits"],
        "matrix.row_calls": calls["matrix.row"],
        "matrix.col_calls": calls["matrix.col"],
        "retrieve.calls": calls["retrieve.call"],
        "retrieve.solves": c["retrieve.solves"],
        "retrieve.axpy_entries": c["retrieve.axpy_entries"],
        "retrieve.a_row_calls": calls["retrieve.a_row"],
        "retrieve.a_col_calls": calls["retrieve.a_col"],
        "linalg.solve_calls": calls["linalg.solve"],
        "sparsify.calls": calls["sparsify.early_stop"],
        "persistence.cycle_rep_calls": calls["persistence.cycle_rep"],
        "trace.spans": n,
    }
    for dim in range(3):
        counts[f"complexes.cells.d{dim}"] = sum(cx.n_cells(dim) for cx in tracer.complexes)
    for unit in DECOMPOSE_UNITS:
        times[f"decompose.s.{unit}"] = total[f"decompose.{unit}"]
        times[f"decompose.self_s.{unit}"] = self_s[f"decompose.{unit}"]
        for key in DECOMPOSE_FIELDS + ("rank", "rbar_nnz"):
            counts[f"decompose.{key}.{unit}"] = 0
    for unit, u in tracer.decompositions:
        for key in DECOMPOSE_FIELDS:
            counts[f"decompose.{key}.{unit}"] += getattr(u.stats, key)
        counts[f"decompose.rank.{unit}"] += u.rank
        counts[f"decompose.rbar_nnz.{unit}"] += u.rbar.nnz_offdiag()

    def share(hits: int, attempts: int) -> float:
        return hits / attempts if attempts else 0.0

    ratios = {
        "complexes.pareto_hit_ratio": share(c["complexes.pareto_hits"], calls["complexes.pareto"]),
        "retrieve.solves_per_call": share(c["retrieve.solves"], calls["retrieve.call"]),
        "linalg.no_solution_ratio": share(c["linalg.no_solution"], calls["linalg.solve"]),
    }
    return times, counts, ratios
