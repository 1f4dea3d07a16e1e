"""Benchmark of umatch: one workload per run, end-to-end metrics untraced,
per-layer metrics from a separate traced pass.

    python3 perfbench/run.py --workload rips_barcode --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; umatch is imported from `src/`.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it records the
environment, the input sizes and the raw time samples.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

IMPORT_SAMPLES = 5
ENGINE_SAMPLES = 2
TRACED_RUNS = 2
PROBES = 10          # machine probes spread over the measured time


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_seconds() -> float:
    """Median time to import umatch in a fresh interpreter.  A first,
    unmeasured import writes the bytecode caches."""
    code = "import time; t = time.perf_counter(); import umatch; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=60)
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples[1:])


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "umatch").glob("*.py")):
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "git_commit": commit,
            "src_sha256": digest.hexdigest(), "seed": seed}


def machine_probe() -> float:
    """Seconds for a fixed pure-Python loop of dict and heap work, like
    umatch's but independent of it: a rough gauge of how fast the host ran
    at that moment."""
    t0 = time.perf_counter()
    heap, counts = [], {}
    for i in range(60000):
        heapq.heappush(heap, (i * 7919) % 10007)
        counts[(i, i % 97)] = counts.get((i % 500, 1), 0) + 1
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_heap_mb(wl) -> float:
    """tracemalloc peak of the workload's memory run.  Tracing allocations
    slows the code, so this run is never timed; it doubles as the warm-up
    (lazy imports, first allocations) before the timed passes."""
    gc.collect()
    tracemalloc.start()
    try:
        wl.memory_run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def timed_pass(wl, seconds: float, tally) -> tuple[dict, dict]:
    """Repeat passes until `seconds` of measured work is done.  A pass runs
    the command on every instance, or one batch of queries; each command or
    query is a request.  Output checks run between passes, outside the
    measured time."""
    marks = [time.perf_counter()]
    setup = wl.setup_samples(ENGINE_SAMPLES)
    setup_s = import_seconds() + (statistics.median(setup) if setup else 0.0)
    marks.append(time.perf_counter())
    peak = peak_heap_mb(wl)
    marks.append(time.perf_counter())
    walls: list[float] = []
    latencies: list[float] = []
    probes: list[float] = []
    k = 1
    while sum(walls) < seconds or len(walls) < 3:
        if len(probes) * seconds / PROBES <= sum(walls):
            probes.append(machine_probe())
        wl.prepare_pass(k)
        gc.collect()
        t0 = time.perf_counter()
        latencies += wl.run_pass()
        walls.append(time.perf_counter() - t0)
        wl.check_pass(tally)
        k += 1
    marks.append(time.perf_counter())
    phases = dict(zip(("setup", "memory", "passes_and_checks"),
                      (b - a for a, b in zip(marks, marks[1:]))))
    ms = [x * 1e3 for x in latencies]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "queries_per_s": (len(latencies) / sum(walls), "1/s"),
        "query_p50_ms": (statistics.median(ms), "ms"),
        "query_p99_ms": (percentile(ms, 99), "ms"),
        "peak_heap_mb": (peak, "MB"),
        "pass_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    detail = {"passes": len(walls), "requests": len(latencies), "phase_s": phases,
              "probe_median_s": statistics.median(probes), "setup_in_process_s": setup,
              "wall_samples_s": walls}
    return metrics, detail


def traced_pass(wl, seconds: float, tally) -> tuple[dict, dict]:
    """Per-layer numbers.  After a warm-up, untraced full runs give the
    reference wall time; then the layer boundaries are wrapped and the same
    run is traced TRACED_RUNS times.  Exact counts must agree between the
    traced runs."""
    import tracing

    wl.full_run()
    wl.check_pass(tally)
    untraced = []
    while sum(untraced) < seconds / 2 or len(untraced) < 2:
        untraced.append(wl.full_run())
        wl.check_pass(tally)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    runs = []
    for _ in range(TRACED_RUNS):
        tracer.reset()
        gc.collect()
        wall = wl.full_run(tracer)
        times, counts, ratios = tracing.layer_metrics(tracer)
        runs.append((wall, times, counts, ratios))
        wl.check_pass(tally)
    for _, _, counts, ratios in runs[1:]:
        tally.check(counts == runs[0][2] and ratios == runs[0][3],
                    "exact counts differ between two traced runs of the same code")
    wall = statistics.median(r[0] for r in runs)
    _, _, counts, ratios = runs[0]
    metrics = {k: (statistics.median(r[1][k] for r in runs), "s") for k in runs[0][1]}
    metrics.update({k: (v, "count") for k, v in counts.items()})
    metrics.update({k: (v, "ratio") for k, v in ratios.items()})
    metrics["io.json_bytes"] = (wl.output_bytes(), "bytes")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - statistics.median(untraced), "s")
    nnz_ratio = getattr(wl, "early_stop_nnz_ratio", None)
    metrics["sparsify.nnz_ratio"] = (nnz_ratio() if nnz_ratio else 0.0, "ratio")
    detail = {"untraced_wall_s": untraced, "traced_wall_s": [r[0] for r in runs]}
    return metrics, detail


def main(argv=None) -> int:
    # the workloads and the reason for each are declared in BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    args = parse_args(argv, why)
    if not (SRC / "umatch" / "__init__.py").is_file():
        print(f"error: {SRC / 'umatch'} not found; run from the root of a umatch checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from queries import RipsQueries
    from workloads import RipsBarcode, Tally

    classes = {c.name: c for c in (RipsBarcode, RipsQueries)}
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        tally = Tally()
        wl = classes[args.workload](args.seed, work, tally)
        measure = traced_pass if args.trace else timed_pass
        metrics, detail = measure(wl, args.seconds, tally)
        info = {"workload": args.workload, "why": why[args.workload], "trace": args.trace,
                "env": environment(args.seed), "sizes": wl.sizes, "detail": detail,
                "failures": tally.notes}
        print(json.dumps(info, default=str))
        print(json.dumps({
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
