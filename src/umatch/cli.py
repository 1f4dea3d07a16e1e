"""Command-line front end: decompose, barcode, generators, query, bench."""

from __future__ import annotations

import argparse
import csv
import json
import os
import stat
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from typing import Optional

from .coeff import GF
from .complexes import (
    FilteredCliqueComplex,
    FilteredCubicalComplex,
    euclidean_metric,
    torus_metric,
)
from .datasets import build_dataset
from .decompose import DecomposeOptions, clearing_filter, decompose_compressed
from .errors import UmatchError, UsageError
from .io import (
    bar_json,
    barcode_json,
    cell_id,
    dump_json,
    load_distance_csv,
    load_image_text,
    load_points_csv,
    load_triplet_file,
    write_triplet_text,
)
from .matrix import SparseVector, antitranspose_view, submatrix_view, vecmat
from .persistence import Chain, NEVER, NEVER_BOUNDS, PersistenceEngine
from .retrieve import RetrievalTarget, retrieve
from .sparsify import column_validity_check, early_stop_solve


@contextmanager
def _output(path: Optional[str]):
    """The output stream, stdout for None or "-".  Commands open it before
    they compute, so that an unwritable directory fails at once.  The text
    goes to a temporary file beside the target, which replaces the target
    only when the command succeeds: a failed command leaves an existing
    file, even its own input, as it was."""
    if path is None or path == "-":
        yield sys.stdout
        return
    target = os.path.realpath(path)
    if os.path.isdir(target):
        raise UsageError(f"cannot write {path}: Is a directory")
    if os.path.exists(target) and not os.access(target, os.W_OK):
        raise UsageError(f"cannot write {path}: Permission denied")
    try:
        tmp = tempfile.NamedTemporaryFile("w", encoding="utf-8", dir=os.path.dirname(target),
                                          prefix=".umatch-", suffix=".tmp", delete=False)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc
    try:
        with tmp:
            yield tmp
    except BaseException:
        os.unlink(tmp.name)
        raise
    try:
        os.chmod(tmp.name, _new_file_mode(target))
        os.replace(tmp.name, target)
    except OSError as exc:
        os.unlink(tmp.name)
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _new_file_mode(path: str) -> int:
    """The mode open(path, "w") leaves: the file's own if it exists, else
    0o666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mask = os.umask(0)
        os.umask(mask)
        return 0o666 & ~mask


def _add_common_complex_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--field", type=int, default=2, help="prime field modulus (default 2)")
    sp.add_argument("--max-dim", type=int, default=2, help="top cell dimension")
    sp.add_argument("--threshold", type=float, default=None, help="maximum filtration value")
    sp.add_argument("--metric", choices=["euclidean", "torus"], default="euclidean")
    sp.add_argument("--keep-empty-bars", action="store_true")
    sp.add_argument("--output", default=None, help="output path (default stdout)")
    sp.add_argument("--input-type", choices=["points", "distances", "image"], default=None)


def _load_complex(args) -> FilteredCliqueComplex | FilteredCubicalComplex:
    path = args.input
    kind = args.input_type
    if kind is None:
        kind = "image" if path.endswith(".img") or path.endswith(".txt") else "points"
    if kind == "image":
        pixels = load_image_text(path)
        return FilteredCubicalComplex(pixels)
    if kind == "distances":
        d = load_distance_csv(path)
    else:
        pts = load_points_csv(path)
        d = euclidean_metric(pts) if args.metric == "euclidean" else torus_metric(pts)
    threshold = args.threshold if args.threshold is not None else float(d.max())
    return FilteredCliqueComplex(d, max_dim=args.max_dim, threshold=threshold)


def _build_engine(cx, args) -> PersistenceEngine:
    return PersistenceEngine(cx, GF(args.field), keep_empty_bars=args.keep_empty_bars)


def cmd_decompose(args) -> int:
    with _output(args.output) as out:
        d = load_triplet_file(args.input)
        u = decompose_compressed(d)
        summary = {
            "rows": d.nrows,
            "cols": d.ncols,
            "field": d.field.p,
            "rank": u.rank,
            "nnz_d": d.nnz,
            "nnz_matching": u.rank,
            "nnz_rbar_offdiag": u.rbar.nnz_offdiag(),
        }
        if args.verify:
            summary["verified"] = _verify_umatch(u)
            if not summary["verified"]:
                raise UmatchError("verification failed: defining identity violated")
        if args.factors:
            write_triplet_text(out, u.matching.to_oracle(d.field))
            out.write("\n")
            write_triplet_text(out, u.rbar)
            out.write("\n")
        dump_json(summary, out)
    return 0


def cmd_barcode(args) -> int:
    with _output(args.output) as out:
        cx = _load_complex(args)
        engine = _build_engine(cx, args)
        dims = list(range(engine.max_dim))
        if not dims:
            dims = [0]
        payload = barcode_json(engine, dims)
        if args.verify:
            payload["verified"] = _verify_barcode(engine, dims)
        dump_json(payload, out)
    return 0


def _rinv_rows(u):
    """The rows of R^-1, each rebuilt by one retrieval from u."""
    return (retrieve(u, RetrievalTarget("Rinv", "row", i)) for i in range(u.d.nrows))


def _verify_umatch(u) -> bool:
    """Certify u without decompressing it: row i of R^-1 must lead with
    (i, 1), and row i of R^-1 D must be zero for an unmatched i and lead
    with (M's column at i, M's coefficient there) for a matched one.  Then
    R^-1 is upper unitriangular with the stored rbar as its rho-block, and
    R^-1 D = M C^-1 for an upper unitriangular C^-1 (row kappa[p] is row
    rho[pi[p]] of R^-1 D over m_diag[p], the others unit rows): u is a
    U-match decomposition of D, and as the matching is unique, M is D's.
    A broken pivot block may raise InternalInconsistencyError instead."""
    m = u.matching
    for i, row in enumerate(_rinv_rows(u)):
        want = (m.col(i), m.coeff(i)) if i in m.rho_pos else None
        if row.leading() != (i, 1) or vecmat(row, u.d).leading() != want:
            return False
    return True


def _verify_barcode(engine, dims) -> bool:
    """Every representative is a cycle whose latest cell is its bar's birth
    cell, and whose lifespan is the bar's interval: it first bounds at the
    death value, or never for an infinite bar.  lifespan checks the cycle,
    once, and refuses a chain that is not one with UsageError."""
    for n in dims:
        for bar in engine.bars(n):
            ch = engine.cycle_representative(bar)
            if ch.birth_position() != bar.birth_pos:
                return False
            try:
                span = engine.lifespan(ch)
            except UsageError:
                return False
            if span != bar.interval():
                return False
    return True


def cmd_generators(args) -> int:
    with _output(args.output) as out:
        cx = _load_complex(args)
        engine = _build_engine(cx, args)
        dims = [args.dim] if args.dim is not None else list(range(engine.max_dim))
        strategy = "early_stop" if args.generators_strategy == "early-stop" else "exact"
        bars = []
        for n in dims:
            for bar in engine.bars(n):
                chain = engine.cycle_representative(bar, strategy=strategy)
                if args.verify and strategy == "early_stop" and bar.finite:
                    u = engine.umatch(n + 1)
                    col = engine.matching(n + 1).col(bar.birth_pos)
                    if not column_validity_check(u, col, early_stop_solve(u, col)):
                        raise UmatchError("early-stop column failed the validity check")
                bars.append(bar_json(engine, bar, chain))
        dump_json({"field": engine.field.p, "bars": bars}, out)
    return 0


_CHAIN_FORM = '{"dim": <int>, "entries": [[<cell>, <int>], ...]}'


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(x) -> bool:
    return isinstance(x, list) and all(_is_int(v) for v in x)


def _parse_chain(cx, field, text: Optional[str], flag: str = "--chain") -> Chain:
    """The chain that `flag` gives as JSON, over `field`; anything
    malformed, or a cell outside the complex `cx`, is a UsageError."""
    if text is None:
        raise UsageError(f"{flag} is required for this query")
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{flag} is not JSON: {exc}") from None
    if not (isinstance(spec, dict) and _is_int(spec.get("dim"))
            and isinstance(spec.get("entries"), list)):
        raise UsageError(f"{flag} must have the form {_CHAIN_FORM}")
    dim = spec["dim"]
    order = cx.order(dim)
    clique = cx.kind == "clique"
    pairs = []
    for entry in spec["entries"]:
        if not (isinstance(entry, list) and len(entry) == 2 and _is_int(entry[1])):
            raise UsageError(f"{flag} entry {entry!r} is not [<cell>, <int>]")
        cellref, coeff = entry
        if clique and _int_list(cellref):
            key = tuple(cellref)
        elif (not clique and isinstance(cellref, dict) and _int_list(cellref.get("anchor"))
              and _int_list(cellref.get("extent"))):
            key = (tuple(cellref["anchor"]), tuple(cellref["extent"]))
        else:
            raise UsageError(f"{flag} cell {cellref!r} is malformed")
        if key not in order.pos:
            raise UsageError(f"cell {cellref} is not in the complex")
        pairs.append((order.pos[key], coeff))
    return Chain(dim, SparseVector.from_pairs(field, pairs))


def cmd_query(args) -> int:
    with _output(args.output) as out:
        dump_json(_query_result(args), out)
    return 0


def _query_result(args) -> dict:
    cx = _load_complex(args)
    # the chains are read before the engine is built, so that a malformed
    # one fails at once
    flags = {"bounding-chain": ("--chain",), "time-of-homology": ("--chain", "--chain2"),
             "lifespan": ("--chain",)}.get(args.subquery, ())
    field = GF(args.field)
    xs = [_parse_chain(cx, field, getattr(args, flag[2:]), flag) for flag in flags]
    engine = _build_engine(cx, args)
    result: dict = {"query": args.subquery}
    if args.subquery == "bounding-chain":
        res = engine.bounding_chain(*xs)
        if res is NEVER_BOUNDS:
            result["bounds"] = False
        else:
            result["bounds"] = True
            result["index"] = res.index
            result["value"] = res.value
            result["witness"] = [
                [cell_id(engine, res.witness.dim, pos), v]
                for pos, v in res.witness.vector.entries
            ]
    elif args.subquery == "time-of-homology":
        t = engine.time_of_homology(*xs)
        result["homologous"] = t is not NEVER
        if t is not NEVER:
            result["value"] = t
    elif args.subquery == "lifespan":
        lo, hi = engine.lifespan(*xs)
        result["birth"] = lo
        result["bounding"] = None if hi == float("inf") else hi
    elif args.subquery == "retrieve":
        n = args.dim if args.dim is not None else 1
        u = engine.umatch(n)
        if u is None:
            raise UsageError(f"no decomposition available in dimension {n}")
        vec = retrieve(u, RetrievalTarget(args.target, args.axis, args.index))
        result["entries"] = [[i, v] for i, v in vec.entries]
    else:
        raise UsageError(f"unknown subquery {args.subquery!r}")
    return result


def _make_variant(name, d, matching):
    if name == "D":
        return d
    if name == "D_perp":
        return antitranspose_view(d)
    rho, kappa = matching.rho, matching.kappa
    if name == "D_rk":
        return submatrix_view(d, rho, kappa)
    return antitranspose_view(submatrix_view(d, rho, kappa))


BENCH_VARIANTS = ("D", "D_perp", "D_rk", "D_rk_perp")


def _bench_one_seed(args, field, seed: int) -> list[dict]:
    cx = build_dataset(args.dataset, seed=seed, n=args.n, side=args.side,
                       dim=args.point_dim)
    bench_dim = min(2, cx.max_dim)
    engine = PersistenceEngine(cx, field)
    d = engine.boundary(bench_dim)
    if d is None:
        return []
    base = engine.umatch(bench_dim)
    matching = base.matching
    nnz_rinv = sum(row.nnz for row in _rinv_rows(base)) - d.nrows
    lower_dim_bars = len(engine.bars(bench_dim - 1))
    rows = []
    # D skips the rows the engine's clearing skips.  D_rk keeps only pivot
    # rows, which clearing never skips, and the antitransposes' rows are
    # columns of D, which the matching one dimension down does not cover
    clear = clearing_filter(engine.matching(bench_dim - 1))
    for variant in BENCH_VARIANTS:
        opts = DecomposeOptions(counters=True, clear_rows=clear if variant == "D" else None)
        # wrapper construction counts toward the timing, so every variant is
        # charged the same matrix-and-matching setup cost
        t0 = time.perf_counter()
        mat = _make_variant(variant, d, matching)
        u = decompose_compressed(mat, opts)
        elapsed = time.perf_counter() - t0
        # tracemalloc slows the code it watches, so the peak comes from a
        # second, untimed run of the same variant
        tracemalloc.start()
        decompose_compressed(_make_variant(variant, d, matching), opts)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rows.append({
            "dataset": f"{args.dataset}-{seed}",
            "variant": variant,
            "rows": mat.nrows,
            "cols": mat.ncols,
            "nnz_matching": u.rank,
            "nnz_rinv_offdiag": nnz_rinv,
            "nnz_rbar_offdiag": u.rbar.nnz_offdiag(),
            "lower_dim_bars": lower_dim_bars,
            "seconds": f"{elapsed:.6f}",
            "peak_heap_bytes": peak,
            "eliminations": u.stats.eliminations,
            "heap_pops": u.stats.heap_pops,
            "pareto_hits": u.stats.pareto_hits,
            "rows_cleared": u.stats.rows_cleared,
        })
    return rows


def cmd_bench(args) -> int:
    field = GF(args.field)
    seeds = list(range(args.seed, args.seed + args.trials))
    with _output(args.output) as out:
        rows = [r for s in seeds for r in _bench_one_seed(args, field, s)]
        if rows:
            writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="umatch",
        description="Sparse exact matrix factorization and persistent (co)homology",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("decompose", help="factor a triplet-format matrix")
    sp.add_argument("input")
    sp.add_argument("--factors", action="store_true", help="dump matching and pivot block")
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("barcode", help="barcode of a filtered complex")
    sp.add_argument("input")
    sp.add_argument("--verify", action="store_true")
    _add_common_complex_flags(sp)
    sp.set_defaults(func=cmd_barcode)

    sp = sub.add_parser("generators", help="barcode with cycle representatives")
    sp.add_argument("input")
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--generators-strategy", choices=["exact", "early-stop"], default="exact")
    sp.add_argument("--verify", action="store_true")
    _add_common_complex_flags(sp)
    sp.set_defaults(func=cmd_generators)

    sp = sub.add_parser("query", help="inverse problems and factor retrieval")
    sp.add_argument("input")
    sp.add_argument("subquery", choices=["bounding-chain", "time-of-homology",
                                         "lifespan", "retrieve"])
    sp.add_argument("--chain", default=None, help="chain as JSON")
    sp.add_argument("--chain2", default=None, help="second chain as JSON")
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--target", choices=["R", "Rinv", "C", "Cinv"], default="C")
    sp.add_argument("--axis", choices=["row", "col"], default="col")
    sp.add_argument("--index", type=int, default=0)
    _add_common_complex_flags(sp)
    sp.set_defaults(func=cmd_query)

    sp = sub.add_parser("bench", help="decomposition benchmarks on built-in datasets")
    sp.add_argument("dataset", choices=["er", "uniform", "torus", "grf2d", "grf3d", "circle"])
    sp.add_argument("--n", type=int, default=25)
    sp.add_argument("--side", type=int, default=8)
    sp.add_argument("--point-dim", type=int, default=3)
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--field", type=int, default=2)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_bench)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UmatchError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
