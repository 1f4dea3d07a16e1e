import csv
import json
import os
import random
import stat

import numpy as np
import pytest

import umatch.cli
import umatch.persistence
from umatch import (
    GF,
    PersistenceEngine,
    SparseVector,
    StoredCsMatrix,
    decompose_compressed,
    decompose_full,
)
from umatch.cli import _verify_barcode, _verify_umatch, main
from umatch.datasets import er_complex
from umatch.decompose import CompressedUmatch, MatchingArray
from umatch.errors import InternalInconsistencyError
from umatch.linalg import _Product, _invert_unitriangular
from umatch.matrix import axpy
from umatch.persistence import Chain

from conftest import random_stored


def write_circle_points(path, n=12):
    ang = 2 * np.pi * np.arange(n) / n
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    np.savetxt(path, pts, delimiter=",")
    return path


def test_decompose_summary_and_verify(tmp_path, capsys):
    src = tmp_path / "m.txt"
    src.write_text("2 2 7\n1 1 3\n1 2 1\n2 1 3\n2 2 1\n")
    out = tmp_path / "summary.json"
    assert main(["decompose", str(src), "--verify", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["rank"] == 1
    assert data["verified"] is True
    assert data["field"] == 7


def dense_reference(u) -> bool:
    """A second, uncompressed factorization of D, with R M and D C
    compared as dense arrays, and its matching compared with u's."""
    d = u.d
    full = decompose_full(d)
    rm = _Product(_invert_unitriangular(full.rinv), u.matching.to_oracle(d.field))
    dc = _Product(d, _invert_unitriangular(full.cinv))
    return rm.to_dense() == dc.to_dense() and full.matching == u.matching


def certificate_rejects(u) -> bool:
    try:
        return not _verify_umatch(u)
    except InternalInconsistencyError:
        return True


def random_decompositions(p, count):
    rnd = random.Random(900 + p)
    for _ in range(count):
        m, n = rnd.randint(1, 9), rnd.randint(1, 9)
        yield rnd, decompose_compressed(random_stored(rnd, p, m, n, rnd.choice((0.2, 0.45, 0.7))))


def with_parts(u, pairs, rbar_rows):
    k = len(pairs)
    return CompressedUmatch(u.d, MatchingArray(u.d.nrows, u.d.ncols, pairs),
                            StoredCsMatrix.from_row_dicts(u.field, k, k, rbar_rows))


def rbar_rows(u):
    return {q: dict(u.rbar.row(q).entries) for q in range(u.rank)}


@pytest.mark.parametrize("p", [2, 3, 7])
def test_certificate_accepts_what_the_dense_reference_accepts(p):
    for _, u in random_decompositions(p, 40):
        assert dense_reference(u)
        assert _verify_umatch(u)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_certificate_rejects_a_broken_decomposition(p):
    seen = set()
    for rnd, u in random_decompositions(p, 40):
        m, k = u.matching, u.rank
        pairs = list(m.pairs)
        if k == 0:
            continue
        q = rnd.randrange(k)
        col_of = [m.kappa[m.pi_inv[a]] for a in range(k)]
        mutants = {}
        # row rho[q] of R^-1 gains a multiple of row rho[b]: before the
        # diagonal, or leading R^-1 D before col_of[q], that breaks the
        # certificate, while the dense check never reads rbar
        spots = [b for b in range(k) if b < q or col_of[b] < col_of[q]]
        if spots:
            rows = rbar_rows(u)
            b = rnd.choice(spots)
            rows[q][b] = (rows[q].get(b, 0) + rnd.randrange(1, p)) % p
            mutants["rbar"] = with_parts(u, pairs, rows)
            assert dense_reference(mutants["rbar"])
        keep = [a for a in range(k) if a != q]
        rows = rbar_rows(u)
        mutants["dropped"] = with_parts(u, [pairs[a] for a in keep], {
            i: {keep.index(b): v for b, v in rows[a].items() if b != q}
            for i, a in enumerate(keep)})
        free = [c for c in range(m.ncols) if c not in m.kappa_pos]
        if free:
            r, _, v = pairs[q]
            mutants["moved"] = with_parts(
                u, pairs[:q] + [(r, rnd.choice(free), v)] + pairs[q + 1:], rbar_rows(u))
        if p > 2:
            r, c, v = pairs[q]
            mutants["m_diag"] = with_parts(
                u, pairs[:q] + [(r, c, v % (p - 1) + 1)] + pairs[q + 1:], rbar_rows(u))
        for name, mutant in mutants.items():
            assert certificate_rejects(mutant), name
            if name != "rbar":
                assert not dense_reference(mutant), name
        seen.update(mutants)
    assert seen == ({"rbar", "dropped", "moved", "m_diag"} if p > 2
                    else {"rbar", "dropped", "moved"})


def test_decompose_empty_matrix(tmp_path):
    src = tmp_path / "m.txt"
    src.write_text("3 4 2\n")
    out = tmp_path / "summary.json"
    assert main(["decompose", str(src), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["rank"] == 0


def test_decompose_parse_failure_reports_line(tmp_path, capsys):
    src = tmp_path / "m.txt"
    src.write_text("2 2 7\n1 x 3\n")
    assert main(["decompose", str(src)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_distance_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "no" / "such.csv"
    assert main(["barcode", str(missing), "--input-type", "distances"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_missing_triplet_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "no" / "such.txt"
    assert main(["decompose", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    d = tmp_path / "dist.csv"
    d.write_text("0 1\n1 0\n")
    out = tmp_path / "no" / "such" / "x.json"
    assert main(["barcode", str(d), "--input-type", "distances", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert not out.exists()


def test_barcode_command_memory(tmp_path):
    import gc
    import tracemalloc

    d = tmp_path / "er50.csv"
    d.write_text("".join(",".join(map(repr, row)) + "\n" for row in er_complex(50, seed=0).d.tolist()))
    argv = ["barcode", str(d), "--input-type", "distances", "--max-dim", "2",
            "--output", str(tmp_path / "bars.json")]
    # a first run does what only a first run does, such as lazy imports
    assert main(argv) == 0
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the complex holds each level once, in its narrowest form, and the JSON
    # is written in batches, not built whole
    assert peak <= 1.10 * 2 ** 20


def test_nan_threshold_exits_2(tmp_path, capsys):
    d = tmp_path / "t.csv"
    d.write_text("0,1,2\n1,0,1.5\n2,1.5,0\n")
    out = tmp_path / "bars.json"
    assert main(["barcode", str(d), "--input-type", "distances", "--threshold", "nan",
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "NaN" in err
    assert not out.exists()
    # an infinite threshold admits every simplex
    assert main(["barcode", str(d), "--input-type", "distances", "--threshold", "inf",
                 "--output", str(out)]) == 0
    bars = json.loads(out.read_text())["bars"]
    assert [b["death"] for b in bars if b["dimension"] == 0] == [None, 1.0, 1.5]


@pytest.mark.parametrize("command", [
    ["barcode"],
    ["generators"],
    ["query", "retrieve", "--dim", "1", "--target", "R", "--axis", "col", "--index", "0"],
])
def test_unwritable_output_fails_before_computing(tmp_path, capsys, monkeypatch, command):
    def never(*args, **kwargs):
        raise AssertionError("built before the output was opened")

    monkeypatch.setattr(umatch.cli, "FilteredCliqueComplex", never)
    monkeypatch.setattr(umatch.cli, "PersistenceEngine", never)
    d = tmp_path / "dist.csv"
    d.write_text("0 1\n1 0\n")
    out = tmp_path / "no" / "such" / "x.json"
    argv = command[:1] + [str(d)] + command[1:] + ["--input-type", "distances", "--output", str(out)]
    assert main(argv) == 2
    assert str(out) in capsys.readouterr().err


def test_failed_command_leaves_no_output(tmp_path, capsys):
    d = tmp_path / "dist.csv"
    d.write_text("0 1\n1 0\n")
    out = tmp_path / "q.json"
    chain = json.dumps({"dim": 1, "entries": [[[0, 5], 1]]})
    argv = ["query", str(d), "lifespan", "--input-type", "distances", "--chain", chain, "--output", str(out)]
    assert main(argv) == 2
    assert "not in the complex" in capsys.readouterr().err
    assert not out.exists()


def test_failed_command_keeps_existing_output(tmp_path, capsys):
    d = tmp_path / "dist.csv"
    d.write_text("0 1\n1 0\n")
    out = tmp_path / "q.json"
    out.write_bytes(b"earlier result\n")
    chain = json.dumps({"dim": 1, "entries": [[[0, 5], 1]]})
    argv = ["query", str(d), "lifespan", "--input-type", "distances", "--chain", chain, "--output", str(out)]
    assert main(argv) == 2
    assert out.read_bytes() == b"earlier result\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dist.csv", "q.json"]


def test_output_onto_input_reads_input_first(tmp_path, capsys):
    d = tmp_path / "dist.csv"
    d.write_text("0 1\n1 0\n")
    chain = json.dumps({"dim": 1, "entries": [[[0, 5], 1]]})
    argv = ["query", str(d), "lifespan", "--input-type", "distances", "--chain", chain, "--output", str(d)]
    assert main(argv) == 2
    assert d.read_text() == "0 1\n1 0\n"
    src = tmp_path / "m.txt"
    src.write_text("2 2 7\n1 1 3\n1 2 1\n2 1 3\n2 2 1\n")
    assert main(["decompose", str(src), "--output", str(src)]) == 0
    assert json.loads(src.read_text())["rank"] == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dist.csv", "m.txt"]


def test_output_file_mode_follows_umask(tmp_path):
    src = tmp_path / "m.txt"
    src.write_text("3 4 2\n")
    out = tmp_path / "summary.json"
    mask = os.umask(0o022)
    try:
        assert main(["decompose", str(src), "--output", str(out)]) == 0
    finally:
        os.umask(mask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o644


def test_barcode_command(tmp_path):
    pts = write_circle_points(tmp_path / "pts.csv")
    out = tmp_path / "bars.json"
    rc = main([
        "barcode", str(pts), "--input-type", "points", "--max-dim", "2",
        "--threshold", "2.0", "--verify", "--output", str(out),
    ])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["verified"] is True
    h1 = [b for b in data["bars"] if b["dimension"] == 1]
    assert len(h1) == 1
    assert abs(h1[0]["birth"] - 2 * np.sin(np.pi / 12)) < 1e-9


def test_barcode_verify_rejects_a_wrong_representative():
    engine = PersistenceEngine(er_complex(12, seed=0), GF(2))
    assert _verify_barcode(engine, [0, 1])
    real = engine.cycle_representative

    def verified_with(pos, chain, n):
        engine.cycle_representative = lambda b: chain if b.birth_pos == pos else real(b)
        return _verify_barcode(engine, [n])

    a, b = [bar for bar in engine.bars(1) if bar.finite][:2]
    # a cycle of another bar
    assert not verified_with(a.birth_pos, real(b), 1)
    # not a cycle
    assert not verified_with(a.birth_pos, Chain(1, axpy(1, SparseVector.unit(GF(2), 0),
                                                        real(a).vector)), 1)
    # the sum of the cycles of an older bar and of a younger one that dies
    # first is born with the younger and bounds with the older; in
    # dimension 0 every vertex is born at 0, so only its latest cell tells
    # it from the older bar's cycle
    for n in (0, 1):
        bars = [bar for bar in engine.bars(n) if bar.finite]
        young, old = next((x, y) for x in bars for y in bars
                          if y.birth_pos < x.birth_pos and y.death_value > x.death_value)
        mixed = Chain(n, axpy(1, real(old).vector, real(young).vector))
        assert not verified_with(young.birth_pos, mixed, n)
        assert not verified_with(old.birth_pos, mixed, n)


def test_barcode_verify_checks_each_cycle_once(tmp_path, monkeypatch):
    img = tmp_path / "img.txt"
    img.write_text("dims 6 6\n1 1 1 2 2 2\n1 9 1 2 8 2\n1 1 1 2 2 2\n"
                   "3 3 3 4 4 4\n3 7 3 4 6 4\n3 3 3 4 4 4\n")
    calls = []
    for module in (umatch.cli, umatch.persistence):
        if hasattr(module, "matvec"):
            real = module.matvec
            monkeypatch.setattr(module, "matvec",
                                lambda d, v, real=real: calls.append(v) or real(d, v))
    out = tmp_path / "bars.json"
    assert main(["barcode", str(img), "--input-type", "image", "--verify",
                 "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["verified"] is True
    # a cycle check is one matvec by a boundary; dimension 0 needs none
    bars = [b for b in data["bars"] if b["dimension"] == 1]
    assert len(bars) == 4
    assert len(calls) == len(bars)


def test_barcode_image_input(tmp_path, capsys):
    img = tmp_path / "img.txt"
    img.write_text("dims 3 3\n1 2 3\n4 5 6\n7 8 9\n")
    out = tmp_path / "bars.json"
    assert main(["barcode", str(img), "--input-type", "image",
                 "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    h0 = [b for b in data["bars"] if b["dimension"] == 0]
    assert len(h0) == 1
    assert h0[0]["death"] is None
    # an image with an empty axis is a usage error
    img.write_text("dims 0 3\n")
    assert main(["barcode", str(img), "--input-type", "image"]) == 2
    assert "line 1: dimensions must be positive" in capsys.readouterr().err


def test_generators_command_strategies_and_determinism(tmp_path):
    pts = write_circle_points(tmp_path / "pts.csv")
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main([
            "generators", str(pts), "--input-type", "points", "--dim", "1",
            "--threshold", "2.0", "--output", str(out),
        ])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    data = json.loads(outs[0])
    assert len(data["bars"]) == 1
    assert len(data["bars"][0]["chain"]) == 12
    out2 = tmp_path / "es.json"
    rc = main([
        "generators", str(pts), "--input-type", "points", "--dim", "1",
        "--threshold", "2.0", "--generators-strategy", "early-stop",
        "--verify", "--output", str(out2),
    ])
    assert rc == 0
    assert json.loads(out2.read_text())["bars"]


def test_query_bounding_chain_and_lifespan(tmp_path):
    d = tmp_path / "dist.csv"
    d.write_text("0 1 1\n1 0 1\n1 1 0\n")
    chain = json.dumps({"dim": 1, "entries": [[[0, 1], 1], [[0, 2], 1], [[1, 2], 1]]})
    out = tmp_path / "q.json"
    rc = main([
        "query", str(d), "bounding-chain", "--input-type", "distances",
        "--chain", chain, "--output", str(out),
    ])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["bounds"] is True
    assert data["witness"] == [[[0, 1, 2], 1]]
    rc = main([
        "query", str(d), "lifespan", "--input-type", "distances",
        "--chain", chain, "--output", str(out),
    ])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["birth"] == 1.0 and data["bounding"] == 1.0


def test_query_retrieve(tmp_path):
    d = tmp_path / "dist.csv"
    d.write_text("0 1 1\n1 0 1\n1 1 0\n")
    out = tmp_path / "q.json"
    rc = main([
        "query", str(d), "retrieve", "--input-type", "distances",
        "--dim", "1", "--target", "Cinv", "--axis", "row", "--index", "0",
        "--output", str(out),
    ])
    assert rc == 0
    assert "entries" in json.loads(out.read_text())


def test_query_time_of_homology(tmp_path):
    d = tmp_path / "dist.csv"
    d.write_text("0 1 1\n1 0 1\n1 1 0\n")
    chain = json.dumps({"dim": 1, "entries": [[[0, 1], 1], [[0, 2], 1], [[1, 2], 1]]})
    zero = json.dumps({"dim": 1, "entries": []})
    out = tmp_path / "q.json"
    rc = main([
        "query", str(d), "time-of-homology", "--input-type", "distances",
        "--chain", chain, "--chain2", zero, "--output", str(out),
    ])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["homologous"] is True
    assert data["value"] == 1.0


def test_bench_command(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "er", "--n", "8", "--trials", "2", "--seed", "3",
               "--output", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 8  # two trials x four variants
    variants = {r["variant"] for r in rows}
    assert variants == {"D", "D_perp", "D_rk", "D_rk_perp"}
    for r in rows:
        assert "heap_source" not in r and int(r["peak_heap_bytes"]) > 0
    # the matching has the same rank across all four variants of one dataset
    by_ds = {}
    for r in rows:
        by_ds.setdefault(r["dataset"], set()).add(r["nnz_matching"])
    assert all(len(v) == 1 for v in by_ds.values())


def test_bench_determinism_modulo_timing(tmp_path):
    outs = []
    for name in ("x.csv", "y.csv"):
        out = tmp_path / name
        assert main(["bench", "circle", "--n", "10", "--seed", "5",
                     "--output", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        for r in rows:
            r.pop("seconds")
            r.pop("peak_heap_bytes")
        outs.append(rows)
    assert outs[0] == outs[1]


def test_bench_clears_d_as_the_engine_does(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "er", "--n", "12", "--output", str(out)]) == 0
    rows = {r["variant"]: r for r in csv.DictReader(out.read_text().splitlines())}
    # clearing skips one edge per pair of the dimension-1 matching, 11 on
    # 12 vertices, and leaves D as few eliminations as its pivot-row submatrix
    assert rows["D"]["rows_cleared"] == "11"
    assert rows["D"]["eliminations"] == rows["D_rk"]["eliminations"] == "26"


def test_bench_degenerate_tiny_graph(tmp_path):
    out = tmp_path / "tiny.csv"
    assert main(["bench", "er", "--n", "2", "--output", str(out)]) == 0
    # a two-vertex graph has an empty dimension-2 boundary: records with rank 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 4
    assert all(r["nnz_matching"] == "0" for r in rows)


def test_unknown_subquery_rejected(tmp_path, capsys):
    d = tmp_path / "dist.csv"
    d.write_text("0 1\n1 0\n")
    with pytest.raises(SystemExit):
        main(["query", str(d), "nonsense"])


@pytest.mark.parametrize("argv", [
    ["decompose", "m.txt", "--no-clearing"],
    ["bench", "er", "--no-clearing"],
    ["barcode", "d.csv", "--generators-strategy", "exact"],
    ["query", "d.csv", "retrieve", "--generators-strategy", "exact"],
    ["query", "d.csv", "retrieve", "--verify"],
    # clearing and the apparent-pair probe are not options
    ["barcode", "d.csv", "--no-pareto"],
    ["generators", "d.csv", "--no-clearing"],
    ["query", "d.csv", "retrieve", "--no-pareto"],
    ["decompose", "m.txt", "--no-pareto"],
    ["bench", "er", "--no-pareto"],
    # bench trials run one after another, so their timings compare
    ["bench", "er", "--parallel"],
])
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bench_circle_20_reports_one_h1_bar(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["bench", "circle", "--n", "20", "--output", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 4
    assert all(r["lower_dim_bars"] == "1" for r in rows)


def test_barcode_torus_metric_and_empty_bars(tmp_path):
    rng = np.random.default_rng(12)
    pts = rng.random((8, 3))
    src = tmp_path / "pts.csv"
    np.savetxt(src, pts, delimiter=",")
    out_flat = tmp_path / "flat.json"
    out_torus = tmp_path / "torus.json"
    for metric, out in (("euclidean", out_flat), ("torus", out_torus)):
        rc = main([
            "barcode", str(src), "--input-type", "points", "--metric", metric,
            "--max-dim", "2", "--output", str(out),
        ])
        assert rc == 0
    # the quotient metric shrinks distances, so the filtrations differ
    assert out_flat.read_text() != out_torus.read_text()
    d = tmp_path / "dist.csv"
    d.write_text("0 1 1\n1 0 1\n1 1 0\n")
    out = tmp_path / "keep.json"
    rc = main([
        "barcode", str(d), "--input-type", "distances", "--keep-empty-bars",
        "--output", str(out),
    ])
    assert rc == 0
    bars = json.loads(out.read_text())["bars"]
    h1 = [b for b in bars if b["dimension"] == 1]
    assert len(h1) == 1 and h1[0]["birth"] == h1[0]["death"] == 1.0


def test_bench_cubical_dataset(tmp_path):
    out = tmp_path / "g.csv"
    assert main(["bench", "grf2d", "--side", "5", "--output", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 4
    # a cubical boundary answers the apparent-pair probe
    assert [int(r["pareto_hits"]) > 0 for r in rows if r["variant"] == "D"] == [True]


_EDGE_CHAIN = json.dumps({"dim": 1, "entries": [[[0, 1], 1]]})


@pytest.mark.parametrize("subquery, flags", [
    ("bounding-chain", ["--chain", "not json"]),
    ("bounding-chain", ["--chain", '{"entries": []}']),
    ("bounding-chain", ["--chain", '{"dim": 1}']),
    ("bounding-chain", ["--chain", "[1]"]),
    ("bounding-chain", ["--chain", '{"dim": 1, "entries": [[[0, 1], 1.5]]}']),
    ("bounding-chain", ["--chain", '{"dim": 1, "entries": [[[0, 1], "1"]]}']),
    ("bounding-chain", ["--chain", '{"dim": 1, "entries": [[0, 1]]}']),
    ("bounding-chain", []),
    ("lifespan", []),
    ("time-of-homology", []),
    ("time-of-homology", ["--chain", _EDGE_CHAIN]),
])
def test_malformed_chain_is_a_usage_error(tmp_path, capsys, subquery, flags):
    d = tmp_path / "dist.csv"
    d.write_text("0 1 1\n1 0 1\n1 1 0\n")
    argv = ["query", str(d), subquery, "--input-type", "distances", *flags,
            "--output", str(tmp_path / "q.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("subquery, flags", [
    ("bounding-chain", ["--chain", "not json"]),
    ("bounding-chain", ["--chain", '{"dim": 1, "entries": [[[0, 7], 1]]}']),
    ("lifespan", []),
    ("time-of-homology", ["--chain", _EDGE_CHAIN, "--chain2", "[1]"]),
])
def test_malformed_chain_fails_before_the_engine_is_built(tmp_path, capsys, monkeypatch, subquery, flags):
    def no_engine(cx, args):
        raise AssertionError("the engine was built before the chains were read")

    monkeypatch.setattr(umatch.cli, "_build_engine", no_engine)
    d = tmp_path / "dist.csv"
    d.write_text("0 1 1\n1 0 1\n1 1 0\n")
    argv = ["query", str(d), subquery, "--input-type", "distances", *flags,
            "--output", str(tmp_path / "q.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
