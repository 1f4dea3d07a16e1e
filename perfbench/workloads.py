"""Seeded inputs shared by the workloads, and the file workload: `umatch
barcode` run in-process through `umatch.cli.main` on distance CSVs, with
the checks on its JSON output.

Every input is made from `umatch.datasets` at the given seed, written with
`repr` floats (which round-trip exactly), read back with the loaders of
`umatch.io` and compared with the in-memory original, so the program sees
exactly the dataset the seed names.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import umatch.cli
from umatch.complexes import FilteredCliqueComplex
from umatch.datasets import build_dataset
from umatch.io import load_distance_csv

HERE = Path(__file__).resolve().parent

# A workload seed names several datasets (instances), so that a run's cost
# does not rest on one random instance.  One pass runs the command on each
# of them, about 1.8 s on a 2-vCPU Intel Xeon virtual machine.
BARCODE_N, BARCODE_INSTANCES = 50, 4    # er: 1,225 edges, 19,600 triangles


def instance_seeds(seed: int, count: int) -> list[int]:
    """Dataset seeds of a workload seed: distinct for distinct seeds."""
    return [seed * count + i for i in range(count)]


class Tally:
    """Checked operations and the ones that failed, with the first few
    failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def write_distance_csv(path: Path, d) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in d:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def er_distance_file(seed: int, n: int, path: Path, tally: Tally) -> FilteredCliqueComplex:
    """Write the er dataset's distances and check that the complex the CLI
    builds from the file (threshold = largest distance) is the dataset's:
    same cells, same births."""
    cx = build_dataset("er", seed=seed, n=n, max_dim=2)
    write_distance_csv(path, cx.d)
    d = load_distance_csv(str(path))
    loaded = FilteredCliqueComplex(d, max_dim=2, threshold=float(d.max()))
    same = all(cx.order(k).cells == loaded.order(k).cells
               and cx.order(k).births == loaded.order(k).births for k in range(3))
    tally.check(same, "distance CSV does not rebuild the er complex")
    return cx


def output_digest(bars) -> str:
    """Digest of the barcode content, independent of JSON layout."""
    key = [[b["dimension"], b["birth"], b["death"], b["birth_cell"], b["death_cell"]] for b in bars]
    return hashlib.sha256(json.dumps(key, separators=(",", ":")).encode()).hexdigest()


def load_reference() -> dict:
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.is_file() else {}


class RipsBarcode:
    """`umatch barcode --max-dim 2` in GF(2) on the distance CSV of each
    instance.  A pass runs the command once per instance; each command is
    one request."""

    name = "rips_barcode"

    def __init__(self, seed: int, work: Path, tally: Tally):
        self.reference = load_reference().get(self.name, {}).get(str(seed))
        self.complexes = []
        self.commands: list[tuple[list[str], Path]] = []
        self.sizes: dict = {"instances": [], "reference": self.reference is not None}
        self.codes: list[int] = []
        self.first_digest = None
        for i, sub in enumerate(instance_seeds(seed, BARCODE_INSTANCES)):
            path, out = work / f"er{i}.csv", work / f"barcode{i}.json"
            cx = er_distance_file(sub, BARCODE_N, path, tally)
            self.complexes.append(cx)
            self.commands.append((["barcode", str(path), "--input-type", "distances",
                                   "--max-dim", "2", "--field", "2", "--output", str(out)], out))
            self.sizes["instances"].append({"dataset": f"er n={BARCODE_N} seed={sub}", "field": 2,
                                            "cells": [cx.n_cells(n) for n in range(3)]})

    def setup_samples(self, count: int) -> list[float]:
        return []

    def prepare_pass(self, k: int) -> None:
        pass

    def run_pass(self) -> list[float]:
        """Run every command once; return each command's latency."""
        latencies = []
        for argv, _ in self.commands:
            t0 = time.perf_counter()
            self.codes.append(umatch.cli.main(argv))
            latencies.append(time.perf_counter() - t0)
        return latencies

    def memory_run(self) -> None:
        """The first instance's command.  Instances run one after another,
        so its peak stands for the pass's, at a quarter of the cost of a
        pass under tracemalloc."""
        argv, _ = self.commands[0]
        self.codes.append(umatch.cli.main(argv))

    def full_run(self, tracer=None) -> float:
        """One pass, traced when a tracer is given; returns its wall time."""
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        self.run_pass()
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        return wall

    def output_bytes(self) -> int:
        return sum(out.stat().st_size for _, out in self.commands)

    def check_pass(self, tally: Tally) -> None:
        tally.check(all(c == 0 for c in self.codes), f"non-zero exit codes {self.codes}")
        self.codes = []
        payloads = [json.loads(out.read_bytes()) for _, out in self.commands]
        digest = hashlib.sha256(json.dumps(payloads, sort_keys=True).encode()).hexdigest()
        if self.first_digest is not None:
            tally.check(digest == self.first_digest, "output differs from the first run")
            return
        self.first_digest = digest
        for i, payload in enumerate(payloads):
            self.check_instance(i, payload["bars"], tally)

    def check_instance(self, i: int, bars: list, tally: Tally) -> None:
        d = self.complexes[i].d
        size = self.sizes["instances"][i]
        size["bars"] = len(bars)

        def birth(cell):
            if len(cell) == 1:
                return float(d[cell[0], cell[0]])
            return max(float(d[a, b]) for k, a in enumerate(cell) for b in cell[k + 1:])

        for b in bars:
            death = math.inf if b["death"] is None else b["death"]
            ok = b["birth"] <= death and b["birth"] == birth(b["birth_cell"])
            if b["death"] is not None:
                ok = ok and death == birth(b["death_cell"])
            tally.check(ok, f"bar {b} has inconsistent endpoints")
        # H0 is the minimum spanning tree: its finite deaths are the MST
        # edge weights (Kruskal, independent of umatch)
        n = d.shape[0]
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        mst = []
        for w, a, b in sorted((float(d[a, b]), a, b) for a in range(n) for b in range(a + 1, n)):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                mst.append(w)
        h0 = [b for b in bars if b["dimension"] == 0]
        deaths = sorted(b["death"] for b in h0 if b["death"] is not None)
        tally.check(deaths == mst and len(h0) - len(deaths) == 1, "H0 bars differ from the MST")
        size["digest"] = output_digest(bars)
        if self.reference is not None:
            tally.check(size["digest"] == self.reference[i],
                        f"instance {i}: barcode digest differs from the reference")
