"""The query workload: a closed-loop stream (one client, no think time) of
seeded requests against one `PersistenceEngine` built from a distance CSV.

About half the requests retrieve one row or column of R, R^-1, C or C^-1 of
the boundary in dimension 1 or 2; the rest, in equal shares, ask for a
bounding chain (of a triangle's boundary or of a bar's cycle
representative), a time of homology, a lifespan, a cocycle representative
or an early-stop cycle representative.  Pass k draws its requests from
its own seeded generator, so passes differ but every run at a seed sends
the same stream.  Requests go to one of INSTANCES engines at random, each
built from its own dataset seed.

Each answer is checked after the pass, outside the timed region, by an
identity that uses the clique (co)boundary computed here from vertex
tuples, and at most a few retrievals of the factors the answer must be
consistent with.  Columns of R^-1 and C^-1 are not asked for: they have
no identity check cheaper than materializing a factor.
"""

from __future__ import annotations

import importlib
import random
import time
from pathlib import Path

import umatch.io
import umatch.sparsify
from umatch.coeff import GF
from umatch.complexes import FilteredCliqueComplex
from umatch.matrix import SparseVector
from umatch.persistence import NEVER, BoundingResult, Chain, PersistenceEngine

from workloads import Tally, er_distance_file, instance_seeds

# the package re-exports the function `retrieve` under the module's name
retrieval = importlib.import_module("umatch.retrieve")

QUERY_N = 40        # er: 780 edges, 9,880 triangles
INSTANCES = 4
FIELD = 7
BATCH = 100         # requests per pass
RETRIEVALS = (("R", "col"), ("C", "col"), ("Rinv", "row"), ("Cinv", "row"),
              ("R", "row"), ("C", "row"))
OTHER = ("bounding_chain", "time_of_homology", "lifespan", "cocycle", "early_stop")


class CliqueAlgebra:
    """Boundary and coboundary of clique chains, from vertex tuples:
    omitting the k-th vertex of a cell carries the sign (-1)^k."""

    def __init__(self, engine: PersistenceEngine):
        self.p = engine.field.p
        self.n_points = engine.complex.n_points
        self.cells = {n: engine.order(n).cells for n in range(3)}
        self.pos = {n: engine.order(n).pos for n in range(3)}
        self.births = {n: engine.order(n).births for n in range(3)}

    def boundary(self, n: int, vec: dict) -> dict:
        acc: dict = {}
        pos = self.pos[n - 1]
        for j, a in vec.items():
            cell = self.cells[n][j]
            for k in range(len(cell)):
                i = pos[cell[:k] + cell[k + 1:]]
                acc[i] = (acc.get(i, 0) + (-a if k % 2 else a)) % self.p
        return {i: v for i, v in acc.items() if v}

    def coboundary(self, n: int, vec: dict) -> dict:
        acc: dict = {}
        pos = self.pos[n + 1]
        for i, a in vec.items():
            cell = self.cells[n][i]
            for v in range(self.n_points):
                if v in cell:
                    continue
                coface = tuple(sorted(cell + (v,)))
                j = pos.get(coface)
                if j is not None:
                    k = coface.index(v)
                    acc[j] = (acc.get(j, 0) + (-a if k % 2 else a)) % self.p
        return {j: v for j, v in acc.items() if v}

    def scale(self, vec: dict, c: int) -> dict:
        return {i: v * c % self.p for i, v in vec.items() if v * c % self.p}

    def normalized(self, vec: dict) -> dict:
        """Scaled so that the entry at the lowest index is 1."""
        return self.scale(vec, pow(vec[min(vec)], -1, self.p)) if vec else vec


class Instance:
    """One engine, its bars, and the identity checks of its answers."""

    def __init__(self, engine: PersistenceEngine):
        self.engine = engine
        self.alg = CliqueAlgebra(engine)
        self.bars = [b for n in (0, 1) for b in engine.bars(n)]
        self.finite = [b for b in self.bars if b.finite]
        self.finite1 = [b for b in self.finite if b.dim == 1]
        self.reps: dict = {}

    def rep(self, bar) -> Chain:
        key = (bar.dim, bar.birth_pos)
        if key not in self.reps:
            self.reps[key] = self.engine.cycle_representative(bar)
        return self.reps[key]

    def chain(self, n: int, vec: dict) -> Chain:
        return Chain(n, SparseVector.from_dict(self.engine.field, vec))

    def request(self, rng: random.Random) -> tuple:
        """A request drawn from the mix, with its input chains built."""
        eng, alg, p = self.engine, self.alg, self.alg.p
        if rng.random() < 0.5:
            n = rng.choice((1, 2))
            which, axis = rng.choice(RETRIEVALS)
            d = eng.boundary(n)
            bound = d.nrows if which in ("R", "Rinv") else d.ncols
            return ("retrieve", n, retrieval.RetrievalTarget(which, axis, rng.randrange(bound)))
        kind = rng.choice(OTHER)
        if kind == "bounding_chain":
            if rng.random() < 0.5:
                sigma = rng.randrange(len(alg.cells[2]))
                return (kind, self.chain(1, alg.boundary(2, {sigma: 1})), ("triangle", sigma))
            bar = rng.choice(self.finite1)
            return (kind, self.rep(bar), ("bar", bar))
        if kind == "time_of_homology":
            bar = rng.choice(self.finite1)
            sigma = rng.randrange(len(alg.cells[2]))
            x = self.rep(bar)
            f = dict(x.vector.entries)
            for i, v in alg.boundary(2, {sigma: rng.randrange(1, p)}).items():
                f[i] = (f.get(i, 0) + v) % p
            return (kind, x, self.chain(1, {i: v for i, v in f.items() if v}), sigma)
        if kind == "lifespan":
            bar = rng.choice(self.finite)
            return (kind, self.rep(bar), bar)
        if kind == "cocycle":
            return (kind, rng.choice(self.bars))
        return (kind, rng.choice(self.finite))

    def call(self, kind: str):
        """The umatch call serving a request kind, looked up when the pass
        starts so that traced runs see the wrapped functions."""
        eng = self.engine
        retrieve = retrieval.retrieve
        return {
            "retrieve": lambda n, t: retrieve(eng.umatch(n), t),
            "bounding_chain": lambda x, why: eng.bounding_chain(x),
            "time_of_homology": lambda x, f, sigma: eng.time_of_homology(x, f),
            "lifespan": lambda x, bar: eng.lifespan(x),
            "cocycle": eng.cocycle_representative,
            "early_stop": lambda bar: eng.cycle_representative(bar, strategy="early_stop"),
        }[kind]

    # -- checks -----------------------------------------------------------

    def factor(self, n: int, which: str, axis: str, index: int) -> dict:
        t = retrieval.RetrievalTarget(which, axis, index)
        return dict(retrieval.retrieve(self.engine.umatch(n), t).entries)

    def check_retrieve(self, n, t, vec) -> bool:
        """R and C are upper unitriangular and R M = D C."""
        alg, p = self.alg, self.alg.p
        m = self.engine.umatch(n).matching
        v, i = dict(vec.entries), t.index
        if v.get(i) != 1:
            return False
        kind = (t.which, t.axis)
        if t.axis == "col" and max(v) != i or t.axis == "row" and min(v) != i:
            return False
        if kind == ("C", "col"):
            img = alg.boundary(n, v)
            r = m.row(i)
            return not img if r is None else max(img) == r and img[r] == m.coeff(r)
        if kind == ("Rinv", "row"):
            img = alg.coboundary(n - 1, v)
            c = m.col(i)
            return not img if c is None else min(img) == c and img[c] == m.coeff(i)
        if kind == ("R", "col"):
            c = m.col(i)
            if c is None:
                return v == {i: 1}
            img = alg.boundary(n, self.factor(n, "C", "col", c))
            return v == alg.scale(img, pow(m.coeff(i), -1, p))
        if kind == ("Cinv", "row"):
            r = m.row(i)
            if r is None:
                return v == {i: 1}
            img = alg.coboundary(n - 1, self.factor(n, "Rinv", "row", r))
            return v == alg.scale(img, pow(m.coeff(r), -1, p))
        # a row of R (of C) times R^-1 (C^-1) is a unit row
        inverse = "Rinv" if t.which == "R" else "Cinv"
        acc: dict = {}
        for k, a in v.items():
            for j, w in self.factor(n, inverse, "row", k).items():
                acc[j] = (acc.get(j, 0) + a * w) % p
        return {j: w for j, w in acc.items() if w} == {i: 1}

    def _witness_bounds(self, x: Chain, res) -> bool:
        if not isinstance(res, BoundingResult):
            return False
        y = dict(res.witness.vector.entries)
        return (self.alg.boundary(2, y) == dict(x.vector.entries)
                and res.value == self.alg.births[2][max(y)])

    def check_bounding_chain(self, x, why, res) -> bool:
        if not self._witness_bounds(x, res):
            return False
        if why[0] == "triangle":
            return res.value <= self.alg.births[2][why[1]]
        return res.value == why[1].death_value

    def check_time_of_homology(self, x, f, sigma, t) -> bool:
        if t is NEVER:
            return False
        births = (self.engine.birth_value_of(x), self.engine.birth_value_of(f))
        if not max(births) <= t <= max(*births, self.alg.births[2][sigma]):
            return False
        diff = {i: (v - f.vector.get(i)) % self.alg.p for i, v in x.vector.entries}
        diff.update({i: -v % self.alg.p for i, v in f.vector.entries if i not in diff})
        diff = self.chain(1, {i: v for i, v in diff.items() if v})
        res = self.engine.bounding_chain(diff)
        return self._witness_bounds(diff, res) and t == max(*births, res.value)

    def check_lifespan(self, x, bar, span) -> bool:
        return span == (bar.birth_value, bar.death_value)

    def check_cocycle(self, bar, cochain) -> bool:
        alg = self.alg
        vec = dict(cochain.vector.entries)
        if bar.finite:
            # the death row of C^-1 is (row of R^-1 at the birth cell) D / m
            img = alg.coboundary(bar.dim, self.factor(bar.dim + 1, "Rinv", "row", bar.birth_pos))
            return min(vec) == bar.death_pos and vec == alg.normalized(img)
        return min(vec) == bar.birth_pos and not alg.coboundary(bar.dim, vec)

    def check_early_stop(self, bar, chain) -> bool:
        vec = dict(chain.vector.entries)
        if max(vec) != bar.birth_pos or chain.dim >= 1 and self.alg.boundary(chain.dim, vec):
            return False
        if not bar.finite:
            return True
        u = self.engine.umatch(bar.dim + 1)
        col = u.matching.col(bar.birth_pos)
        return umatch.sparsify.column_validity_check(u, col, umatch.sparsify.early_stop_solve(u, col))


class RipsQueries:
    name = "rips_queries"

    def __init__(self, seed: int, work: Path, tally: Tally):
        self.seed = seed
        self.paths = []
        self.sizes: dict = {"instances": [], "batch": BATCH}
        for i, sub in enumerate(instance_seeds(seed, INSTANCES)):
            path = work / f"er{i}.csv"
            cx = er_distance_file(sub, QUERY_N, path, tally)
            self.paths.append(path)
            self.sizes["instances"].append({"dataset": f"er n={QUERY_N} seed={sub}", "field": FIELD,
                                            "cells": [cx.n_cells(n) for n in range(3)]})
        self.instances: list[Instance] = []
        self.batch: list = []
        self.answers: list = []

    def build_engines(self) -> list[PersistenceEngine]:
        """What a user of the engines runs before the first query."""
        engines = []
        for path in self.paths:
            d = umatch.io.load_distance_csv(str(path))
            cx = FilteredCliqueComplex(d, max_dim=2, threshold=float(d.max()))
            engines.append(PersistenceEngine(cx, GF(FIELD), max_dim=2))
        return engines

    def setup_samples(self, count: int) -> list[float]:
        samples = []
        for _ in range(count):
            t0 = time.perf_counter()
            engines = self.build_engines()
            samples.append(time.perf_counter() - t0)
        self._attach(engines)
        return samples

    def _attach(self, engines: list[PersistenceEngine]) -> None:
        self.instances = [Instance(e) for e in engines]
        for size, inst in zip(self.sizes["instances"], self.instances):
            size["ranks"] = [inst.engine.umatch(n).rank for n in (1, 2)]
            size["bars"] = len(inst.bars)

    def prepare_pass(self, k: int) -> None:
        """Draw pass k's requests and build their input chains, untimed."""
        rng = random.Random(f"{self.seed}/{k}")
        batch = []
        for _ in range(BATCH):
            e = rng.randrange(INSTANCES)
            batch.append((e, self.instances[e].request(rng)))
        self.batch = batch

    def run_pass(self) -> list[float]:
        calls = [{kind: inst.call(kind) for kind in ("retrieve",) + OTHER} for inst in self.instances]
        now = time.perf_counter
        latencies, answers = [], []
        for e, req in self.batch:
            fn = calls[e][req[0]]
            t0 = now()
            answers.append(fn(*req[1:]))
            latencies.append(now() - t0)
        self.answers = answers
        return latencies

    def full_run(self, tracer=None) -> float:
        """Engine builds plus pass 0, as the memory and traced passes run
        them; the input chains are built with the tracer off."""
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        engines = self.build_engines()
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        self._attach(engines)
        self.prepare_pass(0)
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        self.run_pass()
        wall += time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        return wall

    def memory_run(self) -> None:
        """Engine builds plus pass 0: the engines stay alive together."""
        self.full_run()

    def output_bytes(self) -> int:
        return 0

    def check_pass(self, tally: Tally) -> None:
        for (e, req), ans in zip(self.batch, self.answers):
            try:
                ok = getattr(self.instances[e], "check_" + req[0])(*req[1:], ans)
            except (ValueError, KeyError):  # an empty vector, or a cell not in the complex
                ok = False
            tally.check(ok, f"{req[0]} {req[1:]!r} failed its identity check")

    def early_stop_nnz_ratio(self) -> float:
        """Support of the early-stop pivot columns over that of the exact
        columns of C, for the bars of the current pass's early-stop requests."""
        early = exact = 0
        for e, req in self.batch:
            if req[0] != "early_stop" or not req[1].finite:
                continue
            inst, bar = self.instances[e], req[1]
            u = inst.engine.umatch(bar.dim + 1)
            col = u.matching.col(bar.birth_pos)
            early += umatch.sparsify.early_stop_solve(u, col).nnz
            exact += len(inst.factor(bar.dim + 1, "C", "col", col))
        return early / exact if exact else 0.0
