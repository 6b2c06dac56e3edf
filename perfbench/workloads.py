"""The four workloads: seeded inputs, set-up, a fixed op sequence, checks.

Every workload is a fixed, seeded sequence of operations whose length
depends only on ``--seconds`` (through the nominal rates below), never
on elapsed time, so two runs with the same arguments do identical work
and reach identical final state.  Inputs, mirror sketches and reference
answers are built in :meth:`Workload.prepare`, outside every timed
region.  Load comes from this one process, one closed-loop request at a
time; a served workload adds exactly one server child process.

``count`` and ``ingest`` run the library in this process.  ``serve``
and ``cluster`` drive ``server_child.py`` over HTTP.
"""

from __future__ import annotations

import copy
import json
import os
import random
import resource
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.approxmc import approx_mc
from repro.formulas.dimacs import write_dimacs_cnf
from repro.formulas.generators import random_k_cnf
from repro.store import serialize
from repro.store.factory import build_sketch
from repro.streaming.base import DEFAULT_CHUNK_SIZE, SketchParams, chunked

HERE = os.path.dirname(os.path.abspath(__file__))

#: ``count``: ApproxMC's light benchmark constants (Thresh 25, t = 6).
COUNT_PARAMS = SketchParams(eps=0.8, delta=0.25, thresh_constant=16.0,
                            repetitions_constant=4.0)
COUNT_FORMULA_SEED = 7
COUNT_VARS = 40
COUNT_CLAUSES = 120
#: ``exact_model_count`` of the pinned formula (about a minute to
#: recompute, so it is pinned here rather than recomputed per run).
COUNT_EXACT = 49670

#: Served and ingested sketches: Minimum over a 24-bit universe with the
#: paper's Thresh constant at eps 0.8 (Thresh 150) and 9 repetitions.
SKETCH_KIND = "minimum"
UNIVERSE_BITS = 24
SKETCH_PARAMS = SketchParams(eps=0.8, delta=0.25, thresh_constant=96.0,
                             repetitions_constant=6.0)
SKETCH_SEED = 11

INGEST_SHARD = 8 * DEFAULT_CHUNK_SIZE
SERVE_NAMES = 16
CLUSTER_NAMES = 8
WRITE_BATCH = 64
PREPOPULATE = 4096

#: Ops per measured second on a 2-CPU x86-64 host; the seconds of one
#: pass times this fixes the sequence length.
NOMINAL_RATE = {"count": 0.5, "ingest": 9.0, "serve": 1150.0,
                "cluster": 170.0}
MIN_OPS = {"count": 1, "ingest": 2, "serve": 200, "cluster": 100}


def new_sketch():
    """A fresh empty sketch with the benchmark's kind, params and seed."""
    return build_sketch(SKETCH_KIND, UNIVERSE_BITS, SKETCH_PARAMS,
                        seed=SKETCH_SEED)


def zipf_items(rng: np.random.Generator, count: int) -> np.ndarray:
    """A Zipf-like stream over the 24-bit universe (rank -> odd-multiplier
    scatter, so popular items are not clustered near zero)."""
    ranks = rng.zipf(1.2, count).astype(np.uint64)
    mask = np.uint64((1 << UNIVERSE_BITS) - 1)
    return (ranks * np.uint64(2654435761) + np.uint64(12345)) & mask


def zipf_names(rng: np.random.Generator, names: int,
               count: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, names + 1)
    return rng.choice(names, size=count, p=weights / weights.sum())


class Op(NamedTuple):
    """One measured operation's outcome."""

    kind: str
    latency: float
    cpu: float
    ok: bool
    error: Optional[str]


class Pass:
    """The ops of one measured pass plus process-level totals."""

    def __init__(self) -> None:
        self.ops: List[Op] = []
        self.server_cpu = 0.0
        self.peak_rss_mb = 0.0
        self.units = 0  # Items for ingest, ops otherwise.
        self.oracle_calls: List[int] = []
        self.final_ok = True


def _timed(tracer, kind: str, call):
    """Run ``call`` as one op; returns ``(result, error, wall, cpu)``."""
    token = tracer.begin("op." + kind) if tracer is not None else None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result, error = call(), None
    except Exception as exc:  # A failed op is counted, never fatal.
        result, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if token is not None:
        tracer.end(token)
    return result, error, wall, cpu


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _probe_setup(args: Sequence[str], stdin_text: str = "") -> float:
    """Launch a set-up probe and time it until its ``READY`` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, args[0]),
                             *args[1:]],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    try:
        proc.stdin.write(stdin_text)
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        if line.strip() != "READY":
            raise RuntimeError(f"set-up probe failed: {line!r}")
        proc.stdout.read()
    finally:
        proc.stdout.close()
        if proc.wait(timeout=60) != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return elapsed


class Workload:
    """Base: subclasses fill in prepare/setup/measure."""

    name = ""
    #: Measured passes per run, each over the whole sequence from a
    #: fresh set-up.
    passes = 10

    def __init__(self, seed: int, seconds: float,
                 resolved: Dict[str, str],
                 server_cpu: Optional[int] = None) -> None:
        """``seconds`` is the nominal length of one pass; ``server_cpu``
        pins a server child to that CPU."""
        self.seed = seed
        self.resolved = resolved
        self.server_cpu = server_cpu
        self.ops = max(MIN_OPS[self.name],
                       round(seconds * NOMINAL_RATE[self.name]))

    def prepare(self) -> None:
        """Generate inputs and references (untimed)."""

    def setup(self, traced: bool = False) -> float:
        """Bring the program up; returns the set-up seconds."""
        raise NotImplementedError

    def warm(self) -> None:
        """Untimed ops that fill caches without changing answers."""

    def measure(self, tracer=None) -> Pass:
        raise NotImplementedError

    def server_report(self) -> Optional[dict]:
        return None

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started."""


# --------------------------------------------------------------------------
# count


class CountWorkload(Workload):
    """ApproxMC on one pinned random 3-CNF over pinned per-count seeds;
    ``--seed`` only permutes their order."""

    name = "count"
    passes = 4

    def prepare(self) -> None:
        self.formula = random_k_cnf(random.Random(COUNT_FORMULA_SEED),
                                    COUNT_VARS, COUNT_CLAUSES)
        self.dimacs = write_dimacs_cnf(self.formula)
        self.count_seeds = list(range(self.ops))
        random.Random(self.seed).shuffle(self.count_seeds)
        eps = COUNT_PARAMS.eps
        self.band = (COUNT_EXACT / (1 + eps), COUNT_EXACT * (1 + eps))

    def setup(self, traced: bool = False) -> float:
        return _probe_setup(["setup_child.py", "count",
                             "--kernel", self.resolved["kernel"],
                             "--backend", self.resolved["backend"]],
                            self.dimacs)

    def measure(self, tracer=None) -> Pass:
        out = Pass()
        lo, hi = self.band
        for count_seed in self.count_seeds:
            rng = random.Random(count_seed)
            result, error, wall, cpu = _timed(
                tracer, "count",
                lambda: approx_mc(self.formula, COUNT_PARAMS, rng,
                                  workers=1,
                                  backend=self.resolved["backend"],
                                  kernel=self.resolved["kernel"]))
            ok = error is None and lo <= result.estimate <= hi
            out.oracle_calls.append(
                result.oracle_calls if result is not None else -1)
            out.ops.append(Op("count", wall, cpu, ok, error))
        out.units = len(out.ops)
        out.peak_rss_mb = _self_peak_rss_mb()
        return out


# --------------------------------------------------------------------------
# ingest


class IngestWorkload(Workload):
    """The ``repro push`` flow without a server: per shard a fresh
    replica, batch ingestion in default chunks, dumps -> loads -> merge
    into one aggregate."""

    name = "ingest"

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.stream = zipf_items(rng, self.ops * INGEST_SHARD)
        self.shards = [self.stream[i * INGEST_SHARD:(i + 1) * INGEST_SHARD]
                       for i in range(self.ops)]
        # Serial compute_f0 over the whole stream, read at every shard
        # boundary (shards are whole chunks, so the chunking matches).
        from repro.streaming.base import compute_f0
        reference = new_sketch()
        self.prefix_estimates = [compute_f0(shard, reference)
                                 for shard in self.shards]

    def setup(self, traced: bool = False) -> float:
        elapsed = _probe_setup(["setup_child.py", "ingest",
                                "--kernel", self.resolved["kernel"],
                                "--backend", self.resolved["backend"]])
        self.aggregate = new_sketch()
        return elapsed

    def warm(self) -> None:
        scratch = new_sketch()
        self._push(self.shards[0][:DEFAULT_CHUNK_SIZE], scratch)

    @staticmethod
    def _push(shard: np.ndarray, aggregate) -> None:
        replica = new_sketch()
        for chunk in chunked(shard):
            replica.process_batch(chunk)
        aggregate.merge(serialize.loads(serialize.dumps(replica)))

    def measure(self, tracer=None) -> Pass:
        out = Pass()
        aggregate = self.aggregate
        for shard, expected in zip(self.shards, self.prefix_estimates):
            _, error, wall, cpu = _timed(
                tracer, "push", lambda: self._push(shard, aggregate))
            ok = error is None and aggregate.estimate() == expected
            out.ops.append(Op("push", wall, cpu, ok, error))
        out.final_ok = aggregate.estimate() == self.prefix_estimates[-1]
        out.units = len(out.ops) * INGEST_SHARD
        out.peak_rss_mb = _self_peak_rss_mb()
        return out


# --------------------------------------------------------------------------
# served workloads


class ServerChild:
    """``server_child.py`` as a managed subprocess."""

    def __init__(self, nodes: int, frontend: str, traced: bool,
                 spans_path: Optional[str], cpu: Optional[int]) -> None:
        cmd = [sys.executable, os.path.join(HERE, "server_child.py"),
               "--nodes", str(nodes), "--frontend", frontend]
        if cpu is not None:
            cmd += ["--cpu", str(cpu)]
        if traced:
            cmd.append("--trace")
            if spans_path:
                cmd += ["--spans", spans_path]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().split()
        if not line or line[0] != "READY":
            self.stop()
            raise RuntimeError("server child failed to start")
        self.urls = line[1:]

    def command(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


class ServedWorkload(Workload):
    """Shared base of ``serve`` and ``cluster``: one server child,
    a pre-populated set of names, a seeded read/write op mix whose
    expected answers come from local mirror sketches."""

    #: Short ops gain most from more best-of samples.
    passes = 16
    nodes = 1
    names = 0
    mix: Tuple[Tuple[str, float], ...] = ()
    spans_path: Optional[str] = None

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        # Exact mix proportions in seeded order: a seed changes which op
        # comes when, never how many writes a pass does.
        counts = [round(self.ops * share) for _, share in self.mix]
        counts[0] += self.ops - sum(counts)
        kinds = [kind for (kind, _), n in zip(self.mix, counts)
                 for _ in range(n)]
        self.kinds = [kinds[i] for i in rng.permutation(self.ops)]
        self.targets = zipf_names(rng, self.names, self.ops)
        self.sketch_names = [f"s{i:02d}" for i in range(self.names)]
        mirrors = []
        for _ in range(self.names):
            sketch = new_sketch()
            sketch.process_batch(zipf_items(rng, PREPOPULATE).tolist())
            mirrors.append(sketch)
        self.initial = [copy.deepcopy(m) for m in mirrors]
        # Replay the sequence on the mirrors: every read's expected
        # estimate is the mirror's at the same point.
        self.batches: List[Optional[List[int]]] = []
        self.expected: List[Optional[float]] = []
        for kind, target in zip(self.kinds, self.targets):
            if kind == "ingest":
                batch = zipf_items(rng, WRITE_BATCH).tolist()
                mirrors[target].process_batch(batch)
                self.batches.append(batch)
                self.expected.append(None)
            else:
                self.batches.append(None)
                self.expected.append(mirrors[target].estimate())
        self.child: Optional[ServerChild] = None

    def _client(self, urls: List[str]):
        raise NotImplementedError

    def setup(self, traced: bool = False) -> float:
        t0 = time.perf_counter()
        self.child = ServerChild(self.nodes, self.resolved["frontend"],
                                 traced, self.spans_path, self.server_cpu)
        self.client = self._client(self.child.urls)
        for name, sketch in zip(self.sketch_names, self.initial):
            self.client.upload(name, sketch)
        return time.perf_counter() - t0

    def teardown(self) -> None:
        if self.child is not None:
            self.child.stop()
            self.child = None

    def warm(self) -> None:
        for name in self.sketch_names:
            self.client.estimate(name)
        self.child.command("reset")

    def _run_op(self, i: int):
        raise NotImplementedError

    def measure(self, tracer=None) -> Pass:
        out = Pass()
        before = self.child.command("stats")["cpu_s"]
        for i, kind in enumerate(self.kinds):
            result, error, wall, cpu = _timed(tracer, kind,
                                              lambda: self._run_op(i))
            ok = error is None and self._check(i, result)
            out.ops.append(Op(kind, wall, cpu, ok, error))
        stats = self.child.command("stats")
        out.server_cpu = stats["cpu_s"] - before
        out.peak_rss_mb = stats["maxrss_kb"] / 1024.0
        out.units = len(out.ops)
        return out

    def _check(self, i: int, result) -> bool:
        if self.kinds[i] == "ingest":
            return result == WRITE_BATCH
        if self.kinds[i] == "fetch":
            result = result.estimate()
        return result == self.expected[i]

    def server_report(self) -> Optional[dict]:
        return self.child.command("report")


class ServeWorkload(ServedWorkload):
    """One node behind the default front end; 16 Zipf-skewed names."""

    name = "serve"
    names = SERVE_NAMES
    mix = (("estimate", 0.90), ("ingest", 0.05), ("fetch", 0.05))

    def _client(self, urls):
        from repro.service.client import ServiceClient
        client = ServiceClient(urls[0])
        client.health()  # First healthy answer ends start-up.
        return client

    def _run_op(self, i: int):
        name = self.sketch_names[self.targets[i]]
        kind = self.kinds[i]
        if kind == "estimate":
            return self.client.estimate(name)
        if kind == "fetch":
            return self.client.fetch(name)
        return self.client.ingest(name, self.batches[i])


class ClusterWorkload(ServedWorkload):
    """Two nodes in one child behind a ``ClusterClient`` with R=2."""

    name = "cluster"
    nodes = 2
    names = CLUSTER_NAMES
    mix = (("estimate", 0.90), ("ingest", 0.10))

    def _client(self, urls):
        from repro.distributed.cluster import ClusterClient
        cluster = ClusterClient(urls, replication=2)
        health = cluster.health()
        if health["status"] != "ok":
            raise RuntimeError(f"cluster not healthy: {health}")
        return cluster

    def _run_op(self, i: int):
        name = self.sketch_names[self.targets[i]]
        if self.kinds[i] == "estimate":
            return self.client.estimate(name)
        return self.client.ingest(name, self.batches[i])


WORKLOADS = {w.name: w for w in (CountWorkload, IngestWorkload,
                                 ServeWorkload, ClusterWorkload)}
