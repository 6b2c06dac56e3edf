"""Benchmark entry point: one workload, one seed, one measured run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload count --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve --smoke

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``: the
op sequence runs in several passes, each from a fresh set-up, and
timings are op-wise best of passes.  ``--trace 1`` makes half the passes
untraced and as many with layer spans installed, and reports the
per-layer metrics plus the tracing overhead.  Human-readable lines come
first; the last stdout line is the JSON result ``{"correct",
"attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_SAMPLES = 10
SMOKE_SECONDS = 0.25

#: Per-layer metric -> (end-to-end metrics it should move, metrics it
#: should leave unchanged).  Printed by the traced run; see README.md.
LAYER_MAP = {
    "count": [
        ("core.engine.*, sat.oracle.*, sat.solver.*, kernels.propagate_*",
         "count/latency_ms_p50, count/cpu_ms_per_op",
         "serve/*, cluster/*"),
    ],
    "ingest": [
        ("streaming.process_batch_ms, kernels.batch_ms",
         "ingest/throughput_per_s, serve/throughput_per_s (writes)",
         "serve/latency_ms_p50 (reads)"),
        ("store.serialize.dumps_ms, store.serialize.loads_ms, "
         "store.serialize.bytes, streaming.merge_ms",
         "ingest/throughput_per_s", "count/*"),
    ],
    "serve": [
        ("service.router.handle_ms.*, service.transport_ms, "
         "store.estimate_ms, store.view.*",
         "serve/latency_ms_p50 (reads)", "count/*, ingest/*"),
        ("store.ingest_ms", "serve/throughput_per_s (writes)",
         "serve/latency_ms_p50 (reads)"),
    ],
    "cluster": [
        ("distributed.cluster.fetch_ms, service.client.fetch_*, "
         "store.serialize.loads_ms, streaming.merge_ms",
         "cluster/latency_ms_p50, cluster/throughput_per_s", "serve/*"),
        ("distributed.cluster.ingest_ms",
         "cluster/throughput_per_s (writes)", "serve/*"),
    ],
}

#: Client-side spans that are library compute, not transport.
COMPUTE_PREFIXES = ("store.serialize.", "streaming.", "kernels.")


def clear_overrides() -> List[str]:
    """Drop every ``REPRO_*`` variable so the environment cannot change
    the measured program; returns the names dropped."""
    dropped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in dropped:
        del os.environ[key]
    return dropped


def resolve_defaults() -> Dict[str, str]:
    from repro.kernels.registry import resolve_kernel_name
    from repro.parallel.registry import make_executor, resolve_executor_name
    from repro.sat.backends import DEFAULT_BACKEND
    from repro.service.frontends import resolve_frontend_name

    executor = make_executor(1)
    try:
        executor_kind = type(executor).__name__
    finally:
        executor.close()
    return {"kernel": resolve_kernel_name(None), "backend": DEFAULT_BACKEND,
            "frontend": resolve_frontend_name(None),
            "executor": f"{resolve_executor_name(None)} (workers=1 -> "
                        f"{executor_kind})"}


def pin_cpus() -> Dict[str, Optional[int]]:
    """With two or more CPUs, pin this process (the load generator and
    the in-process library) to one and leave the next for the server
    child, so request ping-pong does not depend on where the scheduler
    puts either side."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return {"client": None, "server": None}
    os.sched_setaffinity(0, {cpus[0]})
    return {"client": cpus[0], "server": cpus[1]}


def source_stamp() -> Dict[str, Optional[str]]:
    """The git hash when the tree is a checkout, and a digest of
    ``src/`` either way (benchmark checkouts carry no ``.git``)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    git = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            git = None
    return {"git": git, "src_sha256": digest.hexdigest()[:16]}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# --------------------------------------------------------------------------
# metrics


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def throughput(run) -> float:
    return run.units / sum(op.latency for op in run.ops)


def best_of_passes(runs) -> tuple:
    """Per-op minimum latency and CPU over passes (op ``i`` of every pass
    does the same work)."""
    by_op = list(zip(*(run.ops for run in runs)))
    return ([min(op.latency for op in group) for group in by_op],
            [min(op.cpu for op in group) for group in by_op])


def end_to_end(runs, setups: List[float]) -> Dict[str, float]:
    """Timings are op-wise best of passes: every pass replays the same
    ops from the same fresh state, so op ``i`` costs the same in each,
    and its fastest pass is its cost without interference from the rest
    of the host (the ``timeit`` rule).  ``ok_rate`` covers every op of
    every pass; memory is the peak over passes."""
    latency, cpu = best_of_passes(runs)
    ops = [op for run in runs for op in run.ops]
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": runs[0].units / sum(latency),
        "latency_ms_p50": statistics.median(latency) * 1e3,
        "cpu_ms_per_op": (sum(cpu) + min(run.server_cpu for run in runs))
        / len(cpu) * 1e3,
        "ok_rate": sum(op.ok for op in ops) / len(ops),
        "peak_rss_mb": max(run.peak_rss_mb for run in runs),
    }


def extra_latencies(run) -> Dict[str, float]:
    """Metrics that apply to some workloads only (printed, not gated)."""
    out: Dict[str, float] = {}
    latencies = [op.latency for op in run.ops]
    if len(latencies) >= 1000:
        out["latency_ms_p99"] = percentile(latencies, 0.99) * 1e3
    reads = [op.latency for op in run.ops if op.kind in ("estimate", "fetch")]
    writes = [op.latency for op in run.ops if op.kind == "ingest"]
    if reads and writes:
        out["read_latency_ms_p50"] = statistics.median(reads) * 1e3
        out["write_latency_ms_p50"] = statistics.median(writes) * 1e3
    return out


def merge_totals(*sources: dict) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {}
    for source in sources:
        for name, row in source.items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
            for key in into:
                into[key] += row[key]
    return merged


def client_compute_s(tracer) -> float:
    """Client-side library compute: outermost store/streaming/kernel
    spans recorded in this process."""
    by_id = {s[0]: s for s in tracer.spans}
    total = 0.0
    for _, parent, _, name, start, end in tracer.spans:
        outer = by_id.get(parent)
        if name.startswith(COMPUTE_PREFIXES) and not (
                outer is not None and outer[3].startswith(COMPUTE_PREFIXES)):
            total += end - start
    return total


def per_layer(runs, totals: Dict[str, Dict[str, float]],
              counts: Dict[str, float], view: Dict[str, int],
              client_compute: float,
              overhead_pct: float) -> Dict[str, float]:
    ops = [op for run in runs for op in run.ops]
    n = len(ops)

    def ms(name: str, key: str = "total_s") -> float:
        return totals.get(name, {}).get(key, 0.0) / n * 1e3

    def share(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0) / op_time * 100.0

    op_time = sum(op.latency for op in ops)
    handle_all = sum(row["total_s"] for name, row in totals.items()
                     if name.startswith("service.router.handle."))
    served = handle_all > 0
    transport = (op_time - client_compute - handle_all) if served else 0.0
    # Cached estimate reads: everything but the router is transport.
    estimate_time = sum(op.latency for op in ops if op.kind == "estimate")
    estimate_handle = totals.get("service.router.handle.estimate",
                                 {}).get("total_s", 0.0)
    estimate_transport = ((estimate_time - estimate_handle) / estimate_time
                          * 100.0 if estimate_handle else 0.0)
    hits, builds = view.get("hits", 0), view.get("builds", 0)
    return {
        "core.engine.sample_ms": ms("core.engine.sample"),
        "core.engine.repetition_ms": ms("core.engine.repetition"),
        "sat.oracle.solve_ms": ms("sat.oracle.solve"),
        "sat.oracle.calls": totals.get("sat.oracle.solve",
                                       {}).get("calls", 0) / n,
        "sat.solver.self_ms": ms("sat.solver.solve", "self_s"),
        "sat.solver.self_pct": share("sat.solver.solve"),
        "sat.solver.conflicts": counts.get("sat.solver.conflicts", 0) / n,
        "sat.solver.propagations":
            counts.get("sat.solver.propagations", 0) / n,
        "kernels.propagate_ms": ms("kernels.propagate"),
        "kernels.propagate_calls": totals.get("kernels.propagate",
                                              {}).get("calls", 0) / n,
        "kernels.propagate_self_pct": share("kernels.propagate"),
        "streaming.process_batch_ms": ms("streaming.process_batch"),
        "kernels.batch_ms": ms("kernels.batch"),
        "store.serialize.dumps_ms": ms("store.serialize.dumps"),
        "store.serialize.loads_ms": ms("store.serialize.loads"),
        "store.serialize.bytes": counts.get("store.serialize.bytes", 0) / n,
        "streaming.merge_ms": ms("streaming.merge"),
        "service.router.handle_ms.estimate":
            ms("service.router.handle.estimate"),
        "service.router.handle_ms.ingest":
            ms("service.router.handle.ingest"),
        "service.router.handle_ms.blob": ms("service.router.handle.blob"),
        "service.transport_ms": transport / n * 1e3,
        "service.transport_read_pct": estimate_transport,
        "store.estimate_ms": ms("store.estimate"),
        "store.ingest_ms": ms("store.ingest"),
        "store.view.hits": hits / n,
        "store.view.builds": builds / n,
        "store.view.serializations": view.get("serializations", 0) / n,
        "store.view.hit_pct": (hits / (hits + builds) * 100.0
                               if hits + builds else 0.0),
        "distributed.cluster.fetch_ms": ms("distributed.cluster.fetch"),
        "distributed.cluster.ingest_ms": ms("distributed.cluster.ingest"),
        "service.client.fetch_calls":
            counts.get("service.client.fetch_calls", 0) / n,
        "service.client.fetch_ms": ms("service.client.fetch"),
        "trace.overhead_pct": overhead_pct,
    }


# --------------------------------------------------------------------------
# running


def run_passes(workload, passes: int, setup_samples: int, tracer=None):
    """``passes`` measured passes, each from a fresh set-up; extra
    set-ups (torn down unmeasured) bring the set-up samples up to
    ``setup_samples``.  Returns ``(runs, setups, server reports)``."""
    from spans import install, uninstall

    runs, setups, reports = [], [], []
    for i in range(max(passes, setup_samples)):
        try:
            setups.append(workload.setup(traced=tracer is not None))
            if i < max(passes, setup_samples) - passes:
                continue
            workload.warm()
            gc.collect()
            installed = install(tracer) if tracer is not None else None
            try:
                runs.append(workload.measure(tracer))
            finally:
                if installed is not None:
                    uninstall(installed)
            report = workload.server_report()
            if report is not None:
                reports.append(report)
        finally:
            workload.teardown()
    return runs, setups, reports


def print_table(totals, runs) -> None:
    ops = [op for run in runs for op in run.ops]
    op_time = sum(op.latency for op in ops)
    n = len(ops)
    print(f"spans (per op, n={n}; self % of op wall time):")
    for name, row in sorted(totals.items(),
                            key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:38s} calls {row['calls'] / n:10.1f}  "
              f"total {row['total_s'] / n * 1e3:9.3f} ms  "
              f"self {row['self_s'] / n * 1e3:9.3f} ms  "
              f"{row['self_s'] / op_time * 100:6.1f} %")


def split_checks(name: str, totals, layer: Dict[str, float]) -> List[str]:
    """The ROADMAP splits the traced run must reproduce in shape."""
    lines = []
    if name == "count":
        ranked = [n for n, _ in sorted(totals.items(),
                                       key=lambda kv: -kv[1]["self_s"])
                  if not n.startswith("op.")]
        ok = ranked[:2] == ["kernels.propagate", "sat.solver.solve"]
        lines.append(f"split count: largest self shares {ranked[:2]} "
                     f"(want kernels.propagate, then sat.solver.solve): "
                     f"{'ok' if ok else 'NOT REPRODUCED'}")
    if name == "serve":
        share = layer["service.transport_read_pct"]
        lines.append(f"split serve: transport is {share:.1f}% of estimate "
                     f"read latency (want >= 90%): "
                     f"{'ok' if share >= 90.0 else 'NOT REPRODUCED'}")
    return lines


def traced_layers(workload, passes: int, spans_path: str):
    """Half the passes untraced, then as many traced passes of the same
    sequence; returns the untraced runs, the traced runs, the per-layer
    metric values and the merged span totals."""
    from spans import Tracer

    half = max(1, passes // 2)
    base, _, _ = run_passes(workload, half, 0)
    tracer = Tracer()
    workload.spans_path = spans_path
    runs, _, reports = run_passes(workload, half, 0, tracer)
    overhead = (sum(best_of_passes(runs)[0])
                / sum(best_of_passes(base)[0]) - 1.0) * 100.0
    totals = merge_totals(tracer.totals(),
                          *(r.get("spans", {}) for r in reports))
    counts: Dict[str, float] = dict(tracer.counts)
    view: Dict[str, int] = {}
    for report in reports:
        for key, value in report.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        for key, value in report.get("view", {}).items():
            view[key] = view.get(key, 0) + value
    values = per_layer(runs, totals, counts, view, client_compute_s(tracer),
                       overhead)
    tracer.write(spans_path, "client")
    print_table(totals, runs)
    for line in split_checks(workload.name, totals, values):
        print(line)
    for layers, moves, stays in LAYER_MAP[workload.name]:
        print(f"map {layers} -> moves {moves}; should not move {stays}")
    print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    return base, runs, values, totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op sequence with every check on")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    dropped = clear_overrides()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.environ["PYTHONPATH"] = SRC
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = (SMOKE_SECONDS if args.smoke else
               args.seconds if args.seconds is not None
               else spec["run_seconds"])
    cls = workloads.WORKLOADS[args.workload]
    passes = 2 if args.smoke else cls.passes
    resolved = resolve_defaults()
    cpus = pin_cpus()
    stamp = {"workload": args.workload, "seed": args.seed,
             "seconds": seconds, "passes": passes, "trace": args.trace,
             "nproc": os.cpu_count(), "python": platform.python_version(),
             **source_stamp(), **resolved, "cpus": cpus,
             "cleared_env": dropped}
    print("stamp " + json.dumps(stamp))

    workload = cls(args.seed, seconds / passes, resolved, cpus["server"])
    workload.prepare()
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl.gz")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        base, traced, values, totals = traced_layers(workload, passes,
                                                     spans_path)
        runs = base + traced
        declared = spec["per_layer"]
    else:
        runs, setups, _ = run_passes(workload, passes,
                                     2 if args.smoke else SETUP_SAMPLES)
        values = end_to_end(runs, setups)
        declared = spec["end_to_end"]
        print(f"setup_s samples: {[round(s, 4) for s in setups]}")
        print(f"throughput per pass: "
              f"{[round(throughput(r), 3) for r in runs]}")
        for key, value in extra_latencies(max(runs, key=throughput)).items():
            print(f"extra {key} {value:.4f} ms (fastest pass)")

    # Output checks: every op, each pass's final state, determinism.
    ops = [op for run in runs for op in run.ops]
    correct = all(run.final_ok for run in runs)
    if args.workload == "count":
        rate = sum(op.ok for op in ops) / len(ops)
        correct &= rate >= 1 - workloads.COUNT_PARAMS.delta
        calls = [run.oracle_calls for run in runs]
        correct &= all(c == calls[0] for c in calls)
        print(f"check count: oracle calls per count {calls[0]} in every "
              f"pass: {all(c == calls[0] for c in calls)}")
        if args.trace:
            traced_calls = totals.get("sat.oracle.solve", {}).get("calls", 0)
            correct &= traced_calls == sum(calls[0]) * len(traced)
    else:
        correct &= all(op.ok for op in ops)
    for op in ops:
        if op.error:
            print(f"error {op.kind}: {op.error}")
            break

    metrics = {}
    for entry in declared:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"metric {entry['name']} {value:.6g} {entry['unit']}")
    print(f"ops: {len(ops)} over {len(runs)} passes")
    print(json.dumps({"correct": bool(correct), "attempted": len(ops),
                      "failed": sum(not op.ok for op in ops),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
