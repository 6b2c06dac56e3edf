"""In-memory span tracer and the layer wrappers the traced run installs.

Spans are recorded from the benchmark's own code: :func:`install` wraps
public functions and methods of the ``repro`` package at the layer
boundaries named in ``LAYER_SPANS`` and restores them on
:func:`uninstall`.  Nothing under ``src/`` is edited.

A span is ``(span_id, parent_id, trace_id, name, start, end)`` with
``perf_counter`` seconds.  Spans stay in memory until the run ends;
:meth:`Tracer.write` then dumps them as JSON lines.  A span's *self*
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import collections
import gzip
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, int, int, str, float, float]


class Tracer:
    """Collects spans (with parent ids) and counters; thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.spans: List[Span] = []
            self.counts: Dict[str, float] = collections.Counter()
            self._next_id = 1
            self._next_trace = 1

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        """Open a span; a span with no open parent starts a new trace."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            if stack:
                parent, trace = stack[-1][0], stack[-1][1]
            else:
                parent, trace = 0, self._next_trace
                self._next_trace += 1
        token = (span_id, trace, parent, name, time.perf_counter())
        stack.append(token)
        return token

    def end(self, token: tuple) -> None:
        finished = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, trace, parent, name, started = token
        with self._lock:
            self.spans.append((span_id, parent, trace, name, started,
                               finished))

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        by_id = {s[0]: s for s in self.spans}
        out: Dict[str, Dict[str, float]] = {}
        for span_id, parent, _, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            duration = end - start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration
            if parent in by_id:
                pname = by_id[parent][3]
                prow = out.setdefault(pname, {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0})
                prow["self_s"] -= duration
        return out

    def write(self, path: str, origin: str) -> None:
        """Dump every span as one JSON line (gzip), tagged ``origin``."""
        with gzip.open(path, "at", compresslevel=1) as f:
            for span_id, parent, trace, name, start, end in self.spans:
                f.write(json.dumps({"origin": origin, "id": span_id,
                                    "parent": parent, "trace": trace,
                                    "name": name, "start": start,
                                    "end": end}) + "\n")


# --------------------------------------------------------------------------
# Layer wrappers


def _span_wrapper(tracer: Tracer, name: str, fn: Callable,
                  after: Optional[Callable] = None) -> Callable:
    def wrapper(*args, **kwargs):
        token = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(token)
        if after is not None:
            after(tracer, args, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _count_bytes(tracer: Tracer, args, result) -> None:
    tracer.count("store.serialize.bytes", len(result))


def _count_fetch(tracer: Tracer, args, result) -> None:
    tracer.count("service.client.fetch_calls")


def _route_of(path: str) -> str:
    """``/v1/sketches/<name>/<action>`` -> ``action``; else a fixed tag."""
    parts = [p for p in path.partition("?")[0].split("/") if p]
    if parts[:2] == ["v1", "sketches"]:
        if len(parts) == 3:
            return "info"
        if len(parts) == 4:
            return parts[3]
        return "list"
    return parts[0] if parts else "root"


def _solver_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """``CdclSolver.solve``/``resume_after_block``: a span plus the
    conflicts and propagations the call added to the solver's stats."""
    def wrapper(self, *args, **kwargs):
        stats = self.stats
        conflicts, props = stats.conflicts, stats.propagations
        token = tracer.begin("sat.solver.solve")
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.end(token)
            tracer.count("sat.solver.conflicts", stats.conflicts - conflicts)
            tracer.count("sat.solver.propagations",
                         stats.propagations - props)
    wrapper.__wrapped__ = fn
    return wrapper


def _router_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(self, method, path, *args, **kwargs):
        token = tracer.begin("service.router.handle." + _route_of(path))
        try:
            return fn(self, method, path, *args, **kwargs)
        finally:
            tracer.end(token)
    wrapper.__wrapped__ = fn
    return wrapper


def _targets():
    """``(owner, attribute, span name, after-hook)`` for every wrapped
    layer boundary.  ``owner`` is a class or a module."""
    from repro.core.approxmc import BucketingStrategy
    from repro.distributed.cluster import ClusterClient
    from repro.kernels.python import PythonKernel
    from repro.sat.oracle import OracleSession
    from repro.service.client import ServiceClient
    from repro.store import serialize
    from repro.store.store import SketchStore
    from repro.streaming.minimum import MinimumF0

    targets = [
        (BucketingStrategy, "sample_hashes", "core.engine.sample", None),
        (BucketingStrategy, "run_repetition", "core.engine.repetition",
         None),
        (OracleSession, "solve", "sat.oracle.solve", None),
        (OracleSession, "next_model", "sat.oracle.solve", None),
        (PythonKernel, "propagate", "kernels.propagate", None),
        (MinimumF0, "process_batch", "streaming.process_batch", None),
        (MinimumF0, "merge", "streaming.merge", None),
        (serialize, "dumps", "store.serialize.dumps", _count_bytes),
        (serialize, "loads", "store.serialize.loads", None),
        (SketchStore, "estimate", "store.estimate", None),
        (SketchStore, "ingest", "store.ingest", None),
        (ServiceClient, "fetch", "service.client.fetch", _count_fetch),
        (ServiceClient, "fetch_frame", "service.client.fetch",
         _count_fetch),
        (ClusterClient, "fetch", "distributed.cluster.fetch", None),
        (ClusterClient, "ingest", "distributed.cluster.ingest", None),
    ]
    for attr in ("linear_values_batch", "linear_values_batch_words",
                 "trail_zeros_batch", "bit_length_batch",
                 "gf2_eval_poly_batch"):
        targets.append((PythonKernel, attr, "kernels.batch", None))
    return targets


class Installed:
    """The originals replaced by :func:`install`, for :func:`uninstall`."""

    def __init__(self) -> None:
        self.patches: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)


def install(tracer: Tracer) -> Installed:
    """Wrap every layer boundary so calls record spans into ``tracer``.

    Module-level functions are also rebound wherever another ``repro``
    module imported them by name (``from ... import dumps``), so every
    call site sees the wrapper.
    """
    from repro.sat.solver import CdclSolver
    from repro.service.router import Router

    installed = Installed()
    for owner, attr, name, after in _targets():
        original = owner.__dict__[attr]
        wrapper = _span_wrapper(tracer, name, original, after)
        installed.replace(owner, attr, wrapper)
        if isinstance(owner, type):
            continue
        for module in list(sys.modules.values()):
            if module is owner or not getattr(module, "__name__", "") \
                    .startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    installed.replace(module, key, wrapper)
    for attr in ("solve", "resume_after_block"):
        installed.replace(CdclSolver, attr,
                          _solver_wrapper(tracer,
                                          CdclSolver.__dict__[attr]))
    installed.replace(Router, "handle",
                      _router_wrapper(tracer, Router.__dict__["handle"]))
    return installed


def uninstall(installed: Installed) -> None:
    for owner, attr, original in reversed(installed.patches):
        setattr(owner, attr, original)
    installed.patches.clear()
