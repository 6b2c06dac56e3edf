"""Smoke-size tests of the benchmark itself (run: python3 -m pytest perfbench).

Every workload runs at smoke size with all output checks on, untraced
and traced; the result line must carry exactly the metrics that
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT_RE.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and \
        setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result = _result(_run("--workload", workload, "--seed", "3",
                          "--smoke"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["ok_rate"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    proc = _run("--workload", workload, "--seed", "3", "--smoke",
                "--trace", "1")
    result = _result(proc)
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert "NOT REPRODUCED" not in proc.stdout
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "count":
        assert metrics["kernels.propagate_calls"] > 0
        assert metrics["kernels.propagate_self_pct"] > \
            metrics["sat.solver.self_pct"] > 0
    elif workload == "ingest":
        assert metrics["streaming.process_batch_ms"] > 0
        assert metrics["store.serialize.bytes"] > 0
    elif workload == "serve":
        assert metrics["service.transport_read_pct"] >= 90.0
        assert metrics["store.view.hits"] > 0
    else:
        assert metrics["distributed.cluster.fetch_ms"] > 0
        assert metrics["service.client.fetch_calls"] > 0


def test_same_seed_same_work():
    first = _run("--workload", "count", "--seed", "5", "--smoke")
    second = _run("--workload", "count", "--seed", "5", "--smoke")

    def calls(proc):
        return [line for line in proc.stdout.splitlines()
                if line.startswith("check count:")]

    assert calls(first) == calls(second) != []
    assert _result(first)["attempted"] == _result(second)["attempted"]


def test_refuses_without_sources():
    scratch = os.path.join(ROOT, ".perfbench", f"bare-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        proc = _run("--workload", "count", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=scratch)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
