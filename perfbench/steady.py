"""Steadiness self-check: run workloads k times and compare spreads with
the bounds in ``BENCHMARK.json``.

Usage (from the repository root)::

    python3 perfbench/steady.py --workloads all -k 10
    python3 perfbench/steady.py --workloads cluster -k 5 --sets 2

For every end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread ``(q3 - q1) /
median`` next to the metric's bound, then the per-run values.  A spread
over the bound is flagged ``OVER`` (and fails the check) and one over a
third of it ``WIDE``; ``setup_s`` is exempt from the spread gate, so its
line says so.  With ``--sets 2`` the runs are
split into two sets and the second set's median is compared with the
first's, which is how a parent/child comparison is gated.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all",
                        help="comma-separated names, or 'all'")
    parser.add_argument("-k", type=int, default=10,
                        help="runs per set, one seed each")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = ([w["name"] for w in spec["workloads"]]
             if args.workloads == "all" else args.workloads.split(","))
    seconds = args.seconds or spec["run_seconds"]
    flagged = 0
    seed = args.first_seed
    for workload in names:
        sets = []
        for _ in range(args.sets):
            results = []
            for _ in range(args.k):
                result, wall = run_once(workload, seed, seconds)
                print(f"{workload} seed {seed}: {wall:.1f} s, correct "
                      f"{result['correct']}, failed {result['failed']}/"
                      f"{result['attempted']}", flush=True)
                flagged += not result["correct"]
                results.append(result)
                seed += 1
            sets.append(results)
        print(f"\n== {workload} ({args.k} runs x {args.sets} sets, "
              f"{seconds} s each)")
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            set_medians = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                median, q1, q3, share = spread(values)
                set_medians.append(median)
                gated = name != "setup_s"
                flag = ("OVER" if share > bound else
                        "WIDE" if share > bound / 3 else "ok")
                if not gated:
                    flag += " (setup_s: spread not gated)"
                elif flag == "OVER":
                    flagged += 1
                print(f"  {workload:8s} {name:18s} median {median:12.5g} "
                      f"{entry['unit']:6s} q1 {q1:12.5g} q3 {q3:12.5g} "
                      f"spread {share:7.2%} bound {bound:5.0%} {flag}")
                print(f"  {'':8s} {'':18s} runs "
                      f"{' '.join(f'{v:.5g}' for v in values)}")
            if len(set_medians) > 1:
                drift = worse_by(set_medians[0], set_medians[-1],
                                 entry["better"])
                flag = "ok" if drift <= bound else "DRIFT"
                flagged += flag != "ok"
                print(f"  {workload:8s} {name:18s} set medians "
                      f"{[f'{m:.5g}' for m in set_medians]} worse by "
                      f"{drift:7.2%} bound {bound:5.0%} {flag}")
    print(f"\n{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
