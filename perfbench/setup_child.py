"""Set-up probe for the in-process workloads: a fresh interpreter that
imports the library, builds what one run needs and prints ``READY``.

``run.py`` times it from launch to the ``READY`` line; that interval is
the ``setup_s`` sample of the ``count`` and ``ingest`` workloads.

* ``count``: parse the DIMACS formula read from stdin, build the NP
  oracle and ApproxMC strategy, and open one solver session;
* ``ingest``: build the aggregate and one shard replica sketch.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("count", "ingest"))
    parser.add_argument("--kernel", required=True)
    parser.add_argument("--backend", required=True)
    args = parser.parse_args()

    sys.path.insert(0, HERE)
    import workloads

    if args.workload == "count":
        from repro.core.approxmc import BucketingStrategy
        from repro.formulas.dimacs import parse_dimacs_cnf
        from repro.sat.oracle import NpOracle

        formula = parse_dimacs_cnf(sys.stdin.read())
        params = workloads.COUNT_PARAMS
        BucketingStrategy(formula=formula, thresh=params.thresh,
                          repetitions=params.repetitions,
                          backend=args.backend, kernel=args.kernel)
        NpOracle(formula, backend=args.backend,
                 kernel=args.kernel).session()
    else:
        workloads.new_sketch()
        workloads.new_sketch()
    print("READY", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
