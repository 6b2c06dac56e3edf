"""Server child for the served workloads: one process, one or two nodes.

Started by ``run.py`` as ``python3 server_child.py --nodes N --frontend F
[--trace]``.  It binds every node on an ephemeral localhost port, then
prints ``READY <url> [<url> ...]`` on stdout -- the blocking readiness
signal the parent waits on.  Afterwards it answers line commands read
from stdin, one JSON line per command:

* ``stats``  -- CPU seconds and peak RSS of this process;
* ``reset``  -- clear spans, counters and the store's view counters;
* ``report`` -- per-span totals, counters and view-counter deltas;
* ``stop`` (or end of input) -- shut every node down and exit.

With ``--trace`` the layer wrappers of :mod:`spans` are installed here,
so router, store and sketch spans are recorded inside the server.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def _stats() -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--nodes", type=int, default=1)
    parser.add_argument("--frontend", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="append server spans to this file on report")
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin this process (and so every server "
                             "thread) to one CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from repro.service.frontends import create_frontend
    from repro.service.router import Router
    from repro.store.store import VIEW_METRICS, SketchStore

    tracer = None
    if args.trace:
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer)

    nodes = [create_frontend(args.frontend, ("127.0.0.1", 0),
                             Router(SketchStore())).start_background()
             for _ in range(args.nodes)]
    try:
        print("READY " + " ".join(node.url for node in nodes), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "stop":
                break
            if command == "stats":
                reply = _stats()
            elif command == "reset":
                VIEW_METRICS.reset()
                if tracer is not None:
                    tracer.reset()
                reply = {"ok": True}
            elif command == "report":
                reply = {"view": {"hits": VIEW_METRICS.hits,
                                  "builds": VIEW_METRICS.builds,
                                  "serializations":
                                      VIEW_METRICS.serializations}}
                if tracer is not None:
                    reply["spans"] = tracer.totals()
                    reply["counts"] = dict(tracer.counts)
                    if args.spans:
                        tracer.write(args.spans, "server")
            else:
                reply = {"error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        for node in nodes:
            node.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
