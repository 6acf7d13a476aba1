"""One repetition of one workload in a fresh process; prints one JSON line.

Run by ``run.py``.  A fresh process per repetition keeps the engine's
module-global caches from carrying one repetition's work into the next.

    python3 perfbench/worker.py --workload NAME --seed N --rep I --spawned-at T [--trace] [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, ``import holant`` and
input generation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import holant

    if not os.path.abspath(holant.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"holant imported from {holant.__file__}, not from {SRC}")
    rec = None
    if args.trace:
        import tracer

        rec = tracer.install()
    import workloads
    from client import Client, pin_to_current_cpu

    inputs = workloads.make_inputs(args.workload, args.seed, args.rep)
    setup_s = time.monotonic() - args.spawned_at
    pin_to_current_cpu()
    client = Client(None if rec is None else (lambda i: setattr(rec, "request", i)))
    out = {"setup_raw_s": setup_s, "setup_s": setup_s * client.start_speed}
    if not args.setup_only:
        workloads.RUNS[args.workload](inputs, client)
    ops = client.finish()
    if not args.setup_only:
        out["ops"] = [op.as_list() for op in ops]
        out["speed"] = client.speed()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if rec is not None:
            out["spans"] = rec.span_table()
            out["counts"] = rec.counts
            out["span_count"] = len(rec.names)
            if args.spans_out:
                rec.write_spans(args.spans_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
