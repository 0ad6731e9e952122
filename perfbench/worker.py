"""One workload run in a fresh process, started by run.py.

Prints one JSON line: the set-up time (from the moment run.py started this
process to the end of the program's initialisation), the wall time of every
operation, and the checks' findings. With --setup-only it stops after
set-up. With --trace it also installs the tracer before set-up and reports
the per-layer metrics instead of the end-to-end ones.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.perf_counter() of the parent when it started this process")
    ap.add_argument("--trace", default=None, help="write the spans to this file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy as np
    import kgs
    import workloads
    with np.load(args.inputs, allow_pickle=False) as data:
        inputs = {k: data[k] for k in data.files}

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.round = 0
    work = workloads.WORKLOADS[args.workload](args.seed, inputs)
    setup_s = time.perf_counter() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "kgs": kgs.__file__}))
        return

    op_s, round_s = [], []
    start = time.perf_counter()
    while True:
        ops = work.run_round(tracer)
        op_s += ops
        round_s.append(sum(ops))
        if time.perf_counter() - start >= args.seconds:
            break
        if tracer:
            tracer.round += 1
    if tracer:
        tracer.round = None
    problems = work.check()
    out = {"setup_s": setup_s, "op_s": op_s, "round_s": round_s,
           "end": work.end_metrics(), "problems": problems, "kgs": kgs.__file__,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        out["layers"] = tracer.metrics(work.layer_metrics())
        out["missing"] = tracer.missing
        tracer.write(args.trace, {"workload": args.workload, "seed": args.seed,
                                  "setup_s": setup_s})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
