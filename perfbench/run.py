"""Benchmark for kgs: blur-oracle training and an eval sweep.

    python3 perfbench/run.py --workload blur_train --seed 1 --seconds 40 --trace 0

Run from the root of a checkout that holds ``src/kgs``. The BLAS and OpenMP
pools are pinned to one thread before numpy loads. Inputs are made from the
seed by the benchmark's own code (and cached under perfbench/cache). Set-up
is timed in SETUP_PROBES fresh processes that import kgs and initialise the
program, half before and half after the workload, which runs in one more
fresh process for at least --seconds, in whole rounds. The last line of
output is one JSON object: correct, attempted, failed and the metrics (end
to end with --trace 0, per layer with --trace 1).
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("blur_train", "eval_sweep")
SETUP_PROBES = 8          # plus the workload process itself: nine set-up samples
CHILD_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cached_inputs(workload, seed):
    """Path of the workload's inputs for this seed, made on first use. The
    cache key includes the source of the code that makes them."""
    sys.path[:0] = [SRC, HERE]
    import numpy as np
    import kgs
    if not os.path.abspath(kgs.__file__).startswith(SRC + os.sep):
        fail(f"kgs imported from {kgs.__file__}, not from {SRC}")
    import workloads
    digest = hashlib.sha1()
    for name in ("reference.py", "workloads.py"):
        with open(os.path.join(HERE, name), "rb") as fh:
            digest.update(fh.read())
    cache = os.path.join(HERE, "cache")
    os.makedirs(cache, exist_ok=True)
    path = os.path.join(cache, f"{workload}-{seed}-{digest.hexdigest()[:12]}.npz")
    if not os.path.exists(path):
        tmp = f"{path}.{os.getpid()}.tmp.npz"
        np.savez(tmp, **workloads.make_inputs(workload, seed))
        os.replace(tmp, path)
    return path


def child(args, inputs, extra=()):
    """Run worker.py in a fresh process; returns its JSON line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--inputs", inputs, *extra]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.abspath(out["kgs"]).startswith(SRC + os.sep):
        fail(f"worker imported kgs from {out['kgs']}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "kgs", "__init__.py")):
        fail(f"no kgs sources under {SRC}; run from the root of a kgs checkout")

    inputs = cached_inputs(args.workload, args.seed)

    def probes():
        return [child(args, inputs, ["--setup-only"])["setup_s"]
                for _ in range(SETUP_PROBES // 2)]

    setups = probes()
    extra = []
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        extra = ["--trace", os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")]
    run = child(args, inputs, extra)
    setups += [run["setup_s"]] + probes()

    for problem in run["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if args.trace:
        from tracing import layer_units
        if run["missing"]:
            print(f"perfbench: not in this kgs, reads 0: {', '.join(run['missing'])}",
                  file=sys.stderr)
        metrics = {name: {"value": run["layers"][name], "unit": unit}
                   for name, unit in layer_units().items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_ms": {"value": 1e3 * statistics.median(run["op_s"]), "unit": "ms"},
            "run_s": {"value": statistics.median(run["round_s"]), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            "time_to_psnr_s": {"value": run["end"]["time_to_psnr_s"], "unit": "s"},
            "holdout_psnr_db": {"value": run["end"]["holdout_psnr_db"], "unit": "dB"},
        }
    bad = [k for k, m in metrics.items()
           if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
    if bad:
        fail(f"no finite value for {', '.join(bad)}")
    print(json.dumps({"correct": not run["problems"], "attempted": len(run["op_s"]),
                      "failed": 0, "metrics": metrics}))


if __name__ == "__main__":
    main()
