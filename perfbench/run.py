"""Benchmark of the maler package: one workload per invocation.

    python3 perfbench/run.py --workload reg-stream --seed 0 --seconds 30 --trace 0

Run from the repository root. It imports maler from ./src, generates the
workload's inputs from the seed, measures for the given seconds, checks every
output and prints the metrics; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, timed at the host's reference speed (workloads.HostClock);
with --trace 1 the per-layer ones from a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(np, seed: int, samples: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter_ns()
    sys.path.insert(0, SRC)
    try:
        import numpy as np
        import maler
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the maler package from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(maler.__file__).startswith(SRC + os.sep):
        print(f"error: imported maler from {maler.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import_s = (time.perf_counter_ns() - t0) / 1e9

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    scratch = os.path.join(HERE, ".work")
    workdir = os.path.join(scratch, f"{wl.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = workloads.WorkloadRun(wl, args.seed, workdir,
                                    workloads.load_reference(wl, args.seed))
        if args.trace:
            res = workloads.measure_traced(run, args.seconds)
        else:
            res = workloads.measure(run, args.seconds, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run still uses it
            pass

    tally = res["tally"]
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} (closed loop, one job at a time)")
    print("provenance " + json.dumps(provenance(np, args.seed, res["samples"])))
    print("final_regret " + json.dumps(res["regrets"]))
    if "wall" in res:
        print("unscaled_wall_medians " + json.dumps(res["wall"]))
    for name, (value, unit) in res["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<42} {shown:>14} {unit}")
    print(f"  {'jobs attempted/failed':<42} {tally.attempted:>10}/{tally.failed}")
    for err in tally.errors:
        print(f"  FAILED {err}")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {name: {"value": res["metrics"][name][0], "unit": res["metrics"][name][1]}
               for name in names if name in res["metrics"]}
    correct = (not tally.errors and len(metrics) == len(names)
               and all(m["value"] is not None for m in metrics.values()))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
