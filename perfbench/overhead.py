#!/usr/bin/env python3
"""Tracing overhead and count repeatability, per workload.

    python3 perfbench/overhead.py --seed 3 --seconds 8 [--workloads a,b]

For each workload: one untraced run and two traced runs, each in a fresh
process.  Prints the overhead as the untraced jobs_per_s over the traced
one, minus one, and checks that every per-layer count (every metric that is
not a time or a rate) is identical between the two traced runs.  Exit code
1 when a count differs or a run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile-zp", "compile-nott", "cayley", "sweep")


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n"
                         f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
    return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args(argv)
    ok = True
    print("| workload | jobs/s untraced | jobs/s traced | overhead | "
          "counts compared | counts equal |")
    print("|---|---|---|---|---|---|")
    for w in args.workloads.split(","):
        plain = bench(w, args.seed, args.seconds, 0)
        t1 = bench(w, args.seed, args.seconds, 1)
        t2 = bench(w, args.seed, args.seconds, 1)
        counts = [k for k in t1
                  if not k.endswith(("self_s", "_per_s_traced"))]
        differ = [k for k in counts if t1[k] != t2[k]]
        ok &= not differ
        fast, slow = plain["jobs_per_s"], t1["bench.jobs_per_s_traced"]
        print(f"| {w} | {fast:.4g} | {slow:.4g} | {fast / slow - 1:+.1%} | "
              f"{len(counts)} | {'yes' if not differ else differ} |",
              flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
