#!/usr/bin/env python3
"""Record the mathematical answers the benchmark compares against.

    python3 perfbench/record_reference.py --seeds 0-3 [--workloads cayley,...]

For every workload and seed this runs the set-up and one cycle, untimed
(every cycle repeats the same jobs), and stores under `fixed` in
perfbench/reference.json the answers, which must agree between the seeds:
every graph order, diameter and rho of `cayley`, every sweep count and
worst-case diameter, and `word_len_mean` over a compile cycle.

A later change that alters one of these answers then fails the run's output
check instead of being reported as faster.  Re-record only in a change that
alters the benchmark, never in one that claims a speed-up.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets the thread and budget environment first)

sys.path.insert(0, os.path.join(run.ROOT, "src"))

import workloads  # noqa: E402

RHO_TOL = 1e-7  # covers a change of gap solver at its 1e-9 residual


def _seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record(name, seeds):
    fixed = None
    for seed in seeds:
        wl = workloads.WORKLOADS[name]()
        wl.setup_reps = wl.min_cycles = 1
        tally = run.Tally()
        raw = run.measure(wl, seed, 0.0, None, tally, {})
        if tally.failed:
            raise SystemExit(f"{name} seed {seed}: {tally.messages}")
        if name.startswith("compile"):
            named = dict((m[0], m[1]) for m in run.domain_metrics(wl, raw))
            answers = {"word_len_mean": named["word_len_mean"]}
        else:
            answers = {job.label: job.facts for job in raw["jobs"]}
        if fixed is not None and answers != fixed:
            raise SystemExit(f"{name}: answers depend on the seed: "
                             f"{fixed} != {answers}")
        fixed = answers
        print(f"{name} seed {seed}: {json.dumps(answers)[:200]}", flush=True)
    out = {"fixed": fixed}
    if name == "cayley":
        out["rho_tol"] = RHO_TOL
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-3", help="lo-hi, inclusive")
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    path = os.path.join(HERE, "reference.json")
    with open(path) as fh:
        ref = json.load(fh)
    for name in args.workloads.split(","):
        ref[name] = record(name, _seeds(args.seeds))
        with open(path, "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
