#!/usr/bin/env python3
"""Compiled word length against target precision for one generating set.

Runs the recursive compiler to each level n, records worst observed length
over a few uniform targets, and fits the log-log slope length ~ n^alpha.
The certificate budget B^i * l0 is printed alongside as the a-priori line.

    python3 scripts/compile_scaling.py --group SL:d=2,Zp:p=3,N=8 \
        --gens sampled:3:100 --seed 4 --out scaling.json
"""

import argparse
import csv
import json
import sys

import numpy as np

from prosk import skcompiler as sk, spectral
from prosk.cli import _load_gens
from prosk.matgroups import GroupDescriptor, ops_for


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--group", required=True)
    ap.add_argument("--gens", default="sampled:3:1",
                    help="sampled:k:seed or file:path")
    ap.add_argument("--plan", default="dyadic", choices=("dyadic", "triadic"))
    ap.add_argument("--n0", type=int, help="override the plan's base depth")
    ap.add_argument("--levels", help="comma list (default 1..N)")
    ap.add_argument("--targets", type=int, default=3, help="targets per level")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", help="JSON path (a .csv lands next to it)")
    args = ap.parse_args(argv)

    desc = GroupDescriptor.parse(args.group)
    ops = ops_for(desc)
    plan = sk.CompilePlan(args.plan, n0=args.n0)
    gens = _load_gens(desc, args.gens)
    table = sk.build_base_table(desc, plan.n_base(desc), gens)
    sess = sk.CompilerSession(gens, table, plan)
    if args.levels:
        levels = [int(x) for x in args.levels.split(",")]
    else:
        levels = list(range(1, desc.ring.N + 1))

    rng = np.random.default_rng(args.seed)
    rows = []
    for n in levels:
        worst, budget = 1, 1
        for _ in range(args.targets):
            tgt = ops.sample_uniform(rng)
            word, cert = sess.compile(tgt, n)
            ev = sk.evaluate(word, gens)
            if ops.key(ev, level=n) != ops.key(tgt, level=n):
                print(f"compiled word misses its target mod K_{n}",
                      file=sys.stderr)
                return 1
            worst = max(worst, cert.length)
            budget = cert.budget
        rows.append({"level": n, "max_length": worst, "budget": budget})
        print(f"  n={n:2d}  len<={worst:>8d}  budget={budget}")
    slope = spectral.loglog_slope([r["level"] for r in rows],
                                  [r["max_length"] for r in rows])
    print(f"{desc.describe()} [{plan.kind}]: length ~ n^{slope:.2f} over "
          f"levels {levels[0]}..{levels[-1]}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"group": desc.describe(), "gens": gens.source,
                       "plan": plan.kind, "slope": slope, "rows": rows},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        base = args.out.rsplit(".", 1)[0]
        with open(base + ".csv", "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=["level", "max_length", "budget"])
            w.writeheader()
            w.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
