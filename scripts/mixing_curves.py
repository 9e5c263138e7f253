#!/usr/bin/env python3
"""Distance-to-uniform curves for a lazy generator walk on one (G, S).

One Monte Carlo batch is checkpointed along its run and, when the group is
small enough to convolve exactly, the true distribution is tracked next to
it.  The printed schedule is the step count the gap-based rule would pick.

    python3 scripts/mixing_curves.py --group Nottingham,Fq[[t]]:q=5,N=4 \
        --gens sampled:3:7 --l 120 --seed 2 --out curves.json
"""

import argparse
import csv
import json
import sys

from prosk import spectral
from prosk.cli import _load_gens
from prosk.matgroups import GroupDescriptor, ops_for


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--group", required=True)
    ap.add_argument("--gens", default="sampled:3:1",
                    help="sampled:k:seed or file:path")
    ap.add_argument("--l", type=int, default=200, help="steps to run")
    ap.add_argument("--trials", type=int, default=100_000)
    ap.add_argument("--checkpoints", type=int, default=0,
                    help="row count along the curve (default ~50)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", help="JSON path (a .csv lands next to it)")
    args = ap.parse_args(argv)

    desc = GroupDescriptor.parse(args.group)
    ops = ops_for(desc)
    gens = _load_gens(desc, args.gens)
    cps = None
    if args.checkpoints:
        stride = max(1, args.l // args.checkpoints)
        cps = sorted(set(list(range(0, args.l + 1, stride)) + [args.l]))
    graph = spectral.build_graph(ops, list(gens.elements))
    series = spectral.walk_series(ops, list(gens.elements), l_max=args.l,
                                  trials=args.trials, seed=args.seed,
                                  checkpoints=cps, graph=graph)
    rho = spectral.spectral_gap(graph)
    sched = spectral.mixing_length(rho, graph.order)
    last = series["rows"][-1]
    print(f"{desc.describe()}  |G|={series['order']}  rho={rho:.4f}  "
          f"schedule={sched}")
    print(f"after l={last['l']}: sup_dev_mc={last['sup_dev_mc']:.3e}"
          + (f"  sup_dev_exact={last['sup_dev_exact']:.3e}"
             if series["exact"] else "  (exact convolution skipped)"))

    if args.out:
        payload = {"group": desc.describe(), "gens": gens.source,
                   "rho": rho, "schedule": sched, **series}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        fields = ["l", "sup_dev_mc", "tv_mc"]
        if series["exact"]:
            fields += ["sup_dev_exact", "tv_exact"]
        base = args.out.rsplit(".", 1)[0]
        with open(base + ".csv", "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=fields)
            w.writeheader()
            w.writerows(series["rows"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
