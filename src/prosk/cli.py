"""Batch driver: verification suites, the word compiler, and measurement
runs, with machine-readable output.

Reports are JSON (sorted keys); commands that produce an (l, deviation) or
similar series also write a CSV next to the JSON when --out is given.  A
fixed config + seed reproduces a report byte for byte except for the
top-level "timestamp" field.  Exit codes: 0 ok, 1 domain error (a violated
mathematical precondition, or a failed verification property), 2 usage,
3 budget.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import datetime, timezone


def _thread_env(n):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


# ---------------------------------------------------------------------------
# shared plumbing


def _config_dict(args):
    skip = {"func", "out"}
    cfg = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    from ._bfs import budget_mb

    cfg["env_budget_mb"] = budget_mb()
    return cfg


def _emit(args, command, payload, series=None, series_fields=None):
    from . import __version__

    report = {
        "command": command,
        "config": _config_dict(args),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "report": payload,
    }
    text = json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        if series:
            base, _ = os.path.splitext(args.out)
            with open(base + ".csv", "w", newline="") as fh:
                w = csv.DictWriter(fh, fieldnames=series_fields, extrasaction="ignore")
                w.writeheader()
                w.writerows(series)
    else:
        sys.stdout.write(text)


def _descriptor(text):
    from .matgroups import GroupDescriptor

    return GroupDescriptor.parse(text)


def _load_gens(desc, source, what="--gens"):
    """`sampled:k:seed` or `file:path` -> GeneratingSet."""
    from .errors import DescriptorMismatch, UsageError
    from .matgroups import ops_for
    from .skcompiler import GeneratingSet, sample_generating_set

    if source.startswith("sampled:"):
        parts = source.split(":")
        if len(parts) != 3:
            raise UsageError(f"{what} sampled form is sampled:k:seed, got {source!r}")
        try:
            k, seed = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise UsageError(f"non-integer fields in {source!r}") from exc
        return sample_generating_set(desc, k, seed)
    if source.startswith("file:"):
        path = source[5:]
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path!r} is not JSON: {exc}") from exc
        if obj.get("group") != desc.describe():
            raise DescriptorMismatch(
                f"generating set in {path!r} is for {obj.get('group')!r}, "
                f"not {desc.describe()!r}"
            )
        ops = ops_for(desc)
        elems = [ops.deserialize(raw) for raw in obj["elements"]]
        return GeneratingSet(desc, elems, source=f"file:{path}")
    raise UsageError(f"{what} must be sampled:k:seed or file:path, got {source!r}")


def _load_target(desc, spec, seed):
    from .errors import UsageError
    from .matgroups import ops_for
    from .nottingham import parse_series

    import numpy as np

    ops = ops_for(desc)
    if spec == "sampled":
        return ops.sample_uniform(np.random.default_rng(seed))
    if spec.startswith("file:"):
        path = spec[5:]
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read {path!r}: {exc}") from exc
        return ops.deserialize(obj["element"] if isinstance(obj, dict) else obj)
    if desc.family == "Nottingham":
        return parse_series(desc, spec)
    raise UsageError(
        f"--target must be 'sampled', 'file:path', or (Nottingham only) a "
        f"series like t+2t^3, got {spec!r}"
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args):
    from . import rings, verify

    ring = rings.Ring.parse(args.ring) if args.ring else None
    reports = verify.run(args.suite, seed=args.seed, scale=args.scale, ring=ring)
    ok = all(r["passed"] for r in reports)
    _emit(args, "verify", {"suites": reports, "passed": ok})
    return 0 if ok else 1


def cmd_compile(args):
    from .matgroups import ops_for
    from .skcompiler import CompilePlan, build_base_table, compile_element

    desc = _descriptor(args.group)
    ops = ops_for(desc)
    gens = _load_gens(desc, args.gens)
    plan = CompilePlan(args.plan, n0=args.n0)
    target = _load_target(desc, args.target, args.seed)
    table = build_base_table(desc, plan.n_base(desc), gens)
    word, cert = compile_element(target, args.level, table, plan)
    _emit(args, "compile", {
        "group": desc.describe(),
        "gens_source": gens.source,
        "target": ops.serialize(target),
        "word": word.to_json(),
        "certificate": cert.as_dict(),
    })
    return 0


def cmd_diam(args):
    from .matgroups import ops_for
    from .spectral import diameter_bfs

    desc = _descriptor(args.group)
    ops = ops_for(desc)
    gens = _load_gens(desc, args.gens)
    d = diameter_bfs(ops, list(gens.elements))
    _emit(args, "diam", {
        "group": desc.describe(),
        "gens_source": gens.source,
        "set_size": len(gens),
        "order": ops.group_order(),
        "diameter": int(d),
    })
    return 0


def cmd_spectral(args):
    from .matgroups import ops_for
    from .spectral import spectral_report

    desc = _descriptor(args.group)
    ops = ops_for(desc)
    gens = _load_gens(desc, args.gens)
    rep = spectral_report(
        ops, list(gens.elements), l_max=args.l,
        adjoin_identity=not args.bare,
    )
    payload = {"group": desc.describe(), "gens_source": gens.source}
    payload.update(rep.as_dict())
    series = []
    for l, dev in enumerate(rep.profile):
        row = {"l": l, "deviation": float(dev)}
        if rep.exact_profile:
            row["deviation_exact"] = str(dev)
        series.append(row)
    fields = ["l", "deviation"] + (["deviation_exact"] if rep.exact_profile else [])
    _emit(args, "spectral", payload, series=series, series_fields=fields)
    return 0


def cmd_walk(args):
    from .matgroups import ops_for
    from .spectral import (build_graph, check_walk_sizes, walk_series,
                           walk_statistics)

    check_walk_sizes(args.l, args.trials)
    desc = _descriptor(args.group)
    ops = ops_for(desc)
    gens = _load_gens(desc, args.gens)
    graph = build_graph(ops, list(gens.elements))
    rep = walk_series(
        ops, list(gens.elements), l_max=args.l, trials=args.trials,
        seed=args.seed, graph=graph,
    )
    payload = {"group": desc.describe(), "gens_source": gens.source}
    payload.update({k: v for k, v in rep.items() if k != "rows"})
    payload["rows"] = rep["rows"]
    if args.stats_coords:
        stats = walk_statistics(
            ops, list(gens.elements), trials=args.trials,
            coordinates=args.stats_coords, seed=args.seed, graph=graph,
        )
        payload["statistics"] = stats.as_dict()
    fields = ["l", "sup_dev_mc", "tv_mc"] + (
        ["sup_dev_exact", "tv_exact"] if rep["exact"] else []
    )
    _emit(args, "walk", payload, series=rep["rows"], series_fields=fields)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    from . import __version__

    ap = argparse.ArgumentParser(
        prog="prosk",
        description=(
            "Compile congruence-quotient elements into bounded-length words "
            "and measure filtration, diameter, spectral-gap, and mixing "
            "behaviour.  PROSK_BUDGET_MB caps enumeration memory."
        ),
    )
    ap.add_argument("--version", action="version", version=f"prosk {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, group=True):
        if group:
            p.add_argument("--group", required=True,
                           help="e.g. SL:d=2,Zp:p=3,N=8 or Nottingham,Fq[[t]]:q=5,N=16")
            p.add_argument("--gens", required=True,
                           help="sampled:k:seed or file:path")
        p.add_argument("--seed", type=int, required=True,
                       help="base RNG seed; echoed in the report")
        p.add_argument("--out", help="write JSON here (series also land in .csv)")
        p.add_argument("--threads", type=int,
                       help="cap BLAS/OpenMP workers (best effort)")

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", required=True,
                   help="rings|filtration|lie|nottingham|sk|spectral|all")
    p.add_argument("--ring", help="override the suite's ring, e.g. Fq[[t]]:q=5,N=40")
    p.add_argument("--scale", type=float, default=1.0,
                   help="sample-count multiplier (default 1.0)")
    common(p, group=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compile", help="compile a target into a word")
    p.add_argument("--level", type=int, required=True,
                   help="congruence level n: match the target mod K_n")
    p.add_argument("--plan", default="dyadic", choices=("dyadic", "triadic"))
    p.add_argument("--n0", type=int, help="override the plan's base depth")
    p.add_argument("--target", default="sampled",
                   help="'sampled' (uses --seed), file:path, or a Nottingham "
                        "series like t+2t^3+t^7")
    common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("diam", help="exact Cayley-graph diameter (BFS)")
    common(p)
    p.set_defaults(func=cmd_diam)

    p = sub.add_parser("spectral", help="gap, diameter, and mixing profile")
    p.add_argument("--l", type=int, default=50, help="profile length (default 50)")
    p.add_argument("--bare", action="store_true",
                   help="walk on S u S^-1 without adjoining the identity")
    common(p)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("walk", help="Monte Carlo distance-to-uniform series")
    p.add_argument("--l", type=int, default=200, help="number of steps (default 200)")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--stats-coords",
                   help="also run coordinate statistics at the mixing schedule: "
                        "FirstKind | SecondKind | NottinghamCoeffs")
    common(p)
    p.set_defaults(func=cmd_walk)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "threads", None):
        _thread_env(args.threads)

    from .errors import BudgetExceeded, ProskError, UsageError

    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 3
    except ProskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
