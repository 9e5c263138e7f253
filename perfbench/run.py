#!/usr/bin/env python3
"""prosk benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload compile-zp --seed 1 --seconds 15 --trace 0

Runs from the root of a prosk source tree and imports the library from its
`src/`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it name
every metric with its unit and direction, the environment, and any failed
check.  `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer metrics (and writes the spans to perfbench/out/).  The exit code
is 1 when an output check fails and 2 when the tree holds no library.

Each measured run: imports, then `setup_reps` set-ups from the seed (the
median is `setup_s`), then whole cycles of jobs: at least `min_cycles`, and
more while the next one is expected to end within `--seconds`.  Every cycle
repeats the same jobs, so the latency mix does not depend on how many cycles
fit.  Every job's output is checked after its timer stops; checking is
never part of a job's time.

Times are calibrated.  On a shared host the speed of interpreter-bound
code drifts by up to 1.7x, within seconds and over tens of seconds, and the
two cores drift independently.  So a timer signal runs a tiny fixed
pure-Python probe 20 times a second in this process, and each timed block's
wall time is scaled by the block's mean probe speed (PROBE_REF_S over the
probe time) to the power of the workload's `speed_exponent`.  A change to
prosk moves the block but not the probe; a busier host moves both.  The
uncalibrated wall times are printed next to them.
"""

import os
import sys
import time

_T0 = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREADS = "1"  # <= nproc; one BLAS/OpenMP thread keeps timings steady
BUDGET_MB = "1024"  # the default the code uses (the README says 512)
HARD_CAP_S = 120.0  # stop measuring here even if min_cycles did not finish
PROBE_REF_S = 1.5e-4  # probe time that calibrated times are scaled to

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = THREADS
os.environ["PROSK_BUDGET_MB"] = BUDGET_MB

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import namedtuple  # noqa: E402
from contextlib import nullcontext  # noqa: E402


def _fail_setup(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (no git)"


def _pct(values, q):
    """The q-th percentile as the smallest value with at least q% of the
    values at or below it.  Every cycle adds the same jobs, so this picks
    the same job whatever the number of cycles."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q,
                               method="inverted_cdf"))


def _latency_pct(wl, jobs, q, field="seconds"):
    """The q-th percentile of job latency in ms.  On a workload with a
    fixed job mix it is taken over each job's best time in the run, with
    linear interpolation; otherwise over every job (see _pct)."""
    import numpy as np

    ms = [getattr(j, field) * 1e3 for j in jobs]
    if not wl.fixed_mix:
        return _pct(ms, q)
    best = {}
    for j, t in zip(jobs, ms):
        best[j.slot] = min(best.get(j.slot, math.inf), t)
    return float(np.percentile(list(best.values()), q))


def _best_rate(jobs, amount, pick=lambda j: True):
    """`amount` (per job) summed over one cycle's picked jobs, over the sum
    of each of those jobs' best time in any cycle.  Every cycle repeats the
    same jobs, and host noise only ever adds time (the reasoning of
    `timeit`)."""
    done, best = {}, {}
    for j in jobs:
        if pick(j):
            done[j.slot] = amount(j)
            best[j.slot] = min(best.get(j.slot, math.inf), j.seconds)
    return sum(done.values()) / sum(best.values())


class Speedometer:
    """Samples the machine's current speed for interpreter-bound code (where
    most of prosk's time goes) with a SIGALRM-driven probe loop.  The
    handler runs between bytecodes, so a long native call delays it."""

    INTERVAL_S = 0.05
    MIN_SAMPLES = 5

    def __init__(self):
        self.samples = []  # (perf_counter at start, probe seconds)
        self.exponent = 1.0  # set to the workload's speed_exponent
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        acc = 0
        for i in range(2000):
            acc += i * i % 7
        self.samples.append((t0, time.perf_counter() - t0))

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def calibrated(self, t0, t1):
        """Wall seconds t1 - t0 scaled to the reference probe speed by the
        probes inside [t0, t1], or else the MIN_SAMPLES nearest ones.  The
        probes are evenly spaced in time, so the mean of their speeds
        (PROBE_REF_S over probe time) is the block's mean speed; the block
        is scaled by that to the power `exponent`."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if len(inside) < self.MIN_SAMPLES:
            mid = (t0 + t1) / 2
            near = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            inside = [d for _, d in near[: self.MIN_SAMPLES]]
        speed = statistics.fmean(PROBE_REF_S / d for d in inside)
        return (t1 - t0) * speed**self.exponent


# per-layer metrics: <module>.<callable> and its stats; bfs stands for
# prosk._bfs, because a metric name cannot start with "_"
LAYER_METRICS = [
    ("skcompiler.evaluate", ("calls", "letters", "self_s")),
    ("skcompiler.CompilerSession.compile", ("calls", "self_s")),
    ("matgroups.MatrixOps.mul", ("calls", "self_s")),
    ("matgroups.MatrixOps.inv", ("calls", "self_s")),
    ("matgroups.MatrixOps.key", ("calls", "self_s")),
    ("liealg.oracle", ("calls", "self_s")),
    ("nottingham.NottinghamOps.mul", ("calls", "self_s")),
    ("nottingham.NottinghamOps.inv", ("calls", "self_s")),
    ("nottingham.NottinghamOps.oracle", ("calls", "self_s")),
    ("nottingham.NottinghamOps.power_matrix", ("calls", "self_s")),
    ("nottingham.NottinghamOps.eval_apply", ("calls", "self_s")),
    ("nottingham.SeriesContext.mul", ("calls", "self_s")),
    ("nottingham.SeriesContext.compose", ("calls", "self_s")),
    ("nottingham.SeriesContext.solve_right", ("calls", "self_s")),
    ("bfs.build_table", ("calls", "states", "self_s")),
    ("bfs.ShortestWordTable.word_for", ("calls", "self_s")),
    ("spectral.build_graph", ("calls", "vertices", "edges", "self_s")),
    ("spectral.spectral_gap", ("calls", "matvecs", "self_s")),
    ("spectral.mixing_profile", ("calls", "self_s")),
    ("spectral.CayleyGraph.walk_matvec", ("calls", "self_s")),
    ("spectral.walk_series", ("trial_steps", "self_s")),
    ("spectral.monotonicity_exhaustive", ("sets_checked", "self_s")),
    ("spectral.worst_case_diameter", ("sets_examined", "self_s")),
    ("spectral.all_elements", ("calls",)),
]

# one finished job: calibrated and wall seconds, output facts, the cycle it
# ran in and its place in the cycle
Done = namedtuple("Done", "kind label seconds wall_s facts meta cycle slot")


class Tally:
    """Attempted and failed output checks, with the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(problems)}")


def compare_facts(facts, want, rho_tol):
    """Problems where `facts` disagree with the recorded reference `want`."""
    problems = []
    for key, ref in want.items():
        got = facts.get(key)
        if key == "rho":
            if got is None or abs(got - ref) > rho_tol:
                problems.append(f"rho {got} != reference {ref} (+-{rho_tol})")
        elif got != ref:
            problems.append(f"{key} {got} != reference {ref}")
    return problems


def _attempt(run):
    try:
        return run(), None
    except Exception as exc:  # a raising job is a failed job, not a crash
        return None, exc


def measure(wl, seed, seconds, tracer, tally, reference, speed=None):
    """Set up, then run whole cycles; returns the run's raw numbers.  With
    a Speedometer the times are calibrated, otherwise they are wall times."""
    import copy

    setups = []  # (start, end) of each set-up
    for rep in range(wl.setup_reps):
        # only the kept (last) set-up reaches the layer numbers
        last = rep == wl.setup_reps - 1
        ctx = (tracer.paused() if tracer is not None and not last
               else nullcontext())
        t0 = time.perf_counter()
        with ctx:
            wl.setup(seed)
        setups.append((t0, time.perf_counter()))

    ref_fixed = reference.get("fixed", {})
    rho_tol = reference.get("rho_tol", 1e-7)
    blocks = []  # (kind, label, start, end, facts, meta, cycle, slot)
    snapshot = None
    cycles = 0
    t_start = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        for slot, job in enumerate(wl.cycle()):
            t0 = time.perf_counter()
            out, err = _attempt(job.run)
            t1 = time.perf_counter()
            ctx = tracer.paused() if tracer is not None else nullcontext()
            with ctx:
                if err is not None:
                    problems, facts = [f"raised {err!r}"], {}
                else:
                    problems, facts = job.check(out)
                    want = ref_fixed.get(job.label)
                    if want:
                        problems += compare_facts(facts, want, rho_tol)
            tally.record(f"{job.kind} {job.label}", problems)
            blocks.append((job.kind, job.label, t0, t1, facts, job.meta,
                           cycles, slot))
        cycles += 1
        if tracer is not None and cycles == wl.min_cycles:
            snapshot = copy.deepcopy(tracer.stats)
        now = time.perf_counter()
        # stop once another cycle like this one would end after `seconds`
        if (cycles >= wl.min_cycles
                and now + (now - t_cycle) - t_start > seconds):
            break
        if now - t_start >= HARD_CAP_S:
            break
    loop_s = time.perf_counter() - t_start
    if speed is not None:
        speed.stop()
        cal = speed.calibrated
    else:
        def cal(t0, t1):
            return t1 - t0
    jobs = [Done(k, lab, cal(t0, t1), t1 - t0, *rest)
            for k, lab, t0, t1, *rest in blocks]
    return {"setups": [(t1 - t0, cal(t0, t1)) for t0, t1 in setups],
            "jobs": jobs, "cycles": cycles, "loop_s": loop_s,
            "snapshot": snapshot, "cal": cal}


def domain_metrics(wl, raw):
    """The workload's own metrics under their domain names:
    (name, value, unit, better, note)."""
    jobs = raw["jobs"]
    out = []
    cycles = raw["cycles"]
    if wl.name.startswith("compile"):
        n = len(jobs)
        out.append(("compile_ms_p50", _latency_pct(wl, jobs, 50), "ms",
                    "lower", f"n={n}"))
        out.append(("compile_ms_p90", _latency_pct(wl, jobs, 90), "ms",
                    "lower", f"n={n}, {n - int(0.9 * n)} beyond p90"))
        out.append(("compiles_per_s", _best_rate(jobs, lambda j: 1),
                    "1/s", "higher", f"best of {cycles} cycles"))
        first = [j.facts["len"] for j in jobs
                 if j.cycle == 0 and "len" in j.facts]
        out.append(("word_len_mean", statistics.fmean(first) if first
                    else float("nan"), "letters", "lower",
                    f"one cycle, n={len(first)}"))
    elif wl.name == "cayley":
        out.append(("reports_per_s", _best_rate(
            jobs, lambda j: 1, lambda j: j.kind == "report"),
            "1/s", "higher", f"best of {cycles} cycles"))
        out.append(("walk_steps_per_s", _best_rate(
            jobs, lambda j: j.meta["trial_steps"], lambda j: j.kind == "walk"),
            "1/s", "higher", f"best of {cycles} walks, graph build in"))
    elif wl.name == "sweep":
        out.append(("sweep_sets_per_s", _best_rate(
            jobs, lambda j: j.facts.get(j.meta["sets"], 0)),
            "1/s", "higher", f"best of {cycles} cycles"))
    return out


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "prosk", "__init__.py")):
        _fail_setup(f"no prosk sources under {os.path.join(ROOT, 'src')}")
    speed = Speedometer()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)

    import numpy as np

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail_setup(f"unknown workload {args.workload!r}; one of "
                    f"{', '.join(workloads.WORKLOADS)}")
    t_imported = time.perf_counter()
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh).get(args.workload, {})

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.instrument(tracer)
    wl = workloads.WORKLOADS[args.workload]()
    tally = Tally()
    speed.exponent = wl.speed_exponent
    raw = measure(wl, args.seed, args.seconds, tracer, tally, reference,
                  speed)

    # a compile cycle's mean word length is an answer too
    named = domain_metrics(wl, raw)
    want_len = reference.get("fixed", {}).get("word_len_mean")
    if want_len is not None:
        got = dict((m[0], m[1]) for m in named)["word_len_mean"]
        tally.record("word_len_mean reference",
                     [] if abs(got - want_len) <= 1e-9 * want_len else
                     [f"{got} != reference {want_len}"])

    jobs = raw["jobs"]
    job_s = [j.seconds for j in jobs]
    wall_s = [j.wall_s for j in jobs]
    setup_s = (raw["cal"](_T0, t_imported)
               + statistics.median(c for _, c in raw["setups"]))
    setup_wall = (t_imported - _T0
                  + statistics.median(w for w, _ in raw["setups"]))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed_frac = tally.failed / tally.attempted

    env = {
        "git_rev": _git_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": THREADS,
        "PROSK_BUDGET_MB": BUDGET_MB,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(f"run cycles={raw['cycles']} jobs={len(jobs)} "
          f"loop_s={raw['loop_s']:.3f} job_wall_s={sum(wall_s):.3f} "
          f"setup_reps={len(raw['setups'])} "
          f"import_s={t_imported - _T0:.3f} probes={len(speed.samples)} "
          f"speed={sum(wall_s) / sum(job_s):.3f} (wall over calibrated)")
    print(f"wall setup_s={setup_wall:.6g} "
          f"job_ms_p50={_latency_pct(wl, jobs, 50, 'wall_s'):.6g} "
          f"job_ms_p90={_latency_pct(wl, jobs, 90, 'wall_s'):.6g} "
          f"jobs_per_s={len(jobs) / sum(wall_s):.6g} (uncalibrated)")
    if len(set(j.slot for j in jobs)) <= 8:
        for slot in sorted(set(j.slot for j in jobs)):
            mine = [j for j in jobs if j.slot == slot]
            print(f"job {mine[0].kind} {mine[0].label!r}: best_ms="
                  f"{min(j.seconds for j in mine) * 1e3:.6g} over "
                  f"{len(mine)} cycle(s)")
    print("note wait_s does not apply: one process, no queue, no workers")
    for msg in tally.messages:
        print("FAILED " + msg)

    if tracer is None:
        named += [
            ("setup_s", setup_s, "s", "lower",
             f"imports + median of {len(raw['setups'])} set-ups"),
            ("peak_rss_mb", rss_mb, "MB", "lower", "ru_maxrss"),
            ("failed_frac", failed_frac, "frac", "lower",
             f"failed={tally.failed} attempted={tally.attempted}"),
        ]
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "success_frac": (1.0 - failed_frac, "frac"),
            "job_ms_p50": (_latency_pct(wl, jobs, 50), "ms"),
            "job_ms_p90": (_latency_pct(wl, jobs, 90), "ms"),
            "jobs_per_s": (_best_rate(jobs, lambda j: 1), "1/s"),
        }
        for name, value, unit, better, note in named:
            print(f"metric {name} = {value:.6g} {unit} ({better} is better; "
                  f"{note})")
    else:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out",
                            f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(path)
        stats = raw["snapshot"] or tracer.stats
        metrics = {}
        for name, stats_wanted in LAYER_METRICS:
            st = stats.get(name, {})
            for stat in stats_wanted:
                unit = "s" if stat == "self_s" else "count"
                metrics[f"{name}.{stat}"] = (st.get(stat, 0), unit)
        metrics["bench.jobs_per_s_traced"] = (
            _best_rate(jobs, lambda j: 1), "1/s")
        print(f"trace spans={len(tracer.spans)} dropped={tracer.dropped} "
              f"file={os.path.relpath(path, ROOT)}; layer numbers cover the "
              f"kept set-up and the first {wl.min_cycles} cycle(s)")
    for name, (value, unit) in metrics.items():
        print(f"layer {name} = {value} {unit}" if tracer is not None else
              f"e2e {name} = {value:.6g} {unit}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
