"""In-memory span tracer for the benchmark's traced mode.

The benchmark wraps public callables of `prosk` at module or class level
(see `instrument`) without editing the library.  Every wrapped call opens a
span: name, start, end, parent span and optional counts.  Per-name aggregates
(calls, self time, summed counts) are kept for every span; the span records
themselves are kept in memory up to `max_spans` and written as JSON lines by
`write_jsonl` when the run ends.

Self time of a span is its duration minus the time covered by its child
spans.  While `paused()` is active (the benchmark's output checks) the
wrappers call straight through, so checking work never reaches the layer
numbers.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self, max_spans=100_000):
        self.on = True
        self.max_spans = max_spans
        self.spans = []  # (id, parent id, name, start, end, counts)
        self.dropped = 0
        self.stats = {}  # name -> {"calls", "self_s", <count>...}
        self._stack = []  # [span id, name, start, child seconds]
        self._next_id = 0

    @contextmanager
    def paused(self):
        prev, self.on = self.on, False
        try:
            yield
        finally:
            self.on = prev

    def call(self, name, fn, args, kwargs, count):
        """Run fn(*args, **kwargs) inside a span named `name`; `count`, if
        given, maps (args, kwargs, result) to a dict of counts."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, name, _clock(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            dur = end - frame[2]
            if self._stack:
                self._stack[-1][3] += dur
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = {"calls": 0, "self_s": 0.0}
            st["calls"] += 1
            st["self_s"] += dur - frame[3]
        counts = count(args, kwargs, result) if count is not None else None
        if counts:
            for k, v in counts.items():
                st[k] = st.get(k, 0) + v
        if len(self.spans) < self.max_spans:
            self.spans.append((sid, parent, name, frame[2], end, counts))
        else:
            self.dropped += 1
        return result

    def add(self, name, **counts):
        """Add counts to a name without opening a span."""
        st = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        for k, v in counts.items():
            st[k] = st.get(k, 0) + v

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, counts in self.spans:
                row = {"id": sid, "parent": parent, "name": name,
                       "start": start, "end": end}
                if counts:
                    row["counts"] = counts
                fh.write(json.dumps(row) + "\n")
            fh.write(json.dumps({"dropped_spans": self.dropped,
                                 "kept_spans": len(self.spans)}) + "\n")


def _wrap(tracer, name, fn, count=None):
    def wrapper(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, args, kwargs, count)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _patch(tracer, owner, attr, name, count=None):
    setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr), count))


def instrument(tracer):
    """Wrap the layer boundaries the per-layer metrics are read from.

    Module-level functions are replaced in their module's namespace, so calls
    from inside the library (which look the name up at call time) are seen
    too; methods are replaced on the class, so every instance is seen.
    """
    from prosk import _bfs, matgroups, nottingham, skcompiler, spectral

    _patch(tracer, skcompiler, "evaluate", "skcompiler.evaluate",
           lambda a, k, r: {"letters": len(a[0])})
    _patch(tracer, skcompiler.CompilerSession, "compile",
           "skcompiler.CompilerSession.compile")

    for meth in ("mul", "inv", "key"):
        _patch(tracer, matgroups.MatrixOps, meth, f"matgroups.MatrixOps.{meth}")
    _patch(tracer, matgroups.MatrixOps, "oracle", "liealg.oracle")

    for meth in ("mul", "inv", "oracle", "power_matrix", "eval_apply"):
        _patch(tracer, nottingham.NottinghamOps, meth,
               f"nottingham.NottinghamOps.{meth}")
    for meth in ("mul", "compose", "solve_right"):
        _patch(tracer, nottingham.SeriesContext, meth,
               f"nottingham.SeriesContext.{meth}")

    _patch(tracer, _bfs, "build_table", "bfs.build_table",
           lambda a, k, r: {"states": r.count})
    _patch(tracer, _bfs.ShortestWordTable, "word_for",
           "bfs.ShortestWordTable.word_for")

    _patch(tracer, spectral, "build_graph", "spectral.build_graph",
           lambda a, k, r: {"vertices": r.order, "edges": r.perms.size})
    _patch(tracer, spectral.CayleyGraph, "walk_matvec",
           "spectral.CayleyGraph.walk_matvec")

    gap = spectral.spectral_gap

    def gap_counted(graph, *args, **kwargs):
        # matvecs are the walk_matvec calls made inside this gap solve
        before = tracer.stats.get("spectral.CayleyGraph.walk_matvec",
                                  {}).get("calls", 0)
        out = gap(graph, *args, **kwargs)
        after = tracer.stats.get("spectral.CayleyGraph.walk_matvec",
                                 {}).get("calls", 0)
        tracer.add("spectral.spectral_gap", matvecs=after - before)
        return out

    spectral.spectral_gap = _wrap(tracer, "spectral.spectral_gap", gap_counted)
    _patch(tracer, spectral, "mixing_profile", "spectral.mixing_profile")
    _patch(tracer, spectral, "walk_series", "spectral.walk_series",
           lambda a, k, r: {"trial_steps": r["trials"] * r["l_max"]})
    _patch(tracer, spectral, "monotonicity_exhaustive",
           "spectral.monotonicity_exhaustive",
           lambda a, k, r: {"sets_checked": r["checked"]})
    _patch(tracer, spectral, "worst_case_diameter",
           "spectral.worst_case_diameter",
           lambda a, k, r: {"sets_examined": r.examined})
    _patch(tracer, spectral, "all_elements", "spectral.all_elements")
