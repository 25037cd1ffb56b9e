"""Spans around the calls into gwlab's public functions, for a traced pass.

While ``traced(recorder)`` is active, every binding of a traced function in
a ``gwlab`` module namespace is replaced by a wrapper that records a span
(start, end, parent) and the work the call did, then restored on exit.  The
program itself is not changed: the spans live in this file, at the layer
boundaries the CLI paths cross.  A span's self time is its duration minus
the part its child spans cover, so nested calls (``check_povratak`` calling
``detect_A_events``) are counted once.

``geometry`` has no hot public call and is folded into its callers;
``seeding.stream_seed`` is folded into ``processes.generate``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _audit_checks(res, args, kwargs):
    return {"checks": res.pair_checks + res.replay_checks
            + res.empty_interval_checks}


def _event_counts(res, args, kwargs):
    return {"records": len(res),
            "decided": sum(1 for r in res if r.occurred is not None)}


def _povratak_counts(res, args, kwargs):
    return {"occurrences": res.occurrences, "unknowns": res.unknowns}


def _binary_bytes(res, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _written_bytes(res, args, kwargs):
    return {"bytes": sum(os.path.getsize(p) for p in res.values())}


# module -> function -> (metric group, work counted from the result)
TRACED = {
    "gwlab.seeding": {"stream_seed": ("processes.generate", None)},
    "gwlab.processes": {
        "generate": ("processes.generate",
                     lambda r, a, k: {"points": r.n_points}),
    },
    "gwlab.walk": {
        "run_walk": ("walk.run_walk", lambda r, a, k: {"steps": len(r)}),
        "trajectory_to_binary": ("walk.trajectory_to_binary", _binary_bytes),
    },
    "gwlab.analysis": {
        "audit_lemmas": ("analysis.audit_lemmas", _audit_checks),
        "detect_A_events": ("analysis.detect_A_events", _event_counts),
        "last_visit_steps": ("analysis.compute_Dx", None),
        # a call that raises PrefixLimitError counts as undecided
        "compute_Dx": ("analysis.compute_Dx", lambda r, a, k: {"decided": 1}),
        "validate_dx_record": ("analysis.compute_Dx", None),
        "check_povratak": ("analysis.check_povratak", _povratak_counts),
        "check_cluster_consecutive": ("analysis.clusters", None),
        "check_reduced_alignment": ("analysis.clusters", None),
        "detect_crossings": ("analysis.summary", None),
        "extract_halfline_changes": ("analysis.summary", None),
    },
    "gwlab.experiments": {
        "aggregate": ("experiments.aggregate", None),
        "write_outputs": ("experiments.write_outputs", _written_bytes),
    },
}


class Recorder:
    """Spans of one traced pass, aggregated as they close."""

    def __init__(self):
        self.busy = defaultdict(float)   # group -> self seconds
        self.counts = Counter()          # "group.what" -> count
        self.walk_call_s: list[float] = []
        self.top_level_s = 0.0           # time covered by outermost spans
        self._stack: list[list[float]] = []

    def span(self, fn, func_name, group, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self._stack.pop()
                self.busy[group] += dur - children[0]
                if self._stack:
                    self._stack[-1][0] += dur
                else:
                    self.top_level_s += dur
                self.counts[f"{group}.calls:{func_name}"] += 1
                if func_name == "run_walk":
                    self.walk_call_s.append(dur)
            if count is not None:
                for k, v in count(result, args, kwargs).items():
                    self.counts[f"{group}.{k}"] += v
            return result

        return wrapper


@contextlib.contextmanager
def traced(rec: Recorder):
    """Bind every traced gwlab function to a span wrapper for the block."""
    originals = {}
    for mod_name, funcs in TRACED.items():
        mod = sys.modules[mod_name]
        for name, (group, count) in funcs.items():
            fn = getattr(mod, name)
            originals[fn] = rec.span(fn, name, group, count)
    patched = []
    try:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gwlab"
                                   or mod_name.startswith("gwlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, value))
        yield rec
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics


def _calls(rec: Recorder, group: str, func: str) -> int:
    return rec.counts[f"{group}.calls:{func}"]


def _ratio(num: float, den: float) -> float:
    """num/den; 0.0 where the layer did not run (den == 0)."""
    return num / den if den else 0.0


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    k = max(1, -(-len(sorted_values) * q // 100))  # ceil(n*q/100)
    return sorted_values[int(k) - 1]


# name -> (unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "processes.generate.calls": ("count", "lower"),
    "processes.generate.points": ("count", "lower"),
    "processes.generate.busy_ms": ("ms", "lower"),
    "processes.generate.us_per_point": ("us", "lower"),
    "walk.run_walk.calls": ("count", "lower"),
    "walk.run_walk.steps": ("count", "higher"),
    "walk.run_walk.busy_ms": ("ms", "lower"),
    "walk.run_walk.us_per_step": ("us", "lower"),
    "walk.run_walk.call_ms_p50": ("ms", "lower"),
    "walk.run_walk.call_ms_p99": ("ms", "lower"),
    "walk.run_walk.call_samples": ("count", "higher"),
    "walk.visited_frac": ("ratio", "higher"),
    "walk.trajectory_to_binary.busy_ms": ("ms", "lower"),
    "walk.trajectory_to_binary.bytes": ("B", "lower"),
    "analysis.audit_lemmas.busy_ms": ("ms", "lower"),
    "analysis.audit_lemmas.checks": ("count", "higher"),
    "analysis.audit_lemmas.us_per_check": ("us", "lower"),
    "analysis.detect_A_events.busy_ms": ("ms", "lower"),
    "analysis.detect_A_events.records": ("count", "higher"),
    "analysis.detect_A_events.decided_frac": ("ratio", "higher"),
    "analysis.compute_Dx.calls": ("count", "lower"),
    "analysis.compute_Dx.busy_ms": ("ms", "lower"),
    "analysis.compute_Dx.decided_frac": ("ratio", "higher"),
    "analysis.check_povratak.busy_ms": ("ms", "lower"),
    "analysis.check_povratak.occurrences": ("count", "higher"),
    "analysis.check_povratak.unknown_frac": ("ratio", "lower"),
    "analysis.clusters.busy_ms": ("ms", "lower"),
    "analysis.summary.busy_ms": ("ms", "lower"),
    "experiments.aggregate.busy_ms": ("ms", "lower"),
    "experiments.write_outputs.busy_ms": ("ms", "lower"),
    "experiments.write_outputs.bytes": ("B", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
    "trace.passes": ("count", "higher"),
}


def pass_counts(rec: Recorder) -> dict[str, int]:
    """The work counts of one pass; identical inputs give identical counts."""
    return dict(sorted(rec.counts.items()))


def layer_metrics(recs: list[Recorder], traced_walls: list[float],
                  untraced_walls: list[float]) -> dict[str, float]:
    """Per-pass layer numbers: counts of the first traced pass, busy times
    and ratios as medians over the traced passes."""
    first = recs[0]
    c = first.counts

    def busy_ms(group):
        return statistics.median(r.busy[group] for r in recs) * 1e3

    gen_calls = _calls(first, "processes.generate", "generate")
    points = c["processes.generate.points"]
    walk_calls = _calls(first, "walk.run_walk", "run_walk")
    steps = c["walk.run_walk.steps"]
    checks = c["analysis.audit_lemmas.checks"]
    records = c["analysis.detect_A_events.records"]
    dx_calls = _calls(first, "analysis.compute_Dx", "compute_Dx")
    occ = c["analysis.check_povratak.occurrences"]
    walk_s = sorted(s for r in recs for s in r.walk_call_s)
    m = {
        "processes.generate.calls": gen_calls,
        "processes.generate.points": points,
        "processes.generate.busy_ms": busy_ms("processes.generate"),
        "processes.generate.us_per_point": _ratio(
            busy_ms("processes.generate") * 1e3, points),
        "walk.run_walk.calls": walk_calls,
        "walk.run_walk.steps": steps,
        "walk.run_walk.busy_ms": busy_ms("walk.run_walk"),
        "walk.run_walk.us_per_step": _ratio(busy_ms("walk.run_walk") * 1e3,
                                            steps),
        "walk.run_walk.call_ms_p50": _nearest_rank(walk_s, 50) * 1e3,
        "walk.run_walk.call_ms_p99": _nearest_rank(walk_s, 99) * 1e3,
        "walk.run_walk.call_samples": len(walk_s),
        "walk.visited_frac": _ratio(steps, points),
        "walk.trajectory_to_binary.busy_ms": busy_ms(
            "walk.trajectory_to_binary"),
        "walk.trajectory_to_binary.bytes": c["walk.trajectory_to_binary.bytes"],
        "analysis.audit_lemmas.busy_ms": busy_ms("analysis.audit_lemmas"),
        "analysis.audit_lemmas.checks": checks,
        "analysis.audit_lemmas.us_per_check": _ratio(
            busy_ms("analysis.audit_lemmas") * 1e3, checks),
        "analysis.detect_A_events.busy_ms": busy_ms("analysis.detect_A_events"),
        "analysis.detect_A_events.records": records,
        "analysis.detect_A_events.decided_frac": _ratio(
            c["analysis.detect_A_events.decided"], records),
        "analysis.compute_Dx.calls": dx_calls,
        "analysis.compute_Dx.busy_ms": busy_ms("analysis.compute_Dx"),
        "analysis.compute_Dx.decided_frac": _ratio(
            c["analysis.compute_Dx.decided"], dx_calls),
        "analysis.check_povratak.busy_ms": busy_ms("analysis.check_povratak"),
        "analysis.check_povratak.occurrences": occ,
        "analysis.check_povratak.unknown_frac": _ratio(
            c["analysis.check_povratak.unknowns"], occ),
        "analysis.clusters.busy_ms": busy_ms("analysis.clusters"),
        "analysis.summary.busy_ms": busy_ms("analysis.summary"),
        "experiments.aggregate.busy_ms": busy_ms("experiments.aggregate"),
        "experiments.write_outputs.busy_ms": busy_ms(
            "experiments.write_outputs"),
        "experiments.write_outputs.bytes": c["experiments.write_outputs.bytes"],
        "trace.overhead_frac": (statistics.median(traced_walls)
                                / statistics.median(untraced_walls) - 1.0),
        "trace.unattributed_frac": statistics.median(
            1.0 - r.top_level_s / wall for r, wall in zip(recs, traced_walls)),
        "trace.passes": len(recs),
    }
    return m
