"""The registry of self-checks that ``gwlab verify`` runs.

Each check names the structural fact it tests, the constructions it applies
to, and a per-run function that turns one (realization, trajectory) pair
into named counts and violation details.  ``gwlab verify`` sums one check
over many seeded runs; the acceptance tests feed their corpora through the
same functions.

A per-run function returns outcomes keyed by check name and may answer
several checks at once: the three audits share one ``audit_lemmas`` call.
The analysis functions are looked up as module globals at call time, so a
caller can rebind them (tracing, test shims).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .analysis import (
    audit_lemmas,
    check_cluster_consecutive,
    check_indented_entry,
    check_povratak,
    check_reduced_alignment,
    compute_Dx,
    extract_UV_sequences,
    validate_dx_record,
)
from .processes import (
    CONSTRUCTIONS,
    INTERSECTING_INDEPENDENT,
    PARALLEL_CONSTRUCTIONS,
    PARALLEL_DUPLICATED,
    PARALLEL_SHIFTED,
    PARALLEL_THINNED,
    SINGLE_POISSON,
    Realization,
)
from .walk import Trajectory, run_walk_naive, trajectories_equal


@dataclass
class Outcome:
    """What one check saw on one run, or summed over runs.

    counts are the named counts verify prints, in print order; checks is
    the check total of its PASS/FAIL line; details hold one dict per
    violation, with the spec dict and seed of its run.
    """

    counts: dict[str, int]
    checks: int = 0
    details: list = field(default_factory=list)

    @property
    def violations(self) -> int:
        return len(self.details)

    def __iadd__(self, other: "Outcome") -> "Outcome":
        for k, v in other.counts.items():
            self.counts[k] += v
        self.checks += other.checks
        self.details += other.details
        return self


@dataclass(frozen=True)
class Check:
    """One verify suite; fields names the counts it prints, in order."""

    name: str
    constructions: tuple[str, ...]
    description: str
    fields: tuple[str, ...]
    per_run: Callable[[Realization, Trajectory], dict[str, Outcome]]

    def empty(self) -> Outcome:
        return Outcome(dict.fromkeys(self.fields, 0))


def _where(real: Realization, **detail) -> dict:
    """detail plus what rebuilds the run: its spec dict and seed."""
    return {"spec": real.spec.to_dict(), "seed": real.seed, **detail}


_AUDITS = (
    ("lemma-distance", "pair-distance", "pair_checks"),
    ("lemma-replay", "replay-max", "replay_checks"),
    ("empty-interval", "empty-interval", "empty_interval_checks"),
)


def _audits(real, traj):
    audit = audit_lemmas(real, traj)
    out = {}
    for name, kind, counter in _AUDITS:
        bad = [_where(real, **v) for v in audit.violations
               if v["kind"] == kind]
        n = getattr(audit, counter)
        out[name] = Outcome({"checks": n, "violations": len(bad)}, n, bad)
    return out


def _dx_bounds(real, traj):
    dx = compute_Dx(real, traj, real.base_points[real.base_points > 0.0])
    bad = [_where(real, x=x, problem=p)
           for x, p in validate_dx_record(real.spec.construction, dx)]
    n = int(dx.decided.sum())
    return {"dx-bounds": Outcome({"records": n, "violations": len(bad)}, n, bad)}


def _povratak(real, traj):
    s = check_povratak(real, traj)
    bad = [_where(real, **d) for d in s.violation_details]
    return {"povratak": Outcome(
        {"occurrences": s.occurrences, "violations": s.violations,
         "unknowns": s.unknowns},
        s.occurrences, bad)}


def _cluster_traversal(real, traj):
    consec = check_cluster_consecutive(real, traj)
    aligned = check_reduced_alignment(real, traj)
    counts = {"ok": 0, "undecided": 0, "violations": 0}
    bad = []
    if consec is False or not aligned:
        counts["violations"] = 1
        bad.append(_where(real, consecutive=consec, aligned=aligned))
    elif consec is None:
        counts["undecided"] = 1
    else:
        counts["ok"] = 1
    return {"cluster-traversal": Outcome(counts, 1, bad)}


def _indented_entry(real, traj):
    s = check_indented_entry(real, traj)
    bad = [_where(real, **d) for d in s.violation_details]
    return {"indented-entry": Outcome(
        {"indented_lead_entries": s.entries, "violations": len(bad),
         "undecided": s.undecided, "early_exits": s.early_exits},
        s.entries, bad)}


def _uv_verdicts(real, traj):
    records = extract_UV_sequences(traj)
    bad = [_where(real, n=rec.n) for rec in records if rec.verdict == "C"]
    return {"uv-verdicts": Outcome(
        {"records": len(records), "B": len(records) - len(bad), "C": len(bad)},
        len(records), bad)}


def _oracle(real, traj):
    same = trajectories_equal(traj, run_walk_naive(real))
    bad = [] if same else [_where(real)]
    return {"oracle-equivalence": Outcome({"mismatches": len(bad)}, 1, bad)}


_SINGLE_AND_PARALLEL = (SINGLE_POISSON,) + PARALLEL_CONSTRUCTIONS

CHECKS = {c.name: c for c in (
    Check("lemma-distance", PARALLEL_CONSTRUCTIONS,
          "close cross-line pairs must lose a member once straddled",
          ("checks", "violations"), _audits),
    Check("lemma-replay", _SINGLE_AND_PARALLEL,
          "steps into swept territory must hit the largest alive shadow",
          ("checks", "violations"), _audits),
    Check("empty-interval", _SINGLE_AND_PARALLEL,
          "killing the last copy at a crossed shadow leaves no alive site "
          "above it up to and including the running max",
          ("checks", "violations"), _audits),
    Check("dx-bounds", (PARALLEL_THINNED, PARALLEL_SHIFTED),
          "deficiency records stay within their per-construction bounds",
          ("records", "violations"), _dx_bounds),
    Check("povratak", (PARALLEL_THINNED, PARALLEL_SHIFTED),
          "every occurred gap event returns to the negative half-axis before "
          "passing the gap",
          ("occurrences", "violations", "unknowns"), _povratak),
    Check("cluster-traversal", (PARALLEL_DUPLICATED,),
          "entered non-zero clusters are swallowed whole, lead to lead",
          ("ok", "undecided", "violations"), _cluster_traversal),
    Check("indented-entry", (PARALLEL_SHIFTED,),
          "clusters first entered at their indented leading point are "
          "traversed consecutively",
          ("indented_lead_entries", "violations", "undecided", "early_exits"),
          _indented_entry),
    Check("uv-verdicts", (INTERSECTING_INDEPENDENT,),
          "landmark pairs never produce a C verdict at a finite step",
          ("records", "B", "C"), _uv_verdicts),
    Check("oracle-equivalence", CONSTRUCTIONS,
          "optimized walk engine matches the exhaustive-scan engine step "
          "for step",
          ("mismatches",), _oracle),
)}


def run_checks(real: Realization, traj: Trajectory,
               names) -> dict[str, Outcome]:
    """Outcomes of the named checks on one run; checks that share a per-run
    function share one call of it."""
    out: dict[str, Outcome] = {}
    for name in names:
        if name not in out:
            out.update(CHECKS[name].per_run(real, traj))
    return {name: out[name] for name in names}
