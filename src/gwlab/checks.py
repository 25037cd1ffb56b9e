"""The registry of self-checks that ``gwlab verify`` runs.

Each check names the structural fact it tests, the constructions it applies
to, and a per-run function that turns one (realization, trajectory) pair
into the one Outcome of its suite.  Only the per-run function names a
check's counts, and their order is the order verify prints them in.
``gwlab verify`` sums one check over many seeded runs; the acceptance tests
feed their corpora through the same functions, except that criterion 8
reads the lemma audits from ``audit_lemmas`` directly, once per run.

The analysis functions are looked up as module globals at call time, so a
caller can rebind them (tracing, test shims).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable

from .analysis import (
    audit_lemmas,
    check_cluster_consecutive,
    check_indented_entry,
    check_povratak,
    check_reduced_alignment,
    cluster_visits,
    clusters_of,
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
    violation, with the spec dict and seed of its run.  Outcome() is the
    empty sum: += adds counts by name, keeping the first-seen order.
    """

    counts: dict[str, int] = field(default_factory=dict)
    checks: int = 0
    details: list = field(default_factory=list)

    @property
    def violations(self) -> int:
        return len(self.details)

    def __iadd__(self, other: "Outcome") -> "Outcome":
        for k, v in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + v
        self.checks += other.checks
        self.details += other.details
        return self


@dataclass(frozen=True)
class Check:
    """One verify suite; its per-run function returns the suite's Outcome
    on one run, whose counts name what verify prints, in print order."""

    name: str
    constructions: tuple[str, ...]
    description: str
    per_run: Callable[[Realization, Trajectory], Outcome]


def _where(real: Realization, **detail) -> dict:
    """detail plus what rebuilds the run: its spec dict and seed."""
    return {"spec": real.spec.to_dict(), "seed": real.seed, **detail}


def _audit(kind, counter, real, traj):
    """One lemma audit: the checks audit_lemmas counts under `counter` and
    its violations of `kind`."""
    audit = audit_lemmas(real, traj)
    bad = [_where(real, **v) for v in audit.violations if v["kind"] == kind]
    n = getattr(audit, counter)
    return Outcome({"checks": n, "violations": len(bad)}, n, bad)


def _dx_bounds(real, traj):
    dx = compute_Dx(real, traj, real.base_points[real.base_points > 0.0])
    bad = [_where(real, x=x, problem=p)
           for x, p in validate_dx_record(real.spec.construction, dx)]
    n = int(dx.decided.sum())
    return Outcome({"records": n, "violations": len(bad)}, n, bad)


def _povratak(real, traj):
    s = check_povratak(real, traj)
    bad = [_where(real, **d) for d in s.violation_details]
    return Outcome({"occurrences": s.occurrences, "violations": s.violations,
                    "unknowns": s.unknowns}, s.occurrences, bad)


# The traversal verdict alone sets the counts.  Unless it is False, each
# entered non-zero cluster is one block of consecutive steps that enters
# and, if finished, leaves at its lead, so every step between clusters
# leaves from or lands on a lead or the zero cluster: the alignment check
# holds, and it runs only to fill a violation's detail.  None and False
# need an entered non-zero cluster; True holds vacuously on a walk that
# entered none, and such a run checked nothing.
_TRAVERSAL_COUNT = {True: "ok", None: "undecided", False: "violations"}


def _cluster_traversal(real, traj):
    consec = check_cluster_consecutive(real, traj)
    counts = dict.fromkeys(_TRAVERSAL_COUNT.values(), 0)
    if consec is True:
        dec = clusters_of(real)
        if not (cluster_visits(dec, traj).entered & dec.nonzero()).any():
            return Outcome(counts, 0, [])
    counts[_TRAVERSAL_COUNT[consec]] = 1
    bad = [] if consec is not False else [_where(
        real, consecutive=False, aligned=check_reduced_alignment(real, traj))]
    return Outcome(counts, 1, bad)


def _indented_entry(real, traj):
    s = check_indented_entry(real, traj)
    bad = [_where(real, **d) for d in s.violation_details]
    return Outcome({"indented_lead_entries": s.entries, "violations": len(bad),
                    "undecided": s.undecided, "early_exits": s.early_exits},
                   s.entries, bad)


def _uv_verdicts(real, traj):
    records = extract_UV_sequences(traj)
    bad = [_where(real, **asdict(r)) for r in records if r.verdict == "C"]
    return Outcome(
        {"records": len(records), "B": len(records) - len(bad), "C": len(bad)},
        len(records), bad)


def _oracle(real, traj):
    naive = run_walk_naive(real)
    if trajectories_equal(traj, naive):
        return Outcome({"mismatches": 0}, 1, [])
    # the first 1-based step where the walks part, or one past the shorter
    a, b = (list(zip(t.us, t.lines, t.step_distances)) for t in (traj, naive))
    step = next((i for i, (x, y) in enumerate(zip(a, b), 1) if x != y),
                min(len(a), len(b)) + 1)
    return Outcome({"mismatches": 1}, 1, [_where(real, step=step)])


_SINGLE_AND_PARALLEL = (SINGLE_POISSON,) + PARALLEL_CONSTRUCTIONS

CHECKS = {c.name: c for c in (
    Check("lemma-distance", PARALLEL_CONSTRUCTIONS,
          "close cross-line pairs must lose a member once straddled",
          partial(_audit, "pair-distance", "pair_checks")),
    Check("lemma-replay", _SINGLE_AND_PARALLEL,
          "steps into swept territory must hit the largest alive shadow",
          partial(_audit, "replay-max", "replay_checks")),
    Check("empty-interval", _SINGLE_AND_PARALLEL,
          "killing the last copy at a crossed shadow leaves no alive site "
          "above it up to and including the running max",
          partial(_audit, "empty-interval", "empty_interval_checks")),
    Check("dx-bounds", (PARALLEL_THINNED, PARALLEL_SHIFTED),
          "deficiency records stay within their per-construction bounds",
          _dx_bounds),
    Check("povratak", (PARALLEL_THINNED, PARALLEL_SHIFTED),
          "every occurred gap event returns to the negative half-axis before "
          "passing the gap", _povratak),
    Check("cluster-traversal", (PARALLEL_DUPLICATED,),
          "entered non-zero clusters are swallowed whole, lead to lead",
          _cluster_traversal),
    Check("indented-entry", (PARALLEL_SHIFTED,),
          "clusters first entered at their indented leading point are "
          "traversed consecutively", _indented_entry),
    Check("uv-verdicts", (INTERSECTING_INDEPENDENT,),
          "landmark pairs never give a C verdict; the greedy rule forbids "
          "one, so this checks the step rule",
          _uv_verdicts),
    Check("oracle-equivalence", CONSTRUCTIONS,
          "optimized walk engine matches the exhaustive-scan engine step "
          "for step", _oracle),
)}
