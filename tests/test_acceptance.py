"""Full-scale acceptance checks.

Ten end-to-end criteria, each printing one line

    criterion N: PASS - <detail>   (or FAIL)

before asserting the same condition; run with ``pytest -s`` to watch
them.  The corpora built for criteria 1-7 also feed a shared tally of
structural audits and deficiency-bound sweeps, which criterion 8
re-checks for violations.  Scales are fixed, so the whole file costs a
few minutes of CPU; everything is seeded and bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from gwlab import (
    INTERSECTING_INDEPENDENT,
    PARALLEL_DUPLICATED,
    PARALLEL_SHIFTED,
    PARALLEL_THINNED,
    SINGLE_POISSON,
    ExperimentConfig,
    LemmaAudit,
    ProcessSpec,
    audit_lemmas,
    coupled_window_study,
    detect_crossings,
    extract_UV_sequences,
    generate,
    intersect_Bn_bound,
    run_experiment,
    run_walk,
    sign_test_p,
    stream_seed,
)
from gwlab.checks import CHECKS, Outcome
from oracles import couple_restrict


def _emit(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# parameters of the specs built for every construction in turn
PARAMS = dict(window_L=50.0, separation_r=1.0, alpha=math.pi / 3,
              thinning_p=0.5, shift_s=0.3)


def _check(name: str, real, traj):
    return CHECKS[name].per_run(real, traj)


# ---------------------------------------------------------------------------
# shared audit / deficiency tally fed by the criterion 1-7 corpora

@dataclass
class Tally:
    audit: LemmaAudit = field(default_factory=LemmaAudit)  # summed over runs
    dx: Outcome = field(default_factory=Outcome)
    summary_failures: int = 0  # lemma failures reported by experiment rows

    def add(self, real, traj) -> None:
        if real.spec.construction == INTERSECTING_INDEPENDENT:
            return  # the audits have no shadow ordering to read there
        run = audit_lemmas(real, traj)
        self.audit.pair_checks += run.pair_checks
        self.audit.replay_checks += run.replay_checks
        self.audit.empty_interval_checks += run.empty_interval_checks
        self.audit.violations += [{"spec": real.spec.to_dict(),
                                   "seed": real.seed, **v}
                                  for v in run.violations]
        # full per-level sweeps are capped at half-width 50 to keep the
        # quadratic cost bounded; larger coupled windows are audited only
        if (real.spec.window_L <= 50.0
                and real.spec.construction in CHECKS["dx-bounds"].constructions):
            self.dx += _check("dx-bounds", real, traj)


TALLY = Tally()


# ---------------------------------------------------------------------------
# criterion 1: single-line crossing rate


@pytest.fixture(scope="module")
def c1_stats():
    cfg = ExperimentConfig(name="acc-c1", construction=SINGLE_POISSON,
                           n_runs=20_000, base_seed=9101, window_L=50.0,
                           detect_events=False)
    rows = run_experiment(cfg)
    TALLY.summary_failures += sum(r.lemma_failures or 0 for r in rows)
    return {"mean": float(np.mean([r.crossings for r in rows])),
            "n": len(rows)}


def test_criterion_1_crossing_rate(c1_stats):
    mean, n = c1_stats["mean"], c1_stats["n"]
    ok = 0.45 <= mean <= 0.55
    _emit(1, ok, f"mean crossings {mean:.4f} over {n} single-line runs, "
                 f"want [0.45, 0.55]")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: pruning engine vs exhaustive oracle


@pytest.fixture(scope="module")
def c2_stats():
    mismatches = {}
    for ci, construction in enumerate([
            SINGLE_POISSON, PARALLEL_DUPLICATED, PARALLEL_THINNED,
            PARALLEL_SHIFTED, INTERSECTING_INDEPENDENT]):
        spec = ProcessSpec.build(construction, **PARAMS)
        bad = 0
        for i in range(1000):
            real = generate(spec, stream_seed(9102 + ci, i))
            traj = run_walk(real)
            bad += _check("oracle-equivalence", real, traj).violations
            TALLY.add(real, traj)
        mismatches[construction] = bad
    return mismatches


def test_criterion_2_oracle_equivalence(c2_stats):
    total = sum(c2_stats.values())
    ok = total == 0
    _emit(2, ok, f"{total} mismatches across "
                 f"{1000 * len(c2_stats)} runs ({c2_stats})")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: window coupling gives strict trajectory prefixes


@pytest.fixture(scope="module")
def c3_stats():
    non_prefix = {}
    for ci, construction in enumerate([
            SINGLE_POISSON, PARALLEL_DUPLICATED, PARALLEL_THINNED,
            PARALLEL_SHIFTED, INTERSECTING_INDEPENDENT]):
        spec = ProcessSpec.build(construction, **PARAMS)
        bad = 0
        for i in range(1000):
            big = generate(spec, stream_seed(9103 + ci, i))
            small = couple_restrict(big, 25.0)
            t_big = run_walk(big)
            t_small = run_walk(small)
            ns = len(t_small)
            strict = (ns < len(t_big)
                      and np.array_equal(t_small.us, t_big.us[:ns])
                      and np.array_equal(t_small.lines, t_big.lines[:ns]))
            if not strict:
                bad += 1
            TALLY.add(big, t_big)
            TALLY.add(small, t_small)
        non_prefix[construction] = bad
    return non_prefix


def test_criterion_3_prefix_stability(c3_stats):
    total = sum(c3_stats.values())
    ok = total == 0
    _emit(3, ok, f"{total} non-strict-prefix pairs across "
                 f"{1000 * len(c3_stats)} coupled pairs ({c3_stats})")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: duplicated clusters are swallowed whole


@pytest.fixture(scope="module")
def c4_stats():
    stats = Outcome()
    for k, (r, n_runs) in enumerate([(0.5, 334), (1.0, 333), (2.0, 333)]):
        spec = ProcessSpec.build(PARALLEL_DUPLICATED, window_L=50.0,
                                 separation_r=r)
        for i in range(n_runs):
            real = generate(spec, stream_seed(91040 + k, i))
            traj = run_walk(real)
            stats += _check("cluster-traversal", real, traj)
            TALLY.add(real, traj)
    return stats


def test_criterion_4_cluster_traversal(c4_stats):
    ok = c4_stats.violations == 0
    _emit(4, ok, f"{c4_stats.violations} traversal or alignment violations "
                 f"over {c4_stats.checks} duplicated runs "
                 f"({c4_stats.counts['undecided']} prefix-cut, undecided)")
    assert ok, c4_stats.details[:3]


# ---------------------------------------------------------------------------
# criterion 5: duplicated crossing counts do not grow with the window


@pytest.fixture(scope="module")
def c5_stats():
    cfg = ExperimentConfig(name="acc-c5", construction=PARALLEL_DUPLICATED,
                           n_runs=600, base_seed=9105, separation_r=1.0,
                           detect_events=False)
    res = coupled_window_study(cfg, [50.0, 100.0, 200.0])
    cross = {L: np.array([r.crossings for r in rows])
             for L, rows in res.items()}
    for rows in res.values():
        TALLY.summary_failures += sum(r.lemma_failures or 0 for r in rows)
    diffs = {}
    for lo, hi in [(50.0, 100.0), (100.0, 200.0)]:
        d = cross[hi] - cross[lo]
        se = float(d.std(ddof=1) / math.sqrt(len(d))) if d.std() > 0 else 0.0
        diffs[(lo, hi)] = (float(d.mean()), se)
    means = {int(L): float(v.mean()) for L, v in cross.items()}
    return {"diffs": diffs, "means": means}


def test_criterion_5_no_crossing_growth(c5_stats):
    ok = all(mean <= 3.0 * se
             for mean, se in c5_stats["diffs"].values())
    pieces = ", ".join(
        f"L{int(lo)}->L{int(hi)} diff {m:+.4f} (se {s:.4f})"
        for (lo, hi), (m, s) in c5_stats["diffs"].items())
    _emit(5, ok, f"600 coupled duplicated triples: {pieces}; "
                 f"window means {c5_stats['means']}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: crossings grow with the window at r=5, thinned or not


def _coupled_crossings(spec, base_seed: int, tally: bool) -> dict:
    """Median crossings at L=50 and 200 over 2000 coupled pairs, the pairs
    that gained and lost crossings, and the sign test of their difference.
    Past about 1,074 one-sided pairs the p-value underflows to 0.0, so the
    counts are what tell the regimes apart."""
    c_small = np.empty(2000, dtype=np.int64)
    c_big = np.empty(2000, dtype=np.int64)
    for i in range(2000):
        big = generate(spec, stream_seed(base_seed, i))
        small = couple_restrict(big, 50.0)
        t_big = run_walk(big)
        t_small = run_walk(small)
        c_big[i] = detect_crossings(t_big)
        c_small[i] = detect_crossings(t_small)
        if tally:
            TALLY.add(big, t_big)
            TALLY.add(small, t_small)
    return {"med_small": float(np.median(c_small)),
            "med_big": float(np.median(c_big)),
            "gained": int(np.sum(c_big > c_small)),
            "lost": int(np.sum(c_big < c_small)),
            "p_value": sign_test_p(c_big - c_small)}


@pytest.fixture(scope="module")
def c6_stats():
    # What this shows: at r=5, returns appear by L=200 whether or not
    # points are thinned.  The control, parallel-duplicated, whose walk
    # provably leaves points unvisited, draws the same base points as the
    # p=0.5 runs, seed for seed.  Its crossings too grow in many pairs
    # (its sign test is as small), though its median stays at 1.  So the
    # criterion does not test the thinning theorem.  The control's medians
    # and sign test are printed, not asserted, and it does not feed TALLY.
    # Every regime, the control included, must lose crossings in no pair:
    # the L=50 walk is a prefix of the L=200 walk (criterion 3's coupling
    # invariant), so a lost pair is a bug.  The sign test then reduces to
    # 0.5^gained.
    thinned = {
        p: _coupled_crossings(
            ProcessSpec.build(PARALLEL_THINNED, window_L=200.0,
                              separation_r=5.0, thinning_p=p),
            91060 + k, tally=True)
        for k, p in enumerate([0.2, 0.5, 1.0])}
    control = _coupled_crossings(
        ProcessSpec.build(PARALLEL_DUPLICATED, window_L=200.0,
                          separation_r=5.0), 91061, tally=False)
    return thinned, control


def test_criterion_6_crossings_grow_under_thinning(c6_stats):
    thinned, control = c6_stats
    ok = (all(st["med_big"] > st["med_small"] and st["p_value"] < 0.01
              for st in thinned.values())
          and all(st["lost"] == 0 for st in (*thinned.values(), control)))
    pieces = "; ".join(
        f"{label}: median {st['med_small']:.1f}->{st['med_big']:.1f}, "
        f"{st['gained']} gained / {st['lost']} lost, "
        f"sign test {st['p_value']:.2e}"
        for label, st in [*((f"p={p}", st) for p, st in thinned.items()),
                          ("control duplicated", control)])
    _emit(6, ok, f"2000 coupled pairs each at r=5, L 50 vs 200: {pieces}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: gap events force a return to the negative half-axis


@pytest.fixture(scope="module")
def c7_stats():
    # An occurred gap event is degenerate when the walk went negative
    # before reaching the gap's level; it holds by construction, so only
    # the non-degenerate ones check the implication.  They sit at small
    # indexes: over 600 runs at L=400, none of the 38,942 (thinned, r=1)
    # and 29,802 (shifted, r=1, s=0.3) occurred events at index >= 20 was
    # non-degenerate, and the occurred rate per index is the Poisson gap
    # tail e^(-extra)/2 (extra = r thinned, r + s shifted).
    #
    # The thinned r=5 leg records 245 occurred events over its 2,000
    # seeds, only 11 of them (in 11 runs) non-degenerate, and can catch a
    # broken return only there: its first 300 walks, fully shuffled (walk
    # i permuted by np.random.default_rng(i)), give 0 violations.  The
    # thinned r=1 leg records 16,608, 223 of them non-degenerate, and its
    # first 300 shuffled walks give 312 violations.  The shifted leg runs
    # at r=1, where the cluster phenomena live.
    legs = (("thinned r=5", PARALLEL_THINNED, 5.0, 91070),
            ("shifted r=1", PARALLEL_SHIFTED, 1.0, 91071),
            ("thinned r=1", PARALLEL_THINNED, 1.0, 91072))
    out = {}
    for label, construction, r, base_seed in legs:
        spec = ProcessSpec.build(construction, **dict(PARAMS, separation_r=r))
        stats = Outcome()
        for i in range(2000):
            real = generate(spec, stream_seed(base_seed, i))
            traj = run_walk(real)
            stats += _check("povratak", real, traj)
            TALLY.add(real, traj)
        out[label] = stats
    return out


def test_criterion_7_povratak(c7_stats):
    ok = all(s.violations == 0 for s in c7_stats.values())
    pieces = "; ".join(
        f"{c}: {s.counts['occurrences']} occurrences, {s.violations} "
        f"violations, {s.counts['unknowns']} undecided"
        for c, s in c7_stats.items())
    _emit(7, ok, f"{2000 * len(c7_stats)} runs: {pieces}")
    assert ok, [s.details[:3] for s in c7_stats.values()]


# ---------------------------------------------------------------------------
# criterion 8: the structural audits over everything above


def test_criterion_8_audits_clean(c1_stats, c2_stats, c3_stats, c4_stats,
                                  c5_stats, c6_stats, c7_stats):
    audit, dx = TALLY.audit, TALLY.dx
    n_audit = len(audit.violations)
    ok = (n_audit == 0 and dx.violations == 0 and TALLY.summary_failures == 0
          and all(n > 0 for n in (audit.pair_checks, audit.replay_checks,
                                  audit.empty_interval_checks, dx.checks)))
    _emit(8, ok, f"{audit.pair_checks} pair, {audit.replay_checks} replay, "
                 f"{audit.empty_interval_checks} empty-interval checks and "
                 f"{dx.checks} deficiency records over the criterion 1-7 "
                 f"corpora: {n_audit} audit, {dx.violations} deficiency, "
                 f"{TALLY.summary_failures} summary-reported violations")
    assert ok, (audit.violations[:3], dx.details[:3])


# ---------------------------------------------------------------------------
# criterion 9: landmark verdicts on intersecting lines obey the tail bound


@pytest.fixture(scope="module")
def c9_stats():
    alpha = math.pi / 2
    spec = ProcessSpec.build(INTERSECTING_INDEPENDENT, window_L=50.0,
                             alpha=alpha)
    n_runs = 10_000
    b_counts = np.zeros(16, dtype=np.int64)
    c_total = 0
    for i in range(n_runs):
        real = generate(spec, stream_seed(9109, i))
        traj = run_walk(real)
        for rec in extract_UV_sequences(traj):
            if rec.n > 15:
                continue
            if rec.verdict == "B":
                b_counts[rec.n] += 1
            else:
                c_total += 1
    return {"alpha": alpha, "n_runs": n_runs, "b_counts": b_counts,
            "c_total": c_total}


def test_criterion_9_landmark_tail_bound(c9_stats):
    # The bound is above 1 at n = 1 and 2, and at n = 3 it is 0.86 against
    # a B frequency of 6.0e-4; no run records a level n >= 4.  The bound
    # is far from the data at every level, so on greedy walks the live
    # check is the count of C verdicts, which must be 0.  That count is
    # forced by the greedy rule (proof in README, under bounds): V is
    # strictly nearer than U to the site before the run, so a C can come
    # only from a rounded tie or an inverted metric.  It checks the step
    # rule, not the claim that the walk misses points.
    n_runs = c9_stats["n_runs"]
    worst = None
    ok = c9_stats["c_total"] == 0
    for n in range(1, 16):
        p_hat = c9_stats["b_counts"][n] / n_runs
        bound = intersect_Bn_bound(c9_stats["alpha"], n)
        se = math.sqrt(p_hat * (1.0 - p_hat) / n_runs)
        slack = bound + 3.0 * se - p_hat
        if worst is None or slack < worst[1]:
            worst = (n, slack, p_hat, bound)
        if slack < 0:
            ok = False
    n, slack, p_hat, bound = worst
    _emit(9, ok, f"{n_runs} right-angle runs: {c9_stats['c_total']} C "
                 f"verdicts; tightest level n={n}: freq {p_hat:.2e} vs "
                 f"bound {bound:.2e} (slack {slack:+.2e})")
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: indented-lead entries traverse whole clusters; the
# early-exit phenomenon exists and is findable


@pytest.fixture(scope="module")
def c10_stats():
    spec = ProcessSpec.build(PARALLEL_SHIFTED, **PARAMS)
    stats = Outcome()
    first_early = None
    for i in range(1000):
        real = generate(spec, stream_seed(9110, i))
        run = _check("indented-entry", real, run_walk(real))
        stats += run
        if run.counts["early_exits"] and first_early is None:
            first_early = i
    scanned = 1000
    while first_early is None and scanned < 10_000:
        real = generate(spec, stream_seed(9110, scanned))
        run = _check("indented-entry", real, run_walk(real))
        if run.counts["early_exits"]:
            first_early = scanned
        scanned += 1
    return {"stats": stats, "first_early": first_early, "scanned": scanned}


def test_criterion_10_indented_entry_discipline(c10_stats):
    stats = c10_stats["stats"]
    entries = stats.counts["indented_lead_entries"]
    ok = (stats.violations == 0 and entries > 0
          and c10_stats["first_early"] is not None)
    _emit(10, ok, f"{stats.violations} violations over {entries} "
                  f"indented-lead entries in 1000 shifted runs "
                  f"({stats.counts['undecided']} undecided); "
                  f"first early-exit at run {c10_stats['first_early']} "
                  f"of {c10_stats['scanned']} scanned")
    assert ok, stats.details[:3]
