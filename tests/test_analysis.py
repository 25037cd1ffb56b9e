"""Trajectory analysis: first passages, deficiency records, landmark and
cluster machinery, return events, and the structural audits.

Fixture trajectories are hand-built (see conftest.hand_traj), so expected
values are checked against pencil-and-paper runs of the definitions.
"""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gwlab import (
    RUN_TO_EXHAUSTION,
    DeficiencyRecords,
    Site,
    StopRule,
    ValidationError,
    audit_lemmas,
    check_cluster_consecutive,
    check_indented_entry,
    check_povratak,
    check_reduced_alignment,
    cluster_visits,
    clusters_of,
    compute_Dx,
    decompose_clusters,
    detect_A_events,
    detect_crossings,
    extract_UV_sequences,
    extract_halfline_changes,
    generate,
    intersect_Bn_bound,
    parallel_Am_first_term,
    reduce_to_cluster_leads,
    run_walk,
    stream_seed,
    theoretical_bounds,
    validate_dx_record,
)
from gwlab.checks import run_checks
from gwlab.walk import Trajectory
from gwlab.analysis import (
    A_K_SHIFTED,
    A_K_THINNED,
    A_M_PARALLEL,
    first_passage,
    last_visit_steps,
)

EXH = StopRule(mode=RUN_TO_EXHAUSTION)


# ---------------------------------------------------------------------------
# first passages


def test_hitting_times(hand_real, hand_traj):
    real = hand_real("single-line", [-1.0, 0.0, 1.0, 2.0, 3.0])
    traj = hand_traj(real, [1.0, 2.0, -1.0, 3.0], [0, 0, 0, 0])
    # the start site counts as step 0
    assert first_passage(traj, [0.5, 2.0, 2.5, 4.0, 0.0]).tolist() == [
        1, 2, 4, math.inf, 0]
    assert first_passage(traj, [2.0], strict=True).tolist() == [4]
    assert first_passage(traj, [0.0, 5.0, -2.0], down=True,
                         strict=True).tolist() == [3, 0, math.inf]
    assert first_passage(traj, [-1.0, 0.0], down=True).tolist() == [3, 0]
    assert first_passage(traj, [-1.0], down=True, strict=True).tolist() == [
        math.inf]
    # the same passages as a one-level compute_Dx table reports them: t_ray
    # at or beyond x, t_left strictly below 0, inf past the prefix
    dx = compute_Dx(real, traj, 2.0)
    assert (dx.t_ray.tolist(), dx.t_left, dx.degenerate.tolist()) == (
        [2], 3, [False])
    dx = compute_Dx(real, traj, 4.0)
    assert (dx.t_ray.tolist(), dx.t_left, dx.degenerate.tolist()) == (
        [math.inf], 3, [True])
    started = hand_traj(real, [3.0], [0], start=Site(2.0, 0))
    assert compute_Dx(real, started, 1.5).t_ray.tolist() == [0]
    at_zero = hand_traj(real, [1.0, 0.0, 3.0], [0, 0, 0])
    dx = compute_Dx(real, at_zero, 3.0)
    assert (dx.t_ray.tolist(), dx.t_left, dx.degenerate.tolist()) == (
        [3], math.inf, [False])
    assert compute_Dx(real, hand_traj(real, [1.0], [0]), 0.5).t_left == math.inf


# ---------------------------------------------------------------------------
# deficiency records


def test_compute_dx_interior_point(hand_real, hand_traj):
    real = hand_real("single-line", [-1.0, 3.0, 10.0])
    dx = compute_Dx(real, hand_traj(real, [10.0], [0]), 10.0)
    # interior {3}: max(2*3 - 0 - 10, 2*10 - 3 - 10) = 7
    assert dx.x.tolist() == [10.0] and dx.value.tolist() == [7.0]
    assert dx.decided.tolist() == [True] and dx.degenerate.tolist() == [False]
    assert dx.t_ray.tolist() == [1] and dx.t_left == math.inf
    assert dx.n_interior.tolist() == [1]
    assert validate_dx_record("single-line", dx) == []


def test_compute_dx_consumed_interior(hand_real, hand_traj):
    real = hand_real("single-line", [-1.0, 3.0, 10.0])
    dx = compute_Dx(real, hand_traj(real, [3.0, 10.0], [0, 0]), 10.0)
    # 3 was visited before the passage step, so the region is bare
    assert dx.value.tolist() == [10.0]
    assert dx.n_interior.tolist() == [0]


def test_compute_dx_degenerate(hand_real, hand_traj):
    real = hand_real("single-line", [-1.0, 3.0, 10.0])
    dx = compute_Dx(real, hand_traj(real, [-1.0], [0]), 10.0)
    assert dx.degenerate.tolist() == [True] and dx.decided.tolist() == [True]
    assert dx.value.tolist() == [0.0]
    assert dx.t_left == 1 and dx.t_ray.tolist() == [math.inf]


def test_compute_dx_undecidable(hand_real, hand_traj):
    real = hand_real("single-line", [-1.0, 3.0, 10.0])
    traj = hand_traj(real, [3.0], [0])
    dx = compute_Dx(real, traj, 10.0)
    assert dx.decided.tolist() == [False] and math.isnan(dx.value[0])
    with pytest.raises(ValidationError):
        compute_Dx(real, traj, 0.0)


def test_validate_dx_record_limits():
    # levels 1..10: undecided (skipped whatever its value), degenerate but
    # not 0, above x, negative, zero, just inside the tolerance of x and of
    # 0, degenerate at 0, above x again, in bounds
    value = [-1.0, 0.5, 3.5, -0.5, 0.0, 6.0 + 1e-9, -1e-9, 0.0, 9.5, 2.0]
    degenerate = np.array([0, 1, 0, 0, 0, 0, 0, 1, 0, 0], dtype=bool)
    dx = DeficiencyRecords(
        x=np.arange(1.0, 11.0), value=np.asarray(value), degenerate=degenerate,
        decided=np.arange(10) > 0, t_ray=np.full(10, 1.0), t_left=math.inf,
        n_interior=np.zeros(10, dtype=np.int64))
    deg, above, neg, above_again = (
        (2.0, "degenerate record has value 0.5 != 0"),
        (3.0, "value 3.5 exceeds level x=3.0"), (4.0, "value -0.5 negative"),
        (9.0, "value 9.5 exceeds level x=9.0"))
    # in level order, not rule order
    for construction in ("single-line", "parallel-shifted"):
        assert validate_dx_record(construction, dx) == [
            deg, above, neg, above_again]
    # thinned also needs strictly positive values: level 4 breaks two rules,
    # listed in rule order
    assert validate_dx_record("parallel-thinned", dx) == [
        deg, above, neg,
        (4.0, "non-degenerate value -0.5 not strictly positive"),
        (5.0, "non-degenerate value 0.0 not strictly positive"),
        (7.0, "non-degenerate value -1e-09 not strictly positive"),
        above_again]
    # every level undecided: nothing to check
    assert validate_dx_record("parallel-thinned", replace(
        dx, decided=np.zeros(10, dtype=bool))) == []


tenths = st.integers(1, 99).map(lambda k: k / 10)
quarters = st.integers(-60, 60).map(lambda k: k / 4)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(tenths, max_size=15, unique=True))
def test_deficiency_in_range(hand_real, hand_traj, interior):
    # a walk that jumps straight to 10 leaves every point below it interior
    real = hand_real("single-line", sorted(interior) + [10.0])
    dx = compute_Dx(real, hand_traj(real, [10.0], [0]), 10.0)
    assert dx.n_interior.tolist() == [len(interior)]
    assert 0.0 < dx.value[0] <= 10.0


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(tenths, max_size=15, unique=True), tenths)
def test_deficiency_insertion_monotone(hand_real, hand_traj, interior, w):
    # visiting w before the passage takes it out of the interior
    assume(w not in interior)
    real = hand_real("single-line", sorted(interior + [w]) + [10.0])
    more = compute_Dx(real, hand_traj(real, [10.0], [0]), 10.0)
    less = compute_Dx(real, hand_traj(real, [w, 10.0], [0, 0]), 10.0)
    assert less.n_interior[0] == more.n_interior[0] - 1
    assert more.value[0] <= less.value[0]


def deficiency_by_definition(real, traj, x):
    """(value, degenerate, decided, n_interior, t_ray, t_left) at level x,
    from a scan of the steps and of every copy's visit step; value None
    and n_interior 0 when the prefix cannot decide the level."""
    sites = [traj.start.u, *traj.us.tolist()]
    t_ray = next((t for t, u in enumerate(sites) if u >= x), None)
    t_left = next((t for t, u in enumerate(sites) if u < 0.0), None)
    if t_left is not None and (t_ray is None or t_left < t_ray):
        return 0.0, True, True, 0, t_ray, t_left
    if t_ray is None:
        return None, False, False, 0, t_ray, t_left
    copies = [(u, v) for line, vis in ((real.line0, traj.visited_step0),
                                       (real.line1, traj.visited_step1))
              for u, v in zip(line.tolist(), vis.tolist())]
    # a point stays interior while some copy is unvisited before t_ray
    z = [0.0, *sorted({u for u, v in copies
                       if 0.0 < u < x and (v < 0 or v >= t_ray)}), x]
    return (max(2.0 * b - a - x for a, b in zip(z, z[1:])), False, True,
            len(z) - 2, t_ray, t_left)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["single-line", "parallel-duplicated",
                        "parallel-thinned", "parallel-shifted"]),
       st.lists(quarters, min_size=1, max_size=9, unique=True),
       st.lists(quarters, max_size=9, unique=True),
       st.lists(quarters.filter(lambda q: q > 0.0), max_size=4),
       quarters, st.randoms(), st.floats(0.0, 1.0))
def test_deficiency_records_match_definition(hand_real, hand_traj,
                                             construction, line0, line1,
                                             levels, start_u, rnd, keep):
    # any visit order, cut anywhere, from any start; levels at the base
    # points and between them
    real = hand_real(construction, sorted(line0), sorted(line1),
                     separation_r=1.0, shift_s=0.25)
    order = [(u, 0) for u in real.line0] + [(u, 1) for u in real.line1]
    rnd.shuffle(order)
    order = order[:round(keep * len(order))]
    traj = hand_traj(real, [u for u, _ in order], [l for _, l in order],
                     start=Site(start_u, 0))
    xs = np.unique(np.append(real.base_points[real.base_points > 0.0], levels))
    dx = compute_Dx(real, traj, xs)

    def step(t):
        return int(t) if t < math.inf else None

    got = [(float(dx.value[i]) if dx.decided[i] else None,
            bool(dx.degenerate[i]), bool(dx.decided[i]),
            int(dx.n_interior[i]), step(dx.t_ray[i]), step(dx.t_left))
           for i in range(len(xs))]
    assert got == [deficiency_by_definition(real, traj, x)
                   for x in xs.tolist()]


def test_last_visit_steps(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [1.0, 2.0], separation_r=1.0)
    last = last_visit_steps(real, hand_traj(real, [1.0, 1.0], [0, 1]))
    assert last.tolist() == [2.0, math.inf]

    thinned = hand_real("parallel-thinned", [1.0, 2.0], line1=[1.0],
                        separation_r=1.0)
    last = last_visit_steps(thinned,
                            hand_traj(thinned, [1.0, 2.0, 1.0], [0, 0, 1]))
    assert last.tolist() == [3.0, 2.0]


# ---------------------------------------------------------------------------
# crossings, half-line changes, landmark records


def test_detect_crossings(hand_real, hand_traj):
    real = hand_real("single-line", [-1.0, 1.0, 2.0, 3.0])
    assert detect_crossings(hand_traj(real, [1.0, 2.0, -1.0, 3.0],
                                      [0, 0, 0, 0])) == 2
    assert detect_crossings(hand_traj(real, [1.0], [0])) == 0
    # a step landing exactly on 0 breaks the sign run without crossing
    zreal = hand_real("single-line", [-1.0, 0.0, 1.0])
    assert detect_crossings(hand_traj(zreal, [1.0, 0.0, -1.0], [0, 0, 0])) == 0


def test_extract_halfline_changes(hand_real, hand_traj):
    real = hand_real("single-line", [-1.0, 1.0, 2.0, 3.0])
    traj = hand_traj(real, [1.0, 2.0, -1.0, 3.0], [0, 0, 0, 0])
    assert extract_halfline_changes(traj).tolist() == [2, 3]

    par = hand_real("parallel-duplicated", [-1.0, 1.0, 2.0], separation_r=1.0)
    traj = hand_traj(par, [1.0, 2.0, -1.0, 1.0], [0, 1, 1, 1])
    # line change, then sign change, then a same-half-line step
    assert extract_halfline_changes(traj).tolist() == [1, 2, 3]


def test_uv_single_record(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [-4.0, -2.5, 1.0, 2.0, 3.0],
                     separation_r=1.0)
    traj = hand_traj(real, [1.0, 2.0, 3.0, -2.5, -4.0], [0, 0, 0, 1, 1])
    recs = extract_UV_sequences(traj)
    assert len(recs) == 1
    rec = recs[0]
    assert (rec.n, rec.j, rec.k) == (1, 3, 1)
    assert rec.U == Site(1.0, 0) and rec.V == Site(3.0, 0)
    assert rec.verdict == "B"
    assert extract_UV_sequences(traj, n_max=0) == []


def test_uv_c_verdict(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [-2.0, 1.5, 3.0], separation_r=1.0)
    traj = hand_traj(real, [3.0, 1.5, -2.0], [0, 0, 1])
    recs = extract_UV_sequences(traj)
    assert len(recs) == 1
    assert (recs[0].n, recs[0].j, recs[0].k) == (1, 2, 1)
    assert recs[0].verdict == "C"


def test_uv_needs_strict_record(hand_real, hand_traj):
    # |u| at the change equals the level, not exceeding it: no landmark
    real = hand_real("parallel-duplicated", [-2.0, 1.0, 3.0], separation_r=1.0)
    traj = hand_traj(real, [3.0, 1.0, -2.0], [0, 0, 1])
    assert extract_UV_sequences(traj) == []


def test_uv_two_levels(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [-2.5, 1.5, 3.5], separation_r=1.0)
    traj = hand_traj(real, [1.5, -2.5, 3.5], [0, 1, 0])
    recs = extract_UV_sequences(traj)
    assert [(r.n, r.j, r.k, r.verdict) for r in recs] == [
        (1, 1, 1, "B"), (2, 2, 2, "B"),
    ]
    assert recs[1].U == Site(-2.5, 1)


# ---------------------------------------------------------------------------
# closed-form bounds


def test_bn_bound_values():
    got = intersect_Bn_bound(math.pi / 2, 10)
    assert got == 4.0 * math.exp(-9.0) / (1.0 - math.exp(-1.0))
    assert got == pytest.approx(7.806e-4, rel=1e-3)
    assert intersect_Bn_bound(math.pi / 2, 1) > got  # decreasing in n
    with pytest.raises(ValidationError):
        intersect_Bn_bound(0.0, 1)
    with pytest.raises(ValidationError):
        intersect_Bn_bound(math.pi, 1)
    with pytest.raises(ValidationError):
        intersect_Bn_bound(math.pi / 2, 0)


def test_am_first_term_values():
    got = parallel_Am_first_term(1.0, 1)
    assert got == 0.5 * math.exp(-2.0) * (1.0 - math.exp(-2.0))
    assert got == pytest.approx(0.05851, rel=1e-3)
    assert parallel_Am_first_term(1.0, 0) == 0.5 * (1.0 - math.exp(-2.0))
    with pytest.raises(ValidationError):
        parallel_Am_first_term(0.0, 1)
    with pytest.raises(ValidationError):
        parallel_Am_first_term(1.0, -1)


def test_theoretical_bounds_tables():
    bn = theoretical_bounds("intersecting-Bn", alpha=math.pi / 2, n_max=3)
    assert sorted(bn) == [1, 2, 3]
    assert bn[3] == intersect_Bn_bound(math.pi / 2, 3)
    am = theoretical_bounds("parallel-Am", r=1.0, n_max=2)
    assert sorted(am) == [0, 1, 2]
    with pytest.raises(ValidationError):
        theoretical_bounds("intersecting-Bn", n_max=3)
    with pytest.raises(ValidationError):
        theoretical_bounds("parallel-Am", n_max=3)
    with pytest.raises(ValidationError):
        theoretical_bounds("nope", alpha=1.0)


# ---------------------------------------------------------------------------
# cluster decomposition


def test_decompose_basic():
    dec = decompose_clusters([0.5, 1.0, 3.0], 1.0)
    assert dec.starts.tolist() == [0, 2] and dec.sizes.tolist() == [2, 1]
    assert dec.leads.tolist() == [0, 2]
    assert dec.starts.dtype == dec.sizes.dtype == dec.leads.dtype == np.int64
    assert dec.zero_cluster == 0
    assert dec.nonzero().tolist() == [False, True]
    assert dec.points[dec.leads].tolist() == [0.5, 3.0]


def test_decompose_gap_equal_threshold_splits():
    dec = decompose_clusters([0.0, 1.0, 2.0], 1.0)
    assert dec.starts.tolist() == [0, 1, 2] and dec.sizes.tolist() == [1, 1, 1]


def test_decompose_lead_tie_goes_right():
    dec = decompose_clusters([-1.0, 1.0], 3.0)
    assert dec.starts.tolist() == [0] and dec.sizes.tolist() == [2]
    assert dec.leads.tolist() == [1]


def test_decompose_validation():
    with pytest.raises(ValidationError):
        decompose_clusters([1.0], 0.0)
    empty = decompose_clusters([], 1.0)
    assert empty.starts.size == empty.sizes.size == empty.leads.size == 0
    assert empty.zero_cluster == -1 and empty.nonzero().size == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(quarters, min_size=1, max_size=20, unique=True),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_decompose_invariants(raw, thr):
    pts = sorted(raw)
    dec = decompose_clusters(pts, thr)
    starts, sizes, leads = (a.tolist() for a in (dec.starts, dec.sizes,
                                                 dec.leads))
    assert starts[0] == 0 and min(sizes) >= 1
    assert [lo + m for lo, m in zip(starts, sizes)] == starts[1:] + [len(pts)]
    for lo in starts[1:]:
        assert pts[lo] - pts[lo - 1] >= thr
    for lo, m, lead in zip(starts, sizes, leads):
        seg = pts[lo:lo + m]
        assert all(y - x < thr for x, y in zip(seg, seg[1:]))
        assert lo <= lead < lo + m
        key = (abs(pts[lead]), -pts[lead])
        assert all(key <= (abs(v), -v) for v in seg)
    zkey = (abs(pts[leads[dec.zero_cluster]]), -pts[leads[dec.zero_cluster]])
    assert all(zkey <= (abs(pts[l]), -pts[l]) for l in leads)


# ---------------------------------------------------------------------------
# reduced walk and traversal discipline (duplicated pairs)


def cut_prefix(traj, k):
    """The first k steps of traj, as a walk stopped after step k reports
    them."""
    def seen(vis):
        return np.where(vis <= k, vis, -1)

    return Trajectory(start=traj.start, us=traj.us[:k], lines=traj.lines[:k],
                      step_distances=traj.step_distances[:k],
                      stop_reason="truncated",
                      visited_step0=seen(traj.visited_step0),
                      visited_step1=seen(traj.visited_step1))


def reorder_steps(traj, order):
    """traj with its steps taken in `order`, a permutation of the 0-based
    step indexes: new step t visits what old step order[t-1] + 1 visited.
    Step distances move with their steps and are not recomputed."""
    order = np.asarray(order, dtype=np.int64)
    new_step = np.zeros(len(order) + 1, dtype=np.int64)
    new_step[order + 1] = np.arange(1, len(order) + 1)

    def moved(vis):
        return np.where(vis >= 1, new_step[vis], -1)

    return Trajectory(start=traj.start, us=traj.us[order],
                      lines=traj.lines[order],
                      step_distances=traj.step_distances[order],
                      stop_reason=traj.stop_reason,
                      visited_step0=moved(traj.visited_step0),
                      visited_step1=moved(traj.visited_step1))


def swap_steps(traj, k):
    """traj with steps k and k+1 (1-based) visited in the other order: not
    a greedy walk, so the cluster checks see entries, exits and
    interruptions that generated walks never show."""
    order = np.arange(len(traj))
    order[[k - 1, k]] = order[[k, k - 1]]
    return reorder_steps(traj, order)


def test_reduce_to_cluster_leads(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [1.0, 1.5, 4.0], separation_r=1.0)
    leads = reduce_to_cluster_leads(real, run_walk(real, rule=EXH))
    assert leads.tolist() == [1.0, 4.0]
    # first-visit order, not cluster order; unentered clusters drop out
    traj = hand_traj(real, [4.0, 1.5], [1, 0])
    assert reduce_to_cluster_leads(real, traj).tolist() == [4.0, 1.0]
    assert reduce_to_cluster_leads(real, hand_traj(real, [], [])).size == 0

    single = hand_real("single-line", [1.0])
    with pytest.raises(ValidationError):
        reduce_to_cluster_leads(single, run_walk(single))


def test_clusters_of(hand_real):
    dup = hand_real("parallel-duplicated", [0.5, 1.0, 3.0], separation_r=1.0)
    thin = hand_real("parallel-thinned", [0.5], line1=[1.0, 3.0],
                     separation_r=1.0)
    for real in (dup, thin):
        dec = clusters_of(real)
        assert dec.starts.tolist() == [0, 2] and dec.sizes.tolist() == [2, 1]
        assert dec.leads.tolist() == [0, 2]
    # shifted: line 0 alone, at the point-to-shifted-neighbour distance
    shifted = hand_real("parallel-shifted", [-2.5, -2.0, 2.0, 2.5],
                        shift_s=0.3)
    dec = clusters_of(shifted)
    assert dec.threshold == math.sqrt(1.0 + 0.3 * 0.3)
    assert dec.starts.tolist() == [0, 2] and dec.sizes.tolist() == [2, 2]
    assert dec.leads.tolist() == [1, 2]
    assert dec.zero_cluster == 1
    for construction in ("single-line", "intersecting"):
        with pytest.raises(ValidationError):
            clusters_of(hand_real(construction, [1.0]))


def test_cluster_visits_table(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [-0.5, 4.0, 4.4], separation_r=1.0)
    traj = run_walk(real, rule=EXH)
    t = cluster_visits(clusters_of(real), traj)
    assert t.count.tolist() == [2, 4]
    assert (t.first.tolist(), t.last.tolist()) == ([1, 3], [2, 6])
    assert t.entry_line.tolist() == [0, 1] and t.entry_index.tolist() == [0, 1]
    assert t.exit_line.tolist() == [1, 0] and t.exit_index.tolist() == [0, 1]
    assert t.consecutive.tolist() == [True, True]
    assert not t.undecided.any() and not t.broken.any()
    # cut after step 4: the open cluster is undecided, not broken
    t = cluster_visits(clusters_of(real), cut_prefix(traj, 4))
    assert t.count.tolist() == [2, 2]
    assert (t.exit_line[1], t.exit_index[1]) == (1, 2)
    assert t.consecutive.tolist() == [True, False]
    assert t.undecided.tolist() == [False, True]
    # an unentered cluster has no steps or sites; one left early is broken
    t = cluster_visits(clusters_of(real), hand_traj(real, [4.0], [1]))
    assert t.entered.tolist() == [False, True]
    assert (t.first[0], t.last[0], t.entry_line[0], t.entry_index[0],
            t.exit_line[0], t.exit_index[0]) == (-1,) * 6
    assert t.undecided.tolist() == [False, True]
    t = cluster_visits(clusters_of(real), hand_traj(real, [4.0, -0.5], [0, 0]))
    assert t.broken.tolist() == [False, True]


def test_consecutive_holds_on_real_walk(hand_real):
    real = hand_real("parallel-duplicated", [-0.5, 4.0, 4.4], separation_r=1.0)
    traj = run_walk(real, rule=EXH)
    assert traj.us.tolist() == [-0.5, -0.5, 4.0, 4.4, 4.4, 4.0]
    assert traj.lines.tolist() == [0, 1, 1, 1, 0, 0]
    assert check_cluster_consecutive(real, traj) is True
    assert check_reduced_alignment(real, traj) is True


def test_consecutive_entry_not_at_lead(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [-0.5, 4.0, 4.4], separation_r=1.0)
    assert check_cluster_consecutive(real, hand_traj(real, [4.4], [0])) is False


def test_consecutive_interrupted(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [-0.5, 4.0, 4.4], separation_r=1.0)
    traj = hand_traj(real, [4.0, -0.5, 4.4], [0, 0, 0])
    assert check_cluster_consecutive(real, traj) is False


def test_consecutive_wrong_exit(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [-0.5, 4.0, 4.4], separation_r=1.0)
    traj = hand_traj(real, [4.0, 4.0, 4.4, 4.4], [0, 1, 0, 1])
    assert check_cluster_consecutive(real, traj) is False


def test_consecutive_cut_by_prefix_is_undecided(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [-0.5, 4.0, 4.4], separation_r=1.0)
    traj = hand_traj(real, [4.0, 4.4], [0, 0])
    assert check_cluster_consecutive(real, traj) is None


def test_alignment_violation(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [-0.5, 4.0, 4.4], separation_r=1.0)
    assert check_reduced_alignment(
        real, hand_traj(real, [4.4, -0.5], [0, 0])) is False
    assert check_reduced_alignment(
        real, hand_traj(real, [4.0, -0.5], [0, 0])) is True


def test_traversal_checks_construction_guard(hand_real):
    single = hand_real("single-line", [1.0])
    traj = run_walk(single)
    for fn in (check_cluster_consecutive, check_reduced_alignment):
        with pytest.raises(ValidationError):
            fn(single, traj)


def test_consecutive_on_generated_runs(spec_for):
    # greedy walks must never produce a definite counterexample
    for i in range(10):
        real = generate(spec_for("parallel-duplicated"), stream_seed(77, i))
        traj = run_walk(real)
        assert check_cluster_consecutive(real, traj) is not False
        assert check_reduced_alignment(real, traj) is True


def entry_counts(real, trajs):
    """The indented-entry counts per trajectory, as "e.v.u.x" words."""
    return " ".join(
        ".".join(str(v) for v in run_checks(
            real, t, ("indented-entry",))["indented-entry"].counts.values())
        for t in trajs)


def cluster_pin_values(spec_for):
    """What cluster_pins.json pins, per run: the duplicated traversal
    verdicts and reduced lead shadows, and the shifted indented-entry
    counts, on the full walk and on prefixes cut every 3rd (duplicated) or
    2nd (shifted) step, and on the full walk with steps k, k+1 swapped for
    every 5th k.  Verdict strings hold one character per cut or swap: T, F
    or N (None)."""
    verdict = {True: "T", False: "F", None: "N"}
    out = {}
    for i in range(100):
        r = (1.0, 0.5, 2.0)[i % 3]
        real = generate(spec_for("parallel-duplicated", separation_r=r),
                        stream_seed(5, i))
        traj = run_walk(real)
        n = len(traj)
        consec, aligned, leads = "", "", hashlib.sha256()
        for k in [*range(1, n, 3), n]:
            t = cut_prefix(traj, k)
            consec += verdict[check_cluster_consecutive(real, t)]
            aligned += verdict[check_reduced_alignment(real, t)]
            lead_us = np.asarray(reduce_to_cluster_leads(real, t), dtype="<f8")
            leads.update(lead_us.tobytes() + b"|")
        swapped = "".join(
            verdict[check_cluster_consecutive(real, t)]
            + verdict[check_reduced_alignment(real, t)]
            for t in (swap_steps(traj, k) for k in range(1, n - 1, 5)))
        out[f"duplicated/r={r}/{i}"] = {"steps": n, "consecutive": consec,
                                        "aligned": aligned,
                                        "leads": leads.hexdigest(),
                                        "swapped": swapped}
    for i in range(100):
        s = (0.3, -0.3, 0.1, 0.5)[i % 4]
        real = generate(spec_for("parallel-shifted", shift_s=s),
                        stream_seed(6, i))
        traj = run_walk(real)
        n = len(traj)
        out[f"shifted/s={s}/{i}"] = {
            "steps": n,
            "counts": entry_counts(real, (cut_prefix(traj, k)
                                          for k in [*range(1, n, 2), n])),
            "swapped": entry_counts(real, (swap_steps(traj, k)
                                           for k in range(1, n - 1, 5))),
        }
    return out


CLUSTER_PINS = Path(__file__).parent / "data" / "cluster_pins.json"


def test_cluster_checks_pinned(spec_for):
    # recorded with the per-cluster loops that preceded the visit table;
    # every verdict, lead shadow and count must stay the same
    pinned = json.loads(CLUSTER_PINS.read_text())["runs"]
    got = cluster_pin_values(spec_for)
    assert sorted(got) == sorted(pinned)
    assert [name for name in got if got[name] != pinned[name]] == []
    # the cuts reach undecided verdicts and early exits, the swaps reach
    # definite violations
    runs = pinned.values()
    assert any("N" in v.get("consecutive", "") for v in runs)
    assert any("F" in v.get("swapped", "") for v in runs)
    shifted = [[int(x) for x in c.split(".")] for v in runs if "counts" in v
               for c in v["counts"].split() + v["swapped"].split()]
    assert all(any(c[j] for c in shifted) for j in range(4))


def visits_by_definition(dec, traj):
    """cluster_visits' fields, one cluster at a time from the visit-step
    arrays."""
    rows = []
    for lo, m in zip(dec.starts.tolist(), dec.sizes.tolist()):
        steps = {int(v): (line, lo + i) for line, vis in
                 enumerate((traj.visited_step0, traj.visited_step1))
                 for i, v in enumerate(vis[lo:lo + m]) if v >= 1}
        if not steps:
            rows.append((0, -1, -1, (-1, -1), (-1, -1), False, False))
            continue
        t0, t1 = min(steps), max(steps)
        run = sorted(steps) == list(range(t0, t1 + 1))
        rows.append((len(steps), t0, t1, steps[t0], steps[t1],
                     run and len(steps) == 2 * m,
                     run and len(steps) < 2 * m and t1 == len(traj)))
    return rows


@pytest.mark.parametrize("construction,params", [
    pytest.param("parallel-duplicated", {}, id="parallel-duplicated"),
    pytest.param("parallel-shifted", {}, id="parallel-shifted"),
    # nothing thinned away: line 1 shares line 0's indexes
    pytest.param("parallel-thinned", {"thinning_p": 0.0},
                 id="parallel-thinned-p0"),
])
def test_cluster_visits_matches_definition(spec_for, construction, params):
    for i in range(6):
        real = generate(spec_for(construction, window_L=12.0, **params),
                        stream_seed(13, i))
        traj = run_walk(real)
        n = len(traj)
        dec = clusters_of(real)
        for t in ([cut_prefix(traj, k) for k in range(0, n + 1, 4)]
                  + [swap_steps(traj, k) for k in range(1, n - 1, 3)]):
            v = cluster_visits(dec, t)
            got = [(c, f, l, (el, ei), (xl, xi), bool(ok), bool(cut))
                   for c, f, l, el, ei, xl, xi, ok, cut in zip(
                       v.count.tolist(), v.first.tolist(), v.last.tolist(),
                       v.entry_line.tolist(), v.entry_index.tolist(),
                       v.exit_line.tolist(), v.exit_index.tolist(),
                       v.consecutive, v.undecided)]
            assert got == visits_by_definition(dec, t)


def test_cluster_visits_needs_shared_indexes(spec_for):
    # a thinned run's lines differ in length (21 and 22 points here)
    real = generate(spec_for("parallel-thinned", window_L=10.0), 3)
    assert len(real.line0) != len(real.line1)
    with pytest.raises(ValidationError):
        cluster_visits(clusters_of(real), run_walk(real))


# ---------------------------------------------------------------------------
# indented-entry discipline (shifted pairs)


def test_indented_entry_leads(hand_real, hand_traj):
    # the negative cluster is indented (each copy is nearer the origin than
    # its point), so its indented lead is the lead -2.0 on line 0, not its
    # copy -1.7; the positive cluster is the zero cluster and never counts
    real = hand_real("parallel-shifted", [-2.5, -2.0, 2.0, 2.5], shift_s=0.3)
    at_lead0 = check_indented_entry(real, hand_traj(
        real, [-2.0, -2.5, -2.2, -1.7], [0, 0, 1, 1]))
    assert (at_lead0.entries, len(at_lead0.violation_details)) == (1, 0)
    at_lead1 = check_indented_entry(real, hand_traj(
        real, [-1.7, -2.0, -2.5, -2.2, 2.0], [1, 0, 0, 1, 0]))
    assert at_lead1.entries == 0
    # not indented: the indented lead is the lead's copy, 2.3 on line 1
    real = hand_real("parallel-shifted", [0.1, 2.0, 2.5], shift_s=0.3)
    for us, lines, entries in (([2.3, 2.0, 2.5, 2.8], [1, 0, 0, 1], 1),
                               ([2.0, 2.3, 2.8, 2.5], [0, 1, 1, 0], 0),
                               ([2.8, 2.5, 2.0, 2.3], [1, 0, 0, 1], 0)):
        assert check_indented_entry(
            real, hand_traj(real, us, lines)).entries == entries
    # a cluster straddling the origin never counts (only reachable with an
    # unproven shift, where a non-zero cluster can have a copy past 0)
    real = hand_real("parallel-shifted", [-0.875, 0.625], shift_s=0.9375,
                     allow_unproven_shift=True)
    assert clusters_of(real).zero_cluster == 1
    assert check_indented_entry(
        real, hand_traj(real, [-0.875, 0.0625], [0, 1])).entries == 0

    single = hand_real("single-line", [1.0])
    with pytest.raises(ValidationError):
        check_indented_entry(single, run_walk(single))


def test_indented_entry_consecutive(hand_real, hand_traj):
    real = hand_real("parallel-shifted", [-2.5, -2.0, 0.1], shift_s=0.3)
    traj = hand_traj(real, [-2.0, -2.5, -2.2, -1.7], [0, 0, 1, 1],
                     start=Site(-1.2, 1))
    s = check_indented_entry(real, traj)
    assert (s.entries, s.undecided, s.early_exits, s.violation_details) == (1, 0, 0, ())
    # the same whole traversal entered off the lead: no entry, no exit
    traj = hand_traj(real, [-1.7, -2.0, -2.5, -2.2], [1, 0, 0, 1],
                     start=Site(-1.2, 1))
    s = check_indented_entry(real, traj)
    assert (s.entries, s.early_exits) == (0, 0)


def test_indented_entry_early_exit(hand_real, hand_traj):
    real = hand_real("parallel-shifted", [0.1, 2.0, 2.5], shift_s=0.3)
    # entered at the lead 2.3, left for the zero cluster before finishing
    s = check_indented_entry(real, hand_traj(
        real, [2.3, 2.0, 0.1, 2.5, 2.8], [1, 0, 0, 0, 1]))
    assert (s.entries, s.undecided, s.early_exits) == (1, 0, 1)
    assert s.violation_details == ({"cluster": 1, "entry_u": 2.3},)
    # entered off the lead and left early: an early exit, no violation
    s = check_indented_entry(real, hand_traj(real, [2.0, 0.1], [0, 0]))
    assert (s.entries, s.early_exits, s.violation_details) == (0, 1, ())
    # the zero cluster left early does not count
    s = check_indented_entry(real, hand_traj(real, [0.1, 2.3, 0.4], [0, 1, 1]))
    assert (s.entries, s.early_exits) == (1, 1)


def test_indented_entry_cut_prefix(hand_real, hand_traj):
    real = hand_real("parallel-shifted", [0.1, 2.0, 2.5], shift_s=0.3)
    s = check_indented_entry(real, hand_traj(real, [2.3, 2.0], [1, 0]))
    assert (s.entries, s.undecided, s.early_exits, s.violation_details) == (1, 1, 0, ())


# ---------------------------------------------------------------------------
# return events


def test_thinned_events(hand_real, hand_traj):
    real = hand_real("parallel-thinned", [-1.0, 3.0, 4.0, 9.0], line1=[],
                     separation_r=1.0)
    recs = detect_A_events(real, hand_traj(real, [4.0], [0]))
    assert [r.family for r in recs] == [A_K_THINNED] * 2
    assert [r.index for r in recs] == [1, 2]
    assert recs[0].occurred is False          # gap 1 <= r is trivially dead
    assert recs[1].occurred is True           # gap 5 > D(4) + 1 + 1 = 4
    assert recs[1].details["dx"] == 2.0
    assert recs[1].details["rhs"] == 4.0
    assert recs[1].details["ray_x"] == 9.0
    # the last positive point has no in-window successor: right-censored


def test_thinned_events_no_anchor(hand_real, hand_traj):
    real = hand_real("parallel-thinned", [3.0, 9.0, 11.0], line1=[],
                     separation_r=1.0)
    recs = detect_A_events(real, hand_traj(real, [3.0], [0]))
    assert recs[0].occurred is None
    assert "anchor" in recs[0].details["note"]


def test_thinned_events_undecidable_deficiency(hand_real, hand_traj):
    real = hand_real("parallel-thinned", [-1.0, 2.0, 3.0, 9.0], line1=[],
                     separation_r=1.0)
    recs = detect_A_events(real, hand_traj(real, [2.0], [0]))
    assert [r.occurred for r in recs] == [False, None]
    assert "undecidable" in recs[1].details["note"]


def test_shifted_events(hand_real, hand_traj):
    real = hand_real("parallel-shifted", [-1.0, 2.0, 8.0], shift_s=0.3)
    recs = detect_A_events(real, hand_traj(real, [2.0, 2.3], [0, 1]))
    assert len(recs) == 1
    rec = recs[0]
    assert rec.family == A_K_SHIFTED and rec.index == 1
    assert rec.occurred is True               # gap 6 > 2.3 + 1 + 1.3 = 4.6
    assert rec.details["rhs"] == pytest.approx(4.6)
    assert "mirrored" not in rec.details


def test_shifted_events_negative_s_mirrors(hand_real, hand_traj):
    real = hand_real("parallel-shifted", [-8.0, -2.0, 1.0], shift_s=-0.3)
    recs = detect_A_events(real, hand_traj(real, [-2.0, -2.3], [0, 1]))
    assert len(recs) == 1
    assert recs[0].occurred is True
    assert recs[0].details["mirrored"] is True
    assert recs[0].details["x"] == 2.0        # reported in mirrored frame


def test_parallel_band_events(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [-0.5, 4.0, 4.4], separation_r=1.0)
    traj = hand_traj(real, [4.0, 4.4, 4.4, 4.0, -0.5, -0.5],
                     [0, 0, 1, 1, 1, 0])
    recs = detect_A_events(real, traj)
    assert [r.family for r in recs] == [A_M_PARALLEL] * 5
    assert [r.occurred for r in recs] == [None, None, None, None, True]
    assert recs[4].index == 4
    assert all(not r.details["entered"] for r in recs[:4])


def test_events_construction_guard(hand_real):
    single = hand_real("single-line", [1.0])
    with pytest.raises(ValidationError):
        detect_A_events(single, run_walk(single))


# ---------------------------------------------------------------------------
# return implication


def make_povratak_real(hand_real):
    return hand_real("parallel-thinned", [-1.0, 3.0, 4.0, 9.0], line1=[],
                     separation_r=1.0)


def test_povratak_unknown(hand_real, hand_traj):
    real = make_povratak_real(hand_real)
    s = check_povratak(real, hand_traj(real, [4.0], [0]))
    assert (s.occurrences, s.violations, s.unknowns) == (1, 0, 1)


def test_povratak_violation(hand_real, hand_traj):
    real = make_povratak_real(hand_real)
    s = check_povratak(real, hand_traj(real, [4.0, 9.0], [0, 0]))
    assert (s.occurrences, s.violations, s.unknowns) == (1, 1, 0)
    assert s.violation_details[0]["t_ray"] == 2
    assert s.violation_details[0]["t_left"] is None


def test_povratak_satisfied(hand_real, hand_traj):
    real = make_povratak_real(hand_real)
    s = check_povratak(real, hand_traj(real, [4.0, -1.0, 9.0], [0, 0, 0]))
    assert (s.occurrences, s.violations, s.unknowns) == (1, 0, 0)


def test_povratak_degenerate_holds_a_fortiori(hand_real, hand_traj):
    real = make_povratak_real(hand_real)
    s = check_povratak(real, hand_traj(real, [-1.0, 4.0, 9.0], [0, 0, 0]))
    assert (s.occurrences, s.violations, s.unknowns) == (1, 0, 0)


def test_povratak_mirrors_negative_shift(hand_real, hand_traj):
    real = hand_real("parallel-shifted", [-8.0, -2.0, 1.0], shift_s=-0.3)
    s = check_povratak(real, hand_traj(real, [-2.0, -2.3], [0, 1]))
    assert (s.occurrences, s.violations, s.unknowns) == (1, 0, 1)
    # a violation is reported in its event's mirrored frame, and says so:
    # the walk reaches -8 before it ever goes positive
    s = check_povratak(real, hand_traj(real, [-2.0, -2.3, -8.0], [0, 1, 0]))
    assert (s.occurrences, s.violations, s.unknowns) == (1, 1, 0)
    (v,) = s.violation_details
    assert v["mirrored"] is True
    assert (v["x"], v["ray_x"], v["t_ray"], v["t_left"]) == (2.0, 8.0, 3, None)


def test_povratak_construction_guard(hand_real):
    single = hand_real("single-line", [1.0])
    with pytest.raises(ValidationError):
        check_povratak(single, run_walk(single))


def dx_pin_values(spec_for):
    """What dx_pins.json pins, per run and order: sha256 digests of the
    dx-bounds outcome, of the detect_A_events records with their details
    and of the check_povratak summary, each as JSON in order, plus the
    record, verdict and povratak counts.  Each thinned and shifted run of
    the audit_pins.json corpus, and an r=5, s=2.5 shifted regime, is
    checked as the greedy walk, cut at half its length, with steps k, k+1
    swapped for spaced k (summed over the swaps, digests chained), and
    fully shuffled."""
    regimes = (("parallel-thinned", {"separation_r": 1.0}),
               ("parallel-thinned", {"separation_r": 5.0}),
               ("parallel-shifted", {"shift_s": 0.3}),
               ("parallel-shifted", {"shift_s": -0.3}),
               ("parallel-shifted", {"separation_r": 5.0, "shift_s": 2.5}))
    runs = [(c, kw, 50.0, i) for c, kw in regimes for i in range(4)]
    runs += [(c, kw, 1000.0, 0) for c, kw in regimes[1:3] + regimes[4:]]
    out = {}
    for c, kw, L, i in runs:
        real = generate(spec_for(c, window_L=L, **kw), stream_seed(8, i))
        traj = run_walk(real)
        n = len(traj)
        orders = {
            "greedy": [traj], "cut": [cut_prefix(traj, n // 2)],
            "swapped": [swap_steps(traj, k)
                        for k in range(1, n - 1, max(8, n // 64))],
            "shuffled": [reorder_steps(
                traj, np.random.default_rng(i).permutation(n))],
        }
        name = "/".join([c, *(f"{k}={v}" for k, v in kw.items()),
                         f"L={L:g}", str(i)])
        for order, trajs in orders.items():
            digests = [hashlib.sha256() for _ in range(3)]
            records, verdicts, povratak = 0, [0, 0, 0], [0, 0, 0]
            for t in trajs:
                dx = run_checks(real, t, ["dx-bounds"])["dx-bounds"]
                events = detect_A_events(real, t)
                summary = check_povratak(real, t)
                records += dx.checks
                for rec in events:
                    verdicts[(True, False, None).index(rec.occurred)] += 1
                for j, got in enumerate((summary.occurrences,
                                         summary.violations,
                                         summary.unknowns)):
                    povratak[j] += got
                for h, value in zip(digests, (
                        vars(dx), [vars(rec) for rec in events],
                        vars(summary))):
                    h.update(json.dumps(value).encode())
            out[f"{name}/{order}"] = {
                "records": records, "verdicts": verdicts,
                "povratak": povratak,
                "dx_bounds_sha256": digests[0].hexdigest(),
                "events_sha256": digests[1].hexdigest(),
                "povratak_sha256": digests[2].hexdigest(),
            }
    return out


DX_PINS = Path(__file__).parent / "data" / "dx_pins.json"


def test_deficiency_pinned(spec_for):
    # recorded with the per-level deficiency loops that preceded the
    # one-pass compute_Dx; every record, event and povratak verdict must
    # stay the same.  One povratak digest (shift_s=-0.3/L=50/0/shuffled)
    # was re-recorded when its 4 violations gained "mirrored": True
    pinned = json.loads(DX_PINS.read_text())
    got = dx_pin_values(spec_for)
    assert sorted(got) == sorted(pinned)
    assert [name for name in got if got[name] != pinned[name]] == []
    # True, False and None verdicts and povratak violations are reached
    for j in range(3):
        assert any(v["verdicts"][j] for v in pinned.values())
    assert any(v["povratak"][1] for v in pinned.values())


# ---------------------------------------------------------------------------
# structural audits


def test_audit_flags_pair_distance(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [0.9, 1.2, 1.5], separation_r=1.0)
    audit = audit_lemmas(real, hand_traj(real, [1.2, 0.9, 1.5], [0, 0, 1]))
    kinds = {v["kind"] for v in audit.violations}
    assert "pair-distance" in kinds
    assert audit.pair_checks > 0


def test_audit_flags_replay_max(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [1.0, 2.0, 3.0], separation_r=1.0)
    audit = audit_lemmas(real, hand_traj(real, [3.0, 1.0, 2.0], [0, 0, 0]))
    kinds = {v["kind"] for v in audit.violations}
    assert "replay-max" in kinds


def test_audit_flags_empty_interval(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [1.0, 2.0, 3.0], separation_r=1.0)
    audit = audit_lemmas(real, hand_traj(real, [3.0, 2.0, 2.0], [0, 0, 1]))
    kinds = {v["kind"] for v in audit.violations}
    assert "empty-interval" in kinds
    assert audit.empty_interval_checks > 0


def test_audit_rejects_intersecting(spec_for):
    real = generate(spec_for("intersecting"), stream_seed(78, 0))
    with pytest.raises(ValidationError):
        audit_lemmas(real, run_walk(real))


@pytest.mark.parametrize("construction", [
    "single-line", "parallel-duplicated", "parallel-thinned",
    "parallel-shifted",
])
def test_audit_clean_on_generated_runs(spec_for, construction):
    for i in range(6):
        real = generate(spec_for(construction), stream_seed(79, i))
        audit = audit_lemmas(real, run_walk(real))
        assert audit.violations == []
        if construction == "single-line":
            # 1D sweeps consume everything: both replay conditions vacuous
            assert audit.replay_checks == 0
            assert audit.empty_interval_checks == 0
        else:
            assert audit.pair_checks > 0


def audits_by_definition(real, traj):
    """audit_lemmas' counts and violations by brute force: every pair of
    sorted shadows by offset, and each step against the set of points not
    visited before it."""
    pts = sorted([(u, 0, v) for u, v in zip(real.line0.tolist(),
                                             traj.visited_step0.tolist())]
                 + [(u, 1, v) for u, v in zip(real.line1.tolist(),
                                               traj.visited_step1.tolist())],
                 key=lambda p: p[0])
    mu = [p[0] for p in pts]
    step = [p[2] if p[2] >= 1 else math.inf for p in pts]
    seen = [traj.start.u] + traj.us.tolist()
    counts, out = [0, 0, 0], []
    if real.spec.kind == "parallel":
        r = real.spec.separation_r
        for o in range(1, len(pts)):
            for i in range(len(pts) - o):
                x, y = mu[i], mu[i + o]
                if not (0.0 < y - x <= r and pts[i][1] != pts[i + o][1]):
                    continue
                counts[0] += 1
                gate = next((float(t) for t in range(len(seen))
                             if min(seen[:t + 1]) <= x
                             and max(seen[:t + 1]) >= y), math.inf)
                t_break = float(min(step[i], step[i + o]))
                if gate < t_break:
                    out.append({"kind": "pair-distance", "x": x, "y": y,
                                "gate": gate, "t_break": t_break})
    for t in range(1, len(seen)):
        q = step.index(t)
        u, z = mu[q], seen[t - 1]
        a, b = min(seen[:t]), max(seen[:t])
        if a <= u <= z:
            counts[1] += 1
            expected = max(m for m, s in zip(mu, step) if s >= t and m <= z)
            if expected != u:
                out.append({"kind": "replay-max", "step": t, "u": u, "z": z,
                            "expected": expected})
        twin = any(m == u and s > t for m, s in zip(mu, step))
        if not twin and z >= u and a < u:
            counts[2] += 1
            inside = min((m for m, s in zip(mu, step) if s > t and m > u),
                         default=math.inf)
            if inside <= b:
                out.append({"kind": "empty-interval", "step": t, "c": u,
                            "b_prev": b, "alive_inside": inside})
    return counts, out


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["single-line", "parallel-duplicated",
                        "parallel-thinned", "parallel-shifted"]),
       st.lists(quarters, min_size=1, max_size=9, unique=True),
       st.lists(quarters, max_size=9, unique=True),
       st.sampled_from([0.5, 1.0, 2.0]), quarters, st.randoms(),
       st.floats(0.0, 1.0))
def test_audits_match_definition(hand_real, hand_traj, construction, line0,
                                 line1, r, start_u, rnd, keep):
    # any visit order, cut anywhere, from any start: the greedy walk's
    # facts fail often, so every violation kind is compared too
    real = hand_real(construction, sorted(line0), sorted(line1),
                     separation_r=r, shift_s=r / 4)
    order = [(u, 0) for u in real.line0] + [(u, 1) for u in real.line1]
    rnd.shuffle(order)
    order = order[:round(keep * len(order))]
    traj = hand_traj(real, [u for u, _ in order], [l for _, l in order],
                     start=Site(start_u, 0))
    audit = audit_lemmas(real, traj)
    counts = [audit.pair_checks, audit.replay_checks,
              audit.empty_interval_checks]
    assert (counts, audit.violations) == audits_by_definition(real, traj)


def audit_pin_values(spec_for):
    """What audit_pins.json pins, per run and order: the three audit
    counts, the violation count per kind, and sha256 digests of the
    violation lists (JSON, in order) and of the last_visit_steps bytes.
    Each run is audited as the greedy walk, cut at half its length, with
    steps k, k+1 swapped for every 8th k (summed over the swaps, digests
    chained), with its middle third reversed, and fully shuffled; only the
    non-greedy orders reach violations."""
    kinds = ("pair-distance", "replay-max", "empty-interval")
    runs = [(c, kw, 50.0, i)
            for c, kw in (("single-line", {}), ("parallel-duplicated", {}),
                          ("parallel-thinned", {"separation_r": 1.0}),
                          ("parallel-thinned", {"separation_r": 5.0}),
                          ("parallel-shifted", {"shift_s": 0.3}),
                          ("parallel-shifted", {"shift_s": -0.3}))
            for i in range(4)]
    runs += [("parallel-duplicated", {}, 1000.0, 0),
             ("parallel-thinned", {"separation_r": 5.0}, 1000.0, 0),
             ("parallel-shifted", {"shift_s": 0.3}, 1000.0, 0)]
    out = {}
    for c, kw, L, i in runs:
        real = generate(spec_for(c, window_L=L, **kw), stream_seed(8, i))
        traj = run_walk(real)
        n = len(traj)
        middle = np.arange(n)
        middle[n // 3:2 * n // 3] = middle[n // 3:2 * n // 3][::-1]
        orders = {
            "greedy": [traj], "cut": [cut_prefix(traj, n // 2)],
            "swapped": [swap_steps(traj, k) for k in range(1, n - 1, 8)],
            "reversed": [reorder_steps(traj, middle)],
            "shuffled": [reorder_steps(
                traj, np.random.default_rng(i).permutation(n))],
        }
        name = "/".join([c, *(f"{k}={v}" for k, v in kw.items()),
                         f"L={L:g}", str(i)])
        for order, trajs in orders.items():
            checks, found = [0, 0, 0], [0, 0, 0]
            violations, last = hashlib.sha256(), hashlib.sha256()
            for t in trajs:
                audit = audit_lemmas(real, t)
                for j, got in enumerate((audit.pair_checks,
                                         audit.replay_checks,
                                         audit.empty_interval_checks)):
                    checks[j] += got
                    found[j] += sum(v["kind"] == kinds[j]
                                    for v in audit.violations)
                violations.update(json.dumps(audit.violations).encode())
                last.update(last_visit_steps(real, t).astype("<f8").tobytes())
            out[f"{name}/{order}"] = {
                "checks": checks, "violations": found,
                "violations_sha256": violations.hexdigest(),
                "last_visit_sha256": last.hexdigest(),
            }
    return out


AUDIT_PINS = Path(__file__).parent / "data" / "audit_pins.json"


def test_audits_pinned(spec_for):
    # recorded with the step-by-step replay audit and the per-offset pair
    # scan that preceded the visit-step queries; every count, violation and
    # last-visit step must stay the same
    pinned = json.loads(AUDIT_PINS.read_text())
    got = audit_pin_values(spec_for)
    assert sorted(got) == sorted(pinned)
    assert [name for name in got if got[name] != pinned[name]] == []
    # every kind of check and of violation is reached
    for j in range(3):
        assert any(v["checks"][j] for v in pinned.values())
        assert any(v["violations"][j] for v in pinned.values())
