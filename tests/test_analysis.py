"""Trajectory analysis: first passages, deficiency records, landmark and
cluster machinery, return events, and the structural audits.

Fixture trajectories are hand-built (see conftest.hand_traj), so expected
values are checked against pencil-and-paper runs of the definitions.
"""

import hashlib
import json
import math
import random
import re
from dataclasses import astuple, fields, replace
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from gwlab import (
    PARALLEL_CONSTRUCTIONS,
    RUN_TO_EXHAUSTION,
    DeficiencyRecords,
    EventTable,
    PovratakSummary,
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
    run_walk,
    stream_seed,
    validate_dx_record,
)
from gwlab import analysis, experiments, processes, walk
from gwlab.checks import CHECKS
from gwlab.walk import Trajectory
from gwlab.analysis import (
    A_K_SHIFTED,
    A_K_THINNED,
    A_M_PARALLEL,
    first_passage,
    last_visit_steps,
    sweep_counts,
)
from gwlab.experiments import (
    ExperimentConfig,
    RunSummary,
    coupled_window_study,
    run_experiment,
)

import oracles
from oracles import (
    couple_restrict,
    mirror_realization,
    mirror_trajectory,
    reduce_to_cluster_leads,
)

EXH = StopRule(mode=RUN_TO_EXHAUSTION)


# ---------------------------------------------------------------------------
# first passages


def test_hitting_times(hand_real, hand_traj):
    real = hand_real("single-line", [-1.0, 0.0, 1.0, 2.0, 3.0])
    traj = hand_traj(real, [1.0, 2.0, -1.0, 3.0], [0, 0, 0, 0])
    # the origin, where the walk starts, counts as step 0
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


def test_compute_dx_waits_for_the_last_copy(hand_real, hand_traj):
    # 1.0 stays interior at level 2.0, reached at step 2, while either of
    # its copies is unvisited: here one is visited at step 1, the other at 3
    real = hand_real("parallel-duplicated", [1.0, 2.0, 3.0])
    for lines in ([0, 0, 1], [1, 0, 0]):
        traj = hand_traj(real, [1.0, 2.0, 1.0], lines)
        for records in (compute_Dx, oracles.compute_Dx_numpy):
            dx = records(real, traj, np.array([2.0, 3.0]))
            # max(2*1 - 0 - 2, 2*2 - 1 - 2); level 3.0 is not reached
            assert dx.value[0] == 1.0 and math.isnan(dx.value[1])
            assert dx.n_interior.tolist() == [1, 0]


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
    # a level <= 0, or levels not in one row, refused before the pass
    for levels in (0.0, [[10.0]], [[3.0, 10.0], [4.0, 11.0]]):
        with pytest.raises(ValidationError, match="ascending row"):
            compute_Dx(real, traj, levels)


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
    sites = [0.0, *traj.us.tolist()]
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
       st.randoms(), st.floats(0.0, 1.0))
def test_deficiency_records_match_definition(hand_real, hand_traj,
                                             construction, line0, line1,
                                             levels, rnd, keep):
    # any visit order, cut anywhere; levels at the base points and between
    # them
    real = hand_real(construction, sorted(line0), sorted(line1),
                     separation_r=1.0, shift_s=0.25)
    order = [(u, 0) for u in real.line0] + [(u, 1) for u in real.line1]
    rnd.shuffle(order)
    order = order[:round(keep * len(order))]
    traj = hand_traj(real, [u for u, _ in order], [l for _, l in order])
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


def numpy_cluster_visits(dec, traj):
    """The reference cluster-visit table, on the arrays cluster_visits
    hands its compiled pass."""
    return oracles.cluster_visits_numpy(traj.visited_step0,
                                        traj.visited_step1, dec.starts,
                                        len(traj))


def differing_columns(a, b):
    """The fields in which two tables of one dataclass differ in dtype,
    shape or any bit: NaN positions and zero signs count."""
    def key(column):
        column = np.asarray(column)
        return column.dtype, column.shape, column.tobytes()

    return [f.name for f in fields(a)
            if key(getattr(a, f.name)) != key(getattr(b, f.name))]


def drawn_run(hand_real, hand_traj, construction, line0, line1, rnd, walked,
              keep, mirrored):
    """A run on the drawn lines: the greedy walk to exhaustion, or every
    point in a shuffled order, with two steps swapped, cut after a `keep`
    share of its steps and, when mirrored, reflected through the origin."""
    real = hand_real(construction, sorted(line0), sorted(line1),
                     separation_r=1.0, shift_s=0.25)
    if walked:
        traj = run_walk(real, rule=EXH)
    else:
        order = [(u, 0) for u in real.line0] + [(u, 1) for u in real.line1]
        rnd.shuffle(order)
        traj = hand_traj(real, [u for u, _ in order], [l for _, l in order])
    if len(traj) >= 2:
        traj = swap_steps(traj, rnd.randint(1, len(traj) - 1))
    traj = cut_prefix(traj, round(keep * len(traj)))
    if mirrored:
        real, traj = mirror_realization(real), mirror_trajectory(traj)
    return real, traj


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["single-line", "parallel-duplicated",
                        "parallel-thinned", "parallel-shifted"]),
       st.lists(quarters, max_size=9, unique=True),
       st.lists(quarters, max_size=9, unique=True),
       st.lists(st.one_of(quarters.filter(lambda q: q > 0.0),
                          st.just(math.inf)), max_size=4),
       st.randoms(), st.booleans(), st.floats(0.0, 1.0), st.booleans())
def test_compiled_deficiency_matches_numpy(hand_real, hand_traj,
                                           construction, line0, line1,
                                           levels, rnd, walked, keep,
                                           mirrored):
    # greedy, shuffled, swapped and cut runs, with empty lines, mirrored
    # runs (zeros turn -0.0), and levels that repeat, fall on base points
    # or lie at inf
    real, traj = drawn_run(hand_real, hand_traj, construction, line0, line1,
                           rnd, walked, keep, mirrored)
    xs = np.sort(np.append(real.base_points[real.base_points > 0.0], levels))
    assert differing_columns(compute_Dx(real, traj, xs),
                             oracles.compute_Dx_numpy(real, traj, xs)) == []


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
    # the product of these two shadows underflows to -0.0, their signs
    # still differ
    tiny = hand_real("single-line", [-3e-170, 2e-170], window_L=1e-150)
    traj = run_walk(tiny, rule=EXH)
    assert traj.us.tolist() == [2e-170, -3e-170]
    assert detect_crossings(traj) == 1
    assert extract_halfline_changes(traj).tolist() == [1]


def test_extract_halfline_changes(hand_real, hand_traj):
    real = hand_real("single-line", [-1.0, 1.0, 2.0, 3.0])
    traj = hand_traj(real, [1.0, 2.0, -1.0, 3.0], [0, 0, 0, 0])
    assert extract_halfline_changes(traj).tolist() == [2, 3]

    par = hand_real("parallel-duplicated", [-1.0, 1.0, 2.0], separation_r=1.0)
    traj = hand_traj(par, [1.0, 2.0, -1.0, 1.0], [0, 1, 1, 1])
    # line change, then sign change, then a same-half-line step
    assert extract_halfline_changes(traj).tolist() == [1, 2, 3]
    # no step and one step have no pair of steps to compare
    for us, lines in (([], []), ([1.0], [0])):
        got = extract_halfline_changes(hand_traj(par, us, lines))
        assert got.tolist() == [] and got.dtype == np.int64


def test_uv_single_record(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [-4.0, -2.5, 1.0, 2.0, 3.0],
                     separation_r=1.0)
    traj = hand_traj(real, [1.0, 2.0, 3.0, -2.5, -4.0], [0, 0, 0, 1, 1])
    recs = extract_UV_sequences(traj)
    assert len(recs) == 1
    rec = recs[0]
    assert (rec.n, rec.j, rec.k) == (1, 3, 1)
    assert (rec.u_U, rec.line_U, rec.u_V, rec.line_V) == (1.0, 0, 3.0, 0)
    assert rec.verdict == "B"


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
    assert (recs[1].u_U, recs[1].line_U) == (-2.5, 1)


def uv_pin_values(spec_for):
    """What uv_pins.json pins, per run and order: the number of landmark
    records, the B and C verdict counts and a sha256 digest of every
    record (its fields, n, j, k, U, V, verdict) as JSON in order.
    Intersecting walks at three angles, each named by its start, the
    origin, are taken greedy, cut at half their length, with steps k, k+1
    swapped for every 7th k (summed over the swaps, digests chained), and
    fully shuffled."""
    alphas = {"pi/3": math.pi / 3, "pi/2": math.pi / 2,
              "2pi/3": 2 * math.pi / 3}
    runs = [(a, 50.0, i) for a in alphas for i in range(0, 24, 3)]
    runs += [(a, 400.0, 0) for a in alphas]
    out = {}
    for a, L, i in runs:
        spec = spec_for("intersecting", window_L=L, alpha=alphas[a])
        real = generate(spec, stream_seed(14, i))
        traj = run_walk(real)
        n = len(traj)
        orders = {
            "greedy": [traj], "cut": [cut_prefix(traj, n // 2)],
            "swapped": [swap_steps(traj, k) for k in range(1, n - 1, 7)],
            "shuffled": [reorder_steps(
                traj, np.random.default_rng(i).permutation(n))],
        }
        name = f"alpha={a}/L={L:g}/{i}/start=0,0"
        for order, trajs in orders.items():
            digest = hashlib.sha256()
            records, verdicts = 0, [0, 0]
            for t in trajs:
                recs = extract_UV_sequences(t)
                records += len(recs)
                for r in recs:
                    verdicts["BC".index(r.verdict)] += 1
                digest.update(json.dumps(list(map(astuple, recs))).encode())
            out[f"{name}/{order}"] = {"records": records,
                                      "verdicts": verdicts,
                                      "records_sha256": digest.hexdigest()}
    return out


UV_PINS = Path(__file__).parent / "data" / "uv_pins.json"


def test_uv_sequences_pinned(spec_for):
    # recorded with the nested-loop extraction that preceded the one
    # forward pass over the half-line changes; every record must stay
    pinned = json.loads(UV_PINS.read_text())
    got = uv_pin_values(spec_for)
    assert sorted(got) == sorted(pinned)
    assert [name for name in got if got[name] != pinned[name]] == []
    # both verdicts are reached
    for j in range(2):
        assert any(v["verdicts"][j] for v in pinned.values())


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


def reduceat_leads(us, starts):
    """Per run of the sorted us beginning at starts, the index of its
    (|u|, -u)-minimal element, by a min and a max per run: the rule
    decompose_clusters computed before it clipped one global lead."""
    a = np.abs(us)
    least = np.repeat(np.minimum.reduceat(a, starts),
                      np.diff(np.append(starts, len(us))))
    return np.maximum.reduceat(np.where(a == least, np.arange(len(us)), -1),
                               starts)


@st.composite
def signed_points(draw):
    """Sorted distinct points on a grid of `unit`: mixed signs with exact
    |u| ties, all negative (a zero turns -0.0) or all positive."""
    unit = draw(st.sampled_from([1e-12, 1e-9, 0.25, 1.0, 3.0, 1e6, 1e9]))
    ks = draw(st.lists(st.integers(0, 40), min_size=1, max_size=25))
    signs = draw(st.sampled_from(["mixed", "negative", "positive"]))
    us = []
    for k in ks:
        if signs == "mixed":
            us += [k * unit, -k * unit][:draw(st.integers(1, 2))]
            if draw(st.booleans()):
                us.reverse()
        else:
            us.append((-1.0 if signs == "negative" else 1.0) * k * unit)
    return np.unique(np.array(us, dtype=np.float64))


@settings(max_examples=1000, deadline=None)
@given(signed_points(),
       st.one_of(st.integers(-9, 9).map(lambda e: 10.0 ** e),
                 st.floats(1e-9, 1e9), st.sampled_from([0.25, 1.0, 3.0])))
def test_decompose_leads_match_reduceat(pts, thr):
    # the clipped global lead against the per-cluster reduceat, by value
    # and dtype, ties of +k and -k, -0.0 and one-sided sets included
    dec = decompose_clusters(pts, thr)
    starts = np.flatnonzero(np.diff(pts, prepend=-np.inf) >= thr)
    leads = reduceat_leads(pts, starts)
    zero = int(reduceat_leads(pts[leads], np.zeros(1, dtype=np.int64))[0])
    for got, want in ((dec.starts, starts), (dec.leads, leads)):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert type(dec.zero_cluster) is int and dec.zero_cluster == zero


# ---------------------------------------------------------------------------
# reduced walk and traversal discipline (duplicated pairs)


def cut_prefix(traj, k):
    """The first k steps of traj, as a walk stopped after step k reports
    them."""
    def seen(vis):
        return np.where(vis <= k, vis, -1)

    return Trajectory(us=traj.us[:k], lines=traj.lines[:k],
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

    return Trajectory(us=traj.us[order],
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


@pytest.mark.parametrize("construction", ["single-line", "intersecting",
                                          "parallel-shifted"])
def test_oracle_mismatch_names_its_first_differing_step(spec_for,
                                                        construction):
    # the step the walks part at, or one past a walk cut short
    real = generate(spec_for(construction, window_L=10.0), stream_seed(61, 0))
    traj = run_walk(real)
    n = len(traj)
    assert n > 3
    check = CHECKS["oracle-equivalence"]
    for k in (1, n // 2, n - 1):
        [detail] = check.per_run(real, swap_steps(traj, k)).details
        assert detail["step"] == k
    [detail] = check.per_run(real, cut_prefix(traj, n - 2)).details
    assert detail["step"] == n - 1
    assert check.per_run(real, traj).details == []


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
    # no step and one step, even off a lead, have no transition
    for us, lines in (([], []), ([4.4], [0])):
        assert check_reduced_alignment(
            real, hand_traj(real, us, lines)) is True


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


def test_traversal_verdict_implies_alignment(spec_for):
    # unless the traversal verdict is False, each entered non-zero cluster
    # is one block of steps entered and, if finished, left at its lead, so
    # every step between clusters leaves or lands on a lead or the zero
    # cluster; cluster-traversal counts from the verdict alone
    rng = np.random.default_rng(5)
    seen = set()
    for i in range(30):
        r = (0.5, 1.0, 2.0)[i % 3]
        real = generate(spec_for("parallel-duplicated", separation_r=r,
                                 window_L=30.0), stream_seed(5, i))
        traj = run_walk(real)
        n = len(traj)
        walks = [traj, reorder_steps(traj, rng.permutation(n)),
                 *(swap_steps(traj, k) for k in range(1, n - 1, 5))]
        walks += [cut_prefix(t, int(rng.integers(1, n + 1))) for t in walks]
        for t in walks:
            consec = check_cluster_consecutive(real, t)
            aligned = check_reduced_alignment(real, t)
            assert consec is False or aligned
            seen.add((consec, aligned))
    assert seen == {(True, True), (None, True), (False, False), (False, True)}


def entry_counts(real, trajs):
    """The indented-entry counts per trajectory, as "e.v.u.x" words."""
    return " ".join(
        ".".join(str(v) for v in
                 CHECKS["indented-entry"].per_run(real, t).counts.values())
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


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["parallel-duplicated", "parallel-shifted"]),
       st.lists(quarters, max_size=12, unique=True),
       st.sampled_from([0.25, 1.0, 2.5, 100.0]),
       st.randoms(), st.booleans(), st.floats(0.0, 1.0), st.booleans())
def test_compiled_cluster_visits_match_numpy(hand_real, hand_traj,
                                             construction, line0, threshold,
                                             rnd, walked, keep, mirrored):
    # the construction's clusters and coarser or finer ones, on greedy,
    # shuffled, swapped, cut and mirrored runs, empty lines included
    real, traj = drawn_run(hand_real, hand_traj, construction, line0, [],
                           rnd, walked, keep, mirrored)
    for dec in (clusters_of(real), decompose_clusters(real.line0, threshold)):
        assert differing_columns(cluster_visits(dec, traj),
                                 numpy_cluster_visits(dec, traj)) == []


def test_cluster_visits_of_inconsistent_steps(hand_real, hand_traj):
    # a step that two copies claim maps to the copy numpy writes last
    # (line 1 after line 0, a higher index after a lower one), even in a
    # cluster that copy is not in; the compiled table is numpy's
    real = hand_real("parallel-duplicated", [-0.5, 4.0, 4.4])
    good = hand_traj(real, [4.0, 4.0, 4.4, 4.4], [0, 1, 1, 0])
    dec = clusters_of(real)
    odd = [replace(good, visited_step1=np.array([1, 2, 3])),
           replace(good, visited_step0=np.array([2, 1, 4])),
           replace(good, visited_step0=np.array([-1, 1, 1]))]
    for traj in odd:
        assert differing_columns(cluster_visits(dec, traj),
                                 numpy_cluster_visits(dec, traj)) == []
    # step 1 is -0.5's copy on line 1 and 4.0 on line 0
    t = cluster_visits(dec, odd[0])
    assert (t.entry_line.tolist(), t.entry_index.tolist()) == ([1, 1], [0, 0])


def test_cluster_visits_needs_shared_indexes(spec_for):
    # a thinned run's lines differ in length (21 and 22 points here)
    real = generate(spec_for("parallel-thinned", window_L=10.0), 3)
    assert len(real.line0) != len(real.line1)
    with pytest.raises(ValidationError):
        cluster_visits(clusters_of(real), run_walk(real))


# the rule each pass refuses a run by, which its callers raise too
RULES = {"deficiency": analysis._DX_RULE, "audit": analysis._AUDIT_RULE,
         "cluster": analysis._CLUSTER_RULE}


def callers_by_pass(real):
    """The public callers of each pass that apply to real, by pass."""
    c = real.spec.construction
    xs = real.base_points[real.base_points > 0.0]
    callers = {"deficiency": [lambda t: compute_Dx(real, t, xs)],
               "audit": [], "cluster": []}
    if c != "intersecting":
        callers["audit"].append(lambda t: audit_lemmas(real, t))
    if c in ("parallel-duplicated", "parallel-shifted"):
        dec = clusters_of(real)
        callers["cluster"].append(lambda t: cluster_visits(dec, t))
    if c == "parallel-duplicated":
        callers["cluster"] += [lambda t: check_cluster_consecutive(real, t),
                               lambda t: detect_A_events(real, t)]
    elif c in ("parallel-thinned", "parallel-shifted"):
        callers["deficiency"] += [lambda t: detect_A_events(real, t),
                                  lambda t: check_povratak(real, t)]
    return callers


def references_by_pass(real):
    """Each pass's reference in tests/oracles.py, called as callers_by_pass
    calls the pass, for the passes that apply to real."""
    xs = real.base_points[real.base_points > 0.0]
    refs = {"deficiency": [lambda t: oracles.compute_Dx_numpy(real, t, xs)],
            "audit": [], "cluster": []}
    if real.spec.construction != "intersecting":
        refs["audit"].append(lambda t: oracles.audit_numpy(real, t))
    if real.spec.construction in ("parallel-duplicated", "parallel-shifted"):
        dec = clusters_of(real)
        refs["cluster"].append(lambda t: numpy_cluster_visits(dec, t))
    return refs


@pytest.mark.parametrize("compiled", [True, False])
def test_cluster_visits_refuse_steps_off_the_prefix(spec_for, compiled):
    # a visit step past the last step, or 0, or below -1, is no step of the
    # prefix: every compiled pass refuses it, and so does each caller of
    # one, and each pass's numpy reference refuses it by the same rule
    for construction in ("parallel-duplicated", "parallel-thinned",
                         "parallel-shifted"):
        real = generate(spec_for(construction, window_L=10.0), 3)
        traj = run_walk(real)
        n = len(traj)
        by_pass = (callers_by_pass if compiled else references_by_pass)(real)
        if compiled:  # the gap events of thinned and shifted runs compute
            # deficiency records, in detect_A_events and check_povratak
            assert len(by_pass["deficiency"]) == (
                1 if construction == "parallel-duplicated" else 3)
        callers = [(call, RULES[name]) for name, calls in by_pass.items()
                   for call in calls]
        for call, _ in callers:
            call(traj)
        for line in ("visited_step0", "visited_step1"):
            for step in (n + 5, n + 1, 0, -2):
                vis = getattr(traj, line).copy()
                vis[0] = step
                bad = replace(traj, **{line: vis})
                for call, rule in callers:
                    with pytest.raises(ValidationError,
                                       match=re.escape(rule)):
                        call(bad)


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
    traj = hand_traj(real, [-2.0, -2.5, -2.2, -1.7], [0, 0, 1, 1])
    s = check_indented_entry(real, traj)
    assert (s.entries, s.undecided, s.early_exits, s.violation_details) == (1, 0, 0, ())
    # the same whole traversal entered off the lead: no entry, no exit
    traj = hand_traj(real, [-1.7, -2.0, -2.5, -2.2], [1, 0, 0, 1])
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
    ev = detect_A_events(real, hand_traj(real, [4.0], [0]))
    assert ev.family == A_K_THINNED and len(ev) == 2
    assert ev.index.tolist() == [1, 2]
    assert ev.occurred[0] == 0                # gap 1 <= r is trivially dead
    assert ev.occurred[1] == 1                # gap 5 > D(4) + 1 + 1 = 4
    assert ev.dx[1] == 2.0
    assert ev.rhs[1] == 4.0
    assert ev.ray_x[1] == 9.0
    # the last positive point has no in-window successor: right-censored


def test_thinned_events_no_anchor(hand_real, hand_traj):
    real = hand_real("parallel-thinned", [3.0, 9.0, 11.0], line1=[],
                     separation_r=1.0)
    ev = detect_A_events(real, hand_traj(real, [3.0], [0]))
    assert ev.occurred[0] == -1
    assert ev.note[0] == 1                    # no anchor point <= 0


def test_thinned_events_undecidable_deficiency(hand_real, hand_traj):
    real = hand_real("parallel-thinned", [-1.0, 2.0, 3.0, 9.0], line1=[],
                     separation_r=1.0)
    ev = detect_A_events(real, hand_traj(real, [2.0], [0]))
    assert ev.occurred.tolist() == [0, -1]
    assert ev.note[1] == 2                    # the deficiency is undecidable


def test_shifted_events(hand_real, hand_traj):
    real = hand_real("parallel-shifted", [-1.0, 2.0, 8.0], shift_s=0.3)
    ev = detect_A_events(real, hand_traj(real, [2.0, 2.3], [0, 1]))
    assert len(ev) == 1
    assert ev.family == A_K_SHIFTED and ev.index[0] == 1
    assert ev.occurred[0] == 1                # gap 6 > 2.3 + 1 + 1.3 = 4.6
    assert ev.rhs[0] == pytest.approx(4.6)
    assert not ev.mirrored


def test_shifted_events_negative_s_mirrors(hand_real, hand_traj):
    real = hand_real("parallel-shifted", [-8.0, -2.0, 1.0], shift_s=-0.3)
    ev = detect_A_events(real, hand_traj(real, [-2.0, -2.3], [0, 1]))
    assert len(ev) == 1
    assert ev.occurred[0] == 1
    assert ev.mirrored
    assert ev.x[0] == 2.0                     # reported in mirrored frame


def test_parallel_band_events(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [-0.5, 4.0, 4.4], separation_r=1.0)
    traj = hand_traj(real, [4.0, 4.4, 4.4, 4.0, -0.5, -0.5],
                     [0, 0, 1, 1, 1, 0])
    ev = detect_A_events(real, traj)
    assert ev.family == A_M_PARALLEL and len(ev) == 5
    assert ev.occurred.tolist() == [-1, -1, -1, -1, 1]
    assert ev.index[4] == 4
    assert not ev.entered[:4].any()


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


# ---------------------------------------------------------------------------
# the event table against its reference, oracles.oracle_events


def oracle_povratak(real, traj):
    """check_povratak over the oracle's records."""
    occurred = [rec for rec in oracles.oracle_events(real, traj)
                if rec.occurred is True]
    if real.spec.construction == "parallel-shifted" and real.spec.shift_s < 0:
        traj = mirror_trajectory(traj)  # the frame of the events' details
    checked = [rec for rec in occurred if not rec.details["degenerate"]]
    t_left = first_passage(traj, [0.0], down=True, strict=True)[0]
    t_ray = first_passage(traj, [rec.details["ray_x"] for rec in checked])

    def step(t):
        return int(t) if t < np.inf else None

    details = tuple({"family": rec.family, "index": rec.index,
                     "t_ray": step(t), "t_left": step(t_left), **rec.details}
                    for rec, t in zip(checked, t_ray) if t < t_left)
    unknowns = int(np.count_nonzero(np.isinf(t_ray) & np.isinf(t_left)))
    return PovratakSummary(len(occurred), len(details), unknowns, details)


_NOTES = (None, "no anchor point <= 0 in window",
          "deficiency undecidable within prefix")
# each cell's value where a row leaves it out
_EMPTY_CELLS = {**dict.fromkeys(("x", "next_x", "gap", "rhs", "dx", "ray_x"),
                                math.nan),
                "degenerate": False, "note": 0, "entered": False}


def event_rows(events):
    """The table's rows as the oracle renders its records: family, index,
    verdict and the details dict, in Python scalars.  Every cell a row's
    details leave out must hold its empty value, so that a wrong entry in
    any column shows."""
    cols = {c: getattr(events, c).tolist() for c in _EMPTY_CELLS}
    verdicts = {1: True, 0: False, -1: None}
    rows = []
    for i, (k, v) in enumerate(zip(events.index.tolist(),
                                   events.occurred.tolist())):
        if events.family == A_M_PARALLEL:
            details = {"entered": cols["entered"][i]}
        else:
            details = {c: cols[c][i] for c in ("x", "next_x", "gap")}
            if events.mirrored:
                details["mirrored"] = True
            if cols["note"][i]:
                details["note"] = _NOTES[cols["note"][i]]
            elif not math.isnan(cols["ray_x"][i]):
                details.update({c: cols[c][i] for c in
                                ("rhs", "dx", "degenerate", "ray_x")})
        for c, empty in _EMPTY_CELLS.items():
            assert c in details or repr(cols[c][i]) == repr(empty), (i, c)
        rows.append({"family": events.family, "index": k,
                     "occurred": verdicts[v], "details": details})
    return rows


def assert_events_match_oracle(real, traj):
    """Rows, fields, key order and value types (repr tells True from 1,
    a float from np.float64 and 0.0 from -0.0) all agree, and so do the
    verdicts the table's iteration gives."""
    events = detect_A_events(real, traj)
    assert isinstance(events, EventTable)
    want = [vars(rec) for rec in oracles.oracle_events(real, traj)]
    assert repr(event_rows(events)) == repr(want)
    assert repr([vars(rec) for rec in events]) == repr(
        [{k: row[k] for k in ("family", "index", "occurred")} for row in want])
    assert len(events) == len(want)
    if real.spec.construction != "parallel-duplicated":
        assert (repr(vars(check_povratak(real, traj)))
                == repr(vars(oracle_povratak(real, traj))))
    return events


EVENT_REGIMES = (("parallel-thinned", {"separation_r": 1.0}),
                 ("parallel-thinned", {"separation_r": 5.0}),
                 ("parallel-shifted", {"shift_s": 0.3}),
                 ("parallel-shifted", {"shift_s": -0.3}),
                 ("parallel-shifted", {"separation_r": 5.0, "shift_s": 2.5}),
                 ("parallel-duplicated", {"separation_r": 1.0}))


@pytest.mark.parametrize("construction,kw", EVENT_REGIMES,
                         ids=lambda v: v if isinstance(v, str) else
                         ",".join(f"{k}={x}" for k, x in v.items()))
def test_event_table_matches_oracle(spec_for, construction, kw):
    # the dx_pin_values regimes plus duplicated r=1, each as the greedy
    # walk, cut at half its length and fully shuffled
    verdicts = {True: 0, False: 0, None: 0}
    for i in range(6):
        L = 300.0 if i == 0 else 50.0
        real = generate(spec_for(construction, window_L=L, **kw),
                        stream_seed(15, i))
        traj = run_walk(real)
        n = len(traj)
        for t in (traj, cut_prefix(traj, n // 2), reorder_steps(
                traj, np.random.default_rng(i).permutation(n))):
            events = assert_events_match_oracle(real, t)
            for rec in events:
                verdicts[rec.occurred] += 1
    assert sum(verdicts.values()) > 0
    if kw.get("separation_r", 1.0) == 1.0:
        # at r=1 every verdict state the family has occurs
        assert verdicts[True] and verdicts[None]
        assert verdicts[False] or construction == "parallel-duplicated"


def perturbed(events, column, i):
    """A copy of the table with entry i of the column changed: the next
    float up (1.0 for NaN), the other bool, or the next code."""
    values = getattr(events, column).copy()
    v = values[i]
    if values.dtype == bool:
        values[i] = not v
    elif column == "occurred":
        values[i] = (v + 2) % 3 - 1       # 1 -> -1 -> 0 -> 1
    elif column == "note":
        values[i] = (v + 1) % 3
    else:
        values[i] = 1.0 if np.isnan(v) else np.nextafter(v, np.inf)
    return replace(events, **{column: values})


@pytest.mark.parametrize("column", ["occurred", "x", "next_x", "gap", "rhs",
                                    "dx", "ray_x", "degenerate", "note",
                                    "entered"])
def test_oracle_comparison_fails_on_a_perturbed_column(spec_for, column):
    # the comparison above catches one wrong entry in any column of any row:
    # each run's table as the greedy walk, cut after 5 steps and shuffled
    # holds rows of each verdict, of each family, degenerate and not, and
    # undecided for want of a deficiency level
    seen = set()
    for construction, kw in (("parallel-thinned", {"separation_r": 1.0}),
                             ("parallel-shifted", {"shift_s": 0.3}),
                             ("parallel-shifted", {"shift_s": -0.3}),
                             ("parallel-duplicated", {"separation_r": 1.0})):
        real = generate(spec_for(construction, window_L=50.0, **kw),
                        stream_seed(15, 6))
        traj = run_walk(real)
        for t in (traj, cut_prefix(traj, 5), reorder_steps(
                traj, np.random.default_rng(6).permutation(len(traj)))):
            want = repr([vars(rec) for rec in oracles.oracle_events(real, t)])

            def matches(events):
                try:
                    return repr(event_rows(events)) == want
                except AssertionError:  # a cell left out of its row is set
                    return False

            events = detect_A_events(real, t)
            assert matches(events)
            seen.update(zip(repeat(events.family), events.occurred.tolist(),
                            events.note.tolist(),
                            events.degenerate.tolist()))
            for i in range(len(events)):
                assert not matches(perturbed(events, column, i)), i
    assert {(f, v) for f, v, _, _ in seen} == {
        (f, v) for f in (A_K_THINNED, A_K_SHIFTED, A_M_PARALLEL)
        for v in (1, 0, -1)} - {(A_M_PARALLEL, 0)}
    assert {(A_K_THINNED, -1, 2, False), (A_K_SHIFTED, -1, 2, False),
            (A_K_THINNED, 1, 0, True), (A_K_SHIFTED, 1, 0, False)} <= seen


@pytest.mark.parametrize("construction,line0,kw,us,lines", [
    # no point <= 0: every wide gap has no anchor
    ("parallel-thinned", [3.0, 9.0, 11.0], {}, [3.0], [0]),
    # no gap wider than r: compute_Dx gets zero levels
    ("parallel-thinned", [-1.0, 1.0, 1.5, 2.0], {}, [1.0, 1.5], [0, 0]),
    # a single positive point, with and without a point <= 0
    ("parallel-thinned", [-1.0, 2.0], {}, [2.0], [0]),
    ("parallel-thinned", [2.0], {}, [2.0], [0]),
    # no point at all
    ("parallel-thinned", [], {}, [], []),
    # the level at 2 is undecided at the cut
    ("parallel-thinned", [-1.0, 2.0, 3.0, 9.0], {}, [2.0], [0]),
    # decided: one occurred event, then a violation, then a return
    ("parallel-thinned", [-1.0, 3.0, 4.0, 9.0], {}, [4.0], [0]),
    ("parallel-thinned", [-1.0, 3.0, 4.0, 9.0], {}, [4.0, 9.0], [0, 0]),
    ("parallel-thinned", [-1.0, 3.0, 4.0, 9.0], {}, [-1.0, 4.0, 9.0],
     [0, 0, 0]),
    # a negative shift, undecided and violated
    ("parallel-shifted", [-8.0, -2.0, 1.0], {"shift_s": -0.3},
     [-2.0, -2.3], [0, 1]),
    ("parallel-shifted", [-8.0, -2.0, 1.0], {"shift_s": -0.3},
     [-2.0, -2.3, -8.0], [0, 1, 0]),
    ("parallel-shifted", [-1.0, 2.0, 8.0], {"shift_s": 0.3},
     [2.0, 2.3], [0, 1]),
    # bands never entered, and a walk that never went positive
    ("parallel-duplicated", [-0.5, 4.0, 4.4], {},
     [4.0, 4.4, 4.4, 4.0, -0.5, -0.5], [0, 0, 1, 1, 1, 0]),
    ("parallel-duplicated", [-0.5, 4.0, 4.4], {}, [-0.5, -0.5], [0, 1]),
    # more bands than points, past the table's first room: a second call
    ("parallel-duplicated", [-0.5, 20.0, 20.4], {},
     [20.0, 20.4, 20.4, 20.0, -0.5, -0.5], [0, 0, 1, 1, 1, 0]),
])
def test_event_table_edge_cases(hand_real, hand_traj, construction, line0,
                                kw, us, lines):
    real = hand_real(construction, line0, line1=[], separation_r=1.0, **kw)
    assert_events_match_oracle(real, hand_traj(real, us, lines))


def test_gap_events_without_wide_gap_read_zero_levels(spec_for):
    # thinned r=5 runs with no gap wider than r take the one path through
    # the gap events that asks the deficiency pass for no level: the table
    # is the oracle's, and every event is refuted
    spec = spec_for("parallel-thinned", window_L=50.0, separation_r=5.0)
    reals = [generate(spec, stream_seed(5, i)) for i in range(20)]
    narrow = [real for real in reals if np.diff(real.base_points).max() <= 5.0]
    assert len(narrow) >= 5
    for real in narrow:
        events = assert_events_match_oracle(real, run_walk(real))
        assert len(events) > 0 and not events.occurred.any()


PARALLEL_RUNS = (("parallel-duplicated", {}),
                 ("parallel-thinned", {}),
                 ("parallel-shifted", {"shift_s": 0.3}),
                 ("parallel-shifted", {"shift_s": -0.3}))


def test_events_make_one_compiled_call(spec_for, monkeypatch):
    # the events and the return implication read the table gw_summary
    # writes, in one call, on every parallel construction and a shift of
    # either sign: none of the passes the event rule was once built from
    # runs
    def forbidden(*args, **kwargs):
        raise AssertionError("the events ran a pass outside gw_summary")

    for name in ("compute_Dx", "cluster_visits"):
        monkeypatch.setattr(analysis, name, forbidden)
    # the reduced walk and the mirror images are the references' alone
    for module in (analysis, processes, walk):
        for name in ("reduce_to_cluster_leads", "mirror_realization",
                     "mirror_trajectory"):
            assert not hasattr(module, name)
    lib, calls = walk._kernel(), []

    class Counting:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(lib, name)

    monkeypatch.setattr(walk, "_kernel", Counting)
    for construction, kw in PARALLEL_RUNS:
        real = generate(spec_for(construction, window_L=50.0, **kw), 4)
        traj = run_walk(real)
        calls.clear()
        assert len(detect_A_events(real, traj)) > 0
        if construction != "parallel-duplicated":
            check_povratak(real, traj)
        assert calls == ["gw_summary"] * (
            1 if construction == "parallel-duplicated" else 2)


def test_run_passes_share_one_door(spec_for, monkeypatch):
    # the audits, the deficiency records and the events each hand the
    # compiled library the run in one layout, (F, n0, n1, I, n), in one
    # call whose F and I are the per-thread tables walk._buffers keeps the
    # addresses of
    real = generate(spec_for("parallel-thinned", window_L=50.0), 4)
    traj = run_walk(real)
    xs = real.base_points[real.base_points > 0.0]
    lib, calls = walk._kernel(), []

    class Spy:
        def __getattr__(self, name):
            def call(*args):
                calls.append((name, args))
                return getattr(lib, name)(*args)
            return call

    monkeypatch.setattr(walk, "_kernel", Spy)
    for entry, call in (("gw_audit", lambda: audit_lemmas(real, traj)),
                        ("gw_deficiency", lambda: compute_Dx(real, traj, xs)),
                        ("gw_summary", lambda: detect_A_events(real, traj))):
        calls.clear()
        call()
        pF, pI = walk._buffers(0)[2][:2]
        assert [(name, args[:5]) for name, args in calls] == [
            (entry, (pF, len(real.line0), len(real.line1), pI, len(traj)))]


def test_events_count_what_the_summary_counts(spec_for):
    # the sweep's a_events is the count of occurred events in the table of
    # the run's walk, at the drawn window and at a restriction of it
    for construction, kw in PARALLEL_RUNS:
        spec = spec_for(construction, window_L=50.0, **kw)
        reals = [couple_restrict(generate(spec, stream_seed(34, i)), L)
                 for i in range(3) for L in (50.0, 20.0)]
        tables = [detect_A_events(real, run_walk(real)) for real in reals]
        assert sweep_counts(
            spec, *oracles.pack_runs(reals), audit=False, events=True)[3] == [
                int(np.count_nonzero(t.occurred == 1)) for t in tables]
        assert sum(len(t) for t in tables) > 0


def test_bench_tracer_event_counts(bench_tracer, spec_for):
    # bench/tracer.py counts a detect_A_events result through its verdict
    # iterator: the rows, and those whose verdict is decided
    count = bench_tracer.TRACED["gwlab.analysis"]["detect_A_events"][1]
    # each walk cut where some verdicts are decided and some are not
    for construction, kw, seed, steps in (
            ("parallel-thinned", {}, 1, 2),
            ("parallel-shifted", {"shift_s": -0.3}, 5, 61),
            ("parallel-duplicated", {}, 2, None)):
        real = generate(spec_for(construction, window_L=50.0, **kw), seed)
        traj = run_walk(real)
        traj = cut_prefix(traj, steps or len(traj))
        events = detect_A_events(real, traj)
        decided = int(np.count_nonzero(events.occurred != -1))
        assert 0 < decided < len(events.index)
        assert count(events, (real, traj), {}) == {
            "records": len(events.index), "decided": decided}


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
                dx = CHECKS["dx-bounds"].per_run(real, t)
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
                        vars(dx), event_rows(events), vars(summary))):
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


# the two audit engines, which must give one answer: audit_lemmas, which
# runs the compiled audit, and its numpy reference
AUDITS = (audit_lemmas, oracles.audit_numpy)


def audit_result(audit):
    """A LemmaAudit's three counts and its violations, as JSON text: equal
    text means equal values, zero signs included, in the same order."""
    return ([audit.pair_checks, audit.replay_checks,
             audit.empty_interval_checks], json.dumps(audit.violations))


def test_audit_flags_pair_distance(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [0.9, 1.2, 1.5], separation_r=1.0)
    for run_audit in AUDITS:
        audit = run_audit(real, hand_traj(real, [1.2, 0.9, 1.5], [0, 0, 1]))
        kinds = {v["kind"] for v in audit.violations}
        assert "pair-distance" in kinds
        assert audit.pair_checks > 0


def test_audit_flags_replay_max(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [1.0, 2.0, 3.0], separation_r=1.0)
    for run_audit in AUDITS:
        audit = run_audit(real, hand_traj(real, [3.0, 1.0, 2.0], [0, 0, 0]))
        kinds = {v["kind"] for v in audit.violations}
        assert "replay-max" in kinds


def test_audit_flags_empty_interval(hand_real, hand_traj):
    real = hand_real("parallel-duplicated", [1.0, 2.0, 3.0], separation_r=1.0)
    for run_audit in AUDITS:
        audit = run_audit(real, hand_traj(real, [3.0, 2.0, 2.0], [0, 0, 1]))
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
    sorted shadows, by the first and then the second, and each step
    against the set of points not visited before it."""
    pts = sorted([(u, 0, v) for u, v in zip(real.line0.tolist(),
                                             traj.visited_step0.tolist())]
                 + [(u, 1, v) for u, v in zip(real.line1.tolist(),
                                               traj.visited_step1.tolist())],
                 key=lambda p: p[0])
    mu = [p[0] for p in pts]
    step = [p[2] if p[2] >= 1 else math.inf for p in pts]
    seen = [0.0] + traj.us.tolist()
    counts, out = [0, 0, 0], []
    if real.spec.kind == "parallel":
        r = real.spec.separation_r
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                x, y = mu[i], mu[j]
                if not (0.0 < y - x <= r and pts[i][1] != pts[j][1]):
                    continue
                counts[0] += 1
                gate = next((float(t) for t in range(len(seen))
                             if min(seen[:t + 1]) <= x
                             and max(seen[:t + 1]) >= y), math.inf)
                t_break = float(min(step[i], step[j]))
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
       st.sampled_from([0.5, 1.0, 2.0]), st.randoms(), st.floats(0.0, 1.0))
def test_audits_match_definition(hand_real, hand_traj, construction, line0,
                                 line1, r, rnd, keep):
    # any visit order, cut anywhere: the greedy walk's facts fail often,
    # so every violation kind is compared too
    real = hand_real(construction, sorted(line0), sorted(line1),
                     separation_r=r, shift_s=r / 4)
    order = [(u, 0) for u in real.line0] + [(u, 1) for u in real.line1]
    rnd.shuffle(order)
    order = order[:round(keep * len(order))]
    traj = hand_traj(real, [u for u, _ in order], [l for _, l in order])
    want = audits_by_definition(real, traj)
    for run_audit in AUDITS:
        audit = run_audit(real, traj)
        counts = [audit.pair_checks, audit.replay_checks,
                  audit.empty_interval_checks]
        assert (counts, audit.violations) == want


def audit_pin_values(spec_for, run_audit):
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
                audit = run_audit(real, t)
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
    # last-visit step must stay the same.  The violation digests were
    # re-recorded once, when pair violations moved from offset order to
    # scan order (by i, then j), the order gw_audit's loops find them in:
    # 67 entries moved, all of them non-greedy orders, with their counts
    # and violation multisets unchanged
    pinned = json.loads(AUDIT_PINS.read_text())
    for run_audit in AUDITS:
        got = audit_pin_values(spec_for, run_audit)
        assert sorted(got) == sorted(pinned)
        assert [name for name in got if got[name] != pinned[name]] == []
    # every kind of check and of violation is reached
    for j in range(3):
        assert any(v["checks"][j] for v in pinned.values())
        assert any(v["violations"][j] for v in pinned.values())


@pytest.mark.parametrize("construction", [
    "single-line", "parallel-duplicated", "parallel-thinned",
    "parallel-shifted",
])
def test_audit_engines_agree_at_large_L(spec_for, construction):
    # the greedy walk and the fully shuffled one at L = 20,000, where the
    # shuffled walk breaks every fact tens of thousands of times
    real = generate(spec_for(construction, window_L=20000.0),
                    stream_seed(918, 0))
    traj = run_walk(real)
    shuffled = reorder_steps(
        traj, np.random.default_rng(918).permutation(len(traj)))
    for t in (traj, shuffled):
        want = oracles.audit_numpy(real, t)
        assert audit_result(audit_lemmas(real, t)) == audit_result(want)
    assert len(want.violations) > 10000


def test_audit_engines_agree_on_signed_zeros(hand_real, hand_traj):
    # an empty-interval violation's b_prev is the running max of the
    # shadows from the origin, 0.0, which keeps the later of two equal
    # zeros, as numpy does: a visit to the point at -0.0 turns it -0.0
    real = hand_real("single-line", [-3.0, -1.0, -0.75, -0.5, -0.0, 1.0])
    for us, b_prev in (([-0.0, -3.0, -0.5, -1.0], "-0.0"),
                       ([-3.0, -0.5, -1.0], "0.0")):
        traj = hand_traj(real, us, [0] * len(us))
        got = audit_result(audit_lemmas(real, traj))
        assert got == audit_result(oracles.audit_numpy(real, traj))
        assert f'"b_prev": {b_prev},' in got[1]


def test_audit_matches_numpy_on_walks(spec_for):
    # greedy and shuffled walks of every construction the audits read: the
    # compiled audit gives the numpy reference's counts and violations
    for construction in ("single-line", "parallel-duplicated",
                         "parallel-thinned", "parallel-shifted"):
        real = generate(spec_for(construction, window_L=100.0),
                        stream_seed(919, 0))
        traj = run_walk(real)
        for t in (traj, reorder_steps(
                traj, np.random.default_rng(919).permutation(len(traj)))):
            assert audit_result(audit_lemmas(real, t)) == audit_result(
                oracles.audit_numpy(real, t))


def test_tables_match_numpy_on_walks(spec_for):
    # greedy and shuffled walks of the parallel constructions: every
    # deficiency record and cluster-visit column is the numpy reference's,
    # bit for bit
    for construction, shift_s in (("parallel-duplicated", 0.3),
                                  ("parallel-thinned", 0.3),
                                  ("parallel-shifted", 0.3),
                                  ("parallel-shifted", -0.3)):
        real = generate(spec_for(construction, window_L=100.0,
                                 shift_s=shift_s), stream_seed(929, 0))
        traj = run_walk(real)
        xs = real.base_points[real.base_points > 0.0]
        for t in (traj, reorder_steps(
                traj, np.random.default_rng(929).permutation(len(traj)))):
            assert differing_columns(
                compute_Dx(real, t, xs),
                oracles.compute_Dx_numpy(real, t, xs)) == []
            if construction != "parallel-thinned":
                dec = clusters_of(real)
                assert differing_columns(cluster_visits(dec, t),
                                         numpy_cluster_visits(dec, t)) == []


def mutated(real, traj, mutation, rnd):
    """traj with the one fault `mutation` at a place rnd picks; None where
    traj has no place for it."""
    n = len(traj)
    if n == 0:
        return None
    t = rnd.randint(1, n)
    if mutation in ("NaN shadow", "shadow moved"):
        us = traj.us.copy()
        others = real.base_points[real.base_points != us[t - 1]]
        if mutation == "shadow moved" and not len(others):
            return None
        us[t - 1] = math.nan if mutation == "NaN shadow" else rnd.choice(others)
        return replace(traj, us=us)
    # every point as (line, index), and the one that step t visited
    points = [(line, i) for line in ("visited_step0", "visited_step1")
              for i in range(len(getattr(traj, line)))]
    owner = next(p for p in points if getattr(traj, p[0])[p[1]] == t)
    if mutation == "unclaimed":
        line, i, step = *owner, -1
    elif mutation == "claimed twice":
        if len(points) < 2:
            return None
        line, i = rnd.choice([p for p in points if p != owner])
        step = t
    else:  # a step off the prefix
        line, i = rnd.choice(points)
        step = {"step n + 1": n + 1, "step 0": 0, "step -2": -2}[mutation]
    vis = getattr(traj, line).copy()
    vis[i] = step
    return replace(traj, **{line: vis})


# the passes that refuse each fault: all three a step off the prefix, only
# the audits a step claimed twice or by no point, or a moved shadow, and
# the two passes that read the shadows a NaN shadow
REFUSED_BY = {
    "step n + 1": RULES, "step 0": RULES, "step -2": RULES,
    "claimed twice": ["audit"], "unclaimed": ["audit"],
    "shadow moved": ["audit"], "NaN shadow": ["deficiency", "audit"],
}


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["single-line", "intersecting", "parallel-duplicated",
                        "parallel-thinned", "parallel-shifted"]),
       st.sampled_from([2.0, 5.0, 20.0]), st.sampled_from([0.3, -0.3]),
       st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(
           sorted(REFUSED_BY)), st.randoms(use_true_random=False))
# runs in which no gap is wider than the family's extra: their gap events
# still compute the (empty) deficiency records, so they refuse the fault
@example(construction="parallel-thinned", L=5.0, shift_s=0.3, seed=3,
         exhaust=False, mutation="step n + 1", rnd=random.Random(0))
@example(construction="parallel-shifted", L=5.0, shift_s=-0.3, seed=6,
         exhaust=False, mutation="NaN shadow", rnd=random.Random(0))
def test_passes_refuse_malformed_runs_on_both_paths(spec_for, construction,
                                                    L, shift_s, seed,
                                                    exhaust, mutation, rnd):
    # a generated walk reads; with one fault, every caller of each pass
    # that refuses the fault raises, and so does the pass's numpy reference,
    # by the same rule
    real = generate(spec_for(construction, window_L=L, shift_s=shift_s), seed)
    traj = run_walk(real, rule=EXH if exhaust else StopRule())
    bad = mutated(real, traj, mutation, rnd)
    assume(bad is not None)
    by_pass, refs = callers_by_pass(real), references_by_pass(real)
    for name in RULES:
        for call in by_pass[name] + refs[name]:
            call(traj)
    for name in REFUSED_BY[mutation]:
        for call in by_pass[name] + refs[name]:
            with pytest.raises(ValidationError, match=re.escape(RULES[name])):
                call(bad)


def strided(a):
    """a as a view that steps over every other entry of a buffer."""
    out = np.repeat(a, 2)[::2]
    assert len(a) < 2 or not out.flags.c_contiguous
    return out


@pytest.mark.parametrize("construction", [
    "single-line", "parallel-duplicated", "parallel-thinned",
    "parallel-shifted",
])
def test_layout_variants_read_alike_on_both_paths(spec_for, construction):
    # the compiled passes read int64 visit steps and cluster starts and
    # float64 shadows and levels, each contiguous; narrower integers and
    # strided views are converted at the call, and every table is the
    # plain arrays' bit for bit, which is the numpy references' too
    real = generate(spec_for(construction, window_L=50.0), stream_seed(77, 0))
    traj = run_walk(real)
    xs = real.base_points[real.base_points > 0.0]
    shared = construction in ("parallel-duplicated", "parallel-shifted")
    dec = clusters_of(real) if shared else None

    def tables(t, levels, d):
        out = [compute_Dx(real, t, levels), audit_lemmas(real, t)]
        if d is not None:
            out.append(cluster_visits(d, t))
        if construction != "single-line":
            out.append(detect_A_events(real, t))
        return out

    def same(a, b):
        if isinstance(a, analysis.LemmaAudit):
            return audit_result(a) == audit_result(b)
        return differing_columns(a, b) == []

    want = tables(traj, xs, dec)
    refs = [oracles.compute_Dx_numpy(real, traj, xs),
            oracles.audit_numpy(real, traj)]
    if shared:
        refs.append(numpy_cluster_visits(dec, traj))
    assert all(map(same, refs, want))
    narrow = replace(traj, visited_step0=traj.visited_step0.astype(np.int32),
                     visited_step1=traj.visited_step1.astype(np.int16))
    views = replace(traj, us=strided(traj.us),
                    visited_step0=strided(traj.visited_step0),
                    visited_step1=strided(traj.visited_step1))
    view_dec = replace(dec, starts=strided(dec.starts)) if shared else None
    for args in ((narrow, xs, dec), (views, strided(xs), view_dec)):
        assert all(map(same, tables(*args), want))
    # a realization built from strided lines holds them contiguous
    lines = replace(real, line0=strided(real.line0), line1=strided(real.line1))
    assert lines.line0.flags.c_contiguous and lines.line1.flags.c_contiguous
    assert same(compute_Dx(lines, traj, xs), want[0])
    assert same(audit_lemmas(lines, traj), want[1])
    # visit steps that are not integers, or not one per point, are refused
    # at the door, before any pass
    p0, p1 = traj.visited_step0, traj.visited_step1
    for odd in ({"visited_step0": p0.astype(np.float64)},
                {"visited_step1": p1.astype(np.uint64)},
                {"visited_step0": p0[:-1]},
                {"visited_step0": p0[:, None]}):
        with pytest.raises(ValidationError, match="visit steps must be"):
            tables(replace(traj, **odd), xs, dec)
    # and so are shadows and cluster starts that are not one row, by each
    # pass that reads them
    column = replace(traj, us=traj.us[:, None])
    cases = [("shadows", lambda: compute_Dx(real, column, xs)),
             ("shadows", lambda: audit_lemmas(real, column))]
    if construction != "single-line":
        cases.append(("shadows", lambda: detect_A_events(real, column)))
    if shared:
        cases.append(("cluster starts", lambda: cluster_visits(
            replace(dec, starts=dec.starts[:, None]), traj)))
    for name, call in cases:
        with pytest.raises(ValidationError, match=f"{name} must be one row"):
            call()
    # and lines that are not one per step, by every call that packs the run
    short = replace(traj, lines=traj.lines[:-1])
    calls = [lambda: compute_Dx(real, short, xs),
             lambda: audit_lemmas(real, short)]
    if construction != "single-line":
        calls.append(lambda: detect_A_events(real, short))
    for call in calls:
        with pytest.raises(ValidationError, match="lines must be one per step"):
            call()


# ---------------------------------------------------------------------------
# a sweep run's summary

# a sweep's runs are drawn in one compiled call per chunk of runs
# (gw_draw) and counted in another (gw_sweep), which walks each run and
# counts the walk as gw_summary does; gw_summary ports the composition it
# replaced, so a row's reference is oracles.summarize_reference of
# run_walk's walk of the run generate draws.  Two traps in the port:
# * a duplicated pair's band is u // r, numpy's divmod-based floor
#   division, not floor(u / r): 1.0 // 0.1 is 9;
# * a_events on duplicated lines counts the distinct witnessed bands, not
#   the transitions that witness them; on thinned and shifted lines it keeps
#   rhs = value - anchor + extra, in that order, and compares gap > rhs.


def outcome(call):
    """call's result, or the type and message of the error it refused
    the run with."""
    try:
        return call()
    except (ValidationError, MemoryError) as err:
        return type(err), str(err)


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["parallel-duplicated", "parallel-thinned",
                        "parallel-shifted"]),
       st.sampled_from([10.0, 40.0]), st.sampled_from([0.1, 1.0, 3.0]),
       st.sampled_from([0.3, -0.3, 0.05, -0.5]),
       st.sampled_from([0.2, 0.5, 0.9]), st.integers(0, 2**32 - 1),
       st.booleans(), st.sampled_from([1.0, 0.5]),
       st.sampled_from(["walk", "walk", "cut", "shuffled", "mutated"]),
       st.randoms(use_true_random=False))
@example(construction="parallel-shifted", L=40.0, r=1.0, shift=-0.3, p=0.5,
         seed=1, exhaust=False, window=1.0, form="walk", rnd=random.Random(0))
# a step claimed twice, which gives two clusters one first visit: the
# reduced walk orders them by index, and numpy's default sort would not
@example(construction="parallel-duplicated", L=10.0, r=0.1, shift=0.3, p=0.5,
         seed=3, exhaust=False, window=1.0, form="mutated",
         rnd=random.Random(1))
def test_events_match_their_reference_on_every_form(
        spec_for, construction, L, r, shift, p, seed, exhaust, window, form,
        rnd):
    # the event table equals oracle_events' on greedy walks of every
    # parallel construction (shifted both ways), both stop rules and coupled
    # windows, and on cut, shuffled and mutated walks; it refuses exactly
    # the runs oracle_events refuses, by the same rule; and narrower
    # integers and strided views read alike
    spec = spec_for(construction, window_L=L, separation_r=r,
                    shift_s=shift * r, thinning_p=p)
    real = couple_restrict(generate(spec, seed), window * L)
    traj = run_walk(real, rule=EXH if exhaust else StopRule())
    n = len(traj)
    if form == "cut":
        traj = cut_prefix(traj, rnd.randint(0, n))
    elif form == "shuffled":
        traj = reorder_steps(traj, rnd.sample(range(n), n))
    elif form == "mutated":
        form = rnd.choice(sorted(REFUSED_BY))
        traj = mutated(real, traj, form, rnd)
        assume(traj is not None)

    def table(t):
        return outcome(lambda: repr(event_rows(detect_A_events(real, t))))

    got = table(traj)
    assert got == outcome(lambda: repr(
        [vars(rec) for rec in oracles.oracle_events(real, traj)]))
    if isinstance(got, str):
        odd = replace(traj, us=strided(traj.us),
                      lines=traj.lines.astype(np.int64),
                      visited_step0=strided(traj.visited_step0),
                      visited_step1=traj.visited_step1.astype(np.int32))
        assert table(odd) == got


def test_events_example_claims_a_step_twice(spec_for):
    # the second example above: its mutation claims a step twice, and gives
    # two clusters one first visit
    spec = spec_for("parallel-duplicated", window_L=10.0, separation_r=0.1,
                    shift_s=0.03, thinning_p=0.5)
    real = generate(spec, 3)
    traj = run_walk(real)
    rnd = random.Random(1)
    assert rnd.choice(sorted(REFUSED_BY)) == "claimed twice"
    bad = mutated(real, traj, "claimed twice", rnd)
    first = cluster_visits(clusters_of(real), bad).first
    first = first[first >= 0]
    assert len(set(first.tolist())) < len(first)


def reference_rows(cfg, spec, window_Ls):
    """Per window, oracles.summarize_reference of each of cfg's runs, drawn
    from spec and restricted to the window, walked by run_walk."""
    out = {L: [] for L in window_Ls}
    for i in range(cfg.n_runs):
        real = generate(spec, stream_seed(cfg.base_seed, i))
        for L in window_Ls:
            small = couple_restrict(real, L)
            out[L].append(oracles.summarize_reference(cfg, i, small,
                                                      run_walk(small)))
    return out


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["single-line", "intersecting", "parallel-duplicated",
                        "parallel-thinned", "parallel-shifted"]),
       st.sampled_from([0.5, 3.0, 10.0, 40.0]),
       st.sampled_from([0.2, 1.0, 3.0]), st.sampled_from([0.1, 1.0, 3.0]),
       st.sampled_from([0.3, -0.3, 0.05, -0.5]),
       st.sampled_from([0.2, 0.5, 0.9]), st.integers(0, 2**32 - 1),
       st.integers(1, 7), st.lists(st.sampled_from([0.5, 0.2]), max_size=2,
                                   unique=True).map(lambda w: [1.0, *w]),
       st.sampled_from([1, 100, 1 << 16]), st.booleans(), st.booleans())
# runs of 0 steps whose line 0 is empty and line 1 is not, in chunks of
# one run (test_summary_example_has_empty_walks)
@example(construction="parallel-thinned", L=0.5, rate=1.0, r=1.0, shift=0.3,
         p=0.9, seed=1, n_runs=4, windows=[1.0], budget=1, audit=True,
         events=True)
# seven runs at three coupled windows in chunks of two runs and one
@example(construction="parallel-shifted", L=10.0, rate=1.0, r=1.0,
         shift=-0.3, p=0.5, seed=1, n_runs=7, windows=[1.0, 0.5, 0.2],
         budget=200, audit=True, events=True)
def test_summary_matches_its_reference(spec_for, monkeypatch, construction,
                                       L, rate, r, shift, p, seed, n_runs,
                                       windows, budget, audit, events):
    # every row of a sweep or a coupled study, drawn, walked and counted in
    # chunks of runs, equals the composition's on run_walk's walk of its
    # run as generate draws it and couple_restrict restricts it, on every
    # construction (shifted both ways), at one to three coupled windows
    # (the largest the drawn one), with either switch off, in chunks of one
    # run, a few or all of them
    monkeypatch.setattr(experiments, "CHUNK_POINTS", budget)
    cfg = ExperimentConfig(
        name="t", construction=construction, n_runs=n_runs, base_seed=seed,
        rate_lambda=rate, window_L=L, audit=audit, detect_events=events,
        **{k: v for k, v in dict(
            alpha=1.0, separation_r=r, shift_s=shift * r,
            thinning_p=p).items()
           if k in processes.CONSTRUCTION_PARAMS[construction]})
    Ls = [w * L for w in windows]
    got = (coupled_window_study(cfg, Ls) if len(Ls) > 1
           else {L: run_experiment(cfg)})
    assert got == reference_rows(cfg, cfg.to_spec(), sorted(Ls))
    for rows in got.values():
        assert all((row.a_events is None) == (
            not events or construction not in PARALLEL_CONSTRUCTIONS)
            and (row.lemma_failures is None) == (
                not audit or construction == "intersecting") for row in rows)


def test_summary_example_has_empty_walks():
    # the first example of test_summary_matches_its_reference: runs 0, 2
    # and 3 have points on line 1 alone, too far across to step to
    cfg = ExperimentConfig(name="t", construction="parallel-thinned",
                           n_runs=4, base_seed=1, window_L=0.5,
                           separation_r=1.0, thinning_p=0.9)
    rows = run_experiment(cfg)
    reals = [generate(cfg.to_spec(), stream_seed(1, i)) for i in range(4)]
    assert [(len(real.line0), row.n_steps) for real, row in zip(
        reals, rows)] == [(0, 0), (1, 1), (0, 0), (0, 0)]
    assert all(row.n_points > 0 for row in rows)


def test_summary_refuses_by_its_status(spec_for, monkeypatch):
    # gw_sweep's status, that of the first run refused, names the pass
    # that refused it, or memory that ran out
    spec = spec_for("parallel-thinned", window_L=10.0)
    packed = oracles.pack_runs([generate(spec, i) for i in range(3)])

    class Kernel:
        def __init__(self, status):
            self.status = status

        def gw_sweep(self, *args):
            return self.status

    for status, error, message in (
            (1, ValidationError, analysis._DX_RULE),
            (2, MemoryError, "ran out of memory"),
            (3, ValidationError, analysis._AUDIT_RULE),
            (4, ValidationError, analysis._CLUSTER_RULE)):
        monkeypatch.setattr(walk, "_kernel", lambda: Kernel(status))
        with pytest.raises(error, match=re.escape(message)):
            sweep_counts(spec, *packed, audit=True, events=True)
    monkeypatch.undo()
    assert sweep_counts(spec, *packed, audit=True, events=True)[4] == [0, 0, 0]


@pytest.mark.parametrize("construction, line0, line1", [
    # a point at the origin is the anchor, and gaps of exactly r cut
    # clusters and do not exceed extra
    ("parallel-duplicated", [-3.0, -2.0, 0.0, 1.0, 2.0, 2.5, 4.0], None),
    ("parallel-duplicated", [-1.5, -0.5, 0.5, 1.5, 2.5, 3.5], None),
    ("parallel-thinned", [-2.0, 0.0, 1.0, 3.5, 4.0],
     [-2.0, -1.0, 0.0, 2.0, 4.0, 6.0]),
    ("parallel-shifted", [-3.0, -1.5, 0.0, 1.3, 2.6, 5.0], None),
    ("single-line", [-2.0, -1.0, 0.0, 1.0, 3.0], None),
])
def test_summary_matches_its_reference_on_ties(hand_real, construction,
                                               line0, line1):
    # hand-placed points where a comparison's tie decides: a sweep's row
    # counts agree with the composition on the walk, at each window,
    # mirrored too, and the event table with oracle_events on the
    # run-to-exhaustion walk and on shuffles of it
    kw = {"shift_s": 0.3, "window_L": 8.0}
    cfg = ExperimentConfig(name="t", construction=construction, n_runs=1,
                           base_seed=0)
    for real in (hand_real(construction, line0, line1, **kw),
                 mirror_realization(hand_real(construction, line0, line1,
                                              **kw))):
        reals = [couple_restrict(real, L) for L in (8.0, 4.0, 2.5)]
        assert list(zip(*sweep_counts(real.spec, *oracles.pack_runs(reals),
                                      audit=True, events=True))) == [
            (row.n_steps, row.crossings, row.halfline_changes, row.a_events,
             row.lemma_failures)
            for row in (oracles.summarize_reference(cfg, 0, small,
                                                    run_walk(small))
                        for small in reals)]
        assert sum(len(run_walk(small)) for small in reals) > 0
        if construction in PARALLEL_CONSTRUCTIONS:
            traj = run_walk(real, rule=EXH)
            rng = np.random.default_rng(5)
            for t in (traj, *(reorder_steps(traj, rng.permutation(len(traj)))
                              for _ in range(20))):
                assert_events_match_oracle(real, t)
