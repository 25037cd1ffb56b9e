"""Trajectory analysis: hitting times, deficiency records, landmark and
cluster machinery, return events, and the structural audits.

Fixture trajectories are hand-built (see conftest.hand_traj), so expected
values are checked against pencil-and-paper runs of the definitions.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gwlab import (
    RUN_TO_EXHAUSTION,
    HittingTimes,
    PrefixLimitError,
    Site,
    StopRule,
    ValidationError,
    audit_lemmas,
    check_cluster_consecutive,
    check_indented_entry,
    check_povratak,
    check_reduced_alignment,
    compute_Dx,
    decompose_clusters,
    detect_A_events,
    detect_crossings,
    empirical_survival,
    extract_UV_sequences,
    extract_halfline_changes,
    generate,
    intersect_Bn_bound,
    mark_leading_and_indented,
    parallel_Am_first_term,
    reduce_to_cluster_leads,
    run_walk,
    stream_seed,
    theoretical_bounds,
    validate_dx_record,
)
from gwlab.analysis import (
    A_K_SHIFTED,
    A_K_THINNED,
    A_M_PARALLEL,
    deficiency_value,
    last_visit_steps,
)

EXH = StopRule(mode=RUN_TO_EXHAUSTION)


# ---------------------------------------------------------------------------
# hitting times


def test_hitting_times(hand_real, hand_traj):
    real = hand_real("single-line", [-1.0, 1.0, 2.0, 3.0])
    ht = HittingTimes(hand_traj(real, [1.0, 2.0, -1.0, 3.0], [0, 0, 0, 0]))
    assert ht.first_step_geq(0.5) == 1
    assert ht.first_step_geq(2.0) == 2
    assert ht.first_step_geq(2.5) == 4
    assert ht.first_step_geq(4.0) is None
    assert ht.first_step_geq(0.0) == 0   # the start site counts as step 0
    assert ht.first_step_lt(0.0) == 3
    assert ht.first_step_lt(5.0) == 0
    assert ht.first_step_lt(-2.0) is None


# ---------------------------------------------------------------------------
# deficiency records


def test_compute_dx_interior_point(hand_real, hand_traj):
    real = hand_real("single-line", [-1.0, 3.0, 10.0])
    rec = compute_Dx(real, hand_traj(real, [10.0], [0]), 10.0)
    # interior {3}: max(2*3 - 0 - 10, 2*10 - 3 - 10) = 7
    assert rec.value == 7.0
    assert not rec.degenerate
    assert rec.t_ray == 1 and rec.t_left is None
    assert rec.n_interior == 1
    assert validate_dx_record("single-line", rec) == []


def test_compute_dx_consumed_interior(hand_real, hand_traj):
    real = hand_real("single-line", [-1.0, 3.0, 10.0])
    rec = compute_Dx(real, hand_traj(real, [3.0, 10.0], [0, 0]), 10.0)
    # 3 was visited before the passage step, so the region is bare
    assert rec.value == 10.0
    assert rec.n_interior == 0


def test_compute_dx_degenerate(hand_real, hand_traj):
    real = hand_real("single-line", [-1.0, 3.0, 10.0])
    rec = compute_Dx(real, hand_traj(real, [-1.0], [0]), 10.0)
    assert rec.degenerate
    assert rec.value == 0.0
    assert rec.t_left == 1 and rec.t_ray is None


def test_compute_dx_undecidable(hand_real, hand_traj):
    real = hand_real("single-line", [-1.0, 3.0, 10.0])
    traj = hand_traj(real, [3.0], [0])
    with pytest.raises(PrefixLimitError):
        compute_Dx(real, traj, 10.0)
    with pytest.raises(ValidationError):
        compute_Dx(real, traj, 0.0)


def test_validate_dx_record_limits():
    from gwlab import DxRecord

    bad_deg = DxRecord(5.0, 0.5, True, None, 1, 0)
    assert len(validate_dx_record("single-line", bad_deg)) == 1
    too_big = DxRecord(5.0, 5.5, False, 1, None, 0)
    assert len(validate_dx_record("single-line", too_big)) == 1
    negative = DxRecord(5.0, -0.5, False, 1, None, 0)
    assert len(validate_dx_record("single-line", negative)) == 1
    zero = DxRecord(5.0, 0.0, False, 1, None, 0)
    assert validate_dx_record("single-line", zero) == []
    assert len(validate_dx_record("parallel-thinned", zero)) == 1


tenths = st.integers(1, 99).map(lambda k: k / 10)


@settings(max_examples=200, deadline=None)
@given(st.lists(tenths, max_size=15, unique=True))
def test_deficiency_in_range(interior):
    d = deficiency_value(np.asarray(sorted(interior)), 10.0)
    assert 0.0 < d <= 10.0


@settings(max_examples=200, deadline=None)
@given(st.lists(tenths, max_size=15, unique=True), tenths)
def test_deficiency_insertion_monotone(interior, w):
    assume(w not in interior)
    base = np.asarray(sorted(interior))
    more = np.asarray(sorted(interior + [w]))
    assert deficiency_value(more, 10.0) <= deficiency_value(base, 10.0)


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
# closed-form bounds and survival curves


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


def test_empirical_survival():
    out = empirical_survival([1.0, 2.0, 3.0], [0.0, 1.0, 2.5, 3.0])
    assert out == {0.0: 1.0, 1.0: 2 / 3, 2.5: 1 / 3, 3.0: 0.0}
    assert empirical_survival([], [1.0]) == {1.0: 0.0}


# ---------------------------------------------------------------------------
# cluster decomposition


def test_decompose_basic():
    dec = decompose_clusters([0.5, 1.0, 3.0], 1.0)
    assert dec.ranges == ((0, 2), (2, 3))
    assert dec.leads == (0, 2)
    assert dec.zero_cluster == 0
    assert dec.n_clusters == 2
    assert dec.cluster_number(1) == 1
    assert dec.lead_us().tolist() == [0.5, 3.0]


def test_decompose_gap_equal_threshold_splits():
    dec = decompose_clusters([0.0, 1.0, 2.0], 1.0)
    assert dec.ranges == ((0, 1), (1, 2), (2, 3))


def test_decompose_lead_tie_goes_right():
    dec = decompose_clusters([-1.0, 1.0], 3.0)
    assert dec.ranges == ((0, 2),)
    assert dec.leads == (1,)


def test_decompose_validation():
    with pytest.raises(ValidationError):
        decompose_clusters([1.0], 0.0)
    empty = decompose_clusters([], 1.0)
    assert empty.n_clusters == 0 and empty.zero_cluster == -1


quarters = st.integers(-60, 60).map(lambda k: k / 4)


@settings(max_examples=200, deadline=None)
@given(st.lists(quarters, min_size=1, max_size=20, unique=True),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_decompose_invariants(raw, thr):
    pts = sorted(raw)
    dec = decompose_clusters(pts, thr)
    assert dec.ranges[0][0] == 0 and dec.ranges[-1][1] == len(pts)
    for (_, b1), (a2, _) in zip(dec.ranges, dec.ranges[1:]):
        assert b1 == a2
        assert pts[a2] - pts[a2 - 1] >= thr
    for (lo, hi), lead in zip(dec.ranges, dec.leads):
        seg = pts[lo:hi]
        assert all(y - x < thr for x, y in zip(seg, seg[1:]))
        assert lo <= lead < hi
        key = (abs(pts[lead]), -pts[lead])
        assert all(key <= (abs(v), -v) for v in seg)
    zkey = (abs(pts[dec.leads[dec.zero_cluster]]),
            -pts[dec.leads[dec.zero_cluster]])
    assert all(zkey <= (abs(pts[l]), -pts[l]) for l in dec.leads)


# ---------------------------------------------------------------------------
# reduced walk and traversal discipline (duplicated pairs)


def test_reduce_to_cluster_leads(hand_real):
    real = hand_real("parallel-duplicated", [1.0, 1.5, 4.0], separation_r=1.0)
    red = reduce_to_cluster_leads(real, run_walk(real, rule=EXH))
    assert red.lead_us.tolist() == [1.0, 4.0]
    assert red.first_steps.tolist() == [1, 5]
    assert red.cluster_order == (0, 1)

    single = hand_real("single-line", [1.0])
    with pytest.raises(ValidationError):
        reduce_to_cluster_leads(single, run_walk(single))


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


# ---------------------------------------------------------------------------
# shifted-pair marks and entry discipline


def test_mark_leading_and_indented(hand_real):
    real = hand_real("parallel-shifted", [-2.5, -2.0, 2.0, 2.5], shift_s=0.3)
    dec, marks = mark_leading_and_indented(real)
    assert dec.threshold == pytest.approx(math.sqrt(1.0 + 0.09))
    assert dec.ranges == ((0, 2), (2, 4))
    assert dec.zero_cluster == 1
    neg, pos = marks
    assert (neg.lead0, neg.lead1) == (1, 1)
    assert neg.indented and not neg.straddles
    assert (pos.lead0, pos.lead1) == (2, 2)
    assert not pos.indented and not pos.straddles

    straddle = hand_real("parallel-shifted", [-0.2, 0.3], shift_s=0.3)
    _, (mk,) = mark_leading_and_indented(straddle)
    assert mk.straddles

    single = hand_real("single-line", [1.0])
    with pytest.raises(ValidationError):
        mark_leading_and_indented(single)


def test_indented_entry_consecutive(hand_real, hand_traj):
    real = hand_real("parallel-shifted", [-2.5, -2.0, 0.1], shift_s=0.3)
    traj = hand_traj(real, [-1.7, -2.0, -2.5, -2.2], [1, 0, 0, 1],
                     start=Site(-1.2, 1))
    recs = check_indented_entry(real, traj)
    assert len(recs) == 1  # the zero cluster was never touched
    rec = recs[0]
    assert rec.indented and not rec.straddles and not rec.is_zero
    assert rec.entry_line == 1 and rec.entry_u == pytest.approx(-1.7)
    assert rec.entered_at_line1_lead
    assert rec.consecutive is True and rec.early_exit is False


def test_indented_entry_early_exit(hand_real, hand_traj):
    real = hand_real("parallel-shifted", [2.0, 2.5, 6.0], shift_s=0.3)
    traj = hand_traj(real, [2.0, 2.5, 6.0, 6.3, 2.3, 2.8],
                     [0, 0, 0, 1, 1, 1])
    recs = {r.cluster: r for r in check_indented_entry(real, traj)}
    assert recs[0].early_exit is True and recs[0].consecutive is False
    assert recs[0].is_zero and not recs[0].entered_at_line1_lead
    assert recs[1].early_exit is False and recs[1].consecutive is True


def test_indented_entry_cut_prefix(hand_real, hand_traj):
    real = hand_real("parallel-shifted", [2.0, 2.5, 6.0], shift_s=0.3)
    recs = check_indented_entry(real, hand_traj(real, [2.0, 2.5], [0, 0]))
    assert recs[0].consecutive is None and recs[0].early_exit is None


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


def test_povratak_construction_guard(hand_real):
    single = hand_real("single-line", [1.0])
    with pytest.raises(ValidationError):
        check_povratak(single, run_walk(single))


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
