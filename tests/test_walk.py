"""Walk engines: hand-checked step orders, tie-breaks, stopping, transforms,
the alive-index structure, and engine-vs-oracle equality."""

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gwlab import (
    CONSTRUCTIONS,
    EXHAUSTED,
    RUN_TO_EXHAUSTION,
    TRUNCATED,
    Site,
    StopRule,
    ValidationError,
    couple_restrict,
    distance,
    generate,
    mirror_realization,
    mirror_trajectory,
    run_walk,
    run_walk_naive,
    stop_margin,
    stream_seed,
    trajectories_equal,
    trajectory_from_binary,
    trajectory_to_binary,
)
from gwlab.walk import SortedAliveIndex, trajectory_to_dicts

EXH = StopRule(mode=RUN_TO_EXHAUSTION)


def check_both_engines(real, expect_us, expect_lines, expect_reason,
                       rule=StopRule()):
    for engine in (run_walk, run_walk_naive):
        traj = engine(real, rule=rule)
        assert traj.us.tolist() == expect_us
        assert traj.lines.tolist() == expect_lines
        assert traj.stop_reason == expect_reason


def test_single_line_order(hand_real):
    real = hand_real("single-line", [-1.5, 1.0, 2.0, 5.0])
    check_both_engines(real, [1.0, 2.0, 5.0, -1.5], [0, 0, 0, 0], EXHAUSTED)
    traj = run_walk(real)
    assert traj.step_distances.tolist() == [1.0, 1.0, 3.0, 6.5]
    assert traj.visited_step0.tolist() == [4, 1, 2, 3]
    assert traj.prefix_max.tolist() == [1.0, 2.0, 5.0, 5.0]
    assert traj.prefix_min.tolist() == [1.0, 1.0, 1.0, -1.5]


def test_truncation_stops_before_unsafe_step(hand_real):
    real = hand_real("single-line", [-9.0, 1.0, 2.0], window_L=10.0)
    # from u=2 the far point sits 11 away but the window edge is only 8
    check_both_engines(real, [1.0, 2.0], [0, 0], TRUNCATED)
    check_both_engines(real, [1.0, 2.0, -9.0], [0, 0, 0], EXHAUSTED, rule=EXH)
    traj = run_walk(real)
    assert traj.visited_step0.tolist() == [-1, 1, 2]


def test_duplicated_twin_order(hand_real):
    real = hand_real("parallel-duplicated", [1.0, 1.5, 4.0], separation_r=1.0)
    us = [1.0, 1.5, 1.5, 1.0, 4.0, 4.0]
    lines = [0, 0, 1, 1, 1, 0]
    check_both_engines(real, us, lines, EXHAUSTED)
    traj = run_walk(real)
    assert traj.step_distances.tolist() == [1.0, 0.5, 1.0, 0.5, 3.0, 1.0]


def test_distance_tie_prefers_smaller_u(hand_real):
    real = hand_real("single-line", [-1.0, 1.0])
    check_both_engines(real, [-1.0, 1.0], [0, 0], EXHAUSTED)
    # the same tie across the lines: both at sqrt(2) from the origin
    real = hand_real("parallel-thinned", [5.0], line1=[-1.0, 1.0],
                     separation_r=1.0)
    check_both_engines(real, [-1.0, 1.0, 5.0], [1, 1, 0], EXHAUSTED, rule=EXH)


def test_distance_tie_prefers_lower_line(hand_real):
    # 3-4-5 triangle: (5, 0) same-line at 5, (4, 1) across at exactly 5
    real = hand_real("parallel-thinned", [5.0], line1=[4.0],
                     separation_r=3.0)
    check_both_engines(real, [5.0, 4.0], [0, 1], EXHAUSTED, rule=EXH)


def test_intersecting_walk_through_crossing(hand_real):
    real = hand_real("intersecting", [1.0], line1=[-0.5], alpha=math.pi / 2)
    check_both_engines(real, [-0.5, 1.0], [1, 0], EXHAUSTED, rule=EXH)
    traj = run_walk(real, rule=EXH)
    assert traj.step_distances.tolist() == [0.5, math.sqrt(1.25)]


def test_intersecting_start_projects_across(hand_real):
    # from u=2 on line 0 the nearest point across surrounds 2*cos(pi/3) = 1,
    # not 2: v=1 is sqrt(3) away, v=1.5 sqrt(3.25)
    real = hand_real("intersecting", [10.0], line1=[0.5, 1.0, 1.5, 3.0],
                     alpha=math.pi / 3)
    for engine in (run_walk, run_walk_naive):
        traj = engine(real, start=Site(2.0, 0), rule=EXH)
        assert traj.us.tolist() == [1.0, 0.5, 1.5, 3.0, 10.0]
        assert traj.lines.tolist() == [1, 1, 1, 1, 0]


def test_nonzero_start(hand_real):
    real = hand_real("single-line", [-1.0, 3.0])
    traj = run_walk(real, start=Site(2.0, 0), rule=EXH)
    assert traj.us.tolist() == [3.0, -1.0]
    assert traj.start == Site(2.0, 0)


@pytest.mark.parametrize("engine", [run_walk, run_walk_naive])
def test_start_must_be_a_site(spec_for, engine):
    single = generate(spec_for("single-line", window_L=10.0), 1)
    pair = generate(spec_for("parallel-duplicated", window_L=10.0), 1)
    for real, start in ((single, Site(1.0, 1)), (single, Site(math.nan, 0)),
                        (single, Site(math.inf, 0)), (single, Site(0.0, -1)),
                        (pair, Site(0.0, 2)), (pair, Site(0.0, 0.5)),
                        (pair, Site(-math.inf, 1))):
        with pytest.raises(ValidationError):
            engine(real, start=start)
    assert len(engine(pair, start=Site(0.5, 1))) > 0


def test_empty_realization(hand_real):
    real = hand_real("single-line", [])
    traj = run_walk(real)
    assert len(traj) == 0
    assert traj.stop_reason == EXHAUSTED


def test_stop_rule_validation():
    with pytest.raises(ValidationError):
        StopRule(mode="whenever")


def test_stop_margin_values(hand_real):
    single = hand_real("single-line", [0.0], window_L=25.0)
    assert stop_margin(single, 10.0, 0) == 15.0
    assert stop_margin(single, -10.0, 0) == 15.0

    par = hand_real("parallel-duplicated", [0.0], separation_r=1.0,
                    window_L=25.0)
    assert stop_margin(par, 24.0, 0) == 1.0
    assert stop_margin(par, -24.0, 1) == 1.0
    # cross-line escape can undercut the same-line edges
    shifted = hand_real("parallel-shifted", [0.0], shift_s=0.3, window_L=25.0)
    assert shifted.windows == ((-25.0, 25.0), (-24.7, 25.3))
    assert stop_margin(shifted, 0.0, 0) == pytest.approx(math.hypot(24.7, 1.0))

    inter = hand_real("intersecting", [0.0], line1=[], alpha=math.pi / 2,
                      window_L=50.0)
    assert stop_margin(inter, 30.0, 0) == 20.0
    assert stop_margin(inter, 0.0, 1) == 50.0


@pytest.mark.parametrize("construction", [
    "single-line", "intersecting", "parallel-shifted",
])
def test_stop_margin_lower_bounds_outside_distance(hand_real, construction):
    # every site beyond the drawn windows is at least the margin away
    real = hand_real(construction, [0.0], line1=[], alpha=0.4, window_L=10.0)
    space = real.spec.space
    rng = np.random.default_rng(3)
    for line in range(space.n_lines):
        for u in rng.uniform(*real.windows[line], size=50):
            here = Site(float(u), line)
            m = stop_margin(real, here.u, line)
            for other in range(space.n_lines):
                lo, hi = real.windows[other]
                gaps = rng.exponential(2.0, size=20)
                for e in np.concatenate((lo - gaps, hi + gaps)):
                    assert m <= distance(space, here, Site(float(e), other))


@pytest.mark.parametrize("construction", [
    "single-line", "intersecting", "parallel-duplicated",
    "parallel-thinned", "parallel-shifted",
])
def test_truncated_walk_is_prefix_of_exhaustive(spec_for, construction):
    for i in range(5):
        real = generate(spec_for(construction), stream_seed(900, i))
        short = run_walk(real)
        full = run_walk(real, rule=EXH)
        n = len(short)
        assert short.stop_reason == TRUNCATED
        assert n < len(full)
        assert np.array_equal(short.us, full.us[:n])
        assert np.array_equal(short.lines, full.lines[:n])
        assert np.array_equal(short.step_distances, full.step_distances[:n])


def windows_variants(real):
    """The realization as drawn, restricted to half its window and, where
    defined, mirrored: three sets of per-line windows for one draw."""
    out = [real, couple_restrict(real, real.spec.space.window_L / 2)]
    if real.spec.space.kind != "intersecting":
        out.append(mirror_realization(real))
    return out


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_engines_agree(spec_for, construction):
    rng = np.random.default_rng(901)
    for i in range(8):
        drawn = generate(spec_for(construction), stream_seed(901, i))
        for real in windows_variants(drawn):
            starts = [Site(0.0, 0)] + [
                Site(float(rng.uniform(*real.windows[line])), line)
                for line in range(real.spec.space.n_lines)]
            for start in starts:
                for rule in (StopRule(), EXH):
                    a = run_walk(real, start=start, rule=rule)
                    b = run_walk_naive(real, start=start, rule=rule)
                    assert trajectories_equal(a, b)
                    assert np.array_equal(a.visited_step0, b.visited_step0)
                    assert np.array_equal(a.visited_step1, b.visited_step1)


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_stop_margin_array_matches_scalar(spec_for, construction):
    # the engine tabulates margins with one array call; each entry must be
    # the margin a scalar call gives, bit for bit
    drawn = generate(spec_for(construction), stream_seed(907, 0))
    rng = np.random.default_rng(907)
    for real in windows_variants(drawn):
        for line in range(2):
            lo, hi = real.windows[line]
            u = np.concatenate(((real.line0, real.line1)[line],
                                [lo, hi, 0.0, lo - 1.0, hi + 1.0],
                                rng.uniform(lo - 2.0, hi + 2.0, size=50)))
            table = stop_margin(real, u, line)
            scalar = np.array([stop_margin(real, float(x), line) for x in u])
            assert table.dtype == np.float64
            assert table.tobytes() == scalar.tobytes()


PINS = Path(__file__).parent / "data" / "walk_pins.json"


def pinned_walks(spec_for):
    """(name, trajectory) for every walk whose digests walk_pins.json pins:
    each construction at L=2000, as drawn, restricted to L=1000 and (where
    defined) mirrored, under both stop rules, from the origin and from
    u=3.25 on the second line (the only line, for single-line)."""
    for construction in CONSTRUCTIONS:
        real = generate(spec_for(construction, window_L=2000.0),
                        stream_seed(906, 0))
        far = Site(3.25, real.spec.space.n_lines - 1)
        for variant, r in zip(("drawn", "restricted", "mirrored"),
                              windows_variants(real)):
            for rule in (StopRule(), EXH):
                for start in (Site(0.0, 0), far):
                    name = (f"{construction}/{variant}/{rule.mode}/"
                            f"{start.u}@{start.line}")
                    yield name, run_walk(r, start=start, rule=rule)


def trajectory_digests(traj):
    fields = {
        "us": traj.us.astype("<f8"),
        "lines": traj.lines.astype("i1"),
        "step_distances": traj.step_distances.astype("<f8"),
        "visited_step0": traj.visited_step0.astype("<i8"),
        "visited_step1": traj.visited_step1.astype("<i8"),
    }
    out = {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in fields.items()}
    out["stop_reason"] = hashlib.sha256(traj.stop_reason.encode()).hexdigest()
    return out


def test_trajectories_pinned(spec_for):
    # the digests were recorded with the list-based engine that preceded the
    # per-point tables; every field of every walk must stay bit-identical
    pinned = json.loads(PINS.read_text())
    got = {name: trajectory_digests(t) for name, t in pinned_walks(spec_for)}
    assert sorted(got) == sorted(pinned)
    changed = [f"{name}:{field}" for name, digests in got.items()
               for field, h in digests.items() if pinned[name][field] != h]
    assert changed == []


def test_trajectories_equal_detects_difference(hand_real):
    real = hand_real("single-line", [-1.0, 1.0])
    a = run_walk(real, rule=EXH)
    b = run_walk(real, start=Site(1.5, 0), rule=EXH)
    assert not trajectories_equal(a, b)


@pytest.mark.parametrize("construction", [
    "single-line", "parallel-duplicated", "parallel-thinned",
    "parallel-shifted",
])
def test_mirror_equivariance(spec_for, construction):
    for i in range(5):
        real = generate(spec_for(construction), stream_seed(902, i))
        direct = run_walk(mirror_realization(real))
        reflected = mirror_trajectory(run_walk(real))
        assert trajectories_equal(direct, reflected)
        assert np.array_equal(direct.visited_step0, reflected.visited_step0)
        assert np.array_equal(direct.visited_step1, reflected.visited_step1)


def test_couple_restrict_masks_points(spec_for):
    real = generate(spec_for("parallel-shifted", shift_s=0.3, window_L=50.0),
                    stream_seed(903, 0))
    small = couple_restrict(real, 25.0)
    assert small.windows == ((-25.0, 25.0), (-24.7, 25.3))
    assert np.all(np.abs(small.line0) <= 25.0)
    assert np.all((small.line1 >= -24.7) & (small.line1 <= 25.3))
    assert set(small.line0) == {u for u in real.line0 if abs(u) <= 25.0}
    small.check_invariants()
    assert couple_restrict(real, 50.0) is real
    with pytest.raises(ValidationError):
        couple_restrict(real, 0.0)
    with pytest.raises(ValidationError):
        couple_restrict(real, 50.5)


@pytest.mark.parametrize("construction", [
    "single-line", "intersecting", "parallel-duplicated",
    "parallel-thinned", "parallel-shifted",
])
def test_coupling_gives_strict_prefix(spec_for, construction):
    hits = 0
    for i in range(10):
        real = generate(spec_for(construction, window_L=50.0),
                        stream_seed(904, i))
        small = couple_restrict(real, 25.0)
        ts = run_walk(small)
        tb = run_walk(real)
        n = len(ts)
        assert n <= len(tb)
        assert np.array_equal(ts.us, tb.us[:n])
        assert np.array_equal(ts.lines, tb.lines[:n])
        hits += n < len(tb)
    assert hits == 10


def test_flag_restriction(spec_for):
    real = generate(spec_for("parallel-thinned", window_L=50.0),
                    stream_seed(905, 0))
    small = couple_restrict(real, 20.0)
    assert len(small.duplicate_flags) == len(small.base_points)
    kept = {u: f for u, f in zip(real.base_points, real.duplicate_flags)}
    assert all(kept[u] == f
               for u, f in zip(small.base_points, small.duplicate_flags))


def test_binary_roundtrip(tmp_path, hand_real):
    real = hand_real("parallel-duplicated", [1.0, 1.5, 4.0], separation_r=1.0)
    traj = run_walk(real, rule=EXH)
    path = tmp_path / "walk.bin"
    trajectory_to_binary(traj, path)
    us, lines, dists = trajectory_from_binary(path)
    assert np.array_equal(us, traj.us)
    assert np.array_equal(lines, traj.lines)
    assert lines.dtype == np.int8
    assert np.array_equal(dists, traj.step_distances)

    blob = path.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTAWALK" + blob[8:])
    with pytest.raises(ValidationError):
        trajectory_from_binary(bad)
    for name, data in [("cut", blob[:-8]), ("long", blob + bytes(8)),
                       ("headless", blob[:12]),
                       # a step count of 2**62 in a 16-byte file
                       ("huge", blob[:8] + (2**62).to_bytes(8, "little"))]:
        (tmp_path / name).write_bytes(data)
        with pytest.raises(ValidationError):
            trajectory_from_binary(tmp_path / name)
    # one-step dumps whose columns hold values no walk emits
    for u, line, dist in [(1.0, 7.5, 1.0), (1.0, 7.0, 1.0), (1.0, -1.0, 1.0),
                          (1.0, math.nan, 1.0), (math.nan, 0.0, 1.0),
                          (math.inf, 1.0, 1.0), (1.0, 0.0, -1.0),
                          (1.0, 0.0, math.nan), (1.0, 1.0, math.inf)]:
        row = tmp_path / "row.bin"
        row.write_bytes(b"GWTRAJ01" + struct.pack("<Q3d", 1, u, line, dist))
        with pytest.raises(ValidationError):
            trajectory_from_binary(row)
    row.write_bytes(b"GWTRAJ01" + struct.pack("<Q3d", 1, -2.5, 1.0, 0.0))
    us, lines, dists = trajectory_from_binary(row)
    assert (us.tolist(), lines.tolist(), dists.tolist()) == ([-2.5], [1], [0.0])


def test_trajectory_json(hand_real):
    real = hand_real("single-line", [-1.0, 1.0])
    rows = trajectory_to_dicts(run_walk(real, rule=EXH))
    assert rows == [
        {"step": 1, "line": 0, "u": -1.0, "dist": 1.0},
        {"step": 2, "line": 0, "u": 1.0, "dist": 2.0},
    ]


def test_alive_index_basics():
    idx = SortedAliveIndex([1.0, 2.0, 3.0, 5.0])
    assert idx.first_geq(2.5) == 2
    assert idx.last_lt(2.0) == 0
    idx.remove(2)
    assert idx.first_geq(2.5) == 3
    assert idx.succ_alive(2) == 3
    assert idx.pred_alive(2) == 1
    idx.remove(0)
    assert idx.last_lt(2.0) == -1
    assert idx.first_geq(10.0) == 4
    assert idx.n_alive == 2


def test_alive_index_fuzz_against_set_model():
    rng = np.random.default_rng(20250815)
    for trial in range(20):
        pts = np.sort(rng.uniform(-10, 10, size=30)).tolist()
        idx = SortedAliveIndex(pts)
        alive = set(range(30))
        order = rng.permutation(30).tolist()
        for i in order:
            q = float(rng.uniform(-11, 11))
            want_geq = min((j for j in alive if pts[j] >= q), default=30)
            want_lt = max((j for j in alive if pts[j] < q), default=-1)
            assert idx.first_geq(q) == want_geq
            assert idx.last_lt(q) == want_lt
            j = int(rng.integers(0, 30))
            want_s = min((k for k in alive if k >= j), default=30)
            want_p = max((k for k in alive if k <= j), default=-1)
            assert idx.succ_alive(j) == want_s
            assert idx.pred_alive(j) == want_p
            idx.remove(i)
            alive.discard(i)
        assert idx.n_alive == 0


# Half-integer abscissas keep all distance arithmetic exact in float64, so
# every tie the full-scan oracle sees is also visible to the pruning engine.
# (With arbitrary floats, a strictly farther point can round onto the same
# distance as a nearer one the pruner kept; the engines then legitimately
# disagree on a measure-zero input.)  Ties themselves are still exercised:
# symmetric pairs and 3-4-5 style cross-line coincidences live on this grid.
half_grid = st.integers(-40, 40).map(lambda k: k / 2)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(half_grid, min_size=1, max_size=10, unique=True),
       st.lists(half_grid, max_size=10, unique=True),
       st.sampled_from(["single-line", "parallel-duplicated",
                        "parallel-thinned"]),
       half_grid, st.integers(0, 1))
def test_engines_agree_on_arbitrary_points(hand_real, pts, pts1, construction,
                                           start_u, start_line):
    # line1 is independent of line0 only for parallel-thinned
    kw = {} if construction == "single-line" else {"separation_r": 1.0}
    real = hand_real(construction, sorted(pts), line1=sorted(pts1), **kw)
    start = Site(start_u, min(start_line, real.spec.space.n_lines - 1))
    for rule in (StopRule(), EXH):
        a = run_walk(real, start=start, rule=rule)
        b = run_walk_naive(real, start=start, rule=rule)
        assert trajectories_equal(a, b)
