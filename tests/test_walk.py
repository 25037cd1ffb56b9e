"""Walk engines: hand-checked step orders, tie-breaks, stopping, transforms,
the visited-point skip search, and engine-vs-oracle equality."""

import hashlib
import json
import math
import struct
from array import array
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
from gwlab import walk
from gwlab.walk import _skip_visited, trajectory_to_dicts

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
    spec = real.spec
    rng = np.random.default_rng(3)
    for line in range(spec.n_lines):
        for u in rng.uniform(*real.windows[line], size=50):
            here = Site(float(u), line)
            m = stop_margin(real, here.u, line)
            for other in range(spec.n_lines):
                lo, hi = real.windows[other]
                gaps = rng.exponential(2.0, size=20)
                for e in np.concatenate((lo - gaps, hi + gaps)):
                    assert m <= distance(spec, here, Site(float(e), other))


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
    out = [real, couple_restrict(real, real.spec.window_L / 2)]
    if real.spec.kind != "intersecting":
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
                for line in range(real.spec.n_lines)]
            for start in starts:
                for rule in (StopRule(), EXH):
                    a = run_walk(real, start=start, rule=rule)
                    b = run_walk_naive(real, start=start, rule=rule)
                    assert trajectories_equal(a, b)
                    assert np.array_equal(a.visited_step0, b.visited_step0)
                    assert np.array_equal(a.visited_step1, b.visited_step1)


def run_model(tab, c, end, behind, ol):
    """The run path's rule, one step at a time: how many unit steps from
    flat point c toward end are each the greedy choice (see
    walk._own_line_run)."""
    F, vis, cross, cp, cs, margin = (x.tolist() for x in tab[:6])
    dr = 1 if end > c else -1
    t = 0
    for a in range(c, end, dr):
        b = a + dr
        gap = F[b] - F[a] if dr > 0 else F[a] - F[b]
        beats_behind = gap < F[a] - behind if dr > 0 else gap <= behind - F[a]
        dc = min(cp[a], cs[a])
        beats_cross = dc > gap or (dc == gap and ol == 1)
        if not (vis[b] < 0 and beats_behind
                and vis[cross[a] - 1] < 0 and vis[cross[a]] < 0
                and beats_cross and gap < margin[a]):
            break
        t += 1
    return t


@pytest.fixture
def run_path(monkeypatch):
    """Wrap run_walk's run path: each run must take exactly the steps the
    step-at-a-time rule allows, and the list collects how many it took."""
    taken = []
    helper = walk._own_line_run

    def checked(tab, c, end, behind, step, ol):
        want = run_model(tab, c, end, behind, ol)
        t = helper(tab, c, end, behind, step, ol)
        assert t == want
        taken.append(t)
        return t

    monkeypatch.setattr(walk, "_own_line_run", checked)
    return taken


def run_tables(line0, line1=(), cross=None, cp=math.inf, cs=math.inf,
               margin=math.inf, visited=()):
    """run_walk's flat tables for hand-placed points: cross[i] is point
    i's cross index as a flat index, cp, cs and margin one value or one per
    flat index, visited the flat indexes already visited."""
    inf = math.inf
    F = np.array([-inf, *line0, inf, -inf, *line1, inf])
    size = len(F)
    vis = np.full(size, -1, dtype=np.int64)
    vis[list(visited)] = 0
    if cross is None:
        cross = np.full(size, size - 1, dtype=np.int64)
    return (F, vis, np.asarray(cross, dtype=np.int64),
            np.broadcast_to(np.asarray(cp, dtype=float), size),
            np.broadcast_to(np.asarray(cs, dtype=float), size),
            np.broadcast_to(np.asarray(margin, dtype=float), size),
            np.zeros(size, dtype=np.int64), np.zeros(size))


def test_own_line_run_conditions():
    # each case is one condition of the run path at its tie; line 0 sits
    # at flat indexes 1.., and the other line is empty unless given
    run = walk._own_line_run
    unit = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    # right: a gap equal to the distance back loses (the pred side wins)
    assert run(run_tables(unit + [16.0]), 1, 7, -6.0, 1, 1) == 5
    assert run(run_tables(unit + [15.5]), 1, 7, -6.0, 1, 1) == 6
    # left: a gap equal to the distance ahead wins
    assert run(run_tables([-16.0] + [-u for u in unit[::-1]]),
               7, 1, 6.0, 1, 1) == 6
    assert run(run_tables([-16.5] + [-u for u in unit[::-1]]),
               7, 1, 6.0, 1, 1) == 5
    # a cross point as near as the gap wins when its line is 0 (ol = 0)
    assert run(run_tables(unit, cp=1.0), 1, 6, -math.inf, 1, 1) == 5
    assert run(run_tables(unit, cs=1.0), 1, 6, -math.inf, 1, 0) == 0
    assert run(run_tables(unit, cs=1.5), 1, 6, -math.inf, 1, 0) == 5
    # the run stops before a visited successor
    assert run(run_tables(unit, visited=[4]), 1, 6, -math.inf, 1, 1) == 2
    # ... before a point whose tabulated cross points are not both alive
    # (flat 8 and 11 are the other line's sentinels, 9 and 10 its points)
    cross = [10, 9, 9, 9, 11, 11, 11, 10, 10, 10, 10, 10]
    tab = run_tables(unit, line1=[100.0, 200.0], cross=cross, visited=[9])
    assert run(tab, 1, 6, -math.inf, 1, 1) == 0
    tab = run_tables(unit, line1=[100.0, 200.0], cross=cross, visited=[10])
    assert run(tab, 1, 6, -math.inf, 1, 1) == 3
    # ... and before a gap that reaches the stop margin
    margin = [math.inf] * 4 + [1.0] + [math.inf] * 5
    assert run(run_tables(unit, margin=margin), 1, 6, -math.inf, 1, 1) == 3
    # the steps taken are written after `step` into the walk's tables
    _, vis, _, _, _, _, order, dists = tab = run_tables(unit + [16.0])
    assert run(tab, 1, 7, -6.0, 3, 1) == 5
    assert vis.tolist()[1:8] == [-1, 4, 5, 6, 7, 8, -1]
    assert order.tolist()[3:9] == [2, 3, 4, 5, 6, 0]
    assert dists.tolist()[3:9] == [1.0] * 5 + [0.0]


# Long walks on an integer grid, where runs are long and cross ties come
# up: at r equal to the grid step, a gap equals the distance to the twin
# across.  The own-line ties are test_own_line_run_conditions' cases.
GRID = np.arange(-240.0, 241.0)
FATE = np.random.default_rng(20261018).integers(0, 3, size=len(GRID))
GRIDS = {  # construction: (line0, line1, parameters)
    "single-line": (GRID, None, {}),
    "parallel-duplicated": (GRID, None, {"separation_r": 1.0}),
    # each grid point on line 0 (fate 0), line 1 (fate 1) or both (fate 2)
    "parallel-thinned": (GRID[FATE != 1], GRID[FATE != 0],
                         {"separation_r": 1.0}),
    "intersecting": (GRID[FATE != 1], GRID[FATE != 0], {"alpha": math.pi / 2}),
}


@pytest.mark.parametrize("construction", sorted(GRIDS))
def test_engines_agree_on_long_grid_walks(hand_real, run_path, construction):
    line0, line1, params = GRIDS[construction]
    real = hand_real(construction, line0, line1=line1, window_L=240.0,
                     **params)
    assert all(len(a) >= 300 for a in (real.line0, real.line1) if len(a))
    # off the grid and far from the origin: on intersecting lines at pi/2
    # every projection falls next to the origin, so runs (which need the
    # tabulated cross points unvisited) come only on the way in
    for start in (Site(0.0, 0), Site(100.5, real.spec.n_lines - 1)):
        for rule in (StopRule(), EXH):
            a = run_walk(real, start=start, rule=rule)
            b = run_walk_naive(real, start=start, rule=rule)
            assert trajectories_equal(a, b)
            assert np.array_equal(a.visited_step0, b.visited_step0)
            assert np.array_equal(a.visited_step1, b.visited_step1)
    assert sum(run_path) > 0


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
        far = Site(3.25, real.spec.n_lines - 1)
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


def test_skip_visited_against_set_model():
    # run_walk's discipline on one line of its flat table: points 1..n
    # between sentinels 0 and n + 1, which are never visited; visit the
    # points in random order, splice each visited point out of both link
    # arrays, and search from random indexes in both directions, each
    # search twice so the second follows the links the first compressed
    rng = np.random.default_rng(20250815)
    n = 30
    for trial in range(20):
        vis = array("q", [-1]) * (n + 2)
        nxt, prv = array("q", range(1, n + 3)), array("q", range(-1, n + 1))
        alive = set(range(1, n + 1))
        for step, i in enumerate((rng.permutation(n) + 1).tolist(), start=1):
            for j in rng.integers(1, n + 1, size=4).tolist():
                want_s = min((k for k in alive if k >= j), default=n + 1)
                want_p = max((k for k in alive if k <= j), default=0)
                for _ in range(2):
                    assert _skip_visited(vis, nxt, j) == want_s
                    assert _skip_visited(vis, prv, j) == want_p
                if j not in alive:
                    assert (nxt[j], prv[j]) == (want_s, want_p)
            vis[i] = step
            alive.discard(i)
            p, s = prv[i], nxt[i]
            nxt[p] = s
            prv[s] = p
        assert _skip_visited(vis, nxt, 1) == n + 1
        assert _skip_visited(vis, prv, n) == 0


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
    start = Site(start_u, min(start_line, real.spec.n_lines - 1))
    for rule in (StopRule(), EXH):
        a = run_walk(real, start=start, rule=rule)
        b = run_walk_naive(real, start=start, rule=rule)
        assert trajectories_equal(a, b)
