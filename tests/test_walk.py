"""Walk engines: hand-checked step orders, tie-breaks, stopping, transforms,
the visited-point skip search, the compiled loop's build, and the equality
of the compiled loop, the Python loop and the oracle."""

import ctypes
import hashlib
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
from array import array
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gwlab import (
    CONSTRUCTIONS,
    EXHAUSTED,
    RUN_TO_EXHAUSTION,
    SHIFT_RATIO_LIMIT,
    SINGLE_LINE,
    TRUNCATED,
    ProcessSpec,
    StopRule,
    ValidationError,
    couple_restrict,
    cross_distance,
    generate,
    run_walk,
    run_walk_naive,
    stop_margin,
    stream_seed,
    trajectories_equal,
    trajectory_from_binary,
    trajectory_to_binary,
)
from gwlab import walk
from gwlab.processes import MAX_BANDS, MAX_SCALE, MAX_SEPARATION_POINTS
from gwlab.walk import trajectory_to_dicts
from oracles import (
    _skip_visited,
    mirror_realization,
    mirror_trajectory,
    python_loop,
)

EXH = StopRule(mode=RUN_TO_EXHAUSTION)
COMPILER = shutil.which("cc") or shutil.which("gcc")

# run_walk is the compiled loop, python_loop its line-for-line reference
ENGINES = (run_walk, python_loop, run_walk_naive)


def assert_engines_agree(real, rule, engines=ENGINES):
    """Each engine walks `real` to the same trajectory, visit steps
    included."""
    a, *others = (engine(real, rule=rule) for engine in engines)
    for b in others:
        assert trajectories_equal(a, b)


def check_engines(real, expect_us, expect_lines, expect_reason,
                  rule=StopRule()):
    for engine in ENGINES:
        traj = engine(real, rule=rule)
        assert traj.us.tolist() == expect_us
        assert traj.lines.tolist() == expect_lines
        assert traj.stop_reason == expect_reason


def test_single_line_order(hand_real):
    real = hand_real("single-line", [-1.5, 1.0, 2.0, 5.0])
    check_engines(real, [1.0, 2.0, 5.0, -1.5], [0, 0, 0, 0], EXHAUSTED)
    traj = run_walk(real)
    assert traj.step_distances.tolist() == [1.0, 1.0, 3.0, 6.5]
    assert traj.visited_step0.tolist() == [4, 1, 2, 3]


def test_truncation_stops_before_unsafe_step(hand_real):
    real = hand_real("single-line", [-9.0, 1.0, 2.0], window_L=10.0)
    # from u=2 the far point sits 11 away but the window edge is only 8
    check_engines(real, [1.0, 2.0], [0, 0], TRUNCATED)
    check_engines(real, [1.0, 2.0, -9.0], [0, 0, 0], EXHAUSTED, rule=EXH)
    traj = run_walk(real)
    assert traj.visited_step0.tolist() == [-1, 1, 2]


def test_duplicated_twin_order(hand_real):
    real = hand_real("parallel-duplicated", [1.0, 1.5, 4.0], separation_r=1.0)
    us = [1.0, 1.5, 1.5, 1.0, 4.0, 4.0]
    lines = [0, 0, 1, 1, 1, 0]
    check_engines(real, us, lines, EXHAUSTED)
    traj = run_walk(real)
    assert traj.step_distances.tolist() == [1.0, 0.5, 1.0, 0.5, 3.0, 1.0]


def test_distance_tie_prefers_smaller_u(hand_real):
    real = hand_real("single-line", [-1.0, 1.0])
    check_engines(real, [-1.0, 1.0], [0, 0], EXHAUSTED)
    # the same tie across the lines: both at sqrt(2) from the origin
    real = hand_real("parallel-thinned", [5.0], line1=[-1.0, 1.0],
                     separation_r=1.0)
    check_engines(real, [-1.0, 1.0, 5.0], [1, 1, 0], EXHAUSTED, rule=EXH)


def test_distance_tie_prefers_lower_line(hand_real):
    # 3-4-5 triangle: (5, 0) same-line at 5, (4, 1) across at exactly 5
    real = hand_real("parallel-thinned", [5.0], line1=[4.0],
                     separation_r=3.0)
    check_engines(real, [5.0, 4.0], [0, 1], EXHAUSTED, rule=EXH)


def test_intersecting_walk_through_crossing(hand_real):
    real = hand_real("intersecting", [1.0], line1=[-0.5], alpha=math.pi / 2)
    check_engines(real, [-0.5, 1.0], [1, 0], EXHAUSTED, rule=EXH)
    traj = run_walk(real, rule=EXH)
    assert traj.step_distances.tolist() == [0.5, math.sqrt(1.25)]


@pytest.mark.parametrize("engine", ENGINES)
def test_a_stale_positional_start_fails_loudly(spec_for, engine):
    # every walk starts at the origin, and the stop rule is keyword-only,
    # so a start site passed where it used to go is a TypeError, not a
    # rule without a mode
    real = generate(spec_for("parallel-duplicated", window_L=10.0), 1)
    for args, kwargs in ((((2.0, 0),), {}), (((2.0, 0), EXH), {}),
                         ((), {"start": (2.0, 0)})):
        with pytest.raises(TypeError):
            engine(real, *args, **kwargs)
    assert trajectories_equal(engine(real), run_walk(real, rule=StopRule()))


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
    "single-line", "intersecting", "parallel-duplicated", "parallel-thinned",
    "parallel-shifted",
])
def test_stop_margin_lower_bounds_outside_distance(hand_real, construction):
    # every site beyond the drawn windows is at least the margin away
    real = hand_real(construction, [0.0], line1=[], alpha=0.4, window_L=10.0)
    spec = real.spec
    lines = range(1 if spec.kind == SINGLE_LINE else 2)
    rng = np.random.default_rng(3)
    for line in lines:
        for u in rng.uniform(*real.windows[line], size=50):
            m = stop_margin(real, float(u), line)
            for other in lines:
                lo, hi = real.windows[other]
                gaps = rng.exponential(2.0, size=20)
                for e in np.concatenate((lo - gaps, hi + gaps)):
                    assert m <= (abs(u - e) if other == line
                                 else cross_distance(spec, u, e))


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
    for i in range(8):
        drawn = generate(spec_for(construction), stream_seed(901, i))
        for real in windows_variants(drawn):
            for rule in (StopRule(), EXH):
                assert_engines_agree(real, rule)


# Long walks on an integer grid, where own-line gaps tie and cross ties
# come up: at r equal to the grid step, a gap equals the distance to the
# twin across.
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
def test_engines_agree_on_long_grid_walks(hand_real, construction):
    line0, line1, params = GRIDS[construction]
    real = hand_real(construction, line0, line1=line1, window_L=240.0,
                     **params)
    assert all(len(a) >= 300 for a in (real.line0, real.line1) if len(a))
    for rule in (StopRule(), EXH):
        assert_engines_agree(real, rule)


def test_kernel_loads_where_there_is_a_compiler():
    # the compiled library is the one engine: it loads, every entry typed
    lib = walk._kernel()
    assert all(getattr(lib, name).argtypes for name in walk._SIGNATURES)


@pytest.mark.skipif(COMPILER is None, reason="no C compiler")
def test_c_sources_compile_without_warnings(tmp_path):
    # every C source in the package, each listed in pyproject.toml's
    # package-data so that it ships, builds with the build's flags and the
    # common warnings as errors; a whole build, since the optimizer's
    # warnings (maybe-uninitialized) need its analysis
    package = Path(walk.__file__).resolve().parent
    pyproject = (package.parents[1] / "pyproject.toml").read_text()
    sources = sorted(package.glob("*.c"))
    assert sources
    for source in sources:
        assert f'"{source.name}"' in pyproject
        proc = subprocess.run(
            [COMPILER, *walk._CFLAGS, "-Wall", "-Wextra", "-Werror",
             "-o", str(tmp_path / "lib.so"), str(source), "-lm"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


def test_ctypes_signatures_match_the_c_prototypes():
    # ctypes does not check arity: a stale argument list would hand the
    # compiled functions garbage with no error
    c_types = {"int64_t": ctypes.c_int64, "double": ctypes.c_double,
               "int": ctypes.c_int}
    source = walk._SOURCE.read_text()
    parsed = {}
    for name in walk._SIGNATURES:
        match = re.search(r"^(\w+)\s+" + name + r"\(([^)]*)\)\s*\{",
                          source, re.MULTILINE)
        assert match, name
        args = tuple(
            ctypes.c_void_p if "*" in param
            else c_types[param.replace("const", "").split()[0]]
            for param in match[2].split(","))
        parsed[name] = (args, c_types[match[1]])
    assert parsed == walk._SIGNATURES


def test_a_failed_build_raises_the_compilers_error(tmp_path):
    # a compiler that fails gives one OSError with its exit status and the
    # tail of its stderr, and leaves no file; with no compiler the error
    # names the two it looks for; a cached build loads with no compiler
    fake = tmp_path / "fake-cc"
    fake.write_text("#!/bin/sh\necho 'fatal: out of registers' >&2\nexit 1\n")
    fake.chmod(0o755)
    cache = tmp_path / "cache"
    with pytest.raises(OSError, match="status 1.*fatal: out of registers"):
        walk._build(str(fake), cache)
    assert list(cache.iterdir()) == []
    with pytest.raises(OSError, match="neither cc nor gcc"):
        walk._build(None, cache)
    walk._build(COMPILER, cache)
    lib = walk._build(None, cache)
    assert all(getattr(lib, name).argtypes for name in walk._SIGNATURES)


def test_a_failed_build_is_not_retried(tmp_path, monkeypatch):
    # _kernel keeps a failed build's OSError, as it keeps a library, so a
    # caller that catches the error does not run the compiler again
    log = tmp_path / "runs.log"
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    fake = bin_dir / "cc"
    fake.write_text(f"#!/bin/sh\necho run >> '{log}'\nexit 3\n")
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    walk._built.cache_clear()
    try:
        for _ in range(3):
            with pytest.raises(OSError, match="status 3"):
                walk._kernel()
    finally:
        walk._built.cache_clear()
    assert log.read_text() == "run\n"


def test_kernel_edge_cases(hand_real):
    reals = [
        # an empty line 1 on two lines, and an empty line 0
        hand_real("parallel-thinned", [-3.0, 1.0, 2.5], line1=[]),
        hand_real("intersecting", [-3.0, 1.0, 2.5], line1=[]),
        hand_real("parallel-thinned", [], line1=[-2.0, 0.5]),
        # one point on a line
        hand_real("single-line", [1.0]),
        hand_real("parallel-duplicated", [1.0]),
        hand_real("parallel-shifted", [1.0]),
        hand_real("intersecting", [1.0], line1=[-2.0]),
        # a point at the crossing on both lines: the lower line wins the tie
        hand_real("intersecting", [0.0, 1.0], line1=[-1.0, 0.0]),
        # at an angle near 0, the cosine law for this pair rounds below zero
        hand_real("intersecting", [7.541889597278378],
                  line1=[7.541889647968408], alpha=1e-300),
    ]
    for real in reals:
        for rule in (StopRule(), EXH):
            assert_engines_agree(real, rule)


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_kernel_matches_python_loop_at_large_L(spec_for, construction):
    # the oracle is quadratic, so at L = 20,000 the Python loop checks the
    # compiled one; being gw_walk's line-for-line twin, it catches slips in
    # either copy, and the oracle tests at small L catch flaws they share
    real = generate(spec_for(construction, window_L=20000.0),
                    stream_seed(908, 0))
    assert len(python_loop(real)) > 10000
    assert_engines_agree(real, StopRule(), engines=(run_walk, python_loop))


# prints a digest of one walk
DIGEST_WALK = """
import hashlib
from gwlab import ProcessSpec, generate, run_walk
spec = ProcessSpec.build("parallel-shifted", window_L=200.0, separation_r=1.0,
                         shift_s=0.3)
t = run_walk(generate(spec, 5))
print(hashlib.sha256(
    b"".join(a.tobytes() for a in (t.us, t.lines, t.step_distances,
                                   t.visited_step0, t.visited_step1))
).hexdigest())
"""


def test_concurrent_cold_compile(tmp_path):
    # two processes start on one empty cache: each builds and loads the
    # compiled loop, and one library is left, with no temporary file
    src = str(Path(walk.__file__).resolve().parents[1])
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    procs = [subprocess.Popen([sys.executable, "-c", DIGEST_WALK], env=env,
                              stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [proc.communicate(timeout=120)[0].split() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert len(outs[0]) == 1 and outs[0] == outs[1]
    files = [f.name for f in (tmp_path / "gwlab").iterdir()]
    assert len(files) == 1 and files[0].endswith(".so")


PINS = Path(__file__).parent / "data" / "walk_pins.json"


def pinned_walks(spec_for):
    """(name, trajectory) for every walk whose digests walk_pins.json pins:
    each construction at L=2000, as drawn, restricted to L=1000 and (where
    defined) mirrored, under both stop rules.  Each name ends in the
    walk's start, the origin on line 0."""
    for construction in CONSTRUCTIONS:
        real = generate(spec_for(construction, window_L=2000.0),
                        stream_seed(906, 0))
        for variant, r in zip(("drawn", "restricted", "mirrored"),
                              windows_variants(real)):
            for rule in (StopRule(), EXH):
                name = f"{construction}/{variant}/{rule.mode}/0.0@0"
                yield name, run_walk(r, rule=rule)


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
    assert not trajectories_equal(a, mirror_trajectory(a))
    # the same steps, with one point's visit step off
    real = hand_real("parallel-duplicated", [-1.0, 1.0])
    a = run_walk(real, rule=EXH)
    for field in ("visited_step0", "visited_step1"):
        vis = getattr(a, field).copy()
        vis[0] += 1
        assert not trajectories_equal(a, replace(a, **{field: vis}))


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


@pytest.mark.parametrize("line0", [
    [-0.5, 0.25, np.nextafter(1.0, 2.0)],
    [np.nextafter(-1.0, -2.0), -0.25, 0.5],
], ids=["upper-end", "lower-end"])
def test_couple_restrict_shifted_rounding(hand_real, line0):
    # the point just past line 0's window end shifts onto line 1's:
    # fl(nextafter(1, 2) + 5000) == 5001.0 == fl(1 + 5000), and mirrored
    real = hand_real("parallel-shifted", line0, window_L=2.0,
                     separation_r=1e4, shift_s=5000.0)
    assert real.line1[[0, -1]].tolist() in ([4999.5, 5001.0],
                                            [4999.0, 5000.5])
    small = couple_restrict(real, 1.0)
    assert small.line0.tolist() == [u for u in line0 if abs(u) <= 1.0]
    assert np.array_equal(small.line1, small.line0 + 5000.0)


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


def test_binary_export_rewrites_in_place(tmp_path, spec_for, monkeypatch):
    # an export over a longer file is cut to its own bytes, those of a
    # fresh write; one that fails after its header leaves a file that is
    # refused, since the magic is written last
    long = run_walk(generate(spec_for("parallel-thinned", window_L=200.0), 1))
    short = run_walk(generate(spec_for("single-line", window_L=20.0), 2))
    fresh, path = tmp_path / "fresh.bin", tmp_path / "walk.bin"
    trajectory_to_binary(short, fresh)
    trajectory_to_binary(long, path)
    assert path.stat().st_size > fresh.stat().st_size
    trajectory_to_binary(short, path)
    assert path.read_bytes() == fresh.read_bytes()
    # a device that cannot be cut takes the write as before
    trajectory_to_binary(long, os.devnull)

    class Failing:
        """A file whose third write, the first after the header, fails."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                raise OSError("no space left")
            return self.fh.write(data)

    for before in (long, None):
        if before is None:
            path.unlink()
        else:
            trajectory_to_binary(before, path)
        monkeypatch.setattr(walk, "open", lambda *a: Failing(open(*a)),
                            raising=False)
        with pytest.raises(OSError, match="no space left"):
            trajectory_to_binary(short, path)
        monkeypatch.undo()
        with pytest.raises(ValidationError, match="bad magic"):
            trajectory_from_binary(path)


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
                        "parallel-thinned"]))
def test_engines_agree_on_arbitrary_points(hand_real, pts, pts1, construction):
    # line1 is independent of line0 only for parallel-thinned
    kw = {} if construction == "single-line" else {"separation_r": 1.0}
    real = hand_real(construction, sorted(pts), line1=sorted(pts1), **kw)
    for rule in (StopRule(), EXH):
        assert_engines_agree(real, rule)


# the narrowest and widest angles a spec accepts
ALPHA_EDGES = (1e-300, math.pi - 4e-16)


def log_uniform(lo, hi):
    """Magnitudes from lo to hi, both included, uniform in the exponent."""
    return st.sampled_from([lo, hi]) | st.floats(
        math.log10(lo), math.log10(hi)).map(
            lambda e: min(max(10.0 ** e, lo), hi))


@st.composite
def domain_specs(draw):
    """A spec of any construction from anywhere in the accepted domain,
    its edges included, that expects at most 30 points on a line."""
    construction = draw(st.sampled_from(CONSTRUCTIONS))
    L = draw(log_uniform(1.0 / MAX_SCALE, MAX_SCALE))
    lam = draw(st.floats(0.5, 30.0)) / (2.0 * L)
    params = dict(window_L=L, rate_lambda=lam)
    if construction == "intersecting":
        params["alpha"] = draw(st.sampled_from(ALPHA_EDGES)
                               | st.floats(*ALPHA_EDGES))
    elif construction != "single-line":
        r_max = min(MAX_SCALE, MAX_SEPARATION_POINTS / lam)
        if r_max * lam > MAX_SEPARATION_POINTS:
            r_max = math.nextafter(r_max, 0.0)
        # the domain's least separation: window_L / separation_r is below
        # MAX_BANDS
        r_min = math.nextafter(L / MAX_BANDS, math.inf)
        r = params["separation_r"] = draw(log_uniform(r_min, r_max))
        if construction == "parallel-thinned":
            params["thinning_p"] = draw(st.floats(0.0, 1.0))
        if construction == "parallel-shifted":
            unproven = params["allow_unproven_shift"] = draw(st.booleans())
            limit = r if unproven else r * SHIFT_RATIO_LIMIT
            s = limit * draw(st.floats(1e-9, 1.0, exclude_max=True))
            params["shift_s"] = math.copysign(
                min(s, math.nextafter(limit, 0.0)),
                draw(st.sampled_from([1.0, -1.0])))
    return ProcessSpec(construction, **params)


@settings(max_examples=300, deadline=None)
@given(domain_specs(), st.integers(0, 2**64 - 1),
       st.sampled_from([StopRule(), EXH]))
def test_engines_agree_on_the_spec_domain(spec, seed, rule):
    # the compiled loop, the Python loop and the oracle, bit for bit, at
    # every magnitude a spec accepts; pyproject turns any RuntimeWarning
    # from gwlab (an overflow in the metric) into an error
    real = generate(spec, seed)
    assert_engines_agree(real, rule)
    if rule == EXH:
        traj = run_walk(real, rule=rule)
        assert traj.stop_reason == EXHAUSTED
        assert len(traj) == real.n_points
