"""Point-process sampling, construction shapes, transforms, serialization."""

import dataclasses
import json
import math
import re
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gwlab import (
    CONSTRUCTIONS,
    FLAG_BOTH,
    FLAG_LINE0,
    FLAG_LINER,
    SHIFT_RATIO_LIMIT,
    ProcessSpec,
    Realization,
    ValidationError,
    generate,
    make_generator,
    realization_from_dict,
    realization_to_dict,
    sample_poisson,
    stream_seed,
)

from gwlab import experiments, processes
from gwlab.processes import CONSTRUCTION_PARAMS
from oracles import couple_restrict, mirror_realization, pack_runs

SEED = stream_seed(424242, 0)


def test_generate_is_bit_deterministic(spec_for):
    spec = spec_for("parallel-thinned")
    a = generate(spec, SEED)
    b = generate(spec, SEED)
    assert np.array_equal(a.line0, b.line0)
    assert np.array_equal(a.line1, b.line1)
    assert a.duplicate_flags == b.duplicate_flags
    c = generate(spec, stream_seed(424242, 1))
    assert not np.array_equal(a.base_points, c.base_points)


def test_stream_seeds_are_distinct():
    seeds = {stream_seed(7, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)


def test_single_line_shape(spec_for):
    real = generate(spec_for("single-line"), SEED)
    assert len(real.line1) == 0
    assert np.array_equal(real.base_points, real.line0)
    assert np.all(np.diff(real.line0) > 0)


def test_intersecting_lines_are_independent(spec_for):
    real = generate(spec_for("intersecting"), SEED)
    assert len(real.line0) > 0 and len(real.line1) > 0
    assert not np.array_equal(real.line0, real.line1)


def test_duplicated_twins(spec_for):
    real = generate(spec_for("parallel-duplicated"), SEED)
    assert np.array_equal(real.line0, real.line1)
    # the union of two equal lines is line 0 itself, frozen, not a copy
    assert real.base_points is real.line0
    assert real.base_points.tobytes() == np.union1d(real.line0,
                                                    real.line1).tobytes()


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_thinned_base_is_the_union(spec_for, p):
    # generate caches its base draw, since every base point lands on a
    # line; restrictions and mirrors derive theirs, byte for byte the same
    real = generate(spec_for("parallel-thinned", thinning_p=p), SEED)
    assert "base_points" in vars(real)
    for r in (real, couple_restrict(real, real.spec.window_L / 3),
              mirror_realization(real)):
        assert r.base_points.tobytes() == np.union1d(r.line0,
                                                     r.line1).tobytes()
        assert not r.base_points.flags.writeable


def test_thinned_flags_describe_lines(spec_for):
    real = generate(spec_for("parallel-thinned", thinning_p=0.5), SEED)
    i0 = [i for i, f in enumerate(real.duplicate_flags) if f != FLAG_LINER]
    i1 = [i for i, f in enumerate(real.duplicate_flags) if f != FLAG_LINE0]
    assert np.array_equal(real.base_points[i0], real.line0)
    assert np.array_equal(real.base_points[i1], real.line1)


def test_thinned_limits(spec_for):
    keep_all = generate(spec_for("parallel-thinned", thinning_p=0.0), SEED)
    assert all(f == FLAG_BOTH for f in keep_all.duplicate_flags)
    assert np.array_equal(keep_all.line0, keep_all.line1)

    one_copy = generate(spec_for("parallel-thinned", thinning_p=1.0,
                                 window_L=200.0), SEED)
    assert all(f != FLAG_BOTH for f in one_copy.duplicate_flags)
    assert len(one_copy.line0) + len(one_copy.line1) == len(one_copy.base_points)
    # assignment is a fair coin: 5 sigma band around half
    n = len(one_copy.base_points)
    frac = len(one_copy.line0) / n
    assert abs(frac - 0.5) < 5 * math.sqrt(0.25 / n)


def test_shifted_construction(spec_for):
    spec = spec_for("parallel-shifted", shift_s=0.3, window_L=25.0)
    real = generate(spec, SEED)
    assert np.array_equal(real.line1, real.line0 + 0.3)
    assert real.windows == ((-25.0, 25.0), (-24.7, 25.3))


def test_shift_domain_validation(spec_for):
    limit = SHIFT_RATIO_LIMIT  # 1/sqrt(3)
    assert limit == pytest.approx(1 / math.sqrt(3))
    with pytest.raises(ValidationError):
        spec_for("parallel-shifted", shift_s=limit + 1e-9)
    with pytest.raises(ValidationError):
        spec_for("parallel-shifted", shift_s=0.0)
    # widened domain accepts |s| < r but still rejects |s| >= r
    spec_for("parallel-shifted", shift_s=0.8, allow_unproven_shift=True)
    spec_for("parallel-shifted", shift_s=-0.8, allow_unproven_shift=True)
    with pytest.raises(ValidationError):
        spec_for("parallel-shifted", shift_s=1.0, allow_unproven_shift=True)


def test_spec_field_scoping():
    for construction, params, message in [
        ("parallel-duplicated", dict(separation_r=1.0, thinning_p=0.5),
         "parallel-duplicated does not use thinning_p"),
        ("single-line", dict(shift_s=0.1), "single-line does not use shift_s"),
        ("single-line", dict(separation_r=1.0),
         "single-line does not use separation_r"),
        ("single-line", dict(rate_lambda=0.0), "rate_lambda"),
        ("parallel-thinned", dict(separation_r=1.0, thinning_p=1.5),
         "thinning_p"),
    ]:
        with pytest.raises(ValidationError, match=message):
            ProcessSpec(construction, window_L=10.0, **params)


def test_sample_poisson_window_and_order():
    rng = make_generator(SEED)
    pts = sample_poisson(2.0, (-5.0, 5.0), rng)
    assert np.all(pts >= -5.0) and np.all(pts <= 5.0)
    assert np.all(np.diff(pts) > 0)
    assert len(sample_poisson(0.0, (-5.0, 5.0), rng)) == 0
    with pytest.raises(ValidationError):
        sample_poisson(1.0, (5.0, -5.0), rng)


def test_sample_poisson_drops_an_exact_tie():
    # a repeated position (probability zero from a real generator) is kept
    # once
    class Tied:
        def poisson(self, lam):
            return 4

        def uniform(self, lo, hi, size):
            return np.array([0.5, -1.0, 0.5, 2.0])[:size]

    pts = sample_poisson(1.0, (-5.0, 5.0), Tied())
    assert pts.tolist() == [-1.0, 0.5, 2.0] and pts.dtype == np.float64


def fresh_generator(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def philox_state(rng):
    state = rng.bit_generator.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"],
            state["has_uint32"], state["uinteger"])


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_make_generator_rekeys_to_a_fresh_philox(spec_for, monkeypatch, seed):
    # after draws that leave a counter, a part-used buffer and a held
    # uint32 behind, re-keying gives a new Philox(key=seed)'s state, and
    # generate draws that generator's stream
    dirty = make_generator(12345)
    dirty.random(3)
    dirty.integers(0, 2**32, size=3, dtype=np.uint32)
    assert dirty.bit_generator.state["has_uint32"] == 1
    rng = make_generator(seed)
    assert philox_state(rng) == philox_state(fresh_generator(seed))
    assert rng.random(5).tolist() == fresh_generator(seed).random(5).tolist()

    specs = [spec_for(c) for c in CONSTRUCTIONS]
    drawn = [generate(spec, seed) for spec in specs]
    monkeypatch.setattr("gwlab.processes.make_generator", fresh_generator)
    for spec, real in zip(specs, drawn):
        want = generate(spec, seed)
        for name in ("line0", "line1", "base_points"):
            assert getattr(real, name).tobytes() == getattr(want,
                                                            name).tobytes()


def test_make_generator_is_per_thread():
    # each thread re-keys its own generator: both threads key theirs
    # before either draws, so one shared generator would serve one key
    seeds = [stream_seed(5, i) for i in range(40)]
    barrier = threading.Barrier(2, timeout=30)
    got = {}

    def draw(name, order):
        out = []
        for seed in order:
            rng = make_generator(seed)
            barrier.wait()
            out.append((seed, rng.random(4).tolist(),
                        rng.integers(0, 2**32, dtype=np.uint32).item()))
            barrier.wait()
        got[name] = out

    threads = [threading.Thread(target=draw, args=(name, order))
               for name, order in (("a", seeds), ("b", seeds[::-1]))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert sorted(got) == ["a", "b"]
    for out in got.values():
        for seed, floats, word in out:
            want = fresh_generator(seed)
            assert floats == want.random(4).tolist()
            assert word == want.integers(0, 2**32, dtype=np.uint32).item()


def test_sample_poisson_mean_count():
    rng = make_generator(SEED)
    counts = [len(sample_poisson(1.0, (0.0, 100.0), rng)) for _ in range(300)]
    mean = np.mean(counts)
    # Poisson(100): 5 sigma band over 300 draws
    assert abs(mean - 100.0) < 5 * math.sqrt(100.0 / 300)


def test_generate_caps_expected_points(spec_for, monkeypatch):
    # the cap is checked before anything is drawn: a draw here would fail
    # with the sentinel instead of allocating
    def no_draw(seed):
        raise LookupError("drew")

    monkeypatch.setattr("gwlab.processes.make_generator", no_draw)
    for L, rate in ((1e19, 1.0), (1e12, 1.0), (1e5, 1e4), (5.0000001e7, 1.0)):
        with pytest.raises(ValidationError, match="cap"):
            generate(spec_for("single-line", window_L=L, rate_lambda=rate), 1)
    # exactly at the cap is allowed, and reaches the draw
    with pytest.raises(LookupError):
        generate(spec_for("parallel-duplicated", window_L=5e7), 1)


def test_mirror_is_involution(spec_for):
    # u -> -u on both lines: a mirror on parallel lines, the point
    # reflection through the crossing on intersecting ones
    for construction in ("parallel-thinned", "intersecting"):
        real = generate(spec_for(construction, thinning_p=0.5), SEED)
        back = mirror_realization(mirror_realization(real))
        assert np.array_equal(back.line0, real.line0)
        assert np.array_equal(back.line1, real.line1)
        assert back.duplicate_flags == real.duplicate_flags
        assert back.windows == real.windows


def test_mirror_reverses_and_negates(spec_for):
    real = generate(spec_for("parallel-shifted", shift_s=0.3), SEED)
    m = mirror_realization(real)
    assert np.array_equal(m.line0, np.sort(-real.line0))
    assert m.spec.shift_s == -0.3
    assert m.windows == ((-25.0, 25.0), (-25.3, 24.7))
    m.check_invariants()


@pytest.mark.parametrize("construction", [
    "single-line", "intersecting", "parallel-duplicated",
    "parallel-thinned", "parallel-shifted",
])
def test_serialization_roundtrip(spec_for, construction):
    real = generate(spec_for(construction), SEED)
    back = realization_from_dict(json.loads(json.dumps(realization_to_dict(real))))
    assert np.array_equal(back.line0, real.line0)
    assert np.array_equal(back.line1, real.line1)
    assert np.array_equal(back.base_points, real.base_points)
    assert back.duplicate_flags == real.duplicate_flags
    assert back.windows == real.windows
    assert back.spec == real.spec
    back.check_invariants()


def test_import_validates(spec_for):
    d = realization_to_dict(generate(spec_for("parallel-thinned"), SEED))
    realization_from_dict(d)
    # base_points and flags are derived from line0/line1; an export whose
    # copies disagree with them is corrupt
    for key, bad in [
        ("line0", d["line0"][::-1]),
        ("base_points", d["base_points"][1:]),
        ("base_points", [u + 1e-9 for u in d["base_points"]]),
        ("flags", d["flags"][1:]),
        ("flags", [FLAG_BOTH] * len(d["flags"])),
        ("flags", ["line1" if f == FLAG_LINER else f for f in d["flags"]]),
        # values of the wrong shape or type
        ("windows", [[-25, 25]]),
        ("windows", 5),
        ("windows", [[-25, "x"], [-25, 25]]),
        ("windows", [[-25, 25], [-25, 25], [-25, 25]]),
        ("windows", [[-25, 25, 0], [-25, 25]]),
        ("windows", [[25, -25], [-25, 25]]),
        ("windows", [[-25, math.inf], [-25, 25]]),
        ("windows", [[-25, 25], 7]),
        ("windows", [[-25, True], [-25, 25]]),
        ("line0", "xyz"),
        ("line0", [d["line0"]]),
        ("line0", d["line0"][:-1] + [math.nan]),
        ("line1", d["line1"][:-1] + ["7"]),
        ("line1", [True]),
        ("line1", None),
        ("seed", "abc"),
        ("seed", 1.5),
        ("seed", True),
        ("seed", None),
        # beyond 64 bits a seed would draw what a seed in range draws
        ("seed", -1),
        ("seed", 2**64),
        ("bogus", 1),  # a key no export writes
    ]:
        with pytest.raises(ValidationError):
            realization_from_dict({**d, key: bad})
    # windows must equal the spec's, integers included; any other value is
    # rejected, even where every point lies inside it
    realization_from_dict({**d, "windows": [[-25, 25], [-25, 25]]})
    bare = {k: v for k, v in d.items() if k not in ("base_points", "flags")}
    realization_from_dict({**bare, "line1": []})
    with pytest.raises(ValidationError):
        realization_from_dict({**bare, "line1": [],
                               "windows": [[-25, 25], [25, -25]]})
    # a missing or mistyped required key names itself
    for key in ("spec", "seed", "line0", "line1"):
        with pytest.raises(ValidationError, match=key):
            realization_from_dict({k: v for k, v in d.items() if k != key})
    for spec in (None, [d["spec"]], "parallel-thinned",
                 {k: v for k, v in d["spec"].items() if k != "space"},
                 {**d["spec"], "space": 25.0}):
        with pytest.raises(ValidationError, match="spec"):
            realization_from_dict({**d, "spec": spec})
    # spec values of the wrong type, and spec keys no export writes, name
    # their field; an export writes rate_lambda_line1 as null, as both lines
    # share rate_lambda
    space = d["spec"]["space"]
    for field, spec in [
        ("window_L", {**d["spec"], "space": {**space, "window_L": "5"}}),
        ("window_L", {**d["spec"], "space": {**space, "window_L": True}}),
        ("separation_r", {**d["spec"], "space": {**space,
                                                 "separation_r": [1]}}),
        ("rate_lambda", {**d["spec"], "rate_lambda": "1"}),
        ("thinning_p", {**d["spec"], "thinning_p": False}),
        ("shift_s", {**d["spec"], "construction": "parallel-shifted",
                     "thinning_p": None, "shift_s": "0.3"}),
        ("allow_unproven_shift", {**d["spec"], "allow_unproven_shift": "yes"}),
        ("allow_unproven_shift", {**d["spec"], "allow_unproven_shift": 1}),
        ("thining_p", {**d["spec"], "thining_p": 0.9}),
        ("allow_unproven_shfit", {**d["spec"], "allow_unproven_shfit": True}),
        ("shift_s", {**d["spec"], "space": {**space, "shift_s": 0.3}}),
        ("rate_lambda_line1", {**d["spec"], "rate_lambda_line1": 2.0}),
    ]:
        with pytest.raises(ValidationError, match=field):
            realization_from_dict({**d, "spec": spec})
    with pytest.raises(ValidationError):
        realization_from_dict([d])
    # the derived keys are optional on import
    realization_from_dict({k: v for k, v in d.items()
                           if k not in ("base_points", "flags")})
    duplicated = realization_to_dict(
        generate(spec_for("parallel-duplicated"), SEED))
    with pytest.raises(ValidationError):
        realization_from_dict({**duplicated,
                               "flags": [FLAG_BOTH] * len(duplicated["line0"])})


def test_import_rejects_what_the_spec_rules_out(spec_for):
    # allow_unproven_shift on a spec that draws no shift
    d = realization_to_dict(generate(spec_for("parallel-thinned"), SEED))
    with pytest.raises(ValidationError, match="parallel-thinned does not "
                                              "use allow_unproven_shift"):
        realization_from_dict(
            {**d, "spec": {**d["spec"], "allow_unproven_shift": True}})
    # windows wider than the spec's would widen the walk's stop margin
    d = realization_to_dict(
        generate(spec_for("parallel-duplicated", window_L=10.0), SEED))
    assert d["windows"] == [[-10.0, 10.0], [-10.0, 10.0]]
    with pytest.raises(ValidationError, match="windows"):
        realization_from_dict({**d, "windows": [[-10.0, 10.0],
                                                [-10.05, 10.05]]})
    # a space kind other than the construction's
    space = {**d["spec"]["space"], "kind": "intersecting"}
    with pytest.raises(ValidationError, match="kind"):
        realization_from_dict({**d, "spec": {**d["spec"], "space": space}})


def test_invariants_catch_corruption(spec_for):
    spec = spec_for("parallel-duplicated")
    pts = np.array([3.0, 1.0, 2.0])
    with pytest.raises(ValidationError):
        Realization(spec=spec, seed=0, line0=pts,
                    line1=pts.copy()).check_invariants()
    a = np.array([1.0, 2.0])
    b = np.array([1.0, 3.0])
    with pytest.raises(ValidationError):
        Realization(spec=spec, seed=0, line0=a, line1=b).check_invariants()
    # a run that breaks rule i of INVARIANTS first is refused by its words,
    # which gw_draw's status 5 + i names too
    for i, (construction, line0, line1) in enumerate((
            ("single-line", [2.0, 1.0], []),
            ("intersecting", [1.0, 2.0], [2.0, 1.0]),
            ("single-line", [1.0, 30.0], []),
            ("intersecting", [1.0], [1.0, 30.0]),
            ("single-line", [1.0], [1.0]),
            ("parallel-duplicated", [1.0, 2.0], [1.0, 3.0]),
            ("parallel-shifted", [1.0, 2.0], [1.3, 2.4]))):
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(processes.INVARIANTS[i])}$"):
            Realization(spec=spec_for(construction), seed=0,
                        line0=np.array(line0), line1=np.array(line1))


def test_shadow_and_flags_are_derived(hand_real):
    real = hand_real("parallel-thinned", [1.0, 2.0], line1=[1.0, 3.0])
    assert real.base_points.tolist() == [1.0, 2.0, 3.0]
    assert real.duplicate_flags == (FLAG_BOTH, FLAG_LINE0, FLAG_LINER)
    with pytest.raises(ValueError):
        real.base_points[0] = 0.0
    assert hand_real("parallel-duplicated", [1.0]).duplicate_flags is None
    assert [f.name for f in dataclasses.fields(Realization)] == [
        "spec", "seed", "line0", "line1", "provenance"]


def test_points_are_frozen(spec_for):
    real = generate(spec_for("single-line"), SEED)
    with pytest.raises(ValueError):
        real.line0[0] = 0.0


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(CONSTRUCTIONS), st.integers(0, 2**64 - 1),
       st.integers(1, 4), st.sampled_from([0.5, 7.0, 60.0, 2000.0]),
       st.floats(-1.5, 5.0), st.sampled_from([0.0, 0.5, 1.0]),
       st.sampled_from([0.3, -0.3, 0.05]),
       st.lists(st.sampled_from([0.5, 0.2]), max_size=2,
                unique=True).map(lambda w: sorted([1.0, *w])),
       st.booleans())
# lines with no point, at 1/sqrt(10) points expected on each
@example(construction="intersecting", base_seed=3, n_runs=4, L=0.5,
         log_points=-0.5, p=0.5, shift=0.3, windows=[1.0], short=False)
# the PTRS branch at about 10^5 points, restricted twice, after a retry
@example(construction="parallel-thinned", base_seed=2**64 - 1, n_runs=2,
         L=2000.0, log_points=5.0, p=0.5, shift=-0.3,
         windows=[0.2, 0.5, 1.0], short=True)
def test_draw_is_generate_bit_for_bit(monkeypatch, construction, base_seed,
                                      n_runs, L, log_points, p, shift,
                                      windows, short):
    # a sweep chunk's draw (gw_draw) packs, bit for bit, what
    # couple_restrict(generate(...)) packs, on every construction, seeds
    # across 64 bits, rate * 2L from below 1 (empty lines) through both
    # Poisson branches to 10^5, thinned p of 0, 1/2 and 1, shifts of both
    # signs and one to three windows, also when its first room is short
    rate = 10.0**log_points / (2 * L)
    r = min(1.0, 100.0 / rate)
    params = dict(alpha=1.0, separation_r=r, thinning_p=p, shift_s=shift * r)
    cfg = experiments.ExperimentConfig(
        name="t", construction=construction, n_runs=n_runs,
        base_seed=base_seed, window_L=L, rate_lambda=rate,
        **{k: v for k, v in params.items()
           if k in CONSTRUCTION_PARAMS[construction]})
    spec, Ls = cfg.to_spec(), [w * L for w in windows]
    drawn = []

    def capture(spec, D, N, **kw):
        drawn.append((D, N))
        return [[0] * (len(N) // 2)] * 3 + [[None] * (len(N) // 2)] * 2

    monkeypatch.setattr(experiments, "sweep_counts", capture)
    if short:
        monkeypatch.setattr(experiments, "_room", lambda *args: 0)
    experiments._run_chunk(cfg, spec, Ls, range(n_runs))
    D_ref, N_ref = pack_runs([couple_restrict(generate(
        spec, stream_seed(base_seed, i)), x) for i in range(n_runs) for x in Ls])
    (D, N), = drawn
    assert np.array_equal(N, N_ref)
    assert D[:len(D_ref)].tobytes() == D_ref.tobytes()


def test_draw_example_has_empty_lines():
    # the first example above: each line of its runs is empty, but for one
    # point on line 0 of the first and one on line 1 of the second
    spec = ProcessSpec.build("intersecting", window_L=0.5,
                             rate_lambda=10**-0.5, alpha=1.0)
    assert [(len(real.line0), len(real.line1)) for real in (
        generate(spec, stream_seed(3, i)) for i in range(4))] == [
            (1, 0), (0, 1), (0, 0), (0, 0)]


def test_draw_counts_are_numpys_poisson_draws(monkeypatch):
    # the count of each of about 128,000 single-line runs drawn in sweep
    # chunks is numpy's Generator.poisson on the run's stream, at rate * 2L
    # from 0.01 through the branch at 10 (multiplication below, PTRS from
    # there) to 2,000; 84,000 of them take PTRS, which reaches its rarer
    # branches (the squeeze and the log-gamma test) here
    drawn = []
    monkeypatch.setattr(experiments, "sweep_counts",
                        lambda spec, D, N, **kw: drawn.append(N)
                        or [[0] * (len(N) // 2)] * 3
                        + [[None] * (len(N) // 2)] * 2)
    lams = [*np.geomspace(0.01, 2000.0, 17), 10.0, math.nextafter(10.0, 0.0)]
    for j, lam in enumerate(lams):
        n_runs = int(min(30_000 if lam >= 10 else 4000, 600_000 / lam))
        cfg = experiments.ExperimentConfig(
            name="t", construction="single-line", n_runs=n_runs,
            base_seed=j, window_L=0.5, rate_lambda=lam)
        drawn.clear()
        experiments._run_chunk(cfg, cfg.to_spec(), [0.5], range(n_runs))
        want = [make_generator(stream_seed(j, i)).poisson(lam * (0.5 - -0.5))
                for i in range(n_runs)]
        assert drawn[0][::2].tolist() == want
