"""Every verify suite can fail: each reports no violation on greedy walks
and at least one once a small corpus of them is made non-greedy, and each
violation names the run it was found on."""

from dataclasses import asdict

import numpy as np
import pytest

from gwlab import (ProcessSpec, extract_UV_sequences, generate, run_walk,
                   stream_seed)
from gwlab.checks import CHECKS, Outcome

# a construction each suite applies to and can fail on; povratak and
# indented-entry flag perturbed walks only at r ~ 1 (the spec_for default)
REGIMES = {
    "lemma-distance": "parallel-duplicated",
    "lemma-replay": "single-line",
    "empty-interval": "single-line",
    "dx-bounds": "parallel-thinned",
    "povratak": "parallel-thinned",
    "cluster-traversal": "parallel-duplicated",
    "indented-entry": "parallel-shifted",
    "uv-verdicts": "intersecting",
    "oracle-equivalence": "single-line",
}

DX_BOUNDS_CANNOT_FAIL = pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md: dx-bounds cannot fail; each term "
    "2*z_next - z_prev - x of a deficiency record is <= x and the last "
    "term is > 0"))


def _perturbed(hand_traj, real, traj, rng):
    """The walk with three random adjacent steps swapped, then fully
    shuffled, each rebuilt with consistent visit steps."""
    swapped = np.arange(len(traj))
    for j in rng.integers(0, len(traj) - 1, size=3):
        swapped[[j, j + 1]] = swapped[[j + 1, j]]
    for order in (swapped, rng.permutation(len(traj))):
        yield hand_traj(real, traj.us[order], traj.lines[order])


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=DX_BOUNDS_CANNOT_FAIL) if name == "dx-bounds"
    else name for name in CHECKS])
def test_every_suite_can_fail(spec_for, hand_traj, name):
    check = CHECKS[name]
    spec = spec_for(REGIMES[name], window_L=50.0)
    assert spec.construction in check.constructions
    greedy, perturbed = Outcome(), Outcome()
    for i in range(10):
        real = generate(spec, stream_seed(2024, i))
        traj = run_walk(real)
        greedy += check.per_run(real, traj)
        for bad in _perturbed(hand_traj, real, traj,
                              np.random.default_rng(i)):
            outcome = check.per_run(real, bad)
            for d in outcome.details:
                # its spec dict and seed draw the very run the check saw
                again = generate(ProcessSpec.from_dict(d["spec"]), d["seed"])
                assert again.spec == real.spec
                assert np.array_equal(again.line0, real.line0)
                assert np.array_equal(again.line1, real.line1)
            perturbed += outcome
    assert greedy.violations == 0
    assert perturbed.violations >= 1


def test_uv_violations_carry_their_records(spec_for, hand_traj):
    # a C detail is the whole landmark record, so it names its steps j and
    # k and both sites; checked on the shuffled walks of the corpus above
    spec = spec_for(REGIMES["uv-verdicts"], window_L=50.0)
    found = 0
    for i in range(10):
        real = generate(spec, stream_seed(2024, i))
        *_, shuffled = _perturbed(hand_traj, real, run_walk(real),
                                  np.random.default_rng(i))
        want = [{"spec": real.spec.to_dict(), "seed": real.seed, **asdict(r)}
                for r in extract_UV_sequences(shuffled) if r.verdict == "C"]
        assert CHECKS["uv-verdicts"].per_run(real, shuffled).details == want
        found += len(want)
    assert found >= 1


# the counts each suite's verify line prints, in print order
COUNT_NAMES = {
    "lemma-distance": ("checks", "violations"),
    "lemma-replay": ("checks", "violations"),
    "empty-interval": ("checks", "violations"),
    "dx-bounds": ("records", "violations"),
    "povratak": ("occurrences", "violations", "unknowns"),
    "cluster-traversal": ("ok", "undecided", "violations"),
    "indented-entry": ("indented_lead_entries", "violations", "undecided",
                       "early_exits"),
    "uv-verdicts": ("records", "B", "C"),
    "oracle-equivalence": ("mismatches",),
}


@pytest.mark.parametrize("name", CHECKS)
def test_count_names_pinned(spec_for, name):
    # verify prints the summed counts, so every run on every construction
    # names the same counts in the same order, and so does their sum
    check = CHECKS[name]
    for construction in check.constructions:
        spec = spec_for(construction, window_L=10.0)
        total = Outcome()
        for i in range(3):
            real = generate(spec, stream_seed(31, i))
            outcome = check.per_run(real, run_walk(real))
            assert tuple(outcome.counts) == COUNT_NAMES[name]
            total += outcome
        assert tuple(total.counts) == COUNT_NAMES[name]
