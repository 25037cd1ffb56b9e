"""Shared builders: specs with default parameters, hand-built realizations
and trajectories for fixture tests that need exact point placement."""

import math

import numpy as np
import pytest

from gwlab import ProcessSpec, Realization, Site, Trajectory, distance


# the CLI's defaults; ProcessSpec.build ignores the ones a construction
# does not read
SPEC_DEFAULTS = dict(window_L=25.0, separation_r=1.0, alpha=math.pi / 3,
                     thinning_p=0.5, shift_s=0.3)


@pytest.fixture
def spec_for():
    def build(construction, **params):
        return ProcessSpec.build(construction, **{**SPEC_DEFAULTS, **params})

    return build


@pytest.fixture
def hand_real(spec_for):
    """Realization from explicit point lists, bypassing the sampler."""

    def build(construction, line0, line1=None, **kw):
        spec = spec_for(construction, **kw)
        a0 = np.asarray(line0, dtype=np.float64)
        if construction == "single-line":
            a1 = np.empty(0)
        elif construction == "parallel-duplicated":
            a1 = a0.copy()
        elif construction == "parallel-shifted":
            a1 = a0 + spec.shift_s
        else:
            a1 = np.asarray([] if line1 is None else line1, dtype=np.float64)
        return Realization(spec=spec, seed=0, line0=a0, line1=a1)

    return build


@pytest.fixture
def hand_traj():
    """Trajectory from an explicit visit order.

    Builds consistent visited-step arrays and true geometric step
    distances; it does not enforce that the order is greedy, which is the
    point: analysis code must take any trajectory at face value.
    """

    def build(real, us, lines, start=Site(0.0, 0), stop_reason="truncated"):
        us = np.asarray(us, dtype=np.float64)
        lines = np.asarray(lines, dtype=np.int8)
        vis0 = np.full(len(real.line0), -1, dtype=np.int64)
        vis1 = np.full(len(real.line1), -1, dtype=np.int64)
        prev = start
        dists = []
        for t, (u, l) in enumerate(zip(us, lines), start=1):
            arr = real.line0 if l == 0 else real.line1
            i = int(np.searchsorted(arr, u))
            assert i < len(arr) and arr[i] == u, f"({u}, {l}) not in realization"
            (vis0 if l == 0 else vis1)[i] = t
            here = Site(float(u), int(l))
            dists.append(distance(real.spec, prev, here))
            prev = here
        return Trajectory(
            start=start,
            us=us,
            lines=lines,
            step_distances=np.asarray(dists, dtype=np.float64),
            stop_reason=stop_reason,
            visited_step0=vis0,
            visited_step1=vis1,
        )

    return build
