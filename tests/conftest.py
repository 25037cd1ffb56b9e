"""Shared builders: specs with default parameters, hand-built realizations
and trajectories for fixture tests that need exact point placement."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from gwlab import ProcessSpec, Realization, Trajectory, cross_distance


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
    distances, the first measured from the origin; it does not enforce
    that the order is greedy, which is the point: analysis code must take
    any consistent trajectory at face value, greedy or not.
    """

    def build(real, us, lines, stop_reason="truncated"):
        us = np.asarray(us, dtype=np.float64)
        lines = np.asarray(lines, dtype=np.int8)
        vis0 = np.full(len(real.line0), -1, dtype=np.int64)
        vis1 = np.full(len(real.line1), -1, dtype=np.int64)
        pu, pl = 0.0, 0
        dists = []
        for t, (u, l) in enumerate(zip(us, lines), start=1):
            arr = real.line0 if l == 0 else real.line1
            i = int(np.searchsorted(arr, u))
            assert i < len(arr) and arr[i] == u, f"({u}, {l}) not in realization"
            (vis0 if l == 0 else vis1)[i] = t
            dists.append(abs(u - pu) if l == pl
                         else cross_distance(real.spec, pu, u))
            pu, pl = u, l
        return Trajectory(
            us=us,
            lines=lines,
            step_distances=np.asarray(dists, dtype=np.float64),
            stop_reason=stop_reason,
            visited_step0=vis0,
            visited_step1=vis1,
        )

    return build


@pytest.fixture(scope="session")
def bench_tracer():
    """bench/tracer.py, loaded as a module (bench/ is not a package)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer
