"""Metric layer: distances and angles on a spec's lines, and the spec's
checks of its geometry."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwlab import (
    INTERSECTING,
    INTERSECTING_INDEPENDENT,
    PARALLEL,
    PARALLEL_DUPLICATED,
    SINGLE_LINE,
    SINGLE_POISSON,
    ProcessSpec,
    Site,
    ValidationError,
    distance,
)

SP_SINGLE = ProcessSpec(SINGLE_POISSON, window_L=10.0)
SP_PAR = ProcessSpec(PARALLEL_DUPLICATED, window_L=10.0, separation_r=1.0)
SP_RIGHT = ProcessSpec(INTERSECTING_INDEPENDENT, window_L=10.0,
                       alpha=math.pi / 2)

finite_u = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_same_line_distance_is_abscissa_gap():
    assert distance(SP_PAR, Site(1.5, 0), Site(-2.0, 0)) == 3.5
    assert distance(SP_SINGLE, Site(4.0, 0), Site(4.0, 0)) == 0.0


def test_parallel_cross_line_distance():
    assert distance(SP_PAR, Site(3.0, 0), Site(0.0, 1)) == pytest.approx(
        math.hypot(3.0, 1.0)
    )
    # directly across: exactly the separation
    assert distance(SP_PAR, Site(2.0, 0), Site(2.0, 1)) == 1.0


def test_intersecting_right_angle_distance():
    assert distance(SP_RIGHT, Site(3.0, 0), Site(4.0, 1)) == pytest.approx(5.0)
    # abscissas are signed from the intersection point
    assert distance(SP_RIGHT, Site(0.0, 0), Site(-2.5, 1)) == 2.5


def test_intersecting_sign_matters():
    sp = ProcessSpec(INTERSECTING_INDEPENDENT, window_L=10.0,
                     alpha=math.pi / 3)
    near = distance(sp, Site(2.0, 0), Site(2.0, 1))
    far = distance(sp, Site(2.0, 0), Site(-2.0, 1))
    assert near < far
    # law of cosines against an explicit plane embedding
    a, b = 2.0, 2.0
    expect = math.sqrt(a * a + b * b - 2 * a * b * math.cos(math.pi / 3))
    assert near == pytest.approx(expect)


def test_single_line_has_no_second_line():
    with pytest.raises(ValidationError):
        distance(SP_SINGLE, Site(0.0, 0), Site(1.0, 1))


# the geometry values a spec rejects, with the message naming the rule
SPEC_REJECTS = [
    (dict(construction="diagonal", window_L=1.0), "unknown construction"),
    (dict(construction=SINGLE_POISSON, window_L=0.0), "window_L must be positive"),
    (dict(construction=SINGLE_POISSON, window_L=-3.0),
     "window_L must be positive"),
    (dict(construction=INTERSECTING_INDEPENDENT, window_L=1.0), "alpha in"),
    (dict(construction=INTERSECTING_INDEPENDENT, window_L=1.0, alpha=0.0),
     "alpha in"),
    (dict(construction=INTERSECTING_INDEPENDENT, window_L=1.0, alpha=math.pi),
     "alpha in"),
    (dict(construction=PARALLEL_DUPLICATED, window_L=1.0), "separation_r > 0"),
    (dict(construction=PARALLEL_DUPLICATED, window_L=1.0, separation_r=0.0),
     "separation_r > 0"),
    (dict(construction=PARALLEL_DUPLICATED, window_L=1.0, separation_r=1.0,
          alpha=1.0), "parallel-duplicated does not use alpha"),
    (dict(construction=SINGLE_POISSON, window_L=1.0, separation_r=1.0),
     "single-line does not use separation_r"),
    (dict(construction=SINGLE_POISSON, window_L=math.inf),
     "window_L must be finite"),
    (dict(construction=SINGLE_POISSON, window_L=math.nan),
     "window_L must be finite"),
    (dict(construction=PARALLEL_DUPLICATED, window_L=1.0,
          separation_r=math.inf), "separation_r must be finite"),
    (dict(construction=INTERSECTING_INDEPENDENT, window_L=1.0,
          alpha=math.nan), "alpha must be finite"),
    (dict(construction=SINGLE_POISSON, window_L="5"),
     "window_L must be a number"),
    (dict(construction=SINGLE_POISSON, window_L=True),
     "window_L must be a number"),
    (dict(construction=PARALLEL_DUPLICATED, window_L=1.0, separation_r=[1]),
     "separation_r must be a number"),
    (dict(construction=INTERSECTING_INDEPENDENT, window_L=1.0, alpha="1"),
     "alpha must be a number"),
]


@pytest.mark.parametrize("kwargs, message", SPEC_REJECTS,
                         ids=[f"kwargs{i}" for i in range(len(SPEC_REJECTS))])
def test_space_validation_rejects(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        ProcessSpec(**kwargs)


def test_n_lines():
    assert (SP_SINGLE.kind, SP_SINGLE.n_lines) == (SINGLE_LINE, 1)
    assert (SP_PAR.kind, SP_PAR.n_lines) == (PARALLEL, 2)
    assert (SP_RIGHT.kind, SP_RIGHT.n_lines) == (INTERSECTING, 2)


@pytest.mark.parametrize(
    "spec",
    [SP_SINGLE, SP_PAR, SP_RIGHT,
     ProcessSpec(INTERSECTING_INDEPENDENT, window_L=10.0, alpha=0.4)],
    ids=["single", "parallel", "right-angle", "narrow-angle"],
)
def test_triangle_inequality_sweep(spec):
    # 10^4 random site triples per geometry; d(a,c) <= d(a,b) + d(b,c)
    rng = np.random.default_rng(20250815)
    n = 10_000
    us = rng.uniform(-10.0, 10.0, size=(n, 3))
    lines = rng.integers(0, spec.n_lines, size=(n, 3))
    worst = -math.inf
    for (u1, u2, u3), (l1, l2, l3) in zip(us, lines):
        a, b, c = Site(u1, int(l1)), Site(u2, int(l2)), Site(u3, int(l3))
        slack = distance(spec, a, b) + distance(spec, b, c) - distance(spec, a, c)
        worst = max(worst, -slack)
    assert worst <= 1e-12


@given(u=finite_u, v=finite_u, la=st.integers(0, 1), lb=st.integers(0, 1))
def test_distance_symmetric_nonnegative(u, v, la, lb):
    for spec in (SP_PAR, SP_RIGHT):
        d1 = distance(spec, Site(u, la), Site(v, lb))
        d2 = distance(spec, Site(v, lb), Site(u, la))
        assert d1 == d2
        assert d1 >= 0.0


@given(u=finite_u, v=finite_u)
def test_parallel_cross_distance_dominates_separation(u, v):
    assert distance(SP_PAR, Site(u, 0), Site(v, 1)) >= SP_PAR.separation_r

