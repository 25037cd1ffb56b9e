"""Metric layer: distances, angles, space validation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwlab import (
    INTERSECTING,
    PARALLEL,
    SINGLE_LINE,
    Site,
    Space,
    ValidationError,
    distance,
)

SP_SINGLE = Space(SINGLE_LINE, 10.0)
SP_PAR = Space(PARALLEL, 10.0, separation_r=1.0)
SP_RIGHT = Space(INTERSECTING, 10.0, alpha=math.pi / 2)

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
    sp = Space(INTERSECTING, 10.0, alpha=math.pi / 3)
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


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="diagonal", window_L=1.0),
        dict(kind=SINGLE_LINE, window_L=0.0),
        dict(kind=SINGLE_LINE, window_L=-3.0),
        dict(kind=INTERSECTING, window_L=1.0),
        dict(kind=INTERSECTING, window_L=1.0, alpha=0.0),
        dict(kind=INTERSECTING, window_L=1.0, alpha=math.pi),
        dict(kind=PARALLEL, window_L=1.0),
        dict(kind=PARALLEL, window_L=1.0, separation_r=0.0),
        dict(kind=PARALLEL, window_L=1.0, separation_r=1.0, alpha=1.0),
        dict(kind=SINGLE_LINE, window_L=1.0, separation_r=1.0),
        dict(kind=SINGLE_LINE, window_L=math.inf),
        dict(kind=SINGLE_LINE, window_L=math.nan),
        dict(kind=PARALLEL, window_L=1.0, separation_r=math.inf),
        dict(kind=INTERSECTING, window_L=1.0, alpha=math.nan),
        dict(kind=SINGLE_LINE, window_L="5"),
        dict(kind=SINGLE_LINE, window_L=True),
        dict(kind=PARALLEL, window_L=1.0, separation_r=[1]),
        dict(kind=INTERSECTING, window_L=1.0, alpha="1"),
    ],
)
def test_space_validation_rejects(kwargs):
    with pytest.raises(ValidationError):
        Space(**kwargs)


def test_n_lines():
    assert SP_SINGLE.n_lines == 1
    assert SP_PAR.n_lines == 2
    assert SP_RIGHT.n_lines == 2


@pytest.mark.parametrize(
    "space",
    [SP_SINGLE, SP_PAR, SP_RIGHT, Space(INTERSECTING, 10.0, alpha=0.4)],
    ids=["single", "parallel", "right-angle", "narrow-angle"],
)
def test_triangle_inequality_sweep(space):
    # 10^4 random site triples per geometry; d(a,c) <= d(a,b) + d(b,c)
    rng = np.random.default_rng(20250815)
    n = 10_000
    us = rng.uniform(-10.0, 10.0, size=(n, 3))
    lines = rng.integers(0, space.n_lines, size=(n, 3))
    worst = -math.inf
    for (u1, u2, u3), (l1, l2, l3) in zip(us, lines):
        a, b, c = Site(u1, int(l1)), Site(u2, int(l2)), Site(u3, int(l3))
        slack = distance(space, a, b) + distance(space, b, c) - distance(space, a, c)
        worst = max(worst, -slack)
    assert worst <= 1e-12


@given(u=finite_u, v=finite_u, la=st.integers(0, 1), lb=st.integers(0, 1))
def test_distance_symmetric_nonnegative(u, v, la, lb):
    for space in (SP_PAR, SP_RIGHT):
        d1 = distance(space, Site(u, la), Site(v, lb))
        d2 = distance(space, Site(v, lb), Site(u, la))
        assert d1 == d2
        assert d1 >= 0.0


@given(u=finite_u, v=finite_u)
def test_parallel_cross_distance_dominates_separation(u, v):
    assert distance(SP_PAR, Site(u, 0), Site(v, 1)) >= SP_PAR.separation_r

