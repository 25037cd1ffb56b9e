"""Metric spaces the walk moves on: one line, two intersecting lines, or two
parallel lines.

A site is addressed by its signed arc-length abscissa `u` along a line plus a
line label.  For intersecting lines both abscissas are measured from the
intersection point, which is the origin of both.  For parallel lines the
abscissa is the first coordinate (the "shadow") of the point.  All distances
are Euclidean in the plane embedding.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

from .errors import ValidationError

SINGLE_LINE = "single-line"
INTERSECTING = "intersecting"
PARALLEL = "parallel"

_KINDS = (SINGLE_LINE, INTERSECTING, PARALLEL)


def check_finite(name: str, value) -> None:
    """ValidationError naming the field unless value is None or a finite
    real number (a bool is not a number; an int beyond float range is not
    finite)."""
    if value is None:
        return
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValidationError(f"{name} must be finite")


@dataclass(frozen=True)
class Space:
    """Geometry descriptor plus the simulation window half-width.

    Args:
        kind: one of SINGLE_LINE, INTERSECTING, PARALLEL.
        window_L: half-width of the simulated abscissa window, > 0.
        alpha: angle between the lines in (0, pi); intersecting only.
        separation_r: distance between the lines, > 0; parallel only.
    """

    kind: str
    window_L: float
    alpha: float | None = None
    separation_r: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown space kind: {self.kind!r}")
        for name in ("window_L", "alpha", "separation_r"):
            check_finite(name, getattr(self, name))
        if self.window_L is None or not self.window_L > 0:
            raise ValidationError("window_L must be positive")
        if self.kind == INTERSECTING:
            if self.alpha is None or not 0.0 < self.alpha < math.pi:
                raise ValidationError("intersecting lines need alpha in (0, pi)")
        elif self.alpha is not None:
            raise ValidationError("alpha only applies to intersecting lines")
        if self.kind == PARALLEL:
            if self.separation_r is None or not self.separation_r > 0:
                raise ValidationError("parallel lines need separation_r > 0")
        elif self.separation_r is not None:
            raise ValidationError("separation_r only applies to parallel lines")

    @property
    def n_lines(self) -> int:
        return 1 if self.kind == SINGLE_LINE else 2

    @cached_property
    def cos_alpha(self) -> float:
        return math.cos(self.alpha)


@dataclass(frozen=True)
class Site:
    """A location on the space: signed abscissa `u` on line `line` (0 or 1).

    Line 1 is the second line (the "line r" of a parallel pair).  The walk's
    default start Site(0.0, 0) is the origin; for intersecting lines that is
    the intersection point itself.
    """

    u: float
    line: int = 0


def cross_distance(space: Space, u, v, sqrt=math.sqrt):
    """Distance from abscissa u on one line to abscissa v on the other.

    Parallel lines: hypot of the abscissa gap and the separation.
    Intersecting lines: law of cosines on the two arms, with signed
    abscissas (so opposite half-lines come out right).  Pass numpy arrays
    with sqrt=np.sqrt for an elementwise result.  Every engine computes the
    metric here, in this expression order, so their distances agree bit for
    bit.
    """
    r = space.separation_r
    if r is not None:
        du = u - v
        return sqrt(du * du + r * r)
    return sqrt(u * u + v * v - 2.0 * u * v * space.cos_alpha)


def distance(space: Space, a: Site, b: Site) -> float:
    """Euclidean distance between two sites of the space."""
    if a.line == b.line:
        return abs(a.u - b.u)
    if space.kind == SINGLE_LINE:
        raise ValidationError("single-line space has no second line")
    return cross_distance(space, a.u, b.u)
