"""Metric spaces the walk moves on: one line, two intersecting lines, or two
parallel lines.

A site is addressed by its signed arc-length abscissa `u` along a line plus a
line label.  For intersecting lines both abscissas are measured from the
intersection point, which is the origin of both.  For parallel lines the
abscissa is the first coordinate (the "shadow") of the point.  All distances
are Euclidean in the plane embedding.  A run's ProcessSpec is its geometry:
the metric reads its kind, alpha and separation_r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

SINGLE_LINE = "single-line"
INTERSECTING = "intersecting"
PARALLEL = "parallel"


@dataclass(frozen=True)
class Site:
    """A location on the space: signed abscissa `u` on line `line` (0 or 1).

    Line 1 is the second line (the "line r" of a parallel pair).  The walk's
    default start Site(0.0, 0) is the origin; for intersecting lines that is
    the intersection point itself.
    """

    u: float
    line: int = 0


def cross_distance(spec, u, v, sqrt=math.sqrt):
    """Distance from abscissa u on one line to abscissa v on the other.

    Parallel lines: hypot of the abscissa gap and the separation.
    Intersecting lines: law of cosines on the two arms, with signed
    abscissas (so opposite half-lines come out right).  Pass numpy arrays
    with sqrt=np.sqrt for an elementwise result.  Every engine computes the
    metric here, in this expression order, so their distances agree bit for
    bit.
    """
    r = spec.separation_r
    if r is not None:
        du = u - v
        return sqrt(du * du + r * r)
    return sqrt(u * u + v * v - 2.0 * u * v * spec.cos_alpha)


def distance(spec, a: Site, b: Site) -> float:
    """Euclidean distance between two sites on a ProcessSpec's lines."""
    if a.line == b.line:
        return abs(a.u - b.u)
    if spec.kind == SINGLE_LINE:
        raise ValidationError("single-line space has no second line")
    return cross_distance(spec, a.u, b.u)
