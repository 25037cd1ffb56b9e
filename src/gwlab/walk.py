"""Greedy-walk engines.

The walk starts at a site (default: the origin on line 0) and repeatedly
jumps to the nearest not-yet-visited point, breaking measure-zero ties by
lower line label, then smaller abscissa.

Two engines produce step-for-step identical trajectories:

* ``run_walk``: the nearest unvisited point is one of at most four: the
  alive neighbors of the current point on its own line, and the alive
  neighbors of its projection (u, or u*cos(alpha) on intersecting lines) on
  the other line.  Neither where that projection falls nor the stop margin
  depends on the walk's history, so both are tabulated per realization
  point with numpy before the first step.  A step then reads its own-line
  neighbors from the spliced links of the point it just left, starts the
  cross-line search at the tabulated position, and searches the alive
  index only when the point there is already visited.  The start site is
  not a realization point: the first step alone bisects both lines and
  computes its margin directly.
* ``run_walk_naive``: a linear scan over every unvisited point per step.
  It exists purely as a differential oracle for the optimized engine.

Stopping.  With the default truncation-safe rule the walk stops as soon as
the chosen step distance reaches the shortest distance to any location
outside the drawn windows (``stop_margin``).  Every emitted step therefore
beats every point the window did not sample, so the emitted prefix is
exactly the prefix of the walk on the unbounded process.
"""

from __future__ import annotations

import math
import struct
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .geometry import INTERSECTING, PARALLEL, SINGLE_LINE, Site, cross_distance
from .processes import Realization

EXHAUSTED = "exhausted"
TRUNCATED = "truncated"

RUN_TO_EXHAUSTION = "run-to-exhaustion"
TRUNCATION_SAFE = "truncation-safe"


@dataclass(frozen=True)
class StopRule:
    """When the walk ends.

    ``truncation-safe`` (default) stops at the first step whose distance is
    >= the margin to unseen territory; ``run-to-exhaustion`` visits every
    point.  couple_restrict is the way to walk a smaller window.
    """

    mode: str = TRUNCATION_SAFE

    def __post_init__(self):
        if self.mode not in (RUN_TO_EXHAUSTION, TRUNCATION_SAFE):
            raise ValidationError(f"unknown stop mode: {self.mode!r}")


@dataclass(frozen=True)
class Trajectory:
    """The ordered outcome of one walk.

    us/lines/step_distances are parallel arrays over steps 1..N (the start
    site is not part of them).  visited_step0/visited_step1 map each
    realization point index to the 1-based step that visited it, -1 if it
    was never reached.  Hitting-time queries are served by
    analysis.HittingTimes, which consumes these arrays.
    """

    start: Site
    us: np.ndarray
    lines: np.ndarray
    step_distances: np.ndarray
    stop_reason: str
    visited_step0: np.ndarray
    visited_step1: np.ndarray

    def __len__(self) -> int:
        return len(self.us)

    @cached_property
    def prefix_max(self) -> np.ndarray:
        """Running max of the shadow over steps 1..N."""
        return np.maximum.accumulate(self.us) if len(self.us) else self.us

    @cached_property
    def prefix_min(self) -> np.ndarray:
        return np.minimum.accumulate(self.us) if len(self.us) else self.us


class SortedAliveIndex:
    """Static sorted abscissas supporting delete and alive-neighbor queries.

    Alive nodes keep exact prev/next links (spliced on delete); entry from an
    arbitrary bisect position skips dead nodes with path compression, so the
    amortized query cost stays near the O(log n) of the bisect itself.  A
    removed node keeps the links it had when it was removed: the alive
    neighbors it had at that moment.
    """

    __slots__ = ("pts", "n_alive", "_next", "_prev", "_alive")

    def __init__(self, pts: list[float]):
        n = len(pts)
        self.pts = pts
        self.n_alive = n
        self._next = array("q", np.arange(1, n + 1, dtype=np.int64).tobytes())
        self._prev = array("q", np.arange(-1, n - 1, dtype=np.int64).tobytes())
        self._alive = bytearray(b"\x01") * n

    def succ_alive(self, j: int) -> int:
        """Smallest alive index >= j; len(pts) when none."""
        n = len(self.pts)
        if j < 0:
            j = 0
        alive, nxt = self._alive, self._next
        if j >= n or alive[j]:
            return j
        path = [j]
        j = nxt[j]
        while j < n and not alive[j]:
            path.append(j)
            j = nxt[j]
        for k in path:
            nxt[k] = j
        return j

    def pred_alive(self, j: int) -> int:
        """Largest alive index <= j; -1 when none."""
        if j >= len(self.pts):
            j = len(self.pts) - 1
        alive, prv = self._alive, self._prev
        if j < 0 or alive[j]:
            return j
        path = [j]
        j = prv[j]
        while j >= 0 and not alive[j]:
            path.append(j)
            j = prv[j]
        for k in path:
            prv[k] = j
        return j

    def first_geq(self, x: float) -> int:
        return self.succ_alive(bisect_left(self.pts, x))

    def last_lt(self, x: float) -> int:
        return self.pred_alive(bisect_left(self.pts, x) - 1)

    def remove(self, i: int) -> None:
        """Delete the alive index i."""
        self._alive[i] = 0
        self.n_alive -= 1
        p, s = self._prev[i], self._next[i]
        if p >= 0:
            self._next[p] = s
        if s < len(self.pts):
            self._prev[s] = p


def stop_margin(real: Realization, u, line: int):
    """Shortest distance from abscissa u on `line` to any location outside
    the windows; u may be a float or a numpy array (elementwise).

    It respects the realization's actual per-line windows, which matters
    when line 1 was drawn on a shifted interval or the realization was
    transformed.
    """
    space = real.spec.space
    (lo_s, hi_s), (lo_o, hi_o) = real.windows[line], real.windows[1 - line]
    m = np.minimum(u - lo_s, hi_s - u)
    if space.kind == PARALLEL:
        # the nearest outside location across sits h along the line from u
        h = np.maximum(np.minimum(u - lo_o, hi_o - u), 0.0)
        m = np.minimum(m, cross_distance(space, h, 0.0, np.sqrt))
    elif space.kind == INTERSECTING:
        for e in (lo_o, hi_o):
            m = np.minimum(m, cross_distance(space, u, e, np.sqrt))
    return m


def _centre(space, u):
    """Where abscissa u projects onto the other line: the foot of the
    perpendicular, which the nearest points across surround."""
    return u * space.cos_alpha if space.kind == INTERSECTING else u


def _check_start(real: Realization, start: Site) -> None:
    """Both engines' guard: start must be on a line of the space, at a
    finite abscissa."""
    if not (isinstance(start.line, (int, np.integer)) and math.isfinite(start.u)
            and 0 <= start.line < real.spec.space.n_lines):
        raise ValidationError(f"start {start} is not a site of the space")


def run_walk(real: Realization, start: Site = Site(0.0, 0),
             rule: StopRule = StopRule()) -> Trajectory:
    """Greedy walk with the optimized neighbor-search engine."""
    _check_start(real, start)
    space = real.spec.space
    arrs = (real.line0, real.line1)
    idx = (SortedAliveIndex(real.line0.tolist()),
           SortedAliveIndex(real.line1.tolist()))
    pts = (idx[0].pts, idx[1].pts)
    n = (len(pts[0]), len(pts[1]))
    alive = (idx[0]._alive, idx[1]._alive)
    prv = (idx[0]._prev, idx[1]._prev)
    nxt = (idx[0]._next, idx[1]._next)
    # per point: where its projection falls in the other line, and its margin
    cross = tuple(
        array("q", np.searchsorted(arrs[1 - l], _centre(space, arrs[l]))
              .astype(np.int64).tobytes())
        for l in (0, 1)
    )
    truncating = rule.mode == TRUNCATION_SAFE
    if truncating:
        margin = tuple(array("d", stop_margin(real, arrs[l], l).tobytes())
                       for l in (0, 1))
    # the start site is no realization point: bisect and margin it directly
    cu, cl = start.u, start.line
    j = bisect_left(pts[cl], cu)
    p, s = idx[cl].pred_alive(j - 1), idx[cl].succ_alive(j)
    j = bisect_left(pts[1 - cl], _centre(space, cu))
    m = stop_margin(real, cu, cl) if truncating else None
    us = array("d")
    lines = array("b")
    dists = array("d")
    vis = (array("q", [-1]) * n[0], array("q", [-1]) * n[1])
    n_alive = n[0] + n[1]
    reason = EXHAUSTED
    step = 0
    inf = math.inf
    while n_alive:
        # the nearest alive point on each side of cu on its own line, then
        # on each side of its projection on the other line; on a tie the
        # lower line wins, then the smaller u (the pred side)
        same = pts[cl]
        d = cu - same[p] if p >= 0 else inf
        d_s = same[s] - cu if s < n[cl] else inf
        if d_s < d:
            d, i = d_s, s
        else:
            i = p
        ol = 1 - cl
        other = pts[ol]
        xp, xs = j - 1, j
        if xp >= 0 and not alive[ol][xp]:
            xp = idx[ol].pred_alive(xp)
        if xs < n[ol] and not alive[ol][xs]:
            xs = idx[ol].succ_alive(xs)
        dc = cross_distance(space, cu, other[xp]) if xp >= 0 else inf
        d_s = cross_distance(space, cu, other[xs]) if xs < n[ol] else inf
        if d_s < dc:
            dc, xp = d_s, xs
        line = cl
        if dc < d or (dc == d and ol == 0):
            d, i, line = dc, xp, ol
        if truncating and d >= m:
            reason = TRUNCATED
            break
        step += 1
        vis[line][i] = step
        idx[line].remove(i)
        n_alive -= 1
        cu, cl = pts[line][i], line
        p, s, j = prv[line][i], nxt[line][i], cross[line][i]
        if truncating:
            m = margin[line][i]
        us.append(cu)
        lines.append(line)
        dists.append(d)
    return Trajectory(
        start=start,
        us=np.array(us),
        lines=np.array(lines),
        step_distances=np.array(dists),
        stop_reason=reason,
        visited_step0=np.array(vis[0]),
        visited_step1=np.array(vis[1]),
    )


def run_walk_naive(real: Realization, start: Site = Site(0.0, 0),
                   rule: StopRule = StopRule()) -> Trajectory:
    """Reference engine: full linear scan per step.  Oracle for run_walk."""
    _check_start(real, start)
    space = real.spec.space
    n0, n1 = len(real.line0), len(real.line1)
    us_all = np.concatenate((real.line0, real.line1))
    ln_all = np.concatenate(
        (np.zeros(n0, dtype=np.int8), np.ones(n1, dtype=np.int8))
    )
    alive = np.ones(n0 + n1, dtype=bool)
    n_alive = n0 + n1
    truncating = rule.mode == TRUNCATION_SAFE
    cu, cl = start.u, start.line
    us: list[float] = []
    lines: list[int] = []
    dists: list[float] = []
    vis = (
        np.full(n0, -1, dtype=np.int64),
        np.full(n1, -1, dtype=np.int64),
    )
    reason = EXHAUSTED
    step = 0
    while n_alive:
        same = ln_all == cl
        d = np.empty(n0 + n1)
        d[same] = np.abs(us_all[same] - cu)
        cross = ~same
        if space.kind != SINGLE_LINE:
            d[cross] = cross_distance(space, cu, us_all[cross], np.sqrt)
        d_live = np.where(alive, d, np.inf)
        dmin = d_live.min()
        best = None
        for k in np.nonzero(d_live == dmin)[0]:
            key = (int(ln_all[k]), float(us_all[k]))
            if best is None or key < best[0]:
                best = (key, int(k))
        k = best[1]
        if truncating and dmin >= stop_margin(real, cu, cl):
            reason = TRUNCATED
            break
        step += 1
        alive[k] = False
        n_alive -= 1
        cu = float(us_all[k])
        cl = int(ln_all[k])
        if k < n0:
            vis[0][k] = step
        else:
            vis[1][k - n0] = step
        us.append(cu)
        lines.append(cl)
        dists.append(float(dmin))
    return Trajectory(
        start=start,
        us=np.asarray(us, dtype=np.float64),
        lines=np.asarray(lines, dtype=np.int8),
        step_distances=np.asarray(dists, dtype=np.float64),
        stop_reason=reason,
        visited_step0=vis[0],
        visited_step1=vis[1],
    )


def trajectories_equal(a: Trajectory, b: Trajectory) -> bool:
    """Exact step-for-step equality (positions, lines, distances, stop)."""
    return (
        a.stop_reason == b.stop_reason
        and np.array_equal(a.us, b.us)
        and np.array_equal(a.lines, b.lines)
        and np.array_equal(a.step_distances, b.step_distances)
    )


def mirror_trajectory(traj: Trajectory) -> Trajectory:
    """The walk's image under u -> -u (pairs with mirror_realization).

    mirror_realization re-sorts the negated point arrays, which reverses
    their order, so the per-point visit-step arrays are reversed to match.
    """
    return Trajectory(
        start=Site(-traj.start.u, traj.start.line),
        us=-traj.us,
        lines=traj.lines,
        step_distances=traj.step_distances,
        stop_reason=traj.stop_reason,
        visited_step0=traj.visited_step0[::-1].copy(),
        visited_step1=traj.visited_step1[::-1].copy(),
    )


def trajectory_to_dicts(traj: Trajectory) -> list[dict]:
    """JSON-friendly per-step rows: {step, line, u, dist}."""
    return [
        {"step": i + 1, "line": int(l), "u": float(u), "dist": float(d)}
        for i, (u, l, d) in enumerate(
            zip(traj.us, traj.lines, traj.step_distances)
        )
    ]


_BIN_MAGIC = b"GWTRAJ01"


def trajectory_to_binary(traj: Trajectory, path) -> None:
    """Columnar dump for large runs.

    Layout: 8-byte magic "GWTRAJ01", little-endian uint64 step count, then
    three little-endian float64 arrays of that length: u, line, distance.
    """
    n = len(traj)
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(struct.pack("<Q", n))
        fh.write(traj.us.astype("<f8").tobytes())
        fh.write(traj.lines.astype("<f8").tobytes())
        fh.write(traj.step_distances.astype("<f8").tobytes())


def trajectory_from_binary(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read back a trajectory_to_binary dump as (us, lines, dists).

    Raises ValidationError unless every line is 0 or 1, every abscissa is
    finite and every step distance is finite and non-negative.
    """
    with open(path, "rb") as fh:
        header = fh.read(16)
        raw = fh.read()
    if header[:8] != _BIN_MAGIC:
        raise ValidationError("not a trajectory dump (bad magic)")
    # nothing is sized by the header's step count before it matches the file
    if len(header) < 16 or len(raw) != 24 * struct.unpack("<Q", header[8:])[0]:
        raise ValidationError("trajectory dump size does not match its step count")
    n = len(raw) // 24
    us = np.frombuffer(raw[: 8 * n], dtype="<f8")
    lines = np.frombuffer(raw[8 * n : 16 * n], dtype="<f8")
    dists = np.frombuffer(raw[16 * n :], dtype="<f8")
    if not np.all((lines == 0.0) | (lines == 1.0)):
        raise ValidationError("trajectory dump has a line other than 0 or 1")
    if not np.all(np.isfinite(us)):
        raise ValidationError("trajectory dump has a non-finite abscissa")
    if not np.all(np.isfinite(dists) & (dists >= 0.0)):
        raise ValidationError("trajectory dump has a negative or non-finite "
                              "step distance")
    return us, lines.astype(np.int8), dists
