"""Greedy-walk engines.

The walk starts at a site (default: the origin on line 0) and repeatedly
jumps to the nearest not-yet-visited point, breaking measure-zero ties by
lower line label, then smaller abscissa.

Two engines produce step-for-step identical trajectories:

* ``run_walk``: per-line sorted indexes with alive-neighbor queries, so each
  step inspects at most four candidate points (the nearest unvisited point
  on each side of the relevant center on each line).
* ``run_walk_naive``: a linear scan over every unvisited point per step.
  It exists purely as a differential oracle for the optimized engine.

Stopping.  With the default truncation-safe rule the walk stops as soon as
the chosen step distance reaches the shortest distance to any location
outside the drawn windows (``stop_margin``).  Every emitted step therefore
beats every point the window did not sample, so the emitted prefix is
exactly the prefix of the walk on the unbounded process.
"""

from __future__ import annotations

import struct
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
    amortized query cost stays near the O(log n) of the bisect itself.
    """

    __slots__ = ("pts", "n_alive", "_next", "_prev", "_alive")

    def __init__(self, pts: list[float]):
        n = len(pts)
        self.pts = pts
        self.n_alive = n
        self._next = list(range(1, n + 1))
        self._prev = list(range(-1, n))
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
        self._alive[i] = 0
        self.n_alive -= 1
        p = self.pred_alive(self._prev[i])
        s = self.succ_alive(self._next[i])
        if p >= 0:
            self._next[p] = s
        if s < len(self.pts):
            self._prev[s] = p
        self._prev[i] = p
        self._next[i] = s


def stop_margin(real: Realization, u: float, line: int) -> float:
    """Shortest distance from (u, line) to any location outside the windows.

    It respects the realization's actual per-line windows, which matters
    when line 1 was drawn on a shifted interval or the realization was
    transformed.
    """
    space = real.spec.space
    (lo0, hi0), (lo1, hi1) = real.windows
    if line == 0:
        lo_s, hi_s, lo_o, hi_o = lo0, hi0, lo1, hi1
    else:
        lo_s, hi_s, lo_o, hi_o = lo1, hi1, lo0, hi0
    m = min(u - lo_s, hi_s - u)
    kind = space.kind
    if kind == PARALLEL:
        # the nearest outside location across sits h along the line from u
        h = min(u - lo_o, hi_o - u)
        if h < 0.0:
            h = 0.0
        mo = cross_distance(space, h, 0.0)
        if mo < m:
            m = mo
    elif kind == INTERSECTING:
        for e in (lo_o, hi_o):
            mo = cross_distance(space, u, e)
            if mo < m:
                m = mo
    return m


class WalkState:
    """Mutable engine state: current site plus per-line alive indexes."""

    def __init__(self, real: Realization, start: Site = Site(0.0, 0)):
        space = real.spec.space
        self.real = real
        self.space = space
        self.kind = space.kind
        self.idx = (
            SortedAliveIndex(real.line0.tolist()),
            SortedAliveIndex(real.line1.tolist()),
        )
        self.cur_u = start.u
        self.cur_line = start.line
        self.cur_i: int | None = None
        self.n_alive = self.idx[0].n_alive + self.idx[1].n_alive

    def candidates(self) -> list[tuple[float, int, float, int]]:
        """(distance, line, u, index) for at most 4 nearest-unvisited sites.

        At most two per line: the alive neighbors on each side of the
        relevant center (the current abscissa on the same line; its
        projection u or u*cos(alpha) on the other line).
        """
        out = []
        cu, cl = self.cur_u, self.cur_line
        same = self.idx[cl]
        if same.n_alive:
            if self.cur_i is None:
                j = bisect_left(same.pts, cu)
                s = same.succ_alive(j)
                p = same.pred_alive(j - 1)
            else:
                s = same.succ_alive(same._next[self.cur_i])
                p = same.pred_alive(same._prev[self.cur_i])
            pts = same.pts
            if s < len(pts):
                out.append((pts[s] - cu, cl, pts[s], s))
            if p >= 0:
                out.append((cu - pts[p], cl, pts[p], p))
        if self.kind != SINGLE_LINE:
            ol = 1 - cl
            other = self.idx[ol]
            if other.n_alive:
                pts = other.pts
                space = self.space
                c = cu if self.kind == PARALLEL else cu * space.cos_alpha
                j = bisect_left(pts, c)
                s = other.succ_alive(j)
                p = other.pred_alive(j - 1)
                if s < len(pts):
                    v = pts[s]
                    out.append((cross_distance(space, cu, v), ol, v, s))
                if p >= 0:
                    v = pts[p]
                    out.append((cross_distance(space, cu, v), ol, v, p))
        return out

    def choose(self) -> tuple[float, int, float, int] | None:
        cands = self.candidates()
        return min(cands) if cands else None

    def margin(self) -> float:
        return stop_margin(self.real, self.cur_u, self.cur_line)

    def visit(self, line: int, i: int) -> None:
        self.idx[line].remove(i)
        self.n_alive -= 1
        self.cur_u = self.idx[line].pts[i]
        self.cur_line = line
        self.cur_i = i


def run_walk(real: Realization, start: Site = Site(0.0, 0),
             rule: StopRule = StopRule()) -> Trajectory:
    """Greedy walk with the optimized neighbor-search engine."""
    st = WalkState(real, start)
    truncating = rule.mode == TRUNCATION_SAFE
    us: list[float] = []
    lines: list[int] = []
    dists: list[float] = []
    vis = (
        np.full(len(real.line0), -1, dtype=np.int64),
        np.full(len(real.line1), -1, dtype=np.int64),
    )
    reason = EXHAUSTED
    step = 0
    while st.n_alive:
        d, line, u, i = st.choose()
        if truncating and d >= st.margin():
            reason = TRUNCATED
            break
        step += 1
        vis[line][i] = step
        st.visit(line, i)
        us.append(u)
        lines.append(line)
        dists.append(d)
    return Trajectory(
        start=start,
        us=np.asarray(us, dtype=np.float64),
        lines=np.asarray(lines, dtype=np.int8),
        step_distances=np.asarray(dists, dtype=np.float64),
        stop_reason=reason,
        visited_step0=vis[0],
        visited_step1=vis[1],
    )


def run_walk_naive(real: Realization, start: Site = Site(0.0, 0),
                   rule: StopRule = StopRule()) -> Trajectory:
    """Reference engine: full linear scan per step.  Oracle for run_walk."""
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
    """Read back a trajectory_to_binary dump as (us, lines, dists)."""
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
    lines = np.frombuffer(raw[8 * n : 16 * n], dtype="<f8").astype(np.int8)
    dists = np.frombuffer(raw[16 * n :], dtype="<f8")
    return us, lines, dists
