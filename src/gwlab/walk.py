"""Greedy-walk engines.

The walk starts at a site (default: the origin on line 0) and repeatedly
jumps to the nearest not-yet-visited point, breaking measure-zero ties by
lower line label, then smaller abscissa.

Two engines produce step-for-step identical trajectories:

* ``run_walk``: the nearest unvisited point is one of at most four: the
  alive neighbors of the current point on its own line, and the alive
  neighbors of its projection (u, or u*cos(alpha) on intersecting lines) on
  the other line.  Both lines sit in one flat table,
  ``[-inf, line0..., +inf, -inf, line1..., +inf]``, whose sentinels are
  never visited, so the step loop needs no bounds checks and a step of
  distance inf means every point is visited.  Nothing that does not depend
  on the walk's history is computed in the loop: per point, numpy tabulates
  where its projection falls in the other line, the distances to the two
  points around it and its stop margin before the first step.  A step
  reads its own-line neighbors from the spliced links of the point it just
  left, and measures a cross point only when the tabulated one is visited
  and the links lead past it.  The start site is not a realization point:
  the first step alone bisects both lines and measures directly.

  The run path: the walk escapes along one line in long runs of unit steps
  (each to the next point of its own line).  From step 64 on, the loop
  probes now and then, backing off while probes fail; after 4 unit steps
  in one direction it tests the next 64..4096 unit steps in numpy and takes
  the longest prefix in which every step is the greedy choice, written
  into the tables as slices (``_own_line_run`` has the rule).
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
    was never reached.
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


def _skip_visited(vis, link, j: int) -> int:
    """The first unvisited index reached from j by following link (the prev
    or next links of the flat table); vis[k] >= 0 marks a visited k.  A
    sentinel is never visited, so every search ends at a point or at its
    line's sentinel.  Every visited index passed on the way is re-linked to
    the result (path compression), so repeated searches stay short."""
    path = []
    while vis[j] >= 0:
        path.append(j)
        j = link[j]
    for k in path:
        link[k] = j
    return j


def stop_margin(real: Realization, u, line: int):
    """Shortest distance from abscissa u on `line` to any location outside
    the windows; u may be a float or a numpy array (elementwise).

    It respects the realization's actual per-line windows, which matters
    when line 1 was drawn on a shifted interval or the realization was
    transformed.
    """
    spec = real.spec
    (lo_s, hi_s), (lo_o, hi_o) = real.windows[line], real.windows[1 - line]
    m = np.minimum(u - lo_s, hi_s - u)
    if spec.kind == PARALLEL:
        # the nearest outside location across sits h along the line from u
        h = np.maximum(np.minimum(u - lo_o, hi_o - u), 0.0)
        m = np.minimum(m, cross_distance(spec, h, 0.0, np.sqrt))
    elif spec.kind == INTERSECTING:
        for e in (lo_o, hi_o):
            m = np.minimum(m, cross_distance(spec, u, e, np.sqrt))
    return m


def _centre(spec, u):
    """Where abscissa u projects onto the other line: the foot of the
    perpendicular, which the nearest points across surround."""
    return u * spec.cos_alpha if spec.kind == INTERSECTING else u


def _check_start(real: Realization, start: Site) -> None:
    """Both engines' guard: start must be on a line of the space, at a
    finite abscissa."""
    if not (isinstance(start.line, (int, np.integer)) and math.isfinite(start.u)
            and 0 <= start.line < real.spec.n_lines):
        raise ValidationError(f"start {start} is not a site of the space")


# the run path: probes start at step RUN_FROM and come every 1..WAIT_MAX
# steps, the wait doubling while probes fail; a run looks ahead over a chunk
# of RUN_MIN..RUN_MAX unit steps, doubling while runs fill it
_RUN_FROM = 64
_WAIT_MAX = 1024
_RUN_MIN, _RUN_MAX = 64, 4096


def _table(typecode: str, n: int, fill=0):
    """An 8-byte array of n copies of fill for the step loop, and a writable
    numpy view of the same memory for the table-wide and run-path work."""
    a = array(typecode, [fill]) * n
    return a, np.frombuffer(a, dtype=np.float64 if typecode == "d" else np.int64)


def _own_line_run(tab, c: int, end: int, behind: float, step: int,
                  ol: int) -> int:
    """Take the walk's unit steps from flat point c, visited at `step`, on
    toward `end`, a point of c's own line, for as long as each is the
    greedy choice; write them into the visit, order and distance tables and
    return how many were taken.

    The step from point a to its neighbour b is greedy when b is unvisited;
    the gap |b - a| beats the distance from a to `behind`, the abscissa of
    the alive point on the other side (strictly when moving right: the pred
    side wins ties); both tabulated cross points of a are unvisited and no
    nearer than the gap (strictly farther when the other line `ol` is 0: the
    lower line wins ties); and the gap is below a's stop margin.
    """
    F, vis, cross, cp, cs, margin, order, dists = tab
    dr = 1 if end > c else -1
    src, dst = slice(c, end, dr), slice(c + dr, end + dr, dr)
    a, b = F[src], F[dst]
    if dr > 0:
        gap = b - a
        ok = gap < a - behind
    else:
        gap = a - b
        ok = gap <= behind - a
    ok &= vis[dst] < 0
    k = cross[src]
    ok &= (vis[k - 1] < 0) & (vis[k] < 0)
    dc = np.minimum(cp[src], cs[src])
    ok &= (dc >= gap) if ol else (dc > gap)
    ok &= gap < margin[src]
    t = int(ok.argmin())
    if ok[t]:
        t = len(ok)
    vis[dst][:t] = np.arange(step + 1, step + t + 1)
    order[step:step + t] = np.arange(c + dr, c + dr * (t + 1), dr)
    dists[step:step + t] = gap[:t]
    return t


def run_walk(real: Realization, start: Site = Site(0.0, 0),
             rule: StopRule = StopRule()) -> Trajectory:
    """Greedy walk with the optimized neighbor-search engine."""
    _check_start(real, start)
    spec = real.spec
    arrs = (real.line0, real.line1)
    n = (len(arrs[0]), len(arrs[1]))
    inf = math.inf
    # one flat table [-inf, line0..., +inf, -inf, line1..., +inf]: line l's
    # points sit at first[l]..hi[l] - 1 between its sentinels lo[l], hi[l]
    first = (1, n[0] + 3)
    lo = (0, n[0] + 2)
    hi = (n[0] + 1, n[0] + n[1] + 3)
    size = n[0] + n[1] + 4
    F, F_np = _table("d", size)
    # links to the unvisited neighbours, exact for unvisited points and
    # spliced on each visit; a visited point keeps links past which every
    # point is visited
    nxt, nxt_np = _table("q", size)
    prv, prv_np = _table("q", size)
    nxt_np[:] = np.arange(1, size + 1)
    prv_np[:] = np.arange(-1, size - 1)
    # the visit step per flat index, -1 while unvisited (a sentinel always)
    vis, vis_np = _table("q", size, -1)
    # per point: where its projection falls in the other line (the flat
    # index of the first point at or after it), the distances to the two
    # points around it (inf where one is a sentinel), and its stop margin
    cross, cross_np = _table("q", size)
    cp, cp_np = _table("d", size, inf)
    cs, cs_np = _table("d", size, inf)
    margin, margin_np = _table("d", size, inf)
    truncating = rule.mode == TRUNCATION_SAFE
    for l in (0, 1):
        F_np[lo[l]], F_np[first[l]:hi[l]], F_np[hi[l]] = -inf, arrs[l], inf
    for l in (0, 1):
        u, seg = arrs[l], slice(first[l], hi[l])
        cross_np[seg] = k = first[1 - l] + np.searchsorted(
            arrs[1 - l], _centre(spec, u))
        if truncating:
            margin_np[seg] = stop_margin(real, u, l)
        # with a line empty (always on a single line) every pair is a
        # sentinel pair
        if n[0] and n[1]:
            for out, j in ((cp_np, k - 1), (cs_np, k)):
                v = F_np[j]
                pair = np.isfinite(v)
                out[seg][pair] = cross_distance(spec, u[pair], v[pair],
                                                np.sqrt)
    # the flat index visited at each step, and the step's distance
    order, order_np = _table("q", n[0] + n[1])
    dists, dists_np = _table("d", n[0] + n[1])
    tab = (F_np, vis_np, cross_np, cp_np, cs_np, margin_np, order_np,
           dists_np)
    # the start site is no realization point: bisect and measure it directly
    cu, cl = start.u, start.line
    ol = 1 - cl
    s = bisect_left(F, cu, first[cl], hi[cl])
    p = s - 1
    xs = bisect_left(F, _centre(spec, cu), first[ol], hi[ol])
    xp = xs - 1
    dcp = inf if xp == lo[ol] else cross_distance(spec, cu, F[xp])
    dcs = inf if xs == hi[ol] else cross_distance(spec, cu, F[xs])
    m = stop_margin(real, cu, cl) if truncating else inf
    step = 0
    probe, wait, chunk = _RUN_FROM, 1, _RUN_MIN
    while True:
        # the nearest unvisited point on each side of cu on its own line,
        # then on each side of its projection on the other line; on a tie
        # the lower line wins, then the smaller u (the pred side)
        d = cu - F[p]
        d_s = F[s] - cu
        if d_s < d:
            d, i = d_s, s
        else:
            i = p
        if dcs < dcp:
            dcp, xp = dcs, xs
        if dcp < d or (dcp == d and ol == 0):
            d, i, cl, ol = dcp, xp, ol, cl
        # a step of inf means every point is visited, and without a margin
        # m is inf, so one test covers both stops
        if d >= m:
            break
        order[step] = i
        dists[step] = d
        step += 1
        vis[i] = step
        p, s = prv[i], nxt[i]
        nxt[p] = s
        prv[s] = p
        if step >= probe:
            # after 4 unit steps one way, take the greedy unit steps that
            # follow in numpy; back off while probes find no full chunk
            dr = i - order[step - 2]
            t = span = 0
            if ((dr == 1 or dr == -1) and order[step - 3] == i - 2 * dr
                    and order[step - 4] == i - 3 * dr
                    and order[step - 5] == i - 4 * dr):
                end = (min(i + chunk, hi[cl] - 1) if dr > 0
                       else max(i - chunk, first[cl]))
                span = abs(end - i)
                if span:
                    t = _own_line_run(tab, i, end, F[p if dr > 0 else s],
                                      step, ol)
            if t:
                step += t
                i += dr * t
                # splice the run's last point; the others keep links along
                # the run, past which every point is visited
                if dr > 0:
                    s = nxt[i]
                else:
                    p = prv[i]
                nxt[p] = s
                prv[s] = p
            if t and t == span:
                wait, chunk = 1, min(2 * chunk, _RUN_MAX)
            else:
                wait, chunk = min(2 * wait, _WAIT_MAX), _RUN_MIN
            probe = step + wait
        cu = F[i]
        m = margin[i]
        xs = cross[i]
        xp = xs - 1
        dcp, dcs = cp[i], cs[i]
        # past a visited cross point, measure the point the links lead to
        # (_skip_visited with its first hop inline: mostly the only one);
        # a sentinel by index, since on intersecting lines the formula is
        # NaN at +-inf
        if vis[xp] >= 0:
            k = prv[xp]
            if vis[k] >= 0:
                prv[xp] = k = _skip_visited(vis, prv, k)
            xp = k
            dcp = inf if xp == lo[ol] else cross_distance(spec, cu, F[xp])
        if vis[xs] >= 0:
            k = nxt[xs]
            if vis[k] >= 0:
                nxt[xs] = k = _skip_visited(vis, nxt, k)
            xs = k
            dcs = inf if xs == hi[ol] else cross_distance(spec, cu, F[xs])
    steps = order_np[:step]
    return Trajectory(
        start=start,
        us=F_np[steps],
        lines=(steps > hi[0]).astype(np.int8),
        step_distances=dists_np[:step].copy(),
        stop_reason=EXHAUSTED if d == inf else TRUNCATED,
        visited_step0=vis_np[first[0]:hi[0]].copy(),
        visited_step1=vis_np[first[1]:hi[1]].copy(),
    )


def run_walk_naive(real: Realization, start: Site = Site(0.0, 0),
                   rule: StopRule = StopRule()) -> Trajectory:
    """Reference engine: full linear scan per step.  Oracle for run_walk."""
    _check_start(real, start)
    spec = real.spec
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
        if spec.kind != SINGLE_LINE:
            d[cross] = cross_distance(spec, cu, us_all[cross], np.sqrt)
        d_live = np.where(alive, d, np.inf)
        # us_all is line 0 then line 1, each sorted, so the first minimum
        # is the tie-break winner: the lower line, then the smaller u
        k = int(np.argmin(d_live))
        dmin = d_live[k]
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
