"""The references each entry of the compiled library is tested against,
bit for bit, in what it returns and in what it refuses.

* ``python_loop``: ``gw_walk`` line for line in Python, on lists; an
  engine of the walk's agreement tests beside ``run_walk_naive``, and the
  only reference at large L, where the naive walk's quadratic scan is too
  slow.
* ``audit_numpy``, ``compute_Dx_numpy`` and ``cluster_visits_numpy``:
  ``audit_lemmas``, ``compute_Dx`` and ``cluster_visits`` in numpy, the
  references of ``gw_audit``, ``gw_deficiency`` and ``gw_cluster_visits``.
  Each refuses the runs its compiled pass refuses, with the same rule
  (``_AUDIT_RULE``, ``_DX_RULE``, ``_CLUSTER_RULE``); the checks the
  public entries make before any pass (visit steps, shadows, levels,
  cluster starts) are not repeated here.
* ``oracle_events``: the return events, one record per event built in a
  loop over the reduced walk (``reduce_to_cluster_leads``) or the
  deficiency records (``compute_Dx``), the reference of ``gw_summary``'s
  event pass, which ``detect_A_events`` reads its table from; a negative
  shift is read in the mirrored frame (``mirror_realization``,
  ``mirror_trajectory``).
* ``pack_runs``: realizations packed as ``sweep_counts`` reads a sweep
  chunk; of ``couple_restrict(generate(...))`` it is the reference of
  ``gw_draw``'s packing, and of hand-built realizations the way the tests
  feed them to the counting call.
* ``summarize_reference``: a sweep run's RunSummary as the composition of
  ``oracle_events``, ``audit_lemmas``, ``detect_crossings`` and
  ``extract_halfline_changes``, the reference of ``gw_summary``'s counts;
  on ``run_walk``'s walk of a run it is the reference of ``gw_sweep``'s
  row for that run, which ``experiments`` builds the sweep's rows from.
  It refuses a run by the rule of the pass that refuses it first.

A change to a compiled entry keeps its reference here equal to it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from gwlab.analysis import (
    _AUDIT_RULE,
    _CLUSTER_RULE,
    _DX_RULE,
    A_K_SHIFTED,
    A_K_THINNED,
    A_M_PARALLEL,
    ClusterVisits,
    DeficiencyRecords,
    LemmaAudit,
    _refuse,
    audit_lemmas,
    cluster_visits,
    clusters_of,
    compute_Dx,
    detect_crossings,
    extract_halfline_changes,
    first_passage,
    last_visit_steps,
)
from gwlab.errors import ValidationError
from gwlab.experiments import RunSummary
from gwlab.processes import (
    INTERSECTING,
    INTERSECTING_INDEPENDENT,
    PARALLEL,
    PARALLEL_CONSTRUCTIONS,
    PARALLEL_DUPLICATED,
    PARALLEL_SHIFTED,
    PARALLEL_THINNED,
    Realization,
)
from gwlab.walk import (
    TRUNCATION_SAFE,
    StopRule,
    Trajectory,
    _trajectory,
    cross_distance,
    stop_margin,
)


# ---------------------------------------------------------------------------
# the step loop


def python_loop(real: Realization, *,
                rule: StopRule = StopRule()) -> Trajectory:
    """run_walk in Python: gw_walk in _walk.c line for line, on lists."""
    spec = real.spec
    inf = math.inf
    n0, n1 = len(real.line0), len(real.line1)
    F = [-inf, *real.line0.tolist(), inf, -inf, *real.line1.tolist(), inf]
    size = n0 + n1 + 4
    lo, hi = (0, n0 + 2), (n0 + 1, n0 + n1 + 3)
    prv = list(range(-1, size - 1))
    nxt = list(range(1, size + 1))
    vis = [-1] * size
    order, dists = [], []
    truncating = rule.mode == TRUNCATION_SAFE
    cu, cl, ol = 0.0, 0, 1
    m = stop_margin(real, cu, cl) if truncating else inf
    s = bisect_left(F, cu, lo[cl] + 1, hi[cl])
    p = s - 1
    xs = bisect_left(F, _centre(spec, cu), lo[ol] + 1, hi[ol])
    xp = xs - 1
    while True:
        # the nearest unvisited point on each side of cu on its own line,
        # then on each side of its projection on the other line; on a tie
        # the lower line wins, then the smaller u (the pred side).  A cross
        # sentinel is inf by index: on intersecting lines the formula is
        # NaN at +-inf
        dcp = inf if xp == lo[ol] else cross_distance(spec, cu, F[xp])
        dcs = inf if xs == hi[ol] else cross_distance(spec, cu, F[xs])
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
        order.append(i)
        dists.append(d)
        vis[i] = len(order)
        p, s = prv[i], nxt[i]
        nxt[p] = s
        prv[s] = p
        cu = F[i]
        if truncating:
            m = stop_margin(real, cu, cl)
        xs = bisect_left(F, _centre(spec, cu), lo[ol] + 1, hi[ol])
        xp = _skip_visited(vis, prv, xs - 1)
        xs = _skip_visited(vis, nxt, xs)
    return _trajectory(np.array(F), np.array(order, dtype=np.int64),
                       np.array(dists), np.array(vis, dtype=np.int64), n0)


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


def _centre(spec, u):
    """Where abscissa u projects onto the other line: the foot of the
    perpendicular, which the nearest points across surround."""
    return u * spec.cos_alpha if spec.kind == INTERSECTING else u


# ---------------------------------------------------------------------------
# the analysis passes


def _off_prefix(n: int, *steps: np.ndarray) -> bool:
    """Whether one of the visit steps is neither -1 nor a step of an n-step
    prefix: the rule every pass refuses a run by (off_prefix in _walk.c)."""
    return any(((v != -1) & ((v < 1) | (v > n))).any() for v in steps)


def compute_Dx_numpy(real: Realization, traj: Trajectory,
                     xs: np.ndarray) -> DeficiencyRecords:
    """compute_Dx in numpy, on levels it has checked (a float64 row): the
    reference gw_deficiency is tested against."""
    _refuse(_off_prefix(len(traj), traj.visited_step0, traj.visited_step1)
            or np.isnan(traj.us).any(), _DX_RULE)
    t_ray = first_passage(traj, xs)
    t_left = float(first_passage(traj, [0.0], down=True, strict=True)[0])
    n = int(np.searchsorted(t_ray, t_left))  # the decided, non-degenerate prefix
    pos = real.base_points > 0.0
    b = real.base_points[pos]
    lo = np.searchsorted(xs[:n], b, "right")
    hi = np.searchsorted(t_ray[:n], last_visit_steps(real, traj)[pos], "right")
    count = np.maximum(hi - lo, 0)
    # the (level, point) pairs, ordered by level and then by point
    level = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
    by_level = np.argsort(level, kind="stable")
    level = level[by_level]
    n_interior = np.bincount(level, minlength=len(xs))
    # per level the sequence 0, interior points, x, all levels end to end
    seg = n_interior[:n] + 2
    ends = np.cumsum(seg)
    z = np.zeros(seg.sum())
    z[np.arange(len(level)) + 2 * level + 1] = np.repeat(b, count)[by_level]
    z[ends - 1] = xs[:n]
    # a pair (x, 0) spanning two levels is < 0, below each level's last term x - z
    terms = 2.0 * z[1:] - z[:-1] - np.repeat(xs[:n], seg)[1:]
    degenerate = t_left < t_ray
    value = np.where(degenerate, 0.0, np.nan)
    value[:n] = np.maximum.reduceat(terms, ends - seg)
    return DeficiencyRecords(xs, value, degenerate, degenerate | (t_ray < np.inf),
                             t_ray, t_left, n_interior)


def cluster_visits_numpy(v0: np.ndarray, v1: np.ndarray, starts: np.ndarray,
                         n: int) -> ClusterVisits:
    """cluster_visits in numpy from the int64 visit steps of an n-step
    prefix and the cluster starts: the reference gw_cluster_visits is
    tested against."""
    _refuse(_off_prefix(n, v0, v1) or len(starts) > 0 and (
        starts[0] != 0 or starts[-1] >= len(v0)
        or (starts[1:] <= starts[:-1]).any()), _CLUSTER_RULE)
    m = np.diff(starts, append=len(v0))
    count = np.add.reduceat((v0 >= 1).astype(np.int64) + (v1 >= 1), starts)
    big = np.iinfo(np.int64).max
    first = np.minimum.reduceat(
        np.minimum(np.where(v0 >= 1, v0, big), np.where(v1 >= 1, v1, big)),
        starts)
    last = np.maximum.reduceat(np.maximum(v0, v1), starts)
    # step -> (line, index) of the copy it visited; step 0 maps to (-1, -1)
    line_of = np.full(n + 1, -1, dtype=np.int64)
    index_of = np.full(n + 1, -1, dtype=np.int64)
    for line, vis in enumerate((v0, v1)):
        w = np.nonzero(vis >= 1)[0]
        line_of[vis[w]] = line
        index_of[vis[w]] = w
    entered = count > 0
    t_in = np.where(entered, first, 0)
    t_out = np.where(entered, last, 0)
    run = entered & (last - t_in + 1 == count)
    return ClusterVisits(
        count=count, first=np.where(entered, first, -1), last=last,
        entry_line=line_of[t_in], entry_index=index_of[t_in],
        exit_line=line_of[t_out], exit_index=index_of[t_out],
        consecutive=run & (count == 2 * m),
        undecided=run & (count < 2 * m) & (last == n),
    )


def audit_numpy(real: Realization, traj: Trajectory) -> LemmaAudit:
    """audit_lemmas in numpy: the reference gw_audit is tested against."""
    mu, ml, ms = _merged_shadows(real, traj)
    n, hit = len(traj), ms < np.inf
    t = ms[hit].astype(np.int64)
    _refuse(_off_prefix(n, traj.visited_step0, traj.visited_step1)
            or not (np.bincount(t, minlength=n + 1)[1:] == 1).all()
            or not (traj.us[t - 1] == mu[hit]).all(), _AUDIT_RULE)
    audit = LemmaAudit()
    if real.spec.kind == PARALLEL:
        _audit_pairs(real, traj, audit, mu, ml, ms)
    _audit_replay(traj, audit, mu, ms)
    return audit


def _merged_shadows(real: Realization, traj: Trajectory):
    """The merged visit-step table: every point's shadow, sorted (line 0
    first on a tie), with its line and the step that visited it (+inf when
    none did).  A shadow is alive at step t iff its visit step is >= t."""
    n0 = len(real.line0)
    mu = np.concatenate((real.line0, real.line1))
    ml = np.concatenate((np.zeros(n0, dtype=np.int8),
                         np.ones(len(real.line1), dtype=np.int8)))
    ms = np.concatenate((traj.visited_step0, traj.visited_step1)).astype(np.float64)
    order = np.argsort(mu, kind="stable")
    return mu[order], ml[order], np.where(ms >= 1, ms, np.inf)[order]


def _range_max(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(values[lo:hi]) per pair of index arrays (-inf for an empty
    range), all from one sparse table: row k holds the maxima of the
    windows of width 2**k, and two overlapping windows cover any range."""
    M = len(values)
    table = np.full((M.bit_length(), M), -np.inf)
    table[0] = values
    for k in range(1, len(table)):
        w = 1 << (k - 1)
        table[k, :-w] = np.maximum(table[k - 1, :-w], table[k - 1, w:])
    k = np.frexp(np.maximum(hi - lo, 1))[1] - 1
    out = np.maximum(table[k, np.minimum(lo, M - 1)],
                     table[k, np.maximum(hi - (1 << k), 0)])
    return np.where(hi > lo, out, -np.inf)


def _audit_pairs(real: Realization, traj: Trajectory, audit: LemmaAudit,
                 mu, ml, ms) -> None:
    """Offline scan: once the walk has been at-or-left of x and at-or-right
    of y, a cross-line pair x < y at shadow gap <= r must already have lost
    a member.  The gate is the first time (the origin counts as time 0)
    both extremes hold; the pair must break within one step of it."""
    r = real.spec.separation_r
    M = len(mu)
    # candidates j > i up to a bound padded past every rounding of the
    # exact gap test below; listed by i, then by j, as gw_audit scans them
    ends = np.searchsorted(mu, mu + r + 1e-12 * (np.abs(mu) + r), "right")
    count = ends - np.arange(M) - 1
    ii = np.repeat(np.arange(M), count)
    off = np.arange(len(ii)) - np.repeat(np.cumsum(count) - count, count) + 1
    jj = ii + off
    gap = mu[jj] - mu[ii]
    sel = (gap <= r) & (gap > 0.0) & (ml[ii] != ml[jj])
    ii, jj = ii[sel], jj[sel]
    audit.pair_checks += len(ii)
    gate = np.maximum(first_passage(traj, mu[ii], down=True),
                      first_passage(traj, mu[jj]))
    t_break = np.minimum(ms[ii], ms[jj])
    audit.violations.extend(
        {"kind": "pair-distance", "x": float(mu[ii[b]]), "y": float(mu[jj[b]]),
         "gate": float(gate[b]), "t_break": float(t_break[b])}
        for b in np.flatnonzero((gate < np.inf) & (gate < t_break)))


def _audit_replay(traj: Trajectory, audit: LemmaAudit, mu, ms) -> None:
    """The two facts about each step t with previous shadow z and running
    extremes a_prev/b_prev (the origin included), as range-max queries
    over the visit steps of the sorted shadows:

    * landing on u inside the swept stretch [a_prev, z] must hit the
      largest alive shadow <= z: every shadow in (u, z] was visited before t;
    * when the visit kills the last copy at its shadow value c = u (no twin
      at c visited after t), with z >= c and a_prev < c strictly (the walk
      has crossed c from the left before, so at most one copy at c could
      survive that crossing), no alive shadow may remain in (c, b_prev]:
      every shadow there was visited by step t.
    """
    u = traj.us  # the visited shadows, in step order
    if len(u) == 0:
        return
    t = np.arange(1, len(u) + 1)
    z = np.concatenate(([0.0], u[:-1]))
    a_prev, b_prev = np.minimum.accumulate(z), np.maximum.accumulate(z)
    at_u, past_u, past_z, past_b = (
        np.searchsorted(mu, v, side) for v, side in
        ((u, "left"), (u, "right"), (z, "right"), (b_prev, "right")))
    twin, left_alive, right_alive = _range_max(
        ms, np.stack((at_u, past_u, past_u)),
        np.stack((past_u, past_z, past_b)))
    replay = (a_prev <= u) & (u <= z)
    empty = (twin <= t) & (z >= u) & (a_prev < u)
    audit.replay_checks += int(np.count_nonzero(replay))
    audit.empty_interval_checks += int(np.count_nonzero(empty))
    bad_max = replay & (left_alive >= t)
    bad_empty = empty & (right_alive > t)
    for i in np.flatnonzero(bad_max | bad_empty):
        step, lo = int(i) + 1, past_u[i]
        if bad_max[i]:
            k = lo + np.flatnonzero(ms[lo:past_z[i]] >= step)[-1]
            audit.violations.append({
                "kind": "replay-max", "step": step, "u": float(u[i]),
                "z": float(z[i]), "expected": float(mu[k]),
            })
        if bad_empty[i]:
            k = lo + np.flatnonzero(ms[lo:past_b[i]] > step)[0]
            audit.violations.append({
                "kind": "empty-interval", "step": step, "c": float(u[i]),
                "b_prev": float(b_prev[i]), "alive_inside": float(mu[k]),
            })


# ---------------------------------------------------------------------------
# the mirror image u -> -u and the reduced walk


def mirror_realization(real: Realization) -> Realization:
    """Reflect the realization through the vertical axis u -> -u."""
    if real.spec.kind == INTERSECTING:
        raise ValidationError("cannot mirror an intersecting-lines realization")
    spec = real.spec
    if spec.construction == PARALLEL_SHIFTED:
        spec = replace(spec, shift_s=-spec.shift_s)
    return Realization(
        spec=spec,
        seed=real.seed,
        line0=np.sort(-real.line0),
        line1=np.sort(-real.line1),
        provenance=f"{real.provenance}; mirrored",
    )


def mirror_trajectory(traj: Trajectory) -> Trajectory:
    """The walk's image under u -> -u (pairs with mirror_realization).

    mirror_realization re-sorts the negated point arrays, which reverses
    their order, so the per-point visit-step arrays are reversed to match.
    """
    return Trajectory(
        us=-traj.us,
        lines=traj.lines,
        step_distances=traj.step_distances,
        stop_reason=traj.stop_reason,
        visited_step0=traj.visited_step0[::-1].copy(),
        visited_step1=traj.visited_step1[::-1].copy(),
    )


def reduce_to_cluster_leads(real: Realization, traj: Trajectory) -> np.ndarray:
    """Lead shadows of the entered clusters of a duplicated realization, in
    first-visit order: the walk reduced to one site per cluster."""
    if real.spec.construction != PARALLEL_DUPLICATED:
        raise ValidationError("reduced walk is defined for parallel-duplicated")
    dec = clusters_of(real)
    t = cluster_visits(dec, traj)
    entered = t.entered
    return dec.points[dec.leads[entered]][np.argsort(t.first[entered],
                                                     kind="stable")]


# ---------------------------------------------------------------------------
# the return events


@dataclass(frozen=True)
class OracleEvent:
    """One return event as the per-event loop builds it: its verdict and a
    dict of the quantities that went into it."""

    family: str
    index: int
    occurred: bool | None
    details: dict


def oracle_events(real: Realization, traj: Trajectory) -> list[OracleEvent]:
    """detect_A_events as one OracleEvent per event, built in a loop over
    the reduced walk or the deficiency records: the reference of
    gw_summary's event pass (band_events and gap_events in _walk.c)."""
    c = real.spec.construction
    if c == PARALLEL_DUPLICATED:
        u = reduce_to_cluster_leads(real, traj)
        band = (u // real.spec.separation_r).astype(np.int64)
        pos = u >= 0.0
        entered = set(band[pos].tolist())
        # the final reduced position has an unknown successor
        witnessed = set(band[:-1][pos[:-1] & (u[1:] < 0.0)].tolist())
        return [OracleEvent(A_M_PARALLEL, m, True, {"entered": True})
                if m in witnessed else
                OracleEvent(A_M_PARALLEL, m, None, {"entered": m in entered})
                for m in range(max(entered, default=-1) + 1)]
    if c == PARALLEL_THINNED:
        return oracle_gap_events(A_K_THINNED, real.base_points, 0.0,
                                 real.spec.separation_r, real, traj, False)
    mirrored = real.spec.shift_s < 0
    if mirrored:
        real, traj = mirror_realization(real), mirror_trajectory(traj)
    r, s = real.spec.separation_r, real.spec.shift_s
    return oracle_gap_events(A_K_SHIFTED, real.line0, s, r + s, real, traj,
                             mirrored)


def oracle_gap_events(family, pts, level_offset, extra, real, traj, mirrored):
    """The gap event of each positive point of pts with a successor, in the
    frame of real and traj."""
    pos = np.nonzero(pts[:-1] > 0.0)[0]
    neg = np.nonzero(pts <= 0.0)[0]
    anchor = float(pts[neg[-1]]) if len(neg) else None
    gaps = pts[pos + 1] - pts[pos]
    wide = gaps > extra
    dx = compute_Dx(real, traj, pts[pos[wide]] + level_offset)
    row = np.cumsum(wide) - 1  # the deficiency level of each wide gap
    records = []
    for k, (bi, gap, i) in enumerate(
            zip(pos.tolist(), gaps.tolist(), row.tolist()), start=1):
        details = {"x": float(pts[bi]), "next_x": float(pts[bi + 1]),
                   "gap": gap}
        if mirrored:
            details["mirrored"] = True
        occurred = None
        if gap <= extra:
            occurred = False
        elif anchor is None:
            details["note"] = "no anchor point <= 0 in window"
        elif not dx.decided[i]:
            details["note"] = "deficiency undecidable within prefix"
        else:
            value = float(dx.value[i])
            rhs = value - anchor + extra
            details.update(rhs=rhs, dx=value, degenerate=bool(dx.degenerate[i]),
                           ray_x=float(pts[bi + 1]))
            occurred = bool(gap > rhs)
        records.append(OracleEvent(family, k, occurred, details))
    return records


# ---------------------------------------------------------------------------
# a sweep run's summary


def pack_runs(reals):
    """(D, N) for sweep_counts: each realization's window ends (lo0, hi0,
    lo1, hi1), then each one's line 0 and line 1, with their lengths in N."""
    D = np.concatenate([np.array([w for real in reals for win in real.windows
                                  for w in win])]
                       + [a for real in reals for a in (real.line0, real.line1)])
    N = np.array([len(a) for real in reals for a in (real.line0, real.line1)],
                 dtype=np.int64)
    return D, N


def summarize_reference(cfg, run_index: int, real: Realization,
                        traj: Trajectory) -> RunSummary:
    """A sweep run's RunSummary as a composition of the public analysis
    functions and oracle_events, one pass each: the reference gw_summary is
    tested against, and on run_walk's walk gw_sweep."""
    spec = real.spec
    a_events = None
    if cfg.detect_events and spec.construction in PARALLEL_CONSTRUCTIONS:
        a_events = sum(rec.occurred is True
                       for rec in oracle_events(real, traj))
    failures = None
    if cfg.audit and spec.construction != INTERSECTING_INDEPENDENT:
        failures = len(audit_lemmas(real, traj).violations)
    return RunSummary(
        run_index=run_index,
        seed=real.seed,
        construction=spec.construction,
        rate_lambda=spec.rate_lambda,
        separation_r=spec.separation_r,
        shift_s=spec.shift_s,
        thinning_p=spec.thinning_p,
        alpha=spec.alpha,
        window_L=spec.window_L,
        n_points=real.n_points,
        n_steps=len(traj),
        stop_reason=traj.stop_reason,
        crossings=detect_crossings(traj),
        halfline_changes=len(extract_halfline_changes(traj)),
        a_events=a_events,
        lemma_failures=failures,
    )
