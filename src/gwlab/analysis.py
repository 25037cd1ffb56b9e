"""Trajectory observables and structural checks.

Everything here consumes a (realization, trajectory) pair produced by the
walk engines and extracts derived quantities:

* first passages of the running shadow extremes, and the deficiency
  records built from them: every level of a run in one pass (compute_Dx),
  as one table of numpy columns,
* origin crossings and half-line change bookkeeping,
* the clusters of the parallel constructions, as index arrays of each
  cluster's first member and lead, and one table of how the walk visited
  each, which the reduced walk and traversal checks read,
* return-event detection ("A_*" record families) and the implication check
  tying those events to an early return to the negative half-axis (the
  povratak check),
* lemma audits that flag any step contradicting the structural facts the
  analysis relies on, as queries on when each point was visited.

Decidability convention: a trajectory is only a prefix of the unbounded
walk, so detectors report True (witnessed), False (ruled out), or None
(not decidable from this prefix).  Numeric tables say the same per entry:
an undecided entry has decided False and value NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .geometry import INTERSECTING, PARALLEL, Site
from .processes import (
    PARALLEL_DUPLICATED,
    PARALLEL_SHIFTED,
    PARALLEL_THINNED,
    Realization,
    mirror_realization,
)
from .walk import Trajectory, mirror_trajectory

A_M_PARALLEL = "A_m_parallel"
A_K_THINNED = "A_k_thinned"
A_K_SHIFTED = "A_k_shifted"


# ---------------------------------------------------------------------------
# first passage and deficiency


def first_passage(traj: Trajectory, levels, down: bool = False,
                  strict: bool = False) -> np.ndarray:
    """Per level, the first step (0 = the start site) at which the running
    max of the shadow is >= the level (> when strict), or with down the
    running min is <= it (<); +inf when that does not happen within the
    prefix (it may or may not happen in the unbounded walk)."""
    sign = -1.0 if down else 1.0
    run = np.maximum.accumulate(sign * np.append(traj.start.u, traj.us))
    t = np.searchsorted(run, sign * np.asarray(levels, dtype=np.float64),
                        "right" if strict else "left")
    return np.where(t < len(run), t, np.inf)


def _step(t: float) -> int | None:
    """A first-passage time as a step number; None beyond the prefix."""
    return int(t) if t < np.inf else None


@dataclass(frozen=True)
class DeficiencyRecords:
    """Deficiency records at ascending levels x, one entry per level.

    t_ray is each level's first passage into [x, inf) and t_left the first
    passage into the negative half-axis (+inf: beyond the prefix).  A level
    is degenerate when t_left < t_ray (value 0) and decided when it is
    degenerate or t_ray is finite; undecided levels have value NaN.
    """

    x: np.ndarray
    value: np.ndarray
    degenerate: np.ndarray
    decided: np.ndarray
    t_ray: np.ndarray
    t_left: float
    n_interior: np.ndarray


def last_visit_steps(real: Realization, traj: Trajectory) -> np.ndarray:
    """Per base point, the step at which its last copy was visited.

    +inf where some copy was never visited within the prefix.  Aligned
    with real.base_points.
    """
    last = np.zeros(len(real.base_points))
    for line, vis in ((real.line0, traj.visited_step0),
                      (real.line1, traj.visited_step1)):
        at = np.searchsorted(real.base_points, line)
        last[at] = np.maximum(last[at], np.where(vis >= 1, vis, np.inf))
    return last


def compute_Dx(real: Realization, traj: Trajectory, xs) -> DeficiencyRecords:
    """Deficiency records at the ascending positive level(s) xs, in one pass.

    At a decided, non-degenerate level x the interior points are the
    positive base points b < x whose last copy was visited at or after
    t_ray(x), and the value is the max over consecutive z-pairs of
    2*z_next - z_prev - x, z the interior padded with 0 and x.  t_ray
    does not decrease as x grows, so the decided, non-degenerate levels
    are a prefix and each point is interior on one contiguous run of them.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    if not np.all(xs > 0.0) or np.any(np.diff(xs) < 0.0):
        raise ValidationError("deficiency levels must be positive and ascending")
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


def validate_dx_record(construction: str, dx: DeficiencyRecords,
                       tol: float = 1e-9) -> list[tuple[float, str]]:
    """Bound violations of the decided levels as (x, problem) pairs, in
    level order and within a level in rule order (empty: all in bounds).

    All constructions: 0 <= value <= x, degenerate records are exactly 0.
    Thinned additionally promises strictly positive non-degenerate values.
    No rule can fail on a compute_Dx table: every term
    2*z_next - z_prev - x is <= x (z_next <= x, z_prev >= 0) and the last
    one, x - z, is > 0 (z < x).  So the check tests the deficiency
    computation, not the walk.
    """
    v, x = dx.value, dx.x
    live = dx.decided & ~dx.degenerate
    bad = np.stack((dx.decided & dx.degenerate & (v != 0.0),
                    live & (v > x + tol), live & (v < -tol),
                    live & ~(v > 0.0) & (construction == PARALLEL_THINNED)))
    problems = ("degenerate record has value {v!r} != 0",
                "value {v!r} exceeds level x={x!r}", "value {v!r} negative",
                "non-degenerate value {v!r} not strictly positive")
    return [(float(x[i]), problems[r].format(v=float(v[i]), x=float(x[i])))
            for i, r in zip(*np.nonzero(bad.T))]


# ---------------------------------------------------------------------------
# crossings and half-line changes


def detect_crossings(traj: Trajectory) -> int:
    """Sign changes of the shadow between consecutive steps."""
    us = traj.us
    if len(us) < 2:
        return 0
    return int(np.count_nonzero(us[:-1] * us[1:] < 0.0))


def extract_halfline_changes(traj: Trajectory) -> np.ndarray:
    """1-based steps k such that step k and step k+1 lie on different
    half-lines (a half-line is a (line, sign) pair; the start site at the
    origin lies on none)."""
    us, lines = traj.us, traj.lines
    if len(us) < 2:
        return np.empty(0, dtype=np.int64)
    pos = us > 0.0
    change = (lines[:-1] != lines[1:]) | (pos[:-1] != pos[1:])
    return np.nonzero(change)[0].astype(np.int64) + 1


@dataclass(frozen=True)
class UVRecord:
    """Level-n landmark pair.

    j is the 1-based step of the n-th qualifying half-line change (far
    enough out to beat both the integer level n and the previous
    landmark's norm); k <= j starts the maximal same-half-line run ending
    at j.  U and V are the sites at steps k and j; verdict is "B" when
    the run begins no farther out than it ends (|U| <= |V|), else "C".
    """

    n: int
    j: int
    k: int
    U: Site
    V: Site
    verdict: str


def extract_UV_sequences(traj: Trajectory,
                         n_max: int | None = None) -> list[UVRecord]:
    us, lines = traj.us, traj.lines
    changes = extract_halfline_changes(traj)
    records: list[UVRecord] = []
    j_prev = 0
    norm_prev = abs(traj.start.u)
    n = 1
    ci = 0
    while n_max is None or n <= n_max:
        while ci < len(changes) and changes[ci] <= j_prev:
            ci += 1
        j = None
        scan = ci
        while scan < len(changes):
            k = int(changes[scan])
            if abs(us[k - 1]) > max(float(n), norm_prev):
                j = k
                break
            scan += 1
        if j is None:
            break
        hl = (int(lines[j - 1]), bool(us[j - 1] > 0.0))
        k = j
        while k > 1 and (int(lines[k - 2]), bool(us[k - 2] > 0.0)) == hl:
            k -= 1
        U = Site(float(us[k - 1]), int(lines[k - 1]))
        V = Site(float(us[j - 1]), int(lines[j - 1]))
        records.append(
            UVRecord(n=n, j=j, k=k, U=U, V=V,
                     verdict="B" if abs(U.u) <= abs(V.u) else "C")
        )
        j_prev = j
        norm_prev = abs(us[j - 1])
        n += 1
    return records


def intersect_Bn_bound(alpha: float, n: int) -> float:
    """Tail bound on the probability of a B verdict at level n for
    intersecting lines at angle alpha."""
    if not 0.0 < alpha < math.pi:
        raise ValidationError("alpha must lie in (0, pi)")
    if n < 1:
        raise ValidationError("level n must be >= 1")
    sa = math.sin(alpha)
    return 4.0 * math.exp(1.0 - n * sa) / (1.0 - math.exp(-sa))


def parallel_Am_first_term(r: float, m: int) -> float:
    """Closed-form part of the band-m return bound for parallel lines at
    separation r (the other part is an empirical lead-gap survival)."""
    if not r > 0.0:
        raise ValidationError("separation r must be positive")
    if m < 0:
        raise ValidationError("band index m must be >= 0")
    return 0.5 * math.exp(-2.0 * r * m) * (1.0 - math.exp(-2.0 * r))


def theoretical_bounds(family: str, *, alpha: float | None = None,
                       r: float | None = None, n_max: int = 20) -> dict[int, float]:
    """Closed-form bound tables, keyed by level/band index up to n_max
    (levels start at 1, bands at 0); a table with no entry is an error."""
    if family == "intersecting-Bn":
        if alpha is None:
            raise ValidationError("intersecting-Bn needs alpha")
        table = {n: intersect_Bn_bound(alpha, n) for n in range(1, n_max + 1)}
    elif family == "parallel-Am":
        if r is None:
            raise ValidationError("parallel-Am needs r")
        table = {m: parallel_Am_first_term(r, m) for m in range(0, n_max + 1)}
    else:
        raise ValidationError(f"unknown bound family: {family!r}")
    if not table:
        raise ValidationError(f"n_max={n_max} leaves the {family} table empty")
    return table


# ---------------------------------------------------------------------------
# clusters


@dataclass(frozen=True)
class ClusterDecomposition:
    """Maximal runs of points whose neighbor gaps stay strictly below the
    threshold (a gap equal to the threshold splits).

    starts[i] is the index into points of cluster i's first member, and
    leads[i] that of its lead: the member closest to the origin, ties to
    the right.  zero_cluster is the cluster whose lead wins that same
    contest globally; cluster i sits at signed position i - zero_cluster.
    """

    points: np.ndarray
    threshold: float
    starts: np.ndarray
    leads: np.ndarray
    zero_cluster: int

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.starts, append=len(self.points))

    def nonzero(self) -> np.ndarray:
        """Mask of the clusters other than the zero cluster."""
        return np.arange(len(self.starts)) != self.zero_cluster


def _leads(us: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per run of the sorted us beginning at starts, the index of its
    (|u|, -u)-minimal element: closest to 0, ties right."""
    a = np.abs(us)
    least = np.repeat(np.minimum.reduceat(a, starts),
                      np.diff(np.append(starts, len(us))))
    return np.maximum.reduceat(np.where(a == least, np.arange(len(us)), -1),
                               starts)


def decompose_clusters(points, threshold: float) -> ClusterDecomposition:
    pts = np.asarray(points, dtype=np.float64)
    if not threshold > 0.0:
        raise ValidationError("cluster threshold must be positive")
    if len(pts) == 0:
        none = np.empty(0, dtype=np.int64)
        return ClusterDecomposition(pts, threshold, none, none, -1)
    starts = np.flatnonzero(np.diff(pts, prepend=-np.inf) >= threshold)
    leads = _leads(pts, starts)
    zero = int(_leads(pts[leads], np.zeros(1, dtype=np.int64))[0])
    return ClusterDecomposition(pts, threshold, starts, leads, zero)


def clusters_of(real: Realization) -> ClusterDecomposition:
    """The shadow clusters of a parallel pair: the union's points at gap
    threshold r (duplicated, thinned), or line 0's at the distance
    sqrt(r^2 + s^2) from a point to its shifted copy's neighbour."""
    c = real.spec.construction
    r = real.spec.separation_r
    if c in (PARALLEL_DUPLICATED, PARALLEL_THINNED):
        return decompose_clusters(real.base_points, r)
    if c == PARALLEL_SHIFTED:
        s = real.spec.shift_s
        return decompose_clusters(real.line0, math.sqrt(r * r + s * s))
    raise ValidationError(f"no shadow clusters for construction {c!r}")


@dataclass(frozen=True)
class ClusterVisits:
    """How one trajectory met each cluster of a decomposition over line-0
    indexes whose line-1 copies share those indexes (duplicated, shifted).

    Per cluster: count visited copies out of 2m, first/last their steps,
    entry and exit the (line, index) of those steps; all -1 where count is
    0.  The traversal verdict has three states: True (consecutive) when
    all 2m copies took 2m consecutive steps; None (undecided) when fewer
    copies took consecutive steps up to the prefix end; False when an
    entered cluster is in neither mask.
    """

    count: np.ndarray
    first: np.ndarray
    last: np.ndarray
    entry_line: np.ndarray
    entry_index: np.ndarray
    exit_line: np.ndarray
    exit_index: np.ndarray
    consecutive: np.ndarray
    undecided: np.ndarray

    @property
    def entered(self) -> np.ndarray:
        return self.count > 0

    @property
    def broken(self) -> np.ndarray:
        """Entered clusters whose verdict is False."""
        return self.entered & ~self.consecutive & ~self.undecided


def cluster_visits(dec: ClusterDecomposition, traj: Trajectory) -> ClusterVisits:
    v0, v1 = traj.visited_step0, traj.visited_step1
    if not len(v0) == len(v1) == len(dec.points):
        raise ValidationError(
            f"cluster visits need {len(dec.points)} points on each line, "
            f"got {len(v0)} and {len(v1)}")
    starts, m = dec.starts, dec.sizes
    n = len(traj)
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


def reduce_to_cluster_leads(real: Realization, traj: Trajectory) -> np.ndarray:
    """Lead shadows of the entered clusters of a duplicated realization, in
    first-visit order: the walk reduced to one site per cluster."""
    if real.spec.construction != PARALLEL_DUPLICATED:
        raise ValidationError("reduced walk is defined for parallel-duplicated")
    dec = clusters_of(real)
    t = cluster_visits(dec, traj)
    entered = t.entered
    return dec.points[dec.leads[entered]][np.argsort(t.first[entered])]


def check_cluster_consecutive(real: Realization,
                              traj: Trajectory) -> bool | None:
    """Every entered non-zero cluster of a duplicated realization must be
    swallowed whole: 2|C| consecutive steps, entering and leaving at the
    lead abscissa on opposite lines.

    True: held for every decidable entered cluster.  False: a definite
    counterexample.  None: some cluster was cut by the prefix end and no
    counterexample was seen.
    """
    if real.spec.construction != PARALLEL_DUPLICATED:
        raise ValidationError("traversal check is defined for parallel-duplicated")
    dec = clusters_of(real)
    t = cluster_visits(dec, traj)
    entered = t.entered & dec.nonzero()
    # entry and exit at the lead are its two copies, so on opposite lines
    wrong_exit = t.consecutive & (t.exit_index != dec.leads)
    if np.any(entered & ((t.entry_index != dec.leads) | t.broken | wrong_exit)):
        return False
    return None if np.any(entered & t.undecided) else True


def check_reduced_alignment(real: Realization, traj: Trajectory) -> bool:
    """Structural agreement between the walk and its cluster reduction:
    every transition between distinct clusters must leave and land on lead
    abscissas, except on the zero-cluster side of a transition."""
    if real.spec.construction != PARALLEL_DUPLICATED:
        raise ValidationError("alignment check is defined for parallel-duplicated")
    dec = clusters_of(real)
    if len(traj) < 2:
        return True
    sc = np.searchsorted(dec.starts, np.searchsorted(dec.points, traj.us),
                         "right") - 1
    lead_u = dec.points[dec.leads]
    t = np.nonzero(sc[:-1] != sc[1:])[0]
    bad = np.zeros(len(t), dtype=bool)
    for side in (t, t + 1):
        c = sc[side]
        bad |= (c != dec.zero_cluster) & (traj.us[side] != lead_u[c])
    return not np.any(bad)


@dataclass(frozen=True)
class IndentedEntrySummary:
    """How the walk entered a shifted pair's non-zero clusters that do not
    straddle the origin.

    The shift keeps such a cluster's lead the member nearest the origin on
    line 1 too, so its indented lead is the lead itself when the cluster is
    indented (each copy strictly nearer the origin than its point), else
    the lead's copy.  An entry there must traverse the cluster
    consecutively (a violation otherwise; undecided when cut).
    early_exits counts the clusters the walk definitely left unfinished.
    """

    entries: int
    undecided: int
    early_exits: int
    violation_details: tuple = ()


def check_indented_entry(real: Realization,
                         traj: Trajectory) -> IndentedEntrySummary:
    if real.spec.construction != PARALLEL_SHIFTED:
        raise ValidationError("indented-entry check is defined for "
                              "parallel-shifted")
    dec = clusters_of(real)
    t = cluster_visits(dec, traj)
    u0, u1 = real.line0, real.line1
    starts = dec.starts
    ends = starts + dec.sizes - 1
    indented = np.logical_and.reduceat(np.abs(u0) > np.abs(u1), starts)
    straddles = ((np.minimum(u0[starts], u1[starts]) < 0.0)
                 & (np.maximum(u0[ends], u1[ends]) > 0.0))
    counted = t.entered & dec.nonzero() & ~straddles
    at_lead = (counted & (t.entry_index == dec.leads)
               & (t.entry_line == np.where(indented, 0, 1)))
    bad = np.nonzero(at_lead & t.broken)[0]
    details = tuple(
        {"cluster": int(ci),
         "entry_u": float((u0, u1)[t.entry_line[ci]][t.entry_index[ci]])}
        for ci in bad)
    return IndentedEntrySummary(
        entries=int(np.count_nonzero(at_lead)),
        undecided=int(np.count_nonzero(at_lead & t.undecided)),
        early_exits=int(np.count_nonzero(counted & t.broken)),
        violation_details=details,
    )


# ---------------------------------------------------------------------------
# return events


@dataclass(frozen=True)
class EventRecord:
    """One detected/refuted/undecided return event.

    occurred None = not decidable from the prefix.  details carry the
    quantities that went into the verdict.
    """

    family: str
    index: int
    occurred: bool | None
    details: dict = field(default_factory=dict)


def detect_A_events(real: Realization, traj: Trajectory) -> list[EventRecord]:
    c = real.spec.construction
    if c == PARALLEL_DUPLICATED:
        return _detect_Am_parallel(real, traj)
    if c == PARALLEL_THINNED:
        r = real.spec.separation_r
        return _consecutive_pair_events(A_K_THINNED, real.base_points, 0.0, r,
                                        real, traj, mirrored=False)
    if c == PARALLEL_SHIFTED:
        mirrored = real.spec.shift_s < 0
        if mirrored:
            real, traj = mirror_realization(real), mirror_trajectory(traj)
        r, s = real.spec.separation_r, real.spec.shift_s
        return _consecutive_pair_events(A_K_SHIFTED, real.line0, s, r + s,
                                        real, traj, mirrored)
    raise ValidationError(f"no return-event families for construction {c!r}")


def _detect_Am_parallel(real: Realization, traj: Trajectory) -> list[EventRecord]:
    """Band events of the reduced walk: the lead shadow sits in
    [r*m, r*(m+1)) and the next lead shadow is negative."""
    u = reduce_to_cluster_leads(real, traj)
    band = (u // real.spec.separation_r).astype(np.int64)
    pos = u >= 0.0
    entered = set(band[pos].tolist())
    # the final reduced position has an unknown successor
    witnessed = set(band[:-1][pos[:-1] & (u[1:] < 0.0)].tolist())
    return [EventRecord(A_M_PARALLEL, m, True, {"entered": True})
            if m in witnessed else
            EventRecord(A_M_PARALLEL, m, None, {"entered": m in entered})
            for m in range(max(entered, default=-1) + 1)]


def _consecutive_pair_events(family: str, pts: np.ndarray,
                             level_offset: float, extra: float,
                             real: Realization, traj: Trajectory,
                             mirrored: bool) -> list[EventRecord]:
    """Shared gap-event scan for the thinned and shifted constructions.

    For the k-th positive point X_k with in-window successor X_{k+1}:
    the event holds iff the gap beats (deficiency at X_k + level_offset)
    - anchor + extra, where the anchor is the last point <= 0.  Gaps not
    exceeding `extra` alone cannot beat it, and need no deficiency level.
    """
    pos = np.nonzero(pts[:-1] > 0.0)[0]
    neg = np.nonzero(pts <= 0.0)[0]
    anchor = float(pts[neg[-1]]) if len(neg) else None
    gaps = pts[pos + 1] - pts[pos]
    wide = gaps > extra
    dx = compute_Dx(real, traj, pts[pos[wide]] + level_offset)
    row = np.cumsum(wide) - 1  # the deficiency level of each wide gap
    records: list[EventRecord] = []
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
        records.append(EventRecord(family, k, occurred, details))
    return records


@dataclass(frozen=True)
class PovratakSummary:
    """Outcome of the return-implication check over one trajectory.

    Every occurred gap event must see the walk return to the negative
    half-axis before it first reaches at-or-beyond the far side of the
    gap.  unknowns counts events whose conclusion the prefix cannot
    settle (neither passage happened within it).
    """

    occurrences: int
    violations: int
    unknowns: int
    violation_details: tuple = ()


def check_povratak(real: Realization, traj: Trajectory) -> PovratakSummary:
    c = real.spec.construction
    if c not in (PARALLEL_THINNED, PARALLEL_SHIFTED):
        raise ValidationError(
            "return-implication check applies to thinned and shifted pairs"
        )
    occurred = [rec for rec in detect_A_events(real, traj)
                if rec.occurred is True]
    if c == PARALLEL_SHIFTED and real.spec.shift_s < 0:
        traj = mirror_trajectory(traj)  # the frame of the events' details
    # a degenerate event went negative before even reaching the gap's
    # level; the conclusion holds a fortiori
    checked = [rec for rec in occurred if not rec.details["degenerate"]]
    t_left = first_passage(traj, [0.0], down=True, strict=True)[0]
    t_ray = first_passage(traj, [rec.details["ray_x"] for rec in checked])
    details = tuple({"family": rec.family, "index": rec.index,
                     "t_ray": _step(t), "t_left": _step(t_left), **rec.details}
                    for rec, t in zip(checked, t_ray) if t < t_left)
    unknowns = int(np.count_nonzero(np.isinf(t_ray) & np.isinf(t_left)))
    return PovratakSummary(len(occurred), len(details), unknowns, details)


# ---------------------------------------------------------------------------
# replay audits


@dataclass
class LemmaAudit:
    """Tally of structural audits over one (realization, trajectory) pair."""

    pair_checks: int = 0
    replay_checks: int = 0
    empty_interval_checks: int = 0
    violations: list = field(default_factory=list)


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
    a member.  The gate is the first time (start counts as time 0) both
    extremes hold; the pair must break within one step of it."""
    r = real.spec.separation_r
    M = len(mu)
    # candidates j > i up to a bound padded past every rounding of the
    # exact gap test below; listed by offset j - i, then by i
    ends = np.searchsorted(mu, mu + r + 1e-12 * (np.abs(mu) + r), "right")
    count = ends - np.arange(M) - 1
    ii = np.repeat(np.arange(M), count)
    off = np.arange(len(ii)) - np.repeat(np.cumsum(count) - count, count) + 1
    by_offset = np.argsort(off, kind="stable")
    ii = ii[by_offset]
    jj = ii + off[by_offset]
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
    extremes a_prev/b_prev (start included), as range-max queries over the
    visit steps of the sorted shadows:

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
    z = np.concatenate(([traj.start.u], u[:-1]))
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


def audit_lemmas(real: Realization, traj: Trajectory) -> LemmaAudit:
    """Run every structural audit that applies to this construction.

    Not defined for intersecting lines (their cross-line metric has no
    shadow ordering to audit)."""
    kind = real.spec.kind
    if kind == INTERSECTING:
        raise ValidationError("audits are defined for parallel/single-line runs")
    audit = LemmaAudit()
    mu, ml, ms = _merged_shadows(real, traj)
    if kind == PARALLEL:
        _audit_pairs(real, traj, audit, mu, ml, ms)
    _audit_replay(traj, audit, mu, ms)
    return audit
