"""Trajectory observables and structural checks.

Everything here consumes a (realization, trajectory) pair produced by the
walk engines and extracts derived quantities:

* hitting times of half-axes, and deficiency records built from them,
* origin crossings and half-line change bookkeeping,
* cluster structure of the parallel constructions, the reduced walk on
  cluster leads, and traversal-order checks,
* return-event detection ("A_*" record families) and the implication check
  tying those events to an early return to the negative half-axis (the
  povratak check),
* replay audits that re-run a trajectory against an alive-site index and
  flag any step contradicting the structural facts the analysis relies on.

Decidability convention: a trajectory is only a prefix of the unbounded
walk, so detectors report True (witnessed), False (ruled out), or None
(not decidable from this prefix).  Numeric queries raise PrefixLimitError
when the prefix cannot answer them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import PrefixLimitError, ValidationError
from .geometry import INTERSECTING, PARALLEL, Site
from .processes import (
    PARALLEL_DUPLICATED,
    PARALLEL_SHIFTED,
    PARALLEL_THINNED,
    Realization,
    mirror_realization,
)
from .walk import SortedAliveIndex, Trajectory, mirror_trajectory

A_M_PARALLEL = "A_m_parallel"
A_K_THINNED = "A_k_thinned"
A_K_SHIFTED = "A_k_shifted"


# ---------------------------------------------------------------------------
# hitting times and deficiency


@dataclass(frozen=True)
class HittingTimes:
    """First-passage queries over the shadow sequence of one trajectory.

    Steps are 1-based; step 0 is the start site.  None means the passage
    did not happen within the emitted prefix (it may or may not happen in
    the unbounded walk).
    """

    traj: Trajectory

    def first_step_geq(self, x: float) -> int | None:
        if self.traj.start.u >= x:
            return 0
        pm = self.traj.prefix_max
        i = int(np.searchsorted(pm, x, side="left"))
        return i + 1 if i < len(pm) else None

    def first_step_lt(self, c: float) -> int | None:
        if self.traj.start.u < c:
            return 0
        nm = -self.traj.prefix_min
        i = int(np.searchsorted(nm, -c, side="right"))
        return i + 1 if i < len(nm) else None


@dataclass(frozen=True)
class DxRecord:
    """Deficiency of the swept region at the first passage beyond x.

    degenerate means the walk entered the negative half-axis before ever
    reaching [x, inf); the value is 0 by convention then.  t_ray / t_left
    are the passage steps (None: beyond the prefix).
    """

    x: float
    value: float
    degenerate: bool
    t_ray: int | None
    t_left: int | None
    n_interior: int


def deficiency_value(interior: np.ndarray, x: float) -> float:
    """max over consecutive z-pairs of (2*z_next - z_prev - x), z padded
    with 0 and x.  interior must lie strictly inside (0, x), sorted."""
    z = np.concatenate(([0.0], np.asarray(interior, dtype=np.float64), [x]))
    return float(np.max(2.0 * z[1:] - z[:-1] - x))


def last_visit_steps(real: Realization, traj: Trajectory) -> np.ndarray:
    """Per base point, the step at which its last copy was visited.

    +inf where some copy was never visited within the prefix.  Aligned
    with real.base_points.
    """
    base = real.base_points
    last = np.full(len(base), -np.inf)
    for arr, vis in (
        (real.line0, traj.visited_step0),
        (real.line1, traj.visited_step1),
    ):
        if len(arr) == 0:
            continue
        idx = np.searchsorted(base, arr)
        steps = np.where(vis >= 1, vis.astype(np.float64), np.inf)
        np.maximum.at(last, idx, steps)
    return last


def compute_Dx(real: Realization, traj: Trajectory, x: float,
               last_steps: np.ndarray | None = None) -> DxRecord:
    """Deficiency record at level x > 0.

    Raises PrefixLimitError when the prefix reaches neither [x, inf) nor
    the negative half-axis, so the record is undecidable.
    """
    if not x > 0.0:
        raise ValidationError("deficiency level x must be positive")
    ht = HittingTimes(traj)
    t_ray = ht.first_step_geq(x)
    t_left = ht.first_step_lt(0.0)
    if t_left is not None and (t_ray is None or t_left < t_ray):
        return DxRecord(x, 0.0, True, t_ray, t_left, 0)
    if t_ray is None:
        raise PrefixLimitError(
            f"prefix reaches neither [{x!r}, inf) nor the negative half-axis"
        )
    if last_steps is None:
        last_steps = last_visit_steps(real, traj)
    base = real.base_points
    mask = (base > 0.0) & (base < x) & (last_steps >= t_ray)
    value = deficiency_value(base[mask], x)
    return DxRecord(x, value, False, t_ray, t_left, int(mask.sum()))


def validate_dx_record(construction: str, rec: DxRecord,
                       tol: float = 1e-9) -> list[str]:
    """Contract violations (empty list = record is in bounds).

    All constructions: 0 <= value <= x, degenerate records are exactly 0.
    Thinned additionally promises strictly positive non-degenerate values.
    """
    out = []
    if rec.degenerate:
        if rec.value != 0.0:
            out.append(f"degenerate record has value {rec.value!r} != 0")
        return out
    if rec.value > rec.x + tol:
        out.append(f"value {rec.value!r} exceeds level x={rec.x!r}")
    if rec.value < -tol:
        out.append(f"value {rec.value!r} negative")
    if construction == PARALLEL_THINNED and not rec.value > 0.0:
        out.append(f"non-degenerate value {rec.value!r} not strictly positive")
    return out


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


def empirical_survival(samples, thresholds) -> dict[float, float]:
    """P(sample > t) for each threshold t, from the given samples."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(s)
    out = {}
    for t in thresholds:
        t = float(t)
        out[t] = float(n - np.searchsorted(s, t, side="right")) / n if n else 0.0
    return out


def theoretical_bounds(family: str, *, alpha: float | None = None,
                       r: float | None = None, n_max: int = 20) -> dict[int, float]:
    """Closed-form bound tables, keyed by level/band index."""
    if family == "intersecting-Bn":
        if alpha is None:
            raise ValidationError("intersecting-Bn needs alpha")
        return {n: intersect_Bn_bound(alpha, n) for n in range(1, n_max + 1)}
    if family == "parallel-Am":
        if r is None:
            raise ValidationError("parallel-Am needs r")
        return {m: parallel_Am_first_term(r, m) for m in range(0, n_max + 1)}
    raise ValidationError(f"unknown bound family: {family!r}")


# ---------------------------------------------------------------------------
# clusters


@dataclass(frozen=True)
class ClusterDecomposition:
    """Maximal runs of points whose neighbor gaps stay strictly below the
    threshold (a gap equal to the threshold splits).

    ranges are half-open index intervals into points.  leads[i] is the
    point index of cluster i's lead: the member closest to the origin,
    ties to the right.  zero_cluster is the cluster whose lead wins that
    same contest globally.
    """

    points: np.ndarray
    threshold: float
    ranges: tuple[tuple[int, int], ...]
    leads: tuple[int, ...]
    zero_cluster: int

    @property
    def n_clusters(self) -> int:
        return len(self.ranges)

    def cluster_number(self, ci: int) -> int:
        """Signed position relative to the zero cluster."""
        return ci - self.zero_cluster

    def lead_us(self) -> np.ndarray:
        return self.points[list(self.leads)]


def _lead_index(us: np.ndarray) -> int:
    """Index of the (|u|, -u)-minimal element: closest to 0, ties right."""
    k = np.abs(us)
    cand = np.nonzero(k == k.min())[0]
    return int(cand[np.argmax(us[cand])])


def decompose_clusters(points, threshold: float) -> ClusterDecomposition:
    pts = np.asarray(points, dtype=np.float64)
    if not threshold > 0.0:
        raise ValidationError("cluster threshold must be positive")
    if len(pts) == 0:
        return ClusterDecomposition(pts, threshold, (), (), -1)
    breaks = np.nonzero(np.diff(pts) >= threshold)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks + 1, [len(pts)]))
    ranges = tuple((int(a), int(b)) for a, b in zip(starts, ends))
    leads = tuple(lo + _lead_index(pts[lo:hi]) for lo, hi in ranges)
    zero = min(
        range(len(ranges)),
        key=lambda c: (abs(pts[leads[c]]), -pts[leads[c]]),
    )
    return ClusterDecomposition(pts, threshold, ranges, leads, zero)


@dataclass(frozen=True)
class ReducedWalk:
    """Clusters in first-visit order, represented by their lead shadows."""

    lead_us: np.ndarray
    first_steps: np.ndarray
    cluster_order: tuple[int, ...]
    decomposition: ClusterDecomposition


def reduce_to_cluster_leads(real: Realization, traj: Trajectory) -> ReducedWalk:
    if real.spec.construction != PARALLEL_DUPLICATED:
        raise ValidationError("reduced walk is defined for parallel-duplicated")
    dec = decompose_clusters(real.base_points, real.spec.space.separation_r)
    big = np.iinfo(np.int64).max
    s0 = np.where(traj.visited_step0 >= 1, traj.visited_step0, big)
    s1 = np.where(traj.visited_step1 >= 1, traj.visited_step1, big)
    site_first = np.minimum(s0, s1)
    order, firsts = [], []
    for ci, (lo, hi) in enumerate(dec.ranges):
        f = int(site_first[lo:hi].min())
        if f < big:
            order.append(ci)
            firsts.append(f)
    perm = np.argsort(firsts, kind="stable")
    ordered = tuple(order[int(i)] for i in perm)
    return ReducedWalk(
        lead_us=np.asarray(
            [dec.points[dec.leads[ci]] for ci in ordered], dtype=np.float64
        ),
        first_steps=np.asarray([firsts[int(i)] for i in perm], dtype=np.int64),
        cluster_order=ordered,
        decomposition=dec,
    )


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
    dec = decompose_clusters(real.base_points, real.spec.space.separation_r)
    verdict: bool | None = True
    n = len(traj)
    for ci, (lo, hi) in enumerate(dec.ranges):
        if ci == dec.zero_cluster:
            continue
        m = hi - lo
        steps = np.concatenate((traj.visited_step0[lo:hi],
                                traj.visited_step1[lo:hi]))
        visited = steps[steps >= 1]
        if len(visited) == 0:
            continue
        t0, t1 = int(visited.min()), int(visited.max())
        lead_u = float(real.base_points[dec.leads[ci]])
        i0 = int(np.nonzero(steps == t0)[0][0])
        u_in = float(real.base_points[lo + (i0 % m)])
        if u_in != lead_u:
            return False
        if len(visited) < 2 * m:
            # cut cluster: fine only if the visited block runs to the
            # prefix end without interruption, and then undecidable
            if t1 - t0 + 1 != len(visited) or t1 != n:
                return False
            verdict = None
            continue
        if t1 - t0 != 2 * m - 1:
            return False
        i1 = int(np.nonzero(steps == t1)[0][0])
        u_out = float(real.base_points[lo + (i1 % m)])
        line_in, line_out = i0 // m, i1 // m
        if u_out != lead_u or line_in == line_out:
            return False
    return verdict


def check_reduced_alignment(real: Realization, traj: Trajectory) -> bool:
    """Structural agreement between the walk and its cluster reduction:
    every transition between distinct clusters must leave and land on lead
    abscissas, except on the zero-cluster side of a transition."""
    if real.spec.construction != PARALLEL_DUPLICATED:
        raise ValidationError("alignment check is defined for parallel-duplicated")
    dec = decompose_clusters(real.base_points, real.spec.space.separation_r)
    if len(traj) < 2:
        return True
    base = real.base_points
    cid = np.empty(len(base), dtype=np.int64)
    for ci, (lo, hi) in enumerate(dec.ranges):
        cid[lo:hi] = ci
    sc = cid[np.searchsorted(base, traj.us)]
    lead_u = {ci: float(base[dec.leads[ci]]) for ci in range(dec.n_clusters)}
    for t in np.nonzero(sc[:-1] != sc[1:])[0]:
        a, b = int(sc[t]), int(sc[t + 1])
        if a != dec.zero_cluster and float(traj.us[t]) != lead_u[a]:
            return False
        if b != dec.zero_cluster and float(traj.us[t + 1]) != lead_u[b]:
            return False
    return True


# ---------------------------------------------------------------------------
# shifted-pair cluster marks and entry discipline


@dataclass(frozen=True)
class ClusterMark:
    """Cluster bookkeeping for a shifted pair.

    lead0/lead1 are line-0 point indexes; lead1 names the point whose
    line-1 copy is that line's closest-to-origin member.  indented: every
    member's copy is strictly closer to the origin than the member itself.
    """

    cluster: int
    lo: int
    hi: int
    lead0: int
    lead1: int
    indented: bool
    straddles: bool


def mark_leading_and_indented(
    real: Realization,
) -> tuple[ClusterDecomposition, list[ClusterMark]]:
    if real.spec.construction != PARALLEL_SHIFTED:
        raise ValidationError("cluster marks are defined for parallel-shifted")
    s = real.spec.shift_s
    r = real.spec.space.separation_r
    thr = math.sqrt(r * r + s * s)
    dec = decompose_clusters(real.line0, thr)
    marks = []
    for ci, (lo, hi) in enumerate(dec.ranges):
        seg = real.line0[lo:hi]
        v = seg + s
        lead1 = lo + _lead_index(v)
        allu = np.concatenate((seg, v))
        marks.append(
            ClusterMark(
                cluster=ci,
                lo=lo,
                hi=hi,
                lead0=dec.leads[ci],
                lead1=lead1,
                indented=bool(np.all(np.abs(seg) > np.abs(v))),
                straddles=bool(allu.min() < 0.0 < allu.max()),
            )
        )
    return dec, marks


@dataclass(frozen=True)
class IndentedEntryRecord:
    """How the walk first touched one cluster of a shifted pair.

    consecutive/early_exit are None when the prefix got cut mid-cluster
    before the question was settled.
    """

    cluster: int
    indented: bool
    straddles: bool
    is_zero: bool
    entry_line: int
    entry_u: float
    entered_at_line1_lead: bool
    consecutive: bool | None
    early_exit: bool | None


def check_indented_entry(real: Realization,
                         traj: Trajectory) -> list[IndentedEntryRecord]:
    dec, marks = mark_leading_and_indented(real)
    n = len(traj)
    out = []
    for mk in marks:
        lo, hi = mk.lo, mk.hi
        m = hi - lo
        steps = np.concatenate((traj.visited_step0[lo:hi],
                                traj.visited_step1[lo:hi]))
        visited = steps[steps >= 1]
        if len(visited) == 0:
            continue
        t0, t1 = int(visited.min()), int(visited.max())
        i0 = int(np.nonzero(steps == t0)[0][0])
        entry_line = i0 // m
        pi = lo + (i0 % m)
        entry_u = float(real.line0[pi] if entry_line == 0
                        else real.line0[pi] + real.spec.shift_s)
        if len(visited) == 2 * m:
            consecutive = t1 - t0 == 2 * m - 1
            early_exit: bool | None = not consecutive
        elif t1 - t0 + 1 == len(visited) and t1 == n:
            consecutive = None
            early_exit = None
        else:
            consecutive = False
            early_exit = True
        out.append(
            IndentedEntryRecord(
                cluster=mk.cluster,
                indented=mk.indented,
                straddles=mk.straddles,
                is_zero=mk.cluster == dec.zero_cluster,
                entry_line=entry_line,
                entry_u=entry_u,
                entered_at_line1_lead=entry_line == 1 and pi == mk.lead1,
                consecutive=consecutive,
                early_exit=early_exit,
            )
        )
    return out


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
        return _detect_Ak_thinned(real, traj)
    if c == PARALLEL_SHIFTED:
        if real.spec.shift_s < 0:
            return _detect_Ak_shifted(mirror_realization(real),
                                      mirror_trajectory(traj), mirrored=True)
        return _detect_Ak_shifted(real, traj)
    raise ValidationError(f"no return-event families for construction {c!r}")


def _detect_Am_parallel(real: Realization, traj: Trajectory) -> list[EventRecord]:
    """Band events of the reduced walk: the lead shadow sits in
    [r*m, r*(m+1)) and the next lead shadow is negative."""
    r = real.spec.space.separation_r
    red = reduce_to_cluster_leads(real, traj)
    lead_us = red.lead_us
    witnessed: set[int] = set()
    entered: set[int] = set()
    for i in range(len(lead_us)):
        u = float(lead_us[i])
        if u < 0.0:
            continue
        m = int(u // r)
        entered.add(m)
        # the final reduced position has an unknown successor
        if i + 1 < len(lead_us) and float(lead_us[i + 1]) < 0.0:
            witnessed.add(m)
    out = []
    for m in range(max(witnessed | entered, default=-1) + 1):
        if m in witnessed:
            out.append(EventRecord(A_M_PARALLEL, m, True, {"entered": True}))
        else:
            out.append(EventRecord(
                A_M_PARALLEL, m, None, {"entered": m in entered}
            ))
    return out


def _consecutive_pair_events(family: str, pts: np.ndarray, trivial_gap: float,
                             level_offset: float, extra: float,
                             real: Realization, traj: Trajectory,
                             mirrored: bool) -> list[EventRecord]:
    """Shared gap-event scan for the thinned and shifted constructions.

    For the k-th positive point X_k with in-window successor X_{k+1}:
    the event holds iff the gap beats (deficiency at X_k + level_offset)
    - anchor + extra, where the anchor is the last point <= 0.  Gaps not
    exceeding `extra` alone cannot beat it, and skip the deficiency
    computation entirely.
    """
    pos = np.nonzero(pts > 0.0)[0]
    neg = np.nonzero(pts <= 0.0)[0]
    anchor = float(pts[neg[-1]]) if len(neg) else None
    last = last_visit_steps(real, traj)
    records: list[EventRecord] = []
    for k, bi in enumerate(pos, start=1):
        if bi + 1 >= len(pts):
            break
        gap = float(pts[bi + 1] - pts[bi])
        base_details = {"x": float(pts[bi]), "next_x": float(pts[bi + 1]),
                        "gap": gap}
        if mirrored:
            base_details["mirrored"] = True
        if gap <= trivial_gap:
            records.append(EventRecord(family, k, False, base_details))
            continue
        if anchor is None:
            base_details["note"] = "no anchor point <= 0 in window"
            records.append(EventRecord(family, k, None, base_details))
            continue
        try:
            dx = compute_Dx(real, traj, float(pts[bi]) + level_offset,
                            last_steps=last)
        except PrefixLimitError:
            base_details["note"] = "deficiency undecidable within prefix"
            records.append(EventRecord(family, k, None, base_details))
            continue
        rhs = dx.value - anchor + extra
        base_details.update(
            rhs=rhs, dx=dx.value, degenerate=dx.degenerate,
            ray_x=float(pts[bi + 1]),
        )
        records.append(EventRecord(family, k, bool(gap > rhs), base_details))
    return records


def _detect_Ak_thinned(real: Realization, traj: Trajectory) -> list[EventRecord]:
    r = real.spec.space.separation_r
    return _consecutive_pair_events(
        A_K_THINNED, real.base_points, trivial_gap=r, level_offset=0.0,
        extra=r, real=real, traj=traj, mirrored=False,
    )


def _detect_Ak_shifted(real: Realization, traj: Trajectory,
                       mirrored: bool = False) -> list[EventRecord]:
    r = real.spec.space.separation_r
    s = real.spec.shift_s
    return _consecutive_pair_events(
        A_K_SHIFTED, real.line0, trivial_gap=r + s, level_offset=s,
        extra=r + s, real=real, traj=traj, mirrored=mirrored,
    )


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
    if c == PARALLEL_SHIFTED and real.spec.shift_s < 0:
        real = mirror_realization(real)
        traj = mirror_trajectory(traj)
    records = detect_A_events(real, traj)
    ht = HittingTimes(traj)
    t_left = ht.first_step_lt(0.0)
    occurrences = violations = unknowns = 0
    details = []
    for rec in records:
        if rec.occurred is not True:
            continue
        occurrences += 1
        if rec.details.get("degenerate"):
            # the walk went negative before even reaching the gap's level;
            # the conclusion holds a fortiori
            continue
        t_ray = ht.first_step_geq(rec.details["ray_x"])
        if t_ray is None and t_left is None:
            unknowns += 1
        elif t_ray is not None and (t_left is None or t_left > t_ray):
            violations += 1
            details.append({"family": rec.family, "index": rec.index,
                            "t_ray": t_ray, "t_left": t_left,
                            **rec.details})
    return PovratakSummary(occurrences, violations, unknowns, tuple(details))


# ---------------------------------------------------------------------------
# replay audits


@dataclass
class LemmaAudit:
    """Tally of structural audits over one (realization, trajectory) pair."""

    pair_checks: int = 0
    replay_checks: int = 0
    empty_interval_checks: int = 0
    violations: list = field(default_factory=list)

    @property
    def n_violations(self) -> int:
        return len(self.violations)


def _first_min_leq(traj: Trajectory, xs: np.ndarray) -> np.ndarray:
    """Per x: first time (0 = start) the running shadow minimum is <= x;
    +inf when that never happens within the prefix."""
    nm = -traj.prefix_min
    idx = np.searchsorted(nm, -xs, side="left")
    t = np.where(idx < len(nm), idx + 1.0, np.inf)
    return np.where(traj.start.u <= xs, 0.0, t)


def _first_max_geq(traj: Trajectory, ys: np.ndarray) -> np.ndarray:
    pm = traj.prefix_max
    idx = np.searchsorted(pm, ys, side="left")
    t = np.where(idx < len(pm), idx + 1.0, np.inf)
    return np.where(traj.start.u >= ys, 0.0, t)


def _merged_shadows(real: Realization, traj: Trajectory):
    n0 = len(real.line0)
    mu = np.concatenate((real.line0, real.line1))
    ml = np.concatenate((np.zeros(n0, dtype=np.int8),
                         np.ones(len(real.line1), dtype=np.int8)))
    ms = np.concatenate((traj.visited_step0, traj.visited_step1)).astype(np.float64)
    order = np.argsort(mu, kind="stable")
    return mu[order], ml[order], np.where(ms >= 1, ms, np.inf)[order], order


def _audit_pairs(real: Realization, traj: Trajectory, audit: LemmaAudit,
                 mu, ml, ms) -> None:
    """Offline scan: once the walk has been at-or-left of x and at-or-right
    of y, a cross-line pair x < y at shadow gap <= r must already have lost
    a member.  The gate is the first time (start counts as time 0) both
    extremes hold; the pair must break within one step of it."""
    r = real.spec.space.separation_r
    M = len(mu)
    if M < 2:
        return
    for o in range(1, M):
        i = np.arange(0, M - o)
        gap = mu[i + o] - mu[i]
        if not np.any(gap <= r):
            break
        sel = (gap <= r) & (gap > 0.0) & (ml[i] != ml[i + o])
        if not np.any(sel):
            continue
        ii = i[sel]
        jj = ii + o
        audit.pair_checks += len(ii)
        gate = np.maximum(_first_min_leq(traj, mu[ii]),
                          _first_max_geq(traj, mu[jj]))
        t_break = np.minimum(ms[ii], ms[jj])
        bad = (gate < np.inf) & (gate < t_break)
        for b in np.nonzero(bad)[0]:
            audit.violations.append({
                "kind": "pair-distance",
                "x": float(mu[ii[b]]), "y": float(mu[jj[b]]),
                "gate": float(gate[b]), "t_break": float(t_break[b]),
            })


def _audit_replay(real: Realization, traj: Trajectory, audit: LemmaAudit,
                  mu, order) -> None:
    """Step-by-step replay against an alive-site index.

    Two facts are checked at every step t with previous shadow z and
    running extremes a_prev/b_prev (start included):

    * landing inside the swept stretch [a_prev, z] must hit the largest
      alive shadow <= z;
    * when the visit kills the last copy at its shadow value c, with
      z >= c and a_prev < c strictly (the walk has crossed c from the
      left before, so at most one copy at c could survive that crossing),
      no alive shadow may remain in (c, b_prev].
    """
    M = len(mu)
    if M == 0:
        return
    mu_list = mu.tolist()
    alive = SortedAliveIndex(mu_list)
    pos_of = np.empty(M, dtype=np.int64)
    pos_of[order] = np.arange(M)
    n = len(traj)
    step_to_merged = np.empty(n, dtype=np.int64)
    for line_offset, vis in ((0, traj.visited_step0),
                             (len(real.line0), traj.visited_step1)):
        w = vis >= 1
        step_to_merged[vis[w] - 1] = pos_of[np.nonzero(w)[0] + line_offset]
    z = traj.start.u
    a_prev = b_prev = z
    for t in range(1, n + 1):
        q = int(step_to_merged[t - 1])
        u = mu_list[q]
        if a_prev <= u <= z:
            audit.replay_checks += 1
            jq = alive.pred_alive(bisect_right(mu_list, z) - 1)
            if jq < 0 or mu_list[jq] != u:
                audit.violations.append({
                    "kind": "replay-max", "step": t, "u": u, "z": z,
                    "expected": mu_list[jq] if jq >= 0 else None,
                })
        alive.remove(q)
        twin = (
            (q + 1 < M and mu_list[q + 1] == u and alive._alive[q + 1])
            or (q - 1 >= 0 and mu_list[q - 1] == u and alive._alive[q - 1])
        )
        if not twin and z >= u and a_prev < u:
            audit.empty_interval_checks += 1
            sq = alive.succ_alive(bisect_right(mu_list, u))
            nxt = mu_list[sq] if sq < M else math.inf
            if nxt <= b_prev:
                audit.violations.append({
                    "kind": "empty-interval", "step": t, "c": u,
                    "b_prev": b_prev, "alive_inside": nxt,
                })
        z = u
        a_prev = min(a_prev, u)
        b_prev = max(b_prev, u)


def audit_lemmas(real: Realization, traj: Trajectory) -> LemmaAudit:
    """Run every structural audit that applies to this construction.

    Not defined for intersecting lines (their cross-line metric has no
    shadow ordering to audit)."""
    kind = real.spec.space.kind
    if kind == INTERSECTING:
        raise ValidationError("audits are defined for parallel/single-line runs")
    audit = LemmaAudit()
    mu, ml, ms, order = _merged_shadows(real, traj)
    if kind == PARALLEL:
        _audit_pairs(real, traj, audit, mu, ml, ms)
    _audit_replay(real, traj, audit, mu, order)
    return audit
