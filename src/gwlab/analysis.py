"""Trajectory observables and structural checks.

Everything here consumes a (realization, trajectory) pair produced by the
walk engines, a walk that starts at the origin (its step 0), and extracts
derived quantities:

* first passages of the running shadow extremes, and the deficiency
  records built from them: every level of a run in one pass (compute_Dx),
  as one table of numpy columns,
* origin crossings and half-line change bookkeeping,
* the clusters of the parallel constructions, as index arrays of each
  cluster's first member and lead, and one table of how the walk visited
  each (cluster_visits), which the reduced walk and traversal checks read,
* return-event detection ("A_*" families, one table of numpy columns per
  run, detect_A_events) and the implication check tying those events to
  an early return to the negative half-axis (the povratak check),
* lemma audits that flag any step contradicting the structural facts the
  analysis relies on, as queries on when each point was visited,
* a sweep chunk's walks and their counts of all of these (sweep_counts).

The deficiency records, the cluster-visit table and the audits are each
one linear pass in the compiled library that holds the walk
(``gw_deficiency``, ``gw_cluster_visits`` and ``gw_audit`` in
``_walk.c``, loaded by ``walk._kernel()``), tested bit for bit against
its numpy reference in ``tests/oracles.py``.  A fourth entry,
``gw_summary``, is the one implementation of the return events:
detect_A_events reads a run's event table from it (reference:
oracle_events).  A fifth, ``gw_sweep``, walks a chunk of a sweep's runs
and counts each walk's crossings, half-line changes, occurred events and
audit violations through the body it shares with ``gw_summary``, which
sweep_counts reads (reference: summarize_reference of run_walk's walk).
Each raises ValidationError for a run its pass does not read (_DX_RULE,
_AUDIT_RULE, _CLUSTER_RULE), and for shadows or cluster starts that are
not one row.

Decidability convention: a trajectory is only a prefix of the unbounded
walk, so detectors report True (witnessed), False (ruled out), or None
(not decidable from this prefix).  Numeric tables say the same per entry:
an undecided entry has decided False and value NaN.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import ValidationError
from .processes import (
    INTERSECTING,
    PARALLEL_DUPLICATED,
    PARALLEL_SHIFTED,
    PARALLEL_THINNED,
    Realization,
)
from . import walk
from .walk import Trajectory

A_M_PARALLEL = "A_m_parallel"
A_K_THINNED = "A_k_thinned"
A_K_SHIFTED = "A_k_shifted"
_DX_TOL = 1e-9  # validate_dx_record's slack on the bounds 0 and x

# the runs each pass refuses, in the compiled library and in its reference
_DX_RULE = ("deficiency records need visit steps -1 or of the prefix, and "
            "no NaN shadow")
_AUDIT_RULE = ("audits need visit steps -1 or of the prefix, each step of it "
               "visiting one point, at its shadow")
_CLUSTER_RULE = ("cluster visits need visit steps -1 or of the prefix, and "
                 "starts 0 and then increasing below the point count")


# ---------------------------------------------------------------------------
# first passage and deficiency


def first_passage(traj: Trajectory, levels, down: bool = False,
                  strict: bool = False) -> np.ndarray:
    """Per level, the first step (0 = the origin) at which the running max
    of the shadow is >= the level (> when strict), or with down the running
    min is <= it (<); +inf when that does not happen within the prefix (it
    may or may not happen in the unbounded walk)."""
    sign = -1.0 if down else 1.0
    run = np.maximum.accumulate(sign * np.append(0.0, traj.us))
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
    The pass runs in the compiled library; it refuses a run by _DX_RULE.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.ndim > 1 or not (xs > 0.0).all() or (xs[1:] < xs[:-1]).any():
        raise ValidationError("deficiency levels must be a positive ascending row")
    v0, v1 = _visit_steps(traj, len(real.line0), len(real.line1))
    us = _row(traj.us, np.float64, "shadows")
    lib = walk._kernel()
    out = np.empty((2, len(xs)))
    n_interior = np.empty(len(xs), dtype=np.int64)
    t_left = ctypes.c_double()
    _refuse(lib.gw_deficiency(*_run_args(real, v0, v1, us),
                              xs.ctypes.data, len(xs), out.ctypes.data,
                              n_interior.ctypes.data, ctypes.byref(t_left)),
            _DX_RULE)
    t_ray, value = out
    degenerate = t_left.value < t_ray
    return DeficiencyRecords(xs, value, degenerate, degenerate | (t_ray < np.inf),
                             t_ray, t_left.value, n_interior)


def _refuse(status: int, rule: str) -> None:
    """Raise for a pass's status: 1 (or a reference's True) for a run that
    breaks `rule`, 2 for memory that ran out; 0 passes."""
    if status == 2:
        raise MemoryError("the compiled library ran out of memory")
    if status:
        raise ValidationError(rule)


def _visit_steps(traj: Trajectory, n0: int, n1: int):
    """traj's visit steps as C-contiguous int64 arrays, themselves where
    they are; ValidationError unless they are integers, n0 and n1 of them."""
    v0, v1 = traj.visited_step0, traj.visited_step1
    if v0.shape != (n0,) or v1.shape != (n1,):
        raise ValidationError(f"visit steps must be one per point, {n0} and "
                              f"{n1}, got {v0.shape} and {v1.shape}")
    try:
        return (v0.astype(np.int64, order="C", casting="safe", copy=False),
                v1.astype(np.int64, order="C", casting="safe", copy=False))
    except TypeError:
        raise ValidationError("visit steps must be integers") from None


def _row(a: np.ndarray, dtype, name: str) -> np.ndarray:
    """a as a C-contiguous array of dtype, itself where it is one;
    ValidationError unless it is one row."""
    if np.ndim(a) != 1:
        raise ValidationError(f"{name} must be one row, not {np.shape(a)}")
    return np.ascontiguousarray(a, dtype=dtype)


def _run_args(real: Realization, v0: np.ndarray, v1: np.ndarray,
              us: np.ndarray) -> tuple:
    """The arguments gw_audit and gw_deficiency begin with: each line, the
    visit steps v0 and v1 and the shadows us.  The caller holds v0, v1 and
    us, contiguous, until the call returns; lines always are."""
    line0, line1 = real.line0, real.line1
    return (line0.ctypes.data, len(line0), line1.ctypes.data, len(line1),
            v0.ctypes.data, v1.ctypes.data, us.ctypes.data, len(us))


def validate_dx_record(construction: str,
                       dx: DeficiencyRecords) -> list[tuple[float, str]]:
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
                    live & (v > x + _DX_TOL), live & (v < -_DX_TOL),
                    live & ~(v > 0.0) & (construction == PARALLEL_THINNED)))
    problems = ("degenerate record has value {v!r} != 0",
                "value {v!r} exceeds level x={x!r}", "value {v!r} negative",
                "non-degenerate value {v!r} not strictly positive")
    return [(float(x[i]), problems[r].format(v=float(v[i]), x=float(x[i])))
            for i, r in zip(*np.nonzero(bad.T))]


# ---------------------------------------------------------------------------
# crossings and half-line changes


def detect_crossings(traj: Trajectory) -> int:
    """Sign changes of the shadow between consecutive steps.  The signs
    are compared, not multiplied: the product of two tiny shadows
    underflows to zero."""
    pos, neg = traj.us > 0.0, traj.us < 0.0
    return int(np.count_nonzero(pos[:-1] & neg[1:])
               + np.count_nonzero(neg[:-1] & pos[1:]))


def extract_halfline_changes(traj: Trajectory) -> np.ndarray:
    """1-based steps k such that step k and step k+1 lie on different
    half-lines (a half-line is a (line, sign) pair; the origin, where the
    walk starts, lies on none)."""
    us, lines = traj.us, traj.lines
    pos = us > 0.0
    change = (lines[:-1] != lines[1:]) | (pos[:-1] != pos[1:])
    return np.nonzero(change)[0].astype(np.int64) + 1


@dataclass(frozen=True)
class UVRecord:
    """Level-n landmark pair.

    j is the 1-based step of the n-th qualifying half-line change (far
    enough out to beat both the integer level n and the previous
    landmark's norm); k <= j starts the maximal same-half-line run ending
    at j.  U and V are the sites (abscissa, line) at steps k and j, in the
    order the UV pins hash; verdict is "B" when the run begins no farther
    out than it ends (|U| <= |V|), else "C".  A greedy walk never gives C
    (proof in README, under bounds): V was strictly nearer than U to the
    site before the run.  In floating point only a rounded tie or an
    inversion of the metric can give one.
    """

    n: int
    j: int
    k: int
    u_U: float
    line_U: int
    u_V: float
    line_V: int
    verdict: str


def extract_UV_sequences(traj: Trajectory) -> list[UVRecord]:
    """The landmark records of any walk, greedy or not, one per level n."""
    us, lines = traj.us.tolist(), traj.lines.tolist()
    records: list[UVRecord] = []
    norm_prev = 0.0
    # the changes list every half-line switch, so the run ending at change
    # j starts one past the change before it, or at step 1
    k = 1
    for j in extract_halfline_changes(traj).tolist():
        n = len(records) + 1
        norm = abs(us[j - 1])
        if norm > max(float(n), norm_prev):
            records.append(UVRecord(
                n, j, k, us[k - 1], lines[k - 1], us[j - 1], lines[j - 1],
                "B" if abs(us[k - 1]) <= norm else "C"))
            norm_prev = norm
        k = j + 1
    return records


def intersect_Bn_bound(alpha: float, n: int) -> float:
    """Tail bound on the probability of a B verdict at level n for
    intersecting lines at angle alpha."""
    if not 0.0 < alpha < math.pi:
        raise ValidationError("alpha must lie in (0, pi)")
    if n < 1:
        raise ValidationError("level n must be >= 1")
    sa = math.sin(alpha)
    return 4.0 * math.exp(1.0 - n * sa) / -math.expm1(-sa)


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


def global_lead(pts: np.ndarray) -> int:
    """The index of the sorted points' member nearest the origin, ties to
    the right; -1 when there are none."""
    j = int(pts.searchsorted(0.0))
    if j == len(pts) or (j > 0 and -pts[j - 1] < pts[j]):
        j -= 1
    return j


def decompose_clusters(points, threshold: float) -> ClusterDecomposition:
    """The clusters of the sorted points at gap threshold `threshold`."""
    pts = np.asarray(points, dtype=np.float64)
    if not threshold > 0.0:
        raise ValidationError("cluster threshold must be positive")
    if len(pts) == 0:
        none = np.empty(0, dtype=np.int64)
        return ClusterDecomposition(pts, threshold, none, none, -1)
    cuts = np.flatnonzero(pts[1:] - pts[:-1] >= threshold)
    starts = np.concatenate(([0], cuts + 1))
    ends = np.concatenate((cuts, [len(pts) - 1]))
    # |u| falls then rises along the sorted points, so the global lead
    # jstar leads its own cluster, and every other cluster leads at its
    # end nearest jstar: the clip of jstar to the cluster
    jstar = global_lead(pts)
    leads = np.minimum(np.maximum(starts, jstar), ends)
    zero = int(starts.searchsorted(jstar, "right")) - 1
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
    """The table, in the compiled library; ValidationError unless both
    lines hold the decomposition's points, and for a run _CLUSTER_RULE
    refuses."""
    p = len(dec.points)
    v0, v1 = _visit_steps(traj, p, p)
    starts = _row(dec.starts, np.int64, "cluster starts")
    lib = walk._kernel()
    k = len(starts)
    table = np.empty((7, k), dtype=np.int64)
    verdicts = np.empty((2, k), dtype=bool)
    _refuse(lib.gw_cluster_visits(v0.ctypes.data, v1.ctypes.data, p,
                                  starts.ctypes.data, k, len(traj),
                                  table.ctypes.data, verdicts.ctypes.data),
            _CLUSTER_RULE)
    return ClusterVisits(*table, *verdicts)


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
    """The verdict of one return event: occurred is True, False or None
    (not decidable from the prefix)."""

    family: str
    index: int
    occurred: bool | None


_VERDICTS = {1: True, 0: False, -1: None}


@dataclass(frozen=True)
class EventTable:
    """The return events of one run as gw_summary's event pass writes them,
    one row per event and one numpy column per field; family and mirrored
    hold for every row.

    occurred is 1, 0 or -1 for True, False and None (not decidable from the
    prefix).  A gap event (A_k families) has its point x, the successor
    next_x and the gap between them; a gap wider than the family's extra
    has a note code (1: no anchor, 2: deficiency undecided) or, when
    decided, rhs, dx, degenerate and ray_x, which are NaN (False) where not
    computed.  A band event (A_m) has entered instead, and NaN gap columns.
    len counts the rows; iteration gives their verdicts as EventRecords.
    """

    family: str
    mirrored: bool
    index: np.ndarray
    occurred: np.ndarray
    x: np.ndarray
    next_x: np.ndarray
    gap: np.ndarray
    rhs: np.ndarray
    dx: np.ndarray
    ray_x: np.ndarray
    degenerate: np.ndarray
    note: np.ndarray
    entered: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self):
        return map(EventRecord, repeat(self.family), self.index.tolist(),
                   map(_VERDICTS.get, self.occurred.tolist()))


# gw_summary's event families (_walk.c's enum) with their names, and the
# rule of each status it refuses a run with
_FAMILIES = {PARALLEL_DUPLICATED: (1, A_M_PARALLEL),
             PARALLEL_THINNED: (2, A_K_THINNED),
             PARALLEL_SHIFTED: (3, A_K_SHIFTED)}
_SUMMARY_RULES = {1: _DX_RULE, 3: _AUDIT_RULE, 4: _CLUSTER_RULE}


def detect_A_events(real: Realization, traj: Trajectory) -> EventTable:
    """The run's return events, from gw_summary's event pass with its table:
    band events on duplicated lines, gap events on thinned and shifted ones
    (s < 0 in the mirrored frame u -> -u).  It refuses a run by the rule of
    the pass it reads, _CLUSTER_RULE for bands and _DX_RULE for gaps."""
    c = real.spec.construction
    if c not in _FAMILIES:
        raise ValidationError(f"no return-event families for construction {c!r}")
    family, name = _FAMILIES[c]
    n0, n1 = len(real.line0), len(real.line1)
    v0, v1 = _visit_steps(traj, n0, n1)
    us = _row(traj.us, np.float64, "shadows")
    n, m = len(us), n0 + n1
    if np.shape(traj.lines) != (n,):
        raise ValidationError(f"lines must be one per step, {n}, got "
                              f"{np.shape(traj.lines)}")
    # gw_summary's tables in the step loop's per-thread buffers, whose
    # addresses are kept: a run's arrays are short, so copying them costs
    # less than taking each one's address
    (F, I, _, _), _, (pF, pI, *_) = walk._buffers(m + n + 5)
    F[:n0], F[n0:m], F[m:m + n] = real.line0, real.line1, us
    I[:n0], I[n0:m], I[m:m + n] = v0, v1, traj.lines
    # _walk.c's Events: cap rows of six double columns, then four byte ones
    cap = m  # every gap row, most band rows
    while True:  # twice at most: the second time with every band's room
        table = np.empty(52 * cap, dtype=np.uint8)
        status = walk._kernel().gw_summary(
            pF, n0, n1, pI, n, family, real.spec.separation_r,
            real.spec.shift_s or 0.0, table.ctypes.data, cap)
        _refuse(status, _SUMMARY_RULES.get(status))
        rows = int(I[m + n + 4])
        if rows <= cap:
            break
        cap = rows
    doubles = table[:48 * cap].view(np.float64).reshape(6, cap)[:, :rows]
    occurred, note, degenerate, entered = (
        table[48 * cap:].view(np.int8).reshape(4, cap)[:, :rows])
    return EventTable(name, c == PARALLEL_SHIFTED and real.spec.shift_s < 0,
                      np.arange(rows) + (c != PARALLEL_DUPLICATED), occurred,
                      *doubles, degenerate.view(bool), note, entered.view(bool))


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


def _violation(ev: EventTable, i: int, t_ray: float, t_left: float) -> dict:
    """The details of the decided gap event in row i of ev, whose ray the
    walk reached at step t_ray, before its return at t_left."""
    def cells(*columns):
        return {c: getattr(ev, c)[i].item() for c in columns}

    return {"family": ev.family, "index": ev.index[i].item(),
            "t_ray": _step(t_ray), "t_left": _step(t_left),
            **cells("x", "next_x", "gap"),
            **({"mirrored": True} if ev.mirrored else {}),
            **cells("rhs", "dx", "degenerate", "ray_x")}


def check_povratak(real: Realization, traj: Trajectory) -> PovratakSummary:
    c = real.spec.construction
    if c not in (PARALLEL_THINNED, PARALLEL_SHIFTED):
        raise ValidationError(
            "return-implication check applies to thinned and shifted pairs"
        )
    ev = detect_A_events(real, traj)
    occurred = ev.occurred == 1
    # a degenerate event went negative before even reaching the gap's
    # level; the conclusion holds a fortiori
    checked = np.nonzero(occurred & ~ev.degenerate)[0]
    # the passages in the events' frame: a mirrored event's ray [x, inf)
    # is (-inf, -x] here, and its negative half-axis is (0, inf)
    sign = -1.0 if ev.mirrored else 1.0
    t_left = first_passage(traj, [0.0], down=not ev.mirrored, strict=True)[0]
    t_ray = first_passage(traj, sign * ev.ray_x[checked], down=ev.mirrored)
    late = np.nonzero(t_ray < t_left)[0]
    details = tuple(_violation(ev, checked[j], t_ray[j], t_left)
                    for j in late)
    unknowns = int(np.count_nonzero(np.isinf(t_ray) & np.isinf(t_left)))
    return PovratakSummary(int(np.count_nonzero(occurred)), len(details),
                           unknowns, details)


# ---------------------------------------------------------------------------
# a sweep chunk's counts


def sweep_counts(spec, D, N, *, audit: bool, events: bool) -> list[tuple]:
    """Per run of spec (but for window_L) packed in D, its window ends
    (lo0, hi0, lo1, hi1) and then its lines of N[2i] and N[2i + 1] points,
    its truncation-safe walk's steps, crossings (detect_crossings),
    half-line changes (extract_halfline_changes), occurred return events
    (detect_A_events) and lemma-audit violations (audit_lemmas), walked and
    counted in one compiled call (gw_sweep) with no Trajectory.  The events
    are None unless `events` is set on a parallel construction, the
    violations None unless `audit` is set off intersecting lines."""
    family = _FAMILIES.get(spec.construction, (0,))[0] if events else 0
    audit = audit and spec.kind != INTERSECTING
    k = len(N) // 2
    rows = np.empty((k, 6), dtype=np.int64)
    _, _, scratch = walk._buffers(int((N[::2] + N[1::2]).max()) + 4)
    pF, pvis, porder, pdists, pprv, pnxt = scratch
    status = walk._kernel().gw_sweep(
        D.ctypes.data, N.ctypes.data, k, walk._KINDS[spec.kind],
        spec.separation_r or 0.0,
        spec.cos_alpha if spec.kind == INTERSECTING else 0.0, family,
        spec.shift_s or 0.0, audit, pF, pprv, pnxt, pvis, porder, pdists,
        rows.ctypes.data)
    _refuse(status, _SUMMARY_RULES.get(status))  # the first run refused
    return [(n, crossings, changes, found if family else None,
             failures if audit else None)
            for n, crossings, changes, found, failures, _ in rows.tolist()]


# ---------------------------------------------------------------------------
# replay audits


@dataclass
class LemmaAudit:
    """Tally of structural audits over one (realization, trajectory) pair."""

    pair_checks: int = 0
    replay_checks: int = 0
    empty_interval_checks: int = 0
    violations: list = field(default_factory=list)


# gw_audit's violation rows (_walk.c's PairViolation and StepViolation),
# and the keys of a step violation's dict by its kind
_PAIR_ROW = np.dtype([("x", np.float64), ("y", np.float64),
                      ("gate", np.float64), ("t_break", np.float64)])
_STEP_ROW = np.dtype([("kind", np.int64), ("step", np.int64),
                      ("u", np.float64), ("ref", np.float64),
                      ("value", np.float64)])
_STEP_KEYS = (("replay-max", "u", "z", "expected"),
              ("empty-interval", "c", "b_prev", "alive_inside"))


def audit_lemmas(real: Realization, traj: Trajectory) -> LemmaAudit:
    """Run every structural audit that applies to this construction, in
    the compiled library; it refuses a run by _AUDIT_RULE.

    Not defined for intersecting lines (their cross-line metric has no
    shadow ordering to audit)."""
    if real.spec.kind == INTERSECTING:
        raise ValidationError("audits are defined for parallel/single-line runs")
    v0, v1 = _visit_steps(traj, len(real.line0), len(real.line1))
    us = _row(traj.us, np.float64, "shadows")
    lib = walk._kernel()
    args = _run_args(real, v0, v1, us)
    counts = np.zeros(5, dtype=np.int64)
    caps = (16, 16)
    while True:  # twice at most: the second time with every violation's room
        pairs, steps = np.empty(caps[0], _PAIR_ROW), np.empty(caps[1], _STEP_ROW)
        _refuse(lib.gw_audit(*args, real.spec.separation_r or 0.0,
                             pairs.ctypes.data, caps[0], steps.ctypes.data,
                             caps[1], counts.ctypes.data), _AUDIT_RULE)
        *checks, found_pairs, found_steps = counts.tolist()
        if found_pairs <= caps[0] and found_steps <= caps[1]:
            break
        caps = (found_pairs, found_steps)
    audit = LemmaAudit(*checks)
    audit.violations.extend(
        {"kind": "pair-distance", "x": x, "y": y, "gate": gate,
         "t_break": t_break}
        for x, y, gate, t_break in pairs[:found_pairs].tolist())
    for kind, step, u, ref, value in steps[:found_steps].tolist():
        name, key_u, key_ref, key_value = _STEP_KEYS[kind]
        audit.violations.append({"kind": name, "step": step, key_u: u,
                                 key_ref: ref, key_value: value})
    return audit
