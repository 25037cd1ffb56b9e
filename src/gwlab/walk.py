"""Greedy-walk engines and the metric they measure with.

The walk starts at the origin on line 0 (for intersecting lines, the
intersection point) and repeatedly jumps to the nearest not-yet-visited
point, breaking measure-zero ties by lower line label, then smaller
abscissa.

A site is addressed by its signed arc-length abscissa `u` along a line plus
a line label.  For intersecting lines both abscissas are measured from the
intersection point, which is the origin of both.  For parallel lines the
abscissa is the first coordinate (the "shadow") of the point.  All
distances are Euclidean in the plane embedding; the metric reads the run's
ProcessSpec: its kind, alpha and separation_r.

Two engines produce step-for-step identical trajectories.

* The compiled step loop, ``gw_walk`` in ``_walk.c``, which ``run_walk``
  runs.  It walks one flat table of both lines, ``[-inf, line0..., +inf,
  -inf, line1..., +inf]``, whose sentinels are never visited, so a step
  needs no bounds checks and a step of distance inf means every point is
  visited.  The nearest unvisited point is one of at most four: the alive
  neighbors of the current point on its own line, read from prev/next
  links spliced on each visit, and the alive neighbors of its projection
  (u, or u*cos(alpha) on intersecting lines) on the other line, found by
  galloping out from the walk's last index on that line and skipping past
  visited points with a path-compressing search.  Each step measures
  those four directly; the loop keeps no per-point tables.
  The C source ships with the package, and its library also holds the
  passes analysis.py runs over a walk (``gw_audit``, ``gw_deficiency`` and
  ``gw_summary``, which read a run in one packed layout, and
  ``gw_cluster_visits``), a sweep chunk's walks and counts (``gw_sweep``)
  and its draws (``gw_draw``), each tested bit for bit against its
  reference; ``_walk.c``'s header says what each does and who calls it.
  On first use in a process the library is compiled with the system C
  compiler (``cc``, else ``gcc``) into ``$XDG_CACHE_HOME/gwlab`` (default
  ``~/.cache/gwlab``), once per source and flag set, and loaded with
  ``ctypes``.  A C compiler is required: where neither the cache holds a
  build nor a compiler is found, or the build fails, ``_kernel()`` raises
  OSError.
* ``run_walk_naive``: a linear scan over every unvisited point per step.
  It exists purely as a differential oracle for ``run_walk``.
  ``tests/oracles.py`` holds the other reference, ``gw_walk`` line for
  line in Python, which the tests also run at sizes the scan cannot reach.

Stopping.  With the default truncation-safe rule the walk stops as soon as
the chosen step distance reaches the shortest distance to any location
outside the drawn windows (``stop_margin``; ``margin`` in ``_walk.c``),
which each loop computes itself, the origin's included.  Every emitted step
therefore beats every point the window did not sample, so the emitted
prefix is exactly the prefix of the walk on the unbounded process.  A walk
that took one step per point exhausted them; any other stopped at the margin.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import platform
import shutil
import stat
import struct
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .processes import INTERSECTING, PARALLEL, SINGLE_LINE, Realization

EXHAUSTED = "exhausted"
TRUNCATED = "truncated"

RUN_TO_EXHAUSTION = "run-to-exhaustion"
TRUNCATION_SAFE = "truncation-safe"


def cross_distance(spec, u, v, sqrt=math.sqrt):
    """Distance from abscissa u on one line to abscissa v on the other.

    Parallel lines: hypot of the abscissa gap and the separation.
    Intersecting lines: law of cosines on the two arms, with signed
    abscissas (so opposite half-lines come out right); at an angle near 0
    or pi the cosine law can round below zero for u near v or -v, so its
    magnitude is taken.  Pass numpy arrays with sqrt=np.sqrt for an
    elementwise result.  Every engine computes the metric here, in this
    expression order, so their distances agree bit for bit.
    """
    r = spec.separation_r
    if r is not None:
        du = u - v
        return sqrt(du * du + r * r)
    return sqrt(abs(u * u + v * v - 2.0 * u * v * spec.cos_alpha))


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

    us/lines/step_distances are parallel arrays over steps 1..N (the walk
    starts at the origin on line 0, step 0, which is not part of them).
    visited_step0/visited_step1 map each realization point index to the
    1-based step that visited it, -1 if it was never reached.
    """

    us: np.ndarray
    lines: np.ndarray
    step_distances: np.ndarray
    stop_reason: str
    visited_step0: np.ndarray
    visited_step1: np.ndarray

    def __len__(self) -> int:
        return len(self.us)


def stop_margin(real: Realization, u: float, line: int) -> float:
    """Shortest distance from abscissa u on `line` to any location outside
    the realization's per-line windows, with minima taken as _walk.c's
    margin takes them, so the engines stop at the same step.  Only two terms
    can bind: the own line's window ends, and on parallel lines the way
    across from h, the distance along the line to the other window's nearer
    end (h < 0 puts u outside that window, where the own-line term is below
    |s| < r).  On intersecting lines both windows are (-L, L), so by the
    triangle inequality the other line's outside is L - |u| away or more."""
    (lo_s, hi_s), (lo_o, hi_o) = real.windows[line], real.windows[1 - line]
    m = min(u - lo_s, hi_s - u)
    if real.spec.kind == PARALLEL:
        m = min(m, cross_distance(real.spec, min(u - lo_o, hi_o - u), 0.0))
    return m


# the compiled library _walk.c, whose entries the module docstring names,
# built by the system C compiler into the user's cache once per source and
# flag set, and loaded with ctypes; gw_audit, gw_deficiency and gw_summary
# begin with the one packed run, (F, n0, n1, I, n)
_SOURCE = Path(__file__).with_name("_walk.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_KINDS = {SINGLE_LINE: 0, INTERSECTING: 1, PARALLEL: 2}  # _walk.c's enum
_P, _D, _I, _Q = ctypes.c_void_p, ctypes.c_double, ctypes.c_int, ctypes.c_int64
_SIGNATURES = {  # symbol: (argument types, result type)
    "gw_walk": ((_P, _Q, _Q,  # F, n0, n1
                 _I, _D, _D,  # kind, r, cos_alpha
                 _D, _D, _D, _D,  # lo0, hi0, lo1, hi1
                 _I,  # truncating
                 _P, _P, _P, _P, _P), _Q),  # prv, nxt, vis, order, dists
    "gw_audit": ((_P, _Q, _Q, _P, _Q,  # F, n0, n1, I, n
                  _D, _P, _Q, _P, _Q), _I),  # r, pv, pcap, sv, scap
    "gw_deficiency": ((_P, _Q, _Q, _P, _Q,  # F, n0, n1, I, n
                       _P, _Q, _P,  # xs, m, table
                       _P, _P), _I),  # n_interior, t_left
    "gw_cluster_visits": ((_P, _P, _Q,  # vis0, vis1, p
                           _P, _Q, _Q,  # starts, k, n
                           _P, _P), _I),  # table, verdicts
    "gw_summary": ((_P, _Q, _Q, _P, _Q,  # F, n0, n1, I, n
                    _I, _D, _D, _P, _Q), _I),  # family, r, s, events, cap
    "gw_sweep": ((_P, _P, _Q,  # D, N, k
                  _I, _D, _D,  # kind, r, cos_alpha
                  _I, _D, _I,  # family, s, audit
                  _P, _P, _P, _P, _P, _P,  # F, prv, nxt, vis, order, dists
                  _P), _I),  # rows
    "gw_draw": ((_P, _Q, _I,  # seeds, k, construction
                 _D, _D, _D, _D, _P, _Q,  # rate, L, p, s, W, m
                 _P, _Q, _P), _I),  # D, room, N
}


def _build(cc: str | None, cache: Path):
    """The library built from _walk.c, loaded from its build in `cache`
    with each entry of _SIGNATURES typed; the build is made with the compiler
    `cc` when the cache has none.  OSError when there is neither, or the
    build or the load fails, with the compiler's exit status and the tail
    of its stderr for a failed build.  The compiler writes a temporary file
    that is then renamed into place, so processes building at once never
    load a partial library."""
    key = hashlib.sha256(b"\0".join(
        (_SOURCE.read_bytes(), " ".join(_CFLAGS).encode(),
         platform.machine().encode()))).hexdigest()[:16]
    path = cache / f"_walk-{key}.so"
    if not path.exists():
        if cc is None:
            raise OSError("gwlab needs a C compiler to build its compiled "
                          "library, and found neither cc nor gcc on PATH")
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=cache)
        os.close(fd)
        try:
            try:
                proc = subprocess.run(
                    [cc, *_CFLAGS, "-o", tmp, str(_SOURCE), "-lm"],
                    capture_output=True, text=True, errors="replace",
                    timeout=120)
            except subprocess.TimeoutExpired:
                raise OSError(f"{cc} did not build {_SOURCE.name} within "
                              "120 s") from None
            if proc.returncode:
                raise OSError(f"{cc} could not build {_SOURCE.name} (exit "
                              f"status {proc.returncode}): "
                              f"{proc.stderr[-2000:].strip()}")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(path))
    for name, (argtypes, restype) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    return lib


def _kernel():
    """The compiled library, with every entry of _SIGNATURES, built or
    loaded on first use from $XDG_CACHE_HOME/gwlab (default
    ~/.cache/gwlab); OSError where it is not there and cannot be built, the
    same one on every call."""
    lib = _built()
    if isinstance(lib, OSError):
        raise lib.with_traceback(None)
    return lib


@functools.cache
def _built():
    """_kernel's library, or the OSError that says why there is none: kept
    either way, so that a process runs the compiler at most once."""
    try:
        cache = Path(os.environ.get("XDG_CACHE_HOME")
                     or Path.home() / ".cache") / "gwlab"
    except RuntimeError:  # no home directory
        return OSError("no cache directory for gwlab's compiled library: "
                       "set XDG_CACHE_HOME")
    try:
        return _build(shutil.which("cc") or shutil.which("gcc"), cache)
    except OSError as err:
        return err


# per thread, the compiled loop's buffers, grown to the largest walk yet:
# fresh ones cost a page fault per touched page on every walk
_scratch = threading.local()


def _buffers(size: int):
    """This thread's flat table, visit steps, order and distances, sized
    for at least `size` flat entries, and the addresses of those four and
    of the two link arrays, taken when they were allocated (ndarray.ctypes
    costs about a microsecond a call).  A Trajectory holds copies, so
    between walks analysis._pack fills the first two with a run for the
    passes, and analysis.sweep_counts hands all six to gw_sweep as the
    scratch of a chunk's walks."""
    bufs = getattr(_scratch, "bufs", None)
    if bufs is None or len(bufs[0][0]) < size:
        links = np.empty((2, size), dtype=np.int64)
        arrays = (np.empty(size), np.empty(size, dtype=np.int64),
                  np.empty(size, dtype=np.int64), np.empty(size))
        bufs = _scratch.bufs = (arrays, links, tuple(
            a.ctypes.data for a in (*arrays, *links)))
    return bufs


def run_walk(real: Realization, *, rule: StopRule = StopRule()) -> Trajectory:
    """Greedy walk from the origin, in the compiled step loop gw_walk."""
    kernel = _kernel()
    inf = math.inf
    n0, n1 = len(real.line0), len(real.line1)
    size = n0 + n1 + 4
    (F, vis, order, dists), _, (pF, pvis, porder, pdists, pprv, pnxt) = (
        _buffers(size))
    F, vis = F[:size], vis[:size]
    F[0], F[n0 + 1:n0 + 3], F[-1] = -inf, (inf, -inf), inf
    F[1:n0 + 1], F[n0 + 3:-1] = real.line0, real.line1
    (lo0, hi0), (lo1, hi1) = real.windows
    spec = real.spec
    step = kernel.gw_walk(
        pF, n0, n1, _KINDS[spec.kind], spec.separation_r or 0.0,
        spec.cos_alpha if spec.kind == INTERSECTING else 0.0,
        lo0, hi0, lo1, hi1, rule.mode == TRUNCATION_SAFE,
        pprv, pnxt, pvis, porder, pdists)
    return _trajectory(F, order[:step], dists[:step], vis, n0)


def _trajectory(F, steps, dists, vis, n0: int) -> Trajectory:
    """A step loop's Trajectory from its flat table F, the flat index and
    distance of each step, and the visit step per flat index; a loop that
    took one step per point exhausted them (it steps inf only then)."""
    return Trajectory(
        us=F[steps],
        lines=(steps > n0 + 1).astype(np.int8),
        step_distances=dists.copy(),
        stop_reason=EXHAUSTED if len(steps) == len(F) - 4 else TRUNCATED,
        visited_step0=vis[1:n0 + 1].copy(),
        visited_step1=vis[n0 + 3:-1].copy(),
    )


def run_walk_naive(real: Realization, *,
                   rule: StopRule = StopRule()) -> Trajectory:
    """Reference engine, the oracle for run_walk: the rule itself.  Each
    step measures every point, a visited one as inf, and takes the first
    minimum; line 0 comes before line 1, each sorted, so that is the tie
    rule (the lower line, then the smaller u)."""
    spec, n0 = real.spec, len(real.line0)
    us_all = np.concatenate((real.line0, real.line1))
    vis = np.full(len(us_all), -1, dtype=np.int64)
    order, dists = [], []
    cu, cl = 0.0, 0
    while len(order) < len(us_all):
        d = np.abs(us_all - cu)
        other = slice(n0, None) if cl == 0 else slice(n0)
        if spec.kind != SINGLE_LINE:
            d[other] = cross_distance(spec, cu, us_all[other], np.sqrt)
        d[vis >= 0] = np.inf
        k = int(np.argmin(d))
        if rule.mode == TRUNCATION_SAFE and d[k] >= stop_margin(real, cu, cl):
            break
        order.append(k)
        dists.append(d[k])
        vis[k] = len(order)
        cu, cl = float(us_all[k]), int(k >= n0)
    steps = np.array(order, dtype=np.int64)
    return Trajectory(us_all[steps], (steps >= n0).astype(np.int8),
                      np.array(dists), EXHAUSTED if len(steps) == len(us_all)
                      else TRUNCATED, vis[:n0], vis[n0:])


def trajectories_equal(a: Trajectory, b: Trajectory) -> bool:
    """Exact step-for-step equality (positions, lines, distances, stop,
    and the visit step of every point)."""
    return a.stop_reason == b.stop_reason and all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in (
            "us", "lines", "step_distances", "visited_step0", "visited_step1"))


def trajectory_to_dicts(traj: Trajectory) -> list[dict]:
    """JSON-friendly per-step rows: {step, line, u, dist}."""
    return [{"step": i, "line": int(l), "u": float(u), "dist": float(d)}
            for i, (u, l, d) in enumerate(
                zip(traj.us, traj.lines, traj.step_distances), start=1)]


_BIN_MAGIC = b"GWTRAJ01"


def _write_in_place(path, parts, head: bytes = b"") -> None:
    """Write head and then the byte strings of parts to path.  A regular
    file is rewritten in place, without O_TRUNC (which on ext4 mounted with
    discard costs more than the write), and cut to the written length, on a
    failed write too; head goes last, over as many zero bytes, so a write
    that fails partway leaves zeros there.  A pipe or a device takes head
    and parts in order."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):
            for part in (head, *parts):
                fh.write(part)
            return
        try:
            fh.write(bytes(len(head)))
            for part in parts:
                fh.write(part)
            fh.flush()
        except BaseException:
            os.ftruncate(fh.fileno(), fh.raw.tell())
            raise
        if st.st_size > fh.tell():
            fh.truncate()
        fh.seek(0)
        fh.write(head)


def trajectory_to_binary(traj: Trajectory, path) -> None:
    """Columnar dump for large runs.

    Layout: 8-byte magic "GWTRAJ01", little-endian uint64 step count, then
    three little-endian float64 arrays of that length: u, line, distance.
    The magic is written last, so trajectory_from_binary refuses a dump
    whose write failed partway.
    """
    _write_in_place(path, (struct.pack("<Q", len(traj)),
                           *(a.astype("<f8") for a in
                             (traj.us, traj.lines, traj.step_distances))),
                    _BIN_MAGIC)


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
