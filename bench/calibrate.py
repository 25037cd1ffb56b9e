"""Host-speed calibration for the gwlab benchmark.

On a shared host the same pass can take 1.5x longer for minutes at a time,
in CPU time as well as wall time, because neighbours load the caches, memory
and cores this process runs on.  That slowdown moves every timing of a run
together.  `host_seconds` times a fixed piece of work that is the
benchmark's own (no gwlab code): a greedy nearest-point walk over two sorted
lines in plain Python, plus small numpy calls and float churn, the same mix
of work the gwlab walk and analysis do.  Timed right before and right after
each CLI call, it tells how fast the host ran during that call, and

    scaled seconds = seconds * REF_S / host seconds

gives the call's time on a host where the calibration takes REF_S.  Later
changes to gwlab cannot change the calibration, so scaled times compare two
versions of gwlab run at different moments on the same host.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# About the median calibration time on the 2-vCPU host the benchmark was defined on.
# It sets the scale of the reported numbers only, not their ratios.
REF_S = 0.025

_N = 5000
_rng = np.random.default_rng(20240601)
_LINE0 = np.sort(_rng.random(_N) * _N).tolist()
_LINE1 = np.sort(_rng.random(_N) * _N).tolist()
_TABLE = _rng.random(4096)


def _walk() -> float:
    """Greedy walk from the middle of line 0 to the nearest unvisited point
    of either line (lines one unit apart) until both are used up."""
    u, v, n = _LINE0, _LINE1, _N
    lo0, hi0 = n // 2 - 1, n // 2 + 1
    lo1, hi1 = n // 2 - 1, n // 2
    x = u[n // 2]
    steps = []
    total = 0.0
    while True:
        best = None
        if lo0 >= 0:
            best = (x - u[lo0], 0)
        if hi0 < n and (best is None or u[hi0] - x < best[0]):
            best = (u[hi0] - x, 1)
        if lo1 >= 0:
            d = ((x - v[lo1]) ** 2 + 1.0) ** 0.5
            if best is None or d < best[0]:
                best = (d, 2)
        if hi1 < n:
            d = ((v[hi1] - x) ** 2 + 1.0) ** 0.5
            if best is None or d < best[0]:
                best = (d, 3)
        if best is None:
            break
        d, side = best
        if side == 0:
            x = u[lo0]
            lo0 -= 1
        elif side == 1:
            x = u[hi0]
            hi0 += 1
        elif side == 2:
            x = v[lo1]
            lo1 -= 1
        else:
            x = v[hi1]
            hi1 += 1
        steps.append(d)
        total += d
        if len(steps) % 128 == 0:
            total += float(np.median(np.asarray(steps[-128:])))
    return total + float(np.cumsum(np.asarray(steps))[-1])


def _mix() -> float:
    a = _TABLE
    acc = 0.0
    seen = {}
    for i in range(20000):
        y = float(a[i & 4095]) * 1.5 + acc
        acc = y - int(y)
        seen[i & 1023] = acc
        if i % 64 == 0:
            acc += int(np.argmin(a[i & 4000:(i & 4000) + 64])) * 1e-9
    return acc + sum(seen.values())


def host_seconds() -> float:
    """Seconds the fixed calibration work takes now.

    The garbage collector is off while it runs, so the size of gwlab's live
    heap cannot change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _walk()
        _mix()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
