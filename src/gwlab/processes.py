"""Seeded construction of the point processes the walk runs on.

Five constructions are supported:

* ``single-line``: one homogeneous Poisson process on a line.
* ``intersecting``: two independent Poisson processes, one per line of an
  intersecting pair, in arc-length coordinates.
* ``parallel-duplicated``: one Poisson process copied verbatim onto both
  lines of a parallel pair.
* ``parallel-thinned``: one Poisson base process; each point is kept on both
  lines with probability 1-p, otherwise assigned to exactly one line chosen
  with probability 1/2 each.
* ``parallel-shifted``: one Poisson process on line 0 and the same points
  shifted by s on line 1.

A realization also records per-line windows so that transformed or
restricted realizations keep exact bookkeeping of which regions were drawn.
``base_points`` is the sorted set union of the two per-line abscissa arrays:
the shadow of all points of the process.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .geometry import INTERSECTING, PARALLEL, SINGLE_LINE, Site, Space
from .seeding import make_generator

SINGLE_POISSON = "single-line"
INTERSECTING_INDEPENDENT = "intersecting"
PARALLEL_DUPLICATED = "parallel-duplicated"
PARALLEL_THINNED = "parallel-thinned"
PARALLEL_SHIFTED = "parallel-shifted"

CONSTRUCTIONS = (
    SINGLE_POISSON,
    INTERSECTING_INDEPENDENT,
    PARALLEL_DUPLICATED,
    PARALLEL_THINNED,
    PARALLEL_SHIFTED,
)

PARALLEL_CONSTRUCTIONS = (PARALLEL_DUPLICATED, PARALLEL_THINNED, PARALLEL_SHIFTED)

FLAG_BOTH = "both"
FLAG_LINE0 = "line0"
FLAG_LINER = "lineR"

# Proven shift regime: 0 < |s| < separation_r / sqrt(3).  The wider regime
# |s| < separation_r can be explored behind allow_unproven_shift.
SHIFT_RATIO_LIMIT = 1.0 / math.sqrt(3.0)

_KIND_FOR = {
    SINGLE_POISSON: SINGLE_LINE,
    INTERSECTING_INDEPENDENT: INTERSECTING,
    PARALLEL_DUPLICATED: PARALLEL,
    PARALLEL_THINNED: PARALLEL,
    PARALLEL_SHIFTED: PARALLEL,
}

# The parameters each construction reads besides window_L and rate_lambda.
CONSTRUCTION_PARAMS = {
    SINGLE_POISSON: (),
    INTERSECTING_INDEPENDENT: ("alpha",),
    PARALLEL_DUPLICATED: ("separation_r",),
    PARALLEL_THINNED: ("separation_r", "thinning_p"),
    PARALLEL_SHIFTED: ("separation_r", "shift_s", "allow_unproven_shift"),
}


@dataclass(frozen=True)
class ProcessSpec:
    """Everything needed to draw a realization, minus the seed.

    Args:
        construction: one of CONSTRUCTIONS.
        space: the geometry; its kind must match the construction.
        rate_lambda: Poisson intensity, > 0.
        thinning_p: removal probability p in [0, 1]; thinned only.
        shift_s: line-1 offset s; shifted only, 0 < |s| < r/sqrt(3)
            (or < r with allow_unproven_shift).
        allow_unproven_shift: widen the shift_s domain to 0 < |s| < r.
    """

    construction: str
    space: Space
    rate_lambda: float = 1.0
    thinning_p: float | None = None
    shift_s: float | None = None
    allow_unproven_shift: bool = False

    def __post_init__(self):
        if self.construction not in CONSTRUCTIONS:
            raise ValidationError(f"unknown construction: {self.construction!r}")
        if _KIND_FOR[self.construction] != self.space.kind:
            raise ValidationError(
                f"construction {self.construction!r} needs a "
                f"{_KIND_FOR[self.construction]!r} space, got {self.space.kind!r}"
            )
        for name in ("rate_lambda", "thinning_p", "shift_s"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite")
        if not self.rate_lambda > 0:
            raise ValidationError("rate_lambda must be positive")
        if self.construction == PARALLEL_THINNED:
            if self.thinning_p is None or not 0.0 <= self.thinning_p <= 1.0:
                raise ValidationError("parallel-thinned needs thinning_p in [0, 1]")
        elif self.thinning_p is not None:
            raise ValidationError("thinning_p only applies to parallel-thinned")
        if self.construction == PARALLEL_SHIFTED:
            r = self.space.separation_r
            limit = r if self.allow_unproven_shift else r * SHIFT_RATIO_LIMIT
            if self.shift_s is None or not 0.0 < abs(self.shift_s) < limit:
                raise ValidationError(
                    f"parallel-shifted needs 0 < |shift_s| < {limit:.6g}"
                    + ("" if self.allow_unproven_shift else " (= r/sqrt(3))")
                )
        elif self.shift_s is not None:
            raise ValidationError("shift_s only applies to parallel-shifted")

    @classmethod
    def build(cls, construction: str, *, window_L: float,
              rate_lambda: float = 1.0, alpha: float | None = None,
              separation_r: float | None = None,
              thinning_p: float | None = None, shift_s: float | None = None,
              allow_unproven_shift: bool = False) -> "ProcessSpec":
        """The validated spec for `construction`.

        Only the parameters the construction reads (CONSTRUCTION_PARAMS) are
        used; the others are ignored, so a caller may pass one full set.
        """
        if construction not in CONSTRUCTIONS:
            raise ValidationError(f"unknown construction: {construction!r}")
        given = dict(alpha=alpha, separation_r=separation_r,
                     thinning_p=thinning_p, shift_s=shift_s,
                     allow_unproven_shift=allow_unproven_shift)
        used = {k: given[k] for k in CONSTRUCTION_PARAMS[construction]}
        space = Space(_KIND_FOR[construction], window_L,
                      alpha=used.pop("alpha", None),
                      separation_r=used.pop("separation_r", None))
        return cls(construction=construction, space=space,
                   rate_lambda=rate_lambda, **used)

    def to_dict(self) -> dict:
        return {
            "construction": self.construction,
            "space": {
                "kind": self.space.kind,
                "window_L": self.space.window_L,
                "alpha": self.space.alpha,
                "separation_r": self.space.separation_r,
            },
            "rate_lambda": self.rate_lambda,
            "thinning_p": self.thinning_p,
            "shift_s": self.shift_s,
            # always null: the gwlab-run/1 schema keeps the key, imports
            # ignore it
            "rate_lambda_line1": None,
            "allow_unproven_shift": self.allow_unproven_shift,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProcessSpec":
        sp = d["space"]
        return cls(
            construction=d["construction"],
            space=Space(
                kind=sp["kind"],
                window_L=sp["window_L"],
                alpha=sp.get("alpha"),
                separation_r=sp.get("separation_r"),
            ),
            rate_lambda=d.get("rate_lambda", 1.0),
            thinning_p=d.get("thinning_p"),
            shift_s=d.get("shift_s"),
            allow_unproven_shift=d.get("allow_unproven_shift", False),
        )


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Realization:
    """One drawn point configuration.

    line0/line1 are sorted abscissa arrays (line1 empty for a single line).
    base_points is the sorted union of the two (the shadow process).
    duplicate_flags, thinned only, records each base point's fate and is
    aligned with base_points.  windows holds the per-line drawn intervals;
    they differ from (-L, L) only for the shifted line 1 and after
    transformations.
    """

    spec: ProcessSpec
    seed: int
    line0: np.ndarray
    line1: np.ndarray
    base_points: np.ndarray
    duplicate_flags: tuple[str, ...] | None = None
    windows: tuple[tuple[float, float], tuple[float, float]] | None = None
    provenance: str = "generated"

    def __post_init__(self):
        object.__setattr__(self, "line0", _frozen(self.line0))
        object.__setattr__(self, "line1", _frozen(self.line1))
        object.__setattr__(self, "base_points", _frozen(self.base_points))
        if self.windows is None:
            L = self.spec.space.window_L
            w0 = (-L, L)
            w1 = (-L, L)
            if self.spec.construction == PARALLEL_SHIFTED:
                s = self.spec.shift_s
                w1 = (-L + s, L + s)
            object.__setattr__(self, "windows", (w0, w1))

    @property
    def n_points(self) -> int:
        return len(self.line0) + len(self.line1)

    def points_on(self, line: int) -> np.ndarray:
        return self.line0 if line == 0 else self.line1

    def check_invariants(self) -> None:
        """Raise ValidationError on any structural violation."""
        for arr, name in ((self.line0, "line0"), (self.line1, "line1"),
                          (self.base_points, "base_points")):
            if len(arr) > 1 and not np.all(np.diff(arr) > 0):
                raise ValidationError(f"{name} not strictly increasing")
        (lo0, hi0), (lo1, hi1) = self.windows
        if len(self.line0) and not (lo0 <= self.line0[0] and self.line0[-1] <= hi0):
            raise ValidationError("line0 points outside window")
        if len(self.line1) and not (lo1 <= self.line1[0] and self.line1[-1] <= hi1):
            raise ValidationError("line1 points outside window")
        union = np.union1d(self.line0, self.line1)
        if not np.array_equal(union, self.base_points):
            raise ValidationError("base_points != union of per-line points")
        c = self.spec.construction
        if c == SINGLE_POISSON and len(self.line1):
            raise ValidationError("single line realization has line1 points")
        if c == PARALLEL_DUPLICATED and not np.array_equal(self.line0, self.line1):
            raise ValidationError("duplicated lines differ")
        if c == PARALLEL_SHIFTED:
            if len(self.line0) != len(self.line1) or not np.array_equal(
                self.line0 + self.spec.shift_s, self.line1
            ):
                raise ValidationError("line1 != line0 + shift_s")
        if c == PARALLEL_THINNED:
            if self.duplicate_flags is None or len(self.duplicate_flags) != len(
                self.base_points
            ):
                raise ValidationError("thinned realization needs aligned flags")
            n_both = sum(1 for f in self.duplicate_flags if f == FLAG_BOTH)
            if len(self.line0) + len(self.line1) != len(self.base_points) + n_both:
                raise ValidationError("per-line counts inconsistent with flags")
            i0 = [i for i, f in enumerate(self.duplicate_flags) if f != FLAG_LINER]
            i1 = [i for i, f in enumerate(self.duplicate_flags) if f != FLAG_LINE0]
            if not np.array_equal(self.base_points[i0], self.line0) or not np.array_equal(
                self.base_points[i1], self.line1
            ):
                raise ValidationError("flags do not reproduce per-line arrays")


def sample_poisson(rate: float, window: tuple[float, float],
                   rng: np.random.Generator) -> np.ndarray:
    """Sorted abscissas of a homogeneous Poisson process on `window`.

    Count ~ Poisson(rate * |window|), positions i.i.d. uniform.  Exact
    duplicate positions (probability zero) are dropped to keep the
    realization simple.
    """
    lo, hi = window
    if hi < lo:
        raise ValidationError("window must satisfy lo <= hi")
    if rate < 0:
        raise ValidationError("rate must be non-negative")
    n = int(rng.poisson(rate * (hi - lo)))
    return np.unique(rng.uniform(lo, hi, size=n))


def generate(spec: ProcessSpec, seed: int) -> Realization:
    """Draw the realization for (spec, seed); bit-stable for a fixed seed."""
    rng = make_generator(seed)
    L = spec.space.window_L
    win = (-L, L)
    flags: tuple[str, ...] | None = None
    c = spec.construction
    if c == SINGLE_POISSON:
        line0 = sample_poisson(spec.rate_lambda, win, rng)
        line1 = np.empty(0)
    elif c == INTERSECTING_INDEPENDENT:
        line0 = sample_poisson(spec.rate_lambda, win, rng)
        line1 = sample_poisson(spec.rate_lambda, win, rng)
    elif c == PARALLEL_DUPLICATED:
        base = sample_poisson(spec.rate_lambda, win, rng)
        line0 = base
        line1 = base.copy()
    elif c == PARALLEL_THINNED:
        base = sample_poisson(spec.rate_lambda, win, rng)
        n = len(base)
        keep_both = rng.random(n) < (1.0 - spec.thinning_p)
        to_line0 = rng.random(n) < 0.5
        line0 = base[keep_both | to_line0]
        line1 = base[keep_both | ~to_line0]
        flags = tuple(
            FLAG_BOTH if b else (FLAG_LINE0 if z else FLAG_LINER)
            for b, z in zip(keep_both, to_line0)
        )
    else:  # PARALLEL_SHIFTED
        line0 = sample_poisson(spec.rate_lambda, win, rng)
        line1 = line0 + spec.shift_s
    real = Realization(
        spec=spec,
        seed=seed,
        line0=line0,
        line1=line1,
        base_points=np.union1d(line0, line1),
        duplicate_flags=flags,
    )
    real.check_invariants()
    return real


def _swap_flags(flags: tuple[str, ...] | None) -> tuple[str, ...] | None:
    if flags is None:
        return None
    swap = {FLAG_LINE0: FLAG_LINER, FLAG_LINER: FLAG_LINE0, FLAG_BOTH: FLAG_BOTH}
    return tuple(swap[f] for f in flags)


def shift_realization(real: Realization, at: Site) -> Realization:
    """Recenter the realization at `at`: subtract its abscissa from every
    point, and when `at` is on line 1 also swap the two lines.

    This is the move-to-the-current-point operator: the walk seen from the
    visited site.  Not defined for intersecting lines (their origin is the
    intersection and cannot move).
    """
    if real.spec.space.kind == INTERSECTING:
        raise ValidationError("cannot recenter an intersecting-lines realization")
    if at.line not in (0, 1):
        raise ValidationError("site line must be 0 or 1")
    if at.line == 1 and real.spec.space.kind == SINGLE_LINE:
        raise ValidationError("single line has no line 1")
    x = at.u
    a0 = real.line0 - x
    a1 = real.line1 - x
    (lo0, hi0), (lo1, hi1) = real.windows
    w0 = (lo0 - x, hi0 - x)
    w1 = (lo1 - x, hi1 - x)
    spec = real.spec
    flags = real.duplicate_flags
    if at.line == 1:
        a0, a1 = a1, a0
        w0, w1 = w1, w0
        flags = _swap_flags(flags)
        if spec.construction == PARALLEL_SHIFTED:
            spec = replace(spec, shift_s=-spec.shift_s)
    if spec.construction == PARALLEL_SHIFTED:
        # derive line 1 from line 0 so the identity line1 == line0 + s stays
        # bit-exact; subtracting x from each line independently drifts by ulps
        s = spec.shift_s
        a1 = a0 + s
        w1 = (w0[0] + s, w0[1] + s)
    return Realization(
        spec=spec,
        seed=real.seed,
        line0=a0,
        line1=a1,
        base_points=np.union1d(a0, a1),
        duplicate_flags=flags,
        windows=(w0, w1),
        provenance=f"{real.provenance}; recentered at ({at.u!r}, line {at.line})",
    )


def mirror_realization(real: Realization) -> Realization:
    """Reflect the realization through the vertical axis u -> -u."""
    if real.spec.space.kind == INTERSECTING:
        raise ValidationError("cannot mirror an intersecting-lines realization")
    a0 = np.sort(-real.line0)
    a1 = np.sort(-real.line1)
    (lo0, hi0), (lo1, hi1) = real.windows
    spec = real.spec
    if spec.construction == PARALLEL_SHIFTED:
        spec = replace(spec, shift_s=-spec.shift_s)
    flags = real.duplicate_flags
    if flags is not None:
        flags = tuple(reversed(flags))
    return Realization(
        spec=spec,
        seed=real.seed,
        line0=a0,
        line1=a1,
        base_points=np.union1d(a0, a1),
        duplicate_flags=flags,
        windows=((-hi0, -lo0), (-hi1, -lo1)),
        provenance=f"{real.provenance}; mirrored",
    )


def realization_to_dict(real: Realization) -> dict:
    return {
        "spec": real.spec.to_dict(),
        "seed": real.seed,
        "base_points": real.base_points.tolist(),
        "line0": real.line0.tolist(),
        "line1": real.line1.tolist(),
        "flags": list(real.duplicate_flags) if real.duplicate_flags else None,
        "windows": [list(real.windows[0]), list(real.windows[1])],
        "provenance": real.provenance,
    }


def realization_from_dict(d: dict) -> Realization:
    """Inverse of realization_to_dict; raises ValidationError on any
    structural violation, so an imported run walks like a generated one."""
    flags = d.get("flags")
    windows = d.get("windows")
    real = Realization(
        spec=ProcessSpec.from_dict(d["spec"]),
        seed=d["seed"],
        line0=np.asarray(d["line0"], dtype=np.float64),
        line1=np.asarray(d["line1"], dtype=np.float64),
        base_points=np.asarray(d["base_points"], dtype=np.float64),
        duplicate_flags=tuple(flags) if flags else None,
        windows=(tuple(windows[0]), tuple(windows[1])) if windows else None,
        provenance=d.get("provenance", "imported"),
    )
    real.check_invariants()
    return real


def realization_to_json(real: Realization) -> str:
    return json.dumps(realization_to_dict(real), sort_keys=True)


def realization_from_json(s: str) -> Realization:
    return realization_from_dict(json.loads(s))
