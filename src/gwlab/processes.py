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

A spec holds each run parameter once, checks it once, and is the geometry
the walk's metric reads.  A realization is its spec, seed and two per-line
abscissa arrays; everything else is derived: ``windows``, the per-line
intervals drawn, from the spec; ``base_points``, the sorted union of the
two arrays (the shadow of all points of the process); and, when thinned,
``duplicate_flags``, each base point's fate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .seeding import check_seed, make_generator

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

# The line kinds: the lines a construction draws on, and so the metric the
# walk measures with.
SINGLE_LINE = "single-line"
INTERSECTING = "intersecting"
PARALLEL = "parallel"

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


# The most points a draw may expect on one line (rate_lambda * 2 * window_L);
# beyond it generate refuses before drawing, since the sampler would ask
# for an array no host can hold.
MAX_EXPECTED_POINTS = 10**8

# The domain on which the engines agree.  The metric squares abscissa gaps
# and the separation; with window_L in [1/MAX_SCALE, MAX_SCALE] and
# separation_r and |shift_s| at most MAX_SCALE, no square of a gap at the
# window's scale overflows or underflows.  sqrt(du*du + r*r) rounds to r for
# |du| below about r * 1e-8, so with more than MAX_SEPARATION_POINTS points
# per separation (separation_r * rate_lambda) points across tie by rounding,
# and the full scan and the step loops' two neighbours break the tie apart.
MAX_SCALE = 1e150
MAX_SEPARATION_POINTS = 1e4
# The duplicated pair's bands u // separation_r up to window_L / separation_r
# are counted as integers; from 2**53 on, consecutive ones are one double.
MAX_BANDS = 2.0**53


@dataclass(frozen=True)
class ProcessSpec:
    """Everything needed to draw a realization, minus the seed; also the
    geometry the walk measures on (kind, cos_alpha).

    A parameter the construction does not read (CONSTRUCTION_PARAMS) must
    stay at its default.

    Args:
        construction: one of CONSTRUCTIONS.
        window_L: half-width of the drawn abscissa window, > 0.
        rate_lambda: Poisson intensity, > 0.
        alpha: angle between the lines in (0, pi); intersecting only.
        separation_r: distance between the lines, > 0; parallel only.
        thinning_p: removal probability p in [0, 1]; thinned only.
        shift_s: line-1 offset s; shifted only, 0 < |s| < r/sqrt(3)
            (or < r with allow_unproven_shift).
        allow_unproven_shift: widen the shift_s domain to 0 < |s| < r.
    """

    construction: str
    window_L: float
    rate_lambda: float = 1.0
    alpha: float | None = None
    separation_r: float | None = None
    thinning_p: float | None = None
    shift_s: float | None = None
    allow_unproven_shift: bool = False

    def __post_init__(self):
        if self.construction not in CONSTRUCTIONS:
            raise ValidationError(f"unknown construction: {self.construction!r}")
        reads = ("window_L", "rate_lambda",
                 *CONSTRUCTION_PARAMS[self.construction])
        unused = [f.name for f in fields(self)[1:] if f.name not in reads
                  and getattr(self, f.name) is not f.default]
        if unused:
            raise ValidationError(
                f"{self.construction} does not use {', '.join(unused)}")
        for name in SPEC_PARAMS[:-1]:  # the numbers: all but the flag
            check_finite(name, getattr(self, name))
        if not isinstance(self.allow_unproven_shift, bool):
            raise ValidationError("allow_unproven_shift must be true or false")
        if self.window_L is None or not self.window_L > 0:
            raise ValidationError("window_L must be positive")
        if self.rate_lambda is None or not self.rate_lambda > 0:
            raise ValidationError("rate_lambda must be positive")
        if not 1.0 / MAX_SCALE <= self.window_L <= MAX_SCALE:
            raise ValidationError(f"window_L must be in [{1.0 / MAX_SCALE:g}, "
                                  f"{MAX_SCALE:g}]")
        for name in ("separation_r", "shift_s"):
            if abs(getattr(self, name) or 0.0) > MAX_SCALE:
                raise ValidationError(f"|{name}| must be at most {MAX_SCALE:g}")
        if (self.separation_r or 0.0) * self.rate_lambda > MAX_SEPARATION_POINTS:
            raise ValidationError(
                "separation_r * rate_lambda must be at most "
                f"{MAX_SEPARATION_POINTS:g}: beyond it cross-line distances "
                "round into ties")
        if self.kind == INTERSECTING and not 0.0 < (self.alpha or 0.0) < math.pi:
            raise ValidationError("intersecting lines need alpha in (0, pi)")
        if self.kind == PARALLEL and not (self.separation_r or 0.0) > 0:
            raise ValidationError("parallel lines need separation_r > 0")
        if self.kind == PARALLEL and not (
                self.window_L / self.separation_r < MAX_BANDS):
            raise ValidationError(
                f"window_L / separation_r must be below {MAX_BANDS:g}: "
                "beyond it consecutive bands u // r are not distinct doubles")
        if self.construction == PARALLEL_THINNED:
            if self.thinning_p is None or not 0.0 <= self.thinning_p <= 1.0:
                raise ValidationError("parallel-thinned needs thinning_p in [0, 1]")
        if self.construction == PARALLEL_SHIFTED:
            r = self.separation_r
            limit = r if self.allow_unproven_shift else r * SHIFT_RATIO_LIMIT
            if self.shift_s is None or not 0.0 < abs(self.shift_s) < limit:
                raise ValidationError(
                    f"parallel-shifted needs 0 < |shift_s| < {limit:.6g}"
                    + ("" if self.allow_unproven_shift else " (= r/sqrt(3))")
                )

    @property
    def kind(self) -> str:
        """SINGLE_LINE, INTERSECTING or PARALLEL: the lines it draws on."""
        return _KIND_FOR[self.construction]

    @cached_property
    def cos_alpha(self) -> float:
        return math.cos(self.alpha)

    @classmethod
    def build(cls, construction: str, *, window_L: float,
              rate_lambda: float = 1.0, alpha: float | None = None,
              separation_r: float | None = None,
              thinning_p: float | None = None, shift_s: float | None = None,
              allow_unproven_shift: bool = False) -> "ProcessSpec":
        """The spec for `construction` from one full parameter set: the
        parameters it does not read (CONSTRUCTION_PARAMS) are dropped, so
        the CLI and tests may pass every one."""
        given = dict(alpha=alpha, separation_r=separation_r,
                     thinning_p=thinning_p, shift_s=shift_s,
                     allow_unproven_shift=allow_unproven_shift)
        return cls(construction, window_L, rate_lambda, **{
            k: given[k] for k in CONSTRUCTION_PARAMS.get(construction, ())})

    def to_dict(self) -> dict:
        return {
            "construction": self.construction,
            "space": {
                "kind": self.kind,
                "window_L": self.window_L,
                "alpha": self.alpha,
                "separation_r": self.separation_r,
            },
            "rate_lambda": self.rate_lambda,
            "thinning_p": self.thinning_p,
            "shift_s": self.shift_s,
            # always null: the gwlab-run/1 schema keeps the key, imports
            # reject any other value
            "rate_lambda_line1": None,
            "allow_unproven_shift": self.allow_unproven_shift,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProcessSpec":
        _require(d, ("construction", "space"), "spec",
                 ("rate_lambda", "thinning_p", "shift_s", "rate_lambda_line1",
                  "allow_unproven_shift"))
        sp = d["space"]
        _require(sp, ("kind", "window_L"), "spec.space",
                 ("alpha", "separation_r"))
        if d.get("rate_lambda_line1") is not None:
            raise ValidationError("rate_lambda_line1 must be null: both "
                                  "lines are drawn at rate_lambda")
        spec = cls(
            construction=d["construction"],
            window_L=sp["window_L"],
            rate_lambda=d.get("rate_lambda", 1.0),
            alpha=sp.get("alpha"),
            separation_r=sp.get("separation_r"),
            thinning_p=d.get("thinning_p"),
            shift_s=d.get("shift_s"),
            allow_unproven_shift=d.get("allow_unproven_shift", False),
        )
        if sp["kind"] != spec.kind:
            raise ValidationError(f"spec.space.kind {sp['kind']!r} does not "
                                  f"match construction {spec.construction}")
        return spec


# The parameters of a spec: its fields after the construction.
SPEC_PARAMS = tuple(f.name for f in fields(ProcessSpec)[1:])


def check_finite(name: str, value) -> None:
    """ValidationError naming the field unless value is None or a finite
    real number (a bool is not a number; an int beyond float range is not
    finite)."""
    if value is None:
        return
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValidationError(f"{name} must be finite")


def _require(d, keys: tuple[str, ...], what: str,
             optional: tuple[str, ...]) -> None:
    """Raise ValidationError unless d is a JSON object holding every key of
    keys and no key outside keys and optional (a typo, not an extension)."""
    if not isinstance(d, dict):
        raise ValidationError(f"{what} must be an object")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValidationError(f"{what} lacks {', '.join(missing)}")
    unknown = [k for k in d if k not in keys and k not in optional]
    if unknown:
        raise ValidationError(f"unknown {what} keys: {unknown}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def drawn_windows(spec: ProcessSpec, L: float | None = None) -> tuple[
        tuple[float, float], tuple[float, float]]:
    """The per-line intervals a draw of `spec` covers, at half-width L
    (default spec.window_L): (-L, L) on both lines, with line 1 moved by s
    when shifted."""
    L = spec.window_L if L is None else L
    if spec.construction != PARALLEL_SHIFTED:
        return (-L, L), (-L, L)
    s = spec.shift_s
    return (-L, L), (-L + s, L + s)


# check_invariants' rules, in its order, which gw_draw's statuses number
INVARIANTS = ("line0 not strictly increasing", "line1 not strictly increasing",
              "line0 points outside window", "line1 points outside window",
              "single line realization has line1 points",
              "duplicated lines differ", "line1 != line0 + shift_s")


@dataclass(frozen=True)
class Realization:
    """One drawn point configuration, checked on construction.

    line0/line1 are sorted abscissa arrays (line1 empty for a single line).
    windows, base_points and duplicate_flags are derived.
    """

    spec: ProcessSpec
    seed: int
    line0: np.ndarray
    line1: np.ndarray
    provenance: str = "generated"

    def __post_init__(self):
        object.__setattr__(self, "line0", _frozen(self.line0))
        object.__setattr__(self, "line1", _frozen(self.line1))
        self.check_invariants()

    @property
    def windows(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """The per-line drawn intervals, drawn_windows(spec)."""
        return drawn_windows(self.spec)

    @cached_property
    def base_points(self) -> np.ndarray:
        """The sorted union of line0 and line1: the shadow process.  A
        duplicated pair's lines are equal (check_invariants), so it is
        line0; generate hands a thinned draw's base to this cache."""
        if self.spec.construction == PARALLEL_DUPLICATED:
            return self.line0
        return _frozen(np.union1d(self.line0, self.line1))

    @cached_property
    def duplicate_flags(self) -> tuple[str, ...] | None:
        """Thinned only: each base point's fate (FLAG_BOTH, FLAG_LINE0 or
        FLAG_LINER), aligned with base_points; None otherwise."""
        if self.spec.construction != PARALLEL_THINNED:
            return None
        on0 = np.isin(self.base_points, self.line0)
        on1 = np.isin(self.base_points, self.line1)
        return tuple(np.where(on0 & on1, FLAG_BOTH,
                              np.where(on0, FLAG_LINE0, FLAG_LINER)).tolist())

    @property
    def n_points(self) -> int:
        return len(self.line0) + len(self.line1)

    def check_invariants(self) -> None:
        """Raise ValidationError naming the first rule of INVARIANTS the
        realization breaks."""
        (lo0, hi0), (lo1, hi1) = self.windows
        line0, line1, c = self.line0, self.line1, self.spec.construction
        broken = (
            not (line0[1:] > line0[:-1]).all(),
            not (line1[1:] > line1[:-1]).all(),
            len(line0) and not (lo0 <= line0[0] and line0[-1] <= hi0),
            len(line1) and not (lo1 <= line1[0] and line1[-1] <= hi1),
            c == SINGLE_POISSON and len(line1),
            c == PARALLEL_DUPLICATED and not np.array_equal(line0, line1),
            c == PARALLEL_SHIFTED and not np.array_equal(
                line0 + self.spec.shift_s, line1))
        for rule, bad in zip(INVARIANTS, broken):
            if bad:
                raise ValidationError(rule)


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
    pts = rng.uniform(lo, hi, size=n)
    pts.sort()
    if (pts[1:] == pts[:-1]).any():
        pts = np.unique(pts)
    return pts


def check_point_cap(spec: ProcessSpec) -> None:
    """ValidationError for a draw that expects over MAX_EXPECTED_POINTS."""
    expected = spec.rate_lambda * 2 * spec.window_L
    if not expected <= MAX_EXPECTED_POINTS:
        raise ValidationError(f"a draw would expect {expected:g} points per "
                              f"line, above the cap of {MAX_EXPECTED_POINTS:g}")


def generate(spec: ProcessSpec, seed: int) -> Realization:
    """Draw the realization for (spec, seed); bit-stable for a fixed seed."""
    check_point_cap(spec)
    rng = make_generator(seed)
    win = drawn_windows(spec)[0]
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
    else:  # PARALLEL_SHIFTED
        line0 = sample_poisson(spec.rate_lambda, win, rng)
        line1 = line0 + spec.shift_s
    real = Realization(spec=spec, seed=seed, line0=line0, line1=line1)
    if c == PARALLEL_THINNED:
        # every base point lands on a line, so base is the union of both
        real.__dict__["base_points"] = _frozen(base)
    return real


def realization_to_dict(real: Realization) -> dict:
    """The gwlab-run/1 form.  base_points, flags and windows are derived
    and written for compatibility; import checks them."""
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


def _finite_list(v, what: str) -> np.ndarray:
    """v as a float64 array; ValidationError unless it is a flat list of
    finite numbers."""
    if not isinstance(v, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
        raise ValidationError(f"{what} must be a list of numbers")
    try:
        a = np.asarray(v, dtype=np.float64)
    except OverflowError:  # an int beyond float range
        raise ValidationError(f"{what} holds a non-finite number") from None
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} holds a non-finite number")
    return a


def realization_from_dict(d: dict) -> Realization:
    """Inverse of realization_to_dict; raises ValidationError on any
    structural violation or unknown key, so an imported run walks like a
    generated one.  base_points, flags and windows, when present, must
    equal the values derived from spec, line0 and line1."""
    _require(d, ("spec", "seed", "line0", "line1"), "run",
             ("base_points", "flags", "windows", "provenance"))
    seed, provenance = d["seed"], d.get("provenance", "imported")
    check_seed("seed", seed)
    if not isinstance(provenance, str):
        raise ValidationError("provenance must be a string")
    real = Realization(
        spec=ProcessSpec.from_dict(d["spec"]),
        seed=seed,
        line0=_finite_list(d["line0"], "line0"),
        line1=_finite_list(d["line1"], "line1"),
        provenance=provenance,
    )
    derived = realization_to_dict(real)
    for key in ("base_points", "flags", "windows"):
        if key in d and d[key] != derived[key]:
            raise ValidationError(f"{key} disagrees with its value derived "
                                  "from spec, line0 and line1")
    return real
