"""Batch drivers: seeded run sweeps, coupled-window studies, and exports.

Determinism contract: for a fixed config, the CSV and the report are byte
identical across repeat invocations and across worker counts (runs are
independently seeded by index and re-sorted after a parallel map).  The
manifest carries a wall-clock timestamp and is exempt from that contract.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from functools import partial

import numpy as np

from ._version import __version__
from .analysis import (
    audit_lemmas,
    detect_A_events,
    detect_crossings,
    extract_halfline_changes,
)
from .errors import ValidationError
from .processes import (
    BUILD_PARAMS,
    CONSTRUCTION_PARAMS,
    CONSTRUCTIONS,
    INTERSECTING_INDEPENDENT,
    PARALLEL_CONSTRUCTIONS,
    ProcessSpec,
    couple_restrict,
    generate,
)
from .seeding import RNG_ALGORITHM, stream_seed
from .walk import run_walk

@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: n_runs independent realizations of a single spec.

    The construction parameters (alpha, separation_r, thinning_p, shift_s,
    allow_unproven_shift) must be left at their defaults unless the
    construction reads them.  audit toggles the per-run replay/pair audits
    (auto-skipped for intersecting lines); detect_events toggles
    return-event detection (parallel constructions only).  workers > 1 runs
    the sweep in a process pool.
    """

    name: str
    construction: str
    n_runs: int
    base_seed: int
    rate_lambda: float = 1.0
    window_L: float = 50.0
    separation_r: float | None = None
    alpha: float | None = None
    thinning_p: float | None = None
    shift_s: float | None = None
    allow_unproven_shift: bool = False
    audit: bool = True
    detect_events: bool = True
    workers: int = 1

    def __post_init__(self):
        if self.construction not in CONSTRUCTIONS:
            raise ValidationError(f"unknown construction: {self.construction!r}")
        if self.n_runs < 1:
            raise ValidationError("n_runs must be >= 1")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        used = CONSTRUCTION_PARAMS[self.construction]
        unused = [f.name for f in dataclasses.fields(self)
                  if f.name in _CONSTRUCTION_FIELDS and f.name not in used
                  and getattr(self, f.name) is not f.default]
        if unused:
            raise ValidationError(
                f"{self.construction} does not use {', '.join(unused)}")

    def to_spec(self) -> ProcessSpec:
        return ProcessSpec.build(
            self.construction, **{k: getattr(self, k) for k in BUILD_PARAMS})


_CONSTRUCTION_FIELDS = {name for names in CONSTRUCTION_PARAMS.values()
                        for name in names}


# JSON types per ExperimentConfig annotation; load_config rejects bools as numbers
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


def load_config(path) -> ExperimentConfig:
    """Strict JSON loader: unknown keys are config bugs, not extensions,
    and every value must have its field's type."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except (OSError, ValueError) as e:
        raise ValidationError(f"cannot read config {path}: {e}") from None
    if not isinstance(d, dict):
        raise ValidationError("config must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(d) - set(fields))
    if unknown:
        raise ValidationError(f"unknown config keys: {unknown}")
    for name, f in fields.items():
        value = d.get(name, f.default)
        if value is dataclasses.MISSING:
            raise ValidationError(f"missing config key {name!r}")
        kind, _, optional = f.type.partition(" | ")
        if not (value is None and optional) and (
                not isinstance(value, _JSON_TYPES[kind])
                or isinstance(value, bool) and kind != "bool"):
            raise ValidationError(
                f"config key {name!r} must be {f.type}, got {value!r}")
    return ExperimentConfig(**d)


@dataclass(frozen=True)
class RunSummary:
    run_index: int
    seed: int
    construction: str
    rate_lambda: float
    separation_r: float | None
    shift_s: float | None
    thinning_p: float | None
    alpha: float | None
    window_L: float
    n_points: int
    n_steps: int
    stop_reason: str
    crossings: int
    halfline_changes: int
    a_events: int | None
    lemma_failures: int | None


# the sweep CSV has one column per RunSummary field, in field order, named
# after the field except for these
_CSV_RENAMED = {"rate_lambda": "lambda", "separation_r": "r", "shift_s": "s",
                "thinning_p": "p", "window_L": "L"}
_CSV_FIELDS = dataclasses.fields(RunSummary)
CSV_COLUMNS = tuple(_CSV_RENAMED.get(f.name, f.name) for f in _CSV_FIELDS)
# cell parsers per RunSummary annotation; an empty cell is None where allowed
_CSV_TYPES = {"int": int, "float": float, "str": str}


def summarize_run(cfg: ExperimentConfig, run_index: int, real, traj) -> RunSummary:
    spec = real.spec
    a_events = None
    if cfg.detect_events and spec.construction in PARALLEL_CONSTRUCTIONS:
        a_events = sum(
            1 for rec in detect_A_events(real, traj) if rec.occurred is True
        )
    failures = None
    if cfg.audit and spec.construction != INTERSECTING_INDEPENDENT:
        failures = audit_lemmas(real, traj).n_violations
    return RunSummary(
        run_index=run_index,
        seed=real.seed,
        construction=spec.construction,
        rate_lambda=spec.rate_lambda,
        separation_r=spec.space.separation_r,
        shift_s=spec.shift_s,
        thinning_p=spec.thinning_p,
        alpha=spec.space.alpha,
        window_L=spec.space.window_L,
        n_points=real.n_points,
        n_steps=len(traj),
        stop_reason=traj.stop_reason,
        crossings=detect_crossings(traj),
        halfline_changes=len(extract_halfline_changes(traj)),
        a_events=a_events,
        lemma_failures=failures,
    )


def _run_one(cfg: ExperimentConfig, run_index: int) -> RunSummary:
    seed = stream_seed(cfg.base_seed, run_index)
    real = generate(cfg.to_spec(), seed)
    traj = run_walk(real)
    return summarize_run(cfg, run_index, real, traj)


def run_experiment(cfg: ExperimentConfig) -> list[RunSummary]:
    cfg.to_spec()  # fail on domain errors before any work starts
    if cfg.workers == 1:
        return [_run_one(cfg, i) for i in range(cfg.n_runs)]
    chunk = max(1, cfg.n_runs // (8 * cfg.workers))
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        rows = list(pool.map(partial(_run_one, cfg), range(cfg.n_runs),
                             chunksize=chunk))
    rows.sort(key=lambda r: r.run_index)
    return rows


def coupled_window_study(cfg: ExperimentConfig,
                         window_Ls) -> dict[float, list[RunSummary]]:
    """Per seed, one realization drawn at the largest window and replayed
    at every requested window via exact restriction, so rows at different
    windows are coupled run-for-run."""
    Ls = sorted(float(L) for L in window_Ls)
    if not Ls:
        raise ValidationError("need at least one window half-width")
    if Ls[0] <= 0:
        raise ValidationError("window half-widths must be positive")
    cfg_max = dataclasses.replace(cfg, window_L=Ls[-1])
    spec = cfg_max.to_spec()
    results: dict[float, list[RunSummary]] = {L: [] for L in Ls}
    for i in range(cfg.n_runs):
        seed = stream_seed(cfg.base_seed, i)
        real = generate(spec, seed)
        for L in Ls:
            restricted = couple_restrict(real, L)
            traj = run_walk(restricted)
            results[L].append(summarize_run(cfg_max, i, restricted, traj))
    return results


# ---------------------------------------------------------------------------
# aggregation


def _quantiles(values) -> dict[str, float]:
    a = np.asarray(values, dtype=np.float64)
    if len(a) == 0:
        return {}
    qs = np.quantile(a, [0.0, 0.25, 0.5, 0.75, 1.0])
    return {
        "min": float(qs[0]), "q25": float(qs[1]), "median": float(qs[2]),
        "q75": float(qs[3]), "max": float(qs[4]),
    }


def mean_and_se(values) -> tuple[float, float]:
    a = np.asarray(values, dtype=np.float64)
    if len(a) == 0:
        return math.nan, math.nan
    if len(a) == 1:
        return float(a[0]), math.nan
    return float(a.mean()), float(a.std(ddof=1) / math.sqrt(len(a)))


def sign_test_p(diffs) -> float:
    """One-sided exact sign test for median(diff) > 0; ties dropped."""
    pos = sum(1 for d in diffs if d > 0)
    neg = sum(1 for d in diffs if d < 0)
    k = pos + neg
    if k == 0:
        return 1.0
    # integer tail over Fraction: 2.0**k overflows float64 past k ~ 1000
    tail = sum(math.comb(k, i) for i in range(pos, k + 1))
    return float(Fraction(tail, 1 << k))


def aggregate(rows: list[RunSummary]) -> dict:
    crossings = [r.crossings for r in rows]
    steps = [r.n_steps for r in rows]
    mean_c, se_c = mean_and_se(crossings)
    reasons: dict[str, int] = {}
    for r in rows:
        reasons[r.stop_reason] = reasons.get(r.stop_reason, 0) + 1
    a_total = sum(r.a_events for r in rows if r.a_events is not None)
    audited = [r for r in rows if r.lemma_failures is not None]
    out = {
        "n_runs": len(rows),
        "crossings": {"mean": mean_c, "se": se_c, **_quantiles(crossings)},
        "n_steps": _quantiles(steps),
        "stop_reasons": dict(sorted(reasons.items())),
        "a_events_total": a_total,
        "audited_runs": len(audited),
        "lemma_failures_total": sum(r.lemma_failures for r in audited),
    }
    windows = sorted({r.window_L for r in rows})
    if len(windows) > 1:
        out["by_window"] = {
            str(L): {
                "n_runs": sum(1 for r in rows if r.window_L == L),
                "crossings_mean": mean_and_se(
                    [r.crossings for r in rows if r.window_L == L]
                )[0],
            }
            for L in windows
        }
    return out


# ---------------------------------------------------------------------------
# persistence


def write_summaries_csv(rows: list[RunSummary], path) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in rows:
        w.writerow(["" if v is None else v
                    for v in (getattr(r, f.name) for f in _CSV_FIELDS)])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def _csv_cell(f: dataclasses.Field, cell: str):
    kind, _, optional = f.type.partition(" | ")
    return None if optional and cell == "" else _CSV_TYPES[kind](cell)


def read_summaries_csv(path) -> list[RunSummary]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_COLUMNS:
            raise ValidationError(f"unexpected CSV header: {header}")
        return [RunSummary(*(_csv_cell(f, c) for f, c in zip(_CSV_FIELDS, row)))
                for row in reader]


def write_outputs(cfg: ExperimentConfig, rows: list[RunSummary],
                  out_dir) -> dict[str, str]:
    """Write <name>.csv, <name>.report.json, <name>.manifest.json.

    CSV and report are deterministic; the manifest records provenance
    including a real timestamp."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "csv": os.path.join(out_dir, f"{cfg.name}.csv"),
        "report": os.path.join(out_dir, f"{cfg.name}.report.json"),
        "manifest": os.path.join(out_dir, f"{cfg.name}.manifest.json"),
    }
    write_summaries_csv(rows, paths["csv"])
    with open(paths["report"], "w", encoding="utf-8") as fh:
        json.dump(aggregate(rows), fh, sort_keys=True, indent=2)
        fh.write("\n")
    manifest = {
        "config": dataclasses.asdict(cfg),
        "rng_algorithm": RNG_ALGORITHM,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [os.path.basename(paths["csv"]),
                    os.path.basename(paths["report"])],
    }
    with open(paths["manifest"], "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return paths
