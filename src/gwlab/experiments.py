"""Batch drivers: seeded run sweeps, coupled-window studies, and exports.

Determinism contract: for a fixed config, the CSV and the report are byte
identical across repeat invocations and across worker counts (runs are
independently seeded by index, and a pool maps them in order).  The
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
from .analysis import summary_counts
from .errors import ValidationError
from .processes import (
    CONSTRUCTIONS,
    SPEC_PARAMS,
    ProcessSpec,
    couple_restrict,
    generate,
)
from .seeding import RNG_ALGORITHM, check_seed, stream_seed
from .walk import run_walk

@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: n_runs independent realizations of a single spec.

    name is the stem of the output files: not empty, "." or "..", and
    without a path separator.  The spec parameters follow the spec's rule,
    checked by to_spec: one the construction does not read stays at its
    default.  audit toggles the per-run replay/pair audits (auto-skipped
    for intersecting lines); detect_events toggles return-event detection
    (parallel constructions only).  workers > 1 runs a sweep or a coupled
    study in a process pool, capped at n_runs and the core count.
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
        if self.name in ("", ".", "..") or "\0" in self.name or any(
                sep and sep in self.name for sep in (os.sep, os.altsep)):
            raise ValidationError(f"name {self.name!r} is not a file stem")
        if self.construction not in CONSTRUCTIONS:
            raise ValidationError(f"unknown construction: {self.construction!r}")
        if self.n_runs < 1:
            raise ValidationError("n_runs must be >= 1")
        check_seed("base_seed", self.base_seed)
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")

    def to_spec(self) -> ProcessSpec:
        return ProcessSpec(self.construction,
                           **{k: getattr(self, k) for k in SPEC_PARAMS})


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
    crossings, changes, a_events, failures = summary_counts(
        real, traj, audit=cfg.audit, events=cfg.detect_events)
    spec = real.spec
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
        crossings=crossings,
        halfline_changes=changes,
        a_events=a_events,
        lemma_failures=failures,
    )


def _run_one(cfg: ExperimentConfig, spec: ProcessSpec, windows,
             run_index: int) -> list[RunSummary]:
    """Run run_index drawn once from spec and summarized at each of windows
    by exact restriction, which is the drawn run itself at spec's window."""
    real = generate(spec, stream_seed(cfg.base_seed, run_index))
    rows = []
    for L in windows:
        small = couple_restrict(real, L)
        rows.append(summarize_run(cfg, run_index, small, run_walk(small)))
    return rows


def _run_all(cfg: ExperimentConfig, spec: ProcessSpec,
             windows) -> dict[float, list[RunSummary]]:
    """The rows of cfg's runs per window, in run order."""
    run_one = partial(_run_one, cfg, spec, windows)
    # no more processes than runs or cores: a fork pool starts them all
    workers = min(cfg.workers, cfg.n_runs, os.cpu_count() or 1)
    if workers == 1:
        per_run = [run_one(i) for i in range(cfg.n_runs)]
    else:
        chunk = max(1, cfg.n_runs // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_run = list(pool.map(run_one, range(cfg.n_runs),
                                    chunksize=chunk))
    return dict(zip(windows, map(list, zip(*per_run))))


def run_experiment(cfg: ExperimentConfig) -> list[RunSummary]:
    # the spec is built before any work, so domain errors fail first
    return _run_all(cfg, cfg.to_spec(), [cfg.window_L])[cfg.window_L]


def coupled_window_study(cfg: ExperimentConfig,
                         window_Ls) -> dict[float, list[RunSummary]]:
    """Per seed, one realization drawn at the largest window and replayed
    at every requested window via exact restriction, so rows at different
    windows are coupled run-for-run.  A window listed twice is run once."""
    Ls = sorted({float(L) for L in window_Ls})
    if not Ls:
        raise ValidationError("need at least one window half-width")
    if Ls[0] <= 0:
        raise ValidationError("window half-widths must be positive")
    return _run_all(cfg, dataclasses.replace(cfg, window_L=Ls[-1]).to_spec(),
                    Ls)


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
    return {
        "n_runs": len(rows),
        "crossings": {"mean": mean_c, "se": se_c, **_quantiles(crossings)},
        "n_steps": _quantiles(steps),
        "stop_reasons": dict(sorted(reasons.items())),
        "a_events_total": a_total,
        "audited_runs": len(audited),
        "lemma_failures_total": sum(r.lemma_failures for r in audited),
    }


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
    """Read a sweep CSV back; ValidationError for a wrong header, a row
    whose cell count differs from it, or a cell its column cannot parse."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != CSV_COLUMNS:
            raise ValidationError(f"unexpected CSV header: {header}")
        rows = []
        for row in reader:
            where = f"CSV line {reader.line_num}"
            if len(row) != len(CSV_COLUMNS):
                raise ValidationError(f"{where} has {len(row)} cells, "
                                      f"not {len(CSV_COLUMNS)}")
            try:
                rows.append(RunSummary(*map(_csv_cell, _CSV_FIELDS, row)))
            except ValueError as e:
                raise ValidationError(f"{where}: {e}") from None
        return rows


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
