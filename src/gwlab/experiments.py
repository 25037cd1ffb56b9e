"""Batch drivers: seeded run sweeps, coupled-window studies, and exports.

Determinism contract: for a fixed config, the CSV and the report are byte
identical across repeat invocations and across worker counts (runs are
independently seeded by index; a pool maps chunks of them in order).  The
manifest carries a wall-clock timestamp and is exempt from that contract.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from functools import partial
from itertools import repeat
from operator import eq, itemgetter
from typing import NamedTuple

import numpy as np

from ._version import __version__
from .analysis import _refuse, sweep_counts
from .errors import ValidationError
from .processes import (
    CONSTRUCTIONS,
    INVARIANTS,
    SINGLE_LINE,
    SPEC_PARAMS,
    ProcessSpec,
    check_finite,
    check_point_cap,
    drawn_windows,
)
from .seeding import RNG_ALGORITHM, check_seed, stream_seeds
from . import walk
from .walk import EXHAUSTED, TRUNCATED, _write_in_place

# the points one chunk of a sweep's runs holds at most, unless a single
# run's restrictions hold more: each chunk, as many runs as this budget
# expects, is drawn (gw_draw) and walked (gw_sweep) with its lines all held
CHUNK_POINTS = 1 << 16


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: n_runs independent realizations of a single spec.

    name is the stem of the output files: not empty, "." or "..", and
    without a path separator.  The spec parameters follow the spec's rule,
    checked by to_spec: one the construction does not read stays at its
    default, and an integer one is held as its float, so rows, spec and
    manifest write it alike.  audit toggles the per-run replay/pair audits
    (auto-skipped for intersecting lines); detect_events toggles
    return-event detection (parallel constructions only).  workers > 1 runs
    a sweep or a coupled study in a process pool, capped at n_runs and the
    core count.
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
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, int) and not isinstance(value, bool):
                check_finite(name, value)  # an int beyond float range
                object.__setattr__(self, name, float(value))

    def to_spec(self) -> ProcessSpec:
        return ProcessSpec(self.construction,
                           **{k: getattr(self, k) for k in SPEC_PARAMS})


# the ExperimentConfig fields that hold a float (or None)
_FLOAT_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentConfig)
                      if f.type.startswith("float"))
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


class RunSummary(NamedTuple):
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
CSV_COLUMNS = tuple(_CSV_RENAMED.get(name, name)
                    for name in RunSummary._fields)
# per field, its annotation's text (a ForwardRef's, as the module postpones
# annotations) as its type's name and whether it is optional
_CSV_KINDS = [(text.partition(" | ")[0], " | " in text) for text in (
    getattr(t, "__forward_arg__", t)
    for t in RunSummary.__annotations__.values())]
# cell parsers per RunSummary annotation; an empty cell is None where allowed
_CSV_TYPES = {"int": int, "float": float, "str": str}
# the cells of a row that the runs of one spec share, from construction
# to window_L, and its stop reason: write_summaries_csv writes a format of
# the CSV line once per distinct tuple of these objects (not of their
# values: 0.0 == -0.0 and 1 == 1.0, but they are written apart)
_SHARED = itemgetter(*range(RunSummary._fields.index("construction"),
                            RunSummary._fields.index("window_L") + 1),
                     RunSummary._fields.index("stop_reason"))
# the cells a line's format leaves to each row: the int ones
_PER_ROW = frozenset(j for j, (kind, _) in enumerate(_CSV_KINDS)
                     if kind == "int")
_REASONS = (TRUNCATED, EXHAUSTED)  # by whether a run's steps are its points


def _room(spec: ProcessSpec, k: int, windows) -> int:
    """The doubles gw_draw is first given for k runs: their window ends and
    8 standard deviations over the points expected on two lines, each point
    with at most 2m copies in the m windows."""
    m, expected = len(windows), 4 * spec.rate_lambda * sum(windows) * k
    return 4 * k * m + int(expected + 8 * math.sqrt(2 * m * expected)) + 64


def _run_chunk(cfg: ExperimentConfig, spec: ProcessSpec, windows,
               runs: range) -> list[RunSummary]:
    """The rows of runs, by run and then by window, in two compiled calls:
    gw_draw draws each run from spec as generate does, cuts it to each of
    windows as an index range of each sorted line (the one window
    restriction), checks each cut as check_invariants checks a run and
    packs it, and sweep_counts walks and counts each."""
    k, m = len(runs), len(windows)
    seeds = stream_seeds(cfg.base_seed, runs)
    ends = np.array([w for L in windows for win in drawn_windows(spec, L)
                     for w in win], dtype=np.float64)
    keys = np.array(seeds, dtype=np.uint64)
    N = np.empty(2 * k * m + 1, dtype=np.int64)
    room = _room(spec, k, windows)
    while True:  # twice at most: the second time with the room it takes
        D = np.empty(room)
        status = walk._kernel().gw_draw(
            keys.ctypes.data, k, CONSTRUCTIONS.index(spec.construction),
            spec.rate_lambda, spec.window_L, spec.thinning_p or 0.0,
            spec.shift_s or 0.0, ends.ctypes.data, m, D.ctypes.data, room,
            N.ctypes.data)
        # 5 + i for a run that breaks INVARIANTS[i] (_walk.c's BROKEN)
        _refuse(status, INVARIANTS[status - 5] if status >= 5 else None)
        if N[-1] <= room:
            break
        room = int(N[-1])
    N = N[:-1]
    steps, crossings, changes, events, failures = sweep_counts(
        spec, D, N, audit=cfg.audit, events=cfg.detect_events)
    points = (N[::2] + N[1::2]).tolist()
    return list(map(RunSummary._make, zip(
        [i for i in runs for _ in windows],
        [seed for seed in seeds for _ in windows], *map(repeat, (
            spec.construction, spec.rate_lambda, spec.separation_r,
            spec.shift_s, spec.thinning_p, spec.alpha)),
        windows * k, points, steps,
        map(_REASONS.__getitem__, map(eq, steps, points)),
        crossings, changes, events, failures)))


def _run_all(cfg: ExperimentConfig, spec: ProcessSpec,
             windows) -> dict[float, list[RunSummary]]:
    """The rows of cfg's runs per window, in run order, from chunks of
    consecutive runs that CHUNK_POINTS bounds and no worker's share of the
    runs exceeds."""
    check_point_cap(spec)
    expected = spec.rate_lambda * 2 * sum(windows) * (
        1 if spec.kind == SINGLE_LINE else 2)
    # no more processes than runs or cores: a fork pool starts them all
    workers = min(cfg.workers, cfg.n_runs, os.cpu_count() or 1)
    size = max(1, int(min(CHUNK_POINTS // max(expected, 1.0),
                          -(-cfg.n_runs // workers))))
    chunks = [range(i, min(i + size, cfg.n_runs))
              for i in range(0, cfg.n_runs, size)]
    run_chunk = partial(_run_chunk, cfg, spec, windows)
    if workers == 1:
        per_chunk = map(run_chunk, chunks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(run_chunk, chunks))
    rows = [row for chunk in per_chunk for row in chunk]
    return {L: rows[j::len(windows)] for j, L in enumerate(windows)}


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


_QUANTILES = ("min", "q25", "median", "q75", "max")


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
    """The report of rows: a mean or se that no run or one run leaves
    undefined is None, so the report is strict JSON."""
    cols = RunSummary._make(zip(*rows)) if rows else RunSummary._make(
        [()] * len(RunSummary._fields))
    table = np.array([cols.crossings, cols.n_steps], dtype=np.float64)
    mean_c, se_c = mean_and_se(table[0])  # NaN for no runs, se for one
    qs = (np.quantile(table, [0.0, 0.25, 0.5, 0.75, 1.0], axis=1).T.tolist()
          if rows else ([], []))
    failures = cols.lemma_failures
    return {
        "n_runs": len(rows),
        "crossings": {"mean": None if math.isnan(mean_c) else mean_c,
                      "se": None if math.isnan(se_c) else se_c,
                      **dict(zip(_QUANTILES, qs[0]))},
        "n_steps": dict(zip(_QUANTILES, qs[1])),
        "stop_reasons": dict(sorted(Counter(cols.stop_reason).items())),
        # filter(None, ...) drops the zeros too, which the sums keep alike
        "a_events_total": sum(filter(None, cols.a_events)),
        "audited_runs": len(failures) - failures.count(None),
        "lemma_failures_total": sum(filter(None, failures)),
    }


# ---------------------------------------------------------------------------
# persistence


def _line_format(row: RunSummary):
    """The str.format of a CSV line whose shared cells, stop reason and
    None cells are row's: those written as csv.writer writes them, the
    other int cells left to each row's arguments."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([
        f"{{{j}}}" if j in _PER_ROW and v is not None
        else v.replace("{", "{{").replace("}", "}}") if isinstance(v, str)
        else v for j, v in enumerate(row)])
    return buf.getvalue().format


def write_summaries_csv(rows: list[RunSummary], path) -> None:
    """The rows' CSV, byte for byte csv.writer's: each row one str.format
    of its line's format, made once per distinct _SHARED objects and None
    cells (rows holds every object alive, so their ids are distinct)."""
    formats = {}
    lines = [",".join(CSV_COLUMNS) + "\n"]
    for row in rows:
        key = (*map(id, _SHARED(row)), row.a_events is None,
               row.lemma_failures is None)
        fmt = formats.get(key) or formats.setdefault(key, _line_format(row))
        lines.append(fmt(*row))
    _write_in_place(path, ["".join(lines).encode("utf-8")])


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
                rows.append(RunSummary._make(
                    None if optional and cell == "" else _CSV_TYPES[kind](cell)
                    for (kind, optional), cell in zip(_CSV_KINDS, row)))
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
    _write_in_place(paths["report"], [(json.dumps(
        aggregate(rows), sort_keys=True, indent=2, allow_nan=False)
        + "\n").encode("utf-8")])
    manifest = {
        "config": vars(cfg),
        "rng_algorithm": RNG_ALGORITHM,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [os.path.basename(paths["csv"]),
                    os.path.basename(paths["report"])],
    }
    _write_in_place(paths["manifest"], [(json.dumps(
        manifest, sort_keys=True, indent=2, allow_nan=False)
        + "\n").encode("utf-8")])
    return paths
