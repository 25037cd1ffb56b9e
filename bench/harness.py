"""Workloads, CLI driving and output digests for the gwlab benchmark.

Every workload is a list of CLI calls built from the workload seed.  A pass
runs those calls in order through ``gwlab.cli.main`` in this process; only
the ``main`` call itself is timed.  What a user of each call sees (stdout
without the ``wrote <path>`` lines, plus the named output files) is hashed
into a per-call digest, so passes can be compared with each other and with
the committed goldens.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibrate
from gwlab import cli
from gwlab.seeding import stream_seed

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

# Tune on MAIN_SEED; confirm a claimed gain on HELD_OUT_SEED, a seed never
# used while the change was written.  The goldens cover both.
MAIN_SEED = 1
HELD_OUT_SEED = 1729

CONSTRUCTIONS = (
    "single-line",
    "intersecting",
    "parallel-duplicated",
    "parallel-thinned",
    "parallel-shifted",
)
PARALLEL = CONSTRUCTIONS[2:]

# The CLI defaults, spelled out so a change of default cannot change the work.
ALPHA = math.pi / 3
PROCESS_FLAGS = (
    "--rate-lambda", "1.0", "--separation-r", "1.0", "--alpha", repr(ALPHA),
    "--thinning-p", "0.5", "--shift-s", "0.3",
)

# verify-L1000: suite -> constructions it runs on
VERIFY_SUITES = (
    ("dx-bounds", ("parallel-thinned", "parallel-shifted")),
    ("povratak", ("parallel-thinned", "parallel-shifted")),
    ("cluster-traversal", ("parallel-duplicated",)),
    ("lemma-distance", PARALLEL),
)

# (full, smoke) sizes per workload
SWEEP_RUNS = (100, 4)
SIMULATE_L = (20000.0, 500.0)
VERIFY_RUNS = (32, 2)  # per construction and suite, in calls of:
VERIFY_CALL_RUNS = (4, 2)
VERIFY_L = (1000.0, 100.0)


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what of it the user sees."""

    label: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...] = ()
    runs: int = 1  # realizations the call generates, walks and processes


@dataclass
class CallResult:
    label: str
    seconds: float
    code: int | None  # None: the call raised
    stdout: str
    error: str = ""
    digest: str = ""


@dataclass
class Pass:
    results: list[CallResult] = field(default_factory=list)
    # host calibration times before the first call and after each call
    host_s: list[float] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.results)

    @property
    def scaled_seconds(self) -> float:
        """The pass's time at the reference host speed: each call's time
        scaled by the mean of the calibrations on either side of it."""
        return sum(
            r.seconds * calibrate.REF_S / ((before + after) / 2)
            for r, before, after in zip(self.results, self.host_s,
                                        self.host_s[1:])
        )

    @property
    def digests(self) -> dict[str, str]:
        return {r.label: r.digest for r in self.results}


def derive_seed(workload: str, seed: int, label: str) -> int:
    """Base seed of one call: a 32-bit hash of (workload, seed, label)."""
    h = hashlib.sha256(f"{workload}/{seed}/{label}".encode()).digest()
    return int.from_bytes(h[:4], "little")


def _sweep_params(construction: str) -> dict:
    if construction == "intersecting":
        return {"alpha": ALPHA}
    if construction == "single-line":
        return {}
    extra = {"separation_r": 1.0}
    if construction == "parallel-thinned":
        extra["thinning_p"] = 0.5
    elif construction == "parallel-shifted":
        extra["shift_s"] = 0.3
    return extra


def _sweep_calls(seed: int, workdir: Path, smoke: bool) -> list[Call]:
    n_runs = SWEEP_RUNS[smoke]
    calls = []
    for c in CONSTRUCTIONS:
        label = f"sweep:{c}"
        cfg = {
            "name": c, "construction": c, "n_runs": n_runs,
            "base_seed": derive_seed("sweep-L50", seed, label),
            "rate_lambda": 1.0, "window_L": 50.0, "audit": True,
            "detect_events": True, "workers": 1, **_sweep_params(c),
        }
        cfg_path = workdir / f"{c}.sweep.json"
        cfg_path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
        out = workdir / f"sweep-{c}"
        calls.append(Call(
            label,
            ("sweep", "--config", str(cfg_path), "--out-dir", str(out),
             "--workers", "1"),
            (out / f"{c}.csv", out / f"{c}.report.json"),
            n_runs,
        ))
    return calls


def _simulate_calls(seed: int, workdir: Path, smoke: bool) -> list[Call]:
    L = SIMULATE_L[smoke]
    calls = []
    for c in CONSTRUCTIONS:
        label = f"simulate:{c}"
        path = workdir / f"{c}.traj.bin"
        calls.append(Call(
            label,
            ("simulate", "--construction", c, "--window-L", repr(L),
             "--seed", str(derive_seed("simulate-L20000", seed, label)),
             *PROCESS_FLAGS, "--export-binary", str(path)),
            (path,),
        ))
    return calls


def _verify_parts(seed: int, smoke: bool):
    """(label, suite, constructions, base seed, runs) of each verify call.

    A suite's runs are split over several short calls: the host is
    calibrated between calls, and a second-long call lets its speed drift
    unseen.
    """
    per_call = VERIFY_CALL_RUNS[smoke]
    for suite, constructions in VERIFY_SUITES:
        for j in range(VERIFY_RUNS[smoke] // per_call):
            label = f"verify:{suite}:{j}"
            yield (label, suite, constructions,
                   derive_seed("verify-L1000", seed, label), per_call)


def _verify_calls(seed: int, workdir: Path, smoke: bool) -> list[Call]:
    L = VERIFY_L[smoke]
    return [
        Call(label,
             ("verify", "--suite", suite, "--runs", str(runs),
              "--window-L", repr(L), "--seed", str(base), *PROCESS_FLAGS),
             (),
             runs * len(constructions))
        for label, suite, constructions, base, runs in _verify_parts(seed,
                                                                     smoke)
    ]


def verify_sizing_calls(seed: int, smoke: bool) -> list[Call]:
    """One ``simulate`` per realization a verify pass walks.

    verify prints no step counts, so the pass's walk steps are read from
    the summary lines of these calls, which replay the same (spec, seed)
    pairs through the same CLI.
    """
    L = VERIFY_L[smoke]
    calls = []
    for label, _, constructions, base, runs in _verify_parts(seed, smoke):
        for c in constructions:
            for i in range(runs):
                calls.append(Call(
                    f"size:{label}:{c}:{i}",
                    ("simulate", "--construction", c, "--window-L", repr(L),
                     "--seed", str(stream_seed(base, i)), *PROCESS_FLAGS),
                ))
    return calls


WORKLOADS = {
    "sweep-L50": _sweep_calls,
    "simulate-L20000": _simulate_calls,
    "verify-L1000": _verify_calls,
}

# workloads whose outputs do not report their walk steps
SIZING = {"verify-L1000": verify_sizing_calls}


def make_calls(workload: str, seed: int, workdir: Path, smoke: bool) -> list[Call]:
    """Prepare the work directory and return the workload's CLI calls."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, workdir, smoke)


# ---------------------------------------------------------------------------
# running and digests


def user_stdout(stdout: str) -> str:
    """stdout as the user reads it, minus the temp-dir ``wrote`` lines."""
    return "".join(
        line for line in stdout.splitlines(keepends=True)
        if not line.startswith("wrote ")
    )


def digest(label: str, stdout: str, outputs) -> str:
    h = hashlib.sha256()
    h.update(label.encode() + b"\0")
    h.update(user_stdout(stdout).encode() + b"\0")
    for path in outputs:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_call(call: Call) -> CallResult:
    out, err = io.StringIO(), io.StringIO()
    code = None
    error = ""
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(call.argv))
    except Exception as e:  # a crashing call is a failed call, not a crash
        error = repr(e)
    seconds = perf_counter() - t0
    res = CallResult(call.label, seconds, code, out.getvalue(),
                     error or err.getvalue().strip())
    if code == 0:
        try:
            res.digest = digest(call.label, res.stdout, call.outputs)
        except OSError as e:
            res.error = f"missing output: {e}"
    return res


def run_pass(calls: list[Call], calibrated: bool = False) -> Pass:
    """Run the calls in order; `calibrated` also times the host before the
    first call and after each call, for `Pass.scaled_seconds`."""
    p = Pass()
    if calibrated:
        p.host_s.append(calibrate.host_seconds())
    for c in calls:
        p.results.append(run_call(c))
        if calibrated:
            p.host_s.append(calibrate.host_seconds())
    return p


def call_failures(p: Pass, expected: dict[str, str] | None) -> list[str]:
    """One line per failed call: non-zero exit, exception, or a digest that
    differs from `expected` (label -> digest) where that is given."""
    bad = []
    for r in p.results:
        if r.code != 0 or not r.digest:
            bad.append(f"{r.label}: exit {r.code} {r.error}".rstrip())
        elif expected is not None and expected.get(r.label) != r.digest:
            bad.append(f"{r.label}: digest {r.digest} != expected "
                       f"{expected.get(r.label)}")
    return bad


# ---------------------------------------------------------------------------
# what the outputs say


def _summary_field(stdout: str, key: str) -> int:
    m = re.search(rf"\b{key}=(\d+)", stdout)
    if m is None:
        raise ValueError(f"no {key}= in output: {stdout[:200]!r}")
    return int(m.group(1))


def steps_in(calls: list[Call], p: Pass) -> int:
    """Walk steps the outputs of a sweep or simulate pass report; failed
    calls (already counted as failures) add none."""
    total = 0
    for call, r in zip(calls, p.results):
        if r.code != 0:
            continue
        if call.argv[0] == "simulate":
            total += _summary_field(r.stdout, "n_steps")
        elif call.argv[0] == "sweep":
            with open(call.outputs[0], newline="", encoding="utf-8") as fh:
                total += sum(int(row["n_steps"]) for row in csv.DictReader(fh))
    return total


def output_problems(calls: list[Call], p: Pass) -> list[str]:
    """Checks on what each call reports, independent of the goldens."""
    bad = []
    for call, r in zip(calls, p.results):
        if r.code != 0:
            continue
        kind = call.argv[0]
        if kind == "sweep":
            with open(call.outputs[0], newline="", encoding="utf-8") as fh:
                n_rows = sum(1 for _ in csv.DictReader(fh))
            report = json.loads(call.outputs[1].read_text(encoding="utf-8"))
            if n_rows != call.runs or report.get("n_runs") != call.runs:
                bad.append(f"{call.label}: {n_rows} rows for {call.runs} runs")
            if report.get("lemma_failures_total") != 0:
                bad.append(f"{call.label}: lemma failures "
                           f"{report.get('lemma_failures_total')}")
        elif kind == "simulate":
            raw = call.outputs[0].read_bytes()
            (n,) = struct.unpack("<Q", raw[8:16])
            if n != _summary_field(r.stdout, "n_steps") or len(raw) != 16 + 24 * n:
                bad.append(f"{call.label}: binary holds {n} steps, "
                           f"{len(raw)} bytes")
        elif kind == "verify":
            m = re.search(r": PASS \(0 violations / (\d+) checks\)", r.stdout)
            if m is None or int(m.group(1)) == 0:
                bad.append(f"{call.label}: no passing checks reported")
    return bad


# ---------------------------------------------------------------------------
# goldens


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def golden_for(goldens: dict, workload: str, seed: int) -> dict[str, str] | None:
    return goldens["digests"].get(workload, {}).get(str(seed))


def effective_workers() -> int:
    """Worker count a sweep config with ``workers: 1`` resolves to here."""
    from gwlab import experiments

    cfg = experiments.ExperimentConfig(
        name="probe", construction="single-line", n_runs=1, base_seed=0)
    resolve = getattr(experiments, "_worker_count", None)
    return resolve(cfg) if resolve is not None else cfg.workers


def git_revision(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside
    a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
