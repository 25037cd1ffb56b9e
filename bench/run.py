#!/usr/bin/env python3
"""gwlab benchmark: drive the ``gwlab`` CLI in-process and report throughput.

Run from the repository root:

    python3 bench/run.py --workload sweep-L50 --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json and bench/layer_map.json for why):

* ``sweep-L50``: ``gwlab sweep`` per construction, 100 runs at L=50,
  audit and events on, one worker.
* ``simulate-L20000``: ``gwlab simulate --export-binary`` per
  construction at L=20000.
* ``verify-L1000``: ``gwlab verify`` for dx-bounds, povratak,
  cluster-traversal and lemma-distance, 32 runs per construction at L=1000,
  in calls of 4 runs.

A run sets up (cold import of gwlab in a fresh interpreter, work-directory
and config preparation, a reduced warm-up pass; repeated and the median
reported as ``setup_s``), runs one untimed reference pass, then repeats the
same pass until ``--seconds`` have elapsed.  Throughputs are the median
over passes of work per second of timed CLI time.  Every time is given at
the reference host speed of bench/calibrate.py: the host is timed on a fixed
calibration loop around each call and each part of a set-up, which removes
most of a shared host's minutes-long slowdowns from the figures.  The
unscaled wall-clock figures are per-layer metrics (``host.*``).  Every call's
user-visible output is hashed and must match the committed golden digest
for the seed and the reference pass; seeds outside the goldens (0-63 and
1729) are checked against the reference pass and the outputs' own
verdicts only.  ``--trace 1`` alternates untraced and traced passes
(spans from bench/tracer.py) and reports the per-layer metrics instead.

Seeds: tune on seed 1; confirm a claimed gain on the held-out seed 1729.

The last line of stdout is the result object; diagnostics go to stderr.
Exit status: 0 when every output is correct, 1 when any is not, 2 when the
program cannot be found or run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
SETUP_REPS = 9
MIN_PASSES = 3

# gwlab's cold import, between two calibrations in the same interpreter
# (numpy is loaded first: it is not gwlab's, and the calibration needs it)
IMPORT_PROBE = (
    "import time, calibrate; calibrate.host_seconds(); "
    "before = calibrate.host_seconds(); t0 = time.perf_counter(); "
    "import gwlab.cli, gwlab.experiments; t1 = time.perf_counter(); "
    "print(t1 - t0, before, calibrate.host_seconds())"
)

E2E_UNITS = {
    "runs_per_s": "runs/s",
    "steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer: the host speed and the unscaled wall-clock figures
HOST_UNITS = {
    "host.calib_ms": "ms",
    "host.runs_per_s_wall": "runs/s",
    "host.steps_per_s_wall": "steps/s",
    "host.setup_s_wall": "s",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep-L50", "simulate-L20000", "verify-L1000"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced input sizes, no golden check")
    p.add_argument("--out", metavar="PATH",
                   help="also write the full record (machine, passes, "
                        "digests, metrics) as JSON")
    return p.parse_args(argv)


def _cold_import_seconds(env) -> tuple[float, float]:
    """Time to import gwlab in a fresh interpreter, measured inside it, and
    the same time at reference host speed."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, before, after = map(float, done.stdout.split()[-3:])
    return seconds, seconds * calibrate.REF_S / ((before + after) / 2)


def _setup(harness, workload, seed, workdir, env, failures):
    """Set up SETUP_REPS times; return the medians of the set-up time at
    reference host speed and of its wall time, and the calls made.

    A set-up is gwlab's cold import plus the config preparation and
    warm-up pass, each scaled by the calibrations on either side of it.
    """
    scaled, walls = [], []
    attempted = 0
    for i in range(SETUP_REPS):
        t_import, import_scaled = _cold_import_seconds(env)
        before = calibrate.host_seconds()
        t0 = perf_counter()
        calls = harness.make_calls(workload, seed, workdir / f"setup{i}",
                                   smoke=True)
        warm = harness.run_pass(calls)
        t_warm = perf_counter() - t0
        after = calibrate.host_seconds()
        scaled.append(import_scaled
                      + t_warm * calibrate.REF_S / ((before + after) / 2))
        walls.append(t_import + t_warm)
        attempted += len(calls)
        failures += harness.call_failures(warm, None)
    return statistics.median(scaled), statistics.median(walls), attempted


def _machine(harness, workload, seed, golden) -> dict:
    import numpy

    import gwlab

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gwlab": gwlab.__version__,
        "git_revision": harness.git_revision(ROOT),
        "effective_workers": harness.effective_workers(),
        "workload": workload,
        "seed": seed,
        "golden": "checked" if golden is not None else "none for this seed",
    }


def measure(args) -> tuple[dict, dict]:
    """Run the benchmark; return (result line, full record)."""
    import harness
    import tracer

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT / "bench"))))
    try:
        failures: list[str] = []
        problems: list[str] = []
        setup_s, setup_wall_s, attempted = _setup(
            harness, args.workload, args.seed, workdir, env, failures)

        calls = harness.make_calls(args.workload, args.seed, workdir / "main",
                                   args.smoke)
        golden = None
        if not args.smoke:
            golden = harness.golden_for(harness.load_goldens(), args.workload,
                                        args.seed)
        ref = harness.run_pass(calls)
        attempted += len(calls)
        failures += harness.call_failures(ref, golden)
        problems += harness.output_problems(calls, ref)
        expected = ref.digests

        sizing = harness.SIZING.get(args.workload)
        if sizing is None:
            steps = harness.steps_in(calls, ref)
        else:
            size_calls = sizing(args.seed, args.smoke)
            sized = harness.run_pass(size_calls)
            attempted += len(size_calls)
            failures += harness.call_failures(sized, None)
            steps = harness.steps_in(size_calls, sized)
        runs = sum(c.runs for c in calls)

        untraced_walls, scaled, host_s, traced_walls, recs = [], [], [], [], []
        call_s = {c.label: [] for c in calls}
        deadline = perf_counter() + args.seconds
        while (perf_counter() < deadline or len(untraced_walls) < MIN_PASSES
               or (args.trace and len(recs) < MIN_PASSES)):
            p = harness.run_pass(calls, calibrated=True)
            attempted += len(calls)
            failures += harness.call_failures(p, expected)
            untraced_walls.append(p.seconds)
            scaled.append(p.scaled_seconds)
            host_s += p.host_s
            for r in p.results:
                call_s[r.label].append(r.seconds)
            if args.trace:
                rec = tracer.Recorder()
                with tracer.traced(rec):
                    p = harness.run_pass(calls)
                attempted += len(calls)
                failures += harness.call_failures(p, expected)
                traced_walls.append(p.seconds)
                recs.append(rec)
                if tracer.pass_counts(rec) != tracer.pass_counts(recs[0]):
                    problems.append("traced work counts differ between passes")

        if args.trace:
            layer = tracer.layer_metrics(recs, traced_walls, untraced_walls)
            layer.update({
                "host.calib_ms": statistics.median(host_s) * 1e3,
                "host.runs_per_s_wall": statistics.median(
                    runs / w for w in untraced_walls),
                "host.steps_per_s_wall": statistics.median(
                    steps / w for w in untraced_walls),
                "host.setup_s_wall": setup_wall_s,
            })
            units = {**{k: u for k, (u, _) in tracer.LAYER_METRICS.items()},
                     **HOST_UNITS}
            metrics = {k: {"value": layer[k], "unit": u}
                       for k, u in units.items()}
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = {
                "runs_per_s": statistics.median(runs / w for w in scaled),
                "steps_per_s": statistics.median(steps / w for w in scaled),
                "peak_rss_mb": rss_mb,
                "setup_s": setup_s,
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                       for k, v in values.items()}

        result = {
            "correct": not failures and not problems,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        }
        record = {
            "machine": _machine(harness, args.workload, args.seed, golden),
            "work_per_pass": {"runs": runs, "steps": steps},
            "untraced_pass_s": untraced_walls,
            "untraced_pass_scaled_s": scaled,
            "host_s": host_s,
            "setup_wall_s": setup_wall_s,
            "traced_pass_s": traced_walls,
            "call_s": call_s,
            "digests": expected,
            "failures": failures,
            "problems": problems,
            "result": result,
        }
        return result, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            SCRATCH.rmdir()


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "gwlab" / "cli.py").is_file():
        print(f"error: no gwlab sources under {SRC}", file=sys.stderr)
        return 2
    # GWLAB_WORKERS would silently override the sweeps' workers: 1
    os.environ.pop("GWLAB_WORKERS", None)
    sys.path.insert(0, str(SRC))
    import gwlab

    if Path(gwlab.__file__).resolve().parent != SRC / "gwlab":
        print(f"error: imported gwlab from {gwlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    result, record = measure(args)
    print(json.dumps(record["machine"], sort_keys=True), file=sys.stderr)
    for line in (record["failures"] + record["problems"])[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
