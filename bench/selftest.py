#!/usr/bin/env python3
"""Self-tests of the benchmark itself, at reduced input sizes (~1 minute).

    python3 bench/selftest.py

* a flipped byte in a copied output is caught as a failed call;
* traced, untraced and calibrated passes give identical digests on every
  workload;
* smoke mode: ``bench/run.py --smoke`` runs every workload, untraced and
  traced, prints exactly the metrics BENCHMARK.json names, and records a
  machine block with one effective worker although GWLAB_WORKERS=2;
* without the gwlab sources, ``bench/run.py`` exits non-zero and prints no
  result.

Not collected by pytest on purpose: these exercise the benchmark, not gwlab.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracer  # noqa: E402

SCRATCH = ROOT / ".bench_tmp"


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def _flip_byte(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))


def test_flipped_byte_is_a_failure(tmp: Path) -> None:
    for workload in ("sweep-L50", "simulate-L20000"):
        calls = harness.make_calls(workload, 3, tmp / workload, smoke=True)
        ref = harness.run_pass(calls)
        _check(not harness.call_failures(ref, None), f"{workload}: ref failed")
        call, res = calls[0], ref.results[0]
        copy_dir = tmp / f"{workload}-copy"
        copy_dir.mkdir()
        copies = []
        for out in call.outputs:
            copies.append(copy_dir / out.name)
            shutil.copyfile(out, copies[-1])
        same = harness.digest(call.label, res.stdout, copies)
        _check(same == res.digest, f"{workload}: copy changes the digest")
        _flip_byte(copies[0])
        res.digest = harness.digest(call.label, res.stdout, copies)
        bad = harness.call_failures(ref, {**ref.digests, call.label: same})
        _check(len(bad) == 1 and call.label in bad[0],
               f"{workload}: flipped byte not caught: {bad}")


def test_traced_matches_untraced(tmp: Path) -> None:
    for workload in harness.WORKLOADS:
        calls = harness.make_calls(workload, 5, tmp / workload, smoke=True)
        plain = harness.run_pass(calls)
        rec = tracer.Recorder()
        with tracer.traced(rec):
            traced = harness.run_pass(calls)
        _check(not harness.call_failures(plain, None), f"{workload}: failed")
        _check(not harness.call_failures(traced, plain.digests),
               f"{workload}: traced digests differ from untraced")
        _check(rec.counts["processes.generate.points"] > 0
               and rec.counts["walk.run_walk.steps"] > 0,
               f"{workload}: tracer saw no work")
        again = harness.run_pass(calls, calibrated=True)
        _check(not harness.call_failures(again, plain.digests),
               f"{workload}: tracing left the program patched")
        _check(len(again.host_s) == len(calls) + 1
               and again.scaled_seconds > 0,
               f"{workload}: calibration {again.host_s}")


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    # run.py must clear GWLAB_WORKERS, which overrides a sweep's workers: 1
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        env=dict(os.environ, GWLAB_WORKERS="2"),
        capture_output=True, text=True, timeout=300,
    )


def test_smoke_all_workloads(tmp: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    for w in spec["workloads"]:
        for trace in (0, 1):
            record = tmp / f"{w['name']}-{trace}.json"
            done = _run_bench(ROOT, "--workload", w["name"], "--seed", "2",
                              "--seconds", "1", "--trace", str(trace),
                              "--smoke", "--out", str(record))
            label = f"{w['name']} trace {trace}"
            _check(done.returncode == 0, f"{label}: exit {done.returncode}: "
                   f"{done.stderr[-2000:]}")
            result = json.loads(done.stdout.splitlines()[-1])
            _check(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{label}: keys {set(result)}")
            _check(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0, f"{label}: {result}")
            _check(list(result["metrics"]) == names[trace],
                   f"{label}: metrics {list(result['metrics'])}")
            machine = json.loads(record.read_text())["machine"]
            _check(machine["effective_workers"] == 1
                   and {"nproc", "python", "numpy", "git_revision"} <= set(machine),
                   f"{label}: machine block {machine}")


def test_fails_without_sources(tmp: Path) -> None:
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench(bare, "--workload", "sweep-L50", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    _check(done.returncode != 0, "ran without the gwlab sources")
    _check(not done.stdout.strip(), f"printed a result: {done.stdout!r}")


TESTS = (
    test_flipped_byte_is_a_failure,
    test_traced_matches_untraced,
    test_smoke_all_workloads,
    test_fails_without_sources,
)


def main() -> int:
    SCRATCH.mkdir(exist_ok=True)
    failed = 0
    for test in TESTS:
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            try:
                test(Path(tmp))
            except AssertionError as e:
                failed += 1
                print(f"FAIL {test.__name__}: {e}")
            else:
                print(f"ok   {test.__name__}")
    with contextlib.suppress(OSError):  # still in use by another run
        SCRATCH.rmdir()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
