#!/usr/bin/env python3
"""Write bench/goldens.json: the per-call output digests of every workload.

    python3 bench/goldens.py

Covers seeds 0-63 and the held-out seed.  Run it only on a commit whose
outputs are known good (the goldens in the repository come from the
commit that added the benchmark): the benchmark fails every later commit
whose outputs differ from them by a single byte.
"""

from __future__ import annotations

import contextlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402

SEEDS = tuple(range(64)) + (harness.HELD_OUT_SEED,)


def main() -> int:
    digests = {}
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload in harness.WORKLOADS:
            digests[workload] = {}
            for seed in SEEDS:
                workdir = Path(tmp) / workload / str(seed)
                calls = harness.make_calls(workload, seed, workdir, smoke=False)
                p = harness.run_pass(calls)
                bad = (harness.call_failures(p, None)
                       + harness.output_problems(calls, p))
                if bad:
                    print(f"{workload} seed {seed}: {bad}", file=sys.stderr)
                    return 1
                digests[workload][str(seed)] = p.digests
            print(f"{workload}: {len(SEEDS)} seeds", file=sys.stderr)
    with contextlib.suppress(OSError):  # still in use by another run
        scratch.rmdir()
    payload = {
        "main_seed": harness.MAIN_SEED,
        "held_out_seed": harness.HELD_OUT_SEED,
        "revision": harness.git_revision(ROOT),
        "digests": digests,
    }
    with open(harness.GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
