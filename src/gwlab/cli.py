"""Command line interface.

Subcommands:

* simulate: one seeded run, optional JSON/binary export.
* verify: seeded self-check suites over many runs; exits 1 on violations
  or when a suite checked nothing.
* sweep: batch runs from a JSON config, CSV/report/manifest outputs.
* bounds: the closed-form landmark tail bound on intersecting lines.
* export-plot-data: per-run CSV files ready for plotting.

Exit codes: 0 success, 1 verification failure or nothing checked, 2 usage
or domain error, an output path that cannot be written, a compiled library
that cannot be built (no C compiler, or a failed build), or no memory left.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from ._version import __version__
from .analysis import (
    clusters_of,
    detect_crossings,
    extract_halfline_changes,
    intersect_Bn_bound,
)
from .checks import CHECKS, Outcome
from .errors import ValidationError
from .processes import (
    CONSTRUCTIONS,
    PARALLEL_CONSTRUCTIONS,
    SPEC_PARAMS,
    ProcessSpec,
    generate,
    realization_to_dict,
)
from .seeding import check_seed, stream_seed
from .walk import (
    RUN_TO_EXHAUSTION,
    TRUNCATION_SAFE,
    StopRule,
    _write_in_place,
    run_walk,
    trajectory_to_binary,
    trajectory_to_dicts,
)

DEFAULT_SEED = 1729


def _spec_from_args(construction: str,
                    args: argparse.Namespace) -> ProcessSpec:
    return ProcessSpec.build(
        construction, **{k: getattr(args, k) for k in SPEC_PARAMS})


# ---------------------------------------------------------------------------
# handlers


def _cmd_simulate(args) -> int:
    spec = _spec_from_args(args.construction, args)
    real = generate(spec, args.seed)
    traj = run_walk(real, rule=StopRule(args.stop_mode))
    print(
        f"construction={args.construction} seed={args.seed} "
        f"n_points={real.n_points} n_steps={len(traj)} "
        f"stop={traj.stop_reason} crossings={detect_crossings(traj)} "
        f"halfline_changes={len(extract_halfline_changes(traj))}"
    )
    if args.export_run:
        payload = {
            "schema": "gwlab-run/1",
            "realization": realization_to_dict(real),
            "trajectory": trajectory_to_dicts(traj),
            "stop_reason": traj.stop_reason,
        }
        _write_in_place(args.export_run, [
            (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")])
        print(f"wrote {args.export_run}")
    if args.export_binary:
        trajectory_to_binary(traj, args.export_binary)
        print(f"wrote {args.export_binary}")
    return 0


def _cmd_verify(args) -> int:
    if args.list_suites:
        for check in CHECKS.values():
            print(f"{check.name}: {check.description}")
        return 0
    if args.suite is None:
        raise ValidationError("--suite NAME or --list-suites required")
    if args.suite not in CHECKS:
        raise ValidationError(f"unknown suite {args.suite!r}; known suites: "
                              f"{', '.join(sorted(CHECKS))}")
    if args.runs < 1:
        raise ValidationError(f"--runs must be at least 1, got {args.runs}")
    check = CHECKS[args.suite]
    if args.construction is not None:
        if args.construction not in check.constructions:
            raise ValidationError(
                f"suite {args.suite!r} does not apply to {args.construction!r}"
            )
        constructions = (args.construction,)
    else:
        constructions = check.constructions
    specs = [(c, _spec_from_args(c, args)) for c in constructions]
    print(f"suite {args.suite}: {len(specs)} construction(s), "
          f"{args.runs} runs each, seed {args.seed}")
    checks = violations = 0
    for label, spec in specs:
        total = Outcome()
        for i in range(args.runs):
            real = generate(spec, stream_seed(args.seed, i))
            total += check.per_run(real, run_walk(real))
        counts = " ".join(f"{k}={v}" for k, v in total.counts.items())
        print(f"  {label}: runs={args.runs} {counts}")
        checks += total.checks
        violations += total.violations
    # a suite that checked nothing has not verified anything
    status = "FAIL" if violations else "PASS" if checks else "NO CHECKS"
    print(f"{args.suite}: {status} ({violations} violations / {checks} checks)")
    return 0 if status == "PASS" else 1


def _cmd_sweep(args) -> int:
    from .experiments import load_config, run_experiment, write_outputs

    cfg = load_config(args.config)
    if args.workers is not None:
        cfg = dataclasses.replace(cfg, workers=args.workers)
    rows = run_experiment(cfg)
    paths = write_outputs(cfg, rows, args.out_dir)
    for p in paths.values():
        print(f"wrote {p}")
    return 0


def _cmd_bounds(args) -> int:
    if args.n_max < 1:
        raise ValidationError(f"n_max={args.n_max} leaves the table empty")
    for n in range(1, args.n_max + 1):
        print(f"{n}\t{intersect_Bn_bound(args.alpha, n):.9g}")
    return 0


def _cmd_export_plot_data(args) -> int:
    spec = _spec_from_args(args.construction, args)
    real = generate(spec, args.seed)
    traj = run_walk(real)
    os.makedirs(args.out_dir, exist_ok=True)
    tpath = os.path.join(args.out_dir, "prefix_trajectory.csv")
    rows = ["step,line,u\n", *(f"{i},{l},{u!r}\n" for i, (u, l) in enumerate(
        zip(traj.us.tolist(), traj.lines.tolist()), start=1))]
    _write_in_place(tpath, ["".join(rows).encode()])
    cpath = os.path.join(args.out_dir, "prefix_clusters.csv")
    rows = ["cluster_index,signed_index,lo_u,hi_u,lead_u,size,is_zero\n"]
    if args.construction in PARALLEL_CONSTRUCTIONS:
        dec = clusters_of(real)
        lo = dec.points[dec.starts].tolist()
        hi = dec.points[dec.starts + dec.sizes - 1].tolist()
        lead = dec.points[dec.leads].tolist()
        for ci, m in enumerate(dec.sizes.tolist()):
            rows.append(f"{ci},{ci - dec.zero_cluster},{lo[ci]!r},{hi[ci]!r},"
                        f"{lead[ci]!r},{m},{int(ci == dec.zero_cluster)}\n")
    _write_in_place(cpath, ["".join(rows).encode()])
    print(f"wrote {tpath}")
    print(f"wrote {cpath}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_process_args(p: argparse.ArgumentParser, *, required_construction):
    p.add_argument("--construction", choices=CONSTRUCTIONS,
                   required=required_construction, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--rate-lambda", dest="rate_lambda", type=float, default=1.0)
    p.add_argument("--window-L", dest="window_L", type=float, default=25.0)
    p.add_argument("--separation-r", dest="separation_r", type=float,
                   default=1.0)
    p.add_argument("--alpha", type=float, default=math.pi / 3)
    p.add_argument("--thinning-p", dest="thinning_p", type=float, default=0.5)
    p.add_argument("--shift-s", dest="shift_s", type=float, default=0.3)
    p.add_argument("--allow-unproven-s", dest="allow_unproven_shift",
                   action="store_true",
                   help="widen the shift domain from r/sqrt(3) to r")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  --suite takes any name
    (the handler checks it against CHECKS), so a suite registered after the
    first build still runs."""
    parser = argparse.ArgumentParser(
        prog="gwlab",
        description="nearest-unvisited-point walks on pairs of lines",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one seeded walk")
    _add_process_args(p, required_construction=True)
    p.add_argument("--stop-mode", choices=(TRUNCATION_SAFE, RUN_TO_EXHAUSTION),
                   default=TRUNCATION_SAFE)
    p.add_argument("--export-run", metavar="PATH",
                   help="write realization + trajectory JSON")
    p.add_argument("--export-binary", metavar="PATH",
                   help="write the trajectory in the columnar binary format")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("verify", help="run a seeded self-check suite")
    p.add_argument("--suite", default=None,
                   help="the suite to run; --list-suites names them")
    p.add_argument("--list-suites", action="store_true")
    p.add_argument("--runs", type=int, default=100)
    _add_process_args(p, required_construction=False)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("sweep", help="batch runs from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("bounds", help="print the landmark tail bound on "
                                      "intersecting lines, level 1 to n-max")
    p.add_argument("--alpha", type=float, default=math.pi / 3)
    p.add_argument("--n-max", dest="n_max", type=int, default=15)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("export-plot-data",
                       help="write plot-ready CSVs for one run")
    _add_process_args(p, required_construction=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_export_plot_data)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if "seed" in args:
            check_seed("--seed", args.seed)
        return args.handler(args)
    except (ValidationError, OSError, MemoryError) as e:
        # an OSError here is an output path that cannot be written, or the
        # compiled library that cannot be built (walk._kernel)
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
