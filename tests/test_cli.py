"""CLI behavior, exercised in-process through main(argv)."""

import importlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gwlab import (
    CONSTRUCTIONS,
    ProcessSpec,
    ValidationError,
    __version__,
    audit_lemmas,
    check_povratak,
    detect_A_events,
    generate,
    intersect_Bn_bound,
    read_summaries_csv,
    realization_from_dict,
    realization_to_dict,
    run_walk,
    trajectory_from_binary,
)
from gwlab import checks, walk
from gwlab.checks import CHECKS, Check, Outcome
from gwlab.cli import DEFAULT_SEED, _build_parser, main
from gwlab.walk import trajectory_to_dicts

ROOT = Path(__file__).resolve().parents[1]


def test_simulate_summary_line(capsys):
    assert main(["simulate", "--construction", "single-line",
                 "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "construction=single-line" in out
    assert "seed=7" in out
    for field in ("n_points=", "n_steps=", "stop=", "crossings=",
                  "halfline_changes="):
        assert field in out


def test_simulate_stop_mode(capsys):
    assert main(["simulate", "--construction", "single-line", "--seed", "7",
                 "--stop-mode", "run-to-exhaustion"]) == 0
    assert "stop=exhausted" in capsys.readouterr().out


def test_simulate_exports(tmp_path, capsys):
    jpath = tmp_path / "run.json"
    bpath = tmp_path / "run.bin"
    assert main(["simulate", "--construction", "parallel-thinned",
                 "--seed", "11", "--export-run", str(jpath),
                 "--export-binary", str(bpath)]) == 0
    payload = json.loads(jpath.read_text())
    assert payload["schema"] == "gwlab-run/1"

    # the exported realization replays to the exported trajectory
    real = realization_from_dict(payload["realization"])
    traj = run_walk(real)
    assert payload["trajectory"] == trajectory_to_dicts(traj)
    assert payload["stop_reason"] == traj.stop_reason

    us, lines, dists = trajectory_from_binary(bpath)
    assert us.tolist() == traj.us.tolist()
    assert lines.tolist() == traj.lines.tolist()
    assert dists.tolist() == traj.step_distances.tolist()


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_export_run_pinned(tmp_path, capsys, construction):
    # the gwlab-run/1 export, byte for byte; the realization's base_points
    # and flags in it are derived from line0/line1
    path = tmp_path / "run.json"
    assert main(["simulate", "--construction", construction,
                 "--window-L", "10", "--seed", "11",
                 "--export-run", str(path)]) == 0
    capsys.readouterr()
    pinned = Path(__file__).parent / "data" / "export_run" / f"{construction}.json"
    assert path.read_bytes() == pinned.read_bytes()
    realization_from_dict(json.loads(pinned.read_text())["realization"])


def test_default_seed_used(capsys):
    assert main(["simulate", "--construction", "single-line"]) == 0
    assert f"seed={DEFAULT_SEED}" in capsys.readouterr().out


def test_verify_list_suites(capsys):
    assert main(["verify", "--list-suites"]) == 0
    out = capsys.readouterr().out
    for name in CHECKS:
        assert name in out


def test_verify_suite_passes(capsys):
    assert main(["verify", "--suite", "lemma-replay", "--runs", "3",
                 "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "lemma-replay: PASS" in out
    assert "violations=0" in out


def test_verify_single_construction(capsys):
    assert main(["verify", "--suite", "oracle-equivalence", "--runs", "2",
                 "--construction", "parallel-duplicated"]) == 0
    out = capsys.readouterr().out
    assert "1 construction(s)" in out
    assert "mismatches=0" in out


def test_verify_indented_entry_counts_lead_entries_only(capsys):
    # entries away from the indented lead are allowed to exit early, so
    # they must not show up as violations
    assert main(["verify", "--suite", "indented-entry", "--runs", "40",
                 "--seed", "4242"]) == 0
    out = capsys.readouterr().out
    assert "indented-entry: PASS" in out
    assert "indented_lead_entries=" in out
    assert "violations=0" in out


def test_verify_output_pinned(capsys):
    # every suite's full stdout at a small size, byte for byte; each block
    # of the file is a "$ gwlab ARGS" line followed by what it printed
    text = (Path(__file__).parent / "data" / "verify_pinned.txt").read_text()
    blocks = text.split("$ gwlab ")[1:]
    assert len(blocks) == 10
    for block in blocks:
        argv, expected = block.split("\n", 1)
        assert main(argv.split()) == 0
        assert capsys.readouterr().out == expected, argv


def test_verify_failure_exit_code(monkeypatch, capsys):
    def always_bad(real, traj):
        return Outcome({"bad": 1}, 1, [{}])

    monkeypatch.setitem(CHECKS, "always-bad", Check(
        "always-bad", ("single-line",), "test shim", always_bad))
    assert main(["verify", "--suite", "always-bad", "--runs", "1"]) == 1
    assert "always-bad: FAIL (1 violations / 1 checks)" in capsys.readouterr().out


_PARALLEL_RAN = ("  parallel-duplicated: runs=3 {0}\n"
                 "  parallel-thinned: runs=3 {0}\n"
                 "  parallel-shifted: runs=3 {0}\n")
_AUDIT_RAN = ("  single-line: runs=3 checks=0 violations=0\n"
              + _PARALLEL_RAN.format("checks=0 violations=0"))


@pytest.mark.parametrize("argv, ran", [
    ("--suite povratak --runs 20 --window-L 2 --construction parallel-thinned",
     "  parallel-thinned: runs=20 occurrences=0 violations=0 unknowns=0\n"),
    ("--suite uv-verdicts --runs 3 --window-L 0.01",
     "  intersecting: runs=3 records=0 B=0 C=0\n"),
    ("--suite lemma-distance --runs 3 --window-L 0.001",
     _PARALLEL_RAN.format("checks=0 violations=0")),
    ("--suite lemma-replay --runs 3 --window-L 0.001", _AUDIT_RAN),
    ("--suite empty-interval --runs 3 --window-L 0.001", _AUDIT_RAN),
    ("--suite dx-bounds --runs 3 --window-L 0.001",
     "  parallel-thinned: runs=3 records=0 violations=0\n"
     "  parallel-shifted: runs=3 records=0 violations=0\n"),
    # the traversal verdict holds vacuously on a walk that enters no
    # non-zero cluster: on no points, and where every point lies in the
    # zero cluster (all 200 runs of the second call)
    ("--suite cluster-traversal --runs 20 --window-L 0.001",
     "  parallel-duplicated: runs=20 ok=0 undecided=0 violations=0\n"),
    ("--suite cluster-traversal --runs 200 --window-L 0.5 --seed 3",
     "  parallel-duplicated: runs=200 ok=0 undecided=0 violations=0\n"),
    ("--suite indented-entry --runs 3 --window-L 0.001",
     "  parallel-shifted: runs=3 indented_lead_entries=0 violations=0 "
     "undecided=0 early_exits=0\n"),
], ids=["povratak", "uv-verdicts", "lemma-distance", "lemma-replay",
        "empty-interval", "dx-bounds", "cluster-traversal",
        "cluster-traversal-zero-cluster", "indented-entry"])
def test_verify_without_checks_does_not_pass(capsys, argv, ran):
    # runs that give a suite nothing to check must not read as a clean
    # verification; the per-construction lines still show what ran
    assert main(["verify", *argv.split()]) == 1
    out = capsys.readouterr().out
    assert ran in out
    assert out.endswith(": NO CHECKS (0 violations / 0 checks)\n")


@pytest.mark.parametrize("suite", ["lemma-distance", "lemma-replay",
                                   "empty-interval"])
def test_verify_audits_once_per_run(monkeypatch, capsys, suite):
    # each audit suite reads its own counts off one audit_lemmas call per
    # run, so no suite recomputes another's work
    calls = []

    def counting(real, traj):
        calls.append(real.seed)
        return audit_lemmas(real, traj)

    monkeypatch.setattr(checks, "audit_lemmas", counting)
    assert main(["verify", "--suite", suite, "--construction",
                 "parallel-duplicated", "--runs", "3"]) == 0
    assert f"{suite}: PASS" in capsys.readouterr().out
    assert len(calls) == 3


def test_verify_rejects_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope", "--runs", "1"]) == 2
    err = capsys.readouterr().err
    assert "'nope'" in err
    assert all(name in err for name in CHECKS)


def test_verify_runs_suite_registered_after_parser_build(monkeypatch, capsys):
    # the parser is built once per process, so it must not freeze the
    # suite names it saw
    _build_parser()

    def clean(real, traj):
        return Outcome({"good": 1}, 1, [])

    monkeypatch.setitem(CHECKS, "late", Check(
        "late", ("single-line",), "test shim", clean))
    assert main(["verify", "--suite", "late", "--runs", "1"]) == 0
    assert "late: PASS (0 violations / 1 checks)" in capsys.readouterr().out


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_verify_requires_suite(capsys):
    assert main(["verify"]) == 2
    assert "--suite" in capsys.readouterr().err


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_verify_rejects_non_positive_runs(capsys, runs):
    # running nothing must not read as a clean verification
    assert main(["verify", "--suite", "povratak", "--runs", runs]) == 2
    captured = capsys.readouterr()
    assert "error: --runs must be at least 1" in captured.err
    assert "PASS" not in captured.out


def test_verify_rejects_inapplicable_construction(capsys):
    assert main(["verify", "--suite", "cluster-traversal",
                 "--construction", "single-line"]) == 2
    assert "does not apply" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["simulate"]) == 2  # --construction is required
    assert main(["simulate", "--construction", "diagonal"]) == 2
    # the one bound left has no family to choose
    assert main(["bounds", "--family", "intersecting-Bn"]) == 2
    capsys.readouterr()


def test_domain_errors_exit_2(capsys):
    assert main(["simulate", "--construction", "parallel-shifted",
                 "--shift-s", "0.9"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["simulate", "--construction", "parallel-shifted",
                 "--shift-s", "0.9", "--allow-unproven-s"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("window", ["1e19", "1e12"])
def test_window_above_point_cap_exits_2(capsys, monkeypatch, window):
    # refused before any draw: a draw would raise the sentinel instead
    def no_draw(seed):
        raise LookupError("drew")

    monkeypatch.setattr("gwlab.processes.make_generator", no_draw)
    assert main(["simulate", "--construction", "single-line",
                 "--window-L", window]) == 2
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["simulate", "verify", "export-plot-data"])
def test_seeds_outside_64_bits_exit_2(tmp_path, capsys, seed, command):
    # the generators read a seed modulo 2**64: -1 would draw the points
    # of 2**64 - 1, and 2**64 those of 0
    args = {"simulate": ["--construction", "parallel-thinned",
                         "--window-L", "50"],
            "verify": ["--suite", "lemma-replay", "--runs", "1"],
            "export-plot-data": ["--construction", "single-line",
                                 "--out-dir", str(tmp_path / "out")]}
    assert main([command, *args[command], f"--seed={seed}"]) == 2
    assert "--seed must be an integer in [0, 2**64)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Specs outside the domain on which the engines agree: squares the metric
# forms overflow (the first three) or underflow (the fourth), cross-line
# distances round into ties (r * lambda = 1e8), or a duplicated pair's
# bands u // r pass 2**53 (L / r = 1e20), where they once overflowed to no
# events at all
OUT_OF_DOMAIN = [
    ("intersecting", dict(window_L=1e200, rate_lambda=1e-200,
                          alpha=math.pi / 3)),
    ("parallel-duplicated", dict(window_L=20.0, separation_r=1e200)),
    ("parallel-shifted", dict(window_L=25.0, separation_r=1e200,
                              shift_s=5e199)),
    ("intersecting", dict(window_L=1e-160, rate_lambda=1e160, alpha=1.0)),
    ("parallel-duplicated", dict(window_L=30.0, separation_r=1e8)),
    ("parallel-duplicated", dict(window_L=1e10, rate_lambda=1e-6,
                                 separation_r=1e-10)),
]


@pytest.mark.parametrize("construction, params", OUT_OF_DOMAIN)
def test_spec_domain_is_bounded_at_every_door(tmp_path, capsys, construction,
                                              params):
    with pytest.raises(ValidationError, match="must be"):
        ProcessSpec(construction, **params)
    # CLI flags
    assert main(["simulate", "--construction", construction,
                 *(f"--{k.replace('_', '-')}={v!r}"
                   for k, v in params.items())]) == 2
    assert "must be" in capsys.readouterr().err
    # a sweep config
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "name": "x", "construction": construction, "n_runs": 1,
        "base_seed": 0, **params}))
    assert main(["sweep", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # run import
    run = realization_to_dict(generate(ProcessSpec.build(
        construction, window_L=4.0, alpha=1.0, separation_r=1.0,
        shift_s=0.3), 0))
    for k, v in params.items():
        spec = run["spec"]
        (spec["space"] if k in spec["space"] else spec)[k] = v
    with pytest.raises(ValidationError, match="must be"):
        realization_from_dict(run)


@pytest.mark.parametrize("flag", ["--window-L", "--rate-lambda",
                                  "--separation-r"])
def test_non_finite_flags_exit_2(capsys, flag):
    assert main(["simulate", "--construction", "parallel-duplicated",
                 flag, "inf"]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_bounds_table(capsys):
    assert main(["bounds", "--alpha", repr(math.pi / 2), "--n-max", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    n, value = lines[2].split("\t")
    assert n == "3"
    assert float(value) == pytest.approx(intersect_Bn_bound(math.pi / 2, 3),
                                         rel=1e-8)


def test_bounds_prints_every_level(capsys):
    for alpha in (math.pi / 2, 0.4):
        assert main(["bounds", "--alpha", repr(alpha), "--n-max", "12"]) == 0
        assert capsys.readouterr().out == "".join(
            f"{n}\t{intersect_Bn_bound(alpha, n):.9g}\n" for n in range(1, 13))


@pytest.mark.parametrize("alpha, value", [
    ("1e-17", "1.08731273e+18"), ("2e-16", "5.43656366e+16"),
    ("1e-300", "1.08731273e+301"), ("5e-324", "inf")])
def test_bounds_at_a_small_angle(capsys, alpha, value):
    # 1 - exp(-sin alpha) rounds to 0 below alpha ~ 1.1e-16, and loses
    # digits well above it; -expm1(-sin alpha) keeps them, and the bound
    # 4e/sin(alpha) overflows to inf only at the smallest subnormal
    assert main(["bounds", "--alpha", alpha, "--n-max", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"1\t{value}\n2\t{value}\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("n_max", ["0", "-1"],
                         ids=["intersecting-Bn-0", "intersecting-Bn--1"])
def test_bounds_empty_table_exits_2(capsys, n_max):
    assert main(["bounds", "--n-max", n_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "table empty" in captured.err


def readme_commands():
    """Every `$ gwlab ...` line of README.md's code blocks as argv, with the
    output lines shown under it; a trailing backslash continues a line."""
    found = []
    for block in (ROOT / "README.md").read_text().split("```")[1::2]:
        shown = None
        for line in block.replace("\\\n", "").splitlines():
            if line.startswith("$ "):
                shown = []
                found.append((shlex.split(line[2:]), shown))
            elif shown is not None and line.strip():
                shown.append(" ".join(line.split()))
    return [(argv[1:], shown) for argv, shown in found if argv[0] == "gwlab"]


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv, _ in commands} == {
        "simulate", "verify", "sweep", "bounds", "export-plot-data"}
    stale = []
    for argv, _ in commands:
        try:
            _build_parser().parse_args(argv)
        except SystemExit:
            stale.append(argv)
    assert stale == []


def test_readme_simulate_output(capsys):
    [(argv, shown)] = [c for c in readme_commands() if c[0][0] == "simulate"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == shown


def test_sweep_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "name": "mini", "construction": "parallel-duplicated", "n_runs": 3,
        "base_seed": 17, "window_L": 25.0, "separation_r": 1.0,
    }))
    out_dir = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path),
                 "--out-dir", str(out_dir), "--workers", "1"]) == 0
    assert capsys.readouterr().out.count("wrote ") == 3
    rows = read_summaries_csv(out_dir / "mini.csv")
    assert len(rows) == 3
    assert (out_dir / "mini.report.json").exists()
    assert (out_dir / "mini.manifest.json").exists()


def test_sweep_refuses_a_draw_above_the_cap(tmp_path, capsys, monkeypatch):
    # a sweep whose draw expects more points per line than the cap exits 2
    # on generate's message, before the compiled library is asked for
    def no_kernel():
        raise LookupError("drew")

    monkeypatch.setattr(walk, "_kernel", no_kernel)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "name": "huge", "construction": "single-line", "n_runs": 2,
        "base_seed": 1, "window_L": 1e12}))
    assert main(["sweep", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == ("error: a draw would expect 2e+12 points per line, above "
                   "the cap of 1e+08\n")
    assert not (tmp_path / "out" / "huge.csv").exists()


def test_sweep_exits_2_when_memory_runs_out(tmp_path, capsys, monkeypatch):
    # memory the compiled library runs out of is an error line and exit 2,
    # not a traceback and the exit status of a failed verification
    lib = walk._kernel()

    class Kernel:
        gw_draw = lib.gw_draw

        def gw_sweep(self, *args):
            return 2

    monkeypatch.setattr(walk, "_kernel", Kernel)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "name": "mini", "construction": "parallel-thinned", "n_runs": 2,
        "base_seed": 17, "separation_r": 1.0, "thinning_p": 0.5}))
    assert main(["sweep", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: the compiled library ran out of memory\n")


def test_sweep_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "name": "x", "construction": "single-line", "n_runs": 1,
        "base_seed": 0, "mystery_knob": True,
    }))
    assert main(["sweep", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "mystery_knob" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_sweep_rejects_seeds_outside_64_bits(tmp_path, capsys, seed):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "name": "x", "construction": "single-line", "n_runs": 1,
        "base_seed": seed,
    }))
    assert main(["sweep", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "base_seed must be an integer in [0, 2**64)" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("n_runs", 2.5), ("n_runs", True), ("base_seed", "7"),
    ("window_L", "50"), ("rate_lambda", [1.0]), ("separation_r", False),
    ("audit", 1), ("detect_events", "yes"), ("allow_unproven_shift", 0),
    ("workers", 1.0), ("name", 3),
])
def test_sweep_rejects_wrong_types(tmp_path, capsys, key, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "name": "x", "construction": "parallel-duplicated", "n_runs": 2,
        "base_seed": 0, "separation_r": 1.0, key: value,
    }))
    assert main(["sweep", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert f"config key {key!r} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("{", "cannot read config"),
    ("[]", "must be a JSON object"),
    ('{"name": "x", "construction": "single-line"}', "missing config key 'n_runs'"),
])
def test_sweep_rejects_malformed_config(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["sweep", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("construction, params", [
    ("parallel-duplicated", {"separation_r": 1.0, "alpha": 1.0}),
    ("single-line", {"separation_r": 7.0}),
])
def test_sweep_rejects_unused_parameter(tmp_path, capsys, construction,
                                        params):
    # it would land in the CSV without having had any effect
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "name": "x", "construction": construction, "n_runs": 1,
        "base_seed": 0, **params,
    }))
    assert main(["sweep", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "does not use" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["a/b", "", "../escaped", ".."])
def test_sweep_rejects_name_outside_out_dir(tmp_path, capsys, name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "name": name, "construction": "single-line", "n_runs": 1,
        "base_seed": 0,
    }))
    assert main(["sweep", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "is not a file stem" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--construction", "single-line", "--export-run", "{missing}"],
    ["simulate", "--construction", "single-line",
     "--export-binary", "{missing}"],
    ["sweep", "--config", "{config}", "--out-dir", "{file}"],
    ["export-plot-data", "--construction", "single-line",
     "--out-dir", "{file}"],
])
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"name": "x", "construction": "single-line",
                                  "n_runs": 1, "base_seed": 0}))
    paths = dict(missing=tmp_path / "missing" / "x", file=tmp_path / "file",
                 config=config)
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_no_compiler_exits_2_with_one_error_line(tmp_path):
    # with no cached build and neither cc nor gcc on PATH, a command fails
    # on one error line naming both, and leaves the cache empty
    cache, bare = tmp_path / "cache", tmp_path / "bin"
    cache.mkdir()
    bare.mkdir()
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PATH=str(bare),
               PYTHONPATH=os.pathsep.join(filter(None, (
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-m", "gwlab.cli", "simulate", "--construction",
         "single-line", "--seed", "7"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("error: ") and "cc" in line and "gcc" in line
    assert list(cache.iterdir()) == []


def test_export_plot_data_parallel(tmp_path, capsys):
    out_dir = tmp_path / "plots"
    assert main(["export-plot-data", "--construction", "parallel-duplicated",
                 "--seed", "9", "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    tlines = (out_dir / "prefix_trajectory.csv").read_text().splitlines()
    assert tlines[0] == "step,line,u"

    spec = ProcessSpec.build("parallel-duplicated", window_L=25.0,
                             separation_r=1.0)
    traj = run_walk(generate(spec, 9))
    assert len(tlines) == 1 + len(traj)
    step, line, u = tlines[1].split(",")
    assert (int(step), int(line), float(u)) == (1, traj.lines[0], traj.us[0])

    clines = (out_dir / "prefix_clusters.csv").read_text().splitlines()
    assert clines[0] == "cluster_index,signed_index,lo_u,hi_u,lead_u,size,is_zero"
    assert len(clines) > 1
    rows = [row.split(",") for row in clines[1:]]
    zero_rows = [row for row in rows if row[6] == "1"]
    assert len(zero_rows) == 1
    assert zero_rows[0][1] == "0"  # the zero cluster has signed index 0


@pytest.mark.parametrize("construction", ["parallel-duplicated",
                                          "parallel-thinned",
                                          "parallel-shifted"])
def test_export_plot_data_clusters_pinned(tmp_path, capsys, construction):
    # prefix_clusters.csv byte for byte, as recorded before the cluster
    # rule moved into analysis.clusters_of
    out_dir = tmp_path / construction
    assert main(["export-plot-data", "--construction", construction,
                 "--seed", "9", "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    pins = json.loads((Path(__file__).parent / "data"
                       / "cluster_pins.json").read_text())
    got = (out_dir / "prefix_clusters.csv").read_text()
    assert got == pins["prefix_clusters"][construction]


@pytest.mark.parametrize("construction", ["single-line", "intersecting"])
def test_export_plot_data_no_clusters(tmp_path, capsys, construction):
    out_dir = tmp_path / construction
    assert main(["export-plot-data", "--construction", construction,
                 "--seed", "9", "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    clines = (out_dir / "prefix_clusters.csv").read_text().splitlines()
    assert len(clines) == 1  # header only: no shadow clusters on these spaces


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_bench_traced_functions_exist(bench_tracer):
    # bench/tracer.py wraps gwlab functions by name for `bench/run.py
    # --trace 1`; a renamed function would only break that run
    missing = [f"{mod}.{name}" for mod, funcs in bench_tracer.TRACED.items()
               for name in funcs
               if not callable(getattr(importlib.import_module(mod), name,
                                       None))]
    assert missing == []


def test_bench_tracer_counts_real_results(bench_tracer, spec_for):
    # the traced pass counts each call's work from what its result carries
    # (an EventTable's len and its rows' .occurred, a trajectory's len, the
    # audit's check tallies); a result that stops carrying it would only
    # break `bench/run.py --trace 1`
    count = {name: fn for funcs in bench_tracer.TRACED.values()
             for name, (_, fn) in funcs.items()}
    for construction in CONSTRUCTIONS:
        real = generate(spec_for(construction, window_L=50.0), 3)
        traj = run_walk(real)
        results = {"generate": real, "run_walk": traj}
        if construction != "intersecting":
            results["audit_lemmas"] = audit_lemmas(real, traj)
        if construction.startswith("parallel"):
            results["detect_A_events"] = detect_A_events(real, traj)
        if construction in ("parallel-thinned", "parallel-shifted"):
            results["check_povratak"] = check_povratak(real, traj)
        for name, res in results.items():
            got = count[name](res, (real, traj), {})
            assert got and all(type(v) is int for v in got.values()), (
                construction, name, got)


@pytest.mark.parametrize("workload", [
    w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())
    ["workloads"]])
def test_bench_smoke_pass(workload):
    # the benchmark builds ExperimentConfig, passes CLI flags and reads
    # result attributes in its traced spans; a traced smoke pass fails on
    # any of those the library no longer offers
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
