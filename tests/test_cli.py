"""CLI behavior, exercised in-process through main(argv)."""

import json
import math
from pathlib import Path

import pytest

from gwlab import (
    CONSTRUCTIONS,
    ProcessSpec,
    __version__,
    generate,
    intersect_Bn_bound,
    read_summaries_csv,
    realization_from_dict,
    run_walk,
    trajectory_from_binary,
)
from gwlab.checks import CHECKS, Check, Outcome
from gwlab.cli import DEFAULT_SEED, main
from gwlab.walk import trajectory_to_dicts


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
        return {"always-bad": Outcome({"bad": 1}, 1, [{}])}

    monkeypatch.setitem(CHECKS, "always-bad", Check(
        "always-bad", ("single-line",), "test shim", ("bad",), always_bad))
    assert main(["verify", "--suite", "always-bad", "--runs", "1"]) == 1
    assert "always-bad: FAIL (1 violations / 1 checks)" in capsys.readouterr().out


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
    assert main(["bounds"]) == 2    # --family is required
    capsys.readouterr()


def test_domain_errors_exit_2(capsys):
    assert main(["simulate", "--construction", "parallel-shifted",
                 "--shift-s", "0.9"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["simulate", "--construction", "parallel-shifted",
                 "--shift-s", "0.9", "--allow-unproven-s"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--window-L", "--rate-lambda",
                                  "--separation-r"])
def test_non_finite_flags_exit_2(capsys, flag):
    assert main(["simulate", "--construction", "parallel-duplicated",
                 flag, "inf"]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_bounds_table(capsys):
    assert main(["bounds", "--family", "intersecting-Bn",
                 "--alpha", repr(math.pi / 2), "--n-max", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    n, value = lines[2].split("\t")
    assert n == "3"
    assert float(value) == pytest.approx(intersect_Bn_bound(math.pi / 2, 3),
                                         rel=1e-8)


def test_bounds_parallel_family(capsys):
    assert main(["bounds", "--family", "parallel-Am", "--separation-r", "1.0",
                 "--n-max", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [row.split("\t")[0] for row in lines] == ["0", "1", "2"]


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


def test_sweep_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "name": "x", "construction": "single-line", "n_runs": 1,
        "base_seed": 0, "mystery_knob": True,
    }))
    assert main(["sweep", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "mystery_knob" in capsys.readouterr().err


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
