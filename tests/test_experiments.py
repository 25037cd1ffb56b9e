"""Batch drivers: config handling, deterministic sweeps, worker equivalence,
coupled windows, aggregation, and the CSV/report/manifest outputs."""

import dataclasses
import json
import math
import os

import pytest

from gwlab import (
    CONSTRUCTIONS,
    PARALLEL_CONSTRUCTIONS,
    RNG_ALGORITHM,
    ExperimentConfig,
    ValidationError,
    aggregate,
    coupled_window_study,
    load_config,
    read_summaries_csv,
    run_experiment,
    sign_test_p,
    write_outputs,
    write_summaries_csv,
)
from gwlab import analysis, experiments
from gwlab.experiments import CSV_COLUMNS, mean_and_se


def cfg_for(construction, n_runs=4, **kw):
    base = dict(name="t", construction=construction, n_runs=n_runs,
                base_seed=99, window_L=25.0)
    if construction == "intersecting":
        base["alpha"] = math.pi / 3
    elif construction != "single-line":
        base["separation_r"] = 1.0
    if construction == "parallel-thinned":
        base["thinning_p"] = 0.5
    if construction == "parallel-shifted":
        base["shift_s"] = 0.3
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValidationError):
        cfg_for("diagonal")
    with pytest.raises(ValidationError):
        cfg_for("single-line", n_runs=0)
    with pytest.raises(ValidationError):
        cfg_for("single-line", workers=0)


def test_config_name_is_a_file_stem():
    # name is the stem of the output files, so it may not leave --out-dir
    for name in ("", ".", "..", "a/b", "../escaped", "/abs", "a\0b"):
        with pytest.raises(ValidationError, match="not a file stem"):
            cfg_for("single-line", name=name)
    for name in ("probe", "x.y", "..x", *CONSTRUCTIONS):
        assert cfg_for("single-line", name=name).name == name


def test_to_spec_surfaces_domain_errors():
    # missing per-construction parameters fail at spec build time
    with pytest.raises(ValidationError):
        cfg_for("intersecting", alpha=None).to_spec()
    with pytest.raises(ValidationError):
        cfg_for("parallel-thinned", thinning_p=None).to_spec()
    with pytest.raises(ValidationError):
        cfg_for("parallel-shifted", shift_s=0.9).to_spec()
    assert cfg_for("parallel-shifted", shift_s=0.9,
                   allow_unproven_shift=True).to_spec().shift_s == 0.9


def test_run_experiment_preflights_before_work():
    bad = cfg_for("intersecting", alpha=None, workers=3)
    with pytest.raises(ValidationError):
        run_experiment(bad)


def test_load_config(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({
        "name": "demo", "construction": "parallel-thinned", "n_runs": 3,
        "base_seed": 5, "separation_r": 1.0, "thinning_p": 0.2,
    }))
    cfg = load_config(p)
    assert cfg.name == "demo" and cfg.thinning_p == 0.2
    assert cfg.window_L == 50.0  # default

    p.write_text(json.dumps({"name": "x", "construction": "single-line",
                             "n_runs": 1, "base_seed": 0, "sep_r": 1.0}))
    with pytest.raises(ValidationError, match="sep_r"):
        load_config(p)


def test_run_experiment_deterministic():
    cfg = cfg_for("parallel-thinned", n_runs=5)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a == b
    assert [r.run_index for r in a] == [0, 1, 2, 3, 4]
    assert len({r.seed for r in a}) == 5
    assert all(r.lemma_failures == 0 for r in a)


def test_worker_count_equivalence():
    serial = run_experiment(cfg_for("parallel-duplicated", n_runs=6))
    pooled = run_experiment(cfg_for("parallel-duplicated", n_runs=6, workers=2))
    assert serial == pooled
    cfg = cfg_for("parallel-thinned", n_runs=5, window_L=50.0)
    serial = coupled_window_study(cfg, [10.0, 25.0, 50.0])
    pooled = coupled_window_study(dataclasses.replace(cfg, workers=2),
                                  [10.0, 25.0, 50.0])
    assert serial == pooled


def test_pool_size_capped(monkeypatch):
    # a fork pool starts every worker at once, so the pool never outnumbers
    # the runs or the cores; a pool of one runs in-process.  The fake pool
    # records its size and maps in-process: nothing is forked
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
    serial = run_experiment(cfg_for("parallel-duplicated", n_runs=3))
    coupled = coupled_window_study(cfg_for("parallel-duplicated", n_runs=3),
                                   [10.0, 25.0])
    for cores, workers, n_runs, size in [(64, 500, 3, 3), (2, 500, 3, 2),
                                         (64, 2, 3, 2), (None, 500, 3, None),
                                         (64, 500, 1, None)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        cfg = cfg_for("parallel-duplicated", n_runs=n_runs, workers=workers)
        sizes.clear()
        rows = run_experiment(cfg)
        assert sizes == ([] if size is None else [size])
        assert rows == serial[:n_runs]
        # a coupled study sizes its pool the same way
        sizes.clear()
        res = coupled_window_study(cfg, [10.0, 25.0])
        assert sizes == ([] if size is None else [size])
        assert res == {L: col[:n_runs] for L, col in coupled.items()}


def test_summary_optional_columns():
    inter = run_experiment(cfg_for("intersecting", n_runs=2))
    assert all(r.a_events is None for r in inter)     # no parallel events
    assert all(r.lemma_failures is None for r in inter)  # audit skipped

    single = run_experiment(cfg_for("single-line", n_runs=2))
    assert all(r.a_events is None for r in single)
    assert all(r.lemma_failures == 0 for r in single)

    off = run_experiment(cfg_for("parallel-duplicated", n_runs=2,
                                 audit=False, detect_events=False))
    assert all(r.a_events is None and r.lemma_failures is None for r in off)

    on = run_experiment(cfg_for("parallel-duplicated", n_runs=2))
    assert all(r.a_events is not None and r.lemma_failures == 0 for r in on)


def test_coupled_window_study():
    cfg = cfg_for("parallel-thinned", n_runs=4, window_L=50.0)
    res = coupled_window_study(cfg, [50.0, 25.0])
    assert sorted(res) == [25.0, 50.0]
    for small, big in zip(res[25.0], res[50.0]):
        assert small.run_index == big.run_index
        assert small.seed == big.seed
        assert small.window_L == 25.0 and big.window_L == 50.0
        assert small.n_steps <= big.n_steps
        assert small.n_points <= big.n_points
    # a repeated window is one window: each run is summarized once there
    res = coupled_window_study(dataclasses.replace(cfg, n_runs=3),
                               [25.0, 25.0, 10.0])
    assert sorted(res) == [10.0, 25.0]
    assert [row.run_index for row in res[25.0]] == [0, 1, 2]
    with pytest.raises(ValidationError):
        coupled_window_study(cfg, [])
    with pytest.raises(ValidationError):
        coupled_window_study(cfg, [-1.0, 25.0])


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_coupled_window_study_at_one_window_is_the_sweep(construction):
    cfg = cfg_for(construction, n_runs=3)
    assert coupled_window_study(cfg, [cfg.window_L]) == {
        cfg.window_L: run_experiment(cfg)}


def test_sweep_keeps_an_int_window(tmp_path):
    # the sweep runs the config's spec as given: an int window_L is
    # written as an int, as it always was
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({
        "name": "int-L", "construction": "parallel-shifted", "n_runs": 3,
        "base_seed": 5, "window_L": 50, "separation_r": 1.0,
        "shift_s": 0.3}))
    cfg = load_config(p)
    paths = write_outputs(cfg, run_experiment(cfg), tmp_path)
    assert open(paths["csv"], encoding="utf-8").read() == (
        ",".join(CSV_COLUMNS) + "\n"
        "0,18074882946671919669,parallel-shifted,1.0,1.0,0.3,,,50,228,122,"
        "truncated,2,28,8,0\n"
        "1,16247700015443706586,parallel-shifted,1.0,1.0,0.3,,,50,220,124,"
        "truncated,1,26,4,0\n"
        "2,2611768881034074630,parallel-shifted,1.0,1.0,0.3,,,50,206,110,"
        "truncated,1,28,3,0\n")


def test_sign_test_p():
    assert sign_test_p([1.0] * 10) == pytest.approx(0.5 ** 10)
    assert sign_test_p([1.0, 1.0, 1.0, -1.0]) == pytest.approx(5 / 16)
    assert sign_test_p([0.0, 0.0]) == 1.0
    assert sign_test_p([]) == 1.0
    assert sign_test_p([-1.0, -2.0]) == 1.0


def test_mean_and_se():
    m, se = mean_and_se([1.0, 2.0, 3.0])
    assert m == 2.0
    assert se == pytest.approx(1.0 / math.sqrt(3.0))
    m1, se1 = mean_and_se([5.0])
    assert m1 == 5.0 and math.isnan(se1)
    m0, se0 = mean_and_se([])
    assert math.isnan(m0) and math.isnan(se0)


def test_aggregate():
    rows = run_experiment(cfg_for("parallel-duplicated", n_runs=5))
    agg = aggregate(rows)
    assert agg["n_runs"] == 5
    assert agg["audited_runs"] == 5
    assert agg["lemma_failures_total"] == 0
    assert sum(agg["stop_reasons"].values()) == 5
    assert agg["crossings"]["min"] <= agg["crossings"]["mean"] <= agg["crossings"]["max"]


def test_csv_roundtrip(tmp_path):
    rows = run_experiment(cfg_for("parallel-thinned", n_runs=4))
    rows += run_experiment(cfg_for("intersecting", n_runs=2))
    path = tmp_path / "rows.csv"
    write_summaries_csv(rows, path)
    assert read_summaries_csv(path) == rows
    header = path.read_text().splitlines()[0]
    assert tuple(header.split(",")) == CSV_COLUMNS


def test_csv_header_rejected(tmp_path):
    path = tmp_path / "rows.csv"
    write_summaries_csv(run_experiment(cfg_for("single-line", n_runs=1)), path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("crossings", "xings")
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError):
        read_summaries_csv(bad)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda lines: lines[:1] + [",".join(lines[1].split(",")[:4])],
                 id="short-row"),
    pytest.param(lambda lines: lines[:1] + [lines[1] + ",7"], id="extra-cell"),
    pytest.param(lambda lines: lines[:1] + ["x" + lines[1][lines[1].index(","):]],
                 id="non-numeric-run-index"),
    pytest.param(lambda lines: lines[:1] + [lines[1].replace(",1.0,", ",fast,")],
                 id="non-numeric-lambda"),
    pytest.param(lambda lines: [], id="empty-file"),
])
def test_csv_malformed_rows_rejected(tmp_path, edit):
    path = tmp_path / "rows.csv"
    write_summaries_csv(run_experiment(cfg_for("single-line", n_runs=2)), path)
    lines = edit(path.read_text().splitlines())
    assert lines != path.read_text().splitlines()[:2]
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ValidationError):
        read_summaries_csv(bad)


def test_write_outputs(tmp_path):
    cfg = cfg_for("parallel-shifted", n_runs=3)
    rows = run_experiment(cfg)
    p1 = write_outputs(cfg, rows, tmp_path / "a")
    p2 = write_outputs(cfg, rows, tmp_path / "b")
    for kind in ("csv", "report"):
        b1 = open(p1[kind], "rb").read()
        b2 = open(p2[kind], "rb").read()
        assert b1 == b2  # byte-determinism contract

    manifest = json.loads(open(p1["manifest"]).read())
    assert manifest["rng_algorithm"] == RNG_ALGORITHM
    assert manifest["config"]["construction"] == "parallel-shifted"
    assert manifest["outputs"] == ["t.csv", "t.report.json"]
    assert "created_utc" in manifest and "version" in manifest

    report = json.loads(open(p1["report"]).read())
    assert report == aggregate(rows)


def test_sweep_summarizes_each_run_in_one_compiled_call(monkeypatch):
    # a sweep run's counts come from summary_counts' one compiled call,
    # not from the per-pass analysis functions, which it must not call
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep called a per-pass analysis function")

    for module in (experiments, analysis):
        for name in ("audit_lemmas", "detect_A_events", "compute_Dx",
                     "cluster_visits", "detect_crossings",
                     "extract_halfline_changes"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for construction in CONSTRUCTIONS:
        rows = run_experiment(cfg_for(construction, n_runs=3))
        assert [r.run_index for r in rows] == [0, 1, 2]
        assert all((r.a_events is None) == (construction not in
                                            PARALLEL_CONSTRUCTIONS)
                   and (r.lemma_failures is None) == (
                       construction == "intersecting") for r in rows)
