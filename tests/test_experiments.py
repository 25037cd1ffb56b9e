"""Batch drivers: config handling, deterministic sweeps, worker equivalence,
coupled windows, aggregation, and the CSV/report/manifest outputs."""

import dataclasses
import json
import math
import os
import re
import threading

import pytest

from gwlab import (
    CONSTRUCTIONS,
    PARALLEL_CONSTRUCTIONS,
    RNG_ALGORITHM,
    ExperimentConfig,
    ValidationError,
    aggregate,
    coupled_window_study,
    generate,
    load_config,
    read_summaries_csv,
    run_experiment,
    sign_test_p,
    write_outputs,
    write_summaries_csv,
)
from gwlab import analysis, experiments, processes, walk
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


def test_pooled_chunks_write_the_serial_bytes(tmp_path, monkeypatch):
    # a sweep and a coupled study that span several chunks of runs give
    # the same rows, CSV and report with one worker and with two
    monkeypatch.setattr(experiments, "CHUNK_POINTS", 250)
    calls = []
    counts = experiments.sweep_counts
    monkeypatch.setattr(experiments, "sweep_counts",
                        lambda spec, D, N, **kw: calls.append(len(N) // 2)
                        or counts(spec, D, N, **kw))
    cfg = cfg_for("parallel-shifted", n_runs=7)
    serial = run_experiment(cfg)
    assert calls == [2, 2, 2, 1]  # 100 points expected per run
    pooled = run_experiment(dataclasses.replace(cfg, workers=2))
    assert pooled == serial
    outputs = [write_outputs(cfg, rows, tmp_path / name)
               for name, rows in (("serial", serial), ("pooled", pooled))]
    for kind in ("csv", "report"):
        assert len({open(paths[kind], "rb").read() for paths in outputs}) == 1
    calls.clear()
    serial = coupled_window_study(cfg, [10.0, 25.0])
    assert calls == [2] * 7  # a run at two windows expects 140 points
    assert coupled_window_study(dataclasses.replace(cfg, workers=2),
                                [10.0, 25.0]) == serial


def test_outputs_rewrite_a_longer_file_in_place(tmp_path):
    # a sweep's outputs over longer files of the same names are the bytes
    # of a fresh write
    cfg = cfg_for("parallel-thinned", n_runs=6)
    rows = run_experiment(cfg)
    fresh = write_outputs(cfg, rows[:2], tmp_path / "fresh")
    again = write_outputs(cfg, rows, tmp_path / "again")
    write_outputs(cfg, rows[:2], tmp_path / "again")
    for kind in ("csv", "report"):
        assert open(again[kind], "rb").read() == open(fresh[kind], "rb").read()
    assert json.loads(open(again["manifest"]).read())["config"]["n_runs"] == 6


def read_through_fifo(path, write):
    """The bytes write() sends through a FIFO made at path, read by a
    thread as they come: a target that cannot seek or be cut."""
    os.mkfifo(path)
    got = []
    reader = threading.Thread(target=lambda: got.append(path.read_bytes()),
                              daemon=True)
    reader.start()
    write()
    reader.join(30)
    return got[0]


def test_outputs_write_through_a_pipe(tmp_path, spec_for):
    # a FIFO takes each writer's bytes in order, those of a regular file
    rows = run_experiment(cfg_for("parallel-thinned", n_runs=3))
    write_summaries_csv(rows, tmp_path / "fresh.csv")
    assert read_through_fifo(
        tmp_path / "csv", lambda: write_summaries_csv(rows, tmp_path / "csv")
    ) == (tmp_path / "fresh.csv").read_bytes()
    traj = walk.run_walk(generate(spec_for("parallel-thinned",
                                           window_L=50.0), 1))
    walk.trajectory_to_binary(traj, tmp_path / "fresh.bin")
    assert read_through_fifo(
        tmp_path / "bin",
        lambda: walk.trajectory_to_binary(traj, tmp_path / "bin")
    ) == (tmp_path / "fresh.bin").read_bytes()


def test_failed_rewrite_keeps_no_old_tail(tmp_path, monkeypatch):
    # a CSV rewrite over a longer file that fails halfway through its bytes
    # leaves those bytes alone, as a fresh write that failed would, and
    # none of the old file's tail
    rows = run_experiment(cfg_for("parallel-thinned", n_runs=6))
    path, fresh = tmp_path / "runs.csv", tmp_path / "fresh.csv"
    write_summaries_csv(rows, path)
    write_summaries_csv(rows[:2], fresh)
    want = fresh.read_bytes()

    class HalfWrite:
        """A file whose write of more than a byte writes half and fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def write(self, data):
            if len(data) > 1:
                self.fh.write(bytes(data)[:len(data) // 2])
                raise OSError("no space left")
            return self.fh.write(data)

    monkeypatch.setattr(walk, "open", lambda *a: HalfWrite(open(*a)),
                        raising=False)
    with pytest.raises(OSError, match="no space left"):
        write_summaries_csv(rows[:2], path)
    monkeypatch.undo()
    assert path.read_bytes() == want[:len(want) // 2]


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
    # a sweep draws each chunk of runs in one compiled call, gw_draw, and
    # walks and counts it in another, gw_sweep: it draws no run through
    # generate, builds no Realization, runs no walk of its own, builds no
    # Trajectory and calls none of the per-pass analysis functions
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep drew or walked a run, or called a "
                             "per-pass analysis function")

    for module in (experiments, analysis, walk, processes):
        for name in ("audit_lemmas", "detect_A_events", "compute_Dx",
                     "cluster_visits", "detect_crossings",
                     "extract_halfline_changes", "run_walk", "_trajectory",
                     "generate", "couple_restrict", "Realization"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    lib, calls = walk._kernel(), []

    class Counting:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(lib, name)

    monkeypatch.setattr(walk, "_kernel", Counting)
    for construction in CONSTRUCTIONS:
        calls.clear()
        rows = run_experiment(cfg_for(construction, n_runs=3))
        assert calls == ["gw_draw", "gw_sweep"]
        assert [r.run_index for r in rows] == [0, 1, 2]
        assert all((r.a_events is None) == (construction not in
                                            PARALLEL_CONSTRUCTIONS)
                   and (r.lemma_failures is None) == (
                       construction == "intersecting") for r in rows)


def test_sweep_takes_integer_parameters():
    # a config's numbers may be JSON integers: a sweep and a coupled study
    # of integer window_L, separation_r and shift_s give the rows of their
    # floats, and the points generate draws
    for construction in CONSTRUCTIONS:
        ints = cfg_for(construction, window_L=25, **(
            {"separation_r": 2, "shift_s": 1}
            if construction == "parallel-shifted" else {}))
        floats = dataclasses.replace(ints, **{
            k: float(getattr(ints, k)) for k in ("window_L", "separation_r",
                                                 "shift_s")
            if getattr(ints, k) is not None})
        rows = run_experiment(ints)
        assert rows == run_experiment(floats)
        assert [r.n_points for r in rows] == [
            generate(floats.to_spec(), r.seed).n_points for r in rows]
        assert coupled_window_study(ints, [5, 25]) == coupled_window_study(
            floats, [5.0, 25.0])


def test_draw_refuses_by_its_status(monkeypatch):
    # gw_draw's status names the first rule of check_invariants a packed
    # run breaks, or memory that ran out, before gw_sweep is called
    lib, calls = walk._kernel(), []

    class Kernel:
        def __init__(self, status):
            self.status = status

        def gw_draw(self, *args):
            calls.append("gw_draw")
            return self.status

        def gw_sweep(self, *args):
            calls.append("gw_sweep")
            return lib.gw_sweep(*args)

    for status, error, message in (
            (2, MemoryError, "the compiled library ran out of memory"),
            *((5 + i, ValidationError, rule)
              for i, rule in enumerate(processes.INVARIANTS))):
        monkeypatch.setattr(walk, "_kernel", lambda: Kernel(status))
        calls.clear()
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            run_experiment(cfg_for("parallel-shifted", n_runs=2))
        assert calls == ["gw_draw"]
    # and the compiled check itself: line 1's window ends narrowed below
    # where the draw cuts it put its points outside the window
    monkeypatch.undo()
    monkeypatch.setattr(experiments, "drawn_windows", lambda spec: (
        (-spec.window_L, spec.window_L), (-1.0, 1.0)))
    with pytest.raises(ValidationError,
                       match="^line1 points outside window$"):
        run_experiment(cfg_for("intersecting", n_runs=2))


def test_sweep_caps_expected_points(monkeypatch):
    # a sweep or coupled study whose draw expects more than
    # MAX_EXPECTED_POINTS per line is refused before anything is drawn,
    # with generate's message: a draw here would fail with the sentinel
    def no_draw():
        raise LookupError("drew")

    monkeypatch.setattr(walk, "_kernel", no_draw)
    for L, rate in ((1e19, 1.0), (1e12, 1.0), (1e5, 1e4), (5.0000001e7, 1.0)):
        cfg = cfg_for("single-line", window_L=L, rate_lambda=rate)
        with pytest.raises(ValidationError, match="above the cap"):
            run_experiment(cfg)
        with pytest.raises(ValidationError, match="above the cap"):
            coupled_window_study(cfg, [1.0, L])
        with pytest.raises(ValidationError, match="above the cap"):
            generate(cfg.to_spec(), 1)
    # exactly at the cap is allowed, and reaches the draw
    with pytest.raises(LookupError):
        run_experiment(cfg_for("parallel-duplicated", window_L=5e7))
    with pytest.raises(LookupError):
        coupled_window_study(cfg_for("parallel-duplicated"), [1.0, 5e7])
