import csv
import json
import re

import pytest

from meanfield_annealer import cli, spinwave, transitions
from meanfield_annealer.cli import (CSV_HEADER, MAX_STEPS, _fmt, emit_figure_dataset,
                                    load_config, main, run)
from meanfield_annealer.errors import ConfigError
from conftest import count_calls


def write_cfg(tmp_path, name="cfg.json", **kw):
    path = tmp_path / name
    path.write_text(json.dumps(kw))
    return str(path)


SMALL_SCAN = dict(task="scan", coupling="dense", axis2="xi", axis2_min=-4.0,
                  axis2_max=0.0, axis2_steps=2, s_steps=21, gaps=True,
                  output="out.csv")

# the saddle path: a column with a transition (xi12 = -4) and one without (8)
SPARSE_SCAN = dict(task="scan", coupling="sparse", axis2="xi", axis2_min=-4.0,
                   axis2_max=8.0, axis2_steps=2, s_steps=21, gaps=False,
                   output="sparse.csv")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_load_config_validation(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.json"))
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(tmp_path))   # a directory
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    bad.write_text('{"seed": 1' + "0" * 5000 + "}")   # beyond int's default digit limit
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    with pytest.raises(ConfigError, match="unknown config keys: nope, wat"):
        load_config(write_cfg(tmp_path, "u.json", nope=1, wat=2))
    with pytest.raises(ConfigError, match="task"):
        load_config(write_cfg(tmp_path, "t.json", task="fly"))
    with pytest.raises(ConfigError, match="axis2_min"):
        load_config(write_cfg(tmp_path, "a.json", axis2="xi"))
    with pytest.raises(ConfigError, match="n_starts must be at least 8"):
        load_config(write_cfg(tmp_path, "n.json", s_steps=5, n_starts=4))
    for key, value in (("s_steps", "five"), ("axis2_steps", 2.5),
                       ("n_starts", None), ("seed", "x"), ("seed", True)):
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            load_config(write_cfg(tmp_path, "i.json", **{key: value}))
    for key, value in (("s_min", -0.5), ("s_max", 1.5), ("s_min", "0.2"), ("s_max", None)):
        with pytest.raises(ConfigError, match=f"{key} must be a number in"):
            load_config(write_cfg(tmp_path, "s.json", **{key: value}))
    for value in ([1.5], [-0.1], ["0.2"], [True], 0.5, None, []):
        with pytest.raises(ConfigError, match="ed_s_points must be a list"):
            load_config(write_cfg(tmp_path, "p.json", ed_s_points=value))
    for value in (100, [], [100, 102], [0], [2004], [100.0], [True], None, [100], [100, 100]):
        with pytest.raises(ConfigError, match="ed_sizes must be a non-empty list"):
            load_config(write_cfg(tmp_path, "z.json", ed_sizes=value))
    for coupling, value in (("dense", 6), ("dense", 0), ("dense", 2004), ("dense", 200.0),
                            ("dense", "200"), ("sparse", 7), ("sparse", 16),
                            ("sparse", -2), ("sparse", True)):
        with pytest.raises(ConfigError, match=f"ed_n must be null or, for the {coupling}"):
            load_config(write_cfg(tmp_path, "e.json", coupling=coupling, ed_n=value))
    for coupling, value in (("dense", None), ("dense", 4), ("dense", 2000),
                            ("sparse", None), ("sparse", 2), ("sparse", 14)):
        cfg = load_config(write_cfg(tmp_path, "ok.json", coupling=coupling, ed_n=value))
        assert cfg["ed_n"] == value
    for task in ("gap", "min-gap", "optimize-xi"):
        with pytest.raises(ConfigError, match="dense model only"):
            load_config(write_cfg(tmp_path, "d.json", task=task, coupling="sparse"))
    cfg = load_config(write_cfg(tmp_path, "ok.json", s_min=0, s_max=1, ed_s_points=[0, 0.5, 1],
                                ed_sizes=[4, 2000]))
    assert cfg["ed_sizes"] == [4, 2000]


def test_scan_csv_layout_and_summary(tmp_path):
    cfg = write_cfg(tmp_path, **SMALL_SCAN)
    code = run(cfg, out_dir=str(tmp_path))
    assert code == 0
    rows = read_rows(tmp_path / "out.csv")
    with open(tmp_path / "out.csv", "rb") as fh:
        first = fh.readline()
    assert first == (",".join(CSV_HEADER) + "\r\n").encode()
    assert len(rows) == 2 * 21
    assert rows[0]["axis2"] == "-4"
    summary = json.loads((tmp_path / "out.summary.json").read_text())
    for key in ("task", "transition_reports", "xi_star", "wall_time_s", "versions"):
        assert key in summary
    assert summary["task"] == "scan"
    reports = summary["transition_reports"]
    assert [r["axis2"] for r in reports] == [-4.0, 0.0]
    assert reports[0]["found"] is False
    assert reports[1]["found"] is True
    assert summary["lambda_reference"]["mapping"] == "lambda = -xi/2"
    assert summary["versions"]["meanfield_annealer"]


def test_scan_determinism_byte_identical(tmp_path):
    cfg1 = write_cfg(tmp_path, "c1.json", **{**SMALL_SCAN, "output": "a.csv",
                                             "seed": 11})
    cfg2 = write_cfg(tmp_path, "c2.json", **{**SMALL_SCAN, "output": "b.csv",
                                             "seed": 11})
    assert run(cfg1, out_dir=str(tmp_path)) == 0
    assert run(cfg2, out_dir=str(tmp_path)) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_scan_worker_pool_matches_serial(tmp_path):
    cfg1 = write_cfg(tmp_path, "c1.json", **{**SMALL_SCAN, "output": "w1.csv"})
    cfg2 = write_cfg(tmp_path, "c2.json", **{**SMALL_SCAN, "output": "w2.csv"})
    assert run(cfg1, out_dir=str(tmp_path), workers=1) == 0
    assert run(cfg2, out_dir=str(tmp_path), workers=2) == 0
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()
    # fig4 maps its xi columns through the same pool
    for workers in (1, 2):
        emit_figure_dataset("fig4", out_dir=str(tmp_path / f"fig4_w{workers}"), s_steps=11,
                            axis2_steps=3, workers=workers)
    assert ((tmp_path / "fig4_w1" / "fig4.csv").read_bytes()
            == (tmp_path / "fig4_w2" / "fig4.csv").read_bytes())


def test_sparse_scan_byte_identical_on_rerun_and_worker_pool(tmp_path):
    outputs = []
    for name, workers in (("s1", 1), ("s2", 1), ("s3", 2)):
        cfg = write_cfg(tmp_path, f"{name}.json", **{**SPARSE_SCAN, "output": f"{name}.csv"})
        assert run(cfg, out_dir=str(tmp_path), workers=workers) == 0
        outputs.append((tmp_path / f"{name}.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(read_rows(tmp_path / "s1.csv")) == 2 * 21
    reports = json.loads((tmp_path / "s1.summary.json").read_text())["transition_reports"]
    assert [(r["axis2"], r["found"]) for r in reports] == [(-4.0, True), (8.0, False)]


def test_rerun_refuses_existing_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **SMALL_SCAN)
    assert run(cfg, out_dir=str(tmp_path)) == 0
    assert run(cfg, out_dir=str(tmp_path)) == 2
    assert "refusing to overwrite" in capsys.readouterr().err


def test_main_exit_codes(tmp_path, capsys):
    assert main(["scan"]) == 2  # missing --config
    cfg = write_cfg(tmp_path, **{**SMALL_SCAN, "task": "gap", "output": "g.csv",
                                 "axis2": None})
    # task mismatch between command line and config
    assert main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "does not match" in capsys.readouterr().err
    # malformed values are config errors, not tracebacks
    bad = write_cfg(tmp_path, "bad.json", **{**SMALL_SCAN, "seed": "x"})
    assert main(["scan", "--config", bad, "--out", str(tmp_path)]) == 2
    assert "seed must be an integer" in capsys.readouterr().err
    nan = float("nan")  # json.dumps writes NaN, which json.load reads back
    for task, key, value in (("ed-check", "ed_n", 6), ("ed-check", "ed_sizes", 100),
                             ("ed-check", "ed_s_points", [1.5]), ("ed-check", "ed_sizes", [100]),
                             ("ed-check", "ed_sizes", [100, 100]), ("ed-check", "ed_s_points", []),
                             ("scan", "s_min", -0.5),
                             ("scan", "xi", "x"), ("scan", "xi", 10 ** 400),
                             ("scan", "h1", "x"), ("scan", "h2", nan),
                             ("scan", "axis2_min", "x"), ("scan", "axis2_max", nan),
                             ("scan", "jump_threshold", "x"), ("scan", "jump_threshold", 0.0),
                             ("scan", "jump_threshold", -1.0), ("scan", "gaps", "no"),
                             ("scan", "gamma2", nan), ("optimize-xi", "xi_min", "x"),
                             ("optimize-xi", "xi_max", nan), ("optimize-xi", "tol_xi", "x"),
                             ("optimize-xi", "tol_xi", 0.0), ("optimize-xi", "tol_xi", -0.1),
                             ("scan", "s_steps", 0), ("scan", "s_steps", 10 ** 400),
                             ("scan", "axis2_steps", 10 ** 400),
                             ("scan", "axis2_steps", MAX_STEPS + 1),
                             ("scan", "seed", 10 ** 400), ("scan", "seed", -2 ** 53 - 1),
                             ("scan", "output", 5), ("scan", "output", None),
                             ("scan", "output", [1]), ("scan", "output", ""),
                             ("scan", "output", "sub/"), ("scan", "output", "sub/.."),
                             ("scan", "output", "a\0b.csv"),
                             ("gap", "axis2", "xi"), ("min-gap", "axis2", "xi"),
                             ("optimize-xi", "axis2", "xi"), ("ed-check", "axis2", "gamma1"),
                             ("scan", "coupling", "x"), ("scan", "placement", "x"),
                             ("scan", "placement", [1]), ("scan", "axis2", "h1"),
                             ("scan", "gamma1", "x"), ("scan", "gamma1", [])):
        bad = write_cfg(tmp_path, "bad.json", task=task, **{"output": "bad.csv", key: value})
        assert main([task, "--config", bad, "--out", str(tmp_path)]) == 2
        # every message names the key, its requirement and the value it got
        err = capsys.readouterr().err
        assert re.fullmatch(f"config error: {key} must be .+, got {re.escape(repr(value))}\n",
                            err), err
    assert not (tmp_path / "bad.csv").exists()
    ok = write_cfg(tmp_path, "ok.json", **{**SMALL_SCAN, "output": "w.csv"})
    for workers in ("0", "-1"):
        assert main(["scan", "--config", ok, "--out", str(tmp_path), "--workers", workers]) == 2
        assert "--workers must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "w.csv").exists()


def test_config_shape_and_range_order_errors(tmp_path, capsys):
    # a JSON list is not a config, and a range whose min exceeds its max
    # breaks a rule across keys: each exits 2 before anything is written
    bad = tmp_path / "bad.json"
    for raw, message in (([{"output": "bad.csv"}], "config must be a flat JSON object"),
                         ({"output": "bad.csv", "s_min": 0.8, "s_max": 0.2},
                          "s_min must be at most s_max, got 0.8"),
                         ({"output": "bad.csv", "axis2": "xi", "axis2_min": 1.0,
                           "axis2_max": -1.0}, "axis2_min must be at most axis2_max, got 1.0")):
        bad.write_text(json.dumps(raw))
        assert main(["scan", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_worker_pool_sized_by_columns(tmp_path, monkeypatch):
    # a fake pool records the size asked for and maps serially, so no
    # process is started whatever --workers says
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs):
            return [func(job) for job in jobs]

    monkeypatch.setattr("meanfield_annealer.cli.multiprocessing.Pool", FakePool)
    cfg = write_cfg(tmp_path, **{**SMALL_SCAN, "s_steps": 5, "gaps": False})
    assert run(cfg, out_dir=str(tmp_path), workers=5000) == 0
    assert sizes == [2]
    assert len(read_rows(tmp_path / "out.csv")) == 2 * 5
    # fig4's xi columns go to the same pool
    emit_figure_dataset("fig4", out_dir=str(tmp_path / "fig4"), s_steps=5, axis2_steps=3,
                        workers=2)
    assert sizes == [2, 2]
    assert len(read_rows(tmp_path / "fig4" / "fig4.csv")) == 3


def test_workers_below_one_rejected_before_any_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **{**SMALL_SCAN, "s_steps": 5})
    assert run(cfg, out_dir=str(tmp_path), workers=0) == 2
    assert "--workers must be at least 1, got 0" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="--workers must be at least 1, got -1"):
        emit_figure_dataset("fig4", out_dir=str(tmp_path), s_steps=5, axis2_steps=3,
                            workers=-1)
    # checked before the existing-file check, too
    (tmp_path / "fig8.csv").write_text("keep")
    with pytest.raises(ConfigError, match="--workers"):
        emit_figure_dataset("fig8", out_dir=str(tmp_path), s_steps=5, workers=0)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "fig8.csv"]


def test_one_task_table():
    assert cli.TASKS == ("scan", "gap", "min-gap", "optimize-xi", "ed-check")
    figure_tasks = {cfg["task"] for fig in cli.FIGURE_IDS
                    for cfg, _ in cli._figure_jobs(fig, ".", 5, 3)}
    assert figure_tasks <= set(cli.TASKS)


def test_malformed_json_writes_nothing(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert run(str(bad), out_dir=str(tmp_path)) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_optimize_xi_transition_in_range_is_solver_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, task="optimize-xi", xi_min=-1.0, xi_max=0.0,
                    s_steps=51, output="ox.csv")
    assert run(cfg, out_dir=str(tmp_path)) == 3
    assert "transition" in capsys.readouterr().err


def test_optimize_xi_happy_path(tmp_path):
    cfg = write_cfg(tmp_path, task="optimize-xi", xi_min=-4.3, xi_max=-3.7,
                    tol_xi=0.2, s_steps=51, output="ox.csv")
    assert run(cfg, out_dir=str(tmp_path)) == 0
    summary = json.loads((tmp_path / "ox.summary.json").read_text())
    assert -4.3 <= summary["xi_star"] <= -3.7
    assert summary["min_gap_at_xi_star"] > 0.2
    rows = read_rows(tmp_path / "ox.csv")
    assert len(rows) == 1
    assert float(rows[0]["axis2"]) == pytest.approx(summary["xi_star"])


@pytest.mark.parametrize("task", ["gap", "min-gap", "optimize-xi"])
def test_gap_task_rejects_sparse(tmp_path, capsys, task):
    cfg = write_cfg(tmp_path, task=task, coupling="sparse", output="g.csv")
    assert run(cfg, out_dir=str(tmp_path)) == 2
    assert "dense model only" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_gap_task_columns(tmp_path):
    cfg = write_cfg(tmp_path, task="gap", xi=-4.0, s_steps=11, output="gap.csv")
    assert run(cfg, out_dir=str(tmp_path)) == 0
    rows = read_rows(tmp_path / "gap.csv")
    assert len(rows) == 11
    assert all(r["delta1"] != "" for r in rows)
    d1 = [float(r["delta1"]) for r in rows]
    assert d1[0] == pytest.approx(2.0, abs=1e-9)


def test_ed_check_task(tmp_path):
    cfg = write_cfg(tmp_path, task="ed-check", xi=-4.0, ed_sizes=[40, 100],
                    ed_s_points=[0.2], ed_n=100, output="ed.csv")
    assert run(cfg, out_dir=str(tmp_path)) == 0
    summary = json.loads((tmp_path / "ed.summary.json").read_text())
    comps = summary["ed_comparisons"]
    kinds = {c["quantity"] for c in comps}
    assert kinds == {"m2z", "gap_extrapolated"}
    assert all(c["abs_diff"] < 0.05 for c in comps)


def test_ed_check_one_global_solve_per_point(tmp_path, monkeypatch):
    # the harmonic gap is read from the state the m2z comparison solved
    solves = count_calls(monkeypatch, "global_minimize", transitions, spinwave)
    cfg = write_cfg(tmp_path, task="ed-check", xi=-4.0, ed_sizes=[20, 40],
                    ed_s_points=[0.2, 0.8], ed_n=40, output="ed.csv")
    assert run(cfg, out_dir=str(tmp_path)) == 0
    assert [args[1] for args in solves] == [0.2, 0.8]


def test_partial_column_failure_flags_and_exit3(tmp_path, monkeypatch):
    from meanfield_annealer import transitions
    from meanfield_annealer.errors import ConvergenceError

    real_analyze = transitions.analyze

    def flaky_analyze(spec, s_grid, *a, **kw):
        # fail exactly one column
        if flaky_analyze.calls == 1:
            flaky_analyze.calls += 1
            raise ConvergenceError("forced failure")
        flaky_analyze.calls += 1
        return real_analyze(spec, s_grid, *a, **kw)

    flaky_analyze.calls = 0
    monkeypatch.setattr("meanfield_annealer.cli.transitions.analyze", flaky_analyze)
    cfg = write_cfg(tmp_path, **{**SMALL_SCAN, "axis2_steps": 3, "s_steps": 5,
                                 "gaps": False})
    assert run(cfg, out_dir=str(tmp_path)) == 3
    rows = read_rows(tmp_path / "out.csv")
    flagged = [r for r in rows if r["flags"].startswith("error:")]
    clean = [r for r in rows if not r["flags"]]
    assert len(flagged) == 5       # the failed column, all points flagged
    assert len(clean) == 10        # both other columns completed
    assert all(r["m2z"] == "" for r in flagged)


def test_figure_fig6_indeterminate_cell(tmp_path):
    emit_figure_dataset("fig6", out_dir=str(tmp_path), s_steps=11, axis2_steps=6)
    rows = read_rows(tmp_path / "fig6_weak.csv")
    cell = [r for r in rows if r["s"] == "0" and r["axis2"] == "1"]
    assert len(cell) == 1
    assert "indeterminate" in cell[0]["flags"]
    assert cell[0]["m2x"] == "" and cell[0]["m2z"] == ""
    assert (tmp_path / "fig6_strong.summary.json").exists()


def test_figure_unknown_id(tmp_path):
    with pytest.raises(ConfigError):
        emit_figure_dataset("fig7", out_dir=str(tmp_path))


FIGURE_FILES = {
    "fig2": ["fig2"],
    "fig3": ["fig3_xi0", "fig3_xi-4", "fig3_xi-10"],
    "fig4": ["fig4"],
    "fig5": ["fig5_strong", "fig5_weak"],
    "fig6": ["fig6_strong", "fig6_weak"],
    "fig8": ["fig8"],
    "fig9": ["fig9_strong", "fig9_weak"],
    "fig10": ["fig10_strong", "fig10_weak"],
    "appC": ["appC_dense", "appC_sparse"],
}


@pytest.mark.parametrize("fig", sorted(FIGURE_FILES))
def test_every_figure_id_emits(tmp_path, fig):
    # tiny grids here only prove the builders, solvers, and writers hold
    # together for every id, and that each id writes its own file names
    files = emit_figure_dataset(fig, out_dir=str(tmp_path), s_steps=6,
                                axis2_steps=3)
    assert files == [str(tmp_path / f"{name}{ext}") for name in FIGURE_FILES[fig]
                     for ext in (".csv", ".summary.json")]
    csvs = [f for f in files if f.endswith(".csv")]
    assert csvs
    for f in csvs:
        rows = read_rows(f)
        assert rows
        assert list(rows[0].keys()) == CSV_HEADER
    summaries = [f for f in files if f.endswith(".summary.json")]
    for f in summaries:
        summary = json.loads(open(f).read())
        assert summary["task"] == f"figure:{fig}"


def test_missing_values_never_zero(tmp_path):
    # instability markers must serialize as empty fields
    emit_figure_dataset("fig6", out_dir=str(tmp_path / "f"), s_steps=11,
                        axis2_steps=6)
    rows = read_rows(tmp_path / "f" / "fig6_weak.csv")
    for r in rows:
        if "indeterminate" in r["flags"]:
            assert r["m2z"] == ""


def test_figure_refuses_existing_output(tmp_path, capsys):
    kept = tmp_path / "fig8.summary.json"
    kept.write_text("keep")
    assert main(["figure", "--figure", "fig8", "--out", str(tmp_path)]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert kept.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig8.summary.json"]
    # a later file of a multi-file figure stops the earlier ones too
    later = tmp_path / "fig3_xi-4.csv"
    later.write_text("keep")
    with pytest.raises(FileExistsError, match="fig3_xi-4.csv"):
        emit_figure_dataset("fig3", out_dir=str(tmp_path), s_steps=3)
    assert later.read_text() == "keep"
    assert not (tmp_path / "fig3_xi0.csv").exists()


def test_figure_failed_column_exits_3(tmp_path, monkeypatch):
    from meanfield_annealer.errors import ConvergenceError

    def failing_analyze(*args, **kwargs):
        raise ConvergenceError("forced failure")

    monkeypatch.setattr("meanfield_annealer.cli.transitions.analyze", failing_analyze)
    assert main(["figure", "--figure", "fig8", "--out", str(tmp_path)]) == 3
    rows = read_rows(tmp_path / "fig8.csv")
    assert len(rows) == 201 * 101
    assert all(r["flags"] == "error:ConvergenceError" and r["m2z"] == "" for r in rows)
    summary = json.loads((tmp_path / "fig8.summary.json").read_text())
    assert summary["task"] == "figure:fig8"
    assert not any(rep["found"] for rep in summary["transition_reports"])


def test_min_gap_collapsed_grid_writes_single_point_row(tmp_path):
    # s_min == s_max gives three equal grid points; the row is the one a
    # single-point grid writes
    for name, steps in (("one", 1), ("three", 3)):
        cfg = write_cfg(tmp_path, f"{name}.json", task="min-gap", xi=-4.0, s_min=0.5,
                        s_max=0.5, s_steps=steps, output=f"{name}.csv")
        assert run(cfg, out_dir=str(tmp_path)) == 0
    assert (tmp_path / "three.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    row, = read_rows(tmp_path / "three.csv")
    assert float(row["s"]) == 0.5 and float(row["delta1"]) > 0.2


def test_min_gap_row_is_the_summary_minimum(tmp_path, monkeypatch):
    # the row is built from the state min_gap read its minimum from, so its
    # delta1 is the summary's; the only global solves are the sweep starts
    solves = count_calls(monkeypatch, "global_minimize", transitions, spinwave)
    cfg = write_cfg(tmp_path, task="min-gap", xi=-4.0, s_steps=201, output="mg.csv")
    assert run(cfg, out_dir=str(tmp_path)) == 0
    assert len(solves) == 2
    row, = read_rows(tmp_path / "mg.csv")
    summary = json.loads((tmp_path / "mg.summary.json").read_text())
    assert row["s"] == _fmt(summary["min_gap"]["s"])
    assert row["delta1"] == _fmt(summary["min_gap"]["delta1"])


def test_gap_collapsed_grid_writes_the_scan_row(tmp_path):
    # the gap task is a scan with gaps on, one analyze pass per grid: the
    # same bytes and transition report, on a collapsed grid (every task takes
    # the grid's sorted distinct points, here the one s) and on the 21-point
    # xi12 = 0 grid with its first-order transition
    for name, base, n_rows in (("one", dict(xi=-4.0, s_min=0.5, s_max=0.5, s_steps=3), 1),
                               ("xi0", dict(xi=0.0, s_steps=21), 21)):
        for task in ("gap", "scan"):
            cfg = write_cfg(tmp_path, f"{name}_{task}.json", task=task, gaps=True,
                            output=f"{name}_{task}.csv", **base)
            assert run(cfg, out_dir=str(tmp_path)) == 0
        gap, scan = (tmp_path / f"{name}_gap.csv", tmp_path / f"{name}_scan.csv")
        assert len(read_rows(gap)) == n_rows
        assert gap.read_bytes() == scan.read_bytes()
        reports = [json.loads((tmp_path / f"{name}_{task}.summary.json").read_text())
                   ["transition_reports"] for task in ("gap", "scan")]
        assert len(reports[0]) == 1 and reports[0] == reports[1]
    assert reports[0][0]["found"] is True


@pytest.mark.parametrize("key, value", [("s_steps", 0), ("axis2_steps", 0),
                                        ("s_steps", 2.5), ("axis2_steps", True),
                                        ("s_steps", MAX_STEPS + 1)])
def test_figure_steps_checked_before_any_work(tmp_path, monkeypatch, key, value):
    # the config rule for s_steps and axis2_steps holds for figure datasets
    analyses = count_calls(monkeypatch, "analyze", spinwave)
    steps = {"s_steps": 5, "axis2_steps": 3, key: value}
    with pytest.raises(ConfigError, match=f"{key} must be"):
        emit_figure_dataset("fig4", out_dir=str(tmp_path), **steps)
    assert analyses == []
    assert not any(tmp_path.iterdir())


def test_optimize_xi_collapsed_grid(tmp_path):
    cfg = write_cfg(tmp_path, task="optimize-xi", xi_min=-4.3, xi_max=-3.7, tol_xi=0.2,
                    s_min=0.5, s_max=0.5, s_steps=3, output="ox.csv")
    assert run(cfg, out_dir=str(tmp_path)) == 0
    summary = json.loads((tmp_path / "ox.summary.json").read_text())
    assert -4.3 <= summary["xi_star"] <= -3.7
    assert summary["min_gap_at_xi_star"] > 0.2
