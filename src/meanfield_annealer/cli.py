"""Command-line front end: config-driven scans, gap profiles, catalyst
optimization, oracle checks, and built-in figure datasets.

Experiment configs are flat JSON objects.  Every run writes an RFC-4180
style CSV (fixed column order, 12 significant digits, missing values as
empty fields) plus a JSON summary sidecar.  Exit codes: 0 success, 2
config error, 3 solver error.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, transitions
from .classical import _warm_solver, global_minimize
from .ed import dense_ed, extrapolate_gap, gap_sequence, sparse_ed
from .errors import (CatalystRangeError, ConfigError, ConvergenceError,
                     DegenerateModeError, InstabilityError, SizeError)
from .model import ClusterFields, Coupling, FixedValue, Identity, ModelSpec
from .saddle import _saddle_solver, global_saddle
from .spinwave import (excitation_gaps, fluctuation_matrix, gap_or_flag, gaps_at,
                       min_gap, optimize_catalyst)

CSV_HEADER = ["s", "axis2", "m1x", "m1z", "m2x", "m2z", "energy",
              "delta1", "delta2", "branch", "flags"]

PLACEMENTS = {
    "intercluster": lambda xi: (0.0, 0.0, xi),
    "strong_intra": lambda xi: (xi, 0.0, 0.0),
    "weak_intra": lambda xi: (0.0, xi, 0.0),
    "total": lambda xi: (xi / 2.0, xi / 2.0, xi),
}

TASKS = ("scan", "gap", "min-gap", "optimize-xi", "ed-check")
MAX_STEPS = 100_000  # largest s_steps / axis2_steps a config may ask for

_DEFAULTS = {
    "task": "scan",
    "coupling": "dense",
    "h1": 1.0,
    "h2": -0.49,
    "placement": "intercluster",
    "xi": 0.0,
    "gamma1": "s",
    "gamma2": "s",
    "s_min": 0.0,
    "s_max": 1.0,
    "s_steps": 201,
    "axis2": None,
    "axis2_min": None,
    "axis2_max": None,
    "axis2_steps": 101,
    "output": "scan.csv",
    "seed": 0,
    "n_starts": 8,
    "jump_threshold": 0.5,
    "gaps": True,
    "xi_min": -5.0,
    "xi_max": -3.0,
    "tol_xi": 0.05,
    "ed_sizes": [100, 200, 400],
    "ed_s_points": [0.2, 0.8],
    "ed_n": None,
}


def load_config(path) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object")
    unknown = sorted(set(raw) - set(_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    cfg = dict(_DEFAULTS)
    cfg.update(raw)
    _validate(cfg)
    return cfg


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A JSON number within the finite float range (not NaN)."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _is_unit(x) -> bool:
    """A JSON number in [0, 1]."""
    return _is_number(x) and 0.0 <= x <= 1.0


def _validate(cfg):
    if cfg["task"] not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {cfg['task']!r}")
    if cfg["coupling"] not in ("dense", "sparse"):
        raise ConfigError("coupling must be 'dense' or 'sparse'")
    if cfg["placement"] not in PLACEMENTS:
        raise ConfigError(f"placement must be one of {sorted(PLACEMENTS)}")
    for key in ("s_steps", "axis2_steps", "n_starts", "seed"):
        if not _is_int(cfg[key]):
            raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}")
    for key in ("s_steps", "axis2_steps"):
        if not 1 <= cfg[key] <= MAX_STEPS:
            raise ConfigError(f"{key} must be between 1 and {MAX_STEPS}, got {cfg[key]!r}")
    if cfg["n_starts"] < 8:
        raise ConfigError("n_starts must be at least 8")
    for key in ("s_min", "s_max"):
        if not _is_unit(cfg[key]):
            raise ConfigError(f"{key} must be a number in [0, 1], got {cfg[key]!r}")
    if not cfg["s_min"] <= cfg["s_max"]:
        raise ConfigError("s_min must not exceed s_max")
    for key in ("xi", "h1", "h2", "jump_threshold", "xi_min", "xi_max", "tol_xi"):
        if not _is_number(cfg[key]):
            raise ConfigError(f"{key} must be a finite number, got {cfg[key]!r}")
    if cfg["tol_xi"] <= 0:
        raise ConfigError(f"tol_xi must be positive, got {cfg['tol_xi']!r}")
    if not isinstance(cfg["gaps"], bool):
        raise ConfigError(f"gaps must be true or false, got {cfg['gaps']!r}")
    for key in ("axis2_min", "axis2_max"):
        if cfg[key] is not None and not _is_number(cfg[key]):
            raise ConfigError(f"{key} must be null or a finite number, got {cfg[key]!r}")
    if cfg["axis2"] not in (None, "xi", "gamma1", "gamma2"):
        raise ConfigError("axis2 must be null, 'xi', 'gamma1', or 'gamma2'")
    if cfg["axis2"] is not None:
        if cfg["axis2_min"] is None or cfg["axis2_max"] is None:
            raise ConfigError("axis2_min and axis2_max are required with axis2")
        if not cfg["axis2_min"] <= cfg["axis2_max"]:
            raise ConfigError("axis2_min must not exceed axis2_max")
    for key in ("gamma1", "gamma2"):
        v = cfg[key]
        if v != "s" and not _is_number(v):
            raise ConfigError(f"{key} must be 's' or a finite number")
    points = cfg["ed_s_points"]
    if not (isinstance(points, list) and points and all(_is_unit(x) for x in points)):
        raise ConfigError("ed_s_points must be a list of at least one number in [0, 1], "
                          f"got {points!r}")
    sizes = cfg["ed_sizes"]
    # the gap extrapolation fits a line in 1/N, which one size does not fix
    if not (isinstance(sizes, list)
            and all(_is_int(n) and 0 < n <= 2000 and n % 4 == 0 for n in sizes)
            and len(set(sizes)) >= 2):
        raise ConfigError("ed_sizes must be a non-empty list of positive multiples of 4 "
                          f"up to 2000 with at least two distinct sizes, got {sizes!r}")
    n = cfg["ed_n"]
    if cfg["coupling"] == "dense":
        ok, what = _is_int(n) and 0 < n <= 2000 and n % 4 == 0, "a multiple of 4 up to 2000"
    else:
        ok, what = _is_int(n) and 0 < n <= 14 and n % 2 == 0, "an even integer up to 14"
    if n is not None and not ok:
        raise ConfigError(f"ed_n must be null or, for the {cfg['coupling']} model, "
                          f"{what}; got {n!r}")


def _schedule(value):
    return Identity() if value == "s" else FixedValue(float(value))


def build_spec(cfg, axis2_value=None) -> ModelSpec:
    xi = float(cfg["xi"])
    g1, g2 = cfg["gamma1"], cfg["gamma2"]
    if cfg["axis2"] == "xi" and axis2_value is not None:
        xi = float(axis2_value)
    elif cfg["axis2"] == "gamma1" and axis2_value is not None:
        g1 = float(axis2_value)
    elif cfg["axis2"] == "gamma2" and axis2_value is not None:
        g2 = float(axis2_value)
    xis = PLACEMENTS[cfg["placement"]](xi)
    fields = ClusterFields(h1=float(cfg["h1"]), h2=float(cfg["h2"]))
    factory = ModelSpec.dense if cfg["coupling"] == "dense" else ModelSpec.sparse
    return factory(xi=xis, fields=fields, gamma1=_schedule(g1), gamma2=_schedule(g2))


# ---------------------------------------------------------------------------
# Row formatting

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    x = float(x)
    if not np.isfinite(x):
        return ""
    return f"{x:.12g}"


@dataclass
class Row:
    s: float | None
    axis2: float | None = None
    m1x: float | None = None
    m1z: float | None = None
    m2x: float | None = None
    m2z: float | None = None
    energy: float | None = None
    delta1: float | None = None
    delta2: float | None = None
    branch: str = ""
    flags: str = ""

    def fields(self):
        return [_fmt(self.s), _fmt(self.axis2), _fmt(self.m1x), _fmt(self.m1z),
                _fmt(self.m2x), _fmt(self.m2z), _fmt(self.energy),
                _fmt(self.delta1), _fmt(self.delta2), self.branch, self.flags]


def write_csv(path, rows):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for row in rows:
            fh.write(",".join(row.fields()) + "\r\n")
    os.replace(tmp, path)


def _report_dict(axis2_value, report):
    return {
        "axis2": axis2_value,
        "found": bool(report.found),
        "s_star": None if not np.isfinite(report.s_star) else float(report.s_star),
        "jump_m2z": float(report.jump_m2z),
        "hysteresis_width": float(report.hysteresis_width),
    }


def write_summary(path, summary):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _versions():
    import scipy

    return {
        "meanfield_annealer": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


def _attach_lambda_reference(summary, cfg, reports):
    """Record the mapping to the reference catalyst convention for
    intercluster runs."""
    if cfg["placement"] != "intercluster":
        return
    if cfg["axis2"] == "xi":
        values = {_fmt(rep["axis2"]): -float(rep["axis2"]) / 2.0
                  for rep in reports if rep["axis2"] is not None}
    else:
        values = {_fmt(cfg["xi"]): -float(cfg["xi"]) / 2.0}
    summary["lambda_reference"] = {"mapping": "lambda = -xi/2", "values": values}


# ---------------------------------------------------------------------------
# Column scans

def _state_row(s, axis2_value, state, energy, delta1=None, delta2=None,
               branch="", flags=""):
    ind = getattr(state, "indeterminate", (False, False))
    flag_list = [f for f in [flags] if f]
    if any(ind):
        flag_list.append("indeterminate")
    m1 = state.m.m1
    m2 = state.m.m2
    return Row(
        s=s, axis2=axis2_value,
        m1x=None if ind[0] else float(m1[0]),
        m1z=None if ind[0] else float(m1[2]),
        m2x=None if ind[1] else float(m2[0]),
        m2z=None if ind[1] else float(m2[2]),
        energy=energy, delta1=delta1, delta2=delta2, branch=branch,
        flags=";".join(flag_list),
    )


def _scan_column(args):
    (cfg, axis2_value) = args
    spec = build_spec(cfg, axis2_value)
    s_grid = np.linspace(float(cfg["s_min"]), float(cfg["s_max"]), int(cfg["s_steps"]))
    if len(s_grid) > 1:
        s_grid = np.unique(s_grid)
    dense = spec.coupling is Coupling.DENSE
    threshold = float(cfg["jump_threshold"])
    n_starts = int(cfg["n_starts"])
    seed = int(cfg["seed"])
    if dense:
        solver = _warm_solver(spec, n_starts, seed)
    else:
        solver = _saddle_solver(spec)
    rows = []
    failed = False
    try:
        analysis = transitions.analyze(solver, s_grid, threshold)
    except (ConvergenceError, InstabilityError, DegenerateModeError, SizeError) as err:
        # column fault barrier: flag every point, keep scanning other columns
        for s in s_grid:
            rows.append(Row(s=float(s), axis2=axis2_value,
                            flags=f"error:{type(err).__name__}"))
        return axis2_value, rows, _report_dict(
            axis2_value, transitions.TransitionReport(False, float("nan"), 0.0, 0.0)), True
    for s, state, tag in zip(analysis.s_grid, analysis.equilibrium,
                             analysis.branch_tags):
        energy = solver.energy(state)
        d1, d2, flags = gap_or_flag(spec, state) if dense and cfg["gaps"] else (None, None, "")
        rows.append(_state_row(float(s), axis2_value, state, energy, d1, d2,
                               tag, flags))
    return axis2_value, rows, _report_dict(axis2_value, analysis.report), failed


def _run_columns(cfg, axis2_values, workers):
    jobs = [(cfg, v) for v in axis2_values]
    if workers > 1 and len(jobs) > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_scan_column, jobs)
    else:
        results = [_scan_column(j) for j in jobs]
    rows = []
    reports = []
    failed = False
    for _, r, rep, f in results:  # already in deterministic axis order
        rows.extend(r)
        reports.append(rep)
        failed = failed or f
    return rows, reports, failed


def _axis2_values(cfg):
    if cfg["axis2"] is None:
        return [None]
    steps = int(cfg["axis2_steps"])
    if steps == 1:
        return [float(cfg["axis2_min"])]
    return list(np.linspace(float(cfg["axis2_min"]), float(cfg["axis2_max"]), steps))


# ---------------------------------------------------------------------------
# Tasks

def _task_scan(cfg, workers):
    rows, reports, failed = _run_columns(cfg, _axis2_values(cfg), workers)
    return rows, reports, {}, failed


def _task_gap(cfg, workers):
    if cfg["coupling"] != "dense":
        raise ConfigError("gap profiles are defined for the dense model only")
    spec = build_spec(cfg)
    s_grid = np.linspace(float(cfg["s_min"]), float(cfg["s_max"]), int(cfg["s_steps"]))
    rows = []
    failed = False
    for s in s_grid:
        try:
            state = global_minimize(spec, float(s), int(cfg["n_starts"]), int(cfg["seed"]))
        except ConvergenceError:
            rows.append(Row(s=float(s), flags="error:ConvergenceError"))
            failed = True
            continue
        d1, d2, flags = gap_or_flag(spec, state)
        rows.append(_state_row(float(s), None, state, state.energy, d1, d2,
                               "both", flags))
    return rows, [], {}, failed


def _task_min_gap(cfg, workers):
    if cfg["coupling"] != "dense":
        raise ConfigError("min-gap is defined for the dense model only")
    spec = build_spec(cfg)
    s_grid = np.linspace(float(cfg["s_min"]), float(cfg["s_max"]), int(cfg["s_steps"]))
    s_best, d_best = min_gap(spec, s_grid, int(cfg["n_starts"]), int(cfg["seed"]))
    state = global_minimize(spec, s_best, int(cfg["n_starts"]), int(cfg["seed"]))
    g = excitation_gaps(fluctuation_matrix(spec, state))
    rows = [_state_row(s_best, None, state, state.energy, g.delta1, g.delta2, "both")]
    return rows, [], {"min_gap": {"s": s_best, "delta1": d_best}}, False


def _task_min_gap_scan(cfg, workers):
    """Minimum gap as a function of the catalyst strength (figure fig4)."""
    rows = []
    s_grid = np.linspace(float(cfg["s_min"]), float(cfg["s_max"]), int(cfg["s_steps"]))
    for xi in _axis2_values(cfg):
        spec = build_spec(cfg, xi)
        s_best, d_best = min_gap(spec, s_grid, int(cfg["n_starts"]), int(cfg["seed"]))
        state = global_minimize(spec, s_best, int(cfg["n_starts"]), int(cfg["seed"]))
        g = excitation_gaps(fluctuation_matrix(spec, state))
        rows.append(_state_row(s_best, xi, state, state.energy, g.delta1,
                               g.delta2, "both"))
    return rows, [], {}, False


def _task_optimize_xi(cfg, workers):
    if cfg["coupling"] != "dense":
        raise ConfigError("optimize-xi is defined for the dense model only")
    placement = PLACEMENTS[cfg["placement"]]
    fields = ClusterFields(h1=float(cfg["h1"]), h2=float(cfg["h2"]))

    def family(xi):
        return ModelSpec.dense(xi=placement(xi), fields=fields,
                               gamma1=_schedule(cfg["gamma1"]),
                               gamma2=_schedule(cfg["gamma2"]))

    s_grid = np.linspace(float(cfg["s_min"]), float(cfg["s_max"]), int(cfg["s_steps"]))
    xi_star, gap_star = optimize_catalyst(
        family, (float(cfg["xi_min"]), float(cfg["xi_max"])),
        tol_xi=float(cfg["tol_xi"]), s_grid=s_grid,
        n_starts=int(cfg["n_starts"]), seed=int(cfg["seed"]),
    )
    rows = [Row(s=None, axis2=xi_star, delta1=gap_star, branch="", flags="")]
    extra = {"xi_star": xi_star, "min_gap_at_xi_star": gap_star}
    return rows, [], extra, False


def _task_ed_check(cfg, workers):
    spec = build_spec(cfg)
    seed = int(cfg["seed"])
    n_starts = int(cfg["n_starts"])
    sizes = [int(n) for n in cfg["ed_sizes"]]
    s_points = [float(s) for s in cfg["ed_s_points"]]
    rows = []
    comparisons = []
    if spec.coupling is Coupling.DENSE:
        n_mag = int(cfg["ed_n"] or 200)
        for s in s_points:
            state = global_minimize(spec, s, n_starts, seed)
            oracle = dense_ed(spec, s, n_mag)
            comparisons.append({
                "quantity": "m2z", "s": s, "N": n_mag,
                "model": state.m2z, "oracle": oracle.m2z,
                "abs_diff": abs(state.m2z - oracle.m2z),
            })
        for s in s_points:
            gaps = gap_sequence(spec, s, sizes)
            extrap = extrapolate_gap(sizes, gaps)
            d1 = gaps_at(spec, s, n_starts, seed).delta1
            comparisons.append({
                "quantity": "gap_extrapolated", "s": s, "N": sizes,
                "model": d1, "oracle": extrap,
                "abs_diff": abs(d1 - extrap),
            })
    else:
        n_mag = int(cfg["ed_n"] or 12)
        for s in s_points:
            sol = global_saddle(spec, s)
            oracle = sparse_ed(spec, s, n_mag)
            comparisons.append({
                "quantity": "m2z", "s": s, "N": n_mag,
                "model": sol.m2z, "oracle": oracle.m2z,
                "abs_diff": abs(sol.m2z - oracle.m2z),
            })
    for comp in comparisons:
        rows.append(Row(s=comp["s"], axis2=None, m2z=comp["model"],
                        energy=None, delta1=None,
                        branch=comp["quantity"],
                        flags=f"oracle={_fmt(comp['oracle'])}"))
    return rows, [], {"ed_comparisons": comparisons}, False


_TASK_RUNNERS = {
    "scan": _task_scan,
    "gap": _task_gap,
    "min-gap": _task_min_gap,
    "optimize-xi": _task_optimize_xi,
    "ed-check": _task_ed_check,
    "min-gap-scan": _task_min_gap_scan,   # figure datasets only, not in TASKS
}


def _summary_path(out_path):
    return os.path.splitext(out_path)[0] + ".summary.json"


def _write_task(label, cfg, out_path, workers) -> bool:
    """Run one task and write its CSV and summary sidecar; returns whether
    a column failed."""
    t0 = time.time()
    rows, reports, extra, failed = _TASK_RUNNERS[cfg["task"]](cfg, workers)
    summary = {
        "task": label,
        "transition_reports": reports,
        "xi_star": extra.get("xi_star"),
        "wall_time_s": round(time.time() - t0, 3),
        "versions": _versions(),
    }
    for key, value in extra.items():
        summary.setdefault(key, value)
    _attach_lambda_reference(summary, cfg, reports)
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    write_csv(out_path, rows)
    write_summary(_summary_path(out_path), summary)
    return failed


def _existing_targets(jobs):
    return [path for _, out_path in jobs
            for path in (out_path, _summary_path(out_path)) if os.path.exists(path)]


def _execute(label, jobs, workers) -> int:
    """Run (cfg, out_path) jobs and write their outputs; returns the exit
    code.  Nothing is computed when any target file already exists."""
    existing = _existing_targets(jobs)
    if existing:
        print(f"refusing to overwrite existing output {existing[0]}; "
              "remove it to rerun", file=sys.stderr)
        return 2
    failed = False
    try:
        for cfg, out_path in jobs:
            failed = _write_task(label, cfg, out_path, workers) or failed
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (ConvergenceError, CatalystRangeError, SizeError, InstabilityError,
            DegenerateModeError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 3
    return 3 if failed else 0


def run(config_path, out_dir=None, workers: int = 1) -> int:
    """Execute a config-driven task; returns the process exit code."""
    try:
        cfg = load_config(config_path)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    return _run_loaded(cfg, out_dir, workers)


def _run_loaded(cfg, out_dir, workers) -> int:
    out_path = cfg["output"]
    if out_dir is not None:
        out_path = os.path.join(out_dir, out_path)
    return _execute(cfg["task"], [(cfg, out_path)], workers)


# ---------------------------------------------------------------------------
# Built-in figure datasets

def _figure_jobs(figure_id, out_dir, s_steps, axis2_steps):
    """(cfg, out_path) for every file of a named figure."""
    return [(cfg, os.path.join(out_dir, name))
            for name, cfg in _figure_configs(figure_id, s_steps, axis2_steps)]


def _figure_configs(figure_id, s_steps, axis2_steps):
    base = {
        "s_min": 0.0, "s_max": 1.0, "s_steps": s_steps,
        "axis2_steps": axis2_steps, "task": "scan", "gaps": False,
    }

    def cfg(**kw):
        out = dict(_DEFAULTS)
        out.update(base)
        out.update(kw)
        return out

    if figure_id == "fig2":
        return [("fig2.csv", cfg(axis2="xi", axis2_min=-10.0, axis2_max=2.0))]
    if figure_id == "fig3":
        return [
            (f"fig3_xi{tag}.csv",
             cfg(task="gap", xi=xi, gaps=True, output=f"fig3_xi{tag}.csv"))
            for tag, xi in (("0", 0.0), ("-4", -4.0), ("-10", -10.0))
        ]
    if figure_id == "fig4":
        return [("fig4.csv", cfg(task="min-gap-scan", axis2="xi",
                                 axis2_min=-5.0, axis2_max=-3.0))]
    if figure_id == "fig5":
        return [
            ("fig5_strong.csv", cfg(placement="strong_intra", axis2="xi",
                                    axis2_min=-10.0, axis2_max=10.0)),
            ("fig5_weak.csv", cfg(placement="weak_intra", axis2="xi",
                                  axis2_min=-10.0, axis2_max=10.0)),
        ]
    if figure_id == "fig6":
        return [
            ("fig6_strong.csv", cfg(axis2="gamma1", axis2_min=0.0, axis2_max=1.0)),
            ("fig6_weak.csv", cfg(axis2="gamma2", axis2_min=0.0, axis2_max=1.0)),
        ]
    if figure_id == "fig8":
        return [("fig8.csv", cfg(coupling="sparse", axis2="xi",
                                 axis2_min=-10.0, axis2_max=10.0))]
    if figure_id == "fig9":
        return [
            ("fig9_strong.csv", cfg(coupling="sparse", placement="strong_intra",
                                    axis2="xi", axis2_min=-10.0, axis2_max=10.0)),
            ("fig9_weak.csv", cfg(coupling="sparse", placement="weak_intra",
                                  axis2="xi", axis2_min=-10.0, axis2_max=10.0)),
        ]
    if figure_id == "fig10":
        return [
            ("fig10_strong.csv", cfg(coupling="sparse", axis2="gamma1",
                                     axis2_min=0.0, axis2_max=1.0)),
            ("fig10_weak.csv", cfg(coupling="sparse", axis2="gamma2",
                                   axis2_min=0.0, axis2_max=1.0)),
        ]
    if figure_id == "appC":
        return [
            ("appC_dense.csv", cfg(placement="total", axis2="xi",
                                   axis2_min=-10.0, axis2_max=10.0)),
            ("appC_sparse.csv", cfg(coupling="sparse", placement="total",
                                    axis2="xi", axis2_min=-10.0, axis2_max=10.0)),
        ]
    raise ConfigError(f"unknown figure id: {figure_id}")


FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig8", "fig9",
              "fig10", "appC")


def emit_figure_dataset(figure_id, out_dir=".", s_steps: int = 201,
                        axis2_steps: int = 101, workers: int = 1):
    """Write the dataset behind a named figure; returns the file paths.

    Default resolutions are 201 s-points by 101 second-axis points.  Raises
    FileExistsError, before computing anything, when a target file exists;
    a failed column is flagged in its rows, as in ``run``.
    """
    jobs = _figure_jobs(figure_id, out_dir, s_steps, axis2_steps)
    existing = _existing_targets(jobs)
    if existing:
        raise FileExistsError(f"refusing to overwrite existing output {existing[0]}")
    written = []
    for cfg, out_path in jobs:
        _write_task(f"figure:{figure_id}", cfg, out_path, workers)
        written.extend([out_path, _summary_path(out_path)])
    return written


# ---------------------------------------------------------------------------
# Entry point

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="meanfield-annealer",
        description="Mean-field solver for two-cluster annealing models",
    )
    parser.add_argument("task", choices=TASKS + ("figure",))
    parser.add_argument("--config", help="path to a flat JSON experiment config")
    parser.add_argument("--figure", choices=FIGURE_IDS,
                        help="figure id for the 'figure' task")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    if args.task == "figure":
        if not args.figure:
            print("config error: --figure is required for the figure task",
                  file=sys.stderr)
            return 2
        jobs = _figure_jobs(args.figure, args.out or ".", 201, 101)
        return _execute(f"figure:{args.figure}", jobs, args.workers)
    if not args.config:
        print("config error: --config is required", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    if cfg["task"] != args.task:
        print(f"config error: config task {cfg['task']!r} does not match "
              f"command {args.task!r}", file=sys.stderr)
        return 2
    return _run_loaded(cfg, args.out, args.workers)


if __name__ == "__main__":
    sys.exit(main())
