"""Command-line front end: config-driven scans, gap profiles, catalyst
optimization, oracle checks, and built-in figure datasets.  ``scan``,
``gap`` (a scan with gaps on), ``min-gap`` and ``optimize-xi`` read one
``transitions.analyze`` pass per s grid.

Experiment configs are flat JSON objects, checked in full when they load
against one table, ``_KEYS``, of each key's default and rules; a value
that breaks a rule is reported as "<key> must be <requirement>, got
<value>", and a figure's steps follow the same rules.  ``gap``,
``min-gap`` and ``optimize-xi`` are defined for the dense model only, and
only a ``scan`` config takes an ``axis2``; figure fig4 is the one
built-in ``min-gap`` job with a second axis.  Every run writes an
RFC-4180 style CSV (fixed column order, 12 significant digits, missing
values as empty fields) plus a JSON summary sidecar.  The columns of a
job (a scan's axis2 columns, fig4's xi columns) go to a pool of
``--workers`` processes (at least 1, never more than the columns).
Exit codes: 0 success, 2 config error, 3 solver error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import sys
import time
from math import isfinite

import numpy as np

from . import __version__, transitions
from .ed import _DENSE_LIMIT_N, _SPARSE_LIMIT_N, dense_ed, extrapolate_gap, gap_sequence, sparse_ed
from .errors import (CatalystRangeError, ConfigError, ConvergenceError,
                     DegenerateModeError, InstabilityError, SizeError)
from .model import Coupling, ModelSpec
from .spinwave import (excitation_gaps, fluctuation_matrix, gap_or_flag, min_gap,
                       optimize_catalyst)

PLACEMENTS = {
    "intercluster": lambda xi: (0.0, 0.0, xi),
    "strong_intra": lambda xi: (xi, 0.0, 0.0),
    "weak_intra": lambda xi: (0.0, xi, 0.0),
    "total": lambda xi: (xi / 2.0, xi / 2.0, xi),
}

MAX_STEPS = 100_000  # largest s_steps / axis2_steps a config may ask for
_SOLVER_ERRORS = (ConvergenceError, CatalystRangeError, DegenerateModeError, InstabilityError,
                  SizeError)  # what a solve may raise on a valid config: exit code 3

# Built-in figure datasets: id -> [(file name, overrides of _DEFAULTS)].  Each
# file scans s over [0, 1] at the requested resolution, with scan gaps off.
_XI_WIDE = {"axis2": "xi", "axis2_min": -10.0, "axis2_max": 10.0}
_UNIT = {"axis2_min": 0.0, "axis2_max": 1.0}
FIGURES = {
    "fig2": [("fig2.csv", {"axis2": "xi", "axis2_min": -10.0, "axis2_max": 2.0})],
    "fig3": [(f"fig3_xi{tag}.csv", {"task": "gap", "xi": xi})
             for tag, xi in (("0", 0.0), ("-4", -4.0), ("-10", -10.0))],
    "fig4": [("fig4.csv", {"task": "min-gap", "axis2": "xi",
                           "axis2_min": -5.0, "axis2_max": -3.0})],
    "fig5": [("fig5_strong.csv", {**_XI_WIDE, "placement": "strong_intra"}),
             ("fig5_weak.csv", {**_XI_WIDE, "placement": "weak_intra"})],
    "fig6": [("fig6_strong.csv", {**_UNIT, "axis2": "gamma1"}),
             ("fig6_weak.csv", {**_UNIT, "axis2": "gamma2"})],
    "fig8": [("fig8.csv", {**_XI_WIDE, "coupling": "sparse"})],
    "fig9": [("fig9_strong.csv", {**_XI_WIDE, "coupling": "sparse",
                                  "placement": "strong_intra"}),
             ("fig9_weak.csv", {**_XI_WIDE, "coupling": "sparse",
                                "placement": "weak_intra"})],
    "fig10": [("fig10_strong.csv", {**_UNIT, "coupling": "sparse", "axis2": "gamma1"}),
              ("fig10_weak.csv", {**_UNIT, "coupling": "sparse", "axis2": "gamma2"})],
    "appC": [("appC_dense.csv", {**_XI_WIDE, "placement": "total"}),
             ("appC_sparse.csv", {**_XI_WIDE, "coupling": "sparse", "placement": "total"})],
}
FIGURE_IDS = tuple(FIGURES)


def build_spec(cfg, axis2_value=None) -> ModelSpec:
    if axis2_value is not None:
        cfg = {**cfg, cfg["axis2"]: axis2_value}
    g1, g2 = (None if cfg[key] == "s" else cfg[key] for key in ("gamma1", "gamma2"))
    xis = PLACEMENTS[cfg["placement"]](float(cfg["xi"]))
    return ModelSpec(cfg["coupling"], cfg["h1"], cfg["h2"], *xis, g1, g2)


def _s_grid(cfg):
    return transitions.check_grid(
        np.linspace(float(cfg["s_min"]), float(cfg["s_max"]), int(cfg["s_steps"])))


def _axis2_values(cfg):
    if cfg["axis2"] is None:
        return [None]
    return list(np.linspace(float(cfg["axis2_min"]), float(cfg["axis2_max"]),
                            int(cfg["axis2_steps"])))


# ---------------------------------------------------------------------------
# Row formatting

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    x = float(x)
    if not isfinite(x):
        return ""
    return f"{x:.12g}"


@dataclasses.dataclass
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
        return [_fmt(getattr(self, name)) for name in CSV_HEADER]


CSV_HEADER = [f.name for f in dataclasses.fields(Row)]


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


def _state_row(spec, s, axis2_value, state, branch, gaps=True):
    """A solved point's row, with its harmonic gaps (or their flag) if ``gaps``."""
    delta1, delta2, flags = gap_or_flag(spec, state) if gaps else (None, None, "")
    ind = state.indeterminate
    flag_list = [f for f in [flags] if f]
    if any(ind):
        flag_list.append("indeterminate")
    m1x, m1z, m2x, m2z = state.x
    return Row(
        s=s, axis2=axis2_value,
        m1x=None if ind[0] else m1x, m1z=None if ind[0] else m1z,
        m2x=None if ind[1] else m2x, m2z=None if ind[1] else m2z,
        energy=state.energy, delta1=delta1, delta2=delta2, branch=branch,
        flags=";".join(flag_list),
    )


# ---------------------------------------------------------------------------
# Tasks: each is a column function (cfg, axis2_value) -> (rows, transition
# report or None, extra summary entries, whether it failed); without an
# axis2 a task has the one column None

def _scan_column(cfg, axis2_value):
    spec = build_spec(cfg, axis2_value)
    s_grid = _s_grid(cfg)
    gaps = spec.coupling is Coupling.DENSE and cfg["gaps"]
    try:
        analysis = transitions.analyze(spec, s_grid, float(cfg["jump_threshold"]),
                                       int(cfg["n_starts"]), int(cfg["seed"]))
    except _SOLVER_ERRORS as err:
        # column fault barrier: flag every point, keep scanning other columns
        rows = [Row(s=float(s), axis2=axis2_value, flags=f"error:{type(err).__name__}")
                for s in s_grid]
        return rows, _report_dict(
            axis2_value, transitions.TransitionReport(False, float("nan"), 0.0, 0.0)), {}, True
    rows = [_state_row(spec, float(s), axis2_value, state, tag, gaps)
            for s, state, tag in zip(analysis.s_grid, analysis.equilibrium,
                                     analysis.branch_tags)]
    return rows, _report_dict(axis2_value, analysis.report), {}, False


def _min_gap_column(cfg, axis2_value):
    """The state at the minimum harmonic gap over the s grid, as a row; its
    delta1 is the gap minimum (figure fig4 maps it over xi)."""
    spec = build_spec(cfg, axis2_value)
    s_best, _, state = min_gap(spec, _s_grid(cfg), int(cfg["n_starts"]), int(cfg["seed"]))
    row = _state_row(spec, s_best, axis2_value, state, "both")
    extra = {"min_gap": {"s": row.s, "delta1": row.delta1}} if axis2_value is None else {}
    return [row], None, extra, False


def _optimize_xi_column(cfg, axis2_value):
    xi_star, gap_star = optimize_catalyst(
        lambda xi: build_spec({**cfg, "xi": xi, "axis2": None}),
        (float(cfg["xi_min"]), float(cfg["xi_max"])),
        tol_xi=float(cfg["tol_xi"]), s_grid=_s_grid(cfg),
        n_starts=int(cfg["n_starts"]), seed=int(cfg["seed"]),
    )
    rows = [Row(s=None, axis2=xi_star, delta1=gap_star)]
    return rows, None, {"xi_star": xi_star, "min_gap_at_xi_star": gap_star}, False


def _ed_check_column(cfg, axis2_value):
    spec = build_spec(cfg)
    dense = spec.coupling is Coupling.DENSE
    oracle, default_n = (dense_ed, 200) if dense else (sparse_ed, 12)
    n_mag = int(cfg["ed_n"] or default_n)
    solve = transitions.point_solver(spec, int(cfg["n_starts"]), int(cfg["seed"])).global_

    def compare(quantity, s, n, model, reference):
        return {"quantity": quantity, "s": s, "N": n, "model": model,
                "oracle": reference, "abs_diff": abs(model - reference)}

    s_points = [float(s) for s in cfg["ed_s_points"]]
    states = [solve(s) for s in s_points]
    comparisons = [compare("m2z", s, n_mag, state.m2z, oracle(spec, s, n_mag).m2z)
                   for s, state in zip(s_points, states)]
    if dense:
        sizes = [int(n) for n in cfg["ed_sizes"]]
        for s, state in zip(s_points, states):
            extrap = extrapolate_gap(sizes, gap_sequence(spec, s, sizes))
            gap = excitation_gaps(fluctuation_matrix(spec, state)).delta1
            comparisons.append(compare("gap_extrapolated", s, sizes, gap, extrap))
    rows = [Row(s=comp["s"], m2z=comp["model"], branch=comp["quantity"],
                flags=f"oracle={_fmt(comp['oracle'])}") for comp in comparisons]
    return rows, None, {"ed_comparisons": comparisons}, False


_TASKS = {"scan": _scan_column, "gap": lambda cfg, v: _scan_column({**cfg, "gaps": True}, v),
          "min-gap": _min_gap_column, "optimize-xi": _optimize_xi_column,
          "ed-check": _ed_check_column}
TASKS = tuple(_TASKS)


def _column(job):
    """Run one (cfg, axis2_value) column; module level so a pool can pickle it."""
    return _TASKS[job[0]["task"]](*job)


def _run_task(cfg, workers):
    """Map the task's column function over the axis2 values, in a pool of
    at most ``workers`` processes; returns (rows, transition reports, extra
    summary entries, whether a column failed) in axis order."""
    jobs = [(cfg, v) for v in _axis2_values(cfg)]
    workers = min(workers, len(jobs))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_column, jobs)
    else:
        results = [_column(job) for job in jobs]
    columns, reports, extras, failed = zip(*results)  # already in axis order
    extra = {key: value for col in extras for key, value in col.items()}
    return ([row for col in columns for row in col], [r for r in reports if r is not None],
            extra, any(failed))


# ---------------------------------------------------------------------------
# Config keys

def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A JSON number within the finite float range (not NaN)."""
    return (_is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


_INT = (_is_int, "an integer")
_NUMBER = (_is_number, "a finite number")
_IN_UNIT = (lambda v: _is_number(v) and 0.0 <= v <= 1.0, "a number in [0, 1]")
_STEPS = [_INT, (lambda v: 1 <= v <= MAX_STEPS, f"between 1 and {MAX_STEPS}")]
_POSITIVE = [_NUMBER, (lambda v: v > 0, "positive")]
_NUMBER_OR_NULL = [(lambda v: v is None or _is_number(v), "null or a finite number")]
_GAMMA = [(lambda v: v == "s" or _is_number(v), "'s' or a finite number")]
# the ED sizes each coupling's oracle takes, for ed_n and ed_sizes
_ED_N = {"dense": (lambda n: _is_int(n) and 0 < n <= _DENSE_LIMIT_N and n % 4 == 0,
                   f"a multiple of 4 up to {_DENSE_LIMIT_N}"),
         "sparse": (lambda n: _is_int(n) and 0 < n <= _SPARSE_LIMIT_N and n % 2 == 0,
                    f"an even integer up to {_SPARSE_LIMIT_N}")}

# key -> (default, [(test, requirement)]): the first test a value fails
# is reported as "<key> must be <requirement>, got <value>"
_KEYS = {
    "task": ("scan", [(lambda v: v in TASKS, f"one of {TASKS}")]),
    "coupling": ("dense", [(lambda v: v in ("dense", "sparse"), "'dense' or 'sparse'")]),
    "h1": (1.0, [_NUMBER]),
    "h2": (-0.49, [_NUMBER]),
    "placement": ("intercluster", [(lambda v: v in tuple(PLACEMENTS),
                                    f"one of {sorted(PLACEMENTS)}")]),
    "xi": (0.0, [_NUMBER]),
    "gamma1": ("s", _GAMMA),
    "gamma2": ("s", _GAMMA),
    "s_min": (0.0, [_IN_UNIT]),
    "s_max": (1.0, [_IN_UNIT]),
    "s_steps": (201, _STEPS),
    "axis2": (None, [(lambda v: v in (None, "xi", "gamma1", "gamma2"),
                      "null, 'xi', 'gamma1', or 'gamma2'")]),
    "axis2_min": (None, _NUMBER_OR_NULL),
    "axis2_max": (None, _NUMBER_OR_NULL),
    "axis2_steps": (101, _STEPS),
    "output": ("scan.csv", [(lambda v: (isinstance(v, str) and "\0" not in v
                                        and os.path.basename(v) not in ("", ".", "..")),
                             "a file name without NUL characters, not ending in a path "
                             "separator")]),
    # the start set scales the seed as a float
    "seed": (0, [_INT, (lambda v: abs(v) <= 2 ** 53, "at most 2**53 in magnitude")]),
    "n_starts": (8, [_INT, (lambda v: v >= 8, "at least 8")]),
    "jump_threshold": (0.5, _POSITIVE),
    "gaps": (True, [(lambda v: isinstance(v, bool), "true or false")]),
    "xi_min": (-5.0, [_NUMBER]),
    "xi_max": (-3.0, [_NUMBER]),
    "tol_xi": (0.05, _POSITIVE),
    # the gap extrapolation fits a line in 1/N, which one size does not fix
    "ed_sizes": ([100, 200, 400], [(lambda v: (isinstance(v, list)
                                               and all(_ED_N["dense"][0](n) for n in v)
                                               and len(set(v)) >= 2),
                                    "a non-empty list of positive multiples of 4 up to "
                                    f"{_DENSE_LIMIT_N} with at least two distinct sizes")]),
    "ed_s_points": ([0.2, 0.8], [(lambda v: isinstance(v, list) and v and all(map(_IN_UNIT[0], v)),
                                  "a list of at least one number in [0, 1]")]),
    "ed_n": (None, []),   # its rule depends on the coupling
}
_DEFAULTS = {key: default for key, (default, _) in _KEYS.items()}


def _check(key, value):
    for test, requirement in _KEYS[key][1]:
        if not test(value):
            raise ConfigError(f"{key} must be {requirement}, got {value!r}")


def load_config(path) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:      # a directory, or a file without read permission
        raise ConfigError(f"cannot read config file {path}: {err.strerror}") from err
    except ValueError as err:   # bad JSON or UTF-8, or an integer beyond int's digit limit
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object")
    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    cfg = {**_DEFAULTS, **raw}
    _validate(cfg)
    return cfg


def _validate(cfg):
    """Each key's own rules from ``_KEYS``, then the rules across keys."""
    for key in _KEYS:
        _check(key, cfg[key])
    task, coupling, axis2, n = cfg["task"], cfg["coupling"], cfg["axis2"], cfg["ed_n"]
    if task in ("gap", "min-gap", "optimize-xi") and coupling != "dense":
        raise ConfigError(f"task {task!r} is defined for the dense model only")
    if not cfg["s_min"] <= cfg["s_max"]:
        raise ConfigError(f"s_min must be at most s_max, got {cfg['s_min']!r}")
    if axis2 is not None:
        if task != "scan":
            raise ConfigError(f"axis2 must be null for task {task!r}, got {axis2!r}")
        for key in ("axis2_min", "axis2_max"):
            if cfg[key] is None:
                raise ConfigError(f"{key} must be a finite number with axis2, got None")
        if not cfg["axis2_min"] <= cfg["axis2_max"]:
            raise ConfigError(f"axis2_min must be at most axis2_max, got {cfg['axis2_min']!r}")
    test, what = _ED_N[coupling]
    if n is not None and not test(n):
        raise ConfigError(f"ed_n must be null or, for the {coupling} model, {what}, got {n!r}")


# ---------------------------------------------------------------------------
# Writing jobs

def _summary_path(out_path):
    return os.path.splitext(out_path)[0] + ".summary.json"


def _write_jobs(label, jobs, workers):
    """Run (cfg, out_path) jobs and write each CSV and summary sidecar;
    returns the written paths and whether a column failed.  Raises, before
    computing anything, ConfigError when ``workers`` is below 1 and
    FileExistsError when a target file exists."""
    if workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    paths = [path for _, out_path in jobs for path in (out_path, _summary_path(out_path))]
    existing = [path for path in paths if os.path.exists(path)]
    if existing:
        raise FileExistsError(f"refusing to overwrite existing output {existing[0]}")
    any_failed = False
    for cfg, out_path in jobs:
        t0 = time.perf_counter()
        rows, reports, extra, failed = _run_task(cfg, workers)
        summary = {
            "task": label,
            "transition_reports": reports,
            "xi_star": None,
            "wall_time_s": round(time.perf_counter() - t0, 3),
            "versions": _versions(),
            **extra,
        }
        _attach_lambda_reference(summary, cfg, reports)
        os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
        write_csv(out_path, rows)
        write_summary(_summary_path(out_path), summary)
        any_failed = any_failed or failed
    return paths, any_failed


def _figure_jobs(figure_id, out_dir, s_steps=_DEFAULTS["s_steps"],
                 axis2_steps=_DEFAULTS["axis2_steps"]):
    """(cfg, out_path) for every file of a named figure; its steps follow
    the config rule."""
    if figure_id not in FIGURES:
        raise ConfigError(f"unknown figure id: {figure_id}")
    _check("s_steps", s_steps)
    _check("axis2_steps", axis2_steps)
    base = {**_DEFAULTS, "s_steps": s_steps, "axis2_steps": axis2_steps, "gaps": False}
    return [({**base, **overrides}, os.path.join(out_dir, name))
            for name, overrides in FIGURES[figure_id]]


def _config_jobs(config_path, out_dir):
    """The label and the one (cfg, out_path) job of a config file."""
    cfg = load_config(config_path)
    return cfg["task"], [(cfg, os.path.join(out_dir or "", cfg["output"]))]


def _execute(plan, workers) -> int:
    """Run the jobs of ``plan() -> (label, jobs)`` and write their outputs;
    returns the exit code.  Nothing is computed when the plan is a config
    error or any target file already exists."""
    try:
        _, failed = _write_jobs(*plan(), workers)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except FileExistsError as err:
        print(f"{err}; remove it to rerun", file=sys.stderr)
        return 2
    except _SOLVER_ERRORS as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 3
    return 3 if failed else 0


def run(config_path, out_dir=None, workers: int = 1) -> int:
    """Execute a config-driven task; returns the process exit code."""
    return _execute(lambda: _config_jobs(config_path, out_dir), workers)


def emit_figure_dataset(figure_id, out_dir=".", s_steps: int = _DEFAULTS["s_steps"],
                        axis2_steps: int = _DEFAULTS["axis2_steps"], workers: int = 1):
    """Write the dataset behind a named figure; returns the file paths.

    Default resolutions are the config defaults, 201 s-points by 101
    second-axis points.  Raises ConfigError (steps outside the config rule,
    or ``workers`` below 1) or FileExistsError (a target file exists) before
    computing anything; a failed column is flagged in its rows, as in ``run``.
    """
    jobs = _figure_jobs(figure_id, out_dir, s_steps, axis2_steps)
    return _write_jobs(f"figure:{figure_id}", jobs, workers)[0]


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
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the columns of a job (at least 1)")
    args = parser.parse_args(argv)

    def plan():
        if args.task == "figure":
            if not args.figure:
                raise ConfigError("--figure is required for the figure task")
            return f"figure:{args.figure}", _figure_jobs(args.figure, args.out or ".")
        if not args.config:
            raise ConfigError("--config is required")
        label, jobs = _config_jobs(args.config, args.out)
        if label != args.task:
            raise ConfigError(f"config task {label!r} does not match command {args.task!r}")
        return label, jobs

    return _execute(plan, args.workers)


if __name__ == "__main__":
    sys.exit(main())
