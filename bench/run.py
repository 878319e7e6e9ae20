"""Benchmark entry point.

    python3 bench/run.py --workload <name> --seed <n> --seconds <t> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  A run measures set-up in fresh interpreters, then repeats
whole passes of the workload until the next one would end after
``--seconds`` (at least two passes, so that reruns can be compared byte
for byte), checks the first pass's outputs against ``reference.py``,
and prints one JSON object as its last line.  Times are restated at the
host's reference speed (see ``timing.py``).  With ``--trace 1`` passes
alternate between untraced and traced, and the metrics are per-layer
figures from the traced passes plus the tracing overhead.

Outputs go to ``bench/out/<workload>-seed<n>/``: the first pass's files
(inputs to ``numdiff.py``), ``timings.json`` with every pass and
calibration, and in traced runs ``trace.json`` with every span.
"""
from __future__ import annotations

import os

# one BLAS thread: each workload is a single caller on a shared 2-core
# host, and a second thread adds contention noise rather than speed
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import timing  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOAD_NAMES = ("dense-scan", "catalyst-opt", "sparse-scan", "ed-oracle")
SETUP_PROBES = 3
MIN_PASSES = 2

# per-layer metric name -> (unit, (kind of source, key))
LAYER_METRICS = {}
for _span in ("cli.run", "cli.write_csv"):
    LAYER_METRICS[f"{_span}.self_s"] = ("s", ("self", _span))
for _span in ("classical.minimize", "classical.global_minimize", "transitions.analyze",
              "spinwave.fluctuation_matrix", "spinwave.excitation_gaps",
              "saddle.solve_saddle", "saddle.global_saddle",
              "eigensolvers.jacobi_eigh", "eigensolvers.eig_general",
              "eigensolvers.null_basis", "eigensolvers.lanczos_lowest"):
    LAYER_METRICS[f"{_span}.calls"] = ("count", ("calls", _span))
    LAYER_METRICS[f"{_span}.self_s"] = ("s", ("self", _span))
for _span in ("transitions.branch_sweep", "spinwave.gap_profile", "spinwave.min_gap",
              "ed.matvec"):
    LAYER_METRICS[f"{_span}.calls"] = ("count", ("calls", _span))
for _span in ("ed.build", "ed.matvec", "ed.ed_solve",
              "eigensolvers.tridiag_lowest", "eigensolvers.tridiag_eigvecs"):
    LAYER_METRICS[f"{_span}.self_s"] = ("s", ("self", _span))
for _name, _key in (
        ("classical.minimize.failed", "classical.minimize.raised.ConvergenceError"),
        ("saddle.solve_saddle.unconverged", "saddle.solve_saddle.unconverged"),
        ("saddle.build_effective_hamiltonian.calls", "saddle.build_effective_hamiltonian"),
        ("saddle.ground_block.calls", "saddle.ground_block"),
        ("eigensolvers.lanczos_lowest.matvecs", "eigensolvers.lanczos_lowest.matvecs")):
    LAYER_METRICS[_name] = ("count", ("count", _key))
LAYER_METRICS["spinwave.optimize_catalyst.xi_evals"] = ("count", ("xi_evals", None))
LAYER_METRICS["ed.dense_ed.largest_n_s"] = ("s", ("duration", "dense_largest"))
LAYER_METRICS["ed.sparse_ed.n14_s"] = ("s", ("duration", "ed.sparse_ed@N=14"))
LAYER_METRICS["trace.overhead_pct"] = ("%", ("overhead", None))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    if not os.path.isdir(os.path.join(SRC, "meanfield_annealer")):
        sys.exit(f"bench: no package at {SRC}/meanfield_annealer; run from a source checkout")
    sys.path.insert(0, SRC)
    import meanfield_annealer  # noqa: F401

    import workloads
    return workloads


def _probe_setup(args):
    """Child process: import the package, make the first input, report."""
    workloads = _import_program()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    probe_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}", f"probe{os.getpid()}")
    os.makedirs(probe_dir, exist_ok=True)
    wl.prepare(probe_dir)
    print("ready", flush=True)
    shutil.rmtree(probe_dir, ignore_errors=True)


def _measure_setup(args):
    """Median over fresh interpreters of the time from process start to
    package imported and first input ready, at reference speed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--probe-setup"]
    times = []
    cal = timing.calibrate()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                                cwd=ROOT)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed (exit {proc.returncode})")
        cal_after = timing.calibrate()
        times.append(timing.at_reference_speed(t1 - t0, cal + cal_after))
        cal = cal_after
    return statistics.median(times)


class _Pass:
    def __init__(self, wall, pieces, result, traced, layers=None):
        self.wall = wall
        self.pieces = pieces    # calibration piece times around and inside the pass
        self.ref = timing.at_reference_speed(wall, pieces)
        self.result = result
        self.traced = traced
        self.layers = layers


def _run_passes(wl, run_dir, seconds, tracer):
    """Whole passes until the next would end after ``seconds``; with a
    tracer, odd passes are traced.  Each pass is bracketed by
    calibrations, outside every span, and untraced passes are sampled
    inside too."""
    passes = []
    t_start = time.perf_counter()
    cal = timing.calibrate()
    while True:
        k = len(passes)
        traced = tracer is not None and k % 2 == 1
        out_dir = os.path.join(run_dir, f"pass{k}")
        os.makedirs(out_dir)
        if traced:
            tracer.clear()
            tracer.install()
        try:
            with timing.PassTimer(sample=not traced) as timer:
                outcome = wl.run(out_dir)
        finally:
            if traced:
                tracer.uninstall()
        cal_after = timing.calibrate()
        layers = _snapshot(tracer, wl) if traced else None
        passes.append(_Pass(timer.wall, cal + timer.pieces + cal_after,
                            wl.collect(out_dir, outcome), traced, layers))
        cal = cal_after
        if k > 0:
            shutil.rmtree(out_dir)
        elapsed = time.perf_counter() - t_start
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def _snapshot(tracer, wl):
    calls, self_s = tracer.layer_totals()
    ladder = getattr(wl, "ladder", None)
    return {
        "calls": dict(calls), "self": dict(self_s), "counts": dict(tracer.counts),
        "xi_evals": len(getattr(wl, "evals", ())),
        "durations": {
            "dense_largest": tracer.durations(f"ed.dense_ed@N={max(ladder)}") if ladder else [],
            "ed.sparse_ed@N=14": tracer.durations("ed.sparse_ed@N=14"),
        },
        "spans": tracer.spans(),
    }


def _layer_metrics(passes):
    """Counts from the first traced pass (every pass repeats the same
    calls); times as medians over traced passes, in plain seconds."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    first = traced[0].layers
    metrics = {}
    for name, (unit, (kind, key)) in LAYER_METRICS.items():
        if kind == "calls":
            value = first["calls"].get(key, 0)
        elif kind == "count":
            value = first["counts"].get(key, 0)
        elif kind == "xi_evals":
            value = first["xi_evals"]
        elif kind == "self":
            value = statistics.median(p.layers["self"].get(key, 0.0) for p in traced)
        elif kind == "duration":
            durations = [d for p in traced for d in p.layers["durations"][key]]
            value = statistics.median(durations) if durations else 0.0
        else:  # overhead: traced against untraced passes at reference speed
            value = 100.0 * (statistics.median(p.ref for p in traced)
                             / statistics.median(p.ref for p in plain) - 1.0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _check(wl, run_dir, passes):
    """Check the first pass's outputs; every later pass must repeat them
    byte for byte.  Returns (correct, attempted, failed)."""
    first = passes[0].result
    problems = {}
    for k, p in enumerate(passes[1:], start=1):
        if p.result.outputs != first.outputs or p.result.ops != first.ops:
            problems[f"pass{k}"] = "outputs differ from the first pass"
    chk = wl.check(os.path.join(run_dir, "pass0"), first)
    bad = set(chk.failed)
    attempted = failed = 0
    for k, p in enumerate(passes):
        attempted += len(p.result.ops)
        if f"pass{k}" in problems:
            failed += len(p.result.ops)
        else:
            failed += len(p.result.failed | (bad & set(p.result.ops)))
    for op, reason in list({**problems, **chk.failed}.items())[:20]:
        print(f"bench: check failed: {op}: {reason}", file=sys.stderr)
    return not chk.failed and not problems, attempted, failed


def main(argv=None):
    args = _parse(argv)
    if args.probe_setup:
        _probe_setup(args)
        return 0
    workloads = _import_program()
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    setup_s = _measure_setup(args)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.prepare(run_dir)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    passes = _run_passes(wl, run_dir, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct, attempted, failed = _check(wl, run_dir, passes)

    with open(os.path.join(run_dir, "timings.json"), "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s,
                   "passes": [{"wall_s": p.wall, "ref_s": p.ref, "traced": p.traced,
                               "calibration_pieces_s": p.pieces} for p in passes]}, fh)
    if args.trace:
        with open(os.path.join(run_dir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "passes": [{"spans": p.layers["spans"], "counts": p.layers["counts"]}
                                  for p in passes if p.traced]}, fh)
        metrics = _layer_metrics(passes)
    else:
        wall_s = statistics.median(p.ref for p in passes)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "points_per_s": {"value": passes[0].result.points / wall_s, "unit": "points/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"bench: {args.workload} seed={args.seed} passes={len(passes)} "
          f"wall_s={[round(p.wall, 3) for p in passes]} "
          f"ref_s={[round(p.ref, 3) for p in passes]}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
