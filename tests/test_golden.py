"""Golden-output gate: the built-in figure set at 21 s-points x 11 columns
against its recorded copy in ``tests/data/figures_21x11``.

Per CSV row, ``flags`` and ``branch`` must be equal and every number within
``bench/numdiff.py``'s ``DRIFT_TOL`` (1e-9); per column of a summary,
``found`` must be equal and s*, the jump and the width within the same
tolerance.  A change that moves an output regenerates the data in the same
commit, with every moved file listed in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""
import importlib.util
import json
import shutil
import sys
import tempfile
from pathlib import Path

from meanfield_annealer import cli

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "figures_21x11"
S_STEPS, AXIS2_STEPS = 21, 11


def _load_numdiff():
    spec = importlib.util.spec_from_file_location("numdiff", ROOT / "bench" / "numdiff.py")
    module = importlib.util.module_from_spec(spec)
    # bench/ holds only the benchmark's own files: no bytecode cache there
    previous, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = previous
    return module


numdiff = _load_numdiff()


def _emit(out_dir):
    for figure in cli.FIGURE_IDS:
        cli.emit_figure_dataset(figure, str(out_dir), S_STEPS, AXIS2_STEPS)


def _reports(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["transition_reports"]


def _moved(entry):
    """Whether a ``diff_csv`` entry is drift: changed text, rows or header,
    or a number beyond DRIFT_TOL."""
    if isinstance(entry, str):
        return entry != "text, same"
    return not entry <= numdiff.DRIFT_TOL


def test_figure_set_matches_the_recorded_outputs(tmp_path):
    _emit(tmp_path)
    names = sorted(p.name for p in DATA.glob("*.csv"))
    assert names == sorted(p.name for p in tmp_path.glob("*.csv")) and len(names) == 16
    drift = []
    for name in names:
        report, _ = numdiff.diff_csv(DATA / name, tmp_path / name)
        drift += [f"{name} {column}: {value}" for column, value in report.items()
                  if _moved(value)]
        summary = name[:-len(".csv")] + ".summary.json"
        changes, worst = numdiff.diff_summary(DATA / summary, tmp_path / summary)
        drift += [f"{summary}: {line}" for line in changes]
        pairs = zip(_reports(DATA / summary), _reports(tmp_path / summary))
        worst = max([worst] + [abs(a[key] - b[key]) for a, b in pairs
                               for key in ("jump_m2z", "hysteresis_width")])
        if not worst <= numdiff.DRIFT_TOL:
            drift.append(f"{summary}: s*, jump or width moved by {worst:.3g}")
    assert not drift, "drift above 1e-9:\n" + "\n".join(drift)


def _record():
    """Rewrite the recorded set: the CSVs, and each summary's transition
    reports alone (its wall time and versions vary from run to run)."""
    with tempfile.TemporaryDirectory() as tmp:
        _emit(tmp)
        shutil.rmtree(DATA, ignore_errors=True)
        DATA.mkdir(parents=True)
        for path in sorted(Path(tmp).glob("*.csv")):
            shutil.copyfile(path, DATA / path.name)
            summary = path.with_suffix(".summary.json").name
            reports = {"transition_reports": _reports(Path(tmp) / summary)}
            (DATA / summary).write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n",
                                        encoding="utf-8")


if __name__ == "__main__":
    _record()
