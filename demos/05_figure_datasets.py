"""Reduced-resolution figure datasets through the library API.

The CLI command `meanfield-annealer figure --figure fig2` produces the
full-resolution grid (201 x 101); this demo emits a coarse version of two
datasets into a fresh temporary directory, whose path it prints, and prints
the transition map extracted from the summary sidecars.  Figure datasets
never overwrite existing files; a fresh directory per run lets the demo run
again.  The same machinery backs every figure id: fig2..fig6, fig8..fig10,
and appC.
"""
import json
import os
import tempfile

from meanfield_annealer.cli import emit_figure_dataset

OUT = tempfile.mkdtemp(prefix="figure_datasets_")
print(f"writing into {OUT}")

print("emitting coarse fig2 (dense intercluster scan) ...")
files = emit_figure_dataset("fig2", out_dir=OUT, s_steps=41, axis2_steps=13)
for path in files:
    print(f"  wrote {path}")

with open(os.path.join(OUT, "fig2.summary.json")) as fh:
    summary = json.load(fh)
print("\ntransition map (axis2 = xi12):")
for rep in summary["transition_reports"]:
    tag = f"s*={rep['s_star']:.3f}" if rep["found"] else "none"
    print(f"  xi={rep['axis2']:+6.1f}: {'YES' if rep['found'] else 'no '}  {tag}")

print("\nemitting coarse fig4 (minimum gap vs catalyst strength) ...")
files = emit_figure_dataset("fig4", out_dir=OUT, s_steps=41, axis2_steps=9)
for path in files:
    print(f"  wrote {path}")
print("\ncolumns of fig4.csv: the s of the gap minimum, xi, state, and both gaps")
with open(os.path.join(OUT, "fig4.csv")) as fh:
    for line in fh.read().splitlines()[:5]:
        print(" ", line)
