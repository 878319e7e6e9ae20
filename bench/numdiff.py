"""Numerical diff of two sets of benchmark outputs.

    python3 bench/numdiff.py OLD_DIR NEW_DIR

Compares every CSV and ``*.summary.json`` found under both directories
with the same relative path, for example two copies of
``bench/out/dense-scan-seed1/pass0`` taken before and after a change.
It reports, per CSV file, the largest absolute difference in each
numeric column and any change in a text column or in the row count;
per summary, any change in a transition verdict (``found``) or in
``s_star``.  Exit status is 1 when a verdict changed, a file or row is
missing, or a difference exceeds ``DRIFT_TOL``, else 0.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

DRIFT_TOL = 1e-9   # largest absolute difference not reported as drift


def _files(root, suffixes):
    out = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name.endswith(suffixes):
                out.add(os.path.relpath(os.path.join(dirpath, name), root))
    return out


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def diff_csv(a_path, b_path):
    """Per column: max |a - b| for numbers, or the count of rows whose text
    differs.  An empty field against a number counts as infinite."""
    with open(a_path, newline="", encoding="utf-8") as fa, \
            open(b_path, newline="", encoding="utf-8") as fb:
        a_rows, b_rows = list(csv.reader(fa)), list(csv.reader(fb))
    if not a_rows or not b_rows or a_rows[0] != b_rows[0]:
        return {"header": "differs"}, True
    header = a_rows[0]
    report = {}
    if len(a_rows) != len(b_rows):
        report["rows"] = f"{len(a_rows) - 1} vs {len(b_rows) - 1}"
    for j, col in enumerate(header):
        worst, text_changes, numeric = 0.0, 0, False
        for ra, rb in zip(a_rows[1:], b_rows[1:]):
            x, y = ra[j], rb[j]
            nx, ny = _number(x), _number(y)
            if nx is not None and ny is not None:
                worst = max(worst, abs(nx - ny))
                numeric = True
            elif x != y:
                if nx is None and ny is None:
                    text_changes += 1
                else:
                    worst = math.inf
        if text_changes:
            report[col] = f"{text_changes} rows differ"
        elif numeric or worst:
            report[col] = worst
        else:
            report[col] = "text, same"
    structural = "rows" in report or any(
        isinstance(v, str) and v != "text, same" for v in report.values())
    return report, structural


def diff_summary(a_path, b_path):
    with open(a_path, encoding="utf-8") as fa, open(b_path, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    changes = []
    ra, rb = a.get("transition_reports", []), b.get("transition_reports", [])
    if len(ra) != len(rb):
        changes.append(f"{len(ra)} vs {len(rb)} transition reports")
    worst = 0.0
    for x, y in zip(ra, rb):
        if x["found"] != y["found"]:
            changes.append(f"axis2={x['axis2']}: found {x['found']} -> {y['found']}")
        if (x["s_star"] is None) != (y["s_star"] is None):
            changes.append(f"axis2={x['axis2']}: s_star {x['s_star']} -> {y['s_star']}")
        elif x["s_star"] is not None:
            worst = max(worst, abs(x["s_star"] - y["s_star"]))
    return changes, worst


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old")
    p.add_argument("new")
    args = p.parse_args(argv)
    bad = False
    csvs_a, csvs_b = _files(args.old, (".csv",)), _files(args.new, (".csv",))
    sums_a, sums_b = _files(args.old, (".summary.json",)), _files(args.new, (".summary.json",))
    for rel in sorted((csvs_a ^ csvs_b) | (sums_a ^ sums_b)):
        print(f"MISSING {rel}: only in {'old' if rel in csvs_a | sums_a else 'new'}")
        bad = True
    for rel in sorted(csvs_a & csvs_b):
        report, structural = diff_csv(os.path.join(args.old, rel), os.path.join(args.new, rel))
        drift = [c for c, v in report.items() if not isinstance(v, str) and v > DRIFT_TOL]
        bad = bad or structural or bool(drift)
        print(f"{'DRIFT' if drift or structural else 'same '} {rel}")
        for col, v in report.items():
            if isinstance(v, str):
                print(f"    {col}: {v}")
            else:
                print(f"    {col}: max |diff| {v:.3g}{'  > tol' if v > DRIFT_TOL else ''}")
    for rel in sorted(sums_a & sums_b):
        changes, worst = diff_summary(os.path.join(args.old, rel), os.path.join(args.new, rel))
        moved = worst > DRIFT_TOL
        bad = bad or bool(changes) or moved
        print(f"{'CHANGED' if changes or moved else 'same   '} {rel}: max |s_star diff| {worst:.3g}")
        for line in changes:
            print(f"    {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
