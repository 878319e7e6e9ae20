"""The benchmark's workloads: inputs made from a seed, one timed pass
through the program's public entry points, and checks of the outputs
against ``reference`` (which never imports the program).

Every workload is a closed loop: one caller, one process, the next call
issued when the previous one returned; the CLI's worker pool stays at 1.

A pass returns a ``PassResult``; ``check`` looks at the first pass's
outputs and returns the operations whose output failed a check, keyed
the same way as the pass's operations.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

import reference as ref

CSV_FLOATS = ("s", "axis2", "m1x", "m1z", "m2x", "m2z", "energy", "delta1", "delta2")


@dataclass
class PassResult:
    ops: list[str]                      # operation ids, the same in every pass
    failed: set[str] = field(default_factory=set)
    points: int = 0                     # grid points solved, for points_per_s
    outputs: dict[str, bytes] = field(default_factory=dict)  # for byte identity


@dataclass
class Check:
    failed: dict[str, str] = field(default_factory=dict)  # op id -> first reason

    def expect(self, ok, op, reason):
        if not ok and op not in self.failed:
            self.failed[op] = reason


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key in CSV_FLOATS:
            row[key] = float(row[key]) if row[key] != "" else None
    return rows


def _tag(x):
    return f"{x:+g}".replace("+", "p").replace("-", "m")


# ---------------------------------------------------------------------------
# Column scans through cli.run

class _Scan:
    coupling = ""
    columns: tuple[float, ...] = ()
    s_steps = 0

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        # the seed reorders the columns and, for the dense model, moves
        # the multistart set (cli "seed", a Kronecker-sequence offset)
        self.order = [self.columns[i] for i in rng.permutation(len(self.columns))]
        self.cli_seed = int(seed % 100000)

    def prepare(self, run_dir):
        import meanfield_annealer.cli  # noqa: F401  (part of set-up for CLI runs)

        self.cfg_dir = os.path.join(run_dir, "configs")
        os.makedirs(self.cfg_dir, exist_ok=True)
        self.configs = []
        for xi in self.order:
            cfg = {"task": "scan", "coupling": self.coupling,
                   "placement": "intercluster", "xi": xi,
                   "s_min": 0.0, "s_max": 1.0, "s_steps": self.s_steps,
                   "gaps": self.coupling == "dense", "seed": self.cli_seed,
                   "output": f"xi{_tag(xi)}.csv"}
            path = os.path.join(self.cfg_dir, f"xi{_tag(xi)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            self.configs.append((xi, path, cfg["output"]))

    def run(self, out_dir):
        from meanfield_annealer import cli

        return [(xi, cli.run(path, out_dir=out_dir, workers=1), out)
                for xi, path, out in self.configs]

    def collect(self, out_dir, codes):
        res = PassResult(ops=[])
        for xi, code, out in codes:
            col = f"col{_tag(xi)}"
            res.ops.append(col)
            if code != 0:
                res.failed.add(col)
            path = os.path.join(out_dir, out)
            summary = os.path.splitext(path)[0] + ".summary.json"
            if not os.path.exists(path):   # the task aborted before writing
                res.failed.add(col)
                for i in range(self.s_steps):
                    res.ops.append(f"{col}/row{i}")
                    res.failed.add(f"{col}/row{i}")
                continue
            with open(path, "rb") as fh:
                res.outputs[out] = fh.read()
            rows = _read_rows(path)
            for i, row in enumerate(rows):
                op = f"{col}/row{i}"
                res.ops.append(op)
                if row["flags"].startswith("error:") or ";error:" in row["flags"]:
                    res.failed.add(op)
            res.points += len(rows)
            with open(summary, encoding="utf-8") as fh:
                res.outputs[f"{out}:reports"] = json.dumps(
                    json.load(fh)["transition_reports"], sort_keys=True).encode()
        return res

    def written(self, chk, out_dir):
        """(xi12, column op, CSV path, transition report) for every column
        whose files were written; a column without them fails its check."""
        for xi, _, out in self.configs:
            col = f"col{_tag(xi)}"
            path = os.path.join(out_dir, out)
            summary = os.path.splitext(path)[0] + ".summary.json"
            if not (os.path.exists(path) and os.path.exists(summary)):
                chk.expect(False, col, f"no CSV or summary written at xi12={xi}")
                continue
            with open(summary, encoding="utf-8") as fh:
                yield xi, col, path, json.load(fh)["transition_reports"][0]


class DenseScan(_Scan):
    """Dense model, intercluster catalyst, gaps on: columns on both sides
    of the removal window around xi12 = -4 (Fig. 2 question)."""

    name = "dense-scan"
    coupling = "dense"
    columns = (0.0, -4.0, -10.0)
    s_steps = 101
    # xi12 -> (transition found, s* or None)
    verdicts = {0.0: (True, 0.7189), -4.0: (False, None), -10.0: (True, None)}

    def check(self, out_dir, result):
        chk = Check()
        for xi, col, path, rep in self.written(chk, out_dir):
            found, s_star = self.verdicts[xi]
            chk.expect(rep["found"] == found, col, f"found={rep['found']} at xi12={xi}")
            if s_star is not None:
                chk.expect(rep["s_star"] is not None and abs(rep["s_star"] - s_star) <= 1e-3,
                           col, f"s*={rep['s_star']} at xi12={xi}, expected {s_star}+-1e-3")
            for i, row in enumerate(_read_rows(path)):
                op = f"{col}/row{i}"
                if op in result.failed:
                    continue
                self._check_row(chk, op, xi, row)
        return chk

    @staticmethod
    def _check_row(chk, op, xi, row):
        s = row["s"]
        c = ref.Coeffs.at(s, (0.0, 0.0, xi))
        m1x, m1z, m2x, m2z = row["m1x"], row["m1z"], row["m2x"], row["m2z"]
        if None in (m1x, m1z, m2x, m2z, row["energy"]):
            chk.expect(False, op, f"missing magnetization or energy at s={s}")
            return
        n1, n2 = np.hypot(m1x, m1z), np.hypot(m2x, m2z)
        chk.expect(abs(n1 - 1.0) <= 1e-10 and abs(n2 - 1.0) <= 1e-10, op,
                   f"|m| = ({n1}, {n2}) at s={s}")
        e = ref.dense_energy(c, m1x, m1z, m2x, m2z)
        chk.expect(abs(e - row["energy"]) <= 1e-10, op,
                   f"energy {row['energy']} != polynomial {e} at s={s}")
        e_min, _, _ = ref.dense_minimum(c)
        chk.expect(row["energy"] <= e_min + 1e-10, op,
                   f"energy {row['energy']} above the two-angle minimum {e_min} at s={s}")
        gaps = ref.closed_form_gaps(c, np.arctan2(m1x, m1z), np.arctan2(m2x, m2z))
        if gaps is None or row["delta1"] is None:
            chk.expect(False, op, f"gap undefined at s={s} (flags {row['flags']!r})")
            return
        for got, want in zip((row["delta1"], row["delta2"]), gaps):
            chk.expect(abs(got - want) <= 1e-8 * max(1.0, want), op,
                       f"gap {got} != closed form {want} at s={s}")
        if s == 0.0:
            chk.expect(abs(row["energy"] + 1.0) <= 1e-12, op, f"s=0 energy {row['energy']}")
            chk.expect(abs(row["delta1"] - 2.0) <= 1e-9 and abs(row["delta2"] - 2.0) <= 1e-9,
                       op, f"s=0 gaps ({row['delta1']}, {row['delta2']})")
        if s == 1.0:
            chk.expect(abs(row["delta1"] - 2.02) <= 1e-9 and abs(row["delta2"] - 5.0) <= 1e-9,
                       op, f"s=1 gaps ({row['delta1']}, {row['delta2']})")


class SparseScan(_Scan):
    """Sparse model, intercluster catalyst: columns where the transition
    survives (0, +-4) and where it is removed (8, -7)."""

    name = "sparse-scan"
    coupling = "sparse"
    columns = (0.0, 4.0, -4.0, 8.0, -7.0)
    s_steps = 21
    verdicts = {0.0: True, 4.0: True, -4.0: True, 8.0: False, -7.0: False}

    def check(self, out_dir, result):
        chk = Check()
        for xi, col, path, rep in self.written(chk, out_dir):
            chk.expect(rep["found"] == self.verdicts[xi], col,
                       f"found={rep['found']} at xi12={xi}")
            for i, row in enumerate(_read_rows(path)):
                op = f"{col}/row{i}"
                if op in result.failed:
                    continue
                s = row["s"]
                m = (row["m1x"], row["m1z"], row["m2x"], row["m2z"])
                if None in m or row["energy"] is None:
                    chk.expect(False, op, f"missing magnetization or energy at s={s}")
                    continue
                norms = (np.hypot(m[0], m[1]), np.hypot(m[2], m[3]))
                chk.expect(max(norms) <= 1.0 + 1e-12, op, f"|m| = {norms} at s={s}")
                residual, u = ref.saddle_residual_and_u(ref.Coeffs.at(s, (0.0, 0.0, xi)), m)
                chk.expect(residual <= 1e-8, op,
                           f"fixed-point residual {residual:g} at s={s}, xi12={xi}")
                chk.expect(abs(u - row["energy"]) <= 1e-9, op,
                           f"u {row['energy']} != recomputed {u} at s={s}, xi12={xi}")
        return chk


# ---------------------------------------------------------------------------
# Catalyst optimization through spinwave.optimize_catalyst

class CatalystOpt:
    """optimize-xi over (-5, -3): golden section in xi, each evaluation a
    transition screen plus a minimum-gap search over s."""

    name = "catalyst-opt"
    xi_range = (-5.0, -3.0)
    s_steps = 11
    tol_xi = 0.2

    def __init__(self, seed):
        self.seed = int(seed % 100000)   # multistart offset of global_minimize

    def prepare(self, run_dir):
        from meanfield_annealer import ModelSpec

        self.evals: list[float] = []

        def family(xi):
            self.evals.append(float(xi))
            return ModelSpec.dense(xi=(0.0, 0.0, xi))

        self.family = family
        self.s_grid = np.linspace(0.0, 1.0, self.s_steps)

    def run(self, out_dir):
        from meanfield_annealer import optimize_catalyst
        from meanfield_annealer.errors import CatalystRangeError

        self.evals.clear()
        try:
            return optimize_catalyst(self.family, self.xi_range, tol_xi=self.tol_xi,
                                     s_grid=self.s_grid, n_starts=8, seed=self.seed)
        except CatalystRangeError:
            return None

    def collect(self, out_dir, outcome):
        res = PassResult(ops=[f"xi_eval{i}" for i in range(len(self.evals))])
        res.points = len(self.evals) * self.s_steps
        if outcome is None:
            res.failed.add(res.ops[-1])
            return res
        text = "xi_star,min_gap,xi_evals\r\n{:.12g},{:.12g},{}\r\n".format(
            outcome[0], outcome[1], len(self.evals))
        with open(os.path.join(out_dir, "catalyst.csv"), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(text)
        res.outputs["catalyst.csv"] = text.encode()
        self.outcome = outcome
        return res

    def check(self, out_dir, result):
        chk = Check()
        # the optimum depends on every evaluation, so a wrong or missing
        # one fails them all
        if result.failed:
            for op in result.ops:
                chk.expect(False, op, "optimize_catalyst raised CatalystRangeError")
            return chk
        xi_star, gap = self.outcome
        want = ref.min_gap_over_s((0.0, 0.0, xi_star))
        for op in result.ops:
            chk.expect(abs(xi_star + 4.0) <= 0.2, op, f"xi*={xi_star}, expected -4.0+-0.2")
            chk.expect(abs(gap - want) <= 1e-7, op,
                       f"min gap {gap} != closed-form minimum {want} at xi*={xi_star}")
        return chk


# ---------------------------------------------------------------------------
# Exact-diagonalization oracle: the calls the ed-check task makes

class EDOracle:
    """Dense sector ED, a gap ladder with 1/N extrapolation, and full
    2^N ED of the sparse model at N = 12 and 14."""

    name = "ed-oracle"
    m2z_n = 200
    m2z_s = (0.2, 0.8)
    ladder = (100, 200, 300)       # lanczos_lowest's own work exceeds the
    ladder_s = 0.2                 # matvecs at every size of the ladder
    ladder_xi = (0.0, 0.0, -4.0)
    sparse_n = (12, 14)
    sparse_xi = (0.0, 2.0)
    sparse_s = (0.2, 0.8)

    def __init__(self, seed):
        # the seed orders the groups of solves; the Lanczos start vector
        # stays the program's default, because its iteration count (and
        # so the cost) moves with the start vector by up to 30%
        groups = [("m2z", s) for s in self.m2z_s] + [("ladder", None)]
        groups += [("sparse", xi) for xi in self.sparse_xi]
        rng = np.random.default_rng(seed)
        self.groups = [groups[i] for i in rng.permutation(len(groups))]

    def prepare(self, run_dir):
        from meanfield_annealer import ModelSpec

        self.dense0 = ModelSpec.dense()
        self.dense_ladder = ModelSpec.dense(xi=self.ladder_xi)
        self.sparse = {xi: ModelSpec.sparse(xi=(0.0, 0.0, xi)) for xi in self.sparse_xi}

    def run(self, out_dir):
        from meanfield_annealer import dense_ed, extrapolate_gap, gap_sequence, sparse_ed

        out = {"m2z": {}, "sparse": {}}
        for kind, arg in self.groups:
            if kind == "m2z":
                out["m2z"][arg] = dense_ed(self.dense0, arg, self.m2z_n)
            elif kind == "ladder":
                gaps = gap_sequence(self.dense_ladder, self.ladder_s, list(self.ladder))
                out["ladder"] = (gaps, extrapolate_gap(list(self.ladder), gaps))
            else:
                for N in self.sparse_n:
                    for s in self.sparse_s:
                        out["sparse"][(arg, N, s)] = sparse_ed(self.sparse[arg], s, N)
        out["m2z"] = sorted(out["m2z"].items())
        out["sparse"] = [(*key, r) for key, r in sorted(out["sparse"].items())]
        return out

    def collect(self, out_dir, out):
        res = PassResult(ops=[])
        lines = ["kind,xi12,N,s,e0,e1,gap,m2z"]
        for s, r in out["m2z"]:
            res.ops.append(f"dense/N{self.m2z_n}/s{s}")
            lines.append(f"dense,0,{self.m2z_n},{s},{r.energies[0]:.12g},"
                         f"{r.energies[1]:.12g},{r.gap:.12g},{r.m2z:.12g}")
        gaps, extrap = out["ladder"]
        for N, g in zip(self.ladder, gaps):
            res.ops.append(f"ladder/N{N}")
            lines.append(f"ladder,{self.ladder_xi[2]},{N},{self.ladder_s},,,{g:.12g},")
        lines.append(f"extrapolated,{self.ladder_xi[2]},,{self.ladder_s},,,{extrap:.12g},")
        for xi, N, s, r in out["sparse"]:
            res.ops.append(f"sparse/xi{xi}/N{N}/s{s}")
            lines.append(f"sparse,{xi},{N},{s},{r.energies[0]:.12g},"
                         f"{r.energies[1]:.12g},{r.gap:.12g},{r.m2z:.12g}")
        res.points = len(res.ops)
        text = "\r\n".join(lines) + "\r\n"
        with open(os.path.join(out_dir, "ed.csv"), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        res.outputs["ed.csv"] = text.encode()
        self.out = out
        return res

    def check(self, out_dir, result):
        chk = Check()

        def energies_match(op, got, H):
            want = ref.lowest_two(H)
            err = float(np.abs(np.asarray(got[:2]) - want).max())
            chk.expect(err <= 1e-9 * max(1.0, float(np.abs(want).max())), op,
                       f"lowest energies {got[:2]} != ARPACK {want}")

        for s, r in self.out["m2z"]:
            op = f"dense/N{self.m2z_n}/s{s}"
            c = ref.Coeffs.at(s)
            energies_match(op, r.energies, ref.dense_sector_csr(c, self.m2z_n))
            _, _, th2 = ref.dense_minimum(c)
            chk.expect(abs(r.m2z - np.cos(th2)) <= 5e-2, op,
                       f"ED m2z {r.m2z} vs classical {np.cos(th2)} at s={s}")
        gaps, extrap = self.out["ladder"]
        c = ref.Coeffs.at(self.ladder_s, self.ladder_xi)
        for N, g in zip(self.ladder, gaps):
            w = ref.lowest_two(ref.dense_sector_csr(c, N))
            chk.expect(abs(g - (w[1] - w[0])) <= 1e-8, f"ladder/N{N}",
                       f"gap {g} != ARPACK {w[1] - w[0]} at N={N}")
        _, th1, th2 = ref.dense_minimum(c)
        harmonic = ref.closed_form_gaps(c, th1, th2)[0]
        ok = abs(extrap - harmonic) <= 0.02 * harmonic
        for N in self.ladder:
            chk.expect(ok, f"ladder/N{N}",
                       f"extrapolated gap {extrap} vs harmonic {harmonic} (2% tolerance)")
        saddle_m2z = {}
        for xi, N, s, r in self.out["sparse"]:
            op = f"sparse/xi{xi}/N{N}/s{s}"
            c = ref.Coeffs.at(s, (0.0, 0.0, xi))
            energies_match(op, r.energies, ref.sparse_full_csr(c, N))
            if N == 12:
                if (xi, s) not in saddle_m2z:
                    saddle_m2z[(xi, s)] = ref.saddle_global(c)[1][3]
                chk.expect(abs(r.m2z - saddle_m2z[(xi, s)]) <= 0.1, op,
                           f"N=12 m2z {r.m2z} vs saddle {saddle_m2z[(xi, s)]}")
        return chk


WORKLOADS = {w.name: w for w in (DenseScan, CatalystOpt, SparseScan, EDOracle)}
