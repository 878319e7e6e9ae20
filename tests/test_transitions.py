import dataclasses
from typing import NamedTuple

import numpy as np
import pytest

from meanfield_annealer import (ClassicalState, ConvergenceError, MagPair, ModelSpec,
                                SaddleSolution, build_dense_full_operator,
                                build_dense_sector_operator,
                                build_sparse_full_hamiltonian, conjugate_fields,
                                coupling_matrix, dense_ed, dense_energy_density,
                                dense_gradient, dense_hessian, detect_transition,
                                fluctuation_matrix, gaps_at,
                                global_minimize, global_saddle, minimize,
                                solve_saddle, sparse_ed, sparse_mean_field_density,
                                sparse_mean_field_gradient, sweep)
from meanfield_annealer import cli, saddle, transitions
from meanfield_annealer.classical import is_stable_minimum
from meanfield_annealer.model import TIE_TOL, _prefer
from meanfield_annealer.transitions import COEXIST_TOL, PointSolver, analyze, point_solver
from conftest import count_calls

UP = MagPair([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])


def test_detect_transition_runs_the_sparse_solver_on_a_sparse_spec():
    # the dense solver on this spec reports no transition (jump 0.334)
    rep = detect_transition(ModelSpec.sparse(xi=(0.0, 0.0, -4.0)), np.linspace(0.0, 1.0, 21))
    assert rep.found
    assert abs(rep.s_star - 0.49305503237278925) <= 1e-9
    assert abs(rep.jump_m2z - 1.4523803787211977) <= 1e-9


def test_sweep_states_follow_the_coupling():
    grid = [0.3, 0.5]
    assert all(isinstance(st, ClassicalState) for st in sweep(ModelSpec.dense(), grid))
    assert all(isinstance(st, SaddleSolution) for st in sweep(ModelSpec.sparse(), grid))


@pytest.mark.parametrize("spec", [ModelSpec.dense(), ModelSpec.sparse(xi=(0.0, 0.0, -4.0))],
                         ids=["dense", "sparse"])
def test_analyze_takes_the_sorted_distinct_grid_points(spec):
    grid = np.linspace(0.0, 1.0, 11)
    messy = np.random.default_rng(5).permutation(np.concatenate([grid, grid[::3]]))
    a, b = transitions.analyze(spec, messy), transitions.analyze(spec, grid)
    assert np.array_equal(a.s_grid, grid)
    assert a.report == b.report and a.report.found
    assert a.branch_tags == b.branch_tags
    assert [st.m2z for st in a.equilibrium] == [st.m2z for st in b.equilibrium]


def test_check_grid_rejects_empty_and_nonfinite():
    for bad in ([], [0.1, np.nan]):
        with pytest.raises(ValueError, match="s grid must"):
            transitions.check_grid(bad)


def test_analyze_rejects_a_nonpositive_jump_threshold():
    for threshold in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="jump_threshold must be positive"):
            detect_transition(ModelSpec.dense(xi=(0.0, 0.0, -4.0)), [0.5],
                              jump_threshold=threshold)


def _dense_state():
    return global_minimize(ModelSpec.dense(), 0.5)


DENSE_ONLY = {
    "global_minimize": lambda spec: global_minimize(spec, 0.5),
    "minimize": lambda spec: minimize(spec, 0.5, UP),
    "is_stable_minimum": lambda spec: is_stable_minimum(spec, _dense_state()),
    "gaps_at": lambda spec: gaps_at(spec, 0.5),
    "fluctuation_matrix": lambda spec: fluctuation_matrix(spec, _dense_state()),
    "dense_energy_density": lambda spec: dense_energy_density(spec, 0.5, UP),
    "dense_gradient": lambda spec: dense_gradient(spec, 0.5, UP),
    "dense_hessian": lambda spec: dense_hessian(spec, 0.5),
    "build_dense_sector_operator": lambda spec: build_dense_sector_operator(spec, 0.5, 4),
    "build_dense_full_operator": lambda spec: build_dense_full_operator(spec, 0.5, 4),
    "dense_ed": lambda spec: dense_ed(spec, 0.5, 4),
}

SPARSE_ONLY = {
    "solve_saddle": lambda spec: solve_saddle(spec, 0.5, UP),
    "global_saddle": lambda spec: global_saddle(spec, 0.5),
    "conjugate_fields": lambda spec: conjugate_fields(spec, 0.5, UP),
    "sparse_mean_field_density": lambda spec: sparse_mean_field_density(spec, 0.5, UP),
    "sparse_mean_field_gradient": lambda spec: sparse_mean_field_gradient(spec, 0.5, UP),
    "coupling_matrix": lambda spec: coupling_matrix(spec, 0.5),
    "build_sparse_full_hamiltonian": lambda spec: build_sparse_full_hamiltonian(spec, 0.5, 4),
    "sparse_ed": lambda spec: sparse_ed(spec, 0.5, 4),
}


@pytest.mark.parametrize("name", DENSE_ONLY)
def test_dense_only_entry_points_refuse_a_sparse_spec(name):
    DENSE_ONLY[name](ModelSpec.dense())   # the same call runs on its own model
    with pytest.raises(ValueError, match="dense-intercluster"):
        DENSE_ONLY[name](ModelSpec.sparse())


@pytest.mark.parametrize("name", SPARSE_ONLY)
def test_sparse_only_entry_points_refuse_a_dense_spec(name):
    SPARSE_ONLY[name](ModelSpec.sparse())
    with pytest.raises(ValueError, match="sparse-intercluster"):
        SPARSE_ONLY[name](ModelSpec.dense())


def _recording_solver(local):
    calls = []

    def global_(s):
        calls.append(("global", s))
        return "global"

    def traced_local(s, prev):
        calls.append(("local", s))
        return local(s, prev)

    return PointSolver(global_, traced_local, lambda state: 0.0), calls


def test_warm_without_a_previous_state_takes_the_global_solve():
    solver, calls = _recording_solver(lambda s, prev: "local")
    assert solver.warm(0.3, None) == "global"
    assert solver.warm(0.4, "global") == "local"
    assert calls == [("global", 0.3), ("local", 0.4)]


def test_warm_falls_back_to_the_global_solve_when_local_fails():
    def local(s, prev):
        raise ConvergenceError("no convergence")

    solver, calls = _recording_solver(local)
    assert solver.warm(0.5, "prev") == "global"
    assert calls == [("local", 0.5), ("global", 0.5)]


def test_warm_lets_other_errors_through():
    def local(s, prev):
        raise ValueError("bad start")

    solver, calls = _recording_solver(local)
    with pytest.raises(ValueError, match="bad start"):
        solver.warm(0.5, "prev")
    assert calls == [("local", 0.5)]


def test_unconverged_saddle_solve_falls_back_to_global(monkeypatch):
    # the closures look the solvers up at call time, so replacing the
    # module names reaches them
    spec = ModelSpec.sparse()
    prev = global_saddle(spec, 0.5)
    unconverged = SaddleSolution(s=0.5, psi=prev.psi, fields=prev.fields, lambda0=0.0,
                                 degeneracy=1, energy=0.0, converged=False, residual=1.0)
    monkeypatch.setattr(transitions, "solve_saddle", lambda spec, s, init: unconverged)
    monkeypatch.setattr(transitions, "global_saddle", lambda spec, s: "global")
    assert point_solver(spec).warm(0.5, prev) == "global"


@pytest.mark.parametrize("make", [ModelSpec.dense, ModelSpec.sparse], ids=["dense", "sparse"])
def test_pinned_weak_cluster_column_reads_as_its_neighbour(make):
    # gamma2 pinned at 1 leaves the weak cluster without a transverse field:
    # its s = 0 state is a tie-pick, and a warm solve cannot leave the pole
    # it picked.  The sweeps take the global solve after that state and the
    # jump scan skips its interval, so the column finds the gamma2 = 0.999
    # column's transition (the dense one reported none, with jump 0)
    grid = np.linspace(0.0, 1.0, 41)
    pinned = transitions.analyze(make(gamma2=1.0), grid)
    near = transitions.analyze(make(gamma2=0.999), grid).report
    assert pinned.equilibrium[0].indeterminate == (False, True)
    assert pinned.report.found and near.found
    assert abs(pinned.report.s_star - near.s_star) <= 1e-4
    assert abs(pinned.report.s_star - 0.719942) <= 1e-6
    assert pinned.report.hysteresis_width == pytest.approx(0.975, abs=1e-12)


class _Scripted(NamedTuple):
    s: float
    m2z: float
    indeterminate: tuple = (False, False)

    @property
    def x(self):
        return (0.0, 1.0, 0.0, self.m2z)


def _backward_along(forward_m2z, backward_m2z):
    """A backward sweep along scripted forward states, whose global and warm
    solves both return the backward script's state at their grid point:
    the sweep's m2z per grid point, and the points it solved, in order."""
    grid = np.linspace(0.0, 1.0, len(forward_m2z))
    solved = []

    def solve(s, prev=None):
        solved.append(int(np.flatnonzero(grid == s)[0]))
        return _Scripted(s, backward_m2z[solved[-1]])

    along = [_Scripted(s, m) for s, m in zip(grid, forward_m2z)]
    states = transitions.branch_sweep(PointSolver(solve, solve, None), grid,
                                      forward=False, along=along)
    return [st.m2z for st in states[::-1]], solved


def test_backward_sweep_solves_below_the_upper_window():
    # two forward m2z jumps, at (2, 3) and (6, 7): the global start matches,
    # so the top run 7..10 is the forward one; at 4 and 3 the backward state
    # matches too, but the lower window is still ahead, so it solves on
    # until it rejoins below that window, at 1
    nan = float("nan")
    forward = [-1, -1, -1, 1, 1, 1, 1, -1, -1, -1, -1]
    backward = [nan, -1, 1, 1, 1, -1, -1, nan, nan, nan, -1]
    m2z, solved = _backward_along(forward, backward)
    assert solved == [10, 6, 5, 4, 3, 2, 1]
    assert m2z == [-1, -1, 1, 1, 1, -1, -1, -1, -1, -1, -1]


def test_backward_sweep_from_a_metastable_forward_end_copies_no_top_run():
    # the forward sweep ends on the +1 branch, the global start at s = 1 is
    # on the -1 one: the backward sweep solves down to where it meets the
    # forward states with no forward jump below
    forward = [-1] * 5 + [1] * 6
    m2z, solved = _backward_along(forward, [-1] * 11)
    assert solved == [10, 9, 8, 7, 6, 5, 4]
    assert m2z == [-1] * 11


def test_backward_sweep_of_a_crossover_solves_only_its_global_start():
    # forward m2z steps of 0.045, none above COEXIST_TOL
    forward = list(np.linspace(-0.9, 0.9, 41))
    m2z, solved = _backward_along(forward, forward)
    assert solved == [40] and m2z == forward
    # without the forward states, every point is solved
    grid = np.linspace(0.0, 1.0, 41)
    solver = PointSolver(lambda s: _Scripted(s, 0.0), lambda s, prev: _Scripted(s, 0.0), None)
    assert len(transitions.branch_sweep(solver, grid, forward=False)) == 41
    with pytest.raises(ValueError, match="backward sweep only"):
        transitions.branch_sweep(solver, grid, forward=True, along=[])


# warm solves per column of the benchmark's dense-scan (minimize, 101
# points) and sparse-scan (solve_saddle, 21 points) columns; with a full
# backward sweep (and five starts per global saddle solve) they were
# 208/200/208 and 58/58/58/50/50
SWEEP_COUNTS = [(ModelSpec.dense(xi=(0.0, 0.0, xi)), 101, "minimize", (transitions,), n)
                for xi, n in ((0.0, 155), (-4.0, 106), (-10.0, 137))]
SWEEP_COUNTS += [(ModelSpec.sparse(xi=(0.0, 0.0, xi)), 21, "solve_saddle", (saddle, transitions), n)
                 for xi, n in ((0.0, 54), (4.0, 51), (-4.0, 60), (8.0, 38), (-7.0, 42))]


@pytest.mark.parametrize("spec, n, name, modules, count", SWEEP_COUNTS,
                         ids=[f"{spec.coupling.value}-xi{spec.xi12:g}" for spec, *_ in SWEEP_COUNTS])
def test_column_solve_counts(monkeypatch, spec, n, name, modules, count):
    # the sparse counts include the 7 starts of each of the two global solves
    calls = count_calls(monkeypatch, name, *modules)
    analyze(spec, np.linspace(0.0, 1.0, n))
    assert len(calls) == count


SLOPE_SPECS = [ModelSpec.dense(xi=(-2.0, 1.0, -4.0)),
               ModelSpec.dense(xi=(0.0, 0.0, -4.0), gamma2=0.5),
               ModelSpec.sparse(xi=(0.0, 0.0, -4.0)),
               ModelSpec.sparse(xi=(-5.0, -5.0, -10.0), gamma1=0.3)]


@pytest.mark.parametrize("spec", SLOPE_SPECS,
                         ids=["dense", "dense-pinned", "sparse", "sparse-pinned"])
def test_slope_is_the_branch_energy_derivative(spec):
    # Hellmann-Feynman: at a stationary state dE/ds is the energy
    # polynomial's partial derivative in s, against a central difference
    solver = point_solver(spec)
    h = 1e-5
    for s in (0.2, 0.45, 0.8):
        central = (solver.global_(s + h).energy - solver.global_(s - h).energy) / (2 * h)
        assert abs(solver.slope(solver.global_(s)) - central) <= 1e-6


def _crossing_search(spec, n):
    """The crossing search of one column, with the states of its probes."""
    grid = np.linspace(0.0, 1.0, n)
    analysis = analyze(spec, grid)
    i = int(np.searchsorted(grid, analysis.report.s_star)) - 1
    probes = []

    def local(s, prev):
        probes.append(analysis.solver.local(s, prev))
        return probes[-1]

    solver = dataclasses.replace(analysis.solver, local=local)
    eq = analysis.equilibrium
    s_star, _, _ = transitions._locate_crossing(solver, grid[i], grid[i + 1], eq[i], eq[i + 1])
    assert s_star == analysis.report.s_star
    return s_star, probes


# s* of the bisection this search replaced, to its bracket of 1e-6
CROSSINGS = [(ModelSpec.sparse(xi=(0.0, 0.0, -4.0)), 21, 0.4930545806884765),
             (ModelSpec.dense(xi=(0.0, 0.0, 0.0)), 101, 0.7189028930664063)]


@pytest.mark.parametrize("spec, n, bisected", CROSSINGS, ids=["sparse", "dense"])
def test_crossing_search_brackets_the_energy_crossing(spec, n, bisected):
    tol_s = 1e-6
    s_star, probes = _crossing_search(spec, n)
    # each probe warm-solves the low-s branch, then the high-s one; the
    # final bracket is the nearest probe on either side of s*
    gap = {st_b.s: st_b.energy - st_a.energy for st_b, st_a in zip(probes[::2], probes[1::2])}
    lo = max(s for s in gap if s < s_star)
    hi = min(s for s in gap if s > s_star)
    assert hi - lo <= tol_s and s_star == 0.5 * (lo + hi)
    assert gap[lo] <= 0.0 < gap[hi]
    assert abs(s_star - bisected) <= tol_s
    # bisection made 32 and 28 solves on these columns
    assert len(probes) <= 12


class _Probe(NamedTuple):
    s: float
    energy: float
    m2z: float
    slope: float


@pytest.mark.parametrize("gap, slope, most", [
    (lambda s: s - 0.3, lambda s: 1.0, 2),
    # Newton from the far side overshoots out of the bracket
    (lambda s: np.arctan(50.0 * (s - 0.3)), lambda s: 50.0 / (1.0 + (50.0 * (s - 0.3)) ** 2), 10),
    # parallel tangent lines: every probe is a midpoint
    (lambda s: s - 0.3, lambda s: 0.0, 20),
    # a triple root, where Newton converges only linearly
    (lambda s: (s - 0.3) ** 3, lambda s: 3.0 * (s - 0.3) ** 2, 40),
], ids=["linear", "overshoot", "parallel", "triple-root"])
def test_crossing_search_safeguards_on_synthetic_branches(gap, slope, most):
    # branch b has energy gap(s) and m2z = -1, branch a energy 0 and m2z = +1
    probes = []

    def local(s, prev):
        probes.append(s)
        return _Probe(s, gap(s), -1.0, slope(s)) if prev.m2z < 0 else _Probe(s, 0.0, 1.0, 0.0)

    solver = PointSolver(None, local, lambda state: state.slope)
    s_star, st_b, st_a = transitions._locate_crossing(
        solver, 0.0, 1.0, _Probe(0.0, gap(0.0), -1.0, slope(0.0)), _Probe(1.0, 0.0, 1.0, 0.0))
    assert abs(s_star - 0.3) <= 0.5e-6
    assert (st_b.m2z, st_a.m2z) == (-1.0, 1.0)
    assert len(probes) <= 2 * most


def test_crossing_search_merges_probes_exactly_coexist_tol_apart():
    # branch b (m2z = -1) dies above s = 0.3, where its warm solve lands at
    # m2z = 0, exactly COEXIST_TOL from branch a: the probes merge and the
    # bracket closes onto the death point.  Read as two branches, E_b - E_a
    # = 0 there would move the low end past it
    def local(s, prev):
        if prev.m2z > 0.0:
            return _Probe(s, 0.0, COEXIST_TOL, 0.0)
        return _Probe(s, -1.0, -1.0, 0.0) if s < 0.3 else _Probe(s, 0.0, 0.0, 0.0)

    solver = PointSolver(None, local, lambda state: state.slope)
    s_star, st_b, st_a = transitions._locate_crossing(
        solver, 0.0, 1.0, _Probe(0.0, -1.0, -1.0, 0.0), _Probe(1.0, 0.0, COEXIST_TOL, 0.0))
    assert abs(s_star - 0.3) <= 0.5e-6
    assert (st_b.m2z, st_a.m2z) == (-1.0, COEXIST_TOL)


class _State(NamedTuple):
    energy: float
    m2z: float


def test_prefer_none_incumbent():
    new = _State(1.0, -1.0)
    assert _prefer(new, None) is new


def test_prefer_equal_energies_go_to_larger_m2z():
    lo, hi = _State(-1.0, -0.5), _State(-1.0, 0.5)
    assert _prefer(lo, hi) is hi
    assert _prefer(hi, lo) is hi


def test_prefer_band_edge_is_a_tie():
    # exactly TIE_TOL apart is inside the tie band, either way round
    old = _State(0.0, 0.5)
    assert _prefer(_State(-TIE_TOL, -0.5), old) is old
    lower_larger = _State(-TIE_TOL, 0.9)
    assert _prefer(lower_larger, old) is lower_larger
    higher_larger = _State(TIE_TOL, 0.9)
    assert _prefer(higher_larger, old) is higher_larger
    # beyond the band the energy decides alone
    clearly_lower = _State(-2 * TIE_TOL, -0.5)
    assert _prefer(clearly_lower, old) is clearly_lower
    assert _prefer(_State(2 * TIE_TOL, 0.9), old) is old


def test_equilibrium_picks_by_prefer_on_one_branch_too():
    # m2z within COEXIST_TOL (tag "both"), energies within TIE_TOL: the
    # larger m2z wins whichever sweep holds it, as between branches
    low, high = _State(-0.5 * TIE_TOL, 0.5), _State(0.0, 0.52)
    eq, tags = transitions._equilibrium([high, low], [low, high])
    assert eq[0] is high and eq[1] is high and tags == ["both", "both"]
    # exactly COEXIST_TOL apart is one branch; beyond it the tag names the pick
    near, far = _State(0.0, COEXIST_TOL), _State(0.0, np.nextafter(COEXIST_TOL, 1.0))
    eq, tags = transitions._equilibrium([_State(-1.0, 0.0)] * 2, [near, far])
    assert tags == ["both", "forward"]
    eq, tags = transitions._equilibrium([_State(1.0, 0.0)] * 2, [near, far])
    assert eq[0] is near and eq[1] is far and tags == ["both", "backward"]


# the twelve scan files of the built-in figures, at 21 s-points x 11 columns
SCAN_FILES = [(path[:-len(".csv")], cfg) for fig in cli.FIGURE_IDS
              for cfg, path in cli._figure_jobs(fig, "", s_steps=21, axis2_steps=11)
              if cfg["task"] == "scan"]
# at xi11 = -6, s = 0.5 both sweeps hold m2z = +0.058, 6.2e-7 above the
# global minimum at m2z = -0.068; on 41 and 201 s-points the equilibrium is right
KNOWN_MISSES = {"fig5_strong": "xi11 = -6, s = 0.5: both sweeps 6.2e-7 above global_minimize"}


@pytest.mark.parametrize("cfg", [
    pytest.param(cfg, id=name, marks=[pytest.mark.xfail(strict=True, reason=KNOWN_MISSES[name])]
                 if name in KNOWN_MISSES else [])
    for name, cfg in SCAN_FILES])
def test_every_equilibrium_state_is_the_global_minimum(cfg):
    # each equilibrium state of a branch pass against an independent global
    # solve of its model, global_minimize or global_saddle, both ways;
    # indeterminate states are tie-picks and are left out
    misses = []
    for value in cli._axis2_values(cfg):
        analysis = analyze(cli.build_spec(cfg, value), cli._s_grid(cfg))
        for state in analysis.equilibrium:
            if not any(state.indeterminate):
                gap = state.energy - analysis.solver.global_(state.s).energy
                if abs(gap) > 1e-9:
                    misses.append((value, state.s, gap))
    assert len(SCAN_FILES) == 12
    assert misses == []


# -- the mirror symmetry: exchange the clusters and reverse z.  Both models'
# energies are invariant, so an error in one hand-written term of a kernel
# shows as a mirrored spec's different answer; a symmetric error does not

def _mirror(spec):
    """(h1, h2, xi11, xi22, xi12, gamma1, gamma2) -> (-h2, -h1, xi22, xi11,
    xi12, gamma2, gamma1)."""
    return dataclasses.replace(spec, h1=-spec.h2, h2=-spec.h1, xi11=spec.xi22, xi22=spec.xi11,
                               gamma1=spec.gamma2, gamma2=spec.gamma1)


@pytest.mark.parametrize("make, solve", [(ModelSpec.dense, global_minimize),
                                         (ModelSpec.sparse, global_saddle)],
                         ids=["global_minimize", "global_saddle"])
def test_global_solvers_commute_with_the_mirror(make, solve):
    # a state (m1x, m1z, m2x, m2z) maps to (m2x, -m2z, m1x, -m1z)
    rng = np.random.default_rng(13)
    for _ in range(100):
        h1, h2 = rng.uniform(0.2, 1.5), rng.uniform(-1.5, -0.2)
        gamma1, gamma2 = (rng.uniform(0.0, 1.0) if rng.random() < 0.3 else None for _ in "12")
        spec = make(xi=tuple(rng.uniform(-10.0, 10.0, 3)), h1=h1, h2=h2,
                    gamma1=gamma1, gamma2=gamma2)
        s = rng.uniform(0.05, 0.95)
        st, mirrored = solve(spec, s), solve(_mirror(spec), s)
        x1, z1, x2, z2 = st.x
        assert abs(st.energy - mirrored.energy) <= 1e-12
        assert max(abs(p - q) for p, q in zip((x2, -z2, x1, -z1), mirrored.x)) <= 1e-9


@pytest.mark.parametrize("cfg", [cfg for _, cfg in SCAN_FILES], ids=[n for n, _ in SCAN_FILES])
def test_branch_pass_energies_commute_with_the_mirror(cfg):
    # the equilibrium energy per grid point; where two states tie within
    # TIE_TOL the pick goes to the larger m2z, which the mirror does not keep
    grid = cli._s_grid(cfg)
    for value in cli._axis2_values(cfg):
        spec = cli.build_spec(cfg, value)
        eq, mirrored = (analyze(sp, grid).equilibrium for sp in (spec, _mirror(spec)))
        assert max(abs(a.energy - b.energy) for a, b in zip(eq, mirrored)) <= 2e-12
