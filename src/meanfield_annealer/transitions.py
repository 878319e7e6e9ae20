"""Branch continuation and first-order transition detection for both models.

``analyze`` is the one branch pass over a spec and an s grid, read as
its sorted distinct points (``check_grid``); ``detect_transition``,
``spinwave``'s ``gap_profile``, ``min_gap`` and ``optimize_catalyst``, and
the CLI's ``scan``, ``gap``, ``min-gap`` and ``optimize-xi`` tasks read it.
``point_solver`` is the one place where a spec's coupling picks its
solver: damped Newton on the classical torus (``classical``) for dense
intercluster coupling, the self-consistent saddle (``saddle``) for
sparse, each with the slope dE/ds of a state's branch.  Both solvers'
states carry ``energy``, ``m2z`` (all the detector reads) and the in-plane
floats ``x`` = (m1x, m1z, m2x, m2z) a CSV row reads.
``analyze``, ``sweep`` and ``detect_transition`` take either spec.
A forward and a backward continuation sweep give two branches; the
backward sweep solves only where it can leave the forward branch and takes
the forward states elsewhere.  The lower of the two at each grid point is
the equilibrium.  The grid interval with the largest equilibrium
weak-cluster magnetization jump, not counting intervals that touch an
``indeterminate`` weak cluster, is the only candidate: safeguarded Newton
on the branch-energy difference inside it, from its two end states,
locates the branch-energy crossing (or the edge where one branch dies),
and a transition is declared when the m2z jump across that point stays
large.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Any, Callable

import numpy as np

from .classical import global_minimize, minimize
from .errors import ConvergenceError
from .model import Coupling, ModelSpec, _coeffs_slope, _energy, _prefer
from .saddle import _pair_energy, global_saddle, solve_saddle

COEXIST_TOL = 0.05
_TOL_S = 1e-6   # width of the final bracket of the crossing search


@dataclass(frozen=True)
class PointSolver:
    """A per-point solver: ``global_(s)`` is the multistart equilibrium
    solve, ``local(s, prev)`` continues from a neighbouring state and
    raises ConvergenceError when it fails, and ``slope(state)`` is dE/ds
    along the state's branch: the energy polynomial's partial derivative in
    s at the state, exact at a stationary state (Hellmann-Feynman)."""

    global_: Callable[[float], Any]
    local: Callable[[float, Any], Any]
    slope: Callable[[Any], float]

    def warm(self, s: float, prev):
        """Continue a branch from ``prev``; None, or a failed local solve,
        takes the global solve."""
        if prev is not None:
            try:
                return self.local(s, prev)
            except ConvergenceError:
                pass
        return self.global_(s)


def point_solver(spec: ModelSpec, n_starts: int = 8, seed: int = 0) -> PointSolver:
    """The solver for the spec's coupling; ``n_starts`` and ``seed`` set the
    dense multistart only.  The closures look the solvers up by name at
    each call, so wrappers installed on those names see every solve."""
    if spec.coupling is Coupling.DENSE:
        return PointSolver(lambda s: global_minimize(spec, s, n_starts, seed),
                           lambda s, prev: minimize(spec, s, prev),
                           lambda st: _energy(_coeffs_slope(spec, st.s), *st.x))

    def local(s, prev):
        sol = solve_saddle(spec, s, prev)
        if not sol.converged:
            raise ConvergenceError(f"warm saddle solve did not converge at s={s:g}", best=sol)
        return sol

    return PointSolver(lambda s: global_saddle(spec, s), local,
                       lambda st: _pair_energy(_coeffs_slope(spec, st.s), *st.psi))


def check_grid(s_grid=None) -> np.ndarray:
    """The grid a branch pass runs on: the sorted distinct points of a
    finite, non-empty s grid, by default 101 points over [0, 1]."""
    grid = np.linspace(0.0, 1.0, 101) if s_grid is None else np.asarray(s_grid, dtype=float)
    if grid.size < 1:
        raise ValueError("s grid must contain at least one point")
    if not np.all(np.isfinite(grid)):
        raise ValueError("s grid must be finite")
    return np.unique(grid)


def _same_state(a, b) -> bool:
    """Two states on one branch: all four x within 1e-8, neither indeterminate."""
    return (not any(a.indeterminate) and not any(b.indeterminate)
            and max(abs(p - q) for p, q in zip(a.x, b.x)) <= 1e-8)


def branch_sweep(solver: PointSolver, s_grid: np.ndarray, forward: bool = True,
                 along=None) -> list:
    """Warm-started continuation along the grid, in traversal order.

    The first point is a global solve; every later one continues from its
    neighbour, so the sweep follows its branch past the energy crossing,
    which is what exposes hysteresis.  A point after an ``indeterminate``
    state (a cluster with no field at s = 0) takes the global solve too:
    that state is a tie-pick, and a pinned gamma = 1 leaves no transverse
    field to carry a warm solve off the pole it picked.

    ``along``, the forward sweep's states, makes a backward sweep solve
    only where it can leave that branch.  A global start on the forward
    state (``_same_state``) takes the forward states down to the forward
    sweep's last m2z step above COEXIST_TOL and continues from there; the
    first state on the forward one with no such step below ends the sweep
    on the forward states.
    """
    if along is not None and forward:
        raise ValueError("along is the forward sweep: it steers a backward sweep only")
    top = len(s_grid) - 1
    jumps = [] if along is None else [   # forward m2z jumps over (k, k + 1)
        k for k in range(top) if abs(along[k + 1].m2z - along[k].m2z) > COEXIST_TOL]
    i, di = (0, 1) if forward else (top, -1)
    states = []
    prev = None
    while 0 <= i <= top:
        prev = solver.warm(float(s_grid[i]),
                           None if prev is None or any(prev.indeterminate) else prev)
        states.append(prev)
        if along is not None:
            low = max((k + 1 for k in jumps if k < i), default=0)   # bottom of i's run
            if (i == top or low == 0) and _same_state(prev, along[i]):
                states += along[low:i][::-1]
                prev, i = along[low], low
        i += di
    return states


@dataclass(frozen=True)
class TransitionReport:
    found: bool
    s_star: float           # NaN exactly when found is False
    jump_m2z: float
    hysteresis_width: float


@dataclass(frozen=True)
class BranchAnalysis:
    s_grid: np.ndarray
    solver: PointSolver     # the pass's solver, for warm probes off the grid
    equilibrium: list
    branch_tags: list[str]  # "both" | "forward" | "backward"
    report: TransitionReport


def _equilibrium(fstates, bstates):
    """Equilibrium state and tag per grid point.  Where the sweeps agree
    (m2z within COEXIST_TOL, tag "both") the lower energy wins, an exact tie
    going forward; elsewhere ``model._prefer`` picks.  The first rule stays:
    on fig2 at 41 x 21 points ``_prefer`` would pick the other state at 213
    of the 576 "both" points and change a printed CSV field at 95."""
    eq, tags = [], []
    for f, b in zip(fstates, bstates):
        if abs(f.m2z - b.m2z) <= COEXIST_TOL:
            eq.append(f if f.energy <= b.energy else b)
            tags.append("both")
        else:
            eq.append(_prefer(b, f))
            tags.append("backward" if eq[-1] is b else "forward")
    return eq, tags


def _locate_crossing(solver, s_lo, s_hi, state_b, state_a):
    """Locate the equilibrium switch from the low-s to the high-s branch.

    state_b anchors the low-s branch at s_lo, state_a the high-s branch at
    s_hi, and each probe warm-solves both branches from their anchors.
    Where both branches solve, the sign of E_b - E_a picks the side and the
    two solves become the anchors; where one branch died, the two solves
    merge and the surviving solve becomes the anchor on the side it keeps,
    so a smooth crossover closes the bracket onto one branch and its jump
    shrinks to zero.

    The probe is safeguarded Newton on E_b - E_a (``rtsafe``; Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4): the
    point where the anchors' tangent lines E + slope (s - s_anchor) meet.
    It is the midpoint after a merged probe, where there is no gap to
    follow, when the lines meet outside the bracket or are parallel, and
    when the Newton step is more than half the step before last.  The test
    is on steps, as in rtsafe and zeroin, not on the bracket: Newton
    converging onto one end leaves the other end standing.  A probe keeps
    _TOL_S/2 from both ends.  Once the estimate stops moving (it lies within
    _TOL_S/2 of the last probe), one probe goes _TOL_S/2 into the bracket
    from there, just across the root, as zeroin's tolerance step does; that
    step is not taken twice in a row.  Returns the midpoint of the final
    bracket, at most _TOL_S wide, and the final low-s and high-s anchors.
    """
    lo, hi = s_lo, s_hi
    anchor_b, anchor_a = state_b, state_a
    half = 0.5 * _TOL_S
    steps = (inf, inf)   # the steps to the last two probes
    last, merged, across = inf, False, False
    while hi - lo > _TOL_S:
        sm, step_across = 0.5 * (lo + hi), False
        slope_b, slope_a = solver.slope(anchor_b), solver.slope(anchor_a)
        if not merged and slope_b != slope_a:
            sn = anchor_b.s + ((anchor_a.energy - anchor_b.energy
                                + slope_a * (anchor_b.s - anchor_a.s)) / (slope_b - slope_a))
            if abs(sn - last) <= half and not across:
                sm, step_across = (lo + half if last == lo else hi - half), True
            elif lo < sn < hi and abs(sn - last) <= 0.5 * steps[0]:
                sm = min(max(sn, lo + half), hi - half)
        steps = (steps[1], abs(sm - last))
        last, across = sm, step_across
        st_b = solver.warm(sm, anchor_b)
        st_a = solver.warm(sm, anchor_a)
        merged = abs(st_b.m2z - st_a.m2z) < COEXIST_TOL
        if merged:
            # one branch died inside the bracket; shrink toward its side
            da = abs(st_b.m2z - anchor_a.m2z)
            db = abs(st_b.m2z - anchor_b.m2z)
            if da < db:
                hi, anchor_a = sm, st_a
            else:
                lo, anchor_b = sm, st_b
        elif st_b.energy - st_a.energy > 0.0:
            hi, anchor_b, anchor_a = sm, st_b, st_a
        else:
            lo, anchor_b, anchor_a = sm, st_b, st_a
    return 0.5 * (lo + hi), anchor_b, anchor_a


def _window_width(s_grid, coexist, i) -> float:
    """Span of the coexistence run touching grid interval (i, i+1), or 0."""
    touching = [j for j in (i, i + 1) if coexist[j]]
    if not touching:
        return 0.0
    lo, hi = touching[0], touching[-1]
    while lo > 0 and coexist[lo - 1]:
        lo -= 1
    while hi < len(coexist) - 1 and coexist[hi + 1]:
        hi += 1
    return float(s_grid[hi] - s_grid[lo])


def analyze(spec: ModelSpec, s_grid=None, jump_threshold: float = 0.5,
            n_starts: int = 8, seed: int = 0) -> BranchAnalysis:
    """Sweep either model both ways along ``check_grid(s_grid)``, then
    judge the largest equilibrium m2z jump; the backward sweep solves only
    where it can leave the forward branch.

    The solver is ``point_solver(spec, n_starts, seed)``, carried on the
    result.  ``_locate_crossing`` searches the grid interval (i, i+1) with
    the largest jump, from equilibrium[i] (low-s branch) and
    equilibrium[i+1] (high-s branch); an interval with an end state whose
    weak cluster is ``indeterminate`` does not count.  The verdict is the
    m2z jump between the two states the search ends on, s* the midpoint of
    its final bracket, at most 1e-6 wide, and the hysteresis width the span
    of the coexistence window touching the interval (0 if none).  A grid
    jump below ``jump_threshold``, which must be positive, is reported as
    no transition without a search.
    """
    if not jump_threshold > 0:
        raise ValueError(f"jump_threshold must be positive, got {jump_threshold!r}")
    s_grid = check_grid(s_grid)
    solver = point_solver(spec, n_starts, seed)
    fstates = branch_sweep(solver, s_grid, forward=True)
    bstates = branch_sweep(solver, s_grid, forward=False, along=fstates)[::-1]
    eq, tags = _equilibrium(fstates, bstates)

    def result(jump, width=0.0, s_star=float("nan")):
        found = bool(jump > jump_threshold)
        report = TransitionReport(found, float(s_star) if found else float("nan"),
                                  float(jump), width)
        return BranchAnalysis(s_grid=s_grid, solver=solver, equilibrium=eq,
                              branch_tags=tags, report=report)

    if len(s_grid) < 2:
        return result(0.0)
    # a tie-picked weak cluster at s = 0 makes no jump to judge
    jumps = np.array([0.0 if a.indeterminate[1] or b.indeterminate[1] else abs(b.m2z - a.m2z)
                      for a, b in zip(eq, eq[1:])])
    i = int(np.argmax(jumps))
    width = _window_width(s_grid, [t != "both" for t in tags], i)
    if jumps[i] < jump_threshold:
        return result(jumps[i], width)
    s_star, st_b, st_a = _locate_crossing(
        solver, float(s_grid[i]), float(s_grid[i + 1]), eq[i], eq[i + 1])
    return result(abs(st_a.m2z - st_b.m2z), width, s_star)


def sweep(spec: ModelSpec, s_grid, forward: bool = True, n_starts: int = 8,
          seed: int = 0) -> list:
    """Warm-started continuation of either model along ``check_grid(s_grid)``,
    in traversal order; forward and backward sweeps disagreeing inside a
    window is the hysteresis signal."""
    return branch_sweep(point_solver(spec, n_starts, seed), check_grid(s_grid), forward)


def detect_transition(spec: ModelSpec, s_grid=None, jump_threshold: float = 0.5,
                      n_starts: int = 8, seed: int = 0) -> TransitionReport:
    """First-order transition verdict of either model: the report of
    ``analyze``, by default on 101 points over [0, 1]."""
    return analyze(spec, s_grid, jump_threshold, n_starts, seed).report
