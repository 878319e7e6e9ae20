"""Branch continuation and first-order transition detection.

Shared between the dense classical solver and the sparse saddle solver:
both expose warm-started point solves through a PointSolver.
A forward and a backward continuation sweep give two branches; the lower
of the two at each grid point is the equilibrium.  The grid interval with
the largest equilibrium weak-cluster magnetization jump is the only
candidate: bisection inside it, from its two end states, locates the
branch-energy crossing (or the edge where one branch dies), and a
transition is declared when the m2z jump across that point stays large.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

COEXIST_TOL = 0.05
TIE_TOL = 1e-12


@dataclass(frozen=True)
class PointSolver:
    """Adapter over a per-point solver.

    warm(s, prev_state_or_None) continues a branch (None asks for the
    multistart equilibrium solve); energy/m2z extract the branch comparator
    and the jump observable from a state.
    """

    warm: Callable[[float, Any], Any]
    energy: Callable[[Any], float]
    m2z: Callable[[Any], float]


def check_grid(s_grid) -> np.ndarray:
    grid = np.asarray(s_grid, dtype=float).ravel()
    if grid.size < 1:
        raise ValueError("s grid must contain at least one point")
    if not np.all(np.isfinite(grid)):
        raise ValueError("s grid must be finite")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("s grid must be strictly ascending")
    return grid


def branch_sweep(solver: PointSolver, s_grid: np.ndarray, forward: bool = True) -> list:
    """Warm-started continuation along the grid, in traversal order.

    The first point is a global solve; every later one continues from its
    neighbour, so the sweep follows its branch past the energy crossing,
    which is what exposes hysteresis.
    """
    indices = range(len(s_grid)) if forward else range(len(s_grid) - 1, -1, -1)
    states = []
    prev = None
    for i in indices:
        prev = solver.warm(float(s_grid[i]), prev)
        states.append(prev)
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
    forward: list
    backward: list          # ascending order, aligned with s_grid
    equilibrium: list
    branch_tags: list[str]  # "both" | "forward" | "backward"
    report: TransitionReport


def _equilibrium(solver, fstates, bstates):
    eq, tags = [], []
    for f, b in zip(fstates, bstates):
        if abs(solver.m2z(f) - solver.m2z(b)) <= COEXIST_TOL:
            eq.append(f if solver.energy(f) <= solver.energy(b) else b)
            tags.append("both")
        else:
            ef, eb = solver.energy(f), solver.energy(b)
            if eb < ef - TIE_TOL or (abs(ef - eb) <= TIE_TOL and solver.m2z(b) > solver.m2z(f)):
                eq.append(b)
                tags.append("backward")
            else:
                eq.append(f)
                tags.append("forward")
    return eq, tags


def _bisect_crossing(solver, s_lo, s_hi, state_b, state_a, tol_s=1e-6):
    """Locate the equilibrium switch from the low-s to the high-s branch.

    state_b anchors the low-s branch at s_lo, state_a the high-s branch at
    s_hi.  Where both branches solve at the probe point the energies pick
    the side; where one branch died, the two solves merge and the surviving
    solve becomes the anchor on the side it keeps, so a smooth crossover
    closes the bracket onto one branch and its jump shrinks to zero.
    Returns the bracket midpoint and the final low-s and high-s anchors.
    """
    lo, hi = s_lo, s_hi
    anchor_b, anchor_a = state_b, state_a
    while hi - lo > tol_s:
        sm = 0.5 * (lo + hi)
        st_b = solver.warm(sm, anchor_b)
        st_a = solver.warm(sm, anchor_a)
        if abs(solver.m2z(st_b) - solver.m2z(st_a)) < COEXIST_TOL:
            # one branch died inside the bracket; shrink toward its side
            da = abs(solver.m2z(st_b) - solver.m2z(anchor_a))
            db = abs(solver.m2z(st_b) - solver.m2z(anchor_b))
            if da < db:
                hi, anchor_a = sm, st_a
            else:
                lo, anchor_b = sm, st_b
        elif solver.energy(st_b) - solver.energy(st_a) > 0.0:
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


def analyze(solver: PointSolver, s_grid, jump_threshold: float = 0.5) -> BranchAnalysis:
    """Sweep both ways, then judge the largest equilibrium m2z jump.

    The grid interval (i, i+1) with the largest jump is bisected from
    equilibrium[i] (low-s branch) and equilibrium[i+1] (high-s branch).
    The verdict is the m2z jump between the two states the bisection ends
    on, s* the midpoint of its final bracket, and the hysteresis width the
    span of the coexistence window touching the interval (0 if none).  A
    grid jump below ``jump_threshold`` is reported as no transition
    without bisecting.
    """
    s_grid = check_grid(s_grid)
    fstates = branch_sweep(solver, s_grid, forward=True)
    bstates = branch_sweep(solver, s_grid, forward=False)[::-1]
    eq, tags = _equilibrium(solver, fstates, bstates)

    def result(jump, width=0.0, s_star=float("nan")):
        found = bool(jump > jump_threshold)
        report = TransitionReport(found, float(s_star) if found else float("nan"),
                                  float(jump), width)
        return BranchAnalysis(s_grid=s_grid, forward=fstates, backward=bstates,
                              equilibrium=eq, branch_tags=tags, report=report)

    if len(s_grid) < 2:
        return result(0.0)
    jumps = np.abs(np.diff([solver.m2z(st) for st in eq]))
    i = int(np.argmax(jumps))
    width = _window_width(s_grid, [t != "both" for t in tags], i)
    if jumps[i] < jump_threshold:
        return result(jumps[i], width)
    s_star, st_b, st_a = _bisect_crossing(
        solver, float(s_grid[i]), float(s_grid[i + 1]), eq[i], eq[i + 1])
    return result(abs(solver.m2z(st_a) - solver.m2z(st_b)), width, s_star)


def detect(solver: PointSolver, s_grid, jump_threshold: float = 0.5) -> TransitionReport:
    """The transition verdict of ``analyze`` without the branches."""
    return analyze(solver, s_grid, jump_threshold).report
