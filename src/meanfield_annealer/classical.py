"""Classical ground states of the dense model.

Minimizes the energy density over m_a = (sin theta_a, 0, cos theta_a),
two angles on the xz torus (every minimum has m_y = 0), with
deterministic multistart search, warm-started continuation sweeps that
expose hysteresis, and first-order transition detection by branch-energy
crossing.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import transitions
from .errors import ConvergenceError
from .model import MagPair, ModelSpec, _coeffs, _dense_energy, _dense_grad, dense_hessian


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class ClassicalState:
    """A stationary point of h on the two-sphere product (in the xz plane)."""

    s: float
    m: MagPair
    energy: float
    mu: tuple[float, float]
    residual: float
    indeterminate: tuple[bool, bool] = (False, False)

    @property
    def m2z(self) -> float:
        return float(self.m.m2[2])


@dataclass(frozen=True)
class SweepResult:
    states: list[ClassicalState]
    direction: Direction


@dataclass(frozen=True)
class TransitionReport:
    found: bool
    s_star: float
    jump_m2z: float
    hysteresis_width: float


# ---------------------------------------------------------------------------
# Damped Newton on the (theta1, theta2) torus

_EIG_FLOOR = 1e-8   # smallest curvature a Newton step divides by
_MAX_STEP = 0.5     # rad


def _unit(th):
    return np.array([np.sin(th), 0.0, np.cos(th)])


def _angles(m: MagPair) -> np.ndarray:
    return np.array([np.arctan2(m.m1[0], m.m1[2]), np.arctan2(m.m2[0], m.m2[2])])


def _tangents(th):
    """6x2 map from angle steps to (dm1, dm2): t_a = dm_a/dth_a."""
    T = np.zeros((6, 2))
    T[0:3, 0] = np.cos(th[0]), 0.0, -np.sin(th[0])
    T[3:6, 1] = np.cos(th[1]), 0.0, -np.sin(th[1])
    return T


def _angle_terms(coeffs, hess, th):
    """Energy, angle gradient and angle Hessian at th.

    dE/dth_a = g_a . t_a and, since dt_a/dth_a = -m_a, the Hessian is
    T^T H T + diag(mu) with mu_a = -g_a . m_a.
    """
    m1, m2 = _unit(th[0]), _unit(th[1])
    g1, g2 = _dense_grad(coeffs, m1, m2)
    T = _tangents(th)
    mu = np.array([-(g1 @ m1), -(g2 @ m2)])
    return (_dense_energy(coeffs, m1, m2), T.T @ np.concatenate([g1, g2]),
            T.T @ hess @ T + np.diag(mu))


def _residual(coeffs, m1, m2):
    g1, g2 = _dense_grad(coeffs, m1, m2)
    mu1 = -float(g1 @ m1)
    mu2 = -float(g2 @ m2)
    r1 = g1 + mu1 * m1
    r2 = g2 + mu2 * m2
    return (mu1, mu2), max(float(np.linalg.norm(r1)), float(np.linalg.norm(r2)))


def _indeterminate_flags(spec: ModelSpec, s: float) -> tuple[bool, bool]:
    # nothing couples to a cluster when s = 0 and its transverse field is off
    g1, g2 = spec.schedule.at(s)
    return (s == 0.0 and g1 == 1.0, s == 0.0 and g2 == 1.0)


def minimize(spec: ModelSpec, s: float, initial: MagPair,
             max_iter: int = 200, tol: float = 1e-10) -> ClassicalState:
    """Local minimum of the dense energy density from the given start.

    The energy has no y terms and its zz block is negative definite for
    s > 0, so minima lie in the xz plane: the start is projected to angles
    th_a = atan2(m_ax, m_az) and damped Newton runs on the two angles.
    Curvatures enter by absolute value with a floor, steps are capped at
    0.5 rad and halved until the energy does not rise.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n1, n2 = initial.norms()
    if n1 < 1e-6 or n2 < 1e-6:
        raise ValueError("initial magnetizations must be unit direction vectors")
    coeffs = _coeffs(spec, s)
    hess = dense_hessian(spec, s)
    th = _angles(initial)
    for _ in range(max_iter):
        energy, grad, h = _angle_terms(coeffs, hess, th)
        if np.max(np.abs(grad)) < 0.01 * tol:
            break
        w, v = np.linalg.eigh(h)
        step = -v @ ((v.T @ grad) / np.maximum(np.abs(w), _EIG_FLOOR))
        n = np.linalg.norm(step)
        if n > _MAX_STEP:
            step *= _MAX_STEP / n
        # a few ulps of slack: near convergence the decrease is below rounding
        slack = 4 * np.finfo(float).eps * max(1.0, abs(energy))
        for _ in range(60):
            trial = th + step
            if _dense_energy(coeffs, _unit(trial[0]), _unit(trial[1])) <= energy + slack:
                break
            step *= 0.5
        th = trial
    m1, m2 = _unit(th[0]), _unit(th[1])
    mu, res = _residual(coeffs, m1, m2)
    state = ClassicalState(
        s=float(s), m=MagPair(m1, m2), energy=float(_dense_energy(coeffs, m1, m2)),
        mu=mu, residual=res, indeterminate=_indeterminate_flags(spec, s),
    )
    if res >= tol:
        raise ConvergenceError(
            f"minimize did not reach residual {tol:g} at s={s:g} (got {res:g})",
            best=state,
        )
    return state


_AXIS_STARTS = [
    (np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0])),
    (np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])),
    (np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.0, 1.0])),
    (np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.0, -1.0])),
    (np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])),
    # antiparallel transverse points, favoured by a negative xi12
    (np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])),
    (np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])),
]

_KRONECKER_ALPHA = np.array([np.sqrt(2), np.sqrt(5)]) % 1.0
_KRONECKER_SEED = np.array([np.sqrt(11), np.sqrt(17)]) % 1.0


def start_set(n_starts: int, seed: int = 0) -> list[MagPair]:
    """Deterministic multistart set: z-axis sign combinations, the aligned
    and the two antiparallel transverse points, then a Kronecker
    low-discrepancy sequence on the angle torus.

    The set with a larger n_starts extends (never reshuffles) a smaller one.
    """
    starts = [MagPair(a, b) for a, b in _AXIS_STARTS]
    offset = (seed * _KRONECKER_SEED) % 1.0
    for k in range(max(0, n_starts - len(starts))):
        th = 2 * np.pi * ((offset + (k + 1) * _KRONECKER_ALPHA) % 1.0)
        starts.append(MagPair(_unit(th[0]), _unit(th[1])))
    return starts[:n_starts]


def _better(a: ClassicalState | None, b: ClassicalState) -> ClassicalState:
    if a is None:
        return b
    if b.energy < a.energy - 1e-12:
        return b
    if abs(b.energy - a.energy) < 1e-12 and b.m2z > a.m2z:
        return b
    return a


def global_minimize(spec: ModelSpec, s: float, n_starts: int = 8,
                    seed: int = 0, tol: float = 1e-10) -> ClassicalState:
    """Lowest minimum over the deterministic start set.

    Energy ties within 1e-12 are broken toward larger m2z.
    """
    if n_starts < 8:
        raise ValueError("n_starts must be at least 8")
    best = None
    failures = []
    for start in start_set(n_starts, seed):
        try:
            st = minimize(spec, s, start, tol=tol)
        except ConvergenceError as err:
            failures.append(err)
            continue
        best = _better(best, st)
    if best is None:
        raise ConvergenceError(
            f"all {n_starts} starts failed to converge at s={s:g}",
            best=failures[-1].best if failures else None,
        )
    return best


def is_stable_minimum(spec: ModelSpec, state: ClassicalState, tol: float = 1e-9) -> bool:
    """Check positive semidefiniteness of the reduced Hessian at a state.

    In the xz plane the curvature is the 2x2 angle Hessian; the energy has
    no y terms, so the curvature out of the plane is mu_a.
    """
    T = _tangents(_angles(state.m))
    h = T.T @ dense_hessian(spec, state.s) @ T + np.diag(state.mu)
    return bool(np.linalg.eigvalsh(h)[0] >= -tol and min(state.mu) >= -tol)


# ---------------------------------------------------------------------------
# Continuation sweeps and transition detection

def _warm_solver(spec: ModelSpec, n_starts: int, seed: int, tol: float):
    def solve_warm(s, prev: ClassicalState | None):
        if prev is None:
            return global_minimize(spec, s, n_starts, seed, tol)
        try:
            return minimize(spec, s, prev.m, tol=tol)
        except ConvergenceError:
            return global_minimize(spec, s, n_starts, seed, tol)

    def solve_global(s):
        return global_minimize(spec, s, n_starts, seed, tol)

    return transitions.PointSolver(
        warm=solve_warm,
        global_=solve_global,
        energy=lambda st: st.energy,
        m2z=lambda st: st.m2z,
    )


def sweep(spec: ModelSpec, s_grid, direction: Direction = Direction.FORWARD,
          n_starts: int = 8, refresh_every: int = 10, seed: int = 0,
          tol: float = 1e-10) -> SweepResult:
    """Continuation along the grid with warm starts.

    Warm starts follow a solution branch past the point where it stops
    being global; a global refresh every ``refresh_every`` points re-anchors
    the sweep only when the warm iterate already left its branch.  Forward
    and backward sweeps disagreeing inside a window is the hysteresis
    signal.
    """
    s_grid = transitions.check_grid(s_grid)
    solver = _warm_solver(spec, n_starts, seed, tol)
    states = transitions.branch_sweep(
        solver, s_grid, forward=(direction is Direction.FORWARD),
        refresh_every=refresh_every,
    )
    return SweepResult(states=states, direction=direction)


def detect_transition(spec: ModelSpec, s_grid=None, jump_threshold: float = 0.5,
                      n_starts: int = 8, seed: int = 0,
                      tol: float = 1e-10) -> TransitionReport:
    """First-order transition verdict on [min(s_grid), max(s_grid)].

    Runs forward and backward sweeps, finds the branch-coexistence window,
    bisects the branch-energy crossing to locate s*, and reports the weak
    cluster magnetization jump across it.
    """
    if s_grid is None:
        s_grid = np.linspace(0.0, 1.0, 101)
    s_grid = transitions.check_grid(s_grid)
    solver = _warm_solver(spec, n_starts, seed, tol)
    found, s_star, jump, width = transitions.detect(solver, s_grid, jump_threshold)
    return TransitionReport(found=found, s_star=s_star, jump_m2z=jump,
                            hysteresis_width=width)
