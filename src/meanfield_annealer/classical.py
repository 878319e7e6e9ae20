"""Classical ground states of the dense model.

Minimizes the energy density over m_a = (sin theta_a, 0, cos theta_a),
two angles on the xz torus (every minimum has m_y = 0), by damped Newton
on Python floats over the model's dense kernel: ``minimize`` from one
start, ``global_minimize`` over a deterministic multistart set.  A
``ClassicalState`` carries the angles (t1, t2); its in-plane ``x`` =
(m1x, m1z, m2x, m2z) and ``m`` are derived, and ``minimize`` continues
from a state's own angles.  A Newton run of either solver (``saddle``
imports the constants) takes at most ``_MAX_ITER`` iterations and has
converged below residual ``_TOL``.  Sweeps and transition detection for
either model live in ``transitions``.
"""
from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from math import atan2, cos, hypot, sin

import numpy as np

from .errors import ConvergenceError
from .model import (Coupling, MagPair, ModelSpec, _angle_hessian, _coeffs, _eigh2, _energy,
                    _grad, _indeterminate_flags, _lowest, _require)


@dataclass(frozen=True)
class ClassicalState:
    """A stationary point of h at the angles (t1, t2): m_a = (sin t_a, 0, cos t_a);
    ``x`` is (m1x, m1z, m2x, m2z), the floats a ``SaddleSolution`` stores."""

    s: float
    t1: float
    t2: float
    energy: float
    mu: tuple[float, float]
    residual: float
    indeterminate: tuple[bool, bool] = (False, False)

    @property
    def x(self) -> tuple[float, float, float, float]:
        return sin(self.t1), cos(self.t1), sin(self.t2), cos(self.t2)

    @property
    def m(self) -> MagPair:
        return MagPair(_unit(self.t1), _unit(self.t2))

    @property
    def m2z(self) -> float:
        return cos(self.t2)

    @property
    def converged(self) -> bool:
        return self.residual < _TOL


# ---------------------------------------------------------------------------
# Damped Newton on the (theta1, theta2) torus, on Python floats through the
# model's dense kernel with m_a = (x_a, 0, z_a) = (sin th_a, 0, cos th_a)

_EIG_FLOOR = 1e-8   # smallest curvature a Newton step divides by
_MAX_STEP = 0.5     # rad
_MAX_ITER = 200
_TOL = 1e-10        # residual below which a Newton run has converged
_STABLE_TOL = 1e-9  # how far below zero is_stable_minimum lets a curvature read
_FOUR_ULPS = 4 * sys.float_info.epsilon


def _newton(k, t1, t2, indeterminate) -> ClassicalState:
    """Damped Newton from the angles (t1, t2) on the coefficients ``k``;
    returns the state where it ended, at s = k.s.

    Hessian eigenvalues enter by absolute value with a floor, steps are
    capped at 0.5 rad and halved until the energy rises by at most 4 ulps.
    """
    k = tuple(k)   # the kernel's unpack of an exact tuple skips the generic iterator path
    x1, z1, x2, z2 = sin(t1), cos(t1), sin(t2), cos(t2)
    energy = _energy(k, x1, z1, x2, z2)
    for _ in range(_MAX_ITER):
        g1x, g1z, g2x, g2z = _grad(k, x1, z1, x2, z2)
        d1 = g1x * z1 - g1z * x1    # dE/dth_a = g_a . t_a
        d2 = g2x * z2 - g2z * x2
        if max(abs(d1), abs(d2)) < 0.01 * _TOL:
            break
        h11, h12, h22 = _angle_hessian(k, x1, z1, x2, z2,
                                       -(g1x * x1 + g1z * z1), -(g2x * x2 + g2z * z2))
        lo, hi, c, sn = _eigh2(h11, h12, h22)   # eigenvectors (c, sn) and (-sn, c)
        p1 = (c * d1 + sn * d2) / max(abs(lo), _EIG_FLOOR)
        p2 = (c * d2 - sn * d1) / max(abs(hi), _EIG_FLOOR)
        step1 = sn * p2 - c * p1
        step2 = -(sn * p1 + c * p2)
        n = hypot(step1, step2)
        if n > _MAX_STEP:
            step1 *= _MAX_STEP / n
            step2 *= _MAX_STEP / n
        # a few ulps of slack: near convergence the decrease is below rounding
        bound = energy + _FOUR_ULPS * max(1.0, abs(energy))
        for _ in range(60):   # the last trial is taken either way, its floats carried
            u1, u2 = t1 + step1, t2 + step2
            x1, z1, x2, z2 = sin(u1), cos(u1), sin(u2), cos(u2)
            energy = _energy(k, x1, z1, x2, z2)
            if energy <= bound:
                break
            step1 *= 0.5
            step2 *= 0.5
        t1, t2 = u1, u2
    else:   # out of iterations: the gradient read last is the previous point's
        g1x, g1z, g2x, g2z = _grad(k, x1, z1, x2, z2)
    # mu_a = -g_a . m_a; the residual is the part of g_a off m_a
    mu1 = -(g1x * x1 + g1z * z1)
    mu2 = -(g2x * x2 + g2z * z2)
    res = max(hypot(g1x + mu1 * x1, g1z + mu1 * z1), hypot(g2x + mu2 * x2, g2z + mu2 * z2))
    return ClassicalState(k[0], t1, t2, energy, (mu1, mu2), res, indeterminate)


def _unit(th):
    return np.array([sin(th), 0.0, cos(th)])


def _angles(m: MagPair) -> tuple[float, float]:
    return atan2(m.m1[0], m.m1[2]), atan2(m.m2[0], m.m2[2])


def minimize(spec: ModelSpec, s: float, initial: MagPair | ClassicalState) -> ClassicalState:
    """Local minimum of the dense energy density from the given start.

    The energy has no y terms and its zz block is negative definite for
    s > 0, so minima lie in the xz plane: damped Newton (``_newton``, shared
    with ``global_minimize``) runs on the two angles, a ClassicalState's own
    or th_a = atan2(m_ax, m_az) of a MagPair start.  A residual not below
    ``_TOL`` raises ``ConvergenceError``, the state reached as ``best``.
    """
    _require(spec, Coupling.DENSE)
    if isinstance(initial, ClassicalState):
        t1, t2 = initial.t1, initial.t2
    elif min(initial.norms()) < 1e-6:
        raise ValueError("initial magnetizations must be unit direction vectors")
    else:
        t1, t2 = _angles(initial)
    state = _newton(_coeffs(spec, s), t1, t2, _indeterminate_flags(spec, s))
    if not state.converged:
        raise ConvergenceError(
            f"minimize did not reach residual {_TOL:g} at s={s:g} (got {state.residual:g})",
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


@functools.lru_cache(maxsize=32)
def _start_angles(n_starts: int, seed: int) -> tuple[tuple[float, float], ...]:
    return tuple(_angles(start) for start in start_set(n_starts, seed))


def global_minimize(spec: ModelSpec, s: float, n_starts: int = 8, seed: int = 0) -> ClassicalState:
    """Lowest minimum over the deterministic start set.

    The coefficients are folded once and every start runs the same Newton
    kernel as ``minimize``; ``model._lowest`` keeps the best start whose
    residual is below ``_TOL`` (energy ties within 1e-12 go to the larger
    m2z) and raises ``ConvergenceError`` when none is.
    """
    _require(spec, Coupling.DENSE)
    if n_starts < 8:
        raise ValueError("n_starts must be at least 8")
    k = _coeffs(spec, s)
    flags = _indeterminate_flags(spec, s)
    return _lowest((_newton(k, t1, t2, flags) for t1, t2 in _start_angles(n_starts, seed)),
                   f"all {n_starts} starts failed to converge at s={s:g}")


def is_stable_minimum(spec: ModelSpec, state: ClassicalState) -> bool:
    """Check positive semidefiniteness of the reduced Hessian at a state.

    In the xz plane the curvature is the 2x2 angle Hessian; the energy has
    no y terms, so the curvature out of the plane is mu_a.
    """
    _require(spec, Coupling.DENSE)
    t1, t2 = state.t1, state.t2
    h11, h12, h22 = _angle_hessian(_coeffs(spec, state.s), sin(t1), cos(t1), sin(t2), cos(t2),
                                   *state.mu)
    return bool(_eigh2(h11, h12, h22)[0] >= -_STABLE_TOL and min(state.mu) >= -_STABLE_TOL)

