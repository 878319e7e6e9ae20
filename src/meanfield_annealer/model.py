"""Two-cluster annealing Hamiltonian family.

A ``ModelSpec`` is eight plain values: the coupling (dense or sparse
intercluster), the fields h1 > 0 > h2 of the strong and weak clusters,
the XX catalyst strengths xi11, xi22 (intracluster) and xi12 (all three
>= 0 is the stoquastic case), and the transverse schedules gamma1 and
gamma2 (None follows gamma(s) = s, a number pins gamma).

Energy density, gradient, and Hessian of the dense model, plus the
mean-field / pairwise-coupling split of the sparse model, all as pure
functions of (s, m1, m2).  The public functions take magnetizations as
3-vectors (``MagPair``); the kernels the solvers run read only the
in-plane four x = (m1x, m1z, m2x, m2z), ``MagPair.x``.  The energy
polynomial is defined for any m (the unit sphere is where the physics
lives, but finite-difference probes may step off it).

This module is the only statement of each model's coefficients, energy
polynomial and sparse conjugate fields (``_field_map``): the classical
and saddle solvers run the same kernels as the public functions here.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from math import copysign, hypot, isfinite
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError


class Coupling(enum.Enum):
    DENSE = "dense"
    SPARSE = "sparse"


@dataclass(frozen=True)
class ModelSpec:
    coupling: Coupling
    h1: float = 1.0
    h2: float = -0.49
    xi11: float = 0.0
    xi22: float = 0.0
    xi12: float = 0.0
    gamma1: float | None = None
    gamma2: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "coupling", Coupling(self.coupling))
        for name in ("h1", "h2", "xi11", "xi22", "xi12", "gamma1", "gamma2"):
            v = getattr(self, name)
            if v is None and name.startswith("gamma"):
                continue
            if v is None or not isfinite(v):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, float(v))
        if not self.h1 > 0.0 > self.h2:
            warnings.warn(f"fields h1={self.h1}, h2={self.h2} are outside the "
                          "weak-strong regime h1 > 0 > h2", stacklevel=3)

    @property
    def is_stoquastic(self) -> bool:
        return self.xi11 >= 0.0 and self.xi22 >= 0.0 and self.xi12 >= 0.0

    @classmethod
    def dense(cls, xi=(0.0, 0.0, 0.0), h1=1.0, h2=-0.49, gamma1=None, gamma2=None):
        """Dense-intercluster spec; ``xi`` is (xi11, xi22, xi12)."""
        return cls(Coupling.DENSE, h1, h2, *_xi_triple(xi), gamma1, gamma2)

    @classmethod
    def sparse(cls, xi=(0.0, 0.0, 0.0), h1=1.0, h2=-0.49, gamma1=None, gamma2=None):
        """Sparse-intercluster spec; ``xi`` is (xi11, xi22, xi12)."""
        return cls(Coupling.SPARSE, h1, h2, *_xi_triple(xi), gamma1, gamma2)


def _xi_triple(xi):
    xi = tuple(xi)
    if len(xi) != 3:
        raise ValueError("xi must be (xi11, xi22, xi12)")
    return xi


@dataclass(frozen=True)
class MagPair:
    """Pair of cluster magnetization 3-vectors."""

    m1: np.ndarray
    m2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m1", np.asarray(self.m1, dtype=float).reshape(3))
        object.__setattr__(self, "m2", np.asarray(self.m2, dtype=float).reshape(3))
        if not all(map(isfinite, self.m1.tolist() + self.m2.tolist())):
            raise ValueError("magnetization components must be finite")

    @property
    def x(self) -> tuple[float, float, float, float]:
        """The in-plane components (m1x, m1z, m2x, m2z) that the solvers read."""
        return (*self.m1[::2].tolist(), *self.m2[::2].tolist())

    def norms(self) -> tuple[float, float]:
        return float(np.linalg.norm(self.m1)), float(np.linalg.norm(self.m2))

    def is_unit(self, tol: float = 1e-10) -> bool:
        n1, n2 = self.norms()
        return abs(n1 - 1.0) <= tol and abs(n2 - 1.0) <= tol


def _require(spec: ModelSpec, coupling: Coupling):
    """Refuse a spec of the other model: each solver answers for one coupling."""
    if spec.coupling is not coupling:
        raise ValueError(f"operation requires a {coupling.value}-intercluster spec")


TIE_TOL = 1e-12


def _prefer(new, old):
    """The state of lower ``energy``; energies within TIE_TOL go to the
    larger ``m2z``, and any state beats an ``old`` of None."""
    if old is None or new.energy < old.energy - TIE_TOL:
        return new
    if abs(new.energy - old.energy) <= TIE_TOL and new.m2z > old.m2z:
        return new
    return old


def _lowest(states, message):
    """The ``_prefer`` pick among the converged ``states``; with none
    converged, raises ``ConvergenceError(message)`` whose ``best`` is the
    last state."""
    best = last = None
    for last in states:
        if last.converged:
            best = _prefer(last, best)
    if best is None:
        raise ConvergenceError(message, best=last)
    return best


def _check_s(s: float) -> float:
    s = float(s)
    if not isfinite(s):
        raise ValueError("s must be finite")
    if s < 0.0 or s > 1.0:
        raise ValueError(f"s={s} outside [0, 1]")
    return s


class _Coeffs(NamedTuple):
    """Scalar coefficients of both energy polynomials at fixed (spec, s).

    Solvers evaluate the energy and gradient many times per (spec, s), so
    the schedule and catalyst prefactors are folded once here; as a tuple
    the dense kernel unpacks them into plain floats.
    """

    s: float
    s2: float    # s/2 and s/4, the zz weights
    s4: float
    h1: float
    h2: float
    a1: float    # transverse-field weight (1 - gamma1)/2
    a2: float
    c11: float   # catalyst weights s(1-s)/4 * xi_ab
    c22: float
    c12: float


def _gammas(spec: ModelSpec, s: float) -> tuple[float, float]:
    g1, g2 = spec.gamma1, spec.gamma2
    return (s if g1 is None else g1), (s if g2 is None else g2)


def _coeffs(spec: ModelSpec, s: float) -> _Coeffs:
    s = _check_s(s)
    g1, g2 = _gammas(spec, s)
    w = s * (1.0 - s) / 4.0
    return _Coeffs(
        s=s,
        s2=s / 2.0,
        s4=s / 4.0,
        h1=spec.h1,
        h2=spec.h2,
        a1=(1.0 - g1) / 2.0,
        a2=(1.0 - g2) / 2.0,
        c11=w * spec.xi11,
        c22=w * spec.xi22,
        c12=w * spec.xi12,
    )


def _coeffs_slope(spec: ModelSpec, s: float) -> _Coeffs:
    """d/ds of ``_coeffs(spec, s)``, field by field, with h1 and h2 kept as
    the factors of s2.  Both energy polynomials (``_energy``,
    ``saddle._pair_energy``) are linear in the coefficients, so either one
    evaluated on these is its partial derivative in s at a fixed state: at
    a stationary state, the slope of its branch energy (Hellmann-Feynman).
    ``_field_map`` is not linear in them and does not take these."""
    s = _check_s(s)
    w = (1.0 - 2.0 * s) / 4.0
    return _Coeffs(
        s=1.0,
        s2=0.5,
        s4=0.25,
        h1=spec.h1,
        h2=spec.h2,
        a1=0.0 if spec.gamma1 is not None else -0.5,
        a2=0.0 if spec.gamma2 is not None else -0.5,
        c11=w * spec.xi11,
        c22=w * spec.xi22,
        c12=w * spec.xi12,
    )


def _indeterminate_flags(spec: ModelSpec, s: float) -> tuple[bool, bool]:
    # nothing couples to a cluster when s = 0 and its transverse field is off
    g1, g2 = _gammas(spec, s)
    return (s == 0.0 and g1 == 1.0, s == 0.0 and g2 == 1.0)


# ---------------------------------------------------------------------------
# Dense kernel on Python floats at m_a = (x_a, 0, z_a); the classical Newton
# loop calls it so often that numpy's per-call overhead would dominate

def _energy(c: _Coeffs, x1, z1, x2, z2):
    _, s2, s4, h1, h2, a1, a2, c11, c22, c12 = c
    return (-s2 * (h1 * z1 + h2 * z2) - s4 * (z1 * z1 + z2 * z2 + z1 * z2)
            - a1 * x1 - a2 * x2 - (c11 * x1 * x1 + c22 * x2 * x2 + c12 * x1 * x2))


def _grad(c: _Coeffs, x1, z1, x2, z2):
    """(dE/dm1x, dE/dm1z, dE/dm2x, dE/dm2z); the y components vanish."""
    _, s2, s4, h1, h2, a1, a2, c11, c22, c12 = c
    return (-a1 - 2.0 * c11 * x1 - c12 * x2, -s2 * h1 - s4 * (2.0 * z1 + z2),
            -a2 - 2.0 * c22 * x2 - c12 * x1, -s2 * h2 - s4 * (2.0 * z2 + z1))


def _angle_hessian(c: _Coeffs, x1, z1, x2, z2, mu1, mu2):
    """Entries (h11, h12, h22) of T^T H T + diag(mu) at m_a = (sin th_a, 0, cos th_a).

    T maps angle steps to (dm1, dm2) through t_a = (z_a, 0, -x_a), and H
    is ``dense_hessian``, whose six nonzero entries are written out here.
    """
    _, s2, s4, _, _, _, _, c11, c22, c12 = c
    return (-2.0 * c11 * z1 * z1 - s2 * x1 * x1 + mu1,
            -c12 * z1 * z2 - s4 * x1 * x2,
            -2.0 * c22 * z2 * z2 - s2 * x2 * x2 + mu2)


def _eigh2(a, b, c):
    """Eigenpairs of the symmetric [[a, b], [b, c]] by one Jacobi rotation:
    (lo, hi, x1, x2) with lo <= hi and (x1, x2) the unit eigenvector of lo;
    (-x2, x1) is that of hi.  Diagonalizes the angle Hessian for the
    Newton step and the harmonic gaps' 2x2 forms."""
    tau = (c - a) / (2.0 * b) if b else 0.0
    t = copysign(1.0, tau) / (abs(tau) + hypot(1.0, tau)) if b else 0.0
    cs = 1.0 / hypot(1.0, t)
    sn = t * cs
    l1, l2 = a - t * b, c + t * b   # eigenvectors (cs, -sn) and (sn, cs)
    return (l1, l2, cs, -sn) if l1 <= l2 else (l2, l1, sn, cs)


def dense_energy_density(spec: ModelSpec, s: float, m: MagPair) -> float:
    """Intensive energy h = H/N of the dense model at (s, m1, m2)."""
    _require(spec, Coupling.DENSE)
    return _energy(_coeffs(spec, s), *m.x)


def dense_gradient(spec: ModelSpec, s: float, m: MagPair):
    """Analytic partial derivatives of the dense energy density.

    Returns (dh/dm1, dh/dm2) as 3-vectors.
    """
    _require(spec, Coupling.DENSE)
    g1x, g1z, g2x, g2z = _grad(_coeffs(spec, s), *m.x)
    return np.array([g1x, 0.0, g1z]), np.array([g2x, 0.0, g2z])


def dense_hessian(spec: ModelSpec, s: float) -> np.ndarray:
    """6x6 Hessian of the dense energy density, blocked as [m1; m2]; the
    energy is quadratic in m, so the Hessian does not depend on m."""
    _require(spec, Coupling.DENSE)
    c = _coeffs(spec, s)
    H = np.zeros((6, 6))
    H[2, 2] = H[5, 5] = -c.s2
    H[2, 5] = H[5, 2] = -c.s4
    H[0, 0] = -2.0 * c.c11
    H[3, 3] = -2.0 * c.c22
    H[0, 3] = H[3, 0] = -c.c12
    return H


def _sparse_energy(c: _Coeffs, x1, z1, x2, z2):
    """Mean-field part h_m of the sparse energy at m_a = (x_a, 0, z_a)."""
    _, s2, s4, h1, h2, a1, a2, c11, c22, _ = c
    return (-s2 * (h1 * z1 + h2 * z2) - s4 * (z1 * z1 + z2 * z2)
            - a1 * x1 - a2 * x2 - (c11 * x1 * x1 + c22 * x2 * x2))


def _field_map(c: _Coeffs):
    """(b, D) with the conjugate fields mt = -2 dh_m/dm = b + D * x for
    x = (m1x, m1z, m2x, m2z); D = diag(4 c11, s, 4 c22, s), as 4-tuples."""
    return ((2.0 * c.a1, c.s * c.h1, 2.0 * c.a2, c.s * c.h2),
            (4.0 * c.c11, c.s, 4.0 * c.c22, c.s))


def sparse_mean_field_density(spec: ModelSpec, s: float, m: MagPair) -> float:
    """Mean-field part h_m of the sparse model (pairwise terms excluded)."""
    _require(spec, Coupling.SPARSE)
    return _sparse_energy(_coeffs(spec, s), *m.x)


def conjugate_fields(spec: ModelSpec, s: float, m: MagPair) -> tuple[np.ndarray, np.ndarray]:
    """The pair (mt1, mt2) of fields conjugate to the magnetizations,
    mt_a = -2 d(h_m)/dm_a: the field map b + D x at the in-plane x of
    ``m``, as 3-vectors whose y components are zero."""
    _require(spec, Coupling.SPARSE)
    b, D = _field_map(_coeffs(spec, s))
    f1x, f1z, f2x, f2z = (bi + di * xi for bi, di, xi in zip(b, D, m.x))
    return np.array([f1x, 0.0, f1z]), np.array([f2x, 0.0, f2z])


def sparse_mean_field_gradient(spec: ModelSpec, s: float, m: MagPair):
    """Analytic gradient of h_m; returns (dh_m/dm1, dh_m/dm2)."""
    mt1, mt2 = conjugate_fields(spec, s, m)
    return mt1 / -2.0, mt2 / -2.0


def coupling_matrix(spec: ModelSpec, s: float) -> np.ndarray:
    """3x3 pairwise intercluster coupling K12 of the sparse model at
    annealing time s, indexed (x, y, z) on both sides.

    Only K[0, 0] (xx) and K[2, 2] (zz) are nonzero: K^zz = s/2 carries the
    problem coupling and K^xx = s(1-s) xi12 / 2 the intercluster catalyst.
    """
    _require(spec, Coupling.SPARSE)
    s = _check_s(s)
    K = np.zeros((3, 3))
    K[2, 2] = s / 2.0
    K[0, 0] = s * (1.0 - s) * spec.xi12 / 2.0
    return K
