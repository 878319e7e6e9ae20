"""Self-consistent solution of the sparse-intercluster model.

The pairwise coupling is decoupled through conjugate fields: a 4x4
effective two-spin Hamiltonian is diagonalized exactly, and its (degeneracy
averaged) ground expectations e(x) of X1, Z1, X2, Z2 must reproduce
x = (m1x, m1z, m2x, m2z).  The mean-field energy sources no y field and the
coupling is xx and zz only, so inside the loop that Hamiltonian is real
symmetric and goes to LAPACK ``eigh``; the public builder and
``ground_block`` keep the general complex form.  The conjugate fields are
affine in x, mt = b + D x with D = diag(4 c11, s, 4 c22, s); the map is
``model._field_map``, the one statement of them.

The loop runs on Python floats.  A solve takes b, D and the coupling part
Hc = hxx X1X2 + hzz Z1Z2 (hxx = -2 c12, hzz = -s/2) once.  On the basis
{uu, ud, du, dd} X1 and X2 permute entries and Z1 and Z2 flip signs, so an
iteration fills H(x) = Hc - (b + D x).O from four fields, makes one
eigensolve, and reads e(x), and on a Newton iterate the twelve <n|O_i|0>,
from the eigenvector columns in closed form; a degenerate block keeps the
multiplet average.

The fixed point x = e(x) is found at zero temperature by Newton on
F(x) = e(x) - x, with the Jacobian J = chi D - I taken from the loop's
``eigh``.  A global solve (from a fixed start, as in ``global_saddle``)
first runs the damped iteration x <- x + d (e(x) - x) until
max|e(x) - x| < ``_NEWTON_SWITCH`` (1e-2); that selects the basin.  A warm
solve, continued from a neighbouring solution that already sits in its
basin, tries Newton from the first iterate.  In the Jacobian,
chi_ij = d e_i / d mt_j is the static linear response of the ground
state.  A Newton iterate is accepted only when the ground state is
non-degenerate, lambda_max(chi D) < 1 (the condition under which the
damped map is locally attracting) and the residual has fallen since the
previous iterate.  With chi = B B^T, chi D shares its nonzero eigenvalues
with M = B^T D B, so the gate is a Cholesky factorization of I - M, whose
factor gives the Newton iterate x + step + B (I - M)^-1 B^T D step for
step = e(x) - x.  Newton runs past ``tol`` until the residual reaches the
rounding floor or stops falling, so a converged solution sits on its fixed
point, not tol/(1 - rho) from it for a damped map of slope rho.  A
rejected iterate sends the damped loop back to the iterate it had before
Newton, so the damped trajectory, and with it the basin, is the one the
damped loop alone would follow.  After a first rejection Newton may start
again once the residual is below min(``_NEWTON_REARM``, 0.01 x the residual
where the first attempt began); a second rejection leaves the damped loop
to finish alone.  The solver is zero-temperature only.  A solve unconverged
after ``max_iter`` iterations returns ``converged=False``; ``PointSolver.warm``
then takes the global solve, and ``global_saddle`` raises ``ConvergenceError``
with the last unconverged solution when all five inits fail.  Each
iteration's one eigensolve is a direct LAPACK ``dsyevd`` call on the 4x4,
and a converged solve takes lambda0, the degeneracy and the energy density
from the eigenvalues the loop already holds at the returned x.  A
``SaddleSolution`` stores x and the fields b + D x as Python floats, and a
warm solve continues from its ``x``: a sparse branch pass builds no
``MagPair`` or 3-vector.  Sweeps and transition detection for either model
live in ``transitions``.

The whole construction takes the decoupling fields to be constant in
imaginary time.  That is a modeling assumption baked into the equations,
not a property this module verifies.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from math import copysign, inf, isfinite, sqrt

import numpy as np

from .classical import start_set
from .errors import ConvergenceError
from .model import (Coupling, MagPair, ModelSpec, _coeffs, _field_map, _indeterminate_flags,
                    _prefer, _require, _sparse_energy, conjugate_fields, coupling_matrix)

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_I2 = np.eye(2)
# _S12[c, a]: sigma_a on cluster c; _S1S2[a, b]: sigma_a (x) sigma_b
_S12 = np.array([[np.kron(p, _I2) for p in _PAULI], [np.kron(_I2, p) for p in _PAULI]])
_S1S2 = np.array([[np.kron(a, b) for b in _PAULI] for a in _PAULI])
_DEGENERACY_TOL = 1e-9
_DAMPING = 0.5        # initial step fraction of the damped loop
# Residual max|e(x) - x| below which the zero-temperature loop hands over
# from damped steps to Newton steps, and the cap on the residual at which it
# hands over again after a rejected Newton iterate.
_NEWTON_SWITCH = 1e-2
_NEWTON_REARM = 1e-4
# Residual at which e(x), computed for |x| <= 1, has no digits left to gain.
_ROUNDING_FLOOR = 1e-15


@dataclass(frozen=True)
class SaddleSolution:
    """A self-consistent point at s, as Python floats in the order (m1x, m1z,
    m2x, m2z) of ``ClassicalState.x``: ``x`` the ground expectations (|m_a| <= 1,
    no y part), ``fields`` the conjugate fields b + D x; ``m`` is derived."""

    s: float
    x: tuple[float, float, float, float]
    fields: tuple[float, float, float, float]
    lambda0: float
    degeneracy: int
    energy: float               # ground-state energy density u
    converged: bool
    residual: float
    indeterminate: tuple[bool, bool] = (False, False)

    @property
    def m(self) -> MagPair:
        x1, z1, x2, z2 = self.x
        return MagPair((x1, 0.0, z1), (x2, 0.0, z2))

    @property
    def m2z(self) -> float:
        return self.x[3]


def build_effective_hamiltonian(mt, K) -> np.ndarray:
    """Assemble -mt1.sigma1 - mt2.sigma2 - sigma1.K12.sigma2, a 4x4
    Hermitian matrix on the product basis {up-up, up-down, down-up, down-down},
    from the pair ``mt`` = (mt1, mt2) of 3-vectors and the 3x3 array ``K``.

    The general complex reference for the solver's real 4x4: y fields and
    off-diagonal couplings are kept.  The symmetrized double sum over both
    cluster orderings collapses to the single K12 term.
    """
    if not (np.all(np.isfinite(mt)) and np.all(np.isfinite(K))):
        raise ValueError("effective Hamiltonian inputs must be finite")
    return -(np.einsum("ca,caij->ij", mt, _S12) + np.einsum("ab,abij->ij", K, _S1S2))


def ground_block(H: np.ndarray):
    """Ground eigenvalue, its degeneracy, and degeneracy-averaged
    single-spin expectations.

    Returns (lambda0, g, m1_exp, m2_exp).
    """
    w, V = np.linalg.eigh(H)
    lam0 = float(w[0])
    g = int(np.sum(w < lam0 + _DEGENERACY_TOL))
    near = int(np.sum(w < lam0 + 1e-6))
    if near > g:
        warnings.warn(
            f"near-degenerate ground block (splitting within 1e-6 of {lam0:g}); "
            "the degeneracy count is sensitive to the tolerance here",
            stacklevel=2,
        )
    vecs = V[:, :g]
    m1, m2 = np.einsum("in,caij,jn->ca", vecs.conj(), _S12, vecs).real / g
    return lam0, g, m1, m2


def _hamiltonian(c, fields):
    """The real H = hxx X1X2 + hzz Z1Z2 - (f1x X1 + f1z Z1 + f2x X2 + f2z Z2)
    on {uu, ud, du, dd}, with (hxx, hzz) = -(Kxx, Kzz) of ``coupling_matrix``;
    each entry rounds as the general builder's does."""
    hxx, hzz = -2.0 * c.c12, -c.s2
    f1x, f1z, f2x, f2z = fields
    p, q = f1z + f2z, f1z - f2z
    return np.array([hzz - p, -f2x, -f1x, hxx,
                     -f2x, -hzz - q, hxx, -f1x,
                     -f1x, hxx, q - hzz, -f2x,
                     hxx, -f1x, -f2x, hzz + p]).reshape(4, 4)


@functools.cache
def _dsyevd():
    # imported on first use: importing the package loads no scipy
    from scipy.linalg.lapack import dsyevd
    return dsyevd


def _eigh(a):
    """Ascending eigenvalues and eigenvector columns of a small real symmetric
    matrix as Python floats, from one LAPACK call (lower triangle)."""
    w, V, info = _dsyevd()(a, 1, 1)   # compute_v, lower: keywords cost more
    if info:
        raise np.linalg.LinAlgError(f"dsyevd failed with info={info}")
    return w.tolist(), V.T.tolist()


def _ground(w, cols):
    """The ground-block averaged <X1>, <Z1>, <X2>, <Z2> from the eigenvalues w
    (ascending) and eigenvector columns of the real H: in a|uu> + b|ud> +
    c|du> + d|dd>, <X1> = 2(ac + bd), <Z1> = a^2 + b^2 - c^2 - d^2, etc."""
    g = 1 if w[1] >= w[0] + _DEGENERACY_TOL else sum(wn < w[0] + _DEGENERACY_TOL for wn in w)
    e = [(2.0 * (a * c + b * d), a * a + b * b - c * c - d * d,
          2.0 * (a * b + c * d), a * a - b * b + c * c - d * d) for a, b, c, d in cols[:g]]
    return e[0] if g == 1 else [sum(ei) / g for ei in zip(*e)]


def _response(w, cols):
    """Factor B of the static susceptibility chi = B B^T of a non-degenerate
    ground state |0> = (a, b, c, d), as its three columns sqrt(2 / (E_n -
    E_0)) <n|O_i|0>, n = 1..3, with X1|0> = (c, d, a, b), Z1|0> = (a, b, -c,
    -d), X2|0> = (b, a, d, c) and Z2|0> = (a, -b, c, -d).

    chi_ij = d<O_i>/d mt_j = 2 sum_{n>0} <0|O_i|n><n|O_j|0> / (E_n - E_0)
    for H = H0 - sum_j mt_j O_j (second-order perturbation theory).
    """
    a, b, c, d = cols[0]
    return [(k * (n0 * c + n1 * d + n2 * a + n3 * b), k * (n0 * a + n1 * b - n2 * c - n3 * d),
             k * (n0 * b + n1 * a + n2 * d + n3 * c), k * (n0 * a - n1 * b + n2 * c - n3 * d))
            for k, (n0, n1, n2, n3) in zip([sqrt(2.0 / (wn - w[0])) for wn in w[1:]], cols[1:])]


def _newton_step(B, D, step):
    """Newton's correction B (I - M)^-1 B^T D step to the damped step, with
    M = B^T D B, or None when I - M is not positive definite, which is when
    lambda_max(chi D) >= 1.  One square-root-free Cholesky factor I - M =
    L diag(e) L^T is the gate and the solve."""
    (p1, p2, p3, p4), (q1, q2, q3, q4), (r1, r2, r3, r4) = B
    (d1, d2, d3, d4), (s1, s2, s3, s4) = D, step
    a1, a2, a3, a4 = d1 * p1, d2 * p2, d3 * p3, d4 * p4       # D B
    b1, b2, b3, b4 = d1 * q1, d2 * q2, d3 * q3, d4 * q4
    c1, c2, c3, c4 = d1 * r1, d2 * r2, d3 * r3, d4 * r4
    m12 = a1 * q1 + a2 * q2 + a3 * q3 + a4 * q4
    m13 = a1 * r1 + a2 * r2 + a3 * r3 + a4 * r4
    e1 = 1.0 - (a1 * p1 + a2 * p2 + a3 * p3 + a4 * p4)
    if not e1 > 0.0:
        return None
    l21, l31 = -m12 / e1, -m13 / e1
    e2 = 1.0 - (b1 * q1 + b2 * q2 + b3 * q3 + b4 * q4) + l21 * m12
    if not e2 > 0.0:
        return None
    t = l31 * m12 - (b1 * r1 + b2 * r2 + b3 * r3 + b4 * r4)   # e2 l32
    l32 = t / e2
    e3 = 1.0 - (c1 * r1 + c2 * r2 + c3 * r3 + c4 * r4) + l31 * m13 - l32 * t
    if not e3 > 0.0:
        return None
    y1 = a1 * s1 + a2 * s2 + a3 * s3 + a4 * s4
    y2 = b1 * s1 + b2 * s2 + b3 * s3 + b4 * s4 - l21 * y1
    z3 = (c1 * s1 + c2 * s2 + c3 * s3 + c4 * s4 - l31 * y1 - l32 * y2) / e3
    z2 = y2 / e2 - l32 * z3
    z1 = y1 / e1 - l21 * z2 - l31 * z3
    return (z1 * p1 + z2 * q1 + z3 * r1, z1 * p2 + z2 * q2 + z3 * r2,
            z1 * p3 + z2 * q3 + z3 * r3, z1 * p4 + z2 * q4 + z3 * r4)


def solve_saddle(spec: ModelSpec, s: float, init: MagPair | SaddleSolution,
                 max_iter: int = 10000, tol: float = 1e-10) -> SaddleSolution:
    """Self-consistent solution reached from ``init``, by the damped and
    Newton loop of the module docstring.

    From a MagPair (a global start) damped steps first bring the residual
    below ``_NEWTON_SWITCH`` (1e-2), which selects the basin; from a
    SaddleSolution (a warm start from a neighbouring solve, already in its
    basin) Newton starts at the first iterate, from its ``x``.  The y
    components of a MagPair are dropped: they source no field and the fixed
    point has none.  A solve still unconverged after ``max_iter`` iterations
    returns ``converged=False`` with the last iterate and its residual.  A
    converged solution's ``residual`` is max|e(x) - x| at the returned x,
    and its lambda0, degeneracy and energy come from the loop's last
    eigenvalues there.  ``tol`` must be positive and ``max_iter`` at least 1.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    _require(spec, Coupling.SPARSE)
    c = _coeffs(spec, s)
    b, D = _field_map(c)
    warm = isinstance(init, SaddleSolution)
    x, converged, residual, w = _iterate(c, b, D, tuple(init.x), max_iter, tol,
                                         inf if warm else _NEWTON_SWITCH)
    x1, z1, x2, z2 = x
    fields = f1x, f1z, f2x, f2z = tuple(bi + di * xi for bi, di, xi in zip(b, D, x))
    lam0 = w[0]
    u = (0.5 * ((f1x * x1 + f1z * z1) + (f2x * x2 + f2z * z2)) + _sparse_energy(c, *x)
         + 0.5 * lam0)
    return SaddleSolution(
        s=float(s), x=tuple(x), fields=fields, lambda0=lam0,
        degeneracy=sum(wn < lam0 + _DEGENERACY_TOL for wn in w),
        energy=u, converged=converged, residual=residual,
        indeterminate=_indeterminate_flags(spec, s),
    )


def _iterate(c, b, D, x, max_iter, tol, switch):
    """Fixed point of x = e(x) for H(x) = Hc - (b + D x).O on four floats,
    from the 4-tuple x, with Newton tried below residual ``switch``.
    Returns (x, converged, max|e(x) - x| at x, w), w the eigenvalues of H
    at that x.
    """
    if not all(map(isfinite, x + c)):
        raise ValueError("effective Hamiltonian inputs must be finite")
    damping, rejected = _DAMPING, False
    start = None                  # (x, step, top, residual, w) where Newton began
    last = None                   # last accepted Newton iterate, its residual, w
    osc, prev_sign, residual = 0, 0.0, inf
    for _ in range(max_iter):
        w, cols = _eigh(_hamiltonian(c, [bi + di * xi for bi, di, xi in zip(b, D, x)]))
        step = [ei - xi for ei, xi in zip(_ground(w, cols), x)]
        size = list(map(abs, step))
        residual = max(size)
        top = size.index(residual)
        if residual < switch:
            # a Newton iterate must lower the residual and have a
            # non-degenerate ground state
            accept = (last is None or residual < last[1]) and w[1] >= w[0] + _DEGENERACY_TOL
            if accept:
                newton = _newton_step(_response(w, cols), D, step)
                accept = newton is not None
            if accept:
                if residual < min(tol, _ROUNDING_FLOOR):
                    return x, True, residual, w  # nothing left for Newton to gain
                if start is None:
                    start = (x, step, top, residual, w)
                last = (x, residual, w)
                x = [xi + (si + ni) for xi, si, ni in zip(x, step, newton)]
                continue
            if last is not None and last[1] < tol:
                return last[0], True, last[1], last[2]
            # rejected: resume the damped loop where Newton began, and let
            # Newton try once more nearer the fixed point
            began = residual if start is None else start[3]
            switch = 0.0 if rejected else min(_NEWTON_REARM, 0.01 * began)
            rejected = True
            if start is not None:
                x, step, top, residual, w = start
            start = last = None
        if residual < tol:
            return x, True, residual, w
        sign = copysign(1.0, step[top])
        if prev_sign and sign == -prev_sign:
            osc += 1
            if osc >= 10:
                damping *= 0.5
                osc = 0
        else:
            osc = 0
        prev_sign = sign
        x = [xi + damping * si for xi, si in zip(x, step)]
    if last is not None and last[1] < tol:
        return last[0], True, last[1], last[2]
    w = np.linalg.eigvalsh(_hamiltonian(c, [bi + di * xi for bi, di, xi in zip(b, D, x)]))
    return x, False, residual, w.tolist()


_SADDLE_INITS = start_set(5)   # the z-axis sign pairs and the aligned x point


def global_saddle(spec: ModelSpec, s: float, tol: float = 1e-10) -> SaddleSolution:
    """Best converged solution over the standard init set, compared by energy.

    Ties within 1e-12 go to the larger weak-cluster magnetization.  With no
    init converged it raises ``ConvergenceError``, ``best`` the last solution.
    """
    best = last = None
    for init in _SADDLE_INITS:
        last = solve_saddle(spec, s, init, tol=tol)
        if last.converged:
            best = _prefer(last, best)
    if best is None:
        raise ConvergenceError(
            f"no saddle init converged at s={s:g}", best=last)
    return best

