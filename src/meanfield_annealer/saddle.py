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

A solve builds b, D and Hc = -(Kxx X1X2 + Kzz Z1Z2) (Kxx = s(1-s) xi12/2,
Kzz = s/2, as in ``coupling_matrix``) once; H(x) = Hc - (b + D x).O.  On a
non-degenerate ground state |0> an iteration takes e(x) = Y|0> and, on a
Newton iterate, the <n|O_i|0> = (Y V)_in that the response scales from
Y = (O_i|0>)_i; a degenerate block keeps the multiplet average.  Y|0> adds
the products of the projector contraction in its order, so iterates and
Newton's rounding-level stop are the projector form's wherever BLAS sums
short products in order.

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
previous iterate.  Newton runs past ``tol`` until the residual reaches the
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
with the last unconverged solution when all five inits fail.  Every 4x4 and
3x3 symmetric eigenproblem in the loop is one direct LAPACK ``dsyevd`` call,
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
from math import sqrt

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
_OPS = _S12[:, ::2].real.reshape(4, 16)   # X1, Z1, X2, Z2, flattened
_OPSV = _OPS.reshape(16, 4)               # (_OPSV @ v).reshape(4, 4)[i] = O_i v
_XX, _ZZ = -_S1S2[0, 0].real.ravel(), -_S1S2[2, 2].real.ravel()   # -X1X2, -Z1Z2
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


def _coupling_part(c) -> np.ndarray:
    """Field-free part -(Kxx X1X2 + Kzz Z1Z2) of the real H, flattened, with
    ``coupling_matrix``'s Kxx = s(1-s) xi12 / 2 = 2 c12 and Kzz = s/2."""
    return 2.0 * c.c12 * _XX + c.s2 * _ZZ


@functools.cache
def _dsyevd():
    # imported on first use: importing the package loads no scipy
    from scipy.linalg.lapack import dsyevd
    return dsyevd


def _eigh(a):
    """``np.linalg.eigh(a)`` of a small real symmetric matrix (lower
    triangle) as one LAPACK call; numpy's per-call overhead is most of the
    cost of a 4x4."""
    w, V, info = _dsyevd()(a, 1, 1)   # compute_v, lower: keywords cost more
    if info:
        raise np.linalg.LinAlgError(f"dsyevd failed with info={info}")
    return w, V


def _ground(w, V):
    """(e, Y) from the eigenpairs (w ascending, V columns) of the real H: e
    the ground-block averaged <X1>, <Z1>, <X2>, <Z2>, and on a non-degenerate
    ground state Y[i] = O_i|0>, so that e = Y|0> and Y @ V[:, 1:] holds the
    <n|O_i|0> that ``_response`` scales; Y is None on a degenerate one."""
    if w[1] >= w[0] + _DEGENERACY_TOL:
        v0 = V[:, 0]
        Y = _OPSV.dot(v0).reshape(4, 4)
        return Y.dot(v0), Y
    g = int(np.count_nonzero(w < w[0] + _DEGENERACY_TOL))
    return _OPS @ (V[:, :g] @ V[:, :g].T / g).ravel(), None


def _response(w, A):
    """Factor B (4x3) of the static susceptibility chi = B B^T of a
    non-degenerate ground state, from its eigenvalues w and the matrix
    elements A[i, n-1] = <n|O_i|0>, n = 1..3.

    chi_ij = d<O_i>/d mt_j = 2 sum_{n>0} <0|O_i|n><n|O_j|0> / (E_n - E_0)
    for H = H0 - sum_j mt_j O_j (second-order perturbation theory), with O
    = X1, Z1, X2, Z2; chi is symmetric positive semidefinite.
    """
    w0, w1, w2, w3 = w.tolist()   # scalar math: cheaper than numpy on three entries
    return A * [sqrt(2.0 / (w1 - w0)), sqrt(2.0 / (w2 - w0)), sqrt(2.0 / (w3 - w0))]


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
    x, converged, residual, w = _iterate(_coupling_part(c), b, D, np.array(init.x), max_iter,
                                         tol, np.inf if warm else _NEWTON_SWITCH)
    fields = b + D * x
    lam0 = float(w[0])
    # one dot per cluster: fields_a . m_a rounds as the product of 3-vectors does
    u = (0.5 * (fields[:2].dot(x[:2]) + fields[2:].dot(x[2:])) + _sparse_energy(c, *x.tolist())
         + 0.5 * lam0)
    return SaddleSolution(
        s=float(s), x=tuple(x.tolist()), fields=tuple(fields.tolist()), lambda0=lam0,
        degeneracy=int(np.count_nonzero(w < lam0 + _DEGENERACY_TOL)),
        energy=float(u), converged=bool(converged), residual=float(residual),
        indeterminate=_indeterminate_flags(spec, s),
    )


def _iterate(Hc, b, D, x, max_iter, tol, switch):
    """Fixed point of x = e(x) for H(x) = Hc - (b + D x).O (Hc flattened),
    with Newton tried below residual ``switch``.

    Returns (x, converged, max|e(x) - x| at x, w), where w holds the
    eigenvalues of H at the returned x.
    """
    if not np.isfinite(np.concatenate([x, Hc])).all():
        raise ValueError("effective Hamiltonian inputs must be finite")
    damping = _DAMPING
    rejected = False
    start = None                  # (x, step, top, residual, w) where Newton began
    last = None                   # last accepted Newton iterate, its residual, w
    osc = 0
    prev_sign = 0.0
    residual = np.inf
    # ndarray.dot, not @: the same BLAS call with less overhead on operands this small
    for _ in range(max_iter):
        w, V = _eigh((Hc - (b + D * x).dot(_OPS)).reshape(4, 4))
        e, Y = _ground(w, V)
        step = e - x
        size = list(map(abs, step.tolist()))
        residual = max(size)
        top = size.index(residual)
        if residual < switch:
            # a Newton iterate must lower the residual and have a
            # non-degenerate ground state
            accept = (last is None or residual < last[1]) and Y is not None
            if accept:
                B = _response(w, Y.dot(V[:, 1:]))
                # chi D = B B^T D shares its nonzero eigenvalues with the
                # symmetric M = B^T D B, and (I - chi D)^-1 = I + B (I - M)^-1 B^T D
                mu, Q = _eigh(B.T.dot(D[:, None] * B))
                accept = mu[-1] < 1.0
            if accept:
                if residual < min(tol, _ROUNDING_FLOOR):
                    return x, True, residual, w  # nothing left for Newton to gain
                if start is None:
                    start = (x, step, top, residual, w)
                last = (x, residual, w)
                x = x + (step + B.dot(Q.dot(Q.T.dot(B.T.dot(D * step)) / (1.0 - mu))))
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
        sign = np.sign(step[top])
        if prev_sign and sign == -prev_sign:
            osc += 1
            if osc >= 10:
                damping *= 0.5
                osc = 0
        else:
            osc = 0
        prev_sign = sign
        x = x + damping * step
    if last is not None and last[1] < tol:
        return last[0], True, last[1], last[2]
    return x, False, residual, np.linalg.eigvalsh((Hc - (b + D * x).dot(_OPS)).reshape(4, 4))


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

