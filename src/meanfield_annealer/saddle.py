"""Self-consistent solution of the sparse-intercluster model.

The pairwise coupling is decoupled through conjugate fields mt = b + D x,
D = diag(4 c11, s, 4 c22, s) (``model._field_map``): the ground state of
the real 4x4 H(x) = Hc - mt.O, Hc = hxx X1X2 + hzz Z1Z2, (hxx, hzz) =
(-2 c12, -s/2), O = (X1, Z1, X2, Z2), has expectations e(x) that must
reproduce x = (m1x, m1z, m2x, m2z) (complex form: ``ground_block``).

That fixed point is a minimum of one energy.  A state is a real unit
4-vector psi = a|uu> + b|ud> + c|du> + d|dd>, x_k = psi.O_k psi, and
E(psi) = h_m(x) + psi.Hc psi / 2 (h_m = ``model._sparse_energy``).  As
mt = -2 dh_m/dx, the gradient of E is H(x) psi and its Hessian is
H - 2 sum_k D_k (O_k psi)(O_k psi)^T: a stationary psi on the sphere is an
eigenvector of its own H, and x = e(x) when it is the ground level.
``solve_saddle`` runs Riemannian Newton on the sphere (Absil, Mahony &
Sepulchre, *Optimization Algorithms on Matrix Manifolds*, 2008, ch. 6)
with the rules of ``classical._newton``, on Python floats (the O_k permute
and sign the entries of psi): per iteration one LAPACK ``dsyevd`` of the
projected Hessian P(Hess - psi.H psi)P + psi psi^T, P = 1 - psi psi^T, a
step by |eigenvalue| floored at 1e-8, capped at 0.5 and halved until E
rises by at most 4 ulps, then renormalized, for at most ``_MAX_ITER``
iterations (``classical``'s constants); it stops when the gradient
reaches 4 ulps or, once below ``_TOL``, stops falling.  A final
``dsyevd`` of H(x) gives lambda0, the degeneracy, the energy fields.x / 2
+ h_m + lambda0 / 2 and the level check: a minimum of E may be an
excited level of its own H, so psi's projection onto the ground
multiplet must have norm >= 1 - 1e-8; normalized, it gives e(x) for
``residual`` = max|e(x) - x|, which must be below ``_TOL``.  Failing
either check is ``converged=False``: ``PointSolver.warm`` then takes the
global solve, and ``global_saddle`` raises ``ConvergenceError`` when all
five inits fail.  A warm solve continues from a ``SaddleSolution``'s
``psi``; a ``MagPair`` start is the ground state of H at its x.  Zero
temperature only; the decoupling fields are taken constant in imaginary
time, a modeling assumption, not a property this module verifies.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from math import inf, isfinite, sqrt

import numpy as np

from .classical import _EIG_FLOOR, _FOUR_ULPS, _MAX_ITER, _MAX_STEP, _TOL, start_set
from .model import (Coupling, MagPair, ModelSpec, _coeffs, _field_map, _indeterminate_flags,
                    _lowest, _require, _sparse_energy, conjugate_fields, coupling_matrix)

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_I2 = np.eye(2)
# _S12[c, a]: sigma_a on cluster c; _S1S2[a, b]: sigma_a (x) sigma_b
_S12 = np.array([[np.kron(p, _I2) for p in _PAULI], [np.kron(_I2, p) for p in _PAULI]])
_S1S2 = np.array([[np.kron(a, b) for b in _PAULI] for a in _PAULI])
_DEGENERACY_TOL = 1e-9
_LEVEL_TOL = 1e-8   # how far psi's ground-multiplet weight may fall short of 1


def _expectations(a, b, c, d):
    """<X1>, <Z1>, <X2>, <Z2> in a|uu> + b|ud> + c|du> + d|dd>."""
    return (2.0 * (a * c + b * d), a * a + b * b - c * c - d * d,
            2.0 * (a * b + c * d), a * a - b * b + c * c - d * d)


@dataclass(frozen=True)
class SaddleSolution:
    """A self-consistent point at s: the real unit pair state ``psi`` on
    {uu, ud, du, dd} and the conjugate fields b + D x, as Python floats.
    ``x`` = (m1x, m1z, m2x, m2z), psi's expectations in ``ClassicalState.x``'s
    order, ``m`` and ``m2z`` are derived from psi."""

    s: float
    psi: tuple[float, float, float, float]
    fields: tuple[float, float, float, float]
    lambda0: float
    degeneracy: int
    energy: float               # ground-state energy density u
    converged: bool
    residual: float
    indeterminate: tuple[bool, bool] = (False, False)

    @property
    def x(self) -> tuple[float, float, float, float]:
        return _expectations(*self.psi)

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


def _pair_energy(c, a, b, cc, d):
    """E(psi) = h_m(x) + psi.Hc psi / 2 at psi = (a, b, cc, d)."""
    return (_sparse_energy(c, *_expectations(a, b, cc, d)) - 2.0 * c.c12 * (a * d + b * cc)
            - 0.5 * c.s2 * ((a * a + d * d) - (b * b + cc * cc)))


def _newton(c, b, D, psi):
    """Damped Newton for a minimum of E on the unit sphere from the unit
    4-tuple psi, by ``classical._newton``'s rules; returns where it ended."""
    hxx, hzz = -2.0 * c.c12, -c.s2
    b1x, b1z, b2x, b2z = b
    dx1, dz, dx2, _ = D   # D = (4 c11, s, 4 c22, s)
    pa, pb, pc, pd = psi
    energy, prev = _pair_energy(c, pa, pb, pc, pd), inf
    for _ in range(_MAX_ITER):
        x1, z1, x2, z2 = _expectations(pa, pb, pc, pd)
        f1x, f1z, f2x, f2z = b1x + dx1 * x1, b1z + dz * z1, b2x + dx2 * x2, b2z + dz * z2
        p, q = f1z + f2z, f1z - f2z
        # H psi, and r = H psi - lambda psi, the gradient on the sphere
        g0 = (hzz - p) * pa - f2x * pb - f1x * pc + hxx * pd
        g1 = -f2x * pa - (hzz + q) * pb + hxx * pc - f1x * pd
        g2 = -f1x * pa + hxx * pb + (q - hzz) * pc - f2x * pd
        g3 = hxx * pa - f1x * pb - f2x * pc + (hzz + p) * pd
        lam = pa * g0 + pb * g1 + pc * g2 + pd * g3
        r0, r1, r2, r3 = g0 - lam * pa, g1 - lam * pb, g2 - lam * pc, g3 - lam * pd
        size = max(abs(r0), abs(r1), abs(r2), abs(r3))
        # at 4 ulps, or no longer falling once below _TOL: the rounding floor
        if size <= _FOUR_ULPS or size >= prev < _TOL:
            break
        prev = size
        # P A P + psi psi^T = A - psi t^T - t psi^T for A = H - lambda - 2 sum_k
        # D_k (O_k psi)(O_k psi)^T and t = A psi - (psi.A psi + 1) psi / 2, with
        # O psi = (pc, pd, pa, pb), (pa, pb, -pc, -pd), (pb, pa, pd, pc), (pa, -pb, pc, -pd)
        ab, ac, ad, bc, bd, cd = pa * pb, pa * pc, pa * pd, pb * pc, pb * pd, pc * pd
        aa, bb, cc, dd = pa * pa, pb * pb, pc * pc, pd * pd
        a00 = hzz - p - lam - 2.0 * (dx1 * cc + dx2 * bb + 2.0 * dz * aa)
        a11 = -hzz - q - lam - 2.0 * (dx1 * dd + dx2 * aa + 2.0 * dz * bb)
        a22 = q - hzz - lam - 2.0 * (dx1 * aa + dx2 * dd + 2.0 * dz * cc)
        a33 = hzz + p - lam - 2.0 * (dx1 * bb + dx2 * cc + 2.0 * dz * dd)
        a10 = -f2x - 2.0 * (dx1 * cd + dx2 * ab)
        a20 = -f1x - 2.0 * (dx1 * ac + dx2 * bd)
        a30 = hxx - 2.0 * ((dx1 + dx2) * bc - 2.0 * dz * ad)
        a21 = hxx - 2.0 * ((dx1 + dx2) * ad - 2.0 * dz * bc)
        a31 = -f1x - 2.0 * (dx1 * bd + dx2 * ac)
        a32 = -f2x - 2.0 * (dx1 * ab + dx2 * cd)
        h = 0.5 - (dx1 * x1 * x1 + dz * z1 * z1 + dx2 * x2 * x2 + dz * z2 * z2)
        t0 = a00 * pa + a10 * pb + a20 * pc + a30 * pd - h * pa
        t1 = a10 * pa + a11 * pb + a21 * pc + a31 * pd - h * pb
        t2 = a20 * pa + a21 * pb + a22 * pc + a32 * pd - h * pc
        t3 = a30 * pa + a31 * pb + a32 * pc + a33 * pd - h * pd
        w, cols = _eigh(np.array([   # only the lower triangle is read
            a00 - 2.0 * pa * t0, 0.0, 0.0, 0.0,
            a10 - pb * t0 - t1 * pa, a11 - 2.0 * pb * t1, 0.0, 0.0,
            a20 - pc * t0 - t2 * pa, a21 - pc * t1 - t2 * pb, a22 - 2.0 * pc * t2, 0.0,
            a30 - pd * t0 - t3 * pa, a31 - pd * t1 - t3 * pb, a32 - pd * t2 - t3 * pc,
            a33 - 2.0 * pd * t3]).reshape(4, 4))
        # Newton step by |eigenvalue| with a floor (psi's own eigenvector
        # meets r at zero), capped at 0.5
        s0 = s1 = s2 = s3 = 0.0
        for wn, (v0, v1, v2, v3) in zip(w, cols):
            k = (v0 * r0 + v1 * r1 + v2 * r2 + v3 * r3) / max(abs(wn), _EIG_FLOOR)
            s0, s1, s2, s3 = s0 - k * v0, s1 - k * v1, s2 - k * v2, s3 - k * v3
        n = sqrt(s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3)
        if n > _MAX_STEP:
            k = _MAX_STEP / n
            s0, s1, s2, s3 = s0 * k, s1 * k, s2 * k, s3 * k
        # a few ulps of slack: near convergence the decrease is below rounding
        bound = energy + _FOUR_ULPS * max(1.0, abs(energy))
        for _ in range(60):
            ta, tb, tc, td = pa + s0, pb + s1, pc + s2, pd + s3
            n = sqrt(ta * ta + tb * tb + tc * tc + td * td)
            ta, tb, tc, td = ta / n, tb / n, tc / n, td / n
            e = _pair_energy(c, ta, tb, tc, td)
            if e <= bound:
                break
            s0, s1, s2, s3 = 0.5 * s0, 0.5 * s1, 0.5 * s2, 0.5 * s3
        pa, pb, pc, pd, energy = ta, tb, tc, td, e
    return pa, pb, pc, pd


def solve_saddle(spec: ModelSpec, s: float, init: MagPair | SaddleSolution) -> SaddleSolution:
    """Self-consistent solution reached from ``init`` by Newton on E (module
    docstring): converged when psi is on the ground level of its own H and
    max|e(x) - x| < ``classical._TOL``.
    """
    _require(spec, Coupling.SPARSE)
    c = _coeffs(spec, s)
    b, D = _field_map(c)
    (b1x, b1z, b2x, b2z), (d1x, d1z, d2x, d2z) = b, D

    def fields_at(x1, z1, x2, z2):
        return b1x + d1x * x1, b1z + d1z * z1, b2x + d2x * x2, b2z + d2z * z2

    warm = isinstance(init, SaddleSolution)
    if not all(map(isfinite, (init.psi if warm else init.x) + c)):
        raise ValueError("effective Hamiltonian inputs must be finite")
    # a MagPair start is the ground state of H at its x: a product state can be an
    # excited eigenstate of its own H, a stationary point Newton cannot leave
    psi = init.psi if warm else tuple(_eigh(_hamiltonian(c, fields_at(*init.x)))[1][0])
    psi = pa, pb, pc, pd = _newton(c, b, D, psi)
    x1, z1, x2, z2 = _expectations(pa, pb, pc, pd)
    fields = f1x, f1z, f2x, f2z = fields_at(x1, z1, x2, z2)
    w, cols = _eigh(_hamiltonian(c, fields))
    lam0 = w[0]
    top = lam0 + _DEGENERACY_TOL
    g = (w[0] < top) + (w[1] < top) + (w[2] < top) + (w[3] < top)
    # psi's projection k onto the ground multiplet, and e(x) from it normalized
    weight = ga = gb = gc = gd = 0.0
    for v0, v1, v2, v3 in cols[:g]:
        k = v0 * pa + v1 * pb + v2 * pc + v3 * pd
        weight += k * k
        ga, gb, gc, gd = ga + k * v0, gb + k * v1, gc + k * v2, gd + k * v3
    weight = sqrt(weight)
    n = weight or 1.0
    e1x, e1z, e2x, e2z = _expectations(ga / n, gb / n, gc / n, gd / n)
    residual = max(abs(e1x - x1), abs(e1z - z1), abs(e2x - x2), abs(e2z - z2))
    u = (0.5 * ((f1x * x1 + f1z * z1) + (f2x * x2 + f2z * z2))
         + _sparse_energy(c, x1, z1, x2, z2) + 0.5 * lam0)
    return SaddleSolution(s=float(s), psi=psi, fields=fields, lambda0=lam0, degeneracy=g,
                          energy=u, converged=weight >= 1.0 - _LEVEL_TOL and residual < _TOL,
                          residual=residual, indeterminate=_indeterminate_flags(spec, s))


_SADDLE_INITS = start_set(7)   # the z-axis sign pairs, the aligned and antiparallel x points


def global_saddle(spec: ModelSpec, s: float) -> SaddleSolution:
    """Best converged solution over the standard init set, compared by energy.

    Ties within 1e-12 go to the larger weak-cluster magnetization; with no
    init converged, ``model._lowest`` raises with the last solution.
    """
    return _lowest((solve_saddle(spec, s, init) for init in _SADDLE_INITS),
                   f"no saddle init converged at s={s:g}")
