"""Independent reference computations for the benchmark's checks.

Everything here is written from the model definition with numpy and
scipy alone; nothing imports ``meanfield_annealer``, so a fault in the
program cannot hide in the value it is compared against.

Model (energy per spin, clusters a = 1 strong, 2 weak, m_a = cluster
magnetization with |m_a| = 1 classically):

    h = -(s/2)(h1 m1z + h2 m2z) - (s/4)(m1z^2 + m2z^2 + m1z m2z)
        - a1 m1x - a2 m2x - w (xi11 m1x^2 + xi22 m2x^2 + xi12 m1x m2x)

with a_a = (1 - gamma_a)/2 and w = s(1 - s)/4.  The sparse model drops
the m1z m2z and xi12 terms from the mean-field part and couples the
clusters pairwise instead, through -(s/2) sz sz - s(1-s) xi12/2 sx sx
on each of the N/2 intercluster pairs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import eigsh


@dataclass(frozen=True)
class Coeffs:
    s: float
    h1: float
    h2: float
    a1: float
    a2: float
    c11: float   # catalyst weights s(1 - s)/4 * xi_ab
    c22: float
    c12: float
    xi12: float  # the bare intercluster strength, for the sparse pair term

    @classmethod
    def at(cls, s, xi=(0.0, 0.0, 0.0)):
        """Coefficients at anneal time s, with the default fields h1 = 1,
        h2 = -0.49 and schedules gamma_a(s) = s."""
        w = s * (1.0 - s) / 4.0
        return cls(float(s), 1.0, -0.49, (1.0 - s) / 2.0, (1.0 - s) / 2.0,
                   w * xi[0], w * xi[1], w * xi[2], xi[2])


# ---------------------------------------------------------------------------
# Dense model: polynomial, two-angle minimum, closed-form harmonic gap

def dense_energy(c: Coeffs, m1x, m1z, m2x, m2z):
    return (-(c.s / 2.0) * (c.h1 * m1z + c.h2 * m2z)
            - (c.s / 4.0) * (m1z * m1z + m2z * m2z + m1z * m2z)
            - c.a1 * m1x - c.a2 * m2x
            - (c.c11 * m1x * m1x + c.c22 * m2x * m2x + c.c12 * m1x * m2x))


def _dense_grad_hess(c: Coeffs, m1x, m1z, m2x, m2z):
    """Gradient in (x, z) per cluster and the 4x4 Hessian over (1x, 1z, 2x, 2z)."""
    g1 = np.array([-c.a1 - 2.0 * c.c11 * m1x - c.c12 * m2x,
                   -(c.s / 2.0) * c.h1 - (c.s / 4.0) * (2.0 * m1z + m2z)])
    g2 = np.array([-c.a2 - 2.0 * c.c22 * m2x - c.c12 * m1x,
                   -(c.s / 2.0) * c.h2 - (c.s / 4.0) * (2.0 * m2z + m1z)])
    H = np.array([
        [-2.0 * c.c11, 0.0, -c.c12, 0.0],
        [0.0, -c.s / 2.0, 0.0, -c.s / 4.0],
        [-c.c12, 0.0, -2.0 * c.c22, 0.0],
        [0.0, -c.s / 4.0, 0.0, -c.s / 2.0],
    ])
    return g1, g2, H


def angle_hessian(c: Coeffs, th1, th2):
    """Gradient and Hessian of h over (theta1, theta2), m_a = (sin, 0, cos).

    The Hessian is diag(mu) + h_xx: mu_a = -g_a . m_a is the sphere
    constraint's multiplier and h_xx the Hessian projected on the
    in-plane tangents t_a = (cos, 0, -sin).
    """
    m1 = np.array([np.sin(th1), np.cos(th1)])
    m2 = np.array([np.sin(th2), np.cos(th2)])
    t1 = np.array([np.cos(th1), -np.sin(th1)])
    t2 = np.array([np.cos(th2), -np.sin(th2)])
    g1, g2, H = _dense_grad_hess(c, m1[0], m1[1], m2[0], m2[1])
    T = np.zeros((4, 2))
    T[0:2, 0] = t1
    T[2:4, 1] = t2
    hxx = T.T @ H @ T
    mu = np.array([-(g1 @ m1), -(g2 @ m2)])
    grad = np.array([g1 @ t1, g2 @ t2])
    return grad, mu, hxx


def closed_form_gaps(c: Coeffs, th1, th2):
    """Harmonic gaps Delta = 4 sqrt(eig(diag mu (diag mu + h_xx))), ascending.

    The (A - B)(A + B) form of a real quadratic boson Hamiltonian
    (Colpa, Physica A 93, 1978), valid when m_y = 0.  Returns None when
    the state is not a stable minimum (complex or negative frequencies).
    """
    _, mu, hxx = angle_hessian(c, th1, th2)
    w2 = np.linalg.eigvals(np.diag(mu) @ (np.diag(mu) + hxx))
    scale = max(1.0, float(np.abs(w2).max()))
    if float(np.abs(w2.imag).max()) > 1e-10 * scale or float(w2.real.min()) < -1e-12 * scale:
        return None
    w2 = np.sort(np.clip(w2.real, 0.0, None))
    return 4.0 * np.sqrt(w2)


def _polish(c: Coeffs, th):
    """Newton on the two angles; returns None if it leaves a minimum."""
    th = np.array(th, dtype=float)
    for _ in range(60):
        grad, mu, hxx = angle_hessian(c, th[0], th[1])
        hess = np.diag(mu) + hxx
        if np.linalg.eigvalsh(hess)[0] <= 0.0:
            return None
        step = np.linalg.solve(hess, grad)
        th -= step
        if float(np.abs(step).max()) < 1e-15:
            break
    grad, _, _ = angle_hessian(c, th[0], th[1])
    return th if float(np.abs(grad).max()) < 1e-12 else None


def dense_minimum(c: Coeffs, n=192):
    """Global minimum over the torus (theta1, theta2): brute-force grid,
    then Newton from every grid cell that is a local minimum.

    Returns (energy, theta1, theta2).
    """
    th = np.linspace(-np.pi, np.pi, n, endpoint=False)
    T1, T2 = np.meshgrid(th, th, indexing="ij")
    E = dense_energy(c, np.sin(T1), np.cos(T1), np.sin(T2), np.cos(T2))
    local = np.ones_like(E, dtype=bool)
    for d1 in (-1, 0, 1):
        for d2 in (-1, 0, 1):
            if d1 or d2:
                local &= E <= np.roll(np.roll(E, d1, axis=0), d2, axis=1)
    best = None
    for i, j in zip(*np.nonzero(local)):
        thp = _polish(c, (th[i], th[j]))
        if thp is None:
            continue
        e = float(dense_energy(c, np.sin(thp[0]), np.cos(thp[0]),
                               np.sin(thp[1]), np.cos(thp[1])))
        if best is None or e < best[0]:
            best = (e, thp[0], thp[1])
    if best is None or best[0] > float(E.min()):
        raise ArithmeticError(f"no polished minimum below the grid minimum at s={c.s}")
    return best


def min_gap_over_s(xi):
    """Minimum over s in [0, 1] of the closed-form lower gap at the global
    minimum: a 41-point scan in s, then golden-section refinement around
    its minimum to 1e-7 in s."""
    def gap(s):
        c = Coeffs.at(s, xi)
        _, t1, t2 = dense_minimum(c, n=96)
        g = closed_form_gaps(c, t1, t2)
        return np.inf if g is None else float(g[0])

    grid = np.linspace(0.0, 1.0, 41)
    vals = [gap(s) for s in grid]
    i = int(np.argmin(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    r = (np.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - r * (b - a), a + r * (b - a)
    f1, f2 = gap(x1), gap(x2)
    while b - a > 1e-7:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - r * (b - a)
            f1 = gap(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + r * (b - a)
            f2 = gap(x2)
    return min(f1, f2, vals[i])


# ---------------------------------------------------------------------------
# Sparse model: mean-field polynomial and the 4x4 effective problem

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
_I2 = np.eye(2)
_S1X, _S1Z = np.kron(_SX, _I2), np.kron(_SZ, _I2)
_S2X, _S2Z = np.kron(_I2, _SX), np.kron(_I2, _SZ)


def sparse_meanfield(c: Coeffs, m1x, m1z, m2x, m2z):
    return (-(c.s / 2.0) * (c.h1 * m1z + c.h2 * m2z)
            - (c.s / 4.0) * (m1z * m1z + m2z * m2z)
            - c.a1 * m1x - c.a2 * m2x
            - (c.c11 * m1x * m1x + c.c22 * m2x * m2x))


def _conjugate_fields(c: Coeffs, m):
    """mt_a = -2 dh_m/dm_a as (x, z) pairs; m = (m1x, m1z, m2x, m2z)."""
    m1x, m1z, m2x, m2z = m
    return np.array([
        2.0 * (c.a1 + 2.0 * c.c11 * m1x),
        2.0 * ((c.s / 2.0) * c.h1 + (c.s / 2.0) * m1z),
        2.0 * (c.a2 + 2.0 * c.c22 * m2x),
        2.0 * ((c.s / 2.0) * c.h2 + (c.s / 2.0) * m2z),
    ])


def _effective(c: Coeffs, mt):
    kzz = c.s / 2.0
    kxx = c.s * (1.0 - c.s) * c.xi12 / 2.0
    return (-mt[0] * _S1X - mt[1] * _S1Z - mt[2] * _S2X - mt[3] * _S2Z
            - kzz * np.kron(_SZ, _SZ) - kxx * np.kron(_SX, _SX))


def saddle_map(c: Coeffs, m):
    """One pass of the self-consistency map with numpy.linalg.eigh.

    Returns (expectations e(m), ground eigenvalue, conjugate fields);
    degenerate ground states are averaged, as the method prescribes.
    """
    mt = _conjugate_fields(c, m)
    w, V = np.linalg.eigh(_effective(c, mt))
    g = int(np.sum(w < w[0] + 1e-9))   # ground states within 1e-9
    P = V[:, :g]
    e = np.array([np.trace(P.T @ op @ P) / g for op in (_S1X, _S1Z, _S2X, _S2Z)])
    return e, float(w[0]), mt


def saddle_residual_and_u(c: Coeffs, m):
    """Fixed-point residual max|e(m) - m| and the energy density u at m."""
    m = np.asarray(m, dtype=float)
    e, lam0, mt = saddle_map(c, m)
    u = 0.5 * float(mt @ m) + sparse_meanfield(c, *m) + 0.5 * lam0
    return float(np.abs(e - m).max()), float(u)


_SADDLE_STARTS = [(0, 1, 0, 1), (0, 1, 0, -1), (0, -1, 0, 1), (0, -1, 0, -1), (1, 0, 1, 0)]


def saddle_global(c: Coeffs):
    """Lowest-u fixed point over the axis starts, by iteration damped by
    one half until max|e(m) - m| < 1e-11 (at most 50000 steps).

    Returns (u, m) with m = (m1x, m1z, m2x, m2z).
    """
    best = None
    for start in _SADDLE_STARTS:
        m = np.array(start, dtype=float)
        for _ in range(50000):
            e, _, _ = saddle_map(c, m)
            if float(np.abs(e - m).max()) < 1e-11:
                break
            m = m + 0.5 * (e - m)
        else:
            continue
        _, u = saddle_residual_and_u(c, m)
        if best is None or u < best[0]:
            best = (u, m)
    if best is None:
        raise ArithmeticError(f"no saddle start converged at s={c.s}")
    return best


# ---------------------------------------------------------------------------
# Exact diagonalization references as CSR matrices

def dense_sector_csr(c: Coeffs, N: int):
    """Dense model in the sector of two maximal cluster spins S = N/4, as CSR.

    Cluster magnetization operators are S^a / S in the |S, m> basis; the
    Hamiltonian is N h(M1, M2) with the classical polynomial's operator
    ordering (M1 and M2 commute).
    """
    S = N / 4.0
    d = N // 2 + 1
    m = np.arange(d) - S
    off = 0.5 * np.sqrt(S * (S + 1.0) - m[:-1] * (m[:-1] + 1.0)) / S
    X = sps.diags([off, off], [-1, 1], format="csr")
    Z = sps.diags(m / S, 0, format="csr")
    eye = sps.identity(d, format="csr")
    X1, X2 = sps.kron(X, eye), sps.kron(eye, X)
    Z1, Z2 = sps.kron(Z, eye), sps.kron(eye, Z)
    H = (-(c.s / 2.0) * (c.h1 * Z1 + c.h2 * Z2)
         - (c.s / 4.0) * (Z1 @ Z1 + Z2 @ Z2 + Z1 @ Z2)
         - c.a1 * X1 - c.a2 * X2
         - (c.c11 * X1 @ X1 + c.c22 * X2 @ X2 + c.c12 * X1 @ X2))
    return (N * H).tocsr()


def sparse_full_csr(c: Coeffs, N: int):
    """Sparse model on all 2^N states, as CSR.  Site r of cluster 1 is bit
    r, its partner in cluster 2 is bit N/2 + r."""
    n2 = N // 2
    dim = 1 << N
    idx = np.arange(dim)
    bits = (idx[:, None] >> np.arange(N)[None, :]) & 1
    sz = 1.0 - 2.0 * bits
    Z1, Z2 = sz[:, :n2].sum(axis=1), sz[:, n2:].sum(axis=1)
    cs = c.s * (1.0 - c.s)
    # N h_m with m_a = (2/N) sum of Pauli operators; the intracluster
    # squares contribute n2 on the diagonal (sigma_x^2 = 1)
    diag = (-c.s * (c.h1 * Z1 + c.h2 * Z2) - (c.s / N) * (Z1 ** 2 + Z2 ** 2)
            - (c.s / 2.0) * (sz[:, :n2] * sz[:, n2:]).sum(axis=1)
            - (4.0 / N) * (c.c11 + c.c22) * n2)
    flips = []
    for r in range(n2):
        flips.append((1 << r, -2.0 * c.a1))
        flips.append((1 << (n2 + r), -2.0 * c.a2))
        flips.append(((1 << r) | (1 << (n2 + r)), -cs * c.xi12 / 2.0))
        for rp in range(r + 1, n2):
            flips.append(((1 << r) | (1 << rp), -8.0 * c.c11 / N))
            flips.append(((1 << (n2 + r)) | (1 << (n2 + rp)), -8.0 * c.c22 / N))
    rows = [idx]
    cols = [idx]
    vals = [diag]
    for mask, coeff in flips:
        if coeff:
            rows.append(idx)
            cols.append(idx ^ mask)
            vals.append(np.full(dim, coeff))
    H = sps.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(dim, dim))
    return H


def lowest_two(H):
    """Two lowest eigenvalues of a sparse symmetric matrix with ARPACK."""
    # a random start: a symmetric one would stay inside one symmetry sector
    v0 = np.random.default_rng(12345).standard_normal(H.shape[0])
    w = eigsh(H, k=2, which="SA", tol=1e-13, return_eigenvectors=False, v0=v0)
    return np.sort(w)
