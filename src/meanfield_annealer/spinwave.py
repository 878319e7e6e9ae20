"""Quasi-particle excitation gaps above the classical ground state.

Harmonic fluctuations around a stable minimum are organized by a local
frame per cluster; their normal modes are the eigenvalues of a 4x4
non-Hermitian block matrix E whose positive eigenvalues, times four,
give the two gap branches.  At a stable minimum sigma3 E is Hermitian
positive definite, so Colpa's method finds the frequencies and the
normalized left eigenvectors with two Hermitian ``numpy.linalg.eigh``
calls; ``eigvals`` runs only to classify a failure.  For in-plane
minima the gaps equal the Colpa closed form
4 sqrt(eig(diag(mu) (diag(mu) + h_xx))), which the tests check.
Includes gap profiling over the anneal and golden-section optimization
of the catalyst strength.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .classical import ClassicalState, global_minimize
from .errors import (CatalystRangeError, DegenerateModeError, InstabilityError,
                     StationarityError)
from .model import ModelSpec, dense_hessian
from .transitions import detect_transition

IMAG_TOL = 1e-8
_STATIONARY_TOL = 1e-8


@dataclass(frozen=True)
class LocalFrame:
    """Right-handed orthonormal triad with ez along the magnetization."""

    ex: np.ndarray
    ey: np.ndarray
    ez: np.ndarray


@dataclass(frozen=True)
class FluctuationMatrix:
    """4x4 mode matrix [[M+Z+, conj(Z-)], [-Z-, -M-conj(Z+)]]."""

    matrix: np.ndarray
    mu: tuple[float, float]
    zplus: np.ndarray
    zminus: np.ndarray


@dataclass(frozen=True)
class GapSpectrum:
    delta1: float
    delta2: float
    eigvecs: np.ndarray  # rows are the two normalized quasi-particle vectors


@dataclass(frozen=True)
class GapPoint:
    """One grid point of a gap profile; deltas are None where undefined."""

    s: float
    delta1: float | None
    delta2: float | None
    flag: str = ""


def local_frame(m) -> LocalFrame:
    """Deterministic frame at a unit vector m.

    ey is along z x m when that is well defined, else the y axis; ex
    closes the right-handed triad.
    """
    m = np.asarray(m, dtype=float).reshape(3)
    n = np.linalg.norm(m)
    if n < 1e-12:
        raise ValueError("cannot build a frame at the zero vector")
    m = m / n
    mx, my, mz = m.tolist()
    r = math.hypot(mx, my)
    # ey = z x m / r, ex = ey x m, with ey's z component zero
    yx, yy = (-my / r, mx / r) if r > 1e-6 else (0.0, 1.0)
    ex = np.array([yy * mz, -yx * mz, yx * my - yy * mx])
    return LocalFrame(ex=ex, ey=np.array([yx, yy, 0.0]), ez=m)


def rotate_frame(frame: LocalFrame, angle: float) -> LocalFrame:
    """Rotate (ex, ey) about ez; the gap spectrum must not change."""
    c, s = np.cos(angle), np.sin(angle)
    return LocalFrame(
        ex=c * frame.ex + s * frame.ey,
        ey=-s * frame.ex + c * frame.ey,
        ez=frame.ez,
    )


def fluctuation_matrix(spec: ModelSpec, state: ClassicalState,
                       frames: tuple[LocalFrame, LocalFrame] | None = None) -> FluctuationMatrix:
    """Assemble the 4x4 fluctuation matrix at a stationary state.

    Off-stationary states make the harmonic expansion meaningless, so a
    residual above tolerance is rejected.
    """
    if state.residual >= _STATIONARY_TOL:
        raise StationarityError(
            f"state residual {state.residual:g} exceeds {_STATIONARY_TOL:g}; "
            "fluctuations are only defined at a stationary point"
        )
    if frames is None:
        frames = (local_frame(state.m.m1), local_frame(state.m.m2))
    hess = dense_hessian(spec, state.s)
    # 6x2 frame matrices: column a holds cluster a's frame vector in rows 3a:3a+3
    Px = np.zeros((6, 2))
    Py = np.zeros((6, 2))
    for a in range(2):
        Px[3 * a:3 * a + 3, a] = frames[a].ex
        Py[3 * a:3 * a + 3, a] = frames[a].ey
    hxx = Px.T @ hess @ Px
    hyy = Py.T @ hess @ Py
    hxy = Px.T @ hess @ Py
    sym_defect = max(abs(hxx[0, 1] - hxx[1, 0]), abs(hyy[0, 1] - hyy[1, 0]))
    if sym_defect > 1e-10:
        raise ValueError(f"frame-projected Hessian lost its symmetry ({sym_defect:g})")
    zplus = (hxx + hyy - 1j * (hxy - hxy.T)) / 2.0
    zminus = (hxx - hyy - 1j * (hxy + hxy.T)) / 2.0
    M = np.diag(state.mu)
    E = np.empty((4, 4), dtype=complex)
    E[:2, :2] = M + zplus
    E[:2, 2:] = np.conj(zminus)
    E[2:, :2] = -zminus
    E[2:, 2:] = -M - np.conj(zplus)
    return FluctuationMatrix(matrix=E, mu=state.mu, zplus=zplus, zminus=zminus)


_SIGMA3 = np.array([1.0, 1.0, -1.0, -1.0])


def excitation_gaps(F: FluctuationMatrix) -> GapSpectrum:
    """Gap branches from the fluctuation matrix by Colpa's method.

    At a stable minimum H = sigma3 E is Hermitian positive definite.  With
    H = K^H K, the Hermitian K sigma3 K^H has the spectrum of E, and its
    two positive eigenvalues are the mode frequencies (Colpa, Physica A 93,
    1978).  The rows of ``eigvecs`` are the left eigenvectors of E with
    indefinite norm +1, pseudo-orthogonal also inside a degenerate pair.
    When H is not positive definite, E's spectrum tells an unstable state
    (non-real frequencies) from a zero or negative mode.
    """
    E = F.matrix
    scale = max(float(np.abs(E).max()), 1.0)
    lam, Q = np.linalg.eigh(_SIGMA3[:, None] * E)
    if lam[0] <= 1e-10 * scale:
        imag = float(np.abs(np.linalg.eigvals(E).imag).max())
        if imag > IMAG_TOL * scale:
            raise InstabilityError(
                f"fluctuation spectrum has imaginary parts up to {imag:g}; "
                "the underlying state is not a stable minimum"
            )
        raise DegenerateModeError("fluctuation form is not positive definite: "
                                  "zero or negative mode encountered")
    K = np.sqrt(lam)[:, None] * Q.conj().T  # H = K^H K
    # einsum, not @: a complex 4x4 @ goes to BLAS zgemm, after which the
    # next global_minimize ran about 1.5x slower (OpenBLAS 0.3.31, Haswell
    # kernels).  K sigma3 K^H is formed as sqrt(lam_i lam_j) (Q^H sigma3 Q)_ij,
    # which keeps a diagonal H, as at s = 0, exact.
    W = np.sqrt(np.outer(lam, lam)) * np.einsum("ki,k,kj->ij", Q.conj(), _SIGMA3, Q)
    w, U = np.linalg.eigh(W)
    eps = w[2:]  # the two positive frequencies, ascending
    # psi_n = K^T conj(u_n) / sqrt(eps_n): psi^T E = eps psi^T, psi^H sigma3 psi = 1
    psi = np.einsum("kn,ki->ni", U[:, 2:].conj(), K) / np.sqrt(eps)[:, None]
    return GapSpectrum(delta1=float(4.0 * eps[0]), delta2=float(4.0 * eps[1]),
                       eigvecs=psi)


def gap_or_flag(spec: ModelSpec,
                state: ClassicalState) -> tuple[float | None, float | None, str]:
    """(delta1, delta2, "") at a stable state, else (None, None, flag).

    The flag is "instability" or "degenerate" after the error
    ``excitation_gaps`` raised.
    """
    try:
        g = excitation_gaps(fluctuation_matrix(spec, state))
    except InstabilityError:
        return None, None, "instability"
    except DegenerateModeError:
        return None, None, "degenerate"
    return g.delta1, g.delta2, ""


def gaps_at(spec: ModelSpec, s: float, n_starts: int = 8, seed: int = 0) -> GapSpectrum:
    """Equilibrium-state gaps at a single s."""
    state = global_minimize(spec, s, n_starts, seed)
    return excitation_gaps(fluctuation_matrix(spec, state))


def gap_profile(spec: ModelSpec, s_grid, n_starts: int = 8, seed: int = 0) -> list[GapPoint]:
    """Gap branches along the anneal, on the equilibrium branch per point.

    Points where the spectrum is unstable or degenerate are kept as
    flagged markers with deltas set to None, never dropped.
    """
    out = []
    for s in np.asarray(s_grid, dtype=float):
        state = global_minimize(spec, float(s), n_starts, seed)
        d1, d2, flag = gap_or_flag(spec, state)
        if not flag and any(state.indeterminate):
            flag = "indeterminate"
        out.append(GapPoint(float(s), d1, d2, flag))
    return out


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, lo, hi, tol):
    """Golden-section minimization of f on [lo, hi]; returns (x, f(x))."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    a, b = float(lo), float(hi)
    if b < a:
        a, b = b, a
    if b - a <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def min_gap(spec: ModelSpec, s_grid, n_starts: int = 8, seed: int = 0,
            tol_s: float = 1e-5) -> tuple[float, float]:
    """Minimum of the lower gap branch over the grid, golden-refined.

    In a transition regime the minimum reflects a branch edge; a warning
    is emitted and the value returned anyway.
    """
    profile = gap_profile(spec, s_grid, n_starts, seed)
    s_grid = np.asarray(s_grid, dtype=float)
    valid = [(i, p) for i, p in enumerate(profile) if p.delta1 is not None]
    if not valid:
        raise InstabilityError("gap undefined on the whole grid")
    if len(valid) < len(profile):
        warnings.warn("gap undefined at some grid points; minimum may sit at "
                      "a branch edge", stacklevel=2)
    if len(valid) == 1:
        return float(valid[0][1].s), float(valid[0][1].delta1)
    i_min, _ = min(valid, key=lambda ip: ip[1].delta1)
    lo = s_grid[max(i_min - 1, 0)]
    hi = s_grid[min(i_min + 1, len(s_grid) - 1)]

    def objective(s):
        return gaps_at(spec, float(s), n_starts, seed).delta1

    s_best, d_best = _golden_section(objective, lo, hi, tol_s)
    grid_best = profile[i_min]
    if grid_best.delta1 < d_best:
        return float(grid_best.s), float(grid_best.delta1)
    return float(s_best), float(d_best)


def optimize_catalyst(spec_family, xi_range, tol_xi: float = 0.05,
                      s_grid=None, n_starts: int = 8, seed: int = 0) -> tuple[float, float]:
    """Catalyst strength maximizing the minimum gap over the anneal.

    ``spec_family`` maps a strength xi to a ModelSpec.  Every evaluated xi
    is screened for a first-order transition first; finding one raises
    CatalystRangeError naming the offending value.
    """
    lo, hi = float(min(xi_range)), float(max(xi_range))
    if s_grid is None:
        s_grid = np.linspace(0.0, 1.0, 101)
    cache: dict[float, float] = {}

    def neg_min_gap(xi):
        xi = float(xi)
        if xi in cache:
            return cache[xi]
        spec = spec_family(xi)
        report = detect_transition(spec, s_grid, n_starts=n_starts, seed=seed)
        if report.found:
            raise CatalystRangeError(
                f"first-order transition inside the optimization range at xi={xi:g}",
                xi=xi,
            )
        _, g = min_gap(spec, s_grid, n_starts, seed)
        cache[xi] = -g
        return -g

    if hi - lo <= 0.0:
        return lo, -neg_min_gap(lo)
    xi_star, neg = _golden_section(neg_min_gap, lo, hi, tol_xi)
    return float(xi_star), float(-neg)
