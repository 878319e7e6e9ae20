"""Quasi-particle excitation gaps above the classical ground state.

Harmonic fluctuations around a stable minimum are organized by a local
frame per cluster; their normal modes are the eigenvalues of a 4x4
non-Hermitian block matrix whose non-negative eigenvalues, times four,
give the two gap branches.  The eigenvalues come from LAPACK
(``numpy.linalg.eigvals``) and the left eigenvectors from the nullspace
of the SVD; for in-plane minima the gaps equal the Colpa closed form
4 sqrt(eig(diag(mu) (diag(mu) + h_xx))), which the tests check.
Includes gap profiling over the anneal and golden-section optimization
of the catalyst strength.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .classical import ClassicalState, detect_transition, global_minimize
from .errors import (CatalystRangeError, DegenerateModeError, InstabilityError,
                     StationarityError)
from .model import ModelSpec, dense_hessian

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


def _pseudo_norm(psi: np.ndarray) -> float:
    u, v = psi[:2], psi[2:]
    return float(np.linalg.norm(u) ** 2 - np.linalg.norm(v) ** 2)


def _pseudo_inner(psi_a: np.ndarray, psi_b: np.ndarray) -> complex:
    # B(a, b) = u_b^H u_a - v_b^H v_a
    return complex(psi_b[:2].conj() @ psi_a[:2] - psi_b[2:].conj() @ psi_a[2:])


def excitation_gaps(F: FluctuationMatrix) -> GapSpectrum:
    """Gap branches from the fluctuation matrix.

    Checks realness and +/- pairing of the spectrum, takes the two
    non-negative mode frequencies, and normalizes the corresponding left
    eigenvectors to the indefinite metric (+1 norm), orthogonalizing
    inside degenerate clusters.
    """
    E = F.matrix
    scale = max(float(np.abs(E).max()), 1.0)
    eig = np.linalg.eigvals(E)
    if float(np.abs(eig.imag).max()) > IMAG_TOL * scale:
        raise InstabilityError(
            f"fluctuation spectrum has imaginary parts up to {np.abs(eig.imag).max():g}; "
            "the underlying state is not a stable minimum"
        )
    re = np.sort(eig.real)
    pair_defect = float(np.abs(re + re[::-1]).max())
    if pair_defect > IMAG_TOL * scale:
        raise InstabilityError(f"fluctuation spectrum is not +/- paired ({pair_defect:g})")
    eps = re[2:]  # the two non-negative frequencies, ascending

    # left eigenvectors: (E^T - eps I) psi = 0, clustering degeneracies; the
    # nullspace is spanned by the conjugated right singular vectors of the
    # `mult` smallest singular values
    clusters = []
    if eps[1] - eps[0] < 1e-8 * scale:
        clusters.append((0.5 * (eps[0] + eps[1]), 2))
    else:
        clusters.append((eps[0], 1))
        clusters.append((eps[1], 1))
    vecs: list[np.ndarray] = []
    for lam, mult in clusters:
        raw = np.linalg.svd(E.T - lam * np.eye(4))[2][4 - mult:].conj()
        kept: list[np.ndarray] = []
        for psi in raw:
            for prev in kept:
                coeff = _pseudo_inner(psi, prev)
                psi = psi - coeff * prev
            nrm = _pseudo_norm(psi)
            if nrm <= 1e-10:
                raise DegenerateModeError(
                    "eigenvector has vanishing indefinite norm; zero or "
                    "unstable mode encountered"
                )
            kept.append(psi / np.sqrt(nrm))
        vecs.extend(kept)
    return GapSpectrum(delta1=float(4.0 * eps[0]), delta2=float(4.0 * eps[1]),
                       eigvecs=np.array(vecs[:2]))


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
        try:
            state = global_minimize(spec, float(s), n_starts, seed)
            g = excitation_gaps(fluctuation_matrix(spec, state))
            flag = "indeterminate" if any(state.indeterminate) else ""
            out.append(GapPoint(float(s), g.delta1, g.delta2, flag))
        except (InstabilityError, DegenerateModeError) as err:
            out.append(GapPoint(float(s), None, None,
                                "instability" if isinstance(err, InstabilityError)
                                else "degenerate"))
    return out


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, lo, hi, tol):
    """Golden-section minimization of f on [lo, hi]; returns (x, f(x))."""
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
