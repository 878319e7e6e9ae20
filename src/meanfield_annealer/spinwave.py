"""Quasi-particle excitation gaps above the classical ground state.

Every classical minimum has m_y = 0, so the harmonic mode matrix is the
real 4x4 E = [[A, B], [-B, -A]] with A + B the in-plane angle Hessian
(``model._angle_hessian``) and A - B = diag(mu) the out-of-plane
curvature.  E's positive eigenvalues, times four, are the two gap
branches, found in real 2x2 arithmetic (Colpa, Physica A 93, 1978).
Includes gap profiling over the anneal, and the minimum-gap and
catalyst-strength searches by Brent's method.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import copysign, cos, sin, sqrt, ulp

import numpy as np

from .classical import ClassicalState, global_minimize
from .errors import (CatalystRangeError, DegenerateModeError, InstabilityError,
                     StationarityError)
from .model import Coupling, ModelSpec, _angle_hessian, _coeffs, _eigh2, _prefer, _require
from .transitions import BranchAnalysis, analyze

IMAG_TOL = 1e-8
_STATIONARY_TOL = 1e-8
_TOL_S = 1e-5   # s tolerance of the Brent refinement in min_gap


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


def fluctuation_matrix(spec: ModelSpec, state: ClassicalState) -> np.ndarray:
    """The real 4x4 mode matrix E = [[A, B], [-B, -A]] at a stationary state,
    with A + B the in-plane angle Hessian and A - B = diag(state.mu).

    Off-stationary states make the harmonic expansion meaningless, so a
    residual above tolerance is rejected.
    """
    _require(spec, Coupling.DENSE)
    if state.residual >= _STATIONARY_TOL:
        raise StationarityError(
            f"state residual {state.residual:g} exceeds {_STATIONARY_TOL:g}; "
            "fluctuations are only defined at a stationary point"
        )
    t1, t2 = state.t1, state.t2
    mu1, mu2 = state.mu
    h11, h12, h22 = _angle_hessian(_coeffs(spec, state.s), sin(t1), cos(t1), sin(t2), cos(t2),
                                   mu1, mu2)
    # A = (A+B + A-B)/2 and B = (A+B - A-B)/2 with A+B = (h11, h12, h22), A-B = diag(mu)
    a1, a2, b1, b2 = (h11 + mu1) / 2, (h22 + mu2) / 2, (h11 - mu1) / 2, (h22 - mu2) / 2
    c = h12 / 2
    return np.array([[a1, c, b1, c], [c, a2, c, b2], [-b1, -c, -a1, -c], [-c, -b2, -c, -a2]])


def excitation_gaps(E: np.ndarray) -> GapSpectrum:
    """Gap branches of the real 4x4 mode matrix E = [[A, B], [-B, -A]] (as
    ``fluctuation_matrix`` returns it), by Colpa's method on A +- B.

    sigma3 E has the spectrum of P = A + B and Q = A - B; E's is
    +-sqrt(eig(Q P)).  When P and Q are positive definite and Q = L L^T,
    the frequencies eps are the square roots of eig(L^T P L) = (U, eps^2),
    and the rows of ``eigvecs``, (u, v) = ((p + q)/2, (p - q)/2) with
    q = L U / sqrt(eps) and p = P q / eps = sqrt(eps) L^-T U, are left
    eigenvectors of E with indefinite norm +1.  Otherwise E's spectrum
    tells an unstable state (non-real frequencies) from a zero or
    negative mode.
    """
    (a11, a12, b11, b12), (_, a22, _, b22) = top = E[:2].tolist()
    scale = max(1.0, *map(abs, top[0] + top[1]))   # E's lower rows permute and negate these
    p11, p12, p22 = a11 + b11, a12 + b12, a22 + b22
    q11, q12, q22 = a11 - b11, a12 - b12, a22 - b22
    if min(_eigh2(p11, p12, p22)[0], _eigh2(q11, q12, q22)[0]) <= 1e-10 * scale:
        imag = float(np.abs(np.linalg.eigvals(E).imag).max())
        if imag > IMAG_TOL * scale:
            raise InstabilityError(
                f"fluctuation spectrum has imaginary parts up to {imag:g}; "
                "the underlying state is not a stable minimum"
            )
        raise DegenerateModeError("fluctuation form is not positive definite: "
                                  "zero or negative mode encountered")
    # Q = L L^T with L = [[l11, 0], [l21, l22]]; L^T P L is written with
    # l11^2 = q11 and l22^2 = d, which keeps it exact for a diagonal Q
    l11 = sqrt(q11)
    l21 = q12 / l11
    d = q22 - l21 * l21
    l22 = sqrt(d)
    lo, hi, x1, x2 = _eigh2(q11 * p11 + l21 * (2.0 * l11 * p12 + l21 * p22),
                            l22 * (l11 * p12 + l21 * p22), d * p22)
    rows = []
    for e, y1, y2 in ((sqrt(lo), x1, x2), (sqrt(hi), -x2, x1)):
        q1, q2 = l11 * y1 / sqrt(e), (l21 * y1 + l22 * y2) / sqrt(e)   # q = L y / sqrt(eps)
        p1, p2 = (p11 * q1 + p12 * q2) / e, (p12 * q1 + p22 * q2) / e   # p = P q / eps
        rows.append(((p1 + q1) / 2, (p2 + q2) / 2, (p1 - q1) / 2, (p2 - q2) / 2))
    return GapSpectrum(4.0 * sqrt(lo), 4.0 * sqrt(hi), eigvecs=np.array(rows))


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


def _profile(spec: ModelSpec, analysis: BranchAnalysis) -> list[GapPoint]:
    return [GapPoint(float(s), *gap_or_flag(spec, state))
            for s, state in zip(analysis.s_grid, analysis.equilibrium)]


def gap_profile(spec: ModelSpec, s_grid, n_starts: int = 8, seed: int = 0) -> list[GapPoint]:
    """Gap branches along the anneal, on the equilibrium of one ``analyze``
    pass over ``check_grid(s_grid)``; unstable or degenerate points are
    kept as flagged markers with deltas None, never dropped.
    """
    _require(spec, Coupling.DENSE)
    return _profile(spec, analyze(spec, s_grid, n_starts=n_starts, seed=seed))


_GOLDEN_STEP = (3.0 - sqrt(5.0)) / 2.0   # a Python float, so the probes are too


def _minimize_scalar(f, lo, hi, tol):
    """Brent's minimization of f on [lo, hi] to within tol; returns (x, f(x)).

    Parabolic interpolation through the three best points so far, with a
    golden-section step where the parabola is not trusted (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 5; Netlib
    ``fmin``).  tol is floored at 4 ulps of max(|lo|, |hi|), no step is
    shorter than tol/3 plus a few ulps of x, and the search ends once a
    probe would coincide with a kept point, so no point is evaluated twice.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    a, b = float(lo), float(hi)
    tol = max(tol, 4.0 * ulp(max(abs(a), abs(b))))
    if b - a <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    x = w = v = a + _GOLDEN_STEP * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        tol1 = tol / 3.0 + 4.0 * ulp(x)
        if abs(x - xm) <= 2.0 * tol1 - 0.5 * (b - a):
            break
        p = q = 0.0
        if abs(e) > tol1:   # the parabola through x, w, v has its vertex at x + p/q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            p, q = (-p, 2.0 * (q - r)) if q > r else (p, 2.0 * (r - q))
        # trust the vertex if inside the bracket and the step under half the one before last
        if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if min(x + d - a, b - x - d) < 2.0 * tol1:
                d = copysign(tol1, xm - x)
        else:
            e = (a if x >= xm else b) - x
            d = _GOLDEN_STEP * e
        u = x + (d if abs(d) >= tol1 else copysign(tol1, d))
        if not a < u < b or u in (x, w, v):
            break
        fu = f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _min_gap_on(spec: ModelSpec, analysis: BranchAnalysis) -> tuple[float, float, ClassicalState]:
    """``min_gap`` on the states of one ``analyze`` pass over its grid.

    The grid profile reads ``analysis.equilibrium``.  Each Brent probe at
    s is the lower-energy (``_prefer``) of two warm solves of
    ``analysis.solver``, one from each equilibrium state at the ends of
    the grid bracket, as each probe of ``transitions._locate_crossing``
    warm-solves both branches, so a bracket that straddles a branch
    crossing still reads the equilibrium branch.  The state returned is
    the grid state or the probe the minimum was read from.
    """
    s_grid, eq, solver = analysis.s_grid, analysis.equilibrium, analysis.solver
    profile = _profile(spec, analysis)
    valid = [(i, p) for i, p in enumerate(profile) if p.delta1 is not None]
    if not valid:
        raise InstabilityError("gap undefined on the whole grid")
    if len(valid) < len(profile):
        # stacklevel 3: the caller of min_gap, or optimize_catalyst's probe
        warnings.warn("gap undefined at some grid points; minimum may sit at "
                      "a branch edge", stacklevel=3)
    i_min, grid_best = min(valid, key=lambda ip: ip[1].delta1)
    if len(valid) == 1:
        return float(grid_best.s), float(grid_best.delta1), eq[i_min]
    i_lo, i_hi = max(i_min - 1, 0), min(i_min + 1, len(s_grid) - 1)
    probes = {}

    def objective(s):
        s = float(s)
        from_lo = solver.warm(s, eq[i_lo])
        from_hi = solver.warm(s, eq[i_hi])
        probes[s] = _prefer(from_hi, from_lo)
        return excitation_gaps(fluctuation_matrix(spec, probes[s])).delta1

    s_best, d_best = _minimize_scalar(objective, s_grid[i_lo], s_grid[i_hi], _TOL_S)
    if grid_best.delta1 < d_best:
        return float(grid_best.s), float(grid_best.delta1), eq[i_min]
    return float(s_best), float(d_best), probes[float(s_best)]


def min_gap(spec: ModelSpec, s_grid, n_starts: int = 8,
            seed: int = 0) -> tuple[float, float, ClassicalState]:
    """Minimum (s, delta1, state) of the lower gap branch over the grid, Brent-refined.

    One ``transitions.analyze`` pass over the grid gives every state: the
    grid profile is its equilibrium, and the Brent refinement warm-starts
    from the equilibrium states at the ends of the grid bracket, keeping
    the lower-energy solve (see ``_min_gap_on``).
    Global solves run only at the two sweep starts and where a warm solve
    fails.  In a transition regime the minimum reflects a branch edge; a
    warning is emitted and the value returned anyway.
    """
    _require(spec, Coupling.DENSE)
    return _min_gap_on(spec, analyze(spec, s_grid, n_starts=n_starts, seed=seed))


def optimize_catalyst(spec_family, xi_range, tol_xi: float = 0.05,
                      s_grid=None, n_starts: int = 8, seed: int = 0) -> tuple[float, float]:
    """Catalyst strength maximizing the minimum gap over the anneal.

    ``spec_family`` maps a strength xi to a ModelSpec.  Every evaluated xi
    runs one ``transitions.analyze`` pass over the grid (by default 101
    points over [0, 1]).  Its verdict screens xi for a first-order
    transition, and finding one raises CatalystRangeError naming the
    offending value.
    Otherwise its equilibrium states give the minimum gap, refined by warm
    two-anchor probes as in ``min_gap``.
    """
    def neg_min_gap(xi):
        spec = spec_family(xi)
        _require(spec, Coupling.DENSE)
        analysis = analyze(spec, s_grid, n_starts=n_starts, seed=seed)
        if analysis.report.found:
            raise CatalystRangeError(
                f"first-order transition inside the optimization range at xi={xi:g}",
                xi=xi,
            )
        return -_min_gap_on(spec, analysis)[1]

    xi_star, neg = _minimize_scalar(neg_min_gap, min(xi_range), max(xi_range), tol_xi)
    return float(xi_star), float(-neg)
