import math

import numpy as np
import pytest

from meanfield_annealer import (CatalystRangeError, ClassicalState,
                                DegenerateModeError, InstabilityError,
                                ModelSpec, StationarityError, excitation_gaps,
                                fluctuation_matrix, gap_profile, gaps_at,
                                dense_hessian, global_minimize, min_gap,
                                optimize_catalyst)
from meanfield_annealer import saddle, spinwave, transitions
from meanfield_annealer.ed import dense_ed, extrapolate_gap, gap_sequence
from meanfield_annealer.spinwave import _minimize_scalar, gap_or_flag
from conftest import count_calls


def test_fluctuation_matrix_at_start(dense_spec):
    st = global_minimize(dense_spec, 0.0)
    F = fluctuation_matrix(dense_spec, st)
    assert np.allclose(F, np.diag([0.5, 0.5, -0.5, -0.5]), atol=1e-12)


def test_fluctuation_matrix_final(dense_spec):
    st = global_minimize(dense_spec, 1.0)
    F = fluctuation_matrix(dense_spec, st)
    # A - B = diag(mu)
    assert F[0, 0] - F[0, 2] == pytest.approx(1.25, abs=1e-9)
    assert F[1, 1] - F[1, 3] == pytest.approx(0.505, abs=1e-9)
    assert np.abs(F[:2, 2:]).max() < 1e-12


def test_fluctuation_requires_stationary_state(dense_spec):
    t = math.atan2(0.6, 0.8)
    bogus = ClassicalState(s=0.5, t1=t, t2=t, energy=0.0, mu=(0.1, 0.1), residual=1e-3)
    with pytest.raises(StationarityError):
        fluctuation_matrix(dense_spec, bogus)


def test_spectrum_pairing_random_specs(rng):
    for _ in range(50):
        spec = ModelSpec.dense(xi=tuple(rng.uniform(-4, 4, 3)))
        s = rng.uniform(0.0, 1.0)
        st = global_minimize(spec, s)
        F = fluctuation_matrix(spec, st)
        from meanfield_annealer.eigensolvers import eig_general
        ev = eig_general(F)
        assert np.abs(ev.imag).max() < 1e-8
        re = np.sort(ev.real)
        assert np.abs(re + re[::-1]).max() < 1e-8


def test_excitation_gaps_match_colpa_closed_form(rng):
    # with m_a = (sin th_a, 0, cos th_a) the modes decouple into in-plane
    # (x) and out-of-plane (y) quadratures: A - B = diag(mu) and
    # A + B = diag(mu) + h_xx with h_xx = T^T H T, t_a = (cos th_a, 0,
    # -sin th_a), so omega^2 = eig(diag(mu) (diag(mu) + h_xx)) (Colpa,
    # Physica A 93, 1978)
    for _ in range(60):
        spec = ModelSpec.dense(xi=tuple(rng.uniform(-6.0, 6.0, 3)))
        st = global_minimize(spec, float(rng.uniform(0.0, 1.0)))
        th = np.arctan2([st.m.m1[0], st.m.m2[0]], [st.m.m1[2], st.m.m2[2]])
        T = np.zeros((6, 2))
        T[0:3, 0] = np.cos(th[0]), 0.0, -np.sin(th[0])
        T[3:6, 1] = np.cos(th[1]), 0.0, -np.sin(th[1])
        M = np.diag(st.mu)
        P = M + T.T @ dense_hessian(spec, st.s) @ T
        omega2 = np.sort(np.linalg.eigvals(M @ P).real)
        F = fluctuation_matrix(spec, st)
        A, B = F[:2, :2], F[:2, 2:]
        assert F.dtype == np.float64
        assert np.abs(A + B - P).max() < 1e-12
        assert np.abs(A - B - M).max() < 1e-12
        assert np.array_equal(F[2:], -F[:2, [2, 3, 0, 1]])
        g = excitation_gaps(F)
        assert g.delta1 == pytest.approx(4.0 * np.sqrt(omega2[0]), abs=1e-10)
        assert g.delta2 == pytest.approx(4.0 * np.sqrt(omega2[1]), abs=1e-10)


def test_gap_endpoints(dense_spec):
    g = gaps_at(dense_spec, 0.0)
    assert g.delta1 == pytest.approx(2.0, abs=1e-6)
    assert g.delta2 == pytest.approx(2.0, abs=1e-6)
    g = gaps_at(dense_spec, 1.0)
    assert g.delta1 == pytest.approx(2.02, abs=1e-6)
    assert g.delta2 == pytest.approx(5.0, abs=1e-6)
    for xi in ((0.0, 0.0, -4.0), (2.0, -3.0, 1.0)):
        g = gaps_at(ModelSpec.dense(xi=xi), 0.0)
        assert g.delta1 == pytest.approx(2.0, abs=1e-6)


def test_gap_against_large_size_oracle():
    spec = ModelSpec.dense(xi=(0.0, 0.0, -4.0))
    ref = dense_ed(spec, 0.3, 400)
    g = gaps_at(spec, 0.3)
    assert abs(ref.gap - g.delta1) < 5e-2


def test_gap_extrapolation_at_clean_points():
    # 1/N extrapolation of the sector gap against the harmonic value at
    # points where the first excitation is the quasi-particle for all sizes
    spec = ModelSpec.dense(xi=(0.0, 0.0, -4.0))
    for s in (0.15, 0.25, 0.35):
        gaps = gap_sequence(spec, s, [100, 200, 400])
        ex = extrapolate_gap([100, 200, 400], gaps)
        d1 = gaps_at(spec, s).delta1
        assert abs(ex - d1) / d1 < 0.02


def test_pseudo_orthonormality(rng):
    # the rows of eigvecs are left eigenvectors of E with unit indefinite
    # norm; s = 0 is the degenerate pair delta1 = delta2 = 2
    spec = ModelSpec.dense(xi=(1.5, -2.0, -3.0))
    for s in (0.0, 0.2, 0.45, 0.75):
        st = global_minimize(spec, s)
        F = fluctuation_matrix(spec, st)
        g = excitation_gaps(F)
        if s == 0.0:
            assert g.delta1 == pytest.approx(g.delta2, abs=1e-12)
        for psi, delta in zip(g.eigvecs, (g.delta1, g.delta2)):
            assert np.abs(F.T @ psi - 0.25 * delta * psi).max() < 1e-10
        u = g.eigvecs[:, :2]
        v = g.eigvecs[:, 2:]
        for a in range(2):
            assert abs(np.linalg.norm(u[a]) ** 2 - np.linalg.norm(v[a]) ** 2 - 1) < 1e-8
        assert abs(u[1].conj() @ u[0] - v[1].conj() @ v[0]) < 1e-8
        for a in range(2):
            for b in range(2):
                assert abs(u[a] @ v[b] - v[a] @ u[b]) < 1e-8


def test_excitation_gaps_general_positive_form(rng):
    # a mode matrix with a non-diagonal A - B takes the full Cholesky path;
    # E's positive eigenvalues are the frequencies and the rows of eigvecs
    # are its left eigenvectors with unit indefinite norm
    for _ in range(50):
        X, Y = rng.standard_normal((2, 2, 2))
        P, Q = X @ X.T + 0.1 * np.eye(2), Y @ Y.T + 0.1 * np.eye(2)
        A, B = (P + Q) / 2.0, (P - Q) / 2.0
        E = np.block([[A, B], [-B, -A]])
        g = excitation_gaps(E)
        w = np.sort(np.linalg.eigvals(E).real)[2:]
        assert np.allclose([g.delta1, g.delta2], 4.0 * w, rtol=1e-10, atol=1e-12)
        for psi, delta in zip(g.eigvecs, (g.delta1, g.delta2)):
            assert np.abs(E.T @ psi - 0.25 * delta * psi).max() < 1e-9 * max(1.0, delta)
            assert abs(psi[:2] @ psi[:2] - psi[2:] @ psi[2:] - 1.0) < 1e-9
        u, v = g.eigvecs[:, :2], g.eigvecs[:, 2:]
        assert abs(u[1] @ u[0] - v[1] @ v[0]) < 1e-9


def test_instability_detected():
    # mu smaller than the off-diagonal pairing makes the mode frequencies
    # imaginary, the signature of an unstable expansion point
    M = np.diag([0.1, 0.1])
    Z = np.diag([0.3, 0.3])
    with pytest.raises(InstabilityError):
        excitation_gaps(np.block([[M, Z], [-Z, -M]]))


def test_zero_mode_rejected():
    # exactly critical mode: eigenvector norm vanishes in the indefinite metric
    M = np.diag([0.2, 0.5])
    Z = np.diag([0.2, 0.0])
    with pytest.raises(DegenerateModeError):
        excitation_gaps(np.block([[M, Z], [-Z, -M]]))


def test_gap_profile_continuity_and_jump():
    grid = np.linspace(0.0, 1.0, 201)
    prof = gap_profile(ModelSpec.dense(xi=(0.0, 0.0, -4.0)), grid)
    d1 = np.array([p.delta1 for p in prof])
    d2 = np.array([p.delta2 for p in prof])
    assert not np.any([p.delta1 is None for p in prof])
    assert np.abs(np.diff(d1)).max() < 0.06
    assert np.abs(np.diff(d2)).max() < 0.08
    prof0 = gap_profile(ModelSpec.dense(), grid)
    d2 = np.array([p.delta2 for p in prof0])
    jumps = np.abs(np.diff(d2))
    k = int(np.argmax(jumps))
    assert jumps[k] > 0.1
    assert 0.70 < grid[k] < 0.74


def test_gap_profile_flags_degenerate_point():
    # nothing acts on a cluster at s=0 when its schedule is pinned high;
    # the zero mode must surface as a marker, not a crash or a drop
    for pinned in ("gamma1", "gamma2"):
        prof = gap_profile(ModelSpec.dense(**{pinned: 1.0}), [0.0, 0.1])
        assert prof[0].delta1 is None and prof[0].flag == "degenerate"
        assert prof[1].delta1 is not None and prof[1].flag == ""


def test_gap_profile_reads_the_checked_grid():
    # the grid rule of every branch pass: sorted distinct points, and a
    # ValueError on an empty or non-finite grid
    spec = ModelSpec.dense(xi=(0.0, 0.0, -4.0))
    prof = gap_profile(spec, [0.5, 0.1, 0.5])
    assert [p.s for p in prof] == [0.1, 0.5]
    assert prof == gap_profile(spec, [0.1, 0.5])
    for grid, message in (([], "at least one point"), ([0.1, float("nan")], "finite")):
        with pytest.raises(ValueError, match=message):
            gap_profile(spec, grid)


def test_gap_profile_is_one_branch_pass(monkeypatch):
    # the profile is the equilibrium of one analyze pass, whose two sweep
    # starts are its only global solves
    solves = count_calls(monkeypatch, "global_minimize", transitions, spinwave)
    analyses = count_calls(monkeypatch, "analyze", spinwave)
    gap_profile(ModelSpec.dense(xi=(0.0, 0.0, -4.0)), np.linspace(0.0, 1.0, 101))
    assert len(analyses) == 1
    assert len(solves) <= 2


def test_gap_profile_rejects_sparse_before_any_solve(monkeypatch):
    solves = count_calls(monkeypatch, "solve_saddle", transitions, saddle)
    starts = count_calls(monkeypatch, "global_saddle", transitions)
    with pytest.raises(ValueError, match="dense"):
        gap_profile(ModelSpec.sparse(), np.linspace(0.0, 1.0, 21))
    assert solves == [] and starts == []


def test_min_gap_single_point():
    spec = ModelSpec.dense(xi=(0.0, 0.0, -4.0))
    s, d, state = min_gap(spec, [0.5])
    assert s == 0.5 and state.s == 0.5
    assert d == pytest.approx(gaps_at(spec, 0.5).delta1)


def test_min_gap_raises_with_no_gap_on_the_grid():
    # the one grid point is s = 0 with the strong cluster pinned at gamma = 1:
    # flagged degenerate, so there is no gap to minimize
    with pytest.raises(InstabilityError, match="gap undefined on the whole grid"):
        min_gap(ModelSpec.dense(gamma1=1.0), [0.0])


def test_golden_section_on_quadratic():
    x, f = _minimize_scalar(lambda t: (t - 0.37) ** 2 + 1.0, 0.0, 1.0, 1e-7)
    assert abs(x - 0.37) < 1e-6
    assert f == pytest.approx(1.0, abs=1e-10)


def test_minimize_scalar_converges_superlinearly_on_a_quadratic():
    # golden section alone takes 36 evaluations here
    calls = []

    def f(t):
        calls.append(t)
        return (t - 0.37) ** 2 + 1.0

    x, _ = _minimize_scalar(f, 0.0, 1.0, 1e-7)
    assert abs(x - 0.37) < 1e-7
    assert len(calls) <= 8


def _traced_minimize_scalar(f, lo, hi, tol):
    """(x, f(x), evaluated points) of one _minimize_scalar run, after the
    contract every caller relies on: x is an evaluated point, no point is
    evaluated twice and none lies outside [lo, hi]."""
    calls = []

    def traced(t):
        calls.append(t)
        return f(t)

    x, fx = _minimize_scalar(traced, lo, hi, tol)
    assert x in calls and fx == f(x)
    assert len(calls) == len(set(calls))
    assert all(lo <= t <= hi for t in calls)
    return x, fx, calls


@pytest.mark.parametrize("tol", [1e-3, 1e-7, 1e-300])
def test_minimize_scalar_on_a_kink(tol):
    x, _, calls = _traced_minimize_scalar(lambda t: abs(t - 0.37), 0.0, 1.0, tol)
    assert abs(x - 0.37) <= max(tol, 1e-15)
    assert len(calls) < 200


@pytest.mark.parametrize("sign, edge", [(1.0, 0.0), (-1.0, 1.0)])
@pytest.mark.parametrize("tol", [1e-3, 1e-7])
def test_minimize_scalar_monotone_ends_at_the_edge(sign, edge, tol):
    x, _, _ = _traced_minimize_scalar(lambda t: sign * t, 0.0, 1.0, tol)
    assert abs(x - edge) <= tol


@pytest.mark.parametrize("tol", [1e-3, 1e-300])
def test_minimize_scalar_ends_on_a_constant(tol):
    _, fx, calls = _traced_minimize_scalar(lambda t: 2.0, -5.0, -3.0, tol)
    assert fx == 2.0 and len(calls) < 100


def test_minimize_scalar_probes_stay_in_the_bracket():
    # kinks, flat steps and several local minima on brackets of either sign
    rng = np.random.default_rng(7)
    objectives = [lambda t, c: (t - c) ** 2, lambda t, c: abs(t - c),
                  lambda t, c: float(np.floor((t - c) * 1e3)) ** 2,
                  lambda t, c: float(np.sin(7.0 * t + c))]
    for f in objectives:
        for c, lo, tol in zip(rng.uniform(-6.0, 2.0, 20), rng.uniform(-5.0, 0.0, 20),
                              10.0 ** rng.uniform(-12.0, -1.0, 20)):
            _traced_minimize_scalar(lambda t: f(t, c), float(lo), float(lo) + 1.5, float(tol))


def test_golden_section_ends_below_the_float_spacing():
    calls = []

    def f(t):
        calls.append(t)
        return (t + 4.0) ** 2

    x, _ = _minimize_scalar(f, -5.0, -3.0, 1e-300)
    assert len(calls) < 100
    assert abs(x + 4.0) < 1e-12


def test_minimize_scalar_floors_a_tiny_tol_at_the_bracket_spacing():
    # with no floor, t*t on [-1, 1] at tol=1e-300 took 980 evaluations:
    # near 0 the step floor of a few ulp(x) shrinks with x
    x, _, calls = _traced_minimize_scalar(lambda t: t * t, -1.0, 1.0, 1e-300)
    assert len(calls) <= 100
    assert abs(x) <= 4.0 * math.ulp(1.0)


@pytest.mark.parametrize("x_min", [-4.0, -3.7, -3.0000001])
def test_golden_section_evaluates_each_point_once(x_min):
    # below the float spacing of the bracket the last probe used to land on
    # a point already evaluated (74 calls on 73 distinct x)
    calls = []

    def f(t):
        calls.append(t)
        return (t - x_min) ** 2

    x, _ = _minimize_scalar(f, -5.0, -3.0, 1e-300)
    assert len(calls) == len(set(calls))
    assert abs(x - x_min) < 1e-12


def test_optimize_catalyst_ends_below_the_float_spacing():
    evals = []

    def family(xi):
        evals.append(xi)
        return ModelSpec.dense(xi=(0.0, 0.0, xi))

    optimize_catalyst(family, (-4.3, -3.7), tol_xi=1e-16, s_grid=np.linspace(0.0, 1.0, 5))
    assert len(evals) < 100
    # a numpy scalar xi would run every solve of the spec on numpy scalars
    assert all(type(xi) is float for xi in evals)


def test_golden_section_rejects_nonpositive_tol():
    # `while b - a > tol` would never end
    for tol in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            _minimize_scalar(lambda t: t * t, -1.0, 1.0, tol)

    def family(xi):
        raise AssertionError("tol is checked before any xi is evaluated")

    with pytest.raises(ValueError, match="tol must be positive"):
        optimize_catalyst(family, (-5.0, -3.0), tol_xi=0.0)


def test_min_gap_positive_in_window():
    s, d, _ = min_gap(ModelSpec.dense(xi=(0.0, 0.0, -4.0)), np.linspace(0, 1, 101))
    assert d > 0.2
    assert 0.4 < s < 0.6


def test_optimize_catalyst_range_error():
    def family(xi):
        return ModelSpec.dense(xi=(0.0, 0.0, xi))

    with pytest.raises(CatalystRangeError) as err:
        optimize_catalyst(family, (-1.0, 0.0), s_grid=np.linspace(0, 1, 51))
    assert err.value.xi is not None


def test_optimize_catalyst_degenerate_range():
    def family(xi):
        return ModelSpec.dense(xi=(0.0, 0.0, xi))

    xi, gap = optimize_catalyst(family, (-4.0, -4.0), s_grid=np.linspace(0, 1, 51))
    assert xi == -4.0
    assert gap > 0.2


def _reference_min_gap(spec, s_grid, tol_s=1e-5):
    """min_gap by per-point global solves: the grid minimum of the gaps on
    one global solve per point, then a Brent refinement over gaps_at in
    the bracket around it."""
    d1 = [gap_or_flag(spec, global_minimize(spec, float(s)))[0] for s in s_grid]
    i_min, best = min(((i, d) for i, d in enumerate(d1) if d is not None),
                      key=lambda id_: id_[1])
    lo, hi = s_grid[max(i_min - 1, 0)], s_grid[min(i_min + 1, len(s_grid) - 1)]
    s, d = _minimize_scalar(lambda x: gaps_at(spec, float(x)).delta1, lo, hi, tol_s)
    return (float(s_grid[i_min]), best) if best < d else (s, d)


@pytest.mark.parametrize("xi12, steps", [(-10.0, 41), (-6.0, 41), (-4.0, 41), (0.0, 41),
                                         (4.0, 41), (-9.0, 11), (-7.25, 41),
                                         (-5.0, 11), (-3.0, 11)])
def test_min_gap_matches_per_point_global_solves(xi12, steps):
    # xi12 = -10, -9, -7.25, -6 and 0 are transition columns.  At -9 on 11
    # points warm probes from either bracket end alone leave the equilibrium
    # branch, and at -7.25 on 41 points those from the high-s end do, so the
    # lower-energy pick of both is what matches the global solves
    spec = ModelSpec.dense(xi=(0.0, 0.0, xi12))
    grid = np.linspace(0.0, 1.0, steps)
    s, d, state = min_gap(spec, grid)
    assert state.s == s and excitation_gaps(fluctuation_matrix(spec, state)).delta1 == d
    s_ref, d_ref = _reference_min_gap(spec, grid)
    assert abs(s - s_ref) <= 1e-7
    assert abs(d - d_ref) <= 1e-9


def test_min_gap_solve_count(monkeypatch):
    # the two sweep starts; the profile and the refinement probes are warm
    solves = count_calls(monkeypatch, "global_minimize", transitions, spinwave)
    min_gap(ModelSpec.dense(xi=(0.0, 0.0, -4.0)), np.linspace(0.0, 1.0, 101))
    assert len(solves) == 2


def test_min_gap_refinement_probe_count(monkeypatch):
    # every probe is two warm solves, one from each end of the grid
    # bracket; golden section made 23 probes here
    warm = count_calls(monkeypatch, "minimize", transitions)
    analyze = spinwave.analyze

    def analyze_then_count(*args, **kwargs):
        analysis = analyze(*args, **kwargs)
        warm.clear()
        return analysis

    monkeypatch.setattr(spinwave, "analyze", analyze_then_count)
    min_gap(ModelSpec.dense(xi=(0.0, 0.0, -4.0)), np.linspace(0.0, 1.0, 11))
    assert len(warm) % 2 == 0
    assert 0 < len(warm) // 2 <= 12


def test_optimize_catalyst_solve_count(monkeypatch):
    solves = count_calls(monkeypatch, "global_minimize", transitions, spinwave)
    analyses = count_calls(monkeypatch, "analyze", spinwave)
    evals = []

    def family(xi):
        evals.append(xi)
        return ModelSpec.dense(xi=(0.0, 0.0, xi))

    optimize_catalyst(family, (-5.0, -3.0), tol_xi=0.2, s_grid=np.linspace(0.0, 1.0, 11))
    assert len(evals) > 2
    assert len(evals) <= 6
    assert len(analyses) == len(evals)
    assert len(solves) == 2 * len(evals)


def test_min_gap_collapsed_and_descending_grids():
    spec = ModelSpec.dense(xi=(0.0, 0.0, -4.0))
    assert min_gap(spec, [0.5, 0.5])[:2] == min_gap(spec, [0.5])[:2]
    s, d, _ = min_gap(spec, [0.6, 0.5, 0.4])
    s_ref, d_ref, _ = min_gap(spec, [0.4, 0.5, 0.6])
    assert s == s_ref and d == d_ref


def test_min_gap_warning_points_at_caller():
    # the weak cluster is degenerate at s = 0 with gamma2 pinned high
    with pytest.warns(UserWarning, match="gap undefined at some grid points") as record:
        min_gap(ModelSpec.dense(gamma2=1.0), [0.0, 0.1, 0.2])
    assert record[0].filename == __file__
