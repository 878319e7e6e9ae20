import math

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from meanfield_annealer import (ConvergenceError, MagPair, ModelSpec,
                                dense_energy_density,
                                dense_gradient, dense_hessian,
                                detect_transition, global_minimize, minimize,
                                start_set, sweep)
from meanfield_annealer import classical, model, transitions
from meanfield_annealer.classical import is_stable_minimum
from meanfield_annealer.ed import dense_ed
from conftest import assert_same_verdict, assert_width_within_two_steps, count_calls

UP = np.array([0.0, 0.0, 1.0])
DOWN = np.array([0.0, 0.0, -1.0])
XHAT = np.array([1.0, 0.0, 0.0])


def test_minimize_transverse_start(dense_spec):
    st = minimize(dense_spec, 0.0, MagPair(XHAT, XHAT))
    assert np.allclose(st.m.m1, XHAT, atol=1e-8)
    assert np.allclose(st.m.m2, XHAT, atol=1e-8)
    assert st.energy == pytest.approx(-1.0, abs=1e-12)
    assert st.residual < 1e-10


def test_minimize_final_basins(dense_spec):
    a = minimize(dense_spec, 1.0, MagPair([0.1, 0, 0.99], [0.1, 0, 0.99]))
    assert a.m.m1[2] == pytest.approx(1.0, abs=1e-9)
    assert a.m.m2[2] == pytest.approx(1.0, abs=1e-9)
    assert a.energy == pytest.approx(-1.005, abs=1e-12)
    assert a.mu[0] == pytest.approx(1.25, abs=1e-9)
    assert a.mu[1] == pytest.approx(0.505, abs=1e-9)
    b = minimize(dense_spec, 1.0, MagPair([0.1, 0, 0.99], [0.1, 0, -0.99]))
    assert b.m.m2[2] == pytest.approx(-1.0, abs=1e-9)
    assert b.energy == pytest.approx(-0.995, abs=1e-12)
    assert b.residual < 1e-10


def test_minimize_state_invariants(dense_spec, rng):
    for _ in range(20):
        s = rng.uniform(0, 1)
        xi = tuple(rng.uniform(-5, 5, 3))
        spec = ModelSpec.dense(xi=xi)
        init = MagPair(rng.standard_normal(3), rng.standard_normal(3))
        st = minimize(spec, s, init)
        n1, n2 = st.m.norms()
        assert abs(n1 - 1) < 1e-10 and abs(n2 - 1) < 1e-10
        assert st.residual < 1e-8
        assert is_stable_minimum(spec, st)
        # Lagrange multipliers are defined by the gradient projection
        g1, g2 = dense_gradient(spec, s, st.m)
        assert st.mu[0] == pytest.approx(-float(g1 @ st.m.m1), abs=1e-12)
        assert st.mu[1] == pytest.approx(-float(g2 @ st.m.m2), abs=1e-12)
        # no y component develops at a minimum of a y-free energy
        assert abs(st.m.m1[1]) < 1e-8
        assert abs(st.m.m2[1]) < 1e-8


def test_minimize_pure_y_start(dense_spec):
    # a start with no xz component projects to the angles (0, 0)
    st = minimize(dense_spec, 0.5, MagPair([0.0, 1.0, 0.0], [0.0, 1.0, 0.0]))
    assert st.energy == pytest.approx(-0.690426548471, abs=1e-12)
    assert st.m.m1[1] == 0.0 and st.m.m2[1] == 0.0


def test_state_m_is_built_from_the_angles(rng):
    for _ in range(20):
        spec = ModelSpec.dense(xi=tuple(rng.uniform(-5, 5, 3)))
        st = global_minimize(spec, rng.uniform(0, 1))
        m = st.m
        assert m.is_unit(1e-15)
        assert m.m1[1] == 0.0 and m.m2[1] == 0.0
        assert np.float64(st.m2z).tobytes() == m.m2[2].tobytes()
        assert (m.m1[0], m.m1[2]) == (math.sin(st.t1), math.cos(st.t1))


def test_minimize_continues_from_a_state_as_from_its_magnetizations(rng):
    for _ in range(20):
        spec = ModelSpec.dense(xi=tuple(rng.uniform(-5, 5, 3)))
        prev = global_minimize(spec, rng.uniform(0.05, 1))
        s = min(prev.s + 0.01, 1.0)
        a = minimize(spec, s, prev)
        b = minimize(spec, s, prev.m)
        assert a.energy == pytest.approx(b.energy, abs=1e-12)
        for ta, tb in ((a.t1, b.t1), (a.t2, b.t2)):
            assert np.sin(ta) == pytest.approx(np.sin(tb), abs=1e-12)
            assert np.cos(ta) == pytest.approx(np.cos(tb), abs=1e-12)


def test_warm_dense_pass_takes_no_angles_from_magnetizations(monkeypatch):
    spec = ModelSpec.dense(xi=(0.0, 0.0, -4.0))
    grid = np.linspace(0.0, 1.0, 21)
    transitions.analyze(spec, grid)   # fills the cached start angles
    calls = count_calls(monkeypatch, "_angles", classical)
    transitions.analyze(spec, grid)
    assert calls == []


def _reference_newton(spec, s, initial, max_iter=200, tol=1e-10):
    """The same damped Newton on numpy arrays: angle gradient T^T g and
    Hessian T^T H T + diag(mu) from a 6x2 tangent map, eigh of the 2x2.
    Returns (angles, energy, mu)."""
    hess = dense_hessian(spec, s)

    def unit(t):
        return np.array([np.sin(t), 0.0, np.cos(t)])

    def terms(th):
        m = MagPair(unit(th[0]), unit(th[1]))
        g1, g2 = dense_gradient(spec, s, m)
        T = np.zeros((6, 2))
        T[0:3, 0] = np.cos(th[0]), 0.0, -np.sin(th[0])
        T[3:6, 1] = np.cos(th[1]), 0.0, -np.sin(th[1])
        mu = np.array([-(g1 @ m.m1), -(g2 @ m.m2)])
        return (dense_energy_density(spec, s, m), T.T @ np.concatenate([g1, g2]),
                T.T @ hess @ T + np.diag(mu), mu)

    th = np.array([np.arctan2(initial.m1[0], initial.m1[2]),
                   np.arctan2(initial.m2[0], initial.m2[2])])
    for _ in range(max_iter):
        energy, grad, h, _ = terms(th)
        if np.max(np.abs(grad)) < 0.01 * tol:
            break
        w, v = np.linalg.eigh(h)
        step = -v @ ((v.T @ grad) / np.maximum(np.abs(w), 1e-8))
        n = np.linalg.norm(step)
        if n > 0.5:
            step *= 0.5 / n
        slack = 4 * np.finfo(float).eps * max(1.0, abs(energy))
        for _ in range(60):
            trial = th + step
            if dense_energy_density(spec, s, MagPair(unit(trial[0]), unit(trial[1]))) \
                    <= energy + slack:
                break
            step *= 0.5
        th = trial
    energy, _, _, mu = terms(th)
    return th, energy, mu


def test_minimize_matches_reference_newton():
    rng = np.random.default_rng(77)
    cases = [(0.0, 0.0, 0.0, 0.0, MagPair(rng.standard_normal(3), rng.standard_normal(3))),
             (1.5, -2.0, -4.0, 0.0, MagPair(XHAT, UP)),
             (0.0, 0.0, -4.0, 0.5, MagPair([0.0, 1.0, 0.0], [0.0, 1.0, 0.0])),
             (0.0, 0.0, 0.0, 1.0, MagPair(DOWN, UP))]
    for _ in range(40):
        cases.append((*rng.uniform(-6.0, 6.0, 3), float(rng.uniform(0.0, 1.0)),
                      MagPair(rng.standard_normal(3), rng.standard_normal(3))))
    for xi11, xi22, xi12, s, init in cases:
        spec = ModelSpec.dense(xi=(xi11, xi22, xi12))
        st = minimize(spec, s, init)
        th, energy, mu = _reference_newton(spec, s, init)
        angles = np.arctan2([st.m.m1[0], st.m.m2[0]], [st.m.m1[2], st.m.m2[2]])
        assert np.abs(np.angle(np.exp(1j * (angles - th)))).max() < 1e-12, (xi11, xi22, xi12, s)
        assert st.energy == pytest.approx(energy, abs=1e-12)
        assert np.abs(np.array(st.mu) - mu).max() < 1e-12


def test_is_stable_minimum_rejects_saddle(dense_spec):
    # at s=1 the axis states are stationary; (down, up) has mu1 = -0.25
    st = minimize(dense_spec, 1.0, MagPair(DOWN, UP))
    assert np.allclose(st.m.m1, DOWN) and np.allclose(st.m.m2, UP)
    assert st.mu[0] == pytest.approx(-0.25, abs=1e-12)
    assert not is_stable_minimum(dense_spec, st)
    assert is_stable_minimum(dense_spec, minimize(dense_spec, 1.0, MagPair(UP, UP)))


def test_minimize_nonconvergence_carries_best(monkeypatch, dense_spec):
    # an unreachable tolerance must surface as a ConvergenceError with the
    # best iterate attached
    monkeypatch.setattr(classical, "_TOL", 1e-300)
    with pytest.raises(ConvergenceError) as err:
        minimize(dense_spec, 0.5, MagPair([0.3, 0.5, 0.8], [-0.4, 0.2, 0.9]))
    assert err.value.best is not None
    assert err.value.best.m.is_unit(1e-9)


def test_global_minimize_raises_with_the_last_unconverged_start(monkeypatch, dense_spec):
    # with no Newton iteration every start stays where it began, off the
    # stationary set at s = 0.5: the error carries the last start's state
    monkeypatch.setattr(classical, "_MAX_ITER", 0)
    with pytest.raises(ConvergenceError, match="all 8 starts failed to converge") as err:
        global_minimize(dense_spec, 0.5)
    best = err.value.best
    assert (best.t1, best.t2) == classical._start_angles(8, 0)[-1]
    assert best.s == 0.5 and not best.converged


_CARRIED_SPECS = [ModelSpec.dense(), ModelSpec.dense(xi=(0.0, 0.0, -4.0)),
                  ModelSpec.dense(xi=(-6.0, 0.0, 0.0)), ModelSpec.dense(xi=(1.5, -2.0, -10.0)),
                  ModelSpec.dense(gamma2=1.0), ModelSpec.dense(xi=(0.0, 0.0, -4.0), gamma1=0.5)]


def _fresh(spec, state):
    """(energy, mu, residual) from one new kernel evaluation at the state's angles."""
    k = tuple(model._coeffs(spec, state.s))
    x1, z1, x2, z2 = state.x
    g1x, g1z, g2x, g2z = model._grad(k, x1, z1, x2, z2)
    mu1, mu2 = -(g1x * x1 + g1z * z1), -(g2x * x2 + g2z * z2)
    res = max(math.hypot(g1x + mu1 * x1, g1z + mu1 * z1),
              math.hypot(g2x + mu2 * x2, g2z + mu2 * z2))
    return model._energy(k, x1, z1, x2, z2), (mu1, mu2), res


def _state_or_best(solve, *args):
    try:
        return solve(*args)
    except ConvergenceError as err:
        return err.best


@pytest.mark.parametrize("max_iter", [None, 1, 0])
def test_newton_state_is_its_own_angles_evaluated_afresh(monkeypatch, max_iter):
    # _newton carries the accepted trial's energy and reads the stopping
    # iteration's gradient; every float it returns must be what a fresh
    # evaluation at the returned angles gives, bitwise, also when the
    # iteration budget runs out after a step (max_iter 1) or before any (0)
    if max_iter is not None:
        monkeypatch.setattr(classical, "_MAX_ITER", max_iter)
    rng = np.random.default_rng(5)
    starts = start_set(8) + [MagPair(rng.standard_normal(3), rng.standard_normal(3))
                             for _ in range(3)]
    checked = 0
    for spec in _CARRIED_SPECS:
        for s in (0.0, 0.3, 0.5, 0.72, 1.0):
            states = [_state_or_best(minimize, spec, s, start) for start in starts]
            states.append(_state_or_best(global_minimize, spec, s))
            for state in states:
                assert (state.energy, state.mu, state.residual) == _fresh(spec, state), \
                    (spec, s, max_iter)
                checked += 1
    assert checked == len(_CARRIED_SPECS) * 5 * (len(starts) + 1)


def test_global_minimize_picks_lowest(dense_spec):
    st = global_minimize(dense_spec, 1.0)
    assert st.energy == pytest.approx(-1.005, abs=1e-12)
    assert st.m.m2[2] > 0.9
    with pytest.raises(ValueError):
        global_minimize(dense_spec, 1.0, n_starts=4)


def test_global_minimize_matches_sector_oracle(dense_spec):
    # finite-size agreement away from the transition; the weak-cluster
    # deviation at s=0.5 is 2.4e-2 at N=200 (steep m2z slope there)
    st = global_minimize(dense_spec, 0.5)
    ref = dense_ed(dense_spec, 0.5, 200)
    assert st.m.m1[2] > 0 > st.m.m2[2]
    assert abs(st.m.m1[2] - ref.m1z) < 5e-2
    assert abs(st.m.m2[2] - ref.m2z) < 5e-2
    for s in (0.2, 0.8):
        st = global_minimize(dense_spec, s)
        ref = dense_ed(dense_spec, s, 200)
        assert abs(st.m.m2[2] - ref.m2z) < 5e-2


def test_global_minimize_stationary_with_catalyst():
    st = global_minimize(ModelSpec.dense(xi=(0.0, 0.0, -4.0)), 0.5)
    assert st.residual < 1e-8


def test_global_minimize_refinement_monotone(rng):
    for s in (0.3, 0.6, 0.9):
        spec = ModelSpec.dense(xi=(0.0, 0.0, -2.0))
        e8 = global_minimize(spec, s, n_starts=8).energy
        e64 = global_minimize(spec, s, n_starts=64).energy
        assert e64 <= e8 + 1e-12


def _torus_grid_minimum(spec, s, n=128):
    """Brute-force minimum over (theta1, theta2): every periodic-grid local
    minimum polished by Nelder-Mead, lowest energy returned."""
    zero = MagPair(np.zeros(3), np.zeros(3))
    e0 = dense_energy_density(spec, s, zero)
    g0 = np.concatenate(dense_gradient(spec, s, zero))
    hess = dense_hessian(spec, s)

    def energy(th1, th2):
        # the energy is quadratic in (m1, m2), so this expansion is exact
        z = np.zeros_like(th1)
        m = np.stack([np.sin(th1), z, np.cos(th1), np.sin(th2), z, np.cos(th2)], -1)
        return e0 + m @ g0 + 0.5 * ((m @ hess) * m).sum(-1)

    th = 2 * np.pi * np.arange(n) / n
    grid = energy(*np.meshgrid(th, th, indexing="ij"))
    local = np.ones_like(grid, dtype=bool)
    for d1 in (-1, 0, 1):
        for d2 in (-1, 0, 1):
            if d1 or d2:
                local &= grid <= np.roll(grid, (d1, d2), axis=(0, 1))
    best = np.inf
    for i, j in zip(*np.nonzero(local)):
        out = scipy_minimize(lambda t: energy(t[0], t[1]), [th[i], th[j]],
                             method="Nelder-Mead",
                             options={"xatol": 1e-9, "fatol": 1e-15})
        best = min(best, float(out.fun))
    return best


@pytest.mark.parametrize("seed", [0, 3])
def test_global_minimize_matches_torus_grid(seed):
    rng = np.random.default_rng(1000 + seed)
    for _ in range(100):
        xi = tuple(rng.uniform(-6.0, 6.0, 3))
        s = float(rng.uniform(0.0, 1.0))
        spec = ModelSpec.dense(xi=xi)
        st = global_minimize(spec, s, seed=seed)
        ref = _torus_grid_minimum(spec, s)
        assert st.energy == pytest.approx(ref, abs=1e-10), (xi, s)


def test_start_set_prefix_property():
    s8 = start_set(8, seed=3)
    s64 = start_set(64, seed=3)
    for a, b in zip(s8, s64):
        assert np.array_equal(a.m1, b.m1) and np.array_equal(a.m2, b.m2)
    assert len(start_set(8)) == 8 and len(start_set(64)) == 64


def test_sweep_single_point(dense_spec):
    res = sweep(dense_spec, [0.4])
    assert len(res) == 1
    assert res[0].s == 0.4


def test_sweep_hysteresis_structure(dense_spec):
    grid = np.linspace(0.0, 1.0, 101)
    fwd = sweep(dense_spec, grid, forward=True)
    bwd = sweep(dense_spec, grid, forward=False)
    s_fwd = np.array([st.s for st in fwd])
    s_bwd = np.array([st.s for st in bwd])
    assert np.all(np.diff(s_fwd) > 0)
    assert np.all(np.diff(s_bwd) < 0)
    # the forward sweep holds the weak-down branch past the energy crossing
    m2f = {st.s: st.m2z for st in fwd}
    m2b = {st.s: st.m2z for st in bwd}
    s_star = 0.7189
    past = min(g for g in grid if g > s_star + 0.02)
    assert m2f[past] < 0 < m2b[past]


def test_sweep_agreement_without_transition():
    spec = ModelSpec.dense(xi=(0.0, 0.0, -4.0))
    grid = np.linspace(0.0, 1.0, 51)
    fwd = sweep(spec, grid, forward=True)
    bwd = sweep(spec, grid, forward=False)[::-1]
    for f, b in zip(fwd, bwd):
        assert abs(f.m2z - b.m2z) < 1e-6
        assert abs(f.energy - b.energy) < 1e-9


def test_detect_transition_baseline(dense_spec):
    rep = detect_transition(dense_spec)
    assert rep.found
    assert rep.jump_m2z > 0.5
    assert 0.71 < rep.s_star < 0.73
    assert rep.hysteresis_width > 0.1


def test_detect_transition_removed_window():
    rep = detect_transition(ModelSpec.dense(xi=(0.0, 0.0, -4.0)))
    assert not rep.found
    assert rep.jump_m2z < 0.5


def test_detect_transition_on_subrange_grids(dense_spec):
    rep = detect_transition(dense_spec, np.linspace(0.5, 0.9, 41))
    assert rep.found
    assert 0.71 < rep.s_star < 0.73
    rep = detect_transition(dense_spec, np.linspace(0.0, 0.4, 41))
    assert not rep.found
    assert rep.jump_m2z < 0.05


@pytest.mark.parametrize("xi, coarse, fine", [
    ((0.0, 0.0, -10.0), 11, 101),
    ((-6.0, 0.0, 0.0), 21, 101),   # steep crossover, no transition
    ((0.0, 0.0, -6.0), 101, 401),  # the jump sits just past a grid point
], ids=["xi12=-10", "xi11=-6", "xi12=-6"])
def test_detect_transition_verdict_independent_of_grid(xi, coarse, fine):
    spec = ModelSpec.dense(xi=xi)
    assert_same_verdict(detect_transition(spec, np.linspace(0.0, 1.0, coarse)),
                        detect_transition(spec, np.linspace(0.0, 1.0, fine)))


def test_hysteresis_width_independent_of_grid():
    # fig2 xi12 = -8: near s = 0.7 the forward branch moves about 0.05 in
    # m2z per 201-point step, more than COEXIST_TOL; the sweep must still
    # follow it to the end of the coexistence window
    spec = ModelSpec.dense(xi=(0.0, 0.0, -8.0))
    assert_width_within_two_steps(detect_transition(spec, np.linspace(0.0, 1.0, 201)),
                                  detect_transition(spec, np.linspace(0.0, 1.0, 401)), 201)


@pytest.mark.parametrize("xi", [-4.0, 4.0])
def test_detect_transition_total_catalyst(xi):
    rep = detect_transition(ModelSpec.dense(xi=(xi / 2, xi / 2, xi)))
    assert rep.found


def test_indeterminate_flag():
    spec = ModelSpec.dense(gamma2=1.0)
    st = minimize(spec, 0.0, MagPair(XHAT, UP))
    assert st.indeterminate == (False, True)
    spec = ModelSpec.dense(gamma1=1.0)
    st = minimize(spec, 0.0, MagPair(UP, XHAT))
    assert st.indeterminate == (True, False)
    st = minimize(ModelSpec.dense(), 0.0, MagPair(XHAT, XHAT))
    assert st.indeterminate == (False, False)
