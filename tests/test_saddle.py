from collections import Counter

import numpy as np
import pytest

from meanfield_annealer import (ConvergenceError, MagPair, ModelSpec,
                                build_effective_hamiltonian,
                                conjugate_fields, coupling_matrix,
                                detect_transition, global_saddle, ground_block,
                                solve_saddle, sparse_mean_field_density, sweep)
from meanfield_annealer import classical, cli, saddle
from meanfield_annealer.ed import sparse_ed
from meanfield_annealer.eigensolvers import jacobi_eigh
from meanfield_annealer.model import _coeffs, _field_map
from meanfield_annealer.saddle import _eigh, _ground, _hamiltonian, _newton_step, _response
from meanfield_annealer.transitions import analyze
from conftest import assert_same_verdict, assert_width_within_two_steps, count_calls

XHAT = [1.0, 0.0, 0.0]
ZERO = [0.0, 0.0, 0.0]
K0 = np.zeros((3, 3))


def test_effective_hamiltonian_transverse_pair():
    H = build_effective_hamiltonian((XHAT, XHAT), K0)
    w, V = np.linalg.eigh(H)
    assert np.allclose(w, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)
    lam0, g, m1, m2 = ground_block(H)
    assert np.allclose(m1, XHAT, atol=1e-9) and np.allclose(m2, XHAT, atol=1e-9)


def test_effective_hamiltonian_diagonal_case():
    K = np.zeros((3, 3))
    K[2, 2] = 0.5
    H = build_effective_hamiltonian(([0, 0, 2.0], [0, 0, 0.51]), K)
    diag = np.sort(np.real(np.diag(H)))
    assert np.allclose(diag, [-3.01, -0.99, 1.99, 2.01], atol=1e-12)
    assert np.abs(H - np.diag(np.diag(H))).max() < 1e-15
    lam0, g, m1, m2 = ground_block(H)
    assert lam0 == pytest.approx(-3.01, abs=1e-12)
    assert g == 1
    assert np.allclose(m1, [0, 0, 1], atol=1e-10)
    assert np.allclose(m2, [0, 0, 1], atol=1e-10)


def test_effective_hamiltonian_xx_only():
    K = np.zeros((3, 3))
    K[0, 0] = 0.7
    H = build_effective_hamiltonian((ZERO, ZERO), K)
    w = np.sort(np.linalg.eigvalsh(H))
    assert np.allclose(w, [-0.7, -0.7, 0.7, 0.7], atol=1e-12)


def test_effective_hamiltonian_hermitian_random(rng):
    for _ in range(20):
        mt = (rng.standard_normal(3), rng.standard_normal(3))
        K = rng.standard_normal((3, 3))
        H = build_effective_hamiltonian(mt, K)
        assert np.abs(H - H.conj().T).max() < 1e-12
        assert np.abs(np.linalg.eigvalsh(H).imag).max() == 0.0


def test_effective_hamiltonian_real_without_y_terms(rng):
    for _ in range(10):
        mt1 = rng.standard_normal(3)
        mt2 = rng.standard_normal(3)
        mt1[1] = mt2[1] = 0.0
        K = np.zeros((3, 3))
        K[0, 0], K[2, 2], K[0, 2], K[2, 0] = rng.standard_normal(4)
        H = build_effective_hamiltonian((mt1, mt2), K)
        assert np.abs(H.imag).max() < 1e-15


def test_ground_block_degenerate_cases():
    H = build_effective_hamiltonian((ZERO, ZERO), K0)
    lam0, g, m1, m2 = ground_block(H)
    assert lam0 == 0.0 and g == 4
    assert np.abs(m1).max() < 1e-12 and np.abs(m2).max() < 1e-12
    H = build_effective_hamiltonian((XHAT, ZERO), K0)
    lam0, g, m1, m2 = ground_block(H)
    assert g == 2
    assert np.allclose(m1, XHAT, atol=1e-10)
    assert np.abs(m2).max() < 1e-10


def test_conjugate_fields(sparse_spec):
    cf = conjugate_fields(sparse_spec, 0.0, MagPair(XHAT, XHAT))
    assert np.allclose(cf[0], XHAT, atol=1e-14)
    assert np.allclose(cf[1], XHAT, atol=1e-14)
    cf = conjugate_fields(sparse_spec, 1.0, MagPair([0, 0, 1], [0, 0, 1]))
    assert np.allclose(cf[0], [0, 0, 2.0], atol=1e-14)
    assert np.allclose(cf[1], [0, 0, 0.51], atol=1e-14)
    # no y terms in the mean-field energy, so y components never source fields
    cf = conjugate_fields(sparse_spec, 0.5, MagPair([0, 1, 0], [0, -1, 0]))
    assert cf[0][1] == 0.0 and cf[1][1] == 0.0


def test_conjugate_fields_rejects_dense(dense_spec):
    with pytest.raises(ValueError):
        conjugate_fields(dense_spec, 0.5, MagPair(XHAT, XHAT))


def test_solve_saddle_start_fixed_point(sparse_spec):
    sol = solve_saddle(sparse_spec, 0.0, MagPair(XHAT, XHAT), max_iter=2)
    assert sol.converged
    assert np.allclose(sol.m.m1, XHAT, atol=1e-10)
    assert sol.energy == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("kwargs", [
    {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")},
    {"max_iter": 0}, {"max_iter": -5},
], ids=["tol=0", "tol=-1", "tol=nan", "max_iter=0", "max_iter=-5"])
def test_solve_saddle_rejects_invalid_tol_and_max_iter(sparse_spec, kwargs):
    with pytest.raises(ValueError):
        solve_saddle(sparse_spec, 0.5, MagPair(XHAT, XHAT), **kwargs)
    if "tol" in kwargs:
        with pytest.raises(ValueError):
            global_saddle(sparse_spec, 0.5, tol=kwargs["tol"])


def test_unconverged_solve_stops_at_max_iter(monkeypatch):
    # five damped steps from the m2z < 0 init leave the residual far above
    # the Newton switch; the solve reports failure after exactly those five
    # eigensolves, each of the 4x4 effective Hamiltonian, and no Newton
    # response
    eighs = count_calls(monkeypatch, "_eigh", saddle)
    responses = count_calls(monkeypatch, "_response", saddle)
    sol = solve_saddle(ModelSpec.sparse(xi=(0.0, 0.0, -4.0)), 0.5,
                       MagPair([0, 0, 1], [0, 0, -1]), max_iter=5)
    assert not sol.converged
    assert sol.residual > 1e-2
    assert [a.shape for a, in eighs] == [(4, 4)] * 5
    assert responses == []


def test_global_saddle_raises_with_the_last_unconverged_solution(monkeypatch, sparse_spec):
    solve = saddle.solve_saddle
    returned = []

    def starved(spec, s, init, tol):
        returned.append(solve(spec, s, init, max_iter=2, tol=tol))
        return returned[-1]

    monkeypatch.setattr(saddle, "solve_saddle", starved)
    with pytest.raises(ConvergenceError, match="no saddle init converged") as err:
        global_saddle(sparse_spec, 0.5)
    assert len(returned) == len(saddle._SADDLE_INITS)
    assert not any(sol.converged for sol in returned)
    assert err.value.best is returned[-1]


def test_solve_saddle_final_energy(sparse_spec):
    sol = solve_saddle(sparse_spec, 1.0, MagPair([0.1, 0, 0.95], [0.1, 0, 0.95]))
    assert sol.converged
    assert sol.energy == pytest.approx(-1.005, abs=1e-9)
    assert sol.lambda0 == pytest.approx(-3.01, abs=1e-8)
    assert sol.degeneracy == 1


def test_solution_invariants(sparse_spec, rng):
    for s in (0.15, 0.4, 0.85):
        sol = global_saddle(sparse_spec, s)
        assert sol.converged
        assert sol.residual < 1e-9
        n1, n2 = sol.m.norms()
        assert n1 <= 1 + 1e-9 and n2 <= 1 + 1e-9
        # fixed point: expectations of the effective model reproduce m
        cf = conjugate_fields(sparse_spec, s, sol.m)
        H = build_effective_hamiltonian(cf, coupling_matrix(sparse_spec, s))
        _, _, e1, e2 = ground_block(H)
        assert np.abs(np.concatenate([e1 - sol.m.m1, e2 - sol.m.m2])).max() < 1e-9


def test_solution_m_and_fields_are_its_stored_floats(rng):
    for _ in range(20):
        xi = tuple(rng.uniform(-10, 10, 3))
        spec, s = ModelSpec.sparse(xi=xi), rng.uniform(0, 0.95)
        glob = global_saddle(spec, s)
        for sol in (glob, solve_saddle(spec, s + 0.01, glob)):
            assert all(type(v) is float for v in sol.x + sol.fields)
            x1, z1, x2, z2 = sol.x
            m = sol.m
            assert m.m1.tobytes() == np.array([x1, 0.0, z1]).tobytes()
            assert m.m2.tobytes() == np.array([x2, 0.0, z2]).tobytes()
            assert np.float64(sol.m2z).tobytes() == m.m2[2].tobytes()
            mt = conjugate_fields(spec, sol.s, m)
            assert sol.fields == (mt[0][0], mt[0][2], mt[1][0], mt[1][2])
        st = classical.global_minimize(ModelSpec.dense(xi=xi), s)
        m = st.m
        assert np.array(st.x).tobytes() == np.r_[m.m1[::2], m.m2[::2]].tobytes()


def test_sparse_pass_and_csv_rows_build_no_magpair(monkeypatch):
    spec, dense = ModelSpec.sparse(xi=(0.0, 0.0, -4.0)), ModelSpec.dense()
    grid = np.linspace(0.0, 1.0, 21)
    analyze(spec, grid)   # warm-up pass
    dense_state = classical.global_minimize(dense, 0.5)
    calls = count_calls(monkeypatch, "MagPair", saddle, classical)
    sol = analyze(spec, grid).equilibrium[10]
    cli._state_row(spec, 0.5, None, sol, "both", gaps=False)
    cli._state_row(dense, 0.5, None, dense_state, "both")
    assert calls == []


def test_global_saddle_deterministic(sparse_spec):
    a = global_saddle(sparse_spec, 0.5)
    b = global_saddle(sparse_spec, 0.5)
    assert a.energy == b.energy
    assert np.array_equal(a.m.m1, b.m.m1) and np.array_equal(a.m.m2, b.m.m2)


def test_saddle_matches_full_ed(sparse_spec):
    sol = global_saddle(sparse_spec, 0.2)
    ref = sparse_ed(sparse_spec, 0.2, 12)
    assert abs(sol.m2z - ref.m2z) < 0.1


def test_detect_sparse_baseline(sparse_spec):
    rep = detect_transition(sparse_spec, np.linspace(0, 1, 51))
    assert rep.found
    assert rep.jump_m2z > 0.5
    assert 0.70 < rep.s_star < 0.74


@pytest.mark.parametrize("xi12, coarse", [(4.0, 11), (-4.0, 21)])
def test_detect_sparse_verdict_independent_of_grid(xi12, coarse):
    spec = ModelSpec.sparse(xi=(0.0, 0.0, xi12))
    assert_same_verdict(detect_transition(spec, np.linspace(0.0, 1.0, coarse)),
                        detect_transition(spec, np.linspace(0.0, 1.0, 101)))


def test_sparse_hysteresis_width_independent_of_grid():
    # on 21 points the forward sweep must keep the m2z < 0 branch past
    # s = 0.5, where its m2z moves by about 0.1 per grid step, as it does
    # on 101 points
    spec = ModelSpec.sparse(xi=(0.0, 0.0, -4.0))
    coarse = detect_transition(spec, np.linspace(0.0, 1.0, 21))
    fine = detect_transition(spec, np.linspace(0.0, 1.0, 101))
    assert coarse.hysteresis_width > 0.0
    assert_width_within_two_steps(coarse, fine, 21)


def test_total_catalyst_s_star_at_sector_jump():
    # appC_sparse xi = -10: the sector-ED ground-state m2z jumps between
    # s = 0.160 and 0.165 at N = 40, 80 and 160; the backward sweep and the
    # bisection must stay on the high-s branch down to there
    rep = detect_transition(ModelSpec.sparse(xi=(-5.0, -5.0, -10.0)),
                            np.linspace(0.0, 1.0, 41))
    assert rep.found
    assert 0.155 <= rep.s_star <= 0.170


def test_detect_sparse_smooth_crossover_on_coarse_grid():
    # 11 points make the smooth xi12=8 crossover a large grid jump; the
    # bisection must close onto one branch instead of keeping that jump
    rep = detect_transition(ModelSpec.sparse(xi=(0.0, 0.0, 8.0)),
                            np.linspace(0.0, 1.0, 11))
    assert not rep.found
    assert np.isnan(rep.s_star)
    assert rep.jump_m2z < 0.05


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
@pytest.mark.parametrize("k", [7, 8], ids=["s=0.175", "s=0.2"])
def test_global_saddle_finds_the_sweep_equilibrium(k):
    # at xi = (-5, -5, -10), s = 0.175 and 0.2 every start of global_saddle
    # converges to the m2z ~ -0.75 branch, 0.0055 and 0.0150 above the
    # equilibrium the backward sweep holds; a kernel change that moved these
    # basins would make this pass, and the strict xfail would report it
    spec = ModelSpec.sparse(xi=(-5.0, -5.0, -10.0))
    grid = np.linspace(0.0, 1.0, 41)
    eq = analyze(spec, grid).equilibrium[k]
    assert abs(global_saddle(spec, grid[k]).energy - eq.energy) <= 1e-9


def test_saddle_matches_ed_in_strong_pairwise_regime():
    # the large negative pairwise coupling regime, where the weak cluster
    # turns over smoothly; checked away from the steep part of the crossover
    spec = ModelSpec.sparse(xi=(0.0, 0.0, -10.0))
    for s in (0.1, 0.8, 0.9):
        sol = global_saddle(spec, s)
        ref = sparse_ed(spec, s, 12)
        assert abs(sol.m2z - ref.m2z) < 0.1


# Reference for the real fast loop: the general complex Hamiltonian,
# Jacobi, and one single-spin operator at a time.
PAULI = [np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]]),
         np.array([[1, 0], [0, -1]], dtype=complex)]
SINGLE = ([np.kron(p, np.eye(2)) for p in PAULI]
          + [np.kron(np.eye(2), p) for p in PAULI])


def reference_expectations(mt1, mt2, K):
    H = build_effective_hamiltonian((mt1, mt2), K)
    w, V = jacobi_eigh(H)
    g = int(np.sum(w < w[0] + 1e-9))
    weights = np.r_[np.full(g, 1.0 / g), np.zeros(4 - g)]
    e = np.array([np.real(np.einsum("in,ij,jn,n->", V.conj(), op, V, weights))
                  for op in SINGLE])
    return e[:3], e[3:]


def reference_solve(spec, s, init, damping=0.5, tol=1e-10):
    """The damped loop with fields, Hamiltonian and expectations rebuilt on
    the general path at every step."""
    K = coupling_matrix(spec, s)
    m1, m2 = init.m1.copy(), init.m2.copy()
    osc, prev_sign = 0, 0.0
    for _ in range(10000):
        cf = conjugate_fields(spec, s, MagPair(m1, m2))
        e1, e2 = reference_expectations(*cf, K)
        upd = np.concatenate([e1 - m1, e2 - m2])
        if np.abs(upd).max() < tol:
            return m1, m2
        sign = np.sign(upd[int(np.argmax(np.abs(upd)))])
        if prev_sign and sign == -prev_sign:
            osc += 1
            if osc >= 10:
                damping *= 0.5
                osc = 0
        else:
            osc = 0
        prev_sign = sign
        m1 = m1 + damping * (e1 - m1)
        m2 = m2 + damping * (e2 - m2)
    raise AssertionError("reference loop did not converge")


def xz_coupling(kxx, kzz):
    K = np.zeros((3, 3))
    K[0, 0], K[2, 2] = kxx, kzz
    return K


def real_hamiltonian(mt1, mt2, K):
    """The real 4x4 the loop diagonalizes, from the general builder."""
    return np.ascontiguousarray(build_effective_hamiltonian((mt1, mt2), K).real)


def float_kernel(w, cols):
    """(e, B) of the loop's float kernel at the eigenpairs (w, cols) of H:
    the expectations, and the (4, 3) response factor on a non-degenerate
    ground state (None on a degenerate one)."""
    e = np.array(_ground(w, cols))
    if w[1] < w[0] + saddle._DEGENERACY_TOL:
        return e, None
    return e, np.array(_response(w, cols)).T


def kernel(H):
    w, V = np.linalg.eigh(H)
    return float_kernel(w.tolist(), V.T.tolist())


OPS = np.array([SINGLE[0], SINGLE[2], SINGLE[3], SINGLE[5]]).real   # X1, Z1, X2, Z2


def projector_kernel(w, V):
    """(e, B) in matrix form: e from the averaged ground projector
    contracted with X1, Z1, X2, Z2, and <n|O_i|0> from the matrix products."""
    g = int(np.count_nonzero(w < w[0] + 1e-9))
    e = np.einsum("iab,ab->i", OPS, V[:, :g] @ V[:, :g].T / g)
    if g > 1:
        return e, None
    A = (OPS @ V[:, 0]) @ V[:, 1:]
    return e, A * np.sqrt(2.0 / (w[1:] - w[0]))


def test_fast_expectations_match_general_path(rng):
    cases = [(np.zeros(3), np.zeros(3), np.zeros((3, 3)), 4),
             (np.array(XHAT), np.zeros(3), np.zeros((3, 3)), 2),
             (np.zeros(3), np.zeros(3), xz_coupling(0.7, 0.0), 2)]
    for _ in range(20):
        mt1, mt2 = rng.standard_normal(3), rng.standard_normal(3)
        mt1[1] = mt2[1] = 0.0
        cases.append((mt1, mt2, xz_coupling(*rng.standard_normal(2)), None))
    for mt1, mt2, K, g in cases:
        if g is not None:
            assert ground_block(build_effective_hamiltonian((mt1, mt2), K))[1] == g
        e = kernel(real_hamiltonian(mt1, mt2, K))[0]
        r1, r2 = reference_expectations(mt1, mt2, K)
        assert np.abs(e - np.r_[r1[::2], r2[::2]]).max() < 1e-12
        assert abs(r1[1]) < 1e-12 and abs(r2[1]) < 1e-12


@pytest.mark.parametrize("s, xi12, init", [
    (0.3, 0.0, MagPair([0, 0, 1], [0, 0, 1])),
    (0.6, 4.0, MagPair(XHAT, XHAT)),
    (0.8, -7.0, MagPair([0.3, 0.5, 0.8], [0.1, -0.4, 0.9])),
])
def test_solve_saddle_matches_reference_loop(s, xi12, init):
    spec = ModelSpec.sparse(xi=(0.0, 0.0, xi12))
    sol = solve_saddle(spec, s, init)
    assert sol.converged
    m1, m2 = reference_solve(spec, s, init)
    assert np.abs(np.r_[sol.m.m1 - m1, sol.m.m2 - m2]).max() < 1e-9


# -- Newton finish: linear response, stability gate, fallback ---------------

def response_at(spec, s, x):
    """F(x) = e(x) - x, chi and D at x = (m1x, m1z, m2x, m2z) on the fast path."""
    b, D = map(np.array, _field_map(_coeffs(spec, s)))
    mt = b + D * x
    e, B = kernel(real_hamiltonian(np.r_[mt[0], 0.0, mt[1]], np.r_[mt[2], 0.0, mt[3]],
                                   coupling_matrix(spec, s)))
    return e - x, B @ B.T, D


def lambda_max(spec, s, x):
    _, chi, D = response_at(spec, s, x)
    return float(np.linalg.eigvals(chi * D).real.max())


def as_x(m):
    return np.r_[m.m1[::2], m.m2[::2]]


def general_F(spec, s, x):
    """e(x) - x through the public complex builder and ground_block."""
    m = MagPair([x[0], 0.0, x[1]], [x[2], 0.0, x[3]])
    H = build_effective_hamiltonian(conjugate_fields(spec, s, m),
                                    coupling_matrix(spec, s))
    _, g, e1, e2 = ground_block(H)
    assert g == 1
    return np.r_[e1[::2], e2[::2]] - x


def test_linear_response_jacobian_matches_finite_differences(rng):
    h = 1e-6
    points = 0
    while points < 24:
        xi = rng.uniform(-8.0, 8.0, 3)
        s = rng.uniform(0.02, 0.98)
        x = rng.uniform(-1.0, 1.0, 4)
        spec = ModelSpec.sparse(xi=tuple(xi))
        b, D = map(np.array, _field_map(_coeffs(spec, s)))
        K = coupling_matrix(spec, s)

        def H_of(mt):
            return real_hamiltonian(np.r_[mt[0], 0.0, mt[1]], np.r_[mt[2], 0.0, mt[3]], K)

        w = np.linalg.eigvalsh(H_of(b + D * x))
        if w[1] - w[0] < 1e-2:
            continue
        points += 1
        F, chi, _ = response_at(spec, s, x)
        assert np.abs(F - general_F(spec, s, x)).max() < 1e-12
        J = chi * D - np.eye(4)
        J_fd = np.empty((4, 4))
        chi_fd = np.empty((4, 4))
        mt = b + D * x
        for j in range(4):
            dx = np.zeros(4)
            dx[j] = h
            J_fd[:, j] = (general_F(spec, s, x + dx) - general_F(spec, s, x - dx)) / (2 * h)
            chi_fd[:, j] = (kernel(H_of(mt + dx))[0] - kernel(H_of(mt - dx))[0]) / (2 * h)
        assert np.abs(J - J_fd).max() <= 1e-6 * np.abs(J).max()
        assert np.abs(chi - chi_fd).max() <= 1e-6 * np.abs(chi).max()
        # the measured response itself is symmetric positive semidefinite
        assert np.abs(chi_fd - chi_fd.T).max() <= 1e-6 * np.abs(chi).max()
        assert np.linalg.eigvalsh(chi_fd + chi_fd.T).min() >= -1e-6 * np.abs(chi).max()
        assert np.allclose(chi, chi.T, rtol=0, atol=1e-14)


def test_newton_gate_rejects_unstable_middle_fixed_point():
    # xi12 = 0 coexistence window: two stable branches and an unstable
    # fixed point between them, reached here by plain Newton
    spec = ModelSpec.sparse()
    s = 0.72
    up = as_x(solve_saddle(spec, s, MagPair([0, 0, 1], [0, 0, 1])).m)
    down = as_x(solve_saddle(spec, s, MagPair([0, 0, 1], [0, 0, -1])).m)
    assert np.abs(up - down).max() > 1.0
    mid = (up + down) / 2
    for _ in range(30):
        F, chi, D = response_at(spec, s, mid)
        mid = mid - np.linalg.solve(chi * D - np.eye(4), F)
    assert np.abs(response_at(spec, s, mid)[0]).max() < 1e-13
    assert lambda_max(spec, s, mid) >= 1.0
    for sign in (1.0, -1.0):
        start = mid + sign * np.array([0.0, 0.0, 0.0, 1e-6])
        sol = solve_saddle(spec, s, MagPair([start[0], 0, start[1]],
                                            [start[2], 0, start[3]]))
        assert sol.converged and sol.residual < 1e-10
        x = as_x(sol.m)
        assert np.abs(x - mid).max() > 0.1
        assert lambda_max(spec, s, x) < 1.0
        assert min(np.abs(x - up).max(), np.abs(x - down).max()) < 1e-9


def test_degenerate_ground_block_keeps_damped_answer():
    # gamma1 = 1 at s = 0 leaves cluster 1 without a field: a doubly
    # degenerate ground block, where the response is undefined
    spec = ModelSpec.sparse(gamma1=1.0)
    init = MagPair([0, 0, 1], [0, 0, 1])
    sol = solve_saddle(spec, 0.0, init)
    assert sol.converged and sol.degeneracy == 2
    m1, m2 = reference_solve(spec, 0.0, init)
    assert np.abs(np.r_[sol.m.m1 - m1, sol.m.m2 - m2]).max() < 1e-15
    # the damped loop stops one step short of zero; Newton would not
    assert 0.0 < np.abs(sol.m.m1).max() < 1e-10


def test_failed_newton_finish_resumes_the_damped_loop(monkeypatch):
    # With chi forced to zero the Newton step is the undamped step
    # x <- e(x), which overshoots on this total-catalyst map (the damped loop
    # halves its damping here): the residual grows, and the solve must go on
    # with the damped loop from the iterate Newton began at.
    monkeypatch.setattr(saddle, "_response", lambda w, cols: [(0.0,) * 4] * 3)
    spec = ModelSpec.sparse(xi=(-5.0, -5.0, -10.0))
    init = MagPair([0, 0, 1], [0, 0, 1])
    for s in (0.205, 0.3):
        sol = solve_saddle(spec, s, init)
        assert sol.converged
        m1, m2 = reference_solve(spec, s, init)
        assert np.abs(np.r_[sol.m.m1 - m1, sol.m.m2 - m2]).max() < 1e-14


def test_newton_finish_rearms_after_one_rejection(monkeypatch):
    # The first Newton attempt gets a response with lambda_max(chi D) = 4,
    # which the gate rejects; the damped loop goes on, and the second
    # attempt, with the true response, must still finish the solve at the
    # rounding level (unforced solves on this column end at 1e-16 to 3e-15)
    # instead of leaving it to the damped loop, which stops below tol = 1e-10.
    response = saddle._response
    calls = {"unstable": 0, "true": 0}

    def unstable_once(w, cols):
        if calls["unstable"] == 0:
            calls["unstable"] += 1
            # chi D = 4 on m1z, where D = s
            return [(0.0, 2.0 / np.sqrt(s), 0.0, 0.0), (0.0,) * 4, (0.0,) * 4]
        calls["true"] += 1
        return response(w, cols)

    spec = ModelSpec.sparse(xi=(-5.0, -5.0, -10.0))
    init = MagPair([0, 0, 1], [0, 0, 1])
    for s in (0.205, 0.3):
        calls.update(unstable=0, true=0)
        with monkeypatch.context() as mp:
            mp.setattr(saddle, "_response", unstable_once)
            sol = solve_saddle(spec, s, init)
        assert calls["unstable"] == 1 and calls["true"] >= 1
        assert sol.converged and sol.residual <= 1e-14
        with monkeypatch.context() as mp:
            mp.setattr(saddle, "_NEWTON_SWITCH", 0.0)
            ref = solve_saddle(spec, s, init, tol=1e-13)
        assert np.abs(np.r_[sol.m.m1 - ref.m.m1, sol.m.m2 - ref.m.m2]).max() < 1e-10


@pytest.mark.parametrize("xi", [(0.0, 0.0, -4.0), (-5.0, -5.0, -10.0), (-10.0, 0.0, 0.0)],
                         ids=["xi12=-4", "total=-10", "xi11=-10"])
def test_newton_handover_keeps_damped_basin(monkeypatch, xi):
    # Newton takes over from residual 1e-2; every solve must still end on
    # the fixed point the damped loop alone selects from the same start
    spec = ModelSpec.sparse(xi=xi)
    grid = np.linspace(0.0, 1.0, 11)
    solved = {(s, i): solve_saddle(spec, s, init)
              for s in grid for i, init in enumerate(saddle._SADDLE_INITS)}
    monkeypatch.setattr(saddle, "_NEWTON_SWITCH", 0.0)
    for (s, i), sol in solved.items():
        ref = solve_saddle(spec, s, saddle._SADDLE_INITS[i], tol=1e-13)
        assert sol.converged and ref.converged
        assert np.abs(np.r_[sol.m.m1 - ref.m.m1, sol.m.m2 - ref.m.m2]).max() < 1e-10, (s, i)


@pytest.mark.parametrize("xi12", [0.0, 4.0, -4.0, 8.0, -7.0])
def test_sparse_scan_solutions_pass_the_gate(xi12):
    spec = ModelSpec.sparse(xi=(0.0, 0.0, xi12))
    grid = np.linspace(0.0, 1.0, 21)
    for forward in (True, False):
        for sol in sweep(spec, grid, forward=forward):
            assert sol.converged and sol.degeneracy == 1
            assert lambda_max(spec, sol.s, as_x(sol.m)) < 1.0


@pytest.mark.parametrize("spec, s", [
    (ModelSpec.sparse(gamma2=0.25), 0.7),                   # fig10_weak
    (ModelSpec.sparse(xi=(0.0, 0.0, 7.5)), 0.675),          # fig8
    (ModelSpec.sparse(xi=(0.0, 7.5, 0.0)), 0.875),          # fig9_weak
])
def test_default_tol_solution_sits_on_the_fixed_point(spec, s):
    # rows where a map slope near 1 left the plain damped loop 1.3-1.5e-9
    # from its fixed point at the default tol
    sol = global_saddle(spec, s)
    tight = solve_saddle(spec, s, sol.m, tol=1e-15)
    assert tight.converged
    assert np.abs(np.r_[sol.m.m1 - tight.m.m1, sol.m.m2 - tight.m.m2]).max() < 1e-12
    assert sol.residual == pytest.approx(np.abs(general_F(spec, s, as_x(sol.m))).max(),
                                         abs=1e-15)
    m1, m2 = reference_solve(spec, s, sol.m, tol=1e-14)
    assert np.abs(np.r_[sol.m.m1 - m1, sol.m.m2 - m2]).max() < 1e-12


def test_solution_energy_reuses_the_loop_eigenvalues(rng):
    # lambda0, the degeneracy and u of a converged solve come from the last
    # eigenvalues of its loop; they must equal a fresh eigensolve at the
    # returned m, for global and for warm (Newton-first) solves
    cases = [(ModelSpec.sparse(gamma1=1.0), 0.0)]   # degeneracy 2
    cases += [(ModelSpec.sparse(xi=tuple(rng.uniform(-10.0, 10.0, 3))), rng.uniform(0.0, 0.95))
              for _ in range(12)]
    for spec, s in cases:
        glob = global_saddle(spec, s)
        for sol in (glob, solve_saddle(spec, s + 0.01, glob)):
            assert sol.converged
            mt = conjugate_fields(spec, sol.s, sol.m)
            assert sol.fields == (mt[0][0], mt[0][2], mt[1][0], mt[1][2])
            w = np.linalg.eigvalsh(build_effective_hamiltonian(mt, coupling_matrix(spec, sol.s)))
            lam0 = w[0]
            g = int(np.count_nonzero(w < lam0 + 1e-9))
            u = (0.5 * (mt[0] @ sol.m.m1 + mt[1] @ sol.m.m2)
                 + sparse_mean_field_density(spec, sol.s, sol.m) + 0.5 * lam0)
            assert abs(sol.energy - u) <= 1e-13
            assert abs(sol.lambda0 - lam0) <= 1e-13
            assert sol.degeneracy == g


# -- the loop's float kernel: two coupling numbers, one eigensolve per iteration

def test_closed_form_coupling_part_is_exact(rng):
    # the closed-form H: its coupling part (zero fields) against the einsum
    # over coupling_matrix, and H at random fields against the general
    # builder, entry for entry
    cases = [(ModelSpec.sparse(xi=tuple(rng.uniform(-10.0, 10.0, 3))), rng.uniform(0.0, 1.0))
             for _ in range(20)]
    cases += [(ModelSpec.sparse(xi=(0.0, 0.0, -4.0)), s) for s in (0.0, 0.5, 1.0)]
    for spec, s in cases:
        K = coupling_matrix(spec, s)
        c = _coeffs(spec, s)
        assert np.array_equal(_hamiltonian(c, (0.0,) * 4),
                              -np.einsum("ab,abij->ij", K[::2, ::2], saddle._S1S2[::2, ::2].real))
        f = tuple(rng.standard_normal(4).tolist())
        mt = (np.array([f[0], 0.0, f[1]]), np.array([f[2], 0.0, f[3]]))
        assert np.array_equal(_hamiltonian(c, f), build_effective_hamiltonian(mt, K).real)


def random_real_case(rng):
    mt1, mt2 = rng.standard_normal(3), rng.standard_normal(3)
    mt1[1] = mt2[1] = 0.0
    return mt1, mt2, xz_coupling(*rng.standard_normal(2))


def test_fused_kernel_matches_projector_form_and_general_path(rng):
    # e(x) and chi = B B^T from the eigenvector columns against ground_block
    # on the complex builder and against the projector form, on random real
    # fields and couplings; two degenerate (g = 2) blocks keep the multiplet
    # average
    cases = [(np.array(XHAT), np.zeros(3), K0, 2),
             (np.zeros(3), np.zeros(3), xz_coupling(0.7, 0.0), 2)]
    cases += [(*random_real_case(rng), 1) for _ in range(40)]
    for mt1, mt2, K, g in cases:
        _, g_ref, e1, e2 = ground_block(build_effective_hamiltonian((mt1, mt2), K))
        assert g_ref == g
        w, cols = _eigh(real_hamiltonian(mt1, mt2, K))
        e, B = float_kernel(w, cols)
        e_ref, B_ref = projector_kernel(np.array(w), np.array(cols).T)
        assert np.abs(e - np.r_[e1[::2], e2[::2]]).max() <= 1e-14
        assert np.abs(e - e_ref).max() <= 1e-14
        assert (B is None) == (g > 1)
        if g == 1:
            chi, chi_ref = B @ B.T, B_ref @ B_ref.T
            assert np.abs(chi - chi_ref).max() <= 1e-14 * max(1.0, np.abs(chi_ref).max())


def test_cholesky_gate_matches_the_eigenvalue_gate(rng):
    # the LDL^T factor of I - M exists exactly when lambda_max(M) < 1, for
    # M = B^T D B; D is scaled to put lambda_max on both sides of 1, and an
    # accepted step is B (I - M)^-1 B^T D step
    counts = Counter()
    while counts[True] < 200 or counts[False] < 200:
        mt1, mt2, K = random_real_case(rng)
        w, cols = _eigh(real_hamiltonian(mt1, mt2, K))
        if w[1] - w[0] < 1e-6:
            continue
        B = np.array(_response(w, cols)).T
        D = rng.standard_normal(4)
        top = np.linalg.eigvalsh(B.T @ (D[:, None] * B)).max()
        if top > 0.0 and rng.uniform() < 0.8:
            D *= rng.uniform(0.9, 1.1) / top
        M = B.T @ (D[:, None] * B)
        lam = np.linalg.eigvalsh(M).max()
        step = rng.standard_normal(4)
        newton = _newton_step(_response(w, cols), tuple(D.tolist()), step.tolist())
        if abs(lam - 1.0) <= 1e-12:
            continue
        counts[bool(lam < 1.0)] += 1
        assert (newton is not None) == (lam < 1.0), lam
        if newton is not None and lam < 0.99:
            ref = B @ np.linalg.solve(np.eye(3) - M, B.T @ (D * step))
            assert np.abs(np.array(newton) - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_sparse_column_takes_the_unfused_loops_steps(monkeypatch):
    # every eigensolve and Newton gate of one sparse transition column: the
    # matrix-form loop made 514 4x4 and 334 3x3 (gate) eigensolves over the
    # same 82 solves.  Where Newton stops is decided at the rounding level,
    # and the float kernel's last digits differ: 22 of those solves end one
    # or two Newton steps earlier or later, none takes a different path
    eighs = count_calls(monkeypatch, "_eigh", saddle)
    gates = count_calls(monkeypatch, "_newton_step", saddle)
    analyze(ModelSpec.sparse(xi=(0.0, 0.0, -4.0)), np.linspace(0.0, 1.0, 21))
    assert Counter(a.shape for a, in eighs) == {(4, 4): 507}
    assert len(gates) == 328
