from collections import Counter

import numpy as np
import pytest

from meanfield_annealer import (ConvergenceError, MagPair, ModelSpec, SaddleSolution,
                                build_effective_hamiltonian,
                                conjugate_fields, coupling_matrix,
                                detect_transition, global_saddle, ground_block,
                                solve_saddle, sparse_mean_field_density, sweep)
from meanfield_annealer import classical, cli, saddle, transitions
from meanfield_annealer.ed import sparse_ed
from meanfield_annealer.eigensolvers import jacobi_eigh
from meanfield_annealer.model import _coeffs, _field_map
from meanfield_annealer.saddle import _eigh, _expectations, _hamiltonian, _pair_energy
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


def test_solve_saddle_start_fixed_point(monkeypatch, sparse_spec):
    monkeypatch.setattr(saddle, "_MAX_ITER", 2)
    sol = solve_saddle(sparse_spec, 0.0, MagPair(XHAT, XHAT))
    assert sol.converged
    assert np.allclose(sol.m.m1, XHAT, atol=1e-10)
    assert sol.energy == pytest.approx(-1.0, abs=1e-12)


def test_unconverged_solve_stops_at_max_iter(monkeypatch):
    # two Newton steps from the m2z < 0 init leave the residual far above
    # tol; the solve reports failure after exactly four 4x4 eigensolves: H at
    # the start's x (its ground state is the start), the two projected
    # Hessians, and H at the end
    monkeypatch.setattr(saddle, "_MAX_ITER", 2)
    eighs = count_calls(monkeypatch, "_eigh", saddle)
    sol = solve_saddle(ModelSpec.sparse(xi=(0.0, 0.0, -4.0)), 0.5,
                       MagPair([0, 0, 1], [0, 0, -1]))
    assert not sol.converged
    assert sol.residual > 1e-5
    assert [a.shape for a, in eighs] == [(4, 4)] * 4


def test_global_saddle_raises_with_the_last_unconverged_solution(monkeypatch, sparse_spec):
    solve = saddle.solve_saddle
    returned = []

    def recorded(spec, s, init):
        returned.append(solve(spec, s, init))
        return returned[-1]

    monkeypatch.setattr(saddle, "_MAX_ITER", 2)
    monkeypatch.setattr(saddle, "solve_saddle", recorded)
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


def test_weak_catalyst_width_on_a_coarse_grid():
    # fig9_weak xi22 = -8: the branch runs steeply into its fold, and the
    # damped map lost it on 41 points three steps before the 201-point
    # width (0.775 against 0.855); Newton on E keeps it to within one step
    spec = ModelSpec.sparse(xi=(0.0, -8.0, 0.0))
    coarse = detect_transition(spec, np.linspace(0.0, 1.0, 41))
    fine = detect_transition(spec, np.linspace(0.0, 1.0, 201))
    assert coarse.found and fine.found
    assert abs(coarse.hysteresis_width - fine.hysteresis_width) <= 0.025 + 1e-12


def test_total_catalyst_s_star_at_sector_jump():
    # appC_sparse xi = -10: the sector-ED ground-state m2z jumps between
    # s = 0.160 and 0.165 at N = 40, 80 and 160; the backward sweep and the
    # crossing search must stay on the high-s branch down to there
    rep = detect_transition(ModelSpec.sparse(xi=(-5.0, -5.0, -10.0)),
                            np.linspace(0.0, 1.0, 41))
    assert rep.found
    assert 0.155 <= rep.s_star <= 0.170


def test_detect_sparse_smooth_crossover_on_coarse_grid():
    # 11 points make the smooth xi12=8 crossover a large grid jump; the
    # crossing search must close onto one branch instead of keeping that jump
    rep = detect_transition(ModelSpec.sparse(xi=(0.0, 0.0, 8.0)),
                            np.linspace(0.0, 1.0, 11))
    assert not rep.found
    assert np.isnan(rep.s_star)
    assert rep.jump_m2z < 0.05


@pytest.mark.parametrize("k", [7, 8], ids=["s=0.175", "s=0.2"])
def test_global_saddle_finds_the_sweep_equilibrium(k):
    # at xi = (-5, -5, -10), s = 0.175 and 0.2 the damped fixed-point map
    # took every start of global_saddle to the m2z ~ -0.75 branch, 0.0055 and
    # 0.0150 above the equilibrium the backward sweep holds; Newton on E
    # ranks its minima by the energy it descends
    spec = ModelSpec.sparse(xi=(-5.0, -5.0, -10.0))
    grid = np.linspace(0.0, 1.0, 41)
    eq = analyze(spec, grid).equilibrium[k]
    assert abs(global_saddle(spec, grid[k]).energy - eq.energy) <= 1e-9


def test_global_saddle_finds_the_antiparallel_minimum():
    # off the figure grids: the lowest minimum has antiparallel x components,
    # and the z-axis and aligned starts all reach the aligned one, 0.077 higher
    sol = global_saddle(ModelSpec.sparse(xi=(5.27, 9.48, -5.57)), 0.413)
    assert abs(sol.energy + 1.2793095878715146) <= 1e-9
    m1x, _, m2x, _ = sol.x
    assert m1x < -0.9 and m2x > 0.99


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


def kernel(H):
    return projector_kernel(*np.linalg.eigh(H))


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


# -- linear response chi D of the map x -> e(x): stable and unstable fixed points

def response_at(spec, s, x):
    """F(x) = e(x) - x, chi and D at x = (m1x, m1z, m2x, m2z), from the
    projector kernel."""
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
    # degenerate ground level, along which E is flat; the solve converges
    # on a psi inside that multiplet, with cluster 2 along its field
    spec = ModelSpec.sparse(gamma1=1.0)
    sol = solve_saddle(spec, 0.0, MagPair([0, 0, 1], [0, 0, 1]))
    assert sol.converged and sol.degeneracy == 2
    assert sol.residual < 1e-15
    w, V = np.linalg.eigh(_hamiltonian(_coeffs(spec, 0.0), sol.fields))
    assert w[1] - w[0] < 1e-12 < w[2] - w[0]
    assert abs(np.linalg.norm(V[:, :2].T @ sol.psi) - 1.0) < 1e-15
    assert np.abs(np.array(sol.x[2:]) - [1.0, 0.0]).max() < 1e-15


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
def test_default_tol_solution_sits_on_the_fixed_point(monkeypatch, spec, s):
    # rows where a map slope near 1 left the plain damped loop 1.3-1.5e-9
    # from its fixed point at the default tol
    sol = global_saddle(spec, s)
    monkeypatch.setattr(saddle, "_TOL", 1e-15)
    tight = solve_saddle(spec, s, sol.m)
    assert tight.converged
    assert np.abs(np.r_[sol.m.m1 - tight.m.m1, sol.m.m2 - tight.m.m2]).max() < 1e-12
    assert sol.residual == pytest.approx(np.abs(general_F(spec, s, as_x(sol.m))).max(),
                                         abs=1e-15)
    m1, m2 = reference_solve(spec, s, sol.m, tol=1e-14)
    assert np.abs(np.r_[sol.m.m1 - m1, sol.m.m2 - m2]).max() < 1e-12


def test_solution_energy_reuses_the_loop_eigenvalues(rng):
    # lambda0, the degeneracy and u of a converged solve come from its final
    # eigensolve of H; they must equal a fresh eigensolve at the returned m,
    # for global and for warm solves
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


# -- the solver's float kernel: two coupling numbers, one eigensolve per iteration

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
    # the closed-form expectations of the eigenvector columns of the real H,
    # averaged over the ground multiplet, against ground_block on the
    # complex builder and against the projector form, on random real fields
    # and couplings and on two degenerate (g = 2) blocks
    cases = [(np.array(XHAT), np.zeros(3), K0, 2),
             (np.zeros(3), np.zeros(3), xz_coupling(0.7, 0.0), 2)]
    cases += [(*random_real_case(rng), 1) for _ in range(40)]
    for mt1, mt2, K, g in cases:
        _, g_ref, e1, e2 = ground_block(build_effective_hamiltonian((mt1, mt2), K))
        assert g_ref == g
        w, cols = _eigh(real_hamiltonian(mt1, mt2, K))
        e = np.mean([_expectations(*v) for v in cols[:g]], axis=0)
        e_ref, _ = projector_kernel(np.array(w), np.array(cols).T)
        assert np.abs(e - np.r_[e1[::2], e2[::2]]).max() <= 1e-14
        assert np.abs(e - e_ref).max() <= 1e-14


def random_sphere_case(rng):
    spec = ModelSpec.sparse(xi=tuple(rng.uniform(-10.0, 10.0, 3)))
    s = rng.uniform(0.0, 1.0)
    psi = rng.standard_normal(4)
    return spec, s, psi / np.linalg.norm(psi)


def gradient_and_hessian(spec, s, psi):
    """H(x) psi and H - 2 sum_k D_k (O_k psi)(O_k psi)^T at psi, in numpy."""
    c = _coeffs(spec, s)
    b, D = map(np.array, _field_map(c))
    x = np.einsum("i,kij,j->k", psi, OPS, psi)
    H = _hamiltonian(c, (b + D * x).tolist())
    U = OPS @ psi
    return H @ psi, H - 2.0 * (U.T * D) @ U


def test_energy_gradient_is_h_psi_and_its_hessian(rng):
    # E(psi) = h_m(x) + psi.Hc psi / 2 has gradient H(x) psi and Hessian
    # H - 2 sum_k D_k (O_k psi)(O_k psi)^T, both by central differences
    h = 1e-6
    for _ in range(20):
        spec, s, psi = random_sphere_case(rng)
        c = _coeffs(spec, s)
        grad, hess = gradient_and_hessian(spec, s, psi)
        steps = np.eye(4) * h
        grad_fd = [(_pair_energy(c, *(psi + e)) - _pair_energy(c, *(psi - e))) / (2 * h)
                   for e in steps]
        hess_fd = np.array([(gradient_and_hessian(spec, s, psi + e)[0]
                             - gradient_and_hessian(spec, s, psi - e)[0]) / (2 * h)
                            for e in steps])
        assert np.abs(grad - grad_fd).max() <= 1e-8 * max(1.0, np.abs(grad).max())
        assert np.abs(hess - hess_fd).max() <= 1e-8 * max(1.0, np.abs(hess).max())


def test_newton_eigensolve_is_the_projected_hessian(monkeypatch, rng):
    # the matrix a Newton step diagonalizes is P (Hess - lambda) P + psi psi^T,
    # P = 1 - psi psi^T and lambda = psi.H psi, of which LAPACK reads the lower
    # triangle; the final eigensolve is H's
    for _ in range(20):
        spec, s, psi = random_sphere_case(rng)
        init = SaddleSolution(s=s, psi=tuple(psi.tolist()), fields=(0.0,) * 4, lambda0=0.0,
                              degeneracy=1, energy=0.0, converged=True, residual=0.0)
        with monkeypatch.context() as mp:
            mp.setattr(saddle, "_MAX_ITER", 1)
            eighs = count_calls(mp, "_eigh", saddle)
            sol = solve_saddle(spec, s, init)
        grad, hess = gradient_and_hessian(spec, s, psi)
        lam = psi @ grad
        P = np.eye(4) - np.outer(psi, psi)
        ref = P @ (hess - lam * np.eye(4)) @ P + np.outer(psi, psi)
        assert len(eighs) == 2
        assert np.abs(np.tril(eighs[0][0] - ref)).max() <= 1e-13
        assert np.array_equal(eighs[1][0], _hamiltonian(_coeffs(spec, s), sol.fields))


def test_excited_level_minimum_is_not_converged():
    # at xi = (-5, -5, -10), s = 0.15, E has a local minimum on the first
    # excited level of its own H, 0.058 above the global one: Newton stays on
    # it, and the level check reports the solve unconverged, so that a warm
    # sweep that lands there takes the global solve
    spec, s = ModelSpec.sparse(xi=(-5.0, -5.0, -10.0)), 0.15
    psi = np.array([-0.346263, 0.250422, -0.850599, -0.306386])
    init = SaddleSolution(s=s, psi=tuple((psi / np.linalg.norm(psi)).tolist()),
                          fields=(0.0,) * 4, lambda0=0.0, degeneracy=1, energy=0.0,
                          converged=True, residual=0.0)
    sol = solve_saddle(spec, s, init)
    assert not sol.converged and sol.residual > 1.0
    w, V = np.linalg.eigh(_hamiltonian(_coeffs(spec, s), sol.fields))
    assert w[1] - w[0] > 0.1 and abs(V[:, 1] @ sol.psi) > 1.0 - 1e-12
    assert sol.energy - global_saddle(spec, s).energy > 0.05


def test_sparse_column_takes_the_unfused_loops_steps(monkeypatch):
    # every eigensolve of one sparse transition column, all 4x4: over its 60
    # solves, H at the start of the 14 global inits, 194 projected Hessians
    # of Newton steps and H at the end of each solve
    eighs = count_calls(monkeypatch, "_eigh", saddle)
    solves = count_calls(monkeypatch, "solve_saddle", saddle, transitions)
    analyze(ModelSpec.sparse(xi=(0.0, 0.0, -4.0)), np.linspace(0.0, 1.0, 21))
    assert len(solves) == 60
    assert sum(isinstance(init, MagPair) for _, _, init in solves) == 14
    assert Counter(a.shape for a, in eighs) == {(4, 4): 14 + 194 + 60}
