import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from meanfield_annealer import (ConvergenceError, EDOperator, ModelSpec,
                                SizeError, build_dense_full_operator,
                                build_dense_sector_operator,
                                build_sparse_full_hamiltonian, dense_ed,
                                detect_transition, ed_solve, extrapolate_gap,
                                global_minimize, sparse_ed)
from meanfield_annealer.eigensolvers import jacobi_eigh, lanczos_lowest


def test_sector_spec(dense_spec):
    assert build_dense_sector_operator(dense_spec, 0.5, 4).dim == 9
    assert build_dense_sector_operator(dense_spec, 0.5, 200).dim == 101 ** 2
    for bad in (0, 2, 6, -4, 5):
        with pytest.raises(ValueError):
            build_dense_sector_operator(dense_spec, 0.5, bad)


def _classical_problem_energies(spec, N):
    """Brute force over the 2^N classical z configurations at s=1."""
    n2 = N // 2
    h1, h2 = spec.h1, spec.h2
    out = []
    for bits in itertools.product([1, -1], repeat=N):
        z1 = bits[:n2]
        z2 = bits[n2:]
        e = -(h1 * sum(z1) + h2 * sum(z2))
        e -= (sum(z1) ** 2 + sum(z2) ** 2 + sum(z1) * sum(z2)) / N
        out.append(e)
    return np.array(out)


def test_sector_matrix_small_size(dense_spec):
    H = build_dense_sector_operator(dense_spec, 1.0, 4).to_dense()
    assert H.shape == (9, 9)
    assert np.array_equal(H, H.T)
    brute = _classical_problem_energies(dense_spec, 4)
    assert H.diagonal().min() == pytest.approx(brute.min(), abs=1e-12)
    assert H.diagonal().min() == pytest.approx(-4.02, abs=1e-12)
    r = ed_solve(build_dense_sector_operator(dense_spec, 0.0, 4))
    assert r.energies[0] == pytest.approx(-4.0, abs=1e-10)


@pytest.mark.parametrize("s", [0.13, 0.37, 0.52, 0.78, 0.95])
def test_sector_subset_of_full_spectrum(s):
    spec = ModelSpec.dense(xi=(0.0, 0.0, -2.0))
    wsec, _ = jacobi_eigh(build_dense_sector_operator(spec, s, 4).to_dense())
    full = build_dense_full_operator(spec, s, 4).to_dense()
    wfull, _ = jacobi_eigh(full)
    for x in wsec:
        assert min(abs(wfull - x)) < 1e-10



def _pauli_site(op, r, N):
    """op on site r of N, with site r as bit r of the basis index (kron puts
    its first factor on the most significant bit)."""
    mats = [np.eye(2)] * N
    mats[N - 1 - r] = op
    return functools.reduce(np.kron, mats)


def _dense_energy_operator(spec, s, N, X1, X2, Z1, Z2):
    """N h(M1, M2) with the classical polynomial's operator ordering."""
    g1, g2 = (s if g is None else g for g in (spec.gamma1, spec.gamma2))
    w = s * (1.0 - s) / 4.0
    h = (-(s / 2.0) * (spec.h1 * Z1 + spec.h2 * Z2)
         - (s / 4.0) * (Z1 @ Z1 + Z2 @ Z2 + Z1 @ Z2)
         - (1.0 - g1) / 2.0 * X1 - (1.0 - g2) / 2.0 * X2
         - w * (spec.xi11 * X1 @ X1 + spec.xi22 * X2 @ X2 + spec.xi12 * X1 @ X2))
    return N * h


# each of a1, a2, c11, c22, c12 nonzero in some case; gamma = 1 switches
# a cluster's transverse field off
SECTOR_CASES = [
    ((0.0, 0.0, 0.0), None, None),
    ((1.3, 0.0, 0.0), None, 1.0),
    ((0.0, -0.7, 0.0), 1.0, None),
    ((0.0, 0.0, -4.0), 0.3, None),
    ((1.3, -0.7, -2.1), None, 0.6),
]
# case k names a pinned gamma gamma1<k> / gamma2<k>, not by its value, so
# the test ids stay fixed when a pinned value changes
SECTOR_IDS = ["xi0-None-None", "xi1-None-gamma21", "xi2-gamma12-None",
              "xi3-gamma13-None", "xi4-None-gamma24"]


@pytest.mark.parametrize("N", [4, 8, 20])
@pytest.mark.parametrize("xi,gamma1,gamma2", SECTOR_CASES, ids=SECTOR_IDS)
def test_sector_operator_matches_kron_construction(N, xi, gamma1, gamma2, rng):
    spec = ModelSpec.dense(xi=xi, gamma1=gamma1, gamma2=gamma2)
    s = 0.37
    S = N / 4.0
    d = N // 2 + 1
    m = np.arange(d) - S
    raise_ = np.diag(np.sqrt(S * (S + 1.0) - m[:-1] * (m[:-1] + 1.0)), -1)  # S^+
    X = (raise_ + raise_.T) / (2.0 * S)
    Z = np.diag(m / S)
    eye = np.eye(d)
    Z1, Z2 = np.kron(Z, eye), np.kron(eye, Z)
    H = _dense_energy_operator(spec, s, N, np.kron(X, eye), np.kron(eye, X), Z1, Z2)
    op = build_dense_sector_operator(spec, s, N)
    assert op.dim == d * d
    assert np.array_equal(op.m1z_diag, Z1.diagonal())
    assert np.array_equal(op.m2z_diag, Z2.diagonal())
    assert np.abs(op.to_dense() - H).max() < 1e-12
    for _ in range(3):
        v = rng.standard_normal(op.dim)
        assert np.abs(op.matvec(v) - H @ v).max() < 1e-12


def test_dense_full_operator_matches_pauli_kron(rng):
    N, n2, s = 6, 3, 0.43
    spec = ModelSpec.dense(xi=(1.3, -0.7, -2.1))
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    X1, Z1, X2, Z2 = (sum(_pauli_site(p, r, N) for r in sites) * (2.0 / N)
                      for sites in (range(n2), range(n2, N)) for p in (sx, sz))
    H = _dense_energy_operator(spec, s, N, X1, X2, Z1, Z2)
    op = build_dense_full_operator(spec, s, N)
    assert np.abs(op.to_dense() - H).max() < 1e-12
    assert np.array_equal(op.m1z_diag, Z1.diagonal())
    assert np.array_equal(op.m2z_diag, Z2.diagonal())
    for _ in range(3):
        v = rng.standard_normal(op.dim)
        assert np.abs(op.matvec(v) - H @ v).max() < 1e-12

def test_sector_ground_matches_classical(dense_spec):
    r = dense_ed(dense_spec, 0.2, 100)
    st = global_minimize(dense_spec, 0.2)
    assert abs(r.m2z - st.m.m2[2]) < 5e-2
    assert abs(r.m1z - st.m.m1[2]) < 5e-2


def test_jacobi_and_lanczos_paths_agree(dense_spec):
    # dim 121 sector runs through dense eigh; force the Lanczos path on the
    # operator and compare
    op = build_dense_sector_operator(dense_spec, 0.6, 20)
    dense_path = ed_solve(op)
    w, _ = lanczos_lowest(op.matvec, op.dim, k=2, tol=1e-13)
    assert np.abs(w - dense_path.energies).max() < 1e-9


def _minus_one_and_a_half(z1, z2):
    """-1.5 I as an EDOperator, so every state is a ground state."""
    H = -1.5 * sp.identity(len(z1), format="csr")
    return EDOperator(dim=len(z1), matvec=H.dot, m1z_diag=z1, m2z_diag=z2, matrix=H)


def test_ed_solve_breakdown_falls_back_to_eigh():
    # a multiple of the identity: every Krylov space breaks down after one
    # step, so the reference Lanczos gives up after three restarts; ARPACK
    # returns k equal values, and ed_solve redoes the solve with dense eigh
    dim = 300
    z = np.linspace(-1.0, 1.0, dim)
    op = _minus_one_and_a_half(z, -z)
    with pytest.raises(SizeError):
        lanczos_lowest(op.matvec, dim, k=2)
    r = ed_solve(op)
    assert np.abs(r.energies - (-1.5)).max() < 1e-14
    assert abs(r.gap) < 1e-14


@pytest.mark.parametrize("dim", [150, 300])
def test_ed_solve_averages_whole_ground_multiplet(dim, rng):
    # every state of -1.5 I is a ground state, so on both eigh paths (dense
    # below 200, the redo after k degenerate ARPACK values above) the
    # degeneracy-averaged magnetizations are the uniform averages of the
    # diagonals, whichever k eigenvectors eigh happens to return first
    z1, z2 = rng.uniform(-1.0, 1.0, dim), rng.uniform(-1.0, 1.0, dim)
    op = _minus_one_and_a_half(z1, z2)
    r = ed_solve(op)
    assert r.m1z == pytest.approx(z1.mean(), abs=1e-12)
    assert r.m2z == pytest.approx(z2.mean(), abs=1e-12)
    assert len(r.energies) == 2


def test_arpack_path_matches_dense_eigh_at_n12():
    from scipy.linalg import eigh

    # s=0.8 has the smallest N=12 gap of the sparse oracle checks
    spec = ModelSpec.sparse(xi=(0.0, 0.0, 2.0))
    op = build_sparse_full_hamiltonian(spec, 0.8, 12)
    r = sparse_ed(spec, 0.8, 12)
    w, V = eigh(op.to_dense(), subset_by_index=[0, 1], overwrite_a=True)
    assert w[1] - w[0] > 1e-3  # nondegenerate ground state
    assert np.abs(r.energies - w).max() < 1e-9
    assert r.gap == pytest.approx(w[1] - w[0], abs=1e-9)
    assert r.m2z == pytest.approx(float(V[:, 0] ** 2 @ op.m2z_diag), abs=1e-9)


def test_arpack_path_matches_lanczos_at_n300():
    op = build_dense_sector_operator(ModelSpec.dense(xi=(0.0, 0.0, -4.0)), 0.2, 300)
    w, _ = lanczos_lowest(op.matvec, op.dim, k=2, tol=1e-13)
    assert np.abs(ed_solve(op).energies - w).max() < 1e-9


def test_arpack_krylov_memory_is_bounded():
    # the reference Lanczos kept every Krylov vector: a 160 MiB peak at N=400
    spec = ModelSpec.dense(xi=(0.0, 0.0, -4.0))
    dense_ed(spec, 0.2, 40)  # load scipy outside the measurement
    tracemalloc.start()
    try:
        dense_ed(spec, 0.2, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_arpack_no_convergence_is_a_convergence_error(tmp_path, monkeypatch, capsys):
    import scipy.sparse.linalg

    from meanfield_annealer.cli import run

    def no_convergence(A, k, **kw):
        raise scipy.sparse.linalg.ArpackNoConvergence("forced", np.zeros(0),
                                                      np.zeros((A.shape[0], 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(ConvergenceError, match="ARPACK"):
        dense_ed(ModelSpec.dense(), 0.2, 40)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(task="ed-check", xi=-4.0, ed_sizes=[40, 100],
                                   ed_s_points=[0.2], ed_n=100, output="ed.csv")))
    assert run(str(cfg), out_dir=str(tmp_path)) == 3
    assert "solver error: ARPACK did not converge" in capsys.readouterr().err


def test_ed_solve_validation(dense_spec):
    with pytest.raises(ValueError):
        ed_solve(build_dense_sector_operator(dense_spec, 0.5, 4), k=1)
    with pytest.raises(SizeError):   # dimension 65^2 = 4225 > 4096
        build_dense_sector_operator(dense_spec, 0.5, 128).to_dense()
    with pytest.raises(SizeError):
        build_dense_sector_operator(dense_spec, 0.5, 2004)


def test_extrapolate_gap_needs_two_sizes():
    # one distinct size fixes no line in 1/N; lstsq would return its
    # minimum-norm answer instead of an intercept
    for sizes, gaps in (([100], [0.5]), ([100, 100], [0.5, 0.5])):
        with pytest.raises(ValueError, match="two distinct sizes"):
            extrapolate_gap(sizes, gaps)


def test_sparse_full_small_cases(sparse_spec):
    op = build_sparse_full_hamiltonian(sparse_spec, 1.0, 2)
    H = op.to_dense()
    assert H.shape == (4, 4)
    assert H[0, 0] == pytest.approx(-2.01, abs=1e-12)
    r = sparse_ed(sparse_spec, 0.0, 8)
    assert r.energies[0] == pytest.approx(-8.0, abs=1e-9)
    with pytest.raises(SizeError):
        build_sparse_full_hamiltonian(sparse_spec, 0.5, 16)
    with pytest.raises(ValueError):
        build_sparse_full_hamiltonian(sparse_spec, 0.5, 7)


def test_sparse_full_matches_brute_force(sparse_spec, rng):
    # independent dense construction from explicit Pauli kron products
    sx = np.array([[0, 1], [1, 0]], dtype=float)
    sz = np.array([[1, 0], [0, -1]], dtype=float)
    eye = np.eye(2)

    def site(op, r, N):
        mats = [eye] * N
        mats[r] = op
        return functools.reduce(np.kron, mats)

    N = 6
    n2 = 3
    s = 0.43
    spec = ModelSpec.sparse(xi=(1.3, -0.7, -2.1))
    H = np.zeros((2 ** N, 2 ** N))
    Z = [site(sz, r, N) for r in range(N)]
    X = [site(sx, r, N) for r in range(N)]
    for r in range(n2):
        H += -s * (spec.h1 * Z[r] + spec.h2 * Z[n2 + r])
        H += -(1 - s) * (X[r] + X[n2 + r])
        H += -s * 0.5 * Z[r] @ Z[n2 + r]
        H += -s * (1 - s) * spec.xi12 / 2.0 * X[r] @ X[n2 + r]
    for r in range(n2):
        for rp in range(n2):
            H += -s / N * (Z[r] @ Z[rp] + Z[n2 + r] @ Z[n2 + rp])
            H += -s * (1 - s) / N * (spec.xi11 * X[r] @ X[rp]
                                     + spec.xi22 * X[n2 + r] @ X[n2 + rp])
    # bit r of the module's basis is this construction's site r; the module
    # orders basis states by integer value, kron by most-significant first
    op = build_sparse_full_hamiltonian(spec, s, N)
    Hmod = op.to_dense()
    # compare spectra (basis orderings differ)
    assert np.abs(np.linalg.eigvalsh(H) - np.linalg.eigvalsh(Hmod)).max() < 1e-10


def test_variational_convergence_rate(dense_spec):
    st = global_minimize(dense_spec, 0.2)
    h_cl = st.energy
    scaled = []
    for N in (40, 100, 200, 400):
        r = dense_ed(dense_spec, 0.2, N)
        scaled.append(N * abs(r.energies[0] / N - h_cl))
    scaled = np.array(scaled)
    assert scaled.max() / scaled.min() < 1.5
    # finite-size ground energy sits below the classical bound here
    assert all(dense_ed(dense_spec, 0.2, N).energies[0] / N <= h_cl for N in (40, 100))


def test_gap_shrinks_with_size_at_transition(dense_spec):
    rep = detect_transition(dense_spec)
    assert rep.found
    gaps = [dense_ed(dense_spec, rep.s_star, N, tol=1e-13).gap
            for N in (40, 80, 120)]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_gap_positive_away_from_transition(dense_spec):
    for s in (0.2, 0.5, 0.9):
        assert dense_ed(dense_spec, s, 100).gap > 1e-3
