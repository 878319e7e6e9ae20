import os
import subprocess
import sys

import numpy as np
import pytest

from meanfield_annealer import ModelSpec, build_dense_sector_operator
from meanfield_annealer.eigensolvers import (eig_general, jacobi_eigh,
                                             lanczos_lowest, null_basis,
                                             tridiag_eigvecs, tridiag_lowest)


def test_jacobi_real_symmetric(rng):
    for n in (1, 2, 3, 8, 40, 120):
        A = rng.standard_normal((n, n))
        A = A + A.T
        w, V = jacobi_eigh(A)
        assert np.abs(w - np.linalg.eigvalsh(A)).max() < 1e-10
        assert np.abs(A @ V - V * w).max() < 1e-10


def test_jacobi_complex_hermitian(rng):
    for n in (2, 4, 16):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = A + A.conj().T
        w, V = jacobi_eigh(A)
        assert np.abs(w - np.linalg.eigvalsh(A)).max() < 1e-10
        assert np.abs(A @ V - V * w).max() < 1e-10


def test_jacobi_rejects_nonhermitian(rng):
    A = rng.standard_normal((4, 4))
    with pytest.raises(ValueError):
        jacobi_eigh(A + 0.5)


def test_tridiag_lowest(rng):
    n = 80
    a = rng.standard_normal(n)
    b = rng.standard_normal(n - 1)
    T = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
    w = tridiag_lowest(a, b, 6)
    assert np.abs(w - np.linalg.eigvalsh(T)[:6]).max() < 1e-11


def _tridiag_case(name, rng):
    if name == "random":
        return rng.standard_normal(80), rng.standard_normal(79)
    if name == "split":
        # a zero off-diagonal splits T into two blocks whose eigenvalues
        # interleave; LAPACK reports them grouped by block
        b = rng.standard_normal(79)
        b[40] = 0.0
        return rng.standard_normal(80), b
    # negated Wilkinson W21+: lowest pair 7e-14 apart
    return -np.abs(np.arange(21) - 10.0), -np.ones(20)


@pytest.mark.parametrize("case", ["random", "split", "wilkinson"])
def test_tridiag_solvers_match_eigh(case, rng):
    a, b = _tridiag_case(case, rng)
    T = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
    ref = np.linalg.eigvalsh(T)[:6]
    w = tridiag_lowest(a, b, 6)
    assert np.abs(w - ref).max() < 1e-12
    Z = tridiag_eigvecs(a, b, w)
    assert Z.shape == (len(a), 6)
    assert np.abs(Z.T @ Z - np.eye(6)).max() < 1e-12
    assert np.abs(T @ Z - Z * w).max() < 1e-12


def test_lanczos_against_dense(rng):
    n = 350
    A = rng.standard_normal((n, n))
    A = (A + A.T) / 2
    w, V = lanczos_lowest(lambda v: A @ v, n, k=3)
    ref = np.linalg.eigvalsh(A)[:3]
    assert np.abs(w - ref).max() < 1e-9
    for i in range(3):
        assert np.abs(A @ V[:, i] - w[i] * V[:, i]).max() < 1e-6


def test_lanczos_small_gap(rng):
    # two close lowest eigenvalues must still be separated
    d = np.concatenate([[0.0, 1e-4], rng.uniform(1.0, 3.0, 300)])
    Q, _ = np.linalg.qr(rng.standard_normal((302, 302)))
    A = (Q * d) @ Q.T
    w, _ = lanczos_lowest(lambda v: A @ v, 302, k=2, tol=1e-13)
    assert abs(w[0] - 0.0) < 1e-8
    assert abs(w[1] - 1e-4) < 1e-8


@pytest.mark.parametrize("s", [0.2, 0.8])
def test_lanczos_ritz_pairs_on_sector(s, dense_spec):
    op = build_dense_sector_operator(dense_spec, s, 40)
    w, V = lanczos_lowest(op.matvec, op.dim, k=2)
    assert V.shape == (op.dim, 2)
    assert np.abs(V.T @ V - np.eye(2)).max() < 1e-12
    for i in range(2):
        assert np.linalg.norm(op.matvec(V[:, i]) - w[i] * V[:, i]) < 1e-6


def test_package_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, meanfield_annealer; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_eig_general_random(rng):
    for n in (1, 2, 3, 4, 5):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = np.sort_complex(eig_general(A))
        ref = np.sort_complex(np.linalg.eigvals(A))
        assert np.abs(w - ref).max() < 1e-10 * max(1.0, np.abs(A).max())


def test_eig_general_real_matrix_complex_pairs(rng):
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +/- i
    w = np.sort_complex(eig_general(A))
    assert np.allclose(np.sort_complex(np.array([-1j, 1j])), w, atol=1e-12)


def test_eig_general_degenerate():
    D = np.diag([0.5, 0.5, -0.5, -0.5]).astype(complex)
    w = np.sort(eig_general(D).real)
    assert np.allclose(w, [-0.5, -0.5, 0.5, 0.5], atol=1e-12)


def test_null_basis_simple_and_degenerate(rng):
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lam = np.linalg.eigvals(A)[0]
    b = null_basis(A - lam * np.eye(4), 1)
    assert len(b) == 1
    assert np.abs((A - lam * np.eye(4)) @ b[0]).max() < 1e-9
    # two-dimensional nullspace
    M = np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex)
    basis = null_basis(M, 2)
    assert len(basis) == 2
    for v in basis:
        assert np.abs(M @ v).max() < 1e-12
    G = np.array([[vb.conj() @ va for va in basis] for vb in basis])
    assert np.linalg.matrix_rank(G, tol=1e-8) == 2
