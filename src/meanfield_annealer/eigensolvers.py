"""Reference eigensolvers for tests and acceptance checks.

* cyclic Jacobi for real-symmetric / complex-Hermitian matrices,
* Lanczos with full (DGKS) reorthogonalization on top of a matvec, with
  the small tridiagonal eigenproblem handed to LAPACK (``dstebz`` +
  ``dstein``); the ED oracle itself runs on ARPACK,
* a dense general complex eigensolver (Hessenberg reduction plus shifted
  QR) and a nullspace by Gaussian elimination; the gap path itself runs
  in closed form.
"""
from __future__ import annotations

import numpy as np

from .errors import SizeError


# ---------------------------------------------------------------------------
# Jacobi diagonalization (real symmetric or complex Hermitian)

def jacobi_eigh(A: np.ndarray, tol: float = 1e-14, max_sweeps: int = 60):
    """Full eigendecomposition of a Hermitian matrix by cyclic Jacobi.

    Returns (w, V) with ascending eigenvalues; V[:, i] is the eigenvector
    for w[i].  Intended for modest sizes (n up to a few hundred).
    """
    A = np.asarray(A)
    n = A.shape[0]
    if A.ndim != 2 or A.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = max(float(np.abs(A).max()), 1.0) if n else 1.0
    if n and float(np.abs(A - A.conj().T).max()) > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian")
    complex_input = np.iscomplexobj(A) and float(np.abs(np.imag(A)).max()) > 1e-14 * scale
    work = A.copy() if complex_input else np.real(A).astype(float)
    work = 0.5 * (work + work.conj().T)
    V = np.eye(n, dtype=work.dtype)
    if n <= 1:
        return work.diagonal().real.copy(), V

    for _ in range(max_sweeps):
        off = work.copy()
        off[np.diag_indices(n)] = 0.0
        if float(np.abs(off).max()) <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                if abs(apq) <= tol * scale * 1e-2:
                    continue
                app = work[p, p].real
                aqq = work[q, q].real
                ph = apq / abs(apq)  # phase making the rotated pivot real
                tau = (aqq - app) / (2.0 * abs(apq))
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                sn = t * c
                cp = work[:, p].copy()
                cq = work[:, q].copy()
                work[:, p] = c * cp - sn * np.conj(ph) * cq
                work[:, q] = sn * ph * cp + c * cq
                rp = work[p, :].copy()
                rq = work[q, :].copy()
                work[p, :] = c * rp - sn * ph * rq
                work[q, :] = sn * np.conj(ph) * rp + c * rq
                work[p, q] = 0.0
                work[q, p] = 0.0
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - sn * np.conj(ph) * vq
                V[:, q] = sn * ph * vp + c * vq
    w = work.diagonal().real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


# ---------------------------------------------------------------------------
# Symmetric tridiagonal eigenproblem (LAPACK through scipy, imported on first
# use so that importing the package does not load it)

def tridiag_lowest(alpha, beta, k: int, tol: float = 1e-14):
    """Lowest k eigenvalues of a symmetric tridiagonal matrix, ascending.

    Bisection by index in LAPACK ``dstebz``; ``tol`` is the absolute width
    at which an eigenvalue counts as located (dstebz also stops at 2 ulp).
    """
    from scipy.linalg import eigvalsh_tridiagonal

    k = min(k, len(alpha))
    return eigvalsh_tridiagonal(alpha, beta, select="i", select_range=(0, k - 1),
                                tol=tol, lapack_driver="stebz")


def tridiag_eigvecs(alpha, beta, lams):
    """Orthonormal eigenvectors (columns) for the len(lams) lowest eigenvalues.

    LAPACK ``dstebz`` locates them and ``dstein`` runs inverse iteration,
    reorthogonalizing vectors within a cluster.
    """
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(alpha, beta, select="i", select_range=(0, len(lams) - 1),
                            lapack_driver="stebz")[1]


# ---------------------------------------------------------------------------
# Lanczos with full reorthogonalization

def lanczos_lowest(matvec, dim: int, k: int = 2, tol: float = 1e-12,
                   max_iter: int | None = None, seed: int = 7):
    """Lowest-k eigenpairs of a symmetric operator given by its matvec.

    Every new Krylov vector is reorthogonalized against the whole basis,
    which keeps Ritz values clean enough to resolve small gaps.  One
    Gram-Schmidt pass is made, and a second one only when the first removed
    more than a 1 - 1/sqrt(2) share of the norm (Daniel, Gragg, Kaufman &
    Stewart, Math. Comp. 30, 1976).  Returns (w, V); V holds Ritz vectors
    as columns.

    Raises SizeError when repeated breakdowns prevent convergence.
    """
    if max_iter is None:
        max_iter = min(dim, 500)
    max_iter = min(max_iter, dim)
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(dim)
    q /= np.linalg.norm(q)
    basis = np.empty((max_iter, dim))
    basis[0] = q
    alpha: list[float] = []
    beta: list[float] = []
    prev = None
    restarts = 0
    j = 0
    while j < max_iter:
        w = matvec(basis[j])
        a = float(basis[j] @ w)
        alpha.append(a)
        w = w - a * basis[j]
        if j > 0:
            w = w - beta[-1] * basis[j - 1]
        before = float(np.linalg.norm(w))
        w -= basis[: j + 1].T @ (basis[: j + 1] @ w)
        b = float(np.linalg.norm(w))
        if b < before / np.sqrt(2.0):
            w -= basis[: j + 1].T @ (basis[: j + 1] @ w)
            b = float(np.linalg.norm(w))
        j += 1
        if j >= max(2 * k + 2, 6) and (j % 10 == 0 or j == max_iter or b < 1e-13):
            vals = tridiag_lowest(np.array(alpha), np.array(beta), k)
            if prev is not None and len(vals) >= k:
                err = float(np.abs(vals[:k] - prev[:k]).max())
                if err < tol * max(1.0, float(np.abs(vals).max())):
                    break
            prev = vals
        if b < 1e-13:
            if j >= dim:
                break
            restarts += 1
            if restarts > 3:
                raise SizeError("Lanczos breakdown: invariant subspace too small")
            q = rng.standard_normal(dim)
            for _ in range(2):
                q -= basis[:j].T @ (basis[:j] @ q)
            nq = np.linalg.norm(q)
            if nq < 1e-10:
                break
            if j < max_iter:
                basis[j] = q / nq
                beta.append(0.0)
            continue
        if j < max_iter:
            basis[j] = w / b
            beta.append(b)
    alpha_arr = np.array(alpha)
    beta_arr = np.array(beta[: len(alpha_arr) - 1])
    kk = min(k, len(alpha_arr))
    vals = tridiag_lowest(alpha_arr, beta_arr, kk)
    y = tridiag_eigvecs(alpha_arr, beta_arr, vals)
    # y.T @ basis, not basis.T @ y: OpenBLAS packs a transposed basis into
    # per-thread gemm buffers, tens of MiB resident with two threads
    vecs = (y.T @ basis[: len(alpha_arr)]).T
    vecs /= np.linalg.norm(vecs, axis=0, keepdims=True)
    for i in range(kk):
        vals[i] = float(vecs[:, i] @ matvec(vecs[:, i]))
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


# ---------------------------------------------------------------------------
# General complex eigenvalues for small dense matrices

def _hessenberg(A: np.ndarray) -> np.ndarray:
    H = A.astype(complex).copy()
    n = H.shape[0]
    for kcol in range(n - 2):
        x = H[kcol + 1 :, kcol].copy()
        nx = np.linalg.norm(x)
        if nx < 1e-300:
            continue
        v = x.copy()
        piv = x[0]
        phase = piv / abs(piv) if abs(piv) > 0 else 1.0
        v[0] += phase * nx
        nv = np.linalg.norm(v)
        if nv < 1e-300:
            continue
        v /= nv
        H[kcol + 1 :, kcol:] -= 2.0 * np.outer(v, v.conj() @ H[kcol + 1 :, kcol:])
        H[:, kcol + 1 :] -= 2.0 * np.outer(H[:, kcol + 1 :] @ v, v.conj())
    return H


def _givens(f: complex, g: complex):
    """Rotation G = [[c, s], [-conj(s), c]] with G @ (f, g) = (r, 0)."""
    if g == 0:
        return 1.0, 0.0 + 0.0j
    if f == 0:
        return 0.0, 1.0 + 0.0j
    r = np.hypot(abs(f), abs(g))
    c = abs(f) / r
    s = (f / abs(f)) * np.conj(g) / r
    return c, s


def _eig2(a, b, c, d):
    """Eigenvalues of [[a, b], [c, d]], product form to limit cancellation."""
    tr = a + d
    det = a * d - b * c
    disc = np.sqrt(tr * tr - 4.0 * det + 0.0j)
    l1 = 0.5 * (tr + disc)
    l2 = 0.5 * (tr - disc)
    if abs(l1) > abs(l2) and abs(l1) > 0:
        l2 = det / l1
    elif abs(l2) > 0:
        l1 = det / l2
    return l1, l2


def eig_general(A: np.ndarray, max_steps: int = 400) -> np.ndarray:
    """All eigenvalues of a small general complex matrix.

    Hessenberg reduction followed by Wilkinson-shifted QR with deflation.
    Unsorted output.
    """
    A = np.asarray(A)
    n = A.shape[0]
    if A.ndim != 2 or A.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 0:
        return np.zeros(0, dtype=complex)
    if n == 1:
        return A.astype(complex).ravel().copy()
    scale = max(float(np.abs(A).max()), 1e-300)
    H = _hessenberg(A / scale)
    eps = 1e-16
    eigs = []
    hi = n - 1
    stagnation = 0
    steps = 0
    while hi >= 0 and steps < max_steps:
        for i in range(hi, 0, -1):
            if abs(H[i, i - 1]) <= eps * (abs(H[i - 1, i - 1]) + abs(H[i, i]) + 1e-300):
                H[i, i - 1] = 0.0
        if hi == 0 or H[hi, hi - 1] == 0.0:
            eigs.append(H[hi, hi])
            hi -= 1
            stagnation = 0
            continue
        if hi == 1 or H[hi - 1, hi - 2] == 0.0:
            l1, l2 = _eig2(H[hi - 1, hi - 1], H[hi - 1, hi], H[hi, hi - 1], H[hi, hi])
            eigs.extend([l1, l2])
            hi -= 2
            stagnation = 0
            continue
        l1, l2 = _eig2(H[hi - 1, hi - 1], H[hi - 1, hi], H[hi, hi - 1], H[hi, hi])
        shift = l1 if abs(l1 - H[hi, hi]) <= abs(l2 - H[hi, hi]) else l2
        stagnation += 1
        if stagnation % 12 == 0:
            shift = H[hi, hi] + abs(H[hi, hi - 1])  # exceptional shift
        W = H[: hi + 1, : hi + 1]
        W -= shift * np.eye(hi + 1)
        rots = []
        for i in range(hi):
            c, s = _givens(W[i, i], W[i + 1, i])
            rots.append((c, s))
            ri = W[i, :].copy()
            rn = W[i + 1, :].copy()
            W[i, :] = c * ri + s * rn
            W[i + 1, :] = -np.conj(s) * ri + c * rn
        for i, (c, s) in enumerate(rots):
            ci = W[:, i].copy()
            cn = W[:, i + 1].copy()
            W[:, i] = c * ci + np.conj(s) * cn
            W[:, i + 1] = -s * ci + c * cn
        W += shift * np.eye(hi + 1)
        steps += 1
    if hi >= 0 and steps >= max_steps:
        raise RuntimeError("QR iteration failed to converge")
    return scale * np.array(eigs[::-1], dtype=complex)


def null_basis(M: np.ndarray, nullity: int) -> list[np.ndarray]:
    """Basis of an (approximate) nullspace of known dimension.

    Full-pivot Gaussian elimination with exactly rank = n - nullity steps;
    the remaining columns are treated as free variables.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    U = M.copy()
    colperm = np.arange(n)
    rank = n - nullity
    steps = 0
    for step in range(rank):
        sub = np.abs(U[step:, step:])
        p, q = np.unravel_index(np.argmax(sub), sub.shape)
        p += step
        q += step
        if sub.max() < 1e-14 * max(1.0, float(np.abs(M).max())):
            break
        if p != step:
            U[[step, p], :] = U[[p, step], :]
        if q != step:
            U[:, [step, q]] = U[:, [q, step]]
            colperm[[step, q]] = colperm[[q, step]]
        U[step + 1 :, step:] -= np.outer(U[step + 1 :, step] / U[step, step], U[step, step:])
        steps += 1
    basis = []
    for j in range(steps, n):
        x = np.zeros(n, dtype=complex)
        x[j] = 1.0
        for i in range(steps - 1, -1, -1):
            x[i] = -(U[i, i + 1 :] @ x[i + 1 :]) / U[i, i]
        y = np.zeros(n, dtype=complex)
        y[colperm] = x
        y /= np.linalg.norm(y)
        basis.append(y)
    return basis
