"""Finite-size exact-diagonalization oracle.

The dense model conserves the per-cluster total spin, so its low-energy
physics at size N lives in a product of two spin-(N/4) multiplets of
dimension (N/2+1)^2; that sector Hamiltonian is a sum of Kronecker
products of the tridiagonal ladder matrix.  The sparse model has no such
reduction and is diagonalized in the full 2^N space at small N, where
every term flips a fixed set of bits.  One full-space builder serves both
couplings, which differ only in the intercluster adjacency: site r to
site r at weight 1/2 (sparse), every pair at weight 1/N (dense, a test
reference for the sector).  All are ``scipy.sparse`` CSR matrices
(imported on the first build), a sector row with about 9 nonzeros.
Small problems go to LAPACK ``eigh``, larger ones to ARPACK's
implicitly restarted Lanczos (``scipy.sparse.linalg.eigsh``), whose
Krylov basis stays at a fixed number of vectors whatever the dimension;
both return energies, ground magnetizations, and the gap.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ConvergenceError, SizeError
from .model import Coupling, ModelSpec, _coeffs, _require

_MATERIALIZE_LIMIT = 4096  # max dimension EDOperator.to_dense will fill
_EIGH_LIMIT = 200          # dense eigh below, ARPACK above
_DENSE_LIMIT_N = 2000      # largest N of the dense sector oracle
_SPARSE_LIMIT_N = 14       # largest N of the sparse full-space oracle
_ARPACK_SEED = 7           # seed of the Gaussian ARPACK start vector


@dataclass(frozen=True)
class EDResult:
    energies: np.ndarray   # lowest k, extensive
    m1z: float
    m2z: float
    gap: float


@dataclass(frozen=True)
class EDOperator:
    """Symmetric operator: an exactly symmetric CSR ``matrix``, the ``matvec``
    ARPACK applies (the builders pass ``matrix.dot``) and the magnetization
    diagonals."""

    dim: int
    matvec: Callable[[np.ndarray], np.ndarray]
    m1z_diag: np.ndarray
    m2z_diag: np.ndarray
    matrix: Any

    def to_dense(self) -> np.ndarray:
        if self.dim > _MATERIALIZE_LIMIT:
            raise SizeError(f"refusing to materialize a {self.dim}-dim operator")
        return self.matrix.toarray()


def build_dense_sector_operator(spec: ModelSpec, s: float, N: int) -> EDOperator:
    """Sector Hamiltonian of the dense model as a CSR operator.

    Index i*d + j holds cluster-1 level i and cluster-2 level j, ascending
    m, so cluster-1 operators act as kron(A, I) and cluster-2 ones as
    kron(I, A), with X = S^x / S the tridiagonal ladder matrix.
    """
    import scipy.sparse as sp

    _require(spec, Coupling.DENSE)
    N = int(N)
    if N <= 0 or N % 4 != 0:
        raise ValueError("N must be a positive multiple of 4")
    if N > _DENSE_LIMIT_N:
        raise SizeError(f"N={N} exceeds the N<={_DENSE_LIMIT_N} budget")
    c = _coeffs(spec, s)
    d = N // 2 + 1
    S = N / 4.0
    m = np.arange(d) - S
    mz = m / S
    off = 0.5 * np.sqrt(S * (S + 1.0) - m[:-1] * (m[:-1] + 1.0)) / S
    X = sp.diags([off, off], [-1, 1], format="csr")
    eye = sp.identity(d, format="csr")
    W = N * (
        -c.s2 * (c.h1 * mz[:, None] + c.h2 * mz[None, :])
        - c.s4 * (mz[:, None] ** 2 + mz[None, :] ** 2 + mz[:, None] * mz[None, :])
    )
    H = sp.diags(W.ravel(), format="csr")
    for coeff, A, B in ((c.a1, X, eye), (c.a2, eye, X), (c.c11, X @ X, eye),
                        (c.c22, eye, X @ X), (c.c12, X, X)):
        if coeff:
            H = H - (N * coeff) * sp.kron(A, B, format="csr")
    return EDOperator(dim=d * d, matvec=H.dot, m1z_diag=np.repeat(mz, d),
                      m2z_diag=np.tile(mz, d), matrix=H)


def _full_space_table(N: int) -> np.ndarray:
    """Spin-z table (2^N, N) of +-1, row i holding the bits of i."""
    if N % 2 != 0 or N <= 0:
        raise ValueError("N must be a positive even integer")
    if N > _SPARSE_LIMIT_N:
        raise SizeError(f"N={N} exceeds the full-space limit N<={_SPARSE_LIMIT_N}")
    idx = np.arange(1 << N)
    return 1 - 2 * ((idx[:, None] >> np.arange(N)[None, :]) & 1)


def _full_space_operator(spec: ModelSpec, s: float, N: int, pairs) -> EDOperator:
    """Full 2^N Hamiltonian of either model, as a CSR operator.

    Site r of cluster 1 is bit r, site r of cluster 2 bit N/2 + r.  The two
    models differ only in the intercluster pairs (i, j) of bits, each with
    zz weight -s w and xx weight -s(1-s) xi12 w; both spread the same total
    weight N/4 over their pairs.  Row i holds H[i, i] and then
    H[i, i ^ mask] for each flip mask, all distinct and nonzero.
    """
    import scipy.sparse as sp

    N = int(N)
    sz = _full_space_table(N)
    w = N / (4 * len(pairs))   # exactly 1/2 one-to-one, the rounded 1/N all-to-all
    c = _coeffs(spec, s)
    n2 = N // 2
    z1 = sz[:, :n2].sum(axis=1).astype(float)
    z2 = sz[:, n2:].sum(axis=1).astype(float)
    i, j = np.array(pairs).T
    diag = -c.s * (c.h1 * z1 + c.h2 * z2)
    diag += -(c.s / N) * (z1 * z1 + z2 * z2)
    diag += -(c.s * w) * (sz[:, i] * sz[:, j]).sum(axis=1)
    # transverse fields and catalysts flip bits; coefficients per flip mask
    cs = c.s * (1.0 - c.s)
    xi11, xi22, xi12 = spec.xi11, spec.xi22, spec.xi12
    flips: list[tuple[int, float]] = []
    for r in range(n2):
        flips.append((1 << r, -2.0 * c.a1))
        flips.append((1 << (n2 + r), -2.0 * c.a2))
    for xi, off in ((xi11, 0), (xi22, n2)):   # intracluster catalysts
        if xi:
            diag += -cs * xi / N * n2  # r = r' diagonal of the intracluster sum
            for r in range(n2):
                for rp in range(r + 1, n2):
                    flips.append(((1 << (off + r)) | (1 << (off + rp)), -2.0 * cs * xi / N))
    if xi12:
        for a, b in pairs:
            flips.append(((1 << a) | (1 << b), -cs * xi12 * w))
    dim = diag.size
    width = 1 + len(flips)
    idx = np.arange(dim, dtype=np.int32)
    indices = np.empty((dim, width), dtype=np.int32)
    data = np.empty((dim, width))
    indices[:, 0] = idx
    data[:, 0] = diag
    for k, (mask, coeff) in enumerate(flips, start=1):
        indices[:, k] = idx ^ mask
        data[:, k] = coeff
    indptr = np.arange(0, dim * width + 1, width, dtype=np.int32)
    H = sp.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(dim, dim))
    return EDOperator(dim=dim, matvec=H.dot, m1z_diag=z1 / n2, m2z_diag=z2 / n2, matrix=H)


def build_sparse_full_hamiltonian(spec: ModelSpec, s: float, N: int) -> EDOperator:
    """Full 2^N Hamiltonian of the sparse model, as a CSR operator: site r
    of cluster 1 couples to site r of cluster 2 only, with weight 1/2."""
    _require(spec, Coupling.SPARSE)
    n2 = int(N) // 2
    return _full_space_operator(spec, s, N, [(r, n2 + r) for r in range(n2)])


def build_dense_full_operator(spec: ModelSpec, s: float, N: int) -> EDOperator:
    """Full 2^N Hamiltonian of the dense model (sector-validation helper):
    every site of cluster 1 couples to every site of cluster 2, weight 1/N."""
    _require(spec, Coupling.DENSE)
    n2 = int(N) // 2
    return _full_space_operator(spec, s, N, [(r, n2 + rp) for r in range(n2) for rp in range(n2)])


def ed_solve(op: EDOperator, k: int = 2, tol: float = 1e-12) -> EDResult:
    """Lowest-k eigenpairs and ground-state magnetizations of an EDOperator.

    Dense ``eigh`` on ``op.to_dense()`` handles dimensions up to 200;
    ARPACK ``eigsh`` (smallest algebraic, relative accuracy ``tol``) takes
    over above that, from a Gaussian start vector drawn with a fixed seed so
    that no symmetry sector is missed and reruns are identical.  Ground
    states degenerate within 1e-10 are averaged over the whole multiplet:
    when all k ARPACK values are degenerate the multiplet may be larger
    than k, so the solve is redone with dense ``eigh`` if the size allows
    (dim <= 4096), and averaged over the k pairs otherwise.

    Raises ConvergenceError when ARPACK does not converge.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if op.dim <= _EIGH_LIMIT:
        w, V = np.linalg.eigh(op.to_dense())
    else:
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

        A = LinearOperator((op.dim, op.dim), matvec=op.matvec, dtype=float)
        v0 = np.random.default_rng(_ARPACK_SEED).standard_normal(op.dim)
        try:
            w, V = eigsh(A, k=k, which="SA", tol=tol, v0=v0)
        except ArpackNoConvergence as err:
            raise ConvergenceError(f"ARPACK did not converge at dim {op.dim}: {err}") from err
        order = np.argsort(w)
        w, V = w[order], V[:, order]
        if w[-1] < w[0] + 1e-10 and op.dim <= _MATERIALIZE_LIMIT:
            w, V = np.linalg.eigh(op.to_dense())
    # degeneracy-averaged ground expectations
    nground = max(1, int(np.sum(w < w[0] + 1e-10)))
    P = (V[:, :nground] ** 2).sum(axis=1) / nground
    m1z = float(P @ op.m1z_diag)
    m2z = float(P @ op.m2z_diag)
    return EDResult(energies=np.asarray(w[:k], dtype=float), m1z=m1z, m2z=m2z,
                    gap=float(w[1] - w[0]) if len(w) > 1 else 0.0)


def dense_ed(spec: ModelSpec, s: float, N: int, k: int = 2, **kw) -> EDResult:
    """Sector ED of the dense model; ``ed_solve`` picks the solver by size."""
    return ed_solve(build_dense_sector_operator(spec, s, N), k=k, **kw)


def sparse_ed(spec: ModelSpec, s: float, N: int, k: int = 2, **kw) -> EDResult:
    """Full-space ED of the sparse model at small N."""
    return ed_solve(build_sparse_full_hamiltonian(spec, s, N), k=k, **kw)


def gap_sequence(spec: ModelSpec, s: float, sizes) -> np.ndarray:
    """ED gaps at the given system sizes (dense sector path)."""
    return np.array([dense_ed(spec, s, int(N)).gap for N in sizes])


def extrapolate_gap(sizes, gaps) -> float:
    """Intercept of the least-squares linear fit of gap against 1/N.

    A line through one size has no defined intercept, so fewer than two
    distinct sizes raise ValueError.
    """
    if len(set(sizes)) < 2:
        raise ValueError(f"extrapolation needs at least two distinct sizes, got {list(sizes)}")
    x = 1.0 / np.asarray(sizes, dtype=float)
    y = np.asarray(gaps, dtype=float)
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[1])
