"""Dense complex linear algebra kernels: clustered Hermitian eigendecompositions,
spectral and range projections, and the operator norm.

Matrices are plain complex ``numpy`` arrays.  Every operation is a pure
function; tolerances are carried by an explicit :class:`NumericConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonSquare, NotHermitian


@dataclass(frozen=True)
class NumericConfig:
    """Tolerance knobs shared by the whole library.

    rank_tol         relative singular-value cutoff of the rank rule (see rank)
    membership_tol   residual cutoff for membership / zero tests
    eig_cluster_tol  absolute width used to merge near-degenerate eigenvalues
    """

    rank_tol: float = 1e-9
    membership_tol: float = 1e-8
    eig_cluster_tol: float = 1e-9

    def __post_init__(self):
        if not (self.rank_tol > 0 and self.membership_tol > 0 and self.eig_cluster_tol > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.rank_tol >= 1:
            raise ValueError("rank_tol must be < 1")


DEFAULT_CONFIG = NumericConfig()


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise NonSquare(f"expected a matrix, got shape {m.shape}")
    return m


def as_square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {m.shape}")
    return m


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def op_norm(a) -> float:
    """Operator norm (largest singular value); 0 for empty input."""
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def is_hermitian(a, cfg: NumericConfig = DEFAULT_CONFIG) -> bool:
    m = as_square(a)
    asym = m - m.conj().T
    # the HS norm bounds the operator norm, and the cutoff is at least membership_tol
    if hs_norm(asym) <= cfg.membership_tol:
        return True
    return op_norm(asym) <= cfg.membership_tol * max(1.0, op_norm(m))


def _eig_clusters(a, cfg: NumericConfig):
    """The clustering rule of hermitian_eig: the cluster means, strictly
    ascending, and the eigenvector block (orthonormal columns) of each
    cluster, in order, so the blocks side by side are the whole unitary."""
    m = as_square(a)
    if not is_hermitian(m, cfg):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    h = (m + m.conj().T) / 2
    w, v = np.linalg.eigh(h)
    values = []
    blocks = []
    i = 0
    n = len(w)
    while i < n:
        j = i + 1
        # grow the cluster while consecutive gaps stay below the merge width
        while j < n and w[j] - w[j - 1] <= cfg.eig_cluster_tol:
            j += 1
        values.append(float(np.mean(w[i:j])))
        blocks.append(v[:, i:j])
        i = j
    return values, blocks


def hermitian_eig(a, cfg: NumericConfig = DEFAULT_CONFIG):
    """Clustered eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, projections)`` with eigenvalues strictly ascending
    after merging values within ``eig_cluster_tol``, and one orthogonal
    projection per cluster.  The input is symmetrized before decomposition.
    """
    values, blocks = _eig_clusters(a, cfg)
    return values, [b @ b.conj().T for b in blocks]


def spectral_projection(a, kind: str, threshold: float, cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Spectral projection of a Hermitian matrix onto a closed half-line.

    ``kind`` is ``"le"`` for (-inf, threshold] or ``"ge"`` for [threshold, inf).
    Boundary membership is inclusive within ``eig_cluster_tol``.
    """
    if kind not in ("le", "ge"):
        raise ValueError(f"kind must be 'le' or 'ge', got {kind!r}")
    values, projections = hermitian_eig(a, cfg)
    n = as_square(a).shape[0]
    out = np.zeros((n, n), dtype=complex)
    for lam, p in zip(values, projections):
        if kind == "le" and lam <= threshold + cfg.eig_cluster_tol:
            out += p
        elif kind == "ge" and lam >= threshold - cfg.eig_cluster_tol:
            out += p
    return out


def rank(s, cfg: NumericConfig = DEFAULT_CONFIG, scale: float = 0.0):
    """The rank rule, the one place rank_tol is read: the number of values of
    ``s`` (singular values, or eigenvalues of a Gram matrix) above
    rank_tol * max(max(s), scale).  A positive ``scale`` floors the cutoff
    where an all-noise ``s`` must count as rank 0.  A stack of rows (the
    singular values of a batched SVD) gives one rank per row, as an array."""
    s = np.asarray(s)
    above = s > cfg.rank_tol * np.maximum(s.max(axis=-1, initial=0.0, keepdims=True), scale)
    return int(np.count_nonzero(above)) if s.ndim == 1 else above.sum(axis=-1)


def range_basis(a, cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Orthonormal columns spanning the column span of ``a``: its left
    singular vectors counted by the rank rule (n x 0 for zero input)."""
    m = as_matrix(a)
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, : rank(s, cfg)]


def _natural_range_basis(p: np.ndarray, cfg: NumericConfig) -> np.ndarray:
    """Orthonormal basis of ran(p) by Gram-Schmidt over its columns in
    natural order: it depends on ran(p) alone (keeps coordinate alignment
    for diagonal projections, and fixes the witnesses of geometry)."""
    n = p.shape[0]
    picked = []
    for j in range(n):
        v = p[:, j].astype(complex)
        for u in picked:
            v = v - (u.conj() @ v) * u
        nrm = np.linalg.norm(v)
        # p is a projection only within membership_tol, so a dependent column
        # leaves a remainder of order sqrt(membership_tol), not of order tol
        if nrm > math.sqrt(cfg.membership_tol):
            picked.append(v / nrm)
    return np.stack(picked, axis=1) if picked else np.zeros((n, 0), dtype=complex)


def range_projection(a, cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Orthogonal projection onto the column span of ``a``.

    Accepts rectangular input (n x k column stacks); the result is n x n.
    """
    basis = range_basis(a, cfg)
    return basis @ basis.conj().T


def commutes_each(r, mats, cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Whether ``r`` commutes with each matrix B of a (k, n, n) stack, one
    boolean each: ||r B - B r|| <= membership_tol * max(1, ||B||)."""
    mats = np.asarray(mats, dtype=complex)
    comm = np.linalg.norm(r @ mats - mats @ r, 2, axis=(1, 2))
    return comm <= cfg.membership_tol * np.maximum(1.0, np.linalg.norm(mats, 2, axis=(1, 2)))


def is_projection(p, cfg: NumericConfig = DEFAULT_CONFIG) -> bool:
    m = as_square(p)
    residuals = np.stack([m - m.conj().T, m @ m - m])
    # the HS norm bounds the operator norm, and the cutoff is at least membership_tol
    if np.linalg.norm(residuals, axis=(1, 2)).max() <= cfg.membership_tol:
        return True
    # |P - P*|, |P^2 - P| and |P| in one batched SVD call
    asym, idem, norm = np.linalg.norm(np.concatenate([residuals, m[None]]), 2, axis=(1, 2))
    tol = cfg.membership_tol * max(1.0, norm)
    return bool(asym <= tol and idem <= tol)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a Ginibre matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2
