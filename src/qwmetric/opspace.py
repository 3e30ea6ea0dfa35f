"""Arithmetic of linear subspaces of M_n(C) under the Hilbert-Schmidt inner
product: spans, sums, intersections, span products, commutants and generated
von Neumann algebras.

A subspace is stored as an HS-orthonormal basis, shape (k, n, n).  The zero
subspace has an empty basis.  All coefficient arithmetic is over C.
"""

from __future__ import annotations

import numpy as np

from .errors import MixedDimensions
from .numerics import DEFAULT_CONFIG, NumericConfig, as_square, eye, hs_norm, rank

_BUDGET = 1 << 20  # complex entries a batch of products may hold, about 16 MB
# entries from which a tall stack's R factor pays for itself before the SVD (one
# BLAS thread: 256 x 4 takes 60 us either way, 16 x 1 13 us by SVD, 32 us with R)
_R_FIRST = 1 << 10

__all__ = [
    "OperatorSubspace",
    "VNAlgebra",
    "span",
    "sum_spaces",
    "intersect",
    "product_span",
    "adjoint",
    "tensor",
    "commutant",
    "generated_vn_algebra",
    "full_space",
    "scalar_space",
]


class OperatorSubspace:
    """A linear subspace of M_n(C) with an HS-orthonormal basis."""

    def __init__(self, ambient_dim: int, basis: np.ndarray):
        self.n = int(ambient_dim)
        basis = np.asarray(basis, dtype=complex)
        if basis.size == 0:
            basis = np.zeros((0, self.n, self.n), dtype=complex)
        if basis.ndim != 3 or basis.shape[1:] != (self.n, self.n):
            raise MixedDimensions(f"basis shape {basis.shape} does not match ambient {self.n}")
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def _flat(self) -> np.ndarray:
        return self.basis.reshape(self.dim, self.n * self.n)

    def coefficients(self, a) -> np.ndarray:
        """HS coordinates of ``a`` against the basis."""
        v = np.asarray(a, dtype=complex).reshape(-1)
        return self._flat().conj() @ v

    def project(self, a) -> np.ndarray:
        """HS-orthogonal projection of ``a`` onto the subspace."""
        if self.dim == 0:
            return np.zeros((self.n, self.n), dtype=complex)
        c = self.coefficients(a)
        return np.tensordot(c, self.basis, axes=(0, 0))

    def contains_each(self, mats, cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
        """Membership of every matrix of a (k, n, n) stack, one boolean
        each: the HS residual after projection is at most
        membership_tol * max(1, |A|_HS), at any size of A."""
        mats = np.asarray(mats, dtype=complex)
        if mats.ndim != 3 or mats.shape[1:] != (self.n, self.n):
            raise MixedDimensions(f"stack of shape {mats.shape} vs ambient {self.n}")
        flat = mats.reshape(len(mats), self.n * self.n)
        rows = self._flat()
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(flat, axis=1)
            residual = np.linalg.norm(flat - (flat @ rows.conj().T) @ rows, axis=1)
        inside = residual <= cfg.membership_tol * np.maximum(1.0, norms)
        if not np.isfinite(norms.sum()):  # squares that overflow: decided again at unit size
            redo = ~np.isfinite(norms) & np.isfinite(flat).all(axis=1)
            inside[redo] = self.contains_each(mats[redo] / np.abs(mats[redo]).max(axis=(1, 2))[:, None, None], cfg)
        return inside

    def contains(self, a, cfg: NumericConfig = DEFAULT_CONFIG) -> bool:
        return bool(self.contains_each(as_square(a)[None], cfg)[0])

    def contains_space(self, other: "OperatorSubspace", cfg: NumericConfig = DEFAULT_CONFIG) -> bool:
        return not other.dim or bool(self.contains_each(other.basis, cfg).all())

    def equals(self, other: "OperatorSubspace", cfg: NumericConfig = DEFAULT_CONFIG) -> bool:
        """Mutual containment; insensitive to basis order and rotation."""
        if self.n != other.n:
            return False
        return (
            self.dim == other.dim
            and self.contains_space(other, cfg)
            and other.contains_space(self, cfg)
        )

    def is_self_adjoint(self, cfg: NumericConfig = DEFAULT_CONFIG) -> bool:
        return bool(self.contains_each(adjoint(self).basis, cfg).all())

    def is_unital(self, cfg: NumericConfig = DEFAULT_CONFIG) -> bool:
        return self.contains(eye(self.n), cfg)

    def is_operator_system(self, cfg: NumericConfig = DEFAULT_CONFIG) -> bool:
        return self.is_unital(cfg) and self.is_self_adjoint(cfg)

    def __repr__(self):
        return f"OperatorSubspace(n={self.n}, dim={self.dim})"


class VNAlgebra(OperatorSubspace):
    """An OperatorSubspace verified to be a von Neumann algebra
    (unital, self-adjoint, closed under products)."""

    def __init__(self, ambient_dim: int, basis: np.ndarray, cfg: NumericConfig = DEFAULT_CONFIG, verify: bool = True):
        super().__init__(ambient_dim, basis)
        if verify:
            _check_algebra(self, self.basis, cfg)


def _check_algebra(alg: OperatorSubspace, left: np.ndarray, cfg: NumericConfig) -> None:
    """Raise MixedDimensions unless ``alg`` holds I, the adjoint of each
    element and every product of a matrix of ``left`` (k, n, n) with an
    element: ``left`` is the basis, or a family whose words span ``alg``."""
    if not alg.is_unital(cfg):
        raise MixedDimensions("algebra must contain the identity")
    if not alg.is_self_adjoint(cfg):
        raise MixedDimensions("algebra must be closed under adjoints")
    for _, prods in _products(left, alg.basis):
        if not alg.contains_each(prods, cfg).all():
            raise MixedDimensions("algebra must be closed under products")


def _products(left: np.ndarray, right: np.ndarray):
    """The products L_a R_b of a (p, n, n) and a (q, n, n) stack, a major, in
    blocks of rows a of _BUDGET entries (one row at least): yields each
    block's first a and its (rows * q, n, n) products."""
    (p, n, _), q = left.shape, len(right)
    rows = max(1, _BUDGET // max(1, q * n * n))
    for a0 in range(0, p, rows):
        yield a0, np.matmul(left[a0 : a0 + rows, None], right[None]).reshape(-1, n, n)


def _is_orthonormal(rows: np.ndarray, cfg: NumericConfig, peak: float) -> bool:
    """The keep-as-given rule of _orthonormalize: the Gram matrix of the rows
    is the identity within membership_tol, entrywise.  More rows than
    columns, or an entry of modulus ``peak`` past 1 + membership_tol, cannot
    be orthonormal, so their Gram (which could overflow) is not formed."""
    if rows.shape[0] > rows.shape[1] or peak > 1 + cfg.membership_tol:
        return False
    return np.abs(rows.conj() @ rows.T - np.eye(len(rows))).max(initial=0.0) <= cfg.membership_tol


def _orthonormalize(rows: np.ndarray, n: int, cfg: NumericConfig, scale: float = 0.0, unit_rows: bool = False) -> np.ndarray:
    """HS-orthonormal basis of the span of stacked vectorizations, the one
    re-span path; returns (k, n, n).  A family that passes _is_orthonormal is
    kept as given (stable matrix-unit bases, bitwise JSON round trips); any
    other is replaced by its right singular vectors counted by the rank rule,
    with ``scale`` as its floor (the size of the rows before a projection
    left them), a large tall stack through its QR factor R (as in
    null_space_rows).

    With ``unit_rows`` the rows may be of any size: a family that is
    re-spanned has each row divided by its largest modulus, then by its HS
    norm, so the rank rule weighs every row alike and a tiny row counts in full."""
    if unit_rows:
        peak = np.abs(rows).max(axis=1, initial=0.0)
        rows, peak = rows[peak > 0], peak[peak > 0]
    else:
        rows = rows[np.linalg.norm(rows, axis=1) > 0]
    if _is_orthonormal(rows, cfg, peak.max(initial=0.0) if unit_rows else 0.0):
        return rows.reshape(-1, n, n)
    if unit_rows:
        rows = rows / peak[:, None]
        rows = rows / np.linalg.norm(rows, axis=1)[:, None]
    if rows.shape[0] > rows.shape[1] and rows.size >= _R_FIRST:
        rows = np.linalg.qr(rows, mode="r")
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[: rank(s, cfg, scale)].reshape(-1, n, n)


def _extend(flat: np.ndarray, cand: np.ndarray, n: int, cfg: NumericConfig) -> np.ndarray:
    """The part of span(cand) outside the span of the orthonormal rows
    ``flat``, as further orthonormal rows (k, n^2): the candidates' residual
    against ``flat`` through _orthonormalize, floored at 1, the size of an
    orthonormal row.  Candidates are orthonormal rows or products of them,
    so a residual of rounding noise adds nothing, even when every candidate
    is itself noise (a product of blocks that is exactly 0)."""
    resid = cand - (cand @ flat.conj().T) @ flat
    return _orthonormalize(resid, n, cfg, 1.0).reshape(-1, n * n)


def span(mats, ambient_dim: int | None = None, cfg: NumericConfig = DEFAULT_CONFIG) -> OperatorSubspace:
    """HS-orthonormal span of a family of n x n matrices."""
    mats = [as_square(m) for m in mats]
    if ambient_dim is None:
        if not mats:
            raise MixedDimensions("cannot infer ambient dimension from an empty family")
        ambient_dim = mats[0].shape[0]
    if any(m.shape[0] != ambient_dim for m in mats):
        raise MixedDimensions("matrices of mixed sizes")
    if not mats:
        return OperatorSubspace(ambient_dim, np.zeros((0, ambient_dim, ambient_dim)))
    rows = np.stack([m.reshape(-1) for m in mats])
    return OperatorSubspace(ambient_dim, _orthonormalize(rows, ambient_dim, cfg))


def full_space(n: int) -> OperatorSubspace:
    """All of M_n, with the matrix-unit basis."""
    return OperatorSubspace(n, np.eye(n * n, dtype=complex).reshape(n * n, n, n))


def scalar_space(n: int) -> OperatorSubspace:
    """The scalars C.I inside M_n."""
    return OperatorSubspace(n, (eye(n) / np.sqrt(n))[None, :, :])


def _common_ambient(s: OperatorSubspace, t: OperatorSubspace) -> int:
    if s.n != t.n:
        raise MixedDimensions(f"ambient dimensions differ: {s.n} vs {t.n}")
    return s.n


def sum_spaces(s: OperatorSubspace, t: OperatorSubspace, cfg: NumericConfig = DEFAULT_CONFIG) -> OperatorSubspace:
    n = _common_ambient(s, t)
    rows = np.concatenate([s._flat(), t._flat()], axis=0)
    return OperatorSubspace(n, _orthonormalize(rows, n, cfg))


def _complement_rows(s: OperatorSubspace, cfg: NumericConfig) -> np.ndarray:
    """Orthonormal basis (as rows) of the HS orthocomplement of ``s``."""
    if s.dim == 0:
        return np.eye(s.n * s.n, dtype=complex)
    # null space of the coefficient map v -> conj(flat) @ v
    return null_space_rows(s._flat().conj(), cfg)


def complement(s: OperatorSubspace, cfg: NumericConfig = DEFAULT_CONFIG) -> OperatorSubspace:
    """HS orthocomplement inside M_n."""
    return OperatorSubspace(s.n, _complement_rows(s, cfg).reshape(-1, s.n, s.n))


def intersect(s: OperatorSubspace, t: OperatorSubspace, cfg: NumericConfig = DEFAULT_CONFIG) -> OperatorSubspace:
    """S cap T computed as the orthocomplement of S-perp + T-perp."""
    n = _common_ambient(s, t)
    rows = np.concatenate([_complement_rows(s, cfg), _complement_rows(t, cfg)], axis=0)
    perp_sum = OperatorSubspace(n, _orthonormalize(rows, n, cfg))
    return complement(perp_sum, cfg)


def product_span(s: OperatorSubspace, t: OperatorSubspace, cfg: NumericConfig = DEFAULT_CONFIG) -> OperatorSubspace:
    """span{B C : B in S, C in T}."""
    n = _common_ambient(s, t)
    if s.dim == 0 or t.dim == 0:
        return OperatorSubspace(n, np.zeros((0, n, n)))
    prods = np.einsum("aij,bjk->abik", s.basis, t.basis).reshape(-1, n * n)
    return OperatorSubspace(n, _orthonormalize(prods, n, cfg))


def adjoint(s: OperatorSubspace) -> OperatorSubspace:
    """span{B* : B in S}; adjoints of an orthonormal family stay orthonormal."""
    return OperatorSubspace(s.n, np.conj(np.transpose(s.basis, (0, 2, 1))))


def tensor(s: OperatorSubspace, t: OperatorSubspace, cfg: NumericConfig = DEFAULT_CONFIG) -> OperatorSubspace:
    """span{B (x) C} inside M_{nm}; Kronecker products of the bases."""
    return OperatorSubspace(s.n * t.n, kron_stack(s.basis, t.basis))


def kron_stack(a: np.ndarray, b: np.ndarray, order: np.ndarray | None = None) -> np.ndarray:
    """The Kronecker products a_i (x) b_j of a (p, n, n) and a (q, k, k)
    stack, as one (p*q, nk, nk) stack with i major, or with pair i*q + j at
    the place it takes in ``order``.  The products are written straight into
    the stack, a slice as long as the larger input at a time, so they are
    held once and never sorted."""
    (p, n, _), (q, k, _) = a.shape, b.shape
    order = np.arange(p * q) if order is None else order
    out, step = np.empty((p * q, n * k, n * k), dtype=complex), max(p, q)
    for start in range(0, p * q, step):
        i, j = np.divmod(order[start : start + step], q)
        np.einsum("aij,akl->aikjl", a[i], b[j], out=out[start : start + len(i)].reshape(-1, n, k, n, k))
    return out


def commutant(gens, n: int, cfg: NumericConfig = DEFAULT_CONFIG) -> VNAlgebra:
    """{X : XA = AX for every generator A}, as a verified algebra.

    Computed as the joint null space of the maps X -> XA - AX.  Row-major
    vectorization gives vec(XA) = (I (x) A^T) vec(X) and vec(AX) =
    (A (x) I) vec(X).
    """
    gens = [as_square(g) for g in gens]
    if any(g.shape[0] != n for g in gens):
        raise MixedDimensions("generator size does not match ambient dimension")
    if not gens:
        return VNAlgebra(n, full_space(n).basis, cfg, verify=False)
    a = np.stack(gens)
    ident = np.broadcast_to(np.eye(n), a.shape)
    # both Kronecker blocks of every generator in one einsum: row (m, i, j),
    # column (k, l) holds delta_ik A_m[l, j] - A_m[i, k] delta_jl
    k = np.einsum("pmik,pmjl->mijkl", np.stack([ident, -a]), np.stack([a.transpose(0, 2, 1), ident])).reshape(-1, n * n)
    # the cutoff needs an absolute floor at the generator scale: a zero
    # constraint matrix carries pure rounding noise in its singular values
    scale = max(1.0, max(hs_norm(g) for g in gens))
    basis = null_space_rows(k, cfg, scale).reshape(-1, n, n)
    return VNAlgebra(n, basis, cfg)


def null_space_rows(k: np.ndarray, cfg: NumericConfig, scale: float = 1.0) -> np.ndarray:
    """Orthonormal rows spanning the null space of k; the rank rule takes
    ``scale`` as its floor, so noise-level matrices count as zero.  A tall k gives way
    to its QR factor R, with k's singular values and V and no U (R-SVD, Chan 1982)."""
    k = np.linalg.qr(k, mode="r") if k.shape[0] > k.shape[1] else k
    _, sv, vh = np.linalg.svd(k, full_matrices=k.shape[0] < k.shape[1])
    return vh[rank(sv, cfg, scale) :].conj()


def _star_rows(gens, n: int) -> np.ndarray:
    """The generators S and their adjoints S* as (2k, n^2) rows, for a re-span with
    ``unit_rows``: the algebra they generate and its commutant ignore their scale."""
    mats = [m for g in map(as_square, gens) for m in (g, g.conj().T)]
    if any(m.shape[0] != n for m in mats):
        raise MixedDimensions("generator size does not match ambient dimension")
    return np.reshape(mats, (len(mats), n * n)).astype(complex)


def generated_vn_algebra(gens, n: int, cfg: NumericConfig = DEFAULT_CONFIG) -> VNAlgebra:
    """Smallest algebra containing I and the generators, closed under * and
    products.  W_1 = span{I, S, S*} is taken with ``unit_rows``, so I weighs
    as much as each generator at any scale; then the words grow semi-naively,
    W_{k+1} = W_k + W_1 Delta_k with Delta_k the rows W_k added, through
    _extend, until a step adds nothing (at most n^2 steps).  Words in W_1
    span the result B, so its closure check is W_1 B inside B."""
    w1 = _orthonormalize(np.concatenate([eye(n).reshape(1, -1), _star_rows(gens, n)]), n, cfg, unit_rows=True)
    flat, start = w1.reshape(-1, n * n), 0
    while start < len(flat):
        delta, start = flat[start:].reshape(-1, n, n), len(flat)
        for _, prods in _products(w1, delta):
            flat = np.concatenate([flat, _extend(flat, prods.reshape(-1, n * n), n, cfg)])
    alg = VNAlgebra(n, flat.reshape(-1, n, n), cfg, verify=False)
    _check_algebra(alg, w1, cfg)
    return alg
