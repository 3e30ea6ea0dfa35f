"""Projection geometry of a step filtration: the distance function rho on
amplified projections, neighborhoods, closures, Hausdorff distance,
linkability, separation witnesses, and level recovery from probes.

Amplification means working in M_n (x) M_m; the Kronecker convention puts the
base space first, so an operator A acting on the base is A (x) I_m.  Levels
are named by their cuts, and read only through the filtration's methods.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .errors import AlreadyInside, DimensionMismatch, NegativeTime
from .filtration import StepFiltration
from .numerics import (
    DEFAULT_CONFIG,
    NumericConfig,
    _natural_range_basis,
    as_square,
    eye,
    is_projection,
    op_norm,
    projections_each,
    rank,
)
from .opspace import _BUDGET, OperatorSubspace, complement, null_space_rows

__all__ = [
    "AmplifiedProjection",
    "rho",
    "linkable",
    "neighborhood",
    "closure",
    "is_closed",
    "hausdorff_distance",
    "separating_projections",
    "probes_for_level",
    "rebuild_level",
]


class AmplifiedProjection:
    """An orthogonal projection in M_n (x) M_m with declared amplification m."""

    def __init__(self, base_dim: int, amp_degree: int, matrix, cfg: NumericConfig = DEFAULT_CONFIG):
        self.n = int(base_dim)
        self.m = int(amp_degree)
        p = as_square(matrix)
        if self.m < 1:
            raise DimensionMismatch("amplification degree must be >= 1")
        if p.shape[0] != self.n * self.m:
            raise DimensionMismatch(
                f"matrix of size {p.shape[0]} does not match n*m = {self.n * self.m}"
            )
        if not is_projection(p, cfg):
            raise DimensionMismatch("matrix is not an orthogonal projection within tolerance")
        self.matrix = p

    @classmethod
    def base(cls, p, cfg: NumericConfig = DEFAULT_CONFIG) -> "AmplifiedProjection":
        """Wrap an unamplified projection in M_n (m = 1)."""
        p = as_square(p)
        return cls(p.shape[0], 1, p, cfg)

    def padded(self, m: int) -> "AmplifiedProjection":
        """Embed into amplification degree m >= self.m by adjoining zero slots."""
        if m < self.m:
            raise DimensionMismatch("padding cannot shrink the amplification")
        if m == self.m:
            return self
        out = np.zeros((self.n, m, self.n, m), dtype=complex)
        out[:, : self.m, :, : self.m] = self.matrix.reshape(self.n, self.m, self.n, self.m)
        # zero padding keeps |P - P*| and |P^2 - P|, so the check this
        # projection passed under its own config is not run again
        return type(self)._checked(self.n, m, out.reshape(self.n * m, -1))

    @classmethod
    def _checked(cls, base_dim: int, amp_degree: int, matrix: np.ndarray) -> "AmplifiedProjection":
        """Wrap a matrix that has passed the projection check already."""
        p = object.__new__(cls)
        p.n, p.m, p.matrix = base_dim, amp_degree, matrix
        return p

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.matrix).real)))

    def __repr__(self):
        return f"AmplifiedProjection(n={self.n}, m={self.m}, rank={self.rank})"


def _align(p: AmplifiedProjection, q: AmplifiedProjection):
    if p.n != q.n:
        raise DimensionMismatch("base dimensions differ")
    m = max(p.m, q.m)
    return p.padded(m), q.padded(m)


def _unit_compressions(n: int, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """P (E_ij (x) I_m) Q for every matrix unit E_ij and pair of a (g, nm, nm) stack P and a
    (g, nm, c) stack Q, indexed (pair, a, b, i, j): entry (a, b) is sum_s P[a, (i, s)] Q[(j, s), b],
    one batched (g, nm*n, m) @ (g, m, n*c) product, and no matrix unit is formed."""
    (g, nm, c), m = q.shape, p.shape[1] // n
    right = q.reshape(g, n, m, c).transpose(0, 2, 1, 3).reshape(g, m, n * c)
    return (p.reshape(g, nm * n, m) @ right).reshape(g, nm, n, n, c).transpose(0, 1, 4, 2, 3)


def rho(f: StepFiltration, p: AmplifiedProjection, q: AmplifiedProjection, cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """rho(P, Q) = inf{t : P (A (x) I) Q != 0 for some A in V_t}.

    Scanning an HS basis is exact by linearity (the zero test uses the HS
    norm of the compression), so rho is the breakpoint of the grade of the
    first graded element with a nonzero compression.  The scan reads the
    filtration's compression norms piece by piece and stops at the first
    piece holding such an element (+inf if none does).
    """
    if p.n != f.n:
        raise DimensionMismatch("projection base dimension does not match filtration")
    pp, qq = _align(p, q)
    for lo, sq in f._compression_norms(pp.matrix, qq.matrix):
        linked = np.flatnonzero(np.sqrt(sq[0, :, 0]) > cfg.membership_tol)
        if linked.size:
            return f.breakpoints[bisect.bisect_right(f.cuts, lo + linked[0])]
    return math.inf


def _rho_table(f: StepFiltration, blocks, cfg: NumericConfig) -> np.ndarray:
    """rho(P_{<=i}, Q_{>=j}) for every i < j in one scan, P_{<=i} the
    projection onto the columns of blocks[0..i] and Q_{>=j} onto those of
    blocks[j..]: the blocks are orthonormal and together span C^{nm}
    (numerics._eig_clusters).  Entries with i >= j are nan.

    With V the blocks side by side, P = V_{<=i} V_{<=i}* and the HS norm
    is unitarily invariant, so ||P (B (x) I) Q||_HS^2 is the sum of the
    squared HS norms of the blocks (k, l), k <= i <= j <= l, of
    V* (B (x) I) V: a prefix sum over i and a suffix sum over j, held to
    rho's own zero test.  The scan reads the compression norms of rho and
    stops once every pair is linked."""
    v = np.concatenate(blocks, axis=1)
    starts = np.cumsum([0] + [b.shape[1] for b in blocks[:-1]])
    p = len(blocks)
    upper = np.triu(np.ones((p, p), dtype=bool), 1)
    pending, first = upper.copy(), np.full((p, p), -1)
    # squared norms of the cluster blocks, indexed (i, B, j)
    for lo, sq in f._compression_norms(v.conj().T, v, starts, starts) if p > 1 else ():
        sq = np.cumsum(np.cumsum(sq, axis=0)[:, :, ::-1], axis=2)[:, :, ::-1]
        linked = np.sqrt(sq) > cfg.membership_tol
        hit = pending & linked.any(axis=1)
        first[hit] = lo + linked.argmax(axis=1)[hit]
        pending &= ~hit
        if not pending.any():
            break
    table = np.where(upper, math.inf, math.nan)
    found = first >= 0
    table[found] = np.asarray(f.breakpoints)[np.searchsorted(f.cuts, first[found], side="right")]
    return table


def linkable(p: AmplifiedProjection, q: AmplifiedProjection, cfg: NumericConfig = DEFAULT_CONFIG) -> bool:
    """True iff P (A (x) I) Q != 0 for some A in M_n (_unit_compressions)."""
    pp, qq = _align(p, q)
    return bool(np.linalg.norm(_unit_compressions(p.n, pp.matrix[None], qq.matrix[None]), axis=(1, 2)).max() > cfg.membership_tol)


def _range_each(cols: np.ndarray, cfg: NumericConfig) -> np.ndarray:
    """Orthonormal columns spanning the range of each matrix of a stack,
    with one batched SVD: a (g, d, r) stack, r the largest rank, each
    member's columns past its own rank zeroed (they add nothing to its
    range, or to the rank rule of a later range)."""
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    ranks = rank(s, cfg)
    r = ranks.max(initial=0)
    return u[:, :, :r] * (np.arange(r) < ranks[:, None])[:, None, :]


def _spread_projection(f: StepFiltration, cut: int, p: AmplifiedProjection, cfg: NumericConfig) -> np.ndarray:
    """Projection onto (V (x) I_m) ran P, V = span basis[:cut]."""
    if p.n != f.n:
        raise DimensionMismatch("projection base dimension does not match filtration")
    cols = _range_each(f._amplified(0, cut, p.matrix[None]), cfg)[0]
    return cols @ cols.conj().T


def neighborhood(f: StepFiltration, p: AmplifiedProjection, eps: float, cfg: NumericConfig = DEFAULT_CONFIG) -> AmplifiedProjection:
    """Open eps-neighborhood: projection onto (V_{<eps} (x) I) ran(P)."""
    if eps <= 0:
        raise NegativeTime("neighborhood radius must be positive")
    cut = f.cuts[bisect.bisect_left(f.breakpoints, eps) - 1]
    return AmplifiedProjection(p.n, p.m, _spread_projection(f, cut, p, cfg), cfg)


def closure(f: StepFiltration, p: AmplifiedProjection, cfg: NumericConfig = DEFAULT_CONFIG) -> AmplifiedProjection:
    """Projection onto (V_0 (x) I) ran(P), the meet of all step neighborhoods."""
    return AmplifiedProjection(p.n, p.m, _spread_projection(f, f.cuts[0], p, cfg), cfg)


def is_closed(f: StepFiltration, p: AmplifiedProjection, cfg: NumericConfig = DEFAULT_CONFIG) -> bool:
    c = closure(f, p, cfg)
    return op_norm(c.matrix - p.matrix) <= cfg.membership_tol * max(1.0, op_norm(p.matrix))


def _leq(a: np.ndarray, b: np.ndarray, cfg: NumericConfig) -> bool:
    """Projection order a <= b, i.e. b a = a."""
    return op_norm(b @ a - a) <= cfg.membership_tol * max(1.0, op_norm(a))


def hausdorff_distance(f: StepFiltration, p: AmplifiedProjection, q: AmplifiedProjection, cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """inf{eps : P <= (Q)_eps and Q <= (P)_eps}, attained on the breakpoint
    grid for step data (the neighborhood only changes when eps crosses a
    breakpoint)."""
    pp, qq = _align(p, q)
    for t, cut in zip(f.breakpoints, f.cuts):
        np_ = _spread_projection(f, cut, pp, cfg)
        nq = _spread_projection(f, cut, qq, cfg)
        if _leq(pp.matrix, nq, cfg) and _leq(qq.matrix, np_, cfg):
            return t
    return math.inf


def _frames(rows: np.ndarray, cfg: NumericConfig) -> np.ndarray:
    """Orthonormal columns spanning the conjugated rows of each (m, n) member of a stack (right
    singular vectors), chosen from that span alone so that equal spans give equal witnesses."""
    g, m, n = rows.shape
    if m == n:  # all of C^n: the standard basis
        return np.repeat(eye(n)[None], g, axis=0)
    cols = rows.conj().transpose(0, 2, 1)
    # a line: its vector, whose phase P and Q do not see; any other span: the Gram-Schmidt basis
    # of its projector's columns in natural order
    return cols if m == 1 else np.stack([_natural_range_basis(c @ c.conj().T, cfg) for c in cols])


def _separate(f: StepFiltration, level: int, mats: np.ndarray, cfg: NumericConfig) -> list:
    """Witness pairs (P, Q) for every matrix A of a (k, n, n) stack outside
    the level, in stack order.

    Construction: split A = (component in V_t) + C, take an orthonormal basis
    v_1, ..., v_m of ran C* (m by the rank rule; _frames picks it from that
    span alone, so equal inputs give equal pairs), and set Q to the orbit of
    eta = sum v_i (x) e_i under V_0 (x) I_m and P to the complement of
    (V_t (x) I_m) ran(Q).  Then P (A (x) I) Q != 0 while P (B (x) I) Q = 0
    for every B in V_t, so rho(P, Q) exceeds t.  Both projections commute
    with M' (x) I for every compatible context since their ranges are
    invariant under V_0 (x) I.

    One membership pass gives the residuals as one projection of its
    coordinates, and one batched SVD splits them; then each rank m takes one
    spread of the orbits and one of the levels (StepFiltration._amplified, _range_each),
    the projection rule of projections_each on every P and Q, and both separation
    postconditions as one batched compression, in slices of _BUDGET entries."""
    (n, cut), (first, coef) = (f.n, f.cuts[level]), f._levels_and_coordinates(mats, cfg)
    if (first <= level).any():
        raise AlreadyInside(f"matrix already belongs to the level at t = {f.breakpoints[level]}")
    resid = f._residual(mats.reshape(len(mats), n * n), coef[:, :cut], cut)
    _, s, vh = np.linalg.svd(resid.reshape(-1, n, n))
    ranks = rank(s, cfg)
    pairs = [None] * len(mats)
    for m in sorted(set(ranks.tolist())):
        group = np.flatnonzero(ranks == m)
        nm = n * m
        per = max(1, _BUDGET // max(1, cut * nm * nm))  # spread holds cut * nm * r entries, r <= nm
        for idx in (group[lo : lo + per] for lo in range(0, len(group), per)):
            # eta = sum v_i (x) e_i, base index first
            eta = _frames(vh[idx, :m], cfg).reshape(len(idx), nm, 1)
            qcols = _range_each(f._amplified(0, f.cuts[0], eta), cfg)
            # (B (x) I) Q for every B in the level, the columns P must annihilate
            spread = f._amplified(0, cut, qcols)
            lcols = _range_each(spread, cfg)
            q = qcols @ qcols.conj().transpose(0, 2, 1)
            p = eye(nm) - lcols @ lcols.conj().transpose(0, 2, 1)
            if not projections_each(np.concatenate([q, p]), cfg).all():
                raise DimensionMismatch("matrix is not an orthogonal projection within tolerance")
            # numerical verification of the separation postconditions, on the
            # columns of Q (|X Q|_HS = |X qcols|_HS, as qcols is orthonormal)
            g, _, r = qcols.shape
            aq = (mats[idx] @ qcols.reshape(g, n, m * r)).reshape(g, nm, r)
            with np.errstate(over="ignore", invalid="ignore"):  # the norm of a huge A may overflow, and passes
                if np.linalg.norm(p @ aq, axis=(1, 2)).min() <= cfg.membership_tol:
                    raise AlreadyInside("separation failed: witness compression vanished")
            pb = (p @ spread).reshape(g, nm, cut, r)
            if np.linalg.norm(pb, axis=(1, 3)).max(initial=0.0) > cfg.membership_tol:
                raise AlreadyInside("separation failed: level not annihilated")
            for j, pj, qj in zip(idx, p, q):
                pairs[j] = (AmplifiedProjection._checked(n, m, pj), AmplifiedProjection._checked(n, m, qj))
    return pairs


def separating_projections(f: StepFiltration, t: float, a, cfg: NumericConfig = DEFAULT_CONFIG):
    """Witness pair (P, Q) for A outside the level at t: P (A (x) I) Q != 0
    and P (B (x) I) Q = 0 for every B in V_t (see _separate)."""
    m0 = as_square(a)
    if m0.shape[0] != f.n:
        raise DimensionMismatch("matrix size does not match filtration")
    return _separate(f, f.level_index_at(t), m0[None], cfg)[0]


def probes_for_level(f: StepFiltration, t: float, cfg: NumericConfig = DEFAULT_CONFIG):
    """One separation witness per HS direction missing from the level at t,
    all built in one pass (see _separate): the graded basis past its cut,
    read through ``apply`` (a factored basis is not written out), and the
    complement of the top when the top falls short of M_n."""
    n, level, top = f.n, f.level_index_at(t), f.cuts[-1]
    missing = f.apply(f.cuts[level], top, eye(n))
    if top < n * n:
        missing = np.concatenate([missing, complement(OperatorSubspace(n, f.apply(0, top, eye(n))), cfg).basis])
    return _separate(f, level, missing, cfg)


def rebuild_level(f: StepFiltration, t: float, probes, cfg: NumericConfig = DEFAULT_CONFIG) -> OperatorSubspace:
    """Intersection of the constraint spaces {A : P (A (x) I) Q = 0} over the probe
    pairs (all of M_n for none): one null space of their constraints, stacked in one
    batched product per amplification degree (_unit_compressions) on the ranges of the
    Qs; with probes from :func:`probes_for_level` this recovers the level at t exactly."""
    n, groups = f.n, {}
    for p, q in probes:
        pp, qq = _align(p, q)
        groups.setdefault(pp.m, []).append((pp.matrix, qq.matrix))
    k = [np.zeros((0, n * n))]
    for ps, qs in (map(np.stack, zip(*g)) for g in groups.values()):
        # P (A (x) I) Q = 0 iff P (A (x) I) Y = 0, Y the eigenvectors of Q for eigenvalues near 1 (zero
        # past them): the same Gram, so the same null space and rank decision, from nm rank(Q) rows, not (nm)^2
        w, v = np.linalg.eigh(qs)
        top = w.shape[1] - int((w > 0.5).sum(axis=1).max(initial=0))  # eigenvalues ascend
        k.append(_unit_compressions(n, ps, v[:, :, top:] * (w[:, None, top:] > 0.5)).reshape(-1, n * n))
    return OperatorSubspace(n, null_space_rows(np.concatenate(k), cfg).reshape(-1, n, n))
