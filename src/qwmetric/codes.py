"""Quantum error-correction geometry: qudit Hamming filtrations, mixed
classical/quantum block filtrations, the scalar-compression detectability
check, minimum distance, the volume bound, and induced corner metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import NotACode, SizeLimit
from .filtration import MetricContext, StepFiltration, default_context
from .numerics import DEFAULT_CONFIG, NumericConfig, as_square, is_projection, op_norm
from .opspace import OperatorSubspace, VNAlgebra, generated_vn_algebra, span
from .constructions import TimedGenerators, _natural_range_basis, generated_filtration

__all__ = [
    "QuantumCode",
    "SITE_CAP",
    "hamming_filtration",
    "block_filtration",
    "kl_check",
    "min_distance",
    "volume_bound",
    "induced_metric",
]

SITE_CAP = 256


@dataclass
class QuantumCode:
    """A code projector together with the error filtration it is audited
    against and optional site metadata."""

    projector: np.ndarray
    error_model: StepFiltration
    site_structure: tuple | None = None

    def __post_init__(self):
        p = as_square(self.projector)
        if not is_projection(p):
            raise NotACode("code projector must be an orthogonal projection")
        if float(np.trace(p).real) < 1 - 1e-8:
            raise NotACode("code projector must have rank >= 1")
        if p.shape[0] != self.error_model.n:
            raise NotACode("projector size does not match the error model")
        self.projector = p

    @property
    def dim_code(self) -> int:
        return int(round(float(np.trace(self.projector).real)))


def _site_basis(d: int) -> np.ndarray:
    """HS-orthonormal basis of M_d, stacked: normalized identity first, then
    the traceless directions (off-diagonal matrix units and diagonal steps)."""
    out = [np.eye(d, dtype=complex) / math.sqrt(d)]
    for i in range(d):
        for j in range(d):
            if i != j:
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = 1.0
                out.append(e)
    for k in range(1, d):
        # diag(1, ..., 1, -k, 0, ...) / sqrt(k^2 + k): orthonormal, traceless
        v = np.zeros(d)
        v[:k] = 1.0
        v[k] = -k
        out.append(np.diag(v).astype(complex) / math.sqrt(k * k + k))
    return np.stack(out)


def _fill_weight(out: np.ndarray, n_sites: int, d: int, weight: int) -> None:
    """Write the (HS-orthonormal) elementary tensors with exactly ``weight``
    traceless factors into ``out``, by site set, then choices with the last
    site fastest: one outer product per factor over a site-set group."""
    site = _site_basis(d)
    group = (d * d - 1) ** weight
    for a, sites in enumerate(combinations(range(n_sites), weight)):
        rows = out[a * group : (a + 1) * group]
        acc = np.ones((1, 1, 1), dtype=complex)
        for s in range(n_sites):
            y = site[1:] if s in sites else site[:1]  # site[0] is the normalized identity
            (g, e, _), f = acc.shape, len(y)
            # only axes are split, so this reshape of ``rows`` is a view
            dest = rows.reshape(g, f, e, d, e, d) if s == n_sites - 1 else None
            acc = np.multiply(acc[:, None, :, None, :, None], y[None, :, None, :, None, :], out=dest)
            acc = acc.reshape(g * f, e * d, e * d)


def hamming_filtration(
    n_sites: int, local_dim: int = 2, cfg: NumericConfig = DEFAULT_CONFIG, cap: int = SITE_CAP
) -> StepFiltration:
    """Quantum Hamming metric on n qudits: integer breakpoints 0..n, level t
    spanned by elementary tensors with at most t non-identity factors.  The
    level dimension is sum_{j<=t} C(n, j) (d^2 - 1)^j."""
    if n_sites < 1 or local_dim < 2:
        raise SizeLimit("need at least one site of local dimension >= 2")
    total = local_dim ** n_sites
    if total > cap:
        raise SizeLimit(f"ambient dimension {total} exceeds the cap {cap}")
    # sorted by weight, the elementary tensors are a graded basis
    cuts = [hamming_level_dimension(n_sites, local_dim, t) for t in range(n_sites + 1)]
    basis = np.empty((cuts[-1], total, total), dtype=complex)
    for w, (lo, hi) in enumerate(zip([0] + cuts, cuts)):
        _fill_weight(basis[lo:hi], n_sites, local_dim, w)
    f = StepFiltration.from_graded(total, range(n_sites + 1), basis, cuts)
    f.meta["sites"] = (n_sites, local_dim)
    return f


def hamming_level_dimension(n_sites: int, local_dim: int, t: int) -> int:
    """Combinatorial count sum_{j<=t} C(n, j) (d^2 - 1)^j."""
    return sum(
        math.comb(n_sites, j) * (local_dim ** 2 - 1) ** j for j in range(min(t, n_sites) + 1)
    )


def block_filtration(blocks, cfg: NumericConfig = DEFAULT_CONFIG, cap: int = SITE_CAP) -> StepFiltration:
    """Mixed classical/quantum model: block-diagonal sums over disentangled
    qubit packets, graded by the total number of corrupted sites; the zero
    level is the block-scalar algebra (the commutant of the block algebra)."""
    blocks = [int(b) for b in blocks]
    if not blocks or any(b < 1 for b in blocks):
        raise SizeLimit("need at least one block of at least one qubit")
    sizes = [2 ** b for b in blocks]
    total = sum(sizes)
    if total > cap:
        raise SizeLimit(f"ambient dimension {total} exceeds the cap {cap}")
    offsets = np.cumsum([0] + sizes)
    max_weight = max(blocks)
    cuts = [sum(hamming_level_dimension(nb, 2, t) for nb in blocks) for t in range(max_weight + 1)]
    basis = np.zeros((cuts[-1], total, total), dtype=complex)
    a = 0
    for t in range(max_weight + 1):
        for bi, nb in enumerate(blocks):
            lo, hi = offsets[bi], offsets[bi + 1]
            b = a + math.comb(nb, t) * 3 ** t
            _fill_weight(basis[a:b, lo:hi, lo:hi], nb, 2, t)
            a = b
    f = StepFiltration.from_graded(total, range(max_weight + 1), basis, cuts)
    f.meta["blocks"] = tuple(blocks)
    return f


def block_algebra_context(blocks, cfg: NumericConfig = DEFAULT_CONFIG) -> MetricContext:
    """MetricContext for the block algebra (+)_i M_{2^{n_i}}."""
    sizes = [2 ** int(b) for b in blocks]
    total = sum(sizes)
    offsets = np.cumsum([0] + sizes)
    gens = []
    for bi, size in enumerate(sizes):
        lo = offsets[bi]
        for i in range(size):
            for j in range(size):
                e = np.zeros((total, total), dtype=complex)
                e[lo + i, lo + j] = 1.0
                gens.append(e)
    return MetricContext.from_algebra(
        VNAlgebra(total, span(gens, total, cfg).basis, cfg, verify=False), cfg
    )


@dataclass
class KLReport:
    detects: bool
    epsilon: dict
    worst_residual: float
    worst_index: int | None
    level_dim: int
    residuals: list = field(default_factory=list)


def _isometry(code: QuantumCode) -> np.ndarray:
    """The n x r code isometry V: eigenvectors of P above 1/2, not a rank
    cutoff, which could keep kernel directions P weights by nearly 0."""
    w, u = np.linalg.eigh(code.projector)  # reads one triangle of P
    return u[:, w > 0.5]


def kl_check(code: QuantumCode, k: float, cfg: NumericConfig = DEFAULT_CONFIG) -> KLReport:
    """Scalar-compression audit: for every basis element B of the level at k,
    P B P must equal eps(B) P with eps(B) = tr(P B P) / tr(P).  As
    ||V Y V*|| = ||Y||, the residual is ||V* B V - eps I_r||, exactly.
    ``worst_index``: the first residual within ``membership_tol`` of the
    largest (ties by symmetry or rounding), None when all are below it."""
    tr_p = float(np.trace(code.projector).real)
    level = code.error_model.value_at(k)
    v = _isometry(code)
    x = v.conj().T @ level.basis @ v
    eps = np.trace(x, axis1=1, axis2=2) / tr_p
    res = np.linalg.norm(x - eps[:, None, None] * np.eye(x.shape[1]), 2, axis=(1, 2))
    tol = cfg.membership_tol
    # max(1, ||B||) >= 1: only residuals above the tolerance need ||B||
    detects = not any(res[i] > tol * max(1.0, op_norm(level.basis[i])) for i in np.flatnonzero(res > tol))
    worst = float(res.max(initial=0.0))
    worst_index = int(np.argmax(res >= worst - tol)) if worst > tol else None
    return KLReport(detects, dict(enumerate(eps.tolist())), worst, worst_index, level.dim, res.tolist())


def min_distance(code: QuantumCode, cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """delta(P) = sup{t : P V_t P = P V_0 P}: the first breakpoint where the
    span of the V* B V (that of the P B P, isometrically) strictly grows."""
    f = code.error_model
    v = _isometry(code)
    r = v.shape[1]
    # filled level by level: the scan mostly stops far below the top level
    x = np.empty((f.cuts[-1], r, r), dtype=complex)
    dims = []
    for t, lo, hi in zip(f.breakpoints, [0] + f.cuts, f.cuts):
        x[lo:hi] = v.conj().T @ f.basis[lo:hi] @ v
        dims.append(span(x[:hi], r, cfg).dim)
        if dims[-1] > dims[0]:
            return t
    return math.inf


@dataclass
class VolumeReport:
    dim_k: int
    code_dim: int
    ambient_dim: int
    bound: float
    holds: bool


def volume_bound(code: QuantumCode, k: float, cfg: NumericConfig = DEFAULT_CONFIG) -> VolumeReport:
    """Gram-rank form of the packing bound: on the level at floor(k/2) the
    form <A, B> = eps(B* A) has rank dim_K, and a code passing the
    detectability audit at k satisfies dim(C) <= dim(H) / dim_K."""
    return _volume_bound(code, k, kl_check(code, k, cfg), cfg)


def _volume_bound(code: QuantumCode, k: float, audit: KLReport, cfg: NumericConfig) -> VolumeReport:
    """volume_bound, given the code's audit at k."""
    if not audit.detects:
        raise NotACode("the code fails the scalar-compression audit at k")
    tr_p = float(np.trace(code.projector).real)
    half = code.error_model.value_at(math.floor(k / 2))
    # tr(P B* A P) = <A V, B V>_HS: one Gram of the flattened B V
    v = _isometry(code)
    bv = (half.basis @ v).reshape(half.dim, v.size)
    gram = bv @ bv.conj().T / tr_p
    w = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    top = float(w.max(initial=0.0))
    dim_k = int(np.sum(w > cfg.rank_tol * max(top, 1.0)))
    ambient = code.error_model.n
    bound = ambient / dim_k if dim_k else math.inf
    holds = code.dim_code <= bound + cfg.membership_tol
    return VolumeReport(dim_k, code.dim_code, ambient, bound, holds)


def induced_metric(
    f: StepFiltration,
    p,
    ctx: MetricContext | None = None,
    cfg: NumericConfig = DEFAULT_CONFIG,
) -> StepFiltration:
    """Smallest pseudometric on the corner P M P whose levels absorb the
    compressions P V_t P; built with the generated-filtration engine over
    the compressed commutant."""
    pm = as_square(p)
    if not is_projection(pm, cfg):
        raise NotACode("corner needs an orthogonal projection")
    ctx = ctx or default_context(f, cfg)
    for b in ctx.commutant.basis:
        if op_norm(pm @ b - b @ pm) > cfg.membership_tol * max(1.0, op_norm(b)):
            raise NotACode("projection must belong to the context algebra")
    cols = _natural_range_basis(pm, cfg)
    k = cols.shape[1]
    base = generated_vn_algebra(
        [cols.conj().T @ b @ cols for b in f.levels[0].basis], k, cfg
    )
    gens = []
    for t, lv in zip(f.breakpoints, f.levels):
        if t <= 0:
            continue
        compressed = span([cols.conj().T @ b @ cols for b in lv.basis], k, cfg)
        if compressed.dim:
            gens.append((t, compressed))
    if not gens:
        return StepFiltration(k, [0.0], [OperatorSubspace(k, base.basis)])
    return generated_filtration(TimedGenerators(base, gens), horizon=None, cfg=cfg)
