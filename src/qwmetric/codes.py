"""Quantum error-correction geometry: qudit Hamming filtrations, mixed
classical/quantum block filtrations, the scalar-compression detectability
check, minimum distance, the volume bound, and induced corner metrics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations, product

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


def _site_basis(d: int) -> list[np.ndarray]:
    """HS-orthonormal basis of M_d: normalized identity first, then the
    traceless directions (off-diagonal matrix units and diagonal steps)."""
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
    return out


def _weighted_tensors(n_sites: int, d: int, weight: int):
    """Elementary tensors over the site basis with exactly ``weight``
    traceless factors; HS-orthonormal by construction."""
    site = _site_basis(d)
    traceless = range(1, len(site))  # index 0 is the normalized identity
    for sites in combinations(range(n_sites), weight):
        for choices in product(traceless, repeat=weight):
            pick = dict(zip(sites, choices))
            yield functools.reduce(np.kron, [site[pick.get(s, 0)] for s in range(n_sites)])


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
    mats = (m for w in range(n_sites + 1) for m in _weighted_tensors(n_sites, local_dim, w))
    for a, m in enumerate(mats):
        basis[a] = m
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
    mats = []
    cuts = []
    for t in range(max_weight + 1):
        for bi, nb in enumerate(blocks):
            lo, hi = offsets[bi], offsets[bi + 1]
            for m in _weighted_tensors(nb, 2, t):
                emb = np.zeros((total, total), dtype=complex)
                emb[lo:hi, lo:hi] = m
                mats.append(emb)
        cuts.append(len(mats))
    f = StepFiltration.from_graded(total, range(max_weight + 1), np.stack(mats), cuts)
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


def kl_check(code: QuantumCode, k: float, cfg: NumericConfig = DEFAULT_CONFIG) -> KLReport:
    """Scalar-compression audit: for every basis element B of the level at k,
    P B P must equal eps(B) P with eps(B) = tr(P B P) / tr(P)."""
    p = code.projector
    tr_p = float(np.trace(p).real)
    level = code.error_model.value_at(k)
    eps = {}
    residuals = []
    worst = 0.0
    worst_index = None
    detects = True
    for idx, b in enumerate(level.basis):
        compressed = p @ b @ p
        e = complex(np.trace(compressed) / tr_p)
        eps[idx] = e
        res = op_norm(compressed - e * p)
        residuals.append(res)
        if res > worst:
            worst = res
            worst_index = idx
        if res > cfg.membership_tol * max(1.0, op_norm(b)):
            detects = False
    return KLReport(detects, eps, worst, worst_index, level.dim, residuals)


def _compressed_dim(level: OperatorSubspace, p: np.ndarray, cfg: NumericConfig) -> int:
    mats = [p @ b @ p for b in level.basis]
    return span(mats, p.shape[0], cfg).dim


def min_distance(code: QuantumCode, cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """delta(P) = sup{t : P V_t P = P V_0 P}: the first breakpoint where the
    compressed span strictly grows, or +inf when it never grows."""
    p = code.projector
    f = code.error_model
    base_dim = _compressed_dim(f.levels[0], p, cfg)
    for t, lv in zip(f.breakpoints[1:], f.levels[1:]):
        if _compressed_dim(lv, p, cfg) > base_dim:
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
    audit = kl_check(code, k, cfg)
    if not audit.detects:
        raise NotACode("the code fails the scalar-compression audit at k")
    p = code.projector
    tr_p = float(np.trace(p).real)
    half = code.error_model.value_at(math.floor(k / 2))
    m = half.dim
    gram = np.zeros((m, m), dtype=complex)
    for i, a in enumerate(half.basis):
        for j, b in enumerate(half.basis):
            gram[i, j] = np.trace(p @ b.conj().T @ a @ p) / tr_p
    w = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    top = max(float(w[-1]), 0.0)
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
