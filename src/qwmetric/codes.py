"""Quantum error-correction geometry: qudit Hamming filtrations, mixed
classical/quantum block filtrations, the scalar-compression detectability
check, minimum distance, the volume bound, and induced corner metrics.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .errors import NotACode, SizeLimit
from .filtration import MetricContext, StepFiltration, default_context
from .numerics import DEFAULT_CONFIG, NumericConfig, _natural_range_basis, as_square, commutes_each, is_projection, rank
from .opspace import _BUDGET, OperatorSubspace, VNAlgebra, _orthonormalize, generated_vn_algebra, span
from .constructions import TimedGenerators, generated_filtration

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
# from this dimension on, a block's elements are applied as two half-site
# factors; below it, the dense elements of a weight beat the split
SPLIT_FROM = 32


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
        # a projection's trace is its rank, an integer: 1/2 splits rank 0 from 1
        if float(np.trace(p).real) < 0.5:
            raise NotACode("code projector must have rank >= 1")
        if p.shape[0] != self.error_model.n:
            raise NotACode("projector size does not match the error model")
        self.projector = p

    @property
    def dim_code(self) -> int:
        return int(round(float(np.trace(self.projector).real)))

    @functools.cached_property
    def isometry(self) -> np.ndarray:
        """The n x r code isometry V: eigenvectors of P above 1/2, not a rank
        cutoff, which could keep kernel directions P weights by nearly 0.
        Computed once per code; every audit reads it."""
        w, u = np.linalg.eigh(self.projector)  # reads one triangle of P
        return u[:, w > 0.5]


@functools.lru_cache(maxsize=None)
def _site_basis(d: int) -> np.ndarray:
    """HS-orthonormal basis of M_d, stacked: normalized identity first, then
    the traceless directions (off-diagonal matrix units and diagonal steps).
    Shared and read-only."""
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
    out = np.stack(out)
    out.flags.writeable = False
    return out


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


@functools.lru_cache(maxsize=None)
def _weight_block(n_sites: int, d: int, weight: int) -> np.ndarray:
    """The elements of weight ``weight`` on ``n_sites`` qudits, dense and in
    basis order (on no sites, the 1 x 1 identity).  Shared and read-only."""
    out = np.ones((math.comb(n_sites, weight) * (d * d - 1) ** weight, d ** n_sites, d ** n_sites), dtype=complex)
    if n_sites:
        _fill_weight(out, n_sites, d, weight)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _weight_labels(n_sites: int, d: int, weight: int) -> np.ndarray:
    """The labels of the elements of weight ``weight`` on ``n_sites`` qudits,
    in basis order: the index into ``_site_basis(d)`` at each site."""
    choices = np.array(list(product(range(1, d * d), repeat=weight)), dtype=np.intp).reshape((d * d - 1) ** weight, weight)
    out = np.zeros((math.comb(n_sites, weight), len(choices), n_sites), dtype=np.intp)
    for a, sites in enumerate(combinations(range(n_sites), weight)):
        out[a][:, list(sites)] = choices
    out = out.reshape(-1, n_sites)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _site_norms(d: int) -> np.ndarray:
    return np.linalg.norm(_site_basis(d), 2, axis=(1, 2))


@functools.lru_cache(maxsize=None)
def _split_plan(n_sites: int, d: int, weight: int) -> tuple:
    """Index plan of the two-half split of the weight-``weight`` elements on
    ``n_sites`` qudits.  An element is L (x) R, L on the first h = n_sites // 2
    sites and R on the rest; per weight wl of L, every pair of an L of weight
    wl and an R of weight ``weight - wl`` is an element.  Returns, per wl,
    (wl, pos) with pos[i, j] the position in basis order of the element
    _weight_block(h, d, wl)[i] (x) _weight_block(n_sites - h, d, weight - wl)[j]."""
    h, q = n_sites // 2, d * d - 1
    rank = {s: a for a, s in enumerate(combinations(range(n_sites), weight))}
    plan = []
    for wl in range(max(0, weight - (n_sites - h)), min(weight, h) + 1):
        wr = weight - wl
        # site-set rank of each (left set, right set) pair
        sets = np.array(
            [[rank[sl + tuple(h + s for s in sr)] for sr in combinations(range(n_sites - h), wr)] for sl in combinations(range(h), wl)],
            dtype=np.intp,
        ).reshape(math.comb(h, wl), math.comb(n_sites - h, wr))
        # local indices: the left choice, then the right one, last site fastest
        pos = sets[:, None, :, None] * q ** weight + np.arange(q ** wl)[None, :, None, None] * q ** wr + np.arange(q ** wr)
        pos = pos.reshape(math.comb(h, wl) * q ** wl, -1)
        pos.flags.writeable = False
        plan.append((wl, pos))
    return tuple(plan)


def _split_pairs(n_sites: int, d: int, weight: int, skip: int, count: int):
    """Per weight of L in _split_plan, the pairs (L, R) of the run's elements
    at positions skip..skip + count - 1: yields the L factors, the R factors,
    pos counted from ``skip`` and the index of the pairs to keep.  A range
    inside the run (a bounded rho chunk) keeps only the L rows and R columns
    with a pair in it, and marks a pair outside it with pos -1."""
    h = n_sites // 2
    whole = skip == 0 and count == math.comb(n_sites, weight) * (d * d - 1) ** weight
    for wl, pos in _split_plan(n_sites, d, weight):
        left, right = _weight_block(h, d, wl), _weight_block(n_sites - h, d, weight - wl)
        if whole:
            yield left, right, pos, slice(None)
            continue
        inside = (pos >= skip) & (pos < skip + count)
        rows, cols = np.flatnonzero(inside.any(axis=1)), np.flatnonzero(inside.any(axis=0))
        pos = np.where(inside, pos - skip, -1)[np.ix_(rows, cols)]
        yield left[rows], right[cols], pos, pos >= 0


def _apply_weight(n_sites: int, d: int, weight: int, x: np.ndarray, out: np.ndarray, skip: int = 0) -> None:
    """Write B x into ``out`` (count, d**n_sites, c) for the elements B of
    weight ``weight`` on ``n_sites`` qudits from position ``skip`` on.  Below
    dimension SPLIT_FROM the dense elements take one batched product.  Above
    it, with B = L (x) R as in _split_plan and x read as (left index, right
    index, column), the R factors act first, then the L factors: two batched
    products per weight of L, scattered to basis order."""
    if d ** n_sites < SPLIT_FROM:
        np.matmul(_weight_block(n_sites, d, weight)[skip : skip + len(out)], x, out=out)
        return
    h = n_sites // 2
    dl, dr, c = d ** h, d ** (n_sites - h), x.shape[1]
    xr = x.reshape(dl, dr, c).transpose(1, 0, 2).reshape(dr, dl * c)
    dest = out.reshape(len(out), dl, dr, c, copy=False)
    for left, right, pos, keep in _split_pairs(n_sites, d, weight, skip, len(out)):
        z = (right @ xr).reshape(len(right), dr, dl, c).transpose(2, 0, 1, 3).reshape(dl, -1)
        dest[pos[keep]] = (left @ z).reshape(len(left), dl, len(right), dr, c).transpose(0, 2, 1, 3, 4)[keep]


def _compress_weight(n_sites: int, d: int, weight: int, vc: np.ndarray, w: np.ndarray, out: np.ndarray, skip: int = 0) -> None:
    """Write v* B w into ``out`` (count, cv, cw), given vc = conj(v), for the
    elements B of weight ``weight`` on ``n_sites`` qudits from position
    ``skip`` on.  Below dimension SPLIT_FROM the dense elements take two
    batched products.  Above it no B w is formed: with B = L (x) R as in
    _split_plan, v* B w is the sum of vc[i, j] L[i, i'] R[j, j'] w[i', j'],
    three GEMMs per weight of L: the stacked R factors on w, the stacked
    transposed L factors on vc, and their product over (i', j), which holds
    every pair's block, scattered to basis order.  Each piece of the split
    stays under _BUDGET entries."""
    n, cv, cw = d ** n_sites, vc.shape[1], w.shape[1]
    if n < SPLIT_FROM:
        np.matmul(vc.T, _weight_block(n_sites, d, weight)[skip : skip + len(out)] @ w, out=out)
        return
    h = n_sites // 2
    dl, dr = d ** h, d ** (n_sites - h)
    wr = w.reshape(dl, dr, cw).transpose(1, 0, 2).reshape(dr, dl * cw)
    vc = vc.reshape(dl, dr * cv)
    rstep = max(1, _BUDGET // (n * cw))
    for left, right, pos, keep in _split_pairs(n_sites, d, weight, skip, len(out)):
        lt = left.transpose(0, 2, 1).reshape(-1, dl)
        for r0 in range(0, len(right), rstep):
            rc = right[r0 : r0 + rstep]
            # rows (i', j), columns (R, b)
            rw = (rc.reshape(-1, dr) @ wr).reshape(len(rc), dr, dl, cw).transpose(2, 1, 0, 3).reshape(n, -1)
            lstep = max(1, _BUDGET // (cv * max(n, rw.shape[1])))
            for l0 in range(0, len(left), lstep):
                # rows (L, a), columns (i', j)
                lv = (lt[l0 * dl : (l0 + lstep) * dl] @ vc).reshape(-1, dl, dr, cv).transpose(0, 3, 1, 2).reshape(-1, n)
                blocks = (lv @ rw).reshape(-1, cv, len(rc), cw).transpose(0, 2, 1, 3)
                pairs = (slice(l0, l0 + lstep), slice(r0, r0 + rstep))
                p, k = pos[pairs], keep if isinstance(keep, slice) else keep[pairs]
                out[p[k]] = blocks[k]


class SiteFactors:
    """A graded basis of elementary tensors, held as factors: the site basis
    of M_d and, per element, a label (its block and the site-local index at
    each site of the block, 0 for the identity).  Blocks of qudits sit on
    the diagonal of M_n.  Elements come by weight (the number of
    non-identity factors, which is the grade), then block, then site set,
    then local indices with the last site fastest.

    ``dense`` writes the basis out, within ``cap``; ``apply``, ``compress``
    and ``element_norm`` never do."""

    def __init__(self, blocks, d: int, cap: int):
        self.blocks, self.d, self.cap = tuple(blocks), d, cap
        # d^nb is formed only once it is known to be small
        if max(self.blocks) * math.log2(d) >= 31.5 or sum(d ** nb for nb in self.blocks) ** 2 >= 2 ** 63:
            raise SizeLimit(f"blocks of up to {max(self.blocks)} sites of dimension {d}: too many basis elements to index")
        self.offsets = [0]
        for nb in self.blocks:
            self.offsets.append(self.offsets[-1] + d ** nb)
        n = self.offsets[-1]
        # runs of elements of one weight in one block: (start, stop, weight, block)
        self.runs, start = [], 0
        for w in range(max(self.blocks) + 1):
            for b, nb in enumerate(self.blocks):
                stop = start + math.comb(nb, w) * (d * d - 1) ** w
                if stop > start:
                    self.runs.append((start, stop, w, b))
                start = stop
        self.shape = (start, n, n)
        self._starts = [r[0] for r in self.runs]
        # a block below SPLIT_FROM is applied through its dense elements, at
        # most 31^4 entries: built with the model, not by the first audit
        for _, _, w, b in self.runs:
            if d ** self.blocks[b] < SPLIT_FROM:
                _weight_block(self.blocks[b], d, w)

    @property
    def cuts(self) -> list:
        """Number of elements of weight at most t, for t = 0..max weight."""
        return [max(stop for _, stop, w, _ in self.runs if w <= t) for t in range(max(self.blocks) + 1)]

    def dense(self) -> np.ndarray:
        n = self.shape[1]
        if n > self.cap:
            raise SizeLimit(f"ambient dimension {n} exceeds the cap {self.cap}")
        out = np.zeros(self.shape, dtype=complex)
        for start, stop, w, b in self.runs:
            lo, hi = self.offsets[b], self.offsets[b + 1]
            _fill_weight(out[start:stop, lo:hi, lo:hi], self.blocks[b], self.d, w)
        return out

    def apply(self, lo: int, hi: int, x: np.ndarray) -> np.ndarray:
        """The (hi - lo, n, c) stack of B x over the elements lo..hi - 1."""
        out = (np.empty if len(self.blocks) == 1 else np.zeros)((hi - lo, self.shape[1], x.shape[1]), dtype=complex)
        for start, stop, w, b in self.runs:
            if start < hi and stop > lo:
                o0, o1 = self.offsets[b], self.offsets[b + 1]
                a = max(lo, start)
                _apply_weight(self.blocks[b], self.d, w, x[o0:o1], out[a - lo : min(hi, stop) - lo, o0:o1], a - start)
        return out

    def compress(self, lo: int, hi: int, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The (hi - lo, v.shape[1], w.shape[1]) stack of v* B w over the
        elements lo..hi - 1; an element reads only its block's rows of v and w."""
        out, vc = np.empty((hi - lo, v.shape[1], w.shape[1]), dtype=complex), v.conj()
        for start, stop, k, b in self.runs:
            if start < hi and stop > lo:
                o0, o1 = self.offsets[b], self.offsets[b + 1]
                a = max(lo, start)
                _compress_weight(self.blocks[b], self.d, k, vc[o0:o1], w[o0:o1], out[a - lo : min(hi, stop) - lo], a - start)
        return out

    def element_norm(self, i: int) -> float:
        """||B_i||: the product of the operator norms of its site factors."""
        start, _, w, b = self.runs[bisect.bisect_right(self._starts, i) - 1]
        labels = _weight_labels(self.blocks[b], self.d, w)[i - start]
        return float(np.prod(_site_norms(self.d)[labels]))


def hamming_filtration(
    n_sites: int, local_dim: int = 2, cfg: NumericConfig = DEFAULT_CONFIG, cap: int = SITE_CAP
) -> StepFiltration:
    """Quantum Hamming metric on n qudits: integer breakpoints 0..n, level t
    spanned by elementary tensors with at most t non-identity factors.  The
    level dimension is sum_{j<=t} C(n, j) (d^2 - 1)^j.  The basis is held as
    site factors; ``cap`` bounds the ambient dimension of its dense form."""
    if n_sites < 1 or local_dim < 2:
        raise SizeLimit("need at least one site of local dimension >= 2")
    factors = SiteFactors([n_sites], local_dim, cap)
    return StepFiltration.from_graded(factors.shape[1], range(n_sites + 1), factors, factors.cuts)


def hamming_level_dimension(n_sites: int, local_dim: int, t: int) -> int:
    """Combinatorial count sum_{j<=t} C(n, j) (d^2 - 1)^j."""
    return sum(
        math.comb(n_sites, j) * (local_dim ** 2 - 1) ** j for j in range(min(t, n_sites) + 1)
    )


def block_filtration(blocks, cfg: NumericConfig = DEFAULT_CONFIG, cap: int = SITE_CAP) -> StepFiltration:
    """Mixed classical/quantum model: block-diagonal sums over disentangled
    qubit packets, graded by the total number of corrupted sites; the zero
    level is the block-scalar algebra (the commutant of the block algebra).
    The basis is held as site factors; ``cap`` bounds the ambient dimension
    of its dense form."""
    blocks = [int(b) for b in blocks]
    if not blocks or any(b < 1 for b in blocks):
        raise SizeLimit("need at least one block of at least one qubit")
    factors = SiteFactors(blocks, 2, cap)
    return StepFiltration.from_graded(factors.shape[1], range(max(blocks) + 1), factors, factors.cuts)


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
    P B P must equal eps(B) P with eps(B) = tr(P B P) / tr(P).  As
    ||V Y V*|| = ||Y||, the residual is ||V* B V - eps I_r||, exactly.
    ``worst_index``: the first residual within ``membership_tol`` of the
    largest (ties by symmetry or rounding), None when all are below it."""
    f, v = code.error_model, code.isometry
    tr_p = float(np.trace(code.projector).real)
    cut = f.cuts[f.level_index_at(k)]
    x = f.compress(0, cut, v, v)
    r = x.shape[1]
    # the diagonals of the V* B V, a view: every (r + 1)-th entry of a flattened block
    diag = x.reshape(cut, r * r, copy=False)[:, :: r + 1]
    eps = diag.sum(axis=1) / tr_p
    diag -= eps[:, None]  # x is now the stack of V* B V - eps I
    res = np.linalg.norm(x, 2, axis=(1, 2))
    tol = cfg.membership_tol
    # max(1, ||B||) >= 1: only residuals above the tolerance need ||B||
    detects = not any(res[i] > tol * max(1.0, f.element_norm(i)) for i in np.flatnonzero(res > tol))
    worst = float(res.max(initial=0.0))
    worst_index = int(np.argmax(res >= worst - tol)) if worst > tol else None
    return KLReport(detects, dict(enumerate(eps.tolist())), worst, worst_index, cut, res.tolist())


def min_distance(code: QuantumCode, cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """delta(P) = sup{t : P V_t P = P V_0 P}: the first breakpoint where the
    span of the V* B V (that of the P B P, isometrically) strictly grows."""
    f, v = code.error_model, code.isometry
    r = v.shape[1]
    # grown level by level: the scan mostly stops far below the top level
    x = np.zeros((0, r, r), dtype=complex)
    dims = []
    for t, lo, hi in zip(f.breakpoints, [0] + f.cuts, f.cuts):
        x = np.concatenate([x, f.compress(lo, hi, v, v)])
        dims.append(span(x, r, cfg).dim)
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
    f, v = code.error_model, code.isometry
    tr_p = float(np.trace(code.projector).real)
    cut = f.cuts[f.level_index_at(math.floor(k / 2))]
    # tr(P B* A P) = <A V, B V>_HS: one Gram of the flattened B V
    bv = f.apply(0, cut, v).reshape(cut, v.size)
    gram = bv @ bv.conj().T / tr_p
    # the floor 1 makes a Gram of rounding noise rank 0
    dim_k = rank(np.linalg.eigvalsh((gram + gram.conj().T) / 2), cfg, scale=1.0)
    ambient = f.n
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
    the algebra of the compressed zero level, with the span of grade i's
    compressions as generator i.  The graded basis is compressed once,
    through ``compress``, so a factored basis is not written out."""
    pm = as_square(p)
    if not is_projection(pm, cfg):
        raise NotACode("corner needs an orthogonal projection")
    ctx = ctx or default_context(f, cfg)
    if not commutes_each(pm, ctx.commutant.basis, cfg).all():
        raise NotACode("projection must belong to the context algebra")
    cols = _natural_range_basis(pm, cfg)
    k = cols.shape[1]
    blocks = np.split(f.compress(0, f.cuts[-1], cols, cols), f.cuts[:-1])
    base = generated_vn_algebra(blocks[0], k, cfg)
    # floored at 1: these are compressions of orthonormal elements, so a grade of rounding noise spans nothing
    grades = [OperatorSubspace(k, _orthonormalize(d.reshape(-1, k * k), k, cfg, 1.0)) for d in blocks[1:]]
    gens = [(t, g) for t, g in zip(f.breakpoints[1:], grades) if g.dim]
    return generated_filtration(TimedGenerators(base, gens), cfg)
