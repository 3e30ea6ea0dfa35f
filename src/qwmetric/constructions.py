"""Constructions on step filtrations: truncation, direct sums (with optional
bridge), meets, Fubini and lp metric products, generated filtrations (the
engine behind graph metrics and subobjects), quotients, Hoelder and
superadditive reparameterizations, the operator-system three-level metric,
the M_2 classification, and co-Lipschitz numbers of morphisms.

Every construction builds its graded basis directly.  Truncations, direct
sums, both products, the M_2 metric and reparameterizations give each basis
element an entry time and build through StepFiltration.from_times, or the
two products, which write their Kronecker stack in time order
(opspace.kron_stack), through from_graded; meets,
quotients and the three-level metric grow one basis block by block
(filtration._grown), and generated filtrations grow theirs event by event,
as dense rows, or as matrix-unit labels when the zero level is the diagonal
algebra.  A meet takes one HS complement per input and one null space per
point of its grid.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from .errors import (
    BridgeTooSmall,
    ConstraintViolation,
    DegenerateChain,
    MixedDimensions,
    NegativeTime,
    NotCanonicalizable,
    NotCentral,
    NotIsometry,
    NotOperatorSystem,
    NotSubalgebra,
    NotSuperadditive,
)
from .filtration import MatrixUnits, MetricContext, StepFiltration, _diameter, _grown, _off_diagonal, _sized, _time_steps, default_context
from .numerics import DEFAULT_CONFIG, NumericConfig, _natural_range_basis, as_square, commutes_each, eye, is_projection, op_norm, rank
from .opspace import (
    _BUDGET,
    OperatorSubspace,
    VNAlgebra,
    _extend,
    _orthonormalize,
    _products,
    commutant,
    complement,
    full_space,
    generated_vn_algebra,
    kron_stack,
    null_space_rows,
    scalar_space,
    span,
)

__all__ = [
    "TimedGenerators",
    "stabilize",
    "truncate",
    "direct_sum",
    "meet",
    "metric_product",
    "generated_filtration",
    "quotient",
    "subobject",
    "lp_product",
    "hoelder",
    "PiecewiseLinear",
    "f_transform",
    "operator_system_metric",
    "m2_metric",
    "canonicalize_m2",
    "co_lipschitz_number",
]

# event times closer than this to the first time of their run are merged; a
# resolution of times, not a matrix tolerance, so --tol leaves breakpoints alone
TIME_MERGE = 1e-12


class TimedGenerators:
    """Generating data for the smallest filtration containing given subspaces
    at given times, over a mandated zero-level algebra."""

    def __init__(self, base: VNAlgebra, gens):
        self.base = base
        self.gens = [(float(t), g) for t, g in gens]
        for t, g in self.gens:
            if not (t > 0 and math.isfinite(t)):
                raise MixedDimensions("generator times must be finite and positive")
            if g.n != base.n:
                raise MixedDimensions("generator ambient dimension mismatch")


def stabilize(f: StepFiltration, m: int, cfg: NumericConfig = DEFAULT_CONFIG) -> StepFiltration:
    """The amplified filtration {V_t (x) I_m} on M_{nm}.

    Realizes projections in M (x) M_m as ordinary projections of a
    filtration: distances computed there agree with rho at amplification
    degree m, and every level of the result is reflexive over the enlarged
    algebra."""
    if m < 1:
        raise MixedDimensions("amplification degree must be >= 1")
    return StepFiltration.from_graded(f.n * m, f.breakpoints, kron_stack(f.basis / math.sqrt(m), eye(m)[None]), f.cuts)


def truncate(f: StepFiltration, c: float, cfg: NumericConfig = DEFAULT_CONFIG) -> StepFiltration:
    """Levels below c kept, everything at and above c becomes M_n: the
    elements entering before c keep their times, and the HS complement of
    their span enters at c.  Matrix units stay units: the complement is the
    missing units, in row-major order, so truncate(from_classical(d), c) is
    from_classical(min(d, c))."""
    if not 0 <= c < math.inf:
        raise MixedDimensions("truncation level must be finite and >= 0")
    times = f.times
    kept = np.searchsorted(times, c)
    if isinstance(f._graded, MatrixUnits):
        basis = f._graded.completed(kept)
    else:
        below = f.basis[:kept]
        basis = np.concatenate([below, complement(OperatorSubspace(f.n, below), cfg).basis])
    return StepFiltration.from_times(f.n, basis, np.concatenate([times[:kept], np.full(basis.shape[0] - kept, c)]))


def direct_sum(
    f: StepFiltration,
    g: StepFiltration,
    bridge: float | None = None,
    cfg: NumericConfig = DEFAULT_CONFIG,
) -> StepFiltration:
    """Blockwise V_t (+) W_t on M_{n+k}; with a bridge r, the full
    off-diagonal blocks adjoin at every t >= r, as matrix units.  Two
    matrix-unit bases give matrix units."""
    n, k = f.n, g.n
    if bridge is not None:
        if not math.isfinite(bridge):
            raise MixedDimensions("bridge must be finite")
        diam_f, diam_g = _diameter(f), _diameter(g)
        if not math.isfinite(diam_f) or not math.isfinite(diam_g):
            raise BridgeTooSmall("bridging requires both diameters finite")
        if bridge < max(diam_f, diam_g) / 2:
            raise BridgeTooSmall(
                f"bridge {bridge} below max(diam)/2 = {max(diam_f, diam_g) / 2}"
            )
    # the blocks' graded bases, then the off-diagonal matrix units entering at the bridge
    off = 2 * n * k if bridge is not None else 0
    times = np.concatenate([f.times, g.times, [bridge] * off])
    if isinstance(f._graded, MatrixUnits) and isinstance(g._graded, MatrixUnits):
        return StepFiltration.from_times(n + k, f._graded.beside(g._graded, bool(off)), times)
    p, q = f.cuts[-1], g.cuts[-1]
    basis = np.zeros((p + q + off, n + k, n + k), dtype=complex)
    basis[:p, :n, :n] = f.basis
    basis[p : p + q, n:, n:] = g.basis
    if off:
        x, y = _off_diagonal(n, k)
        basis[p + q + np.arange(off), x, y] = 1.0
    return StepFiltration.from_times(n + k, basis, times)


def meet(filtrations, cfg: NumericConfig = DEFAULT_CONFIG) -> StepFiltration:
    """Levelwise intersection on the union breakpoint grid."""
    fs = list(filtrations)
    if not fs:
        raise MixedDimensions("meet of an empty family")
    n = fs[0].n
    for f in fs:
        if f.n != n:
            raise MixedDimensions("meet requires a common ambient dimension")
    grid = sorted({t for f in fs for t in f.breakpoints})
    # the complement of a level is the graded basis past its cut plus the
    # complement of the top, so the meet's level is one null space per point
    tops = [complement(f.levels[-1], cfg)._flat() for f in fs]
    lvs = []
    for t in grid:
        past = [f.basis[f.cuts[f.level_index_at(t)] :].reshape(-1, n * n) for f in fs]
        lvs.append(null_space_rows(np.concatenate([*past, *tops]).conj(), cfg))
    return _grown(n, grid, lvs, cfg)


def metric_product(f: StepFiltration, g: StepFiltration, cfg: NumericConfig = DEFAULT_CONFIG) -> StepFiltration:
    """Fubini product: level at t is (V_t (x) M_k) cap (M_n (x) W_t), which at
    finite dimension equals V_t (x) W_t, so B_a (x) C_b enters at
    max(s_a, t_b).  Two matrix-unit bases give the units of the pairs."""
    times = np.maximum.outer(f.times, g.times).reshape(-1)
    order = np.argsort(times, kind="stable")
    bps, cuts = _time_steps(times[order])
    return StepFiltration.from_graded(f.n * g.n, bps, f._graded.kron(f, g, order), cuts)


def generated_filtration(tg: TimedGenerators, cfg: NumericConfig = DEFAULT_CONFIG) -> StepFiltration:
    """Smallest step filtration whose zero level contains the base algebra
    and whose level at each generator time absorbs that generator.

    Event-driven and semi-naive: one graded basis grows, jump i adding the
    block D_i at time t_i.  V_i V_j is the sum of the blocks D_a D_b with
    a <= i and b <= j; every block but D_i D_j has an earlier event, and
    blocks with D_0 = V_0 lie in V_j already, so the event at t_i + t_j
    multiplies D_i by D_j alone, with adjoints.  Multiplying by a unitary of
    the zero level B keeps V_i and V_{i-1}, so each D_i is a B-bimodule and
    a product block needs no closure; a generator X is closed once, as
    B span(X B).  Events are processed in ascending time, so every block is
    final when a product refers to it and one pass suffices.  Only a pop
    that adds rows pushes events, at most n^2 pops add rows, and each pushes
    at most n^2 events, so there are at most g + n^4 pops for g generators:
    the construction terminates with the exact filtration on all of
    [0, inf), with no grid horizon.

    One event loop, two block kinds.  A zero level that is exactly the
    diagonal algebra D (its orthonormalized basis the n units E_xx, as
    MatrixUnits.found_in reads them) makes every block a span of matrix
    units, a quantum relation over D, so blocks are label sets
    (_label_rows) and the result is MatrixUnits; any other zero level grows
    dense rows (_dense_rows).
    """
    n = tg.base.n
    # a generator within TIME_MERGE of 0 merges into the zero level, which
    # stays an algebra: its time is the run's first, 0
    early = [b for t, g in tg.gens if t < TIME_MERGE for b in g.basis]
    base = generated_vn_algebra([*tg.base.basis, *early], n, cfg).basis if early else tg.base.basis
    b = _orthonormalize(np.asarray(base, dtype=complex).reshape(-1, n * n), n, cfg)
    units = MatrixUnits.found_in(b)
    diagonal = units is not None and len(b) == n and bool((units.rows == units.cols).all())
    grow = _label_rows if diagonal else _dense_rows
    # the graded basis, as labels (row-major entries) or rows: jump i adds
    # rows[cuts[i - 1]:cuts[i]] at times[i]
    rows, times, cuts = units.entries if diagonal else b.reshape(-1, n * n), [0.0], [len(b)]

    tick = itertools.count()  # ties in time pop in push order
    heap = [(u, next(tick), ("gen", g)) for u, g in tg.gens if TIME_MERGE <= u]
    heapq.heapify(heap)
    while heap:
        t, _, payload = heapq.heappop(heap)
        payloads = [payload]
        while heap and abs(heap[0][0] - t) < TIME_MERGE:
            payloads.append(heapq.heappop(heap)[2])
        if len(rows) == n * n:
            continue
        # an event's data: a generator, or its two blocks
        events = [(kind, data if kind == "gen" else [rows[cuts[i - 1] : cuts[i]] for i in data]) for kind, data in payloads]
        before, rows = len(rows), grow(rows, events, b, cfg)
        if len(rows) == before:
            continue
        if abs(times[-1] - t) < TIME_MERGE:
            # a merged jump keeps the first time of its run, and its events are pushed again:
            # the event that merged it has popped, and took its product against the partial block
            t = times[-1]
            cuts[-1] = len(rows)
        else:
            times.append(t)
            cuts.append(len(rows))
        j = len(times) - 1
        for i in range(1, j + 1):
            heapq.heappush(heap, (times[i] + t, next(tick), ("prod", (i, j))))

    basis = MatrixUnits(n, rows // n, rows % n) if diagonal else rows.reshape(-1, n, n)
    return StepFiltration.from_graded(n, times, basis, cuts)


def _dense_rows(rows: np.ndarray, events: list, b: np.ndarray, cfg: NumericConfig) -> np.ndarray:
    """The dense block kind: the (k, n^2) rows grown by a pop's events.  A
    generator X gives B span(X B), a product event its two blocks' products,
    each with their adjoints, in the blocks of _products; the candidates go
    to _extend once they hold _BUDGET entries, and stop once the rows span
    M_n.  A generator with no basis gives no candidates."""
    n = b.shape[1]

    def candidates(kind, data):
        if kind == "gen":
            xb = [p for _, p in _products(data.basis, b)]
            blocks = _products(b, _orthonormalize(np.concatenate(xb).reshape(-1, n * n), n, cfg)) if xb else ()
        else:
            blocks = _products(*(d.reshape(-1, n, n) for d in data))
        for _, p in blocks:
            yield np.concatenate([p, np.conj(np.transpose(p, (0, 2, 1)))]).reshape(-1, n * n)

    pending = []
    for cand in itertools.chain.from_iterable(candidates(*e) for e in events):
        pending.append(cand)
        if sum(map(np.size, pending)) >= _BUDGET:
            rows, pending = np.concatenate([rows, _extend(rows, np.concatenate(pending), n, cfg)]), []
            if len(rows) == n * n:
                return rows
    if pending:
        rows = np.concatenate([rows, _extend(rows, np.concatenate(pending), n, cfg)])
    return rows


def _label_rows(entries: np.ndarray, events: list, b: np.ndarray, cfg: NumericConfig) -> np.ndarray:
    """The label block kind over the diagonal algebra D: the row-major entries
    x n + y of the units E_xy grown by a pop's events.  D span(X) D is the
    span of the units where an element of span(X) is nonzero, the labels
    whose HS weight |P_X E_xy| (the norm of the entries of X's basis there)
    passes the rank rule against the largest; a product of two blocks is
    spanned by E_xy E_yw = E_xw, the boolean product of their supports.
    Both come with their transposes (E_xy* = E_yx), and the labels not yet
    present enter in row-major order."""
    n = b.shape[1]
    support = np.zeros((n, n), dtype=bool)
    for kind, data in events:
        if kind == "gen":
            weight = np.linalg.norm(data.basis, axis=0).reshape(-1, 1)
            support |= (rank(weight, cfg, weight.max(initial=0.0)) > 0).reshape(n, n)
        else:
            left, right = (np.bincount(d, minlength=n * n).reshape(n, n) for d in data)
            support |= left @ right > 0
    support = (support | support.T).reshape(-1)
    support[entries] = False
    return np.concatenate([entries, np.flatnonzero(support)])


def quotient(
    f: StepFiltration,
    r,
    ctx: MetricContext | None = None,
    cfg: NumericConfig = DEFAULT_CONFIG,
) -> StepFiltration:
    """Corner filtration W_t = R V_t R on the range of a central projection:
    the graded basis compressed once, then grown grade block by grade block."""
    rm = as_square(r)
    ctx = _sized(f, ctx) or default_context(f, cfg)
    if not is_projection(rm, cfg):
        raise NotCentral("quotient needs an orthogonal projection")
    if not commutes_each(rm, np.concatenate([ctx.algebra.basis, ctx.commutant.basis]), cfg).all():
        raise NotCentral("projection is not central in the context algebra")
    cols = _natural_range_basis(rm, cfg)
    k = cols.shape[1]
    if k == 0:
        raise NotCentral("zero projection gives an empty quotient")
    return _grown(k, f.breakpoints, np.split(f.compress(0, f.cuts[-1], cols, cols), f.cuts[:-1]), cfg)


def subobject(
    f: StepFiltration,
    sub: VNAlgebra,
    ctx: MetricContext | None = None,
    cfg: NumericConfig = DEFAULT_CONFIG,
) -> StepFiltration:
    """Smallest pseudometric on the subalgebra dominating f: generated
    filtration over the subalgebra's commutant and V_0, with f's grade blocks
    D_i as timed generators (D_j, j < i, is absorbed at t_j already)."""
    ctx = _sized(f, ctx) or default_context(f, cfg)
    if sub.n != f.n or not ctx.algebra.contains_space(sub, cfg) or not sub.is_unital(cfg):
        raise NotSubalgebra("need a unital von Neumann subalgebra of the context algebra")
    sub_comm = commutant(sub.basis, f.n, cfg)
    grades = np.split(f.basis, f.cuts[:-1])
    base = generated_vn_algebra([*sub_comm.basis, *grades[0]], f.n, cfg)
    gens = [(t, OperatorSubspace(f.n, d)) for t, d in zip(f.breakpoints[1:], grades[1:])]
    return generated_filtration(TimedGenerators(base, gens), cfg)


def lp_product(f: StepFiltration, g: StepFiltration, p: float, cfg: NumericConfig = DEFAULT_CONFIG) -> StepFiltration:
    """Smallest filtration with V_s (x) W_t inside the level at
    (s^p + t^p)^(1/p); contained in the metric product levelwise.

    For filtrations f and g, Minkowski's inequality puts the product of the
    spans at two such times inside the span at a third, so B_a (x) C_b
    enters at (s_a^p + t_b^p)^(1/p), a time within TIME_MERGE of the first
    time of its run taking that first value, as in the generated engine.
    Inputs that are not filtrations are not closed up.  The time is
    computed as max(s, t) (1 + (min/max)^p)^(1/p), which neither under- nor
    overflows for large p.  Two matrix-unit bases give the units of the
    pairs."""
    if not 1 <= p < math.inf:
        raise MixedDimensions("lp product needs a finite p >= 1")
    s, t = f.times[:, None], g.times[None]
    hi, lo = np.maximum(s, t), np.minimum(s, t)
    ratio = np.divide(lo, hi, out=np.zeros_like(hi), where=hi > 0)
    times = (hi * (1 + ratio ** p) ** (1.0 / p)).reshape(-1)
    order = np.argsort(times, kind="stable")
    runs = times[order]
    i = 0
    while i < len(runs):
        j = max(i + 1, int(np.searchsorted(runs, runs[i] + TIME_MERGE)))
        runs[i:j] = runs[i]
        i = j
    bps, cuts = _time_steps(runs)
    return StepFiltration.from_graded(f.n * g.n, bps, f._graded.kron(f, g, order), cuts)


def hoelder(f: StepFiltration, alpha: float, cfg: NumericConfig = DEFAULT_CONFIG) -> StepFiltration:
    """Snowflake: V^alpha_t = V_{t^{1/alpha}}, i.e. breakpoints map to their
    alpha-th powers; a factored basis stays factored."""
    if not 0 < alpha < 1:
        raise MixedDimensions("alpha must lie in (0, 1)")
    bps = [t ** alpha for t in f.breakpoints]
    return StepFiltration.from_graded(f.n, bps, f._graded, f.cuts)


class PiecewiseLinear:
    """Nondecreasing piecewise-linear data on [0, inf): nodes (x_i, y_i) with
    x_0 = 0, linear interpolation in between, a final slope beyond the last
    node, and optionally f = +inf from ``inf_from`` onward (right-continuous;
    the truncation profile is nodes [(0, 0)], slope 1, inf_from = C)."""

    def __init__(self, nodes, final_slope: float = 1.0, inf_from: float | None = None):
        self.nodes = [(float(x), float(y)) for x, y in nodes]
        if not self.nodes or self.nodes[0][0] != 0:
            raise MixedDimensions("piecewise-linear data must start at x = 0")
        for (x0, _), (x1, _) in zip(self.nodes, self.nodes[1:]):
            if x1 <= x0:
                raise MixedDimensions("node abscissae must increase")
        if final_slope == math.inf:
            raise MixedDimensions("use inf_from to encode a jump to infinity")
        self.final_slope = float(final_slope)
        self.inf_from = None if inf_from is None else float(inf_from)
        if self.inf_from is not None and self.inf_from < self.nodes[-1][0]:
            raise MixedDimensions("inf_from must not precede the last node")

    def __call__(self, t: float) -> float:
        if t < 0:
            raise MixedDimensions("argument must be >= 0")
        if self.inf_from is not None and t >= self.inf_from:
            return math.inf
        xs = [x for x, _ in self.nodes]
        ys = [y for _, y in self.nodes]
        if t >= xs[-1]:
            return ys[-1] + self.final_slope * (t - xs[-1])
        i = max(j for j, x in enumerate(xs) if x <= t)
        x0, y0 = self.nodes[i]
        x1, y1 = self.nodes[i + 1]
        return y0 + (y1 - y0) * (t - x0) / (x1 - x0)

    def grid(self) -> list[float]:
        g = [x for x, _ in self.nodes]
        if self.inf_from is not None and self.inf_from > g[-1]:
            g.append(self.inf_from)
        return g

    def preimage_of_threshold(self, y: float) -> float | None:
        """Smallest t with f(t) >= y, or None if never reached."""
        if self(0.0) >= y:
            return 0.0
        for i in range(len(self.nodes) - 1):
            x0, y0 = self.nodes[i]
            x1, y1 = self.nodes[i + 1]
            if y1 >= y:
                if y1 == y0:
                    return x1
                return x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        x_last, y_last = self.nodes[-1]
        if y_last >= y:
            return x_last
        if self.final_slope > 0:
            t = x_last + (y - y_last) / self.final_slope
            if self.inf_from is None or t <= self.inf_from:
                return t
        return self.inf_from


def _check_superadditive(fn: PiecewiseLinear):
    pts = sorted(set(fn.grid()) | {a + b for a in fn.grid() for b in fn.grid()})
    for s in pts:
        for t in pts:
            fs, ft, fst = fn(s), fn(t), fn(s + t)
            if math.isinf(fst):
                continue
            # values of f are times, compared at the resolution of times
            if fs + ft > fst + TIME_MERGE * max(1.0, abs(fst)):
                raise NotSuperadditive(f"f({s}) + f({t}) > f({s + t})", witness=(s, t))
    for s, t in zip(pts, pts[1:]):
        if fn(t) < fn(s) - TIME_MERGE:
            raise NotSuperadditive("data is not nondecreasing", witness=(s, t))
    if fn.final_slope < 0:
        raise NotSuperadditive("final slope must be nonnegative", witness=(pts[-1], pts[-1]))


def f_transform(f: StepFiltration, fn: PiecewiseLinear, cfg: NumericConfig = DEFAULT_CONFIG) -> StepFiltration:
    """Reparameterize: V^f_t = V_{f(t)}, so an element of old time t enters
    at the preimage of t under f, the smallest s with f(s) >= t.  f must be
    nondecreasing and superadditive (validated on its node grid)."""
    _check_superadditive(fn)
    if fn(0.0) < 0:
        raise NegativeTime(f"f(0) = {fn(0.0)} < 0 has no level")
    pre = [fn.preimage_of_threshold(t) for t in f.breakpoints]
    # the preimage is nondecreasing, so the grades it reaches are a prefix
    reached = sum(s is not None for s in pre)
    times = np.repeat(pre[:reached], np.diff(f.cuts[:reached], prepend=0))
    return StepFiltration.from_times(f.n, f.basis[: len(times)], times)


def operator_system_metric(system: OperatorSubspace, cfg: NumericConfig = DEFAULT_CONFIG) -> StepFiltration:
    """Three-level metric C.I c A c M_n at breakpoints 0, 1, 2."""
    n = system.n
    if not system.is_operator_system(cfg):
        raise NotOperatorSystem("input must be a self-adjoint unital subspace")
    if system.dim <= 1 or system.dim >= n * n:
        raise DegenerateChain("need C.I properly inside the system properly inside M_n")
    return _grown(n, [0.0, 1.0, 2.0], [scalar_space(n).basis, system.basis, full_space(n).basis], cfg)


_M2_DIAG = np.diag([1.0, -1.0]).astype(complex)
_M2_REAL_OFF = np.array([[0, 1], [1, 0]], dtype=complex)
_M2_IMAG_OFF = np.array([[0, 1j], [-1j, 0]], dtype=complex)


def m2_metric(a: float, b: float, c: float, cfg: NumericConfig = DEFAULT_CONFIG) -> StepFiltration:
    """Canonical quantum pseudometric on M_2 with parameters a <= b <= c and
    c <= a + b: the chain C.I, +diag, +real-offdiagonal, M_2 entering at a, b
    and c; equal parameters collapse their chain segments."""
    if not (0 <= a <= b <= c) or not math.isfinite(c):
        raise ConstraintViolation(f"need 0 <= a <= b <= c finite, got ({a}, {b}, {c})")
    if c > a + b:
        raise ConstraintViolation(f"need c <= a + b, got c = {c} > {a + b}")
    # I, +diag, +real and +imaginary off-diagonal, entering at 0, a, b and c
    basis = np.stack([eye(2), _M2_DIAG, _M2_REAL_OFF, _M2_IMAG_OFF]) / math.sqrt(2)
    return StepFiltration.from_times(2, basis, [0.0, a, b, c])


def canonicalize_m2(f: StepFiltration, cfg: NumericConfig = DEFAULT_CONFIG):
    """Recover (a, b, c) and a unitary carrying the filtration to the
    canonical chain: conjugation A -> U* A U maps every level onto the
    canonical level.

    The dim-2 level, or else the dim-3 level, fixes the basis up to phases
    by diagonalizing a non-scalar Hermitian element (any traceless Hermitian
    direction of the dim-3 plane can be carried to diag(1, -1)); the dim-3
    level then fixes the relative phase by making its off-diagonal generator
    a positive multiple of the real symmetric off-diagonal matrix.
    """
    if f.n != 2:
        raise NotCanonicalizable("only ambient dimension 2 is classifiable")
    dims = [lv.dim for lv in f.levels]
    if any(d not in (1, 2, 3, 4) for d in dims) or dims != sorted(set(dims)):
        raise NotCanonicalizable(f"level dims {dims} are not a subchain of (1,2,3,4)")
    times = {d: t for d, t in zip(dims, f.breakpoints)}
    a = times.get(2, times.get(3, times.get(4, math.inf)))
    b = times.get(3, times.get(4, math.inf))
    c = times.get(4, math.inf)
    u = eye(2)

    def hermitian_nonscalar(space):
        # the largest traceless Hermitian part in the basis: orthonormality
        # guarantees one of norm at least 1/sqrt(2), so the direction is
        # numerically clean
        best = None
        best_norm = cfg.membership_tol
        for base in space.basis:
            for cand in (base + base.conj().T, 1j * (base - base.conj().T)):
                traceless = cand - np.trace(cand) / 2 * eye(2)
                nrm = op_norm(traceless)
                if nrm > best_norm:
                    best = traceless
                    best_norm = nrm
        return best

    d = 2 if 2 in times else 3
    if d in times:
        gen = hermitian_nonscalar(f.levels[dims.index(d)])
        if gen is None:
            raise NotCanonicalizable(f"dim-{d} level has no non-scalar Hermitian generator")
        _, vecs = np.linalg.eigh(gen)
        # descending eigenvalue order puts the generator on +diag(1,-1)
        u = vecs[:, ::-1]
    if 3 in times:
        rotated = [u.conj().T @ bmat @ u for bmat in f.levels[dims.index(3)].basis]
        theta = None
        for bmat in rotated:
            for cand in (bmat + bmat.conj().T, 1j * (bmat - bmat.conj().T)):
                off = cand[0, 1]
                if theta is None or abs(off) > abs(theta):
                    theta = off
        if theta is None or abs(theta) <= cfg.membership_tol:
            raise NotCanonicalizable("dim-3 level has no off-diagonal generator")
        phase = np.diag([1.0, np.conj(theta) / abs(theta)]).astype(complex)
        u = u @ phase
    # verify: conjugated levels match the canonical chain
    for lv, d in zip(f.levels, dims):
        target = {1: span([eye(2)], 2, cfg),
                  2: span([eye(2), _M2_DIAG], 2, cfg),
                  3: span([eye(2), _M2_DIAG, _M2_REAL_OFF], 2, cfg),
                  4: full_space(2)}[d]
        moved = span([u.conj().T @ bmat @ u for bmat in lv.basis], 2, cfg)
        if not moved.equals(target, cfg):
            raise NotCanonicalizable("conjugated chain does not match the canonical form")
    return float(a), float(b), float(c), u


def reflexivity_flag_m2(a: float, b: float, c: float) -> bool:
    """The canonical M_2 pseudometric is reflexive exactly when b = c."""
    return b == c


def co_lipschitz_number(
    f: StepFiltration,
    g: StepFiltration,
    amp_dim: int,
    r,
    u,
    ctx: MetricContext | None = None,
    cfg: NumericConfig = DEFAULT_CONFIG,
) -> float:
    """Expansion constant of the morphism phi(A) = U* (I_k (x) A) U from the
    algebra of f into the algebra of g: the largest ratio (over breakpoints
    s_j of g) of the first time t with W_{s_j} inside U*(M_k (x) V_t)U to
    s_j.  Infinite when the zero level fails at t = 0 or some level is never
    absorbed; 0 when every ratio degenerates.
    """
    ctx = _sized(f, ctx) or default_context(f, cfg)
    rm = as_square(r)
    um = np.asarray(u, dtype=complex)
    k_amb = amp_dim * f.n
    if um.shape[0] != k_amb or um.shape[1] != g.n:
        raise NotIsometry(f"carrier must map C^{g.n} into C^{amp_dim}x{f.n}")
    if op_norm(um.conj().T @ um - eye(g.n)) > cfg.membership_tol:
        raise NotIsometry("U*U != I")
    # slack: U and R are given separately, each exact only within membership_tol
    if op_norm(um @ um.conj().T - rm) > 10 * cfg.membership_tol:
        raise NotIsometry("UU* does not match the range projection R")
    if not commutes_each(rm, kron_stack(eye(amp_dim)[None], ctx.algebra.basis), cfg).all():
        raise NotIsometry("R must lie in M_k (x) M'")

    # phi(A) = U* (I_k (x) A) U is then a *-homomorphism within these premises,
    # so it is not tested again: phi(I) - I = U*U - I is bounded above,
    # phi(x*) = phi(x)* holds exactly, and phi(xy) - phi(x)phi(y) =
    # U*(I(x)x)(I - UU*)(I(x)y)U; with |UU* - R| <= 10 tol, |(I - R)U| <= 11 tol |U|
    # and |[R, I(x)x]| <= tol max(1, |x|), its norm is below
    # (10 + 11 + 1)(1 + tol) tol max(1, |x|) max(1, |y|)

    # U* (E_ab (x) B) U = U_a* B U_b over the row blocks U_a of U and the
    # graded basis of f: e is the filtration t -> U* (M_k (x) V_t) U, grown
    # grade by grade, with a breakpoint where the embedded level grows; with
    # V the U_a side by side, V* B V holds every U_a* B U_b
    blocks = um.reshape(amp_dim, f.n, g.n).transpose(1, 0, 2).reshape(f.n, -1)
    emb = f.compress(0, f.cuts[-1], blocks, blocks).reshape(-1, amp_dim, g.n, amp_dim, g.n)
    emb = emb.transpose(0, 1, 3, 2, 4).reshape(-1, g.n, g.n)
    e = _grown(g.n, f.breakpoints, np.split(emb, np.multiply(f.cuts[:-1], amp_dim ** 2)), cfg)
    # the first level of e holding each level of g: a prefix maximum over g's graded basis, read by its reader
    first = np.concatenate([e._first_levels(rows.conj().reshape(-1, g.n, g.n), cfg) for rows in g._rows(g.cuts[-1])])
    reach = np.maximum.accumulate(np.concatenate([[0], first]))[g.cuts]
    if reach[0] > 0 or reach[-1] == len(e.cuts):
        return math.inf
    return float((np.asarray(e.breakpoints)[reach[1:]] / np.asarray(g.breakpoints[1:])).max(initial=0.0))
