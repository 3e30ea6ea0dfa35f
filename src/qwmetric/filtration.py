"""Step filtrations of M_n(C): the finite-dimensional form of a quantum
pseudometric.

A filtration is a strictly increasing chain of operator systems S_0 c S_1 c
... c S_k attached to breakpoints 0 = t_0 < t_1 < ... < t_k, read as the
right-continuous step function V_t = S_i for the largest t_i <= t.  Infinite
distances are encoded by a top level smaller than M_n; no infinite breakpoint
is ever stored.

The chain is stored as one HS-orthonormal basis of the top level, adapted
to the flag, and one cut per breakpoint: ``levels[i]`` is the prefix view
basis[:cut_i], not a copy, and the grade of a basis element (the level it
enters) is its displacement gauge.  Every filtration is built from its
graded basis (``from_graded``, ``from_times``, ``_grown``); a file that
lists levels is read into one by the JSON reader (``cli.parse_filtration``).

The basis may also be held in factored form: as site factors
(``codes.SiteFactors``, the Hamming and block models) or as matrix units
(``MatrixUnits``, the classical metrics of ``from_classical``).  Then
``basis`` and ``levels`` are written out once, when first read.  Only this
class knows the storage: queries read it through ``apply``, ``compress``,
``element_norm``, ``_rows`` and the label answers of matrix units
(``_compression_norms``, ``_contractions``, ``_entry_times``), and
membership is one scale-free kernel, ``_levels_and_coordinates``.  The
dense path stays the general path, and the oracle of the label answers.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import opspace
from .errors import MixedDimensions, NegativeTime, NotAPseudometric, NotDiagonalContext
from .numerics import DEFAULT_CONFIG, NumericConfig, as_square, eye, op_norm, op_norms, rank
from .opspace import _BUDGET, OperatorSubspace, VNAlgebra, _extend, _orthonormalize, _star_rows, commutant, full_space, scalar_space

__all__ = [
    "StepFiltration",
    "MatrixUnits",
    "MetricContext",
    "ValidationReport",
    "validate",
    "from_classical",
    "to_classical",
    "descriptors",
]


class MatrixUnits:
    """A graded basis of matrix units, held as labels: element i is
    E_{rows[i], cols[i]} of M_n.  ``dense`` writes the basis out; ``apply``
    is a row gather, ``compress`` an outer product of gathered rows, and
    every element has norm 1.  StepFiltration reads the labels for rho's
    compression norms, the commutation scan, to_classical and membership."""

    def __init__(self, n: int, rows, cols):
        self.n, self.rows, self.cols = int(n), np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        self.shape = (len(self.rows), self.n, self.n)
        # each unit's entry in a row-major flattened matrix: its HS coordinate
        self.entries = self.rows * self.n + self.cols

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        out[np.arange(len(self.rows)), self.rows, self.cols] = 1.0
        return out

    def apply(self, lo: int, hi: int, x: np.ndarray) -> np.ndarray:
        """The (hi - lo, n, c) stack of E_xy x: row y of x, moved to row x."""
        out = np.zeros((hi - lo, self.n, x.shape[1]), dtype=complex)
        out[np.arange(hi - lo), self.rows[lo:hi]] = x[self.cols[lo:hi]]
        return out

    def compress(self, lo: int, hi: int, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The (hi - lo, v.shape[1], w.shape[1]) stack of v* E_xy w: the outer
        product of row x of conj(v) and row y of w."""
        return v[self.rows[lo:hi]].conj()[:, :, None] * w[self.cols[lo:hi]][:, None, :]

    def element_norm(self, i: int) -> float:
        return 1.0


def _time_steps(times: np.ndarray):
    """Breakpoints and cuts of elements entering at the nondecreasing
    ``times``: one breakpoint per distinct time, and 0 always a breakpoint."""
    bps = sorted({0.0, *times.tolist()})  # not np.unique: its first call adds about 1 MB of RSS
    return bps, np.searchsorted(times, bps, side="right")


class StepFiltration:
    """A quantum pseudometric as a step function of operator systems."""

    @classmethod
    def from_graded(cls, ambient_dim: int, breakpoints, basis, cuts) -> "StepFiltration":
        """Filtration whose level i is spanned by basis[:cuts[i]]; ``basis``
        must be HS-orthonormal and is shared, not copied.  It is a (k, n, n)
        stack, or a factored basis: an object with ``shape``, ``dense()``,
        ``apply(lo, hi, x)``, ``compress(lo, hi, v, w)`` and ``element_norm(i)``
        (``codes.SiteFactors``, or ``MatrixUnits``, whose labels the queries
        read in place of the dense kernels)."""
        f = cls.__new__(cls)
        f.n = int(ambient_dim)
        f.breakpoints = [float(t) for t in breakpoints]
        f._factors = basis if hasattr(basis, "dense") else None
        f._basis = np.asarray(basis, dtype=complex) if f._factors is None else None
        f._units = basis if isinstance(basis, MatrixUnits) else None
        f.cuts = [int(c) for c in cuts]
        # product reach tables by config, filled by _product_reach
        f._reach = {}
        if len(f.breakpoints) != len(f.cuts) or not f.cuts:
            raise MixedDimensions("breakpoints and levels must align and be nonempty")
        if not all(map(math.isfinite, f.breakpoints)):
            raise MixedDimensions("breakpoints must be finite")
        if abs(f.breakpoints[0]) > 0:
            raise MixedDimensions("first breakpoint must be 0")
        if not all(t1 > t0 for t0, t1 in zip(f.breakpoints, f.breakpoints[1:])):
            raise MixedDimensions("breakpoints must be strictly increasing")
        if f._graded.shape != (f.cuts[-1], f.n, f.n) or np.any(np.diff(f.cuts) < 0):
            raise MixedDimensions("cuts must be nondecreasing and end at the basis size")
        return f

    @classmethod
    def from_times(cls, ambient_dim: int, basis, times) -> "StepFiltration":
        """Filtration whose element basis[i] enters at times[i]: the (k, n, n)
        HS-orthonormal stack sorted stably by time, one breakpoint per
        distinct time, and 0 always a breakpoint.  No two levels are equal."""
        times = np.asarray(times, dtype=float)
        order = np.argsort(times, kind="stable")
        bps, cuts = _time_steps(times[order])
        return cls.from_graded(ambient_dim, bps, np.asarray(basis)[order], cuts)

    @property
    def _graded(self):
        """The basis as stored: the dense stack, or its factors."""
        return self._basis if self._factors is None else self._factors

    @property
    def basis(self) -> np.ndarray:
        """The graded basis as a dense (k, n, n) stack; a factored basis is
        written out on the first read and kept."""
        if self._basis is None:
            self._basis = self._factors.dense()
        return self._basis

    @functools.cached_property
    def levels(self) -> tuple:
        return tuple(OperatorSubspace(self.n, self.basis[:c]) for c in self.cuts)

    def apply(self, lo: int, hi: int, x: np.ndarray) -> np.ndarray:
        """basis[lo:hi] applied to the columns of the n x c matrix x: the
        (hi - lo, n, c) stack of the B x.  A dense basis takes one batched
        product; a factored one is never written out."""
        return self.basis[lo:hi] @ x if self._factors is None else self._factors.apply(lo, hi, x)

    def _amplified(self, lo: int, hi: int, x: np.ndarray) -> np.ndarray:
        """The columns (B (x) I_m) X_j for every B in basis[lo:hi] and every nm x c
        matrix X_j of a (g, nm, c) stack: a (g, nm, (hi - lo)*c) stack, each
        member's columns indexed (B, column).  Rows are indexed base-first, so
        B (x) I_m acts on X_j read as n x (m*c): the members side by side take
        one apply, and the Kronecker product is never formed."""
        g, nm, c = x.shape
        n, m = self.n, nm // self.n
        bx = self.apply(lo, hi, x.reshape(g, n, m * c).transpose(1, 0, 2).reshape(n, g * m * c))
        # member j's rows (i, a) and columns (B, col)
        return bx.reshape(hi - lo, n, g, m, c).transpose(2, 1, 3, 0, 4).reshape(g, nm, (hi - lo) * c)

    def compress(self, lo: int, hi: int, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The (hi - lo, v.shape[1], w.shape[1]) stack of v* B w over basis[lo:hi],
        for n-row matrices v and w.  A dense basis takes v* (basis[lo:hi] @ w); a
        factored one forms no B w."""
        if self._factors is None:
            return v.conj().T @ (self.basis[lo:hi] @ w)
        return self._factors.compress(lo, hi, v, w)

    def element_norm(self, i: int) -> float:
        """Operator norm of basis element i."""
        return op_norm(self.basis[i]) if self._factors is None else self._factors.element_norm(i)

    @property
    def grades(self) -> np.ndarray:
        """Index of the level each basis element enters."""
        return np.repeat(np.arange(len(self.cuts)), np.diff(self.cuts, prepend=0))

    @property
    def times(self) -> np.ndarray:
        """Entry time of each basis element: its grade's breakpoint."""
        return np.asarray(self.breakpoints)[self.grades]

    def level_index_at(self, t: float) -> int:
        if t < 0:
            raise NegativeTime(f"t = {t} < 0")
        return bisect.bisect_right(self.breakpoints, t) - 1

    def value_at(self, t: float) -> OperatorSubspace:
        """V_t: the level at the largest breakpoint <= t."""
        return self.levels[self.level_index_at(t)]

    @functools.cached_property
    def _conj_rows(self) -> np.ndarray:
        """The conjugated basis as (k, n^2) rows: flat @ _conj_rows.T holds the
        coefficients of flattened matrices against the basis."""
        return self.basis.reshape(-1, self.n * self.n).conj()

    def _chunks(self, entries: int):
        """The element ranges [lo, hi) of a scan of the graded basis, each to the
        first cut at or past twice its start and 64 elements on, or sooner
        once its products (``entries`` per element) would pass _BUDGET."""
        budget = max(1, _BUDGET // max(1, entries))
        lo = 0
        while lo < self.cuts[-1]:
            level = min(bisect.bisect_left(self.cuts, max(2 * lo, lo + 64)), len(self.cuts) - 1)
            hi = min(self.cuts[level], lo + budget)
            yield lo, hi
            lo = hi

    def _rows(self, cut: int):
        """The reader: the conjugated rows of basis[:cut], in order; cached in
        one piece for a dense basis, apply(lo, hi, I) per chunk for factors."""
        if self._factors is None:
            yield self._conj_rows[:cut]
            return
        for lo, hi in self._chunks(self.n * self.n):
            yield self.apply(lo, min(hi, cut), eye(self.n)).reshape(-1, self.n * self.n).conj()
            if hi >= cut:
                return

    def _coordinates(self, flat: np.ndarray, cut: int, residual: bool = False):
        """HS coordinates of the rows of ``flat`` against basis[:cut], one GEMM per
        piece of _rows (a gather of the units' entries for matrix units), and with
        ``residual`` each row less its projection."""
        if self._units is not None:
            coef = flat[:, self._units.entries[:cut]]
        else:
            coefs = [flat @ rows.T for rows in self._rows(cut)]
            coef = coefs[0] if len(coefs) == 1 else np.concatenate(coefs, axis=1)
        return coef, self._residual(flat, coef, cut) if residual else None

    def _residual(self, flat: np.ndarray, coef: np.ndarray, cut: int) -> np.ndarray:
        """Each row of ``flat`` less its projection onto basis[:cut], from its
        coordinates ``coef`` against it: one GEMM per piece of _rows, or one
        scatter into the units' entries for matrix units."""
        if self._units is not None:
            out = flat.copy()
            out[:, self._units.entries[:cut]] -= coef
            return out
        proj, lo = 0, 0
        for rows in self._rows(cut):  # the conjugated projection: conj(coef) @ rows, summed
            proj, lo = proj + coef[:, lo : lo + len(rows)].conj() @ rows, lo + len(rows)
        return flat - np.conj(proj)

    def _first_levels(self, mats: np.ndarray, cfg: NumericConfig) -> np.ndarray:
        """The membership kernel's levels alone (see _levels_and_coordinates)."""
        return self._levels_and_coordinates(mats, cfg)[0]

    def _levels_and_coordinates(self, mats: np.ndarray, cfg: NumericConfig):
        """The membership kernel: the first level holding each A of a stack (len(levels)
        outside the top), and the HS coordinates against the top it formed.  The squared
        residual at cut c is |part outside the top|^2 + sum_{a >= c} |coef_a|^2, at most
        membership_tol^2 max(1, |A|^2) inside (|A|^2: the sum at cut 0); no nearly equal
        norms are subtracted, and a top spanning M_n forms no part outside it."""
        flat = mats.reshape(len(mats), self.n * self.n)
        with np.errstate(over="ignore", invalid="ignore"):
            coef, outside = self._coordinates(flat, self.cuts[-1], self.cuts[-1] < self.n * self.n)
            tail = np.zeros((len(coef), coef.shape[1] + 1))
            tail[:, :-1] = np.cumsum(np.abs(coef[:, ::-1]) ** 2, axis=1)[:, ::-1]
            if outside is not None:
                tail += (np.linalg.norm(outside, axis=1) ** 2)[:, None]
            inside = tail[:, self.cuts] <= cfg.membership_tol ** 2 * np.maximum(1.0, tail[:, :1])
        first = len(self.cuts) - inside.sum(axis=1)  # nested levels: each row is False up to its first
        if not np.isfinite(tail[:, 0].sum()):  # squares that overflow: decided again at unit size
            finite = np.isfinite(flat).all(axis=1)
            first[~finite] = len(self.cuts)  # a non-finite entry lies in no level, whatever the coordinates
            redo = ~np.isfinite(tail[:, 0]) & finite
            first[redo] = self._first_levels(flat[redo] / np.abs(flat[redo]).max(axis=1, keepdims=True), cfg)
        return first, coef

    def _compression_norms(self, left: np.ndarray, right: np.ndarray, left_starts=(0,), right_starts=(0,)):
        """The reader of amplified compressions: per piece of the graded basis, its
        first element lo and the (len(left_starts), hi - lo, len(right_starts))
        squared HS norms of the blocks of L (B (x) I_m) R over its elements B, for
        an a x nm matrix L and an nm x b matrix R, the rows of L and the columns
        of R cut into blocks at the starts.

        A dense or site basis takes one apply and one product per chunk of
        _chunks (_amplified), and with one block each side drops the zero rows of
        L and zero columns of R first: they add nothing.  A matrix unit applies
        no B.  For m = 1, |L_i E_xy R_j|^2 = |L_i[:, x]|^2 |R_j[y, :]|^2, a
        product of two sums of squares, so it is 0 exactly where the dense
        compression is: the column and row sums once, then one gather per
        chunk.  For m > 1, L (E_xy (x) I_m) R is the product of the x-th column
        block of L and the y-th row block of R, one batched product of gathered
        blocks per chunk.  (The Grams of those blocks would cancel to about eps
        where the compression vanishes, and the square root of that reaches
        the zero test.)"""
        n, m, units = self.n, left.shape[1] // self.n, self._units
        if units is not None and m == 1:
            g = np.add.reduceat(np.abs(left) ** 2, left_starts, axis=0)
            h = np.add.reduceat(np.abs(right) ** 2, right_starts, axis=1)
            for lo, hi in self._chunks(len(left_starts) * len(right_starts)):
                yield lo, g[:, units.rows[lo:hi], None] * h[units.cols[lo:hi]]
            return
        if len(left_starts) == len(right_starts) == 1:
            left, right = left[left.any(axis=1)], right[:, right.any(axis=0)]
        # lx[x]: the x-th column block of L; ry[y]: the y-th row block of R
        lx, ry = left.reshape(len(left), n, m).transpose(1, 0, 2), right.reshape(n, m, -1)
        for lo, hi in self._chunks(right.size) if left.size and right.size else ():
            if units is None:
                c = (left @ self._amplified(lo, hi, right[None])[0]).reshape(len(left), hi - lo, -1)
            else:
                c = (lx[units.rows[lo:hi]] @ ry[units.cols[lo:hi]]).transpose(1, 0, 2)
            yield lo, np.add.reduceat(np.add.reduceat(c.real ** 2 + c.imag ** 2, left_starts, axis=0), right_starts, axis=2)

    def _contractions(self, cut: int):
        """The reader of normalized elements: per piece of _rows, its rows over
        their elements' operator norms (1 for 0), and those norms.  Matrix
        units have norm 1 and take no SVD."""
        for rows in self._rows(cut):
            if self._units is not None:
                yield rows, np.ones(len(rows))
                continue
            norms = op_norms(rows.reshape(-1, self.n, self.n))
            norms[norms == 0] = 1.0
            yield rows / norms[:, None], norms

    def _entry_times(self, cfg: NumericConfig) -> np.ndarray:
        """The (n, n) matrix of the entry time of the first basis element
        touching each entry (+inf for none): one scatter of the times for matrix
        units, a scan of the dense basis otherwise."""
        if self._units is not None:
            out = np.full((self.n, self.n), math.inf)
            out[self._units.rows, self._units.cols] = self.times
            return out
        return np.where(np.abs(self.basis) > cfg.membership_tol, self.times[:, None, None], math.inf).min(axis=0, initial=math.inf)

    def displacement_gauge(self, a, cfg: NumericConfig = DEFAULT_CONFIG) -> float:
        """D(A) = inf{t : A in V_t}; +inf when A is outside the top level."""
        m = as_square(a)
        if m.shape[0] != self.n:
            raise MixedDimensions("matrix size does not match filtration")
        i = self._first_levels(m[None], cfg)[0]
        return self.breakpoints[i] if i < len(self.breakpoints) else math.inf

    def __repr__(self):
        return f"StepFiltration(n={self.n}, breakpoints={self.breakpoints}, level_dims={self.cuts})"


def _grown(n: int, times, blocks, cfg: NumericConfig) -> StepFiltration:
    """Filtration grown from one block of candidates per time, times
    nondecreasing from times[0] = 0: each block adds its part outside the
    basis so far through opspace._extend, so candidates are orthonormal
    elements or compressions and products of them.  A block after the
    first that adds nothing makes no breakpoint."""
    rows, bps, cuts = np.zeros((0, n * n), dtype=complex), [], []
    for t, block in zip(times, blocks):
        new = _extend(rows, np.reshape(block, (-1, n * n)), n, cfg)
        if len(new) or not cuts:
            rows = np.concatenate([rows, new])
            bps.append(t)
            cuts.append(len(rows))
    return StepFiltration.from_graded(n, bps, rows.reshape(-1, n, n), cuts)


class MetricContext:
    """The von Neumann algebra M a pseudometric lives on, held by its
    commutant M'.  By the bicommutant theorem M = M'', so M' alone fixes
    the context, and it is what validate reads.  Handed None for M, the
    context forms M on its first read, as commutant(M')."""

    def __init__(self, algebra: VNAlgebra | None, commutant: VNAlgebra):
        self.commutant, self._cfg = commutant, DEFAULT_CONFIG  # _cfg: the config M is formed with
        if algebra is not None:
            self.algebra = algebra

    @functools.cached_property
    def algebra(self) -> VNAlgebra:
        return commutant(self.commutant.basis, self.commutant.n, self._cfg)

    @classmethod
    def from_algebra(cls, algebra: VNAlgebra, cfg: NumericConfig = DEFAULT_CONFIG) -> "MetricContext":
        return cls(algebra, commutant(algebra.basis, algebra.n, cfg))

    @classmethod
    def from_generators(cls, gens, n: int, cfg: NumericConfig = DEFAULT_CONFIG) -> "MetricContext":
        """The context W*(S), held as W*(S)' = (S u S*)', the commutant of the
        span of S u S* at unit size; no algebra is generated."""
        ctx = cls(None, commutant(_orthonormalize(_star_rows(gens, n), n, cfg, unit_rows=True), n, cfg))
        ctx._cfg = cfg
        return ctx

    @classmethod
    def full(cls, n: int, cfg: NumericConfig = DEFAULT_CONFIG) -> "MetricContext":
        """M = M_n with its matrix units, M' = C.I."""
        return cls(VNAlgebra(n, full_space(n).basis, cfg, verify=False), VNAlgebra(n, scalar_space(n).basis, cfg, verify=False))

    @classmethod
    def diagonal(cls, n: int, cfg: NumericConfig = DEFAULT_CONFIG) -> "MetricContext":
        """M = diagonal algebra of M_n (the classical algebra on n points)."""
        alg = VNAlgebra(n, _diagonal_units(n), cfg, verify=False)
        # the diagonal algebra is maximal abelian, hence its own commutant
        return cls(alg, alg)

    def is_diagonal(self, cfg: NumericConfig = DEFAULT_CONFIG) -> bool:
        """M is the diagonal algebra D exactly when M' is: D is maximal abelian."""
        n = self.commutant.n
        return self.commutant.dim == n and bool(self.commutant.contains_each(_diagonal_units(n), cfg).all())


def _diagonal_units(n: int) -> np.ndarray:
    """The matrix units E_ii, shape (n, n, n)."""
    units = np.zeros((n, n, n), dtype=complex)
    units[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    return units


def _sized(f: StepFiltration, ctx: MetricContext | None) -> MetricContext | None:
    """``ctx`` as given, once it lives on the M_n of ``f`` (None passes): the
    size check of every query that takes a context."""
    if ctx is not None and ctx.commutant.n != f.n:
        raise MixedDimensions(f"context on M_{ctx.commutant.n} for a filtration on M_{f.n}")
    return ctx


def default_context(f: StepFiltration, cfg: NumericConfig = DEFAULT_CONFIG) -> MetricContext:
    """The canonical context M = (V_0)', held as M' = V_0: every filtration is a
    metric there.  Level 0 is read through ``apply``, so a factored basis is not written out."""
    ctx = MetricContext(None, VNAlgebra(f.n, f.apply(0, f.cuts[0], eye(f.n)), cfg))
    ctx._cfg = cfg
    return ctx


@dataclass
class ValidationReport:
    is_filtration: bool
    is_pseudometric: bool
    is_metric: bool
    violations: list = field(default_factory=list)

    def __bool__(self):
        return self.is_filtration


def _products(f: StepFiltration, ci: int, cj: int):
    """The products B_a B_b for a < ci, b < cj, in blocks of rows a (opspace._products)."""
    return opspace._products(f.basis[:ci], f.basis[:cj])


def _product_reach(f: StepFiltration, cfg: NumericConfig) -> np.ndarray:
    """reach[i, j]: the first level containing V_{t_i} V_{t_j}, or
    len(levels) when it leaves the top.  By bilinearity this is the largest
    first level of a product B_a B_b with grades at most (i, j): one pass
    over basis pairs, then a prefix maximum over grades.  The table is kept
    on the filtration (read-only, by config), so validate followed by
    descriptors makes the pass once and no module state holds f."""
    if cfg in f._reach:
        return f._reach[cfg]
    grades = f.grades
    reach = np.full((len(f.cuts), len(f.cuts)), -1)
    k = f.cuts[-1]
    for a0, prods in _products(f, k, k):
        first = f._first_levels(prods, cfg).reshape(-1, k)
        np.maximum.at(reach, (grades[a0 : a0 + len(first), None], grades[None]), first)
    reach = np.maximum.accumulate(np.maximum.accumulate(reach, axis=0), axis=1)
    reach.flags.writeable = False
    f._reach[cfg] = reach
    return reach


def validate(f: StepFiltration, ctx: MetricContext | None = None, cfg: NumericConfig = DEFAULT_CONFIG) -> ValidationReport:
    """Check the filtration axioms and, when a context is given, the
    pseudometric (M' <= V_0) and metric (V_0 = M') conditions.

    Every violated axiom is recorded with the witnessing data.  The product
    law is checked for all breakpoint pairs, which is necessary and
    sufficient under step semantics.
    """
    _sized(f, ctx)
    # level i is an operator system when I and the adjoints of its basis lie in it
    mats = np.concatenate([eye(f.n)[None], np.conj(np.transpose(f.basis, (0, 2, 1)))])
    system_from = np.maximum.accumulate(f._first_levels(mats, cfg))
    violations = [("not_operator_system", i) for i, c in enumerate(f.cuts) if system_from[c] > i]
    violations += [("not_strictly_increasing", i) for i, c in enumerate(f.cuts[1:]) if c == f.cuts[i]]
    target = np.searchsorted(f.breakpoints, np.add.outer(f.breakpoints, f.breakpoints), side="right") - 1
    violations += [("product_law", (int(i), int(j))) for i, j in zip(*np.nonzero(_product_reach(f, cfg) > target))]
    is_filtration = not violations
    # with no context the filtration is a metric on (V_0)' by construction
    holds = ctx is None or bool((f._first_levels(ctx.commutant.basis, cfg) == 0).all())
    if not holds:
        violations.append(("commutant_not_contained", 0))
    is_pseudometric = is_filtration and holds
    is_metric = is_pseudometric and (ctx is None or f.cuts[0] == ctx.commutant.dim)
    return ValidationReport(is_filtration, is_pseudometric, is_metric, violations)


def _check_classical(d: np.ndarray, cfg: NumericConfig):
    """Raise NotAPseudometric at the first failure, in the order of a scan
    over x (self-distance, then each y: sign, symmetry), then over (x, y, z)
    for the triangle inequality."""
    n = d.shape[0]
    if d.shape != (n, n):
        raise NotAPseudometric("distance matrix must be square")
    tol = cfg.membership_tol
    negative = d < 0
    with np.errstate(invalid="ignore"):  # inf - inf where both are infinite
        infinite = np.isinf(d) | np.isinf(d.T)
        asymmetric = np.where(infinite, d != d.T, np.abs(d - d.T) > tol * np.maximum(1.0, np.abs(d)))
    bad = np.diagonal(d) != 0
    rows = np.flatnonzero(bad | (negative | asymmetric).any(axis=1))
    if rows.size:
        x = int(rows[0])
        if bad[x]:
            raise NotAPseudometric(f"nonzero self-distance at {x}", witness=(x, x, x))
        y = int(np.argmax(negative[x] | asymmetric[x]))
        if negative[x, y]:
            raise NotAPseudometric(f"negative distance at ({x},{y})", witness=(x, y, y))
        raise NotAPseudometric(f"asymmetric at ({x},{y})", witness=(x, y, x))
    block = max(1, (1 << 20) // max(1, n * n))  # about n^2 * block booleans at a time
    for x0 in range(0, n, block):
        # fails[x, y, z]: d(x, z) > d(x, y) + d(y, z) + tol
        fails = d[x0 : x0 + block, None, :] > d[x0 : x0 + block, :, None] + d[None] + tol
        if fails.any():
            x, y, z = map(int, np.unravel_index(np.argmax(fails), fails.shape))
            x += x0
            raise NotAPseudometric(f"triangle inequality fails at ({x},{y},{z})", witness=(x, y, z))


def from_classical(d, cfg: NumericConfig = DEFAULT_CONFIG):
    """Quantum pseudometric of a classical distance matrix on n points.

    Level at t is the span of the matrix units E_xy with d(x, y) <= t, so
    the matrix units sorted stably by distance are a graded basis, held as
    labels (MatrixUnits) and never written out by the queries.  Entries may
    be +inf; those pairs never enter, so the top level is the block algebra
    of finite-distance components.  Returns (filtration, ctx) with ctx the
    diagonal algebra.
    """
    d = np.asarray(d, dtype=float)
    _check_classical(d, cfg)
    n = d.shape[0]
    finite = np.flatnonzero(np.isfinite(d))
    times = d.reshape(-1)[finite]
    order = np.argsort(times, kind="stable")
    entries, (bps, cuts) = finite[order], _time_steps(times[order])
    return StepFiltration.from_graded(n, bps, MatrixUnits(n, entries // n, entries % n), cuts), MetricContext.diagonal(n, cfg)


def to_classical(f: StepFiltration, ctx: MetricContext, cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Distance matrix recovered from a filtration over the diagonal algebra:
    d(x, y) is the grade of the first basis element touching the (x, y)
    entry."""
    if not _sized(f, ctx).is_diagonal(cfg):
        raise NotDiagonalContext("context algebra is not the diagonal algebra")
    return f._entry_times(cfg)


def _spans(f: StepFiltration, i: int, j: int, k: int, cfg: NumericConfig) -> bool:
    """Whether the products B_a B_b (a < cut_i, b < cut_j) have rank dim V_k under
    span's rank rule, read on their coefficients against V_k accumulated by QR."""
    ci, cj, ck = f.cuts[i], f.cuts[j], f.cuts[k]
    if not (ci and cj):
        return ck == 0
    r = np.zeros((0, ck), dtype=complex)
    for _, prods in _products(f, ci, cj):
        coef = f._coordinates(prods.reshape(len(prods), -1), ck)[0]
        r = np.linalg.qr(np.concatenate([r, coef]), mode="r")
    return rank(np.linalg.svd(r, compute_uv=False), cfg) == ck


def _path_triples(f: StepFiltration) -> list:
    """The distinct triples (i, j, k) of levels at (s, t, s + t) over the
    breakpoint sum grid, read off in one pass, in the order of
    (cut_i * cut_j, triple)."""
    bps, m = np.asarray(f.breakpoints), len(f.breakpoints)
    grid = np.unique(np.add.outer(bps, bps))  # breakpoints and their sums, as bps[0] = 0
    level = np.searchsorted(bps, grid, side="right") - 1
    # the code (i * m + j) * m + k of each grid pair (s, t): sorted codes are sorted triples
    codes = np.unique(np.add.outer(level * m, level) * m + np.searchsorted(bps, np.add.outer(grid, grid), side="right") - 1)
    triples = np.stack([codes // (m * m), codes // m % m, codes % m], axis=1)
    cuts = np.asarray(f.cuts)
    cost = cuts[triples[:, 0]] * cuts[triples[:, 1]]
    return triples[np.argsort(cost, kind="stable")].tolist()


def descriptors(f: StepFiltration, cfg: NumericConfig = DEFAULT_CONFIG) -> dict:
    """Scalar shape descriptors: diameter, uniform-discreteness gap, and the
    path property certified on the breakpoint sum grid.

    The path check runs once per triple of _path_triples, cheapest first:
    V_i V_j = V_k when the products lie in V_k and span it.  A triple
    containing a spanning triple with the same target spans too, so only
    its containment is checked."""
    diameter = next((t for t, c in zip(f.breakpoints, f.cuts) if c == f.n * f.n), math.inf)
    gap = f.breakpoints[1] if len(f.breakpoints) > 1 else math.inf
    reach = _product_reach(f, cfg)
    spanning = {}
    path = True
    for i, j, k in _path_triples(f):
        dominated = any(i >= i0 and j >= j0 for i0, j0 in spanning.get(k, ()))
        if reach[i, j] > k or not (dominated or _spans(f, i, j, k, cfg)):
            path = False
            break
        spanning.setdefault(k, []).append((i, j))
    return {
        "diameter": diameter,
        "uniformly_discrete": True,
        "gap": gap,
        "path_flag": path,
    }
