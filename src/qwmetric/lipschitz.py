"""Spectral and commutation Lipschitz gauges for a step filtration.

The spectral number L_s is computed exactly: for a finite spectrum the
supremum of (b - a) / rho(P_{<=a}, P_{>=b}) is attained at eigenvalue
thresholds.  The commutation number L_c is reported as a certified lower
bound (the exact maximization of ||[A, C]|| over the operator-norm ball of a
level is not tractable in general); for Hermitian inputs L_s closes the
interval from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CommutantMember, DimensionMismatch, PostconditionFailed, ZeroProjection
from .filtration import StepFiltration
from .geometry import AmplifiedProjection, _align, _rho_table, _spread_projection, rho, separating_projections
from .numerics import (
    DEFAULT_CONFIG,
    NumericConfig,
    _eig_clusters,
    as_square,
    hermitian_eig,
    op_norm,
    op_norms,
    range_projection,
)

__all__ = [
    "LipschitzReport",
    "AscentBudget",
    "spectral_lipschitz",
    "commutation_lipschitz_lower",
    "distance_operator",
    "rho_from_gauge",
    "lipschitz_witness",
    "spectral_join",
]


@dataclass
class LipschitzReport:
    """A Lipschitz number plus the witness that attains it."""

    value: float
    witness: dict

    def __float__(self):
        return float(self.value)


@dataclass(frozen=True)
class AscentBudget:
    restarts: int = 32
    steps: int = 200

    @classmethod
    def deterministic(cls) -> "AscentBudget":
        """Candidate scan only, no random restarts."""
        return cls(restarts=0, steps=0)


def spectral_lipschitz(f: StepFiltration, a, amp_degree: int = 1, cfg: NumericConfig = DEFAULT_CONFIG) -> LipschitzReport:
    """L_s(A) = max over eigenvalue pairs of gap / rho of half-line spectral
    projections; 0/0 counts as 0, positive gap over rho = 0 as +inf, and
    ties keep the first pair.  Every rho comes from one scan of the graded
    basis (geometry._rho_table); only the witness's two projections are
    formed and checked."""
    m = as_square(a)
    if m.shape[0] != f.n * amp_degree:
        raise DimensionMismatch("matrix size does not match filtration * amplification")
    # _eig_clusters raises NotHermitian on a non-Hermitian input
    values, blocks = _eig_clusters(m, cfg)
    table = _rho_table(f, blocks, cfg)
    best, at = 0.0, None
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            gap = values[j] - values[i]
            r = float(table[i, j])
            ratio = 0.0 if gap == 0 else (math.inf if r == 0 else gap / r)
            if ratio > best:
                best, at = ratio, (i, j, r)
    if at is None:
        return LipschitzReport(best, {"pair": None, "rho": None})
    i, j, r = at
    # the witness's half-line projections, summed in the order of a cumulative sum from each end
    low = sum(b @ b.conj().T for b in blocks[: i + 1])
    high = sum(b @ b.conj().T for b in reversed(blocks[j:]))
    return LipschitzReport(best, {
        "pair": (values[i], values[j]),
        "rho": r,
        "low": AmplifiedProjection(f.n, amp_degree, low, cfg),
        "high": AmplifiedProjection(f.n, amp_degree, high, cfg),
    })


def _norm_one(c: np.ndarray) -> np.ndarray:
    nrm = op_norm(c)
    return c if nrm == 0 else c / nrm


def commutation_lipschitz_lower(
    f: StepFiltration,
    a,
    budget: AscentBudget = AscentBudget(),
    seed: int = 0,
    cfg: NumericConfig = DEFAULT_CONFIG,
) -> LipschitzReport:
    """Certified lower bound on L_c(A) = sup ||[A, C]|| / t over contractions
    C in V_t.

    For each breakpoint the bound maximizes the top singular value of [A, C]
    over the unit ball of the level, combining deterministic candidates
    (normalized basis elements) with multi-start projected subgradient
    ascent in the HS coordinates of the level.  Every evaluated ratio is a
    true lower bound, so the report never overshoots.  The basis is read
    through the filtration's reader of normalized elements, one chunk at a
    time.
    """
    m = as_square(a)
    if m.shape[0] != f.n:
        raise DimensionMismatch("matrix size does not match filtration")
    rng = np.random.default_rng(seed)
    best, witness = 0.0, {"t": None, "contraction": None}

    def consider(ts, vals, pick):
        """Keep the best of scored candidates, the i-th taken at ts[i] as pick(i); ties keep the first."""
        nonlocal best, witness
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, witness = float(vals[i]), {"t": float(ts[i]), "contraction": pick(i)}

    # each basis element's operator norm (1 for 0) and normalized commutator norm, per piece of
    # the reader: its rows are conjugated, and conjugating A and B keeps both norms
    mc, norms, scored = m.conj(), [], []
    for rows, nrm in f._contractions(f.cuts[-1]):
        cs = rows.reshape(-1, f.n, f.n)
        norms.append(nrm)
        scored.append(op_norms(mc @ cs - cs @ mc))
    norms, scored = np.concatenate(norms), np.concatenate(scored)
    if scored.size and len(f.breakpoints) > 1:
        # each element scores once, at its entry time: at a later t it had the smaller ratio
        # ||[A, C]|| / t; elements of V_0 compete at the first positive breakpoint
        entry = np.maximum(f.times, f.breakpoints[1])
        consider(entry, scored / entry, lambda i: f.apply(i, i + 1, np.eye(f.n))[0] / norms[i])
    if budget.restarts <= 0:
        return LipschitzReport(best, witness)
    # only the ascent reads the whole basis, and its commutators [A, B]
    basis = np.concatenate(list(f._rows(f.cuts[-1]))).conj().reshape(-1, f.n, f.n)
    comms = m @ basis - basis @ m
    for t, k in zip(f.breakpoints, f.cuts):
        if t <= 0 or k == 0 or np.max(np.abs(comms[:k])) <= cfg.membership_tol:
            continue
        for _ in range(budget.restarts):
            z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            c = _norm_one(np.tensordot(z, basis[:k], axes=(0, 0)))
            step = 0.5
            for it in range(budget.steps):
                phi = m @ c - c @ m
                u, s, vh = np.linalg.svd(phi)
                if s[0] <= cfg.membership_tol:
                    break
                # d sigma_max = Re(u^H [A, B_k] v dz_k); ascend along conj gradient
                grad = (comms[:k] @ vh[0].conj()) @ u[:, 0].conj()
                z = basis[:k].reshape(k, -1).conj() @ c.reshape(-1) + step * grad.conj()
                c = _norm_one(np.tensordot(z, basis[:k], axes=(0, 0)))
                step *= 0.97
            c = _norm_one(c)[None]
            consider([t], op_norms(m @ c - c @ m) / t, lambda i, c=c: c[i])
    return LipschitzReport(best, witness)


def distance_operator(f: StepFiltration, r: AmplifiedProjection, c: float, cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The profile operator A with A R = 0, A Q = c Q whenever rho(Q, R) >= c,
    and L_s(A) <= 1.

    Closed form for step data: A = sum_i delta_i (I - N_{t_i}) with N_t the
    projection onto (V_t (x) I) ran(R) and the delta_i partitioning [0, c]
    along the breakpoints below c.
    """
    if c <= 0:
        raise ZeroProjection("need a positive ceiling c")
    if r.rank == 0:
        raise ZeroProjection("distance operator needs a nonzero projection")
    nm = r.n * r.m
    a = np.zeros((nm, nm), dtype=complex)
    bps = [t for t in f.breakpoints if t < c]
    for t, nxt, cut in zip(bps, bps[1:] + [c], f.cuts):  # bps is a prefix of the breakpoints
        a += (nxt - t) * (np.eye(nm) - _spread_projection(f, cut, r, cfg))
    # slack: A sums up to one rounded projection per breakpoint below c
    if op_norm(a @ r.matrix) > 10 * cfg.membership_tol * max(1.0, c):
        raise PostconditionFailed("distance operator failed to annihilate its anchor")
    return a


def rho_from_gauge(f: StepFiltration, p: AmplifiedProjection, q: AmplifiedProjection, cfg: NumericConfig = DEFAULT_CONFIG) -> float:
    """Recover rho(P, Q) by spectral read-off of the distance operator: the
    largest a with Q below the [a, inf) spectral projection of the profile
    anchored at P.  A consistency oracle: asserts agreement with rho."""
    direct = rho(f, p, q, cfg)
    if direct == 0:
        return 0.0
    pp, qq = _align(p, q)
    ceiling = direct if math.isfinite(direct) else f.breakpoints[-1] + 1.0
    a = distance_operator(f, pp, ceiling, cfg)
    values, qm = hermitian_eig(a, cfg)[0], qq.matrix
    # the eigenvalue of A on ran(Q), which is then the largest v with Q <= P_[v, inf)(A): every
    # N_t below the ceiling annihilates Q, since ran(Q) is orthogonal to (V_t (x) I) ran(P), so
    # A Q = ceiling Q; slack: A is exact only within the slack of distance_operator
    aq, slack = a @ qm, 10 * cfg.membership_tol
    read = next((v for v in reversed(values) if op_norm(aq - v * qm) <= slack * max(1.0, abs(v))), None)
    if read is None:
        raise PostconditionFailed("Q is not in an eigenspace of the distance operator")
    if abs(read - ceiling) > cfg.membership_tol * max(1.0, ceiling):
        raise PostconditionFailed(f"gauge read-off {read} disagrees with rho {direct}")
    return read if math.isfinite(direct) else math.inf


def lipschitz_witness(f: StepFiltration, c, seed: int = 0, cfg: NumericConfig = DEFAULT_CONFIG) -> LipschitzReport:
    """A Hermitian B with a certified commutation-Lipschitz bound 1 and
    [B, C] != 0, for any C outside V_0.

    Follows the density argument: separate C from V_0, build the distance
    profile A for the separating P at ceiling rho(P, Q), then compress A by a
    rank-one amplification slot chosen so the compressed commutator stays
    nonzero.  The certificate is L_s(A) <= 1 at the amplified level, which
    dominates ||[B, D]||/t for every contraction D in V_t.
    """
    cm = as_square(c)
    if cm.shape[0] != f.n:
        raise DimensionMismatch("matrix size does not match filtration")
    if f._first_levels(cm[None], cfg)[0] == 0:
        raise CommutantMember("operator already lies in the zero level")
    p, q = separating_projections(f, 0.0, cm, cfg)
    r = rho(f, p, q, cfg)
    ceiling = r if math.isfinite(r) else f.breakpoints[-1] + 1.0
    a = distance_operator(f, p, ceiling, cfg)
    m, b0, peak = p.m, None, float(np.abs(cm).max())
    cu = cm / peak  # the candidate test is scale-free: C over its largest modulus (not 0, as C is outside V_0)
    floor = 10 * cfg.membership_tol * max(1.0, op_norm(cu))
    # coordinate slots first, then random rank-one slots
    rng = np.random.default_rng(seed)
    candidates = [np.eye(m)[:, k] for k in range(m)]
    candidates += [rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(8)]
    for w in candidates:
        w = np.asarray(w, dtype=complex)
        w = w / np.linalg.norm(w)
        # compressed block: B0[i, j] = w^H A^{(i, j)} w
        blocks = a.reshape(f.n, m, f.n, m)
        b_cand = np.einsum("p,ipjq,q->ij", w.conj(), blocks, w)
        # slack: a compression of A, which is exact only within the slack of distance_operator
        if op_norm(b_cand @ cu - cu @ b_cand) > floor:
            b0 = b_cand
            break
    if b0 is None:
        raise CommutantMember("no rank-one compression kept the commutator nonzero")
    ls_cert = spectral_lipschitz(f, a, amp_degree=m, cfg=cfg).value
    return LipschitzReport(
        value=1.0,
        witness={
            "matrix": (b0 + b0.conj().T) / 2,
            "commutator_norm": op_norm(b0 @ cu - cu @ b0) * peak,
            "amplified_ls": ls_cert,
            "rho": r,
        },
    )


def spectral_join(a, b, cfg: NumericConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Spectral join of two Hermitian matrices: the operator whose strict
    upper spectral projections are the joins of the operands'."""
    ma, mb = as_square(a), as_square(b)
    if ma.shape != mb.shape:
        raise DimensionMismatch("operands of the join must have equal size")
    clusters = [_eig_clusters(ma, cfg), _eig_clusters(mb, cfg)]
    thresholds = sorted({v for values, _ in clusters for v in values})
    n = ma.shape[0]
    out = thresholds[0] * np.eye(n, dtype=complex)
    for prev, t in zip(thresholds, thresholds[1:]):
        # E(s) for s in [prev, t): the join of the two strict upper projections, the range of
        # the eigenvector blocks above the midpoint (a closed lower half-line takes the
        # clusters within eig_cluster_tol of its end)
        cut = (prev + t) / 2 + cfg.eig_cluster_tol
        above = [blk for values, blocks in clusters for v, blk in zip(values, blocks) if v > cut]
        out = out + (t - prev) * range_projection(np.concatenate([np.zeros((n, 0)), *above], axis=1), cfg)
    return out
