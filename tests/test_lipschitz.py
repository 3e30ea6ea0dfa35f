import functools
import math
import warnings

import numpy as np
import pytest

from qwmetric import AmplifiedProjection, from_classical, rho
from qwmetric.errors import CommutantMember, NotHermitian, ZeroProjection
from qwmetric.lipschitz import (
    AscentBudget,
    commutation_lipschitz_lower,
    distance_operator,
    lipschitz_witness,
    rho_from_gauge,
    spectral_join,
    spectral_lipschitz,
)
from qwmetric.codes import hamming_filtration
from qwmetric.constructions import truncate
from qwmetric.geometry import _rho_table
from qwmetric.numerics import DEFAULT_CONFIG, _eig_clusters, hermitian_eig, op_norm, random_hermitian, random_unitary, range_projection

from conftest import (
    DIAG,
    basis_state_projection,
    brute_lipschitz,
    m2_graded,
    random_metric,
    random_step_filtration,
)


def countersum_metric(n):
    """The two- or three-level metric with the diagonal direction entering at
    2/n and everything else at 1 (defined for n >= 2)."""
    a = 2.0 / n
    if a < 1.0:
        return m2_graded([0, a, 1], "IZXY", [1, 2, 4])
    return m2_graded([0, 1], "IZXY", [1, 4])


class TestSpectralLipschitz:
    def test_scalar_is_flat(self, rng):
        f = random_step_filtration(3, rng)
        assert spectral_lipschitz(f, 3.7 * np.eye(3)).value == 0.0

    def test_rejects_non_hermitian(self, rng):
        f = random_step_filtration(2, rng)
        with pytest.raises(NotHermitian):
            spectral_lipschitz(f, np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("n", [2, 5, 10, 100])
    def test_countersum_family(self, n):
        f = countersum_metric(n)
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.ones((2, 2), dtype=complex) / n
        assert spectral_lipschitz(f, a).value == pytest.approx(1.0, abs=1e-9)
        assert spectral_lipschitz(f, b).value == pytest.approx(1.0, abs=1e-9)
        expected = math.sqrt(n * n + 4) / 2
        assert spectral_lipschitz(f, a + b).value == pytest.approx(expected, abs=1e-9)

    def test_sum_superadditivity_failure_witnessed(self):
        # for n >= 5 the sum exceeds L_s(A) + L_s(B) = 2
        f = countersum_metric(5)
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.ones((2, 2), dtype=complex) / 5
        assert spectral_lipschitz(f, a + b).value > 2.0

    @pytest.mark.parametrize("seed", range(5))
    def test_classical_multiplier_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        d = random_metric(n, rng)
        f, _ = from_classical(d)
        fv = rng.uniform(-2, 2, n)
        got = spectral_lipschitz(f, np.diag(fv).astype(complex)).value
        assert got == pytest.approx(brute_lipschitz(fv, d), abs=1e-8)

    def test_witness_reproduces_value(self, rng):
        d = random_metric(4, rng)
        f, _ = from_classical(d)
        fv = rng.uniform(-2, 2, 4)
        rep = spectral_lipschitz(f, np.diag(fv).astype(complex))
        lo, hi = rep.witness["pair"]
        r = rho(f, rep.witness["low"], rep.witness["high"])
        assert (hi - lo) / r == pytest.approx(rep.value, abs=1e-8)


def rho_every_pair(f, a, amp_degree=1):
    """The spectral Lipschitz number written out: one rho scan per
    eigenvalue pair, between the cumulative half-line projections.  Also
    returns every pair's rho, keyed by the pair's cluster indices."""
    values, projections = hermitian_eig(a)
    lows, highs = np.cumsum(projections, axis=0), np.cumsum(projections[::-1], axis=0)[::-1]
    best, pair, r_best, rhos = 0.0, None, None, {}
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            gap = values[j] - values[i]
            low, high = (AmplifiedProjection(f.n, amp_degree, p) for p in (lows[i], highs[j]))
            r = rhos[i, j] = rho(f, low, high)
            ratio = 0.0 if gap == 0 else (math.inf if r == 0 else gap / r)
            if ratio > best:
                best, pair, r_best = ratio, (values[i], values[j]), r
    return best, pair, r_best, rhos


@functools.lru_cache(maxsize=1)
def spectral_cases():
    """(filtration, Hermitian A, amplification) for the one-scan oracle."""
    rng = np.random.default_rng(2718)
    cases = []
    for n in (3, 5, 7):
        f, _ = from_classical(random_metric(n, rng))
        cases += [(f, np.diag(rng.uniform(-2, 2, n)).astype(complex), 1), (f, random_hermitian(n, rng), 1)]
    # two components at infinite distance: pairs across them never link
    d = np.full((4, 4), math.inf)
    d[:2, :2] = d[2:, 2:] = [[0.0, 1.5], [1.5, 0.0]]
    f, _ = from_classical(d)
    cases += [(f, np.diag([0.0, 1.0, 3.0, -2.0]).astype(complex), 1), (f, random_hermitian(4, rng), 1)]
    # points 0 and 1 glued: the first pair at rho = 0 is linked only through the farther cluster
    f, _ = from_classical(random_metric(3, rng, allow_zero=True))
    cases.append((f, np.diag([0.0, 2.0, 1.0]).astype(complex), 1))
    for n in (2, 3, 4):
        g = random_step_filtration(n, rng, levels=2)
        cases += [(g, random_hermitian(n, rng), 1), (truncate(g, 0.8 * g.breakpoints[-1]), random_hermitian(n, rng), 1)]
        cases += [(g, random_hermitian(2 * n, rng), 2), (g, random_hermitian(3 * n, rng), 3)]
    # eigenvalue gaps just inside and just outside the merge width
    tol = DEFAULT_CONFIG.eig_cluster_tol
    f, _ = from_classical(random_metric(4, rng))
    for gap in (0.5 * tol, 2 * tol):
        u = random_unitary(4, rng)
        for lam in ([0.0, gap, 1.0, 1.0 + gap], [0.0, gap, 2 * gap, 1.0]):
            a = u @ np.diag(lam) @ u.conj().T
            cases += [(f, (a + a.conj().T) / 2, 1), (f, np.diag(lam).astype(complex), 1)]
    cases.append((hamming_filtration(3, 2), random_hermitian(16, rng), 2))
    return cases


class TestSpectralScan:
    """spectral_lipschitz reads every rho from one scan of the graded basis."""

    @pytest.mark.parametrize("case", range(len(spectral_cases())))
    def test_matches_one_rho_per_pair(self, case):
        f, a, m = spectral_cases()[case]
        rep = spectral_lipschitz(f, a, amp_degree=m)
        value, pair, r, rhos = rho_every_pair(f, a, m)
        table = _rho_table(f, _eig_clusters(a, DEFAULT_CONFIG)[1], DEFAULT_CONFIG)
        assert {ij: table[ij] for ij in rhos} == rhos
        assert rep.value == value
        assert rep.witness["pair"] == pair
        assert rep.witness["rho"] == r
        if pair is not None:
            lo, hi = rep.witness["low"], rep.witness["high"]
            assert (lo.m, hi.m) == (m, m)
            assert rho(f, lo, hi) == r

    def test_factored_basis_stays_factored(self, rng):
        f = hamming_filtration(4, 2)
        rep = spectral_lipschitz(f, random_hermitian(32, rng), amp_degree=2)
        assert rep.value > 0
        assert f._basis is None


class TestGaugeAxioms:
    """Quantum Lipschitz gauge axioms (translation, homogeneity, join,
    compression) for the spectral gauge."""

    @pytest.mark.parametrize("seed", range(4))
    def test_translation_and_homogeneity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        f = random_step_filtration(n, rng, classical=bool(seed % 2))
        a = random_hermitian(n, rng)
        base = spectral_lipschitz(f, a).value
        assert spectral_lipschitz(f, a + np.eye(n)).value == pytest.approx(base, abs=1e-8)
        assert spectral_lipschitz(f, -2.5 * a).value == pytest.approx(2.5 * base, abs=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_spectral_join_bound(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        f = random_step_filtration(n, rng)
        a = random_hermitian(n, rng)
        b = random_hermitian(n, rng)
        join = spectral_join(a, b)
        la = spectral_lipschitz(f, a).value
        lb = spectral_lipschitz(f, b).value
        lj = spectral_lipschitz(f, join).value
        assert lj <= max(la, lb) + 1e-8

    def test_spectral_join_decomposes_each_operand_once(self, monkeypatch):
        """One eigendecomposition per operand, however many thresholds the
        join has, and each strict upper spectral projection of the join is
        the join of the operands'."""
        rng = np.random.default_rng(3)
        a, b = random_hermitian(4, rng), random_hermitian(4, rng)
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        join = spectral_join(a, b)
        assert len(calls) == 2
        monkeypatch.undo()

        def upper(m, s):
            w, v = np.linalg.eigh(m)
            return v[:, w > s] @ v[:, w > s].conj().T

        for s in np.linspace(-4, 4, 17):
            expected = range_projection(np.concatenate([upper(a, s), upper(b, s)], axis=1))
            np.testing.assert_allclose(upper(join, s), expected, atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_compression_axiom(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 2, 2
        f = random_step_filtration(n, rng)
        a = random_hermitian(n * m, rng)
        a = a + (abs(min(np.linalg.eigvalsh(a))) + 0.1) * np.eye(n * m)  # positive
        bm = np.kron(np.eye(n), rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        # the transform with spectral projections [B P_{(s,inf)}(A)]
        from qwmetric.numerics import hermitian_eig, spectral_projection

        values, _ = hermitian_eig(a)
        thresholds = sorted(set(values))
        out = np.zeros((n * m, n * m), dtype=complex)
        prev = 0.0
        for t in thresholds:
            mid = (prev + t) / 2 if t > 0 else 0.0
            upper = np.eye(n * m) - spectral_projection(a, "le", mid)
            out = out + (t - prev) * range_projection(bm @ upper)
            prev = t
        la = spectral_lipschitz(f, a, amp_degree=m).value
        lab = spectral_lipschitz(f, out, amp_degree=m).value
        assert lab <= la + 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_piecewise_linear_composition(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        d = random_metric(n, rng)
        f, _ = from_classical(d)
        a = np.diag(rng.uniform(-1, 1, n)).astype(complex)
        slope = 1.7
        fa = slope * np.clip(np.diag(a).real, -0.5, 0.5)
        got = spectral_lipschitz(f, np.diag(fa).astype(complex)).value
        assert got <= slope * spectral_lipschitz(f, a).value + 1e-8


def scan_every_prefix(f, a):
    """The deterministic candidate scan written out: every element of every
    level, normalized and rescored at every positive breakpoint."""
    best, t_best, c_best = 0.0, None, None
    for t, lv in zip(f.breakpoints, f.levels):
        if t <= 0:
            continue
        for b in lv.basis:
            nrm = op_norm(b)
            c = b if nrm == 0 else b / nrm
            val = op_norm(a @ c - c @ a) / t
            if val > best:
                best, t_best, c_best = val, t, c
    return best, t_best, c_best


def ascent_per_element_gradient(f, a, budget, seed, tol=1e-9):
    """The commutation lower bound, its ascent gradient taken one basis
    element at a time as u* [A, B_k] v."""
    rng = np.random.default_rng(seed)
    best = commutation_lipschitz_lower(f, a, budget=AscentBudget.deterministic()).value
    comms = a @ f.basis - f.basis @ a
    for t, lv in zip(f.breakpoints, f.levels):
        k = lv.dim
        if t <= 0 or k == 0 or np.max(np.abs(comms[:k])) <= tol:
            continue
        for _ in range(budget.restarts):
            z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            c = np.tensordot(z, lv.basis, axes=(0, 0))
            c /= op_norm(c)
            step = 0.5
            for _ in range(budget.steps):
                u, s, vh = np.linalg.svd(a @ c - c @ a)
                if s[0] <= tol:
                    break
                grad = np.array([u[:, 0].conj() @ comm @ vh[0].conj() for comm in comms[:k]])
                z = lv.coefficients(c) + step * grad.conj()
                c = np.tensordot(z, lv.basis, axes=(0, 0))
                c /= op_norm(c)
                step *= 0.97
            best = max(best, op_norm(a @ c - c @ a) / op_norm(c) / t)
    return best


class TestCommutationLower:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_scan_matches_every_prefix_loop(self, n):
        rng = np.random.default_rng(n)
        m = 2 + n % 3
        cases = [from_classical(random_metric(n, rng))[0], random_step_filtration(m, rng), random_step_filtration(m, rng, levels=3)]
        for f in cases:
            for a in (np.diag(rng.uniform(-2, 2, f.n)).astype(complex), random_hermitian(f.n, rng)):
                rep = commutation_lipschitz_lower(f, a, budget=AscentBudget.deterministic())
                value, t, c = scan_every_prefix(f, a)
                assert rep.value == value
                assert rep.witness["t"] == t
                if c is None:
                    assert rep.witness["contraction"] is None
                else:
                    np.testing.assert_array_equal(rep.witness["contraction"], c)

    def test_commuting_operator_scores_zero(self, rng):
        f = random_step_filtration(3, rng)
        rep = commutation_lipschitz_lower(f, np.eye(3), budget=AscentBudget.deterministic())
        assert rep.value == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_classical_multiplier_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        d = random_metric(n, rng)
        f, _ = from_classical(d)
        fv = rng.uniform(-2, 2, n)
        rep = commutation_lipschitz_lower(f, np.diag(fv).astype(complex), budget=AscentBudget.deterministic())
        assert rep.value == pytest.approx(brute_lipschitz(fv, d), abs=1e-8)

    def test_m2_pauli_commutator(self):
        from qwmetric.constructions import m2_metric

        f = m2_metric(1, 1, 1)
        a = DIAG  # enters at 1; [diag, real-off] has norm 2
        rep = commutation_lipschitz_lower(f, a, budget=AscentBudget.deterministic())
        assert rep.value >= 2.0 - 1e-9
        assert spectral_lipschitz(f, a).value == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_lower_bound_below_spectral(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        f = random_step_filtration(n, rng, classical=bool(seed % 2))
        a = random_hermitian(n, rng)
        lc = commutation_lipschitz_lower(f, a, budget=AscentBudget(restarts=4, steps=60), seed=seed)
        ls = spectral_lipschitz(f, a)
        if math.isfinite(ls.value):
            assert lc.value <= ls.value + 1e-6

    def test_witness_reproduces_value(self, rng):
        d = random_metric(4, rng)
        f, _ = from_classical(d)
        fv = rng.uniform(-2, 2, 4)
        a = np.diag(fv).astype(complex)
        rep = commutation_lipschitz_lower(f, a, budget=AscentBudget.deterministic())
        t, c = rep.witness["t"], rep.witness["contraction"]
        assert op_norm(c) <= 1 + 1e-9
        assert op_norm(a @ c - c @ a) / t == pytest.approx(rep.value, abs=1e-8)

    def test_ascent_improves_on_candidates_sometimes(self, rng):
        # non-classical filtration where basis elements are not optimal
        f = random_step_filtration(3, rng)
        a = random_hermitian(3, rng)
        det = commutation_lipschitz_lower(f, a, budget=AscentBudget.deterministic()).value
        asc = commutation_lipschitz_lower(f, a, budget=AscentBudget(restarts=8, steps=100)).value
        assert asc >= det - 1e-12

    def test_derivation_identity_of_commutators(self, rng):
        # the de Leeuw map content: [AB, C] = A [B, C] + [A, C] B
        a, b, c = (random_hermitian(3, rng) for _ in range(3))
        lhs = (a @ b) @ c - c @ (a @ b)
        rhs = a @ (b @ c - c @ b) + (a @ c - c @ a) @ b
        assert op_norm(lhs - rhs) < 1e-9

    def test_non_hermitian_input_supported(self, rng):
        # the commutation number needs no Hermiticity
        d = random_metric(3, rng)
        f, _ = from_classical(d)
        e01 = np.zeros((3, 3), dtype=complex)
        e01[0, 1] = 1.0
        mf = np.diag([0.0, 1.0, 2.5]).astype(complex)
        rep = commutation_lipschitz_lower(f, mf + 0.5j * e01, budget=AscentBudget.deterministic())
        assert rep.value > 0.0
        assert np.isfinite(rep.value)

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_ascent_gradient_matches_per_element_formula(self, seed):
        rng = np.random.default_rng(100 + seed)
        budget = AscentBudget(restarts=2, steps=40)
        for f, a in [
            (from_classical(random_metric(3 + seed, rng))[0], np.diag(rng.uniform(-2, 2, 3 + seed)).astype(complex)),
            (random_step_filtration(3, rng, levels=2), random_hermitian(3, rng)),
        ]:
            got = commutation_lipschitz_lower(f, a, budget=budget, seed=seed).value
            assert got == pytest.approx(ascent_per_element_gradient(f, a, budget, seed), rel=1e-12, abs=0)


class TestDistanceOperator:
    def test_full_projection_gives_zero(self, rng):
        f = random_step_filtration(3, rng)
        a = distance_operator(f, AmplifiedProjection.base(np.eye(3)), 2.0)
        assert op_norm(a) < 1e-9

    def test_zero_projection_rejected(self, rng):
        f = random_step_filtration(3, rng)
        with pytest.raises(ZeroProjection):
            distance_operator(f, AmplifiedProjection(3, 1, np.zeros((3, 3))), 1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_classical_profile(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        d = random_metric(n, rng)
        f, _ = from_classical(d)
        x = int(rng.integers(0, n))
        c = float(rng.uniform(0.5, d.max() + 1))
        a = distance_operator(f, AmplifiedProjection.base(basis_state_projection(n, x)), c)
        np.testing.assert_allclose(np.diag(a).real, np.minimum(d[x], c), atol=1e-9)

    def test_below_first_jump_single_term(self, rng):
        d = random_metric(3, rng)
        f, _ = from_classical(d)
        c = f.breakpoints[1] / 2
        r = AmplifiedProjection.base(basis_state_projection(3, 0))
        a = distance_operator(f, r, c)
        n0 = np.diag([1.0, 0, 0])
        np.testing.assert_allclose(a, c * (np.eye(3) - n0), atol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_postconditions(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        f = random_step_filtration(n, rng, classical=bool(seed % 2))
        x = int(rng.integers(0, n))
        r = AmplifiedProjection.base(basis_state_projection(n, x))
        c = float(rng.uniform(0.3, f.breakpoints[-1] + 1))
        a = distance_operator(f, r, c)
        assert op_norm(a @ r.matrix) < 1e-9
        assert spectral_lipschitz(f, a).value <= 1 + 1e-8
        # far projections see the ceiling
        for y in range(n):
            q = AmplifiedProjection.base(basis_state_projection(n, y))
            if rho(f, q, r) >= c:
                assert op_norm(a @ q.matrix - c * q.matrix) < 1e-8


class TestRhoFromGauge:
    def test_zero_case(self, rng):
        f = random_step_filtration(3, rng)
        p = AmplifiedProjection.base(basis_state_projection(3, 0) + basis_state_projection(3, 1))
        q = AmplifiedProjection.base(basis_state_projection(3, 1))
        assert rho_from_gauge(f, p, q) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_classical_singletons(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        d = random_metric(n, rng)
        f, _ = from_classical(d)
        x, y = rng.choice(n, size=2, replace=False)
        p = AmplifiedProjection.base(basis_state_projection(n, int(x)))
        q = AmplifiedProjection.base(basis_state_projection(n, int(y)))
        assert rho_from_gauge(f, p, q) == pytest.approx(d[x, y], abs=1e-8)

    def test_m2_eigenprojections(self):
        from qwmetric.constructions import m2_metric

        f = m2_metric(1, 2, 3)
        p = AmplifiedProjection.base(np.diag([1.0, 0.0]))
        q = AmplifiedProjection.base(np.diag([0.0, 1.0]))
        r = rho_from_gauge(f, p, q)
        assert r == rho(f, p, q) == 2.0  # linked by the real off-diagonal

    @pytest.mark.parametrize("seed", range(12))
    def test_random_projections_read_off_rho(self, seed):
        """Q lies in an eigenspace of the profile anchored at P, so the
        eigenvalue read-off alone recovers rho, also for projections in a
        random basis, of any rank and at amp_degree 2."""
        rng = np.random.default_rng(500 + seed)
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        f = random_step_filtration(n, rng)
        # orthogonal ranges, so that rho is positive over the scalar zero level
        w, k = random_unitary(n * m, rng), int(rng.integers(1, n * m))
        l = int(rng.integers(k + 1, n * m + 1))
        p, q = (AmplifiedProjection(n, m, c @ c.conj().T) for c in (w[:, :k], w[:, k:l]))
        direct = rho(f, p, q)
        assert direct > 0
        assert rho_from_gauge(f, p, q) == pytest.approx(direct, abs=1e-8)

    def test_unlinkable_pair(self):
        d = np.array([[0.0, math.inf], [math.inf, 0.0]])
        f, _ = from_classical(d)
        p = AmplifiedProjection.base(basis_state_projection(2, 0))
        q = AmplifiedProjection.base(basis_state_projection(2, 1))
        assert rho_from_gauge(f, p, q) == math.inf


class TestWitness:
    def test_off_diagonal_unit_on_classical(self, rng):
        d = random_metric(3, rng)
        f, _ = from_classical(d)
        e01 = np.zeros((3, 3), dtype=complex)
        e01[0, 1] = 1.0
        rep = lipschitz_witness(f, e01)
        b = rep.witness["matrix"]
        assert op_norm(b @ e01 - e01 @ b) > 1e-8
        assert rep.witness["amplified_ls"] <= 1 + 1e-8
        assert spectral_lipschitz(f, b).value <= 1 + 1e-8

    def test_commutant_member_rejected(self, rng):
        f = random_step_filtration(3, rng)
        with pytest.raises(CommutantMember):
            lipschitz_witness(f, np.eye(3))

    @pytest.mark.parametrize("scale", [1e150, 1e200])
    def test_a_huge_operator_takes_the_unit_ones_witness(self, scale):
        """s E_01 lies outside V_0 at every s (membership is scale-free), so
        it takes E_01's witness, and its commutator norm scales with s.  At
        s = 1e308 that norm itself overflows, so the sizes stop at 1e200."""
        from qwmetric.constructions import m2_metric

        f = m2_metric(1, 2, 3)
        e01 = np.array([[0, 1], [0, 0]], dtype=complex)
        got, want = lipschitz_witness(f, scale * e01), lipschitz_witness(f, e01)
        assert (got.value, got.witness["rho"]) == (want.value, want.witness["rho"])
        np.testing.assert_allclose(got.witness["matrix"], want.witness["matrix"], rtol=0, atol=1e-12)
        assert got.witness["commutator_norm"] / scale == pytest.approx(want.witness["commutator_norm"], rel=1e-12)

    @pytest.mark.parametrize("scale", [1e150, 8e307, 1e308])
    def test_the_candidate_test_is_scale_free(self, scale):
        """The compressed-commutator test reads C over its largest modulus
        against a floor relative to its norm, so C and s C pick the same
        rank-one slot, with no overflow warning, and the commutator norm
        scales with s: 2 s here, so inf at s = 1e308, past the largest float."""
        from qwmetric.constructions import m2_metric

        f = m2_metric(1, 2, 3)
        e01 = np.array([[0, 1], [0, 0]], dtype=complex)
        want = lipschitz_witness(f, e01)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = lipschitz_witness(f, scale * e01)
        np.testing.assert_array_equal(got.witness["matrix"], want.witness["matrix"])
        assert got.witness["commutator_norm"] == pytest.approx(scale * want.witness["commutator_norm"], rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_non_commutant_operators(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        f = random_step_filtration(n, rng, classical=bool(seed % 2))
        c = random_hermitian(n, rng)
        if f.levels[0].contains(c):
            return
        rep = lipschitz_witness(f, c, seed=seed)
        assert rep.witness["commutator_norm"] > 1e-8
        assert rep.witness["amplified_ls"] <= 1 + 1e-8

    def test_block_algebra_context(self, rng):
        # a metric over M_2 (+) M_2: non-commutant operators get witnesses
        from qwmetric.constructions import direct_sum, m2_metric

        f = direct_sum(m2_metric(1, 1, 2), m2_metric(1, 2, 2), bridge=2.0)
        c = random_hermitian(4, rng)
        assert not f.levels[0].contains(c)
        rep = lipschitz_witness(f, c)
        assert rep.witness["commutator_norm"] > 1e-8
        assert rep.witness["amplified_ls"] <= 1 + 1e-8
