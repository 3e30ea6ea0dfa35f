import functools
import math
from itertools import combinations, product

import numpy as np
import pytest

from qwmetric import (
    AmplifiedProjection,
    MetricContext,
    from_classical,
    rho,
    validate,
)
from qwmetric.codes import (
    QuantumCode,
    _site_basis,
    block_algebra_context,
    block_filtration,
    hamming_filtration,
    hamming_level_dimension,
    kl_check,
    induced_metric,
    min_distance,
    volume_bound,
)
from qwmetric.constructions import lp_product
from qwmetric.errors import NotACode, SizeLimit
from qwmetric.numerics import range_projection

from conftest import basis_state_projection


def repetition_code_projector():
    p = np.zeros((8, 8), dtype=complex)
    p[0, 0] = 1.0
    p[7, 7] = 1.0
    return p


@pytest.fixture(scope="module")
def ham3():
    return hamming_filtration(3, 2)


class TestHammingFiltration:
    def test_level_dimensions_match_count(self):
        h = hamming_filtration(2, 2)
        assert [lv.dim for lv in h.levels] == [1, 7, 16]
        assert [lv.dim for lv in h.levels] == [hamming_level_dimension(2, 2, t) for t in range(3)]

    def test_qutrit_dimensions(self):
        h = hamming_filtration(2, 3)
        assert [lv.dim for lv in h.levels] == [1, 17, 81]
        assert hamming_level_dimension(2, 3, 1) == 1 + 2 * 8

    def test_single_site_two_levels(self):
        h = hamming_filtration(1, 2)
        assert h.breakpoints == [0.0, 1.0]
        assert [lv.dim for lv in h.levels] == [1, 4]

    def test_is_a_quantum_metric(self):
        h = hamming_filtration(2, 2)
        assert validate(h, MetricContext.full(4)).is_metric

    def test_size_cap(self):
        with pytest.raises(SizeLimit):
            hamming_filtration(9, 2)

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_rho_is_bit_hamming_distance(self, n_sites):
        h = hamming_filtration(n_sites, 2)
        dim = 2 ** n_sites
        for x in range(dim):
            for y in range(dim):
                p = AmplifiedProjection.base(basis_state_projection(dim, x))
                q = AmplifiedProjection.base(basis_state_projection(dim, y))
                assert rho(h, p, q) == bin(x ^ y).count("1")

    def test_equals_l1_power_of_single_site(self):
        h1 = hamming_filtration(1, 2)
        h2 = hamming_filtration(2, 2)
        prod = lp_product(h1, h1, 1.0)
        assert prod.breakpoints == h2.breakpoints
        for a, b in zip(prod.levels, h2.levels):
            assert a.dim == b.dim and a.equals(b)

    @pytest.mark.parametrize(
        "n_sites, local_dim",
        [(n, d) for d in range(2, 9) for n in range(1, 7) if d ** n <= 64],
    )
    def test_basis_is_the_kron_enumeration(self, n_sites, local_dim):
        """Weight, then site set, then traceless choices with the last site
        fastest; each element the Kronecker product of its site factors."""
        site = list(_site_basis(local_dim))
        want = []
        for w in range(n_sites + 1):
            for sites in combinations(range(n_sites), w):
                for choice in product(range(1, local_dim ** 2), repeat=w):
                    pick = dict(zip(sites, choice))
                    want.append(functools.reduce(np.kron, [site[pick.get(s, 0)] for s in range(n_sites)]))
        h = hamming_filtration(n_sites, local_dim, cap=64)
        np.testing.assert_array_equal(h.basis, np.stack(want))
        assert h.cuts == [hamming_level_dimension(n_sites, local_dim, t) for t in range(n_sites + 1)]

    def test_three_fold_l1_power_dimensions(self):
        h1 = hamming_filtration(1, 2)
        prod = lp_product(lp_product(h1, h1, 1.0), h1, 1.0)
        h3 = hamming_filtration(3, 2)
        assert prod.breakpoints == h3.breakpoints
        assert [lv.dim for lv in prod.levels] == [lv.dim for lv in h3.levels]


class TestBlockFiltration:
    def test_single_block_is_hamming(self):
        b = block_filtration([2])
        h = hamming_filtration(2, 2)
        assert b.breakpoints == h.breakpoints
        assert all(x.equals(y) for x, y in zip(b.levels, h.levels))

    def test_two_single_qubit_blocks(self):
        b = block_filtration([1, 1])
        assert [lv.dim for lv in b.levels] == [2, 8]

    def test_zero_level_is_block_commutant(self):
        b = block_filtration([1, 2])
        ctx = block_algebra_context([1, 2])
        assert b.levels[0].equals(ctx.commutant)
        assert validate(b, ctx).is_metric

    def test_mixed_block_dims(self):
        b = block_filtration([1, 2])
        # level 1: per-block sum_{j<=1} C(n_i, j) 3^j = (1 + 3) + (1 + 6)
        assert b.levels[1].dim == 4 + 7


class TestKLCheck:
    def test_trivial_code_fails(self, ham3):
        code = QuantumCode(np.eye(8, dtype=complex), ham3)
        assert not kl_check(code, 1).detects

    def test_repetition_code_fails_at_k1_with_z_witness(self, ham3):
        code = QuantumCode(repetition_code_projector(), ham3)
        report = kl_check(code, 1)
        assert not report.detects
        # the worst violator is the single-site diagonal direction Z_1
        z1 = np.kron(np.diag([1.0, -1.0]), np.eye(4)).astype(complex) / (2 * math.sqrt(2))
        lv1 = ham3.value_at(1)
        witness = lv1.basis[report.worst_index]
        # some single-site diagonal direction violates; P Z_i P has
        # eigenvalues +-1 on the code, never a scalar
        assert report.worst_residual > 0.1
        idx_z1 = next(i for i, b in enumerate(lv1.basis) if np.allclose(b, z1))
        assert report.residuals[idx_z1] > 0.1

    def test_repetition_code_passes_k0(self, ham3):
        code = QuantumCode(repetition_code_projector(), ham3)
        assert kl_check(code, 0).detects

    def test_rank_one_code_always_passes(self, ham3):
        p0 = np.zeros((8, 8), dtype=complex)
        p0[0, 0] = 1.0
        code = QuantumCode(p0, ham3)
        for k in range(4):
            assert kl_check(code, k).detects

    def test_epsilon_values_are_compression_traces(self, ham3):
        code = QuantumCode(repetition_code_projector(), ham3)
        report = kl_check(code, 0)
        # at level 0 only the normalized identity: eps = tr(P I P)/tr(P) / sqrt(8)
        assert report.epsilon[0] == pytest.approx(1 / math.sqrt(8))


class TestMinDistance:
    def test_repetition_code_delta_one(self, ham3):
        code = QuantumCode(repetition_code_projector(), ham3)
        assert min_distance(code) == 1.0

    def test_identity_delta_is_first_jump(self, ham3):
        code = QuantumCode(np.eye(8, dtype=complex), ham3)
        assert min_distance(code) == 1.0

    def test_classical_repetition_under_classical_hamming(self):
        d = np.array([[bin(x ^ y).count("1") for y in range(8)] for x in range(8)], dtype=float)
        f, _ = from_classical(d)
        code = QuantumCode(repetition_code_projector(), f)
        assert min_distance(code) == 3.0

    def test_rank_one_code_infinite_delta(self, ham3):
        p0 = np.zeros((8, 8), dtype=complex)
        p0[0, 0] = 1.0
        assert min_distance(QuantumCode(p0, ham3)) == math.inf

    @pytest.mark.parametrize("seed", range(3))
    def test_delta_exceeding_k_implies_detectability(self, seed, ham3):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        p = range_projection(v.reshape(-1, 1))
        code = QuantumCode(p, ham3)
        delta = min_distance(code)
        for k in range(4):
            if delta > k:
                assert kl_check(code, k).detects

    def test_delta_matches_separating_witness_infimum(self, ham3):
        """delta(P) equals the smallest positive rho between subprojections
        of P (x) I, realized through separation witnesses on the corner."""
        code = QuantumCode(repetition_code_projector(), ham3)
        delta = min_distance(code)
        corner = induced_metric(ham3, code.projector)
        # the induced metric's first jump realizes the infimum
        assert corner.breakpoints[1] == delta


class TestVolumeBound:
    def test_rank_one_code(self, ham3):
        p0 = np.zeros((8, 8), dtype=complex)
        p0[0, 0] = 1.0
        rep = volume_bound(QuantumCode(p0, ham3), 0)
        assert rep.dim_k == 1 and rep.bound == 8.0 and rep.holds

    def test_identity_at_k0_saturates(self, ham3):
        rep = volume_bound(QuantumCode(np.eye(8, dtype=complex), ham3), 0)
        assert rep.dim_k == 1
        assert rep.code_dim == 8 and rep.holds

    def test_failing_code_rejected(self, ham3):
        code = QuantumCode(repetition_code_projector(), ham3)
        with pytest.raises(NotACode):
            volume_bound(code, 1)

    def test_rank_one_k2_gram_rank(self, ham3):
        # for a generic rank-one code the level-1 Gram form has full rank 10
        rng = np.random.default_rng(1)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        code = QuantumCode(range_projection(v.reshape(-1, 1)), ham3)
        assert kl_check(code, 2).detects
        rep = volume_bound(code, 2)
        assert rep.holds
        assert rep.dim_k <= ham3.value_at(1).dim

    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_small_code_corpus(self, seed):
        """Every code passing the audit satisfies tr(P) <= D / dim_K."""
        rng = np.random.default_rng(seed)
        n_sites = int(rng.integers(2, 4))
        h = hamming_filtration(n_sites, 2)
        dim = 2 ** n_sites
        r = int(rng.integers(1, 3))
        v = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
        code = QuantumCode(range_projection(v), h)
        for k in range(n_sites + 1):
            if kl_check(code, k).detects:
                assert volume_bound(code, k).holds


def _explicit_audit(p, basis):
    """Residuals ||P B P - eps P|| and eps = tr(P B P) / tr P, element by
    element on n x n matrices."""
    tr_p = np.trace(p).real
    eps = [np.trace(p @ b @ p) / tr_p for b in basis]
    res = [np.linalg.norm(p @ b @ p - e * p, 2) for b, e in zip(basis, eps)]
    return np.array(eps), np.array(res)


def _explicit_rank(mats, tol=1e-9):
    rows = np.stack([m.reshape(-1) for m in mats])
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(s > tol * s[0]))


def _explicit_distance(p, f):
    """First breakpoint where the span of the P B P grows past level 0."""
    base = _explicit_rank([p @ b @ p for b in f.levels[0].basis])
    for t, lv in zip(f.breakpoints[1:], f.levels[1:]):
        if _explicit_rank([p @ b @ p for b in lv.basis]) > base:
            return t
    return math.inf


def _explicit_dim_k(p, basis):
    """Rank of the Gram form tr(P B* A P) / tr P on a level."""
    tr_p = np.trace(p).real
    gram = np.array([[np.trace(p @ b.conj().T @ a @ p) / tr_p for b in basis] for a in basis])
    w = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    return int(np.sum(w > 1e-9 * max(w[-1], 1.0)))


def _explicit_worst_index(res, tol=1e-8):
    """First residual within tol of the largest, None when all are below tol."""
    top = max(res, default=0.0)
    return None if top <= tol else next(i for i, r in enumerate(res) if r >= top - tol)


# model name -> (largest k audited, builder)
AUDIT_MODELS = {
    "hamming2": (2, lambda: hamming_filtration(2, 2)),
    "hamming3": (3, lambda: hamming_filtration(3, 2)),
    "hamming4": (4, lambda: hamming_filtration(4, 2)),
    "blocks12": (2, lambda: block_filtration([1, 2])),
}


class TestAuditsAgainstExplicitFormulas:
    """kl_check, min_distance and volume_bound read the code through its
    isometry; each is checked against its formula on n x n matrices."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("model", list(AUDIT_MODELS))
    def test_random_code(self, model, rank):
        kmax, build = AUDIT_MODELS[model]
        f = build()
        rng = np.random.default_rng([rank, f.n])
        v = rng.standard_normal((f.n, rank)) + 1j * rng.standard_normal((f.n, rank))
        p = range_projection(v)
        code = QuantumCode(p, f)
        for k in range(kmax + 1):
            basis = f.value_at(k).basis
            eps, res = _explicit_audit(p, basis)
            report = kl_check(code, k)
            assert report.level_dim == len(basis)
            np.testing.assert_allclose(report.residuals, res, rtol=0, atol=1e-12)
            np.testing.assert_allclose([report.epsilon[i] for i in range(len(basis))], eps, rtol=0, atol=1e-12)
            assert report.worst_residual == pytest.approx(res.max(), abs=1e-12)
            assert report.worst_index == _explicit_worst_index(res)
            want = all(r <= 1e-8 * max(1.0, np.linalg.norm(b, 2)) for r, b in zip(res, basis))
            assert report.detects == want
            if want:
                rep = volume_bound(code, k)
                dim_k = _explicit_dim_k(p, f.value_at(math.floor(k / 2)).basis)
                assert (rep.dim_k, rep.bound) == (dim_k, f.n / dim_k)
            else:
                with pytest.raises(NotACode):
                    volume_bound(code, k)
        assert min_distance(code) == _explicit_distance(p, f)

    @pytest.mark.parametrize("model", list(AUDIT_MODELS))
    def test_projector_perturbed_within_tolerance(self, model):
        """P + delta Q, Q a rank-one kernel projection, is a projection
        within membership_tol: its code is the range of P, and the audits
        read it so, not as a code of rank + 1."""
        kmax, build = AUDIT_MODELS[model]
        f = build()
        rng = np.random.default_rng([7, f.n])
        v = rng.standard_normal((f.n, 3)) + 1j * rng.standard_normal((f.n, 3))
        q, _ = np.linalg.qr(v)
        p = q[:, :2] @ q[:, :2].conj().T
        pert = p + 5e-9 * np.outer(q[:, 2], q[:, 2].conj())
        exact, code = QuantumCode(p, f), QuantumCode(pert, f)
        for k in range(kmax + 1):
            basis = f.value_at(k).basis
            _, res = _explicit_audit(pert, basis)
            report = kl_check(code, k)
            np.testing.assert_allclose(report.residuals, res, rtol=0, atol=1e-8)
            assert report.detects == kl_check(exact, k).detects
            if report.detects:
                rep = volume_bound(code, k)
                assert rep.dim_k == _explicit_dim_k(pert, f.value_at(math.floor(k / 2)).basis)
        assert min_distance(code) == _explicit_distance(p, f)

    def test_tied_residuals_name_the_first(self, ham3):
        # the repetition code treats the three sites alike: Z_1, Z_2, Z_3 tie
        report = kl_check(QuantumCode(repetition_code_projector(), ham3), 1)
        tied = [i for i, r in enumerate(report.residuals) if abs(r - report.worst_residual) <= 1e-8]
        assert len(tied) > 1 and report.worst_index == tied[0]

    def test_exact_code_has_no_worst_index(self, ham3):
        report = kl_check(QuantumCode(basis_state_projection(8, 5), ham3), 3)
        assert report.detects and report.worst_index is None and report.worst_residual == 0.0
        assert report.residuals == [0.0] * 64


class TestInducedMetric:
    def test_identity_corner_is_original(self, ham3):
        ind = induced_metric(ham3, np.eye(8, dtype=complex))
        assert ind.breakpoints == ham3.breakpoints
        assert all(a.equals(b) for a, b in zip(ind.levels, ham3.levels))

    def test_repetition_corner_first_jump_at_delta(self, ham3):
        code = QuantumCode(repetition_code_projector(), ham3)
        ind = induced_metric(ham3, code.projector)
        assert ind.n == 2
        assert ind.breakpoints[1] == min_distance(code)

    def test_classical_subset_corner(self):
        d = np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]])
        f, ctx = from_classical(d)
        p = np.diag([1.0, 0.0, 1.0]).astype(complex)
        ind = induced_metric(f, p, ctx)
        from qwmetric import to_classical

        got = to_classical(ind, MetricContext.diagonal(2))
        np.testing.assert_array_equal(got, d[np.ix_([0, 2], [0, 2])])

    def test_projector_outside_algebra_rejected(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        f, ctx = from_classical(d)
        offdiag = np.ones((2, 2), dtype=complex) / 2
        with pytest.raises(NotACode):
            induced_metric(f, offdiag, ctx)


class TestQuantumCodeValidation:
    def test_rejects_non_projection(self, ham3):
        with pytest.raises(NotACode):
            QuantumCode(np.diag([0.5, 0, 0, 0, 0, 0, 0, 0]).astype(complex), ham3)

    def test_rejects_wrong_size(self, ham3):
        with pytest.raises(NotACode):
            QuantumCode(np.eye(4, dtype=complex), ham3)
