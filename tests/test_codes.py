import math

import numpy as np
import pytest

from qwmetric import (
    AmplifiedProjection,
    MetricContext,
    StepFiltration,
    closure,
    from_classical,
    hausdorff_distance,
    neighborhood,
    probes_for_level,
    rho,
    separating_projections,
    validate,
)
from qwmetric import codes
from qwmetric.codes import (
    QuantumCode,
    SiteFactors,
    _write_run,
    block_algebra_context,
    block_filtration,
    hamming_filtration,
    hamming_level_dimension,
    kl_check,
    induced_metric,
    min_distance,
    volume_bound,
)
from qwmetric.constructions import co_lipschitz_number, hoelder, lp_product, quotient
from qwmetric.errors import CommutantMember, NotACode, SizeLimit
from qwmetric.filtration import default_context
from qwmetric.lipschitz import AscentBudget, commutation_lipschitz_lower, distance_operator, lipschitz_witness, rho_from_gauge
from qwmetric.numerics import op_norm, op_norms, range_projection
from qwmetric.opspace import VNAlgebra, full_space

from conftest import I2, PAULI_X, PAULI_Y, PAULI_Z, basis_state_projection


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
        h = hamming_filtration(9, 2)
        with pytest.raises(SizeLimit):
            h.basis

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_rho_is_bit_hamming_distance(self, n_sites):
        h = hamming_filtration(n_sites, 2)
        dim = 2 ** n_sites
        for x in range(dim):
            for y in range(dim):
                p = AmplifiedProjection.base(basis_state_projection(dim, x))
                q = AmplifiedProjection.base(basis_state_projection(dim, y))
                assert rho(h, p, q) == bin(x ^ y).count("1")

    @pytest.mark.parametrize("n_sites, local_dim", [(n, 2) for n in range(2, 7)] + [(2, 3), (3, 3)])
    def test_is_the_l1_product_of_its_halves(self, n_sites, local_dim):
        """The pair order makes the identity hold element for element."""
        h = n_sites // 2
        prod = lp_product(hamming_filtration(h, local_dim), hamming_filtration(n_sites - h, local_dim), 1.0)
        want = hamming_filtration(n_sites, local_dim)
        assert (prod.breakpoints, prod.cuts) == (want.breakpoints, want.cuts)
        assert np.array_equal(prod.basis, want.basis)

    @pytest.mark.parametrize(
        "n_sites, local_dim",
        [(n, d) for d in range(2, 9) for n in range(1, 7) if d ** n <= 64],
    )
    def test_basis_is_the_kron_enumeration(self, n_sites, local_dim):
        """Weight, then the Kronecker pair order of the halves' site-local
        labels; each element the Kronecker product of its halves' elements."""
        d = local_dim
        site = [np.eye(d, dtype=complex) / math.sqrt(d)]
        site += [np.outer(np.eye(d)[i], np.eye(d)[j]).astype(complex) for i in range(d) for j in range(d) if i != j]
        site += [np.diag([1.0] * k + [-k] + [0.0] * (d - k - 1)).astype(complex) / math.sqrt(k * k + k) for k in range(1, d)]

        def labels(n, w):
            if n == 1:
                return [(0,)] if w == 0 else [(k,) for k in range(1, d * d)]
            h = n // 2
            return [a + b for wl in range(max(0, w - (n - h)), min(w, h) + 1) for a in labels(h, wl) for b in labels(n - h, w - wl)]

        def element(label):
            h = len(label) // 2
            return site[label[0]] if len(label) == 1 else np.kron(element(label[:h]), element(label[h:]))

        h = hamming_filtration(n_sites, local_dim, cap=64)
        assert h.cuts == [hamming_level_dimension(n_sites, local_dim, t) for t in range(n_sites + 1)]
        for w, lo, hi in zip(range(n_sites + 1), [0] + h.cuts, h.cuts):
            np.testing.assert_array_equal(h.basis[lo:hi], np.stack([element(label) for label in labels(n_sites, w)]))

    @pytest.mark.parametrize(
        "n_sites, pairs",
        [(7, [(0, 0), (0, 1), (5, 6), (0, 127), (0b1010101, 0b0101010), (3, 96)]), (9, [(0, 0), (0, 256), (0, 7), (0, 0b100010001), (256, 0b100010001), (0, 0b11111), (0b110000011, 0b000111001)])],
    )
    def test_rho_on_models_past_the_dense_cap(self, n_sites, pairs):
        """rho reads the factored basis: 9 qubits are past SITE_CAP, and the
        7-qubit model is built with a cap below its size, so writing either
        basis out would raise."""
        h = hamming_filtration(n_sites, 2, cap=64)
        states = {x: AmplifiedProjection.base(basis_state_projection(2 ** n_sites, x)) for pair in pairs for x in pair}
        for x, y in pairs:
            assert rho(h, states[x], states[y]) == bin(x ^ y).count("1")

    @pytest.mark.parametrize("blocks", [[5], [2, 5]])
    def test_apply_on_element_ranges(self, blocks):
        """Ranges that start or end inside a run of one weight, as rho's
        bounded chunks take them, give the products of the dense basis."""
        f = block_filtration(blocks)
        rng = np.random.default_rng(len(blocks))
        x = rng.standard_normal((f.n, 2)) + 1j * rng.standard_normal((f.n, 2))
        k = len(f.basis)
        ranges = [(0, k), (0, 1), (k - 1, k), (3, 3)] + [tuple(sorted(rng.integers(0, k + 1, size=2))) for _ in range(8)]
        for lo, hi in ranges:
            np.testing.assert_allclose(f.apply(lo, hi, x), f.basis[lo:hi] @ x, atol=1e-12)

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


    def test_an_empty_level_has_no_residuals(self):
        f = StepFiltration.from_graded(2, [0, 1], np.stack([I2, PAULI_X, PAULI_Y, PAULI_Z]) / np.sqrt(2), [0, 4])
        code = QuantumCode(basis_state_projection(2, 0), f)
        report = kl_check(code, 0)
        assert (report.detects, report.worst_index, report.level_dim, report.residuals) == (True, None, 0, [])
        assert min_distance(code) == 1.0


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


PAULI = {"I": I2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

# stabilizer generators as Pauli strings (Gottesman, quant-ph/9705052)
FIVE_QUBIT = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
STEANE = ["IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"]
SHOR = ["ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX"]


def stabilizer_projector(stabilizers):
    """prod_g (I + g) / 2 over commuting generators; each Pauli string acts
    site by site on the rows, so no 2^n x 2^n string is formed."""
    n = len(stabilizers[0])
    p = np.eye(2 ** n, dtype=complex)
    for g in stabilizers:
        gp = p.reshape((2,) * n + (2 ** n,))
        for s, c in enumerate(g):
            gp = np.moveaxis(np.tensordot(PAULI[c], gp, axes=(1, s)), 0, s)
        p = (p + gp.reshape(p.shape)) / 2
    return p


class TestStabilizerCodes:
    """Audits of stabilizer codes on Hamming models of 5, 7 and 9 qubits,
    whose dense bases would take 17 MB, 4.3 GB and 1.1 TB: each model is
    built with a cap below its size, so writing its basis out would raise."""

    def test_five_qubit_code(self):
        code = QuantumCode(stabilizer_projector(FIVE_QUBIT), hamming_filtration(5, 2, cap=16))
        assert code.dim_code == 2
        assert kl_check(code, 2).detects and not kl_check(code, 3).detects
        assert min_distance(code) == 3
        rep = volume_bound(code, 2)
        # a perfect code: the bound 32 / 16 is tight
        assert (rep.dim_k, rep.bound, rep.holds) == (16, 2.0, True)

    def test_steane_code(self):
        code = QuantumCode(stabilizer_projector(STEANE), hamming_filtration(7, 2, cap=16))
        assert code.dim_code == 2
        assert [kl_check(code, k).detects for k in range(4)] == [True, True, True, False]
        assert min_distance(code) == 3

    def test_shor_code(self):
        code = QuantumCode(stabilizer_projector(SHOR), hamming_filtration(9, 2))
        assert code.dim_code == 2
        assert min_distance(code) == 3
        # degenerate: Z_1 Z_2 is a stabilizer, so Z_1 and Z_2 act alike on
        # the code and the Gram form on the 1 + 27 elements of level 1 is
        # singular
        rep = volume_bound(code, 2)
        assert rep.dim_k < 28 and rep.holds

    def test_one_code_is_decomposed_once(self, ham3, monkeypatch):
        eigh, calls = np.linalg.eigh, []

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        code = QuantumCode(basis_state_projection(8, 3), ham3)
        assert kl_check(code, 2).detects
        volume_bound(code, 2)
        min_distance(code)
        assert calls == [(8, 8)]


def _dense_copy(f):
    """The same filtration with its basis held dense: the reference path."""
    return StepFiltration.from_graded(f.n, f.breakpoints, f.basis, f.cuts)


def _criterion_07_codes():
    """The random codes of acceptance criterion 07, in its order."""
    rng = np.random.default_rng(107)
    for _ in range(40):
        n_sites = int(rng.integers(2, 4))
        dim = 2 ** n_sites
        r = int(rng.integers(1, 3))
        v = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
        yield n_sites, range_projection(v)


def _audit(code, kmax):
    """Every audit result the factored and the dense path must share."""
    out = []
    for k in range(kmax + 1):
        report = kl_check(code, k)
        vol = volume_bound(code, k) if report.detects else None
        out.append((report, vol and (vol.dim_k, vol.bound, vol.holds)))
    return out, min_distance(code)


def _assert_same_audits(p, f):
    kmax = len(f.cuts) - 1
    (got, got_md), (want, want_md) = _audit(QuantumCode(p, f), kmax), _audit(QuantumCode(p, _dense_copy(f)), kmax)
    assert got_md == want_md
    for (a, vol_a), (b, vol_b) in zip(got, want):
        assert (a.detects, a.level_dim, a.worst_index, vol_a) == (b.detects, b.level_dim, b.worst_index, vol_b)
        np.testing.assert_allclose(a.residuals, b.residuals, rtol=0, atol=1e-12)
        np.testing.assert_allclose(list(a.epsilon.values()), list(b.epsilon.values()), rtol=0, atol=1e-12)
        assert a.worst_residual == pytest.approx(b.worst_residual, abs=1e-12)


AGREE_MODELS = {
    **{name: build for name, (_, build) in AUDIT_MODELS.items()},
    "hamming1": lambda: hamming_filtration(1, 2),
    "qutrits2": lambda: hamming_filtration(2, 3),
}


class TestFactoredAndDenseAgree:
    """The factored basis and its dense form give the same audits: exactly
    on every decision and index, within 1e-12 on residuals and eps."""

    def test_criterion_07_corpus(self):
        models = {n: hamming_filtration(n, 2) for n in (2, 3)}
        _assert_same_audits(repetition_code_projector(), models[3])
        for n_sites, p in _criterion_07_codes():
            _assert_same_audits(p, models[n_sites])

    @pytest.mark.parametrize("model", list(AGREE_MODELS))
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_random_codes(self, model, rank):
        f = AGREE_MODELS[model]()
        rng = np.random.default_rng([rank, f.n, 8])
        v = rng.standard_normal((f.n, rank)) + 1j * rng.standard_normal((f.n, rank))
        _assert_same_audits(range_projection(v), f)

    @pytest.mark.parametrize("model", ["hamming4", "blocks12"])
    def test_stabilizer_and_basis_state_codes(self, model):
        f = AUDIT_MODELS[model][1]()
        _assert_same_audits(basis_state_projection(f.n, 1) + basis_state_projection(f.n, f.n - 1), f)
        if model == "hamming4":
            _assert_same_audits(stabilizer_projector(["XXXX", "ZZZZ"]), f)

    @pytest.mark.parametrize("model", ["hamming2", "hamming3", "hamming4", "blocks12"])
    def test_rho(self, model):
        f = AUDIT_MODELS[model][1]()
        dense = _dense_copy(f)
        rng = np.random.default_rng([f.n, 9])
        projections = [AmplifiedProjection.base(basis_state_projection(f.n, x)) for x in range(f.n)]
        for m in (1, 2):
            for _ in range(3):
                v = rng.standard_normal((f.n * m, 1)) + 1j * rng.standard_normal((f.n * m, 1))
                projections.append(AmplifiedProjection(f.n, m, range_projection(v)))
        for p in projections:
            for q in projections[:: max(1, len(projections) // 7)]:
                assert rho(f, p, q) == rho(dense, p, q)


def _written_out(f, lo, hi):
    """basis[lo:hi] of a factored model, each run written out as dense()
    writes it; only the runs the range meets, so a 6-qubit range needs no
    whole dense basis."""
    fac = f._factors
    out = np.zeros((hi - lo, f.n, f.n), dtype=complex)
    for start, stop, w, b in fac.runs:
        if start < hi and stop > lo:
            o0, o1 = fac.offsets[b], fac.offsets[b + 1]
            run = np.zeros((stop - start, o1 - o0, o1 - o0), dtype=complex)
            _write_run(run, fac.blocks[b], fac.d, w)
            a, z = max(lo, start), min(hi, stop)
            out[a - lo : z - lo, o0:o1, o0:o1] = run[a - start : z - start]
    return out


COMPRESS_MODELS = {
    **{f"hamming{n}": (lambda n=n: hamming_filtration(n, 2)) for n in range(1, 7)},
    "qutrits2": lambda: hamming_filtration(2, 3),
    "qutrits3": lambda: hamming_filtration(3, 3),
    "blocks12": lambda: block_filtration([1, 2]),
    "blocks23": lambda: block_filtration([2, 3]),
}


def _compress_ranges(f):
    """Whole levels, ranges inside one run and ranges across runs."""
    runs = f._factors.runs
    ranges = [(0, 0), (0, f.cuts[min(2, len(f.cuts) - 1)]), (f.cuts[0], f.cuts[1])]
    for start, stop, _, _ in runs:
        if stop - start > 2:
            ranges.append((start + 1, stop - 1))  # inside the run
        ranges.append((max(0, start - 1), min(f.cuts[-1], stop + 1)))  # across its ends
    # Hamming 6 past weight 3 is checked through its smaller runs only
    return [(lo, hi) for lo, hi in ranges if hi - lo <= 700]


class TestCompress:
    """compress(lo, hi, v, w) is v* B w over basis[lo:hi]; a factored basis
    forms no B w, and the audits and corners never form the B V stack."""

    def test_written_out_runs_are_the_dense_basis(self):
        f = block_filtration([2, 3])
        assert np.array_equal(_written_out(f, 0, f.cuts[-1]), f._factors.dense())

    @pytest.mark.parametrize("model", list(COMPRESS_MODELS))
    def test_factored_compress_is_v_star_b_w(self, model):
        f = COMPRESS_MODELS[model]()
        rng = np.random.default_rng([f.n, 20])
        v = rng.standard_normal((f.n, 3)) + 1j * rng.standard_normal((f.n, 3))
        w = rng.standard_normal((f.n, 2)) + 1j * rng.standard_normal((f.n, 2))
        for lo, hi in _compress_ranges(f):
            got = f.compress(lo, hi, v, w)
            assert got.shape == (hi - lo, 3, 2)
            np.testing.assert_allclose(got, v.conj().T @ (_written_out(f, lo, hi) @ w), rtol=0, atol=1e-12)
            np.testing.assert_allclose(f.compress(lo, hi, w, w), w.conj().T @ (_written_out(f, lo, hi) @ w), rtol=0, atol=1e-12)
        assert f._basis is None

    @pytest.mark.parametrize("model", ["hamming5", "blocks23"])
    def test_compress_in_pieces_under_a_small_budget(self, model, monkeypatch):
        """With _BUDGET a few hundred entries, the split runs are compressed
        in pieces of L and R factors, to the same stack."""
        f = COMPRESS_MODELS[model]()
        rng = np.random.default_rng([f.n, 21])
        v = rng.standard_normal((f.n, 4)) + 1j * rng.standard_normal((f.n, 4))
        want = [f.compress(lo, hi, v, v[:, :3]) for lo, hi in _compress_ranges(f)]
        monkeypatch.setattr(codes, "_BUDGET", 300)
        for (lo, hi), x in zip(_compress_ranges(f), want):
            np.testing.assert_allclose(f.compress(lo, hi, v, v[:, :3]), x, rtol=0, atol=1e-12)

    def test_dense_compress_is_the_batched_product(self):
        f = _dense_copy(block_filtration([1, 2]))
        rng = np.random.default_rng(22)
        v = rng.standard_normal((f.n, 3)) + 1j * rng.standard_normal((f.n, 3))
        w = rng.standard_normal((f.n, 2)) + 1j * rng.standard_normal((f.n, 2))
        for lo, hi in [(0, f.cuts[-1]), (2, 7), (5, 5)]:
            assert np.array_equal(f.compress(lo, hi, v, w), v.conj().T @ f.apply(lo, hi, w))

    def test_audits_and_corners_form_no_stack(self, monkeypatch):
        """With SiteFactors.apply raising, the audits and corners of a
        factored 5-qubit model (split into half-site factors) and the
        co-Lipschitz number of an amplified 3-qubit one give the dense
        models' results."""
        f, dense = hamming_filtration(5, 2), _dense_copy(hamming_filtration(5, 2))
        f3, dense3 = hamming_filtration(3, 2), _dense_copy(hamming_filtration(3, 2))
        # the default context of a Hamming model, M_32 over C I, without verifying M_32
        ctx = MetricContext(VNAlgebra(32, full_space(32).basis, verify=False), VNAlgebra(32, np.eye(32)[None] / np.sqrt(32), verify=False))
        ctx3 = default_context(dense3)
        rng = np.random.default_rng(23)
        v = rng.standard_normal((32, 2)) + 1j * rng.standard_normal((32, 2))
        code = range_projection(v)
        corner = basis_state_projection(32, 0) + basis_state_projection(32, 31)
        plus = np.ones((2, 1)) / np.sqrt(2)
        r, u = np.kron(plus @ plus.T, np.eye(8)), np.kron(plus, np.eye(8))

        def calls(g, g3):
            report = kl_check(QuantumCode(code, g), 2)
            return [
                (report.detects, report.worst_index, report.level_dim),
                min_distance(QuantumCode(corner, g)),
                co_lipschitz_number(g3, dense3, 2, r, u, ctx3),
                induced_metric(g, corner, ctx),
                quotient(g, np.eye(32), ctx),
            ]

        want = calls(dense, dense3)
        monkeypatch.setattr(SiteFactors, "apply", lambda *a: pytest.fail("SiteFactors.apply called"))
        got = calls(f, f3)
        assert got[:3] == want[:3]
        for a, b in zip(got[3:], want[3:]):
            assert (a.breakpoints, a.cuts) == (b.breakpoints, b.cuts)
            assert all(x.equals(y) for x, y in zip(a.levels, b.levels))
        assert f._basis is None and f3._basis is None

    def test_min_distance_grows_the_compressions_level_by_level(self):
        """The top level of 9 qubits holds 4^9 elements, whose 64 x 64
        compressions would take 16 GiB; the scan stops at level 1."""
        f = hamming_filtration(9, 2)
        p = np.zeros((512, 512), dtype=complex)
        p[np.arange(64), np.arange(64)] = 1.0
        assert min_distance(QuantumCode(p, f)) == 1.0


def _split_sizes(n_sites, d, weight):
    """(pairs, R factors) of each weight of L in the pair order of a run,
    counted from the halves' site sets and choices."""
    h, q = n_sites // 2, d * d - 1
    out = []
    for wl in range(max(0, weight - (n_sites - h)), min(weight, h) + 1):
        nr = math.comb(n_sites - h, weight - wl) * q ** (weight - wl)
        out.append((math.comb(h, wl) * q ** wl * nr, nr))
    return out


class TestElementNorm:
    """element_norm(i) is the operator norm of the written-out element."""

    @pytest.mark.parametrize("model", list(COMPRESS_MODELS))
    def test_every_element(self, model):
        f = COMPRESS_MODELS[model]()
        for lo in range(0, f.cuts[-1], 256):
            hi = min(lo + 256, f.cuts[-1])
            got = [f.element_norm(i) for i in range(lo, hi)]
            np.testing.assert_allclose(got, op_norms(_written_out(f, lo, hi)), rtol=0, atol=1e-12)

    def test_sampled_elements_past_the_cap(self):
        """9 qubits: each run's first and last element and one at random,
        each read through apply(i, i + 1, I)."""
        f = hamming_filtration(9, 2)
        rng = np.random.default_rng(24)
        eye = np.eye(f.n, dtype=complex)
        for start, stop, _, _ in f._factors.runs:
            for i in {start, stop - 1, int(rng.integers(start, stop))}:
                assert abs(f.element_norm(i) - op_norm(f.apply(i, i + 1, eye)[0])) <= 1e-12


class TestPairsMultiplied:
    """A range inside a run multiplies, per weight of L, the L rows it meets
    with the R factors they need: at most count + 2 (|R| - 1) pairs for
    count elements of the range."""

    @staticmethod
    def recording(monkeypatch):
        """Per kernel call, its arguments and, per piece, the position in
        ``out`` of its first pair and the number of pairs it multiplies."""
        calls, original = [], codes._pairs

        def wrapper(n_sites, d, weight, skip, out):
            made = []
            calls.append(((n_sites, d, weight, skip, len(out)), made))
            for left, right, dest in original(n_sites, d, weight, skip, out):
                assert dest.shape[:2] == (len(left), len(right)) and np.shares_memory(dest, out)
                made.append(((dest.ctypes.data - out.ctypes.data) // out.strides[0], len(left) * len(right)))
                yield left, right, dest

        monkeypatch.setattr(codes, "_pairs", wrapper)
        return calls

    @staticmethod
    def assert_bounded(calls):
        assert calls
        for (n_sites, d, weight, skip, count), made in calls:
            at, pairs = 0, []
            for size, nr in _split_sizes(n_sites, d, weight):
                inside = min(skip + count, at + size) - max(skip, at)
                if inside > 0:
                    pairs.append(sum(n for p, n in made if at <= skip + p < at + size))
                    assert pairs[-1] <= inside + 2 * (nr - 1)
                at += size
            assert sum(pairs) == sum(n for _, n in made) >= count

    def test_compress_ranges(self, monkeypatch):
        calls = self.recording(monkeypatch)
        for model in COMPRESS_MODELS:
            f = COMPRESS_MODELS[model]()
            v = np.ones((f.n, 1), dtype=complex)
            for lo, hi in _compress_ranges(f):
                f.compress(lo, hi, v, v)
        self.assert_bounded(calls)

    def test_chunks_inside_the_runs_of_nine_qubits(self, monkeypatch):
        f = hamming_filtration(9, 2)
        rng = np.random.default_rng(25)
        x = rng.standard_normal((f.n, 1)) + 1j * rng.standard_normal((f.n, 1))
        calls = self.recording(monkeypatch)
        long_runs = [(start, stop) for start, stop, _, _ in f._factors.runs if stop - start > 2048]
        for start, stop in long_runs:
            for lo in rng.integers(start, stop - 2048, size=2).tolist():
                f.apply(lo, lo + 2048, x)
                f.compress(lo, lo + 2048, x, x)
        assert len(calls) == 4 * len(long_runs)
        self.assert_bounded(calls)


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

    def test_corners_of_a_factored_model_are_not_written_out(self):
        """induced_metric and quotient compress the graded basis through
        apply, and the default context reads level 0 the same way: on a
        model whose dense basis exceeds its cap they give the dense model's
        results."""
        f, dense = hamming_filtration(3, 2, cap=4), _dense_copy(hamming_filtration(3, 2))
        ctx = default_context(f)
        for got, want in [
            (induced_metric(f, repetition_code_projector()), induced_metric(dense, repetition_code_projector())),
            (quotient(f, np.eye(8), ctx), quotient(dense, np.eye(8), ctx)),
        ]:
            assert (got.breakpoints, got.cuts) == (want.breakpoints, want.cuts)
            assert all(a.equals(b) for a, b in zip(got.levels, want.levels))
        assert induced_metric(f, repetition_code_projector()).breakpoints == [0.0, 1.0, 3.0]


    def test_geometry_of_a_factored_model_is_not_written_out(self):
        """Neighborhoods, closures, the Hausdorff distance and the distance
        operator spread projections through apply: on a model whose dense
        basis exceeds its cap they give the dense model's results."""
        f, dense = hamming_filtration(3, 2, cap=4), _dense_copy(hamming_filtration(3, 2))
        rng = np.random.default_rng(3)
        p = AmplifiedProjection(8, 2, np.kron(basis_state_projection(8, 0), np.diag([1.0, 0.0])))
        q = AmplifiedProjection(8, 1, range_projection(rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))))
        r = AmplifiedProjection(8, 1, basis_state_projection(8, 7))
        for call in (
            lambda g: closure(g, q).matrix,
            lambda g: neighborhood(g, p, 1.5).matrix,
            lambda g: hausdorff_distance(g, p, q),
            lambda g: distance_operator(g, p, 3.0),
            lambda g: rho_from_gauge(g, p, r),
        ):
            np.testing.assert_allclose(call(f), call(dense), rtol=0, atol=1e-12)
        assert rho_from_gauge(f, p, r) == 3.0

    def test_witnesses_of_a_factored_model_are_not_written_out(self):
        """Separation witnesses and the Lipschitz witness read a level's HS
        coordinates through apply: on a model whose dense basis exceeds its
        cap they give the dense model's results."""
        f, dense = hamming_filtration(3, 2, cap=4), _dense_copy(hamming_filtration(3, 2))
        c = np.zeros((8, 8), dtype=complex)
        c[0, 1] = 1.0
        for t in (0.0, 1.0):
            (p, q), (p_want, q_want) = separating_projections(f, t, c), separating_projections(dense, t, c)
            assert (p.m, q.m) == (p_want.m, q_want.m)
            np.testing.assert_allclose(p.matrix, p_want.matrix, rtol=0, atol=1e-12)
            np.testing.assert_allclose(q.matrix, q_want.matrix, rtol=0, atol=1e-12)
        got, want = lipschitz_witness(f, c), lipschitz_witness(dense, c)
        assert got.value == want.value and got.witness["rho"] == want.witness["rho"]
        for key in ("matrix", "commutator_norm", "amplified_ls"):
            np.testing.assert_allclose(got.witness[key], want.witness[key], rtol=0, atol=1e-12)
        with pytest.raises(CommutantMember):
            lipschitz_witness(f, np.eye(8))

    def test_probes_of_a_factored_model_are_not_written_out(self):
        """probes_for_level reads the level through apply: on a model whose
        dense basis exceeds its cap it gives the dense model's probes."""
        f, dense = hamming_filtration(3, 2, cap=4), _dense_copy(hamming_filtration(3, 2))
        for t in (0.0, 1.0, 2.0):
            got, want = probes_for_level(f, t), probes_for_level(dense, t)
            assert len(got) == len(want) == 64 - hamming_level_dimension(3, 2, int(t))
            for (p, q), (p_want, q_want) in zip(got, want):
                assert (p.m, q.m) == (p_want.m, q_want.m)
                assert np.array_equal(p.matrix, p_want.matrix) and np.array_equal(q.matrix, q_want.matrix)

    def test_co_lipschitz_number_of_a_factored_model_is_not_written_out(self):
        """co_lipschitz_number reads the target's graded basis through apply:
        the identity morphism of a model past its cap expands by 1."""
        f, dense = hamming_filtration(3, 2, cap=4), _dense_copy(hamming_filtration(3, 2))
        assert co_lipschitz_number(f, f, 1, np.eye(8), np.eye(8)) == co_lipschitz_number(dense, dense, 1, np.eye(8), np.eye(8)) == 1.0


    @pytest.mark.parametrize("sites, cap", [(3, 4), (4, 8)])
    def test_queries_of_a_factored_model_are_not_written_out(self, sites, cap):
        """The commutation bound, the gauge and the snowflake read the basis
        only through the filtration's reader: on a model whose dense basis
        exceeds its cap they give the dense model's results."""
        f, dense = hamming_filtration(sites, 2, cap=cap), _dense_copy(hamming_filtration(sites, 2))
        rng = np.random.default_rng(sites)
        n = f.n
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for budget in (AscentBudget.deterministic(), AscentBudget(3, 10)):
            got, want = commutation_lipschitz_lower(f, a, budget), commutation_lipschitz_lower(dense, a, budget)
            assert (got.value, got.witness["t"]) == (want.value, want.witness["t"])
            np.testing.assert_allclose(got.witness["contraction"], want.witness["contraction"], rtol=0, atol=1e-12)
        x = np.kron(PAULI_X, np.eye(n // 2))
        for g, h in ((f, dense), (hoelder(f, 0.5), hoelder(dense, 0.5))):
            assert [g.displacement_gauge(m) for m in (a, x, np.eye(n))] == [h.displacement_gauge(m) for m in (a, x, np.eye(n))]
        assert hoelder(f, 0.5).displacement_gauge(x) == 1.0
        assert f._basis is None


class TestQuantumCodeValidation:
    def test_rejects_non_projection(self, ham3):
        with pytest.raises(NotACode):
            QuantumCode(np.diag([0.5, 0, 0, 0, 0, 0, 0, 0]).astype(complex), ham3)

    def test_rejects_wrong_size(self, ham3):
        with pytest.raises(NotACode):
            QuantumCode(np.eye(4, dtype=complex), ham3)
