import json
import math
import warnings

import numpy as np
import pytest

from qwmetric import (
    MetricContext,
    StepFiltration,
    descriptors,
    from_classical,
    full_space,
    span,
    to_classical,
    validate,
)
from qwmetric.codes import hamming_filtration
from qwmetric.constructions import m2_metric
from qwmetric.errors import MixedDimensions, NegativeTime, NotAPseudometric, NotDiagonalContext, NotNested
from qwmetric.numerics import DEFAULT_CONFIG, random_hermitian, random_unitary
from qwmetric.opspace import OperatorSubspace, VNAlgebra, commutant, complement

from conftest import DIAG, I2, IMAG_OFF, REAL_OFF, m2_graded, random_metric, random_step_filtration, read_levels


class TestValidate:
    def test_m2_123_is_a_metric(self):
        rep = validate(m2_metric(1, 2, 3), MetricContext.full(2))
        assert rep.is_filtration and rep.is_pseudometric and rep.is_metric
        assert rep.violations == []

    def test_m2_113_fails_product_law(self):
        bad = m2_graded([0, 1, 3], "IZXY", [1, 3, 4])
        rep = validate(bad, MetricContext.full(2))
        assert not rep.is_filtration
        kinds = {k for k, _ in rep.violations}
        assert "product_law" in kinds
        # the witnessing pair multiplies the dim-3 level with itself
        assert ("product_law", (1, 1)) in rep.violations

    def test_product_law_reported_for_every_pair_above_a_violation(self):
        # X Z leaves the top level, so V_1 V_2 and V_2 V_2 both break the law
        # although Z Z = I on its own grade
        f = m2_graded([0, 1, 1.5], "IXZ", [1, 2, 3])
        assert validate(f).violations == [("product_law", (1, 2)), ("product_law", (2, 1)), ("product_law", (2, 2))]

    def test_single_full_level(self):
        f = m2_graded([0.0], "IZXY", [4])
        assert validate(f, MetricContext.full(2)).is_pseudometric
        # a metric only over M = C.I
        assert not validate(f, MetricContext.full(2)).is_metric
        scalars_ctx = MetricContext.from_generators([], 2)
        assert validate(f, scalars_ctx).is_metric

    def test_non_operator_system_level_reported(self):
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        f = StepFiltration.from_graded(2, [0, 1], np.stack([I2 / math.sqrt(2), e12]), [1, 2])
        rep = validate(f)
        assert ("not_operator_system", 1) in rep.violations


class TestGradedBasis:
    def test_hamming_levels_are_prefix_views_of_one_basis(self):
        h = hamming_filtration(3, 2)
        assert [lv.dim for lv in h.levels] == h.cuts
        for lv in h.levels:
            assert np.shares_memory(lv.basis, h.basis)
            np.testing.assert_array_equal(lv.basis, h.basis[: lv.dim])

    def test_non_nested_levels_rejected(self, tmp_path, capsys):
        from qwmetric.cli import emit_matrix, main

        # the level at t = 1 misses the identity that spans the zero level
        with pytest.raises(MixedDimensions):
            read_levels(2, [0, 1, 2], [span([I2]), span([DIAG]), full_space(2)])
        steps = [{"t": 0, "basis": [emit_matrix(I2)]}, {"t": 1, "basis": [emit_matrix(DIAG)]}]
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"schema": "qwm/1", "kind": "filtration", "dim": 2, "steps": steps}))
        assert main(["validate", "--filtration", str(path)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert not out["is_filtration"]
        assert out["violations"] == [["not_strictly_increasing", "0"]]

    def test_repeated_level_is_reported_not_rejected(self):
        f = read_levels(2, [0, 1, 2], [span([I2]), span([I2]), full_space(2)])
        assert f.cuts == [1, 1, 4]
        assert ("not_strictly_increasing", 0) in validate(f).violations

    @pytest.mark.parametrize(
        "given",
        [
            [I2, DIAG, DIAG],  # a dependent level: span{I, Z, Z}
            [DIAG, I2, DIAG],  # the prefix elsewhere, and one element repeated
        ],
    )
    def test_levels_handed_in_are_re_spanned_by_the_rank_rule(self, given):
        """A level whose basis is not orthonormal gets the dimension of its
        span and an HS-orthonormal graded basis."""
        lv = OperatorSubspace(2, np.stack([m / np.linalg.norm(m) for m in given]))
        f = read_levels(2, [0, 1, 2], [span([I2]), lv, full_space(2)])
        assert f.cuts == [1, 2, 4]
        flat = f.basis.reshape(4, -1)
        np.testing.assert_allclose(flat.conj() @ flat.T, np.eye(4), atol=1e-12)
        assert f.levels[1].equals(span([I2, DIAG]))
        assert validate(f).is_filtration

    @pytest.mark.parametrize("rotation", [None, 0, 1])
    def test_a_stalled_level_given_in_another_basis_keeps_its_cut(self, rotation):
        """A level equal to the one before, handed in with an orthonormal
        basis that does not start with the basis so far, adds nothing: its
        part orthogonal to that basis is rounding noise."""
        before = span([I2, DIAG])
        if rotation is None:
            given = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
        else:
            u = random_unitary(2, np.random.default_rng(rotation))
            given = np.einsum("ij,jkl->ikl", u, before.basis)
        f = read_levels(2, [0, 1, 2, 3], [span([I2]), before, OperatorSubspace(2, given), full_space(2)])
        assert f.cuts == [1, 2, 2, 4]
        assert f.levels[2].equals(before)

    def test_a_level_with_a_non_orthonormal_basis_is_nested(self):
        """Nesting is tested against an orthonormal span of each level, so a
        level handed in as I/sqrt(2) and (I + Z)/2, which are not orthogonal,
        contains span{I}; a level of the same kind without I does not."""
        lv = OperatorSubspace(2, np.stack([I2 / math.sqrt(2), (I2 + DIAG) / 2]))
        f = read_levels(2, [0, 1, 2], [span([I2]), lv, full_space(2)])
        assert f.cuts == [1, 2, 4]
        flat = f.basis.reshape(4, -1)
        np.testing.assert_allclose(flat.conj() @ flat.T, np.eye(4), atol=1e-12)
        assert f.levels[1].equals(span([I2, DIAG]))
        assert validate(f).is_filtration
        off = OperatorSubspace(2, np.stack([DIAG / math.sqrt(2), (DIAG + REAL_OFF) / 2]))
        with pytest.raises(NotNested):
            read_levels(2, [0, 1, 2], [span([I2]), off, full_space(2)])

    def test_a_tiny_declared_row_counts(self):
        """A level that is re-spanned has each row scaled to unit size first
        (largest modulus, then HS norm), so a row declared far below the
        others counts in full: span{I, 1e-12 Z} is the diagonal algebra, not
        span{I}."""
        lv = OperatorSubspace(2, np.stack([I2 / math.sqrt(2), 1e-12 * DIAG]))
        f = read_levels(2, [0, 1, 2], [span([I2]), lv, full_space(2)])
        assert f.cuts == [1, 2, 4]
        assert f.levels[1].equals(span([I2, DIAG]))

    @pytest.mark.parametrize("scale", [1e200, 1.7e308])
    @pytest.mark.parametrize("shared", [True, False], ids=["new-rows", "whole-level"])
    def test_a_huge_entry_does_not_overflow_the_re_span(self, scale, shared):
        """span{I, diag(scale, -1)} is the diagonal algebra at any scale, read
        as one new row after level 0's basis or as a whole level: no Gram of
        the unscaled rows is formed, so nothing overflows."""
        ident = span([I2]).basis if shared else I2[None] / math.sqrt(2)
        lv = OperatorSubspace(2, np.concatenate([ident, np.diag([scale, -1.0])[None]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            f = read_levels(2, [0, 1, 2], [span([I2]), lv, full_space(2)])
        assert f.cuts == [1, 2, 4]
        assert f.levels[1].equals(span([I2, DIAG]))

    def test_a_dependent_new_row_after_an_exact_prefix_is_re_spanned(self):
        """A level that begins with the basis so far bit for bit but adds a
        row that is not orthogonal to it is re-spanned: span{I, Z,
        (I + Z)/2} is the diagonal algebra."""
        ident = span([I2]).basis
        lv = OperatorSubspace(2, np.concatenate([ident, DIAG[None] / math.sqrt(2), (I2 + DIAG)[None] / 2]))
        f = read_levels(2, [0, 1, 2], [span([I2]), lv, full_space(2)])
        assert f.cuts == [1, 2, 4]
        assert f.levels[1].equals(span([I2, DIAG]))

    def test_hamming_four_qubits_validates(self):
        rep = validate(hamming_filtration(4, 2))
        assert rep.is_filtration and rep.violations == []

    def test_from_times_sorts_stably_with_a_breakpoint_at_zero(self):
        units = full_space(2).basis
        f = StepFiltration.from_times(2, units, [2.0, 0.5, 2.0, 0.5])
        assert f.breakpoints == [0.0, 0.5, 2.0] and f.cuts == [0, 2, 4]
        np.testing.assert_array_equal(f.basis, units[[1, 3, 0, 2]])
        np.testing.assert_array_equal(f.times, [0.5, 0.5, 2.0, 2.0])

    @pytest.mark.parametrize("bps", [[0.0, math.inf], [math.nan], [0.0, math.nan]])
    def test_non_finite_breakpoints_rejected(self, bps):
        with pytest.raises(MixedDimensions):
            StepFiltration.from_graded(1, bps, np.ones((1, 1, 1)), [0] * (len(bps) - 1) + [1])
        with pytest.raises(MixedDimensions):
            StepFiltration.from_times(1, np.ones((1, 1, 1)), bps[-1:])


class TestLookup:
    def test_step_semantics(self):
        f = m2_metric(1, 2, 3)
        assert f.value_at(0.5).dim == 1
        assert f.value_at(1.0).dim == 2
        assert f.value_at(100).dim == 4

    def test_negative_time_rejected(self):
        f = m2_metric(1, 2, 3)
        with pytest.raises(NegativeTime):
            f.value_at(-0.1)

    def test_classical_lookup_dims(self):
        d = np.array([[0.0, 3.0], [3.0, 0.0]])
        f, _ = from_classical(d)
        assert f.value_at(2).dim == 2
        assert f.value_at(3).dim == 4


class TestGauge:
    def test_identity_and_pauli_times(self):
        f = m2_metric(1, 2, 3)
        assert f.displacement_gauge(I2) == 0.0
        assert f.displacement_gauge(DIAG) == 1.0
        assert f.displacement_gauge(REAL_OFF) == 2.0
        assert f.displacement_gauge(IMAG_OFF) == 3.0

    @pytest.mark.parametrize("seed", range(6))
    def test_gauge_axioms_on_random_filtrations(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        f = random_step_filtration(n, rng, classical=bool(seed % 2))
        a = random_hermitian(n, rng)
        b = random_hermitian(n, rng) + 1j * random_hermitian(n, rng)
        da, db = f.displacement_gauge(a), f.displacement_gauge(b)
        assert f.displacement_gauge(np.eye(n)) == 0.0
        assert f.displacement_gauge(2.7 * a) <= da
        assert f.displacement_gauge(a + b) <= max(da, db) + 1e-12
        assert f.displacement_gauge(a.conj().T) == da
        if math.isfinite(da) and math.isfinite(db):
            assert f.displacement_gauge(a @ b) <= da + db + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_gauge_level_inversion(self, seed):
        """Rebuilding each level from {A : D(A) <= t} over a probe grid of
        basis elements and random mixtures reproduces the filtration."""
        rng = np.random.default_rng(seed)
        f = random_step_filtration(3, rng)
        probes = []
        for lv in f.levels:
            probes.extend(list(lv.basis))
            if lv.dim:
                w = rng.standard_normal(lv.dim) + 1j * rng.standard_normal(lv.dim)
                probes.append(np.tensordot(w, lv.basis, axes=(0, 0)))
        for t, lv in zip(f.breakpoints, f.levels):
            kept = [p for p in probes if f.displacement_gauge(p) <= t]
            assert span(kept, f.n).equals(lv)


def first_level_oracle(f, a):
    """The first level containing A, by OperatorSubspace.contains."""
    return next((i for i, lv in enumerate(f.levels) if lv.contains(a)), len(f.levels))


def rotated(f, u):
    """f conjugated by the unitary u: the graded basis U B U*."""
    return StepFiltration.from_graded(f.n, f.breakpoints, u @ f.basis @ u.conj().T, f.cuts)


def member_stack(f, rng):
    """Members of every level, and non-members: a member of a level plus a
    part orthogonal to it; none of HS norm above 1."""
    # the graded basis, then an orthonormal basis of the top's complement
    full = np.concatenate([f.basis, complement(f.levels[-1]).basis])
    mats = []
    for c in f.cuts:
        w = rng.standard_normal(len(full)) + 1j * rng.standard_normal(len(full))
        inside = np.tensordot(w[:c], full[:c], axes=1)
        mats.append(inside / max(1.0, np.linalg.norm(inside)))
        if c < len(full):
            a = inside + np.tensordot(w[c:], full[c:], axes=1)
            mats.append(a / np.linalg.norm(a))
    return np.stack(mats)


class TestMembershipKernel:
    SCALES = (1e-6, 1.0, 1e6, 1e100, 1e200)

    @pytest.mark.parametrize("seed", range(6))
    def test_first_levels_match_the_levels(self, seed):
        """The kernel gives the first level whose OperatorSubspace contains
        each matrix, on rotated random filtrations (tops spanning M_n or
        not), at every scale of the stack."""
        rng = np.random.default_rng(seed)
        n = 2 + seed % 3
        # point 0 at infinite distance from the rest: a top short of M_n
        parted = np.full((n, n), math.inf)
        parted[1:, 1:] = 1.5
        np.fill_diagonal(parted, 0.0)
        for f in (random_step_filtration(n, rng), from_classical(random_metric(n, rng))[0], from_classical(parted)[0]):
            g = rotated(f, random_unitary(n, rng))
            mats = member_stack(g, rng)
            want = [first_level_oracle(g, a) for a in mats]
            for scale in self.SCALES:
                assert g._first_levels(scale * mats, DEFAULT_CONFIG).tolist() == want

    @pytest.mark.parametrize("blocks", [None, [1, 2]], ids=["hamming-3", "blocks-1-2"])
    def test_a_factored_basis_is_read_in_chunks(self, monkeypatch, blocks):
        """A factored basis past its cap is read chunk by chunk through
        apply, never written out, and gives its dense copy's first levels,
        also when every chunk holds a few elements."""
        from qwmetric import filtration
        from qwmetric.codes import block_filtration

        f = hamming_filtration(3, 2, cap=4) if blocks is None else block_filtration(blocks, cap=2)
        want = hamming_filtration(3, 2) if blocks is None else block_filtration(blocks)
        dense = StepFiltration.from_graded(want.n, want.breakpoints, want.basis, want.cuts)
        rng = np.random.default_rng(5)
        mats = member_stack(dense, rng)
        expected = [first_level_oracle(dense, a) for a in mats]
        for budget in (filtration._BUDGET, 5 * f.n * f.n):
            monkeypatch.setattr(filtration, "_BUDGET", budget)
            for scale in self.SCALES:
                assert f._first_levels(scale * mats, DEFAULT_CONFIG).tolist() == expected
                assert dense._first_levels(scale * mats, DEFAULT_CONFIG).tolist() == expected
        assert f._basis is None

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e200, 1e308])
    def test_the_gauge_is_scale_free(self, scale):
        """diag(s, 0) enters the canonical chain with the diagonal, and
        s E_01 with the off-diagonals, at every s up to 1e308, with no
        overflow on the way."""
        f = m2_metric(1, 2, 3)
        e01 = np.array([[0, 1], [0, 0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert f.displacement_gauge(np.diag([scale, 0.0])) == 1.0
            assert f.displacement_gauge(scale * e01) == 3.0
            assert f.displacement_gauge(scale * I2) == 0.0


class TestClassicalRoundTrip:
    def test_all_zero_distances(self):
        f, ctx = from_classical(np.zeros((3, 3)))
        assert len(f.levels) == 1
        assert f.levels[0].dim == 9

    def test_two_points(self):
        f, ctx = from_classical(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert [lv.dim for lv in f.levels] == [2, 4]
        assert f.breakpoints == [0.0, 1.0]

    def test_path_graph_dims(self):
        d = np.array(
            [
                [0.0, 1, 2, 3],
                [1, 0, 1, 2],
                [2, 1, 0, 1],
                [3, 2, 1, 0],
            ]
        )
        f, _ = from_classical(d)
        assert f.breakpoints == [0.0, 1.0, 2.0, 3.0]
        assert [lv.dim for lv in f.levels] == [4, 10, 14, 16]

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        d = random_metric(n, rng)
        f, ctx = from_classical(d)
        np.testing.assert_array_equal(to_classical(f, ctx), d)

    def test_triangle_violation_rejected(self):
        d = np.array([[0.0, 1, 5], [1, 0, 1], [5, 1, 0]])
        with pytest.raises(NotAPseudometric) as exc:
            from_classical(d)
        assert exc.value.witness is not None

    def test_infinite_distances_give_proper_top(self):
        d = np.array([[0.0, math.inf], [math.inf, 0.0]])
        f, ctx = from_classical(d)
        assert f.levels[-1].dim == 2  # block diagonal only
        assert to_classical(f, ctx)[0, 1] == math.inf

    def test_to_classical_needs_diagonal_context(self):
        f, _ = from_classical(np.zeros((2, 2)))
        with pytest.raises(NotDiagonalContext):
            to_classical(f, MetricContext.full(2))

    def test_hamming_restriction_to_diagonal(self):
        from qwmetric.codes import hamming_filtration

        h = hamming_filtration(2, 2)
        d = to_classical_via_projection_scan(h)
        for x in range(4):
            for y in range(4):
                assert d[x, y] == bin(x ^ y).count("1")


    def test_round_trip_on_forty_points(self):
        # the diagonal context is written down, so this stays small
        d = random_metric(40, np.random.default_rng(40))
        f, ctx = from_classical(d)
        np.testing.assert_array_equal(to_classical(f, ctx), d)


def loop_check_classical(d, tol):
    """The scan of _check_classical, one entry at a time: the first failure
    as (message, witness), or None."""
    n = d.shape[0]
    for x in range(n):
        if d[x, x] != 0:
            return f"nonzero self-distance at {x}", (x, x, x)
        for y in range(n):
            if d[x, y] < 0:
                return f"negative distance at ({x},{y})", (x, y, y)
            if math.isinf(d[x, y]) or math.isinf(d[y, x]):
                if d[x, y] != d[y, x]:
                    return f"asymmetric at ({x},{y})", (x, y, x)
            elif abs(d[x, y] - d[y, x]) > tol * max(1.0, abs(d[x, y])):
                return f"asymmetric at ({x},{y})", (x, y, x)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if d[x, z] > d[x, y] + d[y, z] + tol:
                    return f"triangle inequality fails at ({x},{y},{z})", (x, y, z)
    return None


def broken_metrics():
    """Distance matrices each breaking the axioms in one or more places."""
    rng = np.random.default_rng(11)
    out = []
    for _ in range(40):
        n = int(rng.integers(3, 9))
        d = random_metric(n, rng)
        if rng.random() < 0.3:
            half = n // 2
            d[:half, half:] = d[half:, :half] = math.inf
        # half the matrices only stretch symmetric pairs, to reach the triangle scan
        kinds = [4] if len(out) % 2 else [0, 1, 2, 3, 4]
        for _ in range(int(rng.integers(1, 4))):
            x, y = rng.choice(n, size=2, replace=False)
            kind = rng.choice(kinds)
            if kind == 0:
                d[y, y] = rng.choice([0.5, -1e-3, math.nan])
            elif kind == 1:
                d[x, y] = d[y, x] = -0.25
            elif kind == 2:
                d[x, y] += rng.choice([1e-3, 1e-9, 2e-8])  # one entry only
            elif kind == 3:
                d[x, y] = math.inf  # one entry only
            else:
                d[x, y] = d[y, x] = d[x, y] + rng.choice([10.0, 10.0, 5e-9, 5e-8])
        out.append(d)
    # two row blocks of the triangle scan, failing only in the second
    d = random_metric(110, rng)
    d[95, 100] = d[100, 95] = 50.0
    out.append(d)
    return out


@pytest.mark.parametrize("d", broken_metrics())
def test_check_classical_names_the_first_witness_of_the_loop(d):
    expected = loop_check_classical(d, 1e-8)
    if expected is None:
        from_classical(d)
        return
    with pytest.raises(NotAPseudometric) as exc:
        from_classical(d)
    assert (str(exc.value), exc.value.witness) == expected


class TestDiagonalContext:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_commutant_is_the_solved_commutant(self, n):
        ctx = MetricContext.diagonal(n)
        assert ctx.commutant.equals(commutant(ctx.algebra.basis, n))
        VNAlgebra(n, ctx.commutant.basis)  # verification raises on failure
        assert ctx.is_diagonal()

    def test_nothing_is_solved(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the diagonal context solved for its commutant")

        monkeypatch.setattr("qwmetric.filtration.commutant", refuse)
        for n in (1, 5, 32):
            assert MetricContext.diagonal(n).commutant.dim == n

    def test_is_diagonal_needs_every_unit(self):
        units = np.zeros((3, 3, 3), dtype=complex)
        units[[0, 1, 2], [0, 1, 1], [0, 1, 2]] = 1.0  # E_00, E_11, E_12
        alg = VNAlgebra(3, units, verify=False)
        assert not MetricContext(alg, alg).is_diagonal()
        assert MetricContext.diagonal(3).is_diagonal()
        assert not MetricContext.full(3).is_diagonal()


def to_classical_via_projection_scan(f):
    """Brute-force diagonal distance scan used as an oracle for quantum
    filtrations restricted to basis states."""
    n = f.n
    d = np.full((n, n), math.inf)
    for t, lv in zip(f.breakpoints, f.levels):
        for b in lv.basis:
            hit = np.abs(b) > 1e-10
            d[hit & ~np.isfinite(d)] = t
    return d


class TestDescriptors:
    def test_the_reach_table_lives_on_the_filtration(self, monkeypatch):
        """validate followed by descriptors makes one pass over the pairs of
        basis elements, and the table it keeps dies with the filtration."""
        import gc
        import weakref

        import qwmetric.filtration as filtration

        pairs = []
        products = filtration._products
        monkeypatch.setattr(filtration, "_products", lambda f, ci, cj: pairs.append((ci, cj)) or products(f, ci, cj))
        f = hamming_filtration(3, 2)
        validate(f)
        descriptors(f)
        assert pairs.count((64, 64)) == 1
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None

    def test_the_path_check_forms_coefficients_only(self, monkeypatch):
        """After validate has filled the reach table, descriptors never asks
        for first levels: _spans reads the products' coefficients against
        V_k and nothing else."""
        import qwmetric.filtration as filtration

        f = hamming_filtration(3, 2)
        validate(f)
        firsts, spans = [], []
        first_levels, spans_of = StepFiltration._first_levels, filtration._spans
        monkeypatch.setattr(StepFiltration, "_first_levels", lambda g, *a: firsts.append(1) or first_levels(g, *a))
        monkeypatch.setattr(filtration, "_spans", lambda *a: spans.append(a[1:4]) or spans_of(*a))
        assert descriptors(f)["path_flag"]
        assert spans and not firsts

    @pytest.mark.parametrize("full", [True, False])
    def test_a_top_spanning_m_n_forms_no_residual(self, monkeypatch, full):
        """First levels read the basis only through the filtration's reader
        of conjugated rows, never through ``basis``, and form the residual
        outside the top only when the top falls short of M_n."""
        d = np.array([[0.0, 1.0], [1.0, 0.0]]) if full else np.array([[0.0, math.inf], [math.inf, 0.0]])
        f, _ = from_classical(d)
        f._conj_rows
        reads, residuals = [], []
        coordinates = StepFiltration._coordinates
        monkeypatch.setattr(StepFiltration, "basis", property(lambda g: reads.append(1)))
        monkeypatch.setattr(StepFiltration, "_coordinates", lambda g, flat, cut, residual=False: residuals.append(residual) or coordinates(g, flat, cut, residual))
        assert f.displacement_gauge(REAL_OFF) == (1.0 if full else math.inf)
        assert not reads and residuals == [not full]

    def test_path_triples_are_the_sum_grid_in_cost_order(self):
        """The vectorized enumeration gives every distinct triple of levels
        at (s, t, s + t), s and t on the sum grid, once, in the order of
        (cut_i * cut_j, triple)."""
        from qwmetric.filtration import _path_triples

        for f in (from_classical(random_metric(5, np.random.default_rng(4)))[0], hamming_filtration(2, 2), m2_metric(1, 2, 3)):
            bps = f.breakpoints
            grid = sorted({s + t for s in bps for t in bps})
            at = lambda x: max(i for i, b in enumerate(bps) if b <= x)
            want = {(at(s), at(t), at(s + t)) for s in grid for t in grid}
            assert _path_triples(f) == sorted(map(list, want), key=lambda x: (f.cuts[x[0]] * f.cuts[x[1]], x))

    def test_operator_system_metric_diameter(self):
        from qwmetric.constructions import operator_system_metric

        sys2 = span([I2, REAL_OFF, IMAG_OFF])
        f = operator_system_metric(sys2)
        assert descriptors(f)["diameter"] == 2.0

    def test_classical_diameter(self):
        f, _ = from_classical(np.array([[0.0, 5.0], [5.0, 0.0]]))
        out = descriptors(f)
        assert out["diameter"] == 5.0
        assert out["uniformly_discrete"] and out["gap"] == 5.0

    def test_path_flag_on_graph_metric(self):
        d = np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]])
        f, _ = from_classical(d)
        assert descriptors(f)["path_flag"]

    def test_path_flag_fails_without_midpoints(self):
        # one pair at distance 3, every other pair at 5: V_3 V_3 = V_3 but
        # value(6) already contains the distance-5 pairs
        d = np.full((4, 4), 5.0)
        np.fill_diagonal(d, 0.0)
        d[0, 2] = d[2, 0] = 3.0
        f, _ = from_classical(d)
        assert not descriptors(f)["path_flag"]

    def test_infinite_diameter(self):
        d = np.array([[0.0, math.inf], [math.inf, 0.0]])
        f, _ = from_classical(d)
        assert descriptors(f)["diameter"] == math.inf
