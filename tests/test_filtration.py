import json
import math

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
from qwmetric.errors import MixedDimensions, NegativeTime, NotAPseudometric, NotDiagonalContext
from qwmetric.numerics import random_hermitian

from conftest import DIAG, I2, IMAG_OFF, REAL_OFF, random_metric, random_step_filtration


def m2_chain(a, b, c):
    lv = [span([I2]), span([I2, DIAG]), span([I2, DIAG, REAL_OFF]), full_space(2)]
    return StepFiltration(2, [0, a, b, c], lv)


class TestValidate:
    def test_m2_123_is_a_metric(self):
        rep = validate(m2_chain(1, 2, 3), MetricContext.full(2))
        assert rep.is_filtration and rep.is_pseudometric and rep.is_metric
        assert rep.violations == []

    def test_m2_113_fails_product_law(self):
        bad = StepFiltration(
            2, [0, 1, 3], [span([I2]), span([I2, DIAG, REAL_OFF]), full_space(2)]
        )
        rep = validate(bad, MetricContext.full(2))
        assert not rep.is_filtration
        kinds = {k for k, _ in rep.violations}
        assert "product_law" in kinds
        # the witnessing pair multiplies the dim-3 level with itself
        assert ("product_law", (1, 1)) in rep.violations

    def test_product_law_reported_for_every_pair_above_a_violation(self):
        # X Z leaves the top level, so V_1 V_2 and V_2 V_2 both break the law
        # although Z Z = I on its own grade
        f = StepFiltration(2, [0, 1, 1.5], [span([I2]), span([I2, REAL_OFF]), span([I2, REAL_OFF, DIAG])])
        assert validate(f).violations == [("product_law", (1, 2)), ("product_law", (2, 1)), ("product_law", (2, 2))]

    def test_single_full_level(self):
        f = StepFiltration(2, [0.0], [full_space(2)])
        assert validate(f, MetricContext.full(2)).is_pseudometric
        # a metric only over M = C.I
        assert not validate(f, MetricContext.full(2)).is_metric
        scalars_ctx = MetricContext.from_generators([], 2)
        assert validate(f, scalars_ctx).is_metric

    def test_non_operator_system_level_reported(self):
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        f = StepFiltration(2, [0, 1], [span([I2]), span([I2, e12])])
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
            StepFiltration(2, [0, 1, 2], [span([I2]), span([DIAG]), full_space(2)])
        steps = [{"t": 0, "basis": [emit_matrix(I2)]}, {"t": 1, "basis": [emit_matrix(DIAG)]}]
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"schema": "qwm/1", "kind": "filtration", "dim": 2, "steps": steps}))
        assert main(["validate", "--filtration", str(path)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert not out["is_filtration"]
        assert out["violations"] == [["not_strictly_increasing", "0"]]

    def test_repeated_level_is_reported_not_rejected(self):
        f = StepFiltration(2, [0, 1, 2], [span([I2]), span([I2]), full_space(2)])
        assert f.cuts == [1, 1, 4]
        assert ("not_strictly_increasing", 0) in validate(f).violations

    def test_hamming_four_qubits_validates(self):
        rep = validate(hamming_filtration(4, 2))
        assert rep.is_filtration and rep.violations == []


class TestLookup:
    def test_step_semantics(self):
        f = m2_chain(1, 2, 3)
        assert f.value_at(0.5).dim == 1
        assert f.value_at(1.0).dim == 2
        assert f.v_less_than(1.0).dim == 1
        assert f.value_at(100).dim == 4
        assert f.v_less_than(math.inf).dim == 4

    def test_negative_time_rejected(self):
        f = m2_chain(1, 2, 3)
        with pytest.raises(NegativeTime):
            f.value_at(-0.1)

    def test_classical_lookup_dims(self):
        d = np.array([[0.0, 3.0], [3.0, 0.0]])
        f, _ = from_classical(d)
        assert f.value_at(2).dim == 2
        assert f.value_at(3).dim == 4


class TestGauge:
    def test_identity_and_pauli_times(self):
        f = m2_chain(1, 2, 3)
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
        assert f.top.dim == 2  # block diagonal only
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
