import math
import warnings

import numpy as np
import pytest

from qwmetric import (
    AmplifiedProjection,
    StepFiltration,
    closure,
    from_classical,
    full_space,
    hausdorff_distance,
    is_closed,
    linkable,
    neighborhood,
    probes_for_level,
    rebuild_level,
    rho,
    separating_projections,
    span,
)
from qwmetric import geometry, opspace
from qwmetric.constructions import operator_system_metric
from qwmetric.errors import AlreadyInside, DimensionMismatch
from qwmetric.numerics import (
    DEFAULT_CONFIG,
    NumericConfig,
    hs_norm,
    op_norm,
    random_hermitian,
    range_basis,
    range_projection,
    rank,
)
from qwmetric.opspace import OperatorSubspace, complement

from conftest import (
    I2,
    IMAG_OFF,
    REAL_OFF,
    basis_state_projection,
    conjugated,
    indicator_projection,
    random_metric,
    random_step_filtration,
)


def base_proj(mat):
    return AmplifiedProjection.base(np.asarray(mat, dtype=complex))


class TestRho:
    def test_touching_projections_are_at_distance_zero(self, rng):
        f = random_step_filtration(3, rng)
        p = base_proj(indicator_projection(3, [0, 1]))
        q = base_proj(indicator_projection(3, [1, 2]))
        assert rho(f, p, q) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_classical_rho_is_the_distance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        d = random_metric(n, rng)
        f, _ = from_classical(d)
        for x in range(n):
            for y in range(n):
                p = base_proj(basis_state_projection(n, x))
                q = base_proj(basis_state_projection(n, y))
                assert rho(f, p, q) == d[x, y]

    def test_indicator_rho_is_min_pair_distance(self, rng):
        n = 6
        d = random_metric(n, rng)
        f, _ = from_classical(d)
        s, t = [0, 2], [3, 5]
        p = base_proj(indicator_projection(n, s))
        q = base_proj(indicator_projection(n, t))
        assert rho(f, p, q) == min(d[x, y] for x in s for y in t)

    def test_operator_system_counterexample(self, rng):
        # diameter 2 while every orthogonal rank-one pair sits at distance 1
        system = span([I2, REAL_OFF, IMAG_OFF])  # traceless against diag
        f = operator_system_metric(system)
        for _ in range(10):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            w = np.array([-np.conj(v[1]), np.conj(v[0])])
            p = base_proj(np.outer(v, v.conj()))
            q = base_proj(np.outer(w, w.conj()))
            assert rho(f, p, q) == 1.0

    def test_mismatched_amplification_pads(self, rng):
        d = random_metric(3, rng)
        f, _ = from_classical(d)
        p = base_proj(basis_state_projection(3, 0))
        q = AmplifiedProjection(3, 2, np.kron(basis_state_projection(3, 1), np.eye(2)))
        assert rho(f, p, q) == d[0, 1]

    def test_base_dim_mismatch_rejected(self, rng):
        f, _ = from_classical(np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch):
            rho(f, base_proj(basis_state_projection(3, 0)), base_proj(basis_state_projection(3, 1)))


class TestLinkable:
    def test_base_projections_always_link(self, rng):
        p = base_proj(basis_state_projection(4, 0))
        q = base_proj(basis_state_projection(4, 3))
        assert linkable(p, q)

    def test_disjoint_amplification_slots_never_link(self):
        p = AmplifiedProjection(2, 2, np.kron(np.eye(2), np.diag([1.0, 0.0])))
        q = AmplifiedProjection(2, 2, np.kron(np.eye(2), np.diag([0.0, 1.0])))
        assert not linkable(p, q)
        f, _ = from_classical(np.zeros((2, 2)))
        assert rho(f, p, q) == math.inf

    def test_matches_brute_force_on_random_slot_projections(self, rng):
        n, m = 2, 2
        for _ in range(5):
            slots_p = rng.random(m) < 0.5
            slots_q = rng.random(m) < 0.5
            p = AmplifiedProjection(n, m, np.kron(np.eye(n), np.diag(slots_p.astype(float))))
            q = AmplifiedProjection(n, m, np.kron(np.eye(n), np.diag(slots_q.astype(float))))
            # brute force over all matrix units of M_n
            expected = False
            for i in range(n):
                for j in range(n):
                    e = np.zeros((n, n))
                    e[i, j] = 1.0
                    if op_norm(p.matrix @ np.kron(e, np.eye(m)) @ q.matrix) > 1e-10:
                        expected = True
            assert linkable(p, q) == expected


class TestNeighborhoodsAndClosure:
    def test_classical_neighborhood_is_metric_ball(self, rng):
        n = 5
        d = random_metric(n, rng)
        f, _ = from_classical(d)
        s = [0, 3]
        eps = float(np.median(d[d > 0]))
        got = neighborhood(f, base_proj(indicator_projection(n, s)), eps)
        ball = [x for x in range(n) if min(d[x, y] for y in s) < eps]
        np.testing.assert_allclose(got.matrix, indicator_projection(n, ball), atol=1e-9)

    def test_neighborhood_beyond_diameter_is_identity(self, rng):
        d = random_metric(4, rng)
        f, _ = from_classical(d)
        for eps in (d.max() + 1.0, math.inf):
            got = neighborhood(f, base_proj(basis_state_projection(4, 0)), eps)
            np.testing.assert_allclose(got.matrix, np.eye(4), atol=1e-9)

    def test_base_dim_mismatch_rejected(self, rng):
        # n = 2, m = 2 has the size of an n = 4 projection; n = 3 has no such size
        f, _ = from_classical(random_metric(4, rng))
        for p in (AmplifiedProjection(2, 2, np.kron(basis_state_projection(2, 0), np.eye(2))), base_proj(basis_state_projection(3, 0))):
            for call in (lambda f, p: neighborhood(f, p, 1.0), lambda f, p: neighborhood(f, p, math.inf), closure, is_closed, lambda f, p: hausdorff_distance(f, p, p)):
                with pytest.raises(DimensionMismatch):
                    call(f, p)

    def test_neighborhood_commutes_with_commutant(self, rng):
        # (P)_eps lies in the context algebra: it commutes with M'
        from qwmetric.filtration import default_context

        f = random_step_filtration(3, rng)
        ctx = default_context(f)
        h = random_hermitian(3, rng)
        p = AmplifiedProjection.base(range_projection(h[:, :1]))
        got = neighborhood(f, p, f.breakpoints[-1] / 2 + 0.1)
        for b in ctx.commutant.basis:
            assert op_norm(got.matrix @ b - b @ got.matrix) < 1e-8

    def test_iterated_neighborhoods_nest(self, rng):
        n = 4
        d = random_metric(n, rng)
        f, _ = from_classical(d)
        p = base_proj(basis_state_projection(n, 0))
        eps, delta = 1.0, 0.8
        inner = neighborhood(f, neighborhood(f, p, eps), delta)
        outer = neighborhood(f, p, eps + delta)
        # (P)_eps)_delta <= (P)_{eps+delta}
        assert op_norm(outer.matrix @ inner.matrix - inner.matrix) < 1e-9

    def test_closure_fixes_invariant_projections(self, rng):
        d = random_metric(3, rng)
        f, _ = from_classical(d)
        p = base_proj(indicator_projection(3, [1]))
        c = closure(f, p)
        np.testing.assert_allclose(c.matrix, p.matrix, atol=1e-9)
        assert is_closed(f, p)

    def test_closure_scalar_zero_level_fixes_everything(self, rng):
        system = span([I2, REAL_OFF, IMAG_OFF])
        f = operator_system_metric(system)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        p = base_proj(np.outer(v, v.conj()))
        assert is_closed(f, p)

    def test_closure_idempotent_and_rho_invariant(self, rng):
        f = random_step_filtration(3, rng)
        h = random_hermitian(3, rng)
        p = AmplifiedProjection.base(range_projection(h @ basis_state_projection(3, 0)))
        c = closure(f, p)
        assert is_closed(f, c)
        q = base_proj(basis_state_projection(3, 2))
        assert rho(f, p, q) == rho(f, c, q)

    def test_meet_of_closed_projections_is_closed(self, rng):
        n = 4
        d = random_metric(n, rng)
        f, _ = from_classical(d)
        p = base_proj(indicator_projection(n, [0, 1]))
        q = base_proj(indicator_projection(n, [1, 2]))
        assert is_closed(f, p) and is_closed(f, q)
        meet_mat = indicator_projection(n, [1])
        assert is_closed(f, base_proj(meet_mat))


class TestHausdorff:
    def test_equal_projections_at_zero(self, rng):
        f = random_step_filtration(3, rng)
        p = base_proj(indicator_projection(3, [0, 1]))
        assert hausdorff_distance(f, p, p) == 0.0

    def test_classical_singletons(self, rng):
        d = np.array([[0.0, 3.0], [3.0, 0.0]])
        f, _ = from_classical(d)
        p = base_proj(basis_state_projection(2, 0))
        q = base_proj(basis_state_projection(2, 1))
        assert hausdorff_distance(f, p, q) == 3.0

    def test_nested_projections_one_sided(self, rng):
        n = 4
        d = random_metric(n, rng)
        f, _ = from_classical(d)
        s = [0]
        t = [0, 2]
        p = base_proj(indicator_projection(n, s))
        q = base_proj(indicator_projection(n, t))
        # brute force: smallest breakpoint eps with q <= ball(p, eps-ish)
        expected = math.inf
        for bp in f.breakpoints:
            cover_q = all(min(d[x, y] for y in s) <= bp for x in t)
            cover_p = all(min(d[x, y] for y in t) <= bp for x in s)
            if cover_p and cover_q:
                expected = bp
                break
        assert hausdorff_distance(f, p, q) == expected


class TestSeparation:
    @pytest.mark.parametrize("seed", range(6))
    def test_postconditions_on_random_filtrations(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        f = random_step_filtration(n, rng, classical=bool(seed % 2))
        if len(f.breakpoints) < 2:
            return
        t = f.breakpoints[0]
        a = random_hermitian(n, rng)
        if f.value_at(t).contains(a):
            return
        p, q = separating_projections(f, t, a)
        assert p.m <= n
        m = p.m
        comp = p.matrix @ np.kron(a, np.eye(m)) @ q.matrix
        assert op_norm(comp) > 1e-8
        for b in f.value_at(t).basis:
            assert op_norm(p.matrix @ np.kron(b, np.eye(m)) @ q.matrix) < 1e-8
        # consequently rho exceeds t
        assert rho(f, p, q) > t

    def test_classical_matrix_unit_case(self):
        d = np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]])
        f, _ = from_classical(d)
        e02 = np.zeros((3, 3), dtype=complex)
        e02[0, 2] = 1.0
        p, q = separating_projections(f, 1.0, e02)
        m = p.m
        assert op_norm(p.matrix @ np.kron(e02, np.eye(m)) @ q.matrix) > 1e-8

    @pytest.mark.parametrize("scale", [1e150, 1e200, 1e308])
    def test_a_huge_matrix_is_separated_as_a_unit_one(self, scale):
        """Membership is scale-free: s E_01 lies outside V_0 of the
        canonical M_2 chain at every s, and takes E_01's witness pair."""
        from qwmetric.constructions import m2_metric

        f = m2_metric(1, 2, 3)
        e01 = np.array([[0, 1], [0, 0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (p, q), (p1, q1) = separating_projections(f, 0.0, scale * e01), separating_projections(f, 0.0, e01)
        assert (p.m, q.m) == (p1.m, q1.m)
        np.testing.assert_allclose(p.matrix, p1.matrix, rtol=0, atol=1e-12)
        np.testing.assert_allclose(q.matrix, q1.matrix, rtol=0, atol=1e-12)

    def test_already_inside_raises(self, rng):
        f = random_step_filtration(3, rng)
        with pytest.raises(AlreadyInside):
            separating_projections(f, f.breakpoints[-1], np.eye(3, dtype=complex))


def per_direction_witness(f, t, a, cfg=DEFAULT_CONFIG):
    """The per-matrix witness construction that _separate batches, written
    with the dense level and explicit Kronecker products: the residual C of
    A against the level, an orthonormal basis v_i of the span of its m right
    singular vectors (m by the rank rule), Q onto the V_0 (x) I_m orbit of
    eta = sum v_i (x) e_i, and P onto the
    complement of (V_t (x) I_m) ran(Q).  Returns (m, P, Q)."""
    level = f.value_at(t)
    c = a - level.project(a)
    if hs_norm(c) <= cfg.membership_tol * max(1.0, hs_norm(a)):
        raise AlreadyInside("inside")
    _, s, vh = np.linalg.svd(c)
    m = rank(s, cfg)
    # the basis of the span of the v_i that _separate takes: Gram-Schmidt of the
    # projected e_j in order, each kept when its norm exceeds sqrt(membership_tol)
    proj, frame = vh[:m].conj().T @ vh[:m], []
    for j in range(f.n):
        r = proj[:, j] - sum((u * (u.conj() @ proj[:, j]) for u in frame), np.zeros(f.n))
        if np.linalg.norm(r) > math.sqrt(cfg.membership_tol):
            frame.append(r / np.linalg.norm(r))
    assert len(frame) == m

    def spread(space, x):
        return range_basis(np.concatenate([np.zeros((len(x), 0))] + [np.kron(b, np.eye(m)) @ x for b in space.basis], axis=1), cfg)

    qcols = spread(f.levels[0], np.stack(frame, axis=1).reshape(-1, 1))
    lcols = spread(level, qcols)
    return m, np.eye(f.n * m) - lcols @ lcols.conj().T, qcols @ qcols.conj().T


def assert_separates(f, t, a, p, q):
    """Both postconditions, with explicit Kronecker products."""
    amp = np.eye(p.m)
    assert np.linalg.norm(p.matrix @ np.kron(a, amp) @ q.matrix) > 1e-8
    for b in f.value_at(t).basis:
        assert np.linalg.norm(p.matrix @ np.kron(b, amp) @ q.matrix) <= 1e-8


def witness_cases():
    """(name, filtration): classical metrics on 2-5 points, generated and
    truncated filtrations, dense Hamming 2, a block model, M_2 and the
    direct sum of classical-2 and generated-2."""
    from qwmetric.codes import block_filtration, hamming_filtration
    from qwmetric.constructions import direct_sum, m2_metric, truncate

    rng = np.random.default_rng(15)
    cases = [(f"classical-{n}", from_classical(random_metric(n, rng))[0]) for n in range(2, 6)]
    cases += [(f"generated-{n}", random_step_filtration(n, rng, levels=2)) for n in (2, 3, 4)]
    cases.append(("truncated-3", truncate(random_step_filtration(3, rng, levels=2), 1.5)))
    ham = hamming_filtration(2, 2)
    cases.append(("hamming-2-dense", StepFiltration.from_graded(ham.n, ham.breakpoints, ham.basis, ham.cuts)))
    cases.append(("blocks-1-2", block_filtration([1, 2])))
    cases.append(("m2", m2_metric(1, 2, 3)))
    cases.append(("sum-2-2", direct_sum(cases[0][1], cases[4][1])))
    return cases


class TestBatchedWitnesses:
    """_separate builds a whole level's witnesses in one pass; each pair is
    the per-direction construction's."""

    @pytest.mark.parametrize("f", [pytest.param(f, id=name) for name, f in witness_cases()])
    def test_probes_match_the_per_direction_construction(self, f):
        """The missing directions are the graded basis past the level's cut,
        then the complement of the top, read as probes_for_level reads them
        (through ``apply``)."""
        top = f.apply(0, f.cuts[-1], np.eye(f.n))
        for t in f.breakpoints:
            directions = np.concatenate([top[f.cuts[f.level_index_at(t)] :], complement(OperatorSubspace(f.n, top)).basis])
            probes = probes_for_level(f, t)
            assert len(probes) == len(directions)
            for d, (p, q) in zip(directions, probes):
                m, p_want, q_want = per_direction_witness(f, t, d)
                assert p.m == q.m == m
                np.testing.assert_allclose(p.matrix, p_want, rtol=0, atol=1e-12)
                np.testing.assert_allclose(q.matrix, q_want, rtol=0, atol=1e-12)
                assert_separates(f, t, d, p, q)

    @pytest.mark.parametrize("f", [pytest.param(f, id=name) for name, f in witness_cases()])
    def test_single_witnesses_match_the_per_direction_construction(self, f):
        rng = np.random.default_rng(f.n + len(f.breakpoints))
        for t in f.breakpoints[:-1]:
            for a in (random_hermitian(f.n, rng), rng.standard_normal((f.n, f.n)) + 1j * rng.standard_normal((f.n, f.n))):
                m, p_want, q_want = per_direction_witness(f, t, a)
                p, q = separating_projections(f, t, a)
                assert p.m == q.m == m
                np.testing.assert_allclose(p.matrix, p_want, rtol=0, atol=1e-12)
                np.testing.assert_allclose(q.matrix, q_want, rtol=0, atol=1e-12)
                assert_separates(f, t, a, p, q)

    def test_a_level_takes_several_rank_groups_in_one_call(self):
        """The corpus holds levels whose missing directions have mixed ranks;
        the direct sum has ranks 1 and 2 at every level."""
        mixed = [
            name
            for name, f in witness_cases()
            if any(len({p.m for p, _ in probes_for_level(f, t)}) > 1 for t in f.breakpoints)
        ]
        assert {"hamming-2-dense", "blocks-1-2", "sum-2-2"} <= set(mixed)
        f = dict(witness_cases())["sum-2-2"]
        assert all({p.m for p, _ in probes_for_level(f, t)} == {1, 2} for t in f.breakpoints)

    def test_a_stack_with_one_member_inside_raises(self):
        f, _ = from_classical(np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]]))
        outside = np.zeros((3, 3), dtype=complex)
        outside[0, 2] = 1.0
        stack = np.stack([outside, np.eye(3, dtype=complex), outside.T])
        level = f.level_index_at(1.0)
        assert len(geometry._separate(f, level, stack[[0, 2]], DEFAULT_CONFIG)) == 2
        with pytest.raises(AlreadyInside):
            geometry._separate(f, level, stack, DEFAULT_CONFIG)

    def test_probes_take_one_svd_and_two_per_rank(self, monkeypatch):
        """Probes of the first level of a 4-point metric (10 missing
        directions): one SVD of the residual stack, then one per spread and
        rank, not three per direction."""
        x = np.array([0.0, 1.0, 3.0, 7.0])
        f, _ = from_classical(np.abs(x[:, None] - x[None]))
        svd, separate, calls, inside = np.linalg.svd, geometry._separate, [], []

        def counting_svd(*args, **kwargs):
            calls.extend(inside)
            return svd(*args, **kwargs)

        def counting_separate(*args):
            inside.append(1)
            try:
                return separate(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(geometry, "_separate", counting_separate)
        probes = probes_for_level(f, f.breakpoints[1])
        assert len(probes) == 10
        assert 0 < len(calls) <= 1 + 2 * len({p.m for p, _ in probes})


def assert_inverts(f, dense=None):
    """At every breakpoint: n^2 - dim probes, and a rebuilt level equal to
    the level (read on ``dense``, the same filtration held dense)."""
    dense = dense or f
    for t in f.breakpoints:
        level = dense.value_at(t)
        probes = probes_for_level(f, t)
        assert len(probes) == f.n ** 2 - level.dim
        assert rebuild_level(f, t, probes).equals(level)


class TestRecovery:
    @pytest.mark.parametrize("f", [pytest.param(f, id=name) for name, f in witness_cases()])
    def test_every_level_of_the_corpus_is_rebuilt(self, f):
        assert_inverts(f)

    def test_a_classical_metric_with_infinite_distances(self):
        """The top is the block algebra of the finite components, so the
        missing directions end with the complement of the top."""
        d = np.array([[0.0, 1.0, math.inf, math.inf], [1.0, 0.0, math.inf, math.inf], [math.inf, math.inf, 0.0, 2.0], [math.inf, math.inf, 2.0, 0.0]])
        f, _ = from_classical(d)
        assert f.cuts[-1] == 8
        assert_inverts(f)

    def test_a_factored_model_rebuilds_as_its_dense_copy(self):
        from qwmetric.codes import hamming_filtration

        ham = hamming_filtration(3, 2)
        assert_inverts(hamming_filtration(3, 2, cap=4), StepFiltration.from_graded(ham.n, ham.breakpoints, ham.basis, ham.cuts))

    @pytest.mark.parametrize("name", ["sum-2-2", "hamming-3-2-capped"])
    def test_a_rebuild_takes_one_product_per_degree_and_one_null_space(self, monkeypatch, name):
        """The probes of each amplification degree give one batched product
        on the ranges of their Qs, nm rank(Q) constraint rows a probe (the
        group's largest rank), not the (nm)^2 entries of P (E_ij (x) I) Q, and
        the level is one null space of the whole stack; no matrix-unit stack
        is formed.  On the capped site model the ranks of the missing
        directions run up to 8 and every Q has rank 1."""
        from qwmetric.codes import hamming_filtration

        f = dict(witness_cases(), **{"hamming-3-2-capped": hamming_filtration(3, 2, cap=4)})[name]
        calls, stacks = [], []
        compress, null = geometry._unit_compressions, geometry.null_space_rows
        monkeypatch.setattr(geometry, "_unit_compressions", lambda *a: calls.append("_unit_compressions") or compress(*a))
        monkeypatch.setattr(geometry, "null_space_rows", lambda k, *a: calls.append("null_space_rows") or stacks.append(k.shape) or null(k, *a))
        monkeypatch.setattr(geometry, "full_space", lambda *a: calls.append("full_space") or opspace.full_space(*a), raising=False)
        for t in f.breakpoints[:2]:
            probes = probes_for_level(f, t)
            groups = {}
            for p, q in probes:
                groups.setdefault(p.m, []).append(q.rank)
            calls.clear(), stacks.clear()
            rebuild_level(f, t, probes)
            assert calls == ["_unit_compressions"] * len(groups) + ["null_space_rows"]
            assert stacks == [(sum(len(r) * f.n * m * max(r) for m, r in groups.items()), f.n ** 2)]
        if name == "hamming-3-2-capped":
            assert max(groups) == 8 and set(r for rs in groups.values() for r in rs) == {1}

    def test_level_beyond_diameter_is_everything(self, rng):
        d = random_metric(3, rng)
        f, _ = from_classical(d)
        got = rebuild_level(f, d.max(), [])
        assert got.equals(full_space(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_classical_levels_recovered_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        d = random_metric(n, rng)
        f, _ = from_classical(d)
        for t in f.breakpoints:
            probes = probes_for_level(f, t)
            got = rebuild_level(f, t, probes)
            assert got.equals(f.value_at(t))

    def test_m2_level_recovery(self):
        from qwmetric.constructions import m2_metric

        f = m2_metric(1, 2, 3)
        got = rebuild_level(f, 2.0, probes_for_level(f, 2.0))
        assert got.equals(span([I2, np.diag([1.0, -1.0]), REAL_OFF]))


def brute_force_rho(f, p, q):
    """Independent oracle: explicit Kronecker products and operator norms."""
    m = max(p.m, q.m)
    pp, qq = p.padded(m).matrix, q.padded(m).matrix
    for t, lv in zip(f.breakpoints, f.levels):
        for b in lv.basis:
            if op_norm(pp @ np.kron(b, np.eye(m)) @ qq) > 1e-8:
                return t
    return math.inf


@pytest.mark.parametrize("seed", range(4))
def test_rho_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    f = random_step_filtration(n, rng, classical=bool(seed % 2))
    for _ in range(3):
        m = int(rng.integers(1, 3))
        vecs_p = rng.standard_normal((n * m, 2)) + 1j * rng.standard_normal((n * m, 2))
        vecs_q = rng.standard_normal((n * m, 1)) + 1j * rng.standard_normal((n * m, 1))
        p = AmplifiedProjection(n, m, range_projection(vecs_p))
        q = AmplifiedProjection(n, m, range_projection(vecs_q))
        assert rho(f, p, q) == brute_force_rho(f, p, q)


def per_level_rho(f, p, q):
    """The scan one level at a time: the breakpoint of the first level with
    an element B whose compression P (B (x) I) Q has HS norm above 1e-8."""
    m = max(p.m, q.m)
    pp, qq = p.padded(m).matrix, q.padded(m).matrix
    lo = 0
    for t, hi in zip(f.breakpoints, f.cuts):
        if any(np.linalg.norm(pp @ np.kron(b, np.eye(m)) @ qq) > 1e-8 for b in f.basis[lo:hi]):
            return t
        lo = hi
    return math.inf


def chunked_scan_cases():
    """(name, filtration): classical metrics whose bases split into several
    chunks (n >= 9, so more than 64 elements), with and without infinite
    distances, and quantum filtrations."""
    from qwmetric.codes import block_filtration, hamming_filtration

    rng = np.random.default_rng(77)
    cases = [(f"classical-{n}", from_classical(random_metric(n, rng))[0]) for n in (9, 10, 12)]
    d = random_metric(10, rng)
    d[:4, 4:] = d[4:, :4] = math.inf
    cases.append(("classical-10-two-components", from_classical(d)[0]))
    cases.append(("hamming-3", hamming_filtration(3, 2)))
    cases.append(("blocks-1-2", block_filtration([1, 2])))
    cases += [(f"generated-{n}", random_step_filtration(n, rng, levels=2)) for n in (3, 4)]
    return cases


@pytest.mark.parametrize("f", [pytest.param(f, id=name) for name, f in chunked_scan_cases()])
@pytest.mark.parametrize("m", [1, 2])
def test_chunked_rho_matches_per_level_scan(f, m):
    rng = np.random.default_rng(len(f.basis) + m)
    n = f.n
    pairs = []
    # point pairs: x = y is linked at level 0, and split components never link
    for x, y in [(0, 0), (0, n - 1), (n - 1, 1), (1, n // 2)]:
        slot = np.zeros(m)
        slot[0] = 1.0
        p = np.kron(basis_state_projection(n, x), np.outer(slot, slot))
        q = np.kron(basis_state_projection(n, y), np.outer(slot, slot))
        pairs.append((AmplifiedProjection(n, m, p), AmplifiedProjection(n, m, q)))
    for _ in range(4):
        vp = rng.standard_normal((n * m, 1)) + 1j * rng.standard_normal((n * m, 1))
        vq = rng.standard_normal((n * m, 2)) + 1j * rng.standard_normal((n * m, 2))
        pairs.append((AmplifiedProjection(n, m, range_projection(vp)), AmplifiedProjection(n, m, range_projection(vq))))
    if m == 2:  # disjoint slots never link
        e0, e1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        pairs.append((AmplifiedProjection(n, 2, np.kron(np.eye(n), e0)), AmplifiedProjection(n, 2, np.kron(np.eye(n), e1))))
    got = [rho(f, p, q) for p, q in pairs]
    assert got == [per_level_rho(f, p, q) for p, q in pairs]
    assert got[0] == 0.0


def test_chunked_rho_reaches_later_chunks_and_inf():
    """Point pairs of the chunked-scan cases are linked past the first chunk
    (at a grade whose elements start at index 64 or later) and at inf."""
    later = infinite = 0
    for _, f in chunked_scan_cases():
        points = [base_proj(basis_state_projection(f.n, x)) for x in range(f.n)]
        for p in points:
            for q in points:
                r = rho(f, p, q)
                assert r == per_level_rho(f, p, q)
                if r == math.inf:
                    infinite += 1
                elif f.level_index_at(r) > 0:
                    later += f.cuts[f.level_index_at(r) - 1] >= 64
    assert later and infinite


def test_rho_chunks_stay_within_the_product_budget():
    """On 9 qubits a pair at distance 5 is found in chunks of at most 2^20
    products (2048 elements on a 512 x 1 column), not in one 30 618-element
    level of weight 5; a classical metric on 10 points keeps whole levels."""
    from qwmetric.codes import hamming_filtration

    def chunks(f, y):
        spans, apply = [], f.apply
        f.apply = lambda lo, hi, x: spans.append((lo, hi)) or apply(lo, hi, x)
        r = rho(f, base_proj(basis_state_projection(f.n, 0)), base_proj(basis_state_projection(f.n, y)))
        return r, spans

    h = hamming_filtration(9, 2, cap=64)
    r, spans = chunks(h, 0b11111)
    assert r == 5 and max(hi - lo for lo, hi in spans) == 2048
    assert any(hi not in h.cuts for _, hi in spans)
    f = from_classical(random_metric(10, np.random.default_rng(9)))[0]
    r, spans = chunks(f, 7)
    assert r == per_level_rho(f, base_proj(basis_state_projection(10, 0)), base_proj(basis_state_projection(10, 7)))
    assert all(hi in f.cuts for _, hi in spans)


@pytest.mark.parametrize("m_p, m_q", [(1, 2), (2, 3)])
def test_padding_and_unequal_degrees_match_explicit_embedding(m_p, m_q):
    """padded against kron(I_n, J), J the first m_p columns of I_{m_q}, and
    rho on pairs of unequal degree against compressions formed with it."""
    rng = np.random.default_rng(10 * m_p + m_q)
    n = 3
    d = random_metric(n, rng)
    f, _ = from_classical(d)
    emb = np.kron(np.eye(n), np.eye(m_q, m_p))
    u = rng.standard_normal(m_p) + 1j * rng.standard_normal(m_p)
    p = AmplifiedProjection(n, m_p, range_projection(np.kron(np.eye(n)[0], u)[:, None]))
    p_emb = emb @ p.matrix @ emb.conj().T
    np.testing.assert_allclose(p.padded(m_q).matrix, p_emb, atol=1e-12)
    w = rng.standard_normal(m_q) + 1j * rng.standard_normal(m_q)
    # q in a generic slot direction, then in a slot p does not reach
    for slots, want in [(w, d[0, 2]), (np.eye(m_q)[-1], math.inf)]:
        q = AmplifiedProjection(n, m_q, range_projection(np.kron(np.eye(n)[2], slots)[:, None]))
        explicit = next(
            (
                t
                for t, lv in zip(f.breakpoints, f.levels)
                if any(op_norm(p_emb @ np.kron(b, np.eye(m_q)) @ q.matrix) > 1e-8 for b in lv.basis)
            ),
            math.inf,
        )
        assert explicit == want
        assert rho(f, p, q) == rho(f, q, p) == explicit


def test_padding_keeps_the_config_the_projection_was_checked_under():
    """Zero padding keeps |P - P*| and |P^2 - P|, so a projection accepted
    under a loose config pads, for rho, hausdorff_distance and linkable,
    without the default check."""
    cfg = NumericConfig(rank_tol=1e-6, membership_tol=1e-6, eig_cluster_tol=1e-6)
    f, _ = from_classical(np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]]))
    p = AmplifiedProjection(3, 1, np.diag([1.0, 3e-7, 0.0]), cfg)
    q = AmplifiedProjection(3, 2, np.kron(basis_state_projection(3, 2), np.diag([1.0, 0.0])), cfg)
    np.testing.assert_array_equal(p.padded(2).matrix, np.kron(p.matrix, np.diag([1.0, 0.0])))
    assert rho(f, p, q, cfg) == rho(f, q, p, cfg) == 2.0
    assert hausdorff_distance(f, p, q, cfg) == 2.0
    assert linkable(p, q, cfg)


class TestRepresentationIndependence:
    """Distances are invariant under a global unitary change of basis and
    under enlarging the amplification with identity slots."""

    @pytest.mark.parametrize("seed", range(4))
    def test_unitary_conjugation_preserves_rho(self, seed):
        from qwmetric.numerics import random_unitary

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        f = random_step_filtration(n, rng, classical=bool(seed % 2))
        u = random_unitary(n, rng)
        fu = conjugated(f, u)
        h1, h2 = random_hermitian(n, rng), random_hermitian(n, rng)
        p = AmplifiedProjection.base(range_projection(h1[:, :1]))
        q = AmplifiedProjection.base(range_projection(h2[:, :1]))
        pu = AmplifiedProjection.base(u @ p.matrix @ u.conj().T)
        qu = AmplifiedProjection.base(u @ q.matrix @ u.conj().T)
        assert rho(f, p, q) == rho(fu, pu, qu)

    def test_rho_invariant_under_identity_slots(self, rng):
        d = random_metric(3, rng)
        f, _ = from_classical(d)
        p = base_proj(basis_state_projection(3, 0))
        q = base_proj(basis_state_projection(3, 2))
        k = 3
        p_amp = AmplifiedProjection(3, k, np.kron(p.matrix, np.eye(k)))
        q_amp = AmplifiedProjection(3, k, np.kron(q.matrix, np.eye(k)))
        assert rho(f, p_amp, q_amp) == rho(f, p, q) == d[0, 2]


class TestDistanceAxioms:
    """The quantum distance function axioms, on random projections."""

    def _random_projection(self, f, rng, m=1):
        n = f.n
        k = int(rng.integers(1, n * m))
        vecs = rng.standard_normal((n * m, k)) + 1j * rng.standard_normal((n * m, k))
        return AmplifiedProjection(n, m, range_projection(vecs))

    @pytest.mark.parametrize("seed", range(5))
    def test_axioms(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        f = random_step_filtration(n, rng, classical=bool(seed % 2))
        p = self._random_projection(f, rng)
        q = self._random_projection(f, rng)
        r = self._random_projection(f, rng)
        zero = AmplifiedProjection(n, 1, np.zeros((n, n)))
        # (i) distance to the zero projection is infinite
        assert rho(f, p, zero) == math.inf
        # (ii) overlapping projections are at distance zero
        if op_norm(p.matrix @ q.matrix) > 1e-8:
            assert rho(f, p, q) == 0.0
        # (iii) symmetry
        assert rho(f, p, q) == rho(f, q, p)
        # (iv) joins: rho(P v Q, R) = min(rho(P, R), rho(Q, R))
        join = AmplifiedProjection(n, 1, range_projection(np.concatenate([p.matrix, q.matrix], axis=1)))
        assert rho(f, join, r) == min(rho(f, p, r), rho(f, q, r))

    @pytest.mark.parametrize("seed", range(4))
    def test_axiom_vi_range_transport(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        m = 2
        f = random_step_filtration(n, rng)
        p = self._random_projection(f, rng, m)
        q = self._random_projection(f, rng, m)
        bm = np.kron(np.eye(n), rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        bq = AmplifiedProjection(n, m, range_projection(bm @ q.matrix))
        bstar_p = AmplifiedProjection(n, m, range_projection(bm.conj().T @ p.matrix))
        assert rho(f, p, bq) == rho(f, bstar_p, q)

    @pytest.mark.parametrize("seed", range(4))
    def test_triangle_with_constructed_intermediate(self, seed):
        """rho(P, R) <= rho(P, Q) + rho(Q~, R) where Q~ is the commutant
        orbit of ran((A* (x) I) P) for an optimal linking A."""
        rng = np.random.default_rng(seed)
        n = 3
        d = random_metric(n, rng)
        f, ctx = from_classical(d)
        p = self._random_projection(f, rng)
        q = self._random_projection(f, rng)
        r = self._random_projection(f, rng)
        rpq = rho(f, p, q)
        if not math.isfinite(rpq):
            return
        # find a linking basis element at the optimal level
        level = f.value_at(rpq)
        a_link = None
        for b in level.basis:
            if op_norm(p.matrix @ b @ q.matrix) > 1e-10:
                a_link = b
                break
        assert a_link is not None
        orbit_seed = a_link.conj().T @ p.matrix
        stacked = np.concatenate([b @ orbit_seed for b in ctx.commutant.basis], axis=1)
        q_tilde = AmplifiedProjection(n, 1, range_projection(stacked))
        assert op_norm(q_tilde.matrix @ q.matrix) > 1e-10
        assert rho(f, p, r) <= rpq + rho(f, q_tilde, r) + 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_attained_values_are_breakpoints(self, seed):
        rng = np.random.default_rng(seed)
        f = random_step_filtration(3, rng)
        for t in f.breakpoints[1:]:
            # separation witnesses for the level just below t realize rho = t
            below = f.breakpoints[f.breakpoints.index(t) - 1]
            direction = None
            for b in f.value_at(t).basis:
                if not f.value_at(below).contains(b):
                    direction = b
                    break
            if direction is None:
                continue
            p, q = separating_projections(f, below, direction)
            assert rho(f, p, q) == t
