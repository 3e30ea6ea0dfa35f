import math

import numpy as np
import pytest

from qwmetric import (
    AmplifiedProjection,
    MetricContext,
    descriptors,
    from_classical,
    full_space,
    rho,
    span,
    to_classical,
    validate,
)
from qwmetric.codes import hamming_filtration
from qwmetric.constructions import (
    PiecewiseLinear,
    TimedGenerators,
    canonicalize_m2,
    co_lipschitz_number,
    direct_sum,
    f_transform,
    generated_filtration,
    hoelder,
    lp_product,
    m2_metric,
    meet,
    metric_product,
    operator_system_metric,
    quotient,
    subobject,
    truncate,
)
from qwmetric.errors import (
    BridgeTooSmall,
    ConstraintViolation,
    DegenerateChain,
    NotCanonicalizable,
    NotCentral,
    NotOperatorSystem,
    NotSubalgebra,
    NotSuperadditive,
    QwmError,
)
from qwmetric.numerics import NumericConfig, random_hermitian, random_unitary
from qwmetric.filtration import MatrixUnits
from qwmetric.opspace import OperatorSubspace, VNAlgebra, generated_vn_algebra, intersect, product_span, scalar_space, tensor

from conftest import (
    AXIOM_GRAPHS,
    DIAG,
    I2,
    IMAG_OFF,
    REAL_OFF,
    adjacency,
    basis_state_projection,
    bfs_distances,
    conjugated,
    conjugated_generators,
    graph_generators,
    graph_relation_span,
    indicator_projection,
    m2_graded,
    random_metric,
    random_step_filtration,
)


class TestStabilize:
    def test_is_a_filtration_over_the_enlarged_algebra(self, rng):
        from qwmetric.constructions import stabilize
        from qwmetric.opspace import tensor

        d = random_metric(2, rng)
        f, ctx = from_classical(d)
        st = stabilize(f, 2)
        big_alg = VNAlgebra(4, tensor(ctx.algebra, full_space(2)).basis)
        rep = validate(st, MetricContext.from_algebra(big_alg))
        assert rep.is_pseudometric

    @pytest.mark.parametrize("seed", range(3))
    def test_distances_agree_with_amplified_rho(self, seed):
        """Projections in M (x) M_m see the same distances through the
        stabilized filtration as through amplification."""
        from qwmetric.constructions import stabilize
        from qwmetric.numerics import random_hermitian, range_projection

        rng = np.random.default_rng(seed)
        n, m = 3, 2
        f = random_step_filtration(n, rng, classical=bool(seed % 2))
        st = stabilize(f, m)
        for _ in range(4):
            vp = rng.standard_normal((n * m, 2)) + 1j * rng.standard_normal((n * m, 2))
            vq = rng.standard_normal((n * m, 1)) + 1j * rng.standard_normal((n * m, 1))
            p_mat = range_projection(vp)
            q_mat = range_projection(vq)
            via_amp = rho(f, AmplifiedProjection(n, m, p_mat), AmplifiedProjection(n, m, q_mat))
            via_stab = rho(st, AmplifiedProjection.base(p_mat), AmplifiedProjection.base(q_mat))
            assert via_amp == via_stab


class TestTruncate:
    def test_to_zero_is_the_trivial_metric(self, rng):
        f = random_step_filtration(3, rng)
        t = truncate(f, 0.0)
        assert len(t.levels) == 1 and t.levels[-1].dim == 9
        assert descriptors(t)["diameter"] == 0.0

    def test_beyond_diameter_is_identity(self, rng):
        d = random_metric(3, rng)
        f, _ = from_classical(d)
        t = truncate(f, d.max() + 5)
        assert t.breakpoints == f.breakpoints
        assert all(a.equals(b) for a, b in zip(t.levels, f.levels))

    def test_classical_truncation(self, rng):
        d = random_metric(4, rng)
        f, ctx = from_classical(d)
        c = float(np.median(d[d > 0]))
        np.testing.assert_array_equal(to_classical(truncate(f, c), ctx), np.minimum(d, c))

    @pytest.mark.parametrize("seed", range(4))
    def test_rho_formula_on_linkable_pairs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        f = random_step_filtration(n, rng, classical=bool(seed % 2))
        c = float(rng.uniform(0.2, f.breakpoints[-1] + 0.5))
        t = truncate(f, c)
        for _ in range(5):
            i, j = rng.integers(0, n, size=2)
            p = AmplifiedProjection.base(basis_state_projection(n, int(i)))
            q = AmplifiedProjection.base(basis_state_projection(n, int(j)))
            r = rho(f, p, q)
            if math.isfinite(r):
                assert rho(t, p, q) == pytest.approx(min(r, c), abs=1e-9)


class TestDirectSum:
    def test_unbridged_blocks_are_infinitely_far(self):
        fa, _ = from_classical(np.zeros((1, 1)))
        fb, _ = from_classical(np.zeros((1, 1)))
        s = direct_sum(fa, fb)
        p = AmplifiedProjection.base(basis_state_projection(2, 0))
        q = AmplifiedProjection.base(basis_state_projection(2, 1))
        assert rho(s, p, q) == math.inf

    def test_bridge_gives_cross_distance(self):
        fa, _ = from_classical(np.zeros((1, 1)))
        fb, _ = from_classical(np.zeros((1, 1)))
        s = direct_sum(fa, fb, bridge=1.0)
        assert to_classical(s, MetricContext.diagonal(2))[0, 1] == 1.0

    def test_bridged_filtration_validates(self, rng):
        da = random_metric(2, rng)
        db = random_metric(3, rng)
        fa, _ = from_classical(da)
        fb, _ = from_classical(db)
        r = max(da.max(), db.max())
        s = direct_sum(fa, fb, bridge=r)
        rep = validate(s, MetricContext.diagonal(5))
        assert rep.is_filtration and rep.is_metric

    def test_bridge_too_small_rejected(self, rng):
        da = random_metric(3, rng)
        fa, _ = from_classical(da)
        with pytest.raises(BridgeTooSmall):
            direct_sum(fa, fa, bridge=da.max() / 4)

    def test_a_bridge_reads_the_diameters_off_the_cuts(self, monkeypatch):
        """The bridge is checked against each input's diameter, the first
        breakpoint whose level is M_n: no reach pass and no path check, and
        the result and the BridgeTooSmall rule are the ones the diameter of
        descriptors gives."""
        from qwmetric import filtration

        h = hamming_filtration(3)
        diameter = descriptors(h)["diameter"]
        calls = []
        for name in ("_product_reach", "_spans"):
            monkeypatch.setattr(filtration, name, lambda *a, real=getattr(filtration, name): calls.append(real) or real(*a))
        s = direct_sum(h, h, 2.0)
        assert s.breakpoints == [0.0, 1.0, 2.0, 3.0]
        assert s.cuts == [2 * c + 2 * 8 * 8 * (t >= 2.0) for t, c in zip(h.breakpoints, h.cuts)]
        assert direct_sum(h, h, diameter / 2).breakpoints == [0.0, 1.0, 1.5, 2.0, 3.0]
        with pytest.raises(BridgeTooSmall, match="below max"):
            direct_sum(h, h, np.nextafter(diameter / 2, 0))
        with pytest.raises(BridgeTooSmall, match="finite"):
            direct_sum(h, from_classical(np.where(np.eye(2, dtype=bool), 0.0, math.inf))[0], 10.0)
        assert not calls

    @pytest.mark.parametrize("seed", range(3))
    def test_rho_is_blockwise_min(self, seed):
        rng = np.random.default_rng(seed)
        da = random_metric(2, rng)
        db = random_metric(2, rng)
        fa, _ = from_classical(da)
        fb, _ = from_classical(db)
        s = direct_sum(fa, fb)
        # block projections P = P1 (+) P2
        p = AmplifiedProjection.base(indicator_projection(4, [0, 2]))
        q = AmplifiedProjection.base(indicator_projection(4, [1, 3]))
        assert rho(s, p, q) == min(da[0, 1], db[0, 1])


class TestMeet:
    def test_meet_is_idempotent(self, rng):
        f = random_step_filtration(3, rng)
        m = meet([f, f])
        assert m.breakpoints == f.breakpoints
        assert all(a.equals(b) for a, b in zip(m.levels, f.levels))

    def test_countersup_example(self):
        va = operator_system_metric(span([I2, REAL_OFF]))
        vb = operator_system_metric(span([I2, IMAG_OFF]))
        m = meet([va, vb])
        p = AmplifiedProjection.base(np.diag([1.0, 0.0]))
        q = AmplifiedProjection.base(np.diag([0.0, 1.0]))
        assert rho(va, p, q) == 1.0
        assert rho(vb, p, q) == 1.0
        assert rho(m, p, q) == 2.0  # the max formula fails, 2 > max(1, 1)

    def test_classical_meet_is_pointwise_max(self, rng):
        d1 = random_metric(3, rng)
        d2 = random_metric(3, rng)
        f1, ctx = from_classical(d1)
        f2, _ = from_classical(d2)
        m = meet([f1, f2])
        np.testing.assert_array_equal(to_classical(m, ctx), np.maximum(d1, d2))

    def test_one_complement_per_input_and_one_null_space_per_point(self, monkeypatch):
        """The complement of a level is the graded basis past its cut plus
        the complement of the top: one complement per input, then one null
        space per point of the union grid."""
        from qwmetric import constructions, opspace

        calls = []
        counted = lambda *a, **k: calls.append(1) or null_space_rows(*a, **k)
        null_space_rows = opspace.null_space_rows
        monkeypatch.setattr(opspace, "null_space_rows", counted)
        monkeypatch.setattr(constructions, "null_space_rows", counted, raising=False)
        rng = np.random.default_rng(1)
        (f1, ctx), (f2, _) = from_classical(random_metric(5, rng)), from_classical(random_metric(5, rng))
        m = meet([f1, f2])
        grid = set(f1.breakpoints) | set(f2.breakpoints)
        assert len(grid) == 21 and len(calls) <= 2 + len(grid)
        monkeypatch.undo()
        np.testing.assert_array_equal(to_classical(m, ctx), np.maximum(to_classical(f1, ctx), to_classical(f2, ctx)))


class TestMetricProduct:
    def test_classical_product_is_max_metric(self, rng):
        d1 = random_metric(3, rng)
        d2 = random_metric(2, rng)
        f1, _ = from_classical(d1)
        f2, _ = from_classical(d2)
        prod = metric_product(f1, f2)
        dp = to_classical(prod, MetricContext.diagonal(6))
        for x1 in range(3):
            for y1 in range(2):
                for x2 in range(3):
                    for y2 in range(2):
                        assert dp[2 * x1 + y1, 2 * x2 + y2] == max(d1[x1, x2], d2[y1, y2])

    def test_product_with_trivial_factor(self, rng):
        f = random_step_filtration(2, rng)
        trivial = m2_graded([0.0], "IZXY", [4])
        prod = metric_product(f, trivial)
        assert [lv.dim for lv in prod.levels] == [lv.dim * 4 for lv in f.levels]

    @pytest.mark.parametrize("seed", range(3))
    def test_intersection_equals_algebraic_tensor(self, seed):
        """The Fubini level (V_t (x) M_k) cap (M_n (x) W_t), computed by
        intersection, is the level the product builds from V_t (x) W_t, at
        every breakpoint of either factor."""
        rng = np.random.default_rng(seed)
        f1 = random_step_filtration(2, rng)
        f2 = random_step_filtration(2, rng, classical=True)
        prod = metric_product(f1, f2)
        for t in sorted({*f1.breakpoints, *f2.breakpoints}):
            fubini = intersect(tensor(f1.value_at(t), full_space(2)), tensor(full_space(2), f2.value_at(t)))
            assert prod.value_at(t).equals(fubini)

    def test_metric_iff_both_factors_metric(self, rng):
        d_metric = random_metric(2, rng)
        d_pseudo = np.zeros((2, 2))  # glued points: a pseudometric only
        fm, ctxm = from_classical(d_metric)
        fp, _ = from_classical(d_pseudo)
        ctx4 = MetricContext.diagonal(4)
        assert validate(metric_product(fm, fm), ctx4).is_metric
        assert not validate(metric_product(fm, fp), ctx4).is_metric
        assert validate(metric_product(fm, fp), ctx4).is_pseudometric


def fixed_point_case(seed):
    """The base and timed generators of the fixed-point oracle's case ``seed``:
    a diagonal base (seeds divisible by 3, in the standard basis), or the
    algebra of a Hermitian or of a block sum, in a random basis."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 5))
    u = random_unitary(n, rng) if seed % 3 else np.eye(n)
    if seed % 3 == 0:
        base = MetricContext.diagonal(n).commutant
    elif seed % 3 == 1 or n == 2:
        # the spectral projections of a Hermitian with two or three eigenvalues
        values = rng.permutation([0.0, 1.0, *rng.choice([0.0, 1.0, 2.0], size=n - 2)])
        base = generated_vn_algebra([u @ np.diag(values) @ u.conj().T], n)
    else:
        # M_k (+) M_{n-k}
        k = int(rng.integers(1, n))
        block = np.zeros((n, n), dtype=complex)
        block[:k, :k], block[k:, k:] = random_hermitian(k, rng), random_hermitian(n - k, rng)
        shift = np.diag(np.arange(n, dtype=float))
        base = generated_vn_algebra([u @ block @ u.conj().T, u @ shift @ u.conj().T], n)
    b = span(list(base.basis), n)
    assert 1 < b.dim < n * n
    gens = []
    # drawn until some generator is not closed under the base
    while all(g.contains_space(product_span(b, product_span(g, b))) for _, g in gens):
        gens = []
        for _ in range(int(rng.integers(1, 3))):
            # two random entries in the base's own basis, so the levels grow in several steps
            x = np.zeros((n, n), dtype=complex)
            x[rng.integers(0, n, 2), rng.integers(0, n, 2)] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            gens.append((float(rng.choice([0.5, 1.0, 1.5])), span([u @ x @ u.conj().T], n)))
    return n, base, gens


class TestGeneratedFiltration:
    def test_no_generators_returns_base(self):
        base = VNAlgebra(2, scalar_space(2).basis, verify=False)
        f = generated_filtration(TimedGenerators(base, []))
        assert len(f.levels) == 1 and f.levels[0].dim == 1

    def test_quantum_graph_metric_powers(self):
        base = VNAlgebra(2, scalar_space(2).basis, verify=False)
        gen = span([I2, DIAG, REAL_OFF])
        f = generated_filtration(TimedGenerators(base, [(1.0, gen)]))
        assert f.breakpoints == [0.0, 1.0, 2.0]
        assert [lv.dim for lv in f.levels] == [1, 3, 4]
        rep = validate(f, MetricContext.full(2))
        assert rep.is_metric

    @pytest.mark.parametrize("seed", range(6))
    def test_classical_graph_metric_is_bfs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        adj = np.triu(rng.random((n, n)) < 0.45, 1)
        adj = adj | adj.T
        ctx = MetricContext.diagonal(n)
        f = generated_filtration(
            TimedGenerators(ctx.commutant, [(1.0, graph_relation_span(adj))])
        )
        np.testing.assert_array_equal(to_classical(f, ctx), bfs_distances(adj))

    def test_full_base_collapses_to_single_level(self):
        base = VNAlgebra(2, full_space(2).basis, verify=False)
        f = generated_filtration(TimedGenerators(base, [(1.0, span([I2, DIAG]))]))
        assert len(f.levels) == 1 and f.levels[0].dim == 4

    def test_generator_within_the_time_merge_of_zero_joins_the_zero_level(self):
        """A run's merged jump keeps the run's first time, here 0, and the zero
        level stays an algebra."""
        base = VNAlgebra(2, scalar_space(2).basis, verify=False)
        f = generated_filtration(TimedGenerators(base, [(5e-13, span([I2, DIAG]))]))
        assert f.breakpoints == [0.0] and f.levels[0].equals(span([I2, DIAG]))
        g = generated_filtration(TimedGenerators(base, [(5e-13, span([I2, DIAG, REAL_OFF])), (1.0, span([I2, REAL_OFF]))]))
        assert g.breakpoints == [0.0] and g.cuts == [4]
        h = generated_filtration(TimedGenerators(base, [(5e-13, span([I2, DIAG])), (1.0, span([I2, REAL_OFF]))]))
        assert h.breakpoints == [0.0, 1.0] and h.cuts == [2, 4]
        assert validate(f).is_filtration and validate(g).is_filtration and validate(h).is_filtration

    def test_a_merged_jump_takes_its_products_again(self):
        """At 16 the spacing of doubles is 2^-48, so 16 + 1e-12 lies within
        TIME_MERGE of 16: the event (1, j) of the jump j at 16 merges into
        it, bringing E24, and E12 E24 = E14 enters at 16 as well (not at
        16 + 2e-12) only if that event is taken again against the whole
        block."""
        n = 4
        units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
        path, last = span([units[1], units[6]], n), span([units[11]], n)
        f = generated_filtration(TimedGenerators(MetricContext.diagonal(n).commutant, [(1e-12, path), (16.0, last)]))
        assert f.breakpoints == [0.0, 1e-12, 2e-12, 16.0] and f.cuts == [4, 8, 10, 16]

    def test_blocks_with_a_zero_product_add_nothing(self):
        """Over a diagonal base in a random basis, the two edges' blocks have
        product exactly 0, which in floating point is rounding noise alone:
        the event at 1 + 1.25 adds nothing, and the two components stay at
        infinite distance."""
        n = 4
        u = random_unitary(n, np.random.default_rng(0))
        units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
        base = generated_vn_algebra([u @ np.diag([0.0, 1.0, 2.0, 3.0]) @ u.conj().T], n)
        gens = [(1.0, span([u @ units[1] @ u.conj().T], n)), (1.25, span([u @ units[11] @ u.conj().T], n))]
        f = generated_filtration(TimedGenerators(base, gens))
        assert f.breakpoints == [0.0, 1.0, 1.25] and f.cuts == [4, 6, 8]
        p, q = (AmplifiedProjection.base(u @ units[k] @ u.conj().T) for k in (0, 10))
        assert rho(f, p, q) == math.inf

    def test_all_constructors_validate(self, rng):
        base = VNAlgebra(3, scalar_space(3).basis, verify=False)
        h = np.diag([1.0, -1.0, 0.0]).astype(complex)
        f = generated_filtration(TimedGenerators(base, [(0.7, span([np.eye(3), h], 3))]))
        assert validate(f).is_filtration

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_chain_enumeration(self, seed):
        """Oracle: enumerate all generator chains (with adjoints, interleaved
        with the base) up to depth 5 and compare level by level."""
        import itertools

        from qwmetric.opspace import adjoint, product_span, sum_spaces
        from qwmetric.numerics import random_hermitian

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        base = VNAlgebra(n, scalar_space(n).basis, verify=False)
        gens = []
        for _ in range(int(rng.integers(1, 3))):
            h = random_hermitian(n, rng)
            u = float(rng.choice([0.5, 0.8, 1.0]))
            gens.append((u, span([np.eye(n, dtype=complex), h], n)))
        f = generated_filtration(TimedGenerators(base, gens))
        base_sp = span(list(base.basis), n)
        sym = [(u, sum_spaces(g, adjoint(g))) for u, g in gens]
        for t in [*f.breakpoints, f.breakpoints[-1] + 0.3]:
            acc = base_sp
            for k in range(1, 6):
                for combo in itertools.product(range(len(sym)), repeat=k):
                    if sum(sym[i][0] for i in combo) > t + 1e-9:
                        continue
                    prod = base_sp
                    for i in combo:
                        prod = product_span(product_span(prod, sym[i][1]), base_sp)
                    acc = sum_spaces(acc, prod)
            assert f.value_at(t).equals(acc)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_fixed_point_of_the_levels(self, seed):
        """Oracle from span and product_span alone, over a base that is not
        scalar and generators that it does not preserve: the levels on the
        grid of half-integers, swept in ascending time until none grows,
        each taking the level before, the generators due (with adjoints),
        the products of every pair of levels whose times sum to it, and its
        sandwich by the base until that is stable.  The engine closes only
        generators under the base and multiplies only the new blocks, so
        this pins that the blocks are bimodules over the base."""
        n, base, gens = fixed_point_case(seed)
        b = span(list(base.basis), n)
        f = generated_filtration(TimedGenerators(base, gens))
        assert all(t == round(2 * t) / 2 for t in f.breakpoints)
        # no level grows past twice the last breakpoint: the top times itself lies in the top
        top = int(2 * max(2 * f.breakpoints[-1], max(t for t, _ in gens)))
        levels = [b] * (top + 1)
        grown = True
        while grown:
            grown = False
            for k in range(1, top + 1):
                mats = [*levels[k - 1].basis, *levels[k].basis]
                mats += [m for t, g in gens if 2 * t <= k for x in g.basis for m in (x, x.conj().T)]
                mats += [m for i in range(1, k) for m in product_span(levels[i], levels[k - i]).basis]
                level = span(mats, n)
                while True:
                    closed = span([*level.basis, *product_span(b, product_span(level, b)).basis], n)
                    if closed.dim == level.dim:
                        break
                    level = closed
                if level.dim > levels[k].dim:
                    levels[k], grown = level, True
        for k, level in enumerate(levels):
            assert f.value_at(k / 2).equals(level), k / 2

    def test_the_30_point_path_grows_labels_with_no_extend(self, monkeypatch):
        """Over the diagonal algebra the engine grows matrix-unit labels: the
        30-point path takes no dense growth step, and its distance is |x - y|."""
        from qwmetric import constructions

        monkeypatch.setattr(constructions, "_extend", lambda *a: pytest.fail("_extend called"))
        f = generated_filtration(graph_generators(path_or_cycle(30, False)))
        assert isinstance(f._graded, MatrixUnits)
        x = np.arange(30)
        np.testing.assert_array_equal(to_classical(f, MetricContext.diagonal(30)), np.abs(x[:, None] - x[None]))

    @pytest.mark.parametrize("n, cycle", [(12, False), (14, False), (12, True)])
    def test_long_paths_and_a_cycle_are_bfs(self, n, cycle):
        adj = path_or_cycle(n, cycle)
        ctx = MetricContext.diagonal(n)
        f = generated_filtration(TimedGenerators(ctx.commutant, [(1.0, graph_relation_span(adj))]))
        np.testing.assert_array_equal(to_classical(f, ctx), bfs_distances(adj))


def path_or_cycle(n, cycle):
    adj = np.zeros((n, n), dtype=bool)
    for x in range(n if cycle else n - 1):
        adj[x, (x + 1) % n] = adj[(x + 1) % n, x] = True
    return adj


def random_graph(rng, high, density=lambda rng: 0.45):
    """A graph on 2 to high - 1 points, drawn as the BFS tests draw theirs:
    the size, the coins, then the density they are compared with."""
    n = int(rng.integers(2, high))
    adj = np.triu(rng.random((n, n)) < density(rng), 1)
    return adj | adj.T


# generator times with runs that merge: 1 and 1 + 1e-13 are one time, and so
# are sums such as 0.5 + 1.5 and 2 - 1e-13; 1e-12 is a jump of its own
MERGED_TIMES = [1e-12, 0.5, 1.0, 1.0 + 1e-13, 1.5, 2.0 - 1e-13, 2.0, 3.0]


def random_relation(seed):
    """One to three generators over the diagonal algebra, each the span of
    one or two complex matrices with a few random entries, at MERGED_TIMES."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    gens = []
    for _ in range(int(rng.integers(1, 4))):
        mats = []
        for _ in range(int(rng.integers(1, 3))):
            x = np.zeros((n, n), dtype=complex)
            k = int(rng.integers(1, n + 1))
            x[rng.integers(0, n, k), rng.integers(0, n, k)] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            mats.append(x)
        gens.append((float(rng.choice(MERGED_TIMES)), span(mats, n)))
    return TimedGenerators(MetricContext.diagonal(n).commutant, gens)


def merged_jump():
    """The generators of test_a_merged_jump_takes_its_products_again."""
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    return TimedGenerators(MetricContext.diagonal(4).commutant, [(1e-12, span([units[1], units[6]], 4)), (16.0, span([units[11]], 4))])


def diagonal_cases():
    """Every generated filtration over the diagonal algebra the tests build,
    by name: the graphs of criterion 05 and of the BFS tests, the long paths
    and the cycle, the merged jump, the diagonal fixed-point cases, the
    axioms graphs, and random relations at merged times."""
    criterion05 = np.random.default_rng(105)
    cases = [(f"criterion05-{k}", lambda adj=random_graph(criterion05, 9, lambda r: r.uniform(0.2, 0.7)): graph_generators(adj)) for k in range(100)]
    cases += [(f"bfs-{seed}", lambda seed=seed: graph_generators(random_graph(np.random.default_rng(seed), 8))) for seed in range(6)]
    cases += [(f"long-{n}-{cycle}", lambda n=n, cycle=cycle: graph_generators(path_or_cycle(n, cycle))) for n, cycle in [(12, False), (14, False), (12, True)]]
    cases += [("merged-jump", merged_jump)]
    cases += [(f"fixed-point-{seed}", lambda seed=seed: TimedGenerators(*fixed_point_case(seed)[1:])) for seed in range(0, 30, 3)]
    cases += [(f"axioms-{j}", lambda n=n, e=e: graph_generators(adjacency(n, e))) for j, (n, e) in enumerate(AXIOM_GRAPHS)]
    return cases + [(f"random-{seed}", lambda seed=seed: random_relation(seed)) for seed in range(120)]


def assert_labels_match_dense(tg, seed):
    """The label engine's filtration over D is MatrixUnits, and the dense
    engine grows the same filtration, moved by A -> U A U*, from the
    generators on the conjugated base: breakpoints within 1e-12, equal
    cuts, and equal levels."""
    f = generated_filtration(tg)
    assert isinstance(f._graded, MatrixUnits)
    u = random_unitary(tg.base.n, np.random.default_rng(seed))
    g = generated_filtration(conjugated_generators(tg, u))
    assert not isinstance(g._graded, MatrixUnits)
    assert f.cuts == g.cuts
    np.testing.assert_allclose(f.breakpoints, g.breakpoints, rtol=0, atol=1e-12)
    assert all(a.equals(b) for a, b in zip(conjugated(f, u).levels, g.levels))
    return f


DIAGONAL_CASES = diagonal_cases()


@pytest.mark.parametrize("seed, case", list(enumerate(DIAGONAL_CASES)), ids=[name for name, _ in DIAGONAL_CASES])
def test_labels_match_the_dense_engine_on_a_conjugated_base(seed, case):
    assert_labels_match_dense(case[1](), seed)


def test_a_support_entry_counts_by_the_rank_rule():
    """A generator entry 1e-6 of the largest passes the rank rule and one of
    1e-13 does not, in either engine: E_12 joins the relation, E_23 does not."""
    x = np.zeros((4, 4), dtype=complex)
    x[0, 1], x[1, 2], x[2, 3] = 1.0, 1e-6, 1e-13
    f = assert_labels_match_dense(TimedGenerators(MetricContext.diagonal(4).commutant, [(1.0, span([x], 4))]), 0)
    inf = math.inf
    want = [[0, 1, 2, inf], [1, 0, 1, inf], [2, 1, 0, inf], [inf, inf, inf, 0]]
    np.testing.assert_array_equal(to_classical(f, MetricContext.diagonal(4)), want)


@pytest.mark.parametrize("diagonal", [True, False], ids=["labels", "dense"])
def test_a_zero_generator_adds_nothing(diagonal):
    """A generator with no basis adds no candidates in either block kind:
    alone it gives the base filtration, and beside a nonzero generator, at
    its time, before it or after it, the basis is the same bit for bit."""
    n = 3
    base = MetricContext.diagonal(n).commutant if diagonal else scalar_space(n)
    zero = OperatorSubspace(n, np.zeros((0, n, n)))
    alone = generated_filtration(TimedGenerators(base, [(1.0, zero)]))
    assert (alone.breakpoints, alone.cuts) == ([0.0], [base.dim])
    assert isinstance(alone._graded, MatrixUnits) == diagonal
    x = span([np.eye(n, k=1)], n)
    want = generated_filtration(TimedGenerators(base, [(1.0, x)]))
    for gens in ([(1.0, zero), (1.0, x)], [(1.0, x), (0.5, zero)], [(1.0, x), (2.5, zero)]):
        got = generated_filtration(TimedGenerators(base, gens))
        assert (got.breakpoints, got.cuts) == (want.breakpoints, want.cuts)
        assert got.basis.tobytes() == want.basis.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_parameters_rejected(bad):
    f = m2_metric(1, 2, 3)
    for build in (lambda: truncate(f, bad), lambda: direct_sum(f, f, bad), lambda: lp_product(f, f, bad)):
        with pytest.raises(QwmError):
            build()


class TestConstructorsEmitValidFiltrations:
    """Every construction yields an object passing the axiom validator."""

    def test_each_constructor(self, rng):
        d = random_metric(3, rng)
        f, ctx = from_classical(d)
        g, _ = from_classical(random_metric(3, rng))
        outputs = [
            truncate(f, float(np.median(d[d > 0]))),
            direct_sum(f, g),
            direct_sum(f, g, bridge=max(d.max(), 3.0)),
            meet([f, g]),
            metric_product(f, from_classical(random_metric(2, rng))[0]),
            lp_product(f, from_classical(random_metric(2, rng))[0], 1.5),
            quotient(f, indicator_projection(3, [0, 2]), ctx),
            hoelder(f, 0.5),
            f_transform(f, PiecewiseLinear([(0.0, 0.0)], final_slope=1.0, inf_from=2.0)),
            operator_system_metric(span([I2, REAL_OFF, IMAG_OFF])),
            m2_metric(1, 2, 3),
        ]
        for out in outputs:
            assert validate(out).is_filtration


class TestQuotientAndSubobject:
    def test_quotient_by_identity(self, rng):
        d = random_metric(3, rng)
        f, ctx = from_classical(d)
        q = quotient(f, np.eye(3), ctx)
        assert all(a.equals(b) for a, b in zip(q.levels, f.levels))

    def test_classical_subset_restriction(self, rng):
        d = random_metric(4, rng)
        f, ctx = from_classical(d)
        r = indicator_projection(4, [1, 3])
        q = quotient(f, r, ctx)
        np.testing.assert_array_equal(to_classical(q, MetricContext.diagonal(2)), d[np.ix_([1, 3], [1, 3])])

    def test_non_central_rejected(self, rng):
        f = random_step_filtration(2, rng)
        with pytest.raises(NotCentral):
            quotient(f, np.diag([1.0, 0.0]), MetricContext.full(2))

    def test_direct_sum_quotient_round_trip(self, rng):
        da = random_metric(2, rng)
        db = random_metric(2, rng)
        fa, _ = from_classical(da)
        fb, _ = from_classical(db)
        s = direct_sum(fa, fb)
        back = quotient(s, indicator_projection(4, [0, 1]), MetricContext.diagonal(4))
        np.testing.assert_array_equal(to_classical(back, MetricContext.diagonal(2)), da)

    def test_subobject_of_whole_algebra_is_identity(self, rng):
        d = random_metric(3, rng)
        f, ctx = from_classical(d)
        so = subobject(f, ctx.algebra, ctx)
        assert so.breakpoints == f.breakpoints
        assert all(a.equals(b) for a, b in zip(so.levels, f.levels))

    def test_subobject_scalar_subalgebra_is_trivial(self, rng):
        d = random_metric(3, rng)
        f, ctx = from_classical(d)
        scalars = VNAlgebra(3, scalar_space(3).basis, verify=False)
        so = subobject(f, scalars, ctx)
        assert len(so.levels) == 1 and so.levels[0].dim == 9

    def test_subobject_not_a_subalgebra_rejected(self, rng):
        d = random_metric(2, rng)
        f, ctx = from_classical(d)
        with pytest.raises(NotSubalgebra):
            subobject(f, VNAlgebra(2, full_space(2).basis, verify=False), ctx)

    @pytest.mark.parametrize("seed", range(3))
    def test_subobject_dominates(self, seed):
        rng = np.random.default_rng(seed)
        d = random_metric(4, rng)
        f, ctx = from_classical(d)
        classes = [[0, 2], [1], [3]]
        sub = VNAlgebra(4, span([indicator_projection(4, cl) for cl in classes], 4).basis)
        so = subobject(f, sub, ctx)
        grid = sorted({*f.breakpoints, *so.breakpoints})
        for t in grid:
            assert so.value_at(t).contains_space(f.value_at(t))

    @pytest.mark.parametrize("seed", range(3))
    def test_classical_quotient_pseudometric(self, seed):
        """Gluing points via the constant-on-classes subalgebra produces the
        classical quotient pseudometric (chain infimum oracle)."""
        rng = np.random.default_rng(seed)
        n = 4
        d = random_metric(n, rng)
        f, ctx = from_classical(d)
        classes = [[0, 1], [2], [3]]
        mats = [indicator_projection(n, cl) for cl in classes]
        sub = VNAlgebra(n, span(mats, n).basis)
        so = subobject(f, sub, ctx)
        dq = to_classical(so, ctx)
        expected = quotient_pseudometric_oracle(d, classes)
        np.testing.assert_allclose(dq, expected, atol=1e-9)


def quotient_pseudometric_oracle(d, classes):
    """Brute-force quotient pseudometric: shortest chains through glued
    points, then lifted back to the original index set."""
    n = d.shape[0]
    glue = np.zeros((n, n))
    for cl in classes:
        for x in cl:
            for y in cl:
                glue[x, y] = 1
    dd = d.copy()
    for x in range(n):
        for y in range(n):
            if glue[x, y]:
                dd[x, y] = 0.0
    for k in range(n):
        dd = np.minimum(dd, dd[:, k : k + 1] + dd[k : k + 1, :])
    return dd


def lp_by_engine(f, g, p):
    """The lp product as the generated engine builds it: the smallest
    filtration over the algebra generated by V_0 (x) W_0 holding each
    V_s (x) W_t at (s^p + t^p)^(1/p)."""
    base = generated_vn_algebra(tensor(f.levels[0], g.levels[0]).basis, f.n * g.n)
    gens = [
        ((s ** p + t ** p) ** (1.0 / p), tensor(v, w))
        for s, v in zip(f.breakpoints, f.levels)
        for t, w in zip(g.breakpoints, g.levels)
        if s or t
    ]
    return generated_filtration(TimedGenerators(base, gens))


def assert_same_lp(f, g, p):
    lp, engine = lp_product(f, g, p), lp_by_engine(f, g, p)
    assert lp.cuts == engine.cuts
    np.testing.assert_allclose(lp.breakpoints, engine.breakpoints, rtol=0, atol=1e-12)
    assert all(a.equals(b) for a, b in zip(lp.levels, engine.levels))


class TestLpProduct:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_closed_form_equals_the_generated_engine(self, p):
        """On random and classical filtrations, as in criterion 10."""
        rng = np.random.default_rng(int(10 * p))
        for trial in range(8):
            na, nb = [(2, 2), (2, 2), (2, 2), (2, 2), (2, 3), (2, 3), (3, 2), (3, 2)][trial]
            fa = random_step_filtration(na, rng, classical=bool(trial % 2))
            fb = random_step_filtration(nb, rng, classical=trial >= 2)
            assert_same_lp(fa, fb, p)

    def test_times_one_ulp_apart_merge(self):
        """0.1 + 0.7 and 0.3 + 0.5 differ in the last bit; the engine's
        merge rule makes them one level, at the first of the two."""
        fa, _ = from_classical(np.array([[0, 0.1, 0.3], [0.1, 0, 0.3], [0.3, 0.3, 0]]))
        fb, _ = from_classical(np.array([[0, 0.5, 0.7], [0.5, 0, 0.7], [0.7, 0.7, 0]]))
        lp = lp_product(fa, fb, 1.0)
        assert lp.breakpoints == [0, 0.1, 0.3, 0.5, 0.6, 0.7, 0.1 + 0.7, 1.0]
        assert lp.cuts == [9, 15, 27, 33, 37, 49, 65, 81]
        assert_same_lp(fa, fb, 1.0)

    def test_taxicab_on_two_edges(self):
        fa, _ = from_classical(np.array([[0.0, 1.0], [1.0, 0.0]]))
        fb, _ = from_classical(np.array([[0.0, 2.0], [2.0, 0.0]]))
        lp = lp_product(fa, fb, 1.0)
        dl = to_classical(lp, MetricContext.diagonal(4))
        da = np.array([[0.0, 1], [1, 0]])
        db = np.array([[0.0, 2], [2, 0]])
        for x1 in range(2):
            for y1 in range(2):
                for x2 in range(2):
                    for y2 in range(2):
                        assert dl[2 * x1 + y1, 2 * x2 + y2] == pytest.approx(
                            da[x1, x2] + db[y1, y2]
                        )

    def test_contained_in_metric_product(self, rng):
        fa, _ = from_classical(random_metric(2, rng))
        fb, _ = from_classical(random_metric(2, rng))
        lp = lp_product(fa, fb, 2.0)
        prod = metric_product(fa, fb)
        grid = sorted({*lp.breakpoints, *prod.breakpoints})
        for t in grid:
            assert prod.value_at(t).contains_space(lp.value_at(t))


    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_basis_is_the_time_sorted_kron_stack_bit_for_bit(self, p):
        """The products are written in time order straight into one stack: the
        basis of the lp and the max product is kron_stack(f.basis, g.basis)
        sorted stably by entry time, bit for bit, on factored, classical and
        random complex inputs and on every mix of basis kinds."""
        from qwmetric.codes import hamming_filtration
        from qwmetric.opspace import kron_stack

        rng = np.random.default_rng(int(4 * p))
        pairs = [(hamming_filtration(2), hamming_filtration(1)), (hamming_filtration(1), hamming_filtration(2))]
        pairs += [(random_step_filtration(2, rng), random_step_filtration(3, rng)), (from_classical(random_metric(3, rng))[0], random_step_filtration(2, rng))]
        # the mixed kinds: dense x units, units x site factors, site factors x units
        units = from_classical(random_metric(2, rng))[0]
        pairs += [(random_step_filtration(2, rng), units), (units, hamming_filtration(1)), (hamming_filtration(2), units)]
        for f, g in pairs:
            lp, prod = lp_product(f, g, p), metric_product(f, g)
            s, t = f.times[:, None], g.times[None]
            for out, times in [(lp, np.maximum(s, t) * (1 + (np.minimum(s, t) / np.maximum(np.maximum(s, t), 1e-300)) ** p) ** (1 / p)), (prod, np.maximum(s, t))]:
                assert out.basis.tobytes() == kron_stack(f.basis, g.basis)[np.argsort(times.reshape(-1), kind="stable")].tobytes()

    @pytest.mark.parametrize("product", [lambda f, g: lp_product(f, g, 1.0), metric_product], ids=["lp", "max"])
    def test_the_product_is_held_once(self, product):
        """A product of Hamming models peaks under 1.25x its own basis in
        traced memory: no second copy of the stack (sorting a written-out
        kron stack reached 2x)."""
        import tracemalloc

        from qwmetric.codes import hamming_filtration

        f, g = hamming_filtration(2), hamming_filtration(2)
        f.basis, g.basis, product(f, g)  # the inputs written out, and numpy warmed up
        tracemalloc.start()
        try:
            out = product(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * out.basis.nbytes

    @pytest.mark.parametrize("abc", [(0.5, 0.5, 0.9), (1.0, 2.0, 3.0)])
    def test_large_p_neither_underflows_nor_overflows(self, abc):
        """At p = 2000, 0.5^p underflows to 0 and 2^p overflows; every time
        stays within (1 + 2^(1/p)) of max(s, t) and the product is valid."""
        f = m2_metric(*abc)
        lp = lp_product(f, f, 2000)
        assert validate(lp).is_filtration
        assert lp.cuts[0] == 1
        hi = np.maximum(f.times[:, None], f.times[None]).reshape(-1)
        assert np.all(lp.times >= np.sort(hi)) and np.all(lp.times <= 2 ** (1 / 2000) * np.sort(hi))


class TestReparameterizations:
    def test_snowflake_classical(self, rng):
        d = random_metric(3, rng)
        f, ctx = from_classical(d)
        h = hoelder(f, 0.5)
        np.testing.assert_allclose(to_classical(h, ctx), d ** 0.5, atol=1e-12)

    def test_identity_transform(self, rng):
        f = random_step_filtration(3, rng)
        ft = f_transform(f, PiecewiseLinear([(0.0, 0.0)], final_slope=1.0))
        assert ft.breakpoints == f.breakpoints

    def test_truncation_as_f_transform(self, rng):
        d = random_metric(3, rng)
        f, ctx = from_classical(d)
        c = float(np.median(d[d > 0]))
        ft = f_transform(f, PiecewiseLinear([(0.0, 0.0)], final_slope=1.0, inf_from=c))
        tr = truncate(f, c)
        assert ft.breakpoints == tr.breakpoints
        assert all(a.equals(b) for a, b in zip(ft.levels, tr.levels))

    def test_rho_transforms_along_f(self, rng):
        d = random_metric(3, rng)
        f, _ = from_classical(d)
        fn = PiecewiseLinear([(0.0, 0.0)], final_slope=2.0)  # f(t) = 2t
        ft = f_transform(f, fn)
        p = AmplifiedProjection.base(basis_state_projection(3, 0))
        q = AmplifiedProjection.base(basis_state_projection(3, 2))
        # rho^f = f(rho) means the new distance is the preimage: d/2
        assert rho(ft, p, q) == pytest.approx(rho(f, p, q) / 2)

    def test_not_superadditive_rejected(self, rng):
        f = random_step_filtration(2, rng)
        concave = PiecewiseLinear([(0.0, 0.0), (1.0, 5.0)], final_slope=0.1)
        with pytest.raises(NotSuperadditive) as exc:
            f_transform(f, concave)
        assert exc.value.witness is not None

    def test_decreasing_data_rejected_at_the_resolution_of_times(self, rng):
        # convex, hence superadditive, but f(1) < f(0); a loose matrix tolerance does not excuse it
        f = random_step_filtration(2, rng)
        dip = PiecewiseLinear([(0.0, 0.0), (1.0, -5e-3)], final_slope=1.0)
        with pytest.raises(NotSuperadditive, match="nondecreasing"):
            f_transform(f, dip, NumericConfig(membership_tol=1e-2))

    def test_hoelder_alpha_range(self, rng):
        f = random_step_filtration(2, rng)
        with pytest.raises(Exception):
            hoelder(f, 1.5)


class TestOperatorSystemMetric:
    def test_traceless_system_metric(self):
        f = operator_system_metric(span([I2, REAL_OFF, IMAG_OFF]))
        assert descriptors(f)["diameter"] == 2.0
        assert validate(f, MetricContext.full(2)).is_metric

    def test_diagonal_system_looks_classical(self):
        f = operator_system_metric(span([I2, DIAG]))
        p = AmplifiedProjection.base(np.diag([1.0, 0.0]))
        q = AmplifiedProjection.base(np.diag([0.0, 1.0]))
        assert rho(f, p, q) == 2.0  # the diagonal level never links them

    def test_degenerate_chain_rejected(self):
        with pytest.raises(DegenerateChain):
            operator_system_metric(span([I2]))
        with pytest.raises(NotOperatorSystem):
            operator_system_metric(span([REAL_OFF]))


class TestM2Classification:
    def test_builder_accepts_valid_triples(self):
        f = m2_metric(1, 2, 3)
        assert f.breakpoints == [0.0, 1.0, 2.0, 3.0]
        assert validate(f, MetricContext.full(2)).is_metric

    def test_constraint_violations(self):
        with pytest.raises(ConstraintViolation):
            m2_metric(1, 1, 3)  # c > a + b
        with pytest.raises(ConstraintViolation):
            m2_metric(2, 1, 3)  # unsorted

    def test_pseudometric_at_a_zero(self):
        f = m2_metric(0, 1, 1)
        rep = validate(f, MetricContext.full(2))
        assert rep.is_pseudometric and not rep.is_metric

    def test_collapsed_parameters(self):
        f = m2_metric(1, 1, 2)
        assert [lv.dim for lv in f.levels] == [1, 3, 4]
        g = m2_metric(1, 1, 1)
        assert [lv.dim for lv in g.levels] == [1, 4]

    @pytest.mark.parametrize("abc", [(1, 2, 3), (1, 2, 2), (2, 2, 3), (1, 1, 1), (0.5, 1.0, 1.2)])
    def test_canonicalize_round_trip(self, abc, rng):
        a, b, c = abc
        f = m2_metric(a, b, c)
        w = random_unitary(2, rng)
        fc = conjugated(f, w)
        aa, bb, cc, u = canonicalize_m2(fc)
        assert (aa, bb, cc) == pytest.approx((a, b, c), abs=1e-8)
        # the returned unitary carries the conjugated chain back to canonical
        target = m2_metric(a, b, c)
        for lv, t in zip(fc.levels, fc.breakpoints):
            moved = span([u.conj().T @ mat @ u for mat in lv.basis], 2)
            assert moved.equals(target.value_at(t))

    @pytest.mark.parametrize("form", ["aac", "acc", "aaa", "0aa"])
    def test_collapsed_chains_round_trip_under_random_conjugation(self, form, rng):
        """(a, a, c) has no dim-2 level, so its diagonal direction comes from the
        dim-3 plane; every form gives back its parameters and a unitary that
        passes the final check of the canonical chain."""
        for _ in range(25):
            a = rng.uniform(0.5, 2.0)
            c = a * rng.uniform(1.0, 2.0)
            abc = {"aac": (a, a, c), "acc": (a, c, c), "aaa": (a, a, a), "0aa": (0.0, a, a)}[form]
            fc = conjugated(m2_metric(*abc), random_unitary(2, rng))
            assert canonicalize_m2(fc)[:3] == pytest.approx(abc, abs=1e-12)

    def test_reflexivity_flag(self):
        from qwmetric.constructions import reflexivity_flag_m2

        assert not reflexivity_flag_m2(1, 2, 3)
        assert reflexivity_flag_m2(1, 2, 2)

    def test_wrong_ambient_rejected(self, rng):
        f = random_step_filtration(3, rng)
        with pytest.raises(NotCanonicalizable):
            canonicalize_m2(f)


class TestCoLipschitz:
    def test_identity_morphism(self, rng):
        d = random_metric(3, rng)
        f, ctx = from_classical(d)
        assert co_lipschitz_number(f, f, 1, np.eye(3), np.eye(3), ctx) == 1.0

    def test_each_level_of_f_is_embedded_once(self, rng, monkeypatch):
        """The grade blocks of f are embedded once and grown into one graded
        basis: one growth step per grade of f and no span of a whole level."""
        import qwmetric.constructions as constructions
        import qwmetric.filtration as filtration

        f, ctx = from_classical(random_metric(4, rng))
        spans, steps = [], []
        monkeypatch.setattr(constructions, "span", lambda *a, **k: spans.append(a) or span(*a, **k))
        grow = filtration._extend
        monkeypatch.setattr(filtration, "_extend", lambda *a: steps.append(a) or grow(*a))
        assert co_lipschitz_number(f, f, 1, np.eye(4), np.eye(4), ctx) == 1.0
        assert len(f.breakpoints) == 7 and len(steps) == 7 and not spans

    @pytest.mark.parametrize("seed", range(4))
    def test_classical_composition_equals_function_lipschitz(self, seed):
        rng = np.random.default_rng(seed)
        nx, ny = 3, 4
        dx = random_metric(nx, rng)
        dy = random_metric(ny, rng)
        fx, ctx = from_classical(dx)
        fy, _ = from_classical(dy)
        fmap = [int(v) for v in rng.integers(0, nx, size=ny)]
        # carrier: U e_y = e_{slot(y)} (x) e_{f(y)} with per-fiber slots
        slots = {}
        counters = {}
        for y, x in enumerate(fmap):
            slots[y] = counters.get(x, 0)
            counters[x] = slots[y] + 1
        k = max(counters.values())
        u = np.zeros((k * nx, ny), dtype=complex)
        for y, x in enumerate(fmap):
            u[slots[y] * nx + x, y] = 1.0
        r = u @ u.conj().T
        got = co_lipschitz_number(fx, fy, k, r, u, ctx)
        expected = max(
            (dx[fmap[y1], fmap[y2]] / dy[y1, y2] for y1 in range(ny) for y2 in range(ny) if dy[y1, y2] > 0),
            default=0.0,
        )
        assert got == pytest.approx(expected, abs=1e-9)

    def test_truncation_identity_carrier(self, rng):
        # identity morphism from the untruncated metric onto its truncation
        d = random_metric(3, rng)
        f, ctx = from_classical(d)
        c = float(np.median(d[d > 0]))
        g = truncate(f, c)
        got = co_lipschitz_number(f, g, 1, np.eye(3), np.eye(3), ctx)
        expected = max(t / min(t, c) for t in f.breakpoints if t > 0)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_carrier_inside_the_accepted_slack(self):
        """U is within membership_tol of an isometry and UU* within 10 tol of
        R = E_00 (x) I, so phi is multiplicative only up to what those
        premises allow (about 1.75 tol here); the number is still returned."""
        cfg = NumericConfig(membership_tol=1e-3)
        f = m2_graded([0, 1, 2], "IZXY", [1, 2, 4])
        ctx = MetricContext.full(2)
        e0, e1 = np.eye(2)[:, :1], np.eye(2)[:, 1:]
        r = np.kron(e0 @ e0.T, I2)
        tilt, shrink = 9.4e-3, 0.99e-3
        u = (np.kron(e0, I2) + tilt * np.kron(e1, REAL_OFF)) * math.sqrt((1 - shrink) / (1 + tilt**2))
        assert np.linalg.norm(u.conj().T @ u - I2, 2) <= cfg.membership_tol
        assert np.linalg.norm(u @ u.conj().T - r, 2) <= 10 * cfg.membership_tol
        assert co_lipschitz_number(f, f, 2, r, u, ctx, cfg) == co_lipschitz_number(f, f, 2, r, np.kron(e0, I2), ctx, cfg)

    def test_composition_bound(self, rng):
        # L(psi o phi) <= L(psi) L(phi) for classical compositions
        d1 = random_metric(2, rng)
        d2 = random_metric(3, rng)
        d3 = random_metric(4, rng)
        f1, ctx1 = from_classical(d1)
        f2, ctx2 = from_classical(d2)
        f3, _ = from_classical(d3)

        def carrier(fmap, nx):
            slots, counters = {}, {}
            for y, x in enumerate(fmap):
                slots[y] = counters.get(x, 0)
                counters[x] = slots[y] + 1
            k = max(counters.values())
            u = np.zeros((k * nx, len(fmap)), dtype=complex)
            for y, x in enumerate(fmap):
                u[slots[y] * nx + x, y] = 1.0
            return k, u @ u.conj().T, u

        fmap_21 = [0, 1, 0]       # X2 -> X1
        fmap_32 = [0, 2, 1, 1]    # X3 -> X2
        k1, r1, u1 = carrier(fmap_21, 2)
        k2, r2, u2 = carrier(fmap_32, 3)
        l_phi = co_lipschitz_number(f1, f2, k1, r1, u1, ctx1)
        l_psi = co_lipschitz_number(f2, f3, k2, r2, u2, ctx2)
        comp = [fmap_21[fmap_32[y]] for y in range(4)]
        k3, r3, u3 = carrier(comp, 2)
        l_comp = co_lipschitz_number(f1, f3, k3, r3, u3, ctx1)
        assert l_comp <= l_psi * l_phi + 1e-9


class TestProductSubobjectInterplay:
    def test_factors_embed_as_metric_subobjects(self, rng):
        da = random_metric(2, rng)
        db = random_metric(2, rng)
        fa, _ = from_classical(da)
        fb, _ = from_classical(db)
        prod = metric_product(fa, fb)
        ctx4 = MetricContext.diagonal(4)
        # the subalgebra M (x) I inside the product
        mats = [np.kron(basis_state_projection(2, i), np.eye(2)) for i in range(2)]
        sub = VNAlgebra(4, span(mats, 4).basis)
        so = subobject(prod, sub, ctx4)
        # the subobject metric matches fa tensor-extended: distances between
        # the embedded projections agree with da
        for x in range(2):
            for y in range(2):
                p = AmplifiedProjection.base(mats[x])
                q = AmplifiedProjection.base(mats[y])
                assert rho(so, p, q) == da[x, y]
