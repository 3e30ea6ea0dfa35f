"""Classical filtrations hold their basis as matrix units (MatrixUnits), and
the queries, validate, descriptors and the constructions read the labels.
Every label answer is checked here against the dense path, the same
filtration over the written-out units."""

import math

import numpy as np
import pytest

from qwmetric import (
    AmplifiedProjection,
    AscentBudget,
    MetricContext,
    StepFiltration,
    commutation_lipschitz_lower,
    descriptors,
    from_classical,
    probes_for_level,
    rebuild_level,
    rho,
    spectral_lipschitz,
    to_classical,
    validate,
)
from qwmetric.constructions import direct_sum, lp_product, metric_product, truncate
from qwmetric.filtration import MatrixUnits, ValidationReport, _product_reach, _spans
from qwmetric.numerics import NumericConfig, random_hermitian

from conftest import indicator_projection

SEEDS = range(24)


def classical_metric(rng):
    """A random pseudometric on n = 2..10 points with ties (integer weights),
    zero off-diagonal distances (points glued into groups) and, for some
    seeds, +inf between components."""
    n = int(rng.integers(2, 11))
    groups = rng.integers(0, max(1, n - int(rng.integers(0, 3))), size=n)
    g = groups.max() + 1
    raw = rng.integers(1, 4, size=(g, g)).astype(float)
    d = np.minimum(raw, raw.T)
    np.fill_diagonal(d, 0.0)
    for k in range(g):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    comps = rng.integers(0, 1 + int(rng.integers(0, 3)), size=g)
    d[comps[:, None] != comps[None]] = math.inf
    return d[groups][:, groups]


def pair(rng, n, m):
    """Projections onto random subspaces of C^n (x) C^m whose vectors are supported
    on two random point sets, so that some blocks of P and Q vanish."""
    out = []
    for _ in range(2):
        points = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        v = np.zeros((n, m, int(rng.integers(1, m + 1))), dtype=complex)
        v[points] = rng.standard_normal((len(points), m, v.shape[2])) + 1j * rng.standard_normal((len(points), m, v.shape[2]))
        q, _ = np.linalg.qr(v.reshape(n * m, -1))
        out.append(AmplifiedProjection(n, m, q @ q.conj().T))
    return out


def with_oracle(seed):
    rng = np.random.default_rng(seed)
    d = classical_metric(rng)
    f, ctx = from_classical(d)
    return rng, d, f, ctx, StepFiltration.from_graded(f.n, f.breakpoints, f.basis, f.cuts)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_labels_are_the_written_out_units(seed):
    rng, d, f, _, dense = with_oracle(seed)
    units = f._graded
    assert isinstance(units, MatrixUnits) and not isinstance(dense._graded, MatrixUnits)
    n, k = f.n, f.cuts[-1]
    assert k == np.isfinite(d).sum()
    np.testing.assert_array_equal(d[units.rows, units.cols], f.times)
    x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    v, w = (rng.standard_normal((n, c)) + 1j * rng.standard_normal((n, c)) for c in (2, 4))
    for lo, hi in [(0, k), (0, 1), (k // 3, k), (k // 2, k // 2)]:
        np.testing.assert_array_equal(f.apply(lo, hi, x), dense.basis[lo:hi] @ x)
        np.testing.assert_allclose(f.compress(lo, hi, v, w), v.conj().T @ (dense.basis[lo:hi] @ w), rtol=1e-15, atol=0)
    assert [f.element_norm(i) for i in range(k)] == [dense.element_norm(i) for i in range(k)] == [1.0] * k


@pytest.mark.parametrize("seed", SEEDS)
def test_rho_reads_the_labels(seed):
    rng, d, f, _, dense = with_oracle(seed)
    n = f.n
    points = [AmplifiedProjection.base(indicator_projection(n, [x])) for x in range(n)]
    for x in range(n):
        for y in range(n):
            assert rho(f, points[x], points[y]) == rho(dense, points[x], points[y]) == d[x, y]
    for _ in range(3):
        s, t = (rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False) for _ in range(2))
        p, q = (AmplifiedProjection.base(indicator_projection(n, sorted(u))) for u in (s, t))
        assert rho(f, p, q) == rho(dense, p, q) == d[np.ix_(s, t)].min()
    for m in (2, 3):
        for _ in range(3):
            p, q = pair(rng, n, m)
            assert rho(f, p, q) == rho(dense, p, q)
            assert rho(f, p, points[0]) == rho(dense, p, points[0])
        # I (x) (1 - B) and I (x) B for a random projection B: every compression vanishes, with
        # generic slot vectors, so Grams of the blocks would cancel only to about eps
        u = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0][:, : int(rng.integers(1, m))]
        b = u @ u.conj().T
        p, q = (AmplifiedProjection(n, m, np.kron(np.eye(n), c)) for c in (np.eye(m) - b, b))
        assert rho(f, p, q) == rho(dense, p, q) == math.inf


@pytest.mark.parametrize("seed", SEEDS)
def test_lipschitz_numbers_read_the_labels(seed):
    rng, d, f, _, dense = with_oracle(seed)
    n = f.n
    for a in (np.diag(rng.uniform(-2, 2, n)).astype(complex), random_hermitian(n, rng)):
        got, want = spectral_lipschitz(f, a), spectral_lipschitz(dense, a)
        assert got.value == want.value
        assert got.witness["pair"] == want.witness["pair"] and got.witness["rho"] == want.witness["rho"]
        got, want = (commutation_lipschitz_lower(g, a, budget=AscentBudget.deterministic()) for g in (f, dense))
        assert got.value == want.value and got.witness["t"] == want.witness["t"]
        if want.witness["contraction"] is None:
            assert got.witness["contraction"] is None
        else:
            np.testing.assert_array_equal(got.witness["contraction"], want.witness["contraction"])
    a = np.kron(np.diag(rng.uniform(-2, 2, n)), random_hermitian(2, rng))
    assert spectral_lipschitz(f, a, amp_degree=2).value == spectral_lipschitz(dense, a, amp_degree=2).value


@pytest.mark.parametrize("seed", SEEDS)
def test_to_classical_and_the_gauge_read_the_labels(seed):
    rng, d, f, ctx, dense = with_oracle(seed)
    n = f.n
    np.testing.assert_array_equal(to_classical(f, ctx), to_classical(dense, ctx))
    np.testing.assert_array_equal(to_classical(f, ctx), d)
    # level members, their random combinations, matrices outside the top, a huge one
    mats = [dense.basis[i] for i in range(f.cuts[-1])]
    mats += [np.tensordot(rng.standard_normal(c), dense.basis[:c], axes=(0, 0)) for c in f.cuts if c]
    mats += [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)]
    mats += [1e300 * mats[-1]]
    assert [f.displacement_gauge(a) for a in mats] == [dense.displacement_gauge(a) for a in mats]
    bad = np.zeros((n, n), dtype=complex)
    bad[0, -1] = math.inf
    assert f.displacement_gauge(bad) == dense.displacement_gauge(bad) == math.inf


@pytest.mark.parametrize("seed", SEEDS[::3])
def test_probes_read_the_labels(seed):
    rng, d, f, _, dense = with_oracle(seed)
    for t in f.breakpoints:
        got, want = probes_for_level(f, t), probes_for_level(dense, t)
        assert len(got) == len(want)
        for (p, q), (p0, q0) in zip(got, want):
            assert (p.m, q.m) == (p0.m, q0.m)
            np.testing.assert_allclose(p.matrix, p0.matrix, rtol=0, atol=1e-12)
            np.testing.assert_allclose(q.matrix, q0.matrix, rtol=0, atol=1e-12)
        level = rebuild_level(f, t, got)
        assert level.equals(rebuild_level(dense, t, want))
        assert level.dim == f.cuts[f.level_index_at(t)]


def test_a_queries_job_never_writes_the_units_out(monkeypatch):
    """Distances, the round trip and both Lipschitz numbers of a classical
    metric, and its gauges, read the labels: no dense unit stack is formed,
    and the gauges do not apply the units either."""
    calls = []
    for name in ("dense", "apply"):
        method = getattr(MatrixUnits, name)
        monkeypatch.setattr(MatrixUnits, name, lambda self, *a, name=name, method=method: calls.append(name) or method(self, *a))
    rng = np.random.default_rng(7)
    for _ in range(4):
        d = classical_metric(rng)
        n = d.shape[0]
        f, ctx = from_classical(d)
        to_classical(f, ctx)
        points = [AmplifiedProjection.base(indicator_projection(n, [x])) for x in range(n)]
        [rho(f, points[x], points[y]) for x in range(n) for y in range(n)]
        rho(*[f] + pair(rng, n, 2))
        a = np.diag(rng.uniform(-2, 2, n)).astype(complex)
        spectral_lipschitz(f, a)
        commutation_lipschitz_lower(f, a, budget=AscentBudget.deterministic())
        assert "dense" not in calls
        calls.clear()
        [f.displacement_gauge(random_hermitian(n, rng)) for _ in range(3)]
        assert calls == []
    assert f._basis is None


# ------------------------------------------------ validate and descriptors on labels

# membership_tol 1e-9, 0.5, 1 and 2 (at 1 and past it every unit lies in level 0),
# with rank rules that keep no exact tie between square roots of hit counts
CONFIGS = [
    NumericConfig(rank_tol=1e-9, membership_tol=1e-9, eig_cluster_tol=1e-9),
    NumericConfig(rank_tol=0.1, membership_tol=0.5, eig_cluster_tol=1e-6),
    NumericConfig(rank_tol=0.1, membership_tol=1.0, eig_cluster_tol=1e-6),
    NumericConfig(rank_tol=0.4, membership_tol=2.0, eig_cluster_tol=1e-6),
]


def dense_twin(f):
    """The same filtration over the written-out units: the dense path."""
    twin = StepFiltration.from_graded(f.n, f.breakpoints, f.basis, f.cuts)
    assert not isinstance(twin._graded, MatrixUnits)
    return twin


def assert_dense_answers(f, ctx=None):
    """validate (exact violation lists), the reach table and descriptors of
    the labels equal the dense path's under every config."""
    assert isinstance(f._graded, MatrixUnits)
    dense = dense_twin(f)
    for cfg in CONFIGS:
        assert validate(f, ctx, cfg) == validate(dense, ctx, cfg)
        np.testing.assert_array_equal(_product_reach(f, cfg), _product_reach(dense, cfg))
        assert descriptors(f, cfg) == descriptors(dense, cfg)


def units_filtration(n, steps):
    """A filtration of matrix units from (t, [(x, y), ...]) steps."""
    labels = np.array([xy for _, units in steps for xy in units], dtype=np.intp).reshape(-1, 2)
    cuts = np.cumsum([len(units) for _, units in steps]).tolist()
    return StepFiltration.from_graded(n, [t for t, _ in steps], MatrixUnits(n, labels[:, 0], labels[:, 1]), cuts)


@pytest.mark.parametrize("seed", SEEDS)
def test_validate_and_descriptors_read_the_labels(seed):
    rng, d, f, ctx, _ = with_oracle(seed)
    assert validate(f, ctx) == ValidationReport(True, True, f.cuts[0] == f.n, [])
    assert_dense_answers(f, ctx)
    assert_dense_answers(f, MetricContext.full(f.n))


@pytest.mark.parametrize("seed", SEEDS[::4])
def test_truncations_keep_their_labels(seed):
    rng, d, f, ctx, dense = with_oracle(seed)
    finite = sorted({float(v) for v in d[np.isfinite(d)]})
    for c in finite + [(finite[-1] + finite[0]) / 2, finite[-1] + 1]:
        got = truncate(f, c)
        want, _ = from_classical(np.minimum(d, c))
        assert (got.breakpoints, got.cuts) == (want.breakpoints, want.cuts)
        np.testing.assert_array_equal(got._graded.rows, want._graded.rows)
        np.testing.assert_array_equal(got._graded.cols, want._graded.cols)
        old = truncate(dense, c)
        assert (old.breakpoints, old.cuts) == (got.breakpoints, got.cuts)
        assert all(a.equals(b) for a, b in zip(got.levels, old.levels))
        assert_dense_answers(got, ctx)


def product_cases(seed):
    rng = np.random.default_rng(1000 + seed)
    fs = [from_classical(classical_metric(rng)[:m, :m]) for m in (3, 2)]
    return [(f, d) for (f, _), d in zip(fs, (to_classical(f, c) for f, c in fs))]


@pytest.mark.parametrize("seed", SEEDS[::3])
def test_products_and_direct_sums_keep_their_labels(seed):
    (f, df), (g, dg) = product_cases(seed)
    n, k = f.n, g.n
    metrics = {
        "max": np.maximum(df[:, None, :, None], dg[None, :, None, :]).reshape(n * k, n * k),
        "sum": np.add(df[:, None, :, None], dg[None, :, None, :]).reshape(n * k, n * k),
    }
    made = [
        (metric_product(f, g), metric_product(dense_twin(f), dense_twin(g)), metrics["max"]),
        (lp_product(f, g, 1), lp_product(dense_twin(f), dense_twin(g), 1), metrics["sum"]),
    ]
    block = np.full((n + k, n + k), math.inf)
    block[:n, :n], block[n:, n:] = df, dg
    made.append((direct_sum(f, g), direct_sum(dense_twin(f), dense_twin(g)), block))
    if np.isfinite(df).all() and np.isfinite(dg).all():
        r = max(df.max(), dg.max())
        bridged = np.where(np.isinf(block), r, block)
        made.append((direct_sum(f, g, r), direct_sum(dense_twin(f), dense_twin(g), r), bridged))
    for got, old, d in made:
        assert isinstance(got._graded, MatrixUnits)
        assert (got.breakpoints, got.cuts) == (old.breakpoints, old.cuts)
        np.testing.assert_array_equal(got.basis, old.basis)
        ctx = MetricContext.diagonal(got.n)
        np.testing.assert_array_equal(to_classical(got, ctx), d)
        assert_dense_answers(got, ctx)


# the four invalid axioms filtrations written as units, and one past an empty
# zero level, with their violations at the default config
INVALID = {
    "non-unital zero level": (2, [(0.0, [(0, 0)])], [("not_operator_system", 0)]),
    "non-self-adjoint level": (2, [(0.0, [(0, 0), (1, 1)]), (1.0, [(0, 1)])], [("not_operator_system", 1)]),
    "repeated level": (2, [(0.0, [(0, 0), (1, 1)]), (1.0, []), (2.0, [(0, 1), (1, 0)])], [("not_strictly_increasing", 0)]),
    # d(0, 2) = 3 > d(0, 1) + d(1, 2) = 2 breaks V_1 V_1 c V_2
    "triangle-breaking levels": (
        3,
        [(0.0, [(0, 0), (1, 1), (2, 2)]), (1.0, [(0, 1), (1, 0), (1, 2), (2, 1)]), (3.0, [(0, 2), (2, 0)])],
        [("product_law", (1, 1))],
    ),
    # E_01 E_01 = 0: the product pass finds level 0 for a pair of grades past an empty zero level
    "empty zero level": (2, [(0.0, []), (1.0, [(0, 1)])], [("not_operator_system", 0), ("not_operator_system", 1)]),
}


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_unit_filtrations_report_the_dense_violations(name):
    n, steps, violations = INVALID[name]
    f = units_filtration(n, steps)
    assert validate(f).violations == violations
    assert_dense_answers(f)
    assert_dense_answers(f, MetricContext.diagonal(n))


def test_the_triangle_breaking_file_passes_at_unit_tolerance():
    """At membership_tol >= 1 a unit is its own residual within the cutoff, so
    the dense path finds every product in level 0; the labels agree."""
    n, steps, _ = INVALID["triangle-breaking levels"]
    f = units_filtration(n, steps)
    for cfg in CONFIGS[2:]:
        assert validate(f, cfg=cfg) == validate(dense_twin(f), cfg=cfg) == ValidationReport(True, True, True, [])


@pytest.mark.parametrize("seed", SEEDS)
def test_unit_sets_with_units_dropped(seed):
    """Classical filtrations with random units dropped: adjoints, I and
    products leave the levels, as the dense path finds."""
    rng, d, f, ctx, _ = with_oracle(seed)
    keep = rng.random(f.cuts[-1]) < 0.7
    g = StepFiltration.from_times(f.n, f._graded[keep], f.times[keep])
    assert_dense_answers(g)
    assert_dense_answers(g, ctx)
    # a truncation keeps the units below c and adds the missing ones in row-major order
    c = float(rng.choice(g.breakpoints))
    kept = g._graded.entries[g.times < c].tolist()
    got = truncate(g, c)
    assert got._graded.entries.tolist() == kept + [e for e in range(g.n * g.n) if e not in kept]


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_the_path_check_of_each_triple_reads_the_labels(seed):
    """Random unit sets on 3 or 4 points, not symmetric, at random times:
    _spans of every triple of levels equals the dense path's."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 5))
    entries = rng.permutation(n * n)[: int(rng.integers(n, n * n + 1))]
    f = StepFiltration.from_times(n, MatrixUnits(n, entries // n, entries % n), rng.integers(0, 4, len(entries)).astype(float))
    dense = dense_twin(f)
    levels = range(len(f.cuts))
    for cfg in CONFIGS[:2]:
        got = [_spans(f, i, j, k, cfg) for i in levels for j in levels for k in levels]
        assert got == [_spans(dense, i, j, k, cfg) for i in levels for j in levels for k in levels]


def test_product_pairs_are_the_nonzero_products():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        entries = rng.permutation(n * n)[: int(rng.integers(0, n * n + 1))]
        units = MatrixUnits(n, entries // n, entries % n)
        a, b = units.product_pairs()
        dense = units.dense()
        nonzero = [(i, j) for i in range(len(entries)) for j in range(len(entries)) if (dense[i] @ dense[j]).any()]
        assert list(zip(a.tolist(), b.tolist())) == nonzero


def test_validate_descriptors_and_the_writer_never_write_the_units_out(monkeypatch):
    """validate, descriptors and emit_filtration of a unit filtration read
    the labels: the dense stack is never formed and no operator product is
    taken."""
    from qwmetric import opspace
    from qwmetric.cli import emit_filtration

    calls = []
    monkeypatch.setattr(opspace, "_products", lambda *a: calls.append("_products") or iter(()))
    monkeypatch.setattr(MatrixUnits, "dense", lambda self: calls.append("dense"))
    rng = np.random.default_rng(9)
    for _ in range(6):
        f, ctx = from_classical(classical_metric(rng))
        validate(f, ctx)
        validate(f)
        descriptors(f)
        emit_filtration(f)
        direct_sum(f, truncate(f, 1.0))
        assert calls == [] and f._basis is None


def test_a_diagonal_context_takes_no_membership_check(monkeypatch):
    from qwmetric import opspace

    calls = []
    original = opspace.OperatorSubspace.contains_each
    monkeypatch.setattr(opspace.OperatorSubspace, "contains_each", lambda self, *a: calls.append(1) or original(self, *a))
    f, ctx = from_classical(np.array([[0.0, 1.0], [1.0, 0.0]]))
    for c in (ctx, MetricContext.diagonal(2)):
        to_classical(f, c)
    assert calls == []
    alg = MetricContext.diagonal(2).commutant
    assert MetricContext(alg, alg).is_diagonal() and calls
