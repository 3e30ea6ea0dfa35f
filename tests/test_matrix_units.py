"""Classical filtrations hold their basis as matrix units (MatrixUnits), and
the queries read the labels.  Every label answer is checked here against the
dense path, the same filtration over the written-out units."""

import math

import numpy as np
import pytest

from qwmetric import (
    AmplifiedProjection,
    AscentBudget,
    StepFiltration,
    commutation_lipschitz_lower,
    from_classical,
    probes_for_level,
    rebuild_level,
    rho,
    spectral_lipschitz,
    to_classical,
)
from qwmetric.filtration import MatrixUnits
from qwmetric.numerics import random_hermitian

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
    units = f._units
    assert isinstance(units, MatrixUnits) and dense._units is None
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
