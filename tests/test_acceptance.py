"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the suite asserts every stated tolerance.
"""

import math
import sys
import time

import numpy as np
import pytest

from qwmetric import (
    AmplifiedProjection,
    MetricContext,
    descriptors,
    from_classical,
    probes_for_level,
    rebuild_level,
    rho,
    span,
    to_classical,
    validate,
)
from qwmetric.codes import hamming_filtration, hamming_level_dimension, kl_check, min_distance, QuantumCode, volume_bound
from qwmetric.constructions import (
    canonicalize_m2,
    direct_sum,
    lp_product,
    m2_metric,
    meet,
    metric_product,
    operator_system_metric,
    truncate,
    TimedGenerators,
    generated_filtration,
)
from qwmetric.errors import ConstraintViolation
from qwmetric.lipschitz import (
    AscentBudget,
    commutation_lipschitz_lower,
    distance_operator,
    spectral_join,
    spectral_lipschitz,
)
from qwmetric.numerics import random_hermitian, random_unitary, range_projection, spectral_projection, hermitian_eig

from conftest import (
    I2,
    IMAG_OFF,
    REAL_OFF,
    basis_state_projection,
    bfs_distances,
    brute_lipschitz,
    conjugated,
    graph_relation_span,
    indicator_projection,
    m2_graded,
    random_metric,
    random_step_filtration,
)


def announce(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}", file=sys.__stderr__)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_m2_classification():
    start = time.time()
    ok = True
    # exactly the ordered triples with c <= a + b are accepted
    for triple in [(1, 2, 3), (0, 1, 1), (2, 2, 2), (0.5, 0.7, 1.1)]:
        m2_metric(*triple)
    for triple in [(1, 1, 3), (2, 1, 2), (3, 2, 1), (1, 2, 3.5)]:
        try:
            m2_metric(*triple)
            ok = False
        except ConstraintViolation:
            pass
    rng = np.random.default_rng(101)
    for a, b, c in [(1, 2, 3), (1, 1, 2), (0.5, 1.5, 2.0), (2, 2, 2)]:
        w = random_unitary(2, rng)
        aa, bb, cc, _ = canonicalize_m2(conjugated(m2_metric(a, b, c), w))
        ok = ok and max(abs(aa - a), abs(bb - b), abs(cc - c)) < 1e-8
    elapsed = time.time() - start
    ok = ok and elapsed < 1.0
    announce(1, ok, f"M_2 classification and unitary round trip ({elapsed:.2f}s)")


def countersum_filtration(n):
    """Parameters (2/n, 1, 1): the diagonal direction enters at 2/n, the
    off-diagonal directions at 1 (the construction requires 2/n <= 1)."""
    a = 2.0 / n
    if a < 1.0:
        return m2_graded([0, a, 1], "IZXY", [1, 2, 4])
    if a == 1.0:
        return m2_graded([0, 1], "IZXY", [1, 4])
    # unsorted parameters (n = 1): gauge assignment D(diag) = 2, D(off) = 1
    return m2_graded([0, 1, 2], "IXYZ", [1, 3, 4])


@pytest.mark.parametrize(
    "n",
    [
        pytest.param(
            1,
            marks=pytest.mark.xfail(
                strict=True,
                reason="unattainable at n=1: the stated metric (2, 1, 1) violates the"
                " ordering a <= b that the family is built under, and no gauge"
                " assignment of {2, 1, 1} to the three directions yields"
                " L_s((1/n) ones) = 1 (the pair of spectral projections of the"
                " all-ones matrix is linked by a direction of gauge value 1, making"
                " L_s = 2); see the design notes",
            ),
        ),
        2,
        5,
        10,
        100,
    ],
)
def test_criterion_02_countersum_exactness(n):
    start = time.time()
    f = countersum_filtration(n)
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.ones((2, 2), dtype=complex) / n
    ls_a = spectral_lipschitz(f, a).value
    ls_b = spectral_lipschitz(f, b).value
    ls_sum = spectral_lipschitz(f, a + b).value
    expected = math.sqrt(n * n + 4) / 2
    ok = abs(ls_a - 1.0) < 1e-9 and abs(ls_b - 1.0) < 1e-9 and abs(ls_sum - expected) < 1e-9
    elapsed = time.time() - start
    ok = ok and elapsed < 1.0
    announce(2, ok, f"countersum exactness at n={n} ({elapsed:.2f}s)")


def test_criterion_03_counterexample_pair():
    system = span([I2, REAL_OFF, IMAG_OFF])  # traceless against the diagonal direction
    f = operator_system_metric(system)
    ok = descriptors(f)["diameter"] == 2.0
    rng = np.random.default_rng(103)
    for _ in range(25):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        w = np.array([-np.conj(v[1]), np.conj(v[0])])
        p = AmplifiedProjection.base(np.outer(v, v.conj()))
        q = AmplifiedProjection.base(np.outer(w, w.conj()))
        ok = ok and rho(f, p, q) == 1.0
    va = operator_system_metric(span([I2, REAL_OFF]))
    vb = operator_system_metric(span([I2, IMAG_OFF]))
    p = AmplifiedProjection.base(np.diag([1.0, 0.0]))
    q = AmplifiedProjection.base(np.diag([0.0, 1.0]))
    ok = ok and rho(va, p, q) == 1.0 and rho(vb, p, q) == 1.0
    ok = ok and rho(meet([va, vb]), p, q) == 2.0
    announce(3, ok, "operator-system diameter/distance gap and meet counterexample")


def test_criterion_04_classical_round_trip():
    start = time.time()
    rng = np.random.default_rng(104)
    ok = True
    for trial in range(200):
        n = int(rng.integers(2, 9))
        d = random_metric(n, rng)
        f, ctx = from_classical(d)
        ok = ok and np.array_equal(to_classical(f, ctx), d)
        points = [AmplifiedProjection.base(basis_state_projection(n, x)) for x in range(n)]
        for x in range(n):
            for y in range(n):
                ok = ok and rho(f, points[x], points[y]) == d[x, y]
        # indicator projections: minimum pairwise distance
        s = sorted(rng.choice(n, size=max(1, n // 2), replace=False).tolist())
        t = sorted(rng.choice(n, size=max(1, n // 3), replace=False).tolist())
        expected = min(d[x, y] for x in s for y in t)
        ok = ok and rho(
            f,
            AmplifiedProjection.base(indicator_projection(n, s)),
            AmplifiedProjection.base(indicator_projection(n, t)),
        ) == expected
        fv = rng.uniform(-2, 2, n)
        lip = brute_lipschitz(fv, d)
        mf = np.diag(fv).astype(complex)
        ok = ok and abs(spectral_lipschitz(f, mf).value - lip) < 1e-8
        lc = commutation_lipschitz_lower(f, mf, budget=AscentBudget.deterministic())
        ok = ok and abs(lc.value - lip) < 1e-8
        if not ok:
            break
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    announce(4, ok, f"200 classical round trips with distances and Lipschitz numbers ({elapsed:.1f}s)")


def test_criterion_05_graph_bfs_equivalence():
    rng = np.random.default_rng(105)
    ok = True
    for trial in range(100):
        n = int(rng.integers(2, 9))
        adj = np.triu(rng.random((n, n)) < rng.uniform(0.2, 0.7), 1)
        adj = adj | adj.T
        ctx = MetricContext.diagonal(n)
        f = generated_filtration(
            TimedGenerators(ctx.commutant, [(1.0, graph_relation_span(adj))])
        )
        ok = ok and np.array_equal(to_classical(f, ctx), bfs_distances(adj))
        if not ok:
            break
    announce(5, ok, "100 generated graph filtrations reproduce BFS distances exactly")


def test_criterion_06_hamming_geometry():
    ok = True
    for n in range(1, 5):
        h = hamming_filtration(n, 2)
        dims = [lv.dim for lv in h.levels]
        ok = ok and dims == [hamming_level_dimension(n, 2, t) for t in range(n + 1)]
        ok = ok and dims == [
            sum(math.comb(n, j) * 3 ** j for j in range(t + 1)) for t in range(n + 1)
        ]
        size = 2 ** n
        for x in range(size):
            for y in range(size):
                p = AmplifiedProjection.base(basis_state_projection(size, x))
                q = AmplifiedProjection.base(basis_state_projection(size, y))
                ok = ok and rho(h, p, q) == bin(x ^ y).count("1")
        if not ok:
            break
    # l^1 powers of the single-site metric
    h1 = hamming_filtration(1, 2)
    power = h1
    for n in (2, 3):
        power = lp_product(power, h1, 1.0)
        hn = hamming_filtration(n, 2)
        ok = ok and power.breakpoints == hn.breakpoints
        ok = ok and all(a.dim == b.dim and a.equals(b) for a, b in zip(power.levels, hn.levels))
    announce(6, ok, "Hamming distances, combinatorial level dimensions, l^1 powers")


def test_criterion_07_qec_audit():
    h3 = hamming_filtration(3, 2)
    p = np.zeros((8, 8), dtype=complex)
    p[0, 0] = p[7, 7] = 1.0
    code = QuantumCode(p, h3)
    report = kl_check(code, 1)
    ok = not report.detects
    # Z_1 is an explicit witness
    z1 = np.kron(np.diag([1.0, -1.0]), np.eye(4)).astype(complex) / (2 * math.sqrt(2))
    lv1 = h3.value_at(1)
    idx = next(i for i, b in enumerate(lv1.basis) if np.allclose(b, z1))
    ok = ok and report.residuals[idx] > 0.1
    ok = ok and min_distance(code) == 1.0
    rng = np.random.default_rng(107)
    checked = 0
    for _ in range(40):
        n_sites = int(rng.integers(2, 4))
        h = hamming_filtration(n_sites, 2)
        dim = 2 ** n_sites
        r = int(rng.integers(1, 3))
        v = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
        candidate = QuantumCode(range_projection(v), h)
        for k in range(n_sites + 1):
            if kl_check(candidate, k).detects:
                checked += 1
                ok = ok and volume_bound(candidate, k).holds
    ok = ok and checked >= 40  # the corpus actually exercises the bound
    announce(7, ok, f"repetition-code audit and volume bound over {checked} passing codes")


def test_criterion_08_gauge_and_probe_inversion():
    start = time.time()
    rng = np.random.default_rng(108)
    ok = True
    for trial in range(50):
        n = int(rng.integers(2, 5))
        f = random_step_filtration(n, rng, classical=bool(trial % 2))
        # gauge inversion over the basis grid plus random mixtures
        probes = []
        for lv in f.levels:
            probes.extend(list(lv.basis))
            if lv.dim:
                w = rng.standard_normal(lv.dim) + 1j * rng.standard_normal(lv.dim)
                probes.append(np.tensordot(w, lv.basis, axes=(0, 0)))
        for t, lv in zip(f.breakpoints, f.levels):
            kept = [m for m in probes if f.displacement_gauge(m) <= t]
            ok = ok and span(kept, f.n).equals(lv)
        # separation-probe inversion
        for t, lv in zip(f.breakpoints, f.levels):
            got = rebuild_level(f, t, probes_for_level(f, t))
            ok = ok and got.equals(lv)
        if not ok:
            break
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    announce(8, ok, f"50 filtrations inverted from gauge and separation probes ({elapsed:.1f}s)")


def _compression_transform(a, bm, nm):
    """The positive transform with spectral data [B P_(s,inf)(A)]."""
    values, _ = hermitian_eig(a)
    thresholds = sorted(set(values))
    out = np.zeros((nm, nm), dtype=complex)
    prev = 0.0
    for t in thresholds:
        if t <= 0:
            continue
        mid = (prev + t) / 2
        upper = np.eye(nm) - spectral_projection(a, "le", mid)
        out = out + (t - prev) * range_projection(bm @ upper)
        prev = t
    return out


def test_criterion_09_lipschitz_order_and_axioms():
    rng = np.random.default_rng(109)
    ok = True
    for trial in range(100):
        n = int(rng.integers(2, 5))
        f = random_step_filtration(n, rng, classical=bool(trial % 2))
        a = random_hermitian(n, rng)
        ls = spectral_lipschitz(f, a).value
        lc = commutation_lipschitz_lower(f, a, budget=AscentBudget(restarts=2, steps=40), seed=trial)
        if math.isfinite(ls):
            ok = ok and lc.value <= ls + 1e-6
            # gauge axioms (i) translation and (ii) homogeneity
            ok = ok and abs(spectral_lipschitz(f, a + np.eye(n)).value - ls) < 1e-8
            ok = ok and abs(spectral_lipschitz(f, -1.5 * a).value - 1.5 * ls) < 1e-8
        # axiom (iii): joins
        a2 = random_hermitian(n, rng)
        ls2 = spectral_lipschitz(f, a2).value
        lj = spectral_lipschitz(f, spectral_join(a, a2)).value
        if math.isfinite(ls) and math.isfinite(ls2):
            ok = ok and lj <= max(ls, ls2) + 1e-8
        # axiom (iv): range-transform compressions of positive operators
        m = 2
        pos = random_hermitian(n * m, rng)
        pos = pos + (abs(min(np.linalg.eigvalsh(pos))) + 0.1) * np.eye(n * m)
        bm = np.kron(np.eye(n), rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        lpos = spectral_lipschitz(f, pos, amp_degree=m).value
        ltrans = spectral_lipschitz(f, _compression_transform(pos, bm, n * m), amp_degree=m).value
        if math.isfinite(lpos):
            ok = ok and ltrans <= lpos + 1e-8
        # the distance operator always carries spectral Lipschitz number <= 1
        x = int(rng.integers(0, n))
        r = AmplifiedProjection.base(basis_state_projection(n, x))
        c = float(rng.uniform(0.3, f.breakpoints[-1] + 0.5))
        prof = distance_operator(f, r, c)
        ok = ok and spectral_lipschitz(f, prof).value <= 1 + 1e-8
        if not ok:
            break
    announce(9, ok, "100 random pairs: ordering, gauge axioms, distance-operator bound")


def test_criterion_10_construction_formulas():
    rng = np.random.default_rng(110)
    ok = True
    # truncation: rho = min(rho, C) on linkable pairs
    for trial in range(50):
        n = int(rng.integers(2, 5))
        f = random_step_filtration(n, rng, classical=bool(trial % 2))
        c = float(rng.uniform(0.2, f.breakpoints[-1] + 0.5))
        t = truncate(f, c)
        i, j = rng.integers(0, n, size=2)
        p = AmplifiedProjection.base(basis_state_projection(n, int(i)))
        q = AmplifiedProjection.base(basis_state_projection(n, int(j)))
        r = rho(f, p, q)
        if math.isfinite(r):
            ok = ok and abs(rho(t, p, q) - min(r, c)) < 1e-9
    # direct sums: blockwise minimum
    for _ in range(50):
        da = random_metric(2, rng)
        db = random_metric(2, rng)
        fa, _ = from_classical(da)
        fb, _ = from_classical(db)
        s = direct_sum(fa, fb)
        p = AmplifiedProjection.base(indicator_projection(4, [0, 2]))
        q = AmplifiedProjection.base(indicator_projection(4, [1, 3]))
        ok = ok and abs(rho(s, p, q) - min(da[0, 1], db[0, 1])) < 1e-9
    # metric product of classical factors is the max metric
    for _ in range(50):
        na, nb = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        da = random_metric(na, rng)
        db = random_metric(nb, rng)
        fa, _ = from_classical(da)
        fb, _ = from_classical(db)
        prod = metric_product(fa, fb)
        dp = to_classical(prod, MetricContext.diagonal(na * nb))
        for x1 in range(na):
            for y1 in range(nb):
                for x2 in range(na):
                    for y2 in range(nb):
                        ok = ok and abs(
                            dp[nb * x1 + y1, nb * x2 + y2] - max(da[x1, x2], db[y1, y2])
                        ) < 1e-9
    # the product is a metric exactly when both factors are
    for trial in range(50):
        make_metric = (bool(trial % 2), bool((trial // 2) % 2))
        factors = []
        for is_metric in make_metric:
            n = int(rng.integers(2, 4))
            d = random_metric(n, rng)
            if not is_metric:
                d[0, 1] = d[1, 0] = 0.0
                for k in range(n):  # restore the triangle inequality
                    d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
            factors.append(from_classical(d)[0])
        prod = metric_product(*factors)
        rep = validate(prod, MetricContext.diagonal(prod.n))
        ok = ok and rep.is_pseudometric
        ok = ok and rep.is_metric == all(make_metric)
    announce(10, ok, "truncation, direct-sum, product formulas on randomized instances")
