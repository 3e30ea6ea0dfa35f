"""The three product writers: operator products in _BUDGET blocks
(opspace._products), Kronecker stacks in a given order (opspace.kron_stack)
and B (x) I_m applied by one reshape (StepFiltration._amplified), each
checked against an oracle written apart from it."""

import numpy as np
import pytest

from qwmetric import constructions, filtration, opspace
from qwmetric.codes import block_filtration, hamming_filtration
from qwmetric.constructions import TimedGenerators, generated_filtration
from qwmetric.filtration import MetricContext, StepFiltration, descriptors, from_classical, to_classical, validate
from qwmetric.numerics import random_hermitian
from qwmetric.opspace import VNAlgebra, generated_vn_algebra, kron_stack, scalar_space, span

from conftest import bfs_distances, graph_relation_span, random_metric

# the graphs of the axioms workload: a 5-cycle, a 4-path, a triangle beside a
# 3-path (two components) and a 5-star
GRAPHS = [
    (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    (4, [(0, 1), (1, 2), (2, 3)]),
    (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]),
    (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
]
SMALL_BUDGET = 300


def adjacency(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for x, y in edges:
        adj[x, y] = adj[y, x] = True
    return adj


def graph_generators(n, edges):
    ctx = MetricContext.diagonal(n)
    return TimedGenerators(ctx.commutant, [(1.0, graph_relation_span(adjacency(n, edges)))])


def hermitian_generators(n, seed):
    """Two random Hermitian operator systems at times 1 and 1.7 over the scalars."""
    rng = np.random.default_rng(seed)
    base = VNAlgebra(n, scalar_space(n).basis, verify=False)
    return TimedGenerators(base, [(t, span([np.eye(n), random_hermitian(n, rng)], n)) for t in (1.0, 1.7)])


CASES = [(f"graph{j}", graph_generators(n, e)) for j, (n, e) in enumerate(GRAPHS)]
CASES += [(f"hermitian{n}", hermitian_generators(n, n)) for n in (3, 4, 5)]


def fresh(f):
    """The same filtration with no reach table kept."""
    return StepFiltration.from_graded(f.n, f.breakpoints, f.basis, f.cuts)


def product_results(tg):
    """Everything the product writers feed, on one set of timed generators."""
    f = generated_filtration(tg)
    gens = [g for _, lv in tg.gens for g in lv.basis]
    g = fresh(f)
    report, descr = validate(g), descriptors(g)
    return {
        "filtration": f,
        "report": (report.is_filtration, report.violations),
        "reach": filtration._product_reach(g, filtration.DEFAULT_CONFIG).tolist(),
        "path_flag": descr["path_flag"],
        "algebra": generated_vn_algebra(gens, f.n),
    }


@pytest.mark.parametrize("name, tg", CASES, ids=[c[0] for c in CASES])
def test_a_small_budget_changes_no_result(monkeypatch, name, tg):
    """With _BUDGET a few hundred entries every product stack is cut into
    many blocks, and on the graphs the generated engine hands them to
    _extend in many pieces: the filtration, the validation report, the
    reach table, the path flag, the generated algebra and its verification
    are unchanged."""
    extends = []
    monkeypatch.setattr(constructions, "_extend", lambda *a: extends.append(len(a[1])) or opspace._extend(*a))
    want = product_results(tg)
    default, extends[:] = list(extends), []
    monkeypatch.setattr(opspace, "_BUDGET", SMALL_BUDGET)
    monkeypatch.setattr(constructions, "_BUDGET", SMALL_BUDGET)
    got = product_results(tg)
    f, g = want["filtration"], got["filtration"]
    assert (g.breakpoints, g.cuts) == (f.breakpoints, f.cuts)
    assert all(a.equals(b) for a, b in zip(f.levels, g.levels))
    for key in ("report", "reach", "path_flag"):
        assert got[key] == want[key]
    assert got["algebra"].equals(want["algebra"])
    VNAlgebra(f.n, want["algebra"].basis)  # the closure check passes block by block
    if name.startswith("graph"):
        assert len(extends) > len(default) and max(extends) < max(default)
        n, edges = GRAPHS[int(name[5:])]
        np.testing.assert_array_equal(to_classical(g, MetricContext.diagonal(n)), bfs_distances(adjacency(n, edges)))


def test_a_small_budget_still_finds_an_open_product(monkeypatch):
    """Every block of the closure check is read: a span that is not closed
    under products fails with the budget cut to a few hundred entries too."""
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    not_closed = span([np.eye(4), units[1], units[4], units[6], units[9]], 4)
    monkeypatch.setattr(opspace, "_BUDGET", SMALL_BUDGET)
    with pytest.raises(opspace.MixedDimensions, match="products"):
        VNAlgebra(4, not_closed.basis)


def test_products_come_in_budget_blocks(monkeypatch):
    """The blocks follow the left stack in order, hold at most _BUDGET entries
    when a row fits, and are together every product L_a R_b, a major."""
    rng = np.random.default_rng(1)
    left, right = rng.standard_normal((7, 3, 3)), rng.standard_normal((5, 3, 3))
    monkeypatch.setattr(opspace, "_BUDGET", 2 * 5 * 9)
    blocks = list(opspace._products(left, right))
    assert [a0 for a0, _ in blocks] == [0, 2, 4, 6]
    assert max(p.size for _, p in blocks) <= 2 * 5 * 9
    want = np.stack([a @ b for a in left for b in right])
    np.testing.assert_array_equal(np.concatenate([p for _, p in blocks]), want)


def stacks(rng):
    """Pairs of (p, n, n) and (q, k, k) stacks, the larger one on either side."""
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return [(cplx(3, 2, 2), cplx(5, 3, 3)), (cplx(6, 3, 3), cplx(2, 2, 2)), (cplx(1, 4, 4), cplx(4, 1, 1)), (rng.standard_normal((2, 2, 2)), np.eye(3)[None])]


@pytest.mark.parametrize("seed", [0, 1])
def test_kron_stack_is_np_kron_of_each_pair(seed):
    """Pair i*q + j is np.kron(a_i, b_j), in natural order and at its place in a
    given order.  np.kron may round a complex product differently in the last
    bit, so complex pairs agree to rounding; a factor of 0s and 1s is exact."""
    rng = np.random.default_rng(seed)
    for a, b in stacks(rng):
        pairs = np.stack([np.kron(x, y) for x in a for y in b])
        exact = np.isrealobj(a) and np.isrealobj(b)
        order = rng.permutation(len(pairs))
        for got, want in [(kron_stack(a, b), pairs), (kron_stack(a, b, order), pairs[order])]:
            assert got.dtype == complex and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=0 if exact else 1e-14)


def bases():
    """A dense, a site-factor and a matrix-unit basis."""
    rng = np.random.default_rng(7)
    classical, _ = from_classical(random_metric(3, rng))
    return [("dense", fresh(hamming_filtration(2))), ("sites", block_filtration([1, 1])), ("units", classical)]


@pytest.mark.parametrize("name, f", bases(), ids=[b[0] for b in bases()])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_amplified_is_the_kronecker_product_applied(name, f, m):
    """_amplified(lo, hi, X) holds (B (x) I_m) X_j for each B in basis[lo:hi] and
    each member X_j, columns indexed (B, column), on every range of the basis."""
    rng = np.random.default_rng(m)
    n, k = f.n, f.cuts[-1]
    dense = f.basis
    x = rng.standard_normal((2, n * m, 3)) + 1j * rng.standard_normal((2, n * m, 3))
    for lo, hi in [(0, k), (0, f.cuts[0]), (1, k - 1), (f.cuts[0], f.cuts[1]), (2, 3)]:
        got = f._amplified(lo, hi, x)
        want = [np.concatenate([np.kron(b, np.eye(m)) @ xj for b in dense[lo:hi]], axis=1) for xj in x]
        assert got.shape == (2, n * m, (hi - lo) * 3)
        np.testing.assert_allclose(got, np.stack(want), rtol=0, atol=1e-13)
