"""Contexts held by their commutant, and generated algebras grown word by
word: oracles built from public functions, call counts and memory caps."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qwmetric import codes, constructions, filtration, opspace
from qwmetric.cli import emit_filtration, main
from qwmetric.codes import block_algebra_context, hamming_filtration
from qwmetric.errors import MixedDimensions
from qwmetric.filtration import MetricContext, from_classical, to_classical, validate
from qwmetric.numerics import random_hermitian
from qwmetric.opspace import commutant, generated_vn_algebra, product_span, span, sum_spaces

from conftest import random_metric


def units(n, pairs):
    out = np.zeros((len(pairs), n, n), dtype=complex)
    for i, (x, y) in enumerate(pairs):
        out[i, x, y] = 1.0
    return list(out)


def block_units(blocks):
    sizes = [2**b for b in blocks]
    offsets = np.cumsum([0] + sizes)
    return units(sum(sizes), [(o + x, o + y) for o, s in zip(offsets, sizes) for x in range(s) for y in range(s)])


def shift_and_clock(n):
    return [np.roll(np.eye(n), 1, axis=0), np.diag(np.exp(2j * np.pi * np.arange(n) / n))]


def corpus():
    """(name, generators, n, unscaled generators): the reference is built from
    the last, as the algebra does not depend on the generators' scale."""
    cases = [(f"diag{n}", units(n, [(x, x) for x in range(n)]), n) for n in range(4, 10)]
    cases += [(f"full{n}", units(n, [(x, y) for x in range(n) for y in range(n)]), n) for n in (2, 4)]
    cases += [(f"blocks{b}", block_units(b), sum(2**x for x in b)) for b in ([1, 2], [2, 1])]
    rng = np.random.default_rng(22)
    cases += [(f"hermitian{n}", [random_hermitian(n, rng) for _ in range(2)], n) for n in range(2, 7)]
    # a Jordan block alone generates only its polynomials; with its adjoint, all of M_3
    cases += [("shift-clock8", shift_and_clock(8), 8), ("jordan3", [np.eye(3, k=1)], 3), ("empty3", [], 3)]
    h, two = random_hermitian(3, rng), units(4, [(0, 0), (1, 1)])
    scaled = [
        ("diag-1e200", [np.diag([1e200, -1.0])], 2, [np.diag([1.0, 0.0])]),
        ("shift-clock3-1e200", [1e200 * g for g in shift_and_clock(3)], 3, shift_and_clock(3)),
        ("hermitian3-1e-200", [1e-200 * h], 3, [h]),
        ("diag4-1e-200", [1e-200 * g for g in two], 4, two),
    ]
    return [(name, gens, n, gens) for name, gens, n in cases] + scaled


CORPUS = corpus()


def closure(gens, n):
    """The algebra closure the library used to run: span{I, S, S*}, then
    rounds of V + V V until the dimension stops growing."""
    current = span([np.eye(n)] + [m for g in gens for m in (g, g.conj().T)], n)
    while True:
        nxt = sum_spaces(current, product_span(current, current))
        if nxt.dim == current.dim:
            return current
        current = nxt


def bicommutant(gens, n):
    """W*(S) = (S u S*)'', a reference that multiplies nothing."""
    return commutant(commutant(span([m for g in gens for m in (g, g.conj().T)], n).basis, n).basis, n)


def assert_same(got, want):
    assert got.dim == want.dim
    assert got.equals(want)


@pytest.mark.parametrize("name, gens, n, plain", CORPUS, ids=[c[0] for c in CORPUS])
def test_generated_algebra_matches_both_references(name, gens, n, plain):
    alg = generated_vn_algebra(gens, n)
    assert_same(alg, closure(plain, n))
    assert_same(alg, bicommutant(plain, n))


@pytest.mark.parametrize("name, gens, n, plain", CORPUS, ids=[c[0] for c in CORPUS])
def test_context_commutant_matches_both_references(name, gens, n, plain):
    ctx = MetricContext.from_generators(gens, n)
    assert_same(ctx.commutant, commutant(closure(plain, n).basis, n))
    assert_same(ctx.commutant, commutant(bicommutant(plain, n).basis, n))
    assert_same(ctx.algebra, closure(plain, n))


def test_mixed_sizes_are_rejected():
    with pytest.raises(MixedDimensions):
        MetricContext.from_generators([np.eye(3)], 2)
    with pytest.raises(MixedDimensions):
        generated_vn_algebra([np.eye(2), np.eye(3)], 2)


def test_generated_algebra_checks_its_generators_against_the_basis(monkeypatch):
    """Shift and clock at n = 8 generate M_8 (dim 64) from W_1 = span{I, S,
    S*, C, C*}.  The closure check of generated_vn_algebra tests I, the 64
    adjoints and the 5 x 64 products W_1 B; VNAlgebra's own check of the
    same basis tests the 64 x 64 products B B."""
    checked = []
    original = opspace.OperatorSubspace.contains_each

    def counted(self, mats, *args, **kwargs):
        checked.append(len(mats))
        return original(self, mats, *args, **kwargs)

    monkeypatch.setattr(opspace.OperatorSubspace, "contains_each", counted)
    alg = generated_vn_algebra(shift_and_clock(8), 8)
    assert (alg.dim, sum(checked)) == (64, 1 + 64 + 5 * 64)
    checked.clear()
    opspace.VNAlgebra(8, alg.basis)
    assert sum(checked) == 1 + 64 + 64 * 64


def counting(monkeypatch, names, modules=(opspace, filtration, constructions, codes)):
    """Count calls to each function in ``names`` through every module that
    imports it; returns the name -> count dict."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(opspace, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return calls


def test_validate_with_an_algebra_solves_one_commutant(tmp_path, capsys, monkeypatch):
    calls = counting(monkeypatch, ["commutant", "generated_vn_algebra"])
    fpath, apath = tmp_path / "h.json", tmp_path / "a.json"
    fpath.write_text(json.dumps(emit_filtration(hamming_filtration(2, 2))))
    apath.write_text(json.dumps([[[[x.real, x.imag] for x in row] for row in m] for m in units(4, [(x, y) for x in range(4) for y in range(4)])]))
    assert main(["validate", "--filtration", str(fpath), "--algebra", str(apath)]) == 0
    assert json.loads(capsys.readouterr().out)["is_metric"]
    assert calls == {"commutant": 1, "generated_vn_algebra": 0}


@pytest.mark.parametrize("make, n, dims", [(lambda: MetricContext.full(16), 16, (256, 1)), (lambda: block_algebra_context([4, 4]), 32, (512, 2))])
def test_known_contexts_are_written_down(monkeypatch, make, n, dims):
    calls = counting(monkeypatch, ["commutant", "span"])
    ctx = make()
    assert (ctx.algebra.n, ctx.algebra.dim, ctx.commutant.dim) == (n, *dims)
    assert calls == {"commutant": 0, "span": 0}


@pytest.mark.parametrize("ctx, gens", [(block_algebra_context([1, 2]), block_units([1, 2])), (MetricContext.full(3), units(3, [(x, y) for x in range(3) for y in range(3)]))])
def test_known_contexts_are_the_solved_ones(ctx, gens):
    n = len(gens[0])
    assert_same(ctx.algebra, span(gens, n))
    assert_same(ctx.commutant, commutant(gens, n))


def test_to_classical_forms_no_algebra(monkeypatch):
    d = random_metric(4, np.random.default_rng(3))
    f, _ = from_classical(d)
    calls = counting(monkeypatch, ["commutant"])
    ctx = MetricContext.from_generators(units(4, [(x, x) for x in range(4)]), 4)
    np.testing.assert_array_equal(to_classical(f, ctx), d)
    assert validate(f, ctx).is_metric
    assert calls == {"commutant": 1}


@pytest.mark.parametrize("build", ["block_algebra_context([4, 4]).commutant.dim == 2", "MetricContext.from_generators(shift_and_clock(16), 16).commutant.dim == 1"])
def test_large_contexts_fit_in_one_gib(build):
    """Each context is written down or solved as M' alone, in a child whose
    address space is capped at 1 GiB: the block algebra of [4, 4] used to
    ask for 8 GiB, and shift and clock at n = 16 for more than 1 GiB."""
    child = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1])); "
        "import numpy as np; "
        "from qwmetric import MetricContext; "
        "from qwmetric.codes import block_algebra_context; "
        "shift_and_clock = lambda n: [np.roll(np.eye(n), 1, axis=0), np.diag(np.exp(2j * np.pi * np.arange(n) / n))]; "
        f"assert {build}"
    )
    result = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (result.returncode, result.stderr) == (0, "")


# every query that takes a context, called on a 2-point filtration
SIZED = {
    "validate": lambda f, ctx: validate(f, ctx),
    "to_classical": lambda f, ctx: to_classical(f, ctx),
    "quotient": lambda f, ctx: constructions.quotient(f, np.eye(2), ctx),
    "subobject": lambda f, ctx: constructions.subobject(f, MetricContext.diagonal(2).algebra, ctx),
    "induced_metric": lambda f, ctx: codes.induced_metric(f, np.eye(2), ctx),
    "co_lipschitz_number": lambda f, ctx: constructions.co_lipschitz_number(f, f, 1, np.eye(2), np.eye(2), ctx),
}


@pytest.mark.parametrize("name", SIZED)
def test_a_context_of_another_size_is_a_typed_error(name):
    """A context on M_3 for a filtration on M_2 raises MixedDimensions (it
    used to escape as numpy's ValueError, or, in to_classical, to pass),
    and the context of the right size is taken."""
    f, ctx = from_classical(np.array([[0.0, 1.0], [1.0, 0.0]]))
    SIZED[name](f, ctx)
    with pytest.raises(MixedDimensions, match="context on M_3"):
        SIZED[name](f, MetricContext.diagonal(3))
