"""Results that must not depend on the frame: conjugation of a filtration
(and its context and code) by a unitary, and a change of orthonormal basis
among the elements each level adds.  Checked on classical metrics, the M_2
metric, dense copies of Hamming models and a generated filtration."""

import math

import numpy as np
import pytest

from qwmetric import MetricContext, StepFiltration, descriptors, from_classical, validate
from qwmetric.codes import QuantumCode, hamming_filtration, kl_check, min_distance, volume_bound
from qwmetric.constructions import m2_metric
from qwmetric.errors import NotACode
from qwmetric.numerics import random_unitary
from qwmetric.opspace import VNAlgebra

from conftest import indicator_projection, random_metric, random_step_filtration


def _classical(n):
    def build(rng):
        f, ctx = from_classical(random_metric(n, rng))
        return f, ctx, indicator_projection(n, [0, 1])
    return build


def _m2(rng):
    return m2_metric(1.0, 2.0, 3.0), MetricContext.full(2), indicator_projection(2, [0])


def _m2_past_the_triangle(rng):
    # the M_2 chain at (1, 1, 3): c > a + b breaks the product law
    f = m2_metric(1.0, 2.0, 3.0)
    return StepFiltration.from_times(2, f.basis, [0.0, 1.0, 1.0, 3.0]), MetricContext.full(2), indicator_projection(2, [0])


def _hamming(sites):
    def build(rng):
        h = hamming_filtration(sites, 2)
        dense = StepFiltration.from_graded(h.n, h.breakpoints, h.basis.copy(), h.cuts)
        # the repetition code span{|0...0>, |1...1>}
        return dense, MetricContext.full(h.n), indicator_projection(h.n, [0, h.n - 1])
    return build


def _generated(rng):
    f = random_step_filtration(3, rng, levels=2)
    v = random_unitary(3, rng)[:, :2]
    return f, MetricContext.full(3), v @ v.conj().T


MODELS = {
    "classical4": _classical(4),
    "classical5": _classical(5),
    "classical6": _classical(6),
    "m2": _m2,
    "m2_past_the_triangle": _m2_past_the_triangle,
    "hamming2": _hamming(2),
    "hamming3": _hamming(3),
    "generated": _generated,
}


def _conj(stack, u):
    return u @ stack @ u.conj().T


def conjugated(f, ctx, p, u):
    """The filtration, context and projector moved by A -> U A U*."""
    g = StepFiltration.from_graded(f.n, f.breakpoints, _conj(f.basis, u), f.cuts)
    moved = MetricContext(
        VNAlgebra(f.n, _conj(ctx.algebra.basis, u), verify=False),
        VNAlgebra(f.n, _conj(ctx.commutant.basis, u), verify=False),
    )
    return g, moved, _conj(p, u)


def rebased(f, ctx, p, rng):
    """The same filtration with each level's new elements mixed by a random
    unitary: another HS-orthonormal basis adapted to the same flag."""
    basis = f.basis.copy()
    for lo, hi in zip([0] + f.cuts, f.cuts):
        if hi - lo > 1:
            w = random_unitary(hi - lo, rng)
            basis[lo:hi] = np.tensordot(w, basis[lo:hi], axes=(1, 0))
    return StepFiltration.from_graded(f.n, f.breakpoints, basis, f.cuts), ctx, p


def results(f, ctx, p):
    """Every frame-independent result of validate, descriptors, kl_check,
    volume_bound and min_distance."""
    out = {}
    for name, rep in (("bare", validate(f)), ("ctx", validate(f, ctx))):
        out[name] = (rep.is_filtration, rep.is_pseudometric, rep.is_metric, sorted(rep.violations))
    out["descriptors"] = descriptors(f)
    code = QuantumCode(p, f)
    for k in f.breakpoints:
        audit = kl_check(code, k)
        try:
            dim_k = volume_bound(code, k).dim_k
        except NotACode:
            dim_k = None
        out[("kl", k)] = (audit.detects, audit.level_dim, dim_k)
    out["min_distance"] = min_distance(code)
    return out


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("seed", [0, 1])
def test_results_do_not_depend_on_the_frame(model, seed):
    rng = np.random.default_rng(seed)
    f, ctx, p = MODELS[model](rng)
    want = results(f, ctx, p)
    assert results(*conjugated(f, ctx, p, random_unitary(f.n, rng))) == want
    assert results(*rebased(f, ctx, p, rng)) == want


def test_the_models_exercise_both_outcomes():
    """The invariance above is not vacuous: across the models the audits
    both pass and fail, some model has violations, and min_distance is
    finite somewhere."""
    detects, violations, finite = set(), False, False
    for model in MODELS.values():
        out = results(*model(np.random.default_rng(0)))
        detects |= {v[0] for k, v in out.items() if isinstance(k, tuple)}
        violations |= bool(out["bare"][3])
        finite |= math.isfinite(out["min_distance"])
    assert detects == {True, False} and violations and finite
