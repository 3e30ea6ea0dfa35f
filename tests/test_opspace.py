import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwmetric.errors import MixedDimensions
from qwmetric.numerics import DEFAULT_CONFIG, random_hermitian, rank
from qwmetric.opspace import (
    VNAlgebra,
    _orthonormalize,
    adjoint,
    commutant,
    complement,
    full_space,
    generated_vn_algebra,
    intersect,
    null_space_rows,
    product_span,
    scalar_space,
    span,
    sum_spaces,
    tensor,
)

from conftest import I2, PAULI_X, PAULI_Y, PAULI_Z, random_metric


def random_subspace(n, k, rng):
    mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(k)]
    return span(mats, n)


def test_span_collapses_dependent_generators():
    s = span([I2, 2 * I2])
    assert s.dim == 1


def test_span_pauli_basis_is_everything():
    s = span([I2, PAULI_X, PAULI_Y, PAULI_Z])
    assert s.dim == 4
    assert s.equals(full_space(2))


def test_span_mixed_sizes_rejected():
    with pytest.raises(MixedDimensions):
        span([I2, np.eye(3)])


def test_span_counts_classical_relation_pairs():
    rng = np.random.default_rng(2)
    d = random_metric(3, rng)
    t = float(np.median(d[d > 0]))
    mats = []
    for x in range(3):
        for y in range(3):
            if d[x, y] <= t:
                e = np.zeros((3, 3), dtype=complex)
                e[x, y] = 1.0
                mats.append(e)
    assert span(mats, 3).dim == int((d <= t).sum())


def test_contains():
    s = span([I2])
    assert s.contains(I2)
    assert not s.contains(PAULI_X)
    # the span of I, sigma_x, sigma_y misses sigma_z
    w = span([I2, PAULI_Z, PAULI_X])
    assert not w.contains(PAULI_Y)


def test_intersection_of_two_dim2_systems_is_scalars():
    a = span([I2, PAULI_X])
    b = span([I2, PAULI_Y])
    meet = intersect(a, b)
    assert meet.dim == 1
    assert meet.contains(I2)


def test_sum_and_intersect_idempotent():
    rng = np.random.default_rng(3)
    s = random_subspace(3, 4, rng)
    assert sum_spaces(s, s).equals(s)
    assert intersect(s, s).equals(s)


@pytest.mark.parametrize("seed", range(4))
def test_rank_identity(seed):
    rng = np.random.default_rng(seed)
    n = 3
    s = random_subspace(n, int(rng.integers(1, 5)), rng)
    t = random_subspace(n, int(rng.integers(1, 5)), rng)
    assert sum_spaces(s, t).dim + intersect(s, t).dim == s.dim + t.dim


def test_complement_demorgan():
    rng = np.random.default_rng(8)
    s = random_subspace(3, 3, rng)
    t = random_subspace(3, 2, rng)
    lhs = complement(sum_spaces(s, t))
    rhs = intersect(complement(s), complement(t))
    assert lhs.equals(rhs)


@pytest.mark.parametrize("case", ["pauli_sum", "random"])
def test_complement_is_hs_orthogonal_and_complementary(case):
    if case == "pauli_sum":
        s = span([I2, PAULI_X + PAULI_Y])
    else:
        s = random_subspace(3, 4, np.random.default_rng(11))
    c = complement(s)
    assert s.dim + c.dim == s.n * s.n
    overlaps = np.einsum("aij,bij->ab", s.basis.conj(), c.basis)
    assert np.abs(overlaps).max() < 1e-12


def test_product_span_scalar_identity():
    s = span([I2, PAULI_X])
    assert product_span(span([I2]), s).equals(s)


def test_product_span_generates_missing_pauli():
    # span{I, sx} . span{I, sx, sy} = M_2 because i sx sy = sz
    left = span([I2, PAULI_Z])
    right = span([I2, PAULI_Z, PAULI_X])
    assert product_span(left, right).dim == 4


def test_product_span_matches_relation_composition():
    rng = np.random.default_rng(4)
    n = 5
    r = rng.random((n, n)) < 0.4
    s = rng.random((n, n)) < 0.4
    def rel_span(rel):
        mats = []
        for x in range(n):
            for y in range(n):
                if rel[x, y]:
                    e = np.zeros((n, n), dtype=complex)
                    e[x, y] = 1.0
                    mats.append(e)
        return span(mats, n) if mats else span([np.zeros((n, n))], n)
    composed = np.zeros((n, n), dtype=bool)
    for x in range(n):
        for y in range(n):
            composed[x, y] = any(r[x, z] and s[z, y] for z in range(n))
    got = product_span(rel_span(r), rel_span(s))
    assert got.equals(rel_span(composed))


def test_product_span_associative():
    rng = np.random.default_rng(9)
    s, t, u = (random_subspace(3, 2, rng) for _ in range(3))
    assert product_span(s, product_span(t, u)).equals(product_span(product_span(s, t), u))


def test_adjoint_and_operator_system_flags():
    assert span([PAULI_X]).is_self_adjoint()
    assert not span([PAULI_X]).is_operator_system()
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    assert not span([I2, e12]).is_self_adjoint()
    e21 = e12.conj().T
    assert span([I2, e12, e21]).is_operator_system()
    s = span([I2, e12])
    assert adjoint(s).contains(e21)


def test_commutant_of_full_matrix_units_is_scalars():
    units = full_space(3)
    c = commutant(units.basis, 3)
    assert c.dim == 1


def test_commutant_of_identity_is_everything():
    c = commutant([I2], 2)
    assert c.dim == 4


def test_commutant_of_diagonal_algebra():
    diag = [np.diag([1.0, 0, 0]).astype(complex), np.diag([0, 1.0, 0]).astype(complex), np.diag([0, 0, 1.0]).astype(complex)]
    c = commutant(diag, 3)
    assert c.dim == 3
    for b in c.basis:
        off = b - np.diag(np.diag(b))
        assert np.abs(off).max() < 1e-9


def test_generated_algebra_cases():
    assert generated_vn_algebra([], 2).dim == 1
    assert generated_vn_algebra([PAULI_Z], 2).dim == 2
    assert generated_vn_algebra([PAULI_Z, PAULI_X], 2).dim == 4


@pytest.mark.parametrize("seed", range(3))
def test_double_commutant(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(3, rng)
    alg = generated_vn_algebra([h], 3)
    cc = commutant(commutant(alg.basis, 3).basis, 3)
    assert cc.equals(alg)


def test_bimodule_characterization_of_quantum_relations():
    # levels of a classical filtration are diagonal-algebra bimodules
    rng = np.random.default_rng(6)
    d = random_metric(4, rng)
    from qwmetric import from_classical

    f, ctx = from_classical(d)
    lv = f.levels[1]
    sandwich = product_span(ctx.commutant, product_span(lv, ctx.commutant))
    assert lv.contains_space(sandwich)


def test_tensor_dims_and_identity_embedding():
    s = span([I2, PAULI_X])
    t = tensor(s, scalar_space(3))
    assert t.dim == s.dim
    assert t.contains(np.kron(PAULI_X, np.eye(3) / np.sqrt(3)))
    assert tensor(scalar_space(2), scalar_space(2)).equals(scalar_space(4))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_tensor_dimension_product(seed):
    rng = np.random.default_rng(seed)
    s = random_subspace(2, int(rng.integers(1, 4)), rng)
    t = random_subspace(3, int(rng.integers(1, 5)), rng)
    assert tensor(s, t).dim == s.dim * t.dim


def test_vnalgebra_verification_rejects_non_algebra():
    with pytest.raises(MixedDimensions):
        VNAlgebra(2, span([I2, np.array([[0, 1], [0, 0]], dtype=complex)]).basis)


def single_rule(s, m, tol=DEFAULT_CONFIG.membership_tol):
    """The membership rule of contains, written for one matrix."""
    return np.linalg.norm(m - s.project(m)) <= tol * max(1.0, np.linalg.norm(m))


@pytest.mark.parametrize("seed", range(4))
def test_stacked_membership_matches_single_rule_at_the_cutoff(seed):
    rng = np.random.default_rng(seed)
    n = 3
    s = random_subspace(n, int(rng.integers(1, 8)), rng)
    perp = complement(s).basis
    tol = DEFAULT_CONFIG.membership_tol
    mats, expected = [], []
    # the in-space part sets the cutoff scale max(1, |A|); a unit direction
    # outside the space carries a residual just inside or outside the cutoff
    for size in (0.2, 1.0, 4.0):
        inside = s.project(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        inside *= size / np.linalg.norm(inside)
        w = np.tensordot(rng.standard_normal(len(perp)), perp, axes=1)
        w /= np.linalg.norm(w)
        for factor in (0.5, 1 - 1e-4, 1 - 1e-5, 1 + 1e-5, 1 + 1e-4, 2.0):
            mats.append(inside + factor * tol * max(1.0, size) * w)
            expected.append(factor < 1)
    mats = np.stack(mats)
    assert s.contains_each(mats).tolist() == [single_rule(s, m) for m in mats] == expected
    assert [s.contains(m) for m in mats] == expected


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e200, 1e308])
def test_membership_is_scale_free(scale):
    """Residuals are divided by max(1, |A|) before they are squared: s E_01
    stays outside the scalars and s I inside at every s up to 1e308."""
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert scalar_space(2).contains_each(scale * np.stack([e01, I2, I2 + e01])).tolist() == [False, True, False]
        assert span([I2, PAULI_Z]).contains(np.diag([scale, 0.0]))


@pytest.mark.parametrize("seed", range(6))
def test_stacked_checks_match_per_element_loops(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    h = random_hermitian(n, rng)
    e01 = np.zeros((n, n), dtype=complex)
    e01[0, 1] = 1.0
    spaces = [
        random_subspace(n, int(rng.integers(1, n * n)), rng),
        span([np.eye(n), h]),
        span([np.eye(n), e01]),
        span([np.eye(n), h, h @ h @ h + 1j * h]),
        generated_vn_algebra([h], n),
        generated_vn_algebra([e01], n),
        commutant([h], n),
        full_space(n),
        scalar_space(n),
    ]
    for s in spaces:
        for t in spaces:
            assert s.contains_space(t) == all(single_rule(s, b) for b in t.basis)
        adjoints = all(single_rule(s, b.conj().T) for b in s.basis)
        assert s.is_self_adjoint() == adjoints
        closed = all(single_rule(s, b @ c) for b in s.basis for c in s.basis)
        try:
            VNAlgebra(n, s.basis)
            accepted = True
        except MixedDimensions:
            accepted = False
        assert accepted == (single_rule(s, np.eye(n)) and adjoints and closed)


def full_svd_null_space(k, scale=1.0):
    """The null space of k from one full SVD of k itself, the path a tall
    stack no longer takes."""
    _, s, vh = np.linalg.svd(k)
    return vh[rank(s, DEFAULT_CONFIG, scale) :].conj()


@pytest.mark.parametrize("seed", range(6))
def test_a_tall_null_space_is_the_full_svd_one(seed):
    """A tall stack's null space through its triangular factor has the rank
    and the span of the full SVD's; the same for an all-noise stack, which
    the floor ``scale`` counts as zero, and for rows scaled far from 1."""
    rng = np.random.default_rng(seed)
    cols = int(rng.integers(4, 17))
    r = int(rng.integers(0, cols))
    low = (rng.standard_normal((5 * cols, r)) + 1j * rng.standard_normal((5 * cols, r))) @ (
        rng.standard_normal((r, cols)) + 1j * rng.standard_normal((r, cols))
    )
    noise = 1e-14 * (rng.standard_normal((5 * cols, cols)) + 1j * rng.standard_normal((5 * cols, cols)))
    for k, scale in ((low, 1.0), (1e6 * low, 1.0), (noise, 1.0), (low + noise, 1.0)):
        got, want = null_space_rows(k, DEFAULT_CONFIG, scale), full_svd_null_space(k, scale)
        assert got.shape == want.shape
        np.testing.assert_allclose(got.T @ got.conj(), want.T @ want.conj(), rtol=0, atol=1e-10)
        np.testing.assert_allclose(got.conj() @ got.T, np.eye(len(got)), rtol=0, atol=1e-12)
    assert len(null_space_rows(noise, DEFAULT_CONFIG, 1.0)) == cols


def full_svd_span(rows, n, scale=0.0):
    """The span of a stack of rows from one reduced SVD of the rows
    themselves, the path a large tall stack no longer takes."""
    _, s, vh = np.linalg.svd(rows[np.linalg.norm(rows, axis=1) > 0], full_matrices=False)
    return vh[: rank(s, DEFAULT_CONFIG, scale)]


@pytest.mark.parametrize("seed", range(6))
def test_a_tall_span_is_the_full_svd_one(seed, monkeypatch):
    """A tall stack re-spanned through its triangular factor has the
    dimension and the projector of the full SVD's span; the same for the
    products of a subspace (the stacks product_span hands in) and for an
    all-noise stack, which the floor ``scale`` counts as zero.  A small
    tall stack (a rank-1 code's compressions) takes the SVD alone."""
    qr = np.linalg.qr
    factored = []
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode: factored.append(a.shape) or qr(a, mode))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 7))
    r = int(rng.integers(1, n * n))
    low = (rng.standard_normal((4 * n * n, r)) + 1j * rng.standard_normal((4 * n * n, r))) @ (
        rng.standard_normal((r, n * n)) + 1j * rng.standard_normal((r, n * n))
    )
    s = random_subspace(n, int(rng.integers(8, n * n)), rng)  # at least 64 products
    prods = np.einsum("aij,bjk->abik", s.basis, s.basis).reshape(-1, n * n)
    noise = 1e-14 * (rng.standard_normal((4 * n * n, n * n)) + 1j * rng.standard_normal((4 * n * n, n * n)))
    for rows, scale in ((low, 0.0), (1e6 * low, 0.0), (prods, 0.0), (noise, 1.0), (low + noise, 1.0)):
        got, want = _orthonormalize(rows, n, DEFAULT_CONFIG, scale).reshape(-1, n * n), full_svd_span(rows, n, scale)
        assert got.shape == want.shape
        np.testing.assert_allclose(got.T @ got.conj(), want.T @ want.conj(), rtol=0, atol=1e-12)
    assert len(_orthonormalize(noise, n, DEFAULT_CONFIG, 1.0)) == 0
    assert factored == [low.shape, low.shape, prods.shape, noise.shape, low.shape, noise.shape]
    assert len(_orthonormalize(rng.standard_normal((16, 1)), 1, DEFAULT_CONFIG)) == 1
    assert len(factored) == 6
