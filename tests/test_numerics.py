import ast
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwmetric.errors import NotHermitian
from qwmetric.numerics import (
    DEFAULT_CONFIG,
    NumericConfig,
    _eig_clusters,
    commutes_each,
    hermitian_eig,
    is_hermitian,
    is_projection,
    op_norm,
    op_norms,
    projections_each,
    range_projection,
    random_hermitian,
    random_unitary,
    rank,
    spectral_projection,
)
from qwmetric.opspace import span

from conftest import PAULI_X, PAULI_Y


def test_config_rejects_bad_tolerances():
    with pytest.raises(ValueError):
        NumericConfig(rank_tol=0.0)
    with pytest.raises(ValueError):
        NumericConfig(rank_tol=2.0)


def test_eig_diagonal():
    values, projs = hermitian_eig(np.diag([1.0, 0.0]))
    assert values == [0.0, 1.0]
    np.testing.assert_allclose(projs[0], np.diag([0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(projs[1], np.diag([1.0, 0.0]), atol=1e-12)


def test_eig_pauli_flip():
    values, projs = hermitian_eig(PAULI_X)
    assert values == pytest.approx([-1.0, 1.0])
    np.testing.assert_allclose(projs[0], np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-12)
    np.testing.assert_allclose(projs[1], np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12)


def test_eig_countersum_matrix():
    # (1/n) [[n+1, 1], [1, 1]] has eigenvalues (n + 2 +- sqrt(n^2+4)) / 2n
    n = 2
    a = np.array([[n + 1, 1], [1, 1]], dtype=complex) / n
    values, _ = hermitian_eig(a)
    lo = (n + 2 - np.sqrt(n * n + 4)) / (2 * n)
    hi = (n + 2 + np.sqrt(n * n + 4)) / (2 * n)
    assert values == pytest.approx([lo, hi])
    assert values == pytest.approx([1 - np.sqrt(2) / 2, 1 + np.sqrt(2) / 2])


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_clusters_near_degenerate():
    a = np.diag([1.0, 1.0 + 1e-12, 5.0])
    values, projs = hermitian_eig(a)
    assert len(values) == 2
    assert np.trace(projs[0]).real == pytest.approx(2.0)


def eig_clusters_by_loop(a, cfg):
    """The cluster split as a loop over consecutive eigenvalues: a cluster grows
    while the next gap is at most eig_cluster_tol; its value is np.mean."""
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    values, blocks, i = [], [], 0
    while i < len(w):
        j = i + 1
        while j < len(w) and w[j] - w[j - 1] <= cfg.eig_cluster_tol:
            j += 1
        values.append(float(np.mean(w[i:j])))
        blocks.append(v[:, i:j])
        i = j
    return values, blocks


@pytest.mark.parametrize("seed", range(40))
def test_eig_clusters_split_as_the_loop(seed):
    """Near-degenerate spectra on a grid of tol = 2^-20, so gaps of exactly tol
    (merged), 2 tol and tol / 2 are exact; chains of small gaps make long
    clusters, also past the 8 values where numpy's sum turns pairwise.  Values
    and blocks equal the loop's bit for bit, diagonal or rotated."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    tol = 2.0 ** -20
    w = 1.0 + np.cumsum(rng.choice([0.0, tol / 2, tol, 2 * tol, 0.25], size=n, p=[0.1, 0.3, 0.3, 0.2, 0.1]))
    u = random_unitary(n, rng) if seed % 2 else np.eye(n)
    a = (u * w) @ u.conj().T
    for cfg in (NumericConfig(eig_cluster_tol=tol), DEFAULT_CONFIG):
        values, blocks = _eig_clusters(a, cfg)
        want_values, want_blocks = eig_clusters_by_loop(a, cfg)
        assert values == want_values
        assert len(blocks) == len(want_blocks)
        for got, want in zip(blocks, want_blocks):
            np.testing.assert_array_equal(got, want)


def test_eig_clusters_merge_a_gap_of_exactly_the_tolerance():
    tol = 2.0 ** -20
    values, blocks = _eig_clusters(np.diag([1.0, 1.0 + tol, 1.0 + 3 * tol, 2.0]), NumericConfig(eig_cluster_tol=tol))
    assert [b.shape[1] for b in blocks] == [2, 1, 1]
    assert values == [1.0 + tol / 2, 1.0 + 3 * tol, 2.0]


@pytest.mark.parametrize("seed", range(5))
def test_eig_resolution_of_identity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    a = random_hermitian(n, rng)
    values, projs = hermitian_eig(a)
    total = sum(projs)
    np.testing.assert_allclose(total, np.eye(n), atol=1e-9)
    rebuilt = sum(v * p for v, p in zip(values, projs))
    assert op_norm(rebuilt - a) <= 10 * DEFAULT_CONFIG.membership_tol * max(1.0, op_norm(a))
    for i, p in enumerate(projs):
        assert op_norm(p @ p - p) < 1e-9
        for q in projs[i + 1 :]:
            assert op_norm(p @ q) < 1e-9


def test_spectral_projection_halflines():
    a = np.diag([1.0, 0.0])
    np.testing.assert_allclose(spectral_projection(a, "le", 0.0), np.diag([0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(spectral_projection(a, "ge", 2.0), np.zeros((2, 2)), atol=1e-12)
    got = spectral_projection(PAULI_X, "ge", 1.0)
    np.testing.assert_allclose(got, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12)


def test_spectral_projection_matches_eig_oracle():
    rng = np.random.default_rng(11)
    a = random_hermitian(4, rng)
    values, projs = hermitian_eig(a)
    cut = (values[1] + values[2]) / 2
    expected = projs[0] + projs[1]
    np.testing.assert_allclose(spectral_projection(a, "le", cut), expected, atol=1e-9)


def test_range_projection_zero_and_rank_one():
    assert op_norm(range_projection(np.zeros((2, 2)))) == 0.0
    ones = np.ones((2, 2), dtype=complex)
    np.testing.assert_allclose(range_projection(ones), ones / 2, atol=1e-12)


def test_range_projection_of_known_rank_product():
    rng = np.random.default_rng(5)
    b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    c = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    p = range_projection(b @ c)
    assert np.trace(p).real == pytest.approx(2.0, abs=1e-9)
    # idempotent: [[A]] = [A]
    np.testing.assert_allclose(range_projection(p), p, atol=1e-9)


def test_op_norm_basics():
    assert op_norm(np.eye(3)) == pytest.approx(1.0)
    assert op_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)
    comm = PAULI_X @ PAULI_Y - PAULI_Y @ PAULI_X  # 2i sigma_z
    assert op_norm(comm) == pytest.approx(2.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_op_norm_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u = random_unitary(3, rng)
    v = random_unitary(3, rng)
    assert op_norm(u @ a @ v) == pytest.approx(op_norm(a), abs=1e-9)


def test_is_projection_matches_three_op_norms_near_the_cutoff():
    """The stacked norms decide as |P - P*|, |P^2 - P| and |P| taken apart."""
    rng = np.random.default_rng(3)
    tol = DEFAULT_CONFIG.membership_tol
    seen = []
    for n in (1, 2, 4):
        for rank in range(n + 1):
            v = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
            p = range_projection(v) if rank else np.zeros((n, n), dtype=complex)
            h = random_hermitian(n, rng)
            h /= op_norm(h)
            for direction in (h, 1j * h):
                for factor in (0.25, 0.5, 1 - 1e-5, 1 + 1e-5, 2.0, 4.0):
                    m = p + factor * tol * direction
                    scale = max(1.0, op_norm(m))
                    ref = op_norm(m - m.conj().T) <= tol * scale and op_norm(m @ m - m) <= tol * scale
                    assert is_projection(m) == ref
                    seen.append(ref)
    assert any(seen) and not all(seen)


def test_is_projection_decides_as_three_op_norms_past_the_frobenius_shortcut():
    """Near-projections whose HS residual exceeds the tolerance while the
    operator-norm residual may not: the shortcut cannot accept them, and the
    decision is still the one of |P - P*|, |P^2 - P| and |P|."""
    rng = np.random.default_rng(4)
    tol = DEFAULT_CONFIG.membership_tol
    n = 16
    seen = set()
    for rank in (0, 5, n):
        v = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        p = range_projection(v) if rank else np.zeros((n, n), dtype=complex)
        # a unitary conjugate of a diagonal of signs: operator norm 1, HS norm 4
        u = random_unitary(n, rng)
        h = u @ np.diag(rng.choice([-1.0, 1.0], n)) @ u.conj().T
        for direction in (h, 1j * h):
            for factor in (0.1, 0.3, 0.45, 0.6, 1 - 1e-5, 1 + 1e-5):
                m = p + factor * tol * direction
                scale = max(1.0, op_norm(m))
                ref = op_norm(m - m.conj().T) <= tol * scale and op_norm(m @ m - m) <= tol * scale
                assert is_projection(m) == ref
                hs = max(np.linalg.norm(m - m.conj().T), np.linalg.norm(m @ m - m))
                seen.add((bool(hs > tol), ref))
    assert {(False, True), (True, True), (True, False)} <= seen


@pytest.mark.parametrize("scale", [1e200, 1.7e308])
def test_is_projection_past_the_float_range_is_false_without_a_warning(scale):
    """P^2 of entries this large overflows: such a matrix is decided (not a
    projection) with no RuntimeWarning, alone and among projections."""
    m = np.full((2, 2), scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert not is_projection(m)
        assert projections_each(np.stack([np.diag([1.0, 0.0]), m, np.eye(2)])).tolist() == [True, False, True]


def test_projections_each_decides_each_member_as_is_projection_does(monkeypatch):
    """Exact projections, near-projections past the HS shortcut and plain
    matrices in one stack: one boolean each, that of is_projection alone,
    with every member that misses the shortcut in one op_norms call."""
    import qwmetric.numerics as numerics

    rng = np.random.default_rng(7)
    tol = DEFAULT_CONFIG.membership_tol
    n = 8
    mats = []
    for rank in (0, 3, n):
        v = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        p = range_projection(v) if rank else np.zeros((n, n), dtype=complex)
        u = random_unitary(n, rng)
        h = u @ np.diag(rng.choice([-1.0, 1.0], n)) @ u.conj().T
        mats += [p, p + 0.6 * tol * h, p + 1.5 * tol * h, p + rng.standard_normal((n, n))]
    mats = np.stack(mats)
    calls = []
    batched = numerics.op_norms
    monkeypatch.setattr(numerics, "op_norms", lambda x: calls.append(len(x)) or batched(x))
    got = projections_each(mats)
    assert len(calls) == 1 and any(got) and not all(got)
    assert got.tolist() == [is_projection(m) for m in mats]


@pytest.mark.parametrize("shape", [(0, 2, 2), (10, 2, 2), (5, 3, 7), (4, 16, 16), (1, 64, 64)])
def test_op_norms_are_the_batched_two_norms(shape):
    rng = np.random.default_rng(8)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    np.testing.assert_array_equal(op_norms(x), np.linalg.norm(x, 2, axis=(1, 2)))


def test_is_hermitian_takes_no_svd_inside_the_hs_shortcut(monkeypatch):
    """An exactly Hermitian matrix, or one whose skew part has HS norm within
    membership_tol, is decided without an operator norm."""
    import qwmetric.numerics as numerics

    h = random_hermitian(16, np.random.default_rng(5))
    monkeypatch.setattr(numerics, "op_norm", lambda a: pytest.fail("op_norm called"))
    skew = np.zeros((16, 16), dtype=complex)
    skew[0, 1] = 0.4j * DEFAULT_CONFIG.membership_tol  # skew part of HS norm 0.4 sqrt(2) tol
    assert is_hermitian(h) and is_hermitian(h + skew)


def test_is_hermitian_decides_as_two_op_norms_past_the_hs_shortcut():
    """Skew parts of operator norm near the cutoff and HS norm past
    membership_tol: the decision is that of |A - A*| <= tol max(1, |A|)."""
    rng = np.random.default_rng(6)
    tol = DEFAULT_CONFIG.membership_tol
    n = 16
    u = random_unitary(n, rng)
    # i times a unitary conjugate of signs: skew-Hermitian, operator norm 1, HS norm 4
    skew = 1j * (u @ np.diag(rng.choice([-1.0, 1.0], n)) @ u.conj().T)
    seen = set()
    for scale in (0.5, 1.0, 3.0):
        h = random_hermitian(n, rng)
        h *= scale / op_norm(h)
        for factor in (0.1, 0.3, 0.45, 1 - 1e-5, 1 + 1e-5, 1.4, 1.6):
            m = h + factor * tol / 2 * skew
            ref = op_norm(m - m.conj().T) <= tol * max(1.0, op_norm(m))
            assert is_hermitian(m) == ref
            seen.add((bool(np.linalg.norm(m - m.conj().T) > tol), ref))
    assert {(False, True), (True, True), (True, False)} <= seen


def test_rank_rule_is_relative_with_an_optional_floor():
    cfg = NumericConfig(rank_tol=1e-3)
    s = np.array([10.0, 1e-2 + 1e-6, 1e-2, 1e-5])
    # the cutoff is rank_tol * max(s) = 1e-2, strict
    assert rank(s, cfg) == 2
    assert rank(s[::-1], cfg) == 2
    assert rank(np.zeros(3), cfg) == 0
    assert rank(np.zeros(0), cfg) == 0
    # a floor above max(s) raises the cutoff: noise-level values count as zero
    assert rank(np.array([1e-12, 1e-13]), cfg) == 2
    assert rank(np.array([1e-12, 1e-13]), cfg, scale=1.0) == 0
    assert rank(s, cfg, scale=1e3) == 1


def test_rank_of_a_stack_is_the_rank_of_each_row():
    cfg = NumericConfig(rank_tol=1e-3)
    rows = np.array([[10.0, 1e-2 + 1e-6, 1e-2, 1e-5], [1.0, 0.5, 1e-4, 0.0], [0.0, 0.0, 0.0, 0.0], [1e-12, 1e-13, 0.0, 0.0]])
    for scale in (0.0, 1.0, 1e3):
        got = rank(rows, cfg, scale)
        assert got.tolist() == [rank(r, cfg, scale) for r in rows]
    assert rank(rows, cfg).tolist() == [2, 2, 0, 2]
    assert rank(np.zeros((3, 0)), cfg).tolist() == [0, 0, 0]
    assert rank(np.zeros((0, 4)), cfg).shape == (0,)


def test_commutes_each_decides_per_element_with_the_norm_floor():
    cfg = NumericConfig(membership_tol=1e-6)
    r = np.diag([1.0, 0.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    mats = np.stack([np.eye(2), np.diag([3.0, -1.0]), 1e-7 * x, 1e3 * (np.eye(2) + 1e-10 * x), x])
    # ||[r, B]|| against membership_tol * max(1, ||B||), element by element
    np.testing.assert_array_equal(commutes_each(r, mats, cfg), [True, True, True, True, False])
    assert commutes_each(r, np.zeros((0, 2, 2)), cfg).shape == (0,)


def test_span_of_a_nearly_unit_element_is_unit():
    """The orthonormality test of the re-span path compares the Gram matrix
    with the identity entrywise within membership_tol, with no relative
    slack: a norm of 1 + 4e-6 is not kept as given."""
    s = span([(1 + 4e-6) * np.eye(2) / np.sqrt(2)])
    assert s.dim == 1
    assert abs(np.linalg.norm(s.basis[0]) - 1.0) < 1e-12


SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qwmetric"


def _scopes(tree):
    """Yield (node, enclosing top-level def or class name, or None)."""
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        if name is None and isinstance(top, ast.Assign):
            name = "=".join(t.id for t in top.targets if isinstance(t, ast.Name))
        for node in ast.walk(top):
            yield node, name


def test_tolerances_have_one_home():
    """Every rank decision reads rank_tol through numerics.rank, and every
    float literal below 1e-3 is a NumericConfig default, the time merge of
    the constructions or the mapping of the CLI's --tol."""
    rank_reads, small = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node, scope in _scopes(ast.parse(path.read_text())):
            where = (path.name, scope)
            if isinstance(node, ast.Attribute) and node.attr == "rank_tol":
                rank_reads.add(where)
            elif isinstance(node, ast.keyword) and node.arg == "rank_tol":
                rank_reads.add(where)
            elif isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value < 1e-3:
                small.add(where)
    assert rank_reads <= {("numerics.py", "NumericConfig"), ("numerics.py", "rank"), ("cli.py", "_cfg_from_args")}
    assert ("numerics.py", "rank") in rank_reads
    assert small <= {("numerics.py", "NumericConfig"), ("constructions.py", "TIME_MERGE"), ("cli.py", "_cfg_from_args")}


def test_every_import_is_read():
    """No module of the package imports a name it never reads.  The
    package's __init__ imports to re-export, and a __future__ import is a
    directive to the compiler, so neither is held to the rule."""
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                names = {(alias.asname or alias.name).split(".")[0] for alias in node.names}
                unread |= {(path.name, name) for name in names - read}
    assert not unread


def test_level_lists_are_the_readers_alone():
    """Every filtration is built from a graded basis: library code makes no
    StepFiltration(...) call (the JSON reader grows a file's levels into one
    basis), and nothing re-grades a filtration through ``.normalized``."""
    level_lists, normalized = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node, scope in _scopes(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "StepFiltration":
                    level_lists.add((path.name, scope))
                elif name == "normalized" and isinstance(node.func, ast.Attribute):
                    normalized.add((path.name, scope))
    assert not level_lists
    assert not normalized


# (module, top-level def) of every np.linalg.svd and np.linalg.qr call: the
# rank-decision kernels, the range bases whose U is read, the square SVDs of
# the witnesses and the ascent, the batched operator norm and a random unitary
FACTORIZERS = {
    ("filtration.py", "_spans"),
    ("geometry.py", "_range_each"),
    ("geometry.py", "_separate"),
    ("lipschitz.py", "commutation_lipschitz_lower"),
    ("numerics.py", "op_norms"),
    ("numerics.py", "range_basis"),
    ("numerics.py", "random_unitary"),
    ("opspace.py", "_orthonormalize"),
    ("opspace.py", "null_space_rows"),
}


def test_dense_factorizations_are_held_to_an_allow_list():
    """A null space, or a tall SVD whose U is never read, goes through
    opspace.null_space_rows (R first, then the SVD of R), so a new call of
    np.linalg.svd or np.linalg.qr anywhere else fails here."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node, scope in _scopes(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Attribute) and func.attr in ("svd", "qr") and ast.unparse(func.value).endswith("linalg"):
                callers.add((path.name, scope))
    assert callers == FACTORIZERS


# (module, top-level def) of every np.einsum and np.kron call: the one writer
# of Kronecker stacks, the constraint map of the commutant, the product span
# (the oracle of generated algebras and of the generated engine) and the
# quadratic form of the Lipschitz witness
PRODUCT_WRITERS = {
    ("lipschitz.py", "lipschitz_witness"),
    ("opspace.py", "commutant"),
    ("opspace.py", "kron_stack"),
    ("opspace.py", "product_span"),
}


def test_einsum_and_kron_are_held_to_an_allow_list():
    """A Kronecker stack goes through opspace.kron_stack, and a product stack
    through opspace._products (a batched matmul), so a hand-written
    np.einsum or np.kron anywhere else fails here."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node, scope in _scopes(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Attribute) and func.attr in ("einsum", "kron") and ast.unparse(func.value) in ("np", "numpy"):
                callers.add((path.name, scope))
    assert callers == PRODUCT_WRITERS


# (module, top-level def) of library code that may read how a filtration's
# graded basis is stored: the filtration itself, the JSON writer, the dense
# product kernel of validate and descriptors (until they read labels), and
# the constructions that build a new dense basis from the old one
STORAGE_READERS = {
    ("filtration.py", "StepFiltration"),
    ("cli.py", "emit_filtration"),
    ("filtration.py", "_products"),
    ("filtration.py", "validate"),
    ("constructions.py", "stabilize"),
    ("constructions.py", "truncate"),
    ("constructions.py", "direct_sum"),
    ("constructions.py", "meet"),
    ("constructions.py", "subobject"),
    ("constructions.py", "metric_product"),
    ("constructions.py", "lp_product"),
    ("constructions.py", "f_transform"),
    ("constructions.py", "canonicalize_m2"),
}


def _filtration_makers(trees):
    """StepFiltration and every library function annotated to return one."""
    return {"StepFiltration"} | {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.returns is not None and "StepFiltration" in ast.unparse(node.returns)
    }


def _filtration_names(tree, makers):
    """Per top-level def, the names annotated as a StepFiltration or
    assigned from a call of one of ``makers``."""
    names = {}
    for top in tree.body:
        found = names.setdefault(getattr(top, "name", None), set())
        for node in ast.walk(top):
            if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None and "StepFiltration" in ast.unparse(node.annotation):
                found.add(node.arg if isinstance(node, ast.arg) else ast.unparse(node.target))
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                func = node.value.func
                if getattr(func, "id", getattr(func, "attr", None)) in makers:
                    found |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def test_graded_storage_is_read_through_the_filtration():
    """Queries reach the graded basis only through StepFiltration (apply,
    element_norm, its readers of basis rows and its label answers):
    ``.levels``, ``.value_at``, ``.top``, the cached ``._conj_rows`` and the
    factored basis (``._factors``, ``._units``) anywhere, and ``.basis`` on
    a name known to hold a filtration, are read only by the allow-list, so
    only StepFiltration branches on how the basis is stored."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    makers = _filtration_makers(trees.values())
    readers = set()
    for module, tree in trees.items():
        names = _filtration_names(tree, makers)
        for node, scope in _scopes(tree):
            if not isinstance(node, ast.Attribute):
                continue
            on_filtration = isinstance(node.value, ast.Name) and node.value.id in names.get(scope, ())
            if node.attr in ("levels", "value_at", "top", "_conj_rows", "_factors", "_units") or (node.attr == "basis" and on_filtration):
                readers.add((module, scope))
    assert readers == STORAGE_READERS
