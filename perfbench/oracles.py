"""Correctness oracles for the benchmark, computed apart from qwmetric.

Every function here uses numpy and the standard library only: no oracle
calls into the program it checks.  A ``check_*`` function returns ``None``
when the result is right and a one-line message naming the failed check
otherwise.  ``expected_*`` functions return the value a check compares with.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

TOL = 1e-8


def _rank(rows: np.ndarray, tol: float = TOL) -> int:
    if rows.size == 0:
        return 0
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(s > tol * max(1.0, s[0])))


def _same(got, want) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


# ---------------------------------------------------------------- classical


def check_round_trip(d: np.ndarray, got: np.ndarray):
    """The classical round trip returns the input matrix itself."""
    if got.shape != d.shape or not np.array_equal(got, d):
        return "to_classical(from_classical(d)) != d"
    return None


def check_point_distance(d: np.ndarray, x: int, y: int, got: float):
    if got != d[x, y]:
        return f"rho(e_{x}, e_{y}) = {got}, want d = {d[x, y]}"
    return None


def check_indicator_distance(d: np.ndarray, s, t, got: float):
    """rho between indicator projections is the minimum over the subsets."""
    want = min(d[x, y] for x in s for y in t)
    if got != want:
        return f"indicator rho({list(s)}, {list(t)}) = {got}, want min = {want}"
    return None


def expected_amplified_distance(d: np.ndarray, m: int, p: np.ndarray, q: np.ndarray) -> float:
    """min d(x, y) over the blocks with P[:, x-block] Q[y-block, :] != 0."""
    n = d.shape[0]
    best = math.inf
    for x in range(n):
        for y in range(n):
            block = p[:, x * m:(x + 1) * m] @ q[y * m:(y + 1) * m, :]
            if np.linalg.norm(block) > TOL:
                best = min(best, d[x, y])
    return best


def check_amplified_distance(d, m, p, q, got: float):
    want = expected_amplified_distance(d, m, p, q)
    if got != want:
        return f"amplified rho = {got}, want block-support minimum {want}"
    return None


def brute_lipschitz(fv: np.ndarray, d: np.ndarray) -> float:
    """max |f(x) - f(y)| / d(x, y) over pairs at positive finite distance."""
    n = len(fv)
    vals = [
        abs(fv[x] - fv[y]) / d[x, y]
        for x in range(n) for y in range(n)
        if 0 < d[x, y] < math.inf
    ]
    return max(vals, default=0.0)


def check_lipschitz(fv, d, got: float, label: str):
    want = brute_lipschitz(fv, d)
    if abs(got - want) > TOL * max(1.0, want):
        return f"{label} = {got}, want brute force {want}"
    return None


def expected_diameter_gap(d: np.ndarray):
    """Diameter: the largest distance (inf if any is infinite).  Gap: the
    smallest positive finite distance (inf if there is none)."""
    diameter = float(np.max(d))
    positive = [v for v in d.reshape(-1) if 0 < v < math.inf]
    return diameter, (min(positive) if positive else math.inf)


def expected_classical_path_flag(d: np.ndarray) -> bool:
    """Path property of a classical metric on the breakpoint-sum grid.

    With R_u = {(x, y) : d(x, y) <= u} the level at u is spanned by the
    matrix units of R_u, and V_s V_t is spanned by the composed relation
    R_s o R_t.  The flag holds iff R_s o R_t = R_{s+t} for every s, t on the
    grid of distinct finite distances and their pairwise sums."""
    values = sorted({0.0, *(float(v) for v in d.reshape(-1) if math.isfinite(v))})
    grid = sorted({*values, *(a + b for a in values for b in values)})
    rel = {u: (d <= u).astype(np.int64) for u in grid}
    for s in grid:
        for t in grid:
            composed = (rel[s] @ rel[t]) > 0
            if not np.array_equal(composed, d <= s + t):
                return False
    return True


def check_validation(out: dict, *, diameter, gap, path_flag):
    """Compare the `validate` report of a metric (validated against the
    algebra it is a metric on) with the oracle's descriptors."""
    if not out.get("is_filtration"):
        return f"valid filtration rejected: {out.get('violations')}"
    if out.get("is_metric") is not True:
        return f"is_metric = {out.get('is_metric')}, want true"

    def num(v):
        return math.inf if v == "inf" else float(v)

    if not _same(num(out["diameter"]), diameter):
        return f"diameter = {out['diameter']}, want {diameter}"
    if not _same(num(out["gap"]), gap):
        return f"gap = {out['gap']}, want {gap}"
    if out["path_flag"] != path_flag:
        return f"path_flag = {out['path_flag']}, want {path_flag}"
    return None


def check_violation(code: int, out: dict, kind: str, where: str):
    """A broken axiom exits 2 and is named in the report."""
    if code != 2:
        return f"exit code {code} for a broken {kind}, want 2"
    if [kind, where] not in out.get("violations", []):
        return f"violation {kind} at {where} not reported: {out.get('violations')}"
    return None


def bfs_distances(adj: np.ndarray) -> np.ndarray:
    """All-pairs unweighted shortest paths; inf where disconnected."""
    n = adj.shape[0]
    dist = np.full((n, n), math.inf)
    for s in range(n):
        dist[s, s] = 0.0
        frontier = [s]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for u in frontier:
                for v in np.flatnonzero(adj[u]):
                    if not math.isfinite(dist[s, v]):
                        dist[s, v] = level
                        nxt.append(int(v))
            frontier = nxt
    return dist


def check_graph_metric(adj: np.ndarray, got: np.ndarray):
    want = bfs_distances(adj)
    if not np.array_equal(got, want):
        return "generated graph metric differs from BFS distances"
    return None


def expected_m2(a: float, b: float, c: float):
    """Descriptors of the canonical M_2 pseudometric with parameters
    a <= b <= c <= a + b, from the Pauli multiplication table.

    The chain is C.I, span{I, Z}, span{I, Z, X}, M_2 (dims 1, 2, 3, 4).
    Products: Z Z = I keeps span{I, Z}; any product involving X and Z holds
    ZX = iY and fills M_2; X X = I, but span{I,Z,X}^2 contains ZX too."""

    def dim(u):
        return 1 if u < a else 2 if u < b else 3 if u < c else 4

    def prod(x, y):
        if min(x, y) == 1:
            return max(x, y)
        return 2 if x == y == 2 else 4

    values = sorted({0.0, a, b, c})
    grid = sorted({*values, *(s + t for s in values for t in values)})
    path = all(prod(dim(s), dim(t)) == dim(s + t) for s in grid for t in grid)
    gap = min(v for v in (a, b, c) if v > 0)
    return c, gap, path


# ---------------------------------------------------------------- inversion


def check_gauge_recovery(levels, breakpoints, probes, owners, gauges):
    """Gauge inversion: a generic mixture of level i has gauge t_i, every
    element has gauge at most the time of the level it was drawn from, and
    the elements with gauge <= t_i span exactly V_{t_i}."""
    for (owner, mixture), g in zip(owners, gauges):
        if mixture and g != breakpoints[owner]:
            return f"gauge of a generic mixture of level {owner} = {g}, want {breakpoints[owner]}"
        if g > breakpoints[owner]:
            return f"gauge {g} exceeds the time {breakpoints[owner]} of its level"
    flat = [np.asarray(p).reshape(-1) for p in probes]
    for i, (t, lv) in enumerate(zip(breakpoints, levels)):
        kept = np.array([v for v, g in zip(flat, gauges) if g <= t])
        base = lv.reshape(lv.shape[0], -1)
        if _rank(kept) != base.shape[0] or _rank(np.concatenate([kept, base])) != base.shape[0]:
            return f"elements with gauge <= {t} do not span V_{t}"
    return None


def witness_constraints(p: np.ndarray, q: np.ndarray, n: int, m: int) -> np.ndarray:
    """Rows vec(P (E_ij (x) I_m) Q) per matrix unit, by explicit Kronecker
    products; column (i, j) is the coefficient of E_ij."""
    cols = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            cols.append((p @ np.kron(e, np.eye(m)) @ q).reshape(-1))
    return np.stack(cols, axis=1)


def check_probe_inversion(level: np.ndarray, pairs, rebuilt: np.ndarray):
    """Probe inversion at one breakpoint.

    ``level`` is the basis of V_t, ``pairs`` the witness pairs as
    (P, Q, n, m) and ``rebuilt`` the basis the program rebuilt.  Each pair
    must annihilate V_t under explicit Kronecker compression, the pairs
    together must cut out exactly V_t, and the rebuilt basis must span V_t.
    """
    k, n, _ = level.shape
    if len(pairs) != n * n - k:
        return f"{len(pairs)} witness pairs for a level of dim {k} in M_{n}"
    blocks = []
    for p, q, _, m in pairs:
        for b in level:
            if np.linalg.norm(p @ np.kron(b, np.eye(m)) @ q) > TOL:
                return "a witness pair does not annihilate the level"
        blocks.append(witness_constraints(p, q, n, m))
    if pairs and n * n - _rank(np.concatenate(blocks)) != k:
        return "witness pairs do not cut out the level"
    base = level.reshape(k, -1)
    got = rebuilt.reshape(rebuilt.shape[0], -1)
    if got.shape[0] != k or _rank(np.concatenate([base, got])) != k:
        return f"rebuilt level (dim {got.shape[0]}) != V_t (dim {k})"
    return None


# -------------------------------------------------------------------- codes

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}

# Stabilizer generators and the known parameters of each code, measured
# against all Pauli errors: the bit-flip repetition code misses Z_1, so its
# distance is 1 (Gottesman, quant-ph/9705052; Laflamme et al.,
# quant-ph/9602019).
STABILIZER_CODES = {
    "rep3": {"stabilizers": ["ZZI", "IZZ"], "dim": 2, "distance": 1},
    "c422": {"stabilizers": ["XXXX", "ZZZZ"], "dim": 4, "distance": 2},
    # a perfect code: at k = 2 the volume bound 32 / dim_K = 32 / 16 is tight
    "c513": {"stabilizers": ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"], "dim": 2, "distance": 3,
             "volume": {2: (16, 2.0)}},
    "c642": {"stabilizers": ["XXXXXX", "ZZZZZZ"], "dim": 16, "distance": 2},
}


def pauli_matrix(word: str) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for c in word:
        out = np.kron(out, PAULI[c])
    return out


def stabilizer_projector(stabilizers) -> np.ndarray:
    """prod_g (I + g) / 2 over the generators."""
    n = len(stabilizers[0])
    p = np.eye(2 ** n, dtype=complex)
    for g in stabilizers:
        p = p @ (np.eye(2 ** n) + pauli_matrix(g)) / 2
    return p


def pauli_words(n: int, max_weight: int):
    """Pauli strings on n qubits with at most ``max_weight`` non-identities."""
    for w in range(max_weight + 1):
        for sites in combinations(range(n), w):
            for letters in product("XYZ", repeat=w):
                word = ["I"] * n
                for s, c in zip(sites, letters):
                    word[s] = c
                yield "".join(word)


def _symplectic(word: str):
    x = sum(1 << i for i, c in enumerate(word) if c in "XY")
    z = sum(1 << i for i, c in enumerate(word) if c in "ZY")
    return x, z


def stabilizer_distance(stabilizers) -> float:
    """Smallest weight of a Pauli error that commutes with every generator
    without lying in the stabilizer group (phases ignored); inf if none.
    Such an error is a nontrivial logical operator, so P E P is not a
    multiple of P: the Knill-Laflamme condition fails exactly there."""
    n = len(stabilizers[0])
    gens = [_symplectic(g) for g in stabilizers]
    group = set()
    for mask in range(1 << len(gens)):
        x = z = 0
        for i, (gx, gz) in enumerate(gens):
            if mask >> i & 1:
                x ^= gx
                z ^= gz
        group.add((x, z))
    for word in pauli_words(n, n):
        ex, ez = _symplectic(word)
        commutes = all(bin(ex & gz).count("1") % 2 == bin(ez & gx).count("1") % 2 for gx, gz in gens)
        if commutes and (ex, ez) not in group:
            return float(n - word.count("I"))
    return math.inf


def block_errors(blocks, max_weight: int):
    """Block-embedded Pauli strings of weight <= max_weight on each block of
    the mixed model (+)_b M_{2^{n_b}}."""
    total = sum(2 ** b for b in blocks)
    off = 0
    for b in blocks:
        size = 2 ** b
        for word in pauli_words(b, min(max_weight, b)):
            e = np.zeros((total, total), dtype=complex)
            e[off:off + size, off:off + size] = pauli_matrix(word)
            yield e
        off += size


def hamming_errors(n: int, max_weight: int):
    """Pauli strings of weight <= max_weight: they span the Hamming level."""
    for word in pauli_words(n, max_weight):
        yield pauli_matrix(word)


def explicit_kl(p: np.ndarray, errors) -> bool:
    """Knill-Laflamme: P E P is a multiple of P for every error E."""
    tr = float(np.trace(p).real)
    for e in errors:
        c = p @ e @ p
        if np.linalg.norm(c - (np.trace(c) / tr) * p) > TOL:
            return False
    return True


def explicit_distance(p: np.ndarray, errors_by_weight) -> float:
    """First weight at which span{P E P} grows past its weight-0 dimension."""
    base = None
    for w, errors in errors_by_weight:
        rows = np.array([(p @ e @ p).reshape(-1) for e in errors])
        r = _rank(rows)
        if base is None:
            base = r
        elif r > base:
            return float(w)
    return math.inf


def explicit_dim_k(p: np.ndarray, errors) -> int:
    """Rank of the form <A, B> = tr(P B* A P) / tr(P) over the errors."""
    mats = list(errors)
    tr = float(np.trace(p).real)
    gram = np.array([[np.trace(p @ b.conj().T @ a @ p) / tr for b in mats] for a in mats])
    w = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    return int(np.sum(w > 1e-9 * max(float(w[-1]), 1.0)))


def check_audit(detects: bool, want_detects: bool, volume, want_dim_k, ambient: int, code_dim: int):
    """kl_check agrees with the oracle; the volume bound holds whenever the
    audit detects and its dim_K is the oracle's Gram rank."""
    if detects != want_detects:
        return f"kl_check detects = {detects}, want {want_detects}"
    if detects:
        if volume is None:
            return "no volume bound for a detecting code"
        dim_k, bound, holds = volume
        if dim_k != want_dim_k:
            return f"volume bound dim_K = {dim_k}, want {want_dim_k}"
        if not holds or code_dim > bound + TOL:
            return f"volume bound fails: dim {code_dim} > {bound}"
        if abs(bound - ambient / want_dim_k) > TOL:
            return f"volume bound {bound}, want {ambient}/{want_dim_k}"
    return None


def check_min_distance(got: float, want: float):
    if got != want:
        return f"min_distance = {got}, want {want}"
    return None
