import math

import numpy as np
import pytest

from qwmetric import StepFiltration, from_classical, span
from qwmetric.cli import parse_filtration
from qwmetric.constructions import TimedGenerators, generated_filtration, truncate
from qwmetric.numerics import DEFAULT_CONFIG, random_hermitian
from qwmetric.opspace import VNAlgebra, scalar_space

# physics-convention Paulis (tests that follow the canonical M_2 chain use
# DIAG / REAL_OFF / IMAG_OFF directly)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)

DIAG = PAULI_Z            # the paper-chain dim-2 generator
REAL_OFF = PAULI_X        # the paper-chain dim-3 generator
IMAG_OFF = np.array([[0, 1j], [-1j, 0]], dtype=complex)


def random_metric(n, rng, scale=3.0, allow_zero=False):
    """Random finite metric via shortest-path closure of a symmetric seed."""
    raw = rng.uniform(0.5, scale, size=(n, n))
    d = (raw + raw.T) / 2
    np.fill_diagonal(d, 0.0)
    if allow_zero and n >= 3:
        # glue two points to make it a proper pseudometric
        d[0, 1] = d[1, 0] = 0.0
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def brute_lipschitz(fv, d):
    n = len(fv)
    vals = [abs(fv[x] - fv[y]) / d[x, y] for x in range(n) for y in range(n) if d[x, y] > 0]
    return max(vals, default=0.0)


def bfs_distances(adj):
    """All-pairs unweighted shortest paths; inf where disconnected."""
    n = adj.shape[0]
    dist = np.full((n, n), np.inf)
    for s in range(n):
        dist[s, s] = 0
        frontier = [s]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for u in frontier:
                for v in range(n):
                    if adj[u, v] and not np.isfinite(dist[s, v]):
                        dist[s, v] = level
                        nxt.append(v)
            frontier = nxt
    return dist


def basis_state_projection(n, i):
    p = np.zeros((n, n), dtype=complex)
    p[i, i] = 1.0
    return p


def indicator_projection(n, subset):
    p = np.zeros((n, n), dtype=complex)
    for i in subset:
        p[i, i] = 1.0
    return p


def graph_relation_span(adj):
    n = adj.shape[0]
    mats = []
    for x in range(n):
        for y in range(n):
            if adj[x, y] or x == y:
                e = np.zeros((n, n), dtype=complex)
                e[x, y] = 1.0
                mats.append(e)
    return span(mats, n)


def random_step_filtration(n, rng, levels=None, classical=False):
    """A valid random filtration: either classical or generated from random
    Hermitian operator systems at random times (valid by construction)."""
    if classical:
        f, _ = from_classical(random_metric(n, rng))
        return f
    base = VNAlgebra(n, scalar_space(n).basis, verify=False)
    k = levels or int(rng.integers(1, 3))
    gens = []
    for _ in range(k):
        h = random_hermitian(n, rng)
        t = float(np.round(rng.uniform(0.4, 2.0), 3))
        gens.append((t, span([np.eye(n, dtype=complex), h], n)))
    f = generated_filtration(TimedGenerators(base, gens))
    if rng.random() < 0.3:
        cut = float(f.breakpoints[-1] * rng.uniform(0.6, 1.2))
        if cut > 0:
            f = truncate(f, cut)
    return f


def qwm1(blob):
    """The "qwm/1" file of a "qwm/2" filtration file: every level's basis in
    full, each step's list the one before it followed by the step's entering
    matrices (the same objects)."""
    steps, basis = [], []
    for step in blob["steps"]:
        basis = basis + step["enters"]
        steps.append({"t": step["t"], "basis": basis})
    return {"schema": "qwm/1", "kind": "filtration", "dim": blob["dim"], "steps": steps}


def read_levels(n, breakpoints, levels, cfg=DEFAULT_CONFIG):
    """The filtration the JSON reader gives for a "qwm/1" file listing each
    level's basis in full (OperatorSubspaces, entries written exactly)."""
    steps = [{"t": t, "basis": np.stack([lv.basis.real, lv.basis.imag], axis=-1).tolist()} for t, lv in zip(breakpoints, levels)]
    return parse_filtration({"schema": "qwm/1", "kind": "filtration", "dim": n, "steps": steps}, cfg)


def m2_graded(breakpoints, letters, cuts):
    """The filtration of M_2 whose graded basis is the Paulis named by
    ``letters`` (from "IZXY": DIAG, REAL_OFF and IMAG_OFF for Z, X and Y)
    over sqrt(2), cut at ``cuts``."""
    paulis = {"I": I2, "Z": DIAG, "X": REAL_OFF, "Y": IMAG_OFF}
    return StepFiltration.from_graded(2, breakpoints, np.stack([paulis[c] for c in letters]) / math.sqrt(2), cuts)


def conjugated(f, u):
    """The filtration moved by A -> U A U*: its graded basis conjugated."""
    return StepFiltration.from_graded(f.n, f.breakpoints, u @ f.basis @ u.conj().T, f.cuts)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
