"""Tests of the benchmark itself: every oracle accepts a right result and
rejects a deliberately corrupted one, traced rounds repeat their counts
exactly, and the command refuses to run without the program's sources.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def metric():
    return workloads.dyadic_metric(np.random.default_rng(3), 5)


def units(n, pairs):
    return np.array(workloads._matrix_units(n, pairs))


def test_round_trip_and_point_distances(metric):
    assert oracles.check_round_trip(metric, metric.copy()) is None
    bad = metric.copy()
    bad[0, 1] += 1 / 32
    assert oracles.check_round_trip(metric, bad)
    assert oracles.check_point_distance(metric, 0, 1, metric[0, 1]) is None
    assert oracles.check_point_distance(metric, 0, 1, metric[0, 2] + 1)


def test_indicator_distance(metric):
    want = min(metric[x, y] for x in (0, 1) for y in (3, 4))
    assert oracles.check_indicator_distance(metric, [0, 1], [3, 4], want) is None
    assert oracles.check_indicator_distance(metric, [0, 1], [3, 4], want + 1 / 32)


def test_amplified_distance_uses_block_support():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    # P on point 0 in slot e_0; Q on point 1 in slot e_1 and point 2 in e_0:
    # the (0, 1) block vanishes, so rho is d(0, 2) = 2, not the subset min 1
    v = np.zeros(6, dtype=complex)
    v[0] = 1
    w = np.zeros(6, dtype=complex)
    w[3] = w[4] = 1 / math.sqrt(2)
    p, q = np.outer(v, v.conj()), np.outer(w, w.conj())
    assert oracles.expected_amplified_distance(d, 2, p, q) == 2.0
    assert oracles.check_amplified_distance(d, 2, p, q, 2.0) is None
    assert oracles.check_amplified_distance(d, 2, p, q, 1.0)


def test_lipschitz(metric):
    fv = np.array([0.0, 1.0, -1.0, 0.5, 2.0])
    want = oracles.brute_lipschitz(fv, metric)
    assert oracles.check_lipschitz(fv, metric, want, "L") is None
    assert oracles.check_lipschitz(fv, metric, want * 1.01, "L")


def test_classical_descriptors(metric):
    diameter, gap = oracles.expected_diameter_gap(metric)
    assert diameter == metric.max() and gap == metric[metric > 0].min()
    # values in [2, 4) cannot be a path metric; a graph metric is one
    assert oracles.expected_classical_path_flag(metric) is False
    path4 = oracles.bfs_distances(np.eye(4, k=1, dtype=bool) | np.eye(4, k=-1, dtype=bool))
    assert oracles.expected_classical_path_flag(path4) is True
    good = {"is_filtration": True, "is_metric": True, "diameter": diameter, "gap": gap, "path_flag": False}
    kw = {"diameter": diameter, "gap": gap, "path_flag": False}
    assert oracles.check_validation(good, **kw) is None
    for key, value in (("diameter", diameter + 1), ("gap", "inf"), ("path_flag", True),
                       ("is_metric", False), ("is_filtration", False)):
        assert oracles.check_validation({**good, key: value}, **kw)


def test_m2_descriptors():
    # (1, 2, 3): span{I, Z}^2 = span{I, Z} misses X at t = 2
    assert oracles.expected_m2(1.0, 2.0, 3.0) == (3.0, 1.0, False)
    # equal parameters jump from C.I to M_2, which is a path metric
    assert oracles.expected_m2(1.0, 1.0, 1.0) == (1.0, 1.0, True)


def test_violation():
    out = {"violations": [["product_law", "(1, 1)"]]}
    assert oracles.check_violation(2, out, "product_law", "(1, 1)") is None
    assert oracles.check_violation(0, out, "product_law", "(1, 1)")
    assert oracles.check_violation(2, out, "product_law", "(0, 1)")


def test_graph_metric():
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = True
    bfs = oracles.bfs_distances(adj)
    assert bfs[0, 2] == 2 and math.isinf(bfs[0, 3])
    assert oracles.check_graph_metric(adj, bfs) is None
    bad = bfs.copy()
    bad[0, 2] = bad[2, 0] = 1
    assert oracles.check_graph_metric(adj, bad)


def two_point_levels():
    """Classical metric on two points at distance 1: V_0 diagonal, V_1 = M_2."""
    v0 = units(2, [(0, 0), (1, 1)])
    v1 = units(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    return [v0, v1], [0.0, 1.0]


def test_gauge_recovery():
    levels, bps = two_point_levels()
    mix0, mix1 = levels[0].sum(0), levels[1].sum(0)
    elements = [*levels[0], mix0, *levels[1], mix1]
    owners = [(0, False), (0, False), (0, True)] + [(1, False)] * 4 + [(1, True)]
    gauges = [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0]
    assert oracles.check_gauge_recovery(levels, bps, elements, owners, gauges) is None
    assert oracles.check_gauge_recovery(levels, bps, elements, owners, gauges[:-1] + [0.0])
    assert oracles.check_gauge_recovery(levels, bps, elements, owners, [1.0] + gauges[1:])


def test_probe_inversion():
    levels, _ = two_point_levels()
    e = np.eye(2, dtype=complex)
    p0, p1 = np.outer(e[0], e[0]), np.outer(e[1], e[1])
    pairs = [(p0, p1, 2, 1), (p1, p0, 2, 1)]
    assert oracles.check_probe_inversion(levels[0], pairs, levels[0]) is None
    assert oracles.check_probe_inversion(levels[0], pairs, levels[0][:1])
    assert oracles.check_probe_inversion(levels[0], pairs[:1], levels[0])
    assert oracles.check_probe_inversion(levels[0], [(np.eye(2), p1, 2, 1), pairs[1]], levels[0])
    # two copies of one witness do not cut out the level
    assert oracles.check_probe_inversion(levels[0], [pairs[0], pairs[0]], levels[0])


@pytest.mark.parametrize("name", sorted(oracles.STABILIZER_CODES))
def test_stabilizer_table(name):
    spec = oracles.STABILIZER_CODES[name]
    p = oracles.stabilizer_projector(spec["stabilizers"])
    assert round(float(np.trace(p).real)) == spec["dim"]
    assert oracles.stabilizer_distance(spec["stabilizers"]) == spec["distance"]


def test_five_qubit_code():
    stabs = oracles.STABILIZER_CODES["c513"]["stabilizers"]
    p = oracles.stabilizer_projector(stabs)
    assert oracles.explicit_kl(p, oracles.hamming_errors(5, 2))
    assert not oracles.explicit_kl(p, oracles.hamming_errors(5, 3))
    assert oracles.explicit_dim_k(p, list(oracles.hamming_errors(5, 1))) == 16
    assert oracles.explicit_distance(p, [(w, list(oracles.hamming_errors(5, w))) for w in range(4)]) == 3.0


def test_audit_checks():
    assert oracles.check_audit(True, True, (16, 2.0, True), 16, 32, 2) is None
    assert oracles.check_audit(False, False, None, None, 32, 2) is None
    assert oracles.check_audit(False, True, None, 16, 32, 2)
    assert oracles.check_audit(True, False, (16, 2.0, True), None, 32, 2)
    assert oracles.check_audit(True, True, (15, 32 / 15, True), 16, 32, 2)
    assert oracles.check_audit(True, True, (16, 2.0, False), 16, 32, 2)
    assert oracles.check_audit(True, True, (16, 1.0, True), 16, 32, 2)
    assert oracles.check_min_distance(3.0, 3.0) is None
    assert oracles.check_min_distance(2.0, 3.0)
    assert oracles.check_min_distance(math.inf, 3.0)


def test_block_model_oracle():
    # one vector per block: the block scalars compress to different
    # multiples of the two vectors, so level 0 already fails detection and
    # the compressed span never grows
    p = np.zeros((6, 6), dtype=complex)
    p[0, 0] = p[2, 2] = 1.0
    assert not oracles.explicit_kl(p, oracles.block_errors((1, 2), 0))
    by_weight = [(w, list(oracles.block_errors((1, 2), w))) for w in range(3)]
    assert oracles.explicit_distance(p, by_weight) == math.inf


def traced_round(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
           "--round", "99", "--spawned-at", repr(time.monotonic()), "--trace"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    trace = json.loads(proc.stdout.splitlines()[-1])["trace"]
    return {k: v for k, v in trace.items() if not k.endswith(".self_s")}


def test_traced_rounds_repeat_counts():
    first, second = traced_round("inversion", 5), traced_round("inversion", 5)
    assert first == second
    assert first["geometry.rebuild_level.calls"] > 0 and first["codes.kl_check.calls"] == 0
    os.remove(os.path.join(HERE, "out", "spans-inversion-s5-r99.json"))


def test_refuses_without_sources(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_scaled_round_divides_by_local_speed_factor():
    import run

    nominal, window = run.REFERENCE_NOMINAL_S, run.WINDOW
    jobs = 2 * window + 2
    # the host runs at half speed for the first window + 1 jobs, then at nominal speed
    ref = [2 * nominal] * (window + 1) + [nominal] * (jobs - window)
    round_ = {"setup_s": 1.0, "latencies_s": [0.2] * (window + 1) + [0.1] * (jobs - window - 1),
              "reference_s": ref, "peak_rss_mb": 50.0}
    factors = run.speed_factors(round_)
    assert factors[0] == 2.0 and factors[-1] == 1.0 and 1.0 < factors[window] < 2.0
    got = run.scaled(round_)
    assert got["setup_s"] == 0.5 and got["peak_rss_mb"] == 50.0
    assert got["latencies_s"][0] == 0.1 and got["latencies_s"][-1] == 0.1
