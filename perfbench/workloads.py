"""The four workloads: seeded inputs and fixed job lists.

``build(name, seed, workdir)`` does the workload's set-up (inputs, input
files, filtrations, codes) and returns its jobs.  A job is a name, a
``run`` callable that makes the program calls (timed) and a ``check``
callable that compares the output with the oracles (not timed).

The make-up of each list is fixed: the seed changes the values drawn
(distances, matrices, subsets, code vectors), never the number of jobs,
their sizes or the structure of the filtrations, so every seed costs about
the same work.  Calls go through module attributes (``geometry.rho``) so
that tracing wrappers, when installed, see them.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles


@dataclass
class Job:
    name: str
    run: Callable
    check: Callable


def _rng(seed: int, *key) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def random_metric(rng, n: int) -> np.ndarray:
    """Shortest-path closure of a symmetric uniform [0.5, 3) matrix: generic
    distances, all distinct, so from_classical has n(n-1)/2 + 1 levels."""
    raw = rng.uniform(0.5, 3.0, size=(n, n))
    d = (raw + raw.T) / 2
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


def dyadic_metric(rng, n: int) -> np.ndarray:
    """A metric with exactly five distinct positive distances (fewer if
    there are fewer pairs), drawn from [2, 4) on the grid 1/32.

    In [2, 4) the triangle inequality holds without closure, and every sum
    is exact in floating point and in the 12-digit JSON form.  The values
    have distinct pairwise sums and the i-th smallest is taken by a fixed
    set of pairs (fixed per n), so every seed gives the same levels up to
    the values of the breakpoints and asks for the same work."""
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    k = min(5, len(pairs))
    while True:
        pool = np.sort(rng.choice(np.arange(64, 128), size=k, replace=False)) / 32.0
        sums = [a + b for i, a in enumerate(pool) for b in pool[i:]]
        if len(set(sums)) == len(sums):
            break
    counts = [len(pairs) // k + (i < len(pairs) % k) for i in range(k)]
    ranks = np.repeat(np.arange(k), counts)
    d = np.zeros((n, n))
    for idx, i in zip(np.random.default_rng(n).permutation(len(pairs)), ranks):
        x, y = pairs[idx]
        d[x, y] = d[y, x] = pool[i]
    return d


def unit_projection(n: int, subset) -> np.ndarray:
    p = np.zeros((n, n), dtype=complex)
    for i in subset:
        p[i, i] = 1.0
    return p


def _capture(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _json_matrix(m: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _json_filtration(n: int, steps) -> dict:
    return {
        "schema": "qwm/1",
        "kind": "filtration",
        "dim": n,
        "steps": [{"t": t, "basis": [_json_matrix(b) for b in basis]} for t, basis in steps],
    }


def _write(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _matrix_units(n: int, pairs):
    out = []
    for x, y in pairs:
        e = np.zeros((n, n), dtype=complex)
        e[x, y] = 1.0
        out.append(e)
    return out


# ------------------------------------------------------------------ queries

# job sizes: 40 classical metrics, fixed for every seed
QUERY_SIZES = [5] * 16 + [6] * 10 + [7] * 8 + [8] * 3 + [9] * 2 + [10] * 1


def _amplified_pair(rng, n: int, m: int):
    """Rank-one projections on disjoint point sets whose slot vectors are
    drawn from {e_0, e_1, generic}, so some blocks have P[:, x] Q[y, :] = 0
    and the block-support minimum is not just the subset minimum."""
    points = rng.permutation(n)
    half = n // 2
    vecs = []
    for subset in (points[:half], points[half:]):
        v = np.zeros(n * m, dtype=complex)
        for x in subset:
            kind = rng.integers(0, 3)
            slot = np.eye(m)[kind] if kind < 2 else rng.standard_normal(m) + 1j * rng.standard_normal(m)
            v[x * m:(x + 1) * m] = (rng.standard_normal() + 1j * rng.standard_normal()) * slot
        vecs.append(v / np.linalg.norm(v))
    return [np.outer(v, v.conj()) for v in vecs]


def build_queries(qw, seed: int, workdir: str):
    geometry, filtration, lipschitz = qw.geometry, qw.filtration, qw.lipschitz
    jobs = []
    for j, n in enumerate(QUERY_SIZES):
        rng = _rng(seed, j)
        d = random_metric(rng, n)
        points = [geometry.AmplifiedProjection.base(unit_projection(n, [x])) for x in range(n)]
        indicators = []
        for _ in range(2):
            s = sorted(rng.choice(n, size=n // 2, replace=False).tolist())
            t = sorted(rng.choice(n, size=n // 3, replace=False).tolist())
            indicators.append((s, t, geometry.AmplifiedProjection.base(unit_projection(n, s)),
                               geometry.AmplifiedProjection.base(unit_projection(n, t))))
        amplified = []
        for _ in range(2):
            p, q = _amplified_pair(rng, n, 2)
            amplified.append((p, q, geometry.AmplifiedProjection(n, 2, p), geometry.AmplifiedProjection(n, 2, q)))
        fv = rng.uniform(-2.0, 2.0, n)
        mf = np.diag(fv).astype(complex)
        pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]

        def run(d=d, points=points, indicators=indicators, amplified=amplified, mf=mf, pairs=pairs):
            f, ctx = filtration.from_classical(d)
            back = filtration.to_classical(f, ctx)
            rhos = [geometry.rho(f, points[x], points[y]) for x, y in pairs]
            ind = [geometry.rho(f, a, b) for _, _, a, b in indicators]
            amp = [geometry.rho(f, a, b) for _, _, a, b in amplified]
            ls = lipschitz.spectral_lipschitz(f, mf).value
            lc = lipschitz.commutation_lipschitz_lower(f, mf, budget=lipschitz.AscentBudget.deterministic()).value
            return back, rhos, ind, amp, ls, lc

        def check(out, d=d, indicators=indicators, amplified=amplified, fv=fv, pairs=pairs):
            back, rhos, ind, amp, ls, lc = out
            msgs = [oracles.check_round_trip(d, back)]
            msgs += [oracles.check_point_distance(d, x, y, r) for (x, y), r in zip(pairs, rhos)]
            msgs += [oracles.check_indicator_distance(d, s, t, r) for (s, t, _, _), r in zip(indicators, ind)]
            msgs += [oracles.check_amplified_distance(d, 2, p, q, r) for (p, q, _, _), r in zip(amplified, amp)]
            msgs.append(oracles.check_lipschitz(fv, d, ls, "spectral_lipschitz"))
            msgs.append(oracles.check_lipschitz(fv, d, lc, "commutation_lipschitz_lower"))
            return next((m for m in msgs if m), None)

        jobs.append(Job(f"queries[{j}] n={n}", run, check))
    return jobs


# ------------------------------------------------------------------- axioms

AXIOM_CLASSICAL = [4, 5, 6] * 4 + [7]  # build classical | validate
AXIOM_TRUNCATE = [5, 5, 6, 6]  # build classical | transform truncate | validate
AXIOM_PRODUCT = [(2, 2), (2, 3), (3, 2), (2, 2)]  # transform product (max metric)
AXIOM_LP = [(2, 2), (2, 2)]  # transform lp --p 1 (sum metric)
AXIOM_M2 = 5  # build m2 | validate
AXIOM_BLOCKS = ["1,1", "1,2", "2,1"]  # build blocks | validate
# generated_filtration | emit | validate on fixed graphs: a 5-cycle, a
# 4-path, a triangle beside a 3-path (two components) and a 5-star.  They
# are not relabelled by the seed: relabelling a 5-path changed the cost of
# its job by up to 3x.
AXIOM_GRAPHS = [
    (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    (4, [(0, 1), (1, 2), (2, 3)]),
    (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]),
    (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
]


def _invalid_filtrations():
    """Hand-written filtrations, each breaking one axiom: (name, json,
    violated axiom, where, as printed by validate)."""
    i2 = np.eye(2, dtype=complex)
    e00, e01 = _matrix_units(2, [(0, 0), (0, 1)])
    diag3 = _matrix_units(3, [(0, 0), (1, 1), (2, 2)])
    near = diag3 + _matrix_units(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    full3 = _matrix_units(3, [(x, y) for x in range(3) for y in range(3)])
    return [
        ("non-unital zero level", _json_filtration(2, [(0.0, [e00])]), "not_operator_system", "0"),
        ("non-self-adjoint level", _json_filtration(2, [(0.0, [i2]), (1.0, [i2, e01])]), "not_operator_system", "1"),
        ("repeated level", _json_filtration(2, [(0.0, [i2]), (1.0, [i2]), (2.0, _matrix_units(2, [(0, 0), (0, 1), (1, 0), (1, 1)]))]),
         "not_strictly_increasing", "0"),
        # d(0, 2) = 3 > d(0, 1) + d(1, 2) = 2 breaks V_1 V_1 c V_2
        ("triangle-breaking levels", _json_filtration(3, [(0.0, diag3), (1.0, near), (3.0, full3)]), "product_law", "(1, 1)"),
    ]


def _m2_triple(rng):
    """a < b < c <= a + b on the grid 1/8 (exact sums)."""
    while True:
        a, b, c = sorted(rng.integers(4, 33, size=3) / 8.0)
        if a < b < c <= a + b:
            return float(a), float(b), float(c)


def _graph(n: int, edges) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for x, y in edges:
        adj[x, y] = adj[y, x] = True
    return adj


def build_axioms(qw, seed: int, workdir: str):
    cli, filtration, constructions, opspace = qw.cli, qw.filtration, qw.constructions, qw.opspace
    jobs = []

    def path(name):
        return os.path.join(workdir, name)

    def algebra(name, mats):
        return _write(path(name), [_json_matrix(m) for m in mats])

    def diag_algebra(n):
        return algebra(f"diag{n}.json", _matrix_units(n, [(x, x) for x in range(n)]))

    def distance_file(name, d):
        return _write(path(name), [["inf" if math.isinf(v) else float(v) for v in row] for row in d])

    def pipeline(name, stages, check):
        """Run the CLI stages in order; a stage with an output file writes
        its stdout there, as a shell pipe would."""

        def run():
            results = []
            for argv, out in stages:
                code, text, err = _capture(cli.main, argv)
                if out is not None:
                    with open(out, "w") as fh:
                        fh.write(text)
                results.append((code, text, err))
            return results

        def checked(results):
            for code, _, err in results[:-1]:
                if code != 0:
                    return f"stage exited {code}: {err.strip()[:200]}"
            code, text, err = results[-1]
            try:
                out = json.loads(text)
            except json.JSONDecodeError:
                return f"validate printed no JSON (exit {code}): {err.strip()[:200]}"
            return check(code, out)

        jobs.append(Job(name, run, checked))

    def expect_valid(d=None, descr=None):
        if descr is None:
            diameter, gap = oracles.expected_diameter_gap(d)
            descr = (diameter, gap, oracles.expected_classical_path_flag(d))
        diameter, gap, path_flag = descr

        def check(code, out):
            if code != 0:
                return f"validate exited {code}"
            return oracles.check_validation(out, diameter=diameter, gap=gap, path_flag=path_flag)

        return check

    def validate_argv(fpath, alg):
        return (["validate", "--filtration", fpath, "--algebra", alg], None)

    for j, n in enumerate(AXIOM_CLASSICAL):
        d = dyadic_metric(_rng(seed, 1, j), n)
        src, fil = distance_file(f"c{j}.json", d), path(f"c{j}.f.json")
        pipeline(f"axioms classical n={n} [{j}]",
                 [(["build", "classical", "--matrix", src], fil), validate_argv(fil, diag_algebra(n))],
                 expect_valid(d))
    for j, n in enumerate(AXIOM_TRUNCATE):
        rng = _rng(seed, 2, j)
        d = dyadic_metric(rng, n)
        cut_between = sorted({v for v in d.reshape(-1) if v > 0})[2:4]
        at = float(sum(cut_between) / 2)
        src, fil, cut = distance_file(f"t{j}.json", d), path(f"t{j}.f.json"), path(f"t{j}.cut.json")
        pipeline(f"axioms truncate n={n} at={at} [{j}]",
                 [(["build", "classical", "--matrix", src], fil),
                  (["transform", "truncate", "--filtration", fil, "--at", repr(at)], cut),
                  validate_argv(cut, diag_algebra(n))],
                 expect_valid(np.minimum(d, at)))
    for kind, sizes in (("product", AXIOM_PRODUCT), ("lp", AXIOM_LP)):
        for j, (na, nb) in enumerate(sizes):
            rng = _rng(seed, 3 if kind == "product" else 4, j)
            da, db = dyadic_metric(rng, na), dyadic_metric(rng, nb)
            # the product on C^na (x) C^nb: max metric, l1 (p = 1) sum metric
            combine = np.maximum if kind == "product" else np.add
            dp = combine(da[:, None, :, None], db[None, :, None, :]).reshape(na * nb, na * nb)
            fa, fb, out = path(f"{kind}{j}.a.json"), path(f"{kind}{j}.b.json"), path(f"{kind}{j}.out.json")
            extra = ["--p", "1"] if kind == "lp" else []
            pipeline(f"axioms {kind} {na}x{nb} [{j}]",
                     [(["build", "classical", "--matrix", distance_file(f"{kind}{j}.da.json", da)], fa),
                      (["build", "classical", "--matrix", distance_file(f"{kind}{j}.db.json", db)], fb),
                      (["transform", kind, "--filtration", fa, "--with", fb, *extra], out),
                      validate_argv(out, diag_algebra(na * nb))],
                     expect_valid(dp))
    full2 = algebra("full2.json", _matrix_units(2, [(x, y) for x in range(2) for y in range(2)]))
    for j in range(AXIOM_M2):
        a, b, c = _m2_triple(_rng(seed, 5, j))
        fil = path(f"m2_{j}.json")
        pipeline(f"axioms m2 ({a}, {b}, {c})",
                 [(["build", "m2", "--a", repr(a), "--b", repr(b), "--c", repr(c)], fil), validate_argv(fil, full2)],
                 expect_valid(descr=oracles.expected_m2(a, b, c)))
    full4 = algebra("full4.json", _matrix_units(4, [(x, y) for x in range(4) for y in range(4)]))
    fil = path("hamming2.json")
    # Hamming distance on 2 qubits: diameter 2, gap 1, a path metric
    pipeline("axioms hamming sites=2",
             [(["build", "hamming", "--sites", "2"], fil), validate_argv(fil, full4)],
             expect_valid(descr=(2.0, 1.0, True)))
    for j, spec in enumerate(AXIOM_BLOCKS):
        sizes = [2 ** int(b) for b in spec.split(",")]
        total, off, units = sum(sizes), 0, []
        for s in sizes:
            units += _matrix_units(total, [(off + x, off + y) for x in range(s) for y in range(s)])
            off += s
        fil = path(f"blocks{j}.json")
        # blocks never meet: infinite diameter; each block is a Hamming
        # path metric, so the sum keeps gap 1 and the path property
        pipeline(f"axioms blocks {spec}",
                 [(["build", "blocks", "--blocks", spec], fil), validate_argv(fil, algebra(f"blocks{j}.alg.json", units))],
                 expect_valid(descr=(math.inf, 1.0, True)))
    for j, (n, edges) in enumerate(AXIOM_GRAPHS):
        adj = _graph(n, edges)
        fil, alg = path(f"graph{j}.json"), diag_algebra(n)
        relation = _matrix_units(n, [(x, y) for x in range(n) for y in range(n) if adj[x, y] or x == y])

        def run(n=n, fil=fil, alg=alg, relation=relation):
            ctx = filtration.MetricContext.diagonal(n)
            tg = constructions.TimedGenerators(ctx.commutant, [(1.0, opspace.span(relation, n))])
            f = constructions.generated_filtration(tg)
            dist = filtration.to_classical(f, ctx)
            with open(fil, "w") as fh:
                json.dump(cli.emit_filtration(f), fh)
            return dist, _capture(cli.main, ["validate", "--filtration", fil, "--algebra", alg])

        def check(out, adj=adj):
            dist, (code, text, _) = out
            return (oracles.check_graph_metric(adj, dist)
                    or expect_valid(oracles.bfs_distances(adj))(code, json.loads(text)))

        jobs.append(Job(f"axioms graph n={n} [{j}]", run, check))
    for j, (name, obj, kind, where) in enumerate(_invalid_filtrations()):
        fil = _write(path(f"invalid{j}.json"), obj)
        pipeline(f"axioms invalid: {name}", [(["validate", "--filtration", fil], None)],
                 lambda code, out, kind=kind, where=where: oracles.check_violation(code, out, kind, where))
    return jobs


# ---------------------------------------------------------------- inversion

# (n, kind): classical metrics, generated chains from one Hermitian
# generator at t = 1 (dims 1..n), two generators at t = 1 and 1.7, and a
# two-generator filtration truncated at 2.5; 40 jobs for every seed.
# Generated filtrations stop at n = 3: the probe inversion of one n = 4
# chain took 3.5 s, two thirds of a round, so a run held only four rounds
# and the job percentiles spread by 0.25 over ten runs (0.06 with it left
# out and eight rounds a run).
INVERSION_SLOTS = (
    [(2, "classical")] * 5 + [(3, "classical")] * 5 + [(4, "classical")] * 5
    + [(2, "one")] * 5 + [(3, "one")] * 5
    + [(2, "two")] * 4 + [(3, "two")] * 5
    + [(2, "truncated")] * 3 + [(3, "truncated")] * 3
)


def _hermitian(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def _inversion_filtration(qw, rng, n: int, kind: str):
    constructions, opspace = qw.constructions, qw.opspace
    if kind == "classical":
        return qw.filtration.from_classical(random_metric(rng, n))[0]
    base = opspace.VNAlgebra(n, opspace.scalar_space(n).basis, verify=False)
    times = [1.0] if kind == "one" else [1.0, 1.7]
    gens = [(t, opspace.span([np.eye(n, dtype=complex), _hermitian(rng, n)], n)) for t in times]
    f = constructions.generated_filtration(constructions.TimedGenerators(base, gens))
    return constructions.truncate(f, 2.5) if kind == "truncated" else f


def build_inversion(qw, seed: int, workdir: str):
    geometry = qw.geometry
    jobs = []
    for j, (n, kind) in enumerate(INVERSION_SLOTS):
        rng = _rng(seed, j)
        f = _inversion_filtration(qw, rng, n, kind)
        elements, owners = [], []
        for i, lv in enumerate(f.levels):
            elements += list(lv.basis)
            owners += [(i, False)] * lv.dim
            w = rng.standard_normal(lv.dim) + 1j * rng.standard_normal(lv.dim)
            elements.append(np.tensordot(w, lv.basis, axes=(0, 0)))
            owners.append((i, True))

        def run(f=f, elements=elements):
            gauges = [f.displacement_gauge(m) for m in elements]
            rebuilt = []
            for t in f.breakpoints:
                probes = geometry.probes_for_level(f, t)
                level = geometry.rebuild_level(f, t, probes)
                rebuilt.append(([(p.matrix, q.matrix, p.n, p.m) for p, q in probes], level.basis))
            return gauges, rebuilt

        def check(out, f=f, elements=elements, owners=owners):
            gauges, rebuilt = out
            levels = [lv.basis for lv in f.levels]
            msg = oracles.check_gauge_recovery(levels, f.breakpoints, elements, owners, gauges)
            for lv, (pairs, basis) in zip(levels, rebuilt):
                msg = msg or oracles.check_probe_inversion(lv, pairs, basis)
            return msg

        jobs.append(Job(f"inversion[{j}] n={n} {kind} dims={[lv.dim for lv in f.levels]}", run, check))
    return jobs


# -------------------------------------------------------------------- audit

# random codes: (qubits, rank) on the Hamming models; block codes on the
# mixed model M_2 (+) M_4 (blocks of 1 and 2 qubits)
AUDIT_RANDOM = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]
AUDIT_BLOCKS = (1, 2)


def _isometry_projector(v: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(v)
    return q @ q.conj().T


def build_audit(qw, seed: int, workdir: str):
    codes = qw.codes
    models = {n: codes.hamming_filtration(n, 2) for n in range(2, 7)}
    blocks = codes.block_filtration(list(AUDIT_BLOCKS))
    cases = []  # (name, code, largest k, known detects(k) or None, errors(weight), known distance or None)
    for name, spec in oracles.STABILIZER_CODES.items():
        n = len(spec["stabilizers"][0])
        p = oracles.stabilizer_projector(spec["stabilizers"])
        errors = lambda w, n=n: oracles.hamming_errors(n, w)
        # past k = d + 1 a level only adds errors that already fail
        kmax = min(n, spec["distance"] + 1)
        cases.append((name, codes.QuantumCode(p, models[n]), kmax, lambda k, d=spec["distance"]: k < d,
                      errors, spec["distance"]))
    rng = _rng(seed, 0)
    for n, r in AUDIT_RANDOM:
        v = rng.standard_normal((2 ** n, r)) + 1j * rng.standard_normal((2 ** n, r))
        p = _isometry_projector(v)
        errors = lambda w, n=n: oracles.hamming_errors(n, w)
        cases.append((f"random{n}q-r{r}", codes.QuantumCode(p, models[n]), n, None, errors, None))
    total = sum(2 ** b for b in AUDIT_BLOCKS)
    # rank 1 inside the larger block; rank 2 with one vector per block
    u = np.zeros((total, 2), dtype=complex)
    u[2:, 0] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u[:2, 1] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    for r in (1, 2):
        p = _isometry_projector(u[:, :r])
        errors = lambda w: oracles.block_errors(AUDIT_BLOCKS, w)
        cases.append((f"blocks-r{r}", codes.QuantumCode(p, blocks), max(AUDIT_BLOCKS), None, errors, None))

    jobs = []
    for name, code, kmax, detects_at, errors, distance in cases:
        p, ambient, dim = code.projector, code.error_model.n, code.dim_code
        known_volume = oracles.STABILIZER_CODES.get(name, {}).get("volume", {})
        for k in range(kmax + 1):

            def run(code=code, k=k):
                report = codes.kl_check(code, k)
                if not report.detects:
                    return False, None
                vol = codes.volume_bound(code, k)
                return True, (vol.dim_k, vol.bound, vol.holds)

            def check(out, p=p, k=k, detects_at=detects_at, errors=errors, ambient=ambient, dim=dim,
                      known=known_volume.get(k)):
                want = detects_at(k) if detects_at else oracles.explicit_kl(p, errors(k))
                dim_k = oracles.explicit_dim_k(p, list(errors(k // 2))) if want else None
                if known is not None and out[1] is not None and out[1][:2] != known:
                    return f"volume bound (dim_K, bound) = {out[1][:2]}, want {known}"
                return oracles.check_audit(out[0], want, out[1], dim_k, ambient, dim)

            jobs.append(Job(f"audit {name} kl k={k}", run, check))

        def run_md(code=code):
            return codes.min_distance(code)

        def check_md(got, p=p, kmax=kmax, errors=errors, distance=distance):
            if distance is not None:
                want = float(distance)
            else:
                want = oracles.explicit_distance(p, [(w, list(errors(w))) for w in range(kmax + 1)])
            return oracles.check_min_distance(got, want)

        jobs.append(Job(f"audit {name} min_distance", run_md, check_md))
    return jobs


BUILDERS = {
    "queries": build_queries,
    "axioms": build_axioms,
    "inversion": build_inversion,
    "audit": build_audit,
}


def build(qw, name: str, seed: int, workdir: str):
    """Set up the workload and return its jobs in a fixed shuffled order.

    The host's speed drifts over seconds; the shuffle spreads jobs of one
    kind over the whole round, so a percentile over the jobs averages that
    drift instead of sampling one stretch of it.  The order is the same for
    every seed."""
    jobs = BUILDERS[name](qw, seed, workdir)
    return [jobs[i] for i in np.random.default_rng(0).permutation(len(jobs))]
