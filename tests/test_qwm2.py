"""The "qwm/2" filtration file: the graded basis written once, cut at its
cuts.  Round trips are bitwise, a "qwm/1" file of the same filtration reads
to the same filtration and every command reports it byte for byte alike,
and a basis that is not kept as given reads as its "qwm/1" levels do."""

import json
import math
import warnings

import numpy as np
import pytest

from qwmetric import AmplifiedProjection, MetricContext, from_classical
from qwmetric.cli import _dump, _fmt, emit_filtration, emit_matrix, emit_projection, main, parse_filtration
from qwmetric.codes import hamming_filtration
from qwmetric.constructions import TimedGenerators, generated_filtration, m2_metric, truncate
from qwmetric.errors import SchemaError
from qwmetric.numerics import DEFAULT_CONFIG, random_unitary

from conftest import graph_relation_span, qwm1

D3 = np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]])
D_INF = np.array([[0.0, 1, math.inf], [1, 0, math.inf], [math.inf, math.inf, 0]])


def graph_metric(edges, n):
    adj = np.zeros((n, n), dtype=bool)
    for x, y in edges:
        adj[x, y] = adj[y, x] = True
    tg = TimedGenerators(MetricContext.diagonal(n).commutant, [(1.0, graph_relation_span(adj))])
    return generated_filtration(tg)


CASES = {
    "hamming-1": lambda: hamming_filtration(1, 2),
    "hamming-2": lambda: hamming_filtration(2, 2),
    "hamming-3": lambda: hamming_filtration(3, 2),
    "m2": lambda: m2_metric(1, 2, 3),
    "classical-inf": lambda: from_classical(D_INF)[0],
    "graph-path-4": lambda: graph_metric([(0, 1), (1, 2), (2, 3)], 4),
    "graph-cycle-5": lambda: graph_metric([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 5),
    "truncation": lambda: truncate(from_classical(D3)[0], 1.5),
}


def same(f, g):
    return f.n == g.n and f.breakpoints == g.breakpoints and f.cuts == g.cuts and np.array_equal(f.basis, g.basis)


@pytest.mark.parametrize("name", sorted(CASES))
def test_round_trip_is_bitwise(name):
    f = CASES[name]()
    text = _dump(emit_filtration(f))
    g = parse_filtration(json.loads(text), DEFAULT_CONFIG)
    written = np.array(emit_matrix(f.basis)).view(complex)[..., 0]
    assert g.cuts == f.cuts
    assert g.breakpoints == [_fmt(t) for t in f.breakpoints]
    assert np.array_equal(g.basis, written)
    assert _dump(emit_filtration(g)) == text


def test_a_written_file_is_read_without_the_growth_loop(monkeypatch):
    """The writer's graded basis is kept as given, nested by construction, in
    either shape: no block is re-spanned or tested for nesting."""
    from qwmetric import cli

    calls = []
    grown = cli._grown_levels
    monkeypatch.setattr(cli, "_grown_levels", lambda *a: calls.append(len(a[2])) or grown(*a))
    for name in sorted(CASES):
        blob = json.loads(json.dumps(emit_filtration(CASES[name]())))
        parse_filtration(blob, DEFAULT_CONFIG)
        parse_filtration(qwm1(blob), DEFAULT_CONFIG)
        assert not calls
    # an entering element scaled off unit size: the basis is re-spanned
    blob = json.loads(json.dumps(emit_filtration(CASES["hamming-2"]())))
    blob["steps"][1]["enters"][0] = emit_matrix(2 * np.array(blob["steps"][1]["enters"][0]).view(complex)[..., 0])
    parse_filtration(blob, DEFAULT_CONFIG)
    assert calls == [len(blob["steps"])]


@pytest.mark.parametrize("name", sorted(CASES))
def test_both_shapes_read_to_one_filtration(name):
    blob = json.loads(json.dumps(emit_filtration(CASES[name]())))
    assert blob["schema"] == "qwm/2"
    assert same(parse_filtration(blob, DEFAULT_CONFIG), parse_filtration(qwm1(blob), DEFAULT_CONFIG))


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def outputs(tmp_path, capsys, blob, runs):
    """stdout, stderr and exit code of each run, with {f} the filtration file."""
    fpath = write(tmp_path, "f.json", blob)
    got = []
    for argv in runs:
        code = main([a.format(f=fpath) for a in argv])
        out = capsys.readouterr()
        got.append((code, out.out, out.err))
    return got


def reading_runs(tmp_path, n):
    """A run of every command that reads a filtration, on n x n inputs."""
    diag = np.diag(np.arange(n, dtype=float)).astype(complex)
    e0 = np.zeros((n, n), dtype=complex)
    e0[0, 0] = 1.0
    p = write(tmp_path, "p.json", emit_projection(AmplifiedProjection.base(e0)))
    q = write(tmp_path, "q.json", emit_projection(AmplifiedProjection.base(np.eye(n) - e0)))
    m = write(tmp_path, "m.json", emit_matrix(diag))
    proj = write(tmp_path, "proj.json", emit_matrix(e0))
    alg = write(tmp_path, "alg.json", [emit_matrix(diag)])
    runs = [
        ["validate", "--filtration", "{f}"],
        ["validate", "--filtration", "{f}", "--algebra", alg],
        ["gauge", "--filtration", "{f}", "--matrix", m],
        ["distance", "--filtration", "{f}", "--p", p, "--q", q],
        ["--budget", "1", "lipschitz", "--filtration", "{f}", "--matrix", m],
        ["code-check", "--filtration", "{f}", "--projector", proj, "--k", "1"],
        ["transform", "truncate", "--filtration", "{f}", "--at", "1.5"],
        ["transform", "hoelder", "--filtration", "{f}", "--alpha", "0.5"],
        ["transform", "meet", "--filtration", "{f}", "--with", "{f}"],
        ["transform", "product", "--filtration", "{f}", "--with", "{f}"],
        ["transform", "lp", "--filtration", "{f}", "--with", "{f}", "--p", "2"],
        ["transform", "direct-sum", "--filtration", "{f}", "--with", "{f}", "--bridge", "10"],
    ]
    return runs + ([["classify-m2", "--filtration", "{f}"]] if n == 2 else [])


@pytest.mark.parametrize("name", ["m2", "hamming-2", "classical-inf", "truncation"])
def test_every_command_reports_both_shapes_alike(tmp_path, capsys, name):
    f = CASES[name]()
    blob = emit_filtration(f)
    runs = reading_runs(tmp_path, f.n)
    graded = outputs(tmp_path, capsys, blob, runs)
    assert graded == outputs(tmp_path, capsys, qwm1(blob), runs)
    # a filtration is written as qwm/2; every other object keeps its qwm/1 tag
    for argv, (code, out, err) in zip(runs, graded):
        assert code in (0, 2)
        assert json.loads(out or err)["schema"] == ("qwm/2" if "transform" in argv and out else "qwm/1")


def test_an_empty_enters_list_is_a_repeated_level(tmp_path, capsys):
    blob = json.loads(json.dumps(emit_filtration(m2_metric(1, 2, 3))))
    blob["steps"].insert(1, {"t": 0.5, "enters": []})
    f = parse_filtration(blob, DEFAULT_CONFIG)
    assert f.cuts == [1, 1, 2, 3, 4]
    runs = [["validate", "--filtration", "{f}"]]
    graded = outputs(tmp_path, capsys, blob, runs)
    assert graded == outputs(tmp_path, capsys, qwm1(blob), runs)
    code, out, _ = graded[0]
    assert code == 2 and json.loads(out)["violations"] == [["not_strictly_increasing", "0"]]


@pytest.mark.parametrize("tol", [1e-16, 1e-300])
def test_a_graded_file_is_nested_under_any_tolerance(tol):
    """Entries written to 12 digits are orthonormal only to about 1e-13, so
    under a smaller membership_tol the basis is re-spanned; its blocks are
    the steps' entering elements, nested by construction, so no level is
    ever reported missing part of the one before."""
    from qwmetric.numerics import NumericConfig

    cfg = NumericConfig(rank_tol=tol, membership_tol=tol, eig_cluster_tol=tol)
    blob = json.loads(json.dumps(emit_filtration(m2_metric(1, 2, 3))))
    assert parse_filtration(blob, cfg).cuts == parse_filtration(qwm1(blob), cfg).cuts == [1, 2, 3, 4]


@pytest.mark.parametrize("how", ["rotated", "scaled"])
def test_a_basis_not_kept_as_given_reads_as_its_qwm1_levels(how):
    """Each step's entering elements mixed by a unitary (still orthonormal,
    kept as given) or by an invertible non-unitary matrix (re-spanned level
    by level): the file reads to what its "qwm/1" file gives, and to the
    levels of the filtration written."""
    f = hamming_filtration(2, 2)
    rng = np.random.default_rng(11)
    steps = []
    for t, lo, hi in zip(f.breakpoints, [0] + f.cuts, f.cuts):
        mix = random_unitary(hi - lo, rng)
        if how == "scaled":
            mix = mix @ np.diag(rng.uniform(0.5, 3.0, hi - lo)) @ random_unitary(hi - lo, rng)
        steps.append({"t": t, "enters": emit_matrix(np.einsum("ij,jkl->ikl", mix, f.basis[lo:hi]))})
    blob = {"schema": "qwm/2", "kind": "filtration", "dim": f.n, "steps": steps}
    got = parse_filtration(blob, DEFAULT_CONFIG)
    assert same(got, parse_filtration(qwm1(blob), DEFAULT_CONFIG))
    assert got.cuts == f.cuts
    assert all(a.equals(b) for a, b in zip(got.levels, f.levels))


@pytest.mark.parametrize("scale", [1e200, 1.7e308])
def test_distance_does_not_depend_on_an_entering_entry_scale(tmp_path, capsys, scale):
    """m2_metric(1, 2, 3) with one entry of its level-1 element set to
    ``scale`` gives the unscaled file's report, with no overflow."""
    p = write(tmp_path, "p.json", emit_projection(AmplifiedProjection.base(np.diag([1.0, 0.0]))))
    q = write(tmp_path, "q.json", emit_projection(AmplifiedProjection.base(np.diag([0.0, 1.0]))))
    runs = [["distance", "--filtration", "{f}", "--p", p, "--q", q]]

    def report(s):
        blob = emit_filtration(m2_metric(1, 2, 3))
        if s is not None:
            blob["steps"][1]["enters"][0][0][0][0] = s
        return outputs(tmp_path, capsys, blob, runs)[0]

    want = report(None)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = report(scale)
    assert want[0] == 0 and json.loads(want[1])["rho"] == 2.0
    assert got == want


def bad_entry(blob):
    blob["steps"][2]["enters"][3][0][0] = ["x", 0.0]


def bad_shape(blob):
    blob["steps"][2]["enters"][3] = [[[0.0, 0.0]]]


def enters_not_a_list(blob):
    blob["steps"][1]["enters"] = 3


def no_enters(blob):
    blob["steps"][1]["basis"] = blob["steps"][1].pop("enters")


@pytest.mark.parametrize(
    "damage, pointer",
    [(bad_entry, "/steps/2/enters/3/0/0"), (bad_shape, "/steps/2/enters/3"), (enters_not_a_list, "/steps/1/enters"), (no_enters, "/steps/1")],
    ids=["bad-entry", "bad-shape", "enters-not-a-list", "no-enters"],
)
def test_schema_errors_point_into_enters(damage, pointer):
    blob = json.loads(json.dumps(emit_filtration(hamming_filtration(2, 2))))
    damage(blob)
    with pytest.raises(SchemaError) as exc:
        parse_filtration(blob, DEFAULT_CONFIG)
    assert exc.value.pointer == pointer


@pytest.mark.parametrize("tag", ["qwm/3", "qwm/0", "", 2, None])
def test_an_unknown_tag_is_rejected_at_schema(tmp_path, capsys, tag):
    blob = emit_filtration(m2_metric(1, 2, 3))
    blob["schema"] = tag
    with pytest.raises(SchemaError) as exc:
        parse_filtration(blob, DEFAULT_CONFIG)
    assert exc.value.pointer == "/schema"
    code, out, err = outputs(tmp_path, capsys, blob, [["validate", "--filtration", "{f}"]])[0]
    assert (code, out) == (1, "") and json.loads(err)["pointer"] == "/schema"


def test_hamming_4_file_is_half_its_qwm1_size(capsys):
    """256 matrices for a 256-element basis, against 512 in "qwm/1" (levels
    of 1, 13, 67, 175 and 256): half the bytes, but for the five step
    headers."""
    assert main(["build", "hamming", "--sites", "4"]) == 0
    text = capsys.readouterr().out
    blob = json.loads(text)
    assert sum(len(s["enters"]) for s in blob["steps"]) == 256
    full = _dump(qwm1(blob)) + "\n"
    assert sum(len(s["basis"]) for s in qwm1(blob)["steps"]) == 512
    assert len(text) <= len(full) / 2 + 100 * len(blob["steps"])
