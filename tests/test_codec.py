"""The CLI codec: `_dump` is `json.dumps(..., sort_keys=True, indent=2)` byte
for byte, and the whole-array parsers agree with a per-entry reading."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qwmetric import AmplifiedProjection, StepFiltration, cli, from_classical
from qwmetric.cli import _dump, emit_filtration, emit_matrix, emit_projection, main, parse_matrix, parse_real_matrix
from qwmetric.codes import block_filtration, hamming_filtration
from qwmetric.constructions import m2_metric
from qwmetric.errors import SchemaError


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


EDGE_OBJECTS = [
    [-0.0, 0.0, math.inf, -math.inf, math.nan, 1e-300, 1e22, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3],
    [[-0.0, math.nan], [math.inf, 1e22]],
    [[[1.0, -0.0]], [[math.nan, -math.inf]]],
    [[[[0.25]]]],
    [1, 2.0],
    [True, 1.0],
    [None, 1.0],
    [[1, 2], [3, 4]],
    [],
    {},
    [[]],
    [[], []],
    [[[]]],
    [[1.0], [2.0, 3.0]],
    [[1.0, 2.0], 3.0],
    [1.0, [2.0, 3.0]],
    [[1.0, 2.0], [3.0, "4"]],
    [[1.0, 2.0], [3.0, None]],
    [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]]],
    [{"a": [1.0, 2.0]}, [1.0, 2.0]],
    (1.0, 2.0),
    [(1.0, 2.0), (3.0, 4.0)],
    [np.float64(1.5), 2.5],
    {"b": [[1.0, 2.0], [3.0, 4.0]], "a": {"z": [], "y": {}, "x": [[]]}, "c": "text é☃ \"q\"\n"},
    {2: 1.0, 1: [0.5]},
    {1.5: "x", 0.5: "y"},
    {True: 1, False: 0},
    {None: [1.0]},
    1.0,
    -0.0,
    math.nan,
    7,
    "inf",
    None,
    True,
]


@pytest.mark.parametrize("obj", EDGE_OBJECTS, ids=range(len(EDGE_OBJECTS)))
def test_dump_edge_cases(obj):
    assert _dump(obj) == reference(obj)


json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
json_trees = st.recursive(
    json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=30,
)
float_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=3),
    elements=st.floats(allow_nan=True, allow_infinity=True),
)


@settings(database=None, max_examples=150, deadline=None)
@given(json_trees)
def test_dump_matches_json_on_trees(obj):
    assert _dump(obj) == reference(obj)


@settings(database=None, max_examples=100, deadline=None)
@given(float_arrays, st.integers(0, 2))
def test_dump_matches_json_on_float_arrays(a, depth):
    obj = a.tolist()
    for _ in range(depth):
        obj = {"k": [obj, 1]}
    assert _dump(obj) == reference(obj)


@st.composite
def graded_filtrations(draw):
    """A dense graded filtration with a random orthonormal basis and random
    cuts (a repeated level among them), or a factored Hamming or block
    model."""
    if draw(st.booleans()):
        return draw(st.sampled_from([hamming_filtration(2, 2), hamming_filtration(1, 3), block_filtration([1, 2])]))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, n * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n * n, k)) + 1j * rng.standard_normal((n * n, k)))
    inner = draw(st.lists(st.integers(0, k), max_size=4))
    cuts = sorted(inner) + [k]
    bps = np.cumsum([0.0] + draw(st.lists(st.floats(0.125, 4.0), min_size=len(inner), max_size=len(inner)))).tolist()
    return StepFiltration.from_graded(n, bps, q.T.reshape(k, n, n), cuts)


@settings(database=None, max_examples=60, deadline=None)
@given(graded_filtrations())
def test_dump_of_a_filtration_matches_json(f):
    """Each step's entering elements are one float block: the output is
    json's, byte for byte."""
    blob = emit_filtration(f)
    assert _dump(blob) == reference(blob)


def test_dump_renders_each_basis_matrix_once(monkeypatch):
    """Hamming 2 has 16 basis matrices in levels of 1, 7 and 16: 16 are
    rendered, not 24."""
    rendered = []
    item_texts = cli._float_item_texts
    monkeypatch.setattr(cli, "_float_item_texts", lambda a, depth: rendered.append(len(a)) or item_texts(a, depth))
    blob = emit_filtration(hamming_filtration(2, 2))
    assert _dump(blob) == reference(blob)
    assert rendered == [1, 6, 9]


@settings(database=None, max_examples=100, deadline=None)
@given(st.lists(float_arrays, min_size=1, max_size=4), st.lists(st.tuples(st.integers(0, 4), json_leaves), max_size=4))
def test_dump_with_shared_leading_items_matches_json(items, cuts):
    """Lists whose leading items are those of the list before, by identity,
    possibly followed by items of another kind, render as json does."""
    items = [a.tolist() for a in items]
    obj = [items[:c] + ([leaf] if leaf is not None else []) for c, leaf in cuts] + [items, {"k": items[:1]}]
    assert _dump(obj) == reference(obj)


def test_emit_filtration_is_plain_json():
    """The graded text is cut at render time, not in the emitted object:
    emit_filtration returns plain dicts, lists, strings and numbers, which
    json.dump writes as it is."""

    def plain(o):
        if isinstance(o, dict):
            return type(o) is dict and all(type(k) is str and plain(v) for k, v in o.items())
        if isinstance(o, list):
            return type(o) is list and all(plain(v) for v in o)
        return type(o) in (str, int, float)

    for f in (hamming_filtration(2, 2), m2_metric(1, 2, 3)):
        blob = emit_filtration(f)
        assert plain(blob)
        assert json.loads(json.dumps(blob)) == blob


@pytest.fixture
def checked_dumps(monkeypatch):
    """Every object the CLI dumps, with its text checked against json."""
    seen = []

    def dump(obj):
        text = _dump(obj)
        assert text == reference(obj)
        seen.append(obj.get("kind"))
        return text

    monkeypatch.setattr(cli, "_dump", dump)
    return seen


def test_dump_is_json_on_every_output_kind(tmp_path, capsys, checked_dumps):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    d = np.array([[0.0, 1, 2.5], [1, 0, 1.5], [2.5, 1.5, 0]])
    f, _ = from_classical(d)
    fpath = write("f.json", emit_filtration(f))
    mpath = write("m.json", emit_matrix(np.diag([0.0, -0.0, 1.5]).astype(complex) + 1e-300j))
    ppath = write("p.json", emit_projection(AmplifiedProjection.base(np.diag([1.0, 0.0, 0.0]))))
    qpath = write("q.json", emit_projection(AmplifiedProjection.base(np.diag([0.0, 0.0, 1.0]))))
    hpath = write("h.json", emit_filtration(hamming_filtration(2, 2)))
    proj = np.zeros((4, 4), dtype=complex)
    proj[0, 0] = proj[3, 3] = 1.0
    projpath = write("proj.json", emit_matrix(proj))
    m2path = write("m2.json", emit_filtration(m2_metric(1, 2, 3)))
    runs = [
        ["build", "classical", "--matrix", write("d.json", [[0, "inf"], ["inf", 0]])],
        ["build", "m2", "--a", "0.5", "--b", "1e22", "--c", "1e22"],
        ["validate", "--filtration", fpath],
        ["gauge", "--filtration", fpath, "--matrix", mpath],
        ["distance", "--filtration", fpath, "--p", ppath, "--q", qpath],
        ["--budget", "1", "lipschitz", "--filtration", fpath, "--matrix", mpath],
        ["code-check", "--filtration", hpath, "--projector", projpath, "--k", "0"],
        ["code-check", "--filtration", hpath, "--projector", projpath, "--k", "1"],
        ["classify-m2", "--filtration", m2path],
        ["transform", "truncate", "--filtration", fpath, "--at", "2"],
        ["validate", "--filtration", write("bad.json", {"dim": 2, "steps": 5})],
    ]
    for argv in runs:
        main(argv)
    capsys.readouterr()
    assert set(checked_dumps) == {
        "filtration", "validation", "gauge", "distance", "lipschitz", "code-check", "m2-classification", "error",
    }


def walk_complex(obj, pointer):
    """A per-entry reading of a complex matrix, with the parser's messages."""
    if not (isinstance(obj, list) and obj and all(isinstance(r, list) for r in obj)):
        raise SchemaError("matrix must be a nested array", pointer)
    out = np.zeros((len(obj), len(obj[0])), dtype=complex)
    for i, row in enumerate(obj):
        if len(row) != len(obj[0]):
            raise SchemaError("ragged matrix rows", f"{pointer}/{i}")
        for j, v in enumerate(row):
            if not (isinstance(v, list) and len(v) == 2 and all(isinstance(x, (int, float)) for x in v)):
                raise SchemaError("complex scalar must be a [re, im] pair", f"{pointer}/{i}/{j}")
            out[i, j] = complex(v[0], v[1])
    return out


def walk_real(obj, pointer):
    if not (isinstance(obj, list) and obj and all(isinstance(r, list) for r in obj)):
        raise SchemaError("distance matrix must be a nested array", pointer)
    out = np.zeros((len(obj), len(obj[0])))
    for i, row in enumerate(obj):
        if len(row) != len(obj[0]):
            raise SchemaError("ragged matrix rows", f"{pointer}/{i}")
        for j, v in enumerate(row):
            if v == "inf":
                out[i, j] = math.inf
            elif isinstance(v, (int, float)):
                out[i, j] = float(v)
            else:
                raise SchemaError("distance entries must be numbers or 'inf'", f"{pointer}/{i}/{j}")
    return out


def outcome(parse, obj):
    try:
        a = parse(obj, "/m")
    except SchemaError as exc:
        return ("error", str(exc), exc.pointer)
    return ("array", a.shape, a.dtype, a.tobytes())


COMPLEX_INPUTS = [
    [[[1.0, 0.0], [0.0, -0.0]], [[-0.0, 0.5], [1e-300, 2.0]]],
    [[[1, 0], [True, False]]],
    [[[2**70, 0], [1, 2]]],
    [[[18446744073709551615, -1]]],
    [[]],
    [[], []],
    [[1.0]],
    [[[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
    [[[1.0, 0.0], "x"]],
    [[["1", 0.0]]],
    [[[1.0, 0.0, 2.0]]],
    [[[1.0, None]]],
    [[[[1.0, 0.0]]]],
    [[[1.0, 0.0]], 3],
    [],
    {"a": 1},
    [[[1.0, 0.0], [2.0]]],
]
REAL_INPUTS = [
    [[0, 1.5], [1.5, 0]],
    [[0, "inf"], ["inf", 0]],
    [[0, math.inf], [-math.inf, -0.0]],
    [[0, 2**70], [True, 0]],
    [[]],
    [[0, 1], [1]],
    [[0, "x"], [1, 0]],
    [[0, "Infinity"], [1, 0]],
    [[0, None], [1, 0]],
    [[0, [1]], [1, 0]],
    [[[0]]],
    {"a": 1},
]


@pytest.mark.parametrize("obj", COMPLEX_INPUTS, ids=range(len(COMPLEX_INPUTS)))
def test_parse_matrix_matches_per_entry_reading(obj):
    assert outcome(parse_matrix, obj) == outcome(walk_complex, obj)


@pytest.mark.parametrize("obj", REAL_INPUTS, ids=range(len(REAL_INPUTS)))
def test_parse_real_matrix_matches_per_entry_reading(obj):
    assert outcome(parse_real_matrix, obj) == outcome(walk_real, obj)


@pytest.mark.parametrize(
    "obj, pointer, message",
    [
        ([[[1.0, 0.0], [math.nan, 0.0]], [[0.0, math.inf], [1.0, 0.0]]], "/m/0/1", "finite"),
        ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, -math.inf]]], "/m/1/1", "finite"),
        ([[[10**400, 0.0]]], "/m/0/0", "finite"),
        # the first bad entry in row-major order, even before a later ragged row
        ([[[1.0, 0.0], [0.0, math.nan]], [[0.0, 0.0]]], "/m/0/1", "finite"),
        ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]], [[math.nan, 0.0]]], "/m/1", "ragged"),
    ],
)
def test_nonfinite_complex_entries_name_the_first(obj, pointer, message):
    with pytest.raises(SchemaError) as exc:
        parse_matrix(obj, "/m")
    assert exc.value.pointer == pointer and message in str(exc.value)


@pytest.mark.parametrize(
    "obj, pointer",
    [([[0, math.nan], [1, 0]], "/m/0/1"), ([[0, 1], [-(10**400), 0]], "/m/1/0"), ([[0, 1], [1, math.nan]], "/m/1/1")],
)
def test_bad_distance_numbers_name_the_first(obj, pointer):
    with pytest.raises(SchemaError) as exc:
        parse_real_matrix(obj, "/m")
    assert exc.value.pointer == pointer and "NaN" in str(exc.value)


def test_emit_matrix_matches_per_entry_formatting():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    m[0, 0, 0] = complex(-0.0, math.inf)
    m[1, 2, 3] = complex(1e-300, -0.0)
    expected = [[[[cli._fmt(float(z.real)), cli._fmt(float(z.imag))] for z in row] for row in mat] for mat in m]
    assert json.dumps(emit_matrix(m)) == json.dumps(expected)
    assert json.dumps(emit_matrix(m[1])) == json.dumps(expected[1])


def test_emit_filtration_writes_each_element_once():
    f = hamming_filtration(2, 2)
    blob = emit_filtration(f)
    assert blob["schema"] == "qwm/2"
    assert np.cumsum([len(s["enters"]) for s in blob["steps"]]).tolist() == f.cuts
    written = [m for s in blob["steps"] for m in s["enters"]]
    assert json.dumps(written) == json.dumps([emit_matrix(b) for b in f.basis])
