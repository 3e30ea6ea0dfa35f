"""CLI fuzz test: mutated input files never end in a traceback.

Valid filtration, matrix, projector, projection, algebra and distance files
are mutated (wrong types, ragged rows, huge ints, NaN and infinities,
missing keys) and run through ``cli.main``, with or without each global
option (``--tol``, ``--amplification``, ``--budget``, ``--seed``) drawn
from valid and invalid values; the transforms draw their float option
(``--at``, ``--p``, ``--bridge``) the same way.  Every run must exit 0, 1
or 2 and print JSON on stdout or stderr, and an invalid option must exit 1;
an exception other than a ``QwmError`` escapes ``main`` and fails the test.
"""

import copy
import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qwmetric.cli import emit_filtration, emit_matrix, main
from qwmetric.constructions import m2_metric

BASE = {
    "filtration": emit_filtration(m2_metric(1, 2, 3)),
    "matrix": emit_matrix(np.array([[0.5, 1 - 1j], [1 + 1j, -2.0]])),
    "projector": emit_matrix(np.diag([1.0, 0.0]).astype(complex)),
    "distance": [[0, 1, 2.5], [1, 0, "inf"], [2.5, "inf", 0]],
    "p": {"m": 1, "matrix": emit_matrix(np.diag([1.0, 0.0]).astype(complex))},
    "q": {"m": 2, "matrix": emit_matrix(np.kron(np.diag([0.0, 1.0]), np.full((2, 2), 0.5)))},
    "algebra": [emit_matrix(np.diag([1.0, -1.0]).astype(complex))],
}

# argv with {name} for each input file, and the inputs the command reads
COMMANDS = {
    "validate": (["validate", "--filtration", "{filtration}"], ["filtration"]),
    "gauge": (["gauge", "--filtration", "{filtration}", "--matrix", "{matrix}"], ["filtration", "matrix"]),
    "build-classical": (["build", "classical", "--matrix", "{distance}"], ["distance"]),
    "code-check": (["code-check", "--filtration", "{filtration}", "--projector", "{projector}", "--k", "1"], ["filtration", "projector"]),
    "transform-truncate": (["transform", "truncate", "--filtration", "{filtration}"], ["filtration"]),
    "transform-product": (["transform", "product", "--filtration", "{filtration}", "--with", "{filtration}"], ["filtration"]),
    "transform-lp": (["transform", "lp", "--filtration", "{filtration}", "--with", "{filtration}"], ["filtration"]),
    "transform-direct-sum": (["transform", "direct-sum", "--filtration", "{filtration}", "--with", "{filtration}"], ["filtration"]),
    "validate-algebra": (["validate", "--filtration", "{filtration}", "--algebra", "{algebra}"], ["filtration", "algebra"]),
    "distance": (["distance", "--filtration", "{filtration}", "--p", "{p}", "--q", "{q}"], ["filtration", "p", "q"]),
    "lipschitz": (["lipschitz", "--filtration", "{filtration}", "--matrix", "{matrix}"], ["filtration", "matrix"]),
    "classify-m2": (["classify-m2", "--filtration", "{filtration}"], ["filtration"]),
}

# global option values: (valid, invalid); the option may also be left out.
# The sets are small and fixed so that no value starts long or wide work.
GLOBALS = {
    "--tol": ([1e-300, 0.5], [0, -1, math.nan, math.inf]),
    "--amplification": ([1, 2], [-1, 0]),
    "--budget": ([0, 1, 2], [-1]),
    "--seed": ([0, 2**64], [-5]),
}

# the float option each transform draws: finite values the data may accept
# (a bridge below half the diameter fails in the library), a finite value
# no data accepts (never exit 0) and values that are not finite numbers
# (a usage error, exit 1)
FLOATS = {"transform-truncate": "--at", "transform-lp": "--p", "transform-direct-sum": "--bridge"}
FLOAT_VALUES = {
    "--at": ([0.0, 1.5, 4.0], [-1], [math.nan, math.inf]),
    "--p": ([1.0, 1.5, 2.0], [-1], [math.nan, math.inf]),
    "--bridge": ([1.0, 1.5, 10.0], [-1], [math.nan, math.inf]),
}

REPLACEMENTS = ["x", "inf", None, True, {}, [], [[]], 0, -1, 2**70, 10**400, -(10**400), 1e308, math.nan, math.inf, -math.inf]


def paths(obj, at=()):
    """Every node of a JSON tree, as a key path from the root."""
    yield at
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from paths(value, at + (key,))


def mutate(obj, at, kind, value):
    """obj with the node at ``at`` replaced, dropped (a missing key or a
    ragged row) or repeated (a ragged row, or a value wrapped in a list);
    the root can only be replaced or wrapped."""
    if not at:
        return copy.deepcopy(value) if kind == "replace" else [obj]
    parent = obj
    for key in at[:-1]:
        parent = parent[key]
    key = at[-1]
    if kind == "replace":
        parent[key] = copy.deepcopy(value)
    elif kind == "drop":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = [parent[key]]
    return obj


@st.composite
def mutated_inputs(draw, names, least=1):
    files = {name: copy.deepcopy(BASE[name]) for name in BASE}
    for _ in range(draw(st.integers(least, 2))):
        name = draw(st.sampled_from(names))
        at = draw(st.sampled_from(list(paths(files[name]))))
        kind = draw(st.sampled_from(["replace", "replace", "drop", "repeat"]))
        value = draw(st.sampled_from(REPLACEMENTS))
        files[name] = mutate(files[name], at, kind, value)
    return files


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(database=None, max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_inputs_exit_with_json(command, data):
    template, names = COMMANDS[command]
    # a float option is also drawn with the files intact, where only it can fail
    files = data.draw(mutated_inputs(names, least=0 if command in FLOATS else 1))
    options, invalid = [], False
    for option, (valid, bad) in GLOBALS.items():
        value = data.draw(st.sampled_from([None] + valid + bad))
        options += [] if value is None else [option, repr(value)]
        invalid = invalid or value in bad
    extra, rejected = [], False
    if command in FLOATS:
        valid, outside, bad = FLOAT_VALUES[FLOATS[command]]
        value = data.draw(st.sampled_from(valid + outside + bad))
        extra = [FLOATS[command], repr(value)]
        invalid = invalid or value in bad
        rejected = value in outside
    with tempfile.TemporaryDirectory() as tmp:
        where = {}
        for name, obj in files.items():
            where[name] = os.path.join(tmp, f"{name}.json")
            with open(where[name], "w") as fh:
                json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(options + [arg.format(**where) for arg in template] + extra)
    assert code in (0, 1, 2)
    # an invalid option is a usage error, whatever the files hold
    assert code == 1 or not invalid
    assert code != 0 or not rejected
    blob = json.loads(out.getvalue() or err.getvalue())
    # a report goes to stdout, an error alone to stderr
    assert (blob["kind"] == "error") == (out.getvalue() == "")
