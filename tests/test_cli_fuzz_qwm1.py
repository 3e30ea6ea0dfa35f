"""CLI fuzz test of the "qwm/1" filtration reader.

``test_cli_fuzz`` mutates the files the writer emits, which hold a "qwm/2"
filtration.  Here the same mutations and global options run every command
that reads a filtration on the "qwm/1" file of the same filtration (every
level's basis in full), which the reader still takes.  Every run must exit
0, 1 or 2 and print JSON, and an invalid option must exit 1.
"""

import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qwmetric.cli import emit_filtration, main
from qwmetric.constructions import m2_metric

from conftest import qwm1
from test_cli_fuzz import BASE, COMMANDS, GLOBALS, REPLACEMENTS, mutate, paths

# each step owns its matrices, as in a file read back
FILTRATION = json.loads(json.dumps(qwm1(emit_filtration(m2_metric(1, 2, 3)))))
READERS = sorted(name for name, (_, names) in COMMANDS.items() if "filtration" in names)


@pytest.mark.parametrize("command", READERS)
@settings(database=None, max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_qwm1_filtrations_exit_with_json(command, data):
    template, _ = COMMANDS[command]
    files = dict(BASE, filtration=copy.deepcopy(FILTRATION))
    for _ in range(data.draw(st.integers(1, 2))):
        at = data.draw(st.sampled_from(list(paths(files["filtration"]))))
        kind = data.draw(st.sampled_from(["replace", "replace", "drop", "repeat"]))
        files["filtration"] = mutate(files["filtration"], at, kind, data.draw(st.sampled_from(REPLACEMENTS)))
    options, invalid = [], False
    for option, (valid, bad) in GLOBALS.items():
        value = data.draw(st.sampled_from([None] + valid + bad))
        options += [] if value is None else [option, repr(value)]
        invalid = invalid or value in bad
    with tempfile.TemporaryDirectory() as tmp:
        where = {}
        for name, obj in files.items():
            where[name] = os.path.join(tmp, f"{name}.json")
            with open(where[name], "w") as fh:
                json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(options + [arg.format(**where) for arg in template])
    assert code in (0, 1, 2)
    assert code == 1 or not invalid
    blob = json.loads(out.getvalue() or err.getvalue())
    assert (blob["kind"] == "error") == (out.getvalue() == "")
