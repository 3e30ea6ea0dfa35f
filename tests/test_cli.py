"""CLI behavior: schema round trips, golden agreement with the library, exit
codes, and determinism."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qwmetric import AmplifiedProjection, from_classical, rho
from qwmetric.cli import (
    emit_filtration,
    emit_matrix,
    emit_projection,
    main,
    parse_filtration,
    parse_matrix,
)
from qwmetric.codes import hamming_filtration
from qwmetric.constructions import m2_metric, operator_system_metric
from qwmetric.errors import SchemaError
from qwmetric.numerics import DEFAULT_CONFIG, NumericConfig, random_unitary
from qwmetric.opspace import span

from conftest import I2, IMAG_OFF, REAL_OFF, conjugated, qwm1


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestSerialization:
    def test_matrix_round_trip_identity(self):
        emitted = emit_matrix(np.eye(2, dtype=complex))
        back = parse_matrix(emitted, "")
        np.testing.assert_array_equal(back, np.eye(2))
        assert json.dumps(emitted) == json.dumps(emit_matrix(back))

    def test_filtration_round_trip(self):
        f = m2_metric(1, 2, 3)
        blob = emit_filtration(f)
        back = parse_filtration(blob, DEFAULT_CONFIG)
        assert back.breakpoints == f.breakpoints
        assert all(a.equals(b) for a, b in zip(back.levels, f.levels))
        # stable under re-serialization
        assert json.dumps(emit_filtration(back), sort_keys=True) == json.dumps(blob, sort_keys=True)

    def test_each_distinct_matrix_is_parsed_once(self, monkeypatch):
        """A step whose basis begins with the previous step's (as JSON
        values) parses only its new matrices, and the filtration is the one
        its "qwm/2" file gives, bit for bit."""
        from qwmetric import cli

        blob = json.loads(json.dumps(qwm1(emit_filtration(hamming_filtration(2, 2)))))
        parsed = []
        parse_basis = cli._parse_basis
        monkeypatch.setattr(cli, "_parse_basis", lambda obj, *a: parsed.append(len(obj)) or parse_basis(obj, *a))
        got = parse_filtration(blob, DEFAULT_CONFIG)
        assert parsed == [1, 6, 9]
        want = parse_filtration(emit_filtration(hamming_filtration(2, 2)), DEFAULT_CONFIG)
        assert got.cuts == want.cuts == [1, 7, 16] and np.array_equal(got.basis, want.basis)

    def test_steps_in_rotated_bases_build_the_same_filtration(self):
        """Steps that are not prefixes of each other (every level written in
        a rotated basis) are each parsed in full, as whole levels."""
        f = hamming_filtration(2, 2)
        rng = np.random.default_rng(5)
        steps = [
            {"t": t, "basis": emit_matrix(np.einsum("ij,jkl->ikl", random_unitary(lv.dim, rng), lv.basis))}
            for t, lv in zip(f.breakpoints, f.levels)
        ]
        blob = {"dim": 4, "steps": steps}
        got = parse_filtration(blob, DEFAULT_CONFIG)
        assert got.cuts == f.cuts and all(a.equals(b) for a, b in zip(got.levels, f.levels))

    @pytest.mark.parametrize(
        "bad, pointer",
        [
            ([(1, 2), (2, 10)], "/steps/1/basis/2/0/0"),  # the first of two steps
            ([(2, 10), (2, 12)], "/steps/2/basis/10/0/0"),  # a new matrix of a step that shares a prefix
            ([(2, 3)], "/steps/2/basis/3/0/0"),  # a step whose prefix no longer matches
        ],
    )
    def test_schema_errors_name_the_first_bad_matrix(self, bad, pointer):
        blob = json.loads(json.dumps(qwm1(emit_filtration(hamming_filtration(2, 2)))))
        for step, i in bad:
            blob["steps"][step]["basis"][i][0][0] = ["x", 0.0]
        with pytest.raises(SchemaError) as exc:
            parse_filtration(blob, DEFAULT_CONFIG)
        assert exc.value.pointer == pointer

    def test_a_wrong_shape_in_a_shared_step_is_named_in_full(self):
        blob = json.loads(json.dumps(qwm1(emit_filtration(hamming_filtration(2, 2)))))
        blob["steps"][2]["basis"][10] = [[[0.0, 0.0]]]
        with pytest.raises(SchemaError) as exc:
            parse_filtration(blob, DEFAULT_CONFIG)
        assert exc.value.pointer == "/steps/2/basis/10"

    def test_m2_fixture_parses_to_four_levels(self):
        blob = emit_filtration(m2_metric(1, 2, 3))
        assert len(blob["steps"]) == 4
        back = parse_filtration(blob, DEFAULT_CONFIG)
        assert [lv.dim for lv in back.levels] == [1, 2, 3, 4]

    def test_infinite_breakpoint_rejected(self):
        blob = emit_filtration(m2_metric(1, 2, 3))
        blob["steps"][1]["t"] = "inf"
        with pytest.raises(SchemaError):
            parse_filtration(blob, DEFAULT_CONFIG)

    def test_ragged_matrix_rejected_with_pointer(self):
        with pytest.raises(SchemaError) as exc:
            parse_matrix([[[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "/m")
        assert "/m/1" in str(exc.value)

    def test_complex_pair_schema(self):
        with pytest.raises(SchemaError):
            parse_matrix([[1.0]], "")


class TestCommands:
    def test_build_hamming_level_dims(self, capsys):
        code, out, _ = run_cli(["build", "hamming", "--sites", "3", "--local-dim", "2"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert np.cumsum([len(s["enters"]) for s in blob["steps"]]).tolist() == [1, 10, 37, 64]

    def test_validate_good_and_bad(self, tmp_path, capsys):
        good = write_json(tmp_path, "good.json", emit_filtration(m2_metric(1, 2, 3)))
        code, out, _ = run_cli(["validate", "--filtration", good], capsys)
        assert code == 0
        assert json.loads(out)["is_filtration"]

        bad_blob = qwm1(emit_filtration(m2_metric(1, 2, 3)))
        del bad_blob["steps"][1]["basis"][0]  # break the chain: drop identity direction
        bad = write_json(tmp_path, "bad.json", bad_blob)
        code, out, _ = run_cli(["validate", "--filtration", bad], capsys)
        assert code == 2
        assert not json.loads(out)["is_filtration"]

    def test_distance_matches_library(self, tmp_path, capsys):
        f = operator_system_metric(span([I2, REAL_OFF, IMAG_OFF]))
        fpath = write_json(tmp_path, "f.json", emit_filtration(f))
        p = AmplifiedProjection.base(np.diag([1.0, 0.0]))
        q = AmplifiedProjection.base(np.diag([0.0, 1.0]))
        ppath = write_json(tmp_path, "p.json", emit_projection(p))
        qpath = write_json(tmp_path, "q.json", emit_projection(q))
        code, out, _ = run_cli(
            ["distance", "--filtration", fpath, "--p", ppath, "--q", qpath], capsys
        )
        assert code == 0
        assert json.loads(out)["rho"] == rho(f, p, q) == 1.0

    def test_distance_pads_under_the_given_tolerance(self, tmp_path, capsys):
        """A projection accepted under --tol 1e-6 keeps that check when padded
        to the amplification of the other."""
        cfg = NumericConfig(rank_tol=1e-6, membership_tol=1e-6, eig_cluster_tol=1e-6)
        f, _ = from_classical(np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]]))
        fpath = write_json(tmp_path, "f.json", emit_filtration(f))
        p = AmplifiedProjection(3, 1, np.diag([1.0, 3e-7, 0.0]), cfg)
        ppath = write_json(tmp_path, "p.json", emit_projection(p))
        slot = np.diag([1.0, 0.0])
        for q in (AmplifiedProjection(3, 1, np.diag([0.0, 0.0, 1.0])), AmplifiedProjection(3, 2, np.kron(np.diag([0.0, 0.0, 1.0]), slot))):
            qpath = write_json(tmp_path, "q.json", emit_projection(q))
            code, out, _ = run_cli(["--tol", "1e-6", "distance", "--filtration", fpath, "--p", ppath, "--q", qpath], capsys)
            assert code == 0
            assert json.loads(out)["rho"] == rho(f, p, q, cfg) == 2.0

    def test_gauge_inf_token(self, tmp_path, capsys):
        d = np.array([[0.0, math.inf], [math.inf, 0.0]])
        f, _ = from_classical(d)
        fpath = write_json(tmp_path, "f.json", emit_filtration(f))
        mat = write_json(tmp_path, "m.json", emit_matrix(np.array([[0, 1], [0, 0]], dtype=complex)))
        code, out, _ = run_cli(["gauge", "--filtration", fpath, "--matrix", mat], capsys)
        assert code == 0
        assert json.loads(out)["displacement"] == "inf"

    def test_gauge_of_a_huge_matrix(self, tmp_path, capsys):
        """Membership is scale-free: diag(1e308, 0) is not in V_0 = C.I of
        the canonical M_2 chain, and enters with the diagonal at 1, with
        no overflow on the way."""
        fpath = write_json(tmp_path, "f.json", emit_filtration(m2_metric(1, 2, 3)))
        mpath = write_json(tmp_path, "m.json", emit_matrix(np.diag([1e308, 0.0]).astype(complex)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run_cli(["gauge", "--filtration", fpath, "--matrix", mpath], capsys)
        assert code == 0
        assert json.loads(out)["displacement"] == 1.0

    def test_lipschitz_matches_library(self, tmp_path, capsys):
        d = np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]])
        f, _ = from_classical(d)
        fpath = write_json(tmp_path, "f.json", emit_filtration(f))
        mf = np.diag([0.0, 1.0, 1.5]).astype(complex)
        mpath = write_json(tmp_path, "m.json", emit_matrix(mf))
        code, out, _ = run_cli(["lipschitz", "--filtration", fpath, "--matrix", mpath], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["spectral"] == pytest.approx(1.0)
        assert blob["commutation_lower"] == pytest.approx(1.0)

    def test_transform_truncate_golden(self, tmp_path, capsys):
        d = np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]])
        f, ctx = from_classical(d)
        fpath = write_json(tmp_path, "f.json", emit_filtration(f))
        code, out, _ = run_cli(
            ["transform", "truncate", "--filtration", fpath, "--at", "1.5"], capsys
        )
        assert code == 0
        blob = json.loads(out)
        from qwmetric.constructions import truncate

        expected = emit_filtration(truncate(f, 1.5))
        assert json.dumps(blob, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_code_check_repetition(self, tmp_path, capsys):
        h = hamming_filtration(3, 2)
        fpath = write_json(tmp_path, "h.json", emit_filtration(h))
        p = np.zeros((8, 8), dtype=complex)
        p[0, 0] = p[7, 7] = 1.0
        ppath = write_json(tmp_path, "p.json", emit_matrix(p))
        code, out, _ = run_cli(
            ["code-check", "--filtration", fpath, "--projector", ppath, "--k", "1"], capsys
        )
        assert code == 2
        blob = json.loads(out)
        assert not blob["detects"]
        assert blob["min_distance"] == 1.0

    def test_classify_m2_round_trip(self, tmp_path, capsys):
        from qwmetric.numerics import random_unitary

        rng = np.random.default_rng(5)
        f = m2_metric(1, 2, 3)
        w = random_unitary(2, rng)
        conj = emit_filtration(conjugated(f, w))
        fpath = write_json(tmp_path, "g.json", conj)
        code, out, _ = run_cli(["classify-m2", "--filtration", fpath], capsys)
        assert code == 0
        blob = json.loads(out)
        assert (blob["a"], blob["b"], blob["c"]) == pytest.approx((1.0, 2.0, 3.0), abs=1e-8)
        assert not blob["reflexive"]

    @pytest.mark.parametrize("scale", [1e200, 1e300, 1.7e308])
    def test_validate_report_does_not_depend_on_the_algebra_scale(self, tmp_path, capsys, scale):
        """A generator's scale does not change the algebra it generates:
        diag(scale, -1) gives the report of diag(1, -1), with no overflow."""
        fpath = write_json(tmp_path, "f.json", emit_filtration(m2_metric(1, 2, 3)))

        def report(s):
            apath = write_json(tmp_path, "alg.json", [emit_matrix(np.diag([s, -1.0]).astype(complex))])
            return run_cli(["validate", "--filtration", fpath, "--algebra", apath], capsys)

        want = report(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = report(scale)
        assert want[0] == 0
        assert got == want

    @pytest.mark.parametrize("scale", [1e200, 1.7e308])
    def test_distance_does_not_depend_on_a_level_entry_scale(self, tmp_path, capsys, scale):
        """A level spans what its basis spans at any scale: m2_metric(1, 2, 3)
        written out with one basis entry set to ``scale`` (in every step that
        holds that matrix) gives the unscaled file's report, with no
        overflow."""
        ppath = write_json(tmp_path, "p.json", emit_projection(AmplifiedProjection.base(np.diag([1.0, 0.0]))))
        qpath = write_json(tmp_path, "q.json", emit_projection(AmplifiedProjection.base(np.diag([0.0, 1.0]))))

        def report(s):
            blob = qwm1(emit_filtration(m2_metric(1, 2, 3)))
            if s is not None:
                blob["steps"][1]["basis"][1][0][0][0] = s
            fpath = write_json(tmp_path, "f.json", blob)
            return run_cli(["distance", "--filtration", fpath, "--p", ppath, "--q", qpath], capsys)

        want = report(None)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = report(scale)
        assert want[0] == 0 and json.loads(want[1])["rho"] == 2.0
        assert got == want

    def test_validate_with_context_algebra(self, tmp_path, capsys):
        # the M_2 pseudometric with a = 0 is not a metric over M = M_2
        fpath = write_json(tmp_path, "f.json", emit_filtration(m2_metric(0, 1, 1)))
        gens = [emit_matrix(np.array([[0, 1], [0, 0]], dtype=complex))]  # generates M_2
        apath = write_json(tmp_path, "alg.json", gens)
        code, out, _ = run_cli(["validate", "--filtration", fpath, "--algebra", apath], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["is_pseudometric"] and not blob["is_metric"]

    @pytest.mark.parametrize("payload", [5, "x", {"a": 1}, None])
    def test_algebra_that_is_not_a_list_is_a_schema_error(self, tmp_path, capsys, payload):
        fpath = write_json(tmp_path, "f.json", emit_filtration(m2_metric(1, 2, 3)))
        apath = write_json(tmp_path, "alg.json", payload)
        code, out, err = run_cli(["validate", "--filtration", fpath, "--algebra", apath], capsys)
        assert (code, out) == (1, "")
        blob = json.loads(err)
        assert blob["kind"] == "error" and blob["pointer"] == ""

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "-0.0"])
    def test_tolerance_that_is_not_positive_and_finite_is_a_json_error(self, tmp_path, capsys, tol):
        fpath = write_json(tmp_path, "f.json", emit_filtration(m2_metric(1, 2, 3)))
        code, out, err = run_cli(["--tol", tol, "validate", "--filtration", fpath], capsys)
        assert (code, out) == (1, "")
        assert "--tol" in json.loads(err)["error"]
        code, out, _ = run_cli(["--tol", "1e-6", "validate", "--filtration", fpath], capsys)
        assert code == 0 and json.loads(out)["is_metric"]

    def test_schema_error_exit_code(self, tmp_path, capsys):
        bad = write_json(tmp_path, "bad.json", {"kind": "filtration", "dim": 2})
        code, _, err = run_cli(["validate", "--filtration", bad], capsys)
        assert code == 1
        assert "error" in json.loads(err)

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["build", "classical", "--matrix"], [[0, 1], [1]]),
            (["build", "classical", "--matrix"], {"a": 1}),
            (["validate", "--filtration"], {"dim": -1, "steps": [{"t": 0, "basis": []}]}),
            (["validate", "--filtration"], {"dim": 2, "steps": 5}),
            (["validate", "--filtration"], {"dim": 2, "steps": [{"t": 0, "basis": 3}]}),
            (["validate", "--filtration"], {"dim": 1, "steps": [{"t": 0, "basis": [[[[10**400, 0]]]]}]}),
            (["validate", "--filtration"], {"dim": 1, "steps": [{"t": 0, "basis": [[[[math.nan, 0]]]]}]}),
            (["build", "classical", "--matrix"], [[0, 10**400], [10**400, 0]]),
            (["build", "classical", "--matrix"], [[0, math.nan], [math.nan, 0]]),
            (["gauge", "--filtration", "{m2}", "--matrix"], emit_matrix(np.eye(3))),
            (["lipschitz", "--filtration", "{m2}", "--matrix"], emit_matrix(np.eye(3))),
            (["code-check", "--filtration", "{m2}", "--k", "1", "--projector"], emit_matrix(np.eye(3))),
            (["validate", "--filtration", "{m2}", "--algebra"], [emit_matrix(np.eye(3))]),
            (["validate", "--filtration", "{m2}", "--algebra"], [emit_matrix(np.eye(2)), emit_matrix(np.ones((2, 3)))]),
            (["--amplification", "0", "lipschitz", "--filtration", "{m2}", "--matrix"], emit_matrix(np.diag([1.0, 0.0]))),
            (["--amplification", "-1", "lipschitz", "--filtration", "{m2}", "--matrix"], emit_matrix(np.diag([1.0, 0.0]))),
            (["--seed", "-5", "--budget", "1", "lipschitz", "--filtration", "{m2}", "--matrix"], emit_matrix(np.diag([1.0, 0.0]))),
            (["--budget", "-1", "lipschitz", "--filtration", "{m2}", "--matrix"], emit_matrix(np.diag([1.0, 0.0]))),
            (["transform", "truncate", "--at", "nan", "--filtration"], emit_filtration(m2_metric(1, 2, 3))),
            (["transform", "truncate", "--at", "inf", "--filtration"], emit_filtration(m2_metric(1, 2, 3))),
            (["transform", "hoelder", "--alpha", "nan", "--filtration"], emit_filtration(m2_metric(1, 2, 3))),
            (["transform", "lp", "--p", "nan", "--with", "{m2}", "--filtration"], emit_filtration(m2_metric(1, 2, 3))),
            (["transform", "lp", "--p", "inf", "--with", "{m2}", "--filtration"], emit_filtration(m2_metric(1, 2, 3))),
            (["transform", "direct-sum", "--bridge", "inf", "--with", "{m2}", "--filtration"], emit_filtration(m2_metric(1, 2, 3))),
            (["transform", "direct-sum", "--bridge", "nan", "--with", "{m2}", "--filtration"], emit_filtration(m2_metric(1, 2, 3))),
        ],
        ids=[
            "ragged-distances",
            "distances-not-an-array",
            "negative-dim",
            "steps-not-a-list",
            "basis-not-a-list",
            "huge-int-in-basis",
            "nan-in-basis",
            "huge-int-distance",
            "nan-distance",
            "gauge-matrix-of-wrong-size",
            "lipschitz-matrix-of-wrong-size",
            "projector-of-wrong-size",
            "generator-of-wrong-size",
            "generator-not-square",
            "amplification-zero",
            "amplification-negative",
            "seed-negative",
            "budget-negative",
            "truncate-at-nan",
            "truncate-at-inf",
            "hoelder-alpha-nan",
            "lp-p-nan",
            "lp-p-inf",
            "direct-sum-bridge-inf",
            "direct-sum-bridge-nan",
        ],
    )
    def test_malformed_input_is_a_schema_error(self, tmp_path, capsys, argv, payload):
        m2 = write_json(tmp_path, "m2.json", emit_filtration(m2_metric(1, 2, 3)))
        path = write_json(tmp_path, "in.json", payload)
        code, out, err = run_cli([a.format(m2=m2) for a in argv] + [path], capsys)
        assert code == 1 and out == ""
        blob = json.loads(err)
        assert blob["kind"] == "error" and "pointer" in blob

    @pytest.mark.parametrize(
        "payload",
        [
            {"dim": 2**40, "steps": []},
            {"dim": 2**40, "steps": [{"t": 0, "basis": []}]},
            {"schema": "qwm/2", "kind": "filtration", "dim": 2**40, "steps": [{"t": 0, "enters": []}]},
        ],
        ids=["no-steps", "empty-basis", "empty-enters"],
    )
    def test_a_dim_past_the_array_limits_is_a_schema_error(self, tmp_path, capsys, payload):
        """With no matrix to check 'dim' against, it is checked on its own:
        an n x n complex array must be indexable."""
        path = write_json(tmp_path, "f.json", payload)
        code, out, err = run_cli(["validate", "--filtration", path], capsys)
        assert code == 1 and out == ""
        blob = json.loads(err)
        assert blob["kind"] == "error" and blob["pointer"] == "/dim"

    @pytest.mark.parametrize("entry", [[math.nan, 0], [math.inf, 0], [0, -math.inf], [10**400, 0]], ids=["nan", "inf", "-inf", "huge-int"])
    def test_nonfinite_matrix_entry_is_a_schema_error(self, tmp_path, capsys, entry):
        fpath = write_json(tmp_path, "f.json", emit_filtration(m2_metric(1, 2, 3)))
        mpath = write_json(tmp_path, "m.json", [[[0.5, 0], [0, 0]], [[0, 0], entry]])
        code, out, err = run_cli(["gauge", "--filtration", fpath, "--matrix", mpath], capsys)
        assert code == 1 and out == ""
        blob = json.loads(err)
        assert blob["kind"] == "error" and blob["pointer"] == "/1/1"

    def test_code_check_audits_once(self, tmp_path, capsys, monkeypatch):
        """code-check calls kl_check and then volume_bound, which reads the
        audit the code keeps: the level at k is compressed once."""
        from qwmetric.filtration import StepFiltration

        compress = StepFiltration.compress
        ranges = []

        def counting(f, lo, hi, v, w):
            ranges.append((lo, hi))
            return compress(f, lo, hi, v, w)

        monkeypatch.setattr(StepFiltration, "compress", counting)
        fpath = write_json(tmp_path, "h.json", emit_filtration(hamming_filtration(2, 2)))
        p = np.zeros((4, 4), dtype=complex)
        p[0, 0] = 1.0
        ppath = write_json(tmp_path, "p.json", emit_matrix(p))
        # a rank-1 code detects every level, so the volume bound runs; the level at
        # k = 1 is basis[:7], and min_distance compresses grade by grade
        code, out, _ = run_cli(["code-check", "--filtration", fpath, "--projector", ppath, "--k", "1"], capsys)
        assert code == 0
        assert json.loads(out)["volume"]["dim_k"] == 1
        assert ranges.count((0, 7)) == 1
        assert ranges[0] == (0, 7)

    def test_code_check_with_an_empty_level(self, tmp_path, capsys):
        blob = qwm1(emit_filtration(m2_metric(1, 2, 3)))
        blob["steps"][0]["basis"] = []
        fpath = write_json(tmp_path, "f.json", blob)
        ppath = write_json(tmp_path, "p.json", emit_matrix(np.diag([1.0, 0.0]).astype(complex)))
        # the volume bound reads the empty level at floor(k / 2) = 0
        code, out, _ = run_cli(["code-check", "--filtration", fpath, "--projector", ppath, "--k", "1"], capsys)
        assert code == 0
        assert json.loads(out)["volume"] == {"dim_k": 0, "code_dim": 1, "bound": "inf", "holds": True}

    def test_validate_makes_one_full_product_pass(self, tmp_path, capsys, monkeypatch):
        from qwmetric import filtration

        products = filtration._products
        full = []

        def counting(f, ci, cj):
            full.append(ci == cj == len(f.basis))
            return products(f, ci, cj)

        monkeypatch.setattr(filtration, "_products", counting)
        fpath = write_json(tmp_path, "h2.json", emit_filtration(hamming_filtration(2, 2)))
        code, out, _ = run_cli(["validate", "--filtration", fpath], capsys)
        assert code == 0 and json.loads(out)["path_flag"]
        assert sum(full) == 1

    def test_build_classical_from_stdin(self, tmp_path, monkeypatch, capsys):
        import io

        d = [[0.0, 1.0], [1.0, 0.0]]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(d)))
        code, out, _ = run_cli(["build", "classical", "--matrix", "-"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert np.cumsum([len(s["units"]) for s in blob["steps"]]).tolist() == [2, 4]

    def test_determinism_under_seed(self, tmp_path, capsys):
        d = np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]])
        f, _ = from_classical(d)
        fpath = write_json(tmp_path, "f.json", emit_filtration(f))
        mpath = write_json(tmp_path, "m.json", emit_matrix(np.diag([0.0, 0.5, 2.0]).astype(complex)))
        outs = set()
        for _ in range(2):
            code, out, _ = run_cli(
                ["--seed", "7", "--budget", "2", "lipschitz", "--filtration", fpath, "--matrix", mpath],
                capsys,
            )
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    @pytest.mark.parametrize(
        "option, error",
        [(["direct-sum", "--bridge", "1"], "BridgeTooSmall"), (["direct-sum", "--bridge", "-1"], "BridgeTooSmall"), (["truncate", "--at", "-1"], "MixedDimensions"),
         (["lp", "--p", "0.5"], "MixedDimensions"), (["hoelder", "--alpha", "1"], "MixedDimensions")],
        ids=["bridge-below-half-the-diameter", "bridge-negative", "at-negative", "p-below-one", "alpha-one"],
    )
    def test_construction_error_in_transform_is_typed(self, tmp_path, capsys, option, error):
        """A finite float option outside the construction's domain is a
        library error: exit 2 with a JSON error, as any QwmError in transform."""
        fpath = write_json(tmp_path, "f.json", emit_filtration(m2_metric(1, 2, 3)))
        what, *rest = option
        code, out, err = run_cli(["transform", what, "--filtration", fpath, "--with", fpath, *rest], capsys)
        assert code == 2 and out == ""
        blob = json.loads(err)
        assert blob["kind"] == "error" and blob["error"].startswith(error)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "qwmetric.cli", "build", "m2", "--a", "1", "--b", "2", "--c", "3"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        blob = json.loads(result.stdout)
        assert blob["kind"] == "filtration"

    @pytest.mark.parametrize("schema, key", [("qwm/2", "enters"), ("qwm/1", "basis")])
    def test_running_out_of_memory_is_a_typed_error(self, tmp_path, schema, key):
        """validate on a dim numpy can index but not allocate (a 16 TiB
        identity), in a child whose address space is capped at 2 GiB: the
        MemoryError reaches the user as a JSON SizeLimit with exit 2, not a
        traceback."""
        path = write_json(tmp_path, "f.json", {"schema": schema, "dim": 1 << 20, "steps": [{"t": 0, key: []}]})
        child = (
            "import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1])); "
            "from qwmetric.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        result = subprocess.run(
            [sys.executable, "-c", child, "validate", "--filtration", path],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert json.loads(result.stderr)["error"].startswith("SizeLimit: ")

    def test_usage_error_is_exit_one(self):
        result = subprocess.run(
            [sys.executable, "-m", "qwmetric.cli", "no-such-command"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 1
