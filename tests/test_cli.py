import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tomllib
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import relbel
from relbel.cli import _json_text, main


MODEL_DOC = {
    "theta": ["t1", "t2"],
    "x": ["x0", "x1"],
    "likelihood": [[0.8, 0.2], [0.2, 0.8]],
    "prior": [0.5, 0.5],
}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def model_file(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(MODEL_DOC))
    return str(p)


class TestEvidenceCommand:
    def test_two_by_two_report(self, runner, model_file):
        res = runner.invoke(main, ["evidence", "--model", model_file, "--x", "1"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert np.allclose(doc["rb"], [0.4, 1.6])
        assert doc["estimate"] == 1
        assert doc["tie"] is False
        assert doc["plausible"]["members"] == [1]

    def test_strength_with_psi0(self, runner, model_file):
        res = runner.invoke(main, ["evidence", "--model", model_file, "--x", "1", "--psi0", "0"])
        doc = json.loads(res.output)
        assert doc["strength"] == pytest.approx(0.2)
        assert doc["hypothesis"]["verdict"] == "evidence-against"

    def test_indices_are_input_indices(self, runner, tmp_path):
        # t1 has no prior mass: the table drops it, the report keeps its place
        path = tmp_path / "m.json"
        lik = [[0.2, 0.8], [0.5, 0.5], [0.8, 0.2]]
        path.write_text(json.dumps({"theta": ["t0", "t1", "t2"], "x": ["x0", "x1"],
                                    "likelihood": lik, "prior": [0.5, 0.0, 0.5]}))
        args = ["evidence", "--model", str(path), "--x", "1", "--gamma", "0.5"]
        doc = json.loads(runner.invoke(main, [*args, "--psi0", "2"]).output)
        assert doc["labels"] == ["t0", "t1", "t2"]
        assert doc["prior"] == [0.5, 0.0, 0.5] and doc["posterior"][1] == 0.0
        assert doc["rb"][1] is None and doc["rb"][0] > 1.0 > doc["rb"][2]
        assert doc["estimate"] == 0 and doc["dropped_zero_prior"] == 1
        assert doc["plausible"]["members"] == doc["credible"]["members"] == [0]
        assert doc["hypothesis"]["psi0"] == 2 and doc["hypothesis"]["rb_at_psi0"] == doc["rb"][2]
        for psi0 in ("1", "3", "-1"):
            res = runner.invoke(main, [*args, "--psi0", psi0])
            assert res.exit_code == 2 and res.stdout == ""
            assert res.stderr == f"error: psi0 index {psi0} names no value with prior mass in [0, 3)\n"

    def test_missing_file_exits_2(self, runner):
        res = runner.invoke(main, ["evidence", "--model", "no-such.json", "--x", "0"])
        assert res.exit_code == 2
        assert "no-such.json" in res.output

    def test_invalid_model_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**MODEL_DOC, "prior": [0.6, 0.6]}))
        res = runner.invoke(main, ["evidence", "--model", str(bad), "--x", "0"])
        assert res.exit_code == 2


class TestMalformedModelFiles:
    """Malformed model documents exit 2 with a one-line message, no traceback."""

    def invoke(self, runner, tmp_path, doc, command=("evidence", "--x", "0"), extra=()):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        res = runner.invoke(main, [command[0], "--model", str(path), *command[1:], *extra])
        assert res.exit_code == 2, res.output
        assert "Traceback" not in res.output and res.output.startswith("error: ")
        assert res.output.count("\n") == 1
        return res.output

    def test_psi_without_assignment(self, runner, tmp_path):
        doc = {**MODEL_DOC, "psi": {"labels": ["A", "B"]}}
        assert "assignment" in self.invoke(runner, tmp_path, doc)

    def test_assignment_length_differs_from_theta(self, runner, tmp_path):
        doc = {**MODEL_DOC, "psi": {"labels": ["A", "B"], "assignment": [0, 1, 1]}}
        assert "3 entries" in self.invoke(runner, tmp_path, doc)

    def test_ragged_likelihood(self, runner, tmp_path):
        doc = {**MODEL_DOC, "likelihood": [[0.8, 0.2], [1.0]]}
        assert "numeric arrays" in self.invoke(runner, tmp_path, doc)

    def test_non_integer_assignment(self, runner, tmp_path):
        doc = {**MODEL_DOC, "psi": {"labels": ["A", "B"], "assignment": ["z", 0]}}
        assert "entries must be integers" in self.invoke(runner, tmp_path, doc)

    def test_masses_must_be_json_numbers(self, runner, tmp_path):
        # a float conversion reads a bool as 0 or 1 and parses a numeric string
        cases = [
            ({"likelihood": [[True, False], ["0.25", "0.75"]], "prior": ["0.5", 0.5]}, "bool"),
            ({"likelihood": [[0.8, 0.2], [0.2, "0.8"]]}, "str"),
            ({"prior": [0.5, True]}, "bool"),
            ({"prior": [0.5, None]}, "NoneType"),
        ]
        for fields, kind in cases:
            for command in (("model", "--x", "0"), ("evidence", "--x", "0"), ("decide",)):
                msg = self.invoke(runner, tmp_path, {**MODEL_DOC, **fields}, command)
                assert msg.startswith("error: likelihood and prior must be numeric arrays")
                assert f"entry of type {kind}" in msg
        # an integer past the float range is no finite number either
        msg = self.invoke(runner, tmp_path, {**MODEL_DOC, "prior": [10**400, 0.5]})
        assert "numeric arrays: int too large" in msg

    def test_assignment_entry_not_a_psi_index(self, runner, tmp_path):
        doc = {**MODEL_DOC, "psi": {"labels": ["A", "B"], "assignment": [0, 2]}}
        assert "psi assignment entry not in [0, 2)" in self.invoke(runner, tmp_path, doc)

    def test_unknown_fields(self, runner, tmp_path):
        psi = {"labels": ["A", "B"], "assignment": [0, 1]}
        msg = self.invoke(runner, tmp_path, {**MODEL_DOC, "psy": psi})
        assert msg == (
            "error: model document has unknown field 'psy'; "
            "it takes theta, x, likelihood, prior, psi\n"
        )
        msg = self.invoke(runner, tmp_path, {**MODEL_DOC, "psi": {**psi, "label": ["A", "B"]}})
        assert msg == "error: psi block has unknown field 'label'; it takes labels, assignment\n"

    def test_null_psi_is_the_identity(self, runner, tmp_path):
        path = tmp_path / "m.json"
        for doc in (MODEL_DOC, {**MODEL_DOC, "psi": None}):
            path.write_text(json.dumps(doc))
            res = runner.invoke(main, ["evidence", "--model", str(path), "--x", "0"])
            assert res.exit_code == 0 and json.loads(res.stdout)["labels"] == ["t1", "t2"]

    def test_row_sum_past_float_range(self, runner, tmp_path):
        doc = {**MODEL_DOC, "likelihood": [[1e308, 1e308], [0.2, 0.8]]}
        assert "float range" in self.invoke(runner, tmp_path, doc)

    def test_unwritable_output_path(self, runner, tmp_path):
        out = str(tmp_path / "no-such-dir" / "out.json")
        msg = self.invoke(runner, tmp_path, MODEL_DOC, extra=("-o", out))
        assert "cannot write" in msg

    def test_document_not_an_object(self, runner, tmp_path):
        for doc in (5, "m.json", [MODEL_DOC]):
            assert "must be a JSON object" in self.invoke(runner, tmp_path, doc)

    def test_non_list_labels(self, runner, tmp_path):
        for key in ("theta", "x"):
            for value in (5, None, {"a": 1}):
                msg = self.invoke(runner, tmp_path, {**MODEL_DOC, key: value})
                assert f"'{key}' must be a list of labels" in msg

    def test_string_labels_not_split_into_characters(self, runner, tmp_path):
        assert "list of labels" in self.invoke(runner, tmp_path, {**MODEL_DOC, "x": "ab"})
        doc = {**MODEL_DOC, "psi": {"labels": "AB", "assignment": [0, 1]}}
        assert "psi labels" in self.invoke(runner, tmp_path, doc)
        doc = {**MODEL_DOC, "psi": {"labels": ["A", "B"], "assignment": "01"}}
        assert "must be a list" in self.invoke(runner, tmp_path, doc)

    def test_nan_likelihood_rejected(self, runner, tmp_path):
        # JSON has no NaN, but Python's reader accepts the literal
        doc = {**MODEL_DOC, "likelihood": [[float("nan"), 0.2], [0.2, 0.8]]}
        for command in (("evidence", "--x", "0"), ("decide",)):
            assert "non-finite" in self.invoke(runner, tmp_path, doc, command)


class TestDecideCommand:
    def test_rb_rule_report(self, runner, model_file):
        res = runner.invoke(main, ["decide", "--model", model_file, "--loss", "rb"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["actions"] == [0, 1]
        assert doc["prior_risk"] == pytest.approx(0.4)
        assert doc["decomposition"] is not None

    def test_eta_loss_requires_eta(self, runner, model_file):
        res = runner.invoke(main, ["decide", "--model", model_file, "--loss", "rb-eta"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("loss", ["rb", "map"])
    def test_eta_only_with_the_capped_loss(self, runner, model_file, loss):
        res = runner.invoke(main, ["decide", "--model", model_file, "--loss", loss, "--eta", "0.3"])
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr == f"error: --eta applies only to --loss rb-eta, not --loss {loss}\n"

    def test_risk_cross_check_exits_3(self, runner, model_file, monkeypatch):
        from relbel import decision

        exact = decision.conditional_error_probs
        monkeypatch.setattr(
            decision, "conditional_error_probs", lambda *args: exact(*args) + 1e-6
        )
        for loss in ("rb", "map"):
            res = runner.invoke(main, ["decide", "--model", model_file, "--loss", loss])
            assert res.exit_code == 3, res.output
            assert res.output.startswith("error: risk cross-check failed")

    def test_overflowing_loss_weight_exits_3_with_one_line(self, tmp_path):
        # a fresh process, since numpy's RuntimeWarnings are once per location; the
        # posterior mass of t2 at x1, about 4.9e-14, over its prior mass 5e-324 overflows
        path = tmp_path / "subnormal.json"
        path.write_text(
            json.dumps({**MODEL_DOC, "likelihood": [[1.0, 1e-310], [0.0, 1.0]], "prior": [1.0, 5e-324]})
        )
        for args in (
            ["decide", "--model", str(path), "--loss", "rb"],
            ["decide", "--model", str(path), "--loss", "rb-eta", "--eta", "5e-324"],
            ["evidence", "--model", str(path), "--x", "1"],
        ):
            out = fresh_python("-m", "relbel.cli", *args)
            assert out.returncode == 3 and out.stdout == "", out
            assert out.stderr == "error: ratio 4.9406564584122364e-14 / 5e-324 overflows the float range\n"


class TestClassifyCommands:
    def test_table1_deterministic(self, runner):
        args = ["classify", "table1", "--betas", "1", "--reps", "1000", "--seed", "7"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == 0, a.output
        assert a.output == b.output
        header = a.output.splitlines()[0]
        assert header == "beta,map_err0,map_err1,map_sum,rb_err0,rb_err1,rb_sum,reps,seed"

    def test_full_precision_flag(self, runner):
        args = ["classify", "table1", "--betas", "14", "--reps", "500", "--seed", "3"]
        short = runner.invoke(main, args).output
        full = runner.invoke(main, args + ["--precision", "full"]).output
        assert short != full

    def test_negative_seed_exits_2(self, runner):
        args = ["classify", "table1", "--betas", "1", "--reps", "10", "--seed", "-1"]
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert res.output == "error: seed must be >= 0, got -1\n"

    def test_known_eps_values(self, runner):
        res = runner.invoke(
            main,
            ["classify", "known", "--psi0", "0.05", "--psi1", "0.8", "--epsilon", "0.01"],
        )
        doc = json.loads(res.output)
        assert doc["rb_errors"]["sum"] == pytest.approx(0.25)
        assert doc["map_errors"]["sum"] == pytest.approx(1.0)
        assert doc["rb_rule"] == {"x0": 0, "x1": 1}

    def test_predict(self, runner):
        res = runner.invoke(
            main,
            [
                "classify", "predict", "--alpha", "1", "--beta", "100",
                "--n", "10", "--c-bar", "0.0", "--f0", "0.1", "--f1", "0.3",
            ],
        )
        doc = json.loads(res.output)
        assert doc["c_rb"] == 1 and doc["c_map"] == 0

    @pytest.mark.parametrize(
        "args, expected",
        [
            # predictive odds 1e17; the rb ratio is exactly 1 with no training data
            (["1e17", "1", "0", "0", "1", "1"], (1, 0, 1e17, 1.0)),
            # count and density log ratios near +-709 each: exp of their sum overflows, and
            # a ratio past the float range prints as null
            (["1e308", "1e-308", "1", "1", "1e-308", "1e308"], (1, 1, None, None)),
            (["1", "1", "0", "0", "1e-308", "1e308"], (1, 1, None, None)),
            # the largest n, all of class 1
            (["1", "1", str(2**53), "1", "1", "1"], (1, 1, 2.0**53 + 1, 2.0**53 + 1)),
        ],
    )
    def test_predict_extreme_counts_and_densities(self, runner, args, expected):
        opts = ("--alpha", "--beta", "--n", "--c-bar", "--f0", "--f1")
        argv = ["classify", "predict", *(a for pair in zip(opts, args) for a in pair)]
        res = runner.invoke(main, argv)
        assert res.exit_code == 0 and res.stderr == "", res.output
        doc = json.loads(res.stdout)
        c_map, c_rb, map_ratio, rb_ratio = expected
        assert (doc["c_map"], doc["c_rb"]) == (c_map, c_rb)
        for key, want in (("map_ratio", map_ratio), ("rb_ratio", rb_ratio)):
            assert doc[key] == (want if want is None else pytest.approx(want, rel=1e-12))

    def test_predict_n_past_exact_counts_exits_2(self, runner):
        # past 2^53 the float count n * c_bar is inexact, past 2^1024 not a float
        for n in (2**53 + 1, 10**308, 10**400):
            args = ["--alpha", "1", "--beta", "1", "--n", str(n), "--c-bar", "1"]
            res = runner.invoke(main, ["classify", "predict", *args, "--f0", "1", "--f1", "1"])
            assert res.exit_code == 2, res.output
            assert res.output.startswith("error: n must be in [0, 2^53]"), res.output
            assert res.output.count("\n") == 1

    def test_json_reports_reject_non_finite_values(self):
        for value in (math.inf, -math.inf, math.nan):
            for doc in ({"ratio": value}, {"rb": np.array([0.5, value])}):
                with pytest.raises(ValueError, match="JSON compliant"):
                    _json_text(doc)

    def test_table1_n_past_the_cap_exits_2(self, runner):
        args = ["classify", "table1", "--betas", "1", "--n", "1000000000000", "--reps", "1"]
        res = runner.invoke(main, args + ["--seed", "1"])
        assert res.exit_code == 2, res.output
        assert res.output.startswith("error: n must be in [0, ") and res.output.count("\n") == 1


class TestRegressCommand:
    def test_functional_report(self, runner, tmp_path):
        (tmp_path / "X.csv").write_text("1.0\n1.0\n")
        (tmp_path / "y.csv").write_text("1.0\n3.0\n")
        (tmp_path / "w.csv").write_text("1.0\n")
        res = runner.invoke(
            main,
            [
                "regress", "--design", str(tmp_path / "X.csv"),
                "--response", str(tmp_path / "y.csv"),
                "--sigma2", "1", "--tau2", "1", "--w", str(tmp_path / "w.csv"),
            ],
        )
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["psi_rb"] == pytest.approx(2.0)
        assert doc["z_rb"] == pytest.approx(4.0)

    def test_header_rows_accepted(self, runner, tmp_path):
        (tmp_path / "X.csv").write_text("x1\n1.0\n1.0\n")
        (tmp_path / "y.csv").write_text("y\n1.0\n3.0\n")
        (tmp_path / "w.csv").write_text("w\n1.0\n")
        res = runner.invoke(
            main,
            [
                "regress", "--design", str(tmp_path / "X.csv"),
                "--response", str(tmp_path / "y.csv"),
                "--sigma2", "1", "--tau2", "1", "--w", str(tmp_path / "w.csv"),
            ],
        )
        assert res.exit_code == 0, res.output

    def test_rank_deficient_exits_2(self, runner, tmp_path):
        (tmp_path / "X.csv").write_text("1.0,2.0\n2.0,4.0\n3.0,6.0\n")
        (tmp_path / "y.csv").write_text("1.0\n2.0\n3.0\n")
        (tmp_path / "w.csv").write_text("1.0\n0.0\n")
        res = runner.invoke(
            main,
            [
                "regress", "--design", str(tmp_path / "X.csv"),
                "--response", str(tmp_path / "y.csv"),
                "--sigma2", "1", "--tau2", "1", "--w", str(tmp_path / "w.csv"),
            ],
        )
        assert res.exit_code == 2

    @pytest.mark.parametrize("text", ["", "\n", "a,b\n"])
    def test_design_without_data_rows_exits_2_naming_it(self, runner, tmp_path, text):
        (tmp_path / "X.csv").write_text(text)
        (tmp_path / "y.csv").write_text("1.0\n2.0\n")
        (tmp_path / "w.csv").write_text("1.0\n")
        res = runner.invoke(main, [
            "regress", "--design", str(tmp_path / "X.csv"), "--response", str(tmp_path / "y.csv"),
            "--sigma2", "1", "--tau2", "1", "--w", str(tmp_path / "w.csv"),
        ])
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr == f"error: numeric CSV {str(tmp_path / 'X.csv')!r} has no data rows\n"

    def test_grid_check_past_the_cell_cap_exits_2(self, runner, tmp_path):
        (tmp_path / "X.csv").write_text("1.0\n2.0\n3.0\n")
        (tmp_path / "y.csv").write_text("1.0\n2.1\n2.9\n")
        (tmp_path / "w.csv").write_text("1.0\n")
        argv = [
            "regress", "--design", str(tmp_path / "X.csv"),
            "--response", str(tmp_path / "y.csv"),
            "--sigma2", "1", "--tau2", "1", "--w", str(tmp_path / "w.csv"),
        ]
        res = runner.invoke(main, argv + ["--grid-check", "10000000000000"])
        assert res.exit_code == 2, res.output
        assert res.output.count("\n") == 1 and "cap" in res.output, res.output
        assert runner.invoke(main, argv + ["--grid-check", str(2**20)]).exit_code == 0


class TestLimitsCommand:
    def test_eta_trace_from_table(self, runner, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "eta",
                    "table": {"prior": [0.5, 0.25, 0.25], "posterior": [0.1, 0.2, 0.7]},
                    "eta_steps": 6,
                }
            )
        )
        res = runner.invoke(main, ["limits", "eta", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        assert lines[0] == "parameter,discrepancy,summary"
        assert len(lines) == 7

    def test_lambda_trace(self, runner, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "lambda",
                    "prior": {"family": "normal", "mu": 0.0, "sigma2": 1.0},
                    "likelihood": {"kind": "normal-location", "x": 1.5, "sigma2": 1.0},
                    "grid": {"lo": -6.0, "hi": 6.0, "n_cells": 128},
                    "steps": 3,
                    "target": 1.5,
                }
            )
        )
        res = runner.invoke(main, ["limits", "lambda", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        assert len(res.output.strip().splitlines()) == 4

    def test_sandwich_from_table(self, runner, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "sandwich",
                    "table": {"prior": [0.5, 0.25, 0.25], "posterior": [0.1, 0.2, 0.7]},
                    "gamma": 0.7,
                }
            )
        )
        res = runner.invoke(main, ["limits", "sandwich", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        header = res.output.splitlines()[0]
        assert header.startswith("parameter,eta,gamma_used")

    def test_sandwich_from_table_honours_eta_steps(self, runner, tmp_path):
        doc = {"table": {"prior": [0.5, 0.25, 0.25], "posterior": [0.1, 0.2, 0.7]}, "gamma": 0.7}
        default = invoke_limits(runner, tmp_path, "sandwich", doc)
        three = invoke_limits(runner, tmp_path, "sandwich", {**doc, "eta_steps": 3})
        assert default.exit_code == three.exit_code == 0
        # a header, then one row per cap: the first three caps of the default ladder
        assert len(default.output.splitlines()) == 9
        assert three.output.splitlines() == default.output.splitlines()[:4]

    def test_region_trace(self, runner, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "region",
                    "prior": {"family": "normal", "mu": 0.0, "sigma2": 1.0},
                    "likelihood": {"kind": "normal-location", "x": 1.9, "sigma2": 1.0},
                    "grid": {"lo": -6.0, "hi": 6.0, "n_cells": 128},
                    "steps": 2,
                    "gamma": 0.9,
                    "refine_factor": 8,
                }
            )
        )
        res = runner.invoke(main, ["limits", "region", "--config", str(cfg)])
        assert res.exit_code == 0, res.output

    def test_malformed_json_exits_2(self, runner, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text("{not json")
        res = runner.invoke(main, ["limits", "eta", "--config", str(cfg)])
        assert res.exit_code == 2

    def test_missing_config_field_named(self, runner, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "region",
                    "prior": {"family": "normal"},
                    "likelihood": {"kind": "normal-location", "x": 1.9},
                    "grid": {"lo": -6.0, "hi": 6.0, "n_cells": 64},
                }
            )
        )
        res = runner.invoke(main, ["limits", "region", "--config", str(cfg)])
        assert res.exit_code == 2
        assert "gamma" in res.output

    def test_output_file_round_trip(self, runner, model_file, tmp_path):
        out = tmp_path / "report.json"
        res = runner.invoke(
            main, ["evidence", "--model", model_file, "--x", "1", "-o", str(out)]
        )
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        # full-precision floats survive the JSON round trip losslessly
        assert doc["rb"] == [0.2 / 0.5, 0.8 / 0.5]


GRID_CONFIG = {
    "prior": {"family": "normal", "mu": 0.0, "sigma2": 1.0},
    "likelihood": {"kind": "normal-location", "x": 1.0, "sigma2": 1.0},
    "grid": {"lo": -5.0, "hi": 5.0, "n_cells": 16},
    "steps": 2,
    "gamma": 0.9,
    "refine_factor": 4,
}


def invoke_limits(runner, tmp_path, experiment, doc):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    return runner.invoke(main, ["limits", experiment, "--config", str(cfg)])


class TestMalformedLimitsConfigs:
    """Malformed limits configs exit 2 with a one-line message, no traceback."""

    def expect_2(self, runner, tmp_path, experiment, doc):
        res = invoke_limits(runner, tmp_path, experiment, doc)
        assert res.exit_code == 2, res.output
        assert res.output.startswith("error: ") and res.output.count("\n") == 1
        return res.output

    def test_config_not_an_object(self, runner, tmp_path):
        for experiment in ("eta", "region", "sandwich"):
            for doc in (5, "config", [GRID_CONFIG], None):
                msg = self.expect_2(runner, tmp_path, experiment, doc)
                assert "limits config must be a JSON object" in msg

    def test_block_not_an_object(self, runner, tmp_path):
        cases = [
            ("region", {**GRID_CONFIG, "prior": 5}, "density config"),
            ("lambda", {**GRID_CONFIG, "likelihood": [1.0]}, "likelihood config"),
            ("map", {**GRID_CONFIG, "grid": "wide"}, "grid config"),
            ("eta", {"table": 5}, "table config"),
            ("sandwich", {"table": 5, "gamma": 0.5}, "table config"),
            ("eta", {"model": 5, "x": 0}, "'model'"),
            ("eta", {"model": "m.json", "x": 0}, "'model'"),
        ]
        for experiment, doc, where in cases:
            assert where in self.expect_2(runner, tmp_path, experiment, doc)

    def test_eta_model_block_is_a_strict_model_document(self, runner, tmp_path):
        for model, field in (({**MODEL_DOC, "psy": None}, "'psy'"), ({**MODEL_DOC, "X": 0}, "'X'")):
            msg = self.expect_2(runner, tmp_path, "eta", {"model": model, "x": 0})
            assert msg.startswith(f"error: model document has unknown field {field}")

    def test_non_numeric_fields(self, runner, tmp_path):
        g = GRID_CONFIG
        cases = [
            ("region", {**g, "prior": {"family": "normal", "mu": "0"}}, "'mu'"),
            ("region", {**g, "grid": {**g["grid"], "lo": "a"}}, "'lo'"),
            ("region", {**g, "grid": {**g["grid"], "n_cells": 16.5}}, "'n_cells'"),
            ("lambda", {**g, "steps": "2"}, "'steps'"),
            ("region", {**g, "gamma": [0.9]}, "'gamma'"),
            ("map", {**g, "target": "0.5"}, "'target'"),
            ("lambda", {**g, "likelihood": {"x": True}}, "'x'"),
            ("eta", {"table": {"prior": "ab", "posterior": [0.5, 0.5]}}, "'prior'"),
            ("eta", {"table": {"prior": [0.5, None], "posterior": [0.5, 0.5]}}, "'prior'"),
            ("eta", {"model": MODEL_DOC, "x": "0"}, "'x'"),
            ("region", {**g, "grid": {**g["grid"], "hi": 10**400}}, "'hi'"),
        ]
        for experiment, doc, field in cases:
            msg = self.expect_2(runner, tmp_path, experiment, doc)
            assert field in msg and ("number" in msg or "integer" in msg), msg

    def test_unknown_block_fields_and_empty_ladders(self, runner, tmp_path):
        g = GRID_CONFIG
        cases = [
            ("lambda", {**g, "prior": {"family": "normal", "mean": 3.0}},
             "normal takes mu, sigma2, not 'mean'"),
            ("lambda", {**g, "likelihood": {**g["likelihood"], "sigm2": 9.0}},
             "likelihood config has unknown field 'sigm2'; it takes kind, x, sigma2"),
            ("region", {**g, "grid": {**g["grid"], "width": 1.0}},
             "grid config has unknown field 'width'; it takes lo, hi, n_cells"),
            ("lambda", {**g, "steps": 0}, "a grid ladder needs at least one step, got 0"),
            ("map", {**g, "steps": -3}, "a grid ladder needs at least one step, got -3"),
        ]
        # a misspelt top-level key ran with the default it left in place (refine_factor 16)
        takes = (
            "it takes experiment, prior, likelihood, grid, steps, factor, gamma, refine_factor, "
            "target, eta_steps, table, model, x"
        )
        table = {"table": {"prior": [0.5, 0.5], "posterior": [0.2, 0.8]}}
        for experiment, doc, key in [
            ("region", {**g, "refine_facter": 2}, "refine_facter"),
            ("sandwich", {**table, "gama": 0.9}, "gama"),
            ("eta", {**table, "comment": "a"}, "comment"),
        ]:
            cases.append((experiment, doc, f"limits config has unknown field {key!r}; {takes}"))
        for experiment, doc, message in cases:
            assert self.expect_2(runner, tmp_path, experiment, doc) == f"error: {message}\n"
        # every documented key is read by some experiment; "experiment" names the command
        res = invoke_limits(runner, tmp_path, "lambda", {**g, "experiment": "lambda"})
        assert res.exit_code == 0, res.output

    def test_grids_past_the_cell_cap(self, runner, tmp_path):
        g = GRID_CONFIG
        cases = [
            ("lambda", {**g, "steps": 70}, "ladder step 18 of 70"),
            ("sandwich", {**g, "factor": 2**30}, "ladder step 2 of 2"),
            ("map", {**g, "grid": {**g["grid"], "n_cells": 2**40}}, "base grid"),
            ("region", {**g, "refine_factor": 2**17}, "reference grid"),
        ]
        for experiment, doc, what in cases:
            msg = self.expect_2(runner, tmp_path, experiment, doc)
            assert what in msg and "cap" in msg, msg

    def test_table_totals_past_the_float_range(self, runner, tmp_path):
        huge, half = [1e308, 1e308], [0.5, 0.5]
        cases = [
            ("eta", {"table": {"prior": huge, "posterior": half}}, "prior"),
            ("sandwich", {"table": {"prior": half, "posterior": huge}, "gamma": 0.5}, "posterior"),
        ]
        for experiment, doc, what in cases:
            msg = self.expect_2(runner, tmp_path, experiment, doc)
            assert msg.startswith(f"error: {what} sums past the float range"), msg

    def test_integral_float_counts_accepted(self, runner, tmp_path):
        doc = {**GRID_CONFIG, "steps": 2.0, "grid": {**GRID_CONFIG["grid"], "n_cells": 16.0}}
        as_float = invoke_limits(runner, tmp_path, "region", doc)
        as_int = invoke_limits(runner, tmp_path, "region", GRID_CONFIG)
        assert as_float.exit_code == as_int.exit_code == 0
        assert as_float.output == as_int.output


class TestGriddedInputsPastTheFloatRange:
    """Every gridded experiment ends such an input with one ``error:`` line and no numpy warning."""

    def expect_one_error(self, runner, tmp_path, doc, message):
        for experiment in ("lambda", "map", "region", "sandwich"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                res = invoke_limits(runner, tmp_path, experiment, doc)
            assert res.exit_code == 2, (experiment, res.output)
            assert res.stdout == "" and res.stderr == f"error: {message}\n", experiment

    def test_lognormal_scale_past_the_float_range(self, runner, tmp_path):
        # exp(800) overflows; exp(-800) is 0
        doc = {
            **GRID_CONFIG,
            "likelihood": {"kind": "normal-location-log", "x": 0.5, "sigma2": 1.0},
            "grid": {"lo": 0.0, "hi": 5.0, "n_cells": 64},
        }
        for mu in (800.0, -800.0):
            doc["prior"] = {"family": "lognormal", "mu": mu, "sigma2": 1.0}
            message = f"lognormal needs a positive finite exp(mu), got mu = {mu}"
            self.expect_one_error(runner, tmp_path, doc, message)

    def test_grid_width_past_the_float_range(self, runner, tmp_path):
        doc = {**GRID_CONFIG, "grid": {"lo": -1e308, "hi": 1e308, "n_cells": 64}}
        message = "need lo < hi and a finite width hi - lo, got [-1e+308, 1e+308]"
        self.expect_one_error(runner, tmp_path, doc, message)

    def test_grid_edges_past_the_float_range(self, runner, tmp_path):
        # a finite width whose cells, on the base grid or on the second ladder grid,
        # offset the last edge past the float range
        for lo, n_cells, overflowing in ((-8e307, 32, 32), (-5e306, 32, 64)):
            doc = {**GRID_CONFIG, "grid": {"lo": lo, "hi": 0.0, "n_cells": n_cells}}
            message = f"the edges of [{lo}, 0.0) in {overflowing} cells pass the float range"
            self.expect_one_error(runner, tmp_path, doc, message)

    def test_node_values_that_overflow_take_their_limit(self, runner, tmp_path):
        # each overflows to inf inside an exponent, where exp(-inf) is 0 at every node
        g = GRID_CONFIG
        for doc in (
            {**g, "likelihood": {**g["likelihood"], "x": 1e308}},
            {**g, "likelihood": {**g["likelihood"], "sigma2": 1e-320}},
            {**g, "prior": {**g["prior"], "sigma2": 1e-320}},
            {**g, "grid": {"lo": 1e300, "hi": 1e301, "n_cells": 16}},
        ):
            self.expect_one_error(runner, tmp_path, doc, "density places no mass on the grid range")


# floats at the edges of the range (the largest, the subnormals, the last normal,
# where exp overflows and underflows, both zeros), each beside its two neighbours
FLOAT_EDGES = tuple({
    repr(v): v
    for edge in (1e308, -1e308, 5e-324, -5e-324, 1e-320, 2.2e-308, 709.8, -745.2, 1e300, -1e300,
                 0.0, -0.0)
    for v in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf))
}.values())
# a working config per density family, with the fields of its prior
FAMILY_CONFIGS = {
    "normal": (GRID_CONFIG, ("mu", "sigma2")),
    "beta": ({
        **GRID_CONFIG,
        "prior": {"family": "beta", "alpha": 3.0, "beta": 2.0},
        "likelihood": {"kind": "normal-location", "x": 0.4, "sigma2": 0.02},
        "grid": {"lo": 0.0, "hi": 1.0, "n_cells": 16},
    }, ("alpha", "beta")),
    "lognormal": ({
        **GRID_CONFIG,
        "prior": {"family": "lognormal", "mu": 0.1, "sigma2": 0.3},
        "likelihood": {"kind": "normal-location-log", "x": 0.6, "sigma2": 0.5},
        "grid": {"lo": 0.0, "hi": 5.0, "n_cells": 16},
    }, ("mu", "sigma2")),
    "uniform": ({
        **GRID_CONFIG,
        "prior": {"family": "uniform", "a": -1.0, "b": 2.0},
        "grid": {"lo": -2.0, "hi": 3.0, "n_cells": 16},
    }, ("a", "b")),
}


@st.composite
def gridded_float_edges(draw):
    """A family's working config with one or two numeric fields set to a float edge."""
    config, params = FAMILY_CONFIGS[draw(st.sampled_from(sorted(FAMILY_CONFIGS)))]
    doc = json.loads(json.dumps({**config, "target": 1.0}))
    fields = [("prior", p) for p in params] + [
        ("likelihood", "x"), ("likelihood", "sigma2"), ("grid", "lo"), ("grid", "hi"),
        ("gamma",), ("target",),
    ]
    for *block, key in draw(st.lists(st.sampled_from(fields), min_size=1, max_size=2, unique=True)):
        (doc[block[0]] if block else doc)[key] = draw(st.sampled_from(FLOAT_EDGES))
    return doc


@st.composite
def table_float_edges(draw):
    """A table config whose fourth value has float-edge masses; up to two other
    entries, and gamma, may be float edges too."""
    edges = st.sampled_from(FLOAT_EDGES)
    prior, posterior = [0.25, 0.25, 0.5, draw(edges)], [0.5, 0.25, 0.25, draw(edges)]
    for masses in draw(st.lists(st.sampled_from([prior, posterior]), max_size=2)):
        masses[draw(st.integers(0, 3))] = draw(edges)
    gamma = draw(st.sampled_from([0.9, 1.0]) | edges)
    return {"table": {"prior": prior, "posterior": posterior}, "gamma": gamma, "eta_steps": 4}


class TestGriddedFloatRange:
    """Numeric fields at the edges of the float range end in exit 0, or in exit 2 or 3
    with one ``error:`` line and no output, never in a numpy warning or a traceback."""

    def expect_clean_exit(self, runner, tmp_path, experiment, doc):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # a grid that cuts off prior tail mass warns by design
            warnings.filterwarnings("ignore", ".*of the distribution lies outside", UserWarning)
            res = invoke_limits(runner, tmp_path, experiment, doc)
        assert res.exit_code in (0, 2, 3), (experiment, doc, res.exception, res.output)
        if res.exit_code:
            assert res.stdout == "", (experiment, doc)
            assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, (
                experiment, doc, res.stderr
            )

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(doc=gridded_float_edges())
    def test_gridded_experiments(self, runner, tmp_path, doc):
        for experiment in ("lambda", "map", "region", "sandwich"):
            self.expect_clean_exit(runner, tmp_path, experiment, doc)

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(doc=table_float_edges())
    def test_table_experiments(self, runner, tmp_path, doc):
        for experiment in ("eta", "sandwich"):
            self.expect_clean_exit(runner, tmp_path, experiment, doc)


def test_beta_density_overflow_exits_3(runner, tmp_path):
    # the beta(0.5, 2) pdf overflows the float range at subnormal points
    doc = {
        **GRID_CONFIG,
        "prior": {"family": "beta", "alpha": 0.5, "beta": 2.0},
        "grid": {"lo": 0.0, "hi": 1e-307, "n_cells": 16},
    }
    res = invoke_limits(runner, tmp_path, "lambda", doc)
    assert res.exit_code == 3, res.output
    assert res.output.startswith("error: density overflows") and res.output.count("\n") == 1


class TestWarningLine:
    """A warning the filters show prints as one line; the filters are left as they are."""

    TAIL = {**GRID_CONFIG, "grid": {"lo": -1.5, "hi": 2.0, "n_cells": 16}}

    def test_tail_warning_is_one_line(self, runner, tmp_path):
        res = invoke_limits(runner, tmp_path, "lambda", self.TAIL)
        assert res.exit_code == 0, res.output
        lines = res.stderr.splitlines()
        assert len(lines) == 2 and res.stderr.endswith("\n"), res.stderr
        for line in lines:
            assert line.startswith("warning: 0.089") and line.endswith(
                "of the distribution lies outside [-1.5, 2.0); masses were renormalized"
            ), line
        assert res.stdout.startswith("parameter,discrepancy,summary\n")

    def test_filters_still_decide(self, runner, tmp_path, model_file, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            res = invoke_limits(runner, tmp_path, "lambda", self.TAIL)
        assert res.exit_code == 0 and res.stderr == ""
        from relbel import model

        def leaky(m):
            warnings.warn("leaked", RuntimeWarning)
            return m.predictive

        monkeypatch.setattr(model, "prior_predictive", leaky)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = runner.invoke(main, ["model", "--model", model_file])
        assert isinstance(res.exception, RuntimeWarning)


class TestReportRoundTrips:
    def test_risk_table_csv_round_trip(self, runner):
        from relbel.classify import RiskTableRow, risk_table

        args = [
            "classify", "table1", "--betas", "1,14", "--reps", "2000",
            "--seed", "21", "--precision", "full",
        ]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        rows = list(csv.DictReader(io.StringIO(res.output)))
        assert list(rows[0]) == [f.name for f in dataclasses.fields(RiskTableRow)]
        want = risk_table(1.0, [1.0, 14.0], 1.0, 10, 2000, 21)
        assert [{k: float(v) for k, v in r.items()} for r in rows] == [
            dataclasses.asdict(w) for w in want
        ]

    def test_functional_report_json_round_trip(self, runner, tmp_path):
        from relbel.regress import RegressionSpec, functional_inference

        (tmp_path / "X.csv").write_text("1.0\n1.0\n")
        (tmp_path / "y.csv").write_text("1.0\n3.0\n")
        (tmp_path / "w.csv").write_text("1.0\n")
        res = runner.invoke(
            main,
            [
                "regress", "--design", str(tmp_path / "X.csv"),
                "--response", str(tmp_path / "y.csv"),
                "--sigma2", "1", "--tau2", "1", "--w", str(tmp_path / "w.csv"),
            ],
        )
        assert res.exit_code == 0, res.output
        parsed = json.loads(res.output)
        direct = functional_inference(
            RegressionSpec(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]), 1.0, 1.0), [1.0]
        )
        for field in (
            "psi_map", "psi_rb", "sigma2_psi", "sigma2_psi_post",
            "z_map", "z_rb", "sigma2_z", "sigma2_z_post",
        ):
            assert parsed[field] == getattr(direct, field)
        assert parsed["w"] == direct.w.tolist()

    def test_numerical_guard_exits_3(self, runner, tmp_path):
        (tmp_path / "X.csv").write_text("1.0\n1.0\n")
        (tmp_path / "y.csv").write_text("0.5\n0.7\n")
        (tmp_path / "w.csv").write_text("1.0\n")
        res = runner.invoke(
            main,
            [
                "regress", "--design", str(tmp_path / "X.csv"),
                "--response", str(tmp_path / "y.csv"),
                "--sigma2", "1e18", "--tau2", "1", "--w", str(tmp_path / "w.csv"),
            ],
        )
        assert res.exit_code == 3


# small values only: a large number in a count field (steps, n_cells,
# refine_factor, ...) would ask for an enormous grid
JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-3, 5),
    "float": st.floats(-10.0, 10.0) | st.sampled_from([math.nan, math.inf, -math.inf]),
    "str": st.text(max_size=4),
    "list": st.lists(st.integers(-3, 5) | st.floats(-10.0, 10.0), max_size=4),
    "object": st.dictionaries(st.text(max_size=3), st.integers(-3, 5), max_size=2),
}


def json_type(value) -> str:
    for name, kind in (("null", type(None)), ("bool", bool), ("int", int), ("float", float),
                       ("str", str), ("list", list), ("object", dict)):
        if isinstance(value, kind):
            return name
    raise TypeError(value)


def field_paths(doc, prefix=()):
    """The root and the path of every object field, at any depth."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from field_paths(value, prefix + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    return {**doc, path[0]: replaced(doc[path[0]], path[1:], value)}


# "@" stands for the path of the mutated document
PSI_DOC = {**MODEL_DOC, "psi": {"labels": ["A", "B"], "assignment": [1, 0]}}
FUZZ_CASES = [
    (["evidence", "--model", "@", "--x", "0", "--psi0", "0"], PSI_DOC),
    (["decide", "--model", "@", "--loss", "rb"], PSI_DOC),
    (["model", "--model", "@", "--x", "1"], MODEL_DOC),
    (["limits", "eta", "--config", "@"], {"model": PSI_DOC, "x": 1, "eta_steps": 4}),
    (["limits", "eta", "--config", "@"], {"table": {"prior": [0.5, 0.5], "posterior": [0.2, 0.8]}}),
    (["limits", "sandwich", "--config", "@"],
     {"table": {"prior": [0.5, 0.25, 0.25], "posterior": [0.1, 0.2, 0.7]}, "gamma": 0.5}),
    (["limits", "lambda", "--config", "@"], {**GRID_CONFIG, "target": 1.0}),
    (["limits", "map", "--config", "@"], GRID_CONFIG),
    (["limits", "region", "--config", "@"], GRID_CONFIG),
    (["limits", "sandwich", "--config", "@"], {**GRID_CONFIG, "eta_steps": 3}),
]


@st.composite
def mutated_documents(draw):
    argv, doc = draw(st.sampled_from(FUZZ_CASES))
    path = draw(st.sampled_from(list(field_paths(doc))))
    current = doc
    for key in path:
        current = current[key]
    kind = draw(st.sampled_from(sorted(set(JSON_VALUES) - {json_type(current)})))
    return argv, replaced(doc, path, draw(JSON_VALUES[kind]))


REGRESS_ARGV = [
    "regress", "--design", "{dir}/X.csv", "--response", "{dir}/y.csv",
    "--sigma2", "1", "--tau2", "1", "--w", "{dir}/w.csv",
]
# a valid command line for every input file option, and the option
FILE_OPTIONS = [
    (["model", "--model", "{dir}/m.json"], "--model"),
    (["evidence", "--model", "{dir}/m.json", "--x", "0"], "--model"),
    (["decide", "--model", "{dir}/m.json"], "--model"),
    (["limits", "eta", "--config", "{dir}/eta.json"], "--config"),
    *((REGRESS_ARGV, option) for option in ("--design", "--response", "--w")),
]


@pytest.mark.parametrize(
    "base, option", FILE_OPTIONS, ids=[f"{b[0]}{o}" for b, o in FILE_OPTIONS]
)
class TestInputFiles:
    """A directory or a file that is not UTF-8 exits 2, never in a traceback."""

    def argv(self, tmp_path, base, option):
        files = {
            "m.json": json.dumps(MODEL_DOC),
            "eta.json": json.dumps({"model": MODEL_DOC, "x": 1}),
            "X.csv": "1.0\n2.0\n",
            "y.csv": "1.0\n3.0\n",
            "w.csv": "1.0\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [a.format(dir=tmp_path) for a in base]
        return argv, argv.index(option) + 1

    def test_directory_exits_2(self, runner, tmp_path, base, option):
        argv, at = self.argv(tmp_path, base, option)
        assert runner.invoke(main, argv).exit_code == 0
        argv[at] = str(tmp_path)
        res = runner.invoke(main, argv)
        assert res.exit_code == 2, (argv, res.exception, res.output)
        assert "is a directory" in res.stderr and "Traceback" not in res.output

    def test_non_utf8_file_exits_2_with_one_line(self, runner, tmp_path, base, option):
        argv, at = self.argv(tmp_path, base, option)
        good = Path(argv[at])
        # Latin-1 bytes: a label "t1\xe9", or a CSV cell "1\xe9.0"
        bad = tmp_path / f"latin1{good.suffix}"
        bad.write_bytes(good.read_text().replace("1", "1\xe9", 1).encode("latin-1"))
        argv[at] = str(bad)
        res = runner.invoke(main, argv)
        assert res.exit_code == 2, (argv, res.exception, res.output)
        assert res.stdout == "" and res.stderr.startswith("error: ")
        assert res.stderr.count("\n") == 1 and "Traceback" not in res.output


class TestCliFuzz:
    # a mutated grid range can cut off prior tail mass, which warns by design
    @pytest.mark.filterwarnings("ignore:.*of the distribution lies outside")
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(case=mutated_documents())
    def test_any_mistyped_field_exits_0_2_or_3(self, runner, tmp_path, case):
        """Replace one field, or the whole document, by a value of another JSON type."""
        argv, doc = case
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        res = runner.invoke(main, [str(path) if a == "@" else a for a in argv])
        assert res.exit_code in (0, 2, 3), (doc, res.exception, res.output)
        assert "Traceback" not in res.output



CSV_CELLS = st.sampled_from(
    ["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "1e999", "0", "", " ", "x", "1;2"]
) | st.floats(-1e6, 1e6).map(repr)
GOOD_CSV = {
    "design": [["1.0", "0.5"], ["1.0", "1.5"], ["1.0", "2.0"]],
    "response": [["1.0"], ["3.0"], ["2.0"]],
    "w": [["1.0"], ["0.0"]],
}


@st.composite
def csv_text(draw, rows):
    """A valid CSV with one cell replaced, a row made ragged, a header, or no data."""
    rows = [list(r) for r in rows]
    change = draw(st.sampled_from(["none", "cell", "ragged", "header", "empty"]))
    i = draw(st.integers(0, len(rows) - 1))
    if change == "cell":
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(CSV_CELLS)
    elif change == "ragged":
        rows[i] = rows[i][:-1] if len(rows[i]) > 1 and draw(st.booleans()) else rows[i] + ["1.0"]
    elif change == "header":
        rows.insert(0, draw(st.sampled_from([["a", "b"], ["y"], ["#"], ["a", "b", "c"]])))
    elif change == "empty":
        return draw(st.sampled_from(["", "\n", "a,b\n"]))
    return "\n".join(",".join(r) for r in rows) + draw(st.sampled_from(["", "\n"]))


class TestRegressCsvFuzz:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        files=st.fixed_dictionaries({k: csv_text(rows) for k, rows in GOOD_CSV.items()}),
        grid_check=st.sampled_from([None, "1", "64"]),
    )
    def test_malformed_csv_exits_0_2_or_3(self, runner, tmp_path, files, grid_check):
        """Ragged, non-numeric, non-finite or empty CSV inputs never end in a traceback."""
        argv = ["regress", "--sigma2", "1", "--tau2", "1"]
        for key, text in files.items():
            path = tmp_path / f"{key}.csv"
            path.write_text(text)
            argv += ["--" + key, str(path)]
        if grid_check is not None:
            argv += ["--grid-check", grid_check]
        res = runner.invoke(main, argv)
        assert res.exit_code in (0, 2, 3), (files, res.exception, res.output)
        if res.exit_code == 0:
            # strict JSON: a NaN or an infinity would parse as a constant
            json.loads(res.output, parse_constant=lambda c: pytest.fail(f"{c} in {files}"))


# a valid command line per command, and the float options each one takes;
# an option given twice takes its last value, so appending one overrides it
FLOAT_OPTIONS = [
    (["evidence", "--model", "{model}", "--x", "0"], "--gamma"),
    (["decide", "--model", "{model}", "--loss", "rb-eta", "--eta", "0.3"], "--eta"),
    *(
        (["classify", "known", "--psi0", "0.05", "--psi1", "0.8", "--epsilon", "0.01"], opt)
        for opt in ("--psi0", "--psi1", "--epsilon")
    ),
    *(
        (["classify", "table1", "--betas", "1", "--reps", "10", "--seed", "7"], opt)
        for opt in ("--alpha", "--mu", "--betas")
    ),
    *(
        (
            [
                "classify", "predict", "--alpha", "1", "--beta", "2", "--n", "10",
                "--c-bar", "0.5", "--f0", "0.1", "--f1", "0.3",
            ],
            opt,
        )
        for opt in ("--alpha", "--beta", "--c-bar", "--f0", "--f1")
    ),
    *(
        (
            [
                "regress", "--design", "{dir}/X.csv", "--response", "{dir}/y.csv",
                "--sigma2", "1", "--tau2", "1", "--w", "{dir}/w.csv",
            ],
            opt,
        )
        for opt in ("--sigma2", "--tau2")
    ),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "base, option",
    FLOAT_OPTIONS,
    ids=[f"{'-'.join(b[:2]) if b[0] == 'classify' else b[0]}{o}" for b, o in FLOAT_OPTIONS],
)
def test_non_finite_float_option_exits_2(runner, tmp_path, model_file, base, option, value):
    (tmp_path / "X.csv").write_text("1.0\n2.0\n")
    (tmp_path / "y.csv").write_text("1.0\n3.0\n")
    (tmp_path / "w.csv").write_text("1.0\n")
    argv = [a.format(model=model_file, dir=tmp_path) for a in base]
    # a --betas entry: one good value, then the bad one
    argv.append(f"{option}={'1,' if option == '--betas' else ''}{value}")
    assert runner.invoke(main, argv[:-1]).exit_code == 0
    res = runner.invoke(main, argv)
    assert res.exit_code == 2, (argv, res.output)
    assert res.stdout == "" and res.stderr.startswith("error: "), res.output
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.output


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` in a new interpreter that imports relbel from this tree."""
    src = str(Path(relbel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


# the last line a fresh interpreter prints: every scipy module it has loaded
SCIPY_MODULES = (
    "import sys; print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
)


def test_cli_imports_no_scipy():
    # a fresh interpreter: this test process has imported scipy already
    out = fresh_python("-c", "import relbel, relbel.cli; " + SCIPY_MODULES)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]", out.stdout


# the relbel modules each command loads: the package, its errors and the CLI,
# plus the layers the command runs and what those import
CLI_BASE = {"relbel", "relbel.errors", "relbel.cli"}
WITH_MODEL = CLI_BASE | {"relbel._sums", "relbel.model"}
WITH_EVIDENCE = WITH_MODEL | {"relbel.evidence"}
WITH_DECISION = WITH_EVIDENCE | {"relbel.decision"}
WITH_LIMITS = WITH_DECISION | {"relbel.grids", "relbel.limits"}
WITH_CLASSIFY = CLI_BASE | {"relbel._sums", "relbel.classify"}


def test_finite_commands_load_no_scipy(tmp_path, model_file):
    """One fresh interpreter per command: its layers load, and scipy only for a special function."""
    cfg = tmp_path / "eta.json"
    cfg.write_text(json.dumps({"model": MODEL_DOC, "x": 1, "eta_steps": 4}))
    # a normal prior evaluates only pdfs; a beta prior needs scipy's beta kernels
    region = {
        "likelihood": {"kind": "normal-location", "x": 0.4, "sigma2": 1.0},
        "steps": 2,
        "gamma": 0.9,
        "refine_factor": 4,
    }
    normal, beta = tmp_path / "normal.json", tmp_path / "beta.json"
    normal.write_text(json.dumps({
        **region,
        "prior": {"family": "normal", "mu": 0.0, "sigma2": 1.0},
        "grid": {"lo": -6.0, "hi": 6.0, "n_cells": 32},
    }))
    beta.write_text(json.dumps({
        **region,
        "prior": {"family": "beta", "alpha": 3.0, "beta": 2.0},
        "grid": {"lo": 0.0, "hi": 1.0, "n_cells": 32},
    }))
    for name, text in (("X", "1.0\n2.0\n"), ("y", "1.0\n3.0\n"), ("w", "1.0\n")):
        (tmp_path / f"{name}.csv").write_text(text)
    # argv, the relbel modules it loads, and whether it loads scipy
    commands = [
        (["--version"], CLI_BASE, False),
        (["model", "--model", model_file, "--x", "1"], WITH_MODEL, False),
        (["evidence", "--model", model_file, "--x", "1", "--psi0", "0"], WITH_EVIDENCE, False),
        *((["decide", "--model", model_file, "--loss", loss], WITH_DECISION, False)
          for loss in ("rb", "map")),
        (["decide", "--model", model_file, "--loss", "rb-eta", "--eta", "0.3"], WITH_DECISION, False),
        (["limits", "eta", "--config", str(cfg)], WITH_LIMITS, False),
        (["classify", "known", "--psi0", "0.05", "--psi1", "0.8", "--epsilon", "0.01"],
         WITH_CLASSIFY, False),
        (["classify", "predict", "--alpha", "1", "--beta", "100", "--n", "10", "--c-bar", "0",
          "--f0", "0.1", "--f1", "0.3"], WITH_CLASSIFY, False),
        (["regress", "--design", str(tmp_path / "X.csv"), "--response", str(tmp_path / "y.csv"),
          "--sigma2", "1", "--tau2", "1", "--w", str(tmp_path / "w.csv"), "--grid-check", "64"],
         WITH_EVIDENCE | {"relbel.grids", "relbel.regress"}, True),
        (["limits", "region", "--config", str(normal)], WITH_LIMITS, False),
        (["limits", "region", "--config", str(beta)], WITH_LIMITS, True),
    ]
    code = (
        "import sys\n"
        "from relbel.cli import main\n"
        "assert main(sys.argv[1:], standalone_mode=False) in (None, 0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'relbel'))\n" + SCIPY_MODULES
    )
    for argv, modules, loads_scipy in commands:
        out = fresh_python("-c", code, *argv)
        assert out.returncode == 0, (argv, out.stderr)
        *_, loaded, scipy = out.stdout.splitlines()
        assert loaded == repr(sorted(modules)), argv
        assert (scipy != "[]") == loads_scipy, (argv, scipy)


def test_import_relbel_loads_no_layer():
    out = fresh_python("-c", "import sys, relbel; print(sorted(m for m in sys.modules if 'relbel' in m))")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "['relbel', 'relbel.errors']\n"


def test_decision_loads_no_grid_code():
    # the finite layers run no discretization, so importing them loads no relbel.grids
    code = "import sys, relbel.decision; print(sorted(m for m in sys.modules if 'relbel' in m))"
    out = fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"{sorted(WITH_DECISION - {'relbel.cli'})}\n"


def test_layers_load_on_attribute_access():
    code = (
        "import relbel\n"
        "print(relbel.grids.family('normal', mu=0.0, sigma2=1.0).pdf(0.0) > 0)\n"
        "print(all(name in dir(relbel) for name in relbel.__all__))\n"
        "try:\n"
        "    relbel.no_such_layer\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    out = fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "True", "True", "module 'relbel' has no attribute 'no_such_layer'"
    ]


def test_star_import_binds_every_layer():
    code = (
        "from relbel import *\n"
        "import relbel, types\n"
        "names = ('classify', 'decision', 'evidence', 'grids', 'limits', 'model', 'regress')\n"
        "print([n for n in names if not isinstance(globals().get(n), types.ModuleType)])\n"
        "print(sorted(set(relbel.__all__) - set(globals())))\n"
        "print(model is relbel.model and limits.CELL_CAP == grids.CELL_CAP)\n"
    )
    out = fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[]", "True"]


def test_version_from_a_source_checkout():
    out = fresh_python("-m", "relbel.cli", "--version")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "relbel, version 0.1.0\n"


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert relbel.__version__ == tomllib.load(f)["project"]["version"]
