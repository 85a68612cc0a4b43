import json

import numpy as np
import pytest
from click.testing import CliRunner

from relbel.cli import main


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
        assert "integer indices" in self.invoke(runner, tmp_path, doc)

    def test_row_sum_past_float_range(self, runner, tmp_path):
        doc = {**MODEL_DOC, "likelihood": [[1e308, 1e308], [0.2, 0.8]]}
        assert "float range" in self.invoke(runner, tmp_path, doc)

    def test_unwritable_output_path(self, runner, tmp_path):
        out = str(tmp_path / "no-such-dir" / "out.json")
        msg = self.invoke(runner, tmp_path, MODEL_DOC, extra=("-o", out))
        assert "cannot write" in msg

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


class TestReportRoundTrips:
    def test_risk_table_csv_round_trip(self, runner):
        from relbel.classify import risk_table, rows_from_csv

        args = [
            "classify", "table1", "--betas", "1,14", "--reps", "2000",
            "--seed", "21", "--precision", "full",
        ]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert rows_from_csv(res.output) == risk_table(1.0, [1.0, 14.0], 1.0, 10, 2000, 21)

    def test_functional_report_json_round_trip(self, runner, tmp_path):
        from relbel.regress import (
            RegressionSpec,
            functional_inference,
            functional_report_from_dict,
        )

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
        parsed = functional_report_from_dict(json.loads(res.output))
        direct = functional_inference(
            RegressionSpec(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]), 1.0, 1.0), [1.0]
        )
        for field in (
            "psi_map", "psi_rb", "sigma2_psi", "sigma2_psi_post",
            "z_map", "z_rb", "sigma2_z", "sigma2_z_post",
        ):
            assert getattr(parsed, field) == getattr(direct, field)
        assert np.all(parsed.w == direct.w)

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
