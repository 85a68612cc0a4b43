"""Command-line surface: one binary, JSON/CSV in, JSON/CSV reports out.

Exit codes: 0 success, 2 invalid input, 3 numerical guard tripped. All
randomness flows from an explicit ``--seed``; identical inputs and seed
give byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import classify as classify_mod
from . import decision as decision_mod
from . import evidence as evidence_mod
from . import grids as grids_mod
from . import limits as limits_mod
from . import regress as regress_mod
from .errors import NumericalGuardError, ValidationError
from .model import (
    identity_psi,
    marginalize,
    model_from_json,
    posterior,
    prior_predictive,
    psi_marginal,
)

EXIT_VALIDATION = 2
EXIT_GUARD = 3


def _fail(exc: Exception, code: int):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _run(fn):
    try:
        fn()
    except ValidationError as exc:
        _fail(exc, EXIT_VALIDATION)
    except NumericalGuardError as exc:
        _fail(exc, EXIT_GUARD)
    except json.JSONDecodeError as exc:
        _fail(f"invalid JSON: {exc}", EXIT_VALIDATION)


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ValidationError(f"{where} is missing the {key!r} field")
    return doc[key]


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _number(value, what: str) -> float:
    """A finite JSON number; ``abs`` compares huge integers exactly, NaN fails it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        abs(value) <= sys.float_info.max
    ):
        raise ValidationError(f"{what} must be a finite number, got {value!r:.40}")
    return float(value)


def _count(value, what: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r:.40}")
    return value


def _emit(text: str, output: str | None):
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {output!r}: {exc.strerror}") from exc
    else:
        click.echo(text, nl=False)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _fmt(value, precision: str) -> str:
    if isinstance(value, float):
        return f"{value:.17g}" if precision == "full" else f"{value:.6g}"
    return str(value)


def _csv_text(header: list[str], rows: list[list], precision: str) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v, precision) for v in row])
    return buf.getvalue()


def _region_doc(report: evidence_mod.RegionReport) -> dict:
    return {
        "members": sorted(report.member_indices),
        "cutoff": None if report.cutoff == -math.inf else report.cutoff,
        "posterior_content": report.posterior_content,
        "prior_content": report.prior_content,
    }


@click.group()
@click.version_option()
def main():
    """Relative belief inference toolkit."""


@main.command("model")
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option("--x", "x_index", type=int, default=None, help="Outcome index for a posterior report.")
@click.option("--output", "-o", type=click.Path(), default=None)
def model_cmd(model_path, x_index, output):
    """Validate a model file; report predictives and posteriors."""

    def body():
        model, psi = model_from_json(Path(model_path))
        doc = {
            "valid": True,
            "renormalized": model.renormalized,
            "prior_predictive": prior_predictive(model).tolist(),
        }
        if x_index is not None:
            rep = posterior(model, x_index)
            doc["posterior"] = {
                "masses": rep.posterior.tolist(),
                "evidence_norm": rep.evidence_norm,
            }
        if psi is not None:
            pi_psi, cond = marginalize(model, psi)
            doc["marginal"] = {
                "pi_psi": pi_psi.tolist(),
                "conditional_predictive": cond.tolist(),
            }
        _emit(_json_text(doc), output)

    _run(body)


@main.command("evidence")
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option("--x", "x_index", type=int, required=True)
@click.option("--gamma", type=float, default=0.95, show_default=True)
@click.option(
    "--convention",
    type=click.Choice(["sup-geq", "quantile-gt"]),
    default="sup-geq",
    show_default=True,
)
@click.option("--psi0", type=int, default=None, help="Value index to assess as a hypothesis.")
@click.option("--output", "-o", type=click.Path(), default=None)
def evidence_cmd(model_path, x_index, gamma, convention, psi0, output):
    """Evidence table and inferences for one observed outcome."""

    def body():
        model, psi = model_from_json(Path(model_path))
        t = evidence_mod.table_from_model(model, x_index, psi)
        est = evidence_mod.rb_estimate(t)
        doc = {
            "labels": list(t.labels),
            "rb": t.rb.tolist(),
            "prior": t.prior.tolist(),
            "posterior": t.posterior.tolist(),
            "estimate": est.index,
            "tie": est.tie,
            "dropped_zero_prior": t.dropped_zero_prior,
            "plausible": _region_doc(evidence_mod.plausible_region(t)),
            "credible": {
                "gamma": gamma,
                "convention": convention,
                **_region_doc(evidence_mod.credible_region(t, gamma, convention)),
            },
        }
        if psi0 is not None:
            rep = evidence_mod.assess_hypothesis(t, psi0)
            doc["strength"] = rep.strength
            doc["hypothesis"] = {
                "psi0": psi0,
                "rb_at_psi0": rep.rb_at_psi0,
                "strength": rep.strength,
                "posterior_mass": rep.posterior_mass,
                "verdict": rep.verdict,
            }
        _emit(_json_text(doc), output)

    _run(body)


@main.command("decide")
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option(
    "--loss",
    type=click.Choice(["rb", "map", "rb-eta"]),
    default="rb",
    show_default=True,
)
@click.option("--eta", type=float, default=None, help="Cap for the rb-eta loss.")
@click.option("--output", "-o", type=click.Path(), default=None)
def decide_cmd(model_path, loss, eta, output):
    """Bayes rule, risks and evidence decomposition for a model."""

    def body():
        model, psi = model_from_json(Path(model_path))
        if psi is None:
            psi = identity_psi(model)
        prior = psi_marginal(model.prior, psi)
        loss_spec = decision_mod.make_loss(loss, prior, eta=eta)
        rule, report = decision_mod.bayes_rule(model, psi, loss_spec)
        direct = decision_mod.prior_risk(model, psi, loss_spec, rule)
        doc = {
            "loss": loss,
            "eta": eta,
            "actions": list(rule.action_per_x),
            "ties": list(rule.ties),
            "posterior_risk_per_x": report.posterior_risk_per_x.tolist(),
            "prior_risk": report.prior_risk,
            "prior_risk_joint": direct,
            "decomposition": [list(d) for d in report.decomposition]
            if report.decomposition
            else None,
        }
        _emit(_json_text(doc), output)

    _run(body)


@main.group("classify")
def classify_group():
    """Two-class classification commands."""


@classify_group.command("table1")
@click.option("--alpha", type=float, default=1.0, show_default=True)
@click.option("--betas", type=str, required=True, help="Comma-separated beta values.")
@click.option("--mu", type=float, default=1.0, show_default=True)
@click.option("--n", type=int, default=10, show_default=True)
@click.option("--reps", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--precision", type=click.Choice(["default", "full"]), default="default")
@click.option("--output", "-o", type=click.Path(), default=None)
def classify_table1(alpha, betas, mu, n, reps, seed, precision, output):
    """Monte Carlo misclassification table for both predictive classifiers."""

    def body():
        try:
            beta_values = [float(b) for b in betas.split(",") if b.strip()]
        except ValueError as exc:
            raise ValidationError(f"cannot parse --betas {betas!r}: {exc}") from exc
        if not beta_values:
            raise ValidationError("--betas must list at least one value")
        rows = classify_mod.risk_table(alpha, beta_values, mu, n, reps, seed)
        header = classify_mod.RiskTableRow.csv_header().split(",")
        table = [
            [r.beta, r.map_err0, r.map_err1, r.map_sum, r.rb_err0, r.rb_err1, r.rb_sum, r.reps, r.seed]
            for r in rows
        ]
        _emit(_csv_text(header, table, precision), output)

    _run(body)


@classify_group.command("predict")
@click.option("--alpha", type=float, required=True)
@click.option("--beta", type=float, required=True)
@click.option("--n", type=int, required=True)
@click.option("--c-bar", type=float, required=True)
@click.option("--f0", type=float, required=True, help="Class-0 density at the new point.")
@click.option("--f1", type=float, required=True, help="Class-1 density at the new point.")
@click.option("--output", "-o", type=click.Path(), default=None)
def classify_predict(alpha, beta, n, c_bar, f0, f1, output):
    """Posterior-predictive and relative-belief labels for one new item."""

    def body():
        spec = classify_mod.PredictiveSpec(
            alpha=alpha, beta=beta, n=n, c_bar=c_bar, f0_at_x=f0, f1_at_x=f1
        )
        res = classify_mod.predictive_classify(spec)
        _emit(
            _json_text(
                {
                    "c_map": res.c_map,
                    "c_rb": res.c_rb,
                    "map_ratio": res.map_ratio,
                    "rb_ratio": res.rb_ratio,
                }
            ),
            output,
        )

    _run(body)


@classify_group.command("known")
@click.option("--psi0", type=float, required=True)
@click.option("--psi1", type=float, required=True)
@click.option("--epsilon", type=float, required=True)
@click.option("--output", "-o", type=click.Path(), default=None)
def classify_known(psi0, psi1, epsilon, output):
    """Threshold labels and exact error sums under a known proportion."""

    def body():
        spec = classify_mod.TwoClassSpec(psi0=psi0, psi1=psi1, epsilon=epsilon)
        map_r = classify_mod.map_rule(spec)
        rb_r = classify_mod.rb_rule(spec)
        doc = {
            "map_rule": {"x0": map_r[0], "x1": map_r[1]},
            "rb_rule": {"x0": rb_r[0], "x1": rb_r[1]},
        }
        for name, rule in (("map", map_r), ("rb", rb_r)):
            e0, e1, tot = classify_mod.error_sum(spec, rule)
            doc[f"{name}_errors"] = {"err0": e0, "err1": e1, "sum": tot}
        _emit(_json_text(doc), output)

    _run(body)


def _load_csv_matrix(path: str) -> np.ndarray:
    """Plain numeric CSV, row-major, optional single header row."""
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError:
        try:
            return np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1)
        except ValueError as exc:
            raise ValidationError(f"cannot parse numeric CSV {path!r}: {exc}") from exc


@main.command("regress")
@click.option("--design", type=click.Path(exists=True), required=True)
@click.option("--response", type=click.Path(exists=True), required=True)
@click.option("--sigma2", type=float, required=True)
@click.option("--tau2", type=float, required=True)
@click.option("--w", "w_path", type=click.Path(exists=True), required=True)
@click.option("--grid-check", type=int, default=None, help="Cells for an argmax cross-check.")
@click.option("--output", "-o", type=click.Path(), default=None)
def regress_cmd(design, response, sigma2, tau2, w_path, grid_check, output):
    """Closed-form functional inference for conjugate Gaussian regression."""

    def body():
        X = _load_csv_matrix(design)
        y = _load_csv_matrix(response).ravel()
        w = _load_csv_matrix(w_path).ravel()
        spec = regress_mod.RegressionSpec(design=X, response=y, sigma2=sigma2, tau2=tau2)
        rep = regress_mod.functional_inference(spec, w)
        doc = regress_mod.functional_report_to_dict(rep)
        if grid_check is not None:
            sd = math.sqrt(rep.sigma2_psi)
            grid = grids_mod.build_grid(-8.0 * sd, 8.0 * sd, grid_check)
            check = regress_mod.rb_grid_check(spec, w, grid)
            doc["grid_check"] = {
                "closed_form": check.closed_form,
                "grid_argmax": check.grid_argmax,
                "gap": check.gap,
                "cell_width": grid.cell_width,
            }
        _emit(_json_text(doc), output)

    _run(body)


def _density_from_config(doc) -> grids_mod.DensityFamily:
    doc = _object(doc, "density config")
    name = _require(doc, "family", "density config")
    params = {k: _number(v, f"density field {k!r}") for k, v in doc.items() if k != "family"}
    return grids_mod.family(name, **params)


def _likelihood_from_config(doc):
    doc = _object(doc, "likelihood config")
    kind = doc.get("kind", "normal-location")
    x = _number(_require(doc, "x", "likelihood config"), "likelihood config field 'x'")
    sigma2 = _number(doc.get("sigma2", 1.0), "likelihood config field 'sigma2'")
    if kind == "normal-location":
        return limits_mod.gaussian_location_likelihood(x, sigma2)
    if kind == "normal-location-log":
        return limits_mod.gaussian_log_location_likelihood(x, sigma2)
    raise ValidationError(f"unknown likelihood kind {kind!r:.40}")


def _grid_from_config(doc) -> grids_mod.Grid1D:
    doc = _object(doc, "grid config")
    return grids_mod.build_grid(
        _number(_require(doc, "lo", "grid config"), "grid config field 'lo'"),
        _number(_require(doc, "hi", "grid config"), "grid config field 'hi'"),
        _count(_require(doc, "n_cells", "grid config"), "grid config field 'n_cells'"),
    )


def _ladder_from_config(doc: dict):
    """Prior density, likelihood and grid ladder of a gridded experiment."""
    fam = _density_from_config(_require(doc, "prior", "config"))
    lik = _likelihood_from_config(_require(doc, "likelihood", "config"))
    grids_list = limits_mod.grid_ladder(
        _grid_from_config(_require(doc, "grid", "config")),
        _count(doc.get("steps", 4), "config field 'steps'"),
        _count(doc.get("factor", 2), "config field 'factor'"),
    )
    return fam.pdf, lik, grids_list


def _eta_steps(doc: dict) -> int:
    return _count(doc.get("eta_steps", 8), "config field 'eta_steps'")


def _table_from_config(doc: dict) -> tuple[list, list]:
    """Prior and posterior masses of a ``table`` block."""
    tbl = _object(doc["table"], "table config")
    masses = []
    for key in ("prior", "posterior"):
        values = _require(tbl, key, "table config")
        if not isinstance(values, list):
            raise ValidationError(f"table config field {key!r} must be a list of numbers")
        masses.append([_number(v, f"table config field {key!r} entry") for v in values])
    return masses[0], masses[1]


def _trace_rows(trace: limits_mod.LimitTrace) -> tuple[list[str], list[list]]:
    header = ["parameter", "discrepancy", "summary"]
    rows = []
    for p, a, d in zip(trace.parameter_values, trace.actions_or_regions, trace.discrepancies):
        summary = f"{len(a)} cells" if isinstance(a, frozenset) else a
        rows.append([p, d, summary])
    return header, rows


@main.command("limits")
@click.argument("experiment", type=click.Choice(["eta", "lambda", "map", "region", "sandwich"]))
@click.option("--config", type=click.Path(exists=True), required=True)
@click.option("--precision", type=click.Choice(["default", "full"]), default="default")
@click.option("--output", "-o", type=click.Path(), default=None)
def limits_cmd(experiment, config, precision, output):
    """Run one limit experiment described by a JSON config; emit a CSV trace."""

    def body():
        doc = _object(json.loads(Path(config).read_text()), "limits config")
        if experiment in ("region", "sandwich"):
            gamma = _number(_require(doc, "gamma", f"{experiment} config"), "config field 'gamma'")
        if experiment == "eta":
            if "table" in doc:
                t = evidence_mod.rb_table(*_table_from_config(doc))
            else:
                block = _require(doc, "model", "eta config")
                model, psi = model_from_json(_object(block, "eta config field 'model'"))
                x = _count(_require(doc, "x", "eta config"), "eta config field 'x'")
                t = evidence_mod.table_from_model(model, x, psi)
            ladder = limits_mod.default_eta_ladder(t.prior, _eta_steps(doc))
            trace = limits_mod.eta_limit(t, eta_ladder=ladder)
            header, rows = _trace_rows(trace)
        elif experiment in ("lambda", "map", "region"):
            pdf, lik, grids_list = _ladder_from_config(doc)
            target = doc.get("target")
            if target is not None:
                target = _number(target, "config field 'target'")
            if experiment == "lambda":
                trace = limits_mod.lambda_limit(pdf, lik, grids_list, target=target)
            elif experiment == "map":
                trace = limits_mod.map_limit_contrast(pdf, lik, grids_list, target=target)
            else:
                trace = limits_mod.region_limit(
                    pdf, lik, gamma, grids_list,
                    _count(doc.get("refine_factor", 16), "config field 'refine_factor'"),
                )
            header, rows = _trace_rows(trace)
        else:
            header = ["parameter", "eta", "gamma_used", "gamma_next", "lower_holds", "upper_holds"]
            rows = []
            if "table" in doc:
                reports = [(0.0, limits_mod.lpl_sandwich(*_table_from_config(doc), gamma))]
            else:
                pdf, lik, grids_list = _ladder_from_config(doc)
                reports = limits_mod.sandwich_double_limit(
                    pdf, lik, gamma, grids_list, _eta_steps(doc)
                )
            for width, rep in reports:
                for eta, lo, up in zip(rep.eta_values, rep.lower_holds, rep.upper_holds):
                    rows.append([width, eta, rep.gamma_used, rep.gamma_next, lo, up])
        _emit(_csv_text(header, rows, precision), output)

    _run(body)


if __name__ == "__main__":
    main()
