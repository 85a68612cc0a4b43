"""Command-line surface: one binary, JSON/CSV in, JSON/CSV reports out.

Exit codes: 0 success, 2 invalid input, 3 numerical guard tripped. The
command group's ``invoke`` is the one place a library error becomes an exit
code, ``_read_json`` the one reader of JSON input files, and ``_json_text``
the one writer of JSON reports. A report dataclass's fields are its output
keys: a command passes ``dataclasses.asdict`` of it, and numpy arrays and
scalars as they are. All randomness flows from an explicit ``--seed``;
identical inputs and seed give byte-identical output.

Each command imports the library layers it runs inside its own body, so a
process loads only those: ``classify known`` never imports ``evidence``,
and ``--version`` imports no layer at all.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import sys
import warnings
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import IndexOutOfRangeError, NumericalGuardError, ValidationError

EXIT_VALIDATION = 2
EXIT_GUARD = 3


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ValidationError(f"{where} is missing the {key!r} field")
    return doc[key]


def _object(value, where: str, fields: tuple = ()) -> dict:
    """``value`` as a JSON object; given ``fields``, one that sets no other field."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be a JSON object, got {type(value).__name__}")
    unknown = [k for k in value if k not in fields] if fields else []
    if unknown:
        raise ValidationError(
            f"{where} has unknown field {unknown[0]!r:.40}; it takes {', '.join(fields)}"
        )
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


def _read_json(path: str, what: str) -> dict:
    """The JSON object in a UTF-8 file; a decode error is a ``ValidationError``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    return _object(doc, what)


def _emit(text: str, output: str | None):
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {output!r}: {exc.strerror}") from exc
    else:
        click.echo(text, nl=False)


def _json_text(doc) -> str:
    """``doc`` as sorted, indented JSON; numpy arrays and scalars become lists and numbers."""
    return json.dumps(doc, indent=2, sort_keys=True, default=lambda a: a.tolist()) + "\n"


def _fmt(value, precision: str) -> str:
    if isinstance(value, float):
        return f"{value:.17g}" if precision == "full" else f"{value:.6g}"
    return str(value)


def _csv_text(header: list[str], rows, precision: str) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v, precision) for v in row])
    return buf.getvalue()


def _region_doc(report, t) -> dict:
    """A region's fields, members as input indices of ``t``; a ``-inf`` cutoff prints as null."""
    doc = dataclasses.asdict(report)
    doc["members"] = t.kept_indices[report.members]
    if report.cutoff == -math.inf:
        doc["cutoff"] = None
    return doc


class _Relbel(click.Group):
    """The ``relbel`` group: a library error ends any command with one ``error:`` line,
    and a ``UserWarning`` that the warning filters show prints as one ``warning:`` line."""

    def invoke(self, ctx):
        # saves and restores the warning hooks; the filters themselves stay as they are
        with warnings.catch_warnings():
            shown = warnings.showwarning

            def show(message, category, *args, **kwargs):
                if issubclass(category, UserWarning):
                    click.echo(f"warning: {message}", err=True)
                else:
                    shown(message, category, *args, **kwargs)

            warnings.showwarning = show
            try:
                return super().invoke(ctx)
            except (ValidationError, NumericalGuardError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_GUARD if isinstance(exc, NumericalGuardError) else EXIT_VALIDATION)


# an existing regular file; a missing one or a directory exits 2 through click
_INPUT = click.Path(exists=True, dir_okay=False)


@click.group(cls=_Relbel)
@click.version_option(version=__version__, prog_name="relbel")
def main():
    """Relative belief inference toolkit."""


@main.command("model")
@click.option("--model", "model_path", type=_INPUT, required=True)
@click.option("--x", "x_index", type=int, default=None, help="Outcome index for a posterior report.")
@click.option("--output", "-o", type=click.Path(), default=None)
def model_cmd(model_path, x_index, output):
    """Validate a model file; report predictives and posteriors."""
    from .model import marginalize, model_from_json, posterior, prior_predictive

    model, psi = model_from_json(_read_json(model_path, "model document"))
    doc = {
        "valid": True,
        "renormalized": model.renormalized,
        "prior_predictive": prior_predictive(model),
    }
    if x_index is not None:
        rep = posterior(model, x_index)
        doc["posterior"] = {"masses": rep.posterior, "evidence_norm": rep.evidence_norm}
    if psi is not None:
        pi_psi, cond = marginalize(model, psi)
        # a value without prior mass has no conditional law: its row prints as null
        rows = [row if mass > 0.0 else None for mass, row in zip(pi_psi, cond)]
        doc["marginal"] = {"pi_psi": pi_psi, "conditional_predictive": rows}
    _emit(_json_text(doc), output)


@main.command("evidence")
@click.option("--model", "model_path", type=_INPUT, required=True)
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
    """Evidence table and inferences for one observed outcome, by input index."""
    from . import evidence
    from .model import identity_psi, model_from_json

    model, psi = model_from_json(_read_json(model_path, "model document"))
    psi = psi or identity_psi(model)
    t = evidence.table_from_model(model, x_index, psi)
    est = evidence.rb_estimate(t)
    kept, rb = t.kept_indices, np.full(psi.n_psi, None)
    prior, post = np.zeros(psi.n_psi), np.zeros(psi.n_psi)
    rb[kept], prior[kept], post[kept] = t.rb, t.prior, t.posterior
    doc = {
        "labels": psi.psi_labels,
        "rb": rb,
        "prior": prior,
        "posterior": post,
        "estimate": kept[est.index],
        "tie": est.tie,
        "dropped_zero_prior": t.dropped_zero_prior,
        "plausible": _region_doc(evidence.plausible_region(t), t),
        "credible": {
            "gamma": gamma,
            "convention": convention,
            **_region_doc(evidence.credible_region(t, gamma, convention), t),
        },
    }
    if psi0 is not None:
        row = np.flatnonzero(kept == psi0)
        if not row.size:
            raise IndexOutOfRangeError(f"psi0 index {psi0} names no value with prior mass in [0, {psi.n_psi})")
        rep = evidence.assess_hypothesis(t, int(row[0]))
        doc["strength"] = rep.strength
        doc["hypothesis"] = {"psi0": psi0, **dataclasses.asdict(rep)}
    _emit(_json_text(doc), output)


@main.command("decide")
@click.option("--model", "model_path", type=_INPUT, required=True)
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
    from . import decision
    from .model import identity_psi, model_from_json, psi_marginal

    if eta is not None and loss != "rb-eta":
        raise ValidationError(f"--eta applies only to --loss rb-eta, not --loss {loss}")
    model, psi = model_from_json(_read_json(model_path, "model document"))
    if psi is None:
        psi = identity_psi(model)
    prior = psi_marginal(model.prior, psi)
    loss_spec = decision.make_loss(loss, prior, eta=eta)
    rule, report = decision.bayes_rule(model, psi, loss_spec)
    direct = decision.prior_risk(model, psi, loss_spec, rule)
    doc = {
        "loss": loss,
        "eta": eta,
        "actions": rule.action_per_x,
        "ties": rule.ties,
        **dataclasses.asdict(report),
        "prior_risk_joint": direct,
    }
    _emit(_json_text(doc), output)


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
    from . import classify

    try:
        beta_values = [float(b) for b in betas.split(",") if b.strip()]
    except ValueError as exc:
        raise ValidationError(f"cannot parse --betas {betas!r}: {exc}") from exc
    if not beta_values:
        raise ValidationError("--betas must list at least one value")
    rows = classify.risk_table(alpha, beta_values, mu, n, reps, seed)
    header = [f.name for f in dataclasses.fields(classify.RiskTableRow)]
    _emit(_csv_text(header, map(dataclasses.astuple, rows), precision), output)


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
    from . import classify

    spec = classify.PredictiveSpec(
        alpha=alpha, beta=beta, n=n, c_bar=c_bar, f0_at_x=f0, f1_at_x=f1
    )
    _emit(_json_text(dataclasses.asdict(classify.predictive_classify(spec))), output)


@classify_group.command("known")
@click.option("--psi0", type=float, required=True)
@click.option("--psi1", type=float, required=True)
@click.option("--epsilon", type=float, required=True)
@click.option("--output", "-o", type=click.Path(), default=None)
def classify_known(psi0, psi1, epsilon, output):
    """Threshold labels and exact error sums under a known proportion."""
    from . import classify

    spec = classify.TwoClassSpec(psi0=psi0, psi1=psi1, epsilon=epsilon)
    map_r = classify.map_rule(spec)
    rb_r = classify.rb_rule(spec)
    doc = {
        "map_rule": {"x0": map_r[0], "x1": map_r[1]},
        "rb_rule": {"x0": rb_r[0], "x1": rb_r[1]},
    }
    for name, rule in (("map", map_r), ("rb", rb_r)):
        e0, e1, tot = classify.error_sum(spec, rule)
        doc[f"{name}_errors"] = {"err0": e0, "err1": e1, "sum": tot}
    _emit(_json_text(doc), output)


def _load_csv_matrix(path: str) -> np.ndarray:
    """Plain numeric CSV, row-major, optional single header row, at least one data row."""
    with warnings.catch_warnings():
        # numpy warns on a file without data rows; the error below reports it instead
        warnings.simplefilter("ignore", UserWarning)
        try:
            matrix = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError:
            try:
                matrix = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1)
            except ValueError as exc:
                raise ValidationError(f"cannot parse numeric CSV {path!r}: {exc}") from exc
    if matrix.size == 0:
        raise ValidationError(f"numeric CSV {path!r} has no data rows")
    return matrix


@main.command("regress")
@click.option("--design", type=_INPUT, required=True)
@click.option("--response", type=_INPUT, required=True)
@click.option("--sigma2", type=float, required=True)
@click.option("--tau2", type=float, required=True)
@click.option("--w", "w_path", type=_INPUT, required=True)
@click.option("--grid-check", type=int, default=None, help="Cells for an argmax cross-check.")
@click.option("--output", "-o", type=click.Path(), default=None)
def regress_cmd(design, response, sigma2, tau2, w_path, grid_check, output):
    """Closed-form functional inference for conjugate Gaussian regression."""
    from . import grids, regress

    X = _load_csv_matrix(design)
    y = _load_csv_matrix(response).ravel()
    w = _load_csv_matrix(w_path).ravel()
    spec = regress.RegressionSpec(design=X, response=y, sigma2=sigma2, tau2=tau2)
    rep = regress.functional_inference(spec, w)
    doc = dataclasses.asdict(rep)
    if grid_check is not None:
        sd = math.sqrt(rep.sigma2_psi)
        grid = grids.build_grid(-8.0 * sd, 8.0 * sd, grid_check)
        check = regress.rb_grid_check(spec, w, grid)
        doc["grid_check"] = {**dataclasses.asdict(check), "cell_width": grid.cell_width}
    _emit(_json_text(doc), output)


def _density_from_config(doc):
    from . import grids

    doc = _object(doc, "density config")
    name = _require(doc, "family", "density config")
    params = {k: _number(v, f"density field {k!r}") for k, v in doc.items() if k != "family"}
    return grids.family(name, **params)


def _likelihood_from_config(doc):
    from . import limits

    doc = _object(doc, "likelihood config", ("kind", "x", "sigma2"))
    kind = doc.get("kind", "normal-location")
    x = _number(_require(doc, "x", "likelihood config"), "likelihood config field 'x'")
    sigma2 = _number(doc.get("sigma2", 1.0), "likelihood config field 'sigma2'")
    if kind == "normal-location":
        return limits.gaussian_location_likelihood(x, sigma2)
    if kind == "normal-location-log":
        return limits.gaussian_log_location_likelihood(x, sigma2)
    raise ValidationError(f"unknown likelihood kind {kind!r:.40}")


def _grid_from_config(doc):
    from . import grids

    doc = _object(doc, "grid config", ("lo", "hi", "n_cells"))
    return grids.build_grid(
        _number(_require(doc, "lo", "grid config"), "grid config field 'lo'"),
        _number(_require(doc, "hi", "grid config"), "grid config field 'hi'"),
        _count(_require(doc, "n_cells", "grid config"), "grid config field 'n_cells'"),
    )


def _ladder_from_config(doc: dict):
    """Prior density, likelihood and grid ladder of a gridded experiment."""
    from . import limits

    fam = _density_from_config(_require(doc, "prior", "config"))
    lik = _likelihood_from_config(_require(doc, "likelihood", "config"))
    grids_list = limits.grid_ladder(
        _grid_from_config(_require(doc, "grid", "config")),
        **_counts(doc, steps="steps", factor="factor"),
    )
    return fam.pdf, lik, grids_list


def _counts(doc: dict, **fields: str) -> dict:
    """Integer fields ``doc`` sets, keyed by parameter; unset ones keep the library default."""
    return {p: _count(doc[k], f"config field {k!r}") for p, k in fields.items() if k in doc}


def _table_from_config(doc: dict):
    """The evidence table of a ``table`` block's prior and posterior masses."""
    from . import evidence

    tbl = _object(doc["table"], "table config")
    masses = []
    for key in ("prior", "posterior"):
        values = _require(tbl, key, "table config")
        if not isinstance(values, list):
            raise ValidationError(f"table config field {key!r} must be a list of numbers")
        masses.append([_number(v, f"table config field {key!r} entry") for v in values])
    return evidence.rb_table(*masses)


def _trace_rows(trace) -> tuple[list[str], list[list]]:
    header = ["parameter", "discrepancy", "summary"]
    rows = []
    for p, a, d in zip(trace.parameter_values, trace.actions_or_regions, trace.discrepancies):
        summary = f"{len(a)} cells" if isinstance(a, np.ndarray) else a
        rows.append([p, d, summary])
    return header, rows


@main.command("limits")
@click.argument("experiment", type=click.Choice(["eta", "lambda", "map", "region", "sandwich"]))
@click.option("--config", type=_INPUT, required=True)
@click.option("--precision", type=click.Choice(["default", "full"]), default="default")
@click.option("--output", "-o", type=click.Path(), default=None)
def limits_cmd(experiment, config, precision, output):
    """Run one limit experiment described by a JSON config; emit a CSV trace."""
    from . import evidence, limits
    from .model import model_from_json

    doc = _read_json(config, "limits config")
    if experiment in ("region", "sandwich"):
        gamma = _number(_require(doc, "gamma", f"{experiment} config"), "config field 'gamma'")
    if experiment == "eta":
        if "table" in doc:
            t = _table_from_config(doc)
        else:
            block = _require(doc, "model", "eta config")
            model, psi = model_from_json(_object(block, "eta config field 'model'"))
            x = _count(_require(doc, "x", "eta config"), "eta config field 'x'")
            t = evidence.table_from_model(model, x, psi)
        ladder = limits.default_eta_ladder(t.prior, **_counts(doc, steps="eta_steps"))
        trace = limits.eta_limit(t, eta_ladder=ladder)
        header, rows = _trace_rows(trace)
    elif experiment in ("lambda", "map", "region"):
        pdf, lik, grids_list = _ladder_from_config(doc)
        target = doc.get("target")
        if target is not None:
            target = _number(target, "config field 'target'")
        if experiment == "lambda":
            trace = limits.lambda_limit(pdf, lik, grids_list, target=target)
        elif experiment == "map":
            trace = limits.map_limit_contrast(pdf, lik, grids_list, target=target)
        else:
            trace = limits.region_limit(
                pdf, lik, gamma, grids_list, **_counts(doc, refine_factor="refine_factor")
            )
        header, rows = _trace_rows(trace)
    else:
        header = ["parameter", "eta", "gamma_used", "gamma_next", "lower_holds", "upper_holds"]
        rows = []
        if "table" in doc:
            t = _table_from_config(doc)
            ladder = limits.default_eta_ladder(t.prior, **_counts(doc, steps="eta_steps"))
            reports = [(0.0, limits.lpl_sandwich(t, gamma, ladder))]
        else:
            pdf, lik, grids_list = _ladder_from_config(doc)
            reports = limits.sandwich_double_limit(
                pdf, lik, gamma, grids_list, **_counts(doc, eta_steps="eta_steps")
            )
        for width, rep in reports:
            for eta, lo, up in zip(rep.eta_values, rep.lower_holds, rep.upper_holds):
                rows.append([width, eta, rep.gamma_used, rep.gamma_next, lo, up])
    _emit(_csv_text(header, rows, precision), output)


if __name__ == "__main__":
    main()
