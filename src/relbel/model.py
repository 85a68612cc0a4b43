"""Finite Bayesian models: exact posteriors, predictives and marginalization.

Everything here is discrete (counting measure) and exact up to floating
point: a model is a likelihood table ``f(x | theta)`` over finite outcome
and parameter sets plus a prior over ``theta``. A marginal quantity of
interest is described by a surjection from theta-indices to psi-indices.
All values are immutable after validation and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
import numpy as np

from ._sums import fsums
from .errors import (
    EmptyFiberError,
    ImpossibleObservationError,
    IndexOutOfRangeError,
    NegativeMassError,
    NonStochasticRowError,
    PriorNotNormalizedError,
    ValidationError,
)

# Inputs whose sums deviate from 1 by more than this are rejected; anything
# closer is rescaled to an exact unit sum once, at validation.
NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FiniteModel:
    """Sampling model ``f(x | theta)`` with a proper prior over theta.

    ``likelihood`` has one row per theta value and one column per outcome;
    each row is a probability mass function over outcomes.
    """

    theta_labels: tuple
    x_labels: tuple
    likelihood: np.ndarray
    prior: np.ndarray
    renormalized: bool = False

    @property
    def n_theta(self) -> int:
        return len(self.theta_labels)

    @property
    def n_x(self) -> int:
        return len(self.x_labels)


@dataclass(frozen=True, eq=False)
class PsiMap:
    """Surjection from theta-indices onto a smaller set of psi values."""

    assignment: tuple
    psi_labels: tuple

    @property
    def n_psi(self) -> int:
        return len(self.psi_labels)

    def fibers(self) -> list[np.ndarray]:
        """Theta-index arrays, one per psi value, in psi order."""
        a = np.asarray(self.assignment)
        return [np.flatnonzero(a == j) for j in range(self.n_psi)]


def identity_psi(model: FiniteModel) -> PsiMap:
    """The trivial marginalization (psi = theta)."""
    return PsiMap(tuple(range(model.n_theta)), tuple(model.theta_labels))


@dataclass(frozen=True, eq=False)
class PosteriorReport:
    """Posterior masses over theta plus the prior-predictive value m(x)."""

    posterior: np.ndarray
    evidence_norm: float


def _unit_total(v: np.ndarray, err: type[ValidationError], what: str, total=None) -> float:
    """The exact sum of ``v`` (``total`` when already known), checked to be 1 within NORM_TOL."""
    # NaN fails neither the sign check nor the sum check, so test it here
    if not np.all(np.isfinite(v)):
        raise err(f"{what} has a non-finite entry")
    if total is None:
        try:
            total = float(fsums(v))
        except OverflowError:
            raise err(f"{what} sums past the float range, not 1 within {NORM_TOL}") from None
    if abs(total - 1.0) > NORM_TOL:
        raise err(f"{what} sums to {total!r}, not 1 within {NORM_TOL}")
    return total


def validate(model: FiniteModel) -> FiniteModel:
    """Check model invariants; return the model with exact unit sums.

    Each likelihood row and the prior is divided by its exact (``fsum``)
    total, unless that total is exactly 1.

    Raises:
        NegativeMassError: any likelihood or prior entry is negative.
        NonStochasticRowError: a likelihood row has a non-finite entry or
            its sum is off by more than 1e-9.
        PriorNotNormalizedError: the prior has a non-finite entry or its
            sum is off by more than 1e-9.
    """
    lik = np.asarray(model.likelihood, dtype=float)
    prior = np.asarray(model.prior, dtype=float)
    if lik.ndim != 2 or lik.shape != (model.n_theta, model.n_x):
        raise ValidationError(
            f"likelihood shape {lik.shape} does not match "
            f"{model.n_theta} theta values x {model.n_x} outcomes"
        )
    if prior.shape != (model.n_theta,):
        raise ValidationError(f"prior length {prior.shape} != {model.n_theta}")
    if np.any(lik < 0):
        raise NegativeMassError("likelihood entries must be nonnegative")
    if np.any(prior < 0):
        raise NegativeMassError("prior masses must be nonnegative")

    try:
        row_totals = fsums(lik, axis=1).tolist()
    except OverflowError:
        # some row sums past the float range; row by row, the first bad row reports
        row_totals = [None] * model.n_theta
    row_totals = np.array([
        _unit_total(lik[i], NonStochasticRowError, f"likelihood row {i} ({label!r})", total)
        for i, (label, total) in enumerate(zip(model.theta_labels, row_totals))
    ])
    prior_total = _unit_total(prior, PriorNotNormalizedError, "prior")

    # dividing by an exact 1.0 leaves a row bitwise unchanged
    out = lik / row_totals[:, None]
    out.setflags(write=False)
    prior = prior / prior_total
    prior.setflags(write=False)
    return FiniteModel(
        theta_labels=tuple(model.theta_labels),
        x_labels=tuple(model.x_labels),
        likelihood=out,
        prior=prior,
        renormalized=bool(np.any(row_totals != 1.0)) or prior_total != 1.0,
    )


def posterior(model: FiniteModel, x: int) -> PosteriorReport:
    """Posterior over theta given outcome index ``x``, by Bayes' formula."""
    if not 0 <= x < model.n_x:
        raise IndexOutOfRangeError(f"outcome index {x} not in [0, {model.n_x})")
    joint = model.prior * model.likelihood[:, x]
    m_x = math.fsum(joint.tolist())
    if m_x <= 0.0:
        raise ImpossibleObservationError(
            f"outcome {model.x_labels[x]!r} has zero prior-predictive mass"
        )
    return PosteriorReport(posterior=joint / m_x, evidence_norm=m_x)


def prior_predictive(model: FiniteModel) -> np.ndarray:
    """Marginal outcome distribution m(x) = sum_theta prior * likelihood."""
    return model.prior @ model.likelihood


def psi_marginal(masses: np.ndarray, psi: PsiMap) -> np.ndarray:
    """Push masses over theta forward through the psi assignment."""
    return np.bincount(np.asarray(psi.assignment), weights=masses, minlength=psi.n_psi)


def _checked_assignment(model: FiniteModel, psi: PsiMap) -> np.ndarray:
    a = np.asarray(psi.assignment)
    if a.shape != (model.n_theta,):
        raise ValidationError(
            f"assignment length {a.shape} != {model.n_theta} theta values"
        )
    if np.any(a < 0) or np.any(a >= psi.n_psi):
        raise IndexOutOfRangeError("psi assignment index out of range")
    return a


def posterior_table(model: FiniteModel, psi: PsiMap) -> np.ndarray:
    """Posterior masses over psi for every outcome, one row per outcome.

    Row ``x`` is bitwise equal to
    ``psi_marginal(posterior(model, x).posterior, psi)``: the same products,
    the same normalizer and the same theta-order accumulation. The
    normalizers of all outcomes come from one exact column sum
    (:func:`relbel._sums.fsums`), which gives the bits ``math.fsum`` gives.

    Raises:
        ValidationError: the psi assignment does not fit the model.
        ImpossibleObservationError: some outcome has zero prior-predictive mass.
    """
    a = _checked_assignment(model, psi)
    joint = model.prior[:, None] * model.likelihood
    m = fsums(joint, axis=0)
    if np.any(m <= 0.0):
        x = int(np.argmax(m <= 0.0))
        raise ImpossibleObservationError(
            f"outcome {model.x_labels[x]!r} has zero prior-predictive mass"
        )
    post = joint / m
    # theta-order accumulation per psi value, as psi_marginal's bincount does
    table = np.zeros((psi.n_psi, model.n_x))
    for i, j in enumerate(a.tolist()):
        table[j] += post[i]
    return table.T


def marginalize(model: FiniteModel, psi: PsiMap) -> tuple[np.ndarray, np.ndarray]:
    """Marginal prior over psi and the conditional predictive table.

    Returns ``(pi_psi, cond_pred)`` where ``pi_psi[j]`` is the prior mass of
    psi value j and ``cond_pred[j, x]`` is the predictive probability of
    outcome x after integrating theta over the fiber of j.

    Raises:
        EmptyFiberError: some psi value has zero prior mass.
    """
    a = _checked_assignment(model, psi)
    pi_psi = psi_marginal(model.prior, psi)
    if np.any(pi_psi <= 0.0):
        j = int(np.argmin(pi_psi))
        raise EmptyFiberError(
            f"psi value {psi.psi_labels[j]!r} has zero prior mass"
        )
    joint = model.prior[:, None] * model.likelihood
    cond = np.zeros((psi.n_psi, model.n_x))
    np.add.at(cond, a, joint)
    cond /= pi_psi[:, None]
    return pi_psi, cond


# --- JSON ingestion ----------------------------------------------------------

def _label_list(value, what: str) -> tuple:
    # a string would otherwise split into one label per character
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what} must be a list of labels, got {type(value).__name__}")
    return tuple(value)


def model_from_json(doc: dict | str | Path) -> tuple[FiniteModel, PsiMap | None]:
    """Build a validated model (and optional PsiMap) from a JSON document.

    Accepts a parsed dict, a JSON string, or a path to a JSON file with
    keys ``theta``, ``x``, ``likelihood``, ``prior`` and optionally
    ``psi: {labels, assignment}``.
    """
    if isinstance(doc, Path):
        doc = json.loads(doc.read_text())
    elif isinstance(doc, str):
        p = Path(doc)
        doc = json.loads(p.read_text()) if p.exists() else json.loads(doc)
    if not isinstance(doc, dict):
        raise ValidationError(f"model document must be a JSON object, got {type(doc).__name__}")
    for key in ("theta", "x", "likelihood", "prior"):
        if key not in doc:
            raise ValidationError(f"model document is missing {key!r}")
    try:
        likelihood = np.asarray(doc["likelihood"], dtype=float)
        prior = np.asarray(doc["prior"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"likelihood and prior must be numeric arrays: {exc}") from exc
    model = validate(
        FiniteModel(
            theta_labels=_label_list(doc["theta"], "model field 'theta'"),
            x_labels=_label_list(doc["x"], "model field 'x'"),
            likelihood=likelihood,
            prior=prior,
        )
    )
    psi = None
    if "psi" in doc and doc["psi"] is not None:
        spec = doc["psi"]
        if not isinstance(spec, dict) or not {"labels", "assignment"} <= spec.keys():
            raise ValidationError("psi block needs both 'labels' and 'assignment'")
        assignment = spec["assignment"]
        if not isinstance(assignment, (list, tuple)) or not all(
            isinstance(i, numbers.Integral) and not isinstance(i, bool) for i in assignment
        ):
            raise ValidationError("psi assignment must list integer indices")
        psi = PsiMap(tuple(int(i) for i in assignment), _label_list(spec["labels"], "psi labels"))
        if len(psi.assignment) != model.n_theta:
            raise ValidationError(
                f"psi assignment has {len(psi.assignment)} entries, "
                f"model has {model.n_theta} theta values"
            )
        seen = set(psi.assignment)
        if seen != set(range(psi.n_psi)):
            raise ValidationError("psi assignment is not surjective onto its labels")
    return model, psi


def model_to_json(model: FiniteModel, psi: PsiMap | None = None) -> dict:
    doc = {
        "theta": list(model.theta_labels),
        "x": list(model.x_labels),
        "likelihood": model.likelihood.tolist(),
        "prior": model.prior.tolist(),
    }
    if psi is not None:
        doc["psi"] = {"labels": list(psi.psi_labels), "assignment": list(psi.assignment)}
    return doc
