"""Finite Bayesian models: exact posteriors, predictives and marginalization.

Everything here is discrete (counting measure) and exact up to floating
point: a model is a likelihood table ``f(x | theta)`` over finite outcome
and parameter sets plus a prior over ``theta``. A marginal quantity of
interest is described by a surjection from theta-indices to psi-indices.
All values are immutable after validation and safe to share across threads.

A model computes its joint table, the table's exact column totals m(x), and
one posterior table, one (psi, x) joint table and one conditional
predictive table per :class:`PsiMap` once, on first use, and keeps them
read-only, so every decision on the same model and psi map, and every
:func:`posterior`, reads the same arrays. The caches assume the model's
arrays do not change after first use; :func:`validate` makes them
read-only. Two threads that fill a cache at once compute identical arrays,
so sharing a model across threads stays safe.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable
import numpy as np

from ._sums import fsums
from .errors import (
    ImpossibleObservationError,
    IndexOutOfRangeError,
    NegativeMassError,
    NonStochasticRowError,
    PriorNotNormalizedError,
    ValidationError,
    _json_object,
)

# Inputs whose sums deviate from 1 by more than this are rejected; anything
# closer is rescaled to an exact unit sum once, at validation.
NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FiniteModel:
    """Sampling model ``f(x | theta)`` with a proper prior over theta.

    ``likelihood`` has one row per theta value and one column per outcome;
    each row is a probability mass function over outcomes.

    ``joint`` (the table ``prior * likelihood``), ``predictive`` (its exact
    column totals m(x)) and the per-psi tables of :func:`posterior_table`,
    :func:`psi_joint` and :func:`marginalize` are computed on first use and
    kept, read-only; they assume ``likelihood`` and ``prior`` do not change
    after that. A psi map's tables are held weakly, by the map's identity,
    and freed with the map.
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

    # cached_property writes the instance __dict__, which the frozen dataclass leaves open
    @cached_property
    def joint(self) -> np.ndarray:
        joint = self.prior[:, None] * self.likelihood
        joint.setflags(write=False)
        return joint

    @cached_property
    def predictive(self) -> np.ndarray:
        m = fsums(self.joint, axis=0)
        m.setflags(write=False)
        return m

    @cached_property
    def _psi_tables(self) -> weakref.WeakKeyDictionary:
        return weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class PsiMap:
    """Surjection from theta-indices onto a smaller set of psi values.

    ``indices`` is ``assignment`` as a read-only int array, checked and
    converted once, on first use; every push-forward reads it. It assumes
    ``assignment`` does not change after that.
    """

    assignment: tuple
    psi_labels: tuple

    @property
    def n_psi(self) -> int:
        return len(self.psi_labels)

    # cached_property writes the instance __dict__, which the frozen dataclass leaves open
    @cached_property
    def indices(self) -> np.ndarray:
        """The psi index of each theta index.

        Raises:
            ValidationError: an entry is not a Python or numpy integer (a bool is not).
            IndexOutOfRangeError: an entry is not a psi index.
        """
        return _index_array(self.assignment, "psi assignment", self.n_psi)


def _index_array(values, what: str, n: int = int(np.iinfo(np.intp).max)) -> np.ndarray:
    """``values`` as a read-only int array, each entry an integer in [0, n).

    Entries are checked by type, not converted: a bool or a float is
    rejected, not read as 0, 1 or its integer part. The default ``n``, the
    largest intp, is past every array length.

    Raises:
        ValidationError: an entry is not a Python or numpy integer (a bool is not).
        IndexOutOfRangeError: an entry is not in [0, n).
    """
    if not all(issubclass(k, (int, np.integer)) and k is not bool for k in set(map(type, values))):
        raise ValidationError(f"{what} entries must be integers")
    if len(values) and not (min(values) >= 0 and max(values) < n):
        raise IndexOutOfRangeError(f"{what} entry not in [0, {n})")
    out = np.array(values, dtype=np.intp)
    out.setflags(write=False)
    return out


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
    if not np.isfinite(v).all():
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
        row_totals = fsums(lik, axis=1)
        # entries are nonnegative or NaN, so a row with a non-finite entry has a
        # non-finite total: one check of the totals covers every row
        failing = ~np.isfinite(row_totals) | (np.abs(row_totals - 1.0) > NORM_TOL)
        suspects = np.flatnonzero(failing)[:1].tolist()
    except OverflowError:
        # some row sums past the float range; row by row, the first bad row reports
        row_totals, suspects = None, range(model.n_theta)
    for i in suspects:  # the first failing row raises with its own message
        total = None if row_totals is None else float(row_totals[i])
        what = f"likelihood row {i} ({model.theta_labels[i]!r})"
        _unit_total(lik[i], NonStochasticRowError, what, total)
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
    """Posterior over theta given outcome index ``x``: cached joint column over cached m(x)."""
    if not 0 <= x < model.n_x:
        raise IndexOutOfRangeError(f"outcome index {x} not in [0, {model.n_x})")
    m_x = float(model.predictive[x])
    if m_x <= 0.0:
        raise ImpossibleObservationError(
            f"outcome {model.x_labels[x]!r} has zero prior-predictive mass"
        )
    return PosteriorReport(posterior=model.joint[:, x] / m_x, evidence_norm=m_x)


def prior_predictive(model: FiniteModel) -> np.ndarray:
    """Marginal outcome distribution m(x) = sum_theta prior * likelihood.

    Each entry is the exact column total of the joint table
    (:func:`relbel._sums.fsums`, with ``math.fsum``'s bits), so it does not
    depend on the BLAS build, and ``posterior(model, x)`` divides by
    ``m[x]``. Impossible outcomes keep m(x) = 0 here. The array is the
    model's cached, read-only ``predictive``, totalled once per model.
    """
    return model.predictive


def psi_marginal(masses: np.ndarray, psi: PsiMap) -> np.ndarray:
    """Push masses over theta forward through the psi assignment.

    ``masses`` is indexed by theta along its first axis: a vector over
    theta, or a table with one row per theta value. Entry ``j`` (row ``j``)
    of the result accumulates the theta entries (rows) of psi value ``j`` in
    theta order, starting from zero. The assignment is read as the map's
    cached :attr:`PsiMap.indices`, checked on the map's first use only.

    Raises:
        ValidationError: the assignment does not cover the theta axis, or
            an entry is not an integer (a bool is not); the length is
            checked first.
        IndexOutOfRangeError: an assignment entry is not a psi index.
    """
    masses = np.asarray(masses, dtype=float)
    n = len(psi.assignment)
    if (n,) != masses.shape[:1]:
        raise ValidationError(
            f"psi assignment covers {n} theta values, masses have shape {masses.shape}"
        )
    a = psi.indices
    if masses.ndim == 1:
        return np.bincount(a, weights=masses, minlength=psi.n_psi)
    # one row per theta value, in theta order, as bincount adds the 1-D entries
    out = np.zeros((psi.n_psi,) + masses.shape[1:])
    for i, j in enumerate(a.tolist()):
        out[j] += masses[i]
    return out


def _psi_table(model: FiniteModel, psi: PsiMap, key: str, build: Callable):
    """The model's table ``key`` for ``psi``: ``build()``'s array, or tuple of
    arrays, made read-only on first use and kept while ``psi`` lives."""
    tables = model._psi_tables.setdefault(psi, {})
    if key not in tables:
        built = build()
        for a in built if isinstance(built, tuple) else (built,):
            a.setflags(write=False)
        tables[key] = built
    return tables[key]


def posterior_table(model: FiniteModel, psi: PsiMap) -> tuple[np.ndarray, np.ndarray]:
    """Posterior masses over psi for every outcome, and the m(x) they divide by.

    Returns ``(table, m)``: ``table`` has one row per outcome, and row ``x``
    is bitwise equal to ``psi_marginal(posterior(model, x).posterior, psi)``
    (the same products, the same normalizer and the same theta-order
    accumulation); ``m`` is :func:`prior_predictive`, totalled once from
    the same joint table, so callers that weight by m(x) reuse it. Both are
    read-only: m is built once per model, the table once per model and psi map.

    Raises:
        ValidationError: the psi assignment does not fit the model.
        ImpossibleObservationError: some outcome has zero prior-predictive mass.
    """
    m = model.predictive
    impossible = m <= 0.0
    if impossible.any():
        x = int(impossible.argmax())
        raise ImpossibleObservationError(
            f"outcome {model.x_labels[x]!r} has zero prior-predictive mass"
        )
    return _psi_table(model, psi, "posterior", lambda: psi_marginal(model.joint / m, psi).T), m


def psi_joint(model: FiniteModel, psi: PsiMap) -> np.ndarray:
    """The joint table of (psi, x): ``psi_marginal(model.joint, psi)``.

    Row ``j`` accumulates the joint rows of the fibre of psi value ``j`` in
    theta order, so a one-theta fibre's row is bitwise that theta's joint
    row. Read-only and built once per model and psi map.

    Raises:
        ValidationError: the psi assignment does not fit the model.
    """
    return _psi_table(model, psi, "joint", lambda: psi_marginal(model.joint, psi))


def marginalize(model: FiniteModel, psi: PsiMap) -> tuple[np.ndarray, np.ndarray]:
    """Marginal prior over psi and the conditional predictive table.

    Returns ``(pi_psi, cond_pred)`` where ``pi_psi[j]`` is the prior mass of
    psi value j and ``cond_pred[j, x]`` is the predictive probability of
    outcome x after integrating theta over the fiber of j: the
    :func:`psi_joint` row of j divided by ``pi_psi[j]``. A value without
    prior mass has no conditional law, and its row is NaN. Both are
    read-only and built once per model and psi map.

    Raises:
        ValidationError: the psi assignment does not fit the model.
    """

    def build():
        pi_psi = psi_marginal(model.prior, psi)
        # a value without prior mass has a zero joint row: 0 / 0
        with np.errstate(invalid="ignore"):
            return pi_psi, psi_joint(model, psi) / pi_psi[:, None]

    return _psi_table(model, psi, "conditional", build)


# --- JSON ingestion ----------------------------------------------------------

def _label_list(value, what: str) -> tuple:
    # a string would otherwise split into one label per character
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what} must be a list of labels, got {type(value).__name__}")
    return tuple(value)


_MODEL_FIELDS = ("theta", "x", "likelihood", "prior", "psi")


def model_from_json(doc: dict) -> tuple[FiniteModel, PsiMap | None]:
    """Build a validated model (and optional PsiMap) from a parsed JSON document.

    The document is an object with keys ``theta``, ``x``, ``likelihood``,
    ``prior`` and optionally ``psi: {labels, assignment}``, and no other
    key. Each likelihood and prior entry is a JSON number: a bool or a
    string is rejected, not read as 0, 1 or its numeric value.
    """
    _json_object(doc, "model document", _MODEL_FIELDS)
    for key in ("theta", "x", "likelihood", "prior"):
        if key not in doc:
            raise ValidationError(f"model document is missing {key!r}")
    masses = []
    for key in ("likelihood", "prior"):
        try:
            # the rows of a ragged list come out as entries of type list, and fail here too
            entries = np.asarray(doc[key], dtype=object)
            odd = set(map(type, entries.flat)) - {int, float}
            if odd:
                raise TypeError(f"{key!r} has an entry of type {min(t.__name__ for t in odd)}")
            masses.append(entries.astype(float))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"likelihood and prior must be numeric arrays: {exc}") from exc
    model = validate(
        FiniteModel(
            theta_labels=_label_list(doc["theta"], "model field 'theta'"),
            x_labels=_label_list(doc["x"], "model field 'x'"),
            likelihood=masses[0],
            prior=masses[1],
        )
    )
    psi = None
    if doc.get("psi") is not None:
        spec = doc["psi"]
        if not isinstance(spec, dict) or not {"labels", "assignment"} <= spec.keys():
            raise ValidationError("psi block needs both 'labels' and 'assignment'")
        _json_object(spec, "psi block", ("labels", "assignment"))
        assignment = spec["assignment"]
        if not isinstance(assignment, (list, tuple)):
            raise ValidationError(f"psi assignment must be a list, got {type(assignment).__name__}")
        if len(assignment) != model.n_theta:
            raise ValidationError(
                f"psi assignment has {len(assignment)} entries, "
                f"model has {model.n_theta} theta values"
            )
        psi = PsiMap(tuple(assignment), _label_list(spec["labels"], "psi labels"))
        # checks each entry for an integer psi index, once for every later use of the map
        if set(psi.indices.tolist()) != set(range(psi.n_psi)):
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
