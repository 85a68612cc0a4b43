"""Prior-based loss functions, exact Bayes rules, and risk accounting.

All losses here are two-valued: zero on a correct decision, and on an
error a weight that depends only on the true value. The weight is constant
(``map``), the reciprocal of the true value's prior mass (``rb``), or that
reciprocal capped at ``1/eta`` (``rb-eta``), which applies unchanged to
the cell masses of a discretized problem. A loss is stored as its vector
of error weights.

The posterior risk of action ``a`` is the total of posterior times weight
minus that product at ``a``, so the Bayes rule at each outcome is the
argmax of posterior times weight; under the ``rb`` loss that product is the
relative belief ratio. :func:`brute_force_bayes` independently scores every
deterministic rule from the joint distribution and a dense loss matrix,
and serves as an oracle for that shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from ._sums import fsums
from .errors import (
    BadEtaError,
    BadGammaError,
    RiskCrossCheckError,
    RuleSpaceTooLargeError,
    ValidationError,
    ZeroPriorMassError,
)
from .evidence import RegionReport, _descending_levels
from .model import (
    FiniteModel,
    PsiMap,
    marginalize,
    posterior_table,
    prior_predictive,
    psi_marginal,
)

LOSS_KINDS = ("map", "rb", "rb-eta")
RULE_CAP = 10**6


@dataclass(frozen=True, eq=False)
class Loss:
    """Two-valued loss: 0 on a correct action, ``values[true]`` on an error."""

    kind: str
    values: np.ndarray
    eta: float | None = None

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class DecisionRule:
    """One action index per outcome index, with tie flags."""

    action_per_x: tuple
    ties: tuple


@dataclass(frozen=True, eq=False)
class RiskReport:
    prior_risk: float
    posterior_risk_per_x: np.ndarray
    # per-outcome (sum of rb, rb at the action) for reciprocal-prior losses
    decomposition: tuple | None = None


def make_loss(kind: str, prior, eta: float | None = None) -> Loss:
    """Build a loss's error weights from the prior masses over the quantity of interest."""
    if kind not in LOSS_KINDS:
        raise ValidationError(f"loss kind must be one of {LOSS_KINDS}, got {kind!r}")
    prior = np.asarray(prior, dtype=float)
    if prior.ndim != 1 or len(prior) == 0:
        raise ValidationError("prior must be a nonempty 1-D array")
    if kind == "map":
        weights = np.ones(len(prior))
    elif kind == "rb":
        if np.any(prior <= 0.0):
            raise ZeroPriorMassError("reciprocal-prior loss needs all prior masses > 0")
        weights = 1.0 / prior
    else:
        if eta is None or not eta > 0.0:
            raise BadEtaError(f"eta must be > 0, got {eta}")
        weights = 1.0 / np.maximum(eta, prior)
    weights.setflags(write=False)
    return Loss(kind=kind, values=weights, eta=eta)


def _weighted(loss: Loss, posterior_masses) -> np.ndarray:
    """Posterior times error weight per value: the action-dependent risk term."""
    post = np.asarray(posterior_masses, dtype=float)
    if post.shape != (loss.n,):
        raise ValidationError(f"posterior length {post.shape} != loss size {loss.n}")
    return post * loss.values


def posterior_risk(loss: Loss, posterior_masses, action: int) -> float:
    """Expected loss of ``action`` under the posterior over true values."""
    r = _weighted(loss, posterior_masses)
    if not 0 <= action < loss.n:
        raise ValidationError(f"action index {action} not in [0, {loss.n})")
    return math.fsum(np.delete(r, action).tolist())


def rb_decomposition(loss: Loss, posterior_masses, action: int) -> tuple[float, float]:
    """(sum of capped rb over values, capped rb at the action).

    The posterior risk of a reciprocal-prior loss equals the difference of
    these two terms; only the second depends on the action.
    """
    if loss.kind == "map":
        raise ValidationError("decomposition applies to reciprocal-prior losses only")
    ratios = _weighted(loss, posterior_masses)
    return float(math.fsum(ratios.tolist())), float(ratios[action])


def bayes_rule(model: FiniteModel, psi: PsiMap, loss: Loss) -> tuple[DecisionRule, RiskReport]:
    """Per-outcome posterior-risk minimizer and its risk accounting.

    The action at each outcome is the first argmax of posterior times error
    weight, flagged as a tie when another value attains the same product.
    The posterior risk per outcome is the exact total of those products
    without the action's, the decomposition pairs their exact total with
    the action's product, and the prior risk is the exact total of
    ``m(x)`` times posterior risk; all are summed by
    :func:`relbel._sums.fsums`, with ``math.fsum``'s bits.
    """
    if loss.n != psi.n_psi:
        raise ValidationError(f"loss size {loss.n} != {psi.n_psi} psi values")
    ratios = posterior_table(model, psi) * loss.values
    rows = np.arange(model.n_x)
    actions = np.argmax(ratios, axis=1)
    at_action = ratios[rows, actions]
    ties = np.count_nonzero(ratios == at_action[:, None], axis=1) > 1
    off_action = ratios.copy()
    off_action[rows, actions] = 0.0
    risks = fsums(off_action, axis=1)
    decomp = None
    if loss.kind != "map":
        decomp = tuple(zip(fsums(ratios, axis=1).tolist(), at_action.tolist()))
    m = prior_predictive(model)
    return (
        DecisionRule(
            action_per_x=tuple(int(a) for a in actions), ties=tuple(bool(t) for t in ties)
        ),
        RiskReport(
            prior_risk=float(fsums(m * risks)),
            posterior_risk_per_x=risks,
            decomposition=decomp,
        ),
    )


def conditional_error_probs(model: FiniteModel, psi: PsiMap, rule: DecisionRule) -> np.ndarray:
    """Per-value error probabilities ``M(rule != psi | psi)``."""
    _, cond = marginalize(model, psi)
    acts = np.asarray(rule.action_per_x)
    # zeros at the correct actions leave each exact row total unchanged
    wrong = acts[None, :] != np.arange(psi.n_psi)[:, None]
    return fsums(np.where(wrong, cond, 0.0), axis=1)


def prior_risk(model: FiniteModel, psi: PsiMap, loss: Loss, rule: DecisionRule) -> float:
    """Expected loss of the rule under the joint distribution.

    Computed directly in theta-space as the exact total of joint mass
    times loss over the theta x outcome table (:func:`relbel._sums.fsums`,
    with ``math.fsum``'s bits and no Python list); for the uncapped
    reciprocal-prior and constant losses the closed forms (sum of
    conditional error probabilities, plain or prior-weighted) are
    cross-checked to 1e-9, and a disagreement raises
    :class:`RiskCrossCheckError`.
    """
    acts = np.asarray(rule.action_per_x)
    if acts.shape != (model.n_x,):
        raise ValidationError(f"rule covers {acts.shape} outcomes, model has {model.n_x}")
    psi_of_theta = np.asarray(psi.assignment)
    joint = model.prior[:, None] * model.likelihood
    correct = psi_of_theta[:, None] == acts[None, :]
    losses = np.where(correct, 0.0, loss.values[psi_of_theta][:, None])
    direct = float(fsums((joint * losses).ravel()))
    if loss.kind in ("rb", "map"):
        errs = conditional_error_probs(model, psi, rule)
        if loss.kind == "rb":
            closed = float(math.fsum(errs.tolist()))
        else:
            pi_psi = psi_marginal(model.prior, psi)
            closed = float(math.fsum((errs * pi_psi).tolist()))
        if abs(direct - closed) > 1e-9:
            raise RiskCrossCheckError(
                f"risk cross-check failed: direct {direct!r} vs closed form {closed!r}"
            )
    return direct


def lpl_region(loss: Loss, posterior_masses, gamma: float, prior=None) -> RegionReport:
    """Lowest-posterior-loss region with posterior content at least gamma.

    The posterior risk of a value falls as its posterior times error weight
    rises, so the region is a superlevel set of that product: the cutoff is
    the largest product level whose superlevel set reaches content gamma,
    and members satisfy ``ratio >= cutoff``. Under the ``rb`` loss the
    product is the relative belief ratio, and the region is the credible
    region of the same content.
    """
    if not 0.0 <= gamma <= 1.0:
        raise BadGammaError(f"gamma must be in [0, 1], got {gamma}")
    post = np.asarray(posterior_masses, dtype=float)
    ratios = _weighted(loss, post)
    levels, content = _descending_levels(ratios, post)
    hit = np.flatnonzero(content >= gamma)
    # float shortfall at gamma=1 falls back to full support
    cutoff = float(levels[hit[0]] if len(hit) else levels[-1])
    members = np.flatnonzero(ratios >= cutoff)
    prior_content = None
    if prior is not None:
        prior = np.asarray(prior, dtype=float)
        prior_content = float(math.fsum(prior[members].tolist()))
    return RegionReport(
        member_indices=frozenset(int(i) for i in members),
        cutoff=cutoff,
        posterior_content=float(math.fsum(post[members].tolist())),
        prior_content=prior_content,
    )


def unbiasedness_gap(model: FiniteModel, psi: PsiMap, h, rule: DecisionRule) -> float:
    """Average excess posterior-over-prior mass at the rule's actions.

    ``sum_x m(x) h(a_x) [pi_psi(a_x | x) - pi_psi(a_x)]``; the rule is
    Bayesian unbiased under the h-weighted two-valued loss iff this is >= 0.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (psi.n_psi,):
        raise ValidationError(f"h length {h.shape} != {psi.n_psi} psi values")
    if np.any(h < 0):
        raise ValidationError("h weights must be nonnegative")
    acts = np.asarray(rule.action_per_x)
    if acts.shape != (model.n_x,):
        raise ValidationError(f"rule covers {acts.shape} outcomes, model has {model.n_x}")
    pi_psi = psi_marginal(model.prior, psi)
    m = prior_predictive(model)
    post_at_action = posterior_table(model, psi)[np.arange(model.n_x), acts]
    terms = m * h[acts] * (post_at_action - pi_psi[acts])
    return float(fsums(terms))


def brute_force_bayes(
    model: FiniteModel, psi: PsiMap, loss: Loss, cap: int = RULE_CAP
) -> tuple[tuple, float]:
    """Exhaustively score every deterministic rule; return the best.

    Scores come from the joint theta-space expectation of a dense
    ``[true, action]`` loss matrix, independent of the per-outcome
    maximization in :func:`bayes_rule`. Guarded by ``cap`` on the number
    of rules, which also keeps the matrix tiny.
    """
    rules = all_rules(psi.n_psi, model.n_x, cap)
    n = loss.n
    dense = np.where(np.eye(n, dtype=bool), 0.0, loss.values[:, None] * np.ones((1, n)))
    psi_of_theta = np.asarray(psi.assignment)
    joint = model.prior[:, None] * model.likelihood
    # W[x, a] = joint expectation of the loss when outcome x gets action a
    W = joint.T @ dense[psi_of_theta]
    risks = W[np.arange(model.n_x)[:, None], rules.T].sum(axis=0)
    best = int(np.argmin(risks))
    return tuple(int(a) for a in rules[best]), float(risks[best])


def all_rules(n_psi: int, n_x: int, cap: int = RULE_CAP) -> np.ndarray:
    """Every deterministic rule as an ``(n_rules, n_x)`` action array."""
    n_rules = n_psi**n_x
    if n_rules > cap:
        raise RuleSpaceTooLargeError(f"{n_psi}^{n_x} = {n_rules} rules exceeds the cap {cap}")
    return np.indices((n_psi,) * n_x).reshape(n_x, -1).T
