"""Prior-based loss functions, exact Bayes rules, and risk accounting.

All losses here are two-valued: zero on a correct decision, and on an
error one over a denominator that depends only on the true value: 1
(``map``), its prior mass (``rb``), or that mass capped below at ``eta``
(``rb-eta``), which applies unchanged to the cell masses of a discretized
problem. A loss is stored as its vector of denominators.

The posterior risk of action ``a`` is the total of posterior over
denominator minus that ratio at ``a``, so the Bayes rule at each outcome
is the argmax of the ratio: under the ``rb`` loss, bitwise the relative
belief ratio, as :mod:`relbel.evidence`'s one helper divides both.
Lowest-posterior-loss regions are superlevel sets of that ratio, built by
the helper that builds ``sup-geq`` credible regions.
A loss sees theta only through psi, so :func:`prior_risk` totals the
rule's expected loss over the joint table of (psi, x), not of (theta, x).
:func:`brute_force_bayes` independently scores every deterministic rule
from the joint distribution and a dense loss matrix, and serves as an
oracle for that shortcut, its weights divided by the same helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
import numpy as np

from ._sums import fsums
from .errors import (
    BadEtaError,
    IndexOutOfRangeError,
    RiskCrossCheckError,
    RuleSpaceTooLargeError,
    ValidationError,
    ZeroPriorMassError,
)
from .evidence import RegionReport, _check_gamma, _descending_levels, _ratios, _superlevel_region
from .model import (
    FiniteModel,
    PsiMap,
    _index_array,
    marginalize,
    posterior_table,
    psi_joint,
    psi_marginal,
)

LOSS_KINDS = ("map", "rb", "rb-eta")
RULE_CAP = 10**6
_COUNT_BITS = 128  # the longest rule count an error message prints: 39 digits


@dataclass(frozen=True, eq=False)
class Loss:
    """Two-valued loss: 0 on a correct action, ``1 / values[true]`` on an error.

    ``values`` holds the denominators, read-only: ones (``map``), the prior
    masses (``rb``) or ``max(eta, prior)`` (``rb-eta``).
    """

    kind: str
    values: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class DecisionRule:
    """One action index per outcome index, with tie flags.

    ``actions`` is ``action_per_x`` as a read-only int array, checked and
    converted once, on first use; every risk of the rule reads it. It
    assumes ``action_per_x`` does not change after that.
    """

    action_per_x: tuple
    ties: tuple

    # cached_property writes the instance __dict__, which the frozen dataclass leaves open
    @cached_property
    def actions(self) -> np.ndarray:
        """The action index of each outcome; each risk checks it against its psi values.

        Raises:
            ValidationError: an entry is not a Python or numpy integer (a bool is not).
            IndexOutOfRangeError: an entry is negative.
        """
        return _index_array(self.action_per_x, "rule action")


@dataclass(frozen=True, eq=False)
class RiskReport:
    """A Bayes rule's prior risk and its per-outcome accounting.

    ``posterior_risk_per_x`` holds one risk per outcome. ``decomposition``,
    for the ``rb`` and ``rb-eta`` losses and ``None`` under ``map``, is a
    read-only ``(n_x, 2)`` array: row x holds the exact total of the ratios
    at outcome x and the ratio at its action, whose difference is the
    posterior risk.
    """

    prior_risk: float
    posterior_risk_per_x: np.ndarray
    decomposition: np.ndarray | None = None


def make_loss(kind: str, prior, eta: float | None = None) -> Loss:
    """Build a loss's denominators from the prior masses over the quantity of interest."""
    if kind not in LOSS_KINDS:
        raise ValidationError(f"loss kind must be one of {LOSS_KINDS}, got {kind!r}")
    # a copy: the caller's array stays writable
    prior = np.array(prior, dtype=float)
    if prior.ndim != 1 or len(prior) == 0:
        raise ValidationError("prior must be a nonempty 1-D array")
    if not np.all(np.isfinite(prior)):
        raise ValidationError("prior masses must be finite")
    if kind == "map":
        denom = np.ones(len(prior))
    elif kind == "rb":
        if np.any(prior <= 0.0):
            raise ZeroPriorMassError("reciprocal-prior loss needs all prior masses > 0")
        denom = prior
    else:
        if eta is None or not (math.isfinite(eta) and eta > 0.0):
            raise BadEtaError(f"eta must be finite and > 0, got {eta}")
        denom = np.maximum(eta, prior)
    denom.setflags(write=False)
    return Loss(kind=kind, values=denom)


def bayes_rule(model: FiniteModel, psi: PsiMap, loss: Loss) -> tuple[DecisionRule, RiskReport]:
    """Per-outcome posterior-risk minimizer and its risk accounting.

    The action at each outcome is the first argmax of posterior over the
    loss's denominators, flagged as a tie when another value attains the
    same ratio. The posterior risk per outcome is the exact total of those
    ratios without the action's, row x of the decomposition array holds
    their exact total and the action's ratio, and the prior risk is the
    exact total of ``m(x)`` times posterior risk; all are summed by
    :func:`relbel._sums.fsums`, with ``math.fsum``'s bits.
    """
    if loss.n != psi.n_psi:
        raise ValidationError(f"loss size {loss.n} != {psi.n_psi} psi values")
    table, m = posterior_table(model, psi)
    ratios = _ratios(table, loss.values)
    rows = np.arange(model.n_x)
    actions = np.argmax(ratios, axis=1)
    at_action = ratios[rows, actions]
    ties = np.count_nonzero(ratios == at_action[:, None], axis=1) > 1
    off_action = ratios.copy(order="K")  # the layout of ratios: a psi column is contiguous
    off_action[rows, actions] = 0.0
    risks = fsums(off_action, axis=1)
    decomp = None
    if loss.kind != "map":
        decomp = np.column_stack((fsums(ratios, axis=1), at_action))
        decomp.setflags(write=False)
    rule = DecisionRule(action_per_x=tuple(actions.tolist()), ties=tuple(ties.tolist()))
    actions.setflags(write=False)
    vars(rule)["actions"] = actions  # the rule's cached array: argmax indices need no check
    return (
        rule,
        RiskReport(
            prior_risk=float(fsums(m * risks)),
            posterior_risk_per_x=risks,
            decomposition=decomp,
        ),
    )


def _rule_actions(model: FiniteModel, psi: PsiMap, rule: DecisionRule) -> np.ndarray:
    """The rule's cached action array, checked to cover every outcome with a psi index."""
    n = len(rule.action_per_x)
    if n != model.n_x:
        raise ValidationError(f"rule covers {n} outcomes, model has {model.n_x}")
    acts = rule.actions
    if (acts >= psi.n_psi).any():
        raise IndexOutOfRangeError(f"rule action not in [0, {psi.n_psi})")
    return acts


def conditional_error_probs(model: FiniteModel, psi: PsiMap, rule: DecisionRule) -> np.ndarray:
    """Per-value error probabilities ``M(rule != psi | psi)``.

    A value without prior mass has no conditional law, and its entry is NaN.
    """
    acts = _rule_actions(model, psi, rule)
    _, cond = marginalize(model, psi)
    # zeros at the correct actions leave each exact row total unchanged; a NaN row stays NaN
    wrong = acts[None, :] != np.arange(psi.n_psi)[:, None]
    return fsums(cond * wrong, axis=1)


def prior_risk(model: FiniteModel, psi: PsiMap, loss: Loss, rule: DecisionRule) -> float:
    """Expected loss of the rule under the joint distribution of (psi, x).

    The loss depends on theta only through psi, so the risk is computed
    directly as the exact total of joint mass over denominator over the psi x
    outcome table of :func:`relbel.model.psi_joint` (:func:`relbel._sums.fsums`,
    with ``math.fsum``'s bits and no Python list). Under the identity map
    that is bitwise the total over the theta x outcome table; a fibre of
    several theta values enters with its pushed-forward joint mass. For the
    uncapped reciprocal-prior and constant losses the closed forms (sum of
    conditional error probabilities, plain or prior-weighted) are
    cross-checked to 1e-9, and a disagreement raises
    :class:`RiskCrossCheckError`.
    """
    if loss.n != psi.n_psi:
        raise ValidationError(f"loss size {loss.n} != {psi.n_psi} psi values")
    acts = _rule_actions(model, psi, rule)
    # joint mass over the denominator of the true value, zero where the action is correct
    products = _ratios(psi_joint(model, psi), loss.values[:, None])
    products[acts, np.arange(model.n_x)] = 0.0
    direct = float(fsums(products.ravel()))
    if loss.kind in ("rb", "map"):
        # conditional error probabilities, summed plain (rb) or prior-weighted (map) over
        # the values with prior mass: under map an empty fibre weighs 0 on both sides
        terms = conditional_error_probs(model, psi, rule)
        if loss.kind == "map":
            terms *= psi_marginal(model.prior, psi)
        closed = float(fsums(terms[~np.isnan(terms)]))
        if abs(direct - closed) > 1e-9:
            raise RiskCrossCheckError(
                f"risk cross-check failed: direct {direct!r} vs closed form {closed!r}"
            )
    return direct


def lpl_region(loss: Loss, posterior_masses, gamma: float, prior=None) -> RegionReport:
    """Lowest-posterior-loss region with posterior content at least gamma.

    The posterior risk of a value falls as its posterior over its
    denominator rises, so the region is a superlevel set of that ratio: the
    cutoff is the largest ratio level whose superlevel set holds exact
    content at least gamma, and members satisfy ``ratio >= cutoff``. Under
    the ``rb`` loss the ratio is the relative belief ratio, and the region
    is the ``sup-geq`` credible region of the same gamma by construction:
    one helper builds both, with one domain for gamma.
    """
    post = np.asarray(posterior_masses, dtype=float)
    if post.shape != (loss.n,):
        raise ValidationError(f"posterior length {post.shape} != loss size {loss.n}")
    if not np.all(np.isfinite(post)):
        raise ValidationError("posterior masses must be finite")
    # the level search's error bound holds for nonnegative terms only
    if np.any(post < 0):
        raise ValidationError("posterior masses must be nonnegative")
    _check_gamma(gamma, post)
    ratios = _ratios(post, loss.values)
    return _superlevel_region(ratios, _descending_levels(ratios, post), post, gamma, prior=prior)


def unbiasedness_gap(model: FiniteModel, psi: PsiMap, h, rule: DecisionRule) -> float:
    """Average excess posterior-over-prior mass at the rule's actions.

    ``sum_x m(x) h(a_x) [pi_psi(a_x | x) - pi_psi(a_x)]``; the rule is
    Bayesian unbiased under the h-weighted two-valued loss iff this is >= 0.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (psi.n_psi,):
        raise ValidationError(f"h length {h.shape} != {psi.n_psi} psi values")
    # NaN passes the sign check, so finiteness is tested first
    if not np.all(np.isfinite(h)):
        raise ValidationError("h weights must be finite")
    if np.any(h < 0):
        raise ValidationError("h weights must be nonnegative")
    acts = _rule_actions(model, psi, rule)
    pi_psi = psi_marginal(model.prior, psi)
    table, m = posterior_table(model, psi)
    post_at_action = table[np.arange(model.n_x), acts]
    terms = m * h[acts] * (post_at_action - pi_psi[acts])
    return float(fsums(terms))


def brute_force_bayes(model: FiniteModel, psi: PsiMap, loss: Loss) -> tuple[tuple, float]:
    """Exhaustively score every deterministic rule; return the best.

    Scores come from the joint theta-space expectation of a dense
    ``[true, action]`` loss matrix, independent of the per-outcome
    maximization in :func:`bayes_rule`. A rule's number has its actions as
    base-``n_psi`` digits, outcome 0 the most significant, and the risks are
    built as a running outer sum over outcomes: the same additions in the
    same order as summing each rule's per-outcome terms, so every score has
    the bits of that rule-by-rule sum, and ties go to the lowest number.
    The cost is O(n_psi^n_x) additions and memory, guarded by ``RULE_CAP``
    on the number of rules, which also keeps the matrix tiny. A weight past
    the float range raises :class:`RatioOverflowError`.
    """
    _rule_count(psi.n_psi, model.n_x, RULE_CAP)
    n = loss.n
    # the oracle's own weights: one over each denominator, off the diagonal
    weights = _ratios(np.ones(n), loss.values)
    dense = np.where(np.eye(n, dtype=bool), 0.0, weights[:, None] * np.ones((1, n)))
    # W[x, a] = joint expectation of the loss when outcome x gets action a
    W = model.joint.T @ dense[psi.indices]
    risks = W[0]
    for row in W[1:]:
        risks = (risks[:, None] + row).ravel()
    best = int(np.argmin(risks))
    digits = range(model.n_x - 1, -1, -1)
    return tuple(best // psi.n_psi**k % psi.n_psi for k in digits), float(risks[best])


def _rule_count(n_psi: int, n_x: int, cap: int) -> int:
    """``n_psi ** n_x``, checked against ``cap`` before anything is allocated.

    The error message prints a count of at most ``_COUNT_BITS`` bits. A
    b-bit ``n_psi`` gives ``n_psi ** n_x >= 2 ** ((b - 1) n_x)``, so once
    that exponent passes both the cap's bit length and ``_COUNT_BITS`` the
    count is over the cap and too long to print, and is never formed.
    """
    if (n_psi.bit_length() - 1) * n_x > max(cap.bit_length(), _COUNT_BITS):
        raise RuleSpaceTooLargeError(f"{n_psi}^{n_x} rules exceeds the cap {cap}")
    n_rules = n_psi**n_x
    if n_rules > cap:
        count = f" = {n_rules}" if n_rules.bit_length() <= _COUNT_BITS else ""
        raise RuleSpaceTooLargeError(f"{n_psi}^{n_x}{count} rules exceeds the cap {cap}")
    return n_rules
