"""Two-class classification: posterior-mode versus evidence-based labels.

Covers three layers. With known class proportion ``epsilon`` and Bernoulli
test behavior per class, both classifiers reduce to closed-form threshold
rules and their per-class error probabilities are exact. With an unknown
proportion under a beta prior, a new item is classified from the posterior
predictive of its label (``c_map``) or from the predictive relative belief
ratio (``c_rb``); both conditions are evaluated in log space through
log-gamma differences. Finally, a seeded Monte Carlo harness estimates the
per-class misclassification probabilities of both predictive classifiers
under Gaussian class densities.

Class indices are 0 and 1 throughout; ties in any threshold comparison
label 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, gammaln, ndtri

from .errors import BothDensitiesZeroError, ValidationError


@dataclass(frozen=True)
class TwoClassSpec:
    """Bernoulli success rates per class and the known class-1 proportion."""

    psi0: float
    psi1: float
    epsilon: float

    def __post_init__(self):
        for name in ("psi0", "psi1", "epsilon"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValidationError(f"{name} must be strictly inside (0, 1), got {v}")


@dataclass(frozen=True)
class ClassifyResult:
    map_label: int
    rb_label: int


def classify_known_eps(spec: TwoClassSpec, x: int) -> ClassifyResult:
    """Labels for a single binary test result under known epsilon.

    The posterior-mode label compares class posteriors, so it depends on
    epsilon; the evidence-based label compares the class likelihoods of x
    alone and is invariant to epsilon.
    """
    if x not in (0, 1):
        raise ValidationError(f"test result must be 0 or 1, got {x}")
    f0 = spec.psi0 if x == 1 else 1.0 - spec.psi0
    f1 = spec.psi1 if x == 1 else 1.0 - spec.psi1
    map_label = 0 if f0 * (1.0 - spec.epsilon) > f1 * spec.epsilon else 1
    rb_label = 1 if f1 > f0 else 0
    return ClassifyResult(map_label=map_label, rb_label=rb_label)


def map_rule(spec: TwoClassSpec) -> tuple[int, int]:
    """Posterior-mode label for x = 0 and x = 1."""
    return (classify_known_eps(spec, 0).map_label, classify_known_eps(spec, 1).map_label)


def rb_rule(spec: TwoClassSpec) -> tuple[int, int]:
    """Evidence-based label for x = 0 and x = 1."""
    return (classify_known_eps(spec, 0).rb_label, classify_known_eps(spec, 1).rb_label)


def error_sum(spec: TwoClassSpec, rule) -> tuple[float, float, float]:
    """Exact per-class error probabilities of a rule and their sum.

    ``rule`` maps the test result (0 or 1) to a label; dicts and sequences
    both work.
    """
    pmf0 = (1.0 - spec.psi0, spec.psi0)
    pmf1 = (1.0 - spec.psi1, spec.psi1)
    err0 = math.fsum(pmf0[x] for x in (0, 1) if rule[x] != 0)
    err1 = math.fsum(pmf1[x] for x in (0, 1) if rule[x] != 1)
    return err0, err1, math.fsum((err0, err1))


@dataclass(frozen=True)
class PredictiveSpec:
    """Beta(alpha, beta) prior on the class-1 proportion, n labeled training
    items with mean label c_bar, and both class densities at the new point."""

    alpha: float
    beta: float
    n: int
    c_bar: float
    f0_at_x: float
    f1_at_x: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValidationError("alpha and beta must be > 0")
        if self.n < 0:
            raise ValidationError(f"n must be >= 0, got {self.n}")
        if not 0.0 <= self.c_bar <= 1.0:
            raise ValidationError(f"c_bar must be in [0, 1], got {self.c_bar}")
        k = self.n * self.c_bar
        if abs(k - round(k)) > 1e-9:
            raise ValidationError(f"n * c_bar = {k} is not an integer count")
        if self.f0_at_x < 0 or self.f1_at_x < 0:
            raise ValidationError("density values must be nonnegative")
        if self.f0_at_x == 0.0 and self.f1_at_x == 0.0:
            raise BothDensitiesZeroError("both class densities are zero at x")


@dataclass(frozen=True)
class PredictiveResult:
    c_map: int
    c_rb: int
    map_ratio: float
    rb_ratio: float


def _log_count_ratio(a: float, b: float) -> float:
    """log(a / b) via log-gamma: log Gamma(z+1) - log Gamma(z) = log z."""
    return (gammaln(a + 1.0) - gammaln(a)) - (gammaln(b + 1.0) - gammaln(b))


def predictive_classify(spec: PredictiveSpec) -> PredictiveResult:
    """Posterior-predictive and relative-belief labels for a new item.

    ``c_map`` is 1 when the posterior predictive favors class 1:
    ``(f1/f0) (alpha + n c_bar) / (beta + n (1 - c_bar)) > 1``. ``c_rb``
    additionally weighs against the prior predictive, multiplying the
    condition by ``beta / alpha``. Equal ratios label 0.
    """
    k = round(spec.n * spec.c_bar)
    if spec.f0_at_x == 0.0:
        log_f = math.inf
    elif spec.f1_at_x == 0.0:
        log_f = -math.inf
    else:
        log_f = math.log(spec.f1_at_x) - math.log(spec.f0_at_x)
    log_map = log_f + _log_count_ratio(spec.alpha + k, spec.beta + spec.n - k)
    log_rb = log_map + _log_count_ratio(spec.beta, spec.alpha)
    return PredictiveResult(
        c_map=int(log_map > 0.0),
        c_rb=int(log_rb > 0.0),
        map_ratio=math.exp(log_map) if math.isfinite(log_map) else math.inf if log_map > 0 else 0.0,
        rb_ratio=math.exp(log_rb) if math.isfinite(log_rb) else math.inf if log_rb > 0 else 0.0,
    )


@dataclass(frozen=True)
class RiskTableRow:
    """Monte Carlo per-class misclassification estimates for one beta value."""

    beta: float
    map_err0: float
    map_err1: float
    map_sum: float
    rb_err0: float
    rb_err1: float
    rb_sum: float
    reps: int
    seed: int

    @staticmethod
    def csv_header() -> str:
        return "beta,map_err0,map_err1,map_sum,rb_err0,rb_err1,rb_sum,reps,seed"

    @classmethod
    def from_csv_row(cls, line: str) -> "RiskTableRow":
        parts = line.strip().split(",")
        if len(parts) != 9:
            raise ValidationError(f"expected 9 CSV fields, got {len(parts)}")
        floats = [float(v) for v in parts[:7]]
        return cls(*floats, reps=int(parts[7]), seed=int(parts[8]))


def rows_from_csv(text: str) -> list[RiskTableRow]:
    """Parse a risk table emitted with the canonical header back into rows."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != RiskTableRow.csv_header():
        raise ValidationError("missing or unexpected risk-table header")
    return [RiskTableRow.from_csv_row(ln) for ln in lines[1:]]


# doubles consumed per replication: 1 (eps) + n (labels) + n (training x,
# drawn for stream fidelity) + 2 (one test point per class)
def _columns(n: int) -> int:
    return 2 * n + 3


def risk_table(
    alpha: float,
    betas,
    mu: float,
    n: int,
    reps: int,
    seed: int,
) -> list[RiskTableRow]:
    """Estimate per-class error probabilities for both predictive classifiers.

    Per replication: draw the class proportion from Beta(alpha, beta), a
    training set of n labeled Gaussian observations (class densities N(0,1)
    and N(mu,1)), then one test point conditioned on each class; record
    whether each classifier errs on each. Randomness is counter-based: each
    (beta, replication) pair owns a fixed block of Philox doubles keyed by
    (seed, beta index), mapped through inverse CDFs, so any row or
    replication can be regenerated independently and in parallel.
    """
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    if alpha <= 0:
        raise ValidationError("alpha must be > 0")
    rows = []
    for bi, beta in enumerate(betas):
        if beta <= 0:
            raise ValidationError("every beta must be > 0")
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), bi])))
        u = gen.random((reps, _columns(n)))
        eps = betaincinv(alpha, beta, u[:, 0])
        c = u[:, 1 : 1 + n] < eps[:, None]
        x_test0 = ndtri(u[:, 1 + 2 * n])
        x_test1 = mu + ndtri(u[:, 2 + 2 * n])
        k = c.sum(axis=1).astype(float)

        # log predictive ratios; the Gaussian density ratio is linear in x
        count_term = (gammaln(alpha + k + 1.0) - gammaln(alpha + k)) - (
            gammaln(beta + n - k + 1.0) - gammaln(beta + n - k)
        )
        rb_shift = _log_count_ratio(beta, alpha)

        def labels(x_new, shift):
            return (mu * x_new - 0.5 * mu * mu) + count_term + shift > 0.0

        map_err0 = float(np.mean(labels(x_test0, 0.0)))
        map_err1 = float(np.mean(~labels(x_test1, 0.0)))
        rb_err0 = float(np.mean(labels(x_test0, rb_shift)))
        rb_err1 = float(np.mean(~labels(x_test1, rb_shift)))
        rows.append(
            RiskTableRow(
                beta=float(beta),
                map_err0=map_err0,
                map_err1=map_err1,
                map_sum=map_err0 + map_err1,
                rb_err0=rb_err0,
                rb_err1=rb_err1,
                rb_sum=rb_err0 + rb_err1,
                reps=reps,
                seed=seed,
            )
        )
    return rows
