"""Two-class classification: posterior-mode versus evidence-based labels.

Covers three layers. With known class proportion ``epsilon`` and Bernoulli
test behavior per class, both classifiers reduce to closed-form threshold
rules and their per-class error probabilities are exact. With an unknown
proportion under a beta prior, a new item is classified from the posterior
predictive of its label (``c_map``) or from the predictive relative belief
ratio (``c_rb``); both conditions are evaluated in log space as
differences of logs. Finally, a seeded Monte Carlo harness estimates the
per-class misclassification probabilities of both predictive classifiers
under Gaussian class densities.

Class indices are 0 and 1 throughout; ties in any threshold comparison
label 0.

``scipy.special`` is imported on first use, by the Monte Carlo table; the
known-epsilon rules and the predictive classifiers never load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sums import fsums
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
    map_label = 1 if f1 * spec.epsilon > f0 * (1.0 - spec.epsilon) else 0
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
    pmfs = np.array([[1.0 - spec.psi0, spec.psi0], [1.0 - spec.psi1, spec.psi1]])
    wrong = np.array([[rule[x] != c for x in (0, 1)] for c in (0, 1)])  # row c: class c
    err0, err1 = fsums(np.where(wrong, pmfs, 0.0), axis=1).tolist()
    return err0, err1, float(fsums(np.array([err0, err1])))


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
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):
            raise ValidationError("alpha and beta must be finite and > 0")
        # up to 2^53 the count n * c_bar is exact and at most n
        if not 0 <= self.n <= 2**53:
            raise ValidationError(f"n must be in [0, 2^53], got {self.n}")
        if not 0.0 <= self.c_bar <= 1.0:
            raise ValidationError(f"c_bar must be in [0, 1], got {self.c_bar}")
        k = self.n * self.c_bar
        if abs(k - round(k)) > 1e-9:
            raise ValidationError(f"n * c_bar = {k} is not an integer count")
        if not (0.0 <= self.f0_at_x < math.inf and 0.0 <= self.f1_at_x < math.inf):
            raise ValidationError("density values must be finite and nonnegative")
        if self.f0_at_x == 0.0 and self.f1_at_x == 0.0:
            raise BothDensitiesZeroError("both class densities are zero at x")


@dataclass(frozen=True)
class PredictiveResult:
    c_map: int
    c_rb: int
    map_ratio: float
    rb_ratio: float


def _log_count_ratio(a: float, b: float) -> float:
    """log(a / b) as a difference of logs, which neither cancels nor overflows."""
    return math.log(a) - math.log(b)


def _ratio(log_r: float) -> float:
    """exp(log_r), saturating to inf where it passes the float range."""
    try:
        return math.exp(log_r)
    except OverflowError:
        return math.inf


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
    # n - k first: beta + n could round away a tiny beta
    log_map = log_f + _log_count_ratio(spec.alpha + k, spec.beta + (spec.n - k))
    log_rb = log_map + _log_count_ratio(spec.beta, spec.alpha)
    return PredictiveResult(
        c_map=int(log_map > 0.0),
        c_rb=int(log_rb > 0.0),
        map_ratio=_ratio(log_map),
        rb_ratio=_ratio(log_rb),
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


# doubles consumed per replication: 1 (eps) + n (labels) + n (training x,
# drawn for stream fidelity) + 2 (one test point per class)
def _columns(n: int) -> int:
    return 2 * n + 3


# doubles drawn at a time (2^15 replications at n = 10), up to the largest n
# whose replication fits: memory stays bounded as reps and n grow, and the
# chunks continue one Philox stream, so no estimate depends on the size
_CHUNK_DOUBLES = _columns(10) * 2**15
_N_CAP = (_CHUNK_DOUBLES - 3) // 2


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
    from scipy.special import betaincinv, ndtri

    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    if not 0 <= n <= _N_CAP:
        raise ValidationError(f"n must be in [0, {_N_CAP}], got {n}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if not (0.0 < alpha < math.inf):
        raise ValidationError(f"alpha must be finite and > 0, got {alpha}")
    if not math.isfinite(mu):
        raise ValidationError(f"mu must be finite, got {mu}")
    betas = list(betas)
    for beta in betas:
        if not (0.0 < beta < math.inf):
            raise ValidationError(f"every beta must be finite and > 0, got {beta}")
    chunk = _CHUNK_DOUBLES // _columns(n)
    rows = []
    for bi, beta in enumerate(betas):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), bi])))
        rb_shift = _log_count_ratio(beta, alpha)
        # error counts of map on class 0, map on class 1, rb on class 0, rb on class 1
        errors = [0, 0, 0, 0]
        for start in range(0, reps, chunk):
            u = gen.random((min(chunk, reps - start), _columns(n)))
            eps = betaincinv(alpha, beta, u[:, 0])
            c = u[:, 1 : 1 + n] < eps[:, None]
            x_test0 = ndtri(u[:, 1 + 2 * n])
            x_test1 = mu + ndtri(u[:, 2 + 2 * n])
            k = c.sum(axis=1).astype(float)

            # log predictive ratios; the Gaussian density ratio is linear in x
            count_term = np.log(alpha + k) - np.log(beta + (n - k))
            odds0 = (mu * x_test0 - 0.5 * mu * mu) + count_term
            odds1 = (mu * x_test1 - 0.5 * mu * mu) + count_term
            for i, shift in enumerate((0.0, rb_shift)):
                errors[2 * i] += int(np.count_nonzero(odds0 + shift > 0.0))
                errors[2 * i + 1] += int(np.count_nonzero(~(odds1 + shift > 0.0)))
        # an exact count over reps: the bits of the mean of all the 0/1 errors
        map_err0, map_err1, rb_err0, rb_err1 = (e / reps for e in errors)
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
