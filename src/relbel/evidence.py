"""Relative belief ratios and every inference derived from them.

The relative belief ratio of a value is its posterior mass over its prior
mass: above 1 the data gave evidence for the value, below 1 against, at 1
none either way. From one table of ratios this module derives the best
estimate, the plausible region (ratio strictly above 1), credible regions
under both cutoff conventions, and the strength of evidence for a
hypothesis.

Membership comparisons are exact on the computed floats; no epsilon band
is applied anywhere, since a band would silently change region contents.
Argmax and argmin ties break to the smallest index and are flagged.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from ._sums import _TINY, _U, fsums
from .errors import (
    BadGammaError,
    IndexOutOfRangeError,
    RatioOverflowError,
    ValidationError,
    ZeroPriorPositivePosteriorError,
)
from .model import FiniteModel, PsiMap, _unit_total, identity_psi, posterior, psi_marginal


@dataclass(frozen=True, eq=False)
class EvidenceTable:
    """Per-value prior mass, posterior mass and relative belief ratio.

    Values whose prior and posterior mass are both zero (truncation
    artifacts) are excluded; ``dropped_zero_prior`` counts them and
    ``kept_indices`` maps table rows to input positions, so a region's
    input positions are ``kept_indices[region.members]``. ``labels`` are
    the input labels of the kept rows.

    ``prior``, ``posterior``, ``rb`` and ``kept_indices`` are read-only
    arrays. ``descending``, the table's ratio-descending order, is sorted
    on first use and kept, read-only; it assumes those arrays do not change
    after that.
    """

    labels: Sequence
    prior: np.ndarray
    posterior: np.ndarray
    rb: np.ndarray
    dropped_zero_prior: int
    kept_indices: np.ndarray

    def __len__(self) -> int:
        return len(self.rb)

    # cached_property writes the instance __dict__, which the frozen dataclass leaves open
    @cached_property
    def descending(self) -> tuple[np.ndarray, ...]:
        """:func:`_descending_levels` of ``rb`` and ``posterior``: every rb cutoff reads it."""
        return _descending_levels(self.rb, self.posterior)


class Estimate(NamedTuple):
    index: int
    tie: bool


@dataclass(frozen=True, eq=False)
class RegionReport:
    """A region of table positions with its cutoff and probability contents.

    ``members`` is a sorted, read-only int array of table positions.
    """

    members: np.ndarray
    cutoff: float
    posterior_content: float
    prior_content: float | None = None

    @property
    def member_indices(self) -> frozenset:
        """The members as a frozenset, built on each access."""
        return frozenset(self.members.tolist())


@dataclass(frozen=True, eq=False)
class HypothesisReport:
    rb_at_psi0: float
    strength: float
    posterior_mass: float
    verdict: str  # evidence-for | evidence-against | no-evidence


def _unit(v: np.ndarray, what: str) -> None:
    """Check that ``v`` holds nonnegative masses summing to 1 within NORM_TOL."""
    if (v < 0).any():
        raise ValidationError(f"{what} masses must be nonnegative")
    _unit_total(v, ValidationError, what)


def _ratios(masses, denominators) -> np.ndarray:
    """``masses / denominators``, the one division of a posterior by a prior mass.

    Relative belief ratios and Bayes-rule scores both divide here, so the
    ``rb`` rule's scores are bitwise the evidence table's ratios.

    Raises:
        RatioOverflowError: a ratio is past the float range.
    """
    with np.errstate(over="ignore"):
        ratios = masses / denominators
    bad = ~np.isfinite(ratios)
    if bad.any():
        mass, denom = (float(np.broadcast_to(a, bad.shape)[bad][0]) for a in (masses, denominators))
        raise RatioOverflowError(f"ratio {mass!r} / {denom!r} overflows the float range")
    return ratios


def rb_table(prior, posterior, labels: Sequence | None = None) -> EvidenceTable:
    """Build the evidence table ``rb = posterior / prior``.

    Entries with zero prior and zero posterior mass are dropped (counted in
    the result); zero prior with positive posterior is an input error. The
    kept masses are stored as given, checked to sum to 1 within NORM_TOL.
    A read-only array (masses or labels) or a labels tuple from which
    nothing drops is stored itself, not copied: a grid's masses and
    midpoints and a psi map's labels are shared this way.
    """
    prior = np.asarray(prior, dtype=float)
    posterior = np.asarray(posterior, dtype=float)
    if prior.shape != posterior.shape or prior.ndim != 1:
        raise ValidationError("prior and posterior must be 1-D arrays of equal length")
    if len(prior) == 0:
        raise ValidationError("empty table")
    if labels is not None and len(labels) != len(prior):
        raise ValidationError("labels length does not match masses")

    zero_prior = prior == 0.0
    bad = zero_prior & (posterior > 0.0)
    if bad.any():
        i = int(bad.argmax())
        raise ZeroPriorPositivePosteriorError(
            f"value {i if labels is None else labels[i]!r} has zero prior "
            f"but posterior mass {posterior[i]!r}"
        )
    kept_idx = (~zero_prior).nonzero()[0]
    kept_idx.setflags(write=False)
    all_kept = len(kept_idx) == len(prior)

    def kept(a: np.ndarray) -> np.ndarray:
        return a if all_kept and not a.flags.writeable else a[kept_idx]

    if isinstance(labels, np.ndarray):
        labels = kept(labels)
    elif labels is not None and not (all_kept and isinstance(labels, tuple)):
        labels = tuple(labels[i] for i in kept_idx.tolist())
    prior, posterior = kept(prior), kept(posterior)
    _unit(prior, "prior")
    _unit(posterior, "posterior")
    rb = _ratios(posterior, prior)
    for a in (prior, posterior, rb):
        a.setflags(write=False)
    return EvidenceTable(
        labels=kept_idx if labels is None else labels,
        prior=prior,
        posterior=posterior,
        rb=rb,
        dropped_zero_prior=len(zero_prior) - len(kept_idx),
        kept_indices=kept_idx,
    )


def table_from_gridded(prior_gd, posterior_gd) -> EvidenceTable:
    """Evidence table over grid cells, labeled by cell midpoints.

    ``prior_gd`` and ``posterior_gd`` are :class:`relbel.grids.GriddedDistribution`
    masses on one grid; only their ``grid`` and ``masses`` are read, so this
    module does not import :mod:`relbel.grids`.
    """
    if prior_gd.grid is not posterior_gd.grid and (
        prior_gd.grid.lo != posterior_gd.grid.lo
        or prior_gd.grid.hi != posterior_gd.grid.hi
        or prior_gd.grid.n_cells != posterior_gd.grid.n_cells
    ):
        raise ValidationError("prior and posterior are gridded on different grids")
    return rb_table(prior_gd.masses, posterior_gd.masses, labels=prior_gd.grid.midpoints)


def table_from_model(model: FiniteModel, x: int, psi: PsiMap | None = None) -> EvidenceTable:
    """Evidence table over psi values for outcome index ``x``, labeled by psi.

    ``psi`` defaults to the identity, giving a table over theta values.
    """
    if psi is None:
        psi = identity_psi(model)
    return rb_table(
        psi_marginal(model.prior, psi),
        psi_marginal(posterior(model, x).posterior, psi),
        labels=psi.psi_labels,
    )


def rb_estimate(t: EvidenceTable) -> Estimate:
    """Index of the maximal relative belief ratio; ties flagged."""
    best = int(np.argmax(t.rb))
    tie = int(np.count_nonzero(t.rb == t.rb[best])) > 1
    return Estimate(index=best, tie=tie)


def _region(members: np.ndarray, cutoff: float, posterior: np.ndarray, prior=None) -> RegionReport:
    """The region of the given sorted positions with its exact contents (prior's when given)."""
    members.setflags(write=False)
    return RegionReport(
        members=members,
        cutoff=cutoff,
        posterior_content=float(fsums(posterior[members])),
        prior_content=None if prior is None else float(fsums(np.asarray(prior)[members])),
    )


def plausible_region(t: EvidenceTable) -> RegionReport:
    """Values with strictly more posterior than prior mass (rb > 1)."""
    return _region((t.rb > 1.0).nonzero()[0], 1.0, t.posterior, t.prior)


def _descending_levels(ratios: np.ndarray, posterior: np.ndarray) -> tuple[np.ndarray, ...]:
    """Unique ratio values descending with the float prefix sums of their contents.

    Returns ``(levels, content, order, ends)``: ``order`` is the stable
    ratio-descending element order, the elements with ratio at least
    ``levels[i]`` are ``order[: ends[i] + 1]``, and ``content[i]`` is their
    float prefix sum, not their exact total: only the basis of the error
    bound in :func:`_level_search`. All four arrays are read-only.
    """
    order = np.argsort(-ratios, kind="stable")
    sorted_r = ratios[order]
    cum = np.cumsum(posterior[order])
    ends = np.append((sorted_r[1:] != sorted_r[:-1]).nonzero()[0], len(sorted_r) - 1)
    out = sorted_r[ends], cum[ends], order, ends
    for a in out:
        a.setflags(write=False)
    return out


def _level_search(descending: tuple, posterior: np.ndarray, gamma: float, strict: bool) -> float:
    """The cutoff of the region whose exact content first reaches ``gamma``.

    Bisects the positive ratio levels, whose exact contents (``fsums`` of
    ``order[: ends[i] + 1]``) grow as the level falls, for the first content
    at least ``gamma``, or above it when ``strict``. That level is the cutoff
    of the members ``ratio >= cutoff``, or, strict, ``ratio > cutoff``, which
    hold at most ``gamma``; one rule for every ``gamma``, 1 included. When no
    level qualifies, the members are the values with posterior mass (``ratio > 0``).

    A probe first reads the float prefix sum ``c = content[i]`` of ``k``
    non-negative terms, within ``e = 2 k u c + 2**-800`` (``_TINY``) of
    their exact total ``S`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., section 4.2: the factor 2 covers rounding while
    ``k`` is far below ``2**46``, the absolute term underflow). Rounding is
    monotone, so when ``fl(c - e)`` and ``fl(c + e)`` agree on ``gamma``, so
    does ``fl(S)``; otherwise the exact total of the prefix, the region's
    reported content, decides.
    """
    levels, content, order, ends = descending
    reaches = float(gamma).__lt__ if strict else float(gamma).__le__  # s > gamma, s >= gamma

    def qualifies(i: int) -> bool:
        k, c = ends.item(i) + 1, content.item(i)
        e = c * (2.0 * k * _U) + _TINY
        low, high = reaches(c - e), reaches(c + e)
        return low if low == high else reaches(float(fsums(posterior[order[:k]])))

    positive = len(levels)
    if levels.item(-1) <= 0.0:  # levels without posterior mass come last
        positive = bisect_left(range(positive), True, key=lambda i: levels.item(i) <= 0.0)
    found = bisect_left(range(positive), True, key=qualifies)
    if strict:  # found is the level after the last positive one, if any, when none qualifies
        return levels.item(found) if found < len(levels) else -math.inf
    return levels.item(min(found, positive - 1)) if positive else math.inf


def _superlevel_region(
    ratios: np.ndarray, descending: tuple, posterior, gamma: float, strict=False, prior=None
) -> RegionReport:
    """The region of :func:`_level_search`'s cutoff, members a sorted index array.

    ``descending`` is :func:`_descending_levels` of ``ratios`` and
    ``posterior``: sorted once per table for credible regions, which pass
    rb, and once per call for lowest-posterior-loss regions, which pass
    posterior over the loss's denominators; under the ``rb`` loss the two
    are one computation.
    """
    cutoff = _level_search(descending, posterior, gamma, strict)
    members = (ratios > cutoff if strict else ratios >= cutoff).nonzero()[0]
    return _region(members, cutoff, posterior, prior)


def _check_gamma(gamma: float, posterior: np.ndarray) -> None:
    """Admit ``gamma`` in [0, 1] or, above 1, up to the ``fsums`` total of ``posterior``."""
    if not (0.0 <= gamma <= 1.0 or 1.0 < gamma <= float(fsums(posterior))):
        raise BadGammaError(f"gamma must be in [0, 1], got {gamma}")


def attainable_gammas(t: EvidenceTable) -> np.ndarray:
    """The exact posterior content of each positive rb level's region, ascending (read-only).

    A mass ``n / 2**j`` times ``2**1074`` is the integer ``n << (1074 - j)``,
    so one running integer sum holds every exact prefix total, and integer
    division rounds it correctly, to the bits of ``fsums``.
    """
    levels, _, order, ends = t.descending
    masses = map(float.as_integer_ratio, t.posterior[order].tolist())
    running = list(accumulate(n << (1075 - d.bit_length()) for n, d in masses))
    out = np.array([running[k] / 2**1074 for k in ends[levels > 0.0].tolist()], dtype=float)
    out.setflags(write=False)
    return out


def credible_region(t: EvidenceTable, gamma: float, convention: str = "sup-geq") -> RegionReport:
    """Highest-relative-belief region at posterior content gamma.

    One rule at every gamma, 1 included: the cutoff is the largest rb level
    whose superlevel set's exact content is at least gamma (``sup-geq``, the
    default, members ``rb >= cutoff``) or above it (``quantile-gt``, members
    ``rb > cutoff``, the (1 - gamma) posterior quantile: the plausible region
    at its own content); with none, the values with posterior mass. ``gamma``
    may pass 1 up to the table's total content, as an fsum content can by an ulp.
    """
    _check_gamma(gamma, t.posterior)
    if convention not in ("sup-geq", "quantile-gt"):
        raise ValidationError(f"unknown credible-region convention {convention!r}")
    strict = convention == "quantile-gt"
    return _superlevel_region(t.rb, t.descending, t.posterior, gamma, strict, t.prior)


def strength(t: EvidenceTable, psi0: int) -> float:
    """Posterior probability of evidence no larger than at ``psi0``."""
    if not 0 <= psi0 < len(t):
        raise IndexOutOfRangeError(f"psi0 index {psi0} not in [0, {len(t)})")
    return float(fsums(t.posterior[t.rb <= t.rb[psi0]]))


def assess_hypothesis(t: EvidenceTable, psi0: int) -> HypothesisReport:
    """Evidence verdict for one hypothesized value plus its strength."""
    strength_at = strength(t, psi0)  # checks the index first
    rb0 = float(t.rb[psi0])
    if rb0 > 1.0:
        verdict = "evidence-for"
    elif rb0 < 1.0:
        verdict = "evidence-against"
    else:
        verdict = "no-evidence"
    return HypothesisReport(
        rb_at_psi0=rb0,
        strength=strength_at,
        posterior_mass=float(t.posterior[psi0]),
        verdict=verdict,
    )
