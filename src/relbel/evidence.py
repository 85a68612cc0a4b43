"""Relative belief ratios and every inference derived from them.

The relative belief ratio of a value is its posterior mass over its prior
mass: above 1 the data gave evidence for the value, below 1 against, at 1
none either way. From one table of ratios this module derives the best
estimate, the plausible region (ratio strictly above 1), credible regions
under both cutoff conventions, the strength of evidence for a hypothesis,
and the predictive analogue for future observations.

Membership comparisons are exact on the computed floats; no epsilon band
is applied anywhere, since a band would silently change region contents.
Argmax and argmin ties break to the smallest index and are flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BadGammaError,
    IndexOutOfRangeError,
    ValidationError,
    ZeroPriorPositivePosteriorError,
)
from .grids import GriddedDistribution
from .model import NORM_TOL, FiniteModel, PsiMap, identity_psi, posterior, psi_marginal


@dataclass(frozen=True, eq=False)
class EvidenceTable:
    """Per-value prior mass, posterior mass and relative belief ratio.

    Values whose prior and posterior mass are both zero (truncation
    artifacts) are excluded; ``dropped_zero_prior`` counts them and
    ``kept_indices``, a read-only int array, maps table rows to input
    positions. ``labels`` are the input labels of the kept rows.
    """

    labels: Sequence
    prior: np.ndarray
    posterior: np.ndarray
    rb: np.ndarray
    dropped_zero_prior: int
    kept_indices: np.ndarray

    def __len__(self) -> int:
        return len(self.rb)

    def original_indices(self, positions: Iterable[int]) -> frozenset:
        """Map table positions to indices of the pre-drop input."""
        return frozenset(self.kept_indices[np.fromiter(positions, dtype=np.intp)].tolist())


class Estimate(NamedTuple):
    index: int
    tie: bool


@dataclass(frozen=True, eq=False)
class RegionReport:
    """A set of table positions with its cutoff and probability contents."""

    member_indices: frozenset
    cutoff: float
    posterior_content: float
    prior_content: float | None = None


@dataclass(frozen=True, eq=False)
class HypothesisReport:
    rb_at_psi0: float
    strength: float
    posterior_mass: float
    verdict: str  # evidence-for | evidence-against | no-evidence


def _unit(v: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{what} masses must be finite")
    if np.any(v < 0):
        raise ValidationError(f"{what} masses must be nonnegative")
    total = math.fsum(v.tolist())
    if abs(total - 1.0) > NORM_TOL:
        raise ValidationError(f"{what} masses sum to {total!r}, not 1 within {NORM_TOL}")
    return v if total == 1.0 else v / total


def rb_table(prior, posterior, labels: Sequence | None = None) -> EvidenceTable:
    """Build the evidence table ``rb = posterior / prior``.

    Entries with zero prior and zero posterior mass are dropped (counted in
    the result); zero prior with positive posterior is an input error.
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
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ZeroPriorPositivePosteriorError(
            f"value {i if labels is None else labels[i]!r} has zero prior "
            f"but posterior mass {posterior[i]!r}"
        )
    keep = ~zero_prior
    kept_idx = np.flatnonzero(keep)
    kept_idx.setflags(write=False)
    if isinstance(labels, np.ndarray):
        labels = labels[kept_idx]
    elif labels is not None:
        labels = tuple(labels[i] for i in kept_idx.tolist())
    prior = _unit(prior[keep], "prior")
    posterior = _unit(posterior[keep], "posterior")
    rb = posterior / prior
    rb.setflags(write=False)
    return EvidenceTable(
        labels=kept_idx if labels is None else labels,
        prior=prior,
        posterior=posterior,
        rb=rb,
        dropped_zero_prior=int(np.count_nonzero(zero_prior)),
        kept_indices=kept_idx,
    )


def table_from_gridded(
    prior_gd: GriddedDistribution, posterior_gd: GriddedDistribution
) -> EvidenceTable:
    """Evidence table over grid cells, labeled by cell midpoints."""
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


def plausible_region(t: EvidenceTable) -> RegionReport:
    """Values with strictly more posterior than prior mass (rb > 1)."""
    members = np.flatnonzero(t.rb > 1.0)
    return RegionReport(
        member_indices=frozenset(int(i) for i in members),
        cutoff=1.0,
        posterior_content=float(math.fsum(t.posterior[members].tolist())),
        prior_content=float(math.fsum(t.prior[members].tolist())),
    )


def _descending_levels(ratios: np.ndarray, posterior: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique ratio values descending with cumulative posterior content.

    The cumulative sums run over the stable ratio-descending element order.
    Credible regions pass the rb column and lowest-posterior-loss regions
    pass posterior times error weight; when both order the elements alike,
    level contents compare bitwise across the two routes.
    """
    order = np.argsort(-ratios, kind="stable")
    sorted_r = ratios[order]
    cum = np.cumsum(posterior[order])
    ends = np.append(np.flatnonzero(np.diff(sorted_r)), len(sorted_r) - 1)
    return sorted_r[ends], cum[ends]


def attainable_gammas(t: EvidenceTable) -> np.ndarray:
    """Posterior contents exactly attainable by rb-cutoff regions, ascending."""
    _, content = _descending_levels(t.rb, t.posterior)
    return np.sort(content)


def credible_region(t: EvidenceTable, gamma: float, convention: str = "sup-geq") -> RegionReport:
    """Highest-relative-belief region with posterior content at least gamma.

    ``sup-geq`` (default): cutoff is the largest rb level whose superlevel
    set reaches content gamma; members satisfy ``rb >= cutoff``.
    ``quantile-gt``: cutoff is the (1 - gamma) posterior quantile of the rb
    values; members satisfy ``rb > cutoff``, so at ``gamma`` equal to the
    plausible region's posterior content the region is exactly the
    plausible region.

    ``gamma`` lies in [0, 1] or, above 1, at most the table's total
    posterior content: an fsum content, the plausible region's included,
    can pass 1 by an ulp of the posterior normalization, and no region's
    content exceeds the total.
    """
    if not (0.0 <= gamma <= 1.0 or 1.0 < gamma <= math.fsum(t.posterior.tolist())):
        raise BadGammaError(f"gamma must be in [0, 1], got {gamma}")
    if convention == "sup-geq":
        values, content = _descending_levels(t.rb, t.posterior)
        hit = np.flatnonzero(content >= gamma)
        # float shortfall at gamma=1 falls back to full support
        j = int(hit[0]) if len(hit) else len(values) - 1
        cutoff = float(values[j])
        members = np.flatnonzero(t.rb >= cutoff)
    elif convention == "quantile-gt":
        if gamma >= 1.0:
            # cells without posterior mass (rb = 0) stay out, as from the plausible region
            cutoff = 0.0 if np.any(t.rb == 0.0) else -math.inf
        else:
            # smallest rb level whose strict-superlevel mass is <= gamma;
            # evaluated by fsum over the same masks plausible_region uses,
            # so the tie at gamma = Pl content is exact, and located by
            # binary search (the condition is monotone across levels)
            levels = np.unique(t.rb)

            def small_enough(j: int) -> bool:
                return math.fsum(t.posterior[t.rb > levels[j]].tolist()) <= gamma

            lo_j, hi_j = 0, len(levels) - 1
            while lo_j < hi_j:
                mid = (lo_j + hi_j) // 2
                if small_enough(mid):
                    hi_j = mid
                else:
                    lo_j = mid + 1
            cutoff = float(levels[lo_j])
        members = np.flatnonzero(t.rb > cutoff)
    else:
        raise ValidationError(f"unknown credible-region convention {convention!r}")
    return RegionReport(
        member_indices=frozenset(int(i) for i in members),
        cutoff=cutoff,
        posterior_content=float(math.fsum(t.posterior[members].tolist())),
        prior_content=float(math.fsum(t.prior[members].tolist())),
    )


def strength(t: EvidenceTable, psi0: int) -> float:
    """Posterior probability of evidence no larger than at ``psi0``."""
    if not 0 <= psi0 < len(t):
        raise IndexOutOfRangeError(f"psi0 index {psi0} not in [0, {len(t)})")
    mask = t.rb <= t.rb[psi0]
    return float(math.fsum(t.posterior[mask].tolist()))


def assess_hypothesis(t: EvidenceTable, psi0: int) -> HypothesisReport:
    """Evidence verdict for one hypothesized value plus its strength."""
    if not 0 <= psi0 < len(t):
        raise IndexOutOfRangeError(f"psi0 index {psi0} not in [0, {len(t)})")
    rb0 = float(t.rb[psi0])
    if rb0 > 1.0:
        verdict = "evidence-for"
    elif rb0 < 1.0:
        verdict = "evidence-against"
    else:
        verdict = "no-evidence"
    return HypothesisReport(
        rb_at_psi0=rb0,
        strength=strength(t, psi0),
        posterior_mass=float(t.posterior[psi0]),
        verdict=verdict,
    )


def rb_predict(prior_pred, post_pred, labels: Sequence | None = None) -> tuple[EvidenceTable, Estimate]:
    """Relative belief over future observations; returns table and argmax."""
    t = rb_table(prior_pred, post_pred, labels=labels)
    return t, rb_estimate(t)
