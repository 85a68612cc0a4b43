"""Desk-scale experiments on limits of Bayes rules and regions.

Each experiment runs a decreasing ladder of a control parameter (the loss
cap eta, or the cell width of a discretization) and traces how the Bayes
action or credible region moves toward its evidence-based limit:

* :func:`eta_limit` - on a finite or truncated-countable table, the Bayes
  action under the capped reciprocal-prior loss must lock onto the
  evidence maximizer once eta drops below that value's prior mass.
* :func:`lambda_limit` - on a shrinking grid with the cap at half the
  best evidence cell's prior mass, the Bayes action converges to the
  continuous evidence maximizer.
* :func:`map_limit_contrast` - same ladder under the plain cell-membership
  loss, which converges to the posterior density mode instead.
* :func:`region_limit` - credible regions of the discretized problem
  against a much finer reference standing in for the continuous region.
* :func:`lpl_sandwich` - lowest-posterior-loss regions squeezed between
  credible regions at the attained content and the next larger one.
* :func:`invariance_demo` - a monotone change of variable moves the
  density-mode cell but not the evidence-maximizing cell.

The grid experiments share one evidence table per grid: whichever asks
first discretizes the grid with :func:`grids.discretize_joint` and tables
the prior and joint masses with :func:`evidence.table_from_gridded`, and
every later one reads that table and its cached order.
Running all four on one ladder with the same two callables costs one
evaluation of each per grid. A grid keeps the table of one (prior density,
likelihood) pair at a time, known by the identity of the two callables,
which must therefore be deterministic; another pair replaces it. The store
is keyed weakly by grid, so the table goes with the ladder.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._sums import fsums
from .decision import lpl_region, make_loss
from .errors import (
    SeparationViolatedError,
    TieAtMaximizerError,
    ValidationError,
)
from .evidence import (
    EvidenceTable,
    _ratios,
    _superlevel_region,
    credible_region,
    rb_estimate,
    rb_table,
    table_from_gridded,
    table_from_model,
)
from .grids import CELL_CAP  # noqa: F401  (re-exported: the cap every ladder grid meets)
from .grids import (
    Grid1D,
    _normalize,
    _warn_tail,
    capped,
    discretize_joint,
    masses_from_cdf,
    refine,
)
from .model import FiniteModel, PsiMap

FLAT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LimitTrace:
    """One ladder run: parameter values, per-step results, limit target."""

    parameter_values: tuple
    actions_or_regions: tuple
    target: object
    discrepancies: tuple


def default_eta_ladder(prior, steps: int = 8) -> tuple[float, ...]:
    """Geometric ladder eta_k = max prior mass / 2^k, k < ``steps``, of distinct positive floats."""
    top = float(np.max(np.asarray(prior, dtype=float)))
    if top <= 0:
        raise ValidationError("prior has no positive mass")
    if steps < 1:
        raise ValidationError("need at least one ladder step")
    # each cap rounds top / 2^k once, so only the last two can tie (at 5e-324) or reach 0
    if not top * 0.5 ** (steps - 2) > top * 0.5 ** (steps - 1) > 0.0:
        raise ValidationError(
            f"{steps} eta steps halve the largest prior mass {top!r} past the float range"
        )
    return tuple(top * 0.5**k for k in range(steps))


def _checked_ladder(prior, eta_ladder) -> tuple[float, ...]:
    """``eta_ladder`` as floats, by default :func:`default_eta_ladder`; raises unless it is
    non-empty, strictly decreasing and positive."""
    ladder = default_eta_ladder(prior) if eta_ladder is None else tuple(map(float, eta_ladder))
    if not (ladder and ladder[-1] > 0 and all(a > b for a, b in zip(ladder, ladder[1:]))):
        raise ValidationError("eta ladder must be strictly decreasing and positive")
    return ladder


def grid_ladder(base: Grid1D, steps: int = 4, factor: int = 2) -> list[Grid1D]:
    """Successively ``factor``-refined grids starting from ``base``.

    Raises:
        ValidationError: ``steps`` is below 1.
        TooManyCellsError: some grid of the ladder would have more than
            ``CELL_CAP`` cells; nothing has been discretized yet.
    """
    if steps < 1:
        raise ValidationError(f"a grid ladder needs at least one step, got {steps}")
    grids = [capped(base, "the base grid")]
    for k in range(1, steps):
        grids.append(capped(refine(grids[-1], factor), f"ladder step {k + 1} of {steps}"))
    return grids


def _table_from_source(source, x=None, psi: PsiMap | None = None) -> EvidenceTable:
    if isinstance(source, EvidenceTable):
        return source
    if isinstance(source, FiniteModel):
        if x is None:
            raise ValidationError("an outcome index is required with a model source")
        return table_from_model(source, x, psi)
    raise ValidationError(f"unsupported source type {type(source).__name__}")


def _trace(parameters, actions, target) -> LimitTrace:
    """A ladder trace whose discrepancies are distances to the target."""
    return LimitTrace(
        parameter_values=tuple(parameters),
        actions_or_regions=tuple(actions),
        target=target,
        discrepancies=tuple(float(abs(a - target)) for a in actions),
    )


def _capped_action(t: EvidenceTable, eta: float) -> int:
    """Bayes action under the capped reciprocal-prior loss with cap ``eta``.

    Below every prior mass it is bitwise the evidence estimate.
    """
    return int(np.argmax(_ratios(t.posterior, make_loss("rb-eta", t.prior, eta=eta).values)))


def eta_limit(source, x=None, psi: PsiMap | None = None, eta_ladder=None) -> LimitTrace:
    """Bayes actions under the capped reciprocal-prior loss along an eta ladder.

    The per-step action maximizes ``posterior / max(eta, prior)``; the trace
    target is the evidence maximizer, which must be unique. Actions and the
    target are table positions, which are input positions, so a value
    without prior mass keeps its place in the count. Discrepancy is the
    index distance to the target.
    """
    t = _table_from_source(source, x=x, psi=psi)
    est = rb_estimate(t)
    if est.tie:
        raise TieAtMaximizerError("evidence maximizer is not unique")
    eta_ladder = _checked_ladder(t.prior, eta_ladder)
    return _trace(eta_ladder, [_capped_action(t, eta) for eta in eta_ladder], est.index)


# grid -> (prior_density, likelihood_at_x, table, prior tail mass) of the last pair
# tabled on the grid; the entry refers to nothing that refers to the grid, so it
# goes with the ladder
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _grid_table(prior_density: Callable, likelihood_at_x: Callable, grid: Grid1D) -> EvidenceTable:
    """Evidence table of the discretized problem on one grid, built once per grid and pair.

    Each grid keeps the table of the last pair asked: a later call with the
    same two callables reads it, and warns about the prior's tail as the
    first call did; a call with another pair replaces it.
    """
    found = _TABLES.get(grid)
    if found is not None and found[0] is prior_density and found[1] is likelihood_at_x:
        _warn_tail(grid, found[3])
        return found[2]
    prior, joint = discretize_joint(prior_density, likelihood_at_x, grid)
    table = table_from_gridded(prior, joint)
    _TABLES[grid] = (prior_density, likelihood_at_x, table, prior.tail_mass)
    return table


def _checked_argmax(values: np.ndarray, what: str) -> int:
    """The first grid cell of the maximum; raises when the finite values are flat or the
    maximum's cells are not contiguous (a cell without prior mass, ratio ``-inf``, separates)."""
    hi, lo = float(np.max(values)), float(np.min(values, initial=math.inf, where=values > -math.inf))
    if hi - lo <= FLAT_TOL * max(hi, 1.0):
        raise SeparationViolatedError(f"{what} is flat across the grid")
    peaks = np.flatnonzero(values == hi)
    if len(peaks) > 1 and (np.diff(peaks) > 1).any():
        raise SeparationViolatedError(f"{what} has separated equal peaks")
    return int(peaks[0])


def _grid_ladder_trace(
    grids: Sequence[Grid1D], target: float | None, action_on: Callable[[Grid1D], float]
) -> LimitTrace:
    """Per-grid actions against ``target``, by default the finest grid's action."""
    actions = [action_on(grid) for grid in grids]
    target = actions[-1] if target is None else target
    return _trace([grid.cell_width for grid in grids], actions, float(target))


def lambda_limit(
    prior_density: Callable,
    likelihood_at_x: Callable,
    grids: Sequence[Grid1D],
    target: float | None = None,
) -> LimitTrace:
    """Bayes actions of the discretized problem along a grid ladder.

    Per grid, the loss cap is half the prior mass of the best evidence cell,
    which is positive, so the cap lies strictly between zero and that
    mass; the action is the Bayes cell's midpoint. ``target`` defaults to
    the finest grid's action when no analytic value is supplied.
    """

    def action_on(grid: Grid1D) -> float:
        t = _grid_table(prior_density, likelihood_at_x, grid)
        best = _checked_argmax(t.rb, "relative belief ratio")
        return float(t.labels[_capped_action(t, 0.5 * float(t.prior[best]))])

    return _grid_ladder_trace(grids, target, action_on)


def map_limit_contrast(
    prior_density: Callable,
    likelihood_at_x: Callable,
    grids: Sequence[Grid1D],
    target: float | None = None,
) -> LimitTrace:
    """Bayes actions under the plain cell-membership loss (posterior mode).

    The cell posteriors are read from the grid's evidence table, so a
    problem that :func:`lambda_limit` cannot table raises here too.
    """

    def action_on(grid: Grid1D) -> float:
        post = _grid_table(prior_density, likelihood_at_x, grid).posterior
        return float(grid.midpoints[_checked_argmax(post, "posterior cell mass")])

    return _grid_ladder_trace(grids, target, action_on)


def _region_mask(t: EvidenceTable, gamma: float) -> np.ndarray:
    """Mask over all grid cells of the sup-geq credible region of ``t``."""
    mask = np.zeros(len(t), dtype=bool)
    mask[credible_region(t, gamma, "sup-geq").members] = True
    return mask


def region_limit(
    prior_density: Callable,
    likelihood_at_x: Callable,
    gamma: float,
    grids: Sequence[Grid1D],
    refine_factor: int = 16,
) -> LimitTrace:
    """Credible regions along a grid ladder against a finer reference.

    The reference region lives on a ``refine_factor`` times finer grid than
    the finest ladder step; discrepancy is the reference-posterior mass of
    the symmetric difference after expanding ladder cells to reference
    cells. Each region, the target's included, is a sorted array of input
    positions, which are the grid's cells. A reference grid of more than
    ``CELL_CAP`` cells raises :class:`TooManyCellsError` before any
    discretization.
    """
    ref_grid = capped(refine(grids[-1], refine_factor), "the reference grid")
    for g in grids:
        if ref_grid.n_cells % g.n_cells or g.lo != ref_grid.lo or g.hi != ref_grid.hi:
            raise ValidationError("ladder grids must nest into the reference grid")
    t_ref = _grid_table(prior_density, likelihood_at_x, ref_grid)
    ref_mask = _region_mask(t_ref, gamma)

    regions, discrepancies = [], []
    for grid in grids:
        cells = _region_mask(_grid_table(prior_density, likelihood_at_x, grid), gamma)
        mask = np.repeat(cells, ref_grid.n_cells // grid.n_cells)
        discrepancies.append(float(fsums(t_ref.posterior[mask ^ ref_mask])))
        regions.append(np.flatnonzero(cells))
    return LimitTrace(
        parameter_values=tuple(grid.cell_width for grid in grids),
        actions_or_regions=tuple(regions),
        target=np.flatnonzero(ref_mask),
        discrepancies=tuple(discrepancies),
    )


@dataclass(frozen=True, eq=False)
class SandwichReport:
    """Lowest-posterior-loss regions squeezed between credible regions.

    Each region is a sorted array of input positions of the table.
    """

    gamma_requested: float
    gamma_used: float
    gamma_next: float | None
    eta_values: tuple
    lower_region: np.ndarray
    upper_region: np.ndarray
    d_regions: tuple
    lower_holds: tuple
    upper_holds: tuple


def lpl_sandwich(t: EvidenceTable, gamma: float, eta_ladder=None) -> SandwichReport:
    """Check the region sandwich on one finite (or truncated) evidence table.

    ``gamma_used`` is the exact content of the ``sup-geq`` region at
    ``gamma``, and the lower credible region is ``credible_region(t,
    gamma_used)``. That is the region at ``gamma`` itself when some level's
    content reaches ``gamma``; when none does (``gamma`` 1, say, and a table
    whose content rounds below 1), it is the least region with the whole
    table's content. The upper one is the region at the next float above
    ``gamma_used``, with ``gamma_next`` its exact content, or ``None`` (and
    the lower region again) when that content is not above ``gamma_used``:
    the region adds no value, or its added mass rounds away. The lowest-posterior-loss region at
    ``gamma_used`` under the capped loss must contain the lower region and
    sit inside the upper one once the cap is small; below the least prior
    mass the capped loss is the ``rb`` loss, and it is the lower region.
    """
    lower = credible_region(t, gamma)
    gamma_used = lower.posterior_content
    if gamma_used < gamma:  # no level reaches gamma: drop the values whose mass rounds away
        lower = credible_region(t, gamma_used)
    upper = _superlevel_region(t.rb, t.descending, t.posterior, math.nextafter(gamma_used, math.inf))
    gamma_next = upper.posterior_content if upper.posterior_content > gamma_used else None
    lower, upper = lower.members, (lower if gamma_next is None else upper).members

    eta_ladder = _checked_ladder(t.prior, eta_ladder)
    d_regions, lower_holds, upper_holds = [], [], []
    for eta in eta_ladder:
        loss = make_loss("rb-eta", t.prior, eta=eta)
        d = lpl_region(loss, t.posterior, gamma_used).members
        d_regions.append(d)
        lower_holds.append(bool(np.isin(lower, d, assume_unique=True).all()))
        upper_holds.append(bool(np.isin(d, upper, assume_unique=True).all()))
    return SandwichReport(
        gamma_requested=gamma,
        gamma_used=gamma_used,
        gamma_next=gamma_next,
        eta_values=eta_ladder,
        lower_region=lower,
        upper_region=upper,
        d_regions=tuple(d_regions),
        lower_holds=tuple(lower_holds),
        upper_holds=tuple(upper_holds),
    )


def sandwich_double_limit(
    prior_density: Callable,
    likelihood_at_x: Callable,
    gamma: float,
    grids: Sequence[Grid1D],
    eta_steps: int = 8,
) -> list[tuple[float, SandwichReport]]:
    """Run the sandwich per ladder grid (outer cells, inner caps)."""
    out = []
    for grid in grids:
        t = _grid_table(prior_density, likelihood_at_x, grid)
        out.append((grid.cell_width, lpl_sandwich(t, gamma, default_eta_ladder(t.prior, eta_steps))))
    return out


@dataclass(frozen=True, eq=False)
class InvarianceReport:
    """Cell-level evidence argmax versus density-mode argmax under a
    monotone change of variable applied to the same grid."""

    rb_index: int
    rb_index_image: int
    rb_max_abs_diff: float
    map_index: int
    map_index_image: int
    map_shift_cells: int


def invariance_demo(
    prior_cdf: Callable,
    post_cdf: Callable,
    prior_cdf_image: Callable,
    post_cdf_image: Callable,
    transform: Callable,
    grid: Grid1D,
) -> InvarianceReport:
    """Compare evidence and density-mode argmax cells across a transform.

    The image cells are the transform of the grid cells (non-uniform
    widths). Masses on the image scale are computed from the image-scale
    CDFs, independently of the original scale, so equality of the ratio
    tables is a genuine check of transport, not bookkeeping. Masses are
    normalized as by :func:`discretize`: a CDF flat on the grid raises.
    """
    edges = grid.edges
    image_edges = np.asarray(transform(edges), dtype=float)
    if np.any(np.diff(image_edges) <= 0):
        raise ValidationError("transform must be strictly increasing on the grid")

    def cell_masses(cdf: Callable, e: np.ndarray) -> np.ndarray:
        return _normalize(grid, masses_from_cdf(cdf, e)).masses

    prior_m, post_m = cell_masses(prior_cdf, edges), cell_masses(post_cdf, edges)
    prior_mi = cell_masses(prior_cdf_image, image_edges)
    post_mi = cell_masses(post_cdf_image, image_edges)

    t = rb_table(prior_m, post_m)
    ti = rb_table(prior_mi, post_mi)
    both = (t.prior > 0.0) & (ti.prior > 0.0)
    diffs = np.abs(t.rb[both] - ti.rb[both])

    # density-level mode: mass over cell width (uniform widths originally)
    map_idx = int(np.argmax(post_m))
    image_widths = np.diff(image_edges)
    map_idx_image = int(np.argmax(post_mi / image_widths))

    return InvarianceReport(
        rb_index=rb_estimate(t).index,
        rb_index_image=rb_estimate(ti).index,
        rb_max_abs_diff=float(diffs.max()) if len(diffs) else math.inf,
        map_index=map_idx,
        map_index_image=map_idx_image,
        map_shift_cells=abs(map_idx_image - map_idx),
    )


def gaussian_location_likelihood(x: float, sigma2: float = 1.0) -> Callable:
    """Likelihood of one Gaussian observation as a function of its mean."""
    if sigma2 <= 0:
        raise ValidationError("sigma2 must be > 0")

    def lik(psi):
        psi = np.asarray(psi, dtype=float)
        return np.exp(-0.5 * (x - psi) ** 2 / sigma2)

    return lik


def gaussian_log_location_likelihood(x: float, sigma2: float = 1.0) -> Callable:
    """Same observation model on the exp scale (mean is log of the input)."""
    if sigma2 <= 0:
        raise ValidationError("sigma2 must be > 0")

    def lik(tau):
        tau = np.asarray(tau, dtype=float)
        out = np.zeros_like(tau)
        ok = tau > 0
        out[ok] = np.exp(-0.5 * (x - np.log(tau[ok])) ** 2 / sigma2)
        return out

    return lik
