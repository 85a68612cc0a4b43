"""Regular 1-D discretizations: cells and their masses.

A grid splits ``[lo, hi)`` into equal-width half-open cells of finite
total width; a density is turned into cell masses by composite midpoint
quadrature (a prior and a joint sharing their nodes in
:func:`discretize_joint`), or by exact differences of a caller's CDF
(:func:`masses_from_cdf`). Mass lost outside the range is recorded as
``tail_mass``, never hidden.

The built-in density families are pdfs only, closed forms written so that
every value has the bits of the matching frozen ``scipy.stats`` pdf; the
module does not import ``scipy.stats``, whose import costs more than the rest
of a CLI run. ``scipy.special`` itself is imported only where a special
function runs: by a beta family and by :func:`normal_masses`. The finite
commands, and gridded runs on normal, lognormal or uniform priors, never
load scipy.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ._sums import fsums
from .errors import (
    AllZeroMassError,
    BadRangeError,
    DensityOverflowError,
    NegativeDensityError,
    TooManyCellsError,
    ValidationError,
    ZeroCellsError,
)

TAIL_WARN = 0.01
# midpoint quadrature nodes per cell
NODES_PER_CELL = 8
_PACKAGE = os.path.dirname(__file__) + os.sep  # the relbel source directory
# Most cells any ladder, reference or cross-check grid may have: 16 times the
# 65,536-cell reference of a 512-cell, 4-step region run with a 16-fold
# refinement, and small enough that quadrature on it takes a few hundred MB,
# not all memory.
CELL_CAP = 2**20
# sqrt(2 pi) as scipy.stats computes it for the normal pdf
_SQRT_2PI = np.sqrt(2 * np.pi)


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Equal-width partition of ``[lo, hi)`` into ``n_cells`` half-open cells.

    ``edges`` and ``midpoints`` are computed on first use and kept as
    read-only arrays: every table, region and ladder on the grid reads the
    same two arrays.
    """

    lo: float
    hi: float
    n_cells: int

    @property
    def cell_width(self) -> float:
        return (self.hi - self.lo) / self.n_cells

    # cached_property writes the instance __dict__, which the frozen dataclass leaves open
    @cached_property
    def edges(self) -> np.ndarray:
        edges = self.lo + (self.hi - self.lo) * np.arange(self.n_cells + 1) / self.n_cells
        edges.setflags(write=False)
        return edges

    @cached_property
    def midpoints(self) -> np.ndarray:
        midpoints = self.lo + (np.arange(self.n_cells) + 0.5) * self.cell_width
        midpoints.setflags(write=False)
        return midpoints


@dataclass(frozen=True, eq=False)
class GriddedDistribution:
    """Cell masses for one density on one grid, plus the discarded tail."""

    grid: Grid1D
    masses: np.ndarray
    tail_mass: float


def build_grid(lo: float, hi: float, n_cells: int) -> Grid1D:
    # the width is not finite if lo or hi is not, or if it overflows
    width = float(hi) - float(lo)
    if not math.isfinite(width) or lo >= hi:
        raise BadRangeError(f"need lo < hi and a finite width hi - lo, got [{lo}, {hi}]")
    if n_cells < 1:
        raise ZeroCellsError(f"n_cells must be >= 1, got {n_cells}")
    # the edges offset lo by the width times each cell index; a count too large to
    # be a float is far past the cell cap, which rejects it before any edge is laid
    if n_cells < 2**1023 and not math.isfinite(width * n_cells):
        raise BadRangeError(f"the edges of [{lo}, {hi}) in {n_cells} cells pass the float range")
    return Grid1D(float(lo), float(hi), int(n_cells))


def capped(grid: Grid1D, what: str) -> Grid1D:
    """``grid`` itself, or :class:`TooManyCellsError` past ``CELL_CAP`` cells."""
    if grid.n_cells > CELL_CAP:
        raise TooManyCellsError(
            f"{what} would have {grid.n_cells} cells, more than the cap {CELL_CAP}"
        )
    return grid


def refine(grid: Grid1D, factor: int) -> Grid1D:
    """Same range, ``factor`` times as many cells; old cells nest exactly."""
    if int(factor) != factor or factor < 2:
        raise ValidationError(f"refinement factor must be an integer >= 2, got {factor}")
    return build_grid(grid.lo, grid.hi, grid.n_cells * int(factor))


def discretize(density: Callable[[np.ndarray], np.ndarray], grid: Grid1D) -> GriddedDistribution:
    """Cell masses by composite midpoint quadrature of ``density``.

    ``density`` must accept numpy arrays; it is evaluated once, at
    ``NODES_PER_CELL`` midpoint nodes per cell. ``tail_mass`` is 1 minus the
    pre-normalization total, and a warning fires above ``TAIL_WARN``.
    """
    return _cell_masses(grid, _at_nodes(density, _nodes(grid), grid), warn_tail=True)


def discretize_joint(
    prior_density: Callable, likelihood_at_x: Callable, grid: Grid1D
) -> tuple[GriddedDistribution, GriddedDistribution]:
    """Prior and joint (prior times likelihood) cell masses at one set of nodes.

    Each callable is evaluated once, on the node array of :func:`discretize`,
    and the joint multiplies the two value arrays, so the masses are bitwise
    ``discretize(prior_density)`` and ``discretize(prior_density * likelihood_at_x)``.
    Only the prior warns about its tail: the joint integrates to m(x), not 1.
    """
    nodes = _nodes(grid)
    prior_values = _at_nodes(prior_density, nodes, grid)
    prior = _cell_masses(grid, prior_values, warn_tail=True)
    joint_values = prior_values * _at_nodes(likelihood_at_x, nodes, grid)
    return prior, _cell_masses(grid, joint_values, warn_tail=False)


def _nodes(grid: Grid1D) -> np.ndarray:
    """The midpoint quadrature nodes, one row of ``NODES_PER_CELL`` per cell."""
    offsets = (np.arange(NODES_PER_CELL) + 0.5) * (grid.cell_width / NODES_PER_CELL)
    return grid.edges[:-1, None] + offsets[None, :]


def _at_nodes(fn: Callable, nodes: np.ndarray, grid: Grid1D) -> np.ndarray:
    """``fn`` at the nodes as floats; an ``OverflowError`` is a numerical guard.

    An intermediate that overflows to inf is taken at its limit (exp(-inf) is
    0, so a far node's density is 0); an inf value fails :func:`_normalize`.
    """
    try:
        with np.errstate(over="ignore"):
            return np.asarray(fn(nodes), dtype=float)
    except OverflowError:
        # a beta pdf with alpha < 1 overflows at subnormal points, as scipy's does
        raise DensityOverflowError(
            f"density overflows the float range on the grid [{grid.lo}, {grid.hi})"
        ) from None


def _cell_masses(grid: Grid1D, values: np.ndarray, warn_tail: bool) -> GriddedDistribution:
    """Normalized cell masses from the density values at the nodes of ``grid``."""
    if np.any(values < 0):
        raise NegativeDensityError("density evaluated negative on the grid")
    with np.errstate(over="ignore"):
        means = values.sum(axis=1) / NODES_PER_CELL  # the bits of values.mean(axis=1)
    # where finite node values total past the float range, total their eighths
    # instead: dividing values that large by NODES_PER_CELL is exact
    far = np.isinf(means)
    means[far] = (values[far] / NODES_PER_CELL).sum(axis=1)
    return _normalize(grid, means * grid.cell_width, warn_tail)


def _normalize(grid: Grid1D, raw: np.ndarray, warn_tail: bool) -> GriddedDistribution:
    # NaN passes every sign and total check below, so reject it first
    if not np.all(np.isfinite(raw)):
        raise ValidationError("density is not finite on the grid")
    total = float(fsums(raw))
    if total <= 0.0:
        raise AllZeroMassError("density places no mass on the grid range")
    tail = 1.0 - total
    if warn_tail:
        _warn_tail(grid, tail)
    masses = raw / total
    masses.setflags(write=False)
    return GriddedDistribution(grid=grid, masses=masses, tail_mass=tail)


def _warn_tail(grid: Grid1D, tail: float) -> None:
    """Warn that ``tail`` of a distribution was cut off by ``grid``, above ``TAIL_WARN``."""
    if tail > TAIL_WARN:
        # the warning names the first caller outside this package, however deep the call
        level, frame = 1, sys._getframe()
        while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE):
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"{tail:.3g} of the distribution lies outside [{grid.lo}, {grid.hi}); "
            "masses were renormalized",
            stacklevel=level,
        )


def normal_masses(mu: float, sigma2: float, grid: Grid1D) -> GriddedDistribution:
    """Gaussian cell masses accurate in both tails.

    Plain CDF differences lose all digits past a few standard deviations
    above the mean (values round to 1); using the survival function for
    cells right of the mean keeps every cell mass correct to rounding.
    Each side takes ``ndtr`` only over its own edges: midpoints ascend, so
    the cells with midpoint at or below ``mu`` are the first ``k``, and
    the two sides share only edge ``k``.
    """
    from scipy.special import ndtr

    if sigma2 <= 0:
        raise ValidationError("sigma2 must be > 0")
    z = (grid.edges - mu) / math.sqrt(sigma2)
    k = int(np.count_nonzero(grid.midpoints <= mu))
    raw = np.concatenate((np.diff(ndtr(z[: k + 1])), -np.diff(ndtr(-z[k:]))))
    return _normalize(grid, np.clip(raw, 0.0, None), warn_tail=False)


def masses_from_cdf(cdf: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> np.ndarray:
    """Raw (unnormalized) masses of arbitrary consecutive cells ``[e_i, e_{i+1})``."""
    vals = np.asarray(cdf(np.asarray(edges, dtype=float)), dtype=float)
    # NaN passes the sign check below, so reject it first
    if not np.all(np.isfinite(vals)):
        raise ValidationError("CDF is not finite on the given edges")
    raw = np.diff(vals)
    if np.any(raw < -1e-12):
        raise NegativeDensityError("CDF is decreasing on the given edges")
    return np.clip(raw, 0.0, None)


# --- built-in density families ------------------------------------------------


@dataclass(frozen=True, eq=False)
class DensityFamily:
    """A named 1-D density with a vectorized pdf."""

    name: str
    pdf: Callable[[np.ndarray], np.ndarray]


_FAMILY_PARAMS = {
    "normal": ("mu", "sigma2"),
    "beta": ("alpha", "beta"),
    "uniform": ("a", "b"),
    "lognormal": ("mu", "sigma2"),
}


def _pdf_on(z, lo: float, hi: float, inner) -> np.ndarray:
    """``inner`` on the closed support ``[lo, hi]`` of ``z``, 0 outside it.

    NaN fails both comparisons, so it keeps ``inner``, which is NaN there.
    """
    return np.where((z < lo) | (z > hi), 0.0, inner)[()]


def family(name: str, **params: float) -> DensityFamily:
    """Built-in families: normal(mu, sigma2), beta(alpha, beta),
    uniform(a, b), lognormal(mu, sigma2).

    Each pdf takes arrays and returns the bits of the pdf of the frozen
    ``scipy.stats`` distribution with the same parameters (``norm``,
    ``beta``, ``uniform``, ``lognorm``): the same standardization, the same
    ``scipy.special`` kernels, 0 beyond the support, and NaN for NaN input.
    A parameter the family does not take is an error, and so is a lognormal
    ``mu`` whose scale ``exp(mu)`` is not a positive finite float.
    """
    takes = _FAMILY_PARAMS.get(name) if isinstance(name, str) else None
    if takes is None:
        raise ValidationError(f"unknown density family {name!r}")
    unknown = sorted(params.keys() - set(takes))
    if unknown:
        raise ValidationError(f"{name} takes {', '.join(takes)}, not {unknown[0]!r}")
    if name == "normal":
        mu, sigma2 = params.get("mu", 0.0), params.get("sigma2", 1.0)
        if sigma2 <= 0:
            raise ValidationError("normal needs sigma2 > 0")
        sd = math.sqrt(sigma2)

        def pdf(x):
            z = (np.asarray(x, dtype=float) - mu) / sd
            return np.exp(-(z * z) / 2.0) / _SQRT_2PI / sd
    elif name == "beta":
        a, b = params.get("alpha", 1.0), params.get("beta", 1.0)
        if a <= 0 or b <= 0:
            raise ValidationError("beta needs alpha > 0 and beta > 0")
        from scipy.special._ufuncs import _beta_pdf  # the kernel of scipy.stats.beta.pdf

        def pdf(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(over="ignore"):
                return _pdf_on(x, 0.0, 1.0, _beta_pdf(x, a, b))
    elif name == "uniform":
        a, b = params.get("a", 0.0), params.get("b", 1.0)
        if a >= b:
            raise BadRangeError("uniform needs a < b")
        width = b - a

        def pdf(x):
            z = (np.asarray(x, dtype=float) - a) / width
            return _pdf_on(z, 0.0, 1.0, np.where(np.isnan(z), np.nan, 1.0 / width))
    else:  # lognormal
        mu, sigma2 = params.get("mu", 0.0), params.get("sigma2", 1.0)
        if sigma2 <= 0:
            raise ValidationError("lognormal needs sigma2 > 0")
        s = math.sqrt(sigma2)
        try:  # math.exp, not np.exp: the two differ by an ulp for some mu
            scale = math.exp(mu)
        except OverflowError:
            scale = math.inf
        if not 0.0 < scale < math.inf:
            raise ValidationError(f"lognormal needs a positive finite exp(mu), got mu = {mu}")

        def pdf(x):
            z = np.asarray(x, dtype=float) / scale
            with np.errstate(divide="ignore", invalid="ignore"):
                log_z = np.log(z)
                log_pdf = -(log_z * log_z) / (2 * (s * s)) - np.log(s * z * _SQRT_2PI)
            # at z = 0 the log pdf above is NaN; scipy takes it as -inf there
            return np.where(z <= 0.0, 0.0, np.exp(log_pdf) / scale)[()]
    return DensityFamily(name=name, pdf=pdf)
