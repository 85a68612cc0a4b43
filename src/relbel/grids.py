"""Regular 1-D discretizations: cells and their masses.

A grid splits ``[lo, hi)`` into equal-width half-open cells; a density is
turned into cell masses by composite midpoint quadrature, or by exact CDF
differences (:func:`masses_from_cdf`). Mass lost outside the range is
recorded as ``tail_mass``, never hidden.

The built-in density families are closed forms on ``scipy.special`` ufuncs,
written so that every pdf and cdf value has the bits of the matching frozen
``scipy.stats`` distribution; the module does not import ``scipy.stats``,
whose import costs more than the rest of a CLI run. ``scipy.special`` itself
is imported only where a special function runs: by a beta family, by the
normal and lognormal cdfs, and by :func:`normal_masses`. The finite commands,
and gridded runs that only evaluate normal, lognormal or uniform pdfs, never
load scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
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
# Most cells any ladder, reference or cross-check grid may have: 16 times the
# 65,536-cell reference of a 512-cell, 4-step region run with a 16-fold
# refinement, and small enough that quadrature on it takes a few hundred MB,
# not all memory.
CELL_CAP = 2**20
# sqrt(2 pi) as scipy.stats computes it for the normal pdf
_SQRT_2PI = np.sqrt(2 * np.pi)


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Equal-width partition of ``[lo, hi)`` into ``n_cells`` half-open cells."""

    lo: float
    hi: float
    n_cells: int

    @property
    def cell_width(self) -> float:
        return (self.hi - self.lo) / self.n_cells

    @property
    def edges(self) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * np.arange(self.n_cells + 1) / self.n_cells

    @property
    def midpoints(self) -> np.ndarray:
        return self.lo + (np.arange(self.n_cells) + 0.5) * self.cell_width


@dataclass(frozen=True, eq=False)
class GriddedDistribution:
    """Cell masses for one density on one grid, plus the discarded tail."""

    grid: Grid1D
    masses: np.ndarray
    tail_mass: float


def build_grid(lo: float, hi: float, n_cells: int) -> Grid1D:
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise BadRangeError(f"need finite lo < hi, got [{lo}, {hi}]")
    if n_cells < 1:
        raise ZeroCellsError(f"n_cells must be >= 1, got {n_cells}")
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
    return Grid1D(grid.lo, grid.hi, grid.n_cells * int(factor))


def discretize(
    density: Callable[[np.ndarray], np.ndarray],
    grid: Grid1D,
    quadrature_points: int = 8,
    warn_tail: float | None = TAIL_WARN,
) -> GriddedDistribution:
    """Cell masses by composite midpoint quadrature of ``density``.

    ``density`` must accept numpy arrays. ``tail_mass`` is 1 minus the
    pre-normalization total, which is the discarded support only when the
    density is normalized; pass ``warn_tail=None`` for unnormalized
    integrands.
    """
    if not (float(quadrature_points).is_integer() and quadrature_points >= 1):
        raise ValidationError(
            f"quadrature_points must be an integer >= 1, got {quadrature_points}"
        )
    quadrature_points = int(quadrature_points)
    w = grid.cell_width
    offsets = (np.arange(quadrature_points) + 0.5) * (w / quadrature_points)
    points = grid.edges[:-1, None] + offsets[None, :]
    try:
        values = np.asarray(density(points), dtype=float)
    except OverflowError:
        # a beta pdf with alpha < 1 overflows at subnormal points, as scipy's does
        raise DensityOverflowError(
            f"density overflows the float range on the grid [{grid.lo}, {grid.hi})"
        ) from None
    if np.any(values < 0):
        raise NegativeDensityError("density evaluated negative on the grid")
    raw = values.mean(axis=1) * w
    return _normalize(grid, raw, warn_tail)


def _normalize(grid: Grid1D, raw: np.ndarray, warn_tail: float | None) -> GriddedDistribution:
    # NaN passes every sign and total check below, so reject it first
    if not np.all(np.isfinite(raw)):
        raise ValidationError("density is not finite on the grid")
    total = float(fsums(raw))
    if total <= 0.0:
        raise AllZeroMassError("density places no mass on the grid range")
    tail = 1.0 - total
    if warn_tail is not None and tail > warn_tail:
        warnings.warn(
            f"{tail:.3g} of the distribution lies outside [{grid.lo}, {grid.hi}); "
            "masses were renormalized",
            stacklevel=3,
        )
    masses = raw / total
    masses.setflags(write=False)
    return GriddedDistribution(grid=grid, masses=masses, tail_mass=tail)


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
    return _normalize(grid, np.clip(raw, 0.0, None), warn_tail=None)


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
    """A named 1-D density with vectorized pdf and cdf."""

    name: str
    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]


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


def _cdf_on(z, lo: float, hi: float, inner) -> np.ndarray:
    """``inner`` inside the open support ``(lo, hi)`` of ``z``, 0 or 1 beyond it."""
    return np.where(z <= lo, 0.0, np.where(z >= hi, 1.0, inner))[()]


def family(name: str, **params: float) -> DensityFamily:
    """Built-in families: normal(mu, sigma2), beta(alpha, beta),
    uniform(a, b), lognormal(mu, sigma2).

    Each pdf and cdf takes arrays and returns the bits of the frozen
    ``scipy.stats`` distribution with the same parameters (``norm``,
    ``beta``, ``uniform``, ``lognorm``): the same standardization, the same
    ``scipy.special`` kernels, 0 (and 1 for a cdf) beyond the support, and
    NaN for NaN input. A parameter the family does not take is an error.
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

        def cdf(x):
            from scipy.special import ndtr

            return ndtr((np.asarray(x, dtype=float) - mu) / sd)
    elif name == "beta":
        a, b = params.get("alpha", 1.0), params.get("beta", 1.0)
        if a <= 0 or b <= 0:
            raise ValidationError("beta needs alpha > 0 and beta > 0")
        from scipy.special import betainc
        from scipy.special._ufuncs import _beta_pdf  # the kernel of scipy.stats.beta.pdf

        def pdf(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(over="ignore"):
                return _pdf_on(x, 0.0, 1.0, _beta_pdf(x, a, b))

        def cdf(x):
            x = np.asarray(x, dtype=float)
            return _cdf_on(x, 0.0, 1.0, betainc(a, b, x))
    elif name == "uniform":
        a, b = params.get("a", 0.0), params.get("b", 1.0)
        if a >= b:
            raise BadRangeError("uniform needs a < b")
        width = b - a

        def pdf(x):
            z = (np.asarray(x, dtype=float) - a) / width
            return _pdf_on(z, 0.0, 1.0, np.where(np.isnan(z), np.nan, 1.0 / width))

        def cdf(x):
            z = (np.asarray(x, dtype=float) - a) / width
            return _cdf_on(z, 0.0, 1.0, z)
    else:  # lognormal
        mu, sigma2 = params.get("mu", 0.0), params.get("sigma2", 1.0)
        if sigma2 <= 0:
            raise ValidationError("lognormal needs sigma2 > 0")
        # math.exp, not np.exp: the two differ by an ulp for some mu
        s, scale = math.sqrt(sigma2), math.exp(mu)

        def pdf(x):
            z = np.asarray(x, dtype=float) / scale
            with np.errstate(divide="ignore", invalid="ignore"):
                log_z = np.log(z)
                log_pdf = -(log_z * log_z) / (2 * (s * s)) - np.log(s * z * _SQRT_2PI)
            # at z = 0 the log pdf above is NaN; scipy takes it as -inf there
            return np.where(z <= 0.0, 0.0, np.exp(log_pdf) / scale)[()]

        def cdf(x):
            from scipy.special import ndtr

            z = np.asarray(x, dtype=float) / scale
            with np.errstate(divide="ignore", invalid="ignore"):
                return _cdf_on(z, 0.0, math.inf, ndtr(np.log(z) / s))
    return DensityFamily(name=name, pdf=pdf, cdf=cdf)
