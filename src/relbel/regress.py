"""Conjugate Gaussian linear regression with a centered spherical prior.

With known noise variance and coefficient prior ``N_k(0, tau2 I)`` the
posterior is Gaussian in closed form. For a linear functional ``w'beta``
both the prior and posterior are 1-D Gaussians, so the posterior-mode
estimate, the evidence-maximizing estimate (argmax of the posterior-to-
prior density ratio), and their prediction analogues all have closed
forms. :func:`rb_grid_check` verifies the evidence estimate against a
cell-mass argmax on a grid, independent of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadRangeError,
    GridTooCoarseError,
    NearSingularMagnifierError,
    NumericalGuardError,
    RankDeficientError,
    ValidationError,
    ZeroDirectionError,
)
from .evidence import rb_estimate, table_from_gridded
from .grids import Grid1D, normal_masses

# below this relative prior-to-posterior variance gap the magnification
# factor is all cancellation noise
MAGNIFIER_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class RegressionSpec:
    design: np.ndarray
    response: np.ndarray
    sigma2: float
    tau2: float

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.design, dtype=float))
        y = np.asarray(self.response, dtype=float).ravel()
        object.__setattr__(self, "design", X)
        object.__setattr__(self, "response", y)
        if not (0 < self.sigma2 < math.inf and 0 < self.tau2 < math.inf):
            raise ValidationError("sigma2 and tau2 must be finite and > 0")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValidationError("design and response must be finite")
        n, k = X.shape
        if y.shape != (n,):
            raise ValidationError(f"response length {y.shape} != {n} rows")
        if n < k:
            raise RankDeficientError(f"need at least {k} rows for {k} columns")
        sv = np.linalg.svd(X, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:
            raise RankDeficientError(
                f"smallest singular value {sv[-1]:.3e} below 1e-10 of largest {sv[0]:.3e}"
            )

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def k(self) -> int:
        return self.design.shape[1]


@dataclass(frozen=True, eq=False)
class PosteriorGaussian:
    mean: np.ndarray
    covariance: np.ndarray
    mle: np.ndarray


@dataclass(frozen=True, eq=False)
class FunctionalReport:
    """Closed-form inference for the functional w'beta and its prediction."""

    w: np.ndarray
    psi_map: float
    psi_rb: float
    sigma2_psi: float
    sigma2_psi_post: float
    z_map: float
    z_rb: float
    sigma2_z: float
    sigma2_z_post: float


def functional_report_to_dict(rep: FunctionalReport) -> dict:
    return {
        "w": rep.w.tolist(),
        "psi_map": rep.psi_map,
        "psi_rb": rep.psi_rb,
        "sigma2_psi": rep.sigma2_psi,
        "sigma2_psi_post": rep.sigma2_psi_post,
        "z_map": rep.z_map,
        "z_rb": rep.z_rb,
        "sigma2_z": rep.sigma2_z,
        "sigma2_z_post": rep.sigma2_z_post,
    }


def functional_report_from_dict(doc: dict) -> FunctionalReport:
    return FunctionalReport(
        w=np.asarray(doc["w"], dtype=float),
        psi_map=float(doc["psi_map"]),
        psi_rb=float(doc["psi_rb"]),
        sigma2_psi=float(doc["sigma2_psi"]),
        sigma2_psi_post=float(doc["sigma2_psi_post"]),
        z_map=float(doc["z_map"]),
        z_rb=float(doc["z_rb"]),
        sigma2_z=float(doc["sigma2_z"]),
        sigma2_z_post=float(doc["sigma2_z_post"]),
    )


def posterior_params(spec: RegressionSpec) -> PosteriorGaussian:
    """Posterior mean and covariance of the coefficients, plus the MLE."""
    X, y = spec.design, spec.response
    XtX = X.T @ X
    Xty = X.T @ y
    mle = np.linalg.solve(XtX, Xty)
    precision = np.eye(spec.k) / spec.tau2 + XtX / spec.sigma2
    covariance = np.linalg.solve(precision, np.eye(spec.k))
    covariance = 0.5 * (covariance + covariance.T)
    mean = np.linalg.solve(precision, Xty / spec.sigma2)
    return PosteriorGaussian(mean=mean, covariance=covariance, mle=mle)


def functional_inference(spec: RegressionSpec, w) -> FunctionalReport:
    """Estimate and predict the linear functional at direction ``w``.

    The evidence estimate magnifies the posterior mode by
    ``1 / (1 - post_var / prior_var)``; the prediction analogue uses the
    noise-inflated variances and satisfies
    ``z_rb = (1 + sigma2 / (tau2 w'w)) psi_rb`` exactly.
    """
    w = np.asarray(w, dtype=float).ravel()
    if w.shape != (spec.k,):
        raise ValidationError(f"w length {w.shape} != {spec.k} columns")
    if not np.all(np.isfinite(w)):
        raise ValidationError("direction w must be finite")
    if not np.any(w != 0.0):
        raise ZeroDirectionError("direction w must be nonzero")
    # values past the float range are caught below, so numpy need not warn
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        s2_psi = float(spec.tau2 * (w @ w))
        if not 0.0 < s2_psi < math.inf:
            raise ValidationError(
                f"prior variance tau2 * w'w = {s2_psi!r} of the functional is out of float range"
            )
        post = posterior_params(spec)
        psi_map = float(w @ post.mean)
        s2_psi_post = float(w @ post.covariance @ w)
        psi_rb = psi_map / _magnifier_gap(s2_psi_post, s2_psi)
        s2_z = spec.sigma2 + s2_psi
        s2_z_post = spec.sigma2 + s2_psi_post
        z_rb = psi_map / _magnifier_gap(s2_z_post, s2_z)
    if not all(math.isfinite(v) for v in (psi_map, psi_rb, s2_psi_post, s2_z, s2_z_post, z_rb)):
        raise NumericalGuardError("functional inference overflowed the float range")
    return FunctionalReport(
        w=w,
        psi_map=psi_map,
        psi_rb=psi_rb,
        sigma2_psi=s2_psi,
        sigma2_psi_post=s2_psi_post,
        z_map=psi_map,
        z_rb=z_rb,
        sigma2_z=s2_z,
        sigma2_z_post=s2_z_post,
    )


def _magnifier_gap(post_var: float, prior_var: float) -> float:
    gap = 1.0 - post_var / prior_var
    if gap <= MAGNIFIER_FLOOR:
        raise NearSingularMagnifierError(
            f"posterior variance {post_var!r} too close to prior variance {prior_var!r}"
        )
    return gap


@dataclass(frozen=True, eq=False)
class GridCheckReport:
    closed_form: float
    grid_argmax: float
    gap: float


def rb_grid_check(spec: RegressionSpec, w, grid: Grid1D) -> GridCheckReport:
    """Check the closed-form evidence estimate against a grid argmax.

    Discretizes the exact Gaussian prior and posterior of the functional by
    CDF differences on ``grid`` and locates the cell maximizing the
    posterior-to-prior mass ratio. The grid must cover six prior standard
    deviations on both sides; a gap beyond two cell widths trips
    :class:`GridTooCoarseError`.
    """
    report = functional_inference(spec, w)
    sd = math.sqrt(report.sigma2_psi)
    if grid.lo > -6.0 * sd or grid.hi < 6.0 * sd:
        raise BadRangeError(
            f"grid [{grid.lo}, {grid.hi}) must cover +-6 prior sd = +-{6 * sd:.4g}"
        )
    table = table_from_gridded(
        normal_masses(0.0, report.sigma2_psi, grid),
        normal_masses(report.psi_map, report.sigma2_psi_post, grid),
    )
    best = rb_estimate(table)
    grid_argmax = float(table.labels[best.index])
    gap = abs(report.psi_rb - grid_argmax)
    if gap > 2.0 * grid.cell_width:
        raise GridTooCoarseError(
            f"grid argmax {grid_argmax} misses closed form {report.psi_rb} "
            f"by {gap:.3g} > 2 cells"
        )
    return GridCheckReport(closed_form=report.psi_rb, grid_argmax=grid_argmax, gap=gap)
