import math

import numpy as np
import pytest

from relbel.errors import (
    BadRangeError,
    NearSingularMagnifierError,
    RankDeficientError,
    TooManyCellsError,
    ZeroDirectionError,
)
from relbel.grids import CELL_CAP, build_grid
from relbel.regress import (
    RegressionSpec,
    functional_inference,
    posterior_params,
    rb_grid_check,
)


def random_spec(rng, n=None, k=None, sigma2=None, tau2=None):
    n = n or int(rng.integers(4, 12))
    k = k or int(rng.integers(1, min(4, n) + 1))
    sigma2 = sigma2 or float(rng.uniform(0.25, 4.0))
    tau2 = tau2 or float(rng.uniform(0.25, 4.0))
    X = rng.normal(size=(n, k))
    beta_true = rng.normal(scale=math.sqrt(tau2), size=k)
    y = X @ beta_true + rng.normal(scale=math.sqrt(sigma2), size=n)
    return RegressionSpec(design=X, response=y, sigma2=sigma2, tau2=tau2)


class TestPosteriorParams:
    def test_flat_prior_recovers_mle(self, rng):
        spec = random_spec(rng)
        wide = RegressionSpec(spec.design, spec.response, spec.sigma2, 1e12)
        post = posterior_params(wide)
        assert np.allclose(post.mean, post.mle, rtol=1e-4)

    def test_orthonormal_design_shrinkage_factor(self):
        X, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(8, 3)))
        y = np.random.default_rng(4).normal(size=8)
        spec = RegressionSpec(X, y, sigma2=2.0, tau2=3.0)
        post = posterior_params(spec)
        r = spec.tau2 / spec.sigma2
        assert np.allclose(post.mean, r / (1 + r) * post.mle, atol=1e-12)

    def test_zero_response_zero_mean(self, rng):
        spec = random_spec(rng)
        zero = RegressionSpec(spec.design, np.zeros(spec.n), spec.sigma2, spec.tau2)
        post = posterior_params(zero)
        assert np.allclose(post.mean, 0.0, atol=1e-15)
        assert np.all(post.mle == 0.0)

    def test_shrinkage_norm_inequality(self, rng):
        for _ in range(50):
            post = posterior_params(random_spec(rng))
            assert np.linalg.norm(post.mean) <= np.linalg.norm(post.mle) + 1e-12

    def test_covariance_matches_explicit_inverse(self, rng):
        for _ in range(20):
            spec = random_spec(rng)
            post = posterior_params(spec)
            explicit = np.linalg.inv(
                np.eye(spec.k) / spec.tau2 + spec.design.T @ spec.design / spec.sigma2
            )
            assert np.allclose(post.covariance, explicit, rtol=1e-8)

    def test_rank_deficient_rejected(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(RankDeficientError):
            RegressionSpec(X, np.zeros(3), 1.0, 1.0)


class TestFunctionalInference:
    def test_orthonormal_design_equals_plug_in_mle(self, rng):
        X, _ = np.linalg.qr(rng.normal(size=(9, 3)))
        y = rng.normal(size=9)
        spec = RegressionSpec(X, y, sigma2=1.3, tau2=0.7)
        post = posterior_params(spec)
        for _ in range(5):
            w = rng.normal(size=3)
            rep = functional_inference(spec, w)
            assert rep.psi_rb == pytest.approx(float(w @ post.mle), abs=1e-10)

    def test_wide_prior_approaches_plug_in_mle(self, rng):
        spec = random_spec(rng, tau2=1e12)
        post = posterior_params(spec)
        w = rng.normal(size=spec.k)
        rep = functional_inference(spec, w)
        assert rep.psi_rb == pytest.approx(float(w @ post.mle), rel=1e-4)

    def test_one_dimensional_grid_oracle(self):
        spec = RegressionSpec(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]), 1.0, 1.0)
        rep = functional_inference(spec, [1.0])
        assert rep.psi_map == pytest.approx(4.0 / 3.0, abs=1e-12)
        grid = build_grid(-10, 10, 2**16)
        check = rb_grid_check(spec, [1.0], grid)
        assert check.gap <= grid.cell_width
        assert rep.psi_rb == pytest.approx(2.0, abs=1e-12)

    def test_variance_ordering_strict(self, rng):
        for _ in range(50):
            spec = random_spec(rng)
            w = rng.normal(size=spec.k)
            rep = functional_inference(spec, w)
            assert rep.sigma2_psi > rep.sigma2_psi_post
            assert rep.sigma2_z > rep.sigma2_z_post

    def test_magnification_ordering(self, rng):
        for _ in range(50):
            spec = random_spec(rng)
            w = rng.normal(size=spec.k)
            rep = functional_inference(spec, w)
            assert abs(rep.psi_rb) >= abs(rep.psi_map) - 1e-15
            assert abs(rep.z_rb) >= abs(rep.z_map) - 1e-15
            assert rep.z_rb * rep.psi_rb >= -1e-15

    def test_prediction_link_identity(self, rng):
        for _ in range(50):
            spec = random_spec(rng)
            w = rng.normal(size=spec.k)
            rep = functional_inference(spec, w)
            factor = 1.0 + spec.sigma2 / (spec.tau2 * float(w @ w))
            if rep.psi_rb != 0.0:
                assert rep.z_rb / rep.psi_rb == pytest.approx(factor, abs=1e-10)

    def test_zero_direction_rejected(self, rng):
        spec = random_spec(rng)
        with pytest.raises(ZeroDirectionError):
            functional_inference(spec, np.zeros(spec.k))


class TestGridCheck:
    def test_random_specs_within_one_cell(self, rng):
        for _ in range(20):
            spec = random_spec(rng)
            w = rng.normal(size=spec.k)
            while not np.any(w):
                w = rng.normal(size=spec.k)
            sd = math.sqrt(spec.tau2 * float(w @ w))
            grid = build_grid(-8 * sd, 8 * sd, 2**16)
            check = rb_grid_check(spec, w, grid)
            assert check.gap <= grid.cell_width

    def test_requires_six_prior_sd_coverage(self, rng):
        spec = random_spec(rng, tau2=1.0)
        w = np.ones(spec.k)
        sd = math.sqrt(spec.tau2 * float(w @ w))
        with pytest.raises(BadRangeError):
            rb_grid_check(spec, w, build_grid(-2 * sd, 2 * sd, 1024))

    def test_near_singular_magnifier_guard(self):
        # huge noise: the posterior barely tightens the prior
        spec = RegressionSpec(
            np.array([[1.0], [1.0]]), np.array([0.5, 0.7]), sigma2=1e18, tau2=1.0
        )
        with pytest.raises(NearSingularMagnifierError):
            functional_inference(spec, [1.0])

    def test_centered_posterior_argmax_central(self):
        spec = RegressionSpec(np.array([[1.0], [1.0]]), np.array([0.0, 0.0]), 1.0, 1.0)
        grid = build_grid(-8, 8, 2**14)
        check = rb_grid_check(spec, [1.0], grid)
        assert check.closed_form == pytest.approx(0.0, abs=1e-15)
        assert abs(check.grid_argmax) <= grid.cell_width


def test_grid_check_past_the_cell_cap_rejected():
    spec = random_spec(np.random.default_rng(3))
    w = np.ones(spec.k)
    sd = math.sqrt(functional_inference(spec, w).sigma2_psi)
    with pytest.raises(TooManyCellsError, match="grid check"):
        rb_grid_check(spec, w, build_grid(-8 * sd, 8 * sd, CELL_CAP + 1))
