"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria 3-6 share one pool of 1000 random finite models.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from relbel.classify import (
    TwoClassSpec,
    classify_known_eps,
    error_sum,
    map_rule,
    rb_rule,
    risk_table,
)
from relbel.decision import (
    bayes_rule,
    brute_force_bayes,
    lpl_region,
    make_loss,
    unbiasedness_gap,
)
from relbel.evidence import (
    attainable_gammas,
    credible_region,
    rb_estimate,
    rb_table,
)
from relbel.grids import build_grid
from relbel.limits import (
    default_eta_ladder,
    eta_limit,
    gaussian_location_likelihood,
    grid_ladder,
    invariance_demo,
    region_limit,
)
from relbel.model import posterior, psi_marginal
from relbel.regress import RegressionSpec, functional_inference, posterior_params, rb_grid_check
from conftest import random_model

from test_limits import truncated_geometric_table


@pytest.fixture(scope="module")
def model_pool():
    rng = np.random.default_rng(107)
    return [random_model(rng, max_theta=6, max_x=6, max_psi=4, min_prior=0.01) for _ in range(1000)]


def _passed(num, text):
    print(f"\n[acceptance] criterion {num:02d}: PASS - {text}")


def test_criterion_01_table1_reproduction():
    targets = {
        1.0: (0.776, 0.02, 0.776, 0.02),
        14.0: (0.977, 0.015, 0.665, 0.02),
        32.0: (0.997, 0.01, 0.641, 0.02),
        100.0: (1.000, 0.005, 0.624, 0.02),
    }
    start = time.monotonic()
    rows = risk_table(alpha=1.0, betas=list(targets), mu=1.0, n=10, reps=200_000, seed=7)
    elapsed = time.monotonic() - start
    for row in rows:
        map_target, map_tol, rb_target, rb_tol = targets[row.beta]
        assert abs(row.map_sum - map_target) <= map_tol, (row.beta, row.map_sum)
        assert abs(row.rb_sum - rb_target) <= rb_tol, (row.beta, row.rb_sum)
    assert elapsed <= 120.0
    _passed(1, f"four-row risk table within tolerance in {elapsed:.1f}s")


def test_criterion_02_two_class_exact_values():
    spec = TwoClassSpec(psi0=0.05, psi1=0.80, epsilon=0.01)
    assert classify_known_eps(spec, 1).rb_label == 1
    assert classify_known_eps(spec, 0).rb_label == 0
    _, _, rb_total = error_sum(spec, rb_rule(spec))
    assert abs(rb_total - 0.25) <= 1e-15
    # at this small epsilon the posterior mode ignores the rare class
    assert map_rule(spec) == (0, 0)
    _, _, map_total = error_sum(spec, map_rule(spec))
    assert abs(map_total - 1.0) <= 1e-15
    _passed(2, "error sums 0.25 and 1 exact; evidence labels as stated")


def test_criterion_03_bayes_rule_oracle_equivalence(model_pool):
    for model, psi in model_pool:
        pi_psi = psi_marginal(model.prior, psi)
        loss = make_loss("rb", pi_psi)
        rule, report = bayes_rule(model, psi, loss)
        best_rule, best_risk = brute_force_bayes(model, psi, loss)
        assert abs(report.prior_risk - best_risk) <= 1e-12
        for x in range(model.n_x):
            post = psi_marginal(posterior(model, x).posterior, psi)
            assert rule.action_per_x[x] == rb_estimate(rb_table(pi_psi, post)).index
    _passed(3, "1000 models: enumerated minimum risk and evidence argmax match")


def test_criterion_04_eta_threshold(model_pool):
    t = truncated_geometric_table()
    trace = eta_limit(t, eta_ladder=default_eta_ladder(t.prior, steps=40))
    threshold = t.prior[trace.target]
    assert all(
        action == trace.target
        for eta, action in zip(trace.parameter_values, trace.actions_or_regions)
        if eta <= threshold
    )
    checked = 0
    for model, psi in model_pool:
        for x in range(model.n_x):
            trace = eta_limit(model, x=x, psi=psi)
            threshold = _table_prior(model, psi)[trace.target]
            for eta, action in zip(trace.parameter_values, trace.actions_or_regions):
                if eta <= threshold:
                    assert action == trace.target
                    checked += 1
    assert checked > 0
    _passed(4, f"capped-loss actions lock onto the evidence argmax ({checked} checks)")


def _table_prior(model, psi):
    return psi_marginal(model.prior, psi)


def test_criterion_05_unbiasedness(model_pool):
    for model, psi in model_pool:
        pi_psi = psi_marginal(model.prior, psi)
        rule, _ = bayes_rule(model, psi, make_loss("rb", pi_psi))
        for eta in (pi_psi.min() / 2.0, pi_psi.max() / 4.0):
            h_capped = 1.0 / np.maximum(eta, pi_psi)
            assert unbiasedness_gap(model, psi, np.ones(psi.n_psi), rule) >= -1e-12
            assert unbiasedness_gap(model, psi, h_capped, rule) >= -1e-12
    _passed(5, "evidence rule is Bayesian unbiased under flat and capped weights")


def test_criterion_06_region_identity(model_pool):
    rng = np.random.default_rng(13)
    for model, psi in model_pool:
        pi_psi = psi_marginal(model.prior, psi)
        x = int(rng.integers(model.n_x))
        post = psi_marginal(posterior(model, x).posterior, psi)
        t = rb_table(pi_psi, post)
        loss = make_loss("rb", t.prior)
        for gamma in attainable_gammas(t):
            g = min(float(gamma), 1.0)
            assert (
                lpl_region(loss, t.posterior, g).member_indices
                == credible_region(t, g, "sup-geq").member_indices
            )
    _passed(6, "lowest-loss and credible regions identical at every attainable level")


def test_criterion_07_region_convergence():
    prior = stats.norm(0.0, 1.0)
    lik = gaussian_location_likelihood(1.9, 1.0)
    grids = grid_ladder(build_grid(-6.0, 6.0, 512), steps=4, factor=2)
    assert grids[-1].n_cells == 2**12
    trace = region_limit(prior.pdf, lik, 0.95, grids, refine_factor=16)
    assert trace.discrepancies[-1] < 0.01
    for a, b in zip(trace.discrepancies, trace.discrepancies[1:]):
        assert b <= 0.75 * a
    _passed(
        7,
        "region symmetric-difference mass "
        + ", ".join(f"{d:.2e}" for d in trace.discrepancies),
    )


def test_criterion_08_regression_closed_forms():
    rng = np.random.default_rng(29)
    # orthonormal design: evidence estimate equals the plug-in MLE
    X, _ = np.linalg.qr(rng.normal(size=(10, 3)))
    y = rng.normal(size=10)
    spec = RegressionSpec(X, y, sigma2=1.7, tau2=0.9)
    post = posterior_params(spec)
    for _ in range(5):
        w = rng.normal(size=3)
        rep = functional_inference(spec, w)
        assert abs(rep.psi_rb - float(w @ post.mle)) <= 1e-10
        factor = 1.0 + spec.sigma2 / (spec.tau2 * float(w @ w))
        assert abs(rep.z_rb / rep.psi_rb - factor) <= 1e-10

    for _ in range(20):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(1, 5))
        X = rng.normal(size=(n, k))
        tau2 = float(rng.uniform(0.25, 4.0))
        sigma2 = float(rng.uniform(0.25, 4.0))
        y = X @ rng.normal(scale=math.sqrt(tau2), size=k) + rng.normal(
            scale=math.sqrt(sigma2), size=n
        )
        spec = RegressionSpec(X, y, sigma2=sigma2, tau2=tau2)
        w = rng.normal(size=k)
        while not np.any(w):
            w = rng.normal(size=k)
        sd = math.sqrt(tau2 * float(w @ w))
        grid = build_grid(-8.0 * sd, 8.0 * sd, 2**16)
        check = rb_grid_check(spec, w, grid)
        assert check.gap <= grid.cell_width
        rep = functional_inference(spec, w)
        factor = 1.0 + sigma2 / (tau2 * float(w @ w))
        assert abs(rep.z_rb / rep.psi_rb - factor) <= 1e-10
    _passed(8, "closed forms match the MLE, the grid oracle, and the prediction link")


def test_criterion_09_normalization_everywhere(model_pool):
    rng = np.random.default_rng(41)
    checked = 0
    for model, psi in model_pool[:200]:
        pi_psi = psi_marginal(model.prior, psi)
        for x in range(model.n_x):
            post = psi_marginal(posterior(model, x).posterior, psi)
            t = rb_table(pi_psi, post)
            assert abs(math.fsum((t.rb * t.prior).tolist()) - 1.0) <= 1e-9
            checked += 1
    # grid-built tables; every value of every table here has prior mass, so
    # no ratio is -inf and the product has no 0 * -inf term
    from relbel.evidence import table_from_gridded
    from relbel.grids import discretize

    for n_cells in (64, 512, 4096):
        g = build_grid(-6.0, 6.0, n_cells)
        prior_gd = discretize(stats.norm(0, 1).pdf, g)
        post_gd = discretize(stats.norm(0.95, math.sqrt(0.5)).pdf, g)
        t = table_from_gridded(prior_gd, post_gd)
        assert abs(math.fsum((t.rb * t.prior).tolist()) - 1.0) <= 1e-9
        checked += 1
    for _ in range(100):
        n = int(rng.integers(2, 30))
        t = rb_table(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
        assert abs(math.fsum((t.rb * t.prior).tolist()) - 1.0) <= 1e-9
        checked += 1
    _passed(9, f"sum(rb * prior) = 1 within 1e-9 on {checked} tables")


def test_criterion_10_invariance_demonstration():
    grid = build_grid(-6.0, 6.0, 2**12)
    post_mu, post_s = 0.75, math.sqrt(0.5)
    rep = invariance_demo(
        stats.norm(0.0, 1.0).cdf,
        stats.norm(post_mu, post_s).cdf,
        stats.lognorm(s=1.0).cdf,
        stats.lognorm(s=post_s, scale=math.exp(post_mu)).cdf,
        np.exp,
        grid,
    )
    assert rep.rb_index == rep.rb_index_image
    assert rep.map_shift_cells > 10
    _passed(
        10,
        f"evidence argmax cell fixed ({rep.rb_index}), "
        f"density mode moved {rep.map_shift_cells} cells",
    )
