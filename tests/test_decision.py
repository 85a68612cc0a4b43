import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbel.decision import (
    all_rules,
    bayes_rule,
    brute_force_bayes,
    conditional_error_probs,
    lpl_region,
    make_loss,
    posterior_risk,
    prior_risk,
    rb_decomposition,
    unbiasedness_gap,
    DecisionRule,
)
from relbel.errors import BadEtaError, RuleSpaceTooLargeError, ZeroPriorMassError
from relbel.evidence import attainable_gammas, credible_region, rb_estimate, rb_table
from relbel.model import FiniteModel, identity_psi, posterior, psi_marginal, validate
from conftest import finite_models, random_model


class TestMakeLoss:
    def test_map_all_ones_off_diagonal(self):
        # the stored values are the error weights, one per true value
        loss = make_loss("map", [0.3, 0.7])
        assert loss.values.shape == (2,) and loss.n == 2
        assert np.all(loss.values == np.array([1.0, 1.0]))
        assert not loss.values.flags.writeable

    def test_rb_reciprocal_rows(self):
        loss = make_loss("rb", [0.25, 0.75])
        assert loss.values.shape == (2,)
        assert loss.values[0] == pytest.approx(4.0)
        assert loss.values[1] == pytest.approx(4.0 / 3.0)

    def test_eta_saturation(self):
        loss = make_loss("rb-eta", [0.2, 0.8], eta=0.9)
        assert loss.values.shape == (2,)
        assert np.allclose(loss.values, 1.0 / 0.9)

    def test_eta_bound(self, rng):
        for _ in range(20):
            prior = rng.dirichlet(np.ones(4))
            eta = float(rng.uniform(0.01, 1.0))
            loss = make_loss("rb-eta", prior, eta=eta)
            assert loss.values.max() <= 1.0 / eta + 1e-12

    def test_errors(self):
        with pytest.raises(ZeroPriorMassError):
            make_loss("rb", [1.0, 0.0])
        with pytest.raises(BadEtaError):
            make_loss("rb-eta", [0.5, 0.5], eta=0.0)


class TestPosteriorRisk:
    def test_certain_action_zero_one_loss(self):
        loss = make_loss("map", [0.5, 0.5])
        assert posterior_risk(loss, [0.0, 1.0], 1) == 0.0

    def test_rb_decomposition_example(self):
        loss = make_loss("rb", [0.5, 0.5])
        assert posterior_risk(loss, [0.2, 0.8], 1) == pytest.approx(0.4, abs=1e-15)
        total, at_action = rb_decomposition(loss, [0.2, 0.8], 1)
        assert (total, at_action) == (pytest.approx(2.0), pytest.approx(1.6))
        assert total - at_action == pytest.approx(0.4, abs=1e-15)

    def test_map_risk_example(self):
        loss = make_loss("map", [0.5, 0.5])
        assert posterior_risk(loss, [0.2, 0.8], 1) == pytest.approx(0.2, abs=1e-15)


def example1_model():
    # two Bernoulli populations with success rates 0.05 and 0.80, rare class 1
    return validate(
        FiniteModel(
            ("pop0", "pop1"),
            ("neg", "pos"),
            np.array([[0.95, 0.05], [0.20, 0.80]]),
            np.array([0.99, 0.01]),
        )
    )


class TestBayesRule:
    def test_rb_rule_is_evidence_argmax(self, rng):
        for _ in range(50):
            model, psi = random_model(rng)
            pi_psi = psi_marginal(model.prior, psi)
            rule, _ = bayes_rule(model, psi, make_loss("rb", pi_psi))
            for x in range(model.n_x):
                post = psi_marginal(posterior(model, x).posterior, psi)
                assert rule.action_per_x[x] == rb_estimate(rb_table(pi_psi, post)).index

    def test_map_rule_is_posterior_mode(self, rng):
        for _ in range(50):
            model, psi = random_model(rng)
            pi_psi = psi_marginal(model.prior, psi)
            rule, _ = bayes_rule(model, psi, make_loss("map", pi_psi))
            for x in range(model.n_x):
                post = psi_marginal(posterior(model, x).posterior, psi)
                assert rule.action_per_x[x] == int(np.argmax(post))

    def test_brute_force_oracle_agreement(self, rng):
        for _ in range(50):
            model, psi = random_model(rng, max_theta=5, max_x=4, max_psi=3)
            pi_psi = psi_marginal(model.prior, psi)
            loss = make_loss("rb", pi_psi)
            rule, report = bayes_rule(model, psi, loss)
            best_rule, best_risk = brute_force_bayes(model, psi, loss)
            assert abs(report.prior_risk - best_risk) < 1e-12
            assert best_rule == rule.action_per_x

    @settings(max_examples=150, deadline=None)
    @given(finite_models(max_theta=6, max_x=4, max_psi=3), st.sampled_from(["map", "rb", "rb-eta"]))
    def test_prior_risk_matches_oracle_with_zero_prior_theta(self, case, kind):
        model, psi = case
        pi_psi = psi_marginal(model.prior, psi)
        loss = make_loss(kind, pi_psi, eta=0.5 * float(pi_psi.max()) if kind == "rb-eta" else None)
        rule, report = bayes_rule(model, psi, loss)
        _, best_risk = brute_force_bayes(model, psi, loss)
        assert abs(report.prior_risk - best_risk) <= 1e-12
        assert abs(prior_risk(model, psi, loss, rule) - best_risk) <= 1e-12

    def test_uniform_prior_rb_equals_map(self, rng):
        for _ in range(20):
            n_theta, n_x = 4, 3
            lik = rng.dirichlet(np.ones(n_x), size=n_theta)
            model = validate(
                FiniteModel(
                    tuple(f"t{i}" for i in range(n_theta)),
                    tuple(f"x{i}" for i in range(n_x)),
                    lik,
                    np.full(n_theta, 0.25),
                )
            )
            psi = identity_psi(model)
            rb_rule_, _ = bayes_rule(model, psi, make_loss("rb", model.prior))
            map_rule_, _ = bayes_rule(model, psi, make_loss("map", model.prior))
            assert rb_rule_.action_per_x == map_rule_.action_per_x

    def test_rule_cap(self):
        with pytest.raises(RuleSpaceTooLargeError):
            all_rules(10, 7)


def dense_loss(loss):
    """The ``[true, action]`` loss matrix: weight of the true value off the diagonal."""
    n = loss.n
    return np.where(np.eye(n, dtype=bool), 0.0, np.repeat(loss.values[:, None], n, axis=1))


class TestDenseOracle:
    KINDS = (("map", None), ("rb", None), ("rb-eta", 0.5))

    def test_bayes_rule_matches_dense_argmin(self, rng):
        for _ in range(50):
            model, psi = random_model(rng)
            pi_psi = psi_marginal(model.prior, psi)
            for kind, share in self.KINDS:
                eta = share * float(pi_psi.max()) if share else None
                loss = make_loss(kind, pi_psi, eta=eta)
                rule, report = bayes_rule(model, psi, loss)
                dense = dense_loss(loss)
                for x in range(model.n_x):
                    risks = psi_marginal(posterior(model, x).posterior, psi) @ dense
                    assert rule.action_per_x[x] == int(np.argmin(risks))
                    assert abs(report.posterior_risk_per_x[x] - risks.min()) < 1e-12

    def test_lpl_region_is_dense_risk_sublevel_set(self, rng):
        for _ in range(50):
            model, psi = random_model(rng)
            pi_psi = psi_marginal(model.prior, psi)
            post = psi_marginal(posterior(model, int(rng.integers(model.n_x))).posterior, psi)
            for kind, share in self.KINDS:
                eta = share * float(pi_psi.max()) if share else None
                loss = make_loss(kind, pi_psi, eta=eta)
                risks = post @ dense_loss(loss)
                for gamma in (*rng.uniform(0, 1, 5), 0.0, 1.0):
                    # smallest risk level whose sublevel set holds content gamma
                    levels = np.unique(risks)
                    contents = [math.fsum(post[risks <= r].tolist()) for r in levels]
                    ok = [r for r, c in zip(levels, contents) if c >= gamma]
                    level = ok[0] if ok else levels[-1]
                    expected = set(np.flatnonzero(risks <= level).tolist())
                    assert lpl_region(loss, post, float(gamma)).member_indices == expected


class TestPriorRisk:
    def test_perfect_rule_distinct_supports(self):
        model = validate(
            FiniteModel(
                ("a", "b"),
                ("x0", "x1"),
                np.array([[1.0, 0.0], [0.0, 1.0]]),
                np.array([0.5, 0.5]),
            )
        )
        psi = identity_psi(model)
        loss = make_loss("rb", model.prior)
        rule, _ = bayes_rule(model, psi, loss)
        assert prior_risk(model, psi, loss, rule) == 0.0

    def test_example1_rb_rule_sum(self):
        model = example1_model()
        psi = identity_psi(model)
        loss = make_loss("rb", model.prior)
        rule, _ = bayes_rule(model, psi, loss)
        # evidence rule: label by the larger likelihood column entry
        assert rule.action_per_x == (0, 1)
        assert prior_risk(model, psi, loss, rule) == pytest.approx(0.25, abs=1e-12)

    def test_map_risk_bounded_by_rb_risk(self, rng):
        # prior-weighted error sum never exceeds the plain error sum
        for _ in range(50):
            model, psi = random_model(rng)
            pi_psi = psi_marginal(model.prior, psi)
            rule, _ = bayes_rule(model, psi, make_loss("rb", pi_psi))
            errs = conditional_error_probs(model, psi, rule)
            assert math.fsum((errs * pi_psi).tolist()) <= math.fsum(errs.tolist()) + 1e-12

    def test_consistency_direct_vs_mixture(self, rng):
        for _ in range(30):
            model, psi = random_model(rng)
            pi_psi = psi_marginal(model.prior, psi)
            for kind, eta in (("rb", None), ("map", None), ("rb-eta", 0.05)):
                loss = make_loss(kind, pi_psi, eta=eta)
                rule, report = bayes_rule(model, psi, loss)
                assert prior_risk(model, psi, loss, rule) == pytest.approx(
                    report.prior_risk, abs=1e-9
                )


class TestLplRegion:
    def test_rb_loss_matches_credible_region(self, rng):
        for _ in range(100):
            model, psi = random_model(rng)
            pi_psi = psi_marginal(model.prior, psi)
            x = int(rng.integers(model.n_x))
            post = psi_marginal(posterior(model, x).posterior, psi)
            t = rb_table(pi_psi, post)
            loss = make_loss("rb", t.prior)
            for gamma in attainable_gammas(t):
                g = min(float(gamma), 1.0)  # cumulative content can round past 1
                lpl = lpl_region(loss, t.posterior, g, prior=t.prior)
                cred = credible_region(t, g, "sup-geq")
                assert lpl.member_indices == cred.member_indices

    def test_gamma_one_full_support(self):
        loss = make_loss("rb", [0.5, 0.5])
        assert lpl_region(loss, [0.2, 0.8], 1.0).member_indices == {0, 1}

    def test_eta_loss_region_direct_evaluation(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 8))
            prior = rng.dirichlet(np.ones(n))
            post = rng.dirichlet(np.ones(n))
            eta = float(rng.uniform(0.01, 0.5))
            gamma = float(rng.uniform(0, 1))
            loss = make_loss("rb-eta", prior, eta=eta)
            reg = lpl_region(loss, post, gamma)
            # direct form: capped ratio above the matching threshold
            ratio = post / np.maximum(eta, prior)
            cutoffs = np.sort(np.unique(ratio))[::-1]
            content = [post[ratio >= c].sum() for c in cutoffs]
            d = next(c for c, m in zip(cutoffs, content) if m >= gamma - 1e-12)
            assert reg.member_indices == set(np.flatnonzero(ratio >= d - 1e-12).tolist())


class TestUnbiasedness:
    def test_rb_rule_gap_nonnegative(self, rng):
        for _ in range(50):
            model, psi = random_model(rng)
            pi_psi = psi_marginal(model.prior, psi)
            rule, _ = bayes_rule(model, psi, make_loss("rb", pi_psi))
            for h in (np.ones(psi.n_psi), 1.0 / pi_psi):
                assert unbiasedness_gap(model, psi, h, rule) >= -1e-12

    def test_non_informative_model_gap_zero(self):
        model = validate(
            FiniteModel(
                ("a", "b"),
                ("x0", "x1"),
                np.array([[0.5, 0.5], [0.5, 0.5]]),
                np.array([0.3, 0.7]),
            )
        )
        psi = identity_psi(model)
        for actions in ((0, 0), (0, 1), (1, 0), (1, 1)):
            rule = DecisionRule(action_per_x=actions, ties=(False, False))
            assert unbiasedness_gap(model, psi, np.ones(2), rule) == pytest.approx(0.0, abs=1e-15)

    def test_adversarial_rule_gap_nonpositive(self, rng):
        # the argmin-evidence rule reverses the inequality when rb < 1 somewhere
        found = 0
        for _ in range(20):
            model, _ = random_model(rng, max_theta=2, max_x=2, max_psi=2)
            psi = identity_psi(model)
            actions = []
            for x in range(model.n_x):
                post = psi_marginal(posterior(model, x).posterior, psi)
                t = rb_table(model.prior, post)
                actions.append(int(np.argmin(t.rb)))
            rule = DecisionRule(action_per_x=tuple(actions), ties=(False,) * model.n_x)
            gap = unbiasedness_gap(model, psi, np.ones(2), rule)
            assert gap <= 1e-12
            found += gap < -1e-12
        assert found > 0


class TestAdmissibilityWitness:
    def test_no_rule_dominates_rb_in_conditional_errors(self, rng):
        for _ in range(20):
            model, psi = random_model(rng, max_theta=4, max_x=3, max_psi=3)
            pi_psi = psi_marginal(model.prior, psi)
            rb_rule_, _ = bayes_rule(model, psi, make_loss("rb", pi_psi))
            base = conditional_error_probs(model, psi, rb_rule_)
            for actions in all_rules(psi.n_psi, model.n_x):
                rule = DecisionRule(tuple(int(a) for a in actions), (False,) * model.n_x)
                errs = conditional_error_probs(model, psi, rule)
                dominates = np.all(errs <= base + 1e-12) and np.any(errs < base - 1e-12)
                assert not dominates
