import json

import numpy as np
import pytest
from hypothesis import given, settings

from relbel.errors import (
    EmptyFiberError,
    ImpossibleObservationError,
    IndexOutOfRangeError,
    NegativeMassError,
    NonStochasticRowError,
    PriorNotNormalizedError,
    ValidationError,
)
from relbel.model import (
    FiniteModel,
    PsiMap,
    identity_psi,
    marginalize,
    model_from_json,
    model_to_json,
    posterior,
    posterior_table,
    prior_predictive,
    psi_marginal,
    validate,
)
from conftest import finite_models, random_model


def two_by_two():
    # f(x1 | t1) = 0.2 and f(x1 | t2) = 0.8
    return FiniteModel(
        ("t1", "t2"),
        ("x0", "x1"),
        np.array([[0.8, 0.2], [0.2, 0.8]]),
        np.array([0.5, 0.5]),
    )


class TestValidate:
    def test_accepts_valid_model(self):
        m = validate(two_by_two())
        assert m.renormalized is False
        assert np.all(m.prior == [0.5, 0.5])

    def test_rejects_non_stochastic_row(self):
        bad = FiniteModel(("a",), ("x0", "x1"), np.array([[0.2, 0.7]]), np.array([1.0]))
        with pytest.raises(NonStochasticRowError):
            validate(bad)

    def test_rejects_unnormalized_prior(self):
        bad = FiniteModel(
            ("a", "b"), ("x0", "x1"), np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0.6, 0.6])
        )
        with pytest.raises(PriorNotNormalizedError):
            validate(bad)

    def test_rejects_negative_entries(self):
        with pytest.raises(NegativeMassError):
            validate(
                FiniteModel(
                    ("a", "b"), ("x",), np.array([[1.0], [1.0]]), np.array([1.5, -0.5])
                )
            )

    def test_rejects_non_finite_entries(self):
        # NaN passes both the sign check and the sum-off-by-tolerance check
        lik = np.array([[0.5, 0.5], [0.5, 0.5]])
        nan_row = np.array([[np.nan, 0.5], [0.5, 0.5]])
        for bad_lik, prior, err in (
            (nan_row, np.array([0.5, 0.5]), NonStochasticRowError),
            (lik, np.array([np.nan, 0.5]), PriorNotNormalizedError),
            (np.array([[np.inf, 0.5], [0.5, 0.5]]), np.array([0.5, 0.5]), NonStochasticRowError),
        ):
            with pytest.raises(err, match="non-finite"):
                validate(FiniteModel(("a", "b"), ("x0", "x1"), bad_lik, prior))

    def test_first_bad_row_reports_its_own_error(self):
        big = np.finfo(float).max
        rows = {
            "off": [0.2, 0.7],
            "overflow": [big, big],
            "nan": [np.nan, 0.5],
            "fine": [0.5, 0.5],
        }
        for first, second, message in (
            ("fine", "overflow", "row 1 .*float range"),
            ("off", "overflow", "row 0 .*sums to 0.89"),
            ("overflow", "nan", "row 0 .*float range"),
            ("nan", "overflow", "row 0 .*non-finite"),
        ):
            lik = np.array([rows[first], rows[second]])
            with pytest.raises(NonStochasticRowError, match=message):
                validate(FiniteModel(("a", "b"), ("x0", "x1"), lik, np.array([0.5, 0.5])))

    def test_renormalizes_within_tolerance_once(self):
        m = validate(
            FiniteModel(
                ("a", "b"),
                ("x0", "x1"),
                np.array([[0.5, 0.5 + 4e-10], [0.5, 0.5]]),
                np.array([0.5, 0.5 - 2e-10]),
            )
        )
        assert m.renormalized is True
        assert abs(sum(m.prior) - 1.0) < 1e-15
        assert abs(sum(m.likelihood[0]) - 1.0) < 1e-15


class TestPosterior:
    def test_constant_likelihood_returns_prior(self):
        m = validate(
            FiniteModel(
                ("a", "b"),
                ("x0", "x1"),
                np.array([[0.3, 0.7], [0.3, 0.7]]),
                np.array([0.25, 0.75]),
            )
        )
        rep = posterior(m, 0)
        assert np.allclose(rep.posterior, m.prior, atol=1e-15)

    def test_hand_enumerated_example(self):
        # 0.5 * 0.2 and 0.5 * 0.8 against m(x1) = 0.5
        rep = posterior(validate(two_by_two()), 1)
        assert np.allclose(rep.posterior, [0.2, 0.8], atol=1e-15)
        assert rep.evidence_norm == pytest.approx(0.5, abs=1e-15)

    def test_point_mass_prior_stays_point_mass(self):
        m = validate(
            FiniteModel(
                ("a", "b"),
                ("x0", "x1"),
                np.array([[0.2, 0.8], [0.8, 0.2]]),
                np.array([1.0, 0.0]),
            )
        )
        for x in (0, 1):
            assert np.all(posterior(m, x).posterior == [1.0, 0.0])

    def test_impossible_observation(self):
        m = validate(
            FiniteModel(
                ("a", "b"),
                ("x0", "x1"),
                np.array([[0.0, 1.0], [0.0, 1.0]]),
                np.array([0.5, 0.5]),
            )
        )
        with pytest.raises(ImpossibleObservationError):
            posterior(m, 0)


class TestPosteriorTable:
    def test_rows_bitwise_equal_per_outcome_route(self, rng):
        for _ in range(50):
            model, psi = random_model(rng, max_theta=12, max_x=9, max_psi=5)
            table = posterior_table(model, psi)
            assert table.shape == (model.n_x, psi.n_psi)
            for x in range(model.n_x):
                row = psi_marginal(posterior(model, x).posterior, psi)
                assert table[x].tobytes() == row.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(finite_models(max_theta=12, max_x=9, max_psi=5))
    def test_rows_bitwise_equal_on_models_with_zero_prior_theta(self, case):
        model, psi = case
        table = posterior_table(model, psi)
        for x in range(model.n_x):
            assert table[x].tobytes() == psi_marginal(posterior(model, x).posterior, psi).tobytes()

    def test_impossible_observation(self):
        m = validate(
            FiniteModel(
                ("a", "b"),
                ("x0", "x1"),
                np.array([[0.0, 1.0], [0.0, 1.0]]),
                np.array([0.5, 0.5]),
            )
        )
        with pytest.raises(ImpossibleObservationError, match="x0"):
            posterior_table(m, identity_psi(m))

    def test_assignment_checked(self):
        m = validate(two_by_two())
        with pytest.raises(ValidationError):
            posterior_table(m, PsiMap((0,), ("A",)))
        with pytest.raises(IndexOutOfRangeError):
            posterior_table(m, PsiMap((0, -1), ("A", "B")))


class TestPriorPredictive:
    def test_point_mass_prior_gives_that_row(self):
        m = validate(
            FiniteModel(
                ("a", "b"),
                ("x0", "x1"),
                np.array([[0.2, 0.8], [0.7, 0.3]]),
                np.array([0.0, 1.0]),
            )
        )
        assert np.allclose(prior_predictive(m), [0.7, 0.3], atol=1e-15)

    def test_hand_enumerated_mixture(self):
        assert np.allclose(prior_predictive(validate(two_by_two())), [0.5, 0.5], atol=1e-15)

    def test_identical_rows_for_any_prior(self, rng):
        row = np.array([0.1, 0.6, 0.3])
        for _ in range(5):
            p = rng.dirichlet(np.ones(2))
            m = validate(FiniteModel(("a", "b"), ("x0", "x1", "x2"), np.array([row, row]), p))
            assert np.allclose(prior_predictive(m), row, atol=1e-12)


class TestMarginalize:
    def test_identity_map(self):
        m = validate(two_by_two())
        pi_psi, cond = marginalize(m, identity_psi(m))
        assert np.allclose(pi_psi, m.prior, atol=1e-15)
        assert np.allclose(cond, m.likelihood, atol=1e-15)

    def test_three_to_two_collapse(self):
        m = validate(
            FiniteModel(
                ("a", "b", "c"),
                ("x0", "x1"),
                np.array([[0.5, 0.5], [0.4, 0.6], [0.1, 0.9]]),
                np.array([0.2, 0.3, 0.5]),
            )
        )
        pi_psi, _ = marginalize(m, PsiMap((0, 0, 1), ("A", "B")))
        assert np.allclose(pi_psi, [0.5, 0.5], atol=1e-15)

    def test_mixture_identity_against_prior_predictive(self, rng):
        for _ in range(50):
            model, psi = random_model(rng)
            pi_psi, cond = marginalize(model, psi)
            assert np.allclose(pi_psi @ cond, prior_predictive(model), atol=1e-9)

    def test_empty_fiber_rejected(self):
        m = validate(
            FiniteModel(
                ("a", "b", "c"),
                ("x0", "x1"),
                np.array([[0.5, 0.5], [0.4, 0.6], [0.1, 0.9]]),
                np.array([0.5, 0.5, 0.0]),
            )
        )
        with pytest.raises(EmptyFiberError):
            marginalize(m, PsiMap((0, 0, 1), ("A", "B")))


class TestInvariants:
    def test_posterior_masses_sum_to_one(self, rng):
        for _ in range(50):
            model, _ = random_model(rng)
            for x in range(model.n_x):
                assert abs(sum(posterior(model, x).posterior) - 1.0) < 1e-9

    def test_relabeling_permutes_posterior(self, rng):
        for _ in range(25):
            model, _ = random_model(rng)
            perm = rng.permutation(model.n_theta)
            permuted = validate(
                FiniteModel(
                    tuple(model.theta_labels[i] for i in perm),
                    model.x_labels,
                    model.likelihood[perm],
                    model.prior[perm],
                )
            )
            for x in range(model.n_x):
                base = posterior(model, x).posterior
                assert np.allclose(posterior(permuted, x).posterior, base[perm], atol=1e-14)


class TestJson:
    def test_round_trip(self):
        m = validate(two_by_two())
        psi = PsiMap((0, 1), ("A", "B"))
        doc = model_to_json(m, psi)
        m2, psi2 = model_from_json(json.loads(json.dumps(doc)))
        assert m2.theta_labels == m.theta_labels
        assert np.all(m2.likelihood == m.likelihood)
        assert np.all(m2.prior == m.prior)
        assert psi2.assignment == psi.assignment
