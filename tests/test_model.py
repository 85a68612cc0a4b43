import json

import numpy as np
import pytest
from hypothesis import given, settings

from relbel.errors import (
    ImpossibleObservationError,
    IndexOutOfRangeError,
    NegativeMassError,
    NonStochasticRowError,
    PriorNotNormalizedError,
    ValidationError,
)
import relbel.model as model_mod
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

    def test_of_two_bad_rows_the_first_reports(self):
        # rows without an overflow are checked together; only the first failing row reports
        fine, off, nan = [0.5, 0.5], [0.2, 0.7], [np.nan, 0.5]
        sums_off = "sums to 0.8999999999999999, not 1 within 1e-09"
        for rows, message in (
            ([fine, off, fine, nan], f"likelihood row 1 ('t1') {sums_off}"),
            ([fine, nan, off, fine], "likelihood row 1 ('t1') has a non-finite entry"),
            ([off, fine, [0.4, 0.4], fine], f"likelihood row 0 ('t0') {sums_off}"),
        ):
            labels = tuple(f"t{i}" for i in range(len(rows)))
            with pytest.raises(NonStochasticRowError) as err:
                validate(FiniteModel(labels, ("x0", "x1"), np.array(rows), np.full(len(rows), 0.25)))
            assert str(err.value) == message

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
            table, m = posterior_table(model, psi)
            assert table.shape == (model.n_x, psi.n_psi)
            assert m.tobytes() == prior_predictive(model).tobytes()
            for x in range(model.n_x):
                row = psi_marginal(posterior(model, x).posterior, psi)
                assert table[x].tobytes() == row.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(finite_models(max_theta=12, max_x=9, max_psi=5))
    def test_rows_bitwise_equal_on_models_with_zero_prior_theta(self, case):
        model, psi = case
        table, _ = posterior_table(model, psi)
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
    @settings(max_examples=150, deadline=None)
    @given(finite_models(max_theta=40, max_x=12, max_psi=5))
    def test_bitwise_the_posterior_normalizer(self, case):
        # exact column totals, not a BLAS product whose bits vary with the build
        model, _ = case
        m = prior_predictive(model)
        assert m.shape == (model.n_x,)
        for x in range(model.n_x):
            assert m[x] == posterior(model, x).evidence_norm

    def test_impossible_outcome_has_zero_mass(self):
        m = validate(
            FiniteModel(
                ("a", "b"),
                ("x0", "x1"),
                np.array([[0.0, 1.0], [0.0, 1.0]]),
                np.array([0.5, 0.5]),
            )
        )
        assert prior_predictive(m).tolist() == [0.0, 1.0]

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


class TestPsiMarginal:
    @settings(max_examples=150, deadline=None)
    @given(finite_models(max_theta=12, max_x=9, max_psi=5))
    def test_bitwise_the_scatter_add_references(self, case):
        model, psi = case
        a = np.asarray(psi.assignment)
        for v in (model.prior, model.likelihood[:, 0]):
            want = np.bincount(a, weights=v, minlength=psi.n_psi)
            assert psi_marginal(v, psi).tobytes() == want.tobytes()
        joint = model.prior[:, None] * model.likelihood
        want = np.zeros((psi.n_psi, model.n_x))
        np.add.at(want, a, joint)
        got = psi_marginal(joint, psi)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_bad_assignment_rejected(self):
        masses = np.array([0.2, 0.3, 0.5])
        for bad in (PsiMap((0, 1), ("A", "B")), PsiMap((0, 1, 1, 0), ("A", "B"))):
            with pytest.raises(ValidationError, match="covers"):
                psi_marginal(masses, bad)
            with pytest.raises(ValidationError, match="covers"):
                psi_marginal(np.ones((3, 2)), bad)
        # bincount would grow the output for 2 and raise ValueError for -1
        for bad in (PsiMap((0, 1, 2), ("A", "B")), PsiMap((0, -1, 1), ("A", "B"))):
            for v in (masses, np.ones((3, 2))):
                with pytest.raises(IndexOutOfRangeError):
                    psi_marginal(v, bad)


def three_theta_model():
    return validate(
        FiniteModel(
            ("a", "b", "c"),
            ("x0", "x1"),
            np.array([[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]]),
            np.array([0.2, 0.3, 0.5]),
        )
    )


# each maps 3 theta values onto 2 psi values, or would if its entries were read as integers
NON_INTEGER_ASSIGNMENTS = [
    pytest.param((True, False, True), id="bools"),
    pytest.param((1, True, 0), id="int-and-bool"),
    pytest.param((np.True_, 0, 1), id="numpy-bool"),
    pytest.param((0.0, 1.0, 1.0), id="whole-floats"),
    pytest.param((0, 1, 1.5), id="fraction"),
    pytest.param((0, "1", 1), id="string"),
]


class TestPsiIndices:
    @pytest.mark.parametrize("assignment", NON_INTEGER_ASSIGNMENTS)
    def test_non_integer_entries_rejected(self, assignment):
        # a bool was read as 0 or 1, and the table push-forward added each True theta row to
        # every psi row, so posterior rows summed to 1.06-1.64; a float raised a raw
        # TypeError or IndexError
        m = three_theta_model()
        psi = PsiMap(assignment, ("A", "B"))
        calls = (
            lambda: psi_marginal(m.prior, psi),
            lambda: psi_marginal(m.joint, psi),
            lambda: posterior_table(m, psi),
        )
        for call in calls:
            with pytest.raises(ValidationError, match="psi assignment entries must be integers"):
                call()

    def test_length_is_checked_before_the_entries(self):
        for bad in (PsiMap((True, 0), ("A", "B")), PsiMap((0, 5), ("A", "B"))):
            with pytest.raises(ValidationError, match="covers"):
                psi_marginal(np.array([0.2, 0.3, 0.5]), bad)

    def test_numpy_integers_accepted(self):
        m = three_theta_model()
        psi = PsiMap((np.int64(0), np.uint8(1), np.int32(1)), ("A", "B"))
        plain = PsiMap((0, 1, 1), ("A", "B"))
        for v in (m.prior, m.joint):
            assert psi_marginal(v, psi).tobytes() == psi_marginal(v, plain).tobytes()

    def test_checked_once_into_a_read_only_array(self, monkeypatch):
        m = three_theta_model()
        psi = PsiMap((0, 1, 1), ("A", "B"))
        built = []
        real = model_mod._index_array
        monkeypatch.setattr(model_mod, "_index_array", lambda *a: built.append(a) or real(*a))
        for v in (m.prior, m.joint, m.prior):
            psi_marginal(v, psi)
        assert len(built) == 1
        a = psi.indices
        assert a is psi.indices and a.dtype == np.intp and not a.flags.writeable
        assert a.tolist() == [0, 1, 1]

    def test_out_of_range_entries_named(self):
        with pytest.raises(IndexOutOfRangeError, match=r"psi assignment entry not in \[0, 2\)"):
            PsiMap((0, 2, 1), ("A", "B")).indices


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

    def test_empty_fiber_row_is_nan(self):
        m = validate(
            FiniteModel(
                ("a", "b", "c"),
                ("x0", "x1"),
                np.array([[0.5, 0.5], [0.4, 0.6], [0.1, 0.9]]),
                np.array([0.5, 0.5, 0.0]),
            )
        )
        pi_psi, cond = marginalize(m, PsiMap((0, 0, 1), ("A", "B")))
        assert pi_psi.tolist() == [1.0, 0.0]
        assert np.isnan(cond[1]).all()
        # the row with prior mass has the bits of a model without the empty value
        full = validate(FiniteModel(("a", "b"), ("x0", "x1"), m.likelihood[:2], m.prior[:2]))
        assert cond[0].tobytes() == marginalize(full, PsiMap((0, 0), ("A",)))[1][0].tobytes()


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

    def test_only_a_parsed_document(self, tmp_path):
        # a JSON string or a path is a str, not an object; a 40-theta document's text
        # is longer than a file name may be, and still fails with the same message
        doc = model_to_json(validate(two_by_two()))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        wide = {"theta": [f"t{i}" for i in range(40)], "x": ["x0"],
                "likelihood": [[1.0]] * 40, "prior": [1 / 40] * 40}
        for value in (json.dumps(doc), json.dumps(wide), str(path), path):
            with pytest.raises(ValidationError, match="must be a JSON object"):
                model_from_json(value)
