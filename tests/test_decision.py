import dataclasses
import gc
import json
import math
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relbel.decision as decision_mod
import relbel.evidence as evidence_mod
import relbel.model as model_mod
from relbel._sums import fsums
from relbel.decision import (
    LOSS_KINDS,
    bayes_rule,
    brute_force_bayes,
    conditional_error_probs,
    lpl_region,
    make_loss,
    prior_risk,
    unbiasedness_gap,
    DecisionRule,
)
from relbel.errors import (
    BadEtaError,
    IndexOutOfRangeError,
    NumericalGuardError,
    RatioOverflowError,
    RiskCrossCheckError,
    RuleSpaceTooLargeError,
    ValidationError,
    ZeroPriorMassError,
)
from relbel.evidence import (
    attainable_gammas,
    credible_region,
    rb_estimate,
    rb_table,
    table_from_model,
)
from relbel.limits import default_eta_ladder, eta_limit
from relbel.model import (
    FiniteModel,
    PsiMap,
    identity_psi,
    marginalize,
    model_from_json,
    posterior,
    posterior_table,
    prior_predictive,
    psi_joint,
    psi_marginal,
    validate,
)
from conftest import finite_models, random_model

GOLDEN = Path(__file__).parent / "data" / "golden"


class TestMakeLoss:
    def test_map_all_ones_off_diagonal(self):
        # the stored values are the denominators, one per true value
        loss = make_loss("map", [0.3, 0.7])
        assert loss.values.shape == (2,) and loss.n == 2
        assert np.all(loss.values == np.array([1.0, 1.0]))
        assert not loss.values.flags.writeable

    def test_rb_reciprocal_rows(self):
        # the denominators are the prior masses, so the error weights are their reciprocals
        prior = np.array([0.25, 0.75])
        loss = make_loss("rb", prior)
        assert loss.values.tobytes() == prior.tobytes()
        assert dense_loss(loss).tolist() == [[0.0, 4.0], [4.0 / 3.0, 0.0]]
        # the loss holds a read-only copy; the caller's array stays writable
        assert prior.flags.writeable and not loss.values.flags.writeable

    def test_eta_saturation(self):
        loss = make_loss("rb-eta", [0.2, 0.8], eta=0.9)
        assert loss.values.tolist() == [0.9, 0.9]

    def test_eta_bound(self, rng):
        for _ in range(20):
            prior = rng.dirichlet(np.ones(4))
            eta = float(rng.uniform(0.01, 1.0))
            loss = make_loss("rb-eta", prior, eta=eta)
            assert loss.values.tobytes() == np.maximum(eta, prior).tobytes()
            assert loss.values.min() >= eta

    def test_errors(self):
        with pytest.raises(ZeroPriorMassError):
            make_loss("rb", [1.0, 0.0])
        for eta in (0.0, math.nan, math.inf):
            with pytest.raises(BadEtaError):
                make_loss("rb-eta", [0.5, 0.5], eta=eta)

    @pytest.mark.parametrize(
        "kind, prior, eta",
        [
            ("rb", [0.5, 5e-324, 0.5], None),
            ("rb", [0.5, 5e-309, 0.5], None),
            ("rb-eta", [0.5, 0.0, 0.5], 5e-324),
            ("rb-eta", [0.5, 1e-320, 0.5], 1e-321),
        ],
    )
    def test_overflowing_weight_is_a_guard(self, kind, prior, eta):
        # the denominator is stored as it is; a unit posterior mass over it overflows
        # at the ratio, which trips the guard without a numpy warning
        loss = make_loss(kind, prior, eta=eta)
        assert loss.values[1] == max(prior[1], eta or 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RatioOverflowError, match=r"^ratio 1\.0 / .* overflows") as exc:
                lpl_region(loss, [0.0, 1.0, 0.0], 0.5)
        assert isinstance(exc.value, NumericalGuardError)

    def test_largest_finite_weight_accepted(self):
        for loss in (make_loss("rb", [0.5, 1e-308]), make_loss("rb-eta", [0.5, 0.0], eta=1e-308)):
            assert loss.values[1] == 1e-308
            # 1 / 1e-308 is 1e308 and finite
            assert lpl_region(loss, [0.0, 1.0], 1.0).cutoff == 1e308

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_prior_mass_rejected(self, kind, bad):
        # rb and rb-eta gave NaN weights, and rb a weight of 0 for an infinite mass
        with pytest.raises(ValidationError, match="prior masses must be finite"):
            make_loss(kind, [0.5, bad], eta=0.3 if kind == "rb-eta" else None)


def two_outcome_model():
    # uniform prior; the posterior at x0 is (0.2, 0.8)
    return validate(
        FiniteModel(
            ("t0", "t1"),
            ("x0", "x1"),
            np.array([[0.2, 0.8], [0.8, 0.2]]),
            np.array([0.5, 0.5]),
        )
    )


class TestPosteriorRisk:
    def test_certain_action_zero_one_loss(self):
        m = validate(
            FiniteModel(("t0", "t1"), ("x0", "x1"), np.array([[1.0, 0.0], [0.0, 1.0]]), [0.5, 0.5])
        )
        rule, report = bayes_rule(m, identity_psi(m), make_loss("map", m.prior))
        assert rule.action_per_x == (0, 1)
        assert report.posterior_risk_per_x.tolist() == [0.0, 0.0]

    def test_rb_decomposition_example(self):
        m = two_outcome_model()
        rule, report = bayes_rule(m, identity_psi(m), make_loss("rb", m.prior))
        assert rule.action_per_x[0] == 1
        assert report.posterior_risk_per_x[0] == pytest.approx(0.4, abs=1e-15)
        total, at_action = report.decomposition[0]
        assert (total, at_action) == (pytest.approx(2.0), pytest.approx(1.6))
        assert total - at_action == pytest.approx(0.4, abs=1e-15)

    def test_map_risk_example(self):
        m = two_outcome_model()
        rule, report = bayes_rule(m, identity_psi(m), make_loss("map", m.prior))
        assert rule.action_per_x[0] == 1
        assert report.posterior_risk_per_x[0] == pytest.approx(0.2, abs=1e-15)
        assert report.decomposition is None


class TestRiskReportArrays:
    @pytest.mark.parametrize("kind", ["rb", "rb-eta"])
    def test_decomposition_is_one_read_only_array(self, kind, rng):
        for _ in range(10):
            model, psi = random_model(rng)
            pi_psi = psi_marginal(model.prior, psi)
            loss = make_loss(kind, pi_psi, eta=0.5 * float(pi_psi.max()) if kind == "rb-eta" else None)
            rule, report = bayes_rule(model, psi, loss)
            d = report.decomposition
            assert d.dtype == np.float64 and d.shape == (model.n_x, 2) and not d.flags.writeable
            ratios = evidence_mod._ratios(posterior_table(model, psi)[0], loss.values)
            at_action = ratios[np.arange(model.n_x), np.array(rule.action_per_x)]
            assert d.tobytes() == np.column_stack((fsums(ratios, axis=1), at_action)).tobytes()

    def test_rule_actions_are_the_argmax_array(self, rng):
        model, psi = random_model(rng)
        rule, _ = bayes_rule(model, psi, make_loss("map", psi_marginal(model.prior, psi)))
        acts = rule.actions
        assert acts.dtype == np.intp and not acts.flags.writeable
        assert acts.tolist() == list(rule.action_per_x)

    def test_few_python_objects_per_call(self):
        # the decomposition as n_x Python pairs left about 4,000 net GC-tracked containers
        rng = np.random.default_rng(41)
        n_theta, n_x = 30, 4000
        lik = rng.dirichlet(np.ones(n_x), size=n_theta)
        labels = tuple(f"t{i}" for i in range(n_theta)), tuple(f"x{i}" for i in range(n_x))
        model = validate(FiniteModel(*labels, lik, rng.dirichlet(np.ones(n_theta))))
        psi = identity_psi(model)
        loss = make_loss("rb", model.prior)
        bayes_rule(model, psi, loss)  # fills the model's caches
        gc.collect()
        gc.disable()
        try:
            before = gc.get_count()[0]
            result = bayes_rule(model, psi, loss)
            moved = gc.get_count()[0] - before
        finally:
            gc.enable()
        assert result[1].decomposition.shape == (n_x, 2)
        assert moved < 100


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

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_rule_holds_python_ints_and_bools(self, kind):
        # theta 0 and 1 tie at outcome 0 only
        lik = np.array([[0.3, 0.5, 0.2], [0.3, 0.2, 0.5]])
        model = validate(FiniteModel(("t0", "t1"), ("x0", "x1", "x2"), lik, np.array([0.5, 0.5])))
        rule, _ = bayes_rule(model, identity_psi(model), make_loss(kind, model.prior, eta=0.25))
        assert rule.action_per_x == (0, 0, 1) and rule.ties == (True, False, False)
        assert {type(a) for a in rule.action_per_x} == {int}
        assert {type(t) for t in rule.ties} == {bool}


class TestOneRatio:
    """The rb rule divides posterior by prior as the evidence table does, tie flags included."""

    @settings(max_examples=300, deadline=None)
    @given(finite_models(), st.floats(2.0**-60, 1.0, exclude_max=True))
    def test_rb_rule_is_the_evidence_estimate_and_the_capped_rule_below_the_prior(self, case, share):
        model, psi = case
        pi = psi_marginal(model.prior, psi)
        rule, report = bayes_rule(model, psi, make_loss("rb", pi))
        # every psi value keeps prior mass; any cap under the least one leaves the prior as it is
        least = float(pi.min())
        caps = {math.nextafter(least, 0.0), least * share}
        for x in range(model.n_x):
            t = table_from_model(model, x, psi)
            est = rb_estimate(t)
            assert rule.action_per_x[x] == est.index
            assert rule.ties[x] == est.tie
            if not est.tie:
                for eta in caps:
                    ladder = [e for e in default_eta_ladder(t.prior) if e > eta] + [eta]
                    trace = eta_limit(t, eta_ladder=ladder)
                    assert trace.actions_or_regions[-1] == trace.target
        for eta in caps:
            capped, capped_report = bayes_rule(model, psi, make_loss("rb-eta", pi, eta=eta))
            assert capped.action_per_x == rule.action_per_x
            assert capped.ties == rule.ties
            assert capped_report.posterior_risk_per_x.tobytes() == report.posterior_risk_per_x.tobytes()


def dense_loss(loss):
    """The ``[true, action]`` loss matrix: one over the true value's denominator off the diagonal."""
    n = loss.n
    return np.where(np.eye(n, dtype=bool), 0.0, np.repeat((1.0 / loss.values)[:, None], n, axis=1))


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


def all_rules(n_psi: int, n_x: int) -> np.ndarray:
    """Every deterministic rule as an ``(n_rules, n_x)`` action array, outcome 0 most significant."""
    n_rules = decision_mod._rule_count(n_psi, n_x, decision_mod.RULE_CAP)
    # every power fits in int64: none exceeds n_rules <= RULE_CAP
    powers = n_psi ** np.arange(n_x - 1, -1, -1, dtype=np.int64)
    return np.arange(n_rules, dtype=np.int64)[:, None] // powers % n_psi


def materialized_brute_force(model, psi, loss):
    """The oracle as one gather: every rule's action row, its terms, a sum per rule."""
    rules = np.indices((psi.n_psi,) * model.n_x).reshape(model.n_x, -1).T
    W = model.joint.T @ dense_loss(loss)[np.asarray(psi.assignment)]
    risks = W[np.arange(model.n_x)[:, None], rules.T].sum(axis=0)
    best = int(np.argmin(risks))
    return tuple(int(a) for a in rules[best]), float(risks[best])


@st.composite
def tied_models(draw):
    """Small models of small-integer masses, so rules often tie exactly.

    One theta value, one outcome and one psi value are all possible.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_theta = draw(st.integers(1, 5))
    n_x = draw(st.integers(1, 6))
    n_psi = draw(st.integers(1, min(3, n_theta)))
    prior = rng.integers(1, 4, size=n_theta).astype(float)
    likelihood = rng.integers(0, 3, size=(n_theta, n_x)).astype(float)
    likelihood[likelihood.sum(axis=1) == 0.0] = 1.0
    assignment = rng.permutation(
        np.concatenate([np.arange(n_psi), rng.integers(0, n_psi, size=n_theta - n_psi)])
    )
    model = validate(
        FiniteModel(
            theta_labels=tuple(f"t{i}" for i in range(n_theta)),
            x_labels=tuple(f"x{i}" for i in range(n_x)),
            likelihood=likelihood / likelihood.sum(axis=1, keepdims=True),
            prior=prior / prior.sum(),
        )
    )
    psi = PsiMap(tuple(int(j) for j in assignment), tuple(f"p{j}" for j in range(n_psi)))
    return model, psi


class TestBruteForceOracle:
    @settings(max_examples=300, deadline=None)
    @given(tied_models(), st.sampled_from(LOSS_KINDS))
    def test_matches_materialized_scores_bit_for_bit(self, case, kind):
        model, psi = case
        pi_psi = psi_marginal(model.prior, psi)
        loss = make_loss(kind, pi_psi, eta=0.5 * float(pi_psi.max()) if kind == "rb-eta" else None)
        best_rule, best_risk = brute_force_bayes(model, psi, loss)
        ref_rule, ref_risk = materialized_brute_force(model, psi, loss)
        assert best_rule == ref_rule
        assert best_risk.hex() == ref_risk.hex()
        expected = np.indices((psi.n_psi,) * model.n_x).reshape(model.n_x, -1).T
        assert np.array_equal(all_rules(psi.n_psi, model.n_x), expected)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_one_outcome(self, kind):
        model = validate(FiniteModel(("t0", "t1", "t2"), ("x0",), np.ones((3, 1)), np.array([0.2, 0.3, 0.5])))
        psi = identity_psi(model)
        loss = make_loss(kind, model.prior, eta=0.25 if kind == "rb-eta" else None)
        rule, report = bayes_rule(model, psi, loss)
        best_rule, best_risk = brute_force_bayes(model, psi, loss)
        assert best_rule == rule.action_per_x and len(best_rule) == 1
        assert best_risk.hex() == materialized_brute_force(model, psi, loss)[1].hex()
        assert abs(best_risk - report.prior_risk) <= 1e-12
        assert all_rules(3, 1).tolist() == [[0], [1], [2]]

    @pytest.mark.parametrize("n_x", [1, 5, 70])
    def test_one_psi_value(self, n_x):
        # past 64 outcomes an n_x-dimensional index array exceeds numpy's dimension limit
        lik = np.full((2, n_x), 1.0 / n_x)
        model = validate(FiniteModel(("t0", "t1"), tuple(f"x{i}" for i in range(n_x)), lik, np.full(2, 0.5)))
        psi = PsiMap((0, 0), ("p0",))
        loss = make_loss("map", psi_marginal(model.prior, psi))
        assert brute_force_bayes(model, psi, loss) == ((0,) * n_x, 0.0)
        rules = all_rules(1, n_x)
        assert rules.shape == (1, n_x) and not rules.any()

    @pytest.mark.parametrize(
        "n_psi, n_x, message",
        [
            pytest.param(2, 20, "2^20 = 1048576 rules exceeds the cap 1000000", id="20"),
            pytest.param(2, 10_000, "2^10000 rules exceeds the cap 1000000", id="10000"),
            pytest.param(2, 20_000, "2^20000 rules exceeds the cap 1000000", id="20000"),
            pytest.param(3, 20_000, "3^20000 rules exceeds the cap 1000000", id="3^20000"),
        ],
    )
    def test_cap_is_checked_before_any_allocation(self, n_psi, n_x, message):
        lik = np.random.default_rng(n_x).dirichlet(np.ones(n_x), size=n_psi)
        labels = tuple(f"t{i}" for i in range(n_psi)), tuple(f"x{i}" for i in range(n_x))
        model = validate(FiniteModel(*labels, lik, np.full(n_psi, 1 / n_psi)))
        psi = identity_psi(model)
        loss = make_loss("map", model.prior)
        model.joint  # a cached table of the model, not the oracle's work
        for call in (lambda: all_rules(n_psi, n_x), lambda: brute_force_bayes(model, psi, loss)):
            tracemalloc.start()
            try:
                with pytest.raises(RuleSpaceTooLargeError) as err:
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(err.value) == message
            # the message takes under 100 bytes; W alone would be 160 kB at 10,000 outcomes
            assert peak < 64 * 1024

    @pytest.mark.parametrize(
        "n_psi, n_x, count",
        [(2, 127, 2**127), (2, 128, None), (2, 129, None), (3, 80, 3**80), (3, 81, None), (7, 10**9, None)],
    )
    def test_cap_message_prints_counts_of_at_most_128_bits(self, n_psi, n_x, count):
        # 2^127 has 128 bits and 3^80 has 127; 2^128 and 3^81 have 129
        shown = "" if count is None else f" = {count}"
        with pytest.raises(RuleSpaceTooLargeError) as err:
            all_rules(n_psi, n_x)
        assert str(err.value) == f"{n_psi}^{n_x}{shown} rules exceeds the cap 1000000"

    def test_subnormal_denominator_trips_the_guard(self):
        # one over the subnormal prior mass of t2 is past the float range; bayes_rule divides
        # posterior by that mass and needs no reciprocal
        doc = json.loads((GOLDEN / "subnormal_prior.json").read_text())
        model, _ = model_from_json(doc)
        psi = identity_psi(model)
        loss = make_loss("rb", model.prior)
        rule, report = bayes_rule(model, psi, loss)
        assert rule.action_per_x == (0, 2) and report.prior_risk == 1.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RatioOverflowError, match=r"^ratio 1\.0 / 5e-324 overflows"):
                brute_force_bayes(model, psi, loss)

    def test_cap_above_the_printed_length(self):
        # a cap past 2^128 still compares the exact count
        assert decision_mod._rule_count(2, 200, 2**300) == 2**200
        assert decision_mod._rule_count(3, 189, 2**300) == 3**189
        with pytest.raises(RuleSpaceTooLargeError, match=r"^3\^190 rules exceeds the cap"):
            decision_mod._rule_count(3, 190, 2**300)
        with pytest.raises(RuleSpaceTooLargeError, match=r"^2\^302 rules exceeds the cap"):
            decision_mod._rule_count(2, 302, 2**300)

    def test_memory_is_linear_in_the_rule_count(self):
        # 2^19 rules: the risks and one half-size partial sum, not n_x x 2^19 arrays
        rng = np.random.default_rng(19)
        n_x = 19
        model = validate(
            FiniteModel(
                ("t0", "t1", "t2"),
                tuple(f"x{i}" for i in range(n_x)),
                rng.dirichlet(np.ones(n_x), size=3),
                np.array([0.2, 0.3, 0.5]),
            )
        )
        psi = PsiMap((0, 1, 1), ("p0", "p1"))
        loss = make_loss("rb", psi_marginal(model.prior, psi))
        model.joint
        tracemalloc.start()
        try:
            brute_force_bayes(model, psi, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


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

    @staticmethod
    def dense_totals(model, psi):
        """Per loss kind: the loss, its Bayes rule, and the psi x outcome and theta x outcome totals.

        Each total is a joint table over the denominators of the true values,
        zero where the rule's action is correct, summed by ``math.fsum``.
        """
        pi = psi_marginal(model.prior, psi)
        psi_of_theta = np.asarray(psi.assignment)
        # rb needs prior mass on every psi value, which a zero-prior theta denies the identity map
        for kind in LOSS_KINDS if pi.all() else ("map", "rb-eta"):
            loss = make_loss(kind, pi, eta=0.5 * float(pi.max()) if kind == "rb-eta" else None)
            rule, _ = bayes_rule(model, psi, loss)
            acts = np.asarray(rule.action_per_x)[None, :]
            psi_terms = np.where(
                np.arange(psi.n_psi)[:, None] == acts,
                0.0,
                psi_marginal(model.joint, psi) / loss.values[:, None],
            )
            theta_terms = np.where(
                psi_of_theta[:, None] == acts, 0.0, model.joint / loss.values[psi_of_theta][:, None]
            )
            yield loss, rule, math.fsum(psi_terms.ravel().tolist()), math.fsum(theta_terms.ravel().tolist())

    @settings(max_examples=100, deadline=None)
    @given(finite_models(max_theta=10, max_x=8, max_psi=4))
    def test_bitwise_the_dense_loss_table_total(self, case):
        # the definition: the (psi, x) joint over the denominators, off the rule's actions, summed
        model, psi = case
        # Against the theta x outcome total, with u = 2^-53 and k the largest fibre size:
        # a (psi, x) joint entry adds at most k terms from 0.0, so it is within (1 +- u)^(k-1)
        # of the exact fibre total, and its quotient and the fsum give two more factors: the
        # result is within (1 +- u)^(k+1) of the exact risk. The theta x outcome total is
        # within (1 +- u)^2 of it, so the two differ by at most (k + 3)u to first order,
        # and (k + 4)u bounds every order for k <= 10.
        k = int(np.bincount(psi.assignment).max())
        for loss, rule, want, theta_total in self.dense_totals(model, psi):
            got = prior_risk(model, psi, loss, rule)
            assert got.hex() == want.hex()
            assert abs(got - theta_total) <= (k + 4) * 2.0**-53 * theta_total

    @settings(max_examples=100, deadline=None)
    @given(finite_models(max_theta=10, max_x=8, max_psi=4))
    def test_identity_map_bitwise_the_theta_table_total(self, case):
        # one-theta fibres push forward as 0.0 + entry, which is exact
        model, _ = case
        psi = identity_psi(model)
        for loss, rule, want, theta_total in self.dense_totals(model, psi):
            assert want.hex() == theta_total.hex()
            assert prior_risk(model, psi, loss, rule).hex() == theta_total.hex()


def three_theta_two_outcomes():
    return validate(
        FiniteModel(
            ("a", "b", "c"),
            ("x0", "x1"),
            np.array([[0.5, 0.5], [0.4, 0.6], [0.1, 0.9]]),
            np.array([0.2, 0.3, 0.5]),
        )
    )


def three_theta_three_outcomes():
    return validate(
        FiniteModel(
            ("a", "b", "c"),
            ("x0", "x1", "x2"),
            np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]),
            np.array([0.2, 0.3, 0.5]),
        )
    )


class TestEmptyFibre:
    """Under map a psi value without prior mass weighs 0 in the risk and its cross-check."""

    def model(self):
        # theta b has no prior mass and is its own psi value under the identity map
        return validate(
            FiniteModel(
                ("a", "b", "c"),
                ("x0", "x1", "x2"),
                np.array([[0.2, 0.5, 0.3], [0.6, 0.2, 0.2], [0.1, 0.1, 0.8]]),
                np.array([0.6, 0.0, 0.4]),
            )
        )

    def test_map_prior_risk_matches_the_oracle(self):
        model = self.model()
        psi = identity_psi(model)
        loss = make_loss("map", psi_marginal(model.prior, psi))
        rule, report = bayes_rule(model, psi, loss)
        errs = conditional_error_probs(model, psi, rule)
        assert np.isnan(errs[1]) and np.all(np.isfinite(errs[[0, 2]]))
        _, best_risk = brute_force_bayes(model, psi, loss)
        assert prior_risk(model, psi, loss, rule) == report.prior_risk
        assert abs(report.prior_risk - best_risk) <= 1e-12
        with pytest.raises(ZeroPriorMassError):
            make_loss("rb", psi_marginal(model.prior, psi))

    def test_empty_value_is_nan_under_any_rule(self):
        # a rule that always picks the empty value leaves no wrong cell in its row
        model = self.model()
        errs = conditional_error_probs(model, identity_psi(model), DecisionRule((1, 1, 1), (False,) * 3))
        assert np.isnan(errs[1])
        assert errs[[0, 2]] == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_cross_check_still_trips(self, monkeypatch):
        model = self.model()
        psi = identity_psi(model)
        loss = make_loss("map", psi_marginal(model.prior, psi))
        rule, _ = bayes_rule(model, psi, loss)
        exact = decision_mod.conditional_error_probs
        monkeypatch.setattr(
            decision_mod, "conditional_error_probs", lambda *args: exact(*args) + 1e-6
        )
        with pytest.raises(RiskCrossCheckError):
            prior_risk(model, psi, loss, rule)


class TestInputChecks:
    @pytest.mark.parametrize("size", [2, 4])
    def test_prior_risk_rejects_a_loss_of_another_size(self, size):
        model = three_theta_two_outcomes()
        psi = identity_psi(model)
        rule, _ = bayes_rule(model, psi, make_loss("rb", model.prior))
        for kind in LOSS_KINDS:
            loss = make_loss(kind, np.full(size, 1.0 / size), eta=0.5)
            with pytest.raises(ValidationError, match="loss size"):
                prior_risk(model, psi, loss, rule)

    @pytest.mark.parametrize("actions", [(0, 7), (0, 3), (-1, 0)])
    def test_actions_outside_the_psi_values_rejected(self, actions):
        model = three_theta_two_outcomes()
        psi = identity_psi(model)
        loss = make_loss("rb", model.prior)
        rule = DecisionRule(actions, (False, False))
        with pytest.raises(IndexOutOfRangeError):
            prior_risk(model, psi, loss, rule)
        with pytest.raises(IndexOutOfRangeError):
            conditional_error_probs(model, psi, rule)
        with pytest.raises(IndexOutOfRangeError):
            unbiasedness_gap(model, psi, loss.values, rule)


    @pytest.mark.parametrize(
        "actions",
        [
            pytest.param((0, 1, 2.5), id="fraction"),
            pytest.param((0.0, 1.0, 2.0), id="whole-floats"),
            pytest.param((True, False, True), id="bools"),
            pytest.param((1, True, 0), id="int-and-bool"),
            pytest.param((np.True_, 0, 1), id="numpy-bool"),
        ],
    )
    def test_non_integer_actions_rejected(self, actions):
        # prior_risk and unbiasedness_gap raised a raw IndexError, and conditional_error_probs
        # counted 2.5 as always wrong and read bools as 0 and 1
        model = three_theta_three_outcomes()
        psi = identity_psi(model)
        loss = make_loss("rb", model.prior)
        rule = DecisionRule(actions, (False,) * 3)
        calls = (
            lambda: prior_risk(model, psi, loss, rule),
            lambda: conditional_error_probs(model, psi, rule),
            lambda: unbiasedness_gap(model, psi, loss.values, rule),
        )
        for call in calls:
            with pytest.raises(ValidationError, match="rule action entries must be integers"):
                call()

    def test_numpy_integer_actions_accepted(self):
        model = three_theta_three_outcomes()
        psi = identity_psi(model)
        loss = make_loss("rb", model.prior)
        plain = DecisionRule((0, 2, 1), (False,) * 3)
        numpy_ints = DecisionRule((np.int64(0), np.uint8(2), np.int32(1)), (False,) * 3)
        assert prior_risk(model, psi, loss, numpy_ints) == prior_risk(model, psi, loss, plain)
        got, want = (conditional_error_probs(model, psi, r) for r in (numpy_ints, plain))
        assert got.tobytes() == want.tobytes()

    def test_actions_checked_once_into_a_read_only_array(self, monkeypatch):
        model = three_theta_three_outcomes()
        psi = identity_psi(model)
        loss = make_loss("rb", model.prior)
        rule = DecisionRule((0, 2, 1), (False,) * 3)
        built = []
        real = model_mod._index_array
        monkeypatch.setattr(decision_mod, "_index_array", lambda *a: built.append(a) or real(*a))
        prior_risk(model, psi, loss, rule)
        conditional_error_probs(model, psi, rule)
        unbiasedness_gap(model, psi, loss.values, rule)
        assert len(built) == 1
        acts = rule.actions
        assert acts is rule.actions and acts.dtype == np.intp and not acts.flags.writeable
        assert acts.tolist() == [0, 2, 1]

    def test_wrong_length_rule_rejected_first(self):
        model = three_theta_three_outcomes()
        rule = DecisionRule((0, 1.5), (False, False))
        with pytest.raises(ValidationError, match="rule covers 2 outcomes, model has 3"):
            conditional_error_probs(model, identity_psi(model), rule)

    @pytest.mark.parametrize("assignment", [(True, False, True), (0, 1.0, 1)])
    def test_brute_force_rejects_non_integer_psi(self, assignment):
        # bools were read as 0 and 1, floats raised a raw IndexError
        model = three_theta_three_outcomes()
        psi = PsiMap(assignment, ("A", "B"))
        with pytest.raises(ValidationError, match="psi assignment entries must be integers"):
            brute_force_bayes(model, psi, make_loss("map", np.array([0.5, 0.5])))


class TestLplRegion:
    def test_rb_loss_matches_credible_region(self, rng):
        for _ in range(100):
            model, psi = random_model(rng)
            pi_psi = psi_marginal(model.prior, psi)
            x = int(rng.integers(model.n_x))
            post = psi_marginal(posterior(model, x).posterior, psi)
            t = rb_table(pi_psi, post)
            loss = make_loss("rb", t.prior)
            for gamma in attainable_gammas(t).tolist():
                lpl = lpl_region(loss, t.posterior, gamma, prior=t.prior)
                cred = credible_region(t, gamma, "sup-geq")
                assert lpl.member_indices == cred.member_indices

    def test_gamma_one_full_support(self):
        loss = make_loss("rb", [0.5, 0.5])
        assert lpl_region(loss, [0.2, 0.8], 1.0).member_indices == {0, 1}

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_posterior_mass_rejected(self, bad):
        # a NaN mass gave a region with posterior content 1.0
        loss = make_loss("rb", [0.5, 0.5])
        with pytest.raises(ValidationError, match="posterior masses must be finite"):
            lpl_region(loss, [bad, 0.8], 0.5)

    def test_negative_posterior_mass_rejected(self):
        # it gave members [1] with posterior content 1.5
        loss = make_loss("rb", [0.5, 0.5])
        with pytest.raises(ValidationError, match="posterior masses must be nonnegative"):
            lpl_region(loss, [-0.5, 1.5], 0.5)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_h_rejected(self, bad):
        # NaN passed the sign check and the gap came out nan or inf
        model = two_outcome_model()
        rule = DecisionRule(action_per_x=(1, 0), ties=(False, False))
        with pytest.raises(ValidationError, match="h weights must be finite"):
            unbiasedness_gap(model, identity_psi(model), np.array([1.0, bad]), rule)

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


def raw_model() -> tuple[FiniteModel, PsiMap]:
    """An unvalidated 7 x 5 model and a psi map onto 3 values."""
    rng = np.random.default_rng(3)
    raw = FiniteModel(
        tuple(f"t{i}" for i in range(7)),
        tuple(f"x{i}" for i in range(5)),
        rng.dirichlet(np.ones(5), size=7),
        rng.dirichlet(np.ones(7)),
    )
    return raw, PsiMap((0, 1, 2, 0, 1, 2, 0), ("a", "b", "c"))


def decide_all(model, psi, copy=lambda m: m):
    """Bits of every loss's rule, risk report, prior risk and unbiasedness gap.

    Each call gets ``copy(model)``: the model itself, or a field-for-field
    copy whose caches start empty, so that every call computes its tables.
    """
    pi = psi_marginal(model.prior, psi)
    out = []
    for kind in LOSS_KINDS:
        loss = make_loss(kind, pi, eta=0.5 * float(pi.max()) if kind == "rb-eta" else None)
        rule, report = bayes_rule(copy(model), psi, loss)
        out += [
            rule.action_per_x,
            rule.ties,
            report.prior_risk.hex(),
            report.posterior_risk_per_x.tobytes(),
            None if report.decomposition is None else report.decomposition.tobytes(),
            prior_risk(copy(model), psi, loss, rule).hex(),
            unbiasedness_gap(copy(model), psi, loss.values, rule).hex(),
        ]
    return out


class TestCachedTables:
    """One joint table and one m(x) per model; one posterior and one (psi, x) joint table per psi map."""

    def test_m_totalled_once_and_table_built_once(self, monkeypatch):
        raw, psi = raw_model()
        model = validate(raw)
        joint_totals, tables, conditionals = [], [], []
        counted_fsums, counted_marginal = fsums, model_mod.psi_marginal

        def counting_fsums(a, axis=0):
            joint_totals.append(np.shape(a) == (model.n_theta, model.n_x))
            return counted_fsums(a, axis)

        def counting_marginal(masses, p):
            # psi_joint pushes the joint itself forward; posterior_table divides it first
            tables.append(np.ndim(masses) == 2 and masses is not model.joint)
            conditionals.append(masses is model.joint)
            return counted_marginal(masses, p)

        # fsums and psi_marginal are looked up in the modules that call them
        for mod in (model_mod, decision_mod):
            monkeypatch.setattr(mod, "fsums", counting_fsums)
        monkeypatch.setattr(model_mod, "psi_marginal", counting_marginal)
        decide_all(model, psi)
        prior_predictive(model)
        assert sum(joint_totals) == 1
        assert sum(tables) == 1
        # prior_risk under every loss and its cross-checks share one (psi, x) joint table
        assert sum(conditionals) == 1
        assert posterior_table(model, psi)[0] is posterior_table(model, psi)[0]
        assert marginalize(model, psi)[1] is marginalize(model, psi)[1]
        assert psi_joint(model, psi) is psi_joint(model, psi)

    def test_posterior_reads_the_cached_m(self, monkeypatch):
        raw, _ = raw_model()
        model = validate(raw)
        m = prior_predictive(model)
        totals, exact = [], model_mod.fsums
        monkeypatch.setattr(model_mod, "fsums", lambda *a, **kw: totals.append(1) or exact(*a, **kw))
        for x in range(model.n_x):
            rep = posterior(model, x)
            assert rep.evidence_norm == m[x]
            assert rep.posterior.tobytes() == (model.joint[:, x] / m[x]).tobytes()
        assert totals == []

    def test_cached_arrays_read_only_and_bitwise_fresh(self):
        raw, psi = raw_model()
        model, fresh = validate(raw), validate(raw)
        table, m = posterior_table(model, psi)
        assert m is prior_predictive(model) is model.predictive
        for cached in (model.joint, m, table):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0.0
        joint = fresh.prior[:, None] * fresh.likelihood
        fresh_m = fsums(joint, axis=0)
        assert model.joint.tobytes() == joint.tobytes()
        assert m.tobytes() == fresh_m.tobytes()
        assert table.tobytes() == psi_marginal(joint / fresh_m, psi).T.tobytes()
        pi_psi, cond = marginalize(model, psi)
        joint_psi = psi_joint(model, psi)
        for cached in (pi_psi, cond, joint_psi):
            assert not cached.flags.writeable
        fresh_pi = psi_marginal(fresh.prior, psi)
        assert pi_psi.tobytes() == fresh_pi.tobytes()
        assert joint_psi.tobytes() == psi_marginal(joint, psi).tobytes()
        assert cond.tobytes() == (psi_marginal(joint, psi) / fresh_pi[:, None]).tobytes()

    def test_dropped_psi_map_releases_its_table(self):
        raw, psi = raw_model()
        model = validate(raw)
        table, _ = posterior_table(model, psi)
        table_ref, psi_ref = weakref.ref(table), weakref.ref(psi)
        del table, psi
        gc.collect()
        assert psi_ref() is None and table_ref() is None
        assert len(model._psi_tables) == 0

    @settings(max_examples=100, deadline=None)
    @given(finite_models(max_theta=10, max_x=8, max_psi=4))
    def test_cached_and_uncached_paths_agree(self, case):
        model, psi = case
        assert decide_all(model, psi) == decide_all(model, psi, dataclasses.replace)
