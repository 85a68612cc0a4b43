import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import relbel.classify as classify_mod
from relbel.classify import (
    PredictiveSpec,
    RiskTableRow,
    TwoClassSpec,
    classify_known_eps,
    error_sum,
    map_rule,
    predictive_classify,
    rb_rule,
    risk_table,
)
from relbel.errors import BothDensitiesZeroError, ValidationError


DIAGNOSTIC = TwoClassSpec(psi0=0.05, psi1=0.80, epsilon=0.01)


class TestKnownEps:
    def test_rare_disease_positive_test(self):
        res = classify_known_eps(DIAGNOSTIC, 1)
        assert res.map_label == 0 and res.rb_label == 1

    def test_rare_disease_negative_test(self):
        res = classify_known_eps(DIAGNOSTIC, 0)
        assert res.map_label == 0 and res.rb_label == 0

    def test_balanced_prior_labels_agree(self):
        spec = TwoClassSpec(psi0=0.05, psi1=0.80, epsilon=0.5)
        for x in (0, 1):
            res = classify_known_eps(spec, x)
            assert res.map_label == res.rb_label

    def test_exact_map_threshold(self):
        # with rates (0.05, 0.80) the positive-test switch is at 1/17
        below = TwoClassSpec(0.05, 0.80, 1.0 / 17.0 - 1e-12)
        above = TwoClassSpec(0.05, 0.80, 1.0 / 17.0 + 1e-12)
        assert classify_known_eps(below, 1).map_label == 0
        assert classify_known_eps(above, 1).map_label == 1

    def test_exact_map_tie_labels_0(self):
        # equal class posteriors at both results; at x = 1, 0.8 * 0.2 and 0.2 * 0.8 share their bits
        tie = TwoClassSpec(0.5, 0.5, 0.5)
        assert map_rule(tie) == rb_rule(tie) == (0, 0)
        assert error_sum(tie, map_rule(tie)) == (0.0, 1.0, 1.0)
        swapped = TwoClassSpec(0.2, 0.8, 0.2)
        res = classify_known_eps(swapped, 1)
        assert (res.map_label, res.rb_label) == (0, 1)

    def test_rb_label_invariant_to_eps(self):
        for eps in (0.001, 0.3, 0.999):
            spec = TwoClassSpec(0.05, 0.80, eps)
            assert rb_rule(spec) == rb_rule(DIAGNOSTIC)

    def test_interior_validation(self):
        with pytest.raises(ValidationError):
            TwoClassSpec(0.0, 0.5, 0.5)


class TestErrorSum:
    def test_rb_rule_error_sum(self):
        err0, err1, total = error_sum(DIAGNOSTIC, rb_rule(DIAGNOSTIC))
        assert err0 == pytest.approx(0.05, abs=1e-15)
        assert err1 == pytest.approx(0.20, abs=1e-15)
        assert total == pytest.approx(0.25, abs=1e-15)

    def test_map_rule_error_sum(self):
        _, _, total = error_sum(DIAGNOSTIC, map_rule(DIAGNOSTIC))
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_nearly_separated_rates(self):
        spec = TwoClassSpec(1e-12, 1.0 - 1e-12, 0.5)
        _, _, total = error_sum(spec, rb_rule(spec))
        assert total == pytest.approx(0.0, abs=1e-11)

    def test_rb_rule_minimizes_error_sum(self, rng):
        # among the four deterministic rules, when psi0 < 0.5 < psi1
        for _ in range(50):
            spec = TwoClassSpec(
                psi0=float(rng.uniform(0.01, 0.49)),
                psi1=float(rng.uniform(0.51, 0.99)),
                epsilon=float(rng.uniform(0.01, 0.99)),
            )
            sums = [
                error_sum(spec, rule)[2]
                for rule in ((0, 0), (0, 1), (1, 0), (1, 1))
            ]
            assert error_sum(spec, rb_rule(spec))[2] == pytest.approx(min(sums), abs=1e-12)


class TestPredictive:
    def test_symmetric_prior_labels_agree(self, rng):
        for _ in range(50):
            a = float(rng.uniform(0.5, 20))
            spec = PredictiveSpec(
                alpha=a,
                beta=a,
                n=10,
                c_bar=float(rng.integers(0, 11)) / 10,
                f0_at_x=float(rng.uniform(0.01, 2)),
                f1_at_x=float(rng.uniform(0.01, 2)),
            )
            res = predictive_classify(spec)
            assert res.c_map == res.c_rb

    def test_rb_one_whenever_map_one(self, rng):
        # alpha = 1 with large beta: the evidence label is never stricter
        for _ in range(200):
            spec = PredictiveSpec(
                alpha=1.0,
                beta=100.0,
                n=10,
                c_bar=float(rng.integers(0, 11)) / 10,
                f0_at_x=float(rng.uniform(0.001, 3)),
                f1_at_x=float(rng.uniform(0.001, 3)),
            )
            res = predictive_classify(spec)
            if res.c_map == 1:
                assert res.c_rb == 1

    def test_tie_labels_zero(self):
        spec = PredictiveSpec(alpha=1.0, beta=1.0, n=0, c_bar=0.0, f0_at_x=0.7, f1_at_x=0.7)
        res = predictive_classify(spec)
        assert res.c_map == 0 and res.c_rb == 0
        assert res.map_ratio == pytest.approx(1.0)
        assert res.rb_ratio == pytest.approx(1.0)

    def test_brute_force_predictive_ratio_oracle(self, rng):
        # integrate the beta posterior numerically and compare ratios
        for _ in range(20):
            alpha = float(rng.uniform(0.5, 5))
            beta = float(rng.uniform(0.5, 50))
            n = int(rng.integers(0, 12))
            k = int(rng.integers(0, n + 1)) if n else 0
            f0 = float(rng.uniform(0.05, 2))
            f1 = float(rng.uniform(0.05, 2))
            spec = PredictiveSpec(
                alpha=alpha, beta=beta, n=n, c_bar=k / n if n else 0.0, f0_at_x=f0, f1_at_x=f1
            )
            res = predictive_classify(spec)
            eps_grid = np.linspace(1e-9, 1 - 1e-9, 20001)
            w = stats.beta.pdf(eps_grid, alpha + k, beta + n - k)
            w /= w.sum()
            post1 = f1 * float((w * eps_grid).sum())
            post0 = f0 * float((w * (1 - eps_grid)).sum())
            map_oracle = post1 / post0
            prior1 = alpha / (alpha + beta)
            rb_oracle = (post1 / prior1) / (post0 / (1 - prior1))
            assert res.map_ratio == pytest.approx(map_oracle, rel=1e-3)
            assert res.rb_ratio == pytest.approx(rb_oracle, rel=1e-3)

    def test_zero_density_handling(self):
        res = predictive_classify(
            PredictiveSpec(alpha=1.0, beta=1.0, n=0, c_bar=0.0, f0_at_x=0.0, f1_at_x=1.0)
        )
        assert res.c_map == 1 and math.isinf(res.map_ratio)
        with pytest.raises(BothDensitiesZeroError):
            PredictiveSpec(alpha=1.0, beta=1.0, n=0, c_bar=0.0, f0_at_x=0.0, f1_at_x=0.0)

    def test_non_integer_count_rejected(self):
        with pytest.raises(ValidationError):
            PredictiveSpec(alpha=1.0, beta=1.0, n=10, c_bar=0.55, f0_at_x=1.0, f1_at_x=1.0)

    @pytest.mark.parametrize("field", ["alpha", "beta", "f0_at_x", "f1_at_x"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        good = dict(alpha=1.0, beta=1.0, n=0, c_bar=0.0, f0_at_x=1.0, f1_at_x=1.0)
        with pytest.raises(ValidationError, match="finite"):
            PredictiveSpec(**{**good, field: value})


class TestRiskTable:
    def test_determinism(self):
        a = risk_table(1.0, [14.0], 1.0, 10, 5000, 123)
        b = risk_table(1.0, [14.0], 1.0, 10, 5000, 123)
        assert a == b

    def test_rows_independent_of_batch(self):
        both = risk_table(1.0, [1.0, 32.0], 1.0, 10, 5000, 9)
        alone = risk_table(1.0, [32.0], 1.0, 10, 5000, 9)
        # same (seed, beta index) gives the same row regardless of the list
        recomputed = risk_table(1.0, [1.0], 1.0, 10, 5000, 9)[0]
        assert both[0] == recomputed
        assert alone[0] != both[1]

    @pytest.mark.parametrize("reps", [1, 6, 7, 8, 1000])
    def test_rows_independent_of_the_chunk_size(self, monkeypatch, reps):
        whole = risk_table(1.0, [1.0, 14.0], 1.3, 10, reps, 21)
        # n = 10 draws 23 doubles a replication: one chunk at the default
        # budget, chunks of 7 replications at 161 doubles and of 4 at 100
        assert reps * classify_mod._columns(10) <= classify_mod._CHUNK_DOUBLES
        for budget in (161, 100):
            monkeypatch.setattr(classify_mod, "_CHUNK_DOUBLES", budget)
            assert risk_table(1.0, [1.0, 14.0], 1.3, 10, reps, 21) == whole

    def test_chunk_memory_does_not_grow_with_n(self):
        # 2^15 replications at n = 10, as many doubles at every n
        budget = classify_mod._CHUNK_DOUBLES
        assert budget // classify_mod._columns(10) == 2**15
        tracemalloc.start()
        try:
            risk_table(1.0, [1.0], 1.0, 2000, 1000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one replication alone holds 4,003 doubles: 1,000 of them would take 32 MB
        assert peak < 3 * 8 * budget, peak

    def test_n_capped_so_one_replication_fits_a_chunk(self, monkeypatch):
        cap = classify_mod._N_CAP
        assert classify_mod._columns(cap) <= classify_mod._CHUNK_DOUBLES
        assert classify_mod._columns(cap + 1) > classify_mod._CHUNK_DOUBLES

        def no_draws(*_):
            raise AssertionError("a Philox stream was built before validation")

        monkeypatch.setattr(np.random, "Philox", no_draws)
        for n in (cap + 1, 10**12):
            with pytest.raises(ValidationError, match="n must be in"):
                risk_table(1.0, [1.0], 1.0, n, 1, 1)

    def test_alpha_beta_symmetric_classifiers_match(self):
        (row,) = risk_table(1.0, [1.0], 1.0, 10, 40000, 11)
        stderr = 2.0 * math.sqrt(0.25 / row.reps)
        assert abs(row.map_sum - row.rb_sum) <= 4 * stderr

    def test_separated_classes_no_errors(self):
        (row,) = risk_table(1.0, [1.0], 8.0, 10, 20000, 5)
        assert row.map_sum < 0.01 and row.rb_sum < 0.01

    def test_rb_dominates_map_at_alpha_one(self):
        rows = risk_table(1.0, [1.0, 4.0, 14.0, 32.0, 100.0], 1.0, 10, 20000, 17)
        for row in rows:
            stderr = math.sqrt(2 * 0.25 / row.reps)
            assert row.rb_sum <= row.map_sum + 2 * stderr

    def test_errors_within_unit_interval(self):
        for row in risk_table(1.0, [1.0, 14.0], 1.0, 10, 2000, 3):
            for v in (row.map_err0, row.map_err1, row.rb_err0, row.rb_err1):
                assert 0.0 <= v <= 1.0
            assert row.map_sum == pytest.approx(row.map_err0 + row.map_err1)

    def test_header_schema(self):
        # the fields are the columns of the classify table1 CSV, in order
        assert [f.name for f in dataclasses.fields(RiskTableRow)] == [
            "beta", "map_err0", "map_err1", "map_sum", "rb_err0", "rb_err1", "rb_sum", "reps", "seed"
        ]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            risk_table(1.0, [1.0], 1.0, 10, 0, 1)
        with pytest.raises(ValidationError):
            risk_table(1.0, [-2.0], 1.0, 10, 10, 1)

    @pytest.mark.parametrize(
        "args",
        [
            (math.nan, [1.0], 1.0, 10, 10, 1),
            (math.inf, [1.0], 1.0, 10, 10, 1),
            (1.0, [1.0, math.nan], 1.0, 10, 10, 1),
            (1.0, [1.0, math.inf], 1.0, 10, 10, 1),
            (1.0, [1.0], math.nan, 10, 10, 1),
            (1.0, [1.0], -math.inf, 10, 10, 1),
            (1.0, [1.0], 1.0, 10, 10, -1),
        ],
    )
    def test_rejects_non_finite_parameters_before_any_draw(self, monkeypatch, args):
        def no_draws(*_):
            raise AssertionError("a Philox stream was built before validation")

        monkeypatch.setattr(np.random, "Philox", no_draws)
        with pytest.raises(ValidationError):
            risk_table(*args)
