import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from relbel.errors import BadGammaError, ValidationError, ZeroPriorPositivePosteriorError
from relbel.evidence import (
    assess_hypothesis,
    attainable_gammas,
    credible_region,
    plausible_region,
    rb_estimate,
    rb_predict,
    rb_table,
    strength,
    table_from_gridded,
)
from relbel.grids import build_grid, discretize_cdf
from relbel.model import posterior, prior_predictive, psi_marginal
from conftest import random_model


def example_table():
    return rb_table([0.5, 0.5], [0.2, 0.8])


class TestRbTable:
    def test_no_belief_change(self):
        t = rb_table([0.3, 0.7], [0.3, 0.7])
        assert np.allclose(t.rb, 1.0, atol=1e-15)

    def test_hand_division(self):
        t = example_table()
        assert np.allclose(t.rb, [0.4, 1.6], atol=1e-15)

    def test_skewed_but_unchanged(self):
        t = rb_table([0.9, 0.1], [0.9, 0.1])
        assert np.all(t.rb == 1.0)

    def test_zero_prior_positive_posterior_rejected(self):
        with pytest.raises(ZeroPriorPositivePosteriorError):
            rb_table([0.0, 1.0], [0.5, 0.5])

    def test_zero_prior_cells_dropped_and_counted(self):
        t = rb_table([0.5, 0.0, 0.5], [0.2, 0.0, 0.8], labels=("a", "b", "c"))
        assert t.dropped_zero_prior == 1
        assert t.labels == ("a", "c")
        assert t.kept_indices.tolist() == [0, 2]
        assert not t.kept_indices.flags.writeable
        assert t.original_indices([1]) == {2}

    def test_normalization_invariant(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 12))
            prior = rng.dirichlet(np.ones(n))
            post = rng.dirichlet(np.ones(n))
            t = rb_table(prior, post)
            assert abs(math.fsum((t.rb * t.prior).tolist()) - 1.0) < 1e-9

    def test_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            rb_table([0.5, 0.5], [1.0])

    def test_non_finite_masses_rejected(self):
        for prior, post in (([0.5, 0.5], [np.nan, 1.0]), ([np.nan, 0.5], [0.5, 0.5])):
            with pytest.raises(ValidationError, match="finite"):
                rb_table(prior, post)


class TestEstimate:
    def test_hand_example(self):
        assert rb_estimate(example_table()) == (1, False)

    def test_total_tie_flagged(self):
        est = rb_estimate(rb_table([0.5, 0.5], [0.5, 0.5]))
        assert est.index == 0 and est.tie is True

    def test_uniform_prior_matches_posterior_mode(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            post = rng.dirichlet(np.ones(n))
            t = rb_table(np.full(n, 1.0 / n), post)
            assert rb_estimate(t).index == int(np.argmax(post))


class TestPlausible:
    def test_empty_when_no_change(self):
        assert plausible_region(rb_table([0.4, 0.6], [0.4, 0.6])).member_indices == frozenset()

    def test_hand_example(self):
        reg = plausible_region(example_table())
        assert reg.member_indices == {1}
        assert reg.posterior_content == pytest.approx(0.8, abs=1e-15)

    def test_posterior_content_exceeds_prior_content(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 10))
            t = rb_table(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
            reg = plausible_region(t)
            if reg.member_indices:
                assert reg.posterior_content > reg.prior_content


class TestCredible:
    def test_gamma_one_full_support(self):
        reg = credible_region(example_table(), 1.0)
        assert reg.member_indices == {0, 1}
        assert reg.posterior_content == pytest.approx(1.0, abs=1e-12)

    def test_hand_example(self):
        reg = credible_region(example_table(), 0.8)
        assert reg.member_indices == {1}
        assert reg.cutoff == pytest.approx(1.6, abs=1e-15)

    def test_gamma_zero_contains_maximizer(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 10))
            t = rb_table(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
            reg = credible_region(t, 0.0)
            assert rb_estimate(t).index in reg.member_indices

    def test_monotone_nesting(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 10))
            t = rb_table(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
            gammas = sorted(rng.uniform(0, 1, size=4))
            regions = [credible_region(t, g).member_indices for g in gammas]
            for small, large in zip(regions, regions[1:]):
                assert small <= large

    def test_content_reaches_gamma_sup_geq(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 10))
            t = rb_table(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
            g = float(rng.uniform(0, 1))
            assert credible_region(t, g).posterior_content >= g - 1e-12

    def test_quantile_gt_matches_plausible_at_its_content(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 10))
            t = rb_table(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
            pl = plausible_region(t)
            reg = credible_region(t, pl.posterior_content, "quantile-gt")
            assert reg.member_indices == pl.member_indices

    def test_quantile_gt_tie_with_rb_exactly_one(self):
        # posterior equals prior on one value, so rb = 1 sits in the table
        t = rb_table([0.25, 0.5, 0.25], [0.1, 0.5, 0.4])
        pl = plausible_region(t)
        reg = credible_region(t, pl.posterior_content, "quantile-gt")
        assert reg.member_indices == pl.member_indices == {2}

    def test_plausible_content_past_one_round_trips(self):
        # the normalized posterior of the eight kept cells fsums to 1 + 2**-52,
        # and every one of them has rb > 1
        t = rb_table(
            [0.5] + [0.0625] * 8,
            [0.0, 0.13993458547651016, 0.14780797014690802, 0.12905580721766435,
             0.14632169480832322, 0.06370268976432047, 0.16072471746814834,
             0.0669444269295607, 0.14550810818856466],
        )
        pl = plausible_region(t)
        assert pl.posterior_content == 1.0 + 2.0**-52
        for convention in ("sup-geq", "quantile-gt"):
            reg = credible_region(t, pl.posterior_content, convention)
            assert reg.member_indices == pl.member_indices == set(range(1, 9))
        with pytest.raises(BadGammaError):
            credible_region(t, 1.0 + 2.0**-51)

    def test_bad_gamma(self):
        with pytest.raises(BadGammaError):
            credible_region(example_table(), 1.5)
        with pytest.raises(ValidationError):
            credible_region(example_table(), 0.5, "middle-out")


class TestStrengthAndHypothesis:
    def test_maximizer_has_strength_one(self):
        assert strength(example_table(), 1) == pytest.approx(1.0, abs=1e-12)

    def test_hand_example(self):
        assert strength(example_table(), 0) == pytest.approx(0.2, abs=1e-15)

    def test_flat_table_strength_one_everywhere(self):
        t = rb_table([0.3, 0.7], [0.3, 0.7])
        assert strength(t, 0) == pytest.approx(1.0, abs=1e-12)
        assert strength(t, 1) == pytest.approx(1.0, abs=1e-12)

    def test_verdicts(self):
        t = example_table()
        rep1 = assess_hypothesis(t, 1)
        assert rep1.verdict == "evidence-for" and rep1.strength == pytest.approx(1.0)
        rep0 = assess_hypothesis(t, 0)
        assert rep0.verdict == "evidence-against" and rep0.strength == pytest.approx(0.2)
        flat = assess_hypothesis(rb_table([0.5, 0.5], [0.5, 0.5]), 0)
        assert flat.verdict == "no-evidence"


class TestPredict:
    def test_no_change_total_tie(self):
        _, est = rb_predict([0.5, 0.5], [0.5, 0.5])
        assert est == (0, True)

    def test_hand_example(self):
        _, est = rb_predict([0.5, 0.5], [0.1, 0.9])
        assert est.index == 1

    def test_point_mass(self):
        _, est = rb_predict([0.5, 0.5], [0.0, 1.0])
        assert est.index == 1


class TestBijectionInvariance:
    def test_permutation_permutes_everything(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 10))
            prior = rng.dirichlet(np.ones(n))
            post = rng.dirichlet(np.ones(n))
            t = rb_table(prior, post)
            perm = rng.permutation(n)
            tp = rb_table(prior[perm], post[perm])
            assert np.allclose(tp.rb, t.rb[perm], atol=0)
            inv = np.empty(n, dtype=int)
            inv[perm] = np.arange(n)
            assert plausible_region(tp).member_indices == {
                int(inv[i]) for i in plausible_region(t).member_indices
            }
            g = float(rng.uniform(0, 1))
            assert credible_region(tp, g).member_indices == {
                int(inv[i]) for i in credible_region(t, g).member_indices
            }


class TestGridTables:
    def test_grid_table_and_reparam_rb_identity(self):
        # strictly monotone map of the cells transports masses exactly, so
        # rb per cell is unchanged while cell shapes are not
        grid = build_grid(-5, 5, 200)
        prior = discretize_cdf(stats.norm(0, 1).cdf, grid, warn_tail=None)
        post = discretize_cdf(stats.norm(0.75, math.sqrt(0.5)).cdf, grid, warn_tail=None)
        t = table_from_gridded(prior, post)
        edges = grid.edges
        image_prior = np.diff(stats.lognorm(s=1.0).cdf(np.exp(edges)))
        image_post = np.diff(stats.lognorm(s=math.sqrt(0.5), scale=math.exp(0.75)).cdf(np.exp(edges)))
        ti = rb_table(
            image_prior / math.fsum(image_prior.tolist()),
            image_post / math.fsum(image_post.tolist()),
        )
        common = sorted(set(t.kept_indices) & set(ti.kept_indices))
        pos = {k: i for i, k in enumerate(t.kept_indices)}
        pos_i = {k: i for i, k in enumerate(ti.kept_indices)}
        for k in common:
            assert t.rb[pos[k]] == pytest.approx(ti.rb[pos_i[k]], rel=1e-9)

    def test_attainable_gammas_are_step_contents(self):
        t = example_table()
        assert np.allclose(sorted(attainable_gammas(t)), [0.8, 1.0], atol=1e-12)


def test_tables_from_models_normalize(rng):
    # every table produced from a model keeps sum(rb * prior) = 1
    for _ in range(50):
        model, psi = random_model(rng)
        for x in range(model.n_x):
            prior = psi_marginal(model.prior, psi)
            post = psi_marginal(posterior(model, x).posterior, psi)
            t = rb_table(prior, post)
            assert abs(math.fsum((t.rb * t.prior).tolist()) - 1.0) < 1e-9
            assert prior_predictive(model).shape == (model.n_x,)


@st.composite
def zero_prior_tables(draw):
    """Masses with zero-prior cells, some zero-likelihood cells and rb ties.

    Returns (prior, posterior, labels, table); labels are label objects, a
    float array as for grid midpoints, or absent (positions).
    """
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kept = rng.random(n) < draw(st.floats(0.1, 1.0))
    kept[rng.integers(n)] = True
    prior = np.where(kept, rng.dirichlet(np.ones(n)), 0.0)
    # small integer likelihoods make ties; zeros leave positive-prior cells
    # without posterior mass
    lik = rng.integers(0, 4, size=n).astype(float) if draw(st.booleans()) else rng.random(n)
    lik[np.flatnonzero(kept)[0]] = 1.0
    post = prior * lik
    prior, post = prior / math.fsum(prior.tolist()), post / math.fsum(post.tolist())
    choices = [tuple(f"v{i}" for i in range(n)), build_grid(-1.0, 1.0, n).midpoints, None]
    labels = draw(st.sampled_from(choices))
    return prior, post, labels, rb_table(prior, post, labels=labels)


class TestZeroPriorProperties:
    @settings(max_examples=200, deadline=None)
    @given(zero_prior_tables(), st.data())
    def test_index_data_matches_per_cell_reference(self, case, data):
        prior, _, labels, t = case
        kept = [i for i in range(len(prior)) if prior[i] != 0.0]
        assert t.kept_indices.tolist() == kept
        assert not t.kept_indices.flags.writeable
        assert t.dropped_zero_prior == len(prior) - len(kept)
        assert list(t.labels) == (kept if labels is None else [labels[i] for i in kept])
        rows = data.draw(st.sets(st.integers(0, len(t) - 1)))
        assert t.original_indices(rows) == {kept[r] for r in rows}

    @settings(max_examples=200, deadline=None)
    @given(zero_prior_tables())
    def test_prior_times_rb_sums_to_one(self, case):
        t = case[3]
        assert abs(math.fsum((t.prior * t.rb).tolist()) - 1.0) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(zero_prior_tables(), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5))
    def test_credible_regions_nest_in_gamma(self, case, gammas):
        t = case[3]
        for convention in ("sup-geq", "quantile-gt"):
            regions = [credible_region(t, g, convention).member_indices for g in sorted(gammas)]
            for small, large in zip(regions, regions[1:]):
                assert small <= large

    @settings(max_examples=200, deadline=None)
    @given(zero_prior_tables())
    def test_quantile_gt_at_plausible_content_is_plausible_region(self, case):
        t = case[3]
        pl = plausible_region(t)
        reg = credible_region(t, pl.posterior_content, "quantile-gt")
        assert reg.member_indices == pl.member_indices
