import math
import warnings
from dataclasses import astuple
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from relbel.decision import lpl_region, make_loss
from relbel.errors import (
    BadGammaError,
    IndexOutOfRangeError,
    NumericalGuardError,
    RatioOverflowError,
    ValidationError,
    ZeroPriorPositivePosteriorError,
)
from relbel.evidence import (
    assess_hypothesis,
    attainable_gammas,
    credible_region,
    plausible_region,
    rb_estimate,
    rb_table,
    strength,
    table_from_gridded,
    table_from_model,
)
import relbel.evidence as evidence_mod
from relbel._sums import fsums
from relbel.grids import _normalize, build_grid, masses_from_cdf
from relbel.limits import eta_limit, lpl_sandwich
from relbel.model import (
    FiniteModel,
    PsiMap,
    posterior,
    prior_predictive,
    psi_joint,
    psi_marginal,
    validate,
)
from conftest import finite_models, random_model


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

    def test_zero_prior_cells_kept_in_place_and_counted(self):
        t = rb_table([0.5, 0.0, 0.5], [0.2, 0.0, 0.8], labels=("a", "b", "c"))
        assert t.dropped_zero_prior == 1
        assert t.labels == ("a", "b", "c")
        assert t.prior.tolist() == [0.5, 0.0, 0.5] and t.posterior.tolist() == [0.2, 0.0, 0.8]
        assert t.rb.tolist() == [0.4, -math.inf, 1.6]
        assert len(t) == 3 and rb_estimate(t) == (2, False)

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

    def test_labels_tuple_kept_when_nothing_drops(self):
        labels = ("a", "b", "c")
        assert rb_table([0.2, 0.3, 0.5], [0.1, 0.1, 0.8], labels=labels).labels is labels
        assert rb_table([0.5, 0.0, 0.5], [0.2, 0.0, 0.8], labels=labels).labels is labels
        assert rb_table([0.5, 0.5], [0.2, 0.8], labels=["a", "b"]).labels == ("a", "b")

    @pytest.mark.parametrize("assignment", [(True, False, True), (0, 1.0, 1), (np.True_, 0, 1)])
    def test_table_from_model_rejects_non_integer_psi(self, assignment):
        # bools were read as 0 and 1, floats raised a raw TypeError
        lik = np.array([[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]])
        model = validate(FiniteModel(("a", "b", "c"), ("x0", "x1"), lik, np.array([0.2, 0.3, 0.5])))
        with pytest.raises(ValidationError, match="psi assignment entries must be integers"):
            table_from_model(model, 0, PsiMap(assignment, ("A", "B")))

    def test_non_finite_masses_rejected(self):
        for prior, post in (([0.5, 0.5], [np.nan, 1.0]), ([np.nan, 0.5], [0.5, 0.5])):
            with pytest.raises(ValidationError, match="finite"):
                rb_table(prior, post)


class TestEstimate:
    def test_hand_example(self):
        assert rb_estimate(example_table()) == (1, False)

    def test_point_mass(self):
        assert rb_estimate(rb_table([0.5, 0.5], [0.0, 1.0])) == (1, False)

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
        # the posterior of the eight cells with mass fsums to 1 + 2**-52, and
        # every one of them has rb > 1
        t = rb_table(
            [0.5] + [0.0625] * 8,
            [0.0, 0.1399345854765102, 0.14780797014690805, 0.12905580721766438,
             0.14632169480832324, 0.06370268976432049, 0.16072471746814837,
             0.06694442692956071, 0.1455081081885647],
        )
        pl = plausible_region(t)
        assert pl.posterior_content == 1.0 + 2.0**-52
        for convention in ("sup-geq", "quantile-gt"):
            reg = credible_region(t, pl.posterior_content, convention)
            assert reg.member_indices == pl.member_indices == set(range(1, 9))
        with pytest.raises(BadGammaError):
            credible_region(t, 1.0 + 2.0**-51)

    def test_infinite_ratios_raise_the_guard(self):
        # two posterior masses over a subnormal prior mass overflow the float
        # range; the table refuses them, without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RatioOverflowError, match=r"^ratio 0\.25 / 5e-324 overflows") as exc:
                rb_table([5e-324, 5e-324, 1.0], [0.25, 0.25, 0.5])
            # a value without prior mass ahead of them is not the one named
            with pytest.raises(RatioOverflowError, match=r"^ratio 0\.25 / 5e-324 overflows"):
                rb_table([0.0, 5e-324, 5e-324, 1.0], [0.0, 0.25, 0.25, 0.5])
        assert isinstance(exc.value, NumericalGuardError)

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
        prior = _normalize(grid, masses_from_cdf(stats.norm(0, 1).cdf, grid.edges))
        post = _normalize(
            grid, masses_from_cdf(stats.norm(0.75, math.sqrt(0.5)).cdf, grid.edges)
        )
        t = table_from_gridded(prior, post)
        edges = grid.edges
        image_prior = np.diff(stats.lognorm(s=1.0).cdf(np.exp(edges)))
        image_post = np.diff(stats.lognorm(s=math.sqrt(0.5), scale=math.exp(0.75)).cdf(np.exp(edges)))
        ti = rb_table(
            image_prior / math.fsum(image_prior.tolist()),
            image_post / math.fsum(image_post.tolist()),
        )
        both = (t.prior > 0.0) & (ti.prior > 0.0)
        assert both.any()
        assert t.rb[both] == pytest.approx(ti.rb[both], rel=1e-9)

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
    @given(zero_prior_tables())
    def test_index_data_matches_per_cell_reference(self, case):
        prior, post, labels, t = case
        dropped = [i for i in range(len(prior)) if prior[i] == 0.0]
        assert np.flatnonzero(t.rb == -math.inf).tolist() == dropped
        assert t.dropped_zero_prior == len(dropped)
        assert len(t) == len(prior)
        assert t.prior.tobytes() == prior.tobytes() and t.posterior.tobytes() == post.tobytes()
        assert list(t.labels) == list(range(len(prior)) if labels is None else labels)

    @settings(max_examples=200, deadline=None)
    @given(zero_prior_tables())
    def test_prior_times_rb_sums_to_one(self, case):
        # over the values with prior mass: 0 * -inf is NaN
        t = case[3]
        kept = t.prior > 0.0
        assert abs(math.fsum((t.prior[kept] * t.rb[kept]).tolist()) - 1.0) <= 1e-9

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


def quantile_oracle(t, gamma):
    """The ``quantile-gt`` cutoff as first written: a bisection over
    ``np.unique(t.rb)`` with one masked exact total per probe; when the
    table's exact total does not pass ``gamma``, no level does, and the
    cutoff leaves the values with posterior mass. The ``-inf`` level of the
    values without prior mass is no cutoff."""
    levels = np.unique(t.rb[t.rb > -math.inf])
    if float(fsums(t.posterior)) <= gamma:
        return 0.0 if levels[0] == 0.0 else -math.inf

    def small_enough(j):
        return float(fsums(t.posterior[t.rb > levels[j]])) <= gamma

    return float(levels[bisect_left(range(len(levels) - 1), True, key=small_enough)])


def bisected_superlevel_cutoff(t, gamma):
    """The ``sup-geq`` cutoff by a bisection over the positive ``np.unique(t.rb)``
    with one masked exact total per probe; when no level holds ``gamma``, the
    least positive level."""
    levels = np.unique(t.rb[t.rb > 0.0])[::-1]

    def enough(j):
        return float(fsums(t.posterior[t.rb >= levels[j]])) >= gamma

    found = bisect_left(range(len(levels)), True, key=enough)
    return float(levels[min(found, len(levels) - 1)])


def quantile_gammas(t, drawn, every=1):
    """Gammas where the cutoff is decided by a hair: every ``every``-th
    attainable content and the floats either side of it, the plausible
    region's content, and ``drawn``; those beyond the admissible range are
    left out."""
    contents = attainable_gammas(t)[::every].tolist() + [plausible_region(t).posterior_content]
    near = [float(np.nextafter(g, d)) for g in contents for d in (-math.inf, math.inf)]
    top = float(fsums(t.posterior))
    return [g for g in contents + near + drawn if 0.0 <= g <= max(1.0, top)]


class TestQuantileCutoffMatchesBisection:
    """The cutoffs bisected with the prefix-sum bound have the bits of a
    masked exact-total bisection."""

    @settings(max_examples=300, deadline=None)
    @given(zero_prior_tables(), st.lists(st.floats(0.0, 1.0), max_size=4))
    def test_bitwise_on_ties_and_zero_posterior_cells(self, case, drawn):
        t = case[3]
        for g in quantile_gammas(t, drawn):
            want = quantile_oracle(t, g)
            reg = credible_region(t, g, "quantile-gt")
            assert reg.cutoff.hex() == want.hex()
            assert reg.member_indices == frozenset(np.flatnonzero(t.rb > want).tolist())

    @pytest.mark.parametrize("n, ties", [(5_000, False), (5_000, True), (40, True)])
    def test_bitwise_and_few_exact_probes_on_large_tables(self, monkeypatch, n, ties):
        rng = np.random.default_rng(n + ties)
        prior = rng.dirichlet(np.ones(n))
        lik = rng.integers(0, 5, size=n).astype(float) if ties else rng.random(n)
        post = prior * lik
        t = rb_table(prior, post / math.fsum(post.tolist()))
        probes = []
        exact = evidence_mod.fsums
        monkeypatch.setattr(
            evidence_mod, "fsums", lambda a, *args: probes.append(len(a)) or exact(a, *args)
        )
        oracles = {"sup-geq": bisected_superlevel_cutoff, "quantile-gt": quantile_oracle}
        for g in quantile_gammas(t, rng.uniform(0.0, 1.0, size=20).tolist(), every=max(n // 40, 1)):
            for convention, oracle in oracles.items():
                want = oracle(t, g)
                probes.clear()
                reg = credible_region(t, g, convention)
                assert reg.cutoff.hex() == want.hex()
                # the region's two contents and at most one exact probe
                assert len(probes) <= 3


class TestOneIndexSpace:
    """A table keeps every input value in place: each inference on it is the inference on
    the table of its values with prior mass, read in input positions."""

    @settings(max_examples=200, deadline=None)
    @given(zero_prior_tables(), st.lists(st.floats(0.0, 1.0), max_size=3))
    def test_full_table_is_the_positive_prior_table_in_input_positions(self, case, drawn):
        prior, post, _, t = case
        kept = np.flatnonzero(prior > 0.0)
        sub = rb_table(prior[kept], post[kept])
        assert np.flatnonzero(t.rb == -math.inf).tolist() == np.flatnonzero(prior == 0.0).tolist()
        assert t.dropped_zero_prior == len(prior) - len(kept) and sub.dropped_zero_prior == 0
        assert t.rb[kept].tobytes() == sub.rb.tobytes()
        est, sub_est = rb_estimate(t), rb_estimate(sub)
        assert (est.index, est.tie) == (kept[sub_est.index], sub_est.tie)

        def same(region, sub_region):
            assert region.members.tolist() == kept[sub_region.members].tolist()
            for field in ("cutoff", "posterior_content", "prior_content"):
                assert getattr(region, field).hex() == getattr(sub_region, field).hex()

        same(plausible_region(t), plausible_region(sub))
        for g in quantile_gammas(sub, drawn):
            for convention in ("sup-geq", "quantile-gt"):
                same(credible_region(t, g, convention), credible_region(sub, g, convention))
        for i, j in enumerate(kept.tolist()):
            assert astuple(assess_hypothesis(t, j)) == astuple(assess_hypothesis(sub, i))
        for j in [*np.flatnonzero(prior == 0.0).tolist(), -1, len(prior)]:
            with pytest.raises(IndexOutOfRangeError, match="names no value with prior mass"):
                assess_hypothesis(t, j)

        for g in (0.5, 0.9, 1.0):
            rep, sub_rep = lpl_sandwich(t, g), lpl_sandwich(sub, g)
            assert (rep.gamma_used, rep.gamma_next) == (sub_rep.gamma_used, sub_rep.gamma_next)
            assert rep.eta_values == sub_rep.eta_values
            assert (rep.lower_holds, rep.upper_holds) == (sub_rep.lower_holds, sub_rep.upper_holds)
            for region, sub_region in [
                (rep.lower_region, sub_rep.lower_region),
                (rep.upper_region, sub_rep.upper_region),
                *zip(rep.d_regions, sub_rep.d_regions),
            ]:
                assert region.tolist() == kept[sub_region].tolist()
        if not sub_est.tie:
            trace, sub_trace = eta_limit(t), eta_limit(sub)
            assert trace.parameter_values == sub_trace.parameter_values
            assert list(trace.actions_or_regions) == kept[list(sub_trace.actions_or_regions)].tolist()
            assert trace.target == kept[sub_trace.target]
            assert trace.discrepancies == tuple(
                float(abs(kept[a] - kept[sub_trace.target])) for a in sub_trace.actions_or_regions
            )


@st.composite
def ratio_tables(draw):
    """Tables with tied ratios, cells without posterior mass and huge ratios.

    Masses come from small integer weights, so ratios tie. A cell may get
    no posterior weight (ratio 0), or a prior mass of 1e-300 with posterior
    weight (ratio near 1e300); the first cell is always plain.
    """
    n = draw(st.integers(1, 10))
    kind = st.sampled_from(["plain", "empty", "huge"])
    kinds = ["plain"] + draw(st.lists(kind, min_size=n - 1, max_size=n - 1))
    prior_w = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    post_w = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    total = sum(w for w, k in zip(prior_w, kinds) if k != "huge")
    prior = [1e-300 if k == "huge" else w / total for w, k in zip(prior_w, kinds)]
    post = np.array([0 if k == "empty" else w for w, k in zip(post_w, kinds)], dtype=float)
    return rb_table(prior, post / post.sum())


def per_call_levels(ratios, posterior):
    """Positive ratio levels descending and their exact contents, sorted afresh on every call."""
    order = np.argsort(-ratios, kind="stable")
    sorted_r = ratios[order]
    ends = np.append(np.flatnonzero(sorted_r[1:] != sorted_r[:-1]), len(sorted_r) - 1)
    ends = ends[sorted_r[ends] > 0.0]
    return sorted_r[ends], np.array([math.fsum(posterior[order[: k + 1]].tolist()) for k in ends])


class TestOneDescendingOrder:
    """Each table sorts its ratios once, and every rb cutoff reads that order."""

    def test_one_sort_per_table(self, monkeypatch):
        calls = []
        sort = evidence_mod._descending_levels
        monkeypatch.setattr(
            evidence_mod, "_descending_levels", lambda r, p: calls.append(len(r)) or sort(r, p)
        )
        t = rb_table([0.25, 0.25, 0.5], [0.5, 0.25, 0.25])
        for gamma in (0.5, 0.9):
            credible_region(t, gamma, "sup-geq")
            credible_region(t, gamma, "quantile-gt")
        attainable_gammas(t)
        assert calls == [3]

    def test_table_arrays_order_and_members_are_read_only(self):
        t = rb_table([0.5, 0.0, 0.5], [0.2, 0.0, 0.8])
        region = credible_region(t, 0.5)
        assert t.descending is t.descending
        labeled = rb_table([0.5, 0.5], [0.2, 0.8], labels=np.array([3.0, 4.0]))
        for a in (t.labels, t.prior, t.posterior, t.rb, *t.descending, region.members, labeled.labels):
            with pytest.raises(ValueError):
                a[0] = a[0]

    def test_read_only_inputs_are_shared_and_writable_ones_copied(self):
        grid = build_grid(-4.0, 4.0, 64)
        prior = _normalize(grid, masses_from_cdf(stats.norm(0, 1).cdf, grid.edges))
        post = _normalize(grid, masses_from_cdf(stats.norm(1, 0.5).cdf, grid.edges))
        t = table_from_gridded(prior, post)
        assert t.prior is prior.masses and t.posterior is post.masses and t.labels is grid.midpoints
        # the caller's writable arrays stay writable, and the table keeps copies
        p, q = np.array(prior.masses), np.array(post.masses)
        t = rb_table(p, q)
        assert p.flags.writeable and q.flags.writeable
        assert t.prior is not p and t.prior.tobytes() == p.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(ratio_tables(), st.lists(st.floats(0.0, 1.0), max_size=4))
    def test_bitwise_against_a_per_call_sort(self, t, drawn):
        levels, content = per_call_levels(t.rb, t.posterior)
        assert attainable_gammas(t).tobytes() == content.tobytes()
        for g in quantile_gammas(t, drawn):
            hit = np.flatnonzero(content >= g)
            sup_geq = float(levels[hit[0]] if len(hit) else levels[-1])
            expected = {
                "sup-geq": (sup_geq, np.flatnonzero(t.rb >= sup_geq)),
                # the masked exact-total bisection stands in for the sorted exact contents
                "quantile-gt": (quantile_oracle(t, g), np.flatnonzero(t.rb > quantile_oracle(t, g))),
            }
            for convention, (cutoff, members) in expected.items():
                reg = credible_region(t, g, convention)
                assert reg.cutoff.hex() == cutoff.hex()
                assert reg.members.dtype == np.intp
                assert reg.members.tolist() == members.tolist()
                assert reg.member_indices == frozenset(members.tolist())
                assert reg.posterior_content.hex() == math.fsum(t.posterior[members].tolist()).hex()
                assert reg.prior_content.hex() == math.fsum(t.prior[members].tolist()).hex()


def in_domain(t, gammas):
    """The gammas a region of ``t`` accepts: [0, 1], and above 1 up to the exact total."""
    top = max(1.0, float(fsums(t.posterior)))
    return [g for g in gammas if 0.0 <= g <= top]


class TestOneExactContentPerRegion:
    """Both conventions and lowest-loss regions decide on the exact content they report."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(zero_prior_tables().map(lambda case: case[3]), ratio_tables()),
        st.lists(st.floats(0.0, 1.0), max_size=4),
    )
    def test_level_is_the_first_exact_content_past_gamma(self, t, shares):
        levels, content = per_call_levels(t.rb, t.posterior)
        total = float(fsums(t.posterior))
        positive = np.flatnonzero(t.rb > 0.0).tolist()
        # below the least positive prior mass the capped loss divides by the prior masses,
        # as the rb loss does, and by the cap where the prior is 0
        loss = make_loss("rb-eta", t.prior, eta=0.5 * float(t.prior[t.prior > 0.0].min()))
        # gammas in [0, total], each level's exact content, and its float prefix sum beside it
        drawn = [u * total for u in shares] + content.tolist() + t.descending[1].tolist() + [1.0]
        for g in in_domain(t, drawn):
            sup = credible_region(t, g, "sup-geq")
            qgt = credible_region(t, g, "quantile-gt")
            lpl = lpl_region(loss, t.posterior, g, prior=t.prior)
            assert lpl.members.tolist() == sup.members.tolist()
            assert lpl.posterior_content == sup.posterior_content
            # sup-geq: the first positive level whose exact content is at least gamma
            j = int(np.count_nonzero(levels > sup.cutoff))
            assert sup.members.tolist() == np.flatnonzero(t.rb >= levels[j]).tolist()
            assert sup.posterior_content == content[j]
            assert content[j] >= g or j == len(levels) - 1 and g > total
            assert j == 0 or content[j - 1] < g
            # quantile-gt: the levels above the first one whose exact content passes gamma
            k = int(np.count_nonzero(levels > qgt.cutoff))
            assert qgt.members.tolist() == np.flatnonzero(t.rb > qgt.cutoff).tolist()
            assert qgt.posterior_content == (content[k - 1] if k else 0.0) <= g
            if k < len(levels):
                assert content[k] > g
            else:
                assert qgt.members.tolist() == positive


SUBSET_CAP = 2**12


def subset_contents(t):
    """The exact posterior and prior content of every subset of the table's
    values, as Fractions, indexed by bit mask over table positions."""
    assert 2 ** len(t) <= SUBSET_CAP, "the subset oracle enumerates at most 2**12 sets"
    sums = [(Fraction(0), Fraction(0))]
    for post, prior in zip(t.posterior.tolist(), t.prior.tolist()):
        sums += [(p + Fraction(post), q + Fraction(prior)) for p, q in sums]
    return sums


class TestOptimalProperties:
    """The abstract's optimal properties, checked exactly against every subset."""

    @settings(max_examples=150, deadline=None)
    @given(
        finite_models(max_theta=10, max_x=4, max_psi=10, zeros=True),
        st.lists(st.floats(0.0, 1.0), max_size=3),
    )
    def test_regions_have_least_prior_content_and_plausible_most_gain(self, drawn, shares):
        model, psi = drawn
        for x in range(model.n_x):
            t = table_from_model(model, x, psi)
            sums = subset_contents(t)

            def contents(members):
                return sums[sum(1 << i for i in members.tolist())]

            # least prior content among the sets holding at least a posterior content
            by_post = sorted(sums, key=lambda pq: pq[0], reverse=True)
            least = list(accumulate((q for _, q in by_post), min))
            negated = [-p for p, _ in by_post]

            _, content = per_call_levels(t.rb, t.posterior)
            loss = make_loss("rb", t.prior)
            total = float(fsums(t.posterior))
            gammas = [0.0, 1.0, *content.tolist(), *(u * total for u in shares)]
            for g in in_domain(t, gammas):
                regions = [credible_region(t, g, c) for c in ("sup-geq", "quantile-gt")]
                regions.append(lpl_region(loss, t.posterior, g, prior=t.prior))
                for region in regions:
                    post, prior = contents(region.members)
                    assert least[bisect_right(negated, -post) - 1] == prior, (g, region.cutoff)

            # the plausible region, with or without the values at rb = 1, gains the most
            gain = max(p - q for p, q in sums)
            plausible = plausible_region(t).members
            for members in (plausible, np.union1d(plausible, np.flatnonzero(t.rb == 1.0))):
                post, prior = contents(members)
                assert post - prior == gain

    @settings(max_examples=100, deadline=None)
    @given(
        finite_models(max_theta=8, max_x=3, max_psi=4, zeros=True),
        st.lists(st.floats(0.0, 1.0), max_size=3),
    )
    def test_regions_least_prior_probability_of_covering_a_false_value(self, drawn, shares):
        """Summed over outcomes: the per-outcome sup-geq regions C(x) minimize
        sum_x m(x) Pi(C(x)), the prior probability that C(x) covers a value drawn
        from the prior independently of (psi, x), among the families of sets
        B(x) with at least the regions' posterior content at every outcome.

        The objective is a sum of per-outcome terms under per-outcome
        constraints, so its least value over families is the sum of the
        per-outcome least prior contents, each weighted by m(x).
        """
        model, psi = drawn
        joint = [[Fraction(v) for v in row] for row in psi_joint(model, psi).tolist()]
        tables = [table_from_model(model, x, psi) for x in range(model.n_x)]
        sums = [subset_contents(t) for t in tables]
        assert math.prod(len(s) for s in sums) <= SUBSET_CAP
        for g in [0.0, 1.0, *shares]:
            covered = least = Fraction(0)
            for x, (t, subsets) in enumerate(zip(tables, sums)):
                members = credible_region(t, g).members.tolist()
                post, prior = subsets[sum(1 << i for i in members)]
                # the joint mass of every (psi, x) pair weighs the prior content of C(x)
                for row in joint:
                    covered += row[x] * prior
                    least += row[x] * min(q for p, q in subsets if p >= post)
            assert covered == least, g
