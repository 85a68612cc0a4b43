import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr

from relbel.errors import (
    AllZeroMassError,
    RatioOverflowError,
    SeparationViolatedError,
    TieAtMaximizerError,
    TooManyCellsError,
    ValidationError,
)
import relbel.grids as grids_mod
from relbel.evidence import attainable_gammas, credible_region, rb_table, table_from_model
from relbel.grids import build_grid, discretize, discretize_joint, family, refine
from relbel.limits import (
    CELL_CAP,
    default_eta_ladder,
    eta_limit,
    gaussian_location_likelihood,
    gaussian_log_location_likelihood,
    grid_ladder,
    invariance_demo,
    lambda_limit,
    lpl_sandwich,
    map_limit_contrast,
    region_limit,
    sandwich_double_limit,
)
from relbel.model import FiniteModel, identity_psi, validate
from conftest import finite_models, random_model


def truncated_geometric_table(n_points=51, ratio=0.5, n_trials=20, successes=8):
    """Geometric-style prior on 0..n_points-1 with a binomial likelihood."""
    idx = np.arange(n_points)
    prior = ratio**idx
    prior /= prior.sum()
    rates = (idx + 0.5) / n_points
    lik = stats.binom.pmf(successes, n_trials, rates)
    post = prior * lik
    post /= post.sum()
    return rb_table(prior, post)


class TestEtaLimit:
    @pytest.mark.parametrize("top, longest", [(0.5, 1074), (0.7, 1074), (1.0, 1075)])
    def test_ladder_past_the_float_range_rejected(self, top, longest):
        # the longest ladder ends at the least subnormal; 0.7 / 2**1074 rounds to it again
        prior = [top, 1.0 - top]
        ladder = default_eta_ladder(prior, longest)
        assert ladder[-1] == 5e-324 and all(a > b for a, b in zip(ladder, ladder[1:]))
        for steps in (longest + 1, 1100):
            message = rf"^{steps} eta steps halve the largest prior mass {top!r} past the float range$"
            with pytest.raises(ValidationError, match=message):
                default_eta_ladder(prior, steps)

    def test_truncated_geometric_stabilizes_at_threshold(self):
        t = truncated_geometric_table()
        ladder = default_eta_ladder(t.prior, steps=40)
        trace = eta_limit(t, eta_ladder=ladder)
        threshold = t.prior[trace.target]
        for eta, action in zip(trace.parameter_values, trace.actions_or_regions):
            if eta <= threshold:
                assert action == trace.target
        # before stabilizing the trace passes through other actions
        assert any(a != trace.target for a in trace.actions_or_regions[:3])
        # the evidence maximizer sits well into the prior tail here
        assert trace.target > 10

    def test_finite_model_stabilizes_below_min_prior(self, rng):
        for _ in range(25):
            model, psi = random_model(rng)
            x = int(rng.integers(model.n_x))
            trace = eta_limit(model, x=x, psi=psi)
            from relbel.model import psi_marginal

            prior = psi_marginal(model.prior, psi)
            for eta, action in zip(trace.parameter_values, trace.actions_or_regions):
                if eta <= prior.min():
                    assert action == trace.target

    def test_actions_match_bayes_rule_machinery(self, rng):
        # the trace's argmax shortcut and the loss-matrix rule must agree
        from relbel.decision import bayes_rule, make_loss
        from relbel.model import psi_marginal

        for _ in range(10):
            model, psi = random_model(rng)
            x = int(rng.integers(model.n_x))
            trace = eta_limit(model, x=x, psi=psi)
            prior = psi_marginal(model.prior, psi)
            for eta, action in zip(trace.parameter_values, trace.actions_or_regions):
                rule, _ = bayes_rule(model, psi, make_loss("rb-eta", prior, eta=eta))
                assert rule.action_per_x[x] == action

    def test_uniform_prior_constant_actions(self):
        model = validate(
            FiniteModel(
                ("a", "b", "c"),
                ("x0", "x1"),
                np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]]),
                np.full(3, 1 / 3),
            )
        )
        trace = eta_limit(model, x=1, psi=identity_psi(model))
        assert len(set(trace.actions_or_regions)) == 1

    def test_tie_rejected(self):
        t = rb_table([0.5, 0.5], [0.5, 0.5])
        with pytest.raises(TieAtMaximizerError):
            eta_limit(t)

    def test_discrepancies_vanish_after_stabilization(self):
        t = truncated_geometric_table()
        trace = eta_limit(t, eta_ladder=default_eta_ladder(t.prior, steps=40))
        started = False
        for eta, d in zip(trace.parameter_values, trace.discrepancies):
            if eta <= t.prior[trace.target]:
                started = True
            if started:
                assert d == 0.0

    def test_zero_prior_theta_keeps_input_indices(self):
        # theta t1 has no prior mass and drops out of the table; decide counts it
        from relbel.decision import bayes_rule, make_loss

        model = validate(
            FiniteModel(
                ("t0", "t1", "t2", "t3", "t4"),
                ("x0", "x1", "x2"),
                np.array([
                    [0.2, 0.5, 0.3], [0.6, 0.2, 0.2], [0.1, 0.1, 0.8],
                    [0.45, 0.35, 0.2], [0.3, 0.3, 0.4],
                ]),
                np.array([0.3, 0.0, 0.25, 0.25, 0.2]),
            )
        )
        psi = identity_psi(model)
        trace = eta_limit(model, x=0, psi=psi)
        assert model.theta_labels[trace.target] == "t3"
        for eta, action in zip(trace.parameter_values, trace.actions_or_regions):
            rule, _ = bayes_rule(model, psi, make_loss("rb-eta", model.prior, eta=eta))
            assert rule.action_per_x[0] == action
        # on a table of masses the indices are positions in the input lists
        t = rb_table([0.5, 0.0, 0.5], [0.2, 0.0, 0.8])
        assert eta_limit(t).target == 2


class TestOneLadderCheck:
    """``eta_limit`` and ``lpl_sandwich`` admit the same eta ladders."""

    TABLE = rb_table([0.5, 0.3, 0.2], [0.2, 0.3, 0.5])

    def caps(self, experiment, ladder):
        if experiment == "eta_limit":
            return eta_limit(self.TABLE, eta_ladder=ladder).parameter_values
        return lpl_sandwich(self.TABLE, 0.6, ladder).eta_values

    @pytest.mark.parametrize("experiment", ["eta_limit", "lpl_sandwich"])
    @pytest.mark.parametrize(
        "ladder",
        [(), (0.01, 0.4, 0.1, 0.1), (0.4, 0.1, 0.1), (0.4, 0.0), (0.4, -0.1), (0.4, math.nan)],
        ids=["empty", "increasing", "repeated", "zero", "negative", "nan"],
    )
    def test_bad_ladder_rejected(self, experiment, ladder):
        message = r"^eta ladder must be strictly decreasing and positive$"
        with pytest.raises(ValidationError, match=message):
            self.caps(experiment, ladder)

    @pytest.mark.parametrize("experiment", ["eta_limit", "lpl_sandwich"])
    def test_ladder_read_once_as_floats(self, experiment):
        caps = self.caps(experiment, iter([1, 0.5]))
        assert caps == (1.0, 0.5) and all(type(e) is float for e in caps)
        assert self.caps(experiment, None) == default_eta_ladder(self.TABLE.prior)


NORMAL_PRIOR = family("normal", mu=0.0, sigma2=1.0)


class TestCellCap:
    def test_cap_is_the_grids_cap(self):
        assert CELL_CAP == grids_mod.CELL_CAP == 2**20

    def test_ladder_may_reach_the_cap(self):
        grids = grid_ladder(build_grid(0.0, 1.0, CELL_CAP // 8), steps=4, factor=2)
        assert grids[-1].n_cells == CELL_CAP

    def test_ladder_past_the_cap_rejected(self):
        with pytest.raises(TooManyCellsError, match="ladder step 5 of 5"):
            grid_ladder(build_grid(0.0, 1.0, CELL_CAP // 8), steps=5, factor=2)
        with pytest.raises(TooManyCellsError, match="ladder step 22 of 70"):
            grid_ladder(build_grid(0.0, 1.0, 1), steps=70, factor=2)
        with pytest.raises(TooManyCellsError, match="base grid"):
            grid_ladder(build_grid(0.0, 1.0, CELL_CAP + 1), steps=1)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_ladder_needs_a_step(self, steps):
        with pytest.raises(ValidationError, match=f"at least one step, got {steps}"):
            grid_ladder(build_grid(0.0, 1.0, 8), steps=steps)

    def test_reference_past_the_cap_rejected_before_discretizing(self):
        def density(p):
            raise AssertionError("discretized")

        grids = grid_ladder(build_grid(-6.0, 6.0, CELL_CAP // 4), steps=2)
        with pytest.raises(TooManyCellsError, match="reference grid"):
            region_limit(density, density, 0.9, grids, refine_factor=4)


class TestOneDensityPassPerGrid:
    """The prior density and the likelihood are evaluated once per grid."""

    @staticmethod
    def counted(fn, calls):
        def wrapped(p):
            calls.append(p.size)
            return fn(p)

        return wrapped

    @pytest.mark.parametrize(
        "prior, lik, lo, hi",
        [
            (NORMAL_PRIOR, gaussian_location_likelihood(1.5, 1.0), -6.0, 6.0),
            (
                family("beta", alpha=2.5, beta=3.0),
                gaussian_location_likelihood(0.4, 0.02),
                0.0,
                1.0,
            ),
        ],
    )
    def test_gridded_pair_bits_and_calls(self, prior, lik, lo, hi):
        grid = build_grid(lo, hi, 96)
        prior_calls, lik_calls = [], []
        got_prior, got_joint = discretize_joint(
            self.counted(prior.pdf, prior_calls), self.counted(lik, lik_calls), grid
        )
        assert prior_calls == lik_calls == [96 * 8]
        # the two-pass construction: the prior evaluated again inside the joint,
        # whose total is m(x), well below 1, so its tail warns
        want_prior = discretize(prior.pdf, grid)
        with pytest.warns(UserWarning):
            want_joint = discretize(lambda p: prior.pdf(p) * lik(p), grid)
        for got, want in ((got_prior, want_prior), (got_joint, want_joint)):
            assert got.masses.tobytes() == want.masses.tobytes()
            assert got.tail_mass == want.tail_mass

    def test_ladders_evaluate_each_grid_once(self):
        lik = gaussian_location_likelihood(1.9, 1.0)
        grids = grid_ladder(build_grid(-6, 6, 32), steps=3, factor=2)
        cells = [g.n_cells * 8 for g in grids]
        runs = [
            (lambda pdf, lk: lambda_limit(pdf, lk, grids), cells),
            (lambda pdf, lk: map_limit_contrast(pdf, lk, grids), cells),
            (lambda pdf, lk: sandwich_double_limit(pdf, lk, 0.9, grids, eta_steps=3), cells),
            # the reference grid first, then the ladder
            (
                lambda pdf, lk: region_limit(pdf, lk, 0.9, grids, refine_factor=4),
                [128 * 4 * 8] + cells,
            ),
        ]
        for run, want in runs:
            prior_calls, lik_calls = [], []
            run(self.counted(NORMAL_PRIOR.pdf, prior_calls), self.counted(lik, lik_calls))
            assert prior_calls == lik_calls == want

    def test_one_discretization_per_grid_across_experiments(self):
        # a normal(0, 1) prior on [-1.5, 2.0) leaves about 9% of its mass outside
        grids = grid_ladder(build_grid(-1.5, 2.0, 16), steps=3)
        lik = gaussian_location_likelihood(1.3, 0.5)
        experiments = (
            lambda pdf, lk: region_limit(pdf, lk, 0.8, grids, refine_factor=4),
            lambda pdf, lk: lambda_limit(pdf, lk, grids),
            lambda pdf, lk: map_limit_contrast(pdf, lk, grids),
            lambda pdf, lk: sandwich_double_limit(pdf, lk, 0.8, grids, eta_steps=3),
        )
        prior_calls, lik_calls = [], []
        pdf, lk = self.counted(NORMAL_PRIOR.pdf, prior_calls), self.counted(lik, lik_calls)
        results = []
        for run in experiments:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results.append(run(pdf, lk))
            # one tail warning per grid the experiment reads, the reference grid's included
            assert {w.category for w in caught} == {UserWarning}
            assert {w.filename for w in caught} == {__file__}
            assert len(caught) == len(grids) + (run is experiments[0])
        # the reference grid first, then each ladder grid once for all four experiments
        want = [64 * 4 * 8] + [g.n_cells * 8 for g in grids]
        assert prior_calls == lik_calls == want

        # fresh callables discretize afresh and give the same bits
        for run, got in zip(experiments, results):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                again = run(lambda p: NORMAL_PRIOR.pdf(p), lambda p: lik(p))
            with np.printoptions(floatmode="unique", threshold=10**6):
                assert repr(again) == repr(got)

        # the tables go with the ladder: no cycle keeps a grid alive
        finest = weakref.ref(grids[-1])
        del grids, experiments, results
        assert finest() is None

    def test_another_pair_releases_the_first(self):
        # a grid keeps one pair's table: a second pair replaces the first
        grids = grid_ladder(build_grid(-6, 6, 32), steps=2)
        lik = gaussian_location_likelihood(1.3, 0.5)

        def first(p):
            return NORMAL_PRIOR.pdf(p)

        gone = weakref.ref(first)
        lambda_limit(first, lik, grids)
        lambda_limit(lambda p: NORMAL_PRIOR.pdf(p), lik, grids)
        del first
        assert gone() is None


class TestLambdaLimit:
    def test_gaussian_ratio_argmax_match(self):
        # posterior N(0.75, 0.5); ratio-to-prior argmax sits at the data point
        lik = gaussian_location_likelihood(1.5, 1.0)
        grids = grid_ladder(build_grid(-6, 6, 512), steps=4, factor=2)
        trace = lambda_limit(NORMAL_PRIOR.pdf, lik, grids, target=1.5)
        for width, d in zip(trace.parameter_values, trace.discrepancies):
            assert d <= width

    def test_halving_shrinks_discrepancy(self):
        lik = gaussian_location_likelihood(1.5, 1.0)
        grids = grid_ladder(build_grid(-6, 6, 512), steps=4, factor=2)
        trace = lambda_limit(NORMAL_PRIOR.pdf, lik, grids, target=1.5)
        for k in range(len(grids) - 1):
            assert (
                trace.discrepancies[k + 1]
                <= 0.5 * trace.discrepancies[k] + trace.parameter_values[k + 1]
            )

    def test_flat_ratio_rejected(self):
        grids = [build_grid(-6, 6, 128)]
        with pytest.raises(SeparationViolatedError):
            lambda_limit(NORMAL_PRIOR.pdf, lambda p: np.ones_like(p), grids)


@st.composite
def continuum_problems(draw):
    """A prior, a likelihood, a grid ladder and the continuum evidence estimate.

    For psi = theta the relative belief ratio is the likelihood over m(x), so
    its maximizer is the likelihood's: x for a normal location, e^x on the
    log scale. Each grid holds the target strictly inside.
    """
    unit = st.floats(0.0, 1.0)
    base = draw(st.sampled_from([32, 64]))
    if draw(st.booleans()):
        mu, sigma2 = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.25, 4.0))
        x = mu + draw(st.floats(-2.5, 2.5)) * math.sqrt(sigma2)
        target, prior = x, family("normal", mu=mu, sigma2=sigma2)
        lik = gaussian_location_likelihood(x, draw(st.floats(0.1, 2.0)))
        lo, hi = x - 0.5 - 5.5 * draw(unit), x + 0.5 + 5.5 * draw(unit)
    else:
        mu, sigma2 = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.1, 1.0))
        x = mu + draw(st.floats(-2.0, 2.0)) * math.sqrt(sigma2)
        target, prior = math.exp(x), family("lognormal", mu=mu, sigma2=sigma2)
        lik = gaussian_log_location_likelihood(x, draw(st.floats(0.1, 2.0)))
        lo, hi = target * 0.8 * draw(unit), target * (1.25 + 3.75 * draw(unit))
    return prior.pdf, lik, grid_ladder(build_grid(lo, hi, base), steps=5), target


def test_tail_warning_names_the_calling_file():
    # a normal(0, 1) prior on [-1.5, 2.0) leaves about 9% of its mass outside
    grid = build_grid(-1.5, 2.0, 16)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        discretize(NORMAL_PRIOR.pdf, grid)
        lambda_limit(NORMAL_PRIOR.pdf, gaussian_location_likelihood(1.3, 0.5), [grid])
    assert [w.category for w in caught] == [UserWarning, UserWarning]
    assert [w.filename for w in caught] == [__file__, __file__]


class TestLambdaContinuumTarget:
    # a grid may cut off prior tail mass, which warns by design
    @pytest.mark.filterwarnings("ignore:.*of the distribution lies outside")
    @settings(max_examples=60, deadline=None)
    @given(continuum_problems())
    def test_action_within_a_cell_of_the_target(self, problem):
        """At every step the action's cell holds the target or neighbours the one that does."""
        pdf, lik, grids, target = problem
        trace = lambda_limit(pdf, lik, grids, target=target)
        for width, d in zip(trace.parameter_values, trace.discrepancies):
            assert d <= 1.5 * width, (trace.actions_or_regions, target)


class TestMapLimitContrast:
    def test_uniform_prior_map_equals_rb_limit(self):
        uniform = family("uniform", a=-6.0, b=6.0)
        lik = gaussian_location_likelihood(1.5, 1.0)
        grids = grid_ladder(build_grid(-6, 6, 512), steps=3, factor=2)
        rb_trace = lambda_limit(uniform.pdf, lik, grids)
        map_trace = map_limit_contrast(uniform.pdf, lik, grids)
        assert rb_trace.actions_or_regions == map_trace.actions_or_regions

    def test_lognormal_map_and_rb_limits_differ(self):
        # same observation model pushed through exp: density mode moves,
        # evidence argmax transports
        prior = family("lognormal", mu=0.0, sigma2=1.0)
        lik = gaussian_log_location_likelihood(1.5, 1.0)
        grids = grid_ladder(build_grid(1e-9, 12.0, 512), steps=4, factor=2)
        map_trace = map_limit_contrast(prior.pdf, lik, grids, target=math.exp(0.25))
        rb_trace = lambda_limit(prior.pdf, lik, grids, target=math.exp(1.5))
        finest = grids[-1].cell_width
        assert map_trace.discrepancies[-1] <= finest
        assert rb_trace.discrepancies[-1] <= finest
        gap = abs(map_trace.actions_or_regions[-1] - rb_trace.actions_or_regions[-1])
        assert gap > 10 * finest

    def test_ratio_overflow_raises_as_in_lambda_limit(self):
        # a sharp likelihood far in the prior's tail: the best evidence cell's
        # ratio overflows, and both experiments read the same table
        lik = gaussian_location_likelihood(38.0, 0.0001)
        grids = grid_ladder(build_grid(-5.0, 40.0, 512), steps=2)
        for run in (map_limit_contrast, lambda_limit):
            with pytest.raises(RatioOverflowError, match="overflows the float range"):
                run(NORMAL_PRIOR.pdf, lik, grids)

    def test_refinement_consistency(self):
        lik = gaussian_location_likelihood(1.5, 1.0)
        grids = grid_ladder(build_grid(-6, 6, 512), steps=4, factor=2)
        trace = map_limit_contrast(NORMAL_PRIOR.pdf, lik, grids, target=0.75)
        for k in range(len(grids) - 1):
            assert (
                trace.discrepancies[k + 1]
                <= 0.5 * trace.discrepancies[k] + trace.parameter_values[k + 1]
            )


@st.composite
def closed_form_regions(draw):
    """A normal prior and likelihood, on the theta or the exp scale, and the
    continuum gamma-region [x - d, x + d] on the theta scale.

    For psi = theta the relative belief ratio is the likelihood over m(x), so
    the region is the interval around x whose normal posterior content is
    gamma; d is found by bisecting that content. Grids reach 6 prior and 7
    posterior standard deviations on the theta scale (their exp image on the
    log scale), so each cuts off under 1% of the prior.
    """
    log = draw(st.booleans())
    mu = draw(st.floats(-1.0, 1.0))
    sigma2 = draw(st.floats(0.1, 1.0) if log else st.floats(0.25, 2.0))
    x = mu + draw(st.floats(-2.0, 2.0)) * math.sqrt(sigma2)
    lik_sigma2, gamma = draw(st.floats(0.1, 2.0)), draw(st.floats(0.5, 0.99))
    post_var = 1.0 / (1.0 / sigma2 + 1.0 / lik_sigma2)
    post_mean, post_sd = post_var * (mu / sigma2 + x / lik_sigma2), math.sqrt(post_var)

    def content(d):
        return ndtr((x + d - post_mean) / post_sd) - ndtr((x - d - post_mean) / post_sd)

    lo, hi = 0.0, 1.0
    while content(hi) < gamma:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if content(mid) < gamma else (lo, mid)
    d = hi
    ends = (
        min(mu - 6.0 * math.sqrt(sigma2), post_mean - 7.0 * post_sd),
        max(mu + 6.0 * math.sqrt(sigma2), post_mean + 7.0 * post_sd),
    )
    if log:
        prior = family("lognormal", mu=mu, sigma2=sigma2)
        lik = gaussian_log_location_likelihood(x, lik_sigma2)
        grid = build_grid(0.0, math.exp(ends[1]), 64)
    else:
        prior = family("normal", mu=mu, sigma2=sigma2)
        lik, grid = gaussian_location_likelihood(x, lik_sigma2), build_grid(*ends, 64)
    ladder = grid_ladder(grid, steps=5)
    return log, prior.pdf, lik, gamma, ladder, (x - d, x + d), (post_mean, post_sd)


class TestRegionClosedForm:
    @settings(max_examples=40, deadline=None)
    @given(closed_form_regions())
    def test_discrepancy_within_a_cell_width(self, problem):
        """Each ladder region misses the continuum region by at most C h of
        posterior mass, C = 2 (f(a) + f(b)) from the posterior density at the
        interval's ends: a region ends on a cell edge, so each end is out by
        under a cell. Probes of 400 problems reached 1.06 (f(a) + f(b)). The
        reference region, on a 4 times finer grid, meets the same bound.
        """
        log, pdf, lik, gamma, grids, (a, b), (mean, sd) = problem
        trace = region_limit(pdf, lik, gamma, grids, refine_factor=4)

        def scale(t):
            """Grid points on the theta scale."""
            with np.errstate(divide="ignore"):
                return np.log(t) if log else np.asarray(t)

        def density(t):
            """The posterior density at theta = t, per unit of the grid's scale."""
            return math.exp(-0.5 * ((t - mean) / sd) ** 2) / (sd * math.sqrt(2 * math.pi)) / (
                math.exp(t) if log else 1.0
            )

        def cdf(t):
            return ndtr((t - mean) / sd)

        bound = 2.0 * (density(a) + density(b))
        ladder = [*zip(grids, trace.actions_or_regions), (refine(grids[-1], 4), trace.target)]
        for grid, cells in ladder:
            left, right = scale(grid.edges[cells]), scale(grid.edges[cells + 1])
            inside = np.minimum(right, b) > np.maximum(left, a)
            overlap = np.where(inside, cdf(np.minimum(right, b)) - cdf(np.maximum(left, a)), 0.0)
            missed = math.fsum((cdf(right) - cdf(left) - 2.0 * overlap).tolist()) + cdf(b) - cdf(a)
            assert missed <= bound * grid.cell_width, (missed / grid.cell_width, bound)


class TestRegionLimit:
    def test_normal_normal_decay(self):
        lik = gaussian_location_likelihood(1.9, 1.0)
        grids = grid_ladder(build_grid(-6, 6, 512), steps=4, factor=2)
        trace = region_limit(NORMAL_PRIOR.pdf, lik, 0.95, grids)
        assert trace.discrepancies[-1] < 0.01
        for a, b in zip(trace.discrepancies, trace.discrepancies[1:]):
            assert b <= a

    def test_gamma_zero_single_cell(self):
        lik = gaussian_location_likelihood(1.5, 1.0)
        grid = build_grid(-6, 6, 256)
        trace = region_limit(NORMAL_PRIOR.pdf, lik, 0.0, [grid])
        (region,) = trace.actions_or_regions
        assert len(region) == 1
        # the mismatch against the finer reference stays inside that one cell
        _, post = discretize_joint(NORMAL_PRIOR.pdf, lik, grid)
        (cell,) = region
        assert trace.discrepancies[0] <= post.masses[cell]

    def test_gamma_one_full_support(self):
        # gamma 1 takes the first level whose exact content reaches 1, as any gamma
        # does: the 9 cells of least ratio keep posterior mass that rounds away there
        lik = gaussian_location_likelihood(1.5, 1.0)
        grid = build_grid(-6, 6, 128)
        trace = region_limit(NORMAL_PRIOR.pdf, lik, 1.0, [grid])
        (region,) = trace.actions_or_regions
        assert region.tolist() == list(range(9, 128))
        _, post = discretize_joint(NORMAL_PRIOR.pdf, lik, grid)
        assert math.fsum(post.masses[region].tolist()) == 1.0 and (post.masses[:9] > 0).all()
        assert trace.discrepancies[0] == pytest.approx(0.0, abs=1e-12)


def model_tables(model, psi, decades, data):
    """Each outcome's table of ``model`` and, beside a table of two or more
    values, the same table with one drawn posterior mass shrunk by
    ``10**-decades``, the mass it loses moved to another drawn value."""
    for x in range(model.n_x):
        t = table_from_model(model, x, psi)
        yield t
        if len(t) > 1:
            j, i = data.draw(st.permutations(range(len(t))))[:2]
            post = t.posterior.copy()
            post[i] += post[j] - post[j] * 10.0**-decades
            post[j] *= 10.0**-decades
            yield rb_table(t.prior, post)


def holds_from(rep) -> int | None:
    """First ladder index of a sandwich report from which both inclusions hold onward."""
    fails = [i for i, ok in enumerate(zip(rep.lower_holds, rep.upper_holds)) if not all(ok)]
    first = fails[-1] + 1 if fails else 0
    return first if first < len(rep.lower_holds) else None


class TestSandwich:
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            finite_models(zeros=True),
            st.integers(0, 2**32 - 1).map(lambda seed: random_model(np.random.default_rng(seed))),
        ),
        st.integers(0, 24),
        st.data(),
    )
    def test_lowest_loss_region_below_min_prior_is_the_lower_region(self, drawn, decades, data):
        """Below the least prior mass the capped loss is the ``rb`` loss, so the
        lowest-loss region at ``gamma_used`` is the lower region, which is the
        credible region at ``gamma_used``, and both inclusions hold. On
        :func:`model_tables` of drawn models, with and without zero masses."""
        model, psi = drawn
        for t in model_tables(model, psi, decades, data):
            gamma = data.draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(attainable_gammas(t))))
            least = float(t.prior.min())
            caps = [e for e in default_eta_ladder(t.prior) if e > least]
            rep = lpl_sandwich(t, gamma, caps + [least, math.nextafter(least, 0.0)])
            lower = rep.lower_region.tolist()
            assert credible_region(t, rep.gamma_used).members.tolist() == lower
            steps = zip(rep.eta_values, rep.d_regions, rep.lower_holds, rep.upper_holds)
            for eta, d, lo, up in steps:
                if eta <= least:
                    assert d.tolist() == lower
                    assert lo and up
            assert holds_from(rep) is not None and holds_from(rep) <= len(caps)

    def test_truncated_geometric_sandwich(self):
        t = truncated_geometric_table()
        rep = lpl_sandwich(t, 0.8, default_eta_ladder(t.prior, 40))
        assert holds_from(rep) is not None
        assert rep.gamma_next is None or rep.gamma_next > rep.gamma_used
        assert rep.gamma_used >= 0.8

    def test_gamma_one_both_sides_full(self):
        rep = lpl_sandwich(rb_table([0.5, 0.5], [0.2, 0.8]), 1.0)
        assert rep.lower_region.tolist() == rep.upper_region.tolist() == [0, 1]
        assert all(rep.lower_holds) and all(rep.upper_holds)

    def test_next_region_that_rounds_away_is_not_reported(self):
        # the next value adds 1e-20 to the lower region's content 1
        rep = lpl_sandwich(rb_table([0.5, 0.5], [1.0, 1e-20]), 0.9)
        assert rep.gamma_used == 1.0 and rep.gamma_next is None
        assert rep.upper_region.tolist() == rep.lower_region.tolist() == [0]

    def test_gamma_above_the_table_content_drops_mass_that_rounds_away(self):
        # the content rounds below 1, so no level reaches gamma 1; value 0's 1e-20 rounds away
        t = rb_table([0.5, 0.5], [1e-20, 0.9999999999999999])
        rep = lpl_sandwich(t, 1.0)
        assert rep.gamma_used == 0.9999999999999999 and rep.gamma_next is None
        assert rep.lower_region.tolist() == credible_region(t, rep.gamma_used).members.tolist() == [1]
        assert rep.upper_region.tolist() == [1]
        assert all(rep.lower_holds) and all(rep.upper_holds)

    @settings(max_examples=150, deadline=None)
    @given(finite_models(zeros=True), st.integers(0, 24), st.data())
    def test_gamma_next_is_none_or_above_gamma_used(self, drawn, decades, data):
        """On model tables, and on the same tables with one posterior mass shrunk by up to 1e-24."""
        model, psi = drawn
        for table in model_tables(model, psi, decades, data):
            gamma = data.draw(st.floats(0.0, 1.0))
            rep = lpl_sandwich(table, gamma, default_eta_ladder(table.prior, 2))
            if rep.gamma_next is None:
                assert rep.upper_region.tolist() == rep.lower_region.tolist()
            else:
                assert rep.gamma_next > rep.gamma_used

    def test_invalid_gamma_rejected(self):
        from relbel.errors import BadGammaError

        with pytest.raises(BadGammaError):
            lpl_sandwich(rb_table([0.5, 0.5], [0.2, 0.8]), 1.2)

    def test_double_limit_grid(self):
        # the cap must fall below the smallest positive cell mass before the
        # inclusions lock in, so the inner ladder here runs much deeper than
        # the reporting default
        lik = gaussian_location_likelihood(1.9, 1.0)
        grids = grid_ladder(build_grid(-6, 6, 64), steps=4, factor=2)
        reports = sandwich_double_limit(NORMAL_PRIOR.pdf, lik, 0.9, grids, eta_steps=34)
        assert len(reports) == 4
        for _, rep in reports:
            assert holds_from(rep) is not None
            # once the cap is below every cell's prior mass the capped loss
            # reduces to the plain reciprocal-prior loss, so the lowest-loss
            # region equals the lower credible region exactly
            assert np.array_equal(rep.d_regions[-1], rep.lower_region)
        gaps = [rep.gamma_used - 0.9 for _, rep in reports]
        assert gaps[-1] <= gaps[0]

    def test_double_limit_levels_are_the_grid_tables_own(self):
        # normalizing the grid table's masses a second time moved both levels
        # one ulp at the finest grid of this ladder
        from relbel.evidence import attainable_gammas
        from relbel.limits import _grid_table

        pdf = family("normal", mu=-0.11663111921448177, sigma2=1.026778564335999).pdf
        lik = gaussian_location_likelihood(0.9654857940451644, 0.5487577107271681)
        grids = grid_ladder(build_grid(-7.20973690247078, 6.976474664041817, 32), steps=4)
        reports = sandwich_double_limit(pdf, lik, 0.9698599395610621, grids, eta_steps=4)
        for grid, (_, rep) in zip(grids, reports):
            levels = attainable_gammas(_grid_table(pdf, lik, grid))
            assert rep.gamma_used in levels and rep.gamma_next in levels


class TestInvarianceDemo:
    def test_lognormal_transform(self):
        grid = build_grid(-6, 6, 4096)
        post_mu, post_s = 0.75, math.sqrt(0.5)
        rep = invariance_demo(
            stats.norm(0, 1).cdf,
            stats.norm(post_mu, post_s).cdf,
            stats.lognorm(s=1.0).cdf,
            stats.lognorm(s=post_s, scale=math.exp(post_mu)).cdf,
            np.exp,
            grid,
        )
        assert rep.rb_index == rep.rb_index_image
        assert rep.rb_max_abs_diff < 1e-9
        assert rep.map_shift_cells > 10
        # sanity: the original-scale argmax cells contain the analytic points
        assert grid.midpoints[rep.rb_index] == pytest.approx(1.5, abs=grid.cell_width)
        assert grid.midpoints[rep.map_index] == pytest.approx(0.75, abs=grid.cell_width)

    def test_flat_prior_cdf_raises_all_zero_mass(self):
        # no prior mass on the grid: the shared normalizer refuses it before any 0 / 0
        grid = build_grid(-6, 6, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AllZeroMassError):
                invariance_demo(
                    lambda e: np.zeros_like(e),
                    stats.norm(0.75, 0.7).cdf,
                    stats.lognorm(s=1.0).cdf,
                    stats.lognorm(s=0.7, scale=math.exp(0.75)).cdf,
                    np.exp,
                    grid,
                )
