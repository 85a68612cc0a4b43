import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from relbel.errors import (
    AllZeroMassError,
    BadRangeError,
    DensityOverflowError,
    NegativeDensityError,
    TooManyCellsError,
    ValidationError,
    ZeroCellsError,
)
from relbel.grids import (
    build_grid,
    capped,
    _normalize,
    discretize,
    discretize_joint,
    family,
    masses_from_cdf,
    normal_masses,
    refine,
)


class TestBuildGrid:
    def test_unit_interval_midpoints(self):
        g = build_grid(0, 1, 4)
        assert np.allclose(g.midpoints, [0.125, 0.375, 0.625, 0.875], atol=1e-15)

    def test_cell_width(self):
        assert build_grid(-3, 3, 6).cell_width == 1.0

    def test_refine_halves_width(self):
        g = build_grid(0, 1, 4)
        assert refine(g, 2).cell_width == pytest.approx(g.cell_width / 2, abs=1e-18)

    def test_bad_inputs(self):
        with pytest.raises(BadRangeError):
            build_grid(1, 1, 4)
        with pytest.raises(ZeroCellsError):
            build_grid(0, 1, 0)

    def test_width_must_be_finite(self):
        # each endpoint is finite, but hi - lo overflows: the edges would be NaN
        for lo, hi in ((-1e308, 1e308), (-(10**308), 10**308)):
            with pytest.raises(BadRangeError, match="finite width"):
                build_grid(lo, hi, 64)
        # a width near the top of the range, whose 64 cells keep every edge a float
        assert build_grid(-(2.0**1017), 0.0, 64).cell_width == 2.0**1011

    def test_edges_must_stay_finite(self):
        # the width 8e307 is finite, but the last edge's offset, the width times 32, is not
        with pytest.raises(BadRangeError, match="pass the float range"):
            build_grid(-8e307, 6.0, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.isfinite(build_grid(-8e307, 6.0, 2).edges).all()
        # a ladder step that doubles the cells past the float range is caught as well
        base = build_grid(-5e306, 0.0, 32)
        with pytest.raises(BadRangeError, match="pass the float range"):
            refine(base, 2)
        # a count too large for a float meets the cell cap instead
        with pytest.raises(TooManyCellsError, match="more than the cap"):
            capped(build_grid(-1.0, 1.0, 10**400), "the grid")

    def test_refine_factor_three_nests(self):
        g = build_grid(0, 1, 4)
        fine = refine(g, 3)
        assert fine.n_cells == 12
        # every old edge is also a new edge, so each new cell lies in one old cell
        assert np.allclose(fine.edges[::3], g.edges, atol=1e-15)


class TestDiscretize:
    def test_uniform_density(self):
        g = build_grid(0, 1, 4)
        gd = discretize(lambda p: np.ones_like(p), g)
        assert np.allclose(gd.masses, 0.25, atol=1e-12)
        assert gd.tail_mass == pytest.approx(0.0, abs=1e-12)

    def test_normal_matches_cdf_differences(self):
        g = build_grid(-6, 6, 1200)
        gd = discretize(stats.norm.pdf, g)
        oracle = np.diff(stats.norm.cdf(g.edges))
        oracle /= oracle.sum()
        assert np.max(np.abs(gd.masses - oracle)) < 1e-6

    def test_density_outside_range(self):
        g = build_grid(0, 1, 4)
        with pytest.raises(AllZeroMassError):
            discretize(lambda p: np.where((p >= 2) & (p < 3), 1.0, 0.0), g)

    def test_negative_density_rejected(self):
        with pytest.raises(NegativeDensityError):
            discretize(lambda p: -np.ones_like(p), build_grid(0, 1, 4))

    def test_non_finite_density_rejected(self):
        g = build_grid(0, 1, 4)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="not finite"):
                discretize(lambda p, bad=bad: np.where(p < 0.5, bad, 1.0), g)

    def test_overflowing_nodes_take_their_limit(self):
        # (1e308 - p) ** 2 overflows to inf and exp(-inf) is 0: no mass, and no numpy warning
        g = build_grid(-1.0, 1.0, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(AllZeroMassError):
                discretize_joint(np.ones_like, lambda p: np.exp(-0.5 * (1e308 - p) ** 2), g)
            with pytest.raises(ValidationError, match="not finite"):
                discretize(lambda p: np.full_like(p, 1e308) * 10.0, g)

    def test_node_values_totalling_past_the_float_range(self):
        # a uniform(0, 1e-308) pdf is 1e308 at every node: eight of them total past
        # the float range, but each of the four cells holds a quarter of the mass
        pdf = family("uniform", a=0.0, b=1e-308).pdf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            gd = discretize(pdf, build_grid(0.0, 1e-308, 4))
        assert gd.masses.tolist() == [0.25] * 4

    def test_density_overflow_is_a_numerical_guard(self):
        # the beta(0.5, 2) pdf overflows at subnormal points; family() keeps scipy's error
        pdf = family("beta", alpha=0.5, beta=2.0).pdf
        with pytest.raises(DensityOverflowError, match="overflows the float range"):
            discretize(pdf, build_grid(0.0, 1e-307, 16))

    def test_tail_mass_recorded_and_warns(self):
        g = build_grid(-1, 1, 16)
        with pytest.warns(UserWarning):
            gd = discretize(stats.norm.pdf, g)
        assert gd.tail_mass == pytest.approx(2 * stats.norm.cdf(-1), abs=1e-4)
        assert abs(math.fsum(gd.masses.tolist()) - 1.0) < 1e-9

    def test_mass_over_width_approaches_density(self):
        g = build_grid(-6, 6, 4096)
        gd = discretize(stats.norm.pdf, g)
        # 0 lies on the left edge of cell 2048 of 4096 equal cells over [-6, 6)
        i = int((0.0 - g.lo) / g.cell_width)
        assert g.edges[i] <= 0.0 < g.edges[i + 1]
        approx = gd.masses[i] / g.cell_width
        assert abs(approx - stats.norm.pdf(0.0)) / stats.norm.pdf(0.0) < 1e-3

    def test_cdf_route_matches_quadrature(self):
        # 16,384 nodes, 8 in each of 2,048 cells; the CDF route takes the same cells
        g = build_grid(-6, 6, 2048)
        quad = discretize(stats.norm.pdf, g)
        exact = _normalize(g, masses_from_cdf(stats.norm.cdf, g.edges), warn_tail=None)
        assert np.max(np.abs(quad.masses - exact.masses)) < 1e-9


class TestFamilies:
    def test_normal(self):
        fam = family("normal", mu=1.0, sigma2=4.0)
        assert fam.pdf(1.0) == pytest.approx(stats.norm.pdf(0) / 2)

    def test_beta_uniform_lognormal(self):
        assert family("beta", alpha=2.0, beta=3.0).pdf(0.5) == pytest.approx(stats.beta.pdf(0.5, 2, 3))
        assert family("uniform", a=-1.0, b=3.0).pdf(0.0) == pytest.approx(0.25)
        fam = family("lognormal", mu=0.0, sigma2=1.0)
        assert fam.pdf(1.0) == pytest.approx(stats.lognorm.pdf(1.0, s=1.0))

    def test_lognormal_scale_must_be_a_positive_finite_float(self):
        # exp(800) overflows and exp(-800) underflows to 0
        for mu in (800.0, -800.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValidationError, match="positive finite exp\\(mu\\)"):
                family("lognormal", mu=mu, sigma2=1.0)
        assert family("lognormal", mu=709.0, sigma2=1.0).pdf(0.0) == 0.0

    def test_unknown_family(self):
        from relbel.errors import ValidationError

        with pytest.raises(ValidationError):
            family("cauchy")

    @pytest.mark.parametrize(
        "name, params, unknown",
        [
            ("normal", {"mean": 3.0, "sigma2": 1.0}, "mean"),
            ("beta", {"alpha": 2.0, "mu": 0.5}, "mu"),
            ("uniform", {"lo": 0.0}, "lo"),
            ("lognormal", {"mu": 0.0, "sigma": 1.0}, "sigma"),
        ],
    )
    def test_unknown_parameter_rejected(self, name, params, unknown):
        from relbel.errors import ValidationError

        with pytest.raises(ValidationError, match=f"^{name} takes .*, not '{unknown}'$"):
            family(name, **params)

    def test_masses_from_cdf_nonuniform_edges(self):
        edges = np.array([0.0, 0.5, 2.0, 10.0])
        m = masses_from_cdf(stats.lognorm(s=1.0).cdf, edges)
        direct = np.diff(stats.lognorm(s=1.0).cdf(edges))
        assert np.allclose(m, direct, atol=1e-15)

    def test_masses_from_cdf_rejects_non_finite_values(self):
        edges = np.array([0.0, 0.5, 1.0])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError, match="not finite"):
                masses_from_cdf(lambda e, bad=bad: np.where(e > 0.7, bad, e), edges)


# --- the closed forms against scipy.stats, bit for bit -----------------------

SPECIAL_POINTS = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]


def _results(fn, x):
    """``fn(x)`` as (value, None), or (None, exception type) if it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn(x), None
        except ArithmeticError as exc:
            return None, type(exc)


def assert_same_bits(ours, oracle, x) -> None:
    """``ours(x)`` has the bits of ``oracle(x)`` (NaN matches NaN) or raises as it does."""
    (got, got_exc), (want, want_exc) = _results(ours, x), _results(oracle, x)
    assert got_exc == want_exc, (x, got_exc, want_exc)
    if want_exc is not None:
        return
    assert type(got) is type(want) and np.shape(got) == np.shape(want), (got, want)
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), (x, got, want)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)), (x, got, want)


positive = st.floats(1e-3, 1e3)
spread = st.floats(1e-8, 1e8)
location = st.floats(-1e6, 1e6)


@st.composite
def families_with_oracles(draw):
    """A family, its frozen scipy.stats twin, and points near its support edges."""
    name = draw(st.sampled_from(["normal", "beta", "uniform", "lognormal"]))
    if name == "normal":
        mu, sigma2 = draw(location), draw(spread)
        sd = math.sqrt(sigma2)
        ours, oracle = family(name, mu=mu, sigma2=sigma2), stats.norm(loc=mu, scale=sd)
        edges = [mu, mu - 8 * sd, mu + 8 * sd]
    elif name == "beta":
        a, b = draw(positive), draw(positive)
        ours, oracle = family(name, alpha=a, beta=b), stats.beta(a, b)
        edges = [0.0, 1.0, 0.5]
    elif name == "uniform":
        a = draw(location)
        b = a + draw(spread)
        ours, oracle = family(name, a=a, b=b), stats.uniform(loc=a, scale=b - a)
        edges = [a, b]
    else:
        mu, sigma2 = draw(st.floats(-20.0, 20.0)), draw(st.floats(1e-6, 1e3))
        ours = family(name, mu=mu, sigma2=sigma2)
        oracle = stats.lognorm(s=math.sqrt(sigma2), scale=math.exp(mu))
        edges = [0.0, math.exp(mu), math.exp(mu + 8 * math.sqrt(sigma2))]
    near = [v for e in edges for v in (e, np.nextafter(e, -math.inf), np.nextafter(e, math.inf))]
    lo, hi = min(edges) - 1.0, max(edges) + 1.0
    points = st.sampled_from(near + SPECIAL_POINTS) | st.floats(lo, hi) | st.floats()
    return ours, oracle, points


class TestFamiliesMatchScipyStats:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_pdf_bit_for_bit(self, data):
        ours, oracle, points = data.draw(families_with_oracles())
        x = data.draw(arrays(np.float64, st.integers(1, 30), elements=points))
        for inputs in (x, x.reshape(1, -1), x[0]):
            assert_same_bits(ours.pdf, oracle.pdf, inputs)

    @pytest.mark.parametrize(
        "name, params",
        [
            # np.exp(mu) is an ulp below math.exp(mu), the scale scipy.stats is given
            ("lognormal", {"mu": -5.688192131637191, "sigma2": 0.3}),
            ("lognormal", {"mu": 11.4314280285523, "sigma2": 2.0}),
            # a scalar z**2 (C pow) is an ulp off z * z, which scipy.stats squares with
            ("normal", {"mu": -1.4907107315762915, "sigma2": 0.05951011210828862}),
        ],
    )
    def test_ulp_sensitive_parameters(self, name, params):
        ours = family(name, **params)
        sd = math.sqrt(params["sigma2"])
        if name == "lognormal":
            oracle = stats.lognorm(s=sd, scale=math.exp(params["mu"]))
        else:
            oracle = stats.norm(loc=params["mu"], scale=sd)
        x = np.exp(np.linspace(-1.0, 1.0, 41) * 12.0 + params["mu"])
        for inputs in (x, 1e-300, *x[::8]):
            assert_same_bits(ours.pdf, oracle.pdf, inputs)

    @settings(max_examples=200, deadline=None)
    @given(
        location,
        spread,
        st.floats(-12.0, 4.0),
        st.floats(-4.0, 12.0),
        st.integers(1, 3000),
    )
    def test_normal_masses_bit_for_bit(self, mu, sigma2, lo_sd, hi_sd, n_cells):
        sd = math.sqrt(sigma2)
        # at least one sd wide, so the grid holds mass for any draw
        grid = build_grid(mu + lo_sd * sd, mu + max(hi_sd, lo_sd + 1.0) * sd, n_cells)
        d = stats.norm(loc=mu, scale=sd)
        lower, upper = np.diff(d.cdf(grid.edges)), -np.diff(d.sf(grid.edges))
        raw = np.where(grid.midpoints <= mu, lower, upper)
        want = _normalize(grid, np.clip(raw, 0.0, None), warn_tail=None)
        got = normal_masses(mu, sigma2, grid)
        assert got.masses.tobytes() == want.masses.tobytes()
        assert got.tail_mass == want.tail_mass

    @pytest.mark.parametrize(
        "n_cells, mu, sigma2",
        [
            (8, -9.0, 1.0),  # below lo: every cell on the survival side
            (8, 9.0, 2.0),  # above hi: every cell on the cdf side
            (8, -0.625, 0.5),  # exactly a midpoint (cell 3), which takes the cdf side
            (8, 0.0, 1.0),  # exactly an edge, between two midpoints
            (8, -4.375, 0.25),  # the first midpoint
            (8, 4.375, 3.0),  # the last midpoint
            # a midpoint whose cell edges round asymmetrically about it, so the
            # two sides give that cell different bits
            (7, -5.0 + 2.5 * 10.0 / 7, 1.0),
        ],
    )
    def test_one_sided_normal_masses_match_two_sided_reference(self, n_cells, mu, sigma2):
        from scipy.special import ndtr

        grid = build_grid(-5.0, 5.0, n_cells)
        assert mu in grid.midpoints or mu in grid.edges or not grid.lo <= mu <= grid.hi
        z = (grid.edges - mu) / math.sqrt(sigma2)
        raw = np.where(grid.midpoints <= mu, np.diff(ndtr(z)), -np.diff(ndtr(-z)))
        want = _normalize(grid, np.clip(raw, 0.0, None), warn_tail=None)
        got = normal_masses(mu, sigma2, grid)
        assert got.masses.tobytes() == want.masses.tobytes()
        assert got.tail_mass == want.tail_mass

    def test_nan_points_are_rejected_downstream(self):
        grid = build_grid(0.0, 1.0, 4)
        for name in ("normal", "beta", "uniform", "lognormal"):
            fam = family(name)
            with pytest.raises(ValidationError, match="not finite"):
                discretize(lambda p, f=fam: f.pdf(np.where(p < 0.5, np.nan, p)), grid)
        with pytest.raises(ValidationError, match="not finite"):
            masses_from_cdf(stats.norm.cdf, np.array([0.0, np.nan, 1.0]))
