import math

import numpy as np
import pytest
from scipy import stats

from relbel.errors import (
    AllZeroMassError,
    BadRangeError,
    IndexOutOfRangeError,
    NegativeDensityError,
    ValidationError,
    ZeroCellsError,
)
from relbel.grids import (
    build_grid,
    discretize,
    discretize_cdf,
    family,
    masses_from_cdf,
    refine,
    undiscretize,
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

    def test_refine_factor_three_nests(self):
        g = build_grid(0, 1, 4)
        fine = refine(g, 3)
        assert fine.n_cells == 12
        # every old edge is also a new edge, so each new cell lies in one old cell
        assert np.allclose(fine.edges[::3], g.edges, atol=1e-15)

    def test_cell_of(self):
        g = build_grid(0, 1, 4)
        assert g.cell_of(0.0) == 0
        assert g.cell_of(0.999) == 3
        with pytest.raises(IndexOutOfRangeError):
            g.cell_of(1.0)


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

    def test_tail_mass_recorded_and_warns(self):
        g = build_grid(-1, 1, 16)
        with pytest.warns(UserWarning):
            gd = discretize(stats.norm.pdf, g)
        assert gd.tail_mass == pytest.approx(2 * stats.norm.cdf(-1), abs=1e-4)
        assert abs(math.fsum(gd.masses.tolist()) - 1.0) < 1e-9

    def test_refinement_mass_consistency(self):
        # same evaluation points: parent at 16 points = two children at 8
        base = build_grid(-4, 4, 32)
        fine = refine(base, 2)
        parent = discretize(stats.norm.pdf, base, quadrature_points=16)
        child = discretize(stats.norm.pdf, fine, quadrature_points=8)
        paired = child.masses.reshape(-1, 2).sum(axis=1)
        assert np.max(np.abs(parent.masses - paired)) < 1e-9

    def test_mass_over_width_approaches_density(self):
        g = build_grid(-6, 6, 4096)
        gd = discretize(stats.norm.pdf, g)
        i = g.cell_of(0.0)
        approx = gd.masses[i] / g.cell_width
        assert abs(approx - stats.norm.pdf(0.0)) / stats.norm.pdf(0.0) < 1e-3

    def test_cdf_route_matches_quadrature(self):
        g = build_grid(-6, 6, 256)
        quad = discretize(stats.norm.pdf, g, quadrature_points=64)
        exact = discretize_cdf(stats.norm.cdf, g)
        assert np.max(np.abs(quad.masses - exact.masses)) < 1e-9


class TestUndiscretize:
    def test_merges_runs(self):
        g = build_grid(0, 1, 4)
        assert undiscretize({0, 1, 3}, g) == [(0.0, 0.5), (0.75, 1.0)]

    def test_all_cells(self):
        g = build_grid(0, 1, 4)
        assert undiscretize(range(4), g) == [(0.0, 1.0)]

    def test_empty(self):
        assert undiscretize(set(), build_grid(0, 1, 4)) == []

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            undiscretize({4}, build_grid(0, 1, 4))

    def test_partition_property(self):
        g = build_grid(-2.5, 3.5, 7)
        (lo, hi), = undiscretize(range(7), g)
        assert (lo, hi) == (-2.5, 3.5)


class TestFamilies:
    def test_normal(self):
        fam = family("normal", mu=1.0, sigma2=4.0)
        assert fam.pdf(1.0) == pytest.approx(stats.norm.pdf(0) / 2)
        assert fam.cdf(1.0) == pytest.approx(0.5)

    def test_beta_uniform_lognormal(self):
        assert family("beta", alpha=2.0, beta=3.0).support == (0.0, 1.0)
        assert family("uniform", a=-1.0, b=3.0).pdf(0.0) == pytest.approx(0.25)
        fam = family("lognormal", mu=0.0, sigma2=1.0)
        assert fam.cdf(1.0) == pytest.approx(0.5)

    def test_unknown_family(self):
        from relbel.errors import ValidationError

        with pytest.raises(ValidationError):
            family("cauchy")

    def test_masses_from_cdf_nonuniform_edges(self):
        edges = np.array([0.0, 0.5, 2.0, 10.0])
        m = masses_from_cdf(stats.lognorm(s=1.0).cdf, edges)
        direct = np.diff(stats.lognorm(s=1.0).cdf(edges))
        assert np.allclose(m, direct, atol=1e-15)
