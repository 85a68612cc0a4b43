"""The summation kernel gives math.fsum's bits on every slice, or fsum's exception.

Arrays below the crossover never reach the extraction kernel through
``fsums``, so the property tests check the kernel directly, on slices laid
out as columns and as rows, as well as through ``fsums``.
"""

import ast
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import relbel._sums as sums_mod
from relbel._sums import _CROSSOVER, _extracted_sums, fsums
from relbel.grids import build_grid, normal_masses

TINY_NORMAL = 2.2250738585072014e-308


def column_sums(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """The kernel on every slice of ``a`` along ``axis``, laid out as columns, whatever its size."""
    x = np.moveaxis(a, axis, 0)
    return _extracted_sums(x.reshape(x.shape[0], math.prod(x.shape[1:])), 0).reshape(x.shape[1:])


def row_sums(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """The kernel on every slice of ``a`` along ``axis``, laid out as contiguous rows."""
    x = np.moveaxis(a, axis, -1)
    rows = np.ascontiguousarray(x.reshape(math.prod(x.shape[:-1]), x.shape[-1]))
    return _extracted_sums(rows, 1).reshape(x.shape[:-1])


SUMMERS = (fsums, column_sums, row_sums)


def assert_matches_fsum(a: np.ndarray, axis: int = 0) -> None:
    """``fsums`` and the kernel equal per-slice ``math.fsum`` bitwise, or raise as it does."""
    slices = np.moveaxis(a, axis, -1)
    rows = slices.reshape(math.prod(slices.shape[:-1]), slices.shape[-1]).tolist()
    expected = []
    for row in rows:
        try:
            expected.append(math.fsum(row))
        except (OverflowError, ValueError) as exc:
            for total in SUMMERS:
                with pytest.raises(type(exc)):
                    total(a, axis)
            return
    for total in SUMMERS:
        got = total(a, axis)
        assert got.shape == slices.shape[:-1]
        want = np.array(expected, dtype=float).reshape(got.shape)
        assert got.tobytes() == want.tobytes(), (total, a, axis)


def check_all_axes(a: np.ndarray) -> None:
    for axis in range(a.ndim):
        assert_matches_fsum(a, axis)


def shapes():
    return st.tuples(st.integers(0, 40)) | st.tuples(st.integers(0, 24), st.integers(1, 5))


def float_arrays(elements):
    return shapes().flatmap(lambda shape: arrays(np.float64, shape, elements=elements))


dyadic = st.builds(lambda k, e: k * 2.0**e, st.integers(-8, 8), st.integers(-60, 60))
wide_exponents = st.builds(
    lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-300, 300)
)
subnormals = st.floats(-TINY_NORMAL, TINY_NORMAL) | st.floats(-1e-300, 1e-300)
signed_zeros = st.sampled_from([0.0, -0.0])
near_overflow = st.sampled_from([1.7e308, -1.7e308, 1e308, -1e308, 2.0**1023, 2.0**1020])


@st.composite
def power_of_two_from_below(draw):
    """Slices whose exact total sits just below a midpoint under a power of two.

    ``2**k - 2**(k-54)`` is the midpoint between ``2**k`` and the float below
    it; a tiny extra term pushes the total under the midpoint, so the correct
    rounding is the float below ``2**k``, while a float sum of the error terms
    can lose the extra term and land exactly on the midpoint.
    """
    n_slices = draw(st.integers(1, 4))
    columns = []
    for _ in range(n_slices):
        k = draw(st.integers(-200, 200))
        j = draw(st.integers(1, 300))
        terms = [2.0**k, -(2.0 ** (k - 54)), -(2.0 ** (k - 54 - j))]
        terms += draw(st.lists(signed_zeros | st.just(2.0 ** (k - 60)), max_size=4))
        columns.append(draw(st.permutations(terms)))
    width = max(len(c) for c in columns)
    a = np.zeros((width, n_slices))
    for i, c in enumerate(columns):
        a[: len(c), i] = c
    return a


@st.composite
def cancelling(draw):
    """Values and their near-negatives plus small remainders: heavy cancellation."""
    base = draw(arrays(np.float64, draw(st.integers(1, 12)), elements=st.floats(-1e6, 1e6)))
    scale = draw(st.sampled_from([1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53]))
    rest = draw(arrays(np.float64, draw(st.integers(0, 4)), elements=st.floats(-1e-10, 1e-10)))
    values = draw(st.permutations(np.concatenate([base, -base * scale, rest]).tolist()))
    return np.array(values, dtype=float)


class TestMatchesFsum:
    @settings(max_examples=200, deadline=None)
    @given(float_arrays(st.floats(width=64)))
    def test_any_floats(self, a):
        check_all_axes(a)

    @settings(max_examples=200, deadline=None)
    @given(float_arrays(dyadic))
    def test_dyadic_data_with_exact_ties(self, a):
        check_all_axes(a)

    @settings(max_examples=200, deadline=None)
    @given(power_of_two_from_below())
    def test_power_of_two_totals_approached_from_below(self, a):
        check_all_axes(a)
        assert_matches_fsum(a[:, 0])

    @settings(max_examples=200, deadline=None)
    @given(cancelling())
    def test_mixed_signs_with_cancellation(self, a):
        assert_matches_fsum(a)
        assert_matches_fsum(a.reshape(-1, 1))

    @settings(max_examples=200, deadline=None)
    @given(float_arrays(signed_zeros | st.just(1.5)))
    def test_zeros_and_negative_zero(self, a):
        check_all_axes(a)

    @settings(max_examples=200, deadline=None)
    @given(float_arrays(subnormals | dyadic))
    def test_subnormals(self, a):
        check_all_axes(a)

    @settings(max_examples=200, deadline=None)
    @given(float_arrays(wide_exponents))
    def test_exponents_spanning_300_decades(self, a):
        check_all_axes(a)

    @settings(max_examples=200, deadline=None)
    @given(float_arrays(near_overflow | st.floats(-1e300, 1e300)))
    def test_overflow_wherever_fsum_overflows(self, a):
        check_all_axes(a)


@pytest.fixture
def routes(monkeypatch):
    """The lengths of the slices that reach ``math.fsum`` and ``_bucket_total``, and fsum itself."""
    calls, fsum = [], math.fsum
    monkeypatch.setattr(sums_mod.math, "fsum", lambda v: calls.append(len(v)) or fsum(v))
    bucketed, bucket_total = [], sums_mod._bucket_total
    monkeypatch.setattr(sums_mod, "_bucket_total", lambda v: bucketed.append(v.size) or bucket_total(v))
    return calls, bucketed, fsum


class TestKnownCases:
    def test_midpoint_under_a_power_of_two(self):
        # the exact total is just below 1 - 2**-54, so it rounds down to 1 - 2**-53;
        # half the gap above 1 would wrongly certify 1.0
        a = np.array([1.0, -(2.0**-54), -(2.0**-200)])
        assert float(fsums(a)) == math.fsum(a.tolist()) == 1.0 - 2.0**-53

    @pytest.mark.parametrize(
        "a",
        [
            # t points up: the exact total is 1 + 0.75 * 2**-53, inside the gap above 1
            [1.0, 0.75 * 2.0**-53],
            [0.5, 0.5, 0.375 * 2.0**-53, 0.375 * 2.0**-53],
            # t points down: the exact total is 1 - 0.25 * 2**-53
            [1.0, -0.25 * 2.0**-53],
            # and the same below -1, where up and down swap
            [-1.0, -0.75 * 2.0**-53],
            [-1.0, 0.25 * 2.0**-53],
        ],
    )
    def test_totals_of_one_certified_on_the_side_of_t(self, monkeypatch, a):
        calls, fsum = [], math.fsum
        monkeypatch.setattr(sums_mod.math, "fsum", lambda v: calls.append(v) or fsum(v))
        assert float(column_sums(np.array(a))) == fsum(a) == math.copysign(1.0, a[0])
        assert calls == []

    def test_normalized_rows_totalling_one_skip_fsum(self, monkeypatch):
        # rows divided by their float total: many total exactly 1.0, from both sides
        rng = np.random.default_rng(11)
        rows = rng.dirichlet(np.full(2000, 1.5), size=120)
        rows /= rows.sum(axis=1, keepdims=True)
        expected = [math.fsum(r) for r in rows.tolist()]
        excess = [math.fsum(r + [-1.0]) for r in rows.tolist()]
        ones = [e for t, e in zip(expected, excess) if t == 1.0]
        assert min(ones) < 0.0 < max(ones)
        calls, fsum = [], math.fsum
        monkeypatch.setattr(sums_mod.math, "fsum", lambda v: calls.append(v) or fsum(v))
        got = fsums(rows, axis=1)
        assert got.tobytes() == np.array(expected).tobytes()
        assert calls == []

    @pytest.mark.parametrize("layout", [column_sums, row_sums])
    def test_rounding_of_the_remainder_total_is_bounded(self, layout):
        # 1.0 is extracted whole; the float total of the remainders, summed in
        # order, drops 3 * 2**-105 and lands 2**-104 under the midpoint
        # 1 + 2**-53, while the exact total lies just above it and rounds up
        a = np.array([1.0, 2.0**-50, 3 * 2.0**-105, -(2.0**-50), 2.0**-53 - 2.0**-104])
        assert float(layout(a)) == math.fsum(a.tolist()) == 1.0 + 2.0**-52

    @pytest.mark.parametrize("layout", [column_sums, row_sums])
    def test_exact_ties_take_the_route_of_their_length(self, routes, layout):
        # each total lies exactly halfway between two floats and rounds to the even one;
        # no bound certifies a tie, so a slice below the crossover goes to fsum and a
        # slice at or above it to the buckets, zeros padding it to length
        calls, bucketed, fsum = routes
        cases = [[1.0, 2.0**-53], [1.0 + 2.0**-52, 2.0**-53], [-1.0, -(2.0**-53)]]
        expected = [fsum(c) for c in cases]
        assert expected == [1.0, 1.0 + 2.0**-51, -1.0]
        for n in (2, _CROSSOVER - 1, _CROSSOVER):
            a = np.zeros((n, len(cases)))
            a[:2] = np.array(cases).T
            assert layout(a).tobytes() == np.array(expected).tobytes()
        assert calls == [2] * 3 + [_CROSSOVER - 1] * 3
        assert bucketed == [_CROSSOVER] * 3

    @pytest.mark.parametrize("layout", [column_sums, row_sums])
    def test_one_extraction_per_call(self, monkeypatch, routes, layout):
        # a certified slice, an exact tie, a NaN and a zero total: one extraction of
        # all four settles the first, and fsum takes the other three
        calls, bucketed, fsum = routes
        extracted, extract = [], sums_mod._extract
        monkeypatch.setattr(sums_mod, "_extract", lambda x, *rest: extracted.append(x.size) or extract(x, *rest))
        a = np.zeros((40, 4))
        a[:, 0] = np.arange(1.0, 41.0) / 7.0
        a[:2, 1] = [1.0, 2.0**-53]
        a[5, 2] = math.nan
        got = layout(a)
        expected = [fsum(c) for c in a.T.tolist()]
        assert got[[0, 1, 3]].tobytes() == np.array(expected)[[0, 1, 3]].tobytes()
        assert math.isnan(got[2])
        assert extracted == [a.size]
        assert calls == [40] * 3 and bucketed == []

    def test_intermediate_overflow_raises(self):
        for total in SUMMERS:
            with pytest.raises(OverflowError):
                total(np.array([1e308, 1e308, -1e308]))
            with pytest.raises(OverflowError):
                total(np.array([[1.0, 1e308], [2.0, 1e308]]), axis=0)

    def test_special_values(self):
        for total in SUMMERS:
            assert float(total(np.array([1.0, math.inf]))) == math.inf
            assert math.isnan(float(total(np.array([1.0, math.nan]))))
            with pytest.raises(ValueError):
                total(np.array([math.inf, -math.inf]))

    def test_empty_and_zero_slices(self):
        for total in SUMMERS:
            assert total(np.empty((0, 3)), axis=0).tobytes() == np.zeros(3).tobytes()
            assert total(np.empty((3, 0)), axis=0).shape == (0,)
            assert float(total(np.array([-0.0, -0.0]))).hex() == "0x0.0p+0"

    def test_small_vectors_keep_shape_and_axis_errors(self):
        # a 1-D array below the crossover skips moveaxis; results and errors stay
        a = np.arange(40.0) / 7.0
        for axis in (0, -1):
            got = fsums(a, axis=axis)
            assert got.shape == () and got.dtype == np.float64
            assert float(got).hex() == math.fsum(a.tolist()).hex()
        for bad_input, axis in ((a, 1), (np.float64(1.0), 0)):
            with pytest.raises(np.exceptions.AxisError):
                fsums(bad_input, axis=axis)

    def test_certified_slices_skip_fsum(self, monkeypatch):
        calls, fsum = [], math.fsum
        monkeypatch.setattr(sums_mod.math, "fsum", lambda v: calls.append(v) or fsum(v))
        rng = np.random.default_rng(7)
        # totals near 450 and 50,000, far from powers of two, with no ties
        fsums(3.0 * rng.random((300, 64)), axis=0)
        fsums(rng.random(100_000))
        assert calls == []

    @pytest.mark.parametrize(
        "shape, tie",
        [
            pytest.param((2**20, 1), False, id="shape0"),
            pytest.param((256, 4096), False, id="shape1"),
            pytest.param((2**20, 1), True, id="near-tie"),
        ],
    )
    def test_kernel_work_below_a_quarter_of_the_input(self, monkeypatch, shape, tie):
        # two reused block buffers and a few per-slice vectors, whatever the length;
        # a near-tie slice adds block-sized mantissa buffers and two bucket vectors
        x = np.random.default_rng(5).random(shape)
        if tie:
            x[-4:, 0] = 0.0
            x[-4:-1, 0] = near_tie(x[:, 0].tolist())[-3:]
        bucketed, bucket_total = [], sums_mod._bucket_total
        monkeypatch.setattr(sums_mod, "_bucket_total", lambda v: bucketed.append(v.size) or bucket_total(v))
        for total in (fsums, column_sums):
            tracemalloc.start()
            try:
                got = total(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < x.nbytes / 4, total
            if tie:
                assert float(got[0]).hex() == math.fsum(x[:, 0].tolist()).hex()
        assert bucketed == ([x.size] * 2 if tie else [])


def near_tie(values: list) -> list:
    """``values`` and three more floats whose exact total lies 2**-700 above a rounding midpoint.

    The values must total well inside the float range, with an exact
    remainder against their rounded total (multiples of 2**-53 below 1 do).
    """
    rounded = math.fsum(values)
    remainder = math.fsum(values + [-rounded])
    return values + [-remainder, math.ulp(rounded) / 2.0, 2.0**-700]


def telescoped_cdf_masses(mu: float, sigma2: float, half_width: float) -> np.ndarray:
    """The raw cell masses of ``normal_masses`` on 2^16 cells of ``[-half_width, half_width)``."""
    from scipy.special import ndtr

    grid = build_grid(-half_width, half_width, 2**16)
    z = (grid.edges - mu) / math.sqrt(sigma2)
    k = int(np.count_nonzero(grid.midpoints <= mu))
    raw = np.concatenate((np.diff(ndtr(z[: k + 1])), -np.diff(ndtr(-z[k:]))))
    return np.clip(raw, 0.0, None)


class TestNearTies:
    """Slices the extraction leaves unsettled: fsum below the crossover, integer mantissas at or above."""

    # normal cell masses far off the grid's centre, down to about 1e-135, whose
    # exact totals lie 1e-49 to 1e-114 from a rounding midpoint: (mu, sigma2,
    # half width, whether the normalized masses are near a tie too)
    @pytest.mark.parametrize(
        "mu, sigma2, half_width, normalized_too",
        [
            (-1.1169751709614402, 0.11078490632451372, 24.68771243824749, True),
            (0.07513103338088095, 0.03696945389975966, 23.276870013136943, True),
            (-1.0, 0.1, 12.0, False),
            (-0.5, 0.1, 12.0, False),
            (0.25, 0.1, 12.0, False),
        ],
    )
    def test_normal_masses_total_without_fsum(self, routes, mu, sigma2, half_width, normalized_too):
        calls, bucketed, fsum = routes
        raw = telescoped_cdf_masses(mu, sigma2, half_width)
        grid = build_grid(-half_width, half_width, 2**16)
        masses = normal_masses(mu, sigma2, grid).masses
        assert bucketed == [raw.size]  # the normalizing total of the raw masses
        for a in (raw, masses):
            assert float(fsums(a)).hex() == fsum(a.tolist()).hex()
        assert bucketed == [raw.size] * (3 if normalized_too else 2)
        assert calls == []

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.builds(lambda m, e: m * 2.0**-e, st.floats(0.5, 1.0), st.integers(0, 700)),
            min_size=1,
            max_size=60,
        ),
        st.sampled_from([column_sums, row_sums]),
        st.sampled_from([1, 3, sums_mod._BLOCK]),
    )
    def test_telescoped_differences_take_the_route_of_their_length(self, cdf, layout, block):
        # differences of sorted floats from 0 to 1, as CDF masses are: each rounds
        # once, so the exact total misses 1 by a sum of tiny rounding errors; zeros
        # pad the slice to the crossover, where an unsettled slice meets the buckets
        masses = np.diff(np.sort(np.array([0.0, 1.0, *cdf])))
        expected = math.fsum(masses.tolist()).hex()
        for n in (masses.size, _CROSSOVER):
            calls, bucketed, fsum, bucket_total = [], [], math.fsum, sums_mod._bucket_total
            padded = np.zeros(n)
            padded[: masses.size] = masses
            with (
                mock.patch.object(sums_mod.math, "fsum", lambda v: calls.append(len(v)) or fsum(v)),
                mock.patch.object(
                    sums_mod, "_bucket_total", lambda v: bucketed.append(v.size) or bucket_total(v)
                ),
                mock.patch.object(sums_mod, "_BLOCK", block),
            ):
                got = float(layout(padded))
            assert got.hex() == expected
            taken, other = (calls, bucketed) if n < _CROSSOVER else (bucketed, calls)
            assert taken in ([], [n]) and other == []

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(np.float64, st.integers(0, 40), elements=st.floats(-1e300, 1e300) | subnormals),
        st.sampled_from([1, 3, sums_mod._BLOCK]),
    )
    def test_bucket_total_is_exact(self, a, block):
        with mock.patch.object(sums_mod, "_BLOCK", block):
            got = sums_mod._bucket_total(a)
        exact = sum(map(Fraction, a.tolist()), Fraction(0))
        assert got == exact * 2 ** (sums_mod._EXP0 + 53)


class TestBlocksAndLimits:
    """Tiny blocks cross block boundaries inside short slices; a low limit sends slices to fsum."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([1, 2, 7]),
        float_arrays(st.floats(width=64)) | float_arrays(dyadic) | power_of_two_from_below(),
    )
    def test_any_block_size(self, block, a):
        with mock.patch.object(sums_mod, "_BLOCK", block):
            check_all_axes(a)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([1, 2, 7]), cancelling())
    def test_any_block_size_with_cancellation(self, block, a):
        with mock.patch.object(sums_mod, "_BLOCK", block):
            assert_matches_fsum(a)
            assert_matches_fsum(a.reshape(-1, 1))

    @pytest.mark.parametrize("limit", [1, 5, 6])
    def test_slices_over_the_length_limit_go_to_fsum(self, monkeypatch, limit):
        a = np.random.default_rng(limit).random((6, 4)) * 10.0 ** np.arange(-3, 3)[:, None]
        calls, fsum = [], math.fsum
        monkeypatch.setattr(sums_mod.math, "fsum", lambda v: calls.append(v) or fsum(v))
        monkeypatch.setattr(sums_mod, "_MAX_N", limit)
        for layout in (column_sums, row_sums):
            got = layout(a)
            assert got.tobytes() == np.array([fsum(c) for c in a.T.tolist()]).tobytes()
        # four slices of six values, under each of the two layouts
        assert len(calls) == (0 if limit >= 6 else 8)


class TestCrossover:
    @pytest.mark.parametrize("size", [_CROSSOVER - 1, _CROSSOVER, _CROSSOVER + 1])
    def test_fsum_bits_and_route_around_the_crossover(self, monkeypatch, size):
        rng = np.random.default_rng(size)
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size)
        unit = rng.dirichlet(np.ones(size))
        kernel_calls, kernel = [], sums_mod._extracted_sums
        monkeypatch.setattr(
            sums_mod, "_extracted_sums", lambda *args: kernel_calls.append(args) or kernel(*args)
        )
        # the crossover counts all values: one long slice or many of length 1
        for a in (values, unit, values.reshape(-1, 1)):
            check_all_axes(a)
        assert len(kernel_calls) == (4 if size >= _CROSSOVER else 0)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_memory_orders_views_and_three_axes(self, order):
        # fsums sums along the caller's axis in whatever order the memory has
        rng = np.random.default_rng(9)
        values = rng.standard_normal((300, 40)) * 10.0 ** rng.integers(-8, 9, (300, 40))
        a = np.array(values, order=order)
        for x in (a, a[::2], a[:, ::3], a.T, a.reshape(30, 10, 40)):
            assert x.size >= _CROSSOVER
            check_all_axes(x)


def test_math_fsum_called_only_in_the_kernel():
    # every exact total in the library goes through fsums
    src = Path(sums_mod.__file__).parent
    calls = []
    for path in sorted(src.glob("*.py")):
        if path.name == "_sums.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name == "fsum":
                    calls.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                calls += [f"{path.name}:{node.lineno}" for a in node.names if a.name == "fsum"]
    assert calls == []
