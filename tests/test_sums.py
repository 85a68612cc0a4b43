"""The summation kernel gives math.fsum's bits on every slice, or fsum's exception."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import relbel._sums as sums_mod
from relbel._sums import fsums

TINY_NORMAL = 2.2250738585072014e-308


def assert_matches_fsum(a: np.ndarray, axis: int = 0) -> None:
    """``fsums(a, axis)`` equals per-slice ``math.fsum`` bitwise, or raises as it does."""
    slices = np.moveaxis(a, axis, -1)
    rows = slices.reshape(math.prod(slices.shape[:-1]), slices.shape[-1]).tolist()
    expected = []
    for row in rows:
        try:
            expected.append(math.fsum(row))
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc)):
                fsums(a, axis)
            return
    got = fsums(a, axis)
    assert got.shape == slices.shape[:-1]
    assert got.tobytes() == np.array(expected, dtype=float).reshape(got.shape).tobytes(), (a, axis)


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


class TestKnownCases:
    def test_midpoint_under_a_power_of_two(self):
        # the exact total is just below 1 - 2**-54, so it rounds down to 1 - 2**-53;
        # half the gap above 1 would wrongly certify 1.0
        a = np.array([1.0, -(2.0**-54), -(2.0**-200)])
        assert float(fsums(a)) == math.fsum(a.tolist()) == 1.0 - 2.0**-53

    def test_intermediate_overflow_raises(self):
        with pytest.raises(OverflowError):
            fsums(np.array([1e308, 1e308, -1e308]))
        with pytest.raises(OverflowError):
            fsums(np.array([[1.0, 1e308], [2.0, 1e308]]), axis=0)

    def test_special_values(self):
        assert float(fsums(np.array([1.0, math.inf]))) == math.inf
        assert math.isnan(float(fsums(np.array([1.0, math.nan]))))
        with pytest.raises(ValueError):
            fsums(np.array([math.inf, -math.inf]))

    def test_empty_and_zero_slices(self):
        assert fsums(np.empty((0, 3)), axis=0).tobytes() == np.zeros(3).tobytes()
        assert fsums(np.empty((3, 0)), axis=0).shape == (0,)
        assert float(fsums(np.array([-0.0, -0.0]))).hex() == "0x0.0p+0"

    def test_certified_slices_skip_fsum(self, monkeypatch):
        calls, fsum = [], math.fsum
        monkeypatch.setattr(sums_mod.math, "fsum", lambda v: calls.append(v) or fsum(v))
        rng = np.random.default_rng(7)
        # totals near 450 and 50,000, far from powers of two, with no ties
        fsums(3.0 * rng.random((300, 64)), axis=0)
        fsums(rng.random(100_000))
        assert calls == []
