"""The library's one exact-total entry point: sums with the bits of ``math.fsum``.

:func:`fsums` sums every 1-D slice of an array along one axis. Arrays of at
least ``_CROSSOVER`` values go through :func:`_extracted_sums`, the
error-free vector extraction of Rump, Ogita and Oishi ("Accurate
floating-point summation, part I: Faithful rounding", SIAM J. Sci.
Comput. 31(1), 2008), vectorized over the slices. It keeps a slice's
rounded total only when it can show that it is the correctly rounded exact
total, which is what ``math.fsum`` returns. A slice it cannot settle that
way takes the route its length would take on its own: ``math.fsum`` below
``_CROSSOVER`` values, an exact integer total from per-exponent buckets at
or above it. Non-finite values, out-of-range scales, overlong slices and
zero totals go to ``math.fsum`` too. Smaller arrays go to ``math.fsum``
slice by slice: the kernel's fixed cost is a few dozen numpy calls (on one
CPU of a shared 2-vCPU host, about 0.1 ms for one slice of 4 to 4,096
values, where fsum takes 93 us at 2,048 values and 136 us at 3,072). Every
route gives the same bits, so the crossover moves only time.
"""

from __future__ import annotations

import math

import numpy as np

_U = 2.0**-53  # unit roundoff of binary64 round-to-nearest
# At or above _TINY the extraction's error bound B stays a normal float, so
# its rounding is relative; at or below _HUGE no partial sum of fsum or of
# the kernel can overflow.
_TINY = 2.0**-800
_HUGE = 2.0**1020
_CROSSOVER = 2048  # arrays with fewer values are summed slice by slice with math.fsum
_BLOCK = 2**15  # values per work buffer; the kernel's two buffers stay in L2
_MAX_N = 2**26 - 2  # the longest slice the extraction lemma covers
# frexp exponents of nonzero floats run from -1073 to 1024; a value's bucket
# is its exponent plus _EXP0
_EXP0 = 1074
_BUCKETS = 2099


def fsums(a, axis: int = 0) -> np.ndarray:
    """``math.fsum(s.tolist())`` for every 1-D slice ``s`` of ``a`` along ``axis``.

    The result has the shape of ``a`` without ``axis`` (a 0-d array for 1-D
    input) and carries fsum's exact bits: the correctly rounded exact
    total, 0.0 for an empty or all-zero slice, NaN or infinity where fsum
    gives them, and ``OverflowError`` or ``ValueError`` where fsum raises.
    """
    x = np.asarray(a, dtype=float)
    if axis == 0 and x.ndim == 1 and x.size < _CROSSOVER:
        return np.array(math.fsum(x.tolist()))  # the common small case, without moveaxis
    slices = np.moveaxis(x, axis, -1)  # raises numpy's AxisError for an axis x lacks
    out_shape = slices.shape[:-1]
    n, k = slices.shape[-1], math.prod(out_shape)
    slices = slices.reshape(k, n)  # one slice per row, a view where it can be
    if x.size < _CROSSOVER:
        return np.array([math.fsum(s) for s in slices.tolist()]).reshape(out_shape)
    # numpy's loops run along the last, contiguous axis: sum along rows when the
    # slices are the longer side and fit a block, else down columns
    if k <= n <= _BLOCK:
        return _extracted_sums(np.ascontiguousarray(slices), 1).reshape(out_shape)
    return _extracted_sums(np.ascontiguousarray(slices.T), 0).reshape(out_shape)


def _two_sum(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's TwoSum: ``hi = fl(a + b)`` and ``err = a + b - hi`` exactly."""
    hi = a + b
    tmp = hi - a
    return hi, (a - (hi - tmp)) + (b - tmp)


def _extracted_sums(x: np.ndarray, axis: int) -> np.ndarray:
    """The exact total of each slice of the 2-D ``x`` along ``axis``, as :func:`fsums` gives it.

    Extraction. For slices of n values take M with ``2**M >= n + 2``,
    ``u = 2**-53`` and, per slice, ``sigma = 2**M * 2**e >= 2**M max|x|``.
    Each value splits exactly into ``q = fl(fl(sigma + x) - sigma)``, a
    multiple of ``u sigma``, and ``p = x - q``, with ``|p| <= u sigma``
    and ``|q| <= |x| + u sigma``. While ``2**(2M) u <= 1`` (n at most
    ``_MAX_N``) the ``|q|`` total at most ``sigma``, so every partial sum
    of the q is a float and their float total ``tau`` is exact in any
    order. The remainders are totalled in floats into ``c``; each passes
    through at most D additions (those of its block, then one per block),
    so ``|c - E| <= gamma(D) n u sigma`` for their exact total E.

    Certification. By TwoSum ``tau + c = r + t`` exactly, and the exact
    total lies within ``|t| + B`` of ``r``, ``B = 2 D n u**2 sigma +
    2 u |c|`` (the factor 2 covers gamma's denominator and B's rounding).
    When ``|t| > B`` the exact total lies strictly on the side of ``r``
    that ``t`` points to; otherwise either side is possible. The gap from
    ``|r|`` to the next float towards zero is never wider than the gap away
    from zero (at a power of two it is half as wide). So ``r`` is the
    correctly rounded total, with no tie possible, when ``|t| + B`` is
    below half the gap away from zero if ``|t| > B`` and ``t`` points away
    from zero, and half the gap towards zero otherwise. Rounding is
    monotone and that half gap is a float, so comparing the rounded
    ``|t| + B`` decides the exact inequality.

    Unsettled slices. A slice with a zero or uncertified ``r`` has an exact
    total too close to a rounding midpoint (exact ties included) or to zero
    for the bound: telescoped CDF masses land 1e-49 to 1e-114 from one.
    Below ``_CROSSOVER`` values it goes to ``math.fsum``, which totals a
    short slice in about a microsecond. At or above, :func:`_bucket_total`
    totals its values exactly as an integer times a power of two, and one
    int/int division rounds that to the nearest float, ties to even, as
    fsum does.

    Fallback. Slices with a NaN or infinite value, ``sigma`` outside
    ``[_TINY, _HUGE]``, more than ``_MAX_N`` values or an exact total of
    zero go to ``math.fsum``, which fixes the sign of zero totals and
    raises where it raises; as ``sum |x| < sigma``, no route overflows
    below ``_HUGE``.

    Work. Blocks of about ``_BLOCK`` values pass through two reused
    buffers, summed along ``axis`` in memory order: about seven numpy
    passes per value. On the host above, the 281 x 3,136 column totals of
    a finite-decide m(x) take 4.4-5.4 ms, and one slice of 2^20 values
    4.4-4.9 ms. The buckets take about 2 ms for 262,144 values spread over
    130 decades, where ``math.fsum`` takes 47 ms.
    """
    n, k = x.shape[axis], x.shape[1 - axis]
    if n == 0 or k == 0:
        return np.zeros(k)
    m = (n + 1).bit_length()  # the least M with 2**M >= n + 2
    with np.errstate(all="ignore"):
        biggest = np.maximum(x.max(axis), -x.min(axis))
        sigma = np.ldexp(1.0, np.frexp(biggest)[1] + m)
        tau, c, depth = _extract(x, axis, sigma)
        total, t = _two_sum(tau, c)
        bound = sigma * (2.0 * depth * n * _U * _U) + np.abs(c) * (2.0 * _U)
        # every slice is extracted, but the lemma and the bound hold only for
        # finite slices in range
        fallback = ~(np.isfinite(biggest) & (sigma >= _TINY) & (sigma <= _HUGE) & (n <= _MAX_N))
        settled = ~fallback & (total != 0.0) & _certified(total, t, bound)
    for j in np.flatnonzero(~settled).tolist():
        v = x[:, j] if axis == 0 else x[j]
        exact = _bucket_total(v) if n >= _CROSSOVER and not fallback[j] else 0
        # int / int rounds once, ties to even
        total[j] = exact / (1 << (_EXP0 + 53)) if exact else math.fsum(v.tolist())
    return total


def _extract(x: np.ndarray, axis: int, sigma: np.ndarray) -> tuple:
    """Split every slice of ``x`` against its ``sigma``, block by block.

    Returns the float total of each slice's extracted parts (exact), the
    float total of its remainders and D, the most additions a remainder
    passes through.
    """
    rows = max(1, _BLOCK // x.shape[1])
    q = np.empty((min(rows, x.shape[0]), x.shape[1]))
    p = np.empty_like(q)
    tau, c = np.zeros((2, x.shape[1 - axis]))
    for i in range(0, x.shape[0], rows):
        xb = x[i : i + rows]
        qb, pb = q[: len(xb)], p[: len(xb)]
        at = slice(None) if axis == 0 else slice(i, i + rows)
        s = sigma if axis == 0 else sigma[at, None]
        np.subtract(np.add(s, xb, out=qb), s, out=qb)
        tau[at] += qb.sum(axis)
        c[at] += np.subtract(xb, qb, out=pb).sum(axis)
    n = x.shape[axis]
    return tau, c, (n if axis else min(rows, n) - 1 + -(-n // rows))


def _bucket_total(v: np.ndarray) -> int:
    """The exact total of the finite 1-D ``v``, times ``2**(_EXP0 + 53)``, as an int.

    ``np.frexp`` writes each value as ``m 2**e`` with ``M = m 2**53`` an
    integer below ``2**53`` in magnitude. M splits exactly into a high half
    ``h = floor(M / 2**26)``, below ``2**27`` in magnitude, and a low half
    ``M - h 2**26`` in ``[0, 2**26)``. ``np.bincount`` totals each half per
    exponent in floats, block by block; at most ``_MAX_N`` values keep every
    partial total an integer below ``2**53``, so all of them are exact.
    """
    high, low = np.zeros(_BUCKETS), np.zeros(_BUCKETS)
    for i in range(0, len(v), _BLOCK):
        m, e = np.frexp(v[i : i + _BLOCK])
        m *= 2.0**53
        h = m * 2.0**-26
        np.floor(h, out=h)
        m -= h * 2.0**26
        e += _EXP0
        high += np.bincount(e, weights=h, minlength=_BUCKETS)
        low += np.bincount(e, weights=m, minlength=_BUCKETS)
    total = 0
    for b in np.flatnonzero((high != 0.0) | (low != 0.0)).tolist():
        total += ((int(high[b]) << 26) + int(low[b])) << b
    return total


def _certified(r: np.ndarray, t: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Whether ``r`` is the correctly rounded value of every total within ``bound`` of ``r + t``."""
    mag, slack = np.abs(r), np.abs(t)
    outward = (slack > bound) & ((t > 0.0) == (r > 0.0))
    gap = np.where(outward, np.spacing(mag), mag - np.nextafter(mag, 0.0))
    return slack + bound < gap * 0.5
