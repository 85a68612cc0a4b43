"""Exact sums of numpy arrays with the bits of ``math.fsum``, without Python lists.

:func:`fsums` sums every 1-D slice of an array along one axis. A pairwise
tree of error-free additions (TwoSum) runs down the axis, vectorized over
the other axes. It gives a rounded total ``s`` and rounding errors whose
float sum is ``c``; one more TwoSum splits ``s + c`` into ``r + t``. A
slice keeps ``r`` only when a rigorous bound shows that ``r`` is the
correctly rounded exact total, which is what ``math.fsum`` returns.
Every other slice falls back to ``math.fsum`` on that slice.
"""

from __future__ import annotations

import math

import numpy as np

_U = 2.0**-53  # unit roundoff of binary64 round-to-nearest
# Below _TINY the error bound could underflow and lose its rigour; at or
# below _HUGE no partial sum of fsum or of the tree can overflow.
_TINY = 2.0**-900
_HUGE = 2.0**1020


def _two_sum(a, b, hi=None, tmp=None, err=None) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's TwoSum: ``hi = fl(a + b)`` and ``err = a + b - hi`` exactly.

    Writes into the buffers given (none may alias ``a`` or ``b``) and
    allocates the others.
    """
    hi = np.add(a, b, out=hi)
    tmp = np.subtract(hi, a, out=tmp)
    err = np.subtract(hi, tmp, out=err)
    np.subtract(a, err, out=err)
    np.subtract(b, tmp, out=tmp)
    err += tmp
    return hi, err


def fsums(a, axis: int = 0) -> np.ndarray:
    """``math.fsum(s.tolist())`` for every 1-D slice ``s`` of ``a`` along ``axis``.

    The result has the shape of ``a`` without ``axis`` (a 0-d array for 1-D
    input) and carries fsum's exact bits: the correctly rounded exact
    total, 0.0 for an empty or all-zero slice, NaN or infinity where fsum
    gives them, and ``OverflowError`` or ``ValueError`` where fsum raises.

    Method. Each level of the tree adds the first half of the rows to the
    second half with TwoSum, folding an odd last row into row 0 with one
    more TwoSum; after ``L = floor(log2 n)`` levels one row ``s`` is left.
    Every level's errors are summed in floats into ``c``, and a final
    TwoSum gives ``s + c = r + t`` exactly.

    Certification. Let ``A = sum |a_i|`` and ``u = 2**-53``. Each TwoSum
    error is at most ``u |hi|``; the pair sums of one level total at most
    ``(1 + u)**(2L) A`` in magnitude, and so does its fold, so the errors,
    whose exact sum is ``E``, satisfy ``sum |e| <= 2 L u (1 + u)**(2L) A``.
    Each error passes through at most ``n + 2L`` float additions on its
    way into ``c``, so ``|c - E| <= gamma(n + 2L) sum |e|`` with
    ``gamma(k) = k u / (1 - k u)``.
    With the float total ``A_hat >= (1 - gamma(n)) A`` this gives
    ``|c - E| <= B = 4 (n + 2L) L u**2 A_hat`` (order ``n u**2 log n A``;
    the factor 4 covers the ``1 + O(n u)`` terms and the rounding of
    ``B``). The exact total is ``r + t + (E - c)``, so when
    ``|t| + B`` is strictly less than half the *smaller* neighbour gap of
    ``r`` (the gap below a power of two is half the gap above), ``r`` is
    the correctly rounded total and no tie is possible. Because rounding
    is monotone and that half gap is a float, comparing the rounded
    ``|t| + B`` decides the exact inequality.

    Fallback. A slice is certified only when ``2**-900 <= A_hat <= 2**1020``
    and ``r != 0``: a tiny ``A_hat`` would let ``B`` underflow, NaN or infinite
    entries and totals near the float range (where fsum's own partial sums,
    each at most about ``A``, could overflow) are left to fsum, and so are
    zero totals, whose sign fsum fixes. Exact ties, heavy cancellation and
    anything else the bound cannot settle also go to ``math.fsum``.
    """
    x = np.moveaxis(np.asarray(a, dtype=float), axis, 0)
    n, out_shape = x.shape[0], x.shape[1:]
    x = x.reshape(n, math.prod(out_shape))
    if n == 0:
        return np.zeros(out_shape)
    # level sums alternate between work[0] and work[1]; work[2] and work[3]
    # hold TwoSum's temporary and errors
    work = np.empty((4, max(n // 2, 1), x.shape[1]))
    s, c, levels = x, np.zeros(x.shape[1]), 0
    with np.errstate(all="ignore"):
        while len(s) > 1:
            h = len(s) // 2
            hi, tmp, err = work[levels % 2, :h], work[2, :h], work[3, :h]
            _two_sum(s[:h], s[h : 2 * h], hi, tmp, err)
            c += err.sum(axis=0)
            if len(s) % 2:
                _two_sum(hi[0].copy(), s[-1], hi[0], tmp[0], err[0])
                c += err[0]
            s, levels = hi, levels + 1
        r, t = _two_sum(s[0], c)
        a_hat = np.abs(x).sum(axis=0)
        bound = a_hat * (4.0 * (n + 2 * levels) * levels * _U * _U)
        mag = np.abs(r)
        half_gap = np.minimum(np.spacing(mag), mag - np.nextafter(mag, 0.0)) * 0.5
        ok = (a_hat >= _TINY) & (a_hat <= _HUGE) & (r != 0.0) & (np.abs(t) + bound < half_gap)
    for j in np.flatnonzero(~ok).tolist():
        r[j] = math.fsum(x[:, j].tolist())
    return r.reshape(out_shape)
