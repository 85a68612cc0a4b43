"""The library's one exact-total entry point: sums with the bits of ``math.fsum``.

:func:`fsums` sums every 1-D slice of an array along one axis. Arrays of at
least ``_CROSSOVER`` values go through a pairwise tree of error-free
additions (TwoSum), vectorized over the slices, that keeps a slice's
rounded total only when a rigorous bound shows it is the correctly rounded
exact total, which is what ``math.fsum`` returns, and falls back to
``math.fsum`` on every other slice. Smaller arrays go to ``math.fsum``
slice by slice: the tree's fixed cost is a few dozen numpy calls (on one
CPU, 58 against 0.4 us at 4 values, even at 4,096, 8.4 against 81 ms at
2^20). Both routes give the same bits, so the crossover moves only time.
"""

from __future__ import annotations

import math

import numpy as np

_U = 2.0**-53  # unit roundoff of binary64 round-to-nearest
# Below _TINY the error bound could underflow and lose its rigour; at or
# below _HUGE no partial sum of fsum or of the tree can overflow.
_TINY = 2.0**-900
_HUGE = 2.0**1020
_CROSSOVER = 4096  # arrays with fewer values are summed slice by slice with math.fsum


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
    """
    x = np.asarray(a, dtype=float)
    if axis != 0 or x.ndim == 0:
        # moveaxis is most of a small call's cost; it is kept for its axis checks
        x = np.moveaxis(x, axis, 0)
    if x.ndim == 1 and x.size < _CROSSOVER:
        return np.array(math.fsum(x.tolist()))
    out_shape = x.shape[1:]
    x = x.reshape(x.shape[0], math.prod(out_shape))
    if x.size < _CROSSOVER:
        return np.array([math.fsum(col) for col in x.T.tolist()]).reshape(out_shape)
    return _tree_sums(x).reshape(out_shape)


def _tree_sums(x: np.ndarray) -> np.ndarray:
    """The exact total of each column of the 2-D ``x``, as :func:`fsums` gives it.

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
    ``B``). The exact total is ``r + t + d`` with ``d = E - c`` and
    ``|d| <= B``, so it lies within ``|t| + B`` of ``r``. When
    ``|t| > B``, ``t + d`` has the sign of ``t``: the exact total lies
    strictly on the side of ``r`` that ``t`` points to, away from zero when
    ``t`` and ``r`` share a sign and towards zero otherwise. When
    ``|t| <= B`` either side is possible. The gap from ``|r|`` to the next
    float towards zero is never wider than the gap away from zero (they
    differ only at a power of two, where it is half as wide). So ``r`` is
    the correctly rounded total, with no tie possible, when ``|t| + B`` is
    strictly less than half the gap away from zero if ``|t| > B`` and
    ``t`` points away from zero, and half the gap towards zero otherwise.
    Because rounding is monotone and that half gap is a float, comparing
    the rounded ``|t| + B`` decides the exact inequality.

    Fallback. A slice is certified only when ``2**-900 <= A_hat <= 2**1020``
    and ``r != 0``: a tiny ``A_hat`` would let ``B`` underflow, NaN or infinite
    entries and totals near the float range (where fsum's own partial sums,
    each at most about ``A``, could overflow) are left to fsum, and so are
    zero totals, whose sign fsum fixes. Exact ties, heavy cancellation and
    anything else the bound cannot settle also go to ``math.fsum``.
    """
    n = x.shape[0]
    if n == 0:
        return np.zeros(x.shape[1])
    # A level of h pair sums takes 3h rows of work: its sums, TwoSum's
    # temporary and its errors. Even levels start at row 0 and odd levels at
    # row h0 = n // 2, which keeps every level clear of the sums it reads,
    # so the work is 1.5 times the input.
    h0 = max(n // 2, 1)
    work = np.empty((3 * h0, x.shape[1]))
    s, c, levels = x, np.zeros(x.shape[1]), 0
    with np.errstate(all="ignore"):
        while len(s) > 1:
            h = len(s) // 2
            at = h0 if levels % 2 else 0
            hi, tmp, err = work[at : at + h], work[at + h : at + 2 * h], work[at + 2 * h : at + 3 * h]
            _two_sum(s[:h], s[h : 2 * h], hi, tmp, err)
            c += err.sum(axis=0)
            if len(s) % 2:
                _two_sum(hi[0].copy(), s[-1], hi[0], tmp[0], err[0])
                c += err[0]
            s, levels = hi, levels + 1
        r, t = _two_sum(s[0], c)
        # the work is free again and has at least n rows
        a_hat = np.abs(x, out=work[:n]).sum(axis=0)
        bound = a_hat * (4.0 * (n + 2 * levels) * levels * _U * _U)
        mag, slack = np.abs(r), np.abs(t)
        outward = (slack > bound) & ((t > 0.0) == (r > 0.0))
        gap = np.where(outward, np.spacing(mag), mag - np.nextafter(mag, 0.0))
        ok = (a_hat >= _TINY) & (a_hat <= _HUGE) & (r != 0.0) & (slack + bound < gap * 0.5)
    for j in np.flatnonzero(~ok).tolist():
        r[j] = math.fsum(x[:, j].tolist())
    return r
