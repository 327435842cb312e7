"""Power series over F_q truncated at an explicit precision.

A series is stored as a tuple of element codes c[0..N-1] and means
c[0] + c[1] t + ... + c[N-1] t^(N-1) + O(t^N).  N is the (absolute)
precision; it is data, not a global setting, and every operation states
how it propagates.  The valuation of a series that is zero to its stored
precision is unknown, so `ser_val` returns the sentinel None and callers
must handle it explicitly.

The `ser_*` functions work on these raw coefficient tuples and carry the
Fq context as the first argument; they are the package's one series
representation.  A polynomial in X with series coefficients is a tuple
of such digit tuples, lowest degree first, and a Laurent series is a
raw (shift, digits) pair whose digits start at exponent shift (see the
elimination in lattices.py).
"""

from __future__ import annotations

from itertools import compress, count
from operator import getitem


# ---------------------------------------------------------------------------
# raw tuple kernel
# ---------------------------------------------------------------------------
#
# Most digits of the series the lattice layer feeds in are zero, and most
# sums add to an all-zero accumulator, so the kernels return a zero
# operand's partner as it is, find the nonzero positions with
# itertools.compress, and run the remaining per-digit loops through map
# over the Fq table rows.

def ser_pad(a, n):
    """The first n digits of a, zero-extended: an exact polynomial, whose
    higher digits are truly zero, as a series known to n digits."""
    return tuple(a[:n]) + (0,) * (n - len(a))

def ser_val(a):
    """Index of the first nonzero coefficient, or None if all stored
    coefficients vanish."""
    return next(compress(count(), a), None)

def ser_add(fq, a, b):
    if not any(a):
        return tuple(b[:len(a)])
    if not any(b):
        return tuple(a[:len(b)])
    return tuple(map(getitem, map(fq._add.__getitem__, a), b))

def ser_sub(fq, a, b):
    if not any(b):
        return tuple(a[:len(b)])
    return tuple(map(getitem, map(fq._sub.__getitem__, a), b))

def ser_neg(fq, a):
    return tuple(map(fq._neg.__getitem__, a))

def ser_scale(fq, c, a):
    if c == 0:
        return (0,) * len(a)
    if c == 1:
        return tuple(a)
    return tuple(map(fq._mul[c].__getitem__, a))

def ser_mul(fq, a, b, n=None):
    """Product truncated to n terms (default: min of the input precisions)."""
    if n is None:
        n = min(len(a), len(b))
    b_nonzero = list(compress(range(min(len(b), n)), b))
    if not b_nonzero:
        return (0,) * n
    out = [0] * n
    add = fq._add
    mul = fq._mul
    for i in compress(range(min(len(a), n)), a):
        row = mul[a[i]]
        for j in b_nonzero:
            k = i + j
            if k >= n:
                break
            out[k] = add[out[k]][row[b[j]]]
    return tuple(out)

def ser_unit_inv(fq, a):
    """Inverse of a unit series (nonzero constant term), same precision."""
    if not a or a[0] == 0:
        raise ZeroDivisionError("series is not a unit")
    n = len(a)
    inv0 = fq._inv[a[0]]
    out = [inv0] + [0] * (n - 1)
    mul = fq._mul
    a_terms = [(i, mul[a[i]]) for i in compress(range(1, n), a[1:])]
    if not a_terms:
        return tuple(out)
    add = fq._add
    # out[k] = -inv0 * sum_{i>=1} a[i] out[k-i]
    neg_inv0 = mul[fq._neg[inv0]]
    for k in range(1, n):
        acc = 0
        for i, row in a_terms:
            if i > k:
                break
            acc = add[acc][row[out[k - i]]]
        out[k] = neg_inv0[acc]
    return tuple(out)
