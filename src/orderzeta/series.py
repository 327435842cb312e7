"""Power series over F_q truncated at an explicit precision.

A series is stored as a tuple of element codes c[0..N-1] and means
c[0] + c[1] t + ... + c[N-1] t^(N-1) + O(t^N).  N is the (absolute)
precision; it is data, not a global setting, and every operation states
how it propagates.  The valuation of a series that is zero to its stored
precision is unknown, so `valuation` returns the sentinel None and
callers must handle it explicitly.

Module-level `ser_*` functions work on raw coefficient tuples and carry
the Fq context as the first argument; the hot lattice loops use these
directly.  `TruncatedSeries` (elements of F_q[[t]]) and `LaurentSeries`
(elements of F_q((t)), with a t-power shift) wrap them for general use.
The series resultant eliminates on `LaurentSeries`, and it is kept as
the object reference that the test of the lattice layer's raw-pair
matrix inverse compares against.
"""

from __future__ import annotations

from itertools import compress, count
from operator import getitem

from .errors import PrecisionExhausted


# ---------------------------------------------------------------------------
# raw tuple kernel
# ---------------------------------------------------------------------------
#
# Most digits of the series the lattice layer feeds in are zero, and most
# sums add to an all-zero accumulator, so the kernels return a zero
# operand's partner as it is, find the nonzero positions with
# itertools.compress, and run the remaining per-digit loops through map
# over the Fq table rows.

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

class TruncatedSeries:
    """Element of F_q[[t]] known modulo t^precision."""

    __slots__ = ("fq", "coeffs")

    def __init__(self, fq, coeffs):
        self.fq = fq
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("precision must be at least 1")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_poly(cls, fq, poly_coeffs, precision):
        """Series for an exact polynomial; higher coefficients are truly 0."""
        c = list(poly_coeffs[:precision])
        c += [0] * (precision - len(c))
        return cls(fq, c)

    @classmethod
    def zero(cls, fq, precision):
        return cls(fq, (0,) * precision)

    @classmethod
    def one(cls, fq, precision):
        return cls(fq, (1,) + (0,) * (precision - 1))

    @classmethod
    def monomial(cls, fq, k, precision, coeff=1):
        c = [0] * precision
        if k < precision:
            c[k] = coeff
        return cls(fq, c)

    # -- structure --------------------------------------------------------

    @property
    def precision(self):
        return len(self.coeffs)

    def valuation(self):
        return ser_val(self.coeffs)

    def is_zero(self):
        """True when zero to stored precision (which is all we can know)."""
        return not any(self.coeffs)

    def is_unit(self):
        return self.coeffs[0] != 0

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.fq is other.fq and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.fq), self.coeffs))

    def agrees_with(self, other):
        """Equality on the overlap of the two stored precisions."""
        n = min(len(self.coeffs), len(other.coeffs))
        return self.coeffs[:n] == other.coeffs[:n]

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return TruncatedSeries(self.fq, ser_add(self.fq, self.coeffs, other.coeffs))

    def __sub__(self, other):
        return TruncatedSeries(self.fq, ser_sub(self.fq, self.coeffs, other.coeffs))

    def __neg__(self):
        return TruncatedSeries(self.fq, ser_neg(self.fq, self.coeffs))

    def __mul__(self, other):
        return TruncatedSeries(self.fq, ser_mul(self.fq, self.coeffs, other.coeffs))

    def scale(self, c):
        return TruncatedSeries(self.fq, ser_scale(self.fq, c, self.coeffs))

    def unit_inverse(self):
        return TruncatedSeries(self.fq, ser_unit_inv(self.fq, self.coeffs))

    def truncate(self, n):
        return TruncatedSeries(self.fq, self.coeffs[:n])

    def __repr__(self):
        from .parsing import format_series
        return f"TruncatedSeries({format_series(self)} + O(t^{self.precision}))"


class LaurentSeries:
    """Element of F_q((t)): a coefficient tuple starting at exponent
    `shift` (possibly negative).  Absolute precision is shift + len."""

    __slots__ = ("fq", "shift", "coeffs")

    def __init__(self, fq, shift, coeffs):
        self.fq = fq
        self.shift = shift
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("empty coefficient window")

    @classmethod
    def from_series(cls, s, shift=0):
        return cls(s.fq, shift, s.coeffs)

    @classmethod
    def zero(cls, fq, abs_prec):
        # zero to precision t^abs_prec, window starting at 0 when possible
        start = min(0, abs_prec - 1)
        return cls(fq, start, (0,) * (abs_prec - start))

    @classmethod
    def one(cls, fq, abs_prec):
        return cls(fq, 0, (1,) + (0,) * (abs_prec - 1))

    @property
    def abs_prec(self):
        return self.shift + len(self.coeffs)

    def valuation(self):
        v = ser_val(self.coeffs)
        return None if v is None else self.shift + v

    def is_zero(self):
        return not any(self.coeffs)

    def _aligned(self, other):
        """Common window [lo, hi) covering both operands' knowledge."""
        lo = min(self.shift, other.shift)
        hi = min(self.abs_prec, other.abs_prec)
        if hi <= lo:
            raise PrecisionExhausted("no common precision window")
        def window(x):
            out = [0] * (hi - lo)
            for i, c in enumerate(x.coeffs):
                pos = x.shift + i - lo
                if 0 <= pos < hi - lo:
                    out[pos] = c
            return out
        return lo, window(self), window(other)

    def __add__(self, other):
        lo, a, b = self._aligned(other)
        return LaurentSeries(self.fq, lo, ser_add(self.fq, tuple(a), tuple(b)))

    def __sub__(self, other):
        lo, a, b = self._aligned(other)
        return LaurentSeries(self.fq, lo, ser_sub(self.fq, tuple(a), tuple(b)))

    def __neg__(self):
        return LaurentSeries(self.fq, self.shift, ser_neg(self.fq, self.coeffs))

    def __mul__(self, other):
        n = min(len(self.coeffs), len(other.coeffs))
        prod = ser_mul(self.fq, self.coeffs, other.coeffs, n)
        return LaurentSeries(self.fq, self.shift + other.shift, prod)

    def scale(self, c):
        return LaurentSeries(self.fq, self.shift, ser_scale(self.fq, c, self.coeffs))

    def shifted(self, k):
        """Multiply by t^k (k may be negative); exact."""
        return LaurentSeries(self.fq, self.shift + k, self.coeffs)

    def inverse(self):
        v = ser_val(self.coeffs)
        if v is None:
            raise PrecisionExhausted("cannot invert a series that is zero to precision")
        unit = self.coeffs[v:]
        return LaurentSeries(self.fq, -(self.shift + v), ser_unit_inv(self.fq, unit))

    def __truediv__(self, other):
        return self * other.inverse()

    def normalized(self):
        """Push known leading zeros into the shift."""
        v = ser_val(self.coeffs)
        if v is None or v == 0:
            return self
        return LaurentSeries(self.fq, self.shift + v, self.coeffs[v:])

    def to_truncated(self, precision):
        """View as an element of F_q[[t]] mod t^precision.

        Requires every stored coefficient below exponent 0 to vanish and
        the stored window to cover [0, precision).
        """
        if self.shift < 0 and any(self.coeffs[:min(len(self.coeffs), -self.shift)]):
            raise PrecisionExhausted("series has a pole, not integral")
        if self.abs_prec < precision:
            raise PrecisionExhausted(
                f"requested precision {precision} exceeds known window {self.abs_prec}")
        out = [0] * precision
        for i, c in enumerate(self.coeffs):
            pos = self.shift + i
            if 0 <= pos < precision:
                out[pos] = c
        return TruncatedSeries(self.fq, out)

    def agrees_with(self, other):
        lo, a, b = self._aligned(other)
        return a == b

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.fq is other.fq and self.agrees_with(other) \
            and self.abs_prec == other.abs_prec
    __hash__ = None

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{self.fq.element_text(c)}*t^{self.shift + i}")
        body = " + ".join(terms) if terms else "0"
        return f"LaurentSeries({body} + O(t^{self.abs_prec}))"
