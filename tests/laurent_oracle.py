"""Laurent series objects and the series resultant built on them.

These are test oracles: the package eliminates on raw (shift, digits)
pairs (lattices.laurent_matrix_inverse and lattices.resultant_valuation),
and the tests compare that against the same elimination written on
LaurentSeries objects, whose windows are aligned operation by operation.
"""

from orderzeta.errors import PrecisionExhausted
from orderzeta.series import (ser_add, ser_mul, ser_neg, ser_sub,
                              ser_unit_inv, ser_val)


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

    def shifted(self, k):
        """Multiply by t^k (k may be negative); exact."""
        return LaurentSeries(self.fq, self.shift + k, self.coeffs)

    def inverse(self):
        v = ser_val(self.coeffs)
        if v is None:
            raise PrecisionExhausted(
                "cannot invert a series that is zero to precision")
        unit = self.coeffs[v:]
        return LaurentSeries(self.fq, -(self.shift + v),
                             ser_unit_inv(self.fq, unit))

    def normalized(self):
        """Push known leading zeros into the shift."""
        v = ser_val(self.coeffs)
        if v is None or v == 0:
            return self
        return LaurentSeries(self.fq, self.shift + v, self.coeffs[v:])

    def trimmed(self, end):
        """This element minus an unknown multiple of t^end: the digits
        from t^end on are no longer known."""
        if end >= self.abs_prec:
            return self
        if end > self.shift:
            return LaurentSeries(self.fq, self.shift,
                                 self.coeffs[:end - self.shift])
        return LaurentSeries(self.fq, end - 1, (0,))

    def to_truncated(self, precision):
        """The digits of this element of F_q[[t]] mod t^precision.

        Requires every stored coefficient below exponent 0 to vanish and
        the stored window to cover [0, precision).
        """
        if self.shift < 0 and any(
                self.coeffs[:min(len(self.coeffs), -self.shift)]):
            raise PrecisionExhausted("series has a pole, not integral")
        if self.abs_prec < precision:
            raise PrecisionExhausted(
                f"requested precision {precision} exceeds known window "
                f"{self.abs_prec}")
        out = [0] * precision
        for i, c in enumerate(self.coeffs):
            pos = self.shift + i
            if 0 <= pos < precision:
                out[pos] = c
        return tuple(out)

    def agrees_with(self, other):
        lo, a, b = self._aligned(other)
        return a == b


def resultant_series(fq, f, g):
    """Resultant of two X-polynomials with series coefficients (digit
    tuples, lowest degree first), by elimination with valuation pivoting
    on the Sylvester matrix.  Raises PrecisionExhausted when a pivot
    cannot be certified nonzero."""
    fc, gc = list(f), list(g)
    for cs in (fc, gc):
        while len(cs) > 1 and not any(cs[-1]):
            cs.pop()
    m, n = len(fc) - 1, len(gc) - 1
    if m < 0 or n < 0:
        raise PrecisionExhausted("resultant of an identically-zero input")
    prec = min(len(c) for c in tuple(f) + tuple(g))
    if m == 0:
        out = LaurentSeries.one(fq, prec)
        base = LaurentSeries(fq, 0, fc[0])
        for _ in range(n):
            out = out * base
        return out
    if n == 0:
        out = LaurentSeries.one(fq, prec)
        base = LaurentSeries(fq, 0, gc[0])
        for _ in range(m):
            out = out * base
        return out
    size = m + n
    rows = []
    for i in range(n):
        row = [LaurentSeries.zero(fq, prec) for _ in range(size)]
        for j, c in enumerate(reversed(fc)):
            row[i + j] = LaurentSeries(fq, 0, c)
        rows.append(row)
    for i in range(m):
        row = [LaurentSeries.zero(fq, prec) for _ in range(size)]
        for j, c in enumerate(reversed(gc)):
            row[i + j] = LaurentSeries(fq, 0, c)
        rows.append(row)
    sign = 1
    pivots = []
    for k in range(size):
        best = None
        best_val = None
        for i in range(k, size):
            v = rows[i][k].valuation()
            if v is not None and (best_val is None or v < best_val):
                best, best_val = i, v
        if best is None:
            raise PrecisionExhausted(
                "resultant pivot is zero to working precision; "
                "raise the precision or use exact polynomial inputs")
        if best != k:
            rows[k], rows[best] = rows[best], rows[k]
            sign = -sign
        inv = rows[k][k].inverse()
        for i in range(k + 1, size):
            if rows[i][k].is_zero():
                end = rows[i][k].abs_prec + inv.shift
            else:
                factor = (rows[i][k] * inv).normalized()
                if not factor.is_zero():
                    rows[i] = [rows[i][j] - factor * rows[k][j]
                               for j in range(size)]
                    continue
                end = factor.abs_prec
            # a multiplier zero only to its window: its unknown digits,
            # from t^end on, still reach row i through row k
            rows[i] = [rows[i][j].trimmed(end + rows[k][j].shift)
                       for j in range(size)]
        pivots.append(rows[k][k].normalized())
    det = pivots[0]
    for piv in pivots[1:]:
        det = det * piv
    if sign < 0:
        det = -det
    return det
