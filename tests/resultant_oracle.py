"""Exact resultants over F_q[t]: the reference for resultant valuations.

This is a test oracle: the package reads every resultant valuation off
the Laurent elimination of lattices.resultant_valuation, and the tests
compare that against the fraction-free (Bareiss) determinant of the
Sylvester matrix, computed here on exact F_q[t] entries.
"""

from orderzeta.polynomials import (up_divmod, up_mul, up_pow, up_sub,
                                   xp_trim)


def resultant_exact(fq, f, g):
    """Resultant of two X-polynomials with exact F_q[t] coefficients,
    computed fraction-free; returns an exact F_q[t] tuple."""
    f, g = xp_trim(f), xp_trim(g)
    if not f or not g:
        return ()
    m, n = len(f) - 1, len(g) - 1
    if m == 0:
        return up_pow(fq, f[0], n)
    if n == 0:
        return up_pow(fq, g[0], m)
    size = m + n
    rows = []
    for poly, count in ((f, n), (g, m)):
        for i in range(count):
            row = [()] * size
            for j, c in enumerate(reversed(poly)):
                row[i + j] = tuple(c)
            rows.append(row)
    return _det_bareiss(fq, rows)


def _det_bareiss(fq, mat):
    n = len(mat)
    m = [row[:] for row in mat]
    denom = (1,)
    sign = 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return ()
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = up_sub(fq, up_mul(fq, m[i][j], m[k][k]),
                             up_mul(fq, m[i][k], m[k][j]))
                quo, rem = up_divmod(fq, num, denom)
                if rem:
                    raise ArithmeticError("inexact polynomial division")
                m[i][j] = quo
            m[i][k] = ()
        denom = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else up_sub(fq, (), det)
