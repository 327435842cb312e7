"""Hensel lifting on coefficient columns: the reference for hensel_split.

This is a test oracle: the package lifts on the t^m digits of the two
factors, each a polynomial over F_q, through the up_* kernel, and the
tests compare that against the digit-by-digit loop written here, which
keeps one column of t-digits per X-coefficient and forms every digit of
g*h from scratch.
"""

from orderzeta.polynomials import (up_divmod, up_ext_euclid, up_mod, up_mul,
                                   up_sub, up_trim)
from orderzeta.series import ser_pad


def hensel_columns(fq, f, gbar, hbar, precision):
    """hensel_split(fq, f, gbar, hbar, precision), computed on columns."""
    g0, v = up_ext_euclid(fq, gbar, hbar)
    if g0 != (1,):
        raise ValueError("factors are not coprime modulo t")
    dg, dh = len(gbar) - 1, len(hbar) - 1
    # coefficient columns: g[i][m] is the t^m digit of the X^i coefficient
    gcols = [[0] * precision for _ in range(dg + 1)]
    hcols = [[0] * precision for _ in range(dh + 1)]
    for i, c in enumerate(gbar):
        gcols[i][0] = c
    for i, c in enumerate(hbar):
        hcols[i][0] = c
    fcols = [ser_pad(c, precision) for c in f]

    def digit(cols, i, m):
        return cols[i][m] if i < len(cols) else 0

    for m in range(1, precision):
        # t^m digit of f - g*h
        err = []
        for i in range(dg + dh + 1):
            s = fcols[i][m] if i < len(fcols) else 0
            for a in range(max(0, i - dh), min(i, dg) + 1):
                for mm in range(m + 1):
                    x = digit(gcols, a, mm)
                    y = digit(hcols, i - a, m - mm)
                    if x and y:
                        s = fq.sub(s, fq.mul(x, y))
            err.append(s)
        err = up_trim(err)
        if not err:
            continue
        # solve gbar*dh_ + hbar*dg_ = err with deg dg_ < dg
        dg_ = up_mod(fq, up_mul(fq, v, err), gbar)
        dh_, r = up_divmod(fq, up_sub(fq, err, up_mul(fq, hbar, dg_)), gbar)
        if r:
            raise ArithmeticError("lift step failed to divide")
        for i, c in enumerate(dg_):
            gcols[i][m] = c
        for i, c in enumerate(dh_):
            if i > dh:
                raise ArithmeticError("lift step raised the degree")
            hcols[i][m] = c
    return (tuple(tuple(col) for col in gcols),
            tuple(tuple(col) for col in hcols))
