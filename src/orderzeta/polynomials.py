"""Exact polynomial arithmetic layers used by the order machinery.

Two coefficient domains appear, both with dense low-degree-first tuples:

* `up_*`   -- univariate polynomials over F_q itself (tuples of element
              codes).  Used for residue factorisations, Hensel data and,
              over F_p, the extension-field tables and moduli of fq.py.
              Exact elements of F_q[t] are the same tuples.
* `xp_*`   -- polynomials in X whose coefficients are exact F_q[t]
              tuples.  The defining polynomials of orders live here.

X-polynomials with truncated power series coefficients are tuples of
series digit tuples (see series.py); `hensel_split` lifts factorisations
on them with the `up_*` kernel, one t-digit at a time, and their
resultant valuation is an elimination in lattices.py.
The integer-coefficient class `IntPoly` holds counting polynomials; the
n-lines closed form is a tuple of them, in q, indexed by the power of t.
"""

from __future__ import annotations

import random

from .series import ser_add, ser_mul, ser_pad


# ---------------------------------------------------------------------------
# univariate polynomials over F_q (element-code tuples, low degree first)
# ---------------------------------------------------------------------------

def up_trim(a):
    a = tuple(a)
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]

def up_add(fq, a, b):
    if len(a) < len(b):
        a, b = b, a
    add = fq._add
    out = list(a)
    for i, c in enumerate(b):
        out[i] = add[out[i]][c]
    return up_trim(out)

def up_sub(fq, a, b):
    sub = fq._sub
    n = max(len(a), len(b))
    a, b = ser_pad(a, n), ser_pad(b, n)
    return up_trim(sub[x][y] for x, y in zip(a, b))

def up_scale(fq, c, a):
    if c == 0:
        return ()
    row = fq._mul[c]
    return tuple(row[x] for x in a)

def up_mul(fq, a, b):
    if not a or not b:
        return ()
    add = fq._add
    mul = fq._mul
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        row = mul[ai]
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = add[out[i + j]][row[bj]]
    return tuple(out)

def up_divmod(fq, a, b):
    """Euclidean division in F_q[X]; b must be nonzero."""
    b = up_trim(b)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(up_trim(a))
    db, lead_inv = len(b) - 1, fq._inv[b[-1]]
    if len(a) - 1 < db:
        return (), tuple(a)
    quo = [0] * (len(a) - db)
    sub = fq._sub
    mul = fq._mul
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c == 0:
            continue
        qc = mul[c][lead_inv]
        quo[i - db] = qc
        row = mul[qc]
        for j, bj in enumerate(b):
            if bj:
                a[i - db + j] = sub[a[i - db + j]][row[bj]]
    return up_trim(quo), up_trim(a)

def up_mod(fq, a, b):
    return up_divmod(fq, a, b)[1]

def up_monic(fq, a):
    a = up_trim(a)
    if not a or a[-1] == 1:
        return a
    return up_scale(fq, fq._inv[a[-1]], a)

def up_gcd(fq, a, b):
    """The monic gcd of a and b, by Euclid's algorithm."""
    a, b = up_trim(a), up_trim(b)
    while b:
        a, b = b, up_mod(fq, a, b)
    return up_monic(fq, a)

def up_ext_euclid(fq, a, b):
    """(g, v) with g = monic gcd(a, b) and v*b = g modulo a."""
    r0, r1 = up_trim(a), up_trim(b)
    v0, v1 = (), (1,)
    while r1:
        q, r = up_divmod(fq, r0, r1)
        r0, r1 = r1, r
        v0, v1 = v1, up_sub(fq, v0, up_mul(fq, q, v1))
    if r0 and r0[-1] != 1:
        c = fq._inv[r0[-1]]
        r0, v0 = up_scale(fq, c, r0), up_scale(fq, c, v0)
    return r0, v0

def up_eval(fq, a, x):
    acc = 0
    mul = fq._mul
    add = fq._add
    for c in reversed(a):
        acc = add[mul[acc][x]][c]
    return acc

def up_pow(fq, a, k):
    out = (1,)
    base = tuple(a)
    while k:
        if k & 1:
            out = up_mul(fq, out, base)
        base = up_mul(fq, base, base)
        k >>= 1
    return out

def monic_polys_over_fq(fq, degree):
    """All monic polynomials of the given degree, in a fixed counter order
    (constant coefficient is the least significant digit)."""
    q = fq.q
    for code in range(q ** degree):
        coeffs = []
        c = code
        for _ in range(degree):
            coeffs.append(c % q)
            c //= q
        coeffs.append(1)
        yield tuple(coeffs)

def _pow_mod(fq, b, k, m):
    """b^k modulo m, by square-and-multiply."""
    out = (1,)
    for bit in bin(k)[2:]:
        out = up_mod(fq, up_mul(fq, out, out), m)
        if bit == "1":
            out = up_mod(fq, up_mul(fq, out, b), m)
    return out

def _equal_degree_split(fq, g, d):
    """The monic irreducible factors of g, a squarefree product of ones of
    degree d (Cantor-Zassenhaus): for r of degree below deg g, T(r) = r +
    r^p + ... + r^(p^(e*d-1)) mod g is constant in F_p on each factor, so
    gcd(g, T(r) - c) splits g for some c unless all the constants agree."""
    n = len(g) - 1
    if n <= d:
        return [g] if n else []
    rng = random.Random(n)
    while True:
        trace = power = up_trim(rng.randrange(fq.q) for _ in range(n))
        for _ in range(fq.e * d - 1):
            power = _pow_mod(fq, power, fq.p, g)
            trace = up_add(fq, trace, power)
        for c in range(fq.p):
            h = up_gcd(fq, g, up_sub(fq, trace, (c,)))
            if 1 < len(h) <= n:
                return [part for half in (h, up_divmod(fq, g, h)[0])
                        for part in _equal_degree_split(fq, half, d)]

def up_factor(fq, a):
    """Factor into monic irreducibles: list of (factor, multiplicity),
    deterministic (ascending degree, then counter order).  The unit
    leading coefficient is discarded.

    Once the factors of degree below d are divided out, g = gcd(a,
    X^(q^d) - X) is the product of the irreducible factors of degree d;
    one equal-degree split (_equal_degree_split) takes g apart when it
    holds two or more of them."""
    a = up_monic(fq, a)
    if not a:
        raise ZeroDivisionError("factoring the zero polynomial")
    out = []
    deg = 1
    frob = (0, 1)           # X^(q^deg) modulo a, once raised below
    while len(a) - 1 > 0:
        if len(a) - 1 < 2 * deg:
            # remaining part is irreducible
            out.append((a, 1))
            break
        frob = _pow_mod(fq, frob, fq.q, a)
        g = up_gcd(fq, a, up_sub(fq, frob, (0, 1)))
        for part in sorted(_equal_degree_split(fq, g, deg),
                           key=lambda c: c[::-1]):
            quo, rem = up_divmod(fq, a, part)
            mult = 0
            while not rem:
                a, mult = quo, mult + 1
                quo, rem = up_divmod(fq, a, part)
            out.append((part, mult))
        deg += 1
    return out

def up_roots(fq, a):
    """Roots in F_q, ascending by element code."""
    return [x for x in range(fq.q) if up_eval(fq, a, x) == 0]


# ---------------------------------------------------------------------------
# X-polynomials with exact F_q[t] coefficients
# ---------------------------------------------------------------------------

def xp_trim(f):
    f = [up_trim(c) for c in f]
    while f and not f[-1]:
        f.pop()
    return tuple(f)

def xp_add(fq, f, g):
    n = max(len(f), len(g))
    f = list(f) + [()] * (n - len(f))
    g = list(g) + [()] * (n - len(g))
    return xp_trim([up_add(fq, a, b) for a, b in zip(f, g)])

def xp_mul(fq, f, g):
    """The exact product: sp_mul at a width that holds every t-digit."""
    if not f or not g:
        return ()
    width = max(map(len, f)) + max(map(len, g))
    return xp_trim(sp_mul(fq, f, g, width))

def xp_subst_x_shift(fq, f, s):
    """f(X + s) for s an exact F_q[t] polynomial."""
    out = ()
    # Horner: f(X+s) = (...((f_n)(X+s) + f_{n-1})(X+s) + ...)
    xs = ((tuple(s) if s else ()), (1,))  # the X-polynomial X + s
    for c in reversed(f):
        out = xp_mul(fq, out, xs)
        out = xp_add(fq, out, ((tuple(c),) if c else ((),)))
    return xp_trim(out)


# ---------------------------------------------------------------------------
# X-polynomials with truncated series coefficients (digit tuples)
# ---------------------------------------------------------------------------

def sp_mul(fq, f, g, width):
    """Product of two X-polynomials with series coefficients, each
    coefficient read as `width` digits (cut, or zero-extended as for an
    exact polynomial); the product's coefficients have `width` digits.
    The one product of X-polynomials: xp_mul and the power-basis product
    of an order are this convolution."""
    out = [(0,) * width] * (len(f) + len(g) - 1)
    g_nonzero = [(j, b) for j, b in enumerate(g) if any(b[:width])]
    for i, a in enumerate(f):
        if any(a[:width]):
            for j, b in g_nonzero:
                out[i + j] = ser_add(fq, out[i + j], ser_mul(fq, a, b, width))
    return tuple(out)


def hensel_split(fq, f, gbar, hbar, precision):
    """Lift a coprime factorisation of f mod t to a factorisation of f.

    f is a monic X-polynomial with series coefficients (digit tuples,
    lowest degree first), gbar and hbar monic polynomials over F_q with
    f mod t = gbar * hbar and gcd(gbar, hbar) = 1.  Returns monic factors
    (g, h), their coefficients `precision`-digit tuples, with f = g * h
    to that precision.  Linear lifting on the t^m digits of g and h, each
    an F_q polynomial: one Bezout solve per digit, zero digits skipped in
    the products, so an exact factorization lifts in O(precision).
    """
    g0, v = up_ext_euclid(fq, gbar, hbar)
    if g0 != (1,):
        raise ValueError("factors are not coprime modulo t")
    dg, dh = len(gbar) - 1, len(hbar) - 1
    # G[m], H[m]: the t^m digits of g and h; lifted: the m > 0, G[m] != 0
    G, H = [gbar] + [()] * (precision - 1), [hbar] + [()] * (precision - 1)
    lifted = []
    for m in range(1, precision):
        # t^m digit of f - g*h, the digits m of g and h being still zero
        gh = ()
        for k in lifted:
            if H[m - k]:
                gh = up_add(fq, gh, up_mul(fq, G[k], H[m - k]))
        err = up_sub(fq, up_trim(c[m] if m < len(c) else 0 for c in f), gh)
        if not err:
            continue
        # solve gbar*dh_ + hbar*dg_ = err with deg dg_ < dg
        dg_ = up_mod(fq, up_mul(fq, v, err), gbar)
        dh_, r = up_divmod(fq, up_sub(fq, err, up_mul(fq, hbar, dg_)), gbar)
        if r:
            raise ArithmeticError("lift step failed to divide")
        if len(dh_) > dh + 1:
            raise ArithmeticError("lift step raised the degree")
        G[m], H[m] = dg_, dh_
        if dg_:
            lifted.append(m)
    # coefficient X^i of g (of h) is the tuple of the digits G[m][i]
    return tuple(tuple(tuple(D[i] if i < len(D) else 0 for D in digits)
                       for i in range(n + 1))
                 for digits, n in ((G, dg), (H, dh)))


# ---------------------------------------------------------------------------
# integer-coefficient polynomials for the counting layer
# ---------------------------------------------------------------------------

class IntPoly:
    """Dense univariate polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def monomial(cls, k):
        return cls((0,) * k + (1,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly((other,))
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPoly((other,))
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPoly(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPoly((other,))
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPoly(x - y for x, y in zip(a, b))

    def __rsub__(self, other):
        return IntPoly((other,)) - self

    def __neg__(self):
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate at x by Horner's rule."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def text(self, var="t"):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                pw = var if k == 1 else f"{var}^{k}"
                body = mag + pw
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"IntPoly({self.text()})"
