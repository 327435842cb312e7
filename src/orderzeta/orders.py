"""Orders R = O[X]/(f) in etale algebras over F_q((t)).

For a monic squarefree f with integral coefficients this module builds
everything the counting layers need: the power-basis multiplication
table, the maximal order O_E (multiplier-ring iteration on the radical
of t*S, once per order), primitive idempotents, a trace twist that makes
O_E self-dual, the dual and conductor lattices, and the numeric
invariants: delta = [O_E : R], the pairwise resultant valuation rho, and
residue and ramification data per factor.  The norm of b(X) on the
branch of a factor g is res(g, b), and on that branch the first basis
column b of the plain trace dual t^s*B of O_E with least v = v(res(g, b))
generates the dual.  The twist sums the idempotent projections of these
columns; g's colength in its normalization is (v(disc g) + v + s*deg g)/2
(Dedekind), and delta = rho + the sum of these colengths is checked.

Factors come from one Newton-polygon walker, _pieces, never from an
assumption.  auto_factor runs it to split f; certify_factor runs it with
whole=True on a supplied factor, and every step that would split the
polynomial then rejects it as reducible.  The walker Hensel-splits
coprime residual factors, recenters a repeated residual root away from
the origin, rescales X -> t^h X along an integral last slope, and
descends to the splitting field of a repeated nonlinear residual, where
every conjugate piece must certify alike.  Its leaves are an
irreducible residual and a single fractional-slope segment whose
residual polynomial is irreducible.

A fractional-slope segment that must be separated from the rest of the
polygon, and a repeated residual on a ramified segment, are rejected
with a request for an explicit factorization.  The second also rejects
quartics such as (X^2 - t)^2 - t^3 and (X^2 - t)^2 - t^5 in odd
characteristic: with s^2 = t their roots +-s*sqrt(1 +- s) and
+-s*sqrt(1 +- s^3) lie in F_q((s)), so each splits into two quadratics
whose coefficients are power series, not polynomials, and no explicit
factorization can be supplied.
"""

from __future__ import annotations

from math import gcd

from .errors import (BadFactorization, InvariantViolation, NotSquarefree,
                     PrecisionExhausted, PreconditionViolated)
from .fq import Fq, embedding
from .lattices import (colon_lattice, element_scaled_lattice,
                       hnf_from_generators, identity_lattice,
                       laurent_matrix_inverse, product_lattice,
                       relative_length, resultant_valuation, solve_in_basis,
                       trace_dual_lattice)
from .polynomials import (hensel_split, sp_mul, up_divmod, up_factor, up_pow,
                          up_roots, up_trim, xp_mul, xp_subst_x_shift, xp_trim)
from .series import ser_add, ser_mul, ser_neg, ser_pad, ser_scale, ser_val


# ---------------------------------------------------------------------------
# small exact linear algebra over F_q
# ---------------------------------------------------------------------------

def _fq_mat_mul(fq, a_cols, b_cols, n):
    out = []
    for j in range(n):
        col = [0] * n
        for k in range(n):
            c = b_cols[j][k]
            if c:
                ak = a_cols[k]
                for i in range(n):
                    if ak[i]:
                        col[i] = fq.add(col[i], fq.mul(c, ak[i]))
        out.append(tuple(col))
    return tuple(out)


def _fq_kernel(fq, cols, n):
    """Basis of the right kernel of the matrix with the given columns."""
    rows = [[cols[j][i] for j in range(n)] for i in range(n)]
    piv_cols = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, n) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = fq.inv(rows[r][c])
        rows[r] = [fq.mul(inv, x) for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                fac = rows[i][c]
                rows[i] = [fq.sub(rows[i][k], fq.mul(fac, rows[r][k]))
                           for k in range(n)]
        piv_cols.append(c)
        r += 1
        if r == n:
            break
    basis = []
    for fc in range(n):
        if fc in piv_cols:
            continue
        v = [0] * n
        v[fc] = 1
        for idx, pc in enumerate(piv_cols):
            v[pc] = fq.neg(rows[idx][fc])
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

class CertifiedFactor:
    """A monic irreducible factor with its certification data.

    coeffs holds the coefficient digit tuples; window is the number of
    exact digits per coefficient (None for exact polynomials).
    ram_index * residue_degree equals the factor degree.
    """

    __slots__ = ("coeffs", "window", "ram_index", "residue_degree")

    def __init__(self, coeffs, window, ram_index, residue_degree):
        self.coeffs = tuple(tuple(c) for c in coeffs)
        self.window = window
        self.ram_index = ram_index
        self.residue_degree = residue_degree

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def sort_key(self):
        digits = tuple(ser_pad(c, 12) for c in self.coeffs)
        return (self.degree, digits)

    def __repr__(self):
        return (f"CertifiedFactor(degree={self.degree}, "
                f"e={self.ram_index}, n={self.residue_degree})")


def _digit(c, idx):
    return c[idx] if idx < len(c) else 0


def _mod_t(coeffs):
    return up_trim([_digit(c, 0) for c in coeffs])


def _is_monic_digits(coeffs):
    lead = coeffs[-1]
    return _digit(lead, 0) == 1 and not any(lead[1:])


def _trim_digits(coeffs):
    out = list(coeffs)
    while len(out) > 1 and not any(out[-1]):
        out.pop()
    return tuple(tuple(c) for c in out)


def _derivative(fq, coeffs):
    return [ser_scale(fq, fq.from_int(i % fq.p), c)
            for i, c in enumerate(coeffs) if i]


def _resultant_val(fq, f, g, window):
    """Valuation of res(f, g) for two X-polynomials with digit-tuple
    coefficients, or None when the resultant is zero; every resultant
    valuation of order construction comes from here.

    With a window the coefficients are series known to that many digits:
    None then means zero to the window, and a pivot that the elimination
    of lattices.resultant_valuation cannot certify raises
    PrecisionExhausted.

    Exact inputs (window None) are padded to W = 2*(n*a + m*b) + 2
    digits, with m and n the X-degrees of f and g and a and b the digit
    counts of their longest coefficients.  A minor of the Sylvester
    matrix takes at most n of its rows from f and m from g, so its
    t-degree is below D = n*a + m*b, and a nonzero resultant has
    valuation below D.  The elimination pivots on the least valuation in
    each column, so its entries stay integral, and each step costs the
    windows below it at most twice its pivot's valuation; the pivot
    valuations add up to the resultant's.  So at W > 2D every pivot of a
    nonzero resultant is certified, and a pivot that is zero or cannot
    be certified at W means that the exact resultant is zero.
    """
    exact = window is None
    if exact:
        a = max(map(len, f), default=0)
        b = max(map(len, g), default=0)
        window = 2 * ((len(g) - 1) * a + (len(f) - 1) * b) + 2
    try:
        return resultant_valuation(fq, [ser_pad(c, window) for c in f],
                                   [ser_pad(c, window) for c in g])
    except PrecisionExhausted:
        if exact:
            return None
        raise


def _shifted(fq, coeffs, shift, window):
    """f(X + shift), cut to the window."""
    return tuple(c[:window] for c in xp_subst_x_shift(fq, coeffs, shift))


def _scale_down(fq, coeffs, window, h):
    """Coefficients of f(t^h X) / t^(h deg f); requires the polygon to
    lie on or above the slope-h line."""
    n = len(coeffs) - 1
    out = []
    for i, c in enumerate(coeffs):
        drop = h * (n - i)
        if any(c[:drop]):
            raise InvariantViolation("slope rescaling hit a nonzero digit")
        out.append(tuple(c[drop:]))
    if window is not None:
        window = window - h * n
        if window < 4:
            raise PrecisionExhausted("rescaled window is too small")
    return tuple(out), window


def _newton_min_slope(coeffs, v0):
    """(index, valuation) of the left end of the last segment of the
    lower Newton polygon: the point of least slope to (deg, 0), the
    leftmost on ties.  v0 None leaves the constant coefficient out, and
    (0, None) then means that no other coefficient is known."""
    n = len(coeffs) - 1
    best_i, best_v = 0, v0
    for i in range(1, n):
        vi = ser_val(coeffs[i])
        if vi is None:
            continue
        if best_v is None or vi * (n - best_i) < best_v * (n - i):
            best_i, best_v = i, vi
    return best_i, best_v


def _ramified_leaf(fq, coeffs, window, v0):
    """The factor of a polygon that is one segment from (0, v0) to
    (deg, 0) with a fractional slope: irreducible, with ramification
    index e = deg / gcd(v0, deg), exactly when the residual polynomial of
    the segment is irreducible."""
    n = len(coeffs) - 1
    g = gcd(v0, n)
    e, h = n // g, v0 // g
    resid = up_trim([_digit(coeffs[j * e], h * (g - j)) for j in range(g + 1)])
    (base, k), *rest = up_factor(fq, resid)
    if rest:
        raise BadFactorization("factor splits along its residual polynomial")
    if k > 1:
        what = "residual root" if len(base) == 2 else "nonlinear residual"
        raise BadFactorization(
            f"cannot certify: repeated {what} on a ramified segment; "
            "supply an explicit factorization")
    return CertifiedFactor(coeffs, window, e, g)


def _descend(fq, coeffs, window, work, budget, base, k, whole):
    """(e, r) of a polynomial whose residual is base^k, with base
    irreducible of degree b > 1 and k > 1.  Over F_q^b the residual is a
    product of b conjugate k-th powers; Hensel lifting splits the
    polynomial along them, and it is irreducible when every conjugate
    piece is, with the same (e, r0) and r = b * r0.  A conjugate piece
    that splits makes the polynomial reducible, and the pieces are not
    regrouped into factors over F_q: the automatic path rejects it."""
    b = len(base) - 1
    big = Fq(fq.p, fq.e * b)
    table = embedding(fq, big)
    roots = up_roots(big, tuple(table[d] for d in base))
    if len(roots) != b:
        raise InvariantViolation(
            "descent field does not split the residual factor")
    w2 = window if window is not None else work
    if w2 < 4:
        raise PrecisionExhausted("descent window is too small")
    cur = tuple(ser_pad(tuple(table[d] for d in c), w2) for c in coeffs)
    parts = []
    for w in roots[:-1]:
        gbar = up_pow(big, (big.neg(w), 1), k)
        hbar, rem = up_divmod(big, _mod_t(cur), gbar)
        if rem:
            raise InvariantViolation("residual split went inexact")
        part, cur = hensel_split(big, cur, gbar, hbar, w2)
        parts.append(part)
    walks = [_pieces(big, part, w2, w2, budget, whole)
             for part in parts + [cur]]
    if any(len(walk) > 1 for walk in walks):
        raise BadFactorization(
            "automatic factorization cannot split a repeated nonlinear "
            "residual; supply an explicit factorization")
    sub = {(p.ram_index, p.residue_degree) for walk in walks for p in walk}
    if len(sub) != 1:
        raise InvariantViolation("conjugate factors disagree")
    ((e0, r0),) = sub
    return e0, b * r0


def _pieces(fq, coeffs, window, work, budget, whole):
    """Certified irreducible factors of a monic polynomial, as a list of
    CertifiedFactor.

    window is the number of exact digits per coefficient (None for an
    exact polynomial), work the window of the pieces that a Hensel split
    of an exact polynomial makes, and budget the number of recenterings
    left.  With whole=True the polynomial must be irreducible: wherever
    the walk would split it, BadFactorization is raised.
    """
    coeffs = _trim_digits(coeffs)
    n = len(coeffs) - 1
    if n < 1:
        raise BadFactorization("constant factor")
    if n == 1:
        return [CertifiedFactor(coeffs, window, 1, 1)]
    if budget < 0:
        raise BadFactorization(
            "factorization did not terminate; is the input squarefree?")
    resid = _mod_t(coeffs)
    parts = up_factor(fq, resid)
    if len(parts) > 1:
        if whole:
            raise BadFactorization(
                "factor splits along its residual polynomial")
        gbar = up_pow(fq, parts[0][0], parts[0][1])
        hbar, rem = up_divmod(fq, resid, gbar)
        if rem:
            raise InvariantViolation("residual factor split went inexact")
        w2 = window if window is not None else work
        return [piece for part in hensel_split(fq, coeffs, gbar, hbar, w2)
                for piece in _pieces(fq, part, w2, w2, budget, False)]
    base, k = parts[0]
    if k == 1:
        return [CertifiedFactor(coeffs, window, 1, n)]
    if len(base) > 2:
        e, r = _descend(fq, coeffs, window, work, budget, base, k, whole)
        return [CertifiedFactor(coeffs, window, e, r)]
    if base[0]:
        # repeated residual root away from the origin: recenter, walk,
        # then shift the pieces back
        root = fq.neg(base[0])
        moved = _shifted(fq, coeffs, (root,), window)
        return [CertifiedFactor(_shifted(fq, p.coeffs, (base[0],), p.window),
                                p.window, p.ram_index, p.residue_degree)
                for p in _pieces(fq, moved, window, work, budget - 1, whole)]
    # residual is X^n: positive slopes only.  A constant coefficient
    # that is zero to the window stays out of the polygon; the last
    # segment is then known when it lies below every value the unknown
    # coefficient can take.
    v0 = ser_val(coeffs[0])
    if v0 is None and window is None:
        if whole:
            raise BadFactorization("factor is divisible by X")
        return ([CertifiedFactor(((), (1,)), None, 1, 1)]
                + _pieces(fq, coeffs[1:], None, work, budget, False))
    known = window is None or (v0 is not None and v0 < window)
    vi, vv = _newton_min_slope(coeffs, v0 if known else None)
    if not known and not (vi >= 1 and window * (n - vi) > vv * n):
        raise PrecisionExhausted(
            "constant coefficient vanishes to working precision")
    span = n - vi
    if vv % span == 0:
        h = vv // span
        scaled, swin = _scale_down(fq, coeffs, window, h)
        return [CertifiedFactor(
                    tuple((0,) * (h * (p.degree - i)) + tuple(c)
                          for i, c in enumerate(p.coeffs)),
                    p.window, p.ram_index, p.residue_degree)
                for p in _pieces(fq, scaled, swin, work, budget, whole)]
    if vi == 0:
        return [_ramified_leaf(fq, coeffs, window, v0)]
    if whole:
        raise BadFactorization("factor splits along its Newton polygon")
    raise BadFactorization(
        "automatic factorization cannot separate a fractional-slope "
        "segment; supply an explicit factorization")


def certify_factor(fq, f, precision=None):
    """Certify a monic polynomial irreducible over F_q((t)).

    f is a tuple of exact F_q[t] coefficient tuples.  Returns
    (ramification index, residue degree).
    """
    f = _trim_digits(f)
    if not _is_monic_digits(f):
        raise BadFactorization("factor is not monic in X")
    v = _resultant_val(fq, f, _derivative(fq, f), None)
    budget = (v or 0) + 3
    work = precision if precision else 4 * (budget + len(f)) + 12
    (piece,) = _pieces(fq, f, None, work, budget, True)
    return piece.ram_index, piece.residue_degree


def auto_factor(fq, f, precision, window=None):
    """Monic squarefree polynomial into certified irreducible factors.

    Returns a canonically ordered tuple of CertifiedFactor.  The product
    of the pieces is checked against f to the working window.
    """
    f = _trim_digits(f)
    if not _is_monic_digits(f):
        raise BadFactorization("f must be monic in X")
    if window is None:
        v = _resultant_val(fq, f, _derivative(fq, f), None)
        if v is None:
            raise NotSquarefree("discriminant vanishes")
        budget = v + 3
    else:
        budget = window + 2
    pieces = _pieces(fq, f, window, precision, budget, False)
    pieces.sort(key=CertifiedFactor.sort_key)
    wmin = min([precision] + [p.window for p in pieces
                              if p.window is not None])
    prod = (ser_pad((1,), wmin),)
    for p in pieces:
        prod = sp_mul(fq, prod, p.coeffs, wmin)
    if prod != tuple(ser_pad(c, wmin) for c in f):
        raise InvariantViolation("factor product check failed")
    return tuple(pieces)


# ---------------------------------------------------------------------------
# power-basis arithmetic
# ---------------------------------------------------------------------------

def _power_table(fq, f, w, count):
    """Coordinate vectors of X^k mod f for k = 0 .. count-1, with f's
    coefficients known to w digits."""
    n = len(f) - 1
    neg_f = [ser_neg(fq, ser_pad(c, w)) for c in f[:n]]
    pw = []
    cur = [(1,) + (0,) * (w - 1) if i == 0 else (0,) * w for i in range(n)]
    for _ in range(count):
        pw.append(tuple(cur))
        lead = cur[n - 1]
        nxt = []
        for i in range(n):
            e = (0,) * w if i == 0 else cur[i - 1]
            if any(lead):
                e = ser_add(fq, e, ser_mul(fq, lead, neg_f[i], w))
            nxt.append(e)
        cur = nxt
    return pw


def _trace_vector(fq, pw, n, count):
    """tau[k] = trace of multiplication by X^k, for k = 0 .. count-1."""
    w = len(pw[0][0])
    out = []
    for k in range(count):
        acc = (0,) * w
        for j in range(n):
            acc = ser_add(fq, acc, pw[k + j][j])
        out.append(acc)
    return out


def _mul_vectors(fq, pw, n, v, w_vec, prec):
    """Product of two coordinate vectors in the power basis."""
    width = min(prec, len(pw[0][0]))
    conv = [(0,) * width for _ in range(2 * n - 1)]
    for i in range(n):
        a = v[i] if i < len(v) else ()
        if not any(a[:width]):
            continue
        for j in range(n):
            b = w_vec[j] if j < len(w_vec) else ()
            if not any(b[:width]):
                continue
            conv[i + j] = ser_add(fq, conv[i + j],
                                  ser_mul(fq, a[:width], b[:width], width))
    out = list(conv[:n]) + [(0,) * width] * max(0, n - len(conv))
    for k in range(n, 2 * n - 1):
        if any(conv[k]):
            for i in range(n):
                out[i] = ser_add(fq, out[i],
                                 ser_mul(fq, conv[k], pw[k][i], width))
    return tuple(out)


def _power_basis(fq, f, w, powers, traces):
    """The power basis of O[X]/(f) to w digits: the table of the first
    `powers` powers of X, the first `traces` traces, the trace Gram
    columns, and the product of two coordinate vectors."""
    n = len(f) - 1
    pw = _power_table(fq, f, w, powers)
    tau = _trace_vector(fq, pw, n, traces)
    tcols = tuple(tuple(tau[i + j] for i in range(n)) for j in range(n))

    def mul(v, z, prec):
        return _mul_vectors(fq, pw, n, v, z, prec)

    return pw, tau, tcols, mul


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _radical_lattice(fq, s_lat, mul, n, w):
    """The radical of t*S inside the order lattice S: the preimage of the
    nilradical of S/tS, located as the kernel of a Frobenius power."""
    cols = s_lat.columns(w)
    scale = s_lat.scale
    q = fq.q
    frob = []
    for j in range(n):
        y = cols[j]
        for _ in range(q - 1):
            y = mul(y, cols[j], w)
        coords = solve_in_basis(s_lat, y, scale * q)
        if coords is None:
            raise InvariantViolation("order lattice not closed under powers")
        frob.append(tuple(c[0] for c in coords))
    m = 1
    while q ** m < n:
        m += 1
    mat = tuple(frob)
    power = mat
    for _ in range(m - 1):
        power = _fq_mat_mul(fq, mat, power, n)
    kernel = _fq_kernel(fq, power, n)
    gens = [tuple((0,) + e[:w - 1] for e in col) for col in cols]
    for lam in kernel:
        vec = [(0,) * w for _ in range(n)]
        for j, c in enumerate(lam):
            if c:
                for i in range(n):
                    vec[i] = ser_add(fq, vec[i],
                                     tuple(fq.mul(c, d) for d in cols[j][i]))
        gens.append(tuple(vec))
    return hnf_from_generators(fq, gens, n, scale=scale)


def _normalize(fq, mul, gram_cols, n, w, guard):
    """The maximal order containing the standard order lattice."""
    s_lat = identity_lattice(fq, n)
    for _ in range(guard):
        rad = _radical_lattice(fq, s_lat, mul, n, w)
        power = rad
        for _ in range(n - 1):
            power = product_lattice(power, rad, mul, w)
        if not s_lat.shifted(1).contains_lattice(power):
            raise InvariantViolation(
                "radical power escapes t times the order")
        bigger = colon_lattice(rad, rad, mul, gram_cols, w)
        if not bigger.contains_lattice(s_lat):
            raise InvariantViolation("multiplier ring lost the order")
        if bigger == s_lat:
            if product_lattice(s_lat, s_lat, mul, w) != s_lat:
                raise InvariantViolation(
                    "normalization result is not multiplicatively closed")
            return s_lat
        s_lat = bigger
    raise PrecisionExhausted("normalization did not stabilize")


# ---------------------------------------------------------------------------
# idempotents and the trace twist
# ---------------------------------------------------------------------------

def _unit_vector(n, w):
    return tuple((1,) + (0,) * (w - 1) if i == 0 else (0,) * w
                 for i in range(n))


def _align_vectors(items):
    """Bring (digit vector, scale) pairs to one common scale by padding
    low zero digits; returns the list of digit vectors and the scale."""
    m = min(s for _, s in items)
    out = []
    for d, s in items:
        k = s - m
        out.append(tuple((0,) * k + tuple(e) for e in d))
    return out, m


def _idempotents(fq, mul, pieces, n, w):
    """Primitive idempotents, one per factor, as (digit vector, scale)
    pairs; they live in the maximal order, so the scale may be negative
    even though every idempotent is integral there."""
    if len(pieces) == 1:
        return ((_unit_vector(n, w), 0),)
    windows = [min(w, p.window) if p.window is not None else w
               for p in pieces]
    zero = (0,) * w
    out = []
    for i, piece in enumerate(pieces):
        # the product of the other factors, at their shortest window
        wo = min(windows[:i] + windows[i + 1:])
        other = (ser_pad((1,), wo),)
        for j, pj in enumerate(pieces):
            if j != i:
                other = sp_mul(fq, other, pj.coeffs, wo)
        fi = tuple(ser_pad(c, windows[i]) for c in piece.coeffs)
        di = len(fi) - 1
        # Sylvester columns: solve b*other + c*fi = 1 with deg b < di
        cols = []
        for poly, count in ((other, di), (fi, n - di)):
            for mdeg in range(count):
                cols.append(tuple(([zero] * mdeg + list(poly)
                                   + [zero] * n)[:n]))
        inv_cols, shift = laurent_matrix_inverse(fq, tuple(cols), w)
        sol = inv_cols[0]
        ww = min(len(e) for e in sol)
        if ww + shift < 2:
            raise PrecisionExhausted("idempotent window collapsed")
        # b*other has degree below n, so it is already reduced mod f
        vec = sp_mul(fq, sol[:di], other, min(ww, wo))
        if shift > 0:
            vec = [(0,) * shift + c for c in vec]
            shift = 0
        out.append((tuple(vec), shift))
    # verify: orthogonal, squares to itself, sums to one; products are
    # only trusted to the shortest input window
    for i in range(len(out)):
        di_, si = out[i]
        wv = min(len(e) for e in di_)
        sq = mul(di_, di_, wv)
        cut = -si
        for k in range(n):
            valid = sq[k][:wv]
            if any(valid[:cut]):
                raise InvariantViolation("idempotent square escapes scale")
            a = valid[cut:]
            if a != di_[k][:len(a)]:
                raise InvariantViolation("idempotent fails e*e = e")
        for j in range(i + 1, len(out)):
            wv2 = min(wv, *(len(e) for e in out[j][0]))
            pr = mul(di_, out[j][0], wv2)
            if any(any(e[:wv2]) for e in pr):
                raise InvariantViolation("idempotents are not orthogonal")
    aligned, base = _align_vectors(list(out) + [(_unit_vector(n, w), 0)])
    unit = aligned[-1]
    total = list(aligned[0])
    for vec in aligned[1:-1]:
        total = [ser_add(fq, total[k], vec[k]) for k in range(n)]
    for k in range(n):
        m = min(len(total[k]), len(unit[k]))
        if total[k][:m] != unit[k][:m]:
            raise InvariantViolation("idempotents do not sum to one")
    return tuple(out)


def _branch_generators(fq, pieces, plain_dual):
    """For each factor g, (j, v): the first basis column b_j of the plain
    trace dual with the least valuation v of res(g, b_j(X)), its norm on
    the branch of g, where it generates the dual.  A resultant that is
    zero, or not certified to a windowed factor's window, is no candidate.
    """
    # HNF columns are exact polynomials at this width
    cols = plain_dual.columns(plain_dual.max_exponent() + 1)
    out = []
    for piece in pieces:
        best = None
        for j, col in enumerate(cols):
            try:
                v = _resultant_val(fq, piece.coeffs, col, piece.window)
            except PrecisionExhausted:
                continue
            if v is not None and (best is None or v < best[1]):
                best = (j, v)
        if best is None:
            raise InvariantViolation("dual lattice misses a component")
        out.append(best)
    return out


def _choose_twist(fq, mul, idems, picks, o_e, plain_dual, n, w):
    """A Laurent coordinate vector c with c * O_E equal to the plain
    trace dual of O_E: the sum of the idempotent projections of the
    branch generators that _branch_generators picked; returns (digit
    vector, scale)."""
    cols = plain_dual.columns(w)
    chosen = []
    for (idem_d, idem_s), (j, _) in zip(idems, picks):
        wv = min(w, *(len(e) for e in idem_d))
        y = tuple(e[:wv] for e in mul(idem_d, cols[j], wv))
        chosen.append((y, idem_s + plain_dual.scale))
    aligned, base = _align_vectors(chosen)
    total = list(aligned[0])
    for vec in aligned[1:]:
        total = [ser_add(fq, total[k], vec[k]) for k in range(n)]
    wt = min(len(e) for e in total)
    twist = tuple(tuple(e[:wt]) for e in total)
    check = element_scaled_lattice(twist, base, o_e, mul, wt)
    if check != plain_dual:
        raise InvariantViolation(
            "chosen twist does not generate the dual module")
    return twist, base


def _modified_gram(fq, tau, twist, scale, n, w):
    """Columns of the Gram matrix of the twisted trace pairing on the
    power basis; entries are integral whenever R is inside its dual."""
    width = min([w] + [len(e) for e in twist])
    cols = []
    cut = max(0, -scale)
    for j in range(n):
        col = []
        for i in range(n):
            acc = (0,) * width
            for k in range(n):
                if any(twist[k][:width]):
                    acc = ser_add(fq, acc,
                                  ser_mul(fq, twist[k][:width],
                                          tau[k + i + j][:width], width))
            if cut:
                if any(acc[:cut]):
                    raise InvariantViolation(
                        "twisted pairing is not integral on the order")
                acc = acc[cut:]
            elif scale > 0:
                acc = (0,) * scale + acc[:width - scale]
            col.append(tuple(acc))
        cols.append(tuple(col))
    return tuple(cols)


# ---------------------------------------------------------------------------
# order data
# ---------------------------------------------------------------------------

class FactorData:
    """Residue and ramification data of one irreducible factor.

    d is the residue degree of the factor's order at its maximal ideal,
    r the residue extension on top of it, n = d*r the residue degree of
    the field factor, e its ramification index, and delta the length of
    the normalization quotient as a module over the factor's order.
    """

    __slots__ = ("coeffs", "window", "d", "r", "n", "e", "delta")

    def __init__(self, coeffs, window, d, r, n, e, delta):
        self.coeffs = coeffs
        self.window = window
        self.d = d
        self.r = r
        self.n = n
        self.e = e
        self.delta = delta
        if d * r != n or n * e != len(coeffs) - 1 or delta < 0:
            raise InvariantViolation("inconsistent factor data")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __repr__(self):
        return (f"FactorData(degree={self.degree}, d={self.d}, r={self.r}, "
                f"e={self.e}, delta={self.delta})")


class OrderData:
    """Everything about one order R = O[X]/(f), immutable after build."""

    __slots__ = ("fq", "f", "f_window", "n", "precision", "valres",
                 "delta", "rho", "factors", "r_lattice", "o_e_lattice",
                 "dual_r_lattice", "conductor_lattice", "action_matrices",
                 "trace_gram_columns", "_pw")

    def __init__(self, **kw):
        for name in self.__slots__:
            object.__setattr__(self, name, kw[name])

    def __setattr__(self, name, value):
        raise AttributeError("OrderData is immutable")

    def multiply_vectors(self, v, w_vec, prec):
        return _mul_vectors(self.fq, self._pw, self.n, v, w_vec, prec)

    def signature(self):
        return (self.delta, self.rho, self.valres,
                tuple((fd.d, fd.r, fd.n, fd.e, fd.delta)
                      for fd in self.factors),
                self.o_e_lattice.key, self.dual_r_lattice.key,
                self.conductor_lattice.key)

    def __repr__(self):
        return (f"OrderData(n={self.n}, delta={self.delta}, "
                f"rho={self.rho}, factors={len(self.factors)})")


def _pair_resultant_val(fq, a, b, w):
    """Valuation of the resultant of two factors, exact when both are."""
    windows = [p.window for p in (a, b) if p.window is not None]
    window = min(w, *windows) if windows else None
    val = _resultant_val(fq, a.coeffs, b.coeffs, window)
    if val is None and window is None:
        raise NotSquarefree("two factors share a root")
    if val is None:
        raise PrecisionExhausted(
            "pairwise resultant vanishes to working precision")
    return val


def _assemble(fq, fdigits, fwindow, pieces, w, valres):
    n = len(fdigits) - 1
    weff = min(w, fwindow) if fwindow is not None else w
    pw, tau, tcols, mul = _power_basis(fq, fdigits, weff,
                                       max(n + 1, 4 * n - 3), 3 * n - 2)
    r_lat = identity_lattice(fq, n)
    o_e = _normalize(fq, mul, tcols, n, weff, valres + 3)
    delta = relative_length(o_e, r_lat)

    plain_dual = trace_dual_lattice(o_e, tcols, weff)
    picks = _branch_generators(fq, pieces, plain_dual)
    factor_data = []
    sub_total = 0
    for piece, (_, v) in zip(pieces, picks):
        parts = up_factor(fq, _mod_t(piece.coeffs))
        if len(parts) != 1:
            raise InvariantViolation(
                "certified factor has a split residue ring")
        d = len(parts[0][0]) - 1
        # v(disc g) = 2*ell + v(disc O_E_g) (Dedekind), and the dual
        # generator t^s * b_j has norm valuation -v(disc O_E_g)
        disc = _resultant_val(fq, piece.coeffs,
                              _derivative(fq, piece.coeffs), piece.window)
        if disc is None:
            raise PrecisionExhausted(
                "factor discriminant vanishes to working precision")
        twice = disc + v + plain_dual.scale * piece.degree
        if twice % 2 or twice < 0:
            raise InvariantViolation(
                "branch colength from resultants is odd or negative")
        ell = twice // 2
        if piece.residue_degree % d or ell % d:
            raise InvariantViolation("residue degree does not divide")
        factor_data.append(FactorData(
            piece.coeffs, piece.window, d, piece.residue_degree // d,
            piece.residue_degree, piece.ram_index, ell // d))
        sub_total += ell

    rho = 0
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            rho += _pair_resultant_val(fq, pieces[i], pieces[j], weff)
    if delta != rho + sub_total:
        raise InvariantViolation(
            "colength of the normalization disagrees with the "
            "resultant decomposition")

    idems = _idempotents(fq, mul, pieces, n, weff)
    twist, tw_scale = _choose_twist(fq, mul, idems, picks, o_e, plain_dual,
                                    n, weff)
    gcols = _modified_gram(fq, tau, twist, tw_scale, n, weff)
    wg = min(len(e) for col in gcols for e in col)

    if trace_dual_lattice(o_e, gcols, wg) != o_e:
        raise InvariantViolation(
            "maximal order is not self-dual under the twisted pairing")
    dual_r = trace_dual_lattice(r_lat, gcols, wg)
    if relative_length(dual_r, r_lat) != 2 * delta:
        raise InvariantViolation("dual colength is not twice delta")
    if relative_length(dual_r, o_e) != delta:
        raise InvariantViolation("normalization is not midway to the dual")
    if trace_dual_lattice(dual_r, gcols, wg) != r_lat:
        raise InvariantViolation("duality failed to be an involution")

    conductor = colon_lattice(r_lat, o_e, mul, gcols, wg)
    if not r_lat.contains_lattice(conductor):
        raise InvariantViolation("conductor escapes the order")
    if product_lattice(conductor, o_e, mul, wg) != conductor:
        raise InvariantViolation("conductor is not a module over the "
                                 "maximal order")
    probe = product_lattice(conductor.shifted(-1), o_e, mul, wg)
    if r_lat.contains_lattice(probe):
        raise InvariantViolation("conductor is not maximal")

    return OrderData(
        fq=fq, f=fdigits, f_window=fwindow, n=n, precision=wg,
        valres=valres, delta=delta, rho=rho, factors=tuple(factor_data),
        r_lattice=r_lat, o_e_lattice=o_e, dual_r_lattice=dual_r,
        conductor_lattice=conductor, action_matrices=(tuple(pw[1:n + 1]),),
        trace_gram_columns=gcols, _pw=pw)


def build_order(fq, f, factors=None, precision=None, f_window=None):
    """Build the full order data for a monic squarefree f.

    f and the optional factors are tuples of F_q[t] coefficient tuples
    (exact polynomials); f_window marks f as a truncated series with
    that many exact digits per coefficient, in which case factors must
    be omitted and are found automatically.
    """
    if precision is not None and precision < 1:
        raise PreconditionViolated("precision must be positive")
    f = _trim_digits(f)
    if not _is_monic_digits(f):
        raise BadFactorization("f must be monic in X")
    n = len(f) - 1
    if n < 1:
        raise BadFactorization("f must have positive degree")
    if f_window is not None and factors is not None:
        raise PreconditionViolated(
            "explicit factors need an exact polynomial f")
    valres = _resultant_val(fq, f, _derivative(fq, f), f_window)
    if valres is None and f_window is None:
        raise NotSquarefree(
            "f and its derivative share a root; the orbit is not "
            "regular semisimple")
    if valres is None:
        raise PrecisionExhausted(
            f"discriminant of f vanishes to its {f_window}-digit window; "
            "raise the precision")

    maxdeg = max(len(c) for c in f)
    if precision is not None:
        w = precision
        if f_window is None and w < maxdeg + 2:
            raise PrecisionExhausted(
                "working precision is below the coefficient degrees of f")
    else:
        w = 6 * valres + 4 * n + 16 + maxdeg
    if w < 6:
        raise PrecisionExhausted("working precision is too small")

    if factors is None:
        pieces = auto_factor(fq, f, w, window=f_window)
    else:
        supplied = [_trim_digits(g) for g in factors]
        prod = ((1,),)
        for g in supplied:
            prod = xp_mul(fq, prod, g)
        if xp_trim(prod) != xp_trim(f):
            raise BadFactorization("product of factors does not equal f")
        pieces = tuple(sorted(
            (CertifiedFactor(g, None, *certify_factor(fq, g, precision=w))
             for g in supplied), key=CertifiedFactor.sort_key))

    order = _assemble(fq, f, f_window, pieces, w, valres)
    again = _assemble(fq, f, f_window, pieces, w + 2, valres)
    if order.signature() != again.signature():
        raise PrecisionExhausted(
            "invariants changed when recomputed at higher precision")
    return order


def base_change_order(order, d):
    """The same polynomial viewed over the unramified extension of
    degree d, refactored and rebuilt there."""
    if d == 1:
        return order
    fq = order.fq
    big = Fq(fq.p, fq.e * d)
    table = embedding(fq, big)
    f_big = tuple(tuple(table[c] for c in coeff) for coeff in order.f)
    return build_order(big, f_big, f_window=order.f_window)


# ---------------------------------------------------------------------------
# the lines family (the one non-monogenic order supported)
# ---------------------------------------------------------------------------

class NLinesOrder:
    """The order of n coordinate lines glued at one point: vectors in
    O^n whose coordinates all agree modulo t, inside split E = F^n."""

    __slots__ = ("fq", "n", "precision", "delta", "r_lattice",
                 "o_e_lattice", "dual_r_lattice", "conductor_lattice",
                 "action_matrices", "trace_gram_columns")

    def __init__(self, fq, n, precision=None):
        if n < 1:
            raise PreconditionViolated("need at least one line")
        self.fq = fq
        self.n = n
        delta = n - 1
        w = precision if precision is not None else 2 * delta + n + 12
        self.precision = w
        self.delta = delta
        self.o_e_lattice = identity_lattice(fq, n)
        self.conductor_lattice = (identity_lattice(fq, n, scale=1)
                                  if n > 1 else identity_lattice(fq, n))
        gens = [tuple((1,) + (0,) * (w - 1) for _ in range(n))]
        for i in range(n):
            gens.append(tuple((0, 1) + (0,) * (w - 2) if k == i
                              else (0,) * w for k in range(n)))
        self.r_lattice = hnf_from_generators(fq, gens, n)
        if self.r_lattice.colength() != delta:
            raise InvariantViolation("lines lattice has the wrong index")
        mats = []
        for i in range(n):
            cols = []
            for j in range(n):
                cols.append(tuple((0, 1) + (0,) * (w - 2)
                                  if (k == i and j == i) else (0,) * w
                                  for k in range(n)))
            mats.append(tuple(cols))
        self.action_matrices = tuple(mats)
        eye = identity_lattice(fq, n).columns(w)
        self.trace_gram_columns = tuple(eye)
        self.dual_r_lattice = trace_dual_lattice(
            self.r_lattice, self.trace_gram_columns, w)
        if relative_length(self.dual_r_lattice, self.r_lattice) != 2 * delta:
            raise InvariantViolation("lines dual has the wrong colength")

    def multiply_vectors(self, v, w_vec, prec):
        fq = self.fq
        return tuple(ser_mul(fq, v[i], w_vec[i], prec)
                     for i in range(self.n))

    def __repr__(self):
        return f"NLinesOrder(n={self.n}, q={self.fq.q})"


def n_lines_order(fq, n, precision=None):
    return NLinesOrder(fq, n, precision)
