"""Orders R = O[X]/(f) in etale algebras over F_q((t)).

For a monic squarefree f with integral coefficients this module builds
everything the counting layers need: the power-basis multiplication
table, the maximal order O_E (multiplier-ring iteration on the radical
of t*S, once per order), primitive idempotents, a trace twist that makes
O_E self-dual, the dual and conductor lattices, and the numeric
invariants: delta = [O_E : R], rho = the sum of v(res(g, h)) over pairs
of factors, and residue and ramification data per factor.  The norm of
b(X) on the branch of a factor g is res(g, b), and on that branch the
first basis column b of the plain trace dual t^s*B of O_E with least
v = v(res(g, b)) generates the dual.  The twist sums the idempotent
projections of these columns; g's colength in its normalization is
(v(disc g) + v + s*deg g)/2 (Dedekind).  rho comes from the same
discriminants, v(disc f) = the sum of v(disc g) + 2*rho, and delta =
rho + the sum of the colengths (Dedekind for the whole order) is checked.

The walker splits and the normalization certifies.  Unless the caller
supplies the factors, build_order splits f with one Newton-polygon
walker, _pieces, whose recentering budget comes from v(disc f).  The
walker Hensel-splits coprime residual factors, recenters a repeated
residual root away from the origin and rescales X -> t^h X along an
integral last slope; any other piece it returns unsplit.  Supplied
factors are not walked.  Either way, _assemble certifies every factor
irreducible from the last round of the normalization (Berlekamp's
fixed subalgebra): x -> x^q on O_E/tO_E fixes a space of dimension the
number of branches, which must equal the number of factors, and a
factor's residue degree n is the least norm valuation on its branch of
the radical J of t*O_E, so that e = deg g / n and the n add up to
[O_E : J].  Factors pass as (coeffs, window) pairs, window None for an
exact factor, in one canonical order, and every resultant valuation is
a call of lattices.resultant_valuation.

A piece with more than one branch is rejected with a request for a
factorization into irreducible factors.  Among them are quartics such
as (X^2 - t)^2 - t^3 and (X^2 - t)^2 - t^5 in odd characteristic: with
s^2 = t their roots +-s*sqrt(1 +- s) and +-s*sqrt(1 +- s^3) lie in
F_q((s)), so each splits into two quadratics whose coefficients are
power series, not polynomials, and no explicit factorization can be
supplied.
"""

from __future__ import annotations

from .errors import (BadFactorization, InvariantViolation, NotSquarefree,
                     PrecisionExhausted, PreconditionViolated)
from .fq import Fq, embedding
from .lattices import (_matvec_fq, _nonzero_entries, colon_lattice,
                       element_scaled_lattice, hnf_from_generators,
                       identity_lattice, laurent_matrix_inverse, mat_vec,
                       product_lattice, relative_length, resultant_valuation,
                       solve_in_basis, trace_dual_lattice)
from .polynomials import (hensel_split, sp_mul, up_divmod, up_factor, up_pow,
                          up_trim, xp_mul, xp_subst_x_shift, xp_trim)
from .series import ser_add, ser_mul, ser_neg, ser_pad, ser_scale, ser_val


# ---------------------------------------------------------------------------
# small exact linear algebra over F_q
# ---------------------------------------------------------------------------

def _fq_kernel(fq, cols, n):
    """Basis of the right kernel of the matrix with the given columns."""
    rows = [list(row) for row in zip(*cols)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, n) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = fq.inv(rows[r][c])
        rows[r] = [fq.mul(inv, x) for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                fac = rows[i][c]
                rows[i] = [fq.sub(x, fq.mul(fac, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for fc in range(n):
        if fc not in pivots:
            v = [0] * n
            v[fc] = 1
            for idx, pc in enumerate(pivots):
                v[pc] = fq.neg(rows[idx][fc])
            basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

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


def _pieces(fq, coeffs, window, work, budget):
    """Factors of a monic polynomial, as a list of (coeffs, window)
    pairs, window being None for an exact factor.

    window is the number of exact digits per coefficient (None for an
    exact polynomial), work the window of the pieces that a Hensel split
    of an exact polynomial makes, and budget the number of recenterings
    left.  A polynomial that none of the walker's steps splits comes
    back as one piece, irreducible or not: the normalization in
    _assemble judges it.
    """
    coeffs = _trim_digits(coeffs)
    n = len(coeffs) - 1
    if n < 1:
        raise BadFactorization("constant factor")
    unsplit = [(coeffs, window)]
    if n == 1:
        return unsplit
    if budget < 0:
        raise BadFactorization(
            "factorization did not terminate; is the input squarefree?")
    resid = _mod_t(coeffs)
    parts = up_factor(fq, resid)
    if len(parts) > 1:
        gbar = up_pow(fq, parts[0][0], parts[0][1])
        hbar, rem = up_divmod(fq, resid, gbar)
        if rem:
            raise InvariantViolation("residual factor split went inexact")
        w2 = window if window is not None else work
        return [piece for part in hensel_split(fq, coeffs, gbar, hbar, w2)
                for piece in _pieces(fq, part, w2, w2, budget)]
    base, k = parts[0]
    if k == 1 or len(base) > 2:
        return unsplit
    if base[0]:
        # repeated residual root away from the origin: recenter, walk,
        # then shift the pieces back
        root = fq.neg(base[0])
        moved = _shifted(fq, coeffs, (root,), window)
        return [(_shifted(fq, pc, (base[0],), pw), pw)
                for pc, pw in _pieces(fq, moved, window, work, budget - 1)]
    # residual is X^n: positive slopes only.  A constant coefficient
    # that is zero to the window stays out of the polygon; the last
    # segment is then known when it lies below every value the unknown
    # coefficient can take.
    v0 = ser_val(coeffs[0])
    if v0 is None and window is None:
        return ([(((), (1,)), None)]
                + _pieces(fq, coeffs[1:], None, work, budget))
    known = window is None or (v0 is not None and v0 < window)
    vi, vv = _newton_min_slope(coeffs, v0 if known else None)
    if not known and not (vi >= 1 and window * (n - vi) > vv * n):
        raise PrecisionExhausted(
            "constant coefficient vanishes to working precision")
    span = n - vi
    if vv % span:
        return unsplit
    h = vv // span
    scaled, swin = _scale_down(fq, coeffs, window, h)
    return [(tuple((0,) * (h * (len(pc) - 1 - i)) + tuple(c)
                   for i, c in enumerate(pc)), pw)
            for pc, pw in _pieces(fq, scaled, swin, work, budget)]


def _canonical(pieces):
    """(coeffs, window) pieces in canonical order: by degree, then by
    every coefficient zero-extended to the longest among them."""
    width = max(len(c) for coeffs, _ in pieces for c in coeffs)
    return tuple(sorted(pieces, key=lambda p: (
        len(p[0]), tuple(ser_pad(c, width) for c in p[0]))))


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


def _power_basis(fq, f, w, powers, traces):
    """The power basis of O[X]/(f) to w digits: the table of the first
    `powers` powers of X, the first `traces` traces, the trace Gram
    columns, and the product of two coordinate vectors."""
    n = len(f) - 1
    pw = _power_table(fq, f, w, powers)
    tau = _trace_vector(fq, pw, n, traces)
    tcols = tuple(tuple(tau[i + j] for i in range(n)) for j in range(n))

    def mul(v, z, prec):
        width = min(prec, w)
        conv = sp_mul(fq, v, z, width)
        out = list(conv[:n])
        for k in range(n, len(conv)):
            if any(conv[k]):
                for i in range(n):
                    out[i] = ser_add(fq, out[i],
                                     ser_mul(fq, conv[k], pw[k][i], width))
        return tuple(out)

    return pw, tau, tcols, mul


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _radical_lattice(fq, s_lat, mul, n, w):
    """The radical of t*S inside the order lattice S, the preimage of the
    nilradical of S/tS, located as the kernel of a Frobenius power; with
    the columns of the matrix of x -> x^q on S/tS.  Each x^q is a
    square-and-multiply in the multiplication table of S/tS, so no
    product in S needs more digits than one of two basis columns."""
    cols = s_lat.columns(w)
    scale = s_lat.scale
    q = fq.q
    # by_column[k]: rows of the matrix whose column i is e_i * e_k mod t
    table = {}
    for i in range(n):
        for k in range(i, n):
            coords = solve_in_basis(s_lat, mul(cols[i], cols[k], w),
                                    2 * scale)
            if coords is None:
                raise InvariantViolation(
                    "order lattice not closed under products")
            table[i, k] = table[k, i] = tuple(c[0] for c in coords)
    by_column = [tuple(zip(*(table[i, k] for i in range(n))))
                 for k in range(n)]

    def times(a, b):
        by_a = [_matvec_fq(fq, rows, a) for rows in by_column]
        return _matvec_fq(fq, tuple(zip(*by_a)), b)

    def power_columns(e):
        # the columns of x -> x^e, by square-and-multiply
        out = []
        for j in range(n):
            x = y = tuple(int(i == j) for i in range(n))
            for bit in bin(e)[3:]:
                y = times(y, y)
                if bit == "1":
                    y = times(y, x)
            out.append(y)
        return out

    frob = power_columns(q)
    # the nilradical is the kernel of x -> x^(q^m) once q^m >= n
    power = q
    while power < n:
        power *= q
    kernel = _fq_kernel(fq, power_columns(power), n)
    gens = [tuple((0,) + e[:w - 1] for e in col) for col in cols]
    entries = _nonzero_entries(cols)
    for lam in kernel:
        gens.append(tuple(mat_vec(fq, entries, [(c,) for c in lam], w)))
    return hnf_from_generators(fq, gens, n, scale=scale), frob


def _normalize(fq, mul, gram_cols, n, w, guard):
    """The maximal order O_E containing the standard order lattice, with
    the last round's Frobenius matrix on O_E/tO_E and radical J."""
    s_lat = identity_lattice(fq, n)
    for _ in range(guard):
        rad, frob = _radical_lattice(fq, s_lat, mul, n, w)
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
            return s_lat, frob, rad
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
    windows = [min(w, pw) if pw is not None else w for _, pw in pieces]
    zero = (0,) * w
    out = []
    for i, (coeffs, _) in enumerate(pieces):
        # the product of the other factors, at their shortest window
        wo = min(windows[:i] + windows[i + 1:])
        other = (ser_pad((1,), wo),)
        for j, (cj, _) in enumerate(pieces):
            if j != i:
                other = sp_mul(fq, other, cj, wo)
        fi = tuple(ser_pad(c, windows[i]) for c in coeffs)
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


def _branch_generators(fq, pieces, lattice):
    """For each factor g, (j, v): the first basis column b_j of the
    lattice with the least valuation v of res(g, b_j(X)), its norm on the
    branch of g, so that v + scale * deg g is the least norm valuation of
    the lattice on that branch.  On the plain trace dual, b_j generates
    the dual there; on the radical of t*O_E that least valuation is the
    residue degree of the branch.  A resultant that is zero, or not
    certified to a windowed factor's window, is no candidate.
    """
    # HNF columns are exact polynomials at this width
    cols = lattice.columns(lattice.max_exponent() + 1)
    out = []
    for coeffs, window in pieces:
        best = None
        for j, col in enumerate(cols):
            try:
                v = resultant_valuation(fq, coeffs, col, window)
            except PrecisionExhausted:
                continue
            if v is not None and (best is None or v < best[1]):
                best = (j, v)
        if best is None:
            raise InvariantViolation("lattice misses a component")
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
        # entry i is the sum over k of twist[k] * tau[k + i + j]
        hankel = [tau[k + j:k + j + n] for k in range(n)]
        col = []
        for acc in mat_vec(fq, _nonzero_entries(hankel), twist, width):
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
                 "trace_gram_columns", "multiply_vectors")

    def __init__(self, **kw):
        for name in self.__slots__:
            object.__setattr__(self, name, kw[name])

    def __setattr__(self, name, value):
        raise AttributeError("OrderData is immutable")

    def signature(self):
        return (self.delta, self.rho, self.valres,
                tuple((fd.d, fd.r, fd.n, fd.e, fd.delta)
                      for fd in self.factors),
                self.o_e_lattice.key, self.dual_r_lattice.key,
                self.conductor_lattice.key)

    def __repr__(self):
        count = None if self.factors is None else len(self.factors)
        return (f"OrderData(n={self.n}, delta={self.delta}, "
                f"rho={self.rho}, factors={count})")


def _assemble(fq, fdigits, fwindow, pieces, w, valres):
    """The OrderData of f, from its (coeffs, window) factors at window w
    and valres = v(disc f); rho = (valres - the sum of v(disc g)) / 2."""
    n = len(fdigits) - 1
    weff = min(w, fwindow) if fwindow is not None else w
    pw, tau, tcols, mul = _power_basis(fq, fdigits, weff,
                                       max(n + 1, 4 * n - 3), 3 * n - 2)
    r_lat = identity_lattice(fq, n)
    o_e, frob, rad = _normalize(fq, mul, tcols, n, weff, valres + 3)
    # Berlekamp: x -> x^q fixes one line per branch of O_E/tO_E
    branches = len(_fq_kernel(fq, [
        tuple(fq.sub(c, int(i == j)) for i, c in enumerate(col))
        for j, col in enumerate(frob)], n))
    if branches < len(pieces):
        raise InvariantViolation("fewer branches than factors")
    if branches > len(pieces):
        raise BadFactorization(
            f"f has {branches} branches but {len(pieces)} factors; supply "
            "a factorization into irreducible factors")
    # O_E/J is the product of the residue fields of the branches
    residue = [v + rad.scale * (len(coeffs) - 1)
               for (coeffs, _), (_, v) in zip(pieces, _branch_generators(
                   fq, pieces, rad))]
    if min(residue) < 1 or sum(residue) != relative_length(o_e, rad):
        raise InvariantViolation(
            "residue degrees do not add up to the colength of the radical")
    delta = relative_length(o_e, r_lat)

    plain_dual = trace_dual_lattice(o_e, tcols, weff)
    picks = _branch_generators(fq, pieces, plain_dual)
    factor_data = []
    disc_total = 0
    for (coeffs, window), (_, v), rdeg in zip(pieces, picks, residue):
        deg = len(coeffs) - 1
        parts = up_factor(fq, _mod_t(coeffs))
        if len(parts) != 1:
            raise InvariantViolation(
                "certified factor has a split residue ring")
        d = len(parts[0][0]) - 1
        # v(disc g) = 2*ell + v(disc O_E_g) (Dedekind), and the dual
        # generator t^s * b_j has norm valuation -v(disc O_E_g)
        disc = resultant_valuation(fq, coeffs, _derivative(fq, coeffs),
                                   window)
        if disc is None:
            raise PrecisionExhausted(
                "factor discriminant vanishes to working precision")
        disc_total += disc
        twice = disc + v + plain_dual.scale * deg
        if twice % 2 or twice < 0:
            raise InvariantViolation(
                "branch colength from resultants is odd or negative")
        ell = twice // 2
        if rdeg % d or ell % d:
            raise InvariantViolation("residue degree does not divide")
        factor_data.append(FactorData(
            coeffs, window, d, rdeg // d, rdeg, deg // rdeg, ell // d))

    twice = valres - disc_total
    if twice % 2 or twice < 0:
        raise InvariantViolation(
            "intersection number from discriminants is odd or negative")
    rho = twice // 2
    if delta != rho + sum(fd.d * fd.delta for fd in factor_data):
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
        trace_gram_columns=gcols, multiply_vectors=mul)


# The build's window grows with the coefficient degrees: X^2 - t^k at
# q = 3 builds at a window of 7k + 25 digits, and its analyze exits 5
# after 0.24, 0.65, 2.0 and 8.6 s for k = 50, 100, 200 and 400 (one run
# each, 2-vCPU host, Python 3.11), nearly all of it the build.  So a
# larger t-degree in an exact f or a supplied factor is refused before
# the discriminant is computed.
_T_DEGREE_CAP = 400


def build_order(fq, f, factors=None, precision=None, f_window=None):
    """Build the full order data for a monic squarefree f.

    f and the optional factors are tuples of F_q[t] coefficient tuples
    (exact polynomials); f_window marks f as a truncated series with
    that many exact digits per coefficient, in which case factors must
    be omitted and are found automatically.  Each factor is certified
    irreducible by the normalization: f must have one branch per factor.
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
    exact = [f] if f_window is None else []
    if any(len(up_trim(c)) > _T_DEGREE_CAP + 1
           for g in exact + list(factors or ()) for c in g):
        raise PreconditionViolated(
            "coefficients of f and of its factors must have t-degree <= "
            f"{_T_DEGREE_CAP}, the cap of build_order")
    valres = resultant_valuation(fq, f, _derivative(fq, f), f_window)
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
        # the walker recenters at most v(disc f) + 3 times, or
        # window + 2 times for a windowed f
        budget = valres + 3 if f_window is None else f_window + 2
        pieces = _canonical(_pieces(fq, f, f_window, w, budget))
        wmin = min([w] + [pw for _, pw in pieces if pw is not None])
        prod = (ser_pad((1,), wmin),)
        for coeffs, _ in pieces:
            prod = sp_mul(fq, prod, coeffs, wmin)
        if prod != tuple(ser_pad(c, wmin) for c in f):
            raise InvariantViolation("factor product check failed")
    else:
        supplied = [_trim_digits(g) for g in factors]
        prod = ((1,),)
        for g in supplied:
            prod = xp_mul(fq, prod, g)
        if xp_trim(prod) != xp_trim(f):
            raise BadFactorization("product of factors does not equal f")
        for g in supplied:
            if not _is_monic_digits(g):
                raise BadFactorization("factor is not monic in X")
            if len(g) < 2:
                raise BadFactorization("constant factor")
        pieces = _canonical([(g, None) for g in supplied])

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

def n_lines_order(fq, n, precision=None):
    """The order of n coordinate lines glued at one point: vectors in
    O^n whose coordinates all agree modulo t, inside split E = F^n.  It
    is not O[X]/(f), so f, f_window, valres, rho and factors are None."""
    if n < 1:
        raise PreconditionViolated("need at least one line")
    delta = n - 1
    w = precision if precision is not None else 2 * delta + n + 12
    o_e = identity_lattice(fq, n)
    # the conductor is t*O^n once two lines meet
    conductor = identity_lattice(fq, n, scale=int(n > 1))
    t_digit = (0, 1) + (0,) * (w - 2)
    gens = [tuple((1,) + (0,) * (w - 1) for _ in range(n))]
    gens += [tuple(t_digit if k == i else (0,) * w for k in range(n))
             for i in range(n)]
    r_lat = hnf_from_generators(fq, gens, n)
    if r_lat.colength() != delta:
        raise InvariantViolation("lines lattice has the wrong index")
    # X_i multiplies the i-th coordinate by t
    mats = tuple(tuple(tuple(t_digit if k == i == j else (0,) * w
                             for k in range(n)) for j in range(n))
                 for i in range(n))
    gram = tuple(o_e.columns(w))
    dual_r = trace_dual_lattice(r_lat, gram, w)
    if relative_length(dual_r, r_lat) != 2 * delta:
        raise InvariantViolation("lines dual has the wrong colength")

    def mul(v, z, prec):
        return tuple(ser_mul(fq, a, b, prec) for a, b in zip(v, z))

    return OrderData(
        fq=fq, f=None, f_window=None, n=n, precision=w, valres=None,
        delta=delta, rho=None, factors=None, r_lattice=r_lat,
        o_e_lattice=o_e, dual_r_lattice=dual_r, conductor_lattice=conductor,
        action_matrices=mats, trace_gram_columns=gram,
        multiply_vectors=mul)
