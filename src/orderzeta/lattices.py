"""Lattice calculus over F_q[[t]] in a fixed ambient coordinate frame.

A full-rank lattice is stored in canonical Hermite form: an upper
triangular basis matrix whose diagonal entries are the exact monomials
t^(a_1), ..., t^(a_n), whose entry (i, j) for i < j is a polynomial
reduced modulo t^(a_i), together with a global integer power of t (the
scale) chosen so that the matrix is primitive (some entry has a unit
coefficient, or a diagonal exponent is zero).  Equal lattices have
identical stored data, so canonical forms can be hashed and compared.

Coefficient arithmetic in F_q[t] is carry free, so working at a finite
window of t-digits computes every digit inside the window exactly; the
window sizes below are chosen so that all stored digits and all
branching decisions fall inside it whenever the inputs are exact.
Inputs of limited precision (duals and other series-derived lattices)
instead carry a validity budget, and PrecisionExhausted is raised when
a decision would depend on unknown digits.  Matrix inverses (behind
the trace duals and colon lattices) and resultant valuations (behind
every discriminant and pairwise resultant of order construction) are
two eliminations that share one pivot rule, _pivot_row, and the
Laurent helpers on series held as raw (shift, digits) pairs.

The inverse behind a trace dual depends only on the lattice's shape
(diag, off), the Gram matrix and the precision, not on its scale, and
the per-class refinement asks for the duals of the same few shapes at
many scales; _dual_basis therefore keeps the generators of its last 64
inversions, and ser_unit_inv keeps the inverses of the units that the
pivots of hnf_from_generators recur on.  The Hermite form of the dual
still runs on every call: caching the whole dual would drop calls of
hnf_from_generators, whose count the benchmark pins.

The enumerator for stable sublattices descends colength by colength:
every maximal stable sublattice of M contains tM (the quotient is a
simple module, killed by t), so the immediate children of M are the
preimages of the proper subspaces of M/tM stable under the induced
action, and every stable sublattice of finite colength is reached by a
chain of such steps.  Candidates found along different chains merge by
canonical form.  Levels, like LatticeHNF.sort_key, follow one
deterministic order: the scale, then the diagonal shape compared
colexicographically, then the off-diagonal digits read column by column
as one little-endian number.

Each lattice found is kept as one packed bytes key: the diagonal
exponents of its canonical form relative to the base, each in a number
of bytes fixed per enumeration by jmax, then its off-diagonal digits
column by column, one byte each (q <= 256).  Entry (i, j) has exactly
diag[i] digits, so the lengths are implied and the packing is
injective.  Expanding a node reads only its action mod t, so that is
all the enumerator keeps beside the key: each level maps the keys to
the action's constant terms as row tuples, and equal actions are
interned so that nodes share one tuple.  Each child's action is
computed from the root's action matrices (cut to jmax + 2 digits, each
column's nonzero entries listed once per enumeration) in the child's
own reduced basis.  A level is returned as a lazy sequence of its
sorted keys: its length builds nothing, and reading an item decodes it
to a LatticeHNF.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from functools import lru_cache
from itertools import combinations

from .errors import (CeilingExceeded, InvariantViolation, PrecisionExhausted,
                     PreconditionViolated, RankDeficient)
from .series import (ser_add, ser_mul, ser_pad, ser_scale, ser_sub,
                     ser_unit_inv, ser_val)

DEFAULT_CEILING = 10 ** 8


def enumeration_ceiling(override=None):
    """Work-unit guard for the enumerators: the given ceiling, or
    DEFAULT_CEILING for None.  A ceiling below 1 raises
    PreconditionViolated."""
    if override is None:
        return DEFAULT_CEILING
    if override < 1:
        raise PreconditionViolated(
            f"the work ceiling must be at least 1, got {override}")
    return override


class LatticeHNF:
    """Canonical Hermite form of a full lattice; see the module docstring."""

    __slots__ = ("fq", "n", "scale", "diag", "off")

    def __init__(self, fq, scale, diag, off):
        self.fq = fq
        self.n = len(diag)
        self.scale = scale
        self.diag = tuple(diag)
        # off[j][i]: little-endian digits, exactly diag[i] of them, of the
        # entry in row i of column j (for i < j)
        self.off = tuple(tuple(tuple(e) for e in col) for col in off)

    @property
    def key(self):
        return (self.scale, self.diag, self.off)

    def colength(self):
        """Index in the standard lattice O^n (negative for overlattices)."""
        return sum(self.diag) + self.n * self.scale

    def max_exponent(self):
        return max(self.diag) if self.diag else 0

    def shifted(self, k):
        """The lattice multiplied by t^k."""
        return LatticeHNF(self.fq, self.scale + k, self.diag, self.off)

    def columns(self, precision):
        """Basis columns as raw coefficient tuples at the stated window.
        The scale is NOT applied; callers track it separately."""
        return _basis_columns(self.diag, self.off, precision)

    def sort_key(self):
        return _order_key(self.scale, self.diag, self.off)

    def contains_vector(self, vec, vec_scale=0):
        """Membership test for a vector with exact polynomial entries."""
        return solve_in_basis(self, vec, vec_scale) is not None

    def contains_lattice(self, other):
        cols = other.columns(other.max_exponent() + 1)
        return all(self.contains_vector(c, other.scale) for c in cols)

    def __eq__(self, other):
        return (isinstance(other, LatticeHNF) and self.fq is other.fq
                and self.key == other.key)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return (f"LatticeHNF(scale={self.scale}, diag={self.diag}, "
                f"off={self.off})")


def _basis_columns(diag, off, width):
    """Columns of the upper triangular basis with diagonal t^diag[j] and
    off-diagonal digits off[j][i], each entry padded or cut to `width`
    digits."""
    n = len(diag)
    zero = (0,) * width
    cols = []
    for j in range(n):
        col = [digits[:width] + zero[len(digits):] for digits in off[j]]
        a = diag[j]
        col.append(zero[:a] + (1,) + zero[a + 1:] if a < width else zero)
        col += [zero] * (n - 1 - j)
        cols.append(tuple(col))
    return cols


def identity_lattice(fq, n, scale=0):
    off = tuple(tuple(() for _ in range(j)) for j in range(n))
    return LatticeHNF(fq, scale, (0,) * n, off)


def _canonical_scale_shift(diag, off):
    """How many powers of t divide every entry of the triangular matrix."""
    shift = min(diag) if diag else 0
    for col in off:
        if shift == 0:
            break
        for digits in col:
            v = ser_val(digits)
            if v is not None and v < shift:
                shift = v
                if shift == 0:
                    break
    return shift


def _build_canonical(fq, scale, diag, off):
    shift = _canonical_scale_shift(diag, off)
    if shift:
        diag = tuple(a - shift for a in diag)
        off = tuple(tuple(digits[shift:] for digits in col) for col in off)
        scale += shift
    return LatticeHNF(fq, scale, diag, off)


def _order_key(scale, diag, off):
    """Sort key, in the documented order, of the canonical form of t^scale
    times the triangular matrix (diag, off), without building it: the
    scale, then the diagonal read from its last entry, then the
    off-diagonal digits read column by column as one little-endian
    number.  Equal diagonals have equally many digits (q <= 256, one
    byte each), so that number compares as the reversed digit string."""
    shift = _canonical_scale_shift(diag, off)
    digits = b"".join([bytes(e[shift:]) for col in off for e in col])
    return (scale + shift, tuple(a - shift for a in reversed(diag)),
            digits[::-1])


# ---------------------------------------------------------------------------
# construction from generators
# ---------------------------------------------------------------------------

def pad_exact(vectors, n):
    """Generators with exact polynomial entries, padded to the window at
    which hnf_from_generators certifies every pivot and reduction of
    their span in rank n: (n + 1) times the longest entry, plus 4."""
    width = (n + 1) * max(len(e) for v in vectors for e in v) + 4
    return [tuple(ser_pad(e, width) for e in v) for v in vectors]


def hnf_from_generators(fq, vectors, n, scale=0):
    """Canonical Hermite form of the span of the given column vectors.

    Vectors are tuples of raw coefficient tuples, each known to its
    length (pad_exact pads exact polynomials); the given window bounds
    what is known and PrecisionExhausted is raised when a pivot or a
    reduction cannot be certified.
    """
    given = [[tuple(e) for e in v] for v in vectors]
    vecs = [v for v in given if any(any(e) for e in v)]
    if len(vecs) < n:
        if len(given) < n:
            raise RankDeficient(
                f"need {n} independent generators, got {len(vecs)} nonzero")
        # a generator that is zero to its window may be nonzero beyond it
        raise PrecisionExhausted(
            f"need {n} independent generators, {len(given) - len(vecs)} of "
            f"{len(given)} vanish to the working window; raise the precision")
    window = min(min(len(e) for e in v) for v in vecs)
    if window < 1:
        raise PrecisionExhausted("no working precision at all")
    work = [[ser_pad(e, window) for e in v] for v in vecs]
    valid = [window] * len(work)

    pivots = [None] * n
    pivot_valid = [0] * n
    for row in range(n - 1, -1, -1):
        best = None
        for idx in range(len(work)):
            v = ser_val(work[idx][row][:valid[idx]])
            if v is not None and (best is None or v < best[0]):
                best = (v, idx)
        if best is None:
            raise PrecisionExhausted(
                f"no certifiable pivot in row {row}; raise the precision")
        a, idx = best
        piv = work.pop(idx)
        pval = valid.pop(idx) - a
        unit = piv[row][a:] + (0,) * a
        uinv = ser_unit_inv(fq, unit)
        piv = [ser_mul(fq, e, uinv) for e in piv]
        for pos in range(len(work)):
            v = work[pos]
            e = v[row]
            if any(e[:valid[pos]]):
                quo = e[a:] + (0,) * a
                for k in range(row):
                    v[k] = ser_sub(fq, v[k], ser_mul(fq, quo, piv[k]))
                valid[pos] = min(valid[pos] - a, pval)
                if valid[pos] < 1:
                    raise PrecisionExhausted(
                        "elimination consumed the precision")
            else:
                # the entry is zero to its window, but eliminating its
                # unknown tail against the pivot t^a * unit costs a digits
                valid[pos] -= a
                if valid[pos] < 1:
                    raise PrecisionExhausted(
                        "elimination consumed the precision")
            v[row] = (0,) * window
        pivots[row] = piv
        pivot_valid[row] = pval

    diag = [ser_val(pivots[i][i]) for i in range(n)]

    # reduce off-diagonal entries against lower pivot rows
    for j in range(n):
        col = pivots[j]
        cval = pivot_valid[j]
        for i in range(j - 1, -1, -1):
            a = diag[i]
            e = col[i]
            hi = e[a:] + (0,) * a
            if any(hi[:max(0, cval - a)]):
                for k in range(i + 1):
                    col[k] = ser_sub(fq, col[k],
                                     ser_mul(fq, hi, pivots[i][k]))
                cval = min(cval, a + pivot_valid[i])
        pivot_valid[j] = cval
        needed = max([diag[i] for i in range(j)] + [1])
        if cval < needed:
            raise PrecisionExhausted("reduction consumed the precision")

    off = []
    for j in range(n):
        entries = []
        for i in range(j):
            entries.append(tuple(pivots[j][i][:diag[i]]))
        off.append(tuple(entries))
    return _build_canonical(fq, scale, tuple(diag), tuple(off))


def relative_length(m1, m2):
    """[M1 : M2]: positive when M2 is (relatively) smaller than M1."""
    return m2.colength() - m1.colength()


def solve_in_basis(base, vec, vec_scale=0):
    """Coordinates of the vector t^vec_scale * vec, with exact polynomial
    entries, in the basis of `base`, or None when the vector is not in
    the lattice.  The coordinates are for the integral part (the base
    scale is already accounted for); the vector is padded to a window
    that no digit of the solve can leave."""
    shift = vec_scale - base.scale
    maxdeg = max((len(e) for e in vec), default=0)
    need = maxdeg + sum(base.diag) + abs(shift) + 2
    v = [ser_pad(e, need) for e in vec]
    if shift > 0:
        v = [(0,) * shift + e[:need - shift] for e in v]
    elif shift < 0:
        k = -shift
        if any(any(e[:k]) for e in v):
            return None
        v = [e[k:] + (0,) * k for e in v]
    y = _solve_upper(base.fq, base.diag, base.columns(need), v)
    return None if y is None else tuple(y)


def relative_to(base, other):
    """Canonical form of `other` written in the basis coordinates of
    `base` (the identity lattice then stands for `base` itself)."""
    prec = other.max_exponent() + 1
    cols = other.columns(prec)
    solved = []
    for c in cols:
        y = solve_in_basis(base, c, other.scale)
        if y is None:
            raise ValueError("lattice is not contained in the base lattice")
        solved.append(y)
    return hnf_from_generators(base.fq, pad_exact(solved, base.n), base.n)


def compose_lattice(base, rel):
    """The lattice whose coordinates relative to `base` are `rel`."""
    fq = base.fq
    n = base.n
    window = (base.max_exponent() + rel.max_exponent()
              + sum(base.diag) + sum(rel.diag) + 4)
    bcols = base.columns(window)
    ccols = []
    diag = []
    for j in range(n):
        acc = [(0,) * window for _ in range(n)]
        rcol_entries = []
        e = [0] * window
        if rel.diag[j] < window:
            e[rel.diag[j]] = 1
        rcol_entries.append((j, tuple(e)))
        for i in range(j):
            digits = rel.off[j][i]
            if any(digits):
                rcol_entries.append((i, ser_pad(digits, window)))
        for i, entry in rcol_entries:
            src = bcols[i]
            for k in range(i + 1):
                acc[k] = ser_add(fq, acc[k], ser_mul(fq, entry, src[k]))
        ccols.append(acc)
        diag.append(base.diag[j] + rel.diag[j])
    _reduce_upper(fq, ccols, diag)
    off = []
    for j in range(n):
        off.append(tuple(tuple(ccols[j][i][:diag[i]]) for i in range(j)))
    return _build_canonical(fq, base.scale + rel.scale, tuple(diag),
                            tuple(off))


def _reduce_upper(fq, cols, diag):
    """In-place off-diagonal reduction of an upper triangular basis whose
    diagonal entries are the exact monomials t^diag[i]."""
    n = len(cols)
    for j in range(n):
        col = cols[j]
        for i in range(j - 1, -1, -1):
            a = diag[i]
            e = col[i]
            hi = e[a:] + (0,) * a
            if any(hi):
                src = cols[i]
                for k in range(i + 1):
                    col[k] = ser_sub(fq, col[k], ser_mul(fq, hi, src[k]))


def _solve_upper(fq, diag, cols, b):
    """Solve (upper triangular basis) * y = b; None when b is outside the
    span over O to working precision.  Consumes the list b."""
    n = len(diag)
    width = len(b[0])
    y = [None] * n
    for i in range(n - 1, -1, -1):
        a = diag[i]
        e = b[i]
        if any(e[:a]):
            return None
        quo = e[a:] + (0,) * a
        y[i] = quo
        if any(quo):
            col = cols[i]
            for k in range(i):
                b[k] = ser_sub(fq, b[k], ser_mul(fq, quo, col[k]))
        b[i] = (0,) * width
    return y


# ---------------------------------------------------------------------------
# matrix helpers (matrices are tuples of columns of raw coefficient tuples)
# ---------------------------------------------------------------------------

def _nonzero_entries(mat):
    """A square matrix (columns of raw series) as, per column, the pairs
    (row, entry) of its entries that are not all zero."""
    return tuple(tuple((i, e) for i, e in enumerate(col) if any(e))
                 for col in mat)


def mat_vec(fq, entries, vec, width):
    """The product of a square matrix, given by _nonzero_entries, with a
    vector of raw series, at `width` t-digits, as a list of rows."""
    out = [(0,) * width] * len(entries)
    for x, col in zip(vec, entries):
        if any(x):
            for i, e in col:
                out[i] = ser_add(fq, out[i], ser_mul(fq, x, e, width))
    return out


def laurent_matrix_inverse(fq, cols, precision):
    """Inverse of a square matrix of raw series columns.

    Returns (inv_cols, shift): the true inverse is t^shift times the
    returned integral columns at their stored window.

    Common t powers are factored out of every column and row first;
    keeping the Gaussian pivots near valuation zero preserves the
    working window when the matrix has large elementary divisors.  The
    elimination runs on Laurent series held as raw (shift, digits)
    pairs: the digits start at exponent shift and are known up to
    exponent shift + len(digits).  Each multiplier has its known leading
    zeros moved into the shift.
    """
    n = len(cols)
    col_v = []
    red = []
    for j in range(n):
        vs = [v for v in (ser_val(e) for e in cols[j]) if v is not None]
        v = min(vs) if vs else 0
        col_v.append(v)
        red.append([e[v:] for e in cols[j]])
    row_v = []
    for i in range(n):
        vs = [v for v in (ser_val(red[j][i]) for j in range(n))
              if v is not None]
        row_v.append(min(vs) if vs else 0)
    grid = [[(0, red[j][i][row_v[i]:]) for j in range(n)] for i in range(n)]
    if not all(digits for row in grid for _, digits in row):
        raise ValueError("empty coefficient window")
    start = min(0, precision - 1)
    one = (0, (1,) + (0,) * (precision - 1))
    zero = (start, (0,) * (precision - start))
    inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for k in range(n):
        piv = _pivot_row(grid, k)
        if piv is None:
            raise PrecisionExhausted(
                "matrix pivot is zero to working precision")
        if piv != k:
            grid[k], grid[piv] = grid[piv], grid[k]
            inv[k], inv[piv] = inv[piv], inv[k]
        pinv = _laurent_inv(fq, grid[k][k])
        grid[k] = [_laurent_mul(fq, e, pinv) for e in grid[k]]
        inv[k] = [_laurent_mul(fq, e, pinv) for e in inv[k]]
        for i in range(n):
            if i == k:
                continue
            f = _laurent_normal(grid[i][k])
            grid[i] = _laurent_row_sub(fq, grid[i], f, grid[k])
            inv[i] = _laurent_row_sub(fq, inv[i], f, inv[k])
    # undo the row and column scalings: with M = Dr M' Dc we have
    # M^-1[i][j] = t^(-col_v[i] - row_v[j]) M'^-1[i][j]; then push the
    # known leading zeros of each entry into its shift
    shift = 0
    for i in range(n):
        for j in range(n):
            e_shift, digits = inv[i][j]
            inv[i][j] = entry = _laurent_normal(
                (e_shift - col_v[i] - row_v[j], digits))
            if any(digits):
                shift = min(shift, entry[0])
    out_prec = min(s + len(d) for row in inv for s, d in row) - shift
    if out_prec < 1:
        raise PrecisionExhausted("matrix inverse lost all precision")
    # every nonzero entry now starts at or above t^shift, so each window
    # below is integral and covers [0, out_prec)
    out_cols = []
    for j in range(n):
        col = []
        for i in range(n):
            e_shift, digits = inv[i][j]
            e_shift -= shift
            if e_shift >= 0:
                col.append(((0,) * e_shift + digits)[:out_prec])
            else:
                col.append(digits[-e_shift:out_prec - e_shift])
        out_cols.append(tuple(col))
    return tuple(out_cols), shift


def resultant_valuation(fq, f, g, window):
    """Valuation of res(f, g) for two X-polynomials with digit-tuple
    coefficients (lowest degree first), or None when the resultant is
    zero; every resultant valuation of order construction comes from
    here.

    With a window the coefficients are series known to that many digits
    (each is cut or zero-extended to it): None then means zero to the
    window, and a pivot that the elimination cannot certify raises
    PrecisionExhausted.  Leading coefficients that are zero to the
    window are dropped.  The Sylvester matrix, its entries raw Laurent
    pairs, is brought to triangular form with the pivot rule of
    laurent_matrix_inverse, and the resultant is, up to sign, the
    product of the pivots.  Multipliers and pivots have their known
    leading zeros moved into the shift, so entries stay integral and
    step k costs the windows below it at most twice its pivot's
    valuation; an entry below a pivot that is zero only to its window
    cuts the windows of its row by at most the pivot's valuation.

    Exact inputs (window None) are padded to W = 2*(n*a + m*b) + 2
    digits, with m and n the X-degrees of f and g and a and b the digit
    counts of their longest coefficients.  A minor of the Sylvester
    matrix takes at most n of its rows from f and m from g, so its
    t-degree is below D = n*a + m*b, and a nonzero resultant has
    valuation below D.  The pivot valuations add up to the resultant's,
    so at W > 2D every pivot of a nonzero resultant is certified, and a
    pivot that is zero or cannot be certified at W means that the exact
    resultant is zero: None.
    """
    exact = window is None
    if exact:
        a = max(map(len, f), default=0)
        b = max(map(len, g), default=0)
        window = 2 * ((len(g) - 1) * a + (len(f) - 1) * b) + 2
    fc = [ser_pad(c, window) for c in f]
    gc = [ser_pad(c, window) for c in g]
    for cs in (fc, gc):
        while len(cs) > 1 and not any(cs[-1]):
            cs.pop()
    try:
        if not fc or not gc:
            raise PrecisionExhausted(
                "resultant of an identically-zero input")
        m, n = len(fc) - 1, len(gc) - 1
        if m == 0 or n == 0:
            # a constant: the resultant is its power
            pivots = [(0, ser_pad((1,), window))] + [
                (0, c) for c in (fc[0],) * n + (gc[0],) * m]
        else:
            size = m + n
            zero = (0, (0,) * window)
            rows = []
            for poly, count in ((fc, n), (gc, m)):
                entries = [(0, c) for c in reversed(poly)]
                for i in range(count):
                    rows.append([zero] * i + entries
                                + [zero] * (size - i - len(entries)))
            pivots = []
            for k in range(size):
                piv = _pivot_row(rows, k)
                if piv is None:
                    raise PrecisionExhausted(
                        "resultant pivot is zero to working precision; "
                        "raise the precision or use exact polynomial "
                        "inputs")
                rows[k], rows[piv] = rows[piv], rows[k]
                pinv = _laurent_inv(fq, rows[k][k])
                for i in range(k + 1, size):
                    a = rows[i][k]
                    # a zero-to-window a times pinv: zero to the shifted
                    # window
                    factor = (_laurent_normal(_laurent_mul(fq, a, pinv))
                              if any(a[1]) else (a[0] + pinv[0], a[1]))
                    rows[i] = _laurent_row_sub(fq, rows[i], factor, rows[k])
                pivots.append(_laurent_normal(rows[k][k]))
    except PrecisionExhausted:
        if exact:
            return None
        raise
    det = pivots[0]
    for piv in pivots[1:]:
        det = _laurent_mul(fq, det, piv)
    shift, digits = det
    v = ser_val(digits)
    return None if v is None else shift + v


def _pivot_row(grid, k):
    """The row, from k on, whose entry in column k has the least known
    valuation, the first such row on ties; None when every one of those
    entries is zero to its window."""
    best = None
    for i in range(k, len(grid)):
        shift, digits = grid[i][k]
        v = ser_val(digits)
        if v is not None and (best is None or shift + v < best[0]):
            best = (shift + v, i)
    return None if best is None else best[1]


def _laurent_inv(fq, a):
    """Inverse of a raw Laurent pair that has a nonzero digit."""
    shift, digits = a
    v = ser_val(digits)
    return (-(shift + v), ser_unit_inv(fq, digits[v:]))


def _laurent_normal(a):
    """A raw Laurent pair with its known leading zeros moved into the
    shift, so that products with it keep the window they truly know."""
    shift, digits = a
    v = ser_val(digits)
    return (shift + v, digits[v:]) if v else a


def _laurent_row_sub(fq, row, f, pivot_row):
    """row - f * pivot_row on raw Laurent pairs.  A multiplier that is
    zero only to its window is not subtracted, but its unknown digits,
    from t^end on, times the pivot row still cut the row's windows."""
    if any(f[1]):
        return [_laurent_sub(fq, a, _laurent_mul(fq, f, b))
                for a, b in zip(row, pivot_row)]
    end = f[0] + len(f[1])
    out = []
    for (shift, digits), (pivot_shift, _) in zip(row, pivot_row):
        cut = end + pivot_shift
        if cut <= shift:
            out.append((cut - 1, (0,)))      # now known only to be O(t^cut)
        else:
            out.append((shift, digits[:cut - shift]))
    return out


def _laurent_mul(fq, a, b):
    """Product of two raw Laurent pairs, at the shorter digit window."""
    return (a[0] + b[0], ser_mul(fq, a[1], b[1], min(len(a[1]), len(b[1]))))


def _laurent_sub(fq, a, b):
    """Difference of two raw Laurent pairs on the window that both know:
    from the lower start up to the lower end of knowledge."""
    lo = min(a[0], b[0])
    hi = min(a[0] + len(a[1]), b[0] + len(b[1]))
    if hi <= lo:
        raise PrecisionExhausted("no common precision window")
    width = hi - lo
    return (lo, ser_sub(fq, ((0,) * (a[0] - lo) + a[1])[:width],
                        ((0,) * (b[0] - lo) + b[1])[:width]))


# ---------------------------------------------------------------------------
# products, duals, colon lattices
# ---------------------------------------------------------------------------

def element_scaled_lattice(x, x_scale, h, mul, precision):
    """The lattice x * H for an ambient algebra element x given by its
    integral coordinate vector and a t-power scale."""
    cols = h.columns(precision)
    gens = [mul(x, c, precision) for c in cols]
    return hnf_from_generators(h.fq, gens, h.n, scale=h.scale + x_scale)


def product_lattice(h1, h2, mul, precision):
    """Lattice generated by all pairwise products of basis vectors; mul is
    the bilinear coordinate multiplication of the ambient algebra."""
    c1 = h1.columns(precision)
    c2 = h2.columns(precision)
    gens = [mul(v, w, precision) for v in c1 for w in c2]
    return hnf_from_generators(h1.fq, gens, h1.n, scale=h1.scale + h2.scale)


def trace_dual_lattice(h, gram_cols, precision):
    """Dual with respect to the pairing whose Gram matrix (on the ambient
    basis) has the given columns: {y : <y, M> integral}."""
    tcols, shift = _dual_basis(h.fq, h.diag, h.off, gram_cols, precision)
    return hnf_from_generators(h.fq, tcols, h.n, scale=-h.scale + shift)


@lru_cache(maxsize=64)
def _dual_basis(fq, diag, off, gram_cols, precision):
    """Generators of the dual of the unscaled lattice (diag, off), and
    the power of t they carry.  The scale is left out: t^k M has the
    same T C as M, so one inversion serves every scale of a shape."""
    n = len(diag)
    gram = _nonzero_entries(gram_cols)
    prod = [mat_vec(fq, gram, c, precision)                # T * C
            for c in _basis_columns(diag, off, precision)]
    # the dual basis matrix is the transpose of (T C)^{-1}: T is
    # symmetric and the dual of t^s C O^n is t^{-s} (C^T T)^{-1} O^n
    inv_cols, shift = laurent_matrix_inverse(fq, prod, precision)
    tcols = tuple(tuple(inv_cols[i][j] for i in range(n)) for j in range(n))
    return tcols, shift


def colon_lattice(a, b, mul, gram_cols, precision):
    """(A : B) = {x in the ambient algebra : x*B inside A}."""
    da = trace_dual_lattice(a, gram_cols, precision)
    prod = product_lattice(b, da, mul, precision)
    return trace_dual_lattice(prod, gram_cols, precision)


# ---------------------------------------------------------------------------
# stable subspaces of the mod-t fiber
# ---------------------------------------------------------------------------

def _matvec_fq(fq, rows, v):
    out = []
    add = fq._add
    mul = fq._mul
    for row in rows:
        acc = 0
        for c, x in zip(row, v):
            if c and x:
                acc = add[acc][mul[c][x]]
        out.append(acc)
    return out


def _subspace_is_stable(fq, mats_rows, basis, pivot_rows):
    sub = fq._sub
    mul = fq._mul
    for rows in mats_rows:
        for v in basis:
            w = _matvec_fq(fq, rows, v)
            for bk, rk in zip(basis, pivot_rows):
                c = w[rk]
                if c:
                    row = mul[c]
                    for i in range(rk + 1):
                        if bk[i]:
                            w[i] = sub[w[i]][row[bk[i]]]
                    w[rk] = 0
            if any(w):
                return False
    return True


def stable_subspaces_mod_t(fq, mats_rows, n, dim):
    """All dimension-`dim` subspaces of F_q^n stable under every matrix
    (given as row tuples), as (pivot_rows, basis) pairs in bottom-pivot
    reduced echelon form, in a fixed deterministic order."""
    q = fq.q
    out = []
    for pivot_rows in combinations(range(n), dim):
        free_pos = []
        for k, rk in enumerate(pivot_rows):
            for i in range(rk):
                if i not in pivot_rows:
                    free_pos.append((k, i))
        for counter in range(q ** len(free_pos)):
            basis = [[0] * n for _ in range(dim)]
            for k, rk in enumerate(pivot_rows):
                basis[k][rk] = 1
            c = counter
            for (k, i) in free_pos:
                basis[k][i] = c % q
                c //= q
            if _subspace_is_stable(fq, mats_rows, basis, pivot_rows):
                out.append((pivot_rows, tuple(tuple(b) for b in basis)))
    return out


# ---------------------------------------------------------------------------
# stable sublattice enumeration
# ---------------------------------------------------------------------------

def _conjugated(fq, sparse_mats, diag, cols, width, unstable):
    """Each matrix (in ambient coordinates, given by _nonzero_entries)
    rewritten in the upper triangular basis with diagonal t^diag and
    columns `cols`, at `width` t-digits; raises
    InvariantViolation(unstable) when the lattice is not stable under a
    matrix."""
    out = []
    for entries in sparse_mats:
        ycols = []
        for c in cols:
            y = _solve_upper(fq, diag, cols, mat_vec(fq, entries, c, width))
            if y is None:
                raise InvariantViolation(unstable)
            ycols.append(y)
        out.append(ycols)
    return out


def _action_on_lattice(fq, lattice, ambient_mats, precision):
    """Action matrices rewritten in the lattice's own basis coordinates;
    raises when the lattice is not stable under them."""
    return _conjugated(fq, [_nonzero_entries(m) for m in ambient_mats],
                       lattice.diag, lattice.columns(precision), precision,
                       "action does not stabilize the base lattice")


def _mod_t(mats):
    """Constant terms of matrices given as columns, as row tuples."""
    return tuple(tuple(zip(*[[e[0] for e in col] for col in mat]))
                 for mat in mats)


def _compose_and_reduce(fq, pdiag, pcols, pivot_rows, basis, n, dcode):
    """Packed key (see _unpack_key), relative to the enumeration base, of
    the child lattice: the node (diagonal pdiag, basis columns pcols)
    composed with the preimage of the given stable subspace of its mod-t
    fiber."""
    width = len(pcols[0][0])
    zero = (0,) * width

    # child basis in node coordinates: pivot rows carry the subspace
    # basis vectors (constant entries), other rows carry t * e_row;
    # that matrix is already canonical, so the child's diagonal is
    # immediate and only the composed off-diagonal needs reduction
    in_pivot = {r: k for k, r in enumerate(pivot_rows)}
    ccols = []
    cdiag = []
    for j in range(n):
        if j in in_pivot:
            v = basis[in_pivot[j]]
            col = [zero] * n
            for i in range(j + 1):
                if v[i]:
                    src = pcols[i]
                    for k in range(i + 1):
                        col[k] = ser_add(fq, col[k],
                                         ser_scale(fq, v[i], src[k]))
            cdiag.append(pdiag[j])
        else:
            col = [(0,) + e[:-1] for e in pcols[j]]
            cdiag.append(pdiag[j] + 1)
        ccols.append(col)
    _reduce_upper(fq, ccols, cdiag)
    return array(dcode, cdiag).tobytes() + b"".join(
        [bytes(ccols[j][i][:cdiag[i]]) for j in range(n) for i in range(j)])


def _diagonal_code(jmax):
    """Array typecode of the diagonal exponents in the packed keys of an
    enumeration to colength jmax: the narrowest that holds jmax."""
    return next(code for code in "BHIQ"
                if jmax < 256 ** array(code).itemsize)


def _unpack_key(key, n, dcode):
    """(diag, off) of a packed enumerator key: n diagonal exponents as an
    array of typecode dcode, then the off-diagonal digits column by
    column, one byte each (q <= 256), entry (i, j) holding exactly
    diag[i] of them."""
    diag = array(dcode)
    pos = n * diag.itemsize
    diag.frombytes(key[:pos])
    diag = tuple(diag)
    off = [()]
    for j in range(1, n):
        col = []
        for a in diag[:j]:
            col.append(tuple(key[pos:pos + a]))
            pos += a
        off.append(tuple(col))
    return diag, tuple(off)


class _Level(Sequence):
    """One level of stable_sublattice_levels: its packed keys, sorted in
    the documented order, each decoded to its canonical LatticeHNF only
    when it is read."""

    __slots__ = ("_fq", "_n", "_dcode", "_keys")

    def __init__(self, fq, keys, n, dcode):
        self._fq = fq
        self._n = n
        self._dcode = dcode
        self._keys = sorted(keys, key=self._sort_key)

    def __len__(self):
        return len(self._keys)

    def __getitem__(self, index):
        diag, off = _unpack_key(self._keys[index], self._n, self._dcode)
        return _build_canonical(self._fq, 0, diag, off)

    def _sort_key(self, key):
        """LatticeHNF.sort_key of the decoded lattice, without building
        it."""
        return _order_key(0, *_unpack_key(key, self._n, self._dcode))


def _relative_action(fq, root_entries, diag, off, width):
    """The action mod t in the canonical basis (diag, off) relative to
    the enumeration base: one tuple of rows over F_q per root matrix.
    `root_entries` are the root matrices as _nonzero_entries lists, and
    `width` is their shortest entry.

    The node key is a reduced Hermite form, so the action must be
    expressed in that exact basis: conjugating incrementally through
    the unreduced child step would drift away from the stored key.
    The triangular solve consumes at most sum(diag) digits of the root
    matrices, which the caller budgets for.
    """
    return _mod_t(_conjugated(
        fq, root_entries, diag, _basis_columns(diag, off, width), width,
        "unstable candidate escaped the subspace filter"))


def action_digits_needed(base, jmax):
    """Digits of the action matrices that enumerating the stable
    sublattices of `base` to colength jmax needs: the root action is cut
    to jmax + 2 digits and conjugating it into the base consumes
    sum(base.diag) + 1 more."""
    return sum(base.diag) + jmax + 3


def stable_sublattice_levels(base, jmax, ambient_mats, *, ceiling=None,
                             containing=None):
    """For each colength 0..jmax, the stable sublattices of `base`.

    The returned lattices are canonical forms RELATIVE to the basis of
    `base` (use compose_lattice to place them in ambient coordinates);
    each level is a sequence sorted in the documented deterministic
    order, whose lattices are built only when they are read.

    `ambient_mats` is a nonempty sequence of multiplication matrices
    (columns of raw coefficient tuples, in ambient coordinates) which
    together with scalars generate the acting ring; they are known to
    their shortest entry, which must reach action_digits_needed.
    `containing`, if given, is a lattice relative to `base`; the
    enumeration is pruned to sublattices containing it.
    """
    fq = base.fq
    n = base.n
    cap = enumeration_ceiling(ceiling)
    precision = min(min(len(e) for col in m for e in col)
                    for m in ambient_mats)
    root_digits = jmax + 2
    need = action_digits_needed(base, jmax)
    if precision < need:
        raise PrecisionExhausted(
            f"need {need} digits of the action matrices, have "
            f"{precision} (stable sublattices to jmax={jmax} of the "
            f"base lattice with diagonal {base.diag})")
    root_mats = tuple(
        tuple(tuple(e[:root_digits] for e in col) for col in mat)
        for mat in _action_on_lattice(fq, base, ambient_mats, precision))
    width = min(len(e) for mat in root_mats for col in mat for e in col)
    root_entries = tuple(_nonzero_entries(m) for m in root_mats)

    # every diagonal exponent relative to the base is at most jmax
    dcode = _diagonal_code(jmax)
    shared = {}      # interned actions mod t; see the module docstring
    levels = [{} for _ in range(jmax + 1)]
    levels[0][array(dcode, (0,) * n).tobytes()] = _mod_t(root_mats)
    work = 0
    memo = {}
    for level in range(jmax):
        for key, action in levels[level].items():
            diag, off = _unpack_key(key, n, dcode)
            pcols = _basis_columns(diag, off, max(diag) + 3)
            for c in range(1, n + 1):
                tgt = level + c
                if tgt > jmax:
                    break
                mkey = (action, n - c)
                subs = memo.get(mkey)
                if subs is None:
                    subs = stable_subspaces_mod_t(fq, action, n, n - c)
                    memo[mkey] = subs
                work += max(1, len(subs))
                if work > cap:
                    raise CeilingExceeded(
                        f"enumeration exceeded the work ceiling {cap}")
                bucket = levels[tgt]
                for pivot_rows, basis in subs:
                    ckey = _compose_and_reduce(fq, diag, pcols, pivot_rows,
                                               basis, n, dcode)
                    if ckey in bucket:
                        continue
                    cdiag, coff = _unpack_key(ckey, n, dcode)
                    if containing is not None:
                        child = LatticeHNF(fq, 0, cdiag, coff)
                        if not child.contains_lattice(containing):
                            continue
                    child_action = _relative_action(fq, root_entries,
                                                    cdiag, coff, width)
                    bucket[ckey] = shared.setdefault(child_action,
                                                     child_action)
        # an expanded level is final: keep only its sorted keys
        levels[level] = _Level(fq, levels[level], n, dcode)
    levels[jmax] = _Level(fq, levels[jmax], n, dcode)
    return levels


# ---------------------------------------------------------------------------
# class counting and homothety (duck-typed on the order)
# ---------------------------------------------------------------------------

def sandwich_representatives(order, ceiling=None):
    """Choice-free class representatives: the stable lattices M with
    conductor <= M <= maximal order whose maximal-order span is the
    whole maximal order, in ambient coordinates, sorted.

    Every class of stable lattices modulo scaling by units of E and
    powers of t contains exactly one such M, so these represent the
    classes counted by class_count_mod_lambda.
    """
    o_e = order.o_e_lattice
    cond = order.conductor_lattice
    cond_rel = relative_to(o_e, cond)
    depth = relative_length(o_e, cond)
    levels = stable_sublattice_levels(o_e, depth, order.action_matrices,
                                      ceiling=ceiling, containing=cond_rel)
    out = []
    for level in levels:
        for rel in level:
            m = compose_lattice(o_e, rel)
            prod = product_lattice(o_e, m, order.multiply_vectors,
                                   order.precision)
            if prod == o_e:
                out.append(m)
    out.sort(key=LatticeHNF.sort_key)
    return out


def class_count_mod_lambda(order, ceiling=None):
    """Number of stable-lattice classes modulo scaling (the count of the
    sandwich representatives)."""
    return len(sandwich_representatives(order, ceiling=ceiling))


def is_homothetic(m1, m2, order):
    """A witness element x with x*M1 = M2, or None.

    Any witness lies in the colon lattice C = (M2 : M1), and an element
    x of C satisfies [M1 : x*M1] >= [M1 : M2] with equality exactly when
    x*M1 = M2, so witnesses are the minimal-norm elements of C and none
    lies in t*C.  If x is a witness and y = x + t*c with c in C, then
    y = x*(1 + t*(c/x)) and c/x multiplies M2 into itself, making the
    second factor a unit of End(M2): y is again a witness.  Each residue
    class of C/tC is therefore all witnesses or none, and scanning the
    q^n - 1 nonzero classes is a complete search.

    The scan is bilinear: the product is F_q-bilinear and carry free, so
    the generators x*m_k of a candidate x = sum_j c_j C_j are the same
    combinations sum_j c_j (C_j * m_k) of the n^2 products of colon and
    M1 basis columns.  These are computed once, at the window w below,
    where they have the digits of the full-precision products.

    Each candidate's Hermite form is computed at the witness's own
    window w = sum(d) + max(d) + 1, where d_i = diag_i(M2) + scale(M2)
    - scale(C) - scale(M1) are the exponents a witness's span has at the
    generators' scale: elimination consumes sum(d) digits and the
    reduction of the off-diagonal entries needs max(d) more, so a
    witness certifies its form at w.  hnf_from_generators returns only
    certified forms, so a non-witness never matches M2 (it fails to
    certify or certifies a different form), and the first hit is the
    same as at the full precision.

    The witness is returned as (coords, scale): the element is t^scale
    times the vector with the given ambient coordinates, at the order's
    full precision.
    """
    fq = order.fq
    n = m1.n
    if n != m2.n:
        raise ValueError("mismatched ranks")
    prec = order.precision
    mul = order.multiply_vectors
    colon = colon_lattice(m2, m1, mul, order.trace_gram_columns, prec)
    ccols = colon.columns(prec)
    c1 = m1.columns(prec)
    scale = colon.scale + m1.scale
    d = [a + m2.scale - scale for a in m2.diag]
    window = min(prec, sum(d) + max(d) + 1)
    # products[j][k]: the product of colon column j and M1 column k
    products = [[mul(cc, v, window) for v in c1] for cc in ccols]
    zero = (0,) * window
    q = fq.q
    target = m2.key
    for counter in range(1, q ** n):
        coords = []
        c = counter
        for _ in range(n):
            coords.append(c % q)
            c //= q
        gens = []
        for k in range(n):
            g = [zero] * n
            for j in range(n):
                if coords[j]:
                    for i, e in enumerate(products[j][k]):
                        g[i] = ser_add(fq, g[i], ser_scale(fq, coords[j], e))
            gens.append(g)
        try:
            cand = hnf_from_generators(fq, gens, n, scale=scale)
        except (RankDeficient, PrecisionExhausted):
            continue
        if cand.key == target:
            x = [(0,) * prec for _ in range(n)]
            for j in range(n):
                if coords[j]:
                    for i in range(n):
                        x[i] = ser_add(fq, x[i],
                                       ser_scale(fq, coords[j], ccols[j][i]))
            return tuple(x), colon.scale
    return None
