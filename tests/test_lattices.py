"""Lattice canonical forms, duals, and the stable-sublattice enumerator.

The enumerator is cross-checked against a brute-force oracle that walks
every Hermite shape and digit filling and keeps the lattices that pass
an independent membership-based stability test.  Expected counts for
the cuspidal and nodal quadratic orders were derived by hand from their
known colength generating functions and are frozen as literals.
"""

import random
import tracemalloc
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderzeta.errors import (CeilingExceeded, PrecisionExhausted,
                              RankDeficient)
from orderzeta.fq import Fq
from orderzeta.lattices import (LatticeHNF, _action_on_lattice,
                                _dual_basis, _nonzero_entries,
                                _relative_action,
                                class_count_mod_lambda,
                                colon_lattice, compose_lattice,
                                element_scaled_lattice, enumeration_ceiling,
                                hnf_from_generators, identity_lattice,
                                is_homothetic, laurent_matrix_inverse,
                                mat_vec, pad_exact,
                                product_lattice, relative_length, relative_to,
                                sandwich_representatives, solve_in_basis,
                                stable_sublattice_levels, trace_dual_lattice)
from orderzeta.orders import build_order, n_lines_order
from orderzeta.parsing import parse_field, parse_xpoly
from orderzeta.series import ser_add, ser_mul, ser_scale, ser_val
from orderzeta.zeta import quot_series

from laurent_oracle import LaurentSeries

F2 = Fq(2)
F3 = Fq(3)
F5 = Fq(5)
F4 = parse_field("4")
F9 = parse_field("9")


def pad(coeffs, n):
    return tuple(coeffs[:n]) + (0,) * max(0, n - len(coeffs))


def vec(entries, n):
    return tuple(pad(e, n) for e in entries)


def scalar_action(fq, n, width):
    """The scalars alone as the acting ring: the identity matrix, known
    to `width` digits.  Every lattice is stable under it."""
    return (tuple(identity_lattice(fq, n).columns(width)),)


# ---------------------------------------------------------------------------
# toy ambient algebras (no order engine needed)
# ---------------------------------------------------------------------------

class SplitAlgebraOrder:
    """The split ambient E = F x F with componentwise multiplication, as
    the ring of integers of itself (conductor everything)."""

    def __init__(self, fq, precision=14):
        self.fq = fq
        self.precision = precision
        self.o_e_lattice = identity_lattice(fq, 2)
        self.conductor_lattice = identity_lattice(fq, 2)
        # the scalars act, and the trace form is the dot product
        self.action_matrices = scalar_action(fq, 2, precision)
        self.trace_gram_columns = self.action_matrices[0]

    def multiply_vectors(self, v, w, prec):
        return (ser_mul(self.fq, v[0], w[0], prec),
                ser_mul(self.fq, v[1], w[1], prec))


class NodeOrder(SplitAlgebraOrder):
    """R = {(a, b) : a = b mod t} inside O x O; generated over scalars by
    u = (t, 0).  Normalization O x O, conductor t(O x O)."""

    def __init__(self, fq, precision=14):
        super().__init__(fq, precision)
        self.conductor_lattice = identity_lattice(fq, 2, scale=1)
        n = precision
        u_col0 = vec([(0, 1), ()], n)       # u*e1 = t*e1
        u_col1 = vec([(), ()], n)           # u*e2 = 0
        self.action_matrices = ((u_col0, u_col1),)


class CuspOrder:
    """R = O + O*g with g^2 = t^3, ambient basis (1, g); normalization
    O + O*(g/t), conductor (t, g).  Needs odd characteristic only for
    the trace pairing."""

    def __init__(self, fq, precision=16):
        self.fq = fq
        self.precision = precision
        self.r_lattice = identity_lattice(fq, 2)
        # O_E = span((1,0), (0, 1/t)) = t^{-1} span((t,0), (0,1))
        self.o_e_lattice = LatticeHNF(fq, -1, (1, 0), ((), ((0,),)))
        # conductor = tO + gO = t * O_E
        self.conductor_lattice = self.o_e_lattice.shifted(1)
        n = precision
        g_col0 = vec([(), (1,)], n)         # g*1 = g
        g_col1 = vec([(0, 0, 0, 1), ()], n)  # g*g = t^3
        self.action_matrices = ((g_col0, g_col1),)
        two = fq.from_int(2)
        self.trace_gram_columns = (vec([(two,), ()], n),
                                   vec([(), (0, 0, 0, two)], n))

    def multiply_vectors(self, v, w, prec):
        fq = self.fq
        a, b = v
        c, d = w
        first = ser_add(fq, ser_mul(fq, a, c, prec),
                        (0, 0, 0) + ser_mul(fq, b, d, prec)[:prec - 3])
        second = ser_add(fq, ser_mul(fq, a, d, prec),
                         ser_mul(fq, b, c, prec))
        return (first, second)


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def test_hnf_of_identity_columns():
    eye = identity_lattice(F3, 3)
    got = hnf_from_generators(F3, eye.columns(8), 3)
    assert got == eye
    assert got.colength() == 0


def test_hnf_congruence_example():
    # span{(t,0), (1,1)} over F_3: total diagonal exponent 1
    gens = [vec([(0, 1), ()], 6), vec([(1,), (1,)], 6)]
    h = hnf_from_generators(F3, gens, 2)
    assert h.scale == 0
    assert h.diag == (1, 0)
    assert h.off == ((), ((1,),))
    assert h.colength() == 1
    # idempotent on its own columns
    again = hnf_from_generators(F3, h.columns(6), 2)
    assert again == h


def test_hnf_ignores_duplicate_and_zero_generators():
    gens = [vec([(0, 1), ()], 6), vec([(1,), (1,)], 6)]
    noisy = gens + gens + [vec([(), ()], 6)]
    assert (hnf_from_generators(F3, noisy, 2)
            == hnf_from_generators(F3, gens, 2))


def test_hnf_extracts_global_scale():
    gens = [vec([(0, 1), ()], 8), vec([(), (0, 1)], 8)]
    h = hnf_from_generators(F3, gens, 2)
    assert h == identity_lattice(F3, 2, scale=1)
    assert h.colength() == 2


def test_hnf_rank_deficient():
    with pytest.raises(RankDeficient):
        hnf_from_generators(F3, [vec([(1,), (1,)], 6)], 2)


def test_hnf_precision_exhausted_on_invisible_pivot():
    # second generator is zero to the stored window: pivot uncertifiable
    gens = [vec([(1,), ()], 4), vec([(), ()], 4)]
    with pytest.raises(PrecisionExhausted):
        hnf_from_generators(F3, gens, 2)


def test_hnf_zero_entry_tail_costs_the_pivot_valuation():
    # Over F_3 at window 15 with a = t^6 + t^7, the generators
    # (1, 0, 0, c), (1, a, 0, 0), (0, 1, a, 0), (0, 0, 1, a) with c zero
    # to the window span a lattice whose colength depends on c's unknown
    # digits: 18 for c = 0 but 15 for c = t^15.  Eliminating c's tail
    # against the pivot a costs 6 digits even though c shows none.
    a = (0,) * 6 + (1, 1)

    def gens(c, n):
        return [vec(v, n) for v in (((1,), (), (), c), ((1,), a, (), ()),
                                    ((), (1,), a, ()), ((), (), (1,), a))]
    assert hnf_from_generators(F3, pad_exact(gens((), 15), 4),
                               4).colength() == 18
    assert hnf_from_generators(F3, pad_exact(gens((0,) * 15 + (1,), 16), 4),
                               4).colength() == 15
    with pytest.raises(PrecisionExhausted):
        hnf_from_generators(F3, gens((), 15), 4)


def test_contains_vector_and_lattice():
    gens = [vec([(0, 1), ()], 8), vec([(1,), (1,)], 8)]
    h = hnf_from_generators(F3, gens, 2)
    assert h.contains_vector(((1, 0), (1, 0)))
    assert h.contains_vector(((0, 1), (0, 0)))
    assert not h.contains_vector(((1, 0), (0, 0)))
    assert identity_lattice(F3, 2).contains_lattice(h)
    assert not h.contains_lattice(identity_lattice(F3, 2))
    assert h.contains_lattice(identity_lattice(F3, 2, scale=1))


def test_relative_length_examples():
    L = identity_lattice(F5, 3)
    assert relative_length(L, L) == 0
    assert relative_length(L, L.shifted(1)) == 3
    assert relative_length(L.shifted(1), L) == -3
    gens = [vec([(0, 1), ()], 6), vec([(1,), (1,)], 6)]
    h = hnf_from_generators(F5, gens, 2)
    assert relative_length(identity_lattice(F5, 2), h) == 1


def test_solve_in_basis_round_trip():
    gens = [vec([(0, 0, 1), (0, 1)], 10), vec([(1,), (1,)], 10)]
    h = hnf_from_generators(F3, gens, 2)
    cols = h.columns(6)
    # t^2 * col0 + (1+t) * col1 is in the lattice
    fq = F3
    target = tuple(
        ser_add(fq, ser_mul(fq, (0, 0, 1), cols[0][i], 6),
                ser_mul(fq, (1, 1), cols[1][i], 6))
        for i in range(2))
    y = solve_in_basis(h, target)
    assert y is not None
    assert y[0][:3] == (0, 0, 1)
    assert y[1][:2] == (1, 1)
    assert solve_in_basis(h, ((1, 0, 0), (0, 0, 0))) is None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_solve_in_basis_multiplies_back_to_the_shifted_vector(data):
    # canonical lattices with scale != 0 over F2, F3 and F4, and vectors
    # at vec_scale - scale in -2..2, drawn as members or at random.  A
    # returned y multiplied out is the vector at the lattice's scale; a
    # nonzero digit below a negative shift is never a member; and
    # membership agrees with contains_vector and with adding the vector
    # to the basis, which leaves the Hermite form of the span unchanged
    # exactly for members
    fq = data.draw(st.sampled_from([F2, F3, F4]), label="field")
    digit = st.integers(0, fq.q - 1)
    n = data.draw(st.integers(1, 3), label="n")
    diag = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                     label="diag")
    diag[data.draw(st.integers(0, n - 1), label="unit column")] = 0
    off = [[tuple(data.draw(digit) for _ in range(diag[i]))
            for i in range(j)] for j in range(n)]
    scale = data.draw(st.integers(-3, 3).filter(bool), label="scale")
    lat = LatticeHNF(fq, scale, diag, off)
    shift = data.draw(st.integers(-2, 2), label="shift")
    if data.draw(st.booleans(), label="member"):
        v = [(0,) * 5] * n
        for col in lat.columns(5):
            c = pad(data.draw(st.lists(digit, max_size=2)), 5)
            v = [ser_add(fq, v[i], ser_mul(fq, c, col[i])) for i in range(n)]
        vec = [(0,) * max(0, -shift) + e for e in v]
    else:
        vec = [tuple(data.draw(st.lists(digit, max_size=4)))
               for _ in range(n)]
    if shift < 0 and data.draw(st.booleans(), label="low digit"):
        i = data.draw(st.integers(0, n - 1))
        e = list(pad(vec[i], -shift))
        e[data.draw(st.integers(0, -shift - 1))] = 1
        vec[i] = tuple(e)
    vec_scale = scale + shift

    y = solve_in_basis(lat, vec, vec_scale)
    assert lat.contains_vector(vec, vec_scale) == (y is not None)
    s0 = min(scale, vec_scale)
    gens = [tuple((0,) * (scale - s0) + e for e in col)
            for col in lat.columns(max(diag) + 1)]
    gens.append(tuple((0,) * (vec_scale - s0) + e for e in vec))
    span = hnf_from_generators(fq, pad_exact(gens, n), n, scale=s0)
    assert (y is not None) == (span == lat)
    if shift < 0 and any(any(e[:-shift]) for e in vec):
        assert y is None
    if y is not None:
        width = len(y[0])
        got = [(0,) * width] * n
        for yj, col in zip(y, lat.columns(width)):
            got = [ser_add(fq, got[i], ser_mul(fq, yj, col[i]))
                   for i in range(n)]
        want = [pad((0,) * shift + e if shift >= 0 else e[-shift:], width)
                for e in vec]
        assert got == want


def test_relative_to_and_compose_round_trip():
    base_gens = [vec([(0, 1), ()], 10), vec([(1,), (1,)], 10)]
    base = hnf_from_generators(F3, base_gens, 2)
    sub_gens = [vec([(0, 0, 2), (0, 2)], 10), vec([(0, 1), (0, 1)], 10)]
    sub = hnf_from_generators(F3, sub_gens, 2)
    assert base.contains_lattice(sub)
    rel = relative_to(base, sub)
    assert rel.colength() == relative_length(base, sub)
    assert compose_lattice(base, rel) == sub
    assert relative_to(base, base) == identity_lattice(F3, 2)
    assert compose_lattice(base, identity_lattice(F3, 2)) == base


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.data())
def test_hnf_reproduces_canonical_data(a0, a1, data):
    # build a reduced triangular basis, add a random O-combination of its
    # columns, and check the span comes back with the same canonical form
    fq = F3
    digits = tuple(data.draw(st.integers(0, 2)) for _ in range(a0))
    h = LatticeHNF(fq, 0, (a0, a1), ((), (digits,)))
    cols = h.columns(10)
    c0 = tuple(data.draw(st.integers(0, 2)) for _ in range(3))
    c1 = tuple(data.draw(st.integers(0, 2)) for _ in range(3))
    extra = tuple(ser_add(fq, ser_mul(fq, pad(c0, 10), cols[0][i], 10),
                          ser_mul(fq, pad(c1, 10), cols[1][i], 10))
                  for i in range(2))
    got = hnf_from_generators(fq, list(cols) + [extra], 2)
    want = hnf_from_generators(fq, cols, 2)
    assert got == want
    assert want.colength() == a0 + a1


# ---------------------------------------------------------------------------
# matrix inverse, duals, colon lattices
# ---------------------------------------------------------------------------

def test_laurent_matrix_inverse_known_2x2():
    n = 8
    cols = (vec([(1,), ()], n), vec([(0, 1), (1, 1)], n))
    inv_cols, shift = laurent_matrix_inverse(F3, cols, n)
    assert shift == 0
    w = len(inv_cols[0][0])
    entries = _nonzero_entries(cols)
    prod = [mat_vec(F3, entries, c, w) for c in inv_cols]
    assert prod[0][0][:w] == pad((1,), w)
    assert prod[0][1][:w] == pad((), w)
    assert prod[1][0][:w] == pad((), w)
    assert prod[1][1][:w] == pad((1,), w)


def reference_laurent_inverse(fq, cols, precision):
    """Gauss-Jordan inverse on LaurentSeries objects, the elimination
    laurent_matrix_inverse performs on raw (shift, digits) pairs."""
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
    grid = [[LaurentSeries(fq, 0, red[j][i][row_v[i]:]) for j in range(n)]
            for i in range(n)]
    inv = [[LaurentSeries.one(fq, precision) if i == j
            else LaurentSeries.zero(fq, precision) for j in range(n)]
           for i in range(n)]
    for k in range(n):
        best = None
        for i in range(k, n):
            v = grid[i][k].valuation()
            if v is not None and (best is None or v < best[0]):
                best = (v, i)
        if best is None:
            raise PrecisionExhausted(
                "matrix pivot is zero to working precision")
        _, piv = best
        grid[k], grid[piv] = grid[piv], grid[k]
        inv[k], inv[piv] = inv[piv], inv[k]
        pinv = grid[k][k].inverse()
        grid[k] = [e * pinv for e in grid[k]]
        inv[k] = [e * pinv for e in inv[k]]
        for i in range(n):
            if i == k:
                continue
            f = grid[i][k].normalized()
            if f.is_zero():
                end = f.abs_prec
                grid[i] = [grid[i][j].trimmed(end + grid[k][j].shift)
                           for j in range(n)]
                inv[i] = [inv[i][j].trimmed(end + inv[k][j].shift)
                          for j in range(n)]
                continue
            grid[i] = [grid[i][j] - f * grid[k][j] for j in range(n)]
            inv[i] = [inv[i][j] - f * inv[k][j] for j in range(n)]
    for i in range(n):
        for j in range(n):
            inv[i][j] = inv[i][j].shifted(-col_v[i] - row_v[j]).normalized()
    shift = min([0] + [e.valuation() for row in inv for e in row
                       if e.valuation() is not None])
    out_prec = min(e.abs_prec for row in inv for e in row) - shift
    if out_prec < 1:
        raise PrecisionExhausted("matrix inverse lost all precision")
    return tuple(tuple(inv[i][j].shifted(-shift).to_truncated(out_prec)
                       for i in range(n)) for j in range(n)), shift


def outcome(fn, *args):
    try:
        return fn(*args)
    except (PrecisionExhausted, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def laurent_inverse_inputs(draw):
    """A square matrix of raw series over F2, F3, F4 or F9 with common
    t powers in rows and columns and, often, two columns that agree to
    a high power of t (a large elementary divisor)."""
    fq = draw(st.sampled_from([F2, F3, F4, F9]))
    n = draw(st.integers(1, 3))
    width = draw(st.integers(2, 12))
    digit = st.integers(0, fq.q - 1)
    cols = [[draw(st.lists(digit, min_size=width, max_size=width))
             for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        # invertible mod t before the scalings below
        for j in range(n):
            for i in range(n):
                cols[j][i][0] = draw(st.integers(1, fq.q - 1)) if i == j else 0
    if n > 1 and draw(st.booleans()):
        e = draw(st.integers(1, width))
        cols[1] = [a[:e] + b[e:] for a, b in zip(cols[0], cols[1])]
    shifts = st.lists(st.integers(0, width // 3), min_size=n, max_size=n)
    row_shift = draw(shifts)
    col_shift = draw(shifts)
    mat = tuple(tuple(tuple(([0] * (row_shift[i] + col_shift[j])
                             + cols[j][i])[:width]) for i in range(n))
                for j in range(n))
    return fq, mat, draw(st.integers(1, width + 2))


@settings(max_examples=400, deadline=None)
@given(laurent_inverse_inputs())
def test_laurent_matrix_inverse_matches_laurent_series_elimination(case):
    fq, mat, precision = case
    want = outcome(reference_laurent_inverse, fq, mat, precision)
    assert outcome(laurent_matrix_inverse, fq, mat, precision) == want


def inverse_residual_window(fq, cols, inv_cols, shift):
    """Check M * M^-1 = I, with M^-1 = t^shift * inv_cols, on every
    digit the product knows: each entry is a LaurentSeries sum of
    products of normalized operands, so its window is exactly what the
    stored windows determine.  Returns the least end of those windows."""
    n = len(cols)
    least = None
    for i in range(n):
        for j in range(n):
            acc = None
            for k in range(n):
                term = (LaurentSeries(fq, 0, cols[k][i]).normalized()
                        * LaurentSeries(fq, shift, inv_cols[j][k]).normalized())
                acc = term if acc is None else acc + term
            want = (LaurentSeries.one if i == j else LaurentSeries.zero)(
                fq, acc.abs_prec + 1)
            assert acc.agrees_with(want), (i, j)
            least = acc.abs_prec if least is None else min(least, acc.abs_prec)
    return least


def test_laurent_matrix_inverse_normalizes_its_multipliers():
    # Over F_2 at 5 digits, a multiplier with known leading zeros that is
    # left unnormalized costs its rows those digits, and the inversion
    # runs out of precision; normalized, it keeps enough for the product
    # with M to reach the constant digit of the identity.
    cols = (((0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (1, 0, 0, 0, 1)),
            ((0, 0, 1, 0, 0), (1, 0, 0, 0, 0), (1, 0, 1, 1, 0)),
            ((1, 1, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 0)))
    inv_cols, shift = laurent_matrix_inverse(F2, cols, 5)
    assert inverse_residual_window(F2, cols, inv_cols, shift) >= 1


@pytest.mark.parametrize("cols, precision", [
    ((((0, 1, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 1, 0, 1)),
      ((0, 0, 0, 1, 0), (0, 0, 0, 1, 1), (0, 0, 0, 0, 1)),
      ((0, 1, 0, 1, 1), (0, 0, 0, 0, 1), (0, 0, 1, 1, 1))), 5),
    ((((0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 1, 0, 0)),
      ((1, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0, 0), (0, 0, 1, 0, 0, 0, 1)),
      ((1, 1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1, 1), (0, 0, 0, 1, 0, 0, 0))),
     7),
])
def test_laurent_matrix_inverse_zero_multiplier_tail_costs_digits(
        cols, precision):
    # A multiplier that is zero to its window is not known to be zero:
    # its unknown digits, times the pivot row, limit what the other rows
    # know.  Skipping it returned digits that M * M^-1 = I contradicts.
    try:
        inv_cols, shift = laurent_matrix_inverse(F2, cols, precision)
    except PrecisionExhausted:
        return
    inverse_residual_window(F2, cols, inv_cols, shift)


def test_laurent_matrix_inverse_windows_are_known():
    # seeded sparse 2x2 and 3x3 matrices over F_2 and F_3
    rng = random.Random(20)
    inverted = 0
    for _ in range(1500):
        fq = rng.choice((F2, F3))
        n = rng.randint(2, 3)
        width = rng.randint(3, 8)
        cols = tuple(tuple(tuple(rng.randrange(1, fq.q)
                                 if rng.random() < 0.3 else 0
                                 for _ in range(width)) for _ in range(n))
                     for _ in range(n))
        try:
            inv_cols, shift = laurent_matrix_inverse(fq, cols, width)
        except (PrecisionExhausted, ValueError):
            continue
        inverse_residual_window(fq, cols, inv_cols, shift)
        inverted += 1
    assert inverted > 1000


def test_trace_dual_of_cusp_order():
    order = CuspOrder(F5)
    dual = trace_dual_lattice(order.r_lattice, order.trace_gram_columns,
                              order.precision)
    # R^* = O + t^{-3} g O
    assert dual.scale == -3
    assert dual.diag == (3, 0)
    assert dual.off == ((), ((0, 0, 0),))
    # biduality
    back = trace_dual_lattice(dual, order.trace_gram_columns,
                              order.precision)
    assert back == order.r_lattice


def test_dual_negates_relative_lengths():
    order = CuspOrder(F5)
    m1 = order.r_lattice
    m2 = order.o_e_lattice
    d1 = trace_dual_lattice(m1, order.trace_gram_columns, order.precision)
    d2 = trace_dual_lattice(m2, order.trace_gram_columns, order.precision)
    assert relative_length(m2, m1) == 1
    assert relative_length(d1, d2) == 1


@pytest.mark.parametrize("q,f", [
    ("2", "X^2+t^2*X+t^3"), ("2", "X^2+t^3*X+t^5"), ("2", "X^3-t^4"),
    ("3", "X^2-t^3"), ("3", "X^2-t^5"), ("2^2:u^2+u+1", "X^2+t*X"),
    ("5", "X^2-t^3"), ("5", "(X-t)*(X-t^3)"), ("9", "X^2-t^3")])
def test_trace_dual_commutes_with_scaling_and_its_cache(q, f):
    """The dual basis is cached per shape, Gram matrix and precision,
    without the scale: on the per-class golden orders, the dual of t^k M
    computed from an empty cache is t^-k times the dual of M read from
    a warm one, and the cached generators are immutable tuples."""
    fq = parse_field(q)
    order = build_order(fq, parse_xpoly(fq, f))
    gram, prec = order.trace_gram_columns, order.precision
    for m in (order.r_lattice, order.o_e_lattice, order.conductor_lattice,
              *sandwich_representatives(order)):
        trace_dual_lattice(m, gram, prec)
        warm = trace_dual_lattice(m, gram, prec)
        for k in range(-2, 4):
            _dual_basis.cache_clear()
            assert trace_dual_lattice(m.shifted(k), gram, prec) == \
                warm.shifted(-k)
        tcols, _ = _dual_basis(fq, m.diag, m.off, gram, prec)
        assert type(tcols) is tuple
        assert all(type(e) is tuple for col in tcols for e in (col, *col))


def test_colon_lattice_split_components():
    order = SplitAlgebraOrder(F3)
    a = hnf_from_generators(
        F3, [vec([(0, 0, 1), ()], 14), vec([(), (0, 1)], 14)], 2)
    # a = t^2 O x t O
    b = identity_lattice(F3, 2, scale=1)   # t O x t O
    got = colon_lattice(a, b, order.multiply_vectors,
                        order.trace_gram_columns, order.precision)
    # (t^2 O x t O : t O x t O) = t O x O
    want = hnf_from_generators(
        F3, [vec([(0, 1), ()], 14), vec([(), (1,)], 14)], 2)
    assert got == want


def test_product_and_element_scaled_lattice():
    order = SplitAlgebraOrder(F3)
    a = identity_lattice(F3, 2, scale=2)
    b = identity_lattice(F3, 2, scale=-1)
    assert product_lattice(a, b, order.multiply_vectors,
                           order.precision) == identity_lattice(F3, 2, 1)
    x = (pad((0, 1), 14), pad((1,), 14))     # (t, 1)
    got = element_scaled_lattice(x, 0, identity_lattice(F3, 2),
                                 order.multiply_vectors, order.precision)
    want = hnf_from_generators(
        F3, [vec([(0, 1), ()], 14), vec([(), (1,)], 14)], 2)
    assert got == want


# ---------------------------------------------------------------------------
# brute-force oracle for the stable sublattice enumerator
# ---------------------------------------------------------------------------

def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def stable_sublattices(base, j, ambient_mats):
    """The stable sublattices of `base` of colength exactly j, composed
    into ambient coordinates, in the documented order."""
    level = stable_sublattice_levels(base, j, ambient_mats)[j]
    return sorted((compose_lattice(base, rel) for rel in level),
                  key=LatticeHNF.sort_key)


def brute_stable_sublattices(fq, n, j, ambient_mats, precision):
    """Every colength-j sublattice of O^n by shape and digit search,
    kept when each action image of each basis column is a member."""
    found = []
    for shape in compositions(j, n):
        positions = [(i, jj) for jj in range(n) for i in range(jj)
                     if shape[i] > 0]
        ranges = [range(fq.q ** shape[i]) for (i, jj) in positions]
        for combo in iproduct(*ranges):
            off = [[() for _ in range(jj)] for jj in range(n)]
            for jj in range(n):
                for i in range(jj):
                    off[jj][i] = (0,) * shape[i]
            for (i, jj), code in zip(positions, combo):
                digits = []
                c = code
                for _ in range(shape[i]):
                    digits.append(c % fq.q)
                    c //= fq.q
                off[jj][i] = tuple(digits)
            cand = hnf_from_generators(
                fq,
                pad_exact(LatticeHNF(fq, 0, shape, tuple(
                    tuple(col) for col in off)).columns(j + 2), n),
                n)
            ok = True
            for mat in ambient_mats:
                for col in cand.columns(j + 2):
                    image = []
                    for i in range(n):
                        acc = (0,) * (j + 2 + precision)
                        for k in range(n):
                            acc = ser_add(fq, acc,
                                          ser_mul(fq, col[k], mat[k][i],
                                                  j + 2 + precision))
                        image.append(acc)
                    if not cand.contains_vector(tuple(image), cand.scale):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found.append(cand)
    found.sort(key=LatticeHNF.sort_key)
    return found


def test_enumerator_matches_brute_force_cusp():
    for fq in (F2, F3):
        order = CuspOrder(fq)
        levels = stable_sublattice_levels(
            identity_lattice(fq, 2), 4, order.action_matrices)
        q = fq.q
        assert [len(lv) for lv in levels] == [1, 1, q + 1, q + 1, q + 1]
        for j in range(5):
            brute = brute_stable_sublattices(fq, 2, j, order.action_matrices,
                                             order.precision)
            composed = stable_sublattices(identity_lattice(fq, 2), j,
                                          order.action_matrices)
            assert composed == brute


def test_enumerator_matches_brute_force_node():
    for fq in (F2, F3):
        order = NodeOrder(fq)
        q = fq.q
        # base O x O: every line mod t is stable under u = (t, 0)
        levels = stable_sublattice_levels(
            identity_lattice(fq, 2), 3, order.action_matrices)
        assert [len(lv) for lv in levels] == [1, q + 1, 2 * q + 1, 3 * q + 1]
        for j in range(4):
            brute = brute_stable_sublattices(fq, 2, j, order.action_matrices,
                                             order.precision)
            composed = stable_sublattices(identity_lattice(fq, 2), j,
                                          order.action_matrices)
            assert composed == brute


def test_node_order_lattice_colength_counts():
    # sublattices of R itself: colength generating function
    # (1 - t + q t^2) / (1 - t)^2 = 1 + t + (1+q) t^2 + (1+2q) t^3 + ...
    for fq in (F2, F3, F5):
        order = NodeOrder(fq)
        r = hnf_from_generators(
            fq, [vec([(1,), (1,)], 12), vec([(0, 1), ()], 12)], 2)
        levels = stable_sublattice_levels(r, 3, order.action_matrices)
        q = fq.q
        assert [len(lv) for lv in levels] == [1, 1, q + 1, 2 * q + 1]
        for j, level in enumerate(levels):
            for rel in level:
                lat = compose_lattice(r, rel)
                assert r.contains_lattice(lat)
                assert relative_length(r, lat) == j


def test_enumerator_matches_brute_force_three_lines():
    fq = F2
    n = 3
    prec = 12
    mats = []
    for idx in (1, 2):
        cols = []
        for jj in range(n):
            col = [pad((), prec)] * n
            if jj == idx:
                col = list(col)
                col[idx] = pad((0, 1), prec)
            cols.append(tuple(col))
        mats.append(tuple(cols))
    mats = tuple(mats)
    levels = stable_sublattice_levels(identity_lattice(fq, n), 3, mats)
    assert len(levels[1]) == fq.q ** 2 + fq.q + 1
    for j in range(4):
        brute = brute_stable_sublattices(fq, n, j, mats, prec)
        composed = stable_sublattices(identity_lattice(fq, n), j, mats)
        assert composed == brute


def test_unconstrained_sublattices_of_plane():
    # scalars only: all colength-1 sublattices of O^2, in the documented
    # order
    got = stable_sublattices(identity_lattice(F2, 2), 1,
                             scalar_action(F2, 2, 4))
    assert len(got) == 3
    assert [h.key for h in got] == [
        (0, (1, 0), ((), ((0,),))),
        (0, (1, 0), ((), ((1,),))),
        (0, (0, 1), ((), ((),))),
    ]


def test_enumeration_ceiling_guard():
    with pytest.raises(CeilingExceeded):
        stable_sublattice_levels(identity_lattice(F3, 2), 2,
                                 scalar_action(F3, 2, 5), ceiling=1)
    assert enumeration_ceiling(500) == 500
    assert enumeration_ceiling() == 10 ** 8


def test_action_precision_guard():
    order = CuspOrder(F3)
    short = tuple(tuple(tuple(e[:3]) for e in col) for col in
                  order.action_matrices[0])
    with pytest.raises(PrecisionExhausted,
                       match=r"need 9 digits of the action matrices, have 3 "
                             r".*jmax=6 .*diagonal \(0, 0\)"):
        stable_sublattice_levels(identity_lattice(F3, 2), 6, (short,))


def enumerator_key(rel):
    """The (diag, off) that the enumerator decodes from the packed key of
    a lattice it returns: the canonical form with its scale multiplied
    back in."""
    s = rel.scale
    return (tuple(a + s for a in rel.diag),
            tuple(tuple((0,) * s + d for d in col) for col in rel.off))


@pytest.mark.parametrize("make", [
    lambda: n_lines_order(F2, 3),
    lambda: build_order(F2, ((0, 0, 0, 0, 0, 1), (), (), (1,))),  # X^3-t^5
], ids=["lines3", "X^3-t^5"])
def test_relative_action_is_the_child_action_mod_t(make):
    order = make()
    fq = order.fq
    n = order.n
    mats = order.action_matrices
    prec = min(len(e) for m in mats for col in m for e in col)
    jmax = 5
    for base in (order.r_lattice, order.dual_r_lattice):
        # the full action in base coordinates, and the enumerator's copy of
        # it, cut to jmax + 2 digits
        full = _action_on_lattice(fq, base, mats, prec)
        root_mats = tuple(tuple(tuple(e[:jmax + 2] for e in col)
                                for col in mat) for mat in full)
        levels = stable_sublattice_levels(base, jmax, mats)
        assert len(levels[jmax - 1]) > 1
        for level in levels[:jmax]:
            for rel in level:
                key = enumerator_key(rel)
                child = LatticeHNF(fq, 0, *key)
                ccols = child.columns(prec)
                want = [[[None] * n for _ in range(n)] for _ in full]
                for g, amat in enumerate(full):
                    entries = _nonzero_entries(amat)
                    for j, c in enumerate(ccols):
                        image = mat_vec(fq, entries, c, prec)
                        y = solve_in_basis(child, image)
                        assert y is not None
                        for i in range(n):
                            want[g][i][j] = y[i][0]
                got = _relative_action(
                    fq, [_nonzero_entries(m) for m in root_mats], *key,
                    jmax + 2)
                assert got == tuple(tuple(map(tuple, rows)) for rows in want)


def test_enumeration_memory_is_bounded(monkeypatch):
    # the jmax-13 enumeration that variant_zeta runs on the order lattice
    # of three lines over F_2 returns 2,198 lattices; its peak of
    # traced memory is about 1.3 MB now that each lattice is kept as one
    # packed bytes key and the levels decode on access, 2.4 MB with
    # (diag, off) tuple keys and eagerly built output, and 9.0 MB when
    # each node kept its full action matrices (Python 3.11)
    order = n_lines_order(F2, 3)
    tracemalloc.start()
    try:
        levels = stable_sublattice_levels(order.r_lattice, 13,
                                          order.action_matrices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, levels)) == 2198
    assert peak < 2_000_000
    # a caller that only counts builds no lattice objects
    built = []
    init = LatticeHNF.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(LatticeHNF, "__init__", counting_init)
    counts = quot_series(order)
    assert sum(counts) == 564
    assert not built


def test_levels_decode_lazily_in_the_documented_order():
    # unconstrained levels mix scales (t^k * O^n sits beside lattices of
    # scale 0) and diagonals with leading zero digits; three lines over
    # F_2 has a nontrivial action
    order = n_lines_order(F2, 3)
    cases = [(identity_lattice(F3, 2), 4, scalar_action(F3, 2, 7)),
             (identity_lattice(F2, 3), 3, scalar_action(F2, 3, 6)),
             (order.dual_r_lattice, 6, order.action_matrices)]
    for base, jmax, mats in cases:
        levels = stable_sublattice_levels(base, jmax, mats)
        assert len(levels) == jmax + 1
        for j, level in enumerate(levels):
            lats = list(level)
            assert len(lats) == len(level) > 0
            assert lats == sorted(lats, key=LatticeHNF.sort_key)
            assert lats == sorted(lats, key=base_q_sort_key)
            assert len(set(lats)) == len(lats)
            assert all(relative_length(identity_lattice(base.fq, base.n),
                                       lat) == j for lat in lats)
            assert [level[k] for k in range(len(level))] == lats
            assert level[-1] == lats[-1]
            with pytest.raises(IndexError):
                level[len(level)]
    assert any(lat.scale for level in stable_sublattice_levels(
        identity_lattice(F3, 2), 4, scalar_action(F3, 2, 7))
        for lat in level)


def base_q_sort_key(lat):
    """The documented order as a numeric key, kept as an oracle: the
    scale, the diagonal read from its last entry, then the off-diagonal
    digits read column by column as one base-q number, least significant
    digit first."""
    q = lat.fq.q
    num = 0
    power = 1
    for j in range(lat.n):
        for i in range(j):
            for d in lat.off[j][i]:
                num += d * power
                power *= q
    return (lat.scale, tuple(reversed(lat.diag)), num)


@pytest.mark.parametrize("same_diagonal", [True, False])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sort_key_orders_like_the_base_q_number(same_diagonal, data):
    fq = data.draw(st.sampled_from((F2, F3, F5, F9)))
    n = data.draw(st.integers(1, 3))
    shapes = st.lists(st.integers(0, 3), min_size=n, max_size=n)

    def draw_lattice(shape, scale):
        # a zero on the diagonal makes the form primitive, so canonical
        diag = tuple(a - min(shape) for a in shape)
        off = tuple(tuple(tuple(data.draw(st.lists(
            st.integers(0, fq.q - 1), min_size=diag[i], max_size=diag[i])))
            for i in range(j)) for j in range(n))
        return LatticeHNF(fq, scale, diag, off)

    shape = data.draw(shapes)
    lats = set()
    for _ in range(data.draw(st.integers(2, 8))):
        if same_diagonal:
            lats.add(draw_lattice(shape, 0))
        else:
            lats.add(draw_lattice(data.draw(shapes),
                                  data.draw(st.integers(-1, 1))))
    lats = list(lats)
    assert (sorted(lats, key=LatticeHNF.sort_key)
            == sorted(lats, key=base_q_sort_key))


def test_diagonal_exponents_above_one_byte():
    # jmax 300 needs two bytes per diagonal exponent in the packed keys
    levels = stable_sublattice_levels(identity_lattice(F2, 1), 300,
                                      scalar_action(F2, 1, 303))
    assert len(levels) == 301
    assert all(len(level) == 1 for level in levels)
    assert [level[0] for level in levels] == [
        identity_lattice(F2, 1, scale=j) for j in range(301)]
    assert levels[300][0].scale == 300


# ---------------------------------------------------------------------------
# class counting, homothety, multiplier rings
# ---------------------------------------------------------------------------

def test_class_count_maximal_order_is_one():
    assert class_count_mod_lambda(SplitAlgebraOrder(F3)) == 1
    assert class_count_mod_lambda(SplitAlgebraOrder(F5)) == 1


def test_class_count_node():
    assert class_count_mod_lambda(NodeOrder(F3)) == 3
    assert class_count_mod_lambda(NodeOrder(F5)) == 5


def test_class_count_cusp():
    assert class_count_mod_lambda(CuspOrder(F3)) == 4
    assert class_count_mod_lambda(CuspOrder(F5)) == 6


def test_class_count_stable_under_window_enlargement():
    order = NodeOrder(F3)
    count = class_count_mod_lambda(order)
    deeper = NodeOrder(F3)
    deeper.conductor_lattice = order.conductor_lattice.shifted(1)
    assert class_count_mod_lambda(deeper) == count


def multiplier_ring(m, order):
    """End(M) = (M : M), a ring between the order and its normalization."""
    return colon_lattice(m, m, order.multiply_vectors,
                         order.trace_gram_columns, order.precision)


def test_exactly_one_node_representative_has_maximal_multiplier_ring():
    order = NodeOrder(F3)
    reps = sandwich_representatives(order)
    assert len(reps) == 3
    ends = [multiplier_ring(m, order) for m in reps]
    assert sum(1 for e in ends if e == order.o_e_lattice) == 1
    for e in ends:
        assert e.contains_lattice(hnf_from_generators(
            F3, [vec([(1,), (1,)], 14), vec([(0, 1), ()], 14)], 2))


def test_multiplier_ring_of_order_lattices():
    order = CuspOrder(F5)
    assert multiplier_ring(order.r_lattice, order) == order.r_lattice
    assert multiplier_ring(order.o_e_lattice, order) == order.o_e_lattice


def test_homothety_identity_and_scaling():
    order = CuspOrder(F5)
    r = order.r_lattice
    got = is_homothetic(r, r, order)
    assert got is not None
    x, scale = got
    assert element_scaled_lattice(x, scale, r, order.multiply_vectors,
                                  order.precision) == r
    got = is_homothetic(r, r.shifted(1), order)
    assert got is not None
    x, scale = got
    assert element_scaled_lattice(x, scale, r, order.multiply_vectors,
                                  order.precision) == r.shifted(1)


def test_homothety_distinguishes_cusp_classes():
    order = CuspOrder(F5)
    r = order.r_lattice
    # the maximal ideal (t, g) equals t * O_E, so it is homothetic to the
    # normalization but not to R itself
    m = hnf_from_generators(
        F5, [vec([(0, 1), ()], 16), vec([(), (1,)], 16)], 2)
    assert is_homothetic(r, m, order) is None
    got = is_homothetic(order.o_e_lattice, m, order)
    assert got is not None
    x, scale = got
    assert element_scaled_lattice(x, scale, order.o_e_lattice,
                                  order.multiply_vectors,
                                  order.precision) == m


def test_homothety_in_split_algebra_respects_components():
    order = SplitAlgebraOrder(F3)
    a = hnf_from_generators(
        F3, [vec([(0, 1), ()], 14), vec([(), (1,)], 14)], 2)
    b = hnf_from_generators(
        F3, [vec([(1,), ()], 14), vec([(), (0, 1)], 14)], 2)
    # (t,1) * O^2 = a and (1,t) * O^2 = b: both homothetic to O^2
    assert is_homothetic(identity_lattice(F3, 2), a, order) is not None
    assert is_homothetic(identity_lattice(F3, 2), b, order) is not None
    # a and b are homothetic to each other via (1/t, t): the witness has
    # a genuine denominator, carried by the scale
    got = is_homothetic(a, b, order)
    assert got is not None
    x, scale = got
    assert element_scaled_lattice(x, scale, a, order.multiply_vectors,
                                  order.precision) == b


def reference_homothety(m1, m2, order):
    """The homothety scan with n products and a full-precision Hermite
    form per candidate, the bilinear scan of is_homothetic unrolled."""
    fq = order.fq
    n = m1.n
    prec = order.precision
    colon = colon_lattice(m2, m1, order.multiply_vectors,
                          order.trace_gram_columns, prec)
    ccols = colon.columns(prec)
    c1 = m1.columns(prec)
    for counter in range(1, fq.q ** n):
        coords = [counter // fq.q ** j % fq.q for j in range(n)]
        x = [(0,) * prec for _ in range(n)]
        for j in range(n):
            for i in range(n):
                x[i] = ser_add(fq, x[i], ser_scale(fq, coords[j],
                                                   ccols[j][i]))
        x = tuple(x)
        gens = [order.multiply_vectors(x, v, prec) for v in c1]
        try:
            cand = hnf_from_generators(fq, gens, n,
                                       scale=colon.scale + m1.scale)
        except (RankDeficient, PrecisionExhausted):
            continue
        if cand == m2:
            return x, colon.scale
    return None


@pytest.mark.parametrize("q,f", [
    ("3", "X^2-t^5"), ("5", "(X-t)*(X-t^3)"), ("2", "X^3-t^4"),
    ("2^2:u^2+u+1", "X^2+t*X")])
def test_homothety_matches_the_full_precision_scan(q, f):
    fq = parse_field(q)
    order = build_order(fq, parse_xpoly(fq, f))
    reps = sandwich_representatives(order)
    hits = 0
    for m1 in reps:
        for m2 in reps:
            got = is_homothetic(m1, m2, order)
            assert got == reference_homothety(m1, m2, order)
            hits += got is not None
    # every class is found from each of its members, and not all pairs
    # are in one class
    assert len(reps) <= hits < len(reps) ** 2
