"""Polynomial layers: exact division, factoring, resultants, lifting."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from orderzeta.errors import PrecisionExhausted
from orderzeta.lattices import resultant_valuation
from orderzeta.parsing import parse_field
from orderzeta.polynomials import (BiPoly, IntPoly, hensel_split,
                                   monic_polys_over_fq, sp_mul, up_ext_euclid,
                                   up_divmod, up_factor, up_is_irreducible,
                                   up_mul, up_roots, up_sub, up_trim, xp_mul,
                                   xp_subst_x_shift)
from orderzeta.series import ser_mul, ser_pad, ser_scale, ser_val

from laurent_oracle import resultant_series
from resultant_oracle import resultant_exact

F2 = parse_field("2")
F3 = parse_field("3")
F4 = parse_field("4")
F5 = parse_field("5")
F9 = parse_field("9")


def windowed(f, w):
    """An exact X-polynomial as one with series coefficients of w digits."""
    return tuple(ser_pad(c, w) for c in f)


# ---------------------------------------------------------------------------
# univariate layer
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    a=st.lists(st.integers(0, 2), min_size=0, max_size=7),
    b=st.lists(st.integers(0, 2), min_size=1, max_size=4),
)
def test_euclidean_division_identity_over_f3(a, b):
    a = up_trim(a)
    b = up_trim(b)
    if not b:
        return
    q, r = up_divmod(F3, a, b)
    assert len(r) < len(b) or not r
    from orderzeta.polynomials import up_add
    assert up_add(F3, up_mul(F3, q, b), r) == a


def test_extended_euclid_bezout_identity():
    from orderzeta.polynomials import up_add
    f = (1, 0, 1)        # X^2 + 1 over F_2 = (X+1)^2
    g = (1, 1)           # X + 1
    d, u, v = up_ext_euclid(F2, f, g)
    assert d == (1, 1)
    assert up_add(F2, up_mul(F2, u, f), up_mul(F2, v, g)) == d
    # coprime case ends in 1
    d, u, v = up_ext_euclid(F3, (1, 0, 1), (2, 1))
    assert d == (1,)
    assert up_add(F3, up_mul(F3, u, (1, 0, 1)), up_mul(F3, v, (2, 1))) == (1,)


def test_monic_enumeration_counter_order():
    got = list(monic_polys_over_fq(F2, 2))
    assert got == [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]


def test_irreducibility_known_cases():
    assert up_is_irreducible(F2, (1, 1, 1))          # X^2+X+1
    assert not up_is_irreducible(F2, (1, 0, 1))      # (X+1)^2
    assert up_is_irreducible(F3, (1, 0, 1))          # X^2+1 over F_3
    assert not up_is_irreducible(F3, (0, 1, 1))      # X(X+1)
    assert up_is_irreducible(F5, (1, 1, 0, 1))       # X^3+X+1, no roots => irred
    assert not up_is_irreducible(F5, (2, 0, 0, 1))   # X^3+2 has the root 2


def test_factor_splits_completely_and_deterministically():
    # X^2 - 1 = (X+1)(X+4) over F_5; divisor of smaller counter code first
    assert up_factor(F5, (4, 0, 1)) == [((1, 1), 1), ((4, 1), 1)]
    # X^2 + 1 = (X+1)^2 over F_2
    assert up_factor(F2, (1, 0, 1)) == [((1, 1), 2)]
    # X^4 + X = X (X+1) (X^2+X+1) over F_2
    assert up_factor(F2, (0, 1, 0, 0, 1)) == [
        ((0, 1), 1), ((1, 1), 1), ((1, 1, 1), 1)]
    # irreducible stays whole
    assert up_factor(F3, (1, 0, 1)) == [((1, 0, 1), 1)]


def test_roots_ascending():
    assert up_roots(F5, (1, 0, 1)) == [2, 3]   # X^2 = -1
    assert up_roots(F3, (1, 1)) == [2]
    assert up_roots(F3, (1,)) == []


# ---------------------------------------------------------------------------
# X-polynomials over exact F_q[t]
# ---------------------------------------------------------------------------

def _x_minus(fq, a):
    return (up_sub(fq, (), a), (1,))


def test_shift_and_scale_substitutions():
    # (X+1)^2 over F_3
    f = ((), (), (1,))
    assert xp_subst_x_shift(F3, f, (1,)) == ((1,), (2,), (1,))


@settings(max_examples=40, deadline=None)
@given(
    avals=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                   min_size=1, max_size=2),
    bvals=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                   min_size=1, max_size=2),
)
def test_resultant_of_split_polynomials_is_root_difference_product(avals, bvals):
    fq = F5
    f = ((1,),)
    for a in avals:
        f = xp_mul(fq, f, _x_minus(fq, up_trim(a)))
    g = ((1,),)
    for b in bvals:
        g = xp_mul(fq, g, _x_minus(fq, up_trim(b)))
    expected = (1,)
    for a in avals:
        for b in bvals:
            expected = up_mul(fq, expected, up_sub(fq, up_trim(a), up_trim(b)))
    assert resultant_exact(fq, f, g) == up_trim(expected)


def test_resultant_shared_root_vanishes():
    f = xp_mul(F5, _x_minus(F5, (0, 1)), _x_minus(F5, (2,)))   # (X-t)(X-2)
    g = _x_minus(F5, (0, 1))                                    # X-t
    assert resultant_exact(F5, f, g) == ()


def test_resultant_multiplicative_in_first_argument():
    f1 = _x_minus(F5, (1, 1))
    f2 = ((0, 0, 3), (0, 1), (1,))   # X^2 + tX + 3t^2
    g = ((1, 2), (), (), (1,))       # X^3 + 2t + 1
    lhs = resultant_exact(F5, xp_mul(F5, f1, f2), g)
    rhs = up_mul(F5, resultant_exact(F5, f1, g), resultant_exact(F5, f2, g))
    assert lhs == rhs


def test_series_resultant_matches_exact_path():
    f = ((0, 0, 0, 2), (), (1,))      # X^2 - t^3 over F_3
    g = ((), (2,))                    # f' = 2X
    exact = resultant_exact(F3, f, g)
    fs, gs = windowed(f, 14), windowed(g, 14)
    assert resultant_valuation(F3, fs, gs) == ser_val(exact) == 3
    res = resultant_series(F3, fs, gs)
    k = min(res.abs_prec, 10)
    want = tuple(exact) + (0,) * (k - len(exact))
    assert res.to_truncated(k) == want[:k]


def test_series_resultant_refuses_invisible_pivot():
    # X^2 - t^5 at precision 3 looks like X^2; the resultant with 2X
    # is 2^2 * t^5 which is invisible, so no pivot can be certified.
    f = windowed(((0, 0, 0, 0, 0, 2), (), (1,)), 3)
    g = windowed(((), (2,)), 3)
    with pytest.raises(PrecisionExhausted):
        resultant_valuation(F3, f, g)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionExhausted as exc:
        return type(exc), str(exc)


def _derivative(fq, f):
    return tuple(ser_scale(fq, fq.from_int(i % fq.p), c)
                 for i, c in enumerate(f) if i)


@st.composite
def _monic_series_poly(draw, fq, w):
    """A monic X-polynomial of degree 1..4 with w-digit coefficients,
    each below the leading one starting at a drawn valuation 0..w (w
    being a coefficient that is zero to its window)."""
    deg = draw(st.integers(1, 4))
    digit = st.integers(0, fq.q - 1)
    coeffs = []
    for _ in range(deg):
        v = draw(st.integers(0, w))
        coeffs.append((0,) * v + tuple(draw(st.lists(
            digit, min_size=w - v, max_size=w - v))))
    return tuple(coeffs) + (ser_pad((1,), w),)


@st.composite
def _resultant_inputs(draw):
    fq = draw(st.sampled_from([F2, F3, F4, F9]))
    w = draw(st.integers(3, 16))
    f = draw(_monic_series_poly(fq, w))
    if draw(st.booleans()):
        return fq, f, _derivative(fq, f)
    return fq, f, draw(_monic_series_poly(fq, w))


@settings(max_examples=400, deadline=None)
@given(_resultant_inputs())
def test_resultant_valuation_matches_laurent_series_elimination(case):
    fq, f, g = case
    want = _outcome(lambda: resultant_series(fq, f, g).valuation())
    assert _outcome(resultant_valuation, fq, f, g) == want


def _completion_valuations(fq, f, g, rng, count):
    """Valuations of the exact resultants of `count` random completions
    of the series coefficients of f and g beyond their windows."""
    def complete(poly):
        return tuple(tuple(c) + tuple(rng.randrange(fq.q)
                                      for _ in range(3 * len(c)))
                     for c in poly)
    out = set()
    for _ in range(count):
        r = resultant_exact(fq, complete(f), complete(g))
        out.add(ser_val(r) if r else None)
    return out


@pytest.mark.parametrize("f, g", [
    (((0, 0, 0), (0, 0, 0), (1, 1, 1), (0, 1, 1)),
     ((1, 0, 1), (0, 0, 0), (1, 0, 0), (0, 1, 0))),
    (((1, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0)), ((1, 1, 0), (0, 1, 1))),
])
def test_resultant_zero_entry_tail_costs_digits(f, g):
    # Over F_2 at 3 digits: an entry below a pivot that is zero to its
    # window is not known to be zero, and its unknown digits reach the
    # rest of its row.  Skipping it certified valuation 3, while
    # completions of these inputs have resultants of valuation 4.
    assert 4 in _completion_valuations(F2, f, g, random.Random(0), 8)
    with pytest.raises(PrecisionExhausted):
        resultant_valuation(F2, f, g)


def test_resultant_valuation_holds_for_every_completion():
    # seeded X-polynomials of degree 1..3 over F_2 at 3..8 digits, their
    # leading coefficients units or of valuation 1
    rng = random.Random(3)
    certified = 0
    for _ in range(600):
        w = rng.randint(3, 8)

        def poly():
            body = tuple(tuple(int(rng.random() < 0.3) for _ in range(w))
                         for _ in range(rng.randint(1, 3)))
            lead = [rng.randint(0, 1) for _ in range(w)]
            lead[0], lead[1] = (1, lead[1]) if rng.random() < 0.5 else (0, 1)
            return body + (tuple(lead),)
        f, g = poly(), poly()
        try:
            v = resultant_valuation(F2, f, g)
        except PrecisionExhausted:
            continue
        if v is not None:
            assert _completion_valuations(F2, f, g, rng, 4) == {v}
            certified += 1
    assert certified > 300


def test_hensel_split_square_root_of_one_plus_t():
    # X^2 - (1+t) factors as (X-s)(X+s) with s^2 = 1+t over F_3
    prec = 16
    f = windowed(((2, 2), (), (1,)), prec)
    g, h = hensel_split(F3, f, (2, 1), (1, 1), prec)
    assert len(g) == 2 and len(h) == 2
    assert sp_mul(F3, g, h, prec) == f
    s = g[0]
    assert ser_mul(F3, s, s) == ser_pad((1, 1), prec)


def test_hensel_split_rejects_non_coprime():
    f = windowed(((0, 2), (), (1,)), 8)   # X^2 - t, bar = X^2
    with pytest.raises(ValueError):
        hensel_split(F3, f, (0, 1), (0, 1), 8)


# ---------------------------------------------------------------------------
# integer-coefficient polynomials
# ---------------------------------------------------------------------------

def test_int_poly_arithmetic_and_eval():
    from fractions import Fraction
    p = IntPoly((1, 0, 3))
    q = IntPoly((0, 1))
    assert (p * q).coeffs == (0, 1, 0, 3)
    assert (p + q - q).coeffs == p.coeffs
    assert p(2) == 13
    assert p(Fraction(1, 2)) == Fraction(7, 4)
    assert p(q) == p          # compose with identity
    assert (p - p).is_zero()


def test_int_poly_reversal_and_text():
    assert IntPoly((1, -2, 1)).text() == "t^2 - 2*t + 1"
    assert IntPoly().text() == "0"
    assert IntPoly((0, 1)).text(var="q") == "q"


def test_bipoly_specialisation_and_text():
    # (q - 2) * t + q^2
    b = BiPoly((IntPoly((0, 0, 1)), IntPoly((-2, 1))))
    assert b.at_q(3) == IntPoly((9, 1))
    assert b.at_q(2) == IntPoly((4,))
    assert "q" in b.text() and "t" in b.text()
    prod = b * b
    assert prod.at_q(5) == b.at_q(5) * b.at_q(5)
