"""Truncated series kernels, and the Laurent series oracle, against
naive references."""

import pytest
from hypothesis import given, settings, strategies as st

from orderzeta.errors import PrecisionExhausted
from orderzeta.fq import Fq, FqSpec
from orderzeta.series import (ser_add, ser_mul, ser_neg, ser_pad, ser_scale,
                              ser_sub, ser_unit_inv, ser_val)

from laurent_oracle import LaurentSeries

F3 = Fq(FqSpec.parse("3"))
F4 = Fq(FqSpec.parse("4"))
F5 = Fq(FqSpec.parse("5"))


def _naive_mul_prime(a, b, p, n):
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def test_ser_pad_pads_and_truncates():
    assert ser_pad((1, 2), 5) == (1, 2, 0, 0, 0)
    assert ser_pad((1, 2, 1, 1, 1, 1), 3) == (1, 2, 1)


def test_precision_drops_to_minimum_under_arithmetic():
    a = ser_pad((1, 1, 1), 8)
    b = ser_pad((2, 3), 4)
    assert len(ser_add(F5, a, b)) == 4
    assert len(ser_mul(F5, a, b)) == 4


def test_valuation_sentinel():
    assert ser_val((0,) * 6) is None
    assert ser_val(ser_pad((0, 0, 0, 0, 1), 6)) == 4
    assert ser_val((0, 0, 0)) is None


def test_geometric_series_inverse_over_f2():
    f2 = Fq(FqSpec.parse("2"))
    one_minus_t = ser_pad((1, 1), 10)              # 1 + t = 1 - t
    inv = ser_unit_inv(f2, one_minus_t)
    assert inv == (1,) * 10
    assert ser_mul(f2, one_minus_t, inv) == (1,) + (0,) * 9


def test_unit_inverse_round_trip_over_f9():
    f9 = Fq(FqSpec.parse("9"))
    a = ser_pad((3, 1, 7, 0, 2), 12)
    assert ser_mul(f9, a, ser_unit_inv(f9, a)) == ser_pad((1,), 12)


def test_agrees_with_compares_common_prefix():
    a = LaurentSeries(F3, 0, (1, 2, 1))
    b = LaurentSeries(F3, 0, (1, 2, 1, 2, 0, 0))
    assert a.agrees_with(b)
    assert not a.agrees_with(LaurentSeries(F3, 0, (2, 0, 0)))


def test_laurent_inverse_with_pole():
    x = LaurentSeries(F3, 2, (1, 1, 0, 0, 0, 0))  # t^2 * (1 + t)
    inv = x.inverse()
    assert inv.valuation() == -2
    prod = x * inv
    assert prod.valuation() == 0
    assert prod.coeffs[ser_val(prod.coeffs)] == 1
    one = LaurentSeries.one(F3, prod.abs_prec)
    assert prod.agrees_with(one)


def test_laurent_to_truncated_rejects_poles():
    x = LaurentSeries(F3, -1, (2, 1, 0, 0))
    with pytest.raises(PrecisionExhausted):
        x.to_truncated(3)
    y = LaurentSeries(F3, -1, (0, 1, 2, 0, 0))
    assert y.to_truncated(3) == (1, 2, 0)


def test_laurent_inverse_of_apparent_zero_is_refused():
    z = LaurentSeries.zero(F3, 5)
    with pytest.raises(PrecisionExhausted):
        z.inverse()


def test_laurent_addition_aligns_windows():
    a = LaurentSeries(F3, -2, (1, 0, 1, 0, 0, 0))   # t^-2 + 1 + O(t^4)
    b = LaurentSeries(F3, 0, (2, 2, 0, 0))           # 2 + 2t + O(t^4)
    s = a + b
    assert s.valuation() == -2
    # the t^0 digit is 1 + 2 = 0 over F_3
    window = {s.shift + i: c for i, c in enumerate(s.coeffs)}
    assert window[-2] == 1 and window[0] == 0 and window[1] == 2


@settings(max_examples=80, deadline=None)
@given(
    a=st.lists(st.integers(0, 4), min_size=6, max_size=6),
    b=st.lists(st.integers(0, 4), min_size=6, max_size=6),
    c=st.lists(st.integers(0, 4), min_size=6, max_size=6),
)
def test_ring_axioms_and_naive_product_over_f5(a, b, c):
    n = 6
    a, b, c = tuple(a), tuple(b), tuple(c)
    ab = ser_mul(F5, a, b)
    assert ab == _naive_mul_prime(a, b, 5, n)
    assert ab == ser_mul(F5, b, a)
    assert ser_mul(F5, ser_add(F5, a, b), c) == \
        ser_add(F5, ser_mul(F5, a, c), ser_mul(F5, b, c))
    assert not any(ser_sub(F5, a, a))
    if a[0] != 0:
        assert ser_mul(F5, a, ser_unit_inv(F5, a)) == (1,) + (0,) * (n - 1)


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.integers(0, 3), min_size=5, max_size=5),
    b=st.lists(st.integers(0, 3), min_size=5, max_size=5),
)
def test_extension_field_products_associate_with_raw_kernel(a, b):
    a, b = tuple(a), tuple(b)
    ab = ser_mul(F4, a, b)
    assert ab == ser_mul(F4, b, a)
    assert ser_mul(F4, ab, a) == ser_mul(F4, a, ser_mul(F4, b, a))
    if a[0]:
        inv = ser_unit_inv(F4, a)
        assert ser_mul(F4, a, inv)[0] == 1
        assert ser_val(ser_mul(F4, a, inv)[1:]) is None


# ---------------------------------------------------------------------------
# raw kernels against digit-by-digit references
# ---------------------------------------------------------------------------

KERNEL_FIELDS = {q: Fq(FqSpec.parse(q)) for q in ("2", "5", "4", "9")}


@st.composite
def _series(draw, q, unit=False):
    """A digit tuple of length 0..12 (1..12 for a unit) that is constant,
    sparse (at most three nonzero digits) or dense."""
    n = draw(st.integers(1 if unit else 0, 12))
    kind = draw(st.sampled_from(("constant", "sparse", "dense")))
    digits = [0] * n
    if kind == "dense":
        digits = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    elif n and kind == "sparse":
        for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            digits[i] = draw(st.integers(1, q - 1))
    elif n:
        digits[0] = draw(st.integers(0, q - 1))
    if unit and not digits[0]:
        digits[0] = draw(st.integers(1, q - 1))
    return tuple(digits)


@st.composite
def _field_and_pair(draw):
    fq = draw(st.sampled_from(list(KERNEL_FIELDS.values())))
    return fq, draw(_series(fq.q)), draw(_series(fq.q))


@st.composite
def _field_and_unit(draw):
    fq = draw(st.sampled_from(list(KERNEL_FIELDS.values())))
    return fq, draw(_series(fq.q, unit=True))


def _ref_mul(fq, a, b, n):
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] = fq.add(out[i + j], fq.mul(x, y))
    return tuple(out)


def _ref_unit_inv(fq, a):
    # solve a * x = 1 digit by digit: sum_{i<=k} a[i] x[k-i] = [k == 0]
    x = []
    for k in range(len(a)):
        acc = 1 if k == 0 else 0
        for i in range(1, k + 1):
            acc = fq.sub(acc, fq.mul(a[i], x[k - i]))
        x.append(fq.mul(fq.inv(a[0]), acc))
    return tuple(x)


@settings(max_examples=300, deadline=None)
@given(data=_field_and_pair(), c=st.integers(0, 8))
def test_digitwise_kernels_match_references(data, c):
    fq, a, b = data
    c %= fq.q
    pairs = list(zip(a, b))                  # the shorter input decides
    assert ser_add(fq, a, b) == tuple(fq.add(x, y) for x, y in pairs)
    assert ser_sub(fq, a, b) == tuple(fq.sub(x, y) for x, y in pairs)
    assert ser_neg(fq, a) == tuple(fq.neg(x) for x in a)
    assert ser_scale(fq, c, a) == tuple(fq.mul(c, x) for x in a)


@settings(max_examples=300, deadline=None)
@given(data=_field_and_pair(), extra=st.integers(-3, 4))
def test_ser_mul_matches_schoolbook(data, extra):
    fq, a, b = data
    assert ser_mul(fq, a, b) == _ref_mul(fq, a, b, min(len(a), len(b)))
    n = max(0, min(len(a), len(b)) + extra)
    assert ser_mul(fq, a, b, n) == _ref_mul(fq, a, b, n)
    # a window wider than both inputs holds the whole polynomial product
    n = len(a) + len(b) + extra + 4
    assert ser_mul(fq, a, b, n) == _ref_mul(fq, a, b, n)


@settings(max_examples=300, deadline=None)
@given(data=_field_and_unit())
def test_ser_unit_inv_matches_digitwise_solve(data):
    fq, a = data
    inv = ser_unit_inv(fq, a)
    assert inv == _ref_unit_inv(fq, a)
    assert ser_mul(fq, a, inv) == (1,) + (0,) * (len(a) - 1)


@pytest.mark.parametrize("q", sorted(KERNEL_FIELDS))
def test_ser_unit_inv_rejects_non_units(q):
    fq = KERNEL_FIELDS[q]
    for a in ((), (0,), (0, 1, 1)):
        with pytest.raises(ZeroDivisionError):
            ser_unit_inv(fq, a)
