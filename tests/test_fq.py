"""Finite field contexts checked against hand-computed tables and axioms."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import orderzeta.fq
from orderzeta.cli import main
from orderzeta.errors import ParseError, PreconditionViolated
from orderzeta.fq import (Fq, FqSpec, embedding, find_irreducible,
                          prime_power)
from orderzeta.parsing import parse_field


def power(fq, a, k):
    """a^k in fq by square and multiply, for k >= 0."""
    out = 1
    while k:
        if k & 1:
            out = fq.mul(out, a)
        a = fq.mul(a, a)
        k >>= 1
    return out


def test_f4_multiplication_table_by_hand():
    # codes: 0, 1, u = 2, u+1 = 3 with u^2 + u + 1 = 0
    f4 = parse_field("4")
    expected = [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
    ]
    assert f4._mul == [list(r) for r in expected] or \
        [list(row) for row in f4._mul] == expected


def test_f8_powers_of_generator():
    f8 = parse_field("8")  # u^3 = u + 1
    u = f8.gen
    assert u == 2
    assert f8.mul(u, u) == 4          # u^2
    assert power(f8, u, 3) == 3       # u + 1
    assert power(f8, u, 4) == 6       # u^2 + u
    assert power(f8, u, 7) == 1       # multiplicative order 7


def test_f9_square_of_generator_is_minus_one():
    f9 = parse_field("9")  # u^2 + 1 = 0
    u = f9.gen
    assert u == 3
    assert f9.mul(u, u) == 2          # -1 over F_3
    one_plus_u = f9.add(1, u)
    assert f9.mul(one_plus_u, one_plus_u) == 6   # (1+u)^2 = 2u


def test_f5_inverses():
    f5 = parse_field("5")
    assert f5.inv(2) == 3
    assert f5.inv(4) == 4
    assert f5.mul(2, 3) == 1
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)


def test_from_int_reduces_mod_p():
    f3 = parse_field("3")
    assert f3.from_int(7) == 1
    assert f3.from_int(-1) == 2
    f9 = parse_field("9")
    assert f9.from_int(5) == 2


def test_context_is_cached():
    assert parse_field("7") is parse_field("7")
    assert parse_field("2^2:u^2+u+1") is parse_field("4")


def test_table_cap_refuses_huge_fields():
    with pytest.raises(PreconditionViolated):
        Fq(FqSpec(2, 13))


def test_table_cap_refuses_q_257_before_building_tables(capsys):
    # the tables of F_257 would take megabytes; the refusal allocates a
    # few hundred bytes, and the CLI maps it to exit 3
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionViolated, match="257"):
            Fq(FqSpec(257))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64_000
    assert main(["analyze", "--q", "257", "--f", "X^2 - t^3"]) == 3
    assert "exceeds the desk-scale table cap 256" in capsys.readouterr().err


def test_table_cap_comes_before_the_modulus_search(monkeypatch, capsys):
    # the search for a modulus of degree 40 would run for minutes
    def search(p, deg):
        raise AssertionError(f"searched a modulus of degree {deg}")
    monkeypatch.setattr(orderzeta.fq, "find_irreducible", search)
    with pytest.raises(PreconditionViolated, match="table cap"):
        parse_field("2^40")
    with pytest.raises(PreconditionViolated, match="size 3\\^100000 "):
        parse_field("3^100000")
    assert main(["analyze", "--q", "3^30", "--f", "X^2 - t^3"]) == 3
    assert "exceeds the desk-scale table cap 256" in capsys.readouterr().err


# a 31-digit prime: trial division up to its square root takes 10^15 steps
BIG_PRIME = "1000000000000000000000000000057"


@pytest.mark.parametrize("spec", [BIG_PRIME, f"{BIG_PRIME}^1",
                                  f"{BIG_PRIME}^1:u"])
def test_large_prime_specs_exit_3_at_once(spec):
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-m", "orderzeta", "analyze", "--q", spec,
         "--f", "X^2-t^3"], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=5)
    assert run.returncode == 3
    assert run.stderr == (f"error: field size {BIG_PRIME} exceeds the "
                          "desk-scale table cap 256\n")


def test_prime_power_matches_trial_division():
    def by_trial_division(n):
        p = next(d for d in range(2, n + 1) if n % d == 0)   # a prime
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        return (p, e) if n == 1 else None
    for n in range(2, 5000):
        assert prime_power(n) == by_trial_division(n), n
    # strong pseudoprimes to the first 1, 4, 8 and 12 prime bases
    for n in (2047, 3215031751, 341550071728321, 318665857834031151167461):
        assert prime_power(n) is None
    assert prime_power(int(BIG_PRIME)) == (int(BIG_PRIME), 1)
    assert prime_power(int(BIG_PRIME) ** 6) == (int(BIG_PRIME), 6)
    assert prime_power(3 ** 500) == (3, 500)
    assert prime_power(2 ** 89 - 1) == (2 ** 89 - 1, 1)
    assert prime_power(6 ** 40) is None


def test_spec_rejects_non_prime_powers_and_bad_moduli():
    with pytest.raises(ParseError):
        parse_field("6")
    with pytest.raises(ParseError):
        parse_field("12")
    with pytest.raises(ParseError):
        parse_field("banana")
    with pytest.raises(PreconditionViolated):
        parse_field("2^2:u^2+1")  # (u+1)^2, reducible
    with pytest.raises(PreconditionViolated):
        FqSpec(4)


def test_find_irreducible_is_lex_smallest():
    assert find_irreducible(2, 2) == (1, 1, 1)
    assert find_irreducible(2, 4) == (1, 1, 0, 0, 1)


def base_p_digits(code, p, k):
    """The k base-p digits of code, least significant first."""
    return [code // p ** i % p for i in range(k)]


def remainder(a, m, p):
    """a modulo the monic m over F_p, by long division on integers."""
    a = list(a)
    while len(a) >= len(m):
        lead = a.pop() % p
        shift = len(a) - (len(m) - 1)
        for i, c in enumerate(m[:-1]):
            a[shift + i] -= lead * c
    return [c % p for c in a]


@pytest.mark.parametrize("p, e", [(p, e) for p in (2, 3, 5, 7)
                                  for e in range(1, 7) if p ** e <= 81])
def test_tables_match_schoolbook_arithmetic_mod_p(p, e):
    q = p ** e

    def monics(k):
        # increasing order of the code sum c_i p^i: lexicographic order
        return [base_p_digits(code, p, k) + [1] for code in range(p ** k)]

    def irreducible(m):
        return all(any(remainder(m, d, p))
                   for k in range(1, e // 2 + 1) for d in monics(k))

    fq = Fq(FqSpec(p, e))
    modulus = list(fq.spec.modulus)
    assert irreducible(modulus)
    assert modulus == next(m for m in monics(e) if irreducible(m))

    def code(poly):
        return sum(c % p * p ** i for i, c in enumerate(poly))

    for a in range(q):
        da = base_p_digits(a, p, e)
        for b in range(q):
            db = base_p_digits(b, p, e)
            product = [0] * (2 * e - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    product[i + j] += x * y
            assert fq._add[a][b] == code([x + y for x, y in zip(da, db)])
            assert fq._mul[a][b] == code(remainder(product, modulus, p))


def _hom_check(small, big):
    table = embedding(small, big)
    assert table[0] == 0 and table[1] == 1
    for a in range(small.q):
        for b in range(small.q):
            assert table[small.add(a, b)] == big.add(table[a], table[b])
            assert table[small.mul(a, b)] == big.mul(table[a], table[b])


def test_embedding_is_a_ring_homomorphism():
    _hom_check(parse_field("2"), parse_field("4"))
    _hom_check(parse_field("4"), parse_field("2^4:u^4+u+1"))
    _hom_check(parse_field("3"), parse_field("9"))


def test_embedding_of_prime_field_is_identity_on_codes():
    table = embedding(parse_field("3"), parse_field("9"))
    assert table[:3] == [0, 1, 2]


def test_embedding_rejects_incompatible_fields():
    with pytest.raises(PreconditionViolated):
        embedding(parse_field("4"), parse_field("8"))
    with pytest.raises(PreconditionViolated):
        embedding(parse_field("3"), parse_field("4"))


@pytest.mark.parametrize("qtext", ["2", "3", "4", "5", "7", "8", "9"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_axioms(qtext, data):
    fq = parse_field(qtext)
    q = fq.q
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert fq.add(a, b) == fq.add(b, a)
    assert fq.mul(a, b) == fq.mul(b, a)
    assert fq.add(fq.add(a, b), c) == fq.add(a, fq.add(b, c))
    assert fq.mul(fq.mul(a, b), c) == fq.mul(a, fq.mul(b, c))
    assert fq.mul(a, fq.add(b, c)) == fq.add(fq.mul(a, b), fq.mul(a, c))
    assert fq.add(a, fq.neg(a)) == 0
    assert fq.sub(a, b) == fq.add(a, fq.neg(b))
    if a:
        assert fq.mul(a, fq.inv(a)) == 1
        assert power(fq, a, q - 1) == 1
    # Frobenius is additive
    assert power(fq, fq.add(a, b), fq.p) == \
        fq.add(power(fq, a, fq.p), power(fq, b, fq.p))
