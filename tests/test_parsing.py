"""Expression grammar, canonical printers, and description files."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orderzeta.cli import main
from orderzeta.errors import NonIntegralInput, ParseError
from orderzeta.fq import Fq, find_irreducible
from orderzeta.parsing import (format_field, format_order_description,
                               format_tpoly, format_xpoly, parse_field,
                               parse_order_description, parse_xpoly)
from orderzeta.polynomials import xp_trim

F2 = parse_field("2")
F3 = parse_field("3")
F4 = parse_field("4")
F5 = parse_field("5")
F9 = parse_field("9")


def test_basic_x_polynomial():
    assert parse_xpoly(F3, "X^2 - t^3") == (((0, 0, 0, 2)), (), (1,))
    assert parse_xpoly(F3, "X^2 + 2*t^3") == parse_xpoly(F3, "X^2 - t^3")


def test_extension_coefficients():
    assert parse_xpoly(F4, "(u+1)*t^2") == ((0, 0, 3),)
    assert parse_xpoly(F9, "u + 2*t") == ((3, 2),)
    assert parse_xpoly(F9, "X^2 - u") == ((6,), (), (1,))


def test_implicit_multiplication_and_signs():
    assert parse_xpoly(F5, "2t^3") == ((0, 0, 0, 2),)
    assert parse_xpoly(F3, "-t") == ((0, 2),)
    assert parse_xpoly(F3, "- t + t") == ()
    assert parse_xpoly(F3, "(X - t)(X + t)") == parse_xpoly(F3, "X^2 - t^2")


def test_constant_reduction_mod_p():
    assert parse_xpoly(F3, "4") == ((1,),)
    assert parse_xpoly(F3, "3*t") == ()
    assert parse_xpoly(F2, "7 + 2*t") == ((1,),)


def test_parenthesised_powers():
    assert parse_xpoly(F3, "(X + t)^2") == parse_xpoly(F3, "X^2 + 2*t*X + t^2")
    assert parse_xpoly(F4, "(u+1)^2") == parse_xpoly(F4, "u")  # (u+1)^2 = u


def test_laurent_monomials_survive_raw_parse_but_fail_validation():
    # a parsed value carries its pole to the final conversion, which
    # names the term with the lowest t exponent, then the lowest X power
    for text, term in [("X^2 - t^-1", "t^-1"),
                       ("t^-2 * X + 1", "X^1*t^-2"),
                       ("t^-2 + X*t^-1", "t^-2"),
                       ("X*t^-2 + X^2*t^-2 + t^-1", "X^1*t^-2"),
                       ("(t^-1)^2*X", "X^1*t^-2")]:
        with pytest.raises(NonIntegralInput) as info:
            parse_xpoly(F3, text)
        assert str(info.value) == (
            f"coefficient term {term} has a pole at t = 0; clear "
            "denominators (substitute X -> t^k X and rescale) and retry")


def test_poles_that_cancel_or_clear_are_accepted():
    want = parse_xpoly(F3, "X^2 - t^3")
    assert parse_xpoly(F3, "X^2 - t^3 + t^-1 - t^-1") == want
    assert parse_xpoly(F3, "t^-1*t*X^2 - t^3") == want
    assert parse_xpoly(F3, "t^-2*(t^2*X^2 - t^5)") == want
    assert parse_xpoly(F3, "t^-0") == ((1,),)


def test_parse_errors():
    for bad in ["X +", "(t", "t)", "y", "t^^2", "^2", "t^-2^3", "*t", ""]:
        with pytest.raises(ParseError):
            parse_xpoly(F3, bad)
    with pytest.raises(ParseError):
        parse_xpoly(F3, "X^-1")          # negative power only allowed on t
    with pytest.raises(ParseError):
        parse_xpoly(F3, "(X+1)^-1")
    with pytest.raises(ParseError):
        parse_xpoly(F3, "u + 1")         # u undefined over a prime field


def test_canonical_printing_examples():
    assert format_xpoly(F3, parse_xpoly(F3, "X^2 - t^3")) == "X^2 + 2*t^3"
    assert format_xpoly(F3, parse_xpoly(F3, "X^2 + t*X + 1")) == "X^2 + t*X + 1"
    assert format_xpoly(F4, parse_xpoly(F4, "X + (u+1)*t^2")) == "X + (u+1)*t^2"
    assert format_xpoly(F3, parse_xpoly(F3, "(1 + t^2)*X^3 + X")) == "(1 + t^2)*X^3 + X"
    assert format_xpoly(F3, ()) == "0"
    assert format_tpoly(F5, (3, 0, 1)) == "3 + t^2"


def test_printer_is_a_normal_form():
    texts = [
        "X^2 - t^3",
        "X^3 + t*X^2 + (t + t^4)*X + 2",
        "(X - t)*(X - t^2)",
        "t^5 + 2*t + 1",
        "X^4 + (2 + t^3)*X^2 + 1 + 2*t^3 + t^6",
    ]
    for text in texts:
        xp = parse_xpoly(F3, text)
        canon = format_xpoly(F3, xp)
        assert parse_xpoly(F3, canon) == xp
        assert format_xpoly(F3, parse_xpoly(F3, canon)) == canon


@settings(max_examples=60, deadline=None)
@given(
    cols=st.lists(
        st.lists(st.integers(0, 8), min_size=0, max_size=4),
        min_size=0, max_size=4,
    )
)
def test_round_trip_over_f9(cols):
    from orderzeta.polynomials import up_trim
    xp = xp_trim([up_trim(c) for c in cols])
    canon = format_xpoly(F9, xp)
    assert parse_xpoly(F9, canon) == xp


def test_order_description_round_trip():
    text = (
        "# sample description\n"
        "q = 3\n"
        "f = (X - t) * (X^2 - t^3)   # factored on purpose\n"
        "factors = X - t; X^2 - t^3\n"
        "precision = 24\n"
    )
    desc = parse_order_description(text)
    assert desc["fq"] is F3
    assert desc["precision"] == 24
    assert len(desc["factors"]) == 2
    canon = format_order_description(F3, desc["f"], desc["factors"], desc["precision"])
    again = parse_order_description(canon)
    assert again["f"] == desc["f"]
    assert again["factors"] == desc["factors"]
    assert format_order_description(F3, again["f"], again["factors"],
                                    again["precision"]) == canon


def test_order_description_optional_keys():
    desc = parse_order_description("q = 2^2:u^2+u+1\nf = X^2 - u\n")
    assert desc["fq"] is F4
    assert desc["factors"] is None
    assert desc["precision"] is None


def test_order_description_errors():
    with pytest.raises(ParseError):
        parse_order_description("f = X^2 - t\n")              # missing q
    with pytest.raises(ParseError):
        parse_order_description("q = 3\n")                    # missing f
    with pytest.raises(ParseError):
        parse_order_description("q = 3\nq = 5\nf = X\n")      # duplicate
    with pytest.raises(ParseError):
        parse_order_description("q = 3\nf = X\nbogus = 1\n")  # unknown key
    with pytest.raises(ParseError):
        parse_order_description("q = 3\nf = X\nprecision = zero\n")
    with pytest.raises(ParseError):
        parse_order_description("q = 3\nf\n")


# ---------------------------------------------------------------------------
# field specs
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"


def _is_prime_power(n):
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


def test_field_specs_round_trip(monkeypatch):
    # every field the tables allow, and the explicit moduli of the golden
    # corpus; a scratch cache drops the large tables after the test
    monkeypatch.setattr(Fq, "_cache", dict(Fq._cache))
    golden = {json.loads(path.read_text(encoding="utf-8")).get("q_spec")
              for path in GOLDEN.glob("*.json")} - {None}
    assert {"2^2:u^2+u+1", "3^2:u^2+1"} <= golden
    texts = [str(q) for q in range(2, 257) if _is_prime_power(q)]
    assert len(texts) == 70
    for text in texts + sorted(golden):
        fq = parse_field(text)
        assert parse_field(format_field(fq)) is fq
        if ":" not in text:
            assert fq.q == int(text)
    assert format_field(parse_field("9")) == "3^2:u^2+1"
    assert format_field(parse_field("7")) == "7"
    # a prime field has one spec, whatever linear modulus it is given
    assert parse_field("3^1:u+1") is parse_field("3") is parse_field("3^1")


def test_default_moduli_are_the_smallest_irreducibles():
    for q, (p, e) in {4: (2, 2), 8: (2, 3), 9: (3, 2)}.items():
        assert parse_field(str(q)).modulus == find_irreducible(p, e)
    assert format_field(parse_field("8")) == "2^3:u^3+u+1"


def test_modulus_uses_the_expression_grammar():
    assert parse_field("2^2:u*u + u + 1") is F4
    assert parse_field("3^2: (u + 1)^2 - 2u") is F9      # u^2 + 1
    assert parse_field("3^2:u^2 + 4") is F9              # 4 = 1 mod 3
    assert parse_field("3^2:u^2+1").modulus == (1, 0, 1)


@pytest.mark.parametrize("text", ["2^2:u^2+t", "2^2:X^2+1", "2^2:", "3^2:u^"])
def test_malformed_modulus_exits_2(text, capsys):
    with pytest.raises(ParseError):
        parse_field(text)
    assert main(["analyze", "--q", text, "--f", "X^2 - t^3"]) == 2
    assert capsys.readouterr().out == ""


def test_reducible_modulus_exits_3(capsys):
    assert main(["analyze", "--q", "2^2:u^2+1", "--f", "X^2 - t^3"]) == 3
    assert "reducible" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["3^1:u^2+1", "3^2:u^3+1"])
def test_modulus_of_the_wrong_degree_exits_3(text, capsys):
    # also for e = 1, where any linear modulus stands for u
    assert main(["analyze", "--q", text, "--f", "X^2 - t^3"]) == 3
    assert capsys.readouterr().err == \
        "error: modulus must be monic of degree e\n"


def test_field_spec_messages():
    cases = [("6", "'6' is not a prime power"),
             ("banana", "bad field spec 'banana'"),
             ("4:u^2+u+1", "bad field spec '4:u^2+u+1': expected p^e "
                           "before ':'"),
             ("2^2:u^2+t", "t is undefined in a field modulus "
                           "(position 4)")]
    for text, message in cases:
        with pytest.raises(ParseError) as info:
            parse_field(text)
        assert str(info.value) == message
    with pytest.raises(ParseError) as info:
        parse_xpoly(F3, "u + 1")
    assert str(info.value) == "u is undefined over a prime field (position 0)"
