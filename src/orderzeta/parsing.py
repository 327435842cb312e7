"""Text forms for fields, field elements, polynomials, and order
descriptions.

The expression grammar accepts integers, the names u (generator of an
extension field), t (the series variable), and X (the polynomial
variable), with + - * ^ and parentheses.  Multiplication may be implicit
("2t^3" means 2*t^3).  Exponents are nonnegative integers, except that a
bare t may carry a negative exponent.  The parser evaluates straight to
X-polynomials: each value is a pair (pole, f) standing for t^-pole * f,
so a pole can cancel or be cleared by a product, and one final
conversion rejects any pole left with a pointed message.  The modulus
of a field spec "p^e:modulus" is read with the same grammar over F_p,
with u as its variable and t and X undefined.

Printers emit one canonical spelling per value, so format(parse(s)) is a
normal form and round-trips byte for byte.
"""

from __future__ import annotations

from .errors import NonIntegralInput, ParseError
from .fq import Fq, prime_power
from .polynomials import up_scale, up_trim, xp_add, xp_mul, xp_trim


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_OPS = set("+-*^()")


def tokenize(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            out.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch in ("u", "t", "X"):
            out.append(("name", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}")
    out.append(("end", None, n))
    return out


# ---------------------------------------------------------------------------
# parser evaluating to (pole, X-polynomial) pairs
# ---------------------------------------------------------------------------

def _t_power(k):
    """The X-polynomial t^k."""
    return ((0,) * k + (1,),)


class _Parser:
    """Recursive descent over the tokens.  Each value is a pair
    (pole, f) standing for t^-pole * f with f an X-polynomial over
    F_q[t]; `names` maps each defined variable to its value, and `where`
    says, in the message for any other name, where that name is
    undefined."""

    def __init__(self, fq, tokens, names, where):
        self.fq = fq
        self.toks = tokens
        self.pos = 0
        self.names = names
        self.where = where

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, ch):
        kind, val, pos = self.take()
        if kind != "op" or val != ch:
            raise ParseError(f"expected {ch!r} at position {pos}")

    def parse(self):
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input at position {pos}")
        return value

    def neg(self, value):
        minus_one = self.fq.neg(1)
        return value[0], tuple(up_scale(self.fq, minus_one, c)
                               for c in value[1])

    def add(self, a, b):
        pole = max(a[0], b[0])
        fq = self.fq
        return pole, xp_add(fq, xp_mul(fq, a[1], _t_power(pole - a[0])),
                            xp_mul(fq, b[1], _t_power(pole - b[0])))

    def mul(self, a, b):
        return a[0] + b[0], xp_mul(self.fq, a[1], b[1])

    def expr(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            acc = self.neg(self.term())
        else:
            acc = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                if val == "-":
                    rhs = self.neg(rhs)
                acc = self.add(acc, rhs)
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                acc = self.mul(acc, self.factor())
            elif kind in ("int", "name") or (kind == "op" and val == "("):
                acc = self.mul(acc, self.factor())
            else:
                return acc

    def factor(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return self.neg(self.factor())
        base, base_name = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            sign = 1
            kind, val, pos = self.peek()
            if kind == "op" and val == "-":
                self.take()
                sign = -1
            kind, val, pos = self.take()
            if kind != "int":
                raise ParseError(f"expected an integer exponent at position {pos}")
            k = sign * val
            if k < 0:
                if base_name != "t":
                    raise ParseError(
                        f"negative exponent is only allowed on t (position {pos})")
                return -k, _t_power(0)
            out = (0, _t_power(0))
            while k:
                if k & 1:
                    out = self.mul(out, base)
                base = self.mul(base, base)
                k >>= 1
            return out
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            return (0, xp_trim([(self.fq.from_int(val),)])), None
        if kind == "name":
            if val not in self.names:
                raise ParseError(
                    f"{val} is undefined {self.where} (position {pos})")
            return self.names[val], val
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner, None
        raise ParseError(f"unexpected token at position {pos}")


def _integral(value):
    """The X-polynomial t^-pole * f of a parsed value (pole, f).

    Rejects negative t-exponents, naming the term with the lowest t
    exponent and then the lowest X power: the input must lie in the
    integers of the field, not merely in the field.
    """
    pole, f = value
    bad = [(j - pole, x) for x, c in enumerate(f)
           for j, d in enumerate(c[:pole]) if d]
    if bad:
        t, x = min(bad)
        where = f"X^{x}*t^{t}" if x else f"t^{t}"
        raise NonIntegralInput(
            f"coefficient term {where} has a pole at t = 0; "
            "clear denominators (substitute X -> t^k X and rescale) and retry")
    return xp_trim(c[pole:] for c in f)


# ---------------------------------------------------------------------------
# public parse entry points
# ---------------------------------------------------------------------------

def parse_xpoly(fq, text):
    """Parse a polynomial in X over F_q[t], rejecting Laurent input."""
    names = {"t": (0, _t_power(1)), "X": (0, ((), (1,)))}
    if fq.e > 1:
        names["u"] = (0, ((fq.gen,),))
    return _integral(_Parser(fq, tokenize(text), names,
                             "over a prime field").parse())


def parse_field(text):
    """The field context of a spec: a prime power such as "9" (factored,
    with the lexicographically smallest monic irreducible modulus), "p^e",
    or "p^e:modulus" with the modulus a polynomial in u over F_p."""
    text = text.strip()
    head, colon, modtext = text.partition(":")
    if colon or "^" in head:
        ptext, caret, etext = head.partition("^")
        if not caret:
            raise ParseError(f"bad field spec {text!r}: expected p^e before ':'")
        try:
            p, e = int(ptext), int(etext)
        except ValueError:
            raise ParseError(f"bad field spec {text!r}") from None
        if not colon:
            return Fq(p, e)
        fp = Fq(p)
        # u takes the place of t, so the modulus reads as a constant in X
        modulus = _integral(_Parser(
            fp, tokenize(modtext), {"u": (0, _t_power(1))},
            "in a field modulus").parse())
        return Fq(p, e, modulus[0] if modulus else ())
    try:
        n = int(text)
    except ValueError:
        raise ParseError(f"bad field spec {text!r}") from None
    power = prime_power(n) if n >= 2 else None
    if power is None:
        raise ParseError(f"{text!r} is not a prime power")
    return Fq(*power)


# ---------------------------------------------------------------------------
# canonical printers
# ---------------------------------------------------------------------------

def _u_poly_text(coeffs):
    """Canonical text of a polynomial in u over F_p, descending powers:
    the one spelling of field elements and of field moduli."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        power = "u" if i == 1 else f"u^{i}"
        terms.append(str(c) if i == 0 else power if c == 1 else f"{c}*{power}")
    return "+".join(terms) or "0"


def format_field(fq):
    """Canonical spec of a field: "p" for a prime field, "p^e:modulus"
    otherwise; parse_field reads it back to the same field."""
    if fq.e == 1:
        return str(fq.p)
    return f"{fq.p}^{fq.e}:{_u_poly_text(fq.modulus)}"


def format_element(fq, code):
    """Canonical text of one element: an integer or a u-polynomial."""
    return _u_poly_text(fq._decode(code))


def _coeff_text(fq, code, wrap):
    s = format_element(fq, code)
    if wrap and "+" in s:
        return f"({s})"
    return s


def format_tpoly(fq, tp):
    """Canonical text of an exact F_q[t] polynomial, ascending powers."""
    tp = up_trim(tp)
    if not tp:
        return "0"
    parts = []
    for j, c in enumerate(tp):
        if c == 0:
            continue
        if j == 0:
            parts.append(_coeff_text(fq, c, wrap=True))
        else:
            pw = "t" if j == 1 else f"t^{j}"
            parts.append(pw if c == 1 else f"{_coeff_text(fq, c, wrap=True)}*{pw}")
    return " + ".join(parts)


def format_xpoly(fq, xp):
    """Canonical text of an X-polynomial, descending X powers."""
    xp = xp_trim(xp)
    if not xp:
        return "0"
    parts = []
    for i in range(len(xp) - 1, -1, -1):
        tp = xp[i]
        if not tp:
            continue
        if i == 0:
            parts.append(format_tpoly(fq, tp))
            continue
        xs = "X" if i == 1 else f"X^{i}"
        nonzero = [j for j, c in enumerate(tp) if c]
        if tp == (1,):
            parts.append(xs)
        elif len(nonzero) == 1:
            j = nonzero[0]
            c = tp[j]
            pw = "" if j == 0 else ("t" if j == 1 else f"t^{j}")
            bits = []
            if c != 1 or not pw:
                bits.append(_coeff_text(fq, c, wrap=True))
            if pw:
                bits.append(pw)
            bits.append(xs)
            parts.append("*".join(bits))
        else:
            parts.append(f"({format_tpoly(fq, tp)})*{xs}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# order description files
# ---------------------------------------------------------------------------

def parse_order_description(text):
    """Parse a key = value description of an order.

    Recognised keys: q (required), f (required), factors (optional,
    semicolon-separated), precision (optional integer; build_order
    rejects one below 1).
    Returns a dict with keys fq, f, factors, precision.
    """
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in ("q", "f", "factors", "precision"):
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ParseError(f"line {lineno}: empty value for {key!r}")
        seen[key] = value
    if "q" not in seen:
        raise ParseError("missing required key 'q'")
    if "f" not in seen:
        raise ParseError("missing required key 'f'")
    fq = parse_field(seen["q"])
    f = parse_xpoly(fq, seen["f"])
    factors = None
    if "factors" in seen:
        factors = [parse_xpoly(fq, part) for part in seen["factors"].split(";")]
    precision = None
    if "precision" in seen:
        try:
            precision = int(seen["precision"])
        except ValueError:
            raise ParseError("precision must be an integer") from None
    return {"fq": fq, "f": f, "factors": factors, "precision": precision}


def format_order_description(fq, f, factors=None, precision=None):
    """Canonical text for an order description; inverse of the parser."""
    lines = [f"q = {format_field(fq)}", f"f = {format_xpoly(fq, f)}"]
    if factors is not None:
        lines.append("factors = " + "; ".join(format_xpoly(fq, g) for g in factors))
    if precision is not None:
        lines.append(f"precision = {precision}")
    return "\n".join(lines) + "\n"
