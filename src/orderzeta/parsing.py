"""Text forms for fields, field elements, polynomials, and order
descriptions.

The expression grammar accepts integers, the names u (generator of an
extension field), t (the series variable), and X (the polynomial
variable), with + - * ^ and parentheses.  Multiplication may be implicit
("2t^3" means 2*t^3).  Exponents are nonnegative integers, except that a
bare t may carry a negative exponent; such Laurent monomials survive
parsing so that validation can reject them with a pointed message.  The
modulus of a field spec "p^e:modulus" is read with the same grammar over
F_p, with u as its variable and t and X undefined.

Printers emit one canonical spelling per value, so format(parse(s)) is a
normal form and round-trips byte for byte.
"""

from __future__ import annotations

from .errors import NonIntegralInput, ParseError
from .fq import Fq, FqSpec, prime_power
from .polynomials import up_trim, xp_trim


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
# parser producing {(x_degree, t_degree): element_code} monomial dicts
# ---------------------------------------------------------------------------

class _Parser:
    """Recursive descent over the tokens; `names` maps each defined
    variable to its monomial dict, and `where` says, in the message for
    any other name, where that name is undefined."""

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
        mono = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input at position {pos}")
        return mono

    def expr(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            acc = _mneg(self.fq, self.term())
        else:
            acc = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                if val == "-":
                    rhs = _mneg(self.fq, rhs)
                acc = _madd(self.fq, acc, rhs)
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                acc = _mmul(self.fq, acc, self.factor())
            elif kind in ("int", "name") or (kind == "op" and val == "("):
                acc = _mmul(self.fq, acc, self.factor())
            else:
                return acc

    def factor(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return _mneg(self.fq, self.factor())
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
                return {(0, k): 1}
            return _mpow(self.fq, base, k)
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            c = self.fq.from_int(val)
            return ({(0, 0): c} if c else {}), None
        if kind == "name":
            if val not in self.names:
                raise ParseError(
                    f"{val} is undefined {self.where} (position {pos})")
            return dict(self.names[val]), val
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner, None
        raise ParseError(f"unexpected token at position {pos}")


def _madd(fq, a, b):
    out = dict(a)
    for key, c in b.items():
        s = fq.add(out.get(key, 0), c)
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out

def _mneg(fq, a):
    return {key: fq.neg(c) for key, c in a.items()}

def _mmul(fq, a, b):
    out = {}
    for (xa, ta), ca in a.items():
        for (xb, tb), cb in b.items():
            key = (xa + xb, ta + tb)
            s = fq.add(out.get(key, 0), fq.mul(ca, cb))
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out

def _mpow(fq, a, k):
    out = {(0, 0): 1}
    base = a
    while k:
        if k & 1:
            out = _mmul(fq, out, base)
        base = _mmul(fq, base, base)
        k >>= 1
    return out


# ---------------------------------------------------------------------------
# public parse entry points
# ---------------------------------------------------------------------------

def parse_monomials(fq, text):
    """Parse to a raw monomial dict, Laurent t-exponents permitted."""
    names = {"t": {(0, 1): 1}, "X": {(1, 0): 1}}
    if fq.e > 1:
        names["u"] = {(0, 0): fq.gen}
    return _Parser(fq, tokenize(text), names, "over a prime field").parse()


def mono_to_xpoly(fq, mono):
    """Convert a monomial dict to an exact X-polynomial over F_q[t].

    Rejects negative t-exponents: the input must lie in the integers of
    the field, not merely in the field.
    """
    bad = sorted((t, x) for (x, t) in mono if t < 0)
    if bad:
        t, x = bad[0]
        where = f"X^{x}*t^{t}" if x else f"t^{t}"
        raise NonIntegralInput(
            f"coefficient term {where} has a pole at t = 0; "
            "clear denominators (substitute X -> t^k X and rescale) and retry")
    if not mono:
        return ()
    xdeg = max(x for (x, _) in mono)
    cols = [[0] * (1 + max((t for (x, t) in mono if x == i), default=0))
            for i in range(xdeg + 1)]
    for (x, t), c in mono.items():
        cols[x][t] = c
    return xp_trim([up_trim(col) for col in cols])


def parse_xpoly(fq, text):
    """Parse a polynomial in X over F_q[t], rejecting Laurent input."""
    return mono_to_xpoly(fq, parse_monomials(fq, text))


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
            return Fq(FqSpec(p, e))
        fp = Fq(FqSpec(p))
        # u takes the place of t, so the modulus reads as a constant in X
        modulus = mono_to_xpoly(fp, _Parser(
            fp, tokenize(modtext), {"u": {(0, 1): 1}},
            "in a field modulus").parse())
        return Fq(FqSpec(p, e, modulus[0] if modulus else ()))
    try:
        n = int(text)
    except ValueError:
        raise ParseError(f"bad field spec {text!r}") from None
    power = prime_power(n) if n >= 2 else None
    if power is None:
        raise ParseError(f"{text!r} is not a prime power")
    return Fq(FqSpec(*power))


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
    spec = fq.spec
    if spec.e == 1:
        return str(spec.p)
    return f"{spec.p}^{spec.e}:{_u_poly_text(spec.modulus)}"


def format_element(fq, code):
    """Canonical text of one element: an integer or a u-polynomial."""
    return _u_poly_text(fq.decode(code))


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
