"""Arithmetic in finite fields F_q, q = p^e, with an explicit modulus.

Elements are encoded as integers in [0, q): the base-p digits of the code
are the coefficients of the residue polynomial in the generator u, so the
prime subfield occupies codes 0..p-1 and the generator itself is code p.
An `Fq` context precomputes full operation tables, which keeps the series
and lattice layers free of per-element object overhead.  Products in an
extension field, and the modulus check and search, are polynomial
arithmetic over the prime field's own tables (polynomials.py).
"""

from __future__ import annotations

from .errors import ParseError, PreconditionViolated
from .polynomials import (monic_polys_over_fq, up_eval, up_is_irreducible,
                          up_mod, up_mul, up_roots)

# Every field builds full q^2-entry tables, whose cost grows as q^2: about
# 0.5 s at q = 256 and 2.5 s at q = 512 (Python 3.11, one Xeon core).  A
# larger field is refused before any table is built; a levi extension
# rebuild above the cap falls back to the base-field count.
_TABLE_CAP = 256

# Conventional moduli for the prime powers the battery uses.
_DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),        # u^2 + u + 1
    (2, 3): (1, 1, 0, 1),     # u^3 + u + 1
    (3, 2): (1, 0, 1),        # u^2 + 1
}


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def find_irreducible(p, deg):
    """Lexicographically smallest monic irreducible of given degree over F_p."""
    fp = Fq(FqSpec(p))
    return next(cand for cand in monic_polys_over_fq(fp, deg)
                if up_is_irreducible(fp, cand))


class FqSpec:
    """Description of a finite field: characteristic, degree, modulus.

    The modulus is a monic polynomial over F_p stored as a coefficient
    tuple (low degree first, length e+1).  For e = 1 it is (0, 1), i.e. u.
    """

    __slots__ = ("p", "e", "modulus")

    def __init__(self, p, e=1, modulus=None):
        if not _is_prime(p):
            raise PreconditionViolated(f"characteristic {p} is not prime")
        if e < 1:
            raise PreconditionViolated(f"extension degree {e} must be >= 1")
        if modulus is None:
            if e == 1:
                modulus = (0, 1)
            elif (p, e) in _DEFAULT_MODULI:
                modulus = _DEFAULT_MODULI[(p, e)]
            else:
                modulus = find_irreducible(p, e)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise PreconditionViolated("modulus must be monic of degree e")
        if e > 1 and not up_is_irreducible(Fq(FqSpec(p)), modulus):
            raise PreconditionViolated("modulus is reducible over F_p")
        self.p = p
        self.e = e
        self.modulus = modulus

    @property
    def q(self):
        return self.p ** self.e

    def __eq__(self, other):
        return (isinstance(other, FqSpec)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"FqSpec({self.to_text()!r})"

    def to_text(self):
        """Canonical text form: "p" for prime fields, "p^e:modulus" otherwise."""
        if self.e == 1:
            return str(self.p)
        terms = []
        for i in range(self.e, -1, -1):
            c = self.modulus[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                terms.append(f"{head}u" if i == 1 else f"{head}u^{i}")
        return f"{self.p}^{self.e}:" + "+".join(terms)

    @classmethod
    def parse(cls, text):
        """Inverse of to_text; also accepts a bare prime power like "9"."""
        text = text.strip()
        if ":" in text:
            head, modtext = text.split(":", 1)
            if "^" not in head:
                raise ParseError(f"bad field spec {text!r}: expected p^e before ':'")
            ptext, etext = head.split("^", 1)
            try:
                p, e = int(ptext), int(etext)
            except ValueError:
                raise ParseError(f"bad field spec {text!r}") from None
            coeffs = _parse_u_poly(modtext, p)
            return cls(p, e, coeffs)
        if "^" in text:
            ptext, etext = text.split("^", 1)
            try:
                return cls(int(ptext), int(etext))
            except ValueError:
                raise ParseError(f"bad field spec {text!r}") from None
        try:
            n = int(text)
        except ValueError:
            raise ParseError(f"bad field spec {text!r}") from None
        if _is_prime(n):
            return cls(n)
        # bare prime power: factor it
        for p in range(2, n + 1):
            if n % p == 0:
                if not _is_prime(p):
                    break
                e = 0
                m = n
                while m % p == 0:
                    m //= p
                    e += 1
                if m == 1:
                    return cls(p, e)
                break
        raise ParseError(f"{text!r} is not a prime power")


def _parse_u_poly(text, p):
    """Parse a sum of c*u^i terms into a dense coefficient tuple over F_p."""
    text = text.replace(" ", "")
    if not text:
        raise ParseError("empty modulus")
    # normalize leading sign and split on +/-
    terms = []
    cur = ""
    sign = 1
    for ch in text:
        if ch in "+-" and cur:
            terms.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif ch in "+-" and not cur:
            sign = sign if ch == "+" else -sign
        else:
            cur += ch
    if cur:
        terms.append((sign, cur))
    coeffs = {}
    for sign, term in terms:
        c = 1
        deg = 0
        for factor in term.split("*"):
            if not factor:
                raise ParseError(f"bad modulus term {term!r}")
            if factor.startswith("u"):
                if factor == "u":
                    deg += 1
                elif factor.startswith("u^"):
                    try:
                        deg += int(factor[2:])
                    except ValueError:
                        raise ParseError(f"bad modulus term {term!r}") from None
                else:
                    raise ParseError(f"bad modulus term {term!r}")
            else:
                try:
                    c *= int(factor)
                except ValueError:
                    raise ParseError(f"bad modulus term {term!r}") from None
        coeffs[deg] = (coeffs.get(deg, 0) + sign * c) % p
    top = max(coeffs)
    return tuple(coeffs.get(i, 0) for i in range(top + 1))


class Fq:
    """Operation-table context for one finite field.

    Codes are ints in [0, q).  All the series/lattice arithmetic funnels
    through `add`/`sub`/`mul`/`neg`/`inv` lookups on this object.
    """

    _cache = {}

    def __new__(cls, spec):
        inst = cls._cache.get(spec)
        if inst is not None:
            return inst
        inst = super().__new__(cls)
        inst._init(spec)
        cls._cache[spec] = inst
        return inst

    def _init(self, spec):
        p, e, q = spec.p, spec.e, spec.q
        if q > _TABLE_CAP:
            raise PreconditionViolated(
                f"field size {q} exceeds the desk-scale table cap {_TABLE_CAP}")
        self.spec = spec
        self.p = p
        self.e = e
        self.q = q
        self.zero = 0
        self.one = 1
        self.gen = p if e > 1 else 1  # class of u, or just 1 in a prime field

        def decode(code):
            digits = []
            for _ in range(e):
                digits.append(code % p)
                code //= p
            return tuple(digits)

        def encode(digits):
            code = 0
            for d in reversed(digits):
                code = code * p + (d % p)
            return code

        self._decode = decode

        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        neg = [0] * q
        fp = Fq(FqSpec(p)) if e > 1 else None
        for a in range(q):
            da = decode(a)
            neg[a] = encode(tuple((-x) % p for x in da))
            for b in range(a, q):
                db = decode(b)
                s = encode(tuple((x + y) % p for x, y in zip(da, db)))
                add[a][b] = s
                add[b][a] = s
                if fp is None:
                    m = a * b % p
                else:
                    m = encode(up_mod(fp, up_mul(fp, da, db), spec.modulus))
                mul[a][b] = m
                mul[b][a] = m
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a][b] == 1:
                    inv[a] = b
                    break
        self._add = add
        self._mul = mul
        self._neg = neg
        self._inv = inv
        self._sub = [[add[a][neg[b]] for b in range(q)] for a in range(q)]

    # -- scalar operations ------------------------------------------------

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._sub[a][b]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        return self._inv[a]

    def from_int(self, n):
        """Image of the rational integer n in the prime subfield."""
        return n % self.p

    def decode(self, code):
        """Base-p digit tuple (coefficients of the residue polynomial)."""
        return self._decode(code)

    def element_text(self, code):
        """Canonical text for one element: an integer or a u-polynomial."""
        if self.e == 1 or code < self.p:
            return str(code)
        digits = self._decode(code)
        terms = []
        for i in range(self.e - 1, -1, -1):
            c = digits[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("u" if c == 1 else f"{c}*u")
            else:
                terms.append(f"u^{i}" if c == 1 else f"{c}*u^{i}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return f"Fq({self.spec.to_text()})"


def embedding(small, big):
    """Map of element codes F_q -> F_{q^d} for compatible fields.

    `small` and `big` are Fq contexts with the same characteristic and
    small.e dividing big.e.  The generator of `small` is sent to the
    lexicographically smallest root of its modulus in `big`, which fixes a
    deterministic embedding.  Returns a list: table[code_small] = code_big.
    """
    if small.p != big.p or big.e % small.e != 0:
        raise PreconditionViolated("no embedding between these fields")
    if small.e == 1:
        return list(range(small.p))
    roots = up_roots(big, small.spec.modulus)
    if not roots:
        raise PreconditionViolated("modulus has no root in the target field")
    return [up_eval(big, small.decode(code), roots[0])
            for code in range(small.q)]
