"""Arithmetic in finite fields F_q, q = p^e, with an explicit modulus.

Elements are encoded as integers in [0, q): the base-p digits of the code
are the coefficients of the residue polynomial in the generator u, so the
prime subfield occupies codes 0..p-1 and the generator itself is code p.
An `Fq` context precomputes full operation tables, which keeps the series
and lattice layers free of per-element object overhead.  Products in an
extension field, and the modulus check and search, are polynomial
arithmetic over the prime field's own tables (polynomials.py).  Field
specs and elements are read and printed in parsing.py.
"""

from __future__ import annotations

from .errors import PreconditionViolated
from .polynomials import (monic_polys_over_fq, up_eval, up_factor, up_mod,
                          up_mul, up_roots)

# Every field builds full q^2-entry tables, whose cost grows as q^2: about
# 0.5 s at q = 256 and 2.5 s at q = 512 (Python 3.11, one Xeon core).  A
# larger field has no spec, so it is refused before any table is built; a
# levi extension rebuild above the cap falls back to the base-field count.
_TABLE_CAP = 256


# As Miller-Rabin bases, the first 13 primes decide primality exactly
# below 3.3 * 10^24 (Sorenson and Webster).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n):
    """Miller-Rabin to every base in _WITNESSES: exact below 3.3*10^24;
    above that a strong probable prime to all of them counts as prime."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_root(n, k):
    """The largest integer r with r^k <= n, found bit by bit."""
    r = 0
    for bit in reversed(range(-(-n.bit_length() // k))):
        if (r | 1 << bit) ** k <= n:
            r |= 1 << bit
    return r


def prime_power(n):
    """(p, e) with p prime and p^e == n, or None when n >= 2 is no prime
    power.  Exact k-th roots peel off one prime exponent k at a time;
    primality as in _is_prime."""
    p, e, k = n, 1, 2
    while k < p.bit_length():          # p = r^k with r >= 2 needs this
        root = _int_root(p, k)
        if root ** k == p:
            p, e = root, e * k
        else:
            k += 1
            while not _is_prime(k):
                k += 1
    return (p, e) if _is_prime(p) else None


def find_irreducible(p, deg):
    """Lexicographically smallest monic irreducible of given degree over F_p."""
    fp = Fq(FqSpec(p))
    return next(cand for cand in monic_polys_over_fq(fp, deg)
                if up_factor(fp, cand) == [(cand, 1)])


class FqSpec:
    """Description of a finite field: characteristic, degree, modulus.

    The modulus is a monic polynomial over F_p stored as a coefficient
    tuple (low degree first, length e+1).  For e = 1 it is always (0, 1),
    i.e. u; for e > 1 it defaults to the smallest irreducible.
    """

    __slots__ = ("p", "e", "modulus")

    def __init__(self, p, e=1, modulus=None):
        huge = e >= _TABLE_CAP.bit_length()      # p^e > cap, as p >= 2
        if p >= 2 and e >= 1 and (huge or p ** e > _TABLE_CAP):
            # before the primality test and the modulus search, which
            # grow with p and e
            size = f"{p}^{e}" if huge else p ** e
            raise PreconditionViolated(f"field size {size} exceeds the "
                                       f"desk-scale table cap {_TABLE_CAP}")
        if not _is_prime(p):
            raise PreconditionViolated(f"characteristic {p} is not prime")
        if e < 1:
            raise PreconditionViolated(f"extension degree {e} must be >= 1")
        if modulus is None:
            modulus = (0, 1) if e == 1 else find_irreducible(p, e)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise PreconditionViolated("modulus must be monic of degree e")
        if e > 1 and up_factor(Fq(FqSpec(p)), modulus) != [(modulus, 1)]:
            raise PreconditionViolated("modulus is reducible over F_p")
        self.p = p
        self.e = e
        self.modulus = modulus if e > 1 else (0, 1)

    @property
    def q(self):
        return self.p ** self.e

    def __eq__(self, other):
        return (isinstance(other, FqSpec)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"FqSpec({self.p}, {self.e}, {self.modulus})"


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

    def __repr__(self):
        return f"Fq({self.spec!r})"


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
