"""Partition combinatorics behind the ideal-count and bound polynomials.

A partition is a weakly decreasing tuple of positive integers.  The
three statistics that matter here are size (sum of parts), length
(number of parts), and the multiplicity of 1 among the parts.
"""

from __future__ import annotations

from .polynomials import IntPoly


class Partition:
    """Weakly decreasing tuple of positive parts with cached statistics."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        self.parts = parts

    @property
    def size(self):
        return sum(self.parts)

    @property
    def length(self):
        return len(self.parts)

    @property
    def ones(self):
        """Multiplicity of 1 as a part."""
        return sum(1 for p in self.parts if p == 1)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def _partitions_of(n, max_part):
    """Partitions of n with parts <= max_part, lexicographically descending."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def partitions(predicate, size_cap):
    """Every partition of size <= size_cap passing the predicate, once.

    The predicate receives (size, length, ones).  Output is ordered by
    the parts tuple, lexicographically descending, so the empty
    partition comes last when admitted.
    """
    if size_cap < 0:
        raise ValueError("size_cap must be >= 0")
    all_parts = []
    for n in range(size_cap + 1):
        all_parts.extend(_partitions_of(n, n if n else 1))
    all_parts.sort(reverse=True)
    out = []
    for parts in all_parts:
        lam = Partition(parts)
        if predicate(lam.size, lam.length, lam.ones):
            out.append(lam)
    return out


def m_poly(delta, r):
    """Upper-bound polynomial: one term x^(delta - length) for each
    partition of size <= delta with fewer than r ones, plus one term
    x^(size - length) for each partition with max(0, delta - r) <= size
    < delta.  Monic of degree delta."""
    if delta < 0 or r < 1:
        raise ValueError("need delta >= 0 and r >= 1")
    out = IntPoly()
    for lam in partitions(lambda s, l, m1: m1 < r, delta):
        out = out + IntPoly.monomial(delta - lam.length)
    lo = max(0, delta - r)
    for lam in partitions(lambda s, l, m1: lo <= s < delta, delta):
        out = out + IntPoly.monomial(lam.size - lam.length)
    return out


def n_poly(delta, r):
    """Lower-bound polynomial: x^delta + ... + x^(delta-r+1) + r when
    r <= delta, and x^delta + ... + x + delta + 1 when r > delta.
    Monic of degree delta."""
    if delta < 0 or r < 1:
        raise ValueError("need delta >= 0 and r >= 1")
    if r <= delta:
        out = IntPoly((r,))
        for k in range(delta - r + 1, delta + 1):
            out = out + IntPoly.monomial(k)
    else:
        out = IntPoly((delta + 1,))
        for k in range(1, delta + 1):
            out = out + IntPoly.monomial(k)
    return out


def hilb_count_regular(j):
    """Number of finite-colength ideals of colength j in a regular local
    two-dimensional power series ring, as a polynomial in the residue
    field size: one term q^(j - length) per partition of j."""
    if j < 0:
        raise ValueError("colength must be >= 0")
    out = IntPoly()
    for lam in partitions(lambda s, l, m1: s == j, j):
        out = out + IntPoly.monomial(j - lam.length)
    return out
