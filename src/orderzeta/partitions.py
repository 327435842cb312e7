"""Partition combinatorics behind the ideal-count and bound polynomials.

A partition is a weakly decreasing tuple of positive integers.  The
three statistics that matter here are size (sum of parts), length
(number of parts), and the multiplicity of 1 among the parts.  Every
polynomial below is a sum over partitions, so the order in which they
are generated does not matter.
"""

from __future__ import annotations

from .polynomials import IntPoly


def _partitions_of(n, max_part):
    """Partitions of n with parts <= max_part, lexicographically descending."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def m_poly(delta, r):
    """Upper-bound polynomial: one term x^(delta - length) for each
    partition of size <= delta with fewer than r ones, plus one term
    x^(size - length) for each partition with max(0, delta - r) <= size
    < delta.  Monic of degree delta."""
    if delta < 0 or r < 1:
        raise ValueError("need delta >= 0 and r >= 1")
    coeffs = [0] * (delta + 1)
    for size in range(delta + 1):
        for parts in _partitions_of(size, size):
            if parts.count(1) < r:
                coeffs[delta - len(parts)] += 1
            if delta - r <= size < delta:
                coeffs[size - len(parts)] += 1
    return IntPoly(coeffs)


def n_poly(delta, r):
    """Lower-bound polynomial: x^delta + ... + x^(delta-r+1) + r when
    r <= delta, and x^delta + ... + x + delta + 1 when r > delta.
    Monic of degree delta."""
    if delta < 0 or r < 1:
        raise ValueError("need delta >= 0 and r >= 1")
    top = min(r, delta)
    return IntPoly([min(r, delta + 1)] + [0] * (delta - top) + [1] * top)


def hilb_count_regular(j):
    """Number of finite-colength ideals of colength j in a regular local
    two-dimensional power series ring, as a polynomial in the residue
    field size: one term q^(j - length) per partition of j."""
    if j < 0:
        raise ValueError("colength must be >= 0")
    coeffs = [0] * (j + 1)
    for parts in _partitions_of(j, j):
        coeffs[j - len(parts)] += 1
    return IntPoly(coeffs)
