"""Partition combinatorics behind the ideal-count and bound polynomials.

A partition is a weakly decreasing tuple of positive integers.  The
three statistics that matter here are size (sum of parts), length
(number of parts), and the multiplicity of 1 among the parts.  Every
polynomial below is a sum over partitions that depends on those
statistics alone, so it is read off one table of counts by size and
length instead of enumerating the partitions.
"""

from __future__ import annotations

from .polynomials import IntPoly


def _counts_by_length(n):
    """c[s][l], the number of partitions of s into exactly l parts, for
    0 <= s, l <= n: a partition either has a part 1 (drop it) or has
    every part at least 2 (lower each by 1), so
    c[s][l] = c[s-1][l-1] + c[s-l][l]."""
    c = [[1] + [0] * n]
    for s in range(1, n + 1):
        row = [0] * (n + 1)
        for length in range(1, s + 1):
            row[length] = c[s - 1][length - 1] + c[s - length][length]
        c.append(row)
    return c


def m_poly(delta, r):
    """Upper-bound polynomial: one term x^(delta - length) for each
    partition of size <= delta with fewer than r ones, plus one term
    x^(size - length) for each partition with max(0, delta - r) <= size
    < delta.  Monic of degree delta.

    The partitions of size s and length l with exactly k ones are those
    of s - l into l - k parts (drop the ones, lower every other part by
    1), so c[s-l][l-k] of them.  With rest = s - l fixed, the count with
    fewer than r ones is the sum of the last r entries of row c[rest] up
    to index l, kept as a sliding sum while l grows: O(delta^2) for every
    r."""
    if delta < 0 or r < 1:
        raise ValueError("need delta >= 0 and r >= 1")
    c = _counts_by_length(delta)
    coeffs = [0] * (delta + 1)
    for rest in range(delta + 1):
        row = c[rest]
        window = 0
        for length in range(delta - rest + 1):
            window += row[length]
            if length >= r:
                window -= row[length - r]
            coeffs[delta - length] += window
    for size in range(max(0, delta - r), delta):
        for length in range(size + 1):
            coeffs[size - length] += c[size][length]
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
    c = _counts_by_length(j)
    return IntPoly(c[j][length] for length in range(j, -1, -1))
