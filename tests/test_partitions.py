"""Partition enumeration and the two bound polynomial families."""

import json

from orderzeta.cli import main
from orderzeta.partitions import hilb_count_regular, m_poly, n_poly
from orderzeta.polynomials import IntPoly


def _partitions_of(n, max_part):
    """Partitions of n with parts <= max_part, lexicographically
    descending: the reference enumeration for the counting tables."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def reference_m_poly(delta, r, partitions):
    """m_poly summed term by term over the given partitions (every
    partition of size <= delta, and possibly larger ones)."""
    coeffs = [0] * (delta + 1)
    for parts in partitions:
        size = sum(parts)
        if size > delta:
            continue
        if parts.count(1) < r:
            coeffs[delta - len(parts)] += 1
        if delta - r <= size < delta:
            coeffs[size - len(parts)] += 1
    return IntPoly(coeffs)


def partitions_up_to(size_cap):
    """Every partition of size <= size_cap."""
    for n in range(size_cap + 1):
        yield from _partitions_of(n, n)


def test_enumeration_examples():
    assert {lam for lam in partitions_up_to(2) if lam.count(1) < 1} == {
        (), (2,)}
    assert set(_partitions_of(3, 3)) == {(3,), (2, 1), (1, 1, 1)}
    assert {lam for lam in partitions_up_to(3) if lam.count(1) < 2} == {
        (), (1,), (2,), (3,), (2, 1)}


def test_enumeration_yields_partitions_without_duplicates():
    all4 = list(partitions_up_to(4))
    assert len(all4) == len(set(all4)) == 12   # p(0)+...+p(4)
    for lam in all4:
        assert all(part > 0 for part in lam)
        assert list(lam) == sorted(lam, reverse=True)
    assert list(_partitions_of(5, 2)) == [(2, 2, 1), (2, 1, 1, 1),
                                          (1, 1, 1, 1, 1)]


def test_m_poly_listed_values():
    assert m_poly(2, 2) == IntPoly((2, 2, 1))
    assert m_poly(0, 1) == IntPoly((1,))
    assert m_poly(3, 3) == IntPoly((3, 3, 3, 1))
    assert m_poly(1, 2) == IntPoly((2, 1))


def test_n_poly_listed_values():
    assert n_poly(1, 1) == IntPoly((1, 1))
    assert n_poly(3, 2) == IntPoly((2, 0, 1, 1))
    assert n_poly(2, 5) == IntPoly((3, 1, 1))


def test_bound_polynomials_shape_and_ordering():
    for delta in range(9):
        for r in range(1, 9):
            m = m_poly(delta, r)
            n = n_poly(delta, r)
            assert m.degree == delta and m.coeffs[-1] == 1
            assert n.degree == delta and n.coeffs[-1] == 1
            assert all(c >= 0 for c in m.coeffs)
            assert all(c >= 0 for c in n.coeffs)
            assert m(1) > 0 and n(1) > 0
            for x in (1, 2, 3, 5, 9):
                assert m(x) >= n(x)


def test_m_poly_stabilizes_past_delta():
    for delta in range(9):
        stable = m_poly(delta, delta + 1)
        for r in range(delta + 1, 13):
            assert m_poly(delta, r) == stable


def test_regular_ideal_count_polynomials():
    assert hilb_count_regular(0) == IntPoly((1,))
    assert hilb_count_regular(1) == IntPoly((1,))
    assert hilb_count_regular(2) == IntPoly((1, 1))
    assert hilb_count_regular(3) == IntPoly((1, 1, 1))
    assert hilb_count_regular(4) == IntPoly((1, 1, 2, 1))


def test_regular_ideal_count_at_one_is_partition_number():
    partition_numbers = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for j, pj in enumerate(partition_numbers):
        assert hilb_count_regular(j)(1) == pj


def test_append_ones_bijection():
    # appending r ones maps partitions of j-r bijectively onto partitions
    # of j with at least r ones, preserving size - length
    for j in range(11):
        for r in range(1, 6):
            if j - r < 0:
                continue
            source = list(_partitions_of(j - r, j - r))
            target = {lam for lam in _partitions_of(j, j)
                      if lam.count(1) >= r}
            image = set()
            for mu in source:
                lam = mu + (1,) * r
                assert sum(lam) - len(lam) == sum(mu) - len(mu)
                image.add(lam)
            assert len(image) == len(source)
            assert image == target


def test_counting_tables_match_the_enumeration():
    partitions = list(partitions_up_to(20))
    for delta in range(21):
        for r in range(1, delta + 3):
            assert m_poly(delta, r) == reference_m_poly(
                delta, r, partitions), (delta, r)
        want = [0] * (delta + 1)
        for parts in _partitions_of(delta, delta):
            want[delta - len(parts)] += 1
        assert hilb_count_regular(delta) == IntPoly(want), delta


def test_mnpoly_at_delta_100(capsys):
    # at x = 1 the upper factor counts the partitions of size <= 100
    # with fewer than 3 ones, plus those of sizes 97..99; a partition
    # of s with exactly k ones is one of s - k without ones, and there
    # are p(m) - p(m - 1) of those
    assert main(["mnpoly", "--delta", "100", "--r", "3",
                 "--format", "json"]) == 0
    coeffs = json.loads(capsys.readouterr().out)["upper"]["coeffs"]
    assert len(coeffs) == 101 and coeffs[-1] == 1
    p = [1] + [0] * 100
    for part in range(1, 101):
        for m in range(part, 101):
            p[m] += p[m - part]
    no_ones = [p[m] - (p[m - 1] if m else 0) for m in range(101)]
    assert sum(coeffs) == (
        sum(no_ones[s - k] for s in range(101) for k in range(min(3, s + 1)))
        + sum(p[97:100]))
