"""Partition enumeration and the two bound polynomial families."""

from orderzeta.partitions import (_partitions_of, hilb_count_regular,
                                  m_poly, n_poly)
from orderzeta.polynomials import IntPoly


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
