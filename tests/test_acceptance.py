"""End-to-end battery: every identity asserted exactly, tolerance zero.

The defining-polynomial battery adapts to the characteristic: members
that are inseparable over a given prime field (or need a non-square
unit that the field lacks) are replaced by the standard separable
models of the same singularity type, or skipped; each run asserts the
expected skip set so nothing is dropped silently.
"""

import json
from itertools import combinations, product as iproduct

import pytest

from orderzeta.cli import main, render
from orderzeta.errors import (NonIntegralInput, NotSquarefree, ParseError)
from orderzeta.lattices import class_count_mod_lambda
from orderzeta.orbital import (cross_validated_orbital, levi_fiber_check,
                               orbital_bounds)
from orderzeta.orders import build_order, n_lines_order
from orderzeta.parsing import parse_field, parse_xpoly
from orderzeta.partitions import hilb_count_regular, m_poly
from orderzeta.polynomials import IntPoly
from orderzeta.report import analyze_report, selftest_report
from orderzeta.zeta import (nlines_closed_form, per_class_refinement,
                            special_values, variant_zeta, zeta_polynomial)


def field(q):
    return parse_field(str(q))


def battery(q):
    """Defining polynomials per characteristic, plus the skipped labels."""
    neg = q - 1
    members, skipped = [], []
    if q == 2:
        members.append(("cusp model X^2+t^2*X+t^3",
                        ((0, 0, 0, 1), (0, 0, 1), (1,))))
        members.append(("node model X^2+t*X", ((), (0, 1), (1,))))
        skipped += ["X^2-t^3", "X^2-t^2", "X^2-t^5", "(X-t)(X^2-t^3)",
                    "X^2-a"]
    else:
        members.append(("X^2-t^3", ((0, 0, 0, neg), (), (1,))))
        members.append(("X^2-t^2", ((0, 0, neg), (), (1,))))
        members.append(("X^2-t^5", ((0, 0, 0, 0, 0, neg), (), (1,))))
    if q == 3:
        skipped += ["X^3-t^4", "X^3-t^5"]
    else:
        members.append(("X^3-t^4", ((0, 0, 0, 0, neg), (), (), (1,))))
        members.append(("X^3-t^5", ((0, 0, 0, 0, 0, neg), (), (), (1,))))
    if q != 2:
        members.append(("(X-t)(X^2-t^3)",
                        ((0, 0, 0, 0, 1), (0, 0, 0, neg), (0, neg), (1,))))
    members.append(("(X-t)(X-t^2)", ((0, 0, 0, 1), (0, neg, neg), (1,))))
    if q == 3:
        members.append(("X^2+1", ((1,), (), (1,))))
    elif q == 5:
        members.append(("X^2-2", ((3,), (), (1,))))
    return members, skipped


EXPECTED_SKIPS = {
    2: ["X^2-t^3", "X^2-t^2", "X^2-t^5", "(X-t)(X^2-t^3)", "X^2-a"],
    3: ["X^3-t^4", "X^3-t^5"],
    5: [],
}


def test_three_lines_golden_polynomials():
    for q in (2, 3, 5):
        order = n_lines_order(field(q), 3)
        z = zeta_polynomial(order)
        assert z.poly == IntPoly((1, q - 2, 1, q * q - 2 * q, q * q))
        sharp = variant_zeta(order, order.o_e_lattice)
        flat = variant_zeta(order, order.r_lattice)
        assert sharp.poly == IntPoly((1, q * q + q - 2, q * q - 2 * q + 1))
        assert flat.poly == IntPoly((1, -2, q * q + q + 1, q * q - 2 * q))
        value = 2 * q * q - q
        assert (z.poly(1), sharp.poly(1), flat.poly(1)) == (value,) * 3


def test_lines_closed_form_matches_enumeration():
    for n in (2, 3, 4):
        closed = nlines_closed_form(n)
        for q in (2, 3):
            z = zeta_polynomial(n_lines_order(field(q), n))
            assert closed.at_q(q) == z.poly


def test_battery_value_identities():
    for q in (2, 3, 5):
        members, skipped = battery(q)
        assert skipped == EXPECTED_SKIPS[q]
        for label, f in members:
            order = build_order(field(q), f)
            z = zeta_polynomial(order)
            assert z.poly.degree == 2 * order.delta, label
            assert z.poly.coefficient(0) == 1, label
            assert z.checks == {"truncation_ok": True, "degree_ok": True,
                                "fe_ok": True, "sv_ok": True}, label
            at_one, reflected = special_values(z)
            assert at_one == reflected, label
            assert at_one == class_count_mod_lambda(order), label


def test_per_class_tables_pair_with_duals():
    f2 = field(2)
    cusp = build_order(f2, ((0, 0, 0, 1), (0, 0, 1), (1,)))
    ref = per_class_refinement(cusp)
    assert ref.labels == ("c0", "c1")
    assert ref.counts == {"c0": (0, 1, 1, 1, 1, 1),
                          "c1": (1, 0, 2, 2, 2, 2)}
    assert ref.contributions["c0"] == IntPoly((0, 1))
    assert ref.contributions["c1"] == IntPoly((1, -1, 2))
    assert ref.dual_pairs == {"c0": "c0", "c1": "c1"}
    assert ref.pairing_ok

    node = build_order(f2, ((), (0, 1), (1,)))
    ref = per_class_refinement(node)
    assert ref.counts == {"c0": (0, 1, 2, 3, 4, 5, 6),
                          "c1": (1, 0, 1, 2, 3, 4, 5)}
    assert ref.contributions["c0"] == IntPoly((0, 1))
    assert ref.contributions["c1"] == IntPoly((1, -2, 2))
    assert ref.pairing_ok


# --- independent oracle for ideals of the regular two-variable ring -------

def _echelon_bases(m, k):
    """One reduced echelon basis (bitmask rows) per k-dim subspace of
    F_2^m; bit i of a row is coordinate i."""
    for pivots in combinations(range(m), k):
        free = [(i, c) for i in range(k) for c in range(pivots[i] + 1, m)
                if c not in pivots]
        for bits in iproduct((0, 1), repeat=len(free)):
            rows = [1 << pivots[i] for i in range(k)]
            for (i, c), b in zip(free, bits):
                if b:
                    rows[i] |= 1 << c
            yield rows


def _insert(basis, row):
    while row:
        p = row.bit_length() - 1
        if p in basis:
            row ^= basis[p]
        else:
            basis[p] = row
            return True
    return False


def _member(basis, row):
    while row:
        p = row.bit_length() - 1
        if p not in basis:
            return False
        row ^= basis[p]
    return True


def _plane_ideal_count(j):
    """Count colength-j ideals of F_2[[t, x]] directly.

    Work in the truncation B spanned by monomials t^a x^b with a+b <= j.
    A colength-j ideal contains every monomial of total degree j (the
    quotient has length j, so the j-th power of the maximal ideal dies),
    hence is determined by a subspace of the lower-degree span; keep the
    candidates whose lift absorbs multiplication by t and by x.
    """
    monos = [(a, b) for a in range(j + 1) for b in range(j + 1 - a)]
    index = {ab: i for i, ab in enumerate(monos)}
    low = [i for i, ab in enumerate(monos) if sum(ab) < j]
    slab = [1 << i for i, ab in enumerate(monos) if sum(ab) == j]

    def shifted(vec, da, db):
        out = 0
        for i, (a, b) in enumerate(monos):
            if vec >> i & 1 and a + da + b + db <= j:
                out |= 1 << index[(a + da, b + db)]
        return out

    count = 0
    for rows in _echelon_bases(len(low), len(low) - j):
        vectors = list(slab)
        for r in rows:
            lifted = 0
            for pos, i in enumerate(low):
                if r >> pos & 1:
                    lifted |= 1 << i
            vectors.append(lifted)
        basis = {}
        for v in vectors:
            _insert(basis, v)
        if all(_member(basis, shifted(v, da, db))
               for v in vectors for da, db in ((1, 0), (0, 1))):
            count += 1
    return count


def test_punctual_ideal_counts_match_oracle():
    expected = {1: 1, 2: 3, 3: 7}
    for j, value in expected.items():
        assert _plane_ideal_count(j) == value
        assert hilb_count_regular(j)(2) == value


def test_orbit_bounds_bracket_all_members():
    for q in (2, 3, 5):
        members, _ = battery(q)
        for label, f in members:
            order = build_order(field(q), f)
            lower, upper = orbital_bounds(order)
            count, _ = cross_validated_orbital(order)
            assert lower <= count <= upper, label
            if label.startswith(("cusp model", "node model", "X^2-t^3",
                                 "X^2-t^2")):
                assert lower == count == upper, label
            if label == "X^2-t^5" and q == 3:
                assert (lower, upper) == (10, 13)
                assert count == 13


def test_orbit_routes_agree_and_fibers_are_flat():
    for q in (2, 3, 5):
        members, _ = battery(q)
        for label, f in members:
            order = build_order(field(q), f)
            count, values = cross_validated_orbital(order)
            assert values == {"zeta": count, "lattice": count,
                              "levi": count}, label
    node = {2: ((), (0, 1), (1,)), 3: ((0, 0, 2), (), (1,))}
    lines = {2: ((0, 0, 0, 1), (0, 1, 1), (1,)),
             3: ((0, 0, 0, 1), (0, 2, 2), (1,))}
    for q in (2, 3):
        assert levi_fiber_check(build_order(field(q), node[q]), None)
        assert levi_fiber_check(build_order(field(q), lines[q]), None)


def test_upper_bound_polynomial_table():
    table = {
        (0, 1): (1,),
        (0, 5): (1,),
        (1, 1): (1, 1),
        (1, 2): (2, 1),
        (2, 1): (1, 1, 1),
        (2, 2): (2, 2, 1),
        (2, 3): (3, 2, 1),
        (3, 1): (1, 1, 2, 1),
        (3, 2): (2, 2, 3, 1),
        (3, 3): (3, 3, 3, 1),
        (3, 4): (4, 3, 3, 1),
    }
    assert len(table) == 11
    for (delta, r), coeffs in table.items():
        assert m_poly(delta, r) == IntPoly(coeffs), (delta, r)


def test_robustness_determinism_and_rejections(capsys):
    f3 = field(3)
    cusp = ((0, 0, 0, 2), (), (1,))
    base = build_order(f3, cusp)
    doubled = build_order(f3, cusp, precision=2 * base.precision)
    assert zeta_polynomial(base).poly == zeta_polynomial(doubled).poly
    assert (class_count_mod_lambda(base)
            == class_count_mod_lambda(doubled))

    first = render(analyze_report(f3, cusp, seed=42), "json")
    second = render(analyze_report(f3, cusp, seed=42), "json")
    assert first == second
    quick1 = render(selftest_report(quick=True, seed=42), "json")
    quick2 = render(selftest_report(quick=True, seed=42), "json")
    assert quick1 == quick2
    assert json.loads(quick1)["all_pass"] is True

    with pytest.raises(NotSquarefree) as info:
        build_order(f3, parse_xpoly(f3, "(X^2 - t^2)*(X - t)"))
    assert info.value.exit_code == 3
    with pytest.raises(NonIntegralInput) as info:
        parse_xpoly(f3, "X^2 - t^-1")
    assert info.value.exit_code == 3
    with pytest.raises(ParseError) as info:
        parse_xpoly(f3, "X^2 +* t")
    assert info.value.exit_code == 2

    assert main(["analyze", "--q", "3",
                 "--f", "(X^2 - t^2)*(X - t)"]) == 3
    assert main(["analyze", "--q", "3", "--f", "X^2 - t^-1"]) == 3
    assert main(["analyze", "--q", "3", "--f", "X^2 +* t"]) == 2
    capsys.readouterr()
