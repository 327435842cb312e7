"""Orbit counts: three routes, tally formula, bounds, and fiber spot checks.

The routes are independent: one reads the count off the lattice zeta
polynomial, one enumerates lattice classes directly, and one reduces to the
factors of the characteristic polynomial and multiplies by a contact power.
The tests freeze worked values for a small menagerie and then check the
battery-wide consistency statements (agreement, bracketing, tightness).
"""

import pytest

import orderzeta.lattices
import orderzeta.orbital
from orderzeta.errors import PreconditionViolated
from orderzeta.lattices import (LatticeHNF, class_count_mod_lambda,
                                compose_lattice, identity_lattice,
                                stable_sublattice_levels)
from orderzeta.orbital import (cross_validated_orbital, elliptic_ideal_formula,
                               levi_fiber_check, levi_product, orbital_bounds)
from orderzeta.orders import build_order, n_lines_order
from orderzeta.parsing import parse_field
from orderzeta.partitions import hilb_count_regular, n_poly
from orderzeta.zeta import special_values, zeta_polynomial

F2 = parse_field("2")
F3 = parse_field("3")
F5 = parse_field("5")

# X^2 - t^3 written over each field (unit cusp for characteristic 2)
CUSP = {
    2: ((0, 0, 0, 1), (0, 0, 1), (1,)),
    3: ((0, 0, 0, 2), (), (1,)),
    5: ((0, 0, 0, 4), (), (1,)),
}
# X^2 - t^2, resp. X^2 + tX in characteristic 2
NODE = {
    2: ((), (0, 1), (1,)),
    3: ((0, 0, 2), (), (1,)),
    5: ((0, 0, 4), (), (1,)),
}
# X^2 - a with a a non-square unit
INERT = {3: ((1,), (), (1,)), 5: ((3,), (), (1,))}
# (X - t)(X - t^2)
TWOLINES = {
    2: ((0, 0, 0, 1), (0, 1, 1), (1,)),
    3: ((0, 0, 0, 1), (0, 2, 2), (1,)),
}
RAMP5_3 = ((0, 0, 0, 0, 0, 2), (), (1,))           # X^2 - t^5 over F_3
RAMP7_3 = ((0, 0, 0, 0, 0, 0, 0, 2), (), (1,))     # X^2 - t^7 over F_3
MIX3 = ((0, 0, 0, 0, 1), (0, 0, 0, 2), (0, 2), (1,))  # (X - t)(X^2 - t^3)
CUBIC4_2 = ((0, 0, 0, 0, 1), (), (), (1,))         # X^3 - t^4 over F_2
TRIPLE2 = ((), (0, 0, 0, 1), (0, 1, 1), (1,))      # X(X + t)(X + t^2)
QUARTIC3 = ((1, 0, 0, 2, 0, 0, 1), (), (2, 0, 0, 1), (), (1,))
# (X - 1)^2 - 2t^2 and (X - 1)^2 - 2t^4: orders with residue field F_9
# sitting inside the unramified quadratic, so r = 2 exceeds delta
UNIT2_3 = ((1, 0, 1), (1,), (1,))
UNIT4_3 = ((1, 0, 0, 0, 1), (1,), (1,))


def zeta_at_one(order):
    """The zeta route: the counting polynomial at 1."""
    return special_values(zeta_polynomial(order))[0]


# ---------------------------------------------------------------------------
# frozen counts for the menagerie
# ---------------------------------------------------------------------------

def test_cusp_count_over_f5():
    o = build_order(F5, CUSP[5])
    count, values = cross_validated_orbital(o)
    assert count == 6
    assert values == {"zeta": 6, "lattice": 6, "levi": 6}
    assert orbital_bounds(o) == (6, 6)


def test_node_count_over_f5():
    o = build_order(F5, NODE[5])
    count, values = cross_validated_orbital(o)
    assert count == 5
    assert values == {"zeta": 5, "lattice": 5, "levi": 5}
    assert orbital_bounds(o) == (5, 5)


def test_maximal_inert_order_has_one_class():
    for fq, f in ((F3, INERT[3]), (F5, INERT[5])):
        o = build_order(fq, f)
        count, _ = cross_validated_orbital(o)
        assert count == 1
        assert orbital_bounds(o) == (1, 1)


def test_deeper_cusp_count_and_bounds():
    o = build_order(F3, RAMP5_3)
    count, values = cross_validated_orbital(o)
    assert count == 13
    assert values["levi"] == 13
    assert orbital_bounds(o) == (10, 13)


def test_two_lines_count_is_contact_power():
    for fq, expected in ((F2, 2), (F3, 3)):
        o = build_order(fq, TWOLINES[fq.q])
        count, _ = cross_validated_orbital(o)
        assert o.rho == 1
        assert count == expected
        assert orbital_bounds(o) == (expected, expected)


def test_mixed_branches_count():
    o = build_order(F3, MIX3)
    assert (o.delta, o.rho) == (3, 2)
    count, _ = cross_validated_orbital(o)
    assert count == 36
    assert orbital_bounds(o) == (36, 36)


def test_quartic_with_inert_residue_fields():
    o = build_order(F3, QUARTIC3)
    count, values = cross_validated_orbital(o)
    assert count == 10
    assert values == {"zeta": 10, "lattice": 10, "levi": 10}
    assert orbital_bounds(o) == (10, 10)


def test_factor_route_base_change_succeeds_for_quartic():
    o = build_order(F3, QUARTIC3)
    value, notes = levi_product(o)
    assert value == 10
    assert notes == ()


def test_factor_route_above_the_table_cap_falls_back_with_a_note():
    # X^2 - 3 is inert over F_17; F_289 is above the table cap
    o = build_order(parse_field("17"), ((14,), (), (1,)))
    value, notes = levi_product(o)
    assert value == 1
    assert notes == ("factor 0: extension rebuild failed (field size 289 "
                     "exceeds the desk-scale table cap 256); used the "
                     "base-field count",)


# ---------------------------------------------------------------------------
# tally formula for one branch with trivial residue extension
# ---------------------------------------------------------------------------

def test_tally_formula_matches_direct_counts():
    cases = ((F3, CUSP[3]), (F2, CUSP[2]), (F3, RAMP5_3), (F2, CUBIC4_2))
    for fq, f in cases:
        o = build_order(fq, f)
        assert elliptic_ideal_formula(o) == zeta_at_one(o)


def test_tally_formula_literals():
    assert elliptic_ideal_formula(build_order(F3, CUSP[3])) == 4
    assert elliptic_ideal_formula(build_order(F3, RAMP5_3)) == 13


def test_tally_formula_enumerates_once(monkeypatch):
    # the tallies H_0..H_delta are the level sizes of one enumeration to
    # colength delta, not one enumeration per colength
    calls = []
    levels = orderzeta.lattices.stable_sublattice_levels

    def counted(*args, **kwargs):
        calls.append(args[1])
        return levels(*args, **kwargs)

    monkeypatch.setattr(orderzeta.lattices, "stable_sublattice_levels",
                        counted)
    monkeypatch.setattr(orderzeta.orbital, "stable_sublattice_levels",
                        counted, raising=False)
    o = build_order(F3, RAMP7_3)
    assert o.delta == 3
    value = elliptic_ideal_formula(o)
    assert calls == [o.delta]
    assert value == zeta_at_one(o)


def test_tally_formula_with_residue_degree_two_unit_group():
    o = build_order(F3, UNIT2_3)
    (fd,) = o.factors
    assert (fd.d, fd.r, fd.delta) == (1, 2, 1)
    count, _ = cross_validated_orbital(o)
    assert count == 5
    assert elliptic_ideal_formula(o) == 5
    assert orbital_bounds(o) == (5, 5)

    deeper = build_order(F3, UNIT4_3)
    assert deeper.factors[0].delta == 2
    count, _ = cross_validated_orbital(deeper)
    assert count == 17
    assert elliptic_ideal_formula(deeper) == 17
    assert orbital_bounds(deeper) == (14, 17)


def test_tally_formula_requires_single_untwisted_branch():
    with pytest.raises(PreconditionViolated):
        elliptic_ideal_formula(build_order(F3, NODE[3]))
    with pytest.raises(PreconditionViolated):
        elliptic_ideal_formula(build_order(F3, INERT[3]))


# ---------------------------------------------------------------------------
# battery-wide consistency
# ---------------------------------------------------------------------------

BATTERY = (
    (F2, CUSP[2]), (F2, NODE[2]), (F2, TWOLINES[2]), (F2, CUBIC4_2),
    (F3, CUSP[3]), (F3, NODE[3]), (F3, INERT[3]), (F3, RAMP5_3),
    (F3, TWOLINES[3]), (F3, MIX3),
    (F5, CUSP[5]), (F5, NODE[5]), (F5, INERT[5]),
)


@pytest.mark.parametrize("fq,f", BATTERY,
                         ids=lambda v: getattr(v, "q", None) and str(v.q) or "")
def test_routes_agree_and_bounds_bracket(fq, f):
    o = build_order(fq, f)
    count, values = cross_validated_orbital(o)
    assert len(set(values.values())) == 1
    lower, upper = orbital_bounds(o)
    assert lower <= count <= upper
    tame = all(fd.delta == 0 or (fd.delta == 1 and fd.r == 1)
               for fd in o.factors)
    assert (lower == upper) == tame


def test_invariant_fields():
    o = build_order(F3, MIX3)
    assert (o.delta, o.rho, len(o.factors) == 1) == (3, 2, False)
    assert orbital_bounds(o) == (36, 36)
    assert len(build_order(F3, CUSP[3]).factors) == 1


def test_single_branch_lower_bound_formula():
    for q in (2, 3, 5):
        for delta in range(1, 6):
            assert n_poly(delta, 1)(q) == q ** delta + 1


def test_ideal_tallies_sit_inside_regular_envelope():
    cases = ((F3, CUSP[3]), (F3, RAMP5_3), (F2, CUBIC4_2))
    for fq, f in cases:
        o = build_order(fq, f)
        for j in range(o.delta + 1):
            tally = len(stable_sublattice_levels(o.r_lattice, j,
                                                 o.action_matrices)[j])
            assert 1 <= tally <= hilb_count_regular(j)(fq.q)


# ---------------------------------------------------------------------------
# fiber spot checks for the two-branch projection
# ---------------------------------------------------------------------------

def test_node_fibers_have_constant_size():
    assert levi_fiber_check(build_order(F3, NODE[3]), 4, seed=1)
    assert levi_fiber_check(build_order(F2, NODE[2]), 4, seed=1)


def test_two_lines_fibers_have_constant_size():
    assert levi_fiber_check(build_order(F2, TWOLINES[2]), 3, seed=5)
    assert levi_fiber_check(build_order(F3, TWOLINES[3]), 3, seed=5)


def test_mixed_contact_fibers_have_constant_size():
    assert levi_fiber_check(build_order(F3, MIX3), 2, seed=2)


@pytest.mark.parametrize("fq, f", [
    (F3, NODE[3]), (F2, NODE[2]), (F2, TWOLINES[2]), (F3, TWOLINES[3]),
    (F3, MIX3),
])
def test_fiber_pools_are_the_identity_levels(fq, f):
    # levi_fiber_check takes each level over the identity base as its
    # pool: the levels already list the lattices themselves, sorted
    for fd in build_order(fq, f).factors:
        sub = build_order(fq, fd.coeffs, f_window=fd.window)
        base = identity_lattice(fq, sub.n)
        for level in stable_sublattice_levels(base, 2, sub.action_matrices):
            assert list(level) == sorted(
                (compose_lattice(base, rel) for rel in level),
                key=LatticeHNF.sort_key)


def test_fiber_check_is_deterministic():
    o = build_order(F2, TWOLINES[2])
    first = levi_fiber_check(o, 3, seed=11)
    second = levi_fiber_check(o, 3, seed=11)
    assert first == second


def test_fiber_check_exhaustive_mode():
    assert levi_fiber_check(build_order(F3, NODE[3]), None)
    assert levi_fiber_check(build_order(F2, TWOLINES[2]), None)


def test_fiber_check_guards():
    with pytest.raises(PreconditionViolated):
        levi_fiber_check(build_order(F3, CUSP[3]), 2)
    with pytest.raises(PreconditionViolated):
        levi_fiber_check(build_order(F2, TRIPLE2), 2)
    with pytest.raises(PreconditionViolated):
        levi_fiber_check(build_order(F3, NODE[3]), 0)


# ---------------------------------------------------------------------------
# guards shared by every route
# ---------------------------------------------------------------------------

def test_lines_order_supports_lattice_routes_only():
    lines = n_lines_order(F2, 3)
    assert zeta_at_one(lines) == 6
    assert class_count_mod_lambda(lines) == 6
    with pytest.raises(PreconditionViolated):
        levi_product(lines)
    with pytest.raises(PreconditionViolated):
        cross_validated_orbital(lines)
    with pytest.raises(PreconditionViolated):
        orbital_bounds(lines)
