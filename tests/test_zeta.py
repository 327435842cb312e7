"""Counting polynomials: assembly, identities, variants, class shares.

The enumeration engine is cross-checked on the coordinate-lines orders
against an independent parameterization proved by hand: a stable
sublattice M of the duality lattice is determined by the minimal
valuation a_i of its projection to each coordinate line (a_i >= -1) and
by the subspace W of leading coefficients at those valuations.  W never
lies inside a coordinate hyperplane (else a_i was not minimal), the
coordinates with a_i = -1 must have leading sums in the duality
hyperplane, and the colength works out to sum(a) + 2n - 1 - dim W.
Split lattices appear as W = full space.  Everything else is frozen
literals computed once from that model and from the small quadratic and
cubic orders whose ideal counts are easy to list by hand.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderzeta.errors import (NotSquarefree, BadFactorization,
                              NonIntegralSpecialValue, PreconditionViolated,
                              TruncationFailure)
from orderzeta.fq import Fq
from orderzeta.lattices import (action_digits_needed, class_count_mod_lambda,
                                hnf_from_generators, pad_exact,
                                relative_length, stable_sublattice_levels)
from orderzeta.orders import build_order, n_lines_order
from orderzeta.parsing import parse_field
from orderzeta.polynomials import IntPoly
from orderzeta.zeta import (check_functional_equation, factor_periods,
                            nlines_closed_form, per_class_refinement,
                            planned_nlines_order, quot_series, special_values,
                            variant_plan, variant_zeta, zeta_j_max,
                            zeta_polynomial)

F2 = Fq(2)
F3 = Fq(3)
F5 = Fq(5)

CUSP3 = ((0, 0, 0, 2), (), (1,))          # X^2 - t^3
NODE3 = ((0, 0, 2), (), (1,))             # X^2 - t^2
QUAD3 = ((1,), (), (1,))                  # X^2 + 1, irreducible mod 3
RAMP5_3 = ((0, 0, 0, 0, 0, 2), (), (1,))  # X^2 - t^5
CUSP2 = ((0, 0, 0, 1), (0, 0, 1), (1,))   # X^2 + t^2 X + t^3
NODE2 = ((), (0, 1), (1,))                # X(X + t)


# ---------------------------------------------------------------------------
# quadratic menagerie: frozen tallies, polynomials, special values
# ---------------------------------------------------------------------------

def test_cusp_polynomial():
    o = build_order(F3, CUSP3)
    z = zeta_polynomial(o)
    assert z.quot_counts[:6] == (1, 1, 4, 4, 4, 4)
    assert z.poly.coeffs == (1, 0, 3)
    assert factor_periods(o) == (1,)
    assert all(z.checks.values())
    assert special_values(z) == (4, 4)
    assert class_count_mod_lambda(o) == 4


def test_node_polynomial():
    o = build_order(F3, NODE3)
    z = zeta_polynomial(o)
    assert z.quot_counts == (1, 1, 4, 7, 10, 13, 16)
    assert z.poly.coeffs == (1, -1, 3)
    assert factor_periods(o) == (1, 1)
    assert all(z.checks.values())
    assert special_values(z) == (3, 3)
    assert class_count_mod_lambda(o) == 3


def test_maximal_order_is_trivial():
    o = build_order(F3, QUAD3)
    z = zeta_polynomial(o)
    assert z.quot_counts == (1, 0, 1, 0, 1)
    assert z.poly.coeffs == (1,)
    assert factor_periods(o) == (2,)
    assert all(z.checks.values())
    assert special_values(z) == (1, 1)


def test_deeper_ramified_quadratic_polynomial():
    o = build_order(F3, RAMP5_3)
    z = zeta_polynomial(o)
    assert z.quot_counts == (1, 1, 4, 4, 13, 13, 13, 13)
    assert z.poly.coeffs == (1, 0, 3, 0, 9)
    assert all(z.checks.values())
    assert special_values(z) == (13, 13)
    assert class_count_mod_lambda(o) == 13


def test_special_values_match_a_fraction_oracle():
    rng = random.Random(20261018)
    integral = non_integral = 0
    for _ in range(400):
        q = rng.choice((2, 3, 4, 5, 7, 9, 256))
        delta = rng.randrange(0, 6)
        coeffs = [rng.randrange(-50, 51) for _ in range(rng.randrange(0, 9))]
        if rng.random() < 0.5:
            # make the terms above t^delta divisible by their q power
            coeffs = [c * q ** max(0, k - delta) for k, c in enumerate(coeffs)]
        z = SimpleNamespace(q=q, delta=delta, poly=IntPoly(coeffs))
        want = Fraction(q) ** delta * z.poly(Fraction(1, q))
        if want.denominator == 1:
            integral += 1
            assert special_values(z) == (z.poly(1), int(want))
        else:
            non_integral += 1
            with pytest.raises(NonIntegralSpecialValue) as info:
                special_values(z)
            assert str(info.value) == (f"q^delta * P(1/q) = {want} is not "
                                       "an integer")
    assert integral > 100 and non_integral > 100


def test_cli_import_leaves_decimal_unloaded():
    # fractions pulls in decimal and numbers; the package needs neither
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, orderzeta.cli; "
         "print(sorted({'decimal', 'fractions'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# coordinate-lines orders against the leading-subspace model
# ---------------------------------------------------------------------------

def all_subspaces(q, n):
    """Every linear subspace of F_q^n, as a frozenset of vectors."""
    space = [v for v in iproduct(range(q), repeat=n)]
    seen = set()
    for gens in iproduct(space, repeat=n):
        span = {(0,) * n}
        for g in gens:
            span = {tuple((s[i] + c * g[i]) % q for i in range(n))
                    for s in span for c in range(q)}
        seen.add(frozenset(span))
    return seen


def lines_model_counts(q, n, jmax):
    """Stable sublattices of the duality lattice of the n-lines order,
    tallied by colength via the (valuations, leading subspace) model."""
    counts = [0] * (jmax + 1)
    for w in all_subspaces(q, n):
        if any(all(v[i] == 0 for v in w) for i in range(n)):
            continue
        dim = 0
        while q ** dim < len(w):
            dim += 1
        for a in iproduct(range(-1, jmax + 1), repeat=n):
            j = sum(a) + 2 * n - 1 - dim
            if not 0 <= j <= jmax:
                continue
            dead = [i for i in range(n) if a[i] == -1]
            if all(sum(v[i] for i in dead) % q == 0 for v in w):
                counts[j] += 1
    return tuple(counts)


@pytest.mark.parametrize("fq,n", [(F2, 2), (F3, 2), (F2, 3), (F3, 3)])
def test_lines_tally_matches_leading_subspace_model(fq, n):
    o = n_lines_order(fq, n)
    got = quot_series(o)
    assert got == lines_model_counts(fq.q, n, zeta_j_max(o))


def test_three_lines_tally_literals():
    o = n_lines_order(F2, 3)
    assert quot_series(o) == (1, 3, 7, 13, 25, 43, 67, 97, 133, 175)


@pytest.mark.parametrize("fq,coeffs,count", [
    (F2, (1, 0, 1, 0, 4), 6),
    (F3, (1, 1, 1, 3, 9), 15),
])
def test_three_lines_polynomial(fq, coeffs, count):
    o = n_lines_order(fq, 3)
    z = zeta_polynomial(o)
    assert z.poly.coeffs == coeffs
    assert all(z.checks.values())
    assert special_values(z) == (count, count)
    assert class_count_mod_lambda(o) == count


# ---------------------------------------------------------------------------
# variants built from other stable lattices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fq,coeffs,count", [
    (F2, (1, 4, 1), 6),
    (F3, (1, 10, 4), 15),
])
def test_three_lines_variant_on_normalization(fq, coeffs, count):
    o = n_lines_order(fq, 3)
    z = variant_zeta(o, variant_plan(o, o.o_e_lattice))
    assert z.poly.coeffs == coeffs
    assert z.class_count == count
    assert z.checks["sv_ok"] and z.checks["truncation_ok"]
    assert not z.checks["degree_ok"]
    assert not z.checks["fe_ok"]


@pytest.mark.parametrize("fq,coeffs,count", [
    (F2, (1, -2, 7), 6),
    (F3, (1, -2, 13, 3), 15),
])
def test_three_lines_variant_on_order_itself(fq, coeffs, count):
    o = n_lines_order(fq, 3)
    z = variant_zeta(o, variant_plan(o, o.r_lattice))
    assert z.poly.coeffs == coeffs
    assert z.class_count == count
    assert z.checks["sv_ok"]


@pytest.mark.parametrize("f", [CUSP3, NODE3])
def test_variant_on_duality_lattice_matches_main(f):
    o = build_order(F3, f)
    main = zeta_polynomial(o)
    z = variant_zeta(o, variant_plan(o, o.dual_r_lattice))
    assert z.poly == main.poly
    assert all(z.checks.values())


@pytest.mark.parametrize("f,count", [(CUSP3, 4), (NODE3, 3)])
def test_variant_on_conductor(f, count):
    # the conductor sits strictly inside the duality lattice, so this
    # exercises the scale normalization; the value identity must hold
    o = build_order(F3, f)
    z = variant_zeta(o, variant_plan(o, o.conductor_lattice))
    assert z.class_count == count
    assert z.poly(1) == count


def test_variant_on_order_matches_main_when_self_dual():
    # the cuspidal order's duality lattice is a scaled copy of the order
    # itself, so counting inside the order reproduces the polynomial
    o = build_order(F3, CUSP3)
    assert variant_zeta(o, variant_plan(o, o.r_lattice)).poly == \
        zeta_polynomial(o).poly
    lines = n_lines_order(F3, 3)
    assert variant_zeta(lines, variant_plan(lines, lines.r_lattice)).poly != \
        zeta_polynomial(lines).poly


def test_lines_ideal_tally_differs_from_duality_tally():
    # colength-1 stable sublattices: one inside the order (its maximal
    # ideal), q+1 inside the duality lattice; the two references are
    # genuinely different counting problems here
    for fq in (F2, F3):
        o = n_lines_order(fq, 3)
        assert len(stable_sublattice_levels(o.r_lattice, 1,
                                            o.action_matrices)[1]) == 1
        assert quot_series(o)[1] == fq.q + 1


def test_variant_rejects_unstable_lattice():
    o = build_order(F3, CUSP3)
    skew = hnf_from_generators(
        F3, pad_exact((((1,), ()), ((), (0, 0, 1))), 2), 2)
    with pytest.raises(PreconditionViolated):
        variant_plan(o, skew)


def test_variant_refuses_a_tally_too_short_for_its_tail():
    # the normalization variant of three lines over F_2 has degree 2 and
    # a margin of sum(periods) + 2 = 5, so a 7-term tally certifies it
    # and a 6-term one does not
    o = n_lines_order(F2, 3)
    base, last = variant_plan(o, o.o_e_lattice)
    assert last == 11
    z = variant_zeta(o, (base, 7))
    assert z.poly.coeffs == (1, 4, 1)
    with pytest.raises(TruncationFailure,
                       match=r"of 7 terms is nonzero at degrees \[2\], "
                             r"beyond degree 1"):
        variant_zeta(o, (base, 6))


# ---------------------------------------------------------------------------
# truncation: a collapsed tally with a nonzero tail is refused
# ---------------------------------------------------------------------------

def test_zeta_polynomial_refuses_a_nonzero_tail(monkeypatch):
    o = build_order(F3, CUSP3)
    counts = quot_series(o)
    assert counts == (1, 1, 4, 4, 4, 4)
    monkeypatch.setattr("orderzeta.zeta.quot_series",
                        lambda order, ceiling: counts[:-1] + (5,))
    with pytest.raises(TruncationFailure,
                       match=r"nonzero at degrees \[5\], beyond degree 2"):
        zeta_polynomial(o)


def test_class_shares_refuse_a_nonzero_tail(monkeypatch):
    # a lattice counted twice at the last colength leaves its class share
    # nonzero there
    o = build_order(F3, CUSP3)

    def doubled_last(*args, **kwargs):
        levels = stable_sublattice_levels(*args, **kwargs)
        levels[-1] = list(levels[-1]) + [levels[-1][0]]
        return levels
    monkeypatch.setattr("orderzeta.zeta.stable_sublattice_levels",
                        doubled_last)
    with pytest.raises(TruncationFailure,
                       match=r"nonzero at degrees \[5\], beyond degree 2"):
        per_class_refinement(o)


# ---------------------------------------------------------------------------
# closed form for the lines orders
# ---------------------------------------------------------------------------

def test_closed_form_two_lines():
    z = nlines_closed_form(2)
    assert z == (IntPoly((1,)), IntPoly((-1,)), IntPoly((0, 1)))


def test_closed_form_three_lines():
    z = nlines_closed_form(3)
    assert z == (IntPoly((1,)), IntPoly((-2, 1)), IntPoly((1,)),
                 IntPoly((0, -2, 1)), IntPoly((0, 0, 1)))


def test_closed_form_value_at_one_four_lines():
    assert sum(nlines_closed_form(4), IntPoly()) == \
        IntPoly((0, 1, -4, 3, 1))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("fq", [F2, F3])
def test_closed_form_matches_enumeration(fq, n):
    closed = IntPoly(c(fq.q) for c in nlines_closed_form(n))
    assert closed == zeta_polynomial(n_lines_order(fq, n)).poly


# precision each (n, q) needs, worked out without enumerating: the
# order-anchored variant asks for more than 3n + 10 digits from n = 4 on
# when the characteristic does not divide n
PLANNED_PRECISION = {4: (22, 24, 22, 24), 5: (30, 30, 30, 25),
                     6: (30, 30, 30, 36)}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_nlines_precision_is_planned(n):
    for k, q in enumerate((2, 3, 4, 5)):
        fq = parse_field(str(q))
        order, plans = planned_nlines_order(fq, n)
        # the plans hold at the planned precision too
        assert plans == (variant_plan(order, order.o_e_lattice),
                         variant_plan(order, order.r_lattice))
        depth = relative_length(order.o_e_lattice, order.conductor_lattice)
        runs = ((order.dual_r_lattice, zeta_j_max(order)),
                (order.o_e_lattice, depth)) + plans
        demand = max(action_digits_needed(base, last) for base, last in runs)
        assert order.precision == max(3 * n + 10, demand)
        want = PLANNED_PRECISION.get(n, (3 * n + 10,) * 4)[k]
        assert order.precision == want


def test_closed_form_guard():
    with pytest.raises(PreconditionViolated):
        nlines_closed_form(1)
    with pytest.raises(PreconditionViolated):
        nlines_closed_form(9)


# ---------------------------------------------------------------------------
# per-class shares of the tallies
# ---------------------------------------------------------------------------

def test_per_class_cusp_char2():
    o = build_order(F2, CUSP2)
    ref = per_class_refinement(o)
    assert ref.labels == ("c0", "c1")
    assert ref.class_sizes == {"c0": 1, "c1": 2}
    assert ref.counts == {"c0": (0, 1, 1, 1, 1, 1),
                          "c1": (1, 0, 2, 2, 2, 2)}
    assert ref.contributions["c0"].coeffs == (0, 1)
    assert ref.contributions["c1"].coeffs == (1, -1, 2)
    assert ref.dual_pairs == {"c0": "c0", "c1": "c1"}
    assert ref.pairing_ok


def test_per_class_node_char2():
    o = build_order(F2, NODE2)
    ref = per_class_refinement(o)
    assert ref.labels == ("c0", "c1")
    assert ref.class_sizes == {"c0": 1, "c1": 1}
    assert ref.counts == {"c0": (0, 1, 2, 3, 4, 5, 6),
                          "c1": (1, 0, 1, 2, 3, 4, 5)}
    assert ref.contributions["c0"].coeffs == (0, 1)
    assert ref.contributions["c1"].coeffs == (1, -2, 2)
    assert ref.pairing_ok
    assert sorted(ref.dual_pairs.values()) == ["c0", "c1"]


@pytest.mark.parametrize("fq,f", [(F2, CUSP2), (F2, NODE2), (F3, CUSP3),
                                  (F3, NODE3), (F3, RAMP5_3)])
def test_class_shares_add_up(fq, f):
    o = build_order(fq, f)
    ref = per_class_refinement(o)
    total = IntPoly()
    for label in ref.labels:
        total = total + ref.contributions[label]
    assert total == zeta_polynomial(o).poly
    assert sum(ref.class_sizes.values()) == class_count_mod_lambda(o)
    assert ref.pairing_ok


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(
    a=st.lists(st.integers(0, 2), min_size=0, max_size=4),
    b=st.lists(st.integers(0, 2), min_size=0, max_size=4),
)
def test_random_quadratic_identities(a, b):
    f = (tuple(b), tuple(a), (1,))
    try:
        o = build_order(F3, f)
    except (NotSquarefree, BadFactorization):
        return
    z = zeta_polynomial(o)
    assert all(z.checks.values())
    assert check_functional_equation(z)
    assert z.poly.degree == 2 * o.delta
    p_at_one, reflected = special_values(z)
    assert p_at_one == reflected == class_count_mod_lambda(o)
    assert factor_periods(o) == tuple(fd.n for fd in o.factors)


@settings(max_examples=10, deadline=None)
@given(
    a=st.lists(st.integers(0, 1), min_size=1, max_size=3),
    b=st.lists(st.integers(0, 1), min_size=0, max_size=4),
)
def test_random_quadratic_identities_char2(a, b):
    # separability in characteristic 2 needs a nonzero linear term
    if not any(a):
        return
    f = (tuple(b), tuple(a), (1,))
    try:
        o = build_order(F2, f)
    except (NotSquarefree, BadFactorization):
        return
    z = zeta_polynomial(o)
    assert all(z.checks.values())
    assert special_values(z)[0] == class_count_mod_lambda(o)
