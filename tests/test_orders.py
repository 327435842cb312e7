"""Order construction: normalization, duals, conductors, certification."""

import random
import sys
from math import gcd
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from orderzeta.errors import (BadFactorization, NotSquarefree,
                              PrecisionExhausted, PreconditionViolated)
from orderzeta.lattices import (_nonzero_entries, class_count_mod_lambda,
                                compose_lattice, identity_lattice, mat_vec,
                                relative_length, resultant_valuation,
                                solve_in_basis, stable_sublattice_levels,
                                trace_dual_lattice)
from orderzeta import orders
from orderzeta.orders import (OrderData, _canonical, _derivative, _pieces,
                              _power_table, base_change_order, build_order,
                              n_lines_order)
from orderzeta.orbital import orbital_bounds
from orderzeta.parsing import parse_field, parse_xpoly
from orderzeta.polynomials import (sp_mul, up_factor, up_mul, up_trim, xp_mul,
                                   xp_trim)
from orderzeta.series import ser_add, ser_mul, ser_pad, ser_val
from orderzeta.zeta import factor_periods

from resultant_oracle import resultant_exact

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
import regen  # noqa: E402

F2 = parse_field("2")
F3 = parse_field("3")
F5 = parse_field("5")

CUSP3 = ((0, 0, 0, 2), (), (1,))          # X^2 - t^3
NODE3 = ((0, 0, 2), (), (1,))             # X^2 - t^2
QUAD3 = ((1,), (), (1,))                  # X^2 + 1, irreducible mod 3
RAMP5_3 = ((0, 0, 0, 0, 0, 2), (), (1,))  # X^2 - t^5 over F_3
QUARTIC3 = ((1, 0, 0, 2, 0, 0, 1), (), (2, 0, 0, 1), (), (1,))


# ---------------------------------------------------------------------------
# worked invariants of the small menagerie
# ---------------------------------------------------------------------------

def test_cusp_invariants():
    o = build_order(F3, CUSP3)
    assert (o.delta, o.rho, o.valres) == (1, 0, 3)
    (fd,) = o.factors
    assert (fd.d, fd.r, fd.n, fd.e, fd.delta) == (1, 1, 1, 2, 1)
    # the normalization is spanned by 1 and X/t
    assert o.o_e_lattice.key == (-1, (1, 0), ((), ((0,),)))
    # conductor t*O + O*X: index 1 in R, 2 in the normalization
    assert o.conductor_lattice.key == (0, (1, 0), ((), ((0,),)))
    assert relative_length(o.r_lattice, o.conductor_lattice) == 1
    assert relative_length(o.o_e_lattice, o.conductor_lattice) == 2


def test_node_invariants():
    o = build_order(F3, NODE3)
    assert (o.delta, o.rho) == (1, 1)
    assert len(o.factors) == 2
    assert all((fd.d, fd.r, fd.e, fd.delta) == (1, 1, 1, 0)
               for fd in o.factors)
    assert relative_length(o.o_e_lattice, o.conductor_lattice) == 2


def test_unramified_quadratic_is_maximal():
    o = build_order(F3, QUAD3)
    assert (o.delta, o.rho) == (0, 0)
    (fd,) = o.factors
    assert (fd.d, fd.r, fd.n, fd.e) == (2, 1, 2, 1)
    assert o.o_e_lattice == identity_lattice(F3, 2)
    assert o.conductor_lattice == identity_lattice(F3, 2)
    assert o.dual_r_lattice == identity_lattice(F3, 2)


def test_deeper_ramified_quadratic():
    o = build_order(F3, RAMP5_3)
    assert (o.delta, o.rho) == (2, 0)
    (fd,) = o.factors
    assert (fd.e, fd.delta) == (2, 2)
    assert relative_length(o.r_lattice, o.conductor_lattice) == 2
    assert relative_length(o.o_e_lattice, o.conductor_lattice) == 4


@pytest.mark.parametrize("fq", [F2, F5])
def test_ramified_cubics(fq):
    neg = fq.neg(1)
    f4 = ((0, 0, 0, 0, neg), (), (), (1,))   # X^3 - t^4
    f5 = ((0, 0, 0, 0, 0, neg), (), (), (1,))  # X^3 - t^5
    o4 = build_order(fq, f4)
    o5 = build_order(fq, f5)
    assert (o4.delta, o4.factors[0].e) == (3, 3)
    assert (o5.delta, o5.factors[0].e) == (4, 3)
    assert relative_length(o4.dual_r_lattice, o4.r_lattice) == 6
    assert relative_length(o5.dual_r_lattice, o5.r_lattice) == 8


def test_line_times_cusp():
    # (X - t)(X^2 - t^3): the branches meet with intersection number 2
    f = ((0, 0, 0, 0, 1), (0, 0, 0, 2), (0, 2), (1,))
    o = build_order(F3, f)
    assert (o.delta, o.rho) == (3, 2)
    assert sorted(fd.delta for fd in o.factors) == [0, 1]
    assert sorted(fd.e for fd in o.factors) == [1, 2]


def test_two_lines_tangent_to_different_order():
    # (X - t)(X - t^2)
    f = ((0, 0, 0, 1), (0, 2, 2), (1,))
    o = build_order(F3, f)
    assert (o.delta, o.rho) == (1, 1)


def test_char2_node_and_cusp():
    node = build_order(F2, ((), (0, 1), (1,)))        # X(X + t)
    assert (node.delta, node.rho, len(node.factors)) == (1, 1, 2)
    cusp = build_order(F2, ((0, 0, 0, 1), (0, 0, 1), (1,)))
    assert (cusp.delta, cusp.rho) == (1, 0)
    assert cusp.factors[0].e == 2


def test_three_distinct_lines():
    f = xp_mul(F5, xp_mul(F5, ((0, 4), (1,)), ((0, 0, 4), (1,))),
               ((0, 0, 0, 4), (1,)))
    o = build_order(F5, f)
    # pairwise contact orders 1, 1, 2 add up
    assert (o.delta, o.rho) == (4, 4)
    assert len(o.factors) == 3
    assert all(fd.delta == 0 for fd in o.factors)


# ---------------------------------------------------------------------------
# the quartic needing residue-field descent, and base change
# ---------------------------------------------------------------------------

def test_descent_quartic():
    o = build_order(F3, QUARTIC3)
    assert o.valres == 6
    assert (o.delta, o.rho) == (2, 0)
    (fd,) = o.factors
    assert (fd.d, fd.r, fd.n, fd.e, fd.delta) == (2, 1, 2, 2, 1)


def test_descent_quartic_base_change():
    o = build_order(F3, QUARTIC3)
    o9 = base_change_order(o, 2)
    assert o9.fq.q == 9
    assert (o9.delta, o9.rho) == (2, 0)
    assert len(o9.factors) == 2
    assert all((fd.d, fd.r, fd.e, fd.delta) == (1, 1, 2, 1)
               for fd in o9.factors)


def test_base_change_degree_one_is_identity():
    o = build_order(F3, CUSP3)
    assert base_change_order(o, 1) is o


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f", [CUSP3, NODE3, RAMP5_3, QUAD3])
def test_dual_colengths_and_chain(f):
    o = build_order(F3, f)
    assert relative_length(o.dual_r_lattice, o.r_lattice) == 2 * o.delta
    assert relative_length(o.dual_r_lattice, o.o_e_lattice) == o.delta
    assert o.dual_r_lattice.contains_lattice(o.o_e_lattice)
    assert o.o_e_lattice.contains_lattice(o.r_lattice)
    assert o.r_lattice.contains_lattice(o.conductor_lattice)


@pytest.mark.parametrize("f", [CUSP3, NODE3])
def test_dual_is_involution_on_stable_lattices(f):
    o = build_order(F3, f)
    g = o.trace_gram_columns
    seen = []
    base = o.dual_r_lattice
    level = stable_sublattice_levels(base, 2, o.action_matrices)[2]
    for lat in (compose_lattice(base, rel) for rel in level):
        dual = trace_dual_lattice(lat, g, o.precision)
        assert trace_dual_lattice(dual, g, o.precision) == lat
        seen.append((lat, dual))
    # duality reverses inclusion
    for a, da in seen:
        for b, db in seen:
            if b.contains_lattice(a):
                assert da.contains_lattice(db)


def test_class_counts_of_small_orders():
    assert class_count_mod_lambda(build_order(F3, CUSP3)) == 4
    assert class_count_mod_lambda(build_order(F5, ((0, 0, 0, 4), (), (1,)))) == 6
    assert class_count_mod_lambda(build_order(F3, NODE3)) == 3
    assert class_count_mod_lambda(build_order(F5, ((0, 0, 4), (), (1,)))) == 5


def test_dual_level_counts_for_counting_layer():
    cusp = build_order(F3, CUSP3)
    levels = stable_sublattice_levels(cusp.dual_r_lattice, 4,
                                      cusp.action_matrices)
    assert [len(l) for l in levels] == [1, 1, 4, 4, 4]
    node = build_order(F3, NODE3)
    levels = stable_sublattice_levels(node.dual_r_lattice, 4,
                                      node.action_matrices)
    assert [len(l) for l in levels] == [1, 1, 4, 7, 10]


# ---------------------------------------------------------------------------
# power-basis arithmetic accessors
# ---------------------------------------------------------------------------

def test_multiplication_and_trace():
    o = build_order(F3, CUSP3)
    w = o.precision
    e1 = ((0,) * w, (1,) + (0,) * (w - 1))
    sq = o.multiply_vectors(e1, e1, w)
    # X * X = t^3
    assert sq[0][:5] == (0, 0, 0, 1, 0)
    assert not any(sq[1])


def power_basis_product(fq, pw, n, v, w_vec, prec):
    """The product of two coordinate vectors in the power basis, as a
    convolution of series followed by the reduction of X^n .. X^(2n-2)
    through the power table pw, kept as an oracle for multiply_vectors."""
    width = min(prec, len(pw[0][0]))
    conv = [(0,) * width for _ in range(2 * n - 1)]
    for i in range(n):
        a = v[i] if i < len(v) else ()
        if not any(a[:width]):
            continue
        for j in range(n):
            b = w_vec[j] if j < len(w_vec) else ()
            if not any(b[:width]):
                continue
            conv[i + j] = ser_add(fq, conv[i + j],
                                  ser_mul(fq, a[:width], b[:width], width))
    out = list(conv[:n]) + [(0,) * width] * max(0, n - len(conv))
    for k in range(n, 2 * n - 1):
        if any(conv[k]):
            for i in range(n):
                out[i] = ser_add(fq, out[i],
                                 ser_mul(fq, conv[k], pw[k][i], width))
    return tuple(out)


@pytest.mark.parametrize("fq, f, factors", [
    (F3, CUSP3, 1), (F3, RAMP5_3, 1),
    (F3, NODE3, 2), (F2, ((), (0, 1), (1,)), 2),
    (F3, ((), (0, 0, 2), (), (1,)), 3),                     # X(X - t)(X + t)
    (F5, ((0, 0, 0, 0, 0, 0, 4), (0, 0, 0, 1, 1, 1), (0, 4, 4, 4), (1,)), 3),
])
def test_multiply_vectors_matches_the_power_basis_product(fq, f, factors):
    # the last f is (X - t)(X - t^2)(X - t^3)
    o = build_order(fq, f)
    assert len(o.factors) == factors
    pw = _power_table(fq, o.f, o.precision, 2 * o.n - 1)
    for prec in (o.precision, o.precision // 3):
        cols = [c for lat in (o.o_e_lattice, o.dual_r_lattice,
                              o.conductor_lattice)
                for c in lat.columns(prec)]
        for v in cols:
            for z in cols:
                assert (o.multiply_vectors(v, z, prec)
                        == power_basis_product(fq, pw, o.n, v, z, prec))


# ---------------------------------------------------------------------------
# certification and automatic factorization
# ---------------------------------------------------------------------------

def test_residue_data_of_one_factor():
    # (e, n) of single irreducible factors, known by hand: build_order
    # reads them off the normalization whether or not the factor is
    # supplied
    for fq, g, e, n in (
            (F3, CUSP3, 2, 1),
            (F3, QUAD3, 1, 2),
            (F3, ((0, 2), (1,)), 1, 1),
            (F2, ((0, 0, 0, 0, 0, 1), (), (), (1,)), 3, 1),
            (F3, QUARTIC3, 2, 2),
            # (X - 1)^2 - t^3, a cusp moved away from the origin
            (F3, ((1, 0, 0, 2), (1,), (1,)), 2, 1)):
        for factors in (None, (g,)):
            (fd,) = build_order(fq, g, factors=factors).factors
            assert (fd.e, fd.n) == (e, n)


def test_a_reducible_supplied_factor_fails_the_branch_count():
    for fq, f in (
            (F3, NODE3),                         # splits along the residual
            (F2, ((), (0, 1), (1,))),            # divisible by X
            # (X^2 - t)(X^2 - t^3): two Newton segments
            (F3, ((0, 0, 0, 0, 1), (), (0, 2, 2), (), (1,)))):
        with pytest.raises(BadFactorization,
                           match="^f has 2 branches but 1 factors; supply "
                                 "a factorization into irreducible "
                                 "factors$"):
            build_order(fq, f, factors=(f,))


def test_recentered_cusp_is_one_exact_piece():
    # (X - 1)^2 - t^3 is a cusp moved away from the origin
    f = ((1, 0, 0, 2), (1,), (1,))
    pieces = build_order(F3, f).factors
    assert len(pieces) == 1
    assert pieces[0].coeffs == xp_trim(f)
    assert pieces[0].window is None


def test_auto_factor_splits_recentered_pair():
    # (X - 1 - t)(X - 1 - t^2): both roots reduce to 1 mod t
    a = ((2, 2), (1,))
    b = ((2, 0, 2), (1,))
    f = xp_mul(F3, a, b)
    pieces = build_order(F3, f).factors
    assert len(pieces) == 2
    assert sorted(p.degree for p in pieces) == [1, 1]
    def pad4(poly):
        return tuple(tuple(c[:4]) + (0,) * (4 - min(4, len(c))) for c in poly)

    got = sorted(pad4(p.coeffs) for p in pieces)
    want = sorted([pad4(a), pad4(b)])
    assert got == want


def test_auto_factor_peels_x():
    pieces = build_order(F2, ((), (0, 1), (1,))).factors
    assert sorted(p.coeffs for p in pieces) == [((), (1,)), ((0, 1), (1,))]
    assert all(p.window is None for p in pieces)


def test_auto_factor_three_lines():
    f = xp_mul(F5, xp_mul(F5, ((0, 4), (1,)), ((0, 0, 4), (1,))),
               ((0, 0, 0, 4), (1,)))
    pieces = build_order(F5, f).factors
    assert [p.degree for p in pieces] == [1, 1, 1]
    roots = sorted(tuple(p.coeffs[0][:4]) for p in pieces)
    assert roots == [(0, 0, 0, 4), (0, 0, 4, 0), (0, 4, 0, 0)]


def test_auto_factor_rescales_integral_slope():
    # (X - t)(X - 2t): residual X^2 but the polygon has slope one
    f = xp_mul(F3, ((0, 2), (1,)), ((0, 1), (1,)))
    pieces = build_order(F3, f).factors
    assert sorted(tuple(c[:3] for c in p.coeffs) for p in pieces) == [
        ((0, 1, 0), (1, 0, 0)), ((0, 2, 0), (1, 0, 0))]


def test_auto_factor_separates_an_exact_root_inside_a_root_cluster():
    # X (X - t) (X + 1): the Hensel split leaves X (X - t) known to a
    # window, with a constant coefficient that is zero to it; the slope-1
    # segment is fixed by the X coefficient alone
    f = xp_mul(F3, xp_mul(F3, ((), (1,)), ((0, 2), (1,))), ((1,), (1,)))
    o = build_order(F3, f)
    pieces = o.factors
    assert [p.degree for p in pieces] == [1, 1, 1]
    assert sorted(ser_pad(p.coeffs[0], 3) for p in pieces) == [
        (0, 0, 0), (0, 2, 0), (1, 0, 0)]
    assert all(p.window is not None for p in pieces)
    assert (o.delta, o.rho) == (1, 1)


def test_fractional_slope_needs_explicit_factors():
    fa = ((0, 2), (), (1,))          # X^2 - t
    fb = ((0, 0, 0, 2), (), (1,))    # X^2 - t^3
    f = xp_mul(F3, fa, fb)
    with pytest.raises(BadFactorization, match="2 branches but 1 factors"):
        build_order(F3, f)
    o = build_order(F3, f, factors=(fa, fb))
    assert (o.delta, o.rho) == (3, 2)
    assert sorted(fd.delta for fd in o.factors) == [0, 1]
    assert all(fd.e == 2 for fd in o.factors)


def test_auto_factor_splits_two_residual_cubics_over_f256():
    # the residual is a product of two irreducible cubics late in the
    # counter order, which a sweep over the 16.8 M monic cubics took 78-95 s
    # to split (2-vCPU host)
    fq = parse_field("2^8:u^8+u^4+u^3+u+1")
    resid = up_mul(fq, (252, 255, 255, 1), (246, 255, 255, 1))
    f = ((resid[0], 1),) + tuple((c,) for c in resid[1:])    # + t
    start = perf_counter()
    o = build_order(fq, f)
    assert perf_counter() - start < 5
    assert (o.delta, o.rho) == (0, 0)
    assert [(fd.d, fd.r, fd.n, fd.e, fd.delta) for fd in o.factors] == [
        (3, 1, 3, 1, 0), (3, 1, 3, 1, 0)]
    assert [fd.coeffs[0][:3] for fd in o.factors] == [
        (246, 41, 137), (252, 41, 137)]


def test_supplied_factors_any_order_same_result():
    for fq, fa, fb in (
            (F3, ((0, 2), (1,)), ((0, 0, 0, 2), (), (1,))),
            # X + t^12 and X + t^12 + t^13 agree on their first 12 digits
            (F2, ((0,) * 12 + (1,), (1,)), ((0,) * 12 + (1, 1), (1,)))):
        f = xp_mul(fq, fa, fb)
        o1 = build_order(fq, f, factors=(fa, fb))
        o2 = build_order(fq, f, factors=(fb, fa))
        assert o1.signature() == o2.signature()
        assert ([fd.coeffs for fd in o1.factors]
                == [fd.coeffs for fd in o2.factors])


# ---------------------------------------------------------------------------
# rejection paths
# ---------------------------------------------------------------------------

def test_not_squarefree_rejected():
    with pytest.raises(NotSquarefree):
        build_order(F3, ((), (), (1,)))              # X^2
    with pytest.raises(NotSquarefree):
        build_order(F3, ((0, 0, 1), (0, 1), (1,)))   # (X - t)^2
    with pytest.raises(NotSquarefree):
        # X^3 - t^4 in characteristic three has zero derivative
        build_order(F3, ((0, 0, 0, 0, 2), (), (), (1,)))


def test_bad_inputs_rejected():
    with pytest.raises(BadFactorization):
        build_order(F3, ((1,), (0, 2)))              # not monic
    with pytest.raises(BadFactorization):
        build_order(F3, ((1,),))                     # constant
    with pytest.raises(BadFactorization):
        build_order(F3, NODE3, factors=(((0, 2), (1,)), ((0, 2), (1,))))
    with pytest.raises(BadFactorization):
        build_order(F3, NODE3, factors=(NODE3,))     # reducible factor


def test_precision_guards():
    with pytest.raises(PrecisionExhausted):
        build_order(F3, RAMP5_3, precision=4)
    f = (tuple([0] * 50 + [2]), (1,))                # X - t^50
    o = build_order(F3, f)
    assert o.delta == 0


# ---------------------------------------------------------------------------
# windowed input, determinism, stability
# ---------------------------------------------------------------------------

def test_windowed_input_matches_exact():
    exact = build_order(F3, CUSP3)
    win = 20
    padded = tuple(tuple(c) + (0,) * (win - len(c)) for c in CUSP3)
    approx = build_order(F3, padded, f_window=win)
    assert approx.delta == exact.delta
    assert approx.rho == exact.rho
    assert approx.o_e_lattice == exact.o_e_lattice
    assert approx.dual_r_lattice == exact.dual_r_lattice
    assert [(fd.d, fd.r, fd.n, fd.e, fd.delta) for fd in approx.factors] == \
        [(fd.d, fd.r, fd.n, fd.e, fd.delta) for fd in exact.factors]


def test_windowed_discriminant_vanishing_to_the_window_exits_4():
    # X^2 + t^3 over F_2 to 10 digits: the squarefree X^2 + t^20*X + t^3
    # agrees with it there, so the window cannot decide squarefreeness.
    win = 10
    padded = tuple(tuple(c) + (0,) * (win - len(c))
                   for c in ((0, 0, 0, 1), (), (1,)))
    with pytest.raises(PrecisionExhausted, match="10-digit window") as info:
        build_order(F2, padded, f_window=win)
    assert info.value.exit_code == 4
    assert build_order(F2, ((0, 0, 0, 1), (0,) * 20 + (1,), (1,))).delta == 1
    with pytest.raises(NotSquarefree) as info:
        build_order(F2, ((1,), (), (1,)))            # (X + 1)^2, exact
    assert info.value.exit_code == 3


def _random_xpoly(rng, fq, degree, monic=True):
    """An X-polynomial of the given degree with exact F_q[t] coefficients
    of t-degree up to 4, monic or with a random nonzero leading one."""
    def coeff():
        return up_trim(rng.randrange(fq.q) for _ in range(rng.randint(0, 5)))
    lead = (1,) if monic else (coeff() or (1,))
    return tuple(coeff() for _ in range(degree)) + (lead,)


def test_exact_resultant_valuation_matches_bareiss_oracle():
    # every third pair shares a squared factor, so about a third of the
    # resultants are zero
    rng = random.Random(8)
    fields = [parse_field(str(q)) for q in (2, 3, 4, 5, 9)]
    seen = {"zero": 0, "nonzero": 0}
    for k in range(600):
        fq = fields[k % len(fields)]
        if k % 3:
            f = _random_xpoly(rng, fq, rng.randint(1, 4))
            g = _random_xpoly(rng, fq, rng.randint(1, 4),
                              monic=rng.random() < 0.5)
        else:
            h = _random_xpoly(rng, fq, 1)
            f = xp_mul(fq, xp_mul(fq, h, h),
                       _random_xpoly(rng, fq, rng.randint(0, 2)))
            g = (_derivative(fq, f) if rng.random() < 0.5 else
                 xp_mul(fq, h, _random_xpoly(rng, fq, rng.randint(0, 2))))
        want = ser_val(resultant_exact(fq, f, g))
        assert resultant_valuation(fq, f, g, None) == want, (fq.q, f, g)
        seen["zero" if want is None else "nonzero"] += 1
    assert seen["zero"] >= 150 and seen["nonzero"] >= 300, seen


@pytest.mark.parametrize("q, f, g, val", [
    (2, ((), (1,), (), (), (1,)),
     ((0, 0, 0, 0, 0, 1, 1), (), (0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1),
      (0, 0, 0, 0, 0, 1, 1)), 17),
    (2, ((0, 1, 1, 1), (0, 1, 1, 1), (), (0, 1, 0, 1), (1,)),
     ((0, 0, 0, 1, 1), (0, 0, 0, 0, 1), (0, 0, 0, 0, 1), (0, 0, 0, 0, 1)), 12),
    (3, ((0, 0, 2), (0, 0, 2), (0, 0, 1), (0, 0, 2), (0, 2, 1), (1,)),
     ((), (), (), (), (2,)), 8),
])
def test_exact_resultant_valuation_at_its_planned_window(q, f, g, val):
    # pairs whose multipliers start with zero digits; unless those move
    # into the shift, the elimination loses its last pivot at 2D + 2
    fq = parse_field(str(q))
    assert ser_val(resultant_exact(fq, f, g)) == val
    assert resultant_valuation(fq, f, g, None) == val


def test_zero_exact_resultants_keep_their_errors_and_budget():
    square = ((1,), (2,), (1,))                  # (X + 1)^2 over F_3
    with pytest.raises(NotSquarefree, match="f and its derivative share"):
        build_order(F3, square)
    # (X - s)^2 with s = t + ... + t^k recenters k times before it reaches
    # X^2, which the walker peels into X * X; a budget of 3 recenterings
    # is what build_order gives a discriminant of valuation zero
    def line(k):
        return (tuple(F3.neg(c) for c in (0,) + (1,) * k), (1,))
    lin = line(3)
    pieces = _pieces(F3, xp_mul(F3, lin, lin), None, 24, 3)
    assert [coeffs for coeffs, _ in pieces] == [lin, lin]
    with pytest.raises(BadFactorization, match="did not terminate"):
        _pieces(F3, xp_mul(F3, line(4), line(4)), None, 24, 3)


def test_build_is_deterministic():
    a = build_order(F5, ((0, 0, 0, 4), (), (1,)))
    b = build_order(F5, ((0, 0, 0, 4), (), (1,)))
    assert a.signature() == b.signature()
    assert a.trace_gram_columns == b.trace_gram_columns


def test_explicit_precision_stable():
    # the default working precision is 6*3 + 4*2 + 16 + 4 = 46 digits
    base = build_order(F3, CUSP3)
    wide = build_order(F3, CUSP3, precision=56)
    assert base.signature() == wide.signature()


# ---------------------------------------------------------------------------
# the lines family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fq", [F2, F3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_n_lines_order(fq, n):
    o = n_lines_order(fq, n)
    assert isinstance(o, OrderData)
    assert (o.f, o.f_window, o.valres, o.rho, o.factors) == (None,) * 5
    assert repr(o) == f"OrderData(n={n}, delta={n - 1}, rho=None, " \
        "factors=None)"
    assert factor_periods(o) == (1,) * n
    with pytest.raises(PreconditionViolated, match="per-factor data"):
        orbital_bounds(o)
    # the product is coordinatewise
    v = tuple(((k + 1) % fq.p, 1) for k in range(n))
    assert o.multiply_vectors(v, v, 3) == \
        tuple(ser_mul(fq, e, e, 3) for e in v)
    assert o.delta == n - 1
    assert relative_length(o.dual_r_lattice, o.r_lattice) == 2 * (n - 1)
    assert o.o_e_lattice.contains_lattice(o.r_lattice)
    assert o.r_lattice.contains_lattice(o.conductor_lattice)
    # the acting matrices map the order lattice into itself
    w = o.precision
    cols = o.r_lattice.columns(w)
    for mat in o.action_matrices:
        entries = _nonzero_entries(mat)
        for c in cols:
            img = mat_vec(fq, entries, c, w)
            assert o.r_lattice.contains_vector(img, o.r_lattice.scale)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_products_of_distinct_lines(data):
    q = data.draw(st.sampled_from([2, 3]), label="q")
    fq = F2 if q == 2 else F3
    count = data.draw(st.integers(2, 3), label="count")
    roots = data.draw(
        st.lists(st.tuples(st.integers(1, q - 1), st.integers(1, 3)),
                 min_size=count, max_size=count, unique=True),
        label="roots")
    f = ((1,),)
    for u, k in roots:
        root = (0,) * k + (u,)
        f = xp_mul(fq, f, (tuple(fq.neg(c) for c in root), (1,)))
    o = build_order(fq, f)
    want_rho = 0
    for i in range(count):
        for j in range(i + 1, count):
            ui, ki = roots[i]
            uj, kj = roots[j]
            if ki != kj:
                want_rho += min(ki, kj)
            else:
                want_rho += ki + (1 if ui == uj else 0)
    assert o.rho == want_rho
    assert o.delta == want_rho
    assert all(fd.delta == 0 and fd.e == 1 for fd in o.factors)


def _certified_factor(rng, fq):
    """A random monic irreducible factor with its (e, n) known by
    construction: a line (1, 1), a binomial X^e - u t^k with gcd(k, e) = 1
    (e, 1), or a quadratic irreducible mod t (1, 2); None when the
    quadratic's residual splits."""
    unit = rng.randrange(1, fq.q)
    kind = rng.randrange(3)
    if kind == 0:
        root = tuple(rng.randrange(fq.q) for _ in range(rng.randint(1, 3)))
        g, er = (tuple(fq.neg(c) for c in root), (1,)), (1, 1)
    elif kind == 1:
        e = rng.choice([2, 3])
        k = rng.choice([k for k in range(1, 6) if gcd(k, e) == 1])
        g = ((0,) * k + (fq.neg(unit),),) + ((),) * (e - 1) + ((1,),)
        er = (e, 1)
    else:
        g = (tuple(rng.randrange(fq.q) for _ in range(2)),
             tuple(rng.randrange(fq.q) for _ in range(2)), (1,))
        er = (1, 2)
    g = tuple(up_trim(c) for c in g)
    # up_factor lists factors by ascending degree
    if kind == 2 and len(up_factor(fq, [c[0] if c else 0
                                        for c in g])[0][0]) != 3:
        return None
    return g, er


@pytest.mark.parametrize("q", ["2", "3", "5", "9"])
def test_supplied_and_automatic_factorizations_agree(q):
    fq = parse_field(q)
    rng = random.Random(1303 + int(q))
    compared = 0
    while compared < 5:
        draws = [_certified_factor(rng, fq) for _ in range(rng.randint(1, 3))]
        if None in draws or len({g for g, _ in draws}) < len(draws):
            continue
        factors = [g for g, _ in draws]
        f = ((1,),)
        for g in factors:
            f = xp_mul(fq, f, g)
        try:
            auto = build_order(fq, f)
        except NotSquarefree:
            continue
        except BadFactorization:
            # fractional-slope segments that only a supplied
            # factorization separates
            continue
        supplied = build_order(fq, f, factors=factors)
        for o in (auto, supplied):
            assert sorted((fd.e, fd.n) for fd in o.factors) == \
                sorted(er for _, er in draws)
        assert auto.signature() == supplied.signature()
        compared += 1


@pytest.mark.parametrize("q", ["2", "3", "5", "9"])
def test_branch_colengths_match_each_factor_normalized_alone(q):
    # build_order takes a factor's colength from resultant valuations;
    # the factor built as an order of its own is normalized directly
    fq = parse_field(q)
    rng = random.Random(2420 + int(q))
    compared = 0
    while compared < 3:
        draws = [_certified_factor(rng, fq) for _ in range(rng.randint(2, 3))]
        if None in draws or len({g for g, _ in draws}) < len(draws):
            continue
        f = ((1,),)
        for g, _ in draws:
            f = xp_mul(fq, f, g)
        try:
            o = build_order(fq, f)
        except (NotSquarefree, BadFactorization):
            continue
        for fd in o.factors:
            alone = build_order(fq, fd.coeffs, f_window=fd.window)
            assert fd.d * fd.delta == alone.delta
        # count the orders with a singular branch
        compared += any(fd.delta for fd in o.factors)


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2, 3]),
       coeffs=st.lists(st.lists(st.integers(0, 2), max_size=4),
                       min_size=1, max_size=4))
def test_auto_factor_certifies_its_product_or_raises_a_library_error(
        q, coeffs):
    # the walker's pieces, at the budget build_order gives an exact f,
    # multiply back to f whether or not f has one branch per piece
    fq = F2 if q == 2 else F3
    f = tuple(up_trim([c % q for c in cs]) for cs in coeffs) + ((1,),)
    v = resultant_valuation(fq, f, _derivative(fq, f), None)
    if v is None:
        return
    try:
        pieces = _canonical(_pieces(fq, f, None, 30, v + 3))
    except (PreconditionViolated, PrecisionExhausted):
        return
    width = min([30] + [pw for _, pw in pieces if pw is not None])
    prod = (ser_pad((1,), width),)
    for pc, _ in pieces:
        prod = sp_mul(fq, prod, pc, width)
    assert prod == tuple(ser_pad(c, width) for c in xp_trim(f))
    assert sum(len(pc) - 1 for pc, _ in pieces) == len(xp_trim(f)) - 1


@settings(max_examples=25, deadline=None)
@given(
    a=st.lists(st.integers(0, 2), min_size=0, max_size=4),
    b=st.lists(st.integers(0, 2), min_size=0, max_size=4),
)
def test_random_quadratics_have_consistent_invariants(a, b):
    f = (tuple(a), tuple(b), (1,))
    try:
        o = build_order(F3, f)
    except (NotSquarefree, BadFactorization):
        return
    assert 2 * o.delta <= o.valres
    assert o.delta == o.rho + sum(fd.d * fd.delta for fd in o.factors)
    assert o.dual_r_lattice.contains_lattice(o.o_e_lattice)


# ---------------------------------------------------------------------------
# rho from the discriminants
# ---------------------------------------------------------------------------

def _pairwise_rho(order):
    """The sum of the resultant valuations of every pair of factors, each
    read to the shorter factor window (exact for two exact factors)."""
    total = 0
    for i, a in enumerate(order.factors):
        for b in order.factors[i + 1:]:
            windows = [w for w in (a.window, b.window) if w is not None]
            val = resultant_valuation(order.fq, a.coeffs, b.coeffs,
                                      min(windows) if windows else None)
            assert val is not None
            total += val
    return total


def _with_rebuilds(order):
    """The order, each factor built on its own as levi_product does, and
    for a factor with a larger residue field its extension rebuilds."""
    yield order
    for fd in order.factors:
        sub = build_order(order.fq, fd.coeffs, f_window=fd.window)
        yield sub
        if fd.d > 1:
            big = base_change_order(sub, fd.d)
            yield big
            piece = big.factors[0]
            yield build_order(big.fq, piece.coeffs, f_window=piece.window)


def _analyze_order(argv):
    flags = dict(zip(argv[1::2], argv[2::2]))
    fq = parse_field(flags["--q"])
    factors = flags.get("--factors")
    return build_order(fq, parse_xpoly(fq, flags["--f"]), factors=None
                       if factors is None else [parse_xpoly(fq, g)
                                                for g in factors.split(";")])


GOLDEN_ANALYZE = [(name, argv) for name, argv in regen.CASES
                  if argv[0] == "analyze"]


@pytest.mark.parametrize("name, argv", GOLDEN_ANALYZE,
                         ids=[name for name, _ in GOLDEN_ANALYZE])
def test_rho_from_discriminants_matches_pairwise_resultants(name, argv):
    for order in _with_rebuilds(_analyze_order(argv)):
        assert order.rho == _pairwise_rho(order)


def test_rho_from_discriminants_on_seeded_multi_factor_orders():
    rng = random.Random(7)
    seen = {2: 0, 3: 0}
    while min(seen.values()) < 4:
        fq = rng.choice((F2, F3, F5))
        count = rng.choice((2, 3))
        # distinct lines X - c*t^k, one of them perhaps a quadratic
        # X^2 - c*t^k instead
        roots = rng.sample([(c, k) for c in range(1, fq.p)
                            for k in range(1, 4)], count)
        factors = [((0,) * k + (fq.neg(c),), (1,)) for c, k in roots]
        if rng.random() < 0.5:
            c, k = roots[0]
            factors[0] = ((0,) * (2 * k + 1) + (fq.neg(c),), (), (1,))
        f = ((1,),)
        for g in factors:
            f = xp_mul(fq, f, g)
        try:
            order = build_order(fq, f, factors=factors)
        except (NotSquarefree, BadFactorization):
            continue
        seen[count] += 1
        for sub in _with_rebuilds(order):
            assert sub.rho == _pairwise_rho(sub)


# ---------------------------------------------------------------------------
# the Frobenius matrix of S/tS
# ---------------------------------------------------------------------------

def _frobenius_by_powers(fq, s_lat, mul, n, w):
    """Columns of x -> x^q on S/tS from q - 1 products of each basis
    column in the order, which needs about q times the scale of S in
    digits."""
    out = []
    for col in s_lat.columns(w):
        y = col
        for _ in range(fq.q - 1):
            y = mul(y, col, w)
        coords = solve_in_basis(s_lat, y, s_lat.scale * fq.q)
        out.append(tuple(c[0] for c in coords))
    return out


@pytest.mark.parametrize("q, f", [
    ("5", "X^2-t^5"), ("5", "X^3-t^4"), ("5", "(X-t)*(X-t^3)"),
    ("7", "X^2-t^5"), ("7", "X^2+t^2*X+t^5"), ("9", "X^2-t^5"),
    ("9", "(X-t)*(X^2-t^3)"),
])
def test_frobenius_from_the_table_matches_q_minus_one_products(
        monkeypatch, q, f):
    fq = parse_field(q)
    rounds = []

    def spy(fq_, s_lat, mul, n, w):
        rad, frob = radical(fq_, s_lat, mul, n, w)
        rounds.append(s_lat.scale)
        assert [tuple(c) for c in frob] == \
            _frobenius_by_powers(fq_, s_lat, mul, n, w)
        return rad, frob

    radical = orders._radical_lattice
    monkeypatch.setattr(orders, "_radical_lattice", spy)
    # a window wide enough for the q - 1 products
    build_order(fq, parse_xpoly(fq, f), precision=120)
    assert len(rounds) >= 4 and min(rounds) < 0
