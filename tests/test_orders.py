"""Order construction: normalization, duals, conductors, certification."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from orderzeta.errors import (BadFactorization, NotSquarefree,
                              PrecisionExhausted)
from orderzeta.lattices import (_nonzero_entries, class_count_mod_lambda,
                                compose_lattice, identity_lattice, mat_vec,
                                relative_length, stable_sublattice_levels,
                                trace_dual_lattice)
from orderzeta.orders import (CertifiedFactor, _derivative,
                              _pair_resultant_val, _resultant_val,
                              auto_factor, base_change_order, build_order,
                              certify_factor, n_lines_order)
from orderzeta.parsing import parse_field
from orderzeta.polynomials import up_trim, xp_mul, xp_trim
from orderzeta.series import ser_val

from resultant_oracle import resultant_exact

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
    level = stable_sublattice_levels(base, 2, o.action_matrices,
                                     o.precision)[2]
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
                                      cusp.action_matrices, cusp.precision)
    assert [len(l) for l in levels] == [1, 1, 4, 4, 4]
    node = build_order(F3, NODE3)
    levels = stable_sublattice_levels(node.dual_r_lattice, 4,
                                      node.action_matrices, node.precision)
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


# ---------------------------------------------------------------------------
# certification and automatic factorization
# ---------------------------------------------------------------------------

def test_certify_factor_values():
    assert certify_factor(F3, CUSP3) == (2, 1)
    assert certify_factor(F3, QUAD3) == (1, 2)
    assert certify_factor(F3, ((0, 2), (1,))) == (1, 1)
    assert certify_factor(F2, ((0, 0, 0, 0, 0, 1), (), (), (1,))) == (3, 1)
    assert certify_factor(F3, QUARTIC3) == (2, 2)


def test_certify_factor_rejects_reducible():
    with pytest.raises(BadFactorization):
        certify_factor(F3, NODE3)            # splits along the residual
    with pytest.raises(BadFactorization):
        certify_factor(F2, ((), (0, 1), (1,)))  # divisible by X
    with pytest.raises(BadFactorization):
        # (X^2 - t)(X^2 - t^3): two Newton segments
        certify_factor(F3, ((0, 0, 0, 0, 1), (), (0, 2, 2), (), (1,)))


def test_certify_factor_recentered():
    # (X - 1)^2 - t^3 is a cusp moved away from the origin
    f = ((1, 0, 0, 2), (1,), (1,))
    assert certify_factor(F3, f) == (2, 1)
    pieces = auto_factor(F3, f, 24)
    assert len(pieces) == 1
    assert pieces[0].coeffs == xp_trim(f)
    assert pieces[0].window is None


def test_auto_factor_splits_recentered_pair():
    # (X - 1 - t)(X - 1 - t^2): both roots reduce to 1 mod t
    a = ((2, 2), (1,))
    b = ((2, 0, 2), (1,))
    f = xp_mul(F3, a, b)
    pieces = auto_factor(F3, f, 24)
    assert len(pieces) == 2
    assert sorted(p.degree for p in pieces) == [1, 1]
    def pad4(poly):
        return tuple(tuple(c[:4]) + (0,) * (4 - min(4, len(c))) for c in poly)

    got = sorted(pad4(p.coeffs) for p in pieces)
    want = sorted([pad4(a), pad4(b)])
    assert got == want


def test_auto_factor_peels_x():
    pieces = auto_factor(F2, ((), (0, 1), (1,)), 16)
    assert sorted(p.coeffs for p in pieces) == [((), (1,)), ((0, 1), (1,))]
    assert all(p.window is None for p in pieces)


def test_auto_factor_three_lines():
    f = xp_mul(F5, xp_mul(F5, ((0, 4), (1,)), ((0, 0, 4), (1,))),
               ((0, 0, 0, 4), (1,)))
    pieces = auto_factor(F5, f, 30)
    assert [p.degree for p in pieces] == [1, 1, 1]
    roots = sorted(tuple(p.coeffs[0][:4]) for p in pieces)
    assert roots == [(0, 0, 0, 4), (0, 0, 4, 0), (0, 4, 0, 0)]


def test_auto_factor_rescales_integral_slope():
    # (X - t)(X - 2t): residual X^2 but the polygon has slope one
    f = xp_mul(F3, ((0, 2), (1,)), ((0, 1), (1,)))
    pieces = auto_factor(F3, f, 24)
    assert sorted(tuple(c[:3] for c in p.coeffs) for p in pieces) == [
        ((0, 1, 0), (1, 0, 0)), ((0, 2, 0), (1, 0, 0))]


def test_fractional_slope_needs_explicit_factors():
    fa = ((0, 2), (), (1,))          # X^2 - t
    fb = ((0, 0, 0, 2), (), (1,))    # X^2 - t^3
    f = xp_mul(F3, fa, fb)
    with pytest.raises(BadFactorization):
        build_order(F3, f)
    o = build_order(F3, f, factors=(fa, fb))
    assert (o.delta, o.rho) == (3, 2)
    assert sorted(fd.delta for fd in o.factors) == [0, 1]
    assert all(fd.e == 2 for fd in o.factors)


def test_supplied_factors_any_order_same_result():
    fa = ((0, 2), (1,))
    fb = ((0, 0, 0, 2), (), (1,))
    f = xp_mul(F3, fa, fb)
    o1 = build_order(F3, f, factors=(fa, fb))
    o2 = build_order(F3, f, factors=(fb, fa))
    assert o1.signature() == o2.signature()
    assert [fd.coeffs for fd in o1.factors] == [fd.coeffs for fd in o2.factors]


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
        assert _resultant_val(fq, f, g, None) == want, (fq.q, f, g)
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
    assert _resultant_val(fq, f, g, None) == val


def test_zero_exact_resultants_keep_their_errors_and_budget():
    square = ((1,), (2,), (1,))                  # (X + 1)^2 over F_3
    with pytest.raises(NotSquarefree, match="f and its derivative share"):
        build_order(F3, square)
    with pytest.raises(NotSquarefree, match="^discriminant vanishes$"):
        auto_factor(F3, square, 20)
    lin = CertifiedFactor(((2,), (1,)), None, 1, 1)
    with pytest.raises(NotSquarefree, match="two factors share a root") \
            as info:
        _pair_resultant_val(F3, lin, lin, 20)
    assert info.value.exit_code == 3
    # (X - s)^2 with s = t + ... + t^k recenters k times before it reaches
    # X^2; a zero discriminant allows a budget of 3 recenterings
    for k, message in ((3, "divisible by X"), (4, "did not terminate")):
        s = (0,) + (1,) * k
        lin = (tuple(F3.neg(c) for c in s), (1,))
        with pytest.raises(BadFactorization, match=message):
            certify_factor(F3, xp_mul(F3, lin, lin))


def test_build_is_deterministic():
    a = build_order(F5, ((0, 0, 0, 4), (), (1,)))
    b = build_order(F5, ((0, 0, 0, 4), (), (1,)))
    assert a.signature() == b.signature()
    assert a.c_inv == b.c_inv and a.c_inv_scale == b.c_inv_scale


def test_explicit_precision_stable():
    base = build_order(F3, CUSP3)
    wide = build_order(F3, CUSP3, precision=base.build_precision + 10)
    assert base.signature() == wide.signature()


# ---------------------------------------------------------------------------
# the lines family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fq", [F2, F3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_n_lines_order(fq, n):
    o = n_lines_order(fq, n)
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
