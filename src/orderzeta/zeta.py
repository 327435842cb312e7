"""Counting polynomial of an order and its exact identities.

The sublattices of the duality envelope that are stable under the order
are tallied by colength, and the tally series times the factor periods
product collapses to a polynomial with integer coefficients.  The
polynomial has constant term 1 and degree twice the normalization
colength, its coefficients obey the exact symmetry c[2d-k] =
q^(d-k)*c[k], and its value at 1 equals the number of stable lattice
classes modulo scaling.  The same assembly applied to a lattice other
than the duality envelope keeps only the value identity.  For the
coordinate-lines congruence orders a closed form with coefficients
polynomial in q is available.
"""

from __future__ import annotations

from math import comb, gcd

from .errors import (InvariantViolation, NonIntegralSpecialValue,
                     PreconditionViolated, TruncationFailure)
from .lattices import (action_digits_needed, compose_lattice, is_homothetic,
                       product_lattice, relative_length,
                       sandwich_representatives, stable_sublattice_levels,
                       trace_dual_lattice)
from .orders import n_lines_order
from .polynomials import IntPoly


def factor_periods(order):
    """Residue degree of each field factor; the tally series of a
    maximal order is the product of geometric series in t^period."""
    factors = getattr(order, "factors", None)
    if factors is not None:
        return tuple(fd.n for fd in factors)
    return (1,) * order.n


class ZetaPolynomial:
    """Counting polynomial together with its verification record.

    quot_counts[j] is the number of stable sublattices of colength j in
    the reference lattice; poly is the collapsed polynomial; checks
    records which exact identities were confirmed.  class_count is
    filled when the assembly had to compare against the number of
    lattice classes (the variant path), otherwise None.
    """

    __slots__ = ("poly", "q", "delta", "quot_counts", "checks",
                 "class_count")

    def __init__(self, poly, q, delta, quot_counts, checks,
                 class_count=None):
        if poly.coefficient(0) != 1:
            raise InvariantViolation(
                "counting polynomial must have constant term 1, got "
                f"{poly.coefficient(0)}")
        self.poly = poly
        self.q = q
        self.delta = delta
        self.quot_counts = tuple(quot_counts)
        self.checks = checks
        self.class_count = class_count

    def __repr__(self):
        return (f"ZetaPolynomial({self.poly.text()}, q={self.q}, "
                f"delta={self.delta})")


def _tally(order, base, last, ceiling):
    """Number of stable sublattices of base, by colength 0..last."""
    return tuple(len(level) for level in stable_sublattice_levels(
        base, last, order.action_matrices, ceiling=ceiling))


def _collapse(counts, periods, top):
    """Multiply the tally series by prod (1 - t^period) and cut it to a
    polynomial of degree at most top.  The product is exact out to the
    window of the counts, and every coefficient there above top must
    vanish (TruncationFailure otherwise)."""
    numer = list(counts)
    for p in periods:
        for k in range(len(numer) - 1, p - 1, -1):
            numer[k] -= numer[k - p]
    bad = [k for k in range(top + 1, len(numer)) if numer[k]]
    if bad:
        raise TruncationFailure(
            f"the collapsed tally of {len(counts)} terms is nonzero at "
            f"degrees {bad}, beyond degree {top}")
    return IntPoly(numer[:top + 1])


def _zeta_record(order, poly, counts, class_count=None):
    """The verified record of a collapsed tally.  The value identity is
    P(1) = class_count when a class count is given, and P(1) =
    q^delta * P(1/q) otherwise."""
    checks = {"truncation_ok": True}
    z = ZetaPolynomial(poly, order.fq.q, order.delta, counts, checks,
                       class_count=class_count)
    checks["degree_ok"] = poly.degree == 2 * order.delta
    checks["fe_ok"] = check_functional_equation(z)
    if class_count is not None:
        checks["sv_ok"] = poly(1) == class_count
        return z
    try:
        p_at_one, reflected = special_values(z)
        checks["sv_ok"] = p_at_one == reflected
    except NonIntegralSpecialValue:
        checks["sv_ok"] = False
    return z


def quot_series(order, ceiling=None):
    """Number of stable sublattices of the duality lattice, by colength
    0..zeta_j_max(order).  The count of colength-j sublattices that are
    stable under the order's action matrices equals the number of
    fractional ideals of that colength inside the duality lattice."""
    return _tally(order, order.dual_r_lattice, zeta_j_max(order), ceiling)


def zeta_j_max(order):
    """The tally length zeta_polynomial uses, the certification window
    2*delta + (sum of the periods) + 2.  Every count past it is a
    coefficient of P(t) / prod (1 - t^period), so a longer tally adds
    nothing."""
    return 2 * order.delta + sum(factor_periods(order)) + 2


def zeta_polynomial(order, ceiling=None):
    """Assemble and verify the counting polynomial of an order.

    The tally series is collapsed by the periods product; every
    coefficient beyond degree 2*delta must vanish within the computed
    window (TruncationFailure otherwise).  The degree, symmetry, and
    value identities are recorded as booleans in the checks field.
    """
    counts = quot_series(order, ceiling=ceiling)
    poly = _collapse(counts, factor_periods(order), 2 * order.delta)
    return _zeta_record(order, poly, counts)


def check_functional_equation(z):
    """Exact coefficient symmetry c[2d-k] = q^(d-k)*c[k] for all k;
    false whenever the degree exceeds 2d."""
    d, q, poly = z.delta, z.q, z.poly
    if poly.degree > 2 * d:
        return False
    return all(
        poly.coefficient(2 * d - k) == q ** (d - k) * poly.coefficient(k)
        for k in range(d + 1))


def special_values(z):
    """The pair (P(1), q^delta * P(1/q)), exactly.  The second value is
    asserted to be an integer; for the duality-lattice polynomial the
    two are equal and count the lattice classes modulo scaling.

    With D = max(delta, deg P), q^delta * P(1/q) is N / q^(D - delta)
    for the integer N = sum of c_k * q^(D - k)."""
    q, delta, coeffs = z.q, z.delta, z.poly.coeffs
    top = max(delta, len(coeffs) - 1)
    numer = sum(c * q ** (top - k) for k, c in enumerate(coeffs))
    denom = q ** (top - delta)
    if numer % denom:
        g = gcd(numer, denom)
        raise NonIntegralSpecialValue(
            f"q^delta * P(1/q) = {numer // g}/{denom // g} is not an "
            "integer")
    return z.poly(1), numer // denom


def variant_plan(order, lattice):
    """Where variant_zeta enumerates: (base, last), with base the
    lattice scaled by the power of t that puts it inside the duality
    lattice with the smallest colength gap, and last the tally length
    that certifies the zero tail.  Neither depends on the order's
    precision."""
    if lattice.n != order.n:
        raise PreconditionViolated("lattice rank differs from the order")
    spanned = product_lattice(order.r_lattice, lattice,
                              order.multiply_vectors, order.precision)
    if spanned != lattice:
        raise PreconditionViolated(
            "the lattice is not stable under the order")
    dual = order.dual_r_lattice
    shift = 0
    while not dual.contains_lattice(lattice.shifted(shift)):
        shift += 1
        if shift > 4 * order.precision:
            raise InvariantViolation("could not scale into the duality "
                                     "lattice")
    while dual.contains_lattice(lattice.shifted(shift - 1)):
        shift -= 1
        if shift < -4 * order.precision:
            raise InvariantViolation("unbounded overlattice")
    base = lattice.shifted(shift)
    gap = relative_length(dual, base)
    return base, 2 * order.delta + gap + sum(factor_periods(order)) + 2


def variant_zeta(order, plan, ceiling=None):
    """Counting polynomial assembled from the stable sublattices of an
    arbitrary stable lattice instead of the duality lattice.

    The tally is invariant under scaling the lattice by powers of t, so
    it runs on plan = (base, last) from variant_plan: the lattice
    scaled to sit inside the duality lattice with the smallest colength
    gap, and the tally length.  Only the value identity P(1) = number
    of lattice classes is enforced; the degree and symmetry flags are
    reported but usually fail.  The collapsed series must vanish in its
    last sum(periods) + 2 terms (TruncationFailure otherwise); a longer
    tally is enumerated by passing a plan with a larger length.
    """
    base, last = plan
    periods = factor_periods(order)
    counts = _tally(order, base, last, ceiling)
    poly = _collapse(counts, periods, last - sum(periods) - 2)
    count = len(sandwich_representatives(order, ceiling=ceiling))
    z = _zeta_record(order, poly, counts, class_count=count)
    if not z.checks["sv_ok"]:
        raise InvariantViolation(
            f"variant value P(1) = {poly(1)} differs from the class "
            f"count {count}")
    return z


class ClassRefinement:
    """Partition of the colength tallies by lattice class.

    labels are deterministic ('c0', 'c1', ... in canonical lattice
    order); counts maps a label to its tally row; contributions maps a
    label to its collapsed share of the counting polynomial;
    class_sizes gives the number of scale-normalized representatives in
    each class; dual_pairs maps each label to the label of the class of
    its dual lattice; pairing_ok records the paired coefficient
    symmetry across dual classes.
    """

    __slots__ = ("labels", "class_sizes", "counts", "contributions",
                 "dual_pairs", "pairing_ok")

    def __init__(self, labels, class_sizes, counts, contributions,
                 dual_pairs, pairing_ok):
        self.labels = labels
        self.class_sizes = class_sizes
        self.counts = counts
        self.contributions = contributions
        self.dual_pairs = dual_pairs
        self.pairing_ok = pairing_ok

    def __repr__(self):
        pairs = ", ".join(f"{a}->{b}" for a, b in self.dual_pairs.items())
        return (f"ClassRefinement(classes={len(self.labels)}, "
                f"pairs=[{pairs}], pairing_ok={self.pairing_ok})")


def _class_index(lattice, canonicals, order):
    for idx, rep in enumerate(canonicals):
        if is_homothetic(rep, lattice, order) is not None:
            return idx
    raise InvariantViolation(
        "a stable lattice matched no class representative")


def per_class_refinement(order, ceiling=None):
    """Split the colength tallies by lattice class and verify the paired
    coefficient symmetry between each class and the class of its dual.

    The scale-normalized representatives are grouped into classes under
    multiplication by invertible elements; the canonical representative
    of a class is the first member in the deterministic lattice order.
    Every enumerated sublattice of the duality lattice is assigned to
    exactly one class, each class share must collapse to a polynomial
    of degree at most 2*delta, and the share of a class at coefficient
    2*delta-k must equal q^(delta-k) times the share of its dual class
    at coefficient k.  The tallies run to zeta_j_max(order).
    """
    reps = sandwich_representatives(order, ceiling=ceiling)
    canonicals = []
    sizes = []
    for rep in reps:
        for idx, canon in enumerate(canonicals):
            if is_homothetic(canon, rep, order) is not None:
                sizes[idx] += 1
                break
        else:
            canonicals.append(rep)
            sizes.append(1)
    labels = tuple(f"c{i}" for i in range(len(canonicals)))
    dual = order.dual_r_lattice
    levels = stable_sublattice_levels(dual, zeta_j_max(order),
                                      order.action_matrices, ceiling=ceiling)
    table = [[0] * len(levels) for _ in canonicals]
    for j, level in enumerate(levels):
        for rel in level:
            lattice = compose_lattice(dual, rel)
            table[_class_index(lattice, canonicals, order)][j] += 1
    for j, level in enumerate(levels):
        if sum(row[j] for row in table) != len(level):
            raise InvariantViolation("class tallies do not add up")

    periods = factor_periods(order)
    top = 2 * order.delta
    contributions = [_collapse(row, periods, top) for row in table]

    pair = []
    for canon in canonicals:
        flipped = trace_dual_lattice(canon, order.trace_gram_columns,
                                     order.precision)
        pair.append(_class_index(flipped, canonicals, order))
    pairing_ok = all(pair[pair[i]] == i for i in range(len(pair)))
    q, d = order.fq.q, order.delta
    for i, j in enumerate(pair):
        for k in range(top + 1):
            left = contributions[i].coefficient(top - k)
            right = contributions[j].coefficient(k)
            if k <= d:
                balanced = left == q ** (d - k) * right
            else:
                balanced = q ** (k - d) * left == right
            if not balanced:
                pairing_ok = False
    return ClassRefinement(
        labels, dict(zip(labels, sizes)),
        {lab: tuple(row) for lab, row in zip(labels, table)},
        dict(zip(labels, contributions)),
        {labels[i]: labels[j] for i, j in enumerate(pair)}, pairing_ok)


def _corner_coefficient(binom_power, geom_top, degree):
    """Coefficient of t^degree in (1-t)^binom_power divided by the
    product of (1 - q^j t) for j = 0..geom_top, as a polynomial in q,
    by truncated series multiplication."""
    coeffs = [IntPoly((1,))] + [IntPoly() for _ in range(degree)]
    for _ in range(binom_power):
        for k in range(degree, 0, -1):
            coeffs[k] = coeffs[k] - coeffs[k - 1]
    for j in range(geom_top + 1):
        q_power = IntPoly.monomial(j)
        for k in range(1, degree + 1):
            coeffs[k] = coeffs[k] + q_power * coeffs[k - 1]
    return coeffs[degree]


def planned_nlines_order(fq, n):
    """The lines order at a precision planned before any enumeration,
    with the plans of its two variants: (order, (plan on the
    normalization lattice, plan on the order lattice)).

    The demand of each enumeration the nlines report runs (the tally of
    zeta_polynomial, both variant tallies and the class representatives) is known from its base lattice and length alone
    (action_digits_needed), so the order is built at the default
    precision 3n + 10 when that covers every demand and at the largest
    demand otherwise.  The order-anchored variant needs about 6n digits
    when the characteristic does not divide n, which exceeds the
    default from n = 4 on.  The variant plans are lattices and lengths,
    the same at either precision.
    """
    order = n_lines_order(fq, n)
    plans = (variant_plan(order, order.o_e_lattice),
             variant_plan(order, order.r_lattice))
    depth = relative_length(order.o_e_lattice, order.conductor_lattice)
    runs = ((order.dual_r_lattice, zeta_j_max(order)),
            (order.o_e_lattice, depth)) + plans
    demand = max(action_digits_needed(base, last) for base, last in runs)
    if demand > order.precision:
        order = n_lines_order(fq, n, precision=demand)
    return order, plans


def nlines_closed_form(n):
    """Counting polynomial of the order of n coordinate lines through a
    common point, as a tuple of polynomials in q: entry k is the
    coefficient of t^k.

    The assembly sums, over the number r of coordinates where an ideal
    generator is a unit, comb(n, r) * t^(n-r) * (1-t)^r times the corner
    coefficients of a truncated geometric product; the product depth
    grows by one when r = 0.  Guarded to n <= 8 to keep the symbolic
    size modest.
    """
    if not 2 <= n <= 8:
        raise PreconditionViolated("supported range is 2 <= n <= 8")
    total = [IntPoly() for _ in range(2 * n)]
    for r in range(n + 1):
        extra = 0 if r > 0 else 1
        for c in range(n):
            coeff = _corner_coefficient(n - r, c + extra, n - c - 1)
            for k in range(r + 1):
                total[n - r + k + c] += coeff * (comb(n, r) * comb(r, k)
                                                 * (-1) ** k)
    while not total[-1].coeffs:
        total.pop()
    return tuple(total)
