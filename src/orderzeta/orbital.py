"""Orbit counts for a regular matrix over the Laurent series field.

For a matrix with integral squarefree characteristic polynomial f, the
stable lattice classes modulo scaling form a finite set whose size is
the unit orbital integral.  It is computed three independent ways: as
the value at 1 of the counting polynomial, as the number of sandwich
representatives, and as a product over the factors of f of one-factor
counts weighted by q to the pairwise resultant valuation.  The count is
squeezed between two explicit products of monic polynomials evaluated
at the factor residue sizes, and for a one-factor input whose residue
field matches the base it satisfies an exact linear formula in the
ideal tallies of the order.  A sampled fiber check confirms the block
product structure lattice by lattice.
"""

from __future__ import annotations

import random
from itertools import product as iproduct

from .errors import (BadFactorization, CeilingExceeded, InvariantViolation,
                     MethodDisagreement, NotSquarefree, PrecisionExhausted,
                     PreconditionViolated, RankDeficient)
from .lattices import (_basis_columns, _nonzero_entries,
                       class_count_mod_lambda, enumeration_ceiling,
                       hnf_from_generators, identity_lattice, mat_vec,
                       pad_exact, stable_sublattice_levels)
from .orders import base_change_order, build_order
from .partitions import m_poly, n_poly
from .series import ser_add, ser_mul, ser_pad
from .zeta import special_values, zeta_polynomial

METHODS = ("zeta", "lattice", "levi")


class OrbitInvariants:
    """Numerical invariants that control the orbit count.

    factors is the per-factor data of the order; delta the colength of
    the order in the maximal one; rho the sum of pairwise resultant
    valuations of the factors; elliptic records a single factor; lower
    and upper are the proven two-sided bounds for the count.
    """

    __slots__ = ("factors", "delta", "rho", "elliptic", "lower", "upper")

    def __init__(self, factors, delta, rho, elliptic, lower, upper):
        self.factors = tuple(factors)
        self.delta = delta
        self.rho = rho
        self.elliptic = elliptic
        self.lower = lower
        self.upper = upper

    @property
    def bounds(self):
        return (self.lower, self.upper)

    def __repr__(self):
        return (f"OrbitInvariants(delta={self.delta}, rho={self.rho}, "
                f"elliptic={self.elliptic}, bounds={self.bounds})")


def _factor_data(order):
    factors = getattr(order, "factors", None)
    if factors is None:
        raise PreconditionViolated(
            "per-factor data is required; this order does not carry any")
    return factors


def orbit_invariants(order):
    """Assemble the invariants and the two-sided bounds for the count.

    The colength identity delta = rho + sum of d_i * delta_i ties the
    pairwise resultant valuations to the per-factor colengths; it is
    re-verified here because both sides are computed independently.
    """
    factors = _factor_data(order)
    if order.delta != order.rho + sum(fd.d * fd.delta for fd in factors):
        raise InvariantViolation(
            "colength does not match resultant valuations plus factor "
            "colengths")
    q = order.fq.q
    lower = q ** order.rho
    upper = q ** order.rho
    for fd in factors:
        lower *= n_poly(fd.delta, fd.r)(q ** fd.d)
        upper *= m_poly(fd.delta, fd.r)(q ** fd.d)
    if lower > upper:
        raise InvariantViolation(
            f"bound polynomials crossed: {lower} > {upper}")
    return OrbitInvariants(factors, order.delta, order.rho,
                           len(factors) == 1, lower, upper)


def orbital_bounds(order):
    """The proven (lower, upper) bracket for the orbit count."""
    inv = orbit_invariants(order)
    return inv.bounds


def orbital_integral(order, method="zeta", ceiling=None):
    """The orbit count by one of three independent routes.

    zeta evaluates the counting polynomial at 1; lattice counts the
    sandwich representatives directly; levi multiplies one-factor
    counts and q to the pairwise resultant valuation.
    """
    if method == "zeta":
        return special_values(zeta_polynomial(order, ceiling=ceiling))[0]
    if method == "lattice":
        return class_count_mod_lambda(order, ceiling=ceiling)
    if method == "levi":
        value, _ = levi_product(order, ceiling=ceiling)
        return value
    raise PreconditionViolated(
        f"unknown method {method!r}; expected one of {METHODS}")


def levi_product(order, ceiling=None):
    """q^rho times the product of the one-factor counts.

    Each factor is rebuilt as an order in its own right and counted by
    its own polynomial.  A factor whose residue field is larger than
    the base is additionally recounted over the matching unramified
    extension, where the problem splits into conjugate pieces with
    trivial residue extension; the two values must agree.  When the
    extension rebuild cannot be certified the base value is used and
    the fallback is recorded in the returned notes.
    """
    factors = _factor_data(order)
    total = order.fq.q ** order.rho
    notes = []
    for idx, fd in enumerate(factors):
        sub = build_order(order.fq, fd.coeffs, f_window=fd.window)
        value = special_values(zeta_polynomial(sub, ceiling=ceiling))[0]
        if fd.d > 1:
            try:
                big = base_change_order(sub, fd.d)
                piece = big.factors[0]
                rebuilt = build_order(big.fq, piece.coeffs,
                                      f_window=piece.window)
                shifted = special_values(
                    zeta_polynomial(rebuilt, ceiling=ceiling))[0]
            except (PrecisionExhausted, BadFactorization, NotSquarefree,
                    RankDeficient, PreconditionViolated) as exc:
                notes.append(f"factor {idx}: extension rebuild failed "
                             f"({exc}); used the base-field count")
            else:
                if shifted != value:
                    raise MethodDisagreement(
                        f"factor {idx}: count over the extension differs "
                        "from the base-field count",
                        values={"base": value, "extension": shifted})
        total *= value
    return total, tuple(notes)


def cross_validated_orbital(order, ceiling=None):
    """All three method values, compared after collection.

    Returns (count, per-method dict).  Raises MethodDisagreement with
    the full value table when any two methods differ.
    """
    values = {m: orbital_integral(order, m, ceiling=ceiling)
              for m in METHODS}
    distinct = set(values.values())
    if len(distinct) != 1:
        raise MethodDisagreement(
            "independent orbit counts differ", values=values)
    return values["zeta"], values


def elliptic_ideal_formula(order, ceiling=None):
    """The orbit count of a one-factor order with base residue field,
    as an exact linear combination of its ideal tallies.

    With H_j the number of ideals of colength j, delta the order
    colength and r the residue period, the count equals

        sum_{j=0}^{delta-r-1} (q^(delta-j) - q^(delta-r-j)) H_j
        + q^r H_{delta-r}
        + sum_{j=delta-r+1}^{delta-1} (q^(delta-j) + 1) H_j
        + H_delta

    with out-of-range tallies read as zero.  The identity follows from
    the coefficient symmetry of the counting polynomial, so it holds
    for every r; it is checked against the direct count by the caller.
    """
    factors = _factor_data(order)
    if len(factors) != 1:
        raise PreconditionViolated(
            "the ideal-tally formula needs a one-factor order")
    fd = factors[0]
    if fd.d != 1:
        raise PreconditionViolated(
            "the ideal-tally formula needs the residue field of the "
            "order to match the base field")
    delta, r, q = order.delta, fd.r, order.fq.q
    tally = [len(level) for level in stable_sublattice_levels(
        order.r_lattice, delta, order.action_matrices, ceiling=ceiling)]

    def h(j):
        return tally[j] if 0 <= j <= delta else 0

    total = h(delta)
    if delta - r >= 0:
        total += q ** r * h(delta - r)
    for j in range(0, delta - r):
        total += (q ** (delta - j) - q ** (delta - r - j)) * h(j)
    for j in range(max(delta - r + 1, 0), delta):
        total += (q ** (delta - j) + 1) * h(j)
    return total


# ---------------------------------------------------------------------------
# sampled fiber check of the block product structure
# ---------------------------------------------------------------------------

def _flag_action(fq, a1, a2, m1, m2, width):
    """The action of the generator on the full space, block diagonal in
    the coordinates that split the algebra into its two factors.  The
    first block is then stable under the action, the second block is a
    stable complement, and the graph equation for a lattice with
    prescribed pieces is homogeneous, so its solutions are confined to
    a correction window of depth bounded by the resultant valuation."""
    zero = (0,) * width
    cols = []
    for j in range(m1):
        col = [ser_pad(a1[j][i], width) for i in range(m1)]
        col += [zero] * m2
        cols.append(tuple(col))
    for j in range(m2):
        col = [zero] * m1
        col += [ser_pad(a2[j][i], width) for i in range(m2)]
        cols.append(tuple(col))
    return tuple(cols)


def _integral_columns(lattice, width):
    """Basis columns of an integral lattice as exact polynomial tuples,
    with the canonical scale folded back in."""
    shift = lattice.scale
    if shift < 0:
        raise InvariantViolation("expected an integral lattice")
    return _basis_columns(
        tuple(a + shift for a in lattice.diag),
        tuple(tuple((0,) * shift + tuple(d) for d in col)
              for col in lattice.off), width)


def _fiber_size(fq, gamma, b1, b2, m1, m2, depth, width, ceiling):
    """Honest count of the stable lattices whose intersection with the
    first block is spanned by b1 and whose image in the second block is
    spanned by b2.  Candidates add to the b2 lifts a correction from
    t^(-depth) times the b1 span; every candidate lattice is built and
    its stability under the flag action (gamma, as _nonzero_entries) is
    tested vector by vector."""
    n = m1 + m2
    q = fq.q
    cells = depth * m1 * m2
    if q ** cells > enumeration_ceiling(ceiling):
        raise CeilingExceeded(
            f"fiber enumeration needs q^{cells} candidates")
    zero = (0,) * width
    base_gens = []
    for col in b1:
        base_gens.append(tuple(ser_pad((0,) * depth + tuple(e), width)
                               for e in col) + (zero,) * m2)
    lifted_tails = []
    for col in b2:
        lifted_tails.append(tuple(ser_pad((0,) * depth + tuple(e), width)
                                  for e in col))
    digit_tuples = list(iproduct(range(q), repeat=depth))
    found = set()
    for psi in iproduct(digit_tuples, repeat=m1 * m2):
        gens = list(base_gens)
        for jb in range(m2):
            head = [zero] * m1
            for i in range(m1):
                acc = zero
                for k in range(m1):
                    coeff = psi[k * m2 + jb]
                    if any(coeff):
                        acc = ser_add(fq, acc,
                                      ser_mul(fq, coeff, b1[k][i], width))
                head[i] = acc
            gens.append(tuple(head) + lifted_tails[jb])
        lattice = hnf_from_generators(fq, pad_exact(gens, n), n,
                                      scale=-depth)
        stable = True
        for g in gens:
            img = mat_vec(fq, gamma, g, width)
            if not lattice.contains_vector(img, vec_scale=-depth):
                stable = False
                break
        if stable:
            if lattice.key in found:
                raise InvariantViolation(
                    "two corrections produced the same lattice")
            found.add(lattice.key)
    return len(found)


def levi_fiber_check(order, sample, seed=0, ceiling=None):
    """Verify that pairs of one-block stable lattices extend to exactly
    q^rho stable lattices of the full space.

    The blocks are the two factors of the order; representatives are
    drawn from the stable sublattices of the standard lattice of each
    block at small colengths.  A positive sample draws that many pairs
    with a seeded generator so runs are reproducible; sample=None checks
    every pair in the pool.  Returns True when every inspected fiber has
    the predicted size.
    """
    factors = _factor_data(order)
    if len(factors) < 2:
        raise PreconditionViolated("the fiber check needs two factors")
    if len(factors) > 2:
        raise PreconditionViolated(
            "the fiber check is implemented for exactly two factors")
    if sample is not None and sample < 1:
        raise PreconditionViolated("need a positive sample count")
    fq = order.fq
    fd1, fd2 = factors
    sub1 = build_order(fq, fd1.coeffs, f_window=fd1.window)
    sub2 = build_order(fq, fd2.coeffs, f_window=fd2.window)
    m1, m2 = sub1.n, sub2.n
    depth = order.rho + 1
    width = max(sub1.precision, sub2.precision) + depth + 8
    gamma = _nonzero_entries(_flag_action(fq, sub1.action_matrices[0],
                                          sub2.action_matrices[0], m1, m2,
                                          width))
    expected = fq.q ** order.rho
    pools = []
    for sub in (sub1, sub2):
        # a level over the identity base already lists the lattices
        # themselves, in LatticeHNF.sort_key order
        levels = stable_sublattice_levels(identity_lattice(fq, sub.n), 2,
                                          sub.action_matrices, ceiling=ceiling)
        pools.append([lattice for level in levels for lattice in level])
    if sample is None:
        pairs = [(u1, u2) for u1 in pools[0] for u2 in pools[1]]
    else:
        rng = random.Random(seed)
        pairs = [(pools[0][rng.randrange(len(pools[0]))],
                  pools[1][rng.randrange(len(pools[1]))])
                 for _ in range(sample)]
    for u1, u2 in pairs:
        b1 = _integral_columns(u1, width)
        b2 = _integral_columns(u2, width)
        size = _fiber_size(fq, gamma, b1, b2, m1, m2, depth, width,
                           ceiling)
        if size != expected:
            return False
    return True
