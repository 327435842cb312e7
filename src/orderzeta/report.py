"""Report assembly for the command line front end.

Each report is a plain dict with a fixed key set built in a fixed order,
so the JSON rendering is schema-stable and repeated runs with the same
inputs are byte-identical.  Values are limited to ints, strings,
booleans, None, lists, and string-keyed dicts.  Nothing here prints;
rendering lives in the cli module.
"""

import json

from . import __version__
from .errors import (CeilingExceeded, NonIntegralInput, NotSquarefree,
                     OrderZetaError, ParseError, PreconditionViolated)
from .lattices import enumeration_ceiling
from .orbital import (cross_validated_orbital, elliptic_ideal_formula,
                      levi_fiber_check, levi_product, orbital_bounds)
from .orders import build_order, n_lines_order
from .parsing import format_field, format_xpoly, parse_field, parse_xpoly
from .partitions import hilb_count_regular, m_poly, n_poly
from .polynomials import IntPoly
from .zeta import (nlines_closed_form, per_class_refinement,
                   planned_nlines_order, special_values, variant_zeta,
                   zeta_polynomial)


def _poly_dict(poly, var):
    return {"coeffs": list(poly.coeffs), "text": poly.text(var)}


def _join(values):
    return " ".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def analyze_report(fq, f, factors=None, precision=None, ceiling=None,
                   seed=0, per_class=False, fiber_sample=0):
    """Run the full pipeline on one order and fold the results into a
    report dict.  The companion exit code is 0 exactly when every check
    in the report passed.

    The lattice route finds the O_gamma sandwich representatives in one
    enumeration, which spends a work unit or more on every lattice it
    finds but the first.  So when lower - 1, for the lower bound of
    orbital_bounds, exceeds the ceiling, CeilingExceeded is raised at
    once, before any enumeration."""
    order = build_order(fq, f, factors=factors, precision=precision)
    lower, upper = orbital_bounds(order)
    cap = enumeration_ceiling(ceiling)
    if lower - 1 > cap:
        raise CeilingExceeded(
            f"the orbit count has the lower bound {lower}, so enumerating "
            f"its classes needs at least {lower - 1} work units, more "
            f"than the work ceiling {cap}")
    z = zeta_polynomial(order, ceiling=ceiling)
    at_one, reflected = special_values(z)
    count, methods = cross_validated_orbital(order, ceiling=ceiling)
    _, levi_notes = levi_product(order, ceiling=ceiling)

    formula = None
    if len(order.factors) == 1 and order.factors[0].d == 1:
        formula = elliptic_ideal_formula(order, ceiling=ceiling)
    fibers = None
    if fiber_sample:
        fibers = levi_fiber_check(order, fiber_sample, seed=seed,
                                  ceiling=ceiling)
    refinement = None
    if per_class:
        refinement = per_class_refinement(order, ceiling=ceiling)

    checks = {
        "truncation_ok": z.checks["truncation_ok"],
        "degree_ok": z.checks["degree_ok"],
        "fe_ok": z.checks["fe_ok"],
        "sv_ok": z.checks["sv_ok"],
        "methods_agree": True,
        "bounds_ok": lower <= count <= upper,
        "elliptic_formula_ok": None if formula is None else formula == count,
        "levi_fiber_check_ok": fibers,
        "class_pairing_ok": None if refinement is None
                            else refinement.pairing_ok,
    }
    per_class_section = None
    if refinement is not None:
        per_class_section = {
            "labels": list(refinement.labels),
            "class_sizes": {lab: refinement.class_sizes[lab]
                            for lab in refinement.labels},
            "counts": {lab: list(refinement.counts[lab])
                       for lab in refinement.labels},
            "contributions": {lab: _poly_dict(refinement.contributions[lab],
                                              "t")
                              for lab in refinement.labels},
            "dual_pairs": {lab: refinement.dual_pairs[lab]
                           for lab in refinement.labels},
            "pairing_ok": refinement.pairing_ok,
        }
    report = {
        "tool": "orderzeta",
        "version": __version__,
        "command": "analyze",
        "q": fq.q,
        "q_spec": format_field(fq),
        "f": format_xpoly(fq, f),
        "precision": order.precision,
        "j_max": len(z.quot_counts) - 1,
        "ceiling": cap,
        "seed": seed,
        "delta": order.delta,
        "rho": order.rho,
        "factors": [
            {"poly": format_xpoly(fq, fd.coeffs), "window": fd.window,
             "d": fd.d, "r": fd.r, "n": fd.n, "e": fd.e, "delta": fd.delta}
            for fd in order.factors
        ],
        "quot_counts": list(z.quot_counts),
        "zeta": _poly_dict(z.poly, "t"),
        "special_values": {"at_one": at_one, "reflected": reflected},
        "class_count": methods["lattice"],
        "orbital": {
            "O_gamma": count,
            "methods": dict(methods),
            "bounds": {"lower": lower, "upper": upper},
            "elliptic_formula": formula,
            "levi_fiber_check": fibers,
            "fiber_sample": fiber_sample or None,
            "notes": list(levi_notes),
            "seed": seed,
        },
        "per_class": per_class_section,
        "checks": checks,
        "all_checks_pass": all(v is not False for v in checks.values()),
    }
    return report


# ---------------------------------------------------------------------------
# nlines
# ---------------------------------------------------------------------------

def _variant_dict(z):
    return {
        "coeffs": list(z.poly.coeffs),
        "text": z.poly.text("t"),
        "value_at_one": z.poly(1),
        "degree_ok": z.checks["degree_ok"],
        "fe_ok": z.checks["fe_ok"],
    }


def _closed_text(closed):
    """The closed form as one line in t, each coefficient a polynomial
    in q, parenthesized when it has more than one term."""
    parts = []
    for k, c in enumerate(closed):
        if not c.coeffs:
            continue
        cq = c.text(var="q")
        pw = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        if not pw:
            parts.append(f"({cq})" if " " in cq else cq)
        elif cq == "1":
            parts.append(pw)
        elif " " in cq or "+" in cq or "-" in cq[1:]:
            parts.append(f"({cq})*{pw}")
        else:
            parts.append(f"{cq}*{pw}")
    return " + ".join(parts)


def nlines_report(n, fq=None, ceiling=None, symbolic_only=False):
    """Closed-form and (unless symbolic_only) brute-force counting
    polynomials for the order of n coordinate lines glued at a point,
    plus the two variant tallies and the agreement verdicts."""
    closed = nlines_closed_form(n)
    value = sum(closed, IntPoly())
    closed_section = {
        "by_t_degree": [
            {"t_power": k, "coeffs": list(c.coeffs), "text": c.text("q")}
            for k, c in enumerate(closed)
        ],
        "text": _closed_text(closed),
        "value_at_one": {
            "coeffs": list(value.coeffs),
            "text": value.text("q"),
            "leading_term": f"q^{value.degree}",
        },
    }
    specialized = None
    if fq is not None:
        at_q = IntPoly(c(fq.q) for c in closed)
        specialized = _poly_dict(at_q, "t")

    brute = sharp = flat = None
    checks = {
        "closed_matches_brute": None,
        "truncation_ok": None,
        "degree_ok": None,
        "fe_ok": None,
        "sv_ok": None,
        "value_matches_class_count": None,
        "variant_values_agree": None,
    }
    j_used = None
    if not symbolic_only:
        if fq is None:
            raise PreconditionViolated(
                "brute force needs a field; pass --symbolic-only to skip it")
        if n > 6:
            raise PreconditionViolated(
                "brute force is limited to n <= 6; use --symbolic-only")
        order, (sharp_plan, flat_plan) = planned_nlines_order(fq, n)
        z = zeta_polynomial(order, ceiling=ceiling)
        sharp = variant_zeta(order, sharp_plan, ceiling=ceiling)
        flat = variant_zeta(order, flat_plan, ceiling=ceiling)
        j_used = len(z.quot_counts) - 1
        brute = {
            "coeffs": list(z.poly.coeffs),
            "text": z.poly.text("t"),
            "quot_counts": list(z.quot_counts),
            "class_count": flat.class_count,
            "value_at_one": z.poly(1),
        }
        checks["closed_matches_brute"] = at_q == z.poly
        checks["truncation_ok"] = z.checks["truncation_ok"]
        checks["degree_ok"] = z.checks["degree_ok"]
        checks["fe_ok"] = z.checks["fe_ok"]
        checks["sv_ok"] = z.checks["sv_ok"]
        checks["value_matches_class_count"] = z.poly(1) == flat.class_count
        checks["variant_values_agree"] = (
            sharp.poly(1) == z.poly(1) and flat.poly(1) == z.poly(1))
    report = {
        "tool": "orderzeta",
        "version": __version__,
        "command": "nlines",
        "n": n,
        "q": fq.q if fq is not None else None,
        "q_spec": format_field(fq) if fq is not None else None,
        "j_max": j_used,
        "ceiling": enumeration_ceiling(ceiling),
        "closed_form": closed_section,
        "specialized": specialized,
        "brute": brute,
        "variant_normalization": None if sharp is None
                                 else _variant_dict(sharp),
        "variant_order": None if flat is None else _variant_dict(flat),
        "checks": checks,
        "all_checks_pass": all(v is not False for v in checks.values()),
    }
    return report


# ---------------------------------------------------------------------------
# mnpoly
# ---------------------------------------------------------------------------

# m_poly builds a (delta+1)^2 table of partition counts, whose memory
# grows as delta^2 (a 43 MB process at delta = 1000, Python 3.11), so a
# larger delta is refused before the table is built.
_MNPOLY_DELTA_CAP = 1000


def mnpoly_report(delta, r):
    """The degree-delta upper and lower bound factor polynomials for one
    branch with the given colength defect and unit-group depth."""
    if delta < 0:
        raise PreconditionViolated("delta must be >= 0")
    if delta > _MNPOLY_DELTA_CAP:
        raise PreconditionViolated(
            f"delta must be <= {_MNPOLY_DELTA_CAP}, the cap of mnpoly")
    if r < 1:
        raise PreconditionViolated("r must be >= 1")
    return {
        "tool": "orderzeta",
        "version": __version__,
        "command": "mnpoly",
        "delta": delta,
        "r": r,
        "upper": _poly_dict(m_poly(delta, r), "x"),
        "lower": _poly_dict(n_poly(delta, r), "x"),
    }


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

class _CheckFailure(Exception):
    pass


def _expect(cond, msg):
    if not cond:
        raise _CheckFailure(msg)


def _battery_members(fq):
    """Defining polynomials of the standard battery that stay separable
    in characteristic p, each with its text as the label for the verdict
    matrix."""
    q = fq.q
    labels = (["X^2+t^2*X+t^3", "X^2+t*X"] if q == 2
              else ["X^2-t^3", "X^2-t^2", "X^2-t^5"])
    if q != 3:
        labels += ["X^3-t^4", "X^3-t^5"]
    if q != 2:
        labels.append("(X-t)(X^2-t^3)")
    labels.append("(X-t)(X-t^2)")
    if q == 3:
        labels.append("X^2+1")
    if q == 5:
        labels.append("X^2-2")
    return [(label, parse_xpoly(fq, label)) for label in labels]


# the published table of upper bound factor polynomials, as (delta, r)
# instance -> ascending coefficients
_UPPER_TABLE = {
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


def _battery_reports(qs, ceiling):
    """The analyze report of every battery member, with its label."""
    rows = []
    for q in qs:
        fq = parse_field(str(q))
        rows += [(label, analyze_report(fq, f, ceiling=ceiling))
                 for label, f in _battery_members(fq)]
    return rows


def _check_lines_shape(qs, ceiling):
    for q in qs:
        fq = parse_field(str(q))
        order, (sharp_plan, flat_plan) = planned_nlines_order(fq, 3)
        z = zeta_polynomial(order, ceiling=ceiling)
        want = (1, q - 2, 1, q * q - 2 * q, q * q)
        _expect(z.poly.coeffs == want,
                f"q={q}: polynomial {z.poly.coeffs}, wanted {want}")
        sharp = variant_zeta(order, sharp_plan, ceiling=ceiling)
        flat = variant_zeta(order, flat_plan, ceiling=ceiling)
        target = 2 * q * q - q
        got = (z.poly(1), sharp.poly(1), flat.poly(1))
        _expect(got == (target,) * 3,
                f"q={q}: values at 1 are {got}, wanted {target}")
    return f"three lines at q in {_join(qs)}: shape and both variants"


def _check_lines_closed(grid, ceiling):
    for n, q in grid:
        fq = parse_field(str(q))
        closed = IntPoly(c(q) for c in nlines_closed_form(n))
        z = zeta_polynomial(n_lines_order(fq, n), ceiling=ceiling)
        _expect(closed == z.poly,
                f"n={n} q={q}: closed {closed.coeffs} vs "
                f"enumerated {z.poly.coeffs}")
    pairs = _join(f"({n},{q})" for n, q in grid)
    return f"closed form equals enumeration at {pairs}"


def _check_battery_zeta(rows):
    for label, r in rows:
        checks = {k: r["checks"][k]
                  for k in ("truncation_ok", "degree_ok", "fe_ok", "sv_ok")}
        _expect(all(checks.values()),
                f"{label} q={r['q']}: checks {checks}")
        at_one = r["special_values"]["at_one"]
        _expect(at_one == r["special_values"]["reflected"],
                f"{label} q={r['q']}: special values differ")
        count = r["orbital"]["O_gamma"]
        _expect(count == at_one,
                f"{label} q={r['q']}: class count {count} != value {at_one}")
    return f"{len(rows)} members: degree, symmetry, and value identities"


def _check_battery_orbits(rows):
    for label, r in rows:
        methods = r["orbital"]["methods"]
        _expect(len(set(methods.values())) == 1,
                f"{label} q={r['q']}: routes {methods}")
    return f"{len(rows)} members: three orbit routes agree"


def _check_battery_bounds(rows):
    for label, r in rows:
        count = r["orbital"]["O_gamma"]
        bounds = r["orbital"]["bounds"]
        lower, upper = bounds["lower"], bounds["upper"]
        _expect(lower <= count <= upper,
                f"{label} q={r['q']}: {count} outside [{lower}, {upper}]")
        tame = all(fd["delta"] == 0 or (fd["delta"] == 1 and fd["r"] == 1)
                   for fd in r["factors"])
        _expect((lower == upper) == tame,
                f"{label} q={r['q']}: tightness mismatch")
        if label == "X^2-t^5" and r["q"] == 3:
            _expect((lower, upper) == (10, 13) and count == 13,
                    f"bounds ({lower}, {upper}) count {count}")
    return f"{len(rows)} members: bounds bracket, tight exactly when tame"


def _check_per_class(ceiling):
    fq = parse_field("2")
    for label, f in _battery_members(fq)[:2]:
        order = build_order(fq, f)
        ref = per_class_refinement(order, ceiling=ceiling)
        _expect(ref.pairing_ok, f"{label}: class pairing failed")
    return "cusp and node at q=2: per-class shares are dual-paired"


def _check_punctual():
    want = {1: 1, 2: 3, 3: 7}
    for j, value in want.items():
        got = hilb_count_regular(j)(2)
        _expect(got == value, f"j={j}: {got}, wanted {value}")
    return "regular punctual tallies at q=2 are 1, 3, 7"


def _check_fibers(exhaustive, ceiling):
    sample = None if exhaustive else 3
    cases = (("2", "X^2+t*X"), ("3", "X^2-t^2"), ("2", "(X-t)(X-t^2)"),
             ("3", "(X-t)(X-t^2)"))
    for q, text in cases:
        fq = parse_field(q)
        f = parse_xpoly(fq, text)
        order = build_order(fq, f)
        _expect(levi_fiber_check(order, sample, seed=0, ceiling=ceiling),
                f"fiber of size != q^rho at q={fq.q}, f={format_xpoly(fq, f)}")
    mode = "all pairs" if exhaustive else "3 sampled pairs"
    return f"node and split lines at q in 2 3: {mode} have q^rho extensions"


def _check_upper_table():
    for (delta, r), coeffs in sorted(_UPPER_TABLE.items()):
        got = m_poly(delta, r)
        _expect(got == IntPoly(coeffs),
                f"(delta={delta}, r={r}): {got.coeffs}, wanted {coeffs}")
    return f"{len(_UPPER_TABLE)} tabulated upper bound factors reproduced"


def _check_robustness(seed, ceiling):
    fq = parse_field("3")
    cusp = parse_xpoly(fq, "X^2-t^3")
    base = build_order(fq, cusp)
    doubled = build_order(fq, cusp, precision=2 * base.precision)
    _expect(zeta_polynomial(base, ceiling=ceiling).poly
            == zeta_polynomial(doubled, ceiling=ceiling).poly,
            "doubling the precision changed the counting polynomial")
    first = analyze_report(fq, cusp, seed=seed, ceiling=ceiling)
    second = analyze_report(fq, cusp, seed=seed, ceiling=ceiling)
    _expect(json.dumps(first) == json.dumps(second),
            "two identical runs produced different reports")
    squareful = parse_xpoly(fq, "(X-t)^2*(X+t)")
    try:
        build_order(fq, squareful)
        raise _CheckFailure("a squareful polynomial was accepted")
    except NotSquarefree as exc:
        _expect(exc.exit_code == 3, "wrong exit code for squareful input")
    try:
        parse_xpoly(fq, "X^2 - t^-1")
        raise _CheckFailure("a polynomial with a t-pole was accepted")
    except NonIntegralInput as exc:
        _expect(exc.exit_code == 3, "wrong exit code for non-integral input")
    try:
        parse_xpoly(fq, "X^2 +* t")
        raise _CheckFailure("malformed text was accepted")
    except ParseError as exc:
        _expect(exc.exit_code == 2, "wrong exit code for malformed text")
    return ("precision doubling, repeat-run identity, and the three "
            "rejection paths")


def selftest_report(quick=False, seed=0, ceiling=None):
    """Run the verification battery and fold the verdicts into a report.

    quick trims the battery to a seconds-scale subset.  All content is
    deterministic for a fixed seed, so repeated runs are byte-identical.
    """
    if quick:
        qs = (2, 3)
        grid = ((2, 2), (3, 2))
        line_qs = (2,)
    else:
        qs = (2, 3, 5)
        grid = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3))
        line_qs = (2, 3, 5)
    battery = []

    def rows():
        # built by the first battery check; a library error raised while
        # building fails the three battery checks and no other
        if not battery:
            try:
                battery.append(_battery_reports(qs, ceiling))
            except OrderZetaError as exc:
                battery.append(exc)
        if isinstance(battery[0], OrderZetaError):
            raise battery[0]
        return battery[0]

    specs = [
        ("three_lines_shape", lambda: _check_lines_shape(line_qs, ceiling)),
        ("lines_closed_form", lambda: _check_lines_closed(grid, ceiling)),
        ("battery_zeta", lambda: _check_battery_zeta(rows())),
        ("battery_orbit_routes", lambda: _check_battery_orbits(rows())),
        ("battery_bounds", lambda: _check_battery_bounds(rows())),
        ("per_class_pairing", lambda: _check_per_class(ceiling)),
        ("punctual_tallies", _check_punctual),
        ("projection_fibers", lambda: _check_fibers(not quick, ceiling)),
        ("upper_bound_table", _check_upper_table),
        ("robustness", lambda: _check_robustness(seed, ceiling)),
    ]
    results = []
    failed = 0
    for name, fn in specs:
        try:
            detail = fn()
            status = "pass"
        except _CheckFailure as exc:
            detail = str(exc)
            status = "fail"
            failed += 1
        except OrderZetaError as exc:
            # a library error fails this check only; the others still run
            detail = f"{type(exc).__name__}: {exc}"
            status = "fail"
            failed += 1
        results.append({"name": name, "status": status, "detail": detail})
    return {
        "tool": "orderzeta",
        "version": __version__,
        "command": "selftest",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "ceiling": enumeration_ceiling(ceiling),
        "checks": results,
        "passed": len(specs) - failed,
        "failed": failed,
        "all_pass": failed == 0,
    }
