"""Command line front end.

Four subcommands: analyze (full pipeline for one order), nlines (the
glued-lines family), mnpoly (bound factor polynomials), and selftest
(the verification battery).  All inputs are parsed before any
computation starts; every library error carries the exit code the
process returns (parse 2, precondition 3, precision 4, ceiling 5,
invariant 6).  A failed report check exits 6, a failed selftest exits 1.
"""

import argparse
import json
import sys

from . import __version__
from .errors import OrderZetaError, ParseError
from .lattices import enumeration_ceiling
from .parsing import parse_field, parse_order_description, parse_xpoly
from .report import analyze_report, mnpoly_report, nlines_report, selftest_report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _common_flags(sub):
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default text)")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for any sampled check (recorded in the report)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orderzeta",
        description="Counting polynomials, lattice class counts, and "
                    "conjugacy class integrals for orders over F_q[[t]].")
    parser.add_argument("--version", action="version",
                        version=f"orderzeta {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full pipeline for one order")
    pa.add_argument("--q", help="field size: 3, 4, or p^e:modulus in u")
    pa.add_argument("--f", help="defining polynomial in X over F_q[t]")
    pa.add_argument("--factors",
                    help="semicolon-separated factors of f (certified)")
    pa.add_argument("--file", help="order description file; replaces "
                                   "--q/--f/--factors")
    pa.add_argument("--precision", type=int,
                    help="working t-adic precision override")
    pa.add_argument("--ceiling", type=int,
                    help="enumeration candidate ceiling (default 10^8)")
    pa.add_argument("--per-class", action="store_true", dest="per_class",
                    help="include the per-class refinement table")
    pa.add_argument("--fibers", type=int, default=0, metavar="N",
                    help="sample N projection fibers (two-factor orders)")
    _common_flags(pa)

    pn = sub.add_parser("nlines", help="the n glued lines family")
    pn.add_argument("--n", type=int, required=True,
                    help="number of lines (2..6 brute force, 2..8 symbolic)")
    pn.add_argument("--q", help="field size (omit with --symbolic-only)")
    pn.add_argument("--symbolic-only", action="store_true",
                    dest="symbolic_only",
                    help="skip brute force; emit the closed form only")
    pn.add_argument("--ceiling", type=int)
    _common_flags(pn)

    pm = sub.add_parser("mnpoly", help="bound factor polynomials")
    pm.add_argument("--delta", type=int, required=True)
    pm.add_argument("--r", type=int, required=True)
    _common_flags(pm)

    ps = sub.add_parser("selftest", help="run the verification battery")
    ps.add_argument("--quick", action="store_true",
                    help="seconds-scale subset")
    ps.add_argument("--ceiling", type=int)
    _common_flags(ps)
    return parser


def _analyze_inputs(args):
    if args.file:
        if any(x is not None for x in (args.q, args.f, args.factors)):
            raise ParseError("--file replaces --q, --f, and --factors")
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read {args.file}: {exc}") from None
        desc = parse_order_description(text)
        precision = args.precision
        if precision is None:
            precision = desc["precision"]
        return desc["fq"], desc["f"], desc["factors"], precision
    if not args.q or not args.f:
        raise ParseError("analyze needs --q and --f, or --file")
    fq = parse_field(args.q)
    f = parse_xpoly(fq, args.f)
    factors = None
    if args.factors is not None:
        factors = [parse_xpoly(fq, part) for part in args.factors.split(";")]
    return fq, f, factors, args.precision


def _dispatch(args):
    if args.command == "mnpoly":
        return mnpoly_report(args.delta, args.r), 0
    ceiling = enumeration_ceiling(args.ceiling)
    if args.command == "analyze":
        fq, f, factors, precision = _analyze_inputs(args)
        report = analyze_report(fq, f, factors=factors, precision=precision,
                                ceiling=ceiling, seed=args.seed,
                                per_class=args.per_class,
                                fiber_sample=args.fibers)
        return report, 0 if report["all_checks_pass"] else 6
    if args.command == "nlines":
        fq = parse_field(args.q) if args.q else None
        report = nlines_report(args.n, fq=fq, ceiling=ceiling,
                               symbolic_only=args.symbolic_only)
        return report, 0 if report["all_checks_pass"] else 6
    report = selftest_report(quick=args.quick, seed=args.seed,
                             ceiling=ceiling)
    return report, 0 if report["all_pass"] else 1


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

def _verdict(value):
    if value is None:
        return "n/a"
    return "pass" if value else "FAIL"


def _checks_lines(checks):
    body = "  ".join(f"{name}={_verdict(v)}" for name, v in checks.items())
    return [f"checks: {body}"]


def _result_line(ok):
    return "result: all checks pass" if ok else "result: CHECK FAILURES"


def _render_analyze(r):
    lines = [f"orderzeta {r['version']} analyze",
             f"q = {r['q']} (spec {r['q_spec']})   f = {r['f']}",
             f"precision = {r['precision']}   j_max = {r['j_max']}   "
             f"ceiling = {r['ceiling']}   seed = {r['seed']}",
             f"delta = {r['delta']}   rho = {r['rho']}",
             "factors:"]
    for fd in r["factors"]:
        window = "exact" if fd["window"] is None else fd["window"]
        lines.append(f"  {fd['poly']}   window={window} d={fd['d']} "
                     f"r={fd['r']} n={fd['n']} e={fd['e']} "
                     f"delta={fd['delta']}")
    lines.append("quot counts: " + " ".join(str(c)
                                            for c in r["quot_counts"]))
    lines.append(f"P(t) = {r['zeta']['text']}")
    sv = r["special_values"]
    lines.append(f"P(1) = {sv['at_one']}   q^delta*P(1/q) = "
                 f"{sv['reflected']}   class count = {r['class_count']}")
    orb = r["orbital"]
    m = orb["methods"]
    lines.append(f"O_gamma = {orb['O_gamma']} (zeta {m['zeta']}, "
                 f"lattice {m['lattice']}, levi {m['levi']})")
    b = orb["bounds"]
    lines.append(f"bounds: {b['lower']} <= O_gamma <= {b['upper']}")
    if orb["elliptic_formula"] is not None:
        lines.append(f"elliptic formula: {orb['elliptic_formula']}")
    if orb["levi_fiber_check"] is not None:
        lines.append(f"fiber check (sample {orb['fiber_sample']}): "
                     f"{_verdict(orb['levi_fiber_check'])}")
    for note in orb["notes"]:
        lines.append(f"note: {note}")
    if r["per_class"] is not None:
        pc = r["per_class"]
        lines.append("classes:")
        for lab in pc["labels"]:
            counts = " ".join(str(c) for c in pc["counts"][lab])
            lines.append(f"  {lab}: size {pc['class_sizes'][lab]}, "
                         f"dual {pc['dual_pairs'][lab]}, "
                         f"share {pc['contributions'][lab]['text']}, "
                         f"counts {counts}")
        lines.append(f"class pairing: {_verdict(pc['pairing_ok'])}")
    lines += _checks_lines(r["checks"])
    lines.append(_result_line(r["all_checks_pass"]))
    return lines


def _render_nlines(r):
    head = f"orderzeta {r['version']} nlines n={r['n']}"
    if r["q"] is not None:
        head += f" q={r['q']}"
    lines = [head, "closed form by t-degree:"]
    for row in r["closed_form"]["by_t_degree"]:
        lines.append(f"  t^{row['t_power']}: {row['text']}")
    v = r["closed_form"]["value_at_one"]
    lines.append(f"value at t=1: {v['text']} (leading term "
                 f"{v['leading_term']})")
    if r["specialized"] is not None:
        lines.append(f"specialized: {r['specialized']['text']}")
    if r["brute"] is not None:
        br = r["brute"]
        lines.append(f"enumerated: {br['text']}")
        lines.append("quot counts: " + " ".join(str(c)
                                                for c in br["quot_counts"]))
        lines.append(f"value at 1 = {br['value_at_one']}   "
                     f"class count = {br['class_count']}")
    if r["variant_normalization"] is not None:
        vn = r["variant_normalization"]
        lines.append(f"variant on the normalization lattice: {vn['text']} "
                     f"(value {vn['value_at_one']})")
    if r["variant_order"] is not None:
        vo = r["variant_order"]
        lines.append(f"variant on the order lattice: {vo['text']} "
                     f"(value {vo['value_at_one']})")
    lines += _checks_lines(r["checks"])
    lines.append(_result_line(r["all_checks_pass"]))
    return lines


def _render_mnpoly(r):
    return [f"orderzeta {r['version']} mnpoly delta={r['delta']} r={r['r']}",
            f"upper factor: {r['upper']['text']}",
            f"lower factor: {r['lower']['text']}"]


def _render_selftest(r):
    lines = [f"orderzeta {r['version']} selftest {r['mode']} "
             f"seed={r['seed']}"]
    width = max(len(row["name"]) for row in r["checks"])
    for row in r["checks"]:
        lines.append(f"{row['status'].upper():<4}  "
                     f"{row['name']:<{width}}  {row['detail']}")
    lines.append(f"{r['passed']} passed, {r['failed']} failed")
    return lines


_RENDERERS = {
    "analyze": _render_analyze,
    "nlines": _render_nlines,
    "mnpoly": _render_mnpoly,
    "selftest": _render_selftest,
}


def render(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    return "\n".join(_RENDERERS[report["command"]](report)) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report, code = _dispatch(args)
        out = render(report, args.format)
    except OrderZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
