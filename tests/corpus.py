"""The seeded build corpus: build_order inputs and what each one gives.

    PYTHONPATH=src python3 tests/corpus.py            # replay, exit 1 on a difference
    PYTHONPATH=src python3 tests/corpus.py --record   # rewrite the manifest

inputs() makes the same inputs on every call, from SEED: random monic
polynomials with one to three factors over each field of FIELDS, each
built once with its factors found automatically and once with them
supplied, followed by the rejection classes of the README's exit-code
table and by EXTENSION, a fixed class over F_8, F_16 and F_64.  An
input is text (field spec, f, factors joined by ";", an optional
precision) so that the manifest reads like the command line.

run() parses and builds one input and returns its record: the exit
class ("ok" or the exception type) and message, and on success a
SHA-256 of the order (digest()) together with the records of its levi
rebuilds, each factor built on its own from its (coeffs, window) as
orbital.levi_product does, and of a rebuild's extension rebuild when
the factor's residue field is larger than the base.

tests/corpus.json is the manifest.  tests/test_corpus.py replays a
slice of it; the replay here runs all of it.  Recording is allowed only
for an intended change of a build's outcome, and CHANGES.md then lists
every input that moved.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from orderzeta.errors import OrderZetaError
from orderzeta.orders import base_change_order, build_order
from orderzeta.parsing import parse_field, parse_xpoly

MANIFEST = Path(__file__).resolve().parent / "corpus.json"

SEED = 23
FIELDS = ("2", "3", "4", "5", "7", "9", "2^2:u^2+u+1")
# random polynomials per field; each gives an automatic and a supplied input
PER_FIELD = 15
# the largest degree of f, which keeps every build of the corpus short
MAX_DEGREE = 5

# (q, f, factors, precision): the README's rejection classes, and inputs
# it names as exiting 3 without their factors
REJECTIONS = (
    ("3", "X^2 +* t", None, None),                 # syntax: exit 2
    ("6", "X^2-t^3", None, None),                  # not a prime power: 2
    ("2^2:u^2+1", "X^2-t^3", None, None),          # reducible modulus: 2
    ("257", "X^2-t^3", None, None),                # field too large: 3
    ("3", "X^2-t^-1", None, None),                 # pole in t: 3
    ("3", "(X-t)^2*(X+t)", None, None),            # not squarefree: 3
    ("5", "(X-t)*(X-t)", "X-t;X-t", None),         # shared factor: 3
    ("4", "X^2-t^3", None, None),                  # inseparable: 3
    ("3", "2*X^2-t^3", None, None),                # not monic: 3
    ("3", "1+t", None, None),                      # degree 0: 3
    ("3", "X^2-t^401", None, None),                # t-degree cap: 3
    ("3", "(X-t)*(X+t)", "X-t;X-t^2", None),       # wrong product: 3
    ("3", "(X^2-t)*(X^2-t^3)", "(X^2-t)*(X^2-t^3)", None),  # reducible: 3
    ("3", "(X^2-t)*(X^2-t^3)", None, None),        # two branches, one piece
    ("3", "X^4-t^2", None, None),
    ("3", "(X^2-t)*(X^2-2*t)", None, None),
    ("2", "(X^2+X+1)*(X^2+(1+t^2)*X+1+t)", None, None),
    ("2", "(X^2+X+1)*(X^2+(1+t^2)*X+1+t)", "X^2+X+1;X^2+(1+t^2)*X+1+t",
     None),
    ("3", "(X^2-t)^2-t^5", None, None),
    ("5", "(X^2-t)^2-t^3", None, None),
    ("3", "X^2-t^3", None, 0),                     # precision below 1: 3
    ("3", "X^2-t^3", None, 5),                     # precision too small: 4
)

# (q, f): automatic factorizations over extension fields whose residual
# (f mod t, or after one slope the residual polynomial) holds two or
# three distinct irreducibles of one degree, so that up_factor must split
# one distinct-degree gcd; appended after the seeded inputs so that none
# of those moves
EXTENSION = (
    ("8", "(X+u)*(X+u^2)*(X+u^2+u+1)+t"),
    ("8", "(X^2+(u^2+u+1)*X+u+1)*(X^2+(u^2+u+1)*X+u^2+1)+t*X+t^2"),
    ("8", "(X^2+X+1)*(X^2+X+u+1)*(X^2+X+u^2+1)+t"),
    ("8", "(X^3+(u^2+u+1)*X^2+(u^2+u+1)*X+u)"
          "*(X^3+(u^2+u+1)*X^2+(u^2+u+1)*X+u^2+1)+t"),
    ("16", "(X^2+(u^3+u^2+u+1)*X+u^3+u+1)"
           "*(X^2+(u^3+u^2+u+1)*X+u^3+u^2+u+1)+t"),
    ("16", "(X^2+X+u^3)*(X^2+X+u^3+1)*(X^2+(u^3+u^2+u+1)*X+u^3+u^2)"
           "+t^2*X+t"),
    ("16", "(X^3+(u^3+u^2+u+1)*X^2+(u^3+u^2+u+1)*X+u^3+1)"
           "*(X^3+(u^3+u^2+u+1)*X^2+(u^3+u^2+u+1)*X+u^3+u^2+u+1)+t^2*X+t"),
    ("64", "(X+u)*(X+u^5)*(X+u^5+u^3+1)+t^2"),
    ("64", "(X^2+(u^5+u^4+u^3+u^2+u+1)*X+u^5+u^4+u^3+u+1)"
           "*(X^2+(u^5+u^4+u^3+u^2+u+1)*X+u^5+u^4+u^3+u^2+u+1)+t"),
    ("64", "(X^2+(u^5+u^4+u^3+u^2+u+1)*X+u^5+u^4+u^3+u^2)"
           "*(X^2+(u^5+u^4+u^3+u^2+u+1)*X+u^5+u^4+u^3+u^2+u+1)"
           "*(X^2+X+u^5+1)+t^3*X+t"),
    ("64", "(X^2+t*X+u^5*t^2)*(X^2+t*X+(u^5+1)*t^2)+t^5"),
)


def _element(rng, fq):
    """Text of a nonzero element of F_q, without its parentheses."""
    while True:
        digits = [rng.randrange(fq.p) for _ in range(fq.e)]
        if any(digits):
            break
    terms = [str(digits[0])] if digits[0] else []
    terms += [("" if d == 1 else f"{d}*") + ("u" if i == 1 else f"u^{i}")
              for i, d in enumerate(digits) if i and d]
    return "+".join(terms)


def _term(c, k, i):
    """Text of c*t^k*X^i."""
    parts = [f"({c})" if "+" in c else c] if c != "1" else []
    parts += [f"t^{k}" if k > 1 else "t"] if k else []
    parts += [f"X^{i}" if i > 1 else "X"] if i else []
    return "*".join(parts) or "1"


def _factor(rng, fq):
    """(degree, text) of a random monic factor of degree 1 to 3.  Its
    constant coefficient has one or two terms c*t^k and its other lower
    coefficients none to two, mostly with k > 0."""
    degree = rng.choice((1, 1, 1, 2, 2, 3))
    terms = [_term("1", 0, degree)]
    for i in range(degree):
        for _ in range(rng.randrange(0 if i else 1, 3)):
            k = 0 if rng.random() < 0.15 else rng.randrange(1, 6)
            terms.append(_term(_element(rng, fq), k, i))
    return degree, "+".join(terms)


def inputs():
    """Every input of the corpus, in order, as dicts with the keys id,
    q, f, factors (None or ";"-joined) and precision."""
    rng = random.Random(SEED)
    out = []
    for q in FIELDS:
        fq = parse_field(q)
        for _ in range(PER_FIELD):
            count = rng.choice((1, 2, 2, 3))
            parts = [_factor(rng, fq) for _ in range(count)]
            while sum(degree for degree, _ in parts) > MAX_DEGREE:
                parts.pop()
            parts = [text for _, text in parts]
            f = "*".join(f"({p})" for p in parts)
            out.append((q, f, None, None))
            out.append((q, f, ";".join(parts), None))
    out += REJECTIONS
    out += [(q, f, None, None) for q, f in EXTENSION]
    return [{"id": f"{i:03d}", "q": q, "f": f, "factors": factors,
             "precision": precision}
            for i, (q, f, factors, precision) in enumerate(out)]


def digest(order):
    """SHA-256 of what a build determines: signature(), precision, rho,
    f_window and every factor's (coeffs, window)."""
    data = (order.signature(), order.precision, order.rho, order.f_window,
            tuple((fd.coeffs, fd.window) for fd in order.factors))
    return hashlib.sha256(repr(data).encode()).hexdigest()


def _failure(exc):
    return {"exit": type(exc).__name__, "message": str(exc)}


def _rebuild(fq, fd):
    """Record of one factor built on its own, and of its extension
    rebuild when its residue field is larger than the base."""
    try:
        sub = build_order(fq, fd.coeffs, f_window=fd.window)
    except OrderZetaError as exc:
        return _failure(exc)
    record = {"exit": "ok", "digest": digest(sub)}
    if fd.d > 1:
        try:
            big = base_change_order(sub, fd.d)
            piece = big.factors[0]
            rebuilt = build_order(big.fq, piece.coeffs,
                                  f_window=piece.window)
        except OrderZetaError as exc:
            record["extension"] = _failure(exc)
        else:
            record["extension"] = {"exit": "ok",
                                   "digest": [digest(big), digest(rebuilt)]}
    return record


def run(entry):
    """The record of one input: parse, build, then the levi rebuilds."""
    try:
        fq = parse_field(entry["q"])
        f = parse_xpoly(fq, entry["f"])
        factors = entry["factors"]
        if factors is not None:
            factors = [parse_xpoly(fq, g) for g in factors.split(";")]
        order = build_order(fq, f, factors=factors,
                            precision=entry["precision"])
    except OrderZetaError as exc:
        return _failure(exc)
    return {"exit": "ok", "digest": digest(order),
            "levi": [_rebuild(fq, fd) for fd in order.factors]}


def load():
    """The manifest's entries: the inputs, each with its "result"."""
    return json.loads(MANIFEST.read_text(encoding="utf-8"))["inputs"]


def stripped(entries):
    """The entries without their results, to compare with inputs()."""
    return [{k: v for k, v in e.items() if k != "result"} for e in entries]


def main(argv):
    if argv == ["--record"]:
        entries = [dict(entry, result=run(entry)) for entry in inputs()]
        lines = ",\n".join(json.dumps(entry) for entry in entries)
        MANIFEST.write_text(f'{{"seed": {SEED}, "inputs": [\n{lines}\n]}}\n',
                            encoding="utf-8")
        print(f"recorded {len(entries)} inputs")
        return 0
    if argv:
        sys.exit("usage: corpus.py [--record]")
    entries = load()
    if stripped(entries) != inputs():
        print("the manifest's inputs differ from inputs()")
        return 1
    moved = [e["id"] for e in entries if run(e) != e["result"]]
    for ident in moved:
        print(f"moved: {ident}")
    print(f"{len(entries) - len(moved)} of {len(entries)} inputs as recorded")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
