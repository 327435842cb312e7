"""Workload cases: the table in workloads.json, the inputs a seed makes
from it, and the check of a case's output against its recorded answers."""

import json
import random
from pathlib import Path

TABLE = Path(__file__).with_name("workloads.json")
_ANALYZE_KEYS = ("zeta", "O_gamma", "routes", "class_count", "all_checks_pass")


def load_table(path=TABLE):
    """The workload table, with every case record checked for the keys its
    kind of answer needs."""
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    seen = set()
    for name, workload in table["workloads"].items():
        if not workload["cases"]:
            raise ValueError(f"workload {name} has no cases")
        for case in workload["cases"]:
            if case["id"] in seen:
                raise ValueError(f"duplicate case id {case['id']!r}")
            seen.add(case["id"])
            need = ("id", "argv", "exit")
            if case["exit"] == 0:
                need += _ANALYZE_KEYS if case["argv"][0] == "analyze" \
                    else ("brute",)
            missing = [k for k in need if k not in case]
            if missing:
                raise ValueError(f"case {case['id']!r} lacks {missing}")
    return table


def characteristic(q_spec):
    """The prime p of a field spec: '9' -> 3, '2^2:u^2+u+1' -> 2."""
    n = int(q_spec.split(":")[0].split("^")[0])
    p = 2
    while n % p:
        p += 1
    return p


def shift_x(f, b):
    """The text of f(X + b*t).  X -> X + b*t is an automorphism of O[X],
    so the order O[X]/(f(X + b*t)) is isomorphic to O[X]/(f) and has the
    same invariants."""
    return f if b == 0 else f.replace("X", f"(X+{b}*t)")


def seeded_runs(cases, seed):
    """One pass of (case, argv) pairs made from the seed.

    Seed 0 runs every case as written.  Any other seed rewrites f by
    shift_x in each analyze case expected to succeed, with b drawn from
    1..p-1: b = 0 would make the check a no-op and is cheaper, which
    would spread the timings over seeds.  Rejection cases run as
    written.  The seed also goes to --seed and shuffles the order.
    """
    rng = random.Random(seed)
    runs = []
    for case in cases:
        argv = list(case["argv"])
        if seed and case["exit"] == 0 and argv[0] == "analyze":
            p = characteristic(argv[argv.index("--q") + 1])
            at = argv.index("--f") + 1
            argv[at] = shift_x(argv[at], rng.randrange(1, p))
        runs.append((case, argv + ["--format", "json", "--seed", str(seed)]))
    rng.shuffle(runs)
    return runs


def check(case, code, stdout):
    """None when the exit code and the printed report match the case's
    recorded answers, else the first difference found."""
    if code != case["exit"]:
        return f"exit {code}, expected {case['exit']}"
    if code != 0:
        return None
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not a JSON report"
    try:
        got = _answers(case["argv"][0], report)
    except (KeyError, TypeError) as exc:
        return f"report lacks {exc}"
    if case["argv"][0] == "nlines":
        want = {
            "brute": case["brute"],
            "specialized": case["brute"],
            "checks": {k: True for k in got["checks"]},
        }
    else:
        want = {k: case[k] for k in _ANALYZE_KEYS}
    for key, value in want.items():
        if got[key] != value:
            return f"{key} is {got[key]}, expected {value}"
    return None


def _answers(command, report):
    if command == "nlines":
        return {
            "brute": report["brute"]["coeffs"],
            "specialized": report["specialized"]["coeffs"],
            "checks": report["checks"],
        }
    return {
        "zeta": report["zeta"]["coeffs"],
        "O_gamma": report["orbital"]["O_gamma"],
        "routes": report["orbital"]["methods"],
        "class_count": report["class_count"],
        "all_checks_pass": report["all_checks_pass"],
    }
