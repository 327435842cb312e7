"""Regenerate the golden corpus: the text and JSON output of fixed CLI runs.

    PYTHONPATH=src python3 tests/golden/regen.py

Each case of CASES runs in process once; its report is rendered in both
formats exactly as the CLI prints it and written to
tests/golden/<name>.txt and <name>.json.
tests/test_golden.py asserts that the current code prints exactly these
bytes, which is the safety net for changes meant to keep every report
the same.

Regenerating the corpus is allowed only for an intended output change,
and that change must be recorded in CHANGES.md.  A refactor or a speed-up
that moves a golden file is a bug in the change, not in the corpus.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# (file stem, argv without --format); every run exits 0
CASES = (
    ("q2-cusp23-per-class",
     ("analyze", "--q", "2", "--f", "X^2+t^2*X+t^3", "--per-class")),
    ("q2-cusp35-per-class",
     ("analyze", "--q", "2", "--f", "X^2+t^3*X+t^5", "--per-class")),
    ("q2-node-fibers",
     ("analyze", "--q", "2", "--f", "(X-t)*(X-t^2)", "--fibers", "4")),
    ("q2-x3-t4-per-class",
     ("analyze", "--q", "2", "--f", "X^3-t^4", "--per-class")),
    ("q3-cusp-per-class",
     ("analyze", "--q", "3", "--f", "X^2-t^3", "--per-class")),
    ("q3-x2-t5-per-class",
     ("analyze", "--q", "3", "--f", "X^2-t^5", "--per-class")),
    ("q3-node-fibers",
     ("analyze", "--q", "3", "--f", "(X-t)*(X-t^2)", "--fibers", "4")),
    ("q3-unramified",
     ("analyze", "--q", "3", "--f", "X^2+1")),
    ("q3-recenter",
     ("analyze", "--q", "3", "--f", "(X-1)^2-t^3")),
    ("q3-recenter-split",
     ("analyze", "--q", "3", "--f", "(X-1-t)*(X-1-t^2)")),
    ("q3-descent",
     ("analyze", "--q", "3", "--f", "(X^2+1)^2-t^3")),
    ("q3-supplied-factors",
     ("analyze", "--q", "3", "--f", "(X^2-t)*(X^2-t^3)",
      "--factors", "X^2-t;X^2-t^3")),
    ("q3-twist-mixed",
     ("analyze", "--q", "3", "--f", "(X-t)*(X^2-t^3)")),
    ("q3-twist-unramified",
     ("analyze", "--q", "3", "--f", "(X^2+1)*(X-t)")),
    ("q3-twist-three",
     ("analyze", "--q", "3", "--f", "(X-t)*(X+t)*(X-t^2)")),
    ("q4-split-per-class",
     ("analyze", "--q", "2^2:u^2+u+1", "--f", "X^2+t*X", "--per-class")),
    ("q4-node-fibers",
     ("analyze", "--q", "4", "--f", "(X-t)*(X-t^3)", "--fibers", "4")),
    ("q5-cusp-per-class",
     ("analyze", "--q", "5", "--f", "X^2-t^3", "--per-class")),
    ("q5-tacnode-per-class",
     ("analyze", "--q", "5", "--f", "(X-t)*(X-t^3)", "--per-class")),
    ("q5-x2-t5",
     ("analyze", "--q", "5", "--f", "X^2-t^5")),
    ("q9-cusp-per-class",
     ("analyze", "--q", "9", "--f", "X^2-t^3", "--per-class")),
    ("q9-node-fibers",
     ("analyze", "--q", "9", "--f", "(X-t)*(X-t^2)", "--fibers", "4")),
    ("nlines-n2-q3", ("nlines", "--n", "2", "--q", "3")),
    ("nlines-n2-q5", ("nlines", "--n", "2", "--q", "5")),
    ("nlines-n3-q2", ("nlines", "--n", "3", "--q", "2")),
    ("nlines-n3-symbolic", ("nlines", "--n", "3", "--symbolic-only")),
    ("nlines-n5-symbolic", ("nlines", "--n", "5", "--symbolic-only")),
    ("nlines-n8-symbolic", ("nlines", "--n", "8", "--symbolic-only")),
    ("mnpoly-d2-r2", ("mnpoly", "--delta", "2", "--r", "2")),
    ("mnpoly-d3-r1", ("mnpoly", "--delta", "3", "--r", "1")),
    ("selftest-quick", ("selftest", "--quick")),
)
FORMATS = ("txt", "json")


def run(argv):
    """(exit code, {format: standard output}) of one CLI run, with the
    report built once and rendered in both formats."""
    from orderzeta.cli import _dispatch, build_parser, render
    report, code = _dispatch(build_parser().parse_args(list(argv)))
    return code, {"txt": render(report, "text"),
                  "json": render(report, "json")}


def golden_path(name, fmt):
    return HERE / f"{name}.{fmt}"


def main():
    for name, argv in CASES:
        code, outputs = run(argv)
        if code != 0:
            sys.exit(f"{name} exited {code}; not recorded")
        for fmt in FORMATS:
            golden_path(name, fmt).write_text(outputs[fmt], encoding="utf-8")
            print(f"wrote {golden_path(name, fmt).name}")


if __name__ == "__main__":
    main()
