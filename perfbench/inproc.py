"""Run one pass of a workload inside this process, through
orderzeta.cli.main, with or without tracing.

    python3 perfbench/inproc.py --workload lattices --seed 0 [--spans PATH]

With --spans the package is traced and the spans are written to PATH
when the pass ends.  The last line of output is one JSON object: wall
time, cases attempted and failed, and with tracing the layer metrics
and the counts per case.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

import cases
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def import_cli():
    """orderzeta.cli from the checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import orderzeta.cli
    where = Path(orderzeta.cli.__file__).resolve().parent.parent
    if where != SRC:
        raise ImportError(f"orderzeta imported from {where}, not {SRC}")
    return orderzeta


def run_pass(cli, runs, tracer=None):
    """Wall time of the pass and the failed cases with their reasons."""
    failures = []
    start = perf_counter()
    for case, argv in runs:
        if tracer is not None:
            tracer.start_case(case["id"])
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:     # argparse rejections
                code = exc.code
        reason = cases.check(case, code, out.getvalue())
        if reason is not None:
            failures.append(f"{case['id']}: {reason}")
    return perf_counter() - start, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", help="trace, and write the spans here")
    args = parser.parse_args(argv)

    table = cases.load_table()
    runs = cases.seeded_runs(table["workloads"][args.workload]["cases"],
                             args.seed)
    package = import_cli()
    tracer = None
    if args.spans:
        tracer = Tracer(package.OrderZetaError)
        tracer.install()
    wall, failures = run_pass(package.cli, runs, tracer)
    result = {"wall_s": wall, "attempted": len(runs), "failures": failures}
    if tracer is not None:
        tracer.write_spans(args.spans)
        result["metrics"] = tracer.metrics()
        result["case_counts"] = tracer.case_counts
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
