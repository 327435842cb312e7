"""The orderzeta benchmark: one workload of CLI cases, end to end or traced.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the package is imported from its src/,
which is byte-compiled first.

--trace 0 runs the workload's cases round after round until the next case
would end after --seconds (at least one round).  Each case is a fresh
`python3 -m orderzeta` process and the cases run one at a time: a closed
loop with one client.  It reports the end_to_end metrics of
BENCHMARK.json: wall_s and cpu_s, the wall time and the user+sys CPU time
of one pass with every case at its fastest run; case_s.p50, the median
over cases of that fastest wall time; peak_rss_mb, the largest over cases
of a case's median ru_maxrss; setup_s, the median of SETUP_SPAWNS runs of
`python3 -c "import orderzeta.cli"` spread evenly over the run; and
passed_frac, the share of case runs whose output matched.

--trace 1 runs TRACE_PAIRS untraced and as many traced passes, each in
one process (perfbench/inproc.py), writes the spans to perfbench/out/,
and reports the per_layer metrics of BENCHMARK.json, with the tracing
overhead.

Every case's output is checked against perfbench/workloads.json.  The
last line printed is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import compileall
import contextlib
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import cases
from stats import summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
BENCHMARK = ROOT / "BENCHMARK.json"
CPUS = sorted(os.sched_getaffinity(0))

SETUP_SPAWNS = 40    # interpreter start + import, median reported
IMPORT_SPAWNS = 5    # import alone, for the trace run
TRACE_PAIRS = 2      # untraced and traced in-process passes
RUN_LIMIT_S = 150    # whatever still runs this long after the start is killed
IMPORT_ONLY = ("import time; t = time.perf_counter(); import orderzeta.cli; "
               "print(time.perf_counter() - t)")


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "ORDER_ZETA_CEILING")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args, deadline, cpu=None):
    """Run one process to its end.  Returns (exit code, stdout, wall s,
    user+sys CPU s, peak RSS MB), the last two from os.wait4.

    With cpu the process starts on that CPU and may move to any other
    afterwards.  Left alone, every process would start on the CPU this
    one runs on, and on a shared host one CPU can be slowed for minutes
    by a neighbour's load."""
    out_path = OUT / "case.out"
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    start = perf_counter()
    try:
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(args, stdout=out,
                                    stderr=subprocess.DEVNULL,
                                    env=child_env(), cwd=ROOT)
        if cpu is not None:
            with contextlib.suppress(ProcessLookupError):
                os.sched_setaffinity(proc.pid, CPUS)
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, CPUS)
    watchdog = threading.Timer(max(1.0, deadline - start), os.kill,
                               (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    return (proc.returncode, stdout, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def end_to_end(runs, seconds, deadline, samples_path):
    python = [sys.executable, "-m", "orderzeta"]
    import_cli = [sys.executable, "-c", "import orderzeta.cli"]
    spawn(import_cli, deadline)             # warm the file cache
    start = perf_counter()
    setup = []
    samples = {case["id"]: [] for case, _ in runs}
    failures = []
    # one whole pass, then round after round until the next case would
    # end after `seconds`; the set-up samples are spread evenly over the
    # run, so that their median spans it as the case times do
    for i in itertools.count():
        case, argv = runs[i % len(runs)]
        timed = samples[case["id"]]
        elapsed = perf_counter() - start
        if timed and elapsed + timed[-1][0] > seconds:
            break
        while (len(setup) < SETUP_SPAWNS
               and elapsed >= len(setup) * seconds / SETUP_SPAWNS):
            on = CPUS[len(setup) % len(CPUS)]
            setup.append(spawn(import_cli, deadline, on)[2])
            elapsed = perf_counter() - start
        # each case starts on the CPUs in turn
        on = CPUS[(i % len(runs) + i // len(runs)) % len(CPUS)]
        code, stdout, wall, cpu, rss = spawn(python + argv, deadline, on)
        timed.append((wall, cpu, rss, on))
        reason = cases.check(case, code, stdout)
        if reason is not None:
            failures.append(f"{case['id']}: {reason}")
    while len(setup) < SETUP_SPAWNS:
        on = CPUS[len(setup) % len(CPUS)]
        setup.append(spawn(import_cli, deadline, on)[2])
    with open(samples_path, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup, "cases": samples}, fh)
    # other load on the shared host only ever slows a case down, so each
    # case's fastest run is its steadiest estimate
    best_wall = [min(t[0] for t in timed) for timed in samples.values()]
    best_cpu = [min(t[1] for t in timed) for timed in samples.values()]
    every_wall = [t[0] for timed in samples.values() for t in timed]
    per_case = summarize(every_wall)
    attempted = len(every_wall)
    values = {
        "wall_s": sum(best_wall),
        "cpu_s": sum(best_cpu),
        "case_s.p50": statistics.median(best_wall),
        "peak_rss_mb": max(statistics.median(t[2] for t in timed)
                           for timed in samples.values()),
        "setup_s": statistics.median(setup),
        "passed_frac": (attempted - len(failures)) / attempted,
    }
    counts = [len(timed) for timed in samples.values()]
    notes = [f"{attempted} case runs, {min(counts)} to {max(counts)} of each "
             f"of {len(runs)} cases; samples in "
             f"{samples_path.relative_to(ROOT)}",
             f"every case run: p50 {per_case['p50']:.4f} s over "
             f"n={per_case['n']}"]
    if per_case["tail"] is not None:
        pct, value = per_case["tail"]
        notes[-1] += f", p{pct:.1f} {value:.4f} s"
    return values, attempted, failures, notes


def inproc(workload, seed, spans, deadline):
    args = [sys.executable, str(Path(__file__).with_name("inproc.py")),
            "--workload", workload, "--seed", str(seed)]
    if spans is not None:
        args += ["--spans", str(spans)]
    done = subprocess.run(args, capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=max(1.0, deadline - perf_counter()),
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def traced(workload, seed, deadline):
    import_s = statistics.median(
        float(spawn([sys.executable, "-c", IMPORT_ONLY], deadline)[1])
        for _ in range(IMPORT_SPAWNS))
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    # untraced and traced passes take turns and each side keeps its
    # fastest, so that a slow spell of the host does not read as overhead
    passes = [inproc(workload, seed, traced_to, deadline)
              for _ in range(TRACE_PAIRS) for traced_to in (None, spans)]
    plain_s = min(p["wall_s"] for p in passes[0::2])
    traced_s = min(p["wall_s"] for p in passes[1::2])
    values = dict(passes[-1]["metrics"])
    values["cli.import_s"] = import_s
    values["trace.overhead"] = traced_s / plain_s
    notes = [f"in-process passes, fastest of {TRACE_PAIRS}: untraced "
             f"{plain_s:.4f} s, traced {traced_s:.4f} s; spans in "
             f"{spans.relative_to(ROOT)}"]
    return (values, sum(p["attempted"] for p in passes),
            [f for p in passes for f in p["failures"]], notes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S

    if not (SRC / "orderzeta" / "cli.py").is_file():
        print(f"error: no orderzeta package under {SRC}", file=sys.stderr)
        return 2
    table = cases.load_table()
    if args.workload not in table["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(table['workloads'])}")
    with open(BENCHMARK, encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    # the build: bytecode for every module, as an installed package has
    if not compileall.compile_dir(SRC / "orderzeta", quiet=1):
        print("error: the package does not compile", file=sys.stderr)
        return 2
    if args.trace:
        values, attempted, failures, notes = traced(args.workload, args.seed,
                                                    deadline)
    else:
        runs = cases.seeded_runs(table["workloads"][args.workload]["cases"],
                                 args.seed)
        samples = OUT / f"samples-{args.workload}-seed{args.seed}.json"
        values, attempted, failures, notes = end_to_end(runs, args.seconds,
                                                        deadline, samples)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for note in notes:
        print(note)
    for failure in failures:
        print(f"FAILED {failure}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
