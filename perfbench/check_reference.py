"""Determinism check of the traced counts.

    python3 perfbench/check_reference.py

Runs the traced pass of every workload twice at seed 0, each in a fresh
process.  Exits 1 unless both runs pass every case, give identical counts
for every case, and match perfbench/reference_counts.json.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import cases
from run import OUT, inproc

REFERENCE = Path(__file__).with_name("reference_counts.json")


def main():
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["cases"]
    OUT.mkdir(exist_ok=True)
    problems = []
    counts = {}
    for workload in cases.load_table()["workloads"]:
        first, second = (
            inproc(workload, 0, OUT / f"check-{workload}-{i}.jsonl",
                   perf_counter() + 600)
            for i in (1, 2))
        problems += first["failures"] + second["failures"]
        if first["case_counts"] != second["case_counts"]:
            problems.append(f"{workload}: two traced runs differ")
        counts.update(first["case_counts"])
    for case_id, want in reference.items():
        got = {name: counts.get(case_id, {}).get(name, 0) for name in want}
        status = "ok" if got == want else "DIFFERS"
        print(f"{status:7} {case_id}: {got}")
        if got != want:
            problems.append(f"{case_id}: expected {want}")
    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
