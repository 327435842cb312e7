"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
from stats import summarize  # noqa: E402


def _analyze(f, q):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "orderzeta", "analyze", "--q", q, "--f", f,
         "--format", "json"],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout)


def test_shift_x_gives_an_isomorphic_order():
    shifted = cases.shift_x("X^2-t^3", 1)
    assert shifted == "(X+1*t)^2-t^3"
    report = _analyze(shifted, "3")
    assert report["zeta"]["coeffs"] == [1, 0, 3]
    assert report["orbital"]["O_gamma"] == 4
    assert cases.shift_x("X^2-t^3", 0) == "X^2-t^3"


def test_characteristic():
    assert [cases.characteristic(q) for q in
            ("2", "3", "4", "5", "9", "2^2:u^2+u+1")] == [2, 3, 2, 5, 3, 2]


def test_seeded_runs():
    battery = cases.load_table()["workloads"]["battery"]["cases"]
    at_zero = cases.seeded_runs(battery, 0)
    assert sorted(c["id"] for c, _ in at_zero) == \
        sorted(c["id"] for c in battery)
    for case, argv in at_zero:
        assert argv == case["argv"] + ["--format", "json", "--seed", "0"]

    runs = cases.seeded_runs(battery, 7)
    assert runs == cases.seeded_runs(battery, 7)
    for case, argv in runs:
        assert argv[-2:] == ["--seed", "7"]
        f = case["argv"][case["argv"].index("--f") + 1]
        got = argv[argv.index("--f") + 1]
        if case["exit"] != 0:
            assert got == f
            continue
        p = cases.characteristic(argv[argv.index("--q") + 1])
        assert got in {cases.shift_x(f, b) for b in range(1, p)}


def test_summarize():
    got = summarize([float(i) for i in range(30, 0, -1)])
    assert got["n"] == 30
    assert got["p50"] == 15.5
    pct, value = got["tail"]
    assert value == 20.0          # ten samples, 21..30, lie above it
    assert pct == pytest.approx(200 / 3)
    assert summarize([3.0] * 10)["tail"] is None
    assert summarize([1.0, 2.0, 9.0])["p50"] == 2.0
    with pytest.raises(ValueError):
        summarize([])


def test_load_table():
    table = cases.load_table()
    assert list(table["workloads"]) == ["battery", "lattices", "reference"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == ["battery", "lattices"]
    reference = json.loads((HERE / "reference_counts.json").read_text(
        encoding="utf-8"))["cases"]
    assert sorted(reference) == sorted(
        c["id"] for c in table["workloads"]["reference"]["cases"])
    battery = table["workloads"]["battery"]["cases"]
    assert sorted(c["exit"] for c in battery if c["exit"]) == [2, 2, 3, 3, 5]
    assert sorted({c["argv"][0] for c in
                   table["workloads"]["lattices"]["cases"]}) == \
        ["analyze", "nlines"]


@pytest.mark.parametrize("change, message", [
    (lambda t: t["workloads"]["lattices"]["cases"].append(
        dict(t["workloads"]["lattices"]["cases"][0])), "duplicate case id"),
    (lambda t: t["workloads"]["lattices"]["cases"][-1].pop("O_gamma"),
     "lacks"),
    (lambda t: t["workloads"]["lattices"]["cases"][0].pop("brute"),
     "lacks"),
])
def test_load_table_rejects_bad_records(tmp_path, change, message):
    table = json.loads(cases.TABLE.read_text(encoding="utf-8"))
    change(table)
    path = tmp_path / "workloads.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        cases.load_table(path)


def test_check():
    case = cases.load_table()["workloads"]["battery"]["cases"][0]
    report = {"zeta": {"coeffs": case["zeta"]},
              "orbital": {"O_gamma": case["O_gamma"],
                          "methods": case["routes"]},
              "class_count": case["class_count"],
              "all_checks_pass": True}
    assert cases.check(case, 0, json.dumps(report)) is None
    assert cases.check(case, 6, json.dumps(report)) == "exit 6, expected 0"
    report["orbital"]["O_gamma"] += 1
    assert cases.check(case, 0, json.dumps(report)).startswith("O_gamma")
    assert cases.check(case, 0, "{}").startswith("report lacks")


def test_traced_pass_is_deterministic_and_has_every_layer(tmp_path):
    def traced(i):
        done = subprocess.run(
            [sys.executable, str(HERE / "inproc.py"), "--workload", "battery",
             "--seed", "0", "--spans", str(tmp_path / f"spans{i}.jsonl")],
            capture_output=True, text=True, check=True, cwd=ROOT)
        return json.loads(done.stdout.splitlines()[-1])

    first, second = traced(1), traced(2)
    assert first["failures"] == [] and second["failures"] == []
    assert first["case_counts"] == second["case_counts"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    made_by_run = {"cli.import_s", "trace.overhead"}
    missing = [m["name"] for m in bench["per_layer"]
               if m["name"] not in first["metrics"]
               and m["name"] not in made_by_run]
    assert missing == []
    span = json.loads((tmp_path / "spans1.jsonl").read_text().splitlines()[0])
    assert len(span) == 5          # name, start, end, parent, case id
