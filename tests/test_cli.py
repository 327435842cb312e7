"""Command line front end: parsing, reports, formats, exit codes."""

import json
from time import perf_counter

import pytest

from orderzeta.cli import main
from orderzeta import cli, report
from orderzeta.errors import ParseError, PrecisionExhausted
from orderzeta.parsing import (format_order_description, parse_field,
                               parse_order_description)
from orderzeta.report import analyze_report, mnpoly_report, nlines_report

F3 = parse_field("3")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_cusp_text(capsys):
    code, out, _ = run(capsys, "analyze", "--q", "3", "--f", "X^2 - t^3")
    assert code == 0
    assert "P(t) = 3*t^2 + 1" in out
    assert "O_gamma = 4 (zeta 4, lattice 4, levi 4)" in out
    assert "bounds: 4 <= O_gamma <= 4" in out
    assert "elliptic formula: 4" in out
    assert "result: all checks pass" in out


def test_analyze_node_with_factors(capsys):
    code, out, _ = run(capsys, "analyze", "--q", "5", "--f", "X^2 - t^2",
                       "--factors", "X - t; X + t")
    assert code == 0
    assert "P(t) = 5*t^2 - t + 1" in out
    assert "P(1) = 5" in out


def test_analyze_prime_power_field(capsys):
    code, out, _ = run(capsys, "analyze", "--q", "4", "--f", "X^2 + X + u")
    assert code == 0
    assert "q = 4 (spec 2^2:u^2+u+1)" in out
    assert "P(t) = 1" in out


def test_analyze_json_schema(capsys):
    code, out, _ = run(capsys, "analyze", "--q", "3", "--f", "X^2 - t^3",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert list(report) == [
        "tool", "version", "command", "q", "q_spec", "f", "precision",
        "j_max", "ceiling", "seed", "delta", "rho", "factors",
        "quot_counts", "zeta", "special_values", "class_count", "orbital",
        "per_class", "checks", "all_checks_pass",
    ]
    assert report["zeta"]["coeffs"] == [1, 0, 3]
    assert report["orbital"]["O_gamma"] == 4
    assert report["orbital"]["methods"] == {"zeta": 4, "lattice": 4,
                                            "levi": 4}
    assert report["orbital"]["bounds"] == {"lower": 4, "upper": 4}
    assert report["orbital"]["elliptic_formula"] == 4
    assert report["orbital"]["levi_fiber_check"] is None
    assert report["all_checks_pass"] is True


def test_analyze_fibers_and_per_class(capsys):
    code, out, _ = run(capsys, "analyze", "--q", "3", "--f", "X^2 - t^2",
                       "--fibers", "3", "--per-class", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["orbital"]["levi_fiber_check"] is True
    assert report["orbital"]["fiber_sample"] == 3
    assert report["checks"]["levi_fiber_check_ok"] is True
    assert report["per_class"]["labels"] == ["c0", "c1"]
    assert report["per_class"]["pairing_ok"] is True


def test_analyze_repeat_runs_are_byte_identical(capsys):
    args = ("analyze", "--q", "3", "--f", "X^2 - t^5", "--seed", "7",
            "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert json.loads(first)["seed"] == 7


def test_analyze_precision_override_changes_no_count(capsys):
    _, plain, _ = run(capsys, "analyze", "--q", "3", "--f", "X^2 - t^3",
                      "--format", "json")
    _, wide, _ = run(capsys, "analyze", "--q", "3", "--f", "X^2 - t^3",
                     "--precision", "90", "--format", "json")
    a, b = json.loads(plain), json.loads(wide)
    assert a["zeta"] == b["zeta"]
    assert a["orbital"] == b["orbital"]
    assert b["precision"] > a["precision"]


def test_an_exact_factorization_lifts_to_a_wide_window_at_once(capsys):
    # the Hensel split of (X-1)(X-2) stays exact, so its lift to 4000
    # digits skips every zero digit; the column loop took 5.8-6.5 s
    start = perf_counter()
    code, out, _ = run(capsys, "analyze", "--q", "3", "--f", "(X-1)*(X-2)",
                       "--precision", "4000")
    assert perf_counter() - start < 3
    assert code == 0
    assert "result: all checks pass" in out


@pytest.mark.parametrize("env", ["1", "1e3"])
def test_ambient_ceiling_variable_is_ignored(capsys, monkeypatch, env):
    # the work ceiling comes from --ceiling alone, so a variable left set
    # in the shell changes neither the report nor the exit code
    monkeypatch.setenv("ORDER_ZETA_CEILING", env)
    code, out, _ = run(capsys, "analyze", "--q", "3", "--f", "X^2-t^3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["ceiling"] == 100000000


@pytest.mark.parametrize("flags", [
    ("--ceiling", "-1"),
    ("--ceiling", "0"),
], ids=["flag-negative", "flag-zero"])
def test_ceiling_below_one_exits_3_before_any_work(capsys, monkeypatch,
                                                   flags):
    def never(*args, **kwargs):
        raise AssertionError("analysis started")

    monkeypatch.setattr(cli, "analyze_report", never)
    code, out, err = run(capsys, "analyze", "--q", "3", "--f", "X^2-t^3",
                         *flags)
    assert (code, out) == (3, "")
    assert "ceiling must be at least 1" in err


def test_analyze_order_description_file(capsys, tmp_path):
    path = tmp_path / "node.order"
    path.write_text("q = 5\nf = X^2 - t^2\nfactors = X - t; X + t\n")
    code, out, _ = run(capsys, "analyze", "--file", str(path),
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["zeta"]["coeffs"] == [1, -1, 5]
    assert [fd["poly"] for fd in report["factors"]] == ["X + t", "X + 4*t"]


def test_description_round_trip():
    f = ((0, 0, 0, 2), (), (1,))
    text = format_order_description(F3, f, precision=20)
    desc = parse_order_description(text)
    assert desc["fq"].q == 3
    assert desc["f"] == f
    assert desc["precision"] == 20
    assert format_order_description(desc["fq"], desc["f"],
                                    precision=desc["precision"]) == text


# ---------------------------------------------------------------------------
# nlines and mnpoly
# ---------------------------------------------------------------------------

def test_nlines_three_at_two(capsys):
    code, out, _ = run(capsys, "nlines", "--n", "3", "--q", "2")
    assert code == 0
    assert "specialized: 4*t^4 + t^2 + 1" in out
    assert "enumerated: 4*t^4 + t^2 + 1" in out
    assert "value at 1 = 6   class count = 6" in out
    assert "variant on the normalization lattice: t^2 + 4*t + 1" in out
    assert "variant on the order lattice: 7*t^2 - 2*t + 1" in out
    assert "result: all checks pass" in out


def test_nlines_two_matches_node(capsys):
    _, lines_out, _ = run(capsys, "nlines", "--n", "2", "--q", "3",
                          "--format", "json")
    _, node_out, _ = run(capsys, "analyze", "--q", "3", "--f", "X^2 - t^2",
                         "--format", "json")
    lines_report = json.loads(lines_out)
    node_report = json.loads(node_out)
    assert lines_report["brute"]["coeffs"] == node_report["zeta"]["coeffs"]


def test_nlines_symbolic_only(capsys):
    code, out, _ = run(capsys, "nlines", "--n", "4", "--symbolic-only")
    assert code == 0
    assert "leading term q^4" in out
    assert "enumerated" not in out


def test_nlines_requires_field_for_brute_force(capsys):
    code, _, err = run(capsys, "nlines", "--n", "3")
    assert code == 3
    assert "symbolic-only" in err


def test_mnpoly_table_rows(capsys):
    code, out, _ = run(capsys, "mnpoly", "--delta", "2", "--r", "2")
    assert code == 0
    assert "upper factor: x^2 + 2*x + 2" in out
    assert "lower factor: x^2 + x + 2" in out
    _, out, _ = run(capsys, "mnpoly", "--delta", "0", "--r", "1")
    assert "upper factor: 1" in out and "lower factor: 1" in out
    _, out, _ = run(capsys, "mnpoly", "--delta", "3", "--r", "4")
    assert "upper factor: x^3 + 3*x^2 + 3*x + 4" in out


def test_mnpoly_rejects_bad_ranges(capsys):
    assert run(capsys, "mnpoly", "--delta", "-1", "--r", "1")[0] == 3
    assert run(capsys, "mnpoly", "--delta", "2", "--r", "0")[0] == 3


def test_mnpoly_refuses_a_delta_above_its_cap_at_once(capsys):
    # the partition table grows as delta^2, so delta = 1001 is refused
    # before it is built
    start = perf_counter()
    code, out, err = run(capsys, "mnpoly", "--delta", "1001", "--r", "2")
    assert perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == "error: delta must be <= 1000, the cap of mnpoly\n"


def test_mnpoly_at_its_cap_is_quadratic_for_every_r(capsys):
    # r above delta sums the longest windows of the partition table; the
    # sliding sum keeps that O(delta^2), as for small r
    start = perf_counter()
    code, out, err = run(capsys, "mnpoly", "--delta", "1000", "--r", "1001")
    assert perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert out


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def test_selftest_quick(capsys):
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 0
    assert "0 failed" in out
    assert out.count("PASS") == 10


def test_selftest_quick_is_deterministic(capsys):
    _, first, _ = run(capsys, "selftest", "--quick", "--seed", "42")
    _, second, _ = run(capsys, "selftest", "--quick", "--seed", "42")
    assert first == second


def test_selftest_reports_a_library_error_as_one_failed_check(
        capsys, monkeypatch):
    # every check is stubbed so the test is fast; one raises the error
    monkeypatch.setattr(report, "_battery_reports", lambda qs, ceiling: [])
    for name in [n for n in vars(report) if n.startswith("_check_")]:
        monkeypatch.setattr(report, name, lambda *args: "stubbed")

    def exhausted(*args):
        raise PrecisionExhausted("need 24 digits, have 22")
    monkeypatch.setattr(report, "_check_per_class", exhausted)

    code, out, _ = run(capsys, "selftest", "--quick", "--format", "json")
    assert code == 1
    result = json.loads(out)
    assert (result["passed"], result["failed"]) == (9, 1)
    failed = [c for c in result["checks"] if c["status"] == "fail"]
    assert failed == [{"name": "per_class_pairing", "status": "fail",
                       "detail": "PrecisionExhausted: need 24 digits, "
                                 "have 22"}]
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 1
    assert out.count("PASS") == 9
    assert "FAIL  per_class_pairing" in out


def test_selftest_reports_the_ceiling_check_by_check(capsys):
    # the battery is built inside its first check, so an enumeration
    # over the ceiling fails checks instead of aborting the run
    code, out, _ = run(capsys, "selftest", "--quick", "--ceiling", "10",
                       "--format", "json")
    assert code == 1
    result = json.loads(out)
    assert len(result["checks"]) == 10
    status = {c["name"]: c["status"] for c in result["checks"]}
    assert status["punctual_tallies"] == status["upper_bound_table"] == "pass"
    for c in result["checks"]:
        if c["name"].startswith("battery_"):
            assert c["status"] == "fail"
            assert c["detail"].startswith("CeilingExceeded: ")


# ---------------------------------------------------------------------------
# error paths and exit codes
# ---------------------------------------------------------------------------

def test_exit_codes(capsys):
    assert run(capsys, "analyze", "--q", "3", "--f", "X^2 ++ t")[0] == 2
    assert run(capsys, "analyze", "--q", "6", "--f", "X^2 - t")[0] == 2
    assert run(capsys, "analyze", "--q", "3")[0] == 2
    assert run(capsys, "analyze", "--q", "3", "--f", "X^2 - t^-2")[0] == 3
    assert run(capsys, "analyze", "--q", "4", "--f", "X^2 - t")[0] == 3
    assert run(capsys, "analyze", "--q", "3", "--f", "X^2 - t^3",
               "--ceiling", "10")[0] == 5


def test_ceiling_below_the_orbit_bound_exits_5_before_enumerating(
        capsys, monkeypatch):
    # X^2 - t^7 over F_3 has at least 28 classes, so the lattice route
    # needs at least 27 work units: a ceiling of 12 stops the run before
    # the first enumeration, and a ceiling of 27 stops it in one
    argv = ("analyze", "--q", "3", "--f", "X^2-t^7", "--ceiling")

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the zeta phase ran")
    with monkeypatch.context() as patch:
        patch.setattr(report, "zeta_polynomial", no_enumeration)
        code, _, err = run(capsys, *argv, "12")
    assert code == 5
    assert "lower bound 28" in err
    assert "work ceiling 12" in err
    code, _, err = run(capsys, *argv, "27")
    assert code == 5
    assert "enumeration exceeded the work ceiling 27" in err


@pytest.mark.parametrize("q, f, count", [
    ("47", "X^2-t^3", 48),
    ("81", "X^2-t^3", 82),
    ("59", "(X-t)*(X-t^2)", 59),
    ("128", "X^2+t*X", 128),
])
def test_large_fields_build_past_the_frobenius_window(capsys, q, f, count):
    # q times the scale of the last normalization round reaches the build
    # window here, so a q-th power taken by q - 1 products in the order
    # would lose every digit of the window
    code, out, _ = run(capsys, "analyze", "--q", q, "--f", f)
    assert code == 0
    assert f"O_gamma = {count} (zeta {count}, lattice {count}, " \
        f"levi {count})" in out


BRANCH_COUNT = "supply a factorization into irreducible factors"


@pytest.mark.parametrize("q, f", [
    ("3", "(X^2-t)*(X^2-t^3)"),
    ("3", "X^4-t^2"),
    ("3", "(X^2-t)*(X^2-2*t)"),
    ("3", "(X^2-t)^2-t^5"),
    ("5", "(X^2-t)^2-t^3"),
    ("2", "(X^2+X+1)*(X^2+(1+t^2)*X+1+t)"),
])
def test_pieces_the_walker_cannot_split_fail_the_branch_count(capsys, q, f):
    code, out, err = run(capsys, "analyze", "--q", q, "--f", f)
    assert (code, out) == (3, "")
    assert err == f"error: f has 2 branches but 1 factors; {BRANCH_COUNT}\n"


def test_a_reducible_supplied_factor_exits_3(capsys):
    # (X^2 - t)^2 - t^5 splits over F_3((t)) into two quadratics with
    # power-series coefficients
    f = "(X^2-t)^2-t^5"
    code, _, err = run(capsys, "analyze", "--q", "3", "--f", f,
                       "--factors", f)
    assert code == 3
    assert err == f"error: f has 2 branches but 1 factors; {BRANCH_COUNT}\n"


def test_conjugate_factors_need_an_explicit_factorization(capsys):
    # two quadratics with the same residual X^2 + X + 1 over F_2: the
    # walker leaves f whole, and the normalization counts two branches
    f = "(X^2+X+1)*(X^2+(1+t^2)*X+1+t)"
    code, _, err = run(capsys, "analyze", "--q", "2", "--f", f)
    assert code == 3
    assert "f has 2 branches but 1 factors" in err
    assert BRANCH_COUNT in err
    code, out, _ = run(capsys, "analyze", "--q", "2", "--f", f,
                       "--factors", "X^2+X+1;X^2+(1+t^2)*X+1+t")
    assert code == 0
    assert "O_gamma = 4 (zeta 4, lattice 4, levi 4)" in out


@pytest.mark.parametrize("flag", ["--f", "--factors"])
@pytest.mark.parametrize("k", ["100000", "1000000"])
def test_coefficient_degrees_above_the_cap_exit_3_at_once(capsys, flag, k):
    argv = ["analyze", "--q", "3", "--f", f"X^2 - t^{k}"]
    if flag == "--factors":
        argv = ["analyze", "--q", "3", "--f", "X^2 - t^3",
                "--factors", f"X - t^{k}; X + t^{k}"]
    start = perf_counter()
    code, _, err = run(capsys, *argv)
    assert perf_counter() - start < 1
    assert code == 3
    assert "t-degree <= 400" in err


def test_a_pole_keeps_its_message_above_the_cap(capsys):
    code, _, err = run(capsys, "analyze", "--q", "3", "--f",
                       "X^2 - t^-1000000")
    assert code == 3
    assert "t^-1000000 has a pole at t = 0" in err


def test_an_empty_factor_list_is_a_parse_error(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", "--q", "3", "--f", "X^2-t^3",
                       "--factors", "")
    assert code == 2
    path = tmp_path / "o.order"
    path.write_text("q = 3\nf = X^2 - t^3\nfactors =\n")
    code, _, err = run(capsys, "analyze", "--file", str(path))
    assert code == 2
    assert "empty value for 'factors'" in err
    path.write_text("q = 3\nf = X^2 - t^3\n")
    code, _, err = run(capsys, "analyze", "--file", str(path),
                       "--factors", "")
    assert code == 2
    assert "replaces" in err


@pytest.mark.parametrize("argv", [
    ("analyze", "--q", "2", "--f", "X^3-t^5", "--precision", "10"),
    ("analyze", "--q", "3", "--f", "X^2-t^7", "--per-class",
     "--precision", "16"),
])
def test_generator_vanishing_to_the_window_exits_4(capsys, argv):
    # a lattice generator that is zero to its window is a precision
    # failure (exit 4), not a violated precondition (exit 3)
    code, _, err = run(capsys, *argv)
    assert code == 4
    assert "vanish to the working window" in err


@pytest.mark.parametrize("value", ["0", "-4"])
def test_precision_below_one_exits_3_from_either_spelling(capsys, tmp_path,
                                                          value):
    code, _, err = run(capsys, "analyze", "--q", "3", "--f", "X^2-t^3",
                       "--precision", value)
    assert code == 3
    assert "precision must be positive" in err
    path = tmp_path / "o.order"
    path.write_text(f"q = 3\nf = X^2 - t^3\nprecision = {value}\n")
    code, _, err = run(capsys, "analyze", "--file", str(path))
    assert code == 3
    assert "precision must be positive" in err


def test_precision_spellings_keep_their_other_exit_codes(capsys, tmp_path):
    # a non-integer is a parse error; a positive value too small for f
    # is a precision failure
    path = tmp_path / "o.order"
    path.write_text("q = 3\nf = X^2 - t^3\nprecision = zero\n")
    assert run(capsys, "analyze", "--file", str(path))[0] == 2
    with pytest.raises(SystemExit) as exc:
        run(capsys, "analyze", "--q", "3", "--f", "X^2-t^3",
            "--precision", "zero")
    assert exc.value.code == 2
    path.write_text("q = 3\nf = X^2 - t^3\nprecision = 2\n")
    assert run(capsys, "analyze", "--file", str(path))[0] == 4
    assert run(capsys, "analyze", "--q", "3", "--f", "X^2-t^3",
               "--precision", "2")[0] == 4


def test_tally_length_is_not_an_option(capsys):
    # every tally runs to the length the code plans
    for argv in (["analyze", "--q", "3", "--f", "X^2-t^3", "--j-max", "2"],
                 ["nlines", "--n", "3", "--q", "2", "--j-max", "9"]):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --j-max" in capsys.readouterr().err


def test_file_flag_conflicts_with_inline_flags(capsys, tmp_path):
    # an empty --q or --f conflicts too, as an empty --factors does
    path = tmp_path / "o.order"
    path.write_text("q = 3\nf = X^2 - t^3\n")
    for flags in (("--q", "3"), ("--q=",), ("--f=",)):
        code, _, err = run(capsys, "analyze", "--file", str(path), *flags)
        assert code == 2, flags
        assert "--file replaces --q, --f, and --factors" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "--file", "/nonexistent/x.order")
    assert code == 2
    assert "cannot read" in err


def test_report_helpers_reject_bad_input():
    with pytest.raises(Exception):
        mnpoly_report(-1, 1)
    with pytest.raises(Exception):
        nlines_report(7, fq=F3)


def test_analyze_report_records_notes_field():
    report = analyze_report(F3, ((1,), (), (1,)))
    assert report["orbital"]["notes"] == []
    assert report["class_count"] == 1
