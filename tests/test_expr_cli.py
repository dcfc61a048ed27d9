"""Expression language and command-line front end."""

import argparse
import hashlib
import json
import pathlib
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from semideal import ParseError, ideal_str, instance, natideal
from semideal.cli import main
from semideal.exprparse import (
    IdealLit,
    Intersect,
    Invert,
    Power,
    Product,
    Quotient,
    Sum,
    eval_expr,
    parse_expr,
    unparse,
)

N0 = instance("n0")
GCD = instance("gcd")
LAG = instance("lagrassa")

JSON_KEYS = {"command", "instance", "result", "witness", "status", "seed"}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv + ["--json"], capsys)
    doc = json.loads(out)
    assert set(doc) == JSON_KEYS
    assert isinstance(doc["command"], str)
    assert isinstance(doc["instance"], str)
    assert doc["status"] in ("pass", "fail", "unsupported")
    assert isinstance(doc["seed"], int)
    assert doc["witness"] is None or isinstance(doc["witness"], dict)
    return code, doc, err


# ---------------------------------------------------------------------------
# parser


def test_parse_known_shapes():
    assert parse_expr("I(2)*I(3) & I(4)") == Intersect(
        Product(IdealLit((Fraction(2),)), IdealLit((Fraction(3),))),
        IdealLit((Fraction(4),)),
    )
    assert parse_expr("[I(12):I(6)]^2") == Power(
        Quotient(IdealLit((Fraction(12),)), IdealLit((Fraction(6),))), 2
    )
    assert parse_expr("I(1/2, 3)") == IdealLit((Fraction(1, 2), Fraction(3)))
    # inv binds to the atom; '^' then applies to the inverted atom
    assert parse_expr("inv I(2)^2") == Power(Invert(IdealLit((Fraction(2),))), 2)
    # '+' and '&' share one precedence level, left associative
    assert parse_expr("I(2)+I(3)&I(4)") == Intersect(
        Sum(IdealLit((Fraction(2),)), IdealLit((Fraction(3),))), IdealLit((Fraction(4),))
    )
    assert parse_expr("I(2)+I(3)+I(4)") == Sum(
        Sum(IdealLit((Fraction(2),)), IdealLit((Fraction(3),))), IdealLit((Fraction(4),))
    )
    # '*' binds tighter than '+'
    assert parse_expr("I(2)+I(3)*I(4)") == Sum(
        IdealLit((Fraction(2),)), Product(IdealLit((Fraction(3),)), IdealLit((Fraction(4),)))
    )
    assert parse_expr(" ( I(5) ) ") == IdealLit((Fraction(5),))


def test_unparse_round_trip():
    exprs = [
        "I(2)*I(3) & I(4)",
        "[I(12):I(6)]^2",
        "inv I(2)^3 + I(1/2)",
        "I(2,3,5/7) & (I(4) + inv I(9))",
        "[[I(8):I(2)] : I(2)^2] * I(3)",
        "I(1)",
    ]
    for text in exprs:
        tree = parse_expr(text)
        assert parse_expr(unparse(tree)) == tree, text


def test_parse_error_columns_and_expected_sets():
    with pytest.raises(ParseError) as exc:
        parse_expr("I()")
    assert exc.value.column == 3
    assert exc.value.expected == ("RAT",)

    with pytest.raises(ParseError) as exc:
        parse_expr("I(2")
    assert exc.value.column == 4
    assert set(exc.value.expected) == {"','", "')'"}

    with pytest.raises(ParseError) as exc:
        parse_expr("I(2)^")
    assert exc.value.column == 6
    assert exc.value.expected == ("NAT",)

    with pytest.raises(ParseError) as exc:
        parse_expr("2+2")
    assert exc.value.column == 1
    assert set(exc.value.expected) == {"'I('", "'inv'", "'['", "'('"}

    with pytest.raises(ParseError) as exc:
        parse_expr("[I(2):I(3)")
    assert exc.value.column == 11

    with pytest.raises(ParseError) as exc:
        parse_expr("I(1/0)")
    assert "zero denominator" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_expr("I(2)$")
    assert "column 5" in str(exc.value)

    with pytest.raises(ParseError):
        parse_expr("")

    with pytest.raises(ParseError) as exc:
        parse_expr("I(2) I(3)")  # trailing junk after a complete expression
    assert exc.value.column == 6


def test_eval_expr_known_values():
    assert ideal_str(eval_expr(GCD, parse_expr("[I(12):I(6)]^2"))) == "I(4)"
    assert ideal_str(eval_expr(GCD, parse_expr("inv I(2) * I(2)"))) == "I(1)"
    assert ideal_str(eval_expr(GCD, parse_expr("I(4)+I(6)"))) == "I(2)"
    assert ideal_str(eval_expr(GCD, parse_expr("I(4)&I(6)"))) == "I(12)"
    assert ideal_str(eval_expr(N0, parse_expr("I(2)*I(3)"))) == "I(6)"
    from semideal import NotFractional, Unsupported

    with pytest.raises(NotFractional):
        eval_expr(N0, parse_expr("inv I(3,4,5)"))
    with pytest.raises(Unsupported):
        eval_expr(LAG, parse_expr("I(1)"))


# ---------------------------------------------------------------------------
# CLI: happy paths


def test_cli_eval(capsys):
    code, out, _ = run(["eval", "--instance", "gcd", "I(4)+I(6)"], capsys)
    assert code == 0 and out == "I(2)\n"

    code, doc, _ = run_json(["eval", "--instance", "gcd", "I(4)+I(6)"], capsys)
    assert code == 0
    assert doc["command"] == "eval" and doc["instance"] == "gcd"
    assert doc["result"] == {"text": "I(2)", "integral": True, "generators": ["2"]}

    # a fractional result has no generator list
    code, doc, _ = run_json(["eval", "--instance", "gcd", "I(3/2)"], capsys)
    assert code == 0
    assert doc["result"] == {"text": "I(3/2)", "integral": False}


def test_cli_factor(capsys):
    code, out, _ = run(["factor", "--instance", "gcd", "I(84)"], capsys)
    assert code == 0 and out == "2^2 * 3 * 7\n"

    code, doc, _ = run_json(["factor", "--instance", "quad5", "I(6)"], capsys)
    assert code == 0
    assert doc["result"]["text"] == "P2^2 * P3[1] * P3[2]"
    assert doc["result"]["factors"] == [
        {"prime": "P2", "exponent": 2},
        {"prime": "P3[1]", "exponent": 1},
        {"prime": "P3[2]", "exponent": 1},
    ]

    code, out, _ = run(["factor", "--instance", "dvs", "I(3)"], capsys)
    assert code == 0 and out == "t^3\n"

    # no prime factorization of non-invertible n0 ideals
    code, _, err = run(["factor", "--instance", "n0", "I(3,4,5)"], capsys)
    assert code == 3 and err.startswith("Unsupported:")


def test_cli_classify(capsys):
    code, out, _ = run(["classify", "--instance", "n0", "I(3,4,5)"], capsys)
    assert code == 0
    assert out == "prime=false maximal=false subtractive=false invertible=false\n"
    code, doc, _ = run_json(["classify", "--instance", "gcd", "I(7)"], capsys)
    assert code == 0
    assert doc["result"] == {
        "prime": True,
        "maximal": True,
        "subtractive": True,
        "invertible": True,
    }


def test_cli_twogen(capsys):
    code, out, _ = run(["twogen", "--instance", "gcd", "I(12)", "24"], capsys)
    assert code == 0 and out == "a=24 b=60\n"
    code, _, err = run(["twogen", "--instance", "gcd", "I(12)", "18"], capsys)
    assert code == 3 and err.startswith("NotAMember:")


def test_cli_localize(capsys):
    code, out, _ = run(["localize", "--instance", "gcd", "3", "I(18)"], capsys)
    assert code == 0 and out == "t^2\n"
    code, doc, _ = run_json(["localize", "--instance", "gcd", "3", "I(18)"], capsys)
    assert doc["result"] == {"text": "t^2", "exponent": 2}
    code, _, err = run(["localize", "--instance", "gcd", "4", "I(18)"], capsys)
    assert code == 3 and err.startswith("UnknownPrime:")


def test_cli_sandwich(capsys):
    code, out, _ = run(["sandwich", "--instance", "gcd", "I(3/2)"], capsys)
    assert code == 0 and out == "c=3 d=2\n"
    code, doc, _ = run_json(["sandwich", "--instance", "gcd", "I(3/2)"], capsys)
    assert doc["result"] == {"ideal": "I(3/2)", "c": "3", "d": "2"}


def test_cli_dm(capsys):
    code, out, _ = run(["dm", "--instance", "n0", "2,3", "2,3"], capsys)
    assert code == 0
    assert out.splitlines()[0] == (
        "gaussian=false dm_exponent=1 c(f)=I(2,3) c(g)=I(2,3) c(fg)=I(4,9)"
    )
    assert '"member": "6"' in out.splitlines()[1]

    code, doc, _ = run_json(["dm", "--instance", "n0", "2,3", "2,3"], capsys)
    assert code == 0
    assert doc["result"]["gaussian"] is False
    assert doc["result"]["dm_exponent"] == 1
    assert doc["result"]["product"] == "I(4,6,9)"
    assert doc["witness"] == {"member": "6", "in": "c(f)c(g)", "not_in": "c(fg)"}

    # a pair that never balances surfaces the error escape
    code, _, err = run(["dm", "--instance", "n0", "4,2,3", "3,2"], capsys)
    assert code == 3 and err.startswith("DMCapExceeded:")
    code, doc, _ = run_json(["dm", "--instance", "n0", "4,2,3", "3,2"], capsys)
    assert code == 3
    assert doc["status"] == "unsupported"
    assert doc["result"]["error"] == "DMCapExceeded"

    code, _, err = run(["dm", "--instance", "lagrassa", "1", "1"], capsys)
    assert code == 3 and err.startswith("Unsupported:")
    code, _, err = run(["dm", "--instance", "n0", "2,x", "1"], capsys)
    assert code == 2 and "usage error" in err


def test_cli_between(capsys):
    code, out, _ = run(["between", "--instance", "n0", "MAX"], capsys)
    assert code == 0 and out == "I(2,9)\n"
    code, doc, _ = run_json(["between", "--instance", "n0", "MAX"], capsys)
    assert doc["result"] == {"found": True, "ideal": "I(2,9)", "generators": ["2", "9"]}
    assert doc["witness"] == {"ideal": "I(2,9)"}

    code, out, _ = run(["between", "--instance", "gcd", "5"], capsys)
    assert code == 0 and out == "none\n"
    code, doc, _ = run_json(["between", "--instance", "gcd", "5"], capsys)
    assert doc["result"] == {"found": False}

    # the target can also be an expression instead of a prime label
    code, out, _ = run(["between", "--instance", "gcd", "I(5)"], capsys)
    assert code == 0 and out == "none\n"

    code, _, err = run(["between", "--instance", "gcd", "I(6)"], capsys)
    assert code == 3 and err.startswith("NotMaximal:")


# ---------------------------------------------------------------------------
# CLI: laws subcommand


def test_cli_laws_single(capsys):
    # n0 is not flagged Dedekind, so a failing law there exits 0
    code, out, _ = run(["laws", "--instance", "n0", "dedekind2-law-3"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("FAIL  dedekind2-law-3")
    # expected failure: no "unexpected" marker, matching the exit code
    assert "unexpected" not in out
    assert "witness" in out.splitlines()[1]

    code, out, _ = run(["laws", "--instance", "gcd", "dedekind2-law-3"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("PASS  dedekind2-law-3")

    code, doc, _ = run_json(["laws", "--instance", "n0", "dedekind2-law-3"], capsys)
    assert code == 0
    assert doc["status"] == "fail"
    assert doc["result"]["law"] == "dedekind2-law-3"
    assert doc["witness"]["missing_from_left"] == "6"

    code, _, err = run(["laws", "--instance", "gcd"], capsys)
    assert code == 2 and "usage error" in err

    # the --config rule: at least one trial (a zero-trial run of a failing law read PASS)
    for trials in ("0", "-5"):
        argv = ["laws", "dedekind2-law-1", "--instance", "n0", "--trials", trials]
        assert run(argv, capsys) == (2, "", "usage error: trials must be >= 1\n"), trials


def test_cli_laws_single_failure_on_quad5_exits_1(monkeypatch, capsys):
    # quad5 is Dedekind, so a failing law there is unexpected: exit 1, marked
    from semideal import cli
    from semideal.reports import LawReport

    def failing(inst, law, trials, seed):
        return LawReport(law, inst.id, trials, seed, "fail", {"a": "O"})

    monkeypatch.setattr(cli, "check_law", failing)
    code, out, _ = run(["laws", "--instance", "quad5", "dedekind2-law-3"], capsys)
    assert code == 1
    assert out.splitlines()[0].startswith("FAIL  dedekind2-law-3")
    assert out.splitlines()[0].endswith("<-- unexpected")

    code, doc, _ = run_json(["laws", "--instance", "quad5", "dedekind2-law-3"], capsys)
    assert code == 1 and doc["status"] == "fail"


def test_cli_laws_config_expected_outcomes(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(
        "# exercised by tests\n"
        "law dedekind2-law-3 instance gcd trials 50 seed 1\n"
        "law dedekind2-law-3 instance n0 trials 50 seed 1 expect fail\n"
        "law multiplicative-cancellation instance lagrassa trials 20 seed 0 expect fail\n"
    )
    code, out, _ = run(["laws", "--config", str(cfg)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("PASS  dedekind2-law-3")
    assert any(l.startswith("XFAIL dedekind2-law-3") for l in lines)
    assert not any("unexpected" in l for l in lines)

    code, doc, _ = run_json(["laws", "--config", str(cfg)], capsys)
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["instance"] == "gcd,lagrassa,n0"
    assert [r["ok"] for r in doc["result"]] == [True, True, True]


def test_cli_laws_config_unexpected_results_exit_1(tmp_path, capsys):
    # an unexpected failure
    cfg = tmp_path / "bad1.cfg"
    cfg.write_text("law dedekind2-law-3 instance n0 trials 50 seed 0\n")
    code, out, _ = run(["laws", "--config", str(cfg)], capsys)
    assert code == 1
    assert "<-- unexpected" in out

    # an expected failure that passes is just as wrong
    cfg2 = tmp_path / "bad2.cfg"
    cfg2.write_text("law dedekind-identity instance n0 trials 20 seed 0 expect fail\n")
    code, out, _ = run(["laws", "--config", str(cfg2)], capsys)
    assert code == 1
    assert out.splitlines()[0].startswith("XPASS")

    code, doc, _ = run_json(["laws", "--config", str(cfg2)], capsys)
    assert code == 1
    assert doc["status"] == "fail"
    assert doc["result"][0]["ok"] is False


def test_cli_laws_config_usage_errors(tmp_path, capsys):
    bad = tmp_path / "syntax.cfg"
    bad.write_text("law dedekind2-law-3 n0 trials 50 seed 1\n")
    code, _, err = run(["laws", "--config", str(bad)], capsys)
    assert code == 2 and "usage error" in err

    zero = tmp_path / "zero.cfg"
    zero.write_text("law dedekind2-law-3 instance gcd trials 0 seed 1\n")
    code, _, err = run(["laws", "--config", str(zero)], capsys)
    assert code == 2 and "trials must be >= 1" in err

    code, _, err = run(["laws", "--config", str(tmp_path / "missing.cfg")], capsys)
    assert code == 2 and "usage error" in err

    # the file's rows are the whole run: a law id, --instance or --trials beside it is refused
    good = tmp_path / "good.cfg"
    good.write_text("law reyes instance dvs trials 5 seed 1\n")
    for extra in (["dedekind2-law-3", "--instance", "n0", "--trials", "9"], ["reyes"], ["--instance", "dvs"], ["--trials", "5"]):
        code, out, err = run(["laws", *extra, "--config", str(good)], capsys)
        assert code == 2 and out == "" and "give no law id, --instance or --trials" in err, extra


# ---------------------------------------------------------------------------
# CLI: failure plumbing and determinism


def test_cli_usage_errors(capsys):
    assert run(["nonsense"], capsys)[0] == 2
    assert run([], capsys)[0] == 2
    code, _, err = run(["eval", "I(2)"], capsys)
    assert code == 2 and "--instance is required" in err
    for bogus in ("bogus", "gcd-supportedX"):
        code, _, err = run(["eval", "--instance", bogus, "I(2)"], capsys)
        assert code == 2 and "unknown instance" in err
    code, _, err = run(["eval", "--instance", "gcd", "I()"], capsys)
    assert code == 2 and "syntax error" in err and "expected RAT" in err
    # cli._int rejects a non-integer member as a usage error before the command runs
    assert run(["twogen", "--instance", "gcd", "I(12)", "x"], capsys)[0] == 2


def test_cli_reports_a_library_value_error_as_internal(monkeypatch, tmp_path, capsys):
    # only InvalidInput is the query's fault; a bare ValueError from inside the library is not
    def broken(*args):
        raise ValueError("extras must be multiples of the period")

    monkeypatch.setattr(natideal, "from_generators", broken)
    code, out, err = run(["eval", "--instance", "n0", "I(2,3)"], capsys)
    assert (code, out) == (3, "") and err == "InternalError: ValueError: extras must be multiples of the period\n"
    code, doc, _ = run_json(["eval", "--instance", "n0", "I(2,3)"], capsys)
    assert code == 3 and doc["status"] == "unsupported" and doc["result"]["error"] == "InternalError"
    # the values the CLI validates stay usage errors: an instance id, an element, a config file
    assert run(["eval", "--instance", "gcd-supported(4)", "I(2)"], capsys)[:2] == (2, "")
    code, _, err = run(["dm", "--instance", "gcd", "1,2", "3,-1"], capsys)
    assert code == 2 and err == "usage error: naturals only\n"
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe law")
    code, _, err = run(["laws", "--config", str(binary)], capsys)
    assert code == 2 and err.startswith("usage error:") and "codec" in err


def test_cli_options_belong_to_their_subcommand(tmp_path, capsys):
    # --trials and --config are read only by laws; --bound by no subcommand
    for argv in (
        ["eval", "--instance", "gcd", "--bound", "3", "I(4)"],
        ["eval", "--instance", "gcd", "--trials", "5", "I(4)"],
        ["factor", "--instance", "gcd", "--config", "suite.cfg", "I(4)"],
        ["laws", "reyes", "--instance", "gcd", "--bound", "3"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "" and "unrecognized arguments" in err, argv
    code, doc, _ = run_json(["laws", "reyes", "--instance", "gcd", "--trials", "4"], capsys)
    assert code == 0 and doc["result"]["trials"] == 4
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("law reyes instance gcd trials 6 seed 1\n")
    code, out, _ = run(["laws", "--config", str(cfg)], capsys)
    assert code == 0 and out.startswith("PASS  reyes") and "trials=6" in out


def test_cli_refuses_an_undecided_primality(capsys):
    # 318665857834031151167461 = 399165290221 * 798330580441 passes Miller-Rabin to the bases 2..37
    argv = ["classify", "--instance", "gcd", "I(318665857834031151167461)"]
    code, out, err = run(argv, capsys)
    assert code == 3 and out == "" and err.startswith("TooLarge:")
    code, doc, _ = run_json(argv, capsys)
    assert code == 3 and doc["result"]["error"] == "TooLarge"


def run_bounded(argv, seconds=30):
    """Run the CLI in a fresh interpreter capped at 1 GiB of address space;
    returns (exit code, stdout, stderr, wall seconds). Past ``seconds`` it raises."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "semideal.cli", *argv], capture_output=True, text=True, timeout=seconds, preexec_fn=cap
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "--instance", "gcd", "I(318665857834031151167461)"],
        ["factor", "--instance", "gcd", f"I({10000000000000000051 * 100000000000000000039})"],
        ["eval", "--instance", "n0", "I(2,3)^16"],
        ["eval", "--instance", "n0", "I(2,3)^64"],
        ["eval", "--instance", "gcd", "I(2)^10000000000"],
        ["eval", "--instance", "n0", "I(1/2)^10000000000"],
        ["laws", "reyes", "--instance", "gcd", "--trials", "100000000"],
    ],
    ids=[
        "psi12",
        "semiprime40",
        "n0-power16",
        "n0-power64",
        "gcd-power-1e10",
        "n0-denominator-power-1e10",
        "laws-trials-1e8",
    ],
)
def test_cli_refuses_inputs_past_the_budgets(argv):
    code, _, err, seconds = run_bounded(argv)
    assert code == 3 and err.startswith("TooLarge:"), err
    assert seconds < 10


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["factor", "--instance", "gcd", "I(2)^400000"], "2^400000\n"),
        (["localize", "--instance", "gcd", "2", "I(2)^400000"], "t^400000\n"),
        (["factor", "--instance", "quad5", "I(11)^100000 * I(11)^100000"], "P11^200000\n"),
    ],
    ids=["gcd-factor", "gcd-localize", "quad5-factor"],
)
def test_cli_strips_a_prime_power_in_bounded_time(argv, expected):
    # a prime comes off in O(log e) divisions, not one per unit of e; the quad5
    # certificate composes (11)^200000 back past the power budget, which only
    # bounds the powers that a query asks for
    code, out, err, _ = run_bounded(argv, seconds=10)
    assert code == 0 and out == expected, err


@pytest.mark.parametrize("expr", ["I(1) & I(200000000,300000000)", "[I(200000000,300000000) : I(1)]"])
def test_cli_n0_meet_lists_only_common_multiples(expr):
    # the meet visits multiples of lcm(1, 10^8) below 2*10^8, not every natural
    code, out, err, seconds = run_bounded(["eval", "--instance", "n0", expr])
    assert code == 0 and out == "I(200000000,300000000)\n", err
    assert seconds < 10


@pytest.mark.parametrize("g", [1, 2])
def test_cli_n0_principal_sum_needs_no_closure(g):
    # (g) + J is (g) when g divides every member of J; the closure of J's generators would pass the window budget
    code, out, err, seconds = run_bounded(["eval", "--instance", "n0", f"I({g}) + I(200000000,300000000)"])
    assert code == 0 and out == f"I({g})\n", err
    assert seconds < 10


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit in this Python")
def test_cli_names_a_number_too_long_to_print(capsys):
    # 2^100000 has 30,103 digits, past CPython's default limit of 4,300
    too_long = (("gcd", "I(2)^100000"), ("quad5", "I(2)^100000"), ("n0", "I(1/2)^100000"), ("gcd", f"I({'7' * 5000})"))
    for inst, text in too_long:
        code, out, err = run(["eval", "--instance", inst, text], capsys)
        assert code == 3 and out == "" and err.startswith("TooLarge: a number has more than"), (inst, err)
        code, doc, _ = run_json(["eval", "--instance", inst, text], capsys)
        assert code == 3 and doc["result"]["error"] == "TooLarge"
    code, out, _ = run(["eval", "--instance", "gcd", "I(2)^4000"], capsys)
    assert code == 0 and out == f"I({2**4000})\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit in this Python")
def test_cli_names_a_long_natural_outside_an_expression(tmp_path, capsys):
    long = "7" * 5000
    # a --config row past the digit limit or past the trial budget
    for name, trials, message in (("long.cfg", long, "a number has more"), ("many.cfg", "100000", "more than 10000")):
        cfg = tmp_path / name
        cfg.write_text(f"law reyes instance gcd trials {trials} seed 1\n")
        code, out, err = run(["laws", "--config", str(cfg)], capsys)
        assert code == 3 and out == "" and err.startswith(f"TooLarge: {message}"), (name, err)
    for argv in (
        ["dm", "--instance", "gcd", f"{long},1", "2"],
        ["twogen", "--instance", "gcd", "I(12)", long],
        ["localize", "--instance", "gcd", long, "I(12)"],
        ["laws", "reyes", "--instance", "gcd", "--trials", long],
        ["laws", "reyes", "--instance", "gcd", "--seed", long],
    ):
        code, out, err = run(argv, capsys)
        assert code == 3 and out == "" and err.startswith("TooLarge: a number has more than"), (argv[0], err)
        code, doc, _ = run_json(argv, capsys)
        assert code == 3 and doc["result"]["error"] == "TooLarge"
    # a number that is not one stays a usage error
    for argv in (["twogen", "--instance", "gcd", "I(12)", "x"], ["localize", "--instance", "n0", "x", "I(12)"]):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "" and "invalid int value: 'x'" in err


def test_cli_between_factors_the_maximal_ideal_not_its_square():
    # 1000000000039 is prime; its square is past what trial division splits
    code, _, err, seconds = run_bounded(["between", "--instance", "gcd", "I(1000000000039)"])
    assert (code, err) == (0, "") and seconds < 10


def test_cli_rejects_a_denominator_outside_the_support(capsys):
    inst = "gcd-supported(2,3)"
    for text in ("I(1/5)", "I(5)"):
        code, out, err = run(["eval", "--instance", inst, text], capsys)
        assert code == 3 and out == "" and err.startswith("OutOfSupport: 5 has a prime factor"), text
    assert run(["eval", "--instance", inst, "I(1/6)"], capsys)[:2] == (0, "I(1/6)\n")


def test_cli_unsupported_json_shape(capsys):
    # lagrassa has no fractions, and a literal's generators are rationals
    for literal in ("I(1)", "I(0)"):
        code, doc, _ = run_json(["eval", "--instance", "lagrassa", literal], capsys)
        assert code == 3
        assert doc["status"] == "unsupported"
        assert doc["result"]["error"] == "Unsupported"
        assert doc["instance"] == "lagrassa"
        assert doc["witness"] is None


@pytest.mark.parametrize("inst", ["gcd", "n0"])
def test_cli_spells_the_zero_ideal_one_way(inst, capsys):
    # dm prints the content of f = 0 + 0X, eval the literal I(0): one ideal, one text
    code, out, _ = run(["dm", "--instance", inst, "0,0", "1,2"], capsys)
    assert code == 0
    content_f = dict(field.split("=", 1) for field in out.split())["c(f)"]
    code, out, _ = run(["eval", "--instance", inst, "I(0)"], capsys)
    assert code == 0
    assert content_f == out.strip() == "(0)"


@pytest.mark.parametrize("command", [["classify", "I(1/2)"], ["twogen", "I(1/2)", "1"], ["between", "I(1/2)"]])
def test_cli_integral_only_commands_refuse_a_fraction_by_name(command, capsys):
    code, doc, _ = run_json([command[0], "--instance", "gcd", *command[1:]], capsys)
    assert code == 3
    assert doc["result"] == {"error": "NotFractional", "message": "I(1/2) is not an integral ideal"}


def test_cli_determinism_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(
        "law dedekind2-law-3 instance n0 trials 80 seed 4 expect fail\n"
        "law dedekind-identity instance quad5 trials 60 seed 4\n"
    )
    outs = set()
    for _ in range(2):
        code, out, _ = run(["laws", "--config", str(cfg), "--json", "--seed", "4"], capsys)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1

    outs = set()
    for _ in range(2):
        outs.add(run(["factor", "--instance", "quad5", "I(6)", "--json"], capsys)[1])
    assert len(outs) == 1


def test_cli_default_config_passes(capsys):
    import pathlib

    cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "laws-default.cfg"
    code, out, _ = run(["laws", "--config", str(cfg)], capsys)
    assert code == 0
    assert "unexpected" not in out
    # the documented counterexamples stay on the books as expected failures
    assert any(line.startswith("XFAIL dedekind2-law-3") for line in out.splitlines())
    assert any(line.startswith("XFAIL multiplicative-cancellation") for line in out.splitlines())
    # every row's trial count and witness, not only its status
    assert hashlib.sha256(out.encode()).hexdigest() == "da37404ca2dd757bcbed54a3ae77229bdc971abd1ffd6f4338c9a4bd54220d20"


def test_cli_builds_the_parser_once(monkeypatch, capsys):
    assert run(["eval", "--instance", "gcd", "I(4)+I(6)"], capsys)[0] == 0

    built = []
    original_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv, expected in (
        (["factor", "--instance", "gcd", "I(84)"], 0),
        (["classify", "--instance", "gcd", "I(7)", "--json"], 0),
        (["twogen", "--instance", "gcd", "I(12)", "24"], 0),
        (["laws", "dedekind2-law-3", "--instance", "gcd", "--trials", "5"], 0),
        (["between", "--instance", "gcd", "5"], 0),
        (["eval", "--instance", "gcd"], 2),
        (["factor", "--help"], 0),
    ):
        assert run(argv, capsys)[0] == expected, argv
    assert built == []


def test_cli_parses_each_query_once(monkeypatch, capsys):
    calls = []
    original = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    for argv in (
        ["eval", "--instance", "gcd", "I(4)+I(6)"],
        ["factor", "--instance", "gcd", "I(84)"],
        ["classify", "--instance", "gcd", "I(7)", "--json"],
        ["laws", "reyes", "--instance", "gcd", "--trials", "5"],
        ["twogen", "--instance", "gcd", "I(12)", "24"],
        ["localize", "--instance", "gcd", "2", "I(12)"],
        ["sandwich", "--instance", "gcd", "I(3/2)"],
        ["dm", "--instance", "gcd", "2,3", "4,6"],
        ["between", "--instance", "gcd", "5"],
    ):
        calls.clear()
        assert run(argv, capsys)[0] == 0, argv
        assert calls == [f"semideal {argv[0]}"], argv
    # so the subcommand's parser is the one that reports an extra argument
    code, _, err = run(["eval", "--instance", "gcd", "I(4)", "extra"], capsys)
    assert code == 2 and err.endswith("\nsemideal eval: error: unrecognized arguments: extra\n")


# argv whose parse goes past a plain subcommand query: (argv, exit code, stdout)
EDGE_ARGV = [
    (["eval", "--instance", "gcd", "--", "I(4)+I(6)"], 0, "I(2)\n"),
    (["eval", "--inst", "gcd", "I(4)+I(6)"], 0, "I(2)\n"),
    (["eval", "--instance=gcd", "I(4)+I(6)"], 0, "I(2)\n"),
    (["eval", "--instance", "gcd", "I(6)", "--js"], 0, '{"command": "eval", "instance": "gcd", "result": '
     '{"generators": ["6"], "integral": true, "text": "I(6)"}, "seed": 0, "status": "pass", "witness": null}\n'),
    ([], 2, ""),
    (["bogus"], 2, ""),
    (["eval", "--instance", "gcd"], 2, ""),
    (["eval", "--instance", "gcd", "I(4)", "extra"], 2, ""),
]


def test_cli_edge_argv(capsys):
    for argv, code, out in EDGE_ARGV:
        assert run(argv, capsys)[:2] == (code, out), argv
    # a leading "--" goes to the top parser, which argparse versions read differently
    code, out, err = run(["--", "eval", "--instance", "gcd", "I(4)+I(6)"], capsys)
    assert (code, out) == (0, "I(2)\n") or (code, out, err.splitlines()[-1][:16]) == (2, "", "semideal: error:")
    # the top parser's help, also when a subcommand follows -h
    for argv in (["--help"], ["-h", "eval"]):
        code, out, _ = run(argv, capsys)
        assert code == 0 and out.startswith("usage: semideal [-h]") and "{eval,factor," in out, argv


def test_cli_reused_parser_leaks_no_state(capsys):
    code, out, err = run(["eval", "--instance", "gcd"], capsys)
    assert code == 2 and out == "" and "expr" in err
    code, out, _ = run(["--help"], capsys)
    assert code == 0 and out.startswith("usage: semideal")
    code, doc, _ = run_json(["laws", "reyes", "--instance", "gcd", "--trials", "3", "--seed", "7"], capsys)
    assert code == 0 and doc["seed"] == 7 and doc["result"]["trials"] == 3

    argv = ["eval", "--instance", "gcd", "I(6)", "--json"]
    code, out, _ = run(argv, capsys)
    assert code == 0 and json.loads(out)["seed"] == 0
    _run_cli([sys.executable, "-m", "semideal.cli", *argv], 0, out)


def _run_cli(argv, expected_code, expected_out):
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (expected_code, expected_out), proc.stderr
    return proc


def _check_console_script(exe):
    _run_cli([exe, "factor", "--instance", "gcd", "I(84)"], 0, "2^2 * 3 * 7\n")
    # the exit code of a failing command must reach the shell, not just 0
    proc = _run_cli([exe, "factor", "--instance", "n0", "I(3,4,5)"], 3, "")
    assert proc.stderr.startswith("Unsupported:"), proc.stderr


def test_cli_subprocess_and_console_script(tmp_path):
    cmd = [sys.executable, "-m", "semideal.cli", "eval", "--instance", "gcd", "I(4)+I(6)"]
    _run_cli(cmd, 0, "I(2)\n")

    # The `semideal` command is the [project.scripts] entry of pyproject.toml.
    # Run that entry the way an installer's wrapper script runs it, so the test
    # needs no installed package; an installed script is checked as well.
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    assert "semideal" in scripts, "pyproject.toml declares no `semideal` script"
    module, _, function = scripts["semideal"].partition(":")
    assert module and function, scripts["semideal"]

    wrapper = tmp_path / "semideal"
    wrapper.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {function}\n"
        f"sys.exit({function}())\n"
    )
    wrapper.chmod(0o755)
    _check_console_script(str(wrapper))

    installed = shutil.which("semideal")
    if installed is not None:
        _check_console_script(installed)
