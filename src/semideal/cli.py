"""Command-line front end.

Exit codes: 0 all checks passed; 1 a law failed where success was expected
(or an expected failure passed); 2 usage or syntax errors; 3 a library
error (unsupported operation, precondition violation, an input past a
budget), reported by name, and ``InternalError`` for a ``ValueError`` that is
not ``InvalidInput``: a fault of the library, not of the query.

Each subcommand is a function from (instance, args) to an ``Outcome``: the
text it prints, and the result, witness, status and exit code of its
``--json`` line. ``COMMANDS`` maps each subcommand to its function and its
own arguments; ``main`` alone resolves ``--instance``, prints, and maps
exceptions to exit codes. A query is parsed once, by its subcommand's parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import namedtuple

from .content import contents, dm_exponent, gaussian_check
from .errors import InternalError, InvalidInput, ParseError, SemidealError, TooLarge, Unsupported
from .exprparse import eval_expr, parse_expr
from .fractional import localize, sandwich, two_generators, uft_factor
from .ideals import (
    generators,
    ideal_invert,
    ideal_str,
    is_integral,
    is_maximal,
    is_prime,
    is_subtractive,
    search_between,
)
from .instances import element, instance
from .laws import LAW_IDS, MAX_TRIALS, check_law
from .polynomials import poly
from .spectrum import label_from_text


class UsageError(Exception):
    pass


_DIGIT_LIMIT = "integer string conversion"  # in the ValueError of CPython's int/str digit limit


# instance: the report's instance field when it is not the --instance one
# (a --config run names the instances of its rows)
Outcome = namedtuple("Outcome", "text result witness status code instance", defaults=(None, "pass", 0, None))


def _instance(args):
    if not args.instance:
        raise UsageError("--instance is required for this command")
    return instance(args.instance)


def _eval_ideal(inst, text):
    return eval_expr(inst, parse_expr(text))


def _witness_line(witness):
    return "" if witness is None else f"\n       witness: {json.dumps(witness, sort_keys=True)}"


# ---------------------------------------------------------------------------
# subcommands


def _eval(inst, args):
    ideal = _eval_ideal(inst, args.expr)
    integral = is_integral(ideal)
    result = {"text": ideal_str(ideal), "integral": integral}
    if integral:
        result["generators"] = [inst.estr(g) for g in generators(ideal)]
    return Outcome(result["text"], result)


def _factor(inst, args):
    vec = uft_factor(_eval_ideal(inst, args.expr))
    text = vec.text()
    return Outcome(text, {"text": text, "factors": [{"prime": lab.text(), "exponent": e} for lab, e in vec.items]})


def _classify(inst, args):
    ideal = _eval_ideal(inst, args.expr)
    result = {
        "prime": is_prime(ideal),
        "maximal": is_maximal(ideal),
        "subtractive": is_subtractive(ideal),
        "invertible": ideal_invert(ideal) is not None,
    }
    return Outcome(" ".join(f"{k}={str(v).lower()}" for k, v in result.items()), result)


def _parse_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from None
    suites = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        ok = (
            len(toks) in (8, 10)
            and toks[0] == "law"
            and toks[2] == "instance"
            and toks[4] == "trials"
            and toks[6] == "seed"
            and (len(toks) == 8 or toks[8:] == ["expect", "fail"])
        )
        if not ok:
            raise UsageError(f"{path}:{lineno}: expected 'law <id> instance <id> trials <n> seed <n> [expect fail]'")
        message = f"{path}:{lineno}: trials and seed must be integers"
        trials, seed = _int(toks[5], message), _int(toks[7], message)
        if trials < 1:
            raise UsageError(f"{path}:{lineno}: trials must be >= 1")
        suites.append((toks[1], toks[3], trials, seed, len(toks) == 10))
    return suites


def _law_line(report, expected_fail, ok):
    if report.status == "pass":
        tag = "XPASS" if expected_fail else "PASS "
    else:
        tag = "XFAIL" if expected_fail else "FAIL "
    note = "" if ok else "  <-- unexpected"
    line = f"{tag} {report.law:<28} {report.instance:<20} trials={report.trials} seed={report.seed}{note}"
    return line + _witness_line(report.witness)


def _laws(inst, args):
    # read as text like twogen's member, so a long natural is TooLarge; a seed
    # that does not read is reported as 0
    seed, args.seed = args.seed, 0
    args.seed = _int(seed, f"argument --seed: invalid int value: {seed!r}")
    if args.config:
        if (args.law, args.instance, args.trials) != (None, None, None):
            raise UsageError("--config runs the file's own rows: give no law id, --instance or --trials with it")
        suites = _parse_config(args.config)
        lines, results, first_bad = [], [], None
        for law, inst_id, trials, seed, expected_fail in suites:
            report = check_law(instance(inst_id), law, trials, seed)
            ok = (report.status == "fail") == expected_fail
            if not ok and first_bad is None:
                first_bad = report
            results.append({**report.to_dict(), "expected": "fail" if expected_fail else "pass", "ok": ok})
            lines.append(_law_line(report, expected_fail, ok))
        inst_field = ",".join(sorted({inst_id for _, inst_id, _, _, _ in suites}))
        if first_bad is None:
            return Outcome("\n".join(lines), results, None, "pass", 0, inst_field)
        return Outcome("\n".join(lines), results, first_bad.witness, "fail", 1, inst_field)
    if not args.law:
        raise UsageError("laws needs a law id or --config")
    trials = 200 if args.trials is None else _int(args.trials, f"argument --trials: invalid int value: {args.trials!r}")
    if trials < 1:
        raise UsageError("trials must be >= 1")
    inst = inst or _instance(args)
    report = check_law(inst, args.law, trials, args.seed)
    # A failure only counts against the exit code (and gets the marker) on
    # instances where the law is supposed to hold.
    unexpected = report.status == "fail" and inst.dedekind
    text = _law_line(report, False, not unexpected)
    return Outcome(text, report.to_dict(), report.witness, report.status, 1 if unexpected else 0)


def _twogen(inst, args):
    member = _int(args.member, f"argument member: invalid int value: {args.member!r}")
    ideal = _eval_ideal(inst, args.expr)
    a, b = two_generators(ideal, member)
    return Outcome(f"a={a} b={b}", {"ideal": ideal_str(ideal), "a": a, "b": b})


def _localize(inst, args):
    prime = _int(args.prime, f"argument prime: invalid int value: {args.prime!r}")
    local = localize(inst, prime, _eval_ideal(inst, args.expr))
    text = ideal_str(local)
    return Outcome(text, {"text": text, "exponent": local.payload})


def _sandwich(inst, args):
    ideal = _eval_ideal(inst, args.expr)
    c, d = sandwich(ideal)
    result = {"ideal": ideal_str(ideal), "c": inst.estr(c), "d": inst.estr(d)}
    return Outcome(f"c={result['c']} d={result['d']}", result)


def _int(text, message):
    """int(text), or UsageError(message); past the int/str digit limit main reports TooLarge."""
    try:
        return int(text)
    except ValueError as exc:
        if _DIGIT_LIMIT in str(exc):
            raise
        raise UsageError(message) from None


def _coeffs(inst, text):
    message = f"coefficients must be comma-separated naturals: {text!r}"
    values = [_int(tok, message) for tok in text.split(",")]
    return poly(inst, [element(inst, v).payload for v in values])


def _dm(inst, args):
    if not inst.numeric:
        raise Unsupported(f"dm coefficients are numeric; not available on {inst.kind}")
    f = _coeffs(inst, args.f)
    g = _coeffs(inst, args.g)
    cs = contents(f, g)
    report = gaussian_check(f, g, cs)
    n = dm_exponent(f, g, cs)
    text = (
        f"gaussian={str(report.gaussian).lower()} dm_exponent={n} "
        f"c(f)={report.content_f} c(g)={report.content_g} c(fg)={report.content_fg}"
    )
    return Outcome(text + _witness_line(report.witness), {**report.to_dict(), "dm_exponent": n}, report.witness)


def _between(inst, args):
    try:
        target = label_from_text(inst, args.target).ideal()
    except SemidealError:
        target = _eval_ideal(inst, args.target)
    found = search_between(target)
    if found is None:
        return Outcome("none", {"found": False})
    text = ideal_str(found)
    gens = [inst.estr(g) for g in generators(found)]
    return Outcome(text, {"found": True, "ideal": text, "generators": gens}, {"ideal": text})


# ---------------------------------------------------------------------------
# argv plumbing

_EXPR = ("expr", {"help": "ideal expression, e.g. 'I(2)*I(3) & I(4)'"})

# subcommand -> (function, its arguments after --instance and --json)
COMMANDS = {
    "eval": (_eval, [_EXPR]),
    "factor": (_factor, [_EXPR]),
    "classify": (_classify, [_EXPR]),
    "laws": (
        _laws,
        [
            ("--seed", {"help": "echoed in the report; the checked tuples do not depend on it"}),
            ("law", {"nargs": "?", "help": f"one of: {', '.join(LAW_IDS)}"}),
            ("--trials", {"help": f"tuples checked per law (default 200, at most {MAX_TRIALS})"}),
            ("--config", {"help": "law suite config file"}),
        ],
    ),
    "twogen": (_twogen, [_EXPR, ("member", {"help": "nonzero member of the ideal"})]),
    "localize": (_localize, [("prime", {"help": "rational prime to localize at"}), _EXPR]),
    "sandwich": (_sandwich, [_EXPR]),
    "dm": (
        _dm,
        [
            ("f", {"help": "comma-separated coefficients of f, ascending degree"}),
            ("g", {"help": "comma-separated coefficients of g, ascending degree"}),
        ],
    ),
    "between": (
        _between,
        [("target", {"help": "maximal ideal: a prime label (MAX, t, u, 7, P3[1]) or an expression"})],
    ),
}


@functools.cache
def _build_parser():
    """The top parser, and each subcommand's own parser by name."""
    top = argparse.ArgumentParser(
        prog="semideal",
        description="Exact ideal arithmetic over six decidable semiring instances.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (fn, arguments) in COMMANDS.items():
        p = parsers[name] = sub.add_parser(name)
        p.add_argument("--instance", help="instance id, e.g. n0, gcd, gcd-supported(2,3), dvs, lagrassa, quad5")
        p.add_argument("--json", action="store_true", help="emit one JSON report line")
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(command=name, fn=fn, seed=0)  # the report's seed reads 0 outside laws
    return top, parsers


def _report(args, instance_id, result, witness, status):
    doc = {
        "command": args.command,
        "instance": instance_id,
        "result": result,
        "witness": witness,
        "status": status,
        "seed": args.seed,
    }
    print(json.dumps(doc, sort_keys=True))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    top, parsers = _build_parser()
    # A query is parsed once, by its subcommand's parser; the top parser
    # answers only help and a missing or unknown subcommand.
    parser = parsers.get(argv[0]) if argv else None
    try:
        args = parser.parse_args(argv[1:]) if parser else top.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # a laws --config run takes its instances from the file
        inst = _instance(args) if args.instance or args.command != "laws" else None
        out = args.fn(inst, args)
        if args.json:
            _report(args, inst.id if out.instance is None else out.instance, out.result, out.witness, out.status)
        elif out.text:
            print(out.text)
        return out.code
    except (UsageError, InvalidInput, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except SemidealError as exc:
        error = exc
    except ValueError as exc:
        if _DIGIT_LIMIT in str(exc):
            # CPython's limit on the digits of an int read from or written as text
            error = TooLarge(f"a number has more than {sys.get_int_max_str_digits()} digits, past int/str conversion")
        else:
            # inputs are validated where they enter (InvalidInput), so any other
            # ValueError is a fault of the library, not of the query
            error = InternalError(f"{type(exc).__name__}: {exc}")
    if args.json:
        _report(args, args.instance or "-", {"error": error.name, "message": str(error)}, None, "unsupported")
    else:
        print(f"{error.name}: {error}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
