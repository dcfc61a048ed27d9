"""Command-line front end.

Exit codes: 0 all checks passed; 1 a law failed where success was expected
(or an expected failure passed); 2 usage or syntax errors; 3 a library
error (unsupported operation, precondition violation), reported by name.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .content import dm_exponent, gaussian_check
from .errors import ParseError, SemidealError, Unsupported
from .exprparse import eval_expr, parse_expr
from .fractional import (
    frac_invert,
    frac_str,
    is_integral,
    localize,
    sandwich,
    to_ideal,
    two_generators,
    uft_factor,
)
from .ideals import (
    generators,
    ideal_str,
    is_maximal,
    is_prime,
    is_subtractive,
    search_between,
)
from .instances import element, instance
from .laws import LAW_IDS, check_law
from .polynomials import poly
from .spectrum import label_from_text


def _emit(args, command, inst_id, result, witness, status, seed):
    if args.json:
        doc = {
            "command": command,
            "instance": inst_id,
            "result": result,
            "witness": witness,
            "status": status,
            "seed": seed,
        }
        print(json.dumps(doc, sort_keys=True))
    return 0


def _require_instance(args):
    if not args.instance:
        raise UsageError("--instance is required for this command")
    return instance(args.instance)


class UsageError(Exception):
    pass


def _eval_ideal(inst, text):
    return eval_expr(inst, parse_expr(text))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(args):
    inst = _require_instance(args)
    frac = _eval_ideal(inst, args.expr)
    integral = is_integral(frac)
    result = {"text": frac_str(frac), "integral": integral}
    if integral:
        gens = generators(to_ideal(frac))
        result["generators"] = [inst.arith.estr(g) for g in gens]
    if not args.json:
        print(result["text"])
    _emit(args, "eval", inst.id, result, None, "pass", args.seed)
    return 0


def _cmd_factor(args):
    inst = _require_instance(args)
    vec = uft_factor(_eval_ideal(inst, args.expr))
    result = {
        "text": vec.text(),
        "factors": [{"prime": lab.text(), "exponent": e} for lab, e in vec.items],
    }
    if not args.json:
        print(result["text"])
    _emit(args, "factor", inst.id, result, None, "pass", args.seed)
    return 0


def _cmd_classify(args):
    inst = _require_instance(args)
    frac = _eval_ideal(inst, args.expr)
    ideal = to_ideal(frac)
    result = {
        "prime": is_prime(ideal),
        "maximal": is_maximal(ideal),
        "subtractive": is_subtractive(ideal),
        "invertible": frac_invert(frac) is not None,
    }
    if not args.json:
        print(" ".join(f"{k}={str(v).lower()}" for k, v in result.items()))
    _emit(args, "classify", inst.id, result, None, "pass", args.seed)
    return 0


def _parse_config(path):
    suites = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
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
            try:
                trials = int(toks[5])
                seed = int(toks[7])
            except ValueError:
                raise UsageError(f"{path}:{lineno}: trials and seed must be integers") from None
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
    return f"{tag} {report.law:<28} {report.instance:<20} trials={report.trials} seed={report.seed}{note}"


def _cmd_laws(args):
    if args.config:
        if (args.law, args.instance, args.trials) != (None, None, None):
            raise UsageError("--config runs the file's own rows: give no law id, --instance or --trials with it")
        suites = _parse_config(args.config)
        results = []
        all_ok = True
        first_bad = None
        for law, inst_id, trials, seed, expected_fail in suites:
            report = check_law(instance(inst_id), law, trials, seed)
            ok = (report.status == "fail") == expected_fail
            all_ok = all_ok and ok
            if not ok and first_bad is None:
                first_bad = report
            results.append(
                {
                    "law": report.law,
                    "instance": report.instance,
                    "trials": report.trials,
                    "seed": report.seed,
                    "status": report.status,
                    "expected": "fail" if expected_fail else "pass",
                    "ok": ok,
                    "witness": report.witness,
                }
            )
            if not args.json:
                print(_law_line(report, expected_fail, ok))
                if report.witness is not None:
                    print(f"       witness: {json.dumps(report.witness, sort_keys=True)}")
        status = "pass" if all_ok else "fail"
        inst_field = ",".join(sorted({inst_id for _, inst_id, _, _, _ in suites}))
        _emit(args, "laws", inst_field, results, first_bad.witness if first_bad else None, status, args.seed)
        return 0 if all_ok else 1
    if not args.law:
        raise UsageError("laws needs a law id or --config")
    inst = _require_instance(args)
    report = check_law(inst, args.law, 200 if args.trials is None else args.trials, args.seed)
    # A failure only counts against the exit code (and gets the marker) on
    # instances where the law is supposed to hold.
    unexpected = report.status == "fail" and inst.is_dedekind
    if not args.json:
        print(_law_line(report, False, not unexpected))
        if report.witness is not None:
            print(f"       witness: {json.dumps(report.witness, sort_keys=True)}")
    _emit(args, "laws", inst.id, report.to_dict(), report.witness, report.status, args.seed)
    return 1 if unexpected else 0


def _cmd_twogen(args):
    inst = _require_instance(args)
    ideal = to_ideal(_eval_ideal(inst, args.expr))
    a, b = two_generators(ideal, args.member)
    result = {"ideal": ideal_str(ideal), "a": a, "b": b}
    if not args.json:
        print(f"a={a} b={b}")
    _emit(args, "twogen", inst.id, result, None, "pass", args.seed)
    return 0


def _cmd_localize(args):
    inst = _require_instance(args)
    ideal = to_ideal(_eval_ideal(inst, args.expr))
    local = localize(inst, args.prime, ideal)
    exponent = local.payload
    result = {"text": ideal_str(local), "exponent": exponent}
    if not args.json:
        print(result["text"])
    _emit(args, "localize", inst.id, result, None, "pass", args.seed)
    return 0


def _cmd_sandwich(args):
    inst = _require_instance(args)
    frac = _eval_ideal(inst, args.expr)
    c, d = sandwich(frac)
    result = {
        "ideal": frac_str(frac),
        "c": inst.arith.estr(c),
        "d": inst.arith.estr(d),
    }
    if not args.json:
        print(f"c={result['c']} d={result['d']}")
    _emit(args, "sandwich", inst.id, result, None, "pass", args.seed)
    return 0


def _coeffs(inst, text):
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"coefficients must be comma-separated naturals: {text!r}") from None
    return poly(inst, [element(inst, v).payload for v in values])


def _cmd_dm(args):
    inst = _require_instance(args)
    if not inst.arith.numeric:
        raise Unsupported(f"dm coefficients are numeric; not available on {inst.kind}")
    f = _coeffs(inst, args.f)
    g = _coeffs(inst, args.g)
    report = gaussian_check(f, g)
    n = dm_exponent(f, g)
    doc = report.to_dict()
    doc["dm_exponent"] = n
    if not args.json:
        print(
            f"gaussian={str(report.gaussian).lower()} dm_exponent={n} "
            f"c(f)={report.content_f} c(g)={report.content_g} c(fg)={report.content_fg}"
        )
        if report.witness is not None:
            print(f"       witness: {json.dumps(report.witness, sort_keys=True)}")
    _emit(args, "dm", inst.id, doc, report.witness, "pass", args.seed)
    return 0


def _cmd_between(args):
    inst = _require_instance(args)
    try:
        target = label_from_text(inst, args.target).ideal()
    except SemidealError:
        target = to_ideal(_eval_ideal(inst, args.target))
    found = search_between(target)
    if found is None:
        result = {"found": False}
        witness = None
        text = "none"
    else:
        gens = [inst.arith.estr(g) for g in generators(found)]
        result = {"found": True, "ideal": ideal_str(found), "generators": gens}
        witness = {"ideal": ideal_str(found)}
        text = result["ideal"]
    if not args.json:
        print(text)
    _emit(args, "between", inst.id, result, witness, "pass", args.seed)
    return 0


# ---------------------------------------------------------------------------
# argv plumbing


@functools.cache
def _build_parser():
    top = argparse.ArgumentParser(
        prog="semideal",
        description="Exact ideal arithmetic over six decidable semiring instances.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--instance", help="instance id, e.g. n0, gcd, gcd-supported(2,3), dvs, lagrassa, quad5")
        p.add_argument("--json", action="store_true", help="emit one JSON report line")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled suites")

    for name, fn, extras in (
        ("eval", _cmd_eval, ("expr",)),
        ("factor", _cmd_factor, ("expr",)),
        ("classify", _cmd_classify, ("expr",)),
        ("laws", _cmd_laws, ("law?",)),
        ("twogen", _cmd_twogen, ("expr", "member")),
        ("localize", _cmd_localize, ("prime", "expr")),
        ("sandwich", _cmd_sandwich, ("expr",)),
        ("dm", _cmd_dm, ("f", "g")),
        ("between", _cmd_between, ("target",)),
    ):
        p = sub.add_parser(name)
        common(p)
        for extra in extras:
            if extra == "expr":
                p.add_argument("expr", help="ideal expression, e.g. 'I(2)*I(3) & I(4)'")
            elif extra == "law?":
                p.add_argument("law", nargs="?", help=f"one of: {', '.join(LAW_IDS)}")
                p.add_argument("--trials", type=int, help="trial budget for sampled suites (default 200)")
                p.add_argument("--config", help="law suite config file")
            elif extra == "member":
                p.add_argument("member", type=int, help="nonzero member of the ideal")
            elif extra == "prime":
                p.add_argument("prime", type=int, help="rational prime to localize at")
            elif extra == "f":
                p.add_argument("f", help="comma-separated coefficients of f, ascending degree")
            elif extra == "g":
                p.add_argument("g", help="comma-separated coefficients of g, ascending degree")
            elif extra == "target":
                p.add_argument("target", help="maximal ideal: a prime label (MAX, t, u, 7, P3[1]) or an expression")
        p.set_defaults(fn=fn)
    return top


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SemidealError as exc:
        if getattr(args, "json", False):
            doc = {
                "command": args.command,
                "instance": args.instance or "-",
                "result": {"error": exc.name, "message": str(exc)},
                "witness": None,
                "status": "unsupported",
                "seed": args.seed,
            }
            print(json.dumps(doc, sort_keys=True))
        else:
            print(f"{exc.name}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
