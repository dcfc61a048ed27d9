"""A seeded fuzzer over the expression language on n0, through the CLI.

Random expressions over ``+ & * [A:B] ^`` with generators up to 60, one in
ten with a character deleted, run through ``cli.main`` in one subprocess
capped at 1 GiB of address space, each case under its own alarm. Every case
must exit 0, or 3 with a named error other than ``InternalError``, or 2 with
a syntax error. An answer must have the minimal generators of the ideal that
a set oracle computes from ``oracles.closure_members``, so it has the same
members everywhere; a syntax error must be one the parser also finds, and
a refusal the quotient by zero the oracle also finds.

The oracle needs members up to a bound derived from Schur's bound on the
conductor; an expression whose oracle would pass ``ORACLE_LIMIT`` is drawn
again, which keeps the test under a few seconds. Larger ideals are covered
by ``test_natideal.py`` and by the budget tests of ``test_expr_cli.py``.
"""

import json
import math
import random
import resource
import subprocess
import sys
from fractions import Fraction
from functools import reduce

from semideal import ParseError
from semideal.exprparse import IdealLit, Intersect, Power, Product, Quotient, Sum, parse_expr

from oracles import closure_members

SEED = 20261019
CASES = 240
MAX_GEN = 60
ORACLE_LIMIT = 40_000  # largest closure the oracle computes for one case
CASE_SECONDS = 5

# Runs each expression on stdin (one JSON string a line) and prints one JSON
# line [exit code or "timeout"/"crash ...", stdout, stderr] per case.
DRIVER = """
import contextlib, io, json, signal, sys
from semideal.cli import main

class Alarm(Exception):
    pass

def on_alarm(signum, frame):
    raise Alarm

signal.signal(signal.SIGALRM, on_alarm)
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    signal.alarm(int(sys.argv[1]))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", "--instance", "n0", json.loads(line), "--json"])
    except Alarm:
        code = "timeout"
    except BaseException as exc:
        code = f"crash {type(exc).__name__}: {exc}"
    finally:
        signal.alarm(0)
    print(json.dumps([code, out.getvalue(), err.getvalue()]), flush=True)
"""


class TooBig(Exception):
    pass


class ZeroDivisor(Exception):
    pass


def members(gens, limit):
    if gens and limit > ORACLE_LIMIT:
        raise TooBig
    return closure_members(gens, limit)


def conductor_bound(gens):
    """Schur: the scaled conductor of a1 < ... < ak is at most (a1 - 1)(ak - 1)."""
    d = math.gcd(*gens)
    return d * (min(gens) // d - 1) * (max(gens) // d - 1)


def minimal_from_members(found, bound):
    """The nonzero members up to bound that are no sum of two nonzero members."""
    ordered = sorted(x for x in found if 0 < x <= bound)
    return tuple(x for x in ordered if not any(x - y in found for y in ordered if 0 < y <= x - y))


def minimal(gens):
    """Minimal generators of the ideal spanned by gens: those no sum of the others."""
    gens = sorted(set(g for g in gens if g))
    return tuple(g for g in gens if g not in members([h for h in gens if h < g], g))


def product(a, b):
    return minimal(x * y for x in a for y in b)


def intersect(a, b):
    if not a or not b:
        return ()
    # a common member is a multiple of lcm(d_a, d_b), and every one past both conductors is one
    step = math.lcm(math.gcd(*a), math.gcd(*b))
    bound = 2 * max(conductor_bound(a), conductor_bound(b)) + 3 * step
    return minimal_from_members(members(a, bound) & members(b, bound), bound)


def quotient(a, b):
    """{y in N0 : y*b inside a} for integral a and nonzero b."""
    if not a:
        return ()
    # y*g is in a for every generator g of b once y*min(b) passes a's
    # conductor and y is a multiple of d_a / gcd(d_a, d_b)
    da, db = math.gcd(*a), math.gcd(*b)
    step = da // math.gcd(da, db)
    bound = 2 * (conductor_bound(a) // min(b) + 2 * step) + step
    inside = members(a, bound * max(b))
    return minimal_from_members({y for y in range(bound + 1) if all(y * g in inside for g in b)}, bound)


def scale(gens, t):
    return tuple(g * t for g in gens)


def oracle(node):
    """The fractional n0 ideal node denotes, as (minimal generators of J, t)
    for J/t with J integral; J is () for the zero ideal."""
    if isinstance(node, IdealLit):
        t = math.lcm(*(v.denominator for v in node.values))
        return minimal(int(v * t) for v in node.values), t
    if isinstance(node, Power):
        if node.exponent > 4:
            raise TooBig
        j, t = oracle(node.base)
        return reduce(product, [j] * node.exponent, (1,)), t**node.exponent
    if isinstance(node, Quotient):
        (j1, t1), (j2, t2) = oracle(node.numerator), oracle(node.denominator)
        if not j2:
            raise ZeroDivisor
        # x*J2/t2 inside J1/t1 iff x*t1 is in [t2*J1 : J2], and a member of
        # that is y/d for y in [t2*J1 : J2/d], d = gcd(J2)
        d = math.gcd(*j2)
        return quotient(scale(j1, t2), tuple(g // d for g in j2)), t1 * d
    (j1, t1), (j2, t2) = oracle(node.left), oracle(node.right)
    if isinstance(node, Sum):
        return minimal(scale(j1, t2) + scale(j2, t1)), t1 * t2
    if isinstance(node, Product):
        return product(j1, j2), t1 * t2
    if isinstance(node, Intersect):
        return intersect(scale(j1, t2), scale(j2, t1)), t1 * t2
    raise TooBig


def oracle_generators(value):
    """The minimal generators of J/t, for (J, t) from oracle()."""
    j, t = value
    return tuple(Fraction(g, t) for g in j)


def printed_generators(text):
    """The generators of a printed ideal such as 'I(1/2,3)', () for '(0)'."""
    return () if text == "(0)" else tuple(Fraction(v) for v in text[2:-1].split(","))


def literal(rng):
    if rng.random() < 0.05:
        return "I(0)"
    return "I(" + ",".join(str(rng.randint(1, MAX_GEN)) for _ in range(rng.randint(1, 3))) + ")"


def draw(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return literal(rng)
    op = rng.choice("+&*:^")
    if op == "^":
        return f"({draw(rng, depth - 1)})^{rng.randint(0, 3)}"
    if op == ":":
        return f"[{draw(rng, depth - 1)} : {draw(rng, depth - 1)}]"
    return f"({draw(rng, depth - 1)} {op} {draw(rng, depth - 1)})"


def cases(seed, count):
    """(expression, expected minimal generators, or ZeroDivisor, or ParseError)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        text = draw(rng, 3)
        if rng.random() < 0.1:
            k = rng.randrange(len(text))
            text = text[:k] + text[k + 1 :]
        try:
            expected = oracle(parse_expr(text))
        except TooBig:
            continue
        except (ZeroDivisor, ParseError) as exc:
            expected = type(exc)
        out.append((text, expected))
    return out


def run_cases(texts):
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, str(CASE_SECONDS)],
        input="".join(json.dumps(t) + "\n" for t in texts),
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=cap,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def verdict(expected, code, out, err):
    """None when the case behaved, else what went wrong."""
    if code == 2:
        return None if err.startswith("syntax error:") and expected is ParseError else f"exit 2: {err.strip()}"
    if code == 3:
        error = json.loads(out)["result"]["error"]
        if error == "InternalError":
            return f"InternalError: {out.strip()}"
        return None if error == "ZeroDivisorIdeal" and expected is ZeroDivisor else f"refused with {error}"
    if code != 0:
        return f"exit {code}: {err.strip()}"
    if not isinstance(expected, tuple):
        return f"answered, but the oracle expects {expected.__name__}"
    text = json.loads(out)["result"]["text"]
    want = oracle_generators(expected)
    return None if printed_generators(text) == want else f"answered {text}, oracle {want}"


def test_random_expressions_answer_or_are_refused_by_name():
    drawn = cases(SEED, CASES)
    results = run_cases([text for text, _ in drawn])
    assert len(results) == len(drawn)
    bad = [
        (text, why)
        for (text, expected), (code, out, err) in zip(drawn, results)
        if (why := verdict(expected, code, out, err)) is not None
    ]
    assert bad == [], bad[:5]
    # the draw reaches every kind of outcome: answers, refusals and syntax errors
    assert {code for code, _, _ in results} == {0, 2, 3}


def test_the_oracle_matches_known_answers():
    def gens(text):
        return oracle_generators(oracle(parse_expr(text)))

    assert gens("I(2,5) & I(3,4)") == (4, 6, 7, 9)
    assert gens("[I(4,6) : I(2)]") == (2, 3)
    assert gens("[I(1) : I(2)]") == (Fraction(1, 2),)
    assert gens("[I(2,3) : I(4,6)]") == (Fraction(1, 2),)
    assert gens("I(2,3)^2") == (4, 6, 9)
    assert gens("I(6) + I(4)") == (4, 6)
    assert gens("I(0) * I(7)") == ()
    assert gens("I(5)^0") == (1,)
    assert printed_generators("I(1/2,3)") == (Fraction(1, 2), 3) and printed_generators("(0)") == ()
