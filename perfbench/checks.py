"""Output checks, run outside the timed region.

An op fails when its status differs from the law matrix's expectation, when
a CLI query exits with a code other than 0 or 3, when its ``--json`` error
name is ``InternalError``, or when its output disagrees with an independent
computation:

- n0 results are compared with brute-force membership from
  ``tests/oracles.py`` on every integer up to the result's conductor plus
  twice its largest generator;
- factorisations are multiplied back to the number (gcd family) or to the
  norm (quad5);
- other numeric answers are recomputed with plain integer arithmetic.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from workloads import DVS, QUAD, is_prime

def check_law(op, report):
    if report.status != op["check"]["expect"]:
        return f"status {report.status}, expected {op['check']['expect']}"
    return None


def check_query(op, rc, out):
    """None when the CLI outcome is right, else the reason it is not."""
    if rc not in (0, 3):
        return f"exit code {rc}"
    try:
        doc = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return f"no JSON report: {out[:200]!r}"
    result = doc.get("result")
    error = result.get("error") if isinstance(result, dict) else None
    if error == "InternalError":
        return f"InternalError: {result.get('message')}"
    spec = op["check"]
    if spec.get("kind") == "error":
        return None if (rc, error) == (3, spec["name"]) else f"expected {spec['name']}, got rc={rc} {result}"
    if rc != 0:
        return f"unexpected {error}: {result.get('message')}"
    if "op" in spec:
        return _check_n0(spec, result)
    return _CHECKS[spec["kind"]](spec, result)


# ---------------------------------------------------------------------------
# n0


def _parse_n0(text):
    """Minimal generators of an n0 result text such as 'I(3,5/2)'."""
    if text == "(0)":
        return []
    if not (text.startswith("I(") and text.endswith(")")):
        raise ValueError(f"not an n0 ideal: {text!r}")
    return [Fraction(tok) for tok in text[2:-1].split(",")]


def _conductor(gens):
    """Least c such that every multiple of gcd(gens) from c on is a sum of gens."""
    import oracles  # tests/oracles.py, put on sys.path by run.py

    d = math.gcd(*gens)
    scaled = [g // d for g in gens]
    m = min(scaled)
    limit = 4 * max(scaled) + 1
    while True:
        members = oracles.closure_members(scaled, limit)
        run = 0
        for x in range(limit + 1):
            run = run + 1 if x in members else 0
            if run == m:
                return (x - m + 1) * d
        limit *= 4


def _check_n0(spec, result):
    import oracles

    fracs = _parse_n0(result["text"])
    if not fracs:
        return "zero ideal from nonzero generators"
    den = math.lcm(*(f.denominator for f in fracs))
    nums = [int(f * den) for f in fracs]
    if result["integral"] != (den == 1):
        return f"integral flag {result['integral']} for denominator {den}"
    limit = _conductor(nums) + 2 * max(nums)
    a, b, op = spec["a"], spec.get("b"), spec["op"]
    if op == "canon":
        want = oracles.closure_members(a, limit)
    elif op == "sum":
        want = oracles.closure_members(a + b, limit)
    elif op == "meet":
        want = oracles.n0_intersect(a, b, limit)
    elif op == "product":
        want = oracles.n0_product(a, b, limit)
    elif op == "power":
        prods = {math.prod(t) for t in itertools.product(a, repeat=spec["k"])}
        want = oracles.closure_members(prods, limit)
    else:
        # x = m/den lies in [A:B] iff m*B lies in den*A.
        want = oracles.n0_quotient([den * g for g in a], b, limit)
    got = oracles.closure_members(nums, limit)
    if got != want:
        diff = sorted(got ^ want)[:5]
        return f"{result['text']}: membership differs from the oracle at {diff} (scaled by {den})"
    return None


# ---------------------------------------------------------------------------
# numeric instances


def _gcd_value(spec):
    """Expected generator (a Fraction) on gcd, gcd-supported or quad5."""
    a, b, k, form = spec["a"], spec["b"], spec["k"], spec["form"]
    return {
        "sum": lambda: Fraction(math.gcd(a, b)),
        "meet": lambda: Fraction(math.lcm(a, b)),
        "product": lambda: Fraction(a * b),
        "quotient": lambda: Fraction(a, b),
        "power": lambda: Fraction(a**k),
        "inverse": lambda: Fraction(1, a),
        "literal": lambda: Fraction(a, b),
    }[form]()


def _dvs_exponent(spec):
    a, b, k, form = spec["a"], spec["b"], spec["k"], spec["form"]
    return {"sum": min(a, b), "meet": max(a, b), "product": a + b, "quotient": a - b, "power": a * k, "inverse": -a}[form]


def _dvs_text(n):
    return "S" if n == 0 else f"t^{n}"


def _quad_text(q):
    return "O" if q == 1 else f"{q}*O"


def _check_eval(spec, result):
    inst = spec["instance"]
    if inst == DVS:
        want = _dvs_text(_dvs_exponent(spec))
    elif inst == QUAD:
        want = _quad_text(_gcd_value(spec))
    else:
        want = f"I({_gcd_value(spec)})"
    return None if result["text"] == want else f"eval gave {result['text']}, expected {want}"


def _quad_norm(label):
    """Norm of a quad5 prime label: P2, P5 ramified (p); Pp[b] split (p); Pp inert (p^2)."""
    body = label[1:]
    if "[" in body:
        return int(body.split("[", 1)[0])
    p = int(body)
    return p if p in (2, 5) else p * p


def _check_factor(spec, result):
    factors = [(f["prime"], f["exponent"]) for f in result["factors"]]
    inst = spec["instance"]
    if inst == DVS:
        want = -spec["n"] if spec["text"].startswith("inv") else spec["n"]
        got = sum(e for p, e in factors if p == "t")
        ok = got == want and all(p == "t" for p, _ in factors)
        return None if ok else f"factors {factors} of t^{want}"
    value = Fraction(1)
    for label, e in factors:
        if inst == QUAD:
            base = _quad_norm(label)
            p = int(label[1:].split("[", 1)[0])
        else:
            base = p = int(label)
        if not is_prime(p):
            return f"factor {label} is not over a prime"
        value *= Fraction(base) ** e
    target = Fraction(spec["num"], spec["den"])
    if inst == QUAD:
        target = target**2  # the norm of (q) is q^2
    return None if value == target else f"factors {factors} compose to {value}, expected {target}"


def _check_classify(spec, result):
    inst = spec["instance"]
    if inst == DVS:
        n = spec["n"]
        want_prime = n == 1
    elif inst == QUAD:
        n = spec["num"]
        # (n) is prime in Z[w] iff n is a rational prime that stays inert.
        want_prime = is_prime(n) and n not in (2, 5) and pow(-5 % n, (n - 1) // 2, n) == n - 1
    else:
        want_prime = is_prime(spec["num"])
    want = {"prime": want_prime, "maximal": want_prime, "subtractive": True, "invertible": True}
    return None if result == want else f"classify gave {result}, expected {want}"


def _check_twogen(spec, result):
    ok = result["a"] == spec["member"] and math.gcd(result["a"], result["b"]) == spec["g"]
    return None if ok else f"twogen gave {result} for I({spec['g']})"


def _check_localize(spec, result):
    import oracles

    e = oracles.valuation(spec["n"], spec["p"])
    ok = result["exponent"] == e and result["text"] == _dvs_text(e)
    return None if ok else f"localize gave {result}, expected exponent {e}"


def _check_sandwich(spec, result):
    inst = spec["instance"]
    if inst == DVS:
        n = -spec["n"] if spec["text"].startswith("inv") else spec["n"]
        want = tuple("1" if e == 0 else f"t^{e}" for e in (max(n, 0), max(-n, 0)))
    else:
        want = (str(spec["num"]), str(spec["den"]))
    got = (result["c"], result["d"])
    return None if got == want else f"sandwich gave {got}, expected {want}"


def _content(values, inst):
    if inst == DVS:
        return min(values)
    return math.gcd(*values)


def _poly_mul(f, g, inst):
    out = [None] * (len(f) + len(g) - 1)
    for (i, x), (j, y) in itertools.product(enumerate(f), enumerate(g)):
        term = x + y if inst == DVS else x * y
        out[i + j] = term if out[i + j] is None else _content([out[i + j], term], inst)
    return out


def _check_dm(spec, result):
    inst, f, g = spec["instance"], spec["f"], spec["g"]
    show = _dvs_text if inst == DVS else (lambda n: f"I({n})")
    cf, cg, cfg = _content(f, inst), _content(g, inst), _content(_poly_mul(f, g, inst), inst)
    prod = cf + cg if inst == DVS else cf * cg
    want = {"content_f": show(cf), "content_g": show(cg), "content_fg": show(cfg), "gaussian": cfg == prod}
    got = {k: result[k] for k in want}
    if got != want:
        return f"dm gave {got}, expected {want}"
    if want["gaussian"] and result["dm_exponent"] != 0:
        return f"dm exponent {result['dm_exponent']} on a gaussian pair"
    return None


def _check_law_query(spec, result):
    return None if result["status"] == spec["expect"] else f"law status {result['status']}, expected {spec['expect']}"


def _check_between(spec, result):
    # Dedekind instances, and lagrassa where u*u = u, have nothing strictly
    # between m*m and a maximal m.
    return None if result == {"found": False} else f"between found {result}"


_CHECKS = {
    "eval": _check_eval,
    "factor": _check_factor,
    "classify": _check_classify,
    "twogen": _check_twogen,
    "localize": _check_localize,
    "sandwich": _check_sandwich,
    "dm": _check_dm,
    "law": _check_law_query,
    "between": _check_between,
}
