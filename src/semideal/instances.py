"""Semiring instance descriptors and element-level arithmetic.

Supported instances:

  n0                naturals with usual + and *
  gcd               naturals with gcd as addition, usual * as multiplication
  gcd-supported(P)  restriction of gcd to 0, 1 and the P-smooth numbers
  dvs               {t^n : n >= 0} u {0}: t^a + t^b = t^min(a,b), t^a * t^b = t^(a+b)
  lagrassa          three elements 0, u, 1 with 1+1 = 1, 1+u = u+1 = u+u = u,
                    u*u = u*1 = u (additively idempotent, not cancellative)
  quad5             ideals of Z[w], w*w = -5, under ideal sum and product

Elements are tagged with their instance so mixed-instance operations fail
loudly. Payloads: int for the three gcd-like instances and n0, int-or-None
(None is the zero) for dvs, one of "0" / "u" / "1" for lagrassa, and a
QuadIdeal for quad5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InstanceMismatch, OutOfSupport
from .primes import is_prime_int
from .quadratic import QI_ONE, QI_ZERO, QuadIdeal, enumerate_ideals, qi_add, qi_mul
from .reports import LawReport

KINDS = ("n0", "gcd", "gcd-supported", "dvs", "lagrassa", "quad5")


@dataclass(frozen=True)
class Instance:
    id: str
    kind: str
    support: tuple | None
    is_semidomain: bool
    is_subtractive: bool
    is_dedekind: bool | None
    is_noetherian: bool | None


_FLAGS = {
    # kind: (semidomain, subtractive ideals only, dedekind, noetherian)
    "n0": (True, False, False, True),
    "gcd": (True, True, True, True),
    "gcd-supported": (True, True, True, True),
    "dvs": (True, True, True, True),
    "lagrassa": (False, False, False, True),
    "quad5": (True, True, None, None),
}

_CACHE = {}


def instance(spec):
    """Look up an instance by id, e.g. "gcd" or "gcd-supported(2,3)".

    Instances are interned: every id that names the same instance
    ("gcd-supported", "gcd-supported(3,2)", "gcd-supported(2,3)") returns the
    one object cached under its canonical id, so the library compares
    instances with ``is``.
    """
    if spec in _CACHE:
        return _CACHE[spec]
    kind, support = spec, None
    if spec.startswith("gcd-supported"):
        kind = "gcd-supported"
        rest = spec[len("gcd-supported"):]
        if rest == "":
            support = (2, 3)
        elif rest.startswith("(") and rest.endswith(")"):
            try:
                support = tuple(sorted({int(tok) for tok in rest[1:-1].split(",")}))
            except ValueError:
                raise ValueError(f"bad prime set in instance id: {spec!r}") from None
            if not support or not all(is_prime_int(p) for p in support):
                raise ValueError(f"support must be a nonempty set of primes: {spec!r}")
        else:
            raise ValueError(f"unknown instance: {spec!r}")
    elif spec not in KINDS:
        raise ValueError(f"unknown instance: {spec!r}")
    flags = _FLAGS[kind]
    canonical = kind if support is None else "gcd-supported(%s)" % ",".join(map(str, support))
    inst = _CACHE.get(canonical) or Instance(canonical, kind, support, *flags)
    _CACHE[spec] = _CACHE[canonical] = inst
    return inst


@dataclass(frozen=True)
class Element:
    instance: Instance
    payload: object


def _smooth(n, support):
    if n == 0:
        return True
    for p in support:
        while n % p == 0:
            n //= p
    return n == 1


def element(inst, value):
    """Validate a raw payload and tag it."""
    kind = inst.kind
    if kind in ("n0", "gcd", "gcd-supported"):
        v = int(value)
        if v != value or v < 0:
            raise ValueError("naturals only")
        if kind == "gcd-supported" and not _smooth(v, inst.support):
            raise OutOfSupport(f"{v} has a prime factor outside {inst.support}")
        return Element(inst, v)
    if kind == "dvs":
        if value is None:
            return Element(inst, None)
        v = int(value)
        if v != value or v < 0:
            raise ValueError("exponents of elements are nonnegative")
        return Element(inst, v)
    if kind == "lagrassa":
        if value not in ("0", "u", "1"):
            raise ValueError("lagrassa elements are '0', 'u', '1'")
        return Element(inst, value)
    if kind == "quad5":
        if isinstance(value, QuadIdeal):
            return Element(inst, value)
        v = int(value)
        if v != value or v < 0:
            raise ValueError("quad5 elements are QuadIdeals or naturals n meaning n*O")
        return Element(inst, QI_ZERO if v == 0 else QuadIdeal(v, 1, 0))
    raise ValueError(kind)


def zero(inst):
    return element(inst, {"dvs": None, "lagrassa": "0", "quad5": QI_ZERO}.get(inst.kind, 0))


def one(inst):
    return element(inst, {"dvs": 0, "lagrassa": "1", "quad5": QI_ONE}.get(inst.kind, 1))


_LAG_ADD = {
    ("0", "0"): "0", ("0", "u"): "u", ("0", "1"): "1",
    ("u", "0"): "u", ("u", "u"): "u", ("u", "1"): "u",
    ("1", "0"): "1", ("1", "u"): "u", ("1", "1"): "1",
}
_LAG_MUL = {
    ("0", "0"): "0", ("0", "u"): "0", ("0", "1"): "0",
    ("u", "0"): "0", ("u", "u"): "u", ("u", "1"): "u",
    ("1", "0"): "0", ("1", "u"): "u", ("1", "1"): "1",
}


def payload_add(kind, x, y):
    if kind == "n0":
        return x + y
    if kind in ("gcd", "gcd-supported"):
        return math.gcd(x, y)
    if kind == "dvs":
        if x is None:
            return y
        if y is None:
            return x
        return min(x, y)
    if kind == "lagrassa":
        return _LAG_ADD[(x, y)]
    if kind == "quad5":
        return qi_add(x, y)
    raise ValueError(kind)


def payload_mul(kind, x, y):
    if kind in ("n0", "gcd", "gcd-supported"):
        return x * y
    if kind == "dvs":
        if x is None or y is None:
            return None
        return x + y
    if kind == "lagrassa":
        return _LAG_MUL[(x, y)]
    if kind == "quad5":
        return qi_mul(x, y)
    raise ValueError(kind)


def element_op(inst, op, x, y):
    """Binary element operation; op is "add" or "mul"."""
    for e in (x, y):
        if e.instance is not inst:
            raise InstanceMismatch(f"operand from {e.instance.id}, expected {inst.id}")
    if op == "add":
        return Element(inst, payload_add(inst.kind, x.payload, y.payload))
    if op == "mul":
        return Element(inst, payload_mul(inst.kind, x.payload, y.payload))
    raise ValueError(f"unknown op {op!r}")


def payload_str(kind, x):
    if kind == "dvs":
        if x is None:
            return "0"
        return "1" if x == 0 else f"t^{x}"
    if kind == "quad5":
        if x.is_zero():
            return "0"
        prim = "" if x.a == 1 else f"({x.a}, {x.b}+w)"
        if x.g == 1:
            return prim or "1"
        return f"{x.g}*{prim}" if prim else str(x.g)
    return str(x)


def enumerate_payloads(inst, bound):
    """Deterministically ordered finite element sample, zero first."""
    kind = inst.kind
    if kind == "n0":
        return list(range(bound + 1))
    if kind == "gcd":
        return list(range(bound + 1))
    if kind == "gcd-supported":
        return [n for n in range(bound + 1) if _smooth(n, inst.support)]
    if kind == "dvs":
        return [None] + list(range(bound + 1))
    if kind == "lagrassa":
        return ["0", "u", "1"]
    if kind == "quad5":
        return [QI_ZERO] + enumerate_ideals(bound)
    raise ValueError(kind)


def check_semidomain(inst, bound):
    """Search for a multiplicative-cancellation failure among small elements.

    For each nonzero a the map b -> a*b must be injective; the first collision
    (a, b, c) with a*b == a*c and b != c is the returned witness.
    """
    elems = enumerate_payloads(inst, bound)
    zero_p = zero(inst).payload
    trials = 0
    for a in elems:
        if a == zero_p:
            continue
        seen = {}
        for b in elems:
            trials += 1
            p = payload_mul(inst.kind, a, b)
            if p in seen and seen[p] != b:
                witness = {
                    "a": payload_str(inst.kind, a),
                    "b": payload_str(inst.kind, seen[p]),
                    "c": payload_str(inst.kind, b),
                    "product": payload_str(inst.kind, p),
                }
                return LawReport("multiplicative-cancellation", inst.id, trials, 0, "fail", witness)
            seen[p] = b
    return LawReport("multiplicative-cancellation", inst.id, trials, 0, "pass", None)
