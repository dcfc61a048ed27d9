"""Finitely generated ideals over the six instances, with canonical payloads.

Payloads: NatIdeal for n0; a single nonnegative generator for gcd and
gcd-supported; an exponent (None for the zero ideal) for dvs; "zero" / "u" /
"full" for lagrassa; a QuadIdeal for quad5 (finitely generated ideals of the
ideal semiring are principal because sums collapse under the idempotent
addition, so the element is the ideal).

All operations are exact; equality of canonical payloads is equality of
ideals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import natideal as nat
from .errors import EmptyIdeal, InstanceMismatch, InternalError, NotMaximal, Unsupported, ZeroDivisorIdeal
from .instances import Element, element, payload_str
from .natideal import NatIdeal
from .primes import factorint, is_prime_int
from .quadratic import (
    QI_ONE,
    QI_ZERO,
    QuadIdeal,
    qi_add,
    qi_contains,
    qi_divide,
    qi_factor,
    qi_mul,
    qi_pow,
    prime_for_root,
)

_LAG_ORDER = ("zero", "u", "full")
_LAG_MEMBERS = {"zero": ("0",), "u": ("0", "u"), "full": ("0", "u", "1")}


@dataclass(frozen=True)
class Ideal:
    instance: object
    payload: object


def _check(inst, *ideals):
    for i in ideals:
        if i.instance is not inst:
            raise InstanceMismatch(f"ideal from {i.instance.id}, expected {inst.id}")


def zero_ideal(inst):
    kind = inst.kind
    if kind == "n0":
        return Ideal(inst, nat.NAT_ZERO)
    if kind in ("gcd", "gcd-supported"):
        return Ideal(inst, 0)
    if kind == "dvs":
        return Ideal(inst, None)
    if kind == "lagrassa":
        return Ideal(inst, "zero")
    return Ideal(inst, QI_ZERO)


def unit_ideal(inst):
    kind = inst.kind
    if kind == "n0":
        return Ideal(inst, nat.NAT_FULL)
    if kind in ("gcd", "gcd-supported"):
        return Ideal(inst, 1)
    if kind == "dvs":
        return Ideal(inst, 0)
    if kind == "lagrassa":
        return Ideal(inst, "full")
    return Ideal(inst, QI_ONE)


def is_zero(i):
    return i.payload == zero_ideal(i.instance).payload


def ideal_from_generators(inst, gens):
    """Ideal generated by element payloads (or tagged Elements)."""
    payloads = []
    for g in gens:
        if isinstance(g, Element):
            if g.instance is not inst:
                raise InstanceMismatch("generator from another instance")
            payloads.append(g.payload)
        else:
            payloads.append(element(inst, g).payload)
    kind = inst.kind
    if kind == "n0":
        return Ideal(inst, nat.from_generators(payloads))
    if kind in ("gcd", "gcd-supported"):
        return Ideal(inst, math.gcd(*payloads) if payloads else 0)
    if kind == "dvs":
        exps = [p for p in payloads if p is not None]
        return Ideal(inst, min(exps) if exps else None)
    if kind == "lagrassa":
        rank = 0
        for p in payloads:
            rank = max(rank, {"0": 0, "u": 1, "1": 2}[p])
        return Ideal(inst, _LAG_ORDER[rank])
    acc = QI_ZERO
    for p in payloads:
        acc = qi_add(acc, p)
    return Ideal(inst, acc)


def ideal_sum(a, b):
    inst = a.instance
    _check(inst, b)
    kind = inst.kind
    if kind == "n0":
        return Ideal(inst, nat.nat_sum(a.payload, b.payload))
    if kind in ("gcd", "gcd-supported"):
        return Ideal(inst, math.gcd(a.payload, b.payload))
    if kind == "dvs":
        x, y = a.payload, b.payload
        if x is None:
            return b
        if y is None:
            return a
        return Ideal(inst, min(x, y))
    if kind == "lagrassa":
        return Ideal(inst, _LAG_ORDER[max(_LAG_ORDER.index(a.payload), _LAG_ORDER.index(b.payload))])
    return Ideal(inst, qi_add(a.payload, b.payload))


def ideal_product(a, b):
    inst = a.instance
    _check(inst, b)
    kind = inst.kind
    if kind == "n0":
        return Ideal(inst, nat.nat_product(a.payload, b.payload))
    if kind in ("gcd", "gcd-supported"):
        return Ideal(inst, a.payload * b.payload)
    if kind == "dvs":
        x, y = a.payload, b.payload
        if x is None or y is None:
            return Ideal(inst, None)
        return Ideal(inst, x + y)
    if kind == "lagrassa":
        return Ideal(inst, _LAG_ORDER[min(_LAG_ORDER.index(a.payload), _LAG_ORDER.index(b.payload))])
    return Ideal(inst, qi_mul(a.payload, b.payload))


def ideal_power(a, k):
    if k < 0:
        raise ValueError("negative ideal power")
    inst = a.instance
    kind = inst.kind
    if kind == "n0":
        return Ideal(inst, nat.nat_power(a.payload, k))
    if kind in ("gcd", "gcd-supported"):
        return Ideal(inst, a.payload**k)
    if kind == "dvs":
        if k == 0:
            return unit_ideal(inst)
        return Ideal(inst, None if a.payload is None else a.payload * k)
    if kind == "lagrassa":
        return unit_ideal(inst) if k == 0 else a
    return Ideal(inst, qi_pow(a.payload, k))


def ideal_intersect(a, b):
    inst = a.instance
    _check(inst, b)
    kind = inst.kind
    if kind == "n0":
        return Ideal(inst, nat.nat_intersect(a.payload, b.payload))
    if kind in ("gcd", "gcd-supported"):
        return Ideal(inst, math.lcm(a.payload, b.payload))
    if kind == "dvs":
        x, y = a.payload, b.payload
        if x is None or y is None:
            return Ideal(inst, None)
        return Ideal(inst, max(x, y))
    if kind == "lagrassa":
        return Ideal(inst, _LAG_ORDER[min(_LAG_ORDER.index(a.payload), _LAG_ORDER.index(b.payload))])
    x, y = a.payload, b.payload
    if x.is_zero() or y.is_zero():
        return zero_ideal(inst)
    q = qi_divide(qi_mul(x, y), qi_add(x, y))
    if q is None:
        raise InternalError("gcd of quad ideals did not divide their product")
    return Ideal(inst, q)


def ideal_quotient(a, b):
    """[a : b] = {x : x*b inside a}; b must be nonzero."""
    inst = a.instance
    _check(inst, b)
    if is_zero(b):
        raise ZeroDivisorIdeal("quotient by the zero ideal")
    kind = inst.kind
    if kind == "n0":
        return Ideal(inst, nat.nat_quotient(a.payload, b.payload))
    if kind in ("gcd", "gcd-supported"):
        if a.payload == 0:
            return zero_ideal(inst)
        return Ideal(inst, a.payload // math.gcd(a.payload, b.payload))
    if kind == "dvs":
        if a.payload is None:
            return zero_ideal(inst)
        return Ideal(inst, max(a.payload - b.payload, 0))
    if kind == "lagrassa":
        amem = set(_LAG_MEMBERS[a.payload])
        bmem = _LAG_MEMBERS[b.payload]
        from .instances import payload_mul

        good = [x for x in ("0", "u", "1") if all(payload_mul("lagrassa", x, y) in amem for y in bmem)]
        rank = 2 if "1" in good else (1 if "u" in good else 0)
        return Ideal(inst, _LAG_ORDER[rank])
    if a.payload.is_zero():
        return zero_ideal(inst)
    q = qi_divide(a.payload, qi_add(a.payload, b.payload))
    if q is None:
        raise InternalError("quad ideal quotient failed to divide")
    return Ideal(inst, q)


def ideal_contains(a, b):
    """True iff b is a subset of a."""
    inst = a.instance
    _check(inst, b)
    kind = inst.kind
    if kind == "n0":
        return nat.nat_contains(a.payload, b.payload)
    if kind in ("gcd", "gcd-supported"):
        if b.payload == 0:
            return True
        if a.payload == 0:
            return False
        return b.payload % a.payload == 0
    if kind == "dvs":
        if b.payload is None:
            return True
        if a.payload is None:
            return False
        return a.payload <= b.payload
    if kind == "lagrassa":
        return _LAG_ORDER.index(b.payload) <= _LAG_ORDER.index(a.payload)
    return qi_contains(a.payload, b.payload)


def ideal_membership(a, x):
    """True iff the element x (payload or Element) lies in the ideal."""
    inst = a.instance
    if isinstance(x, Element):
        if x.instance is not inst:
            raise InstanceMismatch(f"element from {x.instance.id}, expected {inst.id}")
        p = x.payload
    else:
        p = element(inst, x).payload
    kind = inst.kind
    if kind == "n0":
        return a.payload.contains(p)
    if kind in ("gcd", "gcd-supported"):
        if p == 0:
            return True
        return a.payload != 0 and p % a.payload == 0
    if kind == "dvs":
        if p is None:
            return True
        return a.payload is not None and p >= a.payload
    if kind == "lagrassa":
        return p in _LAG_MEMBERS[a.payload]
    return qi_contains(a.payload, p)


def ideal_equals(a, b):
    _check(a.instance, b)
    return a.payload == b.payload


def is_subtractive(a):
    kind = a.instance.kind
    if kind == "n0":
        return nat.nat_is_subtractive(a.payload)
    if kind in ("gcd", "gcd-supported", "dvs", "quad5"):
        return True
    members = _LAG_MEMBERS[a.payload]
    from .instances import payload_add

    for x in ("0", "u", "1"):
        for y in ("0", "u", "1"):
            if payload_add("lagrassa", x, y) in members and x in members and y not in members:
                return False
    return True


def is_prime(a):
    kind = a.instance.kind
    if kind == "n0":
        return nat.nat_is_prime(a.payload)
    if kind in ("gcd", "gcd-supported"):
        g = a.payload
        if g == 0:
            return True
        return g != 1 and is_prime_int(g)
    if kind == "dvs":
        return a.payload is None or a.payload == 1
    if kind == "lagrassa":
        if a.payload == "full":
            return False
        members = _LAG_MEMBERS[a.payload]
        from .instances import payload_mul

        for x in ("0", "u", "1"):
            for y in ("0", "u", "1"):
                if payload_mul("lagrassa", x, y) in members and x not in members and y not in members:
                    return False
        return True
    q = a.payload
    if q.is_zero():
        return True
    if q == QI_ONE:
        return False
    factors = qi_factor(q)
    return len(factors) == 1 and next(iter(factors.values())) == 1


def is_maximal(a):
    kind = a.instance.kind
    if kind == "n0":
        return nat.nat_is_maximal(a.payload)
    if kind in ("gcd", "gcd-supported"):
        return a.payload != 0 and is_prime(a)
    if kind == "dvs":
        return a.payload == 1
    if kind == "lagrassa":
        return a.payload == "u"
    return not a.payload.is_zero() and is_prime(a)


def min_nonzero(a):
    if a.instance.kind != "n0":
        raise Unsupported("min_nonzero is defined for the n0 instance")
    return a.payload.min_nonzero()


def divides(a, b):
    """Cofactor c with a*c == b, or None; exact for every instance."""
    inst = a.instance
    _check(inst, b)
    if is_zero(a):
        raise ZeroDivisorIdeal("division by the zero ideal")
    kind = inst.kind
    if kind == "n0":
        q = nat.nat_divides(a.payload, b.payload)
        return None if q is None else Ideal(inst, q)
    if kind in ("gcd", "gcd-supported"):
        if b.payload == 0:
            return zero_ideal(inst)
        if b.payload % a.payload:
            return None
        return Ideal(inst, b.payload // a.payload)
    if kind == "dvs":
        if b.payload is None:
            return zero_ideal(inst)
        if b.payload < a.payload:
            return None
        return Ideal(inst, b.payload - a.payload)
    if kind == "lagrassa":
        for c in _LAG_ORDER:
            cand = Ideal(inst, c)
            if ideal_product(a, cand).payload == b.payload:
                return cand
        return None
    q = qi_divide(b.payload, a.payload)
    return None if q is None else Ideal(inst, q)


def separating_member(small, big):
    """An element payload in big but not in small; None when none is found.

    Sound: any returned payload is verified to lie in big and not in small.
    For n0 a full period past both conductors is scanned, which decides the
    question exactly; the other kinds compare canonical payloads directly.
    """
    inst = small.instance
    _check(inst, big)
    kind = inst.kind
    if kind == "n0":
        s, b = small.payload, big.payload
        if b == nat.NAT_ZERO:
            return None
        bound = max(s.c, b.c) + math.lcm(max(s.d, 1), max(b.d, 1)) + 1
        for x in b.members_below(bound):
            if x and not s.contains(x):
                return x
        return None
    if small.payload == big.payload:
        return None
    if kind == "lagrassa":
        for cand in ("u", "1"):
            if ideal_membership(big, cand) and not ideal_membership(small, cand):
                return cand
        return None
    if is_zero(big):
        return None
    cand = big.payload
    return cand if not ideal_membership(small, cand) else None


def search_between(m):
    """An ideal strictly between m*m and m for a maximal m, or None.

    For the factorization instances every ideal containing m*m is a divisor
    of it, so the finite divisor box decides existence exactly; for n0 the
    candidates m*m + (x) over members x of m outside m*m do.
    """
    inst = m.instance
    if not is_maximal(m):
        raise NotMaximal(f"{ideal_str(m)} is not maximal")
    kind = inst.kind
    if kind == "n0":
        found = nat.nat_between(m.payload)
        return None if found is None else Ideal(inst, found)
    m2 = ideal_product(m, m)
    if kind in ("gcd", "gcd-supported"):
        divisors = sorted(_int_divisors(m2.payload))
        candidates = [Ideal(inst, d) for d in divisors]
    elif kind == "dvs":
        candidates = [Ideal(inst, n) for n in range(m2.payload + 1)]
    elif kind == "lagrassa":
        candidates = [Ideal(inst, p) for p in _LAG_ORDER]
    else:
        factors = qi_factor(m2.payload)
        labels = sorted(factors)
        candidates = []
        stack = [(0, QI_ONE)]
        while stack:
            pos, cur = stack.pop()
            if pos == len(labels):
                candidates.append(Ideal(inst, cur))
                continue
            p, b = labels[pos]
            q = prime_for_root(p, b)
            acc = cur
            for _ in range(factors[(p, b)] + 1):
                stack.append((pos + 1, acc))
                acc = qi_mul(acc, q)
        candidates.sort(key=lambda c: (c.payload.norm(), c.payload.a, c.payload.b))
    for cand in candidates:
        if (
            ideal_contains(cand, m2)
            and ideal_contains(m, cand)
            and not ideal_equals(cand, m2)
            and not ideal_equals(cand, m)
        ):
            return cand
    return None


def _int_divisors(n):
    out = [1]
    for p, e in factorint(n).items() if n > 1 else ():
        out = [d * p**k for d in out for k in range(e + 1)]
    return out


def generators(a):
    """Canonical generator payloads (minimal for n0, principal elsewhere)."""
    kind = a.instance.kind
    if kind == "n0":
        g = nat.minimal_generators(a.payload)
        return g if g else (0,)
    if kind in ("gcd", "gcd-supported"):
        return (a.payload,)
    if kind == "dvs":
        return (a.payload,)
    if kind == "lagrassa":
        return ({"zero": "0", "u": "u", "full": "1"}[a.payload],)
    return (a.payload,)


def ideal_str(a):
    kind = a.instance.kind
    if kind == "n0":
        return "I(%s)" % ",".join(map(str, generators(a)))
    if kind in ("gcd", "gcd-supported"):
        return f"I({a.payload})"
    if kind == "dvs":
        n = a.payload
        if n is None:
            return "(0)"
        return "S" if n == 0 else f"t^{n}"
    if kind == "lagrassa":
        return {"zero": "(0)", "u": "(u)", "full": "L"}[a.payload]
    q = a.payload
    if q.is_zero():
        return "(0)"
    prim = "O" if q.a == 1 else f"({q.a}, {q.b}+w)"
    return prim if q.g == 1 else f"{q.g}*{prim}"
