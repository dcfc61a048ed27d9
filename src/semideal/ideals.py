"""Finitely generated ideals over the six instances, with canonical payloads.

On the gcd family, dvs and quad5 every ideal is principal, so an ideal is
stored as its generator, an element payload (a nonnegative int, an exponent
or None, a QuadIdeal), and its arithmetic is the element arithmetic of
``instances.payload_add`` and ``payload_mul``:

  (a) + (b) = (a + b)          (a)(b) = (ab)          (a)^k by squaring
  (a) & (b) = ab / (a + b)     [(a) : (b)] = a / (a + b)
  (a) >= (b)  iff  a + b = a   x in (a)  iff  a + x = a
  (a) divides (b)  iff  b / a exists

where c = num / den is the exact cofactor with c * den = num (``_cofactor``:
exact division on the gcd family, exponent difference on dvs, ``qi_divide``
on quad5). Those ideals are subtractive, and maximal iff nonzero and prime.

n0 keeps a NatIdeal payload (``natideal``) and lagrassa its three ideals
"zero" / "u" / "full"; they are the only kinds with cases of their own.
All operations are exact; equality of canonical payloads is equality of
ideals.
"""

from __future__ import annotations

import math

from . import natideal as nat
from .errors import InstanceMismatch, InternalError, NotMaximal, Unsupported, ZeroDivisorIdeal
from .instances import CONSTANTS, Element, Tagged, element, payload_add, payload_mul
from .primes import factorint, is_prime_int
from .quadratic import QI_ONE, qi_divide, qi_factor, qi_mul, prime_for_root

_LAG_ORDER = ("zero", "u", "full")
_LAG_MEMBERS = {"zero": ("0",), "u": ("0", "u"), "full": ("0", "u", "1")}

# A principal kind's zero and unit ideals are its zero and one elements.
_ZERO = {kind: z for kind, (z, _) in CONSTANTS.items()} | {"n0": nat.NAT_ZERO, "lagrassa": "zero"}
_UNIT = {kind: u for kind, (_, u) in CONSTANTS.items()} | {"n0": nat.NAT_FULL, "lagrassa": "full"}


class Ideal(Tagged):
    __slots__ = ()


def _check(inst, *ideals):
    for i in ideals:
        if i.instance is not inst:
            raise InstanceMismatch(f"ideal from {i.instance.id}, expected {inst.id}")


def _cofactor(inst, num, den):
    """The principal ideal c with c*(den) == (num), or None; den is nonzero."""
    kind = inst.kind
    if num == _ZERO[kind]:
        return Ideal(inst, num)
    if kind == "dvs":
        c = num - den if num >= den else None
    elif kind == "quad5":
        c = qi_divide(num, den)
    else:
        c = num // den if num % den == 0 else None
    return None if c is None else Ideal(inst, c)


def zero_ideal(inst):
    return Ideal(inst, _ZERO[inst.kind])


def unit_ideal(inst):
    return Ideal(inst, _UNIT[inst.kind])


def is_zero(i):
    return i.payload == _ZERO[i.instance.kind]


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
    if kind == "lagrassa":
        rank = max((("0", "u", "1").index(p) for p in payloads), default=0)
        return Ideal(inst, _LAG_ORDER[rank])
    acc = _ZERO[kind]
    for p in payloads:
        acc = payload_add(kind, acc, p)
    return Ideal(inst, acc)


def ideal_sum(a, b):
    inst = a.instance
    _check(inst, b)
    kind = inst.kind
    if kind == "n0":
        return Ideal(inst, nat.nat_sum(a.payload, b.payload))
    if kind == "lagrassa":
        return Ideal(inst, _LAG_ORDER[max(_LAG_ORDER.index(a.payload), _LAG_ORDER.index(b.payload))])
    return Ideal(inst, payload_add(kind, a.payload, b.payload))


def ideal_product(a, b):
    inst = a.instance
    _check(inst, b)
    kind = inst.kind
    if kind == "n0":
        return Ideal(inst, nat.nat_product(a.payload, b.payload))
    if kind == "lagrassa":
        return Ideal(inst, _LAG_ORDER[min(_LAG_ORDER.index(a.payload), _LAG_ORDER.index(b.payload))])
    return Ideal(inst, payload_mul(kind, a.payload, b.payload))


def ideal_power(a, k):
    if k < 0:
        raise ValueError("negative ideal power")
    if a.instance.kind == "n0":
        return Ideal(a.instance, nat.nat_power(a.payload, k))
    out = unit_ideal(a.instance)
    while k:
        if k & 1:
            out = ideal_product(out, a)
        k >>= 1
        if k:
            a = ideal_product(a, a)
    return out


def ideal_intersect(a, b):
    inst = a.instance
    _check(inst, b)
    kind = inst.kind
    if kind == "n0":
        return Ideal(inst, nat.nat_intersect(a.payload, b.payload))
    if kind == "lagrassa":  # its ideals form a chain, and a product is the smaller factor
        return ideal_product(a, b)
    x, y = a.payload, b.payload
    meet = _cofactor(inst, payload_mul(kind, x, y), payload_add(kind, x, y))
    if meet is None:
        raise InternalError("the sum of two principal ideals did not divide their product")
    return meet


def ideal_quotient(a, b):
    """[a : b] = {x : x*b inside a}; b must be nonzero."""
    inst = a.instance
    _check(inst, b)
    if is_zero(b):
        raise ZeroDivisorIdeal("quotient by the zero ideal")
    kind = inst.kind
    if kind == "n0":
        return Ideal(inst, nat.nat_quotient(a.payload, b.payload))
    if kind == "lagrassa":
        amem = set(_LAG_MEMBERS[a.payload])
        bmem = _LAG_MEMBERS[b.payload]
        good = [x for x in ("0", "u", "1") if all(payload_mul(kind, x, y) in amem for y in bmem)]
        rank = 2 if "1" in good else (1 if "u" in good else 0)
        return Ideal(inst, _LAG_ORDER[rank])
    q = _cofactor(inst, a.payload, payload_add(kind, a.payload, b.payload))
    if q is None:
        raise InternalError("a principal ideal is not divisible by its sum with another")
    return q


def ideal_contains(a, b):
    """True iff b is a subset of a."""
    if a.instance.kind == "n0":
        _check(a.instance, b)
        return nat.nat_contains(a.payload, b.payload)
    return ideal_sum(a, b).payload == a.payload


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
    if kind == "lagrassa":
        return p in _LAG_MEMBERS[a.payload]
    return payload_add(kind, a.payload, p) == a.payload


def ideal_equals(a, b):
    _check(a.instance, b)
    return a.payload == b.payload


def is_subtractive(a):
    kind = a.instance.kind
    if kind == "n0":
        return nat.nat_is_subtractive(a.payload)
    if kind == "lagrassa":
        members = _LAG_MEMBERS[a.payload]
        for x in ("0", "u", "1"):
            for y in ("0", "u", "1"):
                if payload_add(kind, x, y) in members and x in members and y not in members:
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
        for x in ("0", "u", "1"):
            for y in ("0", "u", "1"):
                if payload_mul(kind, x, y) in members and x not in members and y not in members:
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
    if a.instance.kind == "n0":
        return nat.nat_is_maximal(a.payload)
    return not is_zero(a) and is_prime(a)


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
    if kind == "lagrassa":
        for c in _LAG_ORDER:
            cand = Ideal(inst, c)
            if ideal_product(a, cand).payload == b.payload:
                return cand
        return None
    return _cofactor(inst, b.payload, a.payload)


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
