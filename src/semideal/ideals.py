"""Finitely generated ideals over the six instances, with canonical payloads.

An Ideal is an ideal payload tagged with its instance. Its arithmetic is that
of the instance's kind object, ``inst.arith`` (``instances``): these
functions check that the operands share an instance and that a divisor is
nonzero, validate element arguments, and tag the payloads they get back.
On the gcd family, dvs and quad5 an ideal is stored as its generator, on n0
as a NatIdeal (``natideal``), on lagrassa as "zero" / "u" / "full". All
operations are exact; equality of canonical payloads is equality of ideals.
"""

from __future__ import annotations

from .errors import InstanceMismatch, NotMaximal, ZeroDivisorIdeal
from .instances import Element, Tagged, element
from .quadratic import qi_mul

_TRACED = (qi_mul,)  # perfbench's tracer test checks that this module binds qi_mul


class Ideal(Tagged):
    __slots__ = ()


def _check(inst, *ideals):
    for i in ideals:
        if i.instance is not inst:
            raise InstanceMismatch(f"ideal from {i.instance.id}, expected {inst.id}")


def zero_ideal(inst):
    return Ideal(inst, inst.arith.zero)


def unit_ideal(inst):
    return Ideal(inst, inst.arith.one)


def is_zero(i):
    return i.payload == i.instance.arith.zero


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
    return Ideal(inst, inst.arith.ideal(payloads))


def ideal_sum(a, b):
    inst = a.instance
    _check(inst, b)
    return Ideal(inst, inst.arith.add(a.payload, b.payload))


def ideal_product(a, b):
    inst = a.instance
    _check(inst, b)
    return Ideal(inst, inst.arith.mul(a.payload, b.payload))


def ideal_power(a, k):
    return Ideal(a.instance, a.instance.arith.power(a.payload, k))


def ideal_intersect(a, b):
    inst = a.instance
    _check(inst, b)
    return Ideal(inst, inst.arith.meet(a.payload, b.payload))


def ideal_quotient(a, b):
    """[a : b] = {x : x*b inside a}; b must be nonzero."""
    inst = a.instance
    _check(inst, b)
    if is_zero(b):
        raise ZeroDivisorIdeal("quotient by the zero ideal")
    return Ideal(inst, inst.arith.quotient(a.payload, b.payload))


def ideal_contains(a, b):
    """True iff b is a subset of a."""
    _check(a.instance, b)
    return a.instance.arith.contains(a.payload, b.payload)


def ideal_membership(a, x):
    """True iff the element x (payload or Element) lies in the ideal."""
    inst = a.instance
    if isinstance(x, Element):
        if x.instance is not inst:
            raise InstanceMismatch(f"element from {x.instance.id}, expected {inst.id}")
        p = x.payload
    else:
        p = element(inst, x).payload
    return inst.arith.member(a.payload, p)


def ideal_equals(a, b):
    _check(a.instance, b)
    return a.payload == b.payload


def is_subtractive(a):
    return a.instance.arith.is_subtractive(a.payload)


def is_prime(a):
    return a.instance.arith.is_prime(a.payload)


def is_maximal(a):
    return a.instance.arith.is_maximal(a.payload)


def min_nonzero(a):
    return a.instance.arith.min_nonzero(a.payload)


def divides(a, b):
    """Cofactor c with a*c == b, or None; exact for every instance."""
    inst = a.instance
    _check(inst, b)
    if is_zero(a):
        raise ZeroDivisorIdeal("division by the zero ideal")
    if is_zero(b):
        return b
    c = inst.arith.cofactor(b.payload, a.payload)
    return None if c is None else Ideal(inst, c)


def separating_member(small, big):
    """An element payload in big but not in small; None when there is none."""
    _check(small.instance, big)
    return small.instance.arith.separating(small.payload, big.payload)


def search_between(m):
    """An ideal strictly between m*m and m for a maximal m, or None."""
    if not is_maximal(m):
        raise NotMaximal(f"{ideal_str(m)} is not maximal")
    found = m.instance.arith.between(m.payload)
    return None if found is None else Ideal(m.instance, found)


def generators(a):
    """Canonical generator payloads (minimal for n0, principal elsewhere)."""
    return a.instance.arith.generators(a.payload)


def ideal_str(a):
    return a.instance.arith.str(a.payload)
