"""Ideals over the six instances, integral and fractional alike, with canonical payloads.

An Ideal is a fractional ideal A/d tagged with its instance: an integral
ideal payload A over a nonzero element payload d. Its payload is a
fractional payload of the instance, the object of its kind class
(``instances``), which owns the conventions:

  gcd / gcd-supported   nonnegative Fraction (0 means the zero ideal)
  dvs                   None (zero) or an integer exponent, possibly negative
  n0                    (den, NatIdeal) with gcd(den, content) == 1
  quad5                 (Fraction scalar, primitive QuadIdeal)
  lagrassa              the generator "0", "u" or "1"; it has no fractions, so d is 1

``split`` reads a payload as (A, d) and ``join`` writes A/d back in
canonical form, so equality of payloads is equality of ideals. An ideal is
integral when d is 1. Sum, product, meet, power, quotient, inverse,
containment and equality act on every ideal: the kind's integral arithmetic
on a common denominator (A/d + B/d = (A+B)/d, and likewise for the product
and the meet), so no operation is written once per kind. The other
functions ask for an integral ideal and raise NotFractional for any other.
These functions check that the operands share an instance and that a
divisor is nonzero, validate element arguments, and tag what they get back.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InstanceMismatch, NotFractional, NotMaximal, Unsupported, ZeroDivisorIdeal
from .instances import Element, Tagged
from .quadratic import qi_mul

_TRACED = (qi_mul,)  # perfbench's tracer test checks that this module binds qi_mul


class Ideal(Tagged):
    __slots__ = ()


def _check(inst, *ideals):
    for i in ideals:
        if i.instance is not inst:
            raise InstanceMismatch(f"ideal from {i.instance.id}, expected {inst.id}")


def _tag(inst, A):
    """The ideal A/1 of an integral ideal payload A."""
    return Ideal(inst, inst.join(A, inst.eone))


def _integral(a):
    """The integral payload A of a = A/1; NotFractional for any other ideal."""
    A, d = a.instance.split(a.payload)
    if d != a.instance.eone:
        raise NotFractional(f"{ideal_str(a)} is not an integral ideal")
    return A


def _element(inst, x):
    """The payload of x, an Element of inst or a raw payload that inst validates."""
    if not isinstance(x, Element):
        return inst.element(x)
    if x.instance is not inst:
        raise InstanceMismatch(f"element from {x.instance.id}, expected {inst.id}")
    return x.payload


def _common(ar, x, y):
    """(A, B, d) with x = A/d and y = B/d, A and B ideal payloads."""
    A, dx = ar.split(x)
    B, dy = ar.split(y)
    if dx == dy:
        return A, B, dx
    return ar.scale(A, dy), ar.scale(B, dx), ar.emul(dx, dy)


def _quotient(ar, x, y):
    """[x : y] of two payloads in the semifield of fractions (the semiring on lagrassa); y nonzero."""
    A, B, _ = _common(ar, x, y)  # [A/d : B/d] = [A : B]
    if B == ar.zero:
        raise ZeroDivisorIdeal("residual quotient by the zero ideal")
    return ar.frac_quotient(A, B)


def _inverse(ar, x):
    """(y, x*y) for the candidate inverse y = [S : x] of a nonzero payload x:
    x is invertible iff x*y is the fractional unit S, ``ar.unit``."""
    y = _quotient(ar, ar.unit, x)
    return y, ar.frac_mul(x, y)


def zero_ideal(inst):
    return _tag(inst, inst.zero)


def unit_ideal(inst):
    return Ideal(inst, inst.unit)


def is_zero(a):
    return a.instance.split(a.payload)[0] == a.instance.zero


def is_integral(a):
    return a.instance.split(a.payload)[1] == a.instance.eone


def ideal_from_generators(inst, gens):
    """The ideal spanned by element payloads, tagged Elements and nonnegative
    rationals. The kind clears the denominators of the Fractions; lagrassa,
    which has no fractions, refuses any Fraction with Unsupported."""
    payloads, rats = [], []
    for g in gens:
        if isinstance(g, Fraction):
            rats.append(g)
        else:
            payloads.append(_element(inst, g))
    if not rats:
        return _tag(inst, inst.ideal(payloads))
    nums, den = inst.clear(rats)
    scale = inst.element(den)
    payloads = [inst.emul(p, scale) for p in payloads] + [inst.element(n) for n in nums]
    return Ideal(inst, inst.join(inst.ideal(payloads), den))


def ideal_sum(a, b):
    inst = a.instance
    _check(inst, b)
    A, B, d = _common(inst, a.payload, b.payload)
    return Ideal(inst, inst.join(inst.add(A, B), d))


def ideal_product(a, b):
    inst = a.instance
    _check(inst, b)
    return Ideal(inst, inst.frac_mul(a.payload, b.payload))


def ideal_intersect(a, b):
    inst = a.instance
    _check(inst, b)
    A, B, d = _common(inst, a.payload, b.payload)
    return Ideal(inst, inst.join(inst.meet(A, B), d))


def ideal_quotient(a, b):
    """[a : b] = {x in K : x*b inside a}; b must be nonzero. On lagrassa,
    which has no semifield of fractions K, x runs over the semiring."""
    inst = a.instance
    _check(inst, b)
    return Ideal(inst, _quotient(inst, a.payload, b.payload))


def ideal_invert(a):
    """The inverse [S : a] when a * [S : a] = S; None otherwise."""
    inst, x = a.instance, a.payload
    if inst.split(x)[0] == inst.zero:
        return None
    y, product = _inverse(inst, x)
    return Ideal(inst, y) if product == inst.unit else None


def ideal_power(a, k):
    """(A/d)^k = A^k / d^k; a negative k powers the inverse."""
    if k < 0:
        inv = ideal_invert(a)
        if inv is None:
            raise Unsupported("negative power of a non-invertible ideal")
        return ideal_power(inv, -k)
    inst = a.instance
    A, d = inst.split(a.payload)
    return Ideal(inst, inst.join(inst.power(A, k), inst.power(d, k, element=True)))


def ideal_contains(a, b):
    """True iff b is a subset of a."""
    inst = a.instance
    _check(inst, b)
    A, B, _ = _common(inst, a.payload, b.payload)
    return inst.contains(A, B)


def ideal_equals(a, b):
    _check(a.instance, b)
    return a.payload == b.payload


def ideal_membership(a, x):
    """True iff the element x (payload or Element) lies in the integral ideal a."""
    A = _integral(a)
    return a.instance.member(A, _element(a.instance, x))


def is_subtractive(a):
    return a.instance.is_subtractive(_integral(a))


def is_prime(a):
    return a.instance.is_prime(_integral(a))


def is_maximal(a):
    return a.instance.is_maximal(_integral(a))


def min_nonzero(a):
    return a.instance.min_nonzero(_integral(a))


def divides(a, b):
    """Integral cofactor c with a*c == b of integral a and b, or None."""
    inst = a.instance
    _check(inst, b)
    A, B = _integral(a), _integral(b)
    if A == inst.zero:
        raise ZeroDivisorIdeal("division by the zero ideal")
    if B == inst.zero:
        return b
    c = inst.cofactor(B, A)
    return None if c is None else _tag(inst, c)


def separating_member(small, big):
    """An element payload in big but not in small (both integral); None when there is none."""
    _check(small.instance, big)
    return small.instance.separating(_integral(small), _integral(big))


def search_between(m):
    """An ideal strictly between m*m and m for a maximal m, or None."""
    if not is_maximal(m):
        raise NotMaximal(f"{ideal_str(m)} is not maximal")
    found = m.instance.between(_integral(m))
    return None if found is None else _tag(m.instance, found)


def generators(a):
    """Canonical generator payloads of an integral ideal (minimal for n0, principal elsewhere)."""
    return a.instance.generators(_integral(a))


def ideal_str(a):
    return a.instance.frac_str(a.payload)
