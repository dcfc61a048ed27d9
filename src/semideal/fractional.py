"""What fractional ideals make possible: factorization, inverses, and the gcd family's constructions.

Ideals, integral and fractional, are ``ideals.Ideal``. Over a Dedekind
instance every nonzero ideal is invertible and factors uniquely into primes
with integer exponents (``uft_factor``, ``uft_compose``), and an inverse is
exhibited by K-elements (``inversion_witness``). ``sandwich`` bounds an ideal
between a principal ideal and an integral one. On the gcd family,
localization at p is the exponent of p in the generator
(``primes.valuation``), and the second generator of ``two_generators`` is a
closed form, aux*g.
"""

from __future__ import annotations

import math

from .errors import EmptyIdeal, InternalError, NotAMember, Unsupported, UnknownPrime, ZeroDivisorIdeal
from .ideals import Ideal, _check, _integral, _tag, ideal_equals, ideal_from_generators, ideal_invert, is_zero
from .ideals import zero_ideal
from .instances import instance
from .primes import is_prime_int, valuation
from .quadratic import qi_mul
from .reports import Record
from .spectrum import PrimeLabel

_TRACED = (qi_mul,)  # perfbench's tracer test checks that this module binds qi_mul


def inversion_witness(a: Ideal):
    """(x, y) K-elements with x in a, y in the inverse, x*y = 1; None if a is
    not invertible. An invertible ideal is principal, on n0 too (the least
    nonzero members of a and its inverse multiply to 1): x and y generate them.

    K-element payloads: Fraction for gcd-like and n0, int exponent for dvs,
    (Fraction, primitive QuadIdeal) for quad5. Outside n0 they are the
    payloads of the principal ideals they generate.
    """
    inst = a.instance
    b = ideal_invert(a) if inst.semidomain else None  # lagrassa has no K-elements
    if b is None:
        return None
    x, y = inst.k_generator(a.payload), inst.k_generator(b.payload)
    if inst.k_mul(x, y) != inst.k_one():
        raise InternalError("inversion witness does not multiply to 1")
    return (x, y)


def sandwich(a: Ideal):
    """Elements (c, d) with (c) <= a and d*a integral; a must be nonzero."""
    if is_zero(a):
        raise EmptyIdeal("the zero ideal has no nonzero member to sandwich")
    return a.instance.sandwich(a.payload)


# ---------------------------------------------------------------------------
# unique factorization into primes


class ExponentVector(Record):
    __slots__ = ("items",)  # ((PrimeLabel, int), ...) sorted, all exponents nonzero

    @staticmethod
    def of(mapping):
        pairs = tuple(
            sorted(((lab, e) for lab, e in mapping.items() if e != 0), key=lambda kv: kv[0].sort_key())
        )
        return ExponentVector(pairs)

    def as_dict(self):
        return dict(self.items)

    def text(self):
        if not self.items:
            return "S"
        return " * ".join(
            lab.text() if e == 1 else f"{lab.text()}^{e}" for lab, e in self.items
        )


def _factorial(inst):
    if not inst.dedekind:
        raise Unsupported(f"{inst.kind} ideals do not factor into primes here")


def uft_factor(a: Ideal) -> ExponentVector:
    inst = a.instance
    _factorial(inst)
    if is_zero(a):
        raise EmptyIdeal("the zero ideal has no prime factorization")
    A, d = inst.split(a.payload)  # A and d are principal, d an element
    vec = {PrimeLabel(inst, *lab): e for lab, e in inst.factor(A).items()}
    for lab, e in inst.factor(d).items():
        lab = PrimeLabel(inst, *lab)
        vec[lab] = vec.get(lab, 0) - e
    return ExponentVector.of(vec)


def uft_compose(inst, vec: ExponentVector) -> Ideal:
    _factorial(inst)
    pos = neg = inst.one
    for lab, e in vec.items:
        prime = inst.prime(lab.p, lab.b)
        if e > 0:
            pos = inst.mul(pos, inst.power(prime, e))
        else:
            neg = inst.mul(neg, inst.power(prime, -e))
    return Ideal(inst, inst.join(pos, neg))  # neg is principal, generated by the element neg


def divisors_containing(a: Ideal):
    """All integral ideals containing a, a nonzero integral ideal; sorted canonically."""
    inst = a.instance
    A = _integral(a)
    if not inst.semidomain:
        raise Unsupported(f"{inst.kind} is not multiplicatively cancellative; no fraction semifield")
    _factorial(inst)
    if A == inst.zero:
        raise EmptyIdeal("the zero ideal has no prime factorization")
    return [_tag(inst, d) for d in inst.divisors(A)]


# ---------------------------------------------------------------------------
# localization at a numeric prime (gcd family -> dvs)


def localize(inst, p, a: Ideal) -> Ideal:
    """Image of the integral ideal a of inst under localization at (p), as an ideal of the dvs instance."""
    _check(inst, a)
    A = _integral(a)
    if not inst.gcd_family:
        raise Unsupported(f"localization is defined for the gcd family, not {inst.kind}")
    if not is_prime_int(p):
        raise UnknownPrime(f"{p} is not prime")
    if inst.support is not None and p not in inst.support:
        raise UnknownPrime(f"{p} is not in the support {inst.support}")
    dvs = instance("dvs")
    if A == 0:
        return zero_ideal(dvs)
    return _tag(dvs, valuation(A, p)[0])


# ---------------------------------------------------------------------------
# two-generator and finite-spectrum constructions (gcd family)


def two_generators(a: Ideal, member: int):
    """Given nonzero member of nonzero integral a = (g), a second generator b with a = (member, b).

    b = aux*g, with aux the least prime (on gcd-supported, the least support
    prime) that does not divide member, or 1 when there is none: then
    gcd(member, b) = g. A member of 1 gives b = 1.
    """
    inst = a.instance
    g = _integral(a)
    if not inst.gcd_family:
        raise Unsupported(f"two-generator search runs on the gcd family, not {inst.kind}")
    if g == 0:
        raise ZeroDivisorIdeal("the zero ideal is not invertible")
    if member == 0 or member % g != 0:
        raise NotAMember(f"{member} is not a nonzero member of I({g})")
    if member == 1:
        b = 1
    elif inst.support is None:
        aux = 2
        while member % aux == 0:
            aux = next_prime(aux)
        b = aux * g
    else:
        b = next((q for q in inst.support if member % q), 1) * g
    if not ideal_equals(ideal_from_generators(inst, [member, b]), a):
        raise InternalError("two-generator candidate failed the span check")
    return (member, b)


def next_prime(p):
    q = p + 1
    while not is_prime_int(q):
        q += 1
    return q


def finite_spec_principal_generator(a: Ideal):
    """On gcd-supported, for a nonzero integral a: combine one member per complementary prime box into a
    single principal generator; returns (generator, per-prime members)."""
    inst = a.instance
    g = _integral(a)
    if inst.support is None:
        raise Unsupported("principal generation by finite spectrum needs gcd-supported")
    if g == 0:
        raise ZeroDivisorIdeal("the zero ideal is excluded")
    members = [g * math.prod(q for q in inst.support if q != p) for p in inst.support]
    gen = math.gcd(*members)
    if not ideal_equals(ideal_from_generators(inst, [gen]), a):
        raise InternalError("finite-spectrum generator failed the span check")
    return (gen, tuple(members))
