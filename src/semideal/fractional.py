"""Fractional ideals over the semifield of fractions, and what they buy.

A fractional ideal is A/d: an integral ideal A over a nonzero element d of
the semiring. Its arithmetic is the integral arithmetic of the instance's
kind object (``inst.arith``) on a common denominator (A/d + B/d = (A+B)/d,
and likewise for the product and the meet), so no operation is written once
per instance kind. The kind object owns the payload conventions:

  gcd / gcd-supported   nonnegative Fraction (0 means the zero ideal)
  dvs                   None (zero) or an integer exponent, possibly negative
  n0                    (den, NatIdeal) with gcd(den, content) == 1
  quad5                 (Fraction scalar, primitive QuadIdeal)

``split`` reads a payload as (A, d) and ``join`` writes A/d back in the
canonical form above, so results are canonical and equality is structural.
lagrassa has no semifield of fractions to work in (it is not
multiplicatively cancellative), so every entry point rejects it.

On the gcd family, localization at p is the exponent of p in the generator
(``primes.valuation``), and the second generator of ``two_generators`` is a
closed form, aux*g.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    EmptyIdeal,
    InternalError,
    NotAMember,
    NotFractional,
    Unsupported,
    UnknownPrime,
    ZeroDivisorIdeal,
)
from .ideals import (
    Ideal,
    _check,
    ideal_equals,
    ideal_from_generators,
    ideal_power,
    ideal_product,
    unit_ideal,
    zero_ideal,
)
from .instances import Tagged, instance
from .primes import is_prime_int, valuation
from .quadratic import qi_mul
from .reports import Record
from .spectrum import PrimeLabel

_TRACED = (qi_mul,)  # perfbench's tracer test checks that this module binds qi_mul


def _fractions(inst):
    """The kind object of an instance that has a semifield of fractions."""
    if not inst.is_semidomain:
        raise Unsupported("lagrassa is not multiplicatively cancellative; no fraction semifield")
    return inst.arith


class FracIdeal(Tagged):
    __slots__ = ()

    def __repr__(self):
        return f"FracIdeal({self.instance.id}, {frac_str(self)})"


def _common(ar, x, y):
    """(A, B, d) with x = A/d and y = B/d, A and B ideal payloads."""
    A, dx = ar.split(x)
    B, dy = ar.split(y)
    if dx == dy:
        return A, B, dx
    return ar.scale(A, dy), ar.scale(B, dx), ar.emul(dx, dy)


def _quotient(ar, x, y):
    """[x : y] of two fractional payloads; y must be nonzero."""
    A, B, _ = _common(ar, x, y)  # [A/d : B/d] = [A : B]
    if B == ar.zero:
        raise ZeroDivisorIdeal("residual quotient by the zero ideal")
    if ar.instance.is_dedekind:
        # B is invertible and generated by the element B: [A : B] = A/B
        return ar.join(A, B)
    # x*B <= A  iff  t*x in [t*A : B], for a nonzero t in B
    t = ar.min_nonzero(B)
    return ar.join(ar.quotient(ar.scale(A, t), B), t)


def _invert(ar, x):
    """The inverse [S : x] of a fractional payload when x * [S : x] = S; None otherwise."""
    if ar.split(x)[0] == ar.zero:
        return None
    unit = ar.join(ar.one, ar.eone)
    y = _quotient(ar, unit, x)
    return y if ar.frac_mul(x, y) == unit else None


def frac_from_ideal(a: Ideal) -> FracIdeal:
    ar = _fractions(a.instance)
    return FracIdeal(a.instance, ar.join(a.payload, ar.eone))


def is_integral(a: FracIdeal) -> bool:
    ar = a.instance.arith
    return ar.split(a.payload)[1] == ar.eone


def to_ideal(a: FracIdeal) -> Ideal:
    ar = a.instance.arith
    A, d = ar.split(a.payload)
    if d != ar.eone:
        raise NotFractional(f"{frac_str(a)} is not an integral ideal")
    return Ideal(a.instance, A)


def frac_zero(inst) -> FracIdeal:
    return frac_from_ideal(zero_ideal(inst))


def frac_unit(inst) -> FracIdeal:
    return frac_from_ideal(unit_ideal(inst))


def frac_is_zero(a: FracIdeal) -> bool:
    ar = a.instance.arith
    return ar.split(a.payload)[0] == ar.zero


def frac_equals(a: FracIdeal, b: FracIdeal) -> bool:
    if a.instance is not b.instance:
        return False
    return a.payload == b.payload


def frac_from_generators(inst, rats, max_denominator=None) -> FracIdeal:
    """Span of finitely many nonnegative rationals; denominators are cleared.

    max_denominator caps the common denominator so a stream of generators
    with unbounded denominators is detected as not fractional.
    """
    ar = _fractions(inst)
    rats = [Fraction(r) for r in rats]
    if any(r < 0 for r in rats):
        raise NotFractional("generators must be nonnegative")
    nums, den = ar.clear(rats, max_denominator)
    return FracIdeal(inst, ar.join(ideal_from_generators(inst, nums).payload, den))


def frac_sum(a: FracIdeal, b: FracIdeal) -> FracIdeal:
    _check(a.instance, b)
    ar = a.instance.arith
    A, B, d = _common(ar, a.payload, b.payload)
    return FracIdeal(a.instance, ar.join(ar.add(A, B), d))


def frac_product(a: FracIdeal, b: FracIdeal) -> FracIdeal:
    _check(a.instance, b)
    return FracIdeal(a.instance, a.instance.arith.frac_mul(a.payload, b.payload))


def frac_intersect(a: FracIdeal, b: FracIdeal) -> FracIdeal:
    _check(a.instance, b)
    ar = a.instance.arith
    A, B, d = _common(ar, a.payload, b.payload)
    return FracIdeal(a.instance, ar.join(ar.meet(A, B), d))


def frac_quotient(a: FracIdeal, b: FracIdeal) -> FracIdeal:
    """[a : b] inside the semifield of fractions; b must be nonzero."""
    _check(a.instance, b)
    return FracIdeal(a.instance, _quotient(a.instance.arith, a.payload, b.payload))


def frac_power(a: FracIdeal, k: int) -> FracIdeal:
    """(A/d)^k = A^k / d^k; a negative k powers the inverse."""
    if k < 0:
        inv = frac_invert(a)
        if inv is None:
            raise Unsupported("negative power of a non-invertible ideal")
        return frac_power(inv, -k)
    ar = a.instance.arith
    A, d = ar.split(a.payload)
    return FracIdeal(a.instance, ar.join(ar.power(A, k), ar.power(d, k, element=True)))


def frac_invert(a: FracIdeal):
    """The inverse [S : a] when a * [S : a] = S; None otherwise."""
    inv = _invert(a.instance.arith, a.payload)
    return None if inv is None else FracIdeal(a.instance, inv)


def frac_principal_generator(a: FracIdeal):
    """A K-element generating a, as (instance, canonical payload); None if none.

    K-element payloads: Fraction for gcd-like and n0, int exponent for dvs,
    (Fraction, primitive QuadIdeal) for quad5. Outside n0 they are the
    payloads of the principal fractional ideals they generate.
    """
    if frac_is_zero(a):
        return None
    return a.instance.arith.k_generator(a.payload)


def k_mul(inst, x, y):
    """Multiply two K-elements in the canonical payload form."""
    return inst.arith.k_mul(x, y)


def k_one(inst):
    return inst.arith.k_one()


def inversion_witness(a: FracIdeal):
    """(x, y) K-elements with x in a, y in the inverse, x*y = 1; None if a is
    not invertible or has no principal generator to exhibit."""
    b = frac_invert(a)
    if b is None:
        return None
    x = frac_principal_generator(a)
    y = frac_principal_generator(b)
    if x is None or y is None:
        return None
    if k_mul(a.instance, x, y) != k_one(a.instance):
        raise InternalError("inversion witness does not multiply to 1")
    return (x, y)


def sandwich(a: FracIdeal):
    """Elements (c, d) with (c) <= a and d*a integral; a must be nonzero."""
    if frac_is_zero(a):
        raise EmptyIdeal("the zero ideal has no nonzero member to sandwich")
    return a.instance.arith.sandwich(a.payload)


def frac_str(a: FracIdeal) -> str:
    return a.instance.arith.frac_str(a.payload)


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
    if not inst.arith.factorial:
        raise Unsupported(f"{inst.kind} ideals do not factor into primes here")
    return inst.arith


def uft_factor(a: FracIdeal) -> ExponentVector:
    inst = a.instance
    ar = _factorial(inst)
    if frac_is_zero(a):
        raise EmptyIdeal("the zero ideal has no prime factorization")
    A, d = ar.split(a.payload)  # A and d are principal, d an element
    vec = {PrimeLabel(inst, *lab): e for lab, e in ar.factor(A).items()}
    for lab, e in ar.factor(d).items():
        lab = PrimeLabel(inst, *lab)
        vec[lab] = vec.get(lab, 0) - e
    return ExponentVector.of(vec)


def uft_compose(inst, vec: ExponentVector) -> FracIdeal:
    ar = _factorial(inst)
    pos = neg = unit_ideal(inst)
    for lab, e in vec.items:
        if e > 0:
            pos = ideal_product(pos, ideal_power(lab.ideal(), e))
        else:
            neg = ideal_product(neg, ideal_power(lab.ideal(), -e))
    return FracIdeal(inst, ar.join(pos.payload, neg.payload))  # neg = (neg.payload) is principal


def divisors_containing(a: Ideal):
    """All integral ideals containing a, a nonzero; sorted canonically."""
    _fractions(a.instance)
    ar = _factorial(a.instance)
    if a.payload == ar.zero:
        raise EmptyIdeal("the zero ideal has no prime factorization")
    return [Ideal(a.instance, d) for d in ar.divisors(a.payload)]


# ---------------------------------------------------------------------------
# localization at a numeric prime (gcd family -> dvs)


def localize(inst, p, a: Ideal) -> Ideal:
    """Image of a under localization at (p), as an ideal of the dvs instance."""
    if not inst.arith.gcd_family:
        raise Unsupported(f"localization is defined for the gcd family, not {inst.kind}")
    if not is_prime_int(p):
        raise UnknownPrime(f"{p} is not prime")
    if inst.support is not None and p not in inst.support:
        raise UnknownPrime(f"{p} is not in the support {inst.support}")
    dvs = instance("dvs")
    if a.payload == 0:
        return zero_ideal(dvs)
    return Ideal(dvs, valuation(a.payload, p)[0])


# ---------------------------------------------------------------------------
# two-generator and finite-spectrum constructions (gcd family)


def two_generators(a: Ideal, member: int):
    """Given nonzero member of nonzero a = (g), a second generator b with a = (member, b).

    b = aux*g, with aux the least prime (on gcd-supported, the least support
    prime) that does not divide member, or 1 when there is none: then
    gcd(member, b) = g. A member of 1 gives b = 1.
    """
    inst = a.instance
    if not inst.arith.gcd_family:
        raise Unsupported(f"two-generator search runs on the gcd family, not {inst.kind}")
    g = a.payload
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
    """On gcd-supported: combine one member per complementary prime box into a
    single principal generator; returns (generator, per-prime members)."""
    inst = a.instance
    if inst.support is None:
        raise Unsupported("principal generation by finite spectrum needs gcd-supported")
    g = a.payload
    if g == 0:
        raise ZeroDivisorIdeal("the zero ideal is excluded")
    members = [g * math.prod(q for q in inst.support if q != p) for p in inst.support]
    gen = math.gcd(*members)
    if not ideal_equals(ideal_from_generators(inst, [gen]), a):
        raise InternalError("finite-spectrum generator failed the span check")
    return (gen, tuple(members))
