"""Fractional ideals over the semifield of fractions, and what they buy.

A fractional ideal is A/d: an integral ideal A over a nonzero element d of
the semiring. Its arithmetic is the integral arithmetic of ``ideals`` on a
common denominator (A/d + B/d = (A+B)/d, and likewise for the product and
the meet), so no operation is written once per instance kind.

Two private helpers own the payload conventions, one per kind:

  gcd / gcd-supported   nonnegative Fraction (0 means the zero ideal)
  dvs                   None (zero) or an integer exponent, possibly negative
  n0                    (den, NatIdeal) with gcd(den, content) == 1
  quad5                 (Fraction scalar, primitive QuadIdeal)

``_split`` reads a payload as (A, d) and ``_join`` writes A/d back in the
canonical form above, so results are canonical and equality is structural.
lagrassa has no semifield of fractions to work in (it is not
multiplicatively cancellative), so every entry point rejects it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import natideal as nat
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
    generators,
    ideal_equals,
    ideal_from_generators,
    ideal_intersect,
    ideal_power,
    ideal_product,
    ideal_quotient,
    ideal_sum,
    is_zero,
    min_nonzero,
    unit_ideal,
    zero_ideal,
)
from .instances import Tagged, element, instance, one, payload_mul
from .primes import factorint, is_prime_int
from .quadratic import QI_ONE, QuadIdeal, qi_conj, qi_factor, qi_mul
from .reports import Record
from .spectrum import PrimeLabel


def _reject_lagrassa(inst):
    if inst.kind == "lagrassa":
        raise Unsupported("lagrassa is not multiplicatively cancellative; no fraction semifield")


class FracIdeal(Tagged):
    __slots__ = ()

    def __repr__(self):
        return f"FracIdeal({self.instance.id}, {frac_str(self)})"


def _split(a):
    """(A, d) with a = A/d, A an integral Ideal and d a nonzero element payload."""
    inst, p = a.instance, a.payload
    kind = inst.kind
    if kind in ("gcd", "gcd-supported"):
        return Ideal(inst, p.numerator), p.denominator
    if kind == "dvs":
        if p is None:
            return Ideal(inst, None), 0
        return Ideal(inst, max(p, 0)), max(-p, 0)
    if kind == "n0":
        return Ideal(inst, p[1]), p[0]
    scalar, prim = p
    return Ideal(inst, QuadIdeal(scalar.numerator, prim.a, prim.b)), QuadIdeal(scalar.denominator, 1, 0)


def _join(A, d):
    """The canonical FracIdeal A/d for an integral Ideal A and a nonzero
    element payload d; for quad5 d may also be a positive int or any
    nonzero ideal of Z[w]."""
    inst, p = A.instance, A.payload
    kind = inst.kind
    if kind in ("gcd", "gcd-supported"):
        return FracIdeal(inst, Fraction(p, d))
    if kind == "dvs":
        return FracIdeal(inst, None if p is None else p - d)
    if kind == "n0":
        if p.d == 0:
            return FracIdeal(inst, (1, p))
        g = math.gcd(d, p.d)
        return FracIdeal(inst, (d // g, nat.nat_unscale(p, g)))
    if isinstance(d, QuadIdeal):
        if d.a == 1:  # d = (g), a rational integer
            d = d.g
        else:  # d * conj(d) = (N(d)), so A/d = A*conj(d)/N(d)
            p, d = qi_mul(p, qi_conj(d)), d.norm()
    if p.is_zero():
        return FracIdeal(inst, (Fraction(0), QI_ONE))
    return FracIdeal(inst, (Fraction(p.g, d), QuadIdeal(1, p.a, p.b)))


def _scale(A, t):
    """The integral ideal A*(t) for a nonzero element payload t."""
    if A.instance.kind == "n0":  # n0 ideals are not stored as their generator
        return Ideal(A.instance, nat.nat_scale(A.payload, t))
    return ideal_product(A, Ideal(A.instance, t))


def _common(a, b):
    """(A, B, d) with a = A/d and b = B/d."""
    _check(a.instance, b)
    A, da = _split(a)
    B, db = _split(b)
    if da == db:
        return A, B, da
    return _scale(A, db), _scale(B, da), payload_mul(a.instance.kind, da, db)


def frac_from_ideal(a: Ideal) -> FracIdeal:
    inst = a.instance
    _reject_lagrassa(inst)
    return _join(a, one(inst).payload)


def is_integral(a: FracIdeal) -> bool:
    return _split(a)[1] == one(a.instance).payload


def to_ideal(a: FracIdeal) -> Ideal:
    A, d = _split(a)
    if d != one(a.instance).payload:
        raise NotFractional(f"{frac_str(a)} is not an integral ideal")
    return A


def frac_zero(inst) -> FracIdeal:
    return frac_from_ideal(zero_ideal(inst))


def frac_unit(inst) -> FracIdeal:
    return frac_from_ideal(unit_ideal(inst))


def frac_is_zero(a: FracIdeal) -> bool:
    return is_zero(_split(a)[0])


def frac_equals(a: FracIdeal, b: FracIdeal) -> bool:
    if a.instance is not b.instance:
        return False
    return a.payload == b.payload


def frac_from_generators(inst, rats, max_denominator=None) -> FracIdeal:
    """Span of finitely many nonnegative rationals; denominators are cleared.

    max_denominator caps the common denominator so a stream of generators
    with unbounded denominators is detected as not fractional.
    """
    _reject_lagrassa(inst)
    rats = [Fraction(r) for r in rats]
    if any(r < 0 for r in rats):
        raise NotFractional("generators must be nonnegative")
    if inst.kind == "dvs":
        if any(r.denominator != 1 for r in rats):
            raise Unsupported("dvs generators are written t^n with integer n")
        return frac_from_ideal(ideal_from_generators(inst, [r.numerator for r in rats]))
    den = math.lcm(*(r.denominator for r in rats))
    if max_denominator is not None and den > max_denominator:
        raise NotFractional(f"common denominator {den} exceeds bound {max_denominator}")
    element(inst, den)  # OutOfSupport for a denominator outside a gcd-supported support
    return _join(ideal_from_generators(inst, [int(r * den) for r in rats]), den)


def frac_sum(a: FracIdeal, b: FracIdeal) -> FracIdeal:
    A, B, d = _common(a, b)
    return _join(ideal_sum(A, B), d)


def frac_product(a: FracIdeal, b: FracIdeal) -> FracIdeal:
    _check(a.instance, b)
    A, da = _split(a)
    B, db = _split(b)
    return _join(ideal_product(A, B), payload_mul(a.instance.kind, da, db))


def frac_intersect(a: FracIdeal, b: FracIdeal) -> FracIdeal:
    A, B, d = _common(a, b)
    return _join(ideal_intersect(A, B), d)


def frac_quotient(a: FracIdeal, b: FracIdeal) -> FracIdeal:
    """[a : b] inside the semifield of fractions; b must be nonzero."""
    A, B, _ = _common(a, b)  # [A/d : B/d] = [A : B]
    if is_zero(B):
        raise ZeroDivisorIdeal("residual quotient by the zero ideal")
    if a.instance.is_dedekind:
        # B is invertible and generated by the element B.payload: [A : B] = A/B
        return _join(A, B.payload)
    # x*B <= A  iff  t*x in [t*A : B], for a nonzero t in B
    t = min_nonzero(B)
    return _join(ideal_quotient(_scale(A, t), B), t)


def frac_power(a: FracIdeal, k: int) -> FracIdeal:
    if k < 0:
        inv = frac_invert(a)
        if inv is None:
            raise Unsupported("negative power of a non-invertible ideal")
        return frac_power(inv, -k)
    out = frac_unit(a.instance)
    base = a
    while k:
        if k & 1:
            out = frac_product(out, base)
        k >>= 1
        if k:
            base = frac_product(base, base)
    return out


def frac_invert(a: FracIdeal):
    """The inverse [S : a] when a * [S : a] = S; None otherwise."""
    if frac_is_zero(a):
        return None
    unit = frac_unit(a.instance)
    b = frac_quotient(unit, a)
    if frac_equals(frac_product(a, b), unit):
        return b
    return None


def frac_principal_generator(a: FracIdeal):
    """A K-element generating a, as (instance, canonical payload); None if none.

    K-element payloads: Fraction for gcd-like and n0, int exponent for dvs,
    (Fraction, primitive QuadIdeal) for quad5. Outside n0 they are the
    payloads of the principal fractional ideals they generate.
    """
    if frac_is_zero(a):
        return None
    if a.instance.kind == "n0":
        A, den = _split(a)
        gens = nat.minimal_generators(A.payload)
        if len(gens) != 1:
            return None
        return Fraction(gens[0], den)
    return a.payload


def k_mul(inst, x, y):
    """Multiply two K-elements in the canonical payload form."""
    if inst.kind == "n0":
        return x * y
    return frac_product(FracIdeal(inst, x), FracIdeal(inst, y)).payload


def k_one(inst):
    if inst.kind == "n0":
        return Fraction(1)
    return frac_unit(inst).payload


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
    A, d = _split(a)
    if a.instance.kind == "n0":  # the least c with c*d in A
        return (nat._scale_quotient(A.payload, d).min_nonzero(), d)
    return (A.payload, d)  # A = (c) is principal


def frac_str(a: FracIdeal) -> str:
    A, d = _split(a)
    if is_zero(A):
        return "(0)"
    kind = a.instance.kind
    if kind == "dvs":
        n = A.payload - d
        return "S" if n == 0 else f"t^{n}"
    if kind == "quad5":
        q = A.payload
        body = "O" if q.a == 1 else f"({q.a}, {q.b}+w)"
        scalar = Fraction(q.g, d.g)
        return body if scalar == 1 else f"{scalar}*{body}"
    return "I(" + ",".join(str(Fraction(g, d)) for g in generators(A)) + ")"


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


_FACTORIAL_KINDS = ("gcd", "gcd-supported", "dvs", "quad5")


def _prime_exponents(inst, x):
    """{PrimeLabel: exponent} of a nonzero element payload x."""
    if inst.kind == "dvs":
        return {PrimeLabel(inst, "t"): x}
    if inst.kind == "quad5":
        return {PrimeLabel(inst, "quad", p, b): e for (p, b), e in qi_factor(x).items()}
    return {PrimeLabel(inst, "numeric", p): e for p, e in factorint(x).items()}


def uft_factor(a: FracIdeal) -> ExponentVector:
    inst = a.instance
    if inst.kind not in _FACTORIAL_KINDS:
        raise Unsupported(f"{inst.kind} ideals do not factor into primes here")
    if frac_is_zero(a):
        raise EmptyIdeal("the zero ideal has no prime factorization")
    A, d = _split(a)  # A = (A.payload) is principal
    vec = _prime_exponents(inst, A.payload)
    for lab, e in _prime_exponents(inst, d).items():
        vec[lab] = vec.get(lab, 0) - e
    return ExponentVector.of(vec)


def uft_compose(inst, vec: ExponentVector) -> FracIdeal:
    if inst.kind not in _FACTORIAL_KINDS:
        raise Unsupported(f"{inst.kind} ideals do not factor into primes here")
    pos = neg = unit_ideal(inst)
    for lab, e in vec.items:
        if e > 0:
            pos = ideal_product(pos, ideal_power(lab.ideal(), e))
        else:
            neg = ideal_product(neg, ideal_power(lab.ideal(), -e))
    return _join(pos, neg.payload)  # neg = (neg.payload) is principal


def divisors_containing(a: Ideal):
    """All integral ideals containing a, a nonzero; sorted canonically."""
    inst = a.instance
    vec = uft_factor(frac_from_ideal(a))
    labels = [lab for lab, _ in vec.items]
    exps = [e for _, e in vec.items]
    if any(e < 0 for e in exps):
        raise InternalError("integral ideal factored with a negative exponent")
    out = []
    stack = [(0, {})]
    while stack:
        i, acc = stack.pop()
        if i == len(labels):
            out.append(to_ideal(uft_compose(inst, ExponentVector.of(acc))))
            continue
        for e in range(exps[i] + 1):
            nxt = dict(acc)
            nxt[labels[i]] = e
            stack.append((i + 1, nxt))
    if inst.kind == "quad5":
        out.sort(key=lambda d: (d.payload.norm(), d.payload.a, d.payload.b))
    else:
        out.sort(key=lambda d: d.payload)
    return out


# ---------------------------------------------------------------------------
# localization at a numeric prime (gcd family -> dvs)


def localize(inst, p, a: Ideal) -> Ideal:
    """Image of a under localization at (p), as an ideal of the dvs instance."""
    if inst.kind not in ("gcd", "gcd-supported"):
        raise Unsupported(f"localization is defined for the gcd family, not {inst.kind}")
    if not is_prime_int(p):
        raise UnknownPrime(f"{p} is not prime")
    if inst.kind == "gcd-supported" and p not in inst.support:
        raise UnknownPrime(f"{p} is not in the support {inst.support}")
    dvs = instance("dvs")
    g = a.payload
    if g == 0:
        return zero_ideal(dvs)
    e = 0
    while g % p == 0:
        g //= p
        e += 1
    return Ideal(dvs, e)


# ---------------------------------------------------------------------------
# two-generator and finite-spectrum constructions (gcd family)


def two_generators(a: Ideal, member: int):
    """Given nonzero member of nonzero a, a second generator b with a = (member, b)."""
    inst = a.instance
    if inst.kind not in ("gcd", "gcd-supported"):
        raise Unsupported(f"two-generator search runs on the gcd family, not {inst.kind}")
    g = a.payload
    if g == 0:
        raise ZeroDivisorIdeal("the zero ideal is not invertible")
    if member == 0 or member % g != 0:
        raise NotAMember(f"{member} is not a nonzero member of I({g})")
    fac = factorint(member)
    if not fac:
        b = 1
    else:
        if inst.kind == "gcd":
            aux = 2
            while aux in fac:
                aux = next_prime(aux)
        else:
            aux = next((q for q in inst.support if q not in fac), 1)
        parts = []
        for p in fac:
            piece = aux * p ** _val(g, p)
            for q in fac:
                if q != p:
                    piece *= q ** (_val(g, q) + 1)
            parts.append(piece)
        b = math.gcd(*parts)
    if not ideal_equals(ideal_from_generators(inst, [member, b]), a):
        raise InternalError("two-generator candidate failed the span check")
    return (member, b)


def _val(n, p):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def next_prime(p):
    q = p + 1
    while not is_prime_int(q):
        q += 1
    return q


def finite_spec_principal_generator(a: Ideal):
    """On gcd-supported: combine one member per complementary prime box into a
    single principal generator; returns (generator, per-prime members)."""
    inst = a.instance
    if inst.kind != "gcd-supported":
        raise Unsupported("principal generation by finite spectrum needs gcd-supported")
    g = a.payload
    if g == 0:
        raise ZeroDivisorIdeal("the zero ideal is excluded")
    members = []
    for p in inst.support:
        others = 1
        for q in inst.support:
            if q != p:
                others *= q
        members.append(g * others)
    gen = math.gcd(*members)
    if not ideal_equals(ideal_from_generators(inst, [gen]), a):
        raise InternalError("finite-spectrum generator failed the span check")
    return (gen, tuple(members))
