"""Fractional ideals over the semifield of fractions, and what they buy.

Payload conventions, one per instance kind:

  gcd / gcd-supported   nonnegative Fraction (0 means the zero ideal)
  dvs                   None (zero) or an integer exponent, possibly negative
  n0                    (den, NatIdeal) with gcd(den, content) == 1
  quad5                 (Fraction scalar, primitive QuadIdeal)

Every operation clears denominators, works integrally, and renormalizes, so
results are canonical and equality is structural. lagrassa has no semifield
of fractions to work in (it is not multiplicatively cancellative), so every
entry point rejects it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    ideal_equals,
    ideal_from_generators,
    unit_ideal,
    zero_ideal,
)
from .instances import instance
from .primes import factorint, is_prime_int
from .quadratic import (
    QI_ONE,
    QuadIdeal,
    qi_add,
    qi_conj,
    qi_divide,
    qi_factor,
    qi_mul,
    qi_pow,
)
from .spectrum import PrimeLabel


def _reject_lagrassa(inst):
    if inst.kind == "lagrassa":
        raise Unsupported("lagrassa is not multiplicatively cancellative; no fraction semifield")


@dataclass(frozen=True)
class FracIdeal:
    instance: object
    payload: object

    def __repr__(self):
        return f"FracIdeal({self.instance.id}, {frac_str(self)})"


def _norm_n0(den, nid):
    if nid == nat.NAT_ZERO:
        return (1, nat.NAT_ZERO)
    g = math.gcd(den, nid.d)
    return (den // g, nat.nat_unscale(nid, g))


def _norm_quad(scalar, q):
    if scalar == 0 or q.is_zero():
        return (Fraction(0), QI_ONE)
    return (scalar * q.g, QuadIdeal(1, q.a, q.b))


def frac_from_ideal(a: Ideal) -> FracIdeal:
    inst = a.instance
    _reject_lagrassa(inst)
    kind = inst.kind
    if kind in ("gcd", "gcd-supported"):
        return FracIdeal(inst, Fraction(a.payload))
    if kind == "dvs":
        return FracIdeal(inst, a.payload)
    if kind == "n0":
        return FracIdeal(inst, _norm_n0(1, a.payload))
    return FracIdeal(inst, _norm_quad(Fraction(1), a.payload))


def is_integral(a: FracIdeal) -> bool:
    kind = a.instance.kind
    if kind in ("gcd", "gcd-supported"):
        return a.payload.denominator == 1
    if kind == "dvs":
        return a.payload is None or a.payload >= 0
    if kind == "n0":
        return a.payload[0] == 1
    return a.payload[0].denominator == 1


def to_ideal(a: FracIdeal) -> Ideal:
    if not is_integral(a):
        raise NotFractional(f"{frac_str(a)} is not an integral ideal")
    kind = a.instance.kind
    if kind in ("gcd", "gcd-supported"):
        return Ideal(a.instance, a.payload.numerator)
    if kind == "dvs":
        return Ideal(a.instance, a.payload)
    if kind == "n0":
        return Ideal(a.instance, a.payload[1])
    scalar, prim = a.payload
    if scalar == 0:
        return zero_ideal(a.instance)
    return Ideal(a.instance, QuadIdeal(scalar.numerator, prim.a, prim.b))


def frac_zero(inst) -> FracIdeal:
    return frac_from_ideal(zero_ideal(inst))


def frac_unit(inst) -> FracIdeal:
    return frac_from_ideal(unit_ideal(inst))


def frac_is_zero(a: FracIdeal) -> bool:
    return frac_equals(a, frac_zero(a.instance))


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
    kind = inst.kind
    rats = [Fraction(r) for r in rats]
    if any(r < 0 for r in rats):
        raise NotFractional("generators must be nonnegative")
    if kind == "dvs":
        if any(r.denominator != 1 for r in rats):
            raise Unsupported("dvs generators are written t^n with integer n")
        nz = [r.numerator for r in rats]
        return FracIdeal(inst, min(nz) if nz else None)
    rats = [r for r in rats if r != 0]
    if not rats:
        return frac_zero(inst)
    den = math.lcm(*(r.denominator for r in rats))
    if max_denominator is not None and den > max_denominator:
        raise NotFractional(f"common denominator {den} exceeds bound {max_denominator}")
    scaled = [int(r * den) for r in rats]
    numerator = ideal_from_generators(inst, scaled)
    if kind in ("gcd", "gcd-supported"):
        return FracIdeal(inst, Fraction(numerator.payload, den))
    if kind == "n0":
        return FracIdeal(inst, _norm_n0(den, numerator.payload))
    q = numerator.payload
    return FracIdeal(inst, _norm_quad(Fraction(1, den), q))


def _n0_parts(a, b):
    """Clear to a common denominator, returning (den, NatIdeal, NatIdeal)."""
    da, na = a.payload
    db, nb = b.payload
    return (da * db, nat.nat_scale(na, db), nat.nat_scale(nb, da))


def frac_sum(a: FracIdeal, b: FracIdeal) -> FracIdeal:
    inst = a.instance
    kind = inst.kind
    if kind in ("gcd", "gcd-supported"):
        x, y = a.payload, b.payload
        den = x.denominator * y.denominator
        return FracIdeal(inst, Fraction(math.gcd(int(x * den), int(y * den)), den))
    if kind == "dvs":
        if a.payload is None:
            return b
        if b.payload is None:
            return a
        return FracIdeal(inst, min(a.payload, b.payload))
    if kind == "n0":
        den, na, nb = _n0_parts(a, b)
        return FracIdeal(inst, _norm_n0(den, nat.nat_sum(na, nb)))
    sa, pa = a.payload
    sb, pb = b.payload
    if sa == 0:
        return b
    if sb == 0:
        return a
    den = math.lcm(sa.denominator, sb.denominator)
    qa = QuadIdeal(int(sa * den), pa.a, pa.b)
    qb = QuadIdeal(int(sb * den), pb.a, pb.b)
    return FracIdeal(inst, _norm_quad(Fraction(1, den), qi_add(qa, qb)))


def frac_product(a: FracIdeal, b: FracIdeal) -> FracIdeal:
    inst = a.instance
    kind = inst.kind
    if kind in ("gcd", "gcd-supported"):
        return FracIdeal(inst, a.payload * b.payload)
    if kind == "dvs":
        if a.payload is None or b.payload is None:
            return FracIdeal(inst, None)
        return FracIdeal(inst, a.payload + b.payload)
    if kind == "n0":
        da, na = a.payload
        db, nb = b.payload
        return FracIdeal(inst, _norm_n0(da * db, nat.nat_product(na, nb)))
    sa, pa = a.payload
    sb, pb = b.payload
    return FracIdeal(inst, _norm_quad(sa * sb, qi_mul(pa, pb)))


def frac_intersect(a: FracIdeal, b: FracIdeal) -> FracIdeal:
    inst = a.instance
    kind = inst.kind
    if kind in ("gcd", "gcd-supported"):
        x, y = a.payload, b.payload
        if x == 0 or y == 0:
            return frac_zero(inst)
        den = math.lcm(x.denominator, y.denominator)
        return FracIdeal(inst, Fraction(math.lcm(int(x * den), int(y * den)), den))
    if kind == "dvs":
        if a.payload is None or b.payload is None:
            return FracIdeal(inst, None)
        return FracIdeal(inst, max(a.payload, b.payload))
    if kind == "n0":
        den, na, nb = _n0_parts(a, b)
        return FracIdeal(inst, _norm_n0(den, nat.nat_intersect(na, nb)))
    sa, pa = a.payload
    sb, pb = b.payload
    if sa == 0 or sb == 0:
        return frac_zero(inst)
    den = math.lcm(sa.denominator, sb.denominator)
    qa = QuadIdeal(int(sa * den), pa.a, pa.b)
    qb = QuadIdeal(int(sb * den), pb.a, pb.b)
    meet = qi_divide(qi_mul(qa, qb), qi_add(qa, qb))
    if meet is None:
        raise InternalError("intersection by product/sum division failed")
    return FracIdeal(inst, _norm_quad(Fraction(1, den), meet))


def frac_quotient(a: FracIdeal, b: FracIdeal) -> FracIdeal:
    """[a : b] inside the semifield of fractions; b must be nonzero."""
    inst = a.instance
    kind = inst.kind
    if frac_is_zero(b):
        raise ZeroDivisorIdeal("residual quotient by the zero ideal")
    if kind in ("gcd", "gcd-supported"):
        if a.payload == 0:
            return frac_zero(inst)
        return FracIdeal(inst, a.payload / b.payload)
    if kind == "dvs":
        if a.payload is None:
            return FracIdeal(inst, None)
        return FracIdeal(inst, a.payload - b.payload)
    if kind == "n0":
        den, na, nb = _n0_parts(a, b)
        if na == nat.NAT_ZERO:
            return frac_zero(inst)
        # [na : nb] over the fraction semifield: pick nonzero t in nb, then
        # x*nb <= na  iff  x*t in [t*na : nb] for x = m/t, m integral.
        t = nb.min_nonzero()
        q = nat.nat_quotient(nat.nat_scale(na, t), nb)
        return FracIdeal(inst, _norm_n0(t, q))
    sa, pa = a.payload
    sb, pb = b.payload
    if sa == 0:
        return frac_zero(inst)
    scalar = sa / (sb * pb.norm())
    return FracIdeal(inst, _norm_quad(scalar, qi_mul(pa, qi_conj(pb))))


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
    b = frac_quotient(frac_unit(a.instance), a)
    if frac_equals(frac_product(a, b), frac_unit(a.instance)):
        return b
    return None


def frac_principal_generator(a: FracIdeal):
    """A K-element generating a, as (instance, canonical payload); None if none.

    K-element payloads: Fraction for gcd-like and n0, int exponent for dvs,
    (Fraction, primitive QuadIdeal) for quad5.
    """
    kind = a.instance.kind
    if frac_is_zero(a):
        return None
    if kind in ("gcd", "gcd-supported"):
        return a.payload
    if kind == "dvs":
        return a.payload
    if kind == "n0":
        den, nid = a.payload
        gens = nat.minimal_generators(nid)
        if len(gens) != 1:
            return None
        return Fraction(gens[0], den)
    return a.payload


def k_mul(inst, x, y):
    """Multiply two K-elements in the canonical payload form."""
    if inst.kind == "dvs":
        return x + y
    if inst.kind == "quad5":
        return _norm_quad(x[0] * y[0], qi_mul(x[1], y[1]))
    return x * y


def k_one(inst):
    if inst.kind == "dvs":
        return 0
    if inst.kind == "quad5":
        return (Fraction(1), QI_ONE)
    return Fraction(1)


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
    inst = a.instance
    kind = inst.kind
    if frac_is_zero(a):
        raise EmptyIdeal("the zero ideal has no nonzero member to sandwich")
    if kind in ("gcd", "gcd-supported"):
        return (a.payload.numerator, a.payload.denominator)
    if kind == "dvs":
        n = a.payload
        return (max(n, 0), max(-n, 0))
    if kind == "n0":
        den, nid = a.payload
        integral_part = nat._scale_quotient(nid, den)
        return (integral_part.min_nonzero(), den)
    scalar, prim = a.payload
    c = QuadIdeal(scalar.numerator, prim.a, prim.b)
    return (c, QuadIdeal(scalar.denominator, 1, 0))


def frac_str(a: FracIdeal) -> str:
    kind = a.instance.kind
    if kind in ("gcd", "gcd-supported"):
        q = a.payload
        if q == 0:
            return "(0)"
        return f"I({q})"
    if kind == "dvs":
        n = a.payload
        if n is None:
            return "(0)"
        if n == 0:
            return "S"
        return f"t^{n}"
    if kind == "n0":
        den, nid = a.payload
        if nid == nat.NAT_ZERO:
            return "(0)"
        gens = nat.minimal_generators(nid)
        parts = [str(Fraction(g, den)) for g in gens]
        return "I(" + ",".join(parts) + ")"
    scalar, prim = a.payload
    if scalar == 0:
        return "(0)"
    body = "O" if (prim.a, prim.b) == (1, 0) else f"({prim.a}, {prim.b}+w)"
    if scalar == 1:
        return body
    return f"{scalar}*{body}"


# ---------------------------------------------------------------------------
# unique factorization into primes


@dataclass(frozen=True)
class ExponentVector:
    items: tuple  # ((PrimeLabel, int), ...) sorted, all exponents nonzero

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


def uft_factor(a: FracIdeal) -> ExponentVector:
    inst = a.instance
    if inst.kind not in _FACTORIAL_KINDS:
        raise Unsupported(f"{inst.kind} ideals do not factor into primes here")
    if frac_is_zero(a):
        raise EmptyIdeal("the zero ideal has no prime factorization")
    if inst.kind in ("gcd", "gcd-supported"):
        q = a.payload
        vec = {}
        for p, e in factorint(q.numerator).items():
            vec[PrimeLabel(inst, "numeric", p)] = e
        for p, e in factorint(q.denominator).items():
            lab = PrimeLabel(inst, "numeric", p)
            vec[lab] = vec.get(lab, 0) - e
        return ExponentVector.of(vec)
    if inst.kind == "dvs":
        return ExponentVector.of({PrimeLabel(inst, "t"): a.payload})
    scalar, prim = a.payload
    num = QuadIdeal(scalar.numerator, prim.a, prim.b)
    vec = {}
    for (p, b), e in qi_factor(num).items():
        vec[PrimeLabel(inst, "quad", p, b)] = e
    for (p, b), e in qi_factor(QuadIdeal(scalar.denominator, 1, 0)).items():
        lab = PrimeLabel(inst, "quad", p, b)
        vec[lab] = vec.get(lab, 0) - e
    return ExponentVector.of(vec)


def uft_compose(inst, vec: ExponentVector) -> FracIdeal:
    if inst.kind not in _FACTORIAL_KINDS:
        raise Unsupported(f"{inst.kind} ideals do not factor into primes here")
    if inst.kind in ("gcd", "gcd-supported"):
        q = Fraction(1)
        for lab, e in vec.items:
            q *= Fraction(lab.p) ** e
        return FracIdeal(inst, q)
    if inst.kind == "dvs":
        total = sum(e for _, e in vec.items)
        return FracIdeal(inst, total)
    pos = QI_ONE
    neg = QI_ONE
    for lab, e in vec.items:
        q = lab.ideal().payload
        if e > 0:
            pos = qi_mul(pos, qi_pow(q, e))
        else:
            neg = qi_mul(neg, qi_pow(q, -e))
    scalar = Fraction(1, neg.norm())
    return FracIdeal(inst, _norm_quad(scalar, qi_mul(pos, qi_conj(neg))))


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
    if inst.kind in ("gcd", "gcd-supported"):
        out.sort(key=lambda d: d.payload)
    elif inst.kind == "dvs":
        out.sort(key=lambda d: d.payload)
    else:
        out.sort(key=lambda d: (d.payload.norm(), d.payload.a, d.payload.b))
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
