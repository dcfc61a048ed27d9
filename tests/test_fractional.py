"""Fractional ideals: denominator-clearing equivariance, inversion, UFT.

The binary operations on ideals spanned by rationals are checked against the
same operations on integral ideals (themselves oracle-tested) through the
scaling laws: with a common denominator D, (A/D) + (B/D) = (A+B)/D,
(A/D)(B/D) = (AB)/D^2, (A/D) n (B/D) = (AnB)/D and [A/D : B/D] = [A : B].
The expected payloads are constructed directly from the canonical normal
forms, not through the operations under test.
"""

import math
import random
from fractions import Fraction

import pytest

from semideal import (
    EmptyIdeal,
    ExponentVector,
    Ideal,
    InstanceMismatch,
    InternalError,
    NotAMember,
    NotFractional,
    OutOfSupport,
    TooLarge,
    Unsupported,
    UnknownPrime,
    ZeroDivisorIdeal,
    divides,
    divisors_containing,
    finite_spec_principal_generator,
    generators,
    ideal_contains,
    ideal_equals,
    ideal_from_generators,
    ideal_intersect,
    ideal_invert,
    ideal_membership,
    ideal_power,
    ideal_product,
    ideal_quotient,
    ideal_str,
    ideal_sum,
    instance,
    inversion_witness,
    is_integral,
    is_maximal,
    is_prime,
    is_subtractive,
    is_zero,
    localize,
    min_nonzero,
    sandwich,
    search_between,
    separating_member,
    two_generators,
    uft_compose,
    uft_factor,
    unit_ideal,
    zero_ideal,
)
from semideal import instances
from semideal.instances import element
from semideal.natideal import NAT_FULL, NAT_ZERO, nat_unscale
from semideal.quadratic import QI_ONE, QuadIdeal
from semideal.spectrum import PrimeLabel
from oracles import valuation

N0 = instance("n0")
GCD = instance("gcd")
GS = instance("gcd-supported(2,3)")
DVS = instance("dvs")
LAG = instance("lagrassa")
Q5 = instance("quad5")

FRAC_INSTANCES = (N0, GCD, GS, DVS, Q5)


def scaled_payload(inst, ideal_obj, den):
    """Canonical payload of (1/den) * integral ideal, by hand."""
    kind = inst.kind
    p = inst.split(ideal_obj.payload)[0]
    if kind in ("gcd", "gcd-supported"):
        return Fraction(p, den)
    if kind == "dvs":
        return p  # dvs fractions shift exponents; den is always 1 here
    if kind == "n0":
        if p == NAT_ZERO:
            return (1, NAT_ZERO)
        g = math.gcd(den, p.d)
        return (den // g, nat_unscale(p, g))
    if p.is_zero():
        return (Fraction(0), QI_ONE)
    return (Fraction(p.g, den), QuadIdeal(1, p.a, p.b))


def random_rats(inst, rng):
    if inst.kind == "dvs":
        return [rng.randint(0, 9) for _ in range(rng.randint(1, 2))]
    nums = {"n0": 9, "gcd": 60, "gcd-supported": 48, "quad5": 20}[inst.kind]
    dens = (1, 2, 3, 4, 6)
    out = []
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(0, nums)
        if inst.kind == "gcd-supported":
            while not all(f in (2, 3) for f in _factors(n)):
                n = rng.randint(0, nums)
        out.append(Fraction(n, rng.choice(dens)))
    return out


def _factors(n):
    out = []
    d = 2
    while n > 1 and d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_from_generators_matches_cleared_span():
    rng = random.Random(61)
    for inst in FRAC_INSTANCES:
        if inst.kind == "dvs":
            continue
        for _ in range(12):
            rats = random_rats(inst, rng)
            den = math.lcm(*(r.denominator for r in rats))
            span = ideal_from_generators(inst, [int(r * den) for r in rats])
            got = ideal_from_generators(inst, rats)
            assert got.payload == scaled_payload(inst, span, den), (inst.id, rats)


def test_from_generators_validation():
    with pytest.raises(NotFractional):
        ideal_from_generators(GCD, [Fraction(-1, 2)])
    assert ideal_from_generators(GCD, [Fraction(1, 2), Fraction(1, 7)]).payload == Fraction(1, 14)
    with pytest.raises(Unsupported):
        ideal_from_generators(DVS, [Fraction(1, 2)])
    with pytest.raises(Unsupported):
        ideal_from_generators(LAG, [Fraction(1)])
    # element payloads, Elements and rationals span one ideal together
    assert ideal_from_generators(GCD, [element(GCD, 3), 6, Fraction(3, 2)]).payload == Fraction(3, 2)
    assert ideal_from_generators(N0, [3, Fraction(5, 2)]) == ideal_from_generators(N0, [Fraction(6, 2), Fraction(5, 2)])
    assert is_zero(ideal_from_generators(GCD, []))
    assert is_zero(ideal_from_generators(GCD, [0]))
    assert ideal_from_generators(DVS, []).payload is None
    # gcd-supported rejects generators with primes outside the support
    with pytest.raises(Exception):
        ideal_from_generators(GS, [Fraction(5, 2)])


def test_from_generators_rejects_a_denominator_outside_the_support():
    # 1/5 is no fraction of two 2,3-smooth elements, just as 5 is no element
    for rats in ([Fraction(1, 5)], [Fraction(1, 2), Fraction(1, 10)], [Fraction(3, 35)]):
        with pytest.raises(OutOfSupport):
            ideal_from_generators(GS, rats)
    assert ideal_from_generators(GS, [Fraction(1, 6)]).payload == Fraction(1, 6)
    assert ideal_from_generators(instance("gcd-supported(2,3,5)"), [Fraction(1, 5)]).payload == Fraction(1, 5)
    assert ideal_from_generators(GCD, [Fraction(1, 5)]).payload == Fraction(1, 5)


def test_binary_ops_scaling_equivariance():
    rng = random.Random(62)
    for inst in FRAC_INSTANCES:
        for _ in range(12):
            ra, rb = random_rats(inst, rng), random_rats(inst, rng)
            if inst.kind == "dvs":
                a = ideal_from_generators(inst, ra)
                b = ideal_from_generators(inst, rb)
                assert ideal_sum(a, b).payload == min(ra + rb)
                assert ideal_product(a, b).payload == min(ra) + min(rb)
                assert ideal_intersect(a, b).payload == max(min(ra), min(rb))
                assert ideal_quotient(a, b).payload == min(ra) - min(rb)
                continue
            den = math.lcm(*(r.denominator for r in ra + rb))
            A = ideal_from_generators(inst, [int(r * den) for r in ra])
            B = ideal_from_generators(inst, [int(r * den) for r in rb])
            a = ideal_from_generators(inst, ra)
            b = ideal_from_generators(inst, rb)
            assert ideal_sum(a, b).payload == scaled_payload(inst, ideal_sum(A, B), den)
            assert ideal_product(a, b).payload == scaled_payload(inst, ideal_product(A, B), den * den)
            assert ideal_intersect(a, b).payload == scaled_payload(inst, ideal_intersect(A, B), den)
            if not is_zero(b):
                got = ideal_quotient(a, b)
                inv = ideal_invert(b)
                if inv is not None:
                    # with b invertible, [a : b] = a * b^-1
                    assert ideal_equals(got, ideal_product(a, inv))
                else:
                    # n0: scale out the denominators ([a : b] = [A : B] in K),
                    # then intersect the per-generator translates (1/g) * A
                    fa = A
                    expect = None
                    for g in generators(B):
                        piece = ideal_product(fa, ideal_from_generators(inst, [Fraction(1, g)]))
                        expect = piece if expect is None else ideal_intersect(expect, piece)
                    assert ideal_equals(got, expect)


def test_mixed_instances_rejected():
    # gcd and gcd-supported share payloads, so only the instance check can
    # tell them apart
    a = ideal_from_generators(GCD, [Fraction(3, 2)])
    b = ideal_from_generators(GS, [Fraction(4, 3)])
    for op in (ideal_sum, ideal_product, ideal_intersect, ideal_quotient, ideal_contains, ideal_equals):
        with pytest.raises(InstanceMismatch):
            op(a, b)
        with pytest.raises(InstanceMismatch):
            op(b, a)
    with pytest.raises(InstanceMismatch):
        ideal_membership(ideal_from_generators(GCD, [2]), element(GS, 4))
    # equal payloads on two instances are not one ideal: equality refuses them too
    same = ideal_from_generators(GS, [Fraction(3, 2)])
    assert same.payload == a.payload and same != a
    for x, y in ((a, same), (same, a)):
        with pytest.raises(InstanceMismatch):
            ideal_equals(x, y)
    assert ideal_membership(ideal_from_generators(GCD, [2]), element(GCD, 4))


# every operation that needs an integral ideal, as a function of a
# fractional ideal h and the unit ideal u of its instance
INTEGRAL_ONLY = {
    "generators": lambda h, u: generators(h),
    "ideal_membership": lambda h, u: ideal_membership(h, 1),
    "divides": lambda h, u: divides(h, u),
    "divides(dividend)": lambda h, u: divides(u, h),
    "separating_member": lambda h, u: separating_member(h, u),
    "separating_member(big)": lambda h, u: separating_member(u, h),
    "search_between": lambda h, u: search_between(h),
    "is_prime": lambda h, u: is_prime(h),
    "is_maximal": lambda h, u: is_maximal(h),
    "is_subtractive": lambda h, u: is_subtractive(h),
    "min_nonzero": lambda h, u: min_nonzero(h),
    "two_generators": lambda h, u: two_generators(h, 1),
    "localize": lambda h, u: localize(h.instance, 2, h),
    "divisors_containing": lambda h, u: divisors_containing(h),
    "finite_spec_principal_generator": lambda h, u: finite_spec_principal_generator(h),
}


@pytest.mark.parametrize("name", list(INTEGRAL_ONLY))
def test_integral_only_operations_refuse_a_fraction_by_name(name):
    # each raises NotFractional before anything else: never an AttributeError,
    # a TypeError or an InternalError from a payload it cannot read
    halves = [ideal_from_generators(inst, [Fraction(1, 2)]) for inst in (GCD, GS, N0, Q5)]
    halves.append(ideal_power(ideal_from_generators(DVS, [1]), -1))  # t^-1
    for h in halves:
        with pytest.raises(NotFractional, match=r" is not an integral ideal$"):
            INTEGRAL_ONLY[name](h, unit_ideal(h.instance))


def test_quotient_by_zero_raises():
    for inst in FRAC_INSTANCES:
        with pytest.raises(ZeroDivisorIdeal):
            ideal_quotient(unit_ideal(inst), zero_ideal(inst))


def test_integral_roundtrip():
    rng = random.Random(63)
    for inst in FRAC_INSTANCES:
        for _ in range(8):
            rats = random_rats(inst, rng)
            a = ideal_from_generators(inst, rats)
            if is_integral(a):
                assert ideal_equals(ideal_from_generators(inst, generators(a)), a)
            else:
                with pytest.raises(NotFractional, match="is not an integral ideal"):
                    generators(a)
    half = ideal_from_generators(GCD, [Fraction(1, 2)])
    assert not is_integral(half)
    assert is_integral(ideal_from_generators(GCD, [Fraction(4, 2)]))
    assert is_integral(zero_ideal(Q5)) and is_integral(unit_ideal(N0))


def test_invert_known_values():
    a = ideal_from_generators(GCD, [Fraction(84, 5)])
    inv = ideal_invert(a)
    assert inv is not None and inv.payload == Fraction(5, 84)
    assert ideal_equals(ideal_product(a, inv), unit_ideal(GCD))

    t5 = ideal_from_generators(DVS, [5])
    assert ideal_invert(t5).payload == -5

    # n0: no nonzero non-principal ideal is invertible
    assert ideal_invert(ideal_from_generators(N0, [3, 4, 5])) is None
    assert ideal_invert(ideal_from_generators(N0, [2, 3])) is None
    three = ideal_from_generators(N0, [3])
    inv3 = ideal_invert(three)
    assert inv3 is not None and inv3.payload == (3, NAT_FULL)

    p2 = ideal_from_generators(Q5, [QuadIdeal(1, 2, 1)])
    invp2 = ideal_invert(p2)
    assert invp2 is not None and invp2.payload == (Fraction(1, 2), QuadIdeal(1, 2, 1))
    assert ideal_equals(ideal_product(p2, invp2), unit_ideal(Q5))

    assert ideal_invert(zero_ideal(GCD)) is None


def test_invert_random_group_property():
    rng = random.Random(64)
    for inst in (GCD, GS, DVS, Q5):
        for _ in range(10):
            rats = random_rats(inst, rng)
            a = ideal_from_generators(inst, rats)
            if is_zero(a):
                continue
            inv = ideal_invert(a)
            assert inv is not None  # every nonzero fractional ideal here
            assert ideal_equals(ideal_product(a, inv), unit_ideal(inst))
            w = inversion_witness(a)
            assert w is not None
            x, y = w
            assert inst.k_mul(x, y) == inst.k_one()


def test_inversion_witness_certificate_is_checked(monkeypatch):
    # a k_mul that multiplies by y twice gives x*y*y, which is 1 only when y
    # is; the witness of a = (6/5) is x = 6/5, y = 5/6, so the certificate
    # must refuse it, and the witness stands again without the fault
    a = ideal_from_generators(GCD, [Fraction(6, 5)])
    assert inversion_witness(a) == (Fraction(6, 5), Fraction(5, 6))
    real = GCD.k_mul
    monkeypatch.setattr(GCD, "k_mul", lambda x, y: real(x, real(y, y)))
    with pytest.raises(InternalError, match="^inversion witness does not multiply to 1$"):
        inversion_witness(a)
    assert inversion_witness(ideal_from_generators(GCD, [1])) == (Fraction(1), Fraction(1))  # 1*1*1 = 1
    monkeypatch.undo()
    assert inversion_witness(a) == (Fraction(6, 5), Fraction(5, 6))


def test_power():
    rng = random.Random(65)
    for inst in FRAC_INSTANCES:
        for _ in range(5):
            a = ideal_from_generators(inst, random_rats(inst, rng))
            acc = unit_ideal(inst)
            for k in range(4):
                assert ideal_equals(ideal_power(a, k), acc)
                acc = ideal_product(acc, a)
            if not is_zero(a) and ideal_invert(a) is not None:
                inv = ideal_invert(a)
                assert ideal_equals(ideal_power(a, -2), ideal_product(inv, inv))
    m = ideal_from_generators(N0, [2, 3])
    with pytest.raises(Unsupported):
        ideal_power(m, -1)


# (base, owner and name of the product its loop calls): ideal_power runs the
# kind object's one power loop on the numerator, which multiplies with the
# kind's ``mul``
POWER_LOOPS = [
    pytest.param(ideal_from_generators(N0, [Fraction(2, 5), Fraction(3, 5)]), N0, "mul", id="frac-n0"),
    pytest.param(ideal_from_generators(GCD, [Fraction(6, 5)]), GCD, "mul", id="frac-gcd"),
    pytest.param(ideal_from_generators(Q5, [Fraction(2), Fraction(3, 2)]), Q5, "mul", id="frac-quad5"),
    pytest.param(ideal_from_generators(N0, [2, 3]), N0, "mul", id="nat-n0"),
]


@pytest.mark.parametrize("base, owner, name", POWER_LOOPS)
def test_power_squares_no_further_than_the_top_bit(monkeypatch, base, owner, name):
    product = getattr(owner, name)
    calls = []

    def counted(x, y):
        calls.append(None)
        return product(x, y)

    monkeypatch.setitem(vars(owner), name, counted)
    acc = ideal_power(base, 0)
    for k in range(10):
        calls.clear()
        value = ideal_power(base, k)
        assert len(calls) <= max(k.bit_length() - 1, 0) + bin(k).count("1")
        assert calls or k <= 1  # the loop multiplies with the counted product
        assert value == acc
        acc = ideal_product(acc, base)


def test_power_refuses_a_result_past_its_budget():
    budget = instances.MAX_POWER_BITS
    cases = [
        ideal_from_generators(GCD, [2]),
        ideal_from_generators(N0, [2, 4]),  # its gcd 2 is raised to the power
        ideal_from_generators(Q5, [2]),
        ideal_from_generators(GCD, [Fraction(1, 2)]),
        ideal_from_generators(N0, [Fraction(1, 2)]),  # only the denominator grows
        ideal_from_generators(Q5, [Fraction(3, 2)]),
    ]
    for a in cases:
        with pytest.raises(TooLarge):
            ideal_power(a, 10**10)
        ideal_power(a, budget // 4)  # within it: the largest size here is the quad5 norm 9 < 2^4
    # the size of a unit, a zero or a dvs exponent does not grow
    ideal_power(ideal_from_generators(GCD, [1]), 10**10)
    ideal_power(ideal_from_generators(N0, [0]), 10**10)
    assert ideal_power(ideal_from_generators(DVS, [3]), 10**10).payload == 3 * 10**10


def test_sandwich():
    # (c) <= a and d*a integral, with c, d element payloads
    assert sandwich(ideal_from_generators(GCD, [Fraction(3, 2)])) == (3, 2)
    assert sandwich(ideal_from_generators(DVS, [4])) == (4, 0)
    assert sandwich(Ideal(DVS, -3)) == (0, 3)
    rng = random.Random(66)
    for inst in FRAC_INSTANCES:
        for _ in range(8):
            a = ideal_from_generators(inst, random_rats(inst, rng))
            if is_zero(a):
                with pytest.raises(EmptyIdeal):
                    sandwich(a)
                continue
            c, d = sandwich(a)
            c_span = ideal_from_generators(inst, [c])
            d_span = ideal_from_generators(inst, [d])
            assert ideal_equals(ideal_sum(a, c_span), a)  # (c) inside a
            assert is_integral(ideal_product(d_span, a))
            assert not is_zero(c_span)


def test_sandwich_n0_example():
    a = ideal_from_generators(N0, [Fraction(3, 2), Fraction(2), Fraction(5, 2)])
    c, d = sandwich(a)
    assert (c, d) == (2, 2)


def test_frac_str():
    assert ideal_str(ideal_from_generators(GCD, [Fraction(84, 5)])) == "I(84/5)"
    assert ideal_str(zero_ideal(GCD)) == "(0)"
    assert ideal_str(unit_ideal(DVS)) == "S"
    assert ideal_str(Ideal(DVS, -3)) == "t^-3"
    assert ideal_str(zero_ideal(DVS)) == "(0)"
    n0_half = ideal_from_generators(N0, [Fraction(3, 2), Fraction(2), Fraction(5, 2)])
    assert ideal_str(n0_half) == "I(3/2,2,5/2)"
    p2 = ideal_from_generators(Q5, [QuadIdeal(1, 2, 1)])
    assert ideal_str(p2) == "(2, 1+w)"
    assert ideal_str(ideal_invert(p2)) == "1/2*(2, 1+w)"
    assert ideal_str(unit_ideal(Q5)) == "O"


def test_exponent_vector():
    lab2 = PrimeLabel(GCD, 2)
    lab3 = PrimeLabel(GCD, 3)
    v = ExponentVector.of({lab3: 1, lab2: 2})
    assert v.items == ((lab2, 2), (lab3, 1))
    assert v.text() == "2^2 * 3"
    assert ExponentVector.of({lab2: 0}).text() == "S"
    assert ExponentVector.of({}).as_dict() == {}


def test_uft_known():
    a = ideal_from_generators(GCD, [Fraction(84, 5)])
    vec = uft_factor(a)
    assert vec.text() == "2^2 * 3 * 5^-1 * 7"
    assert ideal_equals(uft_compose(GCD, vec), a)

    t = uft_factor(Ideal(DVS, -4))
    assert t.text() == "t^-4"

    six = ideal_from_generators(Q5, [QuadIdeal(6, 1, 0)])
    vec6 = uft_factor(six)
    assert vec6.text() == "P2^2 * P3[1] * P3[2]"
    assert ideal_equals(uft_compose(Q5, vec6), six)

    with pytest.raises(Unsupported):
        uft_factor(ideal_from_generators(N0, [2, 3]))
    with pytest.raises(EmptyIdeal):
        uft_factor(zero_ideal(GCD))
    assert uft_factor(unit_ideal(GCD)).items == ()


def test_uft_roundtrip_random():
    rng = random.Random(67)
    for inst in (GCD, GS, DVS, Q5):
        for _ in range(25):
            a = ideal_from_generators(inst, random_rats(inst, rng))
            if is_zero(a):
                continue
            vec = uft_factor(a)
            assert ideal_equals(uft_compose(inst, vec), a)
            # uniqueness: recomposing in reversed label order gives the same
            rev = ExponentVector(tuple(reversed(vec.items)))
            assert ideal_equals(uft_compose(inst, rev), a)


def test_uft_compose_then_factor():
    rng = random.Random(68)
    labels = {
        GCD: [PrimeLabel(GCD, p) for p in (2, 3, 5, 7)],
        GS: [PrimeLabel(GS, p) for p in (2, 3)],
        DVS: [PrimeLabel(DVS)],
        Q5: [
            PrimeLabel(Q5, 2, 1),
            PrimeLabel(Q5, 3, 1),
            PrimeLabel(Q5, 3, 2),
            PrimeLabel(Q5, 11, None),
        ],
    }
    for inst, labs in labels.items():
        for _ in range(15):
            vec = ExponentVector.of({lab: rng.randint(-4, 4) for lab in labs})
            a = uft_compose(inst, vec)
            assert uft_factor(a) == vec


def test_divisors_containing():
    twelve = ideal_from_generators(GCD, [12])
    divs = divisors_containing(twelve)
    assert [d.payload for d in divs] == [1, 2, 3, 4, 6, 12]
    for d in divs:
        assert ideal_contains(d, twelve)

    t3 = ideal_from_generators(DVS, [3])
    assert [d.payload for d in divisors_containing(t3)] == [0, 1, 2, 3]

    six = ideal_from_generators(Q5, [QuadIdeal(6, 1, 0)])
    divs6 = divisors_containing(six)
    assert len(divs6) == 12  # p2^2 * p3 * p3' has 3*2*2 divisors
    assert len({d.payload for d in divs6}) == 12
    for d in divs6:
        assert ideal_contains(d, six)
    assert generators(divs6[0]) == (QI_ONE,)
    assert generators(divs6[-1]) == (QuadIdeal(6, 1, 0),)


def test_localize():
    assert localize(GCD, 3, ideal_from_generators(GCD, [18])).payload == 2
    assert localize(GCD, 2, ideal_from_generators(GCD, [18])).payload == 1
    assert localize(GCD, 5, ideal_from_generators(GCD, [18])).payload == 0
    assert localize(GCD, 3, zero_ideal(GCD)).payload is None
    assert localize(GS, 2, ideal_from_generators(GS, [24])).payload == 3
    with pytest.raises(UnknownPrime):
        localize(GCD, 6, ideal_from_generators(GCD, [18]))
    with pytest.raises(UnknownPrime):
        localize(GS, 5, ideal_from_generators(GS, [18]))
    with pytest.raises(Unsupported):
        localize(N0, 3, ideal_from_generators(N0, [2, 3]))
    rng = random.Random(69)
    for _ in range(60):
        g, h = rng.randint(1, 10**5), rng.randint(1, 10**5)
        p = rng.choice((2, 3, 5))
        A, B = ideal_from_generators(GCD, [g]), ideal_from_generators(GCD, [h])
        assert localize(GCD, p, A).payload == valuation(g, p)
        prod = localize(GCD, p, ideal_product(A, B)).payload
        assert prod == localize(GCD, p, A).payload + localize(GCD, p, B).payload


def test_localize_refuses_an_ideal_of_another_instance():
    # a gcd-supported payload reads as a gcd one, so only the instance check
    # tells them apart; n0 and quad5 payloads would reach primes.valuation
    for other in (ideal_from_generators(GS, [12]), ideal_from_generators(N0, [2, 3]), ideal_from_generators(Q5, [6])):
        with pytest.raises(InstanceMismatch):
            localize(GCD, 2, other)
    with pytest.raises(InstanceMismatch):
        localize(GS, 2, ideal_from_generators(GCD, [12]))


def test_two_generators():
    a = ideal_from_generators(GCD, [12])
    m, b = two_generators(a, 24)
    assert (m, b) == (24, 60)
    assert ideal_equals(ideal_from_generators(GCD, [m, b]), a)

    rng = random.Random(70)
    for inst in (GCD, GS):
        for _ in range(25):
            if inst.kind == "gcd":
                g = rng.randint(1, 5000)
            else:
                g = 2 ** rng.randint(0, 6) * 3 ** rng.randint(0, 6)
            a = ideal_from_generators(inst, [g])
            if inst.kind == "gcd":
                member = g * rng.randint(1, 50)
            else:
                member = g * 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 3)
            m, b = two_generators(a, member)
            assert m == member
            assert ideal_equals(ideal_from_generators(inst, [m, b]), a)

    with pytest.raises(NotAMember):
        two_generators(a, 0)
    with pytest.raises(NotAMember):
        two_generators(a, 18)
    with pytest.raises(ZeroDivisorIdeal):
        two_generators(zero_ideal(GCD), 5)
    with pytest.raises(Unsupported):
        two_generators(ideal_from_generators(DVS, [2]), 3)


def test_finite_spec_principal_generator():
    a = ideal_from_generators(GS, [12])
    gen, members = finite_spec_principal_generator(a)
    assert gen == 12 and members == (36, 24)
    assert math.gcd(*members) == gen
    for m in members:
        assert m % gen == 0
    with pytest.raises(Unsupported):
        finite_spec_principal_generator(ideal_from_generators(GCD, [12]))
    with pytest.raises(ZeroDivisorIdeal):
        finite_spec_principal_generator(zero_ideal(GS))
    rng = random.Random(71)
    gs5 = instance("gcd-supported(2,3,5)")
    for _ in range(15):
        g = 2 ** rng.randint(0, 4) * 3 ** rng.randint(0, 4) * 5 ** rng.randint(0, 3)
        gen, members = finite_spec_principal_generator(ideal_from_generators(gs5, [g]))
        assert gen == g and len(members) == 3


def test_lagrassa_rejected_everywhere():
    # lagrassa has no semifield of fractions: no rational generator, no
    # factorization, no localization; its ideals are integral and invert only
    # when they are the unit
    for rats in ([Fraction(0)], [Fraction(1)], [Fraction(1, 2)], ["u", Fraction(1)]):
        with pytest.raises(Unsupported, match="no fraction semifield"):
            ideal_from_generators(LAG, rats)
    u, full = ideal_from_generators(LAG, ["u"]), unit_ideal(LAG)
    for fn in (uft_factor, divisors_containing, lambda a: localize(LAG, 2, a)):
        with pytest.raises(Unsupported):
            fn(u)
    assert is_integral(u) and ideal_invert(u) is None and ideal_invert(full) == full
    assert sandwich(u) == ("u", "1") and sandwich(full) == ("1", "1")
    assert inversion_witness(full) is None
