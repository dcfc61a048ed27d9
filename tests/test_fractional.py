"""Fractional ideals: denominator-clearing equivariance, inversion, UFT.

The binary operations are checked against the integral ideal layer (itself
oracle-tested) through the scaling laws: with a common denominator D,
(A/D) + (B/D) = (A+B)/D, (A/D)(B/D) = (AB)/D^2, (A/D) n (B/D) = (AnB)/D and
[A/D : B/D] = [A : B]. The expected payloads are constructed directly from
the canonical normal forms, not through the operations under test.
"""

import math
import random
from fractions import Fraction

import pytest

from semideal import (
    EmptyIdeal,
    ExponentVector,
    InstanceMismatch,
    NotAMember,
    NotFractional,
    OutOfSupport,
    TooLarge,
    Unsupported,
    UnknownPrime,
    ZeroDivisorIdeal,
    divisors_containing,
    finite_spec_principal_generator,
    frac_equals,
    frac_from_generators,
    frac_from_ideal,
    frac_intersect,
    frac_invert,
    frac_power,
    frac_product,
    frac_quotient,
    frac_str,
    frac_sum,
    generators,
    ideal_contains,
    ideal_equals,
    ideal_from_generators,
    ideal_intersect,
    ideal_membership,
    ideal_power,
    ideal_product,
    ideal_quotient,
    ideal_str,
    ideal_sum,
    instance,
    inversion_witness,
    is_integral,
    localize,
    sandwich,
    to_ideal,
    two_generators,
    uft_compose,
    uft_factor,
    unit_ideal,
    zero_ideal,
)
from semideal import instances
from semideal.fractional import FracIdeal, frac_is_zero, frac_unit, frac_zero, k_mul, k_one
from semideal.instances import element
from semideal.natideal import NAT_ZERO, nat_unscale
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
    """Canonical FracIdeal payload of (1/den) * integral ideal, by hand."""
    kind = inst.kind
    p = ideal_obj.payload
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
            got = frac_from_generators(inst, rats)
            assert got.payload == scaled_payload(inst, span, den), (inst.id, rats)


def test_from_generators_validation():
    with pytest.raises(NotFractional):
        frac_from_generators(GCD, [Fraction(-1, 2)])
    with pytest.raises(NotFractional):
        frac_from_generators(GCD, [Fraction(1, 2), Fraction(1, 7)], max_denominator=10)
    assert frac_from_generators(GCD, [Fraction(1, 2)], max_denominator=2).payload == Fraction(1, 2)
    with pytest.raises(Unsupported):
        frac_from_generators(DVS, [Fraction(1, 2)])
    with pytest.raises(Unsupported):
        frac_from_generators(LAG, [1])
    assert frac_is_zero(frac_from_generators(GCD, []))
    assert frac_is_zero(frac_from_generators(GCD, [0]))
    assert frac_from_generators(DVS, []).payload is None
    # gcd-supported rejects generators with primes outside the support
    with pytest.raises(Exception):
        frac_from_generators(GS, [Fraction(5, 2)])


def test_from_generators_rejects_a_denominator_outside_the_support():
    # 1/5 is no fraction of two 2,3-smooth elements, just as 5 is no element
    for rats in ([Fraction(1, 5)], [Fraction(1, 2), Fraction(1, 10)], [Fraction(3, 35)]):
        with pytest.raises(OutOfSupport):
            frac_from_generators(GS, rats)
    assert frac_from_generators(GS, [Fraction(1, 6)]).payload == Fraction(1, 6)
    assert frac_from_generators(instance("gcd-supported(2,3,5)"), [Fraction(1, 5)]).payload == Fraction(1, 5)
    assert frac_from_generators(GCD, [Fraction(1, 5)]).payload == Fraction(1, 5)


def test_binary_ops_scaling_equivariance():
    rng = random.Random(62)
    for inst in FRAC_INSTANCES:
        for _ in range(12):
            ra, rb = random_rats(inst, rng), random_rats(inst, rng)
            if inst.kind == "dvs":
                a = frac_from_generators(inst, ra)
                b = frac_from_generators(inst, rb)
                assert frac_sum(a, b).payload == min(ra + rb)
                assert frac_product(a, b).payload == min(ra) + min(rb)
                assert frac_intersect(a, b).payload == max(min(ra), min(rb))
                assert frac_quotient(a, b).payload == min(ra) - min(rb)
                continue
            den = math.lcm(*(r.denominator for r in ra + rb))
            A = ideal_from_generators(inst, [int(r * den) for r in ra])
            B = ideal_from_generators(inst, [int(r * den) for r in rb])
            a = frac_from_generators(inst, ra)
            b = frac_from_generators(inst, rb)
            assert frac_sum(a, b).payload == scaled_payload(inst, ideal_sum(A, B), den)
            assert frac_product(a, b).payload == scaled_payload(inst, ideal_product(A, B), den * den)
            assert frac_intersect(a, b).payload == scaled_payload(inst, ideal_intersect(A, B), den)
            if not frac_is_zero(b):
                got = frac_quotient(a, b)
                inv = frac_invert(b)
                if inv is not None:
                    # with b invertible, [a : b] = a * b^-1
                    assert frac_equals(got, frac_product(a, inv))
                else:
                    # n0: scale out the denominators ([a : b] = [A : B] in K),
                    # then intersect the per-generator translates (1/g) * A
                    fa = frac_from_ideal(A)
                    expect = None
                    for g in generators(B):
                        piece = frac_product(fa, frac_from_generators(inst, [Fraction(1, g)]))
                        expect = piece if expect is None else frac_intersect(expect, piece)
                    assert frac_equals(got, expect)


def test_mixed_instances_rejected():
    # gcd and gcd-supported share payloads, so only the instance check can
    # tell them apart
    a = frac_from_generators(GCD, [Fraction(3, 2)])
    b = frac_from_generators(GS, [Fraction(4, 3)])
    for op in (frac_sum, frac_product, frac_intersect, frac_quotient):
        with pytest.raises(InstanceMismatch):
            op(a, b)
        with pytest.raises(InstanceMismatch):
            op(b, a)
    with pytest.raises(InstanceMismatch):
        ideal_membership(ideal_from_generators(GCD, [2]), element(GS, 4))
    same = frac_from_generators(GS, [Fraction(3, 2)])
    assert same.payload == a.payload and not frac_equals(a, same) and not frac_equals(same, a)
    assert ideal_membership(ideal_from_generators(GCD, [2]), element(GCD, 4))


def test_quotient_by_zero_raises():
    for inst in FRAC_INSTANCES:
        with pytest.raises(ZeroDivisorIdeal):
            frac_quotient(frac_unit(inst), frac_zero(inst))


def test_integral_roundtrip():
    rng = random.Random(63)
    for inst in FRAC_INSTANCES:
        for _ in range(8):
            rats = random_rats(inst, rng)
            a = frac_from_generators(inst, rats)
            if is_integral(a):
                assert frac_equals(frac_from_ideal(to_ideal(a)), a)
            else:
                with pytest.raises(NotFractional):
                    to_ideal(a)
    half = frac_from_generators(GCD, [Fraction(1, 2)])
    assert not is_integral(half)
    assert is_integral(frac_from_generators(GCD, [Fraction(4, 2)]))
    assert is_integral(frac_zero(Q5)) and is_integral(frac_unit(N0))


def test_invert_known_values():
    a = frac_from_generators(GCD, [Fraction(84, 5)])
    inv = frac_invert(a)
    assert inv is not None and inv.payload == Fraction(5, 84)
    assert frac_equals(frac_product(a, inv), frac_unit(GCD))

    t5 = frac_from_ideal(ideal_from_generators(DVS, [5]))
    assert frac_invert(t5).payload == -5

    # n0: no nonzero non-principal ideal is invertible
    assert frac_invert(frac_from_ideal(ideal_from_generators(N0, [3, 4, 5]))) is None
    assert frac_invert(frac_from_ideal(ideal_from_generators(N0, [2, 3]))) is None
    three = frac_from_ideal(ideal_from_generators(N0, [3]))
    inv3 = frac_invert(three)
    assert inv3 is not None and inv3.payload == (3, unit_ideal(N0).payload)

    p2 = frac_from_ideal(ideal_from_generators(Q5, [QuadIdeal(1, 2, 1)]))
    invp2 = frac_invert(p2)
    assert invp2 is not None and invp2.payload == (Fraction(1, 2), QuadIdeal(1, 2, 1))
    assert frac_equals(frac_product(p2, invp2), frac_unit(Q5))

    assert frac_invert(frac_zero(GCD)) is None


def test_invert_random_group_property():
    rng = random.Random(64)
    for inst in (GCD, GS, DVS, Q5):
        for _ in range(10):
            rats = random_rats(inst, rng)
            a = frac_from_generators(inst, rats)
            if frac_is_zero(a):
                continue
            inv = frac_invert(a)
            assert inv is not None  # every nonzero fractional ideal here
            assert frac_equals(frac_product(a, inv), frac_unit(inst))
            w = inversion_witness(a)
            assert w is not None
            x, y = w
            assert k_mul(inst, x, y) == k_one(inst)


def test_power():
    rng = random.Random(65)
    for inst in FRAC_INSTANCES:
        for _ in range(5):
            a = frac_from_generators(inst, random_rats(inst, rng))
            acc = frac_unit(inst)
            for k in range(4):
                assert frac_equals(frac_power(a, k), acc)
                acc = frac_product(acc, a)
            if not frac_is_zero(a) and frac_invert(a) is not None:
                inv = frac_invert(a)
                assert frac_equals(frac_power(a, -2), frac_product(inv, inv))
    m = frac_from_ideal(ideal_from_generators(N0, [2, 3]))
    with pytest.raises(Unsupported):
        frac_power(m, -1)


# (power, base, product of two of its values, owner and name of the product
# its loop calls): frac_power and ideal_power run the kind object's one power
# loop, which multiplies with the kind's ``mul``
POWER_LOOPS = [
    pytest.param(
        frac_power, frac_from_generators(N0, [Fraction(2, 5), Fraction(3, 5)]), frac_product, N0.arith, "mul",
        id="frac-n0",
    ),
    pytest.param(
        frac_power, frac_from_generators(GCD, [Fraction(6, 5)]), frac_product, GCD.arith, "mul", id="frac-gcd"
    ),
    pytest.param(
        frac_power, frac_from_generators(Q5, [Fraction(2), Fraction(3, 2)]), frac_product, Q5.arith, "mul",
        id="frac-quad5",
    ),
    pytest.param(ideal_power, ideal_from_generators(N0, [2, 3]), ideal_product, N0.arith, "mul", id="nat-n0"),
]


@pytest.mark.parametrize("power, base, times, owner, name", POWER_LOOPS)
def test_power_squares_no_further_than_the_top_bit(monkeypatch, power, base, times, owner, name):
    product = getattr(owner, name)
    calls = []

    def counted(x, y):
        calls.append(None)
        return product(x, y)

    monkeypatch.setitem(vars(owner), name, counted)
    acc = power(base, 0)
    for k in range(10):
        calls.clear()
        value = power(base, k)
        assert len(calls) <= max(k.bit_length() - 1, 0) + bin(k).count("1")
        assert calls or k <= 1  # the loop multiplies with the counted product
        assert value == acc
        acc = times(acc, base)


def test_power_refuses_a_result_past_its_budget():
    budget = instances.MAX_POWER_BITS
    cases = [
        (ideal_power, ideal_from_generators(GCD, [2])),
        (ideal_power, ideal_from_generators(N0, [2, 4])),  # its gcd 2 is raised to the power
        (ideal_power, ideal_from_generators(Q5, [2])),
        (frac_power, frac_from_generators(GCD, [Fraction(1, 2)])),
        (frac_power, frac_from_generators(N0, [Fraction(1, 2)])),  # only the denominator grows
        (frac_power, frac_from_generators(Q5, [Fraction(3, 2)])),
    ]
    for power, a in cases:
        with pytest.raises(TooLarge):
            power(a, 10**10)
        power(a, budget // 4)  # within it: the largest size here is the quad5 norm 9 < 2^4
    # the size of a unit, a zero or a dvs exponent does not grow
    ideal_power(ideal_from_generators(GCD, [1]), 10**10)
    frac_power(frac_from_generators(N0, [0]), 10**10)
    assert ideal_power(ideal_from_generators(DVS, [3]), 10**10).payload == 3 * 10**10


def test_sandwich():
    # (c) <= a and d*a integral, with c, d element payloads
    assert sandwich(frac_from_generators(GCD, [Fraction(3, 2)])) == (3, 2)
    assert sandwich(frac_from_ideal(ideal_from_generators(DVS, [4]))) == (4, 0)
    assert sandwich(FracIdeal(DVS, -3)) == (0, 3)
    rng = random.Random(66)
    for inst in FRAC_INSTANCES:
        for _ in range(8):
            a = frac_from_generators(inst, random_rats(inst, rng))
            if frac_is_zero(a):
                with pytest.raises(EmptyIdeal):
                    sandwich(a)
                continue
            c, d = sandwich(a)
            c_span = frac_from_ideal(ideal_from_generators(inst, [c]))
            d_span = frac_from_ideal(ideal_from_generators(inst, [d]))
            assert frac_equals(frac_sum(a, c_span), a)  # (c) inside a
            assert is_integral(frac_product(d_span, a))
            assert not frac_is_zero(c_span)


def test_sandwich_n0_example():
    a = frac_from_generators(N0, [Fraction(3, 2), Fraction(2), Fraction(5, 2)])
    c, d = sandwich(a)
    assert (c, d) == (2, 2)


def test_frac_str():
    assert frac_str(frac_from_generators(GCD, [Fraction(84, 5)])) == "I(84/5)"
    assert frac_str(frac_zero(GCD)) == "(0)"
    assert frac_str(frac_unit(DVS)) == "S"
    assert frac_str(FracIdeal(DVS, -3)) == "t^-3"
    assert frac_str(frac_zero(DVS)) == "(0)"
    n0_half = frac_from_generators(N0, [Fraction(3, 2), Fraction(2), Fraction(5, 2)])
    assert frac_str(n0_half) == "I(3/2,2,5/2)"
    p2 = frac_from_ideal(ideal_from_generators(Q5, [QuadIdeal(1, 2, 1)]))
    assert frac_str(p2) == "(2, 1+w)"
    assert frac_str(frac_invert(p2)) == "1/2*(2, 1+w)"
    assert frac_str(frac_unit(Q5)) == "O"


def test_exponent_vector():
    lab2 = PrimeLabel(GCD, "numeric", 2)
    lab3 = PrimeLabel(GCD, "numeric", 3)
    v = ExponentVector.of({lab3: 1, lab2: 2})
    assert v.items == ((lab2, 2), (lab3, 1))
    assert v.text() == "2^2 * 3"
    assert ExponentVector.of({lab2: 0}).text() == "S"
    assert ExponentVector.of({}).as_dict() == {}


def test_uft_known():
    a = frac_from_generators(GCD, [Fraction(84, 5)])
    vec = uft_factor(a)
    assert vec.text() == "2^2 * 3 * 5^-1 * 7"
    assert frac_equals(uft_compose(GCD, vec), a)

    t = uft_factor(FracIdeal(DVS, -4))
    assert t.text() == "t^-4"

    six = frac_from_ideal(ideal_from_generators(Q5, [QuadIdeal(6, 1, 0)]))
    vec6 = uft_factor(six)
    assert vec6.text() == "P2^2 * P3[1] * P3[2]"
    assert frac_equals(uft_compose(Q5, vec6), six)

    with pytest.raises(Unsupported):
        uft_factor(frac_from_ideal(ideal_from_generators(N0, [2, 3])))
    with pytest.raises(EmptyIdeal):
        uft_factor(frac_zero(GCD))
    assert uft_factor(frac_unit(GCD)).items == ()


def test_uft_roundtrip_random():
    rng = random.Random(67)
    for inst in (GCD, GS, DVS, Q5):
        for _ in range(25):
            a = frac_from_generators(inst, random_rats(inst, rng))
            if frac_is_zero(a):
                continue
            vec = uft_factor(a)
            assert frac_equals(uft_compose(inst, vec), a)
            # uniqueness: recomposing in reversed label order gives the same
            rev = ExponentVector(tuple(reversed(vec.items)))
            assert frac_equals(uft_compose(inst, rev), a)


def test_uft_compose_then_factor():
    rng = random.Random(68)
    labels = {
        GCD: [PrimeLabel(GCD, "numeric", p) for p in (2, 3, 5, 7)],
        GS: [PrimeLabel(GS, "numeric", p) for p in (2, 3)],
        DVS: [PrimeLabel(DVS, "t")],
        Q5: [
            PrimeLabel(Q5, "quad", 2, 1),
            PrimeLabel(Q5, "quad", 3, 1),
            PrimeLabel(Q5, "quad", 3, 2),
            PrimeLabel(Q5, "quad", 11, None),
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
    assert divs6[0].payload == QI_ONE
    assert divs6[-1].payload == QuadIdeal(6, 1, 0)


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
    with pytest.raises(Unsupported):
        frac_from_ideal(unit_ideal(LAG))
    with pytest.raises(Unsupported):
        frac_zero(LAG)
