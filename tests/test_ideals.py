"""Instance-tagged ideal operations against a windowed member-set oracle.

The oracle closes a generator set under the element tables inside a finite
universe window. The windows are chosen so that every true member inside the
window is reachable without leaving it: additions never grow past their
operands (except in n0, where members are only ever built from smaller ones),
and a windowed member is always a single product of a generator with a
windowed element.
"""

import random
from fractions import Fraction

import pytest

from semideal import (
    InstanceMismatch,
    NotMaximal,
    SemidealError,
    Unsupported,
    ZeroDivisorIdeal,
    divides,
    element,
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
    is_maximal,
    is_prime,
    is_subtractive,
    is_zero,
    min_nonzero,
    search_between,
    separating_member,
    unit_ideal,
    zero_ideal,
)
from semideal.errors import InvalidInput
from semideal.instances import zero as element_zero
from semideal.quadratic import QuadIdeal
from oracles import finite_ideals

N0 = instance("n0")
GCD = instance("gcd")
GS = instance("gcd-supported(2,3)")
DVS = instance("dvs")
LAG = instance("lagrassa")
Q5 = instance("quad5")

ALL = [N0, GCD, GS, DVS, LAG, Q5]

UNIVERSE_BOUND = {"n0": 40, "gcd": 40, "gcd-supported": 48, "dvs": 10, "lagrassa": 3, "quad5": 12}


def universe(inst):
    return inst.elements(UNIVERSE_BOUND[inst.kind])


def closure(inst, gens):
    """Members of the ideal generated by gens, within the universe window."""
    uni = set(universe(inst))
    s = {element_zero(inst).payload} | set(gens)
    changed = True
    while changed:
        changed = False
        snapshot = list(s)
        for x in snapshot:
            for y in snapshot:
                v = inst.eadd(x, y)
                if v in uni and v not in s:
                    s.add(v)
                    changed = True
            for u in uni:
                v = inst.emul(x, u)
                if v in uni and v not in s:
                    s.add(v)
                    changed = True
    return s


def member_window(i):
    return {p for p in universe(i.instance) if ideal_membership(i, p)}


SMALL_BOUND = {"n0": 10, "gcd": 12, "gcd-supported": 12, "dvs": 6, "lagrassa": 3, "quad5": 6}


def gen_pool(inst, rng, small=False):
    # small pools keep n0 powers/products representable: the gap list of a
    # numeric semigroup grows quadratically in its generators
    pool = inst.elements(SMALL_BOUND[inst.kind]) if small else universe(inst)
    k = rng.randint(1, 2 if inst.kind == "quad5" else 3)
    return [rng.choice(pool) for _ in range(k)]


def test_zero_unit_shapes():
    for inst in ALL:
        z, u = zero_ideal(inst), unit_ideal(inst)
        assert is_zero(z) and not is_zero(u)
        assert ideal_contains(u, z)
        assert member_window(z) == {element_zero(inst).payload}
        assert member_window(u) == set(universe(inst))


def test_from_generators_matches_closure_oracle():
    rng = random.Random(314)
    for inst in ALL:
        for _ in range(8):
            gens = gen_pool(inst, rng)
            i = ideal_from_generators(inst, gens)
            assert member_window(i) == closure(inst, gens), (inst.id, gens)


def test_ops_match_closure_oracle():
    rng = random.Random(2718)
    for inst in ALL:
        for _ in range(8):
            ga, gb = gen_pool(inst, rng), gen_pool(inst, rng)
            a = ideal_from_generators(inst, ga)
            b = ideal_from_generators(inst, gb)
            ma, mb = member_window(a), member_window(b)
            uni = set(universe(inst))

            assert member_window(ideal_sum(a, b)) == closure(inst, list(ma | mb))

            prods = [inst.emul(x, y) for x in ga for y in gb]
            # the product window is exact when all generator products fit
            if all(p in uni for p in prods):
                assert member_window(ideal_product(a, b)) == closure(inst, prods)

            assert member_window(ideal_intersect(a, b)) == ma & mb

            if not is_zero(b):
                # the integral residual [a : b] n S: x is in it iff x*g lies
                # in a for every generator g of b
                q = ideal_intersect(ideal_quotient(a, b), unit_ideal(inst))
                expect = {
                    x
                    for x in universe(inst)
                    if all(ideal_membership(a, inst.emul(x, g)) for g in gb)
                }
                assert member_window(q) == expect


def test_contains_equals_and_membership():
    rng = random.Random(99)
    for inst in ALL:
        ideals = [ideal_from_generators(inst, gen_pool(inst, rng)) for _ in range(6)]
        ideals += [zero_ideal(inst), unit_ideal(inst)]
        for a in ideals:
            for b in ideals:
                assert ideal_contains(a, b) == (member_window(b) <= member_window(a))
                assert ideal_equals(a, b) == (a.payload == b.payload)


def test_mixed_instance_rejected():
    a = ideal_from_generators(GCD, [4])
    b = ideal_from_generators(N0, [4])
    for op in (ideal_sum, ideal_product, ideal_intersect, ideal_quotient, ideal_contains, ideal_equals, divides):
        with pytest.raises(InstanceMismatch):
            op(a, b)
    with pytest.raises(InstanceMismatch):
        ideal_from_generators(GCD, [element(N0, 3)])


def test_element_generators_accepted():
    i = ideal_from_generators(GCD, [element(GCD, 4), 6])
    assert i.payload == 2


@pytest.mark.parametrize("inst", ALL, ids=[inst.id for inst in ALL])
def test_a_generator_of_the_wrong_type_is_invalid_input(inst):
    # an ideal, a string, an object or an infinite float in place of an
    # element is refused by name, never with a bare TypeError or ValueError
    bad = [unit_ideal(inst), unit_ideal(GCD), "x", object(), float("inf"), -1]
    if inst is LAG:
        bad.append(1)  # its elements are the strings "0", "u", "1"
    for x in bad:
        with pytest.raises(InvalidInput):
            ideal_from_generators(inst, [x])
        with pytest.raises(InvalidInput):
            ideal_membership(unit_ideal(inst), x)


def test_power_matches_repeated_product():
    rng = random.Random(5)
    for inst in ALL:
        for _ in range(4):
            a = ideal_from_generators(inst, gen_pool(inst, rng, small=True))
            acc = unit_ideal(inst)
            for k in range(4):
                assert ideal_equals(ideal_power(a, k), acc)
                acc = ideal_product(acc, a)
        # a negative power is a power of the inverse
        assert ideal_equals(ideal_power(unit_ideal(inst), -2), unit_ideal(inst))


@pytest.mark.parametrize("inst", ALL, ids=[inst.id for inst in ALL])
def test_a_negative_power_is_a_power_of_the_inverse_or_a_named_refusal(inst):
    # a bare ValueError from a public function would reach the CLI as InternalError
    rng = random.Random(11)
    pool = [zero_ideal(inst), unit_ideal(inst)]
    pool += [ideal_from_generators(inst, gen_pool(inst, rng, small=True)) for _ in range(8)]
    if inst.semidomain and inst.kind != "dvs":  # dvs literals are integer exponents
        pool.append(ideal_from_generators(inst, [Fraction(3, 2), Fraction(2)]))
    for a in pool:
        inv = ideal_invert(a)
        for k in (-1, -2, -3):
            try:
                got = ideal_power(a, k)
            except SemidealError as exc:
                assert inv is None and isinstance(exc, Unsupported), (inst.id, ideal_str(a), k)
                continue
            assert inv is not None and ideal_equals(got, ideal_power(inv, -k)), (inst.id, ideal_str(a), k)
            assert ideal_equals(ideal_product(got, ideal_power(a, -k)), unit_ideal(inst))


def test_quotient_by_zero_raises():
    for inst in ALL:
        with pytest.raises(ZeroDivisorIdeal):
            ideal_quotient(unit_ideal(inst), zero_ideal(inst))
        with pytest.raises(ZeroDivisorIdeal):
            divides(zero_ideal(inst), unit_ideal(inst))


def test_lagrassa_quotient_table():
    z = zero_ideal(LAG)
    u = ideal_from_generators(LAG, ["u"])
    f = unit_ideal(LAG)
    assert ideal_quotient(z, u).payload == "0"
    assert ideal_quotient(z, f).payload == "0"
    assert ideal_quotient(u, u).payload == "1"  # x*u is never 1
    assert ideal_quotient(u, f).payload == "u"
    assert ideal_quotient(f, u).payload == "1"
    assert ideal_quotient(f, f).payload == "1"


def test_lagrassa_against_its_own_tables():
    # every ideal as its member set, by brute force over subsets with the
    # element tables: this proves the answers the class writes by hand
    # (is_subtractive, is_prime, separating) and those Kind's principal
    # rules give it (membership, the quotient, divides)
    elems = LAG.elements(0)
    sets = finite_ideals(elems, LAG.eadd, LAG.emul)
    full = frozenset(elems)

    def spanned(xs):  # the least ideal holding xs
        return frozenset.intersection(*(s for s in sets if set(xs) <= s))

    ideal = {s: ideal_from_generators(LAG, sorted(s)) for s in sets}
    assert len(sets) == 3 and len(set(ideal.values())) == 3
    for A, a in ideal.items():
        assert {x for x in elems if ideal_membership(a, x)} == A
        assert ideal_from_generators(LAG, generators(a)) == a
        assert is_subtractive(a) == all(y in A for x in A for y in elems if LAG.eadd(x, y) in A)
        prime = A != full and all(x in A or y in A for x in elems for y in elems if LAG.emul(x, y) in A)
        assert is_prime(a) == prime
        assert is_maximal(a) == (A != full and not any(A < s < full for s in sets))
    for A, a in ideal.items():
        for B, b in ideal.items():
            assert ideal_sum(a, b) == ideal[spanned(A | B)]
            assert ideal_product(a, b) == ideal[spanned({LAG.emul(x, y) for x in A for y in B})]
            assert ideal_intersect(a, b) == ideal[A & B]
            assert ideal_contains(a, b) == (B <= A)
            assert separating_member(a, b) == next((x for x in elems if x in B and x not in A), None)
            if B == {"0"}:
                with pytest.raises(ZeroDivisorIdeal):
                    ideal_quotient(a, b)
            else:
                assert ideal_quotient(a, b) == ideal[frozenset(x for x in elems if {LAG.emul(x, y) for y in B} <= A)]
            if A == {"0"}:
                with pytest.raises(ZeroDivisorIdeal):
                    divides(a, b)
                continue
            c = divides(a, b)
            if c is None:
                assert not any(ideal_product(a, ideal[C]) == b for C in sets)
            else:
                assert ideal_product(a, c) == b
    M = spanned({"u"})  # (u), the one maximal ideal
    square = spanned({LAG.emul(x, y) for x in M for y in M})
    assert search_between(ideal[M]) is None and not any(square < s < M for s in sets)


def test_divides_soundness_and_known():
    rng = random.Random(17)
    for inst in ALL:
        for _ in range(10):
            a = ideal_from_generators(inst, gen_pool(inst, rng, small=True))
            b = ideal_from_generators(inst, gen_pool(inst, rng, small=True))
            if is_zero(a):
                continue
            prod = ideal_product(a, b)
            c = divides(a, prod)
            assert c is not None and ideal_equals(ideal_product(a, c), prod)
    assert divides(ideal_from_generators(GCD, [4]), ideal_from_generators(GCD, [6])) is None
    assert divides(ideal_from_generators(DVS, [3]), ideal_from_generators(DVS, [1])) is None
    got = divides(ideal_from_generators(GCD, [4]), ideal_from_generators(GCD, [12]))
    assert got.payload == 3
    # n0: the maximal ideal does not divide I(3,4,5)
    m = ideal_from_generators(N0, [2, 3])
    assert divides(m, ideal_from_generators(N0, [3, 4, 5])) is None


def test_separating_member_is_exact():
    rng = random.Random(23)
    for inst in ALL:
        ideals = [ideal_from_generators(inst, gen_pool(inst, rng)) for _ in range(6)]
        ideals += [zero_ideal(inst), unit_ideal(inst)]
        for small in ideals:
            for big in ideals:
                w = separating_member(small, big)
                if w is None:
                    assert ideal_contains(small, big), (inst.id, ideal_str(small), ideal_str(big))
                else:
                    assert ideal_membership(big, w)
                    assert not ideal_membership(small, w)


def test_subtractive_classification():
    assert is_subtractive(ideal_from_generators(N0, [4]))
    assert not is_subtractive(ideal_from_generators(N0, [2, 3]))
    assert not is_subtractive(ideal_from_generators(N0, [3, 4, 5]))
    for inst in (GCD, GS, DVS, Q5):
        assert is_subtractive(ideal_from_generators(inst, gen_pool(inst, random.Random(1))))
    assert is_subtractive(zero_ideal(LAG))
    assert not is_subtractive(ideal_from_generators(LAG, ["u"]))
    assert is_subtractive(unit_ideal(LAG))


def brute_prime(inst, a):
    uni = universe(inst)
    if all(ideal_membership(a, x) for x in uni):
        return False  # the unit ideal is not prime
    for x in uni:
        if ideal_membership(a, x):
            continue
        for y in uni:
            if not ideal_membership(a, y) and ideal_membership(a, inst.emul(x, y)):
                return False
    return True


def test_prime_maximal_classification():
    # the windowed brute force is exact here: factor pairs witnessing
    # non-primality already exist inside these windows
    for inst in (GCD, GS, DVS, LAG, Q5):
        pool = [ideal_from_generators(inst, [p]) for p in universe(inst)]
        for a in pool:
            assert is_prime(a) == brute_prime(inst, a), (inst.id, ideal_str(a))
    assert is_prime(ideal_from_generators(GCD, [7]))
    assert not is_prime(ideal_from_generators(GCD, [6]))
    assert is_prime(zero_ideal(GCD))
    assert is_maximal(ideal_from_generators(GCD, [7]))
    assert not is_maximal(zero_ideal(GCD))
    assert not is_maximal(unit_ideal(GCD))
    assert is_maximal(ideal_from_generators(DVS, [1]))
    assert not is_maximal(ideal_from_generators(DVS, [2]))
    assert is_maximal(ideal_from_generators(LAG, ["u"]))
    assert is_maximal(ideal_from_generators(Q5, [QuadIdeal(1, 2, 1)]))
    assert not is_maximal(ideal_from_generators(Q5, [QuadIdeal(2, 1, 0)]))
    assert is_maximal(ideal_from_generators(N0, [2, 3]))
    assert not is_maximal(ideal_from_generators(N0, [3, 4, 5]))


def test_classify_known_nonexample():
    a = ideal_from_generators(N0, [3, 4, 5])
    assert not is_prime(a)
    assert not is_maximal(a)
    assert not is_subtractive(a)


def test_min_nonzero():
    assert min_nonzero(ideal_from_generators(N0, [3, 4, 5])) == 3
    assert min_nonzero(ideal_from_generators(N0, [2, 3])) == 2
    for inst in (GCD, DVS, LAG, Q5):
        with pytest.raises(Unsupported):
            min_nonzero(unit_ideal(inst))


def test_search_between():
    # Dedekind-style instances: nothing strictly between m^2 and maximal m
    assert search_between(ideal_from_generators(GCD, [5])) is None
    assert search_between(ideal_from_generators(GS, [3])) is None
    assert search_between(ideal_from_generators(DVS, [1])) is None
    assert search_between(ideal_from_generators(LAG, ["u"])) is None
    assert search_between(ideal_from_generators(Q5, [QuadIdeal(1, 2, 1)])) is None
    assert search_between(ideal_from_generators(Q5, [QuadIdeal(1, 3, 1)])) is None
    # ... but n0 has a verified witness over its maximal ideal
    m = ideal_from_generators(N0, [2, 3])
    found = search_between(m)
    assert found is not None
    m2 = ideal_product(m, m)
    assert ideal_contains(found, m2) and not ideal_equals(found, m2)
    assert ideal_contains(m, found) and not ideal_equals(found, m)
    assert generators(found) == (2, 9)
    with pytest.raises(NotMaximal):
        search_between(ideal_from_generators(GCD, [6]))
    with pytest.raises(NotMaximal):
        search_between(ideal_from_generators(N0, [3]))


def test_generators_and_str():
    assert generators(ideal_from_generators(N0, [4, 6, 9])) == (4, 6, 9)
    assert generators(zero_ideal(N0)) == (0,)
    assert generators(ideal_from_generators(GCD, [4, 6])) == (2,)
    assert generators(ideal_from_generators(DVS, [3, 5])) == (3,)
    assert generators(ideal_from_generators(LAG, ["u"])) == ("u",)
    assert ideal_str(ideal_from_generators(N0, [3, 4, 5])) == "I(3,4,5)"
    assert ideal_str(ideal_from_generators(GCD, [84])) == "I(84)"
    assert ideal_str(ideal_from_generators(DVS, [2])) == "t^2"
    assert ideal_str(unit_ideal(DVS)) == "S"
    assert ideal_str(zero_ideal(DVS)) == "(0)"
    assert ideal_str(ideal_from_generators(LAG, ["u"])) == "(u)"
    assert ideal_str(unit_ideal(LAG)) == "L"
    assert ideal_str(ideal_from_generators(Q5, [QuadIdeal(1, 2, 1)])) == "(2, 1+w)"
    assert ideal_str(ideal_from_generators(Q5, [QuadIdeal(3, 1, 0)])) == "3*O"
    assert ideal_str(unit_ideal(Q5)) == "O"
    assert ideal_str(zero_ideal(Q5)) == "(0)"
