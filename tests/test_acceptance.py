"""Acceptance gate: twelve exact-arithmetic criteria, one test (and one
pass/fail line) each. Every check is zero-tolerance: any violation fails the
criterion outright."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from semideal import instance
from semideal.content import DMCapExceeded, content, dm_exponent, gaussian_check
from semideal.fractional import (
    finite_spec_principal_generator,
    localize,
    two_generators,
    uft_compose,
    uft_factor,
)
from semideal.ideals import (
    ideal_contains,
    ideal_equals,
    ideal_from_generators,
    ideal_intersect,
    ideal_invert,
    ideal_membership,
    ideal_power,
    ideal_product,
    ideal_sum,
    is_maximal,
    is_prime,
    is_subtractive,
    min_nonzero,
    search_between,
    unit_ideal,
)
from semideal.laws import check_law
from semideal.polynomials import poly, poly_mul
from semideal.quadratic import (
    QI_ONE,
    QuadIdeal,
    qi_divide,
    qi_mul,
    qi_principal_int,
)
from semideal.reports import LawReport
from semideal.spectrum import PrimeLabel, spectrum
from oracles import quad_ideals

N0 = instance("n0")
GCD = instance("gcd")
GS = instance("gcd-supported(2,3)")
DVS = instance("dvs")
LAG = instance("lagrassa")
Q5 = instance("quad5")


def _done(k, label):
    print(f"[PRIMARY {k:02d}] {label}: PASS")


def _random_frac(inst, rng):
    if inst.kind == "gcd":
        gens = [
            Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            for _ in range(rng.randint(1, 3))
        ]
        return ideal_from_generators(inst, gens)
    a = ideal_from_generators(inst, [rng.randint(0, 12)])  # dvs exponent
    if rng.random() < 0.5:
        a = ideal_invert(a)  # negative exponents enter through inversion
    return a


def _random_ideal(inst, rng):
    kind = inst.kind
    if kind == "n0":
        return ideal_from_generators(inst, [rng.randint(1, 25) for _ in range(rng.randint(1, 3))])
    if kind == "gcd":
        gen = rng.randint(1, 10**6)
    elif kind == "gcd-supported":
        gen = 2 ** rng.randint(0, 9) * 3 ** rng.randint(0, 9)
    elif kind == "dvs":
        gen = rng.randint(0, 15)
    elif kind == "lagrassa":
        gen = rng.choice(("0", "u", "1"))
    else:
        gen = rng.choice(_QUAD_POOL)
    return ideal_from_generators(inst, [gen])


_QUAD_POOL = [QuadIdeal(*t) for t in quad_ideals(60)]


def test_c01_unique_factorization_round_trip():
    rng = random.Random(101)
    for _ in range(1000):
        a = _random_frac(GCD, rng)
        vec = uft_factor(a)
        assert ideal_equals(uft_compose(GCD, vec), a)
    # uniqueness: composing one exponent vector two ways and refactoring both
    primes = (2, 3, 5, 7, 11, 13)
    from semideal.fractional import ExponentVector

    for _ in range(200):
        exps = {p: rng.randint(-4, 4) for p in primes}
        order = list(primes)
        rng.shuffle(order)
        v1 = ExponentVector.of({PrimeLabel(GCD, p): exps[p] for p in primes})
        v2 = ExponentVector.of({PrimeLabel(GCD, p): exps[p] for p in order})
        a1, a2 = uft_compose(GCD, v1), uft_compose(GCD, v2)
        assert ideal_equals(a1, a2)
        assert uft_factor(a1).items == v1.items == v2.items == uft_factor(a2).items
    _done(1, "unique factorization round-trip on 1000 fractional ideals")


def test_c02_fractional_ideals_form_a_group():
    for inst in (GCD, DVS):
        rng = random.Random(202)
        stream = []
        for _ in range(1000):
            a = _random_frac(inst, rng)
            inv = ideal_invert(a)
            assert inv is not None, "every nonzero fractional ideal must invert"
            assert ideal_equals(ideal_product(a, inv), unit_ideal(inst))
            assert ideal_equals(ideal_product(a, unit_ideal(inst)), a)
            stream.append(a)
        for i in range(0, 999, 3):
            a, b, c = stream[i], stream[i + 1], stream[i + 2]
            assert ideal_equals(
                ideal_product(ideal_product(a, b), c), ideal_product(a, ideal_product(b, c))
            )
    assert ideal_invert(ideal_from_generators(N0, [3, 4, 5])) is None
    _done(2, "group structure on 1000 gcd + 1000 dvs fractional ideals")


def test_c03_dedekind_identity_all_instances():
    for inst in (N0, GCD, GS, DVS, LAG, Q5):
        rng = random.Random(303)
        for _ in range(500):
            a, b, c = (_random_ideal(inst, rng) for _ in range(3))
            left = ideal_product(
                ideal_sum(ideal_sum(a, b), c),
                ideal_sum(ideal_sum(ideal_product(b, c), ideal_product(c, a)), ideal_product(a, b)),
            )
            right = ideal_product(
                ideal_product(ideal_sum(b, c), ideal_sum(c, a)), ideal_sum(a, b)
            )
            assert ideal_equals(left, right), (inst.id, a, b, c)
    _done(3, "Dedekind identity on 500 triples in each of six instances")


def test_c04_six_laws_pass_on_dedekind_instances_and_law3_fails_on_n0():
    six = (
        "dedekind2-law-1",
        "dedekind2-law-2",
        "dedekind2-law-3",
        "dedekind2-law-4",
        "dedekind2-law-5",
        "dedekind2-law-6",
    )
    for inst in (GCD, GS, DVS):
        for law in six:
            rep = check_law(inst, law, trials=500, seed=404)
            assert rep.status == "pass", (inst.id, law, rep.witness)
    rep = check_law(N0, "dedekind2-law-3", trials=500, seed=404)
    assert rep.status == "fail"
    assert rep.witness["a"] == "I(2)"
    assert rep.witness["b"] == "I(3)"
    assert rep.witness["missing_from_left"] == "6"
    _done(4, "six ideal laws x 500 trials on gcd/gcd-supported/dvs; law 3 fails on n0")


def test_c05_coprime_exponent_identities():
    primes = (2, 3, 5, 7)
    rng = random.Random(505)
    for _ in range(200):
        e = [rng.randint(0, 7) for _ in primes]
        f = [rng.randint(0, 7) for _ in primes]
        m = math.prod(p**x for p, x in zip(primes, e))
        n = math.prod(p**x for p, x in zip(primes, f))
        a, b = ideal_from_generators(GCD, [m]), ideal_from_generators(GCD, [n])
        assert ideal_sum(a, b).payload == math.gcd(m, n)
        assert ideal_intersect(a, b).payload == math.lcm(m, n)
        assert ideal_product(a, b).payload == m * n
    _done(5, "coprime exponent identities on 200 random pairs against gcd/lcm oracles")


def test_c06_between_square_and_maximal():
    for inst, bound in ((GCD, 30), (GS, 10), (DVS, 10)):
        labels = spectrum(inst, bound=bound)
        assert labels, inst.id
        for lab in labels:
            m = lab.ideal()
            assert is_maximal(m), (inst.id, lab.text())
            assert search_between(m) is None, (inst.id, lab.text())
    mx = ideal_from_generators(N0, [2, 3])
    m2 = ideal_power(mx, 2)
    found = search_between(mx)
    assert found is not None
    assert ideal_contains(mx, found) and not ideal_equals(mx, found)
    assert ideal_contains(found, m2) and not ideal_equals(found, m2)
    # the concrete strictly-between ideal: m^2 < (3,4,5) < m
    probe = ideal_from_generators(N0, [3, 4, 5])
    assert ideal_contains(mx, probe) and not ideal_equals(mx, probe)
    assert ideal_contains(probe, m2) and not ideal_equals(probe, m2)
    _done(6, "no ideal between m^2 and m on Dedekind maximals; n0 MAX has one")


def test_c07_n0_ideal_with_no_prime_factorization():
    target = ideal_from_generators(N0, [3, 4, 5])
    assert ideal_membership(target, 3)
    assert not is_prime(target)
    assert min_nonzero(target) == 3
    mx = ideal_from_generators(N0, [2, 3])
    assert min_nonzero(ideal_power(mx, 2)) == 4
    classified = [lab.ideal() for lab in spectrum(N0, bound=10)]
    assert len(classified) == 5
    for p in classified:
        assert is_prime(p)
        assert min_nonzero(p) >= 2
        # no single classified prime divides the target
        from semideal.ideals import divides

        assert divides(p, target) is None
        assert not ideal_equals(p, target)
    # no product of >= 2 classified primes reaches it either: each factor has
    # least nonzero member >= 2, so the product's least member is >= 4 > 3
    for k in (2, 3):
        for combo in itertools.combinations_with_replacement(classified, k):
            prod = combo[0]
            for q in combo[1:]:
                prod = ideal_product(prod, q)
            assert min_nonzero(prod) >= 4
            assert not ideal_equals(prod, target)
    _done(7, "I(3,4,5) admits no factorization into classified n0 primes")


def test_c08_localization_matches_valuation_oracle():
    rng = random.Random(808)

    def val(n, p):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        return e

    for _ in range(500):
        m = rng.randint(1, 10**6)
        n = rng.randint(1, 10**6)
        p = rng.choice((2, 3, 5))
        lm = localize(GCD, p, ideal_from_generators(GCD, [m]))
        ln = localize(GCD, p, ideal_from_generators(GCD, [n]))
        assert lm.instance.kind == "dvs"
        assert lm.payload == val(m, p)
        prod = localize(GCD, p, ideal_product(ideal_from_generators(GCD, [m]), ideal_from_generators(GCD, [n])))
        assert prod.payload == lm.payload + ln.payload
    _done(8, "localization equals the valuation oracle and is multiplicative, 500 trials")


def test_c09_two_generators_and_principalization():
    rng = random.Random(909)
    for _ in range(200):
        g = rng.randint(1, 10**6)
        ideal = ideal_from_generators(GCD, [g])
        member = g * rng.randint(1, 50)
        a, b = two_generators(ideal, member)
        assert a == member
        assert ideal_equals(ideal_from_generators(GCD, [a, b]), ideal)
    for _ in range(200):
        g = 2 ** rng.randint(0, 9) * 3 ** rng.randint(0, 9)
        ideal = ideal_from_generators(GS, [g])
        member = g * rng.choice((1, 2, 3, 4, 6, 8, 9, 12))
        a, b = two_generators(ideal, member)
        assert ideal_equals(ideal_from_generators(GS, [a, b]), ideal)
        gen, members = finite_spec_principal_generator(ideal)
        assert ideal_equals(ideal_from_generators(GS, [gen]), ideal)
        for mem in members:
            assert ideal_membership(ideal, mem)
    _done(9, "two-generator spans and finite-spectrum principalization, 200 each")


# Base pairs for the n0 exponent search; the minimal exponent of each pair was
# established by exhaustively checking all pairs with degree <= 2 and
# coefficients <= 4, and it is invariant under f -> a*X^i*f, g -> b*X^j*g
# (both sides of the exponent ladder scale by the same a^(k+1)*b and scaling
# by a nonzero natural is injective on ideals of naturals).
ACCEPT_DM_BASES = [
    ([2, 3], [2, 3], 1),
    ([2, 3], [2, 2, 3], 1),
    ([0, 2, 3], [2, 3, 3], 1),
    ([0, 2, 3], [2, 4, 3], 1),
    ([3, 2], [3, 2], 1),
    ([2, 3], [4, 6], 1),
    ([5], [2, 3, 4], 0),
    ([1, 1], [2, 3], 0),
    ([1, 2, 1], [3], 0),
    ([0, 0, 7], [0, 3, 2], 0),
]


def test_c10_content_formulas():
    rng = random.Random(1010)
    for _ in range(500):
        f = poly(GCD, [rng.randint(0, 1000) for _ in range(rng.randint(1, 7))])
        g = poly(GCD, [rng.randint(0, 1000) for _ in range(rng.randint(1, 7))])
        rep = gaussian_check(f, g)
        assert rep.gaussian, (f, g)
        assert rep.dm_exponent == 0
    # the non-Gaussian witness: f = g = 2 + 3X over n0
    f = poly(N0, [2, 3])
    rep = gaussian_check(f, f)
    assert not rep.gaussian
    assert rep.witness["member"] == "6"
    cf2 = content(poly_mul(f, f))
    assert not ideal_membership(cf2, 6)
    assert dm_exponent(f, f) == 1
    cf = content(f)
    assert ideal_equals(ideal_power(cf, 3), ideal_product(cf, cf2))
    # 500 n0 pairs drawn from verified base pairs under random scaling: the
    # exponent search always lands within deg(g)+1, with zero cap overflows
    overflow = 0
    for trial in range(500):
        fc, gc, expected = ACCEPT_DM_BASES[trial % len(ACCEPT_DM_BASES)]
        s, t = rng.randint(1, 9), rng.randint(1, 9)
        i, j = rng.randint(0, 2), rng.randint(0, 2)
        fs = poly(N0, [0] * i + [s * c for c in fc])
        gs = poly(N0, [0] * j + [t * c for c in gc])
        try:
            n = dm_exponent(fs, gs)
        except DMCapExceeded:
            overflow += 1
            continue
        assert n == expected
        assert n <= gs.degree() + 1
        if trial % 10 == 0:  # direct re-verification of the balance at n
            cfs, cgs = content(fs), content(gs)
            cfgs = content(poly_mul(fs, gs))
            lhs = ideal_product(ideal_power(cfs, n + 1), cgs)
            rhs = ideal_product(ideal_power(cfs, n), cfgs)
            assert ideal_equals(lhs, rhs)
    assert overflow == 0
    _done(10, "content formulas: 500 Gaussian gcd pairs, n0 witness, 500 bounded exponents")


def test_c11_quadratic_arithmetic_exhaustive():
    pool = [QuadIdeal(*t) for t in quad_ideals(200)]
    assert pool[0] == QI_ONE
    for a in pool:
        for b in pool:
            ab = qi_mul(a, b)
            assert ab.norm() == a.norm() * b.norm()
            # recovering b from a*b is cancellation in constructive form
            assert qi_divide(ab, a) == b
    six = qi_principal_int(6)
    fac = qi_factor_checked(six)
    assert sum(fac.values()) == 4
    norms = sorted(p for (p, _b), e in fac.items() for _ in range(e))
    assert norms == [2, 2, 3, 3]
    assert len({(p, b) for (p, b) in fac if p == 3}) == 2
    back = QI_ONE
    for (p, b), e in fac.items():
        back = qi_mul(back, Q5.power(QuadIdeal(1, p, b), e))
    assert back == six
    _done(11, "quadratic ideal arithmetic exhaustive to norm 200; (6) factors and recomposes")


def qi_factor_checked(q):
    from semideal.quadratic import qi_factor

    fac = qi_factor(q)
    for (p, b), e in fac.items():
        assert e >= 1
        assert is_prime(ideal_from_generators(Q5, [QuadIdeal(1, p, b)]))
    return fac


def test_c12_lagrassa_semiring_exhaustive():
    elems = LAG.elements(3)
    assert set(elems) == {"0", "u", "1"}

    def is_ideal(subset):
        if not subset:
            return False
        for x in subset:
            for y in subset:
                if LAG.eadd(x, y) not in subset:
                    return False
            for s in elems:
                if LAG.emul(s, x) not in subset:
                    return False
        return True

    ideals = {
        frozenset(sub)
        for r in range(4)
        for sub in itertools.combinations(elems, r)
        if is_ideal(sub)
    }
    assert ideals == {frozenset({"0"}), frozenset({"0", "u"}), frozenset({"0", "u", "1"})}

    u = ideal_from_generators(LAG, ["u"])
    assert is_prime(u) and is_maximal(u)
    assert not is_subtractive(u)
    # the only nonzero proper principal ideal is (u), and it is itself prime
    assert ideal_equals(ideal_from_generators(LAG, ["1"]), unit_ideal(LAG))
    witness = {"a": "u", "b": "u", "c": "1", "product": "u"}
    rep = check_law(LAG, "multiplicative-cancellation", 3)
    assert rep == LawReport("multiplicative-cancellation", "lagrassa", 3, 0, "fail", witness)
    for inst in (N0, GCD, GS, DVS, Q5):
        rep = check_law(inst, "multiplicative-cancellation", 144)
        trials = 72 if inst is GS else 144  # GS has 9 elements up to 12: 8 * 9 products
        assert rep == LawReport("multiplicative-cancellation", inst.id, trials, 0, "pass", None)
    _done(12, "lagrassa semiring fully enumerated: ideals, primality, cancellation failure")
