"""Number-theory helpers, classified spectra, Krull dimension."""

import random
import subprocess
import sys

import pytest

from semideal import TooLarge, UnknownPrime, instance, is_prime, krull_dimension, label_from_text, spectrum
from semideal.ideals import generators, ideal_equals, ideal_from_generators
from semideal.natideal import NAT_MAX
from semideal import primes
from semideal.primes import factorint, is_prime_int, primes_up_to, sqrt_mod_prime
from semideal.quadratic import QuadIdeal
from semideal.spectrum import PrimeLabel
from oracles import primes_naive, valuation

N0 = instance("n0")
GCD = instance("gcd")
GS = instance("gcd-supported(2,3)")
DVS = instance("dvs")
LAG = instance("lagrassa")
Q5 = instance("quad5")


def test_is_prime_int_matches_sieve():
    sieve = set(primes_naive(2000))
    for n in range(-3, 2001):
        assert is_prime_int(n) == (n in sieve)
    assert is_prime_int(2**61 - 1)  # a Mersenne prime
    assert not is_prime_int(2**61 + 1)  # divisible by 3


def test_is_prime_int_refuses_what_twelve_bases_cannot_decide():
    # psi_12 is the least strong pseudoprime to all twelve bases 2..37
    psi12 = 399165290221 * 798330580441
    assert psi12 == 318665857834031151167461
    for n in (psi12, 2**89 - 1):
        with pytest.raises(TooLarge):
            is_prime_int(n)
    # a factor up to 37 still decides the answer
    assert not is_prime_int(37 * psi12) and not is_prime_int(2**100)
    with pytest.raises(TooLarge):
        is_prime(ideal_from_generators(GCD, [psi12]))
    with pytest.raises(TooLarge):
        instance(f"gcd-supported(2,{psi12})")


def test_factorint_stops_at_its_trial_budget():
    # a large prime cofactor is recognised, a cofactor left unsplit refused,
    # and a small factor of a number past psi_12 still found; run apart so
    # that unbounded trial division fails on the timeout
    code = (
        "from semideal.errors import TooLarge\n"
        "from semideal.primes import factorint\n"
        "assert factorint(2**61 - 1) == {2**61 - 1: 1}\n"
        "assert factorint(12 * 1000003 * 1000033) == {2: 2, 3: 1, 1000003: 1, 1000033: 1}\n"
        "assert factorint(100003 * (10**20 + 39)) == {100003: 1, 10**20 + 39: 1}\n"
        "for n in (318665857834031151167461, 1000000007 * 1000000009):\n"
        "    try:\n"
        "        factorint(n)\n"
        "    except TooLarge as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    budget = "is not factored within the budget: its cofactor {} has no factor up to 10000000"
    assert proc.stdout.splitlines() == [
        "318665857834031151167461 " + budget.format(318665857834031151167461),
        "1000000016000000063 " + budget.format(1000000016000000063),
    ]


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(2000) == primes_naive(2000)


def test_valuation_matches_one_division_at_a_time():
    # exponents on both sides of powers of two, where the descent changes length
    exponents = [0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000, 1023, 1024, 1025]
    rng = random.Random(16)
    small = primes_naive(60)
    for _ in range(400):
        p = rng.choice(small)
        n = p ** rng.choice(exponents) * rng.randint(1, 10**6)
        e = valuation(n, p)
        assert primes.valuation(n, p) == (e, n // p**e), (n, p)
    for n, p in ((1, 2), (7, 2), (35, 3), (10**20 + 39, 7), (2**61 - 1, 2**31 - 1)):  # p does not divide n
        assert primes.valuation(n, p) == (0, n)
    assert primes.valuation(3 * 2**100000, 2) == (100000, 3)


def test_factorint():
    assert factorint(1) == {}
    assert factorint(2) == {2: 1}
    assert factorint(360) == {2: 3, 3: 2, 5: 1}
    assert factorint(97 * 89) == {89: 1, 97: 1}
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randint(1, 10**6)
        fac = factorint(n)
        back = 1
        for p, e in fac.items():
            assert is_prime_int(p) and e >= 1
            assert valuation(n, p) == e
            back *= p**e
        assert back == n
    with pytest.raises(ValueError):
        factorint(0)


def test_sqrt_mod_prime():
    for p in primes_naive(200):
        if p == 2:
            continue
        residues = {(x * x) % p for x in range(p)}
        for a in range(p):
            r = sqrt_mod_prime(a, p)
            if a in residues:
                assert r is not None and (r * r) % p == a % p
            else:
                assert r is None


def test_spectrum_shapes():
    n0_labels = spectrum(N0, 10)
    assert [lab.text() for lab in n0_labels] == ["2", "3", "5", "7", "MAX"]
    assert ideal_equals(n0_labels[-1].ideal(), ideal_from_generators(N0, [2, 3]))
    assert n0_labels[-1].ideal().payload == (1, NAT_MAX)  # (denominator, NatIdeal)

    assert [lab.text() for lab in spectrum(GCD, 12)] == ["2", "3", "5", "7", "11"]
    assert [lab.text() for lab in spectrum(GS, 1000)] == ["2", "3"]
    assert [lab.text() for lab in spectrum(DVS)] == ["t"]
    assert [lab.text() for lab in spectrum(LAG)] == ["u"]

    q_labels = spectrum(Q5, 11)
    assert [lab.text() for lab in q_labels] == ["P2", "P3[1]", "P3[2]", "P5", "P7[3]", "P7[4]", "P11"]
    assert generators(q_labels[0].ideal()) == (QuadIdeal(1, 2, 1),)
    assert generators(q_labels[-1].ideal()) == (QuadIdeal(11, 1, 0),)


def test_spectrum_ideals_are_prime():
    for inst in (N0, GCD, GS, DVS, LAG, Q5):
        for lab in spectrum(inst, 13):
            assert is_prime(lab.ideal()), (inst.id, lab.text())


def test_labels_sort_stably():
    labs = spectrum(Q5, 13)
    assert labs == sorted(labs, key=PrimeLabel.sort_key)
    n0_labs = spectrum(N0, 13)
    assert n0_labs == sorted(n0_labs, key=PrimeLabel.sort_key)
    assert n0_labs[-1].p is None and n0_labs[-1].text() == "MAX"  # MAX sorts after all numeric primes


def test_label_from_text_roundtrip():
    for inst in (N0, GCD, GS, DVS, LAG, Q5):
        for lab in spectrum(inst, 101):
            assert label_from_text(inst, lab.text()) == lab
    assert label_from_text(instance("gcd-supported(103)"), "103").p == 103  # a support past the bound
    with pytest.raises(UnknownPrime):
        label_from_text(GCD, "4")
    with pytest.raises(UnknownPrime):
        label_from_text(GCD, "t")
    with pytest.raises(UnknownPrime):
        label_from_text(GS, "5")  # outside the support
    with pytest.raises(UnknownPrime):
        label_from_text(Q5, "P11[1]")  # inert primes carry no root
    # past the bound, a split prime without its root, no prime, a wrong root, a leading zero
    for text in ("P103", "P3", "P4", "P3[0]", "059", "P" + "1" * 5000, "1" * 5000, "P²", "", "P"):
        with pytest.raises(UnknownPrime):
            label_from_text(Q5, text)
    with pytest.raises(UnknownPrime):
        label_from_text(GCD, "MAX")


def test_label_lookup_splits_at_most_its_own_prime(monkeypatch):
    from semideal import instances

    split = []
    real = instances.qi_prime_split
    monkeypatch.setattr(instances, "qi_prime_split", lambda p: split.append(p) or real(p))
    for text in [lab.text() for lab in spectrum(Q5, 101)] + ["P103", "P3", "P4", "MAX", "t"]:
        split.clear()
        try:
            label_from_text(Q5, text)
        except UnknownPrime:
            pass
        assert len(split) <= 1, (text, split)


def test_krull_dimension():
    assert krull_dimension(N0) == 2  # (0) < (p) < MAX
    assert krull_dimension(GCD) == 1
    assert krull_dimension(GS) == 1
    assert krull_dimension(DVS) == 1
    assert krull_dimension(LAG) == 1
    assert krull_dimension(Q5) == 1
