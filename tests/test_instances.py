"""Instance lookup, element validation, element arithmetic, and the ideal enumeration."""

import itertools
import math
import random
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

from semideal import (
    Element,
    InstanceMismatch,
    LawReport,
    OutOfSupport,
    check_law,
    element,
    element_op,
    instance,
    one,
    zero,
)
from semideal import instances, natideal
from semideal.errors import InvalidInput, NotFractional, Unsupported
from semideal.quadratic import QI_ONE, QI_ZERO, QuadIdeal
from oracles import quad_ideals

ALL_IDS = ["n0", "gcd", "gcd-supported(2,3)", "dvs", "lagrassa", "quad5"]


def test_instance_ids_and_flags():
    flags = {spec: (instance(spec).semidomain, instance(spec).dedekind) for spec in ALL_IDS}
    assert flags == {
        "n0": (True, False),
        "gcd": (True, True),
        "gcd-supported(2,3)": (True, True),
        "dvs": (True, True),
        "lagrassa": (False, False),
        "quad5": (True, True),
    }
    kinds = {spec: type(instance(spec)) for spec in ALL_IDS}
    assert kinds == {
        "n0": instances.N0,
        "gcd": instances.GcdFamily,
        "gcd-supported(2,3)": instances.GcdFamily,
        "dvs": instances.Dvs,
        "lagrassa": instances.Lagrassa,
        "quad5": instances.Quad5,
    }
    for spec in ALL_IDS:
        inst = instance(spec)
        assert (inst.id, inst.kind, repr(inst)) == (spec, spec.split("(")[0], f"instance({spec!r})")
    assert instance("gcd-supported(2,3)").support == (2, 3) and instance("gcd").support is None


def test_instance_cache_and_canonical_id():
    assert instance("gcd") is instance("gcd")
    assert instance("gcd-supported") is instance("gcd-supported(2,3)")
    assert instance("gcd-supported(3,2)").id == "gcd-supported(2,3)"
    assert instance("gcd-supported(5)").support == (5,)


def test_instance_aliases_share_one_object(monkeypatch):
    # An alias looked up after its canonical id must not replace the cached
    # object: ideals built on the first lookup still combine with later ones.
    import semideal.instances as instances
    from semideal.ideals import ideal_from_generators, ideal_sum

    monkeypatch.setattr(instances, "_CACHE", {})
    first = instance("gcd-supported(2,3)")
    assert instance("gcd-supported(3,2)") is first
    assert instance("gcd-supported") is first
    assert instance("gcd-supported(2,3)") is first
    a = ideal_from_generators(first, [4])
    b = ideal_from_generators(instance("gcd-supported"), [6])
    assert ideal_sum(a, b).payload == 2


def test_instance_rejects_garbage():
    for bad in ("gc", "GCD", "gcd-supported()", "gcd-supported(4)", "gcd-supported(2,x)"):
        with pytest.raises(ValueError):
            instance(bad)


def test_element_validation():
    n0 = instance("n0")
    assert element(n0, 7).payload == 7
    with pytest.raises(ValueError):
        element(n0, -1)
    with pytest.raises(ValueError):
        element(n0, 1.5)

    gs = instance("gcd-supported(2,3)")
    assert element(gs, 12).payload == 12
    with pytest.raises(OutOfSupport):
        element(gs, 10)

    dvs = instance("dvs")
    assert element(dvs, None).payload is None
    assert element(dvs, 3).payload == 3
    with pytest.raises(ValueError):
        element(dvs, -2)

    lag = instance("lagrassa")
    assert element(lag, "u").payload == "u"
    with pytest.raises(ValueError):
        element(lag, "x")

    q5 = instance("quad5")
    assert element(q5, QuadIdeal(1, 2, 1)).payload == QuadIdeal(1, 2, 1)
    assert element(q5, 3).payload == QuadIdeal(3, 1, 0)
    assert element(q5, 0).payload == QI_ZERO


def test_zero_one():
    for spec in ALL_IDS:
        inst = instance(spec)
        z, u = zero(inst), one(inst)
        for x in [element(inst, p) for p in inst.elements(6)]:
            assert element_op(inst, "add", z, x).payload == x.payload
            assert element_op(inst, "mul", u, x).payload == x.payload
            assert element_op(inst, "mul", z, x).payload == z.payload


def test_mixed_instance_rejected():
    a = element(instance("gcd"), 4)
    b = element(instance("n0"), 4)
    with pytest.raises(InstanceMismatch):
        element_op(instance("gcd"), "add", a, b)
    with pytest.raises(ValueError, match="unknown op"):
        element_op(instance("gcd"), "sub", a, a)


def test_unknown_element_op_is_refused_by_name():
    # a SemidealError, so the CLI reports it by name instead of as InternalError
    for inst_id in ALL_IDS:
        inst = instance(inst_id)
        x = one(inst)
        for op in ("sub", "", "ADD"):
            with pytest.raises(InvalidInput, match=f"unknown op {op!r}"):
                element_op(inst, op, x, x)


def test_gcd_add_is_gcd():
    gcd = instance("gcd")
    for x in range(0, 20):
        for y in range(0, 20):
            s = element_op(gcd, "add", element(gcd, x), element(gcd, y))
            assert s.payload == math.gcd(x, y)


def test_dvs_tables():
    dvs = instance("dvs")
    t2, t5 = element(dvs, 2), element(dvs, 5)
    assert element_op(dvs, "add", t2, t5).payload == 2
    assert element_op(dvs, "mul", t2, t5).payload == 7
    assert element_op(dvs, "mul", zero(dvs), t5).payload is None


def test_lagrassa_tables_absorbing_and_idempotent():
    lag = instance("lagrassa")
    u = element(lag, "u")
    assert element_op(lag, "add", u, one(lag)).payload == "u"
    assert element_op(lag, "mul", u, u).payload == "u"
    assert element_op(lag, "mul", u, one(lag)).payload == "u"


def test_commutativity_associativity_distributivity_small():
    for spec in ALL_IDS:
        inst = instance(spec)
        elems = [element(inst, p) for p in inst.elements(4)]
        for a in elems:
            for b in elems:
                assert (
                    element_op(inst, "add", a, b).payload
                    == element_op(inst, "add", b, a).payload
                )
                assert (
                    element_op(inst, "mul", a, b).payload
                    == element_op(inst, "mul", b, a).payload
                )
        for a in elems[:3]:
            for b in elems[:3]:
                for c in elems[:3]:
                    ab_c = element_op(inst, "mul", element_op(inst, "mul", a, b), c)
                    a_bc = element_op(inst, "mul", a, element_op(inst, "mul", b, c))
                    assert ab_c.payload == a_bc.payload
                    lhs = element_op(inst, "mul", a, element_op(inst, "add", b, c))
                    rhs = element_op(
                        inst,
                        "add",
                        element_op(inst, "mul", a, b),
                        element_op(inst, "mul", a, c),
                    )
                    assert lhs.payload == rhs.payload


def test_multiplicative_cancellation_verdicts():
    # gcd-supported(2,3) has 7 elements up to isqrt(64) = 8, so it takes 6 * 7 products
    for spec, trials in (("n0", 64), ("gcd", 64), ("gcd-supported(2,3)", 42), ("dvs", 64), ("quad5", 64)):
        rep = check_law(instance(spec), "multiplicative-cancellation", 64)
        assert rep == LawReport("multiplicative-cancellation", spec, trials, 0, "pass", None)
    rep = check_law(instance("lagrassa"), "multiplicative-cancellation", 64)
    witness = {"a": "u", "b": "u", "c": "1", "product": "u"}
    assert rep == LawReport("multiplicative-cancellation", "lagrassa", 3, 0, "fail", witness)


def test_payload_str():
    dvs, q5 = instance("dvs"), instance("quad5")
    assert dvs.estr(None) == "0"
    assert dvs.estr(0) == "1"
    assert dvs.estr(4) == "t^4"
    assert q5.estr(QI_ZERO) == "0"
    assert q5.estr(QI_ONE) == "1"
    assert q5.estr(QuadIdeal(6, 1, 0)) == "6"
    assert q5.estr(QuadIdeal(1, 2, 1)) == "(2, 1+w)"
    assert q5.estr(QuadIdeal(2, 3, 1)) == "2*(3, 1+w)"


def test_enumerate_payloads_shapes():
    assert instance("n0").elements(3) == [0, 1, 2, 3]
    assert instance("gcd-supported(2,3)").elements(10) == [0, 1, 2, 3, 4, 6, 8, 9]
    assert instance("dvs").elements(2) == [None, 0, 1, 2]
    assert instance("lagrassa").elements(99) == ["0", "u", "1"]
    quads = instance("quad5").elements(6)
    assert quads[0] == QI_ZERO
    assert QI_ONE in quads and QuadIdeal(1, 2, 1) in quads


def test_elements_read_the_kind_up_to_the_bound():
    # each kind's elements against a definition that does not read ideals():
    # a range filter on the gcd family, zero and the root scan on quad5
    def smooth(support):
        return lambda b: [n for n in range(b + 1) if instances._smooth(n, support)]

    want = {
        "n0": lambda b: list(range(b + 1)),
        "gcd": lambda b: list(range(b + 1)),
        "gcd-supported(2,3)": smooth((2, 3)),
        "gcd-supported(2,3,5,7)": smooth((2, 3, 5, 7)),
        "dvs": lambda b: [None, *range(b + 1)],
        "lagrassa": lambda b: ["0", "u", "1"],
        "quad5": lambda b: [QI_ZERO, *(QuadIdeal(*t) for t in quad_ideals(b))],
    }
    for spec, expected in want.items():
        for bound in range(61):
            assert instance(spec).elements(bound) == expected(bound), (spec, bound)


def test_quad5_elements_read_the_kept_prefix(monkeypatch):
    ar = instance("quad5")
    fresh = list(itertools.takewhile(lambda q: q.norm() <= 200, ar.ideals()))
    monkeypatch.setattr(instances.Quad5, "ideals", lambda self: pytest.fail("ideals() ran again"))
    for bound in range(201):
        assert ar.elements(bound) == [QI_ZERO, *(q for q in fresh if q.norm() <= bound)], bound


def test_element_is_frozen():
    e = element(instance("gcd"), 4)
    assert isinstance(e, Element)
    with pytest.raises(Exception):
        e.payload = 5


def test_power_refuses_a_negative_exponent_for_every_kind():
    # unchecked, a negative k would keep the squaring loop going forever
    # (k >> 1 stays -1), so the check runs in a subprocess capped at 1 GiB and 10 s
    code = (
        "from semideal.instances import KINDS, instance\n"
        "for kind in KINDS:\n"
        "    ar = instance(kind)\n"
        "    for payload, element in ((ar.enumerated(3)[2], False), (ar.elements(5)[-1], True)):\n"
        "        try:\n"
        "            ar.power(payload, -1, element=element)\n"
        "        except ValueError as exc:\n"
        "            print(kind, element, exc)\n"
    )

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10, preexec_fn=cap)
    assert proc.returncode == 0, proc.stderr
    kinds = ("n0", "gcd", "gcd-supported", "dvs", "lagrassa", "quad5")
    assert proc.stdout.splitlines() == [f"{k} {e} negative ideal power" for k in kinds for e in (False, True)]


# the size ideals() orders each kind by
SIZE = {
    "n0": lambda a: max(natideal.minimal_generators(a)),
    "gcd": lambda a: a,
    "gcd-supported": lambda a: a,
    "dvs": lambda a: a,
    "lagrassa": ("zero", "u", "full").index,
    "quad5": lambda a: a.norm(),
}


def test_ideals_are_distinct_sized_in_order_and_canonical():
    for spec in (*ALL_IDS, "gcd-supported(2,3,5,7)"):
        inst = instance(spec)
        first = list(itertools.islice(inst.ideals(), 300))
        assert len(first) == (3 if spec == "lagrassa" else 300), spec
        assert inst.enumerated(300)[:300] == first, spec
        assert len(set(first)) == len(first), spec
        sizes = [SIZE[inst.kind](a) for a in first]
        assert sizes == sorted(sizes), spec
        for a in first:
            assert inst.ideal(inst.generators(a)) == a, (spec, a)
        if spec != "lagrassa":
            assert inst.zero not in first, spec


def test_ideals_are_every_ideal_up_to_their_size():
    # gcd-supported: every smooth number up to the 300th, from the exponents
    for spec in ("gcd-supported(2,3)", "gcd-supported(2,3,5,7)"):
        ar = instance(spec)
        first = ar.enumerated(300)[:300]
        top = first[-1]
        smooth = {1}
        for p in instance(spec).support:
            smooth = {n * p**e for n in smooth for e in range(top.bit_length()) if n * p**e <= top}
        assert first == sorted(smooth), spec
    # n0: the ideals spanned by the subsets of 1..9, by largest minimal
    # generator, then by the sorted generator tuple
    ar = instance("n0")
    spanned = {natideal.from_generators(gens) for r in range(1, 10) for gens in itertools.combinations(range(1, 10), r)}
    want = sorted(spanned, key=lambda a: (max(natideal.minimal_generators(a)), natideal.minimal_generators(a)))
    assert ar.enumerated(len(want) + 1)[: len(want)] == want
    assert max(natideal.minimal_generators(ar.enumerated(len(want) + 1)[len(want)])) == 10
    # quad5: the root scan over every norm up to 1000, in its order
    want = [QuadIdeal(*t) for t in quad_ideals(1000)]
    assert len(want) == 1403
    assert instance("quad5").enumerated(1403)[:1403] == want


def test_clear_matches_the_fraction_form():
    # each numerator times den / its denominator, as int(r * den) gives it
    rng = random.Random(30)
    smooth = (1, 2, 3, 4, 6, 9, 16, 27, 72)
    for spec, dens in (("n0", range(1, 60)), ("gcd", range(1, 60)), ("quad5", range(1, 60)), ("gcd-supported(2,3)", smooth)):
        inst = instance(spec)
        for _ in range(400):
            rats = [Fraction(rng.randint(0, 10 ** rng.randint(1, 30)), rng.choice(dens)) for _ in range(rng.randint(1, 6))]
            den = math.lcm(*(r.denominator for r in rats))
            assert inst.clear(rats) == ([int(r * den) for r in rats], den), (spec, rats)
    assert instance("dvs").clear([Fraction(3), Fraction(0), Fraction(5)]) == ([3, 0, 5], 0)
    with pytest.raises(NotFractional):
        instance("n0").clear([Fraction(1, 2), Fraction(-1, 3)])
    with pytest.raises(NotFractional):
        instance("gcd").clear([Fraction(-4)])
    with pytest.raises(OutOfSupport):
        instance("gcd-supported(2,3)").clear([Fraction(1, 2), Fraction(1, 5)])
    with pytest.raises(Unsupported):
        instance("dvs").clear([Fraction(3), Fraction(1, 2)])
