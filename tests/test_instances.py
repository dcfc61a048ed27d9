"""Instance lookup, element validation, and element arithmetic."""

import math
import resource
import subprocess
import sys

import pytest

from semideal import (
    Element,
    InstanceMismatch,
    OutOfSupport,
    check_semidomain,
    element,
    element_op,
    enumerate_payloads,
    instance,
    one,
    payload_str,
    zero,
)
from semideal.errors import InvalidInput
from semideal.quadratic import QI_ONE, QI_ZERO, QuadIdeal

ALL_IDS = ["n0", "gcd", "gcd-supported(2,3)", "dvs", "lagrassa", "quad5"]


def test_instance_ids_and_flags():
    n0 = instance("n0")
    assert (n0.is_semidomain, n0.is_subtractive, n0.is_dedekind, n0.is_noetherian) == (
        True,
        False,
        False,
        True,
    )
    for spec in ("gcd", "gcd-supported(2,3)", "dvs"):
        inst = instance(spec)
        assert inst.is_semidomain and inst.is_subtractive and inst.is_dedekind
    lag = instance("lagrassa")
    assert not lag.is_semidomain and not lag.is_dedekind
    q = instance("quad5")
    assert q.is_semidomain and q.is_subtractive
    assert q.is_dedekind is True and q.is_noetherian is True


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
        for x in [element(inst, p) for p in enumerate_payloads(inst, 6)]:
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
        elems = [element(inst, p) for p in enumerate_payloads(inst, 4)]
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


def test_check_semidomain_verdicts():
    for spec in ("n0", "gcd", "gcd-supported(2,3)", "dvs", "quad5"):
        rep = check_semidomain(instance(spec), 8)
        assert rep.status == "pass", spec
    rep = check_semidomain(instance("lagrassa"), 8)
    assert rep.status == "fail"
    assert rep.witness == {"a": "u", "b": "u", "c": "1", "product": "u"}


def test_payload_str():
    assert payload_str("dvs", None) == "0"
    assert payload_str("dvs", 0) == "1"
    assert payload_str("dvs", 4) == "t^4"
    assert payload_str("quad5", QI_ZERO) == "0"
    assert payload_str("quad5", QI_ONE) == "1"
    assert payload_str("quad5", QuadIdeal(6, 1, 0)) == "6"
    assert payload_str("quad5", QuadIdeal(1, 2, 1)) == "(2, 1+w)"
    assert payload_str("quad5", QuadIdeal(2, 3, 1)) == "2*(3, 1+w)"


def test_enumerate_payloads_shapes():
    assert enumerate_payloads(instance("n0"), 3) == [0, 1, 2, 3]
    assert enumerate_payloads(instance("gcd-supported(2,3)"), 10) == [0, 1, 2, 3, 4, 6, 8, 9]
    assert enumerate_payloads(instance("dvs"), 2) == [None, 0, 1, 2]
    assert enumerate_payloads(instance("lagrassa"), 99) == ["0", "u", "1"]
    quads = enumerate_payloads(instance("quad5"), 6)
    assert quads[0] == QI_ZERO
    assert QI_ONE in quads and QuadIdeal(1, 2, 1) in quads


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
        "    ar = instance(kind).arith\n"
        "    for payload, element in ((ar.grid()[-1], False), (ar.elements(5)[-1], True)):\n"
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
