"""Value semantics of the package's records (``reports.Record``)."""

import subprocess
import sys
from fractions import Fraction

import pytest

import semideal.cli  # noqa: F401  imports every module that defines a record
from semideal import instance
from semideal.exprparse import IdealLit, Intersect, Invert, Power, Product, Quotient, Sum
from semideal.fractional import ExponentVector, FracIdeal
from semideal.ideals import Ideal
from semideal.instances import Element, Instance, Tagged
from semideal.natideal import NatIdeal
from semideal.polynomials import Polynomial
from semideal.quadratic import QuadIdeal
from semideal.reports import ContentReport, LawReport, Record
from semideal.spectrum import PrimeLabel

GCD = instance("gcd")
LIT = IdealLit((Fraction(2),))
LABEL = PrimeLabel(GCD, "numeric", 7)

# (class, field values, repr in the format of a generated dataclass)
CASES = [
    (Instance, ("gcd", "gcd", None, True, True, True, True),
     "Instance(id='gcd', kind='gcd', support=None, is_semidomain=True, is_subtractive=True, "
     "is_dedekind=True, is_noetherian=True)"),
    (Element, (GCD, 6), f"Element(instance={GCD!r}, payload=6)"),
    (Ideal, (GCD, 6), f"Ideal(instance={GCD!r}, payload=6)"),
    (FracIdeal, (GCD, Fraction(6, 5)), "FracIdeal(gcd, I(6/5))"),
    (NatIdeal, (2, 4, 0b10), "NatIdeal(d=2, c=4, ex=(2,))"),
    (QuadIdeal, (1, 3, 1), "QuadIdeal(g=1, a=3, b=1)"),
    (PrimeLabel, (GCD, "quad", 3, 1), f"PrimeLabel(instance={GCD!r}, kind='quad', p=3, b=1)"),
    (ExponentVector, (((LABEL, 2),),), f"ExponentVector(items=(({LABEL!r}, 2),))"),
    (Polynomial, (GCD, (1, 2)), f"Polynomial(instance={GCD!r}, coeffs=(1, 2))"),
    (LawReport, ("reyes", "gcd", 5, 1, "pass", None),
     "LawReport(law='reyes', instance='gcd', trials=5, seed=1, status='pass', witness=None)"),
    (ContentReport, ("gcd", "2", "3", "I(2)", "I(3)", "I(1)", "I(6)", False, None, None),
     "ContentReport(instance='gcd', f='2', g='3', content_f='I(2)', content_g='I(3)', content_fg='I(1)', "
     "product='I(6)', gaussian=False, dm_exponent=None, witness=None)"),
    (IdealLit, ((Fraction(2),),), "IdealLit(values=(Fraction(2, 1),))"),
    (Sum, (LIT, LIT), f"Sum(left={LIT!r}, right={LIT!r})"),
    (Intersect, (LIT, LIT), f"Intersect(left={LIT!r}, right={LIT!r})"),
    (Product, (LIT, LIT), f"Product(left={LIT!r}, right={LIT!r})"),
    (Power, (LIT, 3), f"Power(base={LIT!r}, exponent=3)"),
    (Quotient, (LIT, LIT), f"Quotient(numerator={LIT!r}, denominator={LIT!r})"),
    (Invert, (LIT,), f"Invert(arg={LIT!r})"),
]


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_classes(sub)


def test_every_record_class_is_covered():
    assert set(_record_classes()) - {Tagged} == {cls for cls, _, _ in CASES}


@pytest.mark.parametrize("cls, values, text", CASES, ids=[cls.__name__ for cls, _, _ in CASES])
def test_record_semantics(cls, values, text):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != tuple(values) and tuple(values) != a
    for other, _, _ in CASES:
        if other is not cls and len(other._fields) == len(values):
            assert a != other(*values)
    assert repr(a) == text
    with pytest.raises(AttributeError):
        setattr(a, cls._fields[0], values[0])
    with pytest.raises(AttributeError):
        delattr(a, cls._fields[0])
    with pytest.raises(AttributeError):
        a.extra = 1
    assert [getattr(a, n) for n in cls._fields] == list(values)


def test_record_keywords_defaults_and_dict_order():
    assert PrimeLabel(GCD, "t") == PrimeLabel(GCD, "t", None, None) == PrimeLabel(instance=GCD, kind="t", p=None)
    report = LawReport(law="reyes", instance="gcd", trials=5, seed=1, status="fail", witness={"a": "I(2)"})
    assert report == LawReport("reyes", "gcd", 5, 1, "fail", {"a": "I(2)"})
    assert list(report.to_dict()) == ["law", "instance", "trials", "seed", "status", "witness"]
    for args, kwargs in (((1,), {}), ((1, 2, 3), {}), ((1,), {"left": 2}), ((1, 2), {"bogus": 3})):
        with pytest.raises(TypeError):
            Sum(*args, **kwargs)


def test_import_and_one_command_load_no_dataclass_machinery():
    code = (
        "import sys, semideal, semideal.cli\n"
        "assert semideal.cli.main(['eval', '--instance', 'gcd', 'I(4)+I(6)']) == 0\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "I(2)\n[]\n"
