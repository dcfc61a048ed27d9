"""Pins the behaviour of the ideal layer and of what fractional ideals make possible, and where kinds are told apart.

``render()`` calls every public function of ``semideal.ideals`` and
``semideal.fractional`` on small fixed ideals, zero, unit, a seeded random sample
of ideals of all six instances and ideals spanned by rationals, and writes
one line per call: the result, or the exception with its message. The digest
of that text was last computed when a lagrassa ideal became its generator:
the 2,606 lines that show one changed ``Ideal(lagrassa, 'zero')`` to
``Ideal(lagrassa, '0')`` and ``Ideal(lagrassa, 'full')`` to
``Ideal(lagrassa, '1')``, and no other line changed. Before that, when the
instance became the object of its kind class, the 1,204 lines that show an
instance argument changed from the ``Instance(id=..., ...)`` record's repr to
``instance('<id>')``, and no other line changed. Before that, a generator
of the wrong type became an ``InvalidInput`` (seven
``ideal_from_generators(…, [Ideal(gcd, …)])`` lines, one per instance, had
raised ``TypeError`` or ``ValueError``); before that,
when the integral and fractional ideal types became the one ``Ideal``, every
call of the render was checked against its counterpart in the one type, and
CHANGES.md counts the calls whose text changed, by reason. Change it only
with a note in CHANGES.md saying why the output changed.
"""

import ast
import hashlib
import pathlib
import random
import types
from fractions import Fraction

import pytest

import semideal
from semideal import fractional, ideals, instances, laws
from semideal.instances import KINDS, instance

DIGEST = "9932970fce26ba72750784f08b7c6201947bfd3647cf5670fcafa76b0481d0ec"

INSTANCES = ("n0", "gcd", "gcd-supported(2,3)", "gcd-supported(2,3,5,7)", "dvs", "quad5", "lagrassa")

# generator lists of small ideals
GRIDS = {
    "n0": [(1,), (2,), (3,), (4,), (5,), (2, 3), (3, 4, 5), (4, 6, 9), (2, 5), (6, 10, 15), (4, 5), (3, 5, 7)],
    "gcd": [(g,) for g in (1, 2, 3, 4, 5, 6, 12, 30, 7, 96)],
    "gcd-supported(2,3)": [(g,) for g in (1, 2, 3, 6, 4, 12, 72)],
    "gcd-supported(2,3,5,7)": [(g,) for g in (1, 2, 3, 6, 4, 12, 72, 5, 35)],
    "dvs": [(e,) for e in (0, 1, 2, 5, 3)],
    "quad5": None,  # filled from the element sample below
    "lagrassa": [("0",), ("u",), ("1",)],
}


def _show(x):
    if isinstance(x, ideals.Ideal):
        return f"{type(x).__name__}({x.instance.id}, {x.payload!r})"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_show(y) for y in x) + "]"
    if isinstance(x, fractional.ExponentVector):
        return x.text()
    return repr(x)


def _call(out, name, fn, *args):
    try:
        result = _show(fn(*args))
    except Exception as exc:  # the exception and its message are the result
        result = f"{type(exc).__name__}: {exc}"
    out.append(f"{name}{tuple(_show(a) for a in args)} -> {result}")


def _random_gens(inst_id, rng):
    n = rng.randint(1, 3)
    if inst_id == "n0":
        return tuple(rng.randint(1, 12) for _ in range(n))
    if inst_id == "gcd":
        return tuple(rng.randint(0, 2000) for _ in range(n))
    if inst_id.startswith("gcd-supported"):
        primes = (2, 3) if inst_id.endswith("(2,3)") else (2, 3, 5, 7)
        return tuple(rng.choice((0, 1)) * _prod(p ** rng.randint(0, 4) for p in primes) for _ in range(n))
    if inst_id == "dvs":
        return tuple(rng.choice((None, rng.randint(0, 9))) for _ in range(n))
    if inst_id == "lagrassa":
        return tuple(rng.choice(("0", "u", "1")) for _ in range(n))
    return tuple(rng.randint(0, 12) for _ in range(n))


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def _sample(inst_id, rng):
    inst = instance(inst_id)
    gens = GRIDS[inst_id] or [(q,) for q in inst.elements(9)]
    gens = gens + [_random_gens(inst_id, rng) for _ in range(6)]
    out = [ideals.zero_ideal(inst), ideals.unit_ideal(inst)]
    for g in gens:
        out.append(ideals.ideal_from_generators(inst, g))
    return out


def render():
    rng = random.Random(2024)
    out = []
    other = ideals.unit_ideal(instance("gcd"))
    for inst_id in INSTANCES:
        inst = instance(inst_id)
        sample = _sample(inst_id, rng)
        elems = inst.elements(6)
        for fn in (ideals.zero_ideal, ideals.unit_ideal):
            _call(out, fn.__name__, fn, inst)
        _call(out, "ideal_from_generators", ideals.ideal_from_generators, inst, [semideal.one(inst), elems[-1]])
        _call(out, "ideal_from_generators", ideals.ideal_from_generators, inst, [other])
        for a in sample:
            for fn in (
                ideals.is_zero, ideals.is_integral, ideals.generators, ideals.ideal_str, ideals.is_subtractive,
                ideals.is_prime, ideals.is_maximal, ideals.min_nonzero, ideals.search_between, ideals.ideal_invert,
            ):
                _call(out, fn.__name__, fn, a)
            for k in range(-1, 4):
                _call(out, "ideal_power", ideals.ideal_power, a, k)
            for x in elems:
                _call(out, "ideal_membership", ideals.ideal_membership, a, x)
            _call(out, "ideal_membership", ideals.ideal_membership, a, semideal.zero(instance("dvs")))
            _call(out, "ideal_sum", ideals.ideal_sum, a, other)
            _call(out, "ideal_equals", ideals.ideal_equals, a, other)
            for b in sample:
                for fn in (
                    ideals.ideal_sum, ideals.ideal_product, ideals.ideal_intersect, ideals.ideal_quotient,
                    ideals.ideal_contains, ideals.ideal_equals, ideals.divides, ideals.separating_member,
                ):
                    _call(out, fn.__name__, fn, a, b)
            for member in (0, 1, 6, 12, 35, 96):
                _call(out, "two_generators", fractional.two_generators, a, member)
            for p in (2, 3, 4, 7):
                _call(out, "localize", fractional.localize, inst, p, a)
            for fn in (fractional.divisors_containing, fractional.finite_spec_principal_generator):
                _call(out, fn.__name__, fn, a)
        fracs = []
        for a in sample:
            for den in (1, 2, 3, 6):
                rats = [Fraction(g, den) for g in ideals.generators(a) if isinstance(g, int)]
                fracs.append(rats)
        for _ in range(6):
            fracs.append([Fraction(rng.randint(0, 30), rng.randint(1, 12)) for _ in range(rng.randint(1, 3))])
        fracs.append([Fraction(-1)])
        fracs.append([Fraction(1, 7)])
        values = []
        for rats in fracs:
            _call(out, "ideal_from_generators", ideals.ideal_from_generators, inst, rats)
            try:
                values.append(ideals.ideal_from_generators(inst, rats))
            except Exception:
                pass
        values = values[::3]
        for a in values:
            for fn in (
                ideals.is_integral, ideals.generators, ideals.is_zero, ideals.ideal_invert,
                fractional.inversion_witness, fractional.sandwich, ideals.ideal_str, fractional.uft_factor,
            ):
                _call(out, fn.__name__, fn, a)
            for k in range(-2, 3):
                _call(out, "ideal_power", ideals.ideal_power, a, k)
            try:
                vec = fractional.uft_factor(a)
                _call(out, "uft_compose", fractional.uft_compose, inst, vec)
            except Exception:
                pass
            for b in values:
                for fn in (
                    ideals.ideal_sum, ideals.ideal_product, ideals.ideal_intersect, ideals.ideal_quotient,
                    ideals.ideal_equals,
                ):
                    _call(out, fn.__name__, fn, a, b)
    _call(out, "next_prime", fractional.next_prime, 89)
    return "\n".join(out) + "\n"


def test_ideal_and_fractional_layers_render_as_pinned():
    text = render()
    called = {line.split("(", 1)[0] for line in text.splitlines()}
    public = {
        name
        for module in (ideals, fractional)
        for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType) and not name.startswith("_") and obj.__module__ == module.__name__
    }
    assert public - called == set()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST


KIND_CLASSES = {name for name, obj in vars(instances).items() if isinstance(obj, type) and issubclass(obj, instances.Kind)}


def _names(node):
    """The names a class argument of isinstance mentions: x, mod.x, (x, y)."""
    for n in getattr(node, "elts", [node]):
        if isinstance(n, (ast.Name, ast.Attribute)):
            yield n.id if isinstance(n, ast.Name) else n.attr


def kind_comparisons(source):
    """(line, text) of every comparison of ``.kind`` with a kind literal, and
    of every isinstance test against a kind class, in source."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
            and KIND_CLASSES.intersection(_names(node.args[1]))
        ):
            found.append((node.lineno, ast.unparse(node)))
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        reads_kind = any(isinstance(s, ast.Attribute) and s.attr == "kind" for s in sides)
        literals = [
            c.value for s in sides for c in ([s] if isinstance(s, ast.Constant) else getattr(s, "elts", ()))
            if isinstance(c, ast.Constant)
        ]
        if reads_kind and any(v in KINDS for v in literals):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_the_checker_finds_a_kind_comparison():
    source = 'a = inst.kind == "n0"\nb = x.kind in ("gcd", "dvs")\nc = lab.kind == "numeric"\nd = kind == "n0"\n'
    assert [line for line, _ in kind_comparisons(source)] == [1, 2]
    source = "a = isinstance(ar, GcdFamily)\nb = isinstance(ar, (int, instances.Lagrassa))\nc = isinstance(x, Element)\n"
    assert [line for line, _ in kind_comparisons(source)] == [1, 2]


def attribute_reads(source, names):
    """(line, name) of every attribute read ``x.name`` in source, for name in names."""
    return [
        (node.lineno, node.attr) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in names
    ]


def test_only_the_kind_module_compares_kinds():
    package = pathlib.Path(semideal.__file__).parent
    modules = sorted(p for p in package.rglob("*.py") if p.name != "instances.py")
    assert len(modules) > 10
    found = [
        f"{path.relative_to(package)}:{line}: {text}"
        for path in modules
        for line, text in kind_comparisons(path.read_text(encoding="utf-8"))
    ]
    # the kind picks each formula: ideals reads no flag, and only the kind
    # module reads the gcd family's support (gcd_family is no flag at all)
    for path in modules:
        names = {"gcd_family", "support"} | ({"semidomain", "dedekind"} if path.name == "ideals.py" else set())
        reads = attribute_reads(path.read_text(encoding="utf-8"), names)
        found += [f"{path.relative_to(package)}:{line}: .{name}" for line, name in reads]
    assert found == []
    assert not any(hasattr(instance(spec), "gcd_family") for spec in INSTANCES)


FLIPS = [(spec, "dedekind") for spec in ("n0", "gcd", "gcd-supported(2,3)", "dvs", "quad5", "lagrassa")]
FLIPS.append(("lagrassa", "semidomain"))


def _answers(inst):
    """ideal_quotient over every pair and ideal_invert of each of the first 30
    ideals, and law 1's verdict at 500 trials, each a result or an exception.
    Law 1's check runs on the tuples directly, not through check_law, whose
    gate reads semidomain: flipping it on lagrassa opens the gate, as it should."""
    def shown(fn, *args):
        try:
            return repr(fn(*args))
        except Exception as exc:  # the exception and its message are the answer
            return f"{type(exc).__name__}: {exc}"

    sample = [ideals.Ideal(inst, inst.join(A, inst.eone)) for A in inst.enumerated(30)[:30]]
    out = [shown(ideals.ideal_quotient, a, b) for a in sample for b in sample]
    out += [shown(ideals.ideal_invert, a) for a in sample]
    check = laws._law1(inst)
    out.append(shown(lambda: next((w for (a,) in laws._tuples(inst, 1, 500) if (w := check(a)) is not None), "pass")))
    return out


@pytest.mark.parametrize("spec, flag", FLIPS, ids=[f"{spec}-{flag}" for spec, flag in FLIPS])
def test_a_flipped_flag_changes_no_arithmetic(spec, flag, monkeypatch):
    # the flags are verdicts and gates: the quotient, the inverse and law 1's
    # verdict come from the kind's methods, whatever the flags say
    inst = instance(spec)
    expected = _answers(inst)
    monkeypatch.setattr(inst, flag, not getattr(inst, flag))
    assert _answers(inst) == expected
