"""Identity checking over sampled ideal tuples, with shrunk witnesses.

Every law is decided exactly: a deterministic grid of small ideals is swept
first (so known counterexamples surface at fixed trial indices), then seeded
random tuples fill the remaining budget. A failing tuple is shrunk by
dropping the largest generator, then decrementing generator values, as long
as the law still fails.

Law ids:

  dedekind-identity            (A+B+C)(BC+CA+AB) = (B+C)(C+A)(A+B)
  dedekind2-law-1              every nonzero integral ideal is invertible
  dedekind2-law-2              a(b & c) = ab & ac
  dedekind2-law-3              (a+b)(a & b) = ab
  dedekind2-law-4              [(a+b):c] = [a:c]+[b:c]
  dedekind2-law-5              [a:b]+[b:a] = S
  dedekind2-law-6              [c:(a & b)] = [c:a]+[c:b]
  distributive-lattice         a & (b+c) = (a & b)+(a & c)
  coprime-identities           prime-power exponents: sum/meet/product = min/max/add
  reyes                        b invertible, b >= a  =>  a = b[a:b]
  quotient-absorb              [ab:a]a = ab
  contains-iff-divides         a >= b  <=>  some c with ac = b
  multiplicative-cancellation  ab = ac, a nonzero  =>  b = c (element level)
"""

from __future__ import annotations

import itertools
import random

from . import natideal as nat
from .errors import Unsupported, UnknownLaw
from .fractional import frac_from_ideal, frac_invert, frac_str
from .ideals import (
    Ideal,
    divides,
    ideal_contains,
    ideal_equals,
    ideal_from_generators,
    ideal_intersect,
    ideal_product,
    ideal_quotient,
    ideal_str,
    ideal_sum,
    is_zero,
    min_nonzero,
    separating_member,
    unit_ideal,
)
from .instances import check_semidomain, payload_str
from .quadratic import enumerate_ideals
from .reports import LawReport

LAW_IDS = (
    "dedekind-identity",
    "dedekind2-law-1",
    "dedekind2-law-2",
    "dedekind2-law-3",
    "dedekind2-law-4",
    "dedekind2-law-5",
    "dedekind2-law-6",
    "distributive-lattice",
    "coprime-identities",
    "reyes",
    "quotient-absorb",
    "contains-iff-divides",
    "multiplicative-cancellation",
)

_ALL = ("n0", "gcd", "gcd-supported", "dvs", "lagrassa", "quad5")
_FRACTIONAL = ("n0", "gcd", "gcd-supported", "dvs", "quad5")


# ---------------------------------------------------------------------------
# samplers


_N0_GRID = (
    (1,),
    (2,),
    (3,),
    (4,),
    (5,),
    (2, 3),
    (3, 4, 5),
    (4, 6, 9),
    (2, 5),
    (6, 10, 15),
    (4, 5),
    (3, 5, 7),
)


def _grid(inst):
    kind = inst.kind
    if kind == "n0":
        return [ideal_from_generators(inst, g) for g in _N0_GRID]
    if kind == "gcd":
        return [Ideal(inst, g) for g in (1, 2, 3, 4, 5, 6, 12, 30, 7, 96)]
    if kind == "gcd-supported":
        p, q = inst.support[0], inst.support[1] if len(inst.support) > 1 else inst.support[0]
        vals = sorted({1, p, q, p * q, p * p, p * p * q, p**3 * q * q})
        return [Ideal(inst, g) for g in vals]
    if kind == "dvs":
        return [Ideal(inst, e) for e in (0, 1, 2, 5, 3)]
    if kind == "lagrassa":
        return [Ideal(inst, p) for p in ("zero", "u", "full")]
    return [Ideal(inst, q) for q in enumerate_ideals(12)]


_QUAD_POOL = None


def _random_ideal(inst, rng):
    kind = inst.kind
    if kind == "n0":
        gens = [rng.randint(1, 40) for _ in range(rng.randint(1, 4))]
        return ideal_from_generators(inst, gens)
    if kind == "gcd":
        return Ideal(inst, rng.randint(1, 10**6))
    if kind == "gcd-supported":
        g = 1
        for p in inst.support:
            g *= p ** rng.randint(0, 9)
        return Ideal(inst, g)
    if kind == "dvs":
        return Ideal(inst, rng.randint(0, 20))
    if kind == "lagrassa":
        return Ideal(inst, rng.choice(("u", "full")))
    global _QUAD_POOL
    if _QUAD_POOL is None:
        _QUAD_POOL = enumerate_ideals(200)
    return Ideal(inst, rng.choice(_QUAD_POOL))


def _tuples(inst, arity, trials, seed):
    """Grid prefix in deterministic order, then random fill, trials total."""
    if inst.kind == "lagrassa":
        yield from itertools.product(_grid(inst), repeat=arity)
        return
    count = 0
    for tup in itertools.product(_grid(inst), repeat=arity):
        if count >= trials:
            return
        count += 1
        yield tup
    rng = random.Random(seed)
    while count < trials:
        count += 1
        yield tuple(_random_ideal(inst, rng) for _ in range(arity))


# ---------------------------------------------------------------------------
# checkers: tuple of ideals -> witness dict | None


def _sides_witness(names, tup, left, right):
    w = {name: ideal_str(i) for name, i in zip(names, tup)}
    w["left"] = ideal_str(left)
    w["right"] = ideal_str(right)
    if ideal_contains(right, left):
        member = separating_member(left, right)
        if member is not None:
            w["missing_from_left"] = payload_str(tup[0].instance.kind, member)
    elif ideal_contains(left, right):
        member = separating_member(right, left)
        if member is not None:
            w["missing_from_right"] = payload_str(tup[0].instance.kind, member)
    return w


def _dedekind_identity(tup):
    a, b, c = tup
    left = ideal_product(
        ideal_sum(ideal_sum(a, b), c),
        ideal_sum(ideal_sum(ideal_product(b, c), ideal_product(c, a)), ideal_product(a, b)),
    )
    right = ideal_product(
        ideal_product(ideal_sum(b, c), ideal_sum(c, a)), ideal_sum(a, b)
    )
    if ideal_equals(left, right):
        return None
    return _sides_witness(("a", "b", "c"), tup, left, right)


def _law1(tup):
    (a,) = tup
    if is_zero(a):
        return None
    fa = frac_from_ideal(a)
    if frac_invert(fa) is not None:
        return None
    from .fractional import frac_product, frac_quotient, frac_unit

    cand = frac_quotient(frac_unit(a.instance), fa)
    return {
        "a": ideal_str(a),
        "candidate_inverse": frac_str(cand),
        "product": frac_str(frac_product(fa, cand)),
    }


def _law2(tup):
    a, b, c = tup
    left = ideal_product(a, ideal_intersect(b, c))
    right = ideal_intersect(ideal_product(a, b), ideal_product(a, c))
    if ideal_equals(left, right):
        return None
    return _sides_witness(("a", "b", "c"), tup, left, right)


def _law3(tup):
    a, b = tup
    left = ideal_product(ideal_sum(a, b), ideal_intersect(a, b))
    right = ideal_product(a, b)
    if ideal_equals(left, right):
        return None
    return _sides_witness(("a", "b"), tup, left, right)


def _law4(tup):
    a, b, c = tup
    if is_zero(c):
        return None
    left = ideal_quotient(ideal_sum(a, b), c)
    right = ideal_sum(ideal_quotient(a, c), ideal_quotient(b, c))
    if ideal_equals(left, right):
        return None
    return _sides_witness(("a", "b", "c"), tup, left, right)


def _law5(tup):
    a, b = tup
    if is_zero(a) or is_zero(b):
        return None
    left = ideal_sum(ideal_quotient(a, b), ideal_quotient(b, a))
    right = unit_ideal(a.instance)
    if ideal_equals(left, right):
        return None
    return _sides_witness(("a", "b"), tup, left, right)


def _law6(tup):
    a, b, c = tup
    meet = ideal_intersect(a, b)
    if is_zero(meet):
        return None
    left = ideal_quotient(c, meet)
    right = ideal_sum(ideal_quotient(c, a), ideal_quotient(c, b))
    if ideal_equals(left, right):
        return None
    return _sides_witness(("a", "b", "c"), tup, left, right)


def _distributive(tup):
    a, b, c = tup
    left = ideal_intersect(a, ideal_sum(b, c))
    right = ideal_sum(ideal_intersect(a, b), ideal_intersect(a, c))
    if ideal_equals(left, right):
        return None
    return _sides_witness(("a", "b", "c"), tup, left, right)


def _reyes(tup):
    a, b0 = tup
    inst = a.instance
    if is_zero(a):
        return None
    if inst.kind == "n0":
        # force an invertible cover: principal (m) with m dividing the content
        import math

        m = math.gcd(min_nonzero(b0) if not is_zero(b0) else 1, a.payload.d)
        m = max(m, 1)
        b = ideal_from_generators(inst, [m])
    else:
        b = ideal_sum(a, b0)
    if is_zero(b):
        return None
    recovered = ideal_product(b, ideal_quotient(a, b))
    if ideal_equals(recovered, a):
        return None
    w = _sides_witness(("a", "b_sampled"), tup, recovered, a)
    w["b"] = ideal_str(b)
    return w


def _quotient_absorb(tup):
    a, b = tup
    if is_zero(a):
        return None
    ab = ideal_product(a, b)
    left = ideal_product(ideal_quotient(ab, a), a)
    if ideal_equals(left, ab):
        return None
    return _sides_witness(("a", "b"), tup, left, ab)


def _contains_iff_divides(tup):
    a, b = tup
    if is_zero(a):
        return None
    cont = ideal_contains(a, b)
    cof = divides(a, b)
    if cont == (cof is not None):
        return None
    w = {"a": ideal_str(a), "b": ideal_str(b), "contains": cont}
    if cof is None:
        q = ideal_quotient(b, a)
        prod = ideal_product(a, q)
        w["largest_cofactor"] = ideal_str(q)
        w["product"] = ideal_str(prod)
        member = separating_member(prod, b)
        if member is not None:
            w["missing_from_product"] = payload_str(a.instance.kind, member)
    else:
        w["cofactor"] = ideal_str(cof)
    return w


_CHECKERS = {
    "dedekind-identity": (3, _ALL, _dedekind_identity),
    "dedekind2-law-1": (1, _FRACTIONAL, _law1),
    "dedekind2-law-2": (3, _ALL, _law2),
    "dedekind2-law-3": (2, _ALL, _law3),
    "dedekind2-law-4": (3, _ALL, _law4),
    "dedekind2-law-5": (2, _ALL, _law5),
    "dedekind2-law-6": (3, _ALL, _law6),
    "distributive-lattice": (3, _ALL, _distributive),
    "reyes": (2, _FRACTIONAL, _reyes),
    "quotient-absorb": (2, _ALL, _quotient_absorb),
    "contains-iff-divides": (2, _FRACTIONAL, _contains_iff_divides),
}


# ---------------------------------------------------------------------------
# shrinking


def _shrink_variants(a):
    kind = a.instance.kind
    if kind == "n0":
        gens = list(nat.minimal_generators(a.payload))
    elif kind in ("gcd", "gcd-supported", "dvs"):
        gens = [a.payload]
    else:
        return
    if len(gens) > 1:
        smaller = sorted(gens)[:-1]
        yield ideal_from_generators(a.instance, smaller)
    for i, g in enumerate(gens):
        if g > 1:
            cand = gens[:i] + [g - 1] + gens[i + 1 :]
            if kind == "gcd-supported":
                from .instances import _smooth

                if not _smooth(g - 1, a.instance.support):
                    continue
            yield ideal_from_generators(a.instance, cand)


def _shrink(checker, tup):
    changed = True
    while changed:
        changed = False
        for i in range(len(tup)):
            for cand in _shrink_variants(tup[i]):
                trial = tup[:i] + (cand,) + tup[i + 1 :]
                if checker(trial) is not None:
                    tup = trial
                    changed = True
                    break
            if changed:
                break
    return tup


# ---------------------------------------------------------------------------
# coprime exponent law (its inputs are exponent vectors, not plain ideals)


def _check_coprime(inst, trials, seed):
    primes = inst.support if inst.kind == "gcd-supported" else (2, 3, 5, 7)
    grid = [
        ((3, 1, 0, 0), (1, 2, 0, 0)),
        ((0, 0, 0, 0), (0, 0, 0, 0)),
        ((1, 0, 1, 0), (0, 1, 0, 1)),
    ]
    rng = random.Random(seed)
    count = 0

    def build(exps):
        g = 1
        for p, e in zip(primes, exps):
            g *= p**e
        return Ideal(inst, g)

    def one(e, f):
        a, b = build(e), build(f)
        cases = (
            ("sum", ideal_sum(a, b), tuple(min(x, y) for x, y in zip(e, f))),
            ("intersect", ideal_intersect(a, b), tuple(max(x, y) for x, y in zip(e, f))),
            ("product", ideal_product(a, b), tuple(x + y for x, y in zip(e, f))),
        )
        for name, got, expect in cases:
            if not ideal_equals(got, build(expect)):
                return {
                    "exponents_a": list(e),
                    "exponents_b": list(f),
                    "primes": list(primes),
                    "operation": name,
                    "got": ideal_str(got),
                    "expected": ideal_str(build(expect)),
                }
        return None

    for e, f in grid:
        if count >= trials:
            break
        e = e[: len(primes)]
        f = f[: len(primes)]
        count += 1
        w = one(e, f)
        if w is not None:
            return LawReport("coprime-identities", inst.id, count, seed, "fail", w)
    while count < trials:
        count += 1
        e = tuple(rng.randint(0, 8) for _ in primes)
        f = tuple(rng.randint(0, 8) for _ in primes)
        w = one(e, f)
        if w is not None:
            return LawReport("coprime-identities", inst.id, count, seed, "fail", w)
    return LawReport("coprime-identities", inst.id, count, seed, "pass", None)


# ---------------------------------------------------------------------------
# entry point


def check_law(inst, law, trials=200, seed=0) -> LawReport:
    if law == "multiplicative-cancellation":
        report = check_semidomain(inst, bound=min(trials, 60))
        return LawReport(report.law, report.instance, report.trials, seed, report.status, report.witness)
    if law == "coprime-identities":
        if inst.kind not in ("gcd", "gcd-supported"):
            raise Unsupported(f"coprime-identities needs numeric prime ideals, not {inst.kind}")
        return _check_coprime(inst, trials, seed)
    if law not in _CHECKERS:
        raise UnknownLaw(f"unknown law id {law!r}")
    arity, kinds, checker = _CHECKERS[law]
    if inst.kind not in kinds:
        raise Unsupported(f"law {law} is not defined on {inst.kind}")
    count = 0
    for tup in _tuples(inst, arity, trials, seed):
        count += 1
        if checker(tup) is not None:
            tup = _shrink(checker, tup)
            return LawReport(law, inst.id, count, seed, "fail", checker(tup))
    return LawReport(law, inst.id, count, seed, "pass", None)
