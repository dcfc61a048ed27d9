"""Identity checking over sampled ideal tuples, with shrunk witnesses.

Every law is decided exactly: a deterministic grid of small ideals is swept
first (so known counterexamples surface at fixed trial indices), then seeded
random tuples fill the remaining budget. A failing tuple is shrunk by
dropping the largest generator, then decrementing generator values, as long
as the law still fails.

The random tuples come from one ``random.Random(seed)`` per check, read by
``instances._below``, which takes from the stream exactly what ``randrange``
would. On n0 a check runs on its own kind object, whose sum, product, meet,
quotient, containment and cofactor are each computed once per operand pair
(the kind's ``memoized``): the grid sweeps 12 ideals, so b+c, bc and the
rest recur for every a, and in the default suite only 28% of the n0
operations have operands not already seen in their own check. The memo is
made per check and dropped with it, and a raise is not remembered.

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
import math
import random

from .errors import TooLarge, Unsupported, UnknownLaw
from .fractional import _invert, _quotient
from .instances import _below, check_semidomain
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


# ---------------------------------------------------------------------------
# sampler: the kind object's grid, random draw and shrink steps


def _tuples(ar, arity, trials, seed):
    """Grid prefix in deterministic order, then random fill, trials total."""
    grid = ar.grid()
    tuples = itertools.product(grid, repeat=arity)
    if ar.finite:
        return tuples
    rng = random.Random(seed)
    fill = (tuple(ar.random(rng) for _ in range(arity)) for _ in range(trials - len(grid) ** arity))
    return itertools.chain(itertools.islice(tuples, trials), fill)


# ---------------------------------------------------------------------------
# per-check memo: the kind object names the operations worth remembering


_MISSING = object()

# Results one operation's memo keeps before it starts over. A full sweep of
# n0's 12^3 grid meets at most 2,002 operand pairs per operation; the random
# fill's pairs seldom recur, and 10^4 dedekind-identity trials on n0 peaked at
# about 93 MB without a bound and 25 MB with this one, 19 MB with no memo.
MEMO_SIZE = 4096


def _once(op):
    """The binary op, computed once per operand pair; a raise is not kept, so
    it is raised again when the pair recurs."""
    done = {}
    get = done.get

    def once(x, y):
        key = (x, y)
        r = get(key, _MISSING)
        if r is _MISSING:
            if len(done) >= MEMO_SIZE:
                done.clear()
            r = done[key] = op(x, y)
        return r

    return once


def _memoized(ar):
    """ar, or a new kind object for its instance whose ``ar.memoized``
    operations are each computed once per operand pair; it, and the results
    it keeps, live for one check."""
    if not ar.memoized:
        return ar
    memo = type(ar)(ar.instance)
    for name in ar.memoized:
        setattr(memo, name, _once(getattr(ar, name)))
    return memo


# ---------------------------------------------------------------------------
# checkers: (kind object, ideal payloads...) -> witness dict | None


def _sides_witness(ar, names, tup, left, right):
    w = {name: ar.str(x) for name, x in zip(names, tup)}
    w["left"] = ar.str(left)
    w["right"] = ar.str(right)
    for key, small, big in (("missing_from_left", left, right), ("missing_from_right", right, left)):
        if ar.contains(big, small):
            member = ar.separating(small, big)
            if member is not None:
                w[key] = ar.estr(member)
            break
    return w


def _dedekind_identity(ar, a, b, c):
    add, mul = ar.add, ar.mul
    left = mul(add(add(a, b), c), add(add(mul(b, c), mul(c, a)), mul(a, b)))
    right = mul(mul(add(b, c), add(c, a)), add(a, b))
    return None if left == right else _sides_witness(ar, "abc", (a, b, c), left, right)


def _law1(ar, a):
    if a == ar.zero:
        return None
    fa = ar.join(a, ar.eone)  # a as a fractional ideal
    if _invert(ar, fa) is not None:
        return None
    cand = _quotient(ar, ar.join(ar.one, ar.eone), fa)
    return {"a": ar.str(a), "candidate_inverse": ar.frac_str(cand), "product": ar.frac_str(ar.frac_mul(fa, cand))}


def _law2(ar, a, b, c):
    left = ar.mul(a, ar.meet(b, c))
    right = ar.meet(ar.mul(a, b), ar.mul(a, c))
    return None if left == right else _sides_witness(ar, "abc", (a, b, c), left, right)


def _law3(ar, a, b):
    left = ar.mul(ar.add(a, b), ar.meet(a, b))
    right = ar.mul(a, b)
    return None if left == right else _sides_witness(ar, "ab", (a, b), left, right)


def _law4(ar, a, b, c):
    if c == ar.zero:
        return None
    left = ar.quotient(ar.add(a, b), c)
    right = ar.add(ar.quotient(a, c), ar.quotient(b, c))
    return None if left == right else _sides_witness(ar, "abc", (a, b, c), left, right)


def _law5(ar, a, b):
    if a == ar.zero or b == ar.zero:
        return None
    left = ar.add(ar.quotient(a, b), ar.quotient(b, a))
    return None if left == ar.one else _sides_witness(ar, "ab", (a, b), left, ar.one)


def _law6(ar, a, b, c):
    meet = ar.meet(a, b)
    if meet == ar.zero:
        return None
    left = ar.quotient(c, meet)
    right = ar.add(ar.quotient(c, a), ar.quotient(c, b))
    return None if left == right else _sides_witness(ar, "abc", (a, b, c), left, right)


def _distributive(ar, a, b, c):
    left = ar.meet(a, ar.add(b, c))
    right = ar.add(ar.meet(a, b), ar.meet(a, c))
    return None if left == right else _sides_witness(ar, "abc", (a, b, c), left, right)


def _reyes(ar, a, b0):
    if a == ar.zero:
        return None
    b = ar.cover(a, b0)
    if b == ar.zero:
        return None
    recovered = ar.mul(b, ar.quotient(a, b))
    if recovered == a:
        return None
    w = _sides_witness(ar, ("a", "b_sampled"), (a, b0), recovered, a)
    w["b"] = ar.str(b)
    return w


def _quotient_absorb(ar, a, b):
    if a == ar.zero:
        return None
    ab = ar.mul(a, b)
    left = ar.mul(ar.quotient(ab, a), a)
    return None if left == ab else _sides_witness(ar, "ab", (a, b), left, ab)


def _contains_iff_divides(ar, a, b):
    if a == ar.zero or b == ar.zero:  # a contains 0 = a*0
        return None
    cont = ar.contains(a, b)
    cof = ar.cofactor(b, a)
    if cont == (cof is not None):
        return None
    w = {"a": ar.str(a), "b": ar.str(b), "contains": cont}
    if cof is None:
        q = ar.quotient(b, a)
        prod = ar.mul(a, q)
        w["largest_cofactor"] = ar.str(q)
        w["product"] = ar.str(prod)
        member = ar.separating(prod, b)
        if member is not None:
            w["missing_from_product"] = ar.estr(member)
    else:
        w["cofactor"] = ar.str(cof)
    return w


# law: (arity, needs a semifield of fractions, checker)
_CHECKERS = {
    "dedekind-identity": (3, False, _dedekind_identity),
    "dedekind2-law-1": (1, True, _law1),
    "dedekind2-law-2": (3, False, _law2),
    "dedekind2-law-3": (2, False, _law3),
    "dedekind2-law-4": (3, False, _law4),
    "dedekind2-law-5": (2, False, _law5),
    "dedekind2-law-6": (3, False, _law6),
    "distributive-lattice": (3, False, _distributive),
    "reyes": (2, True, _reyes),
    "quotient-absorb": (2, False, _quotient_absorb),
    "contains-iff-divides": (2, True, _contains_iff_divides),
}


# ---------------------------------------------------------------------------
# shrinking


def _shrink(ar, checker, tup):
    """Take the first shrink step of any entry that keeps the law failing, until none does."""
    while True:
        steps = (tup[:i] + (c,) + tup[i + 1 :] for i in range(len(tup)) for c in ar.shrink(tup[i]))
        smaller = next((t for t in steps if checker(ar, *t) is not None), None)
        if smaller is None:
            return tup
        tup = smaller


# ---------------------------------------------------------------------------
# coprime exponent law (its inputs are exponent vectors, not plain ideals)


def _exponents(rng, primes):
    return tuple(_below(rng, 9) for _ in primes)


def _check_coprime(inst, trials, seed):
    ar = inst.arith
    primes = inst.support or (2, 3, 5, 7)
    grid = [
        ((3, 1, 0, 0), (1, 2, 0, 0)),
        ((0, 0, 0, 0), (0, 0, 0, 0)),
        ((1, 0, 1, 0), (0, 1, 0, 1)),
    ]
    rng = random.Random(seed)
    count = 0

    def build(exps):
        return math.prod(p**e for p, e in zip(primes, exps))

    def one(e, f):
        a, b = build(e), build(f)
        cases = (
            ("sum", ar.add(a, b), tuple(min(x, y) for x, y in zip(e, f))),
            ("intersect", ar.meet(a, b), tuple(max(x, y) for x, y in zip(e, f))),
            ("product", ar.mul(a, b), tuple(x + y for x, y in zip(e, f))),
        )
        for name, got, expect in cases:
            if got != build(expect):
                return {
                    "exponents_a": list(e),
                    "exponents_b": list(f),
                    "primes": list(primes),
                    "operation": name,
                    "got": ar.str(got),
                    "expected": ar.str(build(expect)),
                }
        return None

    draws = ((_exponents(rng, primes), _exponents(rng, primes)) for _ in range(trials))
    for e, f in itertools.islice(itertools.chain(grid, draws), trials):
        count += 1
        w = one(e[: len(primes)], f[: len(primes)])
        if w is not None:
            return LawReport("coprime-identities", inst.id, count, seed, "fail", w)
    return LawReport("coprime-identities", inst.id, count, seed, "pass", None)


# ---------------------------------------------------------------------------
# entry point


# Trials one check may run. Past n0's grid of 12^3 triples a random
# dedekind-identity trial costs about 1.2 ms: in-process on a 2-core x86_64 VM
# (CPython 3.11), 10^4 trials there took 10-11 s at seed 3 at a peak RSS of
# 25 MB, 3,000 took 1.5-1.7 s, and at seeds 1 and 2 the run stops with
# TooLarge after about 5 and 2 s, where a gcd row takes 0.03 s.
MAX_TRIALS = 10_000


def check_law(inst, law, trials=200, seed=0) -> LawReport:
    if trials > MAX_TRIALS:
        raise TooLarge(f"more than {MAX_TRIALS} trials asked of {law}")
    if law == "multiplicative-cancellation":
        report = check_semidomain(inst, bound=min(trials, 60))
        return LawReport(report.law, report.instance, report.trials, seed, report.status, report.witness)
    if law == "coprime-identities":
        if not inst.arith.gcd_family:
            raise Unsupported(f"coprime-identities needs numeric prime ideals, not {inst.kind}")
        return _check_coprime(inst, trials, seed)
    if law not in _CHECKERS:
        raise UnknownLaw(f"unknown law id {law!r}")
    arity, fractions, checker = _CHECKERS[law]
    if fractions and not inst.is_semidomain:
        raise Unsupported(f"law {law} is not defined on {inst.kind}")
    ar = _memoized(inst.arith)
    count = 0
    for tup in _tuples(ar, arity, trials, seed):
        count += 1
        if checker(ar, *tup) is not None:
            tup = _shrink(ar, checker, tup)
            return LawReport(law, inst.id, count, seed, "fail", checker(ar, *tup))
    return LawReport(law, inst.id, count, seed, "pass", None)
