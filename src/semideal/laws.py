"""Identity checking over the enumerated ideal tuples of an instance.

Every law is decided exactly on the first ``trials`` tuples of one order:
each kind's ``ideals()`` (``instances``) lists its ideals by size, and the
tuples go by their largest index into that list, then lexicographically. The
first failing tuple is the least in that order, so it is the witness as it
stands. ``trials`` counts the tuples checked: the budget, or fewer where a
law fails first or a finite kind's tuples run out (lagrassa's 27 triples).
The seed is echoed in the report and changes nothing that is checked.

Each law names the operations whose operands recur from tuple to tuple
(``_CHECKERS``): b+c and bc recur for every a in the Dedekind identity, while
law 3's pairs never recur. A check runs on a copy of the kind object that
computes each of those operations the kind names costly (its ``memoized``:
sum, product, meet and quotient on n0 and quad5, ``factor`` on the gcd family
and quad5) once per operand pair, or once per ideal for ``factor``; where
none is both, it runs on the kind object itself. The kind's ``memo_key`` names a
pair by the canonical ints of its two payloads, so a lookup hashes a tuple of
ints and no payload's ``__hash__``. The memo lives for one check and keeps no
raise; the enumerated prefix stays on the instance's kind object for every
check.

Law ids:

  dedekind-identity            (A+B+C)(BC+CA+AB) = (B+C)(C+A)(A+B)
  dedekind2-law-1              every nonzero integral ideal is invertible
  dedekind2-law-2              a(b & c) = ab & ac
  dedekind2-law-3              (a+b)(a & b) = ab
  dedekind2-law-4              [(a+b):c] = [a:c]+[b:c]
  dedekind2-law-5              [a:b]+[b:a] = S
  dedekind2-law-6              [c:(a & b)] = [c:a]+[c:b]
  distributive-lattice         a & (b+c) = (a & b)+(a & c)
  coprime-identities           a+b, a & b, ab have the min, max, sum of the prime exponents of a, b
  reyes                        b invertible, b >= a  =>  a = b[a:b]
  quotient-absorb              [ab:a]a = ab
  contains-iff-divides         a >= b  <=>  some c with ac = b
  multiplicative-cancellation  ab = ac, a nonzero  =>  b = c (element level)
"""

from __future__ import annotations

import copy
import functools
import itertools
import math

from .errors import InvalidInput, TooLarge, Unsupported, UnknownLaw
from .fractional import _factorial
from .ideals import _quotient
from .reports import LawReport


# ---------------------------------------------------------------------------
# the tuples: a graded product of the kind's enumeration


def _level(ideals, k, arity):
    """The tuples over ideals[:k + 1] that contain ideals[k], for arity 2 or 3,
    in lexicographic order: those that start below k, then those that start
    with it."""
    top, below, upto = ideals[k], ideals[:k], ideals[: k + 1]
    pairs = [(x, top) for x in below] + [(top, y) for y in upto]
    if arity == 2:
        return pairs
    return [(x, y, z) for x in below for y, z in pairs] + [(top, y, z) for y in upto for z in upto]


def _tuples(ar, arity, trials):
    """The first trials tuples of ar's ideals, by largest index k, then
    lexicographically: those with k below the least K with K**arity >= trials,
    from one read of the enumerated prefix."""
    if arity == 1:
        return itertools.islice(zip(ar.enumerated(trials)), trials)
    side = 0
    while side**arity < trials:
        side += 1
    ideals = ar.enumerated(side)  # fewer where a finite kind runs out
    levels = (_level(ideals, k, arity) for k in range(min(side, len(ideals))))
    return itertools.islice(itertools.chain.from_iterable(levels), trials)


# ---------------------------------------------------------------------------
# per-check memo: the kind object names the operations worth remembering


_MISSING = object()

# Results one operation's memo keeps before it starts over. At 10^4 trials, in
# a fresh process (2-core x86_64 VM, CPython 3.11, medians of 5 runs), each
# check peaks at this many MB with this bound, without it and with no memo:
# dedekind-identity on n0 at 17.0, 18.9 and 16.1 (taking 0.25, 0.19 and
# 1.19 s), quotient-absorb on n0 at 17.1, 19.1 and 16.3 (0.34, 0.34 and
# 0.39 s), dedekind-identity on quad5 at 16.7, 17.5 and 16.1 (0.05, 0.05 and
# 0.12 s), coprime-identities on quad5 at 16.6, 19.0 and 16.1 (0.16, 0.15
# and 0.38 s).
MEMO_SIZE = 4096


def _once(op, key):
    """The op, computed once per operand pair where key(x, y) names the pair by
    the canonical ints of its payloads, or once per operand where key is None
    (a unary op, keyed by the payload itself); a raise is not kept, so it is
    raised again when the operands recur."""
    done = {}
    get = done.get

    if key is None:

        def once(x):
            r = get(x, _MISSING)
            if r is _MISSING:
                if len(done) >= MEMO_SIZE:
                    done.clear()
                r = done[x] = op(x)
            return r

        return once

    def once(x, y):
        k = key(x, y)
        r = get(k, _MISSING)
        if r is _MISSING:
            if len(done) >= MEMO_SIZE:
                done.clear()
            r = done[k] = op(x, y)
        return r

    return once


def _memoized(ar, recurring):
    """ar, or a copy of it whose operations named both in recurring (those
    whose operands recur in one law's tuples) and in ``ar.memoized`` (those
    that cost more than a lookup on this kind) are each computed once per
    operand pair, keyed by ``ar.memo_key``, or once per operand for the unary
    ``factor``; the copy reads ar's enumerated prefix, and it and the results
    it keeps live for one check."""
    names = [name for name in ar.memoized if name in recurring]
    if not names:
        return ar
    memo = copy.copy(ar)
    for name in names:
        setattr(memo, name, _once(getattr(ar, name), None if name == "factor" else ar.memo_key))
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


def _law1(ar):
    """Law 1's check of each a, with the fractional unit S built once per
    check: the candidate inverse [S : a] is built once and multiplied back
    once, and a is invertible iff that product is S."""
    unit = ar.join(ar.one, ar.eone)

    def check(a):
        if a == ar.zero:
            return None
        fa = ar.join(a, ar.eone)  # a as a fractional ideal
        cand = _quotient(ar, unit, fa)
        product = ar.frac_mul(fa, cand)
        if product == unit:
            return None
        return {"a": ar.str(a), "candidate_inverse": ar.frac_str(cand), "product": ar.frac_str(product)}

    return check


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


def _coprime(ar, a, b):
    if a == ar.zero or b == ar.zero:
        return None
    fa, fb = ar.factor(a), ar.factor(b)
    low = high = ar.one
    for label in {**fa, **fb}:
        e, f = fa.get(label, 0), fb.get(label, 0)
        prime = ar.prime(*label)
        if e and f:  # otherwise min(e, f) = 0, and p^0 = S
            low = ar.mul(low, ar.power(prime, min(e, f)))
        high = ar.mul(high, ar.power(prime, max(e, f)))
    # p^(e+f) = p^min(e,f) * p^max(e,f), so ab has exponents e+f exactly when it is low*high
    for name, got, expected in (
        ("sum", ar.add(a, b), low),
        ("intersect", ar.meet(a, b), high),
        ("product", ar.mul(a, b), ar.mul(low, high)),
    ):
        if got != expected:
            return {"a": ar.str(a), "b": ar.str(b), "operation": name, "got": ar.str(got), "expected": ar.str(expected)}
    return None


# requirements: (instance, law) -> None, or Unsupported where the law is not defined


def _fractions(inst, law):
    """A semifield of fractions."""
    if not inst.is_semidomain:
        raise Unsupported(f"law {law} is not defined on {inst.kind}")


def _factors(inst, law):
    """Prime factorisation of the nonzero ideals."""
    _factorial(inst)


def _each(checker):
    """The plan that checks each tuple with checker(ar, *tup)."""
    return lambda ar: functools.partial(checker, ar)


# law: (arity, requirement or None, plan, recurring). plan(ar) gives the check
# of one tuple; recurring names the operations whose operands recur from tuple
# to tuple (b+c and bc for every a, say), which a check memoizes where the kind
# names them costly (_memoized)
_CHECKERS = {
    "dedekind-identity": (3, None, _each(_dedekind_identity), ("add", "mul")),
    "dedekind2-law-1": (1, _fractions, _law1, ()),
    "dedekind2-law-2": (3, None, _each(_law2), ("mul", "meet")),
    "dedekind2-law-3": (2, None, _each(_law3), ()),
    "dedekind2-law-4": (3, None, _each(_law4), ("add", "quotient")),
    "dedekind2-law-5": (2, None, _each(_law5), ("quotient",)),
    "dedekind2-law-6": (3, None, _each(_law6), ("add", "meet", "quotient")),
    "distributive-lattice": (3, None, _each(_distributive), ("add", "meet")),
    "coprime-identities": (2, _factors, _each(_coprime), ("factor", "mul")),
    "reyes": (2, _fractions, _each(_reyes), ("mul", "quotient")),
    "quotient-absorb": (2, None, _each(_quotient_absorb), ("mul",)),
    "contains-iff-divides": (2, _fractions, _each(_contains_iff_divides), ()),
}
LAW_IDS = (*_CHECKERS, "multiplicative-cancellation")


def _cancellation(inst, trials, seed):
    """Search for a multiplicative-cancellation failure among small elements.

    For each nonzero a the map b -> a*b must be injective; the first collision
    (a, b, c) with a*b == a*c and b != c is the witness. The elements are the
    kind's sample up to isqrt(trials), and at most trials products are taken;
    the report's ``trials`` counts them.
    """
    ar = inst.arith
    elems = ar.elements(math.isqrt(trials))
    pairs = ((a, b) for a in elems if a != ar.ezero for b in elems)
    seen, count = {}, 0
    for count, (a, b) in enumerate(itertools.islice(pairs, trials), 1):
        p = ar.emul(a, b)
        first = seen.setdefault((a, p), b)
        if first != b:
            witness = {"a": ar.estr(a), "b": ar.estr(first), "c": ar.estr(b), "product": ar.estr(p)}
            return LawReport("multiplicative-cancellation", inst.id, count, seed, "fail", witness)
    return LawReport("multiplicative-cancellation", inst.id, count, seed, "pass", None)


# ---------------------------------------------------------------------------
# entry point


# Trials one check may run. At 10^4 the slowest checks, quotient-absorb and
# dedekind-identity on n0 and dedekind2-law-1 on quad5, take 0.2-0.35 s each
# in a fresh process on a 2-core x86_64 VM (CPython 3.11).
MAX_TRIALS = 10_000


def check_law(inst, law, trials=200, seed=0) -> LawReport:
    """Check one law on the first ``trials`` tuples of ideals of inst.

    multiplicative-cancellation is a law on elements, not on ideals (n0's
    naturals cancel while its ideals do not), so it searches the kind's small
    elements instead, and its ``trials`` counts the pairs it multiplied. The
    seed is echoed in the report; it changes nothing that is checked.
    """
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 0:
        raise InvalidInput(f"trials for {law} must be a nonnegative integer")
    if trials > MAX_TRIALS:
        raise TooLarge(f"more than {MAX_TRIALS} trials asked of {law}")
    if law == "multiplicative-cancellation":
        return _cancellation(inst, trials, seed)
    if law not in _CHECKERS:
        raise UnknownLaw(f"unknown law id {law!r}")
    arity, needs, plan, recurring = _CHECKERS[law]
    if needs is not None:
        needs(inst, law)
    ar = _memoized(inst.arith, recurring)
    check = plan(ar)
    count = 0
    for tup in _tuples(ar, arity, trials):
        count += 1
        witness = check(*tup)
        if witness is not None:
            return LawReport(law, inst.id, count, seed, "fail", witness)
    return LawReport(law, inst.id, count, seed, "pass", None)
