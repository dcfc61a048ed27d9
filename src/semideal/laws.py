"""Identity checking over the enumerated ideal tuples of an instance.

Every law is decided exactly on the first ``trials`` tuples of one order:
each kind's ``ideals()`` (``instances``) lists its ideals by size, and the
tuples go by their largest index into that list, then lexicographically. The
first failing tuple is the least in that order, so it is the witness as it
stands. ``trials`` counts the tuples checked: the budget, or fewer where a
law fails first or a finite kind's tuples run out (lagrassa's 27 triples).
The seed is echoed in the report and changes nothing that is checked.

The eight laws that equate two terms in add, mul, meet and quotient are rows
of ``_EQUATIONS``, each compiled once into a Python check, on its first use.
The rows are module constants, so no input from the CLI or a config file
reaches ``compile``. Each law's row in ``_CHECKERS`` gives its arity and names
the operations whose operands recur from tuple to tuple: b+c and bc recur for
every a in the Dedekind identity, while law 3's pairs never recur. A check
computes each of those its kind names costly (``memoized``) once per operand
pair, keyed by the payloads' canonical ints (``_memoized``); the memo lives
for one check and keeps no raise.

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
from .ideals import _inverse
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
# per-check memo: the instance names the operations worth remembering


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
    """The instance ar, or a shallow copy of it whose operations named both
    in recurring (those whose operands recur in one law's tuples) and in
    ``ar.memoized`` (those that cost more than a lookup on this kind) are
    each computed once per operand pair, keyed by ``ar.memo_key``, or once
    per operand for the unary ``factor``; the copy reads ar's enumerated
    prefix, and it and the results it keeps live for one check. The copy is
    not the interned instance, so it must never tag an element or an ideal:
    the checks work on payloads only."""
    names = [name for name in ar.memoized if name in recurring]
    if not names:
        return ar
    memo = copy.copy(ar)
    for name in names:
        setattr(memo, name, _once(getattr(ar, name), None if name == "factor" else ar.memo_key))
    return memo


# ---------------------------------------------------------------------------
# checkers: (instance, ideal payloads...) -> witness dict | None


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


# law: (left, right, nonzero terms), each term in call syntax over add, mul,
# meet and quotient, the variables a, b, c and the unit S; a tuple whose
# nonzero term is the kind's zero is skipped
_EQUATIONS = {
    "dedekind-identity": (
        "mul(add(add(a, b), c), add(add(mul(b, c), mul(c, a)), mul(a, b)))",
        "mul(mul(add(b, c), add(c, a)), add(a, b))",
        (),
    ),
    "dedekind2-law-2": ("mul(a, meet(b, c))", "meet(mul(a, b), mul(a, c))", ()),
    "dedekind2-law-3": ("mul(add(a, b), meet(a, b))", "mul(a, b)", ()),
    "dedekind2-law-4": ("quotient(add(a, b), c)", "add(quotient(a, c), quotient(b, c))", ("c",)),
    "dedekind2-law-5": ("add(quotient(a, b), quotient(b, a))", "S", ("a", "b")),
    "dedekind2-law-6": ("quotient(c, meet(a, b))", "add(quotient(c, a), quotient(c, b))", ("meet(a, b)",)),
    "distributive-lattice": ("meet(a, add(b, c))", "add(meet(a, b), meet(a, c))", ()),
    "quotient-absorb": ("mul(quotient(mul(a, b), a), a)", "mul(a, b)", ("a",)),
}


@functools.cache
def _compiled(left, right, nonzero):
    """The code of check(a, b[, c]) for a row of _EQUATIONS, the witness or
    None; each distinct subterm is computed once, where it is first needed."""
    import ast  # here: a law check pays for it, not every query
    body, names, local = [], set(), {}

    def term(node):
        if isinstance(node, ast.Name):
            names.add(node.id)
            return node.id
        text = f"{node.func.id}({', '.join(map(term, node.args))})"
        if text not in local:
            local[text] = f"t{len(local)}"
            body.append(f"{local[text]} = {text}")
        return local[text]

    for text in nonzero:
        body.append(f"if {term(ast.parse(text, mode='eval').body)} == zero: return None")
    lhs, rhs = (term(ast.parse(text, mode="eval").body) for text in (left, right))
    variables = "".join(sorted(names - {"S"}))
    args = ", ".join(variables)
    body += [f"if {lhs} == {rhs}: return None", f"return _sides_witness(ar, {variables!r}, ({args},), {lhs}, {rhs})"]
    return compile("\n    ".join([f"def check({args}):", *body]), "<law>", "exec")


def _equation(law):
    """The plan that checks each tuple against law's row of _EQUATIONS."""

    def plan(ar):
        scope = {name: getattr(ar, name) for name in ("add", "mul", "meet", "quotient")}
        scope.update(zero=ar.zero, S=ar.one, ar=ar, _sides_witness=_sides_witness)
        exec(_compiled(*_EQUATIONS[law]), scope)
        return scope.pop("check")  # left in its globals, it is a cycle that keeps the memo until the GC runs

    return plan


def _law1(ar):
    """Law 1's check of each a, through ideal_invert's inverse: the candidate
    inverse [S : a] is built once and multiplied back once, and a is
    invertible iff that product is the fractional unit S."""

    def check(a):
        if a == ar.zero:
            return None
        fa = ar.join(a, ar.eone)  # a as a fractional ideal
        cand, product = _inverse(ar, fa)
        if product == ar.unit:
            return None
        return {"a": ar.str(a), "candidate_inverse": ar.frac_str(cand), "product": ar.frac_str(product)}

    return check


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
    if not inst.semidomain:
        raise Unsupported(f"law {law} is not defined on {inst.kind}")


def _factors(inst, law):
    """Prime factorisation of the nonzero ideals."""
    _factorial(inst)


def _each(checker):
    """The plan that checks each tuple with checker(ar, *tup)."""
    return lambda ar: functools.partial(checker, ar)


# law: (arity, requirement or None, plan, recurring). plan(ar) gives the check
# of one tuple; recurring names the operations whose operands recur from tuple
# to tuple, which a check memoizes where its kind names them costly
_CHECKERS = {
    "dedekind-identity": (3, None, _equation("dedekind-identity"), ("add", "mul")),
    "dedekind2-law-1": (1, _fractions, _law1, ()),
    "dedekind2-law-2": (3, None, _equation("dedekind2-law-2"), ("mul", "meet")),
    "dedekind2-law-3": (2, None, _equation("dedekind2-law-3"), ()),
    "dedekind2-law-4": (3, None, _equation("dedekind2-law-4"), ("add", "quotient")),
    "dedekind2-law-5": (2, None, _equation("dedekind2-law-5"), ("quotient",)),
    "dedekind2-law-6": (3, None, _equation("dedekind2-law-6"), ("add", "meet", "quotient")),
    "distributive-lattice": (3, None, _equation("distributive-lattice"), ("add", "meet")),
    "coprime-identities": (2, _factors, _each(_coprime), ("factor", "mul")),
    "reyes": (2, _fractions, _each(_reyes), ("mul", "quotient")),
    "quotient-absorb": (2, None, _equation("quotient-absorb"), ("mul",)),
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
    elems = inst.elements(math.isqrt(trials))
    pairs = ((a, b) for a in elems if a != inst.ezero for b in elems)
    seen, count = {}, 0
    for count, (a, b) in enumerate(itertools.islice(pairs, trials), 1):
        p = inst.emul(a, b)
        first = seen.setdefault((a, p), b)
        if first != b:
            witness = {"a": inst.estr(a), "b": inst.estr(first), "c": inst.estr(b), "product": inst.estr(p)}
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
    ar = _memoized(inst, recurring)
    check = plan(ar)
    count = 0
    for tup in _tuples(ar, arity, trials):
        count += 1
        witness = check(*tup)
        if witness is not None:
            return LawReport(law, inst.id, count, seed, "fail", witness)
    return LawReport(law, inst.id, count, seed, "pass", None)
