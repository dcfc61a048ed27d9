"""Semiring instances: one object per instance, of its kind's class.

Supported instances:

  n0                naturals with usual + and *
  gcd               naturals with gcd as addition, usual * as multiplication
  gcd-supported(P)  restriction of gcd to 0, 1 and the P-smooth numbers
  dvs               {t^n : n >= 0} u {0}: t^a + t^b = t^min(a,b), t^a * t^b = t^(a+b)
  lagrassa          three elements 0, u, 1 with 1+1 = 1, 1+u = u+1 = u+u = u,
                    u*u = u*1 = u (additively idempotent, not cancellative)
  quad5             ideals of Z[w], w*w = -5, under ideal sum and product

``instance(id)`` returns the interned object of the instance's kind class
(``N0``, ``GcdFamily``, ``Dvs``, ``Lagrassa``, ``Quad5``). It carries the
instance's ``id``, ``kind`` and ``support``; its properties as class
attributes (``semidomain``, ``dedekind``, ``numeric``, ``gcd_family``,
``finite``); and the kind's arithmetic on raw payloads: element payloads
(int for n0 and the gcd family, int-or-None for dvs where None is the zero,
"0" / "u" / "1" for lagrassa, a QuadIdeal for quad5), ideal payloads, the
fractional payloads of ``ideals`` (``split`` reads one as A/d, ``join``
writes A/d back in canonical form), prime labels (p, b), which the kind
spells with ``label_str``, and ``ideals()``, which yields every nonzero
ideal once (lagrassa's three, zero among them) in nondecreasing size: the
law checker's one enumeration, whose prefix ``enumerated`` keeps on the
object. ``elements(bound)``, the small elements, zero first, reads
``ideals()`` up to the bound where an element is the generator of a
principal ideal (the gcd family and quad5). Elements and ideals are tagged
with the object so mixed-instance operations fail loudly. This module is the
only one that compares ``.kind`` with a kind name or tests the class of an
instance; other modules read its flags.

``Kind`` is the arithmetic of the principal kinds (the gcd family, dvs,
quad5), where an ideal is stored as its generator, an element payload:

  (a) + (b) = (a + b)          (a)(b) = (ab)          (a)^k by squaring
  (a) & (b) = ab / (a + b)     [(a) : (b)] = a / (a + b)
  (a) >= (b)  iff  a + b = a   x in (a)  iff  a + x = a

where c = num / den is the exact ``cofactor`` with c * den = num; each kind
computes that meet in closed form (lcm, max, the lattice intersection).
Those ideals are subtractive, and maximal iff nonzero and prime. ``N0`` stores a
NatIdeal (``natideal``) and ``Lagrassa`` one of its three ideals "zero",
"u", "full". Kind methods call ``natideal`` and ``quadratic`` through their
module bindings, so a tracer that rebinds those functions sees the calls.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from fractions import Fraction

from . import natideal as nat
from .errors import InstanceMismatch, InternalError, InvalidInput, NotFractional, OutOfSupport, TooLarge, Unsupported
from .primes import factorint, is_prime_int, primes_up_to, valuation
from .quadratic import QI_ONE, QI_ZERO, QuadIdeal, _compose, prime_for_root, qi_add, qi_divide
from .quadratic import qi_factor, qi_meet, qi_mul, qi_prime_split, qi_principal_int
from .reports import Record


# The budget of Kind.power (ideal_power's numerator and denominator, and the
# prime-power divisors): a power of a payload whose size (the natural, the
# norm, the gcd of an n0 ideal) would pass 2^20 bits, about 315,000 digits,
# is refused with TooLarge before its first product. Kind.power, and
# Quad5.factor's certificate and Quad5.ideals, which rebuild ideals of known
# norm without the budget, share the one squaring loop, _power.
MAX_POWER_BITS = 1 << 20


def _natural(value, message):
    try:
        v = int(value)
    except (TypeError, ValueError, OverflowError):  # not a number: refused below
        v = -1
    if v != value or v < 0:
        raise InvalidInput(message)
    return v


def _smooth(n, support):
    if n == 0:
        return True
    for p in support:
        n = valuation(n, p)[1]
    return n == 1


def _power(a, k, mul, one):
    """a**k for k >= 0 by squaring, no further than the top bit of k."""
    if not k:
        return one
    while not k & 1:
        a = mul(a, a)
        k >>= 1
    out = a  # not one times a, which would canonicalise a again
    while k := k >> 1:
        a = mul(a, a)
        if k & 1:
            out = mul(out, a)
    return out


class Kind:
    """An instance, with the payload arithmetic of the principal kinds; subclasses give the rest."""

    semidomain = True  # nonzero factors cancel: there is a semifield of fractions
    dedekind = True  # every nonzero ideal is invertible and factors into prime labels
    numeric = False  # element payloads are naturals (polynomial coefficients for dm)
    gcd_family = False  # gcd and gcd-supported: localization and two generators
    finite = False  # ideals() ends; content sweeps its modules
    # operations that cost more than a memo lookup: a law check computes each
    # once per operand pair where its law names it recurring (laws._memoized),
    # or once per ideal for the unary factor; a kind that names a binary one
    # gives memo_key(x, y), the canonical ints of the two payloads
    memoized = ()

    def __init__(self, id, kind, support):
        self.id, self.kind, self.support = id, kind, support  # support: gcd-supported's primes, else None
        self._ideals, self._enumerated = self.ideals(), []

    def __repr__(self):
        return f"instance({self.id!r})"

    def enumerated(self, n):
        """The ideals of ideals() enumerated so far on this object, read on
        until there are at least n of them or a finite kind has no more."""
        have = self._enumerated
        if len(have) < n:
            have.extend(itertools.islice(self._ideals, n - len(have)))
        return have

    def ideal(self, gens):
        """The ideal payload generated by validated element payloads."""
        acc = self.zero
        for g in gens:
            acc = self.add(acc, g)
        return acc

    def power(self, a, k, element=False):
        """a**k for k >= 0 of an ideal payload, or of an element payload when
        element. Before any product it raises ValueError for a negative k, and
        TooLarge if the result would pass MAX_POWER_BITS bits."""
        if k < 0:
            raise ValueError("negative ideal power")
        bits = k * self.log2(a)
        if bits > MAX_POWER_BITS:
            raise TooLarge(f"the power would have about {bits:.0f} bits, past the budget of {MAX_POWER_BITS}")
        mul, one = (self.emul, self.eone) if element else (self.mul, self.one)
        return _power(a, k, mul, one)

    def log2(self, a):
        """log2 of the size of a payload, which a product adds up: of the
        natural, the norm or the gcd of the ideal. 0 where products do not
        grow the payload (dvs exponents add, lagrassa is finite)."""
        return 0

    def quotient(self, a, b):
        """[a : b] = {x : x*b inside a}, b nonzero: the c with (a + b)*c = a. It is S when
        a + b = a and a when a + b = S, each certified by S*a = a; only other cases divide."""
        if a == self.zero:
            return a
        s = self.add(a, b)
        if s == a:
            return self.one
        if s == self.one:
            return a
        c = self.cofactor(a, s)
        if c is None:
            raise InternalError("a principal ideal is not divisible by its sum with another")
        return c

    def contains(self, a, b):
        """True iff b is a subset of a."""
        return self.add(a, b) == a

    member = contains  # x in (a) iff (x) is inside (a)

    def generators(self, a):
        return (a,)

    def estr(self, x):
        return str(x)

    def is_subtractive(self, a):
        return True

    def is_maximal(self, a):
        return a != self.zero and self.is_prime(a)

    def min_nonzero(self, a):
        raise Unsupported("min_nonzero is defined for the n0 instance")

    def separating(self, small, big):
        """An element payload in big but not in small, or None."""
        if small == big or big == self.zero or self.member(small, big):
            return None
        return big

    def divisors(self, p):
        """Every ideal containing p, for a nonzero ideal p, in canonical order."""
        box = [self.one]
        for (q, b), e in self.factor(p).items():
            prime = self.prime(q, b)
            box = [self.mul(d, self.power(prime, k)) for d in box for k in range(e + 1)]
        return sorted(box, key=self.key)

    def between(self, m):
        """An ideal strictly between m*m and m for a maximal m: None on every
        kind but n0. On a Dedekind kind an ideal that contains m*m divides it,
        so it is S, m or m*m; on lagrassa the only maximal ideal is u, and
        u*u = u."""
        return None

    def key(self, p):
        return p

    def scale(self, A, t):
        """The ideal A*(t) for a nonzero element payload t."""
        return self.mul(A, t)

    def clear(self, rats):
        """(numerators, denominator) of nonnegative rational generators."""
        if any(r.numerator < 0 for r in rats):
            raise NotFractional("generators must be nonnegative")
        den = math.lcm(*(r.denominator for r in rats))
        self.element(den)  # OutOfSupport for a denominator outside a gcd-supported support
        return [r.numerator * (den // r.denominator) for r in rats], den

    def frac_mul(self, x, y):
        A, da = self.split(x)
        B, db = self.split(y)
        return self.join(self.mul(A, B), self.emul(da, db))

    k_mul = frac_mul  # a K-element is the payload of the principal fractional ideal it generates

    def k_generator(self, p):
        return p

    def k_one(self):
        return self.join(self.one, self.eone)

    def sandwich(self, p):
        A, d = self.split(p)
        return self.generators(A)[0], d  # A = (c) is principal

    def str(self, a):
        return self.frac_str(self.join(a, self.eone))

    def frac_str(self, p):
        A, d = self.split(p)
        if A == self.zero:
            return "(0)"
        gens = self.generators(A)
        return "I(" + ",".join(map(str, gens) if d == 1 else (str(Fraction(g, d)) for g in gens)) + ")"

    def cover(self, a, b):
        """An invertible ideal containing a, built from the checked b."""
        return self.add(a, b)


def _smooth_numbers(support):
    """The support-smooth naturals in order, from a heap: n*p is pushed for
    each p up to the least prime of n, so each number is pushed once."""
    heap = [1]
    while True:
        n = heapq.heappop(heap)
        yield n
        for p in support:
            heapq.heappush(heap, n * p)
            if n % p == 0:
                break


class GcdFamily(Kind):
    """gcd, and gcd-supported(P) when support is the prime set P."""

    numeric = gcd_family = True
    ezero = zero = 0
    eone = one = 1
    add = eadd = math.gcd
    mul = emul = operator.mul
    meet = math.lcm
    memoized = ("factor",)  # factorint, about 3 us on the first 15 naturals; see N0's

    def element(self, value):
        v = _natural(value, "naturals only")
        if self.support is not None and not _smooth(v, self.support):
            raise OutOfSupport(f"{v} has a prime factor outside {self.support}")
        return v

    def elements(self, bound):
        return [0, *itertools.takewhile(lambda n: n <= bound, self.ideals())]

    def quotient(self, a, b):
        return a // math.gcd(a, b)

    def cofactor(self, num, den):
        return num // den if num % den == 0 else None

    def log2(self, a):
        return math.log2(a) if a > 1 else 0

    def is_prime(self, a):
        return a == 0 or (a != 1 and is_prime_int(a))

    def factor(self, a):
        return {(p, None): e for p, e in factorint(a).items()}

    def prime(self, p, b):
        return p

    def prime_labels(self, bound, low=2):
        """Labels (p, b) of the primes over low <= p <= bound, and of those no p names (here the support)."""
        return [(p, None) for p in self.support or primes_up_to(bound, low)]

    def label_str(self, p, b):  # the text of the label (p, b)
        return str(p)

    def split(self, p):
        return p.numerator, p.denominator

    def join(self, A, d):
        return Fraction(A) if d == 1 else Fraction(A, d)

    def ideals(self):
        return itertools.count(1) if self.support is None else _smooth_numbers(self.support)


class Dvs(Kind):
    """dvs: the exponent n stands for t^n, None for the zero."""

    numeric = True
    ezero = zero = None
    eone = one = 0

    def element(self, value):
        return None if value is None else _natural(value, "exponents of elements are nonnegative")

    def elements(self, bound):
        return [None] + list(range(bound + 1))

    def add(self, x, y):
        return y if x is None else x if y is None else min(x, y)

    def mul(self, x, y):
        return None if x is None or y is None else x + y

    eadd, emul = add, mul

    def meet(self, x, y):
        return None if x is None or y is None else max(x, y)

    def quotient(self, a, b):
        return None if a is None else max(a - b, 0)

    def cofactor(self, num, den):
        return num - den if num >= den else None

    def estr(self, x):
        if x is None:
            return "0"
        return "1" if x == 0 else f"t^{x}"

    def frac_str(self, a):  # t^n reads right for a negative n too
        if a is None:
            return "(0)"
        return "S" if a == 0 else f"t^{a}"

    def is_prime(self, a):
        return a is None or a == 1

    def factor(self, a):
        return {(None, None): a}

    def prime(self, p, b):
        return 1

    def prime_labels(self, bound, low=2):
        return [(None, None)]

    def label_str(self, p, b):
        return "t"

    def split(self, p):
        return (None, 0) if p is None else (max(p, 0), max(-p, 0))

    def join(self, A, d):
        return None if A is None else A - d

    def clear(self, rats):
        nums, den = Kind.clear(self, rats)
        if den != 1:
            raise Unsupported("dvs generators are written t^n with integer n")
        return nums, 0

    def ideals(self):
        return itertools.count()


class Quad5(Kind):
    """quad5: an element of the semiring is an ideal of Z[w], a QuadIdeal.

    Z[w] is a Noetherian Dedekind domain, so every ideal of its semiring of
    ideals is principal, generated by the sum of its members (a finite sum,
    hence a member), and that generator is invertible."""

    ezero = zero = QI_ZERO
    eone = one = QI_ONE

    def element(self, value):
        if isinstance(value, QuadIdeal):
            return value
        return qi_principal_int(_natural(value, "quad5 elements are QuadIdeals or naturals n meaning n*O"))

    def elements(self, bound):
        have = self.enumerated(1)
        while have[-1].norm() <= bound:  # read on past the bound: ideals() is by norm
            have = self.enumerated(2 * len(have))
        return [QI_ZERO, *itertools.takewhile(lambda q: q.norm() <= bound, have)]

    def add(self, x, y):
        return qi_add(x, y)

    def mul(self, x, y):
        return qi_mul(x, y)

    eadd, emul = add, mul
    # as N0's, which says why; factor (qi_factor and its certificate) takes
    # about 6 us on the first 15 ideals, against 0.3 us for a memo hit
    memoized = ("add", "mul", "meet", "quotient", "factor")

    @staticmethod
    def memo_key(x, y):  # the canonical ints of two ideals, which hash in C
        return (x.g, x.a, x.b, y.g, y.a, y.b)

    def meet(self, x, y):
        return qi_meet(x, y)

    def cofactor(self, num, den):
        return qi_divide(num, den)

    def log2(self, a):
        return GcdFamily.log2(self, a.norm())

    def is_prime(self, q):  # zero, or a single prime to the first power
        return q.is_zero() or (q != QI_ONE and list(self.factor(q).values()) == [1])

    def factor(self, q):
        """The prime labels of q, certified by composing them back. The power
        loop runs without Kind.power's budget: it rebuilds an ideal that exists."""
        fac = qi_factor(q)
        back = QI_ONE
        for (p, b), e in fac.items():
            back = qi_mul(back, _power(prime_for_root(p, b), e, qi_mul, QI_ONE))
        if back != q:
            raise InternalError("factorization did not compose back")
        return fac

    def prime(self, p, b):
        return prime_for_root(p, b)

    def prime_labels(self, bound, low=2):
        primes = primes_up_to(bound, low)
        return [(p, q.b if q.norm() == p else None) for p in primes for q in qi_prime_split(p)]

    def label_str(self, p, b):
        """Pp for the one prime over p (inert, or ramified: 2 and 5, the primes
        dividing the discriminant -20), Pp[b] for the two over a split p."""
        return f"P{p}" if b is None or p in (2, 5) else f"P{p}[{b}]"

    def key(self, q):
        return (q.norm(), q.a, q.b)

    # a fractional ideal is (Fraction scalar, primitive QuadIdeal)
    def split(self, p):
        scalar, prim = p
        n, d = scalar.numerator, scalar.denominator
        return prim if n == 1 else QuadIdeal(n, prim.a, prim.b), QI_ONE if d == 1 else QuadIdeal(d, 1, 0)

    def join(self, A, d):
        """A/d for d a nonzero element payload, a positive int or any nonzero ideal."""
        if not A.g:
            return (Fraction(0), QI_ONE)
        if isinstance(d, QuadIdeal):
            if d.a != 1:  # d * conj(d) = (N(d)), so A/d = A*conj(d)/N(d)
                g, a, b = _compose(A.g, A.a, A.b, d.g, d.a, -d.b % d.a)
                return Fraction(g, d.g * d.g * d.a), QI_ONE if a == 1 else QuadIdeal(1, a, b)
            d = d.g  # d = (g), a rational integer
        prim = A if A.g == 1 else QI_ONE if A.a == 1 else QuadIdeal(1, A.a, A.b)
        return Fraction(A.g) if d == 1 else Fraction(A.g, d), prim

    def frac_str(self, p, zero="(0)", unit="O", integer="{}*O"):
        """g*(a, b+w), with the zero, the unit and an integer multiple of O spelled as given."""
        scalar, prim = p
        if not scalar:
            return zero
        if prim.a == 1:
            return unit if scalar == 1 else integer.format(scalar)
        body = f"({prim.a}, {prim.b}+w)"
        return body if scalar == 1 else f"{scalar}*{body}"

    def estr(self, x):  # an element is spelled 0, 1, 6 where its ideal is (0), O, 6*O
        return self.frac_str((x.g, x), "0", "1", "{}")  # the scalar g of x = g*(a, b+w)

    def ideals(self):
        """By norm n, then (a, b): the ideals of norm n are the products of one
        ideal of norm p^e for each p^e exactly dividing n."""
        split = {}
        for n in itertools.count(1):
            box = [QI_ONE]
            for p, e in factorint(n).items():
                P, *Q = split.get(p) or split.setdefault(p, qi_prime_split(p))
                k, odd = divmod(e, 2) if P.norm() > p else (e, 0)  # an inert P has norm p^2
                if odd:
                    break
                # norms at most n, which Kind.power's budget would never refuse
                powers = [_power(P, k, qi_mul, QI_ONE)]
                if Q:  # split: P^i Q^(k-i)
                    powers = [
                        qi_mul(_power(P, i, qi_mul, QI_ONE), _power(Q[0], k - i, qi_mul, QI_ONE)) for i in range(k + 1)
                    ]
                box = [qi_mul(x, y) for x in box for y in powers]
            else:
                yield from sorted(box, key=self.key)


def _minimal_tuples(m):
    """The minimal generator tuples of the n0 ideals with largest minimal
    generator m, sorted, in lexicographic order. A sorted tuple is minimal iff
    each entry lies outside the closure of the smaller ones: one bit of the
    closure's bitmap up to m, which a depth-first build keeps."""
    mask = (1 << (m + 1)) - 1

    def build(gens, reach):  # bit x of reach: x is a sum of gens, x <= m
        for g in range(gens[-1] + 1 if gens else 1, m):
            if not reach >> g & 1:
                grown = reach
                while (more := (grown | grown << g) & mask) != grown:
                    grown = more
                if not grown >> m & 1:  # else no extension can end in m
                    yield from build(gens + (g,), grown)
        yield gens + (m,)

    return build((), 1)


class N0(Kind):
    """n0: an ideal is a NatIdeal; a fractional ideal is (den, NatIdeal) with
    gcd(den, content) == 1, and a K-element is a Fraction."""

    dedekind = False  # (2, 3) is not invertible
    numeric = True
    ezero, eone = 0, 1
    zero, one = nat.NAT_ZERO, nat.NAT_FULL
    eadd, emul = operator.add, operator.mul
    # an n0 sum or product (about 4-5 us on the first 22 ideals) or a quad5
    # one (about 1 us) costs several memo hits (about 0.2 us) on a 2-core
    # x86_64 VM, CPython 3.11, so each pays where its law makes its operands
    # recur (b+c and bc for every a); where they never recur, every call is a
    # miss costing 0.3 us more than the operation, which is why each law names
    # its own (laws._CHECKERS; no law's tuples make a containment or cofactor
    # recur). The gcd family's operations are C builtins (under 0.1 us) and
    # dvs's cost about a hit (0.05-0.3 us): memoizing all of them made their
    # default law rows 30-60% slower, so they memoize at most factor
    memoized = ("add", "mul", "meet", "quotient")

    @staticmethod
    def memo_key(x, y):  # the canonical ints of two ideals, which hash in C
        return (x.d, x.c, x.mask, y.d, y.c, y.mask)

    element = GcdFamily.element  # the naturals, support None

    def elements(self, bound):
        return list(range(bound + 1))

    def ideal(self, gens):
        return nat.from_generators(gens)

    def add(self, x, y):
        return nat.nat_sum(x, y)

    def mul(self, x, y):
        return nat.nat_product(x, y)

    def log2(self, a):  # an element, or an ideal by its gcd d: the gcd of a**k is d**k
        return GcdFamily.log2(self, a if isinstance(a, int) else a.d)

    def meet(self, x, y):
        return nat.nat_intersect(x, y)

    def quotient(self, a, b):
        return nat.nat_quotient(a, b)

    def cofactor(self, num, den):
        return nat.nat_divides(den, num)

    def contains(self, a, b):
        return nat.nat_contains(a, b)

    def member(self, a, x):
        return a.contains(x)

    def generators(self, a):
        return nat.minimal_generators(a) or (0,)

    def is_subtractive(self, a):
        return nat.nat_is_subtractive(a)

    def is_prime(self, a):
        return nat.nat_is_prime(a)

    def is_maximal(self, a):
        return nat.nat_is_maximal(a)

    def min_nonzero(self, a):
        return a.min_nonzero()

    def separating(self, small, big):
        return nat.nat_separating(small, big)

    def between(self, m):
        return nat.nat_between(m)

    def prime(self, p, b):
        return nat.NAT_MAX if p is None else nat.NatIdeal(p, 0, 0)

    def prime_labels(self, bound, low=2):
        return [(p, None) for p in primes_up_to(bound, low)] + [(None, None)]

    def label_str(self, p, b):
        return "MAX" if p is None else str(p)

    def split(self, p):
        return p[1], p[0]

    def join(self, A, d):
        if A.d == 0:
            return (1, A)
        g = math.gcd(d, A.d)
        return (d // g, nat.nat_unscale(A, g))

    def scale(self, A, t):
        return nat.nat_scale(A, t)

    def k_generator(self, p):
        gens = nat.minimal_generators(p[1])
        return Fraction(gens[0], p[0]) if len(gens) == 1 else None

    def k_mul(self, x, y):
        return x * y

    def k_one(self):
        return Fraction(1)

    def sandwich(self, p):  # the least c with c*d in A
        d, A = p
        return (nat._scale_quotient(A, (d,)).min_nonzero(), d)

    def ideals(self):
        return (nat.from_generators(gens) for m in itertools.count(1) for gens in _minimal_tuples(m))

    def cover(self, a, b):
        """The principal (m) with m dividing the content of a, so invertible."""
        m = math.gcd(b.min_nonzero() if b != nat.NAT_ZERO else 1, a.d)
        return nat.from_generators([max(m, 1)])


_LAG_ELEMENTS = ("0", "u", "1")
_LAG_RANK = {"zero": 0, "u": 1, "full": 2}  # its ideals form a chain
_LAG_MEMBERS = {"zero": ("0",), "u": ("0", "u"), "full": ("0", "u", "1")}


class Lagrassa(Kind):
    """lagrassa: its three ideals "zero" < "u" < "full"; a product is the smaller factor."""

    semidomain = dedekind = False  # u*u = u*1: no semifield of fractions
    finite = True
    ezero, eone, zero, one = "0", "1", "zero", "full"

    def element(self, value):
        if value not in _LAG_ELEMENTS:
            raise InvalidInput("lagrassa elements are '0', 'u', '1'")
        return value

    def elements(self, bound):
        return list(_LAG_ELEMENTS)

    # x + y is the larger of x, y in the chain 0 < 1 < u, and x * y the smaller in 0 < u < 1
    def eadd(self, x, y):
        return max(x, y, key="01u".index)

    def emul(self, x, y):
        return min(x, y, key="0u1".index)

    def ideal(self, gens):
        return ("zero", "u", "full")[max((_LAG_ELEMENTS.index(p) for p in gens), default=0)]

    def add(self, x, y):
        return max(x, y, key=_LAG_RANK.get)

    def mul(self, x, y):
        return min(x, y, key=_LAG_RANK.get)

    meet = mul

    def quotient(self, a, b):
        members = _LAG_MEMBERS[a]
        return self.ideal([x for x in _LAG_ELEMENTS if all(self.emul(x, y) in members for y in _LAG_MEMBERS[b])])

    def cofactor(self, num, den):
        return next((c for c in _LAG_RANK if self.mul(den, c) == num), None)

    def member(self, a, x):
        return x in _LAG_MEMBERS[a]

    def generators(self, a):
        return (_LAG_MEMBERS[a][-1],)

    def frac_str(self, a):
        return {"zero": "(0)", "u": "(u)", "full": "L"}[a]

    def is_subtractive(self, a):
        return a != "u"  # u + 1 = u lies in (u), and 1 does not

    def is_prime(self, a):
        return a != "full"  # a product lies in (u) only when a factor does

    def separating(self, small, big):
        if small == big:
            return None
        return next((x for x in ("u", "1") if self.member(big, x) and not self.member(small, x)), None)

    def prime(self, p, b):
        return "u"

    def prime_labels(self, bound, low=2):
        return [(None, None)]

    def label_str(self, p, b):
        return "u"

    # no fractions: an ideal is its own payload, over the denominator "1"
    def split(self, p):
        return p, "1"

    def join(self, A, d):
        return A

    def clear(self, rats):
        raise Unsupported("lagrassa is not multiplicatively cancellative; no fraction semifield")

    def ideals(self):
        return iter(_LAG_RANK)


_KINDS = {"n0": N0, "gcd": GcdFamily, "gcd-supported": GcdFamily, "dvs": Dvs, "lagrassa": Lagrassa, "quad5": Quad5}
KINDS = tuple(_KINDS)

_CACHE = {}


def instance(spec):
    """Look up an instance by id, e.g. "gcd" or "gcd-supported(2,3)": the
    object of its kind class.

    Instances are interned: every id that names the same instance
    ("gcd-supported", "gcd-supported(3,2)", "gcd-supported(2,3)") returns the
    one object cached under its canonical id, so the library compares
    instances with ``is``.
    """
    if spec in _CACHE:
        return _CACHE[spec]
    kind, support = spec, None
    if spec.startswith("gcd-supported"):
        kind = "gcd-supported"
        rest = spec[len("gcd-supported"):]
        if rest == "":
            support = (2, 3)
        elif rest.startswith("(") and rest.endswith(")"):
            try:
                support = tuple(sorted({int(tok) for tok in rest[1:-1].split(",")}))
            except ValueError:
                raise InvalidInput(f"bad prime set in instance id: {spec!r}") from None
            if not support or not all(is_prime_int(p) for p in support):
                raise InvalidInput(f"support must be a nonempty set of primes: {spec!r}")
        else:
            raise InvalidInput(f"unknown instance: {spec!r}")
    elif spec not in KINDS:
        raise InvalidInput(f"unknown instance: {spec!r}")
    canonical = kind if support is None else "gcd-supported(%s)" % ",".join(map(str, support))
    inst = _CACHE.get(canonical)
    if inst is None:
        inst = _KINDS[kind](canonical, kind, support)
    _CACHE[spec] = _CACHE[canonical] = inst
    return inst


class Tagged(Record):
    """A payload tagged with its instance: the shape of elements and of ideals."""

    __slots__ = ("instance", "payload")

    def __init__(self, instance, payload):
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "payload", payload)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (self.instance, self.payload) == (other.instance, other.payload)

    def __hash__(self):
        return hash((self.instance, self.payload))


class Element(Tagged):
    __slots__ = ()


def element(inst, value):
    """Validate a raw payload and tag it."""
    return Element(inst, inst.element(value))


def zero(inst):
    return Element(inst, inst.ezero)


def one(inst):
    return Element(inst, inst.eone)


def element_op(inst, op, x, y):
    """Binary element operation; op is "add" or "mul"."""
    for e in (x, y):
        if e.instance is not inst:
            raise InstanceMismatch(f"operand from {e.instance.id}, expected {inst.id}")
    if op == "add":
        return Element(inst, inst.eadd(x.payload, y.payload))
    if op == "mul":
        return Element(inst, inst.emul(x.payload, y.payload))
    raise InvalidInput(f"unknown op {op!r}; element ops are 'add' and 'mul'")
