"""Canonical finite presentations of ideals of (N0, +, *).

Ideals of the usual naturals coincide with additive submonoids: they are
{0} plus an eventually periodic set. We store the unique triple (d, c, ex)
with members = {0} u ex u {n >= c : d | n}, where d is the gcd of all
members (0 for the zero ideal), c is the least threshold from which the set
is purely periodic (a multiple of d, 0 when there are no gaps) and ex lists
the nonzero members below c in ascending order. Equality of ideals is tuple
equality.

The closure bitmaps come from the pure kernel in ``_kernels``; an adaptive
window is grown until min(gens/d) consecutive scaled members are seen, which
certifies that everything beyond is a member. A bitmap is decoded into ex
in chunks of 4096 bits, each turned into one byte per bit and its members
picked out with ``itertools.compress``, so no Python step runs per member.
A periodic set is canonicalized by sorting its extras and stepping down
only over the run of members that ends at the threshold. Minimal generators
are found in ascending order, each the least member not yet a sum, and only
they are shifted into the sums: one pass over the window per generator, not
per member. Membership below the threshold is a binary search in ex.

A triple with c == 0 and d > 0 is the principal ideal (g) = gN0, g = d, and
every operation with a principal operand is answered in closed form, with no
closure: generators whose gcd is their least member give (gcd); (g)·J is J
scaled by g; (g) + J is (g) when g | J.d and J when g is in J; (g) ∩ J is J
when g | J.d and (g) when g is in J; [A:(g)] = {x : xg in A} is A's members
divided by g; [(g):B] = (g / gcd(g, B.d)); and J ⊆ (g) iff g | J.d, while
(g) ⊆ J iff g is in J. Other operands take the closure, except in a meet:
every common member below the larger conductor is an exception of the
operand that has it, so the meet filters those exceptions through the other
operand's ``contains``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import compress

from ._kernels import additive_closure
from .errors import EmptyIdeal, TooLarge, ZeroDivisorIdeal
from .reports import Record


class NatIdeal(Record):
    __slots__ = ("d", "c", "ex")

    def __init__(self, d, c, ex):
        _set_d(self, d)
        _set_c(self, c)
        _set_ex(self, ex)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (self.d, self.c, self.ex) == (other.d, other.c, other.ex)

    def __hash__(self):
        return hash((self.d, self.c, self.ex))

    def contains(self, x):
        if x == 0:
            return True
        if self.d == 0:
            return False
        if x >= self.c:
            return x % self.d == 0
        k = bisect_left(self.ex, x)
        return k < len(self.ex) and self.ex[k] == x

    def min_nonzero(self):
        if self.d == 0:
            raise EmptyIdeal("the zero ideal has no nonzero member")
        if self.ex:
            return self.ex[0]
        return self.c if self.c > 0 else self.d

    def members_below(self, bound):
        """Sorted members < bound."""
        out = [0] if bound > 0 else []
        out.extend(e for e in self.ex if e < bound)
        if self.d > 0:
            start = self.c if self.c > 0 else self.d
            out.extend(range(start, bound, self.d))
        return out


_set_d, _set_c, _set_ex = NatIdeal.d.__set__, NatIdeal.c.__set__, NatIdeal.ex.__set__


def _generator(i):
    """g when i is the principal ideal (g), else 0 (also for the zero ideal)."""
    return 0 if i.c else i.d


# Budgets of a canonical form, past which it raises TooLarge: the scaled closure
# window (2 MiB of bitmap) and the members below the conductor (a tuple of about
# 40 MB). The largest inputs of the tests and the benchmark need 331,780 and 130,811.
MAX_WINDOW_BITS = 1 << 24
MAX_EX = 1 << 20

NAT_ZERO = NatIdeal(0, 0, ())
NAT_FULL = NatIdeal(1, 0, ())
NAT_MAX = NatIdeal(1, 2, ())  # every natural except 1


def _run_start(mask, m):
    """Index of the first run of m consecutive set bits, or None."""
    z = mask
    have = 1
    while have < m and z:
        step = min(have, m - have)
        z &= z >> step
        have += step
    if z == 0:
        return None
    return (z & -z).bit_length() - 1


# A closure window is decoded _CHUNK bytes (4096 bits) at a time: a
# window-sized byte-per-bit buffer (up to about 10^6 bytes) passes through the
# C allocator and lets the resident set creep over many large ideals.
_CHUNK = 512
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _scaled_bits_to_ideal(d, mask, run):
    """Canonical triple from an exact scaled membership mask.

    Bits of mask are exact up to at least ``run``; every scaled value >= run
    is known to be a member. The members below the gap are decoded a chunk
    at a time, each chunk as one byte per bit.
    """
    gaps = ~mask & ((1 << (run + 1)) - 1)
    if gaps == 0:
        return NatIdeal(d, 0, ())
    z0 = gaps.bit_length() - 1
    below = mask & ((1 << z0) - 1) & ~1
    if below.bit_count() > MAX_EX:
        raise TooLarge(f"the ideal has {below.bit_count()} members below its conductor, over {MAX_EX}")
    raw = below.to_bytes((z0 + 7) // 8, "little")
    ex = []
    step = 8 * _CHUNK * d
    for k in range(0, len(raw), _CHUNK):
        # bit i of the chunk becomes byte i: the binary digits, least significant first
        bits = format(int.from_bytes(raw[k : k + _CHUNK], "little"), "b").encode()[::-1].translate(_BIT_BYTES)
        start = 8 * k * d
        ex.extend(compress(range(start, start + step, d), bits))
    return NatIdeal(d, (z0 + 1) * d, tuple(ex))


def from_generators(gens):
    gens = sorted({int(g) for g in gens if g})
    if any(g < 0 for g in gens):
        raise ValueError("generators must be nonnegative")
    if not gens:
        return NAT_ZERO
    d = math.gcd(*gens)
    if d == gens[0]:
        return NatIdeal(d, 0, ())
    scaled = [g // d for g in gens]
    m = scaled[0]
    limit = 4 * scaled[-1] + 1
    while True:
        if limit > MAX_WINDOW_BITS:
            raise TooLarge(f"the closure of {len(gens)} generators up to {gens[-1]} needs over {MAX_WINDOW_BITS} bits")
        mask = additive_closure(scaled, limit)
        run = _run_start(mask, m)
        if run is not None:
            return _scaled_bits_to_ideal(d, mask, run)
        limit *= 4


def from_periodic(d, threshold, extras):
    """Ideal with members {0} u extras u {multiples of d >= threshold}.

    The caller guarantees the set is additively closed; extras are then
    necessarily multiples of d (checked) and the triple is canonicalized.
    """
    if d == 0:
        if any(extras):
            raise ValueError("zero period with extra members")
        return NAT_ZERO
    ex = sorted(set(map(int, extras)) - {0})
    if any(e % d for e in ex):
        raise ValueError("extras must be multiples of the period")
    t = (max(0, threshold) + d - 1) // d  # scaled start of the periodic tail
    k = bisect_left(ex, t * d)
    # the last gap below the tail: step down over the run of members ending at t - 1
    z0 = t - 1
    while k and ex[k - 1] == z0 * d:
        k -= 1
        z0 -= 1
    if z0 <= 0:
        return NatIdeal(d, 0, ())
    return NatIdeal(d, (z0 + 1) * d, tuple(ex[:k]))


def minimal_generators(i):
    """The unique minimal generating set (members that are not sums)."""
    if i.d == 0:
        return ()
    if i.c == 0:
        return (i.d,)
    d = i.d
    cs = i.c // d
    ms = i.min_nonzero() // d
    limit = cs + ms
    # base-2 digits, most significant first: scaled member n is at limit - n
    digits = bytearray(b"0") * (limit + 1)
    for e in i.ex:
        digits[limit - e // d] = 49  # ord("1")
    nz = int(digits, 2) | ((1 << (limit + 1)) - (1 << cs))
    out = []
    cand = nz
    while cand:
        low = cand & -cand
        u = low.bit_length() - 1
        out.append(u * d)
        cand &= ~((nz << u) | low)
    return tuple(out)


def nat_sum(i, j):
    for g, k in ((_generator(i), j), (_generator(j), i)):
        if g:
            if k.d % g == 0:
                return NatIdeal(g, 0, ())
            if k.contains(g):
                return k
    return from_generators(minimal_generators(i) + minimal_generators(j))


def nat_product(i, j):
    if _generator(i):
        return nat_scale(j, i.d)
    if _generator(j):
        return nat_scale(i, j.d)
    gi, gj = minimal_generators(i), minimal_generators(j)
    if not gi or not gj:
        return NAT_ZERO
    return from_generators([a * b for a in gi for b in gj])


def nat_intersect(i, j):
    if i.d == 0 or j.d == 0:
        return NAT_ZERO
    for g, k in ((_generator(i), j), (_generator(j), i)):
        if g:
            if k.d % g == 0:
                return k
            if k.contains(g):
                return NatIdeal(g, 0, ())
    if i.c < j.c:
        i, j = j, i
    # a common member below the larger conductor i.c is one of i's exceptions
    return from_periodic(math.lcm(i.d, j.d), i.c, [x for x in i.ex if j.contains(x)])


def _scale_quotient(a, g):
    """{x : x*g in a} for a single positive g; always an ideal."""
    dq = a.d // math.gcd(a.d, g)
    t = -(-a.c // g)
    extras = [e // g for e in a.ex if e % g == 0]
    return from_periodic(dq, t, extras)


def nat_quotient(a, b):
    """[a : b] = {x : x*b subseteq a}; b must be nonzero."""
    if b.d == 0:
        raise ZeroDivisorIdeal("quotient by the zero ideal")
    if a.d == 0:
        return NAT_ZERO
    if _generator(a):
        return NatIdeal(a.d // math.gcd(a.d, b.d), 0, ())
    if _generator(b):
        return _scale_quotient(a, b.d)
    q = NAT_FULL
    for g in minimal_generators(b):
        q = nat_intersect(q, _scale_quotient(a, g))
    return q


def nat_contains(i, j):
    """True iff j is a subset of i."""
    if j.d == 0:
        return True
    if i.d == 0:
        return False
    if j.d % i.d:
        return False
    if _generator(i):
        return True
    if _generator(j):
        return i.contains(j.d)
    if any(not i.contains(e) for e in j.ex):
        return False
    x = j.c if j.c > 0 else j.d
    while x < i.c:
        if not i.contains(x):
            return False
        x += j.d
    return True


def nat_divides(a, b):
    """Cofactor q with a*q == b, or None; exact in both directions.

    If any cofactor exists it is contained in [b:a], and then
    a*[b:a] is squeezed between a*q = b and b, so testing the single
    candidate [b:a] decides divisibility.
    """
    if a.d == 0:
        raise ZeroDivisorIdeal("division by the zero ideal")
    if b.d == 0:
        return NAT_ZERO
    q = nat_quotient(b, a)
    if nat_product(a, q) == b:
        return q
    return None


def nat_is_subtractive(i):
    return i.ex == () and i.c == 0


def nat_is_prime(i):
    from .primes import is_prime_int

    if i.d == 0:
        return True
    if i == NAT_FULL:
        return False
    if i == NAT_MAX:
        return True
    return i.c == 0 and i.ex == () and is_prime_int(i.d)


def nat_is_maximal(i):
    return i == NAT_MAX


def nat_between(m):
    """A verified ideal strictly between m*m and m, or None.

    Any ideal strictly between must contain some member x of m outside m*m,
    and m*m + (x) is then itself strictly between, so scanning those x
    decides existence.
    """
    m2 = nat_product(m, m)
    for x in m.members_below(m2.c if m2.c else m2.d):
        if x and not m2.contains(x):
            cand = nat_sum(m2, from_generators([x]))
            if cand != m2 and cand != m and nat_contains(m, cand):
                return cand
    return None


def nat_scale(i, t):
    """The ideal t*i for a positive integer t."""
    if t <= 0:
        raise ValueError("positive scale required")
    if i.d == 0 or t == 1:
        return i
    return NatIdeal(i.d * t, i.c * t, tuple(e * t for e in i.ex))


def nat_unscale(i, t):
    """The ideal i/t when every member is divisible by t."""
    if t <= 0:
        raise ValueError("positive scale required")
    if i.d == 0 or t == 1:
        return i
    if i.d % t:  # c and every e in ex are multiples of d
        raise ValueError("members are not all divisible")
    return NatIdeal(i.d // t, i.c // t, tuple(e // t for e in i.ex))
