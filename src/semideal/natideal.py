"""Canonical finite presentations of ideals of (N0, +, *).

Ideals of the usual naturals coincide with additive submonoids: they are
{0} plus an eventually periodic set. We store the unique triple (d, c, mask)
with members = {0} u {kd : bit k of mask} u {n >= c : d | n}, where d is the
gcd of all members (0 for the zero ideal), c is the least threshold from
which the set is purely periodic (a multiple of d, 0 when there are no gaps)
and mask is the scaled membership bitmap below c, bit 0 clear. Equality of
ideals is equality of the three ints.

The closure bitmaps come from the pure kernel in ``_kernels``; an adaptive
window is grown until min(gens/d) consecutive scaled members are seen, which
certifies that everything beyond is a member, and the bitmap is trimmed below
its last gap. A periodic set is canonicalized by setting one bit per extra.
Membership and the least member are bit tests; minimal generators are found
on the bitmap in ascending order, each the least member not yet a sum, and
only they are shifted into the sums. Meet, quotient and containment list
members through ``ex``, which decodes the bitmap 4096 bits at a time with
``itertools.compress`` (no Python step per member), once per operand.

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
from itertools import compress

from ._kernels import additive_closure
from .errors import EmptyIdeal, TooLarge, ZeroDivisorIdeal
from .reports import Record


class NatIdeal(Record, derived=("_bytes",)):
    # _bytes: the mask as little-endian bytes, made by the first bit test below c
    __slots__ = ("d", "c", "mask", "_bytes")

    def __init__(self, d, c, mask):
        _set_d(self, d)
        _set_c(self, c)
        _set_mask(self, mask)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (self.d, self.c, self.mask) == (other.d, other.c, other.mask)

    def __hash__(self):
        return hash((self.d, self.c, self.mask))

    def __repr__(self):
        return f"NatIdeal(d={self.d!r}, c={self.c!r}, ex={self.ex!r})"

    @property
    def ex(self):
        """The nonzero members below c, ascending."""
        return _decode(self.d, self.mask)

    def contains(self, x):
        if x == 0:
            return True
        d = self.d
        if d == 0 or x % d:
            return False
        if x >= self.c:
            return True
        k = x // d
        try:
            view = self._bytes
        except AttributeError:
            view = self.mask.to_bytes(self.c // d // 8 + 1, "little")
            _set_bytes(self, view)
        return view[k >> 3] >> (k & 7) & 1 == 1

    def min_nonzero(self):
        if self.d == 0:
            raise EmptyIdeal("the zero ideal has no nonzero member")
        if self.mask:
            return ((self.mask & -self.mask).bit_length() - 1) * self.d
        return self.c if self.c > 0 else self.d

    def members_below(self, bound):
        """Sorted members < bound."""
        out = [0] if bound > 0 else []
        out.extend(e for e in self.ex if e < bound)
        if self.d > 0:
            start = self.c if self.c > 0 else self.d
            out.extend(range(start, bound, self.d))
        return out


_set_d, _set_c, _set_mask, _set_bytes = (s.__set__ for s in (NatIdeal.d, NatIdeal.c, NatIdeal.mask, NatIdeal._bytes))


def _generator(i):
    """g when i is the principal ideal (g), else 0 (also for the zero ideal)."""
    return 0 if i.c else i.d


# Budgets of a canonical form, past which it raises TooLarge: the scaled closure
# window (2 MiB of bitmap) and the members below the conductor (in a bitmap of at
# most 2 MiB). The largest inputs of the tests and the benchmark need 331,780 and 130,811.
MAX_WINDOW_BITS = 1 << 24
MAX_EX = 1 << 20

NAT_ZERO = NatIdeal(0, 0, 0)
NAT_FULL = NatIdeal(1, 0, 0)
NAT_MAX = NatIdeal(1, 2, 0)  # every natural except 1


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


# A mask is decoded _CHUNK bytes (4096 bits) at a time: a mask-sized byte-per-bit
# buffer (up to about 10^6 bytes) passes through the C allocator and lets the
# resident set creep over many large ideals.
_CHUNK = 512
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _decode(d, mask):
    """The members kd, ascending, of the set bits k of a scaled mask."""
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    ex = []
    step = 8 * _CHUNK * d
    for k in range(0, len(raw), _CHUNK):
        # bit i of the chunk becomes byte i: the binary digits, least significant first
        bits = format(int.from_bytes(raw[k : k + _CHUNK], "little"), "b").encode()[::-1].translate(_BIT_BYTES)
        start = 8 * k * d
        ex.extend(compress(range(start, start + step, d), bits))
    return tuple(ex)


def _scaled_bits_to_ideal(d, mask, t):
    """Canonical triple of the members {kd : bit k of mask, 0 < k < t} and
    every multiple of d from td on: the mask is cut below its last gap."""
    gaps = ~mask & ((1 << t) - 2)
    if gaps == 0:
        return NatIdeal(d, 0, 0)
    z0 = gaps.bit_length() - 1
    mask &= (1 << z0) - 2
    if mask.bit_count() > MAX_EX:
        raise TooLarge(f"the ideal has {mask.bit_count()} members below its conductor, over {MAX_EX}")
    return NatIdeal(d, (z0 + 1) * d, mask)


def from_generators(gens):
    gens = sorted({int(g) for g in gens if g})
    if any(g < 0 for g in gens):
        raise ValueError("generators must be nonnegative")
    if not gens:
        return NAT_ZERO
    d = math.gcd(*gens)
    if d == gens[0]:
        return NatIdeal(d, 0, 0)
    scaled = [g // d for g in gens]
    m = scaled[0]
    limit = 4 * scaled[-1] + 1
    while True:
        if limit > MAX_WINDOW_BITS:
            raise TooLarge(f"the closure of {len(gens)} generators up to {gens[-1]} needs over {MAX_WINDOW_BITS} bits")
        mask = additive_closure(scaled, limit)
        run = _run_start(mask, m)
        if run is not None:
            return _scaled_bits_to_ideal(d, mask, run + 1)
        limit *= 4


def from_periodic(d, threshold, extras):
    """Ideal with members {0} u extras u {multiples of d >= threshold}.

    The caller guarantees the set is additively closed; extras are then
    necessarily multiples of d (checked) and the triple is canonicalized.
    """
    extras = list(extras)
    if d == 0:
        if any(extras):
            raise ValueError("zero period with extra members")
        return NAT_ZERO
    if math.gcd(d, *extras) != d:
        raise ValueError("extras must be multiples of the period")
    t = max(1, -(-threshold // d))  # scaled start of the periodic tail
    # base-2 digits, most significant first: scaled extra k is at t - k
    digits = bytearray(b"0") * (t + 1)
    for e in extras:
        k = e // d
        if 0 < k < t:
            digits[t - k] = 49  # ord("1")
    return _scaled_bits_to_ideal(d, int(digits, 2), t)


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
    nz = i.mask | ((1 << (limit + 1)) - (1 << cs))
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
                return NatIdeal(g, 0, 0)
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
                return NatIdeal(g, 0, 0)
    if i.c < j.c:
        i, j = j, i
    # a common member below the larger conductor i.c is one of i's exceptions
    return from_periodic(math.lcm(i.d, j.d), i.c, [x for x in i.ex if j.contains(x)])


def _scale_quotient(a, ex, g):
    """{x : x*g in a} for a single positive g, where ex is a.ex; always an ideal."""
    dq = a.d // math.gcd(a.d, g)
    t = -(-a.c // g)
    return from_periodic(dq, t, [e // g for e in ex if e % g == 0])


def nat_quotient(a, b):
    """[a : b] = {x : x*b subseteq a}; b must be nonzero."""
    if b.d == 0:
        raise ZeroDivisorIdeal("quotient by the zero ideal")
    if a.d == 0:
        return NAT_ZERO
    if _generator(a):
        return NatIdeal(a.d // math.gcd(a.d, b.d), 0, 0)
    ex = a.ex
    if _generator(b):
        return _scale_quotient(a, ex, b.d)
    q = NAT_FULL
    for g in minimal_generators(b):
        q = nat_intersect(q, _scale_quotient(a, ex, g))
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
    return i.c == 0


def nat_is_prime(i):  # (0), the maximal ideal, and (p) for a prime p
    from .primes import is_prime_int

    return i.d == 0 or i == NAT_MAX or (i.c == 0 and is_prime_int(i.d))


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
    return NatIdeal(i.d * t, i.c * t, i.mask)


def nat_unscale(i, t):
    """The ideal i/t when every member is divisible by t."""
    if t <= 0:
        raise ValueError("positive scale required")
    if i.d == 0 or t == 1:
        return i
    if i.d % t:  # c and every member are multiples of d
        raise ValueError("members are not all divisible")
    return NatIdeal(i.d // t, i.c // t, i.mask)
