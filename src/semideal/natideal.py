"""Canonical finite presentations of ideals of (N0, +, *).

Ideals of the usual naturals coincide with additive submonoids: they are
{0} plus an eventually periodic set. We store the unique triple (d, c, mask)
with members = {0} u {kd : bit k of mask} u {n >= c : d | n}, where d is the
gcd of all members (0 for the zero ideal), c is the least threshold from
which the set is purely periodic (a multiple of d, 0 when there are no gaps)
and mask is the scaled membership bitmap below c, bit 0 clear. Equality and
the hash of ideals read the three ints; the minimal generators are the one
value an ideal keeps besides them.

Every ideal is built by ``from_generators``: the closure bitmap of the
scaled generators s1 < ... < sk comes from one run of
``_kernels.additive_closure``, in a window of X + 1 bits, where
X = sum over i >= 2 of s_i * (e_{i-1}/e_i - 1) and e_i = gcd(s1..s_i).
Brauer (1942) bounds the largest gap by X - s1, so the top s1 bits of the
window are members, and so is everything beyond; that run is checked, and
``_scaled_bits_to_ideal`` trims the bitmap below its last gap. A window past
``MAX_WINDOW_BITS`` is cut to it: the same run, if the cut window has it,
proves the rest. The minimal generators are among the given ones, so the form
keeps them as it is built: s_j is one unless s_j - t is a member for a
smaller minimal t, one bit test each. Membership and the least member are
bit tests; a form built otherwise finds its minimal generators on the
bitmap in ascending order, each the least member not yet a sum. Only they
are shifted into the sums.

Meet, quotient and containment read the bitmaps too, through a view: the
view of i at a period L that i.d divides has bit k set iff kL is in i. It is
every (L/d)-th bit of the mask, taken by ``_stride`` in C loops, OR'd with
the ones of i's tail. The meet is the AND of both operands' views at the lcm
of their periods; the quotient by a generator g, {x : xg in a}, has period
dq = a.d/gcd(a.d, g), and bit k of it is bit k of a's view at period dq*g;
a quotient by several generators ANDs their views at a common period; j is
inside i iff j's view at j.d has no bit that i's lacks; and the least member
of j outside i is the lowest bit of such an AND-NOT (``nat_separating``).
Each result is trimmed as a closure is. ``ex``, the members listed one by
one, is read only by the repr, by ``members_below`` (which ``nat_between``
scans) and by the tests.

A triple with c == 0 and d > 0 is the principal ideal (g) = gN0, g = d, and
every operation with a principal operand is answered in closed form, with no
closure: generators whose gcd is their least member give (gcd); (g)·J is J
scaled by g; (g) + J is (g) when g | J.d and J when g is in J; (g) ∩ J is J
when g | J.d and (g) when g is in J; [A:(g)] is the one-generator view of A
above; [(g):B] = (g / gcd(g, B.d)); and J ⊆ (g) iff g | J.d, while
(g) ⊆ J iff g is in J.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import compress

from ._kernels import additive_closure
from .errors import EmptyIdeal, InternalError, TooLarge, ZeroDivisorIdeal
from .reports import Record


class NatIdeal(Record, derived=("_gens",)):
    # _gens, set by from_generators as it builds the form, else by the first
    # minimal_generators call: a sum, a product and the printer each ask for it.
    __slots__ = ("d", "c", "mask", "_gens")

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
        return self.mask >> (x // d) & 1 == 1

    def min_nonzero(self):
        if self.d == 0:
            raise EmptyIdeal("the zero ideal has no nonzero member")
        if self.mask:
            return ((self.mask & -self.mask).bit_length() - 1) * self.d
        return self.c if self.c > 0 else self.d

    def members_below(self, bound):
        """Sorted members < bound."""
        if bound <= 0:
            return []
        ex = self.ex
        # one exact-size list: no copy of ex when bound passes c, no step per member
        out = [0, *ex[: bisect_left(ex, bound)]]
        if self.d > 0:
            start = self.c if self.c > 0 else self.d
            out.extend(range(start, bound, self.d))
        return out


_set_d, _set_c, _set_mask, _set_gens = (s.__set__ for s in (NatIdeal.d, NatIdeal.c, NatIdeal.mask, NatIdeal._gens))


def _generator(i):
    """g when i is the principal ideal (g), else 0 (also for the zero ideal)."""
    return 0 if i.c else i.d


# Budgets of a canonical form, past which it raises TooLarge: the closure window
# (2 MiB of bitmap), Brauer's X cut to the budget, refused when the cut window
# lacks the run of s1 members (two generators, whose X is exact, before any
# closure runs); and the members below the conductor (in a bitmap of at most
# 2 MiB). The largest inputs of the tests need 1,046,903 members (the pair 1447,
# 1449) and a cut window ((4631, 5900, 8739) has X = 27,317,000 and conductor
# 934,042); those of the benchmark X = 72,657 and 14,947 members, and no cut.
MAX_WINDOW_BITS = 1 << 24
MAX_EX = 1 << 20

NAT_ZERO = NatIdeal(0, 0, 0)
NAT_FULL = NatIdeal(1, 0, 0)
NAT_MAX = NatIdeal(1, 2, 0)  # every natural except 1


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _decode(d, mask):
    """The members kd, ascending, of the set bits k of a scaled mask."""
    if not mask:
        return ()
    # bit k of the mask becomes byte k: the binary digits, least significant first
    bits = format(mask, "b").encode()[::-1].translate(_BIT_BYTES)
    return tuple(compress(range(0, len(bits) * d, d), bits))


# _BIT_OF[b] maps a byte to its bit b, as a byte 0 or 1: runs of 2^b zeros and ones
_BIT_OF = tuple((bytes(1 << b) + b"\1" * (1 << b)) * (128 >> b) for b in range(8))


def _stride(mask, s, n):
    """The int whose bit k is bit k*s of mask, for k < n."""
    if n <= 0:
        return 0
    if s == 1:
        return mask & ((1 << n) - 1)
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    out = 0
    # bit 8m + r of the result is bit 8ms + rs of the mask: for a fixed r, bit rs % 8
    # of every s-th byte from byte rs // 8, so one slice, one translate and one shift
    # take them all, and no temporary besides the mask's bytes passes n/8 bytes
    for r in range(min(8, n)):
        start, bit = divmod(r * s, 8)
        column = raw[start : start + (n - r + 7) // 8 * s : s].translate(_BIT_OF[bit])
        out |= int.from_bytes(column, "little") << r
    return out


def _view(i, period, n):
    """Bit k, for k < n, set iff k*period is a member of the nonzero i, where
    i.d divides period; bit 0 is set only when i is principal."""
    tail = -(-i.c // period)
    return _stride(i.mask, period // i.d, n) | ((1 << n) - (1 << tail) if tail < n else 0)


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


def _too_large(gens, top):
    return TooLarge(f"closing {len(gens)} generators up to {gens[-1]} needs over {MAX_WINDOW_BITS} bits (Brauer's X is {top})")


def from_generators(gens):
    gens = sorted({int(g) for g in gens if g})
    if not gens:
        return NAT_ZERO
    if gens[0] < 0:
        raise ValueError("generators must be nonnegative")
    d = math.gcd(*gens)
    if d == gens[0]:
        return NatIdeal(d, 0, 0)
    scaled = [g // d for g in gens]
    m = scaled[0]
    # X of the module docstring: the largest gap is at most top - m
    top, e = 0, m
    for s in scaled[1:]:
        f = math.gcd(e, s)
        top += s * (e // f - 1)
        e = f
    window = min(top, MAX_WINDOW_BITS)
    # the first run of m members ends at F + m, F the largest gap: at X for two
    # generators, never below 2m - 1, and past a capped window that lacks it
    if window < top and (len(gens) == 2 or 2 * m - 1 > window):
        raise _too_large(gens, top)
    mask = additive_closure(scaled, window)
    if mask >> (window - m + 1) != (1 << m) - 1:
        if window < top:
            raise _too_large(gens, top)
        raise InternalError(f"the closure of {len(gens)} generators up to {gens[-1]} has a gap past Brauer's bound")
    i = _scaled_bits_to_ideal(d, mask, window + 1)
    # the minimal generators are among the given ones: g is one unless g - t is
    # a member for a smaller minimal t (every multiple of d from c on is)
    c, ex = i.c, i.mask
    mins = [gens[0]]
    for g in gens[1:]:
        for t in mins:
            if g - t >= c or ex >> ((g - t) // d) & 1:
                break
        else:
            mins.append(g)
    _set_gens(i, tuple(mins))
    return i


def minimal_generators(i):
    """The unique minimal generating set (members that are not sums)."""
    if i.d == 0:
        return ()
    if i.c == 0:
        return (i.d,)
    try:
        return i._gens
    except AttributeError:
        pass
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
    out = tuple(out)
    _set_gens(i, out)
    return out


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
    period = math.lcm(i.d, j.d)
    t = max(1, -(-max(i.c, j.c) // period))
    return _scaled_bits_to_ideal(period, _view(i, period, t) & _view(j, period, t), t)


def _scale_quotient(a, gens):
    """{x : x*g in a for every g in gens}, for a nonzero a and positive gens;
    always an ideal. Its period is the lcm of the a.d/gcd(a.d, g)."""
    dq = math.lcm(*(a.d // math.gcd(a.d, g) for g in gens))
    t = max(1, -(-a.c // (dq * min(gens))))
    bits = -1
    for g in gens:
        bits &= _view(a, dq * g, t)
    return _scaled_bits_to_ideal(dq, bits, t)


def nat_quotient(a, b):
    """[a : b] = {x : x*b subseteq a}; b must be nonzero."""
    if b.d == 0:
        raise ZeroDivisorIdeal("quotient by the zero ideal")
    if a.d == 0:
        return NAT_ZERO
    if _generator(a):
        return NatIdeal(a.d // math.gcd(a.d, b.d), 0, 0)
    return _scale_quotient(a, (b.d,) if _generator(b) else minimal_generators(b))


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
    # past both conductors every multiple of j.d is in both
    t = max(-(-i.c // j.d), j.c // j.d)
    return _view(j, j.d, t) & ~_view(i, j.d, t) == 0


def nat_separating(small, big):
    """The least member of big outside small, or None when big is inside small.

    Past both conductors every multiple of D = big.d is in big, and it is in
    small iff it is a multiple of L = lcm(small.d, D), so the members up to
    the larger conductor plus L decide the question. Bit k of big's view at D
    stands for kD, which can be in small only when s = L/D divides k, as
    (k/s)L: bit k/s of small's view at L.
    """
    if big.d == 0:
        return None
    if small.d == 0:
        return big.min_nonzero()
    D = big.d
    L = math.lcm(small.d, D)
    s = L // D
    t = (max(small.c, big.c) + L) // D + 1
    bits = _view(big, D, t) & ~1  # 0 is in every ideal
    if s == 1:
        out = bits & ~_view(small, D, t)
        return ((out & -out).bit_length() - 1) * D if out else None
    # a kD with s not dividing k is outside small (the multiples of s are the
    # closure of s), and the first L past both conductors hold one
    off = bits & ~additive_closure((s,), t - 1)
    k = (off & -off).bit_length() - 1
    # then the least jL below kD that is in big and not in small, if any
    u = -(-k // s)
    on = _stride(bits, s, u) & ~_view(small, L, u)
    if on:
        k = ((on & -on).bit_length() - 1) * s
    return k * D


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
