"""Independent brute-force oracles the tests compare the library against.

Everything here works on explicit member sets and avoids the canonical forms
and kernels under test.
"""

import itertools
import math
from fractions import Fraction


def closure_members(gens, limit):
    """All sums of the generators up to limit, by set-based reachability."""
    reached = {0}
    frontier = [0]
    gens = [g for g in gens if g > 0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x + g
            if y <= limit and y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


def n0_members(gens, limit):
    """Members of the n0 ideal spanned by gens, up to limit (same closure)."""
    return closure_members(gens, limit)


def n0_sum(agens, bgens, limit):
    a = n0_members(agens, limit)
    b = n0_members(bgens, limit)
    return {x + y for x in a for y in b if x + y <= limit}


def n0_product(agens, bgens, limit):
    prods = {x * y for x in agens for y in bgens}
    return closure_members(prods, limit)


def n0_intersect(agens, bgens, limit):
    return n0_members(agens, limit) & n0_members(bgens, limit)


def n0_quotient(agens, bgens, limit):
    """{x : x*b inside a} up to limit; generator test suffices."""
    bg = [g for g in bgens if g > 0]
    if not bg:
        raise ValueError("quotient by zero")
    inner = n0_members(agens, limit * max(bg))
    return {x for x in range(limit + 1) if all(x * g in inner for g in bg)}


def valuation(n, p):
    if n == 0:
        raise ValueError("v_p(0) undefined")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def int_gcd_ideal(values):
    """gcd-instance ideal of a value list, as a plain integer."""
    import math

    return math.gcd(*values) if values else 0


def rational_sorted(fracs):
    return sorted(Fraction(f) for f in fracs)


def primes_naive(bound):
    sieve = [True] * (bound + 1)
    out = []
    for n in range(2, bound + 1):
        if sieve[n]:
            out.append(n)
            for m in range(n * n, bound + 1, n):
                sieve[m] = False
    return out


def quad_ideals(max_norm):
    """Every nonzero ideal g*(a, b+w) of Z[w], w*w = -5, of norm g*g*a <= max_norm,
    as (g, a, b) triples sorted by (norm, a, b): a root scan over a and b."""
    roots = [(a, b) for a in range(1, max_norm + 1) for b in range(a) if (b * b + 5) % a == 0]
    out = [(g, a, b) for a, b in roots for g in range(1, math.isqrt(max_norm // a) + 1)]
    return sorted(out, key=lambda t: (t[0] * t[0] * t[1], t[1], t[2]))


def quad_member_brute(g, a, b, x, y):
    """Is x + y*w in the module g*(a*Z + (b+w)*Z)?  Solve the 2x2 system."""
    # x + y w = g*(a*s + (b+w)*t)  =>  y = g t, x = g(a s + b t)
    if g == 0:
        return x == 0 and y == 0
    if y % g or x % g:
        return False
    t = y // g
    rem = x // g - b * t
    return rem % a == 0


def finite_ideals(elements, add, mul):
    """Every ideal of the finite semiring on elements with the tables add and
    mul, as a frozenset of members, by brute force over subsets: each subset
    that contains 0 (a nonempty one closed under multiplication by 0 does) and
    is closed under + and under multiplication by every element."""
    out = []
    for r in range(1, len(elements) + 1):
        for chosen in itertools.combinations(elements, r):
            s = frozenset(chosen)
            if all(add(x, y) in s and mul(e, x) in s for x in s for y in s for e in elements):
                out.append(s)
    return out


def kronecker_minus20(d):
    """The Kronecker symbol (-20/d), the character of Q(sqrt(-5)), for d >= 1."""
    return {1: 1, 3: 1, 7: 1, 9: 1, 11: -1, 13: -1, 17: -1, 19: -1}.get(d % 20, 0)


def quad5_norm_counts(bound):
    """[sum of (-20/d) over d | n, for n in 0..bound]: the number of ideals of
    Z[w], w*w = -5, of norm n, the Dirichlet coefficients of zeta * L(chi).
    A divisor sieve adds each d's symbol to its multiples."""
    counts = [0] * (bound + 1)
    for d in range(1, bound + 1):
        chi = kronecker_minus20(d)
        if chi:
            for n in range(d, bound + 1, d):
                counts[n] += chi
    return counts
