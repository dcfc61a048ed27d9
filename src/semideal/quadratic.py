"""Exact ideal arithmetic in Z[w] where w*w = -5.

Nonzero ideals are kept in Hermite normal form g*(a*Z + (b+w)*Z) with g >= 1,
a >= 1, 0 <= b < a and a | b*b + 5; the zero ideal is the g = 0 marker. The
norm is g*g*a. All operations are integer-exact.

Products, sums and meets are closed forms on the raw integers (g, a, b), each
checked to be an ideal (InternalError if not): a product is Dirichlet
composition (Cohen, GTM 138, Alg. 5.4.7), with e = gcd(a1, a2, b1+b2) =
y*(u*a1 + v*a2) + x*(b1+b2) it is g1*g2*e*(A, B+w), A = a1*a2/e^2,
B = (y*(u*a1*b2 + v*a2*b1) + x*(b1*b2-5))/e; a sum is the two-row HNF of both
bases, and a meet the lattice intersection (``qi_meet``). Only the answer is
a new record: ``_compose`` is the product on triples, ``qi_divide`` takes
conj(den) = (g, a, -b mod a), its candidate and the multiply-back certificate
as triples, and a product by O, or a sum or meet equal to an operand, is that
operand. Only ``qi_normalize`` runs the general reduction ``_hnf2``. Powers,
containment and the enumeration of the ideals by norm are the kind's
(``instances.Kind``, ``instances.Quad5.ideals``); ``qi_factor`` reads prime
labels off g and a, which ``instances.Quad5.factor`` composes back.
"""

from __future__ import annotations

import math

from .errors import EmptyIdeal, InternalError, NotPrime
from .primes import factorint, is_prime_int, sqrt_mod_prime
from .reports import Record

def _xgcd(a, b):
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


class QuadIdeal(Record):
    __slots__ = ("g", "a", "b")

    def __init__(self, g, a, b):
        _set_g(self, g)
        _set_a(self, a)
        _set_b(self, b)

    def __eq__(self, other):
        if other is self:
            return True
        return other.__class__ is self.__class__ and self.g == other.g and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.g, self.a, self.b))

    def is_zero(self):
        return self.g == 0

    def norm(self):
        return self.g * self.g * self.a


_set_g, _set_a, _set_b = QuadIdeal.g.__set__, QuadIdeal.a.__set__, QuadIdeal.b.__set__

QI_ZERO = QuadIdeal(0, 1, 0)
QI_ONE = QuadIdeal(1, 1, 0)


def qi_principal_int(n):
    """The ideal (n) for a rational integer n >= 0."""
    return QuadIdeal(n, 1, 0) if n else QI_ZERO


def _hnf2(rows):
    """HNF basis ((alpha,0),(beta,delta)) of the module spanned by rows.

    Rows are (x, y) coordinates in the 1, w basis. Raises InternalError if the
    module has rank < 2 (a nonzero ideal always has rank 2).
    """
    bx, by = 0, 0
    for x, y in rows:
        if y == 0:
            continue
        if by == 0:
            bx, by = x, y
        else:
            g, u, v = _xgcd(by, y)
            bx, by = u * bx + v * x, g
    if by == 0:
        raise InternalError("module has rank < 2")
    if by < 0:
        bx, by = -bx, -by
    ax = 0
    for x, y in rows:
        ax = math.gcd(ax, x - (y // by) * bx)
    if ax == 0:
        raise InternalError("module has rank < 2")
    return ax, bx % ax, by


def _from_hnf(alpha, beta, delta, i=QI_ZERO, j=QI_ZERO):
    """The ideal with HNF basis ((alpha, 0), (beta, delta)), i or j if equal; InternalError if not an ideal."""
    if alpha % delta or beta % delta:
        raise InternalError("module is not an ideal")
    a = alpha // delta
    b = (beta // delta) % a
    if (b * b + 5) % a:
        raise InternalError("module is not an ideal")
    if a == i.a and delta == i.g and b == i.b:
        return i
    if a == j.a and delta == j.g and b == j.b:
        return j
    return QuadIdeal(delta, a, b)


def qi_normalize(elements):
    """Ideal generated by elements given as (x, y) pairs meaning x + y*w."""
    rows = []
    for x, y in elements:
        rows.append((x, y))
        rows.append((-5 * y, x))  # w * (x + y*w)
    rows = [r for r in rows if r != (0, 0)]
    if not rows:
        return QI_ZERO
    return _from_hnf(*_hnf2(rows))


def _compose(g1, a1, b1, g2, a2, b2):
    """The product of nonzero g1*(a1, b1+w) and g2*(a2, b2+w) as (g, a, b), with ``_from_hnf``'s checks.
    Dirichlet composition: e = u*a1*y + v*a2*y + (b1+b2)*x is the least w-coefficient."""
    if a2 == 1:  # the second factor is (g2), a rational integer
        return g1 * g2, a1, b1
    if a1 == 1:
        return g1 * g2, a2, b2
    d, u, v = _xgcd(a1, a2)
    e, y, x = _xgcd(d, b1 + b2)
    a = a1 * a2 // e
    beta = y * (u * a1 * b2 + v * a2 * b1) + x * (b1 * b2 - 5)
    if a % e or beta % e:
        raise InternalError("module is not an ideal")
    a //= e
    b = (beta // e) % a
    if (b * b + 5) % a:
        raise InternalError("module is not an ideal")
    return g1 * g2 * e, a, b


def qi_mul(i, j):
    if not i.g or not j.g:
        return QI_ZERO
    if j.a == 1 and j.g == 1:  # j = O
        return i
    if i.a == 1 and i.g == 1:
        return j
    g, a, b = _compose(i.g, i.a, i.b, j.g, j.a, j.b)
    return QuadIdeal(g, a, b)


def qi_add(i, j):
    g1, g2 = i.g, j.g
    if not g1:
        return j
    if not g2:
        return i
    # the two-row HNF of the basis rows (g*a, 0), (g*b, g) of both ideals
    b1, b2 = i.b, j.b
    delta, u, v = (g1, 1, 0) if g1 == g2 else _xgcd(g1, g2)
    beta = u * g1 * b1 + v * g2 * b2
    alpha = math.gcd(g1 * i.a, g2 * j.a, g1 * b1 - g1 // delta * beta, g2 * b2 - g2 // delta * beta)
    return _from_hnf(alpha, beta, delta, i, j)


def qi_meet(i, j):
    """The intersection: x + y*w lies in g*(a, b+w) iff g | y and x = b*y (mod g*a),
    so a common member has lcm(g1, g2) | y and G | (b1 - b2)*y, G = gcd(g1*a1, g2*a2),
    and its x is found by CRT modulo lcm(g1*a1, g2*a2)."""
    if not i.g or not j.g:
        return QI_ZERO
    m1, m2 = i.g * i.a, j.g * j.a
    L = math.lcm(i.g, j.g)
    G, s, _ = _xgcd(m1, m2)
    delta = L * (G // math.gcd(G, L * (i.b - j.b)))
    r1, r2 = i.b * delta, j.b * delta
    alpha = m1 // G * m2
    return _from_hnf(alpha, (r1 + m1 * s * ((r2 - r1) // G)) % alpha, delta, i, j)


def qi_conj(i):
    return QuadIdeal(i.g, i.a, (-i.b) % i.a) if i.g else i


def qi_member(i, x, y):
    """True iff the element x + y*w lies in the ideal i."""
    if i.is_zero():
        return x == 0 and y == 0
    g, a, b = i.g, i.a, i.b
    return not (y % g or (x - (y // g) * (g * b)) % (g * a))


def qi_divide(num, den):
    """Exact quotient q with den*q == num, or None.

    Uses den * conj(den) = (norm(den)): the candidate is num * conj(den)
    divided by the norm, then verified by multiplying back, all on triples.
    """
    dg, da, db = den.g, den.a, den.b
    if not dg:
        raise EmptyIdeal("division by the zero ideal")
    if not num.g:
        return QI_ZERO
    g, a, b = _compose(num.g, num.a, num.b, dg, da, -db % da)
    n = dg * dg * da
    if g % n:
        return None
    g //= n
    if _compose(dg, da, db, g, a, b) != (num.g, num.a, num.b):
        return None
    return QuadIdeal(g, a, b)


def qi_prime_split(p):
    """The primes over the rational prime p, certified before returning.

    Ramified (p in {2, 5}) and inert p give a single ideal; split p gives the
    conjugate pair ordered by b. Inertness is recognizable by norm p*p.
    """
    if not is_prime_int(p):
        raise NotPrime(f"{p} is not a rational prime")
    if p == 2:
        primes = (QuadIdeal(1, 2, 1),)
    elif p == 5:
        primes = (QuadIdeal(1, 5, 0),)
    else:
        r = sqrt_mod_prime(-5, p)
        if r is None:
            primes = (qi_principal_int(p),)
        else:
            primes = tuple(QuadIdeal(1, p, b) for b in sorted((r, p - r)))
    _certify_split(p, primes)
    return primes


def _certify_split(p, primes):
    principal, q = qi_principal_int(p), primes[0]
    if len(primes) == 2:
        q2 = primes[1]
        ok = q != q2 and q.norm() == q2.norm() == p and qi_mul(q, q2) == principal and qi_conj(q) == q2
    elif q.norm() == p:
        ok = qi_mul(q, q) == principal
    else:
        ok = q == principal and q.norm() == p * p
    if not ok:
        raise InternalError("prime splitting certificate failed")


def prime_for_root(p, b):
    """The prime ideal labelled (p, b); b None means the inert prime (p)."""
    return qi_principal_int(p) if b is None else QuadIdeal(1, p, b)


def qi_factor(i):
    """Factor a nonzero ideal into prime labels {(p, b|None): exponent}.

    The labels are read off g and a; ``instances.Quad5.factor`` certifies
    them by composing them back.
    """
    if i.is_zero():
        raise EmptyIdeal("cannot factor the zero ideal")
    out = {}

    def bump(label, e):
        out[label] = out.get(label, 0) + e

    for p, e in factorint(i.g).items() if i.g > 1 else ():
        primes = qi_prime_split(p)
        if len(primes) == 2:
            bump((p, primes[0].b), e)
            bump((p, primes[1].b), e)
        elif primes[0].norm() == p:
            bump((p, primes[0].b), 2 * e)
        else:
            bump((p, None), e)
    for p, e in factorint(i.a).items() if i.a > 1 else ():
        r = i.b % p
        if (r * r + 5) % p:
            raise InternalError("primitive part divisible by an inert prime")
        bump((p, r), e)
    return out

