"""Integer number-theory helpers: primality, factorization, square roots."""

import math

from .errors import InternalError, InvalidInput, TooLarge

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI12 = 318665857834031151167461  # least strong pseudoprime to all 12 bases (Sorenson, Webster 2017)


def is_prime_int(n):
    """Miller-Rabin to the 12 prime bases up to 37, proven exact below _PSI12.

    From _PSI12 on, an n that one of the bases divides is still answered
    (False); any other n raises TooLarge.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _PSI12:
        raise TooLarge(f"primality of {n} is not decided: the test is exact below {_PSI12}")
    r, d = valuation(n - 1, 2)
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(n, p):
    """(e, n // p**e) for n >= 1, p**e the largest power of the prime p dividing n.

    It divides by p, p^2, p^4, ... while they divide, then steps back down
    through the same powers: O(log e) divisions, not one per unit of e.
    """
    e, w, steps = 0, 1, []
    m, r = divmod(n, p)
    while not r:
        n, e = m, e + w
        steps.append((p, w))
        p, w = p * p, w + w
        m, r = divmod(n, p)
    for p, w in reversed(steps):
        m, r = divmod(n, p)
        if not r:
            n, e = m, e + w
    return e, n


TRIAL_LIMIT = 10**7  # trial divisors tried (about 0.5 s of work) before an unsplit cofactor is refused


def factorint(n):
    """Trial-division factorization, {prime: exponent}, multiplied back.

    Past the divisor 1000 a cofactor below _PSI12 is tested with is_prime_int
    whenever it changed, so a large prime ends the search. A cofactor left
    unsplit past TRIAL_LIMIT, composite or too large to test, raises TooLarge.
    """
    if n <= 0:
        raise InvalidInput("positive integer required")
    out = {}
    m = n
    for p in (2, 3, 5):
        if m % p == 0:
            out[p], m = valuation(m, p)
    f = 7
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    tested = None
    while f * f <= m:
        if f > 1000 and m != tested:
            if m < _PSI12 and is_prime_int(m):
                break
            tested = m
        if f > TRIAL_LIMIT:
            raise TooLarge(f"{n} is not factored within the budget: its cofactor {m} has no factor up to {TRIAL_LIMIT}")
        if m % f == 0:
            out[f], m = valuation(m, f)
        f += inc[i]
        i = (i + 1) % 8
    if m > 1:
        out[m] = 1
    if math.prod(p**e for p, e in out.items()) != n:
        raise InternalError(f"the factorization of {n} does not multiply back")
    return out


def sqrt_mod_prime(a, p):
    """A square root of a modulo an odd prime p, or None if a is a nonresidue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    s, q = valuation(p - 1, 2)
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def primes_up_to(bound, low=2):
    """Primes p with low <= p <= bound, ascending."""
    return [p for p in range(max(low, 2), bound + 1) if is_prime_int(p)]
