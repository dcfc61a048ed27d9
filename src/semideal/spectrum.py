"""Classified prime spectra and Krull dimension.

Primes are addressed by small symbolic labels (p, b) so that factorizations
and CLI output are stable: p is the rational prime under the prime, or None
for the one prime of its kind that lies over no p (MAX, the n0 ideal of
everything except 1; t and u, the one nonzero prime of dvs and lagrassa),
and b is quad5's HNF coefficient of the degree-one prime over p (None
elsewhere, and for an inert p). The instance spells its own labels
(``label_str``).
"""

from __future__ import annotations

from .errors import UnknownPrime
from .ideals import _tag, ideal_contains, ideal_equals, zero_ideal
from .reports import Record


class PrimeLabel(Record):
    __slots__ = ("instance", "p", "b")

    def __init__(self, instance, p=None, b=None):
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "b", b)

    def sort_key(self):  # by p, the prime over no p last
        return (self.p is None, self.p or 0, -1 if self.b is None else self.b)

    def text(self):
        return self.instance.label_str(self.p, self.b)

    def ideal(self):
        return _tag(self.instance, self.instance.prime(self.p, self.b))


def spectrum(inst, bound=10):
    """The classified prime labels, materialized up to bound where infinite."""
    return [PrimeLabel(inst, *lab) for lab in inst.prime_labels(bound)]


def label_from_text(inst, text):
    """Parse a label of spectrum(inst, 101) printed by text(); integers mean numeric
    primes. Only the labels over the p that "p", "Pp" or "Pp[b]" names are built."""
    digits = text.removeprefix("P").split("[", 1)[0]
    p = int(digits) if len(digits) <= 3 and digits.isascii() and digits.isdigit() else 0  # 101 has 3 digits
    for label in (PrimeLabel(inst, *lab) for lab in inst.prime_labels(min(p, 101), p)):
        if label.text() == text:
            return label
    raise UnknownPrime(f"unknown prime label {text!r} for {inst.id}")


def krull_dimension(inst, bound=7):
    """Longest strict chain of classified primes starting at the zero ideal."""
    chain = [zero_ideal(inst)] + [lab.ideal() for lab in spectrum(inst, bound)]
    n = len(chain)
    below = [
        [
            j != i and ideal_contains(chain[j], chain[i]) and not ideal_equals(chain[i], chain[j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    memo = {}

    def depth(i):
        if i not in memo:
            memo[i] = max((depth(j) + 1 for j in range(n) if below[i][j]), default=0)
        return memo[i]

    return max(depth(i) for i in range(n))
