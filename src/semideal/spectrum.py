"""Classified prime spectra and Krull dimension.

Primes are addressed by small symbolic labels so that factorizations and CLI
output are stable: numeric labels p for the principal primes of the gcd-like
instances and n0, MAX for the n0 ideal of everything except 1, t and u for
the one nonzero prime of dvs and lagrassa, and (p, b) pairs for quad5 where b
is the HNF coefficient of the degree-one prime over p (None for inert p).
"""

from __future__ import annotations

from .errors import UnknownPrime
from .ideals import Ideal, ideal_contains, ideal_equals, zero_ideal
from .reports import Record


class PrimeLabel(Record):
    __slots__ = ("instance", "kind", "p", "b")  # kind: "numeric" | "max" | "t" | "u" | "quad"

    def __init__(self, instance, kind, p=None, b=None):
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "b", b)

    def sort_key(self):
        order = {"numeric": 0, "quad": 0, "max": 1, "t": 0, "u": 0}
        return (order[self.kind], self.p or 0, -1 if self.b is None else self.b)

    def text(self):
        if self.kind == "numeric":
            return str(self.p)
        if self.kind == "max":
            return "MAX"
        if self.kind in ("t", "u"):
            return self.kind
        if self.b is None or self.p in (2, 5):
            return f"P{self.p}"
        return f"P{self.p}[{self.b}]"

    def ideal(self):
        return Ideal(self.instance, self.instance.arith.prime(self.kind, self.p, self.b))


def spectrum(inst, bound=10):
    """The classified prime labels, materialized up to bound where infinite."""
    return [PrimeLabel(inst, *lab) for lab in inst.arith.prime_labels(bound)]


def label_from_text(inst, text):
    """Parse a label of spectrum(inst, 101) printed by text(); integers mean numeric
    primes. Only the labels over the p that "p", "Pp" or "Pp[b]" names are built."""
    digits = text.removeprefix("P").split("[", 1)[0]
    p = int(digits) if len(digits) <= 3 and digits.isascii() and digits.isdigit() else 0  # 101 has 3 digits
    for label in (PrimeLabel(inst, *lab) for lab in inst.arith.prime_labels(min(p, 101), p)):
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
