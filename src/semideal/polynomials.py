"""Dense univariate polynomials over an instance.

Coefficients are raw payloads in ascending degree with no trailing zeros;
the zero polynomial has an empty coefficient tuple. Multiplication is the
convolution with the instance's own addition as the accumulator (so over the
gcd instance the coefficient sums are gcds).
"""

from __future__ import annotations

from .errors import InstanceMismatch
from .instances import zero
from .reports import Record


class Polynomial(Record):
    __slots__ = ("instance", "coeffs")

    def degree(self):
        return len(self.coeffs) - 1


def poly(inst, coeffs):
    zp = zero(inst).payload
    cs = list(coeffs)
    while cs and cs[-1] == zp:
        cs.pop()
    return Polynomial(inst, tuple(cs))


def poly_str(f):
    if not f.coeffs:
        return "0"
    zp = zero(f.instance).payload
    parts = []
    for i, c in enumerate(f.coeffs):
        if c == zp:
            continue
        cs = f.instance.arith.estr(c)
        if i == 0:
            parts.append(cs)
        else:
            x = "X" if i == 1 else f"X^{i}"
            parts.append(x if cs == "1" else f"{cs}*{x}")
    return " + ".join(parts)


def poly_mul(f, g):
    if f.instance is not g.instance:
        raise InstanceMismatch("polynomials over different instances")
    inst = f.instance
    zp = zero(inst).payload
    if not f.coeffs or not g.coeffs:
        return poly(inst, ())
    out = [zp] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = inst.arith.eadd(out[i + j], inst.arith.emul(a, b))
    return poly(inst, out)
