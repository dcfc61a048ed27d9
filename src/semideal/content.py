"""Content ideals of polynomials and the product formulas they satisfy.

The content of f is the ideal spanned by its coefficients. c(fg) always sits
inside c(f)c(g); gaussian_check reports whether they agree exactly and, when
they do not, exhibits a member of the product missing from c(fg).
dm_exponent finds the least n with c(f)^(n+1) c(g) = c(f)^n c(fg), capped at
deg(g) + 1. Both take the three contents from ``contents``, which a caller
that asks both questions computes once and passes to each.
"""

from __future__ import annotations

from .errors import DMCapExceeded, InstanceMismatch, InternalError, Unsupported
from .ideals import (
    Ideal,
    ideal_contains,
    ideal_equals,
    ideal_from_generators,
    ideal_membership,
    ideal_product,
    ideal_str,
    separating_member,
    unit_ideal,
)
from .instances import instance
from .polynomials import Polynomial, poly_mul, poly_str
from .reports import ContentReport, LawReport


def content(f: Polynomial) -> Ideal:
    return ideal_from_generators(f.instance, list(f.coeffs))


def contents(f: Polynomial, g: Polynomial):
    """(c(f), c(g), c(fg)), which gaussian_check and dm_exponent share."""
    if f.instance is not g.instance:
        raise InstanceMismatch("polynomials over different instances")
    return content(f), content(g), content(poly_mul(f, g))


def gaussian_check(f: Polynomial, g: Polynomial, cs=None) -> ContentReport:
    """cs: contents(f, g), when the caller has them already."""
    cf, cg, cfg = cs or contents(f, g)
    inst = f.instance
    prod = ideal_product(cf, cg)
    if not ideal_contains(prod, cfg):
        raise InternalError("content of the product escaped the product of contents")
    gaussian = ideal_equals(cfg, prod)
    witness = None
    if not gaussian:
        member = separating_member(cfg, prod)
        witness = {
            "member": inst.arith.estr(member) if member is not None else None,
            "in": "c(f)c(g)",
            "not_in": "c(fg)",
        }
    return ContentReport(
        instance=inst.id,
        f=poly_str(f),
        g=poly_str(g),
        content_f=ideal_str(cf),
        content_g=ideal_str(cg),
        content_fg=ideal_str(cfg),
        product=ideal_str(prod),
        gaussian=gaussian,
        dm_exponent=0 if gaussian else None,
        witness=witness,
    )


def dm_exponent(f: Polynomial, g: Polynomial, cs=None) -> int:
    """Least n with c(f)^(n+1) c(g) = c(f)^n c(fg); raises past deg(g) + 1.
    cs: contents(f, g), when the caller has them already."""
    cf, cg, cfg = cs or contents(f, g)
    cap = g.degree() + 1 if g.degree() >= 0 else 1
    power = unit_ideal(f.instance)  # c(f)^n as n climbs
    for n in range(cap + 1):
        if ideal_equals(ideal_product(ideal_product(power, cf), cg), ideal_product(power, cfg)):
            return n
        power = ideal_product(power, cf)
    raise DMCapExceeded(f"no exponent up to {cap} balanced the content product")


# ---------------------------------------------------------------------------
# module-level cancellation probes

_LAG = instance("lagrassa").arith


def _span(vectors, width):
    """Close a set of lagrassa tuples under + and scalar multiplication."""
    zero_vec = tuple("0" for _ in range(width))
    out = {zero_vec} | set(vectors)
    while True:
        nxt = set(out)
        for v in out:
            for w in out:
                nxt.add(tuple(_LAG.eadd(a, b) for a, b in zip(v, w)))
            for s in ("u", "1"):
                nxt.add(tuple(_LAG.emul(s, a) for a in v))
        if nxt == out:
            return frozenset(out)
        out = nxt


def _all_submodules(width):
    """Every subsemimodule of L^width, as frozensets of tuples."""
    from itertools import product as iproduct

    alphabet = ("0", "u", "1")
    zero_vec = tuple("0" for _ in range(width))
    nonzero = [v for v in iproduct(alphabet, repeat=width) if v != zero_vec]
    out = []
    for bits in range(1 << len(nonzero)):
        chosen = [nonzero[i] for i in range(len(nonzero)) if bits >> i & 1]
        cand = frozenset(chosen) | {zero_vec}
        if _span(cand, width) == cand:
            out.append(cand)
    return sorted(set(out), key=lambda m: (len(m), sorted(m)))


def _scale_module(a_members, module, width):
    gens = set()
    for s in a_members:
        for v in module:
            gens.add(tuple(_LAG.emul(s, x) for x in v))
    return _span(gens, width)


def m_cancellation_check(a: Ideal, module_spec) -> LawReport:
    """Search for distinct modules P, Q with aP = aQ.

    module_spec is ("power", n) to sweep every subsemimodule of L^n on the
    lagrassa instance (n <= 2), or ("ideal-pairs", [(P, Q), ...]) to test
    given pairs of ideals as S-subsemimodules of S on any instance.
    """
    inst = a.instance
    tag, arg = module_spec
    if tag == "power":
        if not inst.arith.finite:
            raise Unsupported("power sweeps enumerate lagrassa modules only")
        if not 1 <= arg <= 2:
            raise Unsupported("module power is bounded by 2")
        width = arg
        members = [p for p in ("0", "u", "1") if ideal_membership(a, p)]
        modules = _all_submodules(width)
        images = {}
        trials = 0
        for m in modules:
            trials += 1
            img = _scale_module(members, m, width)
            if img in images and images[img] != m:
                witness = {
                    "a": ideal_str(a),
                    "P": sorted("".join(v) for v in images[img]),
                    "Q": sorted("".join(v) for v in m),
                    "aP": sorted("".join(v) for v in img),
                }
                return LawReport("m-cancellation", inst.id, trials, None, "fail", witness)
            images[img] = m
        return LawReport("m-cancellation", inst.id, trials, None, "pass", None)
    if tag != "ideal-pairs":
        raise Unsupported(f"unknown module spec {tag!r}")
    trials = 0
    for p, q in arg:
        trials += 1
        if ideal_equals(p, q):
            continue
        left = ideal_product(a, p)
        right = ideal_product(a, q)
        if ideal_equals(left, right):
            witness = {
                "a": ideal_str(a),
                "P": ideal_str(p),
                "Q": ideal_str(q),
                "aP": ideal_str(left),
            }
            return LawReport("m-cancellation", inst.id, trials, None, "fail", witness)
    return LawReport("m-cancellation", inst.id, trials, None, "pass", None)
