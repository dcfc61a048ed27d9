"""Recursive-descent parser for the ideal expression language.

Grammar (left-associative unless stated):

    expr := add
    add  := mul (('+' | '&') mul)*
    mul  := pow ('*' pow)*
    pow  := atom ('^' NAT)?
    atom := 'I(' RAT (',' RAT)* ')' | '[' expr ':' expr ']' | 'inv' atom
          | '(' expr ')'

'&' is intersection and shares precedence with '+'; '*' binds tighter; '^'
tightest. RAT is NAT or NAT/NAT. unparse(parse_expr(s)) reparses to an
equal tree.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotFractional, ParseError
from .ideals import (
    ideal_from_generators,
    ideal_intersect,
    ideal_invert,
    ideal_power,
    ideal_product,
    ideal_quotient,
    ideal_str,
    ideal_sum,
)
from .reports import Record


class IdealLit(Record):
    __slots__ = ("values",)  # nonempty tuple of Fractions


class Sum(Record):
    __slots__ = ("left", "right")


class Intersect(Record):
    __slots__ = ("left", "right")


class Product(Record):
    __slots__ = ("left", "right")


class Power(Record):
    __slots__ = ("base", "exponent")


class Quotient(Record):
    __slots__ = ("numerator", "denominator")


class Invert(Record):
    __slots__ = ("arg",)


_PUNCT = ("(", ")", "[", "]", ":", ",", "+", "&", "*", "^", "/")


def _tokenize(text):
    """Tokens as (kind, value, 1-based column); kinds NAT, NAME, punct, END."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            out.append(("NAT", int(text[i:j]), i + 1))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            out.append(("NAME", text[i:j], i + 1))
            i = j
            continue
        if ch in _PUNCT:
            out.append((ch, ch, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at column {i + 1}", i + 1, ("token",))
    out.append(("END", None, n + 1))
    return out


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, expected_desc):
        tok = self.peek()
        if tok[0] != kind:
            self.fail(expected_desc)
        return self.take()

    def fail(self, expected):
        tok = self.peek()
        got = "end of input" if tok[0] == "END" else repr(str(tok[1]))
        expected = expected if isinstance(expected, tuple) else (expected,)
        raise ParseError(
            f"column {tok[2]}: expected {' or '.join(expected)}, got {got}",
            tok[2],
            expected,
        )

    def parse(self):
        node = self.add()
        if self.peek()[0] != "END":
            self.fail(("'+'", "'&'", "'*'", "end of input"))
        return node

    def add(self):
        node = self.mul()
        while self.peek()[0] in ("+", "&"):
            op = self.take()[0]
            rhs = self.mul()
            node = Sum(node, rhs) if op == "+" else Intersect(node, rhs)
        return node

    def mul(self):
        node = self.pow()
        while self.peek()[0] == "*":
            self.take()
            node = Product(node, self.pow())
        return node

    def pow(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.take()
            exp = self.expect("NAT", "NAT")[1]
            node = Power(node, exp)
        return node

    def rat(self):
        num = self.expect("NAT", "RAT")[1]
        if self.peek()[0] == "/":
            self.take()
            den = self.expect("NAT", "NAT")[1]
            if den == 0:
                tok = self.toks[self.pos - 1]
                raise ParseError(f"column {tok[2]}: zero denominator", tok[2], ("nonzero NAT",))
            return Fraction(num, den)
        return Fraction(num)

    def atom(self):
        tok = self.peek()
        if tok[0] == "NAME":
            if tok[1] == "I":
                self.take()
                self.expect("(", "'('")
                values = [self.rat()]
                while self.peek()[0] == ",":
                    self.take()
                    values.append(self.rat())
                self.expect(")", ("','", "')'"))
                return IdealLit(tuple(values))
            if tok[1] == "inv":
                self.take()
                return Invert(self.atom())
            self.fail(("'I('", "'inv'", "'['", "'('"))
        if tok[0] == "[":
            self.take()
            num = self.add()
            self.expect(":", "':'")
            den = self.add()
            self.expect("]", "']'")
            return Quotient(num, den)
        if tok[0] == "(":
            self.take()
            node = self.add()
            self.expect(")", "')'")
            return node
        self.fail(("'I('", "'inv'", "'['", "'('"))


def parse_expr(text):
    return _Parser(text).parse()


def unparse(node):
    """Canonical text whose reparse equals node (parenthesized by level)."""
    if isinstance(node, IdealLit):
        return "I(" + ",".join(str(v) for v in node.values) + ")"
    if isinstance(node, Sum):
        return f"({unparse(node.left)} + {unparse(node.right)})"
    if isinstance(node, Intersect):
        return f"({unparse(node.left)} & {unparse(node.right)})"
    if isinstance(node, Product):
        return f"({unparse(node.left)} * {unparse(node.right)})"
    if isinstance(node, Power):
        return f"{unparse(node.base)}^{node.exponent}"
    if isinstance(node, Quotient):
        return f"[{unparse(node.numerator)} : {unparse(node.denominator)}]"
    if isinstance(node, Invert):
        return f"inv ({unparse(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


def eval_expr(inst, node):
    """Evaluate to an Ideal; literals clear denominators instance-wide."""

    def go(n):
        if isinstance(n, IdealLit):
            return ideal_from_generators(inst, n.values)
        if isinstance(n, Sum):
            return ideal_sum(go(n.left), go(n.right))
        if isinstance(n, Intersect):
            return ideal_intersect(go(n.left), go(n.right))
        if isinstance(n, Product):
            return ideal_product(go(n.left), go(n.right))
        if isinstance(n, Power):
            return ideal_power(go(n.base), n.exponent)
        if isinstance(n, Quotient):
            return ideal_quotient(go(n.numerator), go(n.denominator))
        if isinstance(n, Invert):
            inner = go(n.arg)
            inv = ideal_invert(inner)
            if inv is None:
                raise NotFractional(f"{ideal_str(inner)} is not invertible")
            return inv
        raise TypeError(f"not an expression node: {n!r}")

    return go(node)
