"""Expression parsing and printing for the command-line surface.

Grammar (whitespace insensitive)::

    expr   := ('-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := scalar | gen ('^' int)? | '(' expr ')'
    scalar := NUMBER ('/' NUMBER)? | 'q' ('^' int)?
    int    := ('-')? NUMBER

Generator names are the fixed alphabet a b c d D Dinv z u v x y d0 d1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebras import Algebra, Element
from .errors import ExprSyntaxError
from .scalars import QScalar

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()]))")

GENERATOR_NAMES = ("a", "b", "c", "d", "D", "Dinv", "z", "u", "v", "x", "y", "d0", "d1")


@dataclass(frozen=True)
class ScalarLit:
    value: QScalar

    def render(self) -> str:
        items = list(self.value.items())
        if len(items) != 1:
            raise ValueError("scalar literal must be a single term")
        k, c = items[0]
        if k == 0:
            return str(c)
        qpart = "q" if k == 1 else f"q^{k}"
        return qpart if c == 1 else f"{c}*{qpart}"


@dataclass(frozen=True)
class GenPow:
    name: str
    power: int = 1

    def render(self) -> str:
        return self.name if self.power == 1 else f"{self.name}^{self.power}"


@dataclass(frozen=True)
class Prod:
    factors: tuple

    def render(self) -> str:
        return "*".join(
            f"({f.render()})" if isinstance(f, Sum) else f.render()
            for f in self.factors
        )


@dataclass(frozen=True)
class Sum:
    terms: tuple  # of (sign, node) with sign in {+1, -1}

    def render(self) -> str:
        parts = []
        for sign, node in self.terms:
            body = node.render()
            if not parts:
                parts.append(body if sign > 0 else f"-{body}")
            else:
                parts.append(f" {'+' if sign > 0 else '-'} {body}")
        return "".join(parts)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                if text[pos:].strip():
                    raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
                break
            if m.group(1):
                self.tokens.append(("num", m.group(1), m.start(1)))
            elif m.group(2):
                self.tokens.append(("name", m.group(2), m.start(2)))
            else:
                self.tokens.append(("op", m.group(3), m.start(3)))
            pos = m.end()
        self.index = 0

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.text))
        self.index += 1
        return tok

    def expect_op(self, symbol: str):
        tok = self.next()
        if tok[0] != "op" or tok[1] != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}", tok[2])

    def parse(self) -> Sum:
        tree = self.parse_expr()
        tok = self.peek()
        if tok is not None:
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return tree

    def parse_expr(self) -> Sum:
        terms = []
        sign = 1
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.next()
            sign = -1
        terms.append((sign, self.parse_term()))
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.next()
                terms.append((1 if tok[1] == "+" else -1, self.parse_term()))
            else:
                return Sum(tuple(terms))

    def parse_term(self) -> Prod:
        factors = [self.parse_factor()]
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.next()
                factors.append(self.parse_factor())
            else:
                return Prod(tuple(factors))

    def parse_factor(self):
        tok = self.next()
        if tok[0] == "op" and tok[1] == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if tok[0] == "num":
            numerator = int(tok[1])
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                self.next()
                den = self.next()
                if den[0] != "num":
                    raise ExprSyntaxError("expected an integer denominator", den[2])
                return ScalarLit(QScalar.of(Fraction(numerator, int(den[1]))))
            return ScalarLit(QScalar.of(numerator))
        if tok[0] == "name":
            name = tok[1]
            power = 1
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "^":
                self.next()
                power = self.parse_int()
            if name == "q":
                return ScalarLit(QScalar.q_power(power))
            if name not in GENERATOR_NAMES:
                from .errors import UnknownGenerator

                raise UnknownGenerator(f"unknown generator {name!r}")
            return GenPow(name, power)
        raise ExprSyntaxError(f"unexpected token {tok[1]!r}", tok[2])

    def parse_int(self) -> int:
        tok = self.next()
        sign = 1
        if tok[0] == "op" and tok[1] == "-":
            sign = -1
            tok = self.next()
        if tok[0] != "num":
            raise ExprSyntaxError("expected an integer exponent", tok[2])
        return sign * int(tok[1])


def parse_expression(text: str) -> Sum:
    return _Parser(text).parse()


def print_expression(tree: Sum) -> str:
    return tree.render()


def to_element(tree, algebra: Algebra) -> Element:
    if isinstance(tree, Sum):
        return algebra.combine(
            (to_element(node, algebra), QScalar.of(sign)) for sign, node in tree.terms
        )
    if isinstance(tree, Prod):
        out = algebra.unit()
        for node in tree.factors:
            out = out * to_element(node, algebra)
        return out
    if isinstance(tree, ScalarLit):
        return algebra.unit() * tree.value
    if isinstance(tree, GenPow):
        return algebra.gen(tree.name, tree.power)
    raise TypeError(f"not an expression node: {tree!r}")


def parse_element(text: str, algebra: Algebra) -> Element:
    return to_element(parse_expression(text), algebra)
