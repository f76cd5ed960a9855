"""Expression parsing for the command-line surface.

Grammar (whitespace insensitive)::

    expr   := ('-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := scalar | gen ('^' int)? | '(' expr ')'
    scalar := NUMBER ('/' NUMBER)? | 'q' ('^' int)?
    int    := ('-')? NUMBER

A name is ``q`` or one of the algebra's ``generator_names``, checked where it
is read.  A term gathers its scalar factors (``p/r``, ``q^k``) into one
scalar, multiplies its other factors left to right, and applies the scalar
once to their product.  Every factor is still read, checked and evaluated
before the next is looked at, so an input's leftmost fault is the one raised.
"""

import re
from fractions import Fraction

from .algebras import Element, WordAlgebra
from .errors import ExprSyntaxError, UnknownGenerator
from .scalars import QScalar

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()]))")
_KINDS = (None, "num", "name", "op")  # by the number of the matching group
MAX_NESTING = 200  # parentheses; keeps the recursion inside Python's stack limit


def _tokens(text: str):
    """(kind, text, position) triples, read on demand, then an "end" token."""
    pos = 0
    while m := _TOKEN.match(text, pos):
        yield _KINDS[m.lastindex], m.group(m.lastindex), m.start(m.lastindex)
        pos = m.end()
    if text[pos:].strip():
        raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
    yield "end", "", len(text)


def parse_element(text: str, algebra: WordAlgebra) -> Element:
    """The element of ``algebra`` that ``text`` denotes."""
    tokens, ahead = _tokens(text), []  # ahead: the next token, once looked at

    def peek():
        if not ahead:
            ahead.append(next(tokens))
        return ahead[0]

    def take():
        if peek()[0] == "end":
            raise ExprSyntaxError("unexpected end of input", len(text))
        return ahead.pop()

    def accept(symbols):  # take the next token if it is an operator in symbols
        kind, word, _ = peek()
        return ahead.pop()[1] if kind == "op" and word in symbols else None

    def integer(what):
        kind, word, pos = take()
        if kind != "num":
            raise ExprSyntaxError(f"expected an integer {what}", pos)
        return int(word), pos

    def expr(depth):
        sign = accept("-") or "+"
        terms = []
        while sign:
            element, scalar = term(depth)
            terms.append((element, -scalar if sign == "-" else scalar))
            sign = accept("+-")
        return algebra.combine(terms)

    def term(depth):
        """(product of the non-scalar factors, product of the scalar ones)"""
        out, scalar = None, QScalar.one()
        while True:
            x = factor(depth)
            if isinstance(x, QScalar):
                scalar = scalar * x
            else:
                out = x if out is None else out * x
            if not accept("*"):
                return (algebra.unit() if out is None else out), scalar

    def factor(depth):
        """A QScalar for a scalar factor, else an Element."""
        kind, word, pos = take()
        if kind == "num":
            value = int(word)
            if accept("/"):
                den, pos = integer("denominator")
                if not den:
                    raise ExprSyntaxError("zero denominator", pos)
                value = Fraction(value, den)
            return QScalar.of(value)
        if kind == "name":
            if word != "q" and word not in algebra.generator_names:
                raise UnknownGenerator(f"{word!r} is not a generator of {algebra.tag}")
            power = 1
            if accept("^"):
                power = (-1 if accept("-") else 1) * integer("exponent")[0]
            if word == "q":
                return QScalar.q_power(power)
            return algebra.gen(word, power)
        if word != "(":
            raise ExprSyntaxError(f"unexpected token {word!r}", pos)
        if depth == MAX_NESTING:
            raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", pos)
        inner = expr(depth + 1)
        if not accept(")"):
            raise ExprSyntaxError("expected ')'", take()[2])
        return inner

    out = expr(0)
    kind, word, pos = peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {word!r}", pos)
    return out
