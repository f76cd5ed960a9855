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
once to their product.

The text is scanned once into a list of token texts, and the descent reads
that list by index.  The list ends in one terminator: ``""`` at the end of
the text, or ``" "`` where the text has its first character that starts no
token.  That character is a fault like any other, met when the descent
reaches it, so an input's leftmost fault is the one raised.  Positions are
worked out only for the message of a fault.
"""

import re
from fractions import Fraction

from .algebras import ONE, Element, WordAlgebra
from .errors import ExprSyntaxError, UnknownGenerator
from .scalars import QScalar

_TOKEN = re.compile(r"\d+|[A-Za-z][A-Za-z0-9]*|[-+*/^()]")
MAX_NESTING = 200  # parentheses; keeps the recursion inside Python's stack limit


def _scan(text: str) -> list[str]:
    """The token texts before the first bad character, then the terminator."""
    toks = _TOKEN.findall(text)
    if "".join(toks) == "".join(text.split()):
        return toks + [""]
    return toks[: len(_layout(text)[0])] + [" "]


def _layout(text: str) -> tuple[list[int], int | None]:
    """The start of each token before the first bad character, and the
    position of that character (None when every character is in a token or
    is whitespace)."""
    starts, end = [], 0
    for m in _TOKEN.finditer(text):
        if text[end : m.start()].strip():
            break
        starts.append(m.start())
        end = m.end()
    rest = text[end:]
    return starts, (len(text) - len(rest.lstrip()) if rest.strip() else None)


def _fail(text: str, i: int, message: str):
    """Raise the fault met at token ``i``; at the terminator, that is the end
    of the text or its bad character, whatever the descent expected there."""
    starts, bad = _layout(text)
    if i < len(starts):
        raise ExprSyntaxError(message, starts[i])
    if bad is None:
        raise ExprSyntaxError("unexpected end of input", len(text))
    raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)


def parse_element(text: str, algebra: WordAlgebra) -> Element:
    """The element of ``algebra`` that ``text`` denotes."""
    toks = _scan(text)
    names, gen = algebra.generator_names, algebra.gen

    def expr(i, depth):
        """(the sum that starts at token i, the index of the token after it)"""
        negate = toks[i] == "-"
        i += negate
        terms = []
        while True:
            element, scalar, i = term(i, depth)
            terms.append((element, -scalar if negate else scalar))
            sign = toks[i]
            if sign != "+" and sign != "-":
                break
            negate = sign == "-"
            i += 1
        if len(terms) == 1 and terms[0][1] is ONE:
            return terms[0][0], i
        return algebra.combine(terms), i

    def term(i, depth):
        """(product of the non-scalar factors, product of the scalar ones, next index)"""
        out, scalar = None, ONE
        while True:
            tok = toks[i]
            i += 1
            if tok in names or tok == "q":
                power = 1
                if toks[i] == "^":
                    i += 1
                    negative = toks[i] == "-"
                    i += negative
                    if not toks[i].isdigit():
                        _fail(text, i, "expected an integer exponent")
                    power = -int(toks[i]) if negative else int(toks[i])
                    i += 1
                if tok == "q":
                    x = QScalar.q_power(power)
                    scalar = x if scalar is ONE else scalar * x
                else:
                    x = gen(tok, power)
                    out = x if out is None else out * x
            elif tok.isdigit():
                value = int(tok)
                if toks[i] == "/":
                    den = toks[i + 1]
                    if not den.isdigit():
                        _fail(text, i + 1, "expected an integer denominator")
                    if not int(den):
                        _fail(text, i + 1, "zero denominator")
                    value = Fraction(value, int(den))
                    i += 2
                x = QScalar.of(value)
                scalar = x if scalar is ONE else scalar * x
            elif tok == "(":
                if depth == MAX_NESTING:
                    _fail(text, i - 1, f"parentheses nested deeper than {MAX_NESTING}")
                x, i = expr(i, depth + 1)
                if toks[i] != ")":
                    _fail(text, i, "expected ')'")
                i += 1
                out = x if out is None else out * x
            elif tok[:1].isalpha():
                raise UnknownGenerator(f"{tok!r} is not a generator of {algebra.tag}")
            else:
                _fail(text, i - 1, f"unexpected token {tok!r}")
            if toks[i] != "*":
                return (algebra.unit() if out is None else out), scalar, i
            i += 1

    out, i = expr(0, 0)
    if toks[i]:
        _fail(text, i, f"trailing input {toks[i]!r}")
    return out
