"""sympy as an independent oracle for the exact linear algebra and the
cyclotomic fields.

``solve_unique`` and ``nullspace`` share one Gauss-Jordan elimination; here
they are compared with sympy's own elimination over the field Q(q).  The
cyclotomic polynomials and field inverses are compared with
``sympy.cyclotomic_poly`` and ``sympy.invert``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from qdtorus.linalg import nullspace, solve_unique  # noqa: E402
from qdtorus.scalars import (  # noqa: E402
    CyclotomicMode,
    QScalar,
    cyclotomic_polynomial,
    invert_in_cyclotomic_field,
)

q = sympy.symbols("q")
FIELD = sympy.QQ.frac_field(q)

coefficients = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
)
laurent = st.dictionaries(st.integers(-2, 2), coefficients, max_size=3).map(QScalar)


def to_sympy(s: QScalar, order: int | None = None):
    """s as a sympy expression; with ``order``, exponents taken modulo it."""
    return sum(
        (
            sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
            * q ** (k if order is None else k % order)
            for k, c in s.items()
        ),
        sympy.Integer(0),
    )


def field_matrix(rows, ncols: int) -> DomainMatrix:
    return DomainMatrix(
        [[FIELD.from_sympy(to_sympy(QScalar.of(c))) for c in row] for row in rows],
        (len(rows), ncols),
        FIELD,
    )


def is_laurent(value) -> bool:
    return len(FIELD.denom(value)) == 1  # the denominator is c * q^k


def matrices(nrows: int, ncols: int):
    row = st.lists(laurent, min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows)


# square systems and systems with one row more than columns
square_or_tall = st.tuples(st.integers(1, 3), st.integers(0, 1)).flatmap(
    lambda shape: matrices(shape[0] + shape[1], shape[0])
)


@given(rows=square_or_tall, data=st.data())
@settings(max_examples=100, deadline=None)
def test_solve_unique_agrees_with_sympy(rows, data):
    ncols = len(rows[0])
    if data.draw(st.booleans()):  # a consistent right-hand side with Laurent x
        x = data.draw(st.lists(laurent, min_size=ncols, max_size=ncols))
        rhs = [sum((a * b for a, b in zip(row, x)), QScalar.zero()) for row in rows]
    else:
        rhs = data.draw(st.lists(laurent, min_size=len(rows), max_size=len(rows)))
    augmented = field_matrix([row + [b] for row, b in zip(rows, rhs)], ncols + 1)
    reduced, pivots = augmented.rref()
    unique = len(pivots) == ncols and ncols not in pivots
    values = [row[ncols] for row in reduced.to_list()[:ncols]] if unique else []
    if not unique or not all(is_laurent(v) for v in values):
        with pytest.raises(ArithmeticError):
            solve_unique(rows, rhs)
        return
    got = solve_unique(rows, rhs)
    assert [FIELD.from_sympy(to_sympy(s)) for s in got] == values


@given(nrows=st.integers(0, 3), ncols=st.integers(1, 3), data=st.data())
@settings(max_examples=80, deadline=None)
def test_nullspace_agrees_with_sympy(nrows, ncols, data):
    rows = data.draw(matrices(nrows, ncols))
    if nrows >= 2 and data.draw(st.booleans()):  # force a dependent row
        rows.append([a * QScalar.q_power(1) + b for a, b in zip(rows[0], rows[1])])
    basis = nullspace(rows, ncols)
    matrix = field_matrix(rows, ncols)
    dimension = ncols - matrix.rank()
    assert len(basis) == dimension
    if basis:
        kernel = field_matrix(basis, ncols)
        assert kernel.rank() == dimension
        assert (matrix * kernel.transpose()).is_zero_matrix


@given(st.integers(1, 60))
@settings(deadline=None)
def test_cyclotomic_polynomial_agrees_with_sympy(order):
    descending = sympy.Poly(sympy.cyclotomic_poly(order, q), q).all_coeffs()
    assert cyclotomic_polynomial(order) == tuple(Fraction(int(c)) for c in reversed(descending))


@given(laurent, st.integers(1, 30))
@settings(max_examples=120, deadline=None)
def test_field_inverse_agrees_with_sympy(s, order):
    mode = CyclotomicMode(order)
    phi = sympy.cyclotomic_poly(order, q)
    # q^order = 1 in the field, so exponents may be taken modulo the order
    value = sympy.rem(to_sympy(s, order), phi, q)
    if value == 0:
        with pytest.raises(ZeroDivisionError):
            invert_in_cyclotomic_field(s, mode)
        return
    want = sympy.rem(sympy.invert(value, phi, q), phi, q)
    assert sympy.expand(to_sympy(invert_in_cyclotomic_field(s, mode)) - want) == 0
