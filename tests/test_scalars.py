"""Scalar ring: star structure, numeric evaluation, cyclotomic reduction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtorus.scalars import (
    CyclotomicMode,
    QScalar,
    cyclotomic_polynomial,
    invert_in_cyclotomic_field,
)

scalars = st.builds(
    lambda pairs: QScalar(
        {k: Fraction(num, den) for (k, num, den) in pairs}
    ),
    st.lists(
        st.tuples(
            st.integers(-8, 8),
            st.integers(-20, 20),
            st.integers(1, 12),
        ),
        max_size=5,
    ),
)


def test_star_on_powers():
    assert QScalar.q_power(2).star() == QScalar.q_power(-2)
    assert QScalar.one().star() == QScalar.one()
    # the coefficient of the starred off-diagonal generator flips its power
    assert QScalar.q_power(-1, -1).star() == QScalar.q_power(1, -1)


@given(scalars)
def test_star_is_involutive(s):
    assert s.star().star() == s


@given(scalars, scalars)
def test_star_is_ring_map(s, t):
    assert (s * t).star() == s.star() * t.star()
    assert (s + t).star() == s.star() + t.star()


def test_eval_examples():
    assert QScalar.q_power(1).eval_unit(0.0) == pytest.approx(1.0)
    assert QScalar.q_power(1).eval_unit(0.25) == pytest.approx(1j)
    both = QScalar.q_power(-1) + QScalar.q_power(1)
    assert abs(both.eval_unit(0.25)) < 1e-12


@given(scalars, scalars, st.floats(0, 0.999, allow_nan=False))
@settings(max_examples=60)
def test_eval_is_ring_hom(s, t, theta):
    direct = (s * t).eval_unit(theta)
    split = s.eval_unit(theta) * t.eval_unit(theta)
    assert abs(direct - split) <= 1e-9 * max(1.0, abs(direct))


@given(scalars, st.floats(0, 0.999, allow_nan=False))
@settings(max_examples=60)
def test_eval_star_is_conjugation(s, theta):
    assert abs(
        s.star().eval_unit(theta) - s.eval_unit(theta).conjugate()
    ) <= 1e-9 * max(1.0, abs(s.eval_unit(theta)))


def test_reduce_examples():
    mode = CyclotomicMode(4)
    assert mode.canon(QScalar.q_power(5)) == QScalar.q_power(1)
    assert mode.canon(QScalar.q_power(4) - 1).is_zero()
    # canonical representatives have degree below phi(4) = 2
    untouched = QScalar({0: 1, 1: 1})
    assert mode.canon(untouched) == untouched
    assert mode.canon(QScalar({0: 1, 1: 1, 2: 1, 3: 1})).is_zero()


@given(scalars, scalars, st.integers(1, 9))
@settings(max_examples=60)
def test_reduce_is_ring_hom(s, t, order):
    mode = CyclotomicMode(order)
    assert mode.canon(s * t) == mode.canon(mode.canon(s) * mode.canon(t))
    assert mode.canon(s + t) == mode.canon(mode.canon(s) + mode.canon(t))


@given(scalars, st.integers(1, 9))
def test_reduce_is_idempotent(s, order):
    mode = CyclotomicMode(order)
    once = mode.canon(s)
    assert mode.canon(once) == once


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert len(cyclotomic_polynomial(12)) == 5  # degree phi(12) = 4


def test_primitive_mode_identifies_the_root():
    mode = CyclotomicMode(2)
    assert mode.canon(QScalar.q_power(1) + 1).is_zero()  # q = -1
    mode4 = CyclotomicMode(4)
    assert mode4.canon(QScalar.q_power(2) + 1).is_zero()  # q^2 = -1


def test_field_inversion():
    mode = CyclotomicMode(4)
    s = QScalar.q_power(1) + 1  # 1 + i
    inv = invert_in_cyclotomic_field(s, mode)
    assert mode.canon(s * inv) == QScalar.one()


def test_monomial_inverse_and_errors():
    assert QScalar.q_power(3, Fraction(2)).inverse() == QScalar.q_power(-3, Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        (QScalar.one() + QScalar.q_power(1)).inverse()
