"""Expression grammar: values, printing round trips, error positions, robustness."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdtorus.algebras import ALGEBRAS, Element, adtq, at2, auq2, az2
from qdtorus.errors import ExprSyntaxError, QdtError, UnknownGenerator
from qdtorus.exprs import parse_element
from qdtorus.scalars import QScalar


def test_scalar_product_tree():
    for alg in (adtq(), auq2()):
        want = alg.gen("b") * alg.gen("a", 2) * QScalar.q_power(-2)
        assert parse_element("q^-2*b*a^2", alg) == want


def test_difference_tree():
    B = adtq()
    assert parse_element("D*z - D", B) == B.gen("D") * B.gen("z") - B.gen("D")
    assert parse_element("-D + D*z", B) == parse_element("D*z - D", B)


def test_rejects_fractional_exponent():
    with pytest.raises(ExprSyntaxError) as err:
        parse_element("a^(1/2)", adtq())
    assert err.value.position == 2


def test_rejects_garbage():
    B = adtq()
    with pytest.raises(ExprSyntaxError):
        parse_element("a + ", B)
    with pytest.raises(ExprSyntaxError):
        parse_element("(a", B)
    with pytest.raises(UnknownGenerator):
        parse_element("foo*a", B)


@pytest.mark.parametrize(
    "text, position",
    [("1/0", 2), ("3 / 00*a", 4), ("(" * 201 + "a" + ")" * 201, 200)],
    ids=["zero", "zeros", "too-deep"],
)
def test_zero_denominator_and_deep_nesting_are_syntax_errors(text, position):
    with pytest.raises(ExprSyntaxError) as err:
        parse_element(text, adtq())
    assert err.value.position == position


_DEEP = "(" * 201 + "a" + ")" * 201
_FAULTS = {  # id: (text, class, message)
    "caret": ("a^", ExprSyntaxError, "unexpected end of input (at position 2)"),
    "caret-name": ("a^-x", ExprSyntaxError, "expected an integer exponent (at position 3)"),
    "open-product": ("a*(b", ExprSyntaxError, "unexpected end of input (at position 4)"),
    "open": ("(a", ExprSyntaxError, "unexpected end of input (at position 2)"),
    "juxtaposed": ("a b", ExprSyntaxError, "trailing input 'b' (at position 2)"),
    "empty": ("", ExprSyntaxError, "unexpected end of input (at position 0)"),
    "blank": ("  ", ExprSyntaxError, "unexpected end of input (at position 2)"),
    "bad-after-space": ("a + $", ExprSyntaxError, "unexpected character '$' (at position 4)"),
    "bad-mid-text": ("a*b $ c", ExprSyntaxError, "unexpected character '$' (at position 4)"),
    "unknown-before-bad": ("x*$", UnknownGenerator, "'x' is not a generator of ADTq"),
    "201-deep": (_DEEP, ExprSyntaxError, "parentheses nested deeper than 200 (at position 200)"),
}


@pytest.mark.parametrize("text, error, message", _FAULTS.values(), ids=_FAULTS.keys())
def test_fault_class_message_and_position(text, error, message):
    with pytest.raises(QdtError) as err:
        parse_element(text, adtq())
    assert type(err.value) is error and str(err.value) == message


def test_nesting_up_to_the_limit_parses():
    B = adtq()
    assert parse_element("(" * 200 + "a" + ")" * 200, B) == B.gen("a")


def test_leftmost_fault_is_reported():
    with pytest.raises(UnknownGenerator):
        parse_element("foo + a^^2", adtq())
    with pytest.raises(ExprSyntaxError):
        parse_element("a^^2 + foo", adtq())
    with pytest.raises(UnknownGenerator):
        parse_element("u + 1/0", adtq())  # u is a generator of AT2 only


def test_rational_scalars():
    B = adtq()
    assert parse_element("1/2*z + 1/2*(1 - z) - 1/2", B).is_zero()


def _assert_round_trip(text):
    B = adtq()
    element = parse_element(text, B)
    assert parse_element(str(element) or "0", B) == element


@pytest.mark.parametrize(
    "text",
    [
        "q^-2*b*a^2",
        "D*z - D",
        "-q*D + q*D*z",
        "1/2*z",
        "(a + d)*(a + d)",
        "Dinv^3*c^2 - 5*b",
    ],
)
def test_round_trip(text):
    _assert_round_trip(text)


_round_trip_exprs = st.recursive(
    st.one_of(
        st.integers(1, 9).map(lambda n: str(n)),
        st.sampled_from(["a", "b", "c", "d", "D", "z", "q^2", "q^-1", "3/4"]),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: f"{ab[0]}*{ab[1]}"),
        st.tuples(inner, inner).map(lambda ab: f"{ab[0]} + {ab[1]}"),
        st.tuples(inner, inner).map(lambda ab: f"{ab[0]} - {ab[1]}"),
        inner.map(lambda a: f"({a})"),
    ),
    max_leaves=8,
)


@given(_round_trip_exprs)
@settings(max_examples=80)
def test_round_trip_generated(text):
    _assert_round_trip(text)


def test_element_round_trip_through_printer():
    # element printing stays inside the grammar
    for text in ("b*c", "z*b + a", "Dinv^2*c^3 - 1/3*z", "(2*z - 1)*(2*z - 1)"):
        _assert_round_trip(text)


def test_torus_expressions():
    torus = at2()
    assert parse_element("u^-2*v", torus) == torus.gen("u", -2) * torus.gen("v")


# Token soup over every algebra's generator names, a few unknown names and stray
# characters: operand-like and operator-like tokens alternate, so that faults
# also turn up after a well-formed prefix.  Tokens are joined by spaces so that
# numbers keep at most two digits (a^99999999 would only test memory).
_GENERATOR_NAMES = tuple(
    dict.fromkeys(name for make in ALGEBRAS.values() for name in make().generator_names)
)
_operands = st.one_of(
    st.one_of(st.integers(0, 9), st.integers(10, 99)).map(str),
    st.sampled_from(_GENERATOR_NAMES + ("q", "w", "Dinv2", "uinv")),
    st.sampled_from(["(", "-", "$", "é", "."]),
)
_operators = st.sampled_from("+-*/^()")
_soup = st.lists(st.tuples(_operands, _operators), max_size=8).map(
    lambda pairs: " ".join(f"{x} {op}" for x, op in pairs)
)


@pytest.mark.parametrize("make", [adtq, auq2, at2, az2], ids=["ADTq", "AUq2", "AT2", "AZ2"])
@given(text=_soup)
@example(text="1/0")
@example(text="(" * 2000 + "a" + ")" * 2000)
@settings(max_examples=300, deadline=None)
def test_any_input_gives_an_element_or_a_package_error(make, text):
    try:
        assert isinstance(parse_element(text, make()), Element)
    except QdtError:
        pass
