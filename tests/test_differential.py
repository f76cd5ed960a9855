"""Differential tests of the exact arithmetic against loop references.

The references are the straightforward implementations the package used
before its fast paths: scalars as dicts of Fraction coefficients combined by
nested loops, element sums folded as ``out = out + piece * c`` with the
coefficients canonicalised after every step, products of monomials read off
the rewriting normal form (ADTq multiplies in closed form), tensor products
expanded leg by leg into one-term tensors and folded, memoized maps
recomputed without their caches, the cleft-extension maps built from
words and ADTq products (they read lattice triples), leftmost reduction that rescans every word from
position 0 without a cache, Knuth-Bendix completion that orients one
critical pair per pass, and an expression parser that reads its tokens one at
a time from a lazy tokenizer.  The package must agree with them exactly, and
must store every coefficient as an ``int`` or as a ``Fraction`` with
denominator other than 1, never as a float.
"""

import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtorus import algebras, exprs, galois
from qdtorus.algebras import (
    Element,
    TensorElement,
    adtq,
    at2,
    at2q,
    auq2,
    az2,
    build_finite_quotient,
    corner_coordinates,
    corner_element,
    corner_triples,
    quotient_mon_word,
)
from qdtorus.errors import (
    CompletionFailure,
    ExprSyntaxError,
    NotInBaseImage,
    QdtError,
    UnknownGenerator,
)
from qdtorus.hopf import haar
from qdtorus.linalg import exact_div, nullspace, solve_unique
from qdtorus.report import Check
from qdtorus.scalars import (
    CyclotomicMode,
    QScalar,
    _poly_divmod,
    add_scaled,
    cyclotomic_polynomial,
    invert_in_cyclotomic_field,
    settle,
)
from qdtorus.words import RewriteRule, RewriteSystem

# ---------------------------------------------------------------------------
# Fraction-only reference scalars: {exponent: Fraction}, zeros dropped
# ---------------------------------------------------------------------------


def ref(raw) -> dict:
    return {k: Fraction(c) for k, c in raw.items() if c}


def ref_of(s: QScalar) -> dict:
    return {k: Fraction(c) for k, c in s.items()}


def ref_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}


def ref_neg(a):
    return {k: -c for k, c in a.items()}


def ref_mul(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, Fraction(0)) + c1 * c2
    return {k: c for k, c in out.items() if c}


def ref_pow(a, n):
    out = {0: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_star(a):
    return {-k: c for k, c in a.items()}


def ref_canon(a, order):
    out = {}
    for k, c in a.items():
        out[k % order] = out.get(k % order, Fraction(0)) + c
    phi = [Fraction(c) for c in cyclotomic_polynomial(order)]
    deg = len(phi) - 1
    coeffs = [Fraction(0)] * max(deg, max(out, default=0) + 1)
    for k, c in out.items():
        coeffs[k] += c
    for i in range(len(coeffs) - 1, deg - 1, -1):
        factor = coeffs[i] / phi[-1]
        for j, p in enumerate(phi):
            coeffs[i - deg + j] -= factor * p
    out = dict(enumerate(coeffs[:deg]))
    return {k: c for k, c in out.items() if c}


def assert_canonical(s: QScalar):
    for _, c in s.items():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
        assert c != 0


coefficients = st.one_of(
    st.integers(-20, 20),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
)
raw_scalars = st.dictionaries(st.integers(-8, 8), coefficients, max_size=5)
single_terms = st.dictionaries(st.integers(-8, 8), coefficients, min_size=1, max_size=1)


@given(st.one_of(raw_scalars, single_terms), st.one_of(raw_scalars, single_terms))
@settings(max_examples=300)
def test_ring_operations_match_the_reference(x, y):
    s, t = QScalar(x), QScalar(y)
    a, b = ref(x), ref(y)
    for got, want in (
        (s, a),
        (s + t, ref_add(a, b)),
        (s - t, ref_add(a, ref_neg(b))),
        (s * t, ref_mul(a, b)),
        (s**3, ref_pow(a, 3)),
        (s.star(), ref_star(a)),
    ):
        assert_canonical(got)
        assert ref_of(got) == want


@given(st.integers(-8, 8), coefficients, coefficients)
def test_int_and_fraction_operands(k, c, d):
    s = QScalar.q_power(k, c)
    for other in (d, Fraction(d), QScalar.of(d)):
        assert_canonical(s * other)
        assert_canonical(other * s)
        assert_canonical(s + other)
        assert ref_of(s * other) == ref_mul(ref({k: c}), ref({0: d}))
        assert ref_of(s + other) == ref_add(ref({k: c}), ref({0: d}))


@given(single_terms)
def test_monomial_inverse_matches_the_reference(x):
    s = QScalar(x)
    if s.is_zero():
        return
    inv = s.inverse()
    assert_canonical(inv)
    ((k, c),) = ref(x).items()
    assert ref_of(inv) == {-k: 1 / c}
    assert s * inv == QScalar.one()


def test_inverse_of_a_unit_matches_the_fraction_path():
    for k in range(-20, 21):
        for c in (1, -1, 2, -2, Fraction(3, 4)):
            inv = QScalar.q_power(k, c).inverse()
            assert_canonical(inv)
            assert inv == QScalar({-k: 1 / Fraction(c)})


@given(st.one_of(raw_scalars, single_terms))
def test_products_with_one_match_the_reference(x):
    """A product with the single term 1, as the ONE singleton, as a second
    instance of it or as a number, is the other factor, stored canonically."""
    s = QScalar(x)
    for one in (QScalar.one(), QScalar({0: Fraction(2, 2)}), 1, Fraction(1)):
        for got in (s * one, one * s):
            assert_canonical(got)
            assert ref_of(got) == ref_mul(ref(x), {0: Fraction(1)}) == ref(x)


wide_single_terms = st.dictionaries(st.integers(-100, 100), coefficients, min_size=1, max_size=1)


@given(st.one_of(raw_scalars, wide_single_terms), st.integers(1, 32))
@settings(max_examples=300)
def test_canon_matches_the_reference(x, order):
    got = CyclotomicMode(order).canon(QScalar(x))
    assert_canonical(got)
    assert ref_of(got) == ref_canon(ref(x), order)


@given(st.dictionaries(st.integers(0, 40), coefficients, max_size=6), st.integers(1, 16))
@settings(max_examples=300)
def test_reduction_modulo_the_cyclotomic_polynomial_matches_the_reference(x, order):
    phi = cyclotomic_polynomial(order)
    assert all(type(c) is int for c in phi) and phi[-1] == 1
    got = QScalar(x).reduce_mod_poly(phi)
    assert_canonical(got)
    assert ref_of(got) == ref_canon(ref(x), order)
    assert all(k < len(phi) - 1 for k, _ in got.items())
    if all(type(c) is int for c in x.values()):
        assert all(type(c) is int for _, c in got.items())


@pytest.mark.parametrize("poly", [(1, 0, 2), (1, Fraction(1, 2)), (0, -1)])
def test_reduction_refuses_a_non_monic_divisor(poly):
    with pytest.raises(ValueError, match="not monic"):
        QScalar({3: 1}).reduce_mod_poly(poly)


@given(raw_scalars, st.sampled_from([2, 3, 4, 5, 6, 8, 12]))
@settings(max_examples=100)
def test_field_inverse_matches_the_reference(x, order):
    mode = CyclotomicMode(order)
    s = mode.canon(QScalar(x))
    if s.is_zero():
        return
    inv = invert_in_cyclotomic_field(s, mode)
    assert_canonical(inv)
    assert ref_canon(ref_mul(ref_of(s), ref_of(inv)), order) == {0: Fraction(1)}


@given(raw_scalars, single_terms)
def test_exact_div_matches_the_reference(x, y):
    quotient, divisor = QScalar(x), QScalar(y)
    if divisor.is_zero():
        return
    got = exact_div(quotient * divisor, divisor)
    assert_canonical(got)
    assert ref_of(got) == ref(x)


def test_exact_div_of_integer_polynomials_stays_exact():
    # (q^2 - 1) / (q - 1) divides integer leading coefficients
    num = QScalar({0: -3, 2: 3})
    den = QScalar({0: -2, 1: 2})
    got = exact_div(num, den)
    assert_canonical(got)
    assert ref_of(got) == {0: Fraction(3, 2), 1: Fraction(3, 2)}


def ref_solve(matrix, rhs):
    """Gauss-Jordan over Q for a constant matrix, one q-power at a time."""
    n = len(matrix)
    powers = sorted({k for b in rhs for k in b})
    solution = [{} for _ in range(n)]
    for k in powers:
        m = [row[:] + [b.get(k, Fraction(0))] for row, b in zip(matrix, rhs)]
        for col in range(n):
            pivot = next(i for i in range(col, n) if m[i][col])
            m[col], m[pivot] = m[pivot], m[col]
            m[col] = [v / m[col][col] for v in m[col]]
            for i in range(n):
                if i != col and m[i][col]:
                    f = m[i][col]
                    m[i] = [v - f * w for v, w in zip(m[i], m[col])]
        for i in range(n):
            if m[i][-1]:
                solution[i][k] = m[i][-1]
    return solution


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(coefficients, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(raw_scalars, min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_solve_unique_matches_the_reference(system):
    matrix, rhs = system
    frac_matrix = [[Fraction(c) for c in row] for row in matrix]
    if _rank(frac_matrix) < len(matrix):
        return
    got = solve_unique(
        [[QScalar.of(c) for c in row] for row in matrix], [QScalar(b) for b in rhs]
    )
    for s in got:
        assert_canonical(s)
    assert [ref_of(s) for s in got] == ref_solve(frac_matrix, [ref(b) for b in rhs])


def _rank(m):
    m = [row[:] for row in m]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [v - f * w for v, w in zip(m[i], m[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Fraction-free elimination against elimination over a fraction field
# ---------------------------------------------------------------------------


def ref_to_poly(s: QScalar) -> tuple[int, list[Fraction]]:
    terms = dict(s.items())
    if not terms:
        return 0, []
    lo = min(terms)
    coeffs = [Fraction(0)] * (max(terms) - lo + 1)
    for k, c in terms.items():
        coeffs[k - lo] = Fraction(c)
    return lo, coeffs


def ref_poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return [c / a[-1] for c in a]


class RefFrac:
    """A fraction of Laurent polynomials, reduced by their polynomial gcd and
    normalised to a monic denominator with nonzero constant term."""

    def __init__(self, num: QScalar, den: QScalar = QScalar.one()):
        if num.is_zero():
            self.num, self.den = QScalar.zero(), QScalar.one()
            return
        g = ref_poly_gcd(ref_to_poly(num)[1], ref_to_poly(den)[1])
        g = QScalar(dict(enumerate(g)))
        num, den = exact_div(num, g), exact_div(den, g)
        shift, coeffs = ref_to_poly(den)
        unit = QScalar.q_power(-shift, 1 / coeffs[-1])
        self.num, self.den = num * unit, den * unit

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __sub__(self, other):
        return RefFrac(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return RefFrac(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return RefFrac(self.num * other.den, self.den * other.num)


def ref_reduce_rows(m: list[list[RefFrac]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination over Q(q) with a pivot of 1 in each pivot row."""
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if not m[i][col].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [c / m[r][col] for c in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][col].is_zero():
                f = m[i][col]
                m[i] = [c - f * d for c, d in zip(m[i], m[r])]
        pivots.append(col)
    return pivots


def ref_fracs(rows) -> list[list[RefFrac]]:
    return [[RefFrac(c) for c in row] for row in rows]


def ref_solve_unique(rows, rhs):
    m = ref_fracs([row + [b] for row, b in zip(rows, rhs)])
    ncols = len(rows[0])
    pivots = ref_reduce_rows(m, ncols)
    if any(not row[-1].is_zero() for row in m[len(pivots) :]):
        raise ArithmeticError("inconsistent linear system")
    if len(pivots) != ncols:
        raise ArithmeticError("linear system is underdetermined")
    return [exact_div(row[-1].num, row[-1].den) for row in m[:ncols]]


laurent = st.builds(
    QScalar,
    st.dictionaries(st.integers(-2, 2), st.sampled_from([-2, -1, 1, 2, Fraction(1, 2)]), max_size=3),
)


@given(nrows=st.integers(1, 3), ncols=st.integers(1, 4), data=st.data())
@settings(max_examples=150, deadline=None)
def test_fraction_free_elimination_matches_a_fraction_field(nrows, ncols, data):
    row = st.lists(laurent, min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(row, min_size=nrows, max_size=nrows))
    # a dependent row: a Laurent combination of the others
    weights = data.draw(st.lists(laurent, min_size=nrows, max_size=nrows))
    rows.append([sum((w * r[j] for w, r in zip(weights, rows)), QScalar.zero()) for j in range(ncols)])
    if data.draw(st.booleans()):  # a consistent right-hand side with Laurent x
        x = data.draw(st.lists(laurent, min_size=ncols, max_size=ncols))
        rhs = [sum((a * b for a, b in zip(row, x)), QScalar.zero()) for row in rows]
    else:
        rhs = data.draw(st.lists(laurent, min_size=len(rows), max_size=len(rows)))
    try:
        want = ref_solve_unique(rows, rhs)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            solve_unique(rows, rhs)
    else:
        assert solve_unique(rows, rhs) == want

    basis = nullspace(rows, ncols)
    m = ref_fracs(rows)
    pivots = ref_reduce_rows(m, ncols)
    assert len(basis) == ncols - len(pivots)
    for vec in basis:
        for row in rows:
            assert sum((a * b for a, b in zip(row, vec)), QScalar.zero()).is_zero()
    # the reference kernel: 1 at a free column, minus that column at the pivots
    want = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = ref_fracs([[QScalar.of(int(c == free)) for c in range(ncols)]])[0]
        for i, col in enumerate(pivots):
            vec[col] = RefFrac(QScalar.zero()) - m[i][free]
        want.append(vec)

    def rank(vectors):
        return len(ref_reduce_rows(list(vectors), ncols))

    assert rank(ref_fracs(basis)) == rank(want) == rank(ref_fracs(basis) + want) == len(basis)


@given(raw_scalars)
def test_equal_scalars_hash_equal(x):
    s = QScalar(x)
    as_fractions = QScalar({k: Fraction(c) for k, c in x.items()})
    t = QScalar.q_power(3) * (QScalar.q_power(-3) * s)
    for other in (as_fractions, t, (s + s) - s):
        assert other == s and hash(other) == hash(s)
    two = QScalar({0: Fraction(4, 2)})
    assert two == 2 and hash(two) == hash(QScalar.of(2))


# ---------------------------------------------------------------------------
# Element sums against the old step-by-step fold
# ---------------------------------------------------------------------------


def ref_element_add(x: Element, y: Element) -> Element:
    out = dict(x.terms)
    for m, c in y.terms.items():
        s = out.get(m, QScalar.zero()) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return Element(x.algebra, out)  # canonicalises every coefficient


def ref_scaled(x: Element, c: QScalar) -> Element:
    return Element(x.algebra, {m: v * c for m, v in x.terms.items()})


def ref_fold(algebra, pieces) -> Element:
    out = algebra.zero()
    for piece, c in pieces:
        out = ref_element_add(out, ref_scaled(piece, c))
    return out


def ref_tensor_add(x: TensorElement, y: TensorElement) -> TensorElement:
    out = dict(x.terms)
    for k, c in y.terms.items():
        s = out.get(k, QScalar.zero()) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return TensorElement(x.legs, out)


def ref_mul_mon(alg, m1, m2) -> Element:
    """The rewriting normal form of the word m1 m2, without ``mul_mon``."""
    return alg.element_from_combo(alg.system.normalize(m1 + m2))


def ref_mul_el(x: Element, y: Element) -> Element:
    alg = x.algebra
    return ref_fold(
        alg,
        (
            (ref_mul_mon(alg, m1, m2), c1 * c2)
            for m1, c1 in x.terms.items()
            for m2, c2 in y.terms.items()
        ),
    )


def ref_coproduct(x: Element) -> TensorElement:
    alg = x.algebra
    out = TensorElement((alg, alg), {})
    for m, c in x.terms.items():
        piece = alg.coproduct_mon(m)
        out = ref_tensor_add(out, TensorElement(piece.legs, {k: v * c for k, v in piece.terms.items()}))
    return out


def ref_apply_leg(t: TensorElement, i: int, fn, new_algebra) -> TensorElement:
    legs = list(t.legs)
    legs[i] = new_algebra
    out = TensorElement(tuple(legs), {})
    for key, c in t.terms.items():
        for m, ci in fn(key[i]).terms.items():
            out = ref_tensor_add(
                out, TensorElement(tuple(legs), {key[:i] + (m,) + key[i + 1 :]: c * ci})
            )
    return out


def _fdquot():
    return build_finite_quotient(2, CyclotomicMode(4))


ALGEBRAS = {
    "AUq2": (auq2, 3),
    "ADTq": (adtq, 3),
    "FDQUOT": (_fdquot, 4),
}
element_scalars = st.builds(
    QScalar,
    st.dictionaries(st.integers(-3, 3), coefficients, min_size=1, max_size=2),
)


def random_element(data, algebra, degree):
    mons = algebra.basis_by_degree(degree)
    picks = data.draw(st.lists(st.tuples(st.sampled_from(mons), element_scalars), max_size=3))
    return Element(algebra, {m: c for m, c in picks})


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_structure_maps_match_the_fold(name, data):
    factory, degree = ALGEBRAS[name]
    alg = factory()
    x = random_element(data, alg, degree)
    y = random_element(data, alg, degree)
    assert x + y == ref_element_add(x, y)
    assert x * y == ref_mul_el(x, y)
    assert x.star() == ref_fold(alg, ((alg.star_mon(m), c.star()) for m, c in x.terms.items()))
    assert x.antipode() == ref_fold(alg, ((alg.antipode_mon(m), c) for m, c in x.terms.items()))
    cop = x.coproduct()
    assert cop == ref_coproduct(x)
    assert cop.apply_leg(0, alg.antipode_mon, alg) == ref_apply_leg(cop, 0, alg.antipode_mon, alg)
    for coeff in (x * y).terms.values():
        assert_canonical(coeff)


def ref_tensor_mul(x: TensorElement, y: TensorElement) -> TensorElement:
    """Leg-wise products of each pair of terms, read off the rewriting normal
    forms, expanded into one-term tensors and added by the fold."""
    out = TensorElement(x.legs, {})
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            legs = [ref_mul_mon(leg, m1, m2) for leg, m1, m2 in zip(x.legs, k1, k2)]
            for combo in itertools.product(*(el.terms.items() for el in legs)):
                c = c1 * c2
                for _, ci in combo:
                    c = c * ci
                piece = TensorElement(x.legs, {tuple(m for m, _ in combo): c})
                out = ref_tensor_add(out, piece)
    return out


TENSOR_ALGEBRAS = {
    "AUq2": (auq2, 2),
    "ADTq": (adtq, 2),
    "FDQUOT(n=3,order=6)": (lambda: build_finite_quotient(3, CyclotomicMode(6)), 3),
}


def random_tensor(data, algebra, degree, rank):
    mons = algebra.basis_by_degree(degree)
    keys = st.tuples(*[st.sampled_from(mons)] * rank)
    picks = data.draw(st.lists(st.tuples(keys, element_scalars), max_size=3))
    return TensorElement((algebra,) * rank, dict(picks))


@pytest.mark.parametrize("rank", [2])
@pytest.mark.parametrize("name", sorted(TENSOR_ALGEBRAS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_tensor_products_match_the_fold(name, rank, data):
    factory, degree = TENSOR_ALGEBRAS[name]
    alg = factory()
    x = random_tensor(data, alg, degree, rank)
    y = random_tensor(data, alg, degree, rank)
    got = x * y
    assert got == ref_tensor_mul(x, y)
    for coeff in got.terms.values():
        assert_canonical(coeff)
        assert alg.canon_scalar(coeff) == coeff


def test_sum_cancelling_only_after_cyclotomic_canon():
    alg = _fdquot()  # q is a primitive fourth root: q^2 = -1
    q = QScalar.q_power(1)
    D = alg.gen("D")
    unit = alg.unit()
    # (1 + qD)^2 = 1 + 2qD + q^2 D^2, and D^2 = 1 cancels the unit only via q^2 = -1
    x = unit + D * q
    assert x * x == ref_mul_el(x, x) == D * (2 * q)
    assert alg.combine([(unit, q * q), (unit, None)]).is_zero()
    assert ref_fold(alg, [(unit, q * q), (unit, QScalar.one())]).is_zero()


# ---------------------------------------------------------------------------
# ADTq's closed-form product against rewriting
# ---------------------------------------------------------------------------


def test_one_term_products_settle_cyclotomic_scalars():
    """(q·D)(q·D) = q²·D² = −1 when q is a primitive fourth root and D² = 1:
    the raw coefficient q² of the one-term product is not canonical."""
    alg = _fdquot()
    x = alg.gen("D") * QScalar.q_power(1)
    assert x * x == ref_mul_el(x, x) == -alg.unit()
    assert (x * x).terms == {(): QScalar.of(-1)}


def adtq_monomials(bound: int):
    """Normal ADTq monomials D^m, D^m z and D^m x^n with |m| <= bound and
    1 <= n <= bound."""
    span = st.integers(-bound, bound)
    return st.one_of(
        st.builds(lambda m, z: quotient_mon_word(m, z=z), span, st.booleans()),
        st.builds(
            lambda m, x, n: quotient_mon_word(m, gen=x, n=n),
            span,
            st.sampled_from("adbc"),
            st.integers(1, bound),
        ),
    )


@given(adtq_monomials(12), adtq_monomials(12))
@settings(max_examples=200, deadline=None)
def test_adtq_product_matches_rewriting(m1, m2):
    alg = adtq()
    assert alg.mul_mon(m1, m2) == ref_mul_mon(alg, m1, m2)


adtq_coefficients = st.one_of(
    st.integers(-3, 3).map(QScalar.q_power),
    st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 12)).map(QScalar.of),
)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_adtq_element_products_match_rewriting(data):
    alg = adtq()
    terms = st.lists(st.tuples(adtq_monomials(4), adtq_coefficients), min_size=1, max_size=3)
    x, y = (alg.combine((alg.monomial(m), c) for m, c in data.draw(terms)) for _ in range(2))
    assert x * y == ref_mul_el(x, y)
    assert (x * y) * x == x * (y * x)


def test_a_cold_adtq_product_never_rewrites(monkeypatch):
    alg = algebras.adtq.__wrapped__()  # a second instance, with cold caches
    x = alg.monomial(("D", "D", "c", "c")) + alg.monomial(("Dinv", "b"), QScalar.q_power(2))
    y = alg.monomial(("Dinv", "z")) - alg.monomial(("D", "b", "b", "b")) + alg.monomial(())

    def refuse(self, word):
        raise AssertionError(f"rewrote {word}")

    pairs = {(m1, m2) for m1 in x.terms for m2 in y.terms}
    assert len(pairs) == 6 and pairs.isdisjoint(alg._mul_cache)
    monkeypatch.setattr(RewriteSystem, "normalize", refuse)
    product = x * y
    assert pairs <= alg._mul_cache.keys()
    monkeypatch.undo()
    assert product == ref_mul_el(x, y)


def test_the_weakened_quotient_still_rewrites(monkeypatch):
    weak = algebras.adtq.__wrapped__("bc_weak")
    rewritten = []
    real = RewriteSystem.normalize

    def recording(self, word):
        rewritten.append(word)
        return real(self, word)

    monkeypatch.setattr(RewriteSystem, "normalize", recording)
    weak_bc = weak.monomial(("b",)) * weak.monomial(("c",))
    assert ("b", "c") in rewritten
    assert str(weak_bc) == "-D + D*z"
    assert str(adtq().monomial(("b",)) * adtq().monomial(("c",))) == "-q*D + q*D*z"


# ---------------------------------------------------------------------------
# Memoized cleft-extension maps against uncached recomputation
# ---------------------------------------------------------------------------

LATTICE = [(k, l) for k in range(-3, 4) for l in range(-3, 4)]


@pytest.mark.parametrize("conv", [galois.CORRECTED, galois.PRINTED])
def test_cached_cleaving_maps_match_recomputation(conv):
    for k, l in LATTICE:
        fresh = galois.cleaving_j_mon.__wrapped__(k, l, conv)
        assert galois.cleaving_j_mon(k, l, conv) == fresh
        inverse = galois.cleaving_j_inverse_mon(k, l, conv)
        assert fresh * inverse == adtq().unit() == inverse * fresh


def ref_sigma_q_exponent(k: int, l: int, m: int, n: int) -> int:
    """The cocycle exponent as a table of 13 branches on the signs of
    k - l, m - n and k + m - l - n."""
    if k > l:
        if m > n:
            return -2 * k * n
        if m == n:
            return -m * (2 * k + m)
        if k + m > l + n:
            return -2 * n * (k + m)
        if k + m == l + n:
            return (k + m) * (2 * l - k - m)
        return 2 * l * (k + m)
    if k == l:
        if m > n:
            return -k * (k + 2 * n)
        if m == n:
            return 0
        return k * (k + 2 * m)
    if m > n:
        if k + m > l + n:
            return -2 * k * (l + n)
        if k + m == l + n:
            return (l + n) * (l + n - 2 * k)
        return 2 * m * (l + n)
    if m == n:
        return m * (m + 2 * l)
    return 2 * l * m


def test_sigma_exponent_matches_the_branch_table():
    for args in itertools.product(range(-10, 11), repeat=4):
        assert galois.sigma_q_exponent(*args) == ref_sigma_q_exponent(*args), args


def test_cached_sigma_matches_recomputation():
    base = az2()
    for (k, l), (m, n) in itertools.product(LATTICE, repeat=2):
        e = galois.sigma_q_exponent(k, l, m, n)
        fresh = base.delta(0) + base.delta(1) * QScalar.q_power(e)
        assert galois.sigma_table(k, l, m, n) == fresh
        assert galois._sigma_of_exponent.__wrapped__(e) == fresh
    # AZ2 multiplies pointwise, so products of cocycle values add exponents
    for e1, e2 in itertools.product(range(-12, 13, 3), repeat=2):
        product = galois._sigma_of_exponent(e1) * galois._sigma_of_exponent(e2)
        assert product == galois._sigma_of_exponent(e1 + e2)


def ref_cocycle_scan(exp_range: int) -> list[Check]:
    """The cocycle identity on AZ2 elements: sigma(h, g) sigma(hg, k) against
    sigma(g, k) sigma(h, gk), with the first failing triple as witness."""
    s = galois.sigma_table
    span = range(-exp_range, exp_range + 1)
    for k, l, m, n, p, r in itertools.product(span, repeat=6):
        if s(k, l, m, n) * s(k + m, l + n, p, r) != s(m, n, p, r) * s(k, l, m + p, n + r):
            return [Check("cocycle_identity", False, f"(u^{k}v^{l}, u^{m}v^{n}, u^{p}v^{r})")]
    return [Check("cocycle_identity", True, None)]


_REAL_SIGMA_EXPONENT = galois.sigma_q_exponent


def _branch_off_by_one(k, l, m, n):
    return _REAL_SIGMA_EXPONENT(k, l, m, n) + (1 if k > l and m > n else 0)


def _far_shift(k, l, m, n):
    return _REAL_SIGMA_EXPONENT(k, l, m, n) + (2 if abs(k) >= 4 else 0)


@pytest.mark.parametrize("table", [None, _branch_off_by_one, _far_shift], ids=["real", "branch", "far"])
def test_exponent_scan_matches_the_element_scan(table, monkeypatch):
    if table is not None:
        monkeypatch.setattr(galois, "sigma_q_exponent", table)
    got = galois.verify_cocycle_condition(2)
    assert got == ref_cocycle_scan(2)
    assert got[0].passed == (table is None)


# ---------------------------------------------------------------------------
# The cleft maps on lattice triples against their word-built constructions
# ---------------------------------------------------------------------------

CONVENTIONS = [galois.CORRECTED, galois.PRINTED]


def _sign(k: int) -> QScalar:
    return QScalar.of(1 if k % 2 == 0 else -1)


def ref_cleaving_j_mon(k, l, conv) -> Element:
    """j from three word branches: the section D^l a^(k-l), D^k d^(l-k) or
    D^k z, plus a c run, a b run or a diagonal twist."""
    alg = adtq()
    if k > l:
        section = quotient_mon_word(l, gen="a", n=k - l)
        twist = alg.monomial(quotient_mon_word(l, gen="c", n=k - l), _sign(l) * QScalar.q_power(l * l))
    elif k < l:
        section = quotient_mon_word(k, gen="d", n=l - k)
        twist = alg.monomial(quotient_mon_word(k, gen="b", n=l - k), _sign(k) * QScalar.q_power(-k * k))
    else:
        section = quotient_mon_word(k, z=True)
        e = -k if conv == galois.PRINTED else k
        twist = (alg.monomial(quotient_mon_word(e)) - alg.monomial(quotient_mon_word(e, z=True))) * _sign(e)
    return alg.monomial(section) + twist


def ref_to_az2(e: Element) -> Element:
    """Read an element of span{1, z} off its monomials 1 and z."""
    if set(e.terms) - {(), ("z",)}:
        raise NotInBaseImage(f"not in the idempotent span: {e}")
    base = az2()
    c_unit, c_z = e.coefficient(()), e.coefficient(("z",))
    return base.delta(0) * (c_unit + c_z) + base.delta(1) * c_unit


def ref_sigma_convolution(k, l, m, n, conv) -> Element:
    j = ref_cleaving_j_mon
    return ref_to_az2(j(k, l, conv) * j(m, n, conv) * j(k + m, l + n, conv).star())


def ref_phi_mon(mon, conv) -> Element:
    i, k, l = mon
    z = adtq().gen("z")
    return (z if i == 0 else adtq().unit() - z) * ref_cleaving_j_mon(k, l, conv)


def word_reading(mon) -> tuple:
    """(D-power, z flag, run letter or None) of a normal ADTq word."""
    runs = [x for x in mon if x not in ("D", "Dinv", "z")]
    return mon.count("D") - mon.count("Dinv"), "z" in mon, runs[0] if runs else None


def ref_phi_inverse(e: Element, conv) -> Element:
    """Phi^-1 with the corners cut by z: every monomial of a corner is a
    multiple of the image of one triple, except D^m z in the quantum corner,
    whose coefficient is always minus that of D^m."""
    classical = adtq().gen("z") * e
    acc: dict = {}
    for i, part in ((0, classical), (1, e - classical)):
        for mon, c in part.terms.items():
            d, z, gen = word_reading(mon)
            if i == 1 and gen is None:
                if z:
                    continue
                k = -d if conv == galois.PRINTED else d
                key = (1, k, k)
            else:
                key = corner_triples(mon)[0]
            acc[key] = c * ref_phi_mon(key, conv).coefficient(mon).inverse()
    return Element(galois.build_bicross_product(conv), acc)


def ref_haar(e: Element) -> QScalar:
    """The state on the normal words: 1 -> 1, z -> 1/2, every other word -> 0."""
    total = QScalar.zero()
    for mon, c in e.terms.items():
        d, z, gen = word_reading(mon)
        if gen is None and d == 0:
            total = total + (c * QScalar.of(Fraction(1, 2)) if z else c)
    return total


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotInBaseImage:
        return NotInBaseImage


@pytest.mark.parametrize("conv", CONVENTIONS)
def test_cleaving_twist_matches_the_word_branches(conv):
    for k, l in itertools.product(range(-5, 6), repeat=2):
        assert galois.cleaving_j_mon(k, l, conv) == ref_cleaving_j_mon(k, l, conv), (k, l)


@pytest.mark.parametrize("conv", CONVENTIONS)
def test_sigma_on_triples_matches_the_element_product(conv):
    outcomes = set()
    for args in itertools.product(range(-3, 4), repeat=4):
        got = _outcome(galois.sigma_convolution, *args, conv)
        assert got == _outcome(ref_sigma_convolution, *args, conv), args
        outcomes.add(got is NotInBaseImage)
    assert outcomes == ({False, True} if conv is galois.PRINTED else {False})


@given(data=st.data(), conv=st.sampled_from(CONVENTIONS))
@settings(max_examples=150, deadline=None)
def test_corner_coordinates_match_the_word_readings(data, conv):
    alg = adtq()
    mons = st.one_of(st.sampled_from([(), ("z",)]), adtq_monomials(4))
    terms = data.draw(st.lists(st.tuples(mons, adtq_coefficients), min_size=1, max_size=3))
    e = alg.combine((alg.monomial(m), c) for m, c in terms)
    coords = corner_coordinates(e)
    assert alg.combine((corner_element(*t), c) for t, c in coords.items()) == e
    assert galois.phi_inverse(e, conv) == ref_phi_inverse(e, conv)
    assert haar(e) == ref_haar(e)
    assert _outcome(galois.to_az2, e) == _outcome(ref_to_az2, e)


# ---------------------------------------------------------------------------
# RewriteSystem.normalize against a cold system and a leftmost-scan reference
# ---------------------------------------------------------------------------


def ref_find_redex(system: RewriteSystem, word, rule_order=None):
    """Leftmost position, then the first rule in order whose pattern matches."""
    order = range(len(system.rules)) if rule_order is None else rule_order
    for pos in range(len(word)):
        for idx in order:
            pattern = system.rules[idx].pattern
            if word[pos : pos + len(pattern)] == pattern:
                return pos, idx
    return None


def ref_normalize(system: RewriteSystem, word, rule_order=None) -> dict:
    """Leftmost reduction that rescans every word from position 0, no cache."""
    out: dict = {}
    stack = [(QScalar.one(), tuple(word))]
    while stack:
        c, w = stack.pop()
        redex = ref_find_redex(system, w, rule_order)
        if redex is None:
            out[w] = out.get(w, QScalar.zero()) + c
            continue
        pos, idx = redex
        rule = system.rules[idx]
        for rc, rw in rule.result:
            stack.append((system.scalar_canon(c * rc), w[:pos] + rw + w[pos + len(rule.pattern) :]))
    out = {w: system.scalar_canon(c) for w, c in out.items()}
    return {w: c for w, c in out.items() if not c.is_zero()}


def _permuted(system: RewriteSystem, order) -> RewriteSystem:
    """The same rules, added in ``order``: rule i of it is rule order[i]."""
    return RewriteSystem(system.letters, [system.rules[i] for i in order], system.scalar_canon)


def _in_order(redex, order):
    """A redex of the permuted system, with the rule index of the original."""
    return None if redex is None else (redex[0], order[redex[1]])


REWRITE_ALGEBRAS = {
    "AUq2": auq2,
    "ADTq": adtq,
    "FDQUOT(n=3,order=6)": lambda: build_finite_quotient(3, CyclotomicMode(6)),
}


@pytest.mark.parametrize("name", sorted(REWRITE_ALGEBRAS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_normalize_matches_a_cold_system_and_the_reference(name, data):
    system = REWRITE_ALGEBRAS[name]().system
    word = tuple(data.draw(st.lists(st.sampled_from(system.letters), max_size=6)))
    order = data.draw(st.permutations(range(len(system.rules))))
    cold = RewriteSystem(system.letters, system.rules, system.scalar_canon)
    permuted = _permuted(system, order)
    expected = ref_normalize(system, word)
    assert cold.normalize(word) == expected
    assert system.normalize(word) == expected
    assert system.normalize(word) == expected  # the cache-hit return
    assert permuted.normalize(word) == expected
    assert ref_normalize(system, word, order) == expected
    assert system.find_redex(word) == ref_find_redex(system, word)
    assert _in_order(permuted.find_redex(word), order) == ref_find_redex(system, word, order)


PRESENTED_ALGEBRAS = {
    **REWRITE_ALGEBRAS,
    "AT2": at2,
    "AT2q": at2q,
    "AZ2": az2,
    "FDQUOT(n=4,order=8)": lambda: build_finite_quotient(4, CyclotomicMode(8)),
}


@pytest.mark.parametrize("name", sorted(PRESENTED_ALGEBRAS))
def test_normal_words_match_a_brute_force_enumeration(name):
    system = PRESENTED_ALGEBRAS[name]().system
    max_len = 5
    brute = [
        word
        for k in range(max_len + 1)
        for word in itertools.product(system.letters, repeat=k)
        if system.find_redex(word) is None
    ]
    assert system.normal_words_by_degree(max_len) == brute


def test_cache_hit_returns_a_copy():
    system = adtq().system
    word = ("c", "b", "D")
    system.normalize(word)
    system.normalize(word).clear()  # clears the copy the cache hit returned
    assert system.normalize(word) == ref_normalize(system, word) != {}


def _verify_cocycle(convention: str, jobs: int) -> tuple[int, dict]:
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "qdtorus", "verify", "cocycle", "--report", "json",
         "--convention", convention, "--jobs", str(jobs)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=300,
    )
    payload = json.loads(proc.stdout)
    del payload["duration_ms"], payload["params"]["jobs"]
    return proc.returncode, payload


@pytest.mark.parametrize("convention", ["corrected", "printed"])
def test_threaded_cocycle_suite_on_cold_caches_matches_serial(convention):
    # each run is a fresh process, so four threads fill every memo from cold
    assert _verify_cocycle(convention, 4) == _verify_cocycle(convention, 1)


def _overlapping_system() -> RewriteSystem:
    """Not confluent: at the start of x*y*y three rules of two lengths match,
    and the normal form depends on which one the search picks."""
    q = QScalar.q_power(1)
    rules = [
        RewriteRule(("y", "y"), ((q, ("x",)),)),
        RewriteRule(("x", "y", "y"), ((QScalar.of(2), ("y",)),)),
        RewriteRule(("x", "y"), ((QScalar.of(3), ("x",)),)),
        RewriteRule(("x", "y"), ((QScalar.of(5), ()),)),  # shadowed by the rule above
    ]
    return RewriteSystem(("x", "y"), rules)


def test_find_redex_picks_the_first_added_rule_among_lengths():
    system = _overlapping_system()
    assert system.find_redex(("x", "y", "y")) == (0, 1)
    assert system.find_redex(("y", "x", "y")) == (1, 2)
    order = [3, 0, 1, 2]
    assert _in_order(_permuted(system, order).find_redex(("x", "y", "y")), order) == (0, 3)


@given(word=st.lists(st.sampled_from(["x", "y"]), max_size=8), data=st.data())
@settings(max_examples=60, deadline=None)
def test_normalize_follows_the_rule_choice_on_a_non_confluent_system(word, data):
    system = _overlapping_system()
    order = data.draw(st.permutations(range(len(system.rules))))
    word = tuple(word)
    assert system.find_redex(word) == ref_find_redex(system, word)
    assert system.normalize(word) == ref_normalize(system, word)
    assert _permuted(system, order).normalize(word) == ref_normalize(system, word, order)


@st.composite
def systems_sharing_first_letters(draw):
    """Rules over x, y, z in a drawn order: a run of patterns of lengths 1
    to 3 that share their first letter, and a few drawn nonempty patterns
    (repeats included).  Each pattern rewrites to zero or to twice the empty
    word."""
    letters = ("x", "y", "z")
    word = st.lists(st.sampled_from(letters), min_size=1, max_size=3).map(tuple)
    run = draw(st.lists(st.sampled_from(letters), min_size=3, max_size=3))
    patterns = [*(tuple(run[:k]) for k in (1, 2, 3)), *draw(st.lists(word, max_size=4))]
    patterns = draw(st.permutations(patterns))
    to_empty = [draw(st.booleans()) for _ in patterns]
    rules = [
        RewriteRule(p, ((QScalar.of(2), ()),) if e else ()) for p, e in zip(patterns, to_empty)
    ]
    return RewriteSystem(letters, rules)


@given(system=systems_sharing_first_letters(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_indexed_find_redex_matches_the_scan(system, data):
    word = tuple(data.draw(st.lists(st.sampled_from(system.letters), max_size=7)))
    for start in range(len(word) + 1):
        # a match at a position at or after ``start`` reads no letter before it
        want = ref_find_redex(system, word[start:])
        want = None if want is None else (want[0] + start, want[1])
        assert system.find_redex(word, start) == want


@pytest.mark.parametrize("n,order", [(2, 4), (3, 6), (4, 8)])
def test_a_cold_confluence_scan_caches_canonical_coefficients(n, order):
    """Normal forms memoized while resolving every ambiguity of a cold
    finite quotient hold coefficients that the cyclotomic canon fixes."""
    mode = CyclotomicMode(order)
    system = algebras._finite_quotient_cached.__wrapped__(n, order).system
    system._cache.clear()
    assert system.unresolved_pairs() == []
    assert system._cache
    for combo in system._cache.values():
        for c in combo.values():
            assert_canonical(c)
            assert mode.canon(c) == c


# ---------------------------------------------------------------------------
# The finite quotients' written relations against completion, batched or
# one oriented pair per pass
# ---------------------------------------------------------------------------


def ref_complete(system: RewriteSystem, invert_scalar, max_len=12, max_rounds=40):
    """Completion that orients the first unresolved pair, then starts a new pass."""
    for _ in range(max_rounds):
        pairs = system.unresolved_pairs(max_len)
        if not pairs:
            return
        for pair in pairs:
            diff = dict(pair.left)
            add_scaled(diff, pair.right, QScalar.of(-1))
            diff = settle(diff, system.scalar_canon)
            if not diff:
                continue
            lm = system.leading_monomial(diff)
            inv = invert_scalar(diff[lm])
            result = tuple(
                (system.scalar_canon(-inv * c), w) for w, c in diff.items() if w != lm
            )
            system.add_rule(RewriteRule(lm, result))
            break
    raise CompletionFailure(f"completion did not stabilise after {max_rounds} rounds")


QUOTIENT_ORDERS = [
    (2, 4), (3, 6), (4, 4), (4, 8), (5, 10), (6, 6), (6, 12), (7, 14), (8, 8), (8, 16),
]


def _completed_presentation(n, order, complete=RewriteSystem.complete):
    """The finite quotient's presentation, completed by ``complete``."""
    mode = CyclotomicMode(order)
    system = algebras._quotient_presentation(n, order)
    complete(system, lambda s: invert_in_cyclotomic_field(s, mode), max_len=2 * n + 4)
    return system


def _assert_same_normal_forms(got: RewriteSystem, want: RewriteSystem, max_len: int):
    assert got.all_normal_words() == want.all_normal_words()
    for k in range(max_len + 1):
        for word in itertools.product(got.letters, repeat=k):
            assert got.normalize(word) == want.normalize(word), word


@pytest.mark.parametrize("n,order", QUOTIENT_ORDERS + [(1, 2), (2, 1), (3, 18), (4, 16)])
def test_batched_completion_matches_one_rule_per_pass(n, order):
    """The quotient's written relations give what completing its
    presentation gives, batched or one rule per pass."""
    got = build_finite_quotient(n, CyclotomicMode(order))
    assert got.system.unresolved_pairs() == []
    for complete in (RewriteSystem.complete, ref_complete):
        want = _completed_presentation(n, order, complete)
        assert got.dimension == len(want.all_normal_words())
        _assert_same_normal_forms(got.system, want, 4)


_add_rule = RewriteSystem.add_rule


def _add_rule_clearing_the_cache(system: RewriteSystem, rule: RewriteRule):
    """``add_rule`` that forgets every memoized normal form."""
    _add_rule(system, rule)
    system._cache.clear()


@pytest.mark.parametrize("n,order", QUOTIENT_ORDERS)
def test_completion_matches_a_cache_cleared_on_every_rule(n, order):
    with mock.patch.object(RewriteSystem, "add_rule", _add_rule_clearing_the_cache):
        want = _completed_presentation(n, order)
    got = _completed_presentation(n, order)
    assert got.rules == want.rules
    _assert_same_normal_forms(got, want, 4)


def _smaller_words(pattern):
    """Every word over x, y below ``pattern`` in the graded order."""
    shorter = [w for k in range(len(pattern)) for w in itertools.product("xy", repeat=k)]
    same = [w for w in itertools.product("xy", repeat=len(pattern)) if w < pattern]
    return shorter + same


@given(
    words=st.lists(st.lists(st.sampled_from(["x", "y"]), max_size=7), max_size=8),
    pattern=st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_the_normal_forms_add_rule_keeps_equal_a_fresh_normalize(words, pattern, data):
    system = _overlapping_system()
    for word in words:
        system.normalize(tuple(word))
    pattern = tuple(pattern)
    result = data.draw(
        st.lists(st.tuples(st.integers(-3, 3), st.sampled_from(_smaller_words(pattern))), max_size=3)
    )
    system.add_rule(RewriteRule(pattern, tuple((QScalar.of(c), w) for c, w in result)))
    assert all(len(w) < len(pattern) for w in system._cache)
    for word, nf in list(system._cache.items()):
        assert nf == ref_normalize(system, word), word


def ref_critical_words(system: RewriteSystem, max_len=None):
    """Every pair of rules, every overlap length, every inclusion position."""
    n = len(system.rules)
    for i in range(n):
        p1 = system.rules[i].pattern
        for j in range(n):
            p2 = system.rules[j].pattern
            for k in range(1, min(len(p1), len(p2))):
                if p1[len(p1) - k :] == p2[:k]:
                    word = p1 + p2[k:]
                    if max_len is None or len(word) <= max_len:
                        yield word, (0, i), (len(p1) - k, j)
            if i != j and len(p2) < len(p1):
                for pos in range(len(p1) - len(p2) + 1):
                    if p1[pos : pos + len(p2)] == p2:
                        if max_len is None or len(p1) <= max_len:
                            yield p1, (0, i), (pos, j)


CRITICAL_WORD_SYSTEMS = {
    **REWRITE_ALGEBRAS,
    "FDQUOT(n=8,order=16)": lambda: build_finite_quotient(8, CyclotomicMode(16)),
}


@pytest.mark.parametrize("name", sorted(CRITICAL_WORD_SYSTEMS))
def test_critical_words_match_the_double_loop(name):
    system = CRITICAL_WORD_SYSTEMS[name]().system
    for max_len in (None, 3, 6):
        assert list(system.critical_words(max_len)) == list(ref_critical_words(system, max_len)), max_len


@given(st.lists(st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=5), max_size=6))
@settings(max_examples=100, deadline=None)
def test_critical_words_match_the_double_loop_on_any_patterns(patterns):
    # any nonempty words as patterns, repeats included; no result, so every
    # rule decreases the order
    system = RewriteSystem(("x", "y", "z"), [RewriteRule(tuple(p), ()) for p in patterns])
    assert list(system.critical_words()) == list(ref_critical_words(system))


# ---------------------------------------------------------------------------
# Expression parsing against the factor-by-factor evaluator
# ---------------------------------------------------------------------------


def ref_mul_generic(x: Element, y: Element) -> Element:
    """The product through the general combine loop, one-term factors included."""
    alg = x.algebra
    return alg.combine(
        (alg.mul_mon(m1, m2), c1 * c2) for m1, c1 in x.terms.items() for m2, c2 in y.terms.items()
    )


_REF_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()]))")
_REF_KINDS = (None, "num", "name", "op")  # by the number of the matching group


def _ref_tokens(text: str):
    """(kind, text, position) triples, read on demand, then an "end" token.
    The first non-space character that starts no token raises when it is read."""
    pos = 0
    while m := _REF_TOKEN.match(text, pos):
        yield _REF_KINDS[m.lastindex], m.group(m.lastindex), m.start(m.lastindex)
        pos = m.end()
    rest = text[pos:]
    if rest.strip():
        pos += len(rest) - len(rest.lstrip())
        raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
    yield "end", "", len(text)


def ref_parse_element(text: str, algebra) -> Element:
    """The parser that turns every factor into an element as it reads it: a
    scalar into ``unit()·c``, a generator power into its normalized word
    without the generator memo; products take the general combine loop."""
    tokens, ahead = _ref_tokens(text), []

    def peek():
        if not ahead:
            ahead.append(next(tokens))
        return ahead[0]

    def take():
        if peek()[0] == "end":
            raise ExprSyntaxError("unexpected end of input", len(text))
        return ahead.pop()

    def accept(symbols):
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
            terms.append((term(depth), QScalar.of(-1 if sign == "-" else 1)))
            sign = accept("+-")
        return algebra.combine(terms)

    def term(depth):
        out = factor(depth)
        while accept("*"):
            out = ref_mul_generic(out, factor(depth))
        return out

    def factor(depth):
        kind, word, pos = take()
        if kind == "num":
            value = int(word)
            if accept("/"):
                den, pos = integer("denominator")
                if not den:
                    raise ExprSyntaxError("zero denominator", pos)
                value = Fraction(value, den)
            return algebra.unit() * QScalar.of(value)
        if kind == "name":
            if word != "q" and word not in algebra.generator_names:
                raise UnknownGenerator(f"{word!r} is not a generator of {algebra.tag}")
            power = 1
            if accept("^"):
                power = (-1 if accept("-") else 1) * integer("exponent")[0]
            if word == "q":
                return algebra.unit() * QScalar.q_power(power)
            return algebra.normalize_word(algebra.gen_word(word, power))
        if word != "(":
            raise ExprSyntaxError(f"unexpected token {word!r}", pos)
        if depth == exprs.MAX_NESTING:
            raise ExprSyntaxError(f"parentheses nested deeper than {exprs.MAX_NESTING}", pos)
        inner = expr(depth + 1)
        if not accept(")"):
            raise ExprSyntaxError("expected ')'", take()[2])
        return inner

    out = expr(0)
    kind, word, pos = peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {word!r}", pos)
    return out


# algebra -> (factory, generators that take negative powers)
PARSED_ALGEBRAS = {
    "ADTq": (adtq, ("D", "Dinv")),
    "AUq2": (auq2, ("D", "Dinv")),
    "ADTq!bc_weak": (lambda: adtq("bc_weak"), ("D", "Dinv")),
    "AT2": (at2, ("u", "v")),
    # b -> 0 and z -> 1: single letters are not all normal words
    "FDQUOT(3,18)": (lambda: build_finite_quotient(3, CyclotomicMode(18)), ("D", "Dinv")),
    # D^3 = 1 and q^6 = 1: powers of Dinv and of q run past the order
    "FDQUOT(3,6)": (lambda: build_finite_quotient(3, CyclotomicMode(6)), ("D", "Dinv")),
}


def expression_texts(algebra, invertible):
    def power(name):
        low = -5 if name in invertible else 0
        return st.integers(low, 5).map(lambda k: f"{name}^{k}")

    names = st.sampled_from(algebra.generator_names)
    leaves = st.one_of(
        st.integers(0, 9).map(str),
        st.tuples(st.integers(0, 9), st.integers(1, 6)).map(lambda pr: f"{pr[0]}/{pr[1]}"),
        st.just("q"),
        st.integers(-40, 40).map(lambda k: f"q^{k}"),
        names,
        names.flatmap(power),
    )
    texts = st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=4).map("*".join),
            st.tuples(inner, st.sampled_from([" + ", " - ", "+", "-"]), inner).map("".join),
            inner.map(lambda a: f"({a})"),
            inner.map(lambda a: f"(-{a})"),
        ),
        max_leaves=10,
    )
    return st.tuples(st.sampled_from(["", "-"]), texts).map("".join)


def _parse_outcome(parse, text, algebra):
    """The parsed element, or the class, message and position of the fault."""
    try:
        return parse(text, algebra)
    except QdtError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@pytest.mark.parametrize("name", sorted(PARSED_ALGEBRAS))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_parse_matches_the_factor_by_factor_evaluator(name, data):
    factory, invertible = PARSED_ALGEBRAS[name]
    alg = factory()
    text = data.draw(expression_texts(alg, invertible))
    got = _parse_outcome(exprs.parse_element, text, alg)
    want = _parse_outcome(ref_parse_element, text, alg)
    assert isinstance(want, Element), (text, want)  # the strategy writes valid text
    assert got == want, text
    for coeff in got.terms.values():
        assert_canonical(coeff)
        assert alg.canon_scalar(coeff) == coeff


HAND_FAULTS = ["a^", "a^-x", "a*(b", "(a", "a b", "", "  ", "x*$", "a + $", "a*b $ c"]
HAND_FAULTS.append("(" * 201 + "a" + ")" * 201)


@pytest.mark.parametrize("text", HAND_FAULTS, ids=lambda t: repr(t) if len(t) < 20 else "201-deep")
def test_hand_written_faults_match_the_evaluator(text):
    alg = adtq()
    got = _parse_outcome(exprs.parse_element, text, alg)
    assert not isinstance(got, Element) and got == _parse_outcome(ref_parse_element, text, alg)


@pytest.mark.parametrize("name", sorted(PARSED_ALGEBRAS))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_malformed_text_raises_the_leftmost_fault_of_the_evaluator(name, data):
    factory, invertible = PARSED_ALGEBRAS[name]
    alg = factory()
    text = data.draw(expression_texts(alg, invertible))
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        edit = data.draw(
            st.sampled_from(["", "+", "-", "*", "/", "^", "^-", "(", ")", "0", "/0", "x", "a^-1", "@", " "])
        )
        text = text[:at] + edit + text[at + (edit == "") :]
    assert _parse_outcome(exprs.parse_element, text, alg) == _parse_outcome(ref_parse_element, text, alg), text
