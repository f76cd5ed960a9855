"""Differential tests of the exact arithmetic against loop references.

The references are the straightforward implementations the package used
before its fast paths: scalars as dicts of Fraction coefficients combined by
nested loops, element sums folded as ``out = out + piece * c`` with the
coefficients canonicalised after every step, products of monomials read off
the rewriting normal form (ADTq multiplies in closed form), memoized maps
recomputed without their caches, leftmost reduction that rescans every word from
position 0 without a cache, and Knuth-Bendix completion that orients one
critical pair per pass.  The package must agree with them exactly, and
must store every coefficient as an ``int`` or as a ``Fraction`` with
denominator other than 1, never as a float.
"""

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtorus import algebras, galois
from qdtorus.algebras import (
    Element,
    TensorElement,
    adtq,
    at2,
    at2q,
    auq2,
    az2,
    build_finite_quotient,
    quotient_mon_word,
)
from qdtorus.errors import CompletionFailure
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


@given(raw_scalars, st.integers(1, 12))
@settings(max_examples=200)
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


@pytest.mark.parametrize("conv", [galois.CORRECTED, galois.PRINTED], ids=lambda c: c.name)
def test_cached_cleaving_maps_match_recomputation(conv):
    for k, l in LATTICE:
        fresh = galois.cleaving_j_mon.__wrapped__(k, l, conv)
        assert galois.cleaving_j_mon(k, l, conv) == fresh
        inverse = galois.cleaving_j_inverse_mon(k, l, conv)
        assert fresh * inverse == adtq().unit() == inverse * fresh


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


# ---------------------------------------------------------------------------
# Batched completion against one oriented pair per pass
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


@pytest.mark.parametrize("n,order", QUOTIENT_ORDERS)
def test_batched_completion_matches_one_rule_per_pass(n, order):
    with mock.patch.object(RewriteSystem, "complete", ref_complete):
        want = algebras._finite_quotient_cached.__wrapped__(n, order)
    got = build_finite_quotient(n, CyclotomicMode(order))
    assert len(got.system.rules) == len(want.system.rules)
    assert got.dimension == want.dimension
    assert got.system.all_normal_words() == want.system.all_normal_words()
    for k in range(5):
        for word in itertools.product(got.system.letters, repeat=k):
            assert got.system.normalize(word) == want.system.normalize(word), word
