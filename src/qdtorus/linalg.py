"""Exact linear algebra over the rational function field Q(q).

Only tiny systems appear (antipode derivation, Schur intertwiners), so a
straightforward fraction-field Gaussian elimination is enough.  Laurent
numerators and denominators are kept reduced via polynomial gcd.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import QScalar, _poly_divmod, _poly_trim


def _to_poly(s: QScalar) -> tuple[int, list[Fraction]]:
    """Write s = q^shift * p with p a polynomial, p[0] != 0 (or p = [])."""
    terms = dict(s.items())
    if not terms:
        return 0, []
    lo = min(terms)
    coeffs = [Fraction(0)] * (max(terms) - lo + 1)
    for k, c in terms.items():
        coeffs[k - lo] = Fraction(c)  # int / int would give a float
    return lo, coeffs


def _from_poly(shift: int, coeffs: list[Fraction]) -> QScalar:
    return QScalar({shift + k: c for k, c in enumerate(coeffs) if c})


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _poly_trim([Fraction(c) for c in a]), _poly_trim([Fraction(c) for c in b])
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def exact_div(num: QScalar, den: QScalar) -> QScalar:
    """Exact Laurent division; raises if the remainder is nonzero."""
    if den.is_zero():
        raise ZeroDivisionError("division by zero scalar")
    s1, p1 = _to_poly(num)
    s2, p2 = _to_poly(den)
    if not p1:
        return QScalar.zero()
    q, r = _poly_divmod(p1, p2)
    if r:
        raise ArithmeticError(f"inexact scalar division: ({num}) / ({den})")
    return _from_poly(s1 - s2, q)


class Frac:
    """A reduced fraction of Laurent polynomials in q."""

    __slots__ = ("num", "den")

    def __init__(self, num: QScalar, den: QScalar | None = None):
        den = QScalar.one() if den is None else den
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = QScalar.zero(), QScalar.one()
            return
        _, pn = _to_poly(num)
        sd, pd = _to_poly(den)
        g = _poly_gcd(pn, pd)
        if len(g) > 1:
            num = exact_div(num, _from_poly(0, g))
            den = exact_div(den, _from_poly(0, g))
        # make the denominator a monic polynomial with constant term power 0
        sd, pd = _to_poly(den)
        unit = QScalar.q_power(-sd, Fraction(1) / pd[-1])
        self.num = num * unit
        self.den = den * unit

    @staticmethod
    def of(value) -> "Frac":
        if isinstance(value, Frac):
            return value
        return Frac(QScalar.of(value))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        other = Frac.of(other)
        return Frac(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        other = Frac.of(other)
        return Frac(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        other = Frac.of(other)
        return Frac(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = Frac.of(other)
        if other.is_zero():
            raise ZeroDivisionError
        return Frac(self.num * other.den, self.den * other.num)

    def __neg__(self):
        return Frac(-self.num, self.den)

    def __eq__(self, other):
        if not isinstance(other, Frac):
            other = Frac.of(other)
        return self.num == other.num and self.den == other.den

    def __repr__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def to_scalar(self) -> QScalar:
        """Exact QScalar value; raises if the denominator does not divide."""
        return exact_div(self.num, self.den)


def _reduce_rows(m: list[list[Frac]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination of ``m`` in place on its first ``ncols`` columns.

    Returns the pivot columns.  Row i then has a 1 in the i-th pivot column,
    and every other row has a 0 there.
    """
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if not m[i][col].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][col]
        m[r] = [c / pv for c in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][col].is_zero():
                f = m[i][col]
                m[i] = [c - f * d for c, d in zip(m[i], m[r])]
        pivots.append(col)
    return pivots


def solve_unique(rows: list[list[QScalar]], rhs: list[QScalar]) -> list[QScalar]:
    """Solve A x = b over Q(q), requiring a unique solution with Laurent entries."""
    m = [[Frac.of(c) for c in row] + [Frac.of(b)] for row, b in zip(rows, rhs)]
    ncols = len(rows[0])
    pivots = _reduce_rows(m, ncols)
    if any(not row[-1].is_zero() for row in m[len(pivots) :]):
        raise ArithmeticError("inconsistent linear system")
    if len(pivots) != ncols:
        raise ArithmeticError("linear system is underdetermined")
    return [row[-1].to_scalar() for row in m[:ncols]]


def nullspace(rows: list[list[QScalar]], ncols: int) -> list[list[QScalar]]:
    """Basis of the nullspace over Q(q), entries cleared to Laurent scalars."""
    m = [[Frac.of(c) for c in row] for row in rows if any(not QScalar.of(c).is_zero() for c in row)]
    pivots = _reduce_rows(m, ncols)
    basis = []
    free_cols = [c for c in range(ncols) if c not in pivots]
    for free in free_cols:
        vec = [Frac.of(0)] * ncols
        vec[free] = Frac.of(1)
        for i, col in enumerate(pivots):
            vec[col] = -m[i][free]
        # clear denominators so entries are honest Laurent polynomials
        denom = QScalar.one()
        for v in vec:
            if not v.is_zero():
                denom = denom * v.den
        basis.append([exact_div(v.num * denom, v.den) for v in vec])
    return basis
