"""Exact linear algebra over the rational function field Q(q).

Only tiny systems appear (the Schur intertwiners), so they are solved by
fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968) on
Laurent scalars: every update divides exactly by the previous pivot, so no
fraction of Laurent polynomials is ever formed.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import QScalar, _poly_divmod


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
    return QScalar({s1 - s2 + k: c for k, c in enumerate(q) if c})


def _reduce_rows(m: list[list[QScalar]], ncols: int) -> tuple[list[int], QScalar]:
    """Fraction-free Gauss-Jordan elimination of ``m`` in place on its first
    ``ncols`` columns.

    Returns the pivot columns and the last pivot ``d``.  Row i then has ``d``
    in the i-th pivot column, and every other row has a 0 there.  Each entry
    stays a minor of the input, so every division by the previous pivot is
    exact.
    """
    pivots: list[int] = []
    d = QScalar.one()
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if not m[i][col].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r][col]
        for i in range(len(m)):
            if i != r:
                f = m[i][col]
                m[i] = [exact_div(p * c - f * e, d) for c, e in zip(m[i], m[r])]
        d = p
        pivots.append(col)
    return pivots, d


def solve_unique(rows: list[list[QScalar]], rhs: list[QScalar]) -> list[QScalar]:
    """Solve A x = b over Q(q), requiring a unique solution with Laurent entries."""
    m = [[QScalar.of(c) for c in row] + [QScalar.of(b)] for row, b in zip(rows, rhs)]
    ncols = len(rows[0])
    pivots, d = _reduce_rows(m, ncols)
    if any(not row[-1].is_zero() for row in m[len(pivots) :]):
        raise ArithmeticError("inconsistent linear system")
    if len(pivots) != ncols:
        raise ArithmeticError("linear system is underdetermined")
    return [exact_div(row[-1], d) for row in m[:ncols]]


def nullspace(rows: list[list[QScalar]], ncols: int) -> list[list[QScalar]]:
    """Basis of the nullspace over Q(q), with Laurent entries."""
    m = [[QScalar.of(c) for c in row] for row in rows]
    pivots, d = _reduce_rows(m, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [QScalar.zero()] * ncols
        vec[free] = d
        for i, col in enumerate(pivots):
            vec[col] = -m[i][free]
        basis.append(vec)
    return basis
