"""Exact scalar arithmetic for the deformation coefficient ring.

Every symbolic coefficient in the package is a Laurent polynomial in the
deformation parameter q with rational coefficients.  The unit-circle
constraint on q makes the star operation an exponent flip (q* = q^-1);
numeric checks specialise q to exp(2*pi*i*theta).

Roots of unity are handled by :class:`CyclotomicMode`: it reduces exponents
modulo the order M and then modulo the M-th cyclotomic polynomial, i.e.
works in the field Q[q]/Phi_M generated by a primitive M-th root.  The
finite quotients need that field for their root condition (-q)^(n^2) = 1:
at order 2 it forces q = -1, which is no identity of the ring
Q[q]/(q^M - 1).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, Iterator, Mapping


def _exact(value):
    """The canonical form of a coefficient: an int when integral, else a Fraction."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"not an exact rational: {value!r}")


class QScalar:
    """Laurent polynomial sum(c_k * q^k) with exact rational coefficients.

    Instances are immutable and canonical: no stored coefficient is zero, and
    each is an ``int`` when integral, else a ``Fraction`` (never a float);
    ``int`` and ``Fraction`` compare and hash alike.  Products and sums of
    single-term scalars, nearly all of them, take a path without loops, and
    a product with the single term 1 returns the other factor itself.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Fraction] | None = None):
        canon = {}
        if terms:
            for k, c in terms.items():
                c = _exact(c)
                if c:
                    canon[int(k)] = c
        self._terms = canon

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "QScalar":
        return _ZERO

    @staticmethod
    def one() -> "QScalar":
        return _ONE

    @staticmethod
    def of(value) -> "QScalar":
        """Coerce an int, Fraction or QScalar."""
        if isinstance(value, QScalar):
            return value
        c = _exact(value)
        return _wrap({0: c}) if c else _ZERO

    @staticmethod
    def q_power(k: int, coeff=1) -> "QScalar":
        return QScalar({k: coeff})

    # -- inspection ---------------------------------------------------

    def items(self) -> Iterator[tuple[int, int | Fraction]]:
        return iter(sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def constant_value(self) -> int | Fraction:
        """The value when no q appears; raises if q-dependent."""
        if not self._terms:
            return 0
        if set(self._terms) != {0}:
            raise ValueError(f"not a constant: {self}")
        return self._terms[0]

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(other) -> "QScalar | None":
        if isinstance(other, QScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return QScalar.of(other)
        return None

    def __add__(self, other):
        if type(other) is not QScalar:
            other = QScalar._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self._terms, other._terms
        if len(a) == 1 and len(b) == 1:
            ((k1, c1),) = a.items()
            ((k2, c2),) = b.items()
            if k1 != k2:
                return _wrap({k1: c1, k2: c2})
            c = c1 + c2
            if not c:
                return _ZERO
            if type(c) is not int and c.denominator == 1:
                c = c.numerator
            return _wrap({k1: c})
        out = dict(a)
        for k, c in b.items():
            out[k] = out.get(k, 0) + c
        return _canonical(out)

    __radd__ = __add__

    def __neg__(self) -> "QScalar":
        return _wrap({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = QScalar._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QScalar":
        return QScalar.of(other) + (-self)

    def __mul__(self, other):
        if type(other) is not QScalar:
            other = QScalar._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self._terms, other._terms
        if len(a) == 1 and len(b) == 1:
            ((k1, c1),) = a.items()
            ((k2, c2),) = b.items()
            if not k1 and c1 == 1:
                return other
            if not k2 and c2 == 1:
                return self
            c = c1 * c2
            if type(c) is not int and c.denominator == 1:
                c = c.numerator
            return _wrap({k1 + k2: c})
        if not a or not b:
            return _ZERO
        out: dict = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return _canonical(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QScalar":
        if n < 0:
            return self.inverse() ** (-n)
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "QScalar":
        """Inverse of a single-term scalar c*q^k; raises otherwise."""
        if len(self._terms) != 1:
            raise ZeroDivisionError(f"not an invertible monomial scalar: {self}")
        ((k, c),) = self._terms.items()
        if c == 1 or c == -1:  # its own inverse, and canonical already
            return _wrap({-k: c})
        return QScalar({-k: 1 / Fraction(c)})

    # -- the *-structure and specialisations ---------------------------

    def star(self) -> "QScalar":
        """The involution q -> q^-1 with rational coefficients fixed."""
        return _wrap({-k: c for k, c in self._terms.items()})

    def eval_unit(self, theta: float) -> complex:
        """Evaluate at q = exp(2*pi*i*theta)."""
        total = 0j
        for k, c in self._terms.items():
            total += float(c) * cmath.exp(2j * cmath.pi * theta * k)
        return total

    def reduce_mod_poly(self, poly: tuple[int, ...]) -> "QScalar":
        """Remainder modulo a monic polynomial given as ascending coeffs.

        A monic divisor needs no division, so int coefficients stay int and
        Fraction ones stay Fraction.
        """
        if poly[-1] != 1:
            raise ValueError(f"divisor is not monic: leading coefficient {poly[-1]}")
        if min(self._terms, default=0) < 0:
            raise ValueError("reduce exponents first; negative powers present")
        deg = len(poly) - 1
        top = max(self._terms, default=0)
        if top < deg:
            return self
        coeffs = [0] * (top + 1)
        for k, c in self._terms.items():
            coeffs[k] = c
        for i in range(top, deg - 1, -1):
            factor = coeffs[i]
            if factor:
                for j, p in enumerate(poly):
                    coeffs[i - deg + j] -= factor * p
        return _canonical(dict(enumerate(coeffs[:deg])))

    # -- equality / hashing / display ----------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not QScalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QScalar.of(other)
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"QScalar({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for k, c in sorted(self._terms.items()):
            parts.append(_format_term(k, c, first=not parts))
        return "".join(parts)


_F0 = Fraction(0)
_ZERO = QScalar()
_ONE = QScalar({0: 1})
Q = QScalar.q_power(1)
QINV = QScalar.q_power(-1)


def _wrap(terms: dict) -> QScalar:
    s = QScalar.__new__(QScalar)
    s._terms = terms
    return s


def _canonical(sums: dict) -> QScalar:
    """Wrap raw coefficient sums: drop zeros, store integral Fractions as int."""
    out = {}
    for k, c in sums.items():
        if c:
            out[k] = c if type(c) is int or c.denominator != 1 else c.numerator
    return _wrap(out)


def _format_term(k: int, c, first: bool) -> str:
    sign = "-" if c < 0 else ("" if first else "+")
    mag = abs(c)
    if k == 0:
        body = str(mag)
    else:
        qpart = "q" if k == 1 else f"q^{k}"
        body = qpart if mag == 1 else f"{mag}*{qpart}"
    return sign + body if first else f" {sign or '+'} {body}"


# ---------------------------------------------------------------------------
# Linear combinations: sum raw, canonicalise once
# ---------------------------------------------------------------------------


def add_term(acc: dict, key, coeff: QScalar) -> None:
    """Add ``coeff`` at ``key`` of a raw combination (key -> QScalar)."""
    prev = acc.get(key)
    acc[key] = coeff if prev is None else prev + coeff


def add_scaled(acc: dict, terms: Mapping, coeff: QScalar | None = None) -> None:
    """Add ``coeff * terms`` (coeff = 1 when None) into a raw combination."""
    get = acc.get
    if coeff is None or coeff._terms == _ONE._terms:
        for key, c in terms.items():
            prev = get(key)
            acc[key] = c if prev is None else prev + c
        return
    for key, c in terms.items():
        c = c * coeff
        prev = get(key)
        acc[key] = c if prev is None else prev + c


def keep_scalar(s: QScalar) -> QScalar:
    """The canonical map of the generic mode: every scalar is canonical."""
    return s


def settle(acc: dict, canon: Callable[[QScalar], QScalar]) -> dict:
    """The canonical combination: ``canon`` once per key, zeros dropped.

    Each ``canon`` is a ring homomorphism onto canonical representatives (the
    identity or Q[q]/Phi_M), so canonicalising the finished sum
    gives the same representative as canonicalising after every step.
    """
    if canon is keep_scalar:
        return {key: c for key, c in acc.items() if c}
    out = {}
    for key, c in acc.items():
        c = canon(c)
        if c:
            out[key] = c
    return out


# ---------------------------------------------------------------------------
# Cyclotomic reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclotomicMode:
    """Root-of-unity scalar mode: q is a primitive root of order ``order``.

    Exponents of q are reduced modulo the order, then coefficients modulo
    the cyclotomic polynomial of the order, so scalars live in a field.
    Both steps are one Q-linear map, read off a table of residues.
    """

    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("cyclotomic order must be >= 1")

    def canon(self, s: QScalar) -> QScalar:
        """sum(c_k * R[k mod M]) for the residues R of ``_residue_table``.

        A single term whose residue has one term takes a path without loops.
        """
        terms = s._terms
        residues = _residue_table(self.order)
        out: dict = {}
        for k, c in terms.items():
            r = residues[k % self.order]
            if len(terms) == 1 and len(r) == 1:
                ((j, d),) = r.items()
                if d == 1:
                    return s if j == k else _wrap({j: c})
                return _canonical({j: c * d})
            for j, d in r.items():
                out[j] = out.get(j, 0) + c * d
        return _canonical(out)


# -- polynomial helpers (ascending coefficient tuples over Q) ----------------


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    # Fractions on entry: int / int would give a float
    num = [Fraction(c) for c in num]
    q = [_F0] * max(0, len(num) - len(den) + 1)
    lead = Fraction(den[-1])
    for i in range(len(num) - len(den), -1, -1):
        factor = num[i + len(den) - 1] / lead
        if factor:
            q[i] = factor
            for j, d in enumerate(den):
                num[i + j] -= factor * d
    return _poly_trim(q), _poly_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Ascending coefficients of the cyclotomic polynomial of given order.

    The polynomial is monic with integer coefficients, returned as ``int``.
    """
    p = [Fraction(-1)] + [Fraction(0)] * (order - 1) + [Fraction(1)]
    for d in range(1, order):
        if order % d == 0:
            q, r = _poly_divmod(p, list(cyclotomic_polynomial(d)))
            if r:
                raise ArithmeticError("cyclotomic division must be exact")
            p = q
    return tuple(_exact(c) for c in p)


@lru_cache(maxsize=None)
def _residue_table(order: int) -> tuple[dict[int, int], ...]:
    """The terms of R[j] = q^j mod Phi_M for j < M, M = ``order``.

    Every residue has int coefficients, as Phi_M is monic over Z.
    """
    phi = cyclotomic_polynomial(order)
    return tuple(QScalar.q_power(j).reduce_mod_poly(phi)._terms for j in range(order))


def invert_in_cyclotomic_field(s: QScalar, mode: CyclotomicMode) -> QScalar:
    """Inverse of a nonzero scalar in Q[q]/Phi_M by the Galois norm.

    The conjugates of s are s(q^j) for j prime to M.  Their product, the
    norm, is a nonzero rational, so the product of the conjugates other
    than s itself, divided by the norm, is the inverse of s.
    """
    s = mode.canon(s)
    if s.is_zero():
        raise ZeroDivisionError("zero in cyclotomic field")
    others = _ONE
    for j in range(2, mode.order):
        if gcd(j, mode.order) == 1:
            conjugate = mode.canon(QScalar({k * j: c for k, c in s._terms.items()}))
            others = mode.canon(others * conjugate)
    norm = mode.canon(s * others).constant_value()
    return others * (1 / Fraction(norm))
