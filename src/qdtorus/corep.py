"""Corepresentation matrices, characters and intertwiners.

The three families of unitary irreducibles are the determinant powers, their
twists by the central unitary group-like 2z-1, and the two-dimensional
family whose entries are determinant powers times generator runs, laid out
in the printed rows (their transpose breaks the corepresentation law).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebras import Element, TensorElement, adtq, tensor_of
from .errors import CyclotomicModeUnsupported, IncompleteWindow, InvalidExponent
from .hopf import haar
from .linalg import nullspace
from .report import Check, checks_from
from .scalars import QScalar


@dataclass(frozen=True)
class CorepMatrix:
    label: str
    entries: tuple[tuple[Element, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def algebra(self):
        return self.entries[0][0].algebra


def _el(m: int, x: str = "D", n: int = 0) -> Element:
    """The product D^m x^n of generator powers in ADTq."""
    alg = adtq()
    return alg.gen("D", m) * alg.gen(x, n)


def chi(m: int) -> CorepMatrix:
    return CorepMatrix(f"chi({m})", ((_el(m),),))


def chiz(m: int) -> CorepMatrix:
    entry = _el(m, "z", 1) * 2 - _el(m)
    return CorepMatrix(f"chiz({m})", ((entry,),))


def w_rep(m: int, n: int) -> CorepMatrix:
    if n < 1:
        raise InvalidExponent("the two-dimensional family needs n >= 1")
    rows = (
        (_el(m, "a", n), _el(m, "b", n)),
        (_el(m, "c", n), _el(m, "d", n)),
    )
    return CorepMatrix(f"w({m},{n})", rows)


def direct_sum(v: CorepMatrix, w: CorepMatrix) -> CorepMatrix:
    alg = v.algebra
    zero = alg.zero()
    top = tuple(row + (zero,) * w.dim for row in v.entries)
    bottom = tuple((zero,) * v.dim + row for row in w.entries)
    return CorepMatrix(f"{v.label}+{w.label}", top + bottom)


def standard_families(m_max: int, n_max: int) -> list[CorepMatrix]:
    out: list[CorepMatrix] = []
    for m in range(-m_max, m_max + 1):
        out.append(chi(m))
        out.append(chiz(m))
    for m in range(-m_max, m_max + 1):
        for n in range(1, n_max + 1):
            out.append(w_rep(m, n))
    return out


# ---------------------------------------------------------------------------
# Verification and characters
# ---------------------------------------------------------------------------


def verify_corep(w: CorepMatrix) -> list[Check]:
    alg, e, dim = w.algebra, w.entries, range(w.dim)

    def coproduct_law(i, j) -> bool:
        expected = TensorElement.combine(
            (alg, alg), ((tensor_of([e[i][k], e[k][j]]), None) for k in dim)
        )
        return e[i][j].coproduct() == expected

    def counit_law(i, j) -> bool:
        return e[i][j].counit() == (QScalar.one() if i == j else QScalar.zero())

    def unitary(i, j) -> bool:
        target = alg.unit() if i == j else alg.zero()
        return (
            alg.combine((e[i][k] * e[j][k].star(), None) for k in dim) == target
            and alg.combine((e[k][i].star() * e[k][j], None) for k in dim) == target
        )

    def failing(law):
        return (f"{w.label}[{i}][{j}]" for i, j in itertools.product(dim, dim) if not law(i, j))

    return checks_from({
        f"corep_{w.label}_coproduct_law": failing(coproduct_law),
        f"corep_{w.label}_counit_law": failing(counit_law),
        f"corep_{w.label}_unitary": failing(unitary),
    })


def character_of(w: CorepMatrix) -> Element:
    return w.algebra.combine((w.entries[i][i], None) for i in range(w.dim))


def character_gram(coreps: list[CorepMatrix]) -> list[list[QScalar]]:
    chars = [character_of(w) for w in coreps]
    stars = [c.star() for c in chars]
    return [[haar(si * cj) for cj in chars] for si in stars]


def character_gram_is_identity(coreps: list[CorepMatrix]) -> Check:
    gram = character_gram(coreps)
    off_identity = (
        f"h(chi[{coreps[i].label}]* chi[{coreps[j].label}]) = {value}"
        for i, row in enumerate(gram)
        for j, value in enumerate(row)
        if value != (QScalar.one() if i == j else QScalar.zero())
    )
    return checks_from({"character_gram_identity": off_identity})[0]


def decompose_character(chi_el: Element, candidates: list[CorepMatrix]) -> dict[str, int]:
    """Multiplicities against the candidate irreducibles via the Haar pairing.

    Raises :class:`IncompleteWindow` if the multiplicities do not reconstruct
    the input exactly (candidate window too small).
    """
    mults: dict[str, int] = {}
    pieces = []
    for w in candidates:
        char = character_of(w)
        weight = haar(char.star() * chi_el)
        if weight.is_zero():
            continue
        value = weight.constant_value()
        if value.denominator != 1 or value < 0:
            raise IncompleteWindow(
                f"non-integral multiplicity {weight} for {w.label}"
            )
        mults[w.label] = int(value)
        pieces.append((char, weight))
    if chi_el.algebra.combine(pieces) != chi_el:
        raise IncompleteWindow("reconstruction from candidates failed")
    return mults


# ---------------------------------------------------------------------------
# Intertwiners
# ---------------------------------------------------------------------------


def intertwiner_space(v: CorepMatrix, w: CorepMatrix) -> list[list[list[QScalar]]]:
    """Basis of scalar matrices T with w T = T v, solved exactly over Q(q)."""
    alg = v.algebra
    if alg.tag.startswith("FDQUOT"):
        raise CyclotomicModeUnsupported(
            "intertwiner solving divides Laurent polynomials and never "
            "reduces modulo the cyclotomic polynomial"
        )
    nrows_T, ncols_T = w.dim, v.dim
    nunk = nrows_T * ncols_T

    def unk(r, c):
        return r * ncols_T + c

    rows: list[list[QScalar]] = []
    buckets: dict = {}
    for i in range(w.dim):
        for j in range(v.dim):
            # sum_k w[i][k] T[k][j] - sum_k T[i][k] v[k][j] = 0
            coeffs: dict = {}
            for k in range(w.dim):
                for mon, c in w.entries[i][k].terms.items():
                    row = coeffs.setdefault(mon, [QScalar.zero()] * nunk)
                    row[unk(k, j)] = row[unk(k, j)] + c
            for k in range(v.dim):
                for mon, c in v.entries[k][j].terms.items():
                    row = coeffs.setdefault(mon, [QScalar.zero()] * nunk)
                    row[unk(i, k)] = row[unk(i, k)] - c
            rows.extend(coeffs.values())
    basis = nullspace(rows, nunk)
    return [
        [[vec[unk(r, c)] for c in range(ncols_T)] for r in range(nrows_T)]
        for vec in basis
    ]


# ---------------------------------------------------------------------------
# Matrix-coefficient coverage of the basis window
# ---------------------------------------------------------------------------


def peter_weyl_checks(m_max: int, n_max: int) -> list[Check]:
    """Matrix entries of the listed irreducibles biject onto the basis window.

    The idempotent lines are reached through half the sum and half the
    difference of the two one-dimensional families.
    """
    half = QScalar.of(Fraction(1, 2))
    produced: set = set()
    expected: set = set()
    for m in range(-m_max, m_max + 1):
        for n in range(1, n_max + 1):
            w = w_rep(m, n)
            for row in w.entries:
                for entry in row:
                    produced.add(entry)
            for g in ("a", "b", "c", "d"):
                expected.add(_el(m, g, n))
        plus = (character_of(chi(m)) + character_of(chiz(m))) * half
        minus = (character_of(chi(m)) - character_of(chiz(m))) * half
        produced.add(plus)
        produced.add(minus)
        expected.add(_el(m, "z", 1))
        expected.add(_el(m) - _el(m, "z", 1))
    total = (2 * m_max + 1) * (4 * n_max + 2)

    def witnesses():
        if len(produced) != total:
            yield f"expected {total} distinct coefficients, got {len(produced)}"
        if produced != expected:
            yield "coefficient set differs from the basis window"

    return checks_from({"peter_weyl_coverage": witnesses()})
