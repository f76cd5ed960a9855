"""Hopf *-structure maps, convolution algebra and the invariant functional.

The structure maps themselves live on the algebra objects: each is one
letter table of normalized images, written down from the formulas on the
generators (S and * included, nothing is solved for) and extended to words
(anti)multiplicatively.  This module proves those tables from the relations
and the generators (:func:`verify_hopf_axioms`), and provides the
convolution product of maps given on monomials and the Haar functional of
the double-torus quotient with its positivity and invariance checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable

import numpy as np

from .algebras import (
    Algebra,
    BasisWindow,
    DoubleTorusAlgebra,
    Element,
    TensorElement,
    corner_coordinates,
    enumerate_basis,
)
from .errors import NotAHopfAlgebra, WindowExceeded
from .report import Check, checks_from
from .scalars import QScalar, add_term


# ---------------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------------


def verify_hopf_axioms(algebra: Algebra, max_degree: int) -> list[Check]:
    """Check the Hopf *-algebra axioms, in every degree where the algebra has
    a presentation.

    Covered: coassociativity, both counit laws, both antipode laws,
    compatibility of the coproduct with the involution, the involution being
    involutive, and (S compose *) squaring to the identity.

    An algebra with a rewrite system gets a certificate for every degree:
    (R) the coproduct, counit, antipode and involution, extended letter by
    letter, respect every rewrite rule, so each is a well-defined
    (anti)homomorphism; (G) the six laws hold on the unit and the normal
    generators.  Both sides of every law are then (anti)homomorphisms of one
    kind, or (the antipode law) closed under products, so they agree
    everywhere.  ADTq multiplies in closed form on its two lattice corners,
    not by rewriting, so its certificate has a fifth map, the product: it
    respects every rewrite rule, and on ``PRODUCT_WINDOW`` it gives the
    rewrite system's normal form of every normal word split before its last
    letter, and of D^(±1) times the word.  The corner model is associative
    and has one basis element per normal monomial, so that makes it the
    presented product on the window.  When the certificate fails, the basis monomials
    up to ``max_degree`` are scanned for witnesses, and every law that uses
    a map which broke a relation fails, naming the relation where the scan
    finds nothing.  An algebra without a presentation (the bicrossed
    product) is scanned up to ``max_degree``.
    """
    if not algebra.is_hopf:
        raise NotAHopfAlgebra(f"{algebra.tag} carries no coproduct")
    if hasattr(algebra, "system"):
        failures = _certified_failures(algebra, max_degree)
    else:
        failures = _law_failures(algebra, algebra.basis_by_degree(max_degree))
    return checks_from({f"hopf_{algebra.tag}_{law}": scan for law, scan in failures.items()})


# each law, with the structure maps it uses
_LAW_MAPS = {
    "coassociativity": ("product", "coproduct"),
    "counit_law": ("product", "coproduct", "counit"),
    "antipode_law": ("product", "coproduct", "counit", "antipode"),
    "coproduct_star": ("product", "coproduct", "star"),
    "star_involutive": ("product", "star"),
    "antipode_star_square": ("product", "antipode", "star"),
}

# where a closed-form product is checked against the rewrite system
PRODUCT_WINDOW = BasisWindow(d_max=8, gen_max=8)


def _law_failures(algebra: Algebra, mons) -> dict:
    """For each law, a scan of the monomials of ``mons`` on which it fails.
    Each monomial's coproduct and involution are computed once, for all six."""
    rows = [(el, el.coproduct(), el.star()) for el in map(algebra.monomial, mons)]

    def antipode_holds(el, cop) -> bool:
        eps_unit = algebra.unit() * el.counit()
        sides = (cop.apply_leg(leg, algebra.antipode_mon, algebra) for leg in (0, 1))
        return all(side.multiply_legs() == eps_unit for side in sides)

    return {
        "coassociativity": (
            str(el) for el, cop, _ in rows if cop.coproduct_leg(0) != cop.coproduct_leg(1)
        ),
        "counit_law": (
            str(el) for el, cop, _ in rows if cop.counit_leg(0) != el or cop.counit_leg(1) != el
        ),
        "antipode_law": (str(el) for el, cop, _ in rows if not antipode_holds(el, cop)),
        "coproduct_star": (str(el) for el, cop, st in rows if st.coproduct() != cop.star_legs()),
        "star_involutive": (str(el) for el, _, st in rows if st.star() != el),
        "antipode_star_square": (
            str(el) for el, _, st in rows if st.antipode().star().antipode() != el
        ),
    }


def _certified_failures(algebra, max_degree: int) -> dict:
    broken = {m: f"relation {r}: {m} differs" for m, r in broken_relations(algebra).items()}
    if isinstance(algebra, DoubleTorusAlgebra) and "product" not in broken:
        off = product_off_normal_words(algebra)
        if off:
            broken["product"] = off
    # the unit and the normal letters; AZ2's unit d0 + d1 is no word, and
    # its basis d0, d1 already consists of generators
    generators = algebra.basis_by_degree(1)
    if not broken and all(c.passed for c in checks_from(_law_failures(algebra, generators))):
        return dict.fromkeys(_LAW_MAPS, ())
    # the generators close the scan, since a window of degree 0 misses them
    window = dict.fromkeys(algebra.basis_by_degree(max_degree) + generators)
    scanned = _law_failures(algebra, window)
    return {
        law: itertools.chain(scanned[law], (broken[m] for m in maps if m in broken))
        for law, maps in _LAW_MAPS.items()
    }


def broken_relations(algebra) -> dict[str, str]:
    """For each structure map that breaks a rewrite rule, the first such rule.

    Each map is evaluated letter by letter on the rule's pattern and on the
    words of its result; equal normal forms mean the map respects the
    relation, whether or not the rewrite system is confluent.  A product in
    closed form is a fifth map: the product of the pattern's letters must be
    the normalized result.
    """
    pair = (algebra, algebra)
    broken: dict[str, str] = {}
    for rule in algebra.system.rules:
        lhs, rhs = rule.pattern, rule.result
        counit = QScalar.zero()
        for c, w in rhs:
            counit = counit + c * algebra.counit_mon(w)
        sides = {
            "coproduct": (
                algebra.coproduct_mon(lhs),
                TensorElement.combine(pair, ((algebra.coproduct_mon(w), c) for c, w in rhs)),
            ),
            "counit": (algebra.counit_mon(lhs), algebra.canon_scalar(counit)),
            "antipode": (
                algebra.antipode_mon(lhs),
                algebra.combine((algebra.antipode_mon(w), c) for c, w in rhs),
            ),
            "star": (
                algebra.star_mon(lhs),
                algebra.combine((algebra.star_mon(w), c.star()) for c, w in rhs),
            ),
        }
        if isinstance(algebra, DoubleTorusAlgebra):
            x, y = lhs  # every rule of ADTq relates two letters
            sides["product"] = (
                algebra.mul_mon((x,), (y,)),
                algebra.combine((algebra.normalize_word(w), c) for c, w in rhs),
            )
        for name, (left, right) in sides.items():
            if left != right and name not in broken:
                broken[name] = "*".join(lhs)
    return broken


def product_off_normal_words(algebra) -> str | None:
    """The first product on ``PRODUCT_WINDOW`` that differs from the
    rewrite system's normal form of the concatenated word.

    Each normal monomial w of the window is split before its last letter,
    and multiplied by D and by Dinv on the left.
    """
    fmt = algebra.format_mon
    for w in enumerate_basis(algebra, PRODUCT_WINDOW):
        cases = [(w[:-1], w[-1:])] if w else []
        for left, right in cases + [(("D",), w), (("Dinv",), w)]:
            want = algebra.normalize_word(left + right)
            if algebra.mul_mon(left, right) != want:
                return f"product {fmt(left)} · {fmt(right)} is not {want}"
    return None


def proof_summary(algebra, max_degree: int, checks: list[Check]) -> str:
    """What a run of :func:`verify_hopf_axioms` that gave ``checks`` covered.

    Every check passes exactly when the certificate does, since each broken
    relation and each law failing on a generator fails a check.
    """
    if hasattr(algebra, "system") and all(c.passed for c in checks):
        generators = sum(1 for w in algebra.basis_by_degree(1) if w)
        return (
            f"all degrees: {len(algebra.system.rules)} relations × {{Δ, ε, S, *}}; "
            f"six laws on {generators} generators"
        )
    return f"window max_deg={max_degree}"


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def convolve(
    f: Callable[..., Element], g: Callable[..., Element], e: Element, target: Algebra
) -> Element:
    """The convolution product (f * g)(e) = Σ f(e_(1)) g(e_(2)) of two maps
    given on monomials, with values in ``target``."""
    return target.combine(
        (f(m1) * g(m2), c) for (m1, m2), c in e.coproduct().terms.items()
    )


# ---------------------------------------------------------------------------
# The Haar functional
# ---------------------------------------------------------------------------


# the weights w and 1 - w of the classical and the quantum corner state
_W = QScalar.of(Fraction(1, 2))
_CORNER_WEIGHTS = (((0, 0, 0), _W), ((1, 0, 0), 1 - _W))


def haar(e: Element) -> QScalar:
    """The invariant state ½(τ_cl + τ_q), where τ reads the coordinate of e
    at the lattice origin of its corner; every other triple is annihilated.

    The state w τ_cl + (1 - w) τ_q is normalised for every weight w;
    invariance applied to the group-like 2z - 1 forces w = ½.
    """
    if not e.algebra.tag.startswith("ADTq"):
        raise WindowExceeded("the invariant functional lives on the quotient algebra")
    coords = corner_coordinates(e)
    return sum((coords[t] * w for t, w in _CORNER_WEIGHTS if t in coords), QScalar.zero())


def haar_biinvariance_checks(algebra, max_degree: int) -> list[Check]:
    rows = [
        (el, el.coproduct(), algebra.unit() * haar(el))
        for el in map(algebra.monomial, algebra.basis_by_degree(max_degree))
    ]
    return checks_from({
        "haar_right_invariance": (
            str(el) for el, cop, value in rows if _contract_haar(cop, 1, algebra) != value
        ),
        "haar_left_invariance": (
            str(el) for el, cop, value in rows if _contract_haar(cop, 0, algebra) != value
        ),
    })


def _contract_haar(t: TensorElement, leg: int, algebra) -> Element:
    acc: dict = {}
    for key, c in t.terms.items():
        weight = haar(algebra.monomial(key[leg]))
        if not weight.is_zero():
            add_term(acc, key[1 - leg], c * weight)
    return Element(algebra, acc)


def haar_gram_min_eigenvalue(algebra, max_degree: int, theta: float) -> float:
    """Least eigenvalue of the Gram matrix [h(p_i* p_j)] at a numeric q."""
    mons = algebra.basis_by_degree(max_degree)
    stars = [algebra.monomial(m).star() for m in mons]
    els = [algebra.monomial(m) for m in mons]
    n = len(mons)
    gram = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            gram[i, j] = haar(stars[i] * els[j]).eval_unit(theta)
    if np.max(np.abs(gram - gram.conj().T)) > 1e-10:
        raise ArithmeticError("Gram matrix is not Hermitian")
    return float(np.min(np.linalg.eigvalsh((gram + gram.conj().T) / 2)))
