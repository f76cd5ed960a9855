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

from fractions import Fraction
from typing import Callable

import numpy as np

from .algebras import (
    Algebra,
    BasisWindow,
    DoubleTorusAlgebra,
    Element,
    TensorElement,
    enumerate_basis,
    quotient_mon_view,
    quotient_mon_word,
)
from .errors import NotAHopfAlgebra, WindowExceeded
from .report import Check
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
    respects every rewrite rule, and on ``PRODUCT_WINDOW`` every normal word
    is its prefix times its last letter, and D^(±1) times it is the word
    with its D-power moved by one.  The corner model is associative and has
    one basis element per normal monomial, so that makes it the presented
    product on the window.  When the certificate fails, the basis monomials
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
    return [
        Check(f"hopf_{algebra.tag}_{name}", failures[name] is None, witness=failures[name])
        for name in _LAW_MAPS
    ]


# each law, with the structure maps it uses
_LAW_MAPS = {
    "coassociativity": ("product", "coproduct"),
    "counit_law": ("product", "coproduct", "counit"),
    "antipode_law": ("product", "coproduct", "counit", "antipode"),
    "coproduct_star": ("product", "coproduct", "star"),
    "star_involutive": ("product", "star"),
    "antipode_star_square": ("product", "antipode", "star"),
}

# where a closed-form product is checked against the normal words
PRODUCT_WINDOW = BasisWindow(d_max=8, gen_max=8)


def _law_failures(algebra: Algebra, mons) -> dict:
    """The first monomial of ``mons`` on which each law fails, or None."""
    failures = dict.fromkeys(_LAW_MAPS)
    for mon in mons:
        el = algebra.monomial(mon)
        cop = el.coproduct()
        eps = el.counit()
        if cop.coproduct_leg(0) != cop.coproduct_leg(1):
            failures["coassociativity"] = failures["coassociativity"] or str(el)
        if cop.counit_leg(0) != el or cop.counit_leg(1) != el:
            failures["counit_law"] = failures["counit_law"] or str(el)
        eps_unit = algebra.unit() * eps
        left = cop.apply_leg(0, algebra.antipode_mon, algebra).multiply_legs()
        right = cop.apply_leg(1, algebra.antipode_mon, algebra).multiply_legs()
        if left != eps_unit or right != eps_unit:
            failures["antipode_law"] = failures["antipode_law"] or str(el)
        starred = el.star()
        if starred.coproduct() != cop.star_legs():
            failures["coproduct_star"] = failures["coproduct_star"] or str(el)
        if starred.star() != el:
            failures["star_involutive"] = failures["star_involutive"] or str(el)
        if starred.antipode().star().antipode() != el:
            failures["antipode_star_square"] = failures["antipode_star_square"] or str(el)
    return failures


def _certified_failures(algebra, max_degree: int) -> dict:
    broken = {m: f"relation {r}: {m} differs" for m, r in broken_relations(algebra).items()}
    if isinstance(algebra, DoubleTorusAlgebra) and "product" not in broken:
        off = product_off_normal_words(algebra)
        if off:
            broken["product"] = off
    # the unit and the normal letters; AZ2's unit d0 + d1 is no word, and
    # its basis d0, d1 already consists of generators
    on_generators = _law_failures(algebra, algebra.basis_by_degree(1))
    if not broken and not any(on_generators.values()):
        return on_generators
    scanned = _law_failures(algebra, algebra.basis_by_degree(max_degree))
    return {
        law: scanned[law]
        or on_generators[law]
        or next((broken[m] for m in maps if m in broken), None)
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
    """The first product on ``PRODUCT_WINDOW`` that is not a normal word.

    Each normal monomial w of the window must be its prefix times its last
    letter, and D^(±1) times w must be w with its D-power moved by one.
    """
    fmt = algebra.format_mon
    for w in enumerate_basis(algebra, PRODUCT_WINDOW):
        view = quotient_mon_view(w)
        cases = [(w[:-1], w[-1:], w)] if w else []
        cases += [
            (d, w, quotient_mon_word(view.d + step, view.z, view.gen, view.n))
            for step, d in ((1, ("D",)), (-1, ("Dinv",)))
        ]
        for left, right, word in cases:
            if algebra.mul_mon(left, right).terms != {word: QScalar.one()}:
                return f"product {fmt(left)} · {fmt(right)} is not {fmt(word) or '1'}"
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


def haar(e: Element) -> QScalar:
    """The invariant state: supported on the two central idempotents only.

    On the normal basis, powers of the determinant alone or together with a
    generator run are annihilated; the idempotent components each carry
    weight one half (forced by invariance applied to the group-like 2z-1).
    """
    if not e.algebra.tag.startswith("ADTq"):
        raise WindowExceeded("the invariant functional lives on the quotient algebra")
    half = QScalar.of(Fraction(1, 2))
    total = QScalar.zero()
    for mon, c in e.terms.items():
        view = quotient_mon_view(mon)
        if view.gen is not None or view.d != 0:
            continue
        total = total + (c * half if view.z else c)
    return total


def haar_biinvariance_checks(algebra, max_degree: int) -> list[Check]:
    bad_left = bad_right = None
    for mon in algebra.basis_by_degree(max_degree):
        el = algebra.monomial(mon)
        cop = el.coproduct()
        value = algebra.unit() * haar(el)
        left = _contract_haar(cop, leg=1, algebra=algebra)
        right = _contract_haar(cop, leg=0, algebra=algebra)
        if left != value:
            bad_left = bad_left or str(el)
        if right != value:
            bad_right = bad_right or str(el)
    return [
        Check("haar_right_invariance", bad_left is None, witness=bad_left),
        Check("haar_left_invariance", bad_right is None, witness=bad_right),
    ]


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
