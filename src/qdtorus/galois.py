"""Cleft extension apparatus: exact sequence, cleaving map, cocycle,
cocleaving, coaction, the bicross product and its isomorphism.

Two independent constructions exist for the cocycle (closed-form
``sigma_table`` vs ``sigma_convolution`` from the cleaving map), for the
cocleaving map (``ell_table_mon`` vs ``ell_from_j_mon``, the right-coaction
formula) and for the base coaction (``coaction_lambda_mon``, the closed swap
formula, vs ``coaction_lambda_from_ell``, the three-leg cocleaving formula);
the suites check they agree exactly.

The diagonal branch of the cleaving map carries a convention toggle: the
``corrected`` convention uses the positive exponent on the alternating
determinant factor and is the unique choice consistent with the cocycle
table, the cocleaving table and right-colinearity; the ``printed`` variant
is kept behind the toggle to reproduce the documented discrepancy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebras import (
    Algebra,
    BasisWindow,
    Element,
    TensorElement,
    adtq,
    algebra_factory,
    at2,
    at2q,
    az2,
    corner_triples,
    corner_word,
    enumerate_basis,
    extend_letters,
    quotient_mon_view,
    quotient_mon_word,
    tensor_of,
)
from .errors import NotInBaseImage
from .report import Check
from .scalars import QScalar, add_term

ONE = QScalar.one()


@dataclass(frozen=True)
class CleavingConvention:
    name: str  # "corrected" | "printed"

    @property
    def diag_sign_exponent(self) -> int:
        return 1 if self.name == "corrected" else -1


CORRECTED = CleavingConvention("corrected")
PRINTED = CleavingConvention("printed")


def convention(name: str) -> CleavingConvention:
    if name not in ("corrected", "printed"):
        raise ValueError(f"unknown cleaving convention {name!r}")
    return CORRECTED if name == "corrected" else PRINTED


# ---------------------------------------------------------------------------
# The cleaving map and its convolution inverse
# ---------------------------------------------------------------------------


def _sign_power(k: int) -> QScalar:
    return QScalar.of(1 if k % 2 == 0 else -1)


@lru_cache(maxsize=None)
def cleaving_j_mon(k: int, l: int, conv: CleavingConvention = CORRECTED) -> Element:
    """The section in the classical corner plus a twist in the quantum one."""
    alg = adtq()
    if k > l:
        twist = alg.monomial(
            quotient_mon_word(l, gen="c", n=k - l),
            _sign_power(l) * QScalar.q_power(l * l),
        )
    elif k < l:
        twist = alg.monomial(
            quotient_mon_word(k, gen="b", n=l - k),
            _sign_power(k) * QScalar.q_power(-k * k),
        )
    else:
        e = conv.diag_sign_exponent * k
        twist = (
            alg.monomial(quotient_mon_word(e)) - alg.monomial(quotient_mon_word(e, z=True))
        ) * _sign_power(e)
    return alg.monomial(corner_word(0, k, l)) + twist


def cleaving_j(h: Element, conv: CleavingConvention = CORRECTED) -> Element:
    return adtq().combine(
        (cleaving_j_mon(*at2().lattice_exponents(mon), conv), c)
        for mon, c in h.terms.items()
    )


@lru_cache(maxsize=None)
def cleaving_j_inverse_mon(k: int, l: int, conv: CleavingConvention = CORRECTED) -> Element:
    """j(h) is a unitary of its two corners, so its inverse is j(h)*."""
    return cleaving_j_mon(k, l, conv).star()


# ---------------------------------------------------------------------------
# Transport to and from the base algebra
# ---------------------------------------------------------------------------


def to_az2(e: Element) -> Element:
    """Read an element of span{1, z} as a function on the two-point group."""
    base = az2()
    c_unit = QScalar.zero()
    c_z = QScalar.zero()
    for mon, c in e.terms.items():
        if mon == ():
            c_unit = c
        elif mon == ("z",):
            c_z = c
        else:
            raise NotInBaseImage(f"not in the idempotent span: {e}")
    return base.delta(0) * (c_unit + c_z) + base.delta(1) * c_unit


def inj_mon(mon) -> Element:
    """Inclusion of the base: d0 -> z and d1 -> 1 - z."""
    alg = adtq()
    z = alg.gen("z")
    return {("d0",): z, ("d1",): alg.unit() - z}[mon]


def inj(x: Element) -> Element:
    return adtq().combine((inj_mon(mon), c) for mon, c in x.terms.items())


def prj_mon(mon) -> Element:
    """Projection to the diagonal torus: kill the off-diagonal corner, z -> 1."""
    view = quotient_mon_view(mon)
    if view.gen in ("b", "c"):
        return at2().zero()
    return at2().monomial(at2().lattice_mon(*corner_triples(mon)[0][1:]))


def prj(e: Element) -> Element:
    return at2().combine((prj_mon(mon), c) for mon, c in e.terms.items())


# ---------------------------------------------------------------------------
# The cocycle: closed-form table and convolution construction
# ---------------------------------------------------------------------------


def sigma_q_exponent(k: int, l: int, m: int, n: int) -> int:
    """Exponent of q on the off-diagonal corner of the cocycle."""
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


def sigma_table(k: int, l: int, m: int, n: int) -> Element:
    return _sigma_of_exponent(sigma_q_exponent(k, l, m, n))


@lru_cache(maxsize=None)
def _sigma_of_exponent(e: int) -> Element:
    base = az2()
    return base.delta(0) + base.delta(1) * QScalar.q_power(e)


def sigma_convolution(
    k: int, l: int, m: int, n: int, conv: CleavingConvention = CORRECTED
) -> Element:
    """sigma(h, g) = j(h) j(g) j^{-1}(hg) for group-like arguments.

    Raises :class:`NotInBaseImage` when the product does not land in the
    idempotent span (which is how the printed diagonal branch fails).
    """
    product = cleaving_j_mon(k, l, conv) * cleaving_j_mon(m, n, conv)
    return to_az2(product * cleaving_j_inverse_mon(k + m, l + n, conv))


def verify_cocycle_condition(exp_range: int) -> list[Check]:
    """The trivial-action two-cocycle identity on group-like triples.

    sigma(h, g) = d0 + d1 q^e(h, g) and AZ2 multiplies pointwise, so the
    identity sigma(h, g) sigma(hg, k) = sigma(g, k) sigma(h, gk) is the sum
    identity e(h, g) + e(hg, k) = e(g, k) + e(h, gk) of the exponents.  The
    exponents are tabulated once on [-2r, 2r]^4 and the identity is checked
    on arrays of triples; the witness is the first failing triple in
    ``itertools.product`` order.
    """
    e = sigma_q_exponent  # looked up per call, so a patched table is seen
    r = exp_range
    wide = range(-2 * r, 2 * r + 1)
    table = np.array([e(*a) for a in itertools.product(wide, repeat=4)])
    table = table.reshape((len(wide),) * 4)

    def exponent(*args):
        return table[tuple(x + 2 * r for x in args)]

    # the last four coordinates of a triple (u^k v^l, u^m v^n, u^p v^s), each
    # on its own axis; one slab of them per (k, l) keeps the memory small
    m, n, p, s = (
        np.arange(-r, r + 1).reshape([-1 if j == i else 1 for j in range(4)]) for i in range(4)
    )
    right = exponent(m, n, p, s)
    for k, l in itertools.product(range(-r, r + 1), repeat=2):
        lhs = exponent(k, l, m, n) + exponent(k + m, l + n, p, s)
        bad = lhs != right + exponent(k, l, m + p, n + s)
        if bad.any():
            m0, n0, p0, s0 = (int(i) - r for i in np.unravel_index(np.argmax(bad), bad.shape))
            witness = f"(u^{k}v^{l}, u^{m0}v^{n0}, u^{p0}v^{s0})"
            return [Check("cocycle_identity", False, witness)]
    return [Check("cocycle_identity", True, None)]


# ---------------------------------------------------------------------------
# The cocleaving map
# ---------------------------------------------------------------------------


def ell_table_mon(mon) -> Element:
    base = az2()
    view = quotient_mon_view(mon)
    sign = _sign_power(view.d)
    if view.gen in ("a", "d") or view.z:
        return base.delta(0)
    if view.gen == "b":
        return base.delta(1) * (sign * QScalar.q_power(view.d * view.d))
    if view.gen == "c":
        return base.delta(1) * (sign * QScalar.q_power(-view.d * view.d))
    # a bare determinant power is the sum of its two idempotent components
    return base.delta(0) + base.delta(1) * sign


def ell_table(e: Element) -> Element:
    return az2().combine((ell_table_mon(mon), c) for mon, c in e.terms.items())


def ell_from_j_mon(mon, conv: CleavingConvention = CORRECTED) -> Element:
    """The cocleaving map from the right coaction: p -> p_(0) j^{-1}(p_(1))."""
    alg = adtq()
    return to_az2(
        alg.combine(
            (
                alg.monomial(m1) * cleaving_j_inverse_mon(*at2().lattice_exponents(t), conv),
                c * c2,
            )
            for (m1, m2), c in alg.coproduct_mon(mon).terms.items()
            for t, c2 in prj_mon(m2).terms.items()
        )
    )


# ---------------------------------------------------------------------------
# The base coaction
# ---------------------------------------------------------------------------


def coaction_lambda_mon(k: int, l: int) -> TensorElement:
    torus, base = at2(), az2()
    return TensorElement(
        (torus, base),
        {
            (torus.lattice_mon(k, l), ("d0",)): ONE,
            (torus.lattice_mon(l, k), ("d1",)): ONE,
        },
    )


def coaction_lambda(h: Element) -> TensorElement:
    torus = at2()
    return TensorElement.combine(
        (torus, az2()),
        ((coaction_lambda_mon(*torus.lattice_exponents(mon)), c) for mon, c in h.terms.items()),
    )


def coaction_lambda_from_ell(
    k: int, l: int, conv: CleavingConvention = CORRECTED
) -> TensorElement:
    """Derive the coaction through the three-leg cocleaving formula.

    Uses a section of the projection (a convenient preimage of each
    group-like) and the fact that the cocleaving map coincides with its own
    convolution inverse, which is checked separately.
    """
    alg, torus, base = adtq(), at2(), az2()
    acc: dict = {}
    for (m1, m2, m3), c in alg.coproduct_mon(corner_word(0, k, l)).coproduct_leg(0).terms.items():
        middle = prj_mon(m2)
        if middle.is_zero():
            continue
        weight = ell_table_mon(m1) * ell_table_mon(m3)
        for t_mon, tc in middle.terms.items():
            for b_mon, bc in weight.terms.items():
                add_term(acc, (t_mon, b_mon), c * tc * bc)
    return TensorElement((torus, base), acc)


# ---------------------------------------------------------------------------
# The bicross product
# ---------------------------------------------------------------------------


class BicrossAlgebra(Algebra):
    """The base-times-torus space with crossed product and crossed coproduct.

    Monomials are (corner, k, l): the corner index picks a delta function of
    the base, the lattice pair picks a group-like of the torus.  The product
    twists by the cocycle on the off-diagonal corner; the coproduct twists
    by the swap coaction.  Antipode and involution are transported through
    the isomorphism with the quotient algebra and then re-verified against
    the axioms by the suites.
    """

    def __init__(self, conv: CleavingConvention):
        self.conv = conv
        self.tag = f"BICROSS[{conv.name}]"
        self._antipode_cache: dict = {}
        self._star_cache: dict = {}

    def unit(self) -> Element:
        return Element(self, {(0, 0, 0): ONE, (1, 0, 0): ONE})

    def mul_mon(self, m1, m2) -> Element:
        (i, k, l), (j, m, n) = m1, m2
        if i != j:
            return self.zero()
        coeff = QScalar.q_power(sigma_q_exponent(k, l, m, n)) if i == 1 else ONE
        return self.monomial((i, k + m, l + n), coeff)

    def coproduct_mon(self, mon) -> TensorElement:
        i, k, l = mon
        out: dict = {}
        for j in (0, 1):
            swap = (i - j) % 2
            h = (k, l) if swap == 0 else (l, k)
            out[((j, *h), (swap, k, l))] = ONE
        return TensorElement((self, self), out)

    def counit_mon(self, mon) -> QScalar:
        return ONE if mon[0] == 0 else QScalar.zero()

    def antipode_mon(self, mon) -> Element:
        hit = self._antipode_cache.get(mon)
        if hit is None:
            hit = phi_inverse(phi_mon(mon, self.conv).antipode(), self.conv)
            self._antipode_cache[mon] = hit
        return hit

    def star_mon(self, mon) -> Element:
        hit = self._star_cache.get(mon)
        if hit is None:
            hit = phi_inverse(phi_mon(mon, self.conv).star(), self.conv)
            self._star_cache[mon] = hit
        return hit

    def format_mon(self, mon) -> str:
        i, k, l = mon
        torus_part = at2().format_mon(at2().lattice_mon(k, l)) or "1"
        return f"d{i}⊗{torus_part}"

    def mon_sort_key(self, mon):
        i, k, l = mon
        return (abs(k) + abs(l), i, k, l)

    def basis_by_degree(self, max_len: int) -> list:
        return [
            (i, k, l)
            for i in (0, 1)
            for k in range(-max_len, max_len + 1)
            for l in range(-max_len, max_len + 1)
            if abs(k) + abs(l) <= max_len
        ]


@algebra_factory
def build_bicross_product(convention_name: str = "corrected") -> BicrossAlgebra:
    return BicrossAlgebra(convention(convention_name))


# -- the isomorphism ---------------------------------------------------------


def phi_mon(mon, conv: CleavingConvention = CORRECTED) -> Element:
    i, k, l = mon
    corner = adtq().gen("z") if i == 0 else adtq().unit() - adtq().gen("z")
    return corner * cleaving_j_mon(k, l, conv)


def phi(e: Element, conv: CleavingConvention = CORRECTED) -> Element:
    return adtq().combine((phi_mon(mon, conv), c) for mon, c in e.terms.items())


def phi_inverse(e: Element, conv: CleavingConvention = CORRECTED) -> Element:
    """Inverse of Phi: each monomial of a corner of e is a multiple of the image
    of one basis triple, except D^m z in the quantum corner, whose coefficient
    is always minus that of D^m (its partner in the image of the diagonal)."""
    classical = adtq().gen("z") * e
    acc: dict = {}
    for i, part in ((0, classical), (1, e - classical)):
        for mon, c in part.terms.items():
            view = quotient_mon_view(mon)
            if i == 1 and view.gen is None:
                if view.z:
                    continue
                k = conv.diag_sign_exponent * view.d
                key = (1, k, k)
            else:
                key = corner_triples(mon)[0]
            acc[key] = c * phi_mon(key, conv).coefficient(mon).inverse()
    return Element(build_bicross_product(conv.name), acc)


# ---------------------------------------------------------------------------
# Exact sequence checks
# ---------------------------------------------------------------------------


def verify_exact_sequence(exp_range: int = 3) -> list[Check]:
    alg, torus, base = adtq(), at2(), az2()
    checks: list[Check] = []
    z = alg.gen("z")

    images = [inj_mon(("d0",)), inj_mon(("d1",))]
    injective = images[0] != images[1] and not images[0].is_zero()
    witness = None if injective else f"i(d0) = {images[0]}, i(d1) = {images[1]}"
    checks.append(Check("exactseq_i_injective", injective, witness=witness))

    bad = None
    for mon in (("d0",), ("d1",)):
        x = base.monomial(mon)
        ix = inj(x)
        if ix.coproduct() != x.coproduct().apply_leg(0, inj_mon, alg).apply_leg(1, inj_mon, alg):
            bad = f"coproduct at {base.format_mon(mon)}"
        if ix.counit() != x.counit():
            bad = bad or f"counit at {base.format_mon(mon)}"
        if ix.antipode() != inj(x.antipode()):
            bad = bad or f"antipode at {base.format_mon(mon)}"
        if ix.star() != inj(x.star()):
            bad = bad or f"star at {base.format_mon(mon)}"
    checks.append(Check("exactseq_i_hopf_star_map", bad is None, witness=bad))

    window = enumerate_basis(alg, BasisWindow(d_max=exp_range, gen_max=exp_range))
    bad = None
    for mon in window:
        p = alg.monomial(mon)
        pp = prj(p)
        if pp.coproduct() != p.coproduct().apply_leg(0, prj_mon, torus).apply_leg(1, prj_mon, torus):
            bad = bad or f"coproduct at {alg.format_mon(mon)}"
        if pp.counit() != p.counit():
            bad = bad or f"counit at {alg.format_mon(mon)}"
        if pp.antipode() != prj(p.antipode()):
            bad = bad or f"antipode at {alg.format_mon(mon)}"
        if pp.star() != prj(p.star()):
            bad = bad or f"star at {alg.format_mon(mon)}"
    checks.append(Check("exactseq_prj_hopf_star_map", bad is None, witness=bad))

    bad = next(
        (
            base.format_mon(mon)
            for mon in (("d0",), ("d1",))
            if prj(inj_mon(mon)) != torus.unit() * base.counit_mon(mon)
        ),
        None,
    )
    checks.append(Check("exactseq_prj_after_i_is_unit_counit", bad is None, witness=bad))

    # surjectivity via explicit preimages: u^k v^l is the image of its section
    bad = None
    for k, l in itertools.product(range(-exp_range, exp_range + 1), repeat=2):
        if prj_mon(corner_word(0, k, l)) != torus.monomial(torus.lattice_mon(k, l)):
            bad = bad or f"u^{k}v^{l}"
    checks.append(Check("exactseq_prj_surjective", bad is None, witness=bad))

    # kernel on the window: exactly the off-diagonal corner, i.e. the ideal
    # generated by z - 1; every killed vector satisfies e = (1-z) e
    one_minus_z = alg.unit() - z
    kernel_gens = []
    collisions = 0
    image_index: dict = {}
    for mon in window:
        img = prj_mon(mon)
        if img.is_zero():
            kernel_gens.append(alg.monomial(mon))
            continue
        key = next(iter(img.terms))
        if key in image_index:
            kernel_gens.append(alg.monomial(mon) - alg.monomial(image_index[key]))
            collisions += 1
        else:
            image_index[key] = mon
    bad = None
    for e in kernel_gens:
        if one_minus_z * e != e:
            bad = str(e)
            break
    expected_killed = sum(
        1 for mon in window if quotient_mon_view(mon).gen in ("b", "c")
    )
    counts_ok = (
        len(kernel_gens) == expected_killed + collisions
        and collisions == 2 * exp_range + 1
    )
    checks.append(
        Check("exactseq_kernel_is_offdiagonal_ideal", bad is None and counts_ok, witness=bad)
    )
    return checks


# ---------------------------------------------------------------------------
# The coaction diagram on the q-torus
# ---------------------------------------------------------------------------


class TorusCoaction:
    """The left coaction of the quotient algebra on the q-torus."""

    def __init__(self, mutation: str | None = None):
        self.alg = adtq(mutation)
        self.torus = at2q()
        a, b, c, d = (self.alg.gen(g) for g in "abcd")
        x = self.torus.gen("x")
        y = self.torus.gen("y")
        xi = self.torus.gen("x", -1)
        yi = self.torus.gen("y", -1)
        self._images = {
            "x": tensor_of([a, x]) + tensor_of([b, y]),
            "y": tensor_of([c, x]) + tensor_of([d, y]),
            "xinv": tensor_of([a.star(), xi]) + tensor_of([b.star(), yi]),
            "yinv": tensor_of([c.star(), xi]) + tensor_of([d.star(), yi]),
        }
        self._cache: dict = {(): tensor_of([self.alg.unit(), self.torus.unit()])}

    def of_mon(self, mon) -> TensorElement:
        return extend_letters(self._cache, self._images, mon)

    def of(self, e: Element) -> TensorElement:
        return TensorElement.combine(
            (self.alg, self.torus), ((self.of_mon(mon), c) for mon, c in e.terms.items())
        )


def torus_relation_defect(mutation: str | None = None) -> TensorElement:
    """rho(x) rho(y) - q rho(y) rho(x); zero iff the coaction is well-defined."""
    rho = TorusCoaction(mutation)
    rx, ry = rho._images["x"], rho._images["y"]
    return rx * ry - ry * rx * QScalar.q_power(1)


def verify_prop14_diagram(max_exp: int = 4, mutation: str | None = None) -> list[Check]:
    checks: list[Check] = []
    rho = TorusCoaction(mutation)
    torus = rho.torus

    defect = torus_relation_defect(mutation)
    if mutation is None:
        witness = None if defect.is_zero() else str(defect)
        checks.append(Check("diagram_relation_transported", defect.is_zero(), witness=witness))
    else:
        checks.append(
            Check(
                "diagram_mutation_detected",
                not defect.is_zero(),
                witness=None if defect.is_zero() else str(defect),
            )
        )
        return checks

    bad = next(
        (
            f"rho({g}) * rho({g}inv)"
            for g in ("x", "y")
            if rho._images[g] * rho._images[f"{g}inv"] != tensor_of([rho.alg.unit(), torus.unit()])
        ),
        None,
    )
    checks.append(Check("diagram_generator_images_unitary", bad is None, witness=bad))

    window = [
        torus.lattice_mon(i, j)
        for i in range(-max_exp, max_exp + 1)
        for j in range(-max_exp, max_exp + 1)
    ]
    coassoc_bad = counit_bad = proj_bad = star_bad = None
    for mon in window:
        image = rho.of_mon(mon)
        left = image.coproduct_leg(0)
        right = _apply_rho_right(image, rho)
        if left != right:
            coassoc_bad = coassoc_bad or torus.format_mon(mon)
        if image.counit_leg(0) != torus.monomial(mon):
            counit_bad = counit_bad or torus.format_mon(mon)
        classical = image.apply_leg(0, prj_mon, at2())
        i, j = torus.lattice_exponents(mon)
        expected = TensorElement(
            (at2(), torus), {(at2().lattice_mon(i, j), mon): ONE}
        )
        if classical != expected:
            proj_bad = proj_bad or torus.format_mon(mon)
        if rho.of(torus.monomial(mon).star()) != image.star_legs():
            star_bad = star_bad or torus.format_mon(mon)
    checks.append(Check("diagram_coaction_coassociative", coassoc_bad is None, witness=coassoc_bad))
    checks.append(Check("diagram_coaction_counit", counit_bad is None, witness=counit_bad))
    checks.append(Check("diagram_commutes_with_projection", proj_bad is None, witness=proj_bad))
    checks.append(Check("diagram_star_map", star_bad is None, witness=star_bad))
    return checks


def _apply_rho_right(t: TensorElement, rho: TorusCoaction) -> TensorElement:
    acc: dict = {}
    for (am, vm), c in t.terms.items():
        for (a2, v2), c2 in rho.of_mon(vm).terms.items():
            add_term(acc, (am, a2, v2), c * c2)
    return TensorElement((rho.alg, rho.alg, rho.torus), acc)


# ---------------------------------------------------------------------------
# The three consistency comparisons and the mandatory convention summary
# ---------------------------------------------------------------------------


def right_colinear_ok(k: int, l: int, conv: CleavingConvention) -> bool:
    alg, torus = adtq(), at2()
    j_el = cleaving_j_mon(k, l, conv)
    lifted = j_el.coproduct().apply_leg(1, prj_mon, torus)
    group_like = torus.lattice_mon(k, l)
    expected = TensorElement(
        (alg, torus), {(mon, group_like): c for mon, c in j_el.terms.items()}
    )
    return lifted == expected


def sigma_table_mismatch(conv: CleavingConvention, exp_range: int) -> str | None:
    """The first pair of group-likes where the cocycle table differs from
    j(h) j(g) j^{-1}(hg), or None when they agree on the range."""
    for k, l, m, n in itertools.product(range(-exp_range, exp_range + 1), repeat=4):
        try:
            direct = sigma_convolution(k, l, m, n, conv)
        except NotInBaseImage:
            return f"NotInBaseImage at (u^{k}v^{l}, u^{m}v^{n})"
        if direct != sigma_table(k, l, m, n):
            return f"value mismatch at ({k},{l},{m},{n})"
    return None


def cocleaving_table_mismatch(conv: CleavingConvention, exp_range: int) -> str | None:
    """The first window monomial where the cocleaving table differs from the
    map derived from the cleaving map, or None when they agree."""
    alg = adtq()
    for mon in enumerate_basis(alg, BasisWindow(d_max=exp_range, gen_max=exp_range)):
        try:
            same = ell_from_j_mon(mon, conv) == ell_table_mon(mon)
        except NotInBaseImage:
            same = False
        if not same:
            return alg.format_mon(mon)
    return None


def colinearity_failure(conv: CleavingConvention, exp_range: int) -> str | None:
    """The first group-like whose cleaving image is not right colinear."""
    for k, l in itertools.product(range(-exp_range, exp_range + 1), repeat=2):
        if not right_colinear_ok(k, l, conv):
            return f"u^{k}v^{l}"
    return None


CONVENTION_REPORT_RANGE = 2


def convention_report(convention_name: str = "corrected") -> dict:
    """The mandatory report section naming the active diagonal convention,
    from the three comparisons on the range ``CONVENTION_REPORT_RANGE``."""
    conv = convention(convention_name)
    r = CONVENTION_REPORT_RANGE
    return {
        "active": conv.name,
        "sigma_table_matches_convolution": sigma_table_mismatch(conv, r) is None,
        "cocleaving_table_matches_derived": cocleaving_table_mismatch(conv, r) is None,
        "right_colinearity": colinearity_failure(conv, r) is None,
    }
