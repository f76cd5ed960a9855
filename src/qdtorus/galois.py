"""Cleft extension apparatus: exact sequence, cleaving map, cocycle,
cocleaving, coaction, the bicross product and its isomorphism.

Two independent constructions exist for the cocycle (closed-form
``sigma_table`` vs ``sigma_convolution`` from the cleaving map), for the
cocleaving map (``ell_table_mon`` vs ``ell_from_j_mon``, the right-coaction
formula) and for the base coaction (``coaction_lambda_mon``, the closed swap
formula, vs ``coaction_lambda_from_ell``, the three-leg cocleaving formula);
the suites check they agree exactly.

The cleft maps j, Phi, Phi^-1, prj, inj and the convolution cocycle read
ADTq only through its lattice triples (``algebras.corner_coordinates`` and
``corner_element``); j's quantum corner is stated once, in
:func:`cleaving_twist`.  Its diagonal carries a convention toggle: the
``corrected`` convention is the unique choice consistent with the cocycle
table, the cocleaving table and right-colinearity; the ``printed`` variant
is kept behind the toggle to reproduce the documented discrepancy.
"""

from __future__ import annotations

import itertools
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
    corner_coordinates,
    corner_element,
    corner_product,
    corner_triples,
    enumerate_basis,
    extend_letters,
    tensor_of,
)
from .errors import NotInBaseImage, QdtError
from .report import Check, checks_from, detection
from .scalars import QScalar, add_term

ONE = QScalar.one()


CORRECTED = "corrected"
PRINTED = "printed"
CONVENTIONS = (CORRECTED, PRINTED)


def convention(name: str) -> str:
    """The cleaving convention ``name``, once it is known to be one of ``CONVENTIONS``."""
    if name not in CONVENTIONS:
        raise QdtError(f"unknown cleaving convention {name!r}; choose from {CONVENTIONS}")
    return name


# ---------------------------------------------------------------------------
# The cleaving map and its convolution inverse
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cleaving_twist(k: int, l: int, conv: str = CORRECTED) -> tuple:
    """j's quantum corner at u^k v^l as (triple, coefficient): (-1)^m q^(±m²)
    times (1, k, l), m = min(k, l), with the sign of k - l on m².  On the
    diagonal the printed convention moves the triple to (1, -k, -k)."""
    m = min(k, l)
    exponent = m * m if k > l else -m * m if k < l else 0
    if k == l:
        k = l = -k if conv == PRINTED else k
    return (1, k, l), QScalar.q_power(exponent, -1 if m % 2 else 1)


@lru_cache(maxsize=None)
def cleaving_j_mon(k: int, l: int, conv: str = CORRECTED) -> Element:
    """The section in the classical corner plus a twist in the quantum one:
    j(h) = Phi(1 ⊗ h)."""
    return phi_mon((0, k, l), conv) + phi_mon((1, k, l), conv)


def cleaving_j(h: Element, conv: str = CORRECTED) -> Element:
    return adtq().combine(
        (cleaving_j_mon(*at2().lattice_exponents(mon), conv), c)
        for mon, c in h.terms.items()
    )


@lru_cache(maxsize=None)
def cleaving_j_inverse_mon(k: int, l: int, conv: str = CORRECTED) -> Element:
    """j(h) is a unitary of its two corners, so its inverse is j(h)*."""
    return cleaving_j_mon(k, l, conv).star()


# ---------------------------------------------------------------------------
# Transport to and from the base algebra
# ---------------------------------------------------------------------------


def to_az2(e: Element) -> Element:
    """Read an element of span{z, 1 - z} as a function on the two-point group."""
    coords = corner_coordinates(e)
    if not coords.keys() <= {(0, 0, 0), (1, 0, 0)}:
        raise NotInBaseImage(f"not in the idempotent span: {e}")
    base = az2()
    return base.combine((base.delta(i), c) for (i, _, _), c in coords.items())


def inj_mon(mon) -> Element:
    """Inclusion of the base: d_i -> the unit of corner i (z and 1 - z)."""
    return corner_element({("d0",): 0, ("d1",): 1}[mon], 0, 0)


def prj_mon(mon) -> Element:
    """Projection to the diagonal torus: keep the classical corner, z -> 1."""
    torus = at2()
    return torus.combine(
        (torus.monomial(torus.lattice_mon(k, l)), None) for i, k, l in corner_triples(mon) if i == 0
    )


def prj(e: Element) -> Element:
    return at2().combine((prj_mon(mon), c) for mon, c in e.terms.items())


# ---------------------------------------------------------------------------
# The cocycle: closed-form table and convolution construction
# ---------------------------------------------------------------------------


def _coboundary_exponent(k: int, l: int) -> int:
    """f(k, l): -2kl below the diagonal k = l, -k^2 on it, 0 above it."""
    if k < l:
        return -2 * k * l
    return -k * k if k == l else 0


def sigma_q_exponent(k: int, l: int, m: int, n: int) -> int:
    """Exponent of q on the off-diagonal corner of the cocycle: the
    bicharacter -2kn plus the coboundary f(h) + f(g) - f(hg) of
    :func:`_coboundary_exponent`."""
    f = _coboundary_exponent
    return -2 * k * n + f(k, l) + f(m, n) - f(k + m, l + n)


def sigma_table(k: int, l: int, m: int, n: int) -> Element:
    return _sigma_of_exponent(sigma_q_exponent(k, l, m, n))


@lru_cache(maxsize=None)
def _sigma_of_exponent(e: int) -> Element:
    return _sigma_of_coefficient(QScalar.q_power(e))


@lru_cache(maxsize=None)
def _sigma_of_coefficient(coefficient: QScalar) -> Element:
    base = az2()
    return base.delta(0) + base.delta(1) * coefficient


def sigma_convolution(k: int, l: int, m: int, n: int, conv: str = CORRECTED) -> Element:
    """sigma(h, g) = j(h) j(g) j^{-1}(hg) for group-like arguments.

    The classical corner gives d0.  In the quantum one j(h) is c(h) times the
    triple t_h, so sigma is c(h) c(g) corner_product(t_h, t_g) / c(hg) on d1.
    Raises :class:`NotInBaseImage` when t_h + t_g is not t_hg (which is how
    the printed diagonal branch fails).
    """
    (th, ch), (tg, cg), (thg, chg) = (
        cleaving_twist(*h, conv) for h in ((k, l), (m, n), (k + m, l + n))
    )
    if (1, th[1] + tg[1], th[2] + tg[2]) != thg:
        raise NotInBaseImage(f"j(h) j(g) j*(hg) leaves the idempotent span: t_hg = {thg}")
    return _sigma_of_coefficient(ch * cg * corner_product(th, tg) * chg.inverse())


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

    def failures(k, l):
        lhs = exponent(k, l, m, n) + exponent(k + m, l + n, p, s)
        return (np.argwhere(lhs != right + exponent(k, l, m + p, n + s)) - r).tolist()

    failing = (
        f"(u^{k}v^{l}, u^{m0}v^{n0}, u^{p0}v^{s0})"
        for k, l in itertools.product(range(-r, r + 1), repeat=2)
        for m0, n0, p0, s0 in failures(k, l)
    )
    return checks_from({"cocycle_identity": failing})


# ---------------------------------------------------------------------------
# The cocleaving map
# ---------------------------------------------------------------------------


def ell_table_mon(mon) -> Element:
    """The cocleaving table on the triples of ``mon``: d0 on a classical
    triple, d1 (-1)^m q^(s m²) on a quantum triple (k, l), where
    m = min(k, l) and s is the sign of l - k."""
    base = az2()
    terms = []
    for corner, k, l in corner_triples(mon):
        m = min(k, l)
        s = (l > k) - (l < k)
        coeff = QScalar.q_power(s * m * m, (-1 if m % 2 else 1))
        terms.append((base.delta(1), coeff) if corner else (base.delta(0), None))
    return base.combine(terms)


def ell_table(e: Element) -> Element:
    return az2().combine((ell_table_mon(mon), c) for mon, c in e.terms.items())


def ell_from_j_mon(mon, conv: str = CORRECTED) -> Element:
    """The cocleaving map from the right coaction: p -> p_(0) j^{-1}(p_(1))."""
    alg = adtq()
    return to_az2(
        alg.combine(
            (alg.monomial(m1) * cleaving_j_inverse_mon(k, l, conv), c)
            for (m1, m2), c in alg.coproduct_mon(mon).terms.items()
            for i, k, l in corner_triples(m2)
            if i == 0
        )
    )


# ---------------------------------------------------------------------------
# The base coaction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def coaction_lambda_mon(k: int, l: int) -> TensorElement:
    """λ(u^k v^l) = u^k v^l ⊗ d0 + u^l v^k ⊗ d1, memoized per lattice point."""
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


def coaction_lambda_from_ell(k: int, l: int, conv: str = CORRECTED) -> TensorElement:
    """Derive the coaction through the three-leg cocleaving formula.

    Uses a section of the projection (a convenient preimage of each
    group-like) and the fact that the cocleaving map coincides with its own
    convolution inverse, which is checked separately.
    """
    alg, torus, base = adtq(), at2(), az2()
    acc: dict = {}
    for (m1, m2, m3), c in corner_element(0, k, l).coproduct().coproduct_leg(0).terms.items():
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

    def __init__(self, conv: str):
        self.conv = conv
        self.tag = f"BICROSS[{conv}]"

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

    @lru_cache(maxsize=None)
    def antipode_mon(self, mon) -> Element:
        return phi_inverse(phi_mon(mon, self.conv).antipode(), self.conv)

    @lru_cache(maxsize=None)
    def star_mon(self, mon) -> Element:
        return phi_inverse(phi_mon(mon, self.conv).star(), self.conv)

    def format_mon(self, mon) -> str:
        i, k, l = mon
        return f"d{i}⊗{at2().format_mon(at2().lattice_mon(k, l))}"

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
def build_bicross_product(convention_name: str = CORRECTED) -> BicrossAlgebra:
    return BicrossAlgebra(convention(convention_name))


# -- the isomorphism ---------------------------------------------------------


def phi_mon(mon, conv: str = CORRECTED) -> Element:
    """Phi(d_i ⊗ u^k v^l): the corner-i part of j(u^k v^l)."""
    i, k, l = mon
    if i == 0:
        return corner_element(0, k, l)
    triple, c = cleaving_twist(k, l, conv)
    return corner_element(*triple) * c


def phi(e: Element, conv: str = CORRECTED) -> Element:
    return adtq().combine((phi_mon(mon, conv), c) for mon, c in e.terms.items())


def phi_inverse(e: Element, conv: str = CORRECTED) -> Element:
    """Inverse of Phi: the corner coordinates of e divided by the twist.
    The twist moves quantum triples by an involution, so each is the image
    of its own twist triple."""
    acc: dict = {}
    for (i, k, l), c in corner_coordinates(e).items():
        if i:
            (_, k, l), _ = cleaving_twist(k, l, conv)
            c = c * cleaving_twist(k, l, conv)[1].inverse()
        acc[(i, k, l)] = c
    return Element(build_bicross_product(conv), acc)


# ---------------------------------------------------------------------------
# Hopf *-maps and the exact sequence checks
# ---------------------------------------------------------------------------


def hopf_star_map_failures(f_mon, target, items: list) -> dict:
    """One lazy scan per law of a Hopf *-map (``coproduct``, ``counit``,
    ``antipode``, ``star``): the names of the (name, element) pairs of
    ``items`` at which f, given on monomials, breaks that law."""

    def f(e: Element) -> Element:
        return target.combine((f_mon(m), c) for m, c in e.terms.items())

    laws = {
        "coproduct": lambda x: f(x).coproduct()
        == x.coproduct().apply_leg(0, f_mon, target).apply_leg(1, f_mon, target),
        "counit": lambda x: f(x).counit() == target.canon_scalar(x.counit()),
        "antipode": lambda x: f(x).antipode() == f(x.antipode()),
        "star": lambda x: f(x).star() == f(x.star()),
    }

    def scan(holds):
        return (name for name, x in items if not holds(x))

    return {law: scan(holds) for law, holds in laws.items()}


def law_witnesses(scans: dict):
    """The failures of :func:`hopf_star_map_failures` as ``law at name``, law by law."""
    return (f"{law} at {name}" for law, names in scans.items() for name in names)


def verify_exact_sequence(exp_range: int) -> list[Check]:
    alg, torus, base = adtq(), at2(), az2()
    base_mons = (("d0",), ("d1",))
    images = [inj_mon(mon) for mon in base_mons]
    window = enumerate_basis(alg, BasisWindow(d_max=exp_range, gen_max=exp_range))
    lattice = itertools.product(range(-exp_range, exp_range + 1), repeat=2)

    # kernel on the window: exactly the off-diagonal corner, i.e. the ideal
    # generated by z - 1; every killed vector satisfies e = (1-z) e
    one_minus_z = alg.unit() - alg.gen("z")
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
    counts = (len(kernel_gens) - collisions, collisions)
    # the window's 2r(2r+1) runs of b and c, and its 2r+1 diagonal pairs
    width = 2 * exp_range + 1
    expected = ((width - 1) * width, width)
    miscounted = [] if counts == expected else [f"(killed, collisions) = {counts}, not {expected}"]
    injective = images[0] != images[1] and not images[0].is_zero()
    named_base = [(base.format_mon(m), base.monomial(m)) for m in base_mons]
    named = [(alg.format_mon(m), alg.monomial(m)) for m in window]
    return checks_from({
        "exactseq_i_injective": [] if injective else [f"i(d0) = {images[0]}, i(d1) = {images[1]}"],
        "exactseq_i_hopf_star_map": law_witnesses(hopf_star_map_failures(inj_mon, alg, named_base)),
        "exactseq_prj_hopf_star_map": law_witnesses(hopf_star_map_failures(prj_mon, torus, named)),
        "exactseq_prj_after_i_is_unit_counit": (
            base.format_mon(mon)
            for mon in base_mons
            if prj(inj_mon(mon)) != torus.unit() * base.counit_mon(mon)
        ),
        # surjectivity via explicit preimages: u^k v^l is the image of its section
        "exactseq_prj_surjective": (
            f"u^{k}v^{l}"
            for k, l in lattice
            if prj(corner_element(0, k, l)) != torus.monomial(torus.lattice_mon(k, l))
        ),
        "exactseq_kernel_is_offdiagonal_ideal": itertools.chain(
            (str(e) for e in kernel_gens if one_minus_z * e != e), miscounted
        ),
    })


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
        self.images = {
            "x": tensor_of([a, x]) + tensor_of([b, y]),
            "y": tensor_of([c, x]) + tensor_of([d, y]),
            "xinv": tensor_of([a.star(), xi]) + tensor_of([b.star(), yi]),
            "yinv": tensor_of([c.star(), xi]) + tensor_of([d.star(), yi]),
        }
        self._cache: dict = {(): tensor_of([self.alg.unit(), self.torus.unit()])}

    def of_mon(self, mon) -> TensorElement:
        return extend_letters(self._cache, self.images, mon)

    def of(self, e: Element) -> TensorElement:
        return TensorElement.combine(
            (self.alg, self.torus), ((self.of_mon(mon), c) for mon, c in e.terms.items())
        )


def torus_relation_defect(mutation: str | None = None) -> TensorElement:
    """rho(x) rho(y) - q rho(y) rho(x); zero iff the coaction is well-defined."""
    rho = TorusCoaction(mutation)
    rx, ry = rho.images["x"], rho.images["y"]
    return rx * ry - ry * rx * QScalar.q_power(1)


def verify_prop14_diagram(max_exp: int, mutation: str | None = None) -> list[Check]:
    rho = TorusCoaction(mutation)
    torus = rho.torus
    defect = torus_relation_defect(mutation)
    if mutation is not None:
        found = [] if defect.is_zero() else [str(defect)]
        scanned = f"rho(x)rho(y) - q rho(y)rho(x) under {mutation}"
        return [detection("diagram_mutation_detected", found, scanned)]

    span = range(-max_exp, max_exp + 1)
    window = [torus.lattice_mon(k, l) for k, l in itertools.product(span, span)]
    unit = tensor_of([rho.alg.unit(), torus.unit()])

    def classical(mon) -> TensorElement:
        """What the quotient leg of rho(mon) must project to."""
        return TensorElement(
            (at2(), torus), {(at2().lattice_mon(*torus.lattice_exponents(mon)), mon): ONE}
        )

    fmt, of_mon = torus.format_mon, rho.of_mon
    return checks_from({
        "diagram_relation_transported": [] if defect.is_zero() else [str(defect)],
        "diagram_generator_images_unitary": (
            f"rho({g}) * rho({g}inv)"
            for g in ("x", "y")
            if rho.images[g] * rho.images[f"{g}inv"] != unit
        ),
        "diagram_coaction_coassociative": (
            fmt(mon)
            for mon in window
            if of_mon(mon).coproduct_leg(0) != of_mon(mon).expand_leg(1, of_mon, (rho.alg, torus))
        ),
        "diagram_coaction_counit": (
            fmt(mon) for mon in window if of_mon(mon).counit_leg(0) != torus.monomial(mon)
        ),
        "diagram_commutes_with_projection": (
            fmt(mon) for mon in window if of_mon(mon).apply_leg(0, prj_mon, at2()) != classical(mon)
        ),
        "diagram_star_map": (
            fmt(mon)
            for mon in window
            if rho.of(torus.monomial(mon).star()) != of_mon(mon).star_legs()
        ),
    })


# ---------------------------------------------------------------------------
# The three consistency comparisons and the mandatory convention summary
# ---------------------------------------------------------------------------


def right_colinear_ok(k: int, l: int, conv: str) -> bool:
    alg, torus = adtq(), at2()
    j_el = cleaving_j_mon(k, l, conv)
    lifted = j_el.coproduct().apply_leg(1, prj_mon, torus)
    group_like = torus.lattice_mon(k, l)
    expected = TensorElement(
        (alg, torus), {(mon, group_like): c for mon, c in j_el.terms.items()}
    )
    return lifted == expected


def sigma_table_mismatches(conv: str, exp_range: int):
    """The pairs of group-likes where the cocycle table differs from
    j(h) j(g) j^{-1}(hg), as a scan of witnesses."""
    for k, l, m, n in itertools.product(range(-exp_range, exp_range + 1), repeat=4):
        try:
            direct = sigma_convolution(k, l, m, n, conv)
        except NotInBaseImage:
            yield f"NotInBaseImage at (u^{k}v^{l}, u^{m}v^{n})"
            continue
        if direct != sigma_table(k, l, m, n):
            yield f"value mismatch at ({k},{l},{m},{n})"


def cocleaving_table_mismatches(conv: str, exp_range: int):
    """The window monomials where the cocleaving table differs from the map
    derived from the cleaving map, as a scan of witnesses."""
    alg = adtq()
    for mon in enumerate_basis(alg, BasisWindow(d_max=exp_range, gen_max=exp_range)):
        try:
            same = ell_from_j_mon(mon, conv) == ell_table_mon(mon)
        except NotInBaseImage:
            same = False
        if not same:
            yield alg.format_mon(mon)


def colinearity_failures(conv: str, exp_range: int):
    """The group-likes whose cleaving image is not right colinear, as a scan
    of witnesses."""
    for k, l in itertools.product(range(-exp_range, exp_range + 1), repeat=2):
        if not right_colinear_ok(k, l, conv):
            yield f"u^{k}v^{l}"


CONVENTION_REPORT_RANGE = 2

# the report keys of the three comparisons, in the order of their scans
CONVENTION_COMPARISONS = (
    "sigma_table_matches_convolution",
    "cocleaving_table_matches_derived",
    "right_colinearity",
)


def convention_report(convention_name: str = CORRECTED) -> dict:
    """The mandatory report section naming the active diagonal convention,
    from the three comparisons on the range ``CONVENTION_REPORT_RANGE``."""
    conv = convention(convention_name)
    r = CONVENTION_REPORT_RANGE
    scans = (sigma_table_mismatches, cocleaving_table_mismatches, colinearity_failures)
    matches = (next(scan(conv, r), None) is None for scan in scans)
    return {"active": conv} | dict(zip(CONVENTION_COMPARISONS, matches))
