"""Presentations and normal forms of the six algebras, and ADTq's basis window.

The two q-deformed coordinate rings (the parent unitary quantum group and
its double-torus quotient) are presented on the alphabet
``Dinv < D < z < a < d < b < c`` with a graded lexicographic order; the
rewrite rules orient every defining relation toward the published basis
patterns (powers of the quantum determinant, the central idempotent
witness z, then a single run of a / d and a single run of b / c).  The
classical torus, the base Z2 function algebra, the q-torus comodule algebra
and the finite root-of-unity quotients are presented on their own alphabets.
The double-torus quotient multiplies monomials in closed form on its two
lattice corners (:class:`DoubleTorusAlgebra`); every other algebra
multiplies by rewriting.  Only this module spells ADTq's normal words; the
others read ADTq through its lattice triples (:func:`corner_triples`).

Elements are finite linear combinations of irreducible words with exact
Laurent-polynomial coefficients.  Each structure map of a word algebra is
one letter table of normalized images (a tensor for the coproduct, a scalar
for the counit, an element each for the antipode and the involution),
written down as formulas on the letters and extended to words by
:func:`extend_letters`; the hopf suite proves that the tables respect every
relation.  All algebra objects are immutable after construction and cache
aggressively; they are safe to share between threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import product as iproduct
from typing import Iterable, Sequence

from .errors import (
    CrossAlgebraMix,
    InvalidExponent,
    NotAHopfAlgebra,
    QdtError,
    RootConditionViolated,
    UnknownGenerator,
)
from .scalars import (
    CyclotomicMode,
    QScalar,
    add_scaled,
    add_term,
    keep_scalar,
    settle,
)
from .words import RewriteRule, RewriteSystem, Word

ONE = QScalar.one()
Q = QScalar.q_power(1)
QI = QScalar.q_power(-1)


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


class Element:
    """A finite combination of normal-form monomials of one algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "Algebra", terms: dict):
        canon = {}
        for m, c in terms.items():
            c = algebra.canon_scalar(QScalar.of(c))
            if c:
                canon[m] = c
        self.algebra = algebra
        self.terms = canon

    @classmethod
    def _canonical(cls, algebra: "Algebra", terms: dict) -> "Element":
        """Wrap terms that are already canonical, skipping the coercion."""
        e = cls.__new__(cls)
        e.algebra = algebra
        e.terms = terms
        return e

    # -- basics ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mon) -> QScalar:
        return self.terms.get(mon, QScalar.zero())

    def map_scalars(self, fn) -> "Element":
        acc = {m: fn(c) for m, c in self.terms.items()}
        return Element._canonical(self.algebra, settle(acc, self.algebra.canon_scalar))

    def _check_peer(self, other: "Element"):
        if self.algebra is not other.algebra:
            raise CrossAlgebraMix(
                f"cannot mix {self.algebra.tag} with {other.algebra.tag}"
            )

    # -- ring structure ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Element):
            other = self.algebra.unit() * QScalar.of(other)
        return self.algebra.combine(((self, None), (other, None)))

    __radd__ = __add__

    def __neg__(self):
        # negation keeps canonical scalars canonical
        return Element._canonical(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Element):
            other = self.algebra.unit() * QScalar.of(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Element):  # scalars commute with everything
            other = QScalar.of(other)
            return self.map_scalars(lambda c: c * other)
        self._check_peer(other)
        mul_mon = self.algebra.mul_mon
        if len(self.terms) == 1 and len(other.terms) == 1:
            ((m1, c1),) = self.terms.items()
            ((m2, c2),) = other.terms.items()
            hit = mul_mon(m1, m2)
            c = c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2
            # the shared memo entry, which nothing mutates, or its settled rescaling
            return hit if c is ONE or c == ONE else hit.map_scalars(lambda x: x * c)
        return self.algebra.combine(
            (mul_mon(m1, m2), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InvalidExponent("negative powers of general elements")
        out = self.algebra.unit()
        for _ in range(n):
            out = out * self
        return out

    # -- Hopf / star convenience (delegates to the algebra) ----------------

    def star(self) -> "Element":
        alg = self.algebra
        return alg.combine((alg.star_mon(m), c.star()) for m, c in self.terms.items())

    def coproduct(self) -> "TensorElement":
        alg = self.algebra
        return TensorElement.combine(
            (alg, alg), ((alg.coproduct_mon(m), c) for m, c in self.terms.items())
        )

    def counit(self) -> QScalar:
        total = QScalar.zero()
        for m, c in self.terms.items():
            total = total + c * self.algebra.counit_mon(m)
        return self.algebra.canon_scalar(total)

    def antipode(self) -> "Element":
        alg = self.algebra
        return alg.combine((alg.antipode_mon(m), c) for m, c in self.terms.items())

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Element):
            if not isinstance(other, (int, Fraction, QScalar)):
                return NotImplemented
            other = self.algebra.unit() * QScalar.of(other)
        if self.algebra is not other.algebra:
            raise CrossAlgebraMix(
                f"comparing {self.algebra.tag} with {other.algebra.tag}"
            )
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.algebra.tag, frozenset(self.terms.items())))

    def __repr__(self):
        return f"<{self.algebra.tag}: {self}>"

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=self.algebra.mon_sort_key)
        parts = []
        for m in keys:
            parts.append(_format_scaled_mon(self.algebra, m, self.terms[m], not parts))
        return "".join(parts)


def _format_scaled_mon(algebra, mon, coeff: QScalar, first: bool) -> str:
    mon_str = algebra.format_mon(mon) if mon else ""
    chunks = []
    for k, c in coeff.items():
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        factors = []
        if mag != 1 or (k == 0 and not mon_str):
            factors.append(str(mag))
        if k:
            factors.append("q" if k == 1 else f"q^{k}")
        if mon_str:
            factors.append(mon_str)
        body = "*".join(factors) or "1"
        if first and not chunks:
            chunks.append(body if sign == "+" else f"-{body}")
        else:
            chunks.append(f" {sign} {body}")
    return "".join(chunks)


class TensorElement:
    """Rank-2 or rank-3 tensor with one algebra per leg; only rank 2 multiplies."""

    __slots__ = ("legs", "terms")

    def __init__(self, legs: tuple, terms: dict):
        canon = {}
        canon_scalar = legs[0].canon_scalar
        for key, c in terms.items():
            c = canon_scalar(QScalar.of(c))
            if c:
                canon[key] = c
        self.legs = tuple(legs)
        self.terms = canon

    @classmethod
    def _settled(cls, legs: tuple, acc: dict) -> "TensorElement":
        """Canonicalise a raw combination once per key and wrap it."""
        t = cls.__new__(cls)
        t.legs = tuple(legs)
        t.terms = settle(acc, legs[0].canon_scalar)
        return t

    @classmethod
    def combine(cls, legs: tuple, pairs) -> "TensorElement":
        """sum(coeff * tensor) over (tensor, coeff) pairs, all on ``legs``;
        a coeff of None stands for 1."""
        acc: dict = {}
        for t, coeff in pairs:
            if t.legs != legs:
                raise CrossAlgebraMix("tensor legs differ")
            add_scaled(acc, t.terms, coeff)
        return cls._settled(legs, acc)

    @property
    def rank(self) -> int:
        return len(self.legs)

    def _check_peer(self, other: "TensorElement"):
        if self.legs != other.legs:
            raise CrossAlgebraMix("tensor legs differ")

    def __add__(self, other):
        return TensorElement.combine(self.legs, ((self, None), (other, None)))

    def __sub__(self, other):
        return self + other * QScalar.of(-1)

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return TensorElement.combine(self.legs, ((self, QScalar.of(other)),))
        self._check_peer(other)
        if len(self.legs) != 2:
            raise CrossAlgebraMix(f"tensor products need rank 2, not rank {len(self.legs)}")
        # one loop over the terms of the two legs' monomial products
        acc: dict = {}
        get = acc.get
        mul0, mul1 = self.legs[0].mul_mon, self.legs[1].mul_mon
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                c = c1 * c2
                right = mul1(b1, b2).terms.items()
                for ma, ca in mul0(a1, a2).terms.items():
                    cca = c * ca
                    for mb, cb in right:
                        key, v = (ma, mb), cca * cb
                        prev = get(key)
                        acc[key] = v if prev is None else prev + v
        return TensorElement._settled(self.legs, acc)

    __rmul__ = __mul__

    def apply_leg(self, i: int, fn, new_algebra) -> "TensorElement":
        """Map leg i monomials through a linear map given on monomials."""
        legs = list(self.legs)
        legs[i] = new_algebra
        acc: dict = {}
        for key, c in self.terms.items():
            for m, ci in fn(key[i]).terms.items():
                add_term(acc, key[:i] + (m,) + key[i + 1 :], c * ci)
        return TensorElement._settled(tuple(legs), acc)

    def expand_leg(self, i: int, fn, legs: tuple) -> "TensorElement":
        """Replace leg i by ``legs`` through a linear map given on monomials
        whose images are tensors on ``legs``."""
        acc: dict = {}
        for key, c in self.terms.items():
            for keys, ci in fn(key[i]).terms.items():
                add_term(acc, key[:i] + keys + key[i + 1 :], c * ci)
        return TensorElement._settled(self.legs[:i] + legs + self.legs[i + 1 :], acc)

    def coproduct_leg(self, i: int) -> "TensorElement":
        """Replace leg i by its coproduct, increasing the rank by one."""
        leg = self.legs[i]
        return self.expand_leg(i, leg.coproduct_mon, (leg, leg))

    def counit_leg(self, i: int):
        """Contract leg i with the counit; returns a lower-rank tensor or Element."""
        leg = self.legs[i]
        legs = self.legs[:i] + self.legs[i + 1 :]
        acc: dict = {}
        for key, c in self.terms.items():
            eps = leg.counit_mon(key[i])
            if not eps.is_zero():
                add_term(acc, key[:i] + key[i + 1 :], c * eps)
        if len(legs) == 1:
            return Element(legs[0], {k[0]: c for k, c in acc.items()})
        return TensorElement._settled(legs, acc)

    def star_legs(self) -> "TensorElement":
        """(* tensor ... tensor *) with the antilinear scalar conjugation."""
        acc: dict = {}
        for key, c in self.terms.items():
            legs_els = [leg.star_mon(m) for leg, m in zip(self.legs, key)]
            _tensor_accumulate(acc, legs_els, c.star())
        return TensorElement._settled(self.legs, acc)

    def multiply_legs(self) -> Element:
        """For rank 2 over one algebra: the multiplication map m(x tensor y)."""
        if self.rank != 2 or self.legs[0] is not self.legs[1]:
            raise CrossAlgebraMix("multiplication needs both legs in one algebra")
        alg = self.legs[0]
        return alg.combine(
            (alg.mul_mon(m1, m2), c) for (m1, m2), c in self.terms.items()
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.legs == other.legs and self.terms == other.terms

    def __hash__(self):
        return hash((tuple(l.tag for l in self.legs), frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda k: tuple(map(str, k))):
            mon = " ⊗ ".join(leg.format_mon(m) for leg, m in zip(self.legs, key))
            scal = self.terms[key]
            prefix = "" if not parts else " + "
            parts.append(f"{prefix}({scal})·{mon}")
        return "".join(parts)

    __repr__ = __str__


def _tensor_accumulate(acc: dict, legs_els: list[Element], coeff: QScalar):
    """Add coeff * (e_1 tensor ... tensor e_r) into a raw combination."""
    for combo in iproduct(*(el.terms.items() for el in legs_els)):
        c = coeff
        for _, ci in combo:
            c = c * ci
        add_term(acc, tuple(m for m, _ in combo), c)


def tensor_of(elements: Sequence[Element]) -> TensorElement:
    acc: dict = {}
    _tensor_accumulate(acc, list(elements), ONE)
    return TensorElement._settled(tuple(e.algebra for e in elements), acc)


def extend_letters(cache: dict, letters: dict, word, anti: bool = False):
    """The image of ``word`` under the map given on letters by ``letters``.

    The map is multiplicative, or with ``anti`` antimultiplicative
    (S(xw) = S(w)S(x)).  ``cache`` holds the images of the words met so far
    and starts with the image of the empty word.
    """
    hit = cache.get(word)
    if hit is None:
        if anti:
            hit = extend_letters(cache, letters, word[1:], True) * letters[word[0]]
        else:
            hit = extend_letters(cache, letters, word[:-1]) * letters[word[-1]]
        cache[word] = hit
    return hit


# ---------------------------------------------------------------------------
# Algebra base and word algebras
# ---------------------------------------------------------------------------

_INV_LETTER = {"D": "Dinv", "u": "uinv", "v": "vinv", "x": "xinv", "y": "yinv"}
_BASE_OF_INV = {v: k for k, v in _INV_LETTER.items()}


class Algebra:
    tag: str = "?"
    is_hopf: bool = True

    canon_scalar = staticmethod(keep_scalar)

    # subclasses provide: unit, zero, mul_mon, coproduct_mon, counit_mon,
    # antipode_mon, star_mon, format_mon, mon_sort_key

    def zero(self) -> Element:
        return Element(self, {})

    def monomial(self, mon, coeff=1) -> Element:
        c = self.canon_scalar(QScalar.of(coeff))
        return Element._canonical(self, {mon: c} if c else {})

    def combine(self, pairs) -> Element:
        """sum(coeff * element) over (element, coeff) pairs of this algebra.

        A coeff of None stands for 1.  The sum is canonicalised once per
        monomial, not after every step.
        """
        acc: dict = {}
        for el, coeff in pairs:
            if el.algebra is not self:
                raise CrossAlgebraMix(f"cannot mix {self.tag} with {el.algebra.tag}")
            add_scaled(acc, el.terms, coeff)
        return Element._canonical(self, settle(acc, self.canon_scalar))

    def _not_hopf(self):
        raise NotAHopfAlgebra(f"{self.tag} carries no coproduct")


class WordAlgebra(Algebra):
    """An algebra presented by a confluence-checked rewrite system."""

    def __init__(
        self,
        tag: str,
        system: RewriteSystem,
        generator_names: Sequence[str],
    ):
        self.tag = tag
        self.system = system
        self.generator_names = tuple(generator_names)
        self.canon_scalar = system.scalar_canon
        self._mul_cache: dict = {}
        self._gen_cache: dict = {}
        # letter tables of normalized images, and the images of words met so far
        self._cop_letter: dict[str, TensorElement] = {}
        self._counit_letter: dict[str, QScalar] = {}
        self._antipode_letter: dict[str, Element] = {}
        self._star_letter: dict[str, Element] = {}
        self._cop_cache: dict = {(): TensorElement((self, self), {((), ()): ONE})}
        self._antipode_cache: dict = {(): self.unit()}
        self._star_cache: dict = {(): self.unit()}

    @property
    def is_hopf(self) -> bool:
        return bool(self._cop_letter)

    # -- element construction ---------------------------------------------

    def unit(self) -> Element:
        return Element(self, {(): ONE})

    def element_from_combo(self, combo: dict) -> Element:
        return Element(self, self._post_combo(combo))

    def _post_combo(self, combo: dict) -> dict:
        return combo

    def normalize_word(self, word: Iterable[str]) -> Element:
        word = tuple(word)
        for x in word:
            if x not in self.system._rank:
                raise UnknownGenerator(f"{x!r} is not a generator of {self.tag}")
        return self.element_from_combo(self.system.normalize(word))

    def gen(self, name: str, power: int = 1) -> Element:
        key = (name, power)
        hit = self._gen_cache.get(key)
        if hit is None:
            hit = self._gen_cache[key] = self.normalize_word(self.gen_word(name, power))
        return hit

    def gen_word(self, name: str, power: int = 1) -> Word:
        if name not in self.generator_names:
            raise UnknownGenerator(f"{name!r} is not a generator of {self.tag}")
        letter = name
        if power < 0:
            letter = _INV_LETTER.get(name) or _BASE_OF_INV.get(name)
            if letter is None or letter not in self.system._rank:
                raise InvalidExponent(f"{name} has no inverse in {self.tag}")
        try:
            return (letter,) * abs(power)
        except (OverflowError, MemoryError):
            raise InvalidExponent(f"{name}^{power} is too long a word to build") from None

    # -- multiplication ------------------------------------------------------

    def mul_mon(self, m1: Word, m2: Word) -> Element:
        key = (m1, m2)
        hit = self._mul_cache.get(key)
        if hit is None:
            hit = self._multiply(m1, m2)
            self._mul_cache[key] = hit
        return hit

    def _multiply(self, m1: Word, m2: Word) -> Element:
        """The product of two normal monomials, computed on a cache miss."""
        return self.element_from_combo(self.system.normalize(m1 + m2))

    # -- Hopf structure, extended from letter tables ---------------------------

    def _install_hopf_letter(self, letter, cop, counit, antipode, star):
        """Normalize the images of one letter into the structure-map tables."""
        self._cop_letter[letter] = TensorElement.combine(
            (self, self),
            (
                (tensor_of([self.normalize_word(w1), self.normalize_word(w2)]), QScalar.of(c))
                for c, w1, w2 in cop
            ),
        )
        self._counit_letter[letter] = self.canon_scalar(QScalar.of(counit))
        for table, image in ((self._antipode_letter, antipode), (self._star_letter, star)):
            table[letter] = self.combine((self.normalize_word(w), QScalar.of(c)) for c, w in image)

    def coproduct_mon(self, mon: Word) -> TensorElement:
        if not self.is_hopf:
            self._not_hopf()
        return extend_letters(self._cop_cache, self._cop_letter, mon)

    def counit_mon(self, mon: Word) -> QScalar:
        if not self.is_hopf:
            self._not_hopf()
        total = ONE
        for x in mon:
            total = total * self._counit_letter[x]
            if total.is_zero():
                break
        return self.canon_scalar(total)

    def antipode_mon(self, mon: Word) -> Element:
        if not self.is_hopf:
            self._not_hopf()
        return extend_letters(self._antipode_cache, self._antipode_letter, mon, anti=True)

    def star_mon(self, mon: Word) -> Element:
        return extend_letters(self._star_cache, self._star_letter, mon, anti=True)

    # -- display / enumeration ------------------------------------------------

    def format_mon(self, mon: Word) -> str:
        if not mon:
            return "1"
        parts = []
        i = 0
        while i < len(mon):
            j = i
            while j < len(mon) and mon[j] == mon[i]:
                j += 1
            parts.append(mon[i] if j - i == 1 else f"{mon[i]}^{j - i}")
            i = j
        return "*".join(parts)

    def mon_sort_key(self, mon: Word):
        return self.system.order_key(mon)

    def basis_by_degree(self, max_len: int) -> list[Word]:
        return self.system.normal_words_by_degree(max_len)


# ---------------------------------------------------------------------------
# The concrete presentations
# ---------------------------------------------------------------------------

_QG_LETTERS = ("Dinv", "D", "z", "a", "d", "b", "c")


def _qg_base_rules() -> list[RewriteRule]:
    r = RewriteRule
    one = ONE
    rules = [
        r(("D", "Dinv"), ((one, ()),)),
        r(("Dinv", "D"), ((one, ()),)),
        r(("z", "Dinv"), ((one, ("Dinv", "z")),)),
        r(("z", "D"), ((one, ("D", "z")),)),
        r(("a", "Dinv"), ((one, ("Dinv", "a")),)),
        r(("a", "D"), ((one, ("D", "a")),)),
        r(("a", "z"), ((one, ("z", "a")),)),
        r(("d", "Dinv"), ((one, ("Dinv", "d")),)),
        r(("d", "D"), ((one, ("D", "d")),)),
        r(("d", "z"), ((one, ("z", "d")),)),
        r(("b", "Dinv"), ((QScalar.q_power(-2), ("Dinv", "b")),)),
        r(("b", "D"), ((QScalar.q_power(2), ("D", "b")),)),
        r(("b", "z"), ((one, ("z", "b")),)),
        r(("c", "Dinv"), ((QScalar.q_power(2), ("Dinv", "c")),)),
        r(("c", "D"), ((QScalar.q_power(-2), ("D", "c")),)),
        r(("c", "z"), ((one, ("z", "c")),)),
        r(("a", "d"), ((one, ("D", "z")),)),
        r(("d", "a"), ((one, ("D", "z")),)),
        r(("b", "a"), ((Q, ("a", "b")),)),
        r(("c", "a"), ((QI, ("a", "c")),)),
        r(("b", "d"), ((Q, ("d", "b")),)),
        r(("c", "d"), ((QI, ("d", "c")),)),
        r(("b", "c"), ((Q, ("D", "z")), (-Q, ("D",)))),
        r(("c", "b"), ((QI, ("D", "z")), (-QI, ("D",)))),
    ]
    return rules


def _quotient_extra_rules() -> list[RewriteRule]:
    r = RewriteRule
    one = ONE
    return [
        r(("a", "b"), ()),
        r(("a", "c"), ()),
        r(("d", "b"), ()),
        r(("d", "c"), ()),
        r(("z", "z"), ((one, ("z",)),)),
        r(("z", "a"), ((one, ("a",)),)),
        r(("z", "d"), ((one, ("d",)),)),
        r(("z", "b"), ()),
        r(("z", "c"), ()),
    ]


_Z_DEFINING = ("Dinv", "a", "d")  # z is the determinant-normalised diagonal ad

# the letter images of the Hopf *-structure; z's are computed from Dinv*a*d
_QG_COPRODUCT = {
    "Dinv": [(1, ("Dinv",), ("Dinv",))],
    "D": [(1, ("D",), ("D",))],
    "a": [(1, ("a",), ("a",)), (1, ("b",), ("c",))],
    "b": [(1, ("a",), ("b",)), (1, ("b",), ("d",))],
    "c": [(1, ("c",), ("a",)), (1, ("d",), ("c",))],
    "d": [(1, ("c",), ("b",)), (1, ("d",), ("d",))],
}

_QG_COUNIT = {"Dinv": 1, "D": 1, "a": 1, "d": 1, "b": 0, "c": 0}

_QG_ANTIPODE = {
    "Dinv": [(1, ("D",))],
    "D": [(1, ("Dinv",))],
    "a": [(1, ("Dinv", "d"))],
    "b": [(-QI, ("Dinv", "b"))],
    "c": [(-Q, ("Dinv", "c"))],
    "d": [(1, ("Dinv", "a"))],
}

# the compact real form: * is S with the images of b and c swapped
_QG_STAR = {**_QG_ANTIPODE, "b": _QG_ANTIPODE["c"], "c": _QG_ANTIPODE["b"]}


class QGroupAlgebra(WordAlgebra):
    """Shared machinery for the parent quantum group and its quotient."""

    def __init__(self, tag, rules):
        system = RewriteSystem(_QG_LETTERS, rules)
        super().__init__(tag, system, generator_names=("a", "b", "c", "d", "D", "Dinv", "z"))
        for letter, cop in _QG_COPRODUCT.items():
            self._install_hopf_letter(
                letter, cop, _QG_COUNIT[letter], _QG_ANTIPODE[letter], _QG_STAR[letter]
            )
        for table, extend in (
            (self._cop_letter, self.coproduct_mon),
            (self._counit_letter, self.counit_mon),
            (self._antipode_letter, self.antipode_mon),
            (self._star_letter, self.star_mon),
        ):
            table["z"] = extend(_Z_DEFINING)


# The lattice step of each generator run and its corner: 0 is the classical
# corner z, 1 the quantum corner 1 - z.  Each corner's run for k < l and k > l.
_RUN_STEP = {"a": (0, 1, 0), "d": (0, 0, 1), "c": (1, 1, 0), "b": (1, 0, 1)}
_CORNER_RUNS = (("d", "a"), ("b", "c"))


@lru_cache(maxsize=None)
def corner_triples(mon: Word) -> tuple[tuple[int, int, int], ...]:
    """The lattice triples (corner, k, l) of a normal ADTq monomial.

    D^m a^n, D^m z and D^m d^n lie in the classical corner at (m + n, m),
    (m, m) and (m, m + n); D^m c^n and D^m b^n in the quantum corner at
    (m + n, m) and (m, m + n); D^m = D^m z + D^m (1 - z) lies in both.
    A word with two run letters is no normal monomial: ``ValueError``.
    """
    m = mon.count("D") - mon.count("Dinv")
    runs = set(mon) - {"D", "Dinv", "z"}
    if not runs:
        return ((0, m, m),) if "z" in mon else ((0, m, m), (1, m, m))
    if len(runs) > 1:
        raise ValueError(f"not a normal ADTq monomial: {mon}")
    (gen,) = runs
    corner, dk, dl = _RUN_STEP[gen]
    n = mon.count(gen)
    return ((corner, m + dk * n, m + dl * n),)


def corner_word(corner: int, k: int, l: int) -> Word:
    """The normal word of the triple (corner, k, l); on the diagonal it is
    D^k z in the classical corner and D^k, read as D^k (1 - z), in the
    quantum one."""
    if k == l:
        return quotient_mon_word(k, z=not corner)
    return quotient_mon_word(min(k, l), gen=_CORNER_RUNS[corner][k > l], n=abs(k - l))


def _corner_terms(corner: int, k: int, l: int) -> dict:
    """The word of one lattice triple; D^k (1 - z) on the quantum diagonal.
    ``_multiply`` runs while ``adtq()`` is built, so it reads these terms
    rather than :func:`corner_element`."""
    word = corner_word(corner, k, l)
    if corner and k == l:
        return {word: ONE, word + ("z",): -ONE}
    return {word: ONE}


@lru_cache(maxsize=None)
def corner_element(corner: int, k: int, l: int) -> Element:
    """The ADTq element of one lattice triple, inverse to :func:`corner_coordinates`."""
    return Element(adtq(), _corner_terms(corner, k, l))


def corner_coordinates(e: Element) -> dict:
    """The linear extension of :func:`corner_triples`: triple -> coefficient."""
    acc: dict = {}
    for mon, c in e.terms.items():
        for triple in corner_triples(mon):
            add_term(acc, triple, c)
    return settle(acc, keep_scalar)


def corner_product(t1: tuple[int, int, int], t2: tuple[int, int, int]) -> QScalar:
    """The coefficient of the triple t1 + t2 in the product of two triples of
    one corner.  The classical corner is C[T²]: u^k v^l u^m v^n = u^(k+m) v^(l+n).
    The quantum one is the quantum torus of D(1 - z) and b(1 - z), where
    D^α b^β · D^γ b^δ = q^(2βγ) D^(α+γ) b^(β+δ); its triple (k, l) is
    γ(k, l) D^k b^(l-k) with γ = (-1)^s q^(-s²), s = max(k - l, 0)."""
    (corner, k1, l1), (_, k2, l2) = t1, t2
    k, l = k1 + k2, l1 + l2
    coeff = ONE
    if corner:
        s1, s2, s = max(k1 - l1, 0), max(k2 - l2, 0), max(k - l, 0)
        twist = 2 * (l1 - k1) * k2
        sign = (-1) ** (s1 + s2 + s)
        coeff = QScalar.q_power(twist + s * s - s1 * s1 - s2 * s2, sign)
    return coeff


class DoubleTorusAlgebra(QGroupAlgebra):
    """ADTq = C[T²] ⊕ C[T²_{q²}], multiplied in closed form on the lattice
    triples of its two corners (:func:`corner_product`).  The rewrite system
    still gives every normal form but the product's; the hopf certificate
    checks this product against the rewrite rules and the rewrite system's
    normal forms (``hopf.PRODUCT_WINDOW``)."""

    def _multiply(self, m1: Word, m2: Word) -> Element:
        acc: dict = {}
        for t1 in corner_triples(m1):
            for t2 in corner_triples(m2):
                if t1[0] == t2[0]:
                    t = (t1[0], t1[1] + t2[1], t1[2] + t2[2])
                    add_scaled(acc, _corner_terms(*t), corner_product(t1, t2))
        return Element._canonical(self, settle(acc, self.canon_scalar))


_FACTORY_LOCK = threading.RLock()


def algebra_factory(build):
    """Memoize an algebra factory so that each instance is built once.

    Elements of two instances of one algebra cannot be mixed, so threads
    that call a cold factory together must share one build.  An instance is
    published once built, and a call that finds it takes no lock; a miss
    looks again under the lock, which is shared and reentrant because
    factories call one another.  Omitted arguments are filled in from the
    defaults, so ``adtq()`` and ``adtq(None)`` are one key.
    """
    defaults = build.__defaults__ or ()
    arity = build.__code__.co_argcount
    published: dict = {}  # written only under the lock

    @wraps(build)
    def get(*args):
        if len(args) < arity:
            args += defaults[len(args) - arity :]
        hit = published.get(args)
        if hit is None:
            with _FACTORY_LOCK:
                hit = published.get(args)
                if hit is None:
                    hit = published[args] = build(*args)
        return hit

    return get


@algebra_factory
def auq2() -> QGroupAlgebra:
    return QGroupAlgebra("AUq2", _qg_base_rules())


@algebra_factory
def adtq(mutation: str | None = None) -> QGroupAlgebra:
    """The double-torus quotient.  ``adtq("bc_weak")`` replaces the
    q^2-commutation of the antidiagonal pair by a plain commutation, for the
    sensitivity (mutation) checks; no other mutation exists."""
    rules = _qg_base_rules() + _quotient_extra_rules()
    if mutation is None:
        return DoubleTorusAlgebra("ADTq", rules)
    if mutation != "bc_weak":
        raise QdtError(f"unknown mutation {mutation!r}")
    rules = [r for r in rules if r.pattern != ("b", "c")]
    rules.append(RewriteRule(("b", "c"), ((ONE, ("D", "z")), (-ONE, ("D",)))))
    return QGroupAlgebra("ADTq!bc_weak", rules)


# -- the classical torus ------------------------------------------------------


class TorusAlgebra(WordAlgebra):
    def lattice_mon(self, k: int, l: int) -> Word:
        u, uinv, v, vinv = self._names
        return ((u,) * k if k >= 0 else (uinv,) * (-k)) + (
            (v,) * l if l >= 0 else (vinv,) * (-l)
        )

    def lattice_exponents(self, mon: Word) -> tuple[int, int]:
        u, uinv, v, vinv = self._names
        k = sum(1 if x == u else -1 if x == uinv else 0 for x in mon)
        l = sum(1 if x == v else -1 if x == vinv else 0 for x in mon)
        return k, l


def _torus_rules(names, q_swap: QScalar | None) -> list[RewriteRule]:
    u, uinv, v, vinv = names
    one = ONE
    r = RewriteRule
    rules = [
        r((u, uinv), ((one, ()),)),
        r((uinv, u), ((one, ()),)),
        r((v, vinv), ((one, ()),)),
        r((vinv, v), ((one, ()),)),
    ]
    if q_swap is None:
        for hi, lo in ((v, u), (v, uinv), (vinv, u), (vinv, uinv)):
            rules.append(r((hi, lo), ((one, (lo, hi)),)))
    else:
        rules.append(r((v, u), ((q_swap, (u, v)),)))
        rules.append(r((v, uinv), ((q_swap.inverse(), (uinv, v)),)))
        rules.append(r((vinv, u), ((q_swap.inverse(), (u, vinv)),)))
        rules.append(r((vinv, uinv), ((q_swap, (uinv, vinv)),)))
    return rules


@algebra_factory
def at2() -> TorusAlgebra:
    names = ("u", "uinv", "v", "vinv")
    alg = TorusAlgebra(
        "AT2",
        RewriteSystem(("uinv", "u", "vinv", "v"), _torus_rules(names, None)),
        generator_names=("u", "v"),
    )
    alg._names = names
    for x, xi in (("u", "uinv"), ("uinv", "u"), ("v", "vinv"), ("vinv", "v")):
        alg._install_hopf_letter(
            x, [(1, (x,), (x,))], 1, antipode=[(1, (xi,))], star=[(1, (xi,))]
        )
    return alg


@algebra_factory
def at2q() -> TorusAlgebra:
    # x y = q y x, so moving y leftward past x costs q^-1
    names = ("x", "xinv", "y", "yinv")
    alg = TorusAlgebra(
        "AT2q",
        RewriteSystem(("xinv", "x", "yinv", "y"), _torus_rules(names, QI)),
        generator_names=("x", "y"),
    )
    alg._names = names
    for x, xi in (("x", "xinv"), ("xinv", "x"), ("y", "yinv"), ("yinv", "y")):
        alg._star_letter[x] = alg.monomial((xi,))
    return alg


# -- functions on the two-point group ----------------------------------------


class Z2Algebra(WordAlgebra):
    """Functions on Z2 with basis d0, d1; the unit is d0 + d1."""

    def unit(self) -> Element:
        return Element(self, {("d0",): ONE, ("d1",): ONE})

    def _post_combo(self, combo: dict) -> dict:
        unit_coeff = combo.pop((), None)
        if unit_coeff:
            add_scaled(combo, {("d0",): unit_coeff, ("d1",): unit_coeff})
        return combo

    def delta(self, i: int) -> Element:
        return self.monomial((f"d{i}",))

    def basis_by_degree(self, max_len: int) -> list[Word]:
        # the empty word is not a basis monomial here: the unit is d0 + d1
        return [("d0",), ("d1",)]


@algebra_factory
def az2() -> Z2Algebra:
    r = RewriteRule
    one = ONE
    rules = [
        r(("d0", "d0"), ((one, ("d0",)),)),
        r(("d1", "d1"), ((one, ("d1",)),)),
        r(("d0", "d1"), ()),
        r(("d1", "d0"), ()),
    ]
    alg = Z2Algebra(
        "AZ2", RewriteSystem(("d0", "d1"), rules), generator_names=("d0", "d1")
    )
    alg._install_hopf_letter(
        "d0",
        [(1, ("d0",), ("d0",)), (1, ("d1",), ("d1",))],
        1,
        antipode=[(1, ("d0",))],
        star=[(1, ("d0",))],
    )
    alg._install_hopf_letter(
        "d1",
        [(1, ("d0",), ("d1",)), (1, ("d1",), ("d0",))],
        0,
        antipode=[(1, ("d1",))],
        star=[(1, ("d1",))],
    )
    return alg


# Every named algebra by its tag; the bicross product is built per convention
# in ``galois``.
ALGEBRAS = {"AUq2": auq2, "ADTq": adtq, "AT2": at2, "AT2q": at2q, "AZ2": az2}

# What a hopf report notes of an algebra beyond its checks, by tag.
NOTES = {
    "AUq2": (
        "z-powers are restricted to nonnegative exponents: the published "
        "basis prints integer powers, but no inverse of z is derivable "
        "from the presentation"
    ),
}


# ---------------------------------------------------------------------------
# Normal words and the basis window
# ---------------------------------------------------------------------------


def quotient_mon_word(d: int, z: bool = False, gen: str | None = None, n: int = 0) -> Word:
    """The normal ADTq word D^d [z] gen^n."""
    word: tuple[str, ...] = ("D",) * d if d >= 0 else ("Dinv",) * (-d)
    if z:
        word = word + ("z",)
    if gen is not None and n:
        word = word + (gen,) * n
    return word


@dataclass(frozen=True)
class BasisWindow:
    """The bounds of ADTq's basis window: |D-power| <= d_max, runs <= gen_max."""

    d_max: int = 0
    gen_max: int = 0


def enumerate_basis(algebra: Algebra, window: BasisWindow) -> list:
    """ADTq's published basis pattern on the window: for each D-power D^d,
    D^d and D^d z, then the runs of a, d, b and c."""
    if not algebra.tag.startswith("ADTq"):
        raise UnknownGenerator(f"no basis pattern for {algebra.tag}")
    out = []
    for d in range(-window.d_max, window.d_max + 1):
        out += [quotient_mon_word(d), quotient_mon_word(d, z=True)]
        out += [
            quotient_mon_word(d, gen=gen, n=n)
            for gen in ("a", "d", "b", "c")
            for n in range(1, window.gen_max + 1)
        ]
    return out


# ---------------------------------------------------------------------------
# Finite quotients at roots of unity
# ---------------------------------------------------------------------------


def root_condition_holds(n: int, mode: CyclotomicMode) -> bool:
    value = mode.canon((-Q) ** (n * n))
    return value == ONE


def build_finite_quotient(n: int, mode: CyclotomicMode | None) -> WordAlgebra:
    """Quotient by a^n - z, b^n - (1-z), c^n - (1-z), d^n - z, D^n - 1.

    ``mode`` must specialise q to a primitive root of unity making
    (-q)^(n^2) = 1; symbolic q is refused.  The relations that the
    presentation implies (such as D*a^(n-1) = d) are written down from the
    lattice model, not searched for; the fdquot suite proves the result
    confluent (Bergman's diamond lemma) and finite of the expected dimension.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if mode is None:
        raise RootConditionViolated("finite quotients need a root-of-unity mode")
    if not root_condition_holds(n, mode):
        raise RootConditionViolated(
            f"(-q)^{n * n} != 1 for a primitive root of order {mode.order}"
        )
    return _finite_quotient_cached(n, mode.order)


_QUOTIENT_LETTERS = ("D", "z", "a", "d", "b", "c")


def _quotient_presentation(n: int, order: int) -> RewriteSystem:
    """ADTq's rules without Dinv (D^n = 1 inverts D) and the five ideal
    generators, over the cyclotomic field of ``order``."""
    rules = [r for r in _qg_base_rules() + _quotient_extra_rules() if "Dinv" not in r.pattern]
    one_minus_z = ((ONE, ()), (-ONE, ("z",)))
    rules += [
        RewriteRule(("a",) * n, ((ONE, ("z",)),)),
        RewriteRule(("d",) * n, ((ONE, ("z",)),)),
        RewriteRule(("b",) * n, one_minus_z),
        RewriteRule(("c",) * n, one_minus_z),
        RewriteRule(("D",) * n, ((ONE, ()),)),
    ]
    return RewriteSystem(_QUOTIENT_LETTERS, rules, scalar_canon=CyclotomicMode(order).canon)


@algebra_factory
def _finite_quotient_cached(n: int, order: int) -> WordAlgebra:
    """The presentation and the relations of the lattice model: in each
    corner, a run times the inverse ideal generator's run is a product of
    two triples (:func:`corner_product`), so for 1 <= j < n
    D^j a^(n-j) = d^j, D^j d^(n-j) = a^j, D^j b^(n-j) = k_b c^j and
    D^j c^(n-j) = k_c b^j.  When q^(2n) != 1, b D^n = q^(2n) D^n b kills b
    and c, and then z = 1 - b^n = 1."""
    system = _quotient_presentation(n, order)
    kills_b = (2 * n) % order != 0
    for j in range(1, n):
        runs = {"a": ("d", ONE), "d": ("a", ONE)}
        if not kills_b:
            runs["b"] = ("c", corner_product((1, j, 0), (1, 0, n)).inverse())
            runs["c"] = ("b", corner_product((1, 0, j), (1, n, 0)).inverse())
        for run, (image, coeff) in runs.items():
            system.add_rule(RewriteRule(("D",) * j + (run,) * (n - j), ((coeff, (image,) * j),)))
    if kills_b:
        for letter, image in (("b", ()), ("c", ()), ("z", ((ONE, ()),))):
            system.add_rule(RewriteRule((letter,), image))

    def translate(word: Word) -> Word:
        return tuple(y for x in word for y in (("D",) * (n - 1) if x == "Dinv" else (x,)))

    alg = FiniteQuotientAlgebra(
        f"FDQUOT(n={n},order={order})",
        system,
        generator_names=("a", "b", "c", "d", "D", "Dinv", "z"),
    )
    alg.n = n
    alg._translate = translate
    parent = adtq()
    for letter in _QUOTIENT_LETTERS:
        cop = parent._cop_letter[letter].terms.items()
        alg._install_hopf_letter(
            letter,
            [(c, translate(w1), translate(w2)) for (w1, w2), c in cop],
            parent._counit_letter[letter],
            [(c, translate(w)) for w, c in parent._antipode_letter[letter].terms.items()],
            [(c, translate(w)) for w, c in parent._star_letter[letter].terms.items()],
        )
    alg.dimension = len(system.all_normal_words())
    return alg


class FiniteQuotientAlgebra(WordAlgebra):
    n: int
    dimension: int

    def gen_word(self, name, power=1):
        if name in ("D", "Dinv") and power != 0:
            exp = power if name == "D" else -power
            return ("D",) * ((exp % self.n) if self.n > 1 else 0)
        return super().gen_word(name, power)

    def from_parent(self, e: Element) -> Element:
        """Image of a quotient-algebra element under the root-of-unity quotient."""
        return self.combine(
            (self.normalize_word(self._translate(m)), c) for m, c in e.terms.items()
        )
