"""Rewriting engine: normal forms, confluence, bases, finite quotients."""

import random
from unittest import mock

import pytest

from qdtorus import algebras
from qdtorus.algebras import (
    BasisWindow,
    WordAlgebra,
    adtq,
    algebra_factory,
    auq2,
    build_finite_quotient,
    enumerate_basis,
)
from qdtorus.errors import (
    CompletionFailure,
    CrossAlgebraMix,
    InvalidExponent,
    QdtError,
    RootConditionViolated,
    UnknownGenerator,
)
from qdtorus.exprs import parse_element
from qdtorus.scalars import CyclotomicMode, QScalar, invert_in_cyclotomic_field
from qdtorus.words import RewriteRule, RewriteSystem


def el(text, algebra):
    return parse_element(text, algebra)


class TestNormalize:
    def test_commutation_in_parent(self):
        A = auq2()
        assert A.normalize_word(("b", "a")) == el("q*a*b", A)

    def test_annihilation_in_quotient(self):
        B = adtq()
        assert B.normalize_word(("a", "b")).is_zero()

    def test_idempotent_witness(self):
        B = adtq()
        assert B.normalize_word(("z", "z")) == el("z", B)

    def test_antidiagonal_product(self):
        # from the determinant identity and the diagonal reduction, pinned
        B = adtq()
        assert B.normalize_word(("b", "c")) == el("q*D*z - q*D", B)

    @pytest.mark.parametrize("n", [12, 20])
    def test_antidiagonal_powers_in_closed_form(self, n):
        # b^n c^n = (-1)^n q^(n^2) D^n (1 - z)^n in AUq2; every b*c on the
        # way branches in two, so this stays fast only while each branch
        # word is normalized once
        A = auq2()
        want = A.gen("D", n) * (A.unit() - A.gen("z")) ** n * QScalar.q_power(n * n, (-1) ** n)
        assert A.gen("b", n) * A.gen("c", n) == want

    def test_central_witness_annihilates_off_corner(self):
        B = adtq()
        assert B.normalize_word(("z", "b")).is_zero()
        # oracle: expand the witness as Dinv*a*d and reduce
        assert B.normalize_word(("Dinv", "a", "d", "b")).is_zero()

    def test_idempotence_and_multiplicativity(self):
        A = auq2()
        rng = random.Random(7)
        letters = A.system.letters
        for _ in range(100):
            w1 = tuple(rng.choices(letters, k=rng.randint(0, 4)))
            w2 = tuple(rng.choices(letters, k=rng.randint(0, 4)))
            e1, e2 = A.normalize_word(w1), A.normalize_word(w2)
            assert A.normalize_word(w1 + w2) == e1 * e2
            renorm = A.zero()
            for m, c in e1.terms.items():
                renorm = renorm + A.normalize_word(m) * c
            assert renorm == e1

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            adtq().normalize_word(("a", "w"))
        with pytest.raises(UnknownGenerator):
            adtq().gen("u")

    def test_negative_powers(self):
        B = adtq()
        assert B.gen("D", -2) == B.normalize_word(("Dinv", "Dinv"))
        with pytest.raises(InvalidExponent):
            B.gen("a", -1)

    def test_cross_algebra_mix(self):
        with pytest.raises(CrossAlgebraMix):
            adtq().gen("a") * auq2().gen("a")
        with pytest.raises(CrossAlgebraMix):
            adtq().gen("a") == auq2().gen("a")


class TestElementsEqual:
    def test_determinant_identity(self):
        B = adtq()
        assert el("a*d", B) == el("D*z", B)

    def test_distinct_idempotents(self):
        B = adtq()
        assert el("z", B) != el("1 - z", B)

    def test_q_squared_commutation(self):
        B = adtq()
        assert el("b*c", B) == el("q^2*c*b", B)


class TestConfluence:
    def test_parent_is_confluent(self):
        assert auq2().system.unresolved_pairs(6) == []

    def test_quotient_is_confluent(self):
        assert adtq().system.unresolved_pairs(6) == []

    def test_free_algebra_has_no_ambiguities(self):
        assert RewriteSystem(("g",), []).unresolved_pairs(6) == []

    def test_rule_order_invariance(self):
        # determinism under shuffled rule order on random words
        system = adtq().system
        rng = random.Random(123)
        indices = list(range(len(system.rules)))
        for _ in range(500):
            word = tuple(rng.choices(system.letters, k=rng.randint(0, 8)))
            baseline = system.normalize(word)
            shuffled = indices[:]
            rng.shuffle(shuffled)
            permuted = RewriteSystem(
                system.letters, [system.rules[i] for i in shuffled], system.scalar_canon
            )
            assert permuted.normalize(word) == baseline

    def test_associativity_transport(self):
        A = auq2()
        rng = random.Random(99)
        for _ in range(60):
            words = [
                A.normalize_word(tuple(rng.choices(A.system.letters, k=rng.randint(0, 3))))
                for _ in range(3)
            ]
            assert (words[0] * words[1]) * words[2] == words[0] * (words[1] * words[2])


_NOT_DECREASING = {
    "longer": RewriteRule(("x",), ((QScalar.one(), ("x", "x")),)),
    "later_in_letter_order": RewriteRule(("x", "y"), ((QScalar.one(), ("y", "x")),)),
    "itself": RewriteRule(("y",), ((QScalar.of(2), ("y",)),)),
}


class TestOrientation:
    """Every rule must send its pattern to strictly smaller words."""

    @pytest.mark.parametrize("name", sorted(_NOT_DECREASING))
    def test_the_constructor_rejects_it(self, name):
        with pytest.raises(ValueError, match="does not decrease"):
            RewriteSystem(("x", "y"), [_NOT_DECREASING[name]])

    @pytest.mark.parametrize("name", sorted(_NOT_DECREASING))
    def test_add_rule_rejects_it_and_keeps_the_system(self, name):
        # add_rule is also how completion adds the rules it orients
        system = RewriteSystem(
            ("x", "y"), [RewriteRule(("y", "x"), ((QScalar.q_power(1), ("x", "y")),))]
        )
        before = system.normalize(("y", "x", "y"))
        with pytest.raises(ValueError, match="does not decrease"):
            system.add_rule(_NOT_DECREASING[name])
        assert len(system.rules) == 1
        assert system.normalize(("y", "x", "y")) == before


class TestDerivedCommutation:
    @pytest.mark.parametrize(
        "left,right",
        [
            ("D*a", "a*D"),
            ("D*d", "d*D"),
            ("D*b", "q^-2*b*D"),
            ("D*c", "q^2*c*D"),
        ],
    )
    def test_determinant_commutation(self, left, right):
        A = auq2()
        assert el(left, A) == el(right, A)


class TestBases:
    def test_quotient_window_count(self):
        window = enumerate_basis(adtq(), BasisWindow(d_max=1, gen_max=2))
        assert len(window) == 30
        pure = [m for m in window if len([x for x in m if x in "abcd"]) == 0]
        assert len(pure) == 6
        assert all(adtq().system.find_redex(m) is None for m in window)

    def test_only_adtq_has_a_basis_pattern(self):
        with pytest.raises(UnknownGenerator, match="no basis pattern for AUq2"):
            enumerate_basis(auq2(), BasisWindow(d_max=1, gen_max=1))

    def test_a_word_with_two_run_letters_has_no_triples(self):
        # a library user can build this monomial, though it is not normal
        assert adtq().monomial(("b", "a")).terms
        with pytest.raises(ValueError, match="not a normal ADTq monomial"):
            algebras.corner_triples(("b", "a"))

    def test_spanning_random_words(self):
        B = adtq()
        window = set(enumerate_basis(B, BasisWindow(d_max=6, gen_max=6)))
        rng = random.Random(5)
        for _ in range(1000):
            word = tuple(rng.choices(B.system.letters, k=rng.randint(0, 6)))
            support = set(B.normalize_word(word).terms)
            assert support <= window


class TestQuotientConsistency:
    """The projection onto the quotient kills exactly the relation ideal.

    Soundness rests on certificates: every quotient-only rewrite rule is an
    identity modulo the ideal generated by the four degree-two relations.
    Given those certificates, any word the quotient sends to zero, and any
    collision difference, lies in the ideal; the converse direction is the
    exhaustive frame check.
    """

    def test_ideal_lands_in_kernel(self):
        A, B = auq2(), adtq()
        gens = [("a", "b"), ("a", "c"), ("c", "d"), ("b", "d")]
        frames = [()] + [(x,) for x in A.system.letters] + [
            (x, y) for x in A.system.letters for y in A.system.letters
        ]
        for g in gens:
            for left in frames:
                for right in frames:
                    assert B.normalize_word(left + g + right).is_zero()

    def test_quotient_rule_certificates(self):
        A = auq2()
        q_inv = QScalar.q_power(-1)
        z = A.gen("z")
        one = A.unit()
        # scalar multiples of the listed ideal generators
        assert el("d*b", A) == el("q^-1*b*d", A)
        assert el("d*c", A) == el("q*c*d", A)
        assert el("b*a", A) == el("q*a*b", A)
        assert el("c*a", A) == el("q^-1*a*c", A)
        # the off-corner annihilations factor through d*b and d*c
        assert A.normalize_word(("z", "b")) == A.normalize_word(("Dinv", "a", "d", "b"))
        assert A.normalize_word(("z", "c")) == A.normalize_word(("Dinv", "a", "d", "c"))
        # the complementary idempotent is an ideal shift of the unit
        assert one - z == A.normalize_word(("Dinv", "b", "c")) * -q_inv
        # idempotency and absorption differences factor through the ideal
        assert z - z * z == A.normalize_word(("Dinv", "Dinv", "a", "d", "b", "c")) * -q_inv
        assert z * A.gen("a") - A.gen("a") == A.normalize_word(("Dinv", "b", "c", "a")) * q_inv
        assert z * A.gen("d") - A.gen("d") == A.normalize_word(("Dinv", "b", "c", "d")) * q_inv

    def test_kernel_matches_ideal_on_window(self):
        A, B = auq2(), adtq()
        window = [w for w in A.system.normal_words_by_degree(6)]
        killed = []
        image_of = {}
        collisions = []
        for word in window:
            image = B.normalize_word(word)
            assert len(image.terms) <= 1
            if image.is_zero():
                killed.append(word)
                continue
            mon = next(iter(image.terms))
            if mon in image_of:
                collisions.append((word, image_of[mon]))
            else:
                image_of[mon] = word
        # zero images come only from certified classes: a mixed generator
        # pair or the central witness meeting the off corner
        for word in killed:
            has_x = any(x in ("a", "d") for x in word)
            has_y = any(x in ("b", "c") for x in word)
            has_z_y = "z" in word and has_y
            assert (has_x and has_y) or has_z_y
        # collisions differ only in the power of the central witness
        for w1, w2 in collisions:
            strip = lambda w: tuple(x for x in w if x != "z")
            assert strip(w1) == strip(w2) and w1 != w2


class TestFiniteQuotient:
    def test_order_two_root(self):
        alg = build_finite_quotient(1, CyclotomicMode(2))
        assert alg.dimension == 2
        assert set(alg.system.all_normal_words()) == {(), ("z",)}

    def test_order_four_root(self):
        alg = build_finite_quotient(2, CyclotomicMode(4))
        # the two corners contribute a four-dimensional commutative part and
        # a full 2x2 matrix part
        assert alg.dimension == 8
        assert alg.system.unresolved_pairs(8) == []

    def test_symbolic_refused(self):
        with pytest.raises(RootConditionViolated):
            build_finite_quotient(2, None)

    def test_wrong_root_refused(self):
        with pytest.raises(RootConditionViolated):
            build_finite_quotient(3, CyclotomicMode(4))

    def test_projection_from_parent(self):
        alg = build_finite_quotient(2, CyclotomicMode(4))
        B = adtq()
        assert alg.from_parent(B.gen("a", 2)) == alg.gen("z")
        assert alg.from_parent(B.gen("D", 2)) == alg.unit()
        assert alg.from_parent(B.gen("b") * B.gen("c")) == alg.from_parent(
            el("q*D*z - q*D", B)
        )

    def test_quotient_respects_hopf_structure(self):
        from qdtorus.hopf import verify_hopf_axioms

        alg = build_finite_quotient(2, CyclotomicMode(4))
        assert all(c.passed for c in verify_hopf_axioms(alg, 3))


def test_finite_quotient_completes_in_a_few_passes():
    system = algebras._quotient_presentation(8, 16)
    mode = CyclotomicMode(16)
    original = RewriteSystem.unresolved_pairs
    with mock.patch.object(
        RewriteSystem, "unresolved_pairs", autospec=True, side_effect=original
    ) as passes:
        system.complete(lambda s: invert_in_cyclotomic_field(s, mode), max_len=20)
    assert len(system.all_normal_words()) == 128
    assert passes.call_count <= 6


def test_completion_out_of_rounds_raises():
    system = algebras._quotient_presentation(3, 6)
    mode = CyclotomicMode(6)
    kwargs = {"invert_scalar": lambda s: invert_in_cyclotomic_field(s, mode), "max_len": 10}
    with pytest.raises(CompletionFailure, match="after 1 rounds"):
        system.complete(**kwargs, max_rounds=1)
    system.complete(**kwargs)  # resumes from the rules the one round added
    assert system.unresolved_pairs(kwargs["max_len"]) == []


@pytest.mark.parametrize("n", range(1, 9))
def test_the_written_relations_are_multiples_of_the_ideal_generators(n):
    """In ADTq at generic q each relation that the finite quotient writes down
    is a multiple of a generator of the ideal it divides by."""
    B = adtq()
    a, b, c, d, z = (B.gen(x) for x in "abcdz")
    one = B.unit()
    for j in range(1, n):
        Dj = B.gen("D", j)
        k_b = algebras.corner_product((1, j, 0), (1, 0, n)).inverse()
        k_c = algebras.corner_product((1, 0, j), (1, n, 0)).inverse()
        assert d**j * (a**n - z) == Dj * a ** (n - j) - d**j
        assert a**j * (d**n - z) == Dj * d ** (n - j) - a**j
        assert c**j * (b**n - (one - z)) == (Dj * b ** (n - j) - c**j * k_b) * k_b.inverse()
        assert b**j * (c**n - (one - z)) == (Dj * c ** (n - j) - b**j * k_c) * k_c.inverse()
    q2n = QScalar.q_power(2 * n)
    Dn = B.gen("D", n) - one
    assert b * (q2n - 1) == b * Dn - Dn * b * q2n


def test_project_between_presentations():
    A, B = auq2(), adtq()
    e = el("b*a + z*z", A)
    projected = B.combine((B.normalize_word(m), c) for m, c in e.terms.items())
    assert projected == el("q*a*b + z", B)


def test_unresolved_pairs_entry_point():
    assert auq2().system.unresolved_pairs(6) == []
    assert adtq().system.unresolved_pairs(6) == []
    # the weakened antidiagonal relation destroys confluence, returned as data
    assert adtq("bc_weak").system.unresolved_pairs(6)
    with pytest.raises(QdtError, match="unknown mutation"):
        adtq("bc_strong")


_LETTER_RACE_SCRIPT = """
import sys, threading
from qdtorus.algebras import adtq

alg = adtq()  # cold: nothing has asked for a structure map yet
words = alg.basis_by_degree(3)
barrier = threading.Barrier(8)
results = [None] * 8
errors = []

def work(i):
    maps = (alg.antipode_mon, alg.star_mon)
    try:
        barrier.wait(timeout=60)
        results[i] = [str(maps[(i + j) % 2](w)) for j, w in enumerate(words)]
    except Exception as exc:
        errors.append(repr(exc))

old = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
finally:
    sys.setswitchinterval(old)
assert not any(t.is_alive() for t in threads), "a thread did not finish"
assert not errors, errors
# threads 0, 2, 4, 6 and 1, 3, 5, 7 asked for the same maps of the same words
assert all(results[i] == results[i % 2] for i in range(8))
print("ok")
"""


def _run_fresh(script: str):
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr[-2000:]


def test_structure_maps_are_published_whole():
    """Eight threads racing onto a cold ADTq's antipode and star read only
    fully built letter tables."""
    _run_fresh(_LETTER_RACE_SCRIPT)


_FACTORY_RACE_SCRIPT = """
import sys, threading
from qdtorus.algebras import adtq, at2, auq2, az2
from qdtorus.galois import build_bicross_product

factories = (adtq, auq2, at2, az2, build_bicross_product)
barrier = threading.Barrier(8)
got = [None] * 8

def work(i):
    barrier.wait(timeout=60)
    got[i] = {f: f() for f in factories[i % 2 :] + factories[: i % 2]}

old = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
finally:
    sys.setswitchinterval(old)
assert not any(t.is_alive() for t in threads), "a thread did not finish"
assert all(row[f] is f() for row in got for f in factories)
print("ok")
"""


def test_cold_factories_build_one_instance_under_threads():
    """Eight threads calling cold algebra factories together all receive the
    same instance; elements of two instances of one algebra cannot mix."""
    _run_fresh(_FACTORY_RACE_SCRIPT)


def test_factory_defaults_are_one_key():
    """Omitted arguments take the build function's defaults, so every way of
    asking for one algebra returns one instance."""
    from qdtorus.galois import TorusCoaction

    assert adtq() is adtq(None)
    assert adtq("bc_weak") is not adtq()

    @algebra_factory
    def free(letters=("g",)):
        return WordAlgebra("FREE", RewriteSystem(letters, []), letters)

    assert free() is free(("g",))
    assert TorusCoaction().alg is adtq()
    assert adtq().gen("a") + adtq(None).gen("a") == adtq().gen("a") * 2


def test_monomial_matches_the_coercing_constructor():
    """``monomial`` canonicalises its one coefficient and keeps a zero one
    as the zero element, as ``Element(alg, {m: c})`` does."""
    from qdtorus.algebras import Element

    alg = adtq()
    m = ("D", "a")
    for c in (0, 2, QScalar.q_power(-3)):
        assert alg.monomial(m, c).terms == Element(alg, {m: c}).terms
    assert alg.monomial(m, 0).is_zero()
    quotient = build_finite_quotient(2, CyclotomicMode(4))  # q^2 = -1
    for c in (QScalar.q_power(2), QScalar.q_power(2) + 1, QScalar.q_power(5)):
        assert quotient.monomial(("a",), c).terms == Element(quotient, {("a",): c}).terms
    assert quotient.monomial(("a",), QScalar.q_power(2)).terms == {("a",): QScalar.of(-1)}
    assert quotient.monomial(("a",), QScalar.q_power(2) + 1).is_zero()


def test_a_rank_3_tensor_product_is_refused():
    alg = adtq()
    t = alg.gen("a").coproduct().coproduct_leg(0)
    assert t.rank == 3
    with pytest.raises(CrossAlgebraMix, match="rank 2"):
        t * t


def test_an_empty_pattern_is_refused():
    with pytest.raises(ValueError, match="empty pattern"):
        RewriteSystem(("x",), [RewriteRule((), ())])
    system = RewriteSystem(("x",), [])
    with pytest.raises(ValueError, match="empty pattern"):
        system.add_rule(RewriteRule((), ()))
    assert system.rules == []
