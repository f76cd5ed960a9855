"""Cleft extension layer: cleaving map, cocycle, cocleaving, coaction,
bicross product, exact sequence, and the torus coaction diagram."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtorus.algebras import (
    BasisWindow,
    TensorElement,
    adtq,
    at2,
    az2,
    enumerate_basis,
    quotient_mon_word,
)
from qdtorus.errors import NotInBaseImage
from qdtorus.exprs import parse_element
from qdtorus.galois import (
    CORRECTED,
    PRINTED,
    build_bicross_product,
    cleaving_j,
    cleaving_j_inverse_mon,
    cleaving_j_mon,
    coaction_lambda,
    coaction_lambda_from_ell,
    coaction_lambda_mon,
    convention_report,
    ell_from_j_mon,
    ell_table,
    ell_table_mon,
    inj_mon,
    phi,
    phi_inverse,
    phi_mon,
    prj,
    right_colinear_ok,
    sigma_convolution,
    sigma_table,
    torus_relation_defect,
    verify_cocycle_condition,
    verify_exact_sequence,
    verify_prop14_diagram,
)
from qdtorus.hopf import verify_hopf_axioms
from qdtorus.scalars import QScalar


def el(text, algebra=None):
    return parse_element(text, algebra or adtq())


class TestCleavingMap:
    def test_off_diagonal_branches(self):
        B = adtq()
        assert cleaving_j_mon(1, 0) == el("a + c", B)
        assert cleaving_j_mon(0, 1) == el("b + d", B)
        assert cleaving_j_mon(2, 0) == el("a^2 + c^2", B)
        assert cleaving_j_mon(2, 1) == el("D*a - q*D*c", B)

    def test_diagonal_branch_by_convention(self):
        B = adtq()
        assert cleaving_j_mon(1, 1, CORRECTED) == el("2*D*z - D", B)
        assert cleaving_j_mon(1, 1, PRINTED) == el("D*z - Dinv + Dinv*z", B)

    def test_unit_and_star(self):
        B, torus = adtq(), at2()
        assert cleaving_j(torus.unit()) == B.unit()
        for (k, l) in ((1, 0), (2, 1), (1, 1), (-2, 3)):
            h = torus.monomial(torus.lattice_mon(k, l))
            assert cleaving_j(h.star()) == cleaving_j(h).star()

    def test_inverse_examples(self):
        B = adtq()
        assert cleaving_j_inverse_mon(1, 0) == el("Dinv*d - q^-1*Dinv*b", B)  # u
        assert cleaving_j_inverse_mon(0, 0) == B.unit()
        assert cleaving_j_inverse_mon(1, 1) == el("2*Dinv*z - Dinv", B)  # u*v

    def test_pointwise_inverse_property(self):
        # a two-sided inverse is unique, so this pins cleaving_j_inverse_mon
        unit = adtq().unit()
        for conv in (CORRECTED, PRINTED):
            for k in range(-6, 7):
                for l in range(-6, 7):
                    j_el, x = cleaving_j_mon(k, l, conv), cleaving_j_inverse_mon(k, l, conv)
                    assert j_el * x == unit == x * j_el, (conv, k, l)

    def test_not_an_algebra_map_symbolically_but_classically(self):
        diff = cleaving_j_mon(1, 0) * cleaving_j_mon(0, 1) - cleaving_j_mon(1, 1)
        assert not diff.is_zero()
        assert all(abs(c.eval_unit(0.0)) < 1e-12 for c in diff.terms.values())

    def test_colinearity(self):
        for k in range(-3, 4):
            for l in range(-3, 4):
                assert right_colinear_ok(k, l, CORRECTED)
        assert not right_colinear_ok(1, 1, PRINTED)
        assert right_colinear_ok(1, 0, PRINTED)  # off-diagonal branches agree


class TestCocycle:
    def test_table_examples(self):
        base = az2()
        assert sigma_table(1, 0, 0, 1) == base.delta(0) + base.delta(1) * QScalar.q_power(-1)
        assert sigma_table(2, 1, 3, 1) == base.delta(0) + base.delta(1) * QScalar.q_power(-4)
        assert sigma_table(0, 0, 2, 3) == base.unit()

    def test_convolution_matches_table(self):
        for k in range(-2, 3):
            for l in range(-2, 3):
                for m in range(-2, 3):
                    for n in range(-2, 3):
                        assert sigma_convolution(k, l, m, n) == sigma_table(k, l, m, n)

    def test_printed_convention_leaves_base(self):
        with pytest.raises(NotInBaseImage):
            sigma_convolution(1, 1, 1, 0, PRINTED)

    def test_cocycle_identity(self):
        assert verify_cocycle_condition(2)[0].passed

    def test_cocycle_identity_pinned_triple(self):
        lhs = sigma_table(1, 0, 0, 1) * sigma_table(1, 1, 1, 1)
        rhs = sigma_table(0, 1, 1, 1) * sigma_table(1, 0, 1, 2)
        base = az2()
        expected = base.delta(0) + base.delta(1) * QScalar.q_power(-1)
        assert lhs == rhs == expected

    def test_normalization_triples(self):
        for m in range(-2, 3):
            for n in range(-2, 3):
                lhs = sigma_table(0, 0, m, n) * sigma_table(m, n, 1, 2)
                rhs = sigma_table(m, n, 1, 2) * sigma_table(0, 0, m + 1, n + 2)
                assert lhs == rhs


class TestCocleaving:
    def test_table_examples(self):
        base = az2()
        assert ell_table_mon(quotient_mon_word(3, z=True)) == base.delta(0)
        assert ell_table_mon(quotient_mon_word(2, gen="b", n=3)) == base.delta(1) * QScalar.q_power(4)
        B = adtq()
        d_off = B.gen("D") - B.gen("D") * B.gen("z")
        assert ell_table(d_off) == -base.delta(1)

    def test_table_matches_derivation(self):
        for d in range(-3, 4):
            mons = [quotient_mon_word(d), quotient_mon_word(d, z=True)]
            mons += [
                quotient_mon_word(d, gen=g, n=n)
                for g in ("a", "d", "b", "c")
                for n in range(1, 4)
            ]
            for mon in mons:
                assert ell_from_j_mon(mon) == ell_table_mon(mon)

    def test_star_map(self):
        B = adtq()
        for text in ("D^2*b^3", "Dinv*c", "D*z", "a^2", "D^3"):
            e = el(text, B)
            assert ell_table(e.star()) == ell_table(e).star()


class TestCoaction:
    def test_formula_example(self):
        torus, base = at2(), az2()
        expected = TensorElement(
            (torus, base),
            {
                (torus.lattice_mon(2, 3), ("d0",)): QScalar.one(),
                (torus.lattice_mon(3, 2), ("d1",)): QScalar.one(),
            },
        )
        assert coaction_lambda_mon(2, 3) == expected

    def test_unit_and_diagonal(self):
        torus, base = at2(), az2()
        assert coaction_lambda(torus.unit()) == TensorElement(
            (torus, base),
            {((), ("d0",)): QScalar.one(), ((), ("d1",)): QScalar.one()},
        )
        diag = coaction_lambda_mon(2, 2)
        assert diag == TensorElement(
            (torus, base),
            {
                (torus.lattice_mon(2, 2), ("d0",)): QScalar.one(),
                (torus.lattice_mon(2, 2), ("d1",)): QScalar.one(),
            },
        )

    def test_formula_matches_derivation(self):
        for m in range(-3, 4):
            for n in range(-3, 4):
                assert coaction_lambda_from_ell(m, n) == coaction_lambda_mon(m, n)

    def test_star_algebra_homomorphism(self):
        torus = at2()
        for (k, l, m, n) in ((1, 0, 0, 1), (2, -1, 1, 1), (-2, 3, 1, -1)):
            x = torus.monomial(torus.lattice_mon(k, l))
            y = torus.monomial(torus.lattice_mon(m, n))
            assert coaction_lambda(x * y) == coaction_lambda(x) * coaction_lambda(y)
            assert coaction_lambda(x.star()) == coaction_lambda(x).star_legs()


_PHI_WINDOW = enumerate_basis(adtq(), BasisWindow(d_max=4, gen_max=5))


class TestBicross:
    def test_product_examples(self):
        bic = build_bicross_product()
        one_u = bic.monomial((0, 1, 0)) + bic.monomial((1, 1, 0))
        one_v = bic.monomial((0, 0, 1)) + bic.monomial((1, 0, 1))
        assert one_u * one_v == bic.monomial((0, 1, 1)) + bic.monomial(
            (1, 1, 1), QScalar.q_power(-1)
        )
        d0 = bic.monomial((0, 0, 0))
        assert d0 * d0 == d0

    def test_coproduct_pinned(self):
        bic = build_bicross_product()
        cop = bic.monomial((0, 1, 1)).coproduct()
        expected = TensorElement(
            (bic, bic),
            {
                ((0, 1, 1), (0, 1, 1)): QScalar.one(),
                ((1, 1, 1), (1, 1, 1)): QScalar.one(),
            },
        )
        assert cop == expected

    def test_hopf_axioms(self):
        assert all(c.passed for c in verify_hopf_axioms(build_bicross_product(), 3))

    def test_phi_examples(self):
        B = adtq()
        bic = build_bicross_product()
        assert phi_mon((0, 0, 0)) == B.gen("z")
        assert phi(bic.monomial((0, 1, 0)) + bic.monomial((1, 1, 0))) == el("a + c", B)
        assert phi_mon((1, 2, 2)) == el("D^2 - D^2*z", B)
        assert phi_mon((1, 1, 1)) == el("D*z - D", B)

    def test_phi_bijective_on_window(self):
        for conv in (CORRECTED, PRINTED):
            bic = build_bicross_product(conv)
            for mon in bic.basis_by_degree(6):
                assert phi_inverse(phi_mon(mon, conv), conv) == bic.monomial(mon)

    @given(
        st.sampled_from([CORRECTED, PRINTED]),
        st.lists(
            st.tuples(
                st.sampled_from(_PHI_WINDOW), st.integers(-3, 3).filter(bool), st.integers(-4, 4)
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_phi_after_phi_inverse_is_the_identity(self, conv, terms):
        B = adtq()
        x = B.combine((B.monomial(mon), QScalar.q_power(e, c)) for mon, c, e in terms)
        assert phi(phi_inverse(x, conv), conv) == x

    def test_phi_is_hopf_iso_on_samples(self):
        import random

        bic = build_bicross_product()
        B = adtq()
        rng = random.Random(11)
        mons = bic.basis_by_degree(3)
        for _ in range(200):
            m1, m2 = rng.choice(mons), rng.choice(mons)
            x, y = bic.monomial(m1), bic.monomial(m2)
            assert phi(x * y) == phi(x) * phi(y)
        for mon in mons:
            lhs = phi(bic.monomial(mon)).coproduct()
            rhs = (
                bic.coproduct_mon(mon)
                .apply_leg(0, lambda m: phi_mon(m), B)
                .apply_leg(1, lambda m: phi_mon(m), B)
            )
            assert lhs == rhs


class TestExactSequence:
    def test_generator_images(self):
        B, torus = adtq(), at2()
        assert prj(B.gen("a")) == torus.gen("u")
        assert prj(B.gen("d")) == torus.gen("v")
        assert prj(B.gen("b")).is_zero()
        assert prj(B.gen("D")) == torus.gen("u") * torus.gen("v")
        assert prj(B.gen("z")) == torus.unit()
        assert inj_mon(("d0",)) == B.gen("z")
        assert inj_mon(("d1",)) == B.unit() - B.gen("z")

    def test_off_corner_death_oracle(self):
        # z b = 0 in the quotient forces the projection to kill b
        assert adtq().normalize_word(("z", "b")).is_zero()

    def test_suite(self):
        assert all(c.passed for c in verify_exact_sequence(3))


class TestDiagram:
    def test_relation_transport_is_exact(self):
        assert torus_relation_defect().is_zero()

    def test_projection_of_generator_image(self):
        from qdtorus.galois import TorusCoaction

        rho = TorusCoaction()
        classical = rho.of_mon(("x",)).apply_leg(0, lambda m: prj(adtq().monomial(m)), at2())
        torus = at2()
        assert classical == TensorElement(
            (torus, rho.torus), {(torus.lattice_mon(1, 0), ("x",)): QScalar.one()}
        )

    def test_suite(self):
        assert all(c.passed for c in verify_prop14_diagram(4))

    def test_mutation_produces_defect(self):
        defect = torus_relation_defect("bc_weak")
        assert not defect.is_zero()
        checks = verify_prop14_diagram(4, mutation="bc_weak")
        assert checks[0].name == "diagram_mutation_detected" and checks[0].passed


class TestConventionReport:
    def test_corrected_is_coherent(self):
        report = convention_report("corrected")
        assert report == {
            "active": "corrected",
            "sigma_table_matches_convolution": True,
            "cocleaving_table_matches_derived": True,
            "right_colinearity": True,
        }

    def test_printed_reproduces_discrepancy(self):
        report = convention_report("printed")
        assert report["active"] == "printed"
        assert not report["sigma_table_matches_convolution"]
        assert not report["right_colinearity"]


class TestMethodDispatchers:
    """The two constructions of the cocycle, the cocleaving map and the
    coaction agree on linear combinations."""

    def test_cocycle_sigma_methods_agree(self):
        assert sigma_table(2, 1, 3, 1) == sigma_convolution(2, 1, 3, 1)

    def test_cocleaving_methods_agree(self):
        e = el("D^2*b^3 + z - Dinv*c")
        derived = az2().combine((ell_from_j_mon(mon), c) for mon, c in e.terms.items())
        assert ell_table(e) == derived

    def test_coaction_methods_agree(self):
        torus = at2()
        h = parse_element("u^2*v - 3*u^-1", torus)
        derived = TensorElement.combine(
            (torus, az2()),
            (
                (coaction_lambda_from_ell(*torus.lattice_exponents(mon)), c)
                for mon, c in h.terms.items()
            ),
        )
        assert coaction_lambda(h) == derived
