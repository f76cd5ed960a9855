"""Hopf structure maps, convolution, the invariant state, corepresentations."""

import pytest

from qdtorus.algebras import adtq, at2, at2q, auq2, az2, tensor_of
from qdtorus.corep import (
    CorepMatrix,
    character_gram_is_identity,
    character_of,
    chi,
    chiz,
    decompose_character,
    direct_sum,
    intertwiner_space,
    peter_weyl_checks,
    standard_families,
    verify_corep,
    w_rep,
)
from qdtorus.errors import (
    CyclotomicModeUnsupported,
    IncompleteWindow,
    NotAHopfAlgebra,
    WindowExceeded,
)
from qdtorus.exprs import parse_element
from qdtorus.galois import (
    build_bicross_product,
    cleaving_j_inverse_mon,
    cleaving_j_mon,
    ell_table_mon,
)
from qdtorus.hopf import (
    _law_failures,
    broken_relations,
    convolve,
    haar,
    haar_biinvariance_checks,
    haar_gram_min_eigenvalue,
    proof_summary,
    verify_hopf_axioms,
)
from qdtorus.report import checks_from
from qdtorus.scalars import QScalar


def el(text, algebra=None):
    return parse_element(text, algebra or adtq())


class TestCoproduct:
    def test_generator_row(self):
        B = adtq()
        assert B.gen("a").coproduct() == tensor_of([B.gen("a"), B.gen("a")]) + tensor_of(
            [B.gen("b"), B.gen("c")]
        )

    def test_determinant_grouplike_rederived(self):
        B = adtq()
        det = el("a*d - q^-1*b*c", B)
        assert det == B.gen("D")
        assert det.coproduct() == tensor_of([B.gen("D"), B.gen("D")])

    def test_central_idempotent_splits(self):
        B = adtq()
        z = B.gen("z")
        one = B.unit()
        expected = tensor_of([z, z]) + tensor_of([one - z, one - z])
        assert z.coproduct() == expected

    def test_comodule_algebra_has_no_coproduct(self):
        with pytest.raises(NotAHopfAlgebra):
            at2q().gen("x").coproduct()


class TestCounit:
    @pytest.mark.parametrize("gen,value", [("a", "1"), ("b", "0"), ("z", "1")])
    def test_generators(self, gen, value):
        assert str(adtq().gen(gen).counit()) == value


class TestAntipode:
    def test_grouplike_inverts(self):
        B = adtq()
        assert B.gen("D").antipode() == B.gen("D", -1)

    def test_diagonal_entry(self):
        B = adtq()
        assert B.gen("a").antipode() == el("Dinv*d", B)

    def test_off_diagonal_entry(self):
        B = adtq()
        assert B.gen("b").antipode() == el("-q*b*Dinv", B)


class TestStar:
    def test_examples(self):
        B = adtq()
        assert B.gen("a").star() == el("Dinv*d", B)
        assert B.gen("D").star() == B.gen("D", -1)
        assert B.gen("a").star().star() == B.gen("a")


class TestAxioms:
    @pytest.mark.parametrize("factory", [auq2, adtq, at2, az2])
    def test_all_pass(self, factory):
        checks = verify_hopf_axioms(factory(), 3)
        assert all(c.passed for c in checks)

    def test_mutated_relation_fails_with_witness(self):
        checks = verify_hopf_axioms(adtq("bc_weak"), 3)
        failed = [c for c in checks if not c.passed]
        assert failed and all(c.witness for c in failed)


def _quotient_with(antipode=None, coproduct=None, star=None):
    """A fresh, unpublished copy of ADTq built from planted letter tables."""
    from unittest import mock

    from qdtorus import algebras

    rules = algebras._qg_base_rules() + algebras._quotient_extra_rules()
    with mock.patch.dict(algebras._QG_COPRODUCT, coproduct or {}), mock.patch.dict(
        algebras._QG_ANTIPODE, antipode or {}
    ), mock.patch.dict(algebras._QG_STAR, star or {}):
        return algebras.QGroupAlgebra("ADTq!planted", rules)


def _b_sign_flip():
    return _quotient_with(coproduct={"b": [(1, ("a",), ("b",)), (-1, ("b",), ("d",))]})


def _negated_antipode_of_b():
    return _quotient_with(antipode={"b": [(QScalar.q_power(-1), ("Dinv", "b"))]})


def _wrong_star_of_b():
    # b* is -q*Dinv*c; the planted image has q^-1 in place of q
    return _quotient_with(star={"b": [(QScalar.q_power(-1, -1), ("Dinv", "c"))]})


def _scan(alg, degree):
    """The six law checks from a scan of the basis up to ``degree``."""
    failures = _law_failures(alg, alg.basis_by_degree(degree))
    return checks_from({f"hopf_{alg.tag}_{law}": scan for law, scan in failures.items()})


class TestAxiomCertificate:
    """The relation-and-generator certificate against the basis scan."""

    @pytest.mark.parametrize(
        "factory, degree",
        [(auq2, d) for d in range(5)] + [(f, d) for f in (adtq, at2, az2) for d in (0, 2, 4)],
    )
    def test_certificate_agrees_with_the_scan(self, factory, degree):
        alg = factory()
        scan = _scan(alg, degree)
        assert verify_hopf_axioms(alg, degree) == scan
        assert all(c.passed for c in scan)

    def test_bicross_keeps_its_window_scan(self):
        bic = build_bicross_product()
        checks = verify_hopf_axioms(bic, 3)
        assert checks == _scan(bic, 3)
        assert proof_summary(bic, 3, checks) == "window max_deg=3"

    def test_a_passing_certificate_scans_no_window(self, monkeypatch):
        from qdtorus import hopf

        scanned = []
        real = hopf._law_failures

        def recording(algebra, mons):
            scanned.append(list(mons))
            return real(algebra, mons)

        monkeypatch.setattr(hopf, "_law_failures", recording)
        alg = auq2()
        checks = verify_hopf_axioms(alg, 6)
        assert all(c.passed for c in checks)
        assert scanned == [alg.basis_by_degree(1)]  # the unit and the 7 letters
        assert proof_summary(alg, 6, checks) == (
            "all degrees: 24 relations × {Δ, ε, S, *}; six laws on 7 generators"
        )

    @pytest.mark.parametrize(
        "planted",
        [lambda: adtq("bc_weak"), _b_sign_flip, _negated_antipode_of_b, _wrong_star_of_b],
        ids=["bc_weak", "b_sign_flip", "negated_antipode_of_b", "wrong_star_of_b"],
    )
    def test_planted_defects_fail_with_the_unit_window(self, planted):
        alg = planted()
        checks = verify_hopf_axioms(alg, 0)
        failed = [c for c in checks if not c.passed]
        assert failed and all(c.witness for c in failed), checks
        assert proof_summary(alg, 0, checks) == "window max_deg=0"

    def test_the_unit_window_alone_misses_bc_weak(self):
        alg = adtq("bc_weak")
        assert all(c.passed for c in _scan(alg, 0))

    def test_broken_relations_name_the_maps(self):
        assert broken_relations(adtq()) == {}
        assert broken_relations(adtq("bc_weak")) == {
            "coproduct": "c*b",
            "antipode": "c*b",
            "star": "b*c",
        }
        assert set(broken_relations(_negated_antipode_of_b())) == {"antipode"}
        assert set(broken_relations(_wrong_star_of_b())) == {"star"}
        assert "coproduct" in broken_relations(_b_sign_flip())

    def test_a_failed_certificate_keeps_the_scan_witnesses(self):
        alg = adtq("bc_weak")
        scan = _scan(alg, 3)
        proved = verify_hopf_axioms(alg, 3)
        for found, kept in zip(scan, proved):
            assert not kept.passed
            if not found.passed:
                assert kept.witness == found.witness
            else:
                assert kept.witness.startswith("relation ")

    @pytest.mark.parametrize("planted", [_negated_antipode_of_b, _wrong_star_of_b])
    @pytest.mark.parametrize("degree", [1, 3])
    def test_a_planted_letter_table_fails_as_the_scan_does(self, planted, degree):
        alg = planted()
        checks = verify_hopf_axioms(alg, degree)
        assert checks == _scan(alg, degree)
        failed = [c for c in checks if not c.passed]
        assert failed and all(c.witness for c in failed), checks

    def test_the_benchmark_canary(self):
        """The planted defect the benchmark requires the verifier to catch."""
        found = {c.name: c for c in verify_hopf_axioms(adtq("bc_weak"), 3)}
        law = found["hopf_ADTq!bc_weak_antipode_law"]
        assert (law.passed, law.witness) == (False, "z")


class TestConvolution:
    def test_unit_counit_is_idempotent(self):
        B = adtq()

        def eta_eps(mon):
            return B.unit() * B.counit_mon(mon)

        for mon in B.basis_by_degree(3):
            assert convolve(eta_eps, eta_eps, B.monomial(mon), B) == eta_eps(mon)

    def test_cocleaving_self_inverse(self):
        B, base = adtq(), az2()
        for mon in B.basis_by_degree(4):
            square = convolve(ell_table_mon, ell_table_mon, B.monomial(mon), base)
            assert square == base.unit() * B.counit_mon(mon)

    def test_cleaving_convolution_inverse_on_generator(self):
        torus, B = at2(), adtq()

        def j(mon):
            return cleaving_j_mon(*torus.lattice_exponents(mon))

        def j_inv(mon):
            return cleaving_j_inverse_mon(*torus.lattice_exponents(mon))

        u = torus.gen("u")
        assert convolve(j, j_inv, u, B) == B.unit()
        assert cleaving_j_inverse_mon(1, 0) == el("Dinv*d - q^-1*Dinv*b", B)


class TestHaar:
    def test_values(self):
        B = adtq()
        assert haar(B.unit()) == QScalar.one()
        assert haar(B.gen("D", 3) * B.gen("a", 2)).is_zero()
        assert str(haar(B.gen("z"))) == "1/2"

    def test_weight_forced_by_invariance(self):
        # (id x h) applied to the coproduct of the central group-like must be
        # h of it times the unit, which pins the idempotent weights to 1/2
        B = adtq()
        g = el("2*z - 1", B)
        cop = g.coproduct()
        contracted = B.zero()
        for (m1, m2), c in cop.terms.items():
            contracted = contracted + B.monomial(m1) * (c * haar(B.monomial(m2)))
        assert contracted == B.unit() * haar(g)
        assert haar(g).is_zero()

    def test_biinvariance(self):
        assert all(c.passed for c in haar_biinvariance_checks(adtq(), 5))

    def test_gram_positive(self):
        assert haar_gram_min_eigenvalue(adtq(), 3, 0.31) >= -1e-9

    def test_rejects_other_algebras(self):
        with pytest.raises(WindowExceeded):
            haar(auq2().gen("a"))


def _corep_laws(w):
    """The coproduct and counit checks of ``verify_corep``, without unitarity."""
    return [c for c in verify_corep(w) if not c.name.endswith("_unitary")]


class TestCoreps:
    def test_layout_is_the_printed_one(self):
        w = w_rep(0, 1)
        transposed = CorepMatrix(w.label, tuple(zip(*w.entries)))
        assert all(c.passed for c in _corep_laws(w))
        assert not all(c.passed for c in _corep_laws(transposed))

    def test_fundamental(self):
        assert all(c.passed for c in verify_corep(w_rep(0, 1)))

    def test_twisted_line(self):
        assert all(c.passed for c in verify_corep(chiz(1)))

    def test_perturbed_matrix_fails(self):
        B = adtq()
        bad = CorepMatrix(
            "perturbed",
            (
                (B.gen("a"), B.gen("b")),
                (B.gen("c"), B.gen("d") + B.gen("b")),
            ),
        )
        checks = _corep_laws(bad)
        failed = [c for c in checks if not c.passed]
        assert failed and failed[0].witness

    def test_characters(self):
        B = adtq()
        assert character_of(w_rep(0, 1)) == B.gen("a") + B.gen("d")
        assert character_of(chi(2)) == B.gen("D", 2)
        assert character_of(w_rep(1, 2)) == el("D*a^2 + D*d^2", B)

    def test_character_multiplicativity_on_grouplikes(self):
        assert character_of(chi(1)) * character_of(chi(2)) == character_of(chi(3))


class TestDecomposition:
    def test_square_of_fundamental_character(self):
        B = adtq()
        square = (B.gen("a") + B.gen("d")) ** 2
        mults = decompose_character(square, standard_families(2, 3))
        assert mults == {"w(0,2)": 1, "chi(1)": 1, "chiz(1)": 1}

    def test_grouplike_product(self):
        product = character_of(chi(1)) * character_of(chi(2))
        assert decompose_character(product, standard_families(3, 1)) == {"chi(3)": 1}

    def test_irreducible_is_itself(self):
        char = character_of(w_rep(0, 1))
        assert decompose_character(char, standard_families(1, 2)) == {"w(0,1)": 1}

    def test_incomplete_window(self):
        B = adtq()
        with pytest.raises(IncompleteWindow):
            decompose_character((B.gen("a") + B.gen("d")) ** 2, standard_families(0, 1))


class TestIntertwiners:
    def test_schur_dimension_one(self):
        basis = intertwiner_space(w_rep(0, 1), w_rep(0, 1))
        assert len(basis) == 1
        t = basis[0]
        assert t[0][0] == t[1][1] and t[0][1].is_zero() and t[1][0].is_zero()

    def test_inequivalent_lines(self):
        assert intertwiner_space(chi(1), chiz(1)) == []

    def test_isotypic_block(self):
        two = direct_sum(chi(1), chi(1))
        assert len(intertwiner_space(two, two)) == 4

    def test_cyclotomic_mode_refused(self):
        from qdtorus.algebras import build_finite_quotient
        from qdtorus.scalars import CyclotomicMode

        alg = build_finite_quotient(2, CyclotomicMode(4))
        fake = CorepMatrix("fd", ((alg.gen("D"),),))
        with pytest.raises(CyclotomicModeUnsupported):
            intertwiner_space(fake, fake)


def test_character_gram_identity():
    assert character_gram_is_identity(standard_families(2, 3)).passed


def test_peter_weyl_coverage():
    assert all(c.passed for c in peter_weyl_checks(2, 3))
