"""Acceptance criteria, one test per criterion, with stated time targets.

Each test prints a single line ``ACCEPTANCE <n> <name>: PASS (<seconds>)``;
the suite is the exit gate of the build.  Run with ``pytest -s`` to see the
lines unbuffered.
"""

import time
from contextlib import contextmanager

import pytest

from qdtorus.algebras import (
    BasisWindow,
    adtq,
    at2,
    auq2,
    az2,
    build_finite_quotient,
    enumerate_basis,
    quotient_mon_word,
)
from qdtorus.errors import NotInBaseImage
from qdtorus.galois import (
    CORRECTED,
    PRINTED,
    build_bicross_product,
    coaction_lambda,
    coaction_lambda_from_ell,
    coaction_lambda_mon,
    ell_from_j_mon,
    ell_table_mon,
    phi,
    phi_inverse,
    phi_mon,
    sigma_convolution,
    sigma_table,
    torus_relation_defect,
    verify_prop14_diagram,
)
from qdtorus.gns import gns_expectation, verify_gns_relations
from qdtorus.hopf import (
    haar,
    haar_biinvariance_checks,
    haar_gram_min_eigenvalue,
    verify_hopf_axioms,
)
from qdtorus.report import Check
from qdtorus.scalars import CyclotomicMode
from qdtorus import corep

THETA = 0.31


@contextmanager
def criterion(number: int, name: str, limit_seconds: float):
    started = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - started
        status = "FAIL" if failed else "PASS"
        print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.2f}s / {limit_seconds:.0f}s)")
        if not failed:
            assert elapsed < limit_seconds, f"runtime target exceeded: {elapsed:.1f}s"


def _assert_all(checks: list[Check]):
    bad = [c for c in checks if not c.passed]
    assert not bad, f"failed: {[(c.name, c.witness) for c in bad]}"


def test_criterion_1_confluence():
    with criterion(1, "confluence", 10):
        assert auq2().system.unresolved_pairs(6) == []
        assert adtq().system.unresolved_pairs(6) == []


def test_criterion_2_hopf_axioms():
    with criterion(2, "hopf_axioms", 60):
        for algebra in (auq2(), adtq(), at2(), az2(), build_bicross_product()):
            _assert_all(verify_hopf_axioms(algebra, 4))


def test_criterion_3_cocycle_cross_check():
    with criterion(3, "cocycle_cross_check", 60):
        count = 0
        for k in range(-3, 4):
            for l in range(-3, 4):
                for m in range(-3, 4):
                    for n in range(-3, 4):
                        assert sigma_convolution(k, l, m, n, CORRECTED) == sigma_table(
                            k, l, m, n
                        )
                        count += 1
        assert count == 2401
        with pytest.raises(NotInBaseImage):
            for m in range(-2, 3):
                sigma_convolution(1, 1, m, 0, PRINTED)


def test_criterion_4_cocleaving_cross_check():
    with criterion(4, "cocleaving_cross_check", 10):
        alg, base = adtq(), az2()
        for d in range(-3, 4):
            mons = [quotient_mon_word(d), quotient_mon_word(d, z=True)]
            mons += [
                quotient_mon_word(d, gen=g, n=n)
                for g in ("a", "d", "b", "c")
                for n in range(1, 4)
            ]
            for mon in mons:
                assert ell_from_j_mon(mon, CORRECTED) == ell_table_mon(mon)
                element = alg.monomial(mon)
                square = base.zero()
                for (m1, m2), c in element.coproduct().terms.items():
                    square = square + (ell_table_mon(m1) * ell_table_mon(m2)) * c
                assert square == base.unit() * element.counit()


def test_criterion_5_coaction_cross_check():
    with criterion(5, "coaction_cross_check", 10):
        torus = at2()
        for m in range(-3, 4):
            for n in range(-3, 4):
                formula = coaction_lambda_mon(m, n)
                assert coaction_lambda_from_ell(m, n, CORRECTED) == formula
                # star-algebra map and coaction laws
                element = torus.monomial(torus.lattice_mon(m, n))
                assert coaction_lambda(element.star()) == formula.star_legs()
                assert formula.counit_leg(1) == element
                other = coaction_lambda_mon(1, -1)
                assert formula * other == coaction_lambda(
                    element * torus.monomial(torus.lattice_mon(1, -1))
                )


def test_criterion_6_bicross_isomorphism():
    with criterion(6, "bicross_isomorphism", 60):
        import random

        bic = build_bicross_product()
        alg = adtq()
        window = bic.basis_by_degree(3)
        for mon in window:
            assert phi_inverse(phi_mon(mon)) == bic.monomial(mon)
        for mon in enumerate_basis(alg, BasisWindow(d_max=1, gen_max=2)):
            assert phi(phi_inverse(alg.monomial(mon))) == alg.monomial(mon)
        rng = random.Random(2026)
        for _ in range(200):
            x = bic.monomial(rng.choice(window))
            y = bic.monomial(rng.choice(window))
            assert phi(x * y) == phi(x) * phi(y)
        for mon in window:
            assert phi(bic.monomial(mon)).coproduct() == (
                bic.coproduct_mon(mon)
                .apply_leg(0, lambda m: phi_mon(m), alg)
                .apply_leg(1, lambda m: phi_mon(m), alg)
            )


def test_criterion_7_coaction_diagram():
    with criterion(7, "coaction_diagram", 10):
        _assert_all(verify_prop14_diagram(4))
        assert not torus_relation_defect("bc_weak").is_zero()


def test_criterion_8_haar():
    with criterion(8, "haar", 30):
        alg = adtq()
        _assert_all(haar_biinvariance_checks(alg, 5))
        assert str(haar(alg.gen("z"))) == "1/2"
        assert haar_gram_min_eigenvalue(alg, 3, THETA) >= -1e-9


def test_criterion_9_representation_theory():
    with criterion(9, "representation_theory", 60):
        families = corep.standard_families(2, 3)
        assert len(families) == 25
        assert corep.character_gram_is_identity(families).passed
        assert len(corep.intertwiner_space(corep.w_rep(0, 1), corep.w_rep(0, 1))) == 1
        alg = adtq()
        square = (alg.gen("a") + alg.gen("d")) ** 2
        assert corep.decompose_character(square, families) == {
            "w(0,2)": 1,
            "chiz(1)": 1,
            "chi(1)": 1,
        }
        _assert_all(corep.peter_weyl_checks(2, 3))


def test_criterion_10_gns():
    with criterion(10, "gns", 30):
        checks, defects = verify_gns_relations(6, THETA)
        _assert_all(checks)
        assert max(defects.values()) <= 1e-10
        alg = adtq()
        for mon in alg.basis_by_degree(4):
            element = alg.monomial(mon)
            numeric = gns_expectation(element, 6, THETA)
            exact = haar(element).eval_unit(THETA)
            assert abs(numeric - exact) <= 1e-10


def test_criterion_11_finite_quotient():
    with criterion(11, "finite_quotient", 30):
        small = build_finite_quotient(1, CyclotomicMode(2))
        assert small.dimension == 2
        # dimension pinned from the first correct build: the two corners
        # contribute 4 (commutative) + 4 (full matrix) over the 4th root
        big = build_finite_quotient(2, CyclotomicMode(4))
        assert big.dimension == 8
        parent = adtq()
        n, one, z = 2, parent.unit(), parent.gen("z")
        for gen_el in (
            parent.gen("a", n) - z,
            parent.gen("d", n) - z,
            parent.gen("b", n) - (one - z),
            parent.gen("c", n) - (one - z),
            parent.gen("D", n) - one,
        ):
            assert gen_el.counit().is_zero()
            assert big.from_parent(gen_el).is_zero()
            reduced = (
                gen_el.coproduct()
                .apply_leg(0, lambda m: big.from_parent(parent.monomial(m)), big)
                .apply_leg(1, lambda m: big.from_parent(parent.monomial(m)), big)
            )
            assert reduced.is_zero()
            assert big.from_parent(gen_el.antipode()).is_zero()
