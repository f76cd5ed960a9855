"""Cross-cutting suite properties: full run, mutation sensitivity, misc."""

import json
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

from qdtorus import algebras, galois
from qdtorus.algebras import adtq, at2, az2, corner_element
from qdtorus.errors import NotInBaseImage
from qdtorus.exprs import parse_element
from qdtorus.gns import LatticeWindow, apply_element, operator_set
from qdtorus.scalars import QScalar
from qdtorus.suites import SuiteParams, run_suite
from qdtorus.words import RewriteRule, RewriteSystem


def test_verify_all_passes_with_defaults():
    report = run_suite("all", SuiteParams(algebra="all"))
    assert report.ok
    assert "gns_max_defect_per_relation" in report.params
    assert "algebra_notes" in report.params


_ROOT = pathlib.Path(__file__).parent.parent

_TRACED_EXACTSEQ = """
import layertrace
from qdtorus.suites import run_suite

tracer = layertrace.Tracer()
layertrace.install(tracer)
assert run_suite("exactseq").ok
metrics = layertrace.layer_metrics(tracer)
assert metrics["suites.exactseq_s"][0] > 0 and metrics["words.normalize_calls"][0] > 0
"""


def test_the_benchmark_layer_trace_installs_and_runs():
    """`perfbench/run.py --trace 1` wraps package functions and methods by
    name; a deletion or rename of one of them fails here first."""
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_EXACTSEQ],
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(_ROOT / "src"), str(_ROOT / "perfbench")]),
        },
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_sigma_branch_mutation_flips_the_suite(monkeypatch):
    original = galois.sigma_q_exponent

    def mutated(k, l, m, n):
        if k > l and m > n:
            return -2 * k * n + 1  # seeded off-by-one in one branch
        return original(k, l, m, n)

    monkeypatch.setattr(galois, "sigma_q_exponent", mutated)
    report = run_suite("cocycle", SuiteParams(range=2))
    assert not report.ok


def test_pi_weight_mutation_flips_the_report(monkeypatch):
    from qdtorus import gns

    real = gns.lattice_shifts

    def wrong(m, n, power):  # exponent 2n in place of 2n - 1 in the b weight
        shifts = real(m, n, power)
        sector, m2, n2, weight = shifts["b"]
        shifts["b"] = (sector, m2, n2, np.where(n > 0, -power(2 * n), weight))
        return shifts

    gns.operator_set.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(gns, "lattice_shifts", wrong)
            checks, _ = gns.verify_gns_relations(5, 0.31)
    finally:
        gns.operator_set.cache_clear()  # the wrong operators reach no other test
    failed = {c.name for c in checks if not c.passed}
    assert "gns_defining_relations" in failed, failed


def test_antipode_squared_is_identity_on_commutative_cases():
    for algebra in (at2(), az2()):
        for mon in algebra.basis_by_degree(3):
            element = algebra.monomial(mon)
            assert element.antipode().antipode() == element


def test_commutation_defects_on_random_interior_vectors():
    alg = adtq()
    opset = operator_set(6, 0.31)
    interior = LatticeWindow(6).interior()
    rng = random.Random(31)
    relations = [
        parse_element(text, alg)
        for text in (
            "b*a - q*a*b",
            "c*a - q^-1*a*c",
            "b*d - q*d*b",
            "c*d - q^-1*d*c",
            "a*d - D*z",
            "b*c - q*D*z + q*D",
            "z*z - z",
            "a*b",
            "d*c",
        )
    ]
    for relation in relations:
        for _ in range(50):
            site = rng.choice(interior)
            image = apply_element(relation, {site: 1.0 + 0j}, opset, strict=False)
            norm = sum(abs(v) ** 2 for v in image.values()) ** 0.5
            assert norm <= 1e-10


def test_unit_modulus_of_pure_powers():
    rng = random.Random(8)
    for _ in range(50):
        k = rng.randint(-40, 40)
        theta = rng.random()
        assert abs(abs(QScalar.q_power(k).eval_unit(theta)) - 1.0) <= 1e-12


def test_gns_report_includes_defects():
    report = run_suite("gns", SuiteParams(window=5))
    defects = report.params["gns_max_defect_per_relation"]
    assert defects and all(float(v) <= 1e-10 for v in defects.values())


def test_duration_covers_the_convention_section(monkeypatch):
    import time

    real = galois.convention_report

    def slow(name="corrected"):
        time.sleep(0.4)
        return real(name)

    monkeypatch.setattr(galois, "convention_report", slow)
    report = run_suite("haar", SuiteParams())
    assert report.ok
    assert report.duration_ms >= 400


@pytest.mark.parametrize(
    "n, order, dimension",
    [(1, 2, 2), (2, 4, 8), (3, 6, 18), (3, 18, 9), (4, 8, 32), (4, 16, 16)],
)
def test_fdquot_dimension_is_checked_for_every_n(n, order, dimension):
    from qdtorus.algebras import build_finite_quotient
    from qdtorus.scalars import CyclotomicMode

    assert build_finite_quotient(n, CyclotomicMode(order)).dimension == dimension
    report = run_suite("fdquot", SuiteParams(quotient_n=n, q_root=order))
    assert report.ok, [(c.name, c.witness) for c in report.checks if not c.passed]


def test_fdquot_dimension_check_rejects_a_planted_dimension(monkeypatch):
    from qdtorus.algebras import build_finite_quotient
    from qdtorus.scalars import CyclotomicMode

    alg = build_finite_quotient(3, CyclotomicMode(18))
    monkeypatch.setattr(alg, "dimension", 18)  # the 2n^2 of an order dividing 2n
    report = run_suite("fdquot", SuiteParams(quotient_n=3, q_root=18))
    found = {c.name: c for c in report.checks}
    assert not found["fdquot_dimension"].passed
    assert found["fdquot_dimension"].witness == "dimension 18, expected 9"


@pytest.mark.parametrize("n, order", [(2, 4), (3, 6)])
def test_fdquot_hopf_ideal_checks_the_star(n, order, monkeypatch):
    """With q*b* planted as ADTq's b*, the star of b^n - (1 - z) leaves the
    ideal, and the quotient map fails the star law there first."""
    from qdtorus.algebras import build_finite_quotient
    from qdtorus.scalars import CyclotomicMode

    build_finite_quotient(n, CyclotomicMode(order))  # built first, so it keeps the true *
    parent = adtq()
    monkeypatch.setitem(parent._star_letter, "b", parent._star_letter["b"] * algebras.Q)
    monkeypatch.setattr(parent, "_star_cache", {(): parent.unit()})
    report = run_suite("fdquot", SuiteParams(quotient_n=n, q_root=order))
    found = {c.name: c for c in report.checks}
    check = found["fdquot_hopf_ideal"]
    assert (check.passed, check.witness) == (False, "star at b^n-(1-z)")


def _fdquot_statuses(monkeypatch, n, order, add_rule):
    """The fdquot checks of (n, order) on a quotient built with ``add_rule``."""
    with monkeypatch.context() as patch:
        patch.setattr(RewriteSystem, "add_rule", add_rule)
        alg = algebras._finite_quotient_cached.__wrapped__(n, order)
    monkeypatch.setattr(algebras, "_finite_quotient_cached", lambda n, order: alg)
    report = run_suite("fdquot", SuiteParams(quotient_n=n, q_root=order))
    return {c.name: c.passed for c in report.checks}


def _written_patterns(n, order):
    """The patterns the build adds to the presentation of (n, order)."""
    written = algebras._finite_quotient_cached(n, order).system.rules
    return [r.pattern for r in written[len(algebras._quotient_presentation(n, order).rules) :]]


_WRITTEN_CASES = [
    (n, order, pattern)
    for n, order in [(2, 4), (3, 6), (3, 18), (4, 8), (4, 16)]
    for pattern in _written_patterns(n, order)
]


@pytest.mark.parametrize(
    "n, order, pattern", _WRITTEN_CASES, ids=[f"{n}-{o}-{''.join(p)}" for n, o, p in _WRITTEN_CASES]
)
def test_every_written_relation_is_needed(n, order, pattern, monkeypatch):
    add_rule = RewriteSystem.add_rule

    def dropping(system, rule):
        if rule.pattern != pattern:
            add_rule(system, rule)

    statuses = _fdquot_statuses(monkeypatch, n, order, dropping)
    assert not (statuses["fdquot_confluent"] and statuses["fdquot_dimension"])


@pytest.mark.parametrize("run", ["b", "c"])
def test_a_wrong_sign_of_kappa_fails_confluence(run, monkeypatch):
    add_rule = RewriteSystem.add_rule

    def flipping(system, rule):
        if rule.pattern == ("D", run):
            rule = RewriteRule(rule.pattern, tuple((-c, w) for c, w in rule.result))
        add_rule(system, rule)

    assert _fdquot_statuses(monkeypatch, 2, 4, flipping)["fdquot_confluent"] is False


def test_a_root_condition_one_power_off_fails_the_fdquot_suite(monkeypatch):
    def one_off(n, mode):
        return mode.canon((-algebras.Q) ** (n * n + 1)) == algebras.ONE

    monkeypatch.setattr(algebras, "root_condition_holds", one_off)
    assert not run_suite("fdquot").ok


def test_cocycle_suite_uses_the_range(monkeypatch):
    seen = []
    real = galois.verify_cocycle_condition

    def recording(exp_range):
        seen.append(exp_range)
        return real(exp_range)

    monkeypatch.setattr(galois, "verify_cocycle_condition", recording)
    report = run_suite("cocycle", SuiteParams(range=3))
    assert seen == [3]
    assert {c.name: c.passed for c in report.checks}["cocycle_identity"]


def test_warm_caches_do_not_hide_the_sigma_mutation(monkeypatch):
    assert run_suite("cocycle").ok  # every memo of the suite is now warm
    original = galois.sigma_q_exponent

    def mutated(k, l, m, n):
        if k > l and m > n:
            return -2 * k * n + 1  # the off-by-one of the branch mutation above
        return original(k, l, m, n)

    monkeypatch.setattr(galois, "sigma_q_exponent", mutated)
    report = run_suite("cocycle")
    failed = [c for c in report.checks if not c.passed]
    assert failed and all(c.witness for c in failed)


def test_a_sigma_defect_beyond_the_cross_check_range_fails_the_identity(monkeypatch):
    """The cross-check and the normalization read sigma on [-3, 3]^4; the
    identity scan reaches hg = u^-6v^-6, so only it sees a defect at |k| >= 4."""
    original = galois.sigma_q_exponent

    def mutated(k, l, m, n):
        return original(k, l, m, n) + (2 if abs(k) >= 4 else 0)

    monkeypatch.setattr(galois, "sigma_q_exponent", mutated)
    report = run_suite("cocycle")
    statuses = {c.name: (c.passed, c.witness) for c in report.checks}
    assert statuses["cocycle_identity"] == (False, "(u^-3v^-3, u^-3v^-3, u^-3v^-3)")
    assert statuses["sigma_table_equals_convolution"] == (True, None)
    assert statuses["sigma_normalized"] == (True, None)
    section = report.cleaving_convention
    assert section.pop("active") == "corrected"
    assert section == dict.fromkeys(section, True) and len(section) == 3


def test_a_coboundary_defect_fails_only_the_cross_check(monkeypatch):
    """sigma is a bicharacter times the coboundary of f, and every f gives a
    cocycle, so the identity cannot see a defect of f; the comparison with
    j(h) j(g) j*(hg) sees it wherever |k+m|, |l+n| <= 2 * range."""
    original = galois._coboundary_exponent

    def mutated(k, l):
        return original(k, l) + (1 if k == l and abs(k) >= 4 else 0)

    monkeypatch.setattr(galois, "_coboundary_exponent", mutated)
    statuses = {c.name: c.passed for c in run_suite("cocycle").checks}
    assert statuses["sigma_table_equals_convolution"] is False
    assert statuses["cocycle_identity"] is True


def test_convention_section_is_recomputed_after_a_warm_run(monkeypatch):
    warm = run_suite("haar")
    assert warm.cleaving_convention["sigma_table_matches_convolution"] is True
    original = galois.sigma_q_exponent

    def mutated(k, l, m, n):
        if k > l and m > n:
            return -2 * k * n + 1  # the off-by-one of the branch mutation above
        return original(k, l, m, n)

    monkeypatch.setattr(galois, "sigma_q_exponent", mutated)
    report = run_suite("haar")
    assert report.cleaving_convention["sigma_table_matches_convolution"] is False


# One planted defect per suite, each in a copy of the package run in a fresh
# process: (suite, file, original text, planted text, expected check statuses).
_PLANTED_DEFECTS = {
    "haar": (
        "hopf.py",
        "QScalar.of(Fraction(1, 2))",
        "QScalar.of(Fraction(1, 3))",
        {"haar_weights": "fail", "haar_weight_half_forced_by_invariance": "fail"},
    ),
    "cleaving": (
        "galois.py",
        "(-1 if m % 2 else 1)",
        "(-1 if m % 2 else 1) * (-1 if k < l else 1)",
        {"cocleaving_table_equals_derived": "fail", "coaction_formula_equals_derived": "fail"},
    ),
    # exponents of q stay unreduced, so the build crashes, and every check
    # still reports under its own name
    "fdquot": (
        "scalars.py",
        "r = residues[k % self.order]",
        "r = residues[k]",
        {
            "fdquot_dimension": "fail",
            "fdquot_confluent": "fail",
            "fdquot_hopf_ideal": "fail",
            "fdquot_symbolic_refused": "pass",
        },
    ),
    # a sign flip in the coproduct of b: the certificate breaks on b*c, and
    # the laws fail on the generators
    "hopf": (
        "algebras.py",
        '(1, ("b",), ("d",))',
        '(-1, ("b",), ("d",))',
        {
            "hopf_ADTq_coassociativity": "fail",
            "hopf_ADTq_counit_law": "fail",
            "hopf_ADTq_coproduct_star": "fail",
        },
    ),
    # the elimination never reaches the last unknown, so a Schur space that
    # should be zero gets a dimension
    "characters": (
        "linalg.py",
        "    for col in range(ncols):\n",
        "    for col in range(ncols - 1):\n",
        {"intertwiner_dimensions": "fail"},
    ),
    # a wrong sign in the q-power of the k > l twist of the cleaving map:
    # the convolution cocycle and Phi stop matching the table and the product
    "cocycle": (
        "galois.py",
        "m * m if k > l",
        "-m * m if k > l",
        {"sigma_table_equals_convolution": "fail"},
    ),
    "bicross": (
        "galois.py",
        "m * m if k > l",
        "-m * m if k > l",
        {"bicross_phi_algebra_hom": "fail", "bicross_phi_coalgebra_hom": "fail"},
    ),
    # the projection keeps the c corner
    "exactseq": (
        "galois.py",
        "for i, k, l in corner_triples(mon) if i == 0",
        "for i, k, l in corner_triples(mon) if i == 0 or k > l",
        {"exactseq_prj_hopf_star_map": "fail", "exactseq_kernel_is_offdiagonal_ideal": "fail"},
    ),
    # a sign flip in the coaction of y
    "diagram": (
        "galois.py",
        "tensor_of([c, x]) + tensor_of([d, y])",
        "tensor_of([c, x]) - tensor_of([d, y])",
        {
            "diagram_coaction_coassociative": "fail",
            "diagram_coaction_counit": "fail",
            "diagram_commutes_with_projection": "fail",
            "diagram_generator_images_unitary": "fail",
            "diagram_star_map": "fail",
        },
    ),
    # a wrong exponent in the c lattice weight
    "gns": (
        "gns.py",
        "-power(-2 * m - 1)",
        "-power(-2 * m)",
        {"gns_defining_relations": "fail", "gns_adjoint_consistency": "fail"},
    ),
}


def _verify_with_a_planted_defect(tmp_path, name, original, planted, *argv):
    """The checks of ``qdtorus verify *argv`` run on a copy of the package in
    which ``original`` in module ``name`` reads ``planted``; the run must
    exit 1 and give every failed check a witness."""
    import json
    import shutil

    shutil.copytree(_ROOT / "src" / "qdtorus", tmp_path / "qdtorus", ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp_path / "qdtorus" / name
    text = target.read_text()
    assert text.count(original) == 1, f"the defect site moved in {name}"
    target.write_text(text.replace(original, planted))
    proc = subprocess.run(
        [sys.executable, "-m", "qdtorus", "verify", *argv, "--report", "json"],
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1, proc.stderr[-2000:]
    checks = json.loads(proc.stdout)["checks"]
    failed = [c for c in checks if c["status"] == "fail"]
    assert failed and all(c.get("witness") for c in failed), failed
    return checks


@pytest.mark.parametrize("suite", sorted(_PLANTED_DEFECTS))
def test_a_planted_defect_fails_its_suite(suite, tmp_path):
    name, original, planted, expected = _PLANTED_DEFECTS[suite]
    checks = _verify_with_a_planted_defect(tmp_path, name, original, planted, suite)
    assert expected.items() <= {c["name"]: c["status"] for c in checks}.items(), checks


@pytest.mark.parametrize(
    "original, planted, expected",
    [
        # every diagonal triple of the quantum corner lands on its origin
        (
            "k = l = -k if conv == PRINTED else k",
            "k = l = 0",
            {"bicross_phi_bijective": "fail"},
        ),
        # a wrong coefficient is still a unit times one triple
        (
            "m * m if k > l",
            "-m * m if k > l",
            {
                "bicross_phi_bijective": "pass",
                "bicross_phi_algebra_hom": "fail",
                "bicross_phi_coalgebra_hom": "fail",
            },
        ),
    ],
    ids=["collision", "coefficient"],
)
def test_phi_bijectivity_is_read_on_triples(original, planted, expected, tmp_path):
    checks = _verify_with_a_planted_defect(tmp_path, "galois.py", original, planted, "bicross")
    assert expected.items() <= {c["name"]: c["status"] for c in checks}.items(), checks


# Defects in ADTq's closed-form product that the 33 relations cannot see:
# each fires only beyond the lattice points of two letters.  The cocycle
# convolution multiplies quantum triples with the same ``corner_product``,
# so the twist defect fails its cross-check too.
_PLANTED_PRODUCT_DEFECTS = {
    "twist_sign_from_k_5": (
        "twist = 2 * (l1 - k1) * k2",
        "twist = (-2 if abs(k) >= 5 else 2) * (l1 - k1) * k2",
        {"sigma_table_equals_convolution"},
    ),
    "classical_coefficient_2_from_n_6": (
        "coeff = ONE\n",
        "coeff = QScalar.of(2 if abs(k - l) >= 6 else 1)\n",
        set(),
    ),
}


@pytest.mark.parametrize("defect", sorted(_PLANTED_PRODUCT_DEFECTS))
def test_a_planted_product_defect_fails_every_adtq_law(defect, tmp_path):
    original, planted, also_failed = _PLANTED_PRODUCT_DEFECTS[defect]
    checks = _verify_with_a_planted_defect(tmp_path, "algebras.py", original, planted, "all")
    laws = [c for c in checks if c["name"].startswith("hopf_ADTq_")]
    assert len(laws) == 6 and all(c["status"] == "fail" for c in laws), laws
    assert also_failed <= {c["name"] for c in checks if c["status"] == "fail"}


@pytest.mark.parametrize(
    "n, order, witness",
    [
        (1, 2, "(-q)^1 != 1 for a primitive root of order 2"),
        (3, 6, "(-q)^9 != 1 for a primitive root of order 6"),
    ],
)
def test_fdquot_needs_the_reduction_modulo_the_cyclotomic_polynomial(n, order, witness, tmp_path):
    """Without the reduction modulo Phi_M the scalars live in Q[q]/(q^M - 1),
    where (-q)^(n^2) = 1 can fail although it holds at the primitive root:
    at order 2 the root condition forces q = -1, which is no identity of
    that ring.  So these pairs are refused, and each check says why.  The
    build itself divides by nothing, so where that root check passes the
    written relations still give a confluent quotient of the right size."""
    checks = _verify_with_a_planted_defect(
        tmp_path,
        "scalars.py",
        "QScalar.q_power(j).reduce_mod_poly(phi)._terms",
        "QScalar.q_power(j)._terms",
        "fdquot", "--quotient-n", str(n), "--q-root", str(order),
    )
    statuses = {c["name"]: (c["status"], c.get("witness") or "") for c in checks}
    assert statuses.pop("fdquot_symbolic_refused")[0] == "pass"
    assert sorted(statuses) == ["fdquot_confluent", "fdquot_dimension", "fdquot_hopf_ideal"]
    assert all(status == "fail" and got.startswith(witness) for status, got in statuses.values())


@pytest.mark.parametrize("jobs", [1, 4])
def test_gns_relations_run_once_per_report(monkeypatch, jobs):
    import qdtorus.gns as gns

    calls = []
    real = gns.verify_gns_relations

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gns, "verify_gns_relations", counting)
    params = SuiteParams(window=5, jobs=jobs)
    first = run_suite("gns", params)
    second = run_suite("gns", params)  # a run never reuses another's result
    assert calls == [(5, 0.31), (5, 0.31)]
    for report in (first, second):
        assert report.ok and report.params["gns_max_defect_per_relation"]


@pytest.mark.parametrize("jobs", [1, 4])
def test_finite_quotient_built_once_per_run(monkeypatch, jobs):
    """The three fdquot checks on the quotient share one build per run, and
    the next run builds again; the symbolic refusal (mode None) is apart."""
    from qdtorus import suites

    built = []
    real = suites.build_finite_quotient

    def counting(n, mode):
        if mode is not None:
            built.append((n, mode.order))
        return real(n, mode)

    monkeypatch.setattr(suites, "build_finite_quotient", counting)
    for _ in range(2):
        report = run_suite("fdquot", SuiteParams(jobs=jobs))
        assert report.ok and len(report.checks) == 4
    assert built == [(2, 4), (2, 4)]


@pytest.mark.parametrize("jobs", [1, 4])
def test_bicross_hopf_axioms_run_once_per_run(monkeypatch, jobs):
    """The hopf and bicross suites of one ``verify all`` share one scan of
    the bicross product's Hopf axioms, and the next run scans again, so a
    defect planted between two runs fails both groups of the second."""
    from qdtorus import suites

    tag = galois.build_bicross_product(galois.CORRECTED).tag
    scanned = []
    real = suites.verify_hopf_axioms

    def counting(algebra, max_degree):
        scanned.append(algebra.tag)
        return real(algebra, max_degree)

    monkeypatch.setattr(suites, "verify_hopf_axioms", counting)

    def bicross_counit_statuses():
        report = run_suite("all", SuiteParams(jobs=jobs))
        assert scanned.count(tag) == 1
        scanned.clear()
        group = [c for c in report.checks if c.name.startswith(f"hopf_{tag}_")]
        assert len(group) == 12  # six laws, reported by the hopf and the bicross suite
        return [c.passed for c in group if c.name.endswith("_counit_law")]

    assert bicross_counit_statuses() == [True, True]
    monkeypatch.setattr(galois.BicrossAlgebra, "counit_mon", lambda self, mon: QScalar.one())
    assert bicross_counit_statuses() == [False, False]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_crashing_check_is_contained(monkeypatch, capsys, jobs):
    import json

    from qdtorus import cli, suites

    def planted():
        raise ZeroDivisionError("planted")

    honest = suites._SUITE_BUILDERS["haar"]
    monkeypatch.setitem(suites._SUITE_BUILDERS, "haar", lambda p: [*honest(p), planted])
    report = run_suite("haar", SuiteParams(jobs=jobs))
    crashed = [c for c in report.checks if c.name == "haar"]
    assert [(c.passed, c.witness) for c in crashed] == [(False, "ZeroDivisionError: planted")]
    assert all(c.passed for c in report.checks if c.name != "haar")  # the rest still ran

    code = cli.main(["verify", "haar", "--report", "json", "--jobs", str(jobs)])
    out, err = capsys.readouterr()
    assert code == 1 and "Traceback" not in err
    assert {"name": "haar", "status": "fail", "witness": "ZeroDivisionError: planted"} in (
        json.loads(out)["checks"]
    )


def test_package_errors_in_a_check_stay_usage_errors(monkeypatch, capsys):
    from qdtorus import cli, suites
    from qdtorus.errors import WindowOverflow

    def planted():
        raise WindowOverflow("planted")

    monkeypatch.setitem(suites._SUITE_BUILDERS, "haar", lambda p: [planted])
    assert cli.main(["verify", "haar"]) == 2
    assert "error: planted" in capsys.readouterr().err


def _wrong_on_the_diagonal(monkeypatch):
    """j(u^k v^k) picks up a factor q, so j fails to be a *-map at every
    diagonal point of the lattice."""
    real = galois.cleaving_j

    def planted(h, conv=galois.CORRECTED):
        (mon,) = h.terms
        k, l = at2().lattice_exponents(mon)
        return real(h, conv) * QScalar.q_power(1) if k == l else real(h, conv)

    monkeypatch.setattr(galois, "cleaving_j", planted)


def _norms_all_two(monkeypatch):
    from qdtorus import gns

    monkeypatch.setattr(gns, "estimate_operator_norm", lambda e, window, theta: 2.0)


def _expectations_drifting(monkeypatch):
    """Each GNS expectation is off by 1e-3 times the number of calls so far,
    so the worst defect is the last monomial's and the first is the unit's."""
    from qdtorus import gns

    real = gns.gns_expectation
    calls = []

    def planted(e, window, theta):
        calls.append(e)
        return real(e, window, theta) + 1e-3 * len(calls)

    monkeypatch.setattr(gns, "gns_expectation", planted)


def _nothing_killed(monkeypatch):
    from qdtorus.algebras import build_finite_quotient
    from qdtorus.scalars import CyclotomicMode

    alg = build_finite_quotient(2, CyclotomicMode(4))
    monkeypatch.setattr(alg, "from_parent", lambda e: alg.unit())


def _wrong_at_the_unit(name):
    """A plant under which ``galois.<name>``, a map given on monomials,
    picks up a factor q at the unit word alone."""

    def plant(monkeypatch):
        real = getattr(galois, name)
        monkeypatch.setattr(
            galois, name, lambda mon: real(mon) * QScalar.q_power(1) if not mon else real(mon)
        )

    return plant


@pytest.mark.parametrize(
    "plant, suite, check, witness",
    [
        (_wrong_on_the_diagonal, "cleaving", "cleaving_j_star_map", "u^-3v^-3"),
        (_norms_all_two, "gns", "gns_norm_examples", "norm(a) = 2.0"),
        (_expectations_drifting, "gns", "gns_expectation_matches_haar", "1 (defect 1.00e-03)"),
        (_nothing_killed, "fdquot", "fdquot_hopf_ideal", "a^n-z not killed"),
        (_wrong_at_the_unit("ell_table_mon"), "cleaving", "cocleaving_table_equals_derived", "1"),
        (_wrong_at_the_unit("ell_table_mon"), "cleaving", "cocleaving_self_convolution_inverse", "1"),
        (_wrong_at_the_unit("prj_mon"), "exactseq", "exactseq_prj_hopf_star_map", "coproduct at 1"),
    ],
    ids=[
        "j_star_map", "norm_examples", "expectation", "hopf_ideal",
        "ell_table_at_unit", "ell_inverse_at_unit", "prj_at_unit",
    ],
)
def test_a_failed_check_names_its_first_failure(plant, suite, check, witness, monkeypatch):
    """Each planted defect fails the check at several points, or at the unit
    alone; the witness is the first of them in the check's scan order, not
    the last or the worst, and the text report prints it."""
    plant(monkeypatch)
    report = run_suite(suite)
    found = {c.name: c for c in report.checks}
    assert (found[check].passed, found[check].witness) == (False, witness)
    assert f"] {check}\n         witness: {witness}\n" in report.to_text()


def _colinearity_holds_everywhere(monkeypatch):
    monkeypatch.setattr(galois, "colinearity_failures", lambda conv, r: iter(()))


def _j_multiplicative(monkeypatch):
    """j(u^k v^l) becomes the classical-corner triple, a group-like."""
    monkeypatch.setattr(galois, "cleaving_j_mon", lambda k, l, conv: corner_element(0, k, l))


def _mutation_undetected(monkeypatch):
    real = galois.torus_relation_defect
    monkeypatch.setattr(galois, "torus_relation_defect", lambda mutation=None: real())


@pytest.mark.parametrize(
    "plant, suite, conv, check, witness",
    [
        (
            _colinearity_holds_everywhere,
            "cleaving",
            galois.PRINTED,
            "cleaving_printed_colinearity_fails_on_diagonal",
            "no defect in right colinearity of j(u^kv^l), |k|, |l| <= 3",
        ),
        (
            _j_multiplicative,
            "cleaving",
            galois.CORRECTED,
            "cleaving_j_not_algebra_map_symbolically",
            "no defect in j(g)j(h) - j(gh) at "
            "(u^1v^0)(u^0v^1), (u^1v^1)(u^1v^0), (u^2v^1)(u^1v^2)",
        ),
        (
            _mutation_undetected,
            "diagram",
            galois.CORRECTED,
            "diagram_mutation_detected",
            "no defect in rho(x)rho(y) - q rho(y)rho(x) under bc_weak",
        ),
    ],
    ids=["printed_colinearity", "j_not_algebra_map", "mutation"],
)
def test_a_missed_detection_names_what_it_scanned(plant, suite, conv, check, witness, monkeypatch):
    """A check that expects a defect fails when its scan finds none, and its
    witness names the scan rather than being empty."""
    plant(monkeypatch)
    report = run_suite(suite, SuiteParams(convention=conv))
    found = {c.name: c for c in report.checks}
    assert (found[check].passed, found[check].witness) == (False, witness)
    assert f"] {check}\n         witness: {witness}\n" in report.to_text()


def test_an_internal_error_in_the_convention_section_is_contained(monkeypatch, capsys):
    """The report still comes out, its three comparisons read false, a failed
    check names the error, and the command exits 1."""
    from qdtorus import cli

    def broken(conv, exp_range):
        raise RuntimeError("planted")

    monkeypatch.setattr(galois, "sigma_table_mismatches", broken)
    report = run_suite("fdquot")
    assert report.cleaving_convention == {
        "active": "corrected",
        "sigma_table_matches_convolution": False,
        "cocleaving_table_matches_derived": False,
        "right_colinearity": False,
    }
    found = {c.name: c for c in report.checks}
    assert (found["cleaving_convention"].passed, found["cleaving_convention"].witness) == (
        False,
        "RuntimeError: planted",
    )
    assert all(c.passed for c in report.checks if c.name != "cleaving_convention")
    assert cli.main(["verify", "fdquot", "--report", "json"]) == 1
    printed = json.loads(capsys.readouterr().out)
    assert printed["cleaving_convention"] == report.cleaving_convention


def test_a_package_error_in_the_convention_section_propagates(monkeypatch):
    def refused(conv, exp_range):
        raise NotInBaseImage("planted")

    monkeypatch.setattr(galois, "sigma_table_mismatches", refused)
    with pytest.raises(NotInBaseImage):
        run_suite("fdquot")


def test_a_scan_stops_at_its_first_witness(monkeypatch):
    """A defect at the first lattice point (-3, -3) fails the *-map check
    there; the two images of that point are all the scan computes."""
    real = galois.cleaving_j
    calls = []

    def planted(h, conv=galois.CORRECTED):
        calls.append(h)
        (mon,) = h.terms
        wrong = at2().lattice_exponents(mon) == (-3, -3)
        return real(h, conv) * QScalar.q_power(1) if wrong else real(h, conv)

    monkeypatch.setattr(galois, "cleaving_j", planted)
    found = {c.name: c for c in run_suite("cleaving").checks}
    assert not found["cleaving_j_star_map"].passed
    assert len(calls) <= 2, f"{len(calls)} calls"
