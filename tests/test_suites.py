"""Cross-cutting suite properties: full run, mutation sensitivity, misc."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

from qdtorus import galois
from qdtorus.algebras import adtq, at2, az2
from qdtorus.exprs import parse_element
from qdtorus.gns import LatticeWindow, apply_element, operator_set
from qdtorus.scalars import QScalar
from qdtorus.suites import SuiteParams, run_suite


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
    report = run_suite("cocycle", SuiteParams(exp_range=2))
    assert not report.ok


def test_pi_weight_mutation_flips_the_report(monkeypatch):
    from qdtorus import gns

    real = gns.lattice_action

    def wrong(gen, site, qval):  # exponent 2n in place of 2n - 1 in the b weight
        sector, _, n = site
        if gen == "b" and sector == "q" and n > 0:
            return real(gen, site, qval)[0], -(qval ** (2 * n))
        return real(gen, site, qval)

    gns.operator_set.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(gns, "lattice_action", wrong)
            checks, _ = gns.verify_gns_relations(5, 0.31)
    finally:
        gns.operator_set.cache_clear()  # the wrong operators reach no other test
    assert not all(c.passed for c in checks)


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


def test_cocycle_suite_uses_the_range(monkeypatch):
    seen = []
    real = galois.verify_cocycle_condition

    def recording(exp_range):
        seen.append(exp_range)
        return real(exp_range)

    monkeypatch.setattr(galois, "verify_cocycle_condition", recording)
    report = run_suite("cocycle", SuiteParams(exp_range=3))
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
        "base.delta(1) * (sign * QScalar.q_power(view.d * view.d))",
        "base.delta(1) * (-sign * QScalar.q_power(view.d * view.d))",
        {"cocleaving_table_equals_derived": "fail", "coaction_formula_equals_derived": "fail"},
    ),
    # exponents of q stay unreduced, so the build crashes, and every check
    # still reports under its own name
    "fdquot": (
        "scalars.py",
        "        s = s.reduce_exponents(self.order)\n",
        "",
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
    # a wrong sign in the q-power of the c twist of the cleaving map: the
    # convolution cocycle and Phi stop matching the table and the product
    "cocycle": (
        "galois.py",
        "QScalar.q_power(l * l)",
        "QScalar.q_power(-l * l)",
        {"sigma_table_equals_convolution": "fail"},
    ),
    "bicross": (
        "galois.py",
        "QScalar.q_power(l * l)",
        "QScalar.q_power(-l * l)",
        {"bicross_phi_algebra_hom": "fail", "bicross_phi_coalgebra_hom": "fail"},
    ),
    # the projection keeps the c corner
    "exactseq": (
        "galois.py",
        'view.gen in ("b", "c")',
        'view.gen == "b"',
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
        "-(qval ** (-2 * m - 1))",
        "-(qval ** (-2 * m))",
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


# Defects in ADTq's closed-form product that the 33 relations cannot see:
# each fires only beyond the lattice points of two letters.
_PLANTED_PRODUCT_DEFECTS = {
    "twist_sign_from_k_5": (
        "twist = 2 * (l1 - k1) * k2",
        "twist = (-2 if abs(k) >= 5 else 2) * (l1 - k1) * k2",
    ),
    "classical_coefficient_2_from_n_6": (
        "coeff = ONE\n",
        "coeff = QScalar.of(2 if abs(k - l) >= 6 else 1)\n",
    ),
}


@pytest.mark.parametrize("defect", sorted(_PLANTED_PRODUCT_DEFECTS))
def test_a_planted_product_defect_fails_every_adtq_law(defect, tmp_path):
    original, planted = _PLANTED_PRODUCT_DEFECTS[defect]
    checks = _verify_with_a_planted_defect(tmp_path, "algebras.py", original, planted, "all")
    laws = [c for c in checks if c["name"].startswith("hopf_ADTq_")]
    assert len(laws) == 6 and all(c["status"] == "fail" for c in laws), laws


@pytest.mark.parametrize(
    "n, order, witness",
    [
        (4, 16, "ValueError: not a constant"),
        (1, 2, "(-q)^1 != 1 for a primitive root of order 2"),
        (3, 6, "(-q)^9 != 1 for a primitive root of order 6"),
    ],
)
def test_fdquot_needs_the_reduction_modulo_the_cyclotomic_polynomial(n, order, witness, tmp_path):
    """Without the reduction modulo Phi_M the scalars live in Q[q]/(q^M - 1),
    which is no field.  At order 4 every inverted coefficient is a unit
    +-q^k, whose norm inverse holds there too, so the default run passes;
    at these orders the build fails, and each check says why."""
    checks = _verify_with_a_planted_defect(
        tmp_path,
        "scalars.py",
        "        return s.reduce_mod_poly(cyclotomic_polynomial(self.order))\n",
        "        return s\n",
        "fdquot", "--quotient-n", str(n), "--q-root", str(order),
    )
    statuses = {c["name"]: (c["status"], c.get("witness") or "") for c in checks}
    assert statuses.pop("fdquot_symbolic_refused")[0] == "pass"
    assert sorted(statuses) == ["fdquot_confluent", "fdquot_dimension", "fdquot_hopf_ideal"]
    assert all(status == "fail" and got.startswith(witness) for status, got in statuses.values())


def test_gns_relations_run_once_per_report(monkeypatch):
    import qdtorus.gns as gns

    calls = []
    real = gns.verify_gns_relations

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gns, "verify_gns_relations", counting)
    params = SuiteParams(window=5)
    first = run_suite("gns", params)
    second = run_suite("gns", params)  # a run never reuses another's result
    assert calls == [(5, 0.31), (5, 0.31)]
    for report in (first, second):
        assert report.ok and report.params["gns_max_defect_per_relation"]


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
