"""Command-line surface: commands, report schema, exit codes."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

from qdtorus import cli
from qdtorus.report import Check, Report
from qdtorus.suites import SuiteParams, run_suite


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExpressionCommands:
    def test_normalize(self, capsys):
        code, out, _ = run(capsys, "normalize", "b*a", "--algebra", "AUq2")
        assert code == 0 and out.strip() == "q*a*b"

    def test_normalize_quotient(self, capsys):
        code, out, _ = run(capsys, "normalize", "b*c")
        assert code == 0 and out.strip() == "-q*D + q*D*z"

    def test_coproduct_star_antipode(self, capsys):
        assert run(capsys, "coproduct", "D")[1].strip() == "(1)·D ⊗ D"
        assert run(capsys, "star", "b")[1].strip() == "-q*Dinv*c"
        assert run(capsys, "antipode", "D")[1].strip() == "Dinv"

    def test_haar(self, capsys):
        assert run(capsys, "haar", "z")[1].strip() == "1/2"

    def test_character_and_decompose(self, capsys):
        code, out, _ = run(capsys, "character", "w(1,2)")
        assert code == 0 and out.strip() == "D*a^2 + D*d^2"
        code, out, _ = run(capsys, "decompose", "(a+d)*(a+d)", "--range", "2")
        assert code == 0 and "w(0,2)" in out

    def test_json_value_output(self, capsys):
        code, out, _ = run(
            capsys, "normalize", "b*a", "--algebra", "AUq2", "--report", "json"
        )
        payload = json.loads(out)
        assert payload["result"] == "q*a*b"
        assert "cleaving_convention" in payload


class TestVerify:
    def test_exactseq_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "exactseq")
        assert code == 0 and "result: PASS" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "verify", "haar", "--report", "json")
        payload = json.loads(out)
        assert set(payload) == {
            "suite",
            "params",
            "cleaving_convention",
            "checks",
            "duration_ms",
        }
        assert all(set(c) <= {"name", "status", "witness"} for c in payload["checks"])
        assert payload["cleaving_convention"]["active"] == "corrected"
        assert code == 0

    def test_failure_flips_exit_code(self, capsys, monkeypatch):
        broken = Report(
            suite="haar",
            params={},
            cleaving_convention={
                "active": "corrected",
                "sigma_table_matches_convolution": True,
                "cocleaving_table_matches_derived": True,
                "right_colinearity": True,
            },
            checks=[Check("seeded", False, witness="q*D")],
        )
        monkeypatch.setattr(cli, "run_suite", lambda name, params: broken)
        code, out, _ = run(capsys, "verify", "haar", "--report", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["checks"][0]["witness"] == "q*D"

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "nonsense"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "hopf", "--max-deg", "-1"),
            ("verify", "cocycle", "--range", "-1"),
            ("gns", "--window", "-1"),
            ("verify", "exactseq", "--jobs", "0"),
            ("fdquot", "0"),
            ("fdquot", "2", "--q-root", "0"),
            ("gns", "--q-theta", "1.5", "--norm", "a"),
            ("verify", "fdquot", "--quotient-n", "0"),
            ("verify", "fdquot", "--q-root", "0"),
            ("verify", "gns", "--q-theta", "1.5"),
        ],
    )
    def test_negative_window_or_no_jobs_is_usage_error(self, capsys, argv):
        # also a quotient size or root order below 1 and a theta outside [0, 1)
        code, out, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: ") and not out

    def test_decompose_names_a_negative_range(self, capsys):
        code, out, err = run(capsys, "decompose", "a+d", "--range", "-1")
        assert (code, out) == (2, "")
        assert "range must not be negative, got -1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("character", "w(0,0)"),
            ("normalize", "a^99999999999999999999"),
            ("character", "chi(99999999999999999999)"),
            ("decompose", "a", "--range", "99999999999999999999"),
            ("normalize", "a^99999999999999"),  # a word too long to allocate
        ],
    )
    def test_a_label_or_power_no_word_can_hold_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "gns", "--window", "3"),
            ("verify", "all", "--window", "3"),
            ("gns", "--window", "0", "--norm", "a"),
        ],
    )
    def test_a_window_too_small_for_the_gns_suite_is_usage_error(self, capsys, argv):
        # the expectation check walks words of degree 4 from the vacuum
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("error: window must be at least 4 for the gns suite"), err

    def test_the_smallest_gns_window_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "gns", "--window", "4")
        assert code == 0 and out

    @pytest.mark.parametrize(
        "text",
        ["a^^2", "1/0", pytest.param("(" * 2000 + "a" + ")" * 2000, id="deep-nesting")],
    )
    def test_bad_expression_is_usage_error(self, capsys, text):
        code, _, err = run(capsys, "normalize", text)
        assert code == 2 and "error" in err


@pytest.fixture
def suite_work(monkeypatch):
    """The suites and the convention section, replaced by a log of their starts."""
    from qdtorus import galois, suites

    started = []

    def builder(key):
        return lambda params: started.append(key) or []

    for key in suites._SUITE_BUILDERS:
        monkeypatch.setitem(suites._SUITE_BUILDERS, key, builder(key))
    monkeypatch.setattr(galois, "convention_report", lambda name: started.append(name) or {})
    return started


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "haar", "--algebra", "bogus"),
        ("verify", "all", "--algebra", "AT2q"),
        ("gns", "--algebra", "bogus"),
        ("verify", "cocycle", "--convention", "Corrected"),
    ],
)
def test_an_unknown_name_is_a_usage_error_before_any_suite_work(capsys, suite_work, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse refuses a convention outside its choices
        code = exc.code
    assert code == 2 and "error" in capsys.readouterr().err
    assert suite_work == []


def test_a_refused_root_is_a_usage_error_before_any_suite_work(capsys, suite_work):
    code = cli.main(["fdquot", "1", "--q-root", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: (-q)^1 != 1 for a primitive root of order 1\n"
    assert suite_work == []


@pytest.mark.parametrize(
    "suite, params",
    [("gns", {"convention": "Corrected"}), ("haar", {"algebra": "bogus"})],
    ids=["convention", "algebra"],
)
def test_run_suite_checks_the_names_before_any_suite_work(suite_work, suite, params):
    from qdtorus.errors import QdtError

    with pytest.raises(QdtError, match="unknown"):
        run_suite(suite, SuiteParams(**params))
    assert suite_work == []


@pytest.mark.parametrize(
    "argv",
    [
        ("normalize", "b*c", "--window", "3"),
        ("character", "chi(1)", "--algebra", "bogus"),
        ("decompose", "a+d", "--algebra", "AUq2"),
        ("gns", "--algebra", "ADTq"),
        ("fdquot", "2", "--range", "1"),
    ],
)
def test_a_command_refuses_an_option_it_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(list(argv))
    out = capsys.readouterr()
    assert err.value.code == 2 and not out.out
    assert "unrecognized arguments" in out.err


def test_verify_reports_every_flag_it_was_given(capsys):
    given = {
        "algebra": "AT2",
        "max_deg": 2,
        "range": 1,
        "window": 5,
        "q_theta": 0.25,
        "q_root": 6,
        "quotient_n": 3,
        "convention": "printed",
        "jobs": 2,
    }
    assert all(value != getattr(SuiteParams(), key) for key, value in given.items())
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in given.items()]
    _, out, _ = run(capsys, "verify", "exactseq", *flags, "--report", "json")
    params = json.loads(out)["params"]
    params.pop("fixed_windows")
    assert params == given


def test_an_absent_flag_leaves_no_value_of_its_own():
    args = cli.build_parser().parse_args(["verify", "all"])
    assert [f.name for f in dataclasses.fields(SuiteParams) if hasattr(args, f.name)] == []


def test_a_value_command_reports_the_suite_params_of_its_flags(capsys):
    _, out, _ = run(capsys, "normalize", "b*a", "--algebra", "AUq2", "--report", "json")
    assert json.loads(out)["params"] == dataclasses.asdict(SuiteParams(algebra="AUq2"))


class TestGnsAndQuotientCommands:
    def test_gns_values(self, capsys):
        code, out, _ = run(
            capsys, "gns", "--window", "4", "--norm", "a", "--expect", "z"
        )
        assert code == 0
        assert "norm(a) = 1" in out
        assert "expectation(z) = 0.5\n" in out

    def test_fdquot(self, capsys):
        code, out, _ = run(capsys, "fdquot", "2", "--q-root", "4")
        assert code == 0 and "dimension = 8" in out

    def test_gns_values_in_json_are_one_document(self, capsys):
        code, out, _ = run(
            capsys, "gns", "--window", "4", "--norm", "a", "--expect", "z", "--report", "json"
        )
        payload = json.loads(out)
        assert code == 0 and payload["suite"] == "gns"
        assert payload["values"] == {"norm(a)": "1", "expectation(z)": "0.5"}

    def test_fdquot_dimension_in_json_is_one_document(self, capsys):
        code, out, _ = run(capsys, "fdquot", "2", "--report", "json")
        payload = json.loads(out)
        assert code == 0 and payload["suite"] == "fdquot"
        assert payload["values"] == {"dimension": "8"}

    def test_gns_json_without_values_keeps_the_report_keys(self, capsys):
        _, out, _ = run(capsys, "gns", "--window", "4", "--report", "json")
        assert set(json.loads(out)) == {
            "suite", "params", "cleaving_convention", "checks", "duration_ms"
        }

    def test_fdquot_bad_root(self, capsys):
        code, _, err = run(capsys, "fdquot", "3", "--q-root", "4")
        assert code == 2 and "error" in err


class TestSuiteRunner:
    def test_unknown_suite_rejected(self):
        from qdtorus.errors import QdtError

        with pytest.raises(QdtError):
            run_suite("bogus")

    @pytest.mark.parametrize(
        "suite, algebra",
        [("exactseq", "ADTq"), ("hopf", "all"), ("fdquot", "ADTq"), ("gns", "ADTq")],
        ids=["exactseq", "hopf_all", "fdquot", "gns"],
    )
    def test_jobs_parallel_matches_serial(self, suite, algebra):
        """The whole report, the shared results read into its parameters
        (``proofs``, the GNS defects) included, whichever thread finishes first."""

        def report(jobs):
            data = run_suite(suite, SuiteParams(algebra=algebra, jobs=jobs)).to_json_dict()
            del data["duration_ms"], data["params"]["jobs"]
            return json.dumps(data)  # key order too

        assert report(1) == report(4)

    @pytest.mark.parametrize(
        "field, value",
        [("max_deg", -1), ("range", -1), ("window", -1), ("jobs", 0), ("jobs", -2),
         ("quotient_n", 0), ("q_root", 0), ("q_theta", 1.0), ("q_theta", -0.5)],
    )
    def test_negative_windows_and_jobs_are_rejected(self, field, value):
        from qdtorus.errors import QdtError

        with pytest.raises(QdtError):
            run_suite("exactseq", SuiteParams(**{field: value}))

    def test_report_names_the_proofs_and_the_fixed_windows(self):
        report = run_suite("hopf", SuiteParams(algebra="AT2"))
        assert report.params["proofs"] == {
            "hopf_AT2": "all degrees: 8 relations × {Δ, ε, S, *}; six laws on 4 generators"
        }
        assert report.params["fixed_windows"] == {
            "hopf": {"confluence_max_len": 6},
            "cleaving_convention": {"range": 2},
        }
        bicross = run_suite("bicross", SuiteParams(max_deg=2))
        assert bicross.params["proofs"] == {"hopf_BICROSS[corrected]": "window max_deg=2"}
        assert "proofs" not in run_suite("exactseq").params

    def test_the_named_windows_are_the_ones_used(self, monkeypatch):
        from qdtorus import suites

        used = {}
        real_gram = suites.haar_gram_min_eigenvalue
        real_invariance = suites.haar_biinvariance_checks

        def gram(alg, degree, theta):
            used["gram_max_deg"] = degree
            return real_gram(alg, degree, theta)

        def invariance(alg, degree):
            used["biinvariance_max_deg"] = degree
            return real_invariance(alg, degree)

        monkeypatch.setattr(suites, "haar_gram_min_eigenvalue", gram)
        monkeypatch.setattr(suites, "haar_biinvariance_checks", invariance)
        report = run_suite("haar")
        assert report.ok
        assert report.params["fixed_windows"]["haar"] == used

    def test_report_text_contains_convention(self):
        report = run_suite("haar", SuiteParams())
        assert "cleaving_convention: active=corrected" in report.to_text()


class TestEdgeCases:
    def test_comodule_algebra_has_no_coproduct(self, capsys):
        code, out, _ = run(capsys, "normalize", "y*x", "--algebra", "AT2q")
        assert code == 0 and out.strip() == "q^-1*x*y"
        code, _, err = run(capsys, "coproduct", "x", "--algebra", "AT2q")
        assert code == 2 and "coproduct" in err

    def test_hopf_suite_on_bicross(self):
        report = run_suite("hopf", SuiteParams(algebra="BICROSS"))
        assert report.ok
        assert any("BICROSS" in c.name for c in report.checks)

    def test_unknown_algebra_is_usage_error(self, capsys):
        code, _, err = run(capsys, "normalize", "a", "--algebra", "NOPE")
        assert code == 2 and "unknown algebra" in err


_TESTS = pathlib.Path(__file__).parent


@pytest.mark.parametrize("convention, exit_code", [("corrected", 0), ("printed", 1)])
def test_verify_all_report_matches_the_golden_file(convention, exit_code):
    """A fresh `verify all --report json` prints the recorded report, apart
    from `duration_ms`, and keeps its exit code."""
    proc = subprocess.run(
        [sys.executable, "-m", "qdtorus", "verify", "all", "--report", "json",
         "--convention", convention],
        env={**os.environ, "PYTHONPATH": str(_TESTS.parent / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == exit_code, proc.stderr[-2000:]
    report = json.loads(proc.stdout)
    assert isinstance(report.pop("duration_ms"), float)
    golden = (_TESTS / "data" / f"verify_all_{convention}.json").read_text()
    assert json.dumps(report, indent=2) + "\n" == golden
