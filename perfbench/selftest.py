#!/usr/bin/env python3
"""Self-test of the benchmark: tiny runs pass, planted wrong answers are caught.

    python3 perfbench/selftest.py

Runs every workload at a tiny size through the real worker processes (and
one traced run), then feeds each correctness check a planted wrong answer
and requires it to be rejected.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import checks
import inputs
import run

sys.path.insert(0, run.SRC)

FAILED: list[str] = []


def expect(label: str, ok: bool, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {label}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILED.append(label)


def tiny_runs() -> dict:
    results = {}
    for workload in inputs.WORKLOADS:
        job_inputs = inputs.make_inputs(workload, 1, tiny=True)
        runs = run.run_work(workload, job_inputs, 0.5)
        verdict = run.judge(workload, job_inputs, runs)
        metrics = run.end_to_end(workload, [r["setup_s"] for r in runs], runs)
        expect(
            f"{workload}: tiny run is correct",
            not verdict["problems"] and verdict["failed"] == 0 and verdict["attempted"] > 0,
            verdict["problems"][:3],
        )
        expect(f"{workload}: every end-to-end metric is positive", all(v > 0 for v, _ in metrics.values()), metrics)
        results[workload] = (job_inputs, runs)
    return results


def traced_run():
    job_inputs = inputs.make_inputs("expr-stream", 1, tiny=True)
    os.makedirs(run.OUT, exist_ok=True)
    out = os.path.join(run.OUT, "selftest-trace.json")
    (traced,) = run.run_work("expr-stream", job_inputs, 0.5, trace=True, units=1, trace_out=out)
    layers = traced["result"]["layers"]
    expect("trace: one parse per query", layers["exprs.parse_calls"][0] == job_inputs["block"], layers["exprs.parse_calls"])
    expect("trace: scalar products counted", layers["scalars.mul_calls"][0] > 0)
    expect("trace: set-up span recorded", layers["algebras.build_s"][0] > 0)
    with open(out) as fh:
        dumped = json.load(fh)
    names = {span[0] for span in dumped["spans"]}
    expect("trace: spans written out", "algebras.build" in names, sorted(names))


def planted_verify_all(job_inputs, runs):
    from qdtorus.algebras import adtq
    from qdtorus.hopf import verify_hopf_axioms

    res = runs[0]["result"]
    suite = job_inputs["argv"][1]
    expect("verify-all: bc_weak canary is caught by the program", not checks.check_planted_hopf_defect())
    expect("verify-all: exit status 1 rejected", checks.check_verify_report(1, res["stdout"], suite))
    report = json.loads(res["stdout"])
    weak = copy.deepcopy(report)
    weak["checks"] = [
        {"name": c.name, "status": c.status} | ({"witness": c.witness} if c.witness else {})
        for c in verify_hopf_axioms(adtq("bc_weak"), 3)
    ]
    expect(
        "verify-all: checks taken from the bc_weak algebra rejected",
        checks.check_verify_report(0, json.dumps(weak), suite),
    )
    missing = dict(report)
    del missing["duration_ms"]
    expect("verify-all: missing report key rejected", checks.check_verify_report(0, json.dumps(missing), suite))
    flipped = copy.deepcopy(report)
    flipped["checks"][0]["status"] = "fail"
    expect("verify-all: one failed check rejected", checks.check_verify_report(0, json.dumps(flipped), suite))
    as_all = dict(report, suite="all")
    expect(
        "verify-all: a suite without checks rejected",
        checks.check_verify_report(0, json.dumps(as_all), "all"),
    )


def planted_expr_stream():
    from fractions import Fraction

    from qdtorus.algebras import Element, adtq, auq2
    from qdtorus.exprs import parse_element
    from qdtorus.hopf import haar
    from qdtorus.scalars import QScalar

    good, weak = adtq(), adtq("bc_weak")

    def query(alg, text):
        return parse_element(text, alg), [(1, None, tuple(text.split("*")))]

    def transplant(el):
        return Element(good, dict(el.terms))

    x, terms = query(good, "b")
    expect("expr-stream: true star passes", checks.check_expr_result("star", x, x.star(), None, terms) is None)
    expect(
        "expr-stream: star times q rejected",
        checks.check_expr_result("star", x, x.star() * QScalar.q_power(1), None, terms),
    )
    x, terms = query(good, "z")
    expect(
        "expr-stream: haar(z) + 1/3 rejected",
        checks.check_expr_result("haar", x, haar(x) + QScalar.of(Fraction(1, 3)), None, terms),
    )
    x, terms = query(good, "b*c")
    wrong = transplant(query(weak, "b*c")[0])
    expect(
        "expr-stream: README value of b*c taken from bc_weak rejected",
        checks.check_expr_result("normalize", wrong, wrong, "-q*D + q*D*z", terms),
    )
    x, terms = query(good, "b*c*D")
    wrong = transplant(query(weak, "b*c*D")[0])
    expect("expr-stream: true normal form passes", checks.check_expr_result("normalize", x, x, None, terms) is None)
    expect(
        "expr-stream: normal form taken from bc_weak rejected",
        checks.check_expr_result("normalize", wrong, wrong, None, terms),
    )
    x, terms = query(auq2(), "b*D")
    cop = x.coproduct()
    dropped = type(cop)(cop.legs, dict(list(cop.terms.items())[1:]))
    flipped = type(cop)(cop.legs, {(m2, m1): c for (m1, m2), c in cop.terms.items()})
    expect("expr-stream: true coproduct passes", checks.check_expr_result("coproduct", x, cop, None, terms) is None)
    expect("expr-stream: coproduct missing a term rejected", checks.check_expr_result("coproduct", x, dropped, None, terms))
    expect("expr-stream: coproduct with swapped legs rejected", checks.check_expr_result("coproduct", x, flipped, None, terms))
    x, terms = query(good, "a*b")
    expect("expr-stream: true antipode passes", checks.check_expr_result("antipode", x, x.antipode(), None, terms) is None)
    expect(
        "expr-stream: antipode of a*b plus one rejected",
        checks.check_expr_result("antipode", x, x.antipode() + good.unit(), None, terms),
    )


def planted_gns(job_inputs, runs):
    estimates = runs[0]["result"]["estimates"]
    theta = job_inputs["theta"]

    def bump(pick, delta):
        rows = copy.deepcopy(estimates)
        for row in rows:
            if pick(row):
                row[3] += delta
                break
        return rows

    expect("gns-norms: perturbed norm (+1e-4) rejected", checks.check_norms(bump(lambda r: r[1] == "a + d", 1e-4), theta)[0])
    expect("gns-norms: perturbed norm (-1e-4) rejected", checks.check_norms(bump(lambda r: r[1] == "D + Dinv", -1e-4), theta)[0])
    expect("gns-norms: norm(a) = 1 + 1e-8 rejected", checks.check_norms(bump(lambda r: r[1] == "a", 1e-8), theta)[0])
    big = [[0, "a + d", 4, 2.5], [0, "a + d", 6, 2.6]]
    expect(
        "gns-norms: norm above 2 rejected",
        any("> 2" in p for p in checks.check_norms(big, theta, dense=lambda *a: 2.6)[0]),
    )
    falling = [[0, "a + d", 4, 1.9], [0, "a + d", 6, 1.8]]
    expect(
        "gns-norms: norm falling as the window grows rejected",
        any("falls" in p for p in checks.check_norms(falling, theta, dense=lambda t, w, th: {4: 1.9, 6: 1.8}[w])[0]),
    )


def planted_fdquot(job_inputs, runs):
    res = runs[0]["result"]
    requested = job_inputs["builds"]
    builds = res["builds"]

    def changed(fn):
        rows = copy.deepcopy(builds)
        fn(rows)
        return rows

    expect(
        "fdquot-sweep: dimension n^2 (as at order 16 for n=4) rejected",
        checks.check_fdquot(changed(lambda r: r[0].__setitem__(2, r[0][0] ** 2)), res["refused"], requested),
    )
    expect(
        "fdquot-sweep: Hopf-ideal check failing rejected",
        checks.check_fdquot(changed(lambda r: r[0][3].__setitem__("fdquot_hopf_ideal", False)), res["refused"], requested),
    )
    expect("fdquot-sweep: refused pair that builds rejected", checks.check_fdquot(builds, "built", requested))
    expect("fdquot-sweep: a missing build rejected", checks.check_fdquot(builds[1:], res["refused"], requested))


def main() -> int:
    results = tiny_runs()
    traced_run()
    planted_verify_all(*results["verify-all"])
    planted_expr_stream()
    planted_gns(*results["gns-norms"])
    planted_fdquot(*results["fdquot-sweep"])
    print(f"{len(FAILED)} expectation(s) failed" if FAILED else "all expectations met")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
