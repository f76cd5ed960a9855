"""One fresh benchmark process: set up, signal READY, answer, signal DONE.

The parent (run.py) sends a JSON job on stdin and reads protocol lines on
stdout: ``READY`` once the package is imported and the workload's algebras
are built, ``ROUND`` after each timed round of a session workload, ``DONE``
right after the last answer, then ``RESULT <json>``.
The parent takes its wall-clock times at those lines, so set-up and verdict
times are measured outside this process.  Correctness checks that need the
computed objects run here after ``DONE``; the rest run in the parent.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import checks
import inputs

_clock = time.perf_counter
_proto = sys.stdout


def emit(line: str):
    _proto.write(line + "\n")
    _proto.flush()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"[:300]


# -- set-up: the algebras each workload uses, with the antipode derivation ------


def _build_algebras(workload: str) -> dict:
    from qdtorus import algebras

    adtq = algebras.adtq()
    adtq.unit().antipode()  # derives the antipode and involution letter data
    algs = {"ADTq": adtq}
    if workload in ("verify-all", "expr-stream"):
        auq2 = algebras.auq2()
        auq2.unit().antipode()
        algs["AUq2"] = auq2
    if workload == "verify-all":
        algebras.at2()
        algebras.az2()
    return algs


def setup(workload: str, job_inputs: dict, tracer) -> dict:
    from qdtorus import exprs

    build = tracer.wrap(_build_algebras, "algebras.build", spans=True) if tracer else _build_algebras
    state = {"algs": build(workload)}
    if workload == "gns-norms":
        state["elements"] = {
            text: exprs.parse_element(text, state["algs"]["ADTq"]) for text in job_inputs["elements"]
        }
    return state


# -- the work of each workload ----------------------------------------------


def _keep_going(started: float, done_units: int, job: dict, least: int = 1) -> bool:
    if job.get("units") is not None:
        return done_units < job["units"]
    return done_units < least or _clock() - started < job["budget_s"]


def work_verify_all(state, job) -> dict:
    from qdtorus import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(job["inputs"]["argv"]))
        error = None
    except Exception as exc:  # a crash is a failed verdict, reported below
        code, error = None, _describe(exc)
    state["done"]()
    return {"exit": code, "stdout": out.getvalue(), "error": error, "units": 1}


def work_expr_stream(state, job) -> dict:
    from qdtorus import exprs, hopf

    algs = state["algs"]
    ops = {
        "normalize": lambda x: x,
        "coproduct": lambda x: x.coproduct(),
        "antipode": lambda x: x.antipode(),
        "star": lambda x: x.star(),
        "haar": lambda x: hopf.haar(x),
    }
    spec = job["inputs"]
    measured = spec["measured_blocks"]
    latencies: list[float] = []  # of the measured blocks only
    round_sizes: list[int] = []
    samples = []
    errors: list[str] = []
    attempted = 0
    blocks = 0
    rss_mb = None
    started = _clock()
    while _keep_going(started, blocks, job, least=measured):
        answered = len(latencies)
        rows, sampled = inputs.expr_block(spec["seed"], blocks, spec["block"])
        sampled = set(sampled)
        for i, (alg, op, text, expected, terms) in enumerate(rows):
            attempted += 1
            t0 = _clock()
            try:
                x = exprs.parse_element(text, algs[alg])
                result = ops[op](x)
            except Exception as exc:  # counted as a failed query
                errors.append(f"{alg} {op} {text!r}: {_describe(exc)}")
                continue
            if blocks < measured:
                latencies.append(_clock() - t0)
            if expected is not None or i in sampled:
                samples.append((alg, op, text, expected, terms, x, result))
        blocks += 1
        if blocks <= measured:
            round_sizes.append(len(latencies) - answered)
            emit("ROUND")
        if blocks == measured:
            rss_mb = _peak_rss_mb()
    state["done"]()
    failures = []
    for alg, op, text, expected, terms, x, result in samples:
        problem = checks.check_expr_result(op, x, result, expected, terms)
        if problem:
            failures.append(f"{alg} {op} {text!r}: {problem}")
    return {
        "latencies": latencies,
        "round_sizes": round_sizes,
        "attempted": attempted,
        "errors": errors,
        "failures": failures,
        "checked": len(samples),
        "rss_mb": rss_mb if rss_mb is not None else _peak_rss_mb(),
        "units": blocks,
    }


def work_gns_norms(state, job) -> dict:
    from qdtorus import gns

    spec = job["inputs"]
    theta = spec["theta"]
    estimates = []  # [round, element, window, value]
    relation_failures = []
    errors = []
    rounds = 0
    started = _clock()
    while _keep_going(started, rounds, job):
        state["operator_set_cache"].cache_clear()  # every round builds its operators
        for window in spec["windows"]:
            for text, element in state["elements"].items():
                try:
                    value = gns.estimate_operator_norm(element, window, theta)
                except Exception as exc:
                    errors.append(f"norm({text}) at window {window}: {_describe(exc)}")
                    continue
                estimates.append([rounds, text, window, value])
            try:
                found, _ = gns.verify_gns_relations(window, theta)
            except Exception as exc:
                errors.append(f"relations at window {window}: {_describe(exc)}")
                continue
            relation_failures += [
                f"window {window}: {c.name} {c.witness}" for c in found if not c.passed
            ]
        rounds += 1
        emit("ROUND")
    state["done"]()
    per_round = len(spec["windows"]) * (len(spec["elements"]) + 1)
    return {
        "estimates": estimates,
        "relation_failures": relation_failures,
        "attempted": rounds * per_round,
        "errors": errors,
        "units": rounds,
    }


def work_fdquot_sweep(state, job) -> dict:
    from qdtorus.algebras import build_finite_quotient
    from qdtorus.errors import RootConditionViolated
    from qdtorus.scalars import CyclotomicMode
    from qdtorus.suites import SuiteParams, run_suite

    spec = job["inputs"]
    builds = []  # [n, order, dimension, {check: passed}]
    errors = []
    for n, order in spec["builds"]:
        try:
            dimension = build_finite_quotient(n, CyclotomicMode(order)).dimension
            report = run_suite("fdquot", SuiteParams(quotient_n=n, q_root=order))
        except Exception as exc:
            errors.append(f"n={n} order={order}: {_describe(exc)}")
            continue
        builds.append([n, order, dimension, {c.name: c.passed for c in report.checks}])
    n, order = spec["refused"]
    try:
        build_finite_quotient(n, CyclotomicMode(order))
        refused = "built"
    except RootConditionViolated:
        refused = "RootConditionViolated"
    except Exception as exc:
        refused = _describe(exc)
    state["done"]()
    return {
        "builds": builds,
        "refused": refused,
        "attempted": 2 * len(spec["builds"]) + 1,
        "errors": errors,
        "units": 1,
    }


WORK = {
    "verify-all": work_verify_all,
    "expr-stream": work_expr_stream,
    "gns-norms": work_gns_norms,
    "fdquot-sweep": work_fdquot_sweep,
}


def main() -> int:
    job = json.loads(sys.stdin.read())
    src = os.path.realpath(os.path.join(job["root"], "src"))
    import qdtorus

    if not os.path.realpath(qdtorus.__file__).startswith(src + os.sep):
        print(f"qdtorus was imported from {qdtorus.__file__}, not {src}", file=sys.stderr)
        return 3
    from qdtorus import gns

    operator_set_cache = gns.operator_set  # the lru_cache object, before any wrapping
    tracer = None
    if job.get("trace"):
        import layertrace as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = job["workload"]
    state = setup(workload, job["inputs"], tracer)
    state["operator_set_cache"] = operator_set_cache
    snapshot: dict = {}

    def done():
        # the checks that follow are not part of the workload, so the layer
        # metrics are read here, at the last answer
        emit("DONE")
        if tracer:
            snapshot["layers"] = tracing.layer_metrics(tracer)
            snapshot["toplevel_s"] = tracer.toplevel_s
            snapshot["spans_recorded"] = len(tracer.spans)

    state["done"] = done
    emit("READY")
    if job["mode"] == "setup":
        return 0
    if tracer:
        tracer.toplevel_s = 0.0  # coverage is of the answers, not of set-up
    result = WORK[workload](state, job)
    result.update(snapshot)
    if tracer:
        tracer.spans = tracer.spans[: snapshot["spans_recorded"]]
        tracer.dump(job["trace_out"], {"workload": workload, "inputs": job["inputs"]})
    emit("RESULT " + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
