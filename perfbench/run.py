#!/usr/bin/env python3
"""Benchmark of the qdtorus verifier: four workloads, end to end and traced.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 12 --trace 0

Each workload runs in fresh single-threaded Python processes (worker.py)
that receive only the generated inputs.  Times are wall-clock, taken in this
process at the worker's READY, ROUND and DONE lines.  With ``--trace 1`` the run
repeats the same work once more with every layer boundary wrapped and prints
the per-layer metrics instead.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 3  # set-up-only processes before and after the work of a run
CHUNK = 1000  # latency samples per chunk: ten of them lie beyond the p99
PROCESS_LIMIT_S = 170.0
# verify-all and fdquot-sweep answer one round per fresh process, as the CLI
# does; the other two keep one session and answer until the time is up.
ROUND_PER_PROCESS = ("verify-all", "fdquot-sweep")

_clock = time.perf_counter


class WorkerFailed(RuntimeError):
    pass


def spawn(job: dict) -> dict:
    """Run one worker; return its protocol times, peak RSS and result."""
    env = dict(
        os.environ,
        PYTHONPATH=SRC,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    job = dict(job, root=ROOT)
    launched = _clock()
    proc = subprocess.Popen(
        [sys.executable, "-s", WORKER],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    )
    killer = threading.Timer(PROCESS_LIMIT_S, proc.kill)
    killer.start()
    err_lines: list[str] = []
    drain = threading.Thread(target=lambda: err_lines.extend(proc.stderr), daemon=True)
    drain.start()
    times: dict = {"rounds": []}
    result = None
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        for line in proc.stdout:
            now = _clock()
            if line == "READY\n":
                times["ready"] = now
            elif line == "ROUND\n":
                times["rounds"].append(now)
            elif line == "DONE\n":
                times["done"] = now
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        killer.cancel()
        drain.join(timeout=10)
    if proc.returncode != 0 or "ready" not in times or (job["mode"] == "work" and result is None):
        tail = "".join(err_lines[-20:])
        raise WorkerFailed(f"worker exited {proc.returncode} for {job['workload']}:\n{tail}")
    marks = [times["ready"]] + (times["rounds"] or [times.get("done")])
    return {
        "setup_s": times["ready"] - launched,
        "verdict_s": times["done"] - times["ready"] if "done" in times else None,
        "rounds_s": [b - a for a, b in zip(marks, marks[1:])] if "done" in times else [],
        "rss_mb": usage.ru_maxrss / 1024.0,
        "result": result,
    }


def percentile(values, share):
    """Nearest-rank percentile; with few samples p99 is the maximum."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def run_work(workload: str, job_inputs: dict, seconds: float, trace=False, units=None, trace_out=None):
    """Working processes for ``seconds`` and at least one round, or for
    exactly ``units`` rounds (blocks for expr-stream) when given."""
    job = {
        "workload": workload,
        "inputs": job_inputs,
        "mode": "work",
        "trace": trace,
        "trace_out": trace_out,
    }
    if workload in ROUND_PER_PROCESS:
        runs = []
        started = _clock()
        while not runs or (_clock() - started < seconds if units is None else len(runs) < units):
            runs.append(spawn(dict(job, units=1)))
        return runs
    job.update(units=units, budget_s=seconds)
    return [spawn(job)]


def judge(workload: str, job_inputs: dict, runs: list) -> dict:
    """Correctness of every answer of a set of working processes."""
    attempted = failed = 0
    problems: list[str] = []
    notes: list[str] = []
    shortfall = 0.0
    for run in runs:
        res = run["result"]
        if workload == "verify-all":
            suite = job_inputs["argv"][1]
            found = checks.check_verify_report(res["exit"], res["stdout"], suite)
            if res["error"]:
                found.append(res["error"])
            attempted += 1
            failed += bool(found)
        elif workload == "expr-stream":
            found = res["errors"] + res["failures"]
            attempted += res["attempted"]
            failed += len(found)
        elif workload == "gns-norms":
            wrong, gap = checks.check_norms(res["estimates"], job_inputs["theta"])
            found = res["errors"] + res["relation_failures"] + wrong
            shortfall = max(shortfall, gap)
            attempted += res["attempted"]
            failed += min(len(found), res["attempted"])
        else:
            found = res["errors"] + checks.check_fdquot(
                res["builds"], res["refused"], job_inputs["builds"]
            )
            attempted += res["attempted"]
            failed += min(len(found), res["attempted"])
        problems += found
    if workload == "verify-all":
        problems += checks.check_planted_hopf_defect()
    if workload == "gns-norms":
        notes.append(f"largest shortfall of power iteration below the dense norm: {shortfall:.3g}")
    return {"attempted": attempted, "failed": failed, "problems": problems, "notes": notes}


def chunks(values: list) -> list:
    """Consecutive chunks of CHUNK samples, so that a burst of load from
    outside the run moves one chunk's figures and not the median of them."""
    if len(values) < 2 * CHUNK:
        return [values]
    return [values[i : i + CHUNK] for i in range(0, len(values) - CHUNK + 1, CHUNK)]


def end_to_end(workload: str, setups: list, runs: list) -> dict:
    """A query is one expression in expr-stream, where a round is a block of
    them; elsewhere a query is a whole round (one verdict): a fresh process
    for verify-all and fdquot-sweep, a sweep of the windows for gns-norms."""
    if workload == "expr-stream":
        (run,) = runs
        rounds = list(zip(run["rounds_s"], run["result"]["round_sizes"]))
        latencies = run["result"]["latencies"]
        peak = run["result"]["rss_mb"]
    else:
        rounds = [(d, 1) for r in runs for d in r["rounds_s"]]
        latencies = [d for d, _ in rounds]
        peak = max(r["rss_mb"] for r in runs)
    parts = chunks(latencies)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "verdict_s": (statistics.median(d for d, _ in rounds), "s"),
        "peak_rss_mb": (peak, "MB"),
        "queries_per_s": (statistics.median(n / d for d, n in rounds), "1/s"),
        "query_ms.p50": (1000 * statistics.median(statistics.median(p) for p in parts), "ms"),
        "query_ms.p99": (1000 * statistics.median(percentile(p, 0.99) for p in parts), "ms"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    job_inputs = inputs.make_inputs(workload, seed)
    setup_job = {"workload": workload, "inputs": job_inputs, "mode": "setup"}
    spawn(setup_job)  # warm-up: writes the bytecode caches; not counted
    if not trace:
        # probes before and after the work, so that one busy moment of the
        # machine does not set the median
        setups = [spawn(setup_job)["setup_s"] for _ in range(SETUP_PROBES)]
        runs = run_work(workload, job_inputs, seconds)
        setups += [spawn(setup_job)["setup_s"] for _ in range(SETUP_PROBES)]
        setups += [r["setup_s"] for r in runs]
        metrics = end_to_end(workload, setups, runs)
        verdict = judge(workload, job_inputs, runs)
    else:
        plain = run_work(workload, job_inputs, seconds, units=1 if workload in ROUND_PER_PROCESS else None)
        units = sum(r["result"]["units"] for r in plain)
        os.makedirs(OUT, exist_ok=True)
        trace_out = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
        traced = run_work(workload, job_inputs, seconds, trace=True, units=units, trace_out=trace_out)
        res = traced[0]["result"]
        metrics = {k: tuple(v) for k, v in res["layers"].items()}
        traced_s = traced[0]["verdict_s"]
        plain_s = sum(r["verdict_s"] for r in plain)
        metrics["trace.verdict_s"] = (traced_s, "s")
        metrics["trace.untraced_verdict_s"] = (plain_s, "s")
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
        metrics["trace.span_coverage"] = (res["toplevel_s"] / traced_s, "ratio")
        metrics["trace.spans_recorded"] = (res["spans_recorded"], "count")
        verdict = judge(workload, job_inputs, plain + traced)
    return {
        "correct": not verdict["problems"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "problems": verdict["problems"],
        "notes": verdict["notes"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qdtorus", "__init__.py")):
        print(f"no qdtorus sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the checks import the package in this process too
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        try:
            out = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except WorkerFailed as exc:
            print(exc, file=sys.stderr)
            return 1
        for name, (value, unit) in out["metrics"].items():
            print(f"{workload:13s} {name:36s} {value:.6g} {unit}")
        print(f"{workload:13s} attempted {out['attempted']} failed {out['failed']}")
        for note in out["notes"]:
            print(f"{workload:13s} {note}")
        for problem in out["problems"][:20]:
            print(f"{workload:13s} PROBLEM {problem}")
        print(
            json.dumps(
                {
                    "correct": out["correct"],
                    "attempted": out["attempted"],
                    "failed": out["failed"],
                    "metrics": {
                        k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()
                    },
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
