"""Correctness checks, each computed apart from the code path it checks.

Every function returns a list of problems (empty when the answer is right)
or, for single results, a problem string or None.  The self-test feeds them
planted wrong answers.
"""

from __future__ import annotations

import cmath
import json

import numpy as np

# -- verify-all -----------------------------------------------------------------

REPORT_KEYS = {"suite", "params", "cleaving_convention", "checks", "duration_ms"}

# Check names by the suite that emits them.
SUITE_PREFIXES = {
    "hopf": ("hopf_AUq2_", "hopf_ADTq_", "hopf_AT2_", "hopf_AZ2_", "confluence_"),
    "cocycle": ("sigma_", "cocycle_identity", "printed_convention_discrepancy"),
    "cleaving": ("cleaving_", "cocleaving_", "coaction_"),
    "bicross": ("bicross_",),
    "exactseq": ("exactseq_",),
    "diagram": ("diagram_",),
    "haar": ("haar_",),
    "characters": ("corep_", "character_", "intertwiner_", "peter_weyl_"),
    "gns": ("gns_",),
    "fdquot": ("fdquot_",),
}


def check_verify_report(exit_code, stdout: str, suite: str) -> list[str]:
    """The CLI's JSON report: schema, every check passing, every suite present."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit status {exit_code}")
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"]
    if not isinstance(report, dict) or set(report) != REPORT_KEYS:
        return problems + [f"report keys {sorted(report) if isinstance(report, dict) else report!r}"]
    if report["suite"] != suite:
        problems.append(f"report is for suite {report['suite']!r}")
    conv = report["cleaving_convention"]
    if conv.get("active") != "corrected" or not all(
        conv.get(k) is True
        for k in ("sigma_table_matches_convolution", "cocleaving_table_matches_derived", "right_colinearity")
    ):
        problems.append(f"cleaving convention section {conv}")
    checks = report["checks"]
    for c in checks:
        if c.get("status") != "pass":
            problems.append(f"check {c.get('name')} {c.get('status')}: {c.get('witness')}")
    expected = SUITE_PREFIXES if suite == "all" else {suite: SUITE_PREFIXES[suite]}
    for name, prefixes in expected.items():
        if not any(c.get("name", "").startswith(prefixes) for c in checks):
            problems.append(f"suite {name} has no check in the report")
    return problems


def check_planted_hopf_defect() -> list[str]:
    """The axiom verifier must reject the bc_weak algebra, whose b*c relation
    drops the q factor, on the antipode law."""
    from qdtorus.algebras import adtq
    from qdtorus.hopf import verify_hopf_axioms

    found = {c.name: c.passed for c in verify_hopf_axioms(adtq("bc_weak"), 3)}
    if found.get("hopf_ADTq!bc_weak_antipode_law") is not False:
        return [f"planted bc_weak defect not caught: {found}"]
    return []


# -- expr-stream -------------------------------------------------------------------

EXPECTATION_THETA = 0.31
EXPECTATION_TOL = 1e-10
# Lattice sites the representation check starts from; a word of length L
# started within one step of the origin stays inside a window of size L + 2.
REP_STARTS = (("c", 0, 0), ("q", 0, 0), ("c", 1, -1), ("q", -1, 1))
REP_TOL = 1e-9


# The coproduct of the fundamental corepresentation u = [[a, b], [c, d]]:
# Delta(u_ij) = sum_k u_ik (x) u_kj; D and Dinv are group-like, z = Dinv*a*d.
LETTER_COPRODUCT = {
    "a": ((("a",), ("a",)), (("b",), ("c",))),
    "b": ((("a",), ("b",)), (("b",), ("d",))),
    "c": ((("c",), ("a",)), (("d",), ("c",))),
    "d": ((("c",), ("b",)), (("d",), ("d",))),
    "D": ((("D",), ("D",)),),
    "Dinv": ((("Dinv",), ("Dinv",)),),
}
COPRODUCT_STARTS = ((("c", 0, 0), ("q", 0, 0)), (("q", 0, 0), ("c", 1, -1)))


def _scalar_value(sign: int, scalar) -> complex:
    """A generated coefficient at q = exp(2*pi*i*theta)."""
    if scalar is None:
        return complex(sign)
    if scalar[0] == "q":
        return sign * cmath.exp(2j * cmath.pi * EXPECTATION_THETA * scalar[1])
    return complex(sign * scalar[1] / scalar[2])


def _run_word(letters, site, opset) -> dict:
    vec = {site: 1.0 + 0j}
    for letter in reversed(letters):
        vec = opset[letter].apply(vec, strict=True)
    return vec


def _gap(lhs: dict, rhs: dict) -> float:
    return max((abs(lhs.get(k, 0j) - rhs.get(k, 0j)) for k in set(lhs) | set(rhs)), default=0.0)


def representation_defect(x, terms) -> float:
    """Largest gap between the normal form ``x`` and the input words as
    written, both acting in the lattice representation of ADTq.

    ``terms`` are the generated (sign, scalar, letters) terms of the input.
    For AUq2 this is a necessary condition (through the quotient map).
    """
    from qdtorus import gns

    window = max(len(letters) for _, _, letters in terms) + 2
    opset = gns.operator_set(window, EXPECTATION_THETA)
    worst = 0.0
    for start in REP_STARTS:
        raw: dict = {}
        for sign, scalar, letters in terms:
            value = _scalar_value(sign, scalar)
            for site, amp in _run_word(letters, start, opset).items():
                raw[site] = raw.get(site, 0j) + value * amp
        worst = max(worst, _gap(raw, gns.apply_element(x, {start: 1.0 + 0j}, opset)))
    return worst


def _product_image(terms, s, t, opset) -> dict:
    """Sum of value * (w1 e_s) (x) (w2 e_t) over (value, w1, w2) terms."""
    out: dict = {}
    for value, w1, w2 in terms:
        v1, v2 = _run_word(w1, s, opset), _run_word(w2, t, opset)
        for k1, a1 in v1.items():
            for k2, a2 in v2.items():
                out[(k1, k2)] = out.get((k1, k2), 0j) + value * a1 * a2
    return out


def coproduct_defect(result, terms) -> float:
    """Largest gap between the computed coproduct and the product of the
    letter coproducts above, both acting on product vectors of the lattice
    representation."""
    from qdtorus import gns

    raw = []
    for sign, scalar, letters in terms:
        word = []
        for letter in letters:
            word += ["Dinv", "a", "d"] if letter == "z" else [letter]
        pairs = [((), ())]
        for letter in word:
            pairs = [(l1 + o1, l2 + o2) for l1, l2 in pairs for o1, o2 in LETTER_COPRODUCT[letter]]
        value = _scalar_value(sign, scalar)
        raw += [(value, w1, w2) for w1, w2 in pairs]
    got = [(c.eval_unit(EXPECTATION_THETA), m1, m2) for (m1, m2), c in result.terms.items()]
    longest = max(len(w) for _, w1, w2 in raw + got for w in (w1, w2))
    opset = gns.operator_set(longest + 2, EXPECTATION_THETA)
    return max(
        _gap(_product_image(raw, s, t, opset), _product_image(got, s, t, opset))
        for s, t in COPRODUCT_STARTS
    )


def check_expr_result(op: str, x, result, expected: str | None, terms) -> str | None:
    """Hopf *-algebra laws on one answer; ``x`` is the parsed input."""
    from qdtorus import gns
    from qdtorus.exprs import parse_element
    from qdtorus.hopf import haar

    try:
        if expected is not None and str(result) != expected:
            return f"got {result}, README says {expected}"
        defect = representation_defect(x, terms)
        if defect > REP_TOL:
            return f"normal form {x} differs from the input words by {defect:.2e} in the lattice representation"
        if op == "normalize":
            if parse_element(str(result), x.algebra) != result:
                return f"printed form {result} does not read back"
            if result.star().star() != result:
                return "x** != x"
        elif op == "coproduct":
            if result.counit_leg(0) != x or result.counit_leg(1) != x:
                return "counit law fails on the coproduct"
            defect = coproduct_defect(result, terms)
            if defect > REP_TOL:
                return f"coproduct differs from the product of letter coproducts by {defect:.2e}"
            alg = x.algebra
            unit = alg.unit() * x.counit()
            for leg in (0, 1):
                if result.apply_leg(leg, alg.antipode_mon, alg).multiply_legs() != unit:
                    return f"antipode law fails on leg {leg} of the coproduct"
        elif op == "antipode":
            if result.star().antipode().star() != x:
                return "S(S(x)*)* != x"
        elif op == "star":
            if result.star() != x:
                return "x** != x"
        elif op == "haar":
            if haar(x.star()) != result.star():
                return "haar(x*) != haar(x)*"
            window = max((len(m) for m in x.terms), default=0) + 1
            numeric = gns.gns_expectation(x, window, EXPECTATION_THETA)
            exact = result.eval_unit(EXPECTATION_THETA)
            if abs(numeric - exact) > EXPECTATION_TOL:
                return f"haar {exact} vs vacuum expectation {numeric} at window {window}"
        else:
            return f"unknown operation {op!r}"
    except Exception as exc:  # a law that cannot even be evaluated is a failure
        return f"check raised {type(exc).__name__}: {exc}"
    return None


# -- gns-norms -----------------------------------------------------------------------

# Power iteration stops when successive Rayleigh quotients agree to 1e-8, which
# is not an error bound: at window 14, a + d stops about 2e-6 short.  A Rayleigh
# quotient never exceeds the largest eigenvalue, so an estimate may only fall
# short of the dense norm, never exceed it beyond rounding.
NORM_SHORTFALL_TOL = 1e-5
NORM_EXCESS_TOL = 1e-9
UNIT_NORM_TOL = 1e-9
UNIT_NORM_ELEMENTS = ("a", "z", "a + b")


def dense_norm(text: str, window: int, theta: float) -> float:
    """numpy's 2-norm of the same truncated matrix, taken over the connected
    blocks of its sparsity graph (exact: the norm of a block-diagonal matrix
    is the largest block norm)."""
    from qdtorus import gns
    from qdtorus.algebras import adtq
    from qdtorus.exprs import parse_element

    opset = gns.operator_set(window, theta)
    op = gns.operator_for_element(parse_element(text, adtq()), opset)
    parent: dict = {}

    def find(s):
        while parent.setdefault(s, s) != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    entries = []
    for col, column in op.cols.items():
        for row, weight in column.items():
            if weight != 0:
                entries.append((("r", row), ("c", col), weight))
                parent[find(("r", row))] = find(("c", col))
    blocks: dict = {}
    for r, c, w in entries:
        blocks.setdefault(find(c), []).append((r, c, w))
    best = 0.0
    for block in blocks.values():
        rows = {r: i for i, r in enumerate(sorted({r for r, _, _ in block}))}
        cols = {c: i for i, c in enumerate(sorted({c for _, c, _ in block}))}
        m = np.zeros((len(rows), len(cols)), dtype=complex)
        for r, c, w in block:
            m[rows[r], cols[c]] += w
        best = max(best, float(np.linalg.norm(m, 2)))
    return best


def check_norms(estimates, theta: float, dense=dense_norm) -> tuple[list[str], float]:
    """``estimates``: [round, element, window, value] rows of one run.
    Returns the problems and the largest shortfall below the dense norm."""
    problems = []
    reference: dict = {}
    by_element: dict = {}
    shortfall = 0.0
    for rnd, text, window, value in estimates:
        key = (text, window)
        if key not in reference:
            reference[key] = dense(text, window, theta)
        ref = reference[key]
        shortfall = max(shortfall, ref - value)
        if not (ref - NORM_SHORTFALL_TOL <= value <= ref + NORM_EXCESS_TOL):
            problems.append(f"norm({text}) at window {window} = {value!r}, dense {ref!r}")
        if text in UNIT_NORM_ELEMENTS and abs(value - 1.0) > UNIT_NORM_TOL:
            problems.append(f"norm({text}) at window {window} = {value!r}, not 1")
        if value > 2.0:
            problems.append(f"norm({text}) at window {window} = {value!r} > 2")
        by_element.setdefault((rnd, text), []).append((window, value))
    for (rnd, text), series in by_element.items():
        series.sort()
        for (w1, v1), (w2, v2) in zip(series, series[1:]):
            if v2 < v1 - NORM_SHORTFALL_TOL:
                problems.append(f"norm({text}) falls from {v1!r} at window {w1} to {v2!r} at {w2}")
    return problems, shortfall


# -- fdquot-sweep ---------------------------------------------------------------------

FDQUOT_SUITE_CHECKS = ("fdquot_confluent", "fdquot_hopf_ideal", "fdquot_symbolic_refused")


def check_fdquot(builds, refused: str, requested) -> list[str]:
    """``builds``: [n, order, dimension, {check: passed}] rows."""
    problems = []
    done = {(n, order) for n, order, _, _ in builds}
    for n, order in requested:
        if (n, order) not in done:
            problems.append(f"n={n} order={order} was not built")
    for n, order, dimension, suite in builds:
        if dimension != 2 * n * n:
            problems.append(f"n={n} order={order}: dimension {dimension}, expected {2 * n * n}")
        for name in FDQUOT_SUITE_CHECKS:
            if suite.get(name) is not True:
                problems.append(f"n={n} order={order}: {name} {suite.get(name)}")
    if refused != "RootConditionViolated":
        problems.append(f"refused pair gave {refused}")
    return problems
