"""Verification suites over every module, assembled into reports.

:func:`run_suite` makes one run object (:class:`_Run`) per report and hands
it to each suite's builder, which returns a list of independent check thunks.
The run object carries the parameters and the results that several checks
share (the Hopf axioms of an algebra, the GNS relations, the finite
quotient), each computed once per run.  The runner executes the thunks
(optionally across a thread pool), reads the shared results into the report's
parameters and stamps the mandatory cleaving-convention section into it.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

from . import corep, galois, gns
from .algebras import (
    ALGEBRAS,
    NOTES,
    BasisWindow,
    adtq,
    at2,
    az2,
    build_finite_quotient,
    corner_coordinates,
    corner_triples,
    enumerate_basis,
)
from .errors import NotInBaseImage, QdtError, RootConditionViolated
from .hopf import (
    convolve,
    haar,
    haar_biinvariance_checks,
    haar_gram_min_eigenvalue,
    proof_summary,
    verify_hopf_axioms,
)
from .report import Check, Report, checks_from
from .scalars import CyclotomicMode, QScalar

# The algebras the hopf suite checks, in the order of their checks and of
# the report's ``proofs`` and ``algebra_notes``.
HOPF_ALGEBRAS = ("AUq2", "ADTq", "AT2", "AZ2", "BICROSS")

# The windows fixed in code rather than taken from the parameters, by the
# suite that uses them; a report names those of the suites it ran under
# params["fixed_windows"].
FIXED_WINDOWS = {
    "hopf": {"confluence_max_len": 6},
    "cocycle": {"printed_discrepancy_range": 2},
    "cleaving": {"coaction_hom_range": 2},
    "bicross": {"phi_max_deg": 3, "phi_inverse_window": {"d_max": 1, "gen_max": 2}},
    "diagram": {"max_exp": 4},
    "haar": {"biinvariance_max_deg": 5, "gram_max_deg": 3},
    "gns": {"expectation_max_deg": 4},
}


@dataclass
class SuiteParams:
    """The suite parameters. Each field's name is also its report key and,
    with ``-`` for ``_``, its command-line flag; its default is the only one."""

    algebra: str = "ADTq"
    max_deg: int = 4
    range: int = 3
    window: int = 6
    q_theta: float = 0.31
    q_root: int = 4
    quotient_n: int = 2
    convention: str = galois.CORRECTED
    jobs: int = 1

    def __post_init__(self):
        """Check each value that no suite can run with, whichever suite runs."""
        galois.convention(self.convention)
        for key in ("max_deg", "range", "window"):
            if getattr(self, key) < 0:
                raise QdtError(f"{key} must not be negative, got {getattr(self, key)}")
        for key in ("jobs", "quotient_n", "q_root"):
            if getattr(self, key) < 1:
                raise QdtError(f"{key} must be at least 1, got {getattr(self, key)}")
        if not 0 <= self.q_theta < 1:
            raise QdtError(f"q_theta must lie in [0, 1), got {self.q_theta}")


class _Run:
    """One run of :func:`run_suite`: its suite, its parameters, and the
    results that several of its checks share.  Each result is computed once
    under one lock, so also when the checks run on a thread pool; the next
    run starts empty."""

    def __init__(self, suite: str, params: SuiteParams):
        self.suite = suite
        self.params = params
        self.results: dict = {}
        self._lock = threading.Lock()

    def once(self, key, compute):
        """The result under ``key``, from ``compute()`` on the first call."""
        with self._lock:
            if key not in self.results:
                self.results[key] = compute()
            return self.results[key]

    def hopf_axioms(self, algebra) -> list[Check]:
        """The Hopf axiom checks of ``algebra``: the hopf suite of ``verify
        all`` and the bicross suite both report the bicross product's."""
        return self.once(algebra, lambda: verify_hopf_axioms(algebra, self.params.max_deg))


def algebra_by_name(name: str, convention: str):
    """The algebra of one of ``HOPF_ALGEBRAS``; the bicross product under ``convention``."""
    if name == "BICROSS":
        return galois.build_bicross_product(convention)
    return ALGEBRAS[name]()


# ---------------------------------------------------------------------------
# Individual suites: each takes the run and returns zero-argument check thunks
# ---------------------------------------------------------------------------


def _thunks_hopf(run: _Run):
    thunks = []
    every = "all" in (run.suite, run.params.algebra)
    for name in HOPF_ALGEBRAS if every else (run.params.algebra,):
        alg = algebra_by_name(name, run.params.convention)
        thunks.append(lambda a=alg: run.hopf_axioms(a))
        if hasattr(alg, "system"):
            def confluence(a=alg):
                pairs = a.system.unresolved_pairs(FIXED_WINDOWS["hopf"]["confluence_max_len"])
                return checks_from({f"confluence_{a.tag}": ("*".join(pr.word) for pr in pairs)})

            thunks.append(confluence)
    return thunks


def _thunks_cocycle(run: _Run):
    conv = run.params.convention
    r = run.params.range

    def cross_check():
        return checks_from(
            {"sigma_table_equals_convolution": galois.sigma_table_mismatches(conv, r)}
        )

    def normalization():
        nonzero = (
            f"sigma{args} = {galois.sigma_table(*args)}"
            for m, n in itertools.product(range(-r, r + 1), repeat=2)
            for args in ((0, 0, m, n), (m, n, 0, 0))
            if galois.sigma_q_exponent(*args) != 0
        )
        return checks_from({"sigma_normalized": nonzero})

    def printed_discrepancy():
        # the printed diagonal branch must fail to land in the base image
        w = FIXED_WINDOWS["cocycle"]["printed_discrepancy_range"]
        try:
            for m, n in itertools.product(range(-w, w + 1), repeat=2):
                galois.sigma_convolution(1, 1, m, n, galois.PRINTED)
        except NotInBaseImage:
            return [Check("printed_convention_discrepancy_reproduced", True)]
        return [
            Check(
                "printed_convention_discrepancy_reproduced",
                False,
                witness="printed diagonal branch unexpectedly stayed in the base",
            )
        ]

    return [
        cross_check,
        normalization,
        printed_discrepancy,
        lambda: galois.verify_cocycle_condition(r),
    ]


def _thunks_cleaving(run: _Run):
    conv = run.params.convention
    r = run.params.range
    torus = at2()
    alg = adtq()
    lattice = list(itertools.product(range(-r, r + 1), repeat=2))

    def group_like(k, l):
        return torus.monomial(torus.lattice_mon(k, l))

    def j_star_map():
        j = galois.cleaving_j
        failing = (
            f"u^{k}v^{l}"
            for k, l in lattice
            if j(group_like(k, l).star(), conv) != j(group_like(k, l), conv).star()
        )
        return checks_from({"cleaving_j_star_map": failing})

    def j_colinear():
        failures = galois.colinearity_failures(conv, r)
        if conv == galois.PRINTED:
            found = next(failures, None)
            name = "cleaving_printed_colinearity_fails_on_diagonal"
            return [Check(name, found is not None, witness=found)]
        return checks_from({"cleaving_j_right_colinear": failures})

    def j_convolution_inverse():
        def inverts(k, l):
            j_el = galois.cleaving_j_mon(k, l, conv)
            j_inv = galois.cleaving_j_inverse_mon(k, l, conv)
            return j_el * j_inv == alg.unit() and j_inv * j_el == alg.unit()

        failing = (f"u^{k}v^{l}" for k, l in lattice if not inverts(k, l))
        return checks_from({"cleaving_j_convolution_inverse": failing})

    def j_algebra_map_only_classically():
        j = galois.cleaving_j_mon
        defects = [
            (f"(u^{k}v^{l})(u^{m}v^{n})", j(k, l, conv) * j(m, n, conv) - j(k + m, l + n, conv))
            for k, l, m, n in ((1, 0, 0, 1), (1, 1, 1, 0), (2, 1, 1, 2))
        ]
        found = next((pair for pair, diff in defects if not diff.is_zero()), None)
        at_q1 = (
            max((abs(c.eval_unit(0.0)) for c in diff.terms.values()), default=0.0)
            for _, diff in defects
        )
        classical = (f"defect {worst:.2e} at q=1" for worst in at_q1 if worst > 1e-12)
        return [
            Check("cleaving_j_not_algebra_map_symbolically", found is not None, witness=found),
            *checks_from({"cleaving_j_multiplicative_at_q1": classical}),
        ]

    def ell_checks():
        base = az2()
        ell = galois.ell_table
        window = [
            (alg.format_mon(mon), alg.monomial(mon))
            for mon in enumerate_basis(alg, BasisWindow(d_max=r, gen_max=r))
        ]

        def self_inverse(el):
            # convolution square: ell coincides with its convolution inverse
            square = convolve(galois.ell_table_mon, galois.ell_table_mon, el, base)
            return square == base.unit() * el.counit()

        return checks_from({
            "cocleaving_table_equals_derived": galois.cocleaving_table_mismatches(conv, r),
            "cocleaving_star_map": (f for f, el in window if ell(el.star()) != ell(el).star()),
            "cocleaving_self_convolution_inverse": (f for f, el in window if not self_inverse(el)),
        })

    def lambda_checks():
        hom_range = FIXED_WINDOWS["cleaving"]["coaction_hom_range"]
        hom_lattice = list(itertools.product(range(-hom_range, hom_range + 1), repeat=2))
        formula, coaction = galois.coaction_lambda_mon, galois.coaction_lambda

        def lambda_then_lambda(t):
            # (lambda tensor id) after lambda: the torus leg re-expanded
            return t.expand_leg(0, lambda m: formula(*torus.lattice_exponents(m)), (torus, az2()))

        return checks_from({
            "coaction_formula_equals_derived": (
                f"u^{k}v^{l}"
                for k, l in lattice
                if galois.coaction_lambda_from_ell(k, l, conv) != formula(k, l)
            ),
            "coaction_star_algebra_hom": itertools.chain(
                (
                    f"u^{k}v^{l} * u^{m}v^{n}"
                    for k, l in lattice
                    for m, n in hom_lattice
                    if formula(k, l) * formula(m, n)
                    != coaction(group_like(k, l) * group_like(m, n))
                ),
                (
                    f"u^{k}v^{l}"
                    for k, l in lattice
                    if coaction(group_like(k, l).star()) != formula(k, l).star_legs()
                ),
            ),
            "coaction_laws": (
                f"u^{k}v^{l}"
                for k, l in lattice
                if formula(k, l).coproduct_leg(1) != lambda_then_lambda(formula(k, l))
                or formula(k, l).counit_leg(1) != group_like(k, l)
            ),
        })

    return [j_star_map, j_colinear, j_convolution_inverse, j_algebra_map_only_classically, ell_checks, lambda_checks]


def _thunks_bicross(run: _Run):
    conv = run.params.convention
    bic = galois.build_bicross_product(conv)
    alg = adtq()
    fixed = FIXED_WINDOWS["bicross"]
    mons = bic.basis_by_degree(fixed["phi_max_deg"])

    def phi_bijective():
        # Phi sends each triple to a unit times one triple, injectively on
        # both windows and onto the triples of the inverse window
        window = {
            t
            for m in enumerate_basis(alg, BasisWindow(**fixed["phi_inverse_window"]))
            for t in corner_triples(m)
        }

        def witnesses():
            hit: set = set()
            for mon in sorted(set(mons) | window, key=bic.mon_sort_key):
                coords = corner_coordinates(galois.phi_mon(mon, conv))
                t, c = next(iter(coords.items()), (None, QScalar.zero()))
                if len(coords) != 1 or c * c.star() != QScalar.one() or t in hit:
                    yield f"phi({bic.format_mon(mon)}) is not a unit times a triple of its own"
                hit.add(t)
            yield from (f"the window triple {t} is not an image" for t in sorted(window - hit))

        return checks_from({"bicross_phi_bijective": witnesses()})

    def phi_algebra_hom():
        rng = random.Random(20260810)
        phi = galois.phi
        failing = (
            f"{bic.format_mon(m1)} * {bic.format_mon(m2)}"
            for m1, m2 in ((rng.choice(mons), rng.choice(mons)) for _ in range(200))
            for x, y in [(bic.monomial(m1), bic.monomial(m2))]
            if phi(x * y, conv) != phi(x, conv) * phi(y, conv)
        )
        return checks_from({"bicross_phi_algebra_hom": failing})

    def phi_coalgebra_hom():
        items = [(bic.format_mon(mon), bic.monomial(mon)) for mon in mons]
        laws = galois.hopf_star_map_failures(lambda m: galois.phi_mon(m, conv), alg, items)
        return checks_from({"bicross_phi_coalgebra_hom": laws["coproduct"]})

    def product_examples():
        u1 = bic.monomial((0, 1, 0)) + bic.monomial((1, 1, 0))
        v1 = bic.monomial((0, 0, 1)) + bic.monomial((1, 0, 1))
        expected = bic.monomial((0, 1, 1)) + bic.monomial((1, 1, 1), QScalar.q_power(-1))
        idem = bic.monomial((0, 0, 0))

        def witnesses():
            if u1 * v1 != expected:
                yield f"u1*v1 = {u1 * v1}, expected {expected}"
            if idem * idem != idem:
                yield f"the idempotent squares to {idem * idem}"

        return checks_from({"bicross_product_examples": witnesses()})

    return [
        phi_bijective,
        phi_algebra_hom,
        phi_coalgebra_hom,
        product_examples,
        lambda: run.hopf_axioms(bic),
    ]


def _thunks_haar(run: _Run):
    alg = adtq()
    fixed = FIXED_WINDOWS["haar"]

    def weights():
        cases = (
            ("1", alg.unit(), "1"),
            ("z", alg.gen("z"), "1/2"),
            ("D^3*a^2", alg.gen("D", 3) * alg.gen("a", 2), "0"),
        )
        wrong = (
            f"haar({name}) = {haar(x)}, expected {want}"
            for name, x, want in cases
            if str(haar(x)) != want
        )
        return checks_from({"haar_weights": wrong})

    def weight_derivation():
        # invariance applied to the central unitary group-like annihilates it,
        # which together with normalisation forces the half weights
        g = alg.gen("z") * 2 - alg.unit()
        contracted = alg.combine(
            (alg.monomial(m1), c * haar(alg.monomial(m2)))
            for (m1, m2), c in g.coproduct().terms.items()
        )

        def witnesses():
            if contracted != alg.unit() * haar(g):
                yield f"(id x haar)(coproduct(2z - 1)) = {contracted}, not haar(2z - 1) = {haar(g)}"
            if not haar(g).is_zero():
                yield f"haar(2z - 1) = {haar(g)}, not 0"

        return checks_from({"haar_weight_half_forced_by_invariance": witnesses()})

    def gram():
        value = haar_gram_min_eigenvalue(alg, fixed["gram_max_deg"], run.params.q_theta)
        negative = [] if value >= -1e-9 else [f"min eig {value:.2e}"]
        return checks_from({"haar_gram_positive": negative})

    return [
        weights,
        weight_derivation,
        lambda: haar_biinvariance_checks(alg, fixed["biinvariance_max_deg"]),
        gram,
    ]


def _thunks_characters(run: _Run):
    alg = adtq()

    def corep_family_checks():
        out = []
        for w in (corep.w_rep(0, 1), corep.chi(1), corep.chiz(1), corep.w_rep(-1, 2)):
            out.extend(corep.verify_corep(w))
        # the printed entry layout is the one whose w(0, 1) obeys the corep
        # and counit laws, the first two checks above
        layout = (c.witness for c in out[:2] if not c.passed)
        return out + checks_from({"corep_two_dim_layout_printed": layout})

    def gram_identity():
        return [corep.character_gram_is_identity(corep.standard_families(2, 3))]

    def schur():
        dim_self = len(corep.intertwiner_space(corep.w_rep(0, 1), corep.w_rep(0, 1)))
        dim_cross = len(corep.intertwiner_space(corep.chi(1), corep.chiz(1)))
        two = corep.direct_sum(corep.chi(1), corep.chi(1))
        dims = (dim_self, dim_cross, len(corep.intertwiner_space(two, two)))
        return checks_from({"intertwiner_dimensions": [] if dims == (1, 0, 4) else [f"got {dims}"]})

    def decomposition():
        square = (alg.gen("a") + alg.gen("d")) ** 2
        mults = corep.decompose_character(square, corep.standard_families(2, 3))
        ok = mults == {"w(0,2)": 1, "chiz(1)": 1, "chi(1)": 1}
        return checks_from({"character_decomposition": [] if ok else [str(mults)]})

    return [
        corep_family_checks,
        gram_identity,
        schur,
        decomposition,
        lambda: corep.peter_weyl_checks(2, 3),
    ]


def _thunks_gns(run: _Run):
    p = run.params
    alg = adtq()

    def relations():
        return run.once("gns", lambda: gns.verify_gns_relations(p.window, p.q_theta))[0]

    def sector_preservation():
        opset = gns.operator_set(p.window, p.q_theta)
        crossing = (
            f"{gen} acts on {site}"
            for gen, dead in (("a", "q"), ("d", "q"), ("b", "c"), ("c", "c"))
            for site in opset[gen].cols
            if site[0] == dead
        )
        return checks_from({"gns_sector_preservation": crossing})

    def expectation_bridge():
        def witnesses():
            for mon in alg.basis_by_degree(FIXED_WINDOWS["gns"]["expectation_max_deg"]):
                el = alg.monomial(mon)
                numeric = gns.gns_expectation(el, p.window, p.q_theta)
                defect = abs(numeric - haar(el).eval_unit(p.q_theta))
                if defect > 1e-10:
                    yield f"{alg.format_mon(mon)} (defect {defect:.2e})"

        return checks_from({"gns_expectation_matches_haar": witnesses()})

    def continuity():
        defect = gns.theta_continuity_defect(p.window, p.q_theta)
        bound = gns.theta_continuity_bound(p.window)
        return checks_from({"gns_theta_continuity": [] if defect <= bound else [f"{defect:.2e}"]})

    def norms():
        targets = [
            (alg.gen("a"), 1.0),
            (alg.gen("z"), 1.0),
            (alg.gen("a") + alg.gen("b"), 1.0),
        ]

        def witnesses():
            for el, expected in targets:
                got = gns.estimate_operator_norm(el, p.window, p.q_theta)
                if abs(got - expected) > 1e-6:
                    yield f"norm({el}) = {got}"

        return checks_from({"gns_norm_examples": witnesses()})

    return [relations, sector_preservation, expectation_bridge, continuity, norms]


def _thunks_fdquot(run: _Run):
    n, order = run.params.quotient_n, run.params.q_root

    def build():
        """(quotient, None), or (None, why) when it cannot be built, so that
        each check on it fails with the reason instead of one crash hiding
        them all."""
        try:
            return build_finite_quotient(n, CyclotomicMode(order)), None
        except RootConditionViolated as exc:
            return None, str(exc)
        except QdtError:
            raise
        except Exception as exc:
            return None, f"{type(exc).__name__}: {exc}"

    def dimension(alg):
        # 2n^2 when the order divides 2n.  Otherwise q^(2n) != 1, and
        # b*D^n = q^(2n)*D^n*b with D^n = 1 forces b = 0, likewise c = 0; then
        # z = 1 - b^n = 1, and a, D commute with a^n = D^n = 1 (d = D*a^(n-1)),
        # which leaves the n^2 words D^i a^j.
        expected = 2 * n * n if (2 * n) % order == 0 else n * n
        if alg.dimension != expected:
            yield f"dimension {alg.dimension}, expected {expected}"

    def confluent(alg):
        return ("*".join(pair.word) for pair in alg.system.unresolved_pairs())

    def hopf_ideal(alg):
        parent = adtq()
        z, one = parent.gen("z"), parent.unit()
        ideal_gens = [
            ("a^n-z", parent.gen("a", n) - z),
            ("d^n-z", parent.gen("d", n) - z),
            ("b^n-(1-z)", parent.gen("b", n) - (one - z)),
            ("c^n-(1-z)", parent.gen("c", n) - (one - z)),
            ("D^n-1", parent.gen("D", n) - one),
        ]
        # pi kills each generator, so a law holds at one exactly when the
        # structure map sends it into the ideal (epsilon: to 0)
        laws = galois.hopf_star_map_failures(
            lambda m: alg.from_parent(parent.monomial(m)), alg, ideal_gens
        )
        return itertools.chain(
            (f"{name} not killed" for name, x in ideal_gens if not alg.from_parent(x).is_zero()),
            galois.law_witnesses(laws),
        )

    def on_quotient(name, witnesses):
        """A thunk for a check that scans the quotient for witnesses."""

        def thunk():
            alg, why = run.once("fdquot", build)
            return checks_from({name: [why] if alg is None else witnesses(alg)})

        return thunk

    def symbolic_refused():
        try:
            build_finite_quotient(n, None)
        except RootConditionViolated:
            return [Check("fdquot_symbolic_refused", True)]
        return [Check("fdquot_symbolic_refused", False, witness="built with symbolic q")]

    return [
        on_quotient("fdquot_dimension", dimension),
        on_quotient("fdquot_confluent", confluent),
        on_quotient("fdquot_hopf_ideal", hopf_ideal),
        symbolic_refused,
    ]


_SUITE_BUILDERS = {
    "hopf": _thunks_hopf,
    "cocycle": _thunks_cocycle,
    "cleaving": _thunks_cleaving,
    "bicross": _thunks_bicross,
    "exactseq": lambda run: [lambda: galois.verify_exact_sequence(run.params.range)],
    "diagram": lambda run: [
        lambda: galois.verify_prop14_diagram(FIXED_WINDOWS["diagram"]["max_exp"]),
        lambda: galois.verify_prop14_diagram(
            FIXED_WINDOWS["diagram"]["max_exp"], mutation="bc_weak"
        ),
    ],
    "haar": _thunks_haar,
    "characters": _thunks_characters,
    "gns": _thunks_gns,
    "fdquot": _thunks_fdquot,
}

SUITE_NAMES = (*_SUITE_BUILDERS, "all")


def _contained(suite: str, thunk) -> list[Check]:
    """Run one check thunk; an internal error becomes a failed check.

    Package errors (:class:`QdtError`) still propagate, so the command line
    keeps reporting them as usage errors.
    """
    try:
        return thunk()
    except QdtError:
        raise
    except Exception as exc:
        return [Check(suite, False, witness=f"{type(exc).__name__}: {exc}")]


def run_suite(name: str, params: SuiteParams | None = None) -> Report:
    params = SuiteParams() if params is None else params
    if name not in SUITE_NAMES:
        raise QdtError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    choices = ("all", *HOPF_ALGEBRAS)
    if params.algebra not in choices:
        raise QdtError(f"unknown algebra {params.algebra!r}; choose from {choices}")
    # the expectation check applies words of this degree to the vacuum
    least = FIXED_WINDOWS["gns"]["expectation_max_deg"]
    if name in ("gns", "all") and params.window < least:
        raise QdtError(
            f"window must be at least {least} for the gns suite, whose expectation "
            f"check walks words of degree {least} from the vacuum, got {params.window}"
        )
    started = time.perf_counter()
    run = _Run(name, params)
    ran = _SUITE_BUILDERS if name == "all" else (name,)
    thunks = [(key, thunk) for key in ran for thunk in _SUITE_BUILDERS[key](run)]
    checks: list[Check] = []
    if params.jobs > 1:
        with ThreadPoolExecutor(max_workers=params.jobs) as pool:
            for result in pool.map(lambda pair: _contained(*pair), thunks):
                checks.extend(result)
    else:
        for pair in thunks:
            checks.extend(_contained(*pair))
    report_params = asdict(params)
    if "gns" in run.results:
        _, defects = run.results["gns"]
        report_params["gns_max_defect_per_relation"] = {
            rel: f"{value:.3e}" for rel, value in defects.items()
        }
    if name in ("hopf", "all"):
        report_params["algebra_notes"] = dict(NOTES)
    if name in ("hopf", "bicross", "all"):
        hopf_algebras = (algebra_by_name(alg, params.convention) for alg in HOPF_ALGEBRAS)
        report_params["proofs"] = {
            f"hopf_{alg.tag}": proof_summary(alg, params.max_deg, run.results[alg])
            for alg in hopf_algebras
            if alg in run.results
        }
    report_params["fixed_windows"] = {
        **{key: FIXED_WINDOWS[key] for key in ran if key in FIXED_WINDOWS},
        "cleaving_convention": {"range": galois.CONVENTION_REPORT_RANGE},
    }
    cleaving_convention = galois.convention_report(params.convention)
    return Report(
        suite=name,
        params=report_params,
        cleaving_convention=cleaving_convention,
        checks=checks,
        duration_ms=(time.perf_counter() - started) * 1000,
    )
