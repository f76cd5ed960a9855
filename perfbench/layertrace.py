"""Layer tracing from outside the package: wrap public functions, keep spans.

Every wrapped boundary counts its calls and accumulates self time (its
duration minus the time its wrapped children cover).  Coarse boundaries also
record a span (name, start, end, parent span) in memory; the hot arithmetic
boundaries are only aggregated, because a span per scalar product would cost
more memory than the run itself.  Nothing in ``src/`` is edited: the wrappers
replace class attributes and every module-global reference to a function.
"""

from __future__ import annotations

import json
import sys
import time

_clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "self_s", "incl_s", "depth", "added")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0  # outermost activations only, so recursion is not double counted
        self.depth = 0
        self.added = 0  # growth of a memo table or rule list, read at the outermost call


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.stack: list[list] = []  # frames: [child_time, name, span_index]
        self.spans: list[list] = []  # [name, start, end, parent_index]
        self.toplevel_s = 0.0
        self.power_iteration_applies = 0

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _parent_span(self) -> int:
        for frame in reversed(self.stack):
            if frame[2] >= 0:
                return frame[2]
        return -1

    def wrap(self, fn, name: str, spans: bool = False, size=None):
        """Wrap ``fn``; ``size(args)`` reads a table length before and after."""
        stat = self.stat(name)
        stack = self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            stat.calls += 1
            outer = stat.depth == 0
            stat.depth += 1
            span = -1
            if spans:
                span = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, tracer._parent_span()])
            if name == "gns.apply" and stack and stack[-1][1] == "gns.norm":
                tracer.power_iteration_applies += 1
            before = size(args) if size is not None and outer else 0
            frame = [0.0, name, span]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                stat.depth -= 1
                d = t1 - t0
                stat.self_s += d - frame[0]
                if outer:
                    stat.incl_s += d
                    if size is not None:
                        stat.added += size(args) - before
                if stack:
                    stack[-1][0] += d
                else:
                    tracer.toplevel_s += d
                if spans:
                    tracer.spans[span][1] = t0
                    tracer.spans[span][2] = t1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def dump(self, path: str, meta: dict):
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "stats": {
                        k: {"calls": s.calls, "self_s": s.self_s, "incl_s": s.incl_s, "added": s.added}
                        for k, s in sorted(self.stats.items())
                    },
                    "spans": self.spans,
                },
                fh,
            )


def _replace_everywhere(old, new):
    """Point every module-global reference inside the package at ``new``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "qdtorus" and not mod_name.startswith("qdtorus."):
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)


def _patch_function(tracer, module, attr, name, spans=False, size=None):
    old = getattr(module, attr)
    _replace_everywhere(old, tracer.wrap(old, name, spans=spans, size=size))


def _patch_method(tracer, cls, attrs, name, spans=False, size=None):
    for attr in attrs:
        setattr(cls, attr, tracer.wrap(cls.__dict__[attr], name, spans=spans, size=size))


SUITES = (
    "hopf", "cocycle", "cleaving", "bicross", "exactseq",
    "diagram", "haar", "characters", "gns", "fdquot",
)


def install(tracer: Tracer):
    """Wrap the layer boundaries of every module; call before any algebra is built."""
    from qdtorus import algebras, corep, exprs, galois, gns, hopf, linalg, scalars, suites, words

    _patch_method(tracer, scalars.QScalar, ("__mul__", "__rmul__"), "scalars.mul")
    _patch_method(tracer, scalars.QScalar, ("__add__", "__radd__"), "scalars.add")
    _patch_method(tracer, scalars.CyclotomicMode, ("canon",), "scalars.canon")
    _patch_function(tracer, scalars, "invert_in_cyclotomic_field", "scalars.field_inverse")

    _patch_method(
        tracer, words.RewriteSystem, ("normalize",), "words.normalize",
        size=lambda a: len(a[0]._cache),
    )
    _patch_method(
        tracer, words.RewriteSystem, ("complete",), "words.complete",
        spans=True, size=lambda a: len(a[0].rules),
    )
    _patch_method(tracer, words.RewriteSystem, ("unresolved_pairs",), "words.critical_pairs", spans=True)

    _patch_method(tracer, algebras.Element, ("__mul__",), "algebras.element_mul")
    _patch_method(tracer, algebras.Element, ("__add__", "__radd__"), "algebras.element_add")
    _patch_method(tracer, algebras.TensorElement, ("__mul__", "__rmul__"), "algebras.tensor_mul")
    _patch_method(tracer, algebras.TensorElement, ("__add__",), "algebras.tensor_add")
    _patch_method(
        tracer, algebras.WordAlgebra, ("mul_mon",), "algebras.mul_mon",
        size=lambda a: len(a[0]._mul_cache),
    )
    _patch_method(
        tracer, algebras.WordAlgebra, ("coproduct_mon",), "algebras.coproduct_mon",
        size=lambda a: len(a[0]._cop_cache),
    )
    _patch_method(tracer, algebras.WordAlgebra, ("antipode_mon",), "algebras.antipode_mon")
    _patch_method(tracer, algebras.WordAlgebra, ("star_mon",), "algebras.star_mon")

    _patch_function(tracer, linalg, "solve_unique", "linalg.solve_unique", spans=True)
    _patch_function(tracer, linalg, "nullspace", "linalg.nullspace", spans=True)

    _patch_function(tracer, hopf, "verify_hopf_axioms", "hopf.verify_axioms", spans=True)
    _patch_function(tracer, hopf, "haar", "hopf.haar")

    _patch_function(tracer, galois, "sigma_convolution", "galois.sigma_convolution")
    _patch_function(tracer, galois, "verify_cocycle_condition", "galois.cocycle_condition", spans=True)
    _patch_function(tracer, galois, "convention_report", "galois.convention_report", spans=True)

    _patch_function(tracer, corep, "intertwiner_space", "corep.intertwiner", spans=True)
    _patch_function(tracer, corep, "character_gram", "corep.gram", spans=True)

    _patch_method(tracer, gns.SparseOperator, ("apply",), "gns.apply")
    _patch_method(tracer, gns.SparseOperator, ("compose",), "gns.compose")
    _patch_function(tracer, gns, "operator_set", "gns.operator_set", spans=True)
    _patch_function(tracer, gns, "estimate_operator_norm", "gns.norm", spans=True)

    _patch_function(tracer, exprs, "parse_element", "exprs.parse")

    for key in SUITES:
        builder = suites._SUITE_BUILDERS[key]
        suites._SUITE_BUILDERS[key] = _suite_builder(tracer, builder, f"suites.{key}")


def _suite_builder(tracer, builder, name):
    """Time a suite's builder and every thunk it returns under one name."""
    timed_builder = tracer.wrap(builder, name, spans=True)

    def build(params):
        return [tracer.wrap(thunk, name, spans=True) for thunk in timed_builder(params)]

    return build


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the aggregated stats (self times unless noted)."""
    s = tracer.stats
    get = lambda name: s.get(name) or Stat()  # noqa: E731
    out = {}

    def count(key, value):
        out[key] = (value, "count")

    def secs(key, value):
        out[key] = (value, "s")

    count("scalars.mul_calls", get("scalars.mul").calls)
    secs("scalars.mul_s", get("scalars.mul").self_s)
    count("scalars.add_calls", get("scalars.add").calls)
    secs("scalars.add_s", get("scalars.add").self_s)
    count("scalars.canon_calls", get("scalars.canon").calls)
    secs("scalars.canon_s", get("scalars.canon").self_s)
    secs("scalars.field_inverse_s", get("scalars.field_inverse").self_s)

    norm = get("words.normalize")
    count("words.normalize_calls", norm.calls)
    secs("words.normalize_s", norm.self_s)
    count("words.normalize_cache_added", norm.added)
    out["words.normalize_hit_ratio"] = (
        (1.0 - norm.added / norm.calls) if norm.calls else 0.0,
        "ratio",
    )
    secs("words.complete_s", get("words.complete").self_s)
    count("words.rules_added", get("words.complete").added)
    secs("words.critical_pairs_s", get("words.critical_pairs").self_s)

    count("algebras.element_mul_calls", get("algebras.element_mul").calls)
    secs("algebras.element_mul_s", get("algebras.element_mul").self_s)
    secs("algebras.element_add_s", get("algebras.element_add").self_s)
    secs("algebras.tensor_mul_s", get("algebras.tensor_mul").self_s)
    secs("algebras.tensor_add_s", get("algebras.tensor_add").self_s)
    count("algebras.mul_mon_calls", get("algebras.mul_mon").calls)
    count("algebras.mul_mon_cache_added", get("algebras.mul_mon").added)
    count("algebras.coproduct_mon_calls", get("algebras.coproduct_mon").calls)
    count("algebras.coproduct_mon_cache_added", get("algebras.coproduct_mon").added)
    count("algebras.antipode_mon_calls", get("algebras.antipode_mon").calls)
    count("algebras.star_mon_calls", get("algebras.star_mon").calls)
    secs("algebras.build_s", get("algebras.build").incl_s)

    count("linalg.solve_unique_calls", get("linalg.solve_unique").calls)
    secs("linalg.solve_unique_s", get("linalg.solve_unique").self_s)
    secs("linalg.nullspace_s", get("linalg.nullspace").self_s)

    secs("hopf.verify_axioms_s", get("hopf.verify_axioms").self_s)
    count("hopf.haar_calls", get("hopf.haar").calls)
    secs("hopf.haar_s", get("hopf.haar").self_s)

    count("galois.sigma_convolution_calls", get("galois.sigma_convolution").calls)
    secs("galois.sigma_convolution_s", get("galois.sigma_convolution").self_s)
    secs("galois.cocycle_condition_s", get("galois.cocycle_condition").self_s)
    secs("galois.convention_report_s", get("galois.convention_report").self_s)

    secs("corep.intertwiner_s", get("corep.intertwiner").self_s)
    secs("corep.gram_s", get("corep.gram").self_s)

    count("gns.apply_calls", get("gns.apply").calls)
    secs("gns.apply_s", get("gns.apply").self_s)
    count("gns.power_iterations", tracer.power_iteration_applies // 2)
    count("gns.compose_calls", get("gns.compose").calls)
    secs("gns.compose_s", get("gns.compose").self_s)
    secs("gns.operator_set_s", get("gns.operator_set").self_s)
    secs("gns.norm_s", get("gns.norm").self_s)

    count("exprs.parse_calls", get("exprs.parse").calls)
    secs("exprs.parse_s", get("exprs.parse").self_s)

    for key in SUITES:
        secs(f"suites.{key}_s", get(f"suites.{key}").incl_s)
    return out
