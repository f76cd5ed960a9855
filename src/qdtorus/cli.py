"""Command-line interface: expression operations, suites and reports.

Exit codes: 0 success / all checks pass, 1 at least one check failed,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict, fields

from . import corep, galois, gns
from .algebras import ALGEBRAS, Element, adtq, build_finite_quotient
from .errors import QdtError
from .exprs import parse_element
from .hopf import haar
from .report import Report
from .scalars import CyclotomicMode
from .suites import SUITE_NAMES, SuiteParams, run_suite

# The commands that print one value of a parsed expression: help, then the map.
_VALUE_COMMANDS = {
    "normalize": ("normal form of an expression", lambda element: element),
    "coproduct": ("coproduct of an expression", Element.coproduct),
    "antipode": ("antipode of an expression", Element.antipode),
    "star": ("involution of an expression", Element.star),
    "haar": ("invariant-state value of an expression", haar),
}


# Help and choices of the suite-parameter flags that have them.
_FLAG_EXTRAS = {
    "algebra": {"help": "target algebra tag"},
    "max_deg": {
        "help": "basis degree scanned for witnesses where a Hopf axiom certificate "
        "fails, and scanned outright for the bicrossed product",
    },
    "convention": {"choices": galois.CONVENTIONS},
}
_DEFAULTS = {f.name: f.default for f in fields(SuiteParams)}


def _add_options(parser: argparse.ArgumentParser, *names: str):
    """Add the flags of the SuiteParams fields ``names`` and of the convention,
    which every command reads, then ``--report``. A flag parses to the type of
    its field's default, and leaves that default to SuiteParams when absent."""
    for name in dict.fromkeys((*names, "convention")):
        parser.add_argument(
            "--" + name.replace("_", "-"),
            type=type(_DEFAULTS[name]),
            default=argparse.SUPPRESS,
            **_FLAG_EXTRAS.get(name, {}),
        )
    parser.add_argument("--report", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdtorus",
        description="Exact symbolic engine and checks for the quantum double-torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (helptext, _) in _VALUE_COMMANDS.items():
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("expression")
        _add_options(cmd, "algebra")

    cmd = sub.add_parser("character", help="character of an irreducible label")
    cmd.add_argument("label", help="chi(m) | chiz(m) | w(m,n)")
    _add_options(cmd)

    cmd = sub.add_parser("decompose", help="decompose a character into irreducibles")
    cmd.add_argument("expression")
    _add_options(cmd, "range")

    cmd = sub.add_parser("verify", help="run a verification suite")
    cmd.add_argument("suite", choices=SUITE_NAMES)
    _add_options(cmd, *_DEFAULTS)

    cmd = sub.add_parser("gns", help="lattice representation checks and values")
    cmd.add_argument("--norm", help="estimate the operator norm of an expression")
    cmd.add_argument("--expect", help="vacuum expectation of an expression")
    _add_options(cmd, "window", "q_theta", "jobs")

    cmd = sub.add_parser("fdquot", help="build a finite root-of-unity quotient")
    cmd.add_argument("quotient_n", metavar="n", type=int)
    _add_options(cmd, "q_root", "jobs")
    return parser


def _params(args) -> SuiteParams:
    """The suite parameters of a command line: each flag it was given, and
    the field's default for the rest."""
    return SuiteParams(**{name: getattr(args, name) for name in _DEFAULTS if hasattr(args, name)})


def _emit_value(args, params: SuiteParams, label: str, value) -> int:
    if args.report == "json":
        payload = {
            "command": args.command,
            "params": asdict(params),
            "cleaving_convention": galois.convention_report(params.convention),
            label: str(value),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(value)
    return 0


def _emit_report(args, report: Report, values: dict | None = None) -> int:
    """Print the report and ``values`` (label -> number, shown to 12 digits):
    in JSON under the added key "values", in text as ``label = value`` lines."""
    shown = {label: f"{value:.12g}" for label, value in (values or {}).items()}
    if args.report == "json":
        payload = report.to_json_dict() | ({"values": shown} if shown else {})
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(report.to_text())
        for label, value in shown.items():
            print(f"{label} = {value}")
    return 0 if report.ok else 1


_LABEL = re.compile(r"^(chi|chiz|w)\((-?\d+)(?:,(\d+))?\)$")


def _corep_by_label(label: str) -> corep.CorepMatrix:
    m = _LABEL.match(label.replace(" ", ""))
    if not m:
        raise QdtError(f"bad irreducible label {label!r}")
    kind, first, second = m.group(1), int(m.group(2)), m.group(3)
    if kind == "chi":
        return corep.chi(first)
    if kind == "chiz":
        return corep.chiz(first)
    if second is None:
        raise QdtError("the two-dimensional family needs w(m,n)")
    return corep.w_rep(first, int(second))


def dispatch(args) -> int:
    params = _params(args)
    if args.command in _VALUE_COMMANDS:
        algebra = ALGEBRAS.get(params.algebra)
        if algebra is None:
            raise QdtError(f"unknown algebra {params.algebra!r}; choose from {tuple(ALGEBRAS)}")
        _, value_of = _VALUE_COMMANDS[args.command]
        value = value_of(parse_element(args.expression, algebra()))
        return _emit_value(args, params, "result", value)

    if args.command == "character":
        w = _corep_by_label(args.label)
        return _emit_value(args, params, "character", corep.character_of(w))

    if args.command == "decompose":
        element = parse_element(args.expression, adtq())
        families = corep.standard_families(params.range, params.range)
        mults = corep.decompose_character(element, families)
        return _emit_value(args, params, "multiplicities", mults)

    if args.command == "verify":
        return _emit_report(args, run_suite(args.suite, params))

    if args.command == "gns":
        report = run_suite("gns", params)
        values = {}
        if args.norm:
            element = parse_element(args.norm, adtq())
            value = gns.estimate_operator_norm(element, params.window, params.q_theta)
            values[f"norm({args.norm})"] = value
        if args.expect:
            element = parse_element(args.expect, adtq())
            value = gns.gns_expectation(element, params.window, params.q_theta)
            values[f"expectation({args.expect})"] = value.real if not value.imag else value
        return _emit_report(args, report, values)

    if args.command == "fdquot":
        algebra = build_finite_quotient(params.quotient_n, CyclotomicMode(params.q_root))
        return _emit_report(args, run_suite("fdquot", params), {"dimension": algebra.dimension})

    raise QdtError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return dispatch(args)
    except QdtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
