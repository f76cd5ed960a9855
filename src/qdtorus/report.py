"""Check and report containers with text and JSON rendering."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass


@dataclass
class Check:
    name: str
    passed: bool
    witness: str | None = None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


def checks_from(scans: dict[str, Iterable[str]]) -> list[Check]:
    """One check per named scan of witnesses: it fails with the first witness
    of its scan, computing nothing after it, and passes on an empty scan."""
    witnesses = {name: next(iter(scan), None) for name, scan in scans.items()}
    return [Check(name, w is None, witness=w) for name, w in witnesses.items()]


def detection(name: str, scan: Iterable[str], scanned: str) -> Check:
    """A check that an expected defect shows: it passes with the first
    witness of ``scan``, and on an empty scan fails naming what was scanned."""
    found = next(iter(scan), None)
    if found is None:
        return Check(name, False, witness=f"no defect in {scanned}")
    return Check(name, True, witness=found)


@dataclass
class Report:
    suite: str
    params: dict
    cleaving_convention: dict
    checks: list[Check]
    duration_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def sorted_checks(self) -> list[Check]:
        return sorted(self.checks, key=lambda c: c.name)

    def to_json_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "params": self.params,
            "cleaving_convention": self.cleaving_convention,
            "checks": [
                {"name": c.name, "status": c.status}
                | ({"witness": c.witness} if c.witness is not None else {})
                for c in self.sorted_checks()
            ],
            "duration_ms": self.duration_ms,
        }
        return out

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for key, value in sorted(self.params.items()):
            lines.append(f"  param {key} = {value}")
        conv = self.cleaving_convention
        lines.append(
            "  cleaving_convention: active={active} sigma={sigma_table_matches_convolution}"
            " ell={cocleaving_table_matches_derived} colinear={right_colinearity}".format(**conv)
        )
        for c in self.sorted_checks():
            lines.append(f"  [{c.status.upper():4}] {c.name}")
            if c.witness:
                lines.append(f"         witness: {c.witness}")
        status = "PASS" if self.ok else "FAIL"
        lines.append(f"result: {status} ({len(self.checks)} checks, {self.duration_ms:.0f} ms)")
        return "\n".join(lines)
