"""Exact symbolic engine and verification suites for the quantum double-torus."""

from .algebras import (
    BasisWindow,
    Element,
    TensorElement,
    adtq,
    at2,
    at2q,
    auq2,
    az2,
    build_finite_quotient,
    enumerate_basis,
)
from .exprs import parse_element
from .scalars import CyclotomicMode, QScalar
from .suites import SuiteParams, run_suite

__all__ = [
    "BasisWindow",
    "CyclotomicMode",
    "Element",
    "QScalar",
    "SuiteParams",
    "TensorElement",
    "adtq",
    "at2",
    "at2q",
    "auq2",
    "az2",
    "build_finite_quotient",
    "enumerate_basis",
    "parse_element",
    "run_suite",
]
