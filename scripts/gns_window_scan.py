#!/usr/bin/env python3
"""Finite-window evidence: truncated operator norms as the window grows.

Prints the largest singular value of the truncated matrix, exact over its
connected blocks, for a few elements across increasing window sizes; the
values are non-decreasing and stabilise at the true norms of the
infinite-lattice operators.
"""

import argparse

from qdtorus.algebras import adtq
from qdtorus.exprs import parse_element
from qdtorus.gns import estimate_operator_norm


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q-theta", type=float, default=0.31, dest="theta")
    parser.add_argument("--sizes", type=int, nargs="+", default=[2, 3, 4, 5, 6, 8])
    parser.add_argument(
        "--elements",
        nargs="+",
        default=["a", "a + d", "a + b", "D + Dinv", "2*z - 1"],
    )
    args = parser.parse_args()

    alg = adtq()
    header = "element".ljust(12) + "".join(f"N={n:<10}" for n in args.sizes)
    print(header)
    for text in args.elements:
        element = parse_element(text, alg)
        row = text.ljust(12)
        for size in args.sizes:
            value = estimate_operator_norm(element, size, args.theta)
            row += f"{value:<12.6f}"
        print(row)


if __name__ == "__main__":
    main()
