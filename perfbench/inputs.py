"""Seeded inputs for the four workloads.

The same seed always gives the same inputs.  String seeds are hashed with
SHA-512 by ``random.Random``, so the streams do not depend on PYTHONHASHSEED.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify-all", "expr-stream", "gns-norms", "fdquot-sweep")

# -- verify-all: the CLI with default parameters; the seed has nothing to vary

VERIFY_ARGV = ["verify", "all", "--report", "json"]

# -- expr-stream ---------------------------------------------------------------

LETTERS = ("a", "b", "c", "d", "D", "Dinv", "z")
OPS = {
    "ADTq": ("normalize", "coproduct", "antipode", "star", "haar"),
    "AUq2": ("normalize", "coproduct", "antipode", "star"),
}
BLOCK = 200  # queries per block; a run answers whole blocks
MAX_WORD = 6
CHECKS_PER_BLOCK = 8
# The memo tables fill as the stream goes on, so later blocks are cheaper and
# memory grows.  Every figure is taken over the first MEASURED_BLOCKS blocks,
# which a run always answers, so that a faster program is measured on the
# same work and not on more of it.
MEASURED_BLOCKS = 100

# The worked examples of the package README, asked at the head of every block.
REFERENCE_QUERIES = (
    ("AUq2", "normalize", "b*a", "q*a*b"),
    ("ADTq", "normalize", "b*c", "-q*D + q*D*z"),
    ("ADTq", "antipode", "b", "-q^-1*Dinv*b"),
    ("ADTq", "star", "D", "Dinv"),
    ("ADTq", "haar", "z", "1/2"),
)


def _term(rng: random.Random) -> tuple:
    """(scalar, letters): scalar is None, ("q", k) or ("frac", p, r)."""
    r = rng.random()
    if r < 0.25:
        scalar = ("q", rng.randint(-3, 3))
    elif r < 0.5:
        scalar = ("frac", rng.randint(1, 5), rng.randint(1, 4))
    else:
        scalar = None
    return scalar, tuple(rng.choice(LETTERS) for _ in range(rng.randint(1, MAX_WORD)))


def render(terms) -> str:
    """Expression text of [(sign, scalar, letters)] terms."""
    out = ""
    for sign, scalar, letters in terms:
        parts = []
        if scalar is not None:
            parts.append(f"q^{scalar[1]}" if scalar[0] == "q" else f"{scalar[1]}/{scalar[2]}")
        parts.extend(letters)
        text = "*".join(parts)
        out = (("-" if sign < 0 else "") + text) if not out else out + (" - " if sign < 0 else " + ") + text
    return out


def expr_block(seed: int, index: int, size: int = BLOCK):
    """Block ``index`` of the stream and the row numbers checked against the
    Hopf laws.  A row is (algebra, op, text, expected-or-None, terms)."""
    rng = random.Random(f"expr-stream/{seed}/{index}")
    rows = [
        (alg, op, text, expected, [(1, None, tuple(text.split("*")))])
        for alg, op, text, expected in REFERENCE_QUERIES
    ]
    while len(rows) < size:
        alg = rng.choice(("ADTq", "AUq2"))
        op = rng.choice(OPS[alg])
        terms = [(1, *_term(rng))]
        for _ in range(rng.randint(0, 2)):
            terms.append((rng.choice((1, -1)), *_term(rng)))
        rows.append((alg, op, render(terms), None, terms))
    first = len(REFERENCE_QUERIES)
    sampled = sorted(rng.sample(range(first, size), min(CHECKS_PER_BLOCK, size - first)))
    return rows, sampled


# -- gns-norms ----------------------------------------------------------------

NORM_ELEMENTS = ("a", "z", "a + b", "a + d", "D + Dinv")
WINDOWS = (4, 6, 8, 10, 12, 14)
THETAS = (0.13, 0.31, 0.47, 0.62, 0.77, 0.91)

# -- fdquot-sweep ---------------------------------------------------------------

# Orders that divide 2n and satisfy (-q)^(n^2) = 1.  At an order that does not
# divide 2n, b*D^n = q^(2n)*D^n*b forces b = c = 0 and the dimension drops to
# n^2, so 2n^2 is only the expected answer on these.
FDQUOT_ORDERS = {3: (6,), 4: (4, 8), 5: (10,), 6: (6, 12), 7: (14,), 8: (8, 16)}
FDQUOT_NS = (4, 5, 6, 7, 8)
REFUSED_PAIRS = ((2, 8), (3, 12), (4, 32), (5, 20), (6, 24))


def make_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-all":
        # the self-test runs one small suite instead of the 15 s ``all``
        return {"argv": ["verify", "haar", "--report", "json"] if tiny else VERIFY_ARGV}
    if workload == "expr-stream":
        return {
            "seed": seed,
            "block": 40 if tiny else BLOCK,
            "measured_blocks": 2 if tiny else MEASURED_BLOCKS,
        }
    if workload == "gns-norms":
        elements = list(NORM_ELEMENTS)
        rng.shuffle(elements)
        return {
            "theta": rng.choice(THETAS),
            "windows": list(WINDOWS[:2] if tiny else WINDOWS),
            "elements": elements,
        }
    if workload == "fdquot-sweep":
        ns = [3, 4] if tiny else list(FDQUOT_NS)
        rng.shuffle(ns)
        return {
            "builds": [[n, rng.choice(FDQUOT_ORDERS[n])] for n in ns],
            "refused": list(rng.choice(REFUSED_PAIRS)),
        }
    raise ValueError(f"unknown workload {workload!r}")
