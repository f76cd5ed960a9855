"""Truncated numeric realization of the invariant-state representation.

The representation acts on a two-sector lattice basis indexed by
(sector, m, n).  The four generators are weighted shifts given in closed
form; the determinant, its inverse and the idempotent witness are built
compositionally.  A window numbers its sites once, and an operator is a short
list of weighted shifts over those numbers.  Columns whose image leaves the
window are marked truncated, and all statements are asserted on the interior.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .algebras import Element, adtq
from .errors import WindowOverflow
from .report import Check, checks_from

Site = tuple[str, int, int]
Vec = dict[Site, complex]


@dataclass(frozen=True)
class LatticeWindow:
    size: int

    def sites(self) -> list[Site]:
        """Sector "c" before "q", then m, then n, each ascending."""
        return [self.site(i) for i in range(len(self))]

    def interior(self) -> list[Site]:
        return [site for site in self.sites() if self.is_interior(site)]

    def contains(self, site: Site) -> bool:
        return abs(site[1]) <= self.size and abs(site[2]) <= self.size

    def is_interior(self, site: Site) -> bool:
        return abs(site[1]) < self.size and abs(site[2]) < self.size

    def __len__(self) -> int:
        return 2 * (2 * self.size + 1) ** 2

    def index(self, site: Site) -> int:
        """Position of a contained site in ``sites()``."""
        return self.number(site[0] == "q", site[1], site[2])

    def number(self, sector, m, n):
        """``index`` of coordinates, also elementwise on arrays; sector 0 is
        "c" and 1 is "q"."""
        side = 2 * self.size + 1
        return (sector * side + m + self.size) * side + n + self.size

    def site(self, i) -> Site:
        side = 2 * self.size + 1
        sector, rest = divmod(int(i), side * side)
        m, k = divmod(rest, side)
        return ("cq"[sector], m - self.size, k - self.size)

    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``site`` of every site number at once: the sector (0 for "c", 1
        for "q"), m and n arrays in ``sites()`` order."""
        side = 2 * self.size + 1
        sector, rest = np.divmod(np.arange(len(self)), side * side)
        m, k = np.divmod(rest, side)
        return sector, m - self.size, k - self.size

    def interior_mask(self) -> np.ndarray:
        _, m, n = self.coordinates()
        return (np.abs(m) < self.size) & (np.abs(n) < self.size)


def lattice_shifts(m, n, power):
    """The generators in closed form at the sites of coordinate arrays.

    Each maps to the sector it acts on (0 for "c", 1 for "q"; it is zero on
    the other) and, per site, to the image (m', n') and the weight on the
    infinite lattice; ``power(e)`` is q**e elementwise.
    """
    return {
        "a": (0, m + (n < 0), n + 1, 1),
        "d": (0, m + (n > 0), n - 1, 1),
        "b": (1, m + (n > 0), n - 1, np.where(n > 0, -power(2 * n - 1), power(2 * m))),
        "c": (1, m + (n < 0), n + 1, np.where(n >= 0, 1, -power(-2 * m - 1))),
    }


def _mul(x, y):
    """x * y for complex arrays or numbers, rounded as Python rounds it."""
    out = np.empty(np.broadcast(x, y).shape, complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


class SparseOperator:
    """A sum of weighted shifts on the numbered sites of a window.

    A shift is a pair of arrays over the sites: each column's target (-1 for
    none) and weight.  A word is one shift, an element one shift per
    monomial; shared entries add up in list order.  ``truncated`` marks the
    columns whose true image was clipped by the window; strict application
    refuses them.  The arrays are read-only: cached operator sets are shared.
    """

    def __init__(self, window: LatticeWindow, shifts=(), truncated=None):
        self.window = window
        self.shifts = list(shifts)
        self.truncated = np.zeros(len(window), bool) if truncated is None else truncated
        for array in (self.truncated, *(a for shift in self.shifts for a in shift)):
            array.flags.writeable = False

    @property
    def cols(self) -> dict[Site, dict[Site, complex]]:
        """The nonzero entries as ``{column site: {row site: weight}}``."""
        cols: dict[Site, dict[Site, complex]] = {}
        for targets, weights in self.shifts:
            for i, (t, w) in enumerate(zip(targets.tolist(), weights.tolist())):
                if t >= 0:
                    col = cols.setdefault(self.window.site(i), {})
                    row = self.window.site(t)
                    col[row] = col.get(row, 0j) + w
        cols = {s: {t: v for t, v in col.items() if v != 0} for s, col in cols.items()}
        return {s: col for s, col in cols.items() if col}

    def apply(self, vec: Vec, strict: bool = False) -> Vec:
        out: Vec = {}
        for site, amp in vec.items():
            if abs(amp) < 1e-15 or not self.window.contains(site):
                continue
            i = self.window.index(site)
            if strict and self.truncated[i]:
                raise WindowOverflow(f"column {site} is truncated")
            for targets, weights in self.shifts:
                if targets[i] >= 0:
                    row = self.window.site(targets[i])
                    out[row] = out.get(row, 0j) + complex(weights[i]) * amp
        return {s: v for s, v in out.items() if v != 0}

    def compose(self, other: "SparseOperator") -> "SparseOperator":
        """self applied after other."""
        shifts = []
        truncated = other.truncated.copy()
        for mids, w1 in other.shifts:
            hit = mids >= 0
            truncated |= hit & self.truncated[mids]
            for targets, w2 in self.shifts:
                shifts.append((np.where(hit, targets[mids], -1), _mul(w2[mids], w1)))
        return SparseOperator(self.window, shifts, truncated)

    def adjoint(self, mark_missing_rows: bool = False) -> "SparseOperator":
        """Of injective shifts; ``mark_missing_rows`` truncates rows never hit."""
        shifts = []
        reached = np.zeros(len(self.window), bool)
        for targets, weights in self.shifts:
            cols = np.flatnonzero(targets >= 0)
            rows = targets[cols]
            if np.unique(rows).size < rows.size:
                raise ValueError("the adjoint of a shift that is not injective")
            back, conj = np.full(len(self.window), -1), np.zeros(len(self.window), complex)
            back[rows], conj[rows], reached[rows] = cols, weights[cols].conj(), True
            shifts.append((back, conj))
        truncated = ~reached if mark_missing_rows else None
        return SparseOperator(self.window, shifts, truncated)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        truncated = self.truncated | other.truncated
        return SparseOperator(self.window, self.shifts + other.shifts, truncated)

    def scaled(self, factor: complex) -> "SparseOperator":
        shifts = [(t, _mul(factor, w)) for t, w in self.shifts]
        return SparseOperator(self.window, shifts, self.truncated)

    def entries(self, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The entry at each (column, row) pair, its shifts summed in order."""
        hits = (np.where(t[cols] == rows, w[cols], 0) for t, w in self.shifts)
        return sum(hits, np.zeros(len(cols), complex))

    def column_defect(self, other: "SparseOperator", columns: np.ndarray) -> float:
        """Largest entrywise gap to ``other`` over the masked columns."""
        worst = 0.0
        for targets, _ in self.shifts + other.shifts:
            cols = np.flatnonzero(columns & (targets >= 0))
            gap = self.entries(cols, targets[cols]) - other.entries(cols, targets[cols])
            worst = max(worst, float(np.hypot(gap.real, gap.imag).max(initial=0.0)))
        return worst


@dataclass
class OperatorSet:
    """The generator operators plus composites, at one window and one theta."""

    window: LatticeWindow
    theta: float
    ops: dict[str, SparseOperator]

    def __getitem__(self, gen: str) -> SparseOperator:
        return self.ops[gen]

    def identity(self) -> SparseOperator:
        n = len(self.window)
        return SparseOperator(self.window, [(np.arange(n), np.ones(n, complex))])


def build_generator_operators(window: LatticeWindow, theta: float) -> OperatorSet:
    """The shift operators; the determinant, its inverse and the idempotent
    witness are composed from them rather than postulated.

    Composites are assembled on a padded window and clipped, so that inside
    the requested window they agree with the infinite-lattice operators and
    truncation shows up only as clipped targets, never as lost interior
    columns.
    """
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta parametrises the unit circle: need 0 <= theta < 1")
    padded = LatticeWindow(window.size + 3)
    qval = cmath.exp(2j * cmath.pi * theta)
    ops = _generators(padded, qval)
    ad = ops["a"].compose(ops["d"])
    bc = ops["b"].compose(ops["c"]).scaled(-(qval ** -1))
    # a and d act on sector "c" only, b and c on sector "q": one shift holds both
    (ad_t, ad_w), (bc_t, bc_w) = ad.shifts + bc.shifts
    both = [(np.where(ad_t >= 0, ad_t, bc_t), np.where(ad_t >= 0, ad_w, bc_w))]
    ops["D"] = SparseOperator(padded, both, ad.truncated | bc.truncated)
    ops["Dinv"] = ops["D"].adjoint(mark_missing_rows=True)
    ops["z"] = ops["Dinv"].compose(ad)
    inner = padded.number(*window.coordinates())
    return OperatorSet(window, theta, {g: _clip(op, window, inner) for g, op in ops.items()})


def _generators(window: LatticeWindow, qval: complex) -> dict[str, SparseOperator]:
    """a, b, c and d on the window; a column whose image leaves it is truncated.

    Each q**e is read from a table of Python's complex ``**`` over the
    distinct exponents: the weights must round as ``qval ** e`` does, since
    the reported relation defects are rounding residues.
    """

    def power(e):
        exps, at = np.unique(e, return_inverse=True)
        return np.array([qval ** int(x) for x in exps], complex)[at]

    sector, m, n = window.coordinates()
    ops = {}
    for gen, (home, m2, n2, weight) in lattice_shifts(m, n, power).items():
        acts = sector == home
        inside = (np.abs(m2) <= window.size) & (np.abs(n2) <= window.size)
        hit = acts & inside
        targets = np.where(hit, window.number(sector, m2, n2), -1)
        ops[gen] = SparseOperator(window, [(targets, np.where(hit, weight, 0j))], acts & ~inside)
    return ops


def _clip(op: SparseOperator, window: LatticeWindow, inner: np.ndarray) -> SparseOperator:
    """Restrict to the window, whose sites sit at ``inner`` among the op's."""
    into = np.full(len(op.window), -1)
    into[inner] = np.arange(len(window))
    truncated = op.truncated[inner].copy()
    shifts = []
    for targets, weights in op.shifts:
        hit = targets[inner] >= 0
        kept = np.where(hit, into[targets[inner]], -1)
        truncated |= hit & (kept < 0)
        shifts.append((kept, weights[inner]))
    return SparseOperator(window, shifts, truncated)


def operator_for_word(word, opset: OperatorSet) -> SparseOperator:
    ops = [opset[letter] for letter in word]
    return reduce(SparseOperator.compose, ops) if ops else opset.identity()


def operator_for_terms(terms, opset: OperatorSet) -> SparseOperator:
    """The sum of ``coeff * word`` over (word, coeff) pairs, one shift per word."""
    scaled = (operator_for_word(w, opset).scaled(c.eval_unit(opset.theta)) for w, c in terms)
    return sum(scaled, SparseOperator(opset.window))


def operator_for_element(e: Element, opset: OperatorSet) -> SparseOperator:
    return operator_for_terms(e.terms.items(), opset)


def apply_element(e: Element, vec: Vec, opset: OperatorSet, strict: bool = True) -> Vec:
    """Apply an element letterwise; strict mode raises on truncation loss."""
    out: Vec = {}
    for mon, coeff in e.terms.items():
        current = dict(vec)
        for letter in reversed(mon):
            current = opset[letter].apply(current, strict=strict)
        factor = coeff.eval_unit(opset.theta)
        for site, amp in current.items():
            out[site] = out.get(site, 0j) + factor * amp
    return {s: v for s, v in out.items() if abs(v) > 0}


@lru_cache(maxsize=None)
def operator_set(window_size: int, theta: float) -> OperatorSet:
    return build_generator_operators(LatticeWindow(window_size), theta)


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


# The largest entrywise defect a relation, adjoint or isometry check forgives.
RELATION_TOL = 1e-10


def verify_gns_relations(window_size: int, theta: float) -> tuple[list[Check], dict[str, float]]:
    """Relations, adjoints and determinant isometry on the window interior.

    Returns the checks plus the maximal defect observed per relation.
    """
    opset = operator_set(window_size, theta)
    window = opset.window
    alg = adtq()
    interior = window.interior_mask()
    # every relation's defect is computed, since the report lists them all
    relation_defects = []
    for rule in alg.system.rules:
        lhs = operator_for_word(rule.pattern, opset)
        rhs = operator_for_terms(((word, coeff) for coeff, word in rule.result), opset)
        relation_defects.append((rule, lhs.column_defect(rhs, interior)))

    def adjoint_gaps(gen):
        """The interior columns where gen* is not the adjoint of gen."""
        (targets, weights), = opset[gen].shifts
        star_op = operator_for_element(alg.gen(gen).star(), opset)
        cols = np.flatnonzero(interior & (targets >= 0) & interior[targets])
        gaps = np.abs(star_op.entries(targets[cols], cols) - weights[cols].conj())
        return cols[gaps > RELATION_TOL]

    (targets, weights), = opset["D"].shifts
    cols = np.flatnonzero(interior)
    first_hit = np.isin(np.arange(cols.size), np.unique(targets[cols], return_index=True)[1])
    bad = (targets[cols] < 0) | ~first_hit | (np.abs(np.abs(weights[cols]) - 1.0) > RELATION_TOL)
    defects = {"*".join(rule.pattern): defect for rule, defect in relation_defects}
    return checks_from({
        "gns_defining_relations": (
            f"{rule} (defect {defect:.2e})"
            for rule, defect in relation_defects
            if defect > RELATION_TOL
        ),
        "gns_adjoint_consistency": (
            f"{gen} at {window.site(col)}"
            for gen in ("a", "b", "c", "d", "D", "z")
            for col in adjoint_gaps(gen)
        ),
        "gns_determinant_isometric": (f"determinant at {window.site(col)}" for col in cols[bad]),
    }), defects


def gns_expectation(e: Element, window_size: int, theta: float) -> complex:
    """Vector state of the vacuum; sectors never mix, so the cross terms of
    the cyclic vector vanish and the state splits over the two origins."""
    opset = operator_set(window_size, theta)
    total = 0j
    for vac in (("c", 0, 0), ("q", 0, 0)):
        image = apply_element(e, {vac: 1.0 + 0j}, opset, strict=True)
        total += 0.5 * image.get(vac, 0j)
    return total


def _group(keys: np.ndarray):
    """Group equal keys: each key's group, numbered in key order, its rank
    among the equal keys in index order, and the key of each group."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    first = np.r_[True, ranked[1:] != ranked[:-1]]
    group, rank = np.empty_like(order), np.empty_like(order)
    group[order] = np.cumsum(first) - 1
    rank[order] = np.arange(keys.size) - np.flatnonzero(first)[group[order]]
    return group, rank, ranked[first]


def _block_labels(heads: np.ndarray, tails: np.ndarray, n: int) -> np.ndarray:
    """The smallest node of each node's connected block, for the graph on
    nodes 0..n-1 with an edge per (head, tail) pair: min-label propagation
    along the edges, then one pointer jump, until nothing changes."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[heads], label[tails])
        new = label.copy()
        np.minimum.at(new, heads, low)
        np.minimum.at(new, tails, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def estimate_operator_norm(e: Element, window_size: int, theta: float) -> float:
    """Largest singular value of the truncated matrix, exact up to rounding.

    The matrix is a sum of weighted shifts, so its rows and columns split
    into connected blocks and its norm is the largest block norm.  Blocks of
    one shape are stacked and measured by one batched ``eigvalsh`` of their
    smaller Gram side; the cost is cubic in the largest block."""
    opset = operator_set(window_size, theta)
    op = operator_for_element(e, opset)
    entries = [(t[c], c, w[c]) for t, w in op.shifts for c in [np.flatnonzero(t >= 0)] if c.size]
    if not entries:
        return 0.0
    rows, cols, weights = map(np.concatenate, zip(*entries))
    n = len(opset.window)
    # rows are nodes 0..n-1 and columns n..2n-1 of one bipartite graph
    label = _block_labels(rows, cols + n, 2 * n)
    nodes = np.flatnonzero(np.bincount(np.r_[rows, cols + n], minlength=2 * n))
    # a block's rows and its columns are its two sides, each numbered from 0
    side, rank, _ = _group(2 * label[nodes] + (nodes >= n))
    local, block = np.zeros(2 * n, int), np.zeros(2 * n, int)
    local[nodes], block[nodes] = rank, side // 2
    per_block = np.bincount(side).reshape(-1, 2)  # (rows, columns) of each block
    shape_of, slot, shapes = _group(per_block @ (2 * n, 1))
    entry_shape = shape_of[block[rows]]
    top = 0.0
    for s, (r, c) in enumerate(divmod(int(key), 2 * n) for key in shapes):
        hit = entry_shape == s
        stack = np.zeros((int((shape_of == s).sum()), r, c), complex)
        where = (slot[block[rows[hit]]], local[rows[hit]], local[cols[hit] + n])
        np.add.at(stack, where, weights[hit])
        adjoint = stack.conj().transpose(0, 2, 1)
        gram = stack @ adjoint if r <= c else adjoint @ stack
        top = max(top, float(np.linalg.eigvalsh(gram)[:, -1].max()))
    return max(top, 0.0) ** 0.5


# The theta nudge of the continuity check.
THETA_STEP = 1e-6


def theta_continuity_bound(window_size: int) -> float:
    """The continuity bound on window w: a weight q**e moves by about
    2*pi*|e|*THETA_STEP, and |e| <= 2w there, so one power of q to spare."""
    return 2 * np.pi * (2 * window_size + 1) * THETA_STEP


def theta_continuity_defect(window_size: int, theta: float) -> float:
    """Largest entrywise change of the generator operators under a theta nudge.

    The nudge wraps modulo 1: the operators depend on theta only through
    q = exp(2*pi*i*theta)."""
    window = LatticeWindow(window_size)
    first = build_generator_operators(window, theta).ops
    second = build_generator_operators(window, (theta + THETA_STEP) % 1.0).ops
    everywhere = np.ones(len(window), bool)
    gens = ("a", "b", "c", "d", "D", "z")
    return max(first[g].column_defect(second[g], everywhere) for g in gens)
