"""Scalar-weighted word rewriting over a finite alphabet.

A rewrite system carries an ordered alphabet (the monomial order is graded
lexicographic in that letter order) and rules mapping a nonempty pattern
word to a linear combination of strictly smaller words (the one rule with
an empty pattern that decreases the order, 1 -> 0, would kill the whole
algebra, so ``add_rule`` refuses empty patterns).  Normal forms are
computed by leftmost reduction; the Diamond Lemma obligation is discharged
by resolving every overlap and inclusion ambiguity among rule patterns
(:meth:`RewriteSystem.unresolved_pairs`).  Bounded Knuth-Bendix completion
(:meth:`RewriteSystem.complete`) derives such relations by search over a
field; no algebra is built with it, and the tests complete the finite
quotients' presentations with it to cross-check their written relations.

Normal forms are memoized per word.  ``add_rule`` keeps the memoized words
shorter than the new pattern and drops the rest: no rule lengthens a word,
so the pattern fits nowhere in a shorter word's reduction tree, and its
memoized normal form equals a fresh ``normalize``.  A rule coefficient equal
to 1 is stored as the ``ONE`` singleton, which reduction carries through
without a product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import CompletionFailure, UnknownGenerator
from .scalars import QScalar, add_scaled, add_term, keep_scalar, settle

Word = tuple[str, ...]
Combo = dict[Word, QScalar]

# The longest normal word ``all_normal_words`` expects of a finite system.
NORMAL_WORDS_CAP = 64

ONE = QScalar.one()


@dataclass(frozen=True)
class RewriteRule:
    pattern: Word
    result: tuple[tuple[QScalar, Word], ...]

    def __str__(self) -> str:
        rhs = " + ".join(f"({c})*{'*'.join(w) or '1'}" for c, w in self.result) or "0"
        return f"{'*'.join(self.pattern)} -> {rhs}"


@dataclass
class CriticalPair:
    """One ambiguity with its two fully reduced resolutions."""

    word: Word
    left: Combo
    right: Combo


class RewriteSystem:
    def __init__(
        self,
        letters: Sequence[str],
        rules: Iterable[RewriteRule],
        scalar_canon: Callable[[QScalar], QScalar] | None = None,
    ):
        self.letters = tuple(letters)
        self.rank = {x: i for i, x in enumerate(self.letters)}
        if len(self.rank) != len(self.letters):
            raise ValueError("duplicate letters")
        self.scalar_canon = scalar_canon or keep_scalar
        self.rules: list[RewriteRule] = []
        # first letter -> pattern length -> pattern -> index of the first rule with it
        self._by_first: dict[str, dict[int, dict[Word, int]]] = {}
        self._cache: dict[Word, Combo] = {}
        self._max_pattern = 0  # longest rule pattern, for resumed redex search
        for rule in rules:
            self.add_rule(rule)

    # -- construction ---------------------------------------------------

    def add_rule(self, rule: RewriteRule):
        if not rule.pattern:
            raise ValueError(f"rule has an empty pattern: {rule}")
        for x in rule.pattern:
            if x not in self.rank:
                raise UnknownGenerator(f"letter {x!r} not in alphabet {self.letters}")
        canon_result = []
        for c, w in rule.result:
            c = self.scalar_canon(c)
            if c:
                canon_result.append((ONE if c == ONE else c, w))
        rule = RewriteRule(rule.pattern, tuple(canon_result))
        key = self.order_key(rule.pattern)
        for _, w in rule.result:
            if self.order_key(w) >= key:
                raise ValueError(f"rule does not decrease the monomial order: {rule}")
        self.rules.append(rule)
        by_length = self._by_first.setdefault(rule.pattern[0], {})
        by_length.setdefault(len(rule.pattern), {}).setdefault(rule.pattern, len(self.rules) - 1)
        self._max_pattern = max(self._max_pattern, len(rule.pattern))
        # the shorter words keep their normal forms (module docstring)
        self._cache = {w: nf for w, nf in self._cache.items() if len(w) < len(rule.pattern)}

    # -- the monomial order ----------------------------------------------

    def order_key(self, word: Word):
        return (len(word), tuple(self.rank[x] for x in word))

    def leading_monomial(self, combo: Combo) -> Word:
        return max(combo, key=self.order_key)

    # -- reduction --------------------------------------------------------

    def find_redex(self, word: Word, start: int = 0):
        """Leftmost position from ``start`` with a matching rule, or None.

        At that position the rule is the first added whose pattern matches.
        A position is looked up only in the tables of the patterns that start
        with its letter, one table per pattern length.
        """
        by_first = self._by_first
        for pos in range(start, len(word)):
            best = None
            tables = by_first.get(word[pos])
            if tables:
                for L, table in tables.items():
                    idx = table.get(word[pos : pos + L])
                    if idx is not None and (best is None or idx < best):
                        best = idx
            if best is not None:
                return pos, best
        return None

    def normalize(self, word: Word) -> Combo:
        """Full normal form of a word as a word combination.

        After a rewrite at ``pos`` the search for the next redex resumes at
        ``pos - (longest pattern - 1)``: every position further left held
        no redex before and sees only unchanged letters after.  A word below
        ``word`` at which the rewrite tree branches is normalized on its own
        first, so its normal form is cached and its branches are expanded
        once; those words wait in ``frames``, not on the Python stack.
        Every scalar on the stack is canonical, so a rule coefficient of
        ``ONE`` carries it unchanged, without a product or ``scalar_canon``.
        """
        if word in self._cache:
            return dict(self._cache[word])
        back = self._max_pattern - 1
        frames: list = []  # (root, out, stack) of each word whose normal form waits
        root, out, stack = word, {}, [(ONE, word, 0)]
        while stack or frames:
            if not stack:
                self._cache[root] = settle(out, self.scalar_canon)
                root, out, stack = frames.pop()
                continue
            c, w, start = stack.pop()
            hit = self._cache.get(w)
            if hit is not None:
                add_scaled(out, hit, c)
                continue
            redex = self.find_redex(w, start)
            if redex is None:
                add_term(out, w, c)
                continue
            pos, idx = redex
            rule = self.rules[idx]
            if len(rule.result) > 1 and w is not root:
                stack.append((c, w, start))  # read from the cache once w is done
                frames.append((root, out, stack))
                root, out, stack = w, {}, [(ONE, w, 0)]
                continue
            tail = pos + len(rule.pattern)
            resume = max(0, pos - back)
            for rc, rw in rule.result:
                cc = c if rc is ONE else self.scalar_canon(c * rc)
                stack.append((cc, w[:pos] + rw + w[tail:], resume))
        out = settle(out, self.scalar_canon)
        self._cache[word] = dict(out)
        return out

    def normalize_combo(self, combo: Combo) -> Combo:
        out: Combo = {}
        for w, c in combo.items():
            add_scaled(out, self.normalize(w), c)
        return settle(out, self.scalar_canon)

    # -- ambiguities -------------------------------------------------------

    def critical_words(self, max_len: int | None = None):
        """All overlap and inclusion ambiguities among rule patterns.

        Yields (word, (pos1, rule1), (pos2, rule2)) where the two rules apply
        at the stated positions of the shared word.
        """
        n = len(self.rules)
        for i in range(n):
            p1 = self.rules[i].pattern
            at: dict[str, list[int]] = {}  # letter -> its positions in p1
            for pos, x in enumerate(p1):
                at.setdefault(x, []).append(pos)
            for j in range(n):
                p2 = self.rules[j].pattern
                starts = at.get(p2[0], ())
                # proper overlap: a suffix of p1 of length k is a prefix of
                # p2, for k = len(p1) - pos ascending
                for pos in reversed(starts):
                    k = len(p1) - pos
                    if k >= len(p2):
                        break
                    if pos and p1[pos:] == p2[:k]:
                        word = p1 + p2[k:]
                        if max_len is None or len(word) <= max_len:
                            yield word, (0, i), (pos, j)
                # inclusion: p2 strictly inside p1
                if i != j and len(p2) < len(p1):
                    for pos in starts:
                        if pos > len(p1) - len(p2):
                            break
                        if p1[pos : pos + len(p2)] == p2:
                            if max_len is None or len(p1) <= max_len:
                                yield p1, (0, i), (pos, j)

    def resolve(self, word: Word, at: tuple[int, int]) -> Combo:
        pos, idx = at
        rule = self.rules[idx]
        tail = pos + len(rule.pattern)
        combo: Combo = {}
        for rc, rw in rule.result:
            add_term(combo, word[:pos] + rw + word[tail:], rc)
        return self.normalize_combo(combo)

    def unresolved_pairs(self, max_len: int | None = None) -> list[CriticalPair]:
        bad = []
        for word, at1, at2 in self.critical_words(max_len):
            left = self.resolve(word, at1)
            right = self.resolve(word, at2)
            if left != right:
                bad.append(CriticalPair(word, left, right))
        return bad

    def complete(
        self,
        invert_scalar: Callable[[QScalar], QScalar],
        max_len: int = 12,
        max_rounds: int = 40,
    ):
        """Orient unresolved critical pairs into new rules until confluent.

        Each pass orients every unresolved pair it finds, in order: the
        pair's difference is first normalized, so the rules added earlier in
        the same pass apply, and it is skipped if that leaves zero.  The loop
        ends on a pass that finds no unresolved pair.

        ``invert_scalar`` must invert any nonzero coefficient (so the scalar
        ring must be a field, e.g. a cyclotomic mode).
        """
        for _ in range(max_rounds):
            pairs = self.unresolved_pairs(max_len)
            if not pairs:
                return
            for pair in pairs:
                diff: Combo = dict(pair.left)
                add_scaled(diff, pair.right, QScalar.of(-1))
                diff = self.normalize_combo(diff)
                if not diff:
                    continue
                lm = self.leading_monomial(diff)
                inv = invert_scalar(diff[lm])
                result = tuple(
                    (self.scalar_canon(-inv * c), w) for w, c in diff.items() if w != lm
                )
                self.add_rule(RewriteRule(lm, result))
        else:
            raise CompletionFailure(
                f"completion did not stabilise after {max_rounds} rounds"
            )

    # -- normal word enumeration -------------------------------------------

    def normal_words_by_degree(self, max_len: int) -> list[Word]:
        """All irreducible words of length <= max_len (prefix-closed BFS)."""
        out: list[Word] = [()]
        frontier: list[Word] = [()]
        for _ in range(max_len):
            nxt = []
            for w in frontier:
                # extending a normal word only creates redexes at its end
                start = max(0, len(w) + 1 - self._max_pattern)
                for x in self.letters:
                    ext = w + (x,)
                    if self.find_redex(ext, start) is None:
                        nxt.append(ext)
            out.extend(nxt)
            frontier = nxt
            if not frontier:
                break
        return out

    def all_normal_words(self) -> list[Word]:
        """Every irreducible word, for systems with finitely many.

        Raises :class:`CompletionFailure` if words keep growing past
        ``NORMAL_WORDS_CAP``, which signals a non-finite-dimensional (or
        non-completed) system.
        """
        out = self.normal_words_by_degree(NORMAL_WORDS_CAP)
        if len(out[-1]) == NORMAL_WORDS_CAP:
            raise CompletionFailure("normal words do not stop growing")
        return out
