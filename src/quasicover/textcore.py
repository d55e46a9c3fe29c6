"""Core string, metric and interval types shared by every analysis module.

Texts are sequences of dense symbol ids over an explicit alphabet, with an
optional wildcard symbol that matches every other symbol.  All costs are
exact integers; there is deliberately no floating-point support anywhere.
A restricted cover or seed report has a row per distinct factor, Θ(n^3)
characters in all, so :class:`Keyed` slices each key only as it is read.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from itertools import chain, compress
from typing import Iterable, Iterator, NamedTuple

#: Symbol id reserved for the wildcard; it matches every alphabet symbol.
WILDCARD = -1

DEFAULT_WILDCARD_CHAR = "?"


def symbols_match(x: int, y: int) -> bool:
    """True if two symbol ids match, treating the wildcard as universal."""
    return x == y or x == WILDCARD or y == WILDCARD


def _smear(alive: int, length: int, width: int = 1) -> int:
    """The positions covered by windows of ``length`` at the set bits of
    ``alive``, one position per field of ``width`` bits."""
    span = 1
    while span + span <= length:
        alive |= alive << span * width
        span += span
    return alive | alive << (length - span) * width


class Text:
    """Immutable symbol sequence over a fixed alphabet.

    Symbols are ints in ``[0, alphabet_size)`` or :data:`WILDCARD`.  Two texts
    can be compared position-wise only if they share an alphabet; factors of
    one text always do.
    """

    __slots__ = ("symbols", "alphabet", "wildcard_char")

    def __init__(self, symbols: Iterable[int], alphabet: str,
                 wildcard_char: str = DEFAULT_WILDCARD_CHAR):
        self.symbols = tuple(symbols)
        self.alphabet = alphabet
        self.wildcard_char = wildcard_char
        sigma = len(alphabet)
        if self.symbols and (min(self.symbols) < WILDCARD or max(self.symbols) >= sigma):
            bad = next(s for s in self.symbols if s != WILDCARD and not 0 <= s < sigma)
            raise ValueError(f"symbol id {bad} outside alphabet of size {sigma}")

    @classmethod
    def from_str(cls, text: str, alphabet: str | None = None,
                 wildcard_char: str = DEFAULT_WILDCARD_CHAR) -> "Text":
        """Map a character string to a Text.

        The alphabet defaults to the sorted distinct non-wildcard characters
        of ``text``; pass it explicitly when several texts must share symbol
        ids.
        """
        if alphabet is None:
            alphabet = "".join(sorted(set(text) - {wildcard_char}))
        if wildcard_char in alphabet:
            raise ValueError("wildcard character must not appear in the alphabet")
        index = {ch: i for i, ch in enumerate(alphabet)}
        index[wildcard_char] = WILDCARD
        try:
            symbols = tuple(map(index.__getitem__, text))
        except KeyError as exc:  # the first character outside the alphabet
            raise ValueError(f"character {exc.args[0]!r} not in alphabet {alphabet!r}") from None
        return cls(symbols, alphabet, wildcard_char)

    @classmethod
    def from_strs(cls, *texts: str,
                  wildcard_char: str = DEFAULT_WILDCARD_CHAR) -> list["Text"]:
        """Build several texts over the union alphabet so ids are comparable."""
        alphabet = "".join(sorted(set("".join(texts)) - {wildcard_char}))
        return [cls.from_str(t, alphabet, wildcard_char) for t in texts]

    @property
    def alphabet_size(self) -> int:
        return len(self.alphabet)

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, i: int) -> int:
        return self.symbols[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Text) and self.symbols == other.symbols
                and self.alphabet == other.alphabet)

    def __hash__(self) -> int:
        return hash((self.symbols, self.alphabet))

    def __repr__(self) -> str:
        return f"Text({self.to_str()!r})"

    def to_str(self) -> str:
        return "".join(self.wildcard_char if s == WILDCARD else self.alphabet[s]
                       for s in self.symbols)

    def factor(self, i: int, j: int) -> "Text":
        """The factor T[i, j], inclusive on both ends; empty when j < i."""
        if j < i:
            return Text((), self.alphabet, self.wildcard_char)
        if not (0 <= i and j < len(self.symbols)):
            raise IndexError(f"factor [{i},{j}] out of range for length {len(self)}")
        return Text(self.symbols[i:j + 1], self.alphabet, self.wildcard_char)

    def prefix(self, length: int) -> "Text":
        return self.factor(0, length - 1)

    def suffix(self, length: int) -> "Text":
        return self.factor(len(self) - length, len(self) - 1)


def pad_for_seed(t: Text, width: int | None = None) -> Text:
    """Surround t with runs of ``width`` wildcards (default: its own length).

    Approximate seeds of t are exactly the approximate covers of the padded
    word, so every seed question is answered on this text.  The default
    3n-length text suits every candidate length; only the oracle uses it.
    :func:`restricted_candidates` gives the width the fast engines use.
    """
    pad = (WILDCARD,) * (len(t) if width is None else width)
    return Text(pad + t.symbols + pad, t.alphabet, t.wildcard_char)


class Candidates(NamedTuple):
    """Each distinct factor of t once: start a (target index a + ``shift``)
    holds t[a, a+L-1] for lo[a] < L <= hi[a], their leftmost occurrences:
    lo[a] is the longest prefix of t[a:] also starting before a, capped at
    the longest allowed length; hi[a] is that length, or 0 if lo[a] reaches it."""

    text: str  # t.to_str(): each candidate string is one slice of it
    shift: int
    lo: list[int]
    hi: list[int]

    def keyed(self, values: list) -> Keyed:
        """Candidate strings to ``values[a][L]``, by length, then by string."""
        return Keyed(self, values)


class Keyed(Mapping):
    """Candidate strings to ``values[a][L]``, read-only, by length, then by
    string.  It and its views slice each key as they are iterated, so no copy
    of a report is held; the first lookup builds a dict."""

    def __init__(self, candidates: Candidates, values: list):
        self._candidates, self._values, self._dict = candidates, values, None

    def _levels(self) -> Iterator[tuple[int, list[int]]]:
        """Each length L with the starts of its candidates in string order:
        starts ranked by their longest candidate, each live at lo[a] < L <= hi[a]."""
        s, _, lo, hi = self._candidates
        ranked = sorted((a for a in range(len(s)) if hi[a]), key=lambda a: s[a:a + hi[a]])
        flips = [[] for _ in range(max(hi, default=0) + 2)]  # ranks entering or leaving at L
        for rank, a in enumerate(ranked):
            flips[lo[a] + 1].append(rank)
            flips[hi[a] + 1].append(rank)
        on = [False] * len(ranked)
        for length in range(1, len(flips) - 1):
            for rank in flips[length]:
                on[rank] = not on[rank]
            yield length, list(compress(ranked, on))

    def __iter__(self) -> Iterator[str]:
        s = self._candidates.text
        return chain.from_iterable([s[a:a + L] for a in live] for L, live in self._levels())

    def __len__(self) -> int:
        return sum(top - seen for seen, top in zip(self._candidates.lo, self._candidates.hi) if top)

    def __getitem__(self, key: str):
        if self._dict is None:
            self._dict = dict(self.items())
        return self._dict[key]

    def items(self) -> ItemsView:
        return _Items(self)

    def values(self) -> ValuesView:
        return _Values(self)


class _Items(ItemsView):
    def __iter__(self):
        s, values = self._mapping._candidates.text, self._mapping._values
        return chain.from_iterable(zip([s[a:a + L] for a in live], [values[a][L] for a in live])
                                   for L, live in self._mapping._levels())


class _Values(ValuesView):
    def __iter__(self):
        values = self._mapping._values
        return chain.from_iterable([values[a][L] for a in live]
                                   for L, live in self._mapping._levels())


def restricted_candidates(t: Text, seeds: bool = False) -> tuple[Text, Candidates]:
    """The text a restricted cover or seed search runs on, and its candidates.

    A restricted cover must be a proper factor of t; a restricted seed a
    factor C with 2|C| <= |t|, searched as a cover of t padded with
    floor(n/2) wildcards on each side.  That width suffices because no
    candidate is longer: windows inside a pad are all wildcards, so they
    cover the pad at cost 0; a Hamming window of length |C| reaches at most
    |C| - 1 pad positions; and an edit window that reaches into t through
    more than |C| wildcards costs what one through |C| does.  So any wider
    pad gives the same answer, under Hamming and edit distance alike.
    """
    n = len(t)
    s = t.to_str()
    shift = n // 2 if seeds else 0
    hi = [min(n - a, shift if seeds else n - 1) for a in range(n)]
    lo, length = [], 0  # lo[a] >= lo[a-1] - 1: O(n) str.find calls in all
    for a, top in enumerate(hi):
        length = min(max(length - 1, 0), top)
        while length < top and s.find(s[a:a + length + 1], 0, a + length) >= 0:
            length += 1
        lo.append(length)
    hi = [top if seen < top else 0 for seen, top in zip(lo, hi)]
    return (pad_for_seed(t, shift) if seeds else t), Candidates(s, shift, lo, hi)


def hamming_distance(u: Text, v: Text) -> int:
    """Number of mismatching positions; wildcards never mismatch."""
    if len(u) != len(v):
        raise ValueError(
            f"Hamming distance undefined for lengths {len(u)} and {len(v)}")
    return sum(1 for x, y in zip(u.symbols, v.symbols) if not symbols_match(x, y))


class Violation(NamedTuple):
    """One failed metric axiom with the witnessing symbols.

    ``axiom`` is one of ``identity``, ``symmetry``, ``triangle``;
    ``witness`` holds the offending symbol tuple (``None`` stands for the
    empty string as a metric point).
    """

    axiom: str
    witness: tuple


class PenaltyMatrix:
    """Substitution, insertion and deletion costs over an alphabet.

    Costs are nonnegative integers.  Construction checks that the alphabet
    has distinct symbols and the costs' shape and sign only;
    use :func:`validate_penalty_matrix` / :meth:`require_metric` to verify the
    metric axioms.  Wildcard rows are implicit: every cost involving the
    wildcard is zero, including insertion and deletion.
    """

    __slots__ = ("alphabet", "sub", "ins", "dele")

    def __init__(self, alphabet: str, sub: Iterable[Iterable[int]],
                 ins: Iterable[int], dele: Iterable[int]):
        self.alphabet = alphabet
        self.sub = tuple(tuple(row) for row in sub)
        self.ins = tuple(ins)
        self.dele = tuple(dele)
        sigma = len(alphabet)
        if len(set(alphabet)) != sigma:
            raise ValueError(f"alphabet {alphabet!r} repeats a symbol")
        if len(self.sub) != sigma or any(len(row) != sigma for row in self.sub):
            raise ValueError(f"substitution table must be {sigma}x{sigma}")
        if len(self.ins) != sigma or len(self.dele) != sigma:
            raise ValueError(f"insertion/deletion vectors must have length {sigma}")
        for cost in (*self.ins, *self.dele, *(c for row in self.sub for c in row)):
            if not isinstance(cost, int) or cost < 0:
                raise ValueError(f"costs must be nonnegative integers, got {cost!r}")

    @classmethod
    def unit(cls, alphabet: str) -> "PenaltyMatrix":
        """Unit costs: the implied metric is the Levenshtein distance."""
        sigma = len(alphabet)
        sub = [[0 if i == j else 1 for j in range(sigma)] for i in range(sigma)]
        return cls(alphabet, sub, [1] * sigma, [1] * sigma)

    def sub_cost(self, x: int, y: int) -> int:
        if x == WILDCARD or y == WILDCARD:
            return 0
        return self.sub[x][y]

    def ins_cost(self, x: int) -> int:
        return 0 if x == WILDCARD else self.ins[x]

    def del_cost(self, x: int) -> int:
        return 0 if x == WILDCARD else self.dele[x]

    def max_operation_cost(self) -> int:
        return max((*self.ins, *self.dele, *(c for row in self.sub for c in row)),
                   default=0)

    def require_metric(self) -> None:
        violations = validate_penalty_matrix(self)
        if violations:
            raise ValueError("penalty matrix is not a metric: "
                             + "; ".join(f"{v.axiom} {v.witness}" for v in violations))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PenaltyMatrix) and self.alphabet == other.alphabet
                and self.sub == other.sub and self.ins == other.ins
                and self.dele == other.dele)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.sub, self.ins, self.dele))


def validate_penalty_matrix(p: PenaltyMatrix) -> list[Violation]:
    """Check the metric axioms over the alphabet plus the empty string.

    Returns an empty list for a valid metric, otherwise one
    :class:`Violation` per failed axiom instance.  The empty string takes
    part as a point, so insertion and deletion costs must agree (symmetry)
    and join the triangle inequality.
    """
    sigma = len(p.alphabet)
    out: list[Violation] = []
    for x in range(sigma):
        if p.sub[x][x] != 0:
            out.append(Violation("identity", (x, x)))
        if p.ins[x] == 0:
            out.append(Violation("identity", (None, x)))
        if p.dele[x] == 0:
            out.append(Violation("identity", (x, None)))
        for y in range(sigma):
            if x != y and p.sub[x][y] == 0:
                out.append(Violation("identity", (x, y)))
            if p.sub[x][y] != p.sub[y][x]:
                out.append(Violation("symmetry", (x, y)))
        if p.ins[x] != p.dele[x]:
            out.append(Violation("symmetry", (x, None)))

    # Triangle over all point triples; None plays the empty string.
    points: list[int | None] = [*range(sigma), None]

    def cost(a: int | None, b: int | None) -> int:
        if a is None and b is None:
            return 0
        if a is None:
            return p.ins[b]
        if b is None:
            return p.dele[a]
        return p.sub[a][b]

    for a in points:
        for b in points:
            for c in points:
                if cost(a, c) > cost(a, b) + cost(b, c):
                    out.append(Violation("triangle", (a, b, c)))
    return out


def _check_symbols_covered(t: Text, p: PenaltyMatrix) -> None:
    sigma = len(p.alphabet)
    for s in t.symbols:
        if s != WILDCARD and s >= sigma:
            raise ValueError(
                f"symbol id {s} not covered by penalty matrix over {p.alphabet!r}")


def edit_distance(u: Text, v: Text, p: PenaltyMatrix) -> int:
    """Minimum total cost transforming u into v under the penalty matrix.

    Classic dynamic program over prefix pairs.  With unit costs this is the
    Levenshtein distance.
    """
    _check_symbols_covered(u, p)
    _check_symbols_covered(v, p)
    m, n = len(u), len(v)
    prev = [0] * (n + 1)
    for j in range(1, n + 1):
        prev[j] = prev[j - 1] + p.ins_cost(v[j - 1])
    for i in range(1, m + 1):
        cur = [prev[0] + p.del_cost(u[i - 1])] + [0] * n
        ui = u[i - 1]
        for j in range(1, n + 1):
            vj = v[j - 1]
            cur[j] = min(prev[j - 1] + p.sub_cost(ui, vj),
                         cur[j - 1] + p.ins_cost(vj),
                         prev[j] + p.del_cost(ui))
        prev = cur
    return prev[n]


class DTable:
    """Edit-distance table anchored at suffix pair (a, a').

    ``entry(b, bp)`` is the edit distance between T[a, b] and T[a', bp] for
    b in [a-1, n-1] and bp in [a'-1, n-1]; the -1 row and column hold the
    cumulative deletion and insertion costs.
    """

    __slots__ = ("a", "ap", "n", "rows")

    def __init__(self, a: int, ap: int, n: int, rows: list[list[int]]):
        self.a = a
        self.ap = ap
        self.n = n
        self.rows = rows

    def entry(self, b: int, bp: int) -> int:
        if not (self.a - 1 <= b < self.n and self.ap - 1 <= bp < self.n):
            raise IndexError(f"D_{{{self.a},{self.ap}}}[{b},{bp}] out of range")
        return self.rows[b - self.a + 1][bp - self.ap + 1]

    def row(self, b: int) -> list[int]:
        """Row b as costs for bp = a'-1 .. n-1."""
        if not self.a - 1 <= b < self.n:
            raise IndexError(f"row {b} out of range")
        return self.rows[b - self.a + 1]


def build_d_table(t: Text, a: int, ap: int, p: PenaltyMatrix) -> DTable:
    """Full D-table for the suffixes T[a, n-1] and T[a', n-1]."""
    n = len(t)
    if not (0 <= a <= n and 0 <= ap <= n):
        raise IndexError(f"suffix starts ({a},{ap}) out of [0,{n}]")
    _check_symbols_covered(t, p)
    width = n - ap + 1
    rows = [[0] * width]
    for j in range(1, width):
        rows[0][j] = rows[0][j - 1] + p.ins_cost(t[ap + j - 1])
    for i in range(1, n - a + 1):
        ti = t[a + i - 1]
        row = [rows[i - 1][0] + p.del_cost(ti)] + [0] * (width - 1)
        prev = rows[i - 1]
        for j in range(1, width):
            tj = t[ap + j - 1]
            row[j] = min(prev[j - 1] + p.sub_cost(ti, tj),
                         row[j - 1] + p.ins_cost(tj),
                         prev[j] + p.del_cost(ti))
        rows.append(row)
    return DTable(a, ap, n, rows)


@dataclass
class IntervalSet:
    """Inclusive index intervals; empty intervals are dropped at insertion."""

    intervals: list[tuple[int, int]]

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()):
        self.intervals = [(i, j) for i, j in intervals if i <= j]

    def add(self, i: int, j: int) -> None:
        if i <= j:
            self.intervals.append((i, j))

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.intervals)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.intervals

    def starts(self) -> list[int]:
        return sorted({i for i, _ in self.intervals})


def interval_union_size(s: IntervalSet) -> int:
    """Size of the union of the intervals.

    Linear when intervals already come in left-endpoint order, which every
    producer in this package guarantees; otherwise they are sorted first.
    """
    iv = s.intervals
    if any(iv[t][0] > iv[t + 1][0] for t in range(len(iv) - 1)):
        iv = sorted(iv)
    total = 0
    reach = -1  # rightmost covered position so far
    for i, j in iv:
        if j > reach:
            total += j - max(reach, i - 1)
            reach = j
    return total
