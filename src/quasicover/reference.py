"""The paper's reference engines, which no command runs: the tests, the
acceptance criteria and ``quasicover bench`` hold the product engines
against them.  No product module imports this one.

:func:`lcp_k_all_pairs` fills the n x n lcp_k table in O(n^2) per budget by
sliding a window of mismatch positions along each diagonal, and
:func:`kangaroo_lcp_k` answers one query with at most k+1 LCE jumps;
:func:`coverage_sweep` gives Hamming coverage from such values, and
:func:`p_lev_table` holds the Levenshtein P_k of every (a, b, a').

The special-point index (Pareto lists at multiples of
M = floor(sqrt(n / log2 n)), built on demand, plus small DP blocks) answers
single weighted-edit entries in O(sqrt(n log n)).  For a factor T[a, b],
Q_{a,b}[i] is the minimal threshold at which it is a k-approximate cover of
T[i, n-1].  The quadratic recurrence fills the tables of all candidates
with one start from one edit-DP pass per suffix (O(n^4) over all
candidates); the special-point variant answers each entry in
O(sqrt(n log n)) with binary searches on the index's Pareto lists plus
prefix minima over the table built so far, kept in a union-find forest
(O(n^3 sqrt(n log n)) after the index build).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, islice
from math import inf, log2, sqrt
from typing import TYPE_CHECKING, Iterator

from .hamcover import SweepState
from .lcpk import ExactLce, _lcp_k
from .slots import _lev_block, _lev_slots
from .textcore import PenaltyMatrix, Text, _EditCosts, _lev_check, symbols_match

if TYPE_CHECKING:
    from .oracle import DTable


@dataclass
class LcpKTable:
    """All-pairs lcp_k values for one text and one mismatch budget."""

    n: int
    k: int
    rows: list[list[int]]

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"lcp_k({i},{j}) out of range for n={self.n}")
        return self.rows[i][j]

    def row(self, i: int) -> list[int]:
        if not 0 <= i < self.n:
            raise IndexError(f"lcp_k row {i} out of range for n={self.n}")
        return self.rows[i]


def lcp_k_all_pairs(t: Text, k: int) -> LcpKTable:
    """Full lcp_k table via the per-diagonal mismatch-window dynamic program.

    Walking each diagonal right to left while keeping the k+1 nearest
    mismatch positions makes every entry O(1) amortized.
    """
    n = len(t)
    if k < 0:
        raise ValueError("mismatch budget must be nonnegative")
    sym = t.symbols
    rows = [[0] * n for _ in range(n)]
    for d in range(n):
        window: deque[int] = deque(maxlen=k + 1)
        for i in range(n - 1 - d, -1, -1):
            j = i + d
            if not symbols_match(sym[i], sym[j]):
                window.appendleft(i)
            if len(window) == k + 1:
                val = window[-1] - i
            else:
                val = n - j
            rows[i][j] = rows[j][i] = val
    return LcpKTable(n, k, rows)

def kangaroo_lcp_k(t: Text, i: int, j: int, k: int,
                   lce: ExactLce | None = None) -> int:
    """lcp_k(i, j) with at most k+1 extension jumps.

    Pass a prebuilt :class:`ExactLce` of the same text (or of an equal one)
    to share its string image over many single queries; without one it is
    built on the fly.  :func:`pref_k` builds its own for its n queries.
    """
    n = len(t)
    if not (0 <= i <= n and 0 <= j <= n):
        raise IndexError(f"positions ({i},{j}) out of [0,{n}]")
    if k < 0:
        raise ValueError("mismatch budget must be nonnegative")
    if lce is None:
        lce = ExactLce(t)
    elif lce.text is not t and lce.text != t:
        raise ValueError("ExactLce was built for another text")
    return _lcp_k(lce._s, lce.extension, i, j, n - max(i, j), k)

def coverage_sweep(vals: list[int], n: int, max_len: int) -> list[int]:
    """Coverage for subject lengths 1..max_len given per-position live lengths.

    ``vals[i]`` is the largest subject length for which position i still is
    an approximate occurrence start (a PREF_k value or an lcp_k table row).
    O(n) overall: at most 2n-1 gaps exist over the whole sweep.  The
    reference for :class:`_StartCoverage`.
    """
    return SweepState(vals, n, range(n)).steps(1, max_len)

class LevPrefixTable:
    """P_k under the Levenshtein distance for all (a, b, a'), k capped at n.

    ``get(a, b, ap)`` is the largest b' >= ap-1 with Lev(T[a,b], T[ap,b'])
    <= k, or -1: ap+b-a+d for the highest :func:`_lev_slots` slot d of length
    b-a+1 holding bit ap of start a, one bit read per slot of bytes.
    """

    def __init__(self, n: int, k: int, slots: list[list[bytes]]):
        self.n, self.k, self._slots = n, k, slots

    def get(self, a: int, b: int, ap: int) -> int:
        if not (0 <= a <= b < self.n and 0 <= ap < self.n):
            raise IndexError(f"P_k[{a},{b},{ap}] out of range")
        byte, bit = divmod(a * 8 * _lev_block(self.n) + ap, 8)
        held = sum(buf[byte] >> bit & 1 for buf in self._slots[b - a])  # slot d+1 within d
        return ap + b - a + held - 1 - self.k if held else -1


def p_lev_table(t: Text, k: int) -> LevPrefixTable:
    """P_k under Levenshtein for all (a, b, a'): the :func:`_lev_slots` of
    each length as bytes, O(k^2 n) ops on O(n^2)-bit ints, O(k n^3) bits."""
    k, n = _lev_check(t, k, "the Levenshtein P_k table"), len(t)
    return LevPrefixTable(n, k, [[x.to_bytes((n - i) * _lev_block(n), "little") for x in slots]
                                 for i, slots in enumerate(_lev_slots(t, k))])
@dataclass(frozen=True)
class ParetoList:
    """Non-dominated (distance, end) pairs of one D-table row, both ascending."""

    dists: tuple[int, ...]
    ends: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.dists)

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.dists, self.ends))

    def pred(self, x: int) -> tuple[int, int] | None:
        """Maximal pair with distance <= x, or None (the infinity sentinel)."""
        idx = bisect_right(self.dists, x) - 1
        return None if idx < 0 else (self.dists[idx], self.ends[idx])


def pareto_list_build(costs: list[int], first_end: int) -> ParetoList:
    """Maximal (cost, end) pairs of one row, by a right-to-left scan.

    ``costs[t]`` is the distance for end position ``first_end + t``; a pair
    survives iff its cost is strictly below every later cost.
    """
    dists, ends, best = [], [], inf
    for offset in range(len(costs) - 1, -1, -1):
        if costs[offset] < best:
            best = costs[offset]
            dists.append(best)
            ends.append(first_end + offset)
    return ParetoList(tuple(reversed(dists)), tuple(reversed(ends)))


def pareto_list_from_row(dt: DTable, b: int) -> ParetoList:
    return pareto_list_build(dt.row(b), dt.ap - 1)


def block_size(n: int) -> int:
    """M = floor(sqrt(n / log2 n)), clamped to at least 1."""
    return 1 if n <= 2 else max(1, int(sqrt(n / log2(n))))


def _dp_rows(costs: _EditCosts, a: int, ap: int, height: int | None = None,
             width: int | None = None):
    """Yield rows b = a-1, a, ... of D_{a,ap} one at a time.

    Each row holds the costs for bp = ap-1 .. ap+width-2.  ``height`` caps
    the number of rows, the boundary row b = a-1 included; both default to
    the full table.  Full rows feed the special-point index's Pareto lists
    and the quadratic Q-tables, blocked rows the index's leading blocks;
    ``oracle.build_d_table`` and ``edit_distance`` stay separate as the
    references it is tested against.
    """
    n = len(costs.symbols)
    height = n - a + 1 if height is None else height
    width = n - ap + 1 if width is None else width
    ins = costs.ins[ap:ap + width - 1]
    row = list(accumulate(ins, initial=0))  # row b = a-1: insertion-chain sums
    yield row
    for b in range(a, a + height - 1):
        dl = costs.dele[b]
        sub = costs.sub[costs.symbols[b]][ap:ap + width - 1]
        left = row[0] + dl
        new = [left]
        append = new.append
        for diag, up, sc, ic in zip(row, islice(row, 1, None), sub, ins):
            left += ic
            diag += sc
            if diag < left:
                left = diag
            up += dl
            if up < left:
                left = up
            append(left)
        row = new
        yield row


class SpecialPointIndex:
    """Precomputed data for sub-quartic weighted-edit prefix queries.

    Holds (a) the M x M leading block of every D-table, boundary row and
    column included, built up front, and (b) Pareto lists of the D-table
    rows whose suffix pair touches a special point (a multiple of M), built
    on first use: list (c, c') grows, row by row, only as far as the largest
    row b asked of it.  ``lists`` maps each pair to the rows built so far.
    The lists built are a subset of those the paper precomputes, so its
    worst-case bound holds unchanged.  Not safe to share between threads.
    """

    def __init__(self, text: Text, penalty: PenaltyMatrix, m: int,
                 blocks: list[list[list[list[int]]]], costs: _EditCosts):
        self.text, self.penalty, self.M = text, penalty, m
        self.blocks, self._costs = blocks, costs
        self.lists: dict[tuple[int, int], list[ParetoList]] = {}
        self._pending: dict[tuple[int, int], Iterator[list[int]]] = {}

    def block_entry(self, a: int, ap: int, b: int, bp: int) -> int:
        """D_{a,ap}[b, bp] for -1 <= b-a, bp-ap < M-1."""
        return self.blocks[a][ap][b - a + 1][bp - ap + 1]

    def pareto(self, c: int, cp: int, b: int) -> ParetoList | None:
        """L_{c,cp}[b], or None when the row or the list does not exist.

        Lists exist for 0 <= c, c' <= n with c or c' a multiple of M; sides
        equal to n hold their boundary content (the empty-suffix column or
        row), since splits ed(X, eps) + ed(eps, Y) land exactly there.
        """
        i = b - c + 1
        if i < 0:
            return None
        rows = self.lists.get((c, cp))
        if rows is None:
            n, m = len(self.text), self.M
            if not (0 <= c <= n and 0 <= cp <= n) or (c % m and cp % m):
                return None
            rows = self.lists[(c, cp)] = []
            self._pending[(c, cp)] = _dp_rows(self._costs, c, cp)
        if i >= len(rows):
            rows.extend(pareto_list_build(row, cp - 1)
                        for row in islice(self._pending[(c, cp)], i + 1 - len(rows)))
        return rows[i]


def precompute_special(t: Text, p: PenaltyMatrix) -> SpecialPointIndex:
    """Build the special-point index: O(n^2 M^2) block work up front.

    Pareto lists are built on first use by :meth:`SpecialPointIndex.pareto`;
    at most O(n^4 / M) list work when every list is asked for in full.
    """
    n = len(t)
    m = block_size(n)
    costs = _EditCosts(t, p)
    blocks = [[list(_dp_rows(costs, a, ap, min(m, n - a + 1), min(m, n - ap + 1)))
               for ap in range(n + 1)] for a in range(n + 1)]
    return SpecialPointIndex(t, p, m, blocks, costs)


def _split_pairs(m: int, a: int, ap: int) -> list[tuple[int, int]]:
    """The 2M special split pairs (c, c') of an alignment from (a, ap).

    c is the first special point >= a with c' free in [ap, ap+M), or c' the
    first special point >= ap with c free in [a, a+M); an alignment that
    leaves the leading M x M block passes through one of them.
    """
    s, sp = a + (-a) % m, ap + (-ap) % m
    return [(s, cp) for cp in range(ap, ap + m)] + [(c, sp) for c in range(a, a + m)]


def p_ed_entry(idx: SpecialPointIndex, a: int, b: int, ap: int, k: int) -> int:
    """P_k[a, b, ap] under the weighted edit metric, via the index.

    Short factors scan their small block directly; every longer target is
    split at a special point, where the stored Pareto list answers a
    predecessor query on the remaining budget.
    """
    n, m, res = len(idx.text), idx.M, -1
    if b - a < m - 1:
        block_row = idx.blocks[a][ap][b - a + 1]
        for bp in range(ap - 1, min(ap + m - 1, n)):
            if block_row[bp - ap + 1] <= k:
                res = bp
    for c, cp in _split_pairs(m, a, ap):
        plist = idx.pareto(c, cp, b)
        if plist is None:
            continue
        head = idx.blocks[a][ap][c - a][cp - ap]  # D_{a,ap}[c-1, cp-1]
        found = plist.pred(k - head)
        if found is not None:
            res = max(res, found[1])
    return res

def _q_tables_of_start(costs: _EditCosts, a: int, bs: list[int]) -> list[list[int]]:
    """Q-table values of the factors T[a, b] for every end b in ``bs``.

    The quadratic recurrence: Q[i] is the best first occurrence T[i, j],
    min over j >= i of max(D_{a,i}[b, j], min(Q[i+1..j+1])).  Every table
    of start a reads row b of the same D_{a,i}, so one ``_dp_rows`` pass per
    suffix i, as tall as the largest end needs, serves them all: O(n^2) per
    pass plus O(n) per table per i.
    """
    n = len(costs.symbols)
    tables = [[0] * (n + 1) for _ in bs]
    height = max(bs) - a + 2
    for i in range(n - 1, -1, -1):
        rows = list(_dp_rows(costs, a, i, height))
        for b, values in zip(bs, tables):
            best = min_q = inf
            for d, q in zip(islice(rows[b - a + 1], 1, None), values[i + 1:]):
                if q < min_q:
                    min_q = q
                if d < min_q:
                    d = min_q
                if d < best:
                    best = d
            values[i] = best
    return tables


def q_table_quadratic(t: Text, a: int, b: int, p: PenaltyMatrix) -> list[int]:
    """Reference recurrence: try every first occurrence T[i, j].

    The batched routine with one end: the needed D_{a,i}[b, .] row is
    recomputed per i, O(n^3) in all; with the rows given, the double loop is
    quadratic.
    """
    return _q_tables_of_start(_EditCosts(t, p), a, [b])[0]


def q_table_fast(t: Text, a: int, b: int, p: PenaltyMatrix,
                 idx: SpecialPointIndex | None = None) -> list[int]:
    """Special-point variant of the Q-table recurrence.

    Per entry: an optional scan of the short-occurrence block, then for each
    of the O(M) special split pairs a binary search on the stored Pareto
    list, guided by minima min(Q[i+1..x]) over the table built so far.
    These prefix minima live in a union-find forest: each root is a
    prefix-minimum position and owns the positions up to the next one, so
    the minimum is the value at ``find(x)``; setting Q[i] links every root
    whose value is at least Q[i] under i.  With path halving the O(M log n)
    finds of an entry cost amortized O(1) each, so an entry stays within
    O(sqrt(n log n)).  Output equals :func:`q_table_quadratic` exactly.
    """
    n = len(t)
    if idx is None:
        idx = precompute_special(t, p)
    elif idx.text != t or idx.penalty != p:
        raise ValueError("special-point index was built for a different text or penalty matrix")
    m = idx.M
    values: list[int] = [0] * (n + 1)
    parent = list(range(n + 1))
    roots = [n]  # prefix-minimum positions of values[i+1..n], newest last

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    small = b - a < m - 1
    for i in range(n - 1, -1, -1):
        best = inf
        if small:
            block_row = idx.blocks[a][i][b - a + 1]
            min_q = inf
            for j in range(i, min(i + m - 1, n)):
                min_q = min(min_q, values[j + 1])
                cand = max(block_row[j - i + 1], min_q)
                if cand < best:
                    best = cand
        for c, cp in _split_pairs(m, a, i):
            plist = idx.pareto(c, cp, b)
            if plist is None or len(plist) == 0:
                continue
            head = idx.blocks[a][i][c - a][cp - i]
            dists, ends = plist.dists, plist.ends
            # First list entry where the running minimum dips below the
            # occurrence cost; by the domination order both sides are
            # monotone, so the overall best sits there or one step earlier.
            # An end before i is an empty occurrence, which reaches nothing.
            lo, hi = 0, len(dists) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                j = ends[mid]
                if j >= i and values[find(j + 1)] <= head + dists[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            for tt in (lo, lo - 1):
                if tt < 0:
                    continue
                j = ends[tt]
                if j < i:
                    continue  # empty occurrence never covers position i
                cand = max(head + dists[tt], values[find(j + 1)])
                if cand < best:
                    best = cand
        values[i] = best
        while roots and values[roots[-1]] >= best:
            parent[roots.pop()] = i
        roots.append(i)
    return values
