"""Levenshtein and weighted-edit k-coverage.

Coverage reads P_k[a, b, a'] (the largest b' with d(T[a,b], T[a',b']) <= k)
as one stream per suffix pair (a, a'), b = a, a+1, ... until it turns -1.
Unit costs get all streams from their neighbours (O(k n^3) at worst), or one
start's from the LCE-driven top h-wave of each pair; weighted costs read the
last live column of each edit-DP row cut to the cells within budget (Ukkonen's
cut-off).  One per-start routine turns any stream into interval-union sizes.

The paper's special-point index (Pareto lists at multiples of
M = floor(sqrt(n / log2 n)), built on demand, plus small DP blocks) answers
single entries in O(sqrt(n log n)) and drives ``restricted.q_table_fast``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice, zip_longest
from math import inf, log2, sqrt
from typing import Iterator

from . import hamcover
from .lcpk import ExactLce
from .textcore import (
    WILDCARD,
    DTable,
    PenaltyMatrix,
    Text,
    _check_symbols_covered,
    symbols_match,
)

#: Public sentinel for "no cell with this exact value on the diagonal";
#: ordered below every valid row index (valid indices start at -1).
WAVE_SENTINEL = -2

#: Internal sentinel for "diagonal has no cells" in furthest-reach waves.
_NO_DIAG = -1


class HWaves:
    """Waves L^0..L^h of the unit-cost edit DP for a string pair.

    ``entry(h, d)`` is the largest row index i with D[i, i+d] = h in the
    prefix-indexed D-table (row -1 is the empty prefix), or
    :data:`WAVE_SENTINEL` when no cell on the diagonal holds that value.
    Internally the waves are kept in furthest-reach form (largest row with
    value <= h), the form the P_k engine builds for suffix pairs with LCE
    jumps; these character-by-character waves are its reference.
    """

    def __init__(self, t1: Text, t2: Text, h: int, frontiers: list[list[int]]):
        self.t1 = t1
        self.t2 = t2
        self.h = h
        self._frontiers = frontiers  # frontiers[g][d + g], length-based rows

    def entry(self, h: int, d: int) -> int:
        if abs(d) > h:
            raise IndexError(f"diagonal {d} outside wave {h}")
        m, n2 = len(self.t1), len(self.t2)
        if not -m <= d <= n2:
            return WAVE_SENTINEL
        cur = self._frontiers[h][d + h]
        if cur == _NO_DIAG:
            return WAVE_SENTINEL
        if abs(d) <= h - 1:
            prev = self._frontiers[h - 1][d + h - 1]
        else:
            prev = max(0, -d) - 1  # one below the first row of a fresh diagonal
        return cur - 1 if cur > prev else WAVE_SENTINEL

    def wave(self, h: int) -> list[int]:
        """Wave h as [L^h(-h), ..., L^h(h)] in index-based convention."""
        return [self.entry(h, d) for d in range(-h, h + 1)]

    def lev_within(self) -> bool:
        """True iff Lev(t1, t2) <= h, read off the final cell's diagonal."""
        m, n2 = len(self.t1), len(self.t2)
        d = n2 - m
        if abs(d) > self.h:
            return False
        return self._frontiers[self.h][d + self.h] >= m


def _build_frontiers(m: int, n2: int, h: int, slide) -> list[list[int]]:
    """Furthest-reach waves 0..h for strings of lengths m and n2.

    ``slide(r, d)`` is how many symbols match from row r on diagonal d.
    """
    frontiers: list[list[int]] = []
    for g in range(h + 1):
        wave = [_NO_DIAG] * (2 * g + 1)
        for d in range(-g, g + 1):
            if not -m <= d <= n2:
                continue
            if g == 0:
                r = 0
            else:
                prev = frontiers[g - 1]
                r = _NO_DIAG
                if abs(d - 1) <= g - 1:
                    nb = prev[d - 1 + g - 1]  # insertion: row unchanged
                    if nb != _NO_DIAG:
                        r = max(r, nb)
                if abs(d) <= g - 1:
                    nb = prev[d + g - 1]  # substitution: row + 1
                    if nb != _NO_DIAG:
                        r = max(r, nb + 1)
                if abs(d + 1) <= g - 1:
                    nb = prev[d + 1 + g - 1]  # deletion: row + 1
                    if nb != _NO_DIAG:
                        r = max(r, nb + 1)
                if r == _NO_DIAG:
                    continue
            reach = min(m, n2 - d)
            r = min(r, reach)
            r += slide(r, d)
            wave[d + g] = r
        frontiers.append(wave)
    return frontiers


def _char_slide(t1: Text, t2: Text):
    m, n2 = len(t1), len(t2)

    def slide(r: int, d: int) -> int:
        reach = min(m, n2 - d)
        e = 0
        while r + e < reach and symbols_match(t1[r + e], t2[r + e + d]):
            e += 1
        return e

    return slide


def h_wave_build(t1: Text, t2: Text, h: int) -> HWaves:
    """Waves L^0..L^h for (t1, t2) under unit costs.

    Wildcards match in substitutions; insertions and deletions always cost 1.
    """
    if h < 0:
        raise ValueError("wave budget must be nonnegative")
    return HWaves(t1, t2, h, _build_frontiers(len(t1), len(t2), h, _char_slide(t1, t2)))


def _lev_check(t: Text, k: int, what: str) -> None:
    """Check the inputs of a Levenshtein engine."""
    if WILDCARD in t.symbols:
        raise ValueError(
            f"{what} requires a wildcard-free text; use the weighted edit "
            "metric with unit costs for partial words")
    if k < 0:
        raise ValueError("budget must be nonnegative")


def _suffix_pair_frontier(t: Text, a: int, ap: int, k: int,
                          lce: ExactLce) -> list[int]:
    """Top (h=k) furthest-reach wave for the pair (T[a, n-1], T[ap, n-1]).

    Both suffixes end where T ends, so an LCE jump inside T never overruns
    either of them.
    """
    n = len(t)

    def slide(r: int, d: int) -> int:
        return lce.extension(a + r, ap + r + d)

    return _build_frontiers(n - a, n - ap, k, slide)[k]


def _lev_ends(t: Text, a: int, ap: int, k: int, lce: ExactLce) -> Iterator[int]:
    """Yield P_k[a, b, ap] under Levenshtein for b = a, a+1, ...

    Stops where the value turns -1, which it then stays for every longer
    factor.  The largest end for T[a, b] sits on the highest diagonal whose
    frontier reaches row b-a+1, and that diagonal only moves down as b grows.
    """
    ft = _suffix_pair_frontier(t, a, ap, k, lce)
    d = k
    for i in range(1, len(t) - a + 1):
        while ft[d + k] < i:  # an empty diagonal (-1) never reaches row i
            d -= 1
            if d < -k:
                return
        yield ap + i + d - 1


def _lev_streams(t: Text, k: int) -> Iterator[tuple[int, list[list[int]]]]:
    """Yield (a, [S_k(a, a') for a' < n]) for a = n-1 down to 0: S_e(a, a') is
    the stream of :func:`_lev_ends`, read off neighbours with the same ends.
    ed(xA, xB) = ed(A, B) prepends min(a'+e, n-1) to S_e(a+1, a'+1); ed(xA, yB)
    = 1 + min(ed(A, B), ed(A, yB), ed(xA, B)) is an elementwise max at budget
    e-1.  Rows a, a+1 hold 2(k+1)(n+1) lists; O(k n^3) at worst (unary text)."""
    s, n = t.symbols, len(t)
    below = [[[]] * (n + 1)] * (k + 1)  # S_e(n, .) = []; no stream is mutated
    for a in range(n - 1, -1, -1):
        x, row = s[a], []
        for e in range(k + 1):
            cur = [[]] * n + [[n - 1] * min(e, n - a)]  # S_e(a, n): empty text
            # S_e(a+1, .), S_{e-1}(a+1, .) and S_{e-1}(a, .)
            same, sub, left = below[e], below[e - 1], row[-1] if row else None
            for ap in range(n):
                if s[ap] == x:
                    cur[ap] = [min(ap + e, n - 1), *same[ap + 1]]
                elif e:  # x against at most e symbols costs <= e; -2 pads below every end
                    x0 = ap + min(e, n - ap) - 1
                    cur[ap] = [*map(max, zip_longest((x0, *sub[ap + 1]), (x0, *sub[ap]),
                                                     left[ap + 1], fillvalue=-2))]
            row.append(cur)
        below = row
        yield a, row[k][:n]


class LevPrefixTable:
    """Dense P_k table under the Levenshtein distance.

    ``get(a, b, ap)`` is the largest b' >= ap-1 with Lev(T[a,b], T[ap,b'])
    <= k, or -1.  Dense storage: meant for moderate n (tests, API); factor
    coverage streams the same values without materializing them.
    """

    def __init__(self, n: int, k: int, data: list[list[list[int]]]):
        self.n = n
        self.k = k
        self._data = data

    def get(self, a: int, b: int, ap: int) -> int:
        return self._data[a][b - a][ap]


def p_lev_table(t: Text, k: int) -> LevPrefixTable:
    """P_k under Levenshtein for all (a, b, a'), from :func:`_lev_streams`: O(k n^3)."""
    _lev_check(t, k, "the Levenshtein P_k table")
    n = len(t)
    data = [[[-1] * n for _ in range(n - a)] for a in range(n)]
    for a, streams in _lev_streams(t, k):
        for ap, stream in enumerate(streams):
            for row, bp in zip(data[a], stream):
                row[ap] = bp
    return LevPrefixTable(n, k, data)


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
        if idx < 0:
            return None
        return self.dists[idx], self.ends[idx]


def pareto_list_build(costs: list[int], first_end: int) -> ParetoList:
    """Maximal (cost, end) pairs of one row, by a right-to-left scan.

    ``costs[t]`` is the distance for end position ``first_end + t``; a pair
    survives iff its cost is strictly below every later cost.
    """
    dists, ends = [], []
    best = inf
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
    if n <= 2:
        return 1
    return max(1, int(sqrt(n / log2(n))))


class _EditCosts:
    """Edit costs at every position of one text under one penalty matrix.

    ``ins[j]`` and ``dele[j]`` cost inserting and deleting T[j];
    ``sub[x][j]`` costs substituting symbol x by T[j].  The wildcard row is
    last and all zero, so ``sub[WILDCARD]`` (index -1) reads it.
    """

    __slots__ = ("symbols", "ins", "dele", "sub")

    def __init__(self, t: Text, p: PenaltyMatrix):
        _check_symbols_covered(t, p)
        syms = t.symbols
        self.symbols = syms
        self.ins = [p.ins_cost(y) for y in syms]
        self.dele = [p.del_cost(y) for y in syms]
        self.sub = [[p.sub_cost(x, y) for y in syms] for x in range(len(p.alphabet))]
        self.sub.append([0] * len(syms))


def _dp_rows(costs: _EditCosts, a: int, ap: int, height: int | None = None,
             width: int | None = None, k: int | None = None):
    """Yield rows b = a-1, a, ... of D_{a,ap} one at a time.

    Each row holds the costs for bp = ap-1 .. ap+width-2.  ``height`` caps
    the number of rows, the boundary row b = a-1 included; both default to
    the full table.  This is the one edit-DP kernel of the fast side;
    ``textcore.build_d_table`` and ``edit_distance`` stay separate as the
    references it is tested against.

    With a budget ``k`` (Ukkonen's cut-off: costs are nonnegative, so a cell
    above k never leads back under it) each row is yielded as ``(lo, window)``
    with ``window[i]`` at column ``lo + i``, from its first to its last cell
    <= k.  Those cells are exact, and the rows stop at the first with none.
    """
    n = len(costs.symbols)
    height = n - a + 1 if height is None else height
    width = n - ap + 1 if width is None else width
    ins = costs.ins[ap:ap + width - 1]
    cum = list(accumulate(ins, initial=0))  # row b = a-1: insertion-chain sums
    row = cum if k is None else cum[:bisect_right(cum, k)]
    lo, tail = 0, ins  # tail[i] costs inserting column lo+i+1; re-sliced on moves
    yield row if k is None else (lo, row)
    for b in range(a, a + height - 1):
        dl = costs.dele[b]
        sub = costs.sub[costs.symbols[b]][ap + lo:ap + lo + len(row)]
        left = row[0] + dl
        new = [left]
        append = new.append
        for diag, up, sc, ic in zip(row, islice(row, 1, None), sub, tail):
            left += ic
            diag += sc
            if diag < left:
                left = diag
            up += dl
            if up < left:
                left = up
            append(left)
        if k is not None:
            j = lo + len(row)
            if j < width:  # past the old window: its last cell, then insertions
                base = min(left + ins[j - 1], row[-1] + sub[-1]) - cum[j]
                new += [base + cum[c] for c in range(j, bisect_right(cum, k - base, j, width))]
            while new and new[-1] > k:
                new.pop()
            if not new:
                return
            if new[0] > k:
                s = next(i for i, v in enumerate(new) if v <= k)
                new, lo = new[s:], lo + s
                tail = ins[lo:lo + len(new)]
            elif len(new) > len(tail) + 1:  # the next row reads len(new) - 1 costs
                tail = ins[lo:lo + len(new)]
        row = new
        yield row if k is None else (lo, row)


class SpecialPointIndex:
    """Structures for sub-quartic weighted-edit prefix queries.

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
        self.text = text
        self.penalty = penalty
        self.M = m
        self.blocks = blocks
        self.lists: dict[tuple[int, int], list[ParetoList]] = {}
        self._costs = costs
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


def _check_index(idx: SpecialPointIndex, t: Text, p: PenaltyMatrix) -> None:
    if idx.text != t or idx.penalty != p:
        raise ValueError("special-point index was built for a different text or penalty matrix")


def _split_pairs(m: int, a: int, ap: int) -> list[tuple[int, int]]:
    """The 2M special split pairs (c, c') of an alignment from (a, ap).

    c is the first special point >= a with c' free in [ap, ap+M), or c' the
    first special point >= ap with c free in [a, a+M); an alignment that
    leaves the leading M x M block passes through one of them.
    """
    s = a + (-a) % m
    sp = ap + (-ap) % m
    return [(s, cp) for cp in range(ap, ap + m)] + [(c, sp) for c in range(a, a + m)]


def p_ed_entry(idx: SpecialPointIndex, a: int, b: int, ap: int, k: int) -> int:
    """P_k[a, b, ap] under the weighted edit metric, via the index.

    Short factors scan their small block directly; every longer target is
    split at a special point, where the stored Pareto list answers a
    predecessor query on the remaining budget.
    """
    n = len(idx.text)
    m = idx.M
    res = -1
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


def _ed_ends(costs: _EditCosts, a: int, ap: int, k: int) -> Iterator[int]:
    """Yield P_k[a, b, ap] under weighted costs for b = a, a+1, ..., like
    :func:`_lev_ends`: the last live column of each budget-cut row."""
    rows = _dp_rows(costs, a, ap, k=k)
    next(rows)  # boundary row b = a-1
    for lo, window in rows:
        yield ap + lo + len(window) - 2


def _pk_ends(t: Text, metric: str, k: int, p: PenaltyMatrix | None):
    """Check the inputs of an edit-metric coverage query and return the P_k
    streams of start a, one per a' < n, as ``ends(a)`` (Levenshtein: LCE waves)."""
    if metric == "levenshtein":
        _lev_check(t, k, "Levenshtein coverage")
        lce = ExactLce(t)
        return lambda a: (_lev_ends(t, a, ap, k, lce) for ap in range(len(t)))
    if metric != "edit":
        raise ValueError(f"unknown metric {metric!r}")
    if p is None:
        raise ValueError("edit metric requires a penalty matrix")
    if k < 0:
        raise ValueError("budget must be nonnegative")
    costs = _EditCosts(t, p)
    return lambda a: (_ed_ends(costs, a, ap, k) for ap in range(len(t)))


def _coverage_row(n: int, a: int, streams) -> list[int]:
    """k-coverage of T[a, b] for b = a, ..., n-1 from the P_k streams of a."""
    acc = [[0, -1] for _ in range(n - a)]  # per b: [union size, reach]
    for ap, stream in enumerate(streams):
        for cell, bp in zip(acc, stream):
            if bp >= ap and bp > cell[1]:  # extend the union with [ap, bp]
                cell[0] += bp - max(cell[1], ap - 1)
                cell[1] = bp
    return [size for size, _ in acc]


def factor_coverage(t: Text, metric: str, k: int,
                    p: PenaltyMatrix | None = None) -> list[list[int]]:
    """k-coverage of every factor: rows[a][b-a] covers T[a, b].

    Hamming uses the linear sweeps; Levenshtein (:func:`_lev_streams`,
    O(k n^3) at worst) and weighted edit (O(k n^3) when every indel costs at
    least 1, O(n^4) at worst) run the one per-start routine on their streams.
    """
    if metric == "hamming":
        return hamcover.factor_coverage_all(t, k)
    if metric == "levenshtein":
        _lev_check(t, k, "Levenshtein coverage")
        return [_coverage_row(len(t), a, ss) for a, ss in _lev_streams(t, k)][::-1]
    ends = _pk_ends(t, metric, k, p)
    return [_coverage_row(len(t), a, ends(a)) for a in range(len(t))]


def prefix_coverage(t: Text, metric: str, k: int,
                    p: PenaltyMatrix | None = None) -> list[int]:
    """k-coverage of every prefix; entry ell-1 is for length ell.

    Hamming sweeps PREF_k; the edit metrics run the per-start routine at a = 0.
    """
    if metric == "hamming":
        return hamcover.prefix_coverage(t, k)
    return _coverage_row(len(t), 0, _pk_ends(t, metric, k, p)(0))
