"""Restricted approximate covers and seeds under weighted edit distance.

For a factor T[a, b], the table Q_{a,b}[i] holds the minimal threshold k at
which the factor is a k-approximate cover of T[i, n-1]; the factors with
minimal Q_{a,b}[0] are the restricted approximate covers of T.  Two engines
compute the table: the quadratic recurrence, which fills the tables of all
candidates with one start from one edit-DP pass per suffix (O(n^4) over all
candidates), and the paper's special-point variant, which answers each entry
in O(sqrt(n log n)) with binary searches on the index's Pareto lists plus
prefix minima over the table built so far, kept in a union-find forest
(O(n^3 sqrt(n log n)) after the index build).  Reports use the first: it
measured 2-4x faster than the second at n = 16..128, and one weighted covers
run at n = 128 already takes tens of seconds.  Seeds reduce to covers of the
text with floor(n/2) wildcards on each side: every seed candidate C is at
most that long, so windows inside a pad cost nothing, and a window that
reaches into the text through more than |C| wildcards costs what one through
|C| does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import inf

from .editcover import (SpecialPointIndex, _check_index, _dp_rows, _EditCosts,
                        _split_pairs, precompute_special)
from .textcore import PenaltyMatrix, Text, pad_for_seed


@dataclass
class QTable:
    """Minimal cover thresholds of one factor against every text suffix."""

    a: int
    b: int
    values: list[int]

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)


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


def q_table_quadratic(t: Text, a: int, b: int, p: PenaltyMatrix) -> QTable:
    """Reference recurrence: try every first occurrence T[i, j].

    The batched routine with one end: the needed D_{a,i}[b, .] row is
    recomputed per i, O(n^3) in all; with the rows given, the double loop is
    quadratic.
    """
    return QTable(a, b, _q_tables_of_start(_EditCosts(t, p), a, [b])[0])


def q_table_fast(t: Text, a: int, b: int, p: PenaltyMatrix,
                 idx: SpecialPointIndex | None = None) -> QTable:
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
    else:
        _check_index(idx, t, p)
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
    return QTable(a, b, values)


@dataclass
class RestrictedReport:
    """Minimal thresholds per candidate factor plus the argmin set.

    ``thresholds`` is keyed by factor string; ``occurrences`` lists every
    (a, b) realizing a string; ``minimal`` is the best threshold and
    ``argmin`` the strings achieving it (None/empty when no candidates).
    """

    thresholds: dict[str, int]
    occurrences: dict[str, list[tuple[int, int]]]
    minimal: int | None

    @property
    def argmin(self) -> list[str]:
        if self.minimal is None:
            return []
        return [key for key, v in self.thresholds.items() if v == self.minimal]


def _report_for_candidates(target: Text, p: PenaltyMatrix,
                           candidates: list[tuple[int, int]],
                           label_at: int = 0) -> RestrictedReport:
    """Q[0]-thresholds for candidate factors of ``target``.

    One Q-table per distinct factor, at its first listed occurrence; the
    tables of one start come from one DP pass per suffix (O(n^4) in total).
    ``label_at`` shifts reported occurrence coordinates (used by the seed
    reduction, whose candidates live in the middle of the padded text).
    """
    s = target.to_str()
    occurrences: dict[str, list[tuple[int, int]]] = {}
    canonical: dict[str, tuple[int, int]] = {}
    ends: dict[int, list[int]] = {}
    for a, b in candidates:
        key = s[a:b + 1]
        occurrences.setdefault(key, []).append((a - label_at, b - label_at))
        if key not in canonical:
            canonical[key] = (a, b)
            ends.setdefault(a, []).append(b)
    costs = _EditCosts(target, p)
    q0 = {}
    for a, bs in ends.items():
        for b, values in zip(bs, _q_tables_of_start(costs, a, bs)):
            q0[a, b] = values[0]
    thresholds = {key: q0[ab] for key, ab in canonical.items()}
    minimal = min(thresholds.values(), default=None)
    return RestrictedReport(thresholds, occurrences, minimal)


def restricted_covers_ed(t: Text, p: PenaltyMatrix) -> RestrictedReport:
    """Minimal cover threshold for every proper factor; argmin set reported.

    One Q-table per distinct factor, O(n^4) in all.
    """
    n = len(t)
    candidates = [(a, b) for a in range(n) for b in range(a, n) if b - a + 1 < n]
    return _report_for_candidates(t, p, candidates)


def restricted_seeds_ed(t: Text, p: PenaltyMatrix) -> RestrictedReport:
    """Minimal seed threshold for every factor with 2|C| <= |T|.

    Runs the cover machinery on t padded with floor(n/2) wildcards on each
    side, with candidates drawn from the original region; reported
    coordinates refer to t.
    """
    n = len(t)
    half = n // 2
    candidates = [(a + half, b + half) for a in range(n) for b in range(a, n)
                  if 2 * (b - a + 1) <= n]
    return _report_for_candidates(pad_for_seed(t, half), p, candidates, label_at=half)
