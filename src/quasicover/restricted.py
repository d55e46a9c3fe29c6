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
run at n = 128 already takes tens of seconds.  Reports take their target
text and candidates from :func:`~quasicover.textcore.restricted_candidates`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import inf

from .editcover import (SpecialPointIndex, _check_index, _dp_rows, _EditCosts,
                        _split_pairs, precompute_special)
from .textcore import PenaltyMatrix, Text, restricted_candidates


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

    ``thresholds`` is keyed by factor string; ``minimal`` is the best
    threshold and ``argmin`` the strings achieving it (None/empty when no
    candidates).
    """

    thresholds: dict[str, int]
    minimal: int | None

    @property
    def argmin(self) -> list[str]:
        if self.minimal is None:
            return []
        return [key for key, v in self.thresholds.items() if v == self.minimal]


def _report_for_candidates(target: Text, candidates: dict[int, dict[int, str]],
                           p: PenaltyMatrix) -> RestrictedReport:
    """Q[0]-thresholds of the factors ``candidates[a][b]`` = target[a, b].

    One Q-table per candidate; the tables of one start come from one DP pass
    per suffix (O(n^4) in total).
    """
    costs = _EditCosts(target, p)
    thresholds = {}
    for a, group in candidates.items():
        for key, values in zip(group.values(), _q_tables_of_start(costs, a, list(group))):
            thresholds[key] = values[0]
    return RestrictedReport(thresholds, min(thresholds.values(), default=None))


def restricted_covers_ed(t: Text, p: PenaltyMatrix) -> RestrictedReport:
    """Minimal cover threshold for every proper factor; argmin set reported.

    One Q-table per distinct factor, O(n^4) in all.
    """
    return _report_for_candidates(*restricted_candidates(t), p)


def restricted_seeds_ed(t: Text, p: PenaltyMatrix) -> RestrictedReport:
    """Minimal seed threshold for every factor with 2|C| <= |T|: the cover
    report on the wildcard-padded text."""
    return _report_for_candidates(*restricted_candidates(t, seeds=True), p)
