"""Restricted approximate covers and seeds under weighted edit distance.

For a factor T[a, b], the table Q_{a,b}[i] holds the minimal threshold k at
which the factor is a k-approximate cover of T[i, n-1]; the factors with
minimal Q_{a,b}[0] are the restricted approximate covers of T.  The paper
computes the tables with two engines, both kept here as references: the
quadratic recurrence, which fills the tables of all candidates with one
start from one edit-DP pass per suffix (O(n^4) over all candidates), and
the special-point variant, which answers each entry in O(sqrt(n log n))
with binary searches on the index's Pareto lists plus prefix minima over
the table built so far, kept in a union-find forest (O(n^3 sqrt(n log n))
after the index build).

Reports need only Q[0], which :func:`_report_for_candidates` reads off
packed rows of Sellers' approximate-matching DP: on random ternary text
under ``bench.QTABLE_PENALTY`` a report took 0.009 s at n = 40 and 0.25 s
at n = 128 (best of 10 rounds, 2 vCPUs, CPython 3.11.7).  Its candidates
come from :func:`~quasicover.textcore.restricted_candidates`; each start
fills a list of thresholds by length, read as rows by length, then by
string.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from math import inf
from operator import add
from typing import TYPE_CHECKING

from .textcore import (Candidates, Keyed, PenaltyMatrix, Text, _EditCosts, _packed_fields,
                       restricted_candidates)

if TYPE_CHECKING:
    from .editcover import SpecialPointIndex


def _q_tables_of_start(costs: _EditCosts, a: int, bs: list[int]) -> list[list[int]]:
    """Q-table values of the factors T[a, b] for every end b in ``bs``.

    The quadratic recurrence: Q[i] is the best first occurrence T[i, j],
    min over j >= i of max(D_{a,i}[b, j], min(Q[i+1..j+1])).  Every table
    of start a reads row b of the same D_{a,i}, so one ``_dp_rows`` pass per
    suffix i, as tall as the largest end needs, serves them all: O(n^2) per
    pass plus O(n) per table per i.
    """
    from .editcover import _dp_rows  # loaded on first use: a report never runs it
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
    from .editcover import _check_index, _split_pairs, precompute_special
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
    return values


@dataclass
class RestrictedReport:
    """Minimal thresholds per candidate factor plus the argmin set.

    ``thresholds`` maps factor strings by length, then by string (streamed, see
    :class:`~quasicover.textcore.Keyed`); ``minimal`` is the best threshold
    and ``argmin`` the strings achieving it (None/empty when no candidates).
    """

    thresholds: Mapping[str, int]
    minimal: int | None

    @property
    def argmin(self) -> list[str]:
        if self.minimal is None:
            return []
        return [key for key, v in self.thresholds.items() if v == self.minimal]


def _report_for_candidates(target: Text, candidates: Candidates,
                           p: PenaltyMatrix) -> RestrictedReport:
    """Q[0]-thresholds of the candidates, as factors of ``target``.

    The threshold of C is the largest, over positions x, of cov(x), the
    cost of the cheapest occurrence of C that contains x.  Splitting an
    occurrence at the step that consumes T[x] gives cov(x) = min over
    s = a..b+1 of F_a[s][x] + H_b[s][x]:

    * F_a[s][x], the cheapest alignment of T[a, s-1] with a window ending
      at x-1: one free-start DP per start a, run forward;
    * H_b[s][x], the cheapest alignment of T[s, b] with a window starting
      at x, T[x] inserted or substituted by T[s]: read off R_s and R_{s+1},
      where R_s[x] aligns T[s, b] with a window starting at x+1, from one
      free-end DP per end b, run backward over the text.

    Every row is one int, position x in field x (SIMD within a register),
    and is built in that layout.  A DP step is one fieldwise minimum of the
    diagonal (the previous row shifted one field) and the deletion, then
    the insertion chain, a prefix minimum with additive weights, in
    doubling steps that stop at the first step that changes no field: at
    most ceil(log2 n) per row, so O(n^2 log n) big-int operations in the
    worst case (a run of cheap insertions as long as the text).  An H row
    is one fieldwise minimum of two row sums, and cov is a running
    fieldwise minimum over s of F + H rows, written out in the loop: O(n)
    big-int operations per candidate.  A field has one guard bit above the
    bits of the largest value formed, 2·Σdel + max ins, and the threshold,
    the largest field of cov, is found by a binary search of fieldwise
    compares, bit by bit.

    The stop is exact.  Write v for the row before its chain, I(y, x) for
    the insertions of T[y, x-1] (F; R's chain runs the other way) and
    M_L(x) for the least v[x-j] + I(x-j, x) over j < L.  The step with
    shift L = 2^i turns M_L into M_2L.  Its sums are capped at cap, and a
    field that would read past the row's end gets cap, but such a term
    never wins: costs are nonnegative (zero-cost wildcards included) and
    every row value is at most Σdel <= cap, so the fields equal M_2L.  Say
    that step is idle, M_2L = M_L.  Take a chain of j >= 2L insertions
    ending at x and split it at y = x - L.  By induction on j, the part
    ending at y costs at least M_L(y).  M_L(y) + I(y, x) is a chain of L to
    2L-1 insertions ending at x, so it costs at least M_2L(x) = M_L(x).
    Hence M_L = M_4L = ..., and every later step is idle too.
    """
    costs = _EditCosts(target, p)
    m = len(target)
    cap = sum(costs.dele) + max(costs.ins, default=0)
    w = (cap + sum(costs.dele)).bit_length() + 1  # rows <= Σdel (empty window), addends <= cap
    rep, guard, full, pack, fmin = _packed_fields(w, m)
    high = w - 1

    def top(v: int) -> int:  # the largest field: some field >= x iff a guard survives
        v, x = v | guard, 0
        for bit in reversed(range(w - 1)):
            if (v - (x | 1 << bit) * rep) & guard:
                x |= 1 << bit
        return x

    syms = target.symbols
    ins = pack(costs.ins)
    dels = [d * rep for d in costs.dele]
    subs = [pack([min(c, cap) for c in row]) for row in costs.sub]
    # diagonals: F substitutes T[s] by T[x-1] and R by T[x+1], so field 0 of
    # F and field m-1 of R, which have no such symbol, add cap
    subf = [(sub << w | cap) & full for sub in subs]
    subb = [(sub | cap << w * m) >> w for sub in subs]
    chain_f, chain_b = [], []  # per doubling step: shift, sums of that many insertions
    cum = list(accumulate(costs.ins, initial=0))
    step = 1
    while step < m:
        sums = [min(y - x, cap) for x, y in zip(cum, islice(cum, step, None))]
        chain_f.append((step * w, pack([cap] * step + sums[:-1])))  # ins[x-step, x-1]
        chain_b.append((step * w, pack(sums[1:] + [cap] * step)))  # ins[x+1, x+step]
        step *= 2

    def forward(row: int, s: int) -> int:  # F_a[s] to F_a[s+1]
        v = fmin(((row << w) & full) + subf[syms[s]], row + dels[s])
        for shift, sums in chain_f:
            if (u := fmin(v, ((v << shift) & full) + sums)) == v:
                break  # an idle step: every longer chain is idle too
            v = u
        return v

    def backward(row: int, s: int) -> int:  # R_{s+1} to R_s
        v = fmin((row >> w) + subb[syms[s]], row + dels[s])
        for shift, sums in chain_b:
            if (u := fmin(v, (v >> shift) + sums)) == v:
                break
            v = u
        return v

    h_rows = {}  # per end b: the first start with a candidate ending there, H rows
    levels = []  # levels[a][L]: the threshold of the candidate t[a, a+L-1]
    for start, (seen, longest) in enumerate(zip(candidates.lo, candidates.hi),
                                            candidates.shift):
        levels.append(level := [None] * (longest + 1))
        f = list(accumulate(range(start, start + longest), forward, initial=0))
        for b in range(start + seen, start + longest):
            if b not in h_rows:  # R_{b+1}, R_b, ..., R_start, then H for s = start .. b+1
                r = list(accumulate(range(b, start - 1, -1), backward, initial=0))
                h = [ins]
                for s, done, row in zip(range(b, start - 1, -1), r, islice(r, 1, None)):
                    h.append(fmin(ins + row, subs[syms[s]] + done))
                h_rows[b] = start, h[::-1]
            lo, h = h_rows[b]
            terms = map(add, f, islice(h, start - lo, None))
            x = next(terms)
            for y in terms:  # fmin, written out: one Python call less per term
                z = ((x | guard) - y) & guard
                x ^= (x ^ y) & (z - (z >> high))
            level[b - start + 1] = top(x)
    return RestrictedReport(Keyed(candidates, levels), min(chain.from_iterable(
        level[seen + 1:] for seen, level in zip(candidates.lo, levels)), default=None))


def restricted_covers_ed(t: Text, p: PenaltyMatrix) -> RestrictedReport:
    """Minimal cover threshold for every proper factor; argmin set reported.

    Per-position occurrence costs of every distinct factor: O(n^3) big-int
    operations on packed rows of O(n) fields.
    """
    return _report_for_candidates(*restricted_candidates(t), p)


def restricted_seeds_ed(t: Text, p: PenaltyMatrix) -> RestrictedReport:
    """Minimal seed threshold for every factor with 2|C| <= |T|: the cover
    report on the wildcard-padded text."""
    return _report_for_candidates(*restricted_candidates(t, seeds=True), p)
