"""Restricted approximate covers and seeds under weighted edit distance.

A factor's threshold is the least k at which it is a k-approximate cover
of T (Q_{a,b}[0] of the paper's tables, whose engines are in
:mod:`quasicover.reference`); the factors with the least threshold are the
restricted approximate covers of T.  :func:`_report_for_candidates` reads
the thresholds off packed rows of Sellers' approximate-matching DP: on
random ternary text under ``bench.QTABLE_PENALTY`` a report took 0.009 s
at n = 40 and 0.25 s at n = 128 (best of 10 rounds, 2 vCPUs, CPython
3.11.7).  Its candidates come from
:func:`~quasicover.textcore.restricted_candidates`; each start fills a list
of thresholds by length, read as rows by length, then by string.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from operator import add

from .textcore import (Candidates, Keyed, PenaltyMatrix, Text, _EditCosts, _packed_fields,
                       restricted_candidates)


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


def __getattr__(name: str):
    # The benchmark's tracer reads this reference here.  This stays until
    # the benchmark change of ROADMAP item 6 drops the metrics it feeds.
    if name == "q_table_fast":
        from . import reference
        return reference.q_table_fast
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
