"""Hamming-distance quasiperiodicity: coverage sweeps, restricted covers and
seeds, and both enhanced-cover variants.

The core is a linear sweep over subject lengths.  Live occurrence starts sit
in a doubly linked list; adjacent pairs are split into overlapping pairs
(tracked only as a gap sum) and non-overlapping pairs (bucketed by gap), so
that at every length the covered-position count is ``sum of overlapping gaps
+ number of non-overlapping pairs * length``.  :func:`coverage_sweep` is the
one entry point; it stops at a given length.

Restricted covers and seeds take one pass per candidate start over lengths
1, 2, ... on int masks, bit j for position j (shift-add k-mismatch matching,
after Baeza-Yates and Gonnet), with saturating bit-sliced mismatch counters.
Per start that is O(L_stop * k) big-int ops of ceil(m/64) words, plus
O((1 + log k) * log m) per candidate (L_stop: stop length; m: target length).
Seeds are covers of the text with floor(n/2) wildcards on each side: every
seed candidate is at most that long, so windows inside a pad always match.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from .lcpk import LcpKTable, PrefKTable, lcp_k_all_pairs, pref_k
from .textcore import WILDCARD, IntervalSet, Text, pad_for_seed


@dataclass
class CoverageReport:
    """Coverage of one subject: a prefix length or a factor (a, b)."""

    subject: int | tuple[int, int]
    coverage: int
    occurrences: IntervalSet | None = None


@dataclass
class EnhancedCover:
    """Best enhanced-cover candidate with its location and coverage."""

    candidate: str
    start: int
    end: int
    coverage: int


class SweepState:
    """Mutable state of one coverage sweep; single-owner while sweeping.

    Exposes the aggregates needed by the coverage formula plus a processed
    pair counter, so tests can assert the internal invariants step by step.
    Only lengths up to ``max_len`` are ever stepped to, so positions live
    beyond it are never bucketed for removal and pairs whose gap reaches
    it are never bucketed for migration.
    """

    def __init__(self, vals: list[int], n: int, max_len: int):
        # Node x represents position x-1; node 0 is the left sentinel (a
        # virtual position that never counts as an occurrence) and node n+1
        # is the right sentinel for position n.  Node x > 0 owns the pair
        # (x, nxt[x]) with gap gap_of[x]; a pair is non-overlapping (is_no)
        # while its gap is at least the current length.  At length 1 every
        # initial pair (i, i+1) has gap 1 and is non-overlapping.
        self.n = n
        self.max_len = max_len
        self.nxt = list(range(1, n + 3))
        self.prv = list(range(-1, n + 2))
        self.gap_of = [0] + [1] * n + [0]
        self.is_no = [False] + [True] * n + [False]
        # Nodes by gap; an entry is stale once its node's gap or side changed.
        self.buckets: list[list[int]] = [[] for _ in range(max_len)]
        if max_len > 1:
            self.buckets[1] = list(range(1, n + 1))
        self.sum_o = 0
        self.num_no = n
        self.pairs_processed = n
        self.removal_bucket: list[list[int]] = [[] for _ in range(max_len)]
        for i, v in enumerate(vals):
            if v < max_len:
                self.removal_bucket[v].append(i)

    def step(self, ell: int) -> int:
        """Advance to subject length ell and return its coverage."""
        return self.steps(ell, ell)[0]

    def steps(self, first: int, last: int) -> list[int]:
        """Advance through subject lengths first..last, one after another
        from the current one, and return their coverages."""
        nxt, prv, gap_of, is_no = self.nxt, self.prv, self.gap_of, self.is_no
        buckets, removal_bucket, max_len = self.buckets, self.removal_bucket, self.max_len
        sum_o, num_no, pairs = self.sum_o, self.num_no, self.pairs_processed
        out = []
        for ell in range(first, last + 1):
            for pos in removal_bucket[ell - 1]:
                node = pos + 1
                left, right = prv[node], nxt[node]
                if is_no[node]:
                    is_no[node] = False
                    num_no -= 1
                else:
                    sum_o -= gap_of[node]
                gap_of[node] = 0
                nxt[left] = right
                prv[right] = left
                if left == 0:
                    continue  # left-sentinel pairs are never counted
                if is_no[left]:
                    num_no -= 1
                else:
                    sum_o -= gap_of[left]
                gap = right - left
                gap_of[left] = gap
                pairs += 1
                if gap < ell:
                    sum_o += gap
                    is_no[left] = False
                else:
                    num_no += 1
                    is_no[left] = True
                    if gap < max_len:
                        buckets[gap].append(left)
            if ell >= 2:
                gap = ell - 1  # pairs of this gap turn overlapping
                for node in buckets[gap]:
                    if is_no[node] and gap_of[node] == gap:
                        is_no[node] = False
                        num_no -= 1
                        sum_o += gap
                buckets[gap] = []
            out.append(sum_o + num_no * ell)
        self.sum_o, self.num_no, self.pairs_processed = sum_o, num_no, pairs
        return out


def coverage_sweep(vals: list[int], n: int, max_len: int) -> list[int]:
    """Coverage for subject lengths 1..max_len given per-position live lengths.

    ``vals[i]`` is the largest subject length for which position i still is
    an approximate occurrence start (a PREF_k value or an lcp_k table row).
    O(n) overall: at most 2n-1 adjacent pairs exist over the whole sweep.
    """
    return SweepState(vals, n, max_len).steps(1, max_len)


def prefix_coverage(t: Text, k: int, pref: PrefKTable | None = None) -> list[int]:
    """Hamming k-coverage of every prefix; entry ell-1 is for length ell.

    Linear in |t| once the PREF_k table is available.
    """
    n = len(t)
    if pref is None:
        pref = pref_k(t, k)
    if len(pref) != n:
        raise ValueError(f"PREF table length {len(pref)} does not match text length {n}")
    if pref.k != k:
        raise ValueError(f"PREF table was built for k={pref.k}, queried with k={k}")
    return coverage_sweep(list(pref.values), n, n)


def _lcp_table(t: Text, k: int, table: LcpKTable | None) -> LcpKTable:
    """The lcp_k table of ``t``: built here, or a prebuilt one checked to fit."""
    if table is None:
        return lcp_k_all_pairs(t, k)
    if (table.n, table.k) != (len(t), k):
        raise ValueError(f"lcp_k table for n={table.n}, k={table.k} used with n={len(t)}, k={k}")
    return table


def factor_coverage_all(t: Text, k: int,
                        table: LcpKTable | None = None) -> list[list[int]]:
    """Hamming k-coverage of every factor: rows[a][b-a] covers T[a, b].

    One prefix-style sweep per start against the matching lcp_k table row,
    O(n^2) total.
    """
    table = _lcp_table(t, k, table)
    n = len(t)
    return [coverage_sweep(table.row(a), n, n - a) for a in range(n)]


def factor_occurrences(t: Text, k: int, a: int, b: int,
                       table: LcpKTable | None = None) -> IntervalSet:
    """Approximate occurrence intervals of T[a, b], in start order."""
    table = _lcp_table(t, k, table)
    length = b - a + 1
    row = table.row(a)
    occ = IntervalSet()
    for i, v in enumerate(row):
        if v >= length:
            occ.add(i, i + length - 1)
    return occ


def factor_report(t: Text, k: int, a: int, b: int,
                  with_occurrences: bool = False,
                  table: LcpKTable | None = None) -> CoverageReport:
    """Coverage report for one factor, optionally with its occurrence set."""
    table = _lcp_table(t, k, table)
    cov = coverage_sweep(table.row(a), len(t), b - a + 1)[b - a]
    occ = factor_occurrences(t, k, a, b, table) if with_occurrences else None
    return CoverageReport((a, b), cov, occ)


def _candidate_map(t: Text, pairs: Iterable[tuple[int, int]]) -> dict[str, tuple[int, int]]:
    """Leftmost occurrence per distinct factor string, insertion-ordered."""
    s = t.to_str()
    out: dict[str, tuple[int, int]] = {}
    for a, b in pairs:
        key = s[a:b + 1]
        if key not in out:
            out[key] = (a, b)
    return out


def _fills(alive: int, length: int, full: int) -> bool:
    """True if windows of ``length`` at the set bits of ``alive`` cover ``full``."""
    span = 1
    while span + span <= length:
        alive |= alive << span
        span += span
    return (alive | alive << (length - span)) & full == full


def _restricted_levels(target: Text, offset: int, k: int,
                       candidates: dict[str, tuple[int, int]]) -> dict[str, int | None]:
    """Minimal level ell <= k at which each candidate covers ``target``.

    A candidate (a, b) is read from start a + offset of ``target``.  A start
    stops once level k's occurrences, smeared by its longest candidate, miss
    a position: occurrence sets only shrink as the length grows.
    """
    if k < 0:
        raise ValueError("mismatch budget must be nonnegative")
    result: dict[str, int | None] = {key: None for key in candidates}
    by_start: dict[int, dict[int, str]] = {}
    for key, (a, b) in candidates.items():
        by_start.setdefault(a + offset, {})[b - a + 1] = key
    sym = target.symbols
    m = len(sym)
    full = (1 << m) - 1
    # miss[c]: positions holding neither c nor a wildcard; miss[WILDCARD] is 0.
    miss = [int("0" + "".join("0" if x in (c, WILDCARD) else "1" for x in reversed(sym)), 2)
            for c in range(target.alphabet_size)] + [0]
    for start, lengths in by_start.items():
        longest = max(lengths)
        top = min(k, longest)
        over = [0] * (top + 1)  # over[e]: positions with more than e mismatches
        depth = 0  # offsets that mismatch somewhere: over[e] is empty for e >= depth
        for length in range(1, longest + 1):
            x = miss[sym[start + length - 1]] >> (length - 1)
            if x:
                for e in range(min(top, depth), 0, -1):
                    over[e] |= over[e - 1] & x
                over[0] |= x
                depth += 1
            if over[top] & 1:
                break
            key = lengths.get(length)
            if key is None:
                continue
            valid = (1 << (m - length + 1)) - 1  # starts with room for the candidate
            hi = min(top, depth)
            if _fills(valid & ~over[hi], length, full):
                result[key] = bisect_left(range(hi), True, key=lambda e: _fills(
                    valid & ~over[e], length, full))
            elif not _fills(valid & ~over[hi], longest, full):
                break
    return result


def k_restricted_covers(t: Text, k: int) -> dict[str, int | None]:
    """Minimal ell <= k making each proper factor an ell-approximate cover.

    Factors are keyed by string content; the value is None when no budget up
    to k suffices.  Coverage is monotone in the budget, so the first level
    reaching full coverage is minimal.
    """
    n = len(t)
    pairs = ((a, b) for a in range(n) for b in range(a, n) if b - a + 1 < n)
    return _restricted_levels(t, 0, k, _candidate_map(t, pairs))


def k_restricted_seeds(t: Text, k: int) -> dict[str, int | None]:
    """Minimal ell <= k making each factor with 2|C| <= |T| an ell-approximate seed.

    Seeds of T are exactly covers of the wildcard-padded text, so the cover
    search runs there, with candidates drawn from the middle (original)
    region.  Every candidate has |C| <= floor(|T|/2), so pads of that width
    suffice: all-wildcard windows still cover each pad.
    """
    n = len(t)
    half = n // 2
    pairs = ((a, b) for a in range(n) for b in range(a, min(n, a + half)))
    return _restricted_levels(pad_for_seed(t, half), half, k, _candidate_map(t, pairs))


def failure_function(t: Text) -> list[int]:
    """Classic border array over exact symbol identity."""
    sym = t.symbols
    n = len(sym)
    pi = [0] * n
    k = 0
    for q in range(1, n):
        c = sym[q]
        while k > 0 and sym[k] != c:
            k = pi[k - 1]
        if sym[k] == c:
            k += 1
        pi[q] = k
    return pi


def border_lengths(t: Text) -> list[int]:
    """Lengths of all nonempty proper borders, longest first."""
    if len(t) == 0:
        return []
    pi = failure_function(t)
    out = []
    b = pi[-1]
    while b > 0:
        out.append(b)
        b = pi[b - 1]
    return out


def enhanced_cover_exact_border(t: Text, k: int,
                                pref: PrefKTable | None = None) -> EnhancedCover | None:
    """Best proper border by Hamming k-coverage; None when t has no border.

    Ties prefer the shorter border.  Border detection is exact (symbol
    identity); only the occurrences are approximate.
    """
    lengths = border_lengths(t)
    if not lengths:
        return None
    cov = prefix_coverage(t, k, pref)
    best: EnhancedCover | None = None
    for length in sorted(lengths):
        c = cov[length - 1]
        if best is None or c > best.coverage:
            best = EnhancedCover(t.prefix(length).to_str(), 0, length - 1, c)
    return best


def enhanced_cover_approx_border(t: Text, k: int,
                                 table: LcpKTable | None = None) -> EnhancedCover | None:
    """Best factor that is a k-approximate border, by Hamming k-coverage.

    A factor C qualifies when both Ham(C, prefix of |C|) <= k and
    Ham(C, suffix of |C|) <= k; both conditions are lcp_k lookups.  Ties
    prefer shorter candidates, then smaller start positions.
    """
    n = len(t)
    if n == 0:
        return None
    table = _lcp_table(t, k, table)
    rows = factor_coverage_all(t, k, table)
    best: EnhancedCover | None = None
    for length in range(1, n + 1):
        for a in range(n - length + 1):
            if table.entry(0, a) < length:
                continue
            if table.entry(a, n - length) < length:
                continue
            c = rows[a][length - 1]
            if best is None or c > best.coverage:
                best = EnhancedCover(t.factor(a, a + length - 1).to_str(),
                                     a, a + length - 1, c)
    return best
