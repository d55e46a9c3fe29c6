"""Hamming-distance quasiperiodicity: coverage sweeps, restricted covers and
seeds, and both enhanced-cover variants.

The core is a linear sweep over subject lengths.  Live occurrence starts sit
in a doubly linked list, and each owns the gap to the next one (the last
one's runs to n).  At length ell the covered-position count is the sum of
min(gap, ell): the gaps below ell summed, plus ell times the number of the
others, which are kept as one count per gap size.  :func:`coverage_sweep` is
the one entry point; it stops at a given length.

Restricted covers and seeds take one pass per candidate start over lengths
1, 2, ... on int masks, bit j for position j (shift-add k-mismatch matching,
after Baeza-Yates and Gonnet), with saturating bit-sliced mismatch counters.
Per start that is O(L_stop * k) big-int ops of ceil(m/64) words, plus
O((1 + log k) * log m) per candidate (L_stop: stop length; m: target length).
Both take their target text and candidates from
:func:`~quasicover.textcore.restricted_candidates`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .lcpk import _lcp_k_row, lcp_k_all_pairs, pref_k
from .textcore import WILDCARD, IntervalSet, Text, restricted_candidates


@dataclass
class CoverageReport:
    """Coverage of one subject: a prefix length or a factor (a, b)."""

    subject: int | tuple[int, int]
    coverage: int


@dataclass
class EnhancedCover:
    """Best enhanced-cover candidate with its location and coverage."""

    candidate: str
    start: int
    end: int
    coverage: int


class SweepState:
    """Mutable state of one coverage sweep; single-owner while sweeping.

    Each live start owns the gap to the next live start (the last one's
    runs to n), and its windows of length ell cover min(gap, ell) new
    positions.  So the coverage at ell is ``sum_o + num_no * ell``: sum_o
    sums the gaps below ell and num_no counts the others.  For g >= ell,
    ``count[g]`` is the number of gaps equal to g, so stepping to ell moves
    count[ell-1] gaps into sum_o in O(1); entries below ell go stale and
    are never read again.  ``pairs_processed`` counts the gaps ever formed, for the 2n-1
    bound.
    """

    def __init__(self, vals: list[int], n: int, max_len: int):
        # Node x stands for position x-1; node 0 is the left sentinel (never
        # an occurrence, its gap never counted) and node n+1 stands for
        # position n.  At length 1 every start i owns the gap 1 to i+1.
        self.nxt = list(range(1, n + 3))
        self.prv = list(range(-1, n + 2))
        self.count = [0, n] + [0] * n
        self.sum_o = 0
        self.num_no = n
        self.pairs_processed = n
        # Nodes by the last length at which they are an occurrence; nodes
        # live at max_len are never removed.
        self.removal_bucket: list[list[int]] = [[] for _ in range(max_len)]
        for node, v in enumerate(vals, 1):
            if v < max_len:
                self.removal_bucket[v].append(node)

    def step(self, ell: int) -> int:
        """Advance to subject length ell and return its coverage."""
        return self.steps(ell, ell)[0]

    def steps(self, first: int, last: int) -> list[int]:
        """Advance through subject lengths first..last, one after another
        from the current one, and return their coverages."""
        nxt, prv, count, removal_bucket = self.nxt, self.prv, self.count, self.removal_bucket
        sum_o, num_no, pairs = self.sum_o, self.num_no, self.pairs_processed
        out = []
        for ell in range(first, last + 1):
            moved = count[ell - 1]  # gaps of ell-1 are below ell from here on
            num_no -= moved
            sum_o += moved * (ell - 1)
            for node in removal_bucket[ell - 1]:
                left, right = prv[node], nxt[node]
                nxt[left] = right
                prv[right] = left
                gap = right - node  # the removed start's own gap
                if gap < ell:
                    sum_o -= gap
                else:
                    num_no -= 1
                    count[gap] -= 1
                if left == 0:
                    continue  # the left sentinel's gap is never counted
                gap = node - left  # the left start's gap before the merge
                if gap < ell:
                    sum_o -= gap
                else:
                    num_no -= 1
                    count[gap] -= 1
                gap = right - left
                pairs += 1
                if gap < ell:
                    sum_o += gap
                else:
                    num_no += 1
                    count[gap] += 1
            out.append(sum_o + num_no * ell)
        self.sum_o, self.num_no, self.pairs_processed = sum_o, num_no, pairs
        return out


def coverage_sweep(vals: list[int], n: int, max_len: int) -> list[int]:
    """Coverage for subject lengths 1..max_len given per-position live lengths.

    ``vals[i]`` is the largest subject length for which position i still is
    an approximate occurrence start (a PREF_k value or an lcp_k table row).
    O(n) overall: at most 2n-1 gaps exist over the whole sweep.
    """
    return SweepState(vals, n, max_len).steps(1, max_len)


def prefix_coverage(t: Text, k: int) -> list[int]:
    """Hamming k-coverage of every prefix; entry ell-1 is for length ell.

    Linear in |t| once the PREF_k table is built.
    """
    return coverage_sweep(pref_k(t, k).values, len(t), len(t))


def factor_coverage_all(t: Text, k: int) -> list[list[int]]:
    """Hamming k-coverage of every factor: rows[a][b-a] covers T[a, b].

    One prefix-style sweep per start against the matching lcp_k table row,
    O(n^2) total.
    """
    table = lcp_k_all_pairs(t, k)
    n = len(t)
    return [coverage_sweep(table.row(a), n, n - a) for a in range(n)]


def _factor_row(t: Text, k: int, a: int, b: int) -> list[int]:
    """lcp_k(a, j) for every j, once T[a, b] is checked to be a factor."""
    if not 0 <= a <= b < len(t):
        raise IndexError(f"factor ({a},{b}) out of range for n={len(t)}")
    return _lcp_k_row(t, a, k)


def factor_occurrences(t: Text, k: int, a: int, b: int) -> IntervalSet:
    """Approximate occurrence intervals of T[a, b], in start order."""
    return _occurrences(_factor_row(t, k, a, b), b - a + 1)


def _occurrences(row: list[int], length: int) -> IntervalSet:
    """Windows of ``length`` at the starts whose lcp_k ``row`` value reaches it."""
    occ = IntervalSet()
    for i, v in enumerate(row):
        if v >= length:
            occ.add(i, i + length - 1)
    return occ


def factor_report(t: Text, k: int, a: int, b: int) -> CoverageReport:
    """Coverage report for one factor."""
    row = _factor_row(t, k, a, b)
    return CoverageReport((a, b), coverage_sweep(row, len(t), b - a + 1)[b - a])


def _fills(alive: int, length: int, full: int) -> bool:
    """True if windows of ``length`` at the set bits of ``alive`` cover ``full``."""
    span = 1
    while span + span <= length:
        alive |= alive << span
        span += span
    return (alive | alive << (length - span)) & full == full


def _restricted_levels(target: Text, candidates: dict[int, dict[int, str]],
                       k: int) -> dict[str, int | None]:
    """Minimal level ell <= k at which each candidate covers ``target``.

    ``candidates[a][b]`` names the factor target[a, b].  A start stops once
    level k's occurrences, smeared by its longest candidate, miss a
    position: occurrence sets only shrink as the length grows.
    """
    if k < 0:
        raise ValueError("mismatch budget must be nonnegative")
    result: dict[str, int | None] = {
        key: None for group in candidates.values() for key in group.values()}
    sym = target.symbols
    m = len(sym)
    full = (1 << m) - 1
    # miss[c]: positions holding neither c nor a wildcard; miss[WILDCARD] is 0.
    miss = [int("0" + "".join("0" if x in (c, WILDCARD) else "1" for x in reversed(sym)), 2)
            for c in range(target.alphabet_size)] + [0]
    for start, group in candidates.items():
        longest = max(group) - start + 1
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
            key = group.get(start + length - 1)
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
    return _restricted_levels(*restricted_candidates(t), k)


def k_restricted_seeds(t: Text, k: int) -> dict[str, int | None]:
    """Minimal ell <= k making each factor with 2|C| <= |T| an ell-approximate
    seed: the cover search on the wildcard-padded text."""
    return _restricted_levels(*restricted_candidates(t, seeds=True), k)


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


def enhanced_cover_exact_border(t: Text, k: int) -> EnhancedCover | None:
    """Best proper border by Hamming k-coverage; None when t has no border.

    Ties prefer the shorter border.  Border detection is exact (symbol
    identity); only the occurrences are approximate.
    """
    if k < 0:
        raise ValueError("mismatch budget must be nonnegative")
    lengths = border_lengths(t)
    if not lengths:
        return None
    cov = prefix_coverage(t, k)
    best: EnhancedCover | None = None
    for length in sorted(lengths):
        c = cov[length - 1]
        if best is None or c > best.coverage:
            best = EnhancedCover(t.prefix(length).to_str(), 0, length - 1, c)
    return best


def enhanced_cover_approx_border(t: Text, k: int) -> EnhancedCover | None:
    """Best factor that is a k-approximate border, by Hamming k-coverage.

    A factor C qualifies when both Ham(C, prefix of |C|) <= k and
    Ham(C, suffix of |C|) <= k; both conditions are lcp_k lookups.  Ties
    prefer shorter candidates, then smaller start positions.  None when t
    is empty.
    """
    table = lcp_k_all_pairs(t, k)  # checks the budget, also on empty text
    n = len(t)
    rows = [coverage_sweep(table.row(a), n, n - a) for a in range(n)]
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
