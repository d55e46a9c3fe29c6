"""k-mismatch longest-common-prefix machinery.

Three routes to lcp_k values, all wildcard-aware (a wildcard never counts
as a mismatch):

* :func:`lcp_k_all_pairs` fills the full n x n table in O(n^2) per budget
  by sliding a window of mismatch positions along each diagonal;
* :func:`kangaroo_lcp_k` answers a single query with at most k+1 exact
  longest-common-extension jumps;
* :func:`pref_k` builds the PREF_k vector (lcp_k against position 0) in
  O(nk) on top of the same jump structure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .textcore import WILDCARD, Text, symbols_match


@dataclass
class LcpKTable:
    """All-pairs lcp_k values for one text and one mismatch budget."""

    n: int
    k: int
    rows: list[list[int]]

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def row(self, i: int) -> list[int]:
        return self.rows[i]


@dataclass
class PrefKTable:
    """PREF_k[i] = lcp_k(0, i); PREF_k[0] is the text length."""

    k: int
    values: list[int]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]


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


def _suffix_array(sym: tuple[int, ...]) -> list[int]:
    """Suffix array by prefix doubling; wildcards sort as ordinary symbols."""
    n = len(sym)
    rank = [s + 1 for s in sym]  # shift so the wildcard id is nonnegative
    sa = sorted(range(n), key=lambda i: rank[i])
    tmp = [0] * n
    width = 1
    while True:
        def key(i: int) -> tuple[int, int]:
            nxt = rank[i + width] if i + width < n else -1
            return (rank[i], nxt)

        sa.sort(key=key)
        tmp[sa[0]] = 0
        for r in range(1, n):
            tmp[sa[r]] = tmp[sa[r - 1]] + (key(sa[r]) != key(sa[r - 1]))
        rank = tmp[:]
        if rank[sa[-1]] == n - 1:
            break
        width *= 2
    return sa


def _kasai_lcp(sym: tuple[int, ...], sa: list[int], rank: list[int]) -> list[int]:
    """lcp[r] = exact common prefix length of sa[r] and sa[r+1]."""
    n = len(sym)
    lcp = [0] * max(0, n - 1)
    h = 0
    for i in range(n):
        if rank[i] + 1 < n:
            j = sa[rank[i] + 1]
            while i + h < n and j + h < n and sym[i + h] == sym[j + h]:
                h += 1
            lcp[rank[i]] = h
            if h:
                h -= 1
        else:
            h = 0
    return lcp


class ExactLce:
    """Constant-time exact longest-common-extension queries on one text.

    Built from a suffix array, its LCP array and a sparse table.  The
    wildcard-aware query restarts the jump after each wildcard position, so
    heavy wildcard use degrades a query towards O(#wildcards); texts without
    wildcards keep the O(1) bound.
    """

    def __init__(self, t: Text):
        self.text = t
        self.n = n = len(t)
        sym = t.symbols
        self._has_wildcards = WILDCARD in sym
        if n == 0:
            self._rank: list[int] = []
            self._sparse: list[list[int]] = []
            return
        sa = _suffix_array(sym)
        rank = [0] * n
        for r, i in enumerate(sa):
            rank[i] = r
        self._rank = rank
        lcp = _kasai_lcp(sym, sa, rank)
        # Sparse table over the LCP array for range minima.
        levels: list[list[int]] = [lcp]
        width = 1
        while 2 * width <= len(lcp):
            prev = levels[-1]
            levels.append([min(prev[i], prev[i + width])
                           for i in range(len(lcp) - 2 * width + 1)])
            width *= 2
        self._sparse = levels

    def exact(self, i: int, j: int) -> int:
        """Exact extension length, treating the wildcard as a normal symbol."""
        n = self.n
        if i == j:
            return n - i
        if i >= n or j >= n:
            return 0
        lo = min(self._rank[i], self._rank[j])
        hi = max(self._rank[i], self._rank[j])
        p = (hi - lo).bit_length() - 1
        level = self._sparse[p]
        return min(level[lo], level[hi - (1 << p)])

    def extension(self, i: int, j: int) -> int:
        """Match-semantics extension: wildcards on either side keep matching."""
        n = self.n
        if i == j:
            return n - i
        total = 0
        while i + total < n and j + total < n:
            total += self.exact(i + total, j + total)
            if i + total >= n or j + total >= n:
                break
            if WILDCARD in (self.text[i + total], self.text[j + total]):
                total += 1
                continue
            break
        return total


def kangaroo_lcp_k(t: Text, i: int, j: int, k: int,
                   lce: ExactLce | None = None) -> int:
    """lcp_k(i, j) with at most k+1 extension jumps.

    Pass a prebuilt :class:`ExactLce` to amortize preprocessing over many
    queries; without one it is built on the fly.
    """
    n = len(t)
    if not (0 <= i <= n and 0 <= j <= n):
        raise IndexError(f"positions ({i},{j}) out of [0,{n}]")
    if k < 0:
        raise ValueError("mismatch budget must be nonnegative")
    if lce is None:
        lce = ExactLce(t)
    limit = n - max(i, j)
    if i == j:
        return limit
    total = lce.extension(i, j)
    budget = k
    while total < limit and budget > 0:
        budget -= 1
        total += 1  # spend one mismatch
        total += lce.extension(i + total, j + total)
    return min(total, limit)


def pref_k(t: Text, k: int, lce: ExactLce | None = None) -> PrefKTable:
    """PREF_k table via kangaroo queries against position 0: O(nk) total."""
    n = len(t)
    if k < 0:
        raise ValueError("mismatch budget must be nonnegative")
    if lce is None:
        lce = ExactLce(t)
    values = [kangaroo_lcp_k(t, 0, i, k, lce) for i in range(n)]
    return PrefKTable(k, values)
