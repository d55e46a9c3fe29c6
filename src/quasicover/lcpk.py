"""k-mismatch longest-common-prefix machinery.

Three routes to lcp_k values, all wildcard-aware (a wildcard never counts
as a mismatch):

* :func:`lcp_k_all_pairs` fills the full n x n table in O(n^2) per budget
  by sliding a window of mismatch positions along each diagonal;
* :func:`kangaroo_lcp_k` answers a single query with at most k+1
  longest-common-extension jumps;
* :func:`pref_k` answers lcp_k(0, j) for every j with n such queries:
  O(nk) jumps, and Theta(n^2) compares on unary text.

The last two share one jump loop.  A jump compares up to 8 symbols
inline, so a short jump costs no function call; in counts on random binary
and on noisy periodic text with 1% wildcards (n = 20000-32768, k = 2),
98.2-99.99% of jumps ended within those 8.  A run still matching after
them is finished by :meth:`ExactLce.extension`, a direct comparison that
gallops over slices: O(L) C-level symbol compares for an answer L, but one
interpreter step per wildcard it crosses.

The coverage engines of ``hamcover`` do not read whole rows or tables.
They run a bit-parallel mask pass per start and ask the jump loop only
for the few starts that survive it.  So :func:`lcp_k_all_pairs` and
:func:`pref_k` are references for the tests and for the enhanced cover
with an approximate border, which reads PREF_k of the text and of its
reverse.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .textcore import Text, symbols_match


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


def string_image(t: Text) -> str:
    """The text as a string: symbol x is chr(x + 1) and the wildcard chr(0)."""
    return "".join([chr(x + 1) for x in t.symbols])


#: Segments between wildcards up to this length are compared in one slice;
#: a longer one is galloped over, so an early mismatch does not copy it all.
_WHOLE_SEGMENT = 256


class ExactLce:
    """Exact longest-common-extension queries on one text by direct comparison.

    The text is kept as a string, one code point per symbol.  A query with
    answer L compares a few symbols one at a time, then slices of doubling
    width until one differs, then halves that slice: O(L) compares in C and
    O(log L) interpreter steps, with no index to build.
    """

    def __init__(self, t: Text):
        self.text = t
        self.n = n = len(t)
        self._s = s = string_image(t)
        if "\0" in s:
            # _next_wild[p]: the first wildcard at or after p, else n
            self._next_wild = nxt = []
            p = s.find("\0")
            while p >= 0:
                nxt += [p] * (p + 1 - len(nxt))
                p = s.find("\0", p + 1)
            nxt += [n] * (n + 1 - len(nxt))
        else:
            self.extension = self.exact  # no wildcard to restart after

    def _lce(self, i: int, j: int, limit: int) -> int:
        """Common prefix length of the strings at i and j, capped at limit."""
        s = self._s
        stop = 8 if limit > 8 else limit
        length = 0
        while length < stop:
            if s[i + length] != s[j + length]:
                return length
            length += 1
        width = 16
        while True:
            hi = min(length + width, limit)
            if s[i + length:i + hi] != s[j + length:j + hi]:
                break
            length = hi
            if length == limit:
                return length
            width *= 2
        # the first difference lies in [length, hi)
        while hi - length > 8:
            mid = (length + hi) // 2
            if s[i + length:i + mid] == s[j + length:j + mid]:
                length = mid
            else:
                hi = mid
        while s[i + length] == s[j + length]:
            length += 1
        return length

    def exact(self, i: int, j: int) -> int:
        """Exact extension length, treating the wildcard as a normal symbol."""
        n = self.n
        if i == j:
            return n - i
        if i >= n or j >= n:
            return 0
        return self._lce(i, j, n - max(i, j))

    def extension(self, i: int, j: int) -> int:
        """Match-semantics extension: wildcards on either side keep matching.

        The text up to the next wildcard on either side is one segment.  A
        short segment is compared in one slice, and only a long or differing
        one needs the galloping query, so a match across many wildcards costs
        one slice per wildcard.
        """
        n = self.n
        if i == j:
            return n - i
        nxt = self._next_wild
        s = self._s
        total = 0
        limit = n - max(i, j)
        while total < limit:
            p, q = i + total, j + total
            seg = min(nxt[p] - p, nxt[q] - q)
            if seg <= _WHOLE_SEGMENT and s[p:p + seg] == s[q:q + seg]:
                total += seg
            else:
                got = self._lce(p, q, seg)
                total += got
                if got < seg:
                    return total
            if total < limit:
                total += 1  # a wildcard on one side matches anything
        return total


def _lcp_k(s: str, extension, i: int, j: int, limit: int, k: int) -> int:
    """lcp_k(i, j) on the string image ``s`` of an :class:`ExactLce`, capped at
    ``limit`` = n - max(i, j); ``extension`` is that object's bound method.

    The one kangaroo jump loop: up to 8 symbols are compared inline (the
    wildcard chr(0) matches anything), and a run that is still matching
    after them is finished by one ``extension`` call.  Each mismatch spends
    one unit of budget, for at most k+1 jumps.
    """
    p, q, end = i, j, i + limit
    while True:
        stop = p + 8 if p + 8 < end else end
        while p < stop:
            a = s[p]
            b = s[q]
            if a != b and a != "\0" != b:
                break
            p += 1
            q += 1
        else:
            if p < end:
                got = extension(p, q)
                p += got
                q += got
        if p == end or not k:
            return p - i
        k -= 1  # spend one mismatch
        p += 1
        q += 1


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


def pref_k(t: Text, k: int) -> list[int]:
    """PREF_k, [lcp_k(0, j) for j < n] (PREF_k[0] is n), by one kangaroo
    query per position, all on one :class:`ExactLce` built here: O(nk) jumps."""
    n = len(t)
    if k < 0:
        raise ValueError("mismatch budget must be nonnegative")
    lce = ExactLce(t)
    s, extension = lce._s, lce.extension
    return [_lcp_k(s, extension, 0, j, n - j, k) for j in range(n)]
