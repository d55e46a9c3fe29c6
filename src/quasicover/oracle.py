"""Brute-force reference implementations of every defined quantity.

Each function here is a direct transcription of a definition with no
algorithmic shortcuts; the fast modules are tested against these, from
the Hamming and edit distances and the full D-table up.  The
exponential searches carry explicit candidate budgets and fail loudly
instead of hanging.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

from .textcore import (PenaltyMatrix, Text, _check_symbols_covered, pad_for_seed,
                       symbols_match)

DEFAULT_CANDIDATE_BUDGET = 2 ** 22

METRICS = ("hamming", "levenshtein", "edit")


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its configured budget."""


def _unit_matrix(t: Text) -> PenaltyMatrix:
    return PenaltyMatrix.unit(t.alphabet)


def _require_metric_args(metric: str, p: PenaltyMatrix | None) -> None:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if metric == "edit" and p is None:
        raise ValueError("edit metric requires a penalty matrix")


def hamming_distance(u: Text, v: Text) -> int:
    """Number of mismatching positions; wildcards never mismatch."""
    if len(u) != len(v):
        raise ValueError(
            f"Hamming distance undefined for lengths {len(u)} and {len(v)}")
    return sum(1 for x, y in zip(u.symbols, v.symbols) if not symbols_match(x, y))


def edit_distance(u: Text, v: Text, p: PenaltyMatrix) -> int:
    """Minimum total cost transforming u into v under the penalty matrix.

    Classic dynamic program over prefix pairs.  With unit costs this is the
    Levenshtein distance.
    """
    _check_symbols_covered(u, p)
    _check_symbols_covered(v, p)
    m, n = len(u), len(v)
    prev = [0] * (n + 1)
    for j in range(1, n + 1):
        prev[j] = prev[j - 1] + p.ins_cost(v[j - 1])
    for i in range(1, m + 1):
        cur = [prev[0] + p.del_cost(u[i - 1])] + [0] * n
        ui = u[i - 1]
        for j in range(1, n + 1):
            vj = v[j - 1]
            cur[j] = min(prev[j - 1] + p.sub_cost(ui, vj),
                         cur[j - 1] + p.ins_cost(vj),
                         prev[j] + p.del_cost(ui))
        prev = cur
    return prev[n]


class DTable:
    """Edit-distance table anchored at suffix pair (a, a').

    ``entry(b, bp)`` is the edit distance between T[a, b] and T[a', bp] for
    b in [a-1, n-1] and bp in [a'-1, n-1]; the -1 row and column hold the
    cumulative deletion and insertion costs.
    """

    __slots__ = ("a", "ap", "n", "rows")

    def __init__(self, a: int, ap: int, n: int, rows: list[list[int]]):
        self.a = a
        self.ap = ap
        self.n = n
        self.rows = rows

    def entry(self, b: int, bp: int) -> int:
        if not (self.a - 1 <= b < self.n and self.ap - 1 <= bp < self.n):
            raise IndexError(f"D_{{{self.a},{self.ap}}}[{b},{bp}] out of range")
        return self.rows[b - self.a + 1][bp - self.ap + 1]

    def row(self, b: int) -> list[int]:
        """Row b as costs for bp = a'-1 .. n-1."""
        if not self.a - 1 <= b < self.n:
            raise IndexError(f"row {b} out of range")
        return self.rows[b - self.a + 1]


def build_d_table(t: Text, a: int, ap: int, p: PenaltyMatrix) -> DTable:
    """Full D-table for the suffixes T[a, n-1] and T[a', n-1]."""
    n = len(t)
    if not (0 <= a <= n and 0 <= ap <= n):
        raise IndexError(f"suffix starts ({a},{ap}) out of [0,{n}]")
    _check_symbols_covered(t, p)
    width = n - ap + 1
    rows = [[0] * width]
    for j in range(1, width):
        rows[0][j] = rows[0][j - 1] + p.ins_cost(t[ap + j - 1])
    for i in range(1, n - a + 1):
        ti = t[a + i - 1]
        row = [rows[i - 1][0] + p.del_cost(ti)] + [0] * (width - 1)
        prev = rows[i - 1]
        for j in range(1, width):
            tj = t[ap + j - 1]
            row[j] = min(prev[j - 1] + p.sub_cost(ti, tj),
                         row[j - 1] + p.ins_cost(tj),
                         prev[j] + p.del_cost(ti))
        rows.append(row)
    return DTable(a, ap, n, rows)


def interval_union_size(s: Iterable[tuple[int, int]]) -> int:
    """Size of the union of the inclusive intervals; empty ones (j < i) add
    nothing.

    Linear when intervals already come in left-endpoint order, which every
    producer in this package guarantees; otherwise they are sorted first.
    """
    iv = [(i, j) for i, j in s if i <= j]
    if any(iv[t][0] > iv[t + 1][0] for t in range(len(iv) - 1)):
        iv = sorted(iv)
    total = 0
    reach = -1  # rightmost covered position so far
    for i, j in iv:
        if j > reach:
            total += j - max(reach, i - 1)
            reach = j
    return total


def distance(u: Text, v: Text, metric: str, p: PenaltyMatrix | None = None) -> int | None:
    """Distance under the chosen metric; None when undefined (Hamming, lengths differ)."""
    _require_metric_args(metric, p)
    if metric == "hamming":
        if len(u) != len(v):
            return None
        return hamming_distance(u, v)
    if metric == "levenshtein":
        p = _unit_matrix(u if len(u.alphabet) >= len(v.alphabet) else v)
    return edit_distance(u, v, p)


def _window_distances(s: Text, t: Text, metric: str,
                      p: PenaltyMatrix | None) -> dict[tuple[int, int], int]:
    """d(s, t[i, j]) for every nonempty window [i, j] that can be an occurrence."""
    _require_metric_args(metric, p)
    n = len(t)
    out: dict[tuple[int, int], int] = {}
    if metric == "hamming":
        m = len(s)
        if m == 0:
            return out
        sym_s, sym_t = s.symbols, t.symbols
        for i in range(n - m + 1):
            out[(i, i + m - 1)] = sum(
                1 for x, y in zip(sym_s, sym_t[i:i + m]) if not symbols_match(x, y))
        return out
    if metric == "levenshtein":
        p = PenaltyMatrix.unit(t.alphabet)
    # One DP per start: the last row holds d(s, t[i, j]) for every j >= i.
    for i in range(n):
        prev = [0] * (n - i + 1)
        for j in range(1, n - i + 1):
            prev[j] = prev[j - 1] + p.ins_cost(t[i + j - 1])
        for x in range(1, len(s) + 1):
            sx = s[x - 1]
            cur = [prev[0] + p.del_cost(sx)] + [0] * (n - i)
            for j in range(1, n - i + 1):
                tj = t[i + j - 1]
                cur[j] = min(prev[j - 1] + p.sub_cost(sx, tj),
                             cur[j - 1] + p.ins_cost(tj),
                             prev[j] + p.del_cost(sx))
            prev = cur
        for j in range(1, n - i + 1):
            out[(i, i + j - 1)] = prev[j]
    return out


def brute_occurrences(s: Text, t: Text, metric: str, k: int,
                      p: PenaltyMatrix | None = None) -> list[tuple[int, int]]:
    """All nonempty intervals [i, j] of t with d(s, t[i, j]) <= k, in start
    order, by direct evaluation."""
    if k < 0:
        return []
    return [w for w, d in sorted(_window_distances(s, t, metric, p).items()) if d <= k]


def brute_coverage(s: Text, t: Text, metric: str, k: int,
                   p: PenaltyMatrix | None = None) -> int:
    """Number of covered positions, via an independent position-marking loop."""
    covered = [False] * len(t)
    if k >= 0:
        for (i, j), d in _window_distances(s, t, metric, p).items():
            if d <= k:
                for q in range(i, j + 1):
                    covered[q] = True
    return sum(covered)


def brute_is_cover(s: Text, t: Text, metric: str, k: int,
                   p: PenaltyMatrix | None = None) -> bool:
    """Cover test straight from the definition, including |C| < |T|."""
    return len(s) < len(t) and brute_coverage(s, t, metric, k, p) == len(t)


def brute_is_seed(s: Text, t: Text, metric: str, k: int,
                  p: PenaltyMatrix | None = None) -> bool:
    """Seed test via the wildcard-padded text, including 2|C| <= |T|."""
    if 2 * len(s) > len(t):
        return False
    padded = pad_for_seed(t)
    return brute_coverage(s, padded, metric, k, p) == len(padded)


def _min_threshold(s: Text, t: Text, metric: str, p: PenaltyMatrix | None,
                   cap: int) -> int | None:
    """Smallest k in [0, cap] with full coverage, scanning k upward."""
    n = len(t)
    dists = _window_distances(s, t, metric, p)
    for k in range(cap + 1):
        covered = [False] * n
        for (i, j), d in dists.items():
            if d <= k:
                for q in range(i, j + 1):
                    covered[q] = True
        if all(covered):
            return k
    return None


def brute_restricted_min_k(t: Text, metric: str, p: PenaltyMatrix | None = None,
                           *, seeds: bool = False) -> dict[str, int | None]:
    """Minimal threshold for every candidate factor, keyed by its string.

    Covers draw candidates from proper factors (|C| < |T|); with
    ``seeds=True`` candidates satisfy 2|C| <= |T| and the padded text is
    covered instead.
    """
    _require_metric_args(metric, p)
    n = len(t)
    target = pad_for_seed(t) if seeds else t
    out: dict[str, int | None] = {}
    for a in range(n):
        for b in range(a, n):
            length = b - a + 1
            if seeds:
                if 2 * length > n:
                    continue
            elif length >= n:
                continue
            c = t.factor(a, b)
            key = c.to_str()
            if key in out:
                continue
            if metric == "hamming":
                cap = length
            else:
                pm = PenaltyMatrix.unit(t.alphabet) if metric == "levenshtein" else p
                cap = edit_distance(c, target, pm)
            out[key] = _min_threshold(c, target, metric, p, cap)
    return out


def _candidate_texts(alphabet: str, length: int, wildcard_char: str):
    for combo in product(range(len(alphabet)), repeat=length):
        yield Text(combo, alphabet, wildcard_char)


def _covers_all_hamming(cand: Text, t: Text, k: int) -> bool:
    """Same predicate as full coverage, abandoning a candidate at the first gap."""
    c, n = len(cand), len(t)
    reach = -1  # rightmost covered position so far
    for i in range(n - c + 1):
        if i > reach + 1:
            return False  # position reach+1 can no longer be covered
        mismatches = 0
        for x, y in zip(cand.symbols, t.symbols[i:i + c]):
            if not symbols_match(x, y):
                mismatches += 1
                if mismatches > k:
                    break
        if mismatches <= k:
            reach = i + c - 1
    return reach == n - 1


def brute_general_cover_exists(t: Text, c: int, metric: str, k: int,
                               p: PenaltyMatrix | None = None,
                               budget: int = DEFAULT_CANDIDATE_BUDGET) -> Text | None:
    """Search all of Sigma^c for a k-approximate cover; None if there is none.

    Returns the lexicographically smallest witness.  Raises
    :class:`BudgetExceededError` before enumerating more than ``budget``
    candidates.
    """
    _require_metric_args(metric, p)
    if not 1 <= c < len(t):
        raise ValueError(f"cover length {c} outside [1, {len(t) - 1}]")
    sigma = t.alphabet_size
    if sigma ** c > budget:
        raise BudgetExceededError(
            f"{sigma}^{c} candidates exceed budget {budget}")
    for cand in _candidate_texts(t.alphabet, c, t.wildcard_char):
        if metric == "hamming":
            if _covers_all_hamming(cand, t, k):
                return cand
        elif brute_coverage(cand, t, metric, k, p) == len(t):
            return cand
    return None


def brute_general_seed_exists(t: Text, c: int, metric: str, k: int,
                              p: PenaltyMatrix | None = None,
                              budget: int = DEFAULT_CANDIDATE_BUDGET) -> Text | None:
    """Search all of Sigma^c for a k-approximate seed, via the padded text."""
    _require_metric_args(metric, p)
    if not 1 <= c <= len(t) // 2:
        raise ValueError(f"seed length {c} outside [1, {len(t) // 2}]")
    sigma = t.alphabet_size
    if sigma ** c > budget:
        raise BudgetExceededError(
            f"{sigma}^{c} candidates exceed budget {budget}")
    padded = pad_for_seed(t)
    for cand in _candidate_texts(t.alphabet, c, t.wildcard_char):
        if brute_coverage(cand, padded, metric, k, p) == len(padded):
            return cand
    return None


def brute_consensus(strings: Sequence[str], k: int,
                    budget: int = DEFAULT_CANDIDATE_BUDGET) -> str | None:
    """Exhaustive Hamming consensus over {0,1}^l, smallest witness first."""
    if not strings:
        raise ValueError("consensus needs at least one string")
    length = len(strings[0])
    if any(len(s) != length for s in strings):
        raise ValueError("consensus strings must have equal length")
    if len(strings) * 2 ** length > budget:
        raise BudgetExceededError(
            f"{len(strings)} * 2^{length} checks exceed budget {budget}")
    for bits in product("01", repeat=length):
        cand = "".join(bits)
        if all(sum(x != y for x, y in zip(cand, s)) <= k for s in strings):
            return cand
    return None
