"""Scaling checks for the main engines.

Each task times one algorithm at a size n and at 2n and reports the ratio,
which a doubling of the input should keep near 2^(growth order).  Timings
take the best of several runs to damp scheduler noise; they remain soft
evidence, not proofs.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass
from math import log2

from . import editcover, hamcover
from .lcpk import pref_k
from .restricted import restricted_covers_ed
from .textcore import PenaltyMatrix, Text


@dataclass
class BenchResult:
    task: str
    n_small: int
    n_big: int
    seconds_small: float
    seconds_big: float
    ratio: float
    bound: float  # expected ratio ceiling

    @property
    def exponent(self) -> float:
        return log2(self.ratio) if self.ratio > 0 else 0.0

    @property
    def within_bound(self) -> bool:
        return self.ratio <= self.bound


def random_text(n: int, sigma: int = 2, seed: int = 0) -> Text:
    rng = random.Random(seed)
    alphabet = "abcd"[:sigma]
    return Text.from_str("".join(rng.choice(alphabet) for _ in range(n)), alphabet)


def planted_text(n: int, seed: int = 0) -> Text:
    """A random word of length 40 over "abcd" repeated to length n; then
    round(0.03 n) random positions get another symbol and round(0.01 n)
    others become wildcards."""
    rng = random.Random(seed)
    word = [rng.choice("abcd") for _ in range(40)]
    out = [word[i % 40] for i in range(n)]
    n_mut, n_wild = round(0.03 * n), round(0.01 * n)
    spots = rng.sample(range(n), n_mut + n_wild)
    for i in spots[:n_mut]:
        out[i] = rng.choice([c for c in "abcd" if c != out[i]])
    for i in spots[n_mut:]:
        out[i] = "?"
    return Text.from_str("".join(out), "abcd")


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _doubling(task: str, n: int, bound: float, repeats: int, seed: int,
              make, text=lambda size, seed: random_text(size, 2, seed)) -> BenchResult:
    """Best-of-``repeats`` seconds of ``make(t)()`` for texts t = text(size, seed)
    (random binary by default) of length n and 2n; the work inside ``make``
    itself is not timed."""
    small, big = (_best_of(make(text(size, seed)), repeats)
                  for size in (n, 2 * n))
    return BenchResult(task, n, 2 * n, small, big, big / small, bound)


def bench_prefix_sweep(n: int = 2 ** 15, repeats: int = 3) -> BenchResult:
    """Linear-time prefix coverage, excluding PREF_k construction."""
    def make(t: Text):
        vals = pref_k(t, 1)
        return lambda: hamcover.coverage_sweep(vals, len(t), len(t))
    return _doubling("prefix-coverage-sweep", n, 3.0, repeats, 7, make)


def bench_prefix_hamming(n: int = 2 ** 15, repeats: int = 3) -> BenchResult:
    """Hamming prefix coverage by the per-start routine, mask setup included."""
    return _doubling("prefix-coverage-hamming", n, 3.0, repeats, 7,
                     lambda t: lambda: hamcover.prefix_coverage(t, 2))


def bench_pref_k(n: int = 2 ** 15, repeats: int = 3) -> BenchResult:
    """PREF_k by kangaroo jumps over direct-comparison LCE, build included."""
    return _doubling("pref-k", n, 3.0, repeats, 7, lambda t: lambda: pref_k(t, 2))


def bench_pref_k_wildcards(n: int = 2 ** 15, repeats: int = 3) -> BenchResult:
    """PREF_k on planted period-40 text with 3% mutations and 1% wildcards:
    the inline wildcard test of the jump loop and the LCE across wildcards."""
    return _doubling("pref-k-wildcards", n, 3.0, repeats, 7,
                     lambda t: lambda: pref_k(t, 2), planted_text)


def bench_factor_hamming(n: int = 160, repeats: int = 3) -> BenchResult:
    """Quadratic all-factor Hamming coverage, lcp table included."""
    return _doubling("factor-coverage-hamming", n, 5.0, repeats, 8,
                     lambda t: lambda: hamcover.factor_coverage_all(t, 1))


def bench_factor_lev(n: int = 96, repeats: int = 3) -> BenchResult:
    """All-factor Levenshtein coverage from the bit masks over all starts:
    O(k^2 n) operations on O(n^2)-bit ints plus O(n^2) per-start reads."""
    return _doubling("factor-coverage-levenshtein", n, 9.0, repeats, 9,
                     lambda t: lambda: editcover.factor_coverage(t, "levenshtein", 1))


def bench_prefix_lev(n: int = 512, repeats: int = 3) -> BenchResult:
    """One-start Levenshtein coverage on LCE waves: O(n k^2 + n^2) at worst."""
    return _doubling("prefix-coverage-levenshtein", n, 5.0, repeats, 9,
                     lambda t: lambda: editcover.prefix_coverage(t, "levenshtein", 2))


def bench_restricted_covers_hamming(n: int = 200, repeats: int = 3) -> BenchResult:
    """Restricted Hamming covers of random binary text, every row read:
    Θ(n^2) distinct factors, Θ(n^3) characters of output, so a doubling
    costs about 2^3; bound 10."""
    return _doubling("restricted-covers-hamming", n, 10.0, repeats, 11,
                     lambda t: lambda: deque(hamcover.k_restricted_covers(t, 2).items(), 0))


#: Weighted metric over "abc" for the weighted-edit timings: every cost
#: is 1 or 2, so the triangle inequality holds for every triple.
QTABLE_PENALTY = PenaltyMatrix("abc", [[0, 1, 2], [1, 0, 2], [2, 2, 0]],
                               [1, 2, 2], [1, 2, 2])


def bench_factor_edit(n: int = 96, repeats: int = 3) -> BenchResult:
    """All-factor weighted-edit coverage of random ternary text under
    ``QTABLE_PENALTY`` on integer cost levels over all starts: O(K^2 n)
    operations per cost class on O(n^2)-bit ints plus O(n^2) reads."""
    return _doubling("factor-coverage-edit", n, 9.0, repeats, 12,
                     lambda t: lambda: editcover.factor_coverage(t, "edit", 2, QTABLE_PENALTY),
                     lambda size, seed: random_text(size, 3, seed))


def bench_restricted_covers_ed(n: int = 32, repeats: int = 3) -> BenchResult:
    """Restricted weighted-edit covers of random ternary text: at most
    O(n^2 log n) big-int operations to build the packed DP rows (each
    insertion chain stops at its first idle doubling step) and O(n^3) to
    combine them, each on a row of O(n) fields: O(n^4) word operations in
    the limit."""
    return _doubling("restricted-covers-edit", n, 16.0, repeats, 10,
                     lambda t: lambda: restricted_covers_ed(t, QTABLE_PENALTY),
                     lambda size, seed: random_text(size, 3, seed))


#: Every row of ``quasicover bench``, in order, with its n under ``--quick``.
_ROWS = ((bench_prefix_sweep, 2 ** 12), (bench_prefix_hamming, 2 ** 12),
         (bench_pref_k, 2 ** 12), (bench_pref_k_wildcards, 2 ** 12),
         (bench_factor_hamming, 64), (bench_factor_lev, 16), (bench_factor_edit, 16),
         (bench_prefix_lev, 64), (bench_restricted_covers_hamming, 64),
         (bench_restricted_covers_ed, 16))


def run_all(quick: bool = False) -> list[BenchResult]:
    """Every row at its default size, or under ``quick`` at its quick n, best of 2."""
    return [row(n=n, repeats=2) if quick else row() for row, n in _ROWS]
