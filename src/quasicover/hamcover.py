"""Hamming-distance quasiperiodicity: coverage per start, restricted covers
and seeds, and both enhanced-cover variants.

Everything runs on int masks, bit j for position j: shift-add k-mismatch
matching after Baeza-Yates and Gonnet, with saturating bit-sliced mismatch
counters.  At pattern length L, ``miss[c] >> (L - 1)`` marks the starts whose
L-th symbol mismatches c, and the starts still within budget, smeared by L,
are the positions the occurrences cover.  Each length costs O(k + log L)
big-int ops of ceil(n/64) words.

Coverage of the factors starting at a (:class:`_StartCoverage`) runs that
mask pass while many starts live and the lengths are short.  On random text
few starts survive a few symbols.  The survivors then go to
:class:`SweepState`, which goes on over their gaps alone, each start leaving
at its lcp_k: from the kangaroo jump loop, or from the mask pass read on
without smearing when many starts survive (periodic text).  Engine time
against one lcp_k per position and sweeps over all n starts (CPU time,
median of 6 alternating runs, 2 vCPUs, CPython 3.11.7): prefix coverage at
n = 32768, k = 2 took 0.08x on random binary text, 0.20-0.21x on period-40
text with or without noise, 0.11x on unary and 0.71x on period-2 text.
All-factor coverage at n = 300, k = 1 took 0.21x on random quaternary text,
but 1.57x on unary and 1.70x on period-3 text, where the full lcp_k table
and n full sweeps are cheaper than 16 mask lengths and a sweep per start.

:func:`~quasicover.lcpk.pref_k` and :func:`~quasicover.lcpk.lcp_k_all_pairs`
(the lcp_k values of every position) and :func:`coverage_sweep` (coverage
from them) stay as the references the tests hold this routine against.

Restricted covers and seeds take one mask pass per candidate start over
lengths 1, 2, ...  Per start that is O(L_stop * k) big-int ops of
ceil(m/64) words, plus O((1 + log k) * log m) per candidate (L_stop: stop
length; m: target length).  Candidates come from
:func:`~quasicover.textcore.restricted_candidates`, which hashes no factor;
each start fills a list of levels by length, and the result maps them by
length, then string, slicing each key only as it is read (``Keyed``).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import compress, pairwise
from math import inf
from operator import sub

from .lcpk import ExactLce, _lcp_k, pref_k, string_image
from .textcore import (WILDCARD, Candidates, IntervalSet, Keyed, Text, _smear,
                       restricted_candidates)


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
    bound.  ``sizes[g]`` is 1 once a gap of g >= ell forms (it may outlive
    the gap).  Until the next removal or the next such g, the coverage
    grows by num_no per length, so those lengths are written as one range.

    The starts are every position (``vals[x]`` for position x) or, given
    ``starts``, those positions in increasing order (``vals[x]`` for
    ``starts[x]``).  The state begins at length ``ell``; a start whose value
    is below ``ell`` there must not be given.
    """

    def __init__(self, vals: list[int], n: int, starts: list[int] | None = None,
                 ell: int = 0):
        # Node x+1 stands for position x; node 0 is the left sentinel (never
        # an occurrence, its gap never counted) and node n+1 stands for
        # position n.
        nodes = list(range(1, n + 1)) if starts is None else [x + 1 for x in starts]
        self.nxt, self.prv = nxt, prv = [0] * (n + 2), [0] * (n + 2)
        for left, right in pairwise([0, *nodes, n + 1]):
            nxt[left] = right
            prv[right] = left
        self.count = count = [0] * (n + 2)
        self.sum_o = self.num_no = 0
        self.sizes = sizes = bytearray(n + 2)
        for gap, times in Counter(map(sub, [*nodes[1:], n + 1], nodes)).items():
            if gap < ell:
                self.sum_o += gap * times
            else:
                self.num_no += times
                count[gap] = times
                sizes[gap] = 1
        self.pairs_processed = len(nodes)
        # Nodes by the last length at which they are an occurrence, and
        # those lengths with a sentinel; gone[removed] is the next one due.
        order = sorted(range(len(nodes)), key=vals.__getitem__)
        self.gone = list(map(nodes.__getitem__, order))
        self.due = [*map(vals.__getitem__, order), inf]
        self.removed = 0

    def steps(self, first: int, last: int) -> list[int]:
        """Advance through subject lengths first..last, one after another
        from the current one, and return their coverages."""
        nxt, prv, count, gone, due, sizes = (
            self.nxt, self.prv, self.count, self.gone, self.due, self.sizes)
        sum_o, num_no, pairs, i = self.sum_o, self.num_no, self.pairs_processed, self.removed
        when = due[i]
        out = []
        ell = first
        while ell <= last:
            moved = count[ell - 1]  # gaps of ell-1 are below ell from here on
            num_no -= moved
            sum_o += moved * (ell - 1)
            while when < ell:
                node = gone[i]
                i += 1
                when = due[i]
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
                    sizes[gap] = 1
            out.append(sum_o + num_no * ell)
            ell += 1
            if when < ell:
                continue  # a removal is due at once
            # Up to the next removal or gap size, the coverage grows by
            # num_no per length.
            upto = when if when < last else last
            gap = sizes.find(1, ell - 1, upto)
            if gap >= 0:
                upto = gap
            if upto >= ell:
                out += range(sum_o + num_no * ell, sum_o + num_no * upto + 1, num_no) \
                    if num_no else [sum_o] * (upto - ell + 1)
                ell = upto + 1
        self.sum_o, self.num_no, self.pairs_processed, self.removed = sum_o, num_no, pairs, i
        return out


def coverage_sweep(vals: list[int], n: int, max_len: int) -> list[int]:
    """Coverage for subject lengths 1..max_len given per-position live lengths.

    ``vals[i]`` is the largest subject length for which position i still is
    an approximate occurrence start (a PREF_k value or an lcp_k table row).
    O(n) overall: at most 2n-1 gaps exist over the whole sweep.  The
    reference for :class:`_StartCoverage`.
    """
    return SweepState(vals, n).steps(1, max_len)


class _MissMasks(dict):
    """``miss[c]``: bit j set when position j holds neither symbol c nor the
    wildcard; ``miss[WILDCARD]`` is 0.  Each mask is built on first use, in C:
    one ``str.translate`` of the reversed string image and one base-2 parse."""

    def __init__(self, image: str, sigma: int):
        super().__init__({WILDCARD: 0})
        self._image = image[::-1] or "\0"  # bit 0 is the last digit
        self._digits = dict.fromkeys(range(1, sigma + 1), "1")
        self._digits[0] = "0"

    def __missing__(self, c: int) -> int:
        digits = self._digits
        digits[c + 1] = "0"
        self[c] = mask = int(self._image.translate(digits), 2)
        digits[c + 1] = "1"
        return mask


def _count(over: list[int], x: int, depth: int) -> int:
    """Add one length's mismatches ``x`` to the saturating bit-sliced
    counters ``over`` (over[e]: more than e mismatches), of which the first
    ``depth`` may be nonempty; return the new depth."""
    top = len(over) - 1
    for e in range(top if depth > top else depth, 0, -1):
        over[e] |= over[e - 1] & x
    over[0] |= x
    return depth + 1


_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> list[int]:
    """The set bits of ``mask``, in increasing order."""
    digits = format(mask, "b").encode()[::-1].translate(_BINARY_DIGITS)
    return list(compress(range(len(digits)), digits))


#: Lengths after which the mask pass stops while many starts still live.
_MASK_LENGTHS = 16


class _StartCoverage:
    """The per-start Hamming coverage routine of one text and budget.

    ``self(a, stop)`` gives the k-coverage of T[a, a + ell - 1] for ell = 1,
    ..., stop, and the starts of the approximate occurrences of length stop.

    The mask pass reads each coverage off the smeared live starts until at
    most max(1, n/64) starts live or the length reaches
    :data:`_MASK_LENGTHS`.  Then :class:`SweepState` finishes over the live
    starts alone, given the length at which each stops being an occurrence.
    Either the jump loop gives each live start its lcp_k, or the mask pass
    goes on without smearing and reads off the length at which each live
    start takes one mismatch too many.  The cheaper way is picked, in units
    of one big-int op on one word.  A jump-loop query costs about 256, plus
    one per 32 symbols of the match it compares, and a match may run to the
    last length.  A mask length costs about n/64 + 1 + 48, the 48 for the
    interpreter.  So the jump loop is chosen when live * (256 + left/32) <
    left * (n/64 + 49), where left is the number of lengths still to go.
    On random text few starts live and their matches are short, so the
    jump loop wins.  On unary text nearly every start lives and matches to
    the end, so the mask pass wins.
    """

    def __init__(self, t: Text, k: int):
        if k < 0:
            raise ValueError("mismatch budget must be nonnegative")
        self.k = k
        self.n = n = len(t)
        self.sym = t.symbols
        self.lce = ExactLce(t)
        self.miss = _MissMasks(self.lce._s, t.alphabet_size)
        self.words = n // 64 + 1
        self.sparse = max(1, n >> 6)

    def __call__(self, a: int, stop: int) -> tuple[list[int], list[int]]:
        if not stop:
            return [], []
        sym, miss, n, k = self.sym, self.miss, self.n, self.k
        top = min(k, stop)
        over = [0] * (top + 1)  # over[e]: starts with more than e mismatches
        depth = 0  # lengths with a mismatch somewhere: over[e] is empty for e >= depth
        cov = []
        for length in range(1, stop + 1):
            x = miss[sym[a + length - 1]] >> (length - 1)
            if x:
                depth = _count(over, x, depth)
            live = ((1 << (n - length + 1)) - 1) & ~over[top]  # within budget, with room
            cov.append(_smear(live, length).bit_count())
            if length == stop:
                return cov, _bits(live)
            alive = live.bit_count()
            if alive <= self.sparse or length >= _MASK_LENGTHS:
                break
        starts = _bits(live)
        left = stop - length
        if alive * (256 + left // 32) < left * (self.words + 48):
            vals = self._jumps(a, starts)
        else:
            vals = self._deaths(a, stop, length, starts, live, over, depth)
        cov += SweepState(vals, n, starts, length).steps(length + 1, stop)
        return cov, [i for i, v in zip(starts, vals) if v >= stop]

    def _jumps(self, a: int, starts: list[int]) -> list[int]:
        """lcp_k(a, i) for each of ``starts``, from the kangaroo jump loop."""
        n, k = self.n, self.k
        s, extension = self.lce._s, self.lce.extension
        return [_lcp_k(s, extension, a, i, n - (i if i > a else a), k) for i in starts]

    def _deaths(self, a: int, stop: int, length: int, starts: list[int], live: int,
                over: list[int], depth: int) -> list[int]:
        """The lcp_k(a, i) of ``starts`` (the ``live`` starts at ``length``),
        capped at ``stop``: the mask pass goes on, without smearing, and
        reads off the length before each start's mismatch k+1."""
        sym, miss, n = self.sym, self.miss, self.n
        vals = [n - (i if i > a else a) for i in starts]  # the room each start has
        for end in range(length + 1, stop + 1):
            x = miss[sym[a + end - 1]] >> (end - 1)
            if x:
                depth = _count(over, x, depth)
                dead = over[-1] & live
                if dead:
                    live ^= dead
                    for i in _bits(dead):
                        vals[bisect_left(starts, i)] = end - 1
        return vals


def prefix_coverage(t: Text, k: int) -> list[int]:
    """Hamming k-coverage of every prefix; entry ell-1 is for length ell."""
    return _StartCoverage(t, k)(0, len(t))[0]


def factor_coverage_all(t: Text, k: int) -> list[list[int]]:
    """Hamming k-coverage of every factor: rows[a][b-a] covers T[a, b].

    One run of the per-start routine for each start.
    """
    run = _StartCoverage(t, k)
    return [run(a, len(t) - a)[0] for a in range(len(t))]


def _factor(t: Text, k: int, a: int, b: int) -> tuple[list[int], list[int]]:
    """The per-start routine for T[a, b], once it is checked to be a factor."""
    if not 0 <= a <= b < len(t):
        raise IndexError(f"factor ({a},{b}) out of range for n={len(t)}")
    return _StartCoverage(t, k)(a, b - a + 1)


def factor_occurrences(t: Text, k: int, a: int, b: int) -> IntervalSet:
    """Approximate occurrence intervals of T[a, b], in start order."""
    occ = IntervalSet()
    for i in _factor(t, k, a, b)[1]:
        occ.add(i, b - a + i)
    return occ


def factor_report(t: Text, k: int, a: int, b: int) -> CoverageReport:
    """Coverage report for one factor."""
    return CoverageReport((a, b), _factor(t, k, a, b)[0][-1])


def _fills(alive: int, length: int, full: int) -> bool:
    """True if windows of ``length`` at the set bits of ``alive`` cover ``full``."""
    return _smear(alive, length) & full == full


def _restricted_levels(target: Text, candidates: Candidates, k: int) -> Keyed:
    """Minimal level ell <= k at which each candidate covers ``target``.

    A start stops once level k's occurrences, smeared by its longest
    candidate, miss a position: occurrence sets only shrink as the length
    grows.
    """
    if k < 0:
        raise ValueError("mismatch budget must be nonnegative")
    sym = target.symbols
    m = len(sym)
    full = (1 << m) - 1
    miss = _MissMasks(string_image(target), target.alphabet_size)
    levels = []  # levels[a][L]: the level of the candidate t[a, a+L-1]
    for start, (seen, longest) in enumerate(zip(candidates.lo, candidates.hi),
                                            candidates.shift):
        levels.append(level := [None] * (longest + 1))
        top = min(k, longest)
        over = [0] * (top + 1)  # over[e]: positions with more than e mismatches
        depth = 0  # offsets that mismatch somewhere: over[e] is empty for e >= depth
        for length in range(1, longest + 1):
            x = miss[sym[start + length - 1]] >> (length - 1)
            if x:
                depth = _count(over, x, depth)
            if over[top] & 1:
                break
            if length <= seen:
                continue
            valid = (1 << (m - length + 1)) - 1  # starts with room for the candidate
            hi = min(top, depth)
            if _fills(valid & ~over[hi], length, full):
                level[length] = bisect_left(range(hi), True, key=lambda e: _fills(
                    valid & ~over[e], length, full))
            elif not _fills(valid & ~over[hi], longest, full):
                break
    return candidates.keyed(levels)


def k_restricted_covers(t: Text, k: int) -> Keyed:
    """Minimal ell <= k making each proper factor an ell-approximate cover.

    Factors map by string content, in row order, with no dict built until a
    lookup; the value is None when no budget up to k suffices.  Coverage is
    monotone in the budget, so the first level reaching full coverage is
    minimal.
    """
    return _restricted_levels(*restricted_candidates(t), k)


def k_restricted_seeds(t: Text, k: int) -> Keyed:
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
    pref = pref_k(t, k).values  # checks the budget, also on empty text
    n = len(t)
    # lcp_k(a, n - L) >= L, read on the reversed text: lcp_k(0, n - a - L) >= L
    suf = pref_k(Text(t.symbols[::-1], t.alphabet, t.wildcard_char), k).values
    # No factor at a longer than PREF_k[a] qualifies, so row a stops there.
    run = _StartCoverage(t, k)
    rows = [run(a, pref[a])[0] for a in range(n)]
    best: EnhancedCover | None = None
    for length in range(1, n + 1):
        for a in range(n - length + 1):
            if pref[a] < length:
                continue
            if suf[n - a - length] < length:
                continue
            c = rows[a][length - 1]
            if best is None or c > best.coverage:
                best = EnhancedCover(t.factor(a, a + length - 1).to_str(),
                                     a, a + length - 1, c)
    return best
