"""P_k slots of every start at once: Levenshtein and integer-cost factor coverage.

Both engines step by factor length L, after Wu and Manber (1992).  Per
budget level e and slot d one int holds a block of W = 8 * :func:`_lev_block`
bits per start a, at bit a*W.  Bit a' (0..n, n the empty suffix) of slot d
is set iff T[a, a+L-1] is within e of some T[a', b'], b' >= a'+L+d-1, so
slot d+1 lies within slot d.  The first operation of an alignment never
depends on where the window ends, so level e at length L reads start a+1 at
length L-1 (one ``>> W``) and lower levels of length L.
:func:`_coverage_rows` decodes the top level into every factor's coverage.
:class:`CostLevels` scales a weighted query's costs by their gcd and holds
the rule that picks the levels over the per-start route.

``editcover.factor_coverage`` imports this module on its first call, so
edit prefix coverage never compiles it; it loads only ``textcore``.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, repeat
from math import gcd
from typing import Iterator

from .textcore import PenaltyMatrix, Text, _EditCosts, _lev_check, _smear


def _lev_block(n: int) -> int:
    """Bytes per start in a slot: n+2 bits (bit n+1 a guard), rounded up."""
    return (n + 9) // 8


def _lev_slots(t: Text, k: int) -> Iterator[list[int]]:
    """Yield, for factor lengths L = 1 .. n, the slots d = -k .. k of budget
    k (0 <= k <= n) under Levenshtein.
    Per budget e, a match (``hit``: T[a'] = T[a]) prepends; a mismatch ORs
    the slots at e-1 of substitution, deletion (d+1) and insertion (d-1,
    length L).  ``hit`` and ``miss`` clear what crosses a block.  Slot d < -e
    equals slot -e and slots d > e are empty, so budget e keeps 2e+1 ints.
    O(k^2 n) operations on O(n^2)-bit ints.
    """
    s, n, size = t.symbols, len(t), _lev_block(len(t))
    w, full, at = 8 * size, (1 << n + 1) - 1, dict.fromkeys(s, 0)
    for ap, x in enumerate(s):
        at[x] |= 1 << ap
    rep = ((1 << (n + 1) * w) - 1) // ((1 << w) - 1)  # bit 0 of every start
    hit = int.from_bytes(b"".join([at[x].to_bytes(size, "little") for x in s]), "little")
    miss = hit ^ full * rep
    # length 0: the empty factor is within e edits of T[a', b'] iff b'-a' < e
    rows = [[((2 << n - max(d, 0)) - 1) * rep for d in range(-e, e + 1)] for e in range(k + 1)]
    for _ in range(n):
        new = [[hit & rows[0][0] >> w + 1]]
        for e in range(1, k + 1):
            u, y = [x >> w for x in rows[e - 1]], new[-1]
            new.append([hit & r >> w + 1 | miss & ((sub | ins) >> 1 | dl) for r, sub, ins, dl in
                        zip(rows[e], [u[0], *u, 0], [y[0], y[0], *y], [*u, 0, 0])])
        yield (rows := new)[k]


_SLOT_BITS = 1 << 29  # 64 MiB, the most a step's slot ints may hold


def _slots_fit(slots: int, n: int) -> bool:
    """True if a step over ``slots`` slots fits in 64 MiB: it holds this
    length's slots, the last length's and their shift, 3 S ints of (n+1) W
    bits."""
    return 3 * slots * (n + 1) * 8 * _lev_block(n) <= _SLOT_BITS


def _floor_sum(n: int, top: int, m: int) -> int:
    """Σ min(n, floor(e/m)) over e = 0 .. top, in O(1)."""
    q, r = divmod(min(top + 1, n * m), m)  # the terms e < n*m, below n
    return m * q * (q - 1) // 2 + q * r + n * max(0, top + 1 - n * m)


class CostLevels:
    """The integer cost levels of weighted factor coverage of T within k.

    g is the gcd of every cost of T's symbols and ``top``, K =
    floor(min(k, Σdel + Σins) / g), the top level.  Every distance is a
    multiple of g, so d <= k iff d/g <= K.  A window within e units of a
    factor of length L has length at least L - e/(least deletion) and at
    most L + e/(least insertion), so level e keeps slots d in [-lo_e, hi_e],
    those bounds capped at n.  ``classes`` holds the costs c <= K, in units
    of g, of T's substitutions, insertions and deletions.
    """

    def __init__(self, t: Text, k: int, p: PenaltyMatrix):
        self.t, self.costs = t, _EditCosts(t, p)
        ins, dele = self.costs.ins, self.costs.dele
        every = [*ins, *dele, *(c for x in set(t.symbols) for c in self.costs.sub[x])]
        self.g = g = gcd(*every) or 1
        self.top = min(k, sum(dele) + sum(ins)) // g
        self.least_del, self.least_ins = min(dele, default=g) // g, min(ins, default=g) // g
        self.classes = {c // g for c in every if c // g <= self.top}

    def pays(self) -> bool:
        """The rule of ``editcover.factor_coverage``: every indel of T costs
        more than 0 (so T holds no wildcard, which costs 0), the slot ints
        fit in 64 MiB and C S max(80, n) < 64 n min(S_K, n+1).

        S = Σ_e (lo_e + hi_e + 1) is the number of slots, S_K = lo_K + hi_K
        + 1 those of the top level and C = len(classes); :func:`_slots_fit`
        holds the memory test.  The levels take about 3 C S slot terms per
        length on those ints, the per-start route about min(S_K, n+1) live
        window lengths per factor on ints of n+1 narrow fields.  The time
        test and its constants were fitted to both routes timed at n = 24
        .. 400, K = 1 .. n under four matrices with 2 to 5 cost classes
        (BENCH_level_rule.json), with a margin: the levels run only where
        they measured at most 0.9 times the per-start time.
        """
        n, top, least_del, least_ins = len(self.t), self.top, self.least_del, self.least_ins
        if not (least_del and least_ins):
            return False
        slots = top + 1 + _floor_sum(n, top, least_del) + _floor_sum(n, top, least_ins)
        widest = min(n, top // least_del) + min(n, top // least_ins) + 1
        return _slots_fit(slots, n) and (
            len(self.classes) * slots * max(80, n) < 64 * n * min(widest, n + 1))

    def rows(self) -> list[list[int]]:
        """rows[a][b-a], the coverage of T[a, b], from :func:`_cost_slots`."""
        n = len(self.t)
        return _coverage_rows(n, min(n, self.top // self.least_del), _cost_slots(self))


def _cost_slots(levels: CostLevels) -> Iterator[list[int]]:
    """:func:`_lev_slots` under integer costs: yield, for L = 1 .. n, the
    slots d = -lo_K .. hi_K of the top level K of ``levels``.

    Costs and k are in units of g.  Level e, slot d takes, for each cost
    class c <= e, ``(S_c & U[e-c][d] | I_c & Y[e-c][d-1]) >> 1 |
    D_c & U[e-c][d+1]``: U is the previous length one block down, Y this
    length, S_c the bits a'+1 of block a with sub(T[a], T[a']) = c, I_c the
    bits a'+1 with ins(T[a']) = c and D_c the blocks with del(T[a]) = c.  A
    slot below a level's range reads its lowest one; above it, nothing.
    There is no match shortcut, so any nonnegative costs with positive
    indels are exact, metric or not.  O(K^2 n / min indel) operations per
    cost class on O(n^2)-bit ints.
    """
    t, costs, g, top = levels.t, levels.costs, levels.g, levels.top
    s, n, size = t.symbols, len(t), _lev_block(len(t))
    lo = [min(n, e // levels.least_del) for e in range(top + 1)]
    hi = [min(n, e // levels.least_ins) for e in range(top + 1)]
    w, full = 8 * size, (1 << n + 1) - 1
    rep = ((1 << (n + 1) * w) - 1) // ((1 << w) - 1)  # bit 0 of every start
    at = {x: [0] * (top + 1) for x in set(s)}
    ins, dele = [0] * (top + 1), [0] * (top + 1)
    for x, row in at.items():
        for ap, c in enumerate(costs.sub[x]):
            if c // g <= top:
                row[c // g] |= 2 << ap
    for j, (ic, dc) in enumerate(zip(costs.ins, costs.dele)):
        if ic // g <= top:
            ins[ic // g] |= 2 << j
        if dc // g <= top:
            dele[dc // g] |= full << j * w
    subs = [int.from_bytes(b"".join([at[x][c].to_bytes(size, "little") for x in s]), "little")
            for c in range(top + 1)]
    ins = [x * rep for x in ins]

    def terms(masks: list[int], e: int, d: int) -> list[tuple[int, int, int]]:
        """(mask, level e-c, index of slot d) of each class c with a term."""
        return [(masks[c], e - c, max(d + lo[e - c], 0)) for c in range(e + 1)
                if masks[c] and d <= hi[e - c]]

    plan = [[(terms(subs, e, d), terms(ins, e, d - 1), terms(dele, e, d + 1))
             for d in range(-lo[e], hi[e] + 1)] for e in range(top + 1)]
    # length 0: bit a' of slot d iff inserting T[a', a'+max(d,0)-1] costs at most e
    cum = list(accumulate((c // g for c in costs.ins), initial=0))
    rows = [[rep * sum(1 << a for a in range(n + 1 - max(d, 0)) if cum[a + max(d, 0)] - cum[a] <= e)
             for d in range(-lo[e], hi[e] + 1)] for e in range(top + 1)]
    for _ in range(n):
        u, new = [[x >> w for x in level] for level in rows], []
        for level in plan:
            out = []
            for by_sub, by_ins, by_del in level:
                v = dl = 0
                for mask, f, i in by_sub:
                    v |= mask & u[f][i]
                for mask, f, i in by_ins:  # f < e: levels of this length come first
                    v |= mask & new[f][i]
                for mask, f, i in by_del:
                    dl |= mask & u[f][i]
                out.append(v >> 1 | dl)
            new.append(out)
        yield (rows := new)[top]


def _coverage_rows(n: int, lo: int, levels: Iterator[list[int]]) -> list[list[int]]:
    """rows[a][L-1], the coverage of T[a, a+L-1], from the slots d = -lo, ...
    of each length L: smear the lowest slot of nonempty occurrences
    (d >= 1-L) by its least window length, OR in the end bit a'+L+d-1 of
    each higher slot d, then count each start's block from one ``to_bytes``.
    """
    size, rows = _lev_block(n), [[] for _ in range(n)]
    cuts = [slice(i, i + size) for i in range(0, n * size, size)]  # start a's bytes
    for length, slots in enumerate(levels, 1):
        low = max(0, lo + 1 - length)  # lowest slot d >= 1-L: nonempty occurrences
        bits = _smear(slots[low], length + low - lo)
        for end, x in enumerate(slots[low + 1:], length + low - lo):
            bits |= x << end  # slot d adds the end a'+L+d-1
        buf = bits.to_bytes((n + 1 - length) * size, "little")
        deque(map(list.append, rows, map(int.bit_count, map(int.from_bytes, map(
            buf.__getitem__, cuts[:n + 1 - length]), repeat("little")))), 0)
    return rows


class LevPrefixTable:
    """P_k under the Levenshtein distance for all (a, b, a'), k capped at n.

    ``get(a, b, ap)`` is the largest b' >= ap-1 with Lev(T[a,b], T[ap,b'])
    <= k, or -1: ap+b-a+d for the highest :func:`_lev_slots` slot d of length
    b-a+1 holding bit ap of start a, one bit read per slot of bytes.
    """

    def __init__(self, n: int, k: int, slots: list[list[bytes]]):
        self.n, self.k, self._slots = n, k, slots

    def get(self, a: int, b: int, ap: int) -> int:
        if not (0 <= a <= b < self.n and 0 <= ap < self.n):
            raise IndexError(f"P_k[{a},{b},{ap}] out of range")
        byte, bit = divmod(a * 8 * _lev_block(self.n) + ap, 8)
        held = sum(buf[byte] >> bit & 1 for buf in self._slots[b - a])  # slot d+1 within d
        return ap + b - a + held - 1 - self.k if held else -1


def p_lev_table(t: Text, k: int) -> LevPrefixTable:
    """P_k under Levenshtein for all (a, b, a'): the :func:`_lev_slots` of
    each length as bytes, O(k^2 n) ops on O(n^2)-bit ints, O(k n^3) bits."""
    k, n = _lev_check(t, k, "the Levenshtein P_k table"), len(t)
    return LevPrefixTable(n, k, [[x.to_bytes((n - i) * _lev_block(n), "little") for x in slots]
                                 for i, slots in enumerate(_lev_slots(t, k))])
