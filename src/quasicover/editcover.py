"""Levenshtein and weighted-edit k-coverage.

The coverage entry points serve these two metrics only; Hamming coverage
is :mod:`quasicover.hamcover`'s, which this module does not import.
Coverage reads P_k[a, b, a'], the largest b' with d(T[a,b], T[a',b']) <= k.
Factor coverage of every start at once runs on the bit-mask slots of
:mod:`quasicover.slots`, within 64 MiB of slot ints under Levenshtein and
within the rule of :func:`factor_coverage` under integer costs.  The
per-start routes stay here: LCE-driven furthest-reach waves give the
Levenshtein streams of one start, which a per-start routine unions, and
weighted costs run the edit DP against all windows at once, one int of
saturating fields per window length within budget (Ukkonen's cut-off).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .textcore import PenaltyMatrix, Text, _EditCosts, _lev_check, _packed_fields, _smear

if TYPE_CHECKING:
    from .lcpk import ExactLce


def _suffix_pair_frontier(t: Text, a: int, ap: int, k: int,
                          lce: ExactLce) -> list[int]:
    """Top (h = k) furthest-reach wave of the pair (T[a, n-1], T[ap, n-1]).

    Entry d + k is the largest row i (symbols of T[a, n-1] consumed) with
    unit-cost D[i][i+d] <= k on diagonal d, or -1 where d leaves the table.
    Wave g takes the best of one edit from wave g-1, then slides along
    matches with one LCE jump (Landau-Vishkin); only wave g-1 is kept.  Both
    suffixes end where T ends, so an LCE jump inside T never overruns either.
    """
    m, n2, extension = len(t) - a, len(t) - ap, lce.extension
    wave: list[int] = []
    for g in range(k + 1):
        # prev[d + g + 1] is wave g-1 on diagonal d, -1 where it has none.
        # Each diagonal inside the table has a neighbour in wave g-1 at row
        # >= 0 (or is d = 0 at g = 0), so the 0 that an absent neighbour
        # gives after its +1 never wins.
        prev = [-1, -1, *wave, -1, -1]
        wave = [-1] * (2 * g + 1)
        for d in range(max(-g, -m), min(g, n2) + 1):
            i = d + g
            # insertion from d-1 keeps the row; substitution, deletion from d+1
            r = max(prev[i], prev[i + 1] + 1, prev[i + 2] + 1)
            r = min(r, m, n2 - d)
            wave[i] = r + extension(a + r, ap + r + d)
    return wave


def _lev_ends(t: Text, a: int, ap: int, k: int, lce: ExactLce) -> Iterator[int]:
    """Yield P_k[a, b, ap] under Levenshtein for b = a, a+1, ...

    Stops where the value turns -1, which it then stays for every longer
    factor.  The largest end for T[a, b] sits on the highest diagonal whose
    frontier reaches row b-a+1, and that diagonal only moves down as b grows.
    """
    ft = _suffix_pair_frontier(t, a, ap, k, lce)
    d = k
    for i in range(1, len(t) - a + 1):
        while ft[d + k] < i:  # an empty diagonal (-1) never reaches row i
            d -= 1
            if d < -k:
                return
        yield ap + i + d - 1


def _edit_coverage(t: Text, metric: str, k: int, p: PenaltyMatrix | None):
    """Check the inputs of an edit-metric coverage query and return
    ``run(a)``, the k-coverage of T[a, b] for b = a, ..., n-1.

    Levenshtein runs the per-start routine over LCE waves.  Weighted costs
    keep one int of n+1 fields per window length L, field f holding
    min(k+1, d(T[a, b], T[f-L, f-1])) (k+1 where f < L).  Row b is the
    fieldwise minimum of the diagonal (row L-1 of b-1 one field up, plus
    substituting T[b] by T[f-1]), the deletion of T[b] (row L of b-1) and
    the insertion of T[f-1] (row L-1 of b), saturated at k+1.  Only lengths
    from the shortest to the longest live one are kept (Ukkonen's cut-off);
    dead lengths can lie between, and zero-cost wildcard insertions can run
    past row b-1's longest.  No distance between factors of T exceeds
    Σdel + Σins of T, so the budget is capped there.
    """
    n = len(t)
    if metric == "levenshtein":
        from .lcpk import ExactLce  # only the Levenshtein waves jump by LCE

        k, lce = _lev_check(t, k, "Levenshtein coverage"), ExactLce(t)
        return lambda a: _coverage_row(n, a, (_lev_ends(t, a, ap, k, lce) for ap in range(n)))
    if metric != "edit":
        raise ValueError(f"unknown metric {metric!r}")
    if p is None:
        raise ValueError("edit metric requires a penalty matrix")
    if k < 0:
        raise ValueError("budget must be nonnegative")
    costs = _EditCosts(t, p)
    cap = min(k, sum(costs.dele) + sum(costs.ins)) + 1
    w = (2 * cap).bit_length() + 1  # every sum of two capped terms, plus a guard
    rep, guard, full, pack, fmin = _packed_fields(w, n + 1)
    dead, syms = cap * rep, t.symbols
    # field f substitutes by or inserts T[f-1]; field 0 has no such symbol
    ins = pack([cap] + [min(c, cap) for c in costs.ins])
    subs = [pack([cap] + [min(c, cap) for c in row]) for row in costs.sub]
    dels = [min(c, cap) * rep for c in costs.dele]

    def settle(v: int) -> tuple[int | None, int]:  # saturated at k+1, live guard bits
        over = ((v | guard) - dead) & guard  # guard bit kept where v > k
        if over == guard:
            return None, 0
        return v ^ ((v ^ dead) & (over - (over >> (w - 1)))), over ^ guard

    base = [0]  # b = a-1 for every a: the empty pattern, then insertions only
    while (v := settle(((base[-1] << w) & full) + ins)[0]) is not None:
        base.append(v)

    def run(a: int) -> list[int]:
        rows, lo, cov = base, 0, []
        for b in range(a, n):  # rows[i] is length lo+i of T[a, b-1], None if dead
            prev, end, sub, dl = rows, lo + len(rows), subs[syms[b]], dels[b]
            rows, lives, left = [], [], None
            for length in range(lo, n + 1):
                v = None if left is None else ((left << w) & full) + ins
                if length < end and (x := prev[length - lo]) is not None:
                    v = x + dl if v is None else fmin(v, x + dl)
                if lo < length <= end and (x := prev[length - lo - 1]) is not None:
                    x = ((x << w) & full) + sub
                    v = x if v is None else fmin(v, x)
                if v is None and length > end:  # past row b-1 only insertions go on
                    break
                left, live = (None, 0) if v is None else settle(v)
                rows.append(left)
                lives.append(live)
            if not (kept := [i for i, x in enumerate(lives) if x]):
                return cov + [0] * (n - b)  # no longer factor from a has a live field
            rows, lives, lo = rows[kept[0]:kept[-1] + 1], lives[kept[0]:kept[-1] + 1], lo + kept[0]
            # f-L for each live window [f-L', f-1] with L' >= L, then a smear for L <= low
            low = lo or 1  # the empty window covers nothing
            y = bits = 0
            for length in range(lo + len(rows) - 1, low - 1, -1):
                y |= lives[length - lo]
                bits |= y >> length * w
            cov.append((bits | _smear(y >> low * w, low, w)).bit_count())
        return cov

    return run


def _coverage_row(n: int, a: int, streams) -> list[int]:
    """k-coverage of T[a, b] for b = a, ..., n-1 from the P_k streams of a."""
    acc = [[0, -1] for _ in range(n - a)]  # per b: [union size, reach]
    for ap, stream in enumerate(streams):
        for cell, bp in zip(acc, stream):
            if bp >= ap and bp > cell[1]:  # extend the union with [ap, bp]
                cell[0] += bp - max(cell[1], ap - 1)
                cell[1] = bp
    return [size for size, _ in acc]


def factor_coverage(t: Text, metric: str, k: int,
                    p: PenaltyMatrix | None = None) -> list[list[int]]:
    """k-coverage of every factor under ``"levenshtein"`` or ``"edit"``
    (Hamming is :func:`hamcover.factor_coverage_all`): rows[a][b-a] covers
    T[a, b].

    Levenshtein steps ``slots._lev_slots`` (O(k^2 n) big-int ops on
    O(n^2)-bit ints) iff its (k+1)^2 slot ints fit in 64 MiB
    (``slots._slots_fit``); per length L, ``slots._coverage_rows`` smears
    the lowest slot of nonempty occurrences, ORs in the end bit of each
    higher one and counts each start's block from one ``to_bytes``: O(n^2)
    reads.  Past that bound it runs as weighted edit under unit costs.

    Weighted edit runs on ``slots._cost_slots`` iff T holds no wildcard,
    every indel cost of T is positive, the slot ints fit in 64 MiB and C S
    max(80, n) < 64 n min(S_K, n+1), a test fitted to timings of both
    routes (``slots.CostLevels.pays``; S slots in all, S_K at the top cost
    level K = floor(min(k, Σdel + Σins) / g), g the gcd of T's costs, C
    cost classes): O(K^2 n / min indel) big-int ops per class on
    O(n^2)-bit ints, decoded as under Levenshtein.  Every other query runs
    per start: O(k) packed rows per factor when every indel costs at least
    1, O(n) at worst, and O(k + log n) more big-int operations per
    coverage: O((k + log n) n^2) to O(n^3) in all.
    """
    from . import slots  # compiled on first use, not at every CLI start-up
    if metric == "levenshtein":
        k = _lev_check(t, k, "Levenshtein coverage")
        if slots._slots_fit((k + 1) ** 2, len(t)):
            return slots._coverage_rows(len(t), k, slots._lev_slots(t, k))
        metric, p = "edit", PenaltyMatrix.unit(t.alphabet)
    if metric == "edit" and p is not None and k >= 0 and (
            levels := slots.CostLevels(t, k, p)).pays():
        return levels.rows()
    return list(map(_edit_coverage(t, metric, k, p), range(len(t))))


def prefix_coverage(t: Text, metric: str, k: int,
                    p: PenaltyMatrix | None = None) -> list[int]:
    """k-coverage of every prefix under ``"levenshtein"`` or ``"edit"``
    (Hamming is :func:`hamcover.prefix_coverage`); entry ell-1 is for
    length ell.  Both metrics run their per-start routine at a = 0.
    """
    return _edit_coverage(t, metric, k, p)(0)


def __getattr__(name: str):
    # The benchmark's tracer reads these references here.  This stays until
    # the benchmark change of ROADMAP item 6 drops the metrics they feed.
    if name in ("SpecialPointIndex", "p_ed_entry", "precompute_special"):
        from . import reference
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
