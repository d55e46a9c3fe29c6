import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicover import editcover, hamcover, lcpk, oracle, slots
from quasicover.bench import QTABLE_PENALTY, random_text
from quasicover.editcover import _lev_ends, factor_coverage, prefix_coverage
from quasicover.lcpk import ExactLce
from quasicover.oracle import build_d_table, edit_distance
from quasicover.reference import (
    _dp_rows,
    block_size,
    p_ed_entry,
    p_lev_table,
    pareto_list_build,
    pareto_list_from_row,
    precompute_special,
    q_table_fast,
)
from quasicover.restricted import restricted_covers_ed
from quasicover.textcore import PenaltyMatrix, Text, _EditCosts, pad_for_seed

from conftest import free_start_rows, random_metric, random_text_str, run_fresh, scaled


def brute_p_entry(t: Text, a: int, b: int, ap: int, k: int, p: PenaltyMatrix) -> int:
    best = -1
    c = t.factor(a, b)
    for bp in range(ap - 1, len(t)):
        if edit_distance(c, t.factor(ap, bp), p) <= k:
            best = bp
    return best


def test_p_lev_examples():
    t = Text.from_str("abc")
    assert p_lev_table(t, 1).get(0, 1, 1) == 1
    t = Text.from_str("aab")
    assert p_lev_table(t, 1).get(0, 1, 2) == -1
    t = Text.from_str("abab")
    table = p_lev_table(t, 0)
    for a in range(4):
        for b in range(a, 4):
            assert table.get(a, b, a) == b  # identity occurrence
    # only a <= b < n and 0 <= a' < n name an entry; no index wraps around
    table = p_lev_table(Text.from_str("abaab"), 1)
    for a, b, ap in ((2, 1, 0), (0, 0, -1), (-1, 0, 0), (0, 5, 0), (0, 0, 5)):
        with pytest.raises(IndexError):
            table.get(a, b, ap)


def test_p_lev_matches_brute(rng):
    for _ in range(30):
        n = rng.randint(1, 10)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        pm = PenaltyMatrix.unit("ab")
        k = rng.randint(0, 3)
        table = p_lev_table(t, k)
        for a in range(n):
            for b in range(a, n):
                for ap in range(n):
                    assert table.get(a, b, ap) == brute_p_entry(t, a, b, ap, k, pm)


def test_p_lev_rejects_wildcards():
    t = Text.from_str("a?b")
    with pytest.raises(ValueError):
        p_lev_table(t, 1)
    # the bit masks need no ExactLce, so the entry points check themselves
    for call in (factor_coverage, prefix_coverage):
        with pytest.raises(ValueError, match="wildcard-free"):
            call(t, "levenshtein", 1)


def dense(table, n):
    return [[[table.get(a, b, ap) for ap in range(n)] for b in range(a, n)]
            for a in range(n)]


def test_lev_masks_decode_to_wave_ends_at_every_start(rng):
    """The table decoded from the bit masks gives S_k(a, a') exactly as the
    LCE wave engine does, for every suffix pair and budgets up to n+2."""
    texts = [random_text_str(rng, rng.randint(0, 11), rng.choice((2, 3)))
             for _ in range(40)]
    texts += ["", "a", "b", "a" * 9, "ab" * 5, "abc" * 4, "aab" * 3, "abaababaab"]
    for s in texts:
        t = Text.from_str(s, "abc")
        n, lce = len(t), ExactLce(t)
        for k in range(n + 3):
            table = p_lev_table(t, k)
            for a in range(n):
                for ap in range(n):
                    got = [table.get(a, b, ap) for b in range(a, n)]
                    want = list(_lev_ends(t, a, ap, k, lce))
                    assert got == want + [-1] * (n - a - len(want)), (s, k, a, ap)


def test_lev_factor_coverage_equals_unit_edit_rows(rng):
    """Mask coverage rows equal the unit-cost edit engine's, whose per-start
    routine unions the occurrence intervals one by one; ends alone would not
    show a wrong union."""
    unit = PenaltyMatrix.unit("ab")
    for trial in range(30):
        n = rng.randint(0, 40)
        period = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
        s = (random_text_str(rng, n, 2), "a" * n, (period * n)[:n])[trial % 3]
        t = Text.from_str(s, "ab")
        for k in {0, rng.randint(0, 3), rng.randint(0, n + 2)}:
            assert factor_coverage(t, "levenshtein", k) == factor_coverage(
                t, "edit", k, unit), (s, k)


def test_lev_slots_at_every_block_width(rng):
    """Each start's block is n+2 bits rounded up to whole bytes, so n = 0..26
    meets every residue of (n+2) mod 8: factor rows equal the unit-cost edit
    engine's and the dense table equals the LCE wave ends at every (a, a')."""
    unit = PenaltyMatrix.unit("abc")
    for n in range(27):
        for s in (random_text_str(rng, n, 3), "a" * n, ("abc" * n)[:n]):
            t, waves = Text.from_str(s, "abc"), {}
            lce = ExactLce(t)
            for k in sorted({0, 1, 2, n, n + 2}):
                assert factor_coverage(t, "levenshtein", k) == factor_coverage(
                    t, "edit", k, unit), (s, k)
                if min(k, n) not in waves:  # Lev(C, W) <= n: budgets past n read budget n
                    waves[min(k, n)] = [[list(_lev_ends(t, a, ap, k, lce)) for ap in range(n)]
                                        for a in range(n)]
                want = [[[*ends, *[-1] * (n - a - len(ends))] for ends in row]
                        for a, row in enumerate(waves[min(k, n)])]
                table = p_lev_table(t, k)
                assert [[[table.get(a, b, ap) for b in range(a, n)] for ap in range(n)]
                        for a in range(n)] == want, (s, k)


def test_lev_budget_capped_at_length(rng):
    """Lev(C, W) <= n, so any budget past n gives the rows of budget n."""
    for n in range(13):
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        for call in (factor_coverage, prefix_coverage):
            assert call(t, "levenshtein", 10**6) == call(t, "levenshtein", n)
        assert dense(p_lev_table(t, 10**6), n) == dense(p_lev_table(t, n), n)


def test_lev_all_starts_build_no_lce(monkeypatch):
    """Factor coverage and the dense table run on the bit masks alone."""
    t = Text.from_str("abaabab")
    n = len(t)
    want = factor_coverage(t, "levenshtein", 2), dense(p_lev_table(t, 2), n)

    def forbidden(*args):
        raise AssertionError("LCE wave engine called")

    monkeypatch.setattr(lcpk, "ExactLce", forbidden)  # editcover imports it per call
    monkeypatch.setattr(editcover, "_suffix_pair_frontier", forbidden)
    assert factor_coverage(t, "levenshtein", 2) == want[0]
    assert dense(p_lev_table(t, 2), n) == want[1]
    with pytest.raises(AssertionError):
        prefix_coverage(t, "levenshtein", 2)


def test_lev_slots_memory_bound():
    """Levenshtein slots hold (k+1)^2 ints in a step; the largest budget
    within 64 MiB is every k at n = 96, then k = 80, 53, 32 and 12 at
    n = 160, 240, 400 and 1000."""
    assert slots._slots_fit(97 ** 2, 96)
    for n, k in ((160, 80), (240, 53), (400, 32), (1000, 12)):
        assert slots._slots_fit((k + 1) ** 2, n) and not slots._slots_fit((k + 2) ** 2, n)


def test_lev_factor_coverage_past_slot_bound(rng, monkeypatch):
    """Past the slot memory bound Levenshtein factor coverage runs per start
    under unit costs, and its rows stay those of the slots."""
    cases = []
    for trial in range(24):
        n = rng.randint(0, 14)
        s = (random_text_str(rng, n, 2), "a" * n, ("aab" * n)[:n])[trial % 3]
        t = Text.from_str(s, "ab")
        for k in {0, rng.randint(0, 3), rng.randint(0, n + 2)}:
            cases.append((t, k, factor_coverage(t, "levenshtein", k)))

    def forbidden(*args):
        raise AssertionError("Levenshtein slots built past the memory bound")

    monkeypatch.setattr(slots, "_SLOT_BITS", 0)
    monkeypatch.setattr(slots, "_lev_slots", forbidden)
    for t, k, want in cases:
        assert factor_coverage(t, "levenshtein", k) == want, (t.to_str(), k)


def test_pareto_examples():
    assert pareto_list_build([3, 2, 2, 4], 0).pairs() == [(2, 2), (4, 3)]
    assert pareto_list_build([5, 4, 3, 2], 0).pairs() == [(2, 3)]
    assert pareto_list_build([1, 2, 3], 0).pairs() == [(1, 0), (2, 1), (3, 2)]
    t = Text.from_str("abab")
    dt = build_d_table(t, 0, 1, PenaltyMatrix.unit("ab"))
    pl = pareto_list_from_row(dt, 1)
    assert all(pl.dists[i] < pl.dists[i + 1] and pl.ends[i] < pl.ends[i + 1]
               for i in range(len(pl) - 1))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=12))
def test_pareto_equals_domination_filter(costs):
    got = pareto_list_build(costs, 0).pairs()
    pairs = list(zip(costs, range(len(costs))))
    want = sorted((d, b) for d, b in pairs
                  if not any((d2, b2) != (d, b) and d2 <= d and b2 >= b
                             for d2, b2 in pairs))
    assert got == want


def test_pareto_pred():
    pl = pareto_list_build([3, 2, 2, 4], 0)
    assert pl.pred(3) == (2, 2)
    assert pl.pred(4) == (4, 3)
    assert pl.pred(1) is None
    assert pareto_list_build([], 0).pred(10) is None


def test_block_size():
    assert block_size(0) == 1
    assert block_size(1) == 1
    assert block_size(2) == 1
    assert block_size(64) == 3


def test_special_index_contents(rng):
    for trial in range(8):
        # sizes past 16 make M > 1, so some pairs hold no list
        n = rng.randint(1, 9) if trial % 2 else rng.randint(16, 18)
        t = Text.from_str(random_text_str(rng, n, 2, 0.2 if trial % 3 == 0 else 0.0), "ab")
        p = random_metric("ab", rng)
        idx = precompute_special(t, p)
        m = idx.M
        for a in range(n + 1):
            for ap in range(n + 1):
                for b in range(a - 1, min(a + m - 1, n)):
                    for bp in range(ap - 1, min(ap + m - 1, n)):
                        want = edit_distance(t.factor(a, b), t.factor(ap, bp), p)
                        assert idx.block_entry(a, ap, b, bp) == want
        # ask for every row of every special pair, then check what is stored
        # against the Pareto filter of the full D-table rows
        special = [(c, cp) for c in range(n + 1) for cp in range(n + 1)
                   if c % m == 0 or cp % m == 0]
        for c, cp in special:
            for b in range(c - 1, n):
                assert idx.pareto(c, cp, b) is not None
        assert sorted(idx.lists) == special
        for (c, cp), rows in idx.lists.items():
            dt = build_d_table(t, c, cp, p)
            assert len(rows) == n - c + 1
            for b in range(c - 1, n):
                assert rows[b - c + 1] == pareto_list_from_row(dt, b)
        if m > 1:
            assert idx.pareto(1, 1, n - 1) is None  # neither side special
        # boundary lists (one side at n) hold the empty-suffix column; only
        # rows that exist are served
        pl = idx.pareto(0, n, n - 1)
        assert pl is not None
        assert pl.ends == (n - 1,)
        assert pl.dists == (edit_distance(t, t.factor(n, n - 1), p),)
        if n >= 2:
            assert idx.pareto(n, 0, 0) is None  # row 0 does not exist for c = n
        assert idx.pareto(n + 1, 0, n) is None  # beyond the text: absent


def test_special_index_builds_only_queried_rows(rng):
    """Seed queries touch lists starting in the original region, up to the
    rows asked for."""
    for trial in range(4):
        n = rng.randint(4, 9)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        p = PenaltyMatrix.unit("ab") if trial % 2 else random_metric("ab", rng)
        padded = pad_for_seed(t)
        idx = precompute_special(padded, p)
        assert idx.lists == {}
        largest: dict[tuple[int, int], int] = {}
        pareto = idx.pareto

        def recording(c, cp, b):
            largest[(c, cp)] = max(largest.get((c, cp), b), b)
            return pareto(c, cp, b)

        idx.pareto = recording
        for a in range(n):
            for b in range(a, n):
                if 2 * (b - a + 1) <= n:
                    q_table_fast(padded, a + n, b + n, p, idx)
        assert idx.lists
        for (c, cp), rows in idx.lists.items():
            assert c >= n
            assert len(rows) == largest[(c, cp)] - c + 2


@settings(max_examples=80, deadline=None)
@given(st.text("abc?", max_size=10), st.integers(0, 2 ** 16), st.data())
def test_dp_rows_match_d_table(raw, seed, data):
    t = Text.from_str(raw, "abc")
    p = random_metric("abc", random.Random(seed)) if seed % 4 else PenaltyMatrix.unit("abc")
    n = len(t)
    a = data.draw(st.integers(0, n))
    ap = data.draw(st.integers(0, n))
    height = data.draw(st.integers(1, n - a + 1))
    width = data.draw(st.integers(1, n - ap + 1))
    costs = _EditCosts(t, p)
    want = build_d_table(t, a, ap, p).rows
    assert list(_dp_rows(costs, a, ap)) == want
    assert list(_dp_rows(costs, a, ap, height, width)) == \
        [row[:width] for row in want[:height]]
    # The reference free-start rows: the cheapest alignment with any window
    # ending at x-1.
    tables = [build_d_table(t, a, s, p).rows for s in range(n + 1)]
    assert free_start_rows(costs, a, n - a + 1) == \
        [[min(tables[s][r][x - s] for s in range(x + 1)) for x in range(n + 1)]
         for r in range(n - a + 1)]


def test_p_ed_matches_brute_and_lev(rng):
    for trial in range(18):
        # sizes reach past 16 so the block size exceeds 1 and the special
        # split paths actually engage
        n = rng.randint(1, 9) if trial % 3 else rng.randint(14, 18)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        unit = trial % 3 == 0
        p = PenaltyMatrix.unit("ab") if unit else random_metric("ab", rng)
        idx = precompute_special(t, p)
        kmax = 2 * p.max_operation_cost()
        budgets = {0, 1, rng.randint(0, kmax), kmax}
        levs = {k: p_lev_table(t, k) for k in budgets} if unit else {}
        for a in range(n):
            for b in range(a, n):
                c = t.factor(a, b)
                for ap in range(n):
                    # brute_p_entry for every budget from one pass over the ends
                    ends = range(ap - 1, n)
                    dists = [edit_distance(c, t.factor(ap, bp), p) for bp in ends]
                    for k in budgets:
                        got = p_ed_entry(idx, a, b, ap, k)
                        assert got == max((bp for bp, d in zip(ends, dists) if d <= k),
                                          default=-1)
                        if unit:
                            assert got == levs[k].get(a, b, ap)
                assert p_ed_entry(idx, a, b, a, 0) == b


def test_p_table_maximality(rng):
    """Reported ends are maximal: one more symbol pushes past the budget."""
    for _ in range(12):
        n = rng.randint(1, 9)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        p = random_metric("ab", rng)
        idx = precompute_special(t, p)
        k = rng.randint(0, 2 * p.max_operation_cost())
        for a in range(n):
            for b in range(a, n):
                for ap in range(n):
                    bp = p_ed_entry(idx, a, b, ap, k)
                    if bp >= ap:
                        assert edit_distance(t.factor(a, b), t.factor(ap, bp), p) <= k
                    if ap - 1 <= bp < n - 1:
                        assert edit_distance(t.factor(a, b), t.factor(ap, bp + 1), p) > k


def test_special_split_identity(rng):
    """Some candidate split pair realizes the distance additively."""
    for _ in range(6):
        n = rng.randint(4, 9)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        p = random_metric("ab", rng)
        idx = precompute_special(t, p)
        m = idx.M
        for a in range(n):
            for b in range(a, n):
                for ap in range(n):
                    for bp in range(ap, n):
                        if b - a < m - 1 and bp - ap < m - 1:
                            continue
                        whole = edit_distance(t.factor(a, b), t.factor(ap, bp), p)
                        s, sp = a + (-a) % m, ap + (-ap) % m
                        cands = [(s, x) for x in range(ap, ap + m)]
                        cands += [(x, sp) for x in range(a, a + m)]
                        ok = False
                        for c, cp in cands:
                            if c > b + 1 or cp > bp + 1 or c > n or cp > n:
                                continue
                            head = edit_distance(t.factor(a, c - 1), t.factor(ap, cp - 1), p)
                            tail = edit_distance(t.factor(c, b), t.factor(cp, bp), p)
                            if head + tail == whole:
                                ok = True
                                break
                        assert ok, (t.to_str(), a, b, ap, bp)


def test_index_mismatch_error():
    t = Text.from_str("abab")
    other = Text.from_str("abba")
    p = PenaltyMatrix.unit("ab")
    idx = precompute_special(t, p)
    with pytest.raises(ValueError):
        q_table_fast(other, 0, 1, p, idx)


def test_factor_coverage_examples():
    t = Text.from_str("abab")
    assert factor_coverage(t, "levenshtein", 1)[0][1] == 4
    # large budget: every factor occurs everywhere
    rows = factor_coverage(t, "levenshtein", 4)
    assert all(v == 4 for row in rows for v in row)
    # zero budget degenerates to exact occurrence coverage
    rows = factor_coverage(t, "levenshtein", 0)
    for a in range(4):
        for b in range(a, 4):
            assert rows[a][b - a] == oracle.brute_coverage(
                t.factor(a, b), t, "hamming", 0)


def test_factor_coverage_matches_oracle_and_unit_metric(rng):
    for _ in range(20):
        n = rng.randint(0, 9)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        k = rng.randint(0, 3)
        lev = factor_coverage(t, "levenshtein", k)
        unit = factor_coverage(t, "edit", k, PenaltyMatrix.unit("ab"))
        assert lev == unit
        for a in range(n):
            for b in range(a, n):
                want = oracle.brute_coverage(t.factor(a, b), t, "levenshtein", k)
                assert lev[a][b - a] == want


def wildcard_cases(rng, trials: int, min_n: int, max_n: int):
    """(text, k, matrix) over texts with 25% wildcards, whose zero-cost
    indels widen the budget-cut windows, under unit and random matrices;
    the last budget of each text is past its largest distance."""
    for trial in range(trials):
        n = rng.randint(min_n, max_n)
        t = Text.from_str(random_text_str(rng, n, 2, 0.25), "ab")
        p = random_metric("ab", rng) if trial % 2 else PenaltyMatrix.unit("ab")
        w = p.max_operation_cost()
        for k in (0, rng.randint(1, 2 * w), 2 * n * w + 1):
            yield t, k, p


def test_factor_coverage_weighted_matches_oracle(rng):
    for _ in range(10):
        n = rng.randint(1, 8)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        p = random_metric("ab", rng)
        k = rng.randint(0, 2 * p.max_operation_cost())
        rows = factor_coverage(t, "edit", k, p)
        for a in range(n):
            for b in range(a, n):
                want = oracle.brute_coverage(t.factor(a, b), t, "edit", k, p)
                assert rows[a][b - a] == want
    for t, k, p in wildcard_cases(rng, 10, 1, 8):
        rows = factor_coverage(t, "edit", k, p)
        for a in range(len(t)):
            for b in range(a, len(t)):
                want = oracle.brute_coverage(t.factor(a, b), t, "edit", k, p)
                assert rows[a][b - a] == want, (t.to_str(), k, a, b)


def test_weighted_coverage_on_long_wildcard_runs(rng):
    """Runs of 17 or more zero-cost wildcards let the insertion chain of a
    row run past the longest length live in the row before; n = 0 and
    n = 1 have no or one position to cover."""
    texts = ["a" + "?" * 17 + "b", "?" * 17 + "ca", "b" + "?" * 18, "", "c", "?"]
    for s in texts:
        t = Text.from_str(s, "abc")
        q = random_metric("abc", rng)
        for p, k in ((PenaltyMatrix.unit("abc"), 1),
                     (q, rng.randint(0, 2 * q.max_operation_cost()))):
            rows = factor_coverage(t, "edit", k, p)
            assert prefix_coverage(t, "edit", k, p) == (rows[0] if s else [])
            assert rows == [[oracle.brute_coverage(t.factor(a, b), t, "edit", k, p)
                             for b in range(a, len(t))] for a in range(len(t))], (s, k)


def test_weighted_coverage_across_dead_lengths():
    """A cheap indel of one symbol leaves window lengths with no live field
    between live ones, wildcards or not; the lengths past such a gap must
    still be built."""
    dear = [[0, 4, 4], [4, 0, 4], [4, 4, 0]]
    cases = [("ccaac", 2, PenaltyMatrix("abc", dear, [1, 4, 4], [1, 4, 4])),
             ("aab?ba", 1, PenaltyMatrix("abc", [[0, 2, 2], [2, 0, 1], [2, 1, 0]],
                                         [2, 1, 2], [2, 1, 2]))]
    for s, k, p in cases:
        t = Text.from_str(s, "abc")
        assert factor_coverage(t, "edit", k, p) == [
            [oracle.brute_coverage(t.factor(a, b), t, "edit", k, p) for b in range(a, len(t))]
            for a in range(len(t))], s


def test_weighted_coverage_scales_with_the_costs(rng):
    """Coverage under c·p with budget c·k is coverage under p with k, so
    fields from a few bits to past 70 run."""
    for trial in range(12):
        s = random_text_str(rng, rng.randint(0, 12), 3, 0.15 * (trial % 3))
        t = Text.from_str(s, "abc")
        p = PenaltyMatrix.unit("abc") if trial % 3 == 0 else random_metric("abc", rng)
        k = rng.randint(0, 2 * p.max_operation_cost())
        want = factor_coverage(t, "edit", k, p), prefix_coverage(t, "edit", k, p)
        for c in (1, 3, 2 ** 40, 2 ** 70):
            q = scaled(p, c)
            assert (factor_coverage(t, "edit", c * k, q),
                    prefix_coverage(t, "edit", c * k, q)) == want, (t.to_str(), k, c)


def test_weighted_budget_capped_at_cost_sums(rng):
    """No distance between factors of T exceeds Σdel(T) + Σins(T), so a
    huge budget gives the rows of that cap: every factor covers T."""
    for trial in range(6):
        n = rng.randint(0, 10)
        t = Text.from_str(random_text_str(rng, n, 3, 0.2 * (trial % 2)), "abc")
        p = random_metric("abc", rng)
        cap = sum(p.del_cost(x) + p.ins_cost(x) for x in t.symbols)
        rows = factor_coverage(t, "edit", cap, p)
        assert rows == [[n] * (n - a) for a in range(n)]
        for k in (10 ** 30, 2 ** 200):
            assert factor_coverage(t, "edit", k, p) == rows
            assert prefix_coverage(t, "edit", k, p) == (rows[0] if n else [])


def odd_matrix(rng: random.Random, alphabet: str, kind: int) -> PenaltyMatrix:
    """Nonnegative costs with positive indels that break the metric axioms:
    a nonzero diagonal (kind 0), an asymmetric substitution table with
    zero-cost mismatches (kind 1), or insertions priced apart from
    deletions (kind 2)."""
    s = len(alphabet)
    sub = [[rng.randint(0 if kind == 1 else 1, 4) if i != j or kind == 0 else 0
            for j in range(s)] for i in range(s)]
    ins = [rng.randint(1, 4) for _ in range(s)]
    return PenaltyMatrix(alphabet, sub, ins, [rng.randint(1, 4) for _ in range(s)]
                         if kind == 2 else ins)


def level_rows(t: Text, k: int, p: PenaltyMatrix) -> list[list[int]]:
    """Factor coverage from :func:`slots._cost_slots` at any level count,
    whichever route ``factor_coverage`` would take."""
    return slots.CostLevels(t, k, p).rows()


def per_start_rows(t: Text, k: int, p: PenaltyMatrix) -> list[list[int]]:
    return list(map(editcover._edit_coverage(t, "edit", k, p), range(len(t))))


def test_cost_slots_match_oracle(rng):
    """Cost-level rows equal the brute-force coverage under metric and
    non-metric costs, with budgets from 0 to past every distance."""
    for trial in range(60):
        n = rng.randint(1, 8)
        t = Text.from_str(random_text_str(rng, n, rng.choice((2, 3))), "abc")
        kind = trial % 6
        p = (PenaltyMatrix.unit("abc"), QTABLE_PENALTY, random_metric("abc", rng),
             *[odd_matrix(rng, "abc", j) for j in range(3)])[kind]
        cap = sum(p.del_cost(x) + p.ins_cost(x) for x in t.symbols)
        for k in {0, 1, rng.randint(0, cap), cap + 1}:
            assert level_rows(t, k, p) == [
                [oracle.brute_coverage(t.factor(a, b), t, "edit", k, p) for b in range(a, n)]
                for a in range(n)], (t.to_str(), k, p.sub, p.ins, p.dele)


def test_cost_slots_at_every_block_width(rng):
    """n = 0..26 meets every residue of (n+2) mod 8, the block width in
    bits: cost-level rows equal the per-start rows on random, unary and
    period-3 texts under unit, benchmark, metric and non-metric costs, some
    times 2^70, at budgets 0, 1, 2, n and past Σdel + Σins."""
    for n in range(27):
        for i, s in enumerate((random_text_str(rng, n, 3), "a" * n, ("abc" * n)[:n])):
            kind = (3 * n + i) % 6
            p = (PenaltyMatrix.unit("abc"), QTABLE_PENALTY, random_metric("abc", rng),
                 *[odd_matrix(rng, "abc", j) for j in range(3)])[kind]
            t, c = Text.from_str(s, "abc"), 2 ** 70 if (n + i) % 2 else 1
            cap = sum(p.del_cost(x) + p.ins_cost(x) for x in t.symbols)
            q = scaled(p, c)
            for k in sorted({0, 1, 2, n, cap + 1}):
                assert level_rows(t, c * k, q) == per_start_rows(t, c * k, q), (s, k, kind)


def test_weighted_factor_coverage_routes(monkeypatch):
    """Wildcard-free texts whose indels all cost more than 0 run on cost
    levels where the rule's time test holds (unit costs at n = 12: k <= 6);
    every other query, and every prefix query, runs per start."""
    def forbidden(*args):
        raise AssertionError("route not taken")

    unit = PenaltyMatrix.unit("abc")
    free_ins = PenaltyMatrix("abc", [[0, 1, 1], [1, 0, 1], [1, 1, 0]], [0, 1, 1], [1, 1, 1])
    free_del = PenaltyMatrix("abc", [[0, 1, 1], [1, 0, 1], [1, 1, 0]], [1, 1, 1], [1, 0, 1])
    levels = [("abcabbcacbab", 2, QTABLE_PENALTY), ("abcabbcacbab", 6, unit),
              ("abcabbcacbab", 0, unit), ("abcabbcacbab", 2 ** 71, scaled(QTABLE_PENALTY, 2 ** 70))]
    per_start = [("", 0, unit), ("a", 0, unit), ("a", 1, unit), ("abcabbcacbab", 7, unit),
                 ("abcabbcacbab", 12, QTABLE_PENALTY), ("abc?bbcacbab", 1, unit),
                 ("abcabbcacbab", 1, free_ins), ("abcabbcacbab", 2, free_del),
                 ("abcabbcacbab", 10 ** 30, unit)]
    want = [per_start_rows(Text.from_str(s, "abc"), k, p) for s, k, p in levels + per_start]
    with monkeypatch.context() as m:
        m.setattr(editcover, "_edit_coverage", forbidden)
        for (s, k, p), rows in zip(levels, want):
            assert factor_coverage(Text.from_str(s, "abc"), "edit", k, p) == rows, (s, k)
    monkeypatch.setattr(slots, "_cost_slots", forbidden)
    for (s, k, p), rows in zip(per_start, want[len(levels):]):
        assert factor_coverage(Text.from_str(s, "abc"), "edit", k, p) == rows, (s, k)
    t = Text.from_str("abcabbcacbab", "abc")
    assert prefix_coverage(t, "edit", 2, QTABLE_PENALTY) == want[0][0]


def test_cost_level_rule_bounds_memory_and_time(rng):
    """The rule counts S slot by slot in O(1) and keeps a query per start
    once the 3 S slot ints of (n+1) W bits pass 64 MiB or the time test
    C S max(80, n) < 64 n min(S_K, n+1) fails.  Unit costs at n = 48 pass
    the time test up to k = 29; at n = 400 they fit in memory up to k = 32
    (S = 1089), and k = 199 would hold about 2.4 GiB.
    ``QTABLE_PENALTY`` (three cost classes) at n = 96 takes the levels up
    to k = 41, where they measured faster, and not from k = 42 on; at
    k = 47 they measured slower."""
    for _ in range(200):
        n, top, m = rng.randint(0, 30), rng.randint(0, 200), rng.randint(1, 9)
        assert slots._floor_sum(n, top, m) == sum(min(n, e // m) for e in range(top + 1))
    unit = PenaltyMatrix.unit("abc")
    t = random_text(48, 3, 12)  # below n = 80: C S 80 < 64 n min(S_K, n+1)
    assert slots.CostLevels(t, 29, unit).pays()
    assert not slots.CostLevels(t, 30, unit).pays()
    t = random_text(400, 3, 12)
    assert slots.CostLevels(t, 32, unit).pays()
    assert not slots.CostLevels(t, 33, unit).pays()
    assert not slots.CostLevels(t, 199, unit).pays()
    t = random_text(96, 3, 12)
    assert slots.CostLevels(t, 41, QTABLE_PENALTY).pays()
    assert not slots.CostLevels(t, 42, QTABLE_PENALTY).pays()
    # indels 2^100 times a substitution: K near 2^107, S counted in O(1)
    wide = PenaltyMatrix("abc", [[0, 1, 1], [1, 0, 1], [1, 1, 0]], [2 ** 100] * 3, [2 ** 100] * 3)
    levels = slots.CostLevels(t, 2 ** 120, wide)
    assert levels.top == 192 * 2 ** 100 and not levels.pays()
    assert slots.CostLevels(t, 2, wide).pays()


def test_slots_load_on_first_factor_query():
    """``import quasicover.cli`` leaves the slots module unloaded; the first
    edit-metric factor coverage query loads it."""
    proc = run_fresh("""
import sys
import quasicover.cli
from quasicover import editcover
from quasicover.textcore import PenaltyMatrix, Text

print("quasicover.slots" in sys.modules)
editcover.prefix_coverage(Text.from_str("abaab"), "edit", 1, PenaltyMatrix.unit("ab"))
print("quasicover.slots" in sys.modules)
editcover.factor_coverage(Text.from_str("abaab"), "edit", 1, PenaltyMatrix.unit("ab"))
print("quasicover.slots" in sys.modules)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]


def test_prefix_coverage_consistent_with_factor_rows(rng):
    for _ in range(12):
        n = rng.randint(0, 9)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        p = random_metric("ab", rng)
        k = rng.randint(0, 4)
        for metric, pm in (("levenshtein", None), ("edit", p)):
            rows = factor_coverage(t, metric, k, pm)
            assert prefix_coverage(t, metric, k, pm) == (rows[0] if n else [])
        rows = hamcover.factor_coverage_all(t, k)
        assert hamcover.prefix_coverage(t, k) == (rows[0] if n else [])
    for t, k, p in wildcard_cases(rng, 12, 0, 12):
        rows = factor_coverage(t, "edit", k, p)
        assert prefix_coverage(t, "edit", k, p) == (rows[0] if len(t) else [])


def test_metric_dispatch_errors():
    t = Text.from_str("ab")
    with pytest.raises(ValueError):
        factor_coverage(t, "edit", 1)  # missing penalty matrix
    # Hamming coverage is hamcover's alone
    for metric in ("unknown", "hamming"):
        for call in (lambda: factor_coverage(t, metric, 1),
                     lambda: prefix_coverage(t, metric, 1)):
            with pytest.raises(ValueError, match="unknown metric"):
                call()
    # negative budgets: every metric's entry points check alike
    unit = PenaltyMatrix.unit("ab")
    for call in (lambda: factor_coverage(t, "levenshtein", -1),
                 lambda: prefix_coverage(t, "levenshtein", -1),
                 lambda: p_lev_table(t, -1),
                 lambda: hamcover.factor_coverage_all(t, -1),
                 lambda: factor_coverage(t, "edit", -1, unit),
                 lambda: prefix_coverage(t, "edit", -1, unit)):
        with pytest.raises(ValueError):
            call()
    # symbols the penalty matrix does not cover
    t3 = Text.from_str("abc")
    for call in (lambda: restricted_covers_ed(t3, unit),
                 lambda: factor_coverage(t3, "edit", 1, unit),
                 lambda: prefix_coverage(t3, "edit", 1, unit)):
        with pytest.raises(ValueError):
            call()
