import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicover import oracle
from quasicover.editcover import block_size, precompute_special
from quasicover.hamcover import k_restricted_covers, k_restricted_seeds
from quasicover.oracle import edit_distance
from quasicover.restricted import (
    _q_tables_of_start,
    _report_for_candidates,
    q_table_fast,
    q_table_quadratic,
    restricted_covers_ed,
    restricted_seeds_ed,
)
from quasicover.textcore import (Keyed, PenaltyMatrix, Text, _EditCosts, pad_for_seed,
                                 restricted_candidates, validate_penalty_matrix)

from conftest import (candidate_factors, column_combine_report, random_metric,
                      random_text_str, row_order, scaled)


def brute_q_entry(t: Text, a: int, b: int, p: PenaltyMatrix, i: int) -> int:
    """Minimal threshold covering T[i, n-1], by raising k until it works."""
    n = len(t)
    c = t.factor(a, b)
    suffix = t.factor(i, n - 1)
    if len(suffix) == 0:
        return 0
    cap = edit_distance(c, suffix, p)
    k = 0
    while True:
        if oracle.brute_coverage(c, suffix, "edit", k, p) == len(suffix):
            return k
        k += 1
        assert k <= cap


def test_q_table_worked_example():
    t = Text.from_str("abab")
    p = PenaltyMatrix.unit("ab")
    assert q_table_quadratic(t, 0, 1, p) == [0, 1, 0, 1, 0]
    assert q_table_fast(t, 0, 1, p) == [0, 1, 0, 1, 0]


def test_q_table_boundaries(rng):
    for _ in range(10):
        n = rng.randint(1, 8)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        p = PenaltyMatrix.unit("ab")
        q = q_table_quadratic(t, 0, n - 1, p)
        assert q[n] == 0
        assert q[0] == 0  # the full text trivially covers itself


def test_fast_equals_quadratic_all_factors(rng):
    for trial in range(25):
        # include sizes with block size 2 so the special paths engage
        n = rng.randint(1, 12) if trial % 3 else rng.randint(14, 18)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        p = PenaltyMatrix.unit("ab") if trial % 2 == 0 else random_metric("ab", rng)
        idx = precompute_special(t, p)
        for a in range(n):
            for b in range(a, n):
                assert q_table_fast(t, a, b, p, idx) == q_table_quadratic(t, a, b, p)


def test_fast_equals_quadratic_block_size_three(rng):
    """At n = 52-60 the block size is 3, so split pairs run three wide and
    every entry makes more prefix-minimum finds than at M <= 2."""
    for trial, n in enumerate((52, 56, 60)):
        assert block_size(n) == 3
        alphabet = "ab" if trial % 2 == 0 else "abc"
        t = Text.from_str(random_text_str(rng, n, len(alphabet)), alphabet)
        p = PenaltyMatrix.unit(alphabet) if trial == 0 else random_metric(alphabet, rng)
        idx = precompute_special(t, p)
        # b - a < M - 1 takes the block-scan path as well
        for a, b in ((0, 1), (n - 2, n - 1), (5, 5), (3, 14), (20, 42), (0, n - 2)):
            assert q_table_fast(t, a, b, p, idx) == q_table_quadratic(t, a, b, p)


def test_batched_tables_equal_fast_on_every_entry(rng):
    """Every entry of every batched table, for every canonical candidate of
    the covers text and of the floor(n/2)-padded seeds text, equals the
    special-point engine's."""
    for trial in range(24):
        n = rng.randint(1, 24) if trial % 4 else rng.randint(1, 12)
        alphabet = "ab" if trial % 2 == 0 else "abc"
        wildcard_prob = 0.15 if trial % 4 < 2 else 0.0
        t = Text.from_str(random_text_str(rng, n, len(alphabet), wildcard_prob), alphabet)
        p = PenaltyMatrix.unit(alphabet) if trial % 3 == 0 else random_metric(alphabet, rng)
        for target, candidates in (restricted_candidates(t),
                                   restricted_candidates(t, seeds=True)):
            costs = _EditCosts(target, p)
            idx = precompute_special(target, p)
            ends: dict[int, list[int]] = {}
            for a, b, _ in candidate_factors(candidates):
                ends.setdefault(a, []).append(b)
            for a, bs in ends.items():
                for b, values in zip(bs, _q_tables_of_start(costs, a, bs)):
                    assert values == q_table_fast(target, a, b, p, idx)


def test_report_thresholds_equal_quadratic_q_tables(rng):
    """Every report threshold, for every candidate of the covers text and of
    the floor(n/2)-padded seeds text, is Q[0] of the quadratic recurrence:
    n = 0..20, with and without wildcards (zero-cost wildcard indels), under
    the unit metric and random metrics with costs up to 8 and up to 2."""
    for n in range(21):
        for wildcard_prob in (0.0, 0.2):
            s = random_text_str(rng, n, 3, wildcard_prob)
            t = Text.from_str(s, "abc")
            for p in (PenaltyMatrix.unit("abc"), random_metric("abc", rng, max_cost=8),
                      random_metric("abc", rng, max_cost=2)):
                for target, candidates in (restricted_candidates(t),
                                           restricted_candidates(t, seeds=True)):
                    rep = _report_for_candidates(target, candidates, p)
                    expected = row_order((key, q_table_quadratic(target, a, b, p)[0])
                                         for a, b, key in candidate_factors(candidates))
                    assert list(rep.thresholds.items()) == expected, s


def width_boundary_case(rng, bound: int) -> tuple[Text, PenaltyMatrix]:
    """A text with one "a", some "b"s and wildcards, and a metric under which
    2·Σdel + max ins, the packed fields' bound, is exactly ``bound``:
    ins = del = D for "a" and 1 for "b", so the bound is 3D + 2·#b."""
    count = (2 * bound) % 3 + 3
    d = (bound - 2 * count) // 3
    assert 3 * d + 2 * count == bound and d >= 1
    symbols = ["a"] + ["b"] * count + ["?"] * rng.randint(0, 3)
    rng.shuffle(symbols)
    p = PenaltyMatrix("ab", [[0, d], [d, 0]], [d, 1], [d, 1])
    assert not validate_penalty_matrix(p)
    return Text.from_str("".join(symbols), "ab"), p


def test_packed_fields_scale_with_the_costs(rng):
    """Thresholds under c·p are c times the per-column reference's under p,
    for c = 1, 3, 2^20, 2^40 and 2^70, so fields from a few bits to past 64
    run; metrics whose bound sits just below and at 2^7, 2^15, 2^31 and
    2^63 run on both sides of a field-width step."""
    cases = []
    for trial in range(24):
        alphabet = "ab" if trial % 2 == 0 else "abc"
        s = random_text_str(rng, rng.randint(0, 14), len(alphabet), 0.15 if trial % 4 < 2 else 0)
        p = PenaltyMatrix.unit(alphabet) if trial % 3 == 0 else random_metric(alphabet, rng)
        cases.append((Text.from_str(s, alphabet), p))
    for w in (8, 16, 32, 64):
        for bound in (2 ** (w - 1) - 1, 2 ** (w - 1)):
            cases.append(width_boundary_case(rng, bound))
    # not a metric: substitutions above Σdel + max ins never win, and are capped
    cases.append((Text.from_str("abba?ab", "ab"),
                  PenaltyMatrix("ab", [[0, 1000], [1000, 0]], [1, 2], [1, 2])))
    for t, p in cases:
        for target, candidates in (restricted_candidates(t),
                                   restricted_candidates(t, seeds=True)):
            want = column_combine_report(target, candidates, p).thresholds
            for c in (1, 3, 2 ** 20, 2 ** 40, 2 ** 70):
                got = _report_for_candidates(target, candidates, scaled(p, c)).thresholds
                assert list(got.items()) == [(key, c * v) for key, v in want.items()], \
                    (t.to_str(), c)


def test_packed_rows_cross_every_doubling_step(rng):
    """Reports equal the per-column reference at text lengths on both sides
    of each doubling step of the insertion chain, and on runs longer than 16
    and 32 symbols; unit, random and ×2^70 metrics, covers and seeds.

    Zero-cost wildcard insertions never decide a threshold, since a window
    can substitute wildcards for free instead.  So the last three metrics
    make insertions cost unlike deletions: with ins 40 and del 1, uncapped
    insertion sums would overflow the fields; with ins 1 and every other
    step 100, "ab" covers a c of "aba" + c^L + "b" by inserting up to L c's
    in one row."""
    texts = [random_text_str(rng, m, 3, 0.2 * (m % 2))
             for m in (1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33)]
    texts += ["abc" + "?" * 20 + "cab", "ab" + "?" * 36 + "ba",
              "aba" + "c" * 20 + "b", "aba" + "c" * 36 + "b"]
    dear = [[0 if x == y else 100 for y in range(3)] for x in range(3)]
    for s in texts:
        t = Text.from_str(s, "abc")
        for p in (PenaltyMatrix.unit("abc"), random_metric("abc", rng),
                  scaled(random_metric("abc", rng), 2 ** 70),
                  PenaltyMatrix("abc", dear, [40] * 3, [1] * 3),
                  PenaltyMatrix("abc", dear, [1] * 3, [100] * 3),
                  scaled(PenaltyMatrix("abc", dear, [1] * 3, [100] * 3), 2 ** 70)):
            for target, candidates in (restricted_candidates(t),
                                       restricted_candidates(t, seeds=True)):
                assert report_items(_report_for_candidates(target, candidates, p)) == \
                    report_items(column_combine_report(target, candidates, p)), s


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 24), st.sampled_from([1, 3]), st.sampled_from([0.0, 0.2, 0.5]),
       st.integers(0, 24), st.integers(0, 5), st.integers(0, 2 ** 32))
def test_insertion_chains_stop_at_the_first_idle_step(n, sigma, wildcard_prob, run, which,
                                                      seed):
    """Each insertion chain stops at its first doubling step that changes no
    field; reports still equal the per-column reference, which runs no
    chain, in every key, threshold and minimum: n <= 24, unary and ternary
    texts at wildcard rates 0, 0.2 and 0.5, some with a run of one symbol
    spliced in, unit, random and insertion-cheap metrics (on which chains
    over such a run change fields up to the step of shift 16), covers and
    seeds."""
    rng = random.Random(seed)
    s = random_text_str(rng, n, sigma, wildcard_prob)
    at = rng.randint(0, n)
    s = (s[:at] + rng.choice("abc"[:sigma]) * run + s[at:])[:24]
    t = Text.from_str(s, "abc")
    dear = [[0 if x == y else rng.randint(20, 100) for y in range(3)] for x in range(3)]
    p = (PenaltyMatrix.unit("abc"), random_metric("abc", rng),
         random_metric("abc", rng, max_cost=2),
         PenaltyMatrix("abc", dear, [1] * 3, [100] * 3),
         PenaltyMatrix("abc", dear, [rng.randint(1, 2) for _ in range(3)],
                       [rng.randint(20, 100) for _ in range(3)]),
         scaled(PenaltyMatrix("abc", dear, [1] * 3, [100] * 3), 2 ** 70))[which]
    for target, candidates in (restricted_candidates(t), restricted_candidates(t, seeds=True)):
        assert report_items(_report_for_candidates(target, candidates, p)) == \
            report_items(column_combine_report(target, candidates, p)), s


def brute_candidates(s: str, seeds: bool) -> list[tuple[int, int, str]]:
    """(a, b, T[a, b]) in t coordinates for every distinct candidate string
    at its leftmost start, by (a, b)."""
    n = len(s)
    fits = (lambda length: 2 * length <= n) if seeds else (lambda length: length < n)
    strings = {s[a:b + 1] for a in range(n) for b in range(a, n) if fits(b - a + 1)}
    return sorted((s.find(c), s.find(c) + len(c) - 1, c) for c in strings)


def test_restricted_candidates_match_brute_enumeration(rng):
    """Leftmost-occurrence lengths, per-start length ranges, target text and
    row order, for covers and seeds; the Hamming (k = n) and unit-cost edit
    reports list the same keys in row order: by length, then by string."""
    texts = [""] + [random_text_str(rng, n, sigma, wildcard_prob)
                    for n in range(1, 13) for sigma in (1, 2, 3)
                    for wildcard_prob in (0.0, 0.3)]
    texts += ["?", "??", "a?", "?a?a", "abab"]
    texts += [random_text_str(rng, n, sigma, wildcard_prob)
              for n in (17, 24, 31, 40) for sigma in (2, 4) for wildcard_prob in (0.0, 0.3)]
    for n in (1, 2, 5, 16, 40):
        texts += ["a" * n, ("ab" * n)[:n], ("abc" * n)[:n], "?" * n]
    for s in texts:
        t = Text.from_str(s)
        n = len(t)
        p = PenaltyMatrix.unit(t.alphabet)
        for seeds, width, ham, edit in ((False, 0, k_restricted_covers, restricted_covers_ed),
                                        (True, n // 2, k_restricted_seeds, restricted_seeds_ed)):
            target, candidates = restricted_candidates(t, seeds=seeds)
            assert target.to_str() == "?" * width + s + "?" * width
            assert target.alphabet == t.alphabet
            assert (candidates.text, candidates.shift) == (s, width)
            brute = brute_candidates(s, seeds)
            for a in range(n):
                # lo[a]: the longest prefix of s[a:] starting earlier too, capped at
                # the longest allowed length; hi[a]: that length, 0 if lo[a] reaches it
                earlier = max((length for length in range(n - a + 1)
                               if s.find(s[a:a + length]) < a), default=0)
                cap = min(n - a, width if seeds else n - 1)
                assert candidates.lo[a] == min(earlier, cap)
                assert candidates.hi[a] == (cap if earlier < cap else 0)
                assert [c for start, _, c in brute if start == a] == \
                    [s[a:a + length] for length in range(candidates.lo[a] + 1,
                                                         candidates.hi[a] + 1)]
            assert candidate_factors(candidates) == \
                [(a + width, b + width, c) for a, b, c in brute]
            keys = [c for _, _, c in brute]
            order = sorted(set(keys), key=lambda c: (len(c), c))
            keyed = Keyed(candidates, [[(a, length) for length in range(n + 1)]
                                       for a in range(n)])
            assert list(keyed) == order
            assert all((s.find(key), len(key)) == at for key, at in keyed.items())
            assert list(ham(t, n)) == order
            assert list(edit(t, p).thresholds) == order


def check_streamed_mapping(got, ref: dict, absent: list) -> None:
    """``got``, a report mapping, against its reference dict: the same rows,
    read in row order as often as asked, with lookups and views that agree,
    and no row for any key of ``absent``."""
    rows = row_order(ref.items())
    assert len(got) == len(rows)
    items = got.items()
    assert list(items) == rows and list(items) == rows and list(got.items()) == rows
    assert list(got) == list(got.keys()) == [key for key, _ in rows]
    assert list(got.values()) == [value for _, value in rows]
    assert len(items) == len(got.keys()) == len(got.values()) == len(rows)
    assert got == ref and ref == got
    for key, value in rows:
        assert key in got and got[key] == value and got.get(key, "-") == value
        assert (key, value) in items and value in got.values()
    for key in absent:
        assert key not in got and got.get(key, "-") == "-"
        with pytest.raises(KeyError):
            got[key]
    assert list(got.items()) == rows  # the first lookup leaves the rows as they were


def test_reports_are_streamed_mappings_equal_to_the_oracle(rng):
    """Hamming levels and edit thresholds, covers and seeds, on n = 0 and 1,
    all-wildcard and random texts with and without wildcards."""
    texts = ["", "a", "?", "????", "?????????"]
    texts += [random_text_str(rng, n, sigma, wildcard_prob)
              for n in range(2, 10) for sigma in (1, 2, 3) for wildcard_prob in (0.0, 0.3)]
    for trial, s in enumerate(texts):
        t = Text.from_str(s)
        n, k = len(t), trial % 4
        p = (PenaltyMatrix.unit(t.alphabet) if trial % 2 or not t.alphabet
             else random_metric(t.alphabet, rng))
        for seeds, ham, edit in ((False, k_restricted_covers, restricted_covers_ed),
                                 (True, k_restricted_seeds, restricted_seeds_ed)):
            longest = n // 2 if seeds else n - 1
            absent = ["", "#", s[:longest + 1], 0]  # s[:longest + 1]: too long, or empty
            brute = oracle.brute_restricted_min_k(t, "hamming", seeds=seeds)
            check_streamed_mapping(
                ham(t, k), {key: v if v is not None and v <= k else None
                            for key, v in brute.items()}, absent)
            brute = dict(oracle.brute_restricted_min_k(t, "edit", p, seeds=seeds))
            report = edit(t, p)
            check_streamed_mapping(report.thresholds, brute, absent)
            assert report.minimal == min(brute.values(), default=None)
            assert report.argmin == [key for key, v in row_order(brute.items())
                                     if v == report.minimal]


def test_q_tables_match_tiling_oracle(rng):
    for trial in range(10):
        n = rng.randint(1, 8)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        p = PenaltyMatrix.unit("ab") if trial % 2 == 0 else random_metric("ab", rng)
        for a in range(n):
            for b in range(a, n):
                q = q_table_quadratic(t, a, b, p)
                for i in range(n + 1):
                    assert q[i] == brute_q_entry(t, a, b, p, i)


def test_crossover_unimodality(rng):
    """Along a Pareto list, cost rises and the range minimum falls, so the
    combined expression is minimized at the crossover or its predecessor."""
    from quasicover.editcover import pareto_list_from_row
    from quasicover.oracle import build_d_table

    for _ in range(10):
        n = rng.randint(2, 9)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        p = random_metric("ab", rng)
        a, b = 0, rng.randint(0, n - 1)
        q = q_table_quadratic(t, a, b, p)
        for i in range(n):
            dt = build_d_table(t, a, i, p)
            pl = pareto_list_from_row(dt, b)
            entries = [(d, j) for d, j in pl.pairs() if j >= i]
            if not entries:
                continue
            dists = [d for d, _ in entries]
            assert dists == sorted(dists) and len(set(dists)) == len(dists)
            minq = [min(q[i + 1:j + 2]) for _, j in entries]
            assert all(minq[x] >= minq[x + 1] for x in range(len(minq) - 1))
            values = [max(d + 0, mq) for (d, _), mq in zip(entries, minq)]
            # crossover index: first entry whose min-term dips below the cost
            cross = next((x for x in range(len(entries))
                          if minq[x] <= dists[x]), len(entries) - 1)
            best = min(values)
            assert best in {values[cross], values[max(0, cross - 1)]}


def test_restricted_covers_examples():
    rep = restricted_covers_ed(Text.from_str("abab"), PenaltyMatrix.unit("ab"))
    assert rep.minimal == 0
    assert rep.argmin == ["ab"]
    rep = restricted_covers_ed(Text.from_str("aaa", "a"), PenaltyMatrix.unit("a"))
    assert rep.minimal == 0 and "a" in rep.argmin


def test_restricted_thresholds_match_oracle(rng):
    for trial in range(10):
        n = rng.randint(2, 8)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        p = PenaltyMatrix.unit("ab") if trial % 2 == 0 else random_metric("ab", rng)
        rep = restricted_covers_ed(t, p)
        brute = oracle.brute_restricted_min_k(t, "edit", p)
        assert rep.thresholds == dict(brute)
        reps = restricted_seeds_ed(t, p)
        bruteseed = oracle.brute_restricted_min_k(t, "edit", p, seeds=True)
        assert reps.thresholds == dict(bruteseed)


def test_edit_thresholds_at_most_hamming(rng):
    """Edit distance never exceeds Hamming distance, so thresholds cannot."""
    for _ in range(10):
        n = rng.randint(2, 9)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        p = PenaltyMatrix.unit("ab")
        rep = restricted_covers_ed(t, p)
        ham = k_restricted_covers(t, n)
        for key, level in ham.items():
            if level is not None:
                assert rep.thresholds[key] <= level


def test_restricted_seeds_examples():
    rep = restricted_seeds_ed(Text.from_str("xxxx", "x"), PenaltyMatrix.unit("x"))
    assert rep.thresholds["x"] == 0
    # seeds relax covers: thresholds can only drop for shared candidates
    t = Text.from_str("abaab")
    p = PenaltyMatrix.unit("ab")
    cov = restricted_covers_ed(t, p)
    seed = restricted_seeds_ed(t, p)
    for key, v in seed.thresholds.items():
        assert v <= cov.thresholds[key]


def test_weighted_seeds_on_texts_with_wildcards(rng):
    for _ in range(6):
        n = rng.randint(2, 6)
        t = Text.from_str(random_text_str(rng, n, 2, wildcard_prob=0.2))
        p = random_metric("ab", rng)
        rep = restricted_seeds_ed(t, p)
        brute = oracle.brute_restricted_min_k(t, "edit", p, seeds=True)
        assert rep.thresholds == dict(brute)


def full_width_seeds(t: Text, p: PenaltyMatrix):
    """Seeds as covers of t padded with |t| wildcards on each side."""
    candidates = restricted_candidates(t, seeds=True)[1]._replace(shift=len(t))
    return _report_for_candidates(pad_for_seed(t), candidates, p)


def report_items(rep):
    return list(rep.thresholds.items()), rep.minimal


def test_seeds_match_full_width_padding(rng):
    """floor(n/2)-wide pads answer exactly like |T|-wide ones."""
    cases = [("ababa", "ab"), ("abcabca", "abc"), ("aabab?b", "ab")]
    cases += [(random_text_str(rng, n, 2, wildcard_prob=wildcard_prob), "ab")
              for n in range(17) for wildcard_prob in (0.0, 0.2)]
    for s, alphabet in cases:
        t = Text.from_str(s, alphabet)
        for p in (PenaltyMatrix.unit(alphabet), random_metric(alphabet, rng)):
            assert report_items(restricted_seeds_ed(t, p)) == \
                report_items(full_width_seeds(t, p))


def test_no_candidates():
    rep = restricted_covers_ed(Text.from_str("a", "a"), PenaltyMatrix.unit("a"))
    assert rep.minimal is None and rep.thresholds == {} and rep.argmin == []
