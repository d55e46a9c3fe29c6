from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicover import hamcover, oracle
from quasicover.hamcover import (
    EnhancedCover,
    SweepState,
    border_lengths,
    coverage_sweep,
    enhanced_cover_approx_border,
    enhanced_cover_exact_border,
    factor_coverage_all,
    factor_occurrences,
    factor_report,
    k_restricted_covers,
    k_restricted_seeds,
    prefix_coverage,
)
from quasicover.lcpk import lcp_k_all_pairs, pref_k
from quasicover.textcore import Text, hamming_distance, pad_for_seed

from conftest import random_text_str, row_order


def test_prefix_coverage_examples():
    t = Text.from_str("abaab")
    assert prefix_coverage(t, 0)[1] == 4  # "ab" occurs at 0 and 3
    assert prefix_coverage(t, 1)[1] == 5  # approximate starts 0, 2, 3
    for k in (0, 1, 3):
        assert prefix_coverage(t, k)[-1] == len(t)


def test_factor_coverage_examples():
    t = Text.from_str("abab")
    rows = factor_coverage_all(t, 0)
    assert rows[0][1] == 4  # "ab"
    assert rows[0][3] == 4  # the full string covers itself
    assert factor_coverage_all(t, 1)[0][2] == 3  # "aba": only the occurrence at 0


def test_prefix_and_factor_match_oracle(rng):
    for trial in range(60):
        n = rng.randint(1, 18)
        s = random_text_str(rng, n, rng.choice((2, 3)),
                            wildcard_prob=0.1 if trial % 5 == 0 else 0.0)
        t = Text.from_str(s)
        k = rng.randint(0, 3)
        cov = prefix_coverage(t, k)
        rows = factor_coverage_all(t, k)
        for ell in range(1, n + 1):
            assert cov[ell - 1] == oracle.brute_coverage(t.prefix(ell), t, "hamming", k)
        for a in range(n):
            for b in range(a, n):
                want = oracle.brute_coverage(t.factor(a, b), t, "hamming", k)
                assert rows[a][b - a] == want


def test_per_start_routine_matches_references_at_word_boundaries(rng, monkeypatch):
    """Prefix and factor coverage, factor reports and occurrences against
    coverage_sweep over PREF_k and lcp_k table rows, on dense and wildcard
    texts around 64 and 128 symbols.  The sweep gets the lcp_k values of the
    live starts both ways: from the jump loop and from the mask pass read on."""
    routes = {"_jumps": 0, "_deaths": 0}

    def counted(name):
        route = getattr(hamcover._StartCoverage, name)

        def wrapper(*args):
            routes[name] += 1
            return route(*args)
        return wrapper

    for name in routes:
        monkeypatch.setattr(hamcover._StartCoverage, name, counted(name))
    word = random_text_str(rng, 40, 4)
    for n in (63, 64, 65, 127, 128, 129):
        texts = [("a" * n), ("ab" * n)[:n], ("abc" * n)[:n], (word * 4)[:n],
                 random_text_str(rng, n, 2, wildcard_prob=0.3)]
        for s, k in product(texts, range(4)):
            t = Text.from_str(s)
            assert prefix_coverage(t, k) == coverage_sweep(pref_k(t, k).values, n, n), (s, k)
            table = lcp_k_all_pairs(t, k)
            rows = factor_coverage_all(t, k)
            for a in range(n):
                assert rows[a] == coverage_sweep(table.row(a), n, n - a), (s, k, a)
            for a in range(0, n, 9):
                for b in {a, min(a + 63, n - 1), min(a + 64, n - 1), n - 1}:
                    length = b - a + 1
                    assert factor_report(t, k, a, b).coverage == rows[a][b - a]
                    want = [(i, i + length - 1) for i, v in enumerate(table.row(a))
                            if v >= length]
                    assert list(factor_occurrences(t, k, a, b)) == want, (s, k, a, b)
            assert enhanced_cover_approx_border(t, k) == reference_approx_border(t, k), (s, k)
    assert routes["_jumps"] and routes["_deaths"], routes


def reference_approx_border(t: Text, k: int):
    """The approximate-border enhanced cover from the full lcp_k table and
    one coverage sweep per start."""
    table = lcp_k_all_pairs(t, k)
    n = len(t)
    rows = [coverage_sweep(table.row(a), n, n - a) for a in range(n)]
    best = None
    for length in range(1, n + 1):
        for a in range(n - length + 1):
            if table.entry(0, a) >= length and table.entry(a, n - length) >= length:
                c = rows[a][length - 1]
                if best is None or c > best.coverage:
                    best = EnhancedCover(t.factor(a, a + length - 1).to_str(),
                                         a, a + length - 1, c)
    return best


def test_coverage_monotone_in_k(rng):
    for _ in range(25):
        n = rng.randint(1, 15)
        t = Text.from_str(random_text_str(rng, n, 2))
        prev = factor_coverage_all(t, 0)
        for k in (1, 2):
            cur = factor_coverage_all(t, k)
            assert all(cur[a][i] >= prev[a][i]
                       for a in range(n) for i in range(n - a))
            prev = cur


def test_sweep_invariants_instrumented(rng):
    """Coverage-formula internal invariant plus the 2n-1 pair-processing bound."""
    for _ in range(30):
        n = rng.randint(1, 16)
        t = Text.from_str(random_text_str(rng, n, 2))
        k = rng.randint(0, 3)
        state = SweepState(list(pref_k(t, k).values), n)
        for ell in range(1, n + 1):
            state.steps(ell, ell)
            want = oracle.brute_coverage(t.prefix(ell), t, "hamming", k)
            assert state.sum_o + state.num_no * ell == want
        assert state.pairs_processed <= 2 * n - 1


def test_factor_occurrences_match_oracle(rng):
    for _ in range(25):
        n = rng.randint(1, 12)
        t = Text.from_str(random_text_str(rng, n, 2))
        k = rng.randint(0, 2)
        for a in range(n):
            for b in range(a, n):
                got = list(factor_occurrences(t, k, a, b))
                want = list(oracle.brute_occurrences(t.factor(a, b), t, "hamming", k))
                assert got == want


def test_k_restricted_covers_examples():
    got = k_restricted_covers(Text.from_str("abab"), 1)
    assert got["ab"] == 0 and got["a"] == 1 and got["b"] == 1
    assert all(v is None for key, v in got.items() if key not in ("ab", "a", "b"))
    got = k_restricted_covers(Text.from_str("aaaa"), 0)
    assert got == {"a": 0, "aa": 0, "aaa": 0}


def test_k_restricted_covers_at_zero_equals_exact_covers(rng):
    def exact_covers(t: Text) -> set[str]:
        out = set()
        n = len(t)
        for a in range(n):
            for b in range(a, n):
                if b - a + 1 >= n:
                    continue
                c = t.factor(a, b)
                covered = [False] * n
                for i in range(n - len(c) + 1):
                    if hamming_distance(c, t.factor(i, i + len(c) - 1)) == 0:
                        for q in range(i, i + len(c)):
                            covered[q] = True
                if all(covered):
                    out.add(c.to_str())
        return out

    for _ in range(40):
        n = rng.randint(1, 14)
        t = Text.from_str(random_text_str(rng, n, 2))
        got = {key for key, v in k_restricted_covers(t, 0).items() if v == 0}
        assert got == exact_covers(t)


def test_k_restricted_seeds_examples():
    got = k_restricted_seeds(Text.from_str("abaabaab"), 0)
    assert got["aab"] == 0
    assert got["ab"] is None  # not a 0-seed
    t = Text.from_str("ab")
    assert set(k_restricted_seeds(t, 1)) == {"a", "b"}  # length constraint
    got = k_restricted_seeds(Text.from_str("xxxx", alphabet="x"), 0)
    assert got["x"] == 0


def test_restricted_thresholds_match_oracle(rng):
    # Binary draws without wildcards first, then with 25% wildcards.
    for wildcard_prob in [0.0] * 20 + [0.25] * 20:
        n = rng.randint(1, 12)
        t = Text.from_str(random_text_str(rng, n, 2, wildcard_prob=wildcard_prob))
        kmax = 3
        brute = oracle.brute_restricted_min_k(t, "hamming")
        got = k_restricted_covers(t, kmax)
        for key, v in got.items():
            want = brute[key] if brute[key] is not None and brute[key] <= kmax else None
            assert v == want
        bruteseed = oracle.brute_restricted_min_k(t, "hamming", seeds=True)
        gotseed = k_restricted_seeds(t, kmax)
        for key, v in gotseed.items():
            want = bruteseed[key] if bruteseed[key] is not None and bruteseed[key] <= kmax else None
            assert v == want


def reference_restricted(t: Text, k: int, seeds: bool) -> dict[str, int | None]:
    """Level-by-level search with a full sweep of every start at every level,
    keyed in row order: by length, then by string.

    Seeds run on the text padded with |T| wildcards on each side.
    """
    n = len(t)
    target = pad_for_seed(t) if seeds else t
    offset = n if seeds else 0
    m = len(target)
    candidates: dict[str, tuple[int, int]] = {}
    for a in range(n):
        for b in range(a, n):
            length = b - a + 1
            if (2 * length <= n) if seeds else (length < n):
                candidates.setdefault(t.factor(a, b).to_str(), (a, b))
    result: dict[str, int | None] = {key: None for key in candidates}
    for ell in range(k + 1):
        unresolved = [key for key, v in result.items() if v is None]
        if not unresolved:
            break
        table = lcp_k_all_pairs(target, ell)
        rows = {a: coverage_sweep(table.row(a + offset), m, m - a - offset)
                for a in range(n)}
        for key in unresolved:
            a, b = candidates[key]
            if rows[a][b - a] == m:
                result[key] = ell
    return dict(row_order(result.items()))


def test_restricted_engine_matches_full_sweep_reference(rng):
    """The per-start mask pass and half-width seed padding change no answer."""
    # Odd n: seeds of length floor(n/2) fill a whole pad ("ab", "abc", ...).
    texts = ["ababa", "abcabca"]
    for n in range(41):
        texts += [random_text_str(rng, n, rng.choice((1, 2, 3)), wildcard_prob=wp)
                  for wp in (0.0, 0.2)]
    for i, s in enumerate(texts):
        t = Text.from_str(s)
        n = len(t)
        k = rng.randint(0, 4)
        escalate = i % 4 < 2  # the --escalate budgets, as in the CLI
        for budget in (k, n + 1) if escalate else (k,):
            got = k_restricted_covers(t, budget)
            assert list(got.items()) == list(reference_restricted(t, budget, False).items())
        for budget in (k, n // 2 + 1) if escalate else (k,):
            got = k_restricted_seeds(t, budget)
            assert list(got.items()) == list(reference_restricted(t, budget, True).items())


def test_restricted_engine_at_word_boundaries(rng):
    """Texts around 64 and 128 symbols: the occurrence masks of covers, and
    the padded seed texts (up to 2n symbols), cross machine-word sizes."""
    for i, n in enumerate((63, 64, 65, 127, 128, 129)):
        for j, wildcard_prob in enumerate((0.0, 0.2)):
            sigma = 1 + (2 * i + j) % 3
            t = Text.from_str(random_text_str(rng, n, sigma, wildcard_prob=wildcard_prob))
            # The reference reruns every level up to the escalate budget, so
            # only one text of the long three takes it.
            escalate = n < 100 or (n, wildcard_prob) == (129, 0.2)
            for budget in (0, 2, n + 1) if escalate else (0, 2):
                got = k_restricted_covers(t, budget)
                assert list(got.items()) == list(reference_restricted(t, budget, False).items())
            for budget in (0, 2, n // 2 + 1) if escalate else (0, 2):
                got = k_restricted_seeds(t, budget)
                assert list(got.items()) == list(reference_restricted(t, budget, True).items())


def test_restricted_negative_budget_raises():
    # the enhanced covers too, also on texts without a border
    for s in ("", "a", "ab", "abab"):
        t = Text.from_str(s)
        for fn in (k_restricted_covers, k_restricted_seeds,
                   enhanced_cover_exact_border, enhanced_cover_approx_border):
            with pytest.raises(ValueError, match="nonnegative"):
                fn(t, -1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_coverage_sweep_prefix_of_full_sweep(data):
    n = data.draw(st.integers(0, 40))
    vals = [data.draw(st.integers(0, n - i)) for i in range(n)]
    m = data.draw(st.integers(0, n))
    assert coverage_sweep(vals, n, m) == coverage_sweep(vals, n, n)[:m]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_coverage_sweep_matches_definition(data):
    """Coverage at ell is the size of the union of [i, min(i+ell, n)) over
    the starts i with vals[i] >= ell; vals may be 0, exceed n-i or reach m."""
    n = data.draw(st.integers(0, 30))
    vals = data.draw(st.lists(st.integers(0, n + 3), min_size=n, max_size=n))
    m = data.draw(st.integers(0, n))
    want = [len({p for i, v in enumerate(vals) if v >= ell
                 for p in range(i, min(i + ell, n))}) for ell in range(1, m + 1)]
    assert coverage_sweep(vals, n, m) == want
    state = SweepState(vals, n)
    assert state.steps(1, m) == want
    assert state.pairs_processed <= max(0, 2 * n - 1)


def test_factor_report():
    t = Text.from_str("abaab")
    rep = factor_report(t, 1, 0, 1)
    assert rep.subject == (0, 1)
    assert rep.coverage == 5
    assert list(factor_occurrences(t, 1, 0, 1)) == [(0, 1), (2, 3), (3, 4)]
    # only 0 <= a <= b < n names a factor; no row index wraps around
    for a, b in ((3, 1), (-2, 1), (0, 5), (-1, -1)):
        for call in (factor_report, factor_occurrences):
            with pytest.raises(IndexError, match=rf"factor \({a},{b}\)"):
                call(t, 1, a, b)


def test_seeds_on_texts_with_wildcards(rng):
    """User wildcards compose with the padding reduction."""
    for _ in range(15):
        n = rng.randint(2, 9)
        t = Text.from_str(random_text_str(rng, n, 2, wildcard_prob=0.25))
        got = k_restricted_seeds(t, 2)
        brute = oracle.brute_restricted_min_k(t, "hamming", seeds=True)
        for key, v in got.items():
            want = brute[key] if brute[key] is not None and brute[key] <= 2 else None
            assert v == want


def test_border_lengths():
    assert border_lengths(Text.from_str("abaab")) == [2]
    assert border_lengths(Text.from_str("ab")) == []
    assert border_lengths(Text.from_str("aaa")) == [2, 1]


def test_enhanced_exact_border():
    best = enhanced_cover_exact_border(Text.from_str("abaab"), 1)
    assert best is not None
    assert (best.candidate, best.coverage) == ("ab", 5)
    assert enhanced_cover_exact_border(Text.from_str("ab"), 0) is None
    # both borders of "aaa" cover everything; ties prefer the shorter one
    best = enhanced_cover_exact_border(Text.from_str("aaa"), 0)
    assert (best.candidate, best.coverage) == ("a", 3)


def test_enhanced_exact_border_is_optimal_among_borders(rng):
    for _ in range(30):
        n = rng.randint(1, 14)
        t = Text.from_str(random_text_str(rng, n, 2))
        k = rng.randint(0, 2)
        best = enhanced_cover_exact_border(t, k)
        lengths = border_lengths(t)
        if not lengths:
            assert best is None
            continue
        want = max(oracle.brute_coverage(t.prefix(length), t, "hamming", k)
                   for length in lengths)
        assert best.coverage == want


def test_enhanced_approx_border():
    best = enhanced_cover_approx_border(Text.from_str("abab"), 0)
    assert (best.candidate, best.coverage) == ("ab", 4)
    # coverage 5 is achievable ("ab" does); the shortest achiever wins ties
    best = enhanced_cover_approx_border(Text.from_str("abaab"), 1)
    assert best.coverage == 5
    assert (best.candidate, best.start) == ("a", 0)


def test_enhanced_approx_border_against_brute(rng):
    for _ in range(25):
        n = rng.randint(1, 12)
        t = Text.from_str(random_text_str(rng, n, 2))
        k = rng.randint(0, 2)
        best = enhanced_cover_approx_border(t, k)
        # brute force over all factors that are k-approximate borders
        want = None
        for length in range(1, n + 1):
            for a in range(n - length + 1):
                c = t.factor(a, a + length - 1)
                if hamming_distance(c, t.prefix(length)) > k:
                    continue
                if hamming_distance(c, t.suffix(length)) > k:
                    continue
                cov = oracle.brute_coverage(c, t, "hamming", k)
                if want is None or cov > want:
                    want = cov
        assert best.coverage == want
        # returned candidate is itself a valid k-approximate border
        c = Text.from_str(best.candidate, t.alphabet)
        assert hamming_distance(c, t.prefix(len(c))) <= k
        assert hamming_distance(c, t.suffix(len(c))) <= k


def test_every_factor_is_border_when_budget_covers_length():
    t = Text.from_str("abcb")
    k = len(t)
    best = enhanced_cover_approx_border(t, k)
    # with k >= |C| every single-symbol factor qualifies; coverage n wins
    assert best.coverage == len(t)
    assert len(best.candidate) == 1
