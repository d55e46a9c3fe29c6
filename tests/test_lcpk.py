import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicover.lcpk import _WHOLE_SEGMENT, ExactLce, kangaroo_lcp_k, lcp_k_all_pairs, pref_k
from quasicover.textcore import Text, symbols_match

from conftest import naive_lcp_k, random_text_str


def test_lcp_examples():
    t = Text.from_str("abcabd")
    assert lcp_k_all_pairs(t, 0).entry(0, 3) == 2
    assert lcp_k_all_pairs(t, 1).entry(0, 3) == 3


def test_lcp_identical_suffixes():
    t = Text.from_str("abacaba")
    for k in (0, 2):
        table = lcp_k_all_pairs(t, k)
        for i in range(len(t)):
            assert table.entry(i, i) == len(t) - i


def test_table_indices_out_of_range():
    """No index wraps around to another row or column."""
    table = lcp_k_all_pairs(Text.from_str("abaab"), 1)
    for i, j in ((-1, 0), (0, -1), (5, 0), (0, 5), (-5, -5)):
        with pytest.raises(IndexError, match=rf"lcp_k\({i},{j}\)"):
            table.entry(i, j)
    for i in (-2, -1, 5):
        with pytest.raises(IndexError, match=rf"row {i}\b"):
            table.row(i)
    with pytest.raises(IndexError):
        lcp_k_all_pairs(Text.from_str(""), 0).row(0)


def test_pref_k_examples():
    t = Text.from_str("aabaa")
    assert pref_k(t, 0).values == [5, 1, 0, 2, 1]
    # one budgeted mismatch extends each entry past its first mismatch only
    # until the second one; values recomputed with the naive scan
    assert pref_k(t, 1).values == [5, 2, 2, 2, 1]
    n = 7
    t = Text.from_str("abbabab")
    assert pref_k(t, n).values == [n - i for i in range(n)]


def test_kangaroo_unlimited_budget_and_self():
    t = Text.from_str("abcabc")
    lce = ExactLce(t)
    n = len(t)
    for i in range(n):
        for j in range(n):
            assert kangaroo_lcp_k(t, i, j, n, lce) == n - max(i, j)
        assert kangaroo_lcp_k(t, i, i, 0, lce) == n - i


def test_engines_agree_with_naive(rng):
    for trial in range(120):
        n = rng.randint(0, 24)
        s = random_text_str(rng, n, rng.choice((2, 3)),
                            wildcard_prob=0.15 if trial % 4 == 0 else 0.0)
        t = Text.from_str(s)
        lce = ExactLce(t)
        for k in (0, 1, 3, 5):
            table = lcp_k_all_pairs(t, k)
            for i in range(n):
                for j in range(i, n):
                    want = naive_lcp_k(t, i, j, k)
                    assert table.entry(i, j) == want
                    assert table.entry(j, i) == want
                    assert kangaroo_lcp_k(t, i, j, k, lce) == want


def _fibonacci_word(n: int) -> str:
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def _planted_period(rng, n: int, period: int) -> str:
    base = random_text_str(rng, period, 3)
    s = list((base * (n // period + 1))[:n])
    for q in range(n):
        if rng.random() < 0.02:
            s[q] = rng.choice("abc")
    return "".join(s)


def _plain_lce(t: Text, i: int, j: int, match) -> int:
    n = len(t)
    length = 0
    while max(i, j) + length < n and match(t[i + length], t[j + length]):
        length += 1
    return length


def test_long_extensions_match_plain_loop(rng):
    """Long answers reach the doubling slices, the binary search inside the
    differing slice and the single-symbol tail; wildcard rates from one per
    text to one half make both short and long segments between wildcards."""
    for family in range(6):
        for wild in (0.0, None, 0.1, 0.5):  # None: a single wildcard
            n = rng.randint(100, 300)
            s = ["a" * n, ("ab" * n)[:n], _fibonacci_word(n),
                 _planted_period(rng, n, 3), _planted_period(rng, n, 7),
                 _planted_period(rng, n, 40)][family]
            if wild is None:
                q = rng.randrange(n)
                s = s[:q] + "?" + s[q + 1:]
            else:
                s = "".join("?" if rng.random() < wild else ch for ch in s)
            t = Text.from_str(s, "abc")
            lce = ExactLce(t)
            pairs = [(rng.randint(0, n), rng.randint(0, n)) for _ in range(300)]
            pairs += [(i, i + d) for d in (1, 2, 3, 7, 40) for i in range(0, n - d, 13)]
            for i, j in pairs:
                assert lce.exact(i, j) == _plain_lce(t, i, j, int.__eq__)
                assert lce.extension(i, j) == _plain_lce(t, i, j, symbols_match)
            for k in (0, 1, 2):
                assert pref_k(t, k).values == [naive_lcp_k(t, 0, i, k)
                                                    for i in range(n)]


def _jump_edge_texts(n: int):
    """Unary and period-2 texts of length n with a mismatching symbol, a
    wildcard or both at offset d of every (d+1)-block, d = 7, 8, 9: the last
    inline compare of a jump, the first one left to the LCE, the one after.
    Each also comes with the last symbol marked."""
    for base in ("a" * n, ("ab" * n)[:n]):
        for d in (7, 8, 9):
            for marks in ("c", "?", "c?"):
                s = list(base)
                for b, p in enumerate(range(d, n, d + 1)):
                    s[p] = marks[b % len(marks)]
                yield "".join(s)
                if n:
                    s[-1] = marks[-1]
                    yield "".join(s)


def _check_against_naive(t: Text):
    n = len(t)
    lce = ExactLce(t)
    for k in range(5):
        want = [naive_lcp_k(t, 0, i, k) for i in range(n)]
        assert pref_k(t, k).values == want
        assert [kangaroo_lcp_k(t, 0, i, k, lce) for i in range(n)] == want


def test_jump_loop_at_inline_compare_edges():
    """The jump loop compares 8 symbols inline, then calls the LCE: put
    mismatches and wildcards on both sides of that switch, on the last
    symbol, and (with one wildcard in a text longer than two whole-slice
    segments) where the LCE has to gallop between wildcards."""
    for n in range(41):
        for s in _jump_edge_texts(n):
            _check_against_naive(Text.from_str(s, "abc"))
    n = 2 * _WHOLE_SEGMENT + 40
    for s in ("a" * n, ("ab" * n)[:n]):
        q = n // 2
        _check_against_naive(Text.from_str(s[:q] + "?" + s[q + 1:], "abc"))


def test_lce_of_another_text_is_an_error():
    t = Text.from_str("abab")
    with pytest.raises(ValueError):
        kangaroo_lcp_k(t, 0, 2, 1, ExactLce(Text.from_str("aaaa")))
    with pytest.raises(ValueError):
        kangaroo_lcp_k(Text.from_str("abababab"), 0, 2, 1, ExactLce(t))
    # an equal text built separately is accepted
    assert kangaroo_lcp_k(t, 0, 2, 0, ExactLce(Text.from_str("abab"))) == 2


def test_monotone_in_k(rng):
    for _ in range(30):
        n = rng.randint(1, 20)
        t = Text.from_str(random_text_str(rng, n, 2))
        prev = lcp_k_all_pairs(t, 0)
        for k in range(1, 4):
            cur = lcp_k_all_pairs(t, k)
            for i in range(n):
                for j in range(n):
                    assert cur.entry(i, j) >= prev.entry(i, j)
            prev = cur


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ab", min_size=1, max_size=16),
       st.integers(0, 3), st.data())
def test_extension_property(s, k, data):
    t = Text.from_str(s, "ab")
    n = len(t)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    base = lcp_k_all_pairs(t, k).entry(i, j)
    if base < n - max(i, j):
        # the blocking position is a mismatch; one more budget consumes it
        assert lcp_k_all_pairs(t, k + 1).entry(i, j) >= base + 1


def test_wildcards_never_mismatch():
    t = Text.from_str("a??b")
    table = lcp_k_all_pairs(t, 0)
    # suffix 1 = "??b", suffix 2 = "?b": wildcards pair with anything
    assert table.entry(1, 2) == 2
    assert pref_k(t, 0).values[1] == 3


def test_position_bounds():
    t = Text.from_str("abc")
    with pytest.raises(IndexError):
        kangaroo_lcp_k(t, 0, 4, 1)
    with pytest.raises(ValueError):
        lcp_k_all_pairs(t, -1)
    with pytest.raises(ValueError):
        pref_k(t, -2)
    # a negative budget is an error, not lcp_0, also for i == j
    for i, j in ((0, 1), (1, 1)):
        with pytest.raises(ValueError):
            kangaroo_lcp_k(Text.from_str("aab"), i, j, -1)


def test_empty_text():
    t = Text.from_str("")
    assert pref_k(t, 0).values == []
    assert lcp_k_all_pairs(t, 1).rows == []
