import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicover.oracle import build_d_table, edit_distance, hamming_distance, interval_union_size
from quasicover.textcore import (WILDCARD, PenaltyMatrix, Text, pad_for_seed,
                                 validate_penalty_matrix)

from conftest import random_metric, random_text_str

texts = st.text(alphabet="abc", max_size=10)


def test_text_round_trip():
    t = Text.from_str("ab?ba")
    assert t.to_str() == "ab?ba"
    assert t.alphabet == "ab"
    assert t[2] == WILDCARD
    assert len(t) == 5


def test_text_rejects_wildcard_in_alphabet():
    with pytest.raises(ValueError):
        Text.from_str("ab", alphabet="a?b")


def test_text_rejects_unknown_character():
    with pytest.raises(ValueError):
        Text.from_str("abz", alphabet="ab")


def test_text_error_messages():
    """The first offending character or symbol id is named, word for word."""
    with pytest.raises(ValueError) as exc:
        Text.from_str("abzy?", alphabet="ab")
    assert str(exc.value) == "character 'z' not in alphabet 'ab'"
    with pytest.raises(ValueError) as exc:
        Text.from_str("a*b", alphabet="ab", wildcard_char="?")
    assert str(exc.value) == "character '*' not in alphabet 'ab'"
    # the wildcard maps to WILDCARD, and another text's wildcard is an unknown character
    assert Text.from_str("a*b", alphabet="ab", wildcard_char="*").symbols == (0, WILDCARD, 1)
    for symbols, bad in (((0, 2, -2), 2), ((0, -1, -2, 5), -2), ((3,), 3), ((-7, 1), -7)):
        with pytest.raises(ValueError) as exc:
            Text(symbols, "ab")
        assert str(exc.value) == f"symbol id {bad} outside alphabet of size 2"
    assert Text((), "").symbols == ()
    assert Text((WILDCARD, 0), "a").symbols == (WILDCARD, 0)


def test_factor_prefix_suffix():
    t = Text.from_str("abcab")
    assert t.factor(1, 3).to_str() == "bca"
    assert t.factor(3, 2).to_str() == ""
    assert t.prefix(2).to_str() == "ab"
    assert t.suffix(2).to_str() == "ab"
    with pytest.raises(IndexError):
        t.factor(-1, 3)


def test_hamming_examples():
    u, v = Text.from_strs("abc", "abc")
    assert hamming_distance(u, v) == 0
    u, v = Text.from_strs("abc", "axc")
    assert hamming_distance(u, v) == 1
    u, v = Text.from_strs("?b", "ab")
    assert hamming_distance(u, v) == 0


def test_hamming_length_mismatch():
    u, v = Text.from_strs("ab", "abc")
    with pytest.raises(ValueError):
        hamming_distance(u, v)


def test_hamming_metric_properties(rng):
    for _ in range(200):
        n = rng.randint(0, 10)
        u, v, w = Text.from_strs(*(random_text_str(rng, n, 3) for _ in range(3)))
        assert hamming_distance(u, v) == hamming_distance(v, u)
        assert hamming_distance(u, w) <= hamming_distance(u, v) + hamming_distance(v, w)


def _alignment_cost_oracle(u: Text, v: Text, p: PenaltyMatrix) -> int:
    """Exhaustive recursion over all alignments."""
    def rec(i: int, j: int) -> int:
        if i == len(u) and j == len(v):
            return 0
        best = None
        if i < len(u) and j < len(v):
            best = p.sub_cost(u[i], v[j]) + rec(i + 1, j + 1)
        if i < len(u):
            c = p.del_cost(u[i]) + rec(i + 1, j)
            best = c if best is None else min(best, c)
        if j < len(v):
            c = p.ins_cost(v[j]) + rec(i, j + 1)
            best = c if best is None else min(best, c)
        return 0 if best is None else best

    return rec(0, 0)


def test_edit_distance_examples():
    u, v = Text.from_strs("ab", "ab")
    p = PenaltyMatrix.unit(u.alphabet)
    assert edit_distance(u, v, p) == 0
    empty = Text.from_str("", u.alphabet)
    assert edit_distance(u, empty, p) == 2
    u, v = Text.from_strs("aa", "b")
    p = PenaltyMatrix.unit(u.alphabet)
    assert edit_distance(u, v, p) == 2
    assert _alignment_cost_oracle(u, v, p) == 2


def test_edit_distance_alphabet_coverage():
    t = Text.from_str("abc")
    p = PenaltyMatrix.unit("ab")
    with pytest.raises(ValueError):
        edit_distance(t, t, p)


@settings(max_examples=60, deadline=None)
@given(texts, texts)
def test_edit_unit_equals_reference_levenshtein(s1, s2):
    t1, t2 = Text.from_strs(s1, s2)
    p = PenaltyMatrix.unit(t1.alphabet)
    got = edit_distance(t1, t2, p)
    # reference DP, written independently
    m, n = len(s1), len(s2)
    d = list(range(n + 1))
    for i in range(1, m + 1):
        prev, d[0] = d[0], i
        for j in range(1, n + 1):
            prev, d[j] = d[j], min(prev + (s1[i - 1] != s2[j - 1]),
                                   d[j] + 1, d[j - 1] + 1)
    assert got == d[n]


def test_edit_distance_random_metric_matches_alignment_oracle(rng):
    for _ in range(40):
        p = random_metric("ab", rng)
        u = Text.from_str(random_text_str(rng, rng.randint(0, 5)), "ab")
        v = Text.from_str(random_text_str(rng, rng.randint(0, 5)), "ab")
        assert edit_distance(u, v, p) == _alignment_cost_oracle(u, v, p)


def test_wildcard_edit_costs_are_free():
    t = Text.from_str("a?b")
    p = PenaltyMatrix.unit(t.alphabet)
    # substituting across a wildcard and inserting/deleting wildcards is free
    assert edit_distance(Text.from_str("?", "ab"), Text.from_str("a", "ab"), p) == 0
    assert edit_distance(Text.from_str("?", "ab"), Text.from_str("", "ab"), p) == 0
    assert edit_distance(Text.from_str("a?a", "ab"), Text.from_str("aa", "ab"), p) == 0
    # substituting into a wildcard is also free, but deleting a real symbol costs
    assert edit_distance(Text.from_str("ab", "ab"), Text.from_str("a?", "ab"), p) == 0
    assert edit_distance(Text.from_str("ab", "ab"), Text.from_str("a", "ab"), p) == 1


def test_build_d_table_diagonal_and_init():
    t = Text.from_str("abcab")
    p = PenaltyMatrix.unit(t.alphabet)
    dt = build_d_table(t, 1, 1, p)
    for b in range(0, len(t)):
        assert dt.entry(b, b) == 0
    dt = build_d_table(t, 0, 2, p)
    assert dt.entry(-1, 1) == 0  # boundary column: empty against empty
    total = 0
    for bp in range(2, len(t)):
        total += p.ins_cost(t[bp])
        assert dt.entry(-1, bp) == total


def test_build_d_table_matches_edit_distance(rng):
    for _ in range(20):
        n = rng.randint(1, 9)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        p = PenaltyMatrix.unit("ab") if rng.random() < 0.5 else random_metric("ab", rng)
        a, ap = rng.randint(0, n), rng.randint(0, n)
        dt = build_d_table(t, a, ap, p)
        for b in range(a - 1, n):
            for bp in range(ap - 1, n):
                assert dt.entry(b, bp) == edit_distance(t.factor(a, b), t.factor(ap, bp), p)


def test_build_d_table_worked_example():
    t = Text.from_str("ab")
    p = PenaltyMatrix.unit("ab")
    dt = build_d_table(t, 0, 1, p)
    assert dt.entry(-1, 0) == 0
    assert dt.entry(0, 1) == 1
    assert dt.entry(1, 1) == 1


def test_build_d_table_range_errors():
    t = Text.from_str("ab")
    p = PenaltyMatrix.unit("ab")
    with pytest.raises(IndexError):
        build_d_table(t, 0, 3, p)
    dt = build_d_table(t, 0, 0, p)
    with pytest.raises(IndexError):
        dt.entry(2, 0)


def test_interval_union_examples():
    assert interval_union_size([(0, 1), (3, 4)]) == 4
    assert interval_union_size([(0, 2), (1, 3)]) == 4
    assert interval_union_size([(2, 1)]) == 0
    assert interval_union_size([(5, 2), (3, 3)]) == 1


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=12))
def test_interval_union_matches_position_set(pairs):
    explicit = set()
    for i, j in pairs:
        explicit.update(range(i, j + 1))
    assert interval_union_size(pairs) == len(explicit)


def test_pad_for_seed():
    t = Text.from_str("ab")
    padded = pad_for_seed(t)
    assert padded.to_str() == "??ab??"
    assert len(pad_for_seed(Text.from_str(""))) == 0
    for n in range(5):
        t = Text.from_str("a" * n, "a")
        assert len(pad_for_seed(t)) == 3 * n
        assert len(pad_for_seed(t, n // 2)) == n + 2 * (n // 2)
    assert pad_for_seed(Text.from_str("abc"), 1).to_str() == "?abc?"
    assert pad_for_seed(Text.from_str("abc"), 0).to_str() == "abc"


def test_validate_penalty_matrix():
    assert validate_penalty_matrix(PenaltyMatrix.unit("abc")) == []
    bad = PenaltyMatrix("ab", [[0, 5], [5, 0]], [1, 1], [1, 1])
    axioms = {v.axiom for v in validate_penalty_matrix(bad)}
    assert axioms == {"triangle"}
    asym = PenaltyMatrix("ab", [[0, 1], [2, 0]], [1, 1], [1, 1])
    assert any(v.axiom == "symmetry" for v in validate_penalty_matrix(asym))
    noident = PenaltyMatrix("ab", [[0, 0], [0, 0]], [1, 1], [1, 1])
    assert any(v.axiom == "identity" for v in validate_penalty_matrix(noident))


def test_penalty_matrix_shape_and_sign_checks():
    with pytest.raises(ValueError):
        PenaltyMatrix("ab", [[0, 1]], [1, 1], [1, 1])
    with pytest.raises(ValueError):
        PenaltyMatrix("ab", [[0, 1], [1, 0]], [1], [1, 1])
    with pytest.raises(ValueError):
        PenaltyMatrix("ab", [[0, -1], [1, 0]], [1, 1], [1, 1])
    with pytest.raises(ValueError):
        PenaltyMatrix("ab", [[0, 1.5], [1.5, 0]], [1, 1], [1, 1])
    with pytest.raises(ValueError, match="repeats a symbol"):
        PenaltyMatrix("aab", PenaltyMatrix.unit("abc").sub, [1] * 3, [1] * 3)


def test_random_metrics_are_valid(rng):
    for _ in range(25):
        assert validate_penalty_matrix(random_metric("abc", rng)) == []
