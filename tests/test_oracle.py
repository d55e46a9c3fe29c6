import types

import pytest

import quasicover
from quasicover import oracle
from quasicover.textcore import (
    IntervalSet,
    PenaltyMatrix,
    Text,
    interval_union_size,
)

from conftest import random_metric, random_text_str


def test_brute_occurrences_examples():
    s, t = Text.from_strs("ab", "abab")
    assert list(oracle.brute_occurrences(s, t, "hamming", 0)) == [(0, 1), (2, 3)]
    lev = list(oracle.brute_occurrences(s, t, "levenshtein", 1))
    for iv in [(0, 0), (0, 1), (0, 2), (1, 1)]:
        assert iv in lev
    assert list(oracle.brute_occurrences(s, t, "hamming", -1)) == []


def test_brute_coverage_examples():
    s, t = Text.from_strs("ab", "abaab")
    assert oracle.brute_coverage(s, t, "hamming", 1) == 5
    t = Text.from_str("abc")
    assert oracle.brute_coverage(t, t, "hamming", 0) == 3
    s, t = Text.from_strs("zz", "abab")
    assert oracle.brute_coverage(s, t, "hamming", 0) == 0


def test_coverage_cross_check_against_interval_union(rng):
    """The position-marking loop must agree with occurrences + union size."""
    for trial in range(60):
        n = rng.randint(1, 12)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        s = Text.from_str(random_text_str(rng, rng.randint(1, n), 2), "ab")
        metric = ("hamming", "levenshtein")[trial % 2]
        k = rng.randint(0, 2)
        occ = oracle.brute_occurrences(s, t, metric, k)
        assert oracle.brute_coverage(s, t, metric, k) == interval_union_size(occ)


def test_brute_restricted_examples():
    assert oracle.brute_restricted_min_k(Text.from_str("abab"), "hamming")["ab"] == 0
    assert oracle.brute_restricted_min_k(Text.from_str("aaa"), "hamming")["a"] == 0
    seeds = oracle.brute_restricted_min_k(Text.from_str("abaabaab"), "hamming", seeds=True)
    assert seeds["aab"] == 0
    assert seeds["ab"] == 1  # not a 0-seed


def test_brute_restricted_candidate_sets():
    t = Text.from_str("abcd")
    covers = oracle.brute_restricted_min_k(t, "hamming")
    assert "abcd" not in covers  # proper factors only
    seeds = oracle.brute_restricted_min_k(t, "hamming", seeds=True)
    assert all(2 * len(c) <= 4 for c in seeds)


def test_general_cover_exists():
    t = Text.from_str("aaaa")
    found = oracle.brute_general_cover_exists(t, 1, "hamming", 0)
    assert found is not None and found.to_str() == "a"
    t = Text.from_str("ab")
    assert oracle.brute_general_cover_exists(t, 1, "hamming", 0) is None
    with pytest.raises(ValueError):
        oracle.brute_general_cover_exists(t, 2, "hamming", 0)


def test_general_seed_exists():
    t = Text.from_str("abab")
    found = oracle.brute_general_seed_exists(t, 2, "hamming", 0)
    assert found is not None and found.to_str() == "ab"


def test_budget_guard():
    t = Text.from_str("ab" * 20)
    with pytest.raises(oracle.BudgetExceededError):
        oracle.brute_general_cover_exists(t, 30, "hamming", 0)
    with pytest.raises(oracle.BudgetExceededError):
        oracle.brute_consensus(["01" * 20], 1, budget=100)


def test_early_exit_cover_search_matches_definition(rng):
    from itertools import product
    for _ in range(40):
        n = rng.randint(2, 7)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        c = rng.randint(1, n - 1)
        k = rng.randint(0, 2)
        fast = oracle.brute_general_cover_exists(t, c, "hamming", k)
        slow = None
        for combo in product(range(2), repeat=c):
            cand = Text(combo, "ab")
            if oracle.brute_coverage(cand, t, "hamming", k) == n:
                slow = cand
                break
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert fast == slow  # lexicographically smallest witness


def test_consensus_examples():
    assert oracle.brute_consensus(["00", "01"], 1) == "00"
    assert oracle.brute_consensus(["10", "10"], 0) == "10"
    assert oracle.brute_consensus(["00", "11"], 0) is None
    with pytest.raises(ValueError):
        oracle.brute_consensus([], 0)
    with pytest.raises(ValueError):
        oracle.brute_consensus(["0", "01"], 0)


def test_metric_argument_validation():
    t = Text.from_str("ab")
    with pytest.raises(ValueError):
        oracle.brute_coverage(t, t, "edit", 0)  # missing penalty matrix
    with pytest.raises(ValueError):
        oracle.brute_coverage(t, t, "nope", 0)


def test_edit_metric_occurrences(rng):
    for _ in range(15):
        n = rng.randint(1, 8)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        p = random_metric("ab", rng)
        s = t.factor(0, rng.randint(0, n - 1))
        k = rng.randint(0, 6)
        occ = oracle.brute_occurrences(s, t, "edit", k, p)
        from quasicover.textcore import edit_distance
        for (i, j) in occ:
            assert edit_distance(s, t.factor(i, j), p) <= k
        assert oracle.brute_coverage(s, t, "edit", k, p) == interval_union_size(occ)


def test_package_exports_no_module_but_oracle():
    modules = [name for name in quasicover.__all__
               if isinstance(getattr(quasicover, name), types.ModuleType)]
    assert modules == ["oracle"]
    assert all(hasattr(quasicover, name) for name in quasicover.__all__)
