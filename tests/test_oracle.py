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

from conftest import random_metric, random_text_str, run_fresh


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


#: Each public name of the package, by the submodule that defines it.
PUBLIC_NAMES = {
    "textcore": ["WILDCARD", "DTable", "IntervalSet", "PenaltyMatrix", "Text", "Violation",
                 "build_d_table", "edit_distance", "hamming_distance",
                 "interval_union_size", "pad_for_seed", "symbols_match",
                 "validate_penalty_matrix"],
    "lcpk": ["ExactLce", "LcpKTable", "PrefKTable", "kangaroo_lcp_k", "lcp_k_all_pairs",
             "pref_k"],
    "hamcover": ["CoverageReport", "EnhancedCover", "border_lengths",
                 "enhanced_cover_approx_border", "enhanced_cover_exact_border",
                 "factor_coverage_all", "factor_occurrences", "k_restricted_covers",
                 "k_restricted_seeds", "prefix_coverage"],
    "editcover": ["ParetoList", "SpecialPointIndex", "block_size", "factor_coverage",
                  "p_ed_entry", "pareto_list_build", "pareto_list_from_row",
                  "precompute_special"],
    "slots": ["LevPrefixTable", "p_lev_table"],
    "restricted": ["QTable", "RestrictedReport", "q_table_fast", "q_table_quadratic",
                   "restricted_covers_ed", "restricted_seeds_ed"],
    "gadget": ["ConsensusInstance", "GadgetEncoding", "ScanVerdict", "ReductionVerdict",
               "build_cover_instance", "build_seed_instance", "format_instance", "gamma",
               "parse_instance", "phi", "psi", "reduction_forward_check",
               "validate_phi_density", "validate_prefix_suffix_overlaps"],
    "oracle": ["oracle"],
}


def test_package_names_resolve_on_first_access():
    """In a fresh interpreter, ``import quasicover`` loads no submodule; then
    ``from quasicover import *``, ``dir`` and attribute access give every
    public name as its defining module has it, and other names raise."""
    proc = run_fresh(f"""
import importlib, sys
import quasicover

assert not [m for m in sys.modules if m.startswith("quasicover.")]
star = {{}}
exec("from quasicover import *", star)
assert sorted(star) == sorted(["__builtins__", *quasicover.__all__])
assert set(quasicover.__all__) <= set(dir(quasicover))
public = {PUBLIC_NAMES!r}
assert quasicover.__all__ == [name for names in public.values() for name in names]
for module, names in public.items():
    home = importlib.import_module("quasicover." + module)
    for name in names:
        assert getattr(quasicover, name) is (home if name == module else getattr(home, name))
try:
    quasicover.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("quasicover.no_such_name resolved")
""")
    assert proc.returncode == 0, proc.stderr
