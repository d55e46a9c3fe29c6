"""Approximate quasiperiodicity analysis for strings.

k-coverage, restricted approximate covers and seeds, and enhanced covers
under Hamming, Levenshtein and weighted edit distance, with brute-force
oracles for every fast path and executable NP-hardness constructions.

The public names below are loaded on first access (``__getattr__``), so
``import quasicover`` or ``import quasicover.cli`` loads only the
submodules a caller uses.  ``prefix_coverage`` and ``factor_coverage_all``
are Hamming coverage (``hamcover``); ``factor_coverage`` takes
``"levenshtein"`` or ``"edit"`` (``editcover``).
"""

from importlib import import_module

#: Submodule -> the public names it defines.
_EXPORTS = {
    "textcore": (
        "WILDCARD", "DTable", "IntervalSet", "PenaltyMatrix", "Text", "Violation",
        "build_d_table", "edit_distance", "hamming_distance",
        "interval_union_size", "pad_for_seed", "symbols_match",
        "validate_penalty_matrix",
    ),
    "lcpk": (
        "ExactLce", "LcpKTable", "PrefKTable", "kangaroo_lcp_k", "lcp_k_all_pairs",
        "pref_k",
    ),
    "hamcover": (
        "CoverageReport", "EnhancedCover", "border_lengths",
        "enhanced_cover_approx_border", "enhanced_cover_exact_border",
        "factor_coverage_all", "factor_occurrences", "k_restricted_covers",
        "k_restricted_seeds", "prefix_coverage",
    ),
    "editcover": (
        "ParetoList", "SpecialPointIndex", "block_size", "factor_coverage",
        "p_ed_entry", "pareto_list_build", "pareto_list_from_row",
        "precompute_special",
    ),
    "slots": ("LevPrefixTable", "p_lev_table"),
    "restricted": (
        "QTable", "RestrictedReport", "q_table_fast", "q_table_quadratic",
        "restricted_covers_ed", "restricted_seeds_ed",
    ),
    "gadget": (
        "ConsensusInstance", "GadgetEncoding", "ScanVerdict", "ReductionVerdict",
        "build_cover_instance", "build_seed_instance", "format_instance", "gamma",
        "parse_instance", "phi", "psi", "reduction_forward_check",
        "validate_phi_density", "validate_prefix_suffix_overlaps",
    ),
}

#: Public name -> its submodule; ``oracle`` is exported as a module.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_HOME["oracle"] = "oracle"

__all__ = [*_HOME]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
