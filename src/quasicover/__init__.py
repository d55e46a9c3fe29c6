"""Approximate quasiperiodicity analysis for strings.

k-coverage, restricted approximate covers and seeds, and enhanced covers
under Hamming, Levenshtein and weighted edit distance, with brute-force
oracles for every fast path and executable NP-hardness constructions.
"""

from .textcore import (
    WILDCARD,
    DTable,
    IntervalSet,
    PenaltyMatrix,
    Text,
    Violation,
    build_d_table,
    edit_distance,
    hamming_distance,
    interval_union_size,
    pad_for_seed,
    symbols_match,
    validate_penalty_matrix,
)
from .lcpk import (
    ExactLce,
    LcpKTable,
    PrefKTable,
    kangaroo_lcp_k,
    lcp_k_all_pairs,
    pref_k,
)
from .hamcover import (
    CoverageReport,
    EnhancedCover,
    border_lengths,
    enhanced_cover_approx_border,
    enhanced_cover_exact_border,
    factor_coverage_all,
    factor_occurrences,
    k_restricted_covers,
    k_restricted_seeds,
    prefix_coverage,
)
from .editcover import (
    LevPrefixTable,
    ParetoList,
    SpecialPointIndex,
    block_size,
    factor_coverage,
    p_ed_entry,
    p_lev_table,
    pareto_list_build,
    pareto_list_from_row,
    precompute_special,
)
from .restricted import (
    QTable,
    RestrictedReport,
    q_table_fast,
    q_table_quadratic,
    restricted_covers_ed,
    restricted_seeds_ed,
)
from .gadget import (
    ConsensusInstance,
    GadgetEncoding,
    ScanVerdict,
    ReductionVerdict,
    build_cover_instance,
    build_seed_instance,
    format_instance,
    gamma,
    parse_instance,
    phi,
    psi,
    reduction_forward_check,
    validate_phi_density,
    validate_prefix_suffix_overlaps,
)
from . import oracle

__all__ = [
    "WILDCARD", "DTable", "IntervalSet", "PenaltyMatrix", "Text", "Violation",
    "build_d_table", "edit_distance", "hamming_distance",
    "interval_union_size", "pad_for_seed", "symbols_match",
    "validate_penalty_matrix",
    "ExactLce", "LcpKTable", "PrefKTable", "kangaroo_lcp_k", "lcp_k_all_pairs",
    "pref_k",
    "CoverageReport", "EnhancedCover", "border_lengths",
    "enhanced_cover_approx_border", "enhanced_cover_exact_border",
    "factor_coverage_all", "factor_occurrences", "k_restricted_covers",
    "k_restricted_seeds", "prefix_coverage",
    "LevPrefixTable", "ParetoList", "SpecialPointIndex", "block_size",
    "factor_coverage", "p_ed_entry", "p_lev_table", "pareto_list_build",
    "pareto_list_from_row", "precompute_special",
    "QTable", "RestrictedReport", "q_table_fast", "q_table_quadratic",
    "restricted_covers_ed", "restricted_seeds_ed",
    "ConsensusInstance", "GadgetEncoding", "ScanVerdict", "ReductionVerdict",
    "build_cover_instance", "build_seed_instance", "format_instance", "gamma",
    "parse_instance", "phi", "psi", "reduction_forward_check",
    "validate_phi_density", "validate_prefix_suffix_overlaps",
    "oracle",
]
