"""Spans and counters around the public calls of each quasicover layer.

Wrappers are installed from outside the package and only for traced
passes; untraced passes run the unmodified functions.  A wrapper replaces
every module-level binding of the wrapped function in every loaded
``quasicover`` module, so names bound with ``from ... import`` (for example
``cli.restricted_covers_ed`` or ``restricted.precompute_special``) are
traced too.

Each span is ``[name, start, end, parent, request]``; spans stay in memory
and are written out when the run ends.  Counting work done on a returned
object is itself recorded as a ``trace.count`` span, a sibling of the
counted span, so it never inflates a layer's busy or self time.  Hot
methods (``SpecialPointIndex.pareto``, ``p_ed_entry``) get counts only.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import Counter
from time import perf_counter

COUNT_SPAN = "trace.count"


def _seed_pairs(n: int) -> int:
    """(a, b) pairs with 2(b-a+1) <= n that seed candidate dedup enumerates."""
    return sum(n - length + 1 for length in range(1, n // 2 + 1))


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.probe_marks: list[tuple[float, float]] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._queried: set[tuple] = set()
        self._undo: list[tuple] = []

    # -- span recording -------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), 0.0, parent, self.request])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, count=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                cidx = tracer.open(COUNT_SPAN)
                try:
                    count(tracer.counts, result, *args, **kwargs)
                finally:
                    tracer.close(cidx)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------
    def _patch_function(self, orig, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "quasicover" or mod_name.startswith("quasicover.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def _patch_attr(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        from quasicover import editcover, gadget, hamcover, lcpk, restricted, textcore

        def span(fn, name, count=None):
            self._patch_function(fn, self._wrap(name, fn, count))

        def method(cls, attr, name, count=None):
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                inner = self._wrap(name, raw.__func__, count)
                self._patch_attr(cls, attr, classmethod(inner))
            else:
                self._patch_attr(cls, attr, self._wrap(name, raw, count))

        def calls(key):
            def count(c, result, *args, **kwargs):
                c[key] += 1
            return count

        # textcore: parsing and padding, called a few times per request.
        method(textcore.Text, "from_str", "textcore")
        method(textcore.PenaltyMatrix, "require_metric", "textcore")
        span(textcore.pad_for_seed, "textcore")

        # lcpk
        def lce_symbols(c, result, obj, t, *rest):
            c["lcpk.ExactLce.symbols"] += len(t)

        def cells(c, table, *args, **kwargs):
            c["lcpk.lcp_k_all_pairs.cells"] += table.n * table.n

        method(lcpk.ExactLce, "__init__", "lcpk.ExactLce", lce_symbols)
        span(lcpk.pref_k, "lcpk.pref_k")
        span(lcpk.lcp_k_all_pairs, "lcpk.lcp_k_all_pairs", cells)

        # hamcover
        def lengths(c, out, *args, **kwargs):
            c["hamcover.coverage_sweep.lengths"] += len(out)

        def candidates(pairs_of):
            def count(c, result, t, *args, **kwargs):
                c["hamcover.restricted.calls"] += 1
                c["hamcover.candidates.distinct"] += len(result)
                c["hamcover.candidates.pairs"] += pairs_of(len(t))
            return count

        span(hamcover.coverage_sweep, "hamcover.coverage_sweep", lengths)
        span(hamcover.factor_coverage_all, "hamcover.factor_coverage_all",
             calls("hamcover.factor_coverage_all.calls"))
        span(hamcover.k_restricted_covers, "hamcover.restricted",
             candidates(lambda n: n * (n + 1) // 2 - 1 if n else 0))
        span(hamcover.k_restricted_seeds, "hamcover.restricted", candidates(_seed_pairs))
        span(hamcover.enhanced_cover_exact_border, "hamcover.enhanced")
        span(hamcover.enhanced_cover_approx_border, "hamcover.enhanced")

        # editcover
        def index_size(c, idx, *args, **kwargs):
            c["editcover.index.rows_built"] += sum(len(rows) for rows in idx.lists.values())
            c["editcover.index.block_cells"] += sum(
                len(row) for per_a in idx.blocks for rows in per_a for row in rows)

        span(editcover.precompute_special, "editcover.precompute_special", index_size)
        span(editcover.factor_coverage, "editcover.factor_coverage")
        span(editcover.prefix_coverage, "editcover.prefix_coverage")

        pareto = editcover.SpecialPointIndex.pareto
        queried = self._queried

        def counted_pareto(idx, c, cp, b):
            plist = pareto(idx, c, cp, b)
            if plist is not None:
                queried.add((self.request, id(idx), c, cp, b))
            return plist

        self._patch_attr(editcover.SpecialPointIndex, "pareto", counted_pareto)
        p_ed_entry = editcover.p_ed_entry
        counts = self.counts

        def counted_p_ed_entry(*args):
            counts["editcover.p_ed_entry.calls"] += 1
            return p_ed_entry(*args)

        self._patch_function(p_ed_entry, counted_p_ed_entry)

        # restricted
        span(restricted.q_table_fast, "restricted.q_table_fast",
             calls("restricted.q_table_fast.calls"))
        span(restricted.restricted_covers_ed, "restricted.report")
        span(restricted.restricted_seeds_ed, "restricted.report")

        # gadget
        span(gadget.build_cover_instance, "gadget.build")
        span(gadget.build_seed_instance, "gadget.build")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
        self.counts["editcover.index.rows_queried"] += len(self._queried)
        self._queried.clear()


# What each layer's numbers should move, and where (read before claiming a
# gain from a change to that layer):
#
# * cli.self_s, cli.output_mib -- input reading, parsing and row emission;
#   coverage_s, covers_s and seeds_s on ham, about nothing on edit.
# * textcore.busy_s -- negligible everywhere.
# * lcpk.* -- coverage_s on ham and repeats (ExactLce dominates the prefix
#   requests), seeds_s on ham; small on edit.
# * hamcover.* -- covers_s and seeds_s on ham and repeats; zero on edit.
#   restricted.calls and factor_coverage_all.calls expose --escalate
#   rerunning every level.
# * editcover.* -- seeds_s and peak_rss_mib on edit and repeats, covers_s
#   and coverage_s on edit; zero on ham.
# * restricted.* -- covers_s on edit, less on repeats (fewer candidates).
# * gadget.build.busy_s -- pass_s on repeats only.

#: Busy-time metric -> span name whose durations it sums.
BUSY = {
    "textcore.busy_s": "textcore",
    "lcpk.ExactLce.busy_s": "lcpk.ExactLce",
    "lcpk.pref_k.busy_s": "lcpk.pref_k",
    "lcpk.lcp_k_all_pairs.busy_s": "lcpk.lcp_k_all_pairs",
    "hamcover.coverage_sweep.busy_s": "hamcover.coverage_sweep",
    "hamcover.enhanced.busy_s": "hamcover.enhanced",
    "editcover.precompute_special.busy_s": "editcover.precompute_special",
    "editcover.prefix_coverage.busy_s": "editcover.prefix_coverage",
    "restricted.q_table_fast.busy_s": "restricted.q_table_fast",
    "gadget.build.busy_s": "gadget.build",
}

#: Self-time metric -> span name whose self time (duration minus direct
#: children) it sums.
SELF = {
    "cli.self_s": "cli.request",
    "hamcover.restricted.self_s": "hamcover.restricted",
    "editcover.factor_coverage.self_s": "editcover.factor_coverage",
    "restricted.report.self_s": "restricted.report",
}

COUNTS = (
    "lcpk.ExactLce.symbols",
    "lcpk.lcp_k_all_pairs.cells",
    "hamcover.coverage_sweep.lengths",
    "hamcover.restricted.calls",
    "hamcover.factor_coverage_all.calls",
    "editcover.index.rows_built",
    "editcover.index.block_cells",
    "editcover.index.rows_queried",
    "editcover.p_ed_entry.calls",
    "restricted.q_table_fast.calls",
)


#: Unit of every metric layer_metrics returns.
UNITS = {**{m: "s" for m in BUSY}, **{m: "s" for m in SELF},
         **{m: "count" for m in COUNTS},
         "hamcover.candidates.distinct_ratio": "ratio",
         "editcover.index.useful_ratio": "ratio"}


def layer_metrics(spans: list[list], counts: Counter, scale: dict[int, float],
                  probe_marks: list[tuple[float, float]]) -> dict:
    """Per-layer numbers of one traced pass.

    ``scale`` maps a request id to its host-speed factor; every span time
    is scaled by the factor of the request it belongs to.  Host probes
    taken inside a span (``probe_marks``, as (start, duration)) are
    subtracted from its duration.
    """
    starts = [s for s, _ in probe_marks]
    before = [0.0]
    for _, d in probe_marks:
        before.append(before[-1] + d)

    def duration(start: float, end: float) -> float:
        probed = before[bisect_left(starts, end)] - before[bisect_left(starts, start)]
        return end - start - probed

    lengths = [duration(start, end) for _, start, end, _, _ in spans]
    children = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent] += lengths[i]
    busy = Counter()
    self_time = Counter()
    for i, (name, _, _, _, req) in enumerate(spans):
        f = scale[req]
        busy[name] += lengths[i] * f
        self_time[name] += (lengths[i] - children[i]) * f
    out = {}
    for metric, name in BUSY.items():
        out[metric] = busy[name]
    for metric, name in SELF.items():
        out[metric] = self_time[name]
    for key in COUNTS:
        out[key] = counts[key]
    pairs = counts["hamcover.candidates.pairs"]
    out["hamcover.candidates.distinct_ratio"] = (
        counts["hamcover.candidates.distinct"] / pairs if pairs else 0.0)
    built = counts["editcover.index.rows_built"]
    out["editcover.index.useful_ratio"] = (
        counts["editcover.index.rows_queried"] / built if built else 0.0)
    return out
