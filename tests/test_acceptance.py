"""Acceptance suite: one test per criterion, each printing a pass line.

Every fast path is held against its brute-force oracle at the sizes and
tolerances fixed up front; all equalities are exact.  Run with ``pytest -s``
to see the per-criterion lines.
"""

import random
import time
import warnings
from itertools import product

from quasicover import bench, oracle
from quasicover.editcover import (
    _suffix_pair_frontier,
    factor_coverage,
    p_ed_entry,
    precompute_special,
)
from quasicover.gadget import (
    ConsensusInstance,
    build_cover_instance,
    gamma,
    psi,
    reduction_forward_check,
    validate_phi_density,
    validate_prefix_suffix_overlaps,
)
from quasicover.hamcover import (
    factor_coverage_all,
    k_restricted_covers,
    prefix_coverage,
)
from quasicover.lcpk import ExactLce, kangaroo_lcp_k, lcp_k_all_pairs, pref_k
from quasicover.restricted import (
    q_table_fast,
    q_table_quadratic,
    restricted_covers_ed,
    restricted_seeds_ed,
)
from quasicover.slots import p_lev_table
from quasicover.textcore import (
    PenaltyMatrix,
    Text,
    build_d_table,
    edit_distance,
    hamming_distance,
)

from conftest import full_unit_dp, naive_lcp_k, random_metric, random_text_str


def report(num: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: PASS{suffix}")


def test_c01_hamming_prefix_coverage():
    rng = random.Random(101)
    start = time.perf_counter()
    texts = 0
    for _ in range(500):
        n = rng.randint(1, 30)
        t = Text.from_str(random_text_str(rng, n, rng.choice((2, 3, 4))))
        k = rng.randint(0, 4)
        cov = prefix_coverage(t, k)
        for ell in range(1, n + 1):
            assert cov[ell - 1] == oracle.brute_coverage(t.prefix(ell), t, "hamming", k)
        texts += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 budget exceeded: {elapsed:.1f}s"
    report(1, "hamming-prefix-coverage", f"{texts} texts, {elapsed:.1f}s")


def test_c02_hamming_factor_coverage():
    rng = random.Random(102)
    start = time.perf_counter()
    for _ in range(500):
        n = rng.randint(1, 30)
        t = Text.from_str(random_text_str(rng, n, rng.choice((2, 3, 4))))
        k = rng.randint(0, 4)
        rows = factor_coverage_all(t, k)
        for a in range(n):
            for b in range(a, n):
                assert rows[a][b - a] == oracle.brute_coverage(
                    t.factor(a, b), t, "hamming", k)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 2 budget exceeded: {elapsed:.1f}s"
    report(2, "hamming-factor-coverage", f"500 texts, {elapsed:.1f}s")


def test_c03_lcp_engines():
    rng = random.Random(103)
    for _ in range(200):
        n = rng.randint(1, 25)
        t = Text.from_str(random_text_str(rng, n, rng.choice((2, 3))))
        lce = ExactLce(t)
        for k in range(6):
            table = lcp_k_all_pairs(t, k)
            for i in range(n):
                for j in range(n):
                    want = naive_lcp_k(t, i, j, k)
                    assert table.entry(i, j) == want
                    assert kangaroo_lcp_k(t, i, j, k, lce) == want
    report(3, "lcp-k-engines", "200 texts, k 0..5, exhaustive pairs")


def test_c04_algorithm1_p_lev():
    rng = random.Random(104)
    for _ in range(100):
        n = rng.randint(1, 15)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        k = rng.randint(0, 3)
        pm = PenaltyMatrix.unit("ab")
        table = p_lev_table(t, k)
        for a in range(n):
            for ap in range(n):
                dt = build_d_table(t, a, ap, pm)
                for b in range(a, n):
                    best = -1
                    for bp in range(ap - 1, n):
                        if dt.entry(b, bp) <= k:
                            best = bp
                    assert table.get(a, b, ap) == best
    report(4, "algorithm1-p-lev-table", "100 texts, n<=15, k<=3, full-DP oracle")


def test_c05_h_wave_incremental():
    """The LCE-driven suffix-pair frontier equals the furthest reach read
    straight off the full unit-cost DP of the same pair."""
    rng = random.Random(105)
    for _ in range(200):
        n = rng.randint(0, 15)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        h = rng.randint(0, 3)
        lce = ExactLce(t)
        for a in range(n):
            for ap in range(n):
                dp = full_unit_dp(t.factor(a, n - 1), t.factor(ap, n - 1))
                # per diagonal d: the largest row i with D[i][i+d] <= h, or -1
                want = [max((i for i in range(n - a + 1)
                             if 0 <= i + d <= n - ap and dp[i][i + d] <= h), default=-1)
                        for d in range(-h, h + 1)]
                assert _suffix_pair_frontier(t, a, ap, h, lce) == want, \
                    (t.to_str(), a, ap, h)
    report(5, "h-wave-incremental", "200 texts, every suffix pair, n<=15, h<=3")


def _p_entry_oracle(t: Text, pm: PenaltyMatrix, k: int) -> dict:
    """Max qualifying end per (a, b, ap), straight from full D-tables."""
    n = len(t)
    out = {}
    for a in range(n):
        for ap in range(n):
            dt = build_d_table(t, a, ap, pm)
            for b in range(a, n):
                best = -1
                for bp in range(ap - 1, n):
                    if dt.entry(b, bp) <= k:
                        best = bp
                out[(a, b, ap)] = best
    return out


def test_c06_algorithm3_p_ed():
    rng = random.Random(106)
    cases = [("unit", PenaltyMatrix.unit("ab")) for _ in range(4)]
    cases += [("random", random_metric("ab", rng)) for _ in range(20)]
    for label, pm in cases:
        n = rng.randint(1, 12)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        idx = precompute_special(t, pm)
        w = pm.max_operation_cost()
        for k in sorted({0, 1, w, 2 * w}):
            want = _p_entry_oracle(t, pm, k)
            for (a, b, ap), best in want.items():
                assert p_ed_entry(idx, a, b, ap, k) == best, (label, t, k, a, b, ap)
    report(6, "algorithm3-p-ed-entries", "unit + 20 random metrics, k up to 2w")


def test_c07_qtable_fast_equals_quadratic():
    rng = random.Random(107)
    for trial in range(100):
        n = rng.randint(1, 16)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        pm = PenaltyMatrix.unit("ab") if trial % 2 == 0 else random_metric("ab", rng)
        idx = precompute_special(t, pm)
        for a in range(n):
            for b in range(a, n):
                assert q_table_fast(t, a, b, pm, idx).values == \
                    q_table_quadratic(t, a, b, pm).values
    # both routes against the minimal-threshold tiling oracle
    for trial in range(12):
        n = rng.randint(1, 10)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        pm = PenaltyMatrix.unit("ab") if trial % 2 == 0 else random_metric("ab", rng)
        idx = precompute_special(t, pm)
        for a in range(n):
            for b in range(a, n):
                c = t.factor(a, b)
                quad = q_table_quadratic(t, a, b, pm)
                fast = q_table_fast(t, a, b, pm, idx)
                for i in range(n + 1):
                    suffix = t.factor(i, n - 1)
                    if len(suffix) == 0:
                        want = 0
                    else:
                        k = 0
                        cap = edit_distance(c, suffix, pm)
                        while oracle.brute_coverage(c, suffix, "edit", k, pm) != len(suffix):
                            k += 1
                            assert k <= cap
                        want = k
                    assert quad[i] == want and fast[i] == want
    report(7, "qtable-fast-vs-quadratic", "100 texts n<=16; tiling oracle n<=10")


def test_c08_restricted_covers_seeds_ed():
    rng = random.Random(108)
    for trial in range(12):
        n = rng.randint(2, 10)
        t = Text.from_str(random_text_str(rng, n, 2), "ab")
        pm = PenaltyMatrix.unit("ab") if trial % 2 == 0 else random_metric("ab", rng)
        rep = restricted_covers_ed(t, pm)
        brute = oracle.brute_restricted_min_k(t, "edit", pm)
        assert rep.thresholds == dict(brute)
        if brute:
            best = min(brute.values())
            assert rep.minimal == best
            assert set(rep.argmin) == {key for key, v in brute.items() if v == best}
        reps = restricted_seeds_ed(t, pm)
        bruteseed = oracle.brute_restricted_min_k(t, "edit", pm, seeds=True)
        assert reps.thresholds == dict(bruteseed)
        if bruteseed:
            best = min(bruteseed.values())
            assert reps.minimal == best
            assert set(reps.argmin) == {key for key, v in bruteseed.items() if v == best}
    report(8, "restricted-covers-seeds-edit", "argmin sets vs oracle, n<=10")


def test_c09_k0_degeneration():
    rng = random.Random(109)
    for _ in range(500):
        n = rng.randint(1, 25)
        t = Text.from_str(random_text_str(rng, n, rng.choice((2, 3))))
        got = {key for key, v in k_restricted_covers(t, 0).items() if v == 0}
        want = set()
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
                    want.add(c.to_str())
        assert got == want
    report(9, "k0-degeneration-exact-covers", "500 texts n<=25")


def test_c10_gadget_structural_scans():
    start = time.perf_counter()
    density_memo: dict = {}
    pair_memo: dict = {}
    instances = 0
    for m in (1, 2, 3):
        for length in (1, 2, 3):
            for k in (0, 1, 2):
                if k > length:
                    continue
                words = ["".join(bits) for bits in product("01", repeat=length)]
                for combo in product(words, repeat=m):
                    inst = ConsensusInstance(tuple(combo), k)
                    for s in set(combo):
                        if (s, k) not in density_memo:
                            density_memo[(s, k)] = validate_phi_density(
                                ConsensusInstance((s,), k)).holds
                        assert density_memo[(s, k)], (s, k)
                    for x in set(combo):
                        for y in set(combo):
                            if (x, y, k) not in pair_memo:
                                pair_memo[(x, y, k)] = validate_prefix_suffix_overlaps(
                                    ConsensusInstance((x, y), k)).holds
                            assert pair_memo[(x, y, k)], (x, y, k)
                    instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 10 budget exceeded: {elapsed:.1f}s"
    report(10, "gadget-structural-scans",
           f"{instances} instances (m<=3, l<=3, k<=2), {elapsed:.1f}s")


def test_c11_reduction_forward():
    checked = 0
    for m in (1, 2):
        for length in (1, 2):
            for k in (0, 1):
                if k > length:
                    continue
                words = ["".join(bits) for bits in product("01", repeat=length)]
                for combo in product(words, repeat=m):
                    inst = ConsensusInstance(tuple(combo), k)
                    verdict = reduction_forward_check(inst)
                    assert verdict.passed, (combo, k, verdict)
                    if verdict.consensus is None:
                        continue
                    assert verdict.cover_coverage_ok
                    assert verdict.start_occ_ok
                    assert verdict.seed_ok
                    assert verdict.psi_roundtrip_ok
                    # psi round-trip identity, asserted directly as well
                    assert psi(gamma(verdict.consensus, k), k, length) == verdict.consensus
                    enc = build_cover_instance(inst)
                    starts = oracle.brute_occurrences(
                        Text.from_str(gamma(verdict.consensus, k), "01"),
                        enc.as_text(), "hamming", k).starts()
                    assert starts == [i * enc.target_length for i in range(m)]
                    checked += 1
    report(11, "reduction-forward-direction", f"{checked} instances with consensus")


def _trend(result: bench.BenchResult) -> bool:
    soft = result.bound + 1.0
    if result.ratio <= soft:
        return True
    warnings.warn(
        f"{result.task}: ratio {result.ratio:.2f} exceeded soft bound {soft:.1f} "
        "(informational; machine may be loaded)")
    return False


def test_c12_complexity_trends():
    results = [
        bench.bench_prefix_sweep(n=2 ** 15, repeats=3),
        bench.bench_factor_hamming(n=160, repeats=3),
        bench.bench_factor_lev(n=96, repeats=3),
    ]
    lines = []
    for r in results:
        ok = _trend(r)
        lines.append(f"{r.task}: ratio {r.ratio:.2f} vs bound {r.bound:.0f}+1"
                     f" -> {'ok' if ok else 'WARN (downgraded)'}")
    detail = "; ".join(lines)
    report(12, "complexity-trends", detail)
