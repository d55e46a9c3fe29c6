"""Shared generators and reference helpers for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from bisect import bisect_left, bisect_right
from itertools import groupby, pairwise, repeat
from operator import add

import pytest

import quasicover
from quasicover.editcover import _EditCosts
from quasicover.restricted import RestrictedReport
from quasicover.textcore import WILDCARD, Candidates, PenaltyMatrix, Text, symbols_match


def run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run a script in a fresh interpreter that imports this quasicover."""
    src = os.path.dirname(os.path.dirname(quasicover.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)


def random_text_str(rng: random.Random, n: int, sigma: int = 2,
                    wildcard_prob: float = 0.0) -> str:
    alphabet = "abcd"[:sigma]
    out = []
    for _ in range(n):
        if wildcard_prob and rng.random() < wildcard_prob:
            out.append("?")
        else:
            out.append(rng.choice(alphabet))
    return "".join(out)


def random_metric(alphabet: str, rng: random.Random, max_cost: int = 8) -> PenaltyMatrix:
    """Random valid integer metric: symmetric costs closed under triangles."""
    sigma = len(alphabet)
    pts = sigma + 1  # last point is the empty string
    c = [[0] * pts for _ in range(pts)]
    for i in range(pts):
        for j in range(i + 1, pts):
            c[i][j] = c[j][i] = rng.randint(1, max_cost)
    for m in range(pts):  # metric closure keeps integrality and positivity
        for i in range(pts):
            for j in range(pts):
                if c[i][m] + c[m][j] < c[i][j]:
                    c[i][j] = c[i][m] + c[m][j]
    sub = [[c[i][j] for j in range(sigma)] for i in range(sigma)]
    eps = [c[sigma][i] for i in range(sigma)]
    return PenaltyMatrix(alphabet, sub, eps, eps)


def scaled(p: PenaltyMatrix, c: int) -> PenaltyMatrix:
    """Every cost of ``p`` times c."""
    return PenaltyMatrix(p.alphabet, [[c * x for x in row] for row in p.sub],
                         [c * x for x in p.ins], [c * x for x in p.dele])


def naive_lcp_k(t: Text, i: int, j: int, k: int) -> int:
    """Character-by-character lcp with a mismatch budget."""
    n = len(t)
    total = 0
    budget = k
    while max(i, j) + total < n:
        if symbols_match(t[i + total], t[j + total]):
            total += 1
        elif budget > 0:
            budget -= 1
            total += 1
        else:
            break
    return total


def full_unit_dp(t1: Text, t2: Text) -> list[list[int]]:
    """Length-indexed unit-cost D-table with wildcard-matching substitutions."""
    m, n2 = len(t1), len(t2)
    d = [[0] * (n2 + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        for j in range(n2 + 1):
            if i == 0:
                d[i][j] = j
            elif j == 0:
                d[i][j] = i
            else:
                d[i][j] = min(
                    d[i - 1][j - 1] + (0 if symbols_match(t1[i - 1], t2[j - 1]) else 1),
                    d[i][j - 1] + 1,
                    d[i - 1][j] + 1)
    return d


def free_start_rows(costs: _EditCosts, a: int, height: int) -> list[list[int]]:
    """Rows r = 0 .. height-1 of Sellers' approximate-matching DP on plain
    lists: entry x of row r is the least cost of turning T[a, a+r-1] into
    some window T[y, x-1] with y <= x, for x = 0 .. n."""
    syms, ins = costs.symbols, costs.ins
    rows = [[0] * (len(syms) + 1)]
    for b in range(a, a + height - 1):
        up, sub, dl = rows[-1], costs.sub[syms[b]], costs.dele[b]
        row = [up[0] + dl]
        for x in range(1, len(syms) + 1):
            row.append(min(up[x - 1] + sub[x - 1], up[x] + dl, row[x - 1] + ins[x - 1]))
        rows.append(row)
    return rows


def candidate_factors(candidates: Candidates) -> list[tuple[int, int, str]]:
    """(a, b, key) for every candidate key = target[a, b], in target
    coordinates, by start, then by end."""
    shift, s = candidates.shift, candidates.text
    return [(a + shift, a + shift + length - 1, s[a:a + length])
            for a, (lo, hi) in enumerate(zip(candidates.lo, candidates.hi))
            for length in range(lo + 1, hi + 1)]


def row_order(items) -> list:
    """(key, value) pairs by key length, then by key: the order of report rows."""
    return sorted(items, key=lambda item: (len(item[0]), item[0]))


def column_combine_report(target: Text, candidates: Candidates,
                          p: PenaltyMatrix) -> RestrictedReport:
    """Reference for ``restricted._report_for_candidates``: the same F and H
    rows, stored as one column of plain ints per position, and cov(x) as one
    ``min`` of a column sum per candidate and position (O(n^4) additions)."""
    costs = _EditCosts(target, p)
    rev = _EditCosts(Text(target.symbols[::-1], target.alphabet, target.wildcard_char), p)
    m = len(target)
    wild_run = []
    for wild, run in groupby(target.symbols, WILDCARD.__eq__):
        size = len(list(run))
        wild_run += [size if wild else 0] * size
    factors = candidate_factors(candidates)
    lowest: dict[int, int] = {}
    for a, b, _ in factors:
        lowest.setdefault(b, a)
    h_cols = {}
    for b, lo in lowest.items():
        r_rows = free_start_rows(rev, m - 1 - b, b - lo + 2)
        h_rows = [rev.ins]
        for j, (done, row) in zip(range(m - 1 - b, m - lo), pairwise(r_rows)):
            h_rows.append(list(map(min, map(add, rev.ins, row),
                                   map(add, rev.sub[rev.symbols[j]], done))))
        h_rows.reverse()
        h_cols[b] = lo, list(zip(*h_rows))[::-1]
    thresholds = {}
    f_cols = {}  # per start a: rows up to its longest candidate, hi + 1 of them
    for a, b, key in factors:
        if a not in f_cols:
            height = candidates.hi[a - candidates.shift] + 1
            f_cols[a] = list(zip(*free_start_rows(costs, a, height)))
        lo, cols = h_cols[b]
        off = a - lo
        length = b - a + 1
        keep = [x for x, w in enumerate(wild_run) if w < length]
        xs = keep[:bisect_left(keep, a)] + keep[bisect_right(keep, b):]
        thresholds[key] = max(map(min, map(map, repeat(add), [f_cols[a][x] for x in xs],
                                           [cols[x][off:] for x in xs])), default=0)
    return RestrictedReport(dict(row_order(thresholds.items())),
                            min(thresholds.values(), default=None))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
