"""Seeded inputs and the fixed request list of each benchmark workload.

Every text, penalty file and consensus instance is generated here from the
workload seed and written to a file; the program under test sees them only
as file arguments of ordinary ``quasicover`` command lines.

Why each workload exists (shares are seed-commit observations on 2 vCPUs,
CPython 3.11):

* ``ham`` -- Hamming only, random binary/quaternary texts.  lcpk, hamcover
  and row emission do all the work and outputs are MB-scale; editcover and
  restricted stay idle, so edit-side changes must leave it unchanged.
  Seed commit: ``ExactLce`` ~46% and emission ~17% of the n=32768 prefix
  request; candidate dedup ~58% of ``covers --k 2`` at n=400.
* ``edit`` -- Levenshtein and weighted edit distance under a non-unit
  penalty file.  The special-point index and the Q-tables dominate and
  hamcover stays idle.  Seed commit: ``precompute_special`` ~94% of a
  weighted seeds request and ~55% of a covers request; Q-tables ~44% of a
  covers request.
* ``repeats`` -- the same families on planted approximate-period texts,
  some with 1-5% wildcards, plus the consensus gadget.  Few distinct
  factors and dense occurrences shift the work towards the index build
  and wildcard-interrupted LCE jumps.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("ham", "edit", "repeats")

WILDCARD = "?"


@dataclass
class Request:
    """One request class: a fixed command line plus how to check its rows."""

    name: str
    group: str  # "coverage", "covers", "seeds" or "gadget"
    argv: list[str]
    check: dict = field(default_factory=dict)


def random_text(rng: random.Random, n: int, alphabet: str) -> str:
    return "".join(rng.choice(alphabet) for _ in range(n))


def planted_text(rng: random.Random, n: int, alphabet: str, period: int,
                 mutate: float, wildcards: float = 0.0) -> str:
    """A random word of length ``period`` repeated to length n, then noised.

    Exactly ``round(mutate * n)`` random positions get a different symbol
    and ``round(wildcards * n)`` others become wildcards; fixed counts keep
    the work per request from varying much between seeds.
    """
    word = random_text(rng, period, alphabet)
    out = [word[i % period] for i in range(n)]
    n_mut, n_wild = round(mutate * n), round(wildcards * n)
    spots = rng.sample(range(n), n_mut + n_wild)
    for i in spots[:n_mut]:
        out[i] = rng.choice([c for c in alphabet if c != out[i]])
    for i in spots[n_mut:]:
        out[i] = WILDCARD
    return "".join(out)


def bordered_text(rng: random.Random, n: int, alphabet: str, period: int,
                  mutate: float) -> str:
    """Planted-period text that starts and ends with the same exact word,
    so it always has a border of length ``period``."""
    word = random_text(rng, period, alphabet)
    middle = planted_text(rng, n - 2 * period, alphabet, period, mutate)
    return word + middle + word


def proper_factors(s: str) -> set[str]:
    """Distinct proper factors: the candidates of a covers request."""
    n = len(s)
    return {s[a:b] for a in range(n) for b in range(a + 1, n + 1) if b - a < n}


def _cover_level(c: str, s: str) -> int:
    """Least Hamming budget at which c covers s: the bottleneck over chains
    of occurrence starts from 0 to |s|-|c| with gaps of at most |c|."""
    m = len(c)
    best: list[int] = []
    for i in range(len(s) - m + 1):
        d = sum(x != y for x, y in zip(c, s[i:i + m]))
        best.append(d if i == 0 else max(d, min(best[max(0, i - m):i])))
    return best[-1]


def escalate_text(rng: random.Random, n: int, level: int) -> str:
    """Random binary text whose proper factors all resolve by ``level``, with
    at least one needing it.  ``covers --escalate`` reruns every level up to
    this one, so its cost grows with the square of the level; fixing the
    level keeps that cost from swinging between seeds."""
    while True:
        s = random_text(rng, n, "ab")
        if max(_cover_level(c, s) for c in proper_factors(s)) == level:
            return s


#: Weighted, non-unit penalty file.  Every cost is 1 or 2, so any two
#: costs sum to at least the largest one and the triangle inequality holds
#: for every triple; substitution is symmetric and insertion equals
#: deletion, as the metric axioms require.  It is fixed rather than seeded
#: so that the work per request does not vary with the seed.
PENALTY = """alphabet abc
sub 0 1 2
sub 1 0 2
sub 2 2 0
ins 1 2 2
del 1 2 2
"""


def gadget_gamma(s: str, k: int) -> str:
    """Block encoding of one consensus string, written from the construction
    in the source paper so that gadget output is checked independently."""
    pad = "0" * (2 * k + 4)
    marks = {"0": "1010", "1": "1011"}
    return "1" * (2 * k + 4) + "".join(pad + marks[ch] + pad for ch in s)


def gadget_texts(strings: list[str], k: int) -> tuple[tuple[str, int], tuple[str, int]]:
    """(cover text, target length) and (seed text, target length)."""
    gammas = [gadget_gamma(s, k) for s in strings]
    ones = "1" * (2 * k + 4)
    cover = "".join(gammas)
    seed = gammas[0] + cover + ones + gammas[-1] + ones
    return (cover, len(gammas[0])), (seed, len(gammas[0]) + 2 * k + 4)


class _Writer:
    """Writes generated inputs into one directory and builds requests."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.requests: list[Request] = []

    def file(self, name: str, content: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(content)
        return path

    def add(self, name: str, group: str, args: list[str], text: str,
            kind: str, **check) -> None:
        path = self.file(name + ".txt", text + "\n")
        self.requests.append(Request(name, group, [args[0], path, *args[1:]],
                                     dict(kind=kind, text=text, **check)))


def _ham(w: _Writer, rng: random.Random) -> None:
    w.add("prefix_k2_n32768", "coverage",
          ["coverage", "--mode", "prefix", "--k", "2"],
          random_text(rng, 32768, "ab"), "prefix", metric="hamming", k=2)
    w.add("factor_k1_n300", "coverage",
          ["coverage", "--mode", "factor", "--k", "1"],
          random_text(rng, 300, "abcd"), "factor", metric="hamming", k=1)
    w.add("enh_exact_k2_n20000", "coverage",
          ["enhanced", "--variant", "exact-border", "--k", "2"],
          bordered_text(rng, 20000, "ab", 60, 0.02),
          "enhanced", variant="exact-border", k=2)
    w.add("enh_approx_k1_n200", "coverage",
          ["enhanced", "--variant", "approx-border", "--k", "1"],
          random_text(rng, 200, "ab"), "enhanced", variant="approx-border", k=1)
    w.add("covers_k2_n300", "covers", ["covers", "--k", "2"],
          random_text(rng, 300, "ab"), "covers", metric="hamming", k=2)
    w.add("covers_escalate_n32", "covers", ["covers", "--escalate"],
          escalate_text(rng, 32, 18), "covers", metric="hamming", k=32)
    w.add("seeds_k2_n300", "seeds", ["seeds", "--k", "2"],
          random_text(rng, 300, "abcd"), "seeds", metric="hamming", k=2)


def _edit(w: _Writer, rng: random.Random) -> None:
    pen = PENALTY
    weighted = ["--distance", "edit", "--penalty", w.file("penalty.txt", pen)]
    w.add("lev_factor_k2_n96", "coverage",
          ["coverage", "--mode", "factor", "--distance", "levenshtein", "--k", "2"],
          random_text(rng, 96, "ab"), "factor", metric="levenshtein", k=2)
    w.add("ed_factor_k2_n24", "coverage",
          ["coverage", "--mode", "factor", "--k", "2", *weighted],
          random_text(rng, 24, "abc"), "factor", metric="edit", k=2, penalty=pen)
    w.add("ed_prefix_k3_n120", "coverage",
          ["coverage", "--mode", "prefix", "--k", "3", *weighted],
          random_text(rng, 120, "abc"), "prefix", metric="edit", k=3, penalty=pen)
    w.add("ed_covers_n40", "covers", ["covers", *weighted],
          random_text(rng, 40, "abc"), "covers", metric="edit", penalty=pen)
    w.add("unit_covers_n48", "covers",
          ["covers", "--distance", "edit", "--penalty", "unit"],
          random_text(rng, 48, "abcd"), "covers", metric="edit", penalty="unit")
    w.add("ed_seeds_n22", "seeds", ["seeds", *weighted],
          random_text(rng, 22, "abc"), "seeds", metric="edit", penalty=pen)


def _repeats(w: _Writer, rng: random.Random) -> None:
    pen = PENALTY
    weighted = ["--distance", "edit", "--penalty", w.file("penalty.txt", pen)]
    w.add("wc_prefix_k2_n32768", "coverage",
          ["coverage", "--mode", "prefix", "--k", "2"],
          planted_text(rng, 32768, "abcd", 40, 0.03, 0.01),
          "prefix", metric="hamming", k=2)
    # One Q-table per distinct candidate: keep their number within +-3%.
    covers_text = planted_text(rng, 40, "abc", 5, 0.05, 0.05)
    while not 630 <= len(proper_factors(covers_text)) <= 670:
        covers_text = planted_text(rng, 40, "abc", 5, 0.05, 0.05)
    w.add("wc_ed_covers_n40", "covers", ["covers", *weighted], covers_text,
          "covers", metric="edit", penalty=pen)
    w.add("rep_lev_factor_k2_n96", "coverage",
          ["coverage", "--mode", "factor", "--distance", "levenshtein", "--k", "2"],
          planted_text(rng, 96, "ab", 6, 0.05),
          "factor", metric="levenshtein", k=2)
    w.add("rep_ed_seeds_n22", "seeds", ["seeds", *weighted],
          planted_text(rng, 22, "abc", 4, 0.05),
          "seeds", metric="edit", penalty=pen)
    m, length, k = 3, 3, 1
    strings = [random_text(rng, length, "01") for _ in range(m)]
    inst = w.file("instance.txt", f"{m} {length} {k}\n" + "\n".join(strings) + "\n")
    (cover, c), (seed, cs) = gadget_texts(strings, k)
    w.requests.append(Request("gadget_cover", "gadget", ["gadget", "build-cover", inst],
                              dict(kind="gadget", expected=f"{cover}\t{c}")))
    w.requests.append(Request("gadget_seed", "gadget", ["gadget", "build-seed", inst],
                              dict(kind="gadget", expected=f"{seed}\t{cs}")))
    w.add("gadget_covers_k1_n%d" % len(cover), "covers", ["covers", "--k", "1"],
          cover, "covers", metric="hamming", k=1)
    w.add("gadget_seeds_k1_n%d" % len(seed), "seeds", ["seeds", "--k", "1"],
          seed, "seeds", metric="hamming", k=1)


_GENERATORS = {"ham": _ham, "edit": _edit, "repeats": _repeats}


def build(workload: str, seed: int, workdir: str) -> list[Request]:
    """Write the inputs of one workload under ``workdir``; return its requests."""
    w = _Writer(workdir)
    _GENERATORS[workload](w, random.Random(f"{workload}:{seed}"))
    return w.requests
