"""Row selection and oracle checks for sampled output rows.

Runs after the timed passes, never inside them.  Every request class gets
a seeded random sample of its output rows, as many as a fixed brute-force
budget allows, and each sampled row is compared with ``quasicover.oracle``:

* coverage rows: the coverage equals ``brute_coverage``;
* covers/seeds rows: the factor is an approximate cover/seed at the
  reported threshold and not one below it; a ``none`` row is not one at k;
* enhanced rows: the candidate's coverage equals ``brute_coverage`` and the
  candidate is an (exact or approximate) border;
* gadget rows: the text equals an independent encoding of the instance.

:func:`self_test` corrupts one row per class and requires the check to
reject it, so a checker that accepts everything cannot pass.
"""

from __future__ import annotations

import random

from quasicover.oracle import brute_coverage, brute_is_cover, brute_is_seed
from quasicover.textcore import PenaltyMatrix, Text

#: Brute-force work spent on the sampled rows of one request class, a third
#: of a second or so on the reference host: symbol comparisons for Hamming, DP
#: cells for edit metrics.
HAMMING_BUDGET = 6_000_000
EDIT_BUDGET = 400_000
#: Rows sampled per request class at most.
MAX_SAMPLES = 200


def _penalty(check: dict) -> PenaltyMatrix | None:
    """The penalty matrix a request used, parsed from the file it was given."""
    spec = check.get("penalty")
    if spec is None:
        return None
    if spec == "unit":
        return PenaltyMatrix.unit("".join(sorted(set(check["text"]) - {"?"})))
    fields = {}
    sub = []
    for line in spec.splitlines():
        head, *rest = line.split()
        if head == "sub":
            sub.append([int(x) for x in rest])
        else:
            fields[head] = rest
    return PenaltyMatrix(fields["alphabet"][0], sub,
                         [int(x) for x in fields["ins"]], [int(x) for x in fields["del"]])


class Subject:
    """The text of one request plus what its rows are checked against."""

    def __init__(self, check: dict):
        self.check = check
        self.kind = check["kind"]
        self.metric = check.get("metric", "hamming")
        self.k = check.get("k", 0)
        self.p = _penalty(check)
        raw = check.get("text", "")
        self.raw = raw
        self.text = Text.from_str(raw, self.p.alphabet if self.p else None)
        n = len(raw)
        if self.kind == "prefix":
            self.keys = [(0, b) for b in range(n)]
        elif self.kind == "factor":
            self.keys = [(a, b) for a in range(n) for b in range(a, n)]
        elif self.kind in ("covers", "seeds"):
            ok = (lambda m: m < n) if self.kind == "covers" else (lambda m: 2 * m <= n)
            distinct = {raw[a:b + 1] for a in range(n) for b in range(a, n)
                        if ok(b - a + 1)}
            self.keys = sorted(distinct, key=lambda s: (len(s), s))
        else:
            self.keys = [None]

    def cost(self, line: int) -> int:
        key = self.keys[line]
        if self.kind in ("prefix", "factor"):
            length, target, tries = key[1] - key[0] + 1, len(self.raw), 1
        elif self.kind in ("covers", "seeds"):
            length, tries = len(key), 2
            target = len(self.raw) * (3 if self.kind == "seeds" else 1)
        else:
            return 0
        if self.metric == "hamming":
            return tries * (target - length + 1) * length
        return tries * length * target * target // 2

    def sample_lines(self, rng: random.Random) -> list[int]:
        """Random rows, drawn until the class's check budget is spent; rows
        that no longer fit are skipped."""
        budget = HAMMING_BUDGET if self.metric == "hamming" else EDIT_BUDGET
        order = list(range(len(self.keys)))
        rng.shuffle(order)
        chosen = []
        for line in order:
            cost = self.cost(line)
            if cost <= budget:
                chosen.append(line)
                budget -= cost
                if len(chosen) == MAX_SAMPLES:
                    break
        return sorted(chosen)

    # -- checks -----------------------------------------------------------
    def _pattern(self, s: str) -> Text:
        return Text.from_str(s, self.text.alphabet)

    def _coverage(self, s: str) -> int:
        return brute_coverage(self._pattern(s), self.text, self.metric, self.k, self.p)

    def _holds(self, s: str, level: int) -> bool:
        fn = brute_is_cover if self.kind == "covers" else brute_is_seed
        return fn(self._pattern(s), self.text, self.metric, level, self.p)

    def check_row(self, line: int, row: str) -> str | None:
        """None when the row is right, otherwise what is wrong with it."""
        cols = row.split("\t")
        key = self.keys[line] if line < len(self.keys) else None
        if self.kind == "gadget":
            return None if row == self.check["expected"] else "gadget text differs"
        if self.kind in ("prefix", "factor"):
            a, b = key
            want = [str(b + 1)] if self.kind == "prefix" else [str(a), str(b)]
            if cols[:-1] != want:
                return f"row {line} is {cols[:-1]}, expected {want}"
            cov = self._coverage(self.raw[a:b + 1])
            return None if cols[-1] == str(cov) else f"coverage {cols[-1]} != oracle {cov}"
        if self.kind == "enhanced":
            return self._check_enhanced(cols)
        if cols[0] != key:
            return f"row {line} factor {cols[0]!r}, expected {key!r}"
        if cols[1] == "none":
            return f"{key!r} is a solution at k={self.k}" if self._holds(key, self.k) else None
        level = int(cols[1])
        if not self._holds(key, level):
            return f"{key!r} fails at its threshold {level}"
        if level > 0 and self._holds(key, level - 1):
            return f"{key!r} already holds below its threshold {level}"
        return None

    def _check_enhanced(self, cols: list[str]) -> str | None:
        if cols[0] == "none":
            return "no candidate reported for a text that has a border"
        cand, start, end, cov = cols[0], int(cols[1]), int(cols[2]), cols[3]
        raw = self.raw
        if raw[start:end + 1] != cand:
            return "candidate does not match its location"
        if self.check["variant"] == "exact-border":
            if start != 0 or not raw.endswith(cand):
                return "candidate is not a border"
        else:
            n, m = len(raw), len(cand)
            mism = [sum(x != y for x, y in zip(cand, raw[off:off + m])) for off in (0, n - m)]
            if max(mism) > self.k:
                return "candidate is not a k-approximate border"
        want = self._coverage(cand)
        return None if cov == str(want) else f"coverage {cov} != oracle {want}"

    def check_rows(self, rows: dict[int, str]) -> list[str]:
        errors = [f"line {i}: {e}" for i, row in sorted(rows.items())
                  if (e := self.check_row(i, row)) is not None]
        if self.kind in ("covers", "seeds") and self.metric == "edit":
            errors += _minimal_flags(rows)
        return errors


def _minimal_flags(rows: dict[int, str]) -> list[str]:
    """Rows flagged minimal share one threshold, below every unflagged row."""
    parsed = [row.split("\t") for row in rows.values()]
    flagged = {int(c[1]) for c in parsed if c[2] == "1"}
    others = [int(c[1]) for c in parsed if c[2] == "0"]
    if len(flagged) > 1 or (flagged and min(others, default=max(flagged) + 1) <= max(flagged)):
        return [f"inconsistent minimal flags {parsed}"]
    return []


def corrupt(subject: Subject, row: str) -> str:
    """The same row with its reported value made wrong."""
    cols = row.split("\t")
    if subject.kind == "gadget":
        return ("0" if row[0] == "1" else "1") + row[1:]
    if subject.kind == "enhanced":
        cols[3] = str(int(cols[3]) + 1)
    elif subject.kind in ("prefix", "factor"):
        cols[-1] = str(int(cols[-1]) + 1)
    else:
        cols[1] = "0" if cols[1] == "none" else str(int(cols[1]) + 1)
    return "\t".join(cols)


def self_test(subject: Subject, rows: dict[int, str]) -> bool:
    """True when the check rejects a corrupted copy of the first sampled row."""
    if not rows:
        return False
    line, row = min(rows.items())
    return subject.check_row(line, corrupt(subject, row)) is not None
