"""Executable NP-hardness constructions for the general cover/seed problems.

A Hamming consensus instance is encoded into a binary text whose
length-c approximate covers correspond to consensus strings.  Everything
here is desk-scale and verifiable: the morphism and its inverse, both text
constructions, and validators for the structural facts the reduction rests
on (bounded ones per window, no short mismatch-light prefix-suffix overlaps,
and the forward direction itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .oracle import (
    BudgetExceededError,
    DEFAULT_CANDIDATE_BUDGET,
    brute_consensus,
    brute_coverage,
    brute_general_cover_exists,
    brute_is_seed,
    brute_occurrences,
)
from .textcore import Text

BINARY_ALPHABET = "01"


@dataclass(frozen=True)
class ConsensusInstance:
    """Equal-length binary strings plus a mismatch budget."""

    strings: tuple[str, ...]
    k: int

    def __post_init__(self):
        if not self.strings:
            raise ValueError("instance needs at least one string")
        length = len(self.strings[0])
        for s in self.strings:
            if len(s) != length:
                raise ValueError("instance strings must have equal length")
            if set(s) - set("01"):
                raise ValueError(f"instance strings must be binary, got {s!r}")
        if not 0 <= self.k <= length:
            raise ValueError(f"budget {self.k} outside [0, {length}]")

    @property
    def m(self) -> int:
        return len(self.strings)

    @property
    def length(self) -> int:
        return len(self.strings[0])


def parse_instance(content: str) -> ConsensusInstance:
    """Instance file: first line "m l k", then m lines of l binary digits."""
    lines = [line.strip() for line in content.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty instance file")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"expected 'm l k' header, got {lines[0]!r}")
    try:
        m, length, k = (int(x) for x in head)
    except ValueError as exc:
        raise ValueError(f"non-integer header field in {lines[0]!r}") from exc
    body = lines[1:]
    if len(body) != m:
        raise ValueError(f"expected {m} strings, found {len(body)}")
    for s in body:
        if len(s) != length:
            raise ValueError(f"string {s!r} does not have declared length {length}")
    return ConsensusInstance(tuple(body), k)


def format_instance(inst: ConsensusInstance) -> str:
    lines = [f"{inst.m} {inst.length} {inst.k}"]
    lines.extend(inst.strings)
    return "\n".join(lines) + "\n"


def phi(s: str, k: int) -> str:
    """Per-symbol image: zeros around a 101x marker, 4k+12 bits per symbol."""
    pad = "0" * (2 * k + 4)
    images = {"0": pad + "1010" + pad, "1": pad + "1011" + pad}
    try:
        return "".join(images[ch] for ch in s)
    except KeyError:
        bad = next(ch for ch in s if ch not in images)
        raise ValueError(f"phi is defined on binary strings only, got {bad!r}")


def gamma(s: str, k: int) -> str:
    """Block encoding of one instance string: a ones run, then phi(s)."""
    return "1" * (2 * k + 4) + phi(s, k)


def psi(u: str, k: int, length: int) -> str:
    """Invert the encoding: read the distinguishing bit of each block.

    Block j of an encoded string keeps its payload bit at position
    j*(4k+12) - 1, for j = 1..length.
    """
    unit = 4 * k + 12
    if len(u) < length * unit:
        raise ValueError(f"input of length {len(u)} too short for {length} blocks of {unit}")
    return "".join(u[j * unit - 1] for j in range(1, length + 1))


@dataclass(frozen=True)
class GadgetEncoding:
    """One encoded text with its target candidate length."""

    kind: str  # "cover" or "seed"
    instance: ConsensusInstance
    gammas: tuple[str, ...]
    text: str
    target_length: int

    @property
    def k(self) -> int:
        return self.instance.k

    def as_text(self) -> Text:
        return Text.from_str(self.text, BINARY_ALPHABET)


def build_cover_instance(inst: ConsensusInstance) -> GadgetEncoding:
    """T = gamma_1 ... gamma_m with target length c = |gamma_i|."""
    gammas = tuple(gamma(s, inst.k) for s in inst.strings)
    return GadgetEncoding("cover", inst, gammas, "".join(gammas), len(gammas[0]))


def build_seed_instance(inst: ConsensusInstance) -> GadgetEncoding:
    """T' doubles the first block and re-anchors the last one behind ones runs.

    T' = gamma_1 gamma_1 gamma_2 ... gamma_m 1^{2k+4} gamma_m 1^{2k+4},
    target length c' = |gamma_1| + 2k + 4.
    """
    gammas = tuple(gamma(s, inst.k) for s in inst.strings)
    ones = "1" * (2 * inst.k + 4)
    text = gammas[0] + "".join(gammas) + ones + gammas[-1] + ones
    return GadgetEncoding("seed", inst, gammas, text, len(gammas[0]) + 2 * inst.k + 4)


@dataclass
class ScanVerdict:
    """Outcome of one exhaustive structural scan."""

    holds: bool
    violations: list[tuple] = field(default_factory=list)


def validate_phi_density(inst: ConsensusInstance) -> ScanVerdict:
    """Every length-(2k+4) window of every phi image has at most three ones."""
    width = 2 * inst.k + 4
    violations = []
    for i, s in enumerate(inst.strings):
        u = phi(s, inst.k)
        ones = sum(1 for ch in u[:width] if ch == "1")
        if ones > 3:
            violations.append((i, 0, ones))
        for start in range(1, len(u) - width + 1):
            ones += (u[start + width - 1] == "1") - (u[start - 1] == "1")
            if ones > 3:
                violations.append((i, start, ones))
    return ScanVerdict(not violations, violations)


def _hamming_exceeds(u: str, v: str, bound: int) -> bool:
    """True as soon as more than `bound` mismatches are seen."""
    seen = 0
    for x, y in zip(u, v):
        if x != y:
            seen += 1
            if seen > bound:
                return True
    return False


def validate_prefix_suffix_overlaps(inst: ConsensusInstance) -> ScanVerdict:
    """No 2k-mismatch prefix-suffix of length 2k+4 .. |gamma|-1 between blocks.

    Exhaustive over every ordered block pair and every length in range;
    identical block pairs are scanned once.
    """
    k = inst.k
    gammas = [gamma(s, k) for s in inst.strings]
    glen = len(gammas[0])
    violations = []
    seen_pairs: set[tuple[str, str]] = set()
    for i, gi in enumerate(gammas):
        for j, gj in enumerate(gammas):
            if (gi, gj) in seen_pairs:
                continue
            seen_pairs.add((gi, gj))
            for p in range(2 * k + 4, glen):
                if not _hamming_exceeds(gi[:p], gj[glen - p:], 2 * k):
                    violations.append((i, j, p))
    return ScanVerdict(not violations, violations)


@dataclass
class ReductionVerdict:
    """Forward-direction check of the reduction on one instance.

    ``None`` fields were vacuous (no consensus) or skipped (budget); notes
    explain any skip.
    """

    consensus: str | None
    cover_coverage_ok: bool | None = None
    start_occ_ok: bool | None = None
    seed_ok: bool | None = None
    psi_roundtrip_ok: bool | None = None
    converse_checked: bool = False
    converse_ok: bool | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        checks = (self.cover_coverage_ok, self.start_occ_ok, self.seed_ok,
                  self.psi_roundtrip_ok, self.converse_ok)
        return all(c is not False for c in checks)


def reduction_forward_check(inst: ConsensusInstance,
                            budget: int = DEFAULT_CANDIDATE_BUDGET) -> ReductionVerdict:
    """Check what the reduction promises, with brute-force machinery only.

    With a consensus S: the encoded candidate covers T exactly at the block
    starts, its widened form is a seed of T', and decoding it returns S.
    Without one: no length-c cover of T may exist; that converse search is
    budget-gated and reported as skipped when too large.
    """
    k = inst.k
    cover = build_cover_instance(inst)
    consensus = brute_consensus(inst.strings, k, budget)
    verdict = ReductionVerdict(consensus)
    t_text = cover.as_text()
    c = cover.target_length
    if consensus is not None:
        cand = gamma(consensus, k)
        cand_text = Text.from_str(cand, BINARY_ALPHABET)
        verdict.cover_coverage_ok = (
            brute_coverage(cand_text, t_text, "hamming", k) == len(cover.text))
        starts = {i for i, _ in brute_occurrences(cand_text, t_text, "hamming", k)}
        verdict.start_occ_ok = starts == {i * c for i in range(inst.m)}
        seed = build_seed_instance(inst)
        seed_cand = cand + "1" * (2 * k + 4)
        verdict.seed_ok = brute_is_seed(
            Text.from_str(seed_cand, BINARY_ALPHABET),
            seed.as_text(), "hamming", k)
        verdict.psi_roundtrip_ok = psi(cand, k, inst.length) == consensus
    else:
        try:
            witness = brute_general_cover_exists(t_text, c, "hamming", k, budget=budget)
            verdict.converse_checked = True
            verdict.converse_ok = witness is None
        except BudgetExceededError as exc:
            verdict.notes.append(f"converse skipped: {exc}")
    return verdict
