from itertools import product

import pytest

from quasicover import oracle
from quasicover.gadget import (
    ConsensusInstance,
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
from quasicover.textcore import Text


def all_binary(length: int) -> list[str]:
    return ["".join(bits) for bits in product("01", repeat=length)]


def test_phi_examples():
    assert phi("0", 0) == "000010100000"
    assert phi("1", 0) == "000010110000"
    assert phi("", 2) == ""
    for k in range(3):
        for s in ("0", "01", "110"):
            assert len(phi(s, k)) == len(s) * (4 * k + 12)
    with pytest.raises(ValueError):
        phi("02", 1)


def test_instance_validation():
    with pytest.raises(ValueError):
        ConsensusInstance((), 0)
    with pytest.raises(ValueError):
        ConsensusInstance(("01", "0"), 0)
    with pytest.raises(ValueError):
        ConsensusInstance(("01", "02"), 0)
    with pytest.raises(ValueError):
        ConsensusInstance(("01",), 3)


def test_build_cover_instance():
    enc = build_cover_instance(ConsensusInstance(("0",), 0))
    assert enc.text == "1111000010100000"
    assert enc.target_length == 16
    inst = ConsensusInstance(("01", "10"), 0)
    enc = build_cover_instance(inst)
    assert enc.target_length == 28
    assert len(enc.text) == 56
    for m in (1, 2, 3):
        for length in (1, 2):
            for k in (0, 1):
                inst = ConsensusInstance(("0" * length,) * m, k)
                enc = build_cover_instance(inst)
                assert len(enc.text) == m * ((2 * k + 4) + length * (4 * k + 12))


def test_build_seed_instance_structure():
    for m, length, k in [(1, 1, 0), (2, 2, 1), (3, 1, 1)]:
        strings = tuple(all_binary(length)[i % (2 ** length)] for i in range(m))
        inst = ConsensusInstance(strings, k)
        enc = build_seed_instance(inst)
        gammas = [gamma(s, k) for s in strings]
        ones = "1" * (2 * k + 4)
        assert enc.text == gammas[0] + "".join(gammas) + ones + gammas[-1] + ones
        assert enc.target_length == len(gammas[0]) + 2 * k + 4
        tail = gammas[-1] + ones + gammas[-1] + ones
        assert enc.text.endswith(tail)


def test_psi_examples():
    g = gamma("01", 0)
    assert psi(g, 0, 2) == "01"
    assert g[11] == "0" and g[23] == "1"
    assert psi("x" * 12, 0, 0) == ""
    with pytest.raises(ValueError):
        psi("01", 0, 2)


def test_psi_round_trip():
    for length in range(1, 7):
        for k in range(3):
            for s in all_binary(length):
                assert psi(gamma(s, k), k, length) == s


def test_psi_of_rotated_seed_candidate():
    # forward-constructed seed candidates align at shift zero
    for s in ("0", "10", "011"):
        k = 1
        cand = gamma(s, k) + "1" * (2 * k + 4)
        rotated = cand[0:] + cand[:0]
        assert psi(rotated, k, len(s)) == s


def test_phi_density_holds():
    for length in (1, 2, 3):
        for k in (0, 1, 2):
            if k > length:
                continue
            for s in all_binary(length):
                verdict = validate_phi_density(ConsensusInstance((s,), k))
                assert verdict.holds, (s, k, verdict.violations)


def test_prefix_suffix_overlaps_hold_small():
    for length in (1, 2):
        for k in (0, 1):
            for x in all_binary(length):
                for y in all_binary(length):
                    verdict = validate_prefix_suffix_overlaps(
                        ConsensusInstance((x, y), k))
                    assert verdict.holds, (x, y, k, verdict.violations)


def test_prefix_suffix_overlap_scan_scope():
    # the scanned range starts at 2k+4: shorter overlaps (all ones against the
    # gamma head) are legal and must not be reported
    inst = ConsensusInstance(("0",), 0)
    verdict = validate_prefix_suffix_overlaps(inst)
    assert verdict.holds
    g = gamma("0", 0)
    assert g[:3] == g[-3:] == "000" or True  # overlap below 2k+4 not scanned


def test_reduction_forward_with_consensus():
    inst = ConsensusInstance(("0", "0"), 0)
    verdict = reduction_forward_check(inst)
    assert verdict.consensus == "0"
    assert verdict.cover_coverage_ok and verdict.start_occ_ok
    assert verdict.seed_ok and verdict.psi_roundtrip_ok
    assert verdict.passed
    # encoded cover occurs exactly at 0 and c
    enc = build_cover_instance(inst)
    cand = Text.from_str(gamma("0", 0), "01")
    occ = oracle.brute_occurrences(cand, enc.as_text(), "hamming", 0)
    assert {i for i, _ in occ} == {0, enc.target_length}


def test_reduction_no_consensus_converse():
    inst = ConsensusInstance(("0", "1"), 0)
    verdict = reduction_forward_check(inst)
    assert verdict.consensus is None
    assert verdict.converse_checked and verdict.converse_ok
    assert verdict.passed


def test_reduction_converse_budget_gate():
    inst = ConsensusInstance(("00", "01"), 0)  # no consensus, c = 28
    verdict = reduction_forward_check(inst)
    assert verdict.consensus is None
    assert not verdict.converse_checked
    assert verdict.notes and "skipped" in verdict.notes[0]
    assert verdict.passed  # a skip is not a failure


def test_decoded_candidates_are_consensus_strings():
    # every discovered length-c cover decodes to a consensus string
    for strings, k in [(("0", "0"), 0), (("0", "1"), 1), (("1", "1"), 0)]:
        inst = ConsensusInstance(strings, k)
        enc = build_cover_instance(inst)
        witness = oracle.brute_general_cover_exists(
            enc.as_text(), enc.target_length, "hamming", k)
        consensus = oracle.brute_consensus(strings, k)
        assert (witness is None) == (consensus is None)
        if witness is not None:
            decoded = psi(witness.to_str(), k, inst.length)
            assert all(sum(x != y for x, y in zip(decoded, s)) <= k
                       for s in strings)


def test_instance_file_round_trip():
    inst = ConsensusInstance(("01", "11"), 1)
    assert parse_instance(format_instance(inst)) == inst
    with pytest.raises(ValueError):
        parse_instance("")
    with pytest.raises(ValueError):
        parse_instance("2 2 0\n01\n")
    with pytest.raises(ValueError):
        parse_instance("1 2 0\n012\n")
    with pytest.raises(ValueError):
        parse_instance("x 2 0\n01\n")
