import io
import json
import random
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicover import editcover, gadget, hamcover, oracle
from quasicover.bench import QTABLE_PENALTY
from quasicover.cli import main, parse_penalty_file
from quasicover.cli import InputDataError
from quasicover.hamcover import (enhanced_cover_approx_border, enhanced_cover_exact_border,
                                 k_restricted_covers, k_restricted_seeds)
from quasicover.restricted import restricted_covers_ed, restricted_seeds_ed
from quasicover.textcore import PenaltyMatrix, Text

from conftest import column_combine_report, random_metric, random_text_str, run_fresh


def run(capsys, monkeypatch, argv, stdin=""):
    import io
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coverage_prefix_example(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["coverage", "--distance", "hamming", "--k", "1",
                        "--mode", "prefix"], stdin="abaab\n")
    assert code == 0
    assert out.splitlines()[1] == "2\t5"


def test_coverage_factor_rows_order(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["coverage", "--mode", "factor", "--k", "0"], stdin="aba\n")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert [(r[0], r[1]) for r in rows] == [
        ("0", "0"), ("0", "1"), ("0", "2"), ("1", "1"), ("1", "2"), ("2", "2")]


def _rendered(rows) -> str:
    """TSV as rendered before one template per table: str() of each field."""
    return "".join("\t".join(map(str, row)) + "\n" for row in rows)


def test_tsv_and_json_carry_identical_data(capsys, monkeypatch, tmp_path):
    """Every command's TSV bytes equal the str() rendering of the library's
    result, and its JSON rows carry the same values."""
    unit = PenaltyMatrix.unit("ab")

    def by_length(levels):
        return sorted(levels, key=lambda s: (len(s), s))

    def prefix(raw, distance, k, p=None):
        t = Text.from_str(raw)
        cov = (hamcover.prefix_coverage(t, k) if distance == "hamming"
               else editcover.prefix_coverage(t, distance, k, p))
        return [[ell, cov[ell - 1]] for ell in range(1, len(raw) + 1)]

    def factor(raw, distance, k, p=None):
        t = Text.from_str(raw)
        per_start = (hamcover.factor_coverage_all(t, k) if distance == "hamming"
                     else editcover.factor_coverage(t, distance, k, p))
        return [[a, a + off, val] for a, row in enumerate(per_start)
                for off, val in enumerate(row)]

    def hamming(search, raw, k):
        levels = search(Text.from_str(raw), k)
        return [[key, "none" if levels[key] is None else levels[key]]
                for key in by_length(levels)]

    def edit(report_of, raw):
        report = report_of(Text.from_str(raw, "ab"), unit)
        levels = report.thresholds
        return [[key, levels[key], int(levels[key] == report.minimal)]
                for key in by_length(levels)]

    def enhanced(search, raw, k):
        best = search(Text.from_str(raw), k)
        if best is None:
            return [["none", "", "", ""]]
        return [[best.candidate, best.start, best.end, best.coverage]]

    inst = tmp_path / "inst"
    inst.write_text("1 1 0\n0\n")
    enc = gadget.build_cover_instance(gadget.parse_instance(inst.read_text()))
    edit_unit = ["--distance", "edit", "--penalty", "unit"]
    cases = [
        (["coverage", "--k", "1"], "abaab", prefix("abaab", "hamming", 1)),
        (["coverage", "--k", "1", "--mode", "factor"], "abaab",
         factor("abaab", "hamming", 1)),
        (["coverage", "--k", "1", "--distance", "levenshtein"], "abaab",
         prefix("abaab", "levenshtein", 1)),
        (["coverage", "--k", "1", "--distance", "levenshtein", "--mode", "factor"],
         "abaab", factor("abaab", "levenshtein", 1)),
        (["coverage", "--k", "1", *edit_unit], "abaab", prefix("abaab", "edit", 1, unit)),
        (["coverage", "--k", "1", "--mode", "factor", *edit_unit], "abaab",
         factor("abaab", "edit", 1, unit)),
        (["covers", "--distance", "hamming", "--k", "1"], "abab",
         hamming(k_restricted_covers, "abab", 1)),
        (["seeds", "--k", "1"], "abaab", hamming(k_restricted_seeds, "abaab", 1)),
        (["covers", *edit_unit], "abaab", edit(restricted_covers_ed, "abaab")),
        (["seeds", *edit_unit], "abaab", edit(restricted_seeds_ed, "abaab")),
        (["enhanced", "--variant", "exact-border", "--k", "1"], "abaab",
         enhanced(enhanced_cover_exact_border, "abaab", 1)),
        (["enhanced", "--variant", "approx-border", "--k", "0"], "abab",
         enhanced(enhanced_cover_approx_border, "abab", 0)),
        (["enhanced", "--variant", "exact-border", "--k", "0"], "ab",
         [["none", "", "", ""]]),
        (["gadget", "build-cover", str(inst)], "", [[enc.text, enc.target_length]]),
    ]
    for args, raw, want in cases:
        assert want, args
        code, tsv, _ = run(capsys, monkeypatch, args + ["--format", "tsv"], raw + "\n")
        assert code == 0
        assert tsv == _rendered(want), args
        code, js, _ = run(capsys, monkeypatch, args + ["--format", "json"], raw + "\n")
        assert code == 0
        assert json.loads(js)["rows"] == want, args
        # the streamed JSON has the bytes of one json.dumps of the whole report
        assert js == json.dumps({"columns": _columns(args), "rows": want}) + "\n", args


def _columns(args: list[str]) -> list[str]:
    """The JSON columns of a report command."""
    if args[0] == "coverage":
        return ["a", "b", "coverage"] if "factor" in args else ["ell", "coverage"]
    if args[0] in ("covers", "seeds"):
        return ["factor", "threshold", "minimal"] if "edit" in args else ["factor", "min_level"]
    if args[0] == "enhanced":
        return ["candidate", "start", "end", "coverage"]
    return ["text", "target_length"]


def test_json_stream_over_many_chunks(capsys, monkeypatch):
    """Reports longer than one JSON chunk, and an empty one, keep the bytes of
    one json.dumps of the whole report."""
    from quasicover import cli
    raw = random_text_str(random.Random(5), 130, 2, wildcard_prob=0.1)
    for args, n_rows in ((["coverage", "--k", "1", "--mode", "factor"], 130 * 131 // 2),
                         (["coverage", "--k", "2"], 130), (["covers"], 0)):
        monkeypatch.setattr(cli, "_JSON_ROWS", 7)
        text = raw if n_rows else ""
        code, js, _ = run(capsys, monkeypatch, args + ["--format", "json"], text + "\n")
        assert code == 0
        monkeypatch.undo()
        code, tsv, _ = run(capsys, monkeypatch, args, text + "\n")
        rows = [[int(x) if x.isdigit() else x for x in line.split("\t")]
                for line in tsv.splitlines()]
        assert code == 0 and len(rows) == n_rows
        assert js == json.dumps({"columns": _columns(args), "rows": rows}) + "\n"


def test_byte_determinism(capsys, monkeypatch):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, monkeypatch,
                           ["covers", "--distance", "edit", "--penalty", "unit"],
                           stdin="abab\n")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_crlf_line_reads_as_lf(capsys, monkeypatch, tmp_path):
    """A CRLF line on stdin gives the rows of the same line ended by LF, as
    a file holding the CRLF line does."""
    path = tmp_path / "crlf.txt"
    path.write_bytes(b"abab\r\n")
    args = ["covers", "--format", "json"]
    outs = [run(capsys, monkeypatch, args, stdin)[1] for stdin in ("abab\r\n", "abab\n")]
    outs.append(run(capsys, monkeypatch, args + [str(path)])[1])
    assert outs == [outs[0]] * 3
    assert json.loads(outs[0])["rows"][:3] == [["a", "none"], ["b", "none"], ["ab", 0]]


def test_covers_hamming_example(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["covers", "--distance", "hamming", "--k", "1"],
                       stdin="abab\n")
    assert code == 0
    rows = dict(line.split("\t") for line in out.splitlines())
    assert rows["ab"] == "0" and rows["a"] == "1" and rows["b"] == "1"
    assert rows["aba"] == "none"


def test_covers_escalate(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["covers", "--distance", "hamming", "--escalate"],
                       stdin="abab\n")
    assert code == 0
    rows = dict(line.split("\t") for line in out.splitlines())
    assert "none" not in rows.values()
    assert rows["aba"] == "3"


def test_escalate_equals_level_by_level_search(capsys, monkeypatch):
    """--escalate gives what raising the budget one level at a time gives."""
    rng = random.Random(7)

    def level_by_level(t, fn, max_len):
        level = 0
        while True:
            result = fn(t, level)
            if all(v is not None for v in result.values()) or level > max_len:
                return result
            level += 1

    for trial in range(12):
        raw = random_text_str(rng, rng.randint(1, 9), rng.randint(1, 3),
                              0.2 if trial % 3 == 0 else 0.0)
        t = Text.from_str(raw)
        for cmd, fn, max_len in [("covers", k_restricted_covers, len(t)),
                                 ("seeds", k_restricted_seeds, len(t) // 2)]:
            want = level_by_level(t, fn, max_len)
            code, out, _ = run(capsys, monkeypatch, [cmd, "--escalate"],
                               stdin=raw + "\n")
            assert code == 0
            got = dict(line.split("\t") for line in out.splitlines())
            assert got == {key: "none" if v is None else str(v)
                           for key, v in want.items()}, (cmd, raw)


def test_escape_sequences_are_emitted_verbatim(capsys, monkeypatch):
    """ANSI escapes in factors reach stdout unchanged, one row per factor."""
    raw = "a\x1b[1mab\x1b[0m"
    code, out, _ = run(capsys, monkeypatch, ["covers", "--k", "0"], stdin=raw + "\n")
    assert code == 0
    factors = [line.split("\t")[0] for line in out.split("\n")[:-1]]
    n = len(raw)
    want = {raw[a:b] for a in range(n) for b in range(a + 1, n + 1) if b - a < n}
    assert len(factors) == len(want) and set(factors) == want
    assert "\x1b[1m" in factors


def test_covers_edit_example(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["covers", "--distance", "edit", "--penalty", "unit"],
                       stdin="abab\n")
    assert code == 0
    rows = {r[0]: r for r in (line.split("\t") for line in out.splitlines())}
    assert rows["ab"][1] == "0" and rows["ab"][2] == "1"
    assert all(r[2] == "0" for key, r in rows.items() if key != "ab")


def penalty_file_text(p: PenaltyMatrix) -> str:
    return "".join([f"alphabet {p.alphabet}\n",
                    *("sub " + " ".join(map(str, row)) + "\n" for row in p.sub),
                    "ins " + " ".join(map(str, p.ins)) + "\n",
                    "del " + " ".join(map(str, p.dele)) + "\n"])


def test_edit_reports_equal_the_column_combine(capsys, monkeypatch, tmp_path):
    """covers and seeds under --distance edit, in tsv and json, print the
    same bytes with the packed combine as with the per-column reference."""
    from quasicover import restricted
    rng = random.Random(20)
    metric = tmp_path / "metric"
    for trial in range(16):
        raw = random_text_str(rng, rng.randint(0, 24), 3, 0.15 if trial % 2 else 0.0)
        metric.write_text(penalty_file_text(random_metric("abc", rng)))
        penalty = "unit" if trial % 4 == 0 else str(metric)
        for cmd in ("covers", "seeds"):
            for fmt in ("tsv", "json"):
                argv = [cmd, "--distance", "edit", "--penalty", penalty, "--format", fmt]
                packed = run(capsys, monkeypatch, argv, stdin=raw + "\n")
                with monkeypatch.context() as patch:
                    patch.setattr(restricted, "_report_for_candidates", column_combine_report)
                    columns = run(capsys, monkeypatch, argv, stdin=raw + "\n")
                assert packed == columns and packed[0] == 0, (raw, argv)


def test_threshold_rows_by_length_then_string(capsys, monkeypatch):
    """covers and seeds rows come by factor length, then by string: "b"
    precedes "aa", and equal-length factors are not in first-seen order.
    Wildcards sort by their rendered character: "?" before the letters, and
    under ``--wildcard z``, with "?" an ordinary symbol, "z" after them."""
    rng = random.Random(11)
    texts = ["abaab"] + [random_text_str(rng, rng.randint(2, 9), rng.randint(2, 3))
                         for _ in range(6)]
    texts += [random_text_str(rng, rng.randint(2, 12), rng.randint(1, 3), 0.3)
              for _ in range(6)] + ["ab??ba?", "????", "a?a?a?"]
    for cmd, want in (("covers", ["a", "b", "aa", "ab", "ba", "aab", "aba", "baa",
                                  "abaa", "baab"]),
                      ("seeds", ["a", "b", "aa", "ab", "ba"])):
        for dist in (["--distance", "hamming", "--k", "1"],
                     ["--distance", "edit", "--penalty", "unit"]):
            for raw in texts:
                code, out, _ = run(capsys, monkeypatch, [cmd, *dist], stdin=raw + "\n")
                assert code == 0
                factors = [line.split("\t")[0] for line in out.splitlines()]
                assert factors == sorted(set(factors), key=lambda s: (len(s), s))
                if raw == "abaab":
                    assert factors == want, (cmd, dist)
            raw = "a?bz?abzz?b"
            code, out, _ = run(capsys, monkeypatch, [cmd, *dist, "--wildcard", "z"],
                               stdin=raw + "\n")
            assert code == 0
            factors = [line.split("\t")[0] for line in out.splitlines()]
            assert factors == sorted(set(factors), key=lambda s: (len(s), s))
            assert factors[:4] == ["?", "a", "b", "z"], (cmd, dist)


def test_restricted_rows_on_tiny_and_wildcard_texts(capsys, monkeypatch):
    """covers and seeds, both metrics, tsv and json: no candidate on "" and
    "a", and a wildcard is a candidate string of its own."""
    pinned = {"": ([], []), "a": ([], []), "??": ([["?", 0]], [["?", 0, 1]]),
              "a?": ([["?", 0], ["a", 0]], [["?", 0, 1], ["a", 0, 1]])}
    for raw, (ham_rows, edit_rows) in pinned.items():
        for cmd in ("covers", "seeds"):
            for dist, want in ((["--distance", "hamming"], ham_rows),
                               (["--distance", "edit", "--penalty", "unit"], edit_rows)):
                code, js, err = run(capsys, monkeypatch, [cmd, *dist, "--format", "json"],
                                    stdin=raw + "\n")
                assert (code, err) == (0, "")
                assert json.loads(js)["rows"] == want, (raw, cmd, dist)
                code, tsv, err = run(capsys, monkeypatch, [cmd, *dist], stdin=raw + "\n")
                assert (code, err) == (0, "")
                assert tsv == _rendered(want)


def _main_json(argv: list[str], raw: str) -> tuple[int, object]:
    """Exit code and parsed stdout (None when empty) of ``main(argv)`` on
    stdin ``raw``; plain redirection, as hypothesis rejects per-test fixtures."""
    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(raw + "\n")
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main([*argv, "--format", "json"])
    finally:
        sys.stdin = stdin
    return code, json.loads(out.getvalue()) if out.getvalue() else None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(raw=st.text("abc?", max_size=7), k=st.integers(0, 3))
def test_cli_rows_equal_the_oracle(tmp_path_factory, raw, k):
    """Every command and metric the CLI accepts prints, in JSON, the rows the
    brute-force oracle gives; every rejected combination prints nothing."""
    weighted = tmp_path_factory.getbasetemp() / "qtable.penalty"
    weighted.write_text(penalty_file_text(QTABLE_PENALTY))
    distances = [(["--distance", "hamming"], "hamming", None, Text.from_str(raw))]
    if "?" in raw:
        for mode in ("prefix", "factor"):
            argv = ["coverage", "--distance", "levenshtein", "--mode", mode]
            assert _main_json(argv, raw) == (2, None)
    else:
        distances.append((["--distance", "levenshtein"], "levenshtein", None,
                          Text.from_str(raw)))
    unit = PenaltyMatrix.unit("".join(sorted(set(raw) - {"?"})))
    for spec, p in (("unit", unit), (str(weighted), QTABLE_PENALTY)):
        distances.append((["--distance", "edit", "--penalty", spec], "edit", p,
                          Text.from_str(raw, p.alphabet)))
    n = len(raw)
    for dist, metric, p, t in distances:
        prefix = [[ell, oracle.brute_coverage(t.prefix(ell), t, metric, k, p)]
                  for ell in range(1, n + 1)]
        factor = [[a, b, oracle.brute_coverage(t.factor(a, b), t, metric, k, p)]
                  for a in range(n) for b in range(a, n)]
        for mode, rows in (("prefix", prefix), ("factor", factor)):
            got = _main_json(["coverage", *dist, "--k", str(k), "--mode", mode], raw)
            assert got == (0, {"columns": _columns(["coverage", "--mode", mode]),
                               "rows": rows}), (raw, dist, mode)
        for cmd in ("covers", "seeds"):
            if metric == "levenshtein":
                assert _main_json([cmd, *dist], raw) == (1, None)
                continue
            levels = oracle.brute_restricted_min_k(t, metric, p, seeds=cmd == "seeds")
            keys = sorted(levels, key=lambda s: (len(s), s))
            if metric == "edit":
                least = min(levels.values(), default=None)
                runs = [([], [[key, levels[key], int(levels[key] == least)] for key in keys])]
                for flag in (["--k", str(k)], ["--escalate"]):
                    assert _main_json([cmd, *dist, *flag], raw) == (1, None)
            else:
                runs = [(["--k", str(k)], [[key, levels[key] if levels[key] <= k else "none"]
                                           for key in keys]),
                        (["--escalate"], [[key, levels[key]] for key in keys])]
            for flag, rows in runs:
                got = _main_json([cmd, *dist, *flag], raw)
                assert got == (0, {"columns": _columns([cmd, *dist]), "rows": rows}), \
                    (raw, cmd, dist, flag)


class _CountingSink:
    """A text stream that keeps nothing but the number of bytes written."""

    def __init__(self):
        self.nbytes = 0

    def write(self, s: str) -> int:
        self.nbytes += len(s.encode())
        return len(s)

    def flush(self) -> None:
        pass


def test_restricted_reports_stream_their_rows(monkeypatch, tmp_path):
    """covers and seeds print a row per distinct factor, Θ(n^3) bytes, but
    hold no copy of the report: at n = 400 on random binary text, the
    allocation peak of a request stays below a quarter of what it prints."""
    path = tmp_path / "binary.txt"
    path.write_text(random_text_str(random.Random(400), 400) + "\n")
    for cmd in ("covers", "seeds"):
        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main([cmd, "--k", "2", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.nbytes > 2_000_000, cmd
        assert peak < sink.nbytes / 4, (cmd, peak, sink.nbytes)


def test_seeds_length_constraint(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["seeds", "--distance", "hamming", "--k", "1"], stdin="ab\n")
    assert code == 0
    assert {line.split("\t")[0] for line in out.splitlines()} == {"a", "b"}


def test_enhanced_variants(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["enhanced", "--variant", "exact-border", "--k", "1"],
                       stdin="abaab\n")
    assert code == 0
    assert out.strip() == "ab\t0\t1\t5"
    code, out, _ = run(capsys, monkeypatch,
                       ["enhanced", "--variant", "exact-border", "--k", "0"],
                       stdin="ab\n")
    assert code == 0
    assert out.splitlines()[0].startswith("none")
    code, out, _ = run(capsys, monkeypatch,
                       ["enhanced", "--variant", "approx-border", "--k", "0"],
                       stdin="abab\n")
    assert code == 0
    assert out.strip() == "ab\t0\t1\t4"


def test_empty_input(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["coverage"], stdin="\n")
    assert code == 0 and out == ""


def test_usage_errors(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["coverage", "--distance", "edit"],
                       stdin="ab\n")
    assert code == 1 and "penalty" in err
    code, _, err = run(capsys, monkeypatch, ["covers", "--distance", "levenshtein"],
                       stdin="ab\n")
    assert code == 1
    code, _, err = run(capsys, monkeypatch, ["coverage", "--k", "-1"], stdin="ab\n")
    assert code == 1
    # --escalate and --k are Hamming only, also under --distance edit
    for cmd in ("covers", "seeds"):
        for flag in (["--escalate"], ["--k", "3"], ["--k", "0"]):
            code, out, err = run(capsys, monkeypatch,
                                 [cmd, "--distance", "edit", "--penalty", "unit", *flag],
                                 stdin="abab\n")
            assert code == 1 and out == "" and flag[0] in err
    # --penalty is edit only; it is not silently ignored under other distances
    for argv in (["covers", "--penalty", "nonexistent.txt"],
                 ["seeds", "--penalty", "unit"],
                 ["coverage", "--distance", "levenshtein", "--penalty", "unit"],
                 ["coverage", "--distance", "hamming", "--penalty", "unit"]):
        code, out, err = run(capsys, monkeypatch, argv, stdin="abab\n")
        assert code == 1 and out == "" and "--penalty" in err


def test_input_errors(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "bad.penalty"
    bad.write_text("alphabet ab\nsub 0 5\nsub 5 0\nins 1 1\ndel 1 1\n")
    code, _, err = run(capsys, monkeypatch,
                       ["coverage", "--distance", "edit", "--penalty", str(bad)],
                       stdin="ab\n")
    assert code == 2 and "metric" in err
    code, _, err = run(capsys, monkeypatch,
                       ["coverage", "--distance", "edit", "--penalty",
                        str(tmp_path / "missing")], stdin="ab\n")
    assert code == 2
    code, _, err = run(capsys, monkeypatch,
                       ["coverage", "--distance", "levenshtein", "--mode", "factor"],
                       stdin="a?b\n")
    assert code == 2 and "wildcard-free" in err
    # Every input must be ASCII: stdin as decoded (a POSIX locale turns a bad
    # byte into a surrogate), and penalty and instance files, comments included.
    for text in ("a\u00e9b\n", "a\udcffb\n"):
        code, out, err = run(capsys, monkeypatch, ["covers", "--k", "1"], stdin=text)
        assert (code, out) == (2, "") and "input error: input is not ASCII" in err
    accented = tmp_path / "accented.penalty"
    accented.write_bytes(b"# co\xc3\xbbts\nalphabet ab\nsub 0 1\nsub 1 0\nins 1 1\ndel 1 1\n")
    code, out, err = run(capsys, monkeypatch,
                         ["covers", "--distance", "edit", "--penalty", str(accented)],
                         stdin="ab\n")
    assert (code, out) == (2, "") and "input error: penalty file is not ASCII" in err
    instance = tmp_path / "instance"
    instance.write_bytes(b"1 1 0\n0 # \xff\n")
    code, out, err = run(capsys, monkeypatch, ["gadget", "build-cover", str(instance)])
    assert (code, out) == (2, "") and "input error: instance file is not ASCII" in err
    # Rows keyed by factors would print a TAB of the text, or a TAB wildcard,
    # as a field separator: TSV refuses such a line, JSON escapes it.
    for args in (["covers"], ["seeds", "--k", "1"], ["enhanced", "--variant", "exact-border"],
                 ["covers", "--distance", "edit", "--penalty", "unit"],
                 ["covers", "--wildcard", "\t"]):
        code, out, err = run(capsys, monkeypatch, args, stdin="a\tb\n")
        assert (code, out) == (2, "") and "use --format json" in err, args
    code, out, _ = run(capsys, monkeypatch, ["covers", "--format", "json"], stdin="a\tb\n")
    assert code == 0 and ["a\t", "none"] in json.loads(out)["rows"]
    code, out, _ = run(capsys, monkeypatch, ["coverage"], stdin="a\tb\n")
    assert (code, out) == (0, "1\t1\n2\t2\n3\t3\n")


def test_penalty_file_parsing(tmp_path):
    content = """
    # weighted metric over {a, b}
    alphabet ab
    sub 0 2
    sub 2 0
    ins 1 1
    del 1 1
    """
    p = parse_penalty_file(content)
    assert p.alphabet == "ab" and p.sub[0][1] == 2
    with pytest.raises(InputDataError):
        parse_penalty_file("alphabet ab\nsub 0 1\nsub 1 0\nins 1 x\ndel 1 1\n")
    with pytest.raises(InputDataError):
        parse_penalty_file("sub 0 1\nsub 1 0\nins 1 1\ndel 1 1\n")


def test_penalty_file_end_to_end(capsys, monkeypatch, tmp_path):
    good = tmp_path / "metric"
    good.write_text("alphabet ab\nsub 0 2\nsub 2 0\nins 1 1\ndel 1 1\n")
    code, out, _ = run(capsys, monkeypatch,
                       ["coverage", "--distance", "edit", "--penalty", str(good),
                        "--k", "1", "--mode", "prefix"], stdin="abab\n")
    assert code == 0
    # substitution now costs 2 > k, but single-symbol indels still enable
    # approximate occurrences at budget 1
    assert len(out.splitlines()) == 4
    repeated = tmp_path / "repeated"
    repeated.write_text("alphabet aab\nsub 0 1 1\nsub 1 0 1\nsub 1 1 0\nins 1 1 1\ndel 1 1 1\n")
    code, out, err = run(capsys, monkeypatch,
                         ["covers", "--distance", "edit", "--penalty", str(repeated)],
                         stdin="abab\n")
    assert code == 2 and out == ""
    assert "input error: invalid penalty matrix: alphabet 'aab' repeats a symbol" in err


def test_wildcard_option(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["coverage", "--wildcard", "_", "--k", "0",
                        "--mode", "prefix"], stdin="a_b\n")
    assert code == 0
    assert out.splitlines()[0] == "1\t2"  # "a" also matches the wildcard position


def test_gadget_commands(capsys, monkeypatch, tmp_path):
    inst = tmp_path / "inst"
    inst.write_text("1 1 0\n0\n")
    code, out, _ = run(capsys, monkeypatch, ["gadget", "build-cover", str(inst)])
    assert code == 0
    assert out.strip() == "1111000010100000\t16"
    code, out, _ = run(capsys, monkeypatch, ["gadget", "build-seed", str(inst)])
    assert code == 0
    text, target = out.strip().split("\t")
    assert int(target) == 20 and len(text) == 56
    code, out, _ = run(capsys, monkeypatch, ["gadget", "verify", str(inst)])
    assert code == 0
    assert all(line.split("\t")[1] == "pass" for line in out.splitlines())


def test_gadget_malformed_and_oversized(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "bad"
    bad.write_text("2 1 0\n0\n")
    code, _, err = run(capsys, monkeypatch, ["gadget", "verify", str(bad)])
    assert code == 2
    big = tmp_path / "big"
    strings = "\n".join("0" * 40 for _ in range(2))
    big.write_text(f"2 40 1\n{strings}\n")
    code, _, err = run(capsys, monkeypatch, ["gadget", "verify", str(big)])
    assert code == 2 and "budget" in err.lower() or "too large" in err


def test_bench_quick_runs(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["bench", "--quick", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    tasks = [row[0] for row in payload["rows"]]
    assert "prefix-coverage-sweep" in tasks
    assert "prefix-coverage-hamming" in tasks
    assert "pref-k" in tasks
    assert "pref-k-wildcards" in tasks
    assert "factor-coverage-edit" in tasks
    assert "prefix-coverage-levenshtein" in tasks
    assert "restricted-covers-hamming" in tasks
    assert "restricted-covers-edit" in tasks


def test_cli_imports_engines_on_first_use(tmp_path):
    """``import quasicover.cli`` loads no engine module, and each command,
    run in a fresh interpreter, loads the engines it runs and no other."""
    inst = tmp_path / "inst"
    inst.write_text("1 1 0\n0\n")
    ham = ["cli", "hamcover", "lcpk", "textcore"]
    edit_engines = ["cli", "editcover", "textcore"]  # lcpk only for the Levenshtein waves
    edit = ["--distance", "edit", "--penalty", "unit"]
    cases = [
        ([], ["cli", "textcore"]),
        (["coverage", "--k", "1"], ham),
        (["coverage", "--k", "1", "--mode", "factor"], ham),
        (["covers", "--k", "1"], ham),
        (["seeds", "--k", "1"], ham),
        (["enhanced", "--variant", "exact-border", "--k", "1"], ham),
        (["enhanced", "--variant", "approx-border", "--k", "1"], ham),
        (["coverage", "--k", "1", "--distance", "levenshtein"],
         sorted(edit_engines + ["lcpk"])),
        (["coverage", "--k", "1", "--distance", "levenshtein", "--mode", "factor"],
         sorted(edit_engines + ["slots"])),
        (["coverage", "--k", "1", *edit], edit_engines),
        (["coverage", "--k", "1", "--mode", "factor", *edit], sorted(edit_engines + ["slots"])),
        (["covers", *edit], ["cli", "restricted", "textcore"]),
        (["seeds", *edit], ["cli", "restricted", "textcore"]),
        (["gadget", "build-cover", str(inst)], ["cli", "gadget", "oracle", "textcore"]),
        (["gadget", "verify", str(inst)], ["cli", "gadget", "oracle", "textcore"]),
    ]
    for argv, want in cases:
        proc = run_fresh(f"""
import io, sys
from quasicover.cli import main

argv = {argv!r}
if argv:
    sys.stdin, sys.stdout = io.StringIO("abaab\\n"), io.StringIO()
    code = main(argv)
    sys.stdout = sys.__stdout__
    assert code == 0, code
print(*sorted(m[len("quasicover."):] for m in sys.modules if m.startswith("quasicover.")))
""")
        assert proc.returncode == 0, (argv, proc.stderr)
        assert proc.stdout.split() == want, argv


def test_each_module_loads_only_what_it_imports():
    """Imported first in a fresh interpreter, each edit engine loads only
    ``textcore`` beside itself, no module but ``gadget`` loads ``oracle``, and
    none but ``bench`` loads ``reference``."""
    pinned = {"editcover": ["editcover", "textcore"], "restricted": ["restricted", "textcore"],
              "slots": ["slots", "textcore"],
              "reference": ["hamcover", "lcpk", "reference", "slots", "textcore"]}
    for module in ("textcore", "lcpk", "hamcover", "editcover", "slots", "restricted", "reference",
                   "oracle", "gadget", "bench", "cli"):
        proc = run_fresh(f"""
import sys
import quasicover.{module}
print(*sorted(m[len("quasicover."):] for m in sys.modules if m.startswith("quasicover.")))
""")
        assert proc.returncode == 0, (module, proc.stderr)
        loaded = proc.stdout.split()
        assert loaded == pinned.get(module, loaded), module
        assert ("oracle" in loaded) == (module in ("gadget", "oracle")), module
        assert ("reference" in loaded) == (module in ("bench", "reference")), module


def test_tracer_names_resolve_on_their_old_modules():
    """The six references that ``perfbench/tracing.py`` reads on their old
    modules are the ``reference`` objects; no other moved name resolves."""
    from quasicover import editcover, hamcover, lcpk, reference, restricted
    for module, name in ((editcover, "precompute_special"), (editcover, "SpecialPointIndex"),
                         (editcover, "p_ed_entry"), (restricted, "q_table_fast"),
                         (lcpk, "lcp_k_all_pairs"), (hamcover, "coverage_sweep")):
        assert getattr(module, name) is getattr(reference, name), (module, name)
    with pytest.raises(AttributeError):
        editcover.ParetoList
