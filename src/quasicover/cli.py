"""Command-line front end.

Reads the subject text as the first line of a file or stdin, dispatches to
the library, and emits deterministic TSV (no header) or JSON reports.

Exit codes: 0 success, 1 usage error, 2 input or format error,
3 validation failure (gadget verify found a violation).
"""

from __future__ import annotations

import json
import sys
from itertools import chain, count, islice, repeat
from typing import TYPE_CHECKING, Iterable

import click

# Each command imports the engine modules it runs, and looks their functions
# up on them per call, so a request loads only its own engines.
from .textcore import DEFAULT_WILDCARD_CHAR, PenaltyMatrix, Text

if TYPE_CHECKING:
    from . import gadget


class InputDataError(Exception):
    """Unreadable or ill-formed input: text, penalty file, or instance file."""


class ValidationFailure(Exception):
    """A gadget verification found a violated property."""


EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_VALIDATION = 3


def _read_ascii(path: str | None, what: str = "input", whole: bool = False) -> str:
    """The first line of file ``path`` (of stdin for None or "-"), trailing
    LF or CRLF stripped, or with ``whole`` the whole file; an unreadable or
    non-ASCII input is an :class:`InputDataError`."""
    try:
        if whole or path not in (None, "-"):
            with open(path, "r", encoding="ascii") as fh:
                data = fh.read() if whole else fh.readline()
        else:
            data = sys.stdin.readline()
    except OSError as exc:
        raise InputDataError(f"cannot read {what}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{what} is not ASCII: {exc}")
    if not data.isascii():  # stdin as the locale decoded it, bad bytes as surrogates
        raise InputDataError(f"{what} is not ASCII")
    # text-mode open turns a file's CRLF into LF; stdin keeps it
    return data if whole else data.removesuffix("\r\n").rstrip("\n")


def _build_text(raw: str, wildcard: str, alphabet: str | None = None) -> Text:
    try:
        return Text.from_str(raw, alphabet, wildcard)
    except ValueError as exc:
        raise InputDataError(str(exc))


def parse_penalty_file(content: str) -> PenaltyMatrix:
    """Penalty file grammar (one directive per line, '#' comments allowed)::

        alphabet ab
        sub 0 1        # one row per alphabet symbol, row-major
        sub 1 0
        ins 1 1        # insertion costs per symbol
        del 1 1        # deletion costs per symbol

    All costs are nonnegative integers; the implied metric axioms are
    checked after parsing.
    """
    alphabet: str | None = None
    sub: list[list[int]] = []
    ins: list[int] | None = None
    dele: list[int] | None = None
    for lineno, raw in enumerate(content.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split()
        if head == "alphabet":
            if len(rest) != 1 or alphabet is not None:
                raise InputDataError(f"line {lineno}: expected a single alphabet declaration")
            alphabet = rest[0]
            continue
        try:
            values = [int(x) for x in rest]
        except ValueError:
            raise InputDataError(f"line {lineno}: non-integer cost in {raw!r}")
        if head == "sub":
            sub.append(values)
        elif head == "ins":
            if ins is not None:
                raise InputDataError(f"line {lineno}: duplicate ins vector")
            ins = values
        elif head == "del":
            if dele is not None:
                raise InputDataError(f"line {lineno}: duplicate del vector")
            dele = values
        else:
            raise InputDataError(f"line {lineno}: unknown directive {head!r}")
    if alphabet is None or ins is None or dele is None or not sub:
        raise InputDataError("penalty file needs alphabet, sub rows, ins and del vectors")
    try:
        matrix = PenaltyMatrix(alphabet, sub, ins, dele)
        matrix.require_metric()
    except ValueError as exc:
        raise InputDataError(f"invalid penalty matrix: {exc}")
    return matrix


def _load_penalty(spec: str | None, raw_text: str, wildcard: str) -> PenaltyMatrix:
    if spec is None:
        raise click.UsageError("--distance edit requires --penalty FILE (or 'unit')")
    if spec == "unit":
        alphabet = "".join(sorted(set(raw_text) - {wildcard}))
        return PenaltyMatrix.unit(alphabet)
    matrix = parse_penalty_file(_read_ascii(spec, "penalty file", whole=True))
    if wildcard in matrix.alphabet:
        raise InputDataError(
            f"wildcard character {wildcard!r} must not appear in the declared alphabet")
    return matrix


#: Rows rendered per write of a streamed JSON report.
_JSON_ROWS = 4096


def _emit(columns: list[str], rows: Iterable[tuple], fmt: str) -> None:
    """Write a report of tuples: one JSON object, or one TSV line per row.

    Each TSV line comes from one ``%`` template per table (``"%s" % x`` equals
    ``str(x)`` for the ints and strings of every report) and is written by
    its own call, so a stream that samples lines sees every row start a write.
    JSON is streamed too, in the bytes of ``json.dumps({"columns": columns,
    "rows": rows}) + "\n"``: the object up to the row list, the rows joined
    by ", " in chunks of :data:`_JSON_ROWS`, then the closing brackets.
    """
    # Verbatim: click.echo strips ANSI escapes off a non-TTY.
    out = sys.stdout
    if fmt == "json":
        out.write(json.dumps({"columns": columns, "rows": []})[:-2])
        rows = iter(rows)
        sep = ""
        while chunk := list(islice(rows, _JSON_ROWS)):
            out.write(sep + json.dumps(chunk)[1:-1])
            sep = ", "
        out.write("]}\n")
    else:
        template = "\t".join(["%s"] * len(columns)) + "\n"
        write = out.write
        for row in rows:
            write(template % row)
    out.flush()


def _fmt_num(x: float) -> str:
    return f"{x:.6f}"


_distance_opt = click.option(
    "--distance", type=click.Choice(["hamming", "levenshtein", "edit"]),
    default="hamming", show_default=True)
_k_opt = click.option("--k", type=click.IntRange(min=0), default=0, show_default=True)
_hamming_k_opt = click.option("--k", type=click.IntRange(min=0), default=None,
                              help="Hamming only: mismatch budget (default 0).")
_escalate_opt = click.option(
    "--escalate", is_flag=True,
    help="Hamming only: raise the budget until every factor resolves.")
_penalty_opt = click.option(
    "--penalty", default=None,
    help="Penalty file for --distance edit, or 'unit' for unit costs.")
_format_opt = click.option(
    "--format", "fmt", type=click.Choice(["tsv", "json"]), default="tsv",
    show_default=True)
_wildcard_opt = click.option(
    "--wildcard", default=DEFAULT_WILDCARD_CHAR, show_default=True,
    help="Byte standing for the wildcard symbol.")


def _prepare(path, distance, penalty, wildcard):
    if len(wildcard) != 1:
        raise click.UsageError("--wildcard takes a single character")
    if penalty is not None and distance != "edit":
        raise click.UsageError("--penalty supports --distance edit only")
    raw = _read_ascii(path)
    matrix = None
    if distance == "edit":
        matrix = _load_penalty(penalty, raw, wildcard)
        t = _build_text(raw, wildcard, matrix.alphabet)
    else:
        t = _build_text(raw, wildcard)
    return t, matrix


def _check_tsv_keys(text: str, fmt: str) -> None:
    """Rows keyed by factors of ``text`` print it as a field: under TSV a TAB
    in it would split the row."""
    if fmt == "tsv" and "\t" in text:
        raise InputDataError("the text holds a TAB, which would split the TSV rows; "
                             "use --format json")


@click.group()
def cli():
    """Approximate quasiperiodicity analysis."""


@cli.command()
@click.argument("input", required=False)
@_distance_opt
@_k_opt
@click.option("--mode", type=click.Choice(["prefix", "factor"]), default="prefix",
              show_default=True)
@_penalty_opt
@_format_opt
@_wildcard_opt
def coverage(input, distance, k, mode, penalty, fmt, wildcard):
    """k-coverage of every prefix (rows: ell, coverage) or factor (a, b, coverage)."""
    t, matrix = _prepare(input, distance, penalty, wildcard)
    try:
        if distance == "hamming":
            from . import hamcover
            engine = hamcover.prefix_coverage if mode == "prefix" else hamcover.factor_coverage_all
            result = engine(t, k)
        else:
            from . import editcover
            engine = editcover.prefix_coverage if mode == "prefix" else editcover.factor_coverage
            result = engine(t, distance, k, matrix)
        if mode == "prefix":
            _emit(["ell", "coverage"], zip(range(1, len(t) + 1), result), fmt)
            return
        rows = chain.from_iterable(zip(repeat(a), count(a), row)
                                   for a, row in enumerate(result))
        _emit(["a", "b", "coverage"], rows, fmt)
    except ValueError as exc:
        raise InputDataError(str(exc))


def _restricted_budget(command: str, distance: str, k: int | None, escalate: bool) -> int:
    """The Hamming budget of ``covers``/``seeds``; the edit search takes none,
    so an explicit ``--k`` or ``--escalate`` there is a usage error."""
    if distance == "levenshtein":
        raise click.UsageError(f"{command} supports --distance hamming or edit "
                               "(levenshtein is unit-cost edit)")
    for flag, given in (("--k", k is not None), ("--escalate", escalate)):
        if given and distance != "hamming":
            raise click.UsageError(f"{flag} supports --distance hamming only")
    return k or 0


def _restricted_options(fn):
    """The argument and options of ``covers`` and ``seeds``, as listed in help."""
    for option in reversed((click.argument("input", required=False), _distance_opt,
                            _hamming_k_opt, _escalate_opt, _penalty_opt, _format_opt,
                            _wildcard_opt)):
        fn = option(fn)
    return fn


def _restricted_report(command, input, distance, k, escalate, penalty, fmt, wildcard):
    """The body of ``covers`` and ``seeds``.  The engines are looked up on
    their modules per call, so wrappers installed there see every call."""
    k = _restricted_budget(command, distance, k, escalate)
    t, matrix = _prepare(input, distance, penalty, wildcard)
    _check_tsv_keys(t.to_str(), fmt)
    seeds = command == "seeds"
    if distance == "hamming":
        from . import hamcover
        search = hamcover.k_restricted_seeds if seeds else hamcover.k_restricted_covers
        # Thresholds are <= |C|, and the search stops once every candidate
        # resolves, so a budget above every candidate length acts as "unbounded".
        unbounded = (len(t) // 2 if seeds else len(t)) + 1
        result = search(t, unbounded if escalate else k)
        rows = ((key, "none" if level is None else level) for key, level in result.items())
        _emit(["factor", "min_level"], rows, fmt)
        return
    from . import restricted
    report_of = restricted.restricted_seeds_ed if seeds else restricted.restricted_covers_ed
    report = report_of(t, matrix)
    rows = ((key, level, int(level == report.minimal))
            for key, level in report.thresholds.items())
    _emit(["factor", "threshold", "minimal"], rows, fmt)


@cli.command()
@_restricted_options
def covers(**options):
    """Restricted approximate covers.

    Hamming: rows (factor, minimal level or 'none') for levels <= k.
    Edit: rows (factor, threshold, minimal-flag).
    """
    _restricted_report("covers", **options)


@cli.command()
@_restricted_options
def seeds(**options):
    """Restricted approximate seeds (candidates with 2|C| <= |T|)."""
    _restricted_report("seeds", **options)


@cli.command()
@click.argument("input", required=False)
@click.option("--variant", type=click.Choice(["exact-border", "approx-border"]),
              required=True)
@_k_opt
@_format_opt
@_wildcard_opt
def enhanced(input, variant, k, fmt, wildcard):
    """Best enhanced cover under Hamming distance (row: candidate, start, end, coverage)."""
    raw = _read_ascii(input)
    _check_tsv_keys(raw, fmt)
    t = _build_text(raw, wildcard)
    from . import hamcover
    search = (hamcover.enhanced_cover_exact_border if variant == "exact-border"
              else hamcover.enhanced_cover_approx_border)
    best = search(t, k)
    row = ("none", "", "", "") if best is None else (
        best.candidate, best.start, best.end, best.coverage)
    _emit(["candidate", "start", "end", "coverage"], [row], fmt)


@cli.group()
def gadget_cmd():
    """NP-hardness constructions from consensus instance files."""


cli.add_command(gadget_cmd, name="gadget")


def _load_instance(path: str) -> gadget.ConsensusInstance:
    from . import gadget
    content = _read_ascii(path, "instance file", whole=True)
    try:
        return gadget.parse_instance(content)
    except ValueError as exc:
        raise InputDataError(str(exc))


def _gadget_build(kind: str, doc: str) -> None:
    """Add ``gadget build-<kind>``, which prints ``gadget.build_<kind>_instance``."""
    @gadget_cmd.command(f"build-{kind}", help=doc)
    @click.argument("instance", required=True)
    @_format_opt
    def build(instance, fmt):
        from . import gadget
        enc = getattr(gadget, f"build_{kind}_instance")(_load_instance(instance))
        _emit(["text", "target_length"], [(enc.text, enc.target_length)], fmt)


_gadget_build("cover", "Encode the instance as the cover text T with target length c.")
_gadget_build("seed", "Encode the instance as the seed text T' with target length c'.")


@gadget_cmd.command("verify")
@click.argument("instance", required=True)
@_format_opt
def gadget_verify(instance, fmt):
    """Run the structural validators and the forward reduction check."""
    from . import gadget
    inst = _load_instance(instance)
    rows = []
    failed = False
    for name, check in (("phi-window-density", gadget.validate_phi_density),
                        ("prefix-suffix-overlaps", gadget.validate_prefix_suffix_overlaps)):
        scan = check(inst)
        rows.append((name, "pass" if scan.holds else "FAIL",
                     "" if scan.holds else str(scan.violations[:3])))
        failed |= not scan.holds
    try:
        verdict = gadget.reduction_forward_check(inst)
    except gadget.BudgetExceededError as exc:
        raise InputDataError(f"instance too large for verification: {exc}")
    detail = f"consensus={verdict.consensus}"
    if verdict.notes:
        detail += "; " + "; ".join(verdict.notes)
    rows.append(("reduction-forward", "pass" if verdict.passed else "FAIL", detail))
    failed |= not verdict.passed
    _emit(["check", "status", "detail"], rows, fmt)
    if failed:
        raise ValidationFailure("gadget verification failed")


@cli.command(name="bench")
@click.option("--quick", is_flag=True, help="Smaller sizes, for smoke runs.")
@_format_opt
def bench_command(quick, fmt):
    """Doubling-size timings with growth ratios for the main engines."""
    from . import bench
    rows = []
    for r in bench.run_all(quick=quick):
        status = "ok" if r.within_bound else "over-bound"
        rows.append((r.task, r.n_small, r.n_big, _fmt_num(r.seconds_small),
                     _fmt_num(r.seconds_big), _fmt_num(r.ratio),
                     _fmt_num(r.exponent), _fmt_num(r.bound), status))
    _emit(["task", "n_small", "n_big", "seconds_small", "seconds_big",
           "ratio", "exponent", "bound", "status"], rows, fmt)


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.Abort:
        return EXIT_USAGE
    except InputDataError as exc:
        click.echo(f"input error: {exc}", err=True)
        return EXIT_INPUT
    except ValidationFailure as exc:
        click.echo(f"validation failure: {exc}", err=True)
        return EXIT_VALIDATION
    return 0


if __name__ == "__main__":
    sys.exit(main())
