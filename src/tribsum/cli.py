"""Command-line interface.

Subcommands: term, sum, verify, oeis-check, bench, catalog.  Results print
as plain text by default; ``--format json`` emits one self-contained JSON
record per result (newline-delimited), verify's failures inside their
suite's record, and each error as one JSON record on stderr.  Exit codes:
0 success, 1 output pipe closed by its reader, 2 usage or precondition
error, 3 verification mismatch, 4 OEIS check failure.
"""

import argparse
import os
import sys
import time

from .catalog import CatalogEntry, UnknownSequence, list_all, lookup
from .core import (_LITERAL, Direction, Parity, SequenceDef, SumMismatch, SumQuery,
                   format_rational, term_matrix)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_OEIS = 4

_PARAM_FLAGS = ("r", "s", "t", "w0", "w1", "w2")
_PARAM_OPTIONS = {f"--{flag}" for flag in _PARAM_FLAGS}


class UsageError(Exception):
    """A command line argparse rejected; ``parser`` is the parser that did."""


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter, reading the terminal width only to format help
    or usage: argparse also builds one per add_argument, to check metavars,
    and the width's shutil import costs a cold call 3-4 ms."""

    def __init__(self, prog: str) -> None:
        super().__init__(prog, width=80)
        del self._width, self._max_help_position  # __getattr__ sets both on first read

    def __getattr__(self, name: str):
        if name not in ("_width", "_max_help_position"):
            raise AttributeError(name)
        full = argparse.HelpFormatter(self._prog)
        self._width, self._max_help_position = full._width, full._max_help_position
        return getattr(self, name)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs) -> None:
        super().__init__(formatter_class=_HelpFormatter, **kwargs)

    def error(self, message: str):
        exc = UsageError(message)
        exc.parser = self
        raise exc


def _add_sequence_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seq", help="catalog key (see the catalog subcommand)")
    for flag in _PARAM_FLAGS:
        parser.add_argument(f"--{flag}", help="rational literal, 'p' or 'p/q'")


def _integer(text: str) -> int:
    """An integer option: the rational literal grammar without "/".  A bad
    value gets the message argparse gives for ``type=int``."""
    try:
        if "/" not in text and _LITERAL.fullmatch(text):
            return int(text)
    except ValueError:  # past the interpreter's int conversion limit
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _sequence_from_args(args: argparse.Namespace) -> SequenceDef:
    explicit = [flag for flag in _PARAM_FLAGS if getattr(args, flag) is not None]
    if args.seq is not None:
        if explicit:
            raise ValueError("--seq and explicit parameters are mutually exclusive")
        return lookup(args.seq).definition
    if len(explicit) != len(_PARAM_FLAGS):
        missing = [f"--{f}" for f in _PARAM_FLAGS if getattr(args, f) is None]
        raise ValueError(f"need --seq or all of --r/--s/--t/--w0/--w1/--w2 "
                         f"(missing {', '.join(missing)})")
    return SequenceDef.of(*(getattr(args, flag) for flag in _PARAM_FLAGS))


def _render(value) -> str:
    """format_rational(value) with the int -> str digit limit (4300 by default)
    lifted, then restored, so input parsing and in-process callers keep it."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7: no limit
        return format_rational(value)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return format_rational(value)
    finally:
        sys.set_int_max_str_digits(previous)


# json loads only where a --format json record is written, never in text mode.
def _emit(args: argparse.Namespace, record: dict, text: str) -> None:
    if args.format == "json":
        import json
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def _error(args: argparse.Namespace, code: int, exc: Exception,
           prefix: str = "") -> int:
    """Write *exc* to stderr, as *prefix* and its message or as a JSON
    record, and return the exit *code*."""
    if args.format == "json":
        import json
        text = json.dumps({"command": args.subcommand, "status": "error",
                           "error": type(exc).__name__, "message": str(exc),
                           "exit": code}, sort_keys=True)
    else:
        text = f"{prefix}{exc}"
    print(text, file=sys.stderr)
    return code


# term and catalog never load sums or oeis: these import theirs on first call,
# and stay module attributes that the subcommands call through.
def evaluate(seq: SequenceDef, query: SumQuery, check: bool = False):
    from .sums import evaluate
    return evaluate(seq, query, check)


def align(seq: SequenceDef, bfile):
    from .oeis import align
    return align(seq, bfile)


def _require_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, not {value}")


def _cmd_term(args: argparse.Namespace) -> int:
    seq = _sequence_from_args(args)
    rendered = _render(term_matrix(seq, args.n))
    _emit(args, {"command": "term", "seq": args.seq, "n": args.n,
                 "value": rendered}, rendered)
    return EXIT_OK


def _cmd_sum(args: argparse.Namespace) -> int:
    seq = _sequence_from_args(args)
    query = SumQuery(Direction(args.dir), Parity(args.parity), args.n)
    result = evaluate(seq, query, check=args.check)
    rendered = _render(result.value)
    _emit(args, {"command": "sum", "seq": args.seq, "dir": args.dir,
                 "parity": args.parity, "n": args.n, "value": rendered,
                 "case_used": result.case_used.name,
                 "oracle_checked": args.check},
          f"{rendered} ({result.case_used.name})")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify  # only this subcommand needs verify and identities
    _require_at_least("--max-n", args.max_n, 0)
    _require_at_least("--random", args.random, 0)
    reports = verify.run_all(max_n=args.max_n, seq_filter=args.seq,
                             random_count=args.random, seed=args.seed)
    all_ok = all(r.succeeded for r in reports)
    for report in reports:
        record = {"command": "verify", "suite": report.name,
                  "passed": report.passed, "failed": report.failed,
                  "status": "PASS" if report.succeeded else "FAIL",
                  "failures": report.failures}
        text = (f"{report.name}: {'PASS' if report.succeeded else 'FAIL'} "
                f"({report.passed} passed, {report.failed} failed)")
        _emit(args, record, text)
        if args.format != "json":
            for failure in report.failures:
                print(f"  {failure}", file=sys.stderr)
    passed, failed = sum(r.passed for r in reports), sum(r.failed for r in reports)
    _emit(args, {"command": "verify", "suite": "total", "passed": passed,
                 "failed": failed, "status": "PASS" if all_ok else "FAIL"},
          f"PASS: {passed} checks" if all_ok
          else f"FAIL: {passed + failed} checks, {failed} failed")
    return EXIT_OK if all_ok else EXIT_MISMATCH


def _oeis_outcome(entry: CatalogEntry, fixture_dir: str | None,
                  count: int) -> tuple[dict, str]:
    """One entry's record fields after command and seq, and its text after the key."""
    from .oeis import FixtureMissing, MalformedBFile, fetch_bfile
    oeis_id = entry.primary_oeis_id
    if oeis_id is None:
        return {"status": "skipped", "reason": "no OEIS id"}, "skipped: no OEIS id"
    try:
        bfile = fetch_bfile(oeis_id, fixture_dir)
    except (FixtureMissing, MalformedBFile) as exc:
        return ({"oeis_id": oeis_id, "status": "error", "reason": str(exc)},
                f"{oeis_id} error: {exc}")
    report = align(entry.definition, bfile)
    if report.shift is None:
        return {"oeis_id": oeis_id, "status": "no-alignment"}, f"{oeis_id} no alignment found"
    matched = min(report.matched_terms, count)
    fields = {"oeis_id": oeis_id, "status": "aligned", "shift": report.shift,
              "matched": matched, "requested": count, "ok": matched >= count}
    text = f"{oeis_id} aligned (shift {report.shift}), {matched}/{count} match"
    expected = entry.oeis_offset_shift
    if expected is not None and report.shift != expected:  # an index-offset regression
        fields.update(ok=False, catalog_shift=expected)
        text += f", catalog shift {expected}"
    return fields, text


def _cmd_oeis_check(args: argparse.Namespace) -> int:
    _require_at_least("--count", args.count, 1)
    entries = list_all() if args.seq is None else [lookup(args.seq)]
    fixture_dir = args.fixture_dir or None
    any_failed = False
    for entry in entries:
        fields, text = _oeis_outcome(entry, fixture_dir, args.count)
        any_failed |= fields["status"] != "skipped" and fields.get("ok") is not True
        _emit(args, {"command": "oeis-check", "seq": entry.key, **fields},
              f"{entry.key}: {text}")
    return EXIT_OEIS if any_failed else EXIT_OK


def _best_of_three(fn, *args) -> tuple:
    """(fn(*args), the least ns of three timed calls)."""
    times = []
    for _ in range(3):
        start = time.perf_counter_ns()
        value = fn(*args)
        times.append(time.perf_counter_ns() - start)
    return value, min(times)


def _cmd_bench(args: argparse.Namespace) -> int:
    from . import oracle
    seq = lookup(args.seq).definition
    for n in args.n:
        _require_at_least("--n", n, 0)
    # Each path once, untimed: sums loads and the oracle compiles its sum loop here.
    warm = SumQuery(Direction.FORWARD, Parity.ALL, args.n[0])
    evaluate(seq, warm)
    oracle.oracle_sum(seq, warm)
    header = f"{'n':>10} {'closed_ns':>14} {'oracle_ns':>14} {'speedup':>9}"
    if args.format == "text":
        print(header)
    for n in args.n:
        query = SumQuery(Direction.FORWARD, Parity.ALL, n)
        closed, closed_ns = _best_of_three(evaluate, seq, query)
        naive, oracle_ns = _best_of_three(oracle.oracle_sum, seq, query)
        if closed.value != naive:
            return _error(args, EXIT_MISMATCH, SumMismatch(f"mismatch at n={n}"))
        ratio = oracle_ns / closed_ns if closed_ns else float("inf")
        _emit(args, {"command": "bench", "seq": args.seq, "n": n,
                     "case_used": closed.case_used.name,
                     "closed_ns": closed_ns, "oracle_ns": oracle_ns,
                     "speedup": round(ratio, 2)},
              f"{n:>10} {closed_ns:>14} {oracle_ns:>14} {ratio:>8.1f}x")
    return EXIT_OK


def _cmd_catalog(args: argparse.Namespace) -> int:
    for entry in list_all():
        seq = entry.definition
        params = " ".join(f"{k}={format_rational(v)}" for k, v in zip("rst", seq.params))
        init = " ".join(f"W{j}={format_rational(w)}"
                        for j, w in enumerate((seq.w0, seq.w1, seq.w2)))
        ids = ", ".join(entry.oeis_ids) if entry.oeis_ids else "-"
        _emit(args, {"command": "catalog", "key": entry.key,
                     "display_name": seq.name,
                     "params": params, "initial": init,
                     "oeis_ids": list(entry.oeis_ids)},
              f"{entry.key:30} {params:18} {init:18} {ids}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tribsum",
        description="Exact terms and closed-form partial sums of "
                    "generalized Tribonacci sequences.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    # Given its prog, argparse formats no usage line to find it.
    sub = parser.add_subparsers(dest="subcommand", required=True, prog=parser.prog)

    p_term = sub.add_parser("term", help="evaluate W_n at a signed index")
    _add_sequence_args(p_term)
    p_term.add_argument("--n", type=_integer, required=True)
    p_term.set_defaults(func=_cmd_term)

    p_sum = sub.add_parser("sum", help="evaluate a partial sum")
    _add_sequence_args(p_sum)
    p_sum.add_argument("--dir", choices=("fwd", "bwd"), required=True)
    p_sum.add_argument("--parity", choices=("all", "even", "odd"), required=True)
    p_sum.add_argument("--n", type=_integer, required=True)
    p_sum.add_argument("--check", action="store_true",
                       help="also run the literal sum and fail on mismatch")
    p_sum.set_defaults(func=_cmd_sum)

    p_verify = sub.add_parser("verify", help="run the verification sweeps")
    p_verify.add_argument("--seq", help="restrict to one catalog key")
    p_verify.add_argument("--max-n", type=_integer, default=100)
    p_verify.add_argument("--random", type=_integer, default=0, metavar="K",
                          help="additionally check K random parameter sets")
    p_verify.add_argument("--seed", type=_integer, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_oeis = sub.add_parser("oeis-check",
                            help="compare catalog sequences against OEIS b-files")
    p_oeis.add_argument("--seq", help="restrict to one catalog key")
    p_oeis.add_argument("--count", type=_integer, default=50)
    p_oeis.add_argument("--fixture-dir", help="override the fixture directory")
    p_oeis.set_defaults(func=_cmd_oeis_check)

    p_bench = sub.add_parser("bench",
                             help="time closed-form sums against the naive sum")
    p_bench.add_argument("--seq", default="tribonacci")
    p_bench.add_argument("--n", type=_integer, nargs="+",
                         default=[1_000, 10_000, 100_000])
    p_bench.set_defaults(func=_cmd_bench)

    p_cat = sub.add_parser("catalog", help="list the built-in sequences")
    p_cat.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # Filled as parsing goes: --format is set before any later argument fails.
    args = argparse.Namespace()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a separate "-3/4" for an option name; core validates it.
    for i in range(len(argv) - 1, 0, -1):
        if (argv[i - 1] in _PARAM_OPTIONS and len(argv[i]) > 1
                and argv[i][0] == "-" and argv[i][1] in "0123456789"):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        parser.parse_args(argv, args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`tribsum ... | head`).  Point it at
        # devnull so the flush at exit cannot fail again; see "Note on
        # SIGPIPE" in the signal module's documentation.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except UsageError as exc:
        if args.format != "json":
            argparse.ArgumentParser.error(exc.parser, str(exc))  # usage text, exit 2
        return _error(args, EXIT_USAGE, exc)
    except SumMismatch as exc:
        return _error(args, EXIT_MISMATCH, exc, "mismatch: ")
    except (UnknownSequence, ValueError) as exc:  # NegativeIndexWithZeroT is a ValueError
        return _error(args, EXIT_USAGE, exc, "error: ")


if __name__ == "__main__":
    sys.exit(main())
