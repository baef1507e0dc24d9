"""Command-line interface.

Subcommands: term, sum, verify, oeis-check, bench, catalog.  Results print
as plain text by default; ``--format json`` emits one self-contained JSON
record per result (newline-delimited), verify's failures inside their
suite's record, and each error as one JSON record on stderr.  Exit codes:
0 success, 1 output pipe closed by its reader, 2 usage or precondition
error, 3 verification mismatch, 4 OEIS check failure.

Each subcommand's help, handler and options are declared once, in
``_COMMANDS``.  ``main`` reads a command line of the canonical shape
``[--format F] SUBCOMMAND (--option VALUE | --flag)*`` from that table
itself, negative values included; any other (help, abbreviations,
``--opt=value``, repeats, values that an option's type rejects or that
start with "-" and are not negative numbers) goes to ``_parser``, which
builds the argparse parser from the same table.  So argparse, gettext and
locale load only for help, usage and errors.

term, sum, bench and catalog run here.  verify's handler is in
:mod:`tribsum.verify` and oeis-check's in :mod:`tribsum.oeis`, each loaded
with its subcommand and passed this module's record writer and the
functions it calls through this module.  A record whose keys and values
are ints, bools, None, printable ASCII without '"' or '\\', or lists of
these is written without json; json loads only for any other record, such
as bench's float speedup or a message that needs escaping.
"""

import os
import sys
import time
from types import SimpleNamespace

from .catalog import UnknownSequence, list_all, lookup
from .core import (_LITERAL, Direction, Parity, SequenceDef, SumMismatch, SumQuery,
                   _require_at_least, format_rational, term_matrix)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_OEIS = 4

_PARAM_FLAGS = ("r", "s", "t", "w0", "w1", "w2")
_PARAM_OPTIONS = {f"--{flag}" for flag in _PARAM_FLAGS}


def _integer(text: str) -> int:
    """An integer option: the rational literal grammar without "/".  A bad
    value's ValueError carries the message argparse gives for ``type=int``."""
    try:
        if "/" not in text and _LITERAL.fullmatch(text):
            return int(text)
    except ValueError:  # past the interpreter's int conversion limit
        pass
    raise ValueError(f"invalid int value: {text!r}")


def _sequence_from_args(args: SimpleNamespace) -> SequenceDef:
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


def _plain(value) -> str | None:
    """What json.dumps writes for *value* if it is an int, a bool, None, a
    string of printable ASCII with no '"' or '\\', or a list of these, else
    None."""
    kind = type(value)
    if kind is str:
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
    elif kind is int:
        return str(value)
    elif kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    elif kind is list:
        items = [_plain(item) for item in value]
        if None not in items:
            return f"[{', '.join(items)}]"
    return None


def _dumps(record: dict) -> str:
    """``json.dumps(record, sort_keys=True)`` of a record with string keys:
    from _plain where every key and value has a plain form, else from json,
    which loads only here."""
    fields = []
    for key in sorted(record):
        name, value = _plain(key), _plain(record[key])
        if name is None or value is None:
            import json
            return json.dumps(record, sort_keys=True)
        fields.append(f"{name}: {value}")
    return f"{{{', '.join(fields)}}}"


def _emit(args: SimpleNamespace, record: dict, text: str) -> None:
    print(_dumps(record) if args.format == "json" else text)


def _error(args: SimpleNamespace, code: int, exc: Exception,
           prefix: str = "") -> int:
    """Write *exc* to stderr, as *prefix* and its message or as a JSON
    record, and return the exit *code*."""
    if args.format == "json":
        text = _dumps({"command": args.subcommand, "status": "error",
                       "error": type(exc).__name__, "message": str(exc), "exit": code})
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


def _cmd_term(args: SimpleNamespace) -> int:
    seq = _sequence_from_args(args)
    rendered = _render(term_matrix(seq, args.n))
    _emit(args, {"command": "term", "seq": args.seq, "n": args.n,
                 "value": rendered}, rendered)
    return EXIT_OK


def _cmd_sum(args: SimpleNamespace) -> int:
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


# verify and oeis-check run in their own modules, which load with them; oeis
# calls lookup and align through this module, where callers may replace them.
def _cmd_verify(args: SimpleNamespace) -> int:
    from .verify import run_command
    return EXIT_OK if run_command(args, _emit) else EXIT_MISMATCH


def _cmd_oeis_check(args: SimpleNamespace) -> int:
    from .oeis import check_command
    return EXIT_OK if check_command(args, _emit, lookup, align) else EXIT_OEIS


def _best_of_three(fn, *args) -> tuple:
    """(fn(*args), the least ns of three timed calls)."""
    times = []
    for _ in range(3):
        start = time.perf_counter_ns()
        value = fn(*args)
        times.append(time.perf_counter_ns() - start)
    return value, min(times)


def _cmd_bench(args: SimpleNamespace) -> int:
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


def _cmd_catalog(args: SimpleNamespace) -> int:
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


_SEQUENCE_OPTIONS = {"--seq": {"help": "catalog key (see the catalog subcommand)"},
                     **{f"--{flag}": {"help": "rational literal, 'p' or 'p/q'"}
                        for flag in _PARAM_FLAGS}}

# The parser's own options and description, then each subcommand's help,
# handler and options; each option maps its name to its add_argument
# call's keyword arguments.
_PROGRAM = {"--format": {"choices": ("text", "json"), "default": "text"}}
_DESCRIPTION = ("Exact terms and closed-form partial sums of "
                "generalized Tribonacci sequences.")
_COMMANDS = {
    "term": ("evaluate W_n at a signed index", _cmd_term, {
        **_SEQUENCE_OPTIONS,
        "--n": {"type": _integer, "required": True}}),
    "sum": ("evaluate a partial sum", _cmd_sum, {
        **_SEQUENCE_OPTIONS,
        "--dir": {"choices": ("fwd", "bwd"), "required": True},
        "--parity": {"choices": ("all", "even", "odd"), "required": True},
        "--n": {"type": _integer, "required": True},
        "--check": {"action": "store_true",
                    "help": "also run the literal sum and fail on mismatch"}}),
    "verify": ("run the verification sweeps", _cmd_verify, {
        "--seq": {"help": "restrict to one catalog key"},
        "--max-n": {"type": _integer, "default": 100},
        "--random": {"type": _integer, "default": 0, "metavar": "K",
                     "help": "additionally check K random parameter sets"},
        "--seed": {"type": _integer, "default": 0}}),
    "oeis-check": ("compare catalog sequences against OEIS b-files", _cmd_oeis_check, {
        "--seq": {"help": "restrict to one catalog key"},
        "--count": {"type": _integer, "default": 50},
        "--fixture-dir": {"help": "override the fixture directory"}}),
    "bench": ("time closed-form sums against the naive sum", _cmd_bench, {
        "--seq": {"default": "tribonacci"},
        "--n": {"type": _integer, "nargs": "+", "default": [1_000, 10_000, 100_000]}}),
    "catalog": ("list the built-in sequences", _cmd_catalog, {}),
}


def build_parser():
    """The argparse parser of _PROGRAM and _COMMANDS: the only source of
    help, usage and error text, and the one place argparse is loaded."""
    from ._parser import build_parser
    return build_parser(_PROGRAM, _DESCRIPTION, _COMMANDS)


def _read_options(argv: list[str], i: int, options: dict, values: dict) -> int | None:
    """Read ``--option VALUE`` and ``--flag`` items of *options* from argv[i:]
    into *values*, converted as argparse converts them, up to the first
    item that does not start with "-".  Return that item's index, or None
    for an item argparse must read: a name not in full or given twice, a
    list option, a missing value or one _takes_value leaves to argparse,
    or a value its option's type or choices reject."""
    while i < len(argv) and argv[i][:1] == "-":
        spec, dest = options.get(argv[i]), _dest(argv[i])
        if spec is None or dest in values or "nargs" in spec:
            return None
        if spec.get("action") == "store_true":
            values[dest] = True
            i += 1
            continue
        if i + 1 == len(argv) or not _takes_value(argv[i], spec, argv[i + 1]):
            return None
        try:
            value = spec.get("type", str)(argv[i + 1])
        except ValueError:
            return None
        if value not in spec.get("choices", (value,)):
            return None
        values[dest] = value
        i += 2
    return i


def _takes_value(name: str, spec: dict, text: str) -> bool:
    """Whether *text* is read as option *name*'s value here, as argparse
    reads it: any text that does not start with "-"; after a parameter, "-"
    and an ASCII digit, which _parser joins to it as "--s=-5/4"; after an
    integer option, "-" and ASCII digits, which argparse takes for a
    negative number.  Any other text that starts with "-" is argparse's."""
    if text[:1] != "-":
        return True
    if name in _PARAM_OPTIONS:
        return len(text) > 1 and text[1] in "0123456789"
    return spec.get("type") is _integer and text[1:].isascii() and text[1:].isdigit()


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _defaults(options: dict) -> dict:
    return {_dest(name): False if spec.get("action") == "store_true" else spec.get("default")
            for name, spec in options.items()}


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of a canonical *argv*, read from the
    same table without argparse, or None for any other argv."""
    program = {}
    i = _read_options(argv, 0, _PROGRAM, program)
    if i is None or i == len(argv) or argv[i] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[i]]
    values = {}
    if _read_options(argv, i + 1, options, values) != len(argv):
        return None
    if any(spec.get("required") and _dest(name) not in values
           for name, spec in options.items()):
        return None
    return SimpleNamespace(**{**_defaults(_PROGRAM), **program, "subcommand": argv[i],
                              **_defaults(options), **values, "func": func})


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _read(argv)
    try:
        if args is None:
            from ._parser import parse
            # Filled as parsing goes: --format is set before any later argument fails.
            args = SimpleNamespace()
            failure = parse(build_parser(), argv, args, _PARAM_OPTIONS)
            if failure is not None:
                return _error(args, EXIT_USAGE, failure)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`tribsum ... | head`).  Point it at
        # devnull so the flush at exit cannot fail again; see "Note on
        # SIGPIPE" in the signal module's documentation.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except SumMismatch as exc:
        return _error(args, EXIT_MISMATCH, exc, "mismatch: ")
    except (UnknownSequence, ValueError) as exc:  # NegativeIndexWithZeroT is a ValueError
        return _error(args, EXIT_USAGE, exc, "error: ")


if __name__ == "__main__":
    sys.exit(main())
