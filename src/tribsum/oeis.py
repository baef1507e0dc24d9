"""OEIS b-file parsing, offset alignment, and fixture-backed retrieval.

A b-file is the plain-text OEIS term listing: one "<index> <value>" pair
per line, '#'-prefixed lines ignored, indices contiguous, so a parsed
:class:`BFile` keeps only its first index (the offset) and the values in
file order.  Alignment finds the shift between this package's W_0-based
indexing and the b-file's own offset by searching a small window of
candidate shifts; a report with no shift is one that found none.

B-files are read only from a fixture directory: the bundled package data,
or a directory the caller names.  Nothing here touches the network.  The
CLI ``oeis-check`` subcommand runs :func:`check_command`.
"""

import re
from collections import namedtuple
from collections.abc import Callable
from types import SimpleNamespace

from .core import SequenceDef, _require_at_least
from .oracle import term_table

# Candidate index shifts, smallest first.  The window reaches to +6 because
# the Padovan entry sits five positions deep in its b-file.
SHIFT_WINDOW = range(-3, 7)

# Consecutive matching terms required to declare an alignment.
MIN_MATCHED_TERMS = 10

_OEIS_ID_RE = re.compile(r"A([0-9]{6})")
_LINE_RE = re.compile(r"^\s*(-?[0-9]+)\s+(-?[0-9]+)\s*$")


class MalformedBFile(ValueError):
    """A b-file line failed to parse or the indices are not contiguous."""


class FixtureMissing(FileNotFoundError):
    """No fixture file exists for the requested OEIS ID."""


class BFile(namedtuple("BFile", "oeis_id offset values")):
    """The terms of one b-file: oeis_id, its OEIS id ("" if unnamed);
    offset, the index of its first term; values, a tuple of ints, values[j]
    the term at index offset + j."""

    __slots__ = ()

    def value_at(self, index: int) -> int:
        if not 0 <= index - self.offset < len(self.values):
            raise IndexError(f"index {index} outside b-file range")
        return self.values[index - self.offset]


class AlignmentReport(namedtuple("AlignmentReport", "oeis_id shift matched_terms")):
    """The b-file's oeis_id, the smallest aligning shift (b-file index minus
    n) and its count of matched_terms, or shift None and 0 where no shift in
    SHIFT_WINDOW aligns."""

    __slots__ = ()


def parse_bfile(content: str, oeis_id: str = "") -> BFile:
    """Parse b-file text; raises :class:`MalformedBFile` on any defect."""
    offset, values = None, []
    for lineno, line in enumerate(content.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _LINE_RE.match(stripped)
        if m is None:
            raise MalformedBFile(f"line {lineno}: cannot parse {line!r}")
        try:
            index, value = int(m.group(1)), int(m.group(2))
        except ValueError as exc:  # past the interpreter's int conversion limit
            raise MalformedBFile(f"line {lineno}: {exc}") from None
        if offset is None:
            offset = index
        elif index != offset + len(values):
            raise MalformedBFile(
                f"line {lineno}: index {index} breaks contiguity "
                f"(previous {offset + len(values) - 1})")
        values.append(value)
    if offset is None:
        raise MalformedBFile("no data lines")
    return BFile(oeis_id, offset, tuple(values))


def align(seq: SequenceDef, bfile: BFile) -> AlignmentReport:
    """Search for the smallest shift aligning *seq* with *bfile*.

    A shift sigma matches when term(n) == b-file value at index n + sigma
    for at least MIN_MATCHED_TERMS consecutive n starting at the first
    overlapping index.  The terms for every candidate shift come from one
    term table.
    """
    lo, hi = bfile.offset, bfile.offset + len(bfile.values) - 1

    def first(sigma: int) -> int:
        # Without a backward step (t = 0) the overlap starts at W_0 at the earliest.
        return lo - sigma if seq.params.t != 0 else max(lo - sigma, 0)

    table = term_table(seq, first(SHIFT_WINDOW[-1]), hi - SHIFT_WINDOW[0])
    for sigma in SHIFT_WINDOW:
        matched = 0
        for n in range(first(sigma), hi - sigma + 1):
            if table[n] != bfile.value_at(n + sigma):
                break
            matched += 1
        if matched >= MIN_MATCHED_TERMS:
            return AlignmentReport(bfile.oeis_id, sigma, matched)
    return AlignmentReport(bfile.oeis_id, None, 0)


def _fixture_filename(oeis_id: str) -> str:
    m = _OEIS_ID_RE.fullmatch(oeis_id)
    if m is None:
        raise FixtureMissing(f"not a valid OEIS ID: {oeis_id!r}")
    return f"b{m.group(1)}.txt"


# pathlib loads where a path is built, off the term and sum path, so the
# annotations that name Path are strings.
def default_fixture_dir() -> "Path":
    """The bundled fixture directory, next to this module (what
    ``importlib.resources.files`` gives for an installed or source tree)."""
    from pathlib import Path
    return Path(__file__).parent / "fixtures"


def fetch_bfile(oeis_id: str, fixture_dir: "str | Path | None" = None) -> BFile:
    """Load a b-file from *fixture_dir*, else from :func:`default_fixture_dir`."""
    from pathlib import Path
    directory = Path(fixture_dir) if fixture_dir is not None else default_fixture_dir()
    path = directory / _fixture_filename(oeis_id)
    if not path.is_file():
        raise FixtureMissing(f"no fixture for {oeis_id} at {path}")
    try:  # b-files are ASCII, whatever the locale
        content = path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise MalformedBFile(f"{path}: {exc}") from None
    return parse_bfile(content, oeis_id)


# The catalog loads with the oeis-check subcommand, not with this module's
# library use, so the annotation that names CatalogEntry is a string.
def _outcome(entry: "CatalogEntry", fixture_dir: str | None, count: int,
             align: Callable) -> tuple[dict, str]:
    """One entry's record fields after command and seq, and its text after the key."""
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


def check_command(args: SimpleNamespace, emit: Callable, lookup: Callable,
                  align: Callable) -> bool:
    """The ``oeis-check`` subcommand: align each catalog entry named by the
    parsed *args* (found by *lookup*, all of them without ``--seq``) with
    its b-file by *align*, and write its record through
    ``emit(args, record, text)``.  Return whether every entry with an OEIS
    id matched its first ``--count`` terms at the catalog's shift."""
    from .catalog import list_all
    _require_at_least("--count", args.count, 1)
    entries = list_all() if args.seq is None else [lookup(args.seq)]
    fixture_dir = args.fixture_dir or None
    all_ok = True
    for entry in entries:
        fields, text = _outcome(entry, fixture_dir, args.count, align)
        all_ok &= fields["status"] == "skipped" or fields.get("ok") is True
        emit(args, {"command": "oeis-check", "seq": entry.key, **fields},
             f"{entry.key}: {text}")
    return all_ok
