"""OEIS b-file parsing, offset alignment, and fixture-backed retrieval.

A b-file is the plain-text OEIS term listing: one "<index> <value>" pair
per line, '#'-prefixed lines ignored, indices contiguous, so a parsed
:class:`BFile` keeps only its first index (the offset) and the values in
file order.  Alignment finds the shift between this package's W_0-based
indexing and the b-file's own offset by searching a small window of
candidate shifts; a report with no shift is one that found none.

B-files are read only from a fixture directory: the bundled package data,
or a directory the caller names.  Nothing here touches the network.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from .core import SequenceDef
from .oracle import term_table

if TYPE_CHECKING:  # imported where a path is built, off the term and sum path
    from pathlib import Path

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


class BFile(NamedTuple):
    """The terms of one b-file: values[j] is the term at index offset + j."""

    oeis_id: str
    offset: int
    values: tuple[int, ...]

    def value_at(self, index: int) -> int:
        if not 0 <= index - self.offset < len(self.values):
            raise IndexError(f"index {index} outside b-file range")
        return self.values[index - self.offset]


class AlignmentReport(NamedTuple):
    """The smallest aligning shift with its count of matched terms, or
    (None, 0) where no shift in SHIFT_WINDOW aligns."""

    oeis_id: str
    shift: Optional[int]
    matched_terms: int


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


def default_fixture_dir() -> Path:
    """The bundled fixture directory, next to this module (what
    ``importlib.resources.files`` gives for an installed or source tree)."""
    from pathlib import Path
    return Path(__file__).parent / "fixtures"


def fetch_bfile(oeis_id: str, fixture_dir: Optional[Union[str, Path]] = None) -> BFile:
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
