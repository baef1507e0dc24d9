"""Registry of the fifteen named third-order recurrence sequences.

Each entry records the coefficient triple, the initial terms and the display
name (all three in its ``definition``), and the OEIS identifiers associated
with the sequence.  ``oeis_offset_shift`` maps this package's index n to the
b-file index (b-file index = n + shift); it is stored only for entries whose
primary OEIS ID has a bundled fixture and was confirmed by the alignment
search in :mod:`tribsum.oeis`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import SequenceDef


class UnknownSequence(KeyError):
    """Lookup of a key that is not in the catalog."""

    def __str__(self) -> str:
        # KeyError.__str__ would quote the message like the repr of a key.
        return Exception.__str__(self)


class CatalogEntry(NamedTuple):
    key: str
    definition: SequenceDef
    oeis_ids: tuple[str, ...]
    oeis_offset_shift: Optional[int] = None

    @property
    def primary_oeis_id(self) -> Optional[str]:
        return self.oeis_ids[0] if self.oeis_ids else None


def _entry(key, display, w0, w1, w2, r, s, t, oeis_ids, shift=None):
    seq = SequenceDef.of(r, s, t, w0, w1, w2, name=display)
    return CatalogEntry(key, seq, tuple(oeis_ids), shift)


_ENTRIES: tuple[CatalogEntry, ...] = (
    _entry("tribonacci", "Tribonacci",
           0, 1, 1, 1, 1, 1, ("A000073", "A057597"), shift=1),
    _entry("tribonacci-lucas", "Tribonacci-Lucas",
           3, 1, 3, 1, 1, 1, ("A001644", "A073145"), shift=0),
    _entry("third-order-pell", "third order Pell",
           0, 1, 2, 2, 1, 1, ("A077939", "A077978"), shift=-1),
    _entry("third-order-pell-lucas", "third order Pell-Lucas",
           3, 2, 6, 2, 1, 1, ("A276225", "A276228")),
    _entry("third-order-modified-pell", "third order modified Pell",
           0, 1, 1, 2, 1, 1, ("A077997", "A078049")),
    _entry("padovan", "Padovan (Cordonnier)",
           1, 1, 1, 0, 1, 1, ("A000931",), shift=5),
    _entry("perrin", "Perrin (Padovan-Lucas)",
           3, 0, 2, 0, 1, 1, ("A001608", "A078712"), shift=0),
    _entry("padovan-perrin", "Padovan-Perrin",
           0, 0, 1, 0, 1, 1, ("A000931", "A176971"), shift=1),
    _entry("pell-padovan", "Pell-Padovan",
           1, 1, 1, 0, 2, 1, ("A066983", "A128587")),
    _entry("pell-perrin", "Pell-Perrin",
           3, 0, 2, 0, 2, 1, ()),
    _entry("jacobsthal-padovan", "Jacobsthal-Padovan",
           1, 1, 1, 0, 1, 2, ("A159284",)),
    _entry("jacobsthal-perrin", "Jacobsthal-Perrin (-Lucas)",
           3, 0, 2, 0, 1, 2, ("A072328",)),
    _entry("narayana", "Narayana",
           0, 1, 1, 1, 0, 1, ("A078012",)),
    _entry("third-order-jacobsthal", "third order Jacobsthal",
           0, 1, 1, 1, 1, 2, ("A077947",)),
    _entry("third-order-jacobsthal-lucas", "third order Jacobsthal-Lucas",
           2, 1, 5, 1, 1, 2, ("A226308",)),
)

_BY_KEY = {entry.key: entry for entry in _ENTRIES}


def lookup(key: str) -> CatalogEntry:
    """Return the catalog entry for *key*, or raise :class:`UnknownSequence`."""
    try:
        return _BY_KEY[key]
    except KeyError:
        raise UnknownSequence(
            f"unknown sequence {key!r}; known keys: {', '.join(_BY_KEY)}"
        ) from None


def list_all() -> list[CatalogEntry]:
    """All fifteen entries, in registry order."""
    return list(_ENTRIES)
