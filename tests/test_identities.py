"""Every named-sequence sum identity against the literal sum."""

from collections import Counter

import pytest

from tribsum.catalog import list_all
from tribsum import term_iterative
from tribsum.identities import SUM_IDENTITIES
from tribsum.oracle import oracle_sum
from tribsum.sums import Direction, Parity, SumQuery

_DEFS = {entry.key: entry.definition for entry in list_all()}


def test_coverage_is_complete():
    combos = Counter((i.sequence_key, i.direction, i.parity)
                     for i in SUM_IDENTITIES)
    assert len(SUM_IDENTITIES) == 90
    assert all(count == 1 for count in combos.values())
    expected = {(key, d, p)
                for key in _DEFS
                for d in Direction
                for p in Parity}
    assert set(combos) == expected


@pytest.mark.parametrize(
    "ident", SUM_IDENTITIES,
    ids=[f"{i.sequence_key}-{i.direction.value}-{i.parity.value}"
         for i in SUM_IDENTITIES])
def test_identity_matches_oracle(ident):
    seq = _DEFS[ident.sequence_key]
    term = lambda k: term_iterative(seq, k)
    first = int(ident.direction is Direction.BACKWARD)  # SumQuery's least n
    with pytest.raises(ValueError):
        SumQuery(ident.direction, ident.parity, first - 1)
    for n in range(first, 51):
        expected = oracle_sum(seq, SumQuery(ident.direction, ident.parity, n))
        assert ident.clause(term, n) == expected, \
            f"{ident.sequence_key} n={n}"
