"""The literal reference implementation used as ground truth by every test.

Everything here rests on one streaming walk of the recurrence, forward from
W_0 or backward from W_{-1}, that holds three live terms.  It is the
package's only O(|n|) recurrence walk: terms, term tables, literal sums and
running prefix sums are all read off it, and ``tribsum.term_iterative`` is
:func:`oracle_term`.  Nothing here shares code with the closed forms in
:mod:`tribsum.sums` or with the polynomial-power kernel in
:mod:`tribsum.core`, so an agreement between them is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice
from typing import Iterator

from .core import (Direction, NegativeIndexWithZeroT, Parity, SequenceDef,
                   SumQuery, _require_int)


def _walk(seq: SequenceDef, direction: Direction) -> Iterator[Fraction]:
    """W_0, W_1, W_2, ... forward, or W_{-1}, W_{-2}, ... backward, without end."""
    r, s, t = seq.params.r, seq.params.s, seq.params.t
    low, mid, high = seq.w0, seq.w1, seq.w2
    if direction is Direction.FORWARD:
        while True:
            yield low
            low, mid, high = mid, high, r * high + s * mid + t * low
    if t == 0:
        raise NegativeIndexWithZeroT("stepping backward requires t != 0")
    while True:
        low, mid, high = (high - r * mid - s * low) / t, low, mid
        yield low


def oracle_term(seq: SequenceDef, n: int) -> Fraction:
    """W_n, reached by walking from the initial terms."""
    _require_int(n, "the index n")
    if n >= 0:
        return next(islice(_walk(seq, Direction.FORWARD), n, None))
    return next(islice(_walk(seq, Direction.BACKWARD), -n - 1, None))


def term_table(seq: SequenceDef, lo: int, hi: int) -> dict[int, Fraction]:
    """W_0 .. W_hi and W_{-1} .. W_lo by index, walked once each way."""
    table = dict(enumerate(islice(_walk(seq, Direction.FORWARD), max(hi + 1, 0))))
    if lo < 0:
        table.update(zip(range(-1, lo - 1, -1), _walk(seq, Direction.BACKWARD)))
    return table


def prefix_sums(seq: SequenceDef, direction: Direction, parity: Parity,
                max_n: int) -> Iterator[tuple[int, Fraction]]:
    """(n, literal sum) for every bound n <= max_n of one sum family.

    The terms the family adds are taken from a single walk, in the order
    the sums grow, and accumulated one at a time.
    """
    forward = direction is Direction.FORWARD
    # Walk positions: W_k sits at k going forward and at -k - 1 going back.
    start = int(parity is (Parity.ODD if forward else Parity.EVEN))
    step = 1 if parity is Parity.ALL else 2
    added = islice(_walk(seq, direction), start, None, step)
    return zip(range(0 if forward else 1, max_n + 1), accumulate(added))


def oracle_sum(seq: SequenceDef, query: SumQuery) -> Fraction:
    """The literal sum of the terms selected by *query*, added one by one."""
    total = Fraction(0)
    for _, total in prefix_sums(seq, query.direction, query.parity, query.n):
        pass
    return total
