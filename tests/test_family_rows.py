"""The sum families as plain rows: a warm query runs no code from enum.py,
and the oracle's own family table agrees with the rows of tribsum.sums."""

import enum
import sys
from fractions import Fraction

import tribsum.oracle as oracle
import tribsum.sums as sums
from tribsum.core import SequenceDef, term_matrix
from tribsum.sums import Direction, Parity, SumQuery, evaluate

# A generic rational triple; (1, 3, 1), whose d2 = 0 sends its even and odd
# sums to the literal walk; and (0, 2, 1), whose even and odd sums take the
# "021" clauses.
SEQS = (SequenceDef.of(Fraction(3, 7), Fraction(-5, 4), Fraction(2, 9), Fraction(1, 2), 0, -3),
        SequenceDef.of(1, 3, 1, 2, -1, 3),
        SequenceDef.of(0, 2, 1, 1, 2, 3))
QUERIES = [SumQuery(d, p, n) for d in Direction for p in Parity for n in (1, 40)]


def enum_calls(run) -> list[str]:
    """The names of the Python functions in enum.py that *run* calls."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == enum.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_warm_queries_run_no_enum_code():
    """Dispatch, combine and the literal walk find their rows by plain
    keys: no enum member is hashed and no .value or .name is read."""
    def run():
        for seq in SEQS:
            for query in QUERIES:
                evaluate(seq, query)
                evaluate(seq, query, check=True)
        for n in (300, -300):
            term_matrix(SEQS[0], n)

    assert enum_calls(lambda: Parity("all"))  # the probe sees enum.py's code
    run()  # loads the oracle and compiles its sum loops
    assert enum_calls(run) == []


# Where a generic clause's window starts, in the walk's own order (W_0, W_1,
# ... forward, V_0, V_1, ... = W_2, W_1, ... backward), from the last term
# the sum adds: just past it for all-index sums, at it for even ones and one
# term before it for odd ones, in either direction.
WINDOW_FROM_LAST = {"all": 1, "even": 0, "odd": -1}


def test_oracle_families_match_sums_rows():
    """The two copies of the family table: the first bound and the stride
    agree, the oracle's first walk position is the row's first term
    W_(a*first + b) forward and W_(b - a*first) = V_(2 - (b - a*first))
    backward, and each generic clause's window sits where WINDOW_FROM_LAST
    puts it from the oracle's last term, at every bound."""
    assert set(oracle._FAMILIES) == set(sums._FAMILIES)
    for (direction, parity), (first, start, stride) in oracle._FAMILIES.items():
        row = sums._FAMILIES[direction, parity]
        assert (row.first, row.stride) == (first, stride)
        forward = direction == "fwd"
        if forward:  # W_k at walk position k
            assert start == row.term_offset + row.stride * first
        else:  # W_k at walk position 2 - k, V's index
            assert start == 2 - (row.term_offset - row.stride * first)
        clause = sums._CLAUSES[row.clauses[0]]
        assert clause.condition == "generic"
        for n in range(first, first + 8):
            last = start + stride * (n - first)
            if clause.back is None:
                window = clause.stride * n + clause.offset
            else:  # V's window V_m, at walk position m
                name, shift, _ = clause.back
                v = sums._CLAUSES[name]
                window = v.stride * (n + shift) + v.offset
            assert window - last == WINDOW_FROM_LAST[parity]
