"""The sum families as plain rows: a warm query runs no code from enum.py,
and the oracle's family table agrees with the clause rows of tribsum.sums."""

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
    """Each family of the oracle's table has a row in tribsum.sums, whose
    first clause is generic, and that clause's window sits where
    WINDOW_FROM_LAST puts it from the oracle's last term, at every bound."""
    assert set(oracle._FAMILIES) == set(sums._FAMILIES)
    for (direction, parity), (first, start, stride) in oracle._FAMILIES.items():
        clause = sums._CLAUSES[sums._FAMILIES[direction, parity][0]]
        assert clause.case.value[2] == "generic"
        for n in range(first, first + 8):
            last = start + stride * (n - first)
            m = sums._clause(clause, n, (1, 1, 1, 1))[3]
            window = m if direction == "fwd" else -m  # W(m) is V(-m) reversed
            assert window - last == WINDOW_FROM_LAST[parity]
