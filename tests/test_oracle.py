from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribsum.core import NegativeIndexWithZeroT, SequenceDef, window
from tribsum.oracle import oracle_sum, oracle_term, prefix_sums, term_table
from tribsum.sums import Direction, Parity, SumQuery, query_indices

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


class TestOracleTerm:
    def test_initials(self, tribonacci):
        assert oracle_term(tribonacci, 0) == 0
        assert oracle_term(tribonacci, 1) == 1
        assert oracle_term(tribonacci, 2) == 1

    def test_known_values(self, tribonacci, perrin):
        assert oracle_term(tribonacci, 7) == 24
        assert oracle_term(tribonacci, 13) == 927
        assert oracle_term(tribonacci, -3) == -1
        assert oracle_term(perrin, -5) == 4
        assert oracle_term(perrin, -1) == -1

    def test_zero_t_negative_raises(self):
        seq = SequenceDef.of(1, 1, 0, 0, 1, 1)
        with pytest.raises(NegativeIndexWithZeroT):
            oracle_term(seq, -2)

    @given(r=rationals, s=rationals, t=rationals.filter(lambda q: q != 0),
           w0=rationals, w1=rationals, w2=rationals,
           n=st.integers(min_value=-40, max_value=40))
    @settings(max_examples=50, deadline=None)
    def test_matches_iterative(self, r, s, t, w0, w1, w2, n):
        seq = SequenceDef.of(r, s, t, w0, w1, w2)
        assert oracle_term(seq, n) == window(seq, n)[0]


class TestOracleSum:
    def test_forward_all(self, tribonacci):
        q = SumQuery(Direction.FORWARD, Parity.ALL, 10)
        assert oracle_sum(tribonacci, q) == 326

    def test_literal_addition(self, perrin):
        q = SumQuery(Direction.FORWARD, Parity.ODD, 3)
        expected = sum((oracle_term(perrin, k) for k in (1, 3, 5, 7)),
                       Fraction(0))
        assert oracle_sum(perrin, q) == expected

    def test_backward_even(self, pell_padovan):
        q = SumQuery(Direction.BACKWARD, Parity.EVEN, 1)
        assert oracle_sum(pell_padovan, q) == 3

    def test_zero_t_backward_raises(self):
        seq = SequenceDef.of(1, 1, 0, 0, 1, 1)
        with pytest.raises(NegativeIndexWithZeroT):
            oracle_sum(seq, SumQuery(Direction.BACKWARD, Parity.ALL, 2))

    @given(r=rationals, s=rationals, t=rationals,
           w0=rationals, w1=rationals, w2=rationals,
           n=st.integers(min_value=1, max_value=20))
    @settings(max_examples=50, deadline=None)
    def test_matches_independent_terms(self, r, s, t, w0, w1, w2, n):
        # Sums and every prefix sum against terms from core.window, which
        # shares no code with the oracle's walk; backward families need t != 0.
        seq = SequenceDef.of(r, s, t, w0, w1, w2)
        directions = [Direction.FORWARD] + ([Direction.BACKWARD] if t != 0 else [])
        for direction in directions:
            for parity in Parity:
                prefixes = list(prefix_sums(seq, direction, parity, n))
                first = 1 if direction is Direction.BACKWARD else 0
                assert [m for m, _ in prefixes] == list(range(first, n + 1))
                for m, running in prefixes:
                    q = SumQuery(direction, parity, m)
                    expected = sum((window(seq, k)[0] for k in query_indices(q)),
                                   Fraction(0))
                    assert running == expected
                    assert oracle_sum(seq, q) == expected


class TestTermTable:
    def test_span(self, tribonacci):
        table = term_table(tribonacci, -4, 7)
        assert sorted(table) == list(range(-4, 8))
        assert all(table[k] == window(tribonacci, k)[0] for k in table)

    def test_forward_only(self):
        seq = SequenceDef.of(1, 1, 0, 0, 1, 1)
        assert term_table(seq, 0, 3) == {0: 0, 1: 1, 2: 1, 3: 2}
        with pytest.raises(NegativeIndexWithZeroT):
            term_table(seq, -1, 3)
