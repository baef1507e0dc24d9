import math
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tribsum.core as core
import tribsum.oracle as oracle
from tribsum.core import NegativeIndexWithZeroT, SequenceDef, term_matrix
from tribsum.oracle import oracle_sum, oracle_term, prefix_sums, term_table
from tribsum.sums import Direction, Parity, SumQuery

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
# Denominators 2..9, and numerators up to 9 in size, so the forward q, the
# starting terms' d and (through 1/t) the backward q are rarely 1.
fractional = st.builds(Fraction, st.integers(-9, 9), st.integers(2, 9))
nonzero_fractional = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1),
                               st.integers(2, 9))


def reference_terms(seq, lo, hi):
    """W_lo .. W_hi by the plain Fraction recurrence, one step at a time in
    each direction from W_0, W_1, W_2; no scaling."""
    r, s, t = seq.params.r, seq.params.s, seq.params.t
    terms = {0: seq.w0, 1: seq.w1, 2: seq.w2}
    for k in range(3, hi + 1):
        terms[k] = r * terms[k - 1] + s * terms[k - 2] + t * terms[k - 3]
    for k in range(-1, lo - 1, -1):
        terms[k] = (terms[k + 3] - r * terms[k + 2] - s * terms[k + 1]) / t
    return {k: w for k, w in terms.items() if lo <= k <= hi}


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
        assert oracle_term(seq, n) == term_matrix(seq, n)


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
    def test_matches_independent_terms(self, query_indices, r, s, t, w0, w1, w2, n):
        # Sums and every prefix sum against terms from core.term_matrix, which
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
                    expected = sum((term_matrix(seq, k) for k in query_indices(q)),
                                   Fraction(0))
                    assert running == expected
                    assert oracle_sum(seq, q) == expected


class TestOracleSumBranches:
    """oracle_sum adds in place where q^stride is 1 (an integer triple with
    t = 1, both ways) and by Horner in q^stride where the scale grows: each
    family compiles one sum loop, keyed by its pattern, stride and scale."""

    @pytest.mark.parametrize("params, plain", [
        (("2", "-1", "1", "1/2", "0", "-3"), True),
        (("3/7", "-5/4", "2/9", "1/2", "0", "-3"), False)], ids=["integer", "rational"])
    def test_matches_added_terms(self, query_indices, monkeypatch, params, plain):
        seq = SequenceDef.of(*params)
        for direction in Direction:
            for parity in Parity:
                monkeypatch.setattr(oracle, "_SUMS", {})
                for n in range(int(direction is Direction.BACKWARD), 41):
                    q = SumQuery(direction, parity, n)
                    assert oracle_sum(seq, q) == sum(oracle_term(seq, k)
                                                     for k in query_indices(q))
                stride = 1 if parity is Parity.ALL else 2
                assert [key[1:] for key in oracle._SUMS] == [(stride, not plain)]


class TestWalkPatterns:
    """The term walk is the plain recurrence, and each step of a sum loop,
    compiled per pattern of (R, S, T), drops a coefficient of 0, adds or
    subtracts one of +-1 and multiplies by any other."""

    COEFFS = (-3, -1, 0, 1, 2)  # every class, and "other" of each sign
    INTEGER_TRIPLES = [(1, 3, 1), (0, 2, 1), (1, 1, -1), (1, 0, 0), (-1, 0, 1), (2, -1, 1)]

    @pytest.mark.parametrize("R", COEFFS)
    def test_steps_match_plain_recurrence(self, R):
        for S, T in product(self.COEFFS, repeat=2):
            expected = [5, -7, 3]
            while len(expected) < 40:
                expected.append(R * expected[-1] + S * expected[-2] + T * expected[-3])
            assert list(islice(oracle._steps(R, S, T, 5, -7, 3), 40)) == expected

    @pytest.mark.parametrize("stride", (1, 2))
    @pytest.mark.parametrize("horner", (False, True), ids=["plain", "horner"])
    def test_sum_loops_match_plain_recurrence(self, stride, horner):
        """Every compiled sum loop, after each skip a family makes and at
        every count up to three turns of six steps, so that it ends at each
        remainder, against a Horner sum of the plain recurrence."""
        Q = 7 if horner else 1
        for R, S, T in product(self.COEFFS, repeat=3):
            ints = [5, -7, 3]
            while len(ints) < 40:
                ints.append(R * ints[-1] + S * ints[-2] + T * ints[-3])
            loop = oracle._compile_sum(oracle._pattern(R, S, T), stride, horner)
            for skip in (0, 1, 3, 4):
                total = 0
                for count in range(1, 19):
                    total = total * Q + ints[skip + (count - 1) * stride]
                    assert loop(R, S, T, 5, -7, 3, skip, count, Q) == total

    @pytest.mark.parametrize("scale", (1, 2), ids=["integer", "halved"])
    def test_sums_at_every_remainder(self, query_indices, monkeypatch, scale):
        """oracle_sum against reference_terms for every class pattern of
        (r, s, t), and the same triples over 2, both ways, in every family
        and at every count from 1 to 18 terms: three turns of the sum loop
        at stride 1, six at stride 2."""
        monkeypatch.setattr(oracle, "_SUMS", {})
        for r, s, t in product(self.COEFFS, repeat=3):
            seq = SequenceDef.of(Fraction(r, scale), Fraction(s, scale),
                                 Fraction(t, scale), "1/2", -2, 3)
            terms = reference_terms(seq, -37 if t else 0, 37)
            for direction in Direction:
                if direction is Direction.BACKWARD and not t:
                    continue
                first = int(direction is Direction.BACKWARD)
                for parity in Parity:
                    for n in range(first, first + 18):
                        q = SumQuery(direction, parity, n)
                        assert oracle_sum(seq, q) == sum(
                            (terms[k] for k in query_indices(q)), Fraction(0))
        # Each stride ran on both scales, and the loops stay bounded.
        assert {key[1:] for key in oracle._SUMS} == set(product((1, 2), (False, True)))
        assert len(oracle._SUMS) <= 256

    @pytest.mark.parametrize("triple", INTEGER_TRIPLES, ids=str)
    def test_integer_triples_against_reference(self, query_indices, triple):
        seq = SequenceDef.of(*triple, "1/2", -2, 3)
        lo = -81 if triple[2] else 0
        terms = reference_terms(seq, lo, 81)
        for n in range(lo // 2, 41):
            assert oracle_term(seq, n) == terms[n]
        for direction in Direction:
            if direction is Direction.BACKWARD and not triple[2]:
                continue
            for parity in Parity:
                for n in range(int(direction is Direction.BACKWARD), 41):
                    q = SumQuery(direction, parity, n)
                    assert oracle_sum(seq, q) == sum(
                        (terms[k] for k in query_indices(q)), Fraction(0))


class TestTermTable:
    def test_span(self, tribonacci):
        table = term_table(tribonacci, -4, 7)
        assert sorted(table) == list(range(-4, 8))
        assert all(table[k] == term_matrix(tribonacci, k) for k in table)

    def test_forward_only(self):
        seq = SequenceDef.of(1, 1, 0, 0, 1, 1)
        assert term_table(seq, 0, 3) == {0: 0, 1: 1, 2: 1, 3: 2}
        with pytest.raises(NegativeIndexWithZeroT):
            term_table(seq, -1, 3)


class TestAgainstReference:
    """The scaled integer walk against an unscaled Fraction recurrence."""

    TRIPLES = [("3/7", "-5/4", "2/9"), ("1/2", "5/3", "-7/5"), ("2", "-3/2", "4/3")]

    @given(r=fractional | rationals, s=fractional | rationals, t=nonzero_fractional,
           w0=fractional, w1=fractional | rationals, w2=fractional)
    @example(*TRIPLES[0], 1, "-2/3", "5/2")
    @example(*TRIPLES[1], "1/3", 0, "-9/8")
    @example(*TRIPLES[2], "5/6", -1, "1/4")
    @settings(max_examples=60, deadline=None)
    def test_terms(self, r, s, t, w0, w1, w2):
        seq = SequenceDef.of(r, s, t, w0, w1, w2)
        expected = reference_terms(seq, -60, 60)
        assert term_table(seq, -60, 60) == expected
        for n in range(-60, 61):
            assert oracle_term(seq, n) == expected[n]

    @given(r=fractional | rationals, s=fractional | rationals,
           t=nonzero_fractional | st.just(Fraction(0)),
           w0=fractional, w1=fractional | rationals, w2=fractional)
    @example(*TRIPLES[0], 1, "-2/3", "5/2")
    @example("1/2", "-3/4", 0, "1/5", "2/3", 1)
    @settings(max_examples=60, deadline=None)
    def test_sums(self, query_indices, r, s, t, w0, w1, w2):
        seq = SequenceDef.of(r, s, t, w0, w1, w2)
        max_n = 25
        terms = reference_terms(seq, -2 * max_n if t != 0 else 0, 2 * max_n + 1)
        for direction in Direction:
            if direction is Direction.BACKWARD and t == 0:
                continue
            for parity in Parity:
                prefixes = list(prefix_sums(seq, direction, parity, max_n))
                first = 1 if direction is Direction.BACKWARD else 0
                assert [m for m, _ in prefixes] == list(range(first, max_n + 1))
                for m, running in prefixes:
                    q = SumQuery(direction, parity, m)
                    expected = sum((terms[k] for k in query_indices(q)), Fraction(0))
                    assert running == expected
                    assert oracle_sum(seq, q) == expected

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_backward_scale_differs(self, triple):
        """q is the least common denominator of (r, s, t) forward and of
        (-s/t, -r/t, 1/t) backward.  Each listed triple has a t numerator
        other than +-1, so the two differ."""
        forward_q, backward_q = {self.TRIPLES[0]: (252, 56), self.TRIPLES[1]: (30, 42),
                                 self.TRIPLES[2]: (6, 8)}[triple]
        seq = SequenceDef.of(*triple, 1, 1, 1)
        assert oracle._walk(seq, False)[0] == forward_q
        assert oracle._walk(seq, True)[0] == backward_q

    def test_binds_no_kernel_code(self):
        kernel = ("term_matrix", "scaled_window", "integer_triple", "_sqr_mod", "_shift_mod")
        assert not set(kernel) & set(vars(oracle))
        kernel_objects = [getattr(core, name) for name in kernel]
        assert not any(value is obj for value in vars(oracle).values()
                       for obj in kernel_objects)
        # The sum loop is the only compiled form: terms, term tables and
        # running sums leave it unchanged.
        seq = SequenceDef.of(1, 3, 1, 2, -1, 3)
        loops = dict(oracle._SUMS)
        oracle_term(seq, -40)
        term_table(seq, -40, 40)
        list(prefix_sums(seq, Direction.BACKWARD, Parity.ODD, 40))
        assert oracle._SUMS == loops
        # A sum loop names nothing but its own arguments: it counts with
        # them, not with range.
        for pattern, stride, horner in product(product((0, 1, -1, None), repeat=3),
                                               (1, 2), (False, True)):
            assert oracle._compile_sum(pattern, stride, horner).__code__.co_names == ()
        oracle_sum(SequenceDef.of(1, 3, 1, 2, -1, 3), SumQuery(Direction.BACKWARD, Parity.ODD, 40))
        assert all(loop.__code__.co_names == () for loop in oracle._SUMS.values())
        assert len(oracle._SUMS) <= 256


class TestWalkScale:
    """_walk's q and d are the least common denominators of the triple it
    walks and of the starting terms, and its ints are d*q^j times the terms.
    Going backward that needs the reversed triple fully reduced."""

    @given(r=fractional | rationals, s=fractional | rationals,
           t=nonzero_fractional | rationals.filter(bool),
           w0=fractional, w1=fractional | rationals, w2=fractional)
    # -s/t = -12/30 = -2/5 and -r/t = 12/10 = 6/5 reduce only through
    # gcd(sd, td) and gcd(rd, td); gcd(sn, tn) alone leaves q = 30, not 5.
    @example("1/2", "-1/6", "-5/12", 1, -2, 3)
    @example("3/4", "5/6", "-9/10", "1/2", "-1/3", "1/5")  # negative t numerator
    @example(0, "5/6", "4/9", "-7/2", 0, "1/3")  # r = 0
    @example("5/6", 0, "-4/9", "1/3", "-7/2", 1)  # s = 0
    @example("2/3", "-5/4", "1/6", "1/2", 1, "-3/4")  # t = 1/k
    @example("2/3", "-5/4", "-1/6", "1/2", 1, "-3/4")  # t = -1/k
    @settings(max_examples=100, deadline=None)
    def test_least_scale(self, r, s, t, w0, w1, w2):
        seq = SequenceDef.of(r, s, t, w0, w1, w2)
        r, s, t = seq.params
        d = math.lcm(*(w.denominator for w in (seq.w0, seq.w1, seq.w2)))
        terms = reference_terms(seq, -6, 5)
        for backward, triple, indices in (
                (False, (r, s, t), range(6)),
                (True, (-s / t, -r / t, 1 / t), range(2, -4, -1))):
            q = math.lcm(*(c.denominator for c in triple))
            walk_q, walk_d, ints = oracle._walk(seq, backward)
            assert (walk_q, walk_d) == (q, d)
            assert list(islice(ints, 6)) == [d * q**j * terms[k]
                                             for j, k in enumerate(indices)]


def test_no_fraction_arithmetic(forbid_fraction_arithmetic):
    """The oracle reads numerators and denominators, walks on ints and
    builds each result from two ints: no Fraction operator runs."""
    seq = SequenceDef.of("1/2", "-1/6", "-5/12", "2/3", -2, "5/4")
    families = [(direction, parity) for direction in Direction for parity in Parity]

    def run():
        return ([oracle_sum(seq, SumQuery(*family, n)) for family in families for n in (1, 2, 20)],
                [oracle_term(seq, n) for n in range(-41, 42)],
                term_table(seq, -41, 41),
                [list(prefix_sums(seq, *family, 20)) for family in families])

    expected = run()
    forbid_fraction_arithmetic()
    assert run() == expected
