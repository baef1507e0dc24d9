import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tribsum.core as core
import tribsum.sums as sums
from tribsum.core import (
    NegativeIndexWithZeroT,
    RecurrenceParams,
    SequenceDef,
)
from tribsum import oracle_sum, term_iterative
from tribsum.oracle import term_table
from tribsum.sums import (
    Direction,
    FormulaCase,
    Parity,
    SumMismatch,
    SumQuery,
    closed_form_value,
    evaluate,
    select_case,
    sum_backward_all,
    sum_backward_even,
    sum_backward_odd,
    sum_forward_all,
    sum_forward_even,
    sum_forward_odd,
    sum_oracle,
)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def seq_of(r, s, t, w0, w1, w2):
    return SequenceDef.of(r, s, t, w0, w1, w2)


def row_gate(name):
    """The gate in the clause row of the case named *name*."""
    return sums._CLAUSES[name].gate


# The case names of the generic rows: all-index ones gated by d1, even and
# odd ones by d1*d2.
ALL_GENERIC = ("FwdAll_Generic", "BwdAll_Generic")
PAIR_GENERIC = ("FwdEven_Generic", "FwdOdd_Generic", "BwdEven_Generic", "BwdOdd_Generic")


class TestQueryValidation:
    def test_backward_zero_rejected(self):
        with pytest.raises(ValueError):
            SumQuery(Direction.BACKWARD, Parity.ALL, 0)

    def test_forward_zero_allowed(self):
        assert SumQuery(Direction.FORWARD, Parity.ALL, 0).n == 0

    @pytest.mark.parametrize("bad", [True, False, 2.5, 3.0, "3", Fraction(3)])
    def test_non_int_bound_rejected(self, bad):
        with pytest.raises(TypeError):
            SumQuery(Direction.FORWARD, Parity.ALL, bad)

    def test_indices(self, query_indices):
        assert query_indices(SumQuery(Direction.FORWARD, Parity.EVEN, 2)) == [0, 2, 4]
        assert query_indices(SumQuery(Direction.BACKWARD, Parity.ODD, 3)) == [-1, -3, -5]
        assert query_indices(SumQuery(Direction.BACKWARD, Parity.EVEN, 2)) == [-2, -4]


class TestDenominators:
    """The gates of the generic rows: d1 = r+s+t-1 for all-index sums and
    d1*d2, d2 = r-s+t+1, for even and odd ones, in either direction."""

    def test_examples(self):
        for triple, d1, d1d2 in [((1, 1, 1), 2, 4), ((0, 2, 1), 2, 0), ((0, 1, 1), 1, 1)]:
            assert [row_gate(name)(*triple) for name in ALL_GENERIC] == [d1] * 2
            assert [row_gate(name)(*triple) for name in PAIR_GENERIC] == [d1d2] * 4

    @given(r=rationals, s=rationals, t=rationals)
    @settings(max_examples=100, deadline=None)
    def test_product_factorization(self, r, s, t):
        for name in ALL_GENERIC:
            assert row_gate(name)(r, s, t) == r + s + t - 1
        for name in PAIR_GENERIC:
            assert (row_gate(name)(r, s, t)
                    == 2 * s + 2 * r * t + r * r - s * s + t * t - 1)


class TestSelectCase:
    def test_generic_all(self):
        case = select_case(RecurrenceParams(1, 1, 1),
                           SumQuery(Direction.FORWARD, Parity.ALL, 5))
        assert case is FormulaCase.FwdAll_Generic

    def test_degenerate_triple_takes_priority(self):
        case = select_case(RecurrenceParams(0, 2, 1),
                           SumQuery(Direction.BACKWARD, Parity.EVEN, 5))
        assert case is FormulaCase.Bwd_021_Even

    def test_d1_zero_falls_back(self):
        case = select_case(RecurrenceParams(1, 1, -1),
                           SumQuery(Direction.FORWARD, Parity.ALL, 5))
        assert case is FormulaCase.OracleFallback

    def test_d2_zero_other_triple_falls_back(self):
        # d1 = 4 but d2 = 0 and the triple is not (0, 2, 1)
        case = select_case(RecurrenceParams(0, 3, 2),
                           SumQuery(Direction.FORWARD, Parity.EVEN, 5))
        assert case is FormulaCase.OracleFallback

    def test_specialized_cases_never_dispatched(self):
        # s = 1 parameters still go to the generic clause
        case = select_case(RecurrenceParams(2, 1, 1),
                           SumQuery(Direction.FORWARD, Parity.EVEN, 5))
        assert case is FormulaCase.FwdEven_Generic


# Random triples, and triples pinned to each plane where a gate vanishes or
# a special clause holds; (0, 2, 1) lies on d2 = 0.
PLANES = {
    "free": lambda r, s, t: (r, s, t),
    "d1=0": lambda r, s, t: (r, s, 1 - r - s),
    "d2=0": lambda r, s, t: (r, s, s - r - 1),
    "s=1": lambda r, s, t: (r, 1, t),
    "r+t=0": lambda r, s, t: (-t, s, t),
}


class TestDispatchPartition:
    @given(plane=st.sampled_from(list(PLANES)), r=rationals, s=rationals, t=rationals)
    @settings(max_examples=200, deadline=None)
    @example(plane="free", r=Fraction(0), s=Fraction(2), t=Fraction(1))
    def test_at_most_one_gate_open(self, plane, r, s, t):
        """For every family at most one gate of the clauses its row names,
        "generic" and "021", is nonzero, at o = 1 and on the integer_triple
        ints alike, and select_case returns that clause's case, else the
        fallback."""
        params = RecurrenceParams(*PLANES[plane](r, s, t))
        ints = core.integer_triple(*params)
        for direction, parity in FAMILIES:
            names = sums._FAMILIES[direction.value, parity.value]
            opened = [[name for name in names if row_gate(name)(*triple)]
                      for triple in (params, ints)]
            assert opened[0] == opened[1] and len(opened[0]) <= 1
            case = select_case(params, SumQuery(direction, parity, 1))
            assert case is (FormulaCase[opened[0][0]] if opened[0]
                            else FormulaCase.OracleFallback)


class TestForwardSums:
    def test_all_tribonacci(self, tribonacci):
        res = sum_forward_all(tribonacci, 4)
        assert res.value == 8
        assert res.case_used is FormulaCase.FwdAll_Generic
        assert sum_forward_all(tribonacci, 10).value == 326

    def test_all_single_term(self, tribonacci, perrin):
        assert sum_forward_all(tribonacci, 0).value == tribonacci.w0
        assert sum_forward_all(perrin, 0).value == perrin.w0

    def test_all_narayana(self):
        seq = seq_of(1, 0, 1, 0, 1, 1)
        assert sum_forward_all(seq, 5).value == 8

    def test_all_tribonacci_lucas(self):
        seq = seq_of(1, 1, 1, 3, 1, 3)
        assert sum_forward_all(seq, 3).value == 14

    def test_even_tribonacci(self, tribonacci):
        assert sum_forward_even(tribonacci, 4).value == 62

    def test_even_pell_padovan(self, pell_padovan):
        res = sum_forward_even(pell_padovan, 2)
        assert res.value == 5
        assert res.case_used is FormulaCase.Fwd_021_Even

    def test_even_single_term(self, tribonacci):
        assert sum_forward_even(tribonacci, 0).value == tribonacci.w0

    def test_odd_tribonacci(self, tribonacci):
        assert sum_forward_odd(tribonacci, 3).value == 34

    def test_odd_single_term(self, tribonacci):
        assert sum_forward_odd(tribonacci, 0).value == tribonacci.w1

    def test_odd_pell_padovan(self, pell_padovan):
        res = sum_forward_odd(pell_padovan, 1)
        assert res.value == 4
        assert res.case_used is FormulaCase.Fwd_021_Odd


class TestBackwardSums:
    def test_all_perrin(self, perrin):
        assert sum_backward_all(perrin, 2).value == 0

    def test_all_tribonacci(self, tribonacci):
        assert sum_backward_all(tribonacci, 1).value == 0
        assert sum_backward_all(tribonacci, 5).value == 2

    def test_even_tribonacci(self, tribonacci):
        assert sum_backward_even(tribonacci, 2).value == 1

    def test_even_padovan(self):
        seq = seq_of(0, 1, 1, 1, 1, 1)
        assert sum_backward_even(seq, 1).value == 1

    def test_even_pell_padovan(self, pell_padovan):
        # R_{-1} = -1 so R_{-2} = R_1 - 2*R_{-1} = 3
        res = sum_backward_even(pell_padovan, 1)
        assert res.value == 3
        assert res.case_used is FormulaCase.Bwd_021_Even
        assert sum_oracle(pell_padovan,
                          SumQuery(Direction.BACKWARD, Parity.EVEN, 1)) == 3

    def test_odd_tribonacci(self, tribonacci):
        assert sum_backward_odd(tribonacci, 1).value == 0
        assert sum_backward_odd(tribonacci, 3).value == 1

    def test_odd_perrin(self, perrin):
        assert sum_backward_odd(perrin, 2).value == 1

    def test_zero_t_raises(self):
        seq = seq_of(1, 1, 0, 0, 1, 1)
        with pytest.raises(NegativeIndexWithZeroT):
            sum_backward_all(seq, 3)

    @pytest.mark.parametrize("parity", list(Parity), ids=lambda p: p.value)
    def test_zero_t_one_message(self, parity):
        """Every backward path gives NegativeIndexWithZeroT's one message."""
        seq = seq_of(1, 1, 0, 0, 1, 1)  # d1 = d2 = 1: the generic clauses hold
        query = SumQuery(Direction.BACKWARD, parity, 3)
        case = FormulaCase((Direction.BACKWARD, parity, "generic"))
        term = lambda k: term_iterative(seq, k)
        for call in (lambda: closed_form_value(case, seq, 3),
                     lambda: closed_form_value(case, seq, 3, term=term),
                     lambda: sum_oracle(seq, query), lambda: evaluate(seq, query)):
            with pytest.raises(NegativeIndexWithZeroT,
                               match=r"^stepping back needs t != 0$"):
                call()


class TestSumOracle:
    def test_forward_all(self, tribonacci):
        q = SumQuery(Direction.FORWARD, Parity.ALL, 10)
        assert sum_oracle(tribonacci, q) == 326

    def test_forward_even_single(self, perrin):
        q = SumQuery(Direction.FORWARD, Parity.EVEN, 0)
        assert sum_oracle(perrin, q) == perrin.w0

    def test_backward_all(self, perrin):
        q = SumQuery(Direction.BACKWARD, Parity.ALL, 2)
        assert sum_oracle(perrin, q) == 0


class TestEvaluate:
    def test_fallback_flagged(self):
        seq = seq_of(1, 1, -1, 0, 1, 1)
        res = evaluate(seq, SumQuery(Direction.FORWARD, Parity.ALL, 5))
        assert res.case_used is FormulaCase.OracleFallback
        assert res.value == sum_oracle(
            seq, SumQuery(Direction.FORWARD, Parity.ALL, 5))

    def test_check_returns_the_same_record(self, tribonacci):
        # Whether a sum was checked is the caller's own argument, not a field.
        query = SumQuery(Direction.FORWARD, Parity.ALL, 9)
        assert evaluate(tribonacci, query, check=True) == evaluate(tribonacci, query)

    @pytest.mark.parametrize("coefficients, case", [
        ((1, 1, -1), FormulaCase.OracleFallback),
        ((1, 1, 1), FormulaCase.FwdAll_Generic),
    ])
    def test_check_sums_literally_once(self, monkeypatch, coefficients, case):
        real_sum_oracle = sums.sum_oracle
        calls = []

        def counting_sum_oracle(seq, query):
            calls.append(query)
            return real_sum_oracle(seq, query)

        monkeypatch.setattr(sums, "sum_oracle", counting_sum_oracle)
        seq = seq_of(*coefficients, 0, 1, 1)
        query = SumQuery(Direction.FORWARD, Parity.ALL, 50)
        res = evaluate(seq, query, check=True)
        assert res.case_used is case
        assert res.value == real_sum_oracle(seq, query)
        assert calls == [query]

    def test_literal_sum_reads_a_patched_oracle(self, tribonacci, monkeypatch):
        # sum_oracle keeps the oracle module after its first load and reads
        # oracle_sum off it at each call, so a patch of the module applies.
        import tribsum.oracle as oracle
        query = SumQuery(Direction.FORWARD, Parity.ALL, 9)
        assert sum_oracle(tribonacci, query) == 177
        monkeypatch.setattr(oracle, "oracle_sum", lambda seq, query: Fraction(-1))
        assert sum_oracle(tribonacci, query) == -1
        with pytest.raises(SumMismatch):
            evaluate(tribonacci, query, check=True)

    def test_check_detects_corruption(self, tribonacci, monkeypatch):
        import tribsum.sums as sums
        row = sums._CLAUSES["FwdAll_Generic"]
        monkeypatch.setitem(sums._CLAUSES, "FwdAll_Generic", row._replace(
            form=lambda r, s, t, o, n: ((0, 0, 0), (0, 0, 999))))
        with pytest.raises(SumMismatch):
            sums.evaluate(tribonacci,
                          SumQuery(Direction.FORWARD, Parity.ALL, 5),
                          check=True)

    @given(r=rationals, s=rationals, t=rationals,
           w0=rationals, w1=rationals, w2=rationals,
           n=st.integers(min_value=0, max_value=25))
    @settings(max_examples=60, deadline=None)
    def test_forward_families_match_oracle(self, r, s, t, w0, w1, w2, n):
        seq = seq_of(r, s, t, w0, w1, w2)
        for parity in Parity:
            q = SumQuery(Direction.FORWARD, parity, n)
            assert evaluate(seq, q).value == sum_oracle(seq, q)

    @given(r=rationals, s=rationals, t=rationals.filter(lambda q: q != 0),
           w0=rationals, w1=rationals, w2=rationals,
           n=st.integers(min_value=1, max_value=25))
    @settings(max_examples=60, deadline=None)
    def test_backward_families_match_oracle(self, r, s, t, w0, w1, w2, n):
        seq = seq_of(r, s, t, w0, w1, w2)
        for parity in Parity:
            q = SumQuery(Direction.BACKWARD, parity, n)
            assert evaluate(seq, q).value == sum_oracle(seq, q)

    @given(r=rationals, s=rationals, t=rationals.filter(lambda q: q != 0),
           w0=rationals, w1=rationals, w2=rationals,
           n=st.integers(min_value=1, max_value=40), on_r_plus_t=st.booleans())
    @settings(max_examples=80, deadline=None)
    @example(r=Fraction(0), s=Fraction(2), t=Fraction(1), w0=Fraction(3), w1=Fraction(-2),
             w2=Fraction(5, 3), n=7, on_r_plus_t=False)
    @example(r=Fraction(2, 3), s=Fraction(4, 9), t=Fraction(-8, 27), w0=Fraction(1),
             w1=Fraction(-1, 2), w2=Fraction(3), n=40, on_r_plus_t=False)
    @example(r=Fraction(1), s=Fraction(3, 2), t=Fraction(-2, 3), w0=Fraction(1),
             w1=Fraction(1, 2), w2=Fraction(-1), n=9, on_r_plus_t=True)
    def test_backward_is_forward_of_reversed(self, r, s, t, w0, w1, w2, n, on_r_plus_t):
        """On the public API alone: V_j = W_{2-j} is the sequence
        (-s/t, -r/t, 1/t) from (W_2, W_1, W_0) and W_{-k} = V_{k+2}, so each
        backward sum is a forward sum of V at n+2, n+1 or n, less
        V_0+V_1+V_2, V_0+V_2 or V_1; on r + t = 0 the RplusT0 clauses too."""
        if on_r_plus_t:
            r = -t
        seq = seq_of(r, s, t, w0, w1, w2)
        v = seq_of(-s / t, -r / t, 1 / t, w2, w1, w0)
        for parity, shift, dropped in ((Parity.ALL, 2, w2 + w1 + w0), (Parity.EVEN, 1, w2 + w0),
                                       (Parity.ODD, 0, w1)):
            query = SumQuery(Direction.BACKWARD, parity, n)
            forward = evaluate(v, SumQuery(Direction.FORWARD, parity, n + shift)).value
            assert evaluate(seq, query).value == forward - dropped == oracle_sum(seq, query)
            if on_r_plus_t and s != 1 and parity is not Parity.ALL:
                case = FormulaCase((Direction.BACKWARD, parity, "r+t=0"))
                assert closed_form_value(case, seq, n) == forward - dropped


class TestParityPartition:
    def test_catalog(self, catalog_defs):
        for seq in catalog_defs:
            for n in range(0, 30):
                left = (sum_forward_even(seq, n).value
                        + sum_forward_odd(seq, n).value)
                assert left == sum_forward_all(seq, 2 * n + 1).value
            for n in range(1, 30):
                left = (sum_backward_even(seq, n).value
                        + sum_backward_odd(seq, n).value)
                assert left == sum_backward_all(seq, 2 * n).value

    @given(s=rationals, t=rationals, zero_d2=st.booleans(),
           w0=rationals, w1=rationals, w2=rationals,
           n=st.integers(min_value=0, max_value=40))
    @settings(max_examples=40, deadline=None)
    @example(s=Fraction(2), t=Fraction(1), zero_d2=True,
             w0=Fraction(0), w1=Fraction(1), w2=Fraction(1), n=40)
    def test_degenerate_triples(self, s, t, zero_d2, w0, w1, w2, n):
        # d1 = 0 when r = 1 - s - t, d2 = 0 when r = s - t - 1; the
        # d2 = 0 family contains (0, 2, 1).
        r = s - t - 1 if zero_d2 else 1 - s - t
        seq = seq_of(r, s, t, w0, w1, w2)
        # d2 = 0 zeroes the even/odd gate d1*d2; d1 = 0 zeroes all three.
        assert row_gate("FwdEven_Generic" if zero_d2 else "FwdAll_Generic")(r, s, t) == 0
        left = sum_forward_even(seq, n).value + sum_forward_odd(seq, n).value
        assert left == sum_forward_all(seq, 2 * n + 1).value
        if t != 0 and n >= 1:
            left = sum_backward_even(seq, n).value + sum_backward_odd(seq, n).value
            assert left == sum_backward_all(seq, 2 * n).value


class TestSpecializations:
    def test_s1_matches_generic(self):
        seq = seq_of(2, 1, 1, 0, 1, 2)
        for n in range(0, 20):
            assert closed_form_value(FormulaCase.FwdEven_S1, seq, n) == \
                closed_form_value(FormulaCase.FwdEven_Generic, seq, n)
            assert closed_form_value(FormulaCase.FwdOdd_S1, seq, n) == \
                closed_form_value(FormulaCase.FwdOdd_Generic, seq, n)

    def test_r_plus_t_zero_matches_generic(self):
        seq = seq_of(-2, 3, 2, 1, Fraction(1, 2), -1)
        for n in range(1, 20):
            assert closed_form_value(FormulaCase.BwdEven_RplusT0, seq, n) == \
                closed_form_value(FormulaCase.BwdEven_Generic, seq, n)
            assert closed_form_value(FormulaCase.BwdOdd_RplusT0, seq, n) == \
                closed_form_value(FormulaCase.BwdOdd_Generic, seq, n)

    def test_precondition_guards(self):
        seq = seq_of(1, 2, 1, 0, 1, 1)  # s != 1 and r + t != 0
        with pytest.raises(ValueError):
            closed_form_value(FormulaCase.FwdEven_S1, seq, 3)
        with pytest.raises(ValueError):
            closed_form_value(FormulaCase.BwdEven_RplusT0, seq, 3)


class TestDegenerateLinearTerm:
    def test_even_sum_affine_in_n(self):
        # For (0, 2, 1), even-sum minus W_{2n+1} is affine with slope
        # W_2 - W_1 - W_0: second differences vanish.
        seq = seq_of(0, 2, 1, 3, -2, Fraction(5, 3))
        slope = seq.w2 - seq.w1 - seq.w0
        values = []
        for n in range(4, 8):
            extra = sum_forward_even(seq, n).value - term_iterative(seq, 2 * n + 1)
            values.append(extra)
        first = [b - a for a, b in zip(values, values[1:])]
        second = [b - a for a, b in zip(first, first[1:])]
        assert all(df == slope for df in first)
        assert all(ddf == 0 for ddf in second)


FAMILIES = [(direction, parity) for direction in Direction for parity in Parity]


def steps_back(case):
    """Every backward case but the (0, 2, 1) ones is a forward sum of
    V_j = W_{2-j}, which follows (-s/t, -r/t, 1/t) from (W_2, W_1, W_0)."""
    direction, _, condition = case.value
    return direction is Direction.BACKWARD and condition != "021"


def clause_case(case):
    """The case whose clause a sum of *case* calls: its own, or for one that
    steps back V's forward case, where r + t = 0 is s = 1."""
    if not steps_back(case):
        return case
    _, parity, condition = case.value
    return FormulaCase((Direction.FORWARD, parity, "s=1" if condition == "r+t=0" else condition))


def window_start(case, n):
    """The W index m where the window a sum of *case* at bound n reads from
    its one kernel call starts.  With W_{-k} = V_{k+2} the backward sums
    that step back are FwdAll_V(n+2) - V_0 - V_1 - V_2, FwdEven_V(n+1) -
    V_0 - V_2 and FwdOdd_V(n) - V_1, whose window V(k) is W(-k) reversed."""
    direction, parity, condition = case.value
    if direction is Direction.FORWARD:
        return n + 1 if parity is Parity.ALL else 2 * n
    if condition == "021":
        return -2 * n - 1
    return -{Parity.ALL: n + 3, Parity.EVEN: 2 * n + 2, Parity.ODD: 2 * n}[parity]


def window_indices(case, n):
    """The W indices of that window, in the order a *term* is called."""
    m = window_start(case, n)
    return [m, m + 1, m + 2]


def kernel_call(case, seq, n):
    """(triple, m) of the kernel call a sum of *case* at bound n makes: on
    L*(r, s, t, 1), at its window's start."""
    return core.integer_triple(*seq.params), window_start(case, n)


def clause_triple(case, seq):
    """The integer triple a sum of *case* calls its clause's form on:
    L*(r, s, t, 1), or for a case that steps back V's."""
    r, s, t = seq.params
    return core.integer_triple(*((-s / t, -r / t, 1 / t) if steps_back(case) else (r, s, t)))


# A sequence meeting each condition's guard, with d1 * d2 != 0 outside "021".
CONDITION_SEQ = {
    "generic": seq_of(Fraction(1, 2), 3, -2, 1, Fraction(2, 3), -1),
    "s=1": seq_of(2, 1, 1, 0, 1, 2),
    "r+t=0": seq_of(-2, 3, 2, 1, Fraction(1, 2), -1),
    "021": seq_of(0, 2, 1, 3, -2, Fraction(5, 3)),
}

CLOSED_CASES = [c for c in FormulaCase if c is not FormulaCase.OracleFallback]

# Pairwise coprime denominators 7, 4, 9: the forward kernel scale q is 252.
Q252_SEQ = seq_of(Fraction(3, 7), Fraction(-5, 4), Fraction(2, 9),
                  Fraction(1, 2), -3, Fraction(4, 5))

# A sequence meeting each condition on a triple with a common denominator
# L > 1, so that the integer path scales it; only (0, 2, 1) meets "021".
SCALED_SEQ = {
    "generic": Q252_SEQ,
    "s=1": seq_of(Fraction(1, 2), 1, Fraction(2, 3), 1, Fraction(-1, 3), 2),
    "r+t=0": seq_of(Fraction(-2, 3), Fraction(3, 2), Fraction(2, 3),
                    1, Fraction(1, 2), -1),
    "021": CONDITION_SEQ["021"],
}


class TestWindowDispatch:
    @pytest.mark.parametrize("case", CLOSED_CASES, ids=lambda c: c.name)
    def test_clause_reads_only_its_window(self, case):
        """*term* is called for the clause's window, each index once, and
        the sum on those terms equals the one on the kernel's window."""
        direction, _, condition = case.value
        # n = 0 puts the forward even/odd window at m = 0, where D = d.
        first = 0 if direction is Direction.FORWARD else 1
        seqs = [CONDITION_SEQ[condition]]
        if condition == "generic":
            seqs.append(Q252_SEQ)
        for seq, n in itertools.product(seqs, (first, 1, 2, 5, 40, 333)):
            read = []

            def term(k):
                read.append(k)
                return term_iterative(seq, k)

            value = closed_form_value(case, seq, n, term)
            assert read == window_indices(case, n)
            assert value == closed_form_value(case, seq, n)

    @pytest.mark.parametrize("condition", ["generic", "021"])
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f[0].value}-{f[1].value}")
    def test_evaluate_computes_one_window(self, monkeypatch, family, condition):
        """One integer set-up, a read of (r, s, t) and one of W_0..W_2, and
        one kernel call on its ints, at a negative m for a backward case."""
        seq = CONDITION_SEQ[condition]
        reads, calls = count_set_up(monkeypatch)
        result = evaluate(seq, SumQuery(*family, 1000))
        expected = "generic" if family[1] is Parity.ALL else condition
        assert result.case_used.value == (*family, expected)
        assert reads == set_up_reads(seq)
        assert calls == [kernel_call(result.case_used, seq, 1000)]


class TestReadoutCrossover:
    """Above core._READOUT_BITS a sum reads one number from the kernel,
    its clause's rho . window; just above and just below the crossover,
    against the literal sum."""

    @pytest.mark.parametrize("side", ["above", "below"])
    @pytest.mark.parametrize("n", [150, 151])
    @pytest.mark.parametrize("seq", [CONDITION_SEQ["generic"], Q252_SEQ, CONDITION_SEQ["021"],
                                     seq_of(1, 1, 1, 0, 0, 1)],
                             ids=["generic", "q252", "021", "tribonacci"])
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f[0].value}-{f[1].value}")
    def test_family_at_crossover(self, monkeypatch, readouts, last_square_bits, family, seq,
                                 n, side):
        query = SumQuery(*family, n)
        bits = last_square_bits(seq, window_start(select_case(seq.params, query), n))
        monkeypatch.setattr(core, "_READOUT_BITS", bits - (side == "above"))
        assert evaluate(seq, query).value == sum_oracle(seq, query)
        assert len(readouts) == (side == "above")

    @pytest.mark.parametrize("case", CLOSED_CASES, ids=lambda c: c.name)
    def test_every_clause_read_out(self, monkeypatch, readouts, case):
        """The special clauses too, through closed_form_value."""
        monkeypatch.setattr(core, "_READOUT_BITS", 0)
        direction, parity, condition = case.value
        for seq in (CONDITION_SEQ[condition], SCALED_SEQ[condition]):
            for n in (40, 41):
                value = closed_form_value(case, seq, n)
                assert value == sum_oracle(seq, SumQuery(direction, parity, n))
        assert len(readouts) == 4

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f[0].value}-{f[1].value}")
    def test_021_far_past_crossover(self, readouts, family):
        """(0, 2, 1), whose even/odd kappa grows with n, at n = 10^4; its
        all-index sums take the generic clause."""
        seq, query = CONDITION_SEQ["021"], SumQuery(*family, 10_001)
        result = evaluate(seq, query)
        expected = "generic" if family[1] is Parity.ALL else "021"
        assert result.case_used.value[2] == expected and len(readouts) == 1
        assert result.value == sum_oracle(seq, query)


class TestOneClauseCall:
    """A sum calls its clause once, whichever window source it reads and on
    either side of the readout crossover."""

    @pytest.mark.parametrize("side", ["above", "below"])
    @pytest.mark.parametrize("case", CLOSED_CASES, ids=lambda c: c.name)
    def test_clause_called_once(self, monkeypatch, readouts, last_square_bits, case, side):
        direction, parity, condition = case.value
        seq, n = CONDITION_SEQ[condition], 151
        query = SumQuery(direction, parity, n)
        bits = last_square_bits(seq, window_start(case, n))
        monkeypatch.setattr(core, "_READOUT_BITS", bits - (side == "above"))
        row, calls = sums._CLAUSES[clause_case(case).name], []
        clause = row.form
        triple = clause_triple(case, seq)

        def counting(*args):
            calls.append(args)
            return clause(*args)

        monkeypatch.setitem(sums._CLAUSES, row.case.name, row._replace(form=counting))
        expected = sum_oracle(seq, query)
        for term in (None, table_term(seq, n)):
            calls.clear()
            assert closed_form_value(case, seq, n, term) == expected
            assert len(calls) == 1 and calls[0][:4] == triple
        dispatched = select_case(seq.params, query) is case
        if dispatched:
            calls.clear()
            assert evaluate(seq, query).value == expected
            assert len(calls) == 1 and calls[0][:4] == triple
        assert dispatched == (condition in ("generic", "021"))
        assert len(readouts) == (side == "above") * (1 + dispatched)


# Triples just outside each condition (and plainly outside it); for
# "generic", d1 = 0, then only d2 = 0, which the all-index gate d1 ignores.
OUTSIDE_SEQ = {
    "generic": [seq_of(1, 1, -1, 0, 1, 2), seq_of(1, 3, 1, 1, Fraction(1, 2), -1)],
    "021": [CONDITION_SEQ["generic"], seq_of(0, 2, 2, 3, -2, Fraction(5, 3))],
    "s=1": [CONDITION_SEQ["generic"], seq_of(1, 1, -1, 0, 1, 2)],
    "r+t=0": [CONDITION_SEQ["generic"], seq_of(1, 1, -1, 1, Fraction(1, 2), -1)],
    "oracle": [CONDITION_SEQ["generic"], seq_of(1, 1, 1, 0, 0, 1)],
}

H = Fraction(1, 2)

S1 = ("FwdEven_S1", "FwdOdd_S1")
RPLUST0 = ("BwdEven_RplusT0", "BwdOdd_RplusT0")
EVEN_021 = ("Fwd_021_Even", "Bwd_021_Even")
ODD_021 = ("Fwd_021_Odd", "Bwd_021_Odd")
FALLBACK = ("OracleFallback",)
# The degree in (r, s, t, o) of the gate of each group of rows.
GATE_DEGREE = {ALL_GENERIC: 1, PAIR_GENERIC: 2, S1: 1, RPLUST0: 1, EVEN_021: 0, ODD_021: 0,
               FALLBACK: 0}

# The plane or point, (r, s, t), and the divisor the gate of each group of
# rows documents there at o = 1: nonzero where the clauses are proven, else 0.
GATE_ROWS = [
    ("generic", (H, 3, -2), {ALL_GENERIC: H, PAIR_GENERIC: -Fraction(7, 4)}),  # d2 = -7/2
    ("generic", (1, 1, -1), {ALL_GENERIC: 0, PAIR_GENERIC: 0}),  # d1 = 0
    ("generic", (1, 3, 1), {ALL_GENERIC: 4, PAIR_GENERIC: 0}),  # d2 = 0 only
    ("s=1", (H, 1, Fraction(1, 3)), {S1: Fraction(5, 6)}),
    ("s=1", (H, 1, -H), {S1: 0}),  # on s = 1 with r + t = 0
    ("s=1", (H, 2, Fraction(1, 3)), {S1: 0}),  # off s = 1
    ("r+t=0", (-H, Fraction(3, 4), H), {RPLUST0: -Fraction(1, 4)}),
    ("r+t=0", (-H, 1, H), {RPLUST0: 0}),  # on r + t = 0 with s = 1
    ("r+t=0", (H, Fraction(3, 4), H), {RPLUST0: 0}),  # off r + t = 0
    # All-index sums at (0, 2, 1) take the generic clause, d1 = 2.
    ("021", (0, 2, 1), {EVEN_021: 1, ODD_021: 2, ALL_GENERIC: 2}),
    ("021", (0, 2, 2), {EVEN_021: 0, ODD_021: 0}),
    ("021", (0, 4, 2), {EVEN_021: 0, ODD_021: 0}),  # (0, 2o, o) at o = 2, not at o = 1
    ("oracle", (H, 3, -2), {FALLBACK: 0}),
    ("oracle", (0, 2, 1), {FALLBACK: 0}),
]


class TestSinglePredicate:
    """Each clause's row holds the gate that decides it on both window
    sources, and n is checked by SumQuery's rules on either."""

    @pytest.mark.parametrize("case", list(FormulaCase), ids=lambda c: c.name)
    def test_special_clause_outside_condition_raises(self, case):
        _, parity, condition = case.value
        seqs = OUTSIDE_SEQ[condition]
        if condition == "generic" and parity is Parity.ALL:
            seqs = seqs[:1]
        for seq in seqs:
            with pytest.raises(ValueError, match="not a proven closed form"):
                closed_form_value(case, seq, 3)
            with pytest.raises(ValueError, match="not a proven closed form"):
                closed_form_value(case, seq, 3, term=table_term(seq, 3))

    @pytest.mark.parametrize("condition, triple, divisors", GATE_ROWS,
                             ids=[f"{c}-{','.join(map(str, t))}" for c, t, _ in GATE_ROWS])
    def test_gate_table(self, condition, triple, divisors):
        """Each row's gate at o = 1, and at L*(r, s, t, 1) from
        integer_triple, where a divisor of degree k scales by L**k and a 0
        stays 0."""
        ints = core.integer_triple(*RecurrenceParams(*triple))
        for names, divisor in divisors.items():
            for name in names:
                assert row_gate(name)(*map(Fraction, triple)) == divisor
                scaled = row_gate(name)(*ints)
                assert type(scaled) is int
                assert scaled == divisor * ints[3] ** GATE_DEGREE[names]

    @pytest.mark.parametrize("case", CLOSED_CASES, ids=lambda c: c.name)
    def test_integer_path_returns_fraction(self, case):
        direction, _, condition = case.value
        seqs = [CONDITION_SEQ[condition]]
        if condition == "generic":
            seqs.append(Q252_SEQ)
        first = 0 if direction is Direction.FORWARD else 1
        for seq, n in itertools.product(seqs, (first, 1, 2, 7)):
            assert type(closed_form_value(case, seq, n)) is Fraction

    @pytest.mark.parametrize("case", [FormulaCase.FwdAll_Generic,
                                      FormulaCase.Fwd_021_Even,
                                      FormulaCase.BwdOdd_Generic,
                                      FormulaCase.Bwd_021_Odd],
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("bad", [True, 2.0, "3", Fraction(3)],
                             ids=repr)
    def test_non_int_bound_rejected(self, case, bad):
        seq = CONDITION_SEQ[case.value[2]]
        with pytest.raises(TypeError, match="the bound n"):
            closed_form_value(case, seq, bad)
        with pytest.raises(TypeError, match="the bound n"):
            closed_form_value(case, seq, bad, term=table_term(seq, 3))

    @pytest.mark.parametrize("case, n", [(FormulaCase.FwdEven_Generic, -1),
                                         (FormulaCase.Fwd_021_Odd, -1),
                                         (FormulaCase.BwdAll_Generic, 0),
                                         (FormulaCase.Bwd_021_Even, 0)],
                             ids=lambda v: getattr(v, "name", str(v)))
    def test_out_of_range_bound_rejected(self, case, n):
        seq = CONDITION_SEQ[case.value[2]]
        with pytest.raises(ValueError, match="n >= "):
            closed_form_value(case, seq, n)
        with pytest.raises(ValueError, match="n >= "):
            closed_form_value(case, seq, n, term=table_term(seq, 3))


def count_set_up(monkeypatch):
    """(reads, calls): lists that get the rationals of each integer_triple
    call and the (triple, m) of each scaled_window call that sums makes."""
    reads, calls = [], []
    integer_triple, scaled_window = sums.integer_triple, sums.scaled_window

    def reading(*values):
        reads.append(values)
        return integer_triple(*values)

    def calling(triple, starts, m, rho):
        calls.append((triple, m))
        return scaled_window(triple, starts, m, rho)

    monkeypatch.setattr(sums, "integer_triple", reading)
    monkeypatch.setattr(sums, "scaled_window", calling)
    return reads, calls


def set_up_reads(seq):
    """One integer set-up: (r, s, t), then W_0..W_2."""
    return [tuple(seq.params), (seq.w0, seq.w1, seq.w2)]


def table_term(seq, n):
    """The oracle's terms at every index a clause bounded by n can read."""
    span = 2 * n + 3
    return term_table(seq, -span if seq.params.t != 0 else 0, span).__getitem__


class TestIntegerCombine:
    """On either window source, the kernel's or a *term*'s, a clause runs on
    L*(r, s, t, 1) and D*W, and the sum is one Fraction over its gate times D."""

    @pytest.mark.parametrize("source", ["window", "term"])
    @pytest.mark.parametrize("case", CLOSED_CASES, ids=lambda c: c.name)
    def test_clause_sees_only_ints(self, monkeypatch, case, source):
        """Every argument a clause receives, and every coefficient of the
        rho and kappa it returns, is an int, also where it runs on V."""
        direction, parity, condition = case.value
        seq = SCALED_SEQ[condition]
        row = sums._CLAUSES[clause_case(case).name]
        clause, seen = row.form, []

        def checked(*args):  # (r, s, t, o, n) -> (rho, kappa)
            rho, kappa = clause(*args)
            seen.extend((*args, *rho, *kappa))
            assert len(rho) == len(kappa) == 3
            return rho, kappa

        monkeypatch.setitem(sums._CLAUSES, row.case.name, row._replace(form=checked))
        for n in (1, 40):
            term = table_term(seq, n) if source == "term" else None
            value = closed_form_value(case, seq, n, term)
            assert value == sum_oracle(seq, SumQuery(direction, parity, n))
        assert seen and all(type(v) is int for v in seen)

    @pytest.mark.parametrize("case", CLOSED_CASES, ids=lambda c: c.name)
    def test_float_term_rejected(self, case):
        seq = CONDITION_SEQ[case.value[2]]
        with pytest.raises(TypeError, match="exact rational"):
            closed_form_value(case, seq, 3, term=lambda k: 1.0)

    @given(r=rationals, s=rationals, t=rationals,
           w0=rationals, w1=rationals, w2=rationals,
           n=st.integers(min_value=0, max_value=60))
    @settings(max_examples=40, deadline=None)
    @example(r=Fraction(3, 7), s=Fraction(-5, 4), t=Fraction(2, 9),
             w0=Fraction(1, 2), w1=Fraction(-3), w2=Fraction(4, 5), n=0)
    def test_generic_random(self, r, s, t, w0, w1, w2, n):
        """Every closed case, on the random triple pinned to its condition."""
        pinned = {"generic": (r, s, t), "s=1": (r, 1, t), "r+t=0": (-t, s, t),
                  "021": (0, 2, 1)}
        for case in CLOSED_CASES:
            direction, _, condition = case.value
            triple = pinned[condition]
            if not row_gate(case.name)(*triple) or (
                    direction is Direction.BACKWARD and (triple[2] == 0 or n == 0)):
                continue
            seq = seq_of(*triple, w0, w1, w2)
            assert closed_form_value(case, seq, n) == closed_form_value(
                case, seq, n, term=table_term(seq, n))

    @pytest.mark.parametrize("case", CLOSED_CASES, ids=lambda c: c.name)
    @given(k=st.integers(min_value=2, max_value=10**6),
           n=st.integers(min_value=0, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_clause_is_homogeneous(self, case, k, n):
        """rho . W(m) + kappa . W(0) from the identity sums._clause states
        at (k*r, k*s, k*t, k) over its gate there is the sum at o = 1."""
        direction, _, condition = case.value
        seq = SCALED_SEQ[condition]
        n += direction is Direction.BACKWARD
        term = table_term(seq, n)

        def value(o):
            scaled = (o * seq.params.r, o * seq.params.s, o * seq.params.t, o)
            rho, kappa, gate, m = sums._clause(sums._CLAUSES[case.name], n, scaled)
            assert m == window_start(case, n)
            numerator = (sum(c * term(m + j) for j, c in enumerate(rho))
                         + sum(c * term(j) for j, c in enumerate(kappa)))
            return numerator / gate

        assert value(k) == value(1) == closed_form_value(case, seq, n, term=term)

    @pytest.mark.parametrize("case", CLOSED_CASES, ids=lambda c: c.name)
    def test_one_fraction_per_sum(self, monkeypatch, tribonacci, case):
        """Counting every Fraction constructed: the integer path builds only
        the one it returns, and dispatch builds none."""
        direction, parity, condition = case.value
        seqs = [Q252_SEQ, tribonacci] if condition == "generic" else [SCALED_SEQ[condition]]
        bounds = (0, 1, 300) if direction is Direction.FORWARD else (1, 300)
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        for seq, n in itertools.product(seqs, bounds):
            query = SumQuery(direction, parity, n)
            expected = sum_oracle(seq, query)
            built.clear()
            monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
            value = closed_form_value(case, seq, n)
            monkeypatch.undo()
            assert value == expected
            assert len(built) == 1
            built.clear()
            monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
            select_case(seq.params, query)
            monkeypatch.undo()
            assert built == []

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f[0].value}-{f[1].value}")
    def test_one_kernel_sized_normalisation(self, monkeypatch, family):
        """Of all Fractions a sum builds, one has both a numerator and a
        denominator the kernel's size: the division by D."""
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        value = evaluate(Q252_SEQ, SumQuery(*family, 1000)).value
        monkeypatch.undo()
        assert value.denominator.bit_length() > 1000
        big = [args for args in built if len(args) == 2
               and min(abs(a).bit_length() for a in args) > 1000]
        assert len(big) == 1

    @pytest.mark.parametrize("case", CLOSED_CASES, ids=lambda c: c.name)
    def test_integer_triple_once_per_sum(self, monkeypatch, case):
        """evaluate sets up (r, s, t) and W_0..W_2 once, for dispatch, kernel
        and combine together, and calls the kernel once; closed_form_value,
        called directly, does the same itself."""
        direction, parity, condition = case.value
        seq = SCALED_SEQ[condition]
        expected = sum_oracle(seq, SumQuery(direction, parity, 1))
        reads, calls = count_set_up(monkeypatch)
        for n in (1, 40):
            query = SumQuery(direction, parity, n)
            if select_case(seq.params, query) is not case:
                continue  # S1 and RplusT0 clauses are never dispatched to
            reads.clear()
            calls.clear()
            result = evaluate(seq, query)
            assert result.case_used is case
            assert reads == set_up_reads(seq)
            assert calls == [kernel_call(case, seq, n)]
        reads.clear()
        calls.clear()
        assert closed_form_value(case, seq, 1) == expected
        assert reads == set_up_reads(seq)
        assert calls == [kernel_call(case, seq, 1)]

    @pytest.mark.parametrize("case", CLOSED_CASES, ids=lambda c: c.name)
    def test_six_reads_per_query(self, monkeypatch, case):
        """Each closed-form evaluate, closed_form_value (with and without
        *term*) and term_matrix reads its six rationals once: six
        Fraction.as_integer_ratio calls."""
        direction, parity, condition = case.value
        seq = SCALED_SEQ[condition]
        term = table_term(seq, 41)
        calls = []
        ratio = Fraction.as_integer_ratio

        def counting(value):
            calls.append(value)
            return ratio(value)

        def reads(run):
            calls.clear()
            monkeypatch.setattr(Fraction, "as_integer_ratio", counting)
            run()
            monkeypatch.undo()
            return len(calls)

        for n in (1, 41):
            query = SumQuery(direction, parity, n)
            if select_case(seq.params, query) is case:
                assert reads(lambda: evaluate(seq, query)) == 6
            assert reads(lambda: closed_form_value(case, seq, n)) == 6
            assert reads(lambda: closed_form_value(case, seq, n, term)) == 6
        for n in (0, 1, -1, 300, -2000):
            assert reads(lambda: core.term_matrix(seq, n)) == 6


class TestTelescoping:
    @given(r=rationals, s=rationals, t=rationals,
           w0=rationals, w1=rationals, w2=rationals,
           n=st.integers(min_value=2, max_value=400))
    @settings(max_examples=25, deadline=None)
    def test_difference_is_added_term(self, query_indices, r, s, t, w0, w1, w2, n):
        seq = seq_of(r, s, t, w0, w1, w2)
        assume(row_gate("FwdEven_Generic")(r, s, t) != 0)  # d1*d2
        for direction, parity in FAMILIES:
            if direction is Direction.BACKWARD and t == 0:
                continue
            query = SumQuery(direction, parity, n)
            added = query_indices(query)[-1]
            step = (evaluate(seq, query).value
                    - evaluate(seq, SumQuery(direction, parity, n - 1)).value)
            assert step == term_iterative(seq, added)


# The term indices of TestIntsOnly: each pair straddles the readout crossover.
READOUT_SIDES = ((300, 2000), (-300, -2000))


class TestIntsOnly:
    def test_dispatch_kernel_and_combine_run_on_ints(self, forbid_fraction_arithmetic,
                                                     last_square_bits):
        """Dispatch, kernel and combine read numerators and denominators and
        run on ints: with every Fraction operator made to raise, evaluate
        (all six families on a generic rational triple, (0, 2, 1) and a
        d1 = 0 fallback), closed_form_value and term_matrix at +-n on both
        sides of the readout crossover give the values they gave before."""
        fallback = seq_of(1, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), -1, Fraction(5, 4))
        seqs = (Q252_SEQ, CONDITION_SEQ["021"], fallback)
        queries = [SumQuery(d, p, n) for d in Direction for p in Parity for n in (1, 2, 41)]
        clauses = [(case, seq) for case in CLOSED_CASES for seq in SCALED_SEQ.values()
                   if row_gate(case.name)(*core.integer_triple(*seq.params))]
        for below, above in READOUT_SIDES:
            assert (last_square_bits(Q252_SEQ, below) <= core._READOUT_BITS
                    < last_square_bits(Q252_SEQ, above))

        def run():
            return ([evaluate(seq, query) for seq in seqs for query in queries],
                    [closed_form_value(case, seq, n) for case, seq in clauses for n in (1, 41)],
                    [core.term_matrix(Q252_SEQ, n) for pair in READOUT_SIDES for n in pair])

        expected = run()
        assert {result.case_used for result in expected[0][-len(queries):]} == {
            FormulaCase.OracleFallback}
        forbid_fraction_arithmetic()
        assert run() == expected


# Denominators up to 60 with a common factor g, numerators often 0.
@st.composite
def shared_denominators(draw, count):
    g = draw(st.integers(1, 12))
    return tuple(Fraction(draw(st.just(0) | st.integers(-60, 60)), g * draw(st.integers(1, 60 // g)))
                 for _ in range(count))


class TestSetUp:
    """The set-up of dispatch and kernel, against Fraction arithmetic."""

    @given(triple=shared_denominators(3))
    @settings(max_examples=200, deadline=None)
    @example(triple=(Fraction(1, 2), Fraction(-1, 6), Fraction(-5, 12)))
    @example(triple=(Fraction(2, 3), Fraction(4, 9), Fraction(-8, 27)))
    def test_integer_triple(self, triple):
        """(R, S, T, L) = L*(r, s, t, 1), L the least common denominator."""
        L = math.lcm(*(c.denominator for c in triple))
        ints = core.integer_triple(*triple)
        assert all(type(v) is int for v in ints)
        assert ints == tuple(L * c for c in (*triple, 1))

    @given(triple=shared_denominators(3), initial=shared_denominators(3),
           m=st.integers(-40, 40), rho=st.tuples(*[st.integers(-9, 9)] * 3))
    @settings(max_examples=200, deadline=None)
    @example(triple=(Fraction(1, 2), Fraction(-1, 6), Fraction(-5, 12)),
             initial=(Fraction(1), Fraction(-2), Fraction(3)), m=-7, rho=(1, 0, 0))
    @example(triple=(Fraction(0), Fraction(3, 4), Fraction(-9, 10)),
             initial=(Fraction(1, 6), Fraction(0), Fraction(-5, 4)), m=5, rho=(0, 2, -1))
    # T < 0 sharing factors with S and R: (R, S, T, L) = (18, 12, -8, 27),
    # reversed (3/2, 9/4, -27/8), q = 8.
    @example(triple=(Fraction(2, 3), Fraction(4, 9), Fraction(-8, 27)),
             initial=(Fraction(1), Fraction(-1, 2), Fraction(3)), m=-7, rho=(1, 0, 0))
    # T = -30 shares a factor with each of R = 2, S = 3 and L = 5; reversed
    # (1/10, 1/15, -1/6), q = 30.
    @example(triple=(Fraction(2, 5), Fraction(3, 5), Fraction(-6)),
             initial=(Fraction(1, 6), Fraction(0), Fraction(-5, 4)), m=-4, rho=(0, 1, 0))
    def test_window_denominator(self, triple, initial, m, rho):
        """D = d*e with e = q^(|m|+2) (1 at m = 0), q the least common
        denominator of (r, s, t), or for m < 0 of the reduced
        (-s/t, -r/t, 1/t); d that of W_0..W_2."""
        r, s, t = triple
        assume(m >= 0 or t != 0)
        starts = core.integer_triple(*initial)
        assert starts[3] == math.lcm(*(w.denominator for w in initial))
        raised = triple if m >= 0 else (-s / t, -r / t, 1 / t)
        q = math.lcm(*(c.denominator for c in raised))
        e = core.scaled_window(core.integer_triple(*triple), starts, m, rho)[1]
        assert e == (q ** (abs(m) + 2) if m else 1)

    @given(triple=shared_denominators(3))
    @settings(max_examples=200, deadline=None)
    @example(triple=(Fraction(2, 3), Fraction(4, 9), Fraction(-8, 27)))
    @example(triple=(Fraction(2, 5), Fraction(3, 5), Fraction(-6)))
    def test_reversed_set_up(self, triple):
        """V_j = W_{2-j} follows the reversed triple (-s/t, -r/t, 1/t): its
        integer triple, least and with a positive denominator; at t = 0
        there is none."""
        r, s, t = triple
        if t == 0:
            with pytest.raises(NegativeIndexWithZeroT):
                core.reversed_set_up(core.integer_triple(*triple))
            return
        assert core.reversed_set_up(core.integer_triple(*triple)) == core.integer_triple(
            -s / t, -r / t, 1 / t)

    @given(triple=shared_denominators(3), initial=shared_denominators(3),
           m=st.integers(-40, -1), rho=st.tuples(*[st.integers(-9, 9)] * 3))
    @settings(max_examples=200, deadline=None)
    @example(triple=(Fraction(2, 3), Fraction(4, 9), Fraction(-8, 27)),
             initial=(Fraction(1), Fraction(-1, 2), Fraction(3)), m=-7, rho=(1, 2, -3))
    @example(triple=(Fraction(2, 5), Fraction(3, 5), Fraction(-6)),
             initial=(Fraction(1, 6), Fraction(0), Fraction(-5, 4)), m=-1, rho=(0, 0, 1))
    def test_negative_window(self, triple, initial, m, rho):
        """For m < 0 the kernel runs V's triple from V's starts (W_2, W_1,
        W_0): its form over d*e is rho . (W_m, W_m+1, W_m+2), the oracle's."""
        assume(triple[2] != 0)
        starts = core.integer_triple(*initial)
        value, e = core.scaled_window(core.integer_triple(*triple), starts, m, rho)
        window = term_table(seq_of(*triple, *initial), m, m + 2)
        assert Fraction(value, starts[3] * e) == sum(c * window[m + j] for j, c in enumerate(rho))

    def test_case_table(self):
        """One clause row per FormulaCase, under its name; a backward row
        that steps back names a forward row of its parity.  Each family's
        row, under its direction's and parity's values, names its "generic"
        and "021" clauses in that order, so dispatch finds every case its
        gates open."""
        assert len(sums._CLAUSES) == len(FormulaCase)
        for case in FormulaCase:
            row = sums._CLAUSES[case.name]
            assert row.case is case
            if row.back is not None:
                assert steps_back(case) and sums._CLAUSES[row.back[0]].case is clause_case(case)
        assert set(sums._FAMILIES) == {(d.value, p.value) for d, p in FAMILIES}
        for direction, parity in FAMILIES:
            assert list(sums._FAMILIES[direction.value, parity.value]) == [
                case.name for condition in ("generic", "021") for case in FormulaCase
                if case.value == (direction, parity, condition)]

    def test_rows_agree(self):
        """Rows whose cases share a (parity, condition) label share one gate
        function, and each name in a family's clause list is a row of that
        family's direction and parity."""
        gates = {}
        for case in FormulaCase:
            gates.setdefault(case.value[1:], set()).add(sums._CLAUSES[case.name].gate)
        assert all(len(shared) == 1 for shared in gates.values()), gates
        for (direction, parity), names in sums._FAMILIES.items():
            for name in names:
                assert sums._CLAUSES[name].case.value[:2] == (Direction(direction),
                                                              Parity(parity))
