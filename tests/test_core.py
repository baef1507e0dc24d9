import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tribsum import core, term_iterative
from tribsum.core import (
    MultiplicationCounter,
    NegativeIndexWithZeroT,
    SequenceDef,
    as_rational,
    format_rational,
    scaled_window,
    term_matrix,
    window,
)
from tribsum.catalog import list_all
from tribsum.oracle import term_table

rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=9)


# A rational triple with t != +-1, so the reversed recurrence
# (-s/t, -r/t, 1/t) that negative indices walk has a denominator of its own.
RATIONAL_T = dict(r=Fraction(1, 2), s=Fraction(-1), t=Fraction(2, 3),
                  w0=Fraction(1, 2), w1=Fraction(-3), w2=Fraction(4, 5))


# Pairwise coprime denominators: q = lcm(7, 4, 9) = 252 scales the kernel.
Q252 = (Fraction(3, 7), Fraction(-5, 4), Fraction(2, 9))
Q252_INITIAL = dict(w0=Fraction(1, 2), w1=Fraction(-3), w2=Fraction(4, 5))


@st.composite
def coprime_triples(draw):
    """(r, s, t) in lowest terms with pairwise coprime denominators <= 9."""
    dens = draw(st.tuples(*[st.integers(1, 9)] * 3).filter(
        lambda ds: all(math.gcd(a, b) == 1
                       for a, b in itertools.combinations(ds, 2))))
    return tuple(
        Fraction(draw(st.integers(-9, 9).filter(
            lambda k, d=d: math.gcd(k, d) == 1)), d)
        for d in dens)


def seq_of(r, s, t, w0, w1, w2):
    return SequenceDef.of(r, s, t, w0, w1, w2)


class TestRationalHelpers:
    def test_parse_forms(self):
        assert as_rational("7") == 7
        assert as_rational("-3/4") == Fraction(-3, 4)
        assert as_rational(Fraction(1, 2)) == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["1.5", "2e3", "nan"])
    def test_decimal_rejected(self, bad):
        with pytest.raises(ValueError):
            as_rational(bad)

    def test_format(self):
        assert format_rational(Fraction(5)) == "5"
        assert format_rational(Fraction(-3, 7)) == "-3/7"

    def test_lowest_terms_invariant(self):
        q = as_rational("6/4")
        assert (q.numerator, q.denominator) == (3, 2)
        assert as_rational("-6/4") == Fraction(-3, 2)

    @pytest.mark.parametrize("bad", [True, False, 1.5, None])
    def test_non_rational_rejected(self, bad):
        with pytest.raises(TypeError):
            as_rational(bad)


@pytest.mark.parametrize("kernel", [window, term_matrix, term_iterative],
                         ids=["window", "term_matrix", "term_iterative"])
@pytest.mark.parametrize("bad", [True, False, 2.5, 3.0, "3", Fraction(3), None])
def test_kernels_reject_non_int_index(tribonacci, kernel, bad):
    with pytest.raises(TypeError, match="index"):
        kernel(tribonacci, bad)


class TestTermIterative:
    def test_initial_terms(self, tribonacci):
        assert term_iterative(tribonacci, 0) == 0
        assert term_iterative(tribonacci, 1) == 1
        assert term_iterative(tribonacci, 2) == 1

    def test_tribonacci_forward(self, tribonacci):
        assert term_iterative(tribonacci, 7) == 24

    def test_tribonacci_backward(self, tribonacci):
        assert term_iterative(tribonacci, -3) == -1
        # W_0 = W_{-1} + W_{-2} + W_{-3}
        assert term_iterative(tribonacci, -1) == 0
        assert term_iterative(tribonacci, -2) == 1

    def test_perrin_backward(self, perrin):
        assert term_iterative(perrin, -5) == 4

    def test_zero_t_negative_index_raises(self):
        seq = seq_of(1, 1, 0, 0, 1, 1)
        with pytest.raises(NegativeIndexWithZeroT):
            term_iterative(seq, -1)
        # forward evaluation stays fine
        assert term_iterative(seq, 5) == 5

    @given(r=rationals, s=rationals, t=rationals.filter(lambda q: q != 0),
           w0=rationals, w1=rationals, w2=rationals,
           n=st.integers(min_value=-50, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_closure(self, r, s, t, w0, w1, w2, n):
        seq = seq_of(r, s, t, w0, w1, w2)
        lhs = term_iterative(seq, n)
        rhs = (r * term_iterative(seq, n - 1)
               + s * term_iterative(seq, n - 2)
               + t * term_iterative(seq, n - 3))
        assert lhs == rhs

    def test_integer_closure(self, catalog_defs):
        for seq in catalog_defs:
            for n in range(40):
                assert term_iterative(seq, n).denominator == 1


class TestTermMatrix:
    def test_identity_exponent(self, tribonacci):
        assert term_matrix(tribonacci, 2) == 1

    def test_tribonacci_13(self, tribonacci):
        assert term_matrix(tribonacci, 13) == 927

    def test_third_order_pell(self):
        seq = seq_of(2, 1, 1, 0, 1, 2)
        assert term_matrix(seq, 5) == 33

    def test_agrees_with_iterative_window(self, catalog_defs):
        for seq in catalog_defs:
            for n in range(-50, 51):
                assert term_matrix(seq, n) == term_iterative(seq, n)

    def test_zero_t_negative_index_raises(self):
        seq = seq_of(1, 1, 0, 0, 1, 1)
        with pytest.raises(NegativeIndexWithZeroT):
            term_matrix(seq, -4)

    @given(r=rationals, s=rationals, t=rationals.filter(lambda q: q != 0),
           w0=rationals, w1=rationals, w2=rationals,
           n=st.integers(min_value=-60, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_agreement_random(self, r, s, t, w0, w1, w2, n):
        seq = seq_of(r, s, t, w0, w1, w2)
        assert term_matrix(seq, n) == term_iterative(seq, n)

    @pytest.mark.parametrize("n", [3, 17, 64, 999, 4096, 10_000, -7, -1000])
    def test_multiplication_bound(self, tribonacci, n):
        counter = MultiplicationCounter()
        term_matrix(tribonacci, n, counter)
        bound = 2 * math.ceil(math.log2(abs(n) + 1)) + 2
        assert counter.count <= bound


class TestWindow:
    def test_tribonacci(self, tribonacci):
        assert window(tribonacci, 0) == (0, 1, 1)
        assert window(tribonacci, 7) == (24, 44, 81)
        assert window(tribonacci, -5) == (2, 0, -1)

    def test_zero_t_negative_index_raises(self):
        seq = seq_of(1, 1, 0, 0, 1, 1)
        with pytest.raises(NegativeIndexWithZeroT):
            window(seq, -1)
        assert window(seq, 3) == (2, 3, 5)

    @given(r=rationals, s=rationals, t=rationals,
           w0=rationals, w1=rationals, w2=rationals,
           m=st.integers(min_value=-300, max_value=300))
    @settings(max_examples=40, deadline=None)
    @example(**RATIONAL_T, m=4095)
    @example(**RATIONAL_T, m=4097)
    @example(**RATIONAL_T, m=2**12)
    @example(**RATIONAL_T, m=-4095)
    @example(**RATIONAL_T, m=-4097)
    @example(**RATIONAL_T, m=-2**12)
    def test_matches_oracle(self, r, s, t, w0, w1, w2, m):
        assume(m >= 0 or t != 0)
        seq = seq_of(r, s, t, w0, w1, w2)
        table = term_table(seq, m, m + 2)
        assert window(seq, m) == (table[m], table[m + 1], table[m + 2])

    @given(triple=coprime_triples(), w0=rationals, w1=rationals,
           w2=rationals, m=st.integers(min_value=-300, max_value=300))
    @settings(max_examples=40, deadline=None)
    @example(triple=Q252, **Q252_INITIAL, m=1)
    @example(triple=Q252, **Q252_INITIAL, m=-1)
    @example(triple=Q252, **Q252_INITIAL, m=2)
    @example(triple=Q252, **Q252_INITIAL, m=-2)
    @example(triple=Q252, **Q252_INITIAL, m=4097)
    @example(triple=Q252, **Q252_INITIAL, m=-4097)
    def test_scaled_kernel_matches_oracle(self, triple, w0, w1, w2, m):
        r, s, t = triple
        assume(m >= 0 or t != 0)
        seq = seq_of(r, s, t, w0, w1, w2)
        table = term_table(seq, m, m + 2)
        assert window(seq, m) == (table[m], table[m + 1], table[m + 2])

    @pytest.mark.parametrize("m", [2, 5, 300, -2, -5, -300])
    def test_mul_mod_sees_only_ints(self, monkeypatch, m):
        """Every kernel product helper (square, shift) gets and returns ints
        only."""
        seen = []

        def checking(helper):
            def checked(*args):  # operand rows and coeffs, then counter
                product = helper(*args)
                for row in (*args[:-1], product):
                    seen.extend(row)
                return product
            return checked

        for name in ("_sqr_mod", "_shift_mod"):
            monkeypatch.setattr(core, name, checking(getattr(core, name)))
        seq = seq_of(*Q252, **Q252_INITIAL)
        assert window(seq, m) == tuple(term_iterative(seq, k)
                                       for k in range(m, m + 3))
        assert seen and all(type(v) is int for v in seen)

    @pytest.mark.parametrize("m", [1, 2, 17, 1000, 4095, 4097, 2**12,
                                   -1, -2, -999, -4095, -4097, -2**12])
    def test_one_power(self, tribonacci, m):
        counter = MultiplicationCounter()
        window(tribonacci, m, counter)
        assert counter.count <= 2 * (abs(m).bit_length() - 1) + 1

    @pytest.mark.parametrize("m", [sign * k for k in (1, 2, 3, 7, 1000, 4095,
                                                      4096, 4097, 10**5)
                                   for sign in (1, -1)])
    def test_tick_count(self, tribonacci, m):
        """One tick per square and per set bit after the leading one, plus
        the combine."""
        counter = MultiplicationCounter()
        window(tribonacci, m, counter)
        assert counter.count == (abs(m).bit_length()
                                 + bin(abs(m)).count("1") - 1)


# Signed ints from 0 to about 10^4 bits, zero included.
big_ints = st.integers(0, 10_000).flatmap(
    lambda bits: st.integers(-(1 << bits), 1 << bits))
coeff_triples = st.tuples(*[st.integers(-2**64, 2**64)] * 3)


def mul_mod(a, b, coeffs):
    """Schoolbook product of two rows a0 + a1*y + a2*y^2, reduced top-down
    modulo y^3 - R*y^2 - S*y - T; a reference sharing no code with core."""
    R, S, T = coeffs
    p = [0] * 5
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            p[i + j] += ai * bj
    for top in (4, 3):  # y^top = R*y^(top-1) + S*y^(top-2) + T*y^(top-3)
        lead = p.pop()
        p[top - 1] += R * lead
        p[top - 2] += S * lead
        p[top - 3] += T * lead
    return tuple(p)


# Coefficient bits above which core._sqr_mod switches to its five-square form;
# 0 forces that form wherever a2 != 0, 10^9 keeps the six-product form.
FIVE_SQUARE_BITS = core._FIVE_SQUARE_BITS
SQUARE_FORMS = (0, 10**9)


def boundary_examples(test):
    """Rows with one coefficient alone at FIVE_SQUARE_BITS - 1, + 0 and + 1
    bits (both the least and the greatest value of that length, signs
    mixed), the others small, against R, S, T at 0 and at +-2^64."""
    coeff_rows = ((0, 0, 0), (2**64, -2**64, 2**64), (-2**64, 2**64, -2**64))
    for position, delta, coeffs in itertools.product(range(3), (-1, 0, 1), coeff_rows):
        bits = FIVE_SQUARE_BITS + delta
        for big in (1 << (bits - 1), (1 << bits) - 1):
            row = [3, -5, 7]
            row[position] = big if (position + delta) % 2 else -big
            test = example(a=tuple(row), coeffs=coeffs)(test)
    return test


class TestProductHelpers:
    @given(a=st.tuples(big_ints, big_ints, big_ints), coeffs=coeff_triples)
    @settings(max_examples=200, deadline=None)
    @example(a=(0, 0, 0), coeffs=(1, 1, 1))
    @example(a=(0, 0, 1), coeffs=(0, 0, 0))
    @example(a=(-(1 << 10_000), 1 << 9_999, -1), coeffs=(-7, 3, 0))
    @boundary_examples
    def test_square_and_shift_match_mul_mod(self, a, coeffs):
        """The square in the form the gate picks, and in each form forced."""
        expected = mul_mod(a, a, coeffs)
        assert core._sqr_mod(a, coeffs, None) == expected
        for bits in SQUARE_FORMS:
            with mock.patch.object(core, "_FIVE_SQUARE_BITS", bits):
                assert core._sqr_mod(a, coeffs, None) == expected
        assert core._shift_mod(a, coeffs, None) == mul_mod(a, (0, 1, 0), coeffs)


def raised_scale(seq, m):
    """q of the triple the kernel raises at m: (r, s, t) forward, the
    reversed recurrence (-s/t, -r/t, 1/t) for m < 0."""
    r, s, t = seq.params.r, seq.params.s, seq.params.t
    triple = (r, s, t) if m >= 0 else (-s / t, -r / t, 1 / t)
    return math.lcm(*(c.denominator for c in triple))


class TestScaledWindow:
    """The integer core: three int numerators over one common denominator."""

    @given(triple=st.one_of(
               st.just(Q252),
               st.just(tuple(RATIONAL_T[k] for k in "rst")),
               st.tuples(rationals, rationals, rationals)),
           w0=rationals, w1=rationals, w2=rationals,
           m=st.integers(min_value=-300, max_value=300))
    @settings(max_examples=120, deadline=None)
    @example(triple=Q252, **Q252_INITIAL, m=0)
    @example(triple=Q252, **Q252_INITIAL, m=1)
    @example(triple=Q252, **Q252_INITIAL, m=-1)
    @example(triple=Q252, **Q252_INITIAL, m=300)
    @example(triple=Q252, **Q252_INITIAL, m=-300)
    @example(triple=tuple(RATIONAL_T[k] for k in "rst"), w0=Fraction(1, 2),
             w1=Fraction(-3), w2=Fraction(4, 5), m=-7)
    def test_numerators_over_one_denominator(self, triple, w0, w1, w2, m):
        r, s, t = triple
        assume(m >= 0 or t != 0)
        seq = seq_of(r, s, t, w0, w1, w2)
        nums, den = scaled_window(seq, m)
        assert all(type(v) is int for v in (*nums, den))
        table = term_table(seq, m, m + 2)
        assert tuple(Fraction(v, den) for v in nums) == (
            table[m], table[m + 1], table[m + 2])
        d = math.lcm(w0.denominator, w1.denominator, w2.denominator)
        expected = d if m == 0 else d * raised_scale(seq, m) ** (abs(m) + 2)
        assert den == expected

    @pytest.mark.parametrize("bits", SQUARE_FORMS, ids=["five-square", "six-product"])
    @given(r=rationals, s=rationals, t=rationals,
           w0=rationals, w1=rationals, w2=rationals,
           m=st.integers(min_value=-4097, max_value=4097))
    @settings(max_examples=15, deadline=None)
    @example(**RATIONAL_T, m=4097)
    @example(**RATIONAL_T, m=-4097)
    def test_each_square_form_matches_oracle(self, bits, r, s, t, w0, w1, w2, m):
        assume(m >= 0 or t != 0)
        seq = seq_of(r, s, t, w0, w1, w2)
        with mock.patch.object(core, "_FIVE_SQUARE_BITS", bits):
            nums, den = scaled_window(seq, m)
        table = term_table(seq, m, m + 2)
        assert tuple(Fraction(v, den) for v in nums) == (
            table[m], table[m + 1], table[m + 2])

    def test_zero_t_negative_index_raises(self):
        with pytest.raises(NegativeIndexWithZeroT):
            scaled_window(seq_of(1, 1, 0, 0, 1, 1), -1)

    @pytest.mark.parametrize("m", [0, 1, 2, 5, 300, 4097, -1, -2, -5, -300, -4097])
    def test_term_matrix_builds_one_fraction(self, monkeypatch, m):
        """Counting every Fraction constructed, operator results included:
        term_matrix makes only the one it returns."""
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        for seq in (seq_of(*Q252, **Q252_INITIAL), seq_of(1, 1, 1, 0, 0, 1)):
            expected = term_iterative(seq, m)
            built.clear()
            monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
            value = term_matrix(seq, m)
            monkeypatch.undo()
            assert value == expected
            assert len(built) == 1


P61 = (1 << 61) - 1


def fraction_mod(value, p=P61):
    return value.numerator * pow(value.denominator, -1, p) % p


def matrix_power_mod(matrix, k, p=P61):
    """matrix^k mod p for a 3x3 list of rows, by binary powering."""
    result = [[int(i == j) for j in range(3)] for i in range(3)]
    while k:
        if k & 1:
            result = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*matrix)]
                      for row in result]
        matrix = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*matrix)]
                  for row in matrix]
        k >>= 1
    return result


def term_mod_p(seq, m, p=P61):
    """W_m mod p from a power of the 3x3 companion matrix; shares no code
    with core.  For m < 0 the matrix steps V_j = W_{2-j}, which follows the
    reversed recurrence (-s/t, -r/t, 1/t), from (W_2, W_1, W_0)."""
    r, s, t, w0, w1, w2 = (fraction_mod(v, p) for v in (*seq.params, seq.w0, seq.w1, seq.w2))
    if m < 0:
        t_inv = pow(t, -1, p)
        r, s, t = -s * t_inv % p, -r * t_inv % p, t_inv
        w0, w2, m = w2, w0, 2 - m
    companion = [[0, 1, 0], [0, 0, 1], [t, s, r]]  # (W_k, W_k+1, W_k+2) -> next
    first_row = matrix_power_mod(companion, m, p)[0]
    return (first_row[0] * w0 + first_row[1] * w1 + first_row[2] * w2) % p


class TestAboveOracleReach:
    """term_matrix where the literal oracle cannot go, against W_m mod
    2^61 - 1; these indices run many levels of the five-square form."""

    @pytest.mark.parametrize("entry", list_all(), ids=lambda entry: entry.key)
    def test_catalog_mod_p(self, entry):
        seq = entry.definition
        indices = [10**5, 2 * 10**5 + 1] + ([-(10**5)] if seq.params.t != 0 else [])
        for m in indices:
            assert fraction_mod(term_matrix(seq, m)) == term_mod_p(seq, m), m

    def test_reference_matches_oracle(self, catalog_defs):
        for seq in catalog_defs:
            table = term_table(seq, -40, 40)
            for m in range(-40, 41):
                assert term_mod_p(seq, m) == fraction_mod(table[m]), (seq.name, m)
