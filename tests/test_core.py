import inspect
import itertools
import math
import types
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tribsum import core, term_iterative
from tribsum.core import (
    Direction,
    MultiplicationCounter,
    NegativeIndexWithZeroT,
    Parity,
    SequenceDef,
    SumQuery,
    as_rational,
    format_rational,
    scaled_window,
    term_matrix,
)
from tribsum.catalog import list_all
from tribsum.oracle import oracle_sum, term_table
from tribsum.sums import evaluate

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


UNIT_FORMS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def window_numerators(seq, m):
    """((n0, n1, n2), D) with W_{m+j} = n_j / D: the kernel's three unit
    forms, which must share one D."""
    reads = [scaled_window(seq, m, rho) for rho in UNIT_FORMS]
    assert len({den for _, den in reads}) == 1
    return tuple(value for value, _ in reads), reads[0][1]


def window(seq, m):
    """(W_m, W_{m+1}, W_{m+2}) from the kernel's three unit forms."""
    nums, den = window_numerators(seq, m)
    return tuple(Fraction(v, den) for v in nums)


class TestRationalHelpers:
    def test_parse_forms(self):
        assert as_rational("7") == 7
        assert as_rational("-3/4") == Fraction(-3, 4)
        assert as_rational("+5") == 5
        assert as_rational(" 3/4 ") == Fraction(3, 4)
        assert as_rational(Fraction(1, 2)) == Fraction(1, 2)

    # Fraction's parser takes "1 / 2" from 3.12, "1_0" from 3.11 and
    # non-ASCII digits everywhere; as_rational takes none of them, nor a
    # zero denominator (ZeroDivisionError from Fraction).
    @pytest.mark.parametrize("bad", ["1.5", "2e3", "nan", "1 / 2", "1_0", "1/2_0",
                                     "\u0663", "1/0", "-3/00"])
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

    @given(triple=st.one_of(st.just(Q252), st.tuples(rationals, rationals, rationals)),
           w0=rationals, w1=rationals, w2=rationals,
           m=st.one_of(st.integers(-2, 2), st.integers(-300, 300)),
           forms=st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_forms_are_dot_products_of_the_window(self, triple, w0, w1, w2, m, forms):
        """scaled_window(seq, m, rho) is rho . window for each rho, over the
        window's D."""
        assume(m >= 0 or triple[2] != 0)
        seq = seq_of(*triple, w0, w1, w2)
        nums, window_den = window_numerators(seq, m)
        for rho in forms:
            value, den = scaled_window(seq, m, rho)
            assert den == window_den
            assert value == sum(c * v for c, v in zip(rho, nums))

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
            def checked(*args):  # operand row and coeffs
                product = helper(*args)
                for row in (*args, product):
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
        counter = MultiplicationCounter()  # each window term is one power
        term_matrix(tribonacci, m, counter)
        assert counter.count <= 2 * (abs(m).bit_length() - 1) + 1

    @pytest.mark.parametrize("m", [sign * k for k in (1, 2, 3, 7, 1000, 4095,
                                                      4096, 4097, 10**5)
                                   for sign in (1, -1)])
    def test_tick_count(self, tribonacci, m):
        """One tick per square and per set bit after the leading one, plus
        the combine."""
        counter = MultiplicationCounter()
        term_matrix(tribonacci, m, counter)
        assert counter.count == (abs(m).bit_length()
                                 + bin(abs(m)).count("1") - 1)

    @pytest.mark.parametrize("readout_bits", [0, core._READOUT_BITS])
    # The offsets from m of the terms each kernel reads: the window is
    # term_matrix at m, m + 1 and m + 2, each counted on its own.
    @pytest.mark.parametrize("offsets", [pytest.param((0,), id="term_matrix"),
                                         pytest.param((0, 1, 2), id="window")])
    @pytest.mark.parametrize("seq, m", [
        *((seq_of(1, 1, 1, 0, 1, 1), sign * k)
          for k in (1, 2, 3, 7, 1000, 4095, 4096, 4097, 10**5) for sign in (1, -1)),
        # A zero Hankel diagonal at even m (see test_zero_diagonal_takes_the_full_square).
        *((seq_of(0, 2, 0, 0, 1, 0), m) for m in (0, 2, 4, 1000, 4096, 10**5))])
    def test_ticks_match_kernel_steps(self, monkeypatch, seq, m, offsets, readout_bits):
        """The ticks, computed from |k|, equal the squares and shifts the
        kernel runs plus the combine.  A Hankel read stands for the last
        square and, at odd |k|, the last shift; |k| = 1 runs neither, so it
        ticks once, for the combine."""
        steps = {}

        def spying(name, helper):
            def spied(*args):
                value = helper(*args)
                if name != "_hankel_form":
                    steps[name] += 1
                else:
                    steps["unread" if value is None else "read"] += 1
                return value
            return spied

        for name in ("_sqr_mod", "_shift_mod", "_hankel_form"):
            monkeypatch.setattr(core, name, spying(name, getattr(core, name)))
        monkeypatch.setattr(core, "_READOUT_BITS", readout_bits)
        for k in (m + offset for offset in offsets):
            steps.update(_sqr_mod=0, _shift_mod=0, read=0, unread=0)
            counter = MultiplicationCounter()
            term_matrix(seq, k, counter)
            size = abs(k)
            if k == 0:
                assert counter.count == 0
            else:
                assert counter.count == (steps["_sqr_mod"] + steps["_shift_mod"]
                                         + steps["read"] * (1 + size % 2) + 1)
            if readout_bits == 0:  # every form meets the Hankel form once a2 != 0,
                # that is from |k| = 4; under (0, 2, 0), where y^3 = 2*y, a2 = 0 also
                # where |k| >> 1 is odd, and the even-k forms are left to the square.
                hankel = size >= 4 and (seq.params.s != 2 or (size >> 1) % 2 == 0)
                zero_diagonal = seq.params.s == 2 and k % 2 == 0
                assert steps["read"] == (hankel and not zero_diagonal)
                assert steps["unread"] == (hankel and zero_diagonal)


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
        assert core._sqr_mod(a, coeffs) == expected
        for bits in SQUARE_FORMS:
            with mock.patch.object(core, "_FIVE_SQUARE_BITS", bits):
                assert core._sqr_mod(a, coeffs) == expected
        assert core._shift_mod(a, coeffs) == mul_mod(a, (0, 1, 0), coeffs)


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
        nums, den = window_numerators(seq, m)
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
            nums, den = window_numerators(seq, m)
        table = term_table(seq, m, m + 2)
        assert tuple(Fraction(v, den) for v in nums) == (
            table[m], table[m + 1], table[m + 2])

    def test_zero_t_negative_index_raises(self):
        with pytest.raises(NegativeIndexWithZeroT):
            scaled_window(seq_of(1, 1, 0, 0, 1, 1), -1, (1, 0, 0))

    @given(triple=st.one_of(st.just(Q252), st.tuples(rationals, rationals, rationals)),
           w0=rationals, w1=rationals, w2=rationals,
           m=st.integers(-5000, 5000),
           rho=st.tuples(*[st.integers(-2**70, 2**70)] * 3))
    @settings(max_examples=60, deadline=None)
    # a2 ends at 2196 and 2458 bits (below _READOUT_BITS), then at about
    # 4040 and 4107 bits, and at 3229 bits on an all-zero Hankel diagonal.
    @example(triple=(1, 1, 1), w0=0, w1=0, w2=1, m=5000, rho=(3, -1, 2))
    @example(triple=Q252, **Q252_INITIAL, m=-600, rho=(0, 5, -7))
    @example(triple=Q252, **Q252_INITIAL, m=1001, rho=(2**70, -1, 3))
    @example(triple=Q252, **Q252_INITIAL, m=-1000, rho=(-4, 0, 9))
    @example(triple=(0, Fraction(2, 3), 0), w0=0, w1=1, w2=0, m=5000, rho=(1, 0, 0))
    def test_linear_in_rho(self, triple, w0, w1, w2, m, rho):
        """One D per window, and value(rho) = sum_j rho_j*value(e_j), on
        both sides of the readout crossover."""
        assume(m >= 0 or triple[2] != 0)
        seq = seq_of(*triple, w0, w1, w2)
        nums, den = window_numerators(seq, m)
        assert scaled_window(seq, m, rho) == (sum(c * v for c, v in zip(rho, nums)), den)

    def test_one_form_no_options(self):
        params = inspect.signature(scaled_window).parameters
        assert list(params) == ["seq", "m", "rho"]
        assert all(p.default is p.empty for p in params.values())
        assert list(inspect.signature(core._last_step).parameters)[-1] == "rho"
        assert not hasattr(core, "window")

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


def hankel_reference(a, g):
    """sum_ij a_i*a_j*g_{i+j}, written out."""
    return sum(a[i] * a[j] * g[i + j] for i in range(3) for j in range(3))


def readout_reference(a, b, coeffs, u, q, backward, rho):
    """rho . window for the power (a0 + a1*y + a2*y^2)^2 * y^b: the square
    by mul_mod, then n_j = q^(2-j) * sum_e c_e*u_{e+j}, reversed for m < 0."""
    R, S, T = coeffs
    c = mul_mod(a, a, coeffs)
    if b:
        c = mul_mod(c, (0, 1, 0), coeffs)
    u = list(u)
    while len(u) < 5:
        u.append(R * u[-1] + S * u[-2] + T * u[-3])
    nums = [q ** (2 - j) * sum(c[e] * u[e + j] for e in range(3)) for j in range(3)]
    if backward:
        nums.reverse()
    return sum(w * v for w, v in zip(rho, nums))


# One generator g per branch of core._hankel_form: where the first nonzero
# diagonal pivot N sits, and which of m11 = N*H11 - H01^2 and m22 vanish.
HANKEL_BRANCHES = {
    "pivot-0": (2, -1, 3, 5, -7),             # m11 = 6 - 1
    "pivot-1": (0, 1, 3, 5, -7),              # g0 = 0; m11 = 3*0 - 1
    "pivot-2": (0, 1, 0, 5, -7),              # g0 = g2 = 0; m11 = 0, m22 = -25
    "m11=0": (1, 1, 1, 5, 3),                 # m11 = 0, m22 = 3 - 1
    "m11=m22=0": (1, 1, 1, 5, 1),             # m12 = 5 - 1 only
    "pivot-2-m11=m22=0": (0, 1, 0, 0, -7),    # m12 = -7 only
}


class TestReadout:
    """scaled_window on a single form above core._READOUT_BITS: one number
    from the last square's Hankel form, three bignum squares instead of five."""

    @pytest.mark.parametrize("g", HANKEL_BRANCHES.values(), ids=HANKEL_BRANCHES.keys())
    @given(a=st.tuples(big_ints, big_ints, big_ints))
    @settings(max_examples=25, deadline=None)
    @example(a=(0, 0, 0))
    @example(a=(1 << 5000, -(1 << 4999) + 3, 7))
    def test_hankel_form_branches(self, g, a):
        assert core._hankel_form(a, g) == hankel_reference(a, g)

    def test_zero_diagonal_is_left_to_the_square(self):
        assert core._hankel_form((1 << 4000, 3, -5), (0, 1, 0, 5, 0)) is None

    @given(a=st.tuples(big_ints, big_ints, big_ints),
           g=st.tuples(*[st.integers(-2, 2)] * 5))
    @settings(max_examples=200, deadline=None)
    def test_hankel_form_random(self, a, g):
        value = core._hankel_form(a, g)
        if g[0] == g[2] == g[4] == 0:
            assert value is None
        else:
            assert value == hankel_reference(a, g)

    @given(a=st.tuples(big_ints, big_ints, big_ints), b=st.integers(0, 1),
           coeffs=st.tuples(*[st.integers(-3, 3)] * 3),
           u=st.tuples(*[st.integers(-3, 3)] * 3), q=st.integers(1, 4),
           backward=st.booleans(), rho=st.tuples(*[st.integers(-2, 2)] * 3),
           more=st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=2, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_read_window_matches_reference(self, a, b, coeffs, u, q, backward, rho, more):
        """core._last_step on each form, read from the Hankel form with the
        crossover at 0 and from the square with the crossover out of reach."""
        for form in (rho, *more):
            expected = readout_reference(a, b, coeffs, u, q, backward, form)
            for readout_bits in (0, 10**9):
                with mock.patch.object(core, "_READOUT_BITS", readout_bits):
                    assert core._last_step(a, b, coeffs, u, q, backward, form) == expected

    @pytest.mark.parametrize("b", [0, 1])
    def test_zero_diagonal_takes_the_full_square(self, monkeypatch, b):
        """W = (0, 1, 0) under (0, 2, 0) has u_0 = u_2 = u_4 = 0, so reading
        W_m at b = 0 meets an all-zero Hankel diagonal and squares instead."""
        squares = []
        sqr_mod = core._sqr_mod

        def counting(*args):
            squares.append(args)
            return sqr_mod(*args)

        monkeypatch.setattr(core, "_sqr_mod", counting)
        monkeypatch.setattr(core, "_READOUT_BITS", 0)
        a, args = (3 << 4000, -(1 << 3999), 5), ((0, 2, 0), (0, 1, 0), 1, False)
        rho = (1, 0, 0)
        assert core._last_step(a, b, *args, rho) == readout_reference(a, b, *args, rho)
        assert len(squares) == 1 - b

    @pytest.mark.parametrize("side", ["above", "below"])
    @pytest.mark.parametrize("m", [300, 301, -300, -301, 2000, -2001])
    @pytest.mark.parametrize("seq", [
        seq_of(1, 1, 1, 0, 0, 1), seq_of(*Q252, **Q252_INITIAL),
        seq_of(*(RATIONAL_T[k] for k in ("r", "s", "t", "w0", "w1", "w2")))],
        ids=["tribonacci", "q252", "rational-t"])
    def test_term_at_crossover(self, monkeypatch, readouts, last_square_bits, seq, m, side):
        """Just above and just below the crossover, on both parities of m,
        both signs and q > 1, term_matrix against the literal walk."""
        bits = last_square_bits(seq, m)
        monkeypatch.setattr(core, "_READOUT_BITS", bits - (side == "above"))
        counter = MultiplicationCounter()
        assert term_matrix(seq, m, counter) == term_table(seq, m, m)[m]
        assert len(readouts) == (side == "above")
        assert counter.count == abs(m).bit_length() + bin(abs(m)).count("1") - 1

    @pytest.mark.parametrize("m", [10**5, 10**5 + 1, -(10**5), -(10**5) - 1])
    def test_same_ticks_above_crossover(self, tribonacci, readouts, m):
        counter = MultiplicationCounter()
        term_matrix(tribonacci, m, counter)
        assert readouts
        assert counter.count == abs(m).bit_length() + bin(abs(m)).count("1") - 1

    def test_window_reads_all_three(self, tribonacci, readouts):
        """Each of the window's three unit forms is read from the Hankel form."""
        nums, den = window_numerators(tribonacci, 10**5)
        assert len(nums) == 3 and len(readouts) == 3
        assert Fraction(nums[0], den) == term_matrix(tribonacci, 10**5)


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


def literal_sums_mod_p(seq, n, p=P61):
    """The six sums of *seq* at bound n mod p, keyed by (direction,
    parity) value, from a literal walk forward to W_{2n+1} and back to
    W_{-2n}; shares no code with core or sums."""
    r, s, t, w0, w1, w2 = (fraction_mod(v, p) for v in (*seq.params, seq.w0, seq.w1, seq.w2))
    ahead = [w0, w1, w2]  # W_0, W_1, ...
    while len(ahead) < 2 * n + 2:
        ahead.append((r * ahead[-1] + s * ahead[-2] + t * ahead[-3]) % p)
    t_inv = pow(t, -1, p)
    back = [w2, w1, w0]  # W_2, W_1, W_0, W_-1, ...: W_-k is back[k + 2]
    while len(back) < 2 * n + 3:
        back.append((back[-3] - r * back[-2] - s * back[-1]) * t_inv % p)
    sums = {("fwd", "all"): ahead[:n + 1], ("fwd", "even"): ahead[:2 * n + 1:2],
            ("fwd", "odd"): ahead[1:2 * n + 2:2], ("bwd", "all"): back[3:n + 3],
            ("bwd", "even"): back[4:2 * n + 3:2], ("bwd", "odd"): back[3:2 * n + 2:2]}
    return {family: sum(terms) % p for family, terms in sums.items()}


def module_objects_reached(fn):
    """Every module-level object *fn* names, following the functions of its
    own module that it calls."""
    reached, todo = [], [fn]
    while todo:
        f = todo.pop()
        codes = [f.__code__]
        while codes:
            code = codes.pop()
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            for name in code.co_names:
                obj = f.__globals__.get(name)
                if name in f.__globals__ and not any(obj is seen for seen in reached):
                    reached.append(obj)
                    if isinstance(obj, types.FunctionType) and obj.__module__ == fn.__module__:
                        todo.append(obj)
    return reached


class TestAboveOracleReach:
    """term_matrix where the literal oracle cannot go, against W_m mod
    2^61 - 1; these indices run many levels of the five-square form.  And
    Tribonacci's six sums at the sizes the benchmark's catalog ladder runs,
    against a literal walk mod 2^61 - 1."""

    @pytest.mark.parametrize("n", [10**5, 10**5 + 1])
    def test_tribonacci_sums_mod_p(self, tribonacci, readouts, n):
        for (direction, parity), expected in literal_sums_mod_p(tribonacci, n).items():
            value = evaluate(tribonacci, SumQuery(Direction(direction), Parity(parity), n)).value
            assert fraction_mod(value) == expected, (direction, parity)
        assert len(readouts) == 6

    def test_sum_walk_matches_oracle(self, catalog_defs):
        for seq in catalog_defs:
            for n in (1, 2, 7, 30):
                for (direction, parity), expected in literal_sums_mod_p(seq, n).items():
                    query = SumQuery(Direction(direction), Parity(parity), n)
                    assert fraction_mod(oracle_sum(seq, query)) == expected, (seq.name, query)

    def test_walks_bind_no_library_code(self):
        for walk in (literal_sums_mod_p, term_mod_p):
            reached = module_objects_reached(walk)
            assert fraction_mod in reached
            assert not [obj for obj in reached if isinstance(obj, types.ModuleType)
                        or str(getattr(obj, "__module__", "")).startswith("tribsum")]

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
