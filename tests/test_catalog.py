import pytest

from tribsum.catalog import UnknownSequence, list_all, lookup
from tribsum import term_iterative
from tribsum.oeis import fetch_bfile


class TestRegistry:
    def test_fifteen_entries(self):
        assert len(list_all()) == 15

    def test_keys_unique(self):
        keys = [entry.key for entry in list_all()]
        assert len(set(keys)) == len(keys)

    def test_order_endpoints(self):
        entries = list_all()
        assert entries[0].key == "tribonacci"
        assert entries[-1].key == "third-order-jacobsthal-lucas"

    def test_tribonacci_parameters(self):
        seq = lookup("tribonacci").definition
        assert (seq.params.r, seq.params.s, seq.params.t) == (1, 1, 1)
        assert (seq.w0, seq.w1, seq.w2) == (0, 1, 1)

    def test_jacobsthal_lucas_parameters(self):
        seq = lookup("third-order-jacobsthal-lucas").definition
        assert (seq.params.r, seq.params.s, seq.params.t) == (1, 1, 2)
        assert (seq.w0, seq.w1, seq.w2) == (2, 1, 5)

    def test_unknown_key(self):
        with pytest.raises(UnknownSequence):
            lookup("fibonacci")

    def test_primary_oeis_id(self):
        assert lookup("tribonacci").primary_oeis_id == "A000073"
        assert lookup("pell-perrin").primary_oeis_id is None

    def test_integer_valued(self):
        for entry in list_all():
            for n in range(30):
                assert term_iterative(entry.definition, n).denominator == 1


class TestKnownPrefixes:
    def test_tribonacci_prefix(self, tribonacci):
        got = [term_iterative(tribonacci, n) for n in range(10)]
        assert got == [0, 1, 1, 2, 4, 7, 13, 24, 44, 81]

    def test_perrin_prefix(self, perrin):
        got = [term_iterative(perrin, n) for n in range(10)]
        assert got == [3, 0, 2, 3, 2, 5, 5, 7, 10, 12]

    def test_padovan_prefix(self):
        seq = lookup("padovan").definition
        got = [term_iterative(seq, n) for n in range(10)]
        assert got == [1, 1, 1, 2, 2, 3, 4, 5, 7, 9]

    def test_third_order_jacobsthal_prefix(self):
        # a(5) follows from the recurrence: 9, not 11.
        seq = lookup("third-order-jacobsthal").definition
        got = [term_iterative(seq, n) for n in range(7)]
        assert got == [0, 1, 1, 2, 5, 9, 18]


class TestFixtureAgreement:
    @pytest.mark.parametrize("key", [
        "tribonacci", "tribonacci-lucas", "third-order-pell",
        "padovan", "perrin", "padovan-perrin",
    ])
    def test_first_terms_match_bfile(self, key):
        entry = lookup(key)
        assert entry.oeis_offset_shift is not None
        bfile = fetch_bfile(entry.primary_oeis_id)
        shift = entry.oeis_offset_shift
        start = max(bfile.offset - shift, 0)
        for n in range(start, start + 10):
            assert term_iterative(entry.definition, n) == \
                bfile.value_at(n + shift)
