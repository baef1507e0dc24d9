"""The contract of the package's record types, which are ``NamedTuple``s.

Pinned here: their reprs, read-only fields, equality, hashing, pickling
and argument coercion.  Being tuples, they also iterate, have a length and
compare equal to the plain tuple of their fields;
``test_tuple_equality_is_by_value_only`` pins that choice.
"""

import copy
import pickle
import sys
from fractions import Fraction

import pytest

from tribsum import (
    AlignmentReport,
    BFile,
    CatalogEntry,
    Direction,
    FormulaCase,
    MultiplicationCounter,
    Parity,
    RecurrenceParams,
    SequenceDef,
    SumQuery,
    SumResult,
    lookup,
)

PARAMS = RecurrenceParams("1/2", 1, -1)
SEQ = SequenceDef(PARAMS, "3", 0, 1)
QUERY = SumQuery(Direction.FORWARD, Parity.EVEN, 3)
RESULT = SumResult(Fraction(67, 16), FormulaCase.FwdEven_Generic)

# One instance of every record type, built twice from equal arguments.
RECORDS = {
    "RecurrenceParams": lambda: RecurrenceParams("1/2", 1, -1),
    "SequenceDef": lambda: SequenceDef(RecurrenceParams("1/2", 1, -1), "3", 0, 1, "x"),
    "SumQuery": lambda: SumQuery(Direction.BACKWARD, Parity.ODD, 4),
    "SumResult": lambda: SumResult(Fraction(67, 16), FormulaCase.FwdEven_Generic),
    "CatalogEntry": lambda: CatalogEntry("k", SEQ, ("A000001",), 2),
    "BFile": lambda: BFile("A000001", 0, (1, 1)),
    "AlignmentReport": lambda: AlignmentReport("A000001", 1, 10),
}

# A different last field that the record's own checks accept (None elsewhere).
CHANGED_LAST_FIELD = {RecurrenceParams: 2, SumQuery: 5}

# Each record's fields, one per fact: none can be derived from the others.
FIELDS = {
    SumResult: ("value", "case_used"),
    AlignmentReport: ("oeis_id", "shift", "matched_terms"),
    CatalogEntry: ("key", "definition", "oeis_ids", "oeis_offset_shift"),
    BFile: ("oeis_id", "offset", "values"),
}


def test_pinned_reprs():
    assert repr(SEQ) == (
        "SequenceDef(params=RecurrenceParams(r=Fraction(1, 2), s=Fraction(1, 1), "
        "t=Fraction(-1, 1)), w0=Fraction(3, 1), w1=Fraction(0, 1), "
        "w2=Fraction(1, 1), name=None)")
    assert repr(RESULT) == (
        "SumResult(value=Fraction(67, 16), case_used=<FormulaCase.FwdEven_Generic: "
        "(<Direction.FORWARD: 'fwd'>, <Parity.EVEN: 'even'>, 'generic')>)")
    assert repr(MultiplicationCounter()) == "MultiplicationCounter(count=0)"


def test_sequence_coerces_its_arguments():
    assert (SEQ.params.r, SEQ.params.s, SEQ.params.t) == (Fraction(1, 2), 1, -1)
    assert (SEQ.w0, SEQ.w1, SEQ.w2, SEQ.name) == (3, 0, 1, None)
    assert all(type(v) is Fraction for v in (*SEQ.params, SEQ.w0, SEQ.w1, SEQ.w2))
    assert SEQ == SequenceDef.of("1/2", "1", -1, 3, 0, "1")
    with pytest.raises(ValueError, match="not an exact rational literal"):
        SequenceDef(PARAMS, "0.5", 0, 1)
    with pytest.raises(TypeError, match="cannot interpret"):
        RecurrenceParams(0.5, 1, 1)
    with pytest.raises(TypeError, match=r"params must be a RecurrenceParams, not \(1, 1, 1\)"):
        SequenceDef((1, 1, 1), 0, 1, 1)


@pytest.mark.parametrize("args, error, message", [
    ((Direction.BACKWARD, Parity.ALL, 0), ValueError,
     "backward sums start at k = 1; need n >= 1"),
    ((Direction.FORWARD, Parity.ALL, -1), ValueError, "forward sums need n >= 0"),
    ((Direction.FORWARD, Parity.ALL, 1.0), TypeError, "the bound n must be an int, not 1.0"),
    ((Direction.FORWARD, Parity.ALL, True), TypeError, "the bound n must be an int, not True"),
    # Strings are not the enums: the literal sum would read "all" as the
    # even sum and walk "bwd" forward.
    ((Direction.FORWARD, "all", 3), TypeError, "the parity must be a Parity, not 'all'"),
    (("bwd", Parity.ALL, 0), TypeError, "the direction must be a Direction, not 'bwd'"),
    (("bwd", Parity.ALL, 2), TypeError, "the direction must be a Direction, not 'bwd'"),
    ((Parity.ALL, Direction.FORWARD, 3), TypeError,
     "the direction must be a Direction, not <Parity.ALL: 'all'>"),
])
def test_sum_query_messages(args, error, message):
    with pytest.raises(error) as info:
        SumQuery(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: QUERY._replace(parity="all"), TypeError,
                 "the parity must be a Parity, not 'all'", id="replace-parity-str"),
    pytest.param(lambda: QUERY._replace(n=-5), ValueError, "forward sums need n >= 0",
                 id="replace-negative-n"),
    pytest.param(lambda: SumQuery._make((Direction.BACKWARD, Parity.ALL, 0)), ValueError,
                 "backward sums start at k = 1; need n >= 1", id="make-backward-n0"),
    pytest.param(lambda: SEQ._replace(params=(1, 1, 1)), TypeError,
                 "params must be a RecurrenceParams, not (1, 1, 1)", id="replace-params-tuple"),
    pytest.param(lambda: SequenceDef._make((PARAMS, "0.5", 0, 1, None)), ValueError,
                 "not an exact rational literal: '0.5'", id="make-decimal-literal"),
    pytest.param(lambda: PARAMS._replace(t=0.5), TypeError,
                 "cannot interpret 0.5 as an exact rational", id="replace-float"),
    pytest.param(lambda: RecurrenceParams._make((1, 1)), TypeError,
                 "RecurrenceParams.__new__() missing 1 required positional argument: 't'",
                 id="make-too-short"),
    *([pytest.param(lambda: copy.replace(QUERY, n=-1), ValueError,
                    "forward sums need n >= 0", id="copy-replace")]
      if sys.version_info >= (3, 13) else []),
])
def test_replace_and_make_check_their_arguments(build, error, message):
    """_replace and _make build through the constructor, so its checks run."""
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_replace_and_make_coerce_their_arguments():
    for record in (PARAMS._replace(t="2/3"), RecurrenceParams._make(["1/2", 1, "2/3"])):
        assert record == (Fraction(1, 2), 1, Fraction(2, 3))
        assert type(record) is RecurrenceParams
        assert all(type(v) is Fraction for v in record)
    w0 = SEQ._replace(w0="-1/4").w0
    assert w0 == Fraction(-1, 4) and type(w0) is Fraction
    assert SequenceDef._make((PARAMS, "3", 0, "1", None)) == SEQ
    assert type(QUERY._replace(n=4)) is SumQuery


@pytest.mark.parametrize("make", RECORDS.values(), ids=list(RECORDS))
class TestRecord:
    def test_equality_and_hash(self, make):
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        changed = a._replace(**{a._fields[-1]: CHANGED_LAST_FIELD.get(type(a))})
        assert changed != a

    def test_fields_are_read_only(self, make):
        record = make()
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.not_a_field = 1

    def test_pickle_and_deepcopy(self, make):
        record = make()
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                     copy.copy(record)):
            assert type(twin) is type(record)
            assert twin == record and hash(twin) == hash(record)

    def test_is_a_tuple_of_its_fields(self, make):
        record = make()
        fields = tuple(getattr(record, name) for name in record._fields)
        assert isinstance(record, tuple)
        assert tuple(record) == fields and len(record) == len(fields)
        assert record == fields and hash(record) == hash(fields)


def test_tuple_equality_is_by_value_only():
    """Records compare as tuples: a record equals the plain tuple of its
    fields, and records of different types with equal fields are equal."""
    assert QUERY == (Direction.FORWARD, Parity.EVEN, 3)
    assert PARAMS == (Fraction(1, 2), 1, -1)
    assert AlignmentReport("A1", None, 0) == ("A1", None, 0) == BFile("A1", None, 0)
    assert lookup("tribonacci").definition.params == (1, 1, 1)
    r, s, t = PARAMS
    assert (r, s, t) == (Fraction(1, 2), 1, -1)


@pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
def test_fields(record):
    assert record._fields == FIELDS[record]


def test_counter_is_not_a_tuple():
    """Its count field would shadow tuple.count, so it stays a plain class."""
    counter = MultiplicationCounter()
    counter.count += 2
    assert counter.count == 2 and not isinstance(counter, tuple)


def test_counter_starts_at_zero():
    """No caller starts a count elsewhere, so the counter takes no argument."""
    assert MultiplicationCounter().count == 0
    with pytest.raises(TypeError):
        MultiplicationCounter(0)
