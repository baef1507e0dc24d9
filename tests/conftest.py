from fractions import Fraction

import pytest

from tribsum import core
from tribsum.catalog import list_all, lookup
from tribsum.core import Direction, Parity


@pytest.fixture(scope="session")
def tribonacci():
    return lookup("tribonacci").definition


@pytest.fixture(scope="session")
def perrin():
    return lookup("perrin").definition


@pytest.fixture(scope="session")
def pell_padovan():
    return lookup("pell-padovan").definition


@pytest.fixture(scope="session")
def catalog_defs():
    return [entry.definition for entry in list_all()]


@pytest.fixture(scope="session")
def query_indices():
    """indices(query): the term indices a sum query adds, in summation
    order.  It is the index reference the oracle's walks are compared with,
    so it lives here rather than in the package."""
    def indices(query):
        step = 1 if query.parity is Parity.ALL else 2
        odd = int(query.parity is Parity.ODD)
        if query.direction is Direction.FORWARD:
            return [step * k + odd for k in range(query.n + 1)]
        return [odd - step * k for k in range(1, query.n + 1)]
    return indices


@pytest.fixture
def readouts(monkeypatch):
    """A list that gets one entry per form the kernel reads from its last
    square's Hankel form (core._hankel_form call) instead of forming it."""
    calls = []
    hankel_form = core._hankel_form

    def recording(*args):
        calls.append(args)
        return hankel_form(*args)

    monkeypatch.setattr(core, "_hankel_form", recording)
    return calls


@pytest.fixture(scope="session")
def last_square_bits():
    """bits(seq, m): the bits of a2 where the kernel's last step at m
    starts, read off the Hankel form it meets with the crossover at 0 (and
    then left to the square, so that no readout is recorded)."""
    def bits(seq, m):
        seen = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_READOUT_BITS", 0)
            patch.setattr(core, "_hankel_form", lambda a, g: seen.append(a))
            core.scaled_window(core.integer_triple(*seq.params),
                               core.integer_triple(seq.w0, seq.w1, seq.w2), m, (1, 0, 0))
        return seen[0][2].bit_length()
    return bits


# Every arithmetic operator of Fraction; int() is __int__ from 3.11.
FRACTION_ARITHMETIC = ("__add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __truediv__ "
                       "__rtruediv__ __floordiv__ __rfloordiv__ __mod__ __rmod__ __pow__ "
                       "__rpow__ __neg__ __pos__ __abs__ __trunc__ __int__").split()


@pytest.fixture
def forbid_fraction_arithmetic(monkeypatch):
    """Call it to make every Fraction arithmetic operator raise for the rest
    of the test: code that reads numerators and denominators and runs on
    ints then gives the values it gave before the call."""
    def forbidden(*args):
        raise AssertionError("Fraction arithmetic")

    def forbid():
        for name in FRACTION_ARITHMETIC:
            monkeypatch.setattr(Fraction, name, forbidden, raising=False)
    return forbid
