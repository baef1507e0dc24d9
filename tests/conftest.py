import pytest

from tribsum import core
from tribsum.catalog import list_all, lookup


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
            core.scaled_window(seq, m, None, ((1, 0, 0),))
        return seen[0][2].bit_length()
    return bits
