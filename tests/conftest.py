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
    """A list that gets one entry per window the kernel reads out
    (core._read_window call) instead of forming its last square."""
    calls = []
    read_window = core._read_window

    def recording(*args):
        calls.append(args)
        return read_window(*args)

    monkeypatch.setattr(core, "_read_window", recording)
    return calls


@pytest.fixture(scope="session")
def last_square_bits():
    """bits(seq, m): the bits of a2 where the kernel's last step at m
    starts, read off the readout it returns with the crossover at 0."""
    def bits(seq, m):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_READOUT_BITS", 0)
            form, _ = core.scaled_window(seq, m, None, True)
        return form.args[0][2].bit_length()
    return bits
