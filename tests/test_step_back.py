"""Every way to step back with t = 0 raises NegativeIndexWithZeroT with one
message: the kernel, the oracle's walk, the sums on both dispatch paths, and
the CLI's JSON error records."""

import json

import pytest

from tribsum import cli, oracle, term_iterative
from tribsum.core import (Direction, NegativeIndexWithZeroT, Parity, SequenceDef, SumQuery,
                          scaled_window, term_matrix)
from tribsum.sums import (_CLOSED_FORMS, FormulaCase, _gate, _integer_triple, closed_form_value,
                          evaluate, select_case, sum_oracle)

MESSAGE = "stepping back needs t != 0"

# d1 = d2 = 1, so the generic clauses hold; d1 = 0, so it falls back.
CLOSED = SequenceDef.of(1, 1, 0, 0, 1, 1)
FALLBACK = SequenceDef.of("1/2", "1/2", 0, 0, 1, 1)


def _backward_cases(seq):
    """The backward clauses whose gate is nonzero at seq's triple."""
    triple = _integer_triple(seq.params)
    return [case for case in _CLOSED_FORMS
            if case.value[0] is Direction.BACKWARD
            and _gate(case.value[2], case.value[1], *triple)]


def _calls(seq):
    """One zero-argument call per way to step back from seq."""
    calls = [lambda: term_matrix(seq, -3), lambda: [term_matrix(seq, k) for k in (-3, -2, -1)],
             lambda: scaled_window(seq, -3, (1, 0, 0)), lambda: term_iterative(seq, -3),
             lambda: oracle.term_table(seq, -3, 0)]
    term = lambda k: term_iterative(seq, k)
    for parity in Parity:  # defaults bind each loop's values
        query = SumQuery(Direction.BACKWARD, parity, 3)
        calls += [lambda p=parity: list(oracle.prefix_sums(seq, Direction.BACKWARD, p, 3)),
                  lambda q=query: sum_oracle(seq, q), lambda q=query: evaluate(seq, q),
                  lambda q=query: evaluate(seq, q, check=True)]
    for case in _backward_cases(seq):
        calls += [lambda c=case: closed_form_value(c, seq, 3),
                  lambda c=case: closed_form_value(c, seq, 3, term=term)]
    return calls


def test_the_triples_take_both_paths():
    assert _backward_cases(CLOSED) == [FormulaCase.BwdAll_Generic, FormulaCase.BwdEven_Generic,
                                       FormulaCase.BwdOdd_Generic]
    assert _backward_cases(FALLBACK) == []
    for parity in Parity:
        query = SumQuery(Direction.BACKWARD, parity, 3)
        assert select_case(CLOSED.params, query).value[2] == "generic"
        assert select_case(FALLBACK.params, query) is FormulaCase.OracleFallback


@pytest.mark.parametrize("seq", [CLOSED, FALLBACK], ids=["closed-form", "fallback"])
def test_one_message_on_every_path(seq):
    messages = []
    for call in _calls(seq):
        with pytest.raises(NegativeIndexWithZeroT) as info:
            call()
        messages.append(str(info.value))
    assert len(messages) == (23 if seq is CLOSED else 17)
    assert set(messages) == {MESSAGE} == {str(NegativeIndexWithZeroT())}


@pytest.mark.parametrize("r, s", [("1", "1"), ("1/2", "1/2")], ids=["closed-form", "fallback"])
@pytest.mark.parametrize("argv", [("term", "--n", "-3"),
                                  ("sum", "--dir", "bwd", "--parity", "even", "--n", "3")],
                         ids=["term", "sum"])
def test_cli_error_records(capsys, r, s, argv):
    code = cli.main(["--format", "json", argv[0], "--r", r, "--s", s, "--t", "0",
                     "--w0", "0", "--w1", "1", "--w2", "1", *argv[1:]])
    captured = capsys.readouterr()
    assert (code, captured.out) == (cli.EXIT_USAGE, "")
    assert json.loads(captured.err) == {"command": argv[0], "status": "error",
                                        "error": "NegativeIndexWithZeroT", "message": MESSAGE,
                                        "exit": cli.EXIT_USAGE}
