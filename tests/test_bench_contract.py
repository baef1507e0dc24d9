"""The names and call shapes the benchmark under ``tribbench/`` relies on.

``tribbench/worker.py`` calls the library through these names and, in
traced runs, wraps module attributes of ``cli``, ``oracle``, ``verify`` and
``identities`` in place; ``tribbench/workloads.py`` builds sequences and
expected answers from them.  A rename or a changed call shape here would
break the benchmark without failing any other test.
"""

import dataclasses
from fractions import Fraction

import pytest

import tribsum
from tribsum import cli, identities, oracle, verify


@pytest.fixture
def trib():
    return tribsum.lookup("tribonacci").definition


def test_term_evaluators(trib):
    assert tribsum.term_iterative is tribsum.oracle_term
    assert tribsum.term_iterative(trib, 13) == 927
    counter = tribsum.MultiplicationCounter()
    assert tribsum.term_matrix(trib, 13, counter) == 927
    assert counter.count > 0
    # The worker's traced CLI runs call the original with its own counter.
    assert cli.term_matrix(trib, 13, tribsum.MultiplicationCounter()) == 927


def test_sum_pieces(trib):
    query = tribsum.SumQuery(tribsum.Direction("fwd"), tribsum.Parity("even"), 9)
    case = tribsum.select_case(trib.params, query)
    assert case is not tribsum.FormulaCase.OracleFallback
    seen = []

    def term(k):
        seen.append(k)
        return tribsum.term_matrix(trib, k)

    value = tribsum.closed_form_value(case, trib, query.n, term=term)
    assert seen
    assert value == tribsum.sum_oracle(trib, query) == oracle.oracle_sum(trib, query)
    assert tribsum.evaluate(trib, query, True).value == value
    degenerate = tribsum.SequenceDef.of("1", "1", "-1", "0", "1", "1")
    assert tribsum.select_case(degenerate.params, query) is tribsum.FormulaCase.OracleFallback


def test_sequence_of_six_strings():
    seq = tribsum.SequenceDef.of("1/2", "-3", "2/3", "1", "0", "-5/4")
    assert (seq.params.r, seq.params.s, seq.params.t) == (Fraction(1, 2), -3, Fraction(2, 3))
    assert (seq.w0, seq.w1, seq.w2) == (1, 0, Fraction(-5, 4))


def test_identities_replace_clause():
    ident = identities.SUM_IDENTITIES[0]
    replaced = dataclasses.replace(ident, clause=lambda term, n: Fraction(n))
    assert replaced.clause(None, 7) == 7
    assert replaced.sequence_key == ident.sequence_key


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)


def test_cli_calls_patchable_names(monkeypatch, capsys):
    calls = {}
    for name in ("format_rational", "align", "lookup", "evaluate", "term_matrix"):
        _counting(monkeypatch, cli, name, calls)
    _counting(monkeypatch, oracle, "oracle_sum", calls)
    for argv in (["term", "--seq", "tribonacci", "--n", "5"],
                 ["sum", "--seq", "tribonacci", "--dir", "fwd", "--parity", "all", "--n", "5"],
                 ["oeis-check", "--seq", "tribonacci"],
                 ["bench", "--n", "10"]):
        assert cli.main(["--format", "json", *argv]) == 0
    capsys.readouterr()
    assert set(calls) == {"format_rational", "align", "lookup", "evaluate",
                          "term_matrix", "oracle_sum"}


def test_verify_calls_patchable_names(monkeypatch, capsys):
    calls = {}
    for name in ("sweep_formula_vs_oracle", "sweep_parity_partition",
                 "sweep_specializations", "sweep_identities"):
        _counting(monkeypatch, verify, name, calls)
    clause_calls = []
    monkeypatch.setattr(identities, "SUM_IDENTITIES", [
        dataclasses.replace(ident, clause=lambda term, n, c=ident.clause:
                            clause_calls.append(n) or c(term, n))
        for ident in identities.SUM_IDENTITIES])
    assert cli.main(["--format", "json", "verify", "--seq", "perrin", "--max-n", "5"]) == 0
    capsys.readouterr()
    assert set(calls) == {"sweep_formula_vs_oracle", "sweep_parity_partition",
                          "sweep_specializations", "sweep_identities"}
    assert clause_calls
