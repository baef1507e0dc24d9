import random
from fractions import Fraction

import tribsum.core as core
import tribsum.oracle as oracle
import tribsum.sums as sums
from tribsum import verify
from tribsum.catalog import lookup
from tribsum.core import RecurrenceParams, SequenceDef
from tribsum.sums import Direction, FormulaCase, Parity


def test_run_all_counts():
    # The per-suite coverage of a fixed battery; any change to what a
    # sweep draws or checks shows up here.
    reports = verify.run_all(max_n=60, random_count=20, seed=1)
    assert [(r.name, r.passed, r.failed) for r in reports] == [
        ("formula-vs-oracle", 12705, 0),
        ("parity-partition", 3535, 0),
        ("specializations", 840, 0),
        ("named-sequence-identities", 4545, 0),
    ]


def test_specializations_cover_every_special_clause(monkeypatch):
    """Each s = 1 and r + t = 0 clause is checked against the literal sum at
    every bound up to 10, on triples pinned to its plane; no generic clause
    runs."""
    calls = []
    original = verify.closed_form_value

    def recorded(case, seq, n, term=None):
        calls.append((case, seq, n))
        return original(case, seq, n, term)

    monkeypatch.setattr(verify, "closed_form_value", recorded)
    report = verify.sweep_specializations(random.Random(3), 6)
    assert report.failed == 0 and report.passed == len(calls)
    # One triple per condition per round, drawn as two rationals in a fixed order.
    seqs = list(dict.fromkeys(seq for _, seq, _ in calls))
    assert len(seqs) == 12
    assert [seq.params for seq in seqs[:2]] == [
        RecurrenceParams("-2/9", 1, "-8/5"), RecurrenceParams("1/8", "2/3", "-1/8")]
    special = {case for case in FormulaCase if case.value[2] in ("s=1", "r+t=0")}
    assert len(special) == 4
    assert {case for case, _, _ in calls} == special
    for seq in seqs:
        r, s, t = seq.params.r, seq.params.s, seq.params.t
        assert (r + s + t - 1) * (r - s + t + 1) != 0
        cases = {case for case, call_seq, _ in calls if call_seq == seq}
        [condition] = {case.value[2] for case in cases}
        assert cases == {case for case in special if case.value[2] == condition}
        for case in cases:
            first = 1 if case.value[0] is Direction.BACKWARD else 0
            assert [n for c, call_seq, n in calls if (c, call_seq) == (case, seq)] == \
                list(range(first, 11))
        if condition == "s=1":
            assert s == 1 and r + t != 0
        else:
            assert r + t == 0 and s != 1 and t != 0


def test_specializations_report_a_wrong_clause(monkeypatch):
    """A special clause that disagrees with the literal sum fails the sweep,
    with the oracle's value in the message: FwdEven_S1 itself, and
    BwdEven_RplusT0, which is FwdEven_S1 on the reversed sequence."""
    row = sums._CLAUSES["FwdEven_S1"]
    right = row.form

    def wrong(r, s, t, o, n):  # adds o*D*W_0 to the numerator
        rho, (k0, k1, k2) = right(r, s, t, o, n)
        return rho, (k0 + o, k1, k2)

    monkeypatch.setitem(sums._CLAUSES, "FwdEven_S1", row._replace(form=wrong))
    report = verify.sweep_specializations(random.Random(3), 6)
    assert report.failed == 6 * 11 + 6 * 10
    forward = [f for f in report.failures if " fwd/even n=" in f and "FwdEven_S1 gave " in f]
    backward = [f for f in report.failures
                if " bwd/even n=" in f and "BwdEven_RplusT0 gave " in f]
    assert forward and backward and len(forward) + len(backward) == len(report.failures)
    assert all(", oracle " in f for f in report.failures)


def test_parity_partition_skips_backward_when_t_is_zero():
    report = verify.sweep_parity_partition([SequenceDef.of(1, 1, 0, 0, 1, 1)], 5)
    assert (report.passed, report.failed) == (6, 0)


def test_huge_mismatch_is_reported():
    """A mismatch past the int-to-str digit limit is recorded with the
    value's size, not raised."""
    report = verify.SuiteReport("huge")
    verify._against_oracle(report, lookup("tribonacci").definition, Direction.FORWARD,
                           Parity.ALL, 2, lambda n: Fraction(10**5000), "tribonacci", "huge")
    assert report.failed == 3
    assert all("huge gave <16610-bit rational>, oracle " in f for f in report.failures)


def test_formula_sweep_checks_the_combine(monkeypatch):
    """The sweep runs the combine evaluate runs: a wrong final Fraction there
    fails it."""
    monkeypatch.setattr(sums, "Fraction", lambda num, den: Fraction(2 * num, den))
    report = verify.sweep_formula_vs_oracle([lookup("perrin").definition], 5)
    assert report.failed > 0


def test_formula_sweep_runs_the_kernel(monkeypatch):
    """The sweep takes each window from the kernel users run, not from the
    oracle's terms: a Hankel readout that is off by one fails it."""
    hankel_form = core._hankel_form

    def off_by_one(a, g):
        value = hankel_form(a, g)
        return None if value is None else value + 1

    def no_table(*args):
        raise AssertionError("the formula sweep read the oracle's term table")

    monkeypatch.setattr(core, "_READOUT_BITS", 0)
    monkeypatch.setattr(core, "_hankel_form", off_by_one)
    monkeypatch.setattr(oracle, "term_table", no_table)
    report = verify.sweep_formula_vs_oracle([lookup("perrin").definition], 5)
    assert report.passed + report.failed == 33
    assert report.failed > 0
