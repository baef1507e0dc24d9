import random
from fractions import Fraction

import tribsum.sums as sums
from tribsum import verify
from tribsum.catalog import lookup
from tribsum.core import RecurrenceParams
from tribsum.sums import FormulaCase


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
    """Each s = 1 and r + t = 0 clause is checked against the generic clause
    of its direction and parity, on triples where both are proven."""
    calls = []
    original = verify.closed_form_value

    def recorded(case, seq, n, term=None):
        calls.append((case, seq, n))
        return original(case, seq, n, term)

    monkeypatch.setattr(verify, "closed_form_value", recorded)
    report = verify.sweep_specializations(random.Random(3), 6)
    assert report.failed == 0 and report.passed == len(calls) // 2
    # One triple per condition per round, drawn as two rationals in a fixed order.
    seqs = list(dict.fromkeys(seq for _, seq, _ in calls))
    assert len(seqs) == 12
    assert [seq.params for seq in seqs[:2]] == [
        RecurrenceParams("-2/9", 1, "-8/5"), RecurrenceParams("1/8", "2/3", "-1/8")]
    special = {case for case in FormulaCase if case.value[2] in ("s=1", "r+t=0")}
    assert len(special) == 4
    generic = {FormulaCase((*case.value[:2], "generic")) for case in special}
    assert {case for case, _, _ in calls} == special | generic
    for (case, seq, n), (partner, partner_seq, partner_n) in zip(calls[::2], calls[1::2]):
        assert partner.value == (*case.value[:2], "generic")
        assert (partner_seq, partner_n) == (seq, n)
        r, s, t = seq.params.r, seq.params.s, seq.params.t
        assert (r + s + t - 1) * (r - s + t + 1) != 0
        if case.value[2] == "s=1":
            assert s == 1 and r + t != 0
        else:
            assert r + t == 0 and s != 1 and t != 0


def test_formula_sweep_checks_the_combine(monkeypatch):
    """The sweep runs the combine evaluate runs: a wrong final Fraction there
    fails it."""
    monkeypatch.setattr(sums, "Fraction", lambda num, den: Fraction(2 * num, den))
    report = verify.sweep_formula_vs_oracle([lookup("perrin").definition], 5)
    assert report.failed > 0
