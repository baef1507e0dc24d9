"""Verification sweeps: closed forms against the literal sum, parity
partition, specialization cross-checks, and the named-sequence identities.

The CLI ``verify`` subcommand drives these; the test suite reuses them so
the command line and pytest exercise identical checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Optional

from . import identities, oracle
from .catalog import CatalogEntry, list_all, lookup
from .core import RecurrenceParams, SequenceDef
from .sums import (
    Direction,
    FormulaCase,
    Parity,
    SumQuery,
    closed_form_value,
    denominators,
    evaluate,
    select_case,
)

ALL_QUERY_FAMILIES = tuple(
    (direction, parity)
    for direction in (Direction.FORWARD, Direction.BACKWARD)
    for parity in (Parity.ALL, Parity.EVEN, Parity.ODD)
)


@dataclass
class SuiteReport:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.passed += 1

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    @property
    def succeeded(self) -> bool:
        return self.failed == 0


def random_rational(rng: random.Random) -> Fraction:
    num = rng.randint(-9, 9)
    den = 0
    while den == 0:
        den = rng.randint(-9, 9)
    return Fraction(num, den)


def _nondegenerate(params: RecurrenceParams) -> bool:
    d = denominators(params)
    return d.d1 * d.d2 != 0


def random_sequence(rng: random.Random, nonzero_d: bool = False) -> SequenceDef:
    """A random sequence with numerators and denominators in [-9, 9]."""
    while True:
        params = RecurrenceParams(*(random_rational(rng) for _ in range(3)))
        if not nonzero_d or _nondegenerate(params):
            return SequenceDef(params, *(random_rational(rng) for _ in range(3)))


def _oracle_terms(seq: SequenceDef, max_n: int) -> Callable[[int], Fraction]:
    """W_k for |k| <= 2*max_n + 3 (k >= 0 when t = 0): every index a clause
    bounded by max_n reads, from one oracle walk each way."""
    span = 2 * max_n + 3
    return oracle.term_table(seq, -span if seq.params.t != 0 else 0, span).__getitem__


def _against_oracle(report: SuiteReport, seq: SequenceDef, direction: Direction,
                    parity: Parity, max_n: int, clause: Callable[[int], Fraction],
                    label: str, source: str) -> None:
    """Check clause(n) against the literal sum for every bound n <= max_n
    of one family, reading the running sums off one oracle walk."""
    for n, expected in oracle.prefix_sums(seq, direction, parity, max_n):
        got = clause(n)
        if got == expected:
            report.ok()
        else:
            report.fail(f"{label} {direction.value}/{parity.value} n={n}: "
                        f"{source} gave {got}, oracle {expected}")


def sweep_formula_vs_oracle(seqs: Iterable[SequenceDef], max_n: int) -> SuiteReport:
    """Every dispatched closed form must equal the literal sum exactly.

    Oracle values come from the oracle's term table and running prefix
    sums, so the sweep is linear in max_n per family.
    """
    report = SuiteReport("formula-vs-oracle")
    for seq in seqs:
        term = _oracle_terms(seq, max_n)
        for direction, parity in ALL_QUERY_FAMILIES:
            backward = direction is Direction.BACKWARD
            if backward and seq.params.t == 0:
                continue
            case = select_case(seq.params, SumQuery(direction, parity, 1 if backward else 0))
            if case is not FormulaCase.OracleFallback:
                _against_oracle(report, seq, direction, parity, max_n,
                                partial(closed_form_value, case, seq, term=term),
                                str(seq.name or seq.params), case.name)
    return report


def sweep_parity_partition(seqs: Iterable[SequenceDef], max_n: int) -> SuiteReport:
    """even(n) + odd(n) must equal all(2n+1) forward and all(2n) backward."""
    report = SuiteReport("parity-partition")
    for seq in seqs:
        for direction in (Direction.FORWARD, Direction.BACKWARD):
            backward = direction is Direction.BACKWARD
            if backward and seq.params.t == 0:
                continue
            for n in range(1 if backward else 0, max_n + 1):
                parts = sum(evaluate(seq, SumQuery(direction, parity, n)).value
                            for parity in (Parity.EVEN, Parity.ODD))
                whole = SumQuery(direction, Parity.ALL, 2 * n if backward else 2 * n + 1)
                if parts == evaluate(seq, whole).value:
                    report.ok()
                else:
                    report.fail(f"{seq.name or seq.params} "
                                f"{direction.name.lower()} n={n}")
    return report


def _s_equals_one(rng: random.Random) -> RecurrenceParams:
    """(r, 1, t) with r + t != 0 and d1*d2 != 0."""
    while True:
        r = random_rational(rng)
        t = random_rational(rng)
        params = RecurrenceParams(r, Fraction(1), t)
        if r + t != 0 and _nondegenerate(params):
            return params


def _r_plus_t_zero(rng: random.Random) -> RecurrenceParams:
    """(-t, s, t) with t != 0, s != 1 and d1*d2 != 0."""
    while True:
        t = random_rational(rng)
        s = random_rational(rng)
        params = RecurrenceParams(-t, s, t)
        if t != 0 and s != 1 and _nondegenerate(params):
            return params


# (parameter sampler, (special, generic) clause pairs, first n) per specialization.
_SPECIALIZATIONS = (
    (_s_equals_one, ((FormulaCase.FwdEven_S1, FormulaCase.FwdEven_Generic),
                     (FormulaCase.FwdOdd_S1, FormulaCase.FwdOdd_Generic)), 0),
    (_r_plus_t_zero, ((FormulaCase.BwdEven_RplusT0, FormulaCase.BwdEven_Generic),
                      (FormulaCase.BwdOdd_RplusT0, FormulaCase.BwdOdd_Generic)), 1),
)


def sweep_specializations(rng: random.Random, count: int, max_n: int = 10) -> SuiteReport:
    """The simplified clauses must agree with the generic ones, term for term.

    Covers the s = 1 forward even/odd forms (needs r + t != 0) and the
    r + t = 0 backward even/odd forms (needs s != 1 and d1*d2 != 0).
    """
    report = SuiteReport("specializations")
    for _ in range(count):
        for sample, pairs, first in _SPECIALIZATIONS:
            seq = SequenceDef(sample(rng), *(random_rational(rng) for _ in range(3)))
            for n in range(first, max_n + 1):
                for special, generic in pairs:
                    if closed_form_value(special, seq, n) == closed_form_value(generic, seq, n):
                        report.ok()
                    else:
                        report.fail(f"{special.name} != {generic.name} at {seq.params} n={n}")
    return report


def sweep_identities(max_n: int,
                     keys: Optional[set[str]] = None) -> SuiteReport:
    """The named-sequence closed forms must equal the literal sums."""
    report = SuiteReport("named-sequence-identities")
    defs = {entry.key: entry.definition for entry in list_all()}
    terms = {key: _oracle_terms(seq, max_n) for key, seq in defs.items()
             if keys is None or key in keys}
    for ident in identities.SUM_IDENTITIES:
        key = ident.sequence_key
        if key in terms:
            _against_oracle(report, defs[key], ident.direction, ident.parity, max_n,
                            partial(ident.clause, terms[key]), key, "identity")
    return report


def run_all(max_n: int = 100,
            seq_filter: Optional[str] = None,
            random_count: int = 0,
            seed: int = 0) -> list[SuiteReport]:
    """The full verification battery, as driven by the CLI."""
    entries: list[CatalogEntry] = list_all()
    if seq_filter is not None:
        entries = [lookup(seq_filter)]
    seqs = [e.definition for e in entries]
    if random_count:
        rng = random.Random(seed)
        seqs = seqs + [random_sequence(rng) for _ in range(random_count)]
    return [
        sweep_formula_vs_oracle(seqs, max_n),
        sweep_parity_partition(seqs, min(max_n, 50)),
        sweep_specializations(random.Random(seed + 1), max(random_count, 10)),
        sweep_identities(min(max_n, 50),
                         keys={e.key for e in entries}),
    ]
