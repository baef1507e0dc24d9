"""Verification sweeps: closed forms against the literal sum, parity
partition, specialization cross-checks, and the named-sequence identities.

The CLI ``verify`` subcommand drives these; the test suite reuses them so
the command line and pytest exercise identical checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from . import identities, oracle
from .catalog import CatalogEntry, list_all
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


def random_sequence(rng: random.Random,
                    nonzero_t: bool = False,
                    nonzero_d: bool = False) -> SequenceDef:
    """A random sequence with numerators and denominators in [-9, 9]."""
    while True:
        r, s, t = (random_rational(rng) for _ in range(3))
        if nonzero_t and t == 0:
            continue
        params = RecurrenceParams(r, s, t)
        if nonzero_d:
            d = denominators(params)
            if d.d1 * d.d2 == 0:
                continue
        w0, w1, w2 = (random_rational(rng) for _ in range(3))
        return SequenceDef(params, w0, w1, w2)


def _oracle_terms(seq: SequenceDef, max_n: int) -> Callable[[int], Fraction]:
    """W_k for |k| <= 2*max_n + 3 (k >= 0 when t = 0): every index a clause
    bounded by max_n reads, from one oracle walk each way."""
    span = 2 * max_n + 3
    return oracle.term_table(seq, -span if seq.params.t != 0 else 0, span).__getitem__


def sweep_formula_vs_oracle(seqs: Iterable[SequenceDef], max_n: int) -> SuiteReport:
    """Every dispatched closed form must equal the literal sum exactly.

    Oracle values come from the oracle's term table and running prefix
    sums, so the sweep is linear in max_n per family.
    """
    report = SuiteReport("formula-vs-oracle")
    for seq in seqs:
        has_backward = seq.params.t != 0
        term = _oracle_terms(seq, max_n)
        for direction, parity in ALL_QUERY_FAMILIES:
            if direction is Direction.BACKWARD and not has_backward:
                continue
            case = select_case(seq.params,
                               SumQuery(direction, parity,
                                        1 if direction is Direction.BACKWARD else 0))
            if case is FormulaCase.OracleFallback:
                continue
            for n, expected in oracle.prefix_sums(seq, direction, parity, max_n):
                got = closed_form_value(case, seq, n, term)
                if got == expected:
                    report.ok()
                else:
                    report.fail(
                        f"{seq.name or seq.params} {direction.value}/"
                        f"{parity.value} n={n}: {case.name} gave {got}, "
                        f"oracle {expected}")
    return report


def sweep_parity_partition(seqs: Iterable[SequenceDef], max_n: int) -> SuiteReport:
    """even(n) + odd(n) must equal all(2n+1) forward and all(2n) backward."""
    report = SuiteReport("parity-partition")
    for seq in seqs:
        for n in range(max_n + 1):
            fwd = (evaluate(seq, SumQuery(Direction.FORWARD, Parity.EVEN, n)).value
                   + evaluate(seq, SumQuery(Direction.FORWARD, Parity.ODD, n)).value)
            whole = evaluate(seq, SumQuery(Direction.FORWARD, Parity.ALL, 2 * n + 1)).value
            if fwd == whole:
                report.ok()
            else:
                report.fail(f"{seq.name or seq.params} forward n={n}")
        if seq.params.t == 0:
            continue
        for n in range(1, max_n + 1):
            bwd = (evaluate(seq, SumQuery(Direction.BACKWARD, Parity.EVEN, n)).value
                   + evaluate(seq, SumQuery(Direction.BACKWARD, Parity.ODD, n)).value)
            whole = evaluate(seq, SumQuery(Direction.BACKWARD, Parity.ALL, 2 * n)).value
            if bwd == whole:
                report.ok()
            else:
                report.fail(f"{seq.name or seq.params} backward n={n}")
    return report


def sweep_specializations(rng: random.Random, count: int, max_n: int = 10) -> SuiteReport:
    """The simplified clauses must agree with the generic ones, term for term.

    Covers the s = 1 forward even/odd forms (needs r + t != 0) and the
    r + t = 0 backward even/odd forms (needs s != 1 and d1*d2 != 0).
    """
    report = SuiteReport("specializations")
    for _ in range(count):
        # s = 1 branch
        while True:
            r = random_rational(rng)
            t = random_rational(rng)
            params = RecurrenceParams(r, Fraction(1), t)
            d = denominators(params)
            if r + t != 0 and d.d1 * d.d2 != 0:
                break
        seq = SequenceDef(params, random_rational(rng), random_rational(rng),
                          random_rational(rng))
        for n in range(max_n + 1):
            pairs = (
                (FormulaCase.FwdEven_S1, FormulaCase.FwdEven_Generic),
                (FormulaCase.FwdOdd_S1, FormulaCase.FwdOdd_Generic),
            )
            for special, generic in pairs:
                if closed_form_value(special, seq, n) == closed_form_value(generic, seq, n):
                    report.ok()
                else:
                    report.fail(f"{special.name} != {generic.name} at {seq.params} n={n}")
        # r + t = 0 branch
        while True:
            t = random_rational(rng)
            s = random_rational(rng)
            if t == 0 or s == 1:
                continue
            params = RecurrenceParams(-t, s, t)
            d = denominators(params)
            if d.d1 * d.d2 != 0:
                break
        seq = SequenceDef(params, random_rational(rng), random_rational(rng),
                          random_rational(rng))
        for n in range(1, max_n + 1):
            pairs = (
                (FormulaCase.BwdEven_RplusT0, FormulaCase.BwdEven_Generic),
                (FormulaCase.BwdOdd_RplusT0, FormulaCase.BwdOdd_Generic),
            )
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
        if ident.sequence_key not in terms:
            continue
        seq = defs[ident.sequence_key]
        term = terms[ident.sequence_key]
        for n, expected in oracle.prefix_sums(seq, ident.direction,
                                              ident.parity, max_n):
            if n < ident.min_n:
                continue
            got = ident.clause(term, n)
            if got == expected:
                report.ok()
            else:
                report.fail(
                    f"{ident.sequence_key} {ident.direction.value}/"
                    f"{ident.parity.value} n={n}: identity gave {got}, "
                    f"oracle {expected}")
    return report


def run_all(max_n: int = 100,
            seq_filter: Optional[str] = None,
            random_count: int = 0,
            seed: int = 0) -> list[SuiteReport]:
    """The full verification battery, as driven by the CLI."""
    entries: list[CatalogEntry] = list_all()
    if seq_filter is not None:
        entries = [e for e in entries if e.key == seq_filter]
    seqs = [e.definition for e in entries]
    if random_count:
        rng = random.Random(seed)
        seqs = seqs + [random_sequence(rng) for _ in range(random_count)]
    reports = [
        sweep_formula_vs_oracle(seqs, max_n),
        sweep_parity_partition(seqs, min(max_n, 50)),
        sweep_specializations(random.Random(seed + 1), max(random_count, 10)),
        sweep_identities(min(max_n, 50),
                         keys={e.key for e in entries}),
    ]
    return reports
