"""Verification sweeps: closed forms against the literal sum (the s = 1
and r + t = 0 clauses on triples pinned to their planes), parity
partition, and the named-sequence identities.  For each swept (triple,
W) the formula-vs-oracle and identity sweeps are proofs, not samples: they
run every n from the family's first bound, and a clause minus its gate
times the sum obeys a monic recurrence of order at most 5, so any max_n of
at least that first n + 4 is enough.

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
from .catalog import list_all, lookup
from .core import SequenceDef
from .sums import (
    Direction,
    FormulaCase,
    Parity,
    SumQuery,
    _brief,
    _gate,
    closed_form_value,
    evaluate,
    select_case,
)

ALL_QUERY_FAMILIES = tuple((direction, parity) for direction in Direction for parity in Parity)


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


def random_sequence(rng: random.Random, nonzero_d: bool = False) -> SequenceDef:
    """A random sequence with numerators and denominators in [-9, 9]; with
    *nonzero_d*, on a triple where the generic even/odd clauses hold."""
    while True:
        r, s, t = (random_rational(rng) for _ in range(3))
        if not nonzero_d or _gate("generic", Parity.EVEN, r, s, t):
            return SequenceDef.of(r, s, t, *(random_rational(rng) for _ in range(3)))


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
                        f"{source} gave {_brief(got)}, oracle {_brief(expected)}")


def sweep_formula_vs_oracle(seqs: Iterable[SequenceDef], max_n: int) -> SuiteReport:
    """Every dispatched closed form must equal the literal sum exactly.

    Each clause reads its window from the oracle's term table and runs
    through the same integer combine as :func:`evaluate`; only the kernel
    is left out.  The expected values are the oracle's running prefix
    sums, so the sweep is linear in max_n per family.
    """
    report = SuiteReport("formula-vs-oracle")
    for seq in seqs:
        term = _oracle_terms(seq, max_n)
        for direction, parity in ALL_QUERY_FAMILIES:
            if direction is Direction.BACKWARD and seq.params.t == 0:
                continue
            case = select_case(seq.params, SumQuery(direction, parity, 1))
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


_SPECIALIZATION_MAX_N = 10


def _pinned(rng: random.Random, condition: str) -> tuple[Fraction, ...]:
    """(a, 1, b) for "s=1", else (-a, b, a) with t = a != 0 (backward clauses),
    from random a and b, where the gate of *condition* is nonzero."""
    while True:
        a, b = random_rational(rng), random_rational(rng)
        r, s, t = (a, Fraction(1), b) if condition == "s=1" else (-a, b, a)
        if _gate(condition, Parity.EVEN, r, s, t) and (condition == "s=1" or t != 0):
            return r, s, t


def sweep_specializations(rng: random.Random, count: int) -> SuiteReport:
    """Each "s=1" and "r+t=0" clause of :class:`FormulaCase`, run through the
    kernel and combine :func:`evaluate` runs, must equal the literal sum on
    *count* :func:`_pinned` triples per condition and every bound n <= 10."""
    report = SuiteReport("specializations")
    for _ in range(count):
        for condition in ("s=1", "r+t=0"):
            seq = SequenceDef.of(*_pinned(rng, condition),
                                 *(random_rational(rng) for _ in range(3)))
            for case in FormulaCase:
                if case.value[2] == condition:
                    _against_oracle(report, seq, *case.value[:2], _SPECIALIZATION_MAX_N,
                                    partial(closed_form_value, case, seq),
                                    str(seq.params), case.name)
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
    entries = list_all() if seq_filter is None else [lookup(seq_filter)]
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
