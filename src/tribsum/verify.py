"""Verification sweeps: closed forms against the literal sum (the s = 1
and r + t = 0 clauses on triples pinned to their planes), parity
partition, and the named-sequence identities.  Each clause runs through
the kernel and combine :func:`~tribsum.sums.evaluate` runs, at every n up
to max_n; ``tests/test_clause_identities.py`` proves it for all n and W.

The CLI ``verify`` subcommand drives these through :func:`run_command`;
the test suite reuses them so the command line and pytest exercise
identical checks.
"""

import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

from . import identities, oracle
from .catalog import list_all, lookup
from .core import SequenceDef, _require_at_least
from .sums import (
    Direction,
    FormulaCase,
    Parity,
    SumQuery,
    _CLAUSES,
    _brief,
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


def random_sequence(rng: random.Random) -> SequenceDef:
    """A random sequence with numerators and denominators in [-9, 9]."""
    return SequenceDef.of(*(random_rational(rng) for _ in range(6)))


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


def _clauses_against_oracle(report: SuiteReport, seq: SequenceDef, max_n: int, label: str,
                            cases: Iterable[FormulaCase]) -> None:
    """Each clause, through :func:`closed_form_value`, against the literal sum."""
    for case in cases:
        direction, parity, _ = case.value
        _against_oracle(report, seq, direction, parity, max_n,
                        partial(closed_form_value, case, seq), label, case.name)


def sweep_formula_vs_oracle(seqs: Iterable[SequenceDef], max_n: int) -> SuiteReport:
    """Every dispatched closed form, through the kernel and combine, must
    equal the oracle's running prefix sums exactly."""
    report = SuiteReport("formula-vs-oracle")
    for seq in seqs:
        cases = (select_case(seq.params, SumQuery(d, p, 1)) for d, p in ALL_QUERY_FAMILIES
                 if d is Direction.FORWARD or seq.params.t != 0)
        _clauses_against_oracle(report, seq, max_n, str(seq.name or seq.params),
                                [c for c in cases if c is not FormulaCase.OracleFallback])
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
    from random a and b, where the gate of *condition*'s even row is nonzero."""
    gate = _CLAUSES["FwdEven_S1" if condition == "s=1" else "BwdEven_RplusT0"].gate
    while True:
        a, b = random_rational(rng), random_rational(rng)
        r, s, t = (a, Fraction(1), b) if condition == "s=1" else (-a, b, a)
        if gate(r, s, t) and (condition == "s=1" or t != 0):
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
            _clauses_against_oracle(report, seq, _SPECIALIZATION_MAX_N, str(seq.params),
                                    [case for case in FormulaCase if case.value[2] == condition])
    return report


def sweep_identities(max_n: int,
                     keys: set[str] | None = None) -> SuiteReport:
    """The named-sequence closed forms must equal the literal sums."""
    report = SuiteReport("named-sequence-identities")
    defs = {entry.key: entry.definition for entry in list_all()}
    span = 2 * max_n + 3  # every index a clause bounded by max_n reads
    terms = {key: oracle.term_table(seq, -span if seq.params.t != 0 else 0, span).__getitem__
             for key, seq in defs.items() if keys is None or key in keys}
    for ident in identities.SUM_IDENTITIES:
        key = ident.sequence_key
        if key in terms:
            _against_oracle(report, defs[key], ident.direction, ident.parity, max_n,
                            partial(ident.clause, terms[key]), key, "identity")
    return report


def run_all(max_n: int = 100,
            seq_filter: str | None = None,
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


def run_command(args: SimpleNamespace, emit: Callable, warn: Callable) -> bool:
    """The ``verify`` subcommand: run :func:`run_all` on the parsed *args*
    and write each suite's record, then the total's, through
    ``emit(args, record, text)``, and in text mode each failure through
    ``warn(text)``, to stderr.  Return whether every check passed."""
    _require_at_least("--max-n", args.max_n, 0)
    _require_at_least("--random", args.random, 0)
    reports = run_all(max_n=args.max_n, seq_filter=args.seq,
                      random_count=args.random, seed=args.seed)
    all_ok = all(r.succeeded for r in reports)
    for report in reports:
        record = {"command": "verify", "suite": report.name,
                  "passed": report.passed, "failed": report.failed,
                  "status": "PASS" if report.succeeded else "FAIL",
                  "failures": report.failures}
        text = (f"{report.name}: {'PASS' if report.succeeded else 'FAIL'} "
                f"({report.passed} passed, {report.failed} failed)")
        emit(args, record, text)
        if args.format != "json":
            for failure in report.failures:
                warn(f"  {failure}")
    passed, failed = sum(r.passed for r in reports), sum(r.failed for r in reports)
    emit(args, {"command": "verify", "suite": "total", "passed": passed,
                "failed": failed, "status": "PASS" if all_ok else "FAIL"},
         f"PASS: {passed} checks" if all_ok
         else f"FAIL: {passed + failed} checks, {failed} failed")
    return all_ok
