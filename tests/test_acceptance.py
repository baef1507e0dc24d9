"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS/FAIL line for its criterion, emitted with
output capture suspended so the lines always appear in the terminal run.
All comparisons are exact (Fraction equality, tolerance zero).
"""

import math
import random
import time
from fractions import Fraction

import pytest

from tribsum.catalog import list_all, lookup
from tribsum.core import (
    MultiplicationCounter,
    RecurrenceParams,
    SequenceDef,
    term_matrix,
)
from tribsum.oeis import AlignmentStatus, align, fetch_bfile
from tribsum.oracle import oracle_sum, oracle_term, prefix_sums
from tribsum.oracle import term_table as build_term_table
from tribsum.sums import (
    Direction,
    FormulaCase,
    Parity,
    SumQuery,
    _gate,
    closed_form_value,
    evaluate,
    select_case,
)
from tribsum.verify import (
    ALL_QUERY_FAMILIES,
    random_rational,
    sweep_formula_vs_oracle,
    sweep_identities,
    sweep_specializations,
)

SEED = 20260823


@pytest.fixture
def report(capfd):
    """Print one PASS/FAIL line per criterion, bypassing output capture."""
    def _report(name: str, ok: bool, detail: str = "") -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if detail:
            line += f" -- {detail}"
        with capfd.disabled():
            print(line, flush=True)
    return _report


def _incremental_oracle_check(seq, families, max_n):
    """Yield (query, literal sum) pairs built from incremental prefix sums."""
    for direction, parity in families:
        for n, running in prefix_sums(seq, direction, parity, max_n):
            yield SumQuery(direction, parity, n), running


def test_criterion_1_sum_operations_match_oracle(report):
    """All six sum operations equal the literal sum on the full catalog."""
    name = "1: six sum families vs oracle, 15 sequences, n<=100"
    start = time.perf_counter()
    failures = 0
    checks = 0
    for entry in list_all():
        seq = entry.definition
        has_backward = seq.params.t != 0
        families = [f for f in ALL_QUERY_FAMILIES
                    if f[0] is Direction.FORWARD or has_backward]
        for query, expected in _incremental_oracle_check(seq, families, 100):
            checks += 1
            if evaluate(seq, query).value != expected:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    report(name, ok, f"{checks} checks, {failures} failures, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 60.0


def _generic_sequence(rng):
    """A random sequence, numerators and denominators in [-9, 9], on a triple
    where the generic even/odd clauses hold: r, s, t are drawn again until
    d1*d2 != 0, then W_0, W_1, W_2."""
    while True:
        r, s, t = (random_rational(rng) for _ in range(3))
        if _gate("generic", Parity.EVEN, r, s, t):
            return SequenceDef.of(r, s, t, *(random_rational(rng) for _ in range(3)))


def test_criterion_2_generic_closed_forms_random_parameters(report):
    """Generic forward and backward closed forms on 500 random triples."""
    name = "2: generic closed forms, 500 random parameter sets, n<=50"
    rng = random.Random(SEED)
    seqs = [_generic_sequence(rng) for _ in range(500)]
    suite = sweep_formula_vs_oracle(seqs, max_n=50)
    ok = suite.succeeded and suite.passed > 0
    report(name, ok, f"{suite.passed} checks, {suite.failed} failures")
    assert ok, suite.failures


def test_criterion_3_degenerate_triple_clauses(report):
    """(r, s, t) = (0, 2, 1) clauses on 50 random initial triples."""
    name = "3: (0,2,1) clauses, 50 random initial triples, n<=50"
    rng = random.Random(SEED + 1)
    params = RecurrenceParams(Fraction(0), Fraction(2), Fraction(1))
    failures = 0
    checks = 0
    affine_ok = True
    for _ in range(50):
        seq = SequenceDef(params, random_rational(rng), random_rational(rng),
                          random_rational(rng))
        table = build_term_table(seq, 0, 19)
        for query, expected in _incremental_oracle_check(
                seq, ALL_QUERY_FAMILIES, 50):
            case = select_case(params, query)
            checks += 1
            if closed_form_value(case, seq, query.n) != expected:
                failures += 1
        # The even forward sum minus W_{2n+1} must be affine in n with
        # slope W_2 - W_1 - W_0 (zero second difference).
        slope = seq.w2 - seq.w1 - seq.w0
        extras = [
            closed_form_value(FormulaCase.Fwd_021_Even, seq, n) - table[2 * n + 1]
            for n in range(10)
        ]
        diffs = [b - a for a, b in zip(extras, extras[1:])]
        if any(d != slope for d in diffs):
            affine_ok = False
    ok = failures == 0 and affine_ok
    report(name, ok,
            f"{checks} checks, {failures} failures, affine slope "
            f"{'confirmed' if affine_ok else 'violated'}")
    assert ok


def test_criterion_4_specialized_clauses_match_generic(report):
    """The s = 1 and r + t = 0 simplifications equal the literal sum on
    triples pinned to their planes."""
    name = "4: specialized clauses vs literal sum, 100 random sets each"
    suite = sweep_specializations(random.Random(SEED + 2), count=100)
    ok = suite.succeeded and suite.passed > 0
    report(name, ok, f"{suite.passed} checks, {suite.failed} failures")
    assert ok, suite.failures


def test_criterion_5_named_sequence_identities(report):
    """All 90 named-sequence sum identities up to n = 50."""
    name = "5: 90 named-sequence identities, n<=50"
    suite = sweep_identities(max_n=50)
    ok = suite.succeeded and suite.passed > 0
    report(name, ok, f"{suite.passed} checks, {suite.failed} failures")
    assert ok, suite.failures


def test_criterion_6_term_evaluators_agree(report):
    """The polynomial power and the literal walk coincide; the polynomial
    power stays within the logarithmic product bound."""
    name = "6: term evaluators agree; polynomial-product bound"
    failures = 0
    checks = 0
    for entry in list_all():
        seq = entry.definition
        hi = 50 if seq.params.t != 0 else 0
        for n in range(-hi, 51):
            checks += 1
            if term_matrix(seq, n) != oracle_term(seq, n):
                failures += 1
    rng = random.Random(SEED + 3)
    bound_ok = True
    trib = lookup("tribonacci").definition
    for _ in range(100):
        n = rng.randint(-10_000, 10_000)
        checks += 1
        if term_matrix(trib, n) != oracle_term(trib, n):
            failures += 1
        counter = MultiplicationCounter()
        term_matrix(trib, n, counter)
        if counter.count > 2 * math.ceil(math.log2(abs(n) + 1)) + 2:
            bound_ok = False
    ok = failures == 0 and bound_ok
    report(name, ok,
            f"{checks} checks, {failures} failures, op bound "
            f"{'held' if bound_ok else 'violated'}")
    assert ok


def test_criterion_7_oeis_fixture_alignment(report):
    """Required fixtures align with the catalog for at least 50 terms."""
    name = "7: OEIS fixture alignment (A000073, A000931, A001608)"
    required = (("tribonacci", "A000073"),
                ("padovan", "A000931"),
                ("perrin", "A001608"))
    details = []
    ok = True
    for key, oeis_id in required:
        entry = lookup(key)
        alignment = align(entry.definition, fetch_bfile(oeis_id))
        good = (alignment.status is AlignmentStatus.ALIGNED
                and alignment.matched_terms >= 50
                and alignment.shift == entry.oeis_offset_shift)
        ok = ok and good
        details.append(f"{oeis_id} shift={alignment.shift} "
                       f"matched={alignment.matched_terms}")
    report(name, ok, "; ".join(details))
    assert ok


def test_criterion_8_closed_form_speedup_reported(report):
    """Closed-form sums should be at least 10x faster than the naive sum at
    n = 100000.  Reported for information; never gates the suite."""
    name = "8: closed form vs naive speed at n=100000 (informational)"
    seq = lookup("tribonacci").definition
    query = SumQuery(Direction.FORWARD, Parity.ALL, 100_000)
    start = time.perf_counter()
    closed = evaluate(seq, query).value
    closed_s = time.perf_counter() - start
    start = time.perf_counter()
    naive = oracle_sum(seq, query)
    naive_s = time.perf_counter() - start
    assert closed == naive
    ratio = naive_s / closed_s if closed_s else float("inf")
    report(name, ratio >= 10.0,
            f"speedup {ratio:.0f}x (closed {closed_s * 1e3:.0f}ms, "
            f"naive {naive_s * 1e3:.0f}ms); reported, not gated")
