"""Closed-form partial sums of generalized Tribonacci sequences.

Six sum families are supported: forward/backward crossed with all/even/odd
indices.  Forward sums run over k = 0..n (so n >= 0); backward sums run
over k = 1..n with negated indices (so n >= 1).  Each family has a generic
closed form valid when the denominator expressions

    d1 = r + s + t - 1        d2 = r - s + t + 1

do not vanish, plus dedicated formulas for the degenerate triple
(r, s, t) = (0, 2, 1) where d2 = 0 and the sums pick up a term linear in n.
Parameter triples with no proven formula fall back to the literal sum,
flagged as ``OracleFallback`` in the result.

One table, :func:`_gate`, gives each condition's divisor where its clauses
are proven and 0 everywhere else; dispatch and :func:`closed_form_value`
read it once per sum.  Clauses return numerators homogeneous in (r, s, t,
o).  There is one combine: a sum reads the ints L*(r, s, t, 1) and D*W of
one window, from :func:`~tribsum.core.scaled_window` or from a caller's
term function, and builds one Fraction.  Past the kernel's readout
crossover it reads only rho . window from the kernel, with rho and the
rest K taken from its clause on the zero and the unit windows.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .core import (  # Direction, Parity, SumQuery, query_indices: re-exported
    Direction,
    NegativeIndexWithZeroT,
    Parity,
    RecurrenceParams,
    SequenceDef,
    SumQuery,
    as_rational,
    query_indices,
    scaled_window,
)
# The literal sum: the fallback path, and the reference for check=True.
from .oracle import oracle_sum as sum_oracle


class FormulaCase(enum.Enum):
    """Which closed-form clause (or fallback) applies to a (params, query)
    pair; the value is (direction, parity, condition)."""

    FwdAll_Generic = (Direction.FORWARD, Parity.ALL, "generic")
    FwdEven_Generic = (Direction.FORWARD, Parity.EVEN, "generic")
    FwdOdd_Generic = (Direction.FORWARD, Parity.ODD, "generic")
    FwdEven_S1 = (Direction.FORWARD, Parity.EVEN, "s=1")
    FwdOdd_S1 = (Direction.FORWARD, Parity.ODD, "s=1")
    Fwd_021_All = (Direction.FORWARD, Parity.ALL, "021")
    Fwd_021_Even = (Direction.FORWARD, Parity.EVEN, "021")
    Fwd_021_Odd = (Direction.FORWARD, Parity.ODD, "021")
    BwdAll_Generic = (Direction.BACKWARD, Parity.ALL, "generic")
    BwdEven_Generic = (Direction.BACKWARD, Parity.EVEN, "generic")
    BwdOdd_Generic = (Direction.BACKWARD, Parity.ODD, "generic")
    BwdEven_RplusT0 = (Direction.BACKWARD, Parity.EVEN, "r+t=0")
    BwdOdd_RplusT0 = (Direction.BACKWARD, Parity.ODD, "r+t=0")
    Bwd_021_All = (Direction.BACKWARD, Parity.ALL, "021")
    Bwd_021_Even = (Direction.BACKWARD, Parity.EVEN, "021")
    Bwd_021_Odd = (Direction.BACKWARD, Parity.ODD, "021")
    OracleFallback = (None, None, "oracle")


class Denominators(NamedTuple):
    """The two gate expressions whose vanishing disables the closed forms."""

    d1: Fraction
    d2: Fraction


class SumResult(NamedTuple):
    value: Fraction
    case_used: FormulaCase
    oracle_checked: bool = False


class SumMismatch(ArithmeticError):
    """A closed-form value disagreed with the literal sum."""


def denominators(params: RecurrenceParams) -> Denominators:
    """d1 = r+s+t-1 and d2 = r-s+t+1; their product equals
    2s + 2rt + r^2 - s^2 + t^2 - 1."""
    r, s, t = params.r, params.s, params.t
    return Denominators(r + s + t - 1, r - s + t + 1)


def _gate(condition: str, parity: Parity, r, s, t, o=1):
    """The divisor of *condition*'s clauses at (r, s, t) over o where they
    are proven, else 0: d1 = r+s+t-o (parity ALL) or d1*d2, d2 = r-s+t+o,
    for "generic"; r + t on s = o for "s=1"; s - o on r + t = 0 for
    "r+t=0"; 2 (1 for EVEN) at (0, 2o, o) for "021"; 0 for "oracle".  Each
    clause's numerator is homogeneous in (r, s, t, o) of its gate's degree,
    and at o = 1 it is the paper's formula, term for term."""
    if condition == "generic":
        d1 = r + s + t - o
        return d1 if parity is Parity.ALL else d1 * (r - s + t + o)
    if condition == "s=1":
        return r + t if s == o else 0
    if condition == "r+t=0":
        return s - o if r + t == 0 else 0
    if condition == "021" and (r, s, t) == (0, 2 * o, o):
        return 1 if parity is Parity.EVEN else 2
    return 0


def _integer_triple(params: RecurrenceParams) -> tuple[int, int, int, int]:
    """(R, S, T, L) = L*(r, s, t, 1), L the least common denominator of r, s, t."""
    r, s, t = params.r, params.s, params.t
    L = math.lcm(r.denominator, s.denominator, t.denominator)
    return (r.numerator * (L // r.denominator), s.numerator * (L // s.denominator),
            t.numerator * (L // t.denominator), L)


def _dispatch(triple: tuple, query: SumQuery) -> tuple[FormulaCase, int]:
    """(case, its gate) for :func:`select_case`, the gate 0 for the fallback."""
    for condition in ("021", "generic"):
        gate = _gate(condition, query.parity, *triple)
        if gate:
            return FormulaCase((query.direction, query.parity, condition)), gate
    return FormulaCase.OracleFallback, 0


def select_case(params: RecurrenceParams, query: SumQuery) -> FormulaCase:
    """The clause of the first of "021" (d2 = 0 there) and "generic" whose
    :func:`_gate` is nonzero, else the oracle fallback.  The S1 and RplusT0
    clauses specialize the generic ones and are never dispatched to."""
    return _dispatch(_integer_triple(params), query)[0]


TermFn = Callable[[int], Fraction]


def _fwd_all_generic(r, s, t, o, w0, w1, w2, n: int, term: TermFn):
    return (o * term(n + 3) + (o - r) * term(n + 2) + (o - r - s) * term(n + 1)
            - o * w2 + (r - o) * w1 + (r + s - o) * w0)


def _fwd_even_generic(r, s, t, o, w0, w1, w2, n: int, term: TermFn):
    return ((o - s) * o * term(2 * n + 2)
            + (o * t + r * s) * term(2 * n + 1)
            + (t * t + r * t) * term(2 * n)
            + (s - o) * o * w2
            + (-o * t - r * s) * w1
            + (-o * o + r * r - s * s + r * t + 2 * s * o) * w0)


def _fwd_odd_generic(r, s, t, o, w0, w1, w2, n: int, term: TermFn):
    return ((r + t) * o * term(2 * n + 2)
            + (s * o - s * s + t * t + r * t) * term(2 * n + 1)
            + (t * o - s * t) * term(2 * n)
            + (-r - t) * o * w2
            + (-o * o + s * o + r * r + r * t) * w1
            + (-t * o + s * t) * w0)


def _fwd_even_s1(r, s, t, o, w0, w1, w2, n: int, term: TermFn):
    return o * term(2 * n + 1) + t * term(2 * n) - o * w1 + r * w0


def _fwd_odd_s1(r, s, t, o, w0, w1, w2, n: int, term: TermFn):
    return o * term(2 * n + 2) + t * term(2 * n + 1) - o * w2 + r * w1


def _fwd_021_all(r, s, t, o, w0, w1, w2, n: int, term: TermFn):
    return term(n + 3) + term(n + 2) - term(n + 1) - w2 - w1 + w0


def _fwd_021_even(r, s, t, o, w0, w1, w2, n: int, term: TermFn):
    return term(2 * n + 1) + (w2 - w1 - w0) * n + w0 - w1


def _fwd_021_odd(r, s, t, o, w0, w1, w2, n: int, term: TermFn):
    # Reads 2n..2n+2 like the other even/odd clauses: here W_{2n+3} = 2*W_{2n+1} + W_{2n}.
    return (term(2 * n + 2) + term(2 * n + 1) + term(2 * n)
            + 2 * n * (-w2 + w1 + w0) - w2 + w1 - w0)


def _bwd_all_generic(r, s, t, o, w0, w1, w2, n: int, term: TermFn):
    return (-(r + s + t) * term(-n - 1) - (s + t) * term(-n - 2) - t * term(-n - 3)
            + o * w2 + (o - r) * w1 + (o - r - s) * w0)


def _bwd_even_generic(r, s, t, o, w0, w1, w2, n: int, term: TermFn):
    return (-(r + t) * o * term(-2 * n + 1)
            + (r * r + r * t + s * o - o * o) * term(-2 * n)
            + (s * t - t * o) * term(-2 * n - 1)
            + (o - s) * o * w2
            + (t * o + r * s) * w1
            + (o * o - r * t - 2 * s * o - r * r + s * s) * w0)


def _bwd_odd_generic(r, s, t, o, w0, w1, w2, n: int, term: TermFn):
    return ((s - o) * o * term(-2 * n + 1)
            - (t * o + r * s) * term(-2 * n)
            - (t * t + r * t) * term(-2 * n - 1)
            + (r + t) * o * w2
            + (o * o - r * r - r * t - s * o) * w1
            + (t * o - s * t) * w0)


def _bwd_even_r_plus_t_zero(r, s, t, o, w0, w1, w2, n: int, term: TermFn):
    return -o * term(-2 * n) - t * term(-2 * n - 1) + o * w2 + t * w1 + (o - s) * w0


def _bwd_odd_r_plus_t_zero(r, s, t, o, w0, w1, w2, n: int, term: TermFn):
    return -o * term(-2 * n + 1) - t * term(-2 * n) + o * w1 + t * w0


def _bwd_021_all(r, s, t, o, w0, w1, w2, n: int, term: TermFn):
    return -3 * term(-n - 1) - 3 * term(-n - 2) - term(-n - 3) + w2 + w1 - w0


def _bwd_021_even(r, s, t, o, w0, w1, w2, n: int, term: TermFn):
    return -term(-2 * n + 1) + term(-2 * n) + (w1 - w0) + (w2 - w1 - w0) * n


def _bwd_021_odd(r, s, t, o, w0, w1, w2, n: int, term: TermFn):
    return (term(-2 * n + 1) - 3 * term(-2 * n) - term(-2 * n - 1)
            + (w2 - w1 + w0) + 2 * (-w2 + w1 + w0) * n)


_CLOSED_FORMS: dict[FormulaCase, Callable] = {
    FormulaCase.FwdAll_Generic: _fwd_all_generic,
    FormulaCase.FwdEven_Generic: _fwd_even_generic,
    FormulaCase.FwdOdd_Generic: _fwd_odd_generic,
    FormulaCase.FwdEven_S1: _fwd_even_s1,
    FormulaCase.FwdOdd_S1: _fwd_odd_s1,
    FormulaCase.Fwd_021_All: _fwd_021_all,
    FormulaCase.Fwd_021_Even: _fwd_021_even,
    FormulaCase.Fwd_021_Odd: _fwd_021_odd,
    FormulaCase.BwdAll_Generic: _bwd_all_generic,
    FormulaCase.BwdEven_Generic: _bwd_even_generic,
    FormulaCase.BwdOdd_Generic: _bwd_odd_generic,
    FormulaCase.BwdEven_RplusT0: _bwd_even_r_plus_t_zero,
    FormulaCase.BwdOdd_RplusT0: _bwd_odd_r_plus_t_zero,
    FormulaCase.Bwd_021_All: _bwd_021_all,
    FormulaCase.Bwd_021_Even: _bwd_021_even,
    FormulaCase.Bwd_021_Odd: _bwd_021_odd,
}


def closed_form_value(case: FormulaCase, seq: SequenceDef, n: int,
                      term: TermFn | None = None) -> Fraction:
    """Evaluate a specific closed-form clause directly (no dispatch).

    ValueError where the case's :func:`_gate` is 0, as it always is for
    OracleFallback.  n follows :class:`SumQuery`'s rules; a backward clause
    needs t != 0.  The clause reads one window W_m..W_{m+2}: from
    :func:`~tribsum.core.scaled_window` by default, else from *term*, called
    for exactly those three indices and returning ints or Fractions.  Either
    way it runs on ints, :func:`_integer_triple` and D*W with D the window's
    common denominator, and the sum is one Fraction over gate*D; a read
    outside the window raises KeyError."""
    direction, parity, condition = case.value
    p = seq.params
    triple = _integer_triple(p)
    gate = _gate(condition, parity, *triple)
    if not gate:
        raise ValueError(f"{case.name} is not a proven closed form at "
                         f"(r, s, t) = ({p.r}, {p.s}, {p.t})")
    SumQuery(direction, parity, n)  # checks n by the query's rules
    return _combine(case, seq, n, triple, gate, term)


def _combine(case: FormulaCase, seq: SequenceDef, n: int, triple: tuple,
             gate: int, term: TermFn | None = None) -> Fraction:
    """:func:`closed_form_value` past its checks of *case* and n, on
    *triple* = :func:`_integer_triple` and the case's nonzero *gate* there,
    the window from *term* if given, or read out (:func:`_read_clause`)
    when the kernel hands back a readout instead of the window."""
    direction, parity, _ = case.value
    r, s, t, o = triple
    if direction is Direction.BACKWARD and t == 0:
        raise NegativeIndexWithZeroT("backward sums need t != 0")
    if direction is Direction.FORWARD:  # m: the window's first index
        m = n + 1 if parity is Parity.ALL else 2 * n
    else:
        m = -n - 3 if parity is Parity.ALL else -2 * n - 1
    if term is None:
        nums, den = scaled_window(seq, m, None, True)  # readout=True
    else:  # W_m..W_{m+2} over one denominator with W_0..W_2
        window = [as_rational(term(k)) for k in range(m, m + 3)]
        den = math.lcm(*(v.denominator for v in (*window, seq.w0, seq.w1, seq.w2)))
        nums = [v.numerator * (den // v.denominator) for v in window]
    w0, w1, w2 = (w.numerator * (den // w.denominator) for w in (seq.w0, seq.w1, seq.w2))
    clause = _CLOSED_FORMS[case]
    if callable(nums):
        numerator = _read_clause(nums, clause, (r, s, t, o, w0, w1, w2, n), m)
    else:
        numerator = clause(r, s, t, o, w0, w1, w2, n, dict(zip(range(m, m + 3), nums)).__getitem__)
    return Fraction(numerator, gate * den)


def _read_clause(read: Callable, clause: Callable, args: tuple, m: int) -> int:
    """*clause* on *args* and the window W_m..W_{m+2}, which it reads
    affinely, as K + rho . window: K and K + rho from the clause on the zero
    and the unit windows, rho . window from the kernel's readout *read*.
    Its own function: the comprehension would make _combine's locals
    cells, which costs every small sum."""
    K, *at_units = (clause(*args, dict(zip(range(m, m + 3), unit)).__getitem__)
                    for unit in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    return K + read([v - K for v in at_units])


def _brief(value: Fraction) -> str:
    """A rational in decimal when short, else only its size in bits."""
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    return str(value) if bits <= 256 else f"<{bits}-bit rational>"


def evaluate(seq: SequenceDef, query: SumQuery, check: bool = False) -> SumResult:
    """Compute the queried sum via the dispatched clause.

    With ``check=True`` a closed-form value is compared with the literal
    sum and a :class:`SumMismatch` is raised on disagreement.  The fallback
    value is the literal sum itself, so it is computed only once.
    """
    triple = _integer_triple(seq.params)
    case, gate = _dispatch(triple, query)
    if not gate:
        return SumResult(sum_oracle(seq, query), case, oracle_checked=check)
    value = _combine(case, seq, query.n, triple, gate)
    if check:
        expected = sum_oracle(seq, query)
        if value != expected:
            raise SumMismatch(
                f"{case.name} gave {_brief(value)}, literal sum is "
                f"{_brief(expected)} for {seq.name or seq.params} {query}")
    return SumResult(value, case, oracle_checked=check)


def sum_forward_all(seq: SequenceDef, n: int, check: bool = False) -> SumResult:
    return evaluate(seq, SumQuery(Direction.FORWARD, Parity.ALL, n), check)


def sum_forward_even(seq: SequenceDef, n: int, check: bool = False) -> SumResult:
    return evaluate(seq, SumQuery(Direction.FORWARD, Parity.EVEN, n), check)


def sum_forward_odd(seq: SequenceDef, n: int, check: bool = False) -> SumResult:
    return evaluate(seq, SumQuery(Direction.FORWARD, Parity.ODD, n), check)


def sum_backward_all(seq: SequenceDef, n: int, check: bool = False) -> SumResult:
    return evaluate(seq, SumQuery(Direction.BACKWARD, Parity.ALL, n), check)


def sum_backward_even(seq: SequenceDef, n: int, check: bool = False) -> SumResult:
    return evaluate(seq, SumQuery(Direction.BACKWARD, Parity.EVEN, n), check)


def sum_backward_odd(seq: SequenceDef, n: int, check: bool = False) -> SumResult:
    return evaluate(seq, SumQuery(Direction.BACKWARD, Parity.ODD, n), check)
