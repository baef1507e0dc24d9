"""Closed-form partial sums of generalized Tribonacci sequences.

Six sum families are supported: forward/backward crossed with all/even/odd
indices.  Forward sums run over k = 0..n (so n >= 0); backward sums run
over k = 1..n with negated indices (so n >= 1).  Each family has a generic
closed form valid when the denominator expressions

    d1 = r + s + t - 1        d2 = r - s + t + 1

do not vanish, plus dedicated even/odd formulas for the degenerate triple
(r, s, t) = (0, 2, 1), where d2 = 0 and the sums pick up a term linear in n.
Parameter triples with no proven formula fall back to the literal sum,
flagged as ``OracleFallback`` in the result.

One table, :func:`_gate`, gives each condition's divisor where its clauses
are proven and 0 everywhere else, and at most one of its "generic" and "021"
gates is nonzero; dispatch and :func:`closed_form_value` read it once per
sum.  Each clause is a linear form: it returns integer coefficient triples
(rho, kappa), polynomials in (r, s, t, o, n) homogeneous in (r, s, t, o), for
the window W_m, W_m+1, W_m+2 its family reads and for W_0, W_1, W_2.  There
is one combine: a sum calls its clause once on the ints L*(r, s, t, 1), takes
rho . D*window from :func:`~tribsum.core.scaled_window` (or from a caller's
term function), adds kappa . D*(W_0, W_1, W_2) and builds one Fraction.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .core import (  # Direction, Parity, SumMismatch, SumQuery: re-exported
    Direction,
    Parity,
    RecurrenceParams,
    SequenceDef,
    SumMismatch,
    SumQuery,
    as_rational,
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
    Fwd_021_Even = (Direction.FORWARD, Parity.EVEN, "021")
    Fwd_021_Odd = (Direction.FORWARD, Parity.ODD, "021")
    BwdAll_Generic = (Direction.BACKWARD, Parity.ALL, "generic")
    BwdEven_Generic = (Direction.BACKWARD, Parity.EVEN, "generic")
    BwdOdd_Generic = (Direction.BACKWARD, Parity.ODD, "generic")
    BwdEven_RplusT0 = (Direction.BACKWARD, Parity.EVEN, "r+t=0")
    BwdOdd_RplusT0 = (Direction.BACKWARD, Parity.ODD, "r+t=0")
    Bwd_021_Even = (Direction.BACKWARD, Parity.EVEN, "021")
    Bwd_021_Odd = (Direction.BACKWARD, Parity.ODD, "021")
    OracleFallback = (None, None, "oracle")


class SumResult(NamedTuple):
    value: Fraction
    case_used: FormulaCase


def _gate(condition: str, parity: Parity, r, s, t, o=1):
    """The divisor of *condition*'s clauses at (r, s, t) over o where they
    are proven, else 0: d1 = r+s+t-o (parity ALL) or d1*d2, d2 = r-s+t+o,
    for "generic"; r + t on s = o for "s=1"; s - o on r + t = 0 for
    "r+t=0"; 1 (EVEN) or 2 (ODD) at (0, 2o, o) for "021"; 0 for "oracle".
    Each clause's numerator is homogeneous in (r, s, t, o) of its gate's
    degree, and at o = 1 it is the paper's formula, term for term."""
    if condition == "generic":
        d1 = r + s + t - o
        return d1 if parity is Parity.ALL else d1 * (r - s + t + o)
    if condition == "s=1":
        return r + t if s == o else 0
    if condition == "r+t=0":
        return s - o if r + t == 0 else 0
    if condition == "021" and parity is not Parity.ALL and (r, s, t) == (0, 2 * o, o):
        return 1 if parity is Parity.EVEN else 2
    return 0


def _integer_triple(params: RecurrenceParams) -> tuple[int, int, int, int]:
    """(R, S, T, L) = L*(r, s, t, 1), L the least common denominator of r, s, t."""
    r, s, t = params.r, params.s, params.t
    L = math.lcm(r.denominator, s.denominator, t.denominator)
    return (r.numerator * (L // r.denominator), s.numerator * (L // s.denominator),
            t.numerator * (L // t.denominator), L)


def _dispatch(triple: tuple, query: SumQuery) -> tuple[FormulaCase, int]:
    """(case, its gate) for :func:`select_case`, "generic" first; 0 for the fallback."""
    for condition in ("generic", "021"):
        gate = _gate(condition, query.parity, *triple)
        if gate:
            return FormulaCase((query.direction, query.parity, condition)), gate
    return FormulaCase.OracleFallback, 0


def select_case(params: RecurrenceParams, query: SumQuery) -> FormulaCase:
    """The clause of the one condition, "generic" or "021" (never both), whose
    :func:`_gate` is nonzero, else the oracle fallback.  The S1 and RplusT0
    clauses specialize the generic ones and are never dispatched to."""
    return _dispatch(_integer_triple(params), query)[0]


TermFn = Callable[[int], Fraction]


def _fwd_all_generic(r, s, t, o, n: int):  # rho on W_{n+1}, W_{n+2}, W_{n+3}
    return (o - r - s, o - r, o), (r + s - o, r - o, -o)


def _fwd_even_generic(r, s, t, o, n: int):  # rho on W_{2n}, W_{2n+1}, W_{2n+2}
    return ((t * t + r * t, o * t + r * s, (o - s) * o),
            (-o * o + r * r - s * s + r * t + 2 * s * o, -o * t - r * s, (s - o) * o))


def _fwd_odd_generic(r, s, t, o, n: int):  # rho on W_{2n}, W_{2n+1}, W_{2n+2}
    return ((t * o - s * t, s * o - s * s + t * t + r * t, (r + t) * o),
            (-t * o + s * t, -o * o + s * o + r * r + r * t, (-r - t) * o))


def _fwd_even_s1(r, s, t, o, n: int):  # rho on W_{2n}, W_{2n+1}, W_{2n+2}
    return (t, o, 0), (r, -o, 0)


def _fwd_odd_s1(r, s, t, o, n: int):  # rho on W_{2n}, W_{2n+1}, W_{2n+2}
    return (0, t, o), (0, r, -o)


def _fwd_021_even(r, s, t, o, n: int):  # rho on W_{2n}, W_{2n+1}, W_{2n+2}
    return (0, 1, 0), (1 - n, -1 - n, n)


def _fwd_021_odd(r, s, t, o, n: int):  # rho on W_{2n}, W_{2n+1}, W_{2n+2}
    # The even/odd window: the paper's W_{2n+3} is 2*W_{2n+1} + W_{2n} here.
    return (1, 1, 1), (2 * n - 1, 2 * n + 1, -2 * n - 1)


def _bwd_all_generic(r, s, t, o, n: int):  # rho on W_{-n-3}, W_{-n-2}, W_{-n-1}
    return (-t, -(s + t), -(r + s + t)), (o - r - s, o - r, o)


def _bwd_even_generic(r, s, t, o, n: int):  # rho on W_{-2n-1}, W_{-2n}, W_{-2n+1}
    return ((s * t - t * o, r * r + r * t + s * o - o * o, -(r + t) * o),
            (o * o - r * t - 2 * s * o - r * r + s * s, t * o + r * s, (o - s) * o))


def _bwd_odd_generic(r, s, t, o, n: int):  # rho on W_{-2n-1}, W_{-2n}, W_{-2n+1}
    return ((-(t * t + r * t), -(t * o + r * s), (s - o) * o),
            (t * o - s * t, o * o - r * r - r * t - s * o, (r + t) * o))


def _bwd_even_r_plus_t_zero(r, s, t, o, n: int):  # rho on W_{-2n-1}, W_{-2n}, W_{-2n+1}
    return (-t, -o, 0), (o - s, t, o)


def _bwd_odd_r_plus_t_zero(r, s, t, o, n: int):  # rho on W_{-2n-1}, W_{-2n}, W_{-2n+1}
    return (0, -t, -o), (t, o, 0)


def _bwd_021_even(r, s, t, o, n: int):  # rho on W_{-2n-1}, W_{-2n}, W_{-2n+1}
    return (0, 1, -1), (-1 - n, 1 - n, n)


def _bwd_021_odd(r, s, t, o, n: int):  # rho on W_{-2n-1}, W_{-2n}, W_{-2n+1}
    return (-1, -3, 1), (1 + 2 * n, 2 * n - 1, 1 - 2 * n)


# Each clause's (rho, kappa): its numerator is rho . D*(W_m, W_m+1, W_m+2)
# + kappa . D*(W_0, W_1, W_2), D the window's common denominator.
_CLOSED_FORMS: dict[FormulaCase, Callable] = {
    FormulaCase.FwdAll_Generic: _fwd_all_generic,
    FormulaCase.FwdEven_Generic: _fwd_even_generic,
    FormulaCase.FwdOdd_Generic: _fwd_odd_generic,
    FormulaCase.FwdEven_S1: _fwd_even_s1,
    FormulaCase.FwdOdd_S1: _fwd_odd_s1,
    FormulaCase.Fwd_021_Even: _fwd_021_even,
    FormulaCase.Fwd_021_Odd: _fwd_021_odd,
    FormulaCase.BwdAll_Generic: _bwd_all_generic,
    FormulaCase.BwdEven_Generic: _bwd_even_generic,
    FormulaCase.BwdOdd_Generic: _bwd_odd_generic,
    FormulaCase.BwdEven_RplusT0: _bwd_even_r_plus_t_zero,
    FormulaCase.BwdOdd_RplusT0: _bwd_odd_r_plus_t_zero,
    FormulaCase.Bwd_021_Even: _bwd_021_even,
    FormulaCase.Bwd_021_Odd: _bwd_021_odd,
}


def closed_form_value(case: FormulaCase, seq: SequenceDef, n: int,
                      term: TermFn | None = None) -> Fraction:
    """Evaluate a specific closed-form clause directly (no dispatch).

    ValueError where the case's :func:`_gate` is 0, as it always is for
    OracleFallback.  n follows :class:`SumQuery`'s rules.  The clause reads
    one window W_m..W_{m+2}: from :func:`~tribsum.core.scaled_window` by
    default, else from *term*, called for exactly those three indices and
    returning ints or Fractions.  Either way it runs on ints,
    :func:`_integer_triple` and D*W with D the window's common denominator,
    and the sum is one Fraction over gate*D.

    No code in this package passes *term*.  It stays only for the
    benchmark's traced runs (``tribbench/worker.py``), which time the
    window as three term calls, and goes when they stop doing so."""
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
    *triple* = :func:`_integer_triple` and the case's nonzero *gate* there:
    the clause's rho . D*window, from the kernel or from *term*, plus its
    kappa . D*(W_0, W_1, W_2).  A backward window has m < 0, so at t = 0 the
    kernel, or *term*, raises NegativeIndexWithZeroT."""
    direction, parity, _ = case.value
    if direction is Direction.FORWARD:  # m: the window's first index
        m = n + 1 if parity is Parity.ALL else 2 * n
    else:
        m = -n - 3 if parity is Parity.ALL else -2 * n - 1
    rho, (k0, k1, k2) = _CLOSED_FORMS[case](*triple, n)
    if term is None:
        value, den = scaled_window(seq, m, rho)
    else:  # W_m..W_{m+2} over one denominator with W_0..W_2
        window = [as_rational(term(k)) for k in range(m, m + 3)]
        den = math.lcm(*(v.denominator for v in (*window, seq.w0, seq.w1, seq.w2)))
        n0, n1, n2 = (v.numerator * (den // v.denominator) for v in window)
        value = rho[0] * n0 + rho[1] * n1 + rho[2] * n2
    w0, w1, w2 = (w.numerator * (den // w.denominator) for w in (seq.w0, seq.w1, seq.w2))
    return Fraction(value + k0 * w0 + k1 * w1 + k2 * w2, gate * den)


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
        return SumResult(sum_oracle(seq, query), case)
    value = _combine(case, seq, query.n, triple, gate)
    if check:
        expected = sum_oracle(seq, query)
        if value != expected:
            raise SumMismatch(
                f"{case.name} gave {_brief(value)}, literal sum is "
                f"{_brief(expected)} for {seq.name or seq.params} {query}")
    return SumResult(value, case)


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
