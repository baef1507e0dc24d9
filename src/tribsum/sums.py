"""Closed-form partial sums of generalized Tribonacci sequences.

Six sum families are supported: forward/backward crossed with all/even/odd
indices.  Forward sums run over k = 0..n (so n >= 0); backward sums run
over k = 1..n with negated indices (so n >= 1).  Each family has a generic
closed form valid where d1 = r + s + t - 1 and d2 = r - s + t + 1 do not
vanish, plus dedicated even/odd formulas for the degenerate triple
(r, s, t) = (0, 2, 1), where d2 = 0 and the sums pick up a term linear in n.
Parameter triples with no proven formula fall back to the literal sum,
flagged as ``OracleFallback`` in the result.  The paper's formulas are the
seven forward clauses and the two backward (0, 2, 1) ones; every other
backward sum steps back to a forward one of V_j = W_{2-j} (_STEP_BACK).

One table, :func:`_gate`, gives each condition's divisor where its clauses
are proven and 0 everywhere else, and at most one of its "generic" and "021"
gates is nonzero; dispatch and :func:`closed_form_value` read it once per
sum.  Each clause is a linear form: it returns integer coefficient triples
(rho, kappa), polynomials in (r, s, t, o, n) homogeneous in (r, s, t, o), for
the window X_m, X_m+1, X_m+2 its family reads and for X_0, X_1, X_2, X = W
or V.  There is one combine.  A sum reads its six rationals once, in the
integer set-up of :mod:`tribsum.core`: (R, S, T, L) = L*(r, s, t, 1) and
u = d*(W_0, W_1, W_2), reversed for V.  It calls its clause once on
(R, S, T, L), takes rho . D*window from :func:`~tribsum.core.scaled_window`
(or from a caller's term function), with D = d*q^(|m|+2), adds
kappa . D*(X_0, X_1, X_2) as (kappa . u)*q^(|m|+2) and builds one Fraction.
"""

import enum
import math
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction

from .core import (  # Direction, Parity, SumMismatch, SumQuery: re-exported
    Direction,
    Parity,
    RecurrenceParams,
    SequenceDef,
    SumMismatch,
    SumQuery,
    as_rational,
    integer_triple,
    reversed_set_up,
    scaled_window,
)


_oracle = None  # tribsum.oracle, once the first literal sum has loaded it


def sum_oracle(seq: SequenceDef, query: SumQuery) -> Fraction:
    """The literal sum, :func:`tribsum.oracle.oracle_sum`: the fallback path,
    and the reference for check=True.  The oracle loads on the first call,
    so a closed-form sum never loads it; oracle_sum is read off the module
    at each call, so a patch of it applies."""
    global _oracle
    if _oracle is None:
        from . import oracle as _oracle
    return _oracle.oracle_sum(seq, query)


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


# FormulaCase by its value, without the Enum's by-value call.
_CASES = {case.value: case for case in FormulaCase}


class SumResult(namedtuple("SumResult", "value case_used")):
    """A sum's exact value, a Fraction, and the FormulaCase it was
    computed by (case_used), OracleFallback where the literal sum gave it."""

    __slots__ = ()


def _gate(condition: str, parity: Parity, r, s, t, o=1):
    """The divisor of *condition*'s clauses at (r, s, t) over o where they
    are proven, else 0: d1 = r+s+t-o (parity ALL) or d1*d2, d2 = r-s+t+o,
    for "generic"; r + t on s = o for "s=1"; s - o on r + t = 0 for
    "r+t=0"; 1 (EVEN) or 2 (ODD) at (0, 2o, o) for "021"; 0 for "oracle".
    Each clause's numerator is homogeneous in (r, s, t, o) of its gate's
    degree; at o = 1 each _CLOSED_FORMS one is the paper's, term for term."""
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


def _dispatch(triple: tuple, query: SumQuery) -> tuple[FormulaCase, int]:
    """(case, its gate) for :func:`select_case`, "generic" first; 0 for the fallback."""
    for condition in ("generic", "021"):
        gate = _gate(condition, query.parity, *triple)
        if gate:
            return _CASES[query.direction, query.parity, condition], gate
    return FormulaCase.OracleFallback, 0


def select_case(params: RecurrenceParams, query: SumQuery) -> FormulaCase:
    """The clause of the one condition, "generic" or "021" (never both), whose
    :func:`_gate` is nonzero, else the oracle fallback.  The S1 and RplusT0
    clauses specialize the generic ones and are never dispatched to."""
    return _dispatch(integer_triple(*params), query)[0]


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
    FormulaCase.Bwd_021_Even: _bwd_021_even,
    FormulaCase.Bwd_021_Odd: _bwd_021_odd,
}

# Backward case -> (V's forward case, its n less the backward n, the V_0,
# V_1, V_2 it drops): W_{-k} = V_{k+2}, so sum_{k=1..n} W_{-k} is
# FwdAll_V(n+2) - V_0 - V_1 - V_2, the even sum FwdEven_V(n+1) - V_0 - V_2
# and the odd one FwdOdd_V(n) - V_1; r + t = 0 is s = 1 on V, and each gate
# on V vanishes with the backward one.  (0, 2, 1) reverses to (-2, 0, 1).
_STEP_BACK = {
    FormulaCase.BwdAll_Generic: (FormulaCase.FwdAll_Generic, 2, (1, 1, 1)),
    FormulaCase.BwdEven_Generic: (FormulaCase.FwdEven_Generic, 1, (1, 0, 1)),
    FormulaCase.BwdOdd_Generic: (FormulaCase.FwdOdd_Generic, 0, (0, 1, 0)),
    FormulaCase.BwdEven_RplusT0: (FormulaCase.FwdEven_S1, 1, (1, 0, 1)),
    FormulaCase.BwdOdd_RplusT0: (FormulaCase.FwdOdd_S1, 0, (0, 1, 0)),
}


def closed_form_value(case: FormulaCase, seq: SequenceDef, n: int,
                      term: TermFn | None = None) -> Fraction:
    """Evaluate a specific closed-form clause directly (no dispatch).

    ValueError where the case's :func:`_gate` is 0, as it always is for
    OracleFallback.  n follows :class:`SumQuery`'s rules.  The clause reads
    one window of three terms, W's or mirrored V's (:func:`_clause`), from
    :func:`~tribsum.core.scaled_window` by default, else from *term*,
    called for exactly those three W indices and returning ints or
    Fractions; :func:`_combine` makes one Fraction of it.

    No code in this package passes *term*.  It stays only for the
    benchmark's traced runs (``tribbench/worker.py``), which time the
    window as three term calls, and goes when they stop doing so."""
    direction, parity, condition = case.value
    p = seq.params
    triple = integer_triple(*p)
    gate = _gate(condition, parity, *triple)
    if not gate:
        raise ValueError(f"{case.name} is not a proven closed form at "
                         f"(r, s, t) = ({p.r}, {p.s}, {p.t})")
    SumQuery(direction, parity, n)  # checks n by the query's rules
    return _combine(case, n, triple, gate, integer_triple(seq.w0, seq.w1, seq.w2), term)


def _clause(case: FormulaCase, n: int, triple: tuple, gate: int, starts: tuple) -> tuple:
    """(rho, kappa, gate, m, triple, starts) for *case* at n and *gate* on W's
    set-up: gate*S(n) = rho . X(m) + kappa . X(0), X(k) = (X_k, X_k+1, X_k+2),
    X the sequence of the set-up returned, W's or for a _STEP_BACK case V's."""
    direction, parity, _ = case.value
    back = None
    if direction is Direction.BACKWARD:
        back = _STEP_BACK.get(case)
        if back is None:  # the (0, 2, 1) clauses, whose window starts at m = -2n - 1
            return (*_CLOSED_FORMS[case](*triple, n), gate, -2 * n - 1, triple, starts)
        case, shift, (x0, x1, x2) = back  # V's forward clause, less the V_0, V_1, V_2 it drops
        triple, starts = reversed_set_up(triple, starts)  # at t = 0, NegativeIndexWithZeroT
        gate = _gate(case.value[2], parity, *triple)
        n += shift
    rho, kappa = _CLOSED_FORMS[case](*triple, n)
    if back is not None:
        kappa = kappa[0] - gate * x0, kappa[1] - gate * x1, kappa[2] - gate * x2
    m = n + 1 if parity is Parity.ALL else 2 * n  # a forward window, on W or on V
    return rho, kappa, gate, m, triple, starts


def _combine(case: FormulaCase, n: int, triple: tuple, gate: int, starts: tuple,
             term: TermFn | None = None) -> Fraction:
    """:func:`closed_form_value` past its checks of *case* and n, on the
    ints of :func:`~tribsum.core.integer_triple`, (R, S, T, L) and
    (u0, u1, u2, d), where *gate* is nonzero.  On :func:`_clause`'s
    set-up the window is X_{m+j} = n_j / (d*e): the kernel's,
    e = q^(|m|+2), or *term*'s, e the lcm of its denominators.  The sum is
    rho . (n0, n1, n2) + (kappa . u)*e, one bignum product, over gate*d*e."""
    rho, (k0, k1, k2), gate, m, triple, starts = _clause(case, n, triple, gate, starts)
    u0, u1, u2, d = starts
    if term is None:
        value, e = scaled_window(triple, starts, m, rho)
    else:  # V_m, V_m+1, V_m+2 are W_{2-m}, W_{1-m}, W_{-m}
        indices = range(2 - m, -1 - m, -1) if case in _STEP_BACK else range(m, m + 3)
        window = [as_rational(term(k)) for k in indices]
        e = math.lcm(*(v.denominator for v in window))
        n0, n1, n2 = (d * v.numerator * (e // v.denominator) for v in window)
        value = rho[0] * n0 + rho[1] * n1 + rho[2] * n2
    return Fraction(value + (k0 * u0 + k1 * u1 + k2 * u2) * e, gate * d * e)


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
    triple = integer_triple(*seq.params)
    case, gate = _dispatch(triple, query)
    if not gate:
        return SumResult(sum_oracle(seq, query), case)
    value = _combine(case, query.n, triple, gate, integer_triple(seq.w0, seq.w1, seq.w2))
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
