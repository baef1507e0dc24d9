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
backward sum steps back to a forward one of V_j = W_{2-j}.

Each family and each clause has one row, built once at import: a family's,
found by its direction's and parity's values, names the clauses dispatch
tries, and a clause's, found by its case's name, holds its gate, its form,
the window its form reads and, for a backward clause that steps back, V's
forward clause and the start terms it drops.  So no query hashes an enum
member or reads its ``.value``.  A gate is its clause's divisor where the
clause is proven and 0 everywhere else; at most one of a family's "generic"
and "021" gates is nonzero, and dispatch and :func:`closed_form_value` test
it once per sum.

A clause's form returns integer coefficient triples (rho, kappa),
polynomials in (r, s, t, o, n) homogeneous in (r, s, t, o), on a window and
on the start terms of W, or of V for a clause that steps back.  :func:`_clause`
states each as one identity on W, gate*S(n) = rho . W(m) + kappa . W(0), as
V(k) is W(-k) reversed.  There is one combine.  A sum reads its six rationals
once, in the integer set-up of :mod:`tribsum.core`: (R, S, T, L) =
L*(r, s, t, 1) and u = d*(W_0, W_1, W_2).  It calls its clause once, takes
rho . D*W(m) from :func:`~tribsum.core.scaled_window` (or from a caller's
term function), D = d*q^(|m|+2), adds kappa . D*W(0) as (kappa . u)*q^(|m|+2)
and builds one Fraction.
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


class SumResult(namedtuple("SumResult", "value case_used")):
    """A sum's exact value, a Fraction, and the FormulaCase it was
    computed by (case_used), OracleFallback where the literal sum gave it."""

    __slots__ = ()


# Each clause's gate: its divisor at (r, s, t) over o where it is proven,
# else 0.  Each clause's numerator is homogeneous in (r, s, t, o) of its
# gate's degree; at o = 1 each clause's form is the paper's, term for term.
def _d1(r, s, t, o=1):  # the generic all-index clauses
    return r + s + t - o


def _d1_d2(r, s, t, o=1):  # the generic even and odd clauses
    return (r + s + t - o) * (r - s + t + o)


def _on_s1(r, s, t, o=1):
    return r + t if s == o else 0


def _on_r_plus_t0(r, s, t, o=1):
    return s - o if r + t == 0 else 0


def _at_021_even(r, s, t, o=1):
    return 1 if (r, s, t) == (0, 2 * o, o) else 0


def _at_021_odd(r, s, t, o=1):
    return 2 if (r, s, t) == (0, 2 * o, o) else 0


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


# A clause's row: its case; its gate; form, its (rho, kappa) at (R, S, T, L)
# and n; the window m = stride*n + offset that form reads; and back, for a
# backward clause that steps back, (V's forward clause by name, its n less
# the backward n, the V_0, V_1, V_2 it drops), else None.
_Clause = namedtuple("_Clause", "case gate form stride offset back", defaults=(None, 0, 0, None))

# Each clause's row by its case's name.  A numerator is rho . D*(X_m,
# X_m+1, X_m+2) + kappa . D*(X_0, X_1, X_2), D the window's common
# denominator.  W_{-k} = V_{k+2}, so sum_{k=1..n} W_{-k} is
# FwdAll_V(n+2) - V_0 - V_1 - V_2, the even sum FwdEven_V(n+1) - V_0 - V_2
# and the odd one FwdOdd_V(n) - V_1; r + t = 0 is s = 1 on V, and each gate
# on V vanishes with the backward one.  (0, 2, 1) reverses to (-2, 0, 1).
_CLAUSES = {row.case.name: row for row in (
    _Clause(FormulaCase.FwdAll_Generic, _d1, _fwd_all_generic, 1, 1),
    _Clause(FormulaCase.FwdEven_Generic, _d1_d2, _fwd_even_generic, 2, 0),
    _Clause(FormulaCase.FwdOdd_Generic, _d1_d2, _fwd_odd_generic, 2, 0),
    _Clause(FormulaCase.FwdEven_S1, _on_s1, _fwd_even_s1, 2, 0),
    _Clause(FormulaCase.FwdOdd_S1, _on_s1, _fwd_odd_s1, 2, 0),
    _Clause(FormulaCase.Fwd_021_Even, _at_021_even, _fwd_021_even, 2, 0),
    _Clause(FormulaCase.Fwd_021_Odd, _at_021_odd, _fwd_021_odd, 2, 0),
    _Clause(FormulaCase.Bwd_021_Even, _at_021_even, _bwd_021_even, -2, -1),
    _Clause(FormulaCase.Bwd_021_Odd, _at_021_odd, _bwd_021_odd, -2, -1),
    _Clause(FormulaCase.BwdAll_Generic, _d1, back=("FwdAll_Generic", 2, (1, 1, 1))),
    _Clause(FormulaCase.BwdEven_Generic, _d1_d2, back=("FwdEven_Generic", 1, (1, 0, 1))),
    _Clause(FormulaCase.BwdOdd_Generic, _d1_d2, back=("FwdOdd_Generic", 0, (0, 1, 0))),
    _Clause(FormulaCase.BwdEven_RplusT0, _on_r_plus_t0, back=("FwdEven_S1", 1, (1, 0, 1))),
    _Clause(FormulaCase.BwdOdd_RplusT0, _on_r_plus_t0, back=("FwdOdd_S1", 0, (0, 1, 0))),
    _Clause(FormulaCase.OracleFallback, lambda r, s, t, o=1: 0),  # no clause is proven
)}
_FALLBACK = _CLAUSES["OracleFallback"]

# The clauses dispatch tries for each sum family, "generic" first, by its
# direction's and parity's values.  What each family sums is the oracle's
# own table.
_FAMILIES = {
    ("fwd", "all"): ("FwdAll_Generic",),
    ("fwd", "even"): ("FwdEven_Generic", "Fwd_021_Even"),
    ("fwd", "odd"): ("FwdOdd_Generic", "Fwd_021_Odd"),
    ("bwd", "all"): ("BwdAll_Generic",),
    ("bwd", "even"): ("BwdEven_Generic", "Bwd_021_Even"),
    ("bwd", "odd"): ("BwdOdd_Generic", "Bwd_021_Odd"),
}


def _dispatch(triple: tuple, query: SumQuery) -> _Clause:
    """The first clause row of the query's family whose gate is nonzero,
    else the fallback's.  ``_value_``, unlike ``.value``, runs no code in
    enum.py."""
    for name in _FAMILIES[query.direction._value_, query.parity._value_]:
        clause = _CLAUSES[name]
        if clause.gate(*triple):
            return clause
    return _FALLBACK


def select_case(params: RecurrenceParams, query: SumQuery) -> FormulaCase:
    """The clause of the one condition, "generic" or "021" (never both), whose
    row's gate is nonzero, else the oracle fallback.  The S1 and RplusT0
    clauses specialize the generic ones and are never dispatched to."""
    return _dispatch(integer_triple(*params), query).case


def closed_form_value(case: FormulaCase, seq: SequenceDef, n: int,
                      term: TermFn | None = None) -> Fraction:
    """Evaluate a specific closed-form clause directly (no dispatch).

    ValueError where the gate in the case's row is 0, as it always is for
    OracleFallback.  n follows :class:`SumQuery`'s rules.  The clause's
    identity on W (:func:`_clause`) reads W_m, W_m+1 and W_m+2 from
    :func:`~tribsum.core.scaled_window` by default, else from *term*, called
    for exactly those indices, in that order, returning ints or Fractions;
    :func:`_combine` makes one Fraction of it.

    No code in this package passes *term*.  It stays only for the
    benchmark's traced runs (``tribbench/worker.py``), which time the
    window as three term calls, and goes when they stop doing so."""
    direction, parity, _ = case.value  # off the query path; a non-case raises here
    clause = _CLAUSES[case._name_]
    p = seq.params
    triple = integer_triple(*p)
    if not clause.gate(*triple):
        raise ValueError(f"{case.name} is not a proven closed form at "
                         f"(r, s, t) = ({p.r}, {p.s}, {p.t})")
    SumQuery(direction, parity, n)  # checks n by the query's rules
    return _combine(clause, n, triple, integer_triple(seq.w0, seq.w1, seq.w2), term)


def _clause(clause: _Clause, n: int, triple: tuple) -> tuple:
    """(rho, kappa, gate, m) for *clause* at n on W's set-up *triple*:
    gate*S(n) = rho . W(m) + kappa . W(0), W(k) = (W_k, W_k+1, W_k+2), also
    for a clause that steps back, whose V(k) is W(-k) reversed."""
    back = clause.back
    if back is None:
        rho, kappa = clause.form(*triple, n)
        return rho, kappa, clause.gate(*triple), clause.stride * n + clause.offset
    name, shift, (x0, x1, x2) = back
    clause, n = _CLAUSES[name], n + shift  # V's forward clause, less the V_0, V_1, V_2 it drops
    triple = reversed_set_up(triple)  # at t = 0, NegativeIndexWithZeroT
    gate = clause.gate(*triple)
    rho, (k0, k1, k2) = clause.form(*triple, n)
    return (rho[::-1], (k2 - gate * x2, k1 - gate * x1, k0 - gate * x0), gate,
            -clause.stride * n - clause.offset)


def _combine(clause: _Clause, n: int, triple: tuple, starts: tuple,
             term: TermFn | None = None) -> Fraction:
    """:func:`closed_form_value` past its checks of the clause and n, on the
    ints of :func:`~tribsum.core.integer_triple`, (R, S, T, L) and
    (u0, u1, u2, d).  The window of :func:`_clause`'s identity is
    W_{m+j} = n_j / (d*e): the kernel's, e = q^(|m|+2), or *term*'s, e the
    lcm of its denominators.  The sum is rho . (n0, n1, n2) +
    (kappa . u)*e, one bignum product, over gate*d*e."""
    rho, (k0, k1, k2), gate, m = _clause(clause, n, triple)
    u0, u1, u2, d = starts
    if term is None:
        value, e = scaled_window(triple, starts, m, rho)
    else:
        window = [as_rational(term(k)) for k in range(m, m + 3)]
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
    clause = _dispatch(triple, query)
    if clause is _FALLBACK:
        return SumResult(sum_oracle(seq, query), clause.case)
    value = _combine(clause, query.n, triple, integer_triple(seq.w0, seq.w1, seq.w2))
    if check:
        expected = sum_oracle(seq, query)
        if value != expected:
            raise SumMismatch(
                f"{clause.case.name} gave {_brief(value)}, literal sum is "
                f"{_brief(expected)} for {seq.name or seq.params} {query}")
    return SumResult(value, clause.case)


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
