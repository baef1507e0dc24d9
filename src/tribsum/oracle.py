"""The literal reference implementation used as ground truth by every test.

Everything here rests on one streaming walk of the recurrence, forward from
W_0 or backward from W_{-1}, that holds three live terms.  The walk steps on
ints: with q the common denominator of the coefficients and d that of the
starting terms, u_k = d*q^k*W_k follows a recurrence with integer
coefficients, and each result is one division of such an int at the end.
Setting up a walk reads each numerator and denominator once and does no
Fraction arithmetic; going backward, the reversed triple is formed as
fully reduced integer pairs.
A step drops each term whose coefficient is 0 and adds or subtracts each
whose coefficient is +-1, so only other coefficients multiply: a Tribonacci
step is two additions.  The walk is compiled once per pattern of the three
coefficients, each 0, 1, -1 or other (at most 64 walks); its text depends
on the pattern and on no value, and the coefficients are its arguments.
It is the package's only O(|n|) recurrence walk: terms, term tables,
literal sums and running prefix sums are all read off it, and
``tribsum.term_iterative`` is :func:`oracle_term`.  Nothing here shares
code with the closed forms in :mod:`tribsum.sums` or with the
polynomial-power kernel in :mod:`tribsum.core`, so an agreement between
them is meaningful.
"""

import math
from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import islice

from .core import (Direction, NegativeIndexWithZeroT, Parity, SequenceDef,
                   SumQuery, _require_int)


def _walk(seq: SequenceDef, direction: Direction) -> tuple[int, int, Iterator[int]]:
    """(q, d, ints) where the j-th int is d*q^j times the j-th term walked:
    W_j forward, W_{-j-1} backward, without end.

    The ints come from one generator holding three live terms, and a reader
    divides once per result it returns.  Each step is
    u_k = R*u_{k-1} + S*u_{k-2} + T*u_{k-3} with the integers R = r*q,
    S = s*q^2 and T = t*q^3.  Backward is the forward walk of the reversed
    recurrence (-s/t, -r/t, 1/t) from (W_2, W_1, W_0), with its own q, past
    its first three terms; at t = 0 it raises NegativeIndexWithZeroT.

    The setup reads each numerator and denominator once and does no
    Fraction arithmetic.  The reversed triple is formed as fully reduced
    integer pairs: -s/t is -sn*td / (sd*tn) divided by
    gcd(sn, tn)*gcd(sd, td), and -r/t likewise, so q is the lcm of the true
    denominators.  A denominator may carry t's sign: lcm ignores it, and
    each denominator divides q exactly.
    """
    (rn, rd), (sn, sd), (tn, td) = (c.as_integer_ratio() for c in seq.params)
    starts = (seq.w0, seq.w1, seq.w2)
    if direction is Direction.BACKWARD:
        if not tn:
            raise NegativeIndexWithZeroT
        gs = math.gcd(sn, tn) * math.gcd(sd, td)
        gr = math.gcd(rn, tn) * math.gcd(rd, td)
        rn, rd, sn, sd, tn, td = (-sn * td // gs, sd * tn // gs,
                                  -rn * td // gr, rd * tn // gr, td, tn)
        starts = starts[::-1]
    q = math.lcm(rd, sd, td)
    (an, ad), (bn, bd), (cn, cd) = (w.as_integer_ratio() for w in starts)
    d = math.lcm(ad, bd, cd)
    ints = _steps(rn * (q // rd), sn * (q * q // sd), tn * (q**3 // td),
                  an * (d // ad), bn * (d // bd) * q, cn * (d // cd) * q * q)
    if direction is Direction.FORWARD:
        return q, d, ints
    return q, d * q**3, islice(ints, 3, None)


# A step's term for each class of coefficient: 0 drops it, +-1 adds or
# subtracts it, and any other value (None) multiplies.
_TERM = {0: "", 1: " + {v}", -1: " - {v}", None: " + {c} * {v}"}
# One compiled walk per pattern of classes, so at most 4^3 = 64.
_WALKS: dict = {}


def _compile(pattern: tuple) -> Callable[..., Iterator[int]]:
    """The walk for one pattern.  Its text is made from the fixed fragments
    in _TERM and depends on no value: the coefficients are its arguments."""
    terms = [_TERM[k].format(c=c, v=v)
             for k, c, v in zip(pattern, "RST", ("high", "mid", "low"))]
    # Added terms first: a step that starts with a subtraction would negate
    # a bignum on its own.
    terms.sort(key=lambda term: term.startswith(" -"))
    step = "".join(terms).lstrip(" +") or "0"
    namespace: dict = {"__builtins__": {}}
    exec("def walk(R, S, T, low, mid, high):\n"
         "    while True:\n"
         "        yield low\n"
         f"        low, mid, high = mid, high, {step}\n", namespace)
    return namespace["walk"]


def _steps(R: int, S: int, T: int, low: int, mid: int, high: int) -> Iterator[int]:
    """low, mid, high, then u_k = R*u_{k-1} + S*u_{k-2} + T*u_{k-3} without
    end, by the walk compiled for the pattern of (R, S, T)."""
    pattern = tuple(c if -1 <= c <= 1 else None for c in (R, S, T))
    walk = _WALKS.get(pattern)
    if walk is None:
        walk = _WALKS[pattern] = _compile(pattern)
    return walk(R, S, T, low, mid, high)


def oracle_term(seq: SequenceDef, n: int) -> Fraction:
    """W_n, reached by walking from the initial terms."""
    _require_int(n, "the index n")
    j = n if n >= 0 else -n - 1
    q, d, ints = _walk(seq, Direction.FORWARD if n >= 0 else Direction.BACKWARD)
    return Fraction(next(islice(ints, j, None)), d * q**j)


term_iterative = oracle_term


def _terms(seq: SequenceDef, direction: Direction, count: int) -> Iterator[Fraction]:
    q, den, ints = _walk(seq, direction)
    for u in islice(ints, count):
        yield Fraction(u, den)
        den *= q


def term_table(seq: SequenceDef, lo: int, hi: int) -> dict[int, Fraction]:
    """W_0 .. W_hi and W_{-1} .. W_lo by index, walked once each way."""
    table = dict(enumerate(_terms(seq, Direction.FORWARD, max(hi + 1, 0))))
    if lo < 0:
        table.update(zip(range(-1, lo - 1, -1), _terms(seq, Direction.BACKWARD, -lo)))
    return table


def _added(seq: SequenceDef, direction: Direction,
           parity: Parity) -> tuple[int, int, int, Iterator[int]]:
    """(first bound n, q^step, d*q^start, the scaled ints of the terms one
    sum family adds, in the order the sums grow)."""
    forward = direction is Direction.FORWARD
    # Walk positions: W_k sits at k going forward and at -k - 1 going back.
    start = int(parity is (Parity.ODD if forward else Parity.EVEN))
    step = 1 if parity is Parity.ALL else 2
    q, d, ints = _walk(seq, direction)
    return 0 if forward else 1, q**step, d * q**start, islice(ints, start, None, step)


def prefix_sums(seq: SequenceDef, direction: Direction, parity: Parity,
                max_n: int) -> Iterator[tuple[int, Fraction]]:
    """(n, literal sum) for every bound n <= max_n of one sum family.

    The terms the family adds are taken from a single walk, in the order
    the sums grow, and added one at a time as scaled ints; each yielded
    sum is one division.
    """
    first, q_step, den, added = _added(seq, direction, parity)
    total = 0
    for n, u in zip(range(first, max_n + 1), added):
        total = total * q_step + u
        yield n, Fraction(total, den)
        den *= q_step


def oracle_sum(seq: SequenceDef, query: SumQuery) -> Fraction:
    """The literal sum of the terms selected by *query*, added one by one.

    The terms are added as scaled ints (Horner in q^step, so all share the
    last term's scale; a plain sum where the scale never grows, as for
    every integer triple going forward) and divided once at the end.
    """
    first, q_step, den, added = _added(seq, query.direction, query.parity)
    count = query.n + 1 - first
    if q_step == 1:
        return Fraction(sum(islice(added, count)), den)
    total = 0
    for u in islice(added, count):
        total = total * q_step + u
    return Fraction(total, den * q_step**(count - 1))
