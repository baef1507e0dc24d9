"""The literal reference implementation used as ground truth by every test.

Everything here rests on one walk of the recurrence that holds three live
terms: forward from W_0, and backward as the walk of V_j = W_{2-j} from
V_0 = W_2, counted by V's index as the kernel and the closed forms count
it.  The walk steps on ints: with q the common denominator of the
coefficients and d that of the starting terms, u_k = d*q^k*W_k (or V_k)
follows a recurrence with integer coefficients, and each result is one
division of such an int at the end.
Setting up a walk reads each numerator and denominator once and does no
Fraction arithmetic; going backward, the reversed triple is formed as
fully reduced integer pairs.
Terms, term tables and running prefix sums are read off a plain generator
of the recurrence, and ``tribsum.term_iterative`` is :func:`oracle_term`.
A literal sum runs the walk's one compiled form, a sum loop (at most 256,
one per pattern, stride and scale) that adds the sum's terms as it walks
them.  Its step drops each term whose coefficient is 0 and adds or
subtracts each whose coefficient is +-1, so only other coefficients
multiply: a Tribonacci step is two additions.  The loop is compiled from
one step text per pattern of the three coefficients, each 0, 1, -1 or
other; the text depends on the pattern and on no value, and the
coefficients are its arguments.  This is the package's only O(|n|)
recurrence walk.
A literal sum finds its family's first bound, first walk position and
stride in the oracle's own table, by the query's direction and parity
values, and sets its walk up in straight-line code: it runs no enum code.
Nothing here shares code with the closed forms in :mod:`tribsum.sums` or
with the polynomial-power kernel in :mod:`tribsum.core`, so an agreement
between them is meaningful.
"""

import math
from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import islice

from .core import (Direction, NegativeIndexWithZeroT, Parity, SequenceDef,
                   SumQuery, _require_int)


def _start(seq: SequenceDef, backward: bool) -> tuple[int, int, tuple[int, ...]]:
    """(q, d, (R, S, T, low, mid, high)): the integers a walk steps by and
    its first three scaled terms, W_0, W_1, W_2 forward and V_0, V_1, V_2 =
    W_2, W_1, W_0 backward.

    The j-th term walked, W_j or V_j, is scaled by d*q^j, and each step is
    u_k = R*u_{k-1} + S*u_{k-2} + T*u_{k-3} with R = r*q, S = s*q^2 and
    T = t*q^3.  Backward is the forward walk of the reversed recurrence
    (-s/t, -r/t, 1/t), with its own q; at t = 0 it raises
    NegativeIndexWithZeroT.

    The setup reads each numerator and denominator once, in straight-line
    code, and does no Fraction arithmetic.  The reversed triple is formed as
    fully reduced integer pairs: -s/t is -sn*td / (sd*tn) divided by
    gcd(sn, tn)*gcd(sd, td), and -r/t likewise, so q is the lcm of the true
    denominators.  A denominator may carry t's sign: lcm ignores it, and
    each denominator divides q exactly.
    """
    r, s, t = seq.params
    rn, rd = r.as_integer_ratio()
    sn, sd = s.as_integer_ratio()
    tn, td = t.as_integer_ratio()
    an, ad = seq.w0.as_integer_ratio()
    bn, bd = seq.w1.as_integer_ratio()
    cn, cd = seq.w2.as_integer_ratio()
    if backward:
        if not tn:
            raise NegativeIndexWithZeroT
        gs = math.gcd(sn, tn) * math.gcd(sd, td)
        gr = math.gcd(rn, tn) * math.gcd(rd, td)
        rn, rd, sn, sd, tn, td = (-sn * td // gs, sd * tn // gs,
                                  -rn * td // gr, rd * tn // gr, td, tn)
        an, ad, cn, cd = cn, cd, an, ad
    q = math.lcm(rd, sd, td)
    d = math.lcm(ad, bd, cd)
    return q, d, (rn * (q // rd), sn * (q * q // sd), tn * (q**3 // td),
                  an * (d // ad), bn * (d // bd) * q, cn * (d // cd) * q * q)


def _walk(seq: SequenceDef, backward: bool) -> tuple[int, int, Iterator[int]]:
    """(q, d, ints) where the j-th int is d*q^j times the j-th term walked:
    W_j forward, V_j = W_{2-j} backward, without end.

    The ints come from one plain generator of the recurrence holding three
    live terms, and a reader divides once per result it returns.
    """
    q, d, start = _start(seq, backward)
    return q, d, _steps(*start)


# A step's term for each class of coefficient: 0 drops it, +-1 adds or
# subtracts it, and any other value (None) multiplies.
_TERM = {0: "", 1: " + {v}", -1: " - {v}", None: " + {c} * {v}"}
# One sum loop per pattern of classes (at most 4^3 = 64), stride (1 or 2)
# and scale, so at most 256.
_SUMS: dict = {}


def _pattern(R: int, S: int, T: int) -> tuple:
    """Each coefficient's class: 0, 1, -1, or None for any other value."""
    return (R if -1 <= R <= 1 else None, S if -1 <= S <= 1 else None,
            T if -1 <= T <= 1 else None)


def _step(pattern: tuple, high: str, mid: str, low: str) -> str:
    """The text of one step's new term from the live terms named *high*,
    *mid* and *low* (newest first).  It is made from the fixed fragments in
    _TERM and depends on no value: the coefficients are named R, S, T."""
    terms = [_TERM[k].format(c=c, v=v)
             for k, c, v in zip(pattern, "RST", (high, mid, low))]
    # Added terms first: a step that starts with a subtraction would negate
    # a bignum on its own.
    terms.sort(key=lambda term: term.startswith(" -"))
    return "".join(terms).lstrip(" +") or "0"


def _define(text: str) -> Callable:
    """The one function *text* defines, with no builtins in reach."""
    namespace: dict = {"__builtins__": {}}
    exec(text, namespace)
    return namespace.popitem()[1]


def _steps(R: int, S: int, T: int, low: int, mid: int, high: int) -> Iterator[int]:
    """low, mid, high, then u_k = R*u_{k-1} + S*u_{k-2} + T*u_{k-3} without
    end."""
    while True:
        yield low
        low, mid, high = mid, high, R * high + S * mid + T * low


def _compile_sum(pattern: tuple, stride: int, horner: bool) -> Callable[..., int]:
    """The sum loop for one pattern, stride and scale.

    loop(R, S, T, low, mid, high, skip, count, Q) walks *skip* steps, then
    adds the live oldest term and every stride-th term after it, *count*
    terms in all: in place (total += u), or by Horner in Q (total =
    total*Q + u) where the scale grows.  Each step writes its new term over
    the oldest of three names, so the names take their roles back every
    three steps, and a turn of six steps adds 6 // stride terms with no
    tuple and no generator.  The loop runs whole turns while more than a
    turn's terms are left, then one turn that returns after the last term.
    It counts with its arguments, so it names nothing else.
    """
    add = "total = total * Q + {}" if horner else "total += {}"
    per_turn = 6 // stride
    turn, tail = [], []
    for k in range(6):
        low, mid, high = "abcab"[k % 3:k % 3 + 3]
        if k % stride == 0:
            turn.append(add.format(low))
            tail += [turn[-1], f"if count == {k // stride + 1}: return total"]
        turn.append(f"{low} = {_step(pattern, high, mid, low)}")
        tail.append(turn[-1])
    # The last turn has at most per_turn terms left, so it ends at the last.
    tail[tail.index(f"if count == {per_turn}: return total"):] = ["return total"]
    return _define(
        "def loop(R, S, T, a, b, c, skip, count, Q):\n"
        "    while skip:\n"
        f"        a, b, c = b, c, {_step(pattern, 'c', 'b', 'a')}\n"
        "        skip -= 1\n"
        "    total = 0\n"
        f"    while count > {per_turn}:\n"
        + "".join(f"        {line}\n" for line in turn)
        + f"        count -= {per_turn}\n"
        + "".join(f"    {line}\n" for line in tail))


def _terms(seq: SequenceDef, backward: bool, start: int, count: int) -> Iterator[Fraction]:
    """The *count* terms walked from position *start* on: W_start, W_{start+1},
    ... forward and W_{2-start}, W_{1-start}, ... backward."""
    q, den, ints = _walk(seq, backward)
    den *= q**start
    for u in islice(ints, start, start + count):
        yield Fraction(u, den)
        den *= q


def oracle_term(seq: SequenceDef, n: int) -> Fraction:
    """W_n, reached by walking from the initial terms."""
    _require_int(n, "the index n")
    return next(_terms(seq, n < 0, 2 - n if n < 0 else n, 1))


term_iterative = oracle_term


def term_table(seq: SequenceDef, lo: int, hi: int) -> dict[int, Fraction]:
    """W_0 .. W_hi and W_{-1} .. W_lo by index, walked once each way."""
    table = dict(enumerate(_terms(seq, False, 0, max(hi + 1, 0))))
    if lo < 0:
        table.update(zip(range(-1, lo - 1, -1), _terms(seq, True, 3, -lo)))
    return table


# Each sum family's (first bound n, walk position of the first term added,
# stride), by its direction's and parity's values: only backward sums start
# at n = 1.  W_k sits at walk position k forward and 2 - k backward.  The
# only such table: tribsum.sums' family rows name only their clauses.
_FAMILIES = {("fwd", "all"): (0, 0, 1), ("fwd", "even"): (0, 0, 2), ("fwd", "odd"): (0, 1, 2),
             ("bwd", "all"): (1, 3, 1), ("bwd", "even"): (1, 4, 2), ("bwd", "odd"): (1, 3, 2)}


def prefix_sums(seq: SequenceDef, direction: Direction, parity: Parity,
                max_n: int) -> Iterator[tuple[int, Fraction]]:
    """(n, literal sum) for every bound n <= max_n of one sum family.

    The terms the family adds are taken from a single walk, in the order
    the sums grow, and added one at a time as scaled ints; each yielded
    sum is one division.
    """
    first, start, stride = _FAMILIES[direction._value_, parity._value_]
    q, den, ints = _walk(seq, first)  # first is 1 exactly going back
    q_step, den = q**stride, den * q**start
    total = 0
    for n, u in zip(range(first, max_n + 1), islice(ints, start, None, stride)):
        total = total * q_step + u
        yield n, Fraction(total, den)
        den *= q_step


def oracle_sum(seq: SequenceDef, query: SumQuery) -> Fraction:
    """The literal sum of the terms selected by *query*, added one by one.

    One sum loop, compiled for the pattern of the walk's coefficients, the
    family's stride and the scale, walks the terms and adds each one it
    selects as a scaled int: in place where q is 1 and the scale never
    grows (every integer triple going forward), and by Horner in q^stride
    otherwise, so all share the last term's scale.  The total is divided
    once at the end.
    """
    direction, parity, n = query
    first, start, stride = _FAMILIES[direction._value_, parity._value_]
    q, d, walk = _start(seq, first)  # first is 1 exactly going back
    count = n + 1 - first
    key = (_pattern(*walk[:3]), stride, q != 1)
    loop = _SUMS.get(key)
    if loop is None:
        loop = _SUMS[key] = _compile_sum(*key)
    Q = q**stride
    return Fraction(loop(*walk, start, count, Q), d * q**start * Q**(count - 1))
