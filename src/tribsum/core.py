"""Exact evaluation of third-order linear recurrences at any signed index.

A sequence is defined by W_n = r*W_{n-1} + s*W_{n-2} + t*W_{n-3} with
initial terms W_0, W_1, W_2.  When t != 0 the recurrence runs backward as
well: W_{-m} = -(s/t)*W_{-(m-1)} - (r/t)*W_{-(m-2)} + (1/t)*W_{-(m-3)}.

All arithmetic is exact over the rationals (``fractions.Fraction``); there
are no floating-point code paths.  The kernel, :func:`window`, returns
(W_m, W_{m+1}, W_{m+2}) from x^|m| modulo the characteristic polynomial
x^3 - r*x^2 - s*x - t, or for m < 0 modulo that of the reversed
recurrence (-s/t, -r/t, 1/t).  It scales y = q*x, with q the common
denominator of that triple, so its O(log |m|) polynomial steps (squares
and shifts by y) run on three int coefficients, and it divides once per
term at the end.  The O(|n|) literal walk it is checked against lives in
:mod:`tribsum.oracle`.  The sum-query types live here too, so that both
the closed forms and the literal oracle can depend on them without
depending on each other.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

RationalLike = Union[Fraction, int, str]


class NegativeIndexWithZeroT(ValueError):
    """A negative index was requested but t = 0, so no backward step exists."""


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, string ("p" or "p/q") or Fraction to an exact Fraction.

    Decimal-point and float inputs are rejected: exactness is a hard
    requirement everywhere in this package.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if "." in value or "e" in value.lower():
            raise ValueError(f"not an exact rational literal: {value!r}")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p" when the denominator is 1, else "p/q"."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class RecurrenceParams:
    """The coefficient triple (r, s, t) of the recurrence."""

    r: Fraction
    s: Fraction
    t: Fraction

    def __post_init__(self) -> None:
        for attr in ("r", "s", "t"):
            object.__setattr__(self, attr, as_rational(getattr(self, attr)))


@dataclass(frozen=True)
class SequenceDef:
    """A recurrence plus its three initial terms and optional metadata."""

    params: RecurrenceParams
    w0: Fraction
    w1: Fraction
    w2: Fraction
    name: Optional[str] = None

    def __post_init__(self) -> None:
        for attr in ("w0", "w1", "w2"):
            object.__setattr__(self, attr, as_rational(getattr(self, attr)))

    @classmethod
    def of(
        cls,
        r: RationalLike,
        s: RationalLike,
        t: RationalLike,
        w0: RationalLike,
        w1: RationalLike,
        w2: RationalLike,
        name: Optional[str] = None,
    ) -> "SequenceDef":
        return cls(RecurrenceParams(r, s, t), w0, w1, w2, name)


def _require_int(value: object, what: str) -> None:
    """Raise TypeError unless *value* is an int (bool is not accepted)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, not {value!r}")


class Direction(enum.Enum):
    FORWARD = "fwd"
    BACKWARD = "bwd"


class Parity(enum.Enum):
    ALL = "all"
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class SumQuery:
    """Which sum is requested: direction x parity x bound n."""

    direction: Direction
    parity: Parity
    n: int

    def __post_init__(self) -> None:
        _require_int(self.n, "the bound n")
        if self.direction is Direction.BACKWARD:
            if self.n < 1:
                raise ValueError("backward sums start at k = 1; need n >= 1")
        elif self.n < 0:
            raise ValueError("forward sums need n >= 0")


def query_indices(query: SumQuery) -> list[int]:
    """The term indices the query sums over, in summation order."""
    if query.direction is Direction.FORWARD:
        if query.parity is Parity.ALL:
            return list(range(query.n + 1))
        if query.parity is Parity.EVEN:
            return [2 * k for k in range(query.n + 1)]
        return [2 * k + 1 for k in range(query.n + 1)]
    if query.parity is Parity.ALL:
        return [-k for k in range(1, query.n + 1)]
    if query.parity is Parity.EVEN:
        return [-2 * k for k in range(1, query.n + 1)]
    return [-2 * k + 1 for k in range(1, query.n + 1)]


Row = tuple[Fraction, Fraction, Fraction]
IntRow = tuple[int, int, int]


@dataclass
class MultiplicationCounter:
    """Counts the polynomial steps of :func:`window` (each square or shift
    by y is one tick) and its final combine, for cost assertions."""

    count: int = field(default=0)

    def tick(self) -> None:
        self.count += 1


def _sqr_mod(a: IntRow, coeffs: IntRow,
             counter: Optional[MultiplicationCounter]) -> IntRow:
    """(a0 + a1*y + a2*y^2)^2 mod y^3 - R*y^2 - S*y - T, from six
    coefficient products.

    *coeffs* is the integer triple (R, S, T) of the scaled polynomial (see
    :func:`window`); all coefficients are ints, so no step pays a gcd.
    """
    if counter is not None:
        counter.tick()
    a0, a1, a2 = a
    R, S, T = coeffs
    p4 = a2 * a2
    # y^4 = R*y^3 + S*y^2 + T*y, then y^3 = R*y^2 + S*y + T.
    p3 = ((a1 * a2) << 1) + R * p4
    return (a0 * a0 + T * p3,
            ((a0 * a1) << 1) + T * p4 + S * p3,
            ((a0 * a2) << 1) + a1 * a1 + S * p4 + R * p3)


def _shift_mod(a: IntRow, coeffs: IntRow,
               counter: Optional[MultiplicationCounter]) -> IntRow:
    """(a0 + a1*y + a2*y^2) * y mod y^3 - R*y^2 - S*y - T, in linear time."""
    if counter is not None:
        counter.tick()
    a0, a1, a2 = a
    R, S, T = coeffs
    return T * a2, a0 + S * a2, a1 + R * a2


def window(seq: SequenceDef, m: int,
           counter: Optional[MultiplicationCounter] = None) -> Row:
    """Return (W_m, W_{m+1}, W_{m+2}) from one polynomial power on ints.

    The shift W_k -> W_{k+1} satisfies the characteristic polynomial
    x^3 - r*x^2 - s*x - t, so with x^k = c0 + c1*x + c2*x^2 modulo it,
    W_{k+j} = c0*W_j + c1*W_{j+1} + c2*W_{j+2} (Cayley-Hamilton; Fiduccia
    1985).  With q the least common denominator of r, s and t, y = q*x
    satisfies y^3 - R*y^2 - S*y - T with integers R = r*q, S = s*q^2 and
    T = t*q^3, so y^k is raised on int coefficients, x^k is y^k / q^k, and
    each term is one integer combination and one division.  For m < 0
    (which needs t != 0) the same forward power runs on the reversed
    sequence V_j = W_{2-j}, which follows (-s/t, -r/t, 1/t) from
    (W_2, W_1, W_0) with its own q: (V_k, V_{k+1}, V_{k+2}) at k = -m is
    the window reversed.  Each bit of |m| after the leading one costs a
    square (six products) and each set bit a linear-time shift by y.
    That is at most 2*(bits(|m|) - 1) ticks plus one for the combine.
    """
    _require_int(m, "the index m")
    if m == 0:
        return seq.w0, seq.w1, seq.w2
    r, s, t = seq.params.r, seq.params.s, seq.params.t
    w0, w1, w2 = seq.w0, seq.w1, seq.w2
    k = abs(m)
    if m < 0:
        if t == 0:
            raise NegativeIndexWithZeroT(
                f"W_{m} undefined: x has no inverse modulo the characteristic "
                f"polynomial when t = 0")
        r, s, t = -s / t, -r / t, 1 / t
        w0, w2 = w2, w0
    q = math.lcm(r.denominator, s.denominator, t.denominator)
    coeffs = R, S, T = (r.numerator * (q // r.denominator),
                        s.numerator * (q // s.denominator) * q,
                        t.numerator * (q // t.denominator) * q * q)
    c = (0, 1, 0)
    for bit in bin(k)[3:]:
        c = _sqr_mod(c, coeffs, counter)
        if bit == "1":
            c = _shift_mod(c, coeffs, counter)
    if counter is not None:
        counter.tick()
    # u_j = d*q^j*W_j are integers with u_j = R*u_{j-1} + S*u_{j-2} +
    # T*u_{j-3}, so a0*u_j + a1*u_{j+1} + a2*u_{j+2} is d*q^(k+j)*W_{k+j}.
    d = math.lcm(w0.denominator, w1.denominator, w2.denominator)
    u0 = w0.numerator * (d // w0.denominator)
    u1 = w1.numerator * (d // w1.denominator) * q
    u2 = w2.numerator * (d // w2.denominator) * q * q
    u3 = R * u2 + S * u1 + T * u0
    u4 = R * u3 + S * u2 + T * u1
    a0, a1, a2 = c
    den = d * q ** k
    terms = (Fraction(a0 * u0 + a1 * u1 + a2 * u2, den),
             Fraction(a0 * u1 + a1 * u2 + a2 * u3, den * q),
             Fraction(a0 * u2 + a1 * u3 + a2 * u4, den * q * q))
    return terms if m > 0 else terms[::-1]


def term_matrix(seq: SequenceDef, n: int,
                counter: Optional[MultiplicationCounter] = None) -> Fraction:
    """Return W_n, the first term of ``window(seq, n)``.

    Exactly equal to the literal walk ``oracle.oracle_term(seq, n)`` on
    every input, with at most 2*ceil(log2(|n| + 1)) + 2 counted squares,
    shifts and combine; negative n walks the reversed recurrence forward.
    """
    return window(seq, n, counter)[0]
