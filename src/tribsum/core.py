"""Exact evaluation of third-order linear recurrences at any signed index.

A sequence is defined by W_n = r*W_{n-1} + s*W_{n-2} + t*W_{n-3} with
initial terms W_0, W_1, W_2.  When t != 0 the recurrence runs backward as
well: W_{-m} = -(s/t)*W_{-(m-1)} - (r/t)*W_{-(m-2)} + (1/t)*W_{-(m-3)}.

All arithmetic is exact over the rationals (``fractions.Fraction``); there
are no floating-point code paths.  The kernel, :func:`window`, returns
(W_m, W_{m+1}, W_{m+2}) from x^m modulo the characteristic polynomial
x^3 - r*x^2 - s*x - t, three coefficients raised by O(log |m|) polynomial
products; :func:`term_iterative` is an independent O(|n|) walk.  The
sum-query types live here too, so that both the closed forms and the
literal oracle can depend on them without depending on each other.
"""

from __future__ import annotations

import enum
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
        object.__setattr__(self, "r", as_rational(self.r))
        object.__setattr__(self, "s", as_rational(self.s))
        object.__setattr__(self, "t", as_rational(self.t))


@dataclass(frozen=True)
class SequenceDef:
    """A recurrence plus its three initial terms and optional metadata."""

    params: RecurrenceParams
    w0: Fraction
    w1: Fraction
    w2: Fraction
    name: Optional[str] = None
    oeis_id: Optional[str] = None

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
        oeis_id: Optional[str] = None,
    ) -> "SequenceDef":
        return cls(RecurrenceParams(as_rational(r), as_rational(s), as_rational(t)),
                   w0, w1, w2, name, oeis_id)


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


@dataclass
class MultiplicationCounter:
    """Counts polynomial products and window combines for cost assertions."""

    count: int = field(default=0)

    def tick(self) -> None:
        self.count += 1


def term_iterative(seq: SequenceDef, n: int) -> Fraction:
    """Return W_n by sliding-window iteration; O(|n|) time, O(1) live values."""
    _require_int(n, "the index n")
    r, s, t = seq.params.r, seq.params.s, seq.params.t
    # low = W_k, mid = W_{k+1}, high = W_{k+2}, stepping k from 0 toward n
    low, mid, high = seq.w0, seq.w1, seq.w2
    if n >= 0:
        for _ in range(n):
            low, mid, high = mid, high, r * high + s * mid + t * low
        return low
    if t == 0:
        raise NegativeIndexWithZeroT(
            f"W_{n} undefined: backward recurrence requires t != 0")
    for _ in range(-n):
        low, mid, high = (high - r * mid - s * low) / t, low, mid
    return low


def _mul_mod(a: Row, b: Row, params: RecurrenceParams,
             counter: Optional[MultiplicationCounter]) -> Row:
    """(a0 + a1*x + a2*x^2) * (b0 + b1*x + b2*x^2) mod x^3 - r*x^2 - s*x - t."""
    if counter is not None:
        counter.tick()
    a0, a1, a2 = a
    b0, b1, b2 = b
    p0 = a0 * b0
    p1 = a0 * b1 + a1 * b0
    p2 = a0 * b2 + a1 * b1 + a2 * b0
    p3 = a1 * b2 + a2 * b1
    p4 = a2 * b2
    r, s, t = params.r, params.s, params.t
    # x^4 = r*x^3 + s*x^2 + t*x, then x^3 = r*x^2 + s*x + t.
    p3 += r * p4
    return p0 + t * p3, p1 + t * p4 + s * p3, p2 + s * p4 + r * p3


def window(seq: SequenceDef, m: int,
           counter: Optional[MultiplicationCounter] = None) -> Row:
    """Return (W_m, W_{m+1}, W_{m+2}) from one polynomial power.

    The shift W_k -> W_{k+1} satisfies the characteristic polynomial
    x^3 - r*x^2 - s*x - t, so with x^m = c0 + c1*x + c2*x^2 modulo it,
    W_{m+j} = c0*W_j + c1*W_{j+1} + c2*W_{j+2} (Cayley-Hamilton; Fiduccia
    1985).  For m < 0 the base is x^-1 = (x^2 - r*x - s)/t, which needs
    t != 0.  Costs at most 2*(bits(|m|) - 1) products plus one combine.
    """
    _require_int(m, "the index m")
    if m == 0:
        return seq.w0, seq.w1, seq.w2
    params = seq.params
    r, s, t = params.r, params.s, params.t
    if m > 0:
        base = (Fraction(0), Fraction(1), Fraction(0))
    elif t == 0:
        raise NegativeIndexWithZeroT(
            f"W_{m} undefined: x has no inverse modulo the characteristic "
            f"polynomial when t = 0")
    else:
        base = (-s / t, -r / t, 1 / t)
    c = base
    for bit in bin(abs(m))[3:]:
        c = _mul_mod(c, c, params, counter)
        if bit == "1":
            c = _mul_mod(c, base, params, counter)
    if counter is not None:
        counter.tick()
    c0, c1, c2 = c
    w0, w1, w2 = seq.w0, seq.w1, seq.w2
    w3 = r * w2 + s * w1 + t * w0
    w4 = r * w3 + s * w2 + t * w1
    return (c0 * w0 + c1 * w1 + c2 * w2,
            c0 * w1 + c1 * w2 + c2 * w3,
            c0 * w2 + c1 * w3 + c2 * w4)


def term_matrix(seq: SequenceDef, n: int,
                counter: Optional[MultiplicationCounter] = None) -> Fraction:
    """Return W_n, the first term of ``window(seq, n)``.

    Exactly equal to ``term_iterative(seq, n)`` on every input, with at
    most 2*ceil(log2(|n| + 1)) + 2 polynomial products.
    """
    return window(seq, n, counter)[0]
