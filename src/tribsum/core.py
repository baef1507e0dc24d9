"""Exact evaluation of third-order linear recurrences at any signed index.

A sequence is defined by W_n = r*W_{n-1} + s*W_{n-2} + t*W_{n-3} with
initial terms W_0, W_1, W_2.  When t != 0 the recurrence runs backward as
well: W_{-m} = -(s/t)*W_{-(m-1)} - (r/t)*W_{-(m-2)} + (1/t)*W_{-(m-3)}.

All arithmetic is exact over the rationals (``fractions.Fraction``); there
are no floating-point code paths.  The kernel, :func:`window`, returns
(W_m, W_{m+1}, W_{m+2}) from one power of the companion matrix or of its
inverse (O(log |m|) products); :func:`term_iterative` is an independent
O(|n|) walk.  The sum-query types live here too, so that both the closed
forms and the literal oracle can depend on them without depending on
each other.
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
Matrix3 = tuple[Row, Row, Row]


@dataclass(frozen=True)
class CompanionMatrix:
    """The 3x3 companion matrix [[r, s, t], [1, 0, 0], [0, 1, 0]]."""

    rows: Matrix3

    def determinant(self) -> Fraction:
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def companion_matrix(params: RecurrenceParams) -> CompanionMatrix:
    """Build the companion matrix advancing the state (W_{n+2}, W_{n+1}, W_n)."""
    one = Fraction(1)
    zero = Fraction(0)
    return CompanionMatrix((
        (params.r, params.s, params.t),
        (one, zero, zero),
        (zero, one, zero),
    ))


@dataclass
class MultiplicationCounter:
    """Counts matrix-matrix and matrix-vector products for cost assertions."""

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


def _mat_mul(a: Matrix3, b: Matrix3,
             counter: Optional[MultiplicationCounter]) -> Matrix3:
    if counter is not None:
        counter.tick()
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )  # type: ignore[return-value]


def _mat_vec(a: Matrix3, v: Row,
             counter: Optional[MultiplicationCounter]) -> Row:
    if counter is not None:
        counter.tick()
    return tuple(sum(a[i][k] * v[k] for k in range(3)) for i in range(3))  # type: ignore[return-value]


def _mat_pow(m: Matrix3, e: int,
             counter: Optional[MultiplicationCounter]) -> Matrix3:
    """m**e for e >= 1, left-to-right square and multiply.

    Performs at most 2*(bits(e) - 1) matrix products.
    """
    result = m
    for bit in bin(e)[3:]:
        result = _mat_mul(result, result, counter)
        if bit == "1":
            result = _mat_mul(result, m, counter)
    return result


def _inverse_companion(params: RecurrenceParams) -> Matrix3:
    # Closed-form inverse of [[r, s, t], [1, 0, 0], [0, 1, 0]]; exists iff t != 0.
    r, s, t = params.r, params.s, params.t
    one = Fraction(1)
    zero = Fraction(0)
    return (
        (zero, one, zero),
        (zero, zero, one),
        (one / t, -r / t, -s / t),
    )


def window(seq: SequenceDef, m: int,
           counter: Optional[MultiplicationCounter] = None) -> Row:
    """Return (W_m, W_{m+1}, W_{m+2}) from one companion-matrix power.

    The state (W_{k+2}, W_{k+1}, W_k) advances by M, so M**m, or (M^-1)**|m|
    when m < 0 (needs t != 0), maps (W_2, W_1, W_0) to the window at m.
    """
    _require_int(m, "the index m")
    if m == 0:
        return seq.w0, seq.w1, seq.w2
    if m > 0:
        step = companion_matrix(seq.params).rows
    elif seq.params.t == 0:
        raise NegativeIndexWithZeroT(
            f"W_{m} undefined: inverse companion matrix requires t != 0")
    else:
        step = _inverse_companion(seq.params)
    high, mid, low = _mat_vec(_mat_pow(step, abs(m), counter),
                              (seq.w2, seq.w1, seq.w0), counter)
    return low, mid, high


def term_matrix(seq: SequenceDef, n: int,
                counter: Optional[MultiplicationCounter] = None) -> Fraction:
    """Return W_n, the first term of ``window(seq, n)``.

    Exactly equal to ``term_iterative(seq, n)`` on every input, with at
    most 2*ceil(log2(|n| + 1)) + 2 matrix products.
    """
    return window(seq, n, counter)[0]
