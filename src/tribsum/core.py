"""Exact evaluation of third-order linear recurrences at any signed index.

A sequence is defined by W_n = r*W_{n-1} + s*W_{n-2} + t*W_{n-3} with
initial terms W_0, W_1, W_2.  When t != 0 the recurrence runs backward as
well: W_{-m} = -(s/t)*W_{-(m-1)} - (r/t)*W_{-(m-2)} + (1/t)*W_{-(m-3)}.

All arithmetic is exact over the rationals (``fractions.Fraction``); there
are no floating-point code paths.  The kernel, :func:`scaled_window`,
finds (W_m, W_{m+1}, W_{m+2}) from x^|m| modulo the characteristic
polynomial x^3 - r*x^2 - s*x - t, or for m < 0 modulo that of the reversed
recurrence (-s/t, -r/t, 1/t).  It scales y = q*x, with q the common
denominator of that triple, so its O(log |m|) polynomial steps (squares
and shifts by y) run on three int coefficients; a square forms six
products of them up to _FIVE_SQUARE_BITS bits and five bignum squares
above that crossover (see :func:`_sqr_mod`).  It returns three int
numerators over one common denominator: one division per query, made by
:func:`window`, :func:`term_matrix` or the closed-form sum that reads
them.  The O(|n|) literal walk it is checked against lives in
:mod:`tribsum.oracle`.  The sum-query types live here too, so that both
the closed forms and the literal oracle can depend on them without
depending on each other.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Union

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


# The records below are tuples.  NamedTuple forbids defining __new__ in its
# class body, so each one that coerces or checks its fields subclasses one.
_Params = NamedTuple("_Params", [("r", Fraction), ("s", Fraction), ("t", Fraction)])


class RecurrenceParams(_Params):
    """The coefficient triple (r, s, t) of the recurrence."""

    __slots__ = ()

    def __new__(cls, r: RationalLike, s: RationalLike, t: RationalLike) -> "RecurrenceParams":
        return super().__new__(cls, as_rational(r), as_rational(s), as_rational(t))


_Sequence = NamedTuple("_Sequence", [("params", RecurrenceParams), ("w0", Fraction),
                                     ("w1", Fraction), ("w2", Fraction), ("name", Optional[str])])


class SequenceDef(_Sequence):
    """A recurrence plus its three initial terms and optional metadata."""

    __slots__ = ()

    def __new__(cls, params: RecurrenceParams, w0: RationalLike, w1: RationalLike,
                w2: RationalLike, name: Optional[str] = None) -> "SequenceDef":
        return super().__new__(cls, params, *map(as_rational, (w0, w1, w2)), name)

    @classmethod
    def of(cls, r: RationalLike, s: RationalLike, t: RationalLike, w0: RationalLike,
           w1: RationalLike, w2: RationalLike, name: Optional[str] = None) -> "SequenceDef":
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


_Query = NamedTuple("_Query", [("direction", Direction), ("parity", Parity), ("n", int)])


class SumQuery(_Query):
    """Which sum is requested: direction x parity x bound n."""

    __slots__ = ()

    def __new__(cls, direction: Direction, parity: Parity, n: int) -> "SumQuery":
        _require_int(n, "the bound n")
        if direction is Direction.BACKWARD:
            if n < 1:
                raise ValueError("backward sums start at k = 1; need n >= 1")
        elif n < 0:
            raise ValueError("forward sums need n >= 0")
        return super().__new__(cls, direction, parity, n)


def query_indices(query: SumQuery) -> list[int]:
    """The term indices the query sums over, in summation order."""
    step = 1 if query.parity is Parity.ALL else 2
    odd = int(query.parity is Parity.ODD)
    if query.direction is Direction.FORWARD:
        return [step * k + odd for k in range(query.n + 1)]
    return [odd - step * k for k in range(1, query.n + 1)]


IntRow = tuple[int, int, int]


class MultiplicationCounter:
    """Counts the polynomial steps of :func:`scaled_window` (each square or
    shift by y is one tick) and its final combine, for cost assertions."""

    def __init__(self, count: int = 0) -> None:
        self.count = count

    def __repr__(self) -> str:
        return f"MultiplicationCounter(count={self.count!r})"

    def tick(self) -> None:
        self.count += 1


# Bits of a2 above which _sqr_mod squares by five bignum squares instead
# of six products: CPython squares a large int in about half the time of a
# product, but on small operands the linear-time interpolation costs more
# than that saves.  Measured break-even: about 768 bits; 1024 keeps a margin.
_FIVE_SQUARE_BITS = 1024


def _sqr_mod(a: IntRow, coeffs: IntRow,
             counter: Optional[MultiplicationCounter]) -> IntRow:
    """(a0 + a1*y + a2*y^2)^2 mod y^3 - R*y^2 - S*y - T on int
    coefficients, so no step pays a gcd (see :func:`scaled_window`).

    The square p0 + p1*y + ... + p4*y^4 comes from six products while a2
    has at most _FIVE_SQUARE_BITS bits, and above that from five squares,
    its values at y = 0, 1, -1, 2 and infinity, interpolated exactly
    (Toom-3; Brent & Zimmermann, Modern Computer Arithmetic, 1.3.3).
    """
    if counter is not None:
        counter.tick()
    a0, a1, a2 = a
    R, S, T = coeffs
    p4 = a2 * a2
    # y^4 = R*y^3 + S*y^2 + T*y, then y^3 = R*y^2 + S*y + T.  p4 has at most
    # 2 * _FIVE_SQUARE_BITS bits exactly when a2 has at most _FIVE_SQUARE_BITS.
    if p4.bit_length() <= 2 * _FIVE_SQUARE_BITS:
        # Its own return: a reduction shared with the five-square form cost
        # small-operand queries about 2 %.
        p3 = ((a1 * a2) << 1) + R * p4
        return (a0 * a0 + T * p3,
                ((a0 * a1) << 1) + T * p4 + S * p3,
                ((a0 * a2) << 1) + a1 * a1 + S * p4 + R * p3)
    p0 = a0 * a0
    even = a0 + a2
    e_plus, e_minus = (even + a1) ** 2, (even - a1) ** 2
    e2 = (a0 + (a1 << 1) + (a2 << 2)) ** 2
    p2 = ((e_plus + e_minus) >> 1) - p0 - p4  # half-sum: p0 + p2 + p4
    h = (e_plus - e_minus) >> 1               # half-difference: p1 + p3
    # e2 = p0 + 2*p1 + 4*p2 + 8*p3 + 16*p4, and 2*p1 + 8*p3 = 2*h + 6*p3.
    p3 = (e2 - p0 - (p2 << 2) - (p4 << 4) - (h << 1)) // 6
    p1 = h - p3
    p3 += R * p4
    return p0 + T * p3, p1 + T * p4 + S * p3, p2 + S * p4 + R * p3


def _shift_mod(a: IntRow, coeffs: IntRow,
               counter: Optional[MultiplicationCounter]) -> IntRow:
    """(a0 + a1*y + a2*y^2) * y mod y^3 - R*y^2 - S*y - T, in linear time."""
    if counter is not None:
        counter.tick()
    a0, a1, a2 = a
    R, S, T = coeffs
    return T * a2, a0 + S * a2, a1 + R * a2


def scaled_window(seq: SequenceDef, m: int, counter: Optional[MultiplicationCounter] = None
                  ) -> tuple[IntRow, int]:
    """((n0, n1, n2), D) with W_{m+j} = n_j / D, from one polynomial power on
    ints; nothing is divided.

    With x^k = c0 + c1*x + c2*x^2 modulo x^3 - r*x^2 - s*x - t,
    W_{k+j} = c0*W_j + c1*W_{j+1} + c2*W_{j+2} (Cayley-Hamilton; Fiduccia
    1985).  With q the least common denominator of r, s and t, y = q*x
    satisfies y^3 - R*y^2 - S*y - T with ints R = r*q, S = s*q^2, T = t*q^3.
    For m < 0 (t != 0) the same power runs on V_j = W_{2-j}, which follows
    (-s/t, -r/t, 1/t) from (W_2, W_1, W_0) with its own q, and the window
    comes back reversed.  D = d*q^(|m|+2), d the common denominator of the
    initial terms (D = d at m = 0).  Each bit of |m| after the leading one
    costs a square (six products, or five squares above the
    _FIVE_SQUARE_BITS crossover), each set bit a shift by y: at most
    2*(bits(|m|) - 1) ticks, plus one for the combine.
    """
    _require_int(m, "the index m")
    w0, w1, w2 = seq.w0, seq.w1, seq.w2
    d = math.lcm(w0.denominator, w1.denominator, w2.denominator)
    u0, u1, u2 = (w.numerator * (d // w.denominator) for w in (w0, w1, w2))
    if m == 0:
        return (u0, u1, u2), d
    r, s, t = seq.params.r, seq.params.s, seq.params.t
    rn, rd, sn, sd, tn, td = (r.numerator, r.denominator, s.numerator,
                              s.denominator, t.numerator, t.denominator)
    if m < 0:
        if tn == 0:
            raise NegativeIndexWithZeroT(f"W_{m} undefined: stepping back needs t != 0")
        # (-s/t, -r/t, 1/t) as integer pairs, not in lowest terms.
        rn, rd, sn, sd, tn, td = -sn * td, sd * tn, -rn * td, rd * tn, td, tn
        u0, u2 = u2, u0
    q = math.lcm(rd // math.gcd(rn, rd), sd // math.gcd(sn, sd), td // math.gcd(tn, td))
    coeffs = R, S, T = rn * q // rd, sn * q * q // sd, tn * q ** 3 // td
    c = (0, 1, 0)
    for bit in bin(abs(m))[3:]:
        c = _sqr_mod(c, coeffs, counter)
        if bit == "1":
            c = _shift_mod(c, coeffs, counter)
    if counter is not None:
        counter.tick()
    # u_j = d*q^j*W_j are integers with u_j = R*u_{j-1} + S*u_{j-2} +
    # T*u_{j-3}, so a0*u_j + a1*u_{j+1} + a2*u_{j+2} is d*q^(k+j)*W_{k+j}.
    u1, u2 = u1 * q, u2 * q * q
    u3 = R * u2 + S * u1 + T * u0
    u4 = R * u3 + S * u2 + T * u1
    a0, a1, a2 = c
    nums = ((a0 * u0 + a1 * u1 + a2 * u2) * q * q,
            (a0 * u1 + a1 * u2 + a2 * u3) * q,
            a0 * u2 + a1 * u3 + a2 * u4)
    return (nums if m > 0 else nums[::-1]), d * q ** (abs(m) + 2)


def window(seq: SequenceDef, m: int, counter: Optional[MultiplicationCounter] = None
           ) -> tuple[Fraction, Fraction, Fraction]:
    """(W_m, W_{m+1}, W_{m+2}): :func:`scaled_window` over its denominator."""
    nums, den = scaled_window(seq, m, counter)
    return tuple(Fraction(n, den) for n in nums)


def term_matrix(seq: SequenceDef, n: int,
                counter: Optional[MultiplicationCounter] = None) -> Fraction:
    """Return W_n, the first term of ``window(seq, n)``, as one Fraction.

    Exactly equal to the literal walk ``oracle.oracle_term(seq, n)`` on
    every input, with at most 2*ceil(log2(|n| + 1)) + 2 counted squares,
    shifts and combine; negative n walks the reversed recurrence forward.
    """
    nums, den = scaled_window(seq, n, counter)
    return Fraction(nums[0], den)
