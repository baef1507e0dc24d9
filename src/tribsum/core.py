"""Exact evaluation of third-order linear recurrences at any signed index.

A sequence is defined by W_n = r*W_{n-1} + s*W_{n-2} + t*W_{n-3} with
initial terms W_0, W_1, W_2.  When t != 0 the recurrence runs backward as
well: W_{-m} = -(s/t)*W_{-(m-1)} - (r/t)*W_{-(m-2)} + (1/t)*W_{-(m-3)}.

All arithmetic is exact over the rationals (``fractions.Fraction``); there
are no floating-point code paths.  The kernel, :func:`scaled_window`,
finds one linear form rho . (W_m, W_{m+1}, W_{m+2}) from x^|m| modulo the
characteristic polynomial x^3 - r*x^2 - s*x - t, or for m < 0 modulo that
of the reversed recurrence (-s/t, -r/t, 1/t).  It scales y = q*x, with q
the common denominator of that triple, so its O(log |m|) polynomial steps
(squares and shifts by y) run on three int coefficients; a square forms
six products of them up to _FIVE_SQUARE_BITS bits and five bignum squares
above that crossover (see :func:`_sqr_mod`).  It returns the form as an
int over the window's common denominator: one division per query, made by
:func:`term_matrix` (the form (1, 0, 0)) or by the closed-form sum that
reads it.  The form is a dot product of the power with small ints; once
the last square's operands pass _READOUT_BITS, it comes from a 3x3 Hankel
quadratic form in x^(|m|>>1), three bignum squares instead of the square's
five (see :func:`_last_step`).  The O(|n|) literal walk it is checked
against lives in :mod:`tribsum.oracle`.  The sum-query types live here
too, so that both the closed forms and the literal oracle can depend on
them without depending on each other.
"""

from __future__ import annotations

import enum
import math
import re
from fractions import Fraction
from typing import NamedTuple, Optional, Union

RationalLike = Union[Fraction, int, str]


class NegativeIndexWithZeroT(ValueError):
    """A backward term or sum with t = 0, where no step back exists.  Only
    :func:`scaled_window` (m < 0) and the oracle's backward walk raise it."""

    def __init__(self, message: str = "stepping back needs t != 0") -> None:
        super().__init__(message)


class SumMismatch(ArithmeticError):
    """A closed-form value disagreed with the literal sum."""


# "p" or "p/q" (q > 0) in ASCII digits, signed, maybe padded.  Fraction's own
# parser also takes decimals, "_" and non-ASCII digits, differently per Python.
_LITERAL = re.compile(r"\s*[+-]?[0-9]+(?:/0*[1-9][0-9]*)?\s*")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, string (_LITERAL) or Fraction to an exact Fraction.

    Decimal-point and float inputs are rejected: exactness is a hard
    requirement everywhere in this package.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if _LITERAL.fullmatch(value) is None:
            raise ValueError(f"not an exact rational literal: {value!r}")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p" when the denominator is 1, else "p/q"."""
    return str(value)


# The records below are tuples.  NamedTuple forbids defining __new__ in its
# class body, so each one that coerces or checks its fields subclasses one.
# Each also sets _make, which _replace (and copy.replace) build through, to
# call the class: the inherited one goes through tuple.__new__, past the checks.
_Params = NamedTuple("_Params", [("r", Fraction), ("s", Fraction), ("t", Fraction)])


class RecurrenceParams(_Params):
    """The coefficient triple (r, s, t) of the recurrence."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, r: RationalLike, s: RationalLike, t: RationalLike) -> "RecurrenceParams":
        return super().__new__(cls, as_rational(r), as_rational(s), as_rational(t))


_Sequence = NamedTuple("_Sequence", [("params", RecurrenceParams), ("w0", Fraction),
                                     ("w1", Fraction), ("w2", Fraction), ("name", Optional[str])])


class SequenceDef(_Sequence):
    """A recurrence plus its three initial terms and optional metadata."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, params: RecurrenceParams, w0: RationalLike, w1: RationalLike,
                w2: RationalLike, name: Optional[str] = None) -> "SequenceDef":
        _require_type(params, RecurrenceParams, "params")
        return super().__new__(cls, params, *map(as_rational, (w0, w1, w2)), name)

    @classmethod
    def of(cls, r: RationalLike, s: RationalLike, t: RationalLike, w0: RationalLike,
           w1: RationalLike, w2: RationalLike, name: Optional[str] = None) -> "SequenceDef":
        return cls(RecurrenceParams(r, s, t), w0, w1, w2, name)


def _require_int(value: object, what: str) -> None:
    """Raise TypeError unless *value* is an int (bool is not accepted)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, not {value!r}")


def _require_type(value: object, kind: type, what: str) -> None:
    """Raise TypeError unless *value* is an instance of *kind*."""
    if not isinstance(value, kind):
        raise TypeError(f"{what} must be a {kind.__name__}, not {value!r}")


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
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, direction: Direction, parity: Parity, n: int) -> "SumQuery":
        _require_type(direction, Direction, "the direction")
        _require_type(parity, Parity, "the parity")
        _require_int(n, "the bound n")
        if direction is Direction.BACKWARD:
            if n < 1:
                raise ValueError("backward sums start at k = 1; need n >= 1")
        elif n < 0:
            raise ValueError("forward sums need n >= 0")
        return super().__new__(cls, direction, parity, n)


IntRow = tuple[int, int, int]


class MultiplicationCounter:
    """Counts the polynomial steps of the kernel under :func:`term_matrix`
    (each square or shift by y is one tick) and its final combine, for cost
    assertions.  The count depends on |n| alone, so :func:`term_matrix` adds
    it from |n| once the kernel returns, also where :func:`_last_step` never
    forms the last square."""

    def __init__(self) -> None:
        self.count = 0

    def __repr__(self) -> str:
        return f"MultiplicationCounter(count={self.count!r})"


# Bits of a2 above which _sqr_mod squares by five bignum squares instead
# of six products: CPython squares a large int in about half the time of a
# product, but on small operands the linear-time interpolation costs more
# than that saves.  Measured break-even: about 768 bits; 1024 keeps a margin.
_FIVE_SQUARE_BITS = 1024


def _sqr_mod(a: IntRow, coeffs: IntRow) -> IntRow:
    """(a0 + a1*y + a2*y^2)^2 mod y^3 - R*y^2 - S*y - T on int
    coefficients, so no step pays a gcd (see :func:`scaled_window`).

    The square p0 + p1*y + ... + p4*y^4 comes from six products while a2
    has at most _FIVE_SQUARE_BITS bits, and above that from five squares,
    its values at y = 0, 1, -1, 2 and infinity, interpolated exactly
    (Toom-3; Brent & Zimmermann, Modern Computer Arithmetic, 1.3.3).
    """
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


def _shift_mod(a: IntRow, coeffs: IntRow) -> IntRow:
    """(a0 + a1*y + a2*y^2) * y mod y^3 - R*y^2 - S*y - T, in linear time."""
    a0, a1, a2 = a
    R, S, T = coeffs
    return T * a2, a0 + S * a2, a1 + R * a2


# Bits of a2 above which scaled_window reads its form from the last square's
# Hankel form (three bignum squares) instead of forming that square (five):
# below it, the pivots cost more than two squares save.  Measured
# break-even: about 1000 bits for terms, 1500-1800 for integer sums and
# 3000 for rational sums, whose final gcd dominates; 3072 keeps them all.
_READOUT_BITS = 3072


def _hankel_form(a: IntRow, g: tuple) -> Optional[int]:
    """sum_ij a_i*a_j*g_{i+j} over i, j in 0..2 by three bignum squares, or
    None where the diagonal g0, g2, g4 of that Hankel form is all zero.

    One LDL^T step on a nonzero diagonal pivot N turns the form F into
    N*F = l0^2 + m11*x1^2 + 2*m12*x1*x2 + m22*x2^2, and with a nonzero
    pivot P = m11 (or m22, the two swapped) P*N*F = P*l0^2 + l1^2 +
    delta*x2^2.  Where m11 = m22 = 0,
    2*x1*x2 = ((x1 + x2)^2 - (x1 - x2)^2) / 2.  The g and the pivots are
    small, so the rest is linear-time, one exact division included.
    """
    for pivot, i1, i2 in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        N = g[2 * pivot]
        if N:
            break
    else:
        return None
    x1, x2, h1, h2 = a[i1], a[i2], g[pivot + i1], g[pivot + i2]
    l0 = N * a[pivot] + h1 * x1 + h2 * x2
    m11, m12, m22 = N * g[2 * i1] - h1 * h1, N * g[i1 + i2] - h1 * h2, N * g[2 * i2] - h2 * h2
    if not m11:
        m11, m22, x1, x2 = m22, m11, x2, x1
    if not m11:
        return (l0 ** 2 + m12 * (((x1 + x2) ** 2 - (x1 - x2) ** 2) >> 1)) // N
    return (m11 * l0 ** 2 + (m11 * x1 + m12 * x2) ** 2
            + (m11 * m22 - m12 * m12) * x2 ** 2) // (m11 * N)


def _last_step(a: Optional[IntRow], b: int, coeffs: IntRow, u: IntRow, q: int, backward: bool,
               rho: IntRow) -> int:
    """rho . (n0, n1, n2) for :func:`scaled_window`'s window whose power is
    y^|m| = (a0 + a1*y + a2*y^2)^2 * y^b, or y itself when a is None
    (|m| = 1), with u = (u0, u1, u2) its scaled initial terms.

    c -> rho . nums(c) is linear, and on y^e it is the small int
    g_e = sum_j rho_j*q^(2-sigma(j))*u_{e+sigma(j)} (sigma reverses the
    window for m < 0), so the form is c0*g_0 + c1*g_1 + c2*g_2 on the
    square c, and g_1 on y.  Where a2 has more than _READOUT_BITS bits it
    skips that square: it is the Hankel form sum a_i*a_j*g_{i+j+b}
    (:func:`_hankel_form`), unless that form's diagonal vanishes.
    """
    R, S, T = coeffs
    u0, u1, u2 = u
    u3 = R * u2 + S * u1 + T * u0
    u4 = R * u3 + S * u2 + T * u1
    rho0, rho1, rho2 = rho[::-1] if backward else rho
    rho0, rho1 = rho0 * q * q, rho1 * q
    g = [rho0 * u0 + rho1 * u1 + rho2 * u2, rho0 * u1 + rho1 * u2 + rho2 * u3,
         rho0 * u2 + rho1 * u3 + rho2 * u4]
    if a is None:
        return g[1]
    if a[2].bit_length() > _READOUT_BITS:
        for _ in range(3):  # g_e follows the recurrence, as u_e does
            g.append(R * g[-1] + S * g[-2] + T * g[-3])
        value = _hankel_form(a, g[b:b + 5])
        if value is not None:
            return value
    c0, c1, c2 = _sqr_mod(a, coeffs)
    if b:
        c0, c1, c2 = _shift_mod((c0, c1, c2), coeffs)
    return c0 * g[0] + c1 * g[1] + c2 * g[2]


def scaled_window(seq: SequenceDef, m: int, rho: IntRow) -> tuple[int, int]:
    """(rho . (n0, n1, n2), D) with W_{m+j} = n_j / D, from one polynomial
    power on ints; nothing is divided.

    With x^k = c0 + c1*x + c2*x^2 modulo x^3 - r*x^2 - s*x - t,
    W_{k+j} = c0*W_j + c1*W_{j+1} + c2*W_{j+2} (Cayley-Hamilton; Fiduccia
    1985).  With q the least common denominator of r, s and t, y = q*x
    satisfies y^3 - R*y^2 - S*y - T with ints R = r*q, S = s*q^2, T = t*q^3.
    For m < 0 (t = 0 raises NegativeIndexWithZeroT) the same power runs on
    V_j = W_{2-j}, which follows (-s/t, -r/t, 1/t) from (W_2, W_1, W_0) with
    its own q, and the window comes back reversed.  D = d*q^(|m|+2), d the
    common denominator of the initial terms (D = d at m = 0).  Each bit of
    |m| after the leading one costs a square (six products, or five squares
    above the _FIVE_SQUARE_BITS crossover), each set bit after it a shift by
    y.  The last square and shift are :func:`_last_step`, which past the
    _READOUT_BITS crossover reads the form with three bignum squares instead
    of five, and reads |m| = 1 off y with neither.
    """
    _require_int(m, "the index m")
    w0, w1, w2 = seq.w0, seq.w1, seq.w2
    d = math.lcm(w0.denominator, w1.denominator, w2.denominator)
    u0, u1, u2 = (w.numerator * (d // w.denominator) for w in (w0, w1, w2))
    if m == 0:
        return rho[0] * u0 + rho[1] * u1 + rho[2] * u2, d
    r, s, t = seq.params.r, seq.params.s, seq.params.t
    rn, rd, sn, sd, tn, td = (r.numerator, r.denominator, s.numerator,
                              s.denominator, t.numerator, t.denominator)
    if m < 0:
        if tn == 0:
            raise NegativeIndexWithZeroT
        # (-s/t, -r/t, 1/t) as integer pairs, not in lowest terms.
        rn, rd, sn, sd, tn, td = -sn * td, sd * tn, -rn * td, rd * tn, td, tn
        u0, u2 = u2, u0
    q = math.lcm(rd // math.gcd(rn, rd), sd // math.gcd(sn, sd), td // math.gcd(tn, td))
    coeffs = rn * q // rd, sn * q * q // sd, tn * q ** 3 // td
    size = abs(m)
    # y^(size >> 1) once the loop is done; None at size 1, where y^|m| is y.
    c = (0, 1, 0) if size > 1 else None
    for bit in bin(size)[3:-1]:
        c = _sqr_mod(c, coeffs)
        if bit == "1":
            c = _shift_mod(c, coeffs)
    # u_j = d*q^j*W_j are integers with u_j = R*u_{j-1} + S*u_{j-2} +
    # T*u_{j-3}, so a0*u_j + a1*u_{j+1} + a2*u_{j+2} is d*q^(k+j)*W_{k+j}.
    return (_last_step(c, size & 1, coeffs, (u0, u1 * q, u2 * q * q), q, m < 0, rho),
            d * q ** (size + 2))


def term_matrix(seq: SequenceDef, n: int,
                counter: Optional[MultiplicationCounter] = None) -> Fraction:
    """Return W_n, the form (1, 0, 0) of :func:`scaled_window`, as one Fraction.

    Exactly equal to the literal walk ``oracle.oracle_term(seq, n)`` on
    every input; negative n walks the reversed recurrence forward.  Above
    the _READOUT_BITS crossover the last square is three bignum squares.
    *counter* gains the kernel's squares and shifts plus one for the
    combine, computed from |n| after the kernel returns: bits(|n|) +
    popcount(|n|) - 1 ticks, at most 2*bits(|n|) - 1, and 0 at n = 0.
    """
    num, den = scaled_window(seq, n, (1, 0, 0))
    if counter is not None and n:  # bits - 1 squares, popcount - 1 shifts, one combine
        counter.count += abs(n).bit_length() + abs(n).bit_count() - 1
    return Fraction(num, den)
