"""Exact evaluation of third-order linear recurrences at any signed index.

A sequence is defined by W_n = r*W_{n-1} + s*W_{n-2} + t*W_{n-3} with
initial terms W_0, W_1, W_2.  When t != 0, V_j = W_{2-j} follows the
reversed recurrence (-s/t, -r/t, 1/t) from (W_2, W_1, W_0), so each
backward term or sum is a forward one of V: V's integer triple has one
rule, :func:`reversed_set_up`, and its starts one reader, the kernel at a
window m < 0.  The oracle steps back on its own.

All arithmetic is exact over the rationals (``fractions.Fraction``); there
are no floating-point code paths.  A query reads each of its six
rationals once, in :func:`integer_triple`: (R, S, T, L) = L*(r, s, t, 1)
and (u0, u1, u2, d) = d*(W_0, W_1, W_2, 1), L and d least common
denominators.  The kernel, :func:`scaled_window`, takes those ints and
finds one linear form rho . (W_m, W_{m+1}, W_{m+2}) from x^m modulo the
characteristic polynomial x^3 - r*x^2 - s*x - t (for m < 0, of V).  It
scales y = L*x, so its O(log |m|) polynomial steps (squares and shifts by
y) run on three int coefficients; a square forms six products of them up
to _FIVE_SQUARE_BITS bits and five bignum squares above that crossover
(see :func:`_sqr_mod`).  It returns the form as an int over d*L^(|m|+2):
one division per query, made by :func:`term_matrix` (the form (1, 0, 0))
or by the closed-form sum that reads it.  The form is a dot product of the
power with small ints; once the last square's operands pass _READOUT_BITS,
it comes from a 3x3 Hankel quadratic form in x^(|m|>>1), three bignum
squares instead of the square's five (see :func:`_last_step`).  The
O(|n|) literal walk it is checked against lives in :mod:`tribsum.oracle`.
The sum-query types live here too, so that both the closed forms and the
literal oracle can depend on them without depending on each other.
"""

import enum
import math
import re
from collections import namedtuple
from fractions import Fraction

RationalLike = Fraction | int | str


class NegativeIndexWithZeroT(ValueError):
    """A backward term or sum with t = 0, where no step back exists.  Only
    :func:`reversed_set_up`, which every step back of the kernel and the
    closed forms goes through, and the oracle's own backward walk raise it."""

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


# The package's records are tuples: each subclasses a collections.namedtuple
# of the same name, and its docstring gives its fields.  Those below coerce or
# check their fields in __new__ and set _make, which _replace (and
# copy.replace) build through, to call the class: the inherited one goes
# through tuple.__new__, past the checks.
class RecurrenceParams(namedtuple("RecurrenceParams", "r s t")):
    """The coefficients of W_n = r*W_{n-1} + s*W_{n-2} + t*W_{n-3}: r, s
    and t, each coerced to a Fraction."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, r: RationalLike, s: RationalLike, t: RationalLike) -> "RecurrenceParams":
        return super().__new__(cls, as_rational(r), as_rational(s), as_rational(t))


class SequenceDef(namedtuple("SequenceDef", "params w0 w1 w2 name")):
    """A recurrence plus its three initial terms and optional metadata:
    params, its RecurrenceParams; w0, w1 and w2, the Fractions W_0, W_1 and
    W_2; name, a display name or None."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, params: RecurrenceParams, w0: RationalLike, w1: RationalLike,
                w2: RationalLike, name: str | None = None) -> "SequenceDef":
        _require_type(params, RecurrenceParams, "params")
        return super().__new__(cls, params, *map(as_rational, (w0, w1, w2)), name)

    @classmethod
    def of(cls, r: RationalLike, s: RationalLike, t: RationalLike, w0: RationalLike,
           w1: RationalLike, w2: RationalLike, name: str | None = None) -> "SequenceDef":
        return cls(RecurrenceParams(r, s, t), w0, w1, w2, name)


def _require_int(value: object, what: str) -> None:
    """Raise TypeError unless *value* is an int (bool is not accepted)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, not {value!r}")


def _require_at_least(flag: str, value: int, low: int) -> None:
    """Raise ValueError unless the command-line option *flag* is at least *low*."""
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, not {value}")


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


class SumQuery(namedtuple("SumQuery", "direction parity n")):
    """Which sum is requested: direction, a Direction; parity, a Parity;
    and the bound n, an int (n >= 0 forward, n >= 1 backward)."""

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


def _hankel_form(a: IntRow, g: tuple) -> int | None:
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


def _last_step(a: IntRow | None, b: int, coeffs: IntRow, u: IntRow, q: int,
               rho: IntRow) -> int:
    """rho . (n0, n1, n2) for :func:`scaled_window`'s window whose power is
    y^m = (a0 + a1*y + a2*y^2)^2 * y^b, m > 0, or y itself when a is None
    (m = 1), with u = (u0, u1, u2) its scaled initial terms.

    c -> rho . nums(c) is linear, and on y^e it is the small int
    g_e = sum_j rho_j*q^(2-j)*u_{e+j}, so the form is c0*g_0 + c1*g_1 +
    c2*g_2 on the square c, and g_1 on y.  Where a2 has more than
    _READOUT_BITS bits it skips that square: it is the Hankel form
    sum a_i*a_j*g_{i+j+b} (:func:`_hankel_form`), unless its diagonal vanishes.
    """
    R, S, T = coeffs
    u0, u1, u2 = u
    u3 = R * u2 + S * u1 + T * u0
    u4 = R * u3 + S * u2 + T * u1
    rho0, rho1, rho2 = rho[0] * q * q, rho[1] * q, rho[2]
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


def integer_triple(a: Fraction, b: Fraction, c: Fraction) -> tuple[int, int, int, int]:
    """L*(a, b, c, 1), L the least common denominator of a, b and c, each
    read once: (R, S, T, L) for (r, s, t) and (u0, u1, u2, d) for W_0..W_2."""
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    cn, cd = c.as_integer_ratio()
    L = math.lcm(ad, bd, cd)
    return an * (L // ad), bn * (L // bd), cn * (L // cd), L


def reversed_set_up(triple: tuple) -> tuple[int, int, int, int]:
    """The integer triple of V_j = W_{2-j} from W's (R, S, T, L): sign(T)*
    (-S, -R, L, T), least as gcd(R, S, T, L) = 1; at T = 0 there is none."""
    R, S, T, L = triple
    if not T:
        raise NegativeIndexWithZeroT
    return (-S, -R, L, T) if T > 0 else (S, R, -L, -T)


def scaled_window(triple: tuple, starts: tuple, m: int, rho: IntRow) -> tuple[int, int]:
    """(rho . (n0, n1, n2), e) with W_{m+j} = n_j / (d*e), from one
    polynomial power on ints; nothing is divided.  *triple* is (R, S, T, L)
    and *starts* (u0, u1, u2, d), both from :func:`integer_triple`, so the
    kernel reads no rational.

    With x^k = c0 + c1*x + c2*x^2 modulo x^3 - r*x^2 - s*x - t,
    W_{k+j} = c0*W_j + c1*W_{j+1} + c2*W_{j+2} (Cayley-Hamilton; Fiduccia
    1985).  With q = L, y = q*x satisfies y^3 - R*y^2 - S*L*y - T*L^2.
    For m < 0 the window is V's at -m reversed: the same power runs on
    :func:`reversed_set_up`, (u2, u1, u0, d) and rho reversed; q = |T|.
    e = q^(|m|+2) (1 at m = 0).  Each bit of |m| after the leading
    one costs a square (six products, or five squares above the
    _FIVE_SQUARE_BITS crossover), each set bit after it a shift by y.  The
    last square and shift are :func:`_last_step`, which past the
    _READOUT_BITS crossover reads the form with three bignum squares
    instead of five, and reads |m| = 1 off y with neither.
    """
    _require_int(m, "the index m")
    u0, u1, u2, _ = starts
    if m < 0:  # (W_m, W_m+1, W_m+2) = (V_{-m+2}, V_{-m+1}, V_{-m}), V_j = W_{2-j}
        triple, m, rho, u0, u2 = reversed_set_up(triple), -m, rho[::-1], u2, u0
    if m == 0:
        return rho[0] * u0 + rho[1] * u1 + rho[2] * u2, 1
    R, S, T, q = triple
    coeffs = R, S * q, T * q * q
    # y^(m >> 1) once the loop is done; None at m = 1, where y^m is y.
    c = (0, 1, 0) if m > 1 else None
    for bit in bin(m)[3:-1]:
        c = _sqr_mod(c, coeffs)
        if bit == "1":
            c = _shift_mod(c, coeffs)
    # u_j = d*q^j*W_j are integers that follow y's recurrence (coeffs), so
    # a0*u_j + a1*u_{j+1} + a2*u_{j+2} is d*q^(k+j)*W_{k+j}.
    return _last_step(c, m & 1, coeffs, (u0, u1 * q, u2 * q * q), q, rho), q ** (m + 2)


def term_matrix(seq: SequenceDef, n: int,
                counter: MultiplicationCounter | None = None) -> Fraction:
    """Return W_n, the form (1, 0, 0) of :func:`scaled_window`, as one Fraction.

    Exactly equal to the literal walk ``oracle.oracle_term(seq, n)`` on
    every input; negative n walks the reversed recurrence forward.  Above
    the _READOUT_BITS crossover the last square is three bignum squares.
    *counter* gains the kernel's squares and shifts plus one for the
    combine, computed from |n| after the kernel returns: bits(|n|) +
    popcount(|n|) - 1 ticks, at most 2*bits(|n|) - 1, and 0 at n = 0.
    """
    starts = integer_triple(seq.w0, seq.w1, seq.w2)
    num, e = scaled_window(integer_triple(*seq.params), starts, n, (1, 0, 0))
    if counter is not None and n:  # bits - 1 squares, popcount - 1 shifts, one combine
        counter.count += abs(n).bit_length() + abs(n).bit_count() - 1
    return Fraction(num, starts[3] * e)
