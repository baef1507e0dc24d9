"""Hand-transcribed partial-sum identities for the named catalog sequences.

Each named sequence admits compact closed forms for its six sum families,
obtained by substituting its coefficients and initial terms into the
general formulas and simplifying.  The registry below keeps them in their
fully simplified per-sequence shape so the generic engine can be regressed
against something it does not share code with.

A clause is a function of (term, n) where ``term(k)`` returns W_k; it
evaluates the closed form for the sum bounded by n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import Direction, Parity

TermFn = Callable[[int], Fraction]
Clause = Callable[[TermFn, int], Fraction]

H = Fraction(1, 2)
TH = Fraction(1, 3)


@dataclass(frozen=True)
class SumIdentity:
    sequence_key: str
    direction: Direction
    parity: Parity
    clause: Clause


def _register(key: str,
              fwd: tuple[Clause, Clause, Clause],
              bwd: tuple[Clause, Clause, Clause]) -> list[SumIdentity]:
    parities = (Parity.ALL, Parity.EVEN, Parity.ODD)
    out = [SumIdentity(key, Direction.FORWARD, p, c)
           for p, c in zip(parities, fwd)]
    out += [SumIdentity(key, Direction.BACKWARD, p, c)
            for p, c in zip(parities, bwd)]
    return out


SUM_IDENTITIES: list[SumIdentity] = []

SUM_IDENTITIES += _register(
    "tribonacci",
    (lambda T, n: H * (T(n + 3) - T(n + 1) - 1),
     lambda T, n: H * (T(2 * n + 1) + T(2 * n) - 1),
     lambda T, n: H * (T(2 * n + 2) + T(2 * n + 1))),
    (lambda T, n: H * (-3 * T(-n - 1) - 2 * T(-n - 2) - T(-n - 3) + 1),
     lambda T, n: H * (-T(-2 * n + 1) + T(-2 * n) + 1),
     lambda T, n: H * (-T(-2 * n) - T(-2 * n - 1))),
)

SUM_IDENTITIES += _register(
    "tribonacci-lucas",
    (lambda T, n: H * (T(n + 3) - T(n + 1)),
     lambda T, n: H * (T(2 * n + 1) + T(2 * n) + 2),
     lambda T, n: H * (T(2 * n + 2) + T(2 * n + 1) - 2)),
    (lambda T, n: H * (-3 * T(-n - 1) - 2 * T(-n - 2) - T(-n - 3)),
     lambda T, n: H * (-T(-2 * n + 1) + T(-2 * n) - 2),
     lambda T, n: H * (-T(-2 * n) - T(-2 * n - 1) + 2)),
)

SUM_IDENTITIES += _register(
    "third-order-pell",
    (lambda T, n: TH * (T(n + 3) - T(n + 2) - 2 * T(n + 1) - 1),
     lambda T, n: TH * (T(2 * n + 1) + T(2 * n) - 1),
     lambda T, n: TH * (T(2 * n + 2) + T(2 * n + 1))),
    (lambda T, n: TH * (-4 * T(-n - 1) - 2 * T(-n - 2) - T(-n - 3) + 1),
     lambda T, n: TH * (-T(-2 * n + 1) + 2 * T(-2 * n) + 1),
     lambda T, n: TH * (-T(-2 * n) - T(-2 * n - 1))),
)

SUM_IDENTITIES += _register(
    "third-order-pell-lucas",
    (lambda T, n: TH * (T(n + 3) - T(n + 2) - 2 * T(n + 1) + 2),
     lambda T, n: TH * (T(2 * n + 1) + T(2 * n) + 4),
     lambda T, n: TH * (T(2 * n + 2) + T(2 * n + 1) - 2)),
    (lambda T, n: TH * (-4 * T(-n - 1) - 2 * T(-n - 2) - T(-n - 3) - 2),
     lambda T, n: TH * (-T(-2 * n + 1) + 2 * T(-2 * n) - 4),
     lambda T, n: TH * (-T(-2 * n) - T(-2 * n - 1) + 2)),
)

SUM_IDENTITIES += _register(
    "third-order-modified-pell",
    (lambda T, n: TH * (T(n + 3) - T(n + 2) - 2 * T(n + 1)),
     lambda T, n: TH * (T(2 * n + 1) + T(2 * n) - 1),
     lambda T, n: TH * (T(2 * n + 2) + T(2 * n + 1) + 1)),
    (lambda T, n: TH * (-4 * T(-n - 1) - 2 * T(-n - 2) - T(-n - 3)),
     lambda T, n: TH * (-T(-2 * n + 1) + 2 * T(-2 * n) + 1),
     lambda T, n: TH * (-T(-2 * n) - T(-2 * n - 1) - 1)),
)

SUM_IDENTITIES += _register(
    "padovan",
    (lambda T, n: T(n + 3) + T(n + 2) - 2,
     lambda T, n: T(2 * n + 1) + T(2 * n) - 1,
     lambda T, n: T(2 * n + 2) + T(2 * n + 1) - 1),
    (lambda T, n: -2 * T(-n - 1) - 2 * T(-n - 2) - T(-n - 3) + 2,
     lambda T, n: -T(-2 * n + 1) + 1,
     lambda T, n: -T(-2 * n) - T(-2 * n - 1) + 1),
)

SUM_IDENTITIES += _register(
    "perrin",
    (lambda T, n: T(n + 3) + T(n + 2) - 2,
     lambda T, n: T(2 * n + 1) + T(2 * n),
     lambda T, n: T(2 * n + 2) + T(2 * n + 1) - 2),
    (lambda T, n: -2 * T(-n - 1) - 2 * T(-n - 2) - T(-n - 3) + 2,
     lambda T, n: -T(-2 * n + 1),
     lambda T, n: -T(-2 * n) - T(-2 * n - 1) + 2),
)

SUM_IDENTITIES += _register(
    "padovan-perrin",
    (lambda T, n: T(n + 3) + T(n + 2) - 1,
     lambda T, n: T(2 * n + 1) + T(2 * n),
     lambda T, n: T(2 * n + 2) + T(2 * n + 1) - 1),
    (lambda T, n: -2 * T(-n - 1) - 2 * T(-n - 2) - T(-n - 3) + 1,
     lambda T, n: -T(-2 * n + 1),
     lambda T, n: -T(-2 * n) - T(-2 * n - 1) + 1),
)

SUM_IDENTITIES += _register(
    "pell-padovan",
    (lambda T, n: H * (T(n + 3) + T(n + 2) - T(n + 1) - 1),
     lambda T, n: T(2 * n + 1) - n,
     lambda T, n: H * (T(2 * n + 3) + T(2 * n + 2) - T(2 * n + 1) + 2 * n - 1)),
    (lambda T, n: H * (-3 * T(-n - 1) - 3 * T(-n - 2) - T(-n - 3) + 1),
     lambda T, n: -T(-2 * n + 1) + T(-2 * n) - n,
     lambda T, n: H * (T(-2 * n + 1) - 3 * T(-2 * n) - T(-2 * n - 1) + 1 + 2 * n)),
)

SUM_IDENTITIES += _register(
    "pell-perrin",
    (lambda T, n: H * (T(n + 3) + T(n + 2) - T(n + 1) + 1),
     lambda T, n: T(2 * n + 1) - n + 3,
     lambda T, n: H * (T(2 * n + 3) + T(2 * n + 2) - T(2 * n + 1) + 2 * n - 5)),
    (lambda T, n: H * (-3 * T(-n - 1) - 3 * T(-n - 2) - T(-n - 3) - 1),
     lambda T, n: -T(-2 * n + 1) + T(-2 * n) - 3 - n,
     lambda T, n: H * (T(-2 * n + 1) - 3 * T(-2 * n) - T(-2 * n - 1) + 5 + 2 * n)),
)

SUM_IDENTITIES += _register(
    "jacobsthal-padovan",
    (lambda T, n: H * (T(n + 3) + T(n + 2) - 2),
     lambda T, n: H * (T(2 * n + 1) + 2 * T(2 * n) - 1),
     lambda T, n: H * (T(2 * n + 2) + 2 * T(2 * n + 1) - 1)),
    (lambda T, n: H * (-3 * T(-n - 1) - 3 * T(-n - 2) - 2 * T(-n - 3) + 2),
     lambda T, n: H * (-T(-2 * n + 1) + 1),
     lambda T, n: H * (-T(-2 * n) - 2 * T(-2 * n - 1) + 1)),
)

SUM_IDENTITIES += _register(
    "jacobsthal-perrin",
    (lambda T, n: H * (T(n + 3) + T(n + 2) - 2),
     lambda T, n: H * (T(2 * n + 1) + 2 * T(2 * n)),
     lambda T, n: H * (T(2 * n + 2) + 2 * T(2 * n + 1) - 2)),
    (lambda T, n: H * (-3 * T(-n - 1) - 3 * T(-n - 2) - 2 * T(-n - 3) + 2),
     lambda T, n: -H * T(-2 * n + 1),
     lambda T, n: H * (-T(-2 * n) - 2 * T(-2 * n - 1) + 2)),
)

SUM_IDENTITIES += _register(
    "narayana",
    (lambda T, n: T(n + 3) - 1,
     lambda T, n: TH * (T(2 * n + 2) + T(2 * n + 1) + 2 * T(2 * n) - 2),
     lambda T, n: TH * (2 * T(2 * n + 2) + 2 * T(2 * n + 1) + T(2 * n) - 1)),
    (lambda T, n: -2 * T(-n - 1) - T(-n - 2) - T(-n - 3) + 1,
     lambda T, n: TH * (-2 * T(-2 * n + 1) + T(-2 * n) - T(-2 * n - 1) + 2),
     lambda T, n: TH * (-T(-2 * n + 1) - T(-2 * n) - 2 * T(-2 * n - 1) + 1)),
)

SUM_IDENTITIES += _register(
    "third-order-jacobsthal",
    (lambda T, n: TH * (T(n + 3) - T(n + 1) - 1),
     lambda T, n: TH * (T(2 * n + 1) + 2 * T(2 * n) - 1),
     lambda T, n: TH * (T(2 * n + 2) + 2 * T(2 * n + 1))),
    (lambda T, n: TH * (-4 * T(-n - 1) - 3 * T(-n - 2) - 2 * T(-n - 3) + 1),
     lambda T, n: TH * (-T(-2 * n + 1) + T(-2 * n) + 1),
     lambda T, n: TH * (-T(-2 * n) - 2 * T(-2 * n - 1))),
)

SUM_IDENTITIES += _register(
    "third-order-jacobsthal-lucas",
    (lambda T, n: TH * (T(n + 3) - T(n + 1) - 3),
     lambda T, n: TH * (T(2 * n + 1) + 2 * T(2 * n) + 1),
     lambda T, n: TH * (T(2 * n + 2) + 2 * T(2 * n + 1) - 4)),
    (lambda T, n: TH * (-4 * T(-n - 1) - 3 * T(-n - 2) - 2 * T(-n - 3) + 3),
     lambda T, n: TH * (-T(-2 * n + 1) + T(-2 * n) - 1),
     lambda T, n: TH * (-T(-2 * n) - 2 * T(-2 * n - 1) + 4)),
)
