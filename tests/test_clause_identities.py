"""Every closed-form clause in :mod:`tribsum.sums` holds for every triple of
its condition, every W and every n: a proof from each clause's defining
identity, which runs no kernel, no oracle, no ``closed_form_value`` and no
``evaluate``.

A clause is a pair (rho, kappa) of coefficient rows with, at o = 1,

    gate * S(n) = rho . (W_m, W_m+1, W_m+2) + kappa . (W_0, W_1, W_2).

With V_k = (W_k, W_k+1, W_k+2) and M = [[0, 1, 0], [0, 0, 1], [t, s, r]],
V_k = M^k V_0 and W_k = e0 M^k V_0, e0 = (1, 0, 0).  A family has a stride
a, a term offset b and a window offset c: it sums W_(a j + b) over
j = 0..n forward and W_(b - a j) over j = 1..n backward, and its window
starts at m = a n + c forward and m = c - a n backward.  V_0 is arbitrary,
so the clause holds for all W exactly when the rows agree:
gate * sum_j e0 M^(a j + b) = rho M^m + kappa.  By induction on n that
follows from a step and a base identity.  Forward, from n = 0:

    rho (M^a - I) = gate e0 M^(a + b - c)
    rho M^c + kappa = gate e0 M^b

Backward, from n = 1, each multiplied on the right by the power of M that
leaves no negative exponent (backward sums need t != 0, so M is
invertible):

    rho (I - M^a) = gate e0 M^(b - c)
    rho + kappa M^(a - c) = gate e0 M^(b - c)

The four (0, 2, 1) clauses have kappa = k0 + n k1, so each step also adds
k1, forward, or k1 M^(a (n + 1) - c) to the left side, backward.  Where
k1 (M^a - I) = 0, k1 M^a = k1, so the step identity at the first n (these
clauses are even/odd, c = 0 forward) carries to every n.  The n-free
clauses have k1 = 0, and there the three checks are the two identities
above.

Every entry of M^k is a polynomial of degree at most k in (r, s, t); rho,
kappa and the gate, as written in sums.py, have degree at most 2, and
the powers reach at most degree 5 on either side (kappa M^4 for the
backward all-index base, gate e0 M^3 for the forward odd step).  So both
sides of each identity are rows of polynomials of degree at most 5 in each
variable, and a polynomial of degree at most 5 in each variable that
vanishes on a grid of 7 points per variable is zero (Alon, Combinatorial
Nullstellensatz, 1999, Lemma 2.1).  The generic clauses are proved on
r, s, t in {-3, ..., 3}; the s = 1 clauses on that plane, with r, t on the
grid; the r + t = 0 clauses on r = -t, with s, t on the grid; and the
(0, 2, 1) clauses at their one triple.  Each clause's coefficients are
polynomials of degree at most 1 in n in sums.py, so reading them at the
first n and the next gives rho, k0 and k1.
"""

import sys
from fractions import Fraction
from importlib import import_module
from itertools import product
from types import CodeType, FunctionType

import pytest

from tribsum import sums
from tribsum.sums import Direction, Parity

# (a, b, c) per family: the stride, the term offset and the window offset.
FAMILIES = {
    (Direction.FORWARD, Parity.ALL): (1, 0, 1),
    (Direction.FORWARD, Parity.EVEN): (2, 0, 0),
    (Direction.FORWARD, Parity.ODD): (2, 1, 0),
    (Direction.BACKWARD, Parity.ALL): (1, 0, -3),
    (Direction.BACKWARD, Parity.EVEN): (2, 0, -1),
    (Direction.BACKWARD, Parity.ODD): (2, 1, -1),
}
E0 = (1, 0, 0)
ZERO = (0, 0, 0)
AXIS = [Fraction(x) for x in range(-3, 4)]


def grid(condition: str) -> list[tuple[Fraction, Fraction, Fraction]]:
    """The triples a condition's clauses are proved on."""
    if condition == "generic":
        return list(product(AXIS, repeat=3))
    if condition == "s=1":
        return [(r, Fraction(1), t) for r, t in product(AXIS, repeat=2)]
    if condition == "r+t=0":
        return [(-t, s, t) for s, t in product(AXIS, repeat=2)]
    assert condition == "021"
    return [(Fraction(0), Fraction(2), Fraction(1))]


def times(row, matrix, k: int = 1):
    """row . matrix^k, a row of three by a 3x3 matrix k times."""
    for _ in range(k):
        row = tuple(sum(row[i] * matrix[i][j] for i in range(3)) for j in range(3))
    return row


def plus(u, v):
    return tuple(x + y for x, y in zip(u, v))


def minus(u, v):
    return tuple(x - y for x, y in zip(u, v))


def scaled(c, row):
    return tuple(c * x for x in row)


def identities(case: sums.FormulaCase, r, s, t) -> list[tuple[tuple, tuple]]:
    """The (left, right) row pairs whose equality at (r, s, t) proves *case*
    there: k1 (M^a - I) = 0, the step at the first n, the base case."""
    direction, parity, condition = case.value
    a, b, c = FAMILIES[direction, parity]
    M = ((0, 1, 0), (0, 0, 1), (t, s, r))
    gate = sums._gate(condition, parity, r, s, t)
    first = 0 if direction is Direction.FORWARD else 1
    rho, kappa = sums._CLOSED_FORMS[case](r, s, t, 1, first)
    rho_next, kappa_next = sums._CLOSED_FORMS[case](r, s, t, 1, first + 1)
    assert rho_next == rho
    k1 = minus(kappa_next, kappa)
    moved = minus(times(rho, M, a), rho)  # rho (M^a - I)
    if direction is Direction.FORWARD:
        assert k1 == ZERO or c == 0
        step = plus(moved, k1), scaled(gate, times(E0, M, a + b - c))
        base = plus(times(rho, M, c), kappa), scaled(gate, times(E0, M, b))
    else:
        step = (plus(scaled(-1, moved), times(k1, M, 2 * a - c)),
                scaled(gate, times(E0, M, b - c)))
        base = plus(rho, times(kappa, M, a - c)), scaled(gate, times(E0, M, b - c))
    return [(minus(times(k1, M, a), k1), ZERO), step, base]


@pytest.mark.parametrize("case", list(sums._CLOSED_FORMS), ids=lambda case: case.name)
def test_clause_identities(case):
    points = grid(case.value[2])
    failed = [point for point in points
              if any(left != right for left, right in identities(case, *point))]
    assert not failed, f"{len(failed)} of {len(points)} points, first {failed[0]}"


def test_binds_no_kernel_code():
    """The proof names no kernel, oracle or combine, so it shares no code
    with what it proves beyond the clauses and the gate."""
    module = sys.modules[__name__]
    names, codes = set(), [value.__code__ for value in vars(module).values()
                           if isinstance(value, FunctionType)]
    while codes:
        code = codes.pop()
        names |= set(code.co_names)
        codes += [const for const in code.co_consts if isinstance(const, CodeType)]
    assert {"_gate", "_CLOSED_FORMS"} <= names
    kernel = {"tribsum.sums": ("closed_form_value", "evaluate", "_combine", "sum_oracle"),
              "tribsum.core": ("scaled_window", "integer_triple", "term_matrix"),
              "tribsum.oracle": ("oracle_sum", "oracle_term", "prefix_sums", "term_table")}
    assert names.isdisjoint({"core", "oracle", *(n for ns in kernel.values() for n in ns)})
    # Imported here: sums loads the oracle only on its first literal sum.
    shared = [import_module("tribsum.core"), import_module("tribsum.oracle"),
              *(getattr(import_module(mod), n) for mod, ns in kernel.items() for n in ns)]
    assert not any(value is obj for value in vars(module).values() for obj in shared)
