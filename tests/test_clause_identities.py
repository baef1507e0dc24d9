"""Every closed-form clause in :mod:`tribsum.sums` holds for every triple of
its condition, every W and every n: a proof from each clause's defining
identity, which runs no kernel, no oracle, no ``closed_form_value`` and no
``evaluate``.

A clause is a pair (rho, kappa) of coefficient rows with, at o = 1,

    gate * S(n) = rho . W(m) + kappa . W(0),

with W(k) = (W_k, W_k+1, W_k+2).  The rows, gate and m proved are the ones
``sums._clause`` states on W from each case's row in ``sums._CLAUSES``,
which ``_combine`` reads, for every case, the backward ones that step back
to V_j = W_{2-j} included.

With M = [[0, 1, 0], [0, 0, 1], [t, s, r]], W(k) = M^k W(0) and
W_k = e0 M^k W(0), e0 = (1, 0, 0).  A family has a stride
a, 1 for all-index sums and 2 otherwise, and a term offset b, 1 for odd
sums and 0 otherwise: it sums W_(a j + b) over j = 0..n forward and
W_(b - a j) over j = 1..n backward.
A clause's window starts at m = a n + c forward and m = c - a n backward,
c its window offset, which its row gives (for a case that steps back, V's
forward row and the shift of n).  W(0) is
arbitrary, so the clause holds for all W exactly when the rows agree:
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
clauses are even/odd, c = 0 forward) carries to every n.  The other
clauses have k1 = 0, and there the three checks are the two identities
above.

Give W_j weight j, so that r, s and t weigh 1, 2 and 3.  Entry (i, j) of
M^k is then a polynomial of weight k + i - j: of degree at most k, and at
most (k + 2)/3 in t.  The rows and the gate have degree at most 2, as
written in sums.py or, for a case that steps back, as sums.py's forward
rows at V's integer triple sign(t)*(-s, -r, 1, t); that sign enters rho,
kappa and the gate of degree k as sign(t)^k alike, so it scales both sides
of an identity by the same factor.  Outside the (0, 2, 1) clauses, which
are checked at their one triple, the powers reach at most M^4 (kappa M^4 in
the backward all-index and even bases).  So both sides of each identity
are rows of polynomials of degree at most 6, and at most 4 in t; on the
planes s = 1 and r = -t, where the rows have degree at most 1, of degree
at most 5 in the two free variables.  A polynomial of
degree at most d_v in each variable v that vanishes on a grid of d_v + 1
points per variable is zero (Alon, Combinatorial Nullstellensatz, 1999,
Lemma 2.1).  The generic clauses are proved on r, s, t in {-3, ..., 3};
the s = 1 clauses on that plane, with r, t on the grid; the r + t = 0
clauses on r = -t, with s, t on the grid; and the (0, 2, 1) clauses at
their one triple.  A case that steps back has no V at t = 0, so its grid
leaves t = 0 out and keeps six values of t.  rho, the gate and c must not
depend on n, and kappa at most linearly, so reading them at the first n and
the next gives rho, k0 and k1.
"""

import sys
from fractions import Fraction
from importlib import import_module
from itertools import product
from types import CodeType, FunctionType

import pytest

from tribsum import sums
from tribsum.sums import Direction, Parity

E0 = (1, 0, 0)
ZERO = (0, 0, 0)
AXIS = [Fraction(x) for x in range(-3, 4)]
CASES = [case for case in sums.FormulaCase if case is not sums.FormulaCase.OracleFallback]


def grid(case: sums.FormulaCase) -> list[tuple[Fraction, Fraction, Fraction]]:
    """The triples a case is proved on: its condition's, less t = 0 for a
    backward case that steps back to V."""
    direction, _, condition = case.value
    if condition == "generic":
        points = list(product(AXIS, repeat=3))
    elif condition == "s=1":
        points = [(r, Fraction(1), t) for r, t in product(AXIS, repeat=2)]
    elif condition == "r+t=0":
        points = [(-t, s, t) for s, t in product(AXIS, repeat=2)]
    else:
        assert condition == "021"
        return [(Fraction(0), Fraction(2), Fraction(1))]
    if direction is Direction.BACKWARD:
        points = [point for point in points if point[2] != 0]
    return points


def w_rows(case: sums.FormulaCase, n: int, r, s, t) -> tuple:
    """(rho, kappa, gate, m) with gate * S(n) = rho . W(m) + kappa . W(0):
    the identity sums._clause states on the set-up (r, s, t, 1)."""
    return sums._clause(sums._CLAUSES[case.name], n, (r, s, t, 1))


def times(row, matrix, k: int = 1):
    """row . matrix^k, a row of three by a 3x3 matrix k times."""
    assert k >= 0
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
    direction, parity, _ = case.value
    forward = direction is Direction.FORWARD
    a, b, first = 1 if parity is Parity.ALL else 2, int(parity is Parity.ODD), int(not forward)
    M = ((0, 1, 0), (0, 0, 1), (t, s, r))
    rho, kappa, gate, m = w_rows(case, first, r, s, t)
    rho_next, kappa_next, gate_next, m_next = w_rows(case, first + 1, r, s, t)
    assert (rho_next, gate_next, m_next - m) == (rho, gate, a if forward else -a)
    c = m - a * first if forward else m + a * first
    row = sums._CLAUSES[case.name]
    if row.back is None:
        assert (row.stride, row.offset) == (a if forward else -a, c)
    else:  # V's forward window at n + shift: V(m) is W(-m) reversed
        name, shift, _ = row.back
        assert (sums._CLAUSES[name].stride, -sums._CLAUSES[name].offset - a * shift) == (a, c)
    k1 = minus(kappa_next, kappa)
    moved = minus(times(rho, M, a), rho)  # rho (M^a - I)
    if forward:
        assert k1 == ZERO or c == 0
        step = plus(moved, k1), scaled(gate, times(E0, M, a + b - c))
        base = plus(times(rho, M, c), kappa), scaled(gate, times(E0, M, b))
    else:
        step = (plus(scaled(-1, moved), times(k1, M, 2 * a - c)),
                scaled(gate, times(E0, M, b - c)))
        base = plus(rho, times(kappa, M, a - c)), scaled(gate, times(E0, M, b - c))
    return [(minus(times(k1, M, a), k1), ZERO), step, base]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_clause_identities(case):
    points = grid(case)
    failed = [point for point in points
              if any(left != right for left, right in identities(case, *point))]
    assert not failed, f"{len(failed)} of {len(points)} points, first {failed[0]}"


@pytest.mark.parametrize("case", [case for case in CASES if case.value[0] is Direction.BACKWARD],
                         ids=lambda case: case.name)
def test_gate_vanishes_with_the_condition(case):
    """The gate of the identity sums._clause states, V's for a case that
    steps back, is 0 exactly where the case's own gate at W is: a sum it
    dispatches to never divides by 0, and one it does not is not a closed
    form there."""
    for point in grid(case):
        gate = w_rows(case, 1, *point)[2]
        assert bool(gate) == bool(sums._CLAUSES[case.name].gate(*point))


def test_binds_no_kernel_code():
    """The proof names no kernel, oracle, combine or set-up, so it shares no
    code with what it proves beyond the clause rows, their gates and the
    identities sums._clause states."""
    module = sys.modules[__name__]
    names, codes = set(), [value.__code__ for value in vars(module).values()
                           if isinstance(value, FunctionType)]
    while codes:
        code = codes.pop()
        names |= set(code.co_names)
        codes += [const for const in code.co_consts if isinstance(const, CodeType)]
    assert {"gate", "_clause", "_CLAUSES"} <= names
    kernel = {"tribsum.sums": ("closed_form_value", "evaluate", "_combine", "sum_oracle"),
              "tribsum.core": ("scaled_window", "integer_triple", "reversed_set_up",
                               "term_matrix"),
              "tribsum.oracle": ("oracle_sum", "oracle_term", "prefix_sums", "term_table")}
    assert names.isdisjoint({"core", "oracle", *(n for ns in kernel.values() for n in ns)})
    # Imported here: sums loads the oracle only on its first literal sum.
    shared = [import_module("tribsum.core"), import_module("tribsum.oracle"),
              *(getattr(import_module(mod), n) for mod, ns in kernel.items() for n in ns)]
    assert not any(value is obj for value in vars(module).values() for obj in shared)
