"""Print one SHA-256 over the library's values on a fixed grid, so that two
trees can be compared value for value:

    python ci/values_digest.py

Sequences: the 15 catalog entries; 50 rational draws (random.Random(42),
numerators and denominators in [-9, 9]); 10 draws each on d1 = 0, d2 = 0,
s = 1 and r + t = 0; (0, 2, 1); and two t = 0 triples.  Values: term_matrix
and oracle_term at n in [-40, 40]; evaluate (value and case), select_case
and oracle_sum in all six families up to n = 40; closed_form_value for
every case at n = 0, 5, ..., 40, with and without term=oracle_term.  A call
that raises is hashed by its error's type name.  Only the functions hashed
are called, so no change elsewhere (verify's helpers, say) moves the grid.
"""

import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tribsum.catalog import list_all  # noqa: E402
from tribsum.core import Direction, Parity, SequenceDef, SumQuery, term_matrix  # noqa: E402
from tribsum.oracle import oracle_sum, oracle_term  # noqa: E402
from tribsum.sums import FormulaCase, closed_form_value, evaluate, select_case  # noqa: E402

DENOMINATORS = [d for d in range(-9, 10) if d]


def sequences() -> list[SequenceDef]:
    rng = random.Random(42)

    def draw():
        return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))

    def seq(r, s, t):
        return SequenceDef.of(r, s, t, draw(), draw(), draw())

    seqs = [entry.definition for entry in list_all()]
    seqs += [seq(draw(), draw(), draw()) for _ in range(50)]
    for plane in (lambda r, s: (r, s, 1 - r - s),  # d1 = 0
                  lambda r, s: (r, s, s - r - 1),  # d2 = 0
                  lambda r, t: (r, 1, t),          # s = 1
                  lambda s, t: (-t, s, t)):        # r + t = 0
        seqs += [seq(*plane(draw(), draw())) for _ in range(10)]
    return seqs + [seq(0, 2, 1), seq(draw(), draw(), 0), seq(draw(), draw(), 0)]


def show(value) -> str:
    if isinstance(value, FormulaCase):
        return value.name
    if isinstance(value, tuple):  # a SumResult
        return " ".join(map(show, value))
    return str(value)


def main() -> None:
    digest = hashlib.sha256()

    def record(call, *args, **kwargs):
        try:
            text = show(call(*args, **kwargs))
        except (ArithmeticError, ValueError) as error:
            text = type(error).__name__
        digest.update(f"{text}\n".encode())

    for seq in sequences():
        for n in range(-40, 41):
            record(term_matrix, seq, n)
            record(oracle_term, seq, n)
        for direction in Direction:
            for parity in Parity:
                for n in range(direction is Direction.BACKWARD, 41):
                    query = SumQuery(direction, parity, n)
                    record(evaluate, seq, query)
                    record(select_case, seq.params, query)
                    record(oracle_sum, seq, query)
        for case in FormulaCase:
            for n in range(0, 41, 5):
                record(closed_form_value, case, seq, n)
                record(closed_form_value, case, seq, n, term=lambda k: oracle_term(seq, k))
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
