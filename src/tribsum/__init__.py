"""Exact-arithmetic generalized Tribonacci terms and closed-form partial sums."""

from .catalog import CatalogEntry, UnknownSequence, list_all, lookup
from .core import (
    MultiplicationCounter,
    NegativeIndexWithZeroT,
    RecurrenceParams,
    SequenceDef,
    as_rational,
    format_rational,
    term_matrix,
    window,
)
from .oeis import (
    AlignmentReport,
    AlignmentStatus,
    BFile,
    FixtureMissing,
    MalformedBFile,
    align,
    fetch_bfile,
    parse_bfile,
)
from .oracle import oracle_sum, oracle_term, oracle_term as term_iterative
from .sums import (
    Denominators,
    Direction,
    FormulaCase,
    Parity,
    SumMismatch,
    SumQuery,
    SumResult,
    closed_form_value,
    denominators,
    evaluate,
    select_case,
    sum_backward_all,
    sum_backward_even,
    sum_backward_odd,
    sum_forward_all,
    sum_forward_even,
    sum_forward_odd,
    sum_oracle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
