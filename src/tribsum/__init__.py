"""Exact-arithmetic generalized Tribonacci terms and closed-form partial sums.

Each public name loads its submodule on first use (PEP 562), so ``import
tribsum`` compiles no submodule and a caller loads only what it touches.
"""

from importlib import import_module as _import

# Public name -> the submodule defining it; a submodule's own name maps to itself.
_SOURCE = {name: module for module, names in (
    ("catalog", "catalog CatalogEntry UnknownSequence list_all lookup"),
    ("core", "core Direction MultiplicationCounter NegativeIndexWithZeroT Parity "
             "RecurrenceParams SequenceDef SumMismatch SumQuery as_rational "
             "format_rational term_matrix window"),
    ("oeis", "oeis AlignmentReport BFile FixtureMissing MalformedBFile align "
             "fetch_bfile parse_bfile"),
    ("oracle", "oracle oracle_sum oracle_term term_iterative"),
    ("sums", "sums FormulaCase SumResult closed_form_value evaluate select_case "
             "sum_backward_all sum_backward_even sum_backward_odd sum_forward_all "
             "sum_forward_even sum_forward_odd sum_oracle"),
) for name in names.split()}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import(f"{__name__}.{_SOURCE[name]}")
    if name != _SOURCE[name]:
        value = getattr(value, name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE))
