"""The package namespace: every public name loads on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tribsum

# The 43 public names, the five submodules among them.
PUBLIC = [
    "AlignmentReport", "BFile", "CatalogEntry", "Direction", "FixtureMissing",
    "FormulaCase", "MalformedBFile", "MultiplicationCounter", "NegativeIndexWithZeroT",
    "Parity", "RecurrenceParams", "SequenceDef", "SumMismatch", "SumQuery", "SumResult",
    "UnknownSequence", "align", "as_rational", "catalog", "closed_form_value", "core",
    "evaluate", "fetch_bfile", "format_rational",
    "list_all", "lookup", "oeis", "oracle", "oracle_sum", "oracle_term", "parse_bfile",
    "select_case", "sum_backward_all", "sum_backward_even", "sum_backward_odd",
    "sum_forward_all", "sum_forward_even", "sum_forward_odd", "sum_oracle", "sums",
    "term_iterative", "term_matrix", "window",
]

_STAR_SCRIPT = """
import json
import tribsum
listed = dir(tribsum)
names = {}
exec("from tribsum import *", names)
print(json.dumps([listed, sorted(set(names) - {"__builtins__"})]))
"""


def test_all_names_resolve():
    assert sorted(tribsum.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(tribsum, name) is not None
        assert name in dir(tribsum)


def test_unknown_name():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tribsum.no_such_name
    assert not hasattr(tribsum, "no_such_name")


def test_star_import_binds_every_name():
    """In a fresh interpreter dir() lists every name before any is loaded,
    and ``from tribsum import *`` binds them all."""
    src = str(Path(tribsum.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _STAR_SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    listed, bound = json.loads(out)
    assert set(PUBLIC) <= set(listed)
    assert bound == PUBLIC


def test_one_object_per_name():
    assert tribsum.SumMismatch is tribsum.sums.SumMismatch is tribsum.core.SumMismatch
    assert tribsum.term_iterative is tribsum.oracle_term is tribsum.oracle.term_iterative
    assert tribsum.Direction is tribsum.sums.Direction is tribsum.core.Direction
