import os
import subprocess
import sys
from pathlib import Path

import pytest

import tribsum
from tribsum.catalog import lookup
from tribsum.oeis import (
    BFile,
    FixtureMissing,
    MalformedBFile,
    align,
    default_fixture_dir,
    fetch_bfile,
    parse_bfile,
)


class TestParse:
    def test_basic(self):
        bfile = parse_bfile("0 3\n1 0\n2 2\n", "A001608")
        assert bfile == ("A001608", 0, (3, 0, 2))
        assert bfile.value_at(2) == 2

    def test_comments_and_blanks_skipped(self):
        bfile = parse_bfile("# header comment\n\n1 5\n2 6\n")
        assert (bfile.offset, bfile.values) == (1, (5, 6))

    def test_negative_values(self):
        bfile = parse_bfile("-2 -7\n-1 0\n0 1\n")
        assert bfile.offset == -2
        assert bfile.values == (-7, 0, 1)
        assert bfile.value_at(-2) == -7

    def test_garbage_line_rejected(self):
        with pytest.raises(MalformedBFile):
            parse_bfile("0 1\nnot a data line\n")

    def test_non_ascii_digit_rejected(self):
        with pytest.raises(MalformedBFile, match="cannot parse"):
            parse_bfile("0 1\n1 \u0663\n")

    def test_index_gap_rejected(self):
        with pytest.raises(MalformedBFile):
            parse_bfile("0 1\n2 3\n")
        with pytest.raises(MalformedBFile, match=r"^line 4: index 6 breaks contiguity "
                                                 r"\(previous 4\)$"):
            parse_bfile("3 1\n4 2\n\n6 3\n")

    def test_value_past_digit_limit_rejected(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(MalformedBFile, match=r"^line 3: "):
            parse_bfile("0 1\n# comment\n1 " + "9" * 5000 + "\n")
        assert sys.get_int_max_str_digits() == limit

    def test_empty_rejected(self):
        with pytest.raises(MalformedBFile):
            parse_bfile("# only a comment\n")

    def test_value_at_out_of_range(self):
        bfile = parse_bfile("0 1\n1 2\n")
        with pytest.raises(IndexError):
            bfile.value_at(5)

    @pytest.mark.parametrize("offset", [-2, 0, 3])
    def test_value_at_reads_values_from_offset(self, offset):
        bfile = BFile("A000001", offset, (5, 7, 9))
        assert bfile.value_at(offset) == 5
        assert bfile.value_at(offset + 1) == 7
        assert bfile.value_at(offset + 2) == 9
        for index in (offset - 1, offset + 3):
            with pytest.raises(IndexError, match=rf"^index {index} outside b-file range$"):
                bfile.value_at(index)


class TestAlign:
    def test_identity_shift(self, perrin):
        bfile = fetch_bfile("A001608")
        report = align(perrin, bfile)
        assert report.shift == 0
        assert report.matched_terms >= 50

    def test_positive_shift(self, tribonacci):
        # A000073 starts 0, 0, 1, 1, ... so our W_n sits one index later.
        bfile = fetch_bfile("A000073")
        report = align(tribonacci, bfile)
        assert report.shift == 1
        assert report.matched_terms >= 50

    def test_negative_shift(self):
        entry = lookup("third-order-pell")
        report = align(entry.definition, fetch_bfile("A077939"))
        assert report.shift == -1

    def test_deep_shift(self):
        entry = lookup("padovan")
        report = align(entry.definition, fetch_bfile("A000931"))
        assert report.shift == 5
        assert report.matched_terms >= 50

    def test_no_alignment(self, tribonacci):
        zeros = BFile("A000000", 0, (0,) * 40)
        report = align(tribonacci, zeros)
        assert report == ("A000000", None, 0)

    def test_catalog_shifts_confirmed(self):
        for key in ("tribonacci", "tribonacci-lucas", "third-order-pell",
                    "padovan", "perrin", "padovan-perrin"):
            entry = lookup(key)
            report = align(entry.definition, fetch_bfile(entry.primary_oeis_id))
            assert report.shift == entry.oeis_offset_shift, key


class TestFetch:
    def test_bundled_fixture_dir_exists(self):
        assert default_fixture_dir().is_dir()

    def test_fixture_missing(self):
        with pytest.raises(FixtureMissing):
            fetch_bfile("A999999")

    def test_invalid_id(self):
        with pytest.raises(FixtureMissing):
            fetch_bfile("A999999x")

    @pytest.mark.parametrize("oeis_id", ["A\u0660\u0660\u0660\u0660\u0667\u0663",
                                         "A000073\n"], ids=["non-ascii", "newline"])
    def test_id_must_be_six_ascii_digits(self, oeis_id):
        with pytest.raises(FixtureMissing, match="not a valid OEIS ID: "):
            fetch_bfile(oeis_id)

    def test_explicit_dir_overrides(self, tmp_path):
        (tmp_path / "b000073.txt").write_text("5 99\n6 98\n")
        bfile = fetch_bfile("A000073", fixture_dir=Path(tmp_path))
        assert bfile.offset == 5

    @pytest.mark.parametrize("content", [b"0 0\n1 \xff\n", "0 0\n1 \u0663\n".encode()],
                             ids=["0xff", "utf-8-digit"])
    def test_non_ascii_malformed(self, tmp_path, content):
        (tmp_path / "b000073.txt").write_bytes(content)
        with pytest.raises(MalformedBFile, match="can't decode"):
            fetch_bfile("A000073", fixture_dir=tmp_path)


def test_import_leaves_network_modules_unloaded():
    src = str(Path(tribsum.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, tribsum; "
            "print(sorted(m for m in ('urllib.request', 'http.client') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
