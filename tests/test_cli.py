import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tribsum
import tribsum.sums as sums
from tribsum import _parser, cli, oracle
from tribsum.catalog import list_all, lookup
from tribsum.core import SequenceDef, format_rational, term_matrix
from tribsum.oeis import default_fixture_dir
from tribsum.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_MISMATCH,
    EXIT_OEIS,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _break_fwd_all(monkeypatch, value=999):
    """Make the FwdAll_Generic clause's numerator *value* * D*W_2 for every
    query: Tribonacci's sums (W_2 = 1, gate 2) then read value/2.  The
    BwdAll_Generic sums, forward ones of V_j = W_{2-j}, break with it."""
    row = sums._CLAUSES["FwdAll_Generic"]
    monkeypatch.setitem(sums._CLAUSES, "FwdAll_Generic", row._replace(
        form=lambda r, s, t, o, n: ((0, 0, 0), (0, 0, value))))


class TestTerm:
    def test_catalog_sequence(self, capsys):
        code, out, _ = run(capsys, "term", "--seq", "tribonacci", "--n", "7")
        assert code == EXIT_OK
        assert out.strip() == "24"

    def test_negative_index(self, capsys):
        code, out, _ = run(capsys, "term", "--seq", "perrin", "--n", "-1")
        assert code == EXIT_OK
        assert out.strip() == "-1"

    def test_explicit_parameters(self, capsys):
        code, out, _ = run(capsys, "term",
                           "--r", "2", "--s", "1", "--t", "1",
                           "--w0", "0", "--w1", "1", "--w2", "2",
                           "--n", "5")
        assert code == EXIT_OK
        assert out.strip() == "33"

    def test_rational_parameters(self, capsys):
        code, out, _ = run(capsys, "term",
                           "--r", "1/2", "--s", "1", "--t", "1",
                           "--w0", "0", "--w1", "1", "--w2", "1",
                           "--n", "3")
        assert code == EXIT_OK
        assert out.strip() == "3/2"

    def test_seq_and_explicit_conflict(self, capsys):
        code, _, err = run(capsys, "term", "--seq", "tribonacci",
                           "--r", "1", "--n", "3")
        assert code == EXIT_USAGE
        assert "mutually exclusive" in err

    def test_missing_parameters(self, capsys):
        code, _, err = run(capsys, "term", "--r", "1", "--n", "3")
        assert code == EXIT_USAGE
        assert "--w0" in err

    def test_decimal_rejected(self, capsys):
        code, _, err = run(capsys, "term",
                           "--r", "1.5", "--s", "1", "--t", "1",
                           "--w0", "0", "--w1", "1", "--w2", "1",
                           "--n", "3")
        assert code == EXIT_USAGE

    def test_unknown_sequence(self, capsys):
        code, _, err = run(capsys, "term", "--seq", "fibonacci", "--n", "3")
        assert code == EXIT_USAGE
        assert "unknown sequence" in err

    def test_unknown_sequence_message_unquoted(self, capsys):
        _, _, err = run(capsys, "term", "--seq", "nope", "--n", "3")
        assert err.startswith("error: unknown sequence 'nope'; known keys: tribonacci")

    def test_zero_t_negative_index(self, capsys):
        code, _, _ = run(capsys, "term",
                         "--r", "1", "--s", "1", "--t", "0",
                         "--w0", "0", "--w1", "1", "--w2", "1",
                         "--n", "-2")
        assert code == EXIT_USAGE

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "--format", "json",
                           "term", "--seq", "tribonacci", "--n", "13")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record == {"command": "term", "seq": "tribonacci",
                          "n": 13, "value": "927"}


    def test_output_above_digit_limit(self, capsys):
        # W_20000 has 5293 digits, above the interpreter's default limit of
        # 4300 for int -> str; the limit must be back in place afterwards.
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "--format", "json",
                             "term", "--seq", "tribonacci", "--n", "20000")
        assert (code, err) == (EXIT_OK, "")
        assert sys.get_int_max_str_digits() == limit
        value = json.loads(out)["value"]
        sys.set_int_max_str_digits(0)
        try:
            assert int(value) == term_matrix(lookup("tribonacci").definition, 20000)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(value) == 5293

    def test_digit_limit_guard_before_the_limit_existed(self, monkeypatch):
        """Before Python 3.10.7 there is no int -> str digit limit and no
        setter: _render sets nothing, formats once, and values render."""
        limit = sys.get_int_max_str_digits()
        monkeypatch.delattr(sys, "set_int_max_str_digits")
        seen = []
        monkeypatch.setattr(cli, "format_rational",
                            lambda value: seen.append(sys.get_int_max_str_digits())
                            or format_rational(value))
        assert cli._render(Fraction(-927, 4)) == "-927/4"
        assert seen == [limit]
        assert sys.get_int_max_str_digits() == limit


class TestSum:
    def test_forward_all(self, capsys):
        code, out, _ = run(capsys, "sum", "--seq", "tribonacci",
                           "--dir", "fwd", "--parity", "all", "--n", "10")
        assert code == EXIT_OK
        assert out.strip() == "326 (FwdAll_Generic)"

    def test_degenerate_case(self, capsys):
        code, out, _ = run(capsys, "sum", "--seq", "pell-padovan",
                           "--dir", "fwd", "--parity", "even", "--n", "2")
        assert code == EXIT_OK
        assert out.strip() == "5 (Fwd_021_Even)"

    def test_backward_even(self, capsys):
        code, out, _ = run(capsys, "sum", "--seq", "pell-padovan",
                           "--dir", "bwd", "--parity", "even", "--n", "1")
        assert code == EXIT_OK
        assert out.strip() == "3 (Bwd_021_Even)"

    def test_fallback_case(self, capsys):
        code, out, _ = run(capsys, "sum",
                           "--r", "1", "--s", "1", "--t", "-1",
                           "--w0", "0", "--w1", "1", "--w2", "1",
                           "--dir", "fwd", "--parity", "all", "--n", "6")
        assert code == EXIT_OK
        assert out.strip().endswith("(OracleFallback)")

    def test_check_flag(self, capsys):
        code, out, _ = run(capsys, "--format", "json",
                           "sum", "--seq", "perrin",
                           "--dir", "bwd", "--parity", "odd", "--n", "2",
                           "--check")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["value"] == "1"
        assert record["oracle_checked"] is True
        code, out, _ = run(capsys, "--format", "json",
                           "sum", "--seq", "perrin",
                           "--dir", "bwd", "--parity", "odd", "--n", "2")
        assert code == EXIT_OK
        assert json.loads(out) == {**record, "oracle_checked": False}

    def test_mismatch_above_digit_limit(self, capsys, monkeypatch):
        # The literal sum at n = 17000 has about 4500 digits; reporting the
        # mismatch must not hit the int -> str limit and exit as a usage error.
        _break_fwd_all(monkeypatch)
        code, _, err = run(capsys, "sum", "--seq", "tribonacci",
                           "--dir", "fwd", "--parity", "all", "--n", "17000",
                           "--check")
        assert code == EXIT_MISMATCH
        assert "FwdAll_Generic gave 999" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_separate_negative_fraction(self, capsys, fmt):
        """A rational option takes "-p/q" as its own argument, as it takes
        "--s=-p/q"; --n and the other arguments parse as before."""
        tail = ("--t", "2/9", "--w1", "0", "--w2", "-3", "--dir", "bwd",
                "--parity", "odd", "--n", "40", "--check")
        separate = run(capsys, "--format", fmt, "sum", "--r", "3/7",
                       "--s", "-5/4", "--w0", "-1/2", *tail)
        joined = run(capsys, "--format", fmt, "sum", "--r", "3/7",
                     "--s=-5/4", "--w0=-1/2", *tail)
        assert separate == joined
        code, out, err = separate
        seq = SequenceDef.of("3/7", "-5/4", "2/9", "-1/2", 0, -3)
        assert (code, err) == (EXIT_OK, "")
        assert format_rational(sums.sum_backward_odd(seq, 40).value) in out
        code, out, err = run(capsys, "--format", fmt, "sum", "--seq", "tribonacci",
                             "--dir", "fwd", "--parity", "all", "--n", "-5")
        assert (code, out) == (EXIT_USAGE, "")
        assert "forward sums need n >= 0" in err

    def test_backward_n_zero_rejected(self, capsys):
        code, _, _ = run(capsys, "sum", "--seq", "tribonacci",
                         "--dir", "bwd", "--parity", "all", "--n", "0")
        assert code == EXIT_USAGE

    def test_json_deterministic(self, capsys):
        args = ("--format", "json", "sum", "--seq", "tribonacci",
                "--dir", "fwd", "--parity", "odd", "--n", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        assert json.loads(first)["value"] == "34"


class TestVerify:
    def test_single_sequence(self, capsys):
        code, out, _ = run(capsys, "verify", "--seq", "tribonacci",
                           "--max-n", "20")
        assert code == EXIT_OK
        assert "PASS" in out
        assert "FAIL" not in out

    def test_random_parameter_sets(self, capsys):
        code, out, _ = run(capsys, "verify", "--seq", "tribonacci",
                           "--max-n", "10", "--random", "3", "--seed", "7")
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_json_records(self, capsys):
        code, out, _ = run(capsys, "--format", "json",
                           "verify", "--seq", "perrin", "--max-n", "10")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert records[-1]["suite"] == "total"
        assert records[-1]["status"] == "PASS"


    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_failures_reported(self, capsys, monkeypatch, fmt):
        """Text mode lists failures on stderr; JSON mode keeps stdout pure
        records, the failures inside their suite's record, and stderr empty."""
        _break_fwd_all(monkeypatch)
        code, out, err = run(capsys, "--format", fmt, "verify",
                             "--seq", "perrin", "--max-n", "3")
        assert code == EXIT_MISMATCH
        if fmt == "text":
            assert "formula-vs-oracle: FAIL" in out
            assert "  Perrin (Padovan-Lucas) fwd/all n=0: FwdAll_Generic" in err
            counts = [tuple(map(int, re.search(r"\((\d+) passed, (\d+) failed\)$",
                                               line).groups()))
                      for line in out.splitlines()[:-1]]
            ran, failed = sum(map(sum, counts)), sum(f for _, f in counts)
            assert failed > 0
            assert out.splitlines()[-1] == f"FAIL: {ran} checks, {failed} failed"
            return
        assert err == ""
        records = [json.loads(line) for line in out.splitlines()]
        suite = next(r for r in records if r["suite"] == "formula-vs-oracle")
        assert suite["status"] == "FAIL"
        assert len(suite["failures"]) == suite["failed"] == 7
        # Perrin's W_2 = 2 and gate 1: the broken sums read 2 * 999.  Its V
        # is (-1, 0, 1) from (2, 0, 3), gate -1: (999*3 + 5) / -1.
        assert [f.split(": ")[1].split(",")[0] for f in suite["failures"]] == (
            ["FwdAll_Generic gave 1998"] * 4 + ["BwdAll_Generic gave -3002"] * 3)
        assert records[-1]["status"] == "FAIL"

    def test_huge_failure_reported(self, capsys, monkeypatch):
        """A wrong value past the int-to-str digit limit is a FAIL record
        with its size, not an error."""
        _break_fwd_all(monkeypatch, 10**5000)
        code, out, err = run(capsys, "--format", "json", "verify",
                             "--seq", "tribonacci", "--max-n", "2")
        assert (code, err) == (EXIT_MISMATCH, "")
        records = [json.loads(line) for line in out.splitlines()]
        suite = next(r for r in records if r["suite"] == "formula-vs-oracle")
        assert suite["failed"] == 5
        # Tribonacci's V_2 = W_0 = 0, so the backward sums stay small.
        assert [f.split(": ")[1].split(",")[0] for f in suite["failures"]] == (
            ["FwdAll_Generic gave <16609-bit rational>"] * 3 + ["BwdAll_Generic gave -2"] * 2)


class TestOeisCheck:
    def test_single_fixture_backed(self, capsys):
        code, out, _ = run(capsys, "oeis-check", "--seq", "tribonacci")
        assert code == EXIT_OK
        assert "aligned (shift 1)" in out
        assert "50/50 match" in out

    def test_no_oeis_id_skipped(self, capsys):
        code, out, _ = run(capsys, "oeis-check", "--seq", "pell-perrin")
        assert code == EXIT_OK
        assert "skipped" in out

    def test_missing_fixture_fails(self, capsys):
        code, out, _ = run(capsys, "oeis-check", "--seq", "narayana")
        assert code == EXIT_OEIS
        assert "error" in out

    def test_fixture_dir_override(self, capsys, tmp_path):
        (tmp_path / "b001608.txt").write_text(
            "".join(f"{n} {v}\n" for n, v in enumerate(
                [3, 0, 2, 3, 2, 5, 5, 7, 10, 12, 17, 22, 29, 39, 51])))
        code, out, _ = run(capsys, "oeis-check", "--seq", "perrin",
                           "--count", "12", "--fixture-dir", str(tmp_path))
        assert code == EXIT_OK
        assert "12/12 match" in out

    def test_misaligned_data_fails(self, capsys, tmp_path):
        (tmp_path / "b001608.txt").write_text(
            "".join(f"{n} 0\n" for n in range(40)))
        code, out, _ = run(capsys, "oeis-check", "--seq", "perrin",
                           "--fixture-dir", str(tmp_path))
        assert code == EXIT_OEIS
        assert "no alignment" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_records(self, capsys, tmp_path, fmt):
        """Each of the five outcomes: its exit code, its exact JSON record
        and its exact text line."""
        (tmp_path / "b001608.txt").write_text("".join(f"{n} 0\n" for n in range(40)))
        trib = {"command": "oeis-check", "seq": "tribonacci", "oeis_id": "A000073",
                "status": "aligned", "shift": 1}
        missing = f"no fixture for A078012 at {tmp_path / 'b078012.txt'}"
        cases = [
            (("--seq", "tribonacci"), EXIT_OK,
             {**trib, "matched": 50, "requested": 50, "ok": True},
             "tribonacci: A000073 aligned (shift 1), 50/50 match"),
            (("--seq", "tribonacci", "--count", "3000"), EXIT_OEIS,
             {**trib, "matched": 100, "requested": 3000, "ok": False},
             "tribonacci: A000073 aligned (shift 1), 100/3000 match"),
            (("--seq", "pell-perrin"), EXIT_OK,
             {"command": "oeis-check", "seq": "pell-perrin", "status": "skipped",
              "reason": "no OEIS id"},
             "pell-perrin: skipped: no OEIS id"),
            (("--seq", "narayana", "--fixture-dir", str(tmp_path)), EXIT_OEIS,
             {"command": "oeis-check", "seq": "narayana", "oeis_id": "A078012",
              "status": "error", "reason": missing},
             f"narayana: A078012 error: {missing}"),
            (("--seq", "perrin", "--fixture-dir", str(tmp_path)), EXIT_OEIS,
             {"command": "oeis-check", "seq": "perrin", "oeis_id": "A001608",
              "status": "no-alignment"},
             "perrin: A001608 no alignment found"),
        ]
        for argv, exit_code, record, text in cases:
            code, out, err = run(capsys, "--format", fmt, "oeis-check", *argv)
            assert (code, err) == (exit_code, "")
            if fmt == "json":
                assert [json.loads(line) for line in out.splitlines()] == [record]
            else:
                assert out == text + "\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_shift_other_than_the_catalog_fails(self, capsys, monkeypatch, fmt):
        """All terms matching at a shift the catalog does not record is an
        index-offset regression: exit 4, with the recorded shift shown."""
        entry = lookup("tribonacci")._replace(oeis_offset_shift=2)
        monkeypatch.setattr(cli, "lookup", lambda key: entry)
        code, out, err = run(capsys, "--format", fmt, "oeis-check", "--seq", "tribonacci")
        assert (code, err) == (EXIT_OEIS, "")
        if fmt == "json":
            assert json.loads(out) == {
                "command": "oeis-check", "seq": "tribonacci", "oeis_id": "A000073",
                "status": "aligned", "shift": 1, "matched": 50, "requested": 50,
                "ok": False, "catalog_shift": 2}
        else:
            assert out == ("tribonacci: A000073 aligned (shift 1), 50/50 match, "
                           "catalog shift 2\n")

    def test_oversized_value_is_an_entry_error(self, capsys, tmp_path):
        """A b-file value past the int conversion limit fails its own entry,
        not the run; the limit itself is left as it was."""
        lines = (default_fixture_dir() / "b000073.txt").read_text().splitlines()
        lines[60] = "60 " + "7" * 5000
        (tmp_path / "b000073.txt").write_text("\n".join(lines) + "\n")
        (tmp_path / "b001608.txt").write_text(
            (default_fixture_dir() / "b001608.txt").read_text())
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "--format", "json", "oeis-check",
                             "--fixture-dir", str(tmp_path))
        assert sys.get_int_max_str_digits() == limit
        assert (code, err) == (EXIT_OEIS, "")
        records = {r["seq"]: r for r in map(json.loads, out.splitlines())}
        assert set(records) == {entry.key for entry in list_all()}
        assert records["tribonacci"]["status"] == "error"
        assert records["tribonacci"]["reason"].startswith("line 61: ")
        assert records["perrin"]["ok"] is True

    def test_non_ascii_bfile_is_an_entry_error(self, capsys, tmp_path):
        """A b-file that is not ASCII fails its own entry as MalformedBFile;
        the run goes on to check the others."""
        (tmp_path / "b000073.txt").write_bytes(b"0 0\n1 \xff\n")
        (tmp_path / "b001608.txt").write_text(
            (default_fixture_dir() / "b001608.txt").read_text())
        code, out, err = run(capsys, "--format", "json", "oeis-check",
                             "--fixture-dir", str(tmp_path))
        assert (code, err) == (EXIT_OEIS, "")
        records = {r["seq"]: r for r in map(json.loads, out.splitlines())}
        assert set(records) == {entry.key for entry in list_all()}
        assert records["tribonacci"]["status"] == "error"
        assert "can't decode byte 0xff" in records["tribonacci"]["reason"]
        assert records["perrin"]["ok"] is True


class TestBench:
    def test_reports_speedup(self, capsys):
        code, out, _ = run(capsys, "--format", "json",
                           "bench", "--seq", "tribonacci", "--n", "500")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["case_used"] == "FwdAll_Generic"
        assert record["closed_ns"] > 0 and record["oracle_ns"] > 0

    def test_rows_are_warm_best_of_three(self, capsys, monkeypatch):
        """Before the first clock read, each path has run once: evaluate, and
        the oracle with its sum loop compiled.  Each row then times three
        calls of each path and reports the least."""
        calls = []
        monkeypatch.setattr(oracle, "_SUMS", {})
        for module, name in ((cli, "evaluate"), (oracle, "oracle_sum")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name:
                                calls.append(name) or real(*a))
        reads = []  # (sum loops compiled, calls made) at each clock read

        def perf_counter_ns():
            reads.append((len(oracle._SUMS), len(calls)))
            return len(reads) ** 2  # each later interval is longer
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter_ns=perf_counter_ns))
        code, out, _ = run(capsys, "--format", "json", "bench", "--n", "10", "1000")
        assert code == EXIT_OK
        assert reads[0] == (1, 2) and calls[:2] == ["evaluate", "oracle_sum"]
        assert len(reads) == 2 * 2 * 3 * 2 and len(calls) == 2 + 2 * 2 * 3
        first, second = map(json.loads, out.splitlines())
        # The k-th read is k^2, so the first of each three intervals is the least.
        assert (first["closed_ns"], first["oracle_ns"]) == (3, 15)
        assert (second["closed_ns"], second["oracle_ns"]) == (27, 39)


class TestCatalog:
    def test_lists_all_keys(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 15
        assert lines[0].startswith("tribonacci")
        assert any("pell-perrin" in line and line.rstrip().endswith("-")
                   for line in lines)

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "catalog")
        records = [json.loads(line) for line in out.splitlines()]
        assert code == EXIT_OK
        assert [r["key"] for r in records] == [
            "tribonacci", "tribonacci-lucas", "third-order-pell",
            "third-order-pell-lucas", "third-order-modified-pell",
            "padovan", "perrin", "padovan-perrin", "pell-padovan",
            "pell-perrin", "jacobsthal-padovan", "jacobsthal-perrin",
            "narayana", "third-order-jacobsthal",
            "third-order-jacobsthal-lucas"]
        assert records[0]["display_name"] == "Tribonacci"
        for record in records:
            assert record["display_name"] == lookup(record["key"]).definition.name


class TestJsonErrors:
    def json_error(self, capsys, *argv):
        code, out, err = run(capsys, "--format", "json", *argv)
        assert out == ""
        [line] = err.splitlines()
        record = json.loads(line)
        assert record["status"] == "error"
        assert record["exit"] == code
        return code, record

    def test_unknown_sequence(self, capsys):
        code, record = self.json_error(capsys, "term", "--seq", "nope",
                                       "--n", "3")
        assert code == EXIT_USAGE
        assert record["command"] == "term"
        assert record["error"] == "UnknownSequence"
        assert record["message"].startswith("unknown sequence 'nope'; known keys:")

    def test_bench_empty_seq(self, capsys):
        """An empty --seq is an unknown key for bench, as it is for term."""
        code, record = self.json_error(capsys, "bench", "--seq", "",
                                       "--n", "10")
        _, term_record = self.json_error(capsys, "term", "--seq", "",
                                         "--n", "10")
        assert code == EXIT_USAGE
        assert record == {**term_record, "command": "bench"}
        assert record["error"] == "UnknownSequence"

    def test_verify_unknown_seq(self, capsys):
        """An unknown --seq is an error for verify, as it is for term."""
        code, record = self.json_error(capsys, "verify", "--seq", "nosuch",
                                       "--max-n", "3")
        _, term_record = self.json_error(capsys, "term", "--seq", "nosuch",
                                         "--n", "3")
        assert code == EXIT_USAGE
        assert record == {**term_record, "command": "verify"}
        assert record["error"] == "UnknownSequence"

    @pytest.mark.parametrize("argv, message", [
        (("oeis-check", "--seq", "tribonacci", "--count", "-5"),
         "--count must be at least 1, not -5"),
        (("oeis-check", "--seq", "tribonacci", "--count", "0"),
         "--count must be at least 1, not 0"),
        (("verify", "--seq", "tribonacci", "--max-n", "-3"),
         "--max-n must be at least 0, not -3"),
        (("verify", "--seq", "tribonacci", "--random", "-2"),
         "--random must be at least 0, not -2"),
        (("bench", "--n", "10", "-3"), "--n must be at least 0, not -3"),
    ], ids=["count-negative", "count-zero", "max-n-negative", "random-negative",
            "bench-n-negative"])
    def test_bad_count(self, capsys, argv, message):
        code, record = self.json_error(capsys, *argv)
        assert code == EXIT_USAGE
        assert record == {"command": argv[0], "status": "error",
                          "error": "ValueError", "message": message,
                          "exit": EXIT_USAGE}
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_negative_index_zero_t(self, capsys):
        code, record = self.json_error(capsys, "term",
                                       "--r", "1", "--s", "1", "--t", "0",
                                       "--w0", "0", "--w1", "1", "--w2", "1",
                                       "--n", "-2")
        assert code == EXIT_USAGE
        assert record["error"] == "NegativeIndexWithZeroT"

    @pytest.mark.parametrize("r, s", [("1", "1"), ("1/2", "1/2")],
                             ids=["closed-form", "fallback"])
    def test_backward_sum_zero_t(self, capsys, r, s):
        """A backward sum with t = 0 fails with one message, whichever path
        the triple would dispatch to."""
        argv = ("sum", "--r", r, "--s", s, "--t", "0", "--w0", "0", "--w1", "1",
                "--w2", "1", "--dir", "bwd", "--parity", "all", "--n", "3")
        message = "stepping back needs t != 0"
        code, record = self.json_error(capsys, *argv)
        assert code == EXIT_USAGE
        assert record == {"command": "sum", "status": "error",
                          "error": "NegativeIndexWithZeroT", "message": message,
                          "exit": EXIT_USAGE}
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_check_mismatch(self, capsys, monkeypatch):
        _break_fwd_all(monkeypatch)
        code, record = self.json_error(capsys, "sum", "--seq", "tribonacci",
                                       "--dir", "fwd", "--parity", "all",
                                       "--n", "10", "--check")
        assert code == EXIT_MISMATCH
        assert record["command"] == "sum"
        assert record["error"] == "SumMismatch"
        assert "FwdAll_Generic gave 999" in record["message"]

    def test_bench_mismatch(self, capsys, monkeypatch):
        _break_fwd_all(monkeypatch)
        code, record = self.json_error(capsys, "bench", "--n", "10")
        assert code == EXIT_MISMATCH
        assert record == {"command": "bench", "status": "error",
                          "error": "SumMismatch",
                          "message": "mismatch at n=10", "exit": EXIT_MISMATCH}

    @pytest.mark.parametrize("argv, command, message", [
        (("term", "--seq", "tribonacci", "--n", "abc"), "term",
         "argument --n: invalid int value: 'abc'"),
        (("sum", "--seq", "tribonacci", "--dir", "up", "--parity", "all",
          "--n", "3"), "sum", "argument --dir: invalid choice: 'up'"),
        (("catalog", "--bogus"), "catalog", "unrecognized arguments: --bogus"),
        ((), None, "the following arguments are required: subcommand"),
        (("term", "--seq", "tribonacci", "--n", "-5/4"), "term",
         "argument --n: expected one argument"),
        (("term", "--seq", "tribonacci", "--n", "3", "--s"), "term",
         "argument --s: expected one argument"),
        (("term", "--seq", "tribonacci", "--n", "1_3"), "term",
         "argument --n: invalid int value: '1_3'"),
        (("term", "--seq", "tribonacci", "--n", "\u0661\u0663"), "term",
         "argument --n: invalid int value: '\u0661\u0663'"),
        (("verify", "--seed", "\u0661"), "verify",
         "argument --seed: invalid int value: '\u0661'"),
        (("bench", "--n", "10", "1_0"), "bench",
         "argument --n: invalid int value: '1_0'"),
        (("term", "--seq", "tribonacci", "--n", "1" * 5000), "term",
         f"argument --n: invalid int value: '{'1' * 5000}'"),
        (("term", "--r", "-x", "--s", "1", "--t", "1", "--w0", "0", "--w1", "1",
          "--w2", "1", "--n", "3"), "term", "argument --r: expected one argument"),
    ], ids=["bad-int", "bad-choice", "unrecognized", "no-subcommand",
            "n-negative-fraction", "s-without-value", "n-underscore",
            "n-non-ascii", "seed-non-ascii", "bench-n-underscore",
            "n-past-digit-limit", "r-not-a-literal"])
    def test_argparse_error(self, capsys, argv, command, message):
        code, record = self.json_error(capsys, *argv)
        assert code == EXIT_USAGE
        assert record["command"] == command
        assert record["error"] == "UsageError"
        assert record["message"].startswith(message)

    @pytest.mark.parametrize("n", ["+13", " 13 ", "-13"])
    def test_signed_int_accepted(self, capsys, n):
        """Integer options take a sign and padding, as rational literals do."""
        code, out, err = run(capsys, "term", "--seq", "tribonacci", "--n", n)
        expected = term_matrix(lookup("tribonacci").definition, int(n))
        assert (code, out, err) == (EXIT_OK, f"{format_rational(expected)}\n", "")

    @pytest.mark.parametrize("r", ["1/0", "+3/00"])
    def test_zero_denominator(self, capsys, r):
        code, record = self.json_error(capsys, "term", "--r", r, "--s", "1",
                                       "--t", "1", "--w0", "0", "--w1", "1",
                                       "--w2", "1", "--n", "3")
        assert record == {"command": "term", "status": "error",
                          "error": "ValueError",
                          "message": f"not an exact rational literal: {r!r}",
                          "exit": EXIT_USAGE}

    @pytest.mark.parametrize("option, value", [("--r", "-3/00"), ("--w0", "-1e5")])
    def test_malformed_negative_literal(self, capsys, option, value):
        """A separate value that looks negative is taken as the option's
        value and rejected as a literal, not reported as missing."""
        params = {"--r": "1", "--s": "1", "--t": "1", "--w0": "0", "--w1": "1",
                  "--w2": "1", option: value}
        code, record = self.json_error(
            capsys, "term", *(a for item in params.items() for a in item), "--n", "3")
        assert record == {"command": "term", "status": "error",
                          "error": "ValueError",
                          "message": f"not an exact rational literal: {value!r}",
                          "exit": EXIT_USAGE}

    def test_argparse_error_text_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["term", "--seq", "tribonacci", "--n", "abc"])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("usage: tribsum term ")
        assert captured.err.endswith(
            "tribsum term: error: argument --n: invalid int value: 'abc'\n")

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    def test_help_and_usage_as_argparse_lays_them_out(self, capsys, monkeypatch, columns):
        """The parser's formatter, which reads the terminal width late, lays
        out every help and usage text as argparse's own formatter does."""
        monkeypatch.setenv("COLUMNS", columns)
        argvs = [["--help"], *([name, "--help"] for name in
                               ("term", "sum", "verify", "oeis-check", "bench", "catalog")),
                 [], ["term", "--seq", "tribonacci", "--n", "abc"], ["bogus"]]

        def texts():
            out = []
            for argv in argvs:
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                out.append((exc.value.code, *capsys.readouterr()))
            return out

        ours = texts()
        monkeypatch.setattr(_parser, "_HelpFormatter", argparse.HelpFormatter)
        assert ours == texts()
        assert all((out or err).startswith("usage: tribsum") for _, out, err in ours)

    def test_formatter_has_only_the_late_width(self):
        """The formatter's lazy attributes are the width and help position
        alone; any other missing name is an AttributeError, so hasattr is
        False and reading it sets no width."""
        formatter = _parser._HelpFormatter("tribsum")
        assert not hasattr(formatter, "no_such_name")
        assert "_width" not in vars(formatter)
        assert formatter._width == argparse.HelpFormatter("tribsum")._width

    def test_text_mode_unchanged(self, capsys, monkeypatch):
        _break_fwd_all(monkeypatch)
        code, out, err = run(capsys, "bench", "--n", "10")
        assert (code, err) == (EXIT_MISMATCH, "mismatch at n=10\n")
        code, _, err = run(capsys, "sum", "--seq", "tribonacci", "--dir", "fwd",
                           "--parity", "all", "--n", "10", "--check")
        assert code == EXIT_MISMATCH
        assert err.startswith("mismatch: FwdAll_Generic gave 999")


# Modules a cold term, sum, catalog or oeis-check call must not load.
_COLD_UNUSED = {"dataclasses", "inspect", "importlib.resources", "tribsum.verify",
                "tribsum.identities"}

_COLD_SCRIPT = """
import contextlib, io, json, sys
import argparse, enum, fractions, json, re, typing
baseline = set(sys.modules)
from tribsum import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["--format", "json", *argv]) for argv in (
        ["term", "--seq", "tribonacci", "--n", "20000"],
        ["sum", "--r", "3/7", "--s", "-5/4", "--t", "2/9", "--w0", "1/2", "--w1", "0",
         "--w2", "-3", "--dir", "bwd", "--parity", "odd", "--n", "40", "--check"],
        ["catalog"], ["oeis-check", "--seq", "tribonacci"])]
    after = set(sys.modules)
    codes.append(cli.main(["verify", "--seq", "perrin", "--max-n", "3"]))
print(json.dumps({"codes": codes, "baseline": sorted(baseline), "after": sorted(after),
                  "verify": sorted(set(sys.modules) - after)}))
"""


def test_cold_cli_loads_only_what_it_uses():
    """A fresh interpreter running term, sum, catalog and oeis-check loads
    none of _COLD_UNUSED beyond what its baseline stdlib imports load;
    verify then loads both of the package's verification modules."""
    src = str(Path(tribsum.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _COLD_SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    seen = json.loads(out)
    assert seen["codes"] == [EXIT_OK] * 5
    loaded = set(seen["after"]) - set(seen["baseline"])
    assert {"tribsum.cli", "tribsum.sums", "tribsum.oeis"} <= loaded
    assert loaded & _COLD_UNUSED == set()
    assert {"tribsum.verify", "tribsum.identities"} <= set(seen["verify"])


_CASE_SCRIPT = """
import contextlib, io, json, sys
import tribsum
code = 0
with contextlib.redirect_stdout(io.StringIO()):
    {statement}
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "tribsum")]))
"""

_CLI = "from tribsum.cli import main; code = main({argv!r})"
_SUM = ["sum", "--seq", "tribonacci", "--dir", "fwd", "--parity", "all", "--n", "13"]
_LOOKED_UP = {"tribsum", "tribsum.catalog", "tribsum.core"}


@pytest.mark.parametrize("statement, loaded", [
    ("pass", {"tribsum"}),
    ('tribsum.lookup("tribonacci")', _LOOKED_UP),
    (_CLI.format(argv=["term", "--seq", "tribonacci", "--n", "13"]), _LOOKED_UP | {"tribsum.cli"}),
    (_CLI.format(argv=["catalog"]), _LOOKED_UP | {"tribsum.cli"}),
    (_CLI.format(argv=_SUM), _LOOKED_UP | {"tribsum.cli", "tribsum.sums"}),
    (_CLI.format(argv=[*_SUM, "--check"]),
     _LOOKED_UP | {"tribsum.cli", "tribsum.sums", "tribsum.oracle"}),
    (_CLI.format(argv=["oeis-check", "--seq", "tribonacci"]),
     _LOOKED_UP | {"tribsum.cli", "tribsum.oeis", "tribsum.oracle"}),
    ("import tribsum.identities", {"tribsum", "tribsum.core", "tribsum.identities"}),
], ids=["import", "lookup", "term", "catalog", "sum", "sum-check", "oeis-check", "identities"])
def test_fresh_interpreter_loads_exactly(statement, loaded):
    """Each case in its own interpreter loads exactly these package modules:
    the package itself loads no submodule, a subcommand only its own, a sum
    the oracle only to check its closed form, and identities, the
    per-sequence transcriptions checked against the literal sum, neither
    sums nor the oracle."""
    src = str(Path(tribsum.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _CASE_SCRIPT.format(statement=statement)],
                         env=env, check=True, capture_output=True, text=True).stdout
    code, modules = json.loads(out)
    assert (code, set(modules)) == (EXIT_OK, loaded)


# Loaded with pathlib, which only fixture paths need, and with shutil, which
# only argparse's terminal width for help and usage text needs.
_PATH_MODULES = {"pathlib", "urllib.parse", "ipaddress", "ntpath", "fnmatch"}
_WIDTH_MODULES = {"shutil", "bz2", "lzma"}

# Annotations are builtin syntax, so no call loads these.
_ANNOTATION_MODULES = {"typing", "__future__"}

# It lists the modules before it loads json to print them, and again after
# oeis-check and verify, which write JSON records.
_NO_PATH_SCRIPT = """
import contextlib, io, sys
from tribsum import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in (
        ["term", "--seq", "tribonacci", "--n", "20000"],
        ["sum", "--r", "3/7", "--s", "-5/4", "--t", "2/9", "--w0", "1/2", "--w1", "0",
         "--w2", "-3", "--dir", "bwd", "--parity", "odd", "--n", "40", "--check"],
        ["catalog"])]
    modules = sorted(sys.modules)
    codes += [cli.main(["--format", "json", *argv]) for argv in (
        ["oeis-check", "--seq", "tribonacci"], ["verify", "--seq", "perrin", "--max-n", "3"])]
import json
print(json.dumps({"codes": codes, "modules": modules, "all": sorted(sys.modules)}))
"""


def test_cold_cli_term_sum_catalog_skip_pathlib():
    """Without site (-S), so no .pth file preloads them, a fresh term, sum
    and catalog run in text mode loads none of _PATH_MODULES and
    _WIDTH_MODULES: it formats no help, so it reads no terminal width.  It
    writes no JSON record, so it loads no json either.  Neither they nor
    oeis-check and verify in JSON load _ANNOTATION_MODULES."""
    src = str(Path(tribsum.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", _NO_PATH_SCRIPT], env=env,
                         check=True, capture_output=True, text=True).stdout
    seen = json.loads(out)
    assert seen["codes"] == [EXIT_OK] * 5
    assert "tribsum.cli" in seen["modules"]
    assert set(seen["modules"]) & (_PATH_MODULES | _WIDTH_MODULES | {"json"}) == set()
    assert {"tribsum.oeis", "tribsum.verify", "json"} <= set(seen["all"])
    assert set(seen["all"]) & _ANNOTATION_MODULES == set()


# Loaded by argparse, which only help, usage and error text needs.
_ARGPARSE_MODULES = {"argparse", "gettext", "locale"}

# Canonical command lines (full option names, negative values included), each
# in text and JSON, and an error whose JSON record needs no escaping.  It
# lists the modules before it loads json to print them.
_CANONICAL_SCRIPT = """
import contextlib, io, sys
baseline = set(sys.modules)
from tribsum import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    codes = [cli.main([*fmt, *argv]) for fmt in ([], ["--format", "json"]) for argv in (
        ["term", "--seq", "tribonacci", "--n", "20000"],
        ["term", "--seq", "tribonacci", "--n", "-13"],
        ["term", "--r", "3/7", "--s", "5/4", "--t", "2/9", "--w0", "1/2", "--w1", "0",
         "--w2", "3", "--n", "300"],
        ["sum", "--r", "3/7", "--s", "5/4", "--t", "2/9", "--w0", "1/2", "--w1", "0",
         "--w2", "3", "--dir", "bwd", "--parity", "odd", "--n", "40", "--check"],
        ["sum", "--r", "3/7", "--s", "-5/4", "--t", "2/9", "--w0", "1/2", "--w1", "0",
         "--w2", "-3", "--dir", "bwd", "--parity", "odd", "--n", "40", "--check"],
        ["catalog"], ["oeis-check", "--seq", "tribonacci"],
        ["verify", "--seq", "perrin", "--max-n", "3"],
        ["term", "--seq", "nosuch", "--n", "3"])]
loaded = sorted(set(sys.modules) - baseline)
import json
print(json.dumps({"codes": codes, "baseline": sorted(baseline), "loaded": loaded,
                  "out": out.getvalue(), "err": err.getvalue()}))
"""


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_canonical_cold_calls_load_no_argparse(flags):
    """A fresh interpreter reads canonical term (a negative --n too), sum (a
    negative literal too), catalog, oeis-check and verify command lines
    from cli's option table: in text and in JSON, none of _ARGPARSE_MODULES
    loads.  Nor does json, although the JSON records, an error's among
    them, are written and parse as JSON."""
    src = str(Path(tribsum.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, *flags, "-c", _CANONICAL_SCRIPT], env=env,
                         check=True, capture_output=True, text=True).stdout
    seen = json.loads(out)
    assert seen["codes"] == ([EXIT_OK] * 8 + [EXIT_USAGE]) * 2
    assert {"tribsum.cli", "tribsum.verify"} <= set(seen["loaded"])
    assert set(seen["loaded"]) & (_ARGPARSE_MODULES | {"tribsum._parser", "json"}) == set()
    assert "json" not in seen["baseline"]
    if flags:
        assert set(seen["baseline"]) & _ARGPARSE_MODULES == set()
    records = [json.loads(line) for line in seen["out"].splitlines() if line[:1] == "{"]
    assert [r["command"] for r in records if r.get("suite", "total") == "total"] == [
        "term", "term", "term", "sum", "sum", *["catalog"] * 15, "oeis-check", "verify"]
    error = json.loads(seen["err"].splitlines()[-1])
    assert (error["error"], error["exit"]) == ("UnknownSequence", EXIT_USAGE)
    assert seen["err"].startswith("error: unknown sequence 'nosuch'")


_HELP_SCRIPT = """
import contextlib, io, json, sys
from tribsum import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        code = cli.main({argv!r})
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, out.getvalue(), err.getvalue(), "argparse" in sys.modules]))
"""

_TERM_USAGE = """\
usage: tribsum term [-h] [--seq SEQ] [--r R] [--s S] [--t T] [--w0 W0]
                    [--w1 W1] [--w2 W2] --n N
"""

# At 80 columns, as Python 3.10-3.13 all lay them out.
_HELP_TEXTS = [
    (["--help"], 0, """\
usage: tribsum [-h] [--format {text,json}]
               {term,sum,verify,oeis-check,bench,catalog} ...

Exact terms and closed-form partial sums of generalized Tribonacci sequences.

positional arguments:
  {term,sum,verify,oeis-check,bench,catalog}
    term                evaluate W_n at a signed index
    sum                 evaluate a partial sum
    verify              run the verification sweeps
    oeis-check          compare catalog sequences against OEIS b-files
    bench               time closed-form sums against the naive sum
    catalog             list the built-in sequences

options:
  -h, --help            show this help message and exit
  --format {text,json}
""", ""),
    (["term", "--help"], 0, _TERM_USAGE + """
options:
  -h, --help  show this help message and exit
  --seq SEQ   catalog key (see the catalog subcommand)
  --r R       rational literal, 'p' or 'p/q'
  --s S       rational literal, 'p' or 'p/q'
  --t T       rational literal, 'p' or 'p/q'
  --w0 W0     rational literal, 'p' or 'p/q'
  --w1 W1     rational literal, 'p' or 'p/q'
  --w2 W2     rational literal, 'p' or 'p/q'
  --n N
""", ""),
    (["term", "--seq", "tribonacci", "--n", "abc"], EXIT_USAGE, "", _TERM_USAGE
     + "tribsum term: error: argument --n: invalid int value: 'abc'\n"),
]


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
@pytest.mark.parametrize("argv, code, out, err", _HELP_TEXTS,
                         ids=["help", "term-help", "bad-int"])
def test_help_and_usage_still_from_argparse(flags, argv, code, out, err):
    """Help and usage errors load argparse in a fresh interpreter and print
    the text argparse's parser has always printed."""
    src = str(Path(tribsum.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    seen = subprocess.run([sys.executable, *flags, "-c", _HELP_SCRIPT.format(argv=argv)],
                          env=env, check=True, capture_output=True, text=True).stdout
    assert json.loads(seen) == [code, out, err, True]


_HUGE = "1" * 4301  # past the interpreter's int conversion limit

# Each subcommand's required (or run-time bounding) options, then optional
# pieces: canonical ones, and some argparse alone reads.
_SKELETONS = {
    "term": [("--seq", "tribonacci"), ("--n", "7")],
    "sum": [("--seq", "perrin"), ("--dir", "bwd"), ("--parity", "odd"), ("--n", "4")],
    "verify": [("--seq", "perrin"), ("--max-n", "2")],
    "oeis-check": [("--seq", "tribonacci")],
    "bench": [("--n", "10", "1000")],
    "catalog": [],
}
_PIECES = {
    "term": [("--seq", "perrin"), ("--n", "13"), ("--r", "1/2"), ("--s", "1"),
             ("--t", "1"), ("--w0", "0"), ("--w1", "1"), ("--w2", "2")],
    "sum": [("--seq", "tribonacci"), ("--dir", "fwd"), ("--parity", "all"),
            ("--n", "5"), ("--check",), ("--dir", "up"), ("--r", "1")],
    "verify": [("--max-n", "1"), ("--random", "1"), ("--seed", "3"), ("--seed", "x")],
    "oeis-check": [("--seq", "perrin"), ("--count", "5"), ("--count", "3000"),
                   ("--fixture-dir", "no-such-dir")],
    "bench": [("--seq", "perrin"), ("--n", "10")],
    "catalog": [()],  # it has no options
}
_OTHER = [("-h",), ("--help",), ("--se", "tribonacci"), ("--n=7",), ("--n", "-3"),
          ("--n", _HUGE), ("--n", "-" + _HUGE), ("--bogus", "1"), ("--r", "-1/2"),
          ("--n", "abc"), ("--check",), ("--format", "json"), ("extra",), ("--par", "all"),
          ("--seq",), ("--", "7"), ("--w", "1"), ("--n", "-0"), ("--n", "-1_3"),
          ("--n", "-\u0661\u0662"), ("--n", "-.5"), ("--r", "-3/00"), ("--r", "-.5")]
_PREFIXES = st.sampled_from([[], ["--format", "text"], ["--format", "json"]]) | st.sampled_from(
    [["--format=json"], ["--form", "json"], ["--format", "xml"], ["-h"],
     ["--format", "json", "--format", "text"]])


@st.composite
def command_lines(draw):
    """A prefix, a subcommand and its pieces in any order, each required
    piece dropped now and then, each optional piece possibly repeated."""
    prefix = draw(_PREFIXES)
    name = draw(st.sampled_from(sorted(_SKELETONS)))
    pieces = [piece for piece in _SKELETONS[name] if draw(st.integers(0, 7))]
    pieces += draw(st.lists(st.sampled_from(_PIECES[name]), max_size=3, unique=True))
    pieces += draw(st.lists(st.sampled_from(_OTHER), max_size=2))
    pieces = draw(st.permutations(pieces))
    return [*prefix, name, *(token for piece in pieces for token in piece)]


_CANONICAL = [
    ["term", "--seq", "tribonacci", "--n", "7"],
    ["--format", "json", "term", "--r", "1/2", "--s", "1", "--t", "1", "--w0", "0",
     "--w1", "1", "--w2", "2", "--n", "+13"],
    ["--format", "text", "sum", "--check", "--n", "4", "--parity", "odd", "--dir", "bwd",
     "--seq", "perrin"],
    ["verify"], ["verify", "--max-n", "1", "--random", "1", "--seed", "3"],
    ["oeis-check", "--fixture-dir", "", "--count", "5"], ["bench"],
    ["bench", "--seq", "perrin"], ["catalog"], ["--format", "json", "catalog"],
    ["term", "--seq", "tribonacci", "--n", "-3"],
    ["term", "--r", "-1/2", "--s", "1", "--t", "1", "--w0", "0", "--w1", "1", "--w2", "1",
     "--n", "3"],
]


def _argparse(argv):
    """The namespace main's argparse path makes of *argv*, "-p/q" joined."""
    args = SimpleNamespace()
    assert _parser.parse(cli.build_parser(), list(argv), args, cli._PARAM_OPTIONS) is None
    return vars(args)


@pytest.mark.parametrize("argv", _CANONICAL)
def test_table_reader_reads_canonical_lines(argv):
    """The option table's reader reads each canonical command line to the
    namespace argparse makes of it."""
    read = cli._read(list(argv))
    assert read is not None
    assert vars(read) == _argparse(argv)


@pytest.mark.parametrize("argv", [
    ["--format=json", "catalog"], ["--form", "json", "catalog"], ["--format", "xml", "catalog"],
    ["--format", "json", "--format", "json", "catalog"], ["-h"], ["catalog", "-h"],
    ["catalog", "--help"], [], ["bogus"], ["catalog", "extra"], ["catalog", "--format", "json"],
    ["term", "--seq", "tribonacci", "--n", "3", "--n", "3"], ["term", "--se", "tribonacci", "--n", "3"],
    ["term", "--seq", "tribonacci", "--n=3"], ["term", "--seq", "tribonacci", "--n", "-1_3"],
    ["term", "--seq", "tribonacci", "--n", "-\u0661\u0662"],
    ["term", "--seq", "tribonacci", "--n", "-13\t"], ["term", "--seq", "-13", "--n", "3"],
    ["term", "--r", "-x", "--s", "1", "--t", "1", "--w0", "0", "--w1", "1", "--w2", "1",
     "--n", "3"],
    ["term", "--seq", "tribonacci", "--n", "abc"], ["term", "--seq", "tribonacci", "--n", _HUGE],
    ["term", "--seq", "tribonacci"], ["term", "--seq", "tribonacci", "--n"],
    ["sum", "--seq", "perrin", "--dir", "up", "--parity", "odd", "--n", "4"],
    ["sum", "--seq", "perrin", "--dir", "bwd", "--parity", "odd", "--n", "4", "--check", "--check"],
    ["verify", "--max-n", "--", "3"], ["bench", "--n", "10"], ["bench", "--n", "10", "1000"],
], ids=["format-joined", "format-abbreviated", "format-choice", "format-repeated", "help",
        "command-help-short", "command-help", "no-command", "unknown-command", "positional",
        "format-after-command", "repeated", "abbreviated", "joined", "negative-underscore",
        "negative-non-ascii", "negative-tab", "negative-string-option",
        "parameter-not-a-literal", "bad-int", "past-digit-limit", "missing-required",
        "missing-value", "bad-choice", "repeated-flag", "double-dash", "list-option",
        "list-option-two"])
def test_table_reader_leaves_the_rest_to_argparse(argv):
    assert cli._read(list(argv)) is None


@given(argv=command_lines())
@settings(max_examples=1000, deadline=None)
def test_table_reader_agrees_with_argparse(argv):
    """Wherever the option table's reader returns a namespace, argparse
    parses the same command line to an equal one."""
    read = cli._read(list(argv))
    if read is not None:
        assert vars(read) == _argparse(argv)


@given(argv=command_lines())
@settings(max_examples=100, deadline=None)
def test_any_command_line_ends_cleanly(argv):
    """main on any of these command lines returns or exits with a
    documented code and raises nothing else; in JSON a failing call writes
    exactly one JSON record on stderr, and any other call nothing."""
    prefix = argv[:next(i for i, arg in enumerate(argv) if arg in _SKELETONS)]
    as_json = prefix[-1:] == ["json"] or prefix == ["--format=json"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            assert exc.code in (EXIT_OK, EXIT_USAGE)
            assert not (as_json and exc.code == EXIT_USAGE)
            return
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_OEIS)
    if as_json and code == EXIT_USAGE:
        [line] = err.splitlines()
        assert json.loads(line)["exit"] == code
    elif as_json:
        assert err == ""


# The keys of every record the CLI writes, and values of any JSON type a
# record holds: any text (quotes, backslashes, control characters, non-ASCII,
# astral and lone surrogates), ASCII and printable ASCII, ints, bools, None,
# lists of strings and floats, NaN and infinities among them.
_RECORD_KEYS = ["case_used", "catalog_shift", "closed_ns", "command", "dir", "display_name",
                "error", "exit", "failed", "failures", "initial", "key", "matched", "message",
                "n", "oeis_id", "oeis_ids", "ok", "oracle_checked", "oracle_ns", "params",
                "parity", "passed", "reason", "requested", "seq", "shift", "speedup", "status",
                "suite", "value"]
_TEXT = (st.text(st.characters(exclude_categories=()) | st.characters(categories=["Cs"])
                 | st.sampled_from('"\\')) | st.text(st.characters(max_codepoint=0x7F))
         | st.from_regex(r"[ -~]*", fullmatch=True))
_RECORD_VALUES = (_TEXT | st.integers() | st.booleans() | st.none() | st.lists(_TEXT, max_size=3)
                  | st.floats())


@given(record=st.dictionaries(st.sampled_from(_RECORD_KEYS), _RECORD_VALUES, max_size=8))
@settings(max_examples=500, deadline=None)
@example(record={"command": "term", "seq": None, "n": -13, "value": "18"})
@example(record={"message": "unknown sequence 'no\"such'", "failures": ["\\", "\ud800"],
                 "speedup": float("nan"), "ok": True})
@example(record={"message": "no\"such"})
@example(record={"failures": ["back\\slash"]})
@example(record={"reason": "café"})
@example(record={"reason": "tab\there"})
@example(record={"seq": "\x7f"})
def test_record_writer_writes_what_json_writes(record):
    """Each record is written byte for byte as json writes it.  The one-field
    examples each break one condition of a plain string, which any other
    non-plain field in the same record would hide."""
    assert cli._dumps(record) == json.dumps(record, sort_keys=True)


def test_reader_closing_pipe_early_exits_quietly():
    """W_300000 has about 79,000 digits, more than a pipe buffer holds, so
    the write fails once the reader has closed its end."""
    src = str(Path(tribsum.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen([sys.executable, "-m", "tribsum.cli", "term", "--seq",
                           "tribonacci", "--n", "300000"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert head.isdigit() and len(head) == 10
    assert (code, err) == (EXIT_BROKEN_PIPE, b"")
