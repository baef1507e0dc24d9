"""Self-test of the benchmark itself.

    python3 tribbench/test_bench.py          (or: python3 -m pytest tribbench)

Checks that inputs are a pure function of the seed, that both reference
paths agree, that a corrupted expected value is caught as a failure, that
every emitted metric is declared in BENCHMARK.json under a valid name, and
that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import worker  # noqa: E402
import workloads as wl  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "tribbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_same_seed_same_queries():
    for workload in wl.WORKLOADS:
        first = wl.generate(workload, 7)
        assert first == wl.generate(workload, 7), workload
        assert first != wl.generate(workload, 8), workload


def test_reference_paths_agree():
    """The streamed residue equals the residue of tribsum.oracle's exact value."""
    from tribsum import Direction, Parity, SumQuery, oracle

    seqs = ["tribonacci", "jacobsthal-padovan", ["1/2", "-3", "7/5", "2", "-1/3", "1"]]
    for seq in seqs:
        definition = wl.sequence_def(seq)
        for direction, parity in wl.FAMILIES:
            for n in (1, 2, 37):
                query = {"op": "sum", "dir": direction, "parity": parity, "n": n}
                exact = oracle.oracle_sum(definition, SumQuery(
                    Direction(direction), Parity(parity), n))
                assert wl.literal_residue(wl.param_strings(seq), query) == wl.residue(exact)
        for n in (-40, -1, 0, 2, 41):
            query = {"op": "term", "n": n}
            exact = oracle.oracle_term(definition, n)
            assert wl.literal_residue(wl.param_strings(seq), query) == wl.residue(exact)


def corrupt(want):
    if want[0] == "mod":
        return ["mod", wl.residue(Fraction(1))]
    if want[0] == "sha256":
        return ["sha256", "0" * 64]
    return want[1:]  # catalog keys: drop the first


def test_corrupted_expected_value_fails():
    library = [{"op": "sum", "seq": "tribonacci", "dir": "fwd", "parity": "odd",
                "n": 40, "check": False},
               {"op": "term", "seq": "padovan", "n": 3_000},
               {"op": "sum", "seq": ["1/2", "1", "-3", "0", "1", "1"], "dir": "bwd",
                "parity": "even", "n": 12, "check": True}]
    cli = [{"op": "cli", "expect": "value",
            "argv": ["--format", "json", "term", "--n", "30", "--seq", "tribonacci"]},
           {"op": "cli", "expect": "catalog", "argv": ["catalog"]}]
    for queries in (library, cli):
        expected = [wl.expected(q) for q in queries]
        spec = {"root": str(ROOT), "queries": queries, "expected": expected, "mode": "timed"}
        clean = worker.Runner(spec).run_passes(passes=1)
        assert clean["statuses"] == {"ok": len(queries)}
        for i in range(len(queries)):
            corrupted = expected[:i] + [corrupt(expected[i])] + expected[i + 1:]
            result = worker.Runner(dict(spec, expected=corrupted)).run_passes(passes=1)
            assert result["statuses"] == {"ok": len(queries) - 1, "wrong": 1}, (queries[i])
    assert [wl.expected(q)[0] for q in library] == ["sha256", "mod", "sha256"]


def test_declared_metrics_are_valid():
    doc = declared()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_emitted_metrics_are_declared():
    doc = declared()
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run_bench("--workload", "rational-small", "--seed", "3",
                         "--seconds", "0.1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        emitted = result["metrics"]
        assert all(NAME_RE.fullmatch(name) for name in emitted)
        assert set(emitted) == {m["name"] for m in doc[section]}
        units = {m["name"]: m["unit"] for m in doc[section]}
        assert all(v["unit"] == units[name] for name, v in emitted.items())


def test_refuses_to_run_without_sources():
    bare = ROOT / ".tribbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "tribbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("--workload", "catalog-ladder", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
