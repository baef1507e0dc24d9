"""Closed-loop worker: runs one workload's query list in a fresh interpreter.

Reads a JSON spec on stdin and prints one JSON result line on stdout.  One
caller issues one query at a time, in whole passes over the list, until
the time is up.  Answers are checked after each query, outside the timed
region.

In traced mode the worker first runs untraced passes for half the time,
then the same number of passes with spans recorded around the calls into
each tribsum module's public functions.  Library sums are split into
select_case / closed_form_value / sum_oracle pieces next to evaluate, and
CLI invocations run in-process through ``cli.main`` with the module-level
functions it calls wrapped.  Spans stay in memory and are written out when
the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import resource
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import workloads as wl

# Terms up to this |index| are also computed by term_iterative in the
# traced run, so both kernels are timed on the same indices.
KERNEL_COMPARE_MAX = 2_048
CLI_TIMEOUT_S = 150


# The host is a shared VM whose speed switches between two levels about
# 1.4x apart, for seconds to minutes at a time.  A fixed probe of Fraction
# and bignum arithmetic (the same kinds of work as tribsum) runs around
# every timed call; each call's time is scaled by PROBE_REF_NS over the
# probe's time, giving reference-speed nanoseconds.  PROBE_REF_NS is the
# probe's time on that host at its faster level (2-vCPU Intel Xeon VM,
# Python 3.11), so there the scaled and wall times agree.
PROBE_REF_NS = 240_000


def probe_ns() -> int:
    """Wall time of one fixed probe, about 0.24 ms at reference speed."""
    t0 = time.perf_counter_ns()
    a, b, x = Fraction(3, 7), Fraction(5, 11), 7 ** 400
    y = x
    for _ in range(25):
        a = a * b + Fraction(1, 3)
    for _ in range(40):
        y = y * x % (x + 12345)
    return time.perf_counter_ns() - t0


def scaled(call):
    """Run *call* between two probes; return (result, raw ns, scaled ns)."""
    before = probe_ns()
    t0 = time.perf_counter_ns()
    result = call()
    raw = time.perf_counter_ns() - t0
    return result, raw, raw * 2 * PROBE_REF_NS / (before + probe_ns())


class PieceMismatch(AssertionError):
    """The traced pieces of a query disagreed with evaluate()."""


class Tracer:
    """In-memory spans: [name, parent index, query id, start ns, end ns]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1
        self.failed: dict[str, int] = defaultdict(int)
        self.checks = 0
        self.max_bits = 0

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, self.stack[-1] if self.stack else -1, self.query,
                  time.perf_counter_ns(), 0]
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield
        except Exception:
            self.failed[name] += 1
            raise
        finally:
            record[4] = time.perf_counter_ns()
            self.stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def note_bits(self, value) -> None:
        self.max_bits = max(self.max_bits, value.numerator.bit_length(),
                            value.denominator.bit_length())

    def layer_totals(self) -> tuple[dict, dict, dict]:
        """calls, busy ns and self ns per span name."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, int] = defaultdict(int)
        child: dict[int, int] = defaultdict(int)
        for name, parent, _, start, end in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, int] = defaultdict(int)
        for index, (name, _, _, start, end) in enumerate(self.spans):
            own[name] += end - start - child[index]
        return calls, busy, own

    def kernel_in_sums_ns(self) -> int:
        """term_matrix time spent under closed_form_value."""
        spans = self.spans
        return sum(end - start for name, parent, _, start, end in spans
                   if name == "core.term_matrix" and parent >= 0
                   and spans[parent][0] == "sums.closed_form_value")


@contextlib.contextmanager
def patched(targets):
    """Temporarily replace module attributes: [(module, name, new value)]."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in targets]
    try:
        for module, name, value in targets:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


class Runner:
    def __init__(self, spec: dict):
        self.root = Path(spec["root"])
        self.queries = spec["queries"]
        self.expected = spec["expected"]
        self.is_cli = all(q["op"] == "cli" for q in self.queries)
        self.in_process = spec["mode"] == "traced"
        self.tracer: Tracer | None = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + [p for p in [self.env.get("PYTHONPATH")] if p])
        if not self.is_cli:
            import tribsum

            self.lib = tribsum
            self.prepared = [self._prepare(q) for q in self.queries]

    # ------------------------------------------------------------ library

    def _prepare(self, query: dict):
        lib = self.lib
        seq = wl.sequence_def(query["seq"])
        if query["op"] == "term":
            return seq, query["n"], None
        return seq, lib.SumQuery(lib.Direction(query["dir"]), lib.Parity(query["parity"]),
                                 query["n"]), query["check"]

    def call_library(self, i: int):
        seq, query, check = self.prepared[i]
        if self.tracer is not None:
            return self._traced_library(seq, query, check)
        if check is None:
            return self.lib.term_matrix(seq, query)
        return self.lib.evaluate(seq, query, check).value

    def _traced_term(self, seq, k: int):
        tr, lib = self.tracer, self.lib
        with tr.span("core.term_matrix"):
            value = lib.term_matrix(seq, k, self.counter)
        if abs(k) <= KERNEL_COMPARE_MAX:
            with tr.span("core.term_iterative"):
                other = lib.term_iterative(seq, k)
            if other != value:
                raise PieceMismatch(f"term_iterative != term_matrix at {k}")
        tr.note_bits(value)
        return value

    def _traced_library(self, seq, query, check):
        tr, lib = self.tracer, self.lib
        if check is None:
            return self._traced_term(seq, query)
        with tr.span("sums.evaluate"):
            result = lib.evaluate(seq, query, check)
        with tr.span("sums.select_case"):
            case = lib.select_case(seq.params, query)
        if case is lib.FormulaCase.OracleFallback:
            with tr.span("sums.sum_oracle"):
                value = lib.sum_oracle(seq, query)
        else:
            with tr.span("sums.closed_form_value"):
                value = lib.closed_form_value(case, seq, query.n,
                                              term=lambda k: self._traced_term(seq, k))
        if check:
            with tr.span("sums.sum_oracle"):
                literal = lib.sum_oracle(seq, query)
            if literal != value:
                raise PieceMismatch("sum_oracle disagrees with the closed form")
        if case is not result.case_used or value != result.value:
            raise PieceMismatch(f"pieces ({case.name}) disagree with evaluate "
                                f"({result.case_used.name})")
        return value

    def check_library(self, i: int, value):
        kind, want = self.expected[i]
        if wl.fingerprint(kind, value) == want:
            return "ok", None
        return "wrong", f"{kind} fingerprint differs"

    # ---------------------------------------------------------------- cli

    def call_cli(self, i: int):
        argv = self.queries[i]["argv"]
        if self.in_process:
            return self._cli_in_process(argv)
        proc = subprocess.run([sys.executable, "-m", "tribsum.cli", *argv],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def _cli_in_process(self, argv):
        from tribsum import cli

        out, err = io.StringIO(), io.StringIO()
        subcommand = next(a for a in argv if not a.startswith("-") and a != "json")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if self.tracer is None:
                    code = cli.main(argv)
                else:
                    with self.tracer.span(f"cli.{subcommand}"):
                        code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue(), err.getvalue()

    def check_cli(self, i: int, outcome):
        code, stdout, stderr = outcome
        expect, want = self.queries[i]["expect"], self.expected[i]
        lines = stdout.strip().splitlines()
        if code != 0:
            detail = f"exit {code}: {stderr.strip()[:80]}"
            return ("wrong" if expect == "verify" and code == 3 else "error"), detail
        try:
            if expect == "catalog":
                ok = [line.split()[0] for line in lines] == want
            elif expect == "verify":
                total = json.loads(lines[-1])
                ok = (total["suite"], total["status"], total["failed"]) == ("total", "PASS", 0)
            elif expect == "oeis":
                record = json.loads(lines[-1])
                ok = (record["status"], record["ok"], record["oeis_id"],
                      record["shift"], record["matched"]) == (
                    "aligned", True, want["oeis_id"], want["shift"], want["matched"])
            else:
                value = wl.parse_rational(json.loads(lines[-1])["value"])
                ok = wl.fingerprint(want[0], value) == want[1]
        except (ValueError, KeyError, IndexError):
            ok = False
        return ("ok", None) if ok else ("wrong", "unexpected output")

    def cli_patches(self):
        from tribsum import cli, identities, oracle, verify

        tr = self.tracer
        counter = self.counter
        cli_term_matrix = cli.term_matrix

        def term_matrix(seq, n):
            value = cli_term_matrix(seq, n, counter)
            tr.note_bits(value)
            return value

        def sweep(name, fn):
            def traced(*args, **kwargs):
                with tr.span(f"verify.{name}"):
                    report = fn(*args, **kwargs)
                tr.checks += report.passed + report.failed
                return report
            return traced

        targets = [
            (cli, "format_rational", tr.wrap("core.format_rational", cli.format_rational)),
            (cli, "align", tr.wrap("oeis.align", cli.align)),
            (cli, "lookup", tr.wrap("catalog.lookup", cli.lookup)),
            (cli, "evaluate", tr.wrap("sums.evaluate", cli.evaluate)),
            (cli, "term_matrix", tr.wrap("core.term_matrix", term_matrix)),
            (oracle, "oracle_sum", tr.wrap("oracle.oracle_sum", oracle.oracle_sum)),
            (identities, "SUM_IDENTITIES", [
                dataclasses.replace(ident, clause=tr.wrap("identities.clause", ident.clause))
                for ident in identities.SUM_IDENTITIES]),
        ]
        targets += [(verify, name, sweep(name, getattr(verify, name)))
                    for name in ("sweep_formula_vs_oracle", "sweep_parity_partition",
                                 "sweep_specializations", "sweep_identities")]
        return patched(targets)

    # -------------------------------------------------------------- loops

    def run_passes(self, seconds: float = 0.0, passes: int = 0):
        """Whole passes until *seconds* have elapsed, or exactly *passes*
        passes when given.  Raw and scaled latencies are kept per query, one
        entry per pass."""
        call = self.call_cli if self.is_cli else self.call_library
        check = self.check_cli if self.is_cli else self.check_library
        raw: list[list[int]] = [[] for _ in self.queries]
        latencies: list[list[float]] = [[] for _ in self.queries]
        statuses: dict[str, int] = defaultdict(int)
        errors: dict[str, int] = defaultdict(int)
        start = time.perf_counter()
        done = 0
        while True:
            for i in range(len(self.queries)):
                if self.tracer is not None:
                    self.tracer.query = done * len(self.queries) + i
                t0 = time.perf_counter_ns()
                try:
                    outcome, wall, scaled_ns = scaled(lambda: call(i))
                    failure = None
                except PieceMismatch as exc:
                    failure = ("wrong", exc)
                except Exception as exc:  # a failed query is counted, not fatal
                    failure = ("error", exc)
                if failure is None:
                    status, detail = check(i, outcome)
                else:
                    # A raised query has no probe after it; its wall time stands.
                    wall = scaled_ns = time.perf_counter_ns() - t0
                    status = failure[0]
                    detail = f"{type(failure[1]).__name__}: {str(failure[1])[:80]}"
                raw[i].append(wall)
                latencies[i].append(scaled_ns)
                statuses[status] += 1
                if detail is not None:
                    errors[detail] += 1
            done += 1
            elapsed = time.perf_counter() - start
            if (done >= passes) if passes else (elapsed >= seconds):
                break
        return {"latencies_ns": latencies, "raw_ns": raw, "statuses": dict(statuses),
                "errors": dict(errors), "passes": done, "wall_s": elapsed}

    def timed(self, seconds: float) -> dict:
        result = self.run_passes(seconds)
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_kb"] = max(self_kb, child_kb)
        return result

    def traced(self, seconds: float, trace_path: Path) -> dict:
        from tribsum import MultiplicationCounter

        plain = self.run_passes(seconds / 2)
        self.tracer = Tracer()
        self.counter = MultiplicationCounter()
        with self.cli_patches() if self.is_cli else contextlib.nullcontext():
            result = self.run_passes(passes=plain["passes"])
        result["layers"] = self.layer_metrics(result["passes"])
        result["layers"]["trace.overhead_frac"] = result["wall_s"] / plain["wall_s"] - 1
        result["shares"] = self.shares()
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({"passes": result["passes"],
                                          "spans": self.tracer.spans}))
        return result

    def layer_metrics(self, passes: int) -> dict:
        tr = self.tracer
        calls, busy, own = tr.layer_totals()
        layers = {"core.term_matrix.products": self.counter.count / passes,
                  "core.term.max_bits": tr.max_bits,
                  "core.format_rational.failed": tr.failed["core.format_rational"] / passes,
                  "verify.checks": tr.checks / passes}
        for name in set(calls):
            layers[f"{name}.calls"] = calls[name] / passes
            layers[f"{name}.busy_s"] = busy[name] / passes / 1e9
            layers[f"{name}.self_s"] = own[name] / passes / 1e9
        return layers

    def shares(self) -> dict:
        """Shares of sums.evaluate busy time, from the split pieces."""
        _, busy, own = self.tracer.layer_totals()
        total = busy.get("sums.evaluate", 0)
        if not total:
            return {}
        return {"core.term_matrix": self.tracer.kernel_in_sums_ns() / total,
                "sums.closed_form_value.self": own.get("sums.closed_form_value", 0) / total,
                "sums.select_case": busy.get("sums.select_case", 0) / total,
                "sums.sum_oracle": busy.get("sums.sum_oracle", 0) / total}


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    runner = Runner(spec)
    if spec["mode"] == "traced":
        result = runner.traced(spec["seconds"], Path(spec["trace_path"]))
    else:
        result = runner.timed(spec["seconds"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
