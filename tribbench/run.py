"""tribsum benchmark: run one workload for one seed and print its metrics.

    python3 tribbench/run.py --workload catalog-ladder --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The package is imported from
``src/`` of that checkout; nothing needs installing.  With ``--trace 0``
the last stdout line holds the end-to-end metrics declared in
BENCHMARK.json, with ``--trace 1`` the per-layer ones.  The line before it
records the run: machine, Python, source state, sample count and failures.
Expected answers are cached per seed under ``.tribbench/cache`` and traces
are written to ``.tribbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from worker import scaled

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".tribbench"

SETUP_REPEATS = 4       # fresh interpreters before and again after the timed loop
RUN_LIMIT_S = 170


def fail(message: str) -> None:
    print(f"tribbench: {message}", file=sys.stderr)
    sys.exit(2)


def current_cpu() -> int:
    """The CPU this process is running on (field 39 of /proc/self/stat)."""
    try:
        with open("/proc/self/stat") as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return min(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def source_info() -> dict:
    """Digest and line count of src/tribsum/*.py, and the commit if known."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "tribsum").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16], "src_lines": lines}


def bench_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(BENCH_DIR.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def measure_setup() -> list[float]:
    """Scaled seconds from a fresh interpreter to a finished catalog lookup."""
    argv = [sys.executable, "-c", "import tribsum; tribsum.lookup('tribonacci')"]
    return [scaled(lambda: subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                                          capture_output=True))[2] / 1e9
            for _ in range(SETUP_REPEATS)]


def load_expected(workload: str, seed: int, queries: list, tree: str) -> list:
    """Expected answers, computed outside any timed region and cached per seed."""
    key = hashlib.sha256(json.dumps(queries).encode() + tree.encode()).hexdigest()[:16]
    path = OUT / "cache" / f"{workload}-{seed}-{key}.json"
    if path.is_file():
        return json.loads(path.read_text())
    expected = [wl.expected(q) for q in queries]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(expected))
    tmp.replace(path)
    return expected


def run_worker(spec: dict, deadline: float) -> dict:
    """Run the worker in a new process group, so a timeout also stops the CLI
    processes it started."""
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(json.dumps(spec),
                                    timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("worker ran past the time limit")
    if proc.returncode != 0:
        sys.stderr.write(err)
        fail(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def nearest_rank(sorted_values: list, q: float):
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def per_query(latencies: list) -> list:
    """Each distinct query's median over its passes, sorted."""
    return sorted(statistics.median(runs) for runs in latencies)


def end_to_end(result: dict, setup_s: float) -> dict:
    """Percentiles are over the distinct queries of a pass; throughput is
    one caller's: distinct queries over the sum of their latencies."""
    latencies = per_query(result["latencies_ns"])
    return {
        "setup_s": setup_s,
        "queries_per_s": len(latencies) / (sum(latencies) / 1e9),
        "query_p50_ms": nearest_rank(latencies, 0.50) / 1e6,
        "query_p90_ms": nearest_rank(latencies, 0.90) / 1e6,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "ok_frac": result["statuses"].get("ok", 0) / sum(result["statuses"].values()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    # One CPU for the benchmark and every process it starts, so the speed
    # probe measures the CPU the timed work runs on.
    os.sched_setaffinity(0, {current_cpu()})
    if not (SRC / "tribsum" / "__init__.py").is_file():
        fail(f"no tribsum sources under {SRC}; run from a source checkout")
    declared_file = ROOT / "BENCHMARK.json"
    if not declared_file.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    declared = json.loads(declared_file.read_text())
    sys.path.insert(0, str(SRC))
    import tribsum
    if Path(tribsum.__file__).resolve().parent != (SRC / "tribsum").resolve():
        fail(f"imported tribsum from {tribsum.__file__}, not from {SRC}")

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), **source_info()}
    queries = wl.generate(args.workload, args.seed)
    expected = load_expected(args.workload, args.seed, queries,
                             info["src_sha256"] + bench_digest())
    spec = {"root": str(ROOT), "queries": queries, "expected": expected,
            "seconds": args.seconds,
            "mode": "traced" if args.trace else "timed",
            "trace_path": str(OUT / f"trace-{args.workload}-{args.seed}.json")}
    if args.trace:
        result = run_worker(spec, deadline)
        values = result["layers"]
        section = declared["per_layer"]
        info["shares_of_evaluate"] = result["shares"]
    else:
        setup_times = measure_setup()
        result = run_worker(spec, deadline)
        setup_times += measure_setup()
        values = end_to_end(result, statistics.median(setup_times))
        section = declared["end_to_end"]

    statuses = result["statuses"]
    attempted = sum(statuses.values())
    failed = attempted - statuses.get("ok", 0)
    raw = per_query(result["raw_ns"])
    info.update(latency_samples=len(queries), passes=result["passes"],
                attempted=attempted,
                wall_p50_ms=nearest_rank(raw, 0.5) / 1e6,
                wall_p90_ms=nearest_rank(raw, 0.9) / 1e6,
                failed_frac=failed / attempted,
                statuses=statuses, errors=result["errors"])
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in section}
    print(json.dumps({"run": info}))
    print(json.dumps({"correct": statuses.get("wrong", 0) == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
