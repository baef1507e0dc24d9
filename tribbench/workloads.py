"""Query generation and expected answers for the tribsum benchmark.

A query is a plain JSON-able dict, so the timed worker receives only the
generated inputs:

    {"op": "sum", "seq": SEQ, "dir": "fwd", "parity": "even", "n": 123,
     "check": false}
    {"op": "term", "seq": SEQ, "n": -45}
    {"op": "cli", "argv": [...], "expect": "value" | "catalog" | "oeis" | "verify"}

where SEQ is a catalog key or a list of six rational strings
[r, s, t, w0, w1, w2].

Expected answers never come from the closed forms.  Where the literal
history is small enough, they come from ``tribsum.oracle`` and are
compared as SHA-256 digests of the numerator and denominator bytes.
Above ORACLE_MAX_SPAN indices ``tribsum.oracle`` would hold the whole
history (about 0.5-2 GB and tens of seconds per query at n = 10^5), so the
benchmark streams the literal sum itself modulo the Mersenne prime
2^127 - 1 in O(1) memory and compares residues.  Both paths share no code
with the closed forms.
"""

from __future__ import annotations

import hashlib
import random
import sys
from fractions import Fraction

WORKLOADS = ("catalog-ladder", "rational-small", "degenerate-checked", "cli-sweeps")

FAMILIES = tuple((d, p) for d in ("fwd", "bwd") for p in ("all", "even", "odd"))
LADDER = (100, 1_000, 10_000, 100_000)

# Largest |index| for which tribsum.oracle supplies the exact value.
ORACLE_MAX_SPAN = 2_500
MOD = (1 << 127) - 1

# Tribonacci W_n has about 0.2647 n decimal digits, so the CLI's 4300-digit
# str() limit falls near n = 16250.
CLI_BELOW = (9_000, 15_500)
CLI_ABOVE = (17_000, 20_000)


def on_rung(rng: random.Random, base: int) -> int:
    """An index on the ladder rung *base*, jittered into [base, 1.1 base)."""
    return base + rng.randrange(max(base // 10, 1))


def _sum(seq, direction, parity, n, check=False):
    return {"op": "sum", "seq": seq, "dir": direction, "parity": parity,
            "n": n, "check": check}


def _term(seq, n):
    return {"op": "term", "seq": seq, "n": n}


def _rational(rng: random.Random, lo: int = -9, hi: int = 9) -> Fraction:
    den = 0
    while den == 0:
        den = rng.randint(lo, hi)
    return Fraction(rng.randint(lo, hi), den)


def _params(*values) -> list[str]:
    return [str(Fraction(v)) for v in values]


def catalog_ladder(rng: random.Random, keys: list[str]) -> list[dict]:
    """Every catalog sequence x six families on the 10^2..10^4 rungs, terms
    on every rung, and Tribonacci's six families at 10^5."""
    queries = []
    for key in keys:
        for base in LADDER[:3]:
            queries += [_sum(key, d, p, on_rung(rng, base)) for d, p in FAMILIES]
            queries.append(_term(key, -on_rung(rng, base)))
        queries += [_term(key, on_rung(rng, base)) for base in LADDER]
    queries += [_sum("tribonacci", d, p, on_rung(rng, LADDER[3])) for d, p in FAMILIES]
    rng.shuffle(queries)
    return queries


def _balanced(rng: random.Random, values: list[int], count: int) -> list[int]:
    """*count* values spread evenly over *values*, in seeded order."""
    column = [values[i * len(values) // count] for i in range(count)]
    rng.shuffle(column)
    return column


def rational_small(rng: random.Random, count: int = 64) -> list[dict]:
    """Random rational triples with t != 0 and d1*d2 != 0, numerators and
    denominators in [-9, 9].  Each of the twelve numerators and denominators
    takes every value equally often across the pass, paired at random, so
    every seed has the same mix of heights.  Each sequence gets the six sums
    and two signed terms, their n drawn one from each eighth of 1..300."""
    nonzero = [v for v in range(-9, 10) if v]
    nums = [_balanced(rng, list(range(-9, 10)), count) for _ in range(6)]
    nums[2] = _balanced(rng, nonzero, count)          # t != 0
    dens = [_balanced(rng, nonzero, count) for _ in range(6)]
    queries = []
    for j in range(count):
        r, s, t, w0, w1, w2 = (Fraction(nums[k][j], dens[k][j]) for k in range(6))
        while (r + s + t - 1) * (r - s + t + 1) == 0:
            r = _rational(rng)
        seq = _params(r, s, t, w0, w1, w2)
        ns = [rng.randint(1 + 300 * m // 8, 300 * (m + 1) // 8) for m in range(8)]
        rng.shuffle(ns)
        queries += [_sum(seq, d, p, n) for (d, p), n in zip(FAMILIES, ns)]
        queries += [_term(seq, ns[6]), _term(seq, -ns[7])]
    rng.shuffle(queries)
    return queries


def log_strata(rng: random.Random, lo: int, hi: int, count: int, turn: int) -> list[int]:
    """*count* indices at the log-centres of *count* equal log-strata of
    [lo, hi), rotated by *turn* places and jittered by up to 5 %."""
    return [int(lo * (hi / lo) ** (((j + turn) % count + 0.5) / count)
                * rng.uniform(0.95, 1.05)) for j in range(count)]


# d1 = r+s+t-1 = 0 or d2 = r-s+t+1 = 0; (0, 2, 1) has its own clauses.
DEGENERATE_INT = ((1, 1, -1), (1, 3, 1), (-1, 1, 1), (0, 2, 1))
DEGENERATE_RATIONAL = (("1/2", "3/2", "-1"), ("1/2", "5/2", "1"), ("-1/2", "1/2", "1"))
GENERIC_INT = ((1, 1, 1), (0, 1, 1))


def degenerate_checked(rng: random.Random) -> list[dict]:
    """Fixed degenerate and generic triples with seeded initial terms, all
    with check=True.  Each triple's 24 sums (six families, four times) take
    their n from 24 log-strata, rotated per triple, so latencies spread
    evenly instead of clustering on rungs and every pass holds the same
    mix; each degenerate integer triple adds one all-index sum at 10^4."""
    def initial_int():
        while True:
            w = [rng.randint(-5, 5) for _ in range(3)]
            if any(w):
                return w

    queries = []
    for i, triple in enumerate(DEGENERATE_INT + GENERIC_INT):
        seq = _params(*triple, *initial_int())
        queries += [_sum(seq, d, p, n, True)
                    for (d, p), n in zip(FAMILIES * 4, log_strata(rng, 30, 2_000, 24, 7 * i))]
        if triple in DEGENERATE_INT:
            queries.append(_sum(seq, FAMILIES[3 * (i % 2)][0], "all",
                                on_rung(rng, LADDER[2]), True))
    for i, triple in enumerate(DEGENERATE_RATIONAL):
        seq = _params(*triple, *(_rational(rng, -5, 5) for _ in range(3)))
        queries += [_sum(seq, d, p, n, True)
                    for (d, p), n in zip(FAMILIES * 4, log_strata(rng, 10, 330, 24, 7 * i))]
    rng.shuffle(queries)
    return queries


def cli_sweeps(rng: random.Random, oeis_keys: list[str]) -> list[dict]:
    """One pass of 100 `tribsum` invocations.  One in seven term/sum
    requests sits above the 4300-digit output limit, which the CLI does not
    handle today."""
    def cli(expect, *argv):
        return {"op": "cli", "argv": [str(a) for a in argv], "expect": expect}

    def trib(*argv):
        return cli("value", "--format", "json", *argv, "--seq", "tribonacci")

    def index(k):
        lo, hi = CLI_ABOVE if k % 7 == 6 else CLI_BELOW
        return rng.randint(lo, hi)

    queries = [cli("catalog", "catalog") for _ in range(4)]
    queries += [cli("oeis", "--format", "json", "oeis-check", "--seq", key,
                    "--count", rng.randint(20, 50))
                for key in oeis_keys for _ in range(2)]
    queries += [cli("verify", "--format", "json", "verify", "--max-n",
                    rng.randint(3, 4), "--random", 1, "--seed", rng.randrange(10**6))
                for _ in range(3)]
    queries += [trib("term", "--n", index(k)) for k in range(45)]
    queries += [trib("sum", "--dir", "fwd", "--parity", "all", "--n", index(k))
                for k in range(100 - len(queries))]
    rng.shuffle(queries)
    return queries


def generate(workload: str, seed: int) -> list[dict]:
    """The query list of one pass; the same (workload, seed) gives the same list."""
    from tribsum import list_all

    rng = random.Random(f"{workload}/{seed}")
    entries = list_all()
    if workload == "catalog-ladder":
        return catalog_ladder(rng, [e.key for e in entries])
    if workload == "rational-small":
        return rational_small(rng)
    if workload == "degenerate-checked":
        return degenerate_checked(rng)
    if workload == "cli-sweeps":
        return cli_sweeps(rng, [e.key for e in entries if e.oeis_offset_shift is not None])
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- answers

def sequence_def(seq):
    from tribsum import SequenceDef, lookup

    if isinstance(seq, str):
        return lookup(seq).definition
    return SequenceDef.of(*seq)


def digest(value: Fraction) -> str:
    """SHA-256 of the numerator and denominator bytes (no str() conversion)."""
    h = hashlib.sha256()
    for part in (value.numerator, value.denominator):
        h.update(part.to_bytes(part.bit_length() // 8 + 1, "big", signed=True))
    return h.hexdigest()


def residue(value: Fraction) -> str:
    return str(value.numerator % MOD * pow(value.denominator, -1, MOD) % MOD)


def fingerprint(kind: str, value: Fraction) -> str:
    return digest(value) if kind == "sha256" else residue(value)


def _plan(query: dict):
    """(last |index| streamed, predicate on the signed index k, forward?)."""
    n = query["n"]
    if query["op"] == "term":
        return abs(n), (lambda k: k == n), n >= 0
    forward = query["dir"] == "fwd"
    if query["parity"] == "all":
        return n, (lambda k: True), forward
    odd = int(query["parity"] == "odd")
    return (2 * n + odd if forward else 2 * n - odd), (lambda k: k % 2 == odd), forward


def literal_residue(seq: list, query: dict) -> str:
    """The literal sum (or term) modulo MOD, by one streaming pass."""
    r, s, t, w0, w1, w2 = (int(residue(Fraction(v))) for v in seq)
    last, keep, forward = _plan(query)
    total = 0
    if forward:
        window = (w0, w1, w2)
        for k in range(last + 1):
            if k < 3:
                w = window[k]
            else:
                w = (r * window[2] + s * window[1] + t * window[0]) % MOD
                window = (window[1], window[2], w)
            if keep(k):
                total += w
        return str(total % MOD)
    t_inv = pow(t, -1, MOD)
    low, mid, high = w0, w1, w2
    for k in range(-1, -last - 1, -1):
        low, mid, high = (high - r * mid - s * low) * t_inv % MOD, low, mid
        if keep(k):
            total += low
    return str(total % MOD)


def param_strings(seq) -> list:
    """[r, s, t, w0, w1, w2] as strings, for a catalog key or such a list."""
    if not isinstance(seq, str):
        return seq
    d = sequence_def(seq)
    p = d.params
    return [str(v) for v in (p.r, p.s, p.t, d.w0, d.w1, d.w2)]


def _value_expected(seq, query: dict) -> list:
    from tribsum import Direction, Parity, SumQuery, oracle

    if _plan(query)[0] > ORACLE_MAX_SPAN:
        return ["mod", literal_residue(param_strings(seq), query)]
    definition = sequence_def(seq)
    if query["op"] == "term":
        value = oracle.oracle_term(definition, query["n"])
    else:
        value = oracle.oracle_sum(definition, SumQuery(
            Direction(query["dir"]), Parity(query["parity"]), query["n"]))
    return ["sha256", digest(value)]


def _options(argv: list[str]) -> dict:
    """The "--flag value" pairs after "--format json <subcommand>"."""
    return dict(zip(argv[3::2], argv[4::2]))


def expected(query: dict):
    """The expected answer of one query, as the worker checks it."""
    from tribsum import list_all, lookup

    if query["op"] != "cli":
        return _value_expected(query["seq"], query)
    argv, expect = query["argv"], query["expect"]
    if expect == "catalog":
        return [e.key for e in list_all()]
    if expect == "verify":
        return None  # a PASS total with no failures
    opts = _options(argv)
    if expect == "oeis":
        entry = lookup(opts["--seq"])
        return {"oeis_id": entry.primary_oeis_id, "shift": entry.oeis_offset_shift,
                "matched": int(opts["--count"])}
    value_query = {"op": argv[2], "dir": opts.get("--dir"),
                   "parity": opts.get("--parity"), "n": int(opts["--n"])}
    return _value_expected(opts["--seq"], value_query)


def parse_rational(text: str) -> Fraction:
    """Parse CLI output "p" or "p/q" of any length."""
    old = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if old is not None:
        sys.set_int_max_str_digits(0)
    try:
        return Fraction(text)
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)
