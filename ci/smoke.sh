#!/usr/bin/env bash
# The CLI smoke checks, run from any directory on the Python that "python" names:
#   bash ci/smoke.sh
# Each command must succeed unless its line tests the exact exit code.  Scratch
# files go to $RUNNER_TEMP where it is set (a CI runner), else to a new temporary
# directory that is removed at the end.
set -eu
cd "$(dirname "$0")/.."
export PYTHONWARNINGS=error
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP="$(mktemp -d)"
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

PYTHONPATH=src python -m tribsum.cli --format json verify --max-n 20 --random 2 --seed 1
# The formula sweep runs each clause through the kernel: up to n = 8000 its windows are
# read out past the readout crossover, on generic clauses and on the (0, 2, 1) ones.
PYTHONPATH=src python -m tribsum.cli --format json verify --seq tribonacci --max-n 8000
PYTHONPATH=src python -m tribsum.cli --format json verify --seq pell-padovan --max-n 8000
PYTHONPATH=src python -m tribsum.cli --format json oeis-check --seq tribonacci --count 50
PYTHONPATH=src python -m tribsum.cli --format json sum --r 3/7 --s -5/4 --t 2/9 --w0 1/2 --w1 0 --w2 -3 --dir bwd --parity odd --n 40 --check
# A checked rational sum on the Horner scale at stride 1: the oracle's sum loop multiplies
# its total by q = 252 before each term it adds.
PYTHONPATH=src python -m tribsum.cli --format json sum --r 3/7 --s -5/4 --t 2/9 --w0 1/2 --w1 0 --w2 -3 --dir fwd --parity all --n 3001 --check >"$RUNNER_TEMP/horner_all.json"
grep -q '"case_used": "FwdAll_Generic"' "$RUNNER_TEMP/horner_all.json"
grep -q '"oracle_checked": true' "$RUNNER_TEMP/horner_all.json"
PYTHONPATH=src python -m tribsum.cli --format json catalog
PYTHONPATH=src python -m tribsum.cli --format json term --seq tribonacci --n 20000
PYTHONPATH=src python -m tribsum.cli --format json term --r 3/7 --s -5/4 --t 2/9 --w0 1/2 --w1 0 --w2 -3 --n -3000
# These windows are read out past the kernel's readout crossover (a2 above 3072 bits):
# Tribonacci, a backward rational triple with q > 1, and (0, 2, 1), whose kappa grows with n.
PYTHONPATH=src python -m tribsum.cli --format json sum --seq tribonacci --dir fwd --parity even --n 6000 --check
PYTHONPATH=src python -m tribsum.cli --format json sum --seq tribonacci --dir bwd --parity odd --n 12000 --check
PYTHONPATH=src python -m tribsum.cli --format json sum --r 3/7 --s -5/4 --t 2/9 --w0 1/2 --w1 0 --w2 -3 --dir bwd --parity even --n 2000 --check
PYTHONPATH=src python -m tribsum.cli --format json sum --r 0 --s 2 --t 1 --w0 1 --w1 2 --w2 3 --dir fwd --parity odd --n 6000 --check
# (0, 2, 1) all-index sums take the generic clause (d1 = 2). No pipe: bash -e has no pipefail.
PYTHONPATH=src python -m tribsum.cli --format json sum --seq pell-padovan --dir fwd --parity all --n 6000 --check >"$RUNNER_TEMP/fwd_all.json"
grep -q '"case_used": "FwdAll_Generic"' "$RUNNER_TEMP/fwd_all.json"
PYTHONPATH=src python -m tribsum.cli --format json sum --seq pell-padovan --dir bwd --parity all --n 6000 --check >"$RUNNER_TEMP/bwd_all.json"
grep -q '"case_used": "BwdAll_Generic"' "$RUNNER_TEMP/bwd_all.json"
# Checked sums whose oracle walks mix coefficient patterns: (1, 3, 1) backward steps
# by (-3, -1, 1), and (1/2, 0, 1/4) has q > 1 forward and a zero coefficient both ways.
PYTHONPATH=src python -m tribsum.cli --format json sum --r 1 --s 3 --t 1 --w0 2 --w1 -1 --w2 3 --dir bwd --parity all --n 10000 --check >"$RUNNER_TEMP/mixed_all.json"
grep -q '"case_used": "BwdAll_Generic"' "$RUNNER_TEMP/mixed_all.json"
PYTHONPATH=src python -m tribsum.cli --format json sum --r 1/2 --s 0 --t 1/4 --w0 1 --w1 -2 --w2 3 --dir bwd --parity even --n 2000 --check >"$RUNNER_TEMP/mixed_even.json"
grep -q '"case_used": "BwdEven_Generic"' "$RUNNER_TEMP/mixed_even.json"
# A negative fractional t: (1/2, -1/6, -5/12) reverses to (-2/5, 6/5, -12/5), whose integer
# pairs -12/30 and 12/10 reduce only through gcd(sd, td) and gcd(rd, td).
PYTHONPATH=src python -m tribsum.cli --format json sum --r 1/2 --s -1/6 --t -5/12 --w0 1 --w1 -2 --w2 3 --dir bwd --parity odd --n 500 --check >"$RUNNER_TEMP/neg_t_odd.json"
grep -q '"case_used": "BwdOdd_Generic"' "$RUNNER_TEMP/neg_t_odd.json"
# T < 0 sharing factors with S and R: (2/3, 4/9, -8/27) is (18, 12, -8) over 27 and
# reverses to (3/2, 9/4, -27/8), q = 8.  Its last a2 has 3587 bits, above the readout
# crossover, so the Hankel readout runs on the reversed integer coefficients.
PYTHONPATH=src python -m tribsum.cli --format json sum --r 2/3 --s 4/9 --t -8/27 --w0 1 --w1 -1/2 --w2 3 --dir bwd --parity odd --n 1000 --check >"$RUNNER_TEMP/shared_t_odd.json"
grep -q '"case_used": "BwdOdd_Generic"' "$RUNNER_TEMP/shared_t_odd.json"
# Every family row, checked against the oracle's own table: (1, 3, 1) and (1/2, 5/2, 1) have
# d2 = 0, so their even and odd sums fall back to the literal walk.
for dir in fwd bwd; do for parity in all even odd; do
  for triple in "--r 1 --s 3 --t 1 --w0 2 --w1 -1 --w2 3" "--r 1/2 --s 5/2 --t 1 --w0 1/3 --w1 -2/5 --w2 3/4"; do
    PYTHONPATH=src python -m tribsum.cli --format json sum $triple --dir $dir --parity $parity --n 40 --check >"$RUNNER_TEMP/row.json"
    grep -q '"oracle_checked": true' "$RUNNER_TEMP/row.json"
  done
done; done
# oracle_checked is the --check flag itself: false unchecked, true checked.
PYTHONPATH=src python -m tribsum.cli --format json sum --seq tribonacci --dir fwd --parity all --n 30 >"$RUNNER_TEMP/unchecked.json"
grep -q '"oracle_checked": false' "$RUNNER_TEMP/unchecked.json"
PYTHONPATH=src python -m tribsum.cli --format json sum --seq tribonacci --dir fwd --parity all --n 30 --check >"$RUNNER_TEMP/checked.json"
grep -q '"oracle_checked": true' "$RUNNER_TEMP/checked.json"
# A joined "--dir=fwd" and an abbreviated "--par" are not canonical, so argparse reads this
# command line; it must print the record the option table's reader prints.
PYTHONPATH=src python -m tribsum.cli --format json sum --seq tribonacci --dir=fwd --par all --n 10 >"$RUNNER_TEMP/argparse_path.json"
PYTHONPATH=src python -m tribsum.cli --format json sum --seq tribonacci --dir fwd --parity all --n 10 >"$RUNNER_TEMP/table_path.json"
grep -q '"value": "326"' "$RUNNER_TEMP/table_path.json"
cmp "$RUNNER_TEMP/argparse_path.json" "$RUNNER_TEMP/table_path.json"
# A separate negative "--n -13" is read from the option table, "--n=-13" by argparse.
PYTHONPATH=src python -m tribsum.cli --format json term --seq tribonacci --n -13 >"$RUNNER_TEMP/negative_table.json"
PYTHONPATH=src python -m tribsum.cli --format json term --seq tribonacci --n=-13 >"$RUNNER_TEMP/negative_argparse.json"
cmp "$RUNNER_TEMP/negative_table.json" "$RUNNER_TEMP/negative_argparse.json"
# A b-file no shift aligns with (all zeros) fails the OEIS check: exit exactly 4.
mkdir -p "$RUNNER_TEMP/wrong" && printf '%s 0\n' $(seq 0 39) >"$RUNNER_TEMP/wrong/b000073.txt"
code=0; PYTHONPATH=src python -m tribsum.cli --format json oeis-check --seq tribonacci --fixture-dir "$RUNNER_TEMP/wrong" >"$RUNNER_TEMP/no_alignment.json" || code=$?; test "$code" -eq 4
grep -q '"status": "no-alignment"' "$RUNNER_TEMP/no_alignment.json"
# Rejected input exits exactly 2 (`! cmd` would never fail a bash -e step).
code=0; PYTHONPATH=src python -m tribsum.cli --format json term --seq tribonacci --n 1_3 || code=$?; test "$code" -eq 2
code=0; PYTHONPATH=src python -m tribsum.cli --format json term --r 1/0 --s 1 --t 1 --w0 0 --w1 1 --w2 1 --n 3 || code=$?; test "$code" -eq 2
code=0; PYTHONPATH=src python -m tribsum.cli --format json term --r -3/00 --s 1 --t 1 --w0 0 --w1 1 --w2 1 --n 3 2>"$RUNNER_TEMP/err.json" || code=$?; test "$code" -eq 2
grep -q '"error": "ValueError"' "$RUNNER_TEMP/err.json"
# A message with a '"' needs escaping, so json writes this record; it must parse.
code=0; PYTHONPATH=src python -m tribsum.cli --format json term --seq 'no"such' --n 3 2>"$RUNNER_TEMP/escaped.json" || code=$?; test "$code" -eq 2
python -c 'import json, sys; assert json.loads(sys.stdin.read())["error"] == "UnknownSequence"' <"$RUNNER_TEMP/escaped.json"
# A t = 0 backward request exits exactly 2 with NegativeIndexWithZeroT's one message:
# a sum that falls back to the literal walk, and a term from the kernel.
code=0; PYTHONPATH=src python -m tribsum.cli --format json sum --r 1/2 --s 1/2 --t 0 --w0 0 --w1 1 --w2 1 --dir bwd --parity all --n 3 2>"$RUNNER_TEMP/zero_t_sum.json" || code=$?; test "$code" -eq 2
grep -q '"error": "NegativeIndexWithZeroT", "exit": 2, "message": "stepping back needs t != 0"' "$RUNNER_TEMP/zero_t_sum.json"
code=0; PYTHONPATH=src python -m tribsum.cli --format json term --r 1 --s 1 --t 0 --w0 0 --w1 1 --w2 1 --n -3 2>"$RUNNER_TEMP/zero_t_term.json" || code=$?; test "$code" -eq 2
grep -q '"error": "NegativeIndexWithZeroT", "exit": 2, "message": "stepping back needs t != 0"' "$RUNNER_TEMP/zero_t_term.json"
# Help and usage text: argparse lays them out to the terminal width, and its formatter
# differs between Python versions.
COLUMNS=80 PYTHONPATH=src python -m tribsum.cli --help >"$RUNNER_TEMP/help.txt"
test "$(head -c 14 "$RUNNER_TEMP/help.txt")" = "usage: tribsum"
COLUMNS=80 PYTHONPATH=src python -m tribsum.cli term --help >"$RUNNER_TEMP/term_help.txt"
test "$(head -c 19 "$RUNNER_TEMP/term_help.txt")" = "usage: tribsum term"
code=0; COLUMNS=80 PYTHONPATH=src python -m tribsum.cli term --seq tribonacci --n abc 2>"$RUNNER_TEMP/usage.txt" || code=$?; test "$code" -eq 2
test "$(head -c 19 "$RUNNER_TEMP/usage.txt")" = "usage: tribsum term"
# A process ends through cli.run, without interpreter teardown, once it has flushed and run the
# exit handlers: a handler registered before it writes past the stdout buffer, after the record.
# The buffer is on (PYTHONUNBUFFERED empty), so a record left in it would come after the handler's.
PYTHONUNBUFFERED= PYTHONPATH=src python -c 'import atexit, os, sys; from tribsum import cli; atexit.register(os.write, 1, b"exit handler ran\n"); sys.exit(cli.run())' --format json term --seq tribonacci --n 13 >"$RUNNER_TEMP/handler.txt"
printf '%s\n' '{"command": "term", "n": 13, "seq": "tribonacci", "value": "927"}' 'exit handler ran' | cmp - "$RUNNER_TEMP/handler.txt"
# A stdout closed at start has no reader: exit exactly 1, with nothing on stderr.
code=0; PYTHONPATH=src python -m tribsum.cli --format json term --seq tribonacci --n 5 >&- 2>"$RUNNER_TEMP/closed.txt" || code=$?; test "$code" -eq 1
test ! -s "$RUNNER_TEMP/closed.txt"
# A stderr closed at start drops the error record and keeps its code: exit exactly 2, with
# nothing on stdout, where print would write a record meant for a stderr that is None.
code=0; PYTHONPATH=src python -m tribsum.cli --format json term --seq nosuch --n 3 2>&- >"$RUNNER_TEMP/closed_stderr.txt" || code=$?; test "$code" -eq 2
test ! -s "$RUNNER_TEMP/closed_stderr.txt"
# Warm rows, each the best of three calls.
PYTHONPATH=src python -m tribsum.cli --format json bench --n 10 1000
