#!/usr/bin/env bash
# Each case's stdout, stderr and exit code, on the Python that "python" names, so that
# two trees can be compared byte for byte:
#   bash ci/cli_bytes.sh OUTDIR
#   diff -r OTHER_OUTDIR OUTDIR
# Every command line runs at COLUMNS 40, 80 and 200, as argparse wraps help and usage
# text to the terminal width.  bench is left out: its rows are timings.
set -eu
if [ $# -ne 1 ]; then
  echo "usage: bash ci/cli_bytes.sh OUTDIR" >&2
  exit 2
fi
mkdir -p "$1"
out="$(cd "$1" && pwd)"
cd "$(dirname "$0")/.."
export PYTHONPATH=src

# run_case NAME ARG...: writes OUTDIR/COLUMNS/NAME/{stdout,stderr,exit}.
run_case() {
  name=$1
  shift
  for columns in 40 80 200; do
    dir="$out/$columns/$name"
    mkdir -p "$dir"
    code=0
    COLUMNS=$columns python -m tribsum.cli "$@" >"$dir/stdout" 2>"$dir/stderr" || code=$?
    echo "$code" >"$dir/exit"
  done
}

run_case help --help
for command in term sum verify oeis-check bench catalog; do
  run_case "help-$command" "$command" --help
done
run_case no-arguments
run_case bogus bogus
run_case bad-int term --seq tribonacci --n abc
run_case joined-abbreviated sum --seq tribonacci --dir=fwd --par all --n 10
run_case negative-table term --seq tribonacci --n -13
run_case negative-argparse term --seq tribonacci --n=-13
run_case escaped-message --format json term --seq 'no"such' --n 3
for format in text json; do
  run_case "$format-term" --format "$format" term --seq tribonacci --n 40
  run_case "$format-term-back" --format "$format" term --r 3/7 --s -5/4 --t 2/9 --w0 1/2 --w1 0 --w2 -3 --n -40
  run_case "$format-sum" --format "$format" sum --seq perrin --dir bwd --parity odd --n 40 --check
  # d2 = 0: the even sum is the oracle's literal walk.
  run_case "$format-sum-literal" --format "$format" sum --r 1 --s 3 --t 1 --w0 2 --w1 -1 --w2 3 --dir bwd --parity even --n 40
  run_case "$format-sum-zero-t" --format "$format" sum --r 1/2 --s 1/2 --t 0 --w0 0 --w1 1 --w2 1 --dir bwd --parity all --n 3
  run_case "$format-unknown" --format "$format" term --seq nosuch --n 3
  # The oracle's prefix_sums and term_table.
  run_case "$format-verify" --format "$format" verify --seq perrin --max-n 3
  run_case "$format-oeis-check" --format "$format" oeis-check --seq tribonacci --count 20
  run_case "$format-catalog" --format "$format" catalog
done

# A stderr closed at start: what reaches stdout, and the exit code.
for format in text json; do
  dir="$out/closed-stderr/$format-unknown"
  mkdir -p "$dir"
  code=0
  python -m tribsum.cli --format "$format" term --seq nosuch --n 3 >"$dir/stdout" 2>&- || code=$?
  echo "$code" >"$dir/exit"
done
