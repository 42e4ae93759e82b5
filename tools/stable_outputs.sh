#!/usr/bin/env bash
# Write the outputs that a refactor must leave byte-identical.
#
# Usage, from the root of a source tree:
#
#     tools/stable_outputs.sh OUT_DIR
#
# OUT_DIR receives the benchmark matrix CSV (serial, ASODE_THREADS=1), the
# per-step trace CSVs with each run's summary of example1-4 x
# asode3/asode3-nocontrol and of example1/3/4 x merson/rkf45, each at tol
# 1e-2 and 1e-4, two runs of example1 x asode3/asode3-nocontrol at a
# tolerance of 1e-20 that end in a stepsize underflow, the coeffs,
# order-study and stability-region outputs, each command's stderr
# (NAME.err), and exit_codes.txt with one line per command.  Wall times
# are left out.  Run it on two trees and compare with
# `diff -r OUT_A OUT_B`.  The serial benchmark alone takes about a minute
# and a half.
set -eu

if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 1
fi
if [ ! -f src/asode/cli.py ]; then
    echo "$0: run from the root of a source tree" >&2
    exit 1
fi
export PYTHONPATH="$PWD/src"
mkdir -p "$1"
cd "$1"
: > exit_codes.txt

# run NAME ARGS...: asode ARGS with stdout to NAME.txt and stderr to
# NAME.err, exit code recorded
run() {
    local name=$1 code=0
    shift
    python3 -m asode.cli "$@" > "$name.txt" 2> "$name.err" || code=$?
    echo "$name $code" >> exit_codes.txt
}

ASODE_THREADS=1 run bench bench --csv bench.csv
# the table carries wall times; the CSV holds the counters
rm bench.txt
# solve NAME ARGS...: asode solve ARGS with its trace in NAME.csv
solve() {
    local name=$1
    shift
    run "$name" solve "$@" --trace "$name.csv"
    sed -i '/^wall_seconds:/d' "$name.txt"
}
# solve_cells PROBLEM METHODS: each method at both tolerances
solve_cells() {
    local problem=$1 method tol
    for method in $2; do
        for tol in 1e-2 1e-4; do
            solve "solve_${problem}_${method}_${tol}" --problem "$problem" \
                --method "$method" --tol "$tol"
        done
    done
}
for problem in example1 example2 example3 example4; do
    solve_cells "$problem" "asode3 asode3-nocontrol"
done
# a tolerance of 1e-20 on each of example1's three components drives the
# additive solver's retry stepsize below h_min (exit 2); the comparators
# succeed there
printf '1e-20 1e-20\n%.0s' 1 2 3 > tol_1e-20.txt
for method in asode3 asode3-nocontrol; do
    solve "solve_example1_${method}_1e-20" --problem example1 \
        --method "$method" --tol-file tol_1e-20.txt
done
# the comparators take about 1.8 million steps per example2 cell
for problem in example1 example3 example4; do
    solve_cells "$problem" "merson rkf45"
done
run coeffs coeffs --csv coeffs.csv
run order_study order-study
run region_main stability-region --which main --out region_main.csv
run region_embedded stability-region --which embedded \
    --out region_embedded.csv
