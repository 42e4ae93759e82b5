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
# 1e-2 and 1e-4, the coeffs, order-study and stability-region outputs, and
# exit_codes.txt with one line per command.  Wall times are left out.  Run
# it on two trees and compare with `diff -r OUT_A OUT_B`.  The serial
# benchmark alone takes about a minute and a half.
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

# run NAME ARGS...: asode ARGS with stdout to NAME.txt, exit code recorded
run() {
    local name=$1 code=0
    shift
    python3 -m asode.cli "$@" > "$name.txt" || code=$?
    echo "$name $code" >> exit_codes.txt
}

ASODE_THREADS=1 run bench bench --csv bench.csv
# the table carries wall times; the CSV holds the counters
rm bench.txt
# solve PROBLEM METHODS: each method at both tolerances, with its trace
solve() {
    local problem=$1 method tol name
    for method in $2; do
        for tol in 1e-2 1e-4; do
            name="solve_${problem}_${method}_${tol}"
            run "$name" solve --problem "$problem" --method "$method" \
                --tol "$tol" --trace "$name.csv"
            sed -i '/^wall_seconds:/d' "$name.txt"
        done
    done
}
for problem in example1 example2 example3 example4; do
    solve "$problem" "asode3 asode3-nocontrol"
done
# the comparators take about 1.8 million steps per example2 cell
for problem in example1 example3 example4; do
    solve "$problem" "merson rkf45"
done
run coeffs coeffs --csv coeffs.csv
run order_study order-study
run region_main stability-region --which main --out region_main.csv
run region_embedded stability-region --which embedded \
    --out region_embedded.csv
