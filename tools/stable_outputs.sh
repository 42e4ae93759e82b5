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
# tolerance of 1e-20 that end in a stepsize underflow (their traces hold
# the steps they accepted), a successful example1 trace and the failed
# 1e-20 run's trace written over it (stale_trace*), the coeffs,
# order-study (powerlaw, and example1, whose Merson ladder diverges) and
# stability-region outputs, every help text, the messages of invalid
# input (bad flag and config values, bad tolerance files, unwritable
# output paths, a bad ASODE_THREADS), each command's stderr (NAME.err),
# and exit_codes.txt with one line per command.  Wall times are left out.
# Run it on two trees and compare with `diff -r OUT_A OUT_B`.  The serial
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
# argparse wraps help text to the terminal width
export COLUMNS=80
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
# a failed solve replaces an earlier run's trace with its own rows
run stale_trace_ok solve --problem example1 --tol 1e-2 \
    --trace stale_trace.csv
sed -i '/^wall_seconds:/d' stale_trace_ok.txt
cp stale_trace.csv stale_trace_ok.csv
run stale_trace_fail solve --problem example1 --tol-file tol_1e-20.txt \
    --trace stale_trace.csv
run coeffs coeffs --csv coeffs.csv
run order_study order-study
# exit 2: the Merson ladder diverges at h0 = 0.02
run order_study_example1 order-study --problem example1
run region_main stability-region --which main --out region_main.csv
run region_embedded stability-region --which embedded \
    --out region_embedded.csv

# help texts
run help --help
for command in solve bench order-study stability-region coeffs; do
    run "help_$command" "$command" --help
done

# invalid input: each exits 1 with one line on stderr, before any work
for tol in 0 -1 nan inf x; do
    run "bad_solve_tol_$tol" solve --problem example1 --tol "$tol"
done
for h0 in 0 nan; do
    run "bad_solve_h0_$h0" solve --problem example1 --h0 "$h0"
done
run bad_solve_t_end solve --problem example1 --t-end -1
run bad_solve_method solve --problem example1 --method euler
run bad_solve_problem solve --problem example9
run bad_solve_no_problem solve
printf 'problem = example1\ncolour = red\n' > config_unknown.txt
printf 'problem = example1\ntol = 1e-2\ntol = 1e-3\n' > config_duplicate.txt
printf 'problem = example1\ntol = x\n' > config_bad_value.txt
for kind in unknown duplicate bad_value; do
    run "bad_solve_config_$kind" solve --config "config_$kind.txt"
done
printf '1e-2 1e-2\n1e-2 x\n1e-2 1e-2\n' > tol_bad.txt
printf '1e-2 1e-2\n1e-2 1e-2\n' > tol_short.txt
for kind in bad short; do
    run "bad_solve_tol_file_$kind" solve --problem example1 \
        --tol-file "tol_$kind.txt"
done
for h0 in 0 5; do
    run "bad_order_h0_$h0" order-study --h0 "$h0"
done
run bad_order_ref_tol order-study --ref-tol inf
run bad_region_x_points stability-region --x-points 0
run bad_region_x_min stability-region --x-min inf
run bad_region_inverted stability-region --x-min 1 --x-max 0
run bad_region_which stability-region --which both
run bad_region_grid stability-region --x-points 2000 --z-points 1000
for a in 0 nan; do
    run "bad_coeffs_a_$a" coeffs --a "$a"
done
# an output path under a missing directory
run bad_solve_trace solve --problem example4 --trace missing/trace.csv
run bad_region_out stability-region --out missing/region.csv
run bad_coeffs_csv coeffs --csv missing/coeffs.csv
run bad_bench_csv bench --csv missing/bench.csv
# prints nothing and leaves no bench_bad_threads.csv behind
ASODE_THREADS=x run bench_bad_threads bench --csv bench_bad_threads.csv
