"""One set-up trial in a fresh process; prints its phases as JSON.

    python3 perfbench/setup_trial.py --workload NAME --seed N

Phases: importing the package (numpy and scipy included), deriving the
method coefficients, the comparators' fixed-step order check, and building
the workload's problems.  Neither the package nor numpy or scipy is
imported before the first clock read.
"""

import argparse
import json
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    t0 = time.perf_counter()
    import asode
    t1 = time.perf_counter()
    scheme = asode.derive_scheme()
    asode.derive_embedded(scheme)
    t2 = time.perf_counter()
    from asode.benchmark import verify_comparator_orders
    verify_comparator_orders()
    t3 = time.perf_counter()
    import workloads
    workloads.make_problems(args.workload, args.seed, 0, args.smoke)
    t4 = time.perf_counter()
    json.dump({"import_s": t1 - t0, "derive_s": t2 - t1, "verify_s": t3 - t2,
               "problem_s": t4 - t3}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
