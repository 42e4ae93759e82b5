"""asode benchmark: time to an accurate solution, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the package is imported from src/).
The run is a closed loop with one caller: every solve starts when the
previous one returns, serially in one process with BLAS pinned to one
thread.  It goes through three stages, the first two in their own
processes:

1. references: scipy's Radau at rtol 1e-12 for every (problem, draw);
2. the worker: warm-up, then passes over the workload's solves for S
   seconds, each pass preceded by set-up trials (fresh processes that
   import the package, derive the coefficients, run the comparator order
   check and build the workload's problems), then the known-defect probes
   (see workloads.defect_cells);
3. this process checks every final state against its reference and
   prints the metrics.

A solve fails when the solver raises or its final state is more than
MAX_ERR_TOL tolerance units (error_norm scaling) from the reference.  The
output is one detail line (environment, quartiles, per-cell table,
defects) and, last, the result line with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1).  The run exits 2 without
a result line when the package source or a stage is missing or broken.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from layertrace import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# input draws per run; each adds a pass to the cycle and a reference solve.
# The kinetics solves' work barely moves with the perturbation (RHS counts
# within 0.3 %), but BRUSS's does (most draws within 10 % at N=256, 1e-3,
# a few at up to 2.5 times the steps), so its passes cycle over two draws
# and report medians.
DRAWS = {"kinetics": 1, "bruss-dense": 2}
MAX_ERR_TOL = 100.0
# every stage must end within this many seconds of the start of the run
RUN_BUDGET_S = 170.0

COUNTERS = ("phi_evals", "g_evals", "factorizations", "solves", "steps_acc",
            "steps_rej")
# layers whose call counts are reported; every layer reports its self time
LAYER_CALLS = ("problems.rhs", "problems.jac", "linalg.factor",
               "linalg.solve", "stepper.probe", "reference_rk.step")


class StageError(Exception):
    """A benchmark stage could not run or gave no usable output."""


def run_stage(script: str, args: list, env: dict, deadline: float):
    cmd = [sys.executable, os.path.join(HERE, script)] + [str(a) for a in args]
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise StageError(f"{script} did not finish in {timeout:.0f} s")
    if proc.returncode != 0:
        raise StageError(f"{script} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise StageError(f"{script} printed no JSON result")


def median(values):
    return statistics.median(values) if values else 0.0


def err_tol(y, y_ref, tol: float) -> float:
    """max_i |y_i - ref_i| / (tol + tol*|y_i|), the solver's error_norm."""
    return max(abs(a - b) / (tol + tol * abs(a)) for a, b in zip(y, y_ref))


def check_results(worker: dict, refs: dict) -> dict:
    """Reference errors of the first pass on each draw, keyed (draw, cell)."""
    errs = {}
    for p in worker["passes"]:
        for rec in p["cells"]:
            if rec["y"] is not None:
                ref = refs[str(p["draw"])][rec["problem"]]
                errs[(p["draw"], rec["key"])] = err_tol(rec["y"], ref,
                                                        rec["tol"])
    return errs


def solve_failed(rec: dict, draw: int, errs: dict) -> bool:
    if rec["status"] != "ok":
        return True
    return errs.get((draw, rec["key"]), math.inf) > MAX_ERR_TOL


def counted_cells(p: dict, additive=None) -> list:
    """Cells with counters; additive=True/False keeps one solver family."""
    return [r for r in p["cells"] if r["stats"] is not None
            and (additive is None or r["additive"] == additive)]


def pass_sum(p: dict, counter: str, additive=None) -> int:
    return sum(r["stats"][counter] for r in counted_cells(p, additive))


def cost_per_attempt_us(p: dict, additive: bool) -> float:
    recs = counted_cells(p, additive)
    attempts = sum(r["stats"]["steps_acc"] + r["stats"]["steps_rej"]
                   for r in recs)
    if attempts == 0:
        return 0.0
    return 1e6 * sum(r["time_s"] for r in recs) / attempts


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(untraced, setups, worker, errs, attempted, failed) -> dict:
    # accuracy of the method under test: the comparators' steps are set by
    # stability, so their errors sit far below the tolerance at an erratic
    # level (0.001-1 unit on BRUSS) and would only add noise here; a
    # comparator miss still counts as a failed solve
    additive = {rec["key"] for rec in untraced[0]["cells"] if rec["additive"]}
    return {
        "solve_s": (median([p["wall_s"] for p in untraced]), "s"),
        "rhs_evals": (median([pass_sum(p, "phi_evals") for p in untraced]),
                      "count"),
        "ok_frac": ((attempted - failed) / attempted, "1"),
        "err_tol_max": (max((e for (_, key), e in errs.items()
                             if key in additive), default=0.0), "tol"),
        "setup_s": (median([sum(s.values()) for s in setups]), "s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
    }


def per_layer(untraced, traced, setups) -> dict:
    m = {}

    def layer(p, name, field):
        return p["layers"][name][field]

    for name in LAYER_CALLS:
        m[f"{name}.calls"] = (median([layer(p, name, "calls")
                                      for p in traced]), "count")
    for name in LAYERS:
        m[f"{name}.self_s"] = (median([layer(p, name, "self_s")
                                       for p in traced]), "s")
    m["linalg.factor.flops_computed"] = (
        median([p["factor_flops"] for p in traced]), "flop")
    m["linalg.factor.bytes_computed"] = (
        median([p["factor_bytes"] for p in traced]), "B")

    acc = median([pass_sum(p, "steps_acc", True) for p in untraced])
    rej = median([pass_sum(p, "steps_rej", True) for p in untraced])
    m["stepper.attempt_us"] = (
        median([cost_per_attempt_us(p, True) for p in untraced]), "us")
    m["stepper.attempts"] = (acc + rej, "count")
    m["stepper.steps_rej"] = (rej, "count")
    m["stepper.accept_ratio"] = (ratio(acc, acc + rej), "1")
    rk_acc = median([pass_sum(p, "steps_acc", False) for p in untraced])
    rk_rej = median([pass_sum(p, "steps_rej", False) for p in untraced])
    m["reference_rk.step_us"] = (
        median([cost_per_attempt_us(p, False) for p in untraced]), "us")
    m["reference_rk.accept_ratio"] = (ratio(rk_acc, rk_acc + rk_rej), "1")
    for c in COUNTERS:
        m[f"counters.{c}"] = (median([pass_sum(p, c) for p in untraced]),
                              "count")
    for phase in ("import_s", "derive_s", "verify_s", "problem_s"):
        m[f"setup.{phase}"] = (median([s[phase] for s in setups]), "s")
    # each traced pass directly follows an untraced pass on the same draw
    m["trace.overhead_frac"] = (median(
        [t["wall_s"] / u["wall_s"] - 1.0
         for u, t in zip(untraced, traced)]), "1")
    m["trace.attributed_frac"] = (median(
        [p["spanned_s"] / p["wall_s"] for p in traced]), "1")
    return m


def quartiles(values) -> dict:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"q1": q1, "median": q2, "q3": q3, "n": len(values)}


def defect_summary(worker: dict, refs: dict) -> dict:
    rows = []
    for d in worker["defects"]:
        err = (err_tol(d["y"], refs[str(d["draw"])][d["problem"]], d["tol"])
               if d["y"] is not None else None)
        rows.append({"draw": d["draw"], "key": d["key"], "status": d["status"],
                     "err_tol": err})
    misses = sum(1 for r in rows
                 if r["status"] != "ok" or r["err_tol"] > MAX_ERR_TOL)
    return {"probes": len(rows), "failed": misses, "rows": rows}


def cell_table(untraced, errs, draws: int) -> list:
    keys = [rec["key"] for rec in untraced[0]["cells"]]
    table = []
    for i, key in enumerate(keys):
        recs = [(p["draw"], p["cells"][i]) for p in untraced]
        table.append({
            "key": key,
            "time_s": median([r["time_s"] for _, r in recs]),
            "status": sorted({r["status"] for _, r in recs}),
            "phi_evals": [r["stats"]["phi_evals"] if r["stats"] else None
                          for d, r in recs[:draws]],
            "err_tol": [errs.get((d, key)) for d, _ in recs[:draws]],
        })
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(DRAWS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one set-up trial a pass, for "
                         "smoke.py")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "asode", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    common = ["--workload", args.workload, "--seed", args.seed]
    draws = DRAWS[args.workload]
    if args.smoke:
        common.append("--smoke")

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        refs = run_stage("reference.py", common + ["--draws", draws], env,
                         deadline)
        worker = run_stage("worker.py", common + [
            "--draws", draws, "--seconds", args.seconds,
            "--trace", args.trace], env, deadline)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passes = worker["passes"]
    setups = worker["setups"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    errs = check_results(worker, refs)
    attempted = sum(len(p["cells"]) for p in passes)
    failed = sum(solve_failed(rec, p["draw"], errs)
                 for p in passes for rec in p["cells"])
    crashed = any(rec["status"].startswith("crash:")
                  for p in passes for rec in p["cells"])
    correct = not (crashed or worker["repeat_mismatches"]
                   or worker["identity_mismatches"])

    if args.trace:
        metrics = per_layer(untraced, traced, setups)
    else:
        metrics = end_to_end(untraced, setups, worker, errs, attempted,
                             failed)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "draws": draws, "env": worker["env"],
        "solve_s": quartiles([p["wall_s"] for p in untraced]),
        "traced_solve_s": (quartiles([p["wall_s"] for p in traced])
                           if traced else None),
        "setup_trials": setups,
        "cells": cell_table(untraced, errs, draws),
        "defects": defect_summary(worker, refs),
        "absent_layers": worker["absent"],
        "repeat_mismatches": worker["repeat_mismatches"],
        "identity_mismatches": worker["identity_mismatches"],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
