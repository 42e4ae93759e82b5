"""Measured process: runs one workload's passes and prints the raw results.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --draws D --trace 0|1

A pass solves every cell of the workload, one after the other, on one input
draw; pass k uses draw k mod D.  Passes repeat in whole cycles over the
draws, stopping at the cycle boundary nearest to S seconds, after at least
MIN_PASSES untraced passes.  With --trace 1 every untraced pass is followed
by a traced pass on the same draw, so the two can be compared for tracing
overhead and for bit-identical results.

Before every untraced pass, SETUP_TRIALS_PER_PASS fresh processes run
setup_trial.py one after the other, outside the timed passes.  The set-up
time is a sub-second figure that moves with the host's speed from minute to
minute; trials spread over the whole run see the same mix of host
conditions as the passes do, where trials bunched at its start would not.

The last line of the output is one JSON object with every pass's cell
records (time, status, work counters, final state of the first pass of
each draw), the traced layer totals, the set-up trials, the defect probes
and the process's peak memory.  run.py turns it into metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

import asode
import layertrace
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ADDITIVE = workloads.ADDITIVE_METHODS + ("asode3-diag",)
MIN_PASSES = 3
SETUP_TRIALS_PER_PASS = 3
SETUP_TRIAL_TIMEOUT_S = 60
# share of each problem's span integrated once before timing starts, so
# lazy initialisation inside numpy/scipy is not charged to the first pass
WARMUP_SPAN = 0.01
# layers whose traced call counts must equal a RunStatistics counter
IDENTITIES = (("problems.rhs", "phi_evals"),
              ("linalg.factor", "factorizations"),
              ("linalg.solve", "solves"))


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by owning package."""
    names = ("scipy_openblas_get_num_threads64_",
             "openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads")
    out = {}
    for pkg in (np, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              f"{pkg.__name__}.libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for name in names:
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    out[pkg.__name__] = fn()
                    break
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Runner:
    """Solves cells through either plain or traced entry points."""

    def __init__(self, tracer=None):
        self.scheme = asode.derive_scheme()
        self.embedded = asode.derive_embedded(self.scheme)
        self.tracer = tracer
        integrate = asode.stepper.integrate
        rk_integrate = asode.reference_rk.rk_integrate
        if tracer is not None:
            integrate = tracer.wrap("stepper.control", integrate)
            rk_integrate = tracer.wrap("reference_rk.control", rk_integrate)
        self.integrate = integrate
        self.rk_integrate = rk_integrate

    def prepare(self, problem):
        """The problem as handed to the solver, with traced callables."""
        if self.tracer is None:
            return problem
        return dataclasses.replace(
            problem, full=self.tracer.wrap("problems.rhs", problem.full),
            jac=self.tracer.wrap("problems.jac", problem.jac))

    def solve(self, cell, problem):
        """Returns (status, final state or None, counters or None)."""
        tol = asode.Tolerances.uniform(cell.tol, problem.n)
        stats = None
        try:
            if cell.method in ADDITIVE:
                cfg = asode.ControllerConfig(
                    stability_control=cell.method != "asode3-nocontrol")
                res = self.integrate(problem, self.scheme, self.embedded, tol,
                                     cfg)
                stats, y = res.stats, res.y
            else:
                stats = asode.RunStatistics()
                _, y, _ = self.rk_integrate(
                    asode.TABLEAUS[cell.method], problem.full,
                    tuple(problem.y0), (problem.t0, problem.t_end), tol,
                    problem.h0, stats=stats)
        except asode.SolverError as exc:
            return type(exc).__name__, None, stats and stats.as_dict()
        except Exception as exc:
            # a bug, not a solver failure: recorded, and the run is incorrect
            traceback.print_exc(file=sys.stderr)
            return f"crash:{type(exc).__name__}", None, None
        return "ok", [float(v) for v in y], stats.as_dict()


def run_pass(runner, cell_list, problems, draw):
    tracer = runner.tracer
    if tracer is not None:
        tracer.reset()
    records = []
    start = time.perf_counter()
    for cell in cell_list:
        before = dict(tracer.calls) if tracer is not None else None
        t0 = time.perf_counter()
        status, y, stats = runner.solve(cell, problems[cell.problem])
        rec = {"key": cell.key, "additive": cell.method in ADDITIVE,
               "tol": cell.tol, "problem": cell.problem,
               "time_s": time.perf_counter() - t0, "status": status,
               "stats": stats, "y": y}
        if tracer is not None:
            rec["layer_calls"] = {
                layer: tracer.calls[layer] - before.get(layer, 0)
                for layer, _ in IDENTITIES}
        records.append(rec)
    out = {"draw": draw, "traced": tracer is not None,
           "wall_s": time.perf_counter() - start, "cells": records}
    if tracer is not None:
        out["layers"] = {layer: {"calls": tracer.calls[layer],
                                 "self_s": tracer.self_s[layer]}
                         for layer in layertrace.LAYERS}
        out["factor_flops"] = tracer.flops
        out["factor_bytes"] = tracer.bytes
        out["spanned_s"] = tracer.spanned_s
    return out


def setup_trials(args, count: int) -> list:
    """Phase times of `count` set-up trials, each in a fresh process."""
    cmd = [sys.executable, os.path.join(HERE, "setup_trial.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=os.path.dirname(HERE),
                              capture_output=True, text=True, check=True,
                              timeout=SETUP_TRIAL_TIMEOUT_S)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def identity_mismatches(passes, absent) -> list:
    """Cells whose traced call counts differ from the solver's counters."""
    bad = []
    for p in passes:
        for rec in p["cells"]:
            if "layer_calls" not in rec or rec["stats"] is None:
                continue
            for layer, counter in IDENTITIES:
                if layer in absent:
                    continue
                if rec["layer_calls"][layer] != rec["stats"].get(counter):
                    bad.append(f"draw {p['draw']} {rec['key']}: {layer} "
                               f"{rec['layer_calls'][layer]} != {counter} "
                               f"{rec['stats'].get(counter)}")
    return bad


def repeat_mismatches(passes) -> list:
    """Cells whose result differs between passes on the same draw."""
    first = {}
    bad = []
    for p in passes:
        for rec in p["cells"]:
            sig = (rec["status"], rec["y"], rec["stats"])
            key = (p["draw"], rec["key"])
            if key not in first:
                first[key] = sig
            elif sig != first[key]:
                bad.append(f"draw {p['draw']} {rec['key']}")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--draws", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    cell_list = workloads.cells(args.workload, args.smoke)
    problems = [workloads.make_problems(args.workload, args.seed, d,
                                        args.smoke)
                for d in range(args.draws)]
    plain = Runner()
    tracer = layertrace.Tracer() if args.trace else None
    traced = Runner(tracer) if tracer is not None else None

    warm = {name: dataclasses.replace(
                p, t_end=p.t0 + WARMUP_SPAN * (p.t_end - p.t0))
            for name, p in problems[0].items()}
    run_pass(plain, cell_list, warm, 0)

    passes = []
    setups = []
    start = time.perf_counter()
    k = 0
    while True:
        draw = k % args.draws
        setups += setup_trials(args, 1 if args.smoke
                               else SETUP_TRIALS_PER_PASS)
        passes.append(run_pass(plain, cell_list, problems[draw], draw))
        if traced is not None:
            traced_problems = {name: traced.prepare(p)
                               for name, p in problems[draw].items()}
            with tracer.installed(asode):
                passes.append(run_pass(traced, cell_list, traced_problems,
                                       draw))
        k += 1
        if k % args.draws == 0 and k >= MIN_PASSES:
            # stop at the cycle boundary nearest to the requested time
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / (k // args.draws) >= args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    defects = []
    for draw in range(args.draws):
        for cell in workloads.defect_cells(args.workload, args.smoke):
            problem = problems[draw][cell.problem]
            if cell.method == "asode3-diag":
                problem = workloads.diagonal_variant(problem)
            status, y, _ = plain.solve(cell, problem)
            defects.append({"draw": draw, "key": cell.key,
                            "problem": cell.problem, "tol": cell.tol,
                            "status": status, "y": y})

    absent = tracer.absent if tracer is not None else []
    repeats = repeat_mismatches(passes)
    identities = identity_mismatches(passes, absent)
    seen = set()
    for p in passes:
        for rec in p["cells"]:
            if (p["draw"], rec["key"]) in seen:
                rec["y"] = None  # identical to the first pass on this draw
            seen.add((p["draw"], rec["key"]))
    json.dump({"env": environment(), "passes": passes, "setups": setups,
               "defects": defects, "peak_rss_mb": peak_rss_mb,
               "absent": absent,
               "repeat_mismatches": repeats,
               "identity_mismatches": identities}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
