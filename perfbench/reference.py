"""Independent reference solutions: scipy's Radau at rtol 1e-12.

Run as its own process, before the measured worker starts, so neither its
time nor its memory enters the reported figures:

    python3 perfbench/reference.py --workload NAME --seed N --draws D

prints one JSON object {"<draw>": {"<problem>": [y_final...]}}.  Only the
problem definitions (right-hand side, initial state, span) are shared with
the solver under test; the Jacobian Radau uses is its own finite-difference
one, with the Brusselator's band structure given as a sparsity pattern.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
import scipy.sparse
from scipy.integrate import solve_ivp

import workloads

REF_RTOL = 1e-12
REF_ATOL = 1e-14
BRUSS_REF_ATOL = 1e-12


def reference_final_state(problem) -> list:
    f = problem.full

    def rhs(_t, y):
        return np.asarray(f(y), dtype=float)

    options = {"rtol": REF_RTOL, "atol": REF_ATOL}
    if problem.name.startswith("bruss"):
        n = problem.n
        width = workloads.BRUSS_BANDWIDTH
        offsets = range(-width, width + 1)
        options["atol"] = BRUSS_REF_ATOL
        options["jac_sparsity"] = scipy.sparse.diags(
            [np.ones(n - abs(k)) for k in offsets], list(offsets))
    sol = solve_ivp(rhs, (problem.t0, problem.t_end), problem.y0,
                    method="Radau", **options)
    if sol.status != 0:
        raise RuntimeError(f"reference for {problem.name} failed: "
                           f"{sol.message}")
    return [float(v) for v in sol.y[:, -1]]


def references(workload: str, seed: int, draws: int, smoke: bool) -> dict:
    out = {}
    for draw in range(draws):
        problems = workloads.make_problems(workload, seed, draw, smoke)
        out[str(draw)] = {name: reference_final_state(p)
                          for name, p in problems.items()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--draws", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    json.dump(references(args.workload, args.seed, args.draws, args.smoke),
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
