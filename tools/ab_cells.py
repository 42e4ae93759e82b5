#!/usr/bin/env python3
"""Time the kinetics cells of two source trees against each other.

Usage, from anywhere:

    python3 tools/ab_cells.py TREE_A TREE_B [--rounds N]

TREE_A and TREE_B are roots of source trees (each with src/asode).  One
process imports both packages, under the names asode_a and asode_b, and
runs the 20 cells of the benchmark's kinetics workload at the built-in
initial states: the 14 additive cells (example1-4 x tol 1e-2/1e-4 x
asode3/asode3-nocontrol, without example2 at 1e-4) and the 6 comparator
cells (merson/rkf45 x example1/3/4 at 1e-4).  Two more cells, merson and
rkf45 on example2 at 1e-4 over t in [0, 10] (about 105 000 steps each),
form a family of their own: on the full span, example2 under the
comparators dominates the serial `asode bench` and the benchmark-matrix
test, and the kinetics workload leaves it out.  Each round runs every cell
once per tree, the two trees back to back, and swaps which goes first
from round to round.  A fourth family runs the cells of the benchmark's
bruss-dense workload on the 1-D Brusselator at its unperturbed initial
profile, built by each tree's own perfbench/workloads.py: merson and
rkf45 on bruss32 (64 components) at 1e-3, and the additive solver on
bruss64 and bruss256 (128 and 512 components, with a dense B that is
banded) at 1e-3 and 1e-5.  Time is process CPU time (time.process_time).  A
warm-up round, untimed, runs first, so code generated on first use is
not timed.

Every run of a cell must end at the same t and state, bit for bit, with
the same work counters, in both trees; a difference stops the tool with
exit 1.  It prints, per cell, per family (additive, comparator,
example2 comparator, bruss) and for the sum of the 20 kinetics cells, the
median over the rounds of time(B) / time(A) and its range.  Passing the
same tree twice (an A/A run) shows the noise of the host.

This is a quick paired check of the solvers' own time.  It does not
replace the benchmark under perfbench/, which times whole passes in
separate processes.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import os
import statistics
import sys
import time

PROBLEMS = ("example1", "example2", "example3", "example4")
TOLS = (1e-2, 1e-4)
METHODS = ("asode3", "asode3-nocontrol")
# the kinetics workload leaves this cell out of its additive solves
SKIP = (("example2", 1e-4),)
ADDITIVE = [(p, tol, m) for p in PROBLEMS for tol in TOLS for m in METHODS
            if (p, tol) not in SKIP]
# the comparators run example1, 3 and 4 at 1e-4 only, as in the workload
COMPARATOR = [(p, 1e-4, m) for p in ("example1", "example3", "example4")
              for m in ("merson", "rkf45")]
# example2 under the comparators, on t in [0, EXAMPLE2_T_END]
EXAMPLE2_T_END = 10.0
EXAMPLE2 = [("example2", 1e-4, m) for m in ("merson", "rkf45")]
KINETICS = ADDITIVE + COMPARATOR
# the bruss-dense workload's cells
BRUSS = ([("bruss32", 1e-3, m) for m in ("merson", "rkf45")]
         + [(f"bruss{n}", tol, "asode3") for n in (64, 256)
            for tol in (1e-3, 1e-5)])
CELLS = KINETICS + EXAMPLE2 + BRUSS
FAMILIES = (("additive", ADDITIVE), ("comparator", COMPARATOR),
            ("example2 comparator", EXAMPLE2), ("bruss", BRUSS))


def load(tree: str, name: str):
    """The package under tree/src/asode, imported as the module name."""
    pkg_dir = os.path.join(os.path.abspath(tree), "src", "asode")
    init = os.path.join(pkg_dir, "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"{tree}: no src/asode/__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[pkg_dir])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(tree: str, pkg, name: str):
    """tree/perfbench/workloads.py, imported as the module name while
    `asode` names pkg, so that it builds its problems from that tree."""
    path = os.path.join(os.path.abspath(tree), "perfbench", "workloads.py")
    saved = sys.modules.get("asode")
    sys.modules["asode"] = pkg
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["asode"]
        else:
            sys.modules["asode"] = saved
    return module


class Tree:
    """One package and the inputs of every cell, built once."""

    def __init__(self, pkg, workloads):
        self.pkg = pkg
        scheme = pkg.derive_scheme()
        self.scheme = scheme
        self.embedded = pkg.derive_embedded(scheme)
        self.inputs = {}
        for cell in CELLS:
            problem, tol, method = cell
            if cell in BRUSS:
                p = workloads.bruss_problem(int(problem[len("bruss"):]))
            else:
                p = pkg.builtin(problem)
            if cell in EXAMPLE2:
                p = dataclasses.replace(p, t_end=EXAMPLE2_T_END)
            self.inputs[problem, tol, method] = (
                p, pkg.Tolerances.uniform(tol, p.n),
                pkg.ControllerConfig(stability_control=method == "asode3"))

    def run(self, cell) -> tuple:
        """(CPU seconds, (t, final state, counters)) of one solve."""
        problem, tol, cfg = self.inputs[cell]
        method = cell[2]
        pkg = self.pkg
        start = time.process_time()
        if method in METHODS:
            res = pkg.integrate(problem, self.scheme, self.embedded, tol, cfg)
            t, y, stats = res.t, res.y, res.stats
        else:
            stats = pkg.RunStatistics()
            t, y, _ = pkg.rk_integrate(
                pkg.TABLEAUS[method], problem.full, tuple(problem.y0),
                (problem.t0, problem.t_end), tol, problem.h0, stats=stats)
        elapsed = time.process_time() - start
        # repr tells -0.0 from 0.0 and matches NaN with NaN; float() gives
        # one repr whether a tree returns floats or numpy scalars
        return elapsed, (repr(t), repr([float(v) for v in y]),
                         stats.as_dict())


def spread(values) -> str:
    return (f"{statistics.median(values):.3f} "
            f"({min(values):.3f}-{max(values):.3f})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--rounds", type=int, default=9)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = []
    for tree, suffix in ((args.tree_a, "a"), (args.tree_b, "b")):
        pkg = load(tree, f"asode_{suffix}")
        trees.append(Tree(pkg, load_workloads(tree, pkg,
                                               f"workloads_{suffix}")))

    for cell in CELLS:
        for tree in trees:
            tree.run(cell)
    times = {cell: ([], []) for cell in CELLS}
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for cell in CELLS:
            results = {}
            for i in order:
                elapsed, results[i] = trees[i].run(cell)
                times[cell][i].append(elapsed)
            if results[0] != results[1]:
                print(f"{cell}: the trees' results differ:\n"
                      f"  A {results[0]}\n  B {results[1]}", file=sys.stderr)
                return 1

    print(f"{args.rounds} rounds; B/A of CPU time, median (range)")
    for cell, (a, b) in times.items():
        problem, tol, method = cell
        label = f"{problem}@{tol:g}/{method}"
        if cell in EXAMPLE2:
            label = f"{problem}[0-{EXAMPLE2_T_END:g}]@{tol:g}/{method}"
        print(f"{label:<32} {spread([y / x for x, y in zip(a, b)])}")
    for label, cells in FAMILIES + (("sum", KINETICS),):
        sum_a = [sum(times[c][0][r] for c in cells)
                 for r in range(args.rounds)]
        sum_b = [sum(times[c][1][r] for c in cells)
                 for r in range(args.rounds)]
        print(f"{label:<32} {spread([y / x for x, y in zip(sum_a, sum_b)])}"
              f"   seconds per round: A {statistics.median(sum_a):.3f}, "
              f"B {statistics.median(sum_b):.3f} (medians)")
    print("final states and counters identical in every cell and round")
    return 0


if __name__ == "__main__":
    sys.exit(main())
