"""End-to-end acceptance gate.

One test per headline requirement, each printing a single PASS/FAIL line
(visible under pytest -v as one result line per criterion, or with -s as
an explicit checklist).  Every tolerance and runtime budget asserted here
is a hard bound, so a slow or drifting build fails loudly.
"""

import contextlib
import time

import numpy as np
import pytest

from asode.analysis import embedded_step_factor, eval_R, eval_R2
from asode.benchmark import CellSpec, default_matrix, run_matrix
from asode.coefficients import (
    DEFAULT_A,
    derive_embedded,
    derive_scheme,
    solve_design_quartic,
    verify_embedded_conditions,
    verify_order_conditions,
)
from asode.linalg import DiagonalMatrix
from asode.problems import SplitProblem, Tolerances, builtin
from asode.stepper import ControllerConfig, error_norm, integrate, integrate_fixed

from conftest import split_problem

SCHEME = derive_scheme()
EMBEDDED = derive_embedded(SCHEME)

# Frozen 14-digit reference table for the default free parameter.
QUARTIC_ROOTS_FROZEN = (0.10643879214266, 0.22042841025921,
                        0.57281606248213, 3.1003167351160)
SCHEME_FROZEN = {
    "a": +0.57281606248213,
    "p1": -0.48695861160293,
    "p2": +0.57281606248213,
    "p3": +1.32112526220103,
    "p4": -0.09105090402502,
    "p5": +0.42438423735836,
    "p6": +0.48695861160293,
    "alpha42": +0.57281606248213,
    "alpha43": +0.42718393751787,
    "beta42": +0.57281606248213,
    "beta43": -0.18882050162852,
    "beta63": +2.51499368618962,
    "beta64": -0.022405291307077,
    "beta65": +0.91371881359685,
    "gamma": -2.891895009239397,
}
EMBEDDED_FROZEN = (0.0, +0.57281606248213, -0.87491444843356,
                   +2.82745609901376, -1.52535771306233)


@contextlib.contextmanager
def checked(label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    wall = time.perf_counter() - start
    assert wall < budget_seconds, (
        f"{label}: runtime {wall:.2f}s exceeds the {budget_seconds:.0f}s "
        f"budget")
    print(f"[PASS] {label} ({wall:.2f}s)")


def test_criterion_1_coefficient_reproduction():
    with checked("coefficient tables reproduced (weights 1e-12, "
                 "roots 1e-11)", 1.0):
        roots = solve_design_quartic().roots
        for got, expected in zip(roots, QUARTIC_ROOTS_FROZEN):
            assert abs(got - expected) < 1e-11
        c = derive_scheme(DEFAULT_A)
        got = {
            "a": c.a,
            "p1": c.p[0], "p2": c.p[1], "p3": c.p[2],
            "p4": c.p[3], "p5": c.p[4], "p6": c.p[5],
            "alpha42": c.alpha4[1], "alpha43": c.alpha4[2],
            "beta42": c.beta4[1], "beta43": c.beta4[2],
            "beta63": c.beta6[2], "beta64": c.beta6[3],
            "beta65": c.beta6[4],
            "gamma": c.gamma,
        }
        for name, expected in SCHEME_FROZEN.items():
            assert abs(got[name] - expected) < 1e-12, name
        r = derive_embedded(c).r
        for got_r, expected in zip(r, EMBEDDED_FROZEN):
            assert abs(got_r - expected) < 1e-12


def test_criterion_2_condition_residuals():
    with checked("order and damping condition residuals below 1e-12", 1.0):
        main_report = verify_order_conditions(SCHEME)
        assert main_report.max_abs < 1e-12
        damping = main_report.group("lstability")
        assert len(damping) == 2
        assert all(abs(res) < 1e-12 for _, _, res in damping)
        emb_report = verify_embedded_conditions(SCHEME, EMBEDDED)
        assert emb_report.max_abs < 1e-12


def test_criterion_3_stability_function_limits():
    with checked("stability function limits, growth order, and "
                 "closed-form agreement", 1.0):
        assert abs(eval_R(0.0, -1e8)) < 1e-6
        assert abs(eval_R2(0.0, -1e8)) < 1e-6
        # Richardson: the defect against e^x shrinks 16-fold per halving
        defect = lambda x: abs(eval_R(x, 0.0) - np.exp(x))
        for x in (0.1, 0.05):
            ratio = defect(x) / defect(x / 2.0)
            assert 13.0 <= ratio <= 19.0
        rng = np.random.default_rng(20260815)
        for _ in range(100):
            x = rng.uniform(-2.5, 0.5)
            z = rng.uniform(-50.0, 0.0)
            gap = abs(eval_R2(x, z)
                      - embedded_step_factor(x, z))
            assert gap < 1e-12


def _resplit(base: SplitProblem, provider, name: str) -> SplitProblem:
    """Rebuild the problem's split around a different linear-part matrix."""
    return split_problem(name, base.full, provider, base.y0, base.h0,
                         t_end=base.t_end, t0=base.t0, exact=base.exact)


def test_criterion_4_order_robust_to_linear_part_choice():
    with checked("fixed-step order 3.0±0.3 under exact, zero, and "
                 "frozen linear parts", 10.0):
        base = builtin("smooth")
        zero = DiagonalMatrix(np.zeros(base.n))
        frozen = base.jac(base.y0)
        variants = (
            base,                                       # diagonal, exact
            _resplit(base, lambda y: zero, "zero-B"),
            _resplit(base, lambda y: frozen, "frozen-B"),
        )
        hs = (0.02, 0.01, 0.005, 0.0025)
        for prob in variants:
            errors = []
            for h in hs:
                res = integrate_fixed(prob, h, SCHEME, EMBEDDED)
                errors.append(float(np.max(np.abs(
                    res.y - prob.exact(prob.t_end)))))
            slope = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
            assert 2.7 <= slope <= 3.3, (prob.name, slope, errors)


def test_criterion_5_benchmark_matrix():
    with checked("benchmark matrix: completion, cost ratios, and "
                 "cross-method agreement", 300.0):
        specs = default_matrix()
        results = {CellSpec(r.problem, r.tol, r.method): r
                   for r in run_matrix(specs)}
        assert len(results) == len(specs) == 32

        for spec, r in results.items():
            assert r.ok, (spec, r.error)
            t_end = builtin(spec.problem).t_end
            assert abs(r.t_final - t_end) < 1e-9 * max(1.0, t_end), spec

        # Work ratios measure the additive method's intrinsic per-step
        # cost (the control-off run) against Merson's RHS evaluations.
        floors = {1e-2: 50.0, 1e-4: 5.0}
        for problem in ("example1", "example2", "example3"):
            for tol, floor in floors.items():
                merson = results[CellSpec(problem, tol, "merson")]
                additive = results[CellSpec(problem, tol,
                                            "asode3-nocontrol")]
                ratio = merson.stats.phi_evals / additive.stats.phi_evals
                assert ratio >= floor, (problem, tol, ratio)

        # All four solvers land on the same final state to within 100
        # tolerance units of the err-norm, in both scalings.
        methods = ("asode3", "asode3-nocontrol", "merson", "rkf45")
        for problem in ("example1", "example2", "example3", "example4"):
            n = builtin(problem).n
            for tol in (1e-2, 1e-4):
                tols = Tolerances.uniform(tol, n)
                finals = [np.asarray(results[CellSpec(problem, tol, m)]
                                     .y_final) for m in methods]
                for i in range(len(finals)):
                    for j in range(i + 1, len(finals)):
                        assert error_norm(finals[i], finals[j],
                                          tols) <= 100.0
                        assert error_norm(finals[j], finals[i],
                                          tols) <= 100.0


def test_criterion_6_controller_contract():
    with checked("controller: err<=1 accepted, leak cap 2.2, exact "
                 "work counters", 60.0):
        # every accepted step satisfied the error test
        prob = builtin("example1")
        rows = []
        res = integrate(prob, SCHEME, EMBEDDED,
                        Tolerances.uniform(1e-2, prob.n), trace=rows)
        assert len(rows) == res.stats.steps_accepted
        assert all(row[2] <= 1.0 for row in rows)

        # a split that leaks all stiffness into the explicit part: after
        # startup the stability cap pins the scaled estimate at or below 2.2
        rates = np.array([-50.0, 0.0])
        none = DiagonalMatrix(np.zeros(2))
        full = lambda y: rates * y
        leak = split_problem("leak", full, lambda y: none, [1.0, 1.0], 1e-4,
                             t_end=0.4)
        rows = []
        integrate(leak, SCHEME, EMBEDDED, Tolerances.uniform(1e-2, 2),
                  trace=rows)
        post = rows[10:]
        assert len(post) >= 5
        assert max(row[3] for row in post) <= 2.2

        # closed-form work counters, exact in every counter
        prob = builtin("example4")
        for control in (True, False):
            cfg = ControllerConfig(stability_control=control)
            stats = integrate(prob, SCHEME, EMBEDDED,
                              Tolerances.uniform(1e-2, prob.n), cfg).stats
            attempts = stats.steps_accepted + stats.steps_rejected
            assert stats.factorizations == attempts
            assert stats.linear_solves == 5 * attempts
            assert stats.g_evals == 2 * attempts
            # the stability estimate reads existing stages: no extra phi
            assert stats.phi_evals == 3 * attempts
