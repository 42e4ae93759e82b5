"""Guard on the package names the benchmark under perfbench/ relies on.

The benchmark builds its problems through the public constructors and
traces the solver by rebinding names inside the package.  A rename there
would not fail the benchmark outright: the traced layer would be listed
as absent and its metrics would read zero.  This test runs one tiny traced
solve per stage-matrix shape so such a change fails here instead.  It only
reads perfbench/.
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

import asode
from asode import benchmark

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import layertrace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SCHEME = asode.derive_scheme()
EMBEDDED = asode.derive_embedded(SCHEME)


# bruss4 (n = 8) is too small for the banded LU; bruss64 (n = 128) takes it.
# A diagonal B runs on floats up to SMALL_N components (bruss4) and on
# arrays above (bruss16, n = 32)
FACTORIZATION = {"dense": ("bruss4", asode.linalg._DenseFactorization),
                 "diagonal": ("bruss16", asode.linalg._DiagonalFactorization),
                 "small-diagonal": ("bruss4",
                                    asode.linalg._SmallDiagonalFactorization),
                 "banded": ("bruss64", asode.linalg._BandedFactorization)}


@pytest.mark.parametrize("variant", ["dense", "diagonal", "small-diagonal",
                                     "banded"])
def test_traced_bruss_solve_sees_every_layer(variant):
    name, factorization = FACTORIZATION[variant]
    problem = workloads.make_problem(name, seed=1, smoke=True)
    if variant.endswith("diagonal"):
        problem = workloads.diagonal_variant(problem)
    # the tracer wraps solve on direct subclasses of Factorization only
    assert factorization.__bases__ == (asode.linalg.Factorization,)
    assert type(asode.factor(problem.jac(problem.y0), 0.1)) is factorization
    assert problem.t_end - problem.t0 == pytest.approx(
        workloads.SMOKE_SPAN * workloads.BRUSS_T_END)
    tracer = layertrace.Tracer()
    with tracer.installed(asode):
        res = asode.integrate(problem, SCHEME, EMBEDDED,
                              asode.Tolerances.uniform(1e-3, problem.n))
        absent = tracer.absent
    assert absent == []
    stats = res.stats
    assert stats.steps_accepted > 0
    assert tracer.calls["linalg.factor"] == stats.factorizations
    assert tracer.calls["linalg.solve"] == stats.linear_solves
    attempts = stats.steps_accepted + stats.steps_rejected
    assert tracer.calls["stepper.stages"] == attempts
    assert tracer.calls["stepper.control"] == attempts
    # the float path estimates v in its generated function, not through
    # stability_estimate
    assert tracer.calls["stepper.probe"] == (
        0 if variant == "small-diagonal" else stats.steps_accepted)


@pytest.mark.parametrize("method", ["asode3-nocontrol", "merson"])
def test_untraced_solve_calls_the_package_as_the_benchmark_does(method):
    # Runner.solve builds ControllerConfig and calls rk_integrate with the
    # arguments the benchmark uses; a signature change there would turn
    # every cell into a failure
    problem = workloads.make_problem("bruss4", seed=1, smoke=True)
    status, y, counters = worker.Runner().solve(
        workloads.Cell("bruss4", 1e-3, method), problem)
    assert status == "ok"
    assert y is not None and counters["steps_acc"] > 0


@pytest.mark.parametrize("method", ["merson", "rkf45"])
def test_traced_comparator_counts_every_step(method):
    # rk_integrate must reach the step through the module name the tracer
    # rebinds; a direct reference would leave every reference_rk.step
    # metric at zero
    problem = asode.builtin("example4")
    problem = dataclasses.replace(problem, t_end=problem.t0 + 0.05)
    tracer = layertrace.Tracer()
    with tracer.installed(asode):
        _, _, stats = asode.reference_rk.rk_integrate(
            asode.reference_rk.TABLEAUS[method], problem.full,
            tuple(problem.y0), (problem.t0, problem.t_end),
            asode.Tolerances.uniform(1e-2, problem.n), problem.h0)
        absent = tracer.absent
    assert "reference_rk.step" not in absent
    assert stats.steps_accepted > 0
    assert tracer.calls["reference_rk.step"] == (stats.steps_accepted
                                                 + stats.steps_rejected)


def traced_example4(control: bool):
    """(RunStatistics, tracer calls) of a short traced example4 solve."""
    problem = asode.builtin("example4")
    problem = dataclasses.replace(problem, t_end=problem.t0 + 0.05)
    cfg = asode.ControllerConfig(stability_control=control)
    tracer = layertrace.Tracer()
    with tracer.installed(asode):
        traced = worker.Runner(tracer).prepare(problem)
        res = asode.integrate(traced, SCHEME, EMBEDDED,
                              asode.Tolerances.uniform(1e-2, problem.n), cfg)
        absent = tracer.absent
    assert absent == []
    stats = res.stats
    attempts = stats.steps_accepted + stats.steps_rejected
    assert attempts > 0
    assert tracer.calls["linalg.factor"] == stats.factorizations == attempts
    assert tracer.calls["linalg.solve"] == stats.linear_solves
    assert tracer.calls["stepper.stages"] == attempts
    assert tracer.calls["problems.rhs"] == stats.phi_evals
    return stats, tracer.calls


@pytest.mark.parametrize("control", [True, False], ids=["control", "plain"])
def test_traced_float_path_counts_every_call(control):
    # example4 (n = 4, diagonal B) runs its attempts on Python floats; the
    # traced names must still see one factor, five solves and every
    # right-hand-side call per attempt, as the counters do
    problem = asode.builtin("example4")
    assert problem.n <= asode.linalg.SMALL_N
    y_next, _ = asode.stepper._stages(
        problem, problem.y0, problem.h0, SCHEME, EMBEDDED,
        asode.RunStatistics())
    assert type(y_next) is list
    _, calls = traced_example4(control)
    # the generated float function estimates v itself: stepper.probe,
    # which traces stability_estimate, reads 0 on the float path
    assert calls["stepper.probe"] == 0


@pytest.mark.parametrize("control", [True, False], ids=["control", "plain"])
def test_traced_numpy_path_counts_every_probe(control, monkeypatch):
    # with the float path off, each accepted attempt under stability
    # control calls stability_estimate once
    monkeypatch.setattr(asode.linalg, "SMALL_N", 0)
    problem = asode.builtin("example4")
    y_next, _ = asode.stepper._stages(
        problem, problem.y0, problem.h0, SCHEME, EMBEDDED,
        asode.RunStatistics())
    assert isinstance(y_next, np.ndarray)
    stats, calls = traced_example4(control)
    assert calls["stepper.probe"] == (stats.steps_accepted if control else 0)


def test_benchmark_counter_names_match_the_package():
    # perfbench/run.py reads each solve's counters by these names; a
    # renamed counter would otherwise surface only as a failing benchmark
    assert (run.COUNTERS == tuple(asode.RunStatistics().as_dict())
            == benchmark.CSV_COLUMNS[3:])
