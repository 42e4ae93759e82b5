"""Guard on the package names the benchmark under perfbench/ relies on.

The benchmark builds its problems through the public constructors and
traces the solver by rebinding names inside the package.  A rename there
would not fail the benchmark outright: the traced layer would be listed
as absent and its metrics would read zero.  This test runs one tiny traced
solve per stage-matrix shape so such a change fails here instead.  It only
reads perfbench/.
"""

import os
import sys

import pytest

import asode

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import layertrace  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SCHEME = asode.derive_scheme()
EMBEDDED = asode.derive_embedded(SCHEME)


# bruss4 (n = 8) is too small for the banded LU; bruss64 (n = 128) takes it
FACTORIZATION = {"dense": ("bruss4", asode.linalg._DenseFactorization),
                 "diagonal": ("bruss4", asode.linalg._DiagonalFactorization),
                 "banded": ("bruss64", asode.linalg._BandedFactorization)}


@pytest.mark.parametrize("variant", ["dense", "diagonal", "banded"])
def test_traced_bruss_solve_sees_every_layer(variant):
    name, factorization = FACTORIZATION[variant]
    problem = workloads.make_problem(name, seed=1, smoke=True)
    if variant == "diagonal":
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
    assert tracer.calls["stepper.probe"] == stats.steps_accepted


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
