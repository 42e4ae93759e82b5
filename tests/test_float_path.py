"""The stepper's float path against its numpy path, bit for bit.

A DiagonalMatrix B of at most SMALL_N components runs the step attempt on
lists of Python floats; every other B runs it on arrays.  The numpy path
is the reference: the kernels (stages, stability estimate, error norm,
drift update, diagonal factorization) must return the same bits on the
same input, NaN and inf included, and whole runs must agree in every
result.
Setting linalg.SMALL_N to 0 forces the numpy path: linalg.factor alone
applies the rule, and the stepper follows the factorization it returns.
The float-path stages are generated per state dimension on first use,
with the scheme weights as arguments; these tests also hold them to that.
"""

import dataclasses
import linecache
import math
import os
import subprocess
import sys
import traceback

import numpy as np
import pytest

import asode
from asode import linalg, stepper
from asode.coefficients import (
    derive_embedded,
    derive_scheme,
    solve_design_quartic,
)
from asode.exceptions import (
    DimensionMismatch,
    SingularMatrix,
    ZeroToleranceDenominator,
)
from asode.linalg import DiagonalMatrix, factor
from asode.problems import Tolerances, builtin
from asode.stepper import (
    ControllerConfig,
    RunStatistics,
    StepReport,
    _drift_update,
    _stages,
    attempt_step,
    error_norm,
    integrate,
    stability_estimate,
)

from conftest import split_problem

SCHEME = derive_scheme()
EMBEDDED = derive_embedded(SCHEME)
# the design quartic's largest root, a = 3.10, far from DEFAULT_A
FAR_SCHEME = derive_scheme(solve_design_quartic().roots[3])
FAR_EMBEDDED = derive_embedded(FAR_SCHEME)

# values that reach the kernels' special branches: signed zeros, ties,
# infinities, NaN, values below the probe's absolute floor
SPECIAL = (0.0, -0.0, 1.0, -1.0, 2.5, 1e-16, -3e-15, 1e300, math.inf,
           -math.inf, math.nan)


def force_numpy_path(m):
    """Send every B down the numpy path (m: monkeypatch or its context)."""
    m.setattr(linalg, "SMALL_N", 0)


def same_bits(a, b) -> bool:
    """Equal values, zero signs and NaN positions (NaN payloads aside)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan], b[~nan])
            and np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan])))


def draw(rng, n, special_share=0.3):
    out = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    for i in range(n):
        if rng.random() < special_share:
            out[i] = SPECIAL[rng.integers(len(SPECIAL))]
    return out


def floats(x) -> list:
    return np.asarray(x, dtype=float).tolist()


def array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def probe_both(y, u6, k1, k6):
    """stability_estimate on lists and on arrays: (v_floats, v_arrays).

    y stays an array on the float path, as it is on a run's first step.
    """
    v_f = stability_estimate(array(y), floats(u6), floats(k1), floats(k6))
    v_a = stability_estimate(array(y), array(u6), array(k1), array(k6))
    assert type(v_f) is float and type(v_a) is float
    return v_f, v_a


class TestProbeKernel:
    # d1 = u6 - y is each component's displacement over the attempt and
    # d2 = k6 - k1 the change of its non-stiff stage, so the estimate is
    # the largest |d2_i| / |d1_i| over the components the floors keep
    @pytest.mark.parametrize("d1, d2, k1, expected", [
        # every displacement below the absolute floor: no information
        ([1e-15, -1e-15], [5.0, 6.0], [1.0, 2.0], 0.0),
        # NaN in a displacement: np.max is NaN, nothing is kept
        ([math.nan, 2.0], [1.0, 3.0], [0.0, 0.0], 0.0),
        # NaN in k1 on a component below the absolute floor
        ([1e-15, 2.0], [1.0, 0.0], [math.nan, 0.0], 0.0),
        # inf in k1 on a component below the share floor
        ([0.05, 1.0], [1.0, 0.0], [math.inf, 0.0], 0.0),
        # inf displacement with an inf stage change: inf/inf is NaN
        ([math.inf, 1.0], [math.inf, 1.0], [0.0, 0.0], math.nan),
        # a NaN quotient on a kept component wins the max
        ([1.0, 1.0], [math.nan, 2.0], [0.0, 0.0], math.nan),
        # ties in the displacements and in the quotients
        ([2.0, -2.0, 2.0], [1.0, -1.0, -0.5], [0.0, 0.0, 0.0], 0.5),
        # the second component moves less than the share floor
        ([1.0, 0.05], [1.0, 10.0], [0.0, 0.0], 1.0),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_crafted_inputs(self, d1, d2, k1, expected):
        y = np.full(len(d1), 0.5)
        u6 = y + array(d1)
        k6 = array(k1) + array(d2)
        v_f, v_a = probe_both(y, u6, k1, k6)
        assert same_bits(v_f, v_a)
        assert same_bits(v_f, expected)

    @pytest.mark.parametrize("y, u6, k6, expected", [
        # a large state raises its floor above its displacement; kept,
        # its quotient would read 2^30
        ([1e6, 1.0], [1e6 + 2.0 ** -30, 1.0 + 2.0 ** -30], [1.0, 2.0 ** -29],
         2.0),
        # NaN in y: its displacement is NaN too, nothing is kept
        ([math.nan, 1.0], [1.0, 2.0], [1.0, 2.0], 0.0),
        # inf in y: inf displacement and floor; its quotient is 0 and the
        # share floor drops the rest
        ([math.inf, 1.0], [1.0, 2.0], [3.0, 2.0], 0.0),
        # signed zeros in y leave the floor at 1e-14
        ([-0.0, 0.0], [1.0, 1.5], [3.0, -0.0], 3.0),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_state_scale_floor(self, y, u6, k6, expected):
        v_f, v_a = probe_both(y, u6, [0.0, -0.0], k6)
        assert same_bits(v_f, v_a)
        assert same_bits(v_f, expected)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fuzzed_inputs(self):
        rng = np.random.default_rng(2024)
        for _ in range(3000):
            n = int(rng.integers(1, 6))
            y, u6, k1, k6 = (draw(rng, n) for _ in range(4))
            if rng.random() < 0.5:
                # near-stage arguments reach the share and state floors
                u6 = y + draw(rng, n) * 10.0 ** rng.integers(-16, 0)
            v_f, v_a = probe_both(y, u6, k1, k6)
            assert same_bits(v_f, v_a), (y, u6, k1, k6)

    @pytest.mark.parametrize("y, u6, k1, k6", [
        # unchecked, lists gave 2.0 on each, and arrays 2.0 or numpy's
        # broadcast ValueError
        ([1.0, 2.0], [1.5, 2.5, 9.0], [0.0] * 3, [1.0, 1.0, 5.0]),
        ([1.0], [1.5, 2.5], [0.0, 0.0], [1.0, 1.0]),
        ([1.0, 2.0], [1.5, 2.5], [0.0, 0.0], [1.0]),
    ])
    def test_length_mismatch_raises(self, y, u6, k1, k6):
        # lists would zip away, and arrays broadcast, the extra components
        with pytest.raises(DimensionMismatch):
            stability_estimate(array(y), floats(u6), floats(k1), floats(k6))
        with pytest.raises(DimensionMismatch):
            stability_estimate(array(y), array(u6), array(k1), array(k6))


class TestErrorNormKernel:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fuzzed_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(3000):
            n = int(rng.integers(1, 6))
            y, y2 = draw(rng, n), draw(rng, n)
            tol = Tolerances(atol=rng.uniform(1e-8, 1e-2, n),
                             rtol=rng.uniform(0.0, 1e-2, n))
            e_f = error_norm(y.tolist(), y2.tolist(), tol)
            e_a = error_norm(y, y2, tol)
            assert type(e_f) is float and type(e_a) is float
            assert same_bits(e_f, e_a), (y, y2)

    def test_length_mismatch_raises(self):
        # lists would zip away, and arrays broadcast, the extra components
        tol = Tolerances.uniform(1e-3, 2)
        for y, y2 in (([1.0], [1.0, 2.0]), ([1.0, 2.0], [1.0]),
                      ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])):
            with pytest.raises(DimensionMismatch):
                error_norm(y, y2, tol)
            with pytest.raises(DimensionMismatch):
                error_norm(np.array(y), np.array(y2), tol)

    def test_zero_denominator_on_both_paths(self):
        tol = Tolerances(atol=np.array([1e-3, 0.0]),
                         rtol=np.array([1e-3, 1e-3]))
        for y in ([1.0, 0.0], [1.0, -0.0]):
            with pytest.raises(ZeroToleranceDenominator):
                error_norm(y, [1.0, 1.0], tol)
            with pytest.raises(ZeroToleranceDenominator):
                error_norm(np.array(y), np.array([1.0, 1.0]), tol)


def drift_both(drift, y, y_emb, b_diag, h, tol):
    out = []
    for conv in (floats, array):
        report = StepReport(accepted=True, err=0.5, v=None, h_used=h,
                            h_next=h, retry_underflow=False,
                            y_next=conv(y), y_emb=conv(y_emb),
                            b_diag=np.asarray(b_diag, dtype=float))
        new, pressure = _drift_update(conv(drift), report, tol)
        assert type(pressure) is float
        out.append((new, pressure))
    (d_f, p_f), (d_a, p_a) = out
    assert type(d_f) is list and isinstance(d_a, np.ndarray)
    assert same_bits(d_f, d_a)
    assert same_bits(p_f, p_a)
    return p_f


class TestDriftKernel:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fuzzed_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(1, 6))
            tol = Tolerances.uniform(float(10.0 ** rng.uniform(-6, -1)), n)
            y = rng.normal(size=n)
            y_emb = y + draw(rng, n, 0.1) * 1e-4
            drift = draw(rng, n, 0.1) * 1e-3
            b_diag = draw(rng, n, 0.2) * 100.0
            drift_both(drift, y, y_emb, b_diag,
                       float(10.0 ** rng.uniform(-5, 0)), tol)

    def test_monkeypatched_budget_acts_on_both_paths(self, monkeypatch):
        tol = Tolerances.uniform(1e-3, 2)
        args = ([0.02, -0.01], [1.0, 2.0], [0.99, 2.01], [-5.0, 0.0], 0.1,
                tol)
        assert drift_both(*args) == 1.0
        monkeypatch.setattr(stepper, "DRIFT_BUDGET", 0.5)
        assert drift_both(*args) > 1.0


def diagonal_problem(rates, b_values, y0):
    """y' = rates*y + y^2/10 - 0.3 with a diagonal B of b_values.

    full checks the argument type of the path its B takes (linalg.SMALL_N
    is read at call time, so force_numpy_path applies): a tuple of Python
    floats on the float path, an array on the numpy path.  It returns a
    list of Python floats on the first and an array on the second, so the
    float path's stage arguments stay Python floats.
    """
    rates = np.asarray(rates, dtype=float)
    B = DiagonalMatrix(np.asarray(b_values, dtype=float))

    def field(y):
        return rates * y + 0.1 * y * y - 0.3

    def full(y):
        if len(y) <= linalg.SMALL_N:
            assert type(y) is tuple and all(type(x) is float for x in y)
            return field(np.array(y)).tolist()
        assert isinstance(y, np.ndarray)
        return field(y)

    return split_problem("diag", full, lambda y: B, y0, 0.01)


def stages_both(problem, y, h, monkeypatch, scheme=SCHEME,
                embedded=EMBEDDED):
    """Run _stages on both paths, assert the same bits; returns y_next."""
    stats_f = RunStatistics()
    last_f, k1_f, yn_f, ye_f, bd_f = _stages(problem, y, h, scheme, embedded,
                                             stats_f)
    floats_out = (k1_f, yn_f, ye_f) + last_f
    assert all(type(x) is list for x in floats_out)
    with monkeypatch.context() as m:
        force_numpy_path(m)
        m.setattr(stepper, "_FLOAT_STAGES", {})
        stats_a = RunStatistics()
        last_a, k1_a, yn_a, ye_a, bd_a = _stages(problem, y, h, scheme,
                                                 embedded, stats_a)
        # factor alone picks the path: no float stages were generated
        assert stepper._FLOAT_STAGES == {}
    arrays_out = (k1_a, yn_a, ye_a) + last_a
    assert all(isinstance(x, np.ndarray) for x in arrays_out)
    for a, b in zip(floats_out + (bd_f,), arrays_out + (bd_a,)):
        assert same_bits(a, b)
    assert stats_f.as_dict() == stats_a.as_dict()
    (u6_f, k6_f), (u6_a, k6_a) = last_f, last_a
    assert same_bits(stability_estimate(y, u6_f, k1_f, k6_f),
                     stability_estimate(y, u6_a, k1_a, k6_a))
    return yn_f


class TestStagesKernel:
    def test_fuzzed_problems(self, monkeypatch):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, linalg.SMALL_N + 1))
            b = rng.normal(size=n) * 10.0 ** rng.integers(-2, 4, size=n)
            b[rng.random(n) < 0.2] = 0.0
            problem = diagonal_problem(-np.abs(rng.normal(size=n)) * 50.0,
                                       -np.abs(b), rng.normal(size=n))
            h = float(10.0 ** rng.uniform(-6, 0))
            y = rng.normal(size=n)
            stages_both(problem, y, h, monkeypatch)
            # the state may arrive as a list too, as it does mid-run
            stages_both(problem, y.tolist(), h, monkeypatch)

    def test_any_sequence_of_numbers_is_taken(self, monkeypatch):
        # full may return numpy floats, ints or an array on the float
        # path; the stages then mix them with Python floats, bit for bit
        rng = np.random.default_rng(17)
        for kind in (np.asarray, list, lambda f: [round(x) for x in f]):
            for _ in range(20):
                n = int(rng.integers(1, linalg.SMALL_N + 1))
                rates = -np.abs(rng.normal(size=n)) * 50.0
                problem = dataclasses.replace(
                    diagonal_problem(rates, -np.abs(rng.normal(size=n)),
                                     rng.normal(size=n)),
                    full=lambda y, r=rates: kind(r * np.asarray(y)))
                stages_both(problem, rng.normal(size=n).tolist(),
                            float(10.0 ** rng.uniform(-4, -1)), monkeypatch)

    def test_zero_weight_is_multiplied(self, monkeypatch):
        # r1 = 0, and numpy still multiplies it: here y_emb is
        # -0.0 + 0.0 * k1 + (-0.0 terms) = +0.0, where leaving r1 out would
        # give -0.0 (b = 100 makes the pivot 1 - a*h*b negative, which
        # sets the signs of the other zero stages)
        assert EMBEDDED.r[0] == 0.0
        problem = dataclasses.replace(
            diagonal_problem([0.0], [100.0], [1.0]),
            full=lambda u: np.zeros(len(u)))
        stages_both(problem, [-0.0], 0.1, monkeypatch)

    def test_schemes_alternate_in_one_process(self, monkeypatch):
        # one generated function per dimension serves every scheme: the
        # weights are its arguments, so none may be served stale
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(1, linalg.SMALL_N + 1))
            problem = diagonal_problem(-np.abs(rng.normal(size=n)) * 50.0,
                                       -np.abs(rng.normal(size=n)) * 10.0,
                                       rng.normal(size=n))
            h = float(10.0 ** rng.uniform(-4, -1))
            y = rng.normal(size=n).tolist()
            y_default = stages_both(problem, y, h, monkeypatch)
            y_far = stages_both(problem, y, h, monkeypatch, FAR_SCHEME,
                                FAR_EMBEDDED)
            assert not same_bits(y_default, y_far)

    def test_one_function_per_dimension(self, monkeypatch):
        made = []
        compile_generated = stepper._compile_generated

        def counted(source, name, filename, scope):
            made.append(filename)
            return compile_generated(source, name, filename, scope)

        monkeypatch.setattr(stepper, "_FLOAT_STAGES", {})
        monkeypatch.setattr(stepper, "_compile_generated", counted)
        big = linalg.SMALL_N + 1
        for n in (2, 3, 2, big, 3, 2):
            problem = diagonal_problem([-1.0] * n, [-2.0] * n, [1.0] * n)
            _, _, y_next, _, _ = _stages(problem, problem.y0, 0.01, SCHEME,
                                         EMBEDDED, RunStatistics())
            assert type(y_next) is (list if n < big else np.ndarray)
        assert made == ["<stepper float stages, n=2>",
                        "<stepper float stages, n=3>"]
        assert set(stepper._FLOAT_STAGES) == {2, 3}

    def test_generated_on_first_use_in_a_solve(self):
        # a fresh interpreter: importing the package generates nothing
        code = ("from asode import builtin, stepper\n"
                "from asode.benchmark import run_method\n"
                "from asode.problems import Tolerances\n"
                "assert stepper._FLOAT_STAGES == {}\n"
                "p = builtin('example4')\n"
                "run_method('asode3', p, Tolerances.uniform(1e-2, p.n),\n"
                "           stepper.RunStatistics())\n"
                "print(sorted(stepper._FLOAT_STAGES))\n")
        src = os.path.dirname(os.path.dirname(asode.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[4]"

    def test_generated_source_is_visible(self):
        problem = diagonal_problem([-1.0, -2.0, -3.0], [-1.0, -2.0, -3.0],
                                   [1.0, 1.0, 1.0])
        _stages(problem, problem.y0, 0.01, SCHEME, EMBEDDED, RunStatistics())
        code = stepper._FLOAT_STAGES[3].__code__
        assert linecache.getline(code.co_filename, code.co_firstlineno) \
            .startswith("def ")

        calls = []

        def full(y):
            calls.append(y)
            if len(calls) == 2:
                raise RuntimeError("right-hand side failed")
            return tuple(-x for x in y)

        problem = dataclasses.replace(problem, full=full)
        with pytest.raises(RuntimeError) as info:
            attempt_step(problem, problem.y0, 0.01, SCHEME, EMBEDDED,
                         Tolerances.uniform(1e-3, 3), ControllerConfig(),
                         RunStatistics())
        generated = [frame for frame in traceback.extract_tb(info.tb)
                     if frame.filename == code.co_filename]
        assert len(generated) == 1
        assert generated[0].line == "k = full((u_0, u_1, u_2, ))"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_stages(self, monkeypatch):
        problem = diagonal_problem([-1.0, -2.0], [0.0, -1.0], [1.0, 1.0])
        stages_both(problem, np.array([1e200, -1e200]), 1.0, monkeypatch)
        stages_both(problem, np.array([math.inf, 0.5]), 0.1, monkeypatch)

    def test_small_diagonal_factor_matches_numpy_branch(self, monkeypatch):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(1, linalg.SMALL_N + 1))
            B = DiagonalMatrix(draw(rng, n, 0.1) * 100.0)
            c = float(rng.uniform(0.0, 2.0))
            rhs = rng.normal(size=n)
            try:
                small = factor(B, c)
            except SingularMatrix:
                with monkeypatch.context() as m:
                    m.setattr(linalg, "SMALL_N", 0)
                    with pytest.raises(SingularMatrix):
                        factor(B, c)
                continue
            with monkeypatch.context() as m:
                m.setattr(linalg, "SMALL_N", 0)
                big = factor(B, c)
            assert type(small) is type(big) is linalg._DiagonalFactorization
            x = small.solve(rhs)
            assert isinstance(x, np.ndarray)
            assert same_bits(x, big.solve(rhs))
            assert same_bits(small.solve(rhs.tolist()), x)


class TestAttemptRejections:
    @pytest.mark.parametrize("path", ["floats", "numpy"])
    @pytest.mark.parametrize("b", [math.nan, math.inf, "singular"])
    def test_bad_diagonal_halves_h(self, b, path, monkeypatch):
        if path == "numpy":
            force_numpy_path(monkeypatch)
        h = 0.1
        if b == "singular":
            b = 1.0 / (SCHEME.a * h)
        problem = diagonal_problem([-1.0, -2.0], [b, -1.0], [1.0, 1.0])
        stats = RunStatistics()
        rep = attempt_step(problem, problem.y0, h, SCHEME, EMBEDDED,
                           Tolerances.uniform(1e-3, 2), ControllerConfig(),
                           stats)
        assert not rep.accepted
        assert rep.err == math.inf and rep.v is None
        assert rep.h_next == 0.5 * h
        assert stats.factorizations == 1 and stats.phi_evals == 0


def trace_rows(res):
    return [(t, h, err, v, np.asarray(y).tolist())
            for t, h, err, v, y in res.trace]


def assert_same_rows(rows_a, rows_b):
    """Equal traces, row by row; a mismatch names its first row.

    repr tells -0.0 from 0.0 and matches NaN with NaN.  Comparing whole
    traces in one assert would have pytest diff thousands of rows.
    """
    for i, (a, b) in enumerate(zip(rows_a, rows_b)):
        if repr(a) != repr(b):
            raise AssertionError(f"trace rows differ first at {i}:\n"
                                 f"  {a!r}\n  {b!r}")
    assert len(rows_a) == len(rows_b)


@pytest.mark.parametrize("control", [True, False], ids=["control", "plain"])
@pytest.mark.parametrize("tol", [1e-2, 1e-4])
@pytest.mark.parametrize("name", ["example1", "example2", "example3",
                                  "example4"])
def test_kinetics_runs_bit_identical(name, tol, control, monkeypatch):
    problem = builtin(name)
    tols = Tolerances.uniform(tol, problem.n)
    cfg = ControllerConfig(stability_control=control)
    floats = integrate(problem, SCHEME, EMBEDDED, tols, cfg,
                       collect_trace=True)
    force_numpy_path(monkeypatch)
    arrays = integrate(problem, SCHEME, EMBEDDED, tols, cfg,
                       collect_trace=True)
    assert type(floats.t) is float and floats.t == arrays.t
    assert isinstance(floats.y, np.ndarray)
    assert same_bits(floats.y, arrays.y)
    assert floats.stats.as_dict() == arrays.stats.as_dict()
    assert_same_rows(trace_rows(floats), trace_rows(arrays))
    for rows in (floats.trace, arrays.trace):
        for _, _, err, v, y in rows:
            assert type(err) is float
            assert v is None or type(v) is float
            assert isinstance(y, np.ndarray)
