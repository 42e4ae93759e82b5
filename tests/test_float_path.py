"""The stepper's float path against its numpy path, bit for bit.

A DiagonalMatrix B of at most SMALL_N components runs the step attempt on
lists of Python floats; every other B runs it on arrays.  The numpy path
is the reference: the kernels (stages, probe, error norm, drift update,
diagonal factorization) must return the same bits on the same input,
NaN and inf included, and whole runs must agree in every result.
Setting SMALL_N to 0 in stepper and linalg forces the numpy path.
"""

import math

import numpy as np
import pytest

from asode import linalg, stepper
from asode.coefficients import derive_embedded, derive_scheme
from asode.exceptions import (
    DimensionMismatch,
    SingularMatrix,
    ZeroToleranceDenominator,
)
from asode.linalg import DiagonalMatrix, factor
from asode.problems import SplitProblem, Tolerances, builtin, make_split
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

SCHEME = derive_scheme()
EMBEDDED = derive_embedded(SCHEME)

# values that reach the kernels' special branches: signed zeros, ties,
# infinities, NaN, values below the probe's absolute floor
SPECIAL = (0.0, -0.0, 1.0, -1.0, 2.5, 1e-16, -3e-15, 1e300, math.inf,
           -math.inf, math.nan)


def force_numpy_path(m):
    """Send every B down the numpy path (m: monkeypatch or its context)."""
    m.setattr(stepper, "SMALL_N", 0)
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


def queued_phi(outputs, as_list):
    """phi stub returning the queued vectors in turn; records its inputs."""
    queue = list(outputs)
    seen = []

    def phi(u):
        seen.append(np.array(u, dtype=float))
        out = np.array(queue.pop(0), dtype=float)
        return out.tolist() if as_list else out

    return phi, seen


def floats(x) -> list:
    return np.asarray(x, dtype=float).tolist()


def array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def probe_both(y, k1, d1, d2, h=1.0):
    """stability_estimate on lists and on arrays: (v_floats, v_arrays)."""
    results = []
    for conv in (floats, array):
        phi, seen = queued_phi([d1, d2], as_list=conv is floats)
        stats = RunStatistics()
        v = stability_estimate(phi, conv(y), conv(k1), h, stats)
        assert type(v) is float
        assert stats.phi_evals == 2
        results.append((v, seen))
    (v_f, seen_f), (v_a, seen_a) = results
    assert all(same_bits(a, b) for a, b in zip(seen_f, seen_a))
    return v_f, v_a


class TestProbeKernel:
    @pytest.mark.parametrize("d1, d2, k1, expected", [
        # every component below the absolute floor: no information
        ([1.0, 2.0], [5.0, 6.0], [1.0, 2.0], 0.0),
        # NaN in a denominator: np.max is NaN, nothing is kept
        ([math.nan, 2.0], [1.0, 3.0], [0.0, 0.0], 0.0),
        # NaN in k1: its denominator is NaN too
        ([1.0, 2.0], [1.0, 3.0], [math.nan, 0.0], 0.0),
        # inf in k1: inf denominator and floor; its quotient is 0
        ([1.0, 2.0], [3.0, 5.0], [math.inf, 0.0], 0.0),
        # inf in a denominator with an inf numerator: inf - inf is NaN
        ([math.inf, 1.0], [math.inf, 1.0], [0.0, 0.0], math.nan),
        # a NaN quotient on a kept component wins the max
        ([1.0, 1.0], [math.nan, 2.0], [0.0, 0.0], math.nan),
        # ties in the denominators and in the quotients
        ([2.0, -2.0, 2.0], [3.0, -3.0, 1.0], [0.0, 0.0, 0.0], 0.5),
        # the second component carries less than the share floor
        ([1.0, 0.05], [2.0, 10.0], [0.0, 0.0], 1.0),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_crafted_inputs(self, d1, d2, k1, expected):
        y = [0.5] * len(d1)
        v_f, v_a = probe_both(y, k1, d1, d2)
        assert same_bits(v_f, v_a)
        assert same_bits(v_f, expected / stepper.PROBE_ALPHA32)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fuzzed_inputs(self):
        rng = np.random.default_rng(2024)
        for _ in range(3000):
            n = int(rng.integers(1, 6))
            y, k1, d1, d2 = (draw(rng, n) for _ in range(4))
            h = float(10.0 ** rng.uniform(-6, 1))
            v_f, v_a = probe_both(y, k1, d1, d2, h)
            assert same_bits(v_f, v_a), (y, k1, d1, d2, h)

    def test_monkeypatched_offsets_act_on_both_paths(self, monkeypatch):
        y, k1, d1, d2 = [0.3, -0.2], [0.1, 0.4], [0.2, 0.5], [0.7, 0.1]
        before = probe_both(y, k1, d1, d2, 0.3)
        monkeypatch.setattr(stepper, "PROBE_ALPHA21", 0.5)
        monkeypatch.setattr(stepper, "PROBE_ALPHA31", 0.25)
        monkeypatch.setattr(stepper, "PROBE_ALPHA32", 0.25)
        after = probe_both(y, k1, d1, d2, 0.3)
        assert same_bits(after[0], after[1])
        assert after[0] != before[0]
        assert after[0] == pytest.approx(before[0] * 5e-6 / 0.25, rel=1e-12)


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
    """y' = rates*y + y^2/10 - 0.3 with a diagonal B of b_values."""
    rates = np.asarray(rates, dtype=float)
    B = DiagonalMatrix(np.asarray(b_values, dtype=float))

    def full(y):
        assert isinstance(y, np.ndarray)
        return rates * y + 0.1 * y * y - 0.3

    phi, g = make_split(full, lambda y: B)
    return SplitProblem(name="diag", n=len(rates), phi=phi, g=g,
                        jac=lambda y: B, full=full,
                        y0=np.asarray(y0, dtype=float), t0=0.0, t_end=1.0,
                        h0=0.01)


def stages_both(problem, y, h, monkeypatch):
    stats_f = RunStatistics()
    phi_f, k1_f, yn_f, ye_f, bd_f = _stages(problem, y, h, SCHEME, EMBEDDED,
                                            stats_f)
    assert type(k1_f) is list and type(yn_f) is list and type(ye_f) is list
    with monkeypatch.context() as m:
        force_numpy_path(m)
        stats_a = RunStatistics()
        phi_a, k1_a, yn_a, ye_a, bd_a = _stages(problem, y, h, SCHEME,
                                                EMBEDDED, stats_a)
    assert isinstance(k1_a, np.ndarray)
    for a, b in ((k1_f, k1_a), (yn_f, yn_a), (ye_f, ye_a), (bd_f, bd_a)):
        assert same_bits(a, b)
    assert stats_f.as_dict() == stats_a.as_dict()
    u = (np.asarray(y, dtype=float) + 0.25 * np.asarray(k1_a)).tolist()
    assert same_bits(phi_f(u), phi_a(np.array(u)))


class TestStagesKernel:
    def test_fuzzed_problems(self, monkeypatch):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, stepper.SMALL_N + 1))
            b = rng.normal(size=n) * 10.0 ** rng.integers(-2, 4, size=n)
            b[rng.random(n) < 0.2] = 0.0
            problem = diagonal_problem(-np.abs(rng.normal(size=n)) * 50.0,
                                       -np.abs(b), rng.normal(size=n))
            h = float(10.0 ** rng.uniform(-6, 0))
            y = rng.normal(size=n)
            stages_both(problem, y, h, monkeypatch)
            # the state may arrive as a list too, as it does mid-run
            stages_both(problem, y.tolist(), h, monkeypatch)

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
    # repr tells -0.0 from 0.0 and matches NaN with NaN
    assert repr(trace_rows(floats)) == repr(trace_rows(arrays))
    for rows in (floats.trace, arrays.trace):
        for _, _, err, v, y in rows:
            assert type(err) is float
            assert v is None or type(v) is float
            assert isinstance(y, np.ndarray)
