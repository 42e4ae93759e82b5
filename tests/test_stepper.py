"""Tests for the adaptive stepper: error norm, stability estimate, stepsize
selection, single-step behavior, the integration driver, and the order of
the scheme and its embedded companion under fixed steps."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from asode.coefficients import derive_embedded, derive_scheme
from asode.exceptions import (
    DimensionMismatch,
    MaxRejectsExceeded,
    NonFiniteState,
    SingularMatrix,
    StepsizeUnderflow,
    ZeroToleranceDenominator,
)
from asode.linalg import DiagonalMatrix
from asode import linalg, stepper
from asode.problems import Tolerances, builtin
from asode.stepper import (
    ORDER_STUDY_MAX_STEPS,
    ControllerConfig,
    IntegrationResult,
    RunStatistics,
    _stages,
    attempt_step,
    embedded_difference,
    error_norm,
    integrate,
    integrate_fixed,
    propose_next_h,
)

from conftest import split_problem

SCHEME = derive_scheme()
EMBEDDED = derive_embedded(SCHEME)


def scalar_problem(lam, b, name="scalar", t_end=1.0, h0=1e-3):
    """y' = lam*y with the linear part b routed through the solver."""
    B = DiagonalMatrix(np.array([float(b)]))

    def full(y):
        return lam * np.asarray(y)

    return split_problem(name, full, lambda y: B, [1.0], h0, t_end=t_end)


class TestErrorNorm:
    def test_identical_states(self):
        y = np.array([1.0, -2.0, 3.0])
        assert error_norm(y, y.copy(), Tolerances.uniform(1e-2, 3)) == 0.0

    def test_scalar_absolute_only(self):
        tol = Tolerances(atol=np.array([1.0]), rtol=np.array([0.0]))
        assert error_norm(np.array([5.0]), np.array([4.5]), tol) == pytest.approx(0.5)

    def test_componentwise_mixed(self):
        tol = Tolerances(atol=np.array([0.0, 1e-2]), rtol=np.array([1e-2, 0.0]))
        y = np.array([2.0, 0.0])
        y2 = np.array([2.01, 0.005])
        assert error_norm(y, y2, tol) == pytest.approx(0.5)

    def test_zero_denominator_rejected(self):
        tol = Tolerances(atol=np.array([0.0]), rtol=np.array([1e-2]))
        with pytest.raises(ZeroToleranceDenominator):
            error_norm(np.array([0.0]), np.array([1.0]), tol)

    def test_scales_linearly_with_deviation(self):
        rng = np.random.default_rng(7)
        tol = Tolerances.uniform(1e-3, 4)
        for _ in range(20):
            y = rng.normal(size=4)
            d = rng.normal(size=4)
            base = error_norm(y, y + d, tol)
            assert error_norm(y, y + 3.0 * d, tol) == pytest.approx(3.0 * base)


class TestStabilityEstimate:
    def probe(self, full, y, h):
        """The estimate of one explicit (B = 0) attempt, accepted under
        tolerances too loose to reject it; both paths give the same."""
        zero = DiagonalMatrix(np.zeros(len(y)))
        prob = split_problem("probe", full, lambda u: zero, y, h)
        tol = Tolerances.uniform(1e300, len(y))
        out = []
        for small_n in (linalg.SMALL_N, 0):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(linalg, "SMALL_N", small_n)
                _, err, v, _, _ = _stages(prob, y, h, SCHEME, EMBEDDED,
                                          RunStatistics(), tol, True,
                                          [0.0] * len(y))
            assert err <= 1.0
            out.append(v)
        assert out[0] == out[1]
        return out[0]

    def test_two_rate_diagonal_is_exact(self):
        A = np.array([-1.0, -10.0])

        def field(y):
            return A * y

        # on a linear field each quotient is h*|a_i| to rounding, at any
        # stepsize, and the faster mode moves further
        for h in (1e-3, 1e-2, 0.05, 0.2, 0.3):
            v = self.probe(field, np.array([1.0, 1.0]), h)
            assert v == pytest.approx(10.0 * h, rel=1e-12)

    def test_constant_field_gives_zero(self):
        def field(y):
            return np.array([1.0, 2.0])

        assert self.probe(field, np.array([0.3, -0.4]), 0.1) == 0.0

    def test_scalar_rate(self):
        lam = -37.0

        def field(y):
            return lam * np.asarray(y)

        v = self.probe(field, np.array([2.0]), 0.05)
        assert v == pytest.approx(abs(lam) * 0.05, rel=1e-12)

    def test_costs_no_evaluation(self):
        # the estimate is read off stages the attempt has anyway, so an
        # attempt costs three non-stiff evaluations with or without it
        prob = builtin("smooth")
        counts = []
        for control in (True, False):
            stats = RunStatistics()
            rep = attempt_step(prob, prob.y0.copy(), 1e-3, SCHEME, EMBEDDED,
                               Tolerances.uniform(1e-2, prob.n),
                               ControllerConfig(stability_control=control),
                               stats)
            assert rep.accepted and (rep.v is not None) == control
            counts.append(stats.as_dict())
        assert counts[0] == counts[1]
        assert counts[0]["phi_evals"] == 3


class TestProposeNextH:
    @pytest.fixture
    def unit_safety(self, monkeypatch):
        monkeypatch.setattr(stepper, "SAFETY", 1.0)

    @pytest.mark.usefixtures("unit_safety")
    def test_unit_error_keeps_h(self):
        assert propose_next_h(0.1, 1.0, None) == pytest.approx(0.1)

    @pytest.mark.usefixtures("unit_safety")
    def test_eighth_error_doubles_h(self):
        assert propose_next_h(0.1, 0.125, None) == pytest.approx(0.2)

    @pytest.mark.usefixtures("unit_safety")
    def test_stability_cap_blocks_growth(self):
        # accuracy would double h, the stability cap asks for half: keep h
        assert propose_next_h(0.1, 0.125, 4.0) == pytest.approx(0.1)

    def test_retry_never_grows(self):
        # after a rejection the value is the accuracy prediction itself,
        # 0.9*err^(-1/3)*h, at most 0.9*h since err > 1
        assert propose_next_h(0.1, 8.0, None) == pytest.approx(0.045)
        for err in (1.0 + 1e-15, 1.5, 8.0, 1e6, math.inf):
            assert propose_next_h(0.1, err, None) <= 0.9 * 0.1

    def test_retry_underflow_flagged(self):
        # the retry is not clamped: integrate tests it against H_MIN
        assert propose_next_h(2e-12, 1e3, None) < stepper.H_MIN

    @pytest.mark.usefixtures("unit_safety")
    def test_loose_cap_allows_accuracy_growth(self):
        assert propose_next_h(0.1, 0.125, 1.0) == pytest.approx(0.2)

    @pytest.mark.usefixtures("unit_safety")
    def test_pressure_caps_accepted_growth(self):
        assert propose_next_h(0.1, 0.125, None) == pytest.approx(0.2)
        pressed = propose_next_h(0.1, 0.125, None, pressure=4.0)
        assert pressed == pytest.approx(0.05)

    def test_pressure_leaves_retry_alone(self):
        p1 = propose_next_h(0.1, 8.0, None)
        p2 = propose_next_h(0.1, 8.0, None, pressure=5.0)
        assert p1 == pytest.approx(0.045)
        assert p2 == p1


class TestControllerConfig:
    # the tuning values are module constants; the config holds only the
    # stability-control switch, so every other setting is refused
    @pytest.mark.parametrize("kw", [
        {"safety": 0.0},
        {"safety": 1.2},
        {"h_min": 0.0},
        {"h_min": 1.0, "h_max": 0.5},
        {"max_rejects_per_step": 0},
        {"drift_budget": 0.0},
        {"drift_budget": -3.0},
        {"safety": math.nan},
        {"h_min": -1e-3},
        {"h_min": math.nan},
        {"h_max": math.nan},
        {"drift_budget": math.nan},
    ])
    def test_invalid_settings_rejected(self, kw):
        with pytest.raises(TypeError):
            ControllerConfig(**kw)


class TestAttemptStep:
    def run_once(self, problem, y, h, cfg=None, tol=None):
        cfg = cfg or ControllerConfig(stability_control=False)
        tol = tol or Tolerances.uniform(1e-2, problem.n)
        stats = RunStatistics()
        rep = attempt_step(problem, y, h, SCHEME, EMBEDDED, tol, cfg, stats)
        return rep, stats

    def test_zero_stepsize_is_identity(self):
        prob = scalar_problem(-0.7, 0.0)
        rep, _ = self.run_once(prob, np.array([1.0]), 0.0)
        assert rep.accepted
        assert rep.y_next[0] == 1.0

    def test_explicit_scalar_defect_is_fourth_order(self):
        lam = -0.7
        prob = scalar_problem(lam, 0.0)
        defect = {}
        for h in (0.02, 0.01):
            rep, _ = self.run_once(prob, np.array([1.0]), h)
            defect[h] = abs(rep.y_next[0] - math.exp(lam * h))
        assert 14.5 <= defect[0.02] / defect[0.01] <= 17.5

    def test_damping_limit_of_stiff_linear_part(self):
        # phi vanishes identically, g = lam*y with the exact linear part:
        # one unit step at lam*h = -1e8 must crush the state
        prob = scalar_problem(-1e8, -1e8)
        rep, _ = self.run_once(prob, np.array([1.0]), 1.0)
        assert abs(rep.y_next[0]) < 1e-6

    def test_singular_stage_matrix_halves_h(self):
        h = 0.1
        b = 1.0 / (SCHEME.a * h)
        prob = scalar_problem(-1.0, b)
        rep, _ = self.run_once(prob, np.array([1.0]), h)
        assert not rep.accepted
        assert rep.h_next == pytest.approx(h / 2)
        assert rep.y_next is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_result_halves_h(self):
        B = DiagonalMatrix(np.zeros(1))

        def full(y):
            return np.array([math.inf])

        prob = split_problem("blowup", full, lambda y: B, [1.0], 0.1)
        rep, _ = self.run_once(prob, np.array([1.0]), 0.1)
        assert not rep.accepted
        assert rep.h_next == pytest.approx(0.05)

    def test_rejection_report_shape(self):
        # fully explicit very stiff scalar: the estimate explodes
        prob = scalar_problem(-1e6, 0.0)
        rep, _ = self.run_once(prob, np.array([1.0]), 1e-3)
        assert not rep.accepted
        assert rep.err > 1.0
        assert rep.h_next <= 1e-3
        assert rep.y_next is None

    def test_rejection_skips_the_stability_estimate(self, monkeypatch):
        # a retry's stepsize comes from the error model alone, so a
        # rejected attempt neither takes nor reports an estimate
        def never(*args):
            raise AssertionError("the estimate was taken")

        monkeypatch.setattr(stepper, "stability_estimate", never)
        prob = scalar_problem(-1e6, 0.0)
        # the float path estimates in its generated function, so the
        # numpy path (SMALL_N = 0) is the one that would call `never`
        for small_n in (linalg.SMALL_N, 0):
            with monkeypatch.context() as m:
                m.setattr(linalg, "SMALL_N", small_n)
                rep, stats = self.run_once(prob, np.array([1.0]), 1e-3,
                                           cfg=ControllerConfig())
            assert not rep.accepted and rep.err > 1.0
            assert rep.v is None
            assert stats.phi_evals == 3

    def test_acceptance_report_shape(self):
        prob = builtin("smooth")
        rep, stats = self.run_once(prob, prob.y0.copy(), 1e-3,
                                   cfg=ControllerConfig())
        assert rep.accepted and rep.err <= 1.0
        assert rep.h_next >= 1e-3
        assert rep.v is not None and rep.v >= 0.0
        assert stats.phi_evals == 3 and stats.g_evals == 2
        assert stats.factorizations == 1 and stats.linear_solves == 5


class TestIntegrate:
    def test_scalar_decay_matches_exponential(self):
        prob = scalar_problem(-1.0, -1.0)
        res = integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-6, 1))
        assert abs(res.y[0] - math.exp(-1.0)) < 5e-6

    @pytest.mark.parametrize("t_end", [0.0, -5.0, math.nan, math.inf])
    def test_empty_span_rejected(self, t_end):
        # the problem's own check is the one check on the span: an empty,
        # backward, NaN or infinite span never reaches the stepper
        with pytest.raises(ValueError, match="t_end must exceed t0"):
            dataclasses.replace(builtin("smooth"), t_end=t_end)

    def test_span_of_infinite_length_rejected(self):
        # both ends are finite, but t_end - t0 overflows: a run counted
        # from t0 could not end
        with pytest.raises(ValueError, match="t_end must exceed t0"):
            dataclasses.replace(builtin("smooth"), t0=-1e308, t_end=1e308)

    @pytest.mark.parametrize("path", ["float", "numpy"])
    def test_both_entry_points_return_one_result(self, path, monkeypatch):
        # a named tuple: read by name or unpacked, y a float array from
        # either path
        if path == "numpy":
            monkeypatch.setattr(linalg, "SMALL_N", 0)
        prob = builtin("example1")
        for res in (integrate(prob, SCHEME, EMBEDDED,
                              Tolerances.uniform(1e-2, prob.n)),
                    integrate_fixed(prob, (prob.t_end - prob.t0) / 4,
                                    SCHEME, EMBEDDED)):
            assert isinstance(res, IntegrationResult)
            t, y, stats = res
            assert (t, y, stats) == (res.t, res.y, res.stats)
            assert type(y) is np.ndarray and y.dtype == np.float64
            assert y.shape == (prob.n,)
            assert stats.steps_accepted > 0

    def test_result_does_not_alias_initial_state(self):
        prob = builtin("smooth")
        res = integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-2, 2))
        y0 = prob.y0.copy()
        res.y[:] = 7.0
        assert np.array_equal(prob.y0, y0)

    def test_initial_h_beyond_span_takes_one_step(self):
        prob = dataclasses.replace(builtin("smooth"), t_end=1e-3, h0=1.0)
        res = integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-2, 2))
        assert res.stats.steps_accepted == 1
        assert res.t == pytest.approx(1e-3)

    def test_work_counters_with_stability_control(self):
        prob = builtin("smooth")
        res = integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-4, 2))
        s = res.stats
        attempts = s.steps_accepted + s.steps_rejected
        assert s.phi_evals == 3 * attempts
        assert s.g_evals == 2 * attempts
        assert s.factorizations == attempts
        assert s.linear_solves == 5 * attempts

    def test_work_counters_without_stability_control(self):
        prob = builtin("smooth")
        cfg = ControllerConfig(stability_control=False)
        res = integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-4, 2),
                        cfg=cfg)
        s = res.stats
        attempts = s.steps_accepted + s.steps_rejected
        assert s.phi_evals == 3 * attempts
        assert s.g_evals == 2 * attempts

    def test_trace_contents(self):
        prob = builtin("smooth")
        rows = []
        res = integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-3, 2),
                        trace=rows)
        assert len(rows) == res.stats.steps_accepted
        times = [row[0] for row in rows]
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        assert times[-1] == pytest.approx(prob.t_end, abs=1e-12)
        for t, h, err, v, y in rows:
            assert err <= 1.0
            assert h > 0.0
            assert v is not None and v >= 0.0
            assert y.shape == (2,)

    def test_growth_cap_pins_h_at_explicit_stability_span(self):
        # one fast decaying component, one neutral carrier: the error
        # estimate vanishes on the carrier, so only the stability cap brakes
        # the stepsize at |lam|*h = 2 while the fast mode stays visible
        L = np.array([-50.0, 0.0])
        B = DiagonalMatrix(np.zeros(2))

        def full(y):
            return L * y

        prob = split_problem("leak", full, lambda y: B, [1.0, 1.0], 1e-4,
                             t_end=0.4)
        rows = []
        integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-2, 2),
                  trace=rows)
        post = rows[10:]
        assert len(post) >= 5
        vs = [row[3] for row in post]
        assert max(vs) <= 2.2
        capped = [row for row in post if 1.99 <= row[3] <= 2.2]
        assert len(capped) >= 3
        # on those steps accuracy alone would have grown h several-fold
        assert all(row[2] < 0.05 for row in capped)

    def test_stepsize_underflow_raises(self, monkeypatch):
        prob = scalar_problem(-1e6, 0.0, h0=1e-3)
        monkeypatch.setattr(stepper, "H_MIN", 1e-3)
        cfg = ControllerConfig(stability_control=False)
        with pytest.raises(StepsizeUnderflow):
            integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-2, 1),
                      cfg=cfg)

    def test_failed_run_keeps_its_trace_rows(self):
        # a tolerance of 1e-20 underflows example1 after 8 accepted steps;
        # their rows stay in the caller's list, as the work stays in stats
        prob = builtin("example1")
        stats, rows = RunStatistics(), []
        with pytest.raises(StepsizeUnderflow):
            integrate(prob, SCHEME, EMBEDDED,
                      Tolerances.uniform(1e-20, prob.n), trace=rows,
                      stats=stats)
        assert len(rows) == stats.steps_accepted == 8
        times = [row[0] for row in rows]
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        assert all(row[2] <= 1.0 for row in rows)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_halved_retry_underflow_raises(self, monkeypatch):
        # non-finite stages halve h; integrate tests the halved retry
        # against H_MIN as it tests the error model's
        B = DiagonalMatrix(np.zeros(1))

        def full(y):
            return np.array([math.inf])

        prob = split_problem("blowup", full, lambda y: B, [1.0], 1.0)
        monkeypatch.setattr(stepper, "H_MIN", 0.1)
        with pytest.raises(StepsizeUnderflow, match="t=0 "):
            integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-2, 1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_max_rejects_raises(self):
        B = DiagonalMatrix(np.zeros(1))

        def full(y):
            return np.array([math.inf])

        prob = split_problem("blowup", full, lambda y: B, [1.0], 1.0)
        with pytest.raises(MaxRejectsExceeded):
            integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-2, 1))

    @pytest.mark.parametrize("path", ["floats", "numpy"])
    @pytest.mark.parametrize("length", [2, 4])
    def test_wrong_length_rhs_raises(self, length, path, monkeypatch):
        # numpy used to broadcast a short return into a ValueError, and a
        # zip over lists would silently truncate it
        if path == "numpy":
            monkeypatch.setattr(linalg, "SMALL_N", 0)
        B = DiagonalMatrix(np.full(3, -1.0))

        def full(y):
            return np.resize(-np.asarray(y), length)

        prob = split_problem("short", full, lambda y: B, [1.0, 2.0, 3.0],
                             0.1)
        with pytest.raises(DimensionMismatch, match="right-hand side"):
            integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-2, 3))

    @pytest.mark.parametrize("path", ["floats", "numpy"])
    @pytest.mark.parametrize("bad_call", [0, 1, 2])
    @pytest.mark.parametrize("value", [
        (-1.0, -2.0), (-1.0, -2.0, -3.0, -4.0), -1.0, None,
    ], ids=["short", "long", "float", "none"])
    def test_rhs_returning_no_sequence_of_n_raises(self, value, bad_call,
                                                    path, monkeypatch):
        # each of the attempt's three calls is checked: the float path
        # unpacks the return, the numpy path checks the array's shape
        if path == "numpy":
            monkeypatch.setattr(linalg, "SMALL_N", 0)
        B = DiagonalMatrix(np.full(3, -1.0))
        calls = []

        def full(y):
            calls.append(y)
            if len(calls) == bad_call + 1:
                return value
            return tuple(-x for x in y)

        prob = split_problem("bad-rhs", full, lambda y: B, [1.0, 2.0, 3.0],
                             0.1)
        with pytest.raises(DimensionMismatch, match="right-hand side"):
            integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-2, 3))
        assert len(calls) == bad_call + 1

    @pytest.mark.parametrize("path", ["floats", "numpy"])
    def test_rhs_returning_a_column_raises(self, path, monkeypatch):
        # an (n, 1) array unpacks into n arrays on the float path, and
        # the stages' arithmetic takes them; the state they make is
        # refused, as the numpy path refuses the shape
        if path == "numpy":
            monkeypatch.setattr(linalg, "SMALL_N", 0)
        B = DiagonalMatrix(np.full(3, -1.0))
        prob = split_problem("column", lambda y: -np.asarray(y).reshape(3, 1),
                             lambda y: B, [1.0, 2.0, 3.0], 0.1)
        with pytest.raises(DimensionMismatch, match="right-hand side"):
            integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-2, 3))

    def test_rhs_returning_no_numbers_raises_on_the_float_path(self):
        # the generated function's arithmetic on the items raised a bare
        # TypeError
        prob = dataclasses.replace(builtin("example1"),
                                   full=lambda y: ["a"] * 3)
        with pytest.raises(DimensionMismatch, match="not numbers"):
            integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-2, 3))

    @pytest.mark.parametrize("bad_call", [0, 1, 2, "jac"])
    def test_type_error_inside_rhs_or_jac_propagates(self, bad_call):
        # raised by the user's code, not by the stages' arithmetic: each
        # of the float path's three calls passes it on unchanged
        ex1 = builtin("example1")
        calls = []

        def full(y):
            calls.append(y)
            if len(calls) == bad_call + 1:
                raise TypeError("raised in full")
            return ex1.full(y)

        def jac(y):
            if bad_call == "jac":
                raise TypeError("raised in jac")
            return ex1.jac(y)

        prob = dataclasses.replace(ex1, full=full, jac=jac)
        with pytest.raises(TypeError, match="^raised in"):
            integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-2, 3))

    def test_rhs_returning_no_numbers_raises_on_the_numpy_path(self):
        # a dense B takes the numpy path, whose float conversion raised a
        # bare ValueError for these items
        ex1 = builtin("example1")
        B = linalg.DenseMatrix(-np.eye(3))
        prob = dataclasses.replace(ex1, full=lambda y: ["a"] * 3,
                                   jac=lambda y: B)
        with pytest.raises(DimensionMismatch, match="not numbers"):
            integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-2, 3))

    @pytest.mark.parametrize("make_B", [
        lambda: DiagonalMatrix(np.full(4, -1.0)),
        lambda: linalg.DenseMatrix(np.full((4, 4), -1.0)),
        lambda: linalg.DenseMatrix(np.diag(np.full(40, -1.0))),
    ], ids=["floats", "dense", "band"])
    def test_wrong_size_stage_matrix_raises_before_any_rhs_call(self,
                                                                 make_B):
        # one size check right after factor, whichever path B takes
        B = make_B()
        calls = []

        def full(y):
            calls.append(y)
            return -y

        prob = split_problem("wrong-B", full, lambda y: B, [1.0, 2.0, 3.0],
                             0.1)
        with pytest.raises(DimensionMismatch, match="stage matrix size"):
            integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-2, 3))
        assert calls == []

    @pytest.mark.parametrize("path", ["floats", "numpy", "dense"])
    def test_tolerance_length_mismatch_raises_before_any_step(self, path,
                                                               monkeypatch):
        # one check at entry, whichever path B sends the attempts down;
        # numpy alone would broadcast a 1-component tolerance
        if path == "numpy":
            monkeypatch.setattr(linalg, "SMALL_N", 0)
        base = builtin("smooth")
        calls = []

        def jac(y):
            calls.append(y)
            B = base.jac(y)
            return linalg.DenseMatrix(np.diag(B.values)) if path == "dense" else B

        prob = dataclasses.replace(base, jac=jac)
        with pytest.raises(ValueError,
                           match="tolerance length does not match the state"):
            integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-4, 1))
        assert calls == []

    @pytest.mark.parametrize("wrap", [np.diag, lambda d: np.diag(d).tolist()],
                             ids=["ndarray", "list"])
    def test_jac_of_unsupported_type_raises(self, wrap):
        base = builtin("smooth")
        prob = dataclasses.replace(
            base, jac=lambda y: wrap(base.jac(y).values))
        with pytest.raises(DimensionMismatch, match="unsupported matrix type"):
            integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-4, 2))

    def test_jac_of_empty_matrix_raises(self):
        # a solver error, not numpy's ValueError from an empty reduction
        prob = dataclasses.replace(
            builtin("smooth"),
            jac=lambda y: linalg.DenseMatrix(np.zeros((0, 0))))
        with pytest.raises(DimensionMismatch, match="non-empty"):
            integrate(prob, SCHEME, EMBEDDED, Tolerances.uniform(1e-4, 2))

    def test_nonfinite_initial_state_raises(self):
        # rejected where the problem is built, before any integration
        with pytest.raises(ValueError, match="y0 must be finite"):
            dataclasses.replace(builtin("smooth"),
                                y0=np.array([math.nan, 1.0]))


PENTA_N = 20
PENTA_C = 50.0


def pentadiagonal_jacobian(y, out):
    """Writes the Jacobian of pentadiagonal_problem's right-hand side at y
    into out and returns out."""
    idx = np.arange(PENTA_N)
    out[:] = 0.0
    out[idx, idx] = -3.0 * y * y - 2.0 * PENTA_C
    out[idx[:-1], idx[1:]] = 0.5
    out[idx[1:], idx[:-1]] = -0.5
    out[idx[:-2], idx[2:]] = PENTA_C
    out[idx[2:], idx[:-2]] = PENTA_C
    return out


def pentadiagonal_problem(jac):
    """y_i' = -y_i^3 + c (y_{i-2} - 2 y_i + y_{i+2}) + (y_{i+1} - y_{i-1})/2
    with zero boundary values; the Jacobian has bandwidths (2, 2), and
    BAND_RATIO * 4 < PENTA_N sends it down the band path."""
    def full(y):
        pad = np.zeros(PENTA_N + 4)
        pad[2:-2] = y
        return (-y ** 3 + PENTA_C * (pad[:-4] - 2.0 * y + pad[4:])
                + 0.5 * (pad[3:-1] - pad[1:-3]))

    y0 = np.sin(np.pi * np.arange(1, PENTA_N + 1) / (PENTA_N + 1))
    return split_problem("penta", full, jac, y0, 1e-3)


class TestBandedStageMatrix:
    def test_in_place_jacobian_matches_fresh_one(self):
        # factor reads the band of B on every call, so a jac that updates
        # one DenseMatrix in place gives the very run a fresh one gives
        shared = linalg.DenseMatrix(np.zeros((PENTA_N, PENTA_N)))

        def in_place(y):
            pentadiagonal_jacobian(y, shared.values)
            return shared

        def fresh(y):
            return linalg.DenseMatrix(
                pentadiagonal_jacobian(y, np.empty((PENTA_N, PENTA_N))))

        runs = [integrate(pentadiagonal_problem(jac), SCHEME, EMBEDDED,
                          Tolerances.uniform(1e-5, PENTA_N))
                for jac in (fresh, in_place)]
        assert linalg.band_layout(shared.values) == (2, 2)
        assert linalg.BAND_RATIO * 4 < PENTA_N
        assert runs[0].stats.steps_accepted > 10
        assert runs[1].y.tobytes() == runs[0].y.tobytes()
        assert runs[1].stats == runs[0].stats

    def test_split_parts_read_an_in_place_jacobian(self):
        # the band lives in the factorization, so after band-path factors
        # g and phi still apply B as jac last wrote it
        shared = linalg.DenseMatrix(np.zeros((PENTA_N, PENTA_N)))

        def in_place(y):
            pentadiagonal_jacobian(y, shared.values)
            return shared

        prob = pentadiagonal_problem(in_place)
        res = integrate(prob, SCHEME, EMBEDDED,
                        Tolerances.uniform(1e-5, PENTA_N))
        assert res.stats.factorizations > 10
        y = res.y + 0.25
        assert prob.g(y).tobytes() == (in_place(y).values @ y).tobytes()
        assert prob.phi(y).tobytes() == (
            prob.full(y) - in_place(y).values @ y).tobytes()

    def test_attempt_does_not_call_scipy_bandwidth(self, monkeypatch):
        def refuse(a):
            raise AssertionError("scipy.linalg.bandwidth was called")

        monkeypatch.setattr(scipy.linalg, "bandwidth", refuse)
        prob = pentadiagonal_problem(lambda y: linalg.DenseMatrix(
            pentadiagonal_jacobian(y, np.empty((PENTA_N, PENTA_N)))))
        stats = RunStatistics()
        rep = attempt_step(prob, prob.y0, 1e-3, SCHEME, EMBEDDED,
                           Tolerances.uniform(1e-3, PENTA_N),
                           ControllerConfig(), stats)
        assert rep.accepted
        assert stats.factorizations == 1 and stats.linear_solves == 5


class TestDriftGuard:
    # reference final state for example1 from an independent stiff solver
    # (scipy.integrate.solve_ivp, method Radau, rtol=1e-12, atol=1e-14)
    EX1_REFERENCE = np.array([5.976546980655e-01, 1.402343408548e+00,
                              -1.893386540435e-06])

    def test_guard_tightens_coherent_drift(self, monkeypatch):
        # example1's second component integrates a quasi-steady product
        # with no restoring force, so the per-step bias accumulates in one
        # direction; the guard must cut that global drift well below the
        # unguarded level at bounded extra cost, without loosening or
        # tightening acceptance itself
        prob = builtin("example1")
        tol = Tolerances.uniform(1e-4, 3)
        rows = []
        guarded = integrate(prob, SCHEME, EMBEDDED, tol, trace=rows)
        # an infinite budget keeps the pressure at 1: the guard never acts
        monkeypatch.setattr(stepper, "DRIFT_BUDGET", math.inf)
        free = integrate(prob, SCHEME, EMBEDDED, tol)
        err_guarded = error_norm(self.EX1_REFERENCE, guarded.y, tol)
        err_free = error_norm(self.EX1_REFERENCE, free.y, tol)
        assert err_guarded < 0.5 * err_free
        assert all(row[2] <= 1.0 for row in rows)
        assert guarded.stats.steps_accepted < 4 * free.stats.steps_accepted

    def test_guard_inert_when_errors_self_damp(self, monkeypatch):
        # example3's stiff components pull deviations back, so the damped
        # sum stays inside the budget and the guarded run must reproduce
        # the unguarded one exactly
        prob = builtin("example3")
        tol = Tolerances.uniform(1e-2, 3)
        on = integrate(prob, SCHEME, EMBEDDED, tol)
        monkeypatch.setattr(stepper, "DRIFT_BUDGET", math.inf)
        off = integrate(prob, SCHEME, EMBEDDED, tol)
        assert on.stats.steps_accepted == off.stats.steps_accepted
        assert on.stats.steps_rejected == off.stats.steps_rejected
        assert on.stats.phi_evals == off.stats.phi_evals
        assert np.array_equal(on.y, off.y)


def lsq_slope(hs, errors):
    return np.polyfit(np.log(hs), np.log(errors), 1)[0]


class TestFixedStepOrder:
    HS = (0.02, 0.01, 0.005)

    def global_errors(self, prob):
        out = []
        for h in self.HS:
            res = integrate_fixed(prob, h, SCHEME, EMBEDDED)
            out.append(float(np.max(np.abs(res.y - prob.exact(prob.t_end)))))
        return out

    @pytest.mark.parametrize("h", [-0.1, 0.0, math.nan, math.inf])
    def test_bad_stepsize_rejected(self, h):
        # a negative h used to take one step across the whole span, zero
        # divided by zero, and NaN failed inside round(); the one-step gap
        # came back as a number for a negative or zero h (3.9e7 for -0.5
        # on powerlaw) and as SingularMatrix for NaN and inf
        for run in (integrate_fixed, embedded_difference):
            with pytest.raises(ValueError, match="finite and positive"):
                run(builtin("smooth"), h, SCHEME, EMBEDDED)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_step_raises(self):
        # y' = 1e300*y^3 from 1e10 with B = 0 overflows in its first step;
        # the one-step gap came back as nan while integrate_fixed raised
        zero = DiagonalMatrix(np.zeros(1))
        prob = split_problem("blowup", lambda y: 1e300 * np.asarray(y) ** 3,
                             lambda y: zero, [1e10], 0.1)
        for run in (integrate_fixed, embedded_difference):
            with pytest.raises(NonFiniteState,
                               match="state became non-finite at t=0$"):
                run(prob, 0.1, SCHEME, EMBEDDED)

    def test_singular_step_names_t_and_h(self):
        # example3 at h = 0.02 meets a singular stage matrix in its third
        # step, and a stage matrix of 1/(a*h) on the diagonal is singular
        # in the first; the error named neither t nor h
        with pytest.raises(SingularMatrix, match=r"^stage matrix singular "
                           r"at t=0\.04, h=0\.02 \(diagonal pivot .*\); "
                           r"pick a smaller h0 for this problem$"):
            integrate_fixed(builtin("example3"), 0.02, SCHEME, EMBEDDED)
        h = 0.1
        pole = DiagonalMatrix(np.array([1.0 / (SCHEME.a * h)]))
        prob = split_problem("pole", lambda y: -np.asarray(y),
                             lambda y: pole, [1.0], h, t0=2.0, t_end=3.0)
        for run in (integrate_fixed, embedded_difference):
            with pytest.raises(SingularMatrix,
                               match=r"singular at t=2, h=0\.1 .*h0"):
                run(prob, h, SCHEME, EMBEDDED)

    def test_step_count_bound(self):
        # h = 1e-300 used to step without end; the first h here ran
        # 100 001 steps and returned
        prob = builtin("powerlaw")
        span = prob.t_end - prob.t0
        for h in (span / (ORDER_STUDY_MAX_STEPS + 1), 1e-300, 5e-324):
            with pytest.raises(ValueError, match="more than 100000 steps"):
                integrate_fixed(prob, h, SCHEME, EMBEDDED)

    def test_third_order_with_builtin_linear_part(self):
        prob = builtin("smooth")
        slope = lsq_slope(self.HS, self.global_errors(prob))
        assert 2.7 <= slope <= 3.3

    def test_third_order_with_zero_linear_part(self):
        base = builtin("smooth")
        zero = DiagonalMatrix(np.zeros(2))
        prob = dataclasses.replace(base, name="smooth-zeroB",
                                   jac=lambda y: zero)
        slope = lsq_slope(self.HS, self.global_errors(prob))
        assert 2.7 <= slope <= 3.3

    def test_third_order_with_stale_linear_part(self):
        base = builtin("smooth")
        frozen = base.jac(base.y0)
        prob = dataclasses.replace(base, name="smooth-staleB",
                                   jac=lambda y: frozen)
        slope = lsq_slope(self.HS, self.global_errors(prob))
        assert 2.7 <= slope <= 3.3

    def test_embedded_gap_is_third_order_in_h(self):
        # one-step gap between the two solutions scales as h^3; the
        # asymptotic range needs h well under the fast relaxation scale
        prob = builtin("smooth")
        d1 = embedded_difference(prob, 1.25e-3, SCHEME, EMBEDDED)
        d2 = embedded_difference(prob, 6.25e-4, SCHEME, EMBEDDED)
        assert 6.0 <= d1 / d2 <= 10.0

    def test_embedded_gap_ratio_on_linear_problem(self):
        prob = scalar_problem(-0.7, -0.7)
        d1 = embedded_difference(prob, 0.02, SCHEME, EMBEDDED)
        d2 = embedded_difference(prob, 0.01, SCHEME, EMBEDDED)
        assert 7.5 <= d1 / d2 <= 8.5
