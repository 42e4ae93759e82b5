"""The stepper's float path against its numpy path, bit for bit.

A DiagonalMatrix B of at most SMALL_N components runs the step attempt on
lists of Python floats; every other B runs it on arrays.  The numpy path
is the reference: the generated float function's stages, error norm,
stability estimate and drift sum must give the same bits as the numpy
stages, error_norm, stability_estimate and _drift_update on the same
input, NaN and inf included, and whole runs must agree in every result.
The kernel tests reach the generated function through _stages with a
scripted factorization, whose solves return chosen stages, so that the
estimate, the norm and the drift see crafted values.
Setting linalg.SMALL_N to 0 forces the numpy path: linalg.factor alone
applies the rule, and the stepper follows the factorization it returns.
The float-path function is generated per state dimension on first use,
with the scheme weights as arguments; these tests also hold it to that.
"""

import dataclasses
import linecache
import math
import os
import subprocess
import sys
import traceback
from types import SimpleNamespace

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


SCHEME_WEIGHTS = ("a", "a42", "a43", "b42", "b43", "gamma", "b63", "b64",
                  "b65", "p1", "p2", "p3", "p4", "p5", "p6")
EMBEDDED_WEIGHTS = ("r1", "r2", "r3", "r4", "r5")


def weights(**given):
    """(scheme, embedded) as _stages reads them, every weight 0.0 except
    those given by name."""
    w = tuple(float(given.pop(k, 0.0)) for k in SCHEME_WEIGHTS)
    r = tuple(float(given.pop(k, 0.0)) for k in EMBEDDED_WEIGHTS)
    assert not given, given
    return (SimpleNamespace(a=w[0], stage_weights=lambda: w),
            SimpleNamespace(stage_weights=lambda: r))


class ScriptedFactorization:
    """What _stages reads of a factorization.  B's diagonal is b, and the
    five solves return ks[0], ..., ks[4] (k2, k3, k4, k5 and the
    embedded k5) in turn, whatever their right-hand side: lists with
    b_floats set, which sends the attempt down the float path, and
    arrays without."""

    def __init__(self, b, ks, floats: bool):
        self.dim = len(b)
        self.b_diag = array(b)
        self.b_floats = self.b_diag.tolist() if floats else None
        self._ks = iter(ks)
        self._floats = floats

    def b_matvec(self, v):
        return self.b_diag * array(v)

    def solve(self, rhs):
        k = next(self._ks)
        return floats(k) if self._floats else array(k)


def outcome(fn, *args):
    """fn(*args), or the class of the solver error it raised."""
    try:
        return fn(*args)
    except (DimensionMismatch, ZeroToleranceDenominator) as exc:
        return type(exc)


def assert_same_attempt(out_f, out_a):
    """_stages' float-path result against its numpy-path one, bit for bit:
    the same error class, both None (not finite), or both
    (y_next, err, v, drift, g_norm) with None in the same places."""
    if out_f is None or isinstance(out_f, type):
        assert out_a is out_f, (out_f, out_a)
        return
    assert type(out_a) is tuple and len(out_a) == len(out_f)
    assert type(out_f[0]) is list and isinstance(out_a[0], np.ndarray)
    for x_f, x_a in zip(out_f, out_a):
        assert (x_f is None) == (x_a is None), (out_f, out_a)
        if x_f is not None:
            assert same_bits(x_f, x_a), (out_f, out_a)
    # numpy floats from the right-hand side keep their type
    assert isinstance(out_f[1], float) and type(out_a[1]) is float
    assert out_f[2] is None or isinstance(out_f[2], float)
    assert out_f[3] is None or type(out_f[3]) is list


def kernel_both(monkeypatch, y, fs, ks, tol, b=None, h=1.0, control=True,
                drift=None, **given):
    """One attempt through _stages on each path, on scripted stages.

    The right-hand side returns fs[0], fs[1] and fs[2] in turn, the
    solves return ks (ScriptedFactorization), B's diagonal is b and the
    drift sum drift (zeros by default), and the weights are 0.0 except
    those given.  The float path measures the attempt in its generated
    function, the numpy path with error_norm, stability_estimate and
    _drift_update on arrays; the two must agree bit for bit
    (assert_same_attempt).  Returns the float path's outcome.
    """
    n = len(y)
    b = [0.0] * n if b is None else b
    drift = [0.0] * n if drift is None else drift
    scheme, embedded = weights(**given)
    out = []
    for path_floats in (True, False):
        fact = ScriptedFactorization(b, ks, path_floats)
        returns = iter(fs)
        # the attempt starts from y, not from the problem's y0
        problem = split_problem("scripted", lambda u: floats(next(returns)),
                                lambda u: DiagonalMatrix(np.ones(n)),
                                [0.0] * n, h)
        with monkeypatch.context() as m:
            m.setattr(stepper, "factor", lambda B, c: fact)
            out.append(outcome(_stages, problem, array(y), h, scheme,
                               embedded, RunStatistics(), tol, control,
                               drift))
    assert_same_attempt(*out)
    return out[0]


def probe(monkeypatch, y, k1, k3, k6, k4=None):
    """The stability estimate of an attempt whose first and last
    non-stiff stages are k1 and k6 and whose last stage argument is
    u6 = y + k3 + k4, on both paths (kernel_both); None when a stage is
    not finite, which rejects the attempt before any estimate.

    h = 1 and B = 0 make the stages the scripted values, and zero
    solution weights make y_next = y_emb = y, so the attempt is accepted.
    """
    zeros = [0.0] * len(y)
    out = kernel_both(monkeypatch, y, [k1, zeros, k6],
                      [zeros, k3, k4 or zeros, zeros, zeros],
                      Tolerances.uniform(1e-3, len(y)), b63=1.0, b64=1.0)
    if out is None:
        return None
    _, err, v, _, _ = out
    assert err == 0.0 and type(v) is float
    return v


BIG = 1e308


class TestProbeKernel:
    # d1 = u6 - y is each component's displacement over the attempt and
    # d2 = k6 - k1 the change of its non-stiff stage, so the estimate is
    # the largest |d2_i| / |d1_i| over the components the floors keep.
    # Each case holds stability_estimate to the value given, on arrays and
    # lists, and the generated function to the numpy path on the same
    # stages.  A NaN or inf stage rejects the attempt before any estimate
    # on both paths; test_overflowing_differences reaches the generated
    # estimate's NaN and inf cases through overflow instead
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
    def test_crafted_inputs(self, d1, d2, k1, expected, monkeypatch):
        y = np.full(len(d1), 0.5)
        u6 = y + array(d1)
        k6 = array(k1) + array(d2)
        assert same_bits(stability_estimate(y, u6, array(k1), k6), expected)
        assert same_bits(stability_estimate(y, floats(u6), k1, floats(k6)),
                         expected)
        v = probe(monkeypatch, y.tolist(), k1, d1, floats(k6))
        finite = all(map(math.isfinite, d1 + d2 + k1))
        assert (v is not None) == finite
        if finite:
            assert same_bits(v, expected)

    @pytest.mark.parametrize("k1, k6, expected", [
        # inf displacement with an inf stage change: inf/inf is NaN, and
        # the share floor, 0.1*inf, drops the other component
        ([-BIG, 0.0], [BIG, 1.0], math.nan),
        # two inf displacements: 1/inf is 0, and the NaN quotient after
        # it wins the max
        ([0.0, -BIG], [1.0, BIG], math.nan),
        # ... and the 0 after a NaN does not replace it
        ([-BIG, 0.0], [BIG, 1.0], math.nan),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_differences(self, k1, k6, expected, monkeypatch):
        # u6 = -BIG + BIG + BIG = BIG on the first component, so its
        # displacement from y overflows; the second case does the same on
        # both components
        both = k6[0] == 1.0
        y = [-BIG, -BIG if both else 0.5]
        k3 = [BIG, BIG if both else 1.0]
        k4 = [BIG, BIG if both else 0.0]
        v = probe(monkeypatch, y, k1, k3, k6, k4)
        assert same_bits(v, expected)

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
    def test_state_scale_floor(self, y, u6, k6, expected, monkeypatch):
        k1 = [0.0, -0.0]
        assert same_bits(stability_estimate(array(y), array(u6), array(k1),
                                            array(k6)), expected)
        # the generated function's u6 is y + (u6 - y), exact here; a state
        # that is not finite rejects the attempt on both paths
        v = probe(monkeypatch, y, k1, (array(u6) - array(y)).tolist(), k6)
        assert (v is not None) == all(map(math.isfinite, y))
        if v is not None:
            assert same_bits(v, expected)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fuzzed_inputs(self, monkeypatch):
        rng = np.random.default_rng(2024)
        for _ in range(3000):
            n = int(rng.integers(1, 6))
            y, k1, k6, k3, k4 = (draw(rng, n).tolist() for _ in range(5))
            if rng.random() < 0.5:
                # near-stage arguments reach the share and state floors
                k3 = (draw(rng, n) * 10.0 ** rng.integers(-16, 0)).tolist()
                k4 = None
            probe(monkeypatch, y, k1, k3, k6, k4)

    @pytest.mark.parametrize("y, u6, k1, k6", [
        # unchecked, lists gave 2.0 on each, and arrays 2.0 or numpy's
        # broadcast ValueError
        ([1.0, 2.0], [1.5, 2.5, 9.0], [0.0] * 3, [1.0, 1.0, 5.0]),
        ([1.0], [1.5, 2.5], [0.0, 0.0], [1.0, 1.0]),
        ([1.0, 2.0], [1.5, 2.5], [0.0, 0.0], [1.0]),
    ])
    def test_length_mismatch_raises(self, y, u6, k1, k6):
        # arrays would broadcast the extra components
        with pytest.raises(DimensionMismatch):
            stability_estimate(array(y), floats(u6), floats(k1), floats(k6))
        with pytest.raises(DimensionMismatch):
            stability_estimate(array(y), array(u6), array(k1), array(k6))

    def test_lists_give_the_arrays_estimate(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            y, u6, k1, k6 = (draw(rng, n, 0.1) for _ in range(4))
            with np.errstate(all="ignore"):
                v_l = stability_estimate(*map(floats, (y, u6, k1, k6)))
                v_a = stability_estimate(y, u6, k1, k6)
            assert type(v_l) is float and same_bits(v_l, v_a)


def error_attempt(monkeypatch, y, k1, k2, tol, k3=None):
    """The outcome of an attempt with y_next = y + k1 and
    y_emb = y + k2 + k3 (k3 zeros by default) on both paths
    (kernel_both); h = 1 and B = 0 make k1, k2 and k3 the stages."""
    zeros = [0.0] * len(y)
    return kernel_both(monkeypatch, y, [k1, zeros, zeros],
                       [k2, k3 or zeros, zeros, zeros, zeros], tol,
                       p1=1.0, r2=1.0, r3=1.0)


class TestErrorNormKernel:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fuzzed_inputs(self, monkeypatch):
        rng = np.random.default_rng(7)
        for _ in range(3000):
            n = int(rng.integers(1, 6))
            y, k1, k2 = draw(rng, n), draw(rng, n), draw(rng, n)
            atol = rng.uniform(1e-8, 1e-2, n)
            atol[rng.random(n) < 0.2] = 0.0
            rtol = rng.uniform(1e-6, 1e-2, n)
            if rng.random() < 0.2:
                # y_next = 0 (or -0.0) over atol = 0: a zero denominator
                k1 = -y
            error_attempt(monkeypatch, y.tolist(), k1.tolist(), k2.tolist(),
                          Tolerances(atol=atol, rtol=rtol))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_crafted_inputs(self, monkeypatch):
        tol = Tolerances.uniform(1e-3, 2)
        # the largest scaled deviation, on either component
        out = error_attempt(monkeypatch, [1.0, 2.0], [0.0, 3e-3],
                            [1e-3, 0.0], tol)
        assert out[1] == pytest.approx(3e-3 / (1e-3 + 1e-3 * 2.003))
        # a stage that is not finite leaves no err
        for bad in (math.nan, math.inf, -math.inf):
            assert error_attempt(monkeypatch, [1.0, 2.0], [bad, 0.0],
                                 [0.0, 0.0], tol) is None
            assert error_attempt(monkeypatch, [1.0, 2.0], [0.0, 0.0],
                                 [0.0, bad], tol) is None
        # |y_next - y_emb| and the denominator both overflow: inf/inf is
        # NaN, and NaN wins the max from either place
        wide = Tolerances(atol=np.full(2, 1e-3), rtol=np.full(2, 10.0))
        for m in (0, 1):
            y = [1.0, 1.0]
            y[m] = BIG
            k2 = [0.0, 0.0]
            k2[m] = -BIG
            out = error_attempt(monkeypatch, y, [0.0, 0.0], k2, wide, k3=k2)
            assert math.isnan(out[1]) and out[2:] == (None, None, None)
        # a NaN err is no acceptance: no estimate and no drift

    def test_length_mismatch_raises(self):
        # arrays would broadcast the extra components
        tol = Tolerances.uniform(1e-3, 2)
        for y, y2 in (([1.0], [1.0, 2.0]), ([1.0, 2.0], [1.0]),
                      ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])):
            with pytest.raises(DimensionMismatch):
                error_norm(y, y2, tol)
            with pytest.raises(DimensionMismatch):
                error_norm(np.array(y), np.array(y2), tol)

    def test_zero_denominator_on_both_paths(self, monkeypatch):
        tol = Tolerances(atol=np.array([1e-3, 0.0]),
                         rtol=np.array([1e-3, 1e-3]))
        for y in ([1.0, 0.0], [1.0, -0.0]):
            with pytest.raises(ZeroToleranceDenominator):
                error_norm(y, [1.0, 1.0], tol)
            with pytest.raises(ZeroToleranceDenominator):
                error_norm(np.array(y), np.array([1.0, 1.0]), tol)
            assert error_attempt(monkeypatch, y, [0.0, 0.0], [0.0, 1.0],
                                 tol) is ZeroToleranceDenominator

    def test_lists_give_the_arrays_norm(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            y, y2 = draw(rng, n, 0.1), draw(rng, n, 0.1)
            tol = Tolerances(atol=rng.uniform(1e-8, 1e-2, n),
                             rtol=rng.uniform(0.0, 1e-2, n))
            with np.errstate(all="ignore"):
                e_l = error_norm(y.tolist(), y2.tolist(), tol)
                e_a = error_norm(y, y2, tol)
            assert type(e_l) is float and same_bits(e_l, e_a)


def drift_attempt(monkeypatch, drift, y, dy, b, h, tol):
    """The outcome of an accepted attempt with y_next - y_emb = dy, B's
    diagonal b and stepsize h, folding it into the drift sum, on both
    paths (kernel_both)."""
    zeros = [0.0] * len(y)
    return kernel_both(monkeypatch, y, [zeros] * 3,
                       [dy, zeros, zeros, zeros, zeros], tol, b=b, h=h,
                       control=False, drift=drift, p2=1.0)


class TestDriftKernel:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fuzzed_inputs(self, monkeypatch):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(1, 6))
            tol = float(10.0 ** rng.uniform(-6, -1))
            y = rng.normal(size=n).tolist()
            dy = (draw(rng, n, 0.1) * 0.5 * tol).tolist()
            drift = (draw(rng, n, 0.1) * 1e-3).tolist()
            b = (draw(rng, n, 0.2) * 100.0).tolist()
            out = drift_attempt(monkeypatch, drift, y, dy, b,
                                float(10.0 ** rng.uniform(-5, 0)),
                                Tolerances.uniform(tol, n))
            if out is not None and out[1] <= 1.0:
                _, _, v, new, g_norm = out
                assert v is None and type(new) is list
                assert type(g_norm) is float

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_crafted_inputs(self, monkeypatch):
        tol = Tolerances.uniform(1e-3, 2)
        # growth is clipped (b > 0 decays by 1), a stiff component's sum
        # is wiped (exp(-inf) = 0) before this step's difference is added
        out = drift_attempt(monkeypatch, [0.02, -0.01], [1.0, 2.0],
                            [1e-4, -1e-4], [5.0, -1e300], 0.1, tol)
        _, _, _, new, g_norm = out
        assert new == [pytest.approx(0.0201), pytest.approx(-1e-4)]
        assert g_norm == pytest.approx(0.0201 / 2.0001e-3)
        # NaN and inf in the carried sum: NaN wins the norm, either place
        for drift in ([math.nan, math.inf], [math.inf, math.nan],
                      [-math.inf, 0.0], [-0.0, 0.0]):
            drift_attempt(monkeypatch, drift, [1.0, 2.0], [0.0, -0.0],
                          [-1.0, 0.0], 0.5, tol)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("h, b", [
        # h*b is -0.0, 0.0, positive (clipped to 0), overflows to -inf,
        # and a plain decay
        (1e10, [-0.0, 0.0, 5.0, -1e300, -2e-10]),
        # h*b is subnormal
        (1e-10, [-0.0, 0.0, 5.0, -1e-300, -4e-299]),
    ])
    def test_decay_is_numpys(self, h, b, monkeypatch):
        # the float path's decay, np.exp over x if x < 0.0 else 0.0 with
        # x = h*b, against np.exp(np.minimum(0.0, h*b_diag)): with a unit
        # drift sum and no new difference the new sum is the decay.  A
        # zero state keeps b*y, and so the stages, finite
        n = len(b)
        out = drift_attempt(monkeypatch, [1.0] * n, [0.0] * n, [0.0] * n,
                            b, h, Tolerances.uniform(1e-3, n))
        _, err, _, new, _ = out
        assert err == 0.0
        assert same_bits(new, np.exp(np.minimum(0.0, h * np.array(b))))

    def test_monkeypatched_budget_acts_on_both_paths(self, monkeypatch):
        problem = diagonal_problem([-1.0, -2.0], [-5.0, 0.0], [1.0, 2.0])

        def pressure():
            reports = []
            for small_n in (linalg.SMALL_N, 0):
                with monkeypatch.context() as m:
                    m.setattr(linalg, "SMALL_N", small_n)
                    reports.append(attempt_step(
                        problem, problem.y0, 0.01, SCHEME, EMBEDDED,
                        Tolerances.uniform(1e-3, 2), ControllerConfig(),
                        RunStatistics(), drift=[0.02, -0.01]))
            rep_f, rep_a = reports
            assert rep_f.accepted and rep_a.accepted
            assert type(rep_f.drift) is list
            assert isinstance(rep_a.drift, np.ndarray)
            assert same_bits(rep_f.drift, rep_a.drift)
            assert type(rep_f.next_pressure) is float
            assert rep_f.next_pressure == rep_a.next_pressure
            return rep_f.next_pressure

        assert pressure() == 1.0
        monkeypatch.setattr(stepper, "DRIFT_BUDGET", 0.5)
        assert pressure() > 1.0


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
    """Run _stages on both paths, assert the same bits; returns y_next,
    or None when the attempt is not finite.

    Under a tight tolerance, which mostly rejects, and under a loose one,
    which accepts and so also estimates v and folds the step into a
    drift sum.  Without the estimate the sum starts at -0.0, which adds
    nothing, not even a zero's sign, so the new sum is y_next - y_emb.
    """
    n = len(y)
    drift = [1e-4 * (-1.0) ** m for m in range(n)]
    measured = [(Tolerances.uniform(1e-9, n), True, drift),
                (Tolerances.uniform(1e3, n), True, drift),
                (Tolerances.uniform(1e3, n), False, [-0.0] * n)]
    outs = []
    for args in measured:
        stats_f = RunStatistics()
        out_f = outcome(_stages, problem, y, h, scheme, embedded, stats_f,
                        *args)
        with monkeypatch.context() as m:
            force_numpy_path(m)
            m.setattr(stepper, "_FLOAT_STAGES", {})
            stats_a = RunStatistics()
            out_a = outcome(_stages, problem, y, h, scheme, embedded,
                            stats_a, *args)
            # factor alone picks the path: no float function was generated
            assert stepper._FLOAT_STAGES == {}
        assert_same_attempt(out_f, out_a)
        assert stats_f.as_dict() == stats_a.as_dict()
        outs.append(out_f)
    for out in outs[1:]:
        assert (out is None) == (outs[0] is None)
        if out is not None:
            assert same_bits(out[0], outs[0][0])
    return outs[0] and outs[0][0]


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
        # sets the signs of the other zero stages).  y_emb reaches the
        # results only through y_next - y_emb, and y_next is +0.0 here, so
        # that sign is not seen; the two paths must still agree
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
            y_next = _stages(problem, problem.y0, 0.01, SCHEME, EMBEDDED,
                             RunStatistics(), Tolerances.uniform(1e-3, n),
                             False, [0.0] * n)[0]
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
        _stages(problem, problem.y0, 0.01, SCHEME, EMBEDDED, RunStatistics(),
                Tolerances.uniform(1e-3, 3), False, [0.0] * 3)
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
            assert small.b_floats == B.values.tolist()
            assert big.b_floats is None
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


def trace_rows(trace):
    return [(t, h, err, v, np.asarray(y).tolist())
            for t, h, err, v, y in trace]


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
    rows_f, rows_a = [], []
    floats = integrate(problem, SCHEME, EMBEDDED, tols, cfg, trace=rows_f)
    force_numpy_path(monkeypatch)
    arrays = integrate(problem, SCHEME, EMBEDDED, tols, cfg, trace=rows_a)
    assert type(floats.t) is float and floats.t == arrays.t
    assert isinstance(floats.y, np.ndarray)
    assert same_bits(floats.y, arrays.y)
    assert floats.stats.as_dict() == arrays.stats.as_dict()
    assert_same_rows(trace_rows(rows_f), trace_rows(rows_a))
    for rows in (rows_f, rows_a):
        for _, _, err, v, y in rows:
            assert type(err) is float
            assert v is None or type(v) is float
            assert isinstance(y, np.ndarray)
