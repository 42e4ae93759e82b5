"""Built-in problem tests.

The unsplit right-hand sides are re-coded here, literally, as the test
oracle; the diagonal Jacobian approximations are checked against central
finite differences of those oracles (exact for quadratic right-hand sides
up to round-off).
"""

import math
import warnings

import numpy as np
import pytest

from asode.exceptions import UnknownProblem
from asode.linalg import DenseMatrix, DiagonalMatrix
from asode.problems import (
    BUILTIN_NAMES,
    SplitProblem,
    Tolerances,
    builtin,
    make_split,
)
from asode.reference_rk import MERSON, rk_integrate


def rhs_example1(y):
    return np.array([
        -0.013 * y[0] - 1000.0 * y[0] * y[2],
        -2500.0 * y[1] * y[2],
        -0.013 * y[0] - 1000.0 * y[0] * y[2] - 2500.0 * y[1] * y[2],
    ])


def rhs_example2(y):
    return np.array([
        77.27 * (y[1] - y[0] * y[1] + y[0] - 8.375e-6 * y[0] ** 2),
        (-y[1] - y[0] * y[1] + y[2]) / 77.27,
        0.161 * (y[0] - y[2]),
    ])


def rhs_example3(y):
    return np.array([
        -0.04 * y[0] + 0.01 * y[1] * y[2],
        400.0 * y[0] - 100.0 * y[1] * y[2] - 3000.0 * y[1] ** 2,
        30.0 * y[1] ** 2,
    ])


def rhs_example4(y):
    return np.array([
        y[2] - 100.0 * y[0] * y[1],
        y[2] + 2.0 * y[3] - 100.0 * y[0] * y[1] - 2.0e4 * y[1] ** 2,
        -y[2] + 100.0 * y[0] * y[1],
        -y[3] + 1.0e4 * y[1] ** 2,
    ])


def rhs_smooth(y):
    return np.array([
        -(50.0 + y[1]) * (y[0] - y[1] ** 2) - 2.0 * y[1] ** 2,
        -y[1],
    ])


def rhs_powerlaw(y):
    return np.array([-y[0] ** 3, -2.0 * y[0] ** 2 * y[1]])


ORACLES = {
    "example1": rhs_example1,
    "example2": rhs_example2,
    "example3": rhs_example3,
    "example4": rhs_example4,
    "smooth": rhs_smooth,
    "powerlaw": rhs_powerlaw,
}

SETUP = {
    # name: (y0, t0, t_end, h0)
    "example1": ([1.0, 1.0, 0.0], 0.0, 50.0, 2.9e-4),
    "example2": ([4.0, 1.1, 4.0], 0.0, 300.0, 2e-3),
    "example3": ([1.0, 0.0, 0.0], 0.0, 40.0, 1e-5),
    "example4": ([1.0, 1.0, 0.0, 0.0], 0.0, 20.0, 2.5e-5),
}


def test_builtin_names():
    assert set(BUILTIN_NAMES) == {"example1", "example2", "example3",
                                  "example4", "smooth", "powerlaw"}


def test_unknown_name_raises():
    with pytest.raises(UnknownProblem):
        builtin("example9")


def test_setup_values():
    for name, (y0, t0, t_end, h0) in SETUP.items():
        p = builtin(name)
        assert np.array_equal(p.y0, y0)
        assert p.t0 == t0 and p.t_end == t_end and p.h0 == h0
        assert p.n == len(y0)


def test_split_reproduces_unsplit_rhs():
    rng = np.random.default_rng(20)
    for name in BUILTIN_NAMES:
        p = builtin(name)
        oracle = ORACLES[name]
        for _ in range(100):
            y = rng.uniform(-2.0, 2.0, p.n)
            f = oracle(y)
            recombined = p.phi(y) + p.g(y)
            scale = 1.0 + np.max(np.abs(f))
            assert np.max(np.abs(recombined - f)) < 1e-12 * scale, name
            assert np.max(np.abs(np.asarray(p.full(y)) - f)) < 1e-12 * scale


def test_rhs_values_at_initial_state():
    assert np.allclose(np.asarray(builtin("example1").full([1.0, 1.0, 0.0])),
                       [-0.013, 0.0, -0.013], atol=1e-15)
    expected2 = np.array([
        77.27 * (1.1 - 4.0 * 1.1 + 4.0 - 8.375e-6 * 16.0),
        (-1.1 - 4.0 * 1.1 + 4.0) / 77.27,
        0.0,
    ])
    assert np.allclose(np.asarray(builtin("example2").full([4.0, 1.1, 4.0])),
                       expected2, rtol=1e-15)
    assert np.allclose(np.asarray(builtin("example3").full([1.0, 0.0, 0.0])),
                       [-0.04, 400.0, 0.0], atol=1e-15)
    assert np.allclose(np.asarray(builtin("example4").full([1.0, 1.0, 0.0, 0.0])),
                       [-100.0, -20100.0, 100.0, 10000.0], atol=1e-12)


def test_jacobian_diagonal_matches_finite_differences():
    rng = np.random.default_rng(77)
    for name in BUILTIN_NAMES:
        p = builtin(name)
        oracle = ORACLES[name]
        for _ in range(25):
            y = rng.uniform(-1.5, 1.5, p.n)
            B = p.jac(y)
            assert isinstance(B, DiagonalMatrix)
            eps = 1e-5
            for i in range(p.n):
                yp, ym = y.copy(), y.copy()
                yp[i] += eps
                ym[i] -= eps
                fd = (oracle(yp)[i] - oracle(ym)[i]) / (2.0 * eps)
                assert abs(B.values[i] - fd) < 1e-6 * (1.0 + abs(fd)), \
                    f"{name} component {i}"


def test_smooth_exact_solution():
    p = builtin("smooth")
    assert np.allclose(p.exact(0.0), p.y0, atol=1e-15)
    # derivative of the closed form must satisfy the ODE
    for t in (0.0, 0.31, 1.0, 1.7):
        y = p.exact(t)
        dy = np.array([-2.0 * math.exp(-2.0 * t), -math.exp(-t)])
        assert np.allclose(np.asarray(p.full(y)), dy, atol=1e-12)


def test_powerlaw_exact_solution():
    p = builtin("powerlaw")
    assert np.allclose(p.exact(0.0), p.y0, atol=1e-15)
    # derivative of the closed form must satisfy the ODE
    for t in (0.0, 0.31, 1.0, 1.7):
        y = p.exact(t)
        w = 1.0 + 2.0 * t
        dy = np.array([-(w ** -1.5), -2.0 * w ** -2.0])
        assert np.allclose(np.asarray(p.full(y)), dy, atol=1e-12)


def test_make_split_with_dense_matrix():
    A = np.array([[-3.0, 1.0], [0.5, -2.0]])

    def f(y):
        return np.array([y[1] ** 2 - y[0], -y[0] * y[1]])

    def provider(y):
        return DenseMatrix(A)

    phi, g = make_split(f, provider)
    rng = np.random.default_rng(5)
    for _ in range(50):
        y = rng.standard_normal(2)
        assert np.allclose(g(y), A @ y, atol=1e-14)
        assert np.allclose(phi(y) + g(y), f(y), atol=1e-13)


def test_tolerances_are_read_only_copies():
    # the float lists are taken once, so the arrays must not change later
    atol = np.array([1e-6, 2e-6])
    t = Tolerances(atol=atol, rtol=np.array([1e-3, 0.0]))
    atol[0] = 5.0
    assert t.atol[0] == 1e-6
    with pytest.raises(ValueError):
        t.atol[0] = 5.0
    with pytest.raises(ValueError):
        t.rtol[1] = 5.0
    lists = t.for_state(2)
    assert lists == ((1e-6, 2e-6), (1e-3, 0.0))
    assert all(type(v) is float for part in lists for v in part)


def test_builtin_initial_state_is_read_only():
    # a NaN written into y0 surfaced only as a failed run
    p = builtin("example1")
    with pytest.raises(ValueError):
        p.y0[0] = math.nan
    assert p.y0.tolist() == [1.0, 1.0, 0.0]


def test_tolerance_floats_cannot_be_changed():
    # writing atol = rtol = 0 into the float copies got past the
    # validation, and a comparator run then raised
    # ZeroToleranceDenominator part way
    tol = Tolerances.uniform(1e-4, 2)
    atol, rtol = tol.for_state(2)
    with pytest.raises(TypeError):
        atol[0] = 0.0
    with pytest.raises(TypeError):
        rtol[0] = 0.0
    assert tol.for_state(2) == ((1e-4, 1e-4), (1e-4, 1e-4))
    t, y, _ = rk_integrate(MERSON, lambda s: (-s[0], -s[1]), (0.0, 1.0),
                           (0.0, 1.0), tol, 1e-3)
    assert t == pytest.approx(1.0) and y[0] == 0.0


def test_tolerances_validation():
    t = Tolerances.uniform(1e-4, 3)
    assert np.array_equal(t.atol, [1e-4] * 3)
    assert np.array_equal(t.rtol, [1e-4] * 3)
    with pytest.raises(ValueError):
        Tolerances(atol=np.array([1e-6, -1.0]), rtol=np.array([0.0, 1e-6]))
    with pytest.raises(ValueError):
        Tolerances(atol=np.array([0.0, 1e-6]), rtol=np.array([0.0, 1e-6]))
    with pytest.raises(ValueError):
        Tolerances(atol=np.zeros((2, 2)), rtol=np.zeros(2))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            Tolerances(atol=np.array([1e-6, bad]), rtol=np.array([1e-6, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            Tolerances(atol=np.array([1e-6, 0.0]), rtol=np.array([bad, 1e-6]))
        with pytest.raises(ValueError, match="finite"):
            Tolerances.uniform(bad, 3)
    # mixed zero patterns are fine as long as each component keeps one
    Tolerances(atol=np.array([0.0, 1e-2]), rtol=np.array([1e-2, 0.0]))


def test_empty_state_rejected():
    # neither solver can step zero components: the stepper's error norm
    # has no maximum and the comparator's generated step no statements
    for tol in (lambda: Tolerances(atol=[], rtol=[]),
                lambda: Tolerances.uniform(1e-3, 0)):
        with pytest.raises(ValueError, match="at least one component"):
            tol()
    # built on call: DiagonalMatrix itself rejects an empty diagonal
    zero = lambda y: DiagonalMatrix(np.zeros(len(y)))
    phi, g = make_split(lambda y: y, zero)
    with pytest.raises(ValueError, match="at least one component"):
        SplitProblem(name="empty", n=0, phi=phi, g=g, jac=zero,
                     full=lambda y: y, y0=np.zeros(0), t0=0.0, t_end=1.0,
                     h0=0.1)


def test_powerlaw_jacobian_overflows_to_inf_without_a_warning():
    jac = builtin("powerlaw").jac
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert jac(np.array([1e200, 1.0])).values.tolist() == [-math.inf,
                                                               -math.inf]
    y = np.array([1.7, 0.3])
    assert jac(y).values.tolist() == [-3.0 * y[0] ** 2, -2.0 * y[0] ** 2]
