"""Scalar amplification factors: dual-route checks and region scans."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from asode.analysis import (
    embedded_step_factor,
    eval_R,
    eval_R2,
    stability_region_scan,
)
from asode.coefficients import DEFAULT_A, derive_embedded, derive_scheme
from asode.exceptions import PoleProximity
from asode.linalg import DiagonalMatrix
from asode.problems import SplitProblem, Tolerances
from asode.stepper import RunStatistics, _stages

from conftest import split_problem


def _scalar_split_problem(x: float, z: float) -> SplitProblem:
    """1-D split problem whose exact split multipliers are x and z."""
    f = lambda y: np.array([(x + z) * y[0]])
    jac = lambda y: DiagonalMatrix(np.array([z]))
    return split_problem("scalar", f, jac, [1.0], 1.0)


class TestPropagatedFactor:
    def test_consistency_at_origin(self):
        assert eval_R(0.0, 0.0) == 1.0

    def test_matches_exponential_at_third_order(self):
        # halving x scales the defect against e^x by 2^4 for an
        # order-3 step
        e1 = eval_R(0.1, 0.0).real - math.exp(0.1)
        e2 = eval_R(0.05, 0.0).real - math.exp(0.05)
        assert 13.0 <= e1 / e2 <= 19.0

    def test_stiff_limit_vanishes(self):
        mags = [abs(eval_R(0.0, -(10.0 ** k))) for k in (7, 8, 9)]
        assert mags[1] < 1e-6
        assert mags[2] < mags[1] < mags[0]

    def test_stiff_limit_uniform_in_x(self):
        worst = max(abs(eval_R(x, -1e10)) for x in np.linspace(-2.0, 0.0, 9))
        assert worst < 1e-8

    def test_stiff_limit_holds_for_other_derivations(self):
        # the vanishing limit is built into the weight formulas, not a
        # property of the default parameter value alone
        assert abs(eval_R(0.0, -1e8, derive_scheme(0.45))) < 1e-6

    def test_pole_raises(self):
        with pytest.raises(PoleProximity):
            eval_R(0.0, 1.0 / DEFAULT_A)
        with pytest.raises(PoleProximity):
            eval_R(0.3, (1.0 + 1e-14) / DEFAULT_A)

    def test_denominator_cleared_factor_is_polynomial_in_z(self):
        x = 0.37
        zs = np.linspace(-3.0, 0.8, 25)
        vals = np.array([(eval_R(x, z) * (1.0 - DEFAULT_A * z) ** 4).real
                         for z in zs])
        coef = np.polyfit(zs[::2], vals[::2], 6)
        resid = max(abs(np.polyval(coef, z) - v)
                    for z, v in zip(zs[1::2], vals[1::2]))
        assert resid < 1e-8

    def test_explicit_axis_boundary(self):
        # |R(x, 0)| stays at or below 1 from the origin down to the
        # boundary near x = -2.51274533 and exceeds 1 just beyond it
        row = stability_region_scan(np.linspace(-2.5, 0.0, 503),
                                    [0.0], "main")
        assert row.max() <= 1.0 + 1e-12
        assert abs(eval_R(-2.5126, 0.0)) < 1.0
        assert abs(eval_R(-2.5128, 0.0)) > 1.0
        assert abs(eval_R(0.5, 0.0)) > 1.0

    def test_matches_production_stepper(self):
        scheme = derive_scheme(DEFAULT_A)
        emb = derive_embedded(scheme)
        for x, z in ((0.3, -5.0), (-0.4, -0.2), (0.05, -80.0)):
            p = _scalar_split_problem(x, z)
            # accepted under a loose tolerance, the step folds
            # y_next - y_emb into a drift sum that starts at -0.0, which
            # adds nothing, not even a zero's sign
            y_next, _, _, gap, _ = _stages(
                p, np.array([1.0]), 1.0, scheme, emb, RunStatistics(),
                Tolerances.uniform(1e300, 1), False, [-0.0])
            assert abs(y_next[0] - eval_R(x, z).real) < 1e-13
            assert abs(y_next[0] - gap[0] - eval_R2(x, z).real) < 1e-13


class TestCompanionFactor:
    def test_consistency_at_origin(self):
        assert eval_R2(0.0, 0.0) == 1.0

    def test_stiff_limit_vanishes(self):
        assert abs(eval_R2(0.0, -1e8)) < 1e-6

    def test_stiff_limit_holds_for_other_derivations(self):
        assert abs(eval_R2(0.0, -1e8, derive_scheme(0.45))) < 1e-6

    def test_closed_form_matches_step_route(self):
        rng = np.random.default_rng(20260815)
        worst = 0.0
        for _ in range(100):
            x = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            z = complex(-rng.uniform(0.0, 6.0), rng.uniform(-6.0, 6.0))
            worst = max(worst, abs(eval_R2(x, z)
                                   - embedded_step_factor(x, z)))
        assert worst < 1e-12

    def test_pole_raises(self):
        with pytest.raises(PoleProximity):
            eval_R2(0.0, 1.0 / DEFAULT_A)

    @pytest.mark.parametrize("z", [-1e78, -1e200])
    def test_far_stiff_axis_matches_exact_closed_form(self, z):
        # z**4 overflowed (OverflowError: complex exponentiation); the
        # closed form on the x = 0 axis, evaluated in rational arithmetic
        # from the same float weights, is the reference
        c = derive_scheme()
        a, b4 = Fraction(c.a), Fraction(float(c.aux[3]))
        r2, r3, r4, r5 = map(Fraction, derive_embedded(c).r[1:].tolist())
        zq = Fraction(z)
        num = (a**3 * (a - r2) * zq**4
               - a * (4 * a**2 - a * (3 * r2 + r3 + 2 * r4) + r4) * zq**3
               + (6 * a**2 - a * (3 * r2 + 2 * r3 + 3 * r4 + 2 * r5)
                  + r4 + r5) * zq**2
               + (-4 * a + r2 + r3 + r4 + r5) * zq + 1)
        exact = float(num / (1 - a * zq) ** 4)
        value = eval_R2(0.0, z)
        assert value.imag == 0.0
        assert value.real == pytest.approx(exact, rel=1e-12, abs=0.0)
        if z == -1e78:
            assert exact == 2.2213979405289813e-78


class TestRegionScan:
    def test_origin_point(self):
        for which in ("main", "embedded"):
            out = stability_region_scan([0.0], [0.0], which)
            assert out.shape == (1, 1)
            assert out[0, 0] == 1.0

    def test_negative_axis_contained(self):
        zs = -np.logspace(-3.0, 6.0, 120)
        for which in ("main", "embedded"):
            out = stability_region_scan([0.0], zs, which)
            assert out.max() <= 1.0 + 1e-12

    def test_shape_and_orientation(self):
        xs = [-1.0, 0.0, 0.5]
        zs = [-2.0, -0.5]
        out = stability_region_scan(xs, zs, "main")
        assert out.shape == (2, 3)
        for i, z in enumerate(zs):
            for j, x in enumerate(xs):
                assert out[i, j] == abs(eval_R(x, z))

    def test_pole_cell_is_infinite_not_fatal(self):
        zs = [-1.0, 1.0 / DEFAULT_A, -2.0]
        out = stability_region_scan([0.0], zs, "main")
        assert math.isinf(out[1, 0])
        assert np.isfinite(out[[0, 2], 0]).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_factor_beyond_the_float_range_does_not_raise(self):
        # x**2 overflows in both evaluations of the companion's closed
        # form, and the scan let the OverflowError out; it reads inf there,
        # and so does the propagated factor, whose stages overflow
        out = stability_region_scan([1e200], [0.0, -1e78], "embedded")
        assert out[0, 0] == math.inf
        assert np.isfinite(out[1, 0])
        assert stability_region_scan([1e200], [0.0], "main")[0, 0] == math.inf

    @pytest.mark.parametrize("x, z", [(1e200, 0.0), (-1e200, 0.0),
                                      (1e300, 1e-300)])
    def test_overflowing_step_raises_without_a_warning(self, x, z):
        # the stages ran on numpy scalars, which printed overflow and
        # invalid-value warnings and returned NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for factor in (eval_R, embedded_step_factor):
                with pytest.raises(OverflowError, match="float range"):
                    factor(x, z)
            assert stability_region_scan([x], [z], "main")[0, 0] == math.inf

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="unknown stability function"):
            stability_region_scan([0.0], [0.0], "both")
        with pytest.raises(ValueError, match="finite"):
            stability_region_scan([np.inf], [0.0], "main")
        with pytest.raises(ValueError, match="non-empty"):
            stability_region_scan([], [0.0], "main")
