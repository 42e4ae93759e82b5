"""Comparator tableau construction, stepping, probe, and driver tests."""

import dataclasses
import linecache
import math

import numpy as np
import pytest

from asode import reference_rk
from asode.exceptions import (
    DimensionMismatch,
    StepsizeUnderflow,
    ZeroToleranceDenominator,
)
from asode.problems import Tolerances, builtin
from asode.stepper import IntegrationResult, RunStatistics
from asode.reference_rk import (
    FEHLBERG45,
    MERSON,
    SMALL_N,
    TABLEAUS,
    _rk_step_array,
    _rk_step_full,
    _rk_step_loop,
    linear_growth_factor,
    order_condition_residuals,
    rk_integrate,
    rk_step,
)


class TestTableauConstruction:
    def test_merson_literals(self):
        assert MERSON.stages == 5
        assert MERSON.order == 4
        assert MERSON.order_hat == 3
        assert MERSON.b == (1.0 / 6.0, 0.0, 0.0, 2.0 / 3.0, 1.0 / 6.0)
        assert MERSON.c == (0.0, 1.0 / 3.0, 1.0 / 3.0, 0.5, 1.0)

    def test_fehlberg_literals(self):
        assert FEHLBERG45.stages == 6
        assert FEHLBERG45.order == 5
        assert FEHLBERG45.order_hat == 4
        assert FEHLBERG45.c == (0.0, 0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5)

    def test_registry_names(self):
        assert set(TABLEAUS) == {"merson", "rkf45"}
        assert TABLEAUS["merson"] is MERSON
        assert TABLEAUS["rkf45"] is FEHLBERG45

    def test_estimate_weights_are_weight_difference(self):
        for tab in (MERSON, FEHLBERG45):
            for di, bi, bhi in zip(tab.d, tab.b, tab.b_hat):
                assert di == bi - bhi

    def test_order_conditions_sharp_for_merson(self):
        res4 = order_condition_residuals(MERSON.a, MERSON.b, MERSON.c, 4)
        assert max(res4) < 1e-12
        res5 = order_condition_residuals(MERSON.a, MERSON.b, MERSON.c, 5)
        assert max(res5) > 1e-3

    def test_merson_companion_is_not_order_four(self):
        res = order_condition_residuals(MERSON.a, MERSON.b_hat, MERSON.c, 4)
        assert max(res) > 1e-3

    def test_fehlberg_weights_pass_order_five(self):
        res = order_condition_residuals(FEHLBERG45.a, FEHLBERG45.b,
                                        FEHLBERG45.c, 5)
        assert max(res) < 1e-12

    @pytest.mark.parametrize("broken, match", [
        ({"a": ((), (0.4,), (1.0 / 6.0, 1.0 / 6.0), (1.0 / 8.0, 0.0, 0.375),
                (0.5, 0.0, -1.5, 2.0))}, "does not sum"),
        ({"b": (1.0 / 6.0, 0.0, 0.0, 2.0 / 3.0, 1.0 / 6.0 + 1e-3)}, "order"),
        ({"b_hat": (0.2, 0.2, 0.2, 0.2, 0.2)}, "order"),
        ({"a": ((), (1.0 / 3.0,), (1.0 / 6.0, 1.0 / 6.0),
                (1.0 / 8.0, 0.0, 0.375), (0.5, 0.0, -1.5))}, "must have"),
        ({"stability_span": 4.0}, "inside"),
        ({"stability_span": 2.0}, "understates"),
        ({"stability_span": -1.0}, "positive"),
    ])
    def test_broken_tableau_rejected(self, broken, match):
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(MERSON, **broken)

    def test_growth_factor_hand_values(self):
        # Merson on y' = lambda*y multiplies the state by
        # 1 + z + z^2/2 + z^3/6 + z^4/24 + z^5/144, which at z = -1
        # telescopes to 53/144.
        assert abs(linear_growth_factor(MERSON.a, MERSON.b, 0.0) - 1.0) == 0.0
        r = linear_growth_factor(MERSON.a, MERSON.b, -1.0)
        assert abs(r - 53.0 / 144.0) < 1e-14

    def test_stacked_growth_factors_match_the_scalar(self):
        # construction checks the span with one stacked solve; every value
        # is one solve of (I - z*A) k = 1 and 1 + z * b.k, bit for bit
        rng = np.random.default_rng(5)
        for tab in (MERSON, FEHLBERG45):
            s = tab.stages
            A = np.zeros((s, s))
            for i, row in enumerate(tab.a):
                A[i, :i] = row
            zs = np.concatenate([
                np.linspace(0.0, -tab.stability_span, 257),
                [-1.02 * tab.stability_span, -0.0, 1.5],
                rng.uniform(-40.0, 2.0, 200)])
            want = [1.0 + z * float(np.asarray(tab.b)
                                    @ np.linalg.solve(np.eye(s) - z * A,
                                                      np.ones(s)))
                    for z in zs.tolist()]
            got = reference_rk._growth_factors(tab.a, tab.b, zs)
            assert got.tobytes() == np.array(want).tobytes()
            assert [linear_growth_factor(tab.a, tab.b, z)
                    for z in zs.tolist()] == want

    def test_growth_factor_is_one_at_declared_boundary(self):
        for tab in (MERSON, FEHLBERG45):
            r = linear_growth_factor(tab.a, tab.b, -tab.stability_span)
            assert abs(abs(r) - 1.0) < 1e-6


class TestRkStep:
    def test_zero_h_is_identity(self):
        y = (1.3, -0.7, 0.0)
        f = lambda state: tuple(-2.0 * v for v in state)
        y_next, est = rk_step(MERSON, f, y, 0.0)
        assert y_next == y
        assert est == (0.0, 0.0, 0.0)

    def test_step_matches_manual_tableau_arithmetic(self):
        calls = []

        def f(y):
            val = (-y[0] ** 2 + y[1], y[0] - 2.0 * y[1])
            calls.append(val)
            return val

        h = 0.1
        y = (0.8, -0.3)
        y_next, est = rk_step(MERSON, f, y, h)
        assert len(calls) == MERSON.stages
        for m in range(2):
            manual_y = y[m] + h * sum(bi * k[m]
                                      for bi, k in zip(MERSON.b, calls))
            manual_e = h * sum(di * k[m] for di, k in zip(MERSON.d, calls))
            assert abs(y_next[m] - manual_y) < 1e-14
            assert abs(est[m] - manual_e) < 1e-14

    def test_merson_global_halving_ratio_is_order_four(self):
        errors = []
        for h in (0.05, 0.025):
            y = (1.0,)
            for _ in range(round(1.0 / h)):
                y, _ = rk_step(MERSON, lambda s: (-s[0],), y, h)
            errors.append(abs(y[0] - math.exp(-1.0)))
        ratio = errors[0] / errors[1]
        assert 14.0 <= ratio <= 18.0

    def test_fehlberg_global_halving_ratio_is_order_five(self):
        errors = []
        for h in (0.05, 0.025):
            y = (1.0,)
            for _ in range(round(1.0 / h)):
                y, _ = rk_step(FEHLBERG45, lambda s: (-s[0],), y, h)
            errors.append(abs(y[0] - math.exp(-1.0)))
        ratio = errors[0] / errors[1]
        assert 28.0 <= ratio <= 36.0

    def test_probe_reads_dominant_rate_on_diagonal_field(self):
        f = lambda y: (-80.0 * y[0], -2.0 * y[1])
        for tab in (MERSON, FEHLBERG45):
            _, _, v, _ = _rk_step_full(tab, f, (1.0, 1.0), 0.01, *UNIT_TOL)
            assert abs(v - 0.8) < 1e-9 * 0.8

    def test_probe_silent_on_constant_field(self):
        f = lambda y: (3.0, -1.0)
        for tab in (MERSON, FEHLBERG45):
            _, _, v, _ = _rk_step_full(tab, f, (0.2, 0.4), 0.05, *UNIT_TOL)
            assert v == 0.0

    def test_err_is_rk_integrates_scaled_norm(self):
        f = lambda y: (-80.0 * y[0], -2.0 * y[1])
        atol, rtol = (1e-6, 1e-3), (1e-4, 0.0)
        for tab in (MERSON, FEHLBERG45):
            y_next, est, _, err = _rk_step_full(tab, f, (1.0, 1.0), 0.01,
                                                atol, rtol)
            assert err == max(abs(e) / (a + r * abs(yn)) for yn, e, a, r
                              in zip(y_next, est, atol, rtol))
            assert err > 0.0


def _scripted_field(n, seed, kind, specials):
    """A right-hand side whose outputs come from a seeded generator.

    Each call returns n values of random sign and magnitude (1e-12 to
    1e6), some of them signed zeros and, with specials, some inf, -inf or
    NaN, as a tuple, a list, a tuple of np.float64 or an array.  It
    records the arguments it was called with.
    """
    rng = np.random.default_rng(seed)
    calls = []

    def f(y):
        calls.append(y)
        vals = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12, 6, n)
        zero = rng.random(n) < 0.15
        vals[zero] = np.copysign(0.0, vals[zero])
        if specials:
            pick = rng.random(n)
            vals[pick < 0.1] = math.nan
            vals[(pick >= 0.1) & (pick < 0.15)] = math.inf
            vals[(pick >= 0.15) & (pick < 0.2)] = -math.inf
        if kind == "list":
            return vals.tolist()
        if kind == "float64":
            return tuple(vals)
        if kind == "array":
            return vals
        return tuple(vals.tolist())

    return f, calls


def _signed_zero_field(tab, n):
    """Zeros signed so that every error-estimate term h*d_j*k_j is -0.0.

    For h > 0 the estimate is then +0.0 only because its sum starts
    from 0.0, as in the loop.
    """
    calls = []

    def f(y):
        calls.append(y)
        return (0.0 if tab.d[len(calls) - 1] < 0.0 else -0.0,) * n

    return f


def _same(a, b):
    # bit-identical floats of the same type; NaN matches NaN
    if type(a) is not type(b):
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _same_step(out, ref):
    (y_a, e_a, v_a, err_a), (y_b, e_b, v_b, err_b) = out, ref
    return (len(y_a) == len(y_b) == len(e_a) == len(e_b)
            and all(map(_same, y_a, y_b)) and all(map(_same, e_a, e_b))
            and _same(v_a, v_b) and _same(err_a, err_b))


def _outcome(step, *args):
    """step(*args), or the type of the exception it raised."""
    try:
        return step(*args)
    except Exception as exc:
        return type(exc)


def _same_outcome(out, ref):
    if isinstance(out, type) or isinstance(ref, type):
        return out is ref
    return _same_step(out, ref)


def _draw_tolerances(rng, n):
    """atol and rtol as tuples; some atol are 0, so that a zero component
    of the new state makes a zero denominator."""
    atol = 10.0 ** rng.uniform(-10, 0, n)
    atol[rng.random(n) < 0.2] = 0.0
    return tuple(atol.tolist()), tuple((10.0 ** rng.uniform(-8, 0, n)).tolist())


def unit_tol(n):
    """atol 1 and rtol 0: a step's err is then its largest |estimate|."""
    return (1.0,) * n, (0.0,) * n


UNIT_TOL = unit_tol(2)


class TestGeneratedStep:
    """The generated straight-line step against the loop it unrolls."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("tab", [MERSON, FEHLBERG45],
                             ids=lambda t: t.name)
    @pytest.mark.parametrize("n", range(1, SMALL_N + 1))
    def test_bit_identical_to_loop(self, tab, n):
        rng = np.random.default_rng(1000 * n + tab.stages)
        smooth = [
            # a stiff linear field with a quadratic term, and one with
            # components that are always zero
            lambda y: tuple(-(10.0 ** (m % 4)) * v + 0.5 * v * v
                            for m, v in enumerate(y)),
            lambda y: tuple(0.0 if m % 2 else -3.0 * v
                            for m, v in enumerate(y)),
        ]
        for trial in range(16):
            y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
            y[rng.random(n) < 0.2] = 0.0
            y = tuple(y.tolist())
            h = 10.0 ** rng.uniform(-8, 1)
            atol, rtol = _draw_tolerances(rng, n)
            for kind in ("tuple", "list", "float64", "array"):
                for specials in (False, True):
                    seed = int(rng.integers(2**31))
                    f, calls = _scripted_field(n, seed, kind, specials)
                    g, ref_calls = _scripted_field(n, seed, kind, specials)
                    out = _outcome(_rk_step_full, tab, f, y, h, atol, rtol)
                    ref = _outcome(_rk_step_loop, tab, g, y, h, atol, rtol)
                    assert _same_outcome(out, ref), (kind, specials, y, h)
                    assert calls[0] is y
                    assert all(type(c) is tuple for c in calls)
                    assert len(calls) == len(ref_calls) == tab.stages
                    for c, rc in zip(calls, ref_calls):
                        assert all(map(_same, c, rc))
            for f in smooth:
                for tols in ((atol, rtol), unit_tol(n)):
                    out = _outcome(_rk_step_full, tab, f, y, h, *tols)
                    ref = _outcome(_rk_step_loop, tab, f, y, h, *tols)
                    assert _same_outcome(out, ref)
            out = _rk_step_full(tab, _signed_zero_field(tab, n), y, h,
                                *unit_tol(n))
            ref = _rk_step_loop(tab, _signed_zero_field(tab, n), y, h,
                                *unit_tol(n))
            assert _same_step(out, ref)
        assert n in tab._steps

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("tab", [MERSON, FEHLBERG45],
                             ids=lambda t: t.name)
    def test_err_matches_loop(self, tab):
        # the generated error norm, straight through or handed to the
        # loop's _scaled_error, against the loop: crafted states reach a
        # zero denominator before or after a component that is not
        # finite, and NaN in the estimate alone
        zero = lambda y: (0.0,) * len(y)
        cases = [
            # a zero component of y_next over atol = 0 raises
            (zero, (0.0, 1.0), (0.0, 1e-3), (1e-3, 1e-3)),
            # inf first: err is inf before the zero denominator
            (lambda y: (math.inf, 0.0), (1.0, 0.0), (0.0, 0.0),
             (1e-3, 1e-3)),
            # the zero denominator comes first and raises
            (lambda y: (0.0, math.inf), (0.0, 1.0), (0.0, 0.0),
             (1e-3, 1e-3)),
            # NaN in y_next
            (lambda y: (math.nan, 1.0), (1.0, 1.0), (1e-3, 1e-3),
             (1e-3, 1e-3)),
            # a NaN estimate on a finite state never wins the norm
            (lambda y: (1e300, -1.0), (1e300, 1.0), (1e-3, 1e-3),
             (1e-3, 1e-3)),
            # signed zeros and a state-scaled denominator
            (lambda y: (-0.0, -y[1]), (-0.0, 2.0), (1e-6, 0.0), (0.0, 1e-3)),
        ]
        for f, y, atol, rtol in cases:
            out = _outcome(_rk_step_full, tab, f, y, 0.1, atol, rtol)
            ref = _outcome(_rk_step_loop, tab, f, y, 0.1, atol, rtol)
            assert _same_outcome(out, ref), (y, atol, rtol, out, ref)
        rng = np.random.default_rng(97)
        for _ in range(400):
            n = int(rng.integers(1, SMALL_N + 1))
            seed = int(rng.integers(2**31))
            y = tuple(rng.normal(size=n).tolist())
            tols = _draw_tolerances(rng, n)
            specials = bool(rng.random() < 0.5)
            f, _ = _scripted_field(n, seed, "tuple", specials)
            g, _ = _scripted_field(n, seed, "tuple", specials)
            h = 10.0 ** rng.uniform(-8, -1)
            out = _outcome(_rk_step_full, tab, f, y, h, *tols)
            ref = _outcome(_rk_step_loop, tab, g, y, h, *tols)
            assert _same_outcome(out, ref)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n", range(1, SMALL_N + 1))
    def test_merson_third_direction_with_non_finite_differences(self, n):
        # Merson's third probe direction repeats its second while every
        # first difference u1 - y, k1 - k0 is finite, and the generated
        # step skips it only then.  Each field here makes one of them
        # non-finite in component j and is otherwise a stiff linear field
        y = (1.0,) * n
        cases = [
            # (h/3)*k0_j overflows while (h/6)*k0_j does not: u1 - y is
            # inf, u2 - u1 is -inf, and only the third direction, which
            # drops component j as NaN, reads the other components
            (6.0, 1e308, 0.0),
            # k1 - k0 overflows on finite stages
            (1e-3, -1e308, 1e308),
            (1e-3, math.inf, 0.0),
            (1e-3, 0.0, math.nan),
        ]
        for j in range(n):
            for h, k0_j, k1_j in cases:
                def field(calls):
                    def f(u):
                        calls.append(u)
                        k = [-(10.0 ** (m % 3)) * v for m, v in enumerate(u)]
                        if len(calls) <= 2:
                            k[j] = (k0_j, k1_j)[len(calls) - 1]
                        return tuple(k)
                    return f

                out = _outcome(_rk_step_full, MERSON, field([]), y, h,
                               *unit_tol(n))
                ref = _outcome(_rk_step_loop, MERSON, field([]), y, h,
                               *unit_tol(n))
                assert _same_outcome(out, ref), (j, h, k0_j, k1_j)
                if h == 6.0 and j > 0:
                    assert ref[2] > 0.0

    def test_large_state_takes_the_array_step(self, monkeypatch):
        taken = []

        def array_step(tab, f, y, h, atol, rtol):
            taken.append(len(y))
            return _rk_step_array(tab, f, y, h, atol, rtol)

        monkeypatch.setattr(reference_rk, "_rk_step_array", array_step)
        f = lambda y: tuple(-v for v in y)
        tab = dataclasses.replace(MERSON)
        for n in (SMALL_N, SMALL_N + 1):
            _rk_step_full(tab, f, (1.0,) * n, 0.1, *unit_tol(n))
        assert taken == [SMALL_N + 1]
        assert set(tab._steps) == {SMALL_N}

    def test_generated_on_first_use_with_source_lines(self):
        tab = dataclasses.replace(FEHLBERG45)
        assert tab._steps == {}
        _rk_step_full(tab, lambda y: (-y[0], -y[1]), (1.0, 2.0), 0.1,
                      *UNIT_TOL)
        code = tab._steps[2].__code__
        assert linecache.getline(code.co_filename, code.co_firstlineno) \
            .startswith("def ")

    # in these ids "loop" is the large-state path, n > SMALL_N
    @pytest.mark.parametrize("n", [3, SMALL_N + 1],
                             ids=["generated", "loop"])
    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    @pytest.mark.parametrize("bad_call", [0, 2])
    def test_wrong_length_rhs_raises(self, n, extra, bad_call):
        calls = []

        def f(y):
            calls.append(y)
            m = n + extra if len(calls) == bad_call + 1 else n
            return tuple(-0.5 * v for v in y[:m]) + (1.0,) * (m - n)

        with pytest.raises(DimensionMismatch,
                           match=f"returned {n + extra} components "
                                 f"for a state of {n}"):
            _rk_step_full(MERSON, f, (1.0,) * n, 0.1, *unit_tol(n))
        assert len(calls) == bad_call + 1

    @pytest.mark.parametrize("tab", [MERSON, FEHLBERG45],
                             ids=lambda t: t.name)
    @pytest.mark.parametrize("n", [1, 20], ids=["generated", "loop"])
    @pytest.mark.parametrize("value, kind", [(-1.0, "float"),
                                             (None, "NoneType")])
    def test_rhs_returning_no_sequence_raises(self, tab, n, value, kind):
        # both steps raised a bare TypeError: the generated one from
        # unpacking a float or None, the loop from len()
        with pytest.raises(DimensionMismatch,
                           match=f"returned a {kind} for a state of {n}"):
            rk_integrate(tab, lambda y: value, (1.0,) * n, (0.0, 1.0),
                         Tolerances.uniform(1e-4, n), 1e-3)

    @pytest.mark.parametrize("tab", [MERSON, FEHLBERG45],
                             ids=lambda t: t.name)
    @pytest.mark.parametrize("n", [2, 20], ids=["generated", "loop"])
    def test_rhs_returning_a_column_raises(self, tab, n):
        # an (n, 1) array has n items, so it unpacks, but each is a
        # one-element array: math.isfinite raised a bare TypeError on them
        column = lambda y: -np.asarray(y).reshape(-1, 1)
        with pytest.raises(DimensionMismatch, match="not numbers"):
            rk_integrate(tab, column, (1.0,) * n, (0.0, 1.0),
                         Tolerances.uniform(1e-3, n), 1e-2)
        with pytest.raises(DimensionMismatch, match="not numbers"):
            rk_step(tab, column, (1.0,) * n, 1e-2)


def _same_value(a, b):
    # equal as floats, sign bit included, and NaN matches NaN: the loop
    # can hand back np.float64 items where the array step has arrays
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _same_values(out, ref):
    """_same_outcome with every number compared by _same_value."""
    if isinstance(out, type) or isinstance(ref, type):
        return out is ref
    (y_a, e_a, v_a, err_a), (y_b, e_b, v_b, err_b) = out, ref
    return (len(y_a) == len(y_b) == len(e_a) == len(e_b)
            and all(map(_same_value, y_a, y_b))
            and all(map(_same_value, e_a, e_b))
            and _same_value(v_a, v_b) and _same_value(err_a, err_b))


ARRAY_NS = (SMALL_N + 1, 33, 64)


def _chain_field(n, rate=100.0):
    """A stiff diffusion chain with a quadratic loss term, on arrays and
    sequences alike."""
    def f(y):
        y = np.asarray(y, dtype=float)
        lap = -2.0 * y
        lap[1:] += y[:-1]
        lap[:-1] += y[1:]
        return rate * lap - y * y
    return f


class TestArrayStep:
    """The array step of states above SMALL_N against the loop."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("tab", [MERSON, FEHLBERG45],
                             ids=lambda t: t.name)
    @pytest.mark.parametrize("n", ARRAY_NS)
    def test_bit_identical_to_loop(self, tab, n):
        rng = np.random.default_rng(1000 * n + tab.stages)
        smooth = [
            lambda y: tuple(-(10.0 ** (m % 4)) * v + 0.5 * v * v
                            for m, v in enumerate(y)),
            lambda y: tuple(0.0 if m % 2 else -3.0 * v
                            for m, v in enumerate(y)),
        ]
        for trial in range(12):
            y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
            y[rng.random(n) < 0.2] = 0.0
            y = tuple(y.tolist())
            h = 10.0 ** rng.uniform(-8, 1)
            atol, rtol = _draw_tolerances(rng, n)
            for kind in ("tuple", "list", "float64", "array"):
                for specials in (False, True):
                    seed = int(rng.integers(2**31))
                    f, calls = _scripted_field(n, seed, kind, specials)
                    g, ref_calls = _scripted_field(n, seed, kind, specials)
                    out = _outcome(_rk_step_full, tab, f, y, h, atol, rtol)
                    ref = _outcome(_rk_step_loop, tab, g, y, h, atol, rtol)
                    assert _same_values(out, ref), (kind, specials, h)
                    assert all(type(c) is np.ndarray and c.dtype == float
                               for c in calls)
                    assert len(calls) == len(ref_calls) == tab.stages
                    for c, rc in zip(calls, ref_calls):
                        assert all(map(_same_value, c, rc))
            for f in smooth:
                for tols in ((atol, rtol), unit_tol(n)):
                    out = _outcome(_rk_step_full, tab, f, y, h, *tols)
                    ref = _outcome(_rk_step_loop, tab, f, y, h, *tols)
                    assert _same_values(out, ref)
            out = _rk_step_full(tab, _signed_zero_field(tab, n), y, h,
                                *unit_tol(n))
            ref = _rk_step_loop(tab, _signed_zero_field(tab, n), y, h,
                                *unit_tol(n))
            assert _same_values(out, ref)
            assert type(out[0]) is type(out[1]) is np.ndarray
            assert type(out[2]) is type(out[3]) is float

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("tab", [MERSON, FEHLBERG45],
                             ids=lambda t: t.name)
    @pytest.mark.parametrize("at_end", [False, True],
                             ids=["first", "last"])
    def test_err_matches_loop(self, tab, at_end):
        # TestGeneratedStep's crafted error-norm cases on 17 components,
        # their two components first or last and the rest a decaying
        # field: a zero denominator before and after a component that is
        # not finite, NaN in y_next, and a NaN estimate on a finite state
        zero = lambda y: (0.0, 0.0)
        cases = [
            (zero, (0.0, 1.0), (0.0, 1e-3), (1e-3, 1e-3)),
            (lambda y: (math.inf, 0.0), (1.0, 0.0), (0.0, 0.0),
             (1e-3, 1e-3)),
            (lambda y: (0.0, math.inf), (0.0, 1.0), (0.0, 0.0),
             (1e-3, 1e-3)),
            (lambda y: (math.nan, 1.0), (1.0, 1.0), (1e-3, 1e-3),
             (1e-3, 1e-3)),
            (lambda y: (1e300, -1.0), (1e300, 1.0), (1e-3, 1e-3),
             (1e-3, 1e-3)),
            (lambda y: (-0.0, -y[1]), (-0.0, 2.0), (1e-6, 0.0), (0.0, 1e-3)),
        ]
        pad = SMALL_N - 1

        def place(pair, rest):
            return rest + tuple(pair) if at_end else tuple(pair) + rest

        for two, y, atol, rtol in cases:
            def f(u):
                u = tuple(u)
                pair = two(u[pad:] if at_end else u[:2])
                rest = tuple(-v for v in (u[:pad] if at_end else u[2:]))
                return place(pair, rest)

            args = (f, place(y, (1.0,) * pad), 0.1,
                    place(atol, (1e-3,) * pad), place(rtol, (1e-3,) * pad))
            out = _outcome(_rk_step_full, tab, *args)
            ref = _outcome(_rk_step_loop, tab, *args)
            assert _same_values(out, ref), (y, atol, rtol, out, ref)

        # a field that ignores its argument and is NaN in one component of
        # its third value only: Merson's y_next leaves that value out
        # (b_2 = 0) and its estimate does not, so the norm's NaN quotient
        # must not win
        j = SMALL_N if at_end else 0

        def third_nan(calls):
            def f(u):
                calls.append(u)
                k = [-1.0] * len(u)
                if len(calls) == 3:
                    k[j] = math.nan
                return tuple(k)
            return f

        n = SMALL_N + 1
        out = _outcome(_rk_step_full, tab, third_nan([]), (1.0,) * n, 0.1,
                       *unit_tol(n))
        ref = _outcome(_rk_step_loop, tab, third_nan([]), (1.0,) * n, 0.1,
                       *unit_tol(n))
        assert _same_values(out, ref)
        if tab is MERSON:
            assert math.isnan(ref[1][j]) and ref[3] > 0.0
        rng = np.random.default_rng(98 + at_end)
        for _ in range(60):
            n = int(rng.choice(ARRAY_NS))
            seed = int(rng.integers(2**31))
            y = tuple(rng.normal(size=n).tolist())
            tols = _draw_tolerances(rng, n)
            specials = bool(rng.random() < 0.5)
            f, _ = _scripted_field(n, seed, "tuple", specials)
            g, _ = _scripted_field(n, seed, "tuple", specials)
            h = 10.0 ** rng.uniform(-8, -1)
            out = _outcome(_rk_step_full, tab, f, y, h, *tols)
            ref = _outcome(_rk_step_loop, tab, g, y, h, *tols)
            assert _same_values(out, ref)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_merson_non_finite_first_differences(self):
        # TestGeneratedStep's cases for Merson's third direction: one
        # first difference is not finite in component j
        n = SMALL_N + 1
        y = (1.0,) * n
        cases = [(6.0, 1e308, 0.0), (1e-3, -1e308, 1e308),
                 (1e-3, math.inf, 0.0), (1e-3, 0.0, math.nan)]
        for j in (0, n // 2, n - 1):
            for h, k0_j, k1_j in cases:
                def field(calls):
                    def f(u):
                        calls.append(u)
                        k = [-(10.0 ** (m % 3)) * v for m, v in enumerate(u)]
                        if len(calls) <= 2:
                            k[j] = (k0_j, k1_j)[len(calls) - 1]
                        return tuple(k)
                    return f

                out = _outcome(_rk_step_full, MERSON, field([]), y, h,
                               *unit_tol(n))
                ref = _outcome(_rk_step_loop, MERSON, field([]), y, h,
                               *unit_tol(n))
                assert _same_values(out, ref), (j, h, k0_j, k1_j)
                if h == 6.0 and j > 0:
                    assert ref[2] > 0.0

    @pytest.mark.parametrize("tab", [MERSON, FEHLBERG45],
                             ids=lambda t: t.name)
    def test_whole_run_matches_the_loop(self, tab, monkeypatch):
        # one rk_integrate run on 64 components through the array step,
        # and through the loop: the same t, y, counters and trace rows
        n = 64
        f = _chain_field(n)
        y0 = tuple(np.linspace(0.5, 1.5, n).tolist())
        tol = Tolerances.uniform(1e-4, n)
        runs = []
        for step in (_rk_step_loop, _rk_step_full):
            monkeypatch.setattr(reference_rk, "_rk_step_full", step)
            rows = []
            runs.append((rk_integrate(tab, f, y0, (0.0, 0.5), tol, 1e-3,
                                      trace=rows), rows))
        (ref, ref_rows), (res, rows) = runs
        assert res.t == ref.t
        assert all(map(_same_value, res.y, ref.y))
        assert res.stats == ref.stats
        assert ref.stats.steps_accepted > 50 and ref.stats.steps_rejected
        assert len(rows) == len(ref_rows) == ref.stats.steps_accepted
        for row, ref_row in zip(rows, ref_rows):
            assert all(map(_same_value, row[:4], ref_row[:4]))
            assert all(map(_same_value, row[4], ref_row[4]))

    def test_rk_step_returns_tuples_of_floats(self):
        n = SMALL_N + 1
        y = tuple(np.linspace(0.5, 1.5, n).tolist())
        f = _chain_field(n)
        for tab in (MERSON, FEHLBERG45):
            out = rk_step(tab, f, y, 1e-3)
            ref = _rk_step_loop(tab, f, y, 1e-3, *unit_tol(n))
            for got, want in zip(out, ref[:2]):
                assert type(got) is tuple
                assert all(type(v) is float for v in got)
                assert all(map(_same_value, got, want))


class TestRkIntegrate:
    def test_result_unpacks_and_reads_by_name(self):
        # integrate's result type: unpacked as three values or read by
        # name, its final state a float array
        stats = RunStatistics()
        res = rk_integrate(MERSON, lambda s: (-s[0], -2.0 * s[1]),
                           (1.0, 1.0), (0.0, 1.0),
                           Tolerances.uniform(1e-4, 2), 1e-3, stats=stats)
        t, y, counted = res
        assert isinstance(res, IntegrationResult)
        assert res.t is t and res.y is y and res.stats is counted is stats
        assert type(y) is np.ndarray and y.dtype == np.float64
        assert y.shape == (2,)
        assert res.stats.phi_evals == 5 * (stats.steps_accepted
                                           + stats.steps_rejected) > 0
        assert res.y[0] == pytest.approx(math.exp(-1.0), abs=5e-4)

    def test_linear_decay_lands_within_five_tol(self):
        tol = Tolerances.uniform(1e-4, 1)
        t, y, stats = rk_integrate(MERSON, lambda s: (-s[0],), (1.0,),
                                   (0.0, 1.0), tol, 1e-3)
        assert abs(t - 1.0) < 1e-12
        assert abs(y[0] - math.exp(-1.0)) < 5e-4
        assert stats.steps_accepted > 0

    @pytest.mark.parametrize("span", [(1.0, 1.0), (0.0, -5.0),
                                      (0.0, math.nan), (0.0, math.inf),
                                      (-math.inf, 1.0), (-1e308, 1e308)])
    def test_empty_span_rejected(self, span):
        # an empty, backward, NaN or infinite span is an input error, not a
        # run that hands back the initial state
        tol = Tolerances.uniform(1e-4, 1)
        with pytest.raises(ValueError, match="t_end must exceed t0"):
            rk_integrate(MERSON, lambda s: (-s[0],), (0.7,), span, tol, 1e-3)

    def test_every_attempt_costs_the_stage_count(self):
        for tab in (MERSON, FEHLBERG45):
            tol = Tolerances.uniform(1e-6, 1)
            _, _, stats = rk_integrate(tab, lambda s: (-s[0] ** 3,), (1.0,),
                                       (0.0, 2.0), tol, 1e-3)
            attempts = stats.steps_accepted + stats.steps_rejected
            assert stats.phi_evals == tab.stages * attempts
            assert stats.g_evals == 0
            assert stats.factorizations == 0
            assert stats.linear_solves == 0

    def test_trace_rows_follow_accepted_steps(self):
        tol = Tolerances.uniform(1e-5, 2)
        f = lambda y: (-40.0 * y[0], -y[1])
        trace = []
        t, y, stats = rk_integrate(MERSON, f, (1.0, 1.0), (0.0, 1.0), tol,
                                   1e-4, trace=trace)
        assert len(trace) == stats.steps_accepted
        times = [row[0] for row in trace]
        assert times == sorted(times)
        assert abs(times[-1] - 1.0) < 1e-12
        for row in trace:
            assert row[1] > 0.0          # h_used
            assert 0.0 <= row[2] <= 1.0  # accepted err
            assert row[3] >= 0.0         # v
            assert len(row[4]) == 2

    @pytest.mark.parametrize("tab", [MERSON, FEHLBERG45],
                             ids=["merson", "rkf45"])
    def test_failed_run_keeps_its_trace_rows(self, tab):
        # the right-hand side is NaN below y = 0.5, a wall the run reaches
        # near t = ln 2 and cannot step past; the rows of the steps it
        # accepted stay in the caller's list, as their work stays in stats
        def f(y):
            return (-y[0],) if y[0] >= 0.5 else (math.nan,)

        stats, rows = RunStatistics(), []
        with pytest.raises(StepsizeUnderflow):
            rk_integrate(tab, f, (1.0,), (0.0, 2.0),
                         Tolerances.uniform(1e-6, 1), 1e-2, stats=stats,
                         trace=rows)
        assert len(rows) == stats.steps_accepted == 28
        assert rows[-1][0] == pytest.approx(math.log(2.0), abs=1e-5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unresolvable_step_underflows(self):
        tol = Tolerances.uniform(1e-4, 1)
        with pytest.raises(StepsizeUnderflow):
            rk_integrate(MERSON, lambda s: (math.inf,), (1.0,), (0.0, 1.0),
                         tol, 1e-3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_first_step_retries_by_halving(self):
        # from h0 = 1 the first example4 steps diverge, and their v (up to
        # about 1e20) capped the retry below H_MIN at t = 0
        prob = builtin("example4")
        tol = Tolerances.uniform(1e-2, prob.n)
        for tableau in (MERSON, FEHLBERG45):
            t, y, stats = rk_integrate(tableau, prob.full, tuple(prob.y0),
                                       (prob.t0, prob.t_end), tol, 1.0)
            assert t == pytest.approx(prob.t_end, abs=1e-12)
            assert all(map(math.isfinite, y))
            assert stats.steps_rejected > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("tab, phi_evals", [(MERSON, 7 + 5 * 37),
                                                (FEHLBERG45, 7 + 6 * 37)],
                             ids=["merson", "rkf45"])
    def test_stats_after_underflow(self, tab, phi_evals):
        # a caller's stats holds the work of every attempt before the
        # error, added to what it held
        stats = RunStatistics(phi_evals=7, steps_accepted=2)
        with pytest.raises(StepsizeUnderflow):
            rk_integrate(tab, lambda s: (math.inf,), (1.0,), (0.0, 1.0),
                         Tolerances.uniform(1e-4, 1), 1e-3, stats=stats)
        assert stats == RunStatistics(phi_evals=phi_evals, steps_accepted=2,
                                      steps_rejected=37)

    @pytest.mark.parametrize("tab, steps", [(MERSON, 40), (FEHLBERG45, 33)],
                             ids=["merson", "rkf45"])
    def test_stats_after_mid_run_dimension_mismatch(self, tab, steps):
        # the 203rd call returns one component: the steps before the one
        # it falls in are counted, that step is not
        calls = []

        def f(y):
            calls.append(y)
            return (1.0,) if len(calls) == 203 else (-y[0], -2.0 * y[1])

        stats = RunStatistics(phi_evals=7, steps_accepted=2)
        with pytest.raises(DimensionMismatch):
            rk_integrate(tab, f, (1.0, 1.0), (0.0, 10.0),
                         Tolerances.uniform(1e-8, 2), 1e-3, stats=stats)
        assert len(calls) == 203
        assert stats == RunStatistics(phi_evals=7 + tab.stages * steps,
                                      steps_accepted=2 + steps)

    @pytest.mark.parametrize("h0", [math.nan, 0.0, -1.0])
    def test_non_positive_h0_rejected(self, h0):
        # a NaN step never halves below h_min, so its retries never end;
        # 0 and negative steps are no steps at all
        tol = Tolerances.uniform(1e-4, 1)
        with pytest.raises(ValueError, match="h0 must be positive"):
            rk_integrate(MERSON, lambda s: (-s[0],), (1.0,), (0.0, 1.0),
                         tol, h0)

    def test_non_finite_initial_state_rejected(self):
        # an input error, which exits 1 like the other start checks
        tol = Tolerances.uniform(1e-4, 1)
        with pytest.raises(ValueError, match="y0 must be finite"):
            rk_integrate(MERSON, lambda s: (-s[0],), (math.nan,), (0.0, 1.0),
                         tol, 1e-3)

    def test_vanishing_tolerance_denominator_rejected(self):
        tol = Tolerances(atol=np.zeros(1), rtol=np.full(1, 1e-3))
        with pytest.raises(ZeroToleranceDenominator):
            rk_integrate(MERSON, lambda s: (0.0,), (0.0,), (0.0, 1.0),
                         tol, 1e-3)

    def test_tolerance_length_mismatch_rejected(self):
        for n_tol, y0 in ((3, (1.0,)), (1, (1.0, 1.0))):
            with pytest.raises(
                    ValueError,
                    match="tolerance length does not match the state"):
                rk_integrate(MERSON, lambda s: tuple(-v for v in s), y0,
                             (0.0, 1.0), Tolerances.uniform(1e-4, n_tol),
                             1e-3)

    def test_crude_tolerance_on_quadratic_loss_problem(self):
        # The four-component benchmark problem with quadratic loss terms
        # separates explicit drivers that track the stability boundary
        # from those that lose the trajectory into its blowup basin.
        p = builtin("example4")
        tol = Tolerances.uniform(1e-2, p.n)
        for tab in (MERSON, FEHLBERG45):
            t, y, stats = rk_integrate(tab, p.full, tuple(p.y0),
                                       (p.t0, p.t_end), tol, p.h0)
            assert abs(t - p.t_end) < 1e-10
            assert 1e3 <= stats.phi_evals <= 1e5
            assert all(math.isfinite(v) for v in y)
            assert y[1] > 0.0
