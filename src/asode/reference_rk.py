"""Classical explicit Runge-Kutta comparators.

Two standard embedded pairs for benchmark comparisons: Merson's five-stage
fourth-order method with a third-order error companion, and Fehlberg's
six-stage fifth-order pair propagating the higher-order solution.  Both
tableaus are re-verified against the rooted-tree order conditions when
constructed rather than trusted as literals.

For small states the step and rk_integrate work on plain tuples of floats.
Explicit methods on stiff benchmark problems take millions of steps, so
the hot path avoids array-object overhead entirely.  For states of up
to SMALL_N (16) components, the same bound up to which the additive
stepper runs a diagonal-B attempt on Python floats, the step is a
straight-line function generated on first use for each (tableau,
dimension) and kept on the tableau: every component is a local, zero coefficients are left out, and
each sum runs in the loop's order from the loop's start value, so the
results are bit-identical to the loop's.  It is written with the
emitters of asode._codegen, which the additive stepper's generated
stages share, and calls the right-hand side once per stage on a tuple,
its return unpacked into locals.  A return that is not a sequence of n
items raises DimensionMismatch in the generated step and in the loop
alike.  The step also measures itself: it returns rk_integrate's scaled
error norm along with the new state, the error estimate and the
stability estimate, and a state whose items are not numbers (an (n, 1)
column from the right-hand side) raises DimensionMismatch there too.
Its stability probe shares the first stage differences among its three
directions and skips Merson's third when it can only repeat the second
(_step_source).  On the three-component kinetics problems generating
the step cuts its cost to between a quarter and a third.  The generated
source grows with the dimension: at 64 components (the benchmark's
BRUSS N = 32) generating the steps of both tableaus took about 90 ms and
raised peak memory by about 9.5 MB, against 1.5 MB at 16.  So larger
states take the array step (_rk_step_array): the state, every stage
argument and stage value, the new state and the error estimate are
float64 arrays, the right-hand side is called on the stage-argument
array, and each combination is one array operation per nonzero
coefficient in the loop's order, so the results are again the loop's
bit for bit.  At 64 components (the benchmark's bruss32 cell) it costs
about 0.6 of the loop per step.  No run takes the generic loop over
the tableau (_rk_step_loop); it is the reference that the tests hold
both fast paths to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ._codegen import (_compile_generated, _emit_rhs_call, _not_numbers,
                       _wrong_length, _zero_denominator, each,
                       emit_denominators, emit_each, emit_finite, emit_max)
from .exceptions import StepsizeUnderflow
from .linalg import SMALL_N
from .problems import Tolerances, check_start
from .stepper import (END_SHARE, END_STRETCH, PROBE_FLOOR, PROBE_SHARE_FLOOR,
                      IntegrationResult, RunStatistics)

# rooted-tree order conditions up to order five: (order, weight, 1/density)
# with the elementary weight written in terms of A, b, c
_ORDER_CONDITIONS = [
    (1, lambda A, b, c: b.sum(), 1.0),
    (2, lambda A, b, c: b @ c, 1.0 / 2.0),
    (3, lambda A, b, c: b @ c**2, 1.0 / 3.0),
    (3, lambda A, b, c: b @ (A @ c), 1.0 / 6.0),
    (4, lambda A, b, c: b @ c**3, 1.0 / 4.0),
    (4, lambda A, b, c: b @ (c * (A @ c)), 1.0 / 8.0),
    (4, lambda A, b, c: b @ (A @ c**2), 1.0 / 12.0),
    (4, lambda A, b, c: b @ (A @ (A @ c)), 1.0 / 24.0),
    (5, lambda A, b, c: b @ c**4, 1.0 / 5.0),
    (5, lambda A, b, c: b @ (c**2 * (A @ c)), 1.0 / 10.0),
    (5, lambda A, b, c: b @ (A @ c) ** 2, 1.0 / 20.0),
    (5, lambda A, b, c: b @ (c * (A @ c**2)), 1.0 / 15.0),
    (5, lambda A, b, c: b @ (A @ c**3), 1.0 / 20.0),
    (5, lambda A, b, c: b @ (c * (A @ (A @ c))), 1.0 / 30.0),
    (5, lambda A, b, c: b @ (A @ (c * (A @ c))), 1.0 / 40.0),
    (5, lambda A, b, c: b @ (A @ (A @ c**2)), 1.0 / 60.0),
    (5, lambda A, b, c: b @ (A @ (A @ (A @ c))), 1.0 / 120.0),
]

_VERIFY_TOL = 1e-12
# smallest stepsize a comparator run may take or retry with
RK_H_MIN = 1e-14


def order_condition_residuals(a_rows, weights, nodes, order: int) -> list:
    """Residuals of all rooted-tree conditions up to the given order."""
    s = len(nodes)
    A = np.zeros((s, s))
    for i, row in enumerate(a_rows):
        A[i, : len(row)] = row
    b = np.asarray(weights, dtype=float)
    c = np.asarray(nodes, dtype=float)
    return [abs(w(A, b, c) - rhs)
            for o, w, rhs in _ORDER_CONDITIONS if o <= order]


def linear_growth_factor(a_rows, weights, z: float) -> float:
    """Per-step amplification R(z) of the scheme on y' = lambda*y, z = h*lambda.

    Solves the stage system (I - z*A) k = 1 and returns 1 + z * b.k, which
    for an explicit tableau is the method's stability polynomial.
    """
    return float(_growth_factors(a_rows, weights, [z])[0])


def _growth_factors(a_rows, weights, zs) -> np.ndarray:
    """linear_growth_factor at every z of zs, by one stacked solve; each
    value is the scalar one bit for bit (b.k is the 1-D dot per row)."""
    s = len(weights)
    A = np.zeros((s, s))
    for i, row in enumerate(a_rows):
        A[i, : len(row)] = row
    zs = np.asarray(zs, dtype=float)
    k = np.linalg.solve(np.eye(s) - zs[:, None, None] * A,
                        np.ones((zs.size, s, 1)))[..., 0]
    w = np.asarray(weights, dtype=float)
    return 1.0 + zs * np.array([w @ row for row in k])


@dataclass(frozen=True)
class ExplicitTableau:
    """Embedded explicit Runge-Kutta pair.

    a holds the strictly-lower coupling rows (row i has i entries), b the
    propagated weights of order `order`, b_hat the companion weights of
    order `order_hat`.  stability_span is the length of the negative real
    axis segment on which |R(z)| <= 1 for the propagated weights.
    Construction verifies node consistency, the rooted-tree order
    conditions for both weight vectors, and that the declared stability
    span is neither optimistic nor slack.
    """

    name: str
    c: Tuple[float, ...]
    a: Tuple[Tuple[float, ...], ...]
    b: Tuple[float, ...]
    b_hat: Tuple[float, ...]
    order: int
    order_hat: int
    stability_span: float
    d: Tuple[float, ...] = field(init=False)
    # generated straight-line steps by state dimension, filled on first use
    _steps: dict = field(init=False, repr=False, compare=False,
                         default_factory=dict)

    def __post_init__(self):
        s = len(self.c)
        if not (len(self.a) == len(self.b) == len(self.b_hat) == s):
            raise ValueError(f"{self.name}: inconsistent tableau sizes")
        for i, row in enumerate(self.a):
            if len(row) != i:
                raise ValueError(f"{self.name}: coupling row {i} must have "
                                 f"{i} entries")
            if abs(sum(row) - self.c[i]) > _VERIFY_TOL:
                raise ValueError(f"{self.name}: row {i} does not sum to "
                                 f"its node")
        for weights, order, label in ((self.b, self.order, "propagated"),
                                      (self.b_hat, self.order_hat,
                                       "companion")):
            res = order_condition_residuals(self.a, weights, self.c, order)
            worst = max(res)
            if worst > _VERIFY_TOL:
                raise ValueError(
                    f"{self.name}: {label} weights violate an order-"
                    f"{order} condition (residual {worst:.3e})")
        if not self.stability_span > 0.0:
            raise ValueError(f"{self.name}: stability span must be positive")
        # 257 points across the span, then one just beyond it
        zs = np.append(np.linspace(0.0, -self.stability_span, 257),
                       -1.02 * self.stability_span)
        growth = np.abs(_growth_factors(self.a, self.b, zs))
        # fmax skips NaN as the builtin max did (R(0) = 1 comes first)
        inside = float(np.fmax.reduce(growth[:-1]))
        if inside > 1.0 + 1e-9:
            raise ValueError(
                f"{self.name}: |R| reaches {inside:.6f} inside the declared "
                f"stability span")
        beyond = float(growth[-1])
        if beyond <= 1.0:
            raise ValueError(
                f"{self.name}: declared stability span understates the "
                f"method (|R| = {beyond:.6f} just beyond it)")
        object.__setattr__(
            self, "d", tuple(bi - bhi for bi, bhi in zip(self.b, self.b_hat)))

    @property
    def stages(self) -> int:
        return len(self.c)


MERSON = ExplicitTableau(
    name="merson",
    c=(0.0, 1.0 / 3.0, 1.0 / 3.0, 0.5, 1.0),
    a=(
        (),
        (1.0 / 3.0,),
        (1.0 / 6.0, 1.0 / 6.0),
        (1.0 / 8.0, 0.0, 3.0 / 8.0),
        (0.5, 0.0, -1.5, 2.0),
    ),
    b=(1.0 / 6.0, 0.0, 0.0, 2.0 / 3.0, 1.0 / 6.0),
    b_hat=(1.0 / 10.0, 0.0, 3.0 / 10.0, 2.0 / 5.0, 1.0 / 5.0),
    order=4,
    order_hat=3,
    stability_span=3.5483223442,
)

FEHLBERG45 = ExplicitTableau(
    name="rkf45",
    c=(0.0, 0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5),
    a=(
        (),
        (0.25,),
        (3.0 / 32.0, 9.0 / 32.0),
        (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
        (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
        (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
    ),
    b=(16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0,
       2.0 / 55.0),
    b_hat=(25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -0.2, 0.0),
    order=5,
    order_hat=4,
    stability_span=3.6777066213,
)

TABLEAUS = {t.name: t for t in (MERSON, FEHLBERG45)}


def _n_items(k, n: int):
    """k when it is a sequence of n items, else _wrong_length's error:
    the rule the generated steps apply by unpacking."""
    try:
        if len(k) == n:
            return k
    except TypeError:
        pass
    raise _wrong_length(k, n)


def _scaled_error(y_next, est, atol, rtol) -> float:
    """max_i |est_i| / (atol_i + rtol_i*|y_next_i|), or inf from the first
    component of y_next that is not finite.

    A zero denominator before that raises ZeroToleranceDenominator, and
    an item that is no number DimensionMismatch.  The loop computes it
    with this, and so does the generated step when its straight-line
    fast path (every y_next_i a finite number) does not apply.
    """
    err = 0.0
    try:
        for yn, e, at, rt in zip(y_next, est, atol, rtol):
            if not math.isfinite(yn):
                return math.inf
            den = at + rt * abs(yn)
            if den == 0.0:
                raise _zero_denominator()
            q = abs(e) / den
            if q > err:
                err = q
    except TypeError:
        raise _not_numbers() from None
    return err


def _rk_step_full(tableau: ExplicitTableau, f: Callable, y: tuple,
                  h: float, atol: Sequence[float],
                  rtol: Sequence[float]) -> tuple:
    """One explicit step; returns (y_next, error_estimate, v, err).

    err is the step's scaled error norm against the tolerances atol and
    rtol (_scaled_error), which rk_integrate accepts at err <= 1.

    v estimates h times the dominant local eigenvalue from the three
    stage arguments nearest the step's start, as h times the largest
    componentwise quotient of a right-hand-side difference over the
    matching argument difference, maximized over three probe directions
    that cover complementary regimes.  The two raw differences g1 - y
    and g2 - g1 carry the stiff signal during transients, when the field
    itself points off the slow manifold.  In quiescent stretches they go
    blind: a raw difference is (c_j - c_i)*h*f(y) to first order, and
    along the field direction a settled stiff component contributes
    nothing.  The third direction, g2 - g1 - rho*(g1 - y) with
    rho = (c2 - c1)/c1, cancels that field term and leaves a multiple of
    k2 - k1, which the dominant eigenvalue repopulates every step like a
    power iteration.  The additive solver reads its estimate the same
    way, as a stage-difference quotient, from its first and last
    non-stiff stages, and both skip components by the same floors: below
    a 10% share of the largest denominator component, or below an
    absolute noise floor.  The componentwise form matters too: a ratio
    of norms dilutes a stiff component by its share of the difference
    vector.  Any of these under-reads, left alone, lets the step grow past
    the stability boundary while the error estimate is still quiet.  When
    no component has a signal (constant field, zero denominators,
    overflow) v is 0.

    States of at most SMALL_N components take the tableau's
    generated straight-line step for their dimension, larger ones the
    array step, which returns y_next and the estimate as float64 arrays;
    both do the loop's arithmetic.  A right-hand side that returns
    anything but a sequence of n numbers raises DimensionMismatch.
    """
    n = len(y)
    if n > SMALL_N:
        return _rk_step_array(tableau, f, y, h, atol, rtol)
    step = tableau._steps.get(n)
    if step is None:
        step = tableau._steps[n] = _generate_step(tableau, n)
    return step(f, y, h, atol, rtol)


def _rk_step_loop(tableau: ExplicitTableau, f: Callable, y: tuple,
                  h: float, atol: Sequence[float],
                  rtol: Sequence[float]) -> tuple:
    """_rk_step_full as a loop over the tableau, for any state dimension.

    This is the reference that the generated and array steps are tested
    against.
    """
    n = len(y)
    ks = [_n_items(f(y), n)]
    probe_args = [list(y)]
    for i, row in enumerate(tableau.a[1:], start=1):
        u = list(y)
        for aij, k in zip(row, ks):
            if aij != 0.0:
                w = h * aij
                for m, km in enumerate(k):
                    u[m] += w * km
        if i <= 2:
            probe_args.append(u)
        ks.append(_n_items(f(tuple(u)), n))
    y_next = list(y)
    for bi, k in zip(tableau.b, ks):
        if bi != 0.0:
            w = h * bi
            for m, km in enumerate(k):
                y_next[m] += w * km
    est = [0.0] * n
    for di, k in zip(tableau.d, ks):
        if di != 0.0:
            w = h * di
            for m, km in enumerate(k):
                est[m] += w * km
    err = _scaled_error(y_next, est, atol, rtol)
    g0, g1, g2 = probe_args
    k0, k1, k2 = ks[0], ks[1], ks[2]
    rho = (tableau.c[2] - tableau.c[1]) / tableau.c[1]
    probes = (
        ([abs(g1[m] - g0[m]) for m in range(n)],
         [abs(k1[m] - k0[m]) for m in range(n)]),
        ([abs(g2[m] - g1[m]) for m in range(n)],
         [abs(k2[m] - k1[m]) for m in range(n)]),
        ([abs(g2[m] - g1[m] - rho * (g1[m] - g0[m])) for m in range(n)],
         [abs(k2[m] - k1[m] - rho * (k1[m] - k0[m])) for m in range(n)]),
    )
    v = 0.0
    for dens, nums in probes:
        dmax = max(dens)
        if not (dmax > 0.0 and math.isfinite(dmax)):
            continue
        for m, dm in enumerate(dens):
            if dm < max(PROBE_SHARE_FLOOR * dmax,
                        PROBE_FLOOR * (1.0 + abs(g1[m]))):
                continue
            if math.isfinite(nums[m]):
                q = h * nums[m] / dm
                if q > v:
                    v = q
    return tuple(y_next), tuple(est), v, err


def _stage_value(f: Callable, u: np.ndarray, n: int) -> np.ndarray:
    """f(u) as a float64 array of n items: _n_items' rule and messages
    first, then anything but n numbers raises _not_numbers()."""
    k = _n_items(f(u), n)
    try:
        k = np.asarray(k, dtype=float)
    except (TypeError, ValueError):
        raise _not_numbers() from None
    if k.shape != (n,):
        raise _not_numbers()
    return k


def _combine(start: np.ndarray, h: float, coeffs, ks: list) -> np.ndarray:
    """A copy of start plus (h*c_j)*k_j over the nonzero c_j, left to
    right: the loop's sum in every component."""
    out = start.copy()
    for c, k in zip(coeffs, ks):
        if c != 0.0:
            out += (h * c) * k
    return out


def _rk_step_array(tableau: ExplicitTableau, f: Callable, y, h: float,
                   atol, rtol) -> tuple:
    """_rk_step_full on float64 arrays, for states above SMALL_N.

    Every stage argument, stage value, y_next and the estimate is an
    array, and f is called on the stage-argument array.  Each
    combination is _combine's, and the error norm and the probe keep the
    loop's rules, so the results are the loop's bit for bit.  The step's
    own arithmetic runs with numpy's floating-point warnings off, as the
    loop's Python floats overflow to inf and NaN silently; f runs
    outside that.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    ks = [_stage_value(f, y, n)]
    probe_args = [y]
    for i, row in enumerate(tableau.a[1:], start=1):
        with np.errstate(all="ignore"):
            u = _combine(y, h, row, ks)
        if i <= 2:
            probe_args.append(u)
        ks.append(_stage_value(f, u, n))
    with np.errstate(all="ignore"):
        y_next = _combine(y, h, tableau.b, ks)
        est = _combine(np.zeros(n), h, tableau.d, ks)
        den = atol + rtol * np.abs(y_next)
        finite = np.isfinite(y_next)
        if finite.all():
            if (den == 0.0).any():
                raise _zero_denominator()
            # _scaled_error's `q > err` from 0.0: a NaN quotient never
            # wins, and nothing positive leaves 0.0
            err = np.fmax.reduce(np.abs(est) / den)
            err = float(err) if err > 0.0 else 0.0
        else:
            # inf from the first component that is not finite, unless a
            # zero denominator comes before it
            if (den[:int(np.argmin(finite))] == 0.0).any():
                raise _zero_denominator()
            err = math.inf
        g0, g1, g2 = probe_args
        da, db = g1 - g0, g2 - g1
        ka, kb = ks[1] - ks[0], ks[2] - ks[1]
        rho = (tableau.c[2] - tableau.c[1]) / tableau.c[1]
        floor = PROBE_FLOOR * (1.0 + np.abs(g1))
        v = 0.0
        for dens, nums in ((np.abs(da), np.abs(ka)), (np.abs(db), np.abs(kb)),
                           (np.abs(db - rho * da), np.abs(kb - rho * ka))):
            # the builtin max(dens): a NaN first item poisons it, and
            # later NaNs are skipped
            if dens[0] != dens[0]:
                continue
            dmax = np.fmax.reduce(dens)
            if not 0.0 < dmax < math.inf:
                continue
            # max(share, fl_m), the builtin's, reads a NaN fl_m as share;
            # nums < inf skips the non-finite numerators
            keep = (~(dens < np.fmax(floor, PROBE_SHARE_FLOOR * dmax))
                    & (nums < math.inf))
            q = h * nums[keep] / dens[keep]
            q = q[q > v]
            if q.size:
                v = float(q.max())
    return y_next, est, v, err


def _step_source(tableau: ExplicitTableau, n: int, name: str) -> str:
    """Source of _rk_step_loop unrolled for one tableau and dimension.

    Every component is a local (y_m, stage arguments u<i>_m, stage
    values k<i>_m), zero coefficients are left out, and each sum keeps
    the loop's start value and left-to-right order, so the results are
    bit-identical.  The error norm runs straight through when every
    component of the new state is a finite number; otherwise it is left
    to _scaled_error, the loop's own, which finds the first component
    that is not and raises or returns as the loop does.  The probe keeps
    the signed first differences u1 - y, k1 - k0, u2 - u1 and k2 - k1 as
    locals that its three directions share, and tests finiteness by
    comparison with inf (1e999).  When c1 = c2 (Merson), rho is 0 and
    b - 0.0*a is b for a finite a, so the third direction repeats the
    second whenever every first difference is finite, and is skipped
    then.  The probe floors are looked up in this module at call time,
    as the loop does.
    """
    comps = range(n)
    lines = [f"def {name}(f, y, h, atol, rtol):",
             f"    {', '.join(f'y_{m}' for m in comps)}, = y"]
    emit = lines.append
    weights = {}

    def combine(out, start, coeffs):
        # out_m = start_m + (h*c_j)*k<j>_m + ... over the nonzero c_j,
        # with start a format string in m
        terms = []
        for j, c in enumerate(coeffs):
            if c != 0.0:
                if c not in weights:
                    weights[c] = f"w{len(weights)}"
                    emit(f"    {weights[c]} = h * {c!r}")
                terms.append((weights[c], j))
        emit_each(emit, f"{out}_{{m}} = " + " + ".join(
            [start] + [f"{w} * k{j}_{{m}}" for w, j in terms]), n)

    _emit_rhs_call(emit, "f(y)", "k0", n)
    for i, row in enumerate(tableau.a[1:], start=1):
        combine(f"u{i}", "y_{m}", row)
        _emit_rhs_call(emit, f"f(({each(f'u{i}_{{m}}', n)}))", f"k{i}", n)
    combine("yn", "y_{m}", tableau.b)
    combine("e", "0.0", tableau.d)

    yn = each("yn_{m}", n)
    e = each("e_{m}", n)
    emit_finite(emit, [f"yn_{m}" for m in comps], "finite = False")
    emit("    if finite:")
    emit_denominators(emit, n, "        ")
    emit_max(emit, "err", "abs(e_{m}) / den_{m}", n, "        ", start="0.0")
    emit("    else:")
    emit(f"        err = _scaled_error(({yn}), ({e}), atol, rtol)")

    # the signed first differences, which all three directions share:
    # u2 - u1 - rho*(u1 - y) parses as (u2 - u1) - rho*(u1 - y)
    for dif, fmt in (("da", "u1_{m} - y_{m}"), ("ka", "k1_{m} - k0_{m}"),
                     ("db", "u2_{m} - u1_{m}"), ("kb", "k2_{m} - k1_{m}")):
        emit_each(emit, f"{dif}_{{m}} = {fmt}", n)
    rho = (tableau.c[2] - tableau.c[1]) / tableau.c[1]
    probes = (("da_{m}", "ka_{m}"), ("db_{m}", "kb_{m}"),
              (f"db_{{m}} - {rho!r} * da_{{m}}",
               f"kb_{{m}} - {rho!r} * ka_{{m}}"))
    emit_each(emit, "fl_{m} = PROBE_FLOOR * (1.0 + abs(u1_{m}))", n)
    emit("    v = 0.0")
    for p, (den, num) in enumerate(probes):
        indent = "    "
        if p == 2 and rho == 0.0:
            # b - 0.0*a == b for a finite a, so with every first
            # difference finite the third direction repeats the second
            indent = "        "
            emit("    if not (" + "\n            and ".join(
                f"d0_{m} < 1e999 and n0_{m} < 1e999" for m in comps) + "):")
        emit_each(emit, f"d{p}_{{m}} = abs({den})", n, indent)
        emit_each(emit, f"n{p}_{{m}} = abs({num})", n, indent)
        # dmax = max(d<p>_0, ...) and the floors max(share, fl_m) keep
        # the builtin's rule (a later item wins only if greater), so NaN
        # and ties resolve as in the loop
        emit(f"{indent}dmax = d{p}_0")
        for m in comps[1:]:
            emit(f"{indent}if d{p}_{m} > dmax:")
            emit(f"{indent}    dmax = d{p}_{m}")
        emit(f"{indent}if 0.0 < dmax < 1e999:")
        emit(f"{indent}    share = PROBE_SHARE_FLOOR * dmax")
        for m in comps:
            emit(f"{indent}    if (not (d{p}_{m} < (fl_{m} if fl_{m} > share "
                 f"else share))")
            emit(f"{indent}            and n{p}_{m} < 1e999):")
            emit(f"{indent}        q = h * n{p}_{m} / d{p}_{m}")
            emit(f"{indent}        if q > v:")
            emit(f"{indent}            v = q")
    emit(f"    return ({yn}), ({e}), v, err")
    return "\n".join(lines) + "\n"


def _generate_step(tableau: ExplicitTableau, n: int) -> Callable:
    """Compile the straight-line step of tableau for n components."""
    name = f"_step_{tableau.name}_{n}"
    return _compile_generated(_step_source(tableau, n, name), name,
                              f"<reference_rk {tableau.name} step, n={n}>",
                              globals())


def rk_step(tableau: ExplicitTableau, f: Callable, y: tuple,
            h: float) -> tuple:
    """One explicit step; returns (y_next, error_estimate) as tuples."""
    n = len(y)
    # unit absolute tolerances: the step's error norm is not read here
    y_next, est, _, _ = _rk_step_full(tableau, f, y, h, (1.0,) * n,
                                      (0.0,) * n)
    if n > SMALL_N:
        return tuple(y_next.tolist()), tuple(est.tolist())
    return y_next, est


def rk_integrate(tableau: ExplicitTableau, f: Callable,
                 y0: Sequence[float], span: Tuple[float, float],
                 tol: Tolerances, h0: float,
                 stats: Optional[RunStatistics] = None,
                 trace: Optional[list] = None) -> IntegrationResult:
    """Adaptive integration with accuracy and stability stepsize control.

    The error norm, which the step computes (_scaled_error), matches the
    additive solver's: scaled maximum deviation against
    atol_i + rtol_i*|y_i|.  Accuracy control is the classical
    halving/doubling ladder: a failed step is retried at h/2, and h
    doubles only when the error drops below 2^-(order_hat+2), a margin
    chosen so the doubled step still passes if the error model holds.
    On top of that, the stage-difference estimate v of h*|lambda_max|
    caps the next step at 0.9 * stability_span / |lambda_max|, so h
    tracks a stability boundary that tightens as the state evolves
    instead of discovering it by repeated rejections.  Without the cap,
    crude tolerances let deviations grow for many estimate-quiet steps
    at |R| slightly above 1, and on the benchmark problems with
    quadratic loss terms that plants states past the basin boundary of
    the true trajectory, after which no stepsize recovers.  As a side
    effect of both mechanisms the work count is nearly
    tolerance-independent whenever stability rather than accuracy limits
    the step.  A non-finite result halves the step like any failure.  A
    retry that the cap would put below RK_H_MIN (a step whose stages
    diverged reads a huge v) is a plain halving, and StepsizeUnderflow
    is raised only when h/2 itself falls below RK_H_MIN.  y0, span and
    h0 pass check_start, as a SplitProblem's do, and tol for_state
    (ValueError); time counts from t0 and the run ends as integrate's.
    Up to SMALL_N components f receives tuples of floats; above it, the
    array step's float64 arrays, and the run carries the state as an
    array and the tolerances as tol's arrays from step to step.
    Returns integrate's IntegrationResult(t, y, stats), y a float array,
    with every right-hand-side evaluation counted in phi_evals.  Given a
    list trace, each accepted step appends its row (t, h_used, err, v, y)
    there as it goes.  A run that raises has still added the work of its
    completed steps to stats and their rows to trace.
    """
    t0, t_end = float(span[0]), float(span[1])
    y = check_start(y0, t0, t_end, h0)
    atol, rtol = tol.for_state(len(y))
    if len(y) > SMALL_N:
        # the array step's state and tolerances
        atol, rtol = tol.atol, tol.rtol
    else:
        y = tuple(y.tolist())
    stats = stats if stats is not None else RunStatistics()
    h = max(float(h0), RK_H_MIN)
    s = tableau.stages
    double_below = 2.0 ** -(tableau.order_hat + 2)
    v_cap = 0.9 * tableau.stability_span
    length = t_end - t0
    t_close = END_SHARE * length
    stretch = END_STRETCH
    t = 0.0
    just_rejected = False
    inf = math.inf
    # the counters run as locals and reach stats however the run ends
    phi_evals = accepted = rejected = 0
    try:
        while length - t > t_close:
            if h >= (length - t) / stretch:
                h = length - t
            y_next, _, v, err = _rk_step_full(tableau, f, y, h, atol, rtol)
            phi_evals += s
            h_stab = h * v_cap / v if v > 0.0 else inf
            if err <= 1.0:
                t += h
                y = y_next
                accepted += 1
                if trace is not None:
                    trace.append((t0 + t, h, err, v, y))
                if err < double_below and not just_rejected:
                    h = 2.0 * h
                just_rejected = False
                # h = max(min(h, h_stab), RK_H_MIN)
                if h_stab < h:
                    h = h_stab
                if h < RK_H_MIN:
                    h = RK_H_MIN
            else:
                rejected += 1
                just_rejected = True
                if 0.5 * h < RK_H_MIN:
                    raise StepsizeUnderflow(
                        f"retry stepsize fell below h_min={RK_H_MIN:g} at "
                        f"t={t0 + t:.6g} (err={err:.3g})")
                # a diverged step's huge v must not cap the retry below
                # RK_H_MIN
                h = 0.5 * h if h_stab < RK_H_MIN else min(0.5 * h, h_stab)
    finally:
        stats.phi_evals += phi_evals
        stats.steps_accepted += accepted
        stats.steps_rejected += rejected
    return IntegrationResult(t0 + t, np.array(y), stats)
