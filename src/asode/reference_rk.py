"""Classical explicit Runge-Kutta comparators.

Two standard embedded pairs for benchmark comparisons: Merson's five-stage
fourth-order method with a third-order error companion, and Fehlberg's
six-stage fifth-order pair propagating the higher-order solution.  Both
tableaus are re-verified against the rooted-tree order conditions when
constructed rather than trusted as literals.

The step and driver work on plain tuples of floats.  Explicit methods on
stiff benchmark problems take millions of steps, so the hot path avoids
array-object overhead entirely; the vector dimensions here are tiny.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .exceptions import (
    NonFiniteState,
    StepsizeUnderflow,
    ZeroToleranceDenominator,
)
from .problems import Tolerances
from .stepper import PROBE_FLOOR, PROBE_SHARE_FLOOR, RunStatistics

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
# smallest stepsize a run may take or retry with
H_MIN = 1e-14


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
    s = len(weights)
    A = np.zeros((s, s))
    for i, row in enumerate(a_rows):
        A[i, : len(row)] = row
    one = np.ones(s)
    k = np.linalg.solve(np.eye(s) - z * A, one)
    return 1.0 + z * float(np.asarray(weights) @ k)


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
        inside = max(abs(linear_growth_factor(self.a, self.b, z))
                     for z in np.linspace(0.0, -self.stability_span, 257))
        if inside > 1.0 + 1e-9:
            raise ValueError(
                f"{self.name}: |R| reaches {inside:.6f} inside the declared "
                f"stability span")
        beyond = abs(linear_growth_factor(self.a, self.b,
                                          -1.02 * self.stability_span))
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


def _rk_step_full(tableau: ExplicitTableau, f: Callable, y: tuple,
                  h: float) -> tuple:
    """One explicit step; returns (y_next, error_estimate, v).

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
    power iteration.  Components are skipped by the same floors the
    additive solver's probe uses: below a 10% share of the largest
    denominator component, or below an absolute noise floor.  The
    componentwise form matters too: a ratio of norms dilutes a stiff
    component by its share of the difference vector.  Any of these
    under-reads, left alone, lets the step grow past the stability
    boundary while the error estimate is still quiet.  When no component
    has a signal (constant field, zero denominators, overflow) v is 0.
    """
    ks = [f(y)]
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
        ks.append(f(tuple(u)))
    y_next = list(y)
    for bi, k in zip(tableau.b, ks):
        if bi != 0.0:
            w = h * bi
            for m, km in enumerate(k):
                y_next[m] += w * km
    est = [0.0] * len(y)
    for di, k in zip(tableau.d, ks):
        if di != 0.0:
            w = h * di
            for m, km in enumerate(k):
                est[m] += w * km
    g0, g1, g2 = probe_args
    k0, k1, k2 = ks[0], ks[1], ks[2]
    rho = (tableau.c[2] - tableau.c[1]) / tableau.c[1]
    n = len(y)
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
    return tuple(y_next), tuple(est), v


def rk_step(tableau: ExplicitTableau, f: Callable, y: tuple,
            h: float) -> tuple:
    """One explicit step; returns (y_next, error_estimate) as tuples."""
    return _rk_step_full(tableau, f, y, h)[:2]


def rk_integrate(tableau: ExplicitTableau, f: Callable,
                 y0: Sequence[float], span: Tuple[float, float],
                 tol: Tolerances, h0: float,
                 stats: Optional[RunStatistics] = None,
                 collect_trace: bool = False) -> tuple:
    """Adaptive integration with accuracy and stability stepsize control.

    The error norm matches the additive solver's: scaled maximum deviation
    against atol_i + rtol_i*|y_i|.  Accuracy control is the classical
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
    the step.  A non-finite result halves the step like any failure; a
    span whose end does not exceed its start, or that is not finite,
    raises ValueError.
    Returns (t, y, RunStatistics) with every right-hand-side evaluation
    counted in phi_evals; with collect_trace a list of per-step rows
    (t, h_used, err, v, y) is returned as a fourth element.
    """
    t, t_end = float(span[0]), float(span[1])
    if not (math.isfinite(t) and t < t_end < math.inf):
        raise ValueError("span end must exceed its start and both must be "
                         "finite")
    y = tuple(float(v) for v in y0)
    if not all(math.isfinite(v) for v in y):
        raise NonFiniteState("initial state is not finite")
    atol = tuple(float(v) for v in tol.atol)
    rtol = tuple(float(v) for v in tol.rtol)
    if len(atol) != len(y) or len(rtol) != len(y):
        raise ValueError("tolerance length does not match the state")
    stats = stats if stats is not None else RunStatistics()
    h = max(float(h0), H_MIN)
    s = tableau.stages
    double_below = 2.0 ** -(tableau.order_hat + 2)
    v_cap = 0.9 * tableau.stability_span
    width = t_end - t
    just_rejected = False
    trace = [] if collect_trace else None

    while t_end - t > 1e-14 * max(abs(width), abs(t_end)):
        if h >= (t_end - t) / 1.0001:
            h = t_end - t
        y_next, est, v = _rk_step_full(tableau, f, y, h)
        stats.phi_evals += s

        err = 0.0
        for yn, e, at, rt in zip(y_next, est, atol, rtol):
            if not math.isfinite(yn):
                err = math.inf
                break
            den = at + rt * abs(yn)
            if den == 0.0:
                raise ZeroToleranceDenominator(
                    "atol + rtol*|y| vanished for some component")
            q = abs(e) / den
            if q > err:
                err = q

        h_stab = h * v_cap / v if v > 0.0 else math.inf
        if err <= 1.0:
            t += h
            y = y_next
            stats.steps_accepted += 1
            if trace is not None:
                trace.append((t, h, err, v, y))
            if err < double_below and not just_rejected:
                h = 2.0 * h
            just_rejected = False
            h = max(min(h, h_stab), H_MIN)
        else:
            stats.steps_rejected += 1
            just_rejected = True
            new_h = min(0.5 * h, h_stab)
            if new_h < H_MIN:
                raise StepsizeUnderflow(
                    f"retry stepsize fell below h_min={H_MIN:g} at "
                    f"t={t:.6g} (err={err:.3g})")
            h = new_h

    if trace is not None:
        return t, y, stats, trace
    return t, y, stats
