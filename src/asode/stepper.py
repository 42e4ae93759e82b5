"""Adaptive integration driver for the six-stage additive scheme.

At the start of every step the stiffness carrier B is evaluated at the
current state and held fixed across the stages, so the step integrates
y' = [f(y) - B*y] + B*y with a stiff part that is exactly linear.  The
matrix may be any approximation of the Jacobian (zero, diagonal, stale)
without losing third order; only the amount of stiffness left in the
non-stiff part f - B*y changes, and the stability control reacts to
that remainder.

One step attempt factors D = E - a*h*B once, performs five stage solves,
three evaluations of the full right-hand side and two stiff-part
applications, and produces both the third-order solution and the embedded
second-order one.  The scaled maximum difference between the two drives
acceptance (err <= 1) and stepsize selection.  An optional power-method
probe of the non-stiff part bounds stepsize growth by the explicit
stability interval; the probe costs two extra evaluations per step and is
reused across rejection retries of the same step by rescaling with h.

Per-step error control alone cannot see errors that all push the same
way: components with no restoring force (running integrals, neutrally
stable modes) collect the per-step bias until the global error is many
times the tolerance, while on self-damping components the same per-step
errors fade and never add up.  The drift guard tells the two cases apart
at no evaluation cost: it carries the accepted steps' main-vs-embedded
difference vectors forward, shrinking each component by its own
linearized decay factor exp(h*b_i) (b_i from the stage matrix diagonal,
growth clipped), so the running sum stays small exactly where the
dynamics forget errors.  When its scaled norm exceeds a budget, the
stepsize proposals are pressed down until the per-step bias is small
enough to respect the budget over the whole run.  Acceptance still means
err <= 1; the guard only makes the controller aim lower.

An attempt runs on one of two paths, picked once per attempt in _stages
from the B that the Jacobian provider returns.  A DiagonalMatrix of at
most SMALL_N components takes the float path: the stages, the probe, the
error norm and the drift update work on lists of Python floats, since on a
handful of components numpy's cost per call dwarfs the arithmetic.  Every
other B takes the numpy path, which is the reference the tests hold the
float path to.  The two give bit-identical results: each sum keeps
numpy's association and order, the maxima let NaN win as np.max does, and
the drift decay still calls np.exp.  The user's right-hand side and
Jacobian provider receive arrays on both paths.  The controller
(attempt_step, propose_next_h and the drift guard's pressure rule) is one
copy that both paths share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .coefficients import EmbeddedCoefficients, SchemeCoefficients
from .exceptions import (
    DimensionMismatch,
    MaxRejectsExceeded,
    NonFiniteState,
    SingularMatrix,
    StepsizeUnderflow,
    ZeroToleranceDenominator,
)
from .linalg import SMALL_N, DiagonalMatrix, factor
from .problems import SplitProblem, Tolerances

# err below this floor is treated as exact when inverting the error model
ERR_FLOOR = 1e-14
# stability probe skips components with denominator below this scale
PROBE_FLOOR = 1e-14
# ... and components carrying less than this share of the probe iterate:
# their ratios measure cross-coupling from larger components rather than
# growth along the dominant direction and can exceed the spectral radius
# by orders of magnitude
PROBE_SHARE_FLOOR = 0.1
# probe offsets: alpha21 = alpha31 + alpha32 makes the two probe stages
# collapse to a power-method iteration on the non-stiff Jacobian.  They are
# small so the probe displacement alpha21*k1 stays well inside the step's
# trust region even when the split parts are large and mutually canceling
# (near a slow manifold the first stage can dwarf the state); on linear
# problems the estimate does not depend on their size at all.
PROBE_ALPHA31 = 5e-6
PROBE_ALPHA32 = 5e-6
PROBE_ALPHA21 = PROBE_ALPHA31 + PROBE_ALPHA32
# explicit-part stability interval length used by the growth cap
EXPLICIT_STABILITY_SPAN = 2.0
# safety factor on the accuracy-predicted stepsize
SAFETY = 0.9
# smallest stepsize a run may take or retry with
H_MIN = 1e-12
# rejections of one step after which the run gives up
MAX_REJECTS = 20
# scaled norm (tolerance units, same scaling as err) the damped sum of
# committed step errors may reach before the drift guard starts pressing
# the stepsize down; within the budget the controller is untouched
DRIFT_BUDGET = 30.0


@dataclass
class ControllerConfig:
    """Stepsize controller switch: the stability probe and its growth cap."""

    stability_control: bool = True


@dataclass
class RunStatistics:
    """Work counters accumulated over an integration."""

    phi_evals: int = 0
    g_evals: int = 0
    factorizations: int = 0
    linear_solves: int = 0
    steps_accepted: int = 0
    steps_rejected: int = 0

    def as_dict(self) -> dict:
        return {
            "phi_evals": self.phi_evals,
            "g_evals": self.g_evals,
            "factorizations": self.factorizations,
            "solves": self.linear_solves,
            "steps_acc": self.steps_accepted,
            "steps_rej": self.steps_rejected,
        }


@dataclass
class StepReport:
    """Outcome of one step attempt."""

    accepted: bool
    err: float
    v: Optional[float]
    h_used: float
    h_next: float
    retry_underflow: bool
    # set on acceptance: the new state, its embedded companion (arrays, or
    # lists of floats from the float path) and the stage matrix diagonal
    # the drift guard decays by
    y_next: Optional[np.ndarray | list] = field(default=None)
    y_emb: Optional[np.ndarray | list] = field(default=None)
    b_diag: Optional[np.ndarray] = field(default=None)


@dataclass(frozen=True)
class StepProposal:
    h_accept: float
    h_retry: float
    retry_underflow: bool


@dataclass
class IntegrationResult:
    t: float
    y: np.ndarray
    stats: RunStatistics
    trace: Optional[list] = field(default=None)


def _nan_max(values) -> float:
    """Largest of values, or NaN when any is NaN, as np.max gives."""
    top = -math.inf
    for x in values:
        if not x <= top:
            if x != x:
                return x
            top = x
    return top


def _all_finite(x) -> bool:
    if type(x) is list:
        return all(map(math.isfinite, x))
    return bool(np.all(np.isfinite(x)))


def _as_array(y) -> np.ndarray:
    return np.array(y) if type(y) is list else y


def error_norm(y, y2, tol: Tolerances) -> float:
    """Scaled maximum deviation max_i |y_i - y2_i| / (atol_i + rtol_i*|y_i|).

    y and y2 are arrays, or lists of floats on the float path.
    """
    if type(y) is list:
        return _error_norm_floats(y, y2, tol)
    den = tol.atol + tol.rtol * np.abs(y)
    if np.any(den == 0.0):
        raise ZeroToleranceDenominator(
            "atol + rtol*|y| vanished for some component")
    return float(np.max(np.abs(y - y2) / den))


def _error_norm_floats(y: list, y2: list, tol: Tolerances) -> float:
    atol, rtol = tol.as_lists()
    if not len(y) == len(y2) == len(atol):
        # zip would silently drop the extra components
        raise DimensionMismatch(f"lengths {len(y)}, {len(y2)} and "
                                f"{len(atol)} tolerances differ")
    den = [a + r * abs(x) for a, r, x in zip(atol, rtol, y)]
    if 0.0 in den:
        raise ZeroToleranceDenominator(
            "atol + rtol*|y| vanished for some component")
    return _nan_max([abs(a - b) / d for a, b, d in zip(y, y2, den)])


def stability_estimate(phi, y, k1, h: float, stats: RunStatistics) -> float:
    """Power-method estimate of h times the dominant non-stiff eigenvalue.

    phi is the current step's non-stiff part.  Costs two evaluations of
    it.  Components whose denominator |d1 - k1| falls below a floor --
    either in absolute terms, 1e-14*(1 + |k1|), or relative to the
    largest component of the iterate d1 - k1 -- are skipped; if all
    components are skipped the estimate is 0 (no stability information).
    k1 is an array, or a list of floats on the float path (phi then maps
    lists to lists).
    """
    if type(k1) is list:
        return _stability_estimate_floats(phi, y, k1, h, stats)
    d1 = h * phi(y + PROBE_ALPHA21 * k1)
    d2 = h * phi(y + PROBE_ALPHA31 * k1 + PROBE_ALPHA32 * d1)
    stats.phi_evals += 2
    den = np.abs(d1 - k1)
    keep = den >= np.maximum(PROBE_SHARE_FLOOR * np.max(den),
                             PROBE_FLOOR * (1.0 + np.abs(k1)))
    if not np.any(keep):
        return 0.0
    ratio = np.max(np.abs(d2 - d1)[keep] / den[keep])
    return float(ratio / PROBE_ALPHA32)


def _stability_estimate_floats(phi, y, k1: list, h: float,
                               stats: RunStatistics) -> float:
    if type(y) is not list:
        y = y.tolist()
    a21, a31, a32 = PROBE_ALPHA21, PROBE_ALPHA31, PROBE_ALPHA32
    d1 = [h * x for x in phi([u + a21 * k for u, k in zip(y, k1)])]
    d2 = [h * x for x in phi([u + a31 * k + a32 * d
                              for u, k, d in zip(y, k1, d1)])]
    stats.phi_evals += 2
    den = [abs(d - k) for d, k in zip(d1, k1)]
    share = PROBE_SHARE_FLOOR * _nan_max(den)
    # den >= max(share, floor) with NaN winning the max, as np.maximum
    # has it: a comparison with NaN is false, so a NaN share keeps
    # nothing and a NaN floor drops its component
    ratios = [abs(b - a) / d
              for a, b, d, k in zip(d1, d2, den, k1)
              if d >= share and d >= PROBE_FLOOR * (1.0 + abs(k))]
    if not ratios:
        return 0.0
    return _nan_max(ratios) / a32


def propose_next_h(h: float, err: float, v: Optional[float],
                   pressure: float = 1.0) -> StepProposal:
    """Stepsizes suggested by the error and stability models.

    h_accept applies after an accepted step: the accuracy-predicted step
    (with safety factor) and the stability-capped step compete, and the
    result never shrinks below the current h.  A drift-guard pressure
    above 1 additionally caps h_accept at the accuracy-predicted step
    divided by the pressure -- the one case where the next step may
    shrink after an acceptance.  h_retry applies after a rejection and
    never grows; retry_underflow flags that the unclamped retry fell
    below H_MIN.
    """
    q1 = (1.0 / max(err, ERR_FLOOR)) ** (1.0 / 3.0)
    h_acc = SAFETY * q1 * h
    if v is not None and v > 0.0:
        h_st = (EXPLICIT_STABILITY_SPAN / v) * h
    else:
        h_st = math.inf
    h_accept = max(h, min(h_acc, h_st))
    if pressure > 1.0:
        h_accept = min(h_accept, h_acc / pressure)
    h_accept = max(h_accept, H_MIN)
    h_retry = min(max(h_acc, H_MIN), h)
    return StepProposal(h_accept=h_accept, h_retry=h_retry,
                        retry_underflow=h_acc < H_MIN)


def _rhs(full, u: np.ndarray) -> np.ndarray:
    """full(u) as a float array of u's shape, else DimensionMismatch."""
    f = np.asarray(full(u), dtype=float)
    if f.shape != u.shape:
        raise DimensionMismatch(f"right-hand side returned shape {f.shape} "
                                f"for a state of shape {u.shape}")
    return f


def _stages(problem: SplitProblem, y, h: float,
            scheme: SchemeCoefficients, embedded: EmbeddedCoefficients,
            stats: RunStatistics) -> tuple:
    """Evaluate all stages; returns (phi, k1, y_next, y_emb, b_diag).

    phi is the step-local non-stiff part u -> f(u) - B*u with B held at
    its start-of-step value; b_diag is the diagonal of B, an array.
    This is where an attempt picks its path: a DiagonalMatrix B of at most
    SMALL_N components runs the stages on floats, and phi, k1, y_next and
    y_emb are then lists; any other B runs them on arrays.  y may be
    either.  Work per call: 1 factorization, 5 linear solves, 3
    evaluations of the right-hand side and 2 stiff-part applications.
    Raises SingularMatrix when the stage matrix cannot be factored and
    DimensionMismatch when the right-hand side returns the wrong number of
    components or the Jacobian provider returns neither matrix type.
    """
    y_arr = np.array(y) if type(y) is list else y
    B = problem.jac(y_arr)
    if isinstance(B, DiagonalMatrix) and B.dim <= SMALL_N:
        return _stages_floats(problem.full, B, y, y_arr, h, scheme,
                              embedded, stats)
    y = y_arr
    a42, a43 = scheme.alpha4[1], scheme.alpha4[2]
    b42, b43 = scheme.beta4[1], scheme.beta4[2]
    b63, b64, b65 = scheme.beta6[2], scheme.beta6[3], scheme.beta6[4]
    p1, p2, p3, p4, p5, p6 = scheme.p
    r1, r2, r3, r4, r5 = embedded.r

    stats.factorizations += 1
    # factor first: it rejects a B of neither matrix type
    fact = factor(B, scheme.a * h)
    if isinstance(B, DiagonalMatrix):
        b_diag = B.values
    else:
        # a copy: a view would keep the dense B alive in the step report
        b_diag = np.diagonal(B.values).copy()
    full = problem.full

    def phi(u):
        return _rhs(full, u) - B.matvec(u)

    f0 = _rhs(full, y)
    k1 = h * (f0 - B.matvec(y))
    # the non-stiff and stiff parts are both taken at y, so their sum
    # collapses to the full right-hand side
    stats.phi_evals += 1
    stats.g_evals += 1

    k2 = fact.solve(h * f0)
    k3 = fact.solve(k2)
    # first-stage weights of the combination rows are structurally zero
    u = y + b42 * k2 + b43 * k3
    w = y + a42 * k2 + a43 * k3
    # h*phi(u) + h*(B*w) regrouped around one right-hand-side evaluation
    rhs4 = h * _rhs(full, u) + h * B.matvec(w - u)
    stats.phi_evals += 1
    stats.g_evals += 1
    k4 = fact.solve(rhs4)
    k5 = fact.solve(k4 + scheme.gamma * k3)
    k6 = h * phi(y + b63 * k3 + b64 * k4 + b65 * k5)
    stats.phi_evals += 1
    k5_emb = fact.solve(k4)
    stats.linear_solves += 5

    y_next = y + p1 * k1 + p2 * k2 + p3 * k3 + p4 * k4 + p5 * k5 + p6 * k6
    y_emb = y + r1 * k1 + r2 * k2 + r3 * k3 + r4 * k4 + r5 * k5_emb
    return phi, k1, y_next, y_emb, b_diag


def _stages_floats(full, B: DiagonalMatrix, y, y_arr: np.ndarray, h: float,
                   scheme: SchemeCoefficients, embedded: EmbeddedCoefficients,
                   stats: RunStatistics) -> tuple:
    """_stages on lists of floats for a small diagonal B, same arithmetic.

    Every expression is _stages' with each array operation spelled out
    per component in numpy's association and order.
    """
    n = len(y_arr)
    if B.dim != n:
        raise DimensionMismatch(f"vector length {n} != {B.dim}")
    y = y if type(y) is list else y_arr.tolist()
    # the weights as Python floats: an np.float64 factor would turn every
    # product into an np.float64
    alpha4, beta4 = scheme.alpha4.tolist(), scheme.beta4.tolist()
    beta6 = scheme.beta6.tolist()
    a42, a43 = alpha4[1], alpha4[2]
    b42, b43 = beta4[1], beta4[2]
    b63, b64, b65 = beta6[2], beta6[3], beta6[4]
    p1, p2, p3, p4, p5, p6 = scheme.p.tolist()
    r1, r2, r3, r4, r5 = embedded.r.tolist()
    gamma = float(scheme.gamma)

    b = B.values.tolist()
    stats.factorizations += 1
    solve = factor(B, scheme.a * h).solve

    def f(u: list) -> list:
        return _rhs(full, np.array(u)).tolist()

    def phi(u: list) -> list:
        return [fu - bi * ui for fu, bi, ui in zip(f(u), b, u)]

    f0 = _rhs(full, y_arr).tolist()
    k1 = [h * (fi - bi * yi) for fi, bi, yi in zip(f0, b, y)]
    stats.phi_evals += 1
    stats.g_evals += 1

    k2 = solve([h * fi for fi in f0])
    k3 = solve(k2)
    u = [yi + b42 * c2 + b43 * c3 for yi, c2, c3 in zip(y, k2, k3)]
    w = [yi + a42 * c2 + a43 * c3 for yi, c2, c3 in zip(y, k2, k3)]
    rhs4 = [h * fu + h * (bi * (wi - ui))
            for fu, bi, wi, ui in zip(f(u), b, w, u)]
    stats.phi_evals += 1
    stats.g_evals += 1
    k4 = solve(rhs4)
    k5 = solve([c4 + gamma * c3 for c4, c3 in zip(k4, k3)])
    k6 = [h * x for x in phi([yi + b63 * c3 + b64 * c4 + b65 * c5
                              for yi, c3, c4, c5 in zip(y, k3, k4, k5)])]
    stats.phi_evals += 1
    k5_emb = solve(k4)
    stats.linear_solves += 5

    y_next = [yi + p1 * c1 + p2 * c2 + p3 * c3 + p4 * c4 + p5 * c5 + p6 * c6
              for yi, c1, c2, c3, c4, c5, c6
              in zip(y, k1, k2, k3, k4, k5, k6)]
    y_emb = [yi + r1 * c1 + r2 * c2 + r3 * c3 + r4 * c4 + r5 * c5
             for yi, c1, c2, c3, c4, c5 in zip(y, k1, k2, k3, k4, k5_emb)]
    return phi, k1, y_next, y_emb, B.values


def attempt_step(problem: SplitProblem, y, h: float,
                 scheme: SchemeCoefficients, embedded: EmbeddedCoefficients,
                 tol: Tolerances, cfg: ControllerConfig,
                 stats: RunStatistics,
                 lam: Optional[float] = None,
                 pressure: float = 1.0) -> StepReport:
    """Attempt one step of size h from state y (an array, or a list).

    lam carries the per-unit-h stability estimate from an earlier attempt
    of the same step; when None and stability control is on, fresh probes
    are computed (two extra non-stiff evaluations).  pressure > 1 (from
    the drift guard) lowers the proposed next stepsize without touching
    acceptance.  A singular stage matrix or a non-finite result is
    reported as a rejection with the stepsize halved.
    """
    v: Optional[float] = None
    try:
        phi, k1, y_next, y_emb, b_diag = _stages(problem, y, h, scheme,
                                                 embedded, stats)
    except SingularMatrix:
        finite = False
    else:
        if cfg.stability_control:
            if lam is None:
                v = stability_estimate(phi, y, k1, h, stats)
            else:
                v = lam * h
        finite = _all_finite(y_next) and _all_finite(y_emb)
    if not finite:
        return StepReport(accepted=False, err=math.inf, v=v, h_used=h,
                          h_next=max(0.5 * h, H_MIN),
                          retry_underflow=0.5 * h < H_MIN)

    err = error_norm(y_next, y_emb, tol)
    proposal = propose_next_h(h, err, v, pressure=pressure)
    if err <= 1.0:
        return StepReport(accepted=True, err=err, v=v, h_used=h,
                          h_next=proposal.h_accept, retry_underflow=False,
                          y_next=y_next, y_emb=y_emb, b_diag=b_diag)
    return StepReport(accepted=False, err=err, v=v, h_used=h,
                      h_next=proposal.h_retry,
                      retry_underflow=proposal.retry_underflow)


def _drift_update(drift, report: StepReport, tol: Tolerances) -> tuple:
    """Fold an accepted step into the drift sum; returns (drift, pressure).

    The sum decays by exp(min(0, h*b_i)) per component before the step's
    main-vs-embedded difference is added, and the pressure is its scaled
    norm over DRIFT_BUDGET, at least 1.  drift is an array, or a list on
    the float path.
    """
    decay = np.exp(np.minimum(0.0, report.h_used * report.b_diag))
    y, y_emb = report.y_next, report.y_emb
    if type(y) is list:
        drift, g_norm = _drift_sum_floats(drift, decay.tolist(), y, y_emb,
                                          tol)
    else:
        drift = np.asarray(drift) * decay + (y - y_emb)
        den = tol.atol + tol.rtol * np.abs(y)
        g_norm = float(np.max(np.abs(drift) / den))
    return drift, max(1.0, g_norm / DRIFT_BUDGET)


def _drift_sum_floats(drift, decay: list, y: list, y_emb: list,
                      tol: Tolerances) -> tuple:
    """_drift_update's new sum and its scaled norm, on floats."""
    if type(drift) is not list:
        drift = drift.tolist()
    atol, rtol = tol.as_lists()
    drift = [g * e + (a - b) for g, e, a, b in zip(drift, decay, y, y_emb)]
    # error_norm has ruled out a zero denominator at this y
    return drift, _nan_max([abs(g) / (at + rt * abs(a))
                            for g, at, rt, a in zip(drift, atol, rtol, y)])


def integrate(problem: SplitProblem, scheme: SchemeCoefficients,
              embedded: EmbeddedCoefficients, tol: Tolerances,
              cfg: Optional[ControllerConfig] = None,
              collect_trace: bool = False) -> IntegrationResult:
    """Integrate from t0 to t_end with adaptive stepsize.

    The trace, when requested, records (t, h, err, v, y) per accepted
    step, y as an array.  The drift guard folds every accepted step's
    main-vs-embedded difference into a running sum whose components decay
    at their own linearized rates; once the sum's scaled norm exceeds
    DRIFT_BUDGET, subsequent stepsize proposals are divided by the
    overshoot factor.  Raises ValueError when the tolerances do not have
    one entry per state component, StepsizeUnderflow when a rejection
    pushes h below H_MIN and MaxRejectsExceeded when one step keeps
    failing.
    """
    if len(tol.atol) != problem.n:
        raise ValueError("tolerance length does not match the state")
    cfg = cfg if cfg is not None else ControllerConfig()
    t = problem.t0
    t_stop = problem.t_end
    # the one copy: a result never aliases the problem's y0
    y = problem.y0.copy()
    h = max(problem.h0, H_MIN)

    stats = RunStatistics()
    trace: Optional[list] = [] if collect_trace else None
    span = t_stop - t
    drift = [0.0] * problem.n
    pressure = 1.0

    while t_stop - t > 1e-14 * max(abs(span), abs(t_stop)):
        # stretch or truncate onto the endpoint when already within 0.01 %
        if h >= (t_stop - t) / 1.0001:
            h = t_stop - t
        lam: Optional[float] = None
        rejects = 0
        while True:
            report = attempt_step(problem, y, h, scheme, embedded, tol,
                                  cfg, stats, lam=lam, pressure=pressure)
            if report.v is not None and lam is None and report.h_used > 0.0:
                lam = report.v / report.h_used
            if report.accepted:
                t += report.h_used
                y = report.y_next
                stats.steps_accepted += 1
                drift, pressure = _drift_update(drift, report, tol)
                if trace is not None:
                    trace.append((t, report.h_used, report.err, report.v,
                                  _as_array(y)))
                h = report.h_next
                break
            stats.steps_rejected += 1
            rejects += 1
            if report.retry_underflow:
                raise StepsizeUnderflow(
                    f"retry stepsize fell below h_min={H_MIN:g} at "
                    f"t={t:.6g} (err={report.err:.3g})")
            if rejects > MAX_REJECTS:
                raise MaxRejectsExceeded(
                    f"step at t={t:.6g} rejected {rejects} times "
                    f"(h={report.h_used:.3g}, err={report.err:.3g})")
            h = report.h_next

    return IntegrationResult(t=t, y=_as_array(y), stats=stats, trace=trace)


def integrate_fixed(problem: SplitProblem, h: float,
                    scheme: SchemeCoefficients,
                    embedded: EmbeddedCoefficients) -> IntegrationResult:
    """Integrate with a constant stepsize and no error control.

    The span is covered by round(span/h) equal steps (h is honored
    exactly when it divides the span).  h must be finite and positive.
    Non-finite states abort with NonFiniteState; order studies use this
    entry point.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be finite and positive, got {h!r}")
    t = problem.t0
    y = problem.y0
    span = problem.t_end - t
    n_steps = max(1, round(span / h))
    h_eff = span / n_steps
    stats = RunStatistics()
    for i in range(n_steps):
        _, _, y, _, _ = _stages(problem, y, h_eff, scheme, embedded, stats)
        if not _all_finite(y):
            raise NonFiniteState(f"state became non-finite at t={t:.6g}")
        t = problem.t0 + (i + 1) * h_eff
        stats.steps_accepted += 1
    return IntegrationResult(t=t, y=_as_array(y), stats=stats)


def embedded_difference(problem: SplitProblem, h: float,
                        scheme: SchemeCoefficients,
                        embedded: EmbeddedCoefficients) -> float:
    """Max-norm gap between main and embedded solutions after one step."""
    _, _, y_next, y_emb, _ = _stages(problem, problem.y0, h, scheme, embedded,
                                     RunStatistics())
    return float(np.max(np.abs(_as_array(y_next) - _as_array(y_emb))))
