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
acceptance (err <= 1) and stepsize selection.  An optional stability
estimate bounds stepsize growth by the explicit stability interval.  It
reads h times the dominant non-stiff rate off two stages the attempt
already has, the first and the last non-stiff evaluation, so it costs no
evaluation; it is taken on accepted attempts only, since a retry's
stepsize comes from the error model alone.

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

An attempt runs on one of two paths, chosen by linalg.factor when _stages
factors the attempt's stage matrix.  A factorization made on Python
floats (a small diagonal B) carries B's diagonal as floats and sends the
attempt down the float path, since on a handful of components numpy's
cost per call dwarfs the arithmetic.  The float path is a straight-line
function generated on first use for each state dimension, with every
component a local.  It computes the stages, and from them, on the same
locals, what the controller reads: the finiteness check, the error norm,
the stability estimate on an accepted attempt and the drift guard's new
sum and its scaled norm.  The scheme weights are its arguments, taken
as Python floats once per coefficient object, so one function serves
every scheme.  Every other B takes the numpy path, which computes the
same quantities with error_norm, stability_estimate and _drift_update on
arrays; it is the reference the tests hold the float path to.  The two
give bit-identical results: each sum keeps numpy's association and order
(zero weights included), the maxima let NaN win as np.max does, and the
drift decay calls np.exp once on a tuple of the clipped h*b_i, the
values the numpy path's array holds, since numpy's exp may differ from
math.exp in the last bit.  The user's
right-hand side full takes a sequence of n floats and returns a sequence
of n numbers: it receives a tuple of floats on the float path, as in the
comparators, and an array on the numpy path.  The Jacobian provider
receives an array on both paths.  The controller (attempt_step,
propose_next_h, the drift guard's pressure rule and integrate) is one
copy that both paths share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._codegen import (_compile_generated, _emit_rhs_call, _not_numbers,
                       _wrong_length, _zero_denominator, each,
                       emit_denominators, emit_each, emit_finite, emit_max)
from .coefficients import EmbeddedCoefficients, SchemeCoefficients
from .exceptions import (
    DimensionMismatch,
    MaxRejectsExceeded,
    NonFiniteState,
    SingularMatrix,
    StepsizeUnderflow,
)
from .linalg import factor
from .problems import SplitProblem, Tolerances

# err below this floor is treated as exact when inverting the error model
ERR_FLOOR = 1e-14
# stability estimate skips components whose displacement falls below
# this floor on the state scale
PROBE_FLOOR = 1e-14
# ... and components moving less than this share of the largest
# displacement: their quotients measure cross-coupling from larger
# components rather than growth along the dominant direction and can exceed
# the spectral radius by orders of magnitude
PROBE_SHARE_FLOOR = 0.1
# explicit-part stability interval length used by the growth cap
EXPLICIT_STABILITY_SPAN = 2.0
# safety factor on the accuracy-predicted stepsize
SAFETY = 0.9
# smallest stepsize a run may take or retry with
H_MIN = 1e-12
# a run (here and in reference_rk) ends within END_SHARE of its span from
# the end, and stretches or cuts onto the end a step within 0.01 % of it
END_SHARE = 1e-14
END_STRETCH = 1.0001
# rejections of one step after which the run gives up
MAX_REJECTS = 20
# most steps integrate_fixed takes, and so the finest rung of an
# order-study ladder; the default ladder (powerlaw, h0 = 0.02) takes 800
ORDER_STUDY_MAX_STEPS = 100_000
# scaled norm (tolerance units, same scaling as err) the damped sum of
# committed step errors may reach before the drift guard starts pressing
# the stepsize down; within the budget the controller is untouched
DRIFT_BUDGET = 30.0

# generated float-path stages by state dimension, filled on first use
_FLOAT_STAGES: dict = {}


@dataclass
class ControllerConfig:
    """Stepsize controller switch: the stability estimate's growth cap."""

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
        """The counters under the names of the bench CSV and table columns."""
        return {
            "phi_evals": self.phi_evals,
            "g_evals": self.g_evals,
            "factorizations": self.factorizations,
            "solves": self.linear_solves,
            "steps_acc": self.steps_accepted,
            "steps_rej": self.steps_rejected,
        }


@dataclass(slots=True)
class StepReport:
    """Outcome of one step attempt, built positionally on the hot path."""

    accepted: bool
    err: float
    v: Optional[float]
    # the stepsize to go on with, or after a rejection to retry with
    h_next: float
    # set on acceptance: the new state (an array, or a list of floats from
    # the float path), the drift guard's sum with this step folded in and
    # the pressure that sum puts on the next stepsize
    y_next: Optional[np.ndarray | list] = field(default=None)
    drift: Optional[np.ndarray | list] = field(default=None)
    next_pressure: float = 1.0


@dataclass
class IntegrationResult:
    t: float
    y: np.ndarray
    stats: RunStatistics


def _as_array(y) -> np.ndarray:
    return np.array(y) if type(y) is list else y


def error_norm(y, y2, tol: Tolerances) -> float:
    """Scaled maximum deviation max_i |y_i - y2_i| / (atol_i + rtol_i*|y_i|).

    y and y2 are arrays or sequences of floats, taken as arrays.  The
    float path computes the same norm in its generated function.
    """
    if not len(y) == len(y2) == len(tol.atol):
        # numpy would broadcast the extra components
        raise DimensionMismatch(f"lengths {len(y)}, {len(y2)} and "
                                f"{len(tol.atol)} tolerances differ")
    y = np.asarray(y, dtype=float)
    den = tol.atol + tol.rtol * np.abs(y)
    if np.any(den == 0.0):
        raise _zero_denominator()
    return float(np.max(np.abs(y - np.asarray(y2, dtype=float)) / den))


def stability_estimate(y, u6, k1, k6) -> float:
    """Stage-difference estimate of h times the dominant non-stiff rate.

    k1 = h*phi(y) and k6 = h*phi(u6) are stages the attempt already has,
    so v = max_i |k6_i - k1_i| / |u6_i - y_i| costs no evaluation; on a
    linear diagonal field it is h*|lambda_i| exactly.  Components whose
    displacement |u6_i - y_i| falls below a floor -- either on the state
    scale, 1e-14*(1 + |y_i|), or relative to the largest displacement --
    are skipped; if all components are skipped the estimate is 0 (no
    stability information).  The four are arrays or sequences of floats,
    taken as arrays.  The float path computes the same estimate in its
    generated function.
    """
    if not len(y) == len(u6) == len(k1) == len(k6):
        # numpy would broadcast the extra components
        raise DimensionMismatch(f"lengths {len(y)}, {len(u6)}, {len(k1)} "
                                f"and {len(k6)} differ")
    y, u6, k1, k6 = (np.asarray(x, dtype=float) for x in (y, u6, k1, k6))
    den = np.abs(u6 - y)
    keep = den >= np.maximum(PROBE_SHARE_FLOOR * np.max(den),
                             PROBE_FLOOR * (1.0 + np.abs(y)))
    if not np.any(keep):
        return 0.0
    return float(np.max(np.abs(k6 - k1)[keep] / den[keep]))


def propose_next_h(h: float, err: float, v: Optional[float],
                   pressure: float = 1.0) -> float:
    """The next stepsize from the error and stability models.

    After a rejection (err > 1) it is the accuracy-predicted step
    SAFETY*err^(-1/3)*h, at most 0.9*h and unclamped.  After an
    acceptance the accuracy-predicted and the stability-capped steps
    compete, the result never shrinks below h, a drift-guard pressure
    above 1 caps it at the accuracy-predicted step over the pressure --
    the one case where the next step may shrink after an acceptance --
    and it is at least H_MIN.
    """
    # each comparison below is the builtin max or min it stands for:
    # max(a, b) is b only if b > a, min(a, b) is b only if b < a
    q1 = (1.0 / (ERR_FLOOR if ERR_FLOOR > err else err)) ** (1.0 / 3.0)
    h_acc = SAFETY * q1 * h
    if not err <= 1.0:
        return h_acc
    # max(h, min(h_acc, h_st)), with h_st = inf when v gives no cap
    h_accept = h_acc
    if v is not None and v > 0.0:
        h_st = (EXPLICIT_STABILITY_SPAN / v) * h
        if h_st < h_acc:
            h_accept = h_st
    if not h_accept > h:
        h_accept = h
    if pressure > 1.0:
        h_press = h_acc / pressure
        if h_press < h_accept:
            h_accept = h_press
    if H_MIN > h_accept:
        h_accept = H_MIN
    return h_accept


def _rhs(full, u: np.ndarray) -> np.ndarray:
    """full(u) as a float array of u's shape, else DimensionMismatch."""
    f = np.asarray(full(u), dtype=float)
    if f.shape != u.shape:
        raise DimensionMismatch(f"right-hand side returned shape {f.shape} "
                                f"for a state of shape {u.shape}")
    return f


def _stages(problem: SplitProblem, y, h: float,
            scheme: SchemeCoefficients, embedded: EmbeddedCoefficients,
            stats: RunStatistics, tol: Tolerances, control: bool, drift):
    """Evaluate all stages of one attempt and measure it.

    Returns None when the main or the embedded solution is not finite,
    and otherwise (y_next, err, v, drift, g_norm): y_next is the main
    solution and err the error_norm of it against the embedded one; on an
    accepted attempt (err <= 1), v is the stability estimate when
    control is set, else None, and drift, the drift guard's sum, is
    folded forward by _drift_update, with g_norm its scaled norm; a
    rejected attempt gives None for all three.  Under unit absolute
    tolerances (atol 1, rtol 0) every denominator is exactly 1.0, so err
    is the max-norm gap between the two solutions, as integrate_fixed
    and embedded_difference read it.  The estimate reads
    k1 = h*phi(y) and k6 = h*phi(u6), the first and last evaluations of
    the step-local non-stiff part phi(u) = f(u) - B*u with B held at its
    start-of-step value, and u6, the last stage's argument.

    The attempt evaluates B, factors D and counts its work here, once for
    both paths: 1 factorization, 5 linear solves, 3 evaluations of the
    right-hand side and 2 stiff-part applications.  B is then read only
    through its factorization, so every stage applies the B that D was
    factored from.  factor picks the path: a factorization that carries
    B's diagonal as floats sends the attempt to the generated float
    function for its dimension, and y_next and drift are then lists; any
    other runs it on arrays.  y and drift may be either.  Raises
    SingularMatrix when the stage matrix cannot be factored,
    ZeroToleranceDenominator as error_norm does, ValueError (for_state)
    when tol's size differs from the state's, and DimensionMismatch when
    B's does, the right-hand side returns anything but a sequence of n
    numbers or the Jacobian provider returns neither matrix type.
    """
    y_arr = np.array(y) if type(y) is list else y
    B = problem.jac(y_arr)
    stats.factorizations += 1
    # factor first: it rejects a B of neither matrix type
    fact = factor(B, scheme.a * h)
    n = len(y_arr)
    if fact.dim != n:
        raise DimensionMismatch(f"stage matrix size {fact.dim} != state "
                                f"length {n}")
    atol, rtol = tol.for_state(n)
    stats.phi_evals += 3
    stats.g_evals += 2
    stats.linear_solves += 5
    full = problem.full
    if fact.b_floats is not None:
        return _float_stages(n)(
            full, fact.solve, fact.b_floats,
            y if type(y) is list else y_arr.tolist(), h,
            scheme.stage_weights(), embedded.stage_weights(), atol, rtol,
            control, drift)
    y = y_arr
    (_, a42, a43, b42, b43, gamma, b63, b64, b65,
     p1, p2, p3, p4, p5, p6) = scheme.stage_weights()
    r1, r2, r3, r4, r5 = embedded.stage_weights()
    f0 = _rhs(full, y)
    # the non-stiff and stiff parts are both taken at y, so their sum
    # collapses to the full right-hand side
    k1 = h * (f0 - fact.b_matvec(y))
    k2 = fact.solve(h * f0)
    k3 = fact.solve(k2)
    # first-stage weights of the combination rows are structurally zero
    u = y + b42 * k2 + b43 * k3
    w = y + a42 * k2 + a43 * k3
    # h*phi(u) + h*(B*w) regrouped around one right-hand-side evaluation
    rhs4 = h * _rhs(full, u) + h * fact.b_matvec(w - u)
    k4 = fact.solve(rhs4)
    k5 = fact.solve(k4 + gamma * k3)
    u6 = y + b63 * k3 + b64 * k4 + b65 * k5
    k6 = h * (_rhs(full, u6) - fact.b_matvec(u6))
    k5_emb = fact.solve(k4)

    y_next = y + p1 * k1 + p2 * k2 + p3 * k3 + p4 * k4 + p5 * k5 + p6 * k6
    y_emb = y + r1 * k1 + r2 * k2 + r3 * k3 + r4 * k4 + r5 * k5_emb
    if not (np.all(np.isfinite(y_next)) and np.all(np.isfinite(y_emb))):
        return None
    err = error_norm(y_next, y_emb, tol)
    if not err <= 1.0:
        return y_next, err, None, None, None
    v = stability_estimate(y, u6, k1, k6) if control else None
    return (y_next, err, v) + _drift_update(drift, h, fact.b_diag, y_next,
                                            y_emb, tol)


def _float_stages_source(n: int, name: str) -> str:
    """Source of _stages' float path unrolled for n components.

    Every component is a local (y_m, the B diagonal b_m, the right-hand
    side f_m, the stages k<i>_m and the stage arguments u_m, w_m, u6_m),
    and each line is _stages' numpy expression for one component, in
    numpy's association and order.  Zero weights are multiplied as numpy
    multiplies them, so signed zeros and NaN come out the same.  The
    weights arrive as arguments (w from SchemeCoefficients.stage_weights,
    r from EmbeddedCoefficients.stage_weights), so one function serves
    every scheme, and so do the factorization's solve and B's diagonal
    as floats (b): _stages has factored D and counted the work.  full is
    called on a tuple of the stage argument's components, and its return
    unpacked into locals (_emit_rhs_call); the stage solves go through
    solve as lists.

    From the stages the function goes on, with the tolerances as tuples
    of floats (atol, rtol), as the numpy path's error_norm,
    stability_estimate and _drift_update do, line for line on the
    locals: the same denominators, floors and maxima, with NaN winning
    each maximum as in np.max.  The drift decay is one np.exp call on
    the tuple of x_m = h*b_m clipped to x_m < 0.0, else 0.0: the
    arguments of the numpy path's np.exp(np.minimum(0.0, h*b_diag)) but
    for the sign of a zero, as b is finite here (a non-finite b_m makes
    k1_m, and so the new state, not finite) and
    exp(-0.0) = exp(0.0) = 1.0.
    """
    comps = range(n)
    lines = [f"def {name}(full, solve, b, y, h, w, r, atol, rtol, control, "
             "drift):",
             "    (_, a42, a43, b42, b43, gamma, b63, b64, b65,",
             "     p1, p2, p3, p4, p5, p6) = w",
             "    r1, r2, r3, r4, r5 = r",
             f"    {each('y_{m}', n)}= y",
             f"    {each('b_{m}', n)}= b"]
    emit = lines.append
    _emit_rhs_call(emit, f"full(({each('y_{m}', n)}))", "f", n)
    emit_each(emit, "k1_{m} = h * (f_{m} - b_{m} * y_{m})", n)
    emit(f"    k2 = solve([{each('h * f_{m}', n)}])")
    emit(f"    {each('k2_{m}', n)}= k2")
    emit(f"    {each('k3_{m}', n)}= solve(k2)")
    emit_each(emit, "u_{m} = y_{m} + b42 * k2_{m} + b43 * k3_{m}", n)
    emit_each(emit, "w_{m} = y_{m} + a42 * k2_{m} + a43 * k3_{m}", n)
    _emit_rhs_call(emit, f"full(({each('u_{m}', n)}))", "f", n)
    emit("    k4 = solve([")
    emit_each(emit, "    h * f_{m} + h * (b_{m} * (w_{m} - u_{m})),", n)
    emit("    ])")
    emit(f"    {each('k4_{m}', n)}= k4")
    rhs5 = each("k4_{m} + gamma * k3_{m}", n)
    emit(f"    {each('k5_{m}', n)}= solve([{rhs5}])")
    emit_each(emit, "u6_{m} = y_{m} + b63 * k3_{m} + b64 * k4_{m}"
              " + b65 * k5_{m}", n)
    _emit_rhs_call(emit, f"full(({each('u6_{m}', n)}))", "f", n)
    emit_each(emit, "k6_{m} = h * (f_{m} - b_{m} * u6_{m})", n)
    emit(f"    {each('e5_{m}', n)}= solve(k4)")
    emit_each(emit, "yn_{m} = (y_{m} + p1 * k1_{m} + p2 * k2_{m} + p3 * k3_{m}"
              " + p4 * k4_{m} + p5 * k5_{m} + p6 * k6_{m})", n)
    emit_each(emit, "ye_{m} = (y_{m} + r1 * k1_{m} + r2 * k2_{m} + r3 * k3_{m}"
              " + r4 * k4_{m} + r5 * e5_{m})", n)
    # the finiteness of y_next, then of y_emb
    emit_finite(emit, [f"yn_{m}" for m in comps] + [f"ye_{m}" for m in comps],
                "raise _not_numbers() from None")
    emit("    if not finite:")
    emit("        return None")
    emit_denominators(emit, n, "    ")  # error_norm
    emit_max(emit, "err", "abs(yn_{m} - ye_{m}) / den_{m}", n)
    emit(f"    y_next = [{each('yn_{m}', n)}]")
    emit("    if not err <= 1.0:")
    emit("        return y_next, err, None, None, None")
    # stability_estimate: the ratios start from -1.0, below any ratio
    # (an absolute value over a positive displacement), so a v still
    # below 0 kept no component
    emit("    if control:")
    emit_each(emit, "pd_{m} = abs(u6_{m} - y_{m})", n, "        ")
    emit_max(emit, "pmax", "pd_{m}", n, "        ")
    emit("        share = PROBE_SHARE_FLOOR * pmax")
    emit("        v = -1.0")
    for m in comps:
        emit(f"        if (pd_{m} >= share"
             f" and pd_{m} >= PROBE_FLOOR * (1.0 + abs(y_{m}))):")
        emit(f"            q = abs(k6_{m} - k1_{m}) / pd_{m}")
        emit("            if not q <= v and v == v:")
        emit("                v = q")
    emit("        if v < 0.0:")
    emit("            v = 0.0")
    emit("    else:")
    emit("        v = None")
    # _drift_update; x if x < 0.0 else 0.0 differs from np.minimum(0.0, x)
    # only on NaN, which a finite b rules out, and on the sign of a zero,
    # which exp maps to 1.0 either way
    emit_each(emit, "x_{m} = h * b_{m}", n)
    emit(f"    {each('dk_{m}', n)}= "
         f"np.exp(({each('x_{m} if x_{m} < 0.0 else 0.0', n)})).tolist()")
    emit(f"    {each('g_{m}', n)}= drift")
    emit_each(emit, "g_{m} = g_{m} * dk_{m} + (yn_{m} - ye_{m})", n)
    emit_max(emit, "g_norm", "abs(g_{m}) / den_{m}", n)
    emit(f"    return y_next, err, v, [{each('g_{m}', n)}], g_norm")
    return "\n".join(lines) + "\n"


def _float_stages(n: int) -> Callable:
    """The generated float-path function for n components, made once."""
    stages = _FLOAT_STAGES.get(n)
    if stages is None:
        name = f"_float_stages_{n}"
        stages = _FLOAT_STAGES[n] = _compile_generated(
            _float_stages_source(n, name), name,
            f"<stepper float stages, n={n}>", globals())
    return stages


def attempt_step(problem: SplitProblem, y, h: float,
                 scheme: SchemeCoefficients, embedded: EmbeddedCoefficients,
                 tol: Tolerances, cfg: ControllerConfig,
                 stats: RunStatistics, pressure: float = 1.0,
                 drift=None) -> StepReport:
    """Attempt one step of size h from state y (an array, or a list).

    An accepted attempt carries the stability estimate v when stability
    control is on; it costs no evaluation, so every attempt spends the
    same three non-stiff evaluations.  A rejected attempt reports
    v = None: its retry stepsize comes from the error model alone.  A
    drift-guard pressure above 1 lowers the proposed next stepsize
    without touching acceptance.  An accepted attempt folds its step
    into the drift guard's sum (zeros when drift is None) and reports
    the new sum and the next pressure, the sum's scaled norm over
    DRIFT_BUDGET and at least 1.  A singular stage matrix or a
    non-finite result is reported as a rejection with the stepsize
    halved.  integrate alone tests a retry's h_next against H_MIN.
    """
    if drift is None:
        drift = [0.0] * len(y)
    try:
        out = _stages(problem, y, h, scheme, embedded, stats, tol,
                      cfg.stability_control, drift)
    except SingularMatrix:
        out = None
    if out is None:
        return StepReport(False, math.inf, None, 0.5 * h)

    y_next, err, v, drift, g_norm = out
    h_next = propose_next_h(h, err, v, pressure)
    if err <= 1.0:
        # max(1.0, g_norm / DRIFT_BUDGET)
        pressure = g_norm / DRIFT_BUDGET
        return StepReport(True, err, v, h_next, y_next, drift,
                          pressure if pressure > 1.0 else 1.0)
    return StepReport(False, err, None, h_next)


def _drift_update(drift, h: float, b_diag: np.ndarray, y: np.ndarray,
                  y_emb: np.ndarray, tol: Tolerances) -> tuple:
    """Fold an accepted step into the drift sum; returns (drift, g_norm).

    The sum decays by exp(min(0, h*b_i)) per component before the step's
    main-vs-embedded difference y - y_emb is added, and g_norm is its
    scaled norm, with error_norm's denominator at y.  The float path
    does the same in its generated function.
    """
    decay = np.exp(np.minimum(0.0, h * b_diag))
    drift = np.asarray(drift) * decay + (y - y_emb)
    den = tol.atol + tol.rtol * np.abs(y)
    return drift, float(np.max(np.abs(drift) / den))


def integrate(problem: SplitProblem, scheme: SchemeCoefficients,
              embedded: EmbeddedCoefficients, tol: Tolerances,
              cfg: Optional[ControllerConfig] = None,
              trace: Optional[list] = None,
              stats: Optional[RunStatistics] = None) -> IntegrationResult:
    """Integrate from t0 to t_end with adaptive stepsize.

    The problem is autonomous, so t runs from 0 to the span t_end - t0
    and is reported (result, trace rows, errors) as t0 + t: a large |t0|
    cannot swallow a step.  The run ends within END_SHARE of the span
    from its end.  Every attempt, accepted or rejected, costs one
    factorization, five solves, three non-stiff and two stiff
    evaluations, with or without stability control.  Given a list trace,
    each accepted step appends its row (t, h, err, v, y) there as it
    goes, y as an array and v None when stability control is off.  The
    drift guard folds every accepted step's main-vs-embedded difference
    into a running sum whose components decay at their own linearized
    rates; once the sum's scaled norm exceeds DRIFT_BUDGET, subsequent
    stepsize proposals are divided by the overshoot factor.  The work is
    counted into stats, a fresh RunStatistics unless one is given, and
    the result carries it.  A run that raises has still added the work
    of its attempts to a given stats and the rows of its accepted steps
    to a given trace, as rk_integrate does.  Raises ValueError when the
    tolerances do not have one entry per state component,
    StepsizeUnderflow when a rejection pushes h below H_MIN and
    MaxRejectsExceeded when one step keeps failing.
    """
    tol.for_state(problem.n)  # raises on a length mismatch
    cfg = cfg if cfg is not None else ControllerConfig()
    t0 = problem.t0
    span = problem.t_end - t0
    t_close = END_SHARE * span
    t = 0.0
    # read-only, and every accepted step makes a new state
    y = problem.y0
    h = max(problem.h0, H_MIN)

    stats = stats if stats is not None else RunStatistics()
    drift = [0.0] * problem.n
    pressure = 1.0

    while span - t > t_close:
        if h >= (span - t) / END_STRETCH:
            h = span - t
        rejects = 0
        while True:
            report = attempt_step(problem, y, h, scheme, embedded, tol,
                                  cfg, stats, pressure=pressure, drift=drift)
            if report.accepted:
                t += h
                y = report.y_next
                stats.steps_accepted += 1
                drift, pressure = report.drift, report.next_pressure
                if trace is not None:
                    trace.append((t0 + t, h, report.err, report.v,
                                  _as_array(y)))
                h = report.h_next
                break
            stats.steps_rejected += 1
            rejects += 1
            if report.h_next < H_MIN:
                raise StepsizeUnderflow(
                    f"retry stepsize fell below h_min={H_MIN:g} at "
                    f"t={t0 + t:.6g} (err={report.err:.3g})")
            if rejects > MAX_REJECTS:
                raise MaxRejectsExceeded(
                    f"step at t={t0 + t:.6g} rejected {rejects} times "
                    f"(h={h:.3g}, err={report.err:.3g})")
            h = report.h_next

    return IntegrationResult(t0 + t, _as_array(y), stats)


def _check_stepsize(h: float) -> None:
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be finite and positive, got {h!r}")


def integrate_fixed(problem: SplitProblem, h: float,
                    scheme: SchemeCoefficients,
                    embedded: EmbeddedCoefficients) -> IntegrationResult:
    """Integrate with a constant stepsize and no error control.

    The span is covered by round(span/h) equal steps (h is honored
    exactly when it divides the span).  h must be finite and positive,
    and an h that would take more than ORDER_STUDY_MAX_STEPS steps raises
    ValueError before the first.  Each step is a measured attempt under
    unit absolute tolerances, whose main solution is taken whatever its
    error; a step whose main or embedded solution is not finite aborts
    with NonFiniteState.  Order studies use this entry point.
    """
    _check_stepsize(h)
    t = problem.t0
    y = problem.y0
    span = problem.t_end - t
    # round(span / h) within the bound; a tiny h overflows span / h to inf
    if not span / h <= ORDER_STUDY_MAX_STEPS + 0.5:
        raise ValueError(f"h={h:g} would take more than "
                         f"{ORDER_STUDY_MAX_STEPS} steps over the span "
                         f"{span:g}")
    n_steps = max(1, round(span / h))
    h_eff = span / n_steps
    stats = RunStatistics()
    unit = Tolerances(np.ones(problem.n), np.zeros(problem.n))
    drift = [0.0] * problem.n
    for i in range(n_steps):
        out = _stages(problem, y, h_eff, scheme, embedded, stats, unit,
                      False, drift)
        if out is None:
            raise NonFiniteState(f"state became non-finite at t={t:.6g}")
        y = out[0]
        t = problem.t0 + (i + 1) * h_eff
        stats.steps_accepted += 1
    return IntegrationResult(t=t, y=_as_array(y), stats=stats)


def embedded_difference(problem: SplitProblem, h: float,
                        scheme: SchemeCoefficients,
                        embedded: EmbeddedCoefficients) -> float:
    """Max-norm gap between main and embedded solutions after one step.

    The gap is the attempt's error norm under unit absolute tolerances
    (atol 1, rtol 0).  h must be finite and positive, and a step whose
    main or embedded solution is not finite raises NonFiniteState, as
    for integrate_fixed.
    """
    _check_stepsize(h)
    n = problem.n
    out = _stages(problem, problem.y0, h, scheme, embedded, RunStatistics(),
                  Tolerances(np.ones(n), np.zeros(n)), False, [0.0] * n)
    if out is None:
        raise NonFiniteState(
            f"state became non-finite at t={problem.t0:.6g}")
    return out[1]
