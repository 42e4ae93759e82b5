"""Benchmark matrix and convergence studies over the built-in problems.

The benchmark mirrors the structure of classical stiff-solver comparison
tables: every built-in kinetics problem at two tolerances, solved by the
additive scheme with and without stability control and by the two
explicit comparators, with exact work counters per cell.  Cells are
independent, so they may run in parallel processes; results are always
assembled in matrix order, which keeps repeated runs byte-identical.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .coefficients import derive_embedded, derive_scheme
from .exceptions import NonFiniteState, ReferenceUnavailable, SolverError
from .problems import SplitProblem, Tolerances, builtin
from .reference_rk import FEHLBERG45, MERSON, TABLEAUS, rk_integrate, rk_step
from .stepper import (
    ORDER_STUDY_MAX_STEPS,
    ControllerConfig,
    IntegrationResult,
    RunStatistics,
    embedded_difference,
    integrate,
    integrate_fixed,
)

BENCH_PROBLEMS = ("example1", "example2", "example3", "example4")
BENCH_TOLS = (1e-2, 1e-4)
# the methods `asode solve` accepts and each benchmark cell runs, in
# table order
METHODS = ("asode3", "asode3-nocontrol", "merson", "rkf45")

CSV_COLUMNS = ("problem", "tol", "method") + tuple(RunStatistics().as_dict())


class CellSpec(NamedTuple):
    problem: str
    tol: float
    method: str


@dataclass(frozen=True)
class CellResult:
    """Outcome of one benchmark cell: its final state and the run's stats.

    stats.as_dict() supplies the counter columns of the CSV and the table;
    wall_seconds never enters the CSV.
    """

    problem: str
    tol: float
    method: str
    ok: bool
    error: str
    t_final: float
    y_final: tuple
    stats: RunStatistics
    wall_seconds: float


def default_matrix() -> list:
    """Every built-in benchmark problem x tolerance x method."""
    return [CellSpec(p, tol, m)
            for p in BENCH_PROBLEMS
            for tol in BENCH_TOLS
            for m in METHODS]


def run_method(method: str, problem: SplitProblem, tol: Tolerances,
               stats: RunStatistics,
               trace: Optional[list] = None) -> IntegrationResult:
    """Solve problem with the named method; returns its IntegrationResult.

    Every method counts its work into the given stats and, given a list
    trace, appends each accepted step's row (t, h, err, v, y) there as it
    goes, so the attempts and accepted steps of a failed run stay
    readable in both.
    """
    if method in ("asode3", "asode3-nocontrol"):
        scheme = derive_scheme()
        cfg = ControllerConfig(stability_control=(method == "asode3"))
        return integrate(problem, scheme, derive_embedded(scheme), tol, cfg,
                         trace=trace, stats=stats)
    if method in TABLEAUS:
        return rk_integrate(TABLEAUS[method], problem.full, tuple(problem.y0),
                            (problem.t0, problem.t_end), tol, problem.h0,
                            stats=stats, trace=trace)
    raise ValueError(f"unknown benchmark method {method!r}")


def run_cell(spec: CellSpec) -> CellResult:
    """Run one cell; solver failures are captured in the result, not raised.

    A failed run reports the work of the attempts it made before giving
    up.
    """
    p = builtin(spec.problem)
    tol = Tolerances.uniform(spec.tol, p.n)
    stats = RunStatistics()
    ok, err_msg, t, y = True, "", math.nan, ()
    start = time.perf_counter()
    try:
        t, y, _ = run_method(spec.method, p, tol, stats)
    except SolverError as exc:
        ok = False
        err_msg = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return CellResult(problem=spec.problem, tol=spec.tol, method=spec.method,
                      ok=ok, error=err_msg, t_final=t, y_final=tuple(y),
                      stats=stats, wall_seconds=wall)


def _worker_cap(n_cells: int) -> int:
    env = os.environ.get("ASODE_THREADS")
    if env is None:
        cap = os.cpu_count() or 1
    else:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(
                f"ASODE_THREADS must be a positive integer, got {env!r}"
            ) from None
        if cap < 1:
            raise ValueError(
                f"ASODE_THREADS must be a positive integer, got {env!r}")
    return max(1, min(cap, n_cells))


def run_matrix(specs: Optional[Sequence[CellSpec]] = None) -> list:
    """Run benchmark cells, in parallel processes when workers permit.

    Results come back in spec order regardless of completion order.  The
    worker count is the CPU count, capped by ASODE_THREADS when it is set
    and by the number of cells; when it comes to one, or when the
    platform cannot spawn worker processes or has no process pool, the
    cells run serially in this process.  The pool's module is imported
    only here, when more than one worker is asked for.
    """
    specs = list(specs) if specs is not None else default_matrix()
    if not specs:
        return []
    workers = _worker_cap(len(specs))
    if workers > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor
        except ImportError:
            pass
        else:
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    return list(pool.map(run_cell, specs))
            except (OSError, PermissionError):
                pass
    return [run_cell(s) for s in specs]


def format_table(results: Sequence[CellResult]) -> str:
    """Aligned text table of the benchmark matrix."""
    headers = CSV_COLUMNS + ("status", "wall_s")
    rows = []
    for r in results:
        status = "ok" if r.ok else f"FAIL({r.error.split(':', 1)[0]})"
        rows.append((r.problem, f"{r.tol:g}", r.method,
                     *map(str, r.stats.as_dict().values()), status,
                     f"{r.wall_seconds:.2f}"))
    widths = [max(len(h), max((len(row[i]) for row in rows), default=0))
              for i, h in enumerate(headers)]
    # numeric columns: the counters and wall_s
    right = set(range(3, len(CSV_COLUMNS))) | {len(headers) - 1}
    def fmt(cells):
        return "  ".join(
            c.rjust(w) if i in right else c.ljust(w)
            for i, (c, w) in enumerate(zip(cells, widths))).rstrip()
    return "\n".join([fmt(headers)] + [fmt(row) for row in rows])


def csv_rows(results: Sequence[CellResult]) -> list:
    """Bench CSV rows under CSV_COLUMNS: the counters, no wall clock."""
    return [[r.problem, f"{r.tol:.17g}", r.method,
             *r.stats.as_dict().values()] for r in results]


def verify_comparator_orders() -> dict:
    """Empirical fixed-step order check for both comparator tableaus.

    Integrates y' = -y over [0, 1] at two fixed steps and checks that the
    global-error halving slope matches each tableau's propagated order to
    within 0.3.  Runs before any benchmark is reported, so a miswired
    comparator cannot silently inflate the cost ratios.
    """
    slopes = {}
    for tab in (MERSON, FEHLBERG45):
        errors = []
        for h in (0.05, 0.025):
            y = (1.0,)
            for _ in range(round(1.0 / h)):
                y, _ = rk_step(tab, lambda s: (-s[0],), y, h)
            errors.append(abs(y[0] - math.exp(-1.0)))
        slope = math.log2(errors[0] / errors[1])
        if not (tab.order - 0.3 <= slope <= tab.order + 0.3):
            raise SolverError(
                f"comparator {tab.name} failed its fixed-step order check: "
                f"slope {slope:.3f}, expected ~{tab.order}")
        slopes[tab.name] = slope
    return slopes


@dataclass(frozen=True)
class OrderStudy:
    """Fixed-step error ladders and fitted convergence slopes."""

    problem: str
    hs: tuple
    errors: dict      # method label -> tuple of max-norm errors per h
    slopes: dict      # method label -> fitted slope of log2(err) vs log2(h)


def _fit_slope(hs, errors) -> float:
    logs = np.log2(np.maximum(np.asarray(errors, dtype=float), 1e-300))
    return float(np.polyfit(np.log2(np.asarray(hs)), logs, 1)[0])


def order_study(problem_name: str = "powerlaw", h0: float = 0.02,
                ref_tol: float = 1e-10) -> OrderStudy:
    """Convergence study at steps near h0, h0/2, h0/4, h0/8.

    Each rung covers the span in round(span/h) equal steps, and the
    slopes are fitted against those steps; an h0 that is not positive,
    or so large that two rungs take the same number of steps, or so
    small that the finest rung would take more than
    ORDER_STUDY_MAX_STEPS, raises ValueError before any solve, and so
    does a ref_tol that is not finite and positive, whether or not the
    problem needs the reference run.

    Measures three ladders against a reference final state: the additive
    scheme's fixed-step global error, the one-step gap between its main
    and companion solutions (one order below the solution), and Merson's
    fixed-step global error.  The reference is the problem's closed-form
    solution when it has one, otherwise an adaptive additive run at
    ref_tol; if that run fails there is nothing to measure against and
    ReferenceUnavailable is raised.  The ladders run before the
    reference, so a ladder's failure is raised first.
    """
    if not 0.0 < ref_tol < math.inf:
        raise ValueError(f"ref_tol must be finite and positive, got "
                         f"{ref_tol!r}")
    if not h0 > 0.0:
        raise ValueError(f"h0 must be positive, got {h0!r}")
    p = builtin(problem_name)
    span = p.t_end - p.t0
    # the finest rung's step count before rounding; where h0/8 would
    # underflow to 0, span/h0 overflows to inf instead
    if not span / h0 * 8.0 <= ORDER_STUDY_MAX_STEPS:
        raise ValueError(f"h0={h0:g} is too small for the span {span:g}: "
                         f"the finest rung would take more than "
                         f"{ORDER_STUDY_MAX_STEPS} steps")
    counts = [max(1, round(span / (h0 / 2.0 ** i))) for i in range(4)]
    if len(set(counts)) < len(counts):
        raise ValueError(f"h0={h0:g} is too large for the span {span:g}: "
                         f"the rungs take {counts} steps")
    hs = tuple(span / n for n in counts)

    scheme = derive_scheme()
    emb = derive_embedded(scheme)
    # the ladders first: a ladder that fails does so within its first
    # steps, where the adaptive reference at ref_tol may take many
    additive = [integrate_fixed(p, h, scheme, emb).y for h in hs]
    gap = [embedded_difference(p, h, scheme, emb) for h in hs]
    explicit = []
    for n, h in zip(counts, hs):
        y = tuple(p.y0.tolist())
        for _ in range(n):
            y, _ = rk_step(MERSON, p.full, y, h)
        if not all(math.isfinite(v) for v in y):
            raise NonFiniteState(
                f"merson fixed-step run diverged at h={h:g}; "
                f"pick a smaller h0 for this problem")
        explicit.append(y)

    if p.exact is not None:
        y_ref = np.asarray(p.exact(p.t_end), dtype=float)
    else:
        try:
            res = integrate(p, scheme, emb,
                            Tolerances.uniform(ref_tol, p.n))
        except SolverError as exc:
            raise ReferenceUnavailable(
                f"no closed form for {problem_name!r} and the reference "
                f"run at tol={ref_tol:g} failed: {exc}") from exc
        y_ref = np.asarray(res.y, dtype=float)

    errors = {"asode3": tuple(float(np.max(np.abs(y - y_ref)))
                              for y in additive),
              "embedded-diff": tuple(gap),
              "merson": tuple(max(abs(a - b) for a, b in zip(y, y_ref))
                              for y in explicit)}
    slopes = {k: _fit_slope(hs, v) for k, v in errors.items()}
    return OrderStudy(problem=problem_name, hs=hs, errors=errors,
                      slopes=slopes)
