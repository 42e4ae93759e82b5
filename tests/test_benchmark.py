"""Tests for the benchmark matrix, its report writers, and order studies."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import asode
from asode import benchmark, builtin, problems
from asode.cli import _write_csv
from asode.linalg import DiagonalMatrix
from asode.benchmark import (
    BENCH_PROBLEMS,
    BENCH_TOLS,
    CSV_COLUMNS,
    METHODS,
    CellResult,
    CellSpec,
    csv_rows,
    default_matrix,
    format_table,
    order_study,
    run_cell,
    run_matrix,
    verify_comparator_orders,
)
from asode.exceptions import (
    NonFiniteState,
    ReferenceUnavailable,
    SingularMatrix,
    StepsizeUnderflow,
)
from asode.problems import Tolerances
from asode.stepper import IntegrationResult, RunStatistics


class TestMatrix:
    def test_default_matrix_covers_every_cell(self):
        specs = default_matrix()
        assert len(specs) == (len(BENCH_PROBLEMS) * len(BENCH_TOLS)
                              * len(METHODS))
        assert len(set(specs)) == len(specs)
        assert specs[0] == CellSpec("example1", 1e-2, "asode3")
        assert specs[-1] == CellSpec("example4", 1e-4, "rkf45")

    def test_run_cell_additive_counters(self):
        r = run_cell(CellSpec("example4", 1e-2, "asode3"))
        assert r.ok and r.error == ""
        assert abs(r.t_final - 20.0) < 1e-9
        assert len(r.y_final) == 4
        attempts = r.stats.steps_accepted + r.stats.steps_rejected
        assert r.stats.factorizations == attempts
        assert r.stats.linear_solves == 5 * attempts
        assert r.stats.g_evals == 2 * attempts
        assert r.stats.phi_evals == 3 * attempts

    def test_run_cell_without_stability_control(self):
        r = run_cell(CellSpec("example4", 1e-2, "asode3-nocontrol"))
        assert r.ok
        attempts = r.stats.steps_accepted + r.stats.steps_rejected
        assert r.stats.phi_evals == 3 * attempts

    def test_run_cell_explicit_counters(self):
        r = run_cell(CellSpec("example4", 1e-2, "merson"))
        assert r.ok
        assert r.stats.g_evals == 0
        assert r.stats.factorizations == 0
        assert r.stats.linear_solves == 0
        attempts = r.stats.steps_accepted + r.stats.steps_rejected
        assert r.stats.phi_evals == 5 * attempts

    def test_run_cell_unknown_method(self):
        with pytest.raises(ValueError, match="unknown benchmark method"):
            run_cell(CellSpec("example4", 1e-2, "euler"))

    @pytest.mark.parametrize("method", METHODS)
    def test_run_method_returns_the_solvers_result(self, method):
        # one result for both solver families, counted into the given stats
        p = builtin("example4")
        stats = RunStatistics()
        res = benchmark.run_method(method, p, Tolerances.uniform(1e-2, p.n),
                                   stats)
        assert isinstance(res, IntegrationResult)
        assert res.stats is stats and stats.steps_accepted > 0
        assert res.t == pytest.approx(p.t_end, abs=1e-9)
        assert type(res.y) is np.ndarray and res.y.dtype == np.float64
        assert res.y.shape == (p.n,)

    def test_run_cell_records_failure_instead_of_raising(self, monkeypatch):
        def boom(*args, **kwargs):
            raise StepsizeUnderflow("stepsize collapsed")

        monkeypatch.setattr(benchmark, "integrate", boom)
        r = run_cell(CellSpec("example4", 1e-2, "asode3"))
        assert not r.ok
        assert r.error == "StepsizeUnderflow: stepsize collapsed"
        assert r.stats.phi_evals == 0
        assert math.isnan(r.t_final)
        assert r.y_final == ()

    def test_run_cell_failed_additive_run_reports_its_work(self):
        # example1 at 1e-20 underflows after 19 attempts; the cell used to
        # report zero counters for them, as if no work had been done
        r = run_cell(CellSpec("example1", 1e-20, "asode3"))
        assert not r.ok
        assert r.error.startswith("StepsizeUnderflow: ")
        assert r.stats.as_dict() == {
            "phi_evals": 57, "g_evals": 38, "factorizations": 19,
            "solves": 95, "steps_acc": 8, "steps_rej": 11}

    def test_run_matrix_preserves_spec_order(self, monkeypatch):
        specs = [CellSpec("example4", 1e-2, m)
                 for m in ("merson", "asode3", "rkf45")]
        monkeypatch.setenv("ASODE_THREADS", "1")
        results = run_matrix(specs)
        assert [r.method for r in results] == ["merson", "asode3", "rkf45"]

    def test_run_matrix_parallel_matches_serial(self, monkeypatch):
        specs = [CellSpec("example4", 1e-2, m)
                 for m in ("asode3", "merson")]
        monkeypatch.setenv("ASODE_THREADS", "1")
        serial = run_matrix(specs)
        monkeypatch.setenv("ASODE_THREADS", "2")
        parallel = run_matrix(specs)
        for a, b in zip(serial, parallel):
            assert a.method == b.method
            assert a.stats.phi_evals == b.stats.phi_evals
            assert a.stats.steps_accepted == b.stats.steps_accepted
            assert a.y_final == b.y_final

    def test_run_matrix_without_a_process_pool_runs_serially(self):
        # a fresh interpreter whose platform has no process pool: two
        # workers are asked for, and both cells run in this process
        code = (
            "import json, sys\n"
            "sys.modules['concurrent.futures.process'] = None\n"
            "from asode import benchmark\n"
            "calls = []\n"
            "run_cell = benchmark.run_cell\n"
            "benchmark.run_cell = lambda s: calls.append(s) or run_cell(s)\n"
            "specs = [benchmark.CellSpec('example4', 1e-2, m)\n"
            "         for m in ('asode3', 'merson')]\n"
            "results = benchmark.run_matrix(specs)\n"
            "print(json.dumps([len(calls)] + [[r.y_final, r.stats.as_dict()]\n"
            "                                 for r in results]))\n")
        src = os.path.dirname(os.path.dirname(asode.__file__))
        env = dict(os.environ, PYTHONPATH=src, ASODE_THREADS="2")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        calls, *results = json.loads(out.stdout)
        assert calls == 2
        serial = [run_cell(CellSpec("example4", 1e-2, m))
                  for m in ("asode3", "merson")]
        assert results == [[list(r.y_final), r.stats.as_dict()]
                           for r in serial]

    @pytest.mark.skipif(sys.platform != "linux", reason="forks workers")
    def test_import_error_in_a_worker_is_raised_not_rerun(self):
        # only a missing pool module falls back to serial cells; an
        # ImportError from a cell in a worker surfaces, and no cell runs
        # again in this process
        code = (
            "import multiprocessing, os\n"
            "multiprocessing.set_start_method('fork')\n"
            "from asode import benchmark\n"
            "parent, calls = os.getpid(), []\n"
            "def cell(spec):\n"
            "    if os.getpid() != parent:\n"
            "        raise ImportError('from a worker')\n"
            "    calls.append(spec)\n"
            "benchmark.run_cell = cell\n"
            "specs = [benchmark.CellSpec('example4', 1e-2, m)\n"
            "         for m in ('asode3', 'merson')]\n"
            "try:\n"
            "    benchmark.run_matrix(specs)\n"
            "except ImportError as exc:\n"
            "    print(exc, len(calls))\n")
        src = os.path.dirname(os.path.dirname(asode.__file__))
        env = dict(os.environ, PYTHONPATH=src, ASODE_THREADS="2")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "from a worker 0\n"

    def test_run_matrix_empty(self):
        assert run_matrix([]) == []

    def test_worker_cap_env_variable(self, monkeypatch):
        monkeypatch.setenv("ASODE_THREADS", "3")
        assert benchmark._worker_cap(16) == 3
        assert benchmark._worker_cap(2) == 2
        monkeypatch.setenv("ASODE_THREADS", "abc")
        with pytest.raises(ValueError, match="positive integer"):
            benchmark._worker_cap(4)
        monkeypatch.setenv("ASODE_THREADS", "0")
        with pytest.raises(ValueError, match="positive integer"):
            benchmark._worker_cap(4)
        monkeypatch.delenv("ASODE_THREADS")
        assert benchmark._worker_cap(1) == 1


def _sample_results():
    good = CellResult(problem="example4", tol=1e-2, method="asode3",
                      ok=True, error="", t_final=20.0,
                      y_final=(0.5, 0.1, 0.4, 0.3),
                      stats=RunStatistics(
                          phi_evals=525, g_evals=246, factorizations=123,
                          linear_solves=615, steps_accepted=78,
                          steps_rejected=45),
                      wall_seconds=0.0123)
    bad = CellResult(problem="example2", tol=1e-4, method="merson",
                     ok=False, error="StepsizeUnderflow: stepsize collapsed",
                     t_final=math.nan, y_final=(),
                     stats=RunStatistics(phi_evals=40, steps_accepted=3,
                                         steps_rejected=5),
                     wall_seconds=0.5)
    return [good, bad]


def guarded(problem, seconds=20.0):
    """problem with a right-hand side that raises once the run has taken
    longer than seconds, so a run that never ends fails instead"""
    full = problem.full
    deadline = time.monotonic() + seconds

    def f(y):
        if time.monotonic() > deadline:
            raise TimeoutError(f"run exceeded {seconds:g} s")
        return full(y)

    return dataclasses.replace(problem, full=f)


def run_example1(method, t0, span):
    """run_method on example1 over [t0, t0 + span] at tol 1e-4."""
    p = dataclasses.replace(builtin("example1"), t0=t0, t_end=t0 + span)
    t, y, stats = benchmark.run_method(method, guarded(p),
                                       Tolerances.uniform(1e-4, p.n),
                                       RunStatistics())
    return t, y.tolist(), stats


class TestTimeFromStart:
    # a run counts time from t0, so where the span lies changes nothing
    # but the reported t; on t_end's scale a large |t0| swallowed steps
    @pytest.mark.parametrize("method", ["asode3", "merson"])
    @pytest.mark.parametrize("t0", [1e9, 1e13, 1e14, -1e15])
    def test_shifted_span_runs_as_from_zero(self, method, t0):
        t_ref, y_ref, stats_ref = run_example1(method, 0.0, 10.0)
        t, y, stats = run_example1(method, t0, 10.0)
        assert y == y_ref
        assert stats == stats_ref
        assert t == t0 + t_ref

    @pytest.mark.parametrize("method", ["asode3", "merson"])
    def test_short_span_far_from_zero_takes_a_step(self, method):
        _, y, stats = run_example1(method, 1e9, 1e-6)
        assert stats.steps_accepted >= 1
        assert y != list(builtin("example1").y0)


class TestReporting:
    def test_format_table_layout(self):
        text = format_table(_sample_results())
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].split() == ["problem", "tol", "method", "phi_evals",
                                    "g_evals", "factorizations", "solves",
                                    "steps_acc", "steps_rej", "status",
                                    "wall_s"]
        assert lines[1].split()[:4] == ["example4", "0.01", "asode3", "525"]
        assert "ok" in lines[1].split()
        assert "FAIL(StepsizeUnderflow)" in lines[2].split()
        # numeric columns line up on their right edge
        assert lines[1].index("525") + 3 == lines[2].index("40") + 2

    def test_write_csv_columns_and_values(self, tmp_path):
        path = tmp_path / "bench.csv"
        _write_csv(str(path), CSV_COLUMNS, csv_rows(_sample_results()))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert rows[1] == ["example4", "0.01", "asode3", "525", "246",
                           "123", "615", "78", "45"]
        # a failed cell still occupies one row with its partial counters
        assert rows[2][0] == "example2"
        assert rows[2][1] == "0.0001"
        assert rows[2][3] == "40"
        # wall-clock never enters the CSV
        assert all(len(row) == len(CSV_COLUMNS) for row in rows)

    def test_write_csv_is_deterministic(self, tmp_path, monkeypatch):
        specs = [CellSpec("example4", 1e-2, "asode3"),
                 CellSpec("example4", 1e-2, "merson")]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("ASODE_THREADS", "1")
        for path in (first, second):
            _write_csv(str(path), CSV_COLUMNS, csv_rows(run_matrix(specs)))
        assert first.read_bytes() == second.read_bytes()


class TestComparatorCheck:
    def test_both_tableaus_hold_their_order(self):
        slopes = verify_comparator_orders()
        assert set(slopes) == {"merson", "rkf45"}
        assert abs(slopes["merson"] - 4.0) <= 0.3
        assert abs(slopes["rkf45"] - 5.0) <= 0.3


class TestOrderStudy:
    def test_default_study_slopes(self):
        study = order_study()
        assert study.problem == "powerlaw"
        assert study.hs == (0.02, 0.01, 0.005, 0.0025)
        assert set(study.errors) == {"asode3", "embedded-diff", "merson"}
        for errs in study.errors.values():
            assert all(b < a for a, b in zip(errs, errs[1:]))
        assert 2.7 <= study.slopes["asode3"] <= 3.3
        assert 2.7 <= study.slopes["embedded-diff"] <= 3.3
        assert 3.7 <= study.slopes["merson"] <= 4.3

    def test_adaptive_reference_when_no_closed_form(self, monkeypatch):
        # Hide the closed form so the reference must come from an
        # adaptive run; the ladder steps are chosen large enough that
        # every rung's error dwarfs the reference's own error.
        monkeypatch.setitem(problems._REGISTRY, "blind",
                            problems._REGISTRY["powerlaw"][:-1] + (None,))
        study = order_study("blind", h0=0.16, ref_tol=1e-10)
        # 0.16 does not divide the span 2: the rungs take 12, 25, 50 and
        # 100 steps, and the slopes are fitted against those steps
        assert study.hs == (2.0 / 12, 2.0 / 25, 2.0 / 50, 2.0 / 100)
        assert 2.5 <= study.slopes["asode3"] <= 3.5
        assert 3.5 <= study.slopes["merson"] <= 4.5

    @pytest.mark.parametrize("ref_tol", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_reference_tolerance_rejected(self, ref_tol, monkeypatch):
        # refused before any solve, also where a closed form makes the
        # reference run unnecessary (powerlaw); inf used to return normally
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(benchmark, "integrate", no_solve)
        monkeypatch.setattr(benchmark, "integrate_fixed", no_solve)
        for name in ("powerlaw", "example1"):
            with pytest.raises(ValueError, match="ref_tol must be finite"):
                order_study(name, 0.02, ref_tol)

    @pytest.mark.parametrize("h0", [0.0, -0.02, math.nan])
    def test_nonpositive_h0_rejected(self, h0):
        # 0 used to divide by zero, -0.02 to read as too large and NaN as
        # too small
        with pytest.raises(ValueError, match="h0 must be positive"):
            order_study("powerlaw", h0)

    def test_collapsed_ladder_rejected(self):
        with pytest.raises(ValueError, match=r"rungs take \[1, 1, 2, 3\]"):
            order_study(h0=5.0)

    def test_reference_unavailable(self, monkeypatch):
        # the powerlaw problem without its closed form, whose three
        # ladders succeed at h0 = 0.16 (example1's Merson ladder diverges,
        # and the ladders run first)
        def boom(*args, **kwargs):
            raise StepsizeUnderflow("stepsize collapsed")

        monkeypatch.setitem(problems._REGISTRY, "blind",
                            problems._REGISTRY["powerlaw"][:-1] + (None,))
        monkeypatch.setattr(benchmark, "integrate", boom)
        with pytest.raises(ReferenceUnavailable, match="reference"):
            order_study("blind", h0=0.16)

    def test_failing_ladder_raises_before_the_reference_run(self,
                                                           monkeypatch):
        # example3's additive ladder meets a singular stage matrix at
        # t = 0.04; the 1e-10 reference run took most of a minute first
        def no_reference(*args, **kwargs):
            raise AssertionError("the reference run started")

        monkeypatch.setattr(benchmark, "integrate", no_reference)
        with pytest.raises(SingularMatrix, match="singular at t=0.04"):
            order_study("example3")

    def test_divergent_explicit_ladder_is_reported(self, monkeypatch):
        # A strongly damped linear problem over a long span: the
        # implicit-stage ladders are untroubled, but the explicit
        # comparator amplifies every step at h0 and overflows.  The
        # ladder runs on Python floats, so no step warns on the way (on
        # numpy floats every overflow warned)
        monkeypatch.setitem(
            problems._REGISTRY, "stiffdecay",
            (lambda y: (-200.0 * y[0],),
             lambda y: DiagonalMatrix(np.array([-200.0])),
             (1.0,), (0.0, 10.0), 1e-3,
             lambda t: np.array([math.exp(-200.0 * t)])))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteState, match="smaller h0"):
                order_study("stiffdecay", h0=0.1)
