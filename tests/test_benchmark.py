"""Tests for the benchmark matrix, its report writers, and order studies."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from asode import benchmark, problems
from asode.linalg import DiagonalMatrix
from asode.benchmark import (
    BENCH_PROBLEMS,
    BENCH_TOLS,
    CSV_COLUMNS,
    METHODS,
    CellResult,
    CellSpec,
    default_matrix,
    format_table,
    order_study,
    run_cell,
    run_matrix,
    verify_comparator_orders,
    write_csv,
)
from asode.exceptions import (
    NonFiniteState,
    ReferenceUnavailable,
    StepsizeUnderflow,
)


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
        attempts = r.steps_accepted + r.steps_rejected
        assert r.factorizations == attempts
        assert r.solves == 5 * attempts
        assert r.g_evals == 2 * attempts
        assert r.phi_evals == 3 * attempts + 2 * r.steps_accepted

    def test_run_cell_without_stability_control(self):
        r = run_cell(CellSpec("example4", 1e-2, "asode3-nocontrol"))
        assert r.ok
        attempts = r.steps_accepted + r.steps_rejected
        assert r.phi_evals == 3 * attempts

    def test_run_cell_explicit_counters(self):
        r = run_cell(CellSpec("example4", 1e-2, "merson"))
        assert r.ok
        assert r.g_evals == 0
        assert r.factorizations == 0
        assert r.solves == 0
        attempts = r.steps_accepted + r.steps_rejected
        assert r.phi_evals == 5 * attempts

    def test_run_cell_unknown_method(self):
        with pytest.raises(ValueError, match="unknown benchmark method"):
            run_cell(CellSpec("example4", 1e-2, "euler"))

    def test_run_cell_records_failure_instead_of_raising(self, monkeypatch):
        def boom(*args, **kwargs):
            raise StepsizeUnderflow("stepsize collapsed")

        monkeypatch.setattr(benchmark, "integrate", boom)
        r = run_cell(CellSpec("example4", 1e-2, "asode3"))
        assert not r.ok
        assert r.error == "StepsizeUnderflow: stepsize collapsed"
        assert r.phi_evals == 0
        assert math.isnan(r.t_final)
        assert r.y_final == ()

    def test_run_matrix_preserves_spec_order(self):
        specs = [CellSpec("example4", 1e-2, m)
                 for m in ("merson", "asode3", "rkf45")]
        results = run_matrix(specs, max_workers=1)
        assert [r.method for r in results] == ["merson", "asode3", "rkf45"]

    def test_run_matrix_parallel_matches_serial(self):
        specs = [CellSpec("example4", 1e-2, m)
                 for m in ("asode3", "merson")]
        serial = run_matrix(specs, max_workers=1)
        parallel = run_matrix(specs, max_workers=2)
        for a, b in zip(serial, parallel):
            assert a.method == b.method
            assert a.phi_evals == b.phi_evals
            assert a.steps_accepted == b.steps_accepted
            assert a.y_final == b.y_final

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
                      phi_evals=525, g_evals=246, factorizations=123,
                      solves=615, steps_accepted=78, steps_rejected=45,
                      wall_seconds=0.0123)
    bad = CellResult(problem="example2", tol=1e-4, method="merson",
                     ok=False, error="StepsizeUnderflow: stepsize collapsed",
                     t_final=math.nan, y_final=(),
                     phi_evals=40, g_evals=0, factorizations=0,
                     solves=0, steps_accepted=3, steps_rejected=5,
                     wall_seconds=0.5)
    return [good, bad]


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
        write_csv(_sample_results(), str(path))
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

    def test_write_csv_is_deterministic(self, tmp_path):
        specs = [CellSpec("example4", 1e-2, "asode3"),
                 CellSpec("example4", 1e-2, "merson")]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_matrix(specs, max_workers=1), str(first))
        write_csv(run_matrix(specs, max_workers=1), str(second))
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
        blind = dataclasses.replace(problems.builtin("powerlaw"),
                                    exact=None)
        monkeypatch.setitem(problems._REGISTRY, "blind", lambda: blind)
        study = order_study("blind", h0=0.16, ref_tol=1e-10)
        assert 2.5 <= study.slopes["asode3"] <= 3.5
        assert 3.5 <= study.slopes["merson"] <= 4.5

    def test_reference_unavailable(self, monkeypatch):
        def boom(*args, **kwargs):
            raise StepsizeUnderflow("stepsize collapsed")

        monkeypatch.setattr(benchmark, "integrate", boom)
        with pytest.raises(ReferenceUnavailable, match="reference"):
            order_study("example1")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_explicit_ladder_is_reported(self, monkeypatch):
        # A strongly damped linear problem over a long span: the
        # implicit-stage ladders are untroubled, but the explicit
        # comparator amplifies every step at h0 and overflows.
        monkeypatch.setitem(
            problems._REGISTRY, "stiffdecay",
            lambda: problems._assemble(
                "stiffdecay",
                lambda y: (-200.0 * y[0],),
                lambda y: DiagonalMatrix(np.array([-200.0])),
                [1.0], (0.0, 10.0), 1e-3,
                exact=lambda t: np.array([math.exp(-200.0 * t)])))
        with pytest.raises(NonFiniteState, match="smaller h0"):
            order_study("stiffdecay", h0=0.1)
