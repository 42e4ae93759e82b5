"""Tests for the command-line interface.

Every test drives main() in-process so exit codes and output can be
asserted without spawning an interpreter.
"""

import csv

import numpy as np
import pytest

from asode import benchmark, cli
from asode.analysis import stability_region_scan
from asode.cli import main
from asode.coefficients import derive_embedded, derive_scheme
from asode.exceptions import StepsizeUnderflow


def _grep(out: str, key: str) -> str:
    for line in out.splitlines():
        if line.startswith(key):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"{key!r} not found in output:\n{out}")


class TestSolve:
    def test_smoke(self, capsys):
        code = main(["solve", "--problem", "example4", "--tol", "1e-2"])
        out = capsys.readouterr().out
        assert code == 0
        assert _grep(out, "reached t") == "20"
        assert int(_grep(out, "steps_accepted")) > 0
        assert int(_grep(out, "phi_evals")) > 0
        assert len(_grep(out, "final state").split()) == 4

    def test_explicit_method(self, capsys):
        code = main(["solve", "--problem", "example4", "--tol", "1e-2",
                     "--method", "merson"])
        out = capsys.readouterr().out
        assert code == 0
        assert _grep(out, "factorizations") == "0"
        assert _grep(out, "solves") == "0"

    def test_unknown_problem_exits_one(self, capsys):
        assert main(["solve", "--problem", "nope"]) == 1
        assert "unknown problem" in capsys.readouterr().err

    def test_missing_problem_exits_one(self, capsys):
        assert main(["solve"]) == 1
        assert "--problem is required" in capsys.readouterr().err

    def test_bad_flag_value_exits_one(self, capsys):
        assert main(["solve", "--problem", "example4",
                     "--tol", "abc"]) == 1
        assert "expected a number" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
        ["--t-end", "-5"], ["--t-end", "nan"],
        ["--t-end", "-5", "--method", "merson"],
        ["--t-end", "nan", "--method", "merson"],
        ["--h0", "0"], ["--method", "bogus"],
        ["--t-end", "inf"], ["--t-end", "inf", "--method", "merson"],
    ])
    def test_invalid_input_exits_one_with_one_line(self, flags, capsys):
        # flags go through the config file's converters, the problem's and
        # the tolerances' own checks: one line, never a traceback or the
        # initial state reported as a result
        assert main(["solve", "--problem", "example1"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_flag_and_file_share_converter(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = example4\ntol = 0\n")
        assert main(["solve", "--config", str(cfg)]) == 1
        from_file = capsys.readouterr().err
        assert main(["solve", "--problem", "example4", "--tol", "0"]) == 1
        assert capsys.readouterr().err == from_file
        assert "expected a positive number" in from_file

    def test_solver_failure_exits_two(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise StepsizeUnderflow("stepsize collapsed")

        monkeypatch.setattr(benchmark, "integrate", boom)
        assert main(["solve", "--problem", "example4"]) == 2
        assert "stepsize collapsed" in capsys.readouterr().err

    def test_trace_csv(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        assert main(["solve", "--problem", "example4", "--tol", "1e-2",
                     "--trace", str(path)]) == 0
        capsys.readouterr()
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "h", "err", "v", "y1", "y2", "y3", "y4"]
        body = rows[1:]
        assert len(body) > 10
        assert all(len(r) == 8 for r in body)
        # with stability control on every accepted row reports the
        # explicit-part estimate, and accepted error ratios stay <= 1
        assert all(r[3] != "" for r in body)
        assert max(float(r[2]) for r in body) <= 1.0 + 1e-12
        times = [float(r[0]) for r in body]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(20.0)

    def test_failed_run_replaces_an_earlier_trace(self, tmp_path, capsys):
        # a tolerance of 1e-20 underflows example1 after 8 accepted steps;
        # the file used to keep the earlier run's rows
        path = tmp_path / "trace.csv"
        args = ["solve", "--problem", "example1", "--trace", str(path)]
        assert main(args + ["--tol", "1e-2"]) == 0
        assert main(args + ["--tol", "1e-20"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: retry stepsize fell below")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "h", "err", "v", "y1", "y2", "y3"]
        body = rows[1:]
        assert len(body) == 8
        times = [float(r[0]) for r in body]
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        assert max(float(r[2]) for r in body) <= 1.0

    def test_unwritable_trace_fails_before_the_solve(self, monkeypatch,
                                                     tmp_path, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the solve ran")

        monkeypatch.setattr(benchmark, "run_method", never)
        path = tmp_path / "missing" / "trace.csv"
        assert main(["solve", "--problem", "example2", "--method", "merson",
                     "--tol", "1e-2", "--trace", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert str(path) in lines[0]

    def test_trace_v_column_empty_without_control(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        assert main(["solve", "--problem", "example4", "--tol", "1e-2",
                     "--trace", str(path),
                     "--method", "asode3-nocontrol"]) == 0
        capsys.readouterr()
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(r[3] == "" for r in rows[1:])

    def test_config_file_merge_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = example4\n"
                       "\n"
                       "# dashes in keys normalize to underscores\n"
                       "t-end = 5\n"
                       "method = asode3-nocontrol\n"
                       "tol = 1e-2  # trailing comment\n")
        assert main(["solve", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert _grep(out, "method") == "asode3-nocontrol"
        assert _grep(out, "reached t") == "5"
        assert _grep(out, "tol") == "0.01"
        # an explicit flag wins over the file entry
        assert main(["solve", "--config", str(cfg),
                     "--method", "asode3"]) == 0
        out = capsys.readouterr().out
        assert _grep(out, "method") == "asode3"

    def test_config_unknown_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = example4\nbogus = 1\nworse = 2\n")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "unknown config keys: bogus, worse" in capsys.readouterr().err

    def test_config_duplicate_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = 1e-2\ntol = 1e-3\n")
        assert main(["solve", "--problem", "example4",
                     "--config", str(cfg)]) == 1
        assert "duplicate key" in capsys.readouterr().err

    def test_config_bad_value_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = example4\ntol = fast\n")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "expected a number" in capsys.readouterr().err

    def test_config_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "gone.cfg")]) == 1
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, what", [("--config", "config file"),
                                            ("--tol-file", "tolerance file")])
    def test_non_utf8_file_exits_one(self, flag, what, tmp_path, capsys):
        path = tmp_path / "bytes.cfg"
        path.write_bytes(b"\xff\xfe")
        assert main(["solve", "--problem", "example1", flag, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {what}: ")
        assert str(path) in err and err.count("\n") == 1

    def test_tol_file_matches_uniform_tolerance(self, tmp_path, capsys):
        assert main(["solve", "--problem", "example4", "--tol", "1e-2"]) == 0
        uniform_out = capsys.readouterr().out
        tol_file = tmp_path / "tols.txt"
        tol_file.write_text("0.01 0.01\n" * 4)
        assert main(["solve", "--problem", "example4",
                     "--tol-file", str(tol_file)]) == 0
        per_component_out = capsys.readouterr().out
        for key in ("phi_evals", "steps_accepted", "final state"):
            assert _grep(uniform_out, key) == _grep(per_component_out, key)

    def test_tol_file_wrong_row_count_exits_one(self, tmp_path, capsys):
        tol_file = tmp_path / "tols.txt"
        tol_file.write_text("0.01 0.01\n" * 3)
        assert main(["solve", "--problem", "example4",
                     "--tol-file", str(tol_file)]) == 1
        assert "4 components" in capsys.readouterr().err

    def test_t_end_override(self, capsys):
        assert main(["solve", "--problem", "example4", "--tol", "1e-2",
                     "--t-end", "1.0"]) == 0
        assert _grep(capsys.readouterr().out, "reached t") == "1"


class TestBench:
    @pytest.fixture
    def small_matrix(self, monkeypatch):
        cells = [benchmark.CellSpec("example4", 1e-2, "asode3"),
                 benchmark.CellSpec("example4", 1e-2, "merson")]
        monkeypatch.setattr(benchmark, "default_matrix", lambda: cells)
        return cells

    def test_bench_table_and_csv(self, small_matrix, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        assert main(["bench", "--csv", str(path)]) == 0
        out = capsys.readouterr().out
        assert "comparator fixed-step order check" in out
        assert "phi_evals" in out
        assert out.count(" ok") >= 2
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == benchmark.CSV_COLUMNS
        assert len(rows) == 3
        assert rows[1][:3] == ["example4", "0.01", "asode3"]
        assert rows[2][:3] == ["example4", "0.01", "merson"]

    def test_bench_csv_is_deterministic(self, small_matrix, tmp_path,
                                        capsys):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bench", "--csv", str(first)]) == 0
        assert main(["bench", "--csv", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_bench_failed_cell_exits_two(self, small_matrix, monkeypatch,
                                         capsys):
        def boom(*args, **kwargs):
            raise StepsizeUnderflow("stepsize collapsed")

        # serial execution keeps the patched integrator in this process
        monkeypatch.setenv("ASODE_THREADS", "1")
        monkeypatch.setattr(benchmark, "integrate", boom)
        assert main(["bench"]) == 2
        captured = capsys.readouterr()
        assert "FAIL(StepsizeUnderflow)" in captured.out
        assert "FAIL example4/0.01/asode3" in captured.err
        # the explicit comparator cell still ran and was reported
        assert "merson" in captured.out

    def test_bench_unwritable_csv_fails_before_any_cell(self, monkeypatch,
                                                        tmp_path, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the matrix ran")

        monkeypatch.setattr(benchmark, "run_matrix", never)
        monkeypatch.setattr(benchmark, "verify_comparator_orders", never)
        path = tmp_path / "missing" / "bench.csv"
        assert main(["bench", "--csv", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_bench_bad_thread_env_exits_one(self, small_matrix,
                                            monkeypatch, tmp_path, capsys):
        # a bad ASODE_THREADS used to be found only after the order check
        # had printed and the CSV path had been created
        monkeypatch.setenv("ASODE_THREADS", "abc")
        path = tmp_path / "bench.csv"
        assert main(["bench", "--csv", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ASODE_THREADS" in captured.err
        assert not path.exists()

    def test_bench_parallel_env(self, small_matrix, tmp_path, capsys):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("ASODE_THREADS", "1")
            assert main(["bench", "--csv", str(serial)]) == 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("ASODE_THREADS", "2")
            assert main(["bench", "--csv", str(parallel)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()


class TestOrderStudyCommand:
    def test_default_slopes_inside_bands(self, capsys):
        assert main(["order-study"]) == 0
        out = capsys.readouterr().out
        assert "problem: powerlaw" in out
        slopes = {}
        for line in out.splitlines():
            if line.endswith(tuple("0123456789")) and " slope: " in line:
                name, value = line.split(" slope: ")
                slopes[name] = float(value)
        assert 2.7 <= slopes["asode3"] <= 3.3
        assert 2.7 <= slopes["embedded-diff"] <= 3.3
        assert 3.7 <= slopes["merson"] <= 4.3

    def test_unknown_problem_exits_one(self, capsys):
        assert main(["order-study", "--problem", "nope"]) == 1
        assert "unknown problem" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        # powerlaw spans 2: h0 = 5 and 2.5 both cover it in one step
        (["--h0", "5"], "error: h0=5 is too large"),
        (["--h0", "inf"], "error: h0=inf is too large"),
        (["--problem", "example1", "--ref-tol", "inf"],
         "error: tolerances must be finite"),
        (["--h0", "1e-300"], "error: h0=1e-300 is too small"),
        # h0/8 underflows to zero
        (["--h0", "5e-324"], "error: h0=4.94066e-324 is too small"),
    ])
    def test_invalid_ladder_exits_one(self, flags, message, capsys):
        assert main(["order-study"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message)

    @pytest.mark.parametrize("problem", ["powerlaw", "example1"])
    @pytest.mark.parametrize("value, message", [
        ("inf", "tolerances must be finite"),
        ("nan", "expected a positive number"),
        ("0", "expected a positive number"),
    ])
    def test_bad_ref_tol_exits_one(self, problem, value, message, tmp_path,
                                   capsys):
        # one check in the converter, whether the problem needs a
        # reference run or not: powerlaw has a closed form, and its study
        # used to ignore an infinite value and exit 0
        assert main(["order-study", "--problem", problem,
                     "--ref-tol", value]) == 1
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"ref_tol = {value}\n")
        assert main(["order-study", "--problem", problem,
                     "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {message}, got {value!r}"] * 2


class TestStabilityRegionCommand:
    def test_csv_grid_round_trip(self, tmp_path, capsys):
        path = tmp_path / "region.csv"
        assert main(["stability-region", "--x-min", "-1", "--x-max", "0",
                     "--x-points", "3", "--z-min", "-2", "--z-max", "0",
                     "--z-points", "2", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"wrote {path}" in out
        assert "grid points have |R| <= 1" in out
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == ""
        xs = [float(v) for v in rows[0][1:]]
        zs = [float(r[0]) for r in rows[1:]]
        assert xs == [-1.0, -0.5, 0.0]
        assert zs == [-2.0, 0.0]
        grid = stability_region_scan(np.array(xs), np.array(zs))
        for i, row in enumerate(rows[1:]):
            for j, cell in enumerate(row[1:]):
                # 17 significant digits reproduce the double exactly
                assert float(cell) == grid[i, j]
        assert float(rows[2][3]) == 1.0  # the origin

    def test_stdout_default(self, capsys):
        assert main(["stability-region", "--x-points", "2",
                     "--z-points", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(",")
        assert "wrote" not in out

    def test_embedded_grid_differs_from_main(self, tmp_path, capsys):
        main_csv, emb_csv = tmp_path / "m.csv", tmp_path / "e.csv"
        args = ["stability-region", "--x-min", "-1", "--x-max", "-1",
                "--x-points", "1", "--z-min", "-3", "--z-max", "-3",
                "--z-points", "1"]
        assert main(args + ["--out", str(main_csv)]) == 0
        assert main(args + ["--which", "embedded",
                            "--out", str(emb_csv)]) == 0
        capsys.readouterr()
        main_val = float(list(csv.reader(open(main_csv)))[1][1])
        emb_val = float(list(csv.reader(open(emb_csv)))[1][1])
        assert main_val != emb_val

    def test_inverted_range_exits_one(self, capsys):
        assert main(["stability-region", "--x-min", "1",
                     "--x-max", "0"]) == 1
        assert "x_min" in capsys.readouterr().err

    @pytest.mark.parametrize("x_points, z_points", [
        ("100000000", "100000000"), ("1001", "1000"), ("1", "1000001"),
    ])
    def test_grid_beyond_the_bound_exits_one(self, x_points, z_points,
                                             monkeypatch, capsys):
        # the first grid used to end in numpy's _ArrayMemoryError; the
        # bound is checked before any grid array is made
        assert int(x_points) * int(z_points) > cli.REGION_MAX_POINTS

        def no_grid(*args, **kwargs):
            raise AssertionError("a grid array was made")

        monkeypatch.setattr(cli.np, "linspace", no_grid)
        assert main(["stability-region", "--x-points", x_points,
                     "--z-points", z_points]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: x_points * z_points = {int(x_points) * int(z_points)} "
            f"exceeds the grid bound {cli.REGION_MAX_POINTS}"]

    @pytest.mark.parametrize("key", ["x_min", "x_max", "z_min", "z_max"])
    def test_non_finite_bound_exits_one(self, key, tmp_path, capsys):
        flag = "--" + key.replace("_", "-")
        assert main(["stability-region", flag, "inf"]) == 1
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"{key} = nan\n")
        assert main(["stability-region", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: expected a finite number, got 'inf'",
                       "error: expected a finite number, got 'nan'"]


class TestCoeffsCommand:
    def test_prints_derived_values(self, tmp_path, capsys):
        path = tmp_path / "coeffs.csv"
        assert main(["coeffs", "--csv", str(path)]) == 0
        out = capsys.readouterr().out
        assert "design quartic roots:" in out
        with open(path, newline="") as fh:
            rows = {name: value for name, value in csv.reader(fh)}
        scheme = derive_scheme()
        embedded = derive_embedded(scheme)
        assert float(rows["a"]) == scheme.a
        assert float(rows["gamma"]) == scheme.gamma
        assert float(rows["p1"]) == scheme.p[0]
        assert float(rows["beta65"]) == scheme.beta6[4]
        assert float(rows["r5"]) == embedded.r[4]

    def test_alternate_parameter(self, capsys):
        assert main(["coeffs", "--a", "0.45"]) == 0
        pairs = dict(line.split() for line in
                     capsys.readouterr().out.splitlines()
                     if len(line.split()) == 2)
        assert pairs["a"] == "0.45000000000000001"

    def test_degenerate_parameter_exits_one(self, capsys):
        assert main(["coeffs", "--a", "1.0"]) == 1
        assert "must differ" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameter_exits_one_with_one_line(self, value,
                                                          capsys):
        assert main(["coeffs", "--a", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: parameter a = {float(value)} must be finite"]


class TestTopLevel:
    def test_no_subcommand_exits_one(self, capsys):
        assert main([]) == 1
        assert "a subcommand is required" in capsys.readouterr().err

    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "solve" in capsys.readouterr().out

    @pytest.mark.parametrize("command, flag", [
        (["solve", "--problem", "example4", "--tol", "1e-2"], "--trace"),
        (["coeffs"], "--csv"),
        (["stability-region", "--x-points", "2", "--z-points", "2"],
         "--out"),
    ])
    def test_unwritable_output_exits_one(self, command, flag, tmp_path,
                                         capsys):
        path = tmp_path / "missing" / "out.csv"
        assert main(command + [flag, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and str(path) in err[0]

    def test_unwritable_region_path_fails_before_the_scan(self, tmp_path,
                                                          monkeypatch,
                                                          capsys):
        def no_scan(*args):
            raise AssertionError("the grid was scanned")

        monkeypatch.setattr(cli, "stability_region_scan", no_scan)
        path = tmp_path / "missing" / "out.csv"
        assert main(["stability-region", "--out", str(path)]) == 1
        assert str(path) in capsys.readouterr().err
