"""Every output a refactor must keep, against its committed SHA-256 digest.

tests/golden/outputs.sha256 holds, in sha256sum's format, one digest per
output:

- NAME.txt, NAME.err and NAME.exit: the stdout, stderr and exit code
  ("CODE\\n") of each command NAME below, run in-process through
  cli.main with COLUMNS=80 (argparse wraps help text to it), no
  ASODE_THREADS unless the command sets it, and an empty directory as
  its working directory.  stdout leaves out its `wall_seconds:` line.
- every file the commands leave in that directory, by its name there:
  the solve traces, the coeffs and stability-region CSVs, and nothing
  else, so a file that must not be written (bench_bad_threads.csv)
  fails as an extra output.  The tolerance and config files the
  commands read are inputs, not outputs.
- sources/*.py: the generated code, the numpy path's stage function and,
  for n = 1..16, the float path's stage function and the Merson and
  RKF45 comparator steps.

The bench CSV has its own golden, tests/golden/bench.csv, which
test_acceptance's criterion 5 compares byte for byte.  A failure names
every differing, missing and extra output with its new golden line; a
change that means to move an output writes those lines into the golden
and states why.
"""

import contextlib
import hashlib
import io
import linecache
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import asode
from asode import cli, reference_rk, stepper

GOLDEN = pathlib.Path(__file__).parent / "golden" / "outputs.sha256"

# the files the commands read, written before any command runs
INPUTS = {
    "tol_1e-20.txt": "1e-20 1e-20\n" * 3,
    "tol_bad.txt": "1e-2 1e-2\n1e-2 x\n1e-2 1e-2\n",
    "tol_short.txt": "1e-2 1e-2\n1e-2 1e-2\n",
    "config_unknown.txt": "problem = example1\ncolour = red\n",
    "config_duplicate.txt": "problem = example1\ntol = 1e-2\ntol = 1e-3\n",
    "config_bad_value.txt": "problem = example1\ntol = x\n",
}


def _commands() -> list:
    """(name, argv) of each command, in the order they run."""
    def solve(name, *args):
        return name, ("solve",) + args + ("--trace", f"{name}.csv")

    def cells(problems, methods):
        return [solve(f"solve_{p}_{m}_{tol}", "--problem", p, "--method", m,
                      "--tol", tol)
                for p in problems for m in methods for tol in ("1e-2", "1e-4")]

    out = cells(("example1", "example2", "example3", "example4"),
                ("asode3", "asode3-nocontrol"))
    # a tolerance of 1e-20 drives the additive retry stepsize below h_min
    # (exit 2); the traces hold the steps accepted before
    out += [solve(f"solve_example1_{m}_1e-20", "--problem", "example1",
                  "--method", m, "--tol-file", "tol_1e-20.txt")
            for m in ("asode3", "asode3-nocontrol")]
    # the comparators take about 1.8 million steps per example2 cell
    out += cells(("example1", "example3", "example4"), ("merson", "rkf45"))
    out += [
        # a failed solve replaces an earlier run's trace with its own rows;
        # the earlier trace is kept as stale_trace_ok.csv
        ("stale_trace_ok", ("solve", "--problem", "example1", "--tol",
                            "1e-2", "--trace", "stale_trace.csv")),
        ("stale_trace_fail", ("solve", "--problem", "example1", "--tol-file",
                              "tol_1e-20.txt", "--trace", "stale_trace.csv")),
        ("coeffs", ("coeffs", "--csv", "coeffs.csv")),
        ("order_study", ("order-study",)),
        # exit 2: the Merson ladder diverges at h0 = 0.02
        ("order_study_example1", ("order-study", "--problem", "example1")),
        # exit 2: the additive ladder's stage matrix is singular
        ("order_study_example3", ("order-study", "--problem", "example3")),
        ("region_main", ("stability-region", "--which", "main", "--out",
                         "region_main.csv")),
        ("region_embedded", ("stability-region", "--which", "embedded",
                             "--out", "region_embedded.csv")),
        # far out on the stiff axis, where z**4 leaves the float range
        ("region_embedded_far", ("stability-region", "--which", "embedded",
                                 "--z-min=-1e78", "--z-max=-1e78",
                                 "--x-points", "1", "--z-points", "1")),
        # where the main factor's stages overflow: |R| reads inf
        ("region_main_far", ("stability-region", "--x-min", "1e200",
                             "--x-max", "1e200", "--x-points", "1",
                             "--z-points", "1")),
        # a powerlaw run whose state overflows, which exits 2
        ("solve_powerlaw_overflow", ("solve", "--problem", "powerlaw",
                                     "--tol", "1e300", "--t-end", "1e300")),
        ("help", ("--help",)),
    ]
    out += [(f"help_{c}", (c, "--help")) for c in cli._COMMANDS]
    # invalid input: each exits 1 with one line on stderr, before any work
    bad = [(f"bad_solve_tol_{tol}", ("solve", "--problem", "example1",
                                     "--tol", tol))
           for tol in ("0", "-1", "nan", "inf", "x")]
    bad += [(f"bad_solve_h0_{h0}", ("solve", "--problem", "example1", "--h0",
                                    h0))
            for h0 in ("0", "nan")]
    bad += [
        ("bad_solve_t_end", ("solve", "--problem", "example1", "--t-end",
                             "-1")),
        ("bad_solve_method", ("solve", "--problem", "example1", "--method",
                              "euler")),
        ("bad_solve_problem", ("solve", "--problem", "example9")),
        ("bad_solve_no_problem", ("solve",)),
    ]
    bad += [(f"bad_solve_config_{kind}", ("solve", "--config",
                                          f"config_{kind}.txt"))
            for kind in ("unknown", "duplicate", "bad_value")]
    bad += [(f"bad_solve_tol_file_{kind}", ("solve", "--problem", "example1",
                                            "--tol-file", f"tol_{kind}.txt"))
            for kind in ("bad", "short")]
    bad += [(f"bad_order_h0_{h0}", ("order-study", "--h0", h0))
            for h0 in ("0", "5")]
    bad += [
        ("bad_order_ref_tol", ("order-study", "--ref-tol", "inf")),
        ("bad_region_x_points", ("stability-region", "--x-points", "0")),
        ("bad_region_x_min", ("stability-region", "--x-min", "inf")),
        ("bad_region_inverted", ("stability-region", "--x-min", "1",
                                 "--x-max", "0")),
        # finite ends whose difference overflows
        ("bad_region_wide", ("stability-region", "--x-min=-1e308",
                             "--x-max=1e308")),
        ("bad_region_which", ("stability-region", "--which", "both")),
        ("bad_region_grid", ("stability-region", "--x-points", "2000",
                             "--z-points", "1000")),
    ]
    # 1e200: a**3 overflows
    bad += [(f"bad_coeffs_a_{a}", ("coeffs", "--a", a))
            for a in ("0", "nan", "1e200")]
    # an output path under a missing directory
    bad += [
        ("bad_solve_trace", ("solve", "--problem", "example4", "--trace",
                             "missing/trace.csv")),
        ("bad_region_out", ("stability-region", "--out",
                            "missing/region.csv")),
        ("bad_coeffs_csv", ("coeffs", "--csv", "missing/coeffs.csv")),
        ("bad_bench_csv", ("bench", "--csv", "missing/bench.csv")),
        # with ASODE_THREADS=x: prints nothing and writes no CSV
        ("bench_bad_threads", ("bench", "--csv", "bench_bad_threads.csv")),
    ]
    return out + bad


# ASODE_THREADS by command, where a command sets it
THREADS = {"bench_bad_threads": "x"}


def run_cli(argv) -> tuple:
    """(stdout, stderr, exit code) of cli.main(argv), in-process; the
    SystemExit of --help gives the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def _drop_wall_time(stdout: str) -> str:
    return "".join(line for line in stdout.splitlines(True)
                   if not line.startswith("wall_seconds:"))


def generated_sources() -> dict:
    """Each generated source by its name under sources/."""
    code = stepper._numpy_stages.__code__
    out = {"sources/numpy_stages.py":
           "".join(linecache.getlines(code.co_filename))}
    for n in range(1, 17):
        out[f"sources/float_stages_{n}.py"] = stepper._float_stages_source(
            n, f"_float_stages_{n}")
        for name, tableau in reference_rk.TABLEAUS.items():
            out[f"sources/{name}_step_{n}.py"] = reference_rk._step_source(
                tableau, n, f"_step_{name}_{n}")
    return out


def outputs(folder: pathlib.Path, monkeypatch) -> dict:
    """Every output by its golden name, as bytes, with folder as the
    commands' working directory."""
    monkeypatch.chdir(folder)
    monkeypatch.setenv("COLUMNS", "80")
    for name, text in INPUTS.items():
        (folder / name).write_text(text)
    out = {}
    for name, argv in _commands():
        if name in THREADS:
            monkeypatch.setenv("ASODE_THREADS", THREADS[name])
        else:
            monkeypatch.delenv("ASODE_THREADS", raising=False)
        stdout, stderr, code = run_cli(argv)
        out[f"{name}.txt"] = _drop_wall_time(stdout).encode()
        out[f"{name}.err"] = stderr.encode()
        out[f"{name}.exit"] = f"{code}\n".encode()
        if name == "stale_trace_ok":
            shutil.copy("stale_trace.csv", "stale_trace_ok.csv")
    for path in sorted(folder.rglob("*")):
        name = path.relative_to(folder).as_posix()
        if path.is_file() and name not in INPUTS:
            out[name] = path.read_bytes()
    for name, source in generated_sources().items():
        out[name] = source.encode()
    return out


def test_outputs_match_golden(tmp_path, monkeypatch):
    want = {}
    for line in GOLDEN.read_text().splitlines():
        digest, name = line.split("  ")
        want[name] = digest
    got = {name: hashlib.sha256(data).hexdigest()
           for name, data in outputs(tmp_path, monkeypatch).items()}
    lines = [f"missing: {name}" for name in sorted(set(want) - set(got))]
    lines += [f"{got[name]}  {name}" for name in sorted(got)
              if got[name] != want.get(name)]
    if lines:
        pytest.fail(
            f"{len(lines)} outputs differ from {GOLDEN.name} (a missing "
            "output's line goes; each other line is the new golden line of "
            "a differing or extra output):\n  " + "\n  ".join(lines),
            pytrace=False)


@pytest.mark.parametrize("argv", [
    ("--help",), ("solve", "--problem", "example1", "--tol", "0"),
], ids=["help", "bad_tol"])
def test_module_entry_point_matches_in_process_run(argv, monkeypatch):
    # the golden runs cli.main in-process; `python -m asode.cli` must
    # print the same bytes and exit with the same code
    monkeypatch.setenv("COLUMNS", "80")
    src = os.path.dirname(os.path.dirname(asode.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "asode.cli", *argv], capture_output=True,
        env=dict(os.environ, PYTHONPATH=src, COLUMNS="80"), timeout=60)
    stdout, stderr, code = run_cli(argv)
    assert (proc.stdout, proc.stderr, proc.returncode) \
        == (stdout.encode(), stderr.encode(), code)
