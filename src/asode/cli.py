"""Command-line front end.

Subcommands: solve (one problem, one method), bench (the full benchmark
matrix), order-study (fixed-step convergence slopes), stability-region
(|R| grid as CSV), coeffs (derived coefficient tables).

Every subcommand accepts plain flags plus an optional key=value config
file; flags override file entries, and unknown file keys are rejected.
Exit codes: 0 success, 1 usage or configuration error, 2 numerical
failure.  CSV output uses 17 significant digits so runs can be compared
bit-for-bit across implementations; wall-clock readings never enter CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import math
import sys
import time
from typing import Optional, Sequence

import numpy as np

from . import benchmark
from .analysis import stability_region_scan
from .coefficients import (
    DEFAULT_A,
    derive_embedded,
    derive_scheme,
    solve_design_quartic,
)
from .exceptions import DegenerateParameter, SolverError, UnknownProblem
from .problems import BUILTIN_NAMES, Tolerances, builtin
from .stepper import RunStatistics


class ConfigError(Exception):
    """Invalid command line, config file, or flag value."""


def _g17(x) -> str:
    return f"{float(x):.17g}"


def _conv_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _conv_finite_float(text: str) -> float:
    val = _conv_float(text)
    if not math.isfinite(val):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return val


def _conv_positive_float(text: str) -> float:
    val = _conv_float(text)
    if not val > 0.0:
        raise ConfigError(f"expected a positive number, got {text!r}")
    return val


def _conv_tolerance(text: str) -> float:
    val = _conv_positive_float(text)
    if val == math.inf:
        raise ConfigError(f"tolerances must be finite, got {text!r}")
    return val


def _conv_positive_int(text: str) -> int:
    try:
        val = int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None
    if val < 1:
        raise ConfigError(f"expected a positive integer, got {text!r}")
    return val


def _conv_method(text: str) -> str:
    if text not in benchmark.METHODS:
        raise ConfigError(f"unknown method {text!r}; "
                          f"choose from {', '.join(benchmark.METHODS)}")
    return text


def _conv_which(text: str) -> str:
    if text not in ("main", "embedded"):
        raise ConfigError(f"unknown stability function {text!r}; "
                          f"choose 'main' or 'embedded'")
    return text


# per-subcommand config schema, key -> (converter, default, help): each key
# is a --flag with that help line (None: none) and a config-file key, and
# its converter checks the flag's value and the file's value alike
_SOLVE_SCHEMA = {
    "problem": (str, None, f"one of: {', '.join(BUILTIN_NAMES)}"),
    "method": (_conv_method, "asode3",
               f"one of: {', '.join(benchmark.METHODS)}"),
    "tol": (_conv_tolerance, 1e-4, "uniform absolute and relative tolerance"),
    "tol_file": (str, None, "per-component tolerances, one 'atol rtol' "
                            "pair per line (overrides --tol)"),
    "h0": (_conv_positive_float, None,
           "initial stepsize (default: the problem's)"),
    "t_end": (_conv_float, None, "override the problem's end time"),
    "trace": (str, None, "write per-step CSV trace to this path"),
}
_BENCH_SCHEMA = {
    "csv": (str, None, "also write the matrix as CSV to this path"),
}
_ORDER_SCHEMA = {
    "problem": (str, "powerlaw", None),
    "h0": (_conv_positive_float, 0.02,
           "coarsest step of the h, h/2, h/4, h/8 ladder"),
    "ref_tol": (_conv_tolerance, 1e-10, "tolerance of the reference run for "
                "problems without a closed-form solution"),
}
_REGION_SCHEMA = {
    "x_min": (_conv_finite_float, -3.0, None),
    "x_max": (_conv_finite_float, 0.5, None),
    "x_points": (_conv_positive_int, 71, None),
    "z_min": (_conv_finite_float, -5.0, None),
    "z_max": (_conv_finite_float, 1.0, None),
    "z_points": (_conv_positive_int, 121, None),
    "which": (_conv_which, "main", "'main' or 'embedded'"),
    "out": (str, None, "CSV path (default: stdout)"),
}
# most grid points stability-region evaluates, x_points * z_points; the
# default grid has 71 * 121 = 8591, and a point costs about 25 us
REGION_MAX_POINTS = 1_000_000
_COEFFS_SCHEMA = {
    "a": (_conv_float, DEFAULT_A,
          "free scheme parameter (default: the L-stable design root)"),
    "csv": (str, None, "also write name,value rows to this path"),
}


def _read_lines(path: str, what: str) -> list:
    """The lines of a UTF-8 text file, else ConfigError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {what}: {path!r} is not UTF-8 text "
                          f"({exc.reason} at byte {exc.start})") from None


def _load_config_file(path: str) -> dict:
    raw_lines = _read_lines(path, "config file")
    entries = {}
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, "
                              f"got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    return entries


def _resolve(args: argparse.Namespace, schema: dict) -> dict:
    """Merge flag values over config-file entries over schema defaults."""
    file_entries = (_load_config_file(args.config)
                    if getattr(args, "config", None) else {})
    unknown = sorted(set(file_entries) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    cfg = {}
    for key, (convert, default, _) in schema.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            cfg[key] = flag_value
        elif key in file_entries:
            cfg[key] = convert(file_entries[key])
        else:
            cfg[key] = default
    return cfg


def _load_tol_file(path: str, n: int) -> Tolerances:
    """Per-component tolerances: one 'atol rtol' pair per line."""
    rows = [ln.split("#", 1)[0].split()
            for ln in _read_lines(path, "tolerance file")]
    rows = [r for r in rows if r]
    if len(rows) != n:
        raise ConfigError(f"tolerance file has {len(rows)} rows but the "
                          f"problem has {n} components")
    try:
        pairs = [(float(r[0]), float(r[1])) for r in rows if len(r) == 2]
        if len(pairs) != len(rows):
            raise ValueError("row width")
        return Tolerances(atol=np.array([p[0] for p in pairs]),
                          rtol=np.array([p[1] for p in pairs]))
    except ValueError as exc:
        raise ConfigError(
            f"tolerance file rows must be 'atol rtol' pairs ({exc})"
        ) from None


def _claim_output(path: Optional[str]) -> None:
    """Open path now (None: stdout), so an unwritable one fails early."""
    if path is not None:
        open(path, "a").close()


def _write_csv(path: Optional[str], header: Sequence, rows) -> None:
    """header, then each of rows, as CSV to path (None: stdout)."""
    with (open(path, "w", newline="") if path is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_solve(cfg: dict) -> int:
    if cfg["problem"] is None:
        raise ConfigError("--problem is required (flag or config file)")
    overrides = {key: cfg[key] for key in ("t_end", "h0")
                 if cfg[key] is not None}
    try:
        # SplitProblem and Tolerances check the span, h0 and tolerances
        problem = dataclasses.replace(builtin(cfg["problem"]), **overrides)
        if cfg["tol_file"] is not None:
            tol = _load_tol_file(cfg["tol_file"], problem.n)
        else:
            tol = Tolerances.uniform(cfg["tol"], problem.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _claim_output(cfg["trace"])

    trace = [] if cfg["trace"] is not None else None
    start = time.perf_counter()
    try:
        t, y, stats = benchmark.run_method(cfg["method"], problem, tol,
                                           RunStatistics(), trace)
        wall = time.perf_counter() - start
    finally:
        # a failed run's trace holds the steps it accepted
        if trace is not None:
            _write_csv(cfg["trace"], ["t", "h", "err", "v"]
                       + [f"y{i}" for i in range(1, problem.n + 1)],
                       ([_g17(t), _g17(h), _g17(err),
                         "" if v is None else _g17(v)] + [_g17(c) for c in y]
                        for t, h, err, v, y in trace))
    summary = [("problem", cfg["problem"]), ("method", cfg["method"]),
               ("tol", f"{cfg['tol']:g}" if cfg["tol_file"] is None
                else f"per-component from {cfg['tol_file']}"),
               ("reached t", _g17(t)),
               ("final state", " ".join(_g17(c) for c in y)),
               ("phi_evals", stats.phi_evals), ("g_evals", stats.g_evals),
               ("factorizations", stats.factorizations),
               ("solves", stats.linear_solves),
               ("steps_accepted", stats.steps_accepted),
               ("steps_rejected", stats.steps_rejected),
               ("wall_seconds", f"{wall:.3f}")]
    if trace is not None:
        summary.append(("trace", cfg["trace"]))
    for label, value in summary:
        print(f"{label + ':':<17}{value}")
    return 0


def cmd_bench(cfg: dict) -> int:
    try:
        benchmark._worker_cap(1)  # reads ASODE_THREADS before any output
    except ValueError as exc:     # bad ASODE_THREADS is a config problem
        raise ConfigError(str(exc)) from None
    _claim_output(cfg["csv"])
    slopes = benchmark.verify_comparator_orders()
    print("comparator fixed-step order check: "
          + ", ".join(f"{name} slope {slope:.3f}"
                      for name, slope in sorted(slopes.items())))
    results = benchmark.run_matrix()
    print(benchmark.format_table(results))
    if cfg["csv"] is not None:
        _write_csv(cfg["csv"], benchmark.CSV_COLUMNS,
                   benchmark.csv_rows(results))
        print(f"wrote {cfg['csv']}")
    failed = [r for r in results if not r.ok]
    for r in failed:
        print(f"FAIL {r.problem}/{r.tol:g}/{r.method}: {r.error}",
              file=sys.stderr)
    return 2 if failed else 0


def cmd_order_study(cfg: dict) -> int:
    try:
        study = benchmark.order_study(cfg["problem"], cfg["h0"],
                                      cfg["ref_tol"])
    except ValueError as exc:
        # an h0 too large or too small for the span
        raise ConfigError(str(exc)) from None
    methods = tuple(study.errors)
    print(f"problem: {study.problem}")
    print("h".ljust(12) + "".join(m.rjust(16) for m in methods))
    for i, h in enumerate(study.hs):
        print(f"{h:<12g}" + "".join(
            f"{study.errors[m][i]:>16.6e}" for m in methods))
    for m in methods:
        print(f"{m} slope: {study.slopes[m]:.3f}")
    return 0


def cmd_stability_region(cfg: dict) -> int:
    for axis in "xz":
        low, high = cfg[f"{axis}_min"], cfg[f"{axis}_max"]
        if not low <= high:
            raise ConfigError(f"{axis}_min must not exceed {axis}_max")
        # finite ends this far apart would make inf grid points
        if high - low == math.inf:
            raise ConfigError(f"{axis}_max - {axis}_min overflows the "
                              f"float range")
    points = cfg["x_points"] * cfg["z_points"]
    if points > REGION_MAX_POINTS:
        raise ConfigError(f"x_points * z_points = {points} exceeds the "
                          f"grid bound {REGION_MAX_POINTS}")
    out = cfg["out"] or None      # --out '' means stdout too
    _claim_output(out)
    xs = np.linspace(cfg["x_min"], cfg["x_max"], cfg["x_points"])
    zs = np.linspace(cfg["z_min"], cfg["z_max"], cfg["z_points"])
    grid = stability_region_scan(xs, zs, cfg["which"])
    _write_csv(out, [""] + [_g17(x) for x in xs],
               ([_g17(z)] + [_g17(v) for v in row]
                for z, row in zip(zs, grid)))
    inside = int(np.count_nonzero(grid <= 1.0))
    if out is not None:
        print(f"wrote {out}")
        print(f"{inside} of {grid.size} grid points have |R| <= 1")
    return 0


def cmd_coeffs(cfg: dict) -> int:
    scheme = derive_scheme(cfg["a"])
    embedded = derive_embedded(scheme)
    _claim_output(cfg["csv"])
    rows = [("a", scheme.a), ("gamma", scheme.gamma)]
    rows += [(f"p{i}", v) for i, v in enumerate(scheme.p, start=1)]
    rows += [("alpha42", scheme.alpha4[1]), ("alpha43", scheme.alpha4[2]),
             ("beta42", scheme.beta4[1]), ("beta43", scheme.beta4[2]),
             ("beta63", scheme.beta6[2]), ("beta64", scheme.beta6[3]),
             ("beta65", scheme.beta6[4])]
    rows += [(f"r{i}", v) for i, v in enumerate(embedded.r, start=1)]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {_g17(value)}")
    print(f"{'design quartic roots:':<{width}}  "
          + " ".join(_g17(r) for r in solve_design_quartic().roots))
    if cfg["csv"] is not None:
        _write_csv(cfg["csv"], ["name", "value"],
                   ([name, _g17(value)] for name, value in rows))
        print(f"wrote {cfg['csv']}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Routes argparse usage errors to exit code 1 instead of 2."""

    def error(self, message):
        raise ConfigError(message)


def _add_flags(parser: argparse.ArgumentParser, schema: dict) -> None:
    """One flag per schema key, converted by that key's schema converter.

    A ConfigError raised by a converter passes through argparse unchanged.
    """
    for key, (convert, _, help_text) in schema.items():
        parser.add_argument("--" + key.replace("_", "-"), default=None,
                            help=help_text, type=convert)
    parser.add_argument("--config", default=None,
                        help="key=value file; flags override it")


# subcommand name -> (summary, command, schema), in --help order
_COMMANDS = {
    "solve": ("integrate one built-in problem", cmd_solve, _SOLVE_SCHEMA),
    "bench": ("run the full benchmark matrix", cmd_bench, _BENCH_SCHEMA),
    "order-study": ("fixed-step convergence slopes", cmd_order_study,
                    _ORDER_SCHEMA),
    "stability-region": ("|R| over an (x, z) grid as CSV",
                         cmd_stability_region, _REGION_SCHEMA),
    "coeffs": ("derived scheme and estimator coefficients", cmd_coeffs,
               _COEFFS_SCHEMA),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="asode",
                     description="Additive third-order solver for stiff "
                                 "split systems, with benchmark and "
                                 "analysis commands.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (summary, _, schema) in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=summary), schema)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 1
        _, command, schema = _COMMANDS[args.command]
        return command(_resolve(args, schema))
    except (ConfigError, UnknownProblem, DegenerateParameter, OSError) as exc:
        # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
