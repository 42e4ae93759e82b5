"""Emitters and errors shared by the generated functions: the additive
attempt's two renderings of stepper._STAGE_TABLE (the float path's
straight-line function from stepper._float_stages_source, and the numpy
path's stepper._numpy_stages, compiled from the table's lines as they
stand) and the comparator steps (reference_rk._step_source).  An emitter
writes lines into a generator's emit (a list's append).  Generated code
looks its names up in the globals of its module, which imports the
errors below.  The array paths (stepper._numpy_stages and
reference_rk._rk_step_array) check each right-hand side's return with
_stage_value, by the same rule and messages; the generated functions
unpack each return (_emit_rhs_call), and guard_not_numbers turns a
TypeError from their own arithmetic into _not_numbers().
"""

from __future__ import annotations

import linecache
from typing import Callable

import numpy as np

from .exceptions import DimensionMismatch, ZeroToleranceDenominator


def _not_numbers() -> DimensionMismatch:
    """The error for a state that holds items which are no numbers: they
    came from the right-hand side (an (n, 1) column, for instance)."""
    return DimensionMismatch("right-hand side returned components that "
                             "are not numbers")


def _zero_denominator() -> ZeroToleranceDenominator:
    return ZeroToleranceDenominator(
        "atol + rtol*|y| vanished for some component")


def _wrong_length(k, n: int) -> DimensionMismatch:
    """The error for a right-hand side that returned k, not n items."""
    try:
        got = f"{len(k)} components"
    except TypeError:
        got = f"a {type(k).__name__}"
    return DimensionMismatch(f"right-hand side returned {got} for a state "
                             f"of {n}")


def _n_items(k, n: int):
    """k when it is a sequence of n items, else _wrong_length's error:
    the rule the generated functions apply by unpacking."""
    try:
        if len(k) == n:
            return k
    except TypeError:
        pass
    raise _wrong_length(k, n)


def _stage_value(f: Callable, u, n: int) -> np.ndarray:
    """f(u) as a float64 array of n items: _n_items' rule and messages
    first, then anything but n numbers raises _not_numbers().  The array
    paths of both solver families check every right-hand side with it."""
    k = _n_items(f(u), n)
    try:
        k = np.asarray(k, dtype=float)
    except (TypeError, ValueError):
        raise _not_numbers() from None
    if k.shape != (n,):
        raise _not_numbers()
    return k


def each(fmt: str, n: int) -> str:
    """fmt formatted for every component m < n, as "x_0, x_1, ..., "."""
    return "".join(fmt.format(m=m) + ", " for m in range(n))


def emit_each(emit: Callable, fmt: str, n: int,
              indent: str = "    ") -> None:
    """Emit the line fmt for every component m < n."""
    for m in range(n):
        emit(indent + fmt.format(m=m))


# the line that _emit_rhs_call opens with, and guard_not_numbers finds
_RHS_CALL = "    k = "


def _emit_rhs_call(emit: Callable, call: str, out: str, n: int) -> None:
    """Emit generated code that calls a right-hand side and unpacks it.

    The lines are `k = call`, then k unpacked into the locals out_0, ...,
    out_<n-1>.  A k that is not a sequence of n items raises
    _wrong_length's DimensionMismatch.
    """
    emit(f"{_RHS_CALL}{call}")
    emit("    try:")
    emit(f"        {each(out + '_{m}', n)}= k")
    emit("    except (TypeError, ValueError):")
    emit(f"        raise _wrong_length(k, {n}) from None")


def emit_finite(emit: Callable, names: list,
                on_type_error: str | None = None) -> None:
    """Emit `finite = ` math.isfinite of every local in names, in order;
    an item that is no number runs the statement on_type_error, or with
    None raises the TypeError that guard_not_numbers turns into
    _not_numbers()."""
    emit("    isfinite = math.isfinite")
    indent = "    " if on_type_error is None else "        "
    test = f"{indent}finite = (" + f"\n{indent}          and ".join(
        f"isfinite({name})" for name in names) + ")"
    if on_type_error is None:
        emit(test)
    else:
        emit("    try:")
        emit(test)
        emit("    except TypeError:")
        emit(f"        {on_type_error}")


def emit_denominators(emit: Callable, n: int, indent: str) -> None:
    """Emit den_m = atol_m + rtol_m*|yn_m| for every component, from the
    sequences atol and rtol, and the zero-denominator error."""
    emit(f"{indent}{each('at_{m}', n)}= atol")
    emit(f"{indent}{each('rt_{m}', n)}= rtol")
    emit_each(emit, "den_{m} = at_{m} + rt_{m} * abs(yn_{m})", n, indent)
    emit(f"{indent}if " + " or ".join(f"den_{m} == 0.0" for m in range(n))
         + ":")
    emit(f"{indent}    raise _zero_denominator()")


def emit_max(emit: Callable, out: str, fmt: str, n: int,
             indent: str = "    ", start: str | None = None) -> None:
    """Emit out = the largest of fmt over the components: with start None
    by np.max's rule (from item 0, a later item wins when greater or NaN,
    and nothing replaces a NaN), else by the builtin's from out = start
    (a later item wins only when greater)."""
    better = f"q > {out}" if start else f"not q <= {out} and {out} == {out}"
    emit(f"{indent}{out} = {start or fmt.format(m=0)}")
    for m in range(0 if start else 1, n):
        emit(f"{indent}q = {fmt.format(m=m)}")
        emit(f"{indent}if {better}:")
        emit(f"{indent}    {out} = q")


def guard_not_numbers(lines: list) -> str:
    """The source of the generated function whose lines these are, with
    every line from its first right-hand-side call on in one try block.

    A TypeError there comes from the function's own arithmetic on items
    that are no numbers, and raises _not_numbers(), unless it came from a
    call line: a TypeError raised inside the right-hand side, or by
    calling it, propagates unchanged.  The block costs its `try` line's
    one NOP per call until it catches.
    """
    first = next(i for i, line in enumerate(lines)
                 if line.startswith(_RHS_CALL))
    source = lines[:first] + ["    try:"]
    source += ["    " + line for line in "\n".join(lines[first:]).split("\n")]
    calls = tuple(number for number, line in enumerate(source, start=1)
                  if line.startswith("    " + _RHS_CALL))
    source += ["    except TypeError as exc:",
               f"        if exc.__traceback__.tb_lineno in {calls}:",
               "            raise",
               "        raise _not_numbers() from None"]
    return "\n".join(source) + "\n"


def _compile_generated(source: str, name: str, filename: str,
                       scope: dict) -> Callable:
    """Compile source and return its function called name, with scope as
    its globals; linecache holds the source under filename, so tracebacks
    and profilers show the generated lines."""
    namespace = {}
    exec(compile(source, filename, "exec"), scope, namespace)
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    return namespace[name]
