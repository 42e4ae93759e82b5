"""Per-layer tracing from outside the package: self time and call counts.

The layers are the package's modules.  A traced pass wraps the calls into
each layer, either at the benchmark's own call site (the solver entry points
and the problem callables it hands over) or by rebinding the name a module
looks up at call time.  Nothing under src/ is edited, and the original
bindings are restored when the traced pass ends.

A span's self time is its duration minus the time of the spans it
encloses, so the self times of all layers add up to the time spent inside
the outermost wrapped calls.  A name that a later version of the package no
longer has is reported as an absent layer instead of failing the run.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

LAYERS = (
    "problems.rhs",
    "problems.jac",
    "linalg.factor",
    "linalg.solve",
    "stepper.stages",
    "stepper.control",
    "stepper.probe",
    "reference_rk.step",
    "reference_rk.control",
)

# (module, attribute looked up at call time, layer)
_MODULE_PATCHES = (
    ("stepper", "_stages", "stepper.stages"),
    ("stepper", "attempt_step", "stepper.control"),
    ("stepper", "stability_estimate", "stepper.probe"),
    ("stepper", "factor", "linalg.factor"),
    ("reference_rk", "_rk_step_full", "reference_rk.step"),
)


def factor_cost(B) -> tuple:
    """(flops, bytes) computed by one factorization of D = E - a*h*B.

    Dense: forming D (2n^2 flops) plus LU ((2/3)n^3); bytes are one read
    of B, one write of D and one write of the LU factors (3 * 8n^2).
    Diagonal: 1 - a*h*b and its reciprocal (3n flops); one read of b and
    one write of the reciprocals (2 * 8n bytes).
    """
    values = getattr(B, "values", None)
    if values is None:
        return 0.0, 0.0
    n = values.shape[0]
    if values.ndim == 2:
        return 2.0 * n * n + 2.0 * n ** 3 / 3.0, 24.0 * n * n
    return 3.0 * n, 16.0 * n


class Tracer:
    """Accumulates call counts and self time per layer."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.flops = 0.0
        self.bytes = 0.0
        # child-time accumulators of the open spans; the bottom entry
        # collects the duration of every outermost span
        self._stack = [0.0]
        self.absent = []

    def wrap(self, layer: str, fn):
        calls = self.calls
        self_s = self.self_s
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                self_s[layer] += dt - child
                calls[layer] += 1

        return traced

    def wrap_factor(self, fn):
        traced = self.wrap("linalg.factor", fn)

        def counted(B, *args, **kwargs):
            flops, nbytes = factor_cost(B)
            self.flops += flops
            self.bytes += nbytes
            return traced(B, *args, **kwargs)

        return counted

    @property
    def spanned_s(self) -> float:
        """Total duration of the outermost spans (sum of all self times)."""
        return self._stack[0]

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.flops = self.bytes = 0.0
        self._stack[:] = [0.0]

    @contextlib.contextmanager
    def installed(self, package):
        """Rebind the package's internal names to traced wrappers."""
        saved = []
        present = set()
        try:
            for module_name, attr, layer in _MODULE_PATCHES:
                module = getattr(package, module_name, None)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                wrapped = (self.wrap_factor(fn) if layer == "linalg.factor"
                           else self.wrap(layer, fn))
                saved.append((module, attr, fn))
                setattr(module, attr, wrapped)
                present.add(layer)
            base = getattr(getattr(package, "linalg", None), "Factorization",
                           None)
            for cls in (base.__subclasses__() if base is not None else ()):
                fn = cls.__dict__.get("solve")
                if fn is None:
                    continue
                saved.append((cls, "solve", fn))
                setattr(cls, "solve", self.wrap("linalg.solve", fn))
                present.add("linalg.solve")
            # the remaining layers are wrapped at the benchmark's call sites
            present.update(("problems.rhs", "problems.jac", "stepper.control",
                            "reference_rk.control"))
            self.absent = [layer for layer in LAYERS if layer not in present]
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
