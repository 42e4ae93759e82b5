"""Split problem definitions and the built-in benchmark set.

A problem is stored in split form y' = phi(y) + g(y) together with a
Jacobian approximation provider for the stiff part.  Splits are built
from an unsplit right-hand side f and a matrix provider B via

    g(y) = B(y) @ y,        phi(y) = f(y) - B(y) @ y,

so phi + g reproduces f exactly at every state regardless of how crude
B is.  The four stiff chemistry-type benchmark systems use the diagonal
of the analytic Jacobian as B; a fifth, mildly stiff problem with a
closed-form solution backs convergence-order studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .exceptions import UnknownProblem
from .linalg import DiagonalMatrix, JacobianApprox


@dataclass(frozen=True, eq=False)
class Tolerances:
    """Per-component absolute and relative error tolerances.

    atol and rtol are read-only copies, so the tuples of floats taken
    from them once at construction (for_state, for the stepper's float
    path and the comparators) always match them.
    """

    atol: np.ndarray
    rtol: np.ndarray

    def __post_init__(self):
        atol = np.array(self.atol, dtype=float)
        rtol = np.array(self.rtol, dtype=float)
        if atol.ndim != 1 or rtol.ndim != 1 or atol.shape != rtol.shape:
            raise ValueError("atol and rtol must be 1-D arrays of equal length")
        if atol.size == 0:
            raise ValueError("tolerances need at least one component")
        if not (np.all(np.isfinite(atol)) and np.all(np.isfinite(rtol))):
            raise ValueError("tolerances must be finite")
        if np.any(atol < 0.0) or np.any(rtol < 0.0):
            raise ValueError("tolerances must be non-negative")
        if np.any((atol == 0.0) & (rtol == 0.0)):
            raise ValueError("some component has atol = rtol = 0")
        atol.setflags(write=False)
        rtol.setflags(write=False)
        object.__setattr__(self, "atol", atol)
        object.__setattr__(self, "rtol", rtol)
        object.__setattr__(self, "_lists", (tuple(atol.tolist()),
                                            tuple(rtol.tolist())))

    def for_state(self, n: int) -> tuple:
        """(atol, rtol) as tuples of Python floats, which cannot be
        changed, for the float path and the comparators; ValueError
        unless the tolerances have n components."""
        if len(self.atol) != n:
            raise ValueError("tolerance length does not match the state")
        return self._lists

    @classmethod
    def uniform(cls, tol: float, n: int) -> "Tolerances":
        """Same scalar tolerance for every component, absolute and relative."""
        return cls(atol=np.full(n, float(tol)), rtol=np.full(n, float(tol)))


@dataclass(frozen=True, eq=False)
class SplitProblem:
    """An autonomous initial value problem in split form.

    phi and g map a state vector to an N-vector; jac maps a state to the
    Jacobian approximation B used for the stage matrix.  full is the
    unsplit right-hand side (phi + g combined into one call): it takes a
    sequence of n floats and returns a sequence of n numbers, and
    receives a tuple on the stepper's float path and in the comparators,
    an array on the numpy path.  jac receives an array on both paths.
    exact, when present, is the closed-form solution t -> y used as an
    order-study reference.  y0, t0, t_end and h0 pass check_start, and
    y0 is kept as the read-only copy it returns.
    """

    name: str
    n: int
    phi: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], JacobianApprox]
    full: Callable[[Sequence[float]], Sequence[float]]
    y0: np.ndarray
    t0: float
    t_end: float
    h0: float
    exact: Optional[Callable[[float], np.ndarray]] = field(default=None)

    def __post_init__(self):
        y0 = check_start(self.y0, self.t0, self.t_end, self.h0)
        if y0.shape != (self.n,):
            raise ValueError(f"y0 shape {y0.shape} != ({self.n},)")
        object.__setattr__(self, "y0", y0)


def check_start(y0, t0: float, t_end: float, h0: float) -> np.ndarray:
    """y0 as a read-only copy, once y0 is a non-empty 1-D sequence of
    finite numbers, t0 < t_end with t_end - t0 finite and h0 > 0; else
    ValueError.  SplitProblem and rk_integrate both start here."""
    y0 = np.array(y0, dtype=float)
    if y0.ndim != 1 or y0.size == 0:
        raise ValueError(f"y0 must be 1-D with at least one component, "
                         f"got shape {y0.shape}")
    if not np.all(np.isfinite(y0)):
        raise ValueError("y0 must be finite")
    # a finite t_end - t0 leaves neither end infinite
    if not (t0 < t_end and math.isfinite(t_end - t0)):
        raise ValueError("t_end must exceed t0, and t0, t_end and "
                         "t_end - t0 must be finite")
    if not h0 > 0.0:
        raise ValueError("h0 must be positive")
    y0.setflags(write=False)
    return y0


def make_split(f: Callable, B_provider: Callable) -> tuple[Callable, Callable]:
    """Build the exact split (phi, g) of f induced by the matrix provider."""

    def g(y):
        y = np.asarray(y, dtype=float)
        return B_provider(y).matvec(y)

    def phi(y):
        y = np.asarray(y, dtype=float)
        return np.asarray(f(y), dtype=float) - B_provider(y).matvec(y)

    return phi, g


# -- reaction kinetics with a fast third component ---------------------------

def _ex1_f(y):
    y1, y2, y3 = y
    q = 1000.0 * y1 * y3
    r = 2500.0 * y2 * y3
    return (-0.013 * y1 - q, -r, -0.013 * y1 - q - r)


def _ex1_jac(y):
    y1, y2, y3 = y.tolist()
    return DiagonalMatrix((
        -0.013 - 1000.0 * y3,
        -2500.0 * y3,
        -1000.0 * y1 - 2500.0 * y2,
    ))


# -- oscillating chemical reaction -------------------------------------------

def _ex2_f(y):
    y1, y2, y3 = y
    return (77.27 * (y2 - y1 * y2 + y1 - 8.375e-6 * y1 * y1),
            (-y2 - y1 * y2 + y3) / 77.27,
            0.161 * (y1 - y3))


def _ex2_jac(y):
    y1, y2, _ = y.tolist()
    return DiagonalMatrix((
        77.27 * (1.0 - y2 - 1.675e-5 * y1),
        (-1.0 - y1) / 77.27,
        -0.161,
    ))


# -- autocatalytic kinetics with quadratic loss -------------------------------

def _ex3_f(y):
    y1, y2, y3 = y
    return (-0.04 * y1 + 0.01 * y2 * y3,
            400.0 * y1 - 100.0 * y2 * y3 - 3000.0 * y2 * y2,
            30.0 * y2 * y2)


def _ex3_jac(y):
    _, y2, y3 = y.tolist()
    return DiagonalMatrix((
        -0.04,
        -100.0 * y3 - 6000.0 * y2,
        0.0,
    ))


# -- four-component reaction with quadratic coupling --------------------------

def _ex4_f(y):
    y1, y2, y3, y4 = y
    q = 100.0 * y1 * y2
    s = y2 * y2
    return (y3 - q,
            y3 + 2.0 * y4 - q - 2.0e4 * s,
            -y3 + q,
            -y4 + 1.0e4 * s)


def _ex4_jac(y):
    y1, y2, _, _ = y.tolist()
    return DiagonalMatrix((
        -100.0 * y2,
        -100.0 * y1 - 4.0e4 * y2,
        -1.0,
        -1.0,
    ))


# -- smooth mildly stiff problem with closed-form solution --------------------
#
# y1 relaxes quickly toward the square of the slowly decaying y2; started
# on the manifold y1 = y2^2 the solution is (exp(-2t), exp(-t)).  The
# relaxation rate depends on the state, so the Jacobian diagonal is not
# constant along the trajectory.

_SMOOTH_L = 50.0


def _smooth_f(y):
    y1, y2 = y
    s = y2 * y2
    return (-(_SMOOTH_L + y2) * (y1 - s) - 2.0 * s, -y2)


def _smooth_jac(y):
    return DiagonalMatrix((-(_SMOOTH_L + float(y[1])), -1.0))


def _smooth_exact(t):
    return np.array([math.exp(-2.0 * t), math.exp(-t)])


# -- nonstiff nonlinear problem with algebraic decay --------------------------
#
# Started at (1, 1) the solution is ((1+2t)^{-1/2}, (1+2t)^{-1}).  Nothing
# here is stiff, so fixed-step comparator ladders around h = 0.02 sit in
# their asymptotic regime; on the relaxation problem above they do not,
# because a strongly damped component's global error keeps the local
# order (the per-step defect is wiped, not accumulated).


def _powerlaw_f(y):
    y1, y2 = y
    return (-y1 ** 3, -2.0 * y1 * y1 * y2)


def _powerlaw_jac(y):
    # y[0] is a numpy scalar: a state that overflows gives inf here,
    # without a warning
    with np.errstate(over="ignore"):
        return DiagonalMatrix(np.array([-3.0 * y[0] ** 2, -2.0 * y[0] ** 2]))


def _powerlaw_exact(t):
    w = 1.0 + 2.0 * t
    return np.array([w ** -0.5, 1.0 / w])


# name -> (f, jac, y0, (t0, t_end), h0, exact or None)
_REGISTRY = {
    "example1": (_ex1_f, _ex1_jac, (1.0, 1.0, 0.0), (0.0, 50.0), 2.9e-4,
                 None),
    "example2": (_ex2_f, _ex2_jac, (4.0, 1.1, 4.0), (0.0, 300.0), 2e-3,
                 None),
    "example3": (_ex3_f, _ex3_jac, (1.0, 0.0, 0.0), (0.0, 40.0), 1e-5,
                 None),
    "example4": (_ex4_f, _ex4_jac, (1.0, 1.0, 0.0, 0.0), (0.0, 20.0),
                 2.5e-5, None),
    "smooth": (_smooth_f, _smooth_jac, (1.0, 1.0), (0.0, 2.0), 1e-3,
               _smooth_exact),
    "powerlaw": (_powerlaw_f, _powerlaw_jac, (1.0, 1.0), (0.0, 2.0), 1e-2,
                 _powerlaw_exact),
}

BUILTIN_NAMES = tuple(sorted(_REGISTRY))


def builtin(name: str) -> SplitProblem:
    """Construct a built-in problem by name.

    Raises UnknownProblem for names outside BUILTIN_NAMES.
    """
    try:
        f, jac, y0, (t0, t_end), h0, exact = _REGISTRY[name]
    except KeyError:
        raise UnknownProblem(
            f"unknown problem {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None
    phi, g = make_split(f, jac)
    return SplitProblem(name=name, n=len(y0), phi=phi, g=g, jac=jac, full=f,
                        y0=y0, t0=t0, t_end=t_end, h0=h0, exact=exact)
