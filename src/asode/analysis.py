"""Scalar amplification analysis of the additive scheme.

On the two-rate scalar model y' = lambda_1*y + lambda_2*y, one step of the
additive scheme multiplies the state by a rational factor R(x, z), where
x = h*lambda_1 enters through the explicitly treated part and
z = h*lambda_2 through the implicitly treated part (the stage matrix uses
the exact stiff multiplier, so D = 1 - a*z).  This module evaluates that
factor for the propagated solution and for the second-order companion
solution, and scans magnitudes over rectangular grids for region plots.

The propagated factor is evaluated operationally -- by running one scheme
step in scalar complex arithmetic -- which is exact up to rounding.  The
companion factor has a manageable closed form, implemented directly in
`eval_R2` and cross-checkable against the operational path
`embedded_step_factor`; the two routes share no code.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional

import numpy as np

from .coefficients import (
    DEFAULT_A,
    SchemeCoefficients,
    derive_embedded,
    derive_scheme,
)
from .exceptions import PoleProximity

# both factors share the pole z = 1/a of the stage matrix 1 - a*z
POLE_TOL = 1e-12

_DEFAULT_SCHEME = derive_scheme(DEFAULT_A)
_DEFAULT_EMBEDDED = derive_embedded(_DEFAULT_SCHEME)


def _with_embedded(coeffs: Optional[SchemeCoefficients]) -> tuple:
    """The scheme (default when None) and its companion coefficients."""
    if coeffs is None:
        return _DEFAULT_SCHEME, _DEFAULT_EMBEDDED
    return coeffs, derive_embedded(coeffs)


def _stage_denominator(a: float, z: complex) -> complex:
    d = 1.0 - a * z
    if abs(d) <= POLE_TOL:
        raise PoleProximity(
            f"|1 - a*z| = {abs(d):.3e} at z = {z}: stage matrix is "
            f"effectively singular (pole at z = {1.0 / a:.6g})")
    return d


def _shared_stages(x: complex, z: complex,
                   c: SchemeCoefficients) -> tuple:
    """Stages k1..k4 of the scalar step, common to both solutions."""
    d = _stage_denominator(c.a, z)
    k1 = x
    k2 = (x + z) / d
    k3 = k2 / d
    k4 = (x * (1.0 + c.beta4[1] * k2 + c.beta4[2] * k3)
          + z * (1.0 + c.alpha4[1] * k2 + c.alpha4[2] * k3)) / d
    return d, k1, k2, k3, k4


def _finite(value: complex, name: str) -> complex:
    """value, or OverflowError when the evaluation left the float range."""
    if not cmath.isfinite(value):
        raise OverflowError(f"{name} leaves the float range")
    return value


def eval_R(x: complex, z: complex,
           coeffs: Optional[SchemeCoefficients] = None) -> complex:
    """Amplification factor of the propagated solution at (x, z).

    Runs one six-stage scheme step on the scalar model with y0 = 1 and
    h = 1 folded into the multipliers, which reproduces the rational
    factor exactly up to rounding.  Where a stage leaves the float range
    it raises OverflowError, without a numpy warning, and
    stability_region_scan records inf there.
    """
    c = coeffs if coeffs is not None else _DEFAULT_SCHEME
    x = complex(x)
    z = complex(z)
    # the coefficients stay numpy scalars, whose overflow warnings are
    # silenced here: Python's complex division rounds differently from
    # numpy's in the last bit at about 8 % of region points
    with np.errstate(all="ignore"):
        d, k1, k2, k3, k4 = _shared_stages(x, z, c)
        k5 = (k4 + c.gamma * k3) / d
        k6 = x * (1.0 + c.beta6[2] * k3 + c.beta6[3] * k4
                  + c.beta6[4] * k5)
        p = c.p
        return _finite(1.0 + p[0] * k1 + p[1] * k2 + p[2] * k3 + p[3] * k4
                       + p[4] * k5 + p[5] * k6, "R")


def embedded_step_factor(x: complex, z: complex,
                         coeffs: Optional[SchemeCoefficients] = None,
                         ) -> complex:
    """Companion-solution factor evaluated by running the scalar step.

    Independent evaluation route for `eval_R2`: the five-stage estimator
    scheme executed stage by stage, nothing shared with the closed form.
    Like eval_R it raises OverflowError, without a warning, where a stage
    leaves the float range.
    """
    c, e = _with_embedded(coeffs)
    x = complex(x)
    z = complex(z)
    with np.errstate(all="ignore"):
        d, k1, k2, k3, k4 = _shared_stages(x, z, c)
        k5t = k4 / d
        r = e.r
        return _finite(1.0 + r[0] * k1 + r[1] * k2 + r[2] * k3 + r[3] * k4
                       + r[4] * k5t, "the companion factor")


def eval_R2(x: complex, z: complex,
            coeffs: Optional[SchemeCoefficients] = None) -> complex:
    """Companion-solution amplification factor, closed rational form.

    Numerator polynomial in (x, z) over (1 - a*z)^4, written out in terms
    of the scheme parameter a, the stage-4 combination weight sum b4, and
    the companion weights r2..r5.  Each term has degree four in (x, z, 1),
    so where a power in that form leaves the float range, the numerator
    at (x/d, z/d, 1/d), d = 1 - a*z, gives the same quotient; where that
    overflows too, |R2| itself does and OverflowError is raised.
    """
    c, e = _with_embedded(coeffs)
    x = complex(x)
    z = complex(z)
    a = c.a
    b4 = float(c.aux[3])
    r2, r3, r4, r5 = (float(v) for v in e.r[1:])
    d = _stage_denominator(a, z)

    def numerator(x, z, one):
        return (
            a**3 * (a - r2) * z**4
            - a**3 * (r2 - r4) * x * z**3
            - a * (4.0 * a**2 - a * (3.0 * r2 + r3 + 2.0 * r4) + r4)
            * z**3 * one
            + a**3 * r4 * x**2 * z**2
            + a * (a * (3.0 * r2 + r3 + r4 - r5)
                   - r4 * (b4 + 1.0)) * x * z**2 * one
            + (6.0 * a**2 - a * (3.0 * r2 + 2.0 * r3 + 3.0 * r4 + 2.0 * r5)
               + r4 + r5) * z**2 * one**2
            - a * (a * (r4 + r5) + r4 * b4) * x**2 * z * one
            + (-a * (3.0 * r2 + 2.0 * r3 + 3.0 * r4 + 2.0 * r5)
               + (r4 + r5) * (b4 + 1.0)) * x * z * one**2
            + (-4.0 * a + r2 + r3 + r4 + r5) * z * one**3
            + b4 * (r4 + r5) * x**2 * one**2
            + (r2 + r3 + r4 + r5) * x * one**3
            + one**4
        )

    try:
        value = numerator(x, z, 1.0) / d**4
    except OverflowError:
        value = math.nan
    return value if cmath.isfinite(value) else numerator(x / d, z / d, 1.0 / d)


def stability_region_scan(x_grid, z_grid, which: str = "main") -> np.ndarray:
    """Grid of |R| with rows following z_grid and columns following x_grid.

    `which` selects the default scheme's propagated ("main") or companion
    ("embedded") factor.  Grid points must be finite; a point too close to
    the stage pole, or whose factor overflows, contributes inf rather
    than aborting the scan, so region plots that straddle z = 1/a stay
    usable.
    """
    if which not in ("main", "embedded"):
        raise ValueError(f"unknown stability function {which!r}; "
                         f"expected 'main' or 'embedded'")
    xs = np.asarray(x_grid, dtype=complex).ravel()
    zs = np.asarray(z_grid, dtype=complex).ravel()
    if xs.size == 0 or zs.size == 0:
        raise ValueError("grids must be non-empty")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(zs))):
        raise ValueError("grid points must be finite")
    factor = eval_R if which == "main" else eval_R2
    out = np.empty((zs.size, xs.size), dtype=float)
    for i, z in enumerate(zs):
        for j, x in enumerate(xs):
            try:
                out[i, j] = abs(factor(x, z))
            except (PoleProximity, OverflowError):
                out[i, j] = math.inf
    return out
