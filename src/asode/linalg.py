"""Factor-and-solve kernels for the stage matrix D = E - a*h*B.

B is the (possibly crude) Jacobian approximation of the stiff term.  Two
shapes are supported: a diagonal approximation, which is the cheap choice
the benchmark problems use, and a full dense matrix.  One factorization
per step serves the five stage solves, so the factor object is separate
from the solve call.

A dense B whose nonzero entries lie in a narrow band is factored in LAPACK
band storage (gbtrf/gbtrs) instead of as a full matrix (getrf/getrs); both
paths call LAPACK directly.  The lower and upper bandwidths kl, ku come
from scipy.linalg.bandwidth on every call (NaN and inf count as nonzero),
and the band path is taken when BAND_RATIO * (kl + ku) < n.  Both paths
build the same D and apply the same singularity checks.  The band LU pivots
as the dense one does but orders its arithmetic differently, so its
solutions differ from the dense LU's at rounding level.

A DiagonalMatrix of at most SMALL_N entries is checked and inverted on
Python floats rather than numpy arrays: on a handful of components
numpy's cost per call is many times the arithmetic.  The checks are the
same (non-finite entries are singular, the scale is max(1, max|d|), the
pivot floor applies) and so are the reciprocals, bit for bit.  Its
factorization solves a list of floats into a list and an array into an
array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgetrf, dgetrs

from .exceptions import DimensionMismatch, SingularMatrix

# A pivot below PIVOT_FLOOR times the matrix scale is treated as singular.
PIVOT_FLOOR = 1e-14
# A dense B with bandwidths kl, ku is factored as banded when
# BAND_RATIO * (kl + ku) < n.  One factor() plus five solves, banded / dense
# path, in microseconds (one OpenBLAS thread, 2-CPU x86-64 VM, numpy 2.4,
# scipy 1.17; best of 5 timeit repeats, lowest of 3 runs):
#
#       n  n/(kl+ku) = 8       4          3          2          1.5
#      64       92/78     110/77     127/76     193/85     278/92
#     128     222/320    247/303    312/283    404/280    678/325
#     256    427/1859   754/1375   889/1215  1353/1206  1814/1077
#     512  1219/11829  1904/9045  3077/7996  5373/8214  6717/7949
#
# With getrf/getrs called directly the dense LU ties or beats the band LU
# at n = 64 at every ratio; from n = 128 on the band wins at ratio 4 and up.
# The ratio stays 4: the benchmark's Brusselator Jacobians (n/(kl+ku) = 32
# and 128) take the band path under any ratio in the table.
BAND_RATIO = 4
# a DiagonalMatrix with at most this many entries is factored on Python
# floats; the additive stepper runs its whole attempt on floats for the
# same B, and the comparators generate a straight-line step up to it
SMALL_N = 16


@dataclass(frozen=True, eq=False)
class DiagonalMatrix:
    """Diagonal Jacobian approximation, stored as its diagonal."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise DimensionMismatch(f"diagonal must be 1-D, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if len(v) != self.dim:
            raise DimensionMismatch(f"vector length {len(v)} != {self.dim}")
        return self.values * np.asarray(v, dtype=float)

    def as_dense(self) -> np.ndarray:
        return np.diag(self.values)


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Full dense Jacobian approximation."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DimensionMismatch(f"matrix must be square, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if len(v) != self.dim:
            raise DimensionMismatch(f"vector length {len(v)} != {self.dim}")
        return self.values @ np.asarray(v, dtype=float)

    def as_dense(self) -> np.ndarray:
        return self.values


JacobianApprox = DiagonalMatrix | DenseMatrix


class Factorization:
    """Reusable decomposition of D = E - a*h*B."""

    dim: int

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _checked(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.dim,):
            raise DimensionMismatch(
                f"rhs shape {rhs.shape} != ({self.dim},)")
        return rhs


class _DiagonalFactorization(Factorization):
    """Reciprocals of D's diagonal: an array, or a list for a small B."""

    def __init__(self, reciprocals):
        self._recip = reciprocals
        self.dim = len(reciprocals)

    def solve(self, rhs):
        recip = self._recip
        if type(rhs) is list and type(recip) is list:
            if len(rhs) != self.dim:
                raise DimensionMismatch(
                    f"rhs length {len(rhs)} != {self.dim}")
            return [r * x for r, x in zip(recip, rhs)]
        return np.asarray(recip) * self._checked(rhs)


class _DenseFactorization(Factorization):
    """getrf factors of D."""

    def __init__(self, lu, piv):
        self._lu = lu
        self._piv = piv
        self.dim = lu.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # getrs reports only malformed arguments, which _checked rules out
        x, _ = dgetrs(self._lu, self._piv, self._checked(rhs))
        return x


class _BandedFactorization(Factorization):
    """gbtrf factors of D in LAPACK band storage."""

    def __init__(self, lu, piv, kl: int, ku: int):
        self._lu = lu
        self._piv = piv
        self._kl = kl
        self._ku = ku
        self.dim = lu.shape[1]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # gbtrs reports only malformed arguments, which _checked rules out
        x, _ = dgbtrs(self._lu, self._kl, self._ku, self._checked(rhs),
                      self._piv)
        return x


def _scale(entries: np.ndarray) -> float:
    """max(1, max|entry|); a non-finite entry makes D singular."""
    peak = float(np.max(np.abs(entries)))
    if not math.isfinite(peak):
        raise SingularMatrix("non-finite entries in stage matrix")
    return max(1.0, peak)


def _factor_banded(values: np.ndarray, a_times_h: float, kl: int,
                   ku: int) -> _BandedFactorization:
    n = values.shape[0]
    # row kl + ku - d holds diagonal d of D; rows 0..kl-1 are gbtrf's
    # room for fill-in
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    for d in range(-kl, ku + 1):
        ab[kl + ku - d, max(d, 0):n + min(d, 0)] = (
            -a_times_h * np.diagonal(values, d))
    ab[kl + ku] += 1.0
    scale = _scale(ab)
    lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"dgbtrf rejected argument {-info}")
    # info > 0 flags an exactly zero pivot, which the floor also catches
    if float(np.min(np.abs(lu[kl + ku]))) < PIVOT_FLOOR * scale:
        raise SingularMatrix(f"pivot below {PIVOT_FLOOR:.0e} * scale")
    return _BandedFactorization(lu, piv, kl, ku)


def _factor_diagonal_floats(values: list,
                            a_times_h: float) -> _DiagonalFactorization:
    """factor's diagonal branch on Python floats, with the same checks."""
    a_times_h = float(a_times_h)
    d = [1.0 - a_times_h * b for b in values]
    if not all(map(math.isfinite, d)):
        raise SingularMatrix("non-finite entries in stage matrix")
    scale = max(1.0, max(map(abs, d)))
    if min(map(abs, d)) < PIVOT_FLOOR * scale:
        raise SingularMatrix(
            f"diagonal pivot below {PIVOT_FLOOR:.0e} * scale")
    return _DiagonalFactorization([1.0 / x for x in d])


def factor(B: JacobianApprox, a_times_h: float) -> Factorization:
    """Factor D = E - a_times_h * B for repeated stage solves.

    A DiagonalMatrix of at most SMALL_N entries is factored on Python
    floats, and a DenseMatrix with a narrow band of nonzero entries in band
    storage (see BAND_RATIO).  Raises SingularMatrix when any pivot falls
    below 1e-14 times the matrix scale (non-finite input counts as
    singular), and DimensionMismatch when B is of neither matrix type.
    """
    if isinstance(B, DiagonalMatrix):
        if B.dim <= SMALL_N:
            return _factor_diagonal_floats(B.values.tolist(), a_times_h)
        d = 1.0 - a_times_h * B.values
        scale = _scale(d)
        if float(np.min(np.abs(d))) < PIVOT_FLOOR * scale:
            raise SingularMatrix(
                f"diagonal pivot below {PIVOT_FLOOR:.0e} * scale")
        return _DiagonalFactorization(1.0 / d)
    if isinstance(B, DenseMatrix):
        kl, ku = scipy.linalg.bandwidth(B.values)
        if BAND_RATIO * (kl + ku) < B.dim:
            return _factor_banded(B.values, a_times_h, kl, ku)
        D = np.eye(B.dim) - a_times_h * B.values
        scale = _scale(D)
        lu, piv, info = dgetrf(D, overwrite_a=1)
        if info < 0:
            raise ValueError(f"dgetrf rejected argument {-info}")
        # info > 0 flags an exactly zero pivot, which the floor also catches
        if float(np.min(np.abs(np.diag(lu)))) < PIVOT_FLOOR * scale:
            raise SingularMatrix(f"pivot below {PIVOT_FLOOR:.0e} * scale")
        return _DenseFactorization(lu, piv)
    raise DimensionMismatch(f"unsupported matrix type {type(B).__name__}")
