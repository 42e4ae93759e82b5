"""Factor-and-solve kernels for the stage matrix D = E - a*h*B.

B is the (possibly crude) Jacobian approximation of the stiff term.  Two
shapes are supported: a diagonal approximation, which is the cheap choice
the benchmark problems use, and a full dense matrix.  One factorization
per step serves the five stage solves, so the factor object is separate
from the solve call.

A dense B whose nonzero entries lie in a narrow band is factored in LAPACK
band storage (gbtrf/gbtrs) instead of as a full matrix.  The lower and
upper bandwidths kl, ku are read off B's entries on every call (NaN and
inf count as nonzero), and the band path is taken when
BAND_RATIO * (kl + ku) < n.  Both paths build the same D and apply the same
singularity checks.  The band LU pivots as the dense one does but orders its
arithmetic differently, so its solutions differ from the dense LU's at
rounding level.

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
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .exceptions import DimensionMismatch, SingularMatrix

# A pivot below PIVOT_FLOOR times the matrix scale is treated as singular.
PIVOT_FLOOR = 1e-14
# A dense B with bandwidths kl, ku is factored as banded when
# BAND_RATIO * (kl + ku) < n.  One factor() plus five solves, banded / dense
# path, in microseconds (one OpenBLAS thread, 2-CPU x86-64 VM, numpy 2.4,
# scipy 1.17; best of 5 timeit repeats):
#
#       n  n/(kl+ku) = 8       4          3          2          1.5
#      64       90/192    205/277    235/267    286/304    367/312
#     128      265/587    231/339    269/329    523/365    654/412
#     256     480/1776   735/1338   948/1265  1369/1604  1272/1165
#     512    1059/6777  1614/8533  2540/6938  3188/6804  5526/7561
#
# The band wins down to n/(kl+ku) of about 2 and ties near it; the ratio 4
# stays a factor of 2 inside that crossover, which moves with host and BLAS.
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
    def __init__(self, lu, piv, dim: int):
        self._lu = lu
        self._piv = piv
        self.dim = dim

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return scipy.linalg.lu_solve((self._lu, self._piv),
                                     self._checked(rhs), check_finite=False)


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


def _bandwidths(values: np.ndarray) -> tuple:
    """Lower and upper bandwidths (kl, ku) of a square matrix's entries.

    Every entry that is not exactly zero counts, NaN and inf included, so a
    non-finite entry is either inside the band or widens it.  An all-zero
    matrix has bandwidths (0, 0).
    """
    nonzero = values != 0
    rows = np.arange(values.shape[0])
    first = np.argmax(nonzero, axis=1)
    last = values.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    # argmax is 0 on an all-zero row; such rows set no bandwidth
    used = nonzero[rows, first]
    if not used.any():
        return 0, 0
    kl = int(np.max(rows[used] - first[used]))
    ku = int(np.max(last[used] - rows[used]))
    return max(kl, 0), max(ku, 0)


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
    singular).
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
        kl, ku = _bandwidths(B.values)
        if BAND_RATIO * (kl + ku) < B.dim:
            return _factor_banded(B.values, a_times_h, kl, ku)
        D = np.eye(B.dim) - a_times_h * B.values
        scale = _scale(D)
        with warnings.catch_warnings():
            # singularity is reported via SingularMatrix below
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(D, check_finite=False)
        if float(np.min(np.abs(np.diag(lu)))) < PIVOT_FLOOR * scale:
            raise SingularMatrix(f"pivot below {PIVOT_FLOOR:.0e} * scale")
        return _DenseFactorization(lu, piv, B.dim)
    raise DimensionMismatch(f"unsupported matrix type {type(B).__name__}")
