"""Factor-and-solve kernels for the stage matrix D = E - a*h*B.

B is the (possibly crude) Jacobian approximation of the stiff term.  Two
shapes are supported: a diagonal approximation, which is the cheap choice
the benchmark problems use, and a full dense matrix.  One factorization
per step serves the five stage solves, so the factor object is separate
from the solve call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import DimensionMismatch, SingularMatrix

# A pivot below PIVOT_FLOOR times the matrix scale is treated as singular.
PIVOT_FLOOR = 1e-14


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


class _DiagonalFactorization(Factorization):
    def __init__(self, reciprocals: np.ndarray):
        self._recip = reciprocals
        self.dim = reciprocals.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.dim,):
            raise DimensionMismatch(
                f"rhs shape {rhs.shape} != ({self.dim},)")
        return self._recip * rhs


class _DenseFactorization(Factorization):
    def __init__(self, lu, piv, dim: int):
        self._lu = lu
        self._piv = piv
        self.dim = dim

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.dim,):
            raise DimensionMismatch(
                f"rhs shape {rhs.shape} != ({self.dim},)")
        return scipy.linalg.lu_solve((self._lu, self._piv), rhs,
                                     check_finite=False)


def factor(B: JacobianApprox, a_times_h: float) -> Factorization:
    """Factor D = E - a_times_h * B for repeated stage solves.

    Raises SingularMatrix when any pivot falls below 1e-14 times the
    matrix scale (non-finite input counts as singular).
    """
    if isinstance(B, DiagonalMatrix):
        d = 1.0 - a_times_h * B.values
        if not np.all(np.isfinite(d)):
            raise SingularMatrix("non-finite diagonal in stage matrix")
        scale = max(1.0, float(np.max(np.abs(d))))
        if float(np.min(np.abs(d))) < PIVOT_FLOOR * scale:
            raise SingularMatrix(
                f"diagonal pivot below {PIVOT_FLOOR:.0e} * scale")
        return _DiagonalFactorization(1.0 / d)
    if isinstance(B, DenseMatrix):
        D = np.eye(B.dim) - a_times_h * B.values
        if not np.all(np.isfinite(D)):
            raise SingularMatrix("non-finite entries in stage matrix")
        scale = max(1.0, float(np.max(np.abs(D))))
        with warnings.catch_warnings():
            # singularity is reported via SingularMatrix below
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(D, check_finite=False)
        if float(np.min(np.abs(np.diag(lu)))) < PIVOT_FLOOR * scale:
            raise SingularMatrix(f"pivot below {PIVOT_FLOOR:.0e} * scale")
        return _DenseFactorization(lu, piv, B.dim)
    raise DimensionMismatch(f"unsupported matrix type {type(B).__name__}")
