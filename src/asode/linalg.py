"""Factor-and-solve kernels for the stage matrix D = E - a*h*B.

B is the (possibly crude) Jacobian approximation of the stiff term.  Two
shapes are supported: a diagonal approximation, which is the cheap choice
the benchmark problems use, and a full dense matrix.  One factorization
per step serves the five stage solves, so the factor object is separate
from the solve call.  B comes with its factorization: b_matvec(v) and
b_diag apply the B that D was factored from, so a step that reads B only
through them applies the B its solves invert.

A dense B whose nonzero entries lie in a narrow band is factored in LAPACK
band storage (gbtrf/gbtrs) instead of as a full matrix (getrf/getrs); both
paths call scipy's LAPACK wrappers directly.  Those and BLAS gbmv are
loaded on the first DenseMatrix factorization in a process, from scipy's
compiled _flapack and _fblas modules alone: the scipy.linalg package,
most of scipy's import time and memory, is never imported, and a run on
a diagonal B loads neither module.  One rule picks the path: each
factor(B, ...) takes the band path exactly when B's lower and upper
bandwidths kl, ku (NaN and inf count as nonzero) satisfy
BAND_RATIO * (kl + ku) < n, and band_layout() answers with kl and ku
then and with None otherwise.  The band path copies B's band,
(kl + ku + 1) x n in LAPACK band layout, fills gbtrf's array from it and
keeps it on the factorization, whose b_matvec (BLAS gbmv,
O(n * (kl + ku))) and b_diag read B as it was when factored; the other
factorizations take both from the matrix (B.matvec, a view of B's
diagonal).  Both paths build the same D and apply the same singularity
checks.  The band LU pivots as the dense one does but orders its
arithmetic differently, so its solutions differ from the dense LU's at
rounding level, and so do b_matvec's sums from values @ v.

A DiagonalMatrix of at most SMALL_N entries is checked and inverted on
Python floats rather than numpy arrays: on a handful of components
numpy's cost per call is many times the arithmetic.  The checks are the
same (non-finite entries are singular, the scale is max(1, max|d|), the
pivot floor applies) and so are the reciprocals, bit for bit.  Its
factorization keeps the reciprocals as floats and B's diagonal floats as
b_floats; a large one keeps an array and no b_floats.  Either solves a
list of floats into a list by one map and an array into an array.
factor is the one place that applies this rule: the additive stepper
runs an attempt on floats exactly when its factorization carries
b_floats.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from typing import Callable

import numpy as np

from .exceptions import DimensionMismatch, SingularMatrix

# scipy's BLAS/LAPACK wrappers, bound by _bind_lapack on the first
# DenseMatrix factorization from scipy's compiled _fblas and _flapack
# modules; the scipy.linalg package itself is never imported
dgbmv = dgbtrf = dgbtrs = dgetrf = dgetrs = None

# A pivot below PIVOT_FLOOR times the matrix scale is treated as singular.
PIVOT_FLOOR = 1e-14
# A dense B with bandwidths kl, ku is factored as banded when
# BAND_RATIO * (kl + ku) < n.  factor() decides with band_layout(), which
# reads the ratio on every call.  One factor() plus five solves,
# banded / dense path, in microseconds (one OpenBLAS thread, 2-CPU x86-64
# VM, numpy 2.4, scipy 1.17; best of 5 timeit repeats, lowest of 3 runs):
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
# and 128) take the band path under any ratio in the table.  Both columns
# include the same band search on the same matrix, so the search's cost
# cannot move the crossover.
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
        if v.ndim != 1 or v.size == 0:
            raise DimensionMismatch(
                f"diagonal must be 1-D and non-empty, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if len(v) != self.dim:
            raise DimensionMismatch(f"vector length {len(v)} != {self.dim}")
        return self.values * np.asarray(v, dtype=float)


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Full dense Jacobian approximation."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.size == 0:
            raise DimensionMismatch(
                f"matrix must be square and non-empty, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if len(v) != self.dim:
            raise DimensionMismatch(f"vector length {len(v)} != {self.dim}")
        return self.values @ np.asarray(v, dtype=float)


JacobianApprox = DiagonalMatrix | DenseMatrix


class Factorization:
    """Reusable decomposition of D = E - a*h*B, and the B it was made from."""

    dim: int
    # B @ v and B's diagonal (an array): a step's one view of B
    b_matvec: Callable[[np.ndarray], np.ndarray]
    b_diag: np.ndarray
    # B's diagonal as Python floats when D was factored on them; the
    # additive stepper then runs its attempt on floats
    b_floats: list | None = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _checked(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.dim,):
            raise DimensionMismatch(
                f"rhs shape {rhs.shape} != ({self.dim},)")
        return rhs


class _DiagonalFactorization(Factorization):
    """Reciprocals of D's diagonal: Python floats, with B's diagonal
    floats as b_floats, when D was factored on floats, else an array."""

    def __init__(self, reciprocals, B: DiagonalMatrix,
                 b_floats: list | None = None):
        self._recip = reciprocals
        self.b_matvec = B.matvec
        self.b_diag = B.values
        self.b_floats = b_floats
        self.dim = len(reciprocals)

    def solve(self, rhs):
        """rhs, a list of dim numbers, solved into a list; an array rhs
        gives an array."""
        if type(rhs) is list:
            if len(rhs) != self.dim:
                raise DimensionMismatch(f"rhs length {len(rhs)} != {self.dim}")
            return list(map(operator.mul, self._recip, rhs))
        return np.asarray(self._recip) * self._checked(rhs)


class _DenseFactorization(Factorization):
    """getrf factors of D."""

    def __init__(self, lu, piv, B: DenseMatrix):
        self._lu = lu
        self._piv = piv
        self.b_matvec = B.matvec
        self.b_diag = B.values.diagonal()
        self.dim = lu.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # getrs reports only malformed arguments, which _checked rules out
        x, _ = dgetrs(self._lu, self._piv, self._checked(rhs))
        return x


class _BandedFactorization(Factorization):
    """gbtrf factors of D in LAPACK band storage, and the band of B."""

    def __init__(self, lu, piv, kl: int, ku: int, band: np.ndarray):
        self._lu = lu
        self._piv = piv
        self._kl = kl
        self._ku = ku
        self._band = band
        self.b_diag = band[ku].copy()
        self.dim = lu.shape[1]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # gbtrs reports only malformed arguments, which _checked rules out
        x, _ = dgbtrs(self._lu, self._kl, self._ku, self._checked(rhs),
                      self._piv)
        return x

    def b_matvec(self, v: np.ndarray) -> np.ndarray:
        """B @ v from B's band, O(n * (kl + ku))."""
        return dgbmv(self.dim, self.dim, self._kl, self._ku, 1.0, self._band,
                     self._checked(v))


def _scipy_linalg_module(name: str):
    """scipy.linalg.<name>, a compiled module, loaded under its full name
    from scipy's linalg folder without running the scipy.linalg package.

    Raises ImportError naming the module and scipy's version when scipy
    has no such module.  Loading leaves no entry in sys.modules: an entry
    there would keep a later import of scipy.linalg from loading the
    module again and binding it as the package's attribute (the same
    routine objects: scipy's compiled modules are initialized once per
    process).
    """
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules:  # scipy.linalg is imported already
        return sys.modules[fullname]
    import scipy  # sets up the bundled library path where one is needed
    spec = PathFinder.find_spec(
        fullname, [os.path.join(path, "linalg") for path in scipy.__path__])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no module "
                          f"{fullname}", name=fullname)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(fullname, None)
    return module


def _bind_lapack() -> None:
    """Load the five scipy routines that the dense and band paths call
    into this module's globals, where solve and b_matvec look them up."""
    global dgbmv, dgbtrf, dgbtrs, dgetrf, dgetrs
    dgbmv = _scipy_linalg_module("_fblas").dgbmv
    lapack = _scipy_linalg_module("_flapack")
    dgbtrf, dgbtrs = lapack.dgbtrf, lapack.dgbtrs
    dgetrf, dgetrs = lapack.dgetrf, lapack.dgetrs


def _scale(entries: np.ndarray) -> float:
    """max(1, max|entry|); a non-finite entry makes D singular."""
    peak = float(np.abs(entries).max())
    if not math.isfinite(peak):
        raise SingularMatrix("non-finite entries in stage matrix")
    return max(1.0, peak)


def band_layout(values: np.ndarray) -> tuple[int, int] | None:
    """B's lower and upper bandwidths (kl, ku) when B takes the band path,
    BAND_RATIO * (kl + ku) < n, and otherwise None: B is factored dense.

    The widths are counted as scipy.linalg.bandwidth counts them: NaN and
    inf are nonzero, -0.0 is zero.  B is read once, into a C-ordered mask
    of its nonzero entries.  A mask with more nonzeros than the widest
    band the rule admits can hold, (n - 1) // BAND_RATIO + 1 diagonals, is
    dense at once.  Otherwise the diagonals are counted in pairs, -d and
    +d, outward from the main one until every nonzero is found, so a band
    matrix is done after max(kl, ku) steps.  A nonzero left past diagonal
    d makes one width at least d + 1, so the walk stops, dense, as soon
    as BAND_RATIO * (d + 1 + min(kl, ku)) >= n.
    """
    n = values.shape[0]
    nonzero = np.not_equal(values, 0, order="C")
    flat = nonzero.reshape(-1)
    count = np.count_nonzero
    left = count(flat)
    if left > n * ((n - 1) // BAND_RATIO + 1):
        return None
    left -= count(flat[::n + 1])
    kl = ku = d = 0
    while left:
        if BAND_RATIO * (d + 1 + min(kl, ku)) >= n:
            return None
        d += 1
        # diagonal -d starts at row d, diagonal +d at column d
        lower = count(flat[d * n::n + 1])
        upper = count(flat[d:(n - d) * n:n + 1])
        if lower:
            kl = d
        if upper:
            ku = d
        left -= lower + upper
    return (kl, ku) if BAND_RATIO * (kl + ku) < n else None


def _factor_banded(values: np.ndarray, kl: int, ku: int,
                   a_times_h: float) -> _BandedFactorization:
    n = values.shape[0]
    # row ku - d of B's band holds diagonal d
    band = np.zeros((kl + ku + 1, n), order="F")
    for d in range(-kl, ku + 1):
        band[ku - d, max(d, 0):n + min(d, 0)] = values.diagonal(d)
    # gbtrf's array is D's band below kl rows of room for fill-in
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    ab[kl:] = -a_times_h * band
    ab[kl + ku] += 1.0
    scale = _scale(ab)
    lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"dgbtrf rejected argument {-info}")
    # info > 0 flags an exactly zero pivot, which the floor also catches
    if float(np.abs(lu[kl + ku]).min()) < PIVOT_FLOOR * scale:
        raise SingularMatrix(f"pivot below {PIVOT_FLOOR:.0e} * scale")
    return _BandedFactorization(lu, piv, kl, ku, band)


def _factor_diagonal_floats(B: DiagonalMatrix,
                            a_times_h: float) -> _DiagonalFactorization:
    """factor's diagonal branch on Python floats, with the same checks.

    One pass over the pivots finds a non-finite one, the scale
    max(1, max|d|) and the smallest |d|.
    """
    values = B.values.tolist()
    a_times_h = float(a_times_h)
    d = []
    scale = 1.0
    low = math.inf
    for b in values:
        x = 1.0 - a_times_h * b
        m = abs(x)
        if not m < math.inf:
            raise SingularMatrix("non-finite entries in stage matrix")
        if m > scale:
            scale = m
        if m < low:
            low = m
        d.append(x)
    if low < PIVOT_FLOOR * scale:
        raise SingularMatrix(
            f"diagonal pivot below {PIVOT_FLOOR:.0e} * scale")
    return _DiagonalFactorization([1.0 / x for x in d], B, values)


def factor(B: JacobianApprox, a_times_h: float) -> Factorization:
    """Factor D = E - a_times_h * B for repeated stage solves.

    The factorization carries B as b_matvec and b_diag.  A DiagonalMatrix
    of at most SMALL_N entries is factored on Python floats, and its
    factorization also carries B's diagonal floats as b_floats; a
    DenseMatrix whose bandwidths satisfy BAND_RATIO * (kl + ku) < n is
    factored in band storage, any other dense (band_layout).  Raises
    SingularMatrix when any pivot falls below 1e-14 times the matrix scale
    (non-finite input counts as singular), and DimensionMismatch when B is
    of neither matrix type.
    """
    if isinstance(B, DiagonalMatrix):
        if B.dim <= SMALL_N:
            return _factor_diagonal_floats(B, a_times_h)
        d = 1.0 - a_times_h * B.values
        scale = _scale(d)
        if float(np.abs(d).min()) < PIVOT_FLOOR * scale:
            raise SingularMatrix(
                f"diagonal pivot below {PIVOT_FLOOR:.0e} * scale")
        return _DiagonalFactorization(1.0 / d, B)
    if isinstance(B, DenseMatrix):
        if dgetrf is None:
            _bind_lapack()
        layout = band_layout(B.values)
        if layout is not None:
            return _factor_banded(B.values, *layout, a_times_h)
        D = np.eye(B.dim) - a_times_h * B.values
        scale = _scale(D)
        lu, piv, info = dgetrf(D, overwrite_a=1)
        if info < 0:
            raise ValueError(f"dgetrf rejected argument {-info}")
        # info > 0 flags an exactly zero pivot, which the floor also catches
        if float(np.abs(lu.diagonal()).min()) < PIVOT_FLOOR * scale:
            raise SingularMatrix(f"pivot below {PIVOT_FLOOR:.0e} * scale")
        return _DenseFactorization(lu, piv, B)
    raise DimensionMismatch(f"unsupported matrix type {type(B).__name__}")
