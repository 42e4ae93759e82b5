"""Factorization tests with an independent full-pivot elimination oracle."""

import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

import asode
from asode import linalg
from asode.exceptions import DimensionMismatch, SingularMatrix
from asode.linalg import DenseMatrix, DiagonalMatrix, factor

# (n, kl, ku) with BAND_RATIO * (kl + ku) < n: factored as banded
BANDED = [(40, 3, 1), (40, 0, 4), (40, 5, 0), (33, 2, 2), (64, 1, 6)]


def random_banded(rng, n, kl, ku):
    """Dense B whose nonzero entries fill exactly the band (kl, ku).

    The diagonal leans negative, like a stiff Jacobian's, so D = E - c*B
    stays well conditioned for c <= 2 (cond(D) below about 1e4), while
    rows that do not dominate make the LU pivot.
    """
    A = rng.uniform(-1.0, 1.0, (n, n))
    A[A == 0.0] = 0.5
    A[np.diag_indices(n)] = rng.uniform(-kl - ku - 1.0, 0.5, n)
    return DenseMatrix(np.triu(np.tril(A, ku), -kl))


def full_pivot_solve(A, b):
    """Gaussian elimination with full pivoting; test-side reference only."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = A.shape[0]
    col_order = np.arange(n)
    for k in range(n):
        sub = np.abs(A[k:, k:])
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        pr, pc = k + i, k + j
        A[[k, pr], :] = A[[pr, k], :]
        b[[k, pr]] = b[[pr, k]]
        A[:, [k, pc]] = A[:, [pc, k]]
        col_order[[k, pc]] = col_order[[pc, k]]
        for r in range(k + 1, n):
            m = A[r, k] / A[k, k]
            A[r, k:] -= m * A[k, k:]
            b[r] -= m * b[k]
    x_perm = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x_perm[k] = (b[k] - A[k, k + 1:] @ x_perm[k + 1:]) / A[k, k]
    x = np.zeros(n)
    x[col_order] = x_perm
    return x


def test_dense_solve_matches_full_pivot_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        B = DenseMatrix(rng.standard_normal((n, n)))
        c = float(rng.uniform(0.05, 2.0))
        D = np.eye(n) - c * B.values
        if abs(np.linalg.det(D)) < 1e-6:
            continue
        rhs = rng.standard_normal(n)
        got = factor(B, c).solve(rhs)
        expected = full_pivot_solve(D, rhs)
        assert np.allclose(got, expected, atol=1e-10, rtol=1e-10)
    for n, kl, ku in BANDED:
        B = random_banded(rng, n, kl, ku)
        c = float(rng.uniform(0.05, 2.0))
        rhs = rng.standard_normal(n)
        fact = factor(B, c)
        assert isinstance(fact, linalg._BandedFactorization)
        expected = full_pivot_solve(np.eye(n) - c * B.values, rhs)
        assert np.allclose(fact.solve(rhs), expected, atol=1e-10,
                           rtol=1e-10)


def test_dense_path_matches_lu_factor_bit_for_bit(monkeypatch):
    # scipy's lu_factor/lu_solve as the reference, on dense D of every
    # size up to 40 (n = 1 would take the band path under the rule)
    monkeypatch.setattr(linalg, "BAND_RATIO", math.inf)
    rng = np.random.default_rng(2024)
    for n in range(1, 41):
        B = DenseMatrix(rng.standard_normal((n, n)))
        c = float(rng.uniform(0.05, 2.0))
        fact = factor(B, c)
        assert type(fact) is linalg._DenseFactorization
        ref = scipy.linalg.lu_factor(np.eye(n) - c * B.values)
        rhs = rng.standard_normal(n)
        for _ in range(5):
            x = fact.solve(rhs)
            assert x.tobytes() == scipy.linalg.lu_solve(ref, rhs).tobytes()
            rhs = x


def test_dense_round_trip_residual():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        B = DenseMatrix(rng.uniform(-1.0, 1.0, (n, n)))
        c = 0.3
        D = np.eye(n) - c * B.values
        rhs = rng.standard_normal(n)
        x = factor(B, c).solve(rhs)
        scale = max(1.0, np.max(np.abs(D)))
        assert np.max(np.abs(D @ x - rhs)) < 1e-12 * scale * 10
    for n, kl, ku in BANDED:
        B = random_banded(rng, n, kl, ku)
        D = np.eye(n) - 0.3 * B.values
        rhs = rng.standard_normal(n)
        x = factor(B, 0.3).solve(rhs)
        scale = max(1.0, np.max(np.abs(D)))
        assert np.max(np.abs(D @ x - rhs)) < 1e-12 * scale * 10


@pytest.mark.parametrize("n, kl, ku", BANDED)
def test_banded_and_dense_paths_agree(n, kl, ku, monkeypatch):
    rng = np.random.default_rng(n + 10 * kl + 100 * ku)
    B = random_banded(rng, n, kl, ku)
    c = float(rng.uniform(0.05, 2.0))
    rhs = rng.standard_normal(n)
    banded = factor(B, c)
    monkeypatch.setattr(linalg, "BAND_RATIO", math.inf)
    dense = factor(B, c)
    assert isinstance(banded, linalg._BandedFactorization)
    assert isinstance(dense, linalg._DenseFactorization)
    # the two LUs round differently, so they agree to within the
    # conditioning of D, not bit for bit
    x_dense = dense.solve(rhs)
    cond = np.linalg.cond(np.eye(n) - c * B.values)
    bound = 100 * np.finfo(float).eps * cond * np.max(np.abs(x_dense))
    assert np.max(np.abs(banded.solve(rhs) - x_dense)) <= bound


@pytest.mark.parametrize("kl, ku, path", [
    (5, 4, linalg._BandedFactorization),   # 4 * 9 < 40
    (5, 5, linalg._DenseFactorization),    # 4 * 10 == 40
    (0, 9, linalg._BandedFactorization),
    (0, 10, linalg._DenseFactorization),
])
def test_selection_rule_boundary(kl, ku, path):
    n = 40
    assert linalg.BAND_RATIO == 4
    rng = np.random.default_rng(kl + 10 * ku)
    B = random_banded(rng, n, kl, ku)
    rhs = rng.standard_normal(n)
    fact = factor(B, 0.7)
    assert type(fact) is path
    expected = full_pivot_solve(np.eye(n) - 0.7 * B.values, rhs)
    assert np.allclose(fact.solve(rhs), expected, atol=1e-10, rtol=1e-10)


def band_rule(A):
    """scipy.linalg.bandwidth's (kl, ku) when BAND_RATIO * (kl + ku) < n,
    else None: the layout factor must pick."""
    kl, ku = scipy.linalg.bandwidth(A)
    return (kl, ku) if linalg.BAND_RATIO * (kl + ku) < A.shape[0] else None


def test_bandwidths():
    band_layout = linalg.band_layout
    # at n = 6 any two widths past 1 leave the band path; at n = 41 the
    # same entries keep it, and their widths are exact
    for n in (6, 41):
        band = n == 41
        A = np.zeros((n, n))
        assert band_layout(A) == (0, 0)
        A[2, 0] = 1.0       # lower bandwidth 2
        A[1, 4] = -3.0      # upper bandwidth 3
        assert band_layout(A) == ((2, 3) if band else None)
        A[5, 5] = 2.0       # rows 3 and 4 stay all zero
        assert band_layout(A) == ((2, 3) if band else None)
        A[0, 5] = np.nan    # non-finite entries count as nonzero
        assert band_layout(A) == ((2, 5) if band else None)
        A[5, 0] = -np.inf
        assert band_layout(A) == ((5, 5) if band else None)
        A[40 if band else 5, 0] = 1.0
        assert band_layout(A) is None
    # only strictly upper entries: the band still holds the diagonal
    assert band_layout(np.triu(np.ones((4, 4)), 2)) is None
    assert band_layout(np.triu(np.tril(np.ones((16, 16)), 3), 2)) == (0, 3)
    # memory layout does not matter
    for n, widths in ((8, None), (40, (4, 5))):
        B = np.zeros((n, n))
        B[4, 0] = 1e-300
        B[0, 2] = -0.0      # negative zero is zero
        B[2, 7] = 1.0
        assert band_layout(np.asfortranarray(B)) == widths
        view = B[::2, ::2]
        assert not view.flags.c_contiguous and not view.flags.f_contiguous
        assert band_layout(view) == band_layout(view.copy()) == (
            (2, 0) if n == 40 else None)


def random_sparse(rng, n):
    """Square matrix with random sparsity and special entries, in a random
    memory layout: C order, Fortran order or a strided view."""
    A = rng.standard_normal((n, n))
    A[rng.random((n, n)) < rng.random()] = 0.0
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300])
    picks = rng.random((n, n)) < 0.05
    A[picks] = rng.choice(specials, int(picks.sum()))
    for _ in range(int(rng.integers(0, 3))):
        A[int(rng.integers(n))] = 0.0        # all-zero rows
    layout = rng.integers(3)
    if layout == 1:
        return np.asfortranarray(A)
    if layout == 2:
        big = np.zeros((2 * n, 3 * n))
        big[::2, ::3] = A
        return big[::2, ::3]
    return A


def test_bandwidths_match_scipy():
    rng = np.random.default_rng(20)
    for _ in range(2000):
        n = int(rng.integers(1, 13))
        A = random_sparse(rng, n)
        assert linalg.band_layout(A) == band_rule(A)
    for n in rng.integers(13, 65, 50):
        A = random_sparse(rng, int(n))
        assert linalg.band_layout(A) == band_rule(A)
    for n in (1, 5):
        assert linalg.band_layout(np.zeros((n, n))) == (0, 0)
        assert linalg.band_layout(np.full((n, n), -0.0)) == (0, 0)
        full = np.ones((n, n))
        assert linalg.band_layout(full) == band_rule(full)
    assert linalg.band_layout(np.array([[np.nan]])) == (0, 0)


def layouts(A):
    """A in C order, in Fortran order and as a strided view."""
    big = np.zeros((2 * A.shape[0], 3 * A.shape[1]))
    big[::2, ::3] = A
    return A, np.asfortranarray(A), big[::2, ::3]


@pytest.mark.parametrize("n", [16, 64, 200])
def test_band_search_matches_scipy(n):
    # narrow bands, and bands whose widths sum to the widest the band path
    # takes or one past it, split several ways between kl and ku, with NaN
    # and inf at the band's edges; then a diagonal with one far corner,
    # NaN or inf far off the band, and a dense matrix
    rng = np.random.default_rng(n)
    widest = (n - 1) // linalg.BAND_RATIO
    assert widest >= 3
    edges = [(0, 0), (1, 0), (0, 1), (widest, 0), (0, widest)]
    for total in (widest, widest + 1):
        edges += [(kl, total - kl)
                  for kl in sorted({1, 2, total // 2, total - 2, total - 1})]
    edges += [(0, widest + 1), (widest + 1, 0), (widest + 1, widest + 1)]
    for kl, ku in edges:
        A = random_banded(rng, n, kl, ku).values.copy()
        A[rng.random((n, n)) < 0.1] = 0.0
        A[kl, 0] = np.nan if kl else A[kl, 0]
        A[0, ku] = np.inf if ku else A[0, ku]
        A[n - 1, 0] = A[0, n - 1] = -0.0
        for M in layouts(A):
            assert linalg.band_layout(M) == band_rule(M) == (
                (kl, ku) if kl + ku <= widest else None)
    far = []
    corner = np.eye(n)
    corner[n - 1, 0] = 1.0
    far.append(corner)
    far.append(corner.T.copy())
    for special in (np.nan, np.inf, -np.inf):
        A = random_banded(rng, n, 1, 1).values.copy()
        A[n - 2, 1] = special
        far.append(A)
        far.append(A.T.copy())
    far.append(rng.standard_normal((n, n)))
    for A in far:
        for M in layouts(A):
            assert linalg.band_layout(M) is band_rule(M) is None


def test_factor_reads_the_band_on_every_call():
    rng = np.random.default_rng(8)
    B = random_banded(rng, 40, 2, 1)
    rhs = rng.standard_normal(40)
    first = factor(B, 0.5).solve(rhs)
    # widen B in place past the rule, then narrow it again
    saved = B.values.copy()
    B.values[0, 39] = 1.0
    assert type(factor(B, 0.5)) is linalg._DenseFactorization
    B.values[:] = saved
    assert type(factor(B, 0.5)) is linalg._BandedFactorization
    assert factor(B, 0.5).solve(rhs).tobytes() == first.tobytes()


def test_diagonal_round_trip_residual():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        B = DiagonalMatrix(rng.uniform(-100.0, 0.0, n))
        c = float(rng.uniform(0.01, 1.0))
        rhs = rng.standard_normal(n)
        x = factor(B, c).solve(rhs)
        residual = (1.0 - c * B.values) * x - rhs
        assert np.max(np.abs(residual)) < 1e-12


def test_diagonal_and_dense_paths_agree():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        diag_vals = rng.uniform(-50.0, 5.0, n)
        c = float(rng.uniform(0.05, 1.5))
        rhs = rng.standard_normal(n)
        x_diag = factor(DiagonalMatrix(diag_vals), c).solve(rhs)
        x_dense = factor(DenseMatrix(np.diag(diag_vals)), c).solve(rhs)
        assert np.allclose(x_diag, x_dense, atol=1e-13, rtol=1e-13)


def test_identity_shortcut():
    # B = 0 leaves D = E and the solve must return rhs unchanged
    rhs = np.array([1.0, -2.0, 3.5])
    x = factor(DiagonalMatrix(np.zeros(3)), 0.7).solve(rhs)
    assert np.array_equal(x, rhs)


def test_singular_diagonal_raises():
    c = 0.25
    B = DiagonalMatrix(np.array([1.0 / c, -3.0]))
    with pytest.raises(SingularMatrix):
        factor(B, c)


def test_singular_dense_raises():
    # rank-one update makes D = E - c*B exactly singular
    c = 1.0
    B = DenseMatrix(np.array([[2.0, 1.0], [-1.0, 0.0]]))
    # D = [[-1, -1], [1, 1]] is singular; the zero pivot is reported by
    # SingularMatrix alone, with no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrix):
            factor(B, c)
    # the same 2x2 block on the diagonal of a banded B, with D = E - B
    n = 40
    D = np.diag(np.linspace(1.0, 2.0, n)) + 0.1 * np.eye(n, k=1)
    D[10:12, 10:12] = [[-1.0, -1.0], [1.0, 1.0]]
    B = DenseMatrix(np.eye(n) - D)
    assert scipy.linalg.bandwidth(B.values) == (1, 1)
    with pytest.raises(SingularMatrix):
        factor(B, 1.0)


def test_non_finite_matrix_raises():
    with pytest.raises(SingularMatrix):
        factor(DiagonalMatrix(np.array([np.nan, 1.0])), 0.5)
    with pytest.raises(SingularMatrix):
        factor(DenseMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]])), 0.5)
    with pytest.raises(SingularMatrix):
        factor(DenseMatrix(np.array([[1.0, 2.0, 3.0], [4.0, np.nan, 6.0],
                                     [7.0, 8.0, 9.0]])), 0.5)
    # NaN inside the band of a banded B, and NaN far off the band, which
    # widens it past the rule and sends B down the dense path
    B = random_banded(np.random.default_rng(5), 40, 2, 1).values
    inside = B.copy()
    inside[20, 18] = np.nan
    assert scipy.linalg.bandwidth(inside) == (2, 1)
    outside = B.copy()
    outside[0, 39] = np.nan
    assert scipy.linalg.bandwidth(outside) == (2, 39)
    for values in (inside, outside):
        with pytest.raises(SingularMatrix):
            factor(DenseMatrix(values), 0.5)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        DiagonalMatrix(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        DenseMatrix(np.zeros((2, 3)))
    # an empty B would reach factor's reductions and fail there
    with pytest.raises(DimensionMismatch, match="non-empty"):
        DiagonalMatrix(np.array([]))
    with pytest.raises(DimensionMismatch, match="non-empty"):
        DenseMatrix(np.zeros((0, 0)))
    f = factor(DiagonalMatrix(np.array([-1.0, -2.0])), 0.5)
    with pytest.raises(DimensionMismatch):
        f.solve(np.zeros(3))
    fd = factor(DenseMatrix(np.array([[1.0, 2.0], [3.0, 4.0]])), 0.5)
    with pytest.raises(DimensionMismatch):
        fd.solve(np.zeros(3))
    fb = factor(random_banded(np.random.default_rng(1), 40, 1, 2), 0.5)
    assert isinstance(fb, linalg._BandedFactorization)
    for rhs in (np.zeros(39), np.zeros(41), np.zeros((40, 1))):
        with pytest.raises(DimensionMismatch):
            fb.solve(rhs)
    with pytest.raises(DimensionMismatch):
        DiagonalMatrix(np.array([-1.0, -2.0])).matvec(np.zeros(3))


def test_matvec():
    d = DiagonalMatrix(np.array([2.0, -3.0]))
    assert np.array_equal(d.matvec(np.array([1.0, 1.0])), [2.0, -3.0])
    m = DenseMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert np.array_equal(m.matvec(np.array([1.0, 1.0])), [3.0, 1.0])
    banded = random_banded(np.random.default_rng(6), 40, 1, 1)
    fact = factor(banded, 0.5)
    assert isinstance(fact, linalg._BandedFactorization)
    for apply, dim in ((m.matvec, 2), (banded.matvec, 40),
                       (fact.b_matvec, 40)):
        for n in (dim - 1, dim + 1):
            with pytest.raises(DimensionMismatch):
                apply(np.zeros(n))


@pytest.mark.parametrize("n, kl, ku", BANDED + [(40, 0, 0), (40, 5, 4),
                                                (40, 0, 9)])
def test_band_matvec_matches_dense_product(n, kl, ku):
    rng = np.random.default_rng(n + 10 * kl + 100 * ku)
    B = random_banded(rng, n, kl, ku)
    fact = factor(B, 0.5)
    assert isinstance(fact, linalg._BandedFactorization)
    for v in (rng.standard_normal(n), rng.standard_normal(n).tolist()):
        expected = B.values @ np.asarray(v)
        got = fact.b_matvec(v)
        bound = 4 * np.finfo(float).eps * (np.abs(B.values) @ np.abs(v))
        assert got.shape == (n,)
        assert np.all(np.abs(got - expected) <= bound)
        # the matrix itself keeps the dense product
        assert B.matvec(v).tobytes() == expected.tobytes()
    assert fact.b_diag.tobytes() == np.diagonal(B.values).tobytes()


@pytest.mark.parametrize("n, kl, ku", [(40, 5, 5), (40, 0, 10), (12, 6, 5)])
def test_wide_factorization_keeps_no_band(n, kl, ku):
    rng = np.random.default_rng(kl + ku)
    B = random_banded(rng, n, kl, ku)
    fact = factor(B, 0.5)
    assert isinstance(fact, linalg._DenseFactorization)
    # B is applied as the dense product, not from a band copy
    v = rng.standard_normal(n)
    assert fact.b_matvec(v).tobytes() == (B.values @ v).tobytes()
    assert fact.b_diag.tobytes() == np.diagonal(B.values).tobytes()


@pytest.mark.parametrize("kind", ["floats", "diagonal", "dense", "band"])
def test_factorization_applies_the_b_it_factored(kind):
    # every factorization carries B; only the band path keeps its own
    # copy, whose gbmv sums differ from the dense product at rounding level
    rng = np.random.default_rng(17)
    B, cls = {
        "floats": (DiagonalMatrix(rng.uniform(-5.0, 0.5, linalg.SMALL_N)),
                   linalg._DiagonalFactorization),
        "diagonal": (DiagonalMatrix(rng.uniform(-5.0, 0.5,
                                                linalg.SMALL_N + 1)),
                     linalg._DiagonalFactorization),
        "dense": (random_banded(rng, 12, 6, 5), linalg._DenseFactorization),
        "band": (random_banded(rng, 40, 2, 1), linalg._BandedFactorization),
    }[kind]
    n = B.dim
    fact = factor(B, 0.5)
    assert type(fact) is cls
    assert (fact.b_floats is not None) == (kind == "floats")
    diag = B.values if B.values.ndim == 1 else np.diagonal(B.values)
    assert type(fact.b_diag) is np.ndarray
    assert fact.b_diag.tobytes() == diag.tobytes()
    for v in (rng.standard_normal(n), rng.standard_normal(n).tolist()):
        got = fact.b_matvec(v)
        assert got.shape == (n,)
        if kind == "band":
            bound = 4 * np.finfo(float).eps * (np.abs(B.values) @ np.abs(v))
            assert np.all(np.abs(got - B.matvec(v)) <= bound)
        else:
            assert got.tobytes() == B.matvec(v).tobytes()


def test_band_belongs_to_the_factorization():
    # updating B in place after a band factor changes B.matvec and the
    # next factorization, not the band the earlier one kept
    rng = np.random.default_rng(9)
    B = random_banded(rng, 40, 2, 1)
    v = rng.standard_normal(40)
    first = factor(B, 0.5)
    before = first.b_matvec(v).copy()
    B.values[:] = random_banded(rng, 40, 2, 1).values
    assert B.matvec(v).tobytes() == (B.values @ v).tobytes()
    assert first.b_matvec(v).tobytes() == before.tobytes()
    second = factor(B, 0.5).b_matvec(v)
    assert np.allclose(second, B.values @ v, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("kl, ku", [(2, 1), (0, 0), (5, 4)])
def test_band_matvec_propagates_non_finite_entries(kl, ku):
    fact = factor(random_banded(np.random.default_rng(4), 40, kl, ku), 0.5)
    for bad in (np.nan, np.inf, -np.inf):
        v = np.ones(40)
        v[17] = bad
        with np.errstate(invalid="ignore"):
            assert not np.all(np.isfinite(fact.b_matvec(v)))
    # a band column of zeros times inf is NaN, as in the dense product
    zero = factor(DenseMatrix(np.zeros((40, 40))), 0.5)
    v = np.zeros(40)
    v[3] = np.inf
    assert np.isnan(zero.b_matvec(v)[3])


# a fresh interpreter: the package, its bench module and its CLI, a
# diagonal-B solve and a Merson run load neither scipy.linalg nor the
# process pool; the DenseMatrix factorizations load scipy's compiled
# LAPACK/BLAS modules but not the scipy.linalg package.  argv[2] says
# when the script imports scipy.linalg itself: never, before the first
# factor or after it; once it has, the five routines must be the objects
# scipy.linalg exports and scipy.linalg.lu_factor must still run.
_COLD_START = """
import json, sys
import numpy as np
folder, order = sys.argv[1:]
if order == "before":
    import scipy.linalg
import asode, asode.benchmark, asode.cli
from asode import MERSON, builtin, derive_embedded, derive_scheme
from asode import integrate, rk_integrate, linalg
from asode.linalg import DenseMatrix, factor
from asode.problems import Tolerances

p = builtin("example4")
tol = Tolerances.uniform(1e-2, p.n)
scheme = derive_scheme()
integrate(p, scheme, derive_embedded(scheme), tol)
rk_integrate(MERSON, p.full, tuple(p.y0), (p.t0, p.t_end), tol, p.h0)
out = {"loaded": [m for m in ("scipy.linalg", "concurrent.futures.process")
                  if m in sys.modules], "kinds": [], "after": []}
for name in ("dense", "band"):
    B, rhs, v = (np.load(f"{folder}/{name}_{x}.npy")
                 for x in ("B", "rhs", "v"))
    fact = factor(DenseMatrix(B), 0.3)
    out["kinds"].append(type(fact).__name__)
    out["after"].append("scipy.linalg" in sys.modules)
    np.save(f"{folder}/{name}_x.npy", fact.solve(rhs))
    np.save(f"{folder}/{name}_Bv.npy", fact.b_matvec(v))
if order != "never":
    import scipy.linalg
    from scipy.linalg import blas, lapack
    out["same"] = [getattr(linalg, f) is getattr(lapack, f, None)
                   for f in ("dgbtrf", "dgbtrs", "dgetrf", "dgetrs")]
    out["same"].append(linalg.dgbmv is blas.dgbmv)
    lu, _ = scipy.linalg.lu_factor(np.load(f"{folder}/dense_B.npy"))
    np.save(f"{folder}/lu.npy", lu)
print(json.dumps(out))
"""


def _cold_start(tmp_path, order):
    """Run _COLD_START in a fresh interpreter; check that its solves and
    products are this process's, bit for bit, and return its report."""
    rng = np.random.default_rng(27)
    cases = {"dense": (DenseMatrix(rng.standard_normal((8, 8))),
                       linalg._DenseFactorization),
             "band": (random_banded(rng, 64, 2, 1),
                      linalg._BandedFactorization)}
    for name, (B, _) in cases.items():
        for x, a in (("B", B.values), ("rhs", rng.standard_normal(B.dim)),
                     ("v", rng.standard_normal(B.dim))):
            np.save(tmp_path / f"{name}_{x}.npy", a)
    src = os.path.dirname(os.path.dirname(asode.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(tmp_path), order],
        env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["kinds"] == [cls.__name__ for _, cls in cases.values()]
    for name, (B, cls) in cases.items():
        fact = factor(B, 0.3)
        assert type(fact) is cls
        rhs, v = (np.load(tmp_path / f"{name}_{x}.npy") for x in ("rhs", "v"))
        for x, here in (("x", fact.solve(rhs)), ("Bv", fact.b_matvec(v))):
            assert np.load(tmp_path / f"{name}_{x}.npy").tobytes() \
                == here.tobytes()
    return got


def test_cold_start_binds_lapack_on_the_first_dense_factor(tmp_path):
    got = _cold_start(tmp_path, "never")
    assert got["loaded"] == []
    assert got["after"] == [False, False]


@pytest.mark.parametrize("order", ["before", "after"])
def test_lapack_routines_are_the_ones_scipy_linalg_exports(tmp_path, order):
    got = _cold_start(tmp_path, order)
    assert got["after"] == [order == "before"] * 2
    assert got["same"] == [True] * 5
    lu, _ = scipy.linalg.lu_factor(np.load(tmp_path / "dense_B.npy"))
    assert np.load(tmp_path / "lu.npy").tobytes() == lu.tobytes()


def test_missing_scipy_linalg_module_raises_import_error():
    with pytest.raises(ImportError, match=(
            rf"scipy {re.escape(scipy.__version__)} has no module "
            r"scipy\.linalg\._no_such_module$")):
        linalg._scipy_linalg_module("_no_such_module")
