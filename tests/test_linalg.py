"""Factorization tests with an independent full-pivot elimination oracle."""

import numpy as np
import pytest

from asode.exceptions import DimensionMismatch, SingularMatrix
from asode.linalg import DenseMatrix, DiagonalMatrix, factor


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
    # D = [[-1, -1], [1, 1]] is singular
    with pytest.raises(SingularMatrix):
        factor(B, c)


def test_non_finite_matrix_raises():
    with pytest.raises(SingularMatrix):
        factor(DiagonalMatrix(np.array([np.nan, 1.0])), 0.5)
    with pytest.raises(SingularMatrix):
        factor(DenseMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]])), 0.5)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        DiagonalMatrix(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        DenseMatrix(np.zeros((2, 3)))
    f = factor(DiagonalMatrix(np.array([-1.0, -2.0])), 0.5)
    with pytest.raises(DimensionMismatch):
        f.solve(np.zeros(3))
    fd = factor(DenseMatrix(np.eye(2)), 0.5)
    with pytest.raises(DimensionMismatch):
        fd.solve(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        DiagonalMatrix(np.array([-1.0, -2.0])).matvec(np.zeros(3))


def test_matvec():
    d = DiagonalMatrix(np.array([2.0, -3.0]))
    assert np.array_equal(d.matvec(np.array([1.0, 1.0])), [2.0, -3.0])
    m = DenseMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert np.array_equal(m.matvec(np.array([1.0, 1.0])), [3.0, 1.0])
    assert np.array_equal(d.as_dense(), np.diag([2.0, -3.0]))
