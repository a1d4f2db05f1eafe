import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustae.errors import DimensionError
from robustae.linalg import (
    frobenius_norm,
    least_squares,
    rmse,
    svd,
)


def test_frobenius_zero_matrix():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0


def test_frobenius_three_four_five():
    assert frobenius_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)


def test_frobenius_sqrt30():
    # direct sum-of-squares oracle: 1+4+9+16 = 30
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert frobenius_norm(m) == pytest.approx(np.sqrt(30.0), abs=1e-12)


def test_frobenius_empty():
    assert frobenius_norm(np.zeros((0, 3))) == 0.0


def test_rmse_identity():
    a = np.array([[1.0, -2.0], [0.5, 3.0]])
    assert rmse(a, a) == 0.0


def test_rmse_constant_offset():
    assert rmse(np.ones(4), 2 * np.ones(4)) == pytest.approx(1.0)


def test_rmse_hand_value():
    # sqrt((9 + 16) / 2)
    assert rmse(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(
        3.5355339059327378, abs=1e-12
    )


def test_rmse_shape_mismatch():
    with pytest.raises(DimensionError):
        rmse(np.zeros((2, 2)), np.zeros((2, 3)))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
@settings(max_examples=30, deadline=None)
def test_rmse_symmetry_and_triangle(seed, n):
    rng = np.random.default_rng(seed)
    a, b, c = rng.standard_normal((3, n))
    assert rmse(a, b) == pytest.approx(rmse(b, a), abs=0)
    assert rmse(a, c) <= rmse(a, b) + rmse(b, c) + 1e-12


def test_svd_identity():
    _, s, _ = svd(np.eye(2))
    assert np.allclose(s, [1.0, 1.0])


def test_svd_diagonal():
    u, s, v = svd(np.diag([3.0, 1.0]))
    assert np.allclose(s, [3.0, 1.0])
    # permutation-signed identity factors
    assert np.allclose(np.abs(u), np.eye(2), atol=1e-12)
    assert np.allclose(np.abs(v), np.eye(2), atol=1e-12)


def test_svd_rank_one():
    # eigenvalues of m^T m = [[1,1],[1,1]] are 2 and 0
    _, s, _ = svd(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert s[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert s[1] == pytest.approx(0.0, abs=1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 20),
    cols=st.integers(1, 20),
)
@settings(max_examples=40, deadline=None)
def test_svd_reconstruction_and_orthogonality(seed, rows, cols):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols))
    u, s, v = svd(m)
    recon = u @ np.diag(s) @ v.T
    denom = max(frobenius_norm(m), 1e-300)
    assert frobenius_norm(recon - m) / denom < 1e-8
    k = s.size
    assert np.max(np.abs(u.T @ u - np.eye(k))) < 1e-8
    assert np.max(np.abs(v.T @ v - np.eye(k))) < 1e-8
    assert np.all(np.diff(s) <= 0)
    assert np.all(s >= 0)


def test_least_squares_identity_design():
    t = np.array([[1.0], [2.0], [3.0]])
    coeffs = least_squares(np.eye(3), t)
    assert np.allclose(coeffs, t)


def test_least_squares_exact_line():
    design = np.array([[1.0, 0.0], [1.0, 1.0]])
    targets = np.array([[1.0], [3.0]])
    coeffs = least_squares(design, targets)
    assert np.allclose(coeffs.ravel(), [1.0, 2.0])


def test_least_squares_overdetermined():
    # normal equations by hand: intercept 1/6, slope 1/2
    design = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    targets = np.array([0.0, 1.0, 1.0])
    coeffs = least_squares(design, targets)
    assert coeffs[0] == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert coeffs[1] == pytest.approx(0.5, abs=1e-12)


def test_least_squares_rank_deficient_minimum_norm():
    # duplicate columns: the minimum-norm solution splits the weight evenly
    design = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    targets = np.array([2.0, 4.0, 6.0])
    coeffs = least_squares(design, targets)
    assert np.allclose(coeffs, [1.0, 1.0])


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(3, 15),
    cols=st.integers(1, 3),
)
@settings(max_examples=30, deadline=None)
def test_least_squares_residual_orthogonality(seed, rows, cols):
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((rows, cols))
    targets = rng.standard_normal((rows, 2))
    coeffs = least_squares(design, targets)
    residual = design @ coeffs - targets
    assert np.max(np.abs(design.T @ residual)) < 1e-8
