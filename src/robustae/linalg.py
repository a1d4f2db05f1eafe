"""Dense matrix kernel: norms, least squares and SVD.

All routines operate on float64 numpy arrays in row-major (C) order and are
pure functions of their inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericalError

__all__ = [
    "frobenius_norm",
    "rmse",
    "svd",
    "least_squares",
]


def frobenius_norm(m) -> float:
    """Square root of the sum of squared entries; 0 for an empty matrix."""
    m = np.asarray(m, dtype=np.float64)
    return float(np.sqrt(np.sum(m * m)))


def rmse(a, b) -> float:
    """Root mean squared element-wise difference of two same-shape arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"rmse: shape mismatch {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    d = a - b
    return float(np.sqrt(np.mean(d * d)))


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD: returns (U, s, V) with m = U @ diag(s) @ V.T.

    Singular values are sorted descending; U and V have orthonormal
    columns. V is returned as a matrix of right singular vectors in
    columns (not transposed).
    """
    m = np.asarray(m, dtype=np.float64)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"svd did not converge: {exc}") from exc
    return u, s, vt.T


def least_squares(design, targets) -> np.ndarray:
    """Minimum-norm least-squares solution of design @ coeffs ~= targets.

    Rank-deficient designs are handled by the SVD pseudoinverse.
    """
    design = np.asarray(design, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if design.ndim != 2:
        raise DimensionError("least_squares: design must be 2-D")
    if targets.shape[0] != design.shape[0]:
        raise DimensionError(
            f"least_squares: {design.shape[0]} rows in design but "
            f"{targets.shape[0]} target rows"
        )
    coeffs, _, _, _ = np.linalg.lstsq(design, targets, rcond=None)
    return coeffs

