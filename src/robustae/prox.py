"""Proximal operator for the sparse penalty.

``soft_threshold`` is the exact element-wise minimizer of
0.5*(z - x)**2 + lam*|z| (l1 penalty).
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

__all__ = ["soft_threshold"]


def soft_threshold(x, lam: float) -> np.ndarray:
    """Shrink each element toward zero by lam: sign(x) * max(|x| - lam, 0)."""
    lam = float(lam)
    if lam < 0 or not np.isfinite(lam):
        raise ParameterError(f"threshold must be a finite nonnegative real, got {lam}")
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)
