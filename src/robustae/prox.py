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
    # max(|x| - lam, 0) is built in the output, then sign(x) multiplies in
    # from the left as written; copysign would give -0.0 for x = -0.0, where
    # sign(-0.0) * 0.0 gives +0.0
    out = np.abs(x, out=np.empty_like(x))
    np.subtract(out, lam, out=out)
    np.maximum(out, 0.0, out=out)
    return np.multiply(np.sign(x), out, out=out)
