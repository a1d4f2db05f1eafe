"""Time series carrier type and the lagged-matrix (Hankel) view.

A series of length C embeds into a B x K sliding-window matrix per
dimension (K = C - B + 1), whose anti-diagonals all read the same
observation. ``fold_rows`` maps a plane fed row by row to its anti-diagonal
means, for ``diagonal_average``'s stored planes and the rank-1 planes
``explain`` never builds alike; ``hankelize`` projects onto Hankel
structure through it, and ``matrix_to_series`` inverts the embedding.

``embed_lagged`` copies nothing: its planes are a read-only view that
aliases the series' values. Copy them to write to them, or to keep them
past a change of the series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, InputError, ParameterError

__all__ = [
    "TimeSeries",
    "LaggedMatrix",
    "embed_lagged",
    "diagonal_average",
    "fold_rows",
    "hankelize",
    "matrix_to_series",
    "default_window_len",
]


@dataclass
class TimeSeries:
    """A C x D sequence of real-valued observations.

    ``labels``, when present, are ground-truth outlier flags used only for
    evaluation, never for training.
    """

    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise DimensionError(f"TimeSeries values must be 1-D or 2-D, got {v.ndim}-D")
        if not np.all(np.isfinite(v)):
            raise InputError("TimeSeries values must be finite")
        self.values = v
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=bool)
            if lab.shape != (v.shape[0],):
                raise DimensionError(
                    f"labels length {lab.shape} does not match series length {v.shape[0]}"
                )
            self.labels = lab

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]


@dataclass
class LaggedMatrix:
    """Per-dimension B x K sliding-window planes of a series, shape (D, B, K).

    Float64 planes are kept as given, views included: those of
    ``embed_lagged`` alias the series and are read-only.
    """

    planes: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.planes, dtype=np.float64)
        if p.ndim == 2:
            p = p[None, :, :]
        if p.ndim != 3:
            raise DimensionError(f"LaggedMatrix planes must be 2-D or 3-D, got {p.ndim}-D")
        self.planes = p


def default_window_len(length: int) -> int:
    """Default window length (ln C)**2, rounded and clamped to (1, C/2)."""
    if length < 5:
        raise ParameterError(f"series length {length} too short for a lagged view")
    return min(int(round(math.log(length) ** 2)), (length - 1) // 2)


def embed_lagged(ts: TimeSeries, window_len: int) -> LaggedMatrix:
    """Embed a series into its lagged matrix with window length B.

    Column j of dimension d holds observations j..j+B-1, so K = C - B + 1
    columns and the Hankel property holds exactly. The planes are a
    read-only view of ``ts.values``, not a copy: copy them to write to
    them or to keep them past a change of the series.
    """
    c = ts.length
    if not 1 < window_len <= c:
        raise ParameterError(
            f"window length must lie in (1, {c}], got {window_len}"
        )
    # sliding_window_view over (C, D) gives (K, D, B); reorder to (D, B, K)
    win = np.lib.stride_tricks.sliding_window_view(ts.values, window_len, axis=0)
    return LaggedMatrix(win.transpose(1, 2, 0))


def fold_rows(rows, b: int, k: int) -> np.ndarray:
    """(C,) anti-diagonal means of a B x K plane given as an iterator over its
    rows. Each sums from 0.0 in increasing-row order. An exactly Hankel plane
    is read from its first column and last row, not averaged: a mean of equal
    entries can differ from them in the last bit.
    """
    acc, firsts, hankel = np.zeros(b + k - 1), np.empty(b), True
    for r, row in enumerate(rows):
        if hankel:
            hankel = r == 0 or np.array_equal(row[:-1], prev[1:])
            firsts[r], prev = row[0], row
        acc[r : r + k] += row
    if hankel:
        return np.concatenate((firsts, prev[1:]))
    m = min(b, k)  # anti-diagonal a has min(a + 1, C - a, m) entries
    acc[: m - 1] /= np.arange(1, m)
    acc[m - 1 : b + k - m] /= m
    acc[b + k - m :] /= np.arange(m - 1, 0, -1)
    return acc


def diagonal_average(planes: np.ndarray) -> np.ndarray:
    """(D, B, K) planes -> (C, D) series, C = B + K - 1: each plane's ``fold_rows``."""
    d, b, k = planes.shape
    out = np.empty((b + k - 1, d))
    for di, plane in enumerate(planes):
        out[:, di] = fold_rows(plane, b, k)
    return out


def hankelize(m: LaggedMatrix | np.ndarray) -> LaggedMatrix:
    """Project onto Hankel structure by replacing each anti-diagonal by its mean.

    Exactly idempotent, linear, and the Frobenius-nearest Hankel matrix to
    the input.
    """
    lm = m if isinstance(m, LaggedMatrix) else LaggedMatrix(m)
    _, b, k = lm.planes.shape
    out = diagonal_average(lm.planes).T[:, np.add.outer(np.arange(b), np.arange(k))]
    for di, plane in enumerate(lm.planes):
        if np.array_equal(out[di], plane):
            # already Hankel: return it unchanged, signed zeros included,
            # which makes the projection exactly idempotent
            out[di] = plane
    return LaggedMatrix(out)


def matrix_to_series(h: LaggedMatrix | np.ndarray) -> TimeSeries:
    """Invert the lagged embedding: read each anti-diagonal's shared value.

    The input must satisfy the Hankel property within a relative 1e-9;
    entries are read, not averaged, so the embed -> invert roundtrip is
    bit-exact.
    """
    lm = h if isinstance(h, LaggedMatrix) else LaggedMatrix(h)
    _, b, k = lm.planes.shape
    idx = np.add.outer(np.arange(b), np.arange(k))
    scale = max(1.0, float(np.max(np.abs(lm.planes))) if lm.planes.size else 1.0)
    # representative entry per anti-diagonal: last row where it appears
    values = np.concatenate((lm.planes[:, :, 0], lm.planes[:, -1, 1:]), axis=1)
    for plane, rep in zip(lm.planes, values):
        dev = np.max(np.abs(plane - rep[idx]))
        if dev > 1e-9 * scale:
            raise ContractError(f"input is not Hankel: anti-diagonal deviation {dev:.3e}")
    return TimeSeries(values.T)
