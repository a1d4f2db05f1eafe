"""Post-hoc explainability scores for a clean series.

Both scores ask how simple a description suffices to reproduce the series
within an RMSE threshold gamma: the minimal polynomial degree
(``es_prm``) or the minimal number of leading singular-spectrum
components (``es_ssa``). Smaller scores mean a simpler, easier-to-read
clean series.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericalError, ParameterError, require_int, require_positive
from .hankel import TimeSeries, default_window_len, embed_lagged, fold_rows
from .hankel import hankelize, matrix_to_series  # traced by name: perfbench/spans.py _patch_table
from .linalg import least_squares, rmse, svd

__all__ = [
    "ExplainabilityResult",
    "fit_polynomial",
    "es_prm",
    "ssa_decompose",
    "es_ssa",
]

DEFAULT_NMAX = 9


@dataclass(frozen=True)
class ExplainabilityResult:
    """Outcome of one explainability scan.

    ``score`` is the smallest order whose fit RMSE drops below ``gamma``,
    or None when no order up to ``n_max`` achieves that.
    ``rmse_by_order`` lists (order, rmse) pairs for the whole scan.
    """

    method: str
    gamma: float
    score: int | None
    rmse_by_order: tuple[tuple[int, float], ...]
    n_max: int

    @property
    def explainable(self) -> bool:
        return self.score is not None

    def to_dict(self) -> dict:
        return {**asdict(self), "explainable": self.explainable}


def fit_polynomial(ts: TimeSeries, degree: int) -> tuple[TimeSeries, float]:
    """Least-squares fit of a degree-N polynomial over time in [0, 1].

    Each dimension is fitted independently; the returned RMSE pools the
    squared errors over all C*D entries.
    """
    if degree < 0:
        raise ParameterError(f"degree must be >= 0, got {degree}")
    if ts.length <= degree:
        raise ParameterError(f"series length {ts.length} must exceed degree {degree}")
    return _fit(ts, _powers(ts.length, degree))


def _powers(c: int, degree: int) -> np.ndarray:
    """The (c, degree + 1) design of powers 0..degree of c times in [0, 1]."""
    return np.vander(np.linspace(0.0, 1.0, c), degree + 1, increasing=True)


def _fit(ts: TimeSeries, design: np.ndarray) -> tuple[TimeSeries, float]:
    coeffs = least_squares(design, ts.values)
    fitted = design @ coeffs
    return TimeSeries(fitted), rmse(fitted, ts.values)


def _scan(method: str, gamma: float, n_max: int, pairs) -> ExplainabilityResult:
    """Score a scan: the smallest order >= 1 whose RMSE drops below gamma.

    ``pairs`` lazily yields the scan's (order, rmse) pairs in increasing
    order, so no fit runs before gamma and n_max are checked.
    """
    require_positive(gamma, "gamma")
    n_max = require_int(n_max, "n_max", 1)
    # an overflowed RMSE is refused below, so numpy need not warn of it first
    with np.errstate(over="ignore", invalid="ignore"):
        curve = tuple(pairs)
    if not np.isfinite([err for _, err in curve]).all():
        raise NumericalError(f"{method} scan RMSE is not finite: the series is too large; "
                             "z-normalize it first (explain --normalize)")
    score = next((n for n, err in curve if n >= 1 and err < gamma), None)
    return ExplainabilityResult(method, float(gamma), score, curve, n_max)


def es_prm(
    clean: TimeSeries, gamma: float, n_max: int = DEFAULT_NMAX
) -> ExplainabilityResult:
    """Minimal polynomial degree fitting the series within gamma.

    Degrees 1..n_max are scanned in order; the degree-0 (constant) RMSE is
    reported in the curve but does not count as a score.
    """

    def pairs():
        # the scan fits every degree up to n_max, so a series too short for the
        # last is refused before the first fit (after _scan's checks)
        if clean.length <= n_max:
            raise ParameterError(f"series length {clean.length} must exceed n_max {n_max}")
        # a power's column is the same in any wider design, so degree d fits on
        # the first d + 1 columns of the last degree's
        design = _powers(clean.length, n_max)
        for degree in range(n_max + 1):
            yield degree, _fit(clean, design[:, : degree + 1])[1]

    return _scan("prm", gamma, n_max, pairs())


def _leading_triple(plane: np.ndarray, n: int | None):
    """SVD of one plane with only its ``n`` leading right vectors kept (all for
    None): a dimension gives at most n components, and a copy of the slice
    frees the full V before the next dimension's SVD."""
    u, s, v = svd(plane)
    return u, s, v if n is None else v[:, :n].copy()


def _leading_components(ts: TimeSeries, window_len: int | None, n: int | None) -> list[TimeSeries]:
    """The ``n`` leading spectrum components (all of them for None), each the
    ``fold_rows`` of its rank-1 plane's rows, made one at a time."""
    b = (default_window_len(ts.length) if window_len is None
         else require_int(window_len, "window_len"))
    triples = [_leading_triple(plane, n) for plane in embed_lagged(ts, b).planes]
    tagged = [(float(sigma), dim, i) for dim, (_, s, _) in enumerate(triples)
              for i, sigma in enumerate(s[:n])]
    # stable, so equal singular values keep (dimension, index) order
    tagged.sort(key=lambda item: -item[0])
    components = []
    for _, dim, i in tagged[:n]:
        u, s, v = triples[dim]
        us, vi = u[:, i] * s[i], v[:, i]
        values = np.zeros_like(ts.values)
        values[:, dim] = fold_rows((x * vi for x in us), b, vi.size)
        components.append(TimeSeries(values))
    return components


def ssa_decompose(
    ts: TimeSeries, window_len: int | None = None
) -> list[TimeSeries]:
    """Singular-spectrum components ordered by decreasing singular value.

    Per dimension, the series embeds into its lagged matrix, each singular
    triple becomes a rank-1 matrix, and anti-diagonal averaging maps it
    back to series form. For multivariate input each component lives in a
    single dimension (zero elsewhere) and the ordering is global across
    dimensions. Components sum to the input.
    """
    return _leading_components(ts, window_len, None)


def es_ssa(
    clean: TimeSeries,
    gamma: float,
    n_max: int = DEFAULT_NMAX,
    window_len: int | None = None,
) -> ExplainabilityResult:
    """Minimal number of leading spectrum components fitting within gamma."""

    def pairs():
        partial = np.zeros_like(clean.values)
        for n, comp in enumerate(_leading_components(clean, window_len, n_max), start=1):
            partial += comp.values
            yield n, rmse(partial, clean.values)

    return _scan("ssa", gamma, n_max, pairs())
