"""Robust decomposition trainers and outlier scoring.

Each trainer splits a series T into clean + outlier parts under the
constraint T = clean + outlier. Every trainer is built from one kernel,
``_alternate``: refit a reconstruction network on T - S, take its
reconstruction L, then l1-shrink the residual T - L into the next S. This
is the robust deep autoencoder of Zhou & Paffenroth (KDD 2017). Without a
shrinkage weight the same kernel is the plain reconstruction baseline: S
stays zero and the loop stops once L stops changing.

``train(ts, method, cfg)`` is the one entry point; ``TRAIN_METHODS`` lists
the methods it accepts:

* ``rae`` (RaeConfig): the kernel on flat windows of the series.
* ``rdae`` (RdaeConfig): a dual scheme. Each pass of an enclosing loop
  embeds T - S as a lagged matrix, smooths its columns with a network f1
  (one kernel iteration without shrinkage), runs the kernel on the smoothed
  columns, maps the matrix split back to series form by Hankel averaging,
  and runs the kernel again on windows of the series with a network f2.
  The loop stops once the norm of the outlier part stabilizes.
* ``nrae`` and ``nrdae``: the same two architectures without shrinkage, in
  a single pass where each stage, smoothing included, trains until its
  reconstruction stabilizes.
* ``rdae-f1``, ``rdae-f2`` and ``rdae-f1f2``: ablations of ``rdae`` with
  the smoothing network, the series stage, or both replaced by identity.

Every network refit, f1's included, goes through ``_alternate``, so verbose
lines and numerical errors name the stage the same way for every method:
``rae``, ``nrae``, ``<tag>/smoothing``, ``<tag>/matrix`` and
``<tag>/series`` with tag ``rdae`` or ``nrdae``.

``loss_trace`` records the reconstruction RMSE of each kernel iteration of
the last stage: the series stage for rae, nrae, rdae, rdae-f1 and nrdae,
and the matrix stage for rdae-f2 and rdae-f1f2.

Inputs are z-normalized internally; outputs are returned in the original
units.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .data import NormalizationStats, denormalize, znormalize
from .errors import InputError, NumericalError, ParameterError, require_int, require_positive
from .hankel import TimeSeries, default_window_len, diagonal_average, embed_lagged
from .hankel import hankelize, matrix_to_series  # traced by name: perfbench/spans.py _patch_table
from .linalg import frobenius_norm, rmse
from .nn import AutoencoderConfig, AutoencoderModel, default_layer_dims
from .prox import soft_threshold

__all__ = [
    "RaeConfig",
    "RdaeConfig",
    "Decomposition",
    "train",
    "outlier_scores",
    "TRAIN_METHODS",
]


def _check_trainer(cfg, minimums: dict[str, int]) -> None:
    """The checks RaeConfig and RdaeConfig share: each integer field in
    ``minimums``, and window_len and seed, holds an int no smaller than its
    minimum, and epsilon is positive."""
    for name, low in {**minimums, "window_len": 2, "seed": 0}.items():
        object.__setattr__(cfg, name, require_int(getattr(cfg, name), name, low))
    require_positive(cfg.epsilon, "epsilon")


@dataclass(frozen=True)
class RaeConfig:
    """Hyperparameters of the single-autoencoder trainer.

    ``lam`` weights the l1 sparsity of the outlier part; the series is
    sliced into every flat window of ``window_len`` consecutive steps for
    the fully-connected network. ``ae`` may be left None to derive a
    default network shape from the window size.
    """

    lam: float = 5e-2
    epsilon: float = 1e-5
    max_outer_iters: int = 200
    window_len: int = 32
    seed: int = 0
    ae: AutoencoderConfig | None = None

    def __post_init__(self):
        _check_trainer(self, {"max_outer_iters": 1})
        require_positive(self.lam, "lam")


@dataclass(frozen=True)
class RdaeConfig:
    """Hyperparameters of the dual-autoencoder trainer.

    ``lagged_window`` is the lagged-matrix window length B (defaults to
    round((ln C)^2), clamped into (1, C/2)); ``lam1``/``lam2`` weight the
    matrix-view and series-view sparsity. The three networks may be left
    None to derive default shapes.
    """

    lagged_window: int | None = None
    lam1: float = 5e-2
    lam2: float = 5e-2
    epsilon: float = 1e-5
    max_outer_iters: int = 200
    max_while_iters: int = 10
    window_len: int = 32
    seed: int = 0
    f1: AutoencoderConfig | None = None
    inner_ae: AutoencoderConfig | None = None
    f2: AutoencoderConfig | None = None

    def __post_init__(self):
        caps = {"max_outer_iters": 1, "max_while_iters": 1}
        _check_trainer(self, caps if self.lagged_window is None else {**caps, "lagged_window": 2})
        require_positive(self.lam1, "lam1")
        require_positive(self.lam2, "lam2")


@dataclass
class Decomposition:
    """Result of a trainer run: T = clean + outlier in the input's units.

    ``final_residuals`` holds (condition1, condition2) evaluated on the
    returned pair: the relative constraint violation and the relative
    change against the previous iterate. ``loss_trace`` records the
    network reconstruction RMSE once per alternation step. ``models``
    carries the trained networks by role for persistence.
    """

    clean: TimeSeries
    outlier: TimeSeries
    iterations_run: int
    final_residuals: tuple[float, float]
    loss_trace: list[float] = field(default_factory=list)
    models: dict[str, AutoencoderModel] = field(default_factory=dict)


def outlier_scores(d: Decomposition) -> np.ndarray:
    """Per-observation score: squared l2 norm of the outlier-series row."""
    v = d.outlier.values
    return np.sum(v * v, axis=1)


# ---------------------------------------------------------------------------
# windowed view of a series for the fully-connected networks


class _SeriesWindower:
    """Slice a (C, D) series into its C - w + 1 flat (w*D) windows and fold back.

    The windows are the lagged embedding with B = w, so overlapping window
    reconstructions are averaged per timestep by ``diagonal_average``.
    """

    def __init__(self, length: int, dims: int, window_len: int):
        if length <= window_len:
            raise InputError(
                f"series length {length} must exceed window length {window_len}"
            )
        self.dims = dims
        self.window_len = window_len
        self.input_dim = window_len * dims

    def batch(self, values: np.ndarray) -> np.ndarray:
        # (K, D, w) view -> (K, w, D) rows, copied: the view's rows overlap
        win = np.lib.stride_tricks.sliding_window_view(values, self.window_len, axis=0)
        return np.ascontiguousarray(win.transpose(0, 2, 1)).reshape(-1, self.input_dim)

    def fold(self, outputs: np.ndarray) -> np.ndarray:
        # diagonal_average sums each timestep from its first plane row down;
        # flipped along both axes, that row holds the earliest window, so each
        # timestep sums its windows in window order
        planes = outputs.reshape(-1, self.window_len, self.dims).transpose(2, 1, 0)
        return diagonal_average(planes[:, ::-1, ::-1])[::-1]


def _column_batch(planes: np.ndarray) -> np.ndarray:
    """(D, B, K) lagged planes -> (K, B*D) window-column samples, a C-ordered
    copy: the planes may be a read-only view of the series."""
    d, b, k = planes.shape
    return np.ascontiguousarray(planes.transpose(2, 1, 0).reshape(k, b * d))


def _batch_to_series(batch: np.ndarray, dims: int, window_len: int) -> np.ndarray:
    """(K, B*D) window columns -> (C, D) series by anti-diagonal averaging."""
    return diagonal_average(batch.reshape(-1, window_len, dims).transpose(2, 1, 0))


def _child_seeds(seed: int, n: int) -> list[int]:
    ss = np.random.SeedSequence(seed)
    return [int(c.generate_state(1, dtype=np.uint64)[0]) for c in ss.spawn(n)]


def _network(
    user_cfg: AutoencoderConfig | None, input_dim: int, seed: int, thin: bool = False
) -> AutoencoderModel:
    """The network of ``user_cfg``, or of a default shape for ``input_dim`` and ``seed``."""
    if user_cfg is not None:
        if user_cfg.input_dim != input_dim:
            raise ParameterError(
                f"network input_dim {user_cfg.input_dim} does not match "
                f"expected width {input_dim}"
            )
        return AutoencoderModel(user_cfg)
    if thin:
        # single mildly narrowed hidden layer: smoothing, not compression
        dims = (max(2, round(0.75 * input_dim)),)
    else:
        dims = default_layer_dims(input_dim)
    return AutoencoderModel(AutoencoderConfig(input_dim=input_dim, layer_dims=dims, seed=seed))


def _identity(a: np.ndarray) -> np.ndarray:
    return a


def _alternate(
    x: np.ndarray,
    s: np.ndarray,
    model: AutoencoderModel,
    lam: float | None,
    eps: float,
    cap: int,
    norm: float,
    stage: str,
    verbose: bool,
    to_batch=_identity,
    from_batch=_identity,
) -> tuple[np.ndarray, np.ndarray, int, list[float]]:
    """Refit ``model`` on x - S and shrink the residual into S, up to ``cap`` times.

    ``to_batch``/``from_batch`` map between the layout of x and the
    network's (n, width) batches. With ``lam`` set, each iteration takes the
    reconstruction L, sets S = soft_threshold(x - L, lam), and stops once
    condition 1 (||x - L - S||) or condition 2 (the change of L + S), both
    relative to ``norm``, drops below ``eps``. With ``lam=None`` S stays as
    given (zero) and the loop stops once the change of L drops below
    ``eps``; with no previous L that change is inf, so it never stops on
    its first iteration. Returns (L, S, iterations, the reconstruction RMSE
    of each iteration). The model's workspace is released when the stage
    ends, raise or not, so networks of different stages never hold one at once.
    """
    losses: list[float] = []
    star = x  # the previous L + S, or the previous L without shrinkage
    try:
        for it in range(1, cap + 1):
            target = x - s
            batch = to_batch(target)
            try:
                model.train(batch)
            except NumericalError as exc:
                raise NumericalError(f"{stage} iteration {it}: {exc}") from exc
            recon = from_batch(model.forward(batch))
            losses.append(rmse(target, recon))
            if lam is None:
                cond1 = 0.0
                cond2 = np.inf if it == 1 else frobenius_norm(recon - star) / norm
                star = recon
                done = cond2 < eps
            else:
                s = soft_threshold(x - recon, lam)
                if not np.all(np.isfinite(s)):
                    raise NumericalError(f"non-finite iterate at {stage} iteration {it}")
                cond1 = frobenius_norm(x - recon - s) / norm
                cond2 = frobenius_norm(star - recon - s) / norm
                star = recon + s
                done = cond1 < eps or cond2 < eps
            if verbose:
                sys.stderr.write(
                    f"[{stage}] iter={it} loss={losses[-1]:.6f} "
                    f"cond1={cond1:.3e} cond2={cond2:.3e}\n"
                )
            if done:
                break
    finally:
        model.release()
    return recon, s, it, losses


def _finish(
    values: np.ndarray,
    t_norm: float,
    robust: bool,
    stats: NormalizationStats,
    recon: np.ndarray,
    s: np.ndarray,
    iterations: int,
    trace: list[float],
    models: dict[str, AutoencoderModel],
) -> Decomposition:
    if robust:
        # the loop's own constraint-enforcement step, applied once at exit so
        # the returned pair satisfies T = clean + outlier
        clean = values - s
        residuals = (
            frobenius_norm(values - clean - s) / t_norm,
            frobenius_norm(recon + s - clean - s) / t_norm,
        )
    else:
        # T - (T - L) is not bit-equal to L, so the baseline keeps L itself
        clean, s = recon, values - recon
        residuals = (0.0, 0.0)
    return Decomposition(
        denormalize(TimeSeries(clean), stats),
        TimeSeries(s * stats.std),
        iterations,
        residuals,
        trace,
        models,
    )


# ---------------------------------------------------------------------------
# trainers: each takes the z-normalized series and its norm, and returns the
# arguments of _finish that follow them: (L, S, iterations, loss trace, models)


def _train_series(values: np.ndarray, t_norm: float, cfg: RaeConfig, robust: bool, verbose: bool):
    c, d = values.shape
    windower = _SeriesWindower(c, d, cfg.window_len)
    model = _network(cfg.ae, windower.input_dim, _child_seeds(cfg.seed, 1)[0])
    recon, s, iterations, trace = _alternate(
        values, np.zeros_like(values), model, cfg.lam if robust else None, cfg.epsilon,
        cfg.max_outer_iters, t_norm, "rae" if robust else "nrae", verbose,
        windower.batch, windower.fold,
    )
    return recon, s, iterations, trace, {"ae": model}


def _resolve_lagged_window(cfg: RdaeConfig, length: int) -> int:
    b = cfg.lagged_window
    if b is None:
        return default_window_len(length)
    if not 1 < b < length / 2:
        raise ParameterError(
            f"lagged_window must lie in (1, {length / 2:g}), got {b}"
        )
    return b


def _train_dual(
    values: np.ndarray,
    t_norm: float,
    cfg: RdaeConfig,
    use_f1: bool,
    use_f2: bool,
    robust: bool,
    verbose: bool,
):
    c, d = values.shape
    b = _resolve_lagged_window(cfg, c)
    seeds = _child_seeds(cfg.seed, 3)
    f1 = _network(cfg.f1, b * d, seeds[0], thin=True) if use_f1 else None
    inner = _network(cfg.inner_ae, b * d, seeds[1])
    windower = f2 = None
    if use_f2:
        windower = _SeriesWindower(c, d, cfg.window_len)
        f2 = _network(cfg.f2, windower.input_dim, seeds[2])

    tag = "rdae" if robust else "nrdae"
    lam1, lam2 = (cfg.lam1, cfg.lam2) if robust else (None, None)
    # the baseline makes one pass and trains each stage until its
    # reconstruction stabilizes, under a cap matching the robust nested loops
    passes, cap = (
        (cfg.max_while_iters, cfg.max_outer_iters)
        if robust
        else (1, cfg.max_while_iters * cfg.max_outer_iters)
    )
    t_s = np.zeros_like(values)
    s_batch = np.zeros((c - b + 1, b * d))
    trace: list[float] = []
    prev_outlier_norm: float | None = None
    for wit in range(1, passes + 1):
        m_batch = _column_batch(embed_lagged(TimeSeries(values - t_s), b).planes)
        if f1 is None:
            mhat = m_batch
        else:
            # a robust pass refits f1 once; the baseline until it stabilizes
            mhat = _alternate(
                m_batch, np.zeros_like(m_batch), f1, None, cfg.epsilon, 1 if robust else cap,
                frobenius_norm(m_batch), f"{tag}/smoothing", verbose,
            )[0]
        mhat_norm = frobenius_norm(mhat)
        if mhat_norm == 0.0:
            l_batch = s_batch = np.zeros_like(mhat)
        else:
            l_batch, s_batch, _, losses = _alternate(
                mhat, s_batch, inner, lam1, cfg.epsilon, cap, mhat_norm,
                f"{tag}/matrix", verbose,
            )
            if f2 is None:
                trace += losses
        t_l = _batch_to_series(l_batch, d, b)
        t_s = _batch_to_series(s_batch, d, b)
        if f2 is not None:
            t_l, t_s, series_iters, losses = _alternate(
                values if robust else t_l, t_s, f2, lam2, cfg.epsilon, cap, t_norm,
                f"{tag}/series", verbose, windower.batch, windower.fold,
            )
            trace += losses
        outlier_norm = frobenius_norm(t_s)
        if prev_outlier_norm is not None:
            change = abs(outlier_norm - prev_outlier_norm) / max(prev_outlier_norm, 1e-12)
            if change < cfg.epsilon:
                break
        prev_outlier_norm = outlier_norm
    models = {
        role: model
        for role, model in (("inner_ae", inner), ("f1", f1), ("f2", f2))
        if model is not None
    }
    # a robust run counts passes, the baseline its series-stage iterations
    iterations = wit if robust else series_iters
    return t_l, t_s, iterations, trace, models


# method -> (config type, use_f1, use_f2, robust); an RdaeConfig selects the
# dual trainer, whose smoothing network f1 and series stage f2 the flags keep
_METHODS = {
    "rae": (RaeConfig, False, False, True),
    "rdae": (RdaeConfig, True, True, True),
    "nrae": (RaeConfig, False, False, False),
    "nrdae": (RdaeConfig, True, True, False),
    "rdae-f1": (RdaeConfig, False, True, True),
    "rdae-f2": (RdaeConfig, True, False, True),
    "rdae-f1f2": (RdaeConfig, False, False, True),
}
TRAIN_METHODS = tuple(_METHODS)


@np.errstate(over="ignore", invalid="ignore")
def train(ts: TimeSeries, method: str, cfg, verbose: bool = False) -> Decomposition:
    """Decompose ``ts`` with the trainer ``method`` names (one of TRAIN_METHODS).

    ``rae`` and ``nrae`` take a RaeConfig, every other method an RdaeConfig;
    an unknown name or a config of the wrong type raises ParameterError.
    With ``verbose`` each kernel iteration logs one line to stderr.
    """
    if method not in _METHODS:
        raise ParameterError(f"unknown method {method!r}; expected one of {TRAIN_METHODS}")
    config_type, use_f1, use_f2, robust = _METHODS[method]
    if not isinstance(cfg, config_type):
        raise ParameterError(
            f"method {method!r} takes a {config_type.__name__}, not {type(cfg).__name__}"
        )
    norm_ts, stats = znormalize(ts)
    values = norm_ts.values
    t_norm = frobenius_norm(values)
    if t_norm == 0.0:
        # a zero or constant series: nothing to fit, and no outliers
        zeros = TimeSeries(np.zeros_like(values))
        return Decomposition(denormalize(zeros, stats), zeros, 0, (0.0, 0.0))
    if config_type is RaeConfig:
        parts = _train_series(values, t_norm, cfg, robust, verbose)
    else:
        parts = _train_dual(values, t_norm, cfg, use_f1, use_f2, robust, verbose)
    return _finish(values, t_norm, robust, stats, *parts)
