"""Robust autoencoder decomposition of time series.

Splits a series into a clean part plus a sparse outlier part, scores
observations by the outlier part's magnitude, evaluates detection accuracy
threshold-free, and quantifies how simply the clean part can be described.
"""

from .data import (
    NormalizationStats,
    SynthConfig,
    denormalize,
    generate_synthetic,
    load_csv,
    load_decomposition,
    load_model,
    save_csv,
    save_decomposition,
    save_model,
    znormalize,
)
from .decompose import (
    Decomposition,
    RaeConfig,
    RdaeConfig,
    TRAIN_METHODS,
    outlier_scores,
    train,
)
from .explain import (
    ExplainabilityResult,
    es_prm,
    es_ssa,
    fit_polynomial,
    ssa_decompose,
)
from .hankel import (
    LaggedMatrix,
    TimeSeries,
    default_window_len,
    embed_lagged,
    hankelize,
    matrix_to_series,
)
from .metrics import EvalResult, evaluate, pr_auc, roc_auc
from .nn import AutoencoderConfig, AutoencoderModel
from .prox import soft_threshold

__version__ = "0.1.0"

__all__ = [
    "AutoencoderConfig",
    "AutoencoderModel",
    "Decomposition",
    "EvalResult",
    "ExplainabilityResult",
    "LaggedMatrix",
    "NormalizationStats",
    "RaeConfig",
    "RdaeConfig",
    "SynthConfig",
    "TRAIN_METHODS",
    "TimeSeries",
    "default_window_len",
    "denormalize",
    "embed_lagged",
    "es_prm",
    "es_ssa",
    "evaluate",
    "fit_polynomial",
    "generate_synthetic",
    "hankelize",
    "load_csv",
    "load_decomposition",
    "load_model",
    "matrix_to_series",
    "outlier_scores",
    "pr_auc",
    "roc_auc",
    "save_csv",
    "save_decomposition",
    "save_model",
    "soft_threshold",
    "ssa_decompose",
    "train",
    "znormalize",
    "__version__",
]
