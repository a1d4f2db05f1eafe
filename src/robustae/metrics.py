"""Threshold-free detection accuracy: ROC AUC and average-precision PR AUC.

Both metrics sweep every score cutoff. Ties are handled as blocks: equal
scores enter the confusion matrix together, and tied positive/negative
pairs contribute half credit to the ROC statistic (the Mann-Whitney
convention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EvaluationError

__all__ = ["EvalResult", "roc_auc", "pr_auc", "evaluate"]


@dataclass(frozen=True)
class EvalResult:
    pr_auc: float
    roc_auc: float
    n_positives: int
    n_negatives: int


def _blocks(scores, labels):
    """Validate, rank the scores in one stable descending order, and return for
    each block of tied scores its last index in that order and the number of
    positives ranked at or above it."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel().astype(bool)
    if scores.shape != labels.shape:
        raise DimensionError(
            f"scores length {scores.size} != labels length {labels.size}"
        )
    if scores.size == 0:
        raise EvaluationError("empty inputs")
    if np.isnan(scores).any():
        raise EvaluationError("scores contain NaN, which has no rank")
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    # compared, not differenced: inf - inf is nan, which would split tied infinities
    ends = np.append(np.nonzero(ranked[1:] != ranked[:-1])[0], scores.size - 1)
    tp = np.cumsum(labels[order].astype(np.float64))[ends]
    return ends, tp


def _pr(ends, tp) -> float:
    n_pos = tp[-1]
    if n_pos == 0:
        raise EvaluationError("PR AUC needs at least one positive label")
    precision = tp / (ends + 1.0)
    recall_step = np.diff(tp, prepend=0.0) / n_pos
    return float(np.sum(precision * recall_step))


def _roc(ends, tp) -> float:
    n = int(ends[-1]) + 1
    n_pos = int(tp[-1])
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("ROC AUC needs at least one positive and one negative")
    starts = np.concatenate(([0], ends[:-1] + 1))
    # 1-based mid-rank of each block in ascending order
    mid_rank = 0.5 * ((n - 1 - ends) + (n - 1 - starts)) + 1.0
    pos_rank_sum = float(np.sum(np.diff(tp, prepend=0.0) * mid_rank))
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties at 1/2.

    Computed from mid-ranks, which is exactly the Mann-Whitney pair count.
    """
    return _roc(*_blocks(scores, labels))


def pr_auc(scores, labels) -> float:
    """Average precision over descending unique-score thresholds.

    AP = sum over thresholds of precision * recall-increment, with tied
    scores processed as one block and no interpolation between points.
    """
    return _pr(*_blocks(scores, labels))


def evaluate(scores, labels) -> EvalResult:
    """Both AUCs plus the class counts."""
    ends, tp = _blocks(scores, labels)
    n_pos = int(tp[-1])
    return EvalResult(
        pr_auc=_pr(ends, tp),
        roc_auc=_roc(ends, tp),
        n_positives=n_pos,
        n_negatives=int(ends[-1]) + 1 - n_pos,
    )
