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


def _validate(scores, labels):
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
    return scores, labels


def roc_auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties at 1/2.

    Computed from mid-ranks, which is exactly the Mann-Whitney pair count.
    """
    scores, labels = _validate(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("ROC AUC needs at least one positive and one negative")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # mid-rank, 1-based
        i = j + 1
    pos_rank_sum = float(ranks[labels].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def pr_auc(scores, labels) -> float:
    """Average precision over descending unique-score thresholds.

    AP = sum over thresholds of precision * recall-increment, with tied
    scores processed as one block and no interpolation between points.
    """
    scores, labels = _validate(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise EvaluationError("PR AUC needs at least one positive label")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order].astype(np.float64)
    # block boundaries: last index of each run of equal scores
    boundary = np.nonzero(np.diff(sorted_scores))[0]
    block_ends = np.append(boundary, scores.size - 1)
    tp = np.cumsum(sorted_labels)[block_ends]
    predicted = block_ends + 1.0
    precision = tp / predicted
    recall_step = np.diff(np.concatenate(([0.0], tp))) / n_pos
    return float(np.sum(precision * recall_step))


def evaluate(scores, labels) -> EvalResult:
    """Both AUCs plus the class counts."""
    scores, labels = _validate(scores, labels)
    n_pos = int(labels.sum())
    return EvalResult(
        pr_auc=pr_auc(scores, labels),
        roc_auc=roc_auc(scores, labels),
        n_positives=n_pos,
        n_negatives=labels.size - n_pos,
    )
