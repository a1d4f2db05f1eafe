import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustae.errors import DimensionError, EvaluationError
from robustae.metrics import evaluate, pr_auc, roc_auc


def brute_force_roc(scores, labels):
    """Oracle: explicit pair counting with half credit for ties."""
    pos = scores[labels]
    neg = scores[~labels]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def exhaustive_threshold_ap(scores, labels):
    """Oracle: sweep every unique score as a threshold, sum P * dR."""
    n_pos = labels.sum()
    ap = 0.0
    prev_recall = 0.0
    for thr in sorted(set(scores), reverse=True):
        predicted = scores >= thr
        tp = int((predicted & labels).sum())
        precision = tp / int(predicted.sum())
        recall = tp / n_pos
        ap += precision * (recall - prev_recall)
        prev_recall = recall
    return ap


def test_roc_perfect_separation():
    assert roc_auc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0


def test_roc_half():
    # pairs: (0.9 vs 0.6) correct, (0.4 vs 0.6) wrong
    assert roc_auc([0.9, 0.6, 0.4], [1, 0, 1]) == pytest.approx(0.5)


def test_roc_all_ties():
    assert roc_auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == pytest.approx(0.5)


def test_roc_single_class_rejected():
    with pytest.raises(EvaluationError):
        roc_auc([0.1, 0.2], [1, 1])
    with pytest.raises(EvaluationError):
        roc_auc([0.1, 0.2], [0, 0])


@pytest.mark.parametrize("auc", [roc_auc, pr_auc])
def test_scores_and_labels_of_other_lengths_or_empty_are_refused(auc):
    with pytest.raises(DimensionError, match="scores length 3 != labels length 2"):
        auc([0.1, 0.2, 0.3], [1, 0])
    with pytest.raises(EvaluationError, match="empty inputs"):
        auc([], [])


def test_pr_perfect():
    assert pr_auc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0


def test_pr_hand_enumeration():
    # precisions 0 (r=0), 1/2 at r=1/2, 2/3 at r=1 -> 1/2*1/2 + 2/3*1/2
    assert pr_auc([0.9, 0.8, 0.7], [0, 1, 1]) == pytest.approx(7.0 / 12.0, abs=1e-12)


def test_pr_zero_positives_rejected():
    with pytest.raises(EvaluationError):
        pr_auc([0.5, 0.6], [0, 0])


def test_pr_random_scores_match_prevalence():
    rng = np.random.default_rng(42)
    n = 10_000
    scores = rng.random(n)
    labels = np.zeros(n, dtype=bool)
    labels[rng.choice(n, size=500, replace=False)] = True
    assert pr_auc(scores, labels) == pytest.approx(0.05, abs=0.03)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 200))
@settings(max_examples=40, deadline=None)
def test_roc_matches_pair_counting(seed, n):
    rng = np.random.default_rng(seed)
    # quantized scores force ties through the block/mid-rank path
    scores = np.round(rng.random(n), 1)
    labels = rng.random(n) < 0.3
    if labels.all() or not labels.any():
        labels[0] = True
        labels[-1] = False
    assert roc_auc(scores, labels) == pytest.approx(
        brute_force_roc(scores, labels), abs=1e-12
    )


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 200))
@settings(max_examples=40, deadline=None)
def test_pr_matches_threshold_enumeration(seed, n):
    rng = np.random.default_rng(seed)
    scores = np.round(rng.random(n), 1)
    labels = rng.random(n) < 0.3
    if not labels.any():
        labels[0] = True
    assert pr_auc(scores, labels) == pytest.approx(
        exhaustive_threshold_ap(scores, labels), abs=1e-12
    )


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_rank_invariance(seed):
    rng = np.random.default_rng(seed)
    scores = rng.random(50)  # nonnegative, cube preserves order
    labels = rng.random(50) < 0.4
    if labels.all() or not labels.any():
        labels[0] = True
        labels[-1] = False
    for transform in (lambda x: 2 * x + 1, lambda x: x**3):
        assert roc_auc(transform(scores), labels) == pytest.approx(
            roc_auc(scores, labels), abs=1e-12
        )
        assert pr_auc(transform(scores), labels) == pytest.approx(
            pr_auc(scores, labels), abs=1e-12
        )


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_label_inversion_without_ties(seed):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(60)  # continuous draws: ties improbable
    labels = rng.random(60) < 0.5
    if labels.all() or not labels.any():
        labels[0] = True
        labels[-1] = False
    assert roc_auc(scores, ~labels) == pytest.approx(
        1.0 - roc_auc(scores, labels), abs=1e-12
    )


def test_evaluate_counts():
    result = evaluate([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
    assert result.n_positives == 2
    assert result.n_negatives == 2
    assert 0.0 <= result.pr_auc <= 1.0
    assert 0.0 <= result.roc_auc <= 1.0


def test_nan_score_rejected_and_inf_ranked_highest():
    # NaN has no rank: argsort puts it last for ROC but first for the PR sweep
    labels = [1, 0, 0, 1]
    for metric in (evaluate, pr_auc, roc_auc):
        with pytest.raises(EvaluationError):
            metric([np.nan, 0.8, 0.1, 0.2], labels)
    result = evaluate([np.inf, 0.8, 0.1, 0.2], labels)
    assert result.pr_auc == pytest.approx(1.0 * 0.5 + (2.0 / 3.0) * 0.5)
    assert result.roc_auc == 0.75
    # tied infinities are one block, like any other tie (inf - inf is nan)
    tied = evaluate([np.inf, np.inf, 0.5, 0.1], [1, 0, 1, 0])
    assert tied == evaluate([9.0, 9.0, 0.5, 0.1], [1, 0, 1, 0])
    assert tied.pr_auc == pytest.approx(0.5 * 0.5 + (2.0 / 3.0) * 0.5)
