"""Metamorphic relations of the trainers and the explain scans.

A golden hash says "the same bits as last time, on this machine"; these
relations say "consistent with itself", so they hold on any numpy, BLAS or
CPU. Each trainer runs at quick size on seeds 0-2.
"""

from functools import cache

import numpy as np
import pytest

from robustae import TRAIN_METHODS, TimeSeries, train
from robustae.explain import es_prm, es_ssa
from test_decompose import quick_rae, quick_rdae, quick_ts

SEEDS = (0, 1, 2)
# the outlier part of these two comes from the matrix fold alone, where an
# all-zero anti-diagonal averages to +0.0 whatever the sign of its entries, so
# under a sign flip their outlier zeros may change sign (equal, but not in bytes)
SIGNED_ZERO_METHODS = ("rdae-f2", "rdae-f1f2")


@cache
def _train(method, seed, transform="none"):
    """(clean, outlier, iterations, loss trace) of ``method`` on the seed's
    quick series, transformed first."""
    ts = quick_ts(seed)
    values, labels = ts.values, ts.labels
    if transform == "negate":
        values = -values
    elif transform == "scale":
        values = values * 1000.0
    elif transform == "shift":
        values = values + 50.0
    elif transform == "unlabelled":
        labels = None
    cfg = quick_rae(seed) if method in ("rae", "nrae") else quick_rdae(seed)
    d = train(TimeSeries(values, labels=labels), method, cfg)
    return d.clean.values, d.outlier.values, d.iterations_run, tuple(d.loss_trace)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("method", TRAIN_METHODS)
def test_sign_flip_negates_the_decomposition(method, seed):
    # holds for tanh only: the default activation and the linear output layer
    # are odd and the biases start at zero, so the network of -T is the
    # negated network of T. sigmoid and relu are not odd.
    clean, outlier, iterations, trace = _train(method, seed)
    flipped = _train(method, seed, "negate")
    assert np.array_equal(flipped[0], -clean)
    assert np.array_equal(flipped[1], -outlier)
    assert flipped[2:] == (iterations, trace)
    assert flipped[0].tobytes() == (-clean).tobytes()
    if method not in SIGNED_ZERO_METHODS:
        assert flipped[1].tobytes() == (-outlier).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("method", TRAIN_METHODS)
def test_labels_are_not_used_in_training(method, seed):
    base, unlabelled = _train(method, seed), _train(method, seed, "unlabelled")
    assert base[0].tobytes() == unlabelled[0].tobytes()
    assert base[1].tobytes() == unlabelled[1].tobytes()
    assert base[2:] == unlabelled[2:]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("method", TRAIN_METHODS)
@pytest.mark.parametrize("transform, back", [("scale", lambda x: x / 1000.0),
                                             ("shift", lambda x: x - 50.0)], ids=["scale", "shift"])
def test_scale_and_shift_keep_the_outliers(method, seed, transform, back):
    # the trainers z-normalize their input, so T*1000 and T+50 differ from T
    # only by rounding; measured drift of the clean part: under 2.9e-14 of max|clean|
    clean, outlier, _, _ = _train(method, seed)
    moved_clean, moved_outlier, _, _ = _train(method, seed, transform)
    assert np.array_equal(moved_outlier != 0.0, outlier != 0.0)
    assert np.max(np.abs(back(moved_clean) - clean)) <= 1e-12 * np.max(np.abs(clean))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("length", [300, 2000])
@pytest.mark.parametrize("scan", [es_prm, es_ssa], ids=["prm", "ssa"])
def test_explain_curves_survive_a_sign_flip(scan, length, seed):
    walk = np.cumsum(np.random.default_rng(seed).standard_normal(length))
    curve = scan(TimeSeries(walk), 0.1).rmse_by_order
    assert scan(TimeSeries(-walk), 0.1).rmse_by_order == curve
