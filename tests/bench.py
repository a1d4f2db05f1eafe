"""Shared benchmark builders for the tests, the acceptance suite and the
experiment script.

The reference task is a z-normalized sine (period 50) of 2000 observations
with 5% injected spikes of five standard deviations, plus Gaussian noise.
Configs are sized so one training run takes seconds, not minutes. Each run
of the paper's experiments is built here, once, as a record:
scripts/experiments.py writes the records to CSV and tests/test_acceptance.py
checks them.
"""

from collections import namedtuple
from dataclasses import replace

import numpy as np

from robustae import (
    AutoencoderConfig,
    RaeConfig,
    RdaeConfig,
    SynthConfig,
    TimeSeries,
    es_prm,
    es_ssa,
    evaluate,
    generate_synthetic,
    outlier_scores,
    train,
    znormalize,
)
from robustae.linalg import rmse

NOISE_STD = 0.5
SERIES_LEN = 2000
# every field spelled out, so that a change of SynthConfig's defaults cannot
# move the benchmark's inputs
BENCH_SINE = SynthConfig(
    kind="sinusoid_mix",
    length=SERIES_LEN,
    dims=1,
    outlier_ratio=0.05,
    outlier_magnitude=5.0,
    outlier_kind="point",
    collective_run_length=10,
    ar_coefficients=(0.6,),
    frequencies=(0.02,),
    amplitudes=(1.0,),
    noise_std=NOISE_STD,
    seed=0,
)
ROBUSTNESS_METHODS = ("rae", "nrae", "rdae", "nrdae")
LAMBDAS = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
GAMMA = 0.15
N_MAX = 9  # an ES score of N_MAX + 1 means not explainable within N_MAX

# recovery: RMSE of the clean part against outlier_free_sine(seed);
# support and nonzero: the number of nonzero entries of the outlier part;
# es_prm and es_ssa: es_pair of the clean part
RobustnessRow = namedtuple("RobustnessRow", "seed method pr roc recovery support es_prm es_ssa")
LambdaRow = namedtuple("LambdaRow", "seed lam pr roc nonzero")


def spiked_sine(seed: int, length: int = SERIES_LEN, noise: float = NOISE_STD) -> TimeSeries:
    """Labeled benchmark series, z-normalized."""
    raw = generate_synthetic(replace(BENCH_SINE, length=length, noise_std=noise, seed=seed))
    normalized, _ = znormalize(raw)
    return normalized


def outlier_free_sine(seed: int, length: int = SERIES_LEN, noise: float = NOISE_STD) -> TimeSeries:
    """spiked_sine(seed) without its spikes, in the same units.

    The same recipe with outlier_magnitude=0 draws the same base series, and
    it is normalized with the spiked raw series' mean and std, so it is what
    a trainer's clean part of spiked_sine(seed) should recover.
    """
    recipe = replace(BENCH_SINE, length=length, noise_std=noise, seed=seed)
    _, stats = znormalize(generate_synthetic(recipe))
    clean = generate_synthetic(replace(recipe, outlier_magnitude=0.0))
    return TimeSeries((clean.values - stats.mean) / stats.std)


def rae_config(seed: int, lam: float = 0.05, outer: int = 55, inner: int = 10) -> RaeConfig:
    ae = AutoencoderConfig(
        input_dim=16,
        layer_dims=(24, 12, 24),
        learning_rate=5e-3,
        inner_epochs=inner,
        seed=seed,
    )
    return RaeConfig(
        lam=lam,
        max_outer_iters=outer,
        window_len=16,
        seed=seed,
        ae=ae,
    )


def rdae_config(
    seed: int, lam: float = 0.05, lagged_window: int = 10, while_iters: int = 4
) -> RdaeConfig:
    f1 = AutoencoderConfig(
        input_dim=lagged_window,
        layer_dims=(max(2, lagged_window - 2),),
        learning_rate=5e-3,
        inner_epochs=8,
        seed=seed,
    )
    inner = AutoencoderConfig(
        input_dim=lagged_window,
        layer_dims=(16, max(2, lagged_window - 2), 16),
        learning_rate=5e-3,
        inner_epochs=8,
        seed=seed + 1,
    )
    f2 = AutoencoderConfig(
        input_dim=16,
        layer_dims=(24, 12, 24),
        learning_rate=5e-3,
        inner_epochs=8,
        seed=seed + 2,
    )
    return RdaeConfig(
        lagged_window=lagged_window,
        lam1=lam,
        lam2=lam,
        max_outer_iters=15,
        max_while_iters=while_iters,
        window_len=16,
        seed=seed,
        f1=f1,
        inner_ae=inner,
        f2=f2,
    )


def robustness_record(job):
    """One run of the robust-vs-non-robust comparison, ``job`` = (seed,
    method, gamma): ``method`` of ROBUSTNESS_METHODS on spiked_sine(seed), with
    network seeds offset by 1000 from the series seed, and its clean part's
    es_pair at ``gamma``. Returns its RobustnessRow and its decomposition."""
    seed, method, gamma = job
    ts = spiked_sine(seed)
    configs = {"rae": rae_config, "rdae": rdae_config}
    dec = train(ts, method, configs[method.removeprefix("n")](seed + 1000))
    res = evaluate(outlier_scores(dec), ts.labels)
    recovery = rmse(dec.clean.values, outlier_free_sine(seed).values)
    support = int(np.count_nonzero(dec.outlier.values))
    row = RobustnessRow(seed, method, res.pr_auc, res.roc_auc, recovery, support,
                        *es_pair(dec.clean, gamma))
    return row, dec


def lambda_row(job) -> LambdaRow:
    """One run of the sparsity-weight sweep, ``job`` = (seed, lam): a
    30-iteration rae with weight ``lam`` on spiked_sine(seed), with the network
    seed offset by 2000 from the series seed."""
    seed, lam = job
    ts = spiked_sine(seed)
    dec = train(ts, "rae", rae_config(seed + 2000, lam=lam, outer=30))
    res = evaluate(outlier_scores(dec), ts.labels)
    return LambdaRow(seed, lam, res.pr_auc, res.roc_auc, int(np.count_nonzero(dec.outlier.values)))


def es_pair(clean: TimeSeries, gamma: float) -> tuple[int, int]:
    """(ES_PRM, ES_SSA) of ``clean`` z-normalized, with N_MAX + 1 for a scan
    that explains it at no order up to N_MAX."""
    normalized, _ = znormalize(clean)
    scores = [scan(normalized, gamma, N_MAX).score for scan in (es_prm, es_ssa)]
    return tuple(N_MAX + 1 if score is None else score for score in scores)


def map_runs(fn, jobs) -> list:
    """``[fn(job) for job in jobs]``, run in a pool of spawned worker
    processes, one per CPU and at most four, and returned in submission order.

    ``fn`` must be a module-level function, and jobs and results must pickle.
    A spawned worker starts from a fresh import and inherits no thread of the
    caller's; its BLAS thread count comes from the environment, as the
    caller's did. The trainers' runs do not depend on the process or the BLAS
    thread count, so their results are byte-identical to a loop's. A worker
    that dies raises BrokenProcessPool here instead of leaving the map waiting.
    """
    # imported here: perfbench loads this module in every cold set-up, and
    # multiprocessing would add to its time
    import multiprocessing
    import os
    from concurrent.futures import ProcessPoolExecutor

    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(min(os.cpu_count() or 1, 4), mp_context=spawn) as pool:
        return list(pool.map(fn, jobs))


def median(values):
    return float(np.median(np.asarray(values, dtype=float)))
