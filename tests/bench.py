"""Shared benchmark builders for the trainer and acceptance tests.

The reference task is a z-normalized sine (period 50) of 2000 observations
with 5% injected spikes of five standard deviations, plus Gaussian noise.
Configs are sized so one training run takes seconds, not minutes.
"""

import numpy as np

from robustae import (
    AutoencoderConfig,
    RaeConfig,
    RdaeConfig,
    SynthConfig,
    TimeSeries,
    generate_synthetic,
    train,
    znormalize,
)

NOISE_STD = 0.5
SERIES_LEN = 2000
OUTLIER_RATIO = 0.05
OUTLIER_MAGNITUDE = 5.0
ROBUSTNESS_METHODS = ("rae", "nrae", "rdae", "nrdae")
LAMBDAS = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)


def spiked_sine(seed: int, length: int = SERIES_LEN, noise: float = NOISE_STD) -> TimeSeries:
    """Labeled benchmark series, z-normalized."""
    raw = generate_synthetic(
        SynthConfig(
            kind="sinusoid_mix",
            length=length,
            dims=1,
            outlier_ratio=OUTLIER_RATIO,
            outlier_magnitude=OUTLIER_MAGNITUDE,
            outlier_kind="point",
            frequencies=(0.02,),
            amplitudes=(1.0,),
            noise_std=noise,
            seed=seed,
        )
    )
    normalized, _ = znormalize(raw)
    return normalized


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


def robustness_runs(seed: int):
    """Yield (method, decomposition) of the robust-vs-non-robust comparison.

    Each trainer in ROBUSTNESS_METHODS runs on spiked_sine(seed), with
    network seeds offset by 1000 from the series seed.
    """
    ts = spiked_sine(seed)
    configs = {"rae": rae_config(seed + 1000), "rdae": rdae_config(seed + 1000)}
    for method in ROBUSTNESS_METHODS:
        yield method, train(ts, method, configs[method.removeprefix("n")])


def lambda_runs(seed: int):
    """Yield (lam, decomposition) of the sparsity-weight sweep over LAMBDAS.

    Each run is a 30-iteration rae on spiked_sine(seed), with the network
    seed offset by 2000 from the series seed.
    """
    ts = spiked_sine(seed)
    for lam in LAMBDAS:
        yield lam, train(ts, "rae", rae_config(seed + 2000, lam=lam, outer=30))


def median(values):
    return float(np.median(np.asarray(values, dtype=float)))


def outlier_free_sine(seed: int, length: int = SERIES_LEN, noise: float = NOISE_STD) -> TimeSeries:
    """spiked_sine(seed) without its spikes, in the same units.

    The same recipe with outlier_magnitude=0 draws the same base series, and
    it is normalized with the spiked raw series' mean and std, so it is what
    a trainer's clean part of spiked_sine(seed) should recover.
    """

    def raw(magnitude):
        return generate_synthetic(
            SynthConfig(
                kind="sinusoid_mix",
                length=length,
                dims=1,
                outlier_ratio=OUTLIER_RATIO,
                outlier_magnitude=magnitude,
                outlier_kind="point",
                frequencies=(0.02,),
                amplitudes=(1.0,),
                noise_std=noise,
                seed=seed,
            )
        )

    _, stats = znormalize(raw(OUTLIER_MAGNITUDE))
    return TimeSeries((raw(0.0).values - stats.mean) / stats.std)
