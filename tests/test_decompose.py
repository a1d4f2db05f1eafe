from dataclasses import replace

import numpy as np
import pytest

from bench import spiked_sine
from robustae import (
    TRAIN_METHODS,
    AutoencoderConfig,
    RaeConfig,
    RdaeConfig,
    TimeSeries,
    evaluate,
    outlier_scores,
    train,
    znormalize,
)
from robustae import decompose, nn
from robustae.decompose import Decomposition, _column_batch, _SeriesWindower
from robustae.errors import InputError, NumericalError, ParameterError
from robustae.hankel import embed_lagged


def quick_ts(seed=0, length=240, noise=0.3):
    return spiked_sine(seed, length=length, noise=noise)


def quick_rae(seed=0, lam=0.05, outer=12):
    ae = AutoencoderConfig(
        input_dim=8, layer_dims=(12, 6, 12), learning_rate=5e-3, inner_epochs=6, seed=seed
    )
    return RaeConfig(lam=lam, max_outer_iters=outer, window_len=8, seed=seed, ae=ae)


def quick_rdae(seed=0, lam1=0.05, lam2=0.05, outer=6, while_iters=2):
    f1 = AutoencoderConfig(input_dim=6, layer_dims=(4,), learning_rate=5e-3, inner_epochs=4, seed=seed)
    inner = AutoencoderConfig(
        input_dim=6, layer_dims=(8, 4, 8), learning_rate=5e-3, inner_epochs=4, seed=seed + 1
    )
    f2 = AutoencoderConfig(
        input_dim=8, layer_dims=(12, 6, 12), learning_rate=5e-3, inner_epochs=4, seed=seed + 2
    )
    return RdaeConfig(
        lagged_window=6,
        lam1=lam1,
        lam2=lam2,
        max_outer_iters=outer,
        max_while_iters=while_iters,
        window_len=8,
        seed=seed,
        f1=f1,
        inner_ae=inner,
        f2=f2,
    )


def assert_constraint(ts, d, tol=1e-9):
    total = d.clean.values + d.outlier.values
    assert np.max(np.abs(total - ts.values)) < tol


def test_rae_zero_series():
    ts = TimeSeries(np.zeros(100))
    d = train(ts, "rae", quick_rae())
    assert np.all(d.clean.values == 0.0)
    assert np.all(d.outlier.values == 0.0)
    assert d.final_residuals == (0.0, 0.0)


def test_rdae_zero_series():
    d = train(TimeSeries(np.zeros(100)), "rdae", quick_rdae())
    assert np.all(d.outlier.values == 0.0)


def test_rae_full_shrinkage_gives_empty_outlier():
    ts = quick_ts()
    # threshold above any achievable residual on z-normalized data
    d = train(ts, "rae", quick_rae(lam=50.0, outer=6))
    assert np.all(d.outlier.values == 0.0)
    assert_constraint(ts, d)


def test_rdae_full_shrinkage_gives_empty_outlier():
    ts = quick_ts()
    d = train(ts, "rdae", quick_rdae(lam1=50.0, lam2=50.0))
    assert np.all(d.outlier.values == 0.0)


def test_rae_constraint_and_residuals():
    ts = quick_ts()
    d = train(ts, "rae", quick_rae())
    assert_constraint(ts, d)
    assert d.final_residuals[0] < 1e-5
    assert d.iterations_run >= 1
    assert len(d.loss_trace) == d.iterations_run


def test_rdae_constraint():
    ts = quick_ts()
    d = train(ts, "rdae", quick_rdae())
    assert_constraint(ts, d)
    assert d.final_residuals[0] < 1e-5


def test_rae_determinism():
    ts = quick_ts()
    a = train(ts, "rae", quick_rae(seed=5))
    b = train(ts, "rae", quick_rae(seed=5))
    assert np.array_equal(a.clean.values, b.clean.values)
    assert np.array_equal(a.outlier.values, b.outlier.values)
    assert a.loss_trace == b.loss_trace


def test_rdae_determinism():
    ts = quick_ts()
    a = train(ts, "rdae", quick_rdae(seed=9))
    b = train(ts, "rdae", quick_rdae(seed=9))
    assert np.array_equal(a.outlier.values, b.outlier.values)


def test_scores_zero_outlier():
    d = train(TimeSeries(np.zeros(64)), "rae", quick_rae())
    assert np.all(outlier_scores(d) == 0.0)


def test_scores_squared_norm_univariate():
    clean = TimeSeries(np.zeros(3))
    outlier = TimeSeries(np.array([0.0, -2.0, 0.0]))
    d = Decomposition(clean, outlier, 1, (0.0, 0.0))
    assert np.array_equal(outlier_scores(d), [0.0, 4.0, 0.0])


def test_scores_squared_norm_multivariate():
    outlier = TimeSeries(np.array([[3.0, 4.0]]))
    d = Decomposition(TimeSeries(np.zeros((1, 2))), outlier, 1, (0.0, 0.0))
    assert outlier_scores(d)[0] == pytest.approx(25.0)


def test_rae_detects_spikes_quick():
    ts = spiked_sine(3, length=600, noise=0.2)
    d = train(ts, "rae", quick_rae(seed=3, outer=25))
    result = evaluate(outlier_scores(d), ts.labels)
    assert result.roc_auc > 0.9


def test_nrae_structure():
    ts = quick_ts()
    d = train(ts, "nrae", quick_rae())
    assert_constraint(ts, d)
    # no shrinkage: the outlier part is the dense residual
    assert np.count_nonzero(d.outlier.values) > 0.9 * ts.length


def test_nrdae_structure():
    ts = quick_ts()
    d = train(ts, "nrdae", quick_rdae())
    assert_constraint(ts, d)
    assert np.count_nonzero(d.outlier.values) > 0.9 * ts.length


def test_nonrobust_variant_validation():
    ts = quick_ts()
    with pytest.raises(ParameterError):
        train(ts, "bogus", quick_rae())
    with pytest.raises(ParameterError):
        train(ts, "nrdae", quick_rae())


def test_ablation_f1_ignores_f1_config():
    ts = quick_ts()
    cfg_a = quick_rdae(seed=4)
    f1_other = AutoencoderConfig(
        input_dim=6, layer_dims=(2,), learning_rate=0.5, inner_epochs=2, seed=999
    )
    cfg_b = RdaeConfig(
        lagged_window=6, lam1=0.05, lam2=0.05, max_outer_iters=6, max_while_iters=2,
        window_len=8, seed=4, f1=f1_other, inner_ae=cfg_a.inner_ae, f2=cfg_a.f2,
    )
    a = train(ts, "rdae-f1", cfg_a)
    b = train(ts, "rdae-f1", cfg_b)
    assert np.array_equal(a.outlier.values, b.outlier.values)


def test_ablation_f2_and_f1f2_ignore_lam2():
    ts = quick_ts()
    for method in ("rdae-f2", "rdae-f1f2"):
        a = train(ts, method, quick_rdae(seed=6, lam2=0.05))
        b = train(ts, method, quick_rdae(seed=6, lam2=99.0))
        assert np.array_equal(a.outlier.values, b.outlier.values)


def test_ablation_bad_name():
    with pytest.raises(ParameterError):
        train(quick_ts(), "rdae-f3", quick_rdae())


def test_train_dispatch():
    ts = quick_ts()
    for method, cfg in [
        ("rae", quick_rae()),
        ("nrae", quick_rae()),
        ("rdae-f1f2", quick_rdae()),
    ]:
        d = train(ts, method, cfg)
        assert isinstance(d, Decomposition)
    with pytest.raises(ParameterError):
        train(ts, "unknown", quick_rae())


def test_train_rejects_wrong_config_type_and_other_spellings():
    ts = quick_ts()
    with pytest.raises(ParameterError, match="takes a RaeConfig"):
        train(ts, "rae", RdaeConfig())
    with pytest.raises(ParameterError, match="takes a RdaeConfig"):
        train(ts, "rdae-f1", quick_rae())
    for spelling in ("RAE", "n-rae", "N_RAE", "n-rdae"):
        with pytest.raises(ParameterError, match="unknown method"):
            train(ts, spelling, quick_rae())


def test_sparsity_monotone_in_lambda_quick():
    ts = quick_ts(seed=8)
    counts = []
    for lam in (1e-4, 1e-2, 1e-1, 1.0):
        d = train(ts, "rae", quick_rae(seed=8, lam=lam))
        counts.append(int(np.count_nonzero(d.outlier.values)))
    assert all(counts[i + 1] <= counts[i] for i in range(len(counts) - 1))


def test_series_too_short_for_window():
    ts = TimeSeries(np.arange(8.0))
    with pytest.raises(InputError):
        train(ts, "rae", quick_rae())  # window_len 8 needs C > 8


def test_lagged_window_out_of_range():
    ts = quick_ts(length=100)
    cfg = quick_rdae()
    bad = RdaeConfig(
        lagged_window=60, lam1=0.05, lam2=0.05, max_outer_iters=4, max_while_iters=2,
        window_len=8, seed=0, f1=None, inner_ae=None, f2=None,
    )
    with pytest.raises(ParameterError, match="lagged_window"):
        train(ts, "rdae", bad)


# (iterations_run, len(loss_trace)) per method at epsilon 1e-5, 0.1 and 0.5.
# At 1e-5 every stage runs to its cap; the larger epsilons reach the stop
# rules. nrae and nrdae never stop on their first iteration, where the
# change of the reconstruction is undefined. The dual methods may make up to
# 6 passes, so rdae, rdae-f1 and rdae-f2 ending after 2 at the larger
# epsilons is the pass-level stop on the change of the outlier norm.
STOP_RULE_EXPECTED = {
    "rae": ((12, 12), (1, 1), (1, 1)),
    "nrae": ((12, 12), (2, 2), (2, 2)),
    "rdae": ((6, 36), (2, 2), (2, 2)),
    "nrdae": ((36, 36), (2, 2), (2, 2)),
    "rdae-f1": ((6, 36), (2, 2), (2, 2)),
    "rdae-f2": ((6, 36), (2, 4), (2, 2)),
    "rdae-f1f2": ((6, 36), (6, 11), (6, 7)),
}


@pytest.mark.parametrize("epsilon_index, epsilon", enumerate((1e-5, 0.1, 0.5)))
@pytest.mark.parametrize("method", TRAIN_METHODS)
def test_stop_rules(method, epsilon_index, epsilon):
    cfg = quick_rae() if method in ("rae", "nrae") else quick_rdae(while_iters=6)
    d = train(quick_ts(), method, replace(cfg, epsilon=epsilon))
    got = (d.iterations_run, len(d.loss_trace))
    assert got == STOP_RULE_EXPECTED[method][epsilon_index]


def test_numerical_error_carries_iteration():
    ts = quick_ts()
    ae = AutoencoderConfig(
        input_dim=8, layer_dims=(12, 6, 12), learning_rate=1e280, inner_epochs=4, seed=1
    )
    cfg = RaeConfig(lam=0.05, max_outer_iters=5, window_len=8, seed=1, ae=ae)
    # the network's overflow warnings are silenced, so pytest's
    # error::RuntimeWarning filter lets the NumericalError through
    with pytest.raises(NumericalError, match="iteration"):
        train(ts, "rae", cfg)


def test_smoothing_failure_names_the_kernel_iteration(monkeypatch):
    # one Adam step at this rate leaves f1 finite and the second pass's refit
    # overflows; each pass refits f1 in one kernel iteration, so the error
    # names iteration 1, not the pass; the trainer silences numpy's warnings on
    # the way, so pytest's error::RuntimeWarning filter lets the NumericalError through
    f1 = AutoencoderConfig(input_dim=6, layer_dims=(4,), learning_rate=1e280, inner_epochs=1)
    built = []

    class Recorded(nn.AutoencoderModel):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    monkeypatch.setattr(decompose, "AutoencoderModel", Recorded)
    with pytest.raises(NumericalError, match=r"^rdae/smoothing iteration 1: non-finite gradient"):
        train(quick_ts(), "rdae", replace(quick_rdae(), f1=f1))
    # the failed stage still releases f1's buffers
    assert [m._workspace for m in built if m.config is f1] == [None]


@pytest.mark.parametrize("method", TRAIN_METHODS)
def test_each_stage_builds_one_workspace_and_releases_it(monkeypatch, method):
    # the refits of one kernel call share a workspace; it is dropped when the
    # stage ends, so the networks of different stages never hold one at once
    counts = {"workspaces": 0, "stages": 0}

    class Counted(nn._Workspace):
        def __init__(self, *args):
            counts["workspaces"] += 1
            super().__init__(*args)

    def alternate(*args, **kwargs):
        counts["stages"] += 1
        return kernel(*args, **kwargs)

    kernel = decompose._alternate
    monkeypatch.setattr(nn, "_Workspace", Counted)
    monkeypatch.setattr(decompose, "_alternate", alternate)
    cfg = quick_rae() if method in ("rae", "nrae") else quick_rdae()
    d = train(quick_ts(), method, cfg)
    assert counts["stages"] > 0
    assert counts["workspaces"] == counts["stages"]
    assert all(model._workspace is None for model in d.models.values())


@pytest.mark.parametrize("method, lines", [("rdae", 2), ("rdae-f2", 2), ("rdae-f1", 0)])
def test_verbose_logs_one_smoothing_line_per_pass(capsys, method, lines):
    train(quick_ts(), method, quick_rdae(while_iters=2), verbose=True)
    smoothing = [l for l in capsys.readouterr().err.splitlines() if l.startswith("[rdae/smoothing]")]
    assert len(smoothing) == lines
    assert all(" iter=1 " in l and l.endswith("cond2=inf") for l in smoothing)


@pytest.mark.parametrize(
    "field, value",
    [("max_outer_iters", 2.5), ("window_len", 8.5), ("seed", None), ("seed", True),
     ("seed", -1), ("max_while_iters", 2.0), ("lagged_window", 4.5)],
)
def test_trainer_configs_refuse_non_integers(field, value):
    config_type = RaeConfig if field in RaeConfig.__dataclass_fields__ else RdaeConfig
    with pytest.raises(ParameterError, match=field):
        config_type(**{field: value})


def test_trainer_configs_store_numpy_integers_as_ints():
    cfg = RdaeConfig(lagged_window=np.int64(6), window_len=np.int32(8), seed=np.uint64(3))
    assert [type(v) for v in (cfg.lagged_window, cfg.window_len, cfg.seed)] == [int] * 3


def test_verbose_logging(capsys):
    ts = quick_ts(length=120)
    train(ts, "rae", quick_rae(outer=2), verbose=True)
    err = capsys.readouterr().err
    assert "cond1" in err and "cond2" in err


def test_loss_trace_decreasing_trend():
    ts = quick_ts(seed=2, length=600)
    d = train(ts, "rae", quick_rae(seed=2, outer=25))
    assert d.loss_trace[-1] < d.loss_trace[0]


def multivariate_ts(seed=0, length=240):
    from robustae import SynthConfig, generate_synthetic

    raw = generate_synthetic(
        SynthConfig(
            length=length, dims=2, outlier_ratio=0.05, outlier_magnitude=5.0,
            frequencies=(0.02,), amplitudes=(1.0,), noise_std=0.2, seed=seed,
        )
    )
    normalized, _ = znormalize(raw)
    return TimeSeries(normalized.values, labels=raw.labels)


def test_rae_multivariate():
    ts = multivariate_ts(4)
    ae = AutoencoderConfig(
        input_dim=16, layer_dims=(20, 10, 20), learning_rate=5e-3, inner_epochs=6, seed=4
    )
    cfg = RaeConfig(lam=0.05, max_outer_iters=10, window_len=8, seed=4, ae=ae)
    d = train(ts, "rae", cfg)
    assert d.clean.values.shape == (240, 2)
    assert_constraint(ts, d)
    assert outlier_scores(d).shape == (240,)


def test_rdae_multivariate():
    ts = multivariate_ts(5)
    cfg = RdaeConfig(
        lagged_window=6, lam1=0.05, lam2=0.05, max_outer_iters=5, max_while_iters=2,
        window_len=8, seed=5, f1=None, inner_ae=None, f2=None,
    )
    d = train(ts, "rdae", cfg)
    assert d.clean.values.shape == (240, 2)
    assert_constraint(ts, d)


def _gather_and_bincount(length, dims, window_len):
    """Reference window batch and fold: every window gathered by an index
    table, and each timestep's window entries summed by np.bincount, in
    window order from zero, then divided by their count."""
    idx = np.arange(length - window_len + 1)[:, None] + np.arange(window_len)
    steps = idx.ravel()
    counts = np.bincount(steps, minlength=length)[:, None]

    def batch(values):
        return values[idx].reshape(len(idx), window_len * dims)

    def fold(outputs):
        columns = outputs.reshape(-1, dims)
        sums = [np.bincount(steps, weights=columns[:, d], minlength=length) for d in range(dims)]
        return np.stack(sums, axis=1) / counts

    return batch, fold


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_series_windower_bit_equal_to_gather_and_bincount(dims):
    rng = np.random.default_rng(dims)
    for _ in range(30):
        length = int(rng.integers(4, 60))
        # the shortest window, a random one, and the longest two the series allows
        for window_len in sorted({2, int(rng.integers(2, length)), length - 2, length - 1}):
            windower = _SeriesWindower(length, dims, window_len)
            batch, fold = _gather_and_bincount(length, dims, window_len)
            values = rng.standard_normal((length, dims)) * 10.0 ** rng.uniform(-3, 3)
            got = windower.batch(values)
            assert got.flags.c_contiguous and not np.shares_memory(got, values)
            assert got.tobytes() == batch(values).tobytes()
            outputs = rng.standard_normal(got.shape) * 10.0 ** rng.uniform(-3, 3)
            assert windower.fold(outputs).tobytes() == fold(outputs).tobytes()


@pytest.mark.parametrize("dims", [1, 3])
def test_column_batch_copies_the_lagged_view(dims):
    # the planes alias the series; the batch the networks train on must not
    ts = TimeSeries(np.random.default_rng(dims).standard_normal((40, dims)))
    planes = embed_lagged(ts, 6).planes
    assert np.shares_memory(planes, ts.values)
    batch = _column_batch(planes)
    assert batch.flags.c_contiguous and batch.flags.writeable
    assert not np.shares_memory(batch, ts.values)
    # row j holds window j, step-major
    assert np.array_equal(batch, np.stack([ts.values[j : j + 6].ravel() for j in range(35)]))


def test_default_network_shapes_derived():
    # leaving the network configs unset derives defaults from the widths
    ts = quick_ts(seed=7)
    cfg = RaeConfig(lam=0.05, max_outer_iters=5, window_len=8, seed=7, ae=None)
    d = train(ts, "rae", cfg)
    assert d.models["ae"].config.input_dim == 8
