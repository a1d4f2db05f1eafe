"""The shared benchmark helpers: a pool of runs returns what a loop returns."""

from bench import map_runs, rae_config, spiked_sine

from robustae import train


def _quick_run(seed):
    dec = train(spiked_sine(seed, length=200), "rae", rae_config(seed, outer=3, inner=2))
    return dec.clean.values.tobytes() + dec.outlier.values.tobytes()


def test_map_runs_returns_a_loops_bytes_in_submission_order():
    seeds = [5, 2]
    pooled = map_runs(_quick_run, seeds)
    assert pooled == [_quick_run(seed) for seed in seeds]
    assert pooled[0] != pooled[1]
