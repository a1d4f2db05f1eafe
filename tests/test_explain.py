import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustae.errors import ParameterError
from robustae import explain
from robustae.explain import es_prm, es_ssa, fit_polynomial, ssa_decompose
from robustae.hankel import TimeSeries, default_window_len, diagonal_average, embed_lagged
from robustae.linalg import least_squares, rmse
from robustae.data import znormalize


def test_fit_constant():
    ts = TimeSeries(np.full(50, 3.2))
    _, err = fit_polynomial(ts, 0)
    assert err < 1e-12


def test_fit_exact_quadratic():
    t = np.linspace(0.0, 1.0, 80)
    ts = TimeSeries(t**2)
    _, err = fit_polynomial(ts, 2)
    assert err < 1e-10


def test_fit_linear_on_sine_matches_direct_solver():
    c = 300
    values = np.sin(2 * np.pi * 3 * np.arange(c) / c)
    ts = TimeSeries(values)
    _, err = fit_polynomial(ts, 1)
    # independent oracle: normal equations solved directly
    t = np.linspace(0.0, 1.0, c)
    design = np.stack([np.ones(c), t], axis=1)
    coef = np.linalg.solve(design.T @ design, design.T @ values)
    oracle = float(np.sqrt(np.mean((design @ coef - values) ** 2)))
    assert err == pytest.approx(oracle, rel=1e-9)
    # a linear fit of a zero-mean sine stays near the zero line
    assert err == pytest.approx(values.std(), rel=0.1)


def test_fit_degree_bounds():
    ts = TimeSeries(np.arange(5.0))
    with pytest.raises(ParameterError):
        fit_polynomial(ts, 5)
    with pytest.raises(ParameterError):
        fit_polynomial(ts, -1)


def test_prm_rmse_non_increasing_in_degree():
    rng = np.random.default_rng(0)
    ts = TimeSeries(rng.standard_normal(60))
    errs = [fit_polynomial(ts, n)[1] for n in range(8)]
    assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))


def test_es_prm_exact_line():
    t = np.linspace(0.0, 1.0, 100)
    result = es_prm(TimeSeries(1.0 + 2.0 * t), gamma=1e-6)
    assert result.score == 1


def test_es_prm_exact_cubic():
    t = np.linspace(0.0, 1.0, 200)
    result = es_prm(TimeSeries(0.5 - t + 2 * t**3), gamma=1e-6)
    assert result.score == 3


def test_es_prm_noise_not_explainable():
    rng = np.random.default_rng(1)
    noise = rng.standard_normal(400)
    result = es_prm(TimeSeries(noise), gamma=0.01 * noise.std(), n_max=9)
    assert result.score is None
    assert not result.explainable
    # curve includes the degree-0 entry plus 1..n_max
    assert len(result.rmse_by_order) == 10


def test_ssa_constant_series():
    comps = ssa_decompose(TimeSeries(np.full(60, 2.0)), 10)
    assert rmse(comps[0].values, np.full((60, 1), 2.0)) < 1e-10
    for comp in comps[1:]:
        assert np.max(np.abs(comp.values)) < 1e-10


def test_ssa_sine_rank_two():
    ts = TimeSeries(np.sin(2 * np.pi * np.arange(200) / 20.0))
    comps = ssa_decompose(ts, 50)
    top2 = comps[0].values + comps[1].values
    assert rmse(top2, ts.values) < 1e-2


def test_ssa_components_sum_to_input():
    rng = np.random.default_rng(2)
    ts = TimeSeries(rng.standard_normal(80))
    comps = ssa_decompose(ts, 12)
    total = sum(c.values for c in comps)
    assert rmse(total, ts.values) < 1e-8


@given(seed=st.integers(0, 2**32 - 1), length=st.integers(20, 120))
@settings(max_examples=20, deadline=None)
def test_ssa_completeness_random(seed, length):
    rng = np.random.default_rng(seed)
    ts = TimeSeries(rng.standard_normal(length))
    comps = ssa_decompose(ts, max(2, length // 5))
    total = sum(c.values for c in comps)
    assert rmse(total, ts.values) < 1e-8


def test_ssa_multivariate_components_are_single_dimension():
    rng = np.random.default_rng(3)
    ts = TimeSeries(rng.standard_normal((60, 2)))
    comps = ssa_decompose(ts, 8)
    for comp in comps:
        nonzero_dims = np.nonzero(np.any(comp.values != 0.0, axis=0))[0]
        assert len(nonzero_dims) <= 1
    total = sum(c.values for c in comps)
    assert rmse(total, ts.values) < 1e-8


def _averaged_rank1_planes(ts, window_len):
    """Each spectrum component as diagonal_average of its rank-1 plane, built
    whole, from the triples of explain.svd in ssa_decompose's order. The SVDs
    read a C-ordered copy of the planes, not the view the scan reads."""
    b = window_len or default_window_len(ts.length)
    planes = np.ascontiguousarray(embed_lagged(ts, b).planes)
    triples = [explain.svd(plane) for plane in planes]
    tagged = sorted(((float(sigma), d, i) for d, (_, s, _) in enumerate(triples)
                     for i, sigma in enumerate(s)), key=lambda item: -item[0])
    expected = []
    for _, d, i in tagged:
        u, s, v = triples[d]
        values = np.zeros_like(ts.values)
        values[:, d] = diagonal_average(np.outer(u[:, i] * s[i], v[:, i])[None])[:, 0]
        expected.append(values.tobytes())
    return expected


@pytest.mark.parametrize(
    "values, window_len",
    [
        (np.random.default_rng(4).standard_normal(90), None),
        (np.random.default_rng(5).standard_normal((70, 2)), 9),
        # the rank-1 planes of a zero singular value are signed zeros, which an
        # exactly-Hankel read keeps and an average would turn into +0.0
        (np.full(30, 1.0), None),
    ],
)
def test_ssa_components_bit_equal_to_averaged_rank1_planes(values, window_len):
    ts = TimeSeries(values)
    got = [comp.values.tobytes() for comp in ssa_decompose(ts, window_len)]
    assert got == _averaged_rank1_planes(ts, window_len)


@pytest.mark.parametrize("values, window_len", [
    (np.cumsum(np.random.default_rng(8).standard_normal(300)), None),
    (np.cumsum(np.random.default_rng(9).standard_normal((200, 3)), axis=0), 17),
], ids=["one-dim", "three-dims"])
def test_ssa_of_the_lagged_view_bit_equal_to_a_copy(values, window_len):
    ts = TimeSeries(values)
    # the scan takes the SVD of the series' own memory, not a C-ordered copy
    planes = embed_lagged(ts, window_len or default_window_len(ts.length)).planes
    assert np.shares_memory(planes, ts.values) and not planes.flags.c_contiguous
    expected = _averaged_rank1_planes(ts, window_len)
    assert [comp.values.tobytes() for comp in ssa_decompose(ts, window_len)] == expected
    partial, curve = np.zeros_like(ts.values), []
    for n, comp in enumerate(expected[:9], start=1):
        partial += np.frombuffer(comp).reshape(ts.values.shape)
        curve.append((n, rmse(partial, ts.values)))
    assert es_ssa(ts, 1e-12, 9, window_len).rmse_by_order == tuple(curve)


@pytest.mark.parametrize("length, dims, bound", [(8000, 1, 1.5), (3000, 3, 2.0)])
def test_es_ssa_traced_peak_stays_under_two_lagged_planes(length, dims, bound):
    # numpy's svd allocates its B x K V^T; the scan adds no plane copy, and
    # holds no full V^T of one dimension through the next one's SVD
    ts = TimeSeries(np.cumsum(np.random.default_rng(10).standard_normal((length, dims)), axis=0))
    b = default_window_len(length)
    plane_bytes = 8 * b * (length - b + 1)
    tracemalloc.start()
    try:
        es_ssa(ts, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * plane_bytes


def test_ssa_reads_exactly_hankel_rank1_planes(monkeypatch):
    # planes of 0.1 and of -0.0: anti-diagonal means of the first differ from
    # 0.1 in the last bit ((0.1 + 0.1 + 0.1) / 3 != 0.1), and those of the second
    # are +0.0, so only a read of the plane gives these bytes
    def constant_svd(plane):
        b, k = plane.shape
        return -np.ones((b, 2)), np.array([0.1, 0.0]), np.column_stack([-np.ones(k), np.ones(k)])

    monkeypatch.setattr(explain, "svd", constant_svd)
    ts = TimeSeries(np.full(30, 0.1))
    got = [comp.values.tobytes() for comp in ssa_decompose(ts)]
    assert got == [np.full((30, 1), 0.1).tobytes(), np.full((30, 1), -0.0).tobytes()]
    assert got == _averaged_rank1_planes(ts, None)


def test_es_ssa_linear_trend_scores_one():
    ramp, _ = znormalize(TimeSeries(np.arange(500.0)))
    result = es_ssa(ramp, gamma=0.15)
    assert result.score == 1


def test_es_ssa_trend_plus_sine():
    mix = TimeSeries(0.01 * np.arange(400) + np.sin(2 * np.pi * np.arange(400) / 40.0))
    normalized, _ = znormalize(mix)
    result = es_ssa(normalized, gamma=0.15)
    assert result.score is not None
    assert result.score <= 3


def test_es_ssa_full_rank_always_explainable():
    rng = np.random.default_rng(4)
    ts = TimeSeries(rng.standard_normal(40))
    b = 6
    result = es_ssa(ts, gamma=1e-7, n_max=b, window_len=b)
    assert result.score is not None  # all components reproduce the input


def test_es_ssa_curve_non_increasing():
    rng = np.random.default_rng(5)
    ts = TimeSeries(np.cumsum(rng.standard_normal(150)))
    result = es_ssa(ts, gamma=1e-12, n_max=9, window_len=20)
    errs = [e for _, e in result.rmse_by_order]
    assert all(errs[i + 1] <= errs[i] + 1e-9 for i in range(len(errs) - 1))
    assert len(errs) == 9


@pytest.mark.parametrize(
    "dims, length, window, n_max",
    [(2, 120, 10, 9), (1, 40, 6, 50)],
    ids=["two-dims", "n_max-above-component-count"],
)
def test_es_ssa_scans_the_leading_components(dims, length, window, n_max):
    rng = np.random.default_rng(6)
    t = np.arange(length)[:, None]
    scale = 1.0 + 0.5 * np.arange(dims)
    ts = TimeSeries(scale * np.sin(2 * np.pi * t / (11.0 + 4 * np.arange(dims)))
                    + 0.3 * rng.standard_normal((length, dims)))
    leading = ssa_decompose(ts, window)[:n_max]
    partial = np.zeros_like(ts.values)
    curve = []
    for n, comp in enumerate(leading, start=1):
        partial += comp.values
        curve.append((n, rmse(partial, ts.values)))
    result = es_ssa(ts, gamma=1e-12, n_max=n_max, window_len=window)
    assert result.rmse_by_order == tuple(curve)
    assert len(curve) == min(n_max, dims * window)
    # with two dimensions, the leading components take turns between them
    dims_in_order = [int(np.flatnonzero(c.values.any(axis=0))[0]) for c in leading]
    assert dims_in_order != sorted(dims_in_order) or dims == 1


def test_gamma_must_be_positive():
    ts = TimeSeries(np.arange(30.0))
    with pytest.raises(ParameterError):
        es_prm(ts, gamma=0.0)
    with pytest.raises(ParameterError):
        es_ssa(ts, gamma=-1.0)


@pytest.mark.parametrize("scan", [es_prm, es_ssa])
@pytest.mark.parametrize("gamma, n_max", [(0.0, 9), (-1.0, 9), (float("inf"), 9), (0.1, 0),
                                          (0.1, True), (0.1, 2.5), (0.1, 4.0), (0.1, "4")])
def test_scans_check_gamma_and_n_max_before_any_fit(monkeypatch, scan, gamma, n_max):
    def no_fit(*args):
        raise AssertionError("fitted before the parameters were checked")

    monkeypatch.setattr(explain, "fit_polynomial", no_fit)
    monkeypatch.setattr(explain, "_leading_components", no_fit)
    with pytest.raises(ParameterError, match="gamma|n_max"):
        scan(TimeSeries(np.arange(30.0)), gamma, n_max)


@pytest.mark.parametrize("n_max, fits", [(12, 0), (100000, 0), (11, 12)])
def test_es_prm_refuses_n_max_not_below_length_before_any_fit(monkeypatch, n_max, fits):
    calls = []

    def counting_least_squares(*args):
        calls.append(args[0].shape)
        return least_squares(*args)

    monkeypatch.setattr(explain, "least_squares", counting_least_squares)
    ts = TimeSeries(np.sin(np.arange(12.0)))
    if fits:
        assert len(es_prm(ts, 0.1, n_max).rmse_by_order) == fits
    else:
        with pytest.raises(ParameterError, match=f"series length 12 must exceed n_max {n_max}"):
            es_prm(ts, 0.1, n_max)
    assert len(calls) == fits


@pytest.mark.parametrize("window_len", [True, 2.5, 8.0])
def test_ssa_refuses_a_window_len_that_is_not_an_integer(window_len):
    ts = TimeSeries(np.sin(np.arange(30.0)))
    with pytest.raises(ParameterError, match="window_len must be an integer"):
        es_ssa(ts, 0.1, 3, window_len)
    with pytest.raises(ParameterError, match="window_len must be an integer"):
        ssa_decompose(ts, window_len)
