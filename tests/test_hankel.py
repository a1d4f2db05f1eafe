import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustae.errors import ContractError, ParameterError
from robustae.hankel import (
    TimeSeries,
    default_window_len,
    diagonal_average,
    embed_lagged,
    fold_rows,
    hankelize,
    matrix_to_series,
)
from robustae.linalg import frobenius_norm


def test_embed_basic():
    lm = embed_lagged(TimeSeries(np.array([1.0, 2.0, 3.0, 4.0, 5.0])), 2)
    assert np.array_equal(lm.planes[0], [[1, 2, 3, 4], [2, 3, 4, 5]])


def test_embed_shape():
    lm = embed_lagged(TimeSeries(np.arange(10.0)), 5)
    assert lm.planes.shape == (1, 5, 6)


def test_embed_constant():
    lm = embed_lagged(TimeSeries(np.full(9, 3.5)), 3)
    assert np.all(lm.planes == 3.5)


def test_embed_window_out_of_range():
    ts = TimeSeries(np.arange(10.0))
    with pytest.raises(ParameterError):
        embed_lagged(ts, 1)
    with pytest.raises(ParameterError):
        embed_lagged(ts, 11)


def test_embed_planes_are_a_read_only_view_of_the_series():
    ts = TimeSeries(np.arange(24.0).reshape(12, 2))
    planes = embed_lagged(ts, 4).planes
    assert np.shares_memory(planes, ts.values)
    assert not planes.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        planes[0, 0, 0] = 1.0


def test_embed_hankel_property_exact():
    rng = np.random.default_rng(0)
    lm = embed_lagged(TimeSeries(rng.standard_normal((30, 2))), 7)
    for plane in lm.planes:
        b, k = plane.shape
        for i in range(1, b):
            assert np.array_equal(plane[i, : k - 1], plane[i - 1, 1:])


def test_hankelize_hand_example():
    out = hankelize(np.array([[1.0, 3.0], [5.0, 7.0]]))
    assert np.array_equal(out.planes[0], [[1.0, 4.0], [4.0, 7.0]])


def test_hankelize_fixed_point():
    lm = embed_lagged(TimeSeries(np.arange(12.0)), 4)
    out = hankelize(lm)
    assert np.array_equal(out.planes, lm.planes)


def test_hankelize_zero():
    out = hankelize(np.zeros((3, 5)))
    assert np.all(out.planes == 0.0)


@given(seed=st.integers(0, 2**32 - 1), b=st.integers(2, 8), k=st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_hankelize_idempotent_and_linear(seed, b, k):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, k))
    y = rng.standard_normal((b, k))
    once = hankelize(x).planes
    twice = hankelize(once).planes
    assert np.max(np.abs(twice - once)) < 1e-15
    lhs = hankelize(2.5 * x - 1.5 * y).planes
    rhs = 2.5 * hankelize(x).planes - 1.5 * hankelize(y).planes
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@given(seed=st.integers(0, 2**32 - 1), b=st.integers(2, 6), k=st.integers(2, 9))
@settings(max_examples=40, deadline=None)
def test_hankelize_is_nearest_hankel_matrix(seed, b, k):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, k))
    projected = hankelize(x).planes[0]
    # any other Hankel matrix (built from a random series) is no closer
    other = embed_lagged(TimeSeries(rng.standard_normal(b + k - 1)), b).planes[0]
    assert frobenius_norm(x - projected) <= frobenius_norm(x - other) + 1e-12


@given(seed=st.integers(0, 2**32 - 1), length=st.integers(5, 500), dims=st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_roundtrip_bit_exact(seed, length, dims):
    rng = np.random.default_rng(seed)
    ts = TimeSeries(rng.standard_normal((length, dims)))
    window = int(rng.integers(2, max(3, length // 2)))
    back = matrix_to_series(embed_lagged(ts, window))
    assert np.array_equal(back.values, ts.values)


def test_matrix_to_series_hand_example():
    ts = matrix_to_series(np.array([[1.0, 4.0], [4.0, 7.0]]))
    assert np.array_equal(ts.values[:, 0], [1.0, 4.0, 7.0])


def test_matrix_to_series_constant():
    ts = matrix_to_series(np.full((2, 3), 2.5))
    assert np.all(ts.values == 2.5)


def test_matrix_to_series_rejects_non_hankel():
    with pytest.raises(ContractError):
        matrix_to_series(np.array([[1.0, 2.0], [5.0, 7.0]]))


def test_matrix_to_series_tolerates_tiny_deviation():
    m = np.array([[1.0, 4.0], [4.0 + 1e-12, 7.0]])
    ts = matrix_to_series(m)
    assert ts.values.shape == (3, 1)


def test_default_window_len_rule():
    # round((ln 1400)^2) = round(52.48) = 52
    assert default_window_len(1400) == 52


def test_default_window_len_clamped():
    b = default_window_len(12)
    assert 1 < b < 6


def _bincount_average(planes):
    """Reference anti-diagonal averaging: per plane, np.bincount sums over the
    anti-diagonal index divided by the counts, with an exactly Hankel plane
    passed through unchanged. Returns the projected planes and the series
    their anti-diagonals read."""
    d, b, k = planes.shape
    idx = np.add.outer(np.arange(b), np.arange(k))
    a = np.arange(b + k - 1)
    counts = np.minimum(np.minimum(a + 1, b + k - 1 - a), min(b, k))
    rows = np.minimum(a, b - 1)
    cols = a - rows
    out = np.empty((d, b, k))
    for di, plane in enumerate(planes):
        if np.array_equal(plane, plane[rows, cols][idx]):
            out[di] = plane
        else:
            sums = np.bincount(idx.ravel(), weights=plane.ravel(), minlength=b + k - 1)
            out[di] = (sums / counts)[idx]
    return out, out[:, rows, cols].T


def _assert_matches_bincount(planes):
    projected, series = _bincount_average(planes)
    assert np.array_equal(diagonal_average(planes), series)
    got = hankelize(planes).planes
    assert np.array_equal(got, projected)
    assert np.array_equal(np.signbit(got), np.signbit(projected))


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_diagonal_average_bit_equal_to_bincount(dims):
    rng = np.random.default_rng(dims)
    for _ in range(40):
        b = int(rng.integers(2, 30))
        k = int(rng.integers(2, 80))
        scale = 10.0 ** rng.integers(-3, 4, size=(dims, 1, 1))
        _assert_matches_bincount(scale * rng.standard_normal((dims, b, k)))


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_diagonal_average_of_transposed_window_batch(dims):
    # the (K, B*D) network batch viewed as (D, B, K) planes, not copied
    rng = np.random.default_rng(10 + dims)
    for _ in range(20):
        b = int(rng.integers(2, 20))
        k = int(rng.integers(2, 200))
        batch = rng.standard_normal((k, b * dims))
        planes = batch.reshape(k, b, dims).transpose(2, 1, 0)
        assert not planes.flags.c_contiguous
        _assert_matches_bincount(planes)


def test_diagonal_average_reads_exactly_hankel_planes():
    # averaging equal entries can move the last bit, so a Hankel plane must
    # be read, not averaged
    rng = np.random.default_rng(5)
    last_bit_cases = 0
    for n in range(6, 61):
        for _ in range(4):
            b = int(rng.integers(2, n // 2 + 1))
            planes = embed_lagged(TimeSeries(np.full((n, 2), rng.standard_normal())), b).planes
            _assert_matches_bincount(planes)
            assert np.array_equal(diagonal_average(planes), np.full((n, 2), planes[0, 0, 0]))
            idx = np.add.outer(np.arange(b), np.arange(n - b + 1)).ravel()
            averaged = np.bincount(idx, weights=planes[0].ravel()) / np.bincount(idx)
            last_bit_cases += not np.all(averaged == planes[0, 0, 0])
    # the inputs reach the case where the passthrough decides the result
    assert last_bit_cases > 0


def test_hankelize_returns_hankel_plane_with_its_signed_zeros():
    plane = np.array([[0.0, -0.0, 2.0], [0.0, 2.0, -0.0], [2.0, -0.0, 0.0]])
    _assert_matches_bincount(plane[None])
    assert np.array_equal(np.signbit(hankelize(plane).planes[0]), np.signbit(plane))


def _accumulator_average(planes):
    """Reference anti-diagonal averaging with one (C, D) accumulator that adds
    every plane's row r at offset r, in increasing row order, then divides by
    the counts; an exactly Hankel plane is read from its first column and last
    row."""
    d, b, k = planes.shape
    acc = np.zeros((b + k - 1, d))
    for r in range(b):
        acc[r : r + k] += planes[:, r, :].T
    a = np.arange(b + k - 1)
    out = acc / np.minimum(np.minimum(a + 1, b + k - 1 - a), min(b, k))[:, None]
    for di, plane in enumerate(planes):
        if np.array_equal(plane[1:, :-1], plane[:-1, 1:]):
            out[:, di] = np.concatenate((plane[:, 0], plane[-1, 1:]))
    return out


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_row_fold_bit_equal_to_accumulator_average(dims):
    rng = np.random.default_rng(20 + dims)
    shapes = [(2, 2), (81, 2), (2, 8000), (81, 8000), (16, 1985), (10, 1991)]
    shapes += [(int(rng.integers(2, 82)), int(rng.integers(2, 8001))) for _ in range(6)]
    for b, k in shapes:
        scale = 10.0 ** rng.integers(-3, 4, size=(dims, 1, 1))
        planes = scale * rng.standard_normal((dims, b, k))
        _assert_same_bits(diagonal_average(planes), _accumulator_average(planes))
        # strided and reversed views, as the trainers' window folds pass them
        _assert_same_bits(diagonal_average(planes[:, ::-1, ::-1]),
                          _accumulator_average(planes[:, ::-1, ::-1]))
        for plane in planes:
            rows = (row.copy() for row in plane)
            _assert_same_bits(fold_rows(rows, b, k), _accumulator_average(plane[None])[:, 0])


def test_row_fold_reads_hankel_planes_with_mixed_signed_zeros():
    rng = np.random.default_rng(30)
    for _ in range(30):
        dims, b = int(rng.integers(1, 4)), int(rng.integers(2, 82))
        k = int(rng.integers(2, 400))
        # each observation is +0.0, -0.0 or a repeated nonzero value
        values = rng.choice([0.0, -0.0, 0.1, -0.3], size=(b + k - 1, dims))
        planes = embed_lagged(TimeSeries(values), b).planes
        got = diagonal_average(planes)
        _assert_same_bits(got, _accumulator_average(planes))
        _assert_same_bits(got, values)
        # one entry changed off its anti-diagonal: averaged, not read
        broken = planes.copy()
        broken[0, b - 1, 0] += 1.0
        _assert_same_bits(diagonal_average(broken), _accumulator_average(broken))
        rows = (row for row in planes[0])
        _assert_same_bits(fold_rows(rows, b, k), values[:, 0].copy())
