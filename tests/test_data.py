import hashlib
import itertools
import json
import math
import re
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from robustae import data
from robustae.data import (
    SynthConfig,
    _checksum,
    denormalize,
    generate_synthetic,
    load_csv,
    load_decomposition,
    load_model,
    load_scores,
    save_csv,
    save_decomposition,
    save_model,
    znormalize,
)
from robustae.decompose import Decomposition
from robustae.errors import (
    ConfigError,
    FormatError,
    InputError,
    IntegrityError,
    ParameterError,
    ParseError,
    UpgradeError,
)
from robustae.hankel import TimeSeries
from robustae.nn import AutoencoderConfig, AutoencoderModel


def test_znormalize_basic():
    ts, stats = znormalize(TimeSeries(np.array([1.0, 2.0, 3.0])))
    assert ts.values.mean() == pytest.approx(0.0, abs=1e-15)
    assert ts.values.std(ddof=1) == pytest.approx(1.0, abs=1e-15)
    assert (stats.mean[0], stats.std[0]) == (2.0, 1.0)


def test_znormalize_roundtrip():
    rng = np.random.default_rng(0)
    original = TimeSeries(rng.standard_normal((50, 3)) * 7 + 2)
    normalized, stats = znormalize(original)
    back = denormalize(normalized, stats)
    assert np.max(np.abs(back.values - original.values)) < 1e-12


def test_znormalize_constant_dimension():
    ts, stats = znormalize(TimeSeries(np.full((10, 1), 4.0)))
    assert np.all(ts.values == 0.0)
    assert stats.std[0] == 1.0


def test_znormalize_refuses_a_single_row():
    with pytest.raises(InputError, match="z-normalization needs at least 2 observations"):
        znormalize(TimeSeries(np.array([[1.0, 2.0]])))


@pytest.mark.parametrize("scale", [1e300, -1e300, 1.7e308])
def test_znormalize_rejects_overflowing_magnitude(scale):
    # finite values whose sample std (or, at 1.7e308, mean) overflows to inf
    column = (np.arange(40) % 7 + 1.0) / 7.0
    values = np.column_stack([column, column * scale])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="too large to z-normalize"):
            znormalize(TimeSeries(values))


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.standard_normal((20, 2)) * np.pi
    labels = rng.random(20) < 0.3
    ts = TimeSeries(values, labels=labels)
    path = tmp_path / "series.csv"
    save_csv(ts, path)
    back = load_csv(path)
    assert np.array_equal(back.values, ts.values)
    assert np.array_equal(back.labels, ts.labels)


def test_csv_univariate_no_labels(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("t,dim_0\n0,1.5\n1,2.5\n2,3.5\n")
    ts = load_csv(path)
    assert ts.length == 3
    assert ts.dims == 1
    assert ts.labels is None


def test_csv_label_column(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("t,dim_0,label\n0,1.0,0\n1,2.0,1\n")
    ts = load_csv(path)
    assert list(ts.labels) == [False, True]


def test_csv_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,dim_0\n0,1.0\n1,oops\n")
    with pytest.raises(ParseError, match=":3"):
        load_csv(path)


SERIES, SCORES, DECOMPOSITION = "t,dim_0,label\n", "t,score,label\n", "t,clean_0,outlier_0,score\n"
NON_NUMERIC = "non-numeric value (could not convert string to float: {!r})".format
BOM = b"\xef\xbb\xbf"
BARE_CR = "carriage return not followed by a line feed"


# each bad row follows a good row and a blank line, so it sits on line 4 only
# when the blank line is counted
@pytest.mark.parametrize(
    "load, text, error, message",
    [
        (load_csv, SERIES + "0,1.0,0\n\n1,2.0\n", ParseError, ":4: expected 3 fields, got 2"),
        (load_csv, SERIES + "0,1.0,0\n\n1,oops,0\n", ParseError, ":4: " + NON_NUMERIC("oops")),
        (load_csv, SERIES + "0,1.0,0\n\nx,1.0,0\n", ParseError, ":4: " + NON_NUMERIC("x")),
        (load_csv, SERIES + "0,1.0,0\n\n1,2.0, 2\n", ParseError,
         ":4: label must be 0 or 1, got ' 2'"),
        (load_csv, SERIES + "0,1.0,0\n\n0,2.0,1\n", FormatError, ":4: t not strictly increasing"),
        # NaN compares false with any t, so it would pass an order check alone
        (load_csv, SERIES + "nan,1.0,0\n1,2.0,1\n", FormatError, ":2: t not strictly increasing"),
        (load_csv, SERIES + "0,1.0,0\n\nnan,2.0,1\n3,2.0,1\n", FormatError,
         ":4: t not strictly increasing"),
        (load_csv, SERIES + "nan,1.0,0\n", FormatError, ":2: t not strictly increasing"),
        (load_csv, SERIES + "\n", ParseError, ": no data rows"),
        (load_scores, SCORES + "\n", ParseError, ": no data rows"),
        (load_decomposition, DECOMPOSITION, ParseError, ": no data rows"),
        (load_scores, SCORES + "0,0.5,1\n\n1,0.5,0,9\n", ParseError,
         ":4: expected 3 fields, got 4"),
        (load_scores, SCORES + "0,0.5,1\n\n1,abc,0\n", ParseError, ":4: " + NON_NUMERIC("abc")),
        (load_scores, SCORES + "0,0.5,1\n\n1,0.5,yes\n", ParseError,
         ":4: label must be 0 or 1, got 'yes'"),
        (load_decomposition, DECOMPOSITION + "0,1.0,0.0,0.0\n\n1,1.0,0.0\n", ParseError,
         ":4: expected 4 fields, got 3"),
        (load_decomposition, DECOMPOSITION + "0,1.0,0.0,0.0\n\n1,1.0,-,0.0\n", ParseError,
         ":4: " + NON_NUMERIC("-")),
        *((load, "", ParseError, ": empty file")
          for load in (load_csv, load_scores, load_decomposition)),
        *((load, header.encode() + b"0,1.0,\xff0,0\n", ParseError, ": not UTF-8 (byte 0xff)")
          for load, header in ((load_csv, SERIES), (load_scores, SCORES),
                               (load_decomposition, DECOMPOSITION))),
        # two bad rows: the one on the earlier line is named, whatever its
        # column or kind, even when the later row fails a check made before it
        (load_csv, "t,dim_0,dim_1\n0,1.0,1.0\n\n1,1.0,bad\n2,worse,1.0\n", ParseError,
         ":4: " + NON_NUMERIC("bad")),
        (load_csv, SERIES + "0,1.0,0\n\n1,2.0,7\n2,x,0\n", ParseError,
         ":4: label must be 0 or 1, got '7'"),
        (load_csv, SERIES + "5,1.0,0\n\n4,2.0,1\n6,x\n", FormatError,
         ":4: t not strictly increasing"),
        (load_scores, SCORES + "0,0.5,1\n\n1,0.5,2\n2,abc,0\n", ParseError,
         ":4: label must be 0 or 1, got '2'"),
        (load_decomposition, DECOMPOSITION + "0,1.0,0.0,0.0\n\n1,1.0,0.0,x\n2,y,0.0\n",
         ParseError, ":4: " + NON_NUMERIC("x")),
        # a byte order mark is not a line, so the bad row is still on line 4
        (load_csv, BOM + (SERIES + "0,1.0,0\n\n1,oops,0\n").encode(), ParseError,
         ":4: " + NON_NUMERIC("oops")),
        # a series or decomposition value that is not finite, named with its
        # column and line; a later non-numeric row does not hide it
        *((load_csv, f"t,dim_0,dim_1\n0,1.0,1.0\n\n1,1.0,{v}\n2,x,1.0\n", ParseError,
           f":4: dim_1 must be finite, got '{v}'") for v in ("inf", "-inf", "nan")),
        *((load_decomposition, DECOMPOSITION + f"0,1.0,0.0,0.0\n\n1,{v},0.0,0.0\n", ParseError,
           f":4: clean_0 must be finite, got '{v}'") for v in ("inf", "-inf", "nan")),
        *((load_decomposition, DECOMPOSITION + f"0,1.0,0.0,0.0\n\n1,1.0, {v},0.0\n",
           ParseError, f":4: outlier_0 must be finite, got '{v}'")
          for v in ("Infinity", "-inf", "NaN")),
        # an infinite t is refused on its line too (a NaN t stays out of order)
        *((load_csv, SERIES + f"0,1.0,0\n\n{v},2.0,1\n", ParseError,
           f":4: t must be finite, got '{v}'") for v in ("inf", "Infinity", "-inf")),
        (load_csv, "t,dim_0\n-inf,1.0\n1,1.0\n", ParseError, ":2: t must be finite, got '-inf'"),
        # whitespace around a number, \x1c-\x1f and U+00A0 included, is stripped
        # as numpy strips it, so the line after such a number is the bad one
        (load_csv, SERIES + "0,\x1c1.0\x1f,0\n\n1,\xa0oops ,0\n", ParseError,
         ":4: " + NON_NUMERIC("oops")),
        # no quoting, no spelling that only Python's float reads, labels exactly
        # 0 or 1, no NUL in a data line, and no CR that does not end its line
        (load_csv, SERIES + '0,1.0,0\n\n1,"2.0",1\n', ParseError, ":4: " + NON_NUMERIC('"2.0"')),
        (load_scores, SCORES + '0,0.5,1\n\n1,"0,5",0\n', ParseError,
         ":4: expected 3 fields, got 4"),
        (load_csv, SERIES + "0,1.0,0\n\n1,1_0,1\n", ParseError, ":4: " + NON_NUMERIC("1_0")),
        (load_scores, SCORES + "0,0.5,1\n\n1,\u0661,0\n", ParseError,
         ":4: " + NON_NUMERIC("\u0661")),
        (load_decomposition, DECOMPOSITION + "0,1.0,0.0,0.0\n\n1,1.0,0.0, \u0662.5\n", ParseError,
         ":4: " + NON_NUMERIC("\u0662.5")),
        (load_scores, SCORES + '0,0.5,1\n\n1,0.5,"1"\n', ParseError,
         ":4: label must be 0 or 1, got '\"1\"'"),
        (load_csv, SERIES + "0,1.0,0\n\n1,2.0,1 \n", ParseError,
         ":4: label must be 0 or 1, got '1 '"),
        *((load_csv, SERIES + f"0,1.0,0\n\n1,2.0,{tag}\n", ParseError,
           f":4: label must be 0 or 1, got {tag!r}") for tag in (" 1", "1.0")),
        (load_scores, SCORES + "0,0.5,1\n\n1,0x10,0\n", ParseError, ":4: " + NON_NUMERIC("0x10")),
        (load_csv, SERIES + "0,1.0,0\n\n1,2.0,1\x00\n", ParseError, ":4: NUL character"),
        (load_scores, "t,score,label\n0,0.5,1\n\nb\x00,0.5,0\n", ParseError, ":4: NUL character"),
        (load_csv, SERIES + "0,1.0,0\n\n1,2.0,1\r2,3.0,0\n", ParseError, ":4: " + BARE_CR),
        (load_scores, "t,score,label\r0,0.5,1\r1,0.25,0\r", ParseError, ":1: " + BARE_CR),
        (load_csv, '"t",dim_0\n0,1\n', FormatError,
         ": header must be t,dim_0,..,dim_<D-1>[,label], got '\"t\",dim_0'"),
    ],
)
def test_csv_reader_errors_name_file_and_line(tmp_path, load, text, error, message):
    path = tmp_path / "in.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(error) as exc:
        load(path)
    assert str(exc.value) == f"{path}{message}"


def test_csv_cells_have_no_length_limit(tmp_path):
    # 140000 digits read as inf: a score may be infinite, a series value not
    digits = "1" * 140000
    path = tmp_path / "in.csv"
    path.write_text(SCORES + f"0,0.5,1\n\n1,{digits},0\n")
    assert list(load_scores(path)[0]) == [0.5, np.inf]
    path.write_text(SERIES + f"0,1.0,0\n\n1,{digits},1\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert str(exc.value) == f"{path}:4: dim_0 must be finite, got {digits!r}"


def test_score_columns_keep_infinite_scores(tmp_path):
    # only series and decomposition values must be finite; a score may be inf
    path = tmp_path / "in.csv"
    path.write_text(SCORES + "0,inf,1\n1,-inf,0\n")
    scores, _ = load_scores(path)
    assert list(scores) == [np.inf, -np.inf]
    path.write_text(DECOMPOSITION + "0,1.0,0.0,inf\n1,2.0,0.0,0.0\n")
    assert list(load_decomposition(path)[2]) == [np.inf, 0.0]


def _arrays(result):
    """The arrays a CSV reader returns, labels included (None when absent)."""
    parts = result if isinstance(result, tuple) else (result,)
    return [x for p in parts for x in ((p.values, p.labels) if isinstance(p, TimeSeries) else (p,))]


@pytest.mark.parametrize(
    "load, text",
    [
        (load_csv, SERIES + "0,1.5,0\n1,-2.25,1\n"),
        # a mark before "t" alone would not show: the scores reader never reads t
        (load_scores, "score,label\n0.5,1\n0.125,0\n"),
        (load_decomposition, DECOMPOSITION + "0,1.0,0.5,0.25\n1,-2.0,0.0,0.0\n"),
    ],
    ids=["series", "scores", "decomposition"],
)
def test_csv_reader_ignores_a_byte_order_mark(tmp_path, load, text):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(BOM + text.encode())
    for got, want in zip(_arrays(load(marked)), _arrays(load(plain)), strict=True):
        assert (got is None and want is None) or np.array_equal(got, want)


def test_csv_writers_add_no_byte_order_mark(tmp_path):
    path = tmp_path / "series.csv"
    save_csv(TimeSeries(np.ones((2, 1))), path)
    assert path.read_bytes().startswith(b"t,dim_0\r\n")


def test_csv_non_monotone_t(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,dim_0\n0,1.0\n2,2.0\n1,3.0\n")
    with pytest.raises(FormatError):
        load_csv(path)


def test_synth_exact_outlier_count():
    ts = generate_synthetic(SynthConfig(length=2000, outlier_ratio=0.05, seed=3))
    assert int(ts.labels.sum()) == 100


def test_synth_deterministic():
    cfg = SynthConfig(length=500, seed=11)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.labels, b.labels)


def test_synth_zero_magnitude_keeps_base():
    base = generate_synthetic(SynthConfig(length=400, outlier_magnitude=0.0, seed=5))
    spiked = generate_synthetic(SynthConfig(length=400, outlier_magnitude=4.0, seed=5))
    # same seed: identical base and labels, spikes differ only at labels
    assert np.array_equal(base.labels, spiked.labels)
    diff = np.abs(spiked.values - base.values)[:, 0]
    assert np.all(diff[~base.labels] == 0.0)
    sigma = base.values[:, 0].std(ddof=1)
    assert np.all(diff[base.labels] >= 0.9 * 4.0 * sigma)


def _runs(labels):
    """(start, stop) of each stretch of consecutive labelled steps."""
    edges = np.diff(np.concatenate(([0], labels.astype(int), [0])))
    return list(zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)))


def test_synth_collective_runs():
    # 11 leaves a shorter last block at every ratio; 600 makes the whole budget
    # one block up to ratio 0.6, and blocks of 600 and 300 at 0.9
    for ratio, run, seed in itertools.product((0.05, 0.3, 0.6, 0.9), (10, 11, 600), range(4)):
        common = dict(length=1000, dims=2, outlier_ratio=ratio, outlier_kind="collective",
                      collective_run_length=run, seed=seed)
        ts = generate_synthetic(SynthConfig(**common))
        base = generate_synthetic(SynthConfig(**common, outlier_magnitude=0.0))
        budget = int(ratio * 1000)
        block = min(run, budget)
        assert int(ts.labels.sum()) == budget
        lengths = [stop - start for start, stop in _runs(ts.labels)]
        # touching blocks would merge into fewer, longer runs
        assert len(lengths) == -(-budget // block)
        assert sum(length != block for length in lengths) <= 1
        assert all(length <= block for length in lengths)
        for start, stop in _runs(ts.labels):
            signs = np.sign(ts.values[start:stop] - base.values[start:stop])
            assert np.all(signs == signs[0]) and np.all(signs != 0), (ratio, run, seed, start)


def test_synth_collective_refuses_blocks_that_do_not_fit():
    # 91 outliers in 10 blocks of at most 10, with 9 clean steps between them,
    # fill 100 steps exactly: the blocks start at 0, end at 99 and are one apart
    fits = SynthConfig(length=100, outlier_ratio=0.91, outlier_kind="collective",
                       collective_run_length=10, seed=3)
    runs = _runs(generate_synthetic(fits).labels)
    assert runs[0][0] == 0 and runs[-1][1] == 100 and len(runs) == 10
    assert all(start == stop + 1 for (_, stop), (start, _) in zip(runs, runs[1:]))
    # one outlier more needs 101 steps
    with pytest.raises(ConfigError) as exc:
        SynthConfig(length=100, outlier_ratio=0.92, outlier_kind="collective",
                    collective_run_length=10)
    assert str(exc.value) == (
        "outlier_ratio 0.92 and collective_run_length 10 need 101 steps (92 outliers in "
        "10 blocks, one clean step between blocks), but length is 100"
    )
    # point outliers are spikes, not blocks: the same ratio is accepted
    SynthConfig(length=100, outlier_ratio=0.92, collective_run_length=10)


def test_synth_ar_variance():
    cfg = SynthConfig(
        kind="ar_process",
        length=100_000,
        ar_coefficients=(0.5,),
        noise_std=1.0,
        outlier_ratio=0.001,
        outlier_magnitude=0.0,
        seed=13,
    )
    ts = generate_synthetic(cfg)
    # AR(1) variance: noise_var / (1 - a^2)
    assert ts.values.var() == pytest.approx(1.0 / 0.75, rel=0.1)


def test_synth_nonstationary_ar_rejected():
    with pytest.raises(ConfigError):
        SynthConfig(kind="ar_process", ar_coefficients=(1.01,))


def test_synth_bad_ratio_rejected():
    with pytest.raises(ConfigError):
        SynthConfig(length=10, outlier_ratio=0.05)


@pytest.mark.parametrize(
    "fields, says",
    [({"kind": "spline"}, "unknown kind 'spline'"),
     ({"outlier_kind": "burst"}, "unknown outlier_kind 'burst'"),
     ({"outlier_ratio": 0.0}, "outlier_ratio must be in (0,1), got 0.0"),
     ({"outlier_ratio": 1.0}, "outlier_ratio must be in (0,1), got 1.0"),
     ({"frequencies": (0.02, 0.05)}, "frequencies and amplitudes must have equal length"),
     ({"kind": "ar_process", "ar_coefficients": ()}, "ar_coefficients must be nonempty")],
    ids=["kind", "outlier_kind", "ratio-0", "ratio-1", "frequencies-amplitudes", "ar-empty"],
)
def test_synth_refuses_recipes_it_cannot_draw(fields, says):
    with pytest.raises(ConfigError) as exc:
        SynthConfig(**fields)
    assert str(exc.value) == says


@pytest.mark.parametrize(
    "field, value",
    [("length", 100.5), ("dims", 1.5), ("collective_run_length", 2.5), ("seed", None),
     ("seed", -1), ("length", 1), ("collective_run_length", 0)],
)
def test_synth_refuses_non_integers(field, value):
    with pytest.raises(ParameterError, match=field):
        SynthConfig(**{field: value, "outlier_kind": "collective"})


@pytest.mark.parametrize(
    "field, value, says",
    [("outlier_magnitude", True, "outlier_magnitude must be a number"),
     ("outlier_magnitude", "5", "outlier_magnitude must be a number"),
     ("outlier_magnitude", -1.0, "outlier_magnitude must be >= 0"),
     ("outlier_magnitude", float("nan"), "outlier_magnitude must be finite"),
     ("noise_std", True, "noise_std must be a number"),
     ("noise_std", float("inf"), "noise_std must be finite"),
     ("outlier_ratio", "0.05", "outlier_ratio must be a number"),
     ("outlier_ratio", float("nan"), "outlier_ratio must be finite"),
     ("frequencies", ("a",), "frequencies[0] must be a number"),
     ("amplitudes", (1.0, None), "amplitudes[1] must be a number"),
     ("amplitudes", (True,), "amplitudes[0] must be a number"),
     ("ar_coefficients", ("x",), "ar_coefficients[0] must be a number")],
)
def test_synth_refuses_reals_that_are_not_finite_numbers(field, value, says):
    with pytest.raises(ParameterError) as exc:
        SynthConfig(**{field: value})
    assert says in str(exc.value)


def test_synth_keeps_valid_values_as_given():
    given = {**asdict(SynthConfig()), "outlier_magnitude": 5, "noise_std": 0,
             "frequencies": (0.02, 1), "amplitudes": (1, 0.5), "ar_coefficients": (0,)}
    # json writes 5 and 5.0 apart, as a manifest would
    assert json.dumps(asdict(SynthConfig(**given))) == json.dumps(given)


def _reference_synthetic(cfg):
    """generate_synthetic index by index: each block's steps are marked one
    at a time and take the block's one sign; a point outlier is a block of
    one step."""
    rng = np.random.default_rng(cfg.seed)
    base = data._base_signal(cfg, rng)
    c = cfg.length
    budget = int(cfg.outlier_ratio * c)
    if cfg.outlier_kind == "point":
        positions = np.sort(rng.choice(c, size=budget, replace=False))
        blocks = [[int(pos)] for pos in positions]
    else:
        run = min(cfg.collective_run_length, budget)
        lengths = [run] * (budget // run) + ([budget % run] if budget % run else [])
        lengths = [int(n) for n in rng.permutation(lengths)]
        gaps = sorted(int(g) for g in rng.choice(c - budget + 1, size=len(lengths), replace=False))
        # block i starts at its gap plus the lengths of the blocks before it
        blocks, before = [], 0
        for gap, length in zip(gaps, lengths):
            blocks.append([gap + before + k for k in range(length)])
            before += length
    signs = np.where(rng.random((len(blocks), cfg.dims)) < 0.5, -1.0, 1.0)
    sigma = base.std(axis=0, ddof=1)
    sigma = np.where(sigma <= 0, 1.0, sigma)
    values = base.copy()
    labels = np.zeros(c, dtype=bool)
    for sign, block in zip(signs, blocks):
        for pos in block:
            values[pos] += sign * cfg.outlier_magnitude * sigma
            labels[pos] = True
    return values, labels


def test_synth_equals_the_index_by_index_reference():
    # ratio 0.9 fits blocks of 10 and 50 but not of 1 and 3: those configs are
    # refused; a run length of 1 gives point-like runs
    sparse = itertools.product(("sinusoid_mix", "ar_process"), (20, 100, 600), (1, 3),
                               (0.05, 0.3), range(2))
    dense = itertools.product(("sinusoid_mix",), (20, 600), (3,), (0.9,), range(1))
    collective_at_0 = 0
    for kind, length, dims, ratio, seed in itertools.chain(sparse, dense):
        for outlier_kind, run in [("point", 10)] + [("collective", r) for r in (1, 3, 10, 50)]:
            fields = dict(kind=kind, length=length, dims=dims, outlier_ratio=ratio,
                          outlier_kind=outlier_kind, collective_run_length=run, seed=seed)
            if outlier_kind == "collective" and ratio == 0.9 and run in (1, 3):
                with pytest.raises(ConfigError, match="collective_run_length"):
                    SynthConfig(**fields)
                continue
            cfg = SynthConfig(**fields)
            ts = generate_synthetic(cfg)
            values, labels = _reference_synthetic(cfg)
            assert np.array_equal(ts.values, values), cfg
            assert np.array_equal(ts.labels, labels), cfg
            collective_at_0 += outlier_kind == "collective" and bool(labels[0])
    # a run starting at t = 0 has no clean step before it
    assert collective_at_0 > 0


def trained_model(seed=0):
    cfg = AutoencoderConfig(input_dim=4, layer_dims=(3, 2, 3), inner_epochs=25, seed=seed)
    model = AutoencoderModel(cfg)
    x = np.random.default_rng(seed).standard_normal((10, 4))
    model.train(x)
    return model


def test_model_roundtrip_bit_exact(tmp_path):
    model = trained_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.config == model.config
    for a, b in zip(model.weights, back.weights):
        assert np.array_equal(a, b)
    for a, b in zip(model.biases, back.biases):
        assert np.array_equal(a, b)


def test_model_file_bytes_equal_the_field_by_field_writer(tmp_path):
    model = trained_model(seed=3)
    payload = {
        "config": asdict(model.config),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    doc = {"version": 1, "config": payload["config"], "weights": payload["weights"],
           "biases": payload["biases"], "checksum": hashlib.sha256(blob).hexdigest()}
    save_model(model, tmp_path / "model.json")
    assert (tmp_path / "model.json").read_text(encoding="utf-8") == json.dumps(doc, sort_keys=True)


def test_model_file_schema(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_model(), path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"version", "config", "weights", "biases", "checksum"}


def test_model_tampered_checksum(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_model(), path)
    doc = json.loads(path.read_text())
    doc["weights"][0][0][0] += 1.0
    path.write_text(json.dumps(doc))
    with pytest.raises(IntegrityError):
        load_model(path)


def test_model_future_version(tmp_path):
    path = tmp_path / "model.json"
    save_model(trained_model(), path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(UpgradeError):
        load_model(path)


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe not utf-8", b"[]"],
    ids=["not-utf-8", "top-level-list"],
)
def test_model_file_that_does_not_parse(tmp_path, content):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    with pytest.raises(ParseError, match="model.json"):
        load_model(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["config"].update(stride=1),
        lambda doc: doc["config"].update(learning_rate=-1.0),
        lambda doc: doc["weights"].pop(),
        # one entry would broadcast over the whole bias
        lambda doc: doc["biases"].__setitem__(0, doc["biases"][0][:1]),
        # json reads and writes NaN and Infinity, though they are not JSON
        lambda doc: doc["weights"][0][0].__setitem__(0, float("nan")),
        lambda doc: doc["biases"][0].__setitem__(0, float("inf")),
    ],
    ids=["unknown-config-field", "bad-config-value", "missing-layer", "one-entry-bias",
         "nan-weight", "infinite-bias"],
)
def test_model_payload_that_does_not_build(tmp_path, edit):
    # the checksum is recomputed, so only the payload itself is at fault
    path = tmp_path / "model.json"
    save_model(trained_model(), path)
    doc = json.loads(path.read_text())
    edit(doc)
    doc["checksum"] = _checksum({k: doc[k] for k in ("config", "weights", "biases")})
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="model.json: payload does not build a model"):
        load_model(path)


def test_decomposition_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    clean = TimeSeries(rng.standard_normal((30, 2)))
    outlier = TimeSeries(rng.standard_normal((30, 2)))
    d = Decomposition(clean, outlier, 5, (1e-6, 1e-7), [0.5, 0.2])
    path = tmp_path / "dec.csv"
    save_decomposition(d, path)
    clean2, outlier2, scores = load_decomposition(path)
    assert np.array_equal(clean2.values, clean.values)
    assert np.array_equal(outlier2.values, outlier.values)
    assert np.array_equal(scores, np.sum(outlier.values**2, axis=1))


def test_clean_only_decomposition_read_converts_only_the_clean_columns(tmp_path):
    rng = np.random.default_rng(3)
    clean = TimeSeries(rng.standard_normal((12, 2)))
    path = tmp_path / "dec.csv"
    save_decomposition(Decomposition(clean, TimeSeries(rng.standard_normal((12, 2))), 1,
                                     (0.0, 0.0)), path)
    lines = path.read_text().split("\n")
    # line 4: a non-numeric outlier cell; line 6: a NaN outlier and an empty score
    lines[3] = ",".join(lines[3].split(",")[:3] + ["abc"] + lines[3].split(",")[4:])
    lines[5] = ",".join(lines[5].split(",")[:4] + ["nan", ""])
    path.write_text("\n".join(lines))
    got, outlier, scores = load_decomposition(path, clean_only=True)
    assert got.values.tobytes() == clean.values.tobytes()
    assert outlier is None and scores is None
    # the full read refuses the same file as it always did, on the first bad line
    with pytest.raises(ParseError, match=":4: " + re.escape(NON_NUMERIC("abc"))):
        load_decomposition(path)
    # a bad clean cell still names its line, and so does a short line
    lines[8] = "7,1.0,oops,0.5,0.5,0.5"
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError, match=":9: " + re.escape(NON_NUMERIC("oops"))):
        load_decomposition(path, clean_only=True)
    lines[8] = "7,1.0,inf,0.5,0.5,0.5"
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError, match=":9: clean_1 must be finite, got 'inf'"):
        load_decomposition(path, clean_only=True)
    lines[8] = "7,1.0,2.0,0.5,0.5"
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError, match=":9: expected 6 fields, got 5"):
        load_decomposition(path, clean_only=True)


@pytest.mark.parametrize(
    "header",
    [
        "t,clean_0,outlier_0,note,score",
        "t,clean_0,outlier_0,outlier_1,score",
        "t,clean_1,outlier_0,score",
    ],
)
def test_decomposition_header_must_match_exactly(tmp_path, header):
    path = tmp_path / "dec.csv"
    path.write_text(header + "\n" + ",".join(["0"] * len(header.split(","))) + "\n")
    with pytest.raises(FormatError, match="not a decomposition file"):
        load_decomposition(path)


def _reference_read(load, path):
    """What ``load`` returns for ``path`` under the stated grammar, read line
    by line with str.split and Python's float: UTF-8 with an optional byte
    order mark, lines ending at LF or CRLF and holding no other CR, no NUL
    in a data line, fields split at every comma, a numeric cell stripped of
    whitespace and read by float only if ASCII without an underscore, and a
    label exactly 0 or 1."""
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 (byte 0x{exc.object[exc.start]:02x})") from None
    if not text:
        raise ParseError(f"{path}: empty file")
    lines = [line.removesuffix("\r") for line in text.split("\n")]
    if "\r" in lines[0]:
        raise ParseError(f"{path}:1: {BARE_CR}")
    header = [h.strip() for h in lines[0].split(",")]
    if load is load_csv:
        has_label = header[-1:] == ["label"]
        dims = len(header) - 1 - has_label
        if dims < 1 or header[: dims + 1] != ["t"] + [f"dim_{d}" for d in range(dims)]:
            raise FormatError(f"{path}: header must be t,dim_0,..,dim_<D-1>[,label], "
                              f"got {','.join(header)!r}")
        (_, *values), labels = _reference_columns(
            path, header, lines, range(dims + 1), dims + 1 if has_label else None, True,
            range(1, dims + 1))
        return TimeSeries(np.column_stack(values), labels=labels)
    if load is load_scores:
        if "score" not in header or "label" not in header:
            raise FormatError(f"{path}: needs 'score' and 'label' columns")
        (scores,), labels = _reference_columns(
            path, header, lines, [header.index("score")], header.index("label"), False, ())
        return scores, labels
    d = (len(header) - 2) // 2
    if d < 1 or header != ["t", *(f"{p}_{i}" for p in ("clean", "outlier") for i in range(d)),
                           "score"]:
        raise FormatError(f"{path}: not a decomposition file (t,clean_0..,outlier_0..,score)")
    cols, _ = _reference_columns(path, header, lines, range(1, 2 * d + 2), None, False,
                                 range(1, 2 * d + 1))
    return TimeSeries(np.column_stack(cols[:d])), TimeSeries(np.column_stack(cols[d:-1])), cols[-1]


def _reference_number(cell):
    """A numeric cell's float, or None where the grammar refuses it."""
    number = cell.strip()
    try:
        return float(number) if number.isascii() and "_" not in number else None
    except ValueError:
        return None


def _reference_columns(path, header, lines, cols, label, increasing, finite):
    """The columns and labels of the data lines, or the first bad line's error."""
    numbers, tags = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        at, fields = f"{path}:{lineno}: ", line.split(",")
        if "\r" in line or "\x00" in line:
            raise ParseError(at + (BARE_CR if "\r" in line else "NUL character"))
        if len(fields) != len(header):
            raise ParseError(at + f"expected {len(header)} fields, got {len(fields)}")
        row = [_reference_number(fields[c]) for c in cols]
        if None in row:
            raise ParseError(at + NON_NUMERIC(fields[cols[row.index(None)]].strip()))
        # an infinite t is not finite; a NaN t is out of order
        bad = [c for c, x in zip(cols, row)
               if c in finite and not math.isfinite(x) or increasing and c == 0 and math.isinf(x)]
        if bad:
            raise ParseError(at + f"{header[bad[0]]} must be finite, "
                             f"got {fields[bad[0]].strip()!r}")
        tag = "0" if label is None else fields[label]
        if tag not in ("0", "1"):
            raise ParseError(at + f"label must be 0 or 1, got {tag!r}")
        if increasing and not row[0] > (numbers[-1][0] if numbers else -math.inf):
            raise FormatError(at + "t not strictly increasing")
        numbers.append(row)
        tags.append(tag == "1")
    if not numbers:
        raise ParseError(f"{path}: no data rows")
    values = [np.array(column, dtype=float) for column in zip(*numbers)]
    return values, None if label is None else np.array(tags, dtype=bool)


def _outcome(read, path):
    """The arrays ``read(path)`` returns, each as (dtype, shape, C-contiguity,
    bytes), or the class and message of the error it raises."""
    try:
        result = read(path)
    except (ParseError, FormatError) as exc:
        return type(exc), str(exc)
    return [None if a is None else (a.dtype, a.shape, a.flags.c_contiguous, a.tobytes())
            for a in _arrays(result)]


def _check_reader(path, content, load):
    if isinstance(content, str):
        content = content.encode()
    path.write_bytes(content)
    want = _outcome(lambda p: _reference_read(load, p), path)
    assert _outcome(load, path) == want, content[:200]
    return want


LOADERS = {load_csv: SERIES, load_scores: SCORES, load_decomposition: DECOMPOSITION}
# cells that float() and numpy's tokenizer may read apart: whitespace of every
# kind, quotes, spellings only float() reads, separators, NUL and CR
TRICKY_CELLS = ("1_0", "\u0661", "\u0661.5", " 1", "1 ", "\t2\x0c", "\x0c1", "\xa01", "1\x85",
                "1\u2028", "\x1c1", "1\x1f", '"1"', '"1"2', ' "1"', '1"2', '"1"""', '"1,5"',
                '"1\n"', "", " ", "#1", "1#", "1\x00", "\x001", "inf", "-Infinity", "nan", "-nan",
                "1e999", "0x10", "1.", ".5", "+.5e-3", "1e", "\ufeff1", "1,", "nan(1)", "1\r",
                "\r1", "1\r\n")
# the columns each loader reads as numbers
NUMERIC = {load_csv: (0, 1), load_scores: (1,), load_decomposition: (1, 2, 3)}


@pytest.mark.parametrize("load", list(LOADERS), ids=["series", "scores", "decomposition"])
def test_reader_equals_the_cell_by_cell_reference_on_tricky_cells(tmp_path, load):
    header = LOADERS[load]
    width = header.count(",") + 1
    path = tmp_path / "in.csv"
    for cell, col in itertools.product(TRICKY_CELLS, range(width)):
        rows = [["0", "1.0", "0.5", "0.25"][:width], ["1", "2.0", "1", "0"][:width]]
        rows[1][col] = cell
        got = _check_reader(path, header + "".join(",".join(r) + "\n" for r in rows), load)
        # no quoting, and no spelling that only float() reads
        if col in NUMERIC[load] and any(c in cell for c in '"_\u0661'):
            assert got[0] is ParseError, (cell, col)


# the (load, text) pairs of the error table above
ERROR_TABLE = [case[:2] for case in test_csv_reader_errors_name_file_and_line.pytestmark[0].args[1]]


@pytest.mark.parametrize(
    "load, content",
    [
        *ERROR_TABLE,
        # line ends: \n, \r\n (what write_columns writes), a bare \r (refused),
        # and blank lines of each kind; whitespace-only lines and trailing commas
        *((load, LOADERS[load].replace("\n", end) + f"0,1,0,1{end}{end}1,2,1,2{end}")
          for load in LOADERS for end in ("\n", "\r\n", "\r")),
        (load_csv, SERIES + "0,1.0,0\n \n1,2.0,1\n"),
        (load_csv, SERIES + "0,1.0,0\r\n\t\r\n1,2.0,1\r\n"),
        (load_csv, SERIES + "0,1.0,0,\n1,2.0,1,\n"),
        (load_csv, SERIES + "0,1.0,0\n\x0c\n"),
        (load_decomposition, DECOMPOSITION + "0,1,2,3\n1,4,5,6\n\n\n\r\n"),
        (load_decomposition, DECOMPOSITION + "0,1,2,3"),
        # a first line that ends at a bare \r, and quoted headers: quotes are
        # text like any other, so none of these headers matches
        (load_scores, "t,score,label\r0,0.5,1\r1,0.25,0"),
        (load_scores, '"t","score","label"\n0,0.5,1\n'),
        (load_scores, '"t\nx",score,label\n0,0.5,1\n'),
        (load_csv, '"t",dim_0\n0,1\n1,2\n'),
        # eval reads any file with score and label columns: text in the others
        (load_scores, "t,score,label\na,0.5,1\nb,0.25,0\n"),
        (load_scores, "name,score,note,label\nx,0.5,hi there,1\ny,0.25,,0\n"),
        (load_decomposition, DECOMPOSITION + "start,1,2,3\nend,4,5,6\n"),
        # a label is exactly 0 or 1: no whitespace, quote or other spelling
        *((load, LOADERS[load] + f"0,1.0,{tag}\n1,2.0,0\n")
          for load in (load_csv, load_scores)
          for tag in (" 1", "1 ", "\t0", '"1"', '" 1"', "1.0", "+1", "01", "-0", "1e0", "", "10")),
        # byte order marks and files that are not UTF-8
        *((load, BOM + (LOADERS[load] + "0,1,0,1\n").encode()) for load in LOADERS),
        *((load, BOM + BOM + (LOADERS[load] + "0,1,0,1\n").encode()) for load in LOADERS),
        *((load, (LOADERS[load] + "0,1,0,1\n").encode() + b"\x80\n") for load in LOADERS),
        *((load, b"\xff" + LOADERS[load].encode()) for load in LOADERS),
        (load_csv, BOM),
        (load_csv, (SERIES + "0,1.0,0\n1,\xe9,0\n").encode("latin-1")),
        (load_csv, (SERIES + "0,1.0,0\n1,\xe9,0\n").encode("utf-8")),
        # long files, long lines and long cells (there is no field limit), and
        # quoted cells that span lines
        (load_csv, SERIES + "".join(f"{i},{i / 7!r},{i % 2}\n" for i in range(8000))),
        (load_csv, SERIES + "".join(f'{i},"{i / 7!r}",{i % 2}\n' for i in range(8000))),
        (load_csv, SERIES + "".join(f"{i},{i / 7!r},{i % 2}\r" for i in range(8000))),
        (load_scores, SCORES + "0,0.5,1\n1," + " " * 131060 + "2,0\n"),
        (load_scores, SCORES + "0,0.5,1\n1," + " " * 140000 + "2,0\n"),
        (load_scores, SCORES + "0," + "9" * 131072 + ",1\n"),
        (load_scores, SCORES + "0," + "9" * 131073 + ",1\n"),
        (load_scores, SCORES + "0,0.5,1\n" * 20000 + '1,"0.5\n",0\n'),
        (load_scores, SCORES + "0,0.5,1\n\n1," + "1" * 140000 + ",0\n"),
        (load_scores, SCORES + "0,0.5,1\n" * 9 + '1,"' + "1\n" * 70000 + '",0\n'),
        (load_scores, SCORES + "0,0.5,1\n" * 9 + '1,"1' + "\n" * 140000 + '",0\n'),
    ],
    ids=lambda v: f"{v[:30]!r}..{len(v)}" if isinstance(v, (str, bytes)) and len(v) > 60 else None,
)
def test_reader_equals_the_cell_by_cell_reference(tmp_path, load, content):
    _check_reader(tmp_path / "in.csv", content, load)


def test_reader_refuses_what_only_float_reads_and_numeric_labels(tmp_path):
    path = tmp_path / "in.csv"
    for cell in ("1_0", "\u0661", '"1"'):
        _, message = _check_reader(path, SERIES + f"0,1.0,0\n1,{cell},1\n", load_csv)
        assert message.endswith(":3: " + NON_NUMERIC(cell))
    for tag in ("1.0", "+1", "01", " 1", '"1"'):
        _, message = _check_reader(path, SCORES + f"0,0.5,{tag}\n", load_scores)
        assert message.endswith(f":2: label must be 0 or 1, got {tag!r}")


_CELL = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(TRICKY_CELLS),
    st.text(alphabet=" \t\x0c\x1e\r\n\"#,.+-_0189eEinfaINFA\x00\xa0\u0661", max_size=5),
)


@st.composite
def _csv_files(draw):
    load = draw(st.sampled_from(list(LOADERS)))
    header = draw(st.sampled_from([LOADERS[load], "t,dim_0,dim_1\n", "score,x,label\n",
                                   "t,clean_0,clean_1,outlier_0,outlier_1,score\n"]))
    width = header.count(",") + 1
    lines = []
    for i in range(draw(st.integers(0, 6))):
        cells = [str(i)] + [draw(_CELL) for _ in range(width - 1)]
        if "label" in header and draw(st.booleans()):
            cells[header.strip().split(",").index("label")] = draw(st.sampled_from("01"))
        if draw(st.integers(0, 9)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else cells + [draw(_CELL)]
        lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = header.replace("\n", end) + end.join(lines) + draw(st.sampled_from(["", end, end * 2]))
    return load, (BOM if draw(st.booleans()) else b"") + text.encode()


@given(case=_csv_files())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_reader_equals_the_cell_by_cell_reference_on_generated_files(tmp_path, case):
    load, content = case
    _check_reader(tmp_path / "in.csv", content, load)
