import hashlib
import itertools
import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest

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


# each bad row follows a good row and a blank line, so it sits on line 4 only
# when the blank line is counted
@pytest.mark.parametrize(
    "load, text, error, message",
    [
        (load_csv, SERIES + "0,1.0,0\n\n1,2.0\n", ParseError, ":4: expected 3 fields, got 2"),
        (load_csv, SERIES + "0,1.0,0\n\n1,oops,0\n", ParseError, ":4: " + NON_NUMERIC("oops")),
        (load_csv, SERIES + "0,1.0,0\n\nx,1.0,0\n", ParseError, ":4: " + NON_NUMERIC("x")),
        (load_csv, SERIES + "0,1.0,0\n\n1,2.0, 2\n", ParseError,
         ":4: label must be 0 or 1, got '2'"),
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
