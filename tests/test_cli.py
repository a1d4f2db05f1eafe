import json
import warnings

import numpy as np
import pytest

from robustae import evaluate, load_csv, load_decomposition, outlier_scores, train
from robustae.cli import main
from robustae.decompose import RaeConfig
from robustae.nn import AutoencoderConfig


SYNTH_CONFIG = {
    "kind": "sinusoid_mix",
    "length": 300,
    "dims": 1,
    "outlier_ratio": 0.05,
    "outlier_magnitude": 5.0,
    "frequencies": [0.02],
    "amplitudes": [1.0],
    "noise_std": 0.3,
    "seed": 21,
}

RAE_CONFIG = {
    "lam": 0.05,
    "max_outer_iters": 12,
    "window_len": 8,
    "seed": 17,
    "ae": {
        "input_dim": 8,
        "layer_dims": [12, 6, 12],
        "learning_rate": 0.005,
        "inner_epochs": 6,
        "seed": 17,
    },
}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "synth.json").write_text(json.dumps(SYNTH_CONFIG))
    (tmp_path / "rae.json").write_text(json.dumps(RAE_CONFIG))
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def test_synth_writes_csv_and_manifest(workdir, capsys):
    code = run(["synth", "--config", workdir / "synth.json", "--out", "data.csv",
                "--out-dir", workdir])
    assert code == 0
    assert (workdir / "data.csv").exists()
    assert (workdir / "data.csv.manifest.json").exists()
    ts = load_csv(workdir / "data.csv")
    assert ts.length == 300
    assert int(ts.labels.sum()) == 15


def test_synth_missing_config_exits_2(workdir):
    assert run(["synth", "--config", workdir / "nope.json", "--out-dir", workdir]) == 2


def test_train_outputs(workdir, capsys):
    run(["synth", "--config", workdir / "synth.json", "--out", "data.csv",
         "--out-dir", workdir])
    code = run(["train", "--method", "rae", "--input", workdir / "data.csv",
                "--config", workdir / "rae.json", "--out-dir", workdir / "run"])
    assert code == 0
    for name in ("decomposition.csv", "scores.csv", "loss_trace.csv",
                 "model.json", "manifest.json"):
        assert (workdir / "run" / name).exists(), name
    manifest = json.loads((workdir / "run" / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["method"] == "rae"


def test_train_bad_method_exits_2(workdir):
    run(["synth", "--config", workdir / "synth.json", "--out", "data.csv",
         "--out-dir", workdir])
    code = run(["train", "--method", "bogus", "--input", workdir / "data.csv",
                "--config", workdir / "rae.json", "--out-dir", workdir / "x"])
    assert code == 2


def test_train_missing_input_exits_4(workdir):
    code = run(["train", "--method", "rae", "--input", workdir / "missing.csv",
                "--config", workdir / "rae.json", "--out-dir", workdir / "x"])
    assert code == 4


def test_train_verbose_logs_iterations(workdir, capsys):
    run(["synth", "--config", workdir / "synth.json", "--out", "data.csv",
         "--out-dir", workdir])
    code = run(["train", "--method", "rae", "--input", workdir / "data.csv",
                "--config", workdir / "rae.json", "--out-dir", workdir / "run",
                "--verbose"])
    assert code == 0
    err = capsys.readouterr().err
    assert "iter=" in err and "cond1=" in err


def test_eval_perfect_scores(tmp_path, capsys):
    path = tmp_path / "scores.csv"
    path.write_text("t,score,label\n0,0.9,1\n1,0.8,1\n2,0.1,0\n3,0.0,0\n")
    assert run(["eval", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pr_auc"] == 1.0
    assert doc["roc_auc"] == 1.0


def test_eval_single_class_exits_2(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("t,score,label\n0,0.9,1\n1,0.8,1\n")
    assert run(["eval", "--input", path]) == 2


def test_pipeline_matches_library(workdir, capsys):
    run(["synth", "--config", workdir / "synth.json", "--out", "data.csv",
         "--out-dir", workdir])
    run(["train", "--method", "rae", "--input", workdir / "data.csv",
         "--config", workdir / "rae.json", "--out-dir", workdir / "run"])
    capsys.readouterr()
    run(["eval", "--input", workdir / "run" / "scores.csv"])
    cli_doc = json.loads(capsys.readouterr().out)

    ts = load_csv(workdir / "data.csv")
    cfg_doc = dict(RAE_CONFIG)
    cfg_doc["ae"] = AutoencoderConfig(
        **{**RAE_CONFIG["ae"], "layer_dims": tuple(RAE_CONFIG["ae"]["layer_dims"])}
    )
    cfg = RaeConfig(**cfg_doc)
    d = train(ts, "rae", cfg)
    result = evaluate(outlier_scores(d), ts.labels)
    assert abs(cli_doc["pr_auc"] - result.pr_auc) < 1e-12
    assert abs(cli_doc["roc_auc"] - result.roc_auc) < 1e-12


def test_explain_linear_clean_series(tmp_path, capsys):
    # hand-built decomposition whose clean part is an exact line
    lines = ["t,clean_0,outlier_0,score"]
    for i in range(50):
        lines.append(f"{i},{1.0 + 2.0 * i},0.0,0.0")
    path = tmp_path / "dec.csv"
    path.write_text("\n".join(lines) + "\n")
    assert run(["explain", "--input", path, "--method", "prm", "--gamma", "1e-6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["score"] == 1
    assert doc["explainable"] is True
    # degree 0 entry plus degrees 1..9
    assert len(doc["rmse_by_order"]) == 10


def test_explain_noise_not_explainable(tmp_path, capsys):
    rng = np.random.default_rng(0)
    lines = ["t,clean_0,outlier_0,score"]
    for i, v in enumerate(rng.standard_normal(200)):
        lines.append(f"{i},{float(v)!r},0.0,0.0")
    path = tmp_path / "dec.csv"
    path.write_text("\n".join(lines) + "\n")
    assert run(["explain", "--input", path, "--method", "ssa", "--gamma", "0.01",
                "--nmax", "9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["score"] is None
    assert doc["explainable"] is False
    assert len(doc["rmse_by_order"]) == 9


def test_sweep_single_row(workdir, capsys):
    run(["synth", "--config", workdir / "synth.json", "--out", "data.csv",
         "--out-dir", workdir])
    sweep_cfg = {
        "method": "rae",
        "base": {"max_outer_iters": 6, "window_len": 8, "seed": 0},
        "grid": {"lam": [0.05], "depth": [3], "width": [12]},
        "seed": 1,
    }
    (workdir / "sweep.json").write_text(json.dumps(sweep_cfg))
    capsys.readouterr()
    code = run(["sweep", "--input", workdir / "data.csv", "--config",
                workdir / "sweep.json", "--n-random", "1", "--out", "table.csv",
                "--out-dir", workdir])
    assert code == 0
    rows = (workdir / "table.csv").read_text().strip().splitlines()
    assert len(rows) == 2  # header + one run
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_ok"] == 1
    assert "median" in doc


def test_sweep_median_is_middle_pr(workdir, capsys):
    run(["synth", "--config", workdir / "synth.json", "--out", "data.csv",
         "--out-dir", workdir])
    sweep_cfg = {
        "method": "rae",
        "base": {"max_outer_iters": 6, "window_len": 8, "seed": 0},
        "grid": {"lam": [1e-4, 0.05, 1.0], "depth": [1, 3], "width": [8, 16]},
        "seed": 2,
    }
    (workdir / "sweep.json").write_text(json.dumps(sweep_cfg))
    code = run(["sweep", "--input", workdir / "data.csv", "--config",
                workdir / "sweep.json", "--n-random", "3", "--out", "table.csv",
                "--out-dir", workdir])
    assert code == 0
    import csv as csvmod

    with open(workdir / "table.csv") as fh:
        rows = list(csvmod.DictReader(fh))
    ok = [r for r in rows if r["status"] == "ok"]
    prs = sorted(float(r["pr_auc"]) for r in ok)
    marked = [r for r in rows if r["is_median"] == "1"]
    assert len(marked) == 1
    assert float(marked[0]["pr_auc"]) == prs[(len(prs) - 1) // 2]


def test_sweep_null_seed_is_seed_0(workdir, capsys):
    run(["synth", "--config", workdir / "synth.json", "--out", "data.csv",
         "--out-dir", workdir])
    for seed in (None, 0):
        sweep_cfg = {"base": {"max_outer_iters": 2, "window_len": 8}, "grid": {"lam": [0.05, 0.5]},
                     "seed": seed}
        (workdir / "sweep.json").write_text(json.dumps(sweep_cfg))
        assert run(["sweep", "--input", workdir / "data.csv", "--config", workdir / "sweep.json",
                    "--n-random", "2", "--out", f"table_{seed}.csv", "--out-dir", workdir]) == 0
    assert (workdir / "table_None.csv").read_bytes() == (workdir / "table_0.csv").read_bytes()


def test_replay_reproduces_outputs_byte_identically(workdir, capsys):
    run(["synth", "--config", workdir / "synth.json", "--out", "data.csv",
         "--out-dir", workdir])
    run(["train", "--method", "rae", "--input", workdir / "data.csv",
         "--config", workdir / "rae.json", "--out-dir", workdir / "run1"])
    code = run(["replay", "--manifest", workdir / "run1" / "manifest.json",
                "--out-dir", workdir / "run2"])
    assert code == 0
    for name in ("decomposition.csv", "scores.csv", "loss_trace.csv", "model.json"):
        a = (workdir / "run1" / name).read_bytes()
        b = (workdir / "run2" / name).read_bytes()
        assert a == b, name


RDAE_CONFIG = {
    "lagged_window": 6,
    "lam1": 0.05,
    "lam2": 0.05,
    "max_outer_iters": 5,
    "max_while_iters": 2,
    "window_len": 8,
    "seed": 19,
    "f1": {"input_dim": 6, "layer_dims": [4], "learning_rate": 0.005,
           "inner_epochs": 4, "seed": 19},
    "inner_ae": {"input_dim": 6, "layer_dims": [8, 4, 8], "learning_rate": 0.005,
                 "inner_epochs": 4, "seed": 20},
    "f2": {"input_dim": 8, "layer_dims": [12, 6, 12], "learning_rate": 0.005,
           "inner_epochs": 4, "seed": 21},
}


def test_train_rdae_writes_three_models_and_replays(workdir, capsys):
    run(["synth", "--config", workdir / "synth.json", "--out", "data.csv",
         "--out-dir", workdir])
    (workdir / "rdae.json").write_text(json.dumps(RDAE_CONFIG))
    code = run(["train", "--method", "rdae", "--input", workdir / "data.csv",
                "--config", workdir / "rdae.json", "--out-dir", workdir / "dual"])
    assert code == 0
    for name in ("model_f1.json", "model_inner_ae.json", "model_f2.json"):
        assert (workdir / "dual" / name).exists(), name
    code = run(["replay", "--manifest", workdir / "dual" / "manifest.json",
                "--out-dir", workdir / "dual2"])
    assert code == 0
    for name in ("decomposition.csv", "model_f1.json", "model_inner_ae.json",
                 "model_f2.json"):
        assert (workdir / "dual" / name).read_bytes() == (
            workdir / "dual2" / name
        ).read_bytes(), name


def test_sweep_twenty_configs_within_budget(workdir, capsys):
    import time

    run(["synth", "--config", workdir / "synth.json", "--out", "data.csv",
         "--out-dir", workdir])
    sweep_cfg = {
        "method": "rae",
        "base": {"max_outer_iters": 4, "window_len": 8, "seed": 0},
        "grid": {"lam": [1e-4, 1e-3, 1e-2, 1e-1, 1.0], "depth": [1, 3],
                 "width": [8, 16]},
        "seed": 3,
    }
    (workdir / "sweep.json").write_text(json.dumps(sweep_cfg))
    started = time.time()
    code = run(["sweep", "--input", workdir / "data.csv", "--config",
                workdir / "sweep.json", "--n-random", "20", "--out", "table.csv",
                "--out-dir", workdir])
    elapsed = time.time() - started
    assert code == 0
    assert elapsed < 600.0
    rows = (workdir / "table.csv").read_text().strip().splitlines()
    assert len(rows) == 21


def test_sweep_and_eval_manifests_replay(workdir, capsys):
    run(["synth", "--config", workdir / "synth.json", "--out", "data.csv",
         "--out-dir", workdir])
    sweep_cfg = {
        "method": "rae",
        "base": {"max_outer_iters": 4, "window_len": 8, "seed": 0},
        "grid": {"lam": [0.01, 0.1], "depth": [3], "width": [12]},
        "seed": 5,
    }
    (workdir / "sweep.json").write_text(json.dumps(sweep_cfg))
    run(["sweep", "--input", workdir / "data.csv", "--config", workdir / "sweep.json",
         "--n-random", "2", "--out", "table.csv", "--out-dir", workdir / "s1"])
    assert run(["replay", "--manifest", workdir / "s1" / "table.csv.manifest.json",
                "--out-dir", workdir / "s2"]) == 0
    assert (workdir / "s1" / "table.csv").read_bytes() == (
        workdir / "s2" / "table.csv"
    ).read_bytes()

    run(["train", "--method", "rae", "--input", workdir / "data.csv",
         "--config", workdir / "rae.json", "--out-dir", workdir / "run"])
    run(["eval", "--input", workdir / "run" / "scores.csv",
         "--out", str(workdir / "run" / "eval.json")])
    assert run(["replay", "--manifest", workdir / "run" / "eval.json.manifest.json",
                "--out-dir", workdir / "e2"]) == 0
    assert (workdir / "run" / "eval.json").read_bytes() == (
        workdir / "e2" / "eval.json"
    ).read_bytes()


def test_out_dir_env_default(workdir, monkeypatch, capsys):
    target = workdir / "envout"
    monkeypatch.setenv("ROBUSTAE_OUT_DIR", str(target))
    code = run(["synth", "--config", workdir / "synth.json", "--out", "d.csv"])
    assert code == 0
    assert (target / "d.csv").exists()


def test_usage_error_exits_2():
    assert run(["train"]) == 2


SERIES_CSV = "t,dim_0,label\n" + "".join(f"{i},{i % 7},{int(i % 10 == 0)}\n" for i in range(40))
DECOMPOSITION_CSV = "t,clean_0,outlier_0,score\n" + "".join(
    f"{i},{i / 2},0.0,0.0\n" for i in range(50)
)
QUICK_RAE = {"window_len": 8, "max_outer_iters": 2, "seed": 1}
REPLAY = ["replay", "--manifest", "m.json"]
TRAIN = ["train", "--method", "rae", "--input", "s.csv", "--config", "c.json"]
SWEEP = ["sweep", "--input", "s.csv", "--config", "c.json", "--n-random", "1"]
EVAL = ["eval", "--input", "sc.csv"]
EXPLAIN_MANIFEST = {
    "command": "explain",
    "config": {"method": "prm", "gamma": 0.1, "n_max": 9},
    "seed": 0,
    "inputs": {"csv": "d.csv"},
    "outputs": {"json": "e.json"},
}
SWEEP_MANIFEST = {
    "command": "sweep",
    "config": {"method": "rae", "base": {}, "grid": {"lam": [0.05]}, "n_random": 1},
    "seed": 0,
    "inputs": {"csv": "s.csv"},
    "outputs": {"table": "t.csv"},
}


def _without(doc, key):
    return {**doc, "config": {k: v for k, v in doc["config"].items() if k != key}}


def _with(doc, **config):
    return {**doc, "config": {**doc["config"], **config}}


def _write_files(directory, files):
    """files: name -> text, bytes, or a JSON document."""
    for name, content in files.items():
        if isinstance(content, bytes):
            (directory / name).write_bytes(content)
        else:
            (directory / name).write_text(
                content if isinstance(content, str) else json.dumps(content)
            )


# files: name -> text, bytes, or a JSON document; says: a text the error
# message must hold (for most rows the file it must name), or None
@pytest.mark.parametrize(
    "files, args, code, says",
    [
        pytest.param(
            {"m.json": {"command": "train", "config": {}, "inputs": {"csv": "s.csv"}}},
            REPLAY, 2, "m.json", id="train-manifest-empty-config",
        ),
        pytest.param({"m.json": []}, REPLAY, 2, "m.json", id="manifest-top-level-list"),
        pytest.param({"m.json": _without(EXPLAIN_MANIFEST, "gamma")}, REPLAY, 2, "m.json",
                     id="explain-manifest-without-gamma"),
        pytest.param({"m.json": _without(SWEEP_MANIFEST, "base")}, REPLAY, 2, "m.json",
                     id="sweep-manifest-without-base"),
        pytest.param({"m.json": _without(SWEEP_MANIFEST, "n_random")}, REPLAY, 2, "m.json",
                     id="sweep-manifest-without-n_random"),
        pytest.param({}, REPLAY, 4, "m.json", id="manifest-missing"),
        pytest.param({"s.csv": SERIES_CSV, "c.json": {"ae": "abc"}}, TRAIN, 2, "c.json",
                     id="train-network-config-not-object"),
        pytest.param({"s.csv": SERIES_CSV, "c.json": {"grid": {"lam": 0.05}}}, SWEEP, 2, None,
                     id="sweep-grid-entry-scalar"),
        pytest.param({"s.csv": SERIES_CSV, "c.json": {"grid": {"lam": []}}}, SWEEP, 2, None,
                     id="sweep-grid-entry-empty"),
        pytest.param({"sc.csv": "t,score,label\n0,0.9,1\n1,0.8,2\n2,0.1,0\n"}, EVAL, 2,
                     "sc.csv", id="eval-label-2"),
        pytest.param({"sc.csv": "t,score,label\n0,nan,1\n1,0.8,0\n2,0.1,0\n3,0.2,1\n"},
                     EVAL, 2, None, id="eval-nan-score"),
        # values a manifest or config file holds that int() or float() cannot convert
        pytest.param({"m.json": _with(EXPLAIN_MANIFEST, gamma="abc")}, REPLAY, 2, "m.json",
                     id="explain-manifest-gamma-not-number"),
        pytest.param({"m.json": _with(EXPLAIN_MANIFEST, n_max="x")}, REPLAY, 2, "m.json",
                     id="explain-manifest-n_max-not-number"),
        pytest.param({"m.json": _with(SWEEP_MANIFEST, n_random="x")}, REPLAY, 2, "m.json",
                     id="sweep-manifest-n_random-not-number"),
        pytest.param({"m.json": _with(EXPLAIN_MANIFEST, window_len="x")}, REPLAY, 2, "m.json",
                     id="explain-manifest-window_len-not-number"),
        pytest.param({"m.json": _with(EXPLAIN_MANIFEST, window_len=[3])}, REPLAY, 2, "m.json",
                     id="explain-manifest-window_len-list"),
        # values the conversion would change, so the replay would run another value
        pytest.param({"m.json": _with(EXPLAIN_MANIFEST, gamma="0.1")}, REPLAY, 2, "m.json",
                     id="explain-manifest-gamma-string"),
        pytest.param({"m.json": _with(EXPLAIN_MANIFEST, window_len=2.5)}, REPLAY, 2, "m.json",
                     id="explain-manifest-window_len-fraction"),
        pytest.param({"m.json": _with(EXPLAIN_MANIFEST, n_max=2.5)}, REPLAY, 2, "m.json",
                     id="explain-manifest-n_max-fraction"),
        pytest.param({"m.json": {**SWEEP_MANIFEST, "seed": "abc"}}, REPLAY, 2, "m.json",
                     id="sweep-manifest-seed-not-integer"),
        pytest.param({"s.csv": SERIES_CSV, "c.json": {"grid": {"lam": [0.05]}, "seed": "abc"}},
                     SWEEP, 2, "c.json", id="sweep-config-seed-not-integer"),
        # files that are not UTF-8
        pytest.param({"m.json": b'{"command": "eval", "x": "\xff"}'}, REPLAY, 2, "m.json",
                     id="manifest-not-utf8"),
        pytest.param({"s.csv": SERIES_CSV, "c.json": b'{"lam": "\xff"}'}, TRAIN, 2, "c.json",
                     id="train-config-not-utf8"),
        pytest.param({"s.csv": SERIES_CSV.replace("3,3,0", "3,\xff3,0").encode("latin-1"),
                      "c.json": QUICK_RAE}, TRAIN, 2, "s.csv", id="train-series-not-utf8"),
        # rows with more fields than the header
        pytest.param({"d.csv": DECOMPOSITION_CSV.replace("5,2.5,0.0,0.0", "5,2.5,0.0,0.0,9")},
                     ["explain", "--input", "d.csv", "--method", "prm", "--gamma", "0.1"],
                     2, "d.csv", id="explain-decomposition-extra-field"),
        pytest.param({"sc.csv": "t,score,label\n0,0.9,1\n1,0.8,0,7\n2,0.1,0\n3,0.2,1\n"},
                     EVAL, 2, "sc.csv", id="eval-scores-extra-field"),
        # degenerate series and score sets
        pytest.param({"s.csv": "t,dim_0\n" + "".join(f"{i},3.0\n" for i in range(40)),
                      "c.json": QUICK_RAE}, TRAIN, 0, None, id="train-constant-column"),
        pytest.param({"s.csv": "t,dim_0\n" + "".join(f"{i},{i % 3}\n" for i in range(8)),
                      "c.json": QUICK_RAE}, TRAIN, 2, None, id="train-length-not-above-window"),
        pytest.param({"s.csv": SERIES_CSV.replace("3,3,0", "3,nan,0"), "c.json": QUICK_RAE},
                     TRAIN, 2, None, id="train-nan-in-series"),
        pytest.param({"s.csv": SERIES_CSV.replace("3,3,0", "3,inf,0"), "c.json": QUICK_RAE},
                     TRAIN, 2, None, id="train-inf-in-series"),
        pytest.param({"s.csv": "t,dim_0\n" + "".join(f"{i},{i % 7}e300\n" for i in range(40)),
                      "c.json": QUICK_RAE}, TRAIN, 2, "too large to z-normalize",
                     id="train-1e300-magnitude"),
        pytest.param({"sc.csv": "t,score,label\n"}, EVAL, 2, None, id="eval-header-only"),
    ],
)
def test_bad_input_exits_with_documented_code(
    tmp_path, monkeypatch, capsys, files, args, code, says
):
    _write_files(tmp_path, files)
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(args + ["--out-dir", "out"]) == code
    # a warning would reach stderr ahead of the documented message
    assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []
    err = capsys.readouterr().err
    if code == 0:
        # a constant column normalizes to zero, and a zero series has no outliers
        _, outlier, _ = load_decomposition(tmp_path / "out" / "decomposition.csv")
        assert not outlier.values.any()
        return
    assert err.startswith("i/o error: " if code == 4 else "error: ")
    if says is not None:
        assert says in err


# inputs on which each command runs, so only a flag it does not take can fail it
RUNNABLE = {
    "synth.json": {**SYNTH_CONFIG, "length": 40},
    "s.csv": SERIES_CSV,
    "c.json": {"base": QUICK_RAE, "grid": {"lam": [0.05]}},
    "sc.csv": "t,score,label\n0,0.9,1\n1,0.8,0\n2,0.1,0\n3,0.2,1\n",
    "d.csv": DECOMPOSITION_CSV,
    "m.json": {"command": "eval", "inputs": {"csv": "sc.csv"}, "outputs": {"json": "e.json"}},
}
SYNTH = ["synth", "--config", "synth.json"]
EXPLAIN = ["explain", "--input", "d.csv", "--method", "prm", "--gamma", "0.1"]


@pytest.mark.parametrize(
    "args, flag",
    [
        pytest.param(SYNTH, ["--verbose"], id="synth-verbose"),
        pytest.param(EVAL, ["--seed", "5"], id="eval-seed"),
        pytest.param(EVAL, ["--verbose"], id="eval-verbose"),
        pytest.param(EXPLAIN, ["--seed", "5"], id="explain-seed"),
        pytest.param(EXPLAIN, ["--verbose"], id="explain-verbose"),
        pytest.param(SWEEP, ["--verbose"], id="sweep-verbose"),
        pytest.param(REPLAY, ["--seed", "5"], id="replay-seed"),
    ],
)
def test_flag_the_command_does_not_read_exits_2(tmp_path, monkeypatch, capsys, args, flag):
    _write_files(tmp_path, RUNNABLE)
    monkeypatch.chdir(tmp_path)
    assert run(args + flag + ["--out-dir", "out"]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [EVAL, EXPLAIN], ids=["eval", "explain"])
def test_eval_and_explain_out_lands_under_out_dir(tmp_path, monkeypatch, capsys, args):
    _write_files(tmp_path, RUNNABLE)
    monkeypatch.chdir(tmp_path)
    assert run(args + ["--out", "r/x.json", "--out-dir", "D"]) == 0
    assert (tmp_path / "D" / "r" / "x.json").exists()
    assert (tmp_path / "D" / "r" / "x.json.manifest.json").exists()
    assert not (tmp_path / "r").exists()
    # a pathlib join keeps an absolute right-hand side
    absolute = tmp_path / "abs" / "y.json"
    assert run(args + ["--out", absolute, "--out-dir", "D"]) == 0
    assert absolute.exists() and (tmp_path / "abs" / "y.json.manifest.json").exists()
    assert absolute.read_bytes() == (tmp_path / "D" / "r" / "x.json").read_bytes()
