import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import robustae
from robustae import cli, errors
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


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def strict_json(text):
    """``json.loads`` that refuses the NaN, Infinity and -Infinity Python's json writes."""
    return json.loads(text, parse_constant=_refuse_constant)


def _json_stamps(directory: Path) -> dict:
    return {p: p.stat().st_mtime_ns for p in directory.rglob("*.json")} if directory.is_dir() else {}


def run(args):
    """``main(args)``; its stdout lines and each JSON file it writes under its
    output directory must read as strict JSON."""
    args = [str(a) for a in args]
    out_dir = Path(args[args.index("--out-dir") + 1] if "--out-dir" in args
                   else os.environ.get(cli.OUT_DIR_ENV, "."))
    before = _json_stamps(out_dir)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(args)
    print(out.getvalue(), end="")
    for line in out.getvalue().splitlines():
        strict_json(line)
    for path, stamp in _json_stamps(out_dir).items():
        if before.get(path) != stamp:
            strict_json(path.read_text())
    return code


def test_synth_writes_csv_and_manifest(workdir, capsys):
    code = run(["synth", "--config", workdir / "synth.json", "--out", "data.csv",
                "--out-dir", workdir])
    assert code == 0
    assert (workdir / "data.csv").exists()
    assert (workdir / "data.csv.manifest.json").exists()
    ts = load_csv(workdir / "data.csv")
    assert ts.length == 300
    assert int(ts.labels.sum()) == 15


def test_manifest_duration_survives_a_wall_clock_step(workdir, monkeypatch):
    # the wall clock steps back an hour after its first reading (NTP, suspend)
    import time

    readings = []

    def stepping_clock(real=time.time):
        readings.append(None)
        return real() - (3600.0 if len(readings) > 1 else 0.0)

    monkeypatch.setattr(time, "time", stepping_clock)
    assert run(["synth", "--config", workdir / "synth.json", "--out", "data.csv",
                "--out-dir", workdir]) == 0
    manifest = strict_json((workdir / "data.csv.manifest.json").read_text())
    assert 0.0 <= manifest["duration_seconds"] < 600.0


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
    manifest = strict_json((workdir / "run" / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["method"] == "rae"


def test_train_bad_method_exits_2(workdir, capsys):
    run(["synth", "--config", workdir / "synth.json", "--out", "data.csv",
         "--out-dir", workdir])
    code = run(["train", "--method", "bogus", "--input", workdir / "data.csv",
                "--config", workdir / "rae.json", "--out-dir", workdir / "x"])
    assert code == 2
    # the flag is at fault, not the config file
    assert "argument --method: invalid choice: 'bogus'" in capsys.readouterr().err


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
    doc = strict_json(capsys.readouterr().out)
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
    cli_doc = strict_json(capsys.readouterr().out)

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
    doc = strict_json(capsys.readouterr().out)
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
    doc = strict_json(capsys.readouterr().out)
    assert doc["score"] is None
    assert doc["explainable"] is False
    assert len(doc["rmse_by_order"]) == 9


@pytest.mark.parametrize("method", ["prm", "ssa"])
def test_explain_reads_only_the_clean_columns(tmp_path, capsys, method):
    # explain converts the clean columns alone: bad outlier and score cells
    # give the result of the same file with valid ones
    rng = np.random.default_rng(1)
    clean = np.sin(np.arange(120) / 5.0) + 0.1 * rng.standard_normal(120)
    rows = [f"{i},{v!r},0.25,0.0625" for i, v in enumerate(clean.tolist())]
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("t,clean_0,outlier_0,score\n" + "\n".join(rows) + "\n")
    rows[3] = rows[3].rsplit(",", 2)[0] + ",x,0.0625"
    rows[9] = rows[9].rsplit(",", 2)[0] + ",nan,"
    bad.write_text("t,clean_0,outlier_0,score\n" + "\n".join(rows) + "\n")
    outputs = []
    for path in (good, bad):
        assert run(["explain", "--input", path, "--method", method, "--gamma", "0.05"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


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
    doc = strict_json(capsys.readouterr().out)
    assert doc["n_ok"] == 1
    assert "median" in doc


def test_sweep_median_is_middle_pr(tmp_path, monkeypatch, capsys):
    _write_files(tmp_path, {"s.csv": SERIES_CSV, "c.json": {
        "base": QUICK_RAE, "seed": 5,
        "grid": {"lam": [1e-4, 0.01, 0.05, 0.5, 1.0], "depth": [1, 3], "width": [8, 16]}}})
    monkeypatch.chdir(tmp_path)
    assert run(["sweep", "--input", "s.csv", "--config", "c.json", "--n-random", "3",
                "--out", "t.csv"]) == 0
    with open(tmp_path / "t.csv") as fh:
        rows = list(csv.DictReader(fh))
    prs = sorted(float(r["pr_auc"]) for r in rows if r["status"] == "ok")
    # three ok rows with distinct PR AUCs, so only the middle one is the median
    assert len(prs) == 3 and prs[0] < prs[1] < prs[2]
    assert [float(r["pr_auc"]) for r in rows if r["is_median"] == "1"] == [prs[1]]


def test_sweep_median_of_an_even_count_is_the_lower_middle(tmp_path, monkeypatch, capsys):
    _write_files(tmp_path, {"s.csv": SERIES_CSV, "c.json": {
        "base": QUICK_RAE, "seed": 0,
        "grid": {"lam": [1e-4, 0.01, 0.05, 0.5, 1.0], "depth": [1, 3], "width": [8, 16]}}})
    monkeypatch.chdir(tmp_path)
    assert run(["sweep", "--input", "s.csv", "--config", "c.json", "--n-random", "4",
                "--out", "t.csv"]) == 0
    with open(tmp_path / "t.csv") as fh:
        rows = list(csv.DictReader(fh))
    prs = sorted(float(r["pr_auc"]) for r in rows if r["status"] == "ok")
    # four ok rows whose two middle PR AUCs differ
    assert len(prs) == 4 and prs[1] < prs[2]
    assert [float(r["pr_auc"]) for r in rows if r["is_median"] == "1"] == [prs[1]]


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


def _cli_process(args, blas_threads=1, code=0):
    """Run the CLI in a fresh interpreter whose BLAS uses ``blas_threads``
    threads, require exit ``code`` and strict JSON stdout lines, and return
    its stderr."""
    paths = [str(Path(robustae.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    done = subprocess.run([sys.executable, "-m", "robustae", *map(str, args)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == code, done.stderr
    for line in done.stdout.splitlines():
        strict_json(line)
    return done.stderr


def test_train_and_replay_byte_equal_under_one_and_two_blas_threads(workdir):
    # a (985 x 16) batch into a 32-wide layer, large enough for OpenBLAS to
    # split its matrix products across threads
    config = {**RAE_CONFIG, "window_len": 16, "max_outer_iters": 4,
              "ae": {**RAE_CONFIG["ae"], "input_dim": 16, "layer_dims": [32, 8, 32]}}
    (workdir / "long.json").write_text(json.dumps({**SYNTH_CONFIG, "length": 1000}))
    run(["synth", "--config", workdir / "long.json", "--out", "data.csv", "--out-dir", workdir])
    (workdir / "wide.json").write_text(json.dumps(config))
    for threads in (1, 2):
        _cli_process(["train", "--method", "rae", "--input", workdir / "data.csv",
                      "--config", workdir / "wide.json", "--out-dir", workdir / f"train{threads}"],
                     threads)
        _cli_process(["replay", "--manifest", workdir / "train1" / "manifest.json",
                      "--out-dir", workdir / f"replay{threads}"], threads)
    runs = ["train1", "train2", "replay1", "replay2"]
    for name in ("decomposition.csv", "scores.csv", "loss_trace.csv", "model.json"):
        first = (workdir / runs[0] / name).read_bytes()
        for other in runs[1:]:
            assert (workdir / other / name).read_bytes() == first, (other, name)
    manifests = []
    for other in runs:
        doc = strict_json((workdir / other / "manifest.json").read_text())
        del doc["duration_seconds"]
        manifests.append(doc)
    assert manifests[1:] == manifests[:1] * 3


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
# clean_0 runs from -1e200 to 1e200, so the squares of its fits' residuals overflow
HUGE_DECOMPOSITION_CSV = "t,clean_0,outlier_0,score\n" + "".join(
    f"{i},{(i - 25) * 4e198!r},0.0,0.0\n" for i in range(51)
)
QUICK_RAE = {"window_len": 8, "max_outer_iters": 2, "seed": 1}
QUICK_RDAE = {"window_len": 8, "lagged_window": 4, "max_outer_iters": 1, "max_while_iters": 1}
REPLAY = ["replay", "--manifest", "m.json"]
TRAIN = ["train", "--method", "rae", "--input", "s.csv", "--config", "c.json"]
SWEEP = ["sweep", "--input", "s.csv", "--config", "c.json", "--n-random", "1"]
EVAL = ["eval", "--input", "sc.csv"]
SYNTH = ["synth", "--config", "synth.json"]
EXPLAIN_MANIFEST = {
    "command": "explain",
    "config": {"method": "prm", "gamma": 0.1, "n_max": 9},
    "seed": 0,
    "inputs": {"csv": "d.csv"},
    "outputs": {"json": "e.json"},
}
SCORES_CSV = "t,score,label\n0,0.9,1\n1,0.8,0\n2,0.1,0\n3,0.2,1\n"
EVAL_MANIFEST = {"command": "eval", "inputs": {"csv": "sc.csv"}, "outputs": {"json": "e.json"}}
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
        # a gamma that is not finite, which the result would record as Infinity, not
        # JSON: float() reads 1e400 as inf, and json reads Infinity
        *(pytest.param({"d.csv": DECOMPOSITION_CSV},
                       ["explain", "--input", "d.csv", "--method", "prm", "--gamma", value],
                       2, "gamma must be finite and positive", id=f"explain-gamma-{value}")
          for value in ("inf", "1e400")),
        pytest.param({"d.csv": DECOMPOSITION_CSV,
                      "m.json": _with(EXPLAIN_MANIFEST, gamma=float("inf"))},
                     REPLAY, 2, "m.json: config.gamma must be finite and positive",
                     id="explain-manifest-gamma-Infinity"),
        # prm fits every degree up to n_max: a series too short for the last is
        # refused before the first
        pytest.param({"d.csv": DECOMPOSITION_CSV},
                     ["explain", "--input", "d.csv", "--method", "prm", "--gamma", "0.1",
                      "--nmax", "100000"],
                     2, "series length 50 must exceed n_max 100000", id="explain-prm-nmax-100000"),
        pytest.param({"m.json": _with(EXPLAIN_MANIFEST, n_max=2.5)}, REPLAY, 2, "m.json",
                     id="explain-manifest-n_max-fraction"),
        # counts below 1, which the command would refuse without naming the manifest
        pytest.param({"d.csv": DECOMPOSITION_CSV, "m.json": _with(EXPLAIN_MANIFEST, n_max=0)},
                     REPLAY, 2, "m.json: config.n_max must be >= 1, got 0",
                     id="explain-manifest-n_max-0"),
        pytest.param({"s.csv": SERIES_CSV, "m.json": _with(SWEEP_MANIFEST, n_random=0)},
                     REPLAY, 2, "m.json: config.n_random must be >= 1, got 0",
                     id="sweep-manifest-n_random-0"),
        # values equal to their conversion that the command line never records: a bool,
        # or a float where an integer belongs
        *(pytest.param({"d.csv": DECOMPOSITION_CSV, "s.csv": SERIES_CSV,
                        "m.json": _with(manifest, **{key: value})},
                       REPLAY, 2, "m.json", id=f"{manifest['command']}-manifest-{key}-{value}")
          for manifest, key, value in ((EXPLAIN_MANIFEST, "n_max", True),
                                       (EXPLAIN_MANIFEST, "n_max", 4.0),
                                       (EXPLAIN_MANIFEST, "gamma", True),
                                       (EXPLAIN_MANIFEST, "window_len", 4.0),
                                       (SWEEP_MANIFEST, "n_random", True))),
        # normalize must be JSON true or false: bool("false") is true
        pytest.param({"d.csv": DECOMPOSITION_CSV,
                      "m.json": _with(EXPLAIN_MANIFEST, normalize="false")},
                     REPLAY, 2, "m.json", id="explain-manifest-normalize-string"),
        pytest.param({"d.csv": DECOMPOSITION_CSV, "m.json": _with(EXPLAIN_MANIFEST, normalize=0)},
                     REPLAY, 2, "m.json", id="explain-manifest-normalize-0"),
        pytest.param({"d.csv": DECOMPOSITION_CSV, "m.json": _with(EXPLAIN_MANIFEST, normalize=1)},
                     REPLAY, 2, "m.json", id="explain-manifest-normalize-1"),
        pytest.param({"d.csv": DECOMPOSITION_CSV,
                      "m.json": _with(EXPLAIN_MANIFEST, normalize=None)},
                     REPLAY, 2, "m.json", id="explain-manifest-normalize-null"),
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
        # a non-finite value is refused by the reader, which names the file and line
        *(pytest.param({"s.csv": SERIES_CSV.replace("3,3,0", f"3,{v},0"), "c.json": QUICK_RAE},
                       TRAIN, 2, f"s.csv:5: dim_0 must be finite, got '{v}'",
                       id=f"train-series-{v}-names-line") for v in ("inf", "-inf", "nan")),
        *(pytest.param({"d.csv": DECOMPOSITION_CSV.replace("5,2.5,", f"5,{v},")},
                       ["explain", "--input", "d.csv", "--method", "ssa", "--gamma", "0.1"],
                       2, f"d.csv:7: clean_0 must be finite, got '{v}'",
                       id=f"explain-decomposition-{v}-names-line") for v in ("inf", "-inf", "nan")),
        pytest.param({"s.csv": "t,dim_0\n" + "".join(f"{i},{i % 7}e300\n" for i in range(40)),
                      "c.json": QUICK_RAE}, TRAIN, 2, "too large to z-normalize",
                     id="train-1e300-magnitude"),
        # cells have no length limit: long text is not a number, and a long
        # run of digits reads as inf
        pytest.param({"sc.csv": SCORES_CSV.replace("1,0.8,0", f"1,{'x' * 140000},0")}, EVAL, 2,
                     "sc.csv:3: non-numeric value (could not convert string to float: 'xxx",
                     id="eval-long-text-cell"),
        pytest.param({"d.csv": DECOMPOSITION_CSV.replace("5,2.5,", f"5,{'1' * 140000},")},
                     ["explain", "--input", "d.csv", "--method", "ssa", "--gamma", "0.1"], 2,
                     "d.csv:7: clean_0 must be finite, got '111",
                     id="explain-long-digit-cell"),
        # a quoted number and a label with a space are refused on their line
        pytest.param({"sc.csv": SCORES_CSV.replace("1,0.8,0", '1,"0.8",0')}, EVAL, 2,
                     "sc.csv:3: non-numeric value (could not convert string to float: '\"0.8\"')",
                     id="eval-quoted-score"),
        pytest.param({"sc.csv": SCORES_CSV.replace("1,0.8,0", "1,0.8, 0")}, EVAL, 2,
                     "sc.csv:3: label must be 0 or 1, got ' 0'", id="eval-label-with-space"),
        # header-only inputs: the loader names the file, not the empty arrays' consumer
        pytest.param({"sc.csv": "t,score,label\n"}, EVAL, 2, "sc.csv: no data rows",
                     id="eval-header-only"),
        *(pytest.param({"d.csv": "t,clean_0,outlier_0,score\n"},
                       ["explain", "--input", "d.csv", "--method", method, "--gamma", "0.1"],
                       2, "d.csv: no data rows", id=f"explain-{method}-header-only")
          for method in ("ssa", "prm")),
        # an overflowed RMSE would print as Infinity, which is not JSON
        *(pytest.param({"d.csv": HUGE_DECOMPOSITION_CSV},
                       ["explain", "--input", "d.csv", "--method", method, "--gamma", "0.1"],
                       3, "explain --normalize", id=f"explain-{method}-rmse-overflows")
          for method in ("ssa", "prm")),
        # integer fields holding non-integers (refused, not truncated) and
        # negative or boolean seeds
        *(pytest.param({"s.csv": SERIES_CSV, "c.json": {**QUICK_RAE, key: value}}, TRAIN, 2,
                       "c.json", id=f"train-{key}-{value}")
          for key, value in (("max_outer_iters", 2.5), ("window_len", 8.5), ("seed", -1))),
        # stride is no field: the series view takes every window
        pytest.param({"s.csv": SERIES_CSV, "c.json": {**QUICK_RAE, "stride": 1}}, TRAIN, 2,
                     "c.json", id="train-stride-1"),
        *(pytest.param({"s.csv": SERIES_CSV, "c.json": {**QUICK_RAE, "ae": {
                           "input_dim": 8, "layer_dims": [4], key: value}}},
                       TRAIN, 2, "c.json", id=f"train-network-{key}-{value}")
          for key, value in (("input_dim", 8.0), ("inner_epochs", 2.5), ("layer_dims", "abc"),
                             ("layer_dims", [4.7]), ("seed", None), ("seed", -1))),
        *(pytest.param({"synth.json": {"length": 100, "outlier_kind": "collective", key: value}},
                       SYNTH, 2, f"{key} must be", id=f"synth-{key}-{value}")
          for key, value in (("length", 100.5), ("dims", 1.5), ("collective_run_length", 2.5))),
        pytest.param({"synth.json": {"outlier_kind": "collective", "collective_run_length": -3}},
                     SYNTH, 2, "collective_run_length must be >= 1",
                     id="synth-collective_run_length--3"),
        # 92 outliers in blocks of 10 need 101 steps, one clean step between blocks
        pytest.param({"synth.json": {"length": 100, "outlier_ratio": 0.92,
                                     "outlier_kind": "collective", "collective_run_length": 10}},
                     SYNTH, 2, "synth.json: outlier_ratio 0.92 and collective_run_length 10 "
                     "need 101 steps", id="synth-collective-blocks-overfill"),
        # real fields and tuple entries holding a bool (which would run as 1.0), a string,
        # null or a non-finite value: refused with the field named, not converted
        *(pytest.param({"synth.json": {"length": 100, key: value}}, SYNTH, 2,
                       f"synth.json: bad synth config: {says}", id=f"synth-{key}-{value}")
          for key, value, says in (
              ("frequencies", ["a"], "frequencies[0] must be a number"),
              ("amplitudes", [None], "amplitudes[0] must be a number"),
              ("amplitudes", [True], "amplitudes[0] must be a number"),
              ("outlier_magnitude", True, "outlier_magnitude must be a number"),
              ("outlier_magnitude", "5", "outlier_magnitude must be a number"),
              ("noise_std", True, "noise_std must be a number"),
              ("noise_std", float("nan"), "noise_std must be finite"),
              ("outlier_ratio", "0.05", "outlier_ratio must be a number"))),
        pytest.param({"synth.json": {"kind": "ar_process", "ar_coefficients": ["x"]}}, SYNTH, 2,
                     "synth.json: bad synth config: ar_coefficients[0] must be a number",
                     id="synth-ar_coefficients-x"),
        # finite fields whose series overflows: the base signal's std, or an outlier
        *(pytest.param({"synth.json": {"length": 100, **config}}, SYNTH, 2,
                       f"synth.json: bad synth config: {says} too large", id=f"synth-{name}")
          for name, config, says in (
              ("base-overflow", {"frequencies": [0.02, 0.02], "amplitudes": [1e308, 1e308]},
               "amplitudes or noise_std"),
              ("outlier-overflow", {"amplitudes": [10.0], "outlier_magnitude": 1e308},
               "outlier_magnitude"))),
        pytest.param({"s.csv": SERIES_CSV, "c.json": {**QUICK_RAE, "seed": True}}, TRAIN, 2,
                     "c.json", id="train-seed-true"),
        # positive real fields holding a bool (which would train as 1.0), a string or a
        # non-finite value: refused with the field named
        *(pytest.param({"s.csv": SERIES_CSV, "c.json": {**base, key: value}},
                       ["train", "--method", method, *TRAIN[3:]], 2, f"{key} must be",
                       id=f"train-{method}-{key}-{value}")
          for method, base, key, value in (("rae", QUICK_RAE, "lam", True),
                                           ("rae", QUICK_RAE, "lam", float("inf")),
                                           ("rae", QUICK_RAE, "epsilon", "1e-5"),
                                           ("rdae", QUICK_RDAE, "lam1", True),
                                           ("rdae", QUICK_RDAE, "lam2", "0.1"))),
        *(pytest.param({"s.csv": SERIES_CSV, "c.json": {**QUICK_RAE, "ae": {
                           "input_dim": 8, "layer_dims": [4], key: value}}},
                       TRAIN, 2, f"{key} must be", id=f"train-network-{key}-{value}")
          for key, value in (("learning_rate", True), ("weight_init_scale", float("inf")))),
        # a manifest records bare output names, which the replay puts under --out-dir
        *(pytest.param({"sc.csv": SCORES_CSV,
                        "m.json": {**EVAL_MANIFEST, "outputs": {"json": name}}},
                       REPLAY, 2, f"m.json: output '{name}' is not a bare file name",
                       id=f"replay-output-{name}")
          for name in ("../x.csv", "sub/x.csv")),
        # no input file, so a run that took the name would stop before writing to it
        pytest.param({"m.json": {**EVAL_MANIFEST, "outputs": {"json": "/tmp/x.csv"}}},
                     REPLAY, 2, "output '/tmp/x.csv' is not a bare file name",
                     id="replay-output-absolute"),
        pytest.param({"s.csv": SERIES_CSV, "c.json": {"grid": {"lam": [0.05]}}},
                     SWEEP + ["--seed", "-1"], 2, "seed must be >= 0", id="sweep-seed-flag-negative"),
        # malformed documents, and manifests a run never writes
        pytest.param({"s.csv": SERIES_CSV, "c.json": '{"lam": 0.05,'}, TRAIN, 2,
                     "c.json: invalid JSON", id="train-config-invalid-json"),
        pytest.param({"s.csv": SERIES_CSV, "m.json": {
                         "command": "train", "config": {"method": "rae", "train": [0.05]},
                         "inputs": {"csv": "s.csv"}}},
                     REPLAY, 2, "m.json: rae config must be a JSON object",
                     id="train-manifest-trainer-config-list"),
        pytest.param({"d.csv": DECOMPOSITION_CSV, "m.json": _with(EXPLAIN_MANIFEST, method="pca")},
                     REPLAY, 2, "m.json: explain method must be 'prm' or 'ssa', got 'pca'",
                     id="explain-manifest-method-pca"),
        pytest.param({"s.csv": SERIES_CSV, "c.json": {"grid": {}}}, SWEEP, 2,
                     "c.json: sweep config needs a nonempty 'grid' object", id="sweep-grid-empty"),
        # unchecked, every sampled run fails on the missing labels and the sweep exits 0
        pytest.param({"s.csv": "t,dim_0\n" + "".join(f"{i},{i % 7}\n" for i in range(40)),
                      "c.json": {"grid": {"lam": [0.05]}}},
                     SWEEP, 2, "s.csv: sweep needs a labeled series", id="sweep-unlabeled-series"),
        pytest.param({"m.json": {**EVAL_MANIFEST, "command": "fit"}}, REPLAY, 2,
                     "m.json: manifest command 'fit' cannot be replayed", id="manifest-command-fit"),
        pytest.param({"m.json": {**EVAL_MANIFEST, "inputs": ["sc.csv"]}}, REPLAY, 2,
                     "m.json: 'inputs' must be a JSON object", id="manifest-inputs-list"),
        pytest.param({"m.json": {**EVAL_MANIFEST, "inputs": {"csv": 3}}}, REPLAY, 2,
                     "m.json: 'inputs' values must be strings", id="manifest-input-number"),
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
    assert err.startswith({3: "numerical failure: ", 4: "i/o error: "}.get(code, "error: "))
    if says is not None:
        assert says in err


# the config file a request read is named once, in front of the command's own
# message, and a flag's value is not blamed on it
@pytest.mark.parametrize(
    "files, args, message",
    [
        pytest.param({"synth.json": {"length": 100.5}}, SYNTH,
                     "synth.json: bad synth config: length must be an integer, got 100.5",
                     id="synth-length"),
        pytest.param({"s.csv": SERIES_CSV, "c.json": {"grid": {"lam": 0.05}}}, SWEEP,
                     "c.json: sweep grid entries must be nonempty lists: lam", id="sweep-grid"),
        pytest.param({"s.csv": SERIES_CSV, "c.json": {"grid": {"lam": [0.05]}, "base": []}},
                     SWEEP, "c.json: sweep 'base' must be a JSON object", id="sweep-base"),
        pytest.param({"s.csv": SERIES_CSV, "c.json": {"grid": {"lam": [0.05]}, "method": "x"}},
                     SWEEP, f"c.json: sweep method must be one of {robustae.TRAIN_METHODS}",
                     id="sweep-method"),
        pytest.param({"m.json": {"command": "train", "config": {"method": "x", "train": {}},
                                 "inputs": {"csv": "s.csv"}}},
                     REPLAY, f"m.json: method must be one of {robustae.TRAIN_METHODS}, got 'x'",
                     id="replay-train-method"),
        pytest.param({"synth.json": SYNTH_CONFIG}, SYNTH + ["--seed", "-1"],
                     "seed must be >= 0, got -1", id="synth-seed-flag"),
        pytest.param({"s.csv": SERIES_CSV, "c.json": {"grid": {"lam": [0.05]}}},
                     SWEEP[:-1] + ["0"], "n_random must be >= 1, got 0", id="sweep-n-random-flag"),
        pytest.param({"s.csv": SERIES_CSV, "c.json": {"method": "rdae", "grid": {
                         "lam1": [1e-4, 10.0], "lamda": [1, 2]}}}, SWEEP,
                     "c.json: sweep grid keys must be lam, depth, width or rdae config fields "
                     "other than seed, got lamda", id="sweep-grid-unknown-key"),
        pytest.param({"s.csv": SERIES_CSV, "c.json": {"grid": {"seed": [1, 2]}}}, SWEEP,
                     "c.json: sweep grid keys must be lam, depth, width or rae config fields "
                     "other than seed, got seed", id="sweep-grid-seed"),
        pytest.param({"s.csv": SERIES_CSV, "c.json": {"grid": {"depth": [1, 5]}}}, SWEEP,
                     "c.json: sweep grid needs 'depth' and 'width' together",
                     id="sweep-grid-depth-without-width"),
        pytest.param({"s.csv": SERIES_CSV, "c.json": {"grid": {"width": [8]}}}, SWEEP,
                     "c.json: sweep grid needs 'depth' and 'width' together",
                     id="sweep-grid-width-without-depth"),
        # each of these grids would run, and list a drawn value it did not train with
        pytest.param({"s.csv": SERIES_CSV, "c.json": {"base": QUICK_RAE, "grid": {
                         "ae": [{"input_dim": 8, "layer_dims": [4]}], "depth": [3],
                         "width": [16]}}}, SWEEP,
                     "c.json: sweep grid sets a config field both directly and through a "
                     "shorthand: depth and ae, width and ae", id="sweep-grid-ae-and-depth"),
        pytest.param({"s.csv": SERIES_CSV, "c.json": {"method": "rdae", "base": QUICK_RDAE,
                         "grid": {"f2": [{"input_dim": 8, "layer_dims": [4]}], "depth": [1],
                                  "width": [8]}}}, SWEEP,
                     "c.json: sweep grid sets a config field both directly and through a "
                     "shorthand: depth and f2, width and f2", id="sweep-grid-f2-and-depth"),
        pytest.param({"s.csv": SERIES_CSV, "c.json": {"method": "rdae", "base": QUICK_RDAE,
                         "grid": {"lam": [0.1], "lam1": [0.5]}}}, SWEEP,
                     "c.json: sweep grid sets a config field both directly and through a "
                     "shorthand: lam and lam1", id="sweep-grid-lam-and-lam1"),
    ],
)
def test_config_error_names_its_file_once(tmp_path, monkeypatch, capsys, files, args, message):
    _write_files(tmp_path, files)
    monkeypatch.chdir(tmp_path)
    assert run(args + ["--out-dir", "out"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "method, config, failure",
    [
        # an overflowing Adam step: numpy would warn three times before the
        # network's own finiteness check raised
        ("rae", {**QUICK_RAE, "ae": {"input_dim": 8, "layer_dims": [4], "learning_rate": 1e280}},
         "rae iteration 1: non-finite gradient; reduce the learning rate"),
        # one step leaves the smoothing network finite with outputs near 1e280,
        # and the matrix network's second moment overflows on them; the norms of
        # the trainer's alternation would warn on the way
        ("rdae", {**QUICK_RAE, "lagged_window": 6, "max_while_iters": 2, "f1": {
            "input_dim": 6, "layer_dims": [4], "learning_rate": 1e280, "inner_epochs": 1}},
         "rdae/matrix iteration 1: Adam's second moment overflowed; the gradient is too large"),
    ],
    ids=["rae", "rdae-smoothing"],
)
def test_numerical_failure_is_the_only_stderr_line(tmp_path, method, config, failure):
    _write_files(tmp_path, {"s.csv": SERIES_CSV, "c.json": config})
    err = _cli_process(["train", "--method", method, "--input", tmp_path / "s.csv", "--config",
                        tmp_path / "c.json", "--out-dir", tmp_path / "out"], code=3)
    assert err == f"numerical failure: {failure}\n"


# inputs on which each command runs, so only a flag it does not take can fail it
RUNNABLE = {
    "synth.json": {**SYNTH_CONFIG, "length": 40},
    "s.csv": SERIES_CSV,
    "c.json": {"base": QUICK_RAE, "grid": {"lam": [0.05]}},
    "sc.csv": SCORES_CSV,
    "d.csv": DECOMPOSITION_CSV,
    "m.json": EVAL_MANIFEST,
}
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


@pytest.mark.parametrize("flags", [[], ["--normalize"]], ids=["plain", "normalize"])
def test_explain_replay_keeps_normalize(tmp_path, monkeypatch, capsys, flags):
    _write_files(tmp_path, RUNNABLE)
    monkeypatch.chdir(tmp_path)
    assert run(EXPLAIN + flags + ["--out", "r.json", "--out-dir", "a"]) == 0
    assert run(["replay", "--manifest", "a/r.json.manifest.json", "--out-dir", "b"]) == 0
    assert (tmp_path / "a" / "r.json").read_bytes() == (tmp_path / "b" / "r.json").read_bytes()
    manifest = strict_json((tmp_path / "b" / "r.json.manifest.json").read_text())
    assert manifest["config"]["normalize"] is bool(flags)


def test_replay_keeps_an_integer_gamma_as_recorded(tmp_path, monkeypatch, capsys):
    _write_files(tmp_path, RUNNABLE)
    monkeypatch.chdir(tmp_path)
    assert run(EXPLAIN[:-1] + ["1", "--out", "r.json", "--out-dir", "a"]) == 0
    manifest = tmp_path / "a" / "r.json.manifest.json"
    recorded = strict_json(manifest.read_text())
    recorded["config"]["gamma"] = 1
    manifest.write_text(json.dumps(recorded))
    assert run(["replay", "--manifest", manifest, "--out-dir", "b"]) == 0
    assert (tmp_path / "a" / "r.json").read_bytes() == (tmp_path / "b" / "r.json").read_bytes()
    replayed = strict_json((tmp_path / "b" / "r.json.manifest.json").read_text())
    for doc in (recorded, replayed):
        del doc["duration_seconds"]
    # 1 == 1.0 in Python, so compare the JSON text
    assert json.dumps(replayed, sort_keys=True) == json.dumps(recorded, sort_keys=True)


def test_sweep_sets_every_other_grid_key_on_the_trainer_config(tmp_path, monkeypatch, capsys):
    drawn = []

    def spy(ts, method, cfg):
        drawn.append((cfg.lam1, cfg.max_while_iters))
        return train(ts, method, cfg)

    _write_files(tmp_path, {"s.csv": SERIES_CSV, "c.json": {
        "method": "rdae", "base": {"window_len": 8, "max_outer_iters": 1, "lagged_window": 6},
        "grid": {"lam1": [1e-4, 10.0], "max_while_iters": [1, 2]}, "seed": 3}})
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "train", spy)
    assert run(SWEEP[:-1] + ["6"]) == 0
    assert {lam1 for lam1, _ in drawn} == {1e-4, 10.0}
    assert {iters for _, iters in drawn} == {1, 2}


@pytest.mark.parametrize("method, base, block", [
    ("rae", QUICK_RAE, "ae"),
    ("rdae", QUICK_RDAE, "f2"),
], ids=["rae", "rdae"])
def test_sweep_depth_and_width_keep_the_base_network_fields(tmp_path, monkeypatch, capsys,
                                                            method, base, block):
    drawn = []

    def spy(ts, method, cfg):
        drawn.append((cfg.seed, getattr(cfg, block)))
        return train(ts, method, cfg)

    net = {"input_dim": 99, "layer_dims": [5], "learning_rate": 0.05, "inner_epochs": 3,
           "activation": "relu", "seed": 11}
    _write_files(tmp_path, {"s.csv": SERIES_CSV, "c.json": {
        "method": method, "base": {**base, block: net},
        "grid": {"depth": [1, 3], "width": [16]}, "seed": 2}})
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "train", spy)
    assert run(SWEEP[:-1] + ["4"]) == 0
    # only the shape and the run seed are drawn; base's other fields stay
    assert {ae.layer_dims for _, ae in drawn} == {(4,), (16, 4, 16)}
    for seed, ae in drawn:
        assert (ae.input_dim, ae.seed) == (8, seed)
        assert (ae.learning_rate, ae.inner_epochs, ae.activation) == (0.05, 3, "relu")


def test_sweep_shape_keeps_the_bottleneck_narrower_than_the_input(tmp_path, monkeypatch, capsys):
    assert cli._dims_from_shape(3, 16, 2) == (16, 1, 16)
    # from input width 3 on, the bottleneck is floored at 2 as before
    for input_dim in range(3, 40):
        for width in (4, 8, 16, 64):
            bottleneck = max(2, min(width // 4, input_dim - 1))
            assert cli._dims_from_shape(3, width, input_dim)[1] == bottleneck
    _write_files(tmp_path, {"s.csv": SERIES_CSV, "c.json": {
        "base": {**QUICK_RAE, "window_len": 2}, "grid": {"depth": [1, 3], "width": [8]}}})
    monkeypatch.chdir(tmp_path)
    assert run(SWEEP[:-1] + ["2", "--out", "t.csv"]) == 0
    with open(tmp_path / "t.csv") as fh:
        assert [row["status"] for row in csv.DictReader(fh)] == ["ok", "ok"]


@pytest.mark.parametrize("net", ["abc", 0, []], ids=repr)
def test_sweep_depth_and_width_fail_a_base_network_block_that_is_not_an_object(
        tmp_path, monkeypatch, capsys, net):
    _write_files(tmp_path, {"s.csv": SERIES_CSV, "c.json": {
        "method": "rae", "base": {**QUICK_RAE, "ae": net},
        "grid": {"depth": [1], "width": [8]}, "seed": 2}})
    monkeypatch.chdir(tmp_path)
    assert run(SWEEP[:-1] + ["2", "--out", "t.csv"]) == 0
    with open(tmp_path / "t.csv") as fh:
        statuses = [row["status"] for row in csv.DictReader(fh)]
    assert len(statuses) == 2
    assert all(s.startswith("failed: bad network config") for s in statuses)


# every library error class and the exit code and stderr prefix main gives it
EXIT_BY_ERROR = {
    errors.RobustAEError: (2, "error: "),
    errors.DimensionError: (2, "error: "),
    errors.ParameterError: (2, "error: "),
    errors.InputError: (2, "error: "),
    errors.ContractError: (2, "error: "),
    errors.EvaluationError: (2, "error: "),
    errors.ConfigError: (2, "error: "),
    errors.ParseError: (2, "error: "),
    errors.FormatError: (2, "error: "),
    errors.NumericalError: (3, "numerical failure: "),
    errors.IntegrityError: (4, "i/o error: "),
    errors.UpgradeError: (4, "i/o error: "),
    OSError: (4, "i/o error: "),
}


def test_exit_code_table_names_every_library_error():
    def subclasses(cls):
        return {cls}.union(*(subclasses(c) for c in cls.__subclasses__()))

    assert subclasses(errors.RobustAEError) <= set(EXIT_BY_ERROR)


@pytest.mark.parametrize("error", EXIT_BY_ERROR, ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_class(tmp_path, monkeypatch, capsys, error):
    def fail(*args):
        raise error("boom")

    _write_files(tmp_path, RUNNABLE)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "evaluate", fail)
    code, prefix = EXIT_BY_ERROR[error]
    assert run(EVAL) == code
    assert capsys.readouterr().err == f"{prefix}boom\n"


@pytest.mark.parametrize(
    "method, base, grid",
    [
        ("rae", QUICK_RAE, {"window_len": [8, 8.5]}),
        ("rae", QUICK_RAE, {"depth": [1, 1.5], "width": [8]}),
        ("rae", QUICK_RAE, {"width": [8, 8.5], "depth": [1]}),
        ("rdae", {"window_len": 8, "max_outer_iters": 1, "max_while_iters": 1},
         {"lagged_window": [4, 4.5]}),
    ],
    ids=["window_len", "depth", "width", "lagged_window"],
)
def test_sweep_turns_a_non_integer_draw_into_a_failed_row(tmp_path, monkeypatch, capsys,
                                                          method, base, grid):
    _write_files(tmp_path, {"s.csv": SERIES_CSV,
                            "c.json": {"method": method, "base": base, "grid": grid, "seed": 1}})
    monkeypatch.chdir(tmp_path)
    assert run(["sweep", "--input", "s.csv", "--config", "c.json", "--n-random", "6",
                "--out", "t.csv"]) == 0
    with open(tmp_path / "t.csv") as fh:
        statuses = [row["status"] for row in csv.DictReader(fh)]
    bad = next(key for key, values in grid.items() if not isinstance(values[-1], int))
    message = f"{bad} must be an integer, got {grid[bad][-1]}"
    assert "ok" in statuses
    assert any(s.startswith("failed: ") and s.endswith(message) for s in statuses)


@pytest.mark.parametrize("command", ["synth", "train"])
def test_null_seed_runs_as_seed_0_and_replays(tmp_path, monkeypatch, capsys, command):
    # without an "ae" block the network seed comes from the trainer seed
    _write_files(tmp_path, {"synth.json": {**SYNTH_CONFIG, "length": 60, "seed": None},
                            "s.csv": SERIES_CSV, "c.json": {**QUICK_RAE, "seed": None}})
    monkeypatch.chdir(tmp_path)
    args = SYNTH if command == "synth" else TRAIN
    manifest = "synthetic.csv.manifest.json" if command == "synth" else "manifest.json"
    assert run(args + ["--out-dir", "a"]) == 0
    assert run(args + ["--out-dir", "b"]) == 0
    assert run(["replay", "--manifest", f"a/{manifest}", "--out-dir", "c"]) == 0
    assert strict_json((tmp_path / "a" / manifest).read_text())["seed"] == 0
    for path in (tmp_path / "a").iterdir():
        if path.name != manifest:
            for other in ("b", "c"):
                assert (tmp_path / other / path.name).read_bytes() == path.read_bytes(), path.name

