"""Self-tests of the benchmark at smoke size; they take seconds.

Run from the repository root:

    python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(HERE), str(ROOT / "src")]
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import harness  # noqa: E402


def _run(*args, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--seconds", "0", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(*args):
    proc = _run(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_end_to_end(workload):
    result = _result("--workload", workload, "--seed", "3", "--trace", "0", "--smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_layer_map(workload):
    result = _result("--workload", workload, "--seed", "3", "--trace", "1", "--smoke")
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    v = _values(result)
    hankel_calls = sum(v[f"hankel.{f}.calls"] for f in ("embed_lagged", "hankelize", "matrix_to_series"))
    if workload == "series-rae":
        assert hankel_calls == 0
        assert v["nn.train_step.calls"] > 0 and v["cli.main.calls"] == 1
    elif workload == "dual-rdae":
        assert hankel_calls > 0 and v["nn.train_step.calls"] > 0
        assert v["cli.main.calls"] == 0
    else:
        assert v["nn.train_step.calls"] == 0 and v["nn.forward.calls"] == 0
        assert v["explain.es_ssa.calls"] == 1 and v["linalg.svd.calls"] == 1
    if workload != "score-explain":
        assert v["decompose.cap_hit_ratio"] == 1.0


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "series-rae", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_blas_thread_count_does_not_change_digests():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--check-threads", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"blas_thread_invariant": True}


def test_judge_fails_golden_and_repeat_mismatches():
    records = [
        {"job": "rae", "digest": "a", "problems": []},
        {"job": "rae", "digest": "b", "problems": []},
        {"job": "nrae", "digest": "c", "problems": []},
    ]
    harness._judge(records, {"rae": "a", "nrae": "x"})
    assert [r["golden"] for r in records] == ["match", "mismatch", "mismatch"]
    assert records[0]["problems"] == []
    assert len(records[1]["problems"]) == 2
    assert records[2]["problems"] == ["digest differs from the golden digest"]


def test_goldens_apply_only_on_their_environment():
    env = harness.env_stamp()
    other = {**env, "numpy": "0.0"}
    assert harness._goldens_for("series-rae", 1, False, other)[0] == {}
    assert harness._goldens_for("series-rae", 1, True, env) == ({}, "smoke inputs have no goldens")


def test_average_precision_reference():
    import numpy as np
    import workloads

    scores = np.array([0.9, 0.8, 0.8, 0.1])
    labels = np.array([True, False, True, False])
    # thresholds 0.9 (p=1, r=1/2) and 0.8 (p=2/3, r=1)
    assert workloads.average_precision(scores, labels) == pytest.approx(0.5 + 0.5 * 2 / 3)
