"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

The heavy fixtures (ten-seed benchmark runs, the lambda sweep) are shared
across criteria. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time

import numpy as np
import pytest

from bench import (
    GAMMA,
    LAMBDAS,
    ROBUSTNESS_METHODS,
    lambda_row,
    map_runs,
    median,
    robustness_record,
)
from test_metrics import brute_force_roc, exhaustive_threshold_ap
from test_nn import gradient_check

from robustae import (
    TimeSeries,
    default_window_len,
    embed_lagged,
    es_prm,
    hankelize,
    load_model,
    matrix_to_series,
    pr_auc,
    roc_auc,
    save_model,
    soft_threshold,
    ssa_decompose,
)
from robustae.cli import main as cli_main
from robustae.linalg import rmse
from robustae.nn import AutoencoderConfig, AutoencoderModel

SEEDS = list(range(1, 11))
SWEEP_SEEDS = list(range(1, 6))


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {status} - {description}{suffix}", flush=True)
    assert ok, f"criterion {num}: {description}{suffix}"


@pytest.fixture(scope="module")
def bench_runs():
    """Ten-seed benchmark (RobustnessRow, decomposition) pairs per trainer."""
    start = time.time()
    runs = {name: [] for name in ROBUSTNESS_METHODS}
    jobs = [(seed, name, GAMMA) for seed in SEEDS for name in ROBUSTNESS_METHODS]
    for row, dec in map_runs(robustness_record, jobs):
        runs[row.method].append((row, dec))
    runs["elapsed"] = time.time() - start
    return runs


@pytest.fixture(scope="module")
def lambda_sweep():
    """LambdaRows per lambda, several seeds."""
    start = time.time()
    table = {lam: [] for lam in LAMBDAS}
    for row in map_runs(lambda_row, [(seed, lam) for seed in SWEEP_SEEDS for lam in LAMBDAS]):
        table[row.lam].append(row)
    table["elapsed"] = time.time() - start
    return table


def test_criterion_01_prox_grid_oracle():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        x = float(rng.uniform(-1.9, 1.9))
        lam = float(rng.uniform(0.0, 1.5))
        # the per-element objective is convex, so the coarse scan brackets
        # the fine-grid argmin within one coarse cell
        coarse = np.arange(-2.0, 2.0 + 1e-3, 1e-3)
        zc = coarse[np.argmin(0.5 * (coarse - x) ** 2 + lam * np.abs(coarse))]
        fine = np.arange(max(-2.0, zc - 2e-3), min(2.0, zc + 2e-3) + 1e-6, 1e-6)
        oracle = float(fine[np.argmin(0.5 * (fine - x) ** 2 + lam * np.abs(fine))])
        worst = max(worst, abs(float(soft_threshold(np.array(x), lam)) - oracle))
    elapsed = time.time() - start
    report(
        1,
        "soft threshold matches the 1e-6 grid prox oracle on 1000 draws",
        worst < 1e-5 and elapsed < 5.0,
        f"worst={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_gradient_correctness():
    start = time.time()
    worst = 0.0
    shapes = [(3,), (4, 2, 4), (5, 4, 2, 4, 5)]
    for activation in ("tanh", "sigmoid", "relu", "linear"):
        for dims in shapes:
            seed = 0
            if activation == "relu":
                # central differences need pre-activations away from the kink
                for candidate in range(60):
                    cfg = AutoencoderConfig(
                        input_dim=6, layer_dims=dims, activation="relu", seed=candidate
                    )
                    model = AutoencoderModel(cfg)
                    rng = np.random.default_rng(candidate + 500)
                    x = rng.standard_normal((7, 6))
                    # hidden pre-activations z = a @ w + b, with a = max(z, 0)
                    a, pre = x, []
                    for w, b in zip(model.weights[:-1], model.biases[:-1]):
                        pre.append(a @ w + b)
                        a = np.maximum(pre[-1], 0.0)
                    if min(float(np.min(np.abs(p))) for p in pre) > 1e-3:
                        seed = candidate
                        break
            cfg = AutoencoderConfig(
                input_dim=6, layer_dims=dims, activation=activation, seed=seed
            )
            model = AutoencoderModel(cfg)
            rng = np.random.default_rng(seed + 500)
            x = rng.standard_normal((7, 6))
            worst = max(worst, gradient_check(model, x))
    elapsed = time.time() - start
    report(
        2,
        "analytic gradients match central differences for every activation",
        worst < 1e-4 and elapsed < 30.0,
        f"worst={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_hankel_roundtrip():
    start = time.time()
    rng = np.random.default_rng(7)
    exact = True
    for _ in range(100):
        length = int(rng.integers(5, 501))
        window = int(rng.integers(2, max(3, (length - 1) // 2 + 1)))
        ts = TimeSeries(rng.standard_normal(length))
        back = matrix_to_series(embed_lagged(ts, window))
        exact = exact and np.array_equal(back.values, ts.values)
    projector_ok = True
    for _ in range(30):
        x = rng.standard_normal((int(rng.integers(2, 9)), int(rng.integers(2, 13))))
        y = rng.standard_normal(x.shape)
        once = hankelize(x).planes
        projector_ok = projector_ok and np.max(np.abs(hankelize(once).planes - once)) < 1e-12
        lhs = hankelize(1.7 * x - 0.3 * y).planes
        rhs = 1.7 * hankelize(x).planes - 0.3 * hankelize(y).planes
        projector_ok = projector_ok and np.max(np.abs(lhs - rhs)) < 1e-12
    elapsed = time.time() - start
    report(
        3,
        "lagged embed/invert roundtrip is bit-exact; projection idempotent and linear",
        exact and projector_ok and elapsed < 5.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_04_constraint_satisfaction(bench_runs):
    worst = 0.0
    for name in ("rae", "rdae"):
        for _, dec in bench_runs[name]:
            worst = max(worst, dec.final_residuals[0])
    report(
        4,
        "returned decompositions satisfy the additive constraint below 1e-5",
        worst < 1e-5,
        f"worst condition1={worst:.2e}",
    )


def test_criterion_05_robustness_ordering(bench_runs):
    med = {name: (median([row.pr for row, _ in bench_runs[name]]),
                  median([row.roc for row, _ in bench_runs[name]]))
           for name in ("rae", "nrae", "rdae", "nrdae")}
    ok = (
        med["rae"][0] > med["nrae"][0]
        and med["rae"][1] > med["nrae"][1]
        and med["rdae"][0] > med["nrdae"][0]
        and med["rdae"][1] > med["nrdae"][1]
        and med["rae"][1] > 0.9
    )
    detail = ", ".join(
        f"{k}: pr={v[0]:.4f} roc={v[1]:.4f}" for k, v in med.items()
    )
    report(
        5,
        "median PR/ROC: robust trainers strictly beat non-robust counterparts",
        ok,
        detail + f", {bench_runs['elapsed']:.0f}s for 40 runs",
    )


def test_criterion_06_lambda_sensitivity_shape(lambda_sweep):
    med = {lam: median([row.pr for row in lambda_sweep[lam]]) for lam in LAMBDAS}
    interior = min(med[1e-2], med[1e-1])
    boundary = max(med[1e-4], med[1.0])
    report(
        6,
        "median PR peaks in the interior lambda band",
        interior >= boundary,
        ", ".join(f"{lam:g}:{med[lam]:.4f}" for lam in LAMBDAS)
        + f", {lambda_sweep['elapsed']:.0f}s",
    )


def test_criterion_07_sparsity_monotonicity(lambda_sweep):
    counts = [next(row.nonzero for row in lambda_sweep[lam] if row.seed == SWEEP_SEEDS[0])
              for lam in LAMBDAS]
    ok = all(counts[i + 1] <= counts[i] for i in range(len(counts) - 1))
    report(
        7,
        "outlier support size is non-increasing in lambda at fixed seed",
        ok,
        f"counts={counts}",
    )


def test_criterion_08_metric_oracles():
    start = time.time()
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(200):
        n = int(rng.integers(5, 201))
        scores = np.round(rng.random(n), 1)
        labels = rng.random(n) < 0.3
        if labels.all() or not labels.any():
            labels[0] = True
            labels[-1] = False
        ok = ok and abs(roc_auc(scores, labels) - brute_force_roc(scores, labels)) < 1e-12
        ok = ok and abs(pr_auc(scores, labels) - exhaustive_threshold_ap(scores, labels)) < 1e-12
    big_scores = rng.random(10_000)
    big_labels = rng.random(10_000) < 0.5
    random_roc = roc_auc(big_scores, big_labels)
    ok = ok and abs(random_roc - 0.5) < 0.05
    elapsed = time.time() - start
    report(
        8,
        "AUC implementations match brute-force oracles; random scores sit at 0.5",
        ok and elapsed < 10.0,
        f"random roc={random_roc:.3f}, {elapsed:.1f}s",
    )


def test_criterion_09_explainability_machinery():
    start = time.time()
    t = np.linspace(0.0, 1.0, 400)
    cubic = TimeSeries(1.0 - 2.0 * t + 0.5 * t**2 + 3.0 * t**3)
    prm_score = es_prm(cubic, gamma=1e-6).score
    sine = TimeSeries(np.sin(2 * np.pi * np.arange(200) / 20.0))
    comps = ssa_decompose(sine, 50)
    top2_err = rmse(comps[0].values + comps[1].values, sine.values)
    total_err = rmse(sum(c.values for c in comps), sine.values)
    elapsed = time.time() - start
    report(
        9,
        "polynomial score hits the exact degree; spectrum components reconstruct",
        prm_score == 3 and top2_err < 1e-2 and total_err < 1e-8 and elapsed < 30.0,
        f"prm={prm_score}, top2={top2_err:.1e}, sum={total_err:.1e}, {elapsed:.1f}s",
    )


def test_criterion_10_explainability_ordering(bench_runs):
    med = {name: (median([row.es_prm for row, _ in bench_runs[name]]),
                  median([row.es_ssa for row, _ in bench_runs[name]]))
           for name in ROBUSTNESS_METHODS}
    ok = (
        med["rae"][0] <= med["nrae"][0]
        and med["rae"][1] <= med["nrae"][1]
        and med["rdae"][0] <= med["nrdae"][0]
        and med["rdae"][1] <= med["nrdae"][1]
    )
    report(
        10,
        "median explainability scores of robust clean series are no worse",
        ok,
        ", ".join(f"{k}: prm={v[0]:g} ssa={v[1]:g}" for k, v in med.items()),
    )


def test_criterion_11_convergence_behavior(bench_runs):
    ratios = []
    for _, dec in bench_runs["rae"]:
        trace = dec.loss_trace
        idx = min(49, len(trace) - 1)
        ratios.append(trace[idx] / trace[0])
    med_ratio = median(ratios)
    report(
        11,
        "training loss at iteration 50 is under half its starting value",
        med_ratio < 0.5,
        f"median ratio={med_ratio:.3f}",
    )


def test_criterion_12_determinism_and_persistence(tmp_path):
    start = time.time()
    synth_cfg = {
        "kind": "sinusoid_mix", "length": 300, "dims": 1, "outlier_ratio": 0.05,
        "outlier_magnitude": 5.0, "frequencies": [0.02], "amplitudes": [1.0],
        "noise_std": 0.3, "seed": 40,
    }
    train_cfg = {
        "lam": 0.05, "max_outer_iters": 10, "window_len": 8, "seed": 41,
        "ae": {"input_dim": 8, "layer_dims": [12, 6, 12], "learning_rate": 0.005,
               "inner_epochs": 6, "seed": 41},
    }
    (tmp_path / "synth.json").write_text(json.dumps(synth_cfg))
    (tmp_path / "rae.json").write_text(json.dumps(train_cfg))
    assert cli_main(["synth", "--config", str(tmp_path / "synth.json"),
                     "--out", "data.csv", "--out-dir", str(tmp_path)]) == 0
    assert cli_main(["train", "--method", "rae", "--input", str(tmp_path / "data.csv"),
                     "--config", str(tmp_path / "rae.json"),
                     "--out-dir", str(tmp_path / "run1")]) == 0
    assert cli_main(["replay", "--manifest", str(tmp_path / "run1" / "manifest.json"),
                     "--out-dir", str(tmp_path / "run2")]) == 0
    identical = all(
        (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()
        for name in ("decomposition.csv", "scores.csv", "loss_trace.csv", "model.json")
    )
    model = load_model(tmp_path / "run1" / "model.json")
    save_model(model, tmp_path / "again.json")
    back = load_model(tmp_path / "again.json")
    roundtrip = all(
        np.array_equal(a, b) for a, b in zip(model.weights, back.weights)
    ) and all(np.array_equal(a, b) for a, b in zip(model.biases, back.biases))
    elapsed = time.time() - start
    report(
        12,
        "manifest replay and model persistence are byte-exact",
        identical and roundtrip and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_13_default_window_rule():
    start = time.time()
    value = default_window_len(1400)
    elapsed = time.time() - start
    report(
        13,
        "default lagged window for 1400 observations is 52",
        value == 52 and elapsed < 1.0,
        f"value={value}",
    )


def test_criterion_14_recovery_ordering(bench_runs):
    # PR AUC saturates on this task; the clean part's RMSE against the
    # outlier-free series still shows a trainer that separates worse
    med = {name: median([row.recovery for row, _ in bench_runs[name]])
           for name in ROBUSTNESS_METHODS}
    ok = med["rae"] <= 0.8 * med["nrae"] and med["rdae"] <= 0.8 * med["nrdae"]
    report(
        14,
        "median recovery RMSE of rae and rdae at most 0.8 x that of nrae and nrdae",
        ok,
        ", ".join(f"{k}: {v:.4f}" for k, v in med.items()),
    )
