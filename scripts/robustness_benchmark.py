#!/usr/bin/env python3
"""Paired robustness experiment on the spiked-sine benchmark.

Runs the four trainers over a set of seeds and writes per-seed and median
PR/ROC to a CSV, the shape of the robust-vs-non-robust comparison.

Usage: python3 scripts/robustness_benchmark.py [--seeds 10] [--out results/robustness.csv]
"""

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from bench import ROBUSTNESS_METHODS, robustness_runs, spiked_sine  # noqa: E402

from robustae import evaluate, outlier_scores  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default="results/robustness.csv")
    args = parser.parse_args()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    for seed in range(1, args.seeds + 1):
        labels = spiked_sine(seed).labels
        started = time.time()
        for method, dec in robustness_runs(seed):
            res = evaluate(outlier_scores(dec), labels)
            rows.append({"seed": seed, "method": method, "pr": res.pr_auc, "roc": res.roc_auc})
        print(f"seed {seed}: done in {time.time() - started:.0f}s", flush=True)

    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["seed", "method", "pr", "roc"])
        writer.writeheader()
        writer.writerows(rows)

    print(f"\nwrote {out}")
    for method in ROBUSTNESS_METHODS:
        pr = np.median([r["pr"] for r in rows if r["method"] == method])
        roc = np.median([r["roc"] for r in rows if r["method"] == method])
        print(f"{method:6s} median PR={pr:.4f} ROC={roc:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
