#!/usr/bin/env python3
"""Sparsity-weight sensitivity curve on the spiked-sine benchmark.

Sweeps lambda over decades, recording PR/ROC and the outlier-support size
per seed. The interesting shape: accuracy peaks in the interior band while
the support shrinks monotonically.

Usage: python3 scripts/lambda_sensitivity.py [--seeds 5] [--out results/lambda.csv]
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from bench import LAMBDAS, lambda_runs, spiked_sine  # noqa: E402

from robustae import evaluate, outlier_scores  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--out", default="results/lambda.csv")
    args = parser.parse_args()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    for seed in range(1, args.seeds + 1):
        labels = spiked_sine(seed).labels
        for lam, dec in lambda_runs(seed):
            res = evaluate(outlier_scores(dec), labels)
            rows.append(
                {
                    "seed": seed,
                    "lambda": lam,
                    "pr": res.pr_auc,
                    "roc": res.roc_auc,
                    "nonzero": int(np.count_nonzero(dec.outlier.values)),
                }
            )
        print(f"seed {seed}: done", flush=True)

    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["seed", "lambda", "pr", "roc", "nonzero"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out}")
    for lam in LAMBDAS:
        pr = np.median([r["pr"] for r in rows if r["lambda"] == lam])
        nz = np.median([r["nonzero"] for r in rows if r["lambda"] == lam])
        print(f"lambda={lam:g}: median PR={pr:.4f}, median support={nz:.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
