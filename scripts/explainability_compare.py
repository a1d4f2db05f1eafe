#!/usr/bin/env python3
"""Explainability scores of the clean series produced by each trainer.

For every seed and method, z-normalizes the clean series and reports the
minimal polynomial degree and the minimal number of spectrum components
that fit it within gamma. Lower is easier to read.

Usage: python3 scripts/explainability_compare.py [--seeds 10] [--gamma 0.15]
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from bench import ROBUSTNESS_METHODS, robustness_runs  # noqa: E402

from robustae import es_prm, es_ssa, znormalize  # noqa: E402

N_MAX = 9


def scores(decomposition, gamma):
    clean, _ = znormalize(decomposition.clean)
    prm = es_prm(clean, gamma, N_MAX).score
    ssa = es_ssa(clean, gamma, N_MAX).score
    marker = N_MAX + 1
    return (prm if prm is not None else marker, ssa if ssa is not None else marker)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--gamma", type=float, default=0.15)
    parser.add_argument("--out", default="results/explainability.csv")
    args = parser.parse_args()

    rows = []
    for seed in range(1, args.seeds + 1):
        for method, dec in robustness_runs(seed):
            prm, ssa = scores(dec, args.gamma)
            rows.append({"seed": seed, "method": method, "es_prm": prm, "es_ssa": ssa})
        print(f"seed {seed}: done", flush=True)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["seed", "method", "es_prm", "es_ssa"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out}  (score {N_MAX + 1} = not explainable within {N_MAX})")
    for method in ROBUSTNESS_METHODS:
        prm = np.median([r["es_prm"] for r in rows if r["method"] == method])
        ssa = np.median([r["es_ssa"] for r in rows if r["method"] == method])
        print(f"{method:6s} median ES_PRM={prm:g} ES_SSA={ssa:g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
