#!/usr/bin/env python3
"""The paper's four experiments on the spiked-sine benchmark of tests/bench.py.

Each subcommand writes one CSV (default results/<name>.csv) and prints the
median of every value column, per method or lambda (convergence: over all
iterations).

Usage: python3 scripts/experiments.py {robustness,lambda,convergence,explainability} [flags]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from bench import (  # noqa: E402
    LAMBDAS,
    lambda_runs,
    outlier_free_sine,
    rae_config,
    robustness_runs,
    spiked_sine,
)

from robustae import es_prm, es_ssa, evaluate, outlier_scores, train, znormalize  # noqa: E402
from robustae.data import write_columns  # noqa: E402
from robustae.linalg import rmse  # noqa: E402

N_MAX = 9  # an ES score of N_MAX + 1 means not explainable within N_MAX


def robustness_rows(seed, args):
    """PR/ROC, recovery RMSE against the outlier-free series and outlier-support
    size of the robust and non-robust trainers, per seed"""
    labels, truth = spiked_sine(seed).labels, outlier_free_sine(seed).values
    for method, dec in robustness_runs(seed):
        res = evaluate(outlier_scores(dec), labels)
        yield (seed, method, res.pr_auc, res.roc_auc, rmse(dec.clean.values, truth),
               int(np.count_nonzero(dec.outlier.values)))


def lambda_rows(seed, args):
    """PR/ROC and outlier-support size per sparsity weight, per seed"""
    labels = spiked_sine(seed).labels
    for lam, dec in lambda_runs(seed):
        res = evaluate(outlier_scores(dec), labels)
        yield seed, lam, res.pr_auc, res.roc_auc, int(np.count_nonzero(dec.outlier.values))


def convergence_rows(seed, args):
    """per-iteration training loss of rae, one column per lambda"""
    ts = spiked_sine(seed)
    traces = [
        train(ts, "rae", rae_config(seed + 3000, lam=lam, outer=args.iters)).loss_trace
        for lam in LAMBDAS
    ]
    for i in range(max(map(len, traces))):
        yield i + 1, *(trace[i] if i < len(trace) else "" for trace in traces)


def explainability_rows(seed, args):
    """ES_PRM/ES_SSA of each trainer's z-normalized clean series, per seed;
    a score of 10 means not explainable within 9"""
    for method, dec in robustness_runs(seed):
        clean, _ = znormalize(dec.clean)
        scores = [scan(clean, args.gamma, N_MAX).score for scan in (es_prm, es_ssa)]
        yield seed, method, *(N_MAX + 1 if score is None else score for score in scores)


# name -> (rows of one seed, CSV header, column the summary groups by, flags and defaults)
EXPERIMENTS = {
    "robustness": (
        robustness_rows,
        ["seed", "method", "pr", "roc", "recovery", "support"],
        "method",
        {"seeds": 10},
    ),
    "lambda": (lambda_rows, ["seed", "lambda", "pr", "roc", "nonzero"], "lambda", {"seeds": 5}),
    "convergence": (
        convergence_rows,
        ["iteration"] + [f"lambda_{lam:g}" for lam in LAMBDAS],
        None,
        {"seed": 1, "iters": 60},
    ),
    "explainability": (
        explainability_rows,
        ["seed", "method", "es_prm", "es_ssa"],
        "method",
        {"seeds": 10, "gamma": 0.15},
    ),
}


def print_medians(header, rows, group):
    """One line per value of column ``group`` (one line for all rows if None)
    with the median of each column after it, skipping empty cells."""
    at = header.index(group) if group else 0
    for key in dict.fromkeys(row[at] for row in rows) if group else [None]:
        picked = [row for row in rows if group is None or row[at] == key]
        medians = " ".join(
            f"{name}={np.median([row[j] for row in picked if row[j] != '']):g}"
            for j, name in enumerate(header) if j > at
        )
        print(f"{group}={key}: median {medians}" if group else f"median {medians}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="name", required=True)
    for name, (experiment, _, _, flags) in EXPERIMENTS.items():
        p = sub.add_parser(name, help=experiment.__doc__)
        for flag, default in flags.items():
            p.add_argument(f"--{flag}", type=type(default), default=default)
        p.add_argument("--out", default=f"results/{name}.csv")
    args = parser.parse_args()

    experiment, header, group, _ = EXPERIMENTS[args.name]
    rows = []
    for seed in range(1, args.seeds + 1) if "seeds" in args else [args.seed]:
        rows += experiment(seed, args)
        print(f"seed {seed}: done", flush=True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_columns(out, header, zip(*rows))
    print(f"wrote {out}")
    print_medians(header, rows, group)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
