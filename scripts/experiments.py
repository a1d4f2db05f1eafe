#!/usr/bin/env python3
"""The paper's experiments on the spiked-sine benchmark of tests/bench.py.

Each subcommand writes one CSV (default results/<name>.csv) and prints the
median of every value column, per method or lambda (convergence: over all
iterations). The trainer runs go to a pool of up to four worker processes.

Usage: python3 scripts/experiments.py {robustness,lambda,convergence} [flags]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from bench import (  # noqa: E402
    GAMMA,
    LAMBDAS,
    ROBUSTNESS_METHODS,
    lambda_row,
    map_runs,
    rae_config,
    robustness_record,
    spiked_sine,
)

from robustae import train  # noqa: E402
from robustae.data import write_columns  # noqa: E402

# Each experiment is one job per trainer run, mapped over tests/bench.py
# map_runs' worker pool. A job runs in a worker and returns its CSV row, the
# record tests/bench.py builds for the acceptance suite too (convergence: its
# loss trace); map_runs returns them in job order, and a trainer's run does
# not depend on its process, so the CSV is byte-identical to a loop's.


def _seeds(args):
    return range(1, args.seeds + 1)


def robustness_rows(args):
    """PR/ROC, recovery RMSE against the outlier-free series, outlier-support
    size and ES_PRM/ES_SSA of the z-normalized clean series of the robust and
    non-robust trainers, per seed; an ES score of 10 means not explainable
    within 9"""
    jobs = [(seed, m, args.gamma) for seed in _seeds(args) for m in ROBUSTNESS_METHODS]
    return [row for row, _ in map_runs(robustness_record, jobs)]


def lambda_rows(args):
    """PR/ROC and outlier-support size per sparsity weight, per seed"""
    return map_runs(lambda_row, [(seed, lam) for seed in _seeds(args) for lam in LAMBDAS])


def _loss_trace(job):
    seed, lam, iters = job
    return train(spiked_sine(seed), "rae", rae_config(seed + 3000, lam=lam, outer=iters)).loss_trace


def convergence_rows(args):
    """per-iteration training loss of rae, one column per lambda"""
    traces = map_runs(_loss_trace, [(args.seed, lam, args.iters) for lam in LAMBDAS])
    return [(i + 1, *(trace[i] if i < len(trace) else "" for trace in traces))
            for i in range(max(map(len, traces)))]


# name -> (rows, CSV header, column the summary groups by, flags and defaults)
EXPERIMENTS = {
    "robustness": (
        robustness_rows,
        ["seed", "method", "pr", "roc", "recovery", "support", "es_prm", "es_ssa"],
        "method",
        {"seeds": 10, "gamma": GAMMA},
    ),
    "lambda": (lambda_rows, ["seed", "lambda", "pr", "roc", "nonzero"], "lambda", {"seeds": 5}),
    "convergence": (
        convergence_rows,
        ["iteration"] + [f"lambda_{lam:g}" for lam in LAMBDAS],
        None,
        {"seed": 1, "iters": 60},
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
    rows = experiment(args)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_columns(out, header, zip(*rows))
    print(f"wrote {out}")
    print_medians(header, rows, group)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
