#!/usr/bin/env python3
"""Per-iteration training-loss traces across the lambda grid.

Writes one column per lambda so the traces can be plotted directly; small
interior lambdas should drop fast within the first dozen iterations.

Usage: python3 scripts/convergence_trace.py [--seed 1] [--out results/convergence.csv]
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from bench import LAMBDAS, rae_config, spiked_sine  # noqa: E402

from robustae import train  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--iters", type=int, default=60)
    parser.add_argument("--out", default="results/convergence.csv")
    args = parser.parse_args()

    ts = spiked_sine(args.seed)
    traces = {}
    for lam in LAMBDAS:
        dec = train(ts, "rae", rae_config(args.seed + 3000, lam=lam, outer=args.iters))
        traces[lam] = dec.loss_trace
        print(f"lambda={lam:g}: first={dec.loss_trace[0]:.4f} last={dec.loss_trace[-1]:.4f}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    longest = max(len(t) for t in traces.values())
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration"] + [f"lambda_{lam:g}" for lam in LAMBDAS])
        for i in range(longest):
            row = [str(i + 1)]
            for lam in LAMBDAS:
                trace = traces[lam]
                row.append(repr(trace[i]) if i < len(trace) else "")
            writer.writerow(row)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
