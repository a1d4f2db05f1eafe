"""robustae benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload series-rae --seed 1 --seconds 20 --trace 0

Workloads: series-rae, dual-rdae, score-explain (see perfbench/README.md),
or ``all`` to run the three in turn. The loop is closed: each op starts
when the previous one ends, in whole cycles over the workload's jobs until
``--seconds`` have passed. With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` cycles alternate between
untraced and traced, and it holds the per-layer metrics plus the tracing
overhead. Everything else, per-op seconds included, goes to the result
file under perfbench/out/results/.

Other modes: ``--smoke`` (tiny inputs, seconds per run), ``--check-threads``
(trainer digests equal under 1 and 2 BLAS threads) and ``--record-goldens``
(rewrite perfbench/goldens.json for the given seeds).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDENS = HERE / "goldens.json"
WORKLOADS = ("series-rae", "dual-rdae", "score-explain")
SETUP_REPS = 7


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measure whole cycles until this many seconds passed (0: one cycle)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs for a quick self-test")
    p.add_argument("--blas-threads", type=int, default=1, choices=(1, 2))
    p.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    p.add_argument("--check-threads", action="store_true",
                   help="require equal trainer digests under 1 and 2 BLAS threads")
    p.add_argument("--record-goldens", metavar="SEEDS",
                   help="comma-separated seeds whose digests become the goldens")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    missing = [p for p in ("src/robustae/__init__.py", "tests/bench.py") if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"error: not a robustae checkout, missing {', '.join(missing)}\n")
        return 2
    # one BLAS thread unless asked otherwise; must be set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, str(ROOT / "src"))

    import workloads  # noqa: E402  (needs the environment above)

    if args.prepare:
        workloads.prepare(args.workload, args.seed, args.smoke, Path(args.prepare))
        return 0
    import harness  # noqa: E402
    if args.check_threads:
        return harness.check_threads(args.seed, args.smoke)
    if args.record_goldens:
        return harness.record_goldens([int(s) for s in args.record_goldens.split(",")])
    if args.workload == "all":
        return harness.run_all(args)
    result = harness.run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
