"""Mutation table: each row breaks ``src/`` in one known way and names the
tests that must catch it.

    python tests/mutants.py            # every row
    python tests/mutants.py NAME ...   # the named rows

Each mutant is applied to a fresh copy of ``src/`` in a temporary directory,
and the row's tests run in a pytest subprocess against that copy. The tests
first run once against an unchanged copy, where they must pass. A ``killed``
row must make its tests fail. A ``known`` row is a mutant that no test
catches yet; its note names the ROADMAP item that should. The script exits
nonzero when a ``killed`` row survives, when a row's old text does not occur
exactly once in its file, or when the tests fail on the unchanged copy.

pytest does not collect this file, so tier-1 does not run it. A change that
adds a check should add the mutant that the check kills.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/robustae
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repo
    expect: str  # "killed" or "known"
    note: str = ""


MUTANTS = (
    Mutant(
        "bias-init-nonzero", "nn.py",
        "self._params = np.zeros(_n_params(dims))",
        "self._params = np.full(_n_params(dims), 0.01)",
        ("tests/test_metamorphic.py::test_sign_flip_negates_the_decomposition",),
        "killed",
    ),
    Mutant(
        "znormalize-without-mean", "data.py",
        "out = (ts.values - mean) / std",
        "out = ts.values / std",
        ("tests/test_metamorphic.py::test_scale_and_shift_keep_the_outliers",),
        "killed",
    ),
    Mutant(
        "stats-over-unlabelled-points", "data.py",
        "mean = ts.values.mean(axis=0)\n        std = ts.values.std(axis=0, ddof=1)",
        "kept = ts.values if ts.labels is None else ts.values[~ts.labels]\n"
        "        mean = kept.mean(axis=0)\n        std = kept.std(axis=0, ddof=1)",
        ("tests/test_metamorphic.py::test_labels_are_not_used_in_training",),
        "killed",
    ),
    Mutant(
        "load-model-accepts-non-finite", "data.py",
        "if not all(np.isfinite(a).all() for a in arrays):",
        "if False:",
        ("tests/test_data.py::test_model_payload_that_does_not_build",),
        "killed",
    ),
    Mutant(
        "load-model-without-shape-check", "data.py",
        "if got != want:",
        "if False:",
        ("tests/test_data.py::test_model_payload_that_does_not_build",),
        "killed",
        "the one-entry-bias row: a short bias would broadcast into its layer",
    ),
    Mutant(
        "csv-reader-keeps-bom", "data.py",
        'encoding="utf-8-sig"',
        'encoding="utf-8"',
        ("tests/test_data.py::test_csv_reader_ignores_a_byte_order_mark",),
        "killed",
    ),
    Mutant(
        "workspace-per-kernel-iteration", "decompose.py",
        "            recon = from_batch(model.forward(batch))\n",
        "            recon = from_batch(model.forward(batch))\n            model.release()\n",
        ("tests/test_decompose.py::test_each_stage_builds_one_workspace_and_releases_it",),
        "killed",
    ),
    Mutant(
        "fold-without-hankel-read", "hankel.py",
        "    if hankel:\n        return np.concatenate((firsts, prev[1:]))",
        "    if False:\n        return np.concatenate((firsts, prev[1:]))",
        ("tests/test_hankel.py::test_row_fold_reads_hankel_planes_with_mixed_signed_zeros",
         "tests/test_hankel.py::test_diagonal_average_reads_exactly_hankel_planes",
         "tests/test_explain.py::test_ssa_reads_exactly_hankel_rank1_planes"),
        "killed",
    ),
    Mutant(
        "fold-sums-rows-in-decreasing-order", "hankel.py",
        "        acc[r : r + k] += row\n    if hankel:\n",
        "        acc[r : r + k] += row\n    acc[:] = 0.0\n"
        "    for r in range(b - 1, -1, -1):\n        acc[r : r + k] += rows[r]\n    if hankel:\n",
        ("tests/test_hankel.py::test_row_fold_bit_equal_to_accumulator_average",
         "tests/test_hankel.py::test_diagonal_average_bit_equal_to_bincount"),
        "killed",
        "re-adds a stored plane's rows last row first",
    ),
    Mutant(
        "sweep-block-replaced-not-merged", "cli.py",
        "            **net,\n",
        "",
        ("tests/test_cli.py::test_sweep_depth_and_width_keep_the_base_network_fields",),
        "killed",
    ),
    Mutant(
        "csv-readers-accept-non-finite", "data.py",
        "infinite = any(not np.isfinite(v).all() for c, v in zip(cols, values) if c in finite)",
        "infinite = False",
        ("tests/test_data.py::test_csv_reader_errors_name_file_and_line",),
        "killed",
    ),
    Mutant(
        "csv-rescan-without-finiteness", "data.py",
        "        if bad:\n",
        "        if False:\n",
        ("tests/test_data.py::test_csv_reader_errors_name_file_and_line",),
        "killed",
        "the bulk check still fails the file, and the rescan then names no row",
    ),
    Mutant(
        "finish-residual-zero", "decompose.py",
        "            frobenius_norm(values - clean - s) / t_norm,",
        "            0.0,",
        ("tests/test_decompose.py::test_rae_constraint_and_residuals",
         "tests/test_decompose.py::test_rdae_constraint"),
        "known",
        "clean = T - S makes this residual about 3e-17 by construction (ROADMAP item 3)",
    ),
)


def _run_tests(src: Path, tests) -> int:
    """pytest's exit code for ``tests`` run against the package in ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=REPO, env=env, capture_output=True).returncode


def _copy_src(tmp: Path) -> Path:
    dest = tmp / "src"
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(REPO / "src", dest, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="rows to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"no such rows: {sorted(unknown)}")
    rows = [m for m in MUTANTS if not args.names or m.name in args.names]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({t for m in rows for t in m.tests})
        code = _run_tests(_copy_src(Path(tmp)), tests)
        if code != 0:
            print(f"the tests fail on the unchanged source (pytest exit {code})")
            return 1
        for m in rows:
            src = _copy_src(Path(tmp))
            path = src / "robustae" / m.file
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"ERROR     {m.name}: old text occurs {text.count(m.old)} times in {m.file}")
                failures += 1
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            code = _run_tests(src, m.tests)
            seconds = time.perf_counter() - start
            # exit 1 is a failed test; any other nonzero code is a broken run
            result = {0: "survived", 1: "killed"}.get(code, f"pytest exit {code}")
            bad = result != "killed" and (m.expect == "killed" or result != "survived")
            failures += bad
            status = "FAIL" if bad else "ok"
            print(f"{status:<6}{result:<10}{m.name} ({m.expect}, {seconds:.1f} s)"
                  + (f": {m.note}" if m.note else ""))
            if m.expect == "known" and result == "killed":
                print(f"      {m.name} is now killed: mark its row killed")
    print(f"{len(rows)} mutants, {failures} failing")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
