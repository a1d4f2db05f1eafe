"""Mutation table: each row breaks ``src/`` in one known way and names the
tests that must catch it.

    python tests/mutants.py            # every row
    python tests/mutants.py NAME ...   # the named rows

Each mutant is applied to a fresh copy of ``src/`` in a temporary directory,
and the row's tests run in a pytest subprocess against that copy. Up to four
rows run at once (one per CPU); their lines print in table order. The tests
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
from concurrent.futures import ThreadPoolExecutor
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


# the lines of the backward pass's loop, which delta-over-below-before-weight-gradient reorders
_GRAD_W = "            np.matmul(below.T, delta, out=ws.grad_w[layer])\n"
_BIAS_GRAD = (
    "            # the same bits as np.sum, faster (see the module docstring)\n"
    "            if delta.shape[1] > 1:\n"
    '                np.einsum("ij->j", delta, out=ws.grad_b[layer])\n'
    "            else:\n"
    "                np.sum(delta, axis=0, out=ws.grad_b[layer])\n"
)
_NEXT_DELTA = (
    "            if layer > 0:\n"
    "                # grad_w[layer] was the last read of below, so its delta goes over it\n"
    "                _backprop_into(self.config.activation, delta, self.weights[layer], below, ws.tmp)\n"
)
_DELTA_IS_BELOW = "                delta = below\n"

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
        'raw.decode("utf-8-sig")',
        'raw.decode("utf-8")',
        ("tests/test_data.py::test_csv_reader_ignores_a_byte_order_mark",),
        "killed",
    ),
    Mutant(
        "workspace-per-kernel-iteration", "decompose.py",
        "    recon = from_batch(model.forward(batch))\n",
        "    recon = from_batch(model.forward(batch))\n    model.release()\n",
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
        "or any(not np.isfinite(v).all() for c, v in zip(cols, values) if c in finite)",
        "or False",
        ("tests/test_data.py::test_csv_reader_errors_name_file_and_line",),
        "killed",
    ),
    Mutant(
        "csv-rescan-without-finiteness", "data.py",
        "        if bad:\n",
        "        if False:\n",
        ("tests/test_data.py::test_csv_reader_errors_name_file_and_line",),
        "killed",
        "numpy's check still fails the file, and the scan then loads it",
    ),
    Mutant(
        "csv-fast-path-without-field-count", "data.py",
        "np.loadtxt(StringIO(text[start:]), dtype=dtype, delimiter=",
        "np.loadtxt(StringIO(text[start:]), dtype=dtype, usecols=range(len(header)), delimiter=",
        ("tests/test_data.py::test_reader_equals_the_cell_by_cell_reference",),
        "killed",
        "with usecols, numpy drops the fields past the header's instead of refusing the row",
    ),
    Mutant(
        "csv-fast-path-labels-by-value", "data.py",
        "tags = None if label is None else table[str(label)]",
        "tags = None if label is None else table[str(label)].astype(float).astype(int).astype(str)",
        ("tests/test_data.py::test_reader_equals_the_cell_by_cell_reference",),
        "killed",
        "1.0, +1 and 01 would load as labels",
    ),
    Mutant(
        "csv-scan-reads-cells-unstripped", "data.py",
        "    number = cell.strip()\n",
        "    number = cell\n",
        ("tests/test_data.py::test_csv_reader_errors_name_file_and_line",),
        "killed",
        "numpy strips whitespace, \\x1c-\\x1f included, around a float; float() keeps \\x1c-\\x1f",
    ),
    Mutant(
        "csv-without-scan-fallback", "data.py",
        '        raise _scan(path, header, text.split("\\n"), cols, label, increasing, finite)'
        " from None",
        "        raise",
        ("tests/test_data.py::test_csv_reader_errors_name_file_and_line",),
        "killed",
        "numpy's ValueError would escape, naming no line",
    ),
    Mutant(
        "csv-tokenizer-reads-quotes", "data.py",
        "quotechar=None",
        "quotechar='\"'",
        ("tests/test_data.py::test_csv_reader_errors_name_file_and_line",),
        "killed",
        "a quoted number would load",
    ),
    Mutant(
        "csv-scan-reads-underscores", "data.py",
        'if not number.isascii() or "_" in number:',
        "if not number.isascii():",
        ("tests/test_data.py::test_csv_reader_errors_name_file_and_line",),
        "killed",
        "the scan would pass 1_0, which numpy refuses, and name no line",
    ),
    Mutant(
        "csv-scan-reads-non-ascii-digits", "data.py",
        'if not number.isascii() or "_" in number:',
        'if "_" in number:',
        ("tests/test_data.py::test_csv_reader_errors_name_file_and_line",),
        "killed",
        "the scan would pass an Arabic-Indic digit, which numpy refuses, and name no line",
    ),
    Mutant(
        "csv-scan-strips-labels", "data.py",
        'if label is not None and row[label] not in ("0", "1"):',
        'if label is not None and row[label].strip() not in ("0", "1"):',
        ("tests/test_data.py::test_csv_reader_errors_name_file_and_line",),
        "killed",
        "the scan would pass a label of '1 ', which numpy refuses, and name no line",
    ),
    Mutant(
        "csv-nul-reaches-numpy", "data.py",
        'or text.find("\\x00", start) >= 0:',
        "or False:",
        ("tests/test_data.py::test_csv_reader_errors_name_file_and_line",),
        "killed",
        "numpy drops a NUL from the end of a label, so 1<NUL> would load as 1",
    ),
    Mutant(
        "csv-scan-passes-bare-cr", "data.py",
        '        if "\\r" in line:\n',
        "        if False:\n",
        ("tests/test_data.py::test_csv_reader_errors_name_file_and_line",),
        "killed",
        "a line with a bare CR would be named for its field count",
    ),
    Mutant(
        "csv-header-passes-bare-cr", "data.py",
        'if "\\r" in header[:-1]:',
        "if False:",
        ("tests/test_data.py::test_csv_reader_errors_name_file_and_line",),
        "killed",
        "a file of bare-CR lines would be refused for its header, not for its line ends",
    ),
    Mutant(
        "manifest-duration-wall-clock", "cli.py",
        "    started = time.perf_counter()\n",
        "    started = time.time()\n",
        ("tests/test_cli.py::test_manifest_duration_survives_a_wall_clock_step",),
        "killed",
        "a run timed from a wall-clock reading; with both readings on time.time() the test "
        "fails too",
    ),
    Mutant(
        "bias-sum-width-1-through-einsum", "nn.py",
        "if delta.shape[1] > 1:",
        "if True:",
        ("tests/test_nn.py::test_train_steps_are_bit_stable[tanh]",),
        "killed",
        "a one-column bias gradient summed by einsum, not by np.sum, changes its last bits",
    ),
    Mutant(
        "delta-over-below-before-weight-gradient", "nn.py",
        _GRAD_W + _BIAS_GRAD + _NEXT_DELTA + _DELTA_IS_BELOW,
        _NEXT_DELTA + _GRAD_W + _BIAS_GRAD + "            if layer > 0:\n" + _DELTA_IS_BELOW,
        ("tests/test_nn.py::test_gradient_check_all_activations_deep",
         "tests/test_nn.py::test_train_steps_are_bit_stable"),
        "killed",
        "a hidden layer's delta overwrites its output before that layer's weight gradient reads it",
    ),
    Mutant(
        "sigmoid-matmul-before-derivative", "nn.py",
        "        np.subtract(1.0, a, out=tmp)\n",
        "        np.subtract(1.0, a, out=tmp)\n        np.matmul(delta, w.T, out=tmp)\n",
        ("tests/test_nn.py::test_gradient_check_all_activations_deep[sigmoid]",
         "tests/test_nn.py::test_train_steps_are_bit_stable[sigmoid]"),
        "killed",
        "the matmul lands in tmp while 1 - a is still needed there",
    ),
    Mutant(
        "backprop-product-allocates", "nn.py",
        "np.multiply(tmp, a, out=a)",
        "a[...] = tmp * a",
        ("tests/test_nn.py::test_train_allocates_no_batch_sized_array",),
        "killed",
        "a batch-sized temporary per hidden layer per step",
    ),
    Mutant(
        "adam-second-moment-unchecked", "nn.py",
        "if not np.all(np.isfinite(v)):",
        "if False:",
        ("tests/test_nn.py::test_overflowing_second_moment_raises",),
        "killed",
        "an overflowed second moment freezes its parameters at a zero update",
    ),
    Mutant(
        "model-writer-compact-separators", "data.py",
        "json.dump(doc, fh, sort_keys=True)",
        'json.dump(doc, fh, sort_keys=True, separators=(",", ":"))',
        ("tests/test_data.py::test_model_file_bytes_equal_the_field_by_field_writer",),
        "killed",
    ),
    Mutant(
        "synth-signs-per-point", "data.py",
        "    signs = np.where(rng.random((lengths.size, cfg.dims)) < 0.5, -1.0, 1.0)\n"
        "    signs = np.repeat(signs, lengths, axis=0)\n",
        "    signs = np.where(rng.random((budget, cfg.dims)) < 0.5, -1.0, 1.0)\n",
        ("tests/test_data.py::test_synth_collective_runs",
         "tests/test_data.py::test_synth_equals_the_index_by_index_reference"),
        "killed",
        "a collective block would no longer read as one level shift",
    ),
    Mutant(
        "soft-threshold-writes-its-input", "prox.py",
        "out = np.abs(x, out=np.empty_like(x))",
        "out = np.abs(x, out=x)",
        ("tests/test_prox.py::test_soft_leaves_its_input_untouched",
         "tests/test_decompose.py::test_kernel_equals_the_plain_alternation_bit_for_bit"),
        "killed",
        "the kernel's residual would become S, and S would be zeroed with it",
    ),
    Mutant(
        "soft-threshold-with-four-temporaries", "prox.py",
        "    out = np.abs(x, out=np.empty_like(x))\n"
        "    np.subtract(out, lam, out=out)\n"
        "    np.maximum(out, 0.0, out=out)\n"
        "    return np.multiply(np.sign(x), out, out=out)\n",
        "    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)\n",
        ("tests/test_decompose.py::"
         "test_robust_matrix_iteration_holds_six_batch_arrays_beside_the_workspace",),
        "killed",
        "the same bits, with one more batch-sized array alive during the shrink",
    ),
    Mutant(
        "shrink-residual-formed-twice-into-s", "decompose.py",
        "    resid -= new_s\n    cond1 = frobenius_norm(resid) / norm\n",
        "    np.subtract(x - recon, new_s, out=new_s)\n    cond1 = frobenius_norm(new_s) / norm\n",
        ("tests/test_decompose.py::test_kernel_equals_the_plain_alternation_bit_for_bit",),
        "killed",
        "condition 1 formed over S itself overwrites the new S with x - L - S",
    ),
    Mutant(
        "dual-keeps-pass-arrays", "decompose.py",
        "        t_l, t_s, s_batch, losses = _matrix_pass(\n"
        "            values - t_s, s_batch, b, f1, inner, lam1, cfg.epsilon,\n"
        "            1 if robust else cap, cap, tag, verbose,\n"
        "        )\n",
        "        m_batch = _column_batch(embed_lagged(TimeSeries(values - t_s), b).planes)\n"
        "        mhat = m_batch if f1 is None else _alternate(\n"
        "            m_batch, np.zeros_like(m_batch), f1, None, cfg.epsilon, 1 if robust else cap,\n"
        '            frobenius_norm(m_batch), f"{tag}/smoothing", verbose,\n'
        "        )[0]\n"
        "        l_batch, s_batch, _, losses = _alternate(\n"
        "            mhat, s_batch, inner, lam1, cfg.epsilon, cap, frobenius_norm(mhat),\n"
        '            f"{tag}/matrix", verbose,\n'
        "        )\n"
        "        t_l, t_s = _batch_to_series(l_batch, d, b), _batch_to_series(s_batch, d, b)\n",
        ("tests/test_decompose.py::test_dual_carries_only_s_into_the_series_stage",),
        "killed",
        "the pass inlined as it was: the column batch, its smoothed copy and the matrix L "
        "stay alive through the series stage",
    ),
    Mutant(
        "explain-converts-every-column", "data.py",
        "range(1, d + 1 if clean_only else 2 * d + 2)",
        "range(1, 2 * d + 2)",
        ("tests/test_cli.py::test_explain_reads_only_the_clean_columns",),
        "killed",
        "a non-numeric outlier or score cell would stop explain again",
    ),
    Mutant(
        "network-input-dim-unchecked", "decompose.py",
        "if user_cfg.input_dim != input_dim:",
        "if False:",
        ("tests/test_decompose.py::test_network_of_another_width_than_the_window_is_refused",),
        "killed",
        "a network of the wrong width fails later, with the network's own shape error",
    ),
    Mutant(
        "default-lagged-window-off-by-one", "decompose.py",
        "        return default_window_len(length)\n",
        "        return default_window_len(length) + 1\n",
        ("tests/test_decompose.py::test_rdae_default_lagged_window_is_the_default_window_len",),
        "killed",
    ),
    Mutant(
        "sweep-accepts-unlabeled-series", "cli.py",
        "    if ts.labels is None:\n",
        "    if False:\n",
        ("tests/test_cli.py::test_bad_input_exits_with_documented_code[sweep-unlabeled-series]",),
        "killed",
        "every sampled run fails on the missing labels, and the sweep exits 0",
    ),
    Mutant(
        "explain-nonfinite-rmse-unchecked", "explain.py",
        "if not np.isfinite([err for _, err in curve]).all():",
        "if False:",
        ("tests/test_cli.py::test_bad_input_exits_with_documented_code[explain-ssa-rmse-overflows]",
         "tests/test_cli.py::test_bad_input_exits_with_documented_code[explain-prm-rmse-overflows]"),
        "killed",
        "explain would print an overflowed RMSE as Infinity, which is not JSON, and exit 0",
    ),
    Mutant(
        "default-bottleneck-floor-two", "nn.py",
        "narrow = min(max(2, round(0.25 * input_dim)), input_dim - 1)",
        "narrow = max(2, round(0.25 * input_dim))",
        ("tests/test_nn.py::test_default_layer_dims_shape",
         "tests/test_decompose.py::test_default_networks_train_on_two_wide_inputs[rae]"),
        "killed",
        "no default network would exist for a 2-wide input",
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
    shutil.copytree(REPO / "src", dest, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def _run_row(m: Mutant, tmp: Path) -> tuple[bool, list[str]]:
    """Apply ``m`` to a copy of ``src/`` of its own; (failed, lines to print)."""
    src = _copy_src(tmp / m.name)
    path = src / "robustae" / m.file
    text = path.read_text(encoding="utf-8")
    if text.count(m.old) != 1:
        return True, [f"ERROR     {m.name}: old text occurs {text.count(m.old)} times in {m.file}"]
    path.write_text(text.replace(m.old, m.new), encoding="utf-8")
    start = time.perf_counter()
    code = _run_tests(src, m.tests)
    seconds = time.perf_counter() - start
    # exit 1 is a failed test; any other nonzero code is a broken run
    result = {0: "survived", 1: "killed"}.get(code, f"pytest exit {code}")
    bad = result != "killed" and (m.expect == "killed" or result != "survived")
    status = "FAIL" if bad else "ok"
    lines = [f"{status:<6}{result:<10}{m.name} ({m.expect}, {seconds:.1f} s)"
             + (f": {m.note}" if m.note else "")]
    if m.expect == "known" and result == "killed":
        lines.append(f"      {m.name} is now killed: mark its row killed")
    return bad, lines


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
        # rows run side by side, each in its own copy; map yields them in table order
        with ThreadPoolExecutor(min(os.cpu_count() or 1, 4)) as pool:
            for bad, lines in pool.map(lambda m: _run_row(m, Path(tmp)), rows):
                failures += bad
                print("\n".join(lines), flush=True)
    print(f"{len(rows)} mutants, {failures} failing")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
