"""Workload inputs, ops and output checks.

Inputs come from the builders in ``tests/bench.py`` (imported, not copied),
so the benchmark and the acceptance suite share one definition of the
2000-point spiked sine and the trainer configs.

* ``series-rae``: CLI ``train`` for ``rae`` and ``nrae``. Exercises the
  network on one (1985 x 16) batch, windowing and shrinkage, and file
  writes. It makes no Hankel call: the control for Hankel changes.
* ``dual-rdae``: ``robustae.decompose.train`` for ``rdae``, ``nrdae`` and
  the three ablations. Narrow (1991 x 10) column batches, a smoothing net,
  the nested while/matrix/series loops and their Hankel round-trips; the
  only workload that runs all five alternation loops.
* ``score-explain``: CLI ``eval`` plus ``explain --method ssa|prm`` on
  precomputed decompositions of 2000 and 8000 points; no network work.
  The lagged planes (about 0.9 MB and 5 MB) sit on either side of the
  cache, and the CSV reads pair with the writes of ``series-rae``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import shutil
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

import robustae  # noqa: E402  (src/ is put on sys.path by run.py)
import robustae.cli  # noqa: E402
import robustae.decompose  # noqa: E402


def _load_builders():
    spec = importlib.util.spec_from_file_location("robustae_test_bench", ROOT / "tests" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_builders()

JOBS = {
    "series-rae": ("rae", "nrae"),
    "dual-rdae": ("rdae", "nrdae", "rdae-f1", "rdae-f2", "rdae-f1f2"),
    "score-explain": ("n2000", "n8000"),
}

EXPLAIN_LENGTHS = {"n2000": 2000, "n8000": 8000}
SMOKE_LENGTH = 240
SMOKE_EXPLAIN_LENGTHS = {"n2000": 240, "n8000": 480}
GAMMA = "0.15"
# relative tolerance of the additive constraint T = clean + outlier
CONSTRAINT_TOL = 1e-9


def series_length(smoke: bool) -> int:
    return SMOKE_LENGTH if smoke else bench.SERIES_LEN


def rae_cfg(seed: int, smoke: bool):
    return bench.rae_config(seed, outer=3, inner=2) if smoke else bench.rae_config(seed)


def rdae_cfg(seed: int, smoke: bool):
    if smoke:
        return replace(bench.rdae_config(seed, while_iters=1), max_outer_iters=2)
    return bench.rdae_config(seed)


def iteration_cap(method: str, cfg) -> int:
    """The cap ``iterations_run`` reaches when no stop rule fires."""
    if method in ("rae", "nrae"):
        return cfg.max_outer_iters
    if method == "nrdae":
        return cfg.max_while_iters * cfg.max_outer_iters
    return cfg.max_while_iters


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def array_digest(clean: np.ndarray, outlier: np.ndarray) -> str:
    return digest(
        np.ascontiguousarray(clean, dtype=np.float64).tobytes(),
        np.ascontiguousarray(outlier, dtype=np.float64).tobytes(),
    )


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Reference PR AUC: precision times recall step over tied-score blocks."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order].astype(np.float64)
    ends = np.append(np.nonzero(s[1:] != s[:-1])[0], s.size - 1)
    tp = np.cumsum(y)[ends]
    recall = tp / y.sum()
    return float(np.sum(tp / (ends + 1.0) * np.diff(np.concatenate(([0.0], recall)))))


def _explain_series(seed: int, length: int):
    """Labeled series plus a training-free decomposition of it."""
    ts = bench.spiked_sine(seed, length=length)
    x = ts.values[:, 0]
    clean = np.convolve(np.pad(x, 2, mode="edge"), np.full(5, 0.2), mode="valid")
    return ts, clean[:, None], (x - clean)[:, None]


def prepare(workload: str, seed: int, smoke: bool, out: Path) -> None:
    """Write the workload's input files into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "series-rae":
        robustae.save_csv(bench.spiked_sine(seed, length=series_length(smoke)), out / "series.csv")
        (out / "rae.json").write_text(json.dumps(asdict(rae_cfg(seed, smoke))))
    elif workload == "dual-rdae":
        # in-process trainer calls: the inputs are rebuilt by ``Workload``
        bench.spiked_sine(seed, length=series_length(smoke))
        rdae_cfg(seed, smoke)
    else:
        lengths = SMOKE_EXPLAIN_LENGTHS if smoke else EXPLAIN_LENGTHS
        for job, length in lengths.items():
            ts, clean, outlier = _explain_series(seed, length)
            dec = robustae.Decomposition(
                robustae.TimeSeries(clean), robustae.TimeSeries(outlier), 0, (0.0, 0.0)
            )
            robustae.save_decomposition(dec, out / f"{job}_decomposition.csv")
            scores = np.sum(outlier * outlier, axis=1)
            with open(out / f"{job}_scores.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "score", "label"])
                for i, (s, lab) in enumerate(zip(scores, ts.labels)):
                    writer.writerow([str(i), repr(float(s)), "1" if lab else "0"])


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return robustae.cli.main(argv)


class Workload:
    """Runs one op per job and checks its outputs.

    ``run(job)`` is the timed part and returns the raw outputs; ``check``
    runs afterwards, untimed, and returns the op record (digest, PR AUC,
    counts and the list of failed checks).
    """

    def __init__(self, name: str, seed: int, smoke: bool, inputs: Path, work: Path):
        self.name = name
        self.jobs = JOBS[name]
        self.inputs = inputs
        self.work = work
        if name == "score-explain":
            lengths = SMOKE_EXPLAIN_LENGTHS if smoke else EXPLAIN_LENGTHS
            self.explain = {job: _explain_series(seed, n) for job, n in lengths.items()}
        else:
            self.ts = bench.spiked_sine(seed, length=series_length(smoke))
            self.cfg = rae_cfg(seed, smoke) if name == "series-rae" else rdae_cfg(seed, smoke)

    def run(self, job: str):
        out = self.work / job
        if self.name == "dual-rdae":
            return robustae.decompose.train(self.ts, job, self.cfg)
        if self.name == "series-rae":
            return _cli(
                [
                    "train", "--method", job,
                    "--input", str(self.inputs / "series.csv"),
                    "--config", str(self.inputs / "rae.json"),
                    "--out-dir", str(out),
                ]
            )
        dec = str(self.inputs / f"{job}_decomposition.csv")
        codes = [
            _cli(["eval", "--input", str(self.inputs / f"{job}_scores.csv"),
                  "--out", str(out / "eval.json")]),
        ]
        for method in ("ssa", "prm"):
            codes.append(
                _cli(["explain", "--input", dec, "--method", method, "--gamma", GAMMA,
                      "--normalize", "--out", str(out / f"{method}.json")])
            )
        return max(codes)

    def check(self, job: str, output) -> dict:
        if self.name == "dual-rdae":
            return self._check_decomposition(
                job,
                output.clean.values,
                output.outlier.values,
                len(output.loss_trace),
                output.iterations_run,
            )
        out = self.work / job
        try:
            return self._check_files(job, output, out)
        finally:
            # the next op of this job writes its outputs afresh, so a check
            # never reads a file an earlier op left behind
            shutil.rmtree(out, ignore_errors=True)

    def _check_files(self, job: str, code: int, out: Path) -> dict:
        if code != 0:
            return {"problems": [f"exit code {code}"]}
        if self.name == "series-rae":
            table = np.loadtxt(out / "decomposition.csv", delimiter=",", skiprows=1, ndmin=2)
            with open(out / "loss_trace.csv", encoding="utf-8") as fh:
                trace_len = sum(1 for _ in fh) - 1
            # loss_trace holds one entry per outer iteration of rae and nrae
            return self._check_decomposition(job, table[:, 1:2], table[:, 2:3], trace_len, trace_len)
        return self._check_explain(job, out)

    def _check_decomposition(self, job, clean, outlier, trace_len, iterations) -> dict:
        problems = []
        values = self.ts.values
        if clean.shape != values.shape or outlier.shape != values.shape:
            return {"problems": [f"output shape {clean.shape} != input {values.shape}"]}
        gap = float(np.max(np.abs(clean + outlier - values)))
        if not gap <= CONSTRAINT_TOL * max(1.0, float(np.max(np.abs(values)))):
            problems.append(f"clean + outlier differs from the input by {gap:.3e}")
        scores = np.sum(outlier * outlier, axis=1)
        cap = iteration_cap(job, self.cfg)
        return {
            "digest": array_digest(clean, outlier),
            "pr_auc": average_precision(scores, self.ts.labels),
            "loss_trace_len": trace_len,
            "iterations_run": iterations,
            "cap": cap,
            "cap_hit": iterations == cap,
            "problems": problems,
        }

    def _check_explain(self, job, out: Path) -> dict:
        problems = []
        ts, clean, outlier = self.explain[job]
        raw = [(out / f"{name}.json").read_bytes() for name in ("eval", "ssa", "prm")]
        ev, ssa, prm = (json.loads(blob) for blob in raw)
        scores = np.sum(outlier * outlier, axis=1)
        expected = average_precision(scores, ts.labels)
        if abs(ev["pr_auc"] - expected) > 1e-12:
            problems.append(f"eval pr_auc {ev['pr_auc']!r} != reference {expected!r}")
        if ev["n_positives"] != int(ts.labels.sum()):
            problems.append("eval n_positives does not match the labels")
        # the degree-0 fit of a z-normalized series is its mean, so its RMSE
        # is the population std of the normalized series
        c = clean[:, 0]
        std0 = float(np.std((c - c.mean()) / c.std(ddof=1)))
        if abs(prm["rmse_by_order"][0][1] - std0) > 1e-9:
            problems.append(f"prm degree-0 rmse {prm['rmse_by_order'][0][1]!r} != {std0!r}")
        gamma = float(GAMMA)
        for doc in (ssa, prm):
            first = next((n for n, err in doc["rmse_by_order"] if n >= 1 and err < gamma), None)
            if doc["score"] != first:
                problems.append(f"{doc['method']} score {doc['score']} != first order under gamma {first}")
        return {"digest": digest(*raw), "pr_auc": float(ev["pr_auc"]), "problems": problems}
