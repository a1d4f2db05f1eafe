"""Measurement loop, metrics, environment stamp and golden digests.

Imported by run.py after the BLAS thread count is fixed in the environment.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads
from run import GOLDENS, OUT, ROOT, SETUP_REPS, WORKLOADS

RUN_PY = Path(__file__).resolve().parent / "run.py"
TRAINER_WORKLOADS = ("series-rae", "dual-rdae")


# ---------------------------------------------------------------------------
# environment


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def _cpu() -> dict:
    model, flags = "", ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and not model:
                    model = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = " ".join(sorted(value.split()))
    except OSError:
        pass
    flags_sha = hashlib.sha256(flags.encode()).hexdigest()[:16]
    return {"model": model or platform.machine(), "flags_sha": flags_sha}


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return {"name": None, "version": None}


def env_stamp() -> dict:
    return {
        "git": _git_state(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpu": _cpu(),
        "loadavg_1m": os.getloadavg()[0],
    }


def _golden_key(env: dict) -> dict:
    """The part of the environment that golden digests depend on."""
    return {"numpy": env["numpy"], "blas": env["blas"], "cpu": env["cpu"]}


def _goldens_for(workload: str, seed: int, smoke: bool, env: dict) -> tuple[dict, str]:
    """Golden digests by job, and why there are none when the dict is empty."""
    if smoke:
        return {}, "smoke inputs have no goldens"
    if not GOLDENS.is_file():
        return {}, "no goldens file"
    doc = json.loads(GOLDENS.read_text())
    if doc.get("env") != _golden_key(env):
        return {}, "goldens were taken on another numpy, BLAS or CPU"
    by_job = doc.get("seeds", {}).get(str(seed), {}).get(workload, {})
    return by_job, "" if by_job else f"no goldens for seed {seed}"


# ---------------------------------------------------------------------------
# one workload


def result_path(workload: str, seed: int, trace: int, blas_threads: int, smoke: bool) -> Path:
    tag = "_smoke" if smoke else ""
    return OUT / "results" / f"{workload}_seed{seed}_trace{trace}_blas{blas_threads}{tag}.json"


def _child_argv(workload: str, seed: int, blas_threads: int, smoke: bool, *extra: str) -> list[str]:
    argv = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
            "--blas-threads", str(blas_threads), *extra]
    return argv + (["--smoke"] if smoke else [])


def measure_setup(args, run_dir: Path) -> tuple[list[float], Path]:
    """Cold set-up, repeated: a fresh interpreter imports robustae and the
    shared builders and writes the workload's inputs. Returns the seconds
    of each repetition and the inputs of the last one."""
    samples = []
    for rep in range(SETUP_REPS):
        inputs = run_dir / f"setup{rep}"
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
        # which would quantize the measurement
        code = subprocess.Popen(_child_argv(args.workload, args.seed, args.blas_threads,
                                            args.smoke, "--prepare", str(inputs)), cwd=ROOT).wait()
        samples.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up of {args.workload} exited {code}")
    return samples, inputs


def _run_op(work: workloads.Workload, job: str) -> dict:
    faults = spans.minor_faults()
    t0 = time.perf_counter()
    try:
        output = work.run(job)
    except Exception as exc:  # an op that raises counts as failed
        output = exc
    rec = {"seconds": time.perf_counter() - t0, "minor_faults": spans.minor_faults() - faults}
    if isinstance(output, Exception):
        return {**rec, "problems": [f"raised {type(output).__name__}: {output}"]}
    try:
        return {**rec, **work.check(job, output)}
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return {**rec, "problems": [f"unreadable output: {exc}"]}


def run_workload(args) -> dict:
    env = env_stamp()
    run_dir = OUT / f"run{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_samples, inputs = measure_setup(args, run_dir)
        work = workloads.Workload(args.workload, args.seed, args.smoke, inputs, run_dir / "ops")
        records = []
        tracers = []
        start = time.perf_counter()
        cycle = 0
        while True:
            for i, job in enumerate(work.jobs):
                # alternate per op, shifted each cycle, so that every job is
                # traced and untraced in turn and slow drift of the machine
                # affects both sides alike
                traced = bool(args.trace) and (i + cycle) % 2 == 1
                if traced:
                    tracer = spans.Tracer()
                    with tracer.installed():
                        rec = _run_op(work, job)
                    tracers.append(tracer)
                else:
                    rec = _run_op(work, job)
                records.append({"job": job, "cycle": cycle, "traced": traced, **rec})
            cycle += 1
            if time.perf_counter() - start >= args.seconds and (not args.trace or cycle >= 2):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    goldens, unchecked_reason = _goldens_for(args.workload, args.seed, args.smoke, env)
    _judge(records, goldens)
    failed = sum(1 for r in records if r["problems"])
    metrics = (_layer_metrics(records, tracers) if args.trace
               else _end_to_end(records, setup_samples))
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "env": env, "setup_s_samples": setup_samples, "n_ops": len(records),
        "goldens": "checked" if goldens else f"unchecked: {unchecked_reason}",
        "digests": {r["job"]: r.get("digest") for r in records},
        "metrics": metrics, "ops": records,
    }
    path = result_path(args.workload, args.seed, args.trace, args.blas_threads, args.smoke)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(detail, indent=1) + "\n")
    _print_table(args, metrics, failed, len(records), detail["goldens"], path)
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def _judge(records: list[dict], goldens: dict) -> None:
    """Compare each op's digest to the golden one, else to the job's first op."""
    first: dict[str, str] = {}
    for r in records:
        d = r.get("digest")
        if d is None:
            continue
        expected = goldens.get(r["job"])
        if expected is not None:
            r["golden"] = "match" if d == expected else "mismatch"
            if d != expected:
                r["problems"].append("digest differs from the golden digest")
        else:
            r["golden"] = "unchecked"
        if first.setdefault(r["job"], d) != d:
            r["problems"].append("digest differs from an earlier op of the same job")


# ---------------------------------------------------------------------------
# metrics


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _end_to_end(records: list[dict], setup_samples: list[float]) -> dict:
    secs = [r["seconds"] for r in records]
    per_job = {}
    for r in records:
        per_job.setdefault(r["job"], []).append(r["seconds"])
    # geometric mean over jobs of each job's median: the jobs of one workload
    # differ in size, so a plain median over all ops would sit on a boundary
    # between jobs and jump between runs
    p50 = float(np.exp(np.mean([np.log(statistics.median(v)) for v in per_job.values()])))
    aucs = [r["pr_auc"] for r in records if "pr_auc" in r]
    return {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "ops_per_s": _metric(len(secs) / sum(secs), "1/s"),
        "op_s.p50": _metric(p50, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pr_auc.p50": _metric(statistics.median(aucs) if aucs else 0.0, "ratio"),
    }


def _job_mean(records: list[dict], value) -> float:
    """Mean over jobs of each job's mean, so the job mix of a run does not
    bias the figure."""
    by_job: dict[str, list[float]] = {}
    for r in records:
        by_job.setdefault(r["job"], []).append(value(r))
    return statistics.mean(statistics.mean(v) for v in by_job.values()) if by_job else 0.0


def _op_layer_figures(summary: dict, seconds: float) -> dict:
    """Per-layer figures of one traced op, as (value, unit)."""
    out = {}
    for name, rec in summary["spans"].items():
        out[f"{name}.calls"] = (rec["calls"], "count")
        out[f"{name}.busy_s"] = (rec["busy_s"], "s")
        out[f"{name}.self_s"] = (rec["self_s"], "s")
    for layer, own in summary["layer_self_s"].items():
        out[f"{layer}.self_s"] = (own, "s")
        out[f"{layer}.share"] = (own / seconds, "ratio")
        out[f"{layer}.minor_faults"] = (summary["layer_minor_faults"][layer], "count")
    ssa_busy = summary["spans"]["explain.es_ssa"]["busy_s"]
    hankel_in_ssa = summary["es_ssa_child_self_s"]["hankel"]
    svd = summary["spans"]["linalg.svd"]["busy_s"]
    out["explain.es_ssa.hankel_share"] = (hankel_in_ssa / ssa_busy if ssa_busy else 0.0, "ratio")
    out["explain.es_ssa.svd_share"] = (svd / ssa_busy if ssa_busy else 0.0, "ratio")
    counters = summary["counters"]
    # computed from shapes at the span boundaries, not measured
    out["nn.gflop"] = (counters.get("nn.flop", 0) / 1e9, "GFLOP")
    out["nn.mb_moved"] = (counters.get("nn.bytes", 0) / 1e6, "MB")
    out["hankel.mb_moved"] = (counters.get("hankel.bytes", 0) / 1e6, "MB")
    out["linalg.svd.gflop"] = (counters.get("linalg.svd.flop", 0) / 1e9, "GFLOP")
    out["data.mb_read"] = (counters.get("data.bytes_read", 0) / 1e6, "MB")
    out["data.mb_written"] = (counters.get("data.bytes_written", 0) / 1e6, "MB")
    out["trace.spans_per_op"] = (summary["n_spans"], "count")
    return out


def _layer_metrics(records: list[dict], tracers: list[spans.Tracer]) -> dict:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    figures = [_op_layer_figures(t.summary(), r["seconds"]) for r, t in zip(traced, tracers)]
    units = {name: unit for name, (_, unit) in figures[0].items()}
    for r, fig in zip(traced, figures):
        r["layers"] = {name: value for name, (value, _) in fig.items()}
    out = {name: _metric(_job_mean(traced, lambda r: r["layers"][name]), unit)
           for name, unit in units.items()}
    out["op.minor_faults"] = _metric(_job_mean(plain, lambda r: r["minor_faults"]), "count")
    trainer_ops = [r for r in records if "iterations_run" in r]
    out["decompose.outer_iters"] = _metric(_job_mean(trainer_ops, lambda r: r["iterations_run"]), "count")
    out["decompose.cap_hit_ratio"] = _metric(_job_mean(trainer_ops, lambda r: r["cap_hit"]), "ratio")
    out["decompose.loss_trace_len"] = _metric(_job_mean(trainer_ops, lambda r: r["loss_trace_len"]), "count")
    untraced_rate = 1.0 / _job_mean(plain, lambda r: r["seconds"])
    traced_rate = 1.0 / _job_mean(traced, lambda r: r["seconds"])
    out["trace.ops_per_s_untraced"] = _metric(untraced_rate, "1/s")
    out["trace.ops_per_s_traced"] = _metric(traced_rate, "1/s")
    out["trace.overhead_ratio"] = _metric(untraced_rate / traced_rate - 1.0, "ratio")
    return out


def _print_table(args, metrics: dict, failed: int, attempted: int, goldens: str, path: Path):
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"ops={attempted} failed={failed} goldens={goldens}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  result file: {path.relative_to(ROOT)}")


# ---------------------------------------------------------------------------
# multi-run modes


def _child_result(argv: list[str]) -> tuple[dict, str]:
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def run_all(args) -> int:
    summary = {}
    for workload in WORKLOADS:
        argv = _child_argv(workload, args.seed, args.blas_threads, args.smoke,
                           "--seconds", str(args.seconds), "--trace", str(args.trace))
        result, table = _child_result(argv)
        print(table)
        summary[workload] = result
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "workloads": summary,
    }))
    return 0


def _one_cycle_digests(workload: str, seed: int, blas_threads: int, smoke: bool) -> tuple[dict, bool]:
    """Digest by job of one cycle in a child process, and whether it was correct."""
    result, _ = _child_result(
        _child_argv(workload, seed, blas_threads, smoke, "--seconds", "0", "--trace", "0"))
    path = result_path(workload, seed, 0, blas_threads, smoke)
    return json.loads(path.read_text())["digests"], result["correct"]


def check_threads(seed: int, smoke: bool) -> int:
    """Each trainer's digest must not depend on the BLAS thread count."""
    ok = True
    for workload in TRAINER_WORKLOADS:
        one, _ = _one_cycle_digests(workload, seed, 1, smoke)
        two, _ = _one_cycle_digests(workload, seed, 2, smoke)
        for job in workloads.JOBS[workload]:
            same = one[job] == two[job] and one[job] is not None
            ok &= same
            print(f"{workload:<12} {job:<10} 1 thread {str(one[job])[:16]}  "
                  f"2 threads {str(two[job])[:16]}  {'equal' if same else 'DIFFERENT'}")
    print(json.dumps({"blas_thread_invariant": ok}))
    return 0 if ok else 1


def record_goldens(seeds: list[int]) -> int:
    """Rewrite goldens.json with one cycle's digests per seed and workload.

    Every op must pass its checks, the existing goldens included: after a
    deliberate change of outputs, delete goldens.json first.
    """
    doc = {"env": _golden_key(env_stamp()), "seeds": {}}
    for seed in seeds:
        doc["seeds"][str(seed)] = {}
        for workload in WORKLOADS:
            digests, correct = _one_cycle_digests(workload, seed, 1, False)
            if not correct:
                sys.stderr.write(f"error: {workload} seed {seed} failed its checks; nothing written\n")
                return 1
            doc["seeds"][str(seed)][workload] = digests
        print(f"seed {seed}: recorded", flush=True)
    GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0
