"""Command-line interface.

Commands: ``synth`` (labeled synthetic series), ``train`` (decompose a CSV
series and score it), ``eval`` (PR/ROC AUC from a scores+labels CSV),
``explain`` (explainability scan of a decomposition's clean series),
``sweep`` (random hyperparameter search reporting the median result), and
``replay`` (re-run a recorded manifest).

Every command is one request, ``{command, config, seed, inputs, outputs}``.
The command line builds it, or ``replay`` reads it from a manifest; either
way ``_execute`` runs it and writes its manifest next to the outputs, with
the fully resolved configuration and seed, so replaying the manifest
reproduces the outputs byte for byte. Exit codes follow the error
hierarchy: 0 success, 3 numerical failure, 4 I/O error (OSError,
IntegrityError, UpgradeError), 2 any other library error (usage/config).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    SynthConfig,
    generate_synthetic,
    load_csv,
    load_decomposition,
    load_scores,
    save_csv,
    save_decomposition,
    save_model,
    write_columns,
    znormalize,
)
from .decompose import (
    RaeConfig,
    RdaeConfig,
    TRAIN_METHODS,
    outlier_scores,
    train,
)
from .errors import (
    ConfigError,
    InputError,
    IntegrityError,
    NumericalError,
    ParameterError,
    RobustAEError,
    UpgradeError,
    require_int,
    require_positive,
)
from .explain import DEFAULT_NMAX, es_prm, es_ssa
from .metrics import evaluate
from .nn import AutoencoderConfig

OUT_DIR_ENV = "ROBUSTAE_OUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _load_object(path) -> dict:
    """A config file or manifest: a JSON object whose ``seed``, if set, is an integer >= 0."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not UTF-8") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level JSON object expected")
    if doc.get("seed") is not None:
        try:
            require_int(doc["seed"], "'seed'", 0)
        except ParameterError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return doc


def _read_json(path) -> dict:
    try:
        return _load_object(path)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".manifest.json")


def _with_seed(doc: dict, seed: int | None) -> dict:
    """``doc`` with the seed a run uses: the override ``seed`` if given, else
    the document's own, where a missing or null seed means 0."""
    if seed is None:
        seed = doc.get("seed")
    return {**doc, "seed": 0 if seed is None else require_int(seed, "seed", 0)}


def _build_train_config(method: str, doc: dict, seed: int | None = None):
    """The trainer config a JSON object describes, run under ``seed`` as
    ``_with_seed`` resolves it."""
    series = method in ("rae", "nrae")
    if not isinstance(doc, dict):
        raise ConfigError(f"{method} config must be a JSON object")
    doc = _with_seed(doc, seed)
    try:
        nets = {
            key: AutoencoderConfig(**doc[key])
            for key in (("ae",) if series else ("f1", "inner_ae", "f2"))
            if doc.get(key) is not None
        }
    except (TypeError, ParameterError) as exc:
        raise ConfigError(f"bad network config: {exc}") from None
    try:
        return (RaeConfig if series else RdaeConfig)(**{**doc, **nets})
    except (TypeError, ParameterError) as exc:
        raise ConfigError(f"bad {'rae' if series else 'rdae'} config: {exc}") from None


# ---------------------------------------------------------------------------
# commands: each takes (config, seed, inputs, outputs, out_dir, verbose), with
# inputs and outputs as paths, and returns (result, manifest path or None, the
# manifest fields it resolved)


def _synth(config, seed, inputs, outputs, out_dir, verbose):
    # a bad --seed is the flag's error, not the config file's
    config = _with_seed(config, seed)
    try:
        cfg = SynthConfig(**config)
        ts = generate_synthetic(cfg)
    except (TypeError, ParameterError) as exc:
        raise ConfigError(f"bad synth config: {exc}") from None
    out_csv = outputs["csv"]
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    save_csv(ts, out_csv)
    manifest = _sidecar(out_csv)
    result = {"csv": str(out_csv), "manifest": str(manifest)}
    return result, manifest, {"config": asdict(cfg), "seed": cfg.seed}


def _train(config, seed, inputs, outputs, out_dir, verbose):
    method = config["method"]
    if method not in TRAIN_METHODS:
        raise ConfigError(f"method must be one of {TRAIN_METHODS}, got {method!r}")
    ts = load_csv(inputs["csv"])
    cfg = _build_train_config(method, config["train"], seed)
    decomposition = train(ts, method, cfg, verbose=verbose)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {"decomposition": "decomposition.csv", "scores": "scores.csv",
             "loss_trace": "loss_trace.csv"}
    save_decomposition(decomposition, out_dir / files["decomposition"])
    scores, losses = outlier_scores(decomposition), decomposition.loss_trace
    write_columns(out_dir / files["scores"], ["t", "score"], [range(len(scores)), scores],
                  ts.labels)
    write_columns(out_dir / files["loss_trace"], ["iteration", "loss"],
                  [range(1, len(losses) + 1), losses])
    for role, model in decomposition.models.items():
        name = "model.json" if role == "ae" else f"model_{role}.json"
        save_model(model, out_dir / name)
        files[f"model:{role}"] = name
    if verbose:
        c1, c2 = decomposition.final_residuals
        sys.stderr.write(
            f"[train] method={method} iterations={decomposition.iterations_run} "
            f"cond1={c1:.3e} cond2={c2:.3e}\n"
        )
    record = {"config": {"method": method, "train": asdict(cfg)}, "seed": cfg.seed,
              "outputs": files}
    return {"out_dir": str(out_dir), **files}, out_dir / "manifest.json", record


def _report(doc: dict, config: dict, outputs: dict):
    """Write an eval or explain result to its JSON file, if the request names one."""
    out_file = outputs.get("json")
    if out_file is None:
        return doc, None, None
    out_file.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out_file, doc)
    return doc, _sidecar(out_file), {"config": config, "seed": 0}


def _eval(config, seed, inputs, outputs, out_dir, verbose):
    result = evaluate(*load_scores(inputs["csv"]))
    return _report(asdict(result), {}, outputs)


def _explain(config, seed, inputs, outputs, out_dir, verbose):
    method = config["method"]
    if method not in ("prm", "ssa"):
        raise ConfigError(f"explain method must be 'prm' or 'ssa', got {method!r}")
    config = {
        "method": method,
        "gamma": config["gamma"],
        "n_max": config["n_max"],
        "window_len": config.get("window_len"),
        "normalize": config.get("normalize", False),
    }
    clean, _, _ = load_decomposition(inputs["csv"])
    if config["normalize"]:
        clean, _ = znormalize(clean)
    if method == "prm":
        result = es_prm(clean, config["gamma"], config["n_max"])
    else:
        result = es_ssa(clean, config["gamma"], config["n_max"], config["window_len"])
    return _report(result.to_dict(), config, outputs)


def _dims_from_shape(depth: int, width: int, input_dim: int) -> tuple[int, ...]:
    depth, width = require_int(depth, "depth"), require_int(width, "width")
    bottleneck = max(2, min(width // 4, input_dim - 1))
    if depth <= 1:
        return (bottleneck,)
    half = depth // 2
    return tuple([width] * half + [bottleneck] + [width] * half)


def _sampled_config(method: str, base: dict, pick: dict, input_dims: int, seed: int):
    """One sweep run's trainer config: ``base`` with the picked grid values."""
    series = method in ("rae", "nrae")
    doc = dict(base, seed=seed)
    for key, value in pick.items():
        if key == "lam":
            doc.update(dict.fromkeys(("lam",) if series else ("lam1", "lam2"), value))
        elif key not in ("depth", "width"):
            doc[key] = value
    block = "ae" if series else "f2"
    net = {} if doc.get(block) is None else doc[block]
    # base's other fields stay; a block that is not an object fails in the build
    if "depth" in pick and isinstance(net, dict):
        window_len = doc.get("window_len", (RaeConfig if series else RdaeConfig).window_len)
        input_dim = require_int(window_len, "window_len") * input_dims
        doc[block] = {
            **net,
            "input_dim": input_dim,
            "layer_dims": _dims_from_shape(pick["depth"], pick["width"], input_dim),
            "seed": seed,
        }
    return _build_train_config(method, doc)


def _sweep(config, seed, inputs, outputs, out_dir, verbose):
    # --n-random is a flag, so a value below 1 is not the config file's error
    n_random = require_int(config["n_random"], "n_random", 1)
    method = config.get("method", "rae")
    if method not in TRAIN_METHODS:
        raise ConfigError(f"sweep method must be one of {TRAIN_METHODS}")
    grid = config.get("grid")
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("sweep config needs a nonempty 'grid' object")
    not_lists = sorted(k for k, v in grid.items() if not isinstance(v, list) or not v)
    if not_lists:
        raise ConfigError(f"sweep grid entries must be nonempty lists: {', '.join(not_lists)}")
    series = method in ("rae", "nrae")
    fields = (RaeConfig if series else RdaeConfig).__dataclass_fields__
    refused = sorted(set(grid) - ({"lam", "depth", "width", *fields} - {"seed"}))
    if refused:
        raise ConfigError(f"sweep grid keys must be lam, depth, width or {method} config "
                          f"fields other than seed, got {', '.join(refused)}")
    if ("depth" in grid) != ("width" in grid):
        raise ConfigError("sweep grid needs 'depth' and 'width' together")
    # the fields each shorthand writes in _sampled_config; drawing one of them
    # too would list a value that the run did not train with
    block = ("ae",) if series else ("f2",)
    written = {"lam": () if series else ("lam1", "lam2"), "depth": block, "width": block}
    twice = [f"{short} and {key}" for short, keys in written.items() if short in grid
             for key in keys if key in grid]
    if twice:
        raise ConfigError("sweep grid sets a config field both directly and through a "
                          f"shorthand: {', '.join(twice)}")
    base = config.get("base", {})
    if not isinstance(base, dict):
        raise ConfigError("sweep 'base' must be a JSON object")
    master_seed = _with_seed(config, seed)["seed"]
    ts = load_csv(inputs["csv"])
    if ts.labels is None:
        raise InputError(f"{inputs['csv']}: sweep needs a labeled series")
    rng = np.random.default_rng(master_seed)
    run_seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=n_random)]
    grid_keys = sorted(grid)
    rows = []
    for i in range(n_random):
        pick = {k: grid[k][int(rng.integers(0, len(grid[k])))] for k in grid_keys}
        row = {"index": i, "params": pick}
        try:
            cfg = _sampled_config(method, base, pick, ts.dims, run_seeds[i])
            decomposition = train(ts, method, cfg)
            result = evaluate(outlier_scores(decomposition), ts.labels)
            row.update(pr_auc=result.pr_auc, roc_auc=result.roc_auc, status="ok")
        except (RobustAEError, ValueError) as exc:
            row.update(pr_auc="", roc_auc="", status=f"failed: {exc}")
        rows.append(row)
    ok_rows = sorted((r for r in rows if r["status"] == "ok"), key=lambda r: r["pr_auc"])
    median_row = ok_rows[(len(ok_rows) - 1) // 2] if ok_rows else None
    out_csv = outputs["table"]
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    write_columns(
        out_csv,
        ["index", "params", "pr_auc", "roc_auc", "status", "is_median"],
        zip(*([r["index"], json.dumps(r["params"], sort_keys=True), r["pr_auc"], r["roc_auc"],
               r["status"], int(r is median_row)] for r in rows)),
    )
    summary = {
        "table": str(out_csv),
        "n_ok": len(ok_rows),
        "n_failed": len(rows) - len(ok_rows),
    }
    if median_row is not None:
        summary["median"] = {k: median_row[k] for k in ("params", "pr_auc", "roc_auc")}
    config = {"method": method, "base": base, "grid": grid, "n_random": n_random}
    return summary, _sidecar(out_csv), {"config": config, "seed": master_seed}


# name -> (command, the "field.key" entries a manifest of it must hold)
_COMMANDS = {
    "synth": (_synth, ["outputs.csv"]),
    "train": (_train, ["config.method", "config.train", "inputs.csv"]),
    "eval": (_eval, ["inputs.csv"]),
    "explain": (_explain, ["config.method", "config.gamma", "config.n_max", "inputs.csv"]),
    "sweep": (_sweep, ["config.method", "config.base", "config.grid", "config.n_random",
                       "inputs.csv", "outputs.table"]),
}


def _execute(request: dict, out_dir: Path, verbose: bool) -> dict:
    """Run one request and write its manifest; command-line runs and replays both land here.

    Inputs are paths of their own; outputs resolve under ``out_dir``. A
    ConfigError the command raises names the file the config was read from,
    the request's ``source``, if it has one.
    """
    started = time.time()
    inputs = {key: Path(value) for key, value in request["inputs"].items()}
    outputs = {key: out_dir / value for key, value in request["outputs"].items()}
    run = _COMMANDS[request["command"]][0]
    try:
        result, manifest, record = run(
            request["config"], request["seed"], inputs, outputs, out_dir, verbose
        )
    except ConfigError as exc:
        if request["source"] is None:
            raise
        raise ConfigError(f"{request['source']}: {exc}") from None
    if manifest is not None:
        doc = {
            "command": request["command"],
            "inputs": {key: str(path) for key, path in inputs.items()},
            "outputs": {key: path.name for key, path in outputs.items()},
            **record,
            "duration_seconds": time.time() - started,
            "library_version": __version__,
        }
        _write_json(manifest, doc)
    return result


def _read_manifest(path: Path) -> dict:
    """The request a manifest records, checked to hold every field its command reads."""
    doc = _load_object(path)
    command = doc.get("command")
    if command not in _COMMANDS:
        raise ConfigError(f"{path}: manifest command {command!r} cannot be replayed")
    request = {"command": command, "seed": doc.get("seed"), "source": str(path)}
    for field in ("config", "inputs", "outputs"):
        request[field] = doc.get(field, {})
        if not isinstance(request[field], dict):
            raise ConfigError(f"{path}: '{field}' must be a JSON object")
    for field in ("inputs", "outputs"):
        if not all(isinstance(v, str) for v in request[field].values()):
            raise ConfigError(f"{path}: '{field}' values must be strings")
    # a run records each output by its bare name, which the replay puts under --out-dir
    for name in request["outputs"].values():
        if name in ("", "..") or Path(name).name != name:
            raise ConfigError(f"{path}: output {name!r} is not a bare file name")
    fields = [name.split(".") for name in _COMMANDS[command][1]]
    missing = [".".join(f) for f in fields if f[1] not in request[f[0]]]
    if missing:
        raise ConfigError(f"{path}: {command} manifest lacks {', '.join(missing)}")
    # the command line types these with argparse; a manifest may hold any JSON value,
    # and one that a conversion changes (true, 4.0 or "4" for an integer, "0.1" for
    # a number) would run, and be re-recorded, as another value
    config = request["config"]
    try:
        for key, low in (("n_max", 1), ("n_random", 1), ("window_len", None)):
            if key in config and (key != "window_len" or config[key] is not None):
                require_int(config[key], f"config.{key}", low)
        # json reads Infinity and 1e400 as inf, which a run would record as Infinity,
        # not JSON
        if "gamma" in config:
            require_positive(config["gamma"], "config.gamma")
    except (ParameterError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    # bool() would run "false", 0 or null as another flag than the one recorded
    if not isinstance(normalize := config.get("normalize", False), bool):
        raise ConfigError(f"{path}: config.normalize must be true or false, got {normalize!r}")
    return request


def _request(args) -> tuple[dict, Path]:
    """The request a command line describes, and the directory its outputs go under."""
    out_dir = Path(args.out_dir or os.environ.get(OUT_DIR_ENV, "."))
    if args.command == "replay":
        return _read_manifest(Path(args.manifest)), out_dir
    request = {"command": args.command, "seed": args.seed, "config": {}, "inputs": {},
               "outputs": {}, "source": args.config}
    if args.command == "synth":
        request.update(config=_read_json(args.config), outputs={"csv": args.out})
        return request, out_dir
    request["inputs"]["csv"] = args.input
    if args.command == "train":
        request["config"] = {"method": args.method, "train": _read_json(args.config)}
    elif args.command == "sweep":
        request["config"] = {**_read_json(args.config), "n_random": args.n_random}
        request["outputs"]["table"] = args.out
    elif args.out:
        request["outputs"]["json"] = args.out
    if args.command == "explain":
        request["config"] = {
            "method": args.method,
            "gamma": args.gamma,
            "n_max": args.nmax,
            "window_len": args.window,
            "normalize": args.normalize,
        }
    return request, out_dir


# ---------------------------------------------------------------------------


@functools.cache  # main may run many times in one process; build the parser once
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustae",
        description="Robust series decomposition, outlier scoring, and explainability.",
    )
    parser.add_argument("--version", action="version", version=f"robustae {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic series")
    p.add_argument("--config", required=True, help="SynthConfig JSON")
    p.add_argument("--out", default="synthetic.csv", help="output CSV (under --out-dir)")

    p = sub.add_parser("train", help="decompose a series and score outliers")
    p.add_argument("--method", required=True, choices=TRAIN_METHODS)
    p.add_argument("--input", required=True, help="input series CSV")
    p.add_argument("--config", required=True, help="trainer config JSON")

    p = sub.add_parser("eval", help="PR/ROC AUC from a scores CSV with labels")
    p.add_argument("--input", required=True, help="CSV with 'score' and 'label' columns")
    p.add_argument("--out", default=None, help="optional JSON output file (under --out-dir)")

    p = sub.add_parser("explain", help="explainability scan of a clean series")
    p.add_argument("--input", required=True, help="decomposition CSV")
    p.add_argument("--method", required=True, choices=["prm", "ssa"])
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    p.add_argument("--window", type=int, default=None, help="lagged window for ssa")
    p.add_argument("--normalize", action="store_true", help="z-normalize the clean series first")
    p.add_argument("--out", default=None, help="optional JSON output file (under --out-dir)")

    p = sub.add_parser("sweep", help="random hyperparameter search, median result")
    p.add_argument("--input", required=True, help="labeled series CSV")
    p.add_argument("--config", required=True, help="sweep config JSON (method/base/grid)")
    p.add_argument("--n-random", type=int, required=True)
    p.add_argument("--out", default="sweep.csv", help="results table CSV (under --out-dir)")

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("--manifest", required=True)

    # each command gets only the flags it reads; the rest run with no config
    # file, no seed override and no diagnostics
    parser.set_defaults(config=None, seed=None, verbose=False)
    for name, p in sub.choices.items():
        if name in ("synth", "train", "sweep"):
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name in ("train", "replay"):
            p.add_argument("--verbose", action="store_true", help="per-iteration diagnostics")
        p.add_argument("--out-dir", default=None,
                       help=f"output directory (default ${OUT_DIR_ENV} or '.')")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code) if exc.code else 0
    try:
        result = _execute(*_request(args), args.verbose)
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    # the stored-data errors are library errors too, so they come first
    except (OSError, IntegrityError, UpgradeError) as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except RobustAEError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
