"""Data handling: CSV ingestion, z-normalization, synthetic benchmark
series, and model/decomposition persistence.

CSV schema: header ``t,dim_0,...,dim_{D-1}[,label]``, rows ordered by t,
label in {0,1}. Every CSV file (series, scores, decomposition) is UTF-8,
read with or without a leading byte order mark and written without one,
with as many fields in each row as in its header. It is read whole and
parsed column by column; only a bad file is rescanned row by row, to name
its first bad line. Floats are written as shortest-roundtrip decimals, so a
write/read roundtrip is bit-exact. Model files are JSON with a sha256
checksum over the payload.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    ConfigError,
    FormatError,
    IntegrityError,
    InputError,
    ParameterError,
    ParseError,
    UpgradeError,
    require_int,
    require_real,
)
from .hankel import TimeSeries
from .nn import AutoencoderConfig, AutoencoderModel

__all__ = [
    "NormalizationStats",
    "SynthConfig",
    "load_csv",
    "save_csv",
    "load_scores",
    "znormalize",
    "denormalize",
    "generate_synthetic",
    "save_model",
    "load_model",
    "save_decomposition",
    "load_decomposition",
]

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class NormalizationStats:
    """Per-dimension mean/std used to z-normalize a series.

    Constant dimensions get std clamped to 1.
    """

    mean: np.ndarray
    std: np.ndarray


def znormalize(ts: TimeSeries) -> tuple[TimeSeries, NormalizationStats]:
    """Per-dimension zero mean, unit sample variance.

    Raises InputError when the values are finite but so large that their
    mean or standard deviation overflows.
    """
    if ts.length < 2:
        raise InputError("z-normalization needs at least 2 observations")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = ts.values.mean(axis=0)
        std = ts.values.std(axis=0, ddof=1)
    # TimeSeries values are finite, so a non-finite statistic is an overflow
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
        raise InputError(
            f"series values up to {np.max(np.abs(ts.values)):.3g} in magnitude are "
            "too large to z-normalize: their mean or standard deviation overflows"
        )
    std = np.where(std <= 0.0, 1.0, std)
    out = (ts.values - mean) / std
    return TimeSeries(out, labels=ts.labels), NormalizationStats(mean, std)


def denormalize(ts: TimeSeries, stats: NormalizationStats) -> TimeSeries:
    """Inverse of :func:`znormalize`."""
    return TimeSeries(ts.values * stats.std + stats.mean, labels=ts.labels)


# ---------------------------------------------------------------------------
# CSV files: every one is read whole through _read_csv and _columns and written
# through write_columns


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    """The stripped header of a CSV file and all its rows, header and blank
    rows included, so row i sits on line i + 1.

    Raises ParseError for an empty file and a file that is not UTF-8.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 (byte 0x{exc.object[exc.start]:02x})") from None
    if not rows:
        raise ParseError(f"{path}: empty file")
    return [h.strip() for h in rows[0]], rows


def _columns(path, rows, cols, label=None, increasing=False, finite=()):
    """The float arrays of columns ``cols`` over the non-blank data rows, and
    the 0/1 column ``label`` as bools (None without one).

    Raises for a file without data rows, and for the earliest row whose field
    count differs from the header's, with a non-numeric value in ``cols``, a
    non-finite one in a column of ``finite``, a label other than 0/1, or, with
    ``increasing``, a first column that is NaN or not above the previous row's.
    """
    data = [row for row in rows[1:] if row]
    if not data:
        raise ParseError(f"{path}: no data rows")
    try:
        # each column starts with its header cell: the strict zip checks field counts
        fields = [column[1:] for column in zip(rows[0], *data, strict=True)]
        values = [np.array(list(map(float, fields[c]))) for c in cols]
        tags = None if label is None else [tag.strip() for tag in fields[label]]
        first = values[0]  # a NaN compares false either way, so it is checked apart
        unordered = increasing and (np.isnan(first).any() or np.any(first[1:] <= first[:-1]))
        infinite = any(not np.isfinite(v).all() for c, v in zip(cols, values) if c in finite)
        if set(tags or ()) - {"0", "1"} or unordered or infinite:
            raise ValueError
    except ValueError:
        raise _first_bad_row(path, rows, cols, label, increasing, finite) from None
    return values, None if tags is None else np.array([tag == "1" for tag in tags], dtype=bool)


def _first_bad_row(path, rows, cols, label, increasing, finite):
    """The error :func:`_columns` raises, found by checking row by row."""
    prev = None
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(rows[0]):
            return ParseError(f"{path}:{lineno}: expected {len(rows[0])} fields, got {len(row)}")
        try:
            first = [float(row[c]) for c in cols][0]
        except ValueError as exc:
            return ParseError(f"{path}:{lineno}: non-numeric value ({exc})")
        bad = [c for c in finite if not math.isfinite(float(row[c]))]
        if bad:
            return ParseError(f"{path}:{lineno}: {rows[0][bad[0]].strip()} must be finite, "
                              f"got {row[bad[0]].strip()!r}")
        tag = "0" if label is None else row[label].strip()
        if tag not in ("0", "1"):
            return ParseError(f"{path}:{lineno}: label must be 0 or 1, got {tag!r}")
        if increasing and (math.isnan(first) or (prev is not None and first <= prev)):
            return FormatError(f"{path}:{lineno}: t not strictly increasing")
        prev = first


def write_columns(path, header: list[str], columns, labels=None) -> None:
    """Write a CSV file: ``header``, then the rows of ``columns``, one
    equal-length sequence per header field.

    A float cell is written as its shortest round-trip decimal, so reading it
    back is bit-exact; any other cell as ``str``. With ``labels``, one bool
    per row, a last column ``label`` of 0/1 is added.
    """
    if labels is not None:
        header, columns = header + ["label"], [*columns, np.asarray(labels, dtype=int)]
    # lazy cells: each row's strings are made as the writer takes the row
    cells = [(repr(float(c)) if isinstance(c, float) else c
              for c in (col.tolist() if isinstance(col, np.ndarray) else col)) for col in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def load_csv(path) -> TimeSeries:
    """Read a series from the documented CSV schema."""
    header, rows = _read_csv(path)
    has_label = header[-1:] == ["label"]
    dims = len(header) - 1 - has_label
    if dims < 1 or header[: dims + 1] != ["t"] + [f"dim_{d}" for d in range(dims)]:
        raise FormatError(
            f"{path}: header must be t,dim_0,..,dim_<D-1>[,label], got {','.join(header)!r}"
        )
    (t, *values), labels = _columns(path, rows, range(dims + 1), dims + 1 if has_label else None,
                                    increasing=True, finite=range(1, dims + 1))
    return TimeSeries(np.column_stack(values), labels=labels)


def save_csv(ts: TimeSeries, path) -> None:
    """Write a series in the documented CSV schema."""
    header = ["t"] + [f"dim_{d}" for d in range(ts.dims)]
    write_columns(path, header, [range(ts.length), *ts.values.T], ts.labels)


def load_scores(path) -> tuple[np.ndarray, np.ndarray]:
    """Read (scores, labels) from a CSV with ``score`` and ``label`` columns."""
    header, rows = _read_csv(path)
    try:
        score, label = header.index("score"), header.index("label")
    except ValueError:
        raise FormatError(f"{path}: needs 'score' and 'label' columns") from None
    (scores,), labels = _columns(path, rows, [score], label)
    return scores, labels


# ---------------------------------------------------------------------------
# Synthetic benchmark series


@dataclass(frozen=True)
class SynthConfig:
    """Recipe for a labeled synthetic series with injected outliers.

    ``outlier_magnitude`` is expressed in units of the clean series'
    standard deviation. Point outliers are spikes; collective outliers are
    level-shifted blocks of ``collective_run_length`` (the last maybe
    shorter), one sign per block and at least one clean step between blocks.
    A collective config whose blocks and steps do not fit in ``length`` is
    refused.
    """

    kind: str = "sinusoid_mix"
    length: int = 2000
    dims: int = 1
    outlier_ratio: float = 0.05
    outlier_magnitude: float = 5.0
    outlier_kind: str = "point"
    collective_run_length: int = 10
    ar_coefficients: tuple[float, ...] = (0.6,)
    frequencies: tuple[float, ...] = (0.02,)
    amplitudes: tuple[float, ...] = (1.0,)
    noise_std: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name, low in (("length", 2), ("dims", 1), ("collective_run_length", 1), ("seed", 0)):
            object.__setattr__(self, name, require_int(getattr(self, name), name, low))
        for name in ("ar_coefficients", "frequencies", "amplitudes"):
            entries = [require_real(x, f"{name}[{i}]") for i, x in enumerate(getattr(self, name))]
            object.__setattr__(self, name, tuple(entries))
        if self.kind not in ("ar_process", "sinusoid_mix"):
            raise ConfigError(f"unknown kind {self.kind!r}")
        if self.outlier_kind not in ("point", "collective"):
            raise ConfigError(f"unknown outlier_kind {self.outlier_kind!r}")
        if not 0.0 < require_real(self.outlier_ratio, "outlier_ratio") < 1.0:
            raise ConfigError(f"outlier_ratio must be in (0,1), got {self.outlier_ratio}")
        budget = int(self.outlier_ratio * self.length)
        if budget < 1:
            raise ConfigError("outlier_ratio * length must be at least 1")
        blocks = -(-budget // self.collective_run_length)
        if self.outlier_kind == "collective" and budget + blocks - 1 > self.length:
            raise ConfigError(
                f"outlier_ratio {self.outlier_ratio} and collective_run_length "
                f"{self.collective_run_length} need {budget + blocks - 1} steps ({budget} "
                f"outliers in {blocks} blocks, one clean step between blocks), but length "
                f"is {self.length}"
            )
        require_real(self.outlier_magnitude, "outlier_magnitude", 0)
        require_real(self.noise_std, "noise_std", 0)
        if self.kind == "ar_process":
            _check_stationary(self.ar_coefficients)
        if self.kind == "sinusoid_mix" and len(self.frequencies) != len(self.amplitudes):
            raise ConfigError("frequencies and amplitudes must have equal length")


def _check_stationary(coeffs: tuple[float, ...]) -> None:
    if not coeffs:
        raise ConfigError("ar_coefficients must be nonempty")
    # roots of 1 - a1 z - ... - ap z^p must lie outside the unit circle
    poly = [-c for c in reversed(coeffs)] + [1.0]
    roots = np.roots(poly)
    if np.any(np.abs(roots) <= 1.0 + 1e-12):
        raise ConfigError(
            f"AR coefficients {coeffs} do not define a stationary process"
        )


def _base_signal(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    c, d = cfg.length, cfg.dims
    if cfg.kind == "ar_process":
        p = len(cfg.ar_coefficients)
        burn = 200 + 10 * p
        shocks = rng.standard_normal((burn + c, d)) * cfg.noise_std
        x = np.zeros((burn + c, d))
        a = np.array(cfg.ar_coefficients)
        for t in range(p, burn + c):
            x[t] = a @ x[t - p : t][::-1] + shocks[t]
        return x[burn:]
    t = np.arange(c)[:, None]
    base = np.zeros((c, d))
    for freq, amp in zip(cfg.frequencies, cfg.amplitudes):
        phase = rng.uniform(0.0, 2.0 * math.pi, size=d)
        base += amp * np.sin(2.0 * math.pi * freq * t + phase)
    base += rng.standard_normal((c, d)) * cfg.noise_std
    return base


def generate_synthetic(cfg: SynthConfig) -> TimeSeries:
    """Labeled series: clean base plus exactly floor(ratio*length) outliers.

    Deterministic per seed; the injected positions and signs are drawn even
    when the magnitude is zero, so runs differing only in magnitude share
    the same base and labels. Finite fields large enough to overflow the
    series raise ParameterError naming them.
    """
    rng = np.random.default_rng(cfg.seed)
    # an overflow raises ParameterError below, so numpy need not warn of it first
    with np.errstate(over="ignore", invalid="ignore"):
        base = _base_signal(cfg, rng)
        sigma = base.std(axis=0, ddof=1)
    if not np.all(np.isfinite(sigma)):
        fields = "amplitudes or noise_std" if cfg.kind == "sinusoid_mix" else "noise_std"
        raise ParameterError(f"{fields} too large: the base signal's std overflows")
    budget = int(cfg.outlier_ratio * cfg.length)
    if cfg.outlier_kind == "point":
        lengths = np.ones(budget, dtype=int)
        positions = np.sort(rng.choice(cfg.length, size=budget, replace=False))
    else:
        # blocks of the run length, the last one maybe shorter, in random order;
        # block i starts at gaps[i] plus the blocks before it, so sorted distinct
        # gaps leave a clean step between blocks
        run = cfg.collective_run_length
        lengths = rng.permutation(np.minimum(run, budget - np.arange(0, budget, run)))
        gaps = np.sort(rng.choice(cfg.length - budget + 1, size=lengths.size, replace=False))
        positions = np.repeat(gaps, lengths) + np.arange(budget)
    # one sign per block, so a collective block reads as a level shift
    signs = np.where(rng.random((lengths.size, cfg.dims)) < 0.5, -1.0, 1.0)
    signs = np.repeat(signs, lengths, axis=0)
    sigma = np.where(sigma <= 0, 1.0, sigma)
    values = base.copy()
    with np.errstate(over="ignore"):
        values[positions] += signs * cfg.outlier_magnitude * sigma
    if not np.all(np.isfinite(values[positions])):
        raise ParameterError("outlier_magnitude too large: the outliers overflow")
    labels = np.zeros(cfg.length, dtype=bool)
    labels[positions] = True
    return TimeSeries(values, labels=labels)


# ---------------------------------------------------------------------------
# Persistence


def _checksum(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def save_model(model: AutoencoderModel, path) -> None:
    """Write a model as versioned, checksummed JSON."""
    payload = {
        "config": asdict(model.config),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    doc = {**payload, "version": MODEL_FORMAT_VERSION, "checksum": _checksum(payload)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_model(path) -> AutoencoderModel:
    """Read a model back: check version and checksum, build the model of the
    file's config, and write the file's parameters, which must match its layer
    shapes and be finite, into it."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level JSON object expected")
    version = doc.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise UpgradeError(
            f"{path}: format version {version} unsupported "
            f"(this build reads version {MODEL_FORMAT_VERSION})"
        )
    payload = {k: doc.get(k) for k in ("config", "weights", "biases")}
    if _checksum(payload) != doc.get("checksum"):
        raise IntegrityError(f"{path}: checksum mismatch")
    try:
        model = AutoencoderModel(AutoencoderConfig(**payload["config"]))
        views = model.weights + model.biases
        arrays = [np.array(a, dtype=np.float64) for a in payload["weights"] + payload["biases"]]
        got, want = [a.shape for a in arrays], [v.shape for v in views]
        if got != want:
            raise ValueError(f"parameter shapes {got} do not match the config's {want}")
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError("non-finite parameters")
        for view, a in zip(views, arrays):
            view[...] = a
    except (TypeError, ValueError) as exc:  # ParameterError included
        raise FormatError(f"{path}: payload does not build a model ({exc})") from None
    return model


def _decomposition_header(dims: int) -> list[str]:
    clean = [f"clean_{d}" for d in range(dims)]
    return ["t"] + clean + [f"outlier_{d}" for d in range(dims)] + ["score"]


def save_decomposition(decomposition, path) -> None:
    """Write clean/outlier series plus per-observation scores as CSV."""
    from .decompose import outlier_scores  # local import to avoid a cycle

    clean, outlier = decomposition.clean, decomposition.outlier
    write_columns(
        path,
        _decomposition_header(clean.dims),
        [range(clean.length), *clean.values.T, *outlier.values.T, outlier_scores(decomposition)],
    )


def load_decomposition(path) -> tuple[TimeSeries, TimeSeries, np.ndarray]:
    """Read back (clean, outlier, scores) from a decomposition CSV."""
    header, rows = _read_csv(path)
    d = (len(header) - 2) // 2
    if d < 1 or header != _decomposition_header(d):
        raise FormatError(f"{path}: not a decomposition file (t,clean_0..,outlier_0..,score)")
    cols, _ = _columns(path, rows, range(1, 2 * d + 2), finite=range(1, 2 * d + 1))
    return TimeSeries(np.column_stack(cols[:d])), TimeSeries(np.column_stack(cols[d:-1])), cols[-1]
