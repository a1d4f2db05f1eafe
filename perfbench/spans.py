"""In-memory span tracer for the benchmark's traced cycles.

Spans wrap the public functions of each robustae module, patched where the
caller looks them up (``robustae.decompose.soft_threshold``, the methods of
``AutoencoderModel``, ...), so the program itself is unchanged. Patches are
installed only for the duration of a traced cycle. Spans stay in memory and
are reduced to per-layer figures when the run ends.

Counts marked *computed* (FLOPs and bytes) are derived from array shapes at
the span boundary, not measured by hardware counters: FLOPs count the
matmuls (2 per multiply-add) and bytes count each kernel's input and output
arrays once (compulsory traffic, cache misses ignored).
"""

from __future__ import annotations

import os
import resource
import time
from collections import defaultdict
from contextlib import contextmanager

import robustae.cli
import robustae.decompose
import robustae.explain
import robustae.nn


def minor_faults() -> int:
    """Minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


# span name -> module (layer) it is charged to is the prefix before the dot
LAYERS = ("cli", "decompose", "nn", "hankel", "prox", "linalg", "explain", "metrics", "data")


def _nn_dims(model):
    return model.config.all_dims


def _matmuls(n, dims, backward):
    """Computed (flops, bytes) of the forward matmuls, plus the backward ones."""
    flops = 0
    nbytes = 0
    pairs = list(zip(dims[:-1], dims[1:]))
    for a, b in pairs:
        flops += 2 * n * a * b
        nbytes += 8 * (n * a + a * b + n * b)
    if backward:
        for layer, (a, b) in enumerate(pairs):
            # weight gradient activations.T @ delta
            flops += 2 * n * a * b
            nbytes += 8 * (n * a + n * b + a * b)
            if layer > 0:
                # delta propagation delta @ W.T
                flops += 2 * n * a * b
                nbytes += 8 * (n * b + a * b + n * a)
    return flops, nbytes


def _count_train_step(tracer, args, kwargs, result):
    model, batch = args[0], args[1]
    flops, nbytes = _matmuls(len(batch), _nn_dims(model), backward=True)
    tracer.counters["nn.flop"] += flops
    tracer.counters["nn.bytes"] += nbytes


def _count_forward(tracer, args, kwargs, result):
    model, batch = args[0], args[1]
    flops, nbytes = _matmuls(len(batch), _nn_dims(model), backward=False)
    tracer.counters["nn.flop"] += flops
    tracer.counters["nn.bytes"] += nbytes


def _planes_size(obj):
    planes = getattr(obj, "planes", obj)
    return int(getattr(planes, "size", 0))


def _count_embed(tracer, args, kwargs, result):
    tracer.counters["hankel.bytes"] += 8 * (args[0].values.size + result.planes.size)


def _count_hankelize(tracer, args, kwargs, result):
    tracer.counters["hankel.bytes"] += 8 * 2 * _planes_size(args[0])


def _count_to_series(tracer, args, kwargs, result):
    tracer.counters["hankel.bytes"] += 8 * (_planes_size(args[0]) + result.values.size)


def _count_svd(tracer, args, kwargs, result):
    # Golub & Van Loan R-SVD estimate for a thin U, s, V of a q x p matrix
    q, p = sorted(args[0].shape, reverse=True)
    tracer.counters["linalg.svd.flop"] += 6 * q * p * p + 20 * p**3


def _count_read(tracer, args, kwargs, result):
    tracer.counters["data.bytes_read"] += os.path.getsize(args[0])


def _count_write(tracer, args, kwargs, result):
    tracer.counters["data.bytes_written"] += os.path.getsize(args[1])


def _patch_table():
    """(owner, attribute, span name, counter) for every traced boundary."""
    cli = robustae.cli
    dec = robustae.decompose
    exp = robustae.explain
    model = robustae.nn.AutoencoderModel
    windower = dec._SeriesWindower
    return [
        (cli, "main", "cli.main", None),
        (cli, "train", "decompose.train", None),
        (cli, "load_csv", "data.load_csv", _count_read),
        (cli, "load_decomposition", "data.load_decomposition", _count_read),
        (cli, "save_decomposition", "data.save_decomposition", _count_write),
        (cli, "save_model", "data.save_model", _count_write),
        (cli, "evaluate", "metrics.evaluate", None),
        (cli, "es_ssa", "explain.es_ssa", None),
        (cli, "es_prm", "explain.es_prm", None),
        (dec, "train", "decompose.train", None),
        (dec, "soft_threshold", "prox.soft_threshold", None),
        (dec, "embed_lagged", "hankel.embed_lagged", _count_embed),
        (dec, "hankelize", "hankel.hankelize", _count_hankelize),
        (dec, "matrix_to_series", "hankel.matrix_to_series", _count_to_series),
        (dec, "frobenius_norm", "linalg.frobenius_norm", None),
        (dec, "rmse", "linalg.rmse", None),
        (windower, "batch", "decompose.window_batch", None),
        (windower, "fold", "decompose.window_fold", None),
        (model, "train_step", "nn.train_step", _count_train_step),
        (model, "forward", "nn.forward", _count_forward),
        (exp, "embed_lagged", "hankel.embed_lagged", _count_embed),
        (exp, "hankelize", "hankel.hankelize", _count_hankelize),
        (exp, "matrix_to_series", "hankel.matrix_to_series", _count_to_series),
        (exp, "svd", "linalg.svd", _count_svd),
        (exp, "rmse", "linalg.rmse", None),
        (exp, "least_squares", "linalg.least_squares", None),
    ]


# spans whose calls, busy and self seconds are reported per op
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in _patch_table()))


class Tracer:
    """Records spans as parallel lists: name, start, end, parent index, and
    the process's minor page faults at start and end."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.faults: list[list[int]] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            i = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ends.append(0.0)
            tracer._stack.append(i)
            tracer.faults.append([minor_faults(), 0])
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[i] = time.perf_counter()
                tracer.faults[i][1] = minor_faults()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every boundary for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, counter in _patch_table():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Totals per span name and per layer, plus ``es_ssa`` breakdown.

        A span's self time is its duration minus the durations of its
        direct children; self page faults are counted the same way.
        """
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        flt = [end - start for start, end in self.faults]
        child = [0.0] * n
        child_flt = [0] * n
        under_ssa = [False] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
                child_flt[p] += flt[i]
                under_ssa[i] = under_ssa[p] or self.names[p] == "explain.es_ssa"
        spans = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_faults = dict.fromkeys(LAYERS, 0)
        ssa_self = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            name = self.names[i]
            own = dur[i] - child[i]
            rec = spans[name]
            rec["calls"] += 1
            rec["busy_s"] += dur[i]
            rec["self_s"] += own
            layer = name.split(".", 1)[0]
            layer_self[layer] += own
            layer_faults[layer] += flt[i] - child_flt[i]
            if under_ssa[i]:
                ssa_self[layer] += own
        return {
            "spans": spans,
            "layer_self_s": layer_self,
            "layer_minor_faults": layer_faults,
            "es_ssa_child_self_s": ssa_self,
            "counters": dict(self.counters),
            "n_spans": n,
        }
