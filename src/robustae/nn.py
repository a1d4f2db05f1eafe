"""Fully-connected autoencoder with hand-written backprop and Adam updates.

One network class serves every learned transformation in the package: the
reconstruction autoencoders and the input/output-width-preserving smoothing
networks. A network is built one way, ``AutoencoderModel(config)``, which
draws its weights from ``config.seed`` and starts its biases at zero;
``data.load_model`` builds one the same way, then writes a file's
parameters into it. Layers are symmetric around a bottleneck; the final
layer is linear so reconstructions are unbounded reals. Every network is an
autoencoder: a step descends the mean squared error of reconstructing its
own batch. A step computes only the gradient of that error, not the error
itself, and ``train`` returns nothing; the trainers' loss trace is the
reconstruction RMSE that ``decompose._alternate`` takes once per iteration.

A train step allocates no array the size of a batch: the model holds one
workspace of layer buffers and one matmul buffer, and every ufunc and
matmul of a step or a forward pass writes into it with ``out=``; each
layer's delta goes over that layer's output once its gradients are taken.
The workspace lasts until ``release()`` or until a batch with another row
count comes, so the refits of one alternation stage
(``decompose._alternate``) reuse the same pages instead of faulting in
fresh ones on every call. ``forward`` returns a copy of the last layer, so
the caller's array is its own.
Parameters, gradients and the two Adam moments are one flat vector each,
so Adam and the finiteness checks sweep each of them once per step.

A bias gradient is the column sum of a layer's (rows, width) delta, taken
with ``np.einsum("ij->j")``. It adds the rows in order, as ``sum(axis=0)``
does, so the two are equal bit for bit; einsum takes about a third of the
time, because the inner loop of ``sum(axis=0)`` covers one row of ``width``
entries per call. A layer of width 1 keeps ``np.sum``: on an (n, 1) column
it sums pairwise, and einsum gives other bits there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError, require_int, require_positive

__all__ = [
    "AutoencoderConfig",
    "AutoencoderModel",
    "default_layer_dims",
]


_ACTIVATIONS = ("tanh", "sigmoid", "relu", "linear")


def _activate(name: str, z: np.ndarray) -> None:
    """Apply the activation to ``z`` in place."""
    if name == "tanh":
        np.tanh(z, out=z)
    elif name == "sigmoid":
        # 1 / (1 + exp(-z))
        np.negative(z, out=z)
        np.exp(z, out=z)
        np.add(z, 1.0, out=z)
        np.divide(1.0, z, out=z)
    elif name == "relu":
        np.maximum(z, 0.0, out=z)


def _backprop_into(name: str, delta: np.ndarray, w: np.ndarray, a: np.ndarray, tmp: np.ndarray):
    """``a = (delta @ w.T) * f'(z)`` over the activation a = f(z): f'(z) is
    formed in ``a``, the matmul in the front of the flat buffer ``tmp``."""
    if name == "linear":
        np.matmul(delta, w.T, out=a)  # f' = 1
        return
    tmp = tmp[: a.size].reshape(a.shape)
    if name == "tanh":
        np.multiply(a, a, out=a)
        np.subtract(1.0, a, out=a)
    elif name == "sigmoid":
        # 1 - a must leave tmp before the matmul goes in
        np.subtract(1.0, a, out=tmp)
        np.multiply(a, tmp, out=a)
    else:
        # relu: a = max(z, 0) is positive exactly where z is
        np.greater(a, 0.0, out=a)
    np.matmul(delta, w.T, out=tmp)
    np.multiply(tmp, a, out=a)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def default_layer_dims(input_dim: int) -> tuple[int, ...]:
    """Symmetric three-hidden-layer shape with a quarter-width bottleneck,
    at least 2 wide but narrower than the input."""
    wide = max(3, round(0.75 * input_dim))
    narrow = min(max(2, round(0.25 * input_dim)), input_dim - 1)
    return (wide, narrow, wide)


@dataclass(frozen=True)
class AutoencoderConfig:
    """Shape and training hyperparameters of one network.

    ``layer_dims`` lists the hidden widths from first to last; the middle
    entry is the bottleneck and must be narrower than ``input_dim``.
    ``inner_epochs`` is the number of full-batch gradient steps taken per
    alternation step of the surrounding trainers.
    """

    input_dim: int
    layer_dims: tuple[int, ...]
    activation: str = "tanh"
    learning_rate: float = 1e-3
    inner_epochs: int = 20
    weight_init_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name, low in (("input_dim", 1), ("inner_epochs", 1), ("seed", 0)):
            object.__setattr__(self, name, require_int(getattr(self, name), name, low))
        widths = tuple(require_int(d, "a layer width", 1) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", widths)
        if not self.layer_dims:
            raise ParameterError("layer_dims must be nonempty")
        if self.activation not in _ACTIVATIONS:
            raise ParameterError(
                f"activation must be one of {sorted(_ACTIVATIONS)}, got {self.activation!r}"
            )
        require_positive(self.learning_rate, "learning_rate")
        require_positive(self.weight_init_scale, "weight_init_scale")
        if self.bottleneck_dim >= self.input_dim:
            raise ParameterError(
                f"bottleneck width {self.bottleneck_dim} must be smaller than "
                f"input_dim {self.input_dim}"
            )

    @property
    def bottleneck_dim(self) -> int:
        return self.layer_dims[(len(self.layer_dims) - 1) // 2]

    @property
    def all_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.layer_dims, self.input_dim)


def _layer_views(flat: np.ndarray, dims) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (fan_in, fan_out) weight and (fan_out,) bias views of a flat
    parameter-sized vector, laid out as W0, b0, W1, b1, ..."""
    weights, biases = [], []
    start = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        end = start + fan_in * fan_out
        weights.append(flat[start:end].reshape(fan_in, fan_out))
        biases.append(flat[end : end + fan_out])
        start = end + fan_out
    return weights, biases


def _n_params(dims) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


class _Workspace:
    """Every buffer a train step writes, for batches of ``rows`` samples.

    ``acts[l]`` holds layer l's output, activation applied in place, and
    then its delta: the backward pass writes it once the layer above has
    taken its gradients, the last read of that output. ``tmp``, sized to
    the widest hidden layer, holds one ``delta @ W.T``. ``grad`` is laid
    out like the parameters and ``adam`` is Adam's scratch.
    """

    def __init__(self, dims, rows: int):
        self.rows = rows
        self.acts = [np.empty((rows, width)) for width in dims[1:]]
        self.tmp = np.empty(rows * max(dims[1:-1]))
        self.grad = np.empty(_n_params(dims))
        self.grad_w, self.grad_b = _layer_views(self.grad, dims)
        self.adam = np.empty_like(self.grad)


@dataclass(eq=False)
class AutoencoderModel:
    """Network parameters plus Adam state, drawn from a config.

    The one constructor draws each layer's (fan_in, fan_out) weights from
    ``default_rng(config.seed)`` as ``uniform(-s, s)``, s = weight_init_scale
    / sqrt(fan_in), first layer first, and starts every bias at zero. Weights
    apply to row-sample batches; hidden layers use the configured activation,
    the output layer is linear. ``weights`` and ``biases`` are views into one
    flat parameter vector, so writing to them changes the model. ``train``,
    ``train_step`` and ``forward`` share one workspace while the batch's row
    count stays the same; ``release()`` drops it. Models compare by identity.
    """

    config: AutoencoderConfig
    step_count: int = field(default=0, init=False)

    def __post_init__(self):
        dims = self.config.all_dims
        self._params = np.zeros(_n_params(dims))
        self.weights, self.biases = _layer_views(self._params, dims)
        rng = np.random.default_rng(self.config.seed)
        for w in self.weights:
            s = self.config.weight_init_scale / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-s, s, size=w.shape)
        self._adam_m = np.zeros_like(self._params)
        self._adam_v = np.zeros_like(self._params)
        self._workspace: _Workspace | None = None

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def _workspace_for(self, rows: int) -> _Workspace:
        """The held workspace, rebuilt if it was made for another row count."""
        if self._workspace is None or self._workspace.rows != rows:
            self._workspace = None  # free the old buffers before the new ones
            self._workspace = _Workspace(self.config.all_dims, rows)
        return self._workspace

    def release(self) -> None:
        """Drop the workspace; the next step or forward pass builds a new one."""
        self._workspace = None

    def _check_batch(self, batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != self.config.input_dim:
            raise DimensionError(
                f"batch must be (n, {self.config.input_dim}), got {batch.shape}"
            )
        return batch

    def _forward(self, batch: np.ndarray, acts: list[np.ndarray]) -> np.ndarray:
        """Run every layer into its buffer in ``acts``; returns the last one."""
        a = batch
        last = self.n_layers - 1
        for layer, (w, b, out) in enumerate(zip(self.weights, self.biases, acts)):
            np.matmul(a, w, out=out)
            out += b
            if layer < last:
                _activate(self.config.activation, out)
            a = out
        return a

    def _backward(self, batch: np.ndarray, ws: _Workspace) -> None:
        """Forward and backward pass in ``ws``; leaves the gradient of the
        mean squared reconstruction error of ``batch`` in ``ws.grad``."""
        # the output layer's delta goes over the reconstruction it is taken from
        delta = self._forward(batch, ws.acts)
        last = self.n_layers - 1
        np.subtract(delta, batch, out=delta)
        np.multiply(delta, 2.0, out=delta)
        np.divide(delta, delta.size, out=delta)
        for layer in range(last, -1, -1):
            below = batch if layer == 0 else ws.acts[layer - 1]
            np.matmul(below.T, delta, out=ws.grad_w[layer])
            # the same bits as np.sum, faster (see the module docstring)
            if delta.shape[1] > 1:
                np.einsum("ij->j", delta, out=ws.grad_b[layer])
            else:
                np.sum(delta, axis=0, out=ws.grad_b[layer])
            if layer > 0:
                # grad_w[layer] was the last read of below, so its delta goes over it
                _backprop_into(self.config.activation, delta, self.weights[layer], below, ws.tmp)
                delta = below

    # an overflow raises NumericalError below, so numpy need not warn of it first
    @np.errstate(over="ignore", invalid="ignore")
    def forward(self, batch) -> np.ndarray:
        """Reconstruct a batch of row samples (n, input_dim) -> (n, input_dim).

        The layers run in the workspace; the returned array is a copy of the
        last one, so it is the caller's alone.
        """
        batch = self._check_batch(batch)
        out = self._forward(batch, self._workspace_for(len(batch)).acts)
        if not np.all(np.isfinite(out)):
            raise NumericalError("forward pass produced non-finite values")
        return out.copy()

    # each step's finiteness checks raise NumericalError, so numpy need not warn first
    @np.errstate(over="ignore", invalid="ignore")
    def train_step(self, batch) -> None:
        """One full-batch Adam step toward reconstructing ``batch``.

        A non-finite gradient raises before any state changes; a second
        moment that overflows, which would freeze its parameters, raises after.
        """
        batch = self._check_batch(batch)
        ws = self._workspace_for(len(batch))
        self._backward(batch, ws)
        grad, tmp = ws.grad, ws.adam
        if not np.all(np.isfinite(grad)):
            raise NumericalError("non-finite gradient; reduce the learning rate")
        self.step_count += 1
        t = self.step_count
        corr1 = 1.0 - ADAM_BETA1**t
        corr2 = 1.0 - ADAM_BETA2**t
        m, v = self._adam_m, self._adam_v
        m *= ADAM_BETA1
        np.multiply(grad, 1.0 - ADAM_BETA1, out=tmp)
        m += tmp
        v *= ADAM_BETA2
        np.multiply(grad, 1.0 - ADAM_BETA2, out=tmp)
        tmp *= grad
        v += tmp
        # params -= lr * (m / corr1) / (sqrt(v / corr2) + eps); the gradient
        # is spent, so its buffer holds the denominator
        np.divide(m, corr1, out=tmp)
        tmp *= self.config.learning_rate
        np.divide(v, corr2, out=grad)
        np.sqrt(grad, out=grad)
        grad += ADAM_EPS
        tmp /= grad
        self._params -= tmp
        if not np.all(np.isfinite(self._params)):
            raise NumericalError("parameters became non-finite during update")
        if not np.all(np.isfinite(v)):
            raise NumericalError("Adam's second moment overflowed; the gradient is too large")

    def train(self, batch) -> None:
        """Run config.inner_epochs full-batch Adam steps, all in the held workspace."""
        batch = self._check_batch(batch)
        for _ in range(self.config.inner_epochs):
            self.train_step(batch)

