import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustae.errors import DimensionError, NumericalError, ParameterError
from robustae.nn import AutoencoderConfig, AutoencoderModel, _Workspace, default_layer_dims


def loss(model, batch) -> float:
    """Mean squared reconstruction error of the current parameters."""
    d = model.forward(batch) - batch
    return float(np.mean(d * d))


def gradient_check(model, batch) -> float:
    """Max relative error of analytic vs central-difference gradients of the
    reconstruction error of ``batch``.

    Perturbs every weight and bias entry by +-1e-5; 0/0 comparisons count
    as zero error.
    """
    h = 1e-5
    grads_w, grads_b = gradients(model, batch)
    params = list(model.weights) + list(model.biases)
    grads = list(grads_w) + list(grads_b)
    # entries far below the dominant gradient are compared against that
    # scale, so central-difference rounding noise on near-zero entries does
    # not register as error
    gscale = max((float(np.max(np.abs(g))) for g in grads), default=0.0)
    floor = 1e-3 * gscale
    worst = 0.0
    for param, grad in zip(params, grads):
        flat = param.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss(model, batch)
            flat[i] = orig - h
            down = loss(model, batch)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(numeric), abs(gflat[i]), floor)
            if denom > 0.0:
                worst = max(worst, abs(numeric - gflat[i]) / denom)
    return worst


def make_model(input_dim, layer_dims, activation="tanh", seed=0, lr=1e-3, epochs=20):
    cfg = AutoencoderConfig(
        input_dim=input_dim,
        layer_dims=layer_dims,
        activation=activation,
        learning_rate=lr,
        inner_epochs=epochs,
        seed=seed,
    )
    return AutoencoderModel(cfg)


def test_config_validation():
    with pytest.raises(ParameterError):
        AutoencoderConfig(input_dim=4, layer_dims=())
    with pytest.raises(ParameterError):
        AutoencoderConfig(input_dim=4, layer_dims=(8,))  # no bottleneck
    with pytest.raises(ParameterError):
        AutoencoderConfig(input_dim=4, layer_dims=(2,), activation="softplus")
    with pytest.raises(ParameterError):
        AutoencoderConfig(input_dim=4, layer_dims=(2,), learning_rate=0.0)


@pytest.mark.parametrize(
    "field, value",
    [("input_dim", 8.0), ("inner_epochs", 2.5), ("seed", None), ("seed", -1),
     ("layer_dims", "abc"), ("layer_dims", (4.7,)), ("layer_dims", ("4",)),
     ("layer_dims", (True,)), ("layer_dims", (0,))],
)
def test_config_refuses_non_integers(field, value):
    # int() would have read 4.7 as 4 and "4" as 4
    with pytest.raises(ParameterError, match="input_dim|inner_epochs|seed|layer width"):
        AutoencoderConfig(**{"input_dim": 8, "layer_dims": (4,), field: value})


def test_config_stores_numpy_integers_as_ints():
    cfg = AutoencoderConfig(input_dim=np.int64(8), layer_dims=np.array([6, 4, 6]), seed=np.uint64(1))
    assert (cfg.input_dim, cfg.layer_dims, cfg.seed) == (8, (6, 4, 6), 1)
    assert {type(v) for v in (cfg.input_dim, *cfg.layer_dims, cfg.seed)} == {int}


def test_bottleneck_is_middle_entry():
    cfg = AutoencoderConfig(input_dim=8, layer_dims=(6, 2, 6))
    assert cfg.bottleneck_dim == 2
    assert cfg.all_dims == (8, 6, 2, 6, 8)


def test_zero_weights_tanh_outputs_zero():
    model = make_model(4, (3, 2, 3))
    for w in model.weights:
        w[:] = 0.0
    x = np.random.default_rng(0).standard_normal((5, 4))
    assert np.all(model.forward(x) == 0.0)


def test_linear_output_layer_identity_on_embedded_line():
    # output layer has no activation: values beyond tanh's range pass through
    model = make_model(2, (1,), activation="linear")
    model.weights[0][:] = np.array([[1.0], [0.0]])
    model.weights[1][:] = np.array([[1.0, 0.0]])
    model.biases[0][:] = 0.0
    model.biases[1][:] = 0.0
    x = np.array([[3.7, 0.0], [-25.0, 0.0]])
    assert np.allclose(model.forward(x), x)


def test_forward_deterministic():
    x = np.random.default_rng(1).standard_normal((6, 5))
    a = make_model(5, (3,), seed=42).forward(x)
    b = make_model(5, (3,), seed=42).forward(x)
    assert np.array_equal(a, b)


def test_forward_shape_mismatch():
    model = make_model(4, (2,))
    with pytest.raises(DimensionError):
        model.forward(np.zeros((3, 5)))


def test_stationary_point_leaves_parameters_unchanged():
    # zero weights reconstruct zero data exactly, so every gradient is zero
    model = make_model(3, (2,), seed=5)
    for w in model.weights:
        w[:] = 0.0
    model.train_step(np.zeros((4, 3)))
    assert model.step_count == 1
    assert all(not p.any() for p in model.weights + model.biases)


def test_loss_decreases_smoothed():
    model = make_model(6, (4, 2, 4), seed=7, lr=5e-3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((20, 6))
    losses = []
    for _ in range(200):
        losses.append(loss(model, x))
        model.train_step(x)
    smoothed = np.convolve(losses, np.ones(10) / 10, mode="valid")
    assert np.all(np.diff(smoothed[10:]) <= 1e-6)
    assert losses[-1] < losses[0]


def test_determinism_after_training():
    def run():
        model = make_model(5, (3,), seed=11, lr=2e-3, epochs=50)
        x = np.random.default_rng(5).standard_normal((8, 5))
        model.train(x)
        return model

    a, b = run(), run()
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)


def test_gradient_check_linear_small():
    model = make_model(2, (1,), activation="linear", seed=1)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 2))
    assert gradient_check(model, x) < 1e-6


def test_gradient_check_tanh():
    model = make_model(4, (2,), seed=2)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((6, 4))
    assert gradient_check(model, x) < 1e-4


@pytest.mark.parametrize("activation", ["tanh", "sigmoid", "relu", "linear"])
def test_gradient_check_all_activations_deep(activation):
    # five weight layers: hidden chain 4-2-4 around input width 6; the relu
    # seed keeps every pre-activation > 100h from the kink, where central
    # differences are valid, and every hidden unit live on some row, so no
    # weight gradient is zero by a dead layer
    seed = 1 if activation == "relu" else 3
    model = make_model(6, (4, 2, 4), activation=activation, seed=seed)
    rng = np.random.default_rng(seed + 100)
    x = rng.standard_normal((7, 6))
    if activation == "relu":
        # hidden pre-activations z = a @ w + b, with a = max(z, 0)
        a, pre = x, []
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            pre.append(a @ w + b)
            a = np.maximum(pre[-1], 0.0)
        assert min(float(np.min(np.abs(p))) for p in pre) > 1e-3
        assert all((p > 0.0).any(axis=0).all() for p in pre)
    assert gradient_check(model, x) < 1e-4


def test_gradient_check_zero_everything():
    model = make_model(3, (2,), seed=0)
    for w in model.weights:
        w[:] = 0.0
    assert gradient_check(model, np.zeros((4, 3))) == 0.0


def test_non_finite_gradient_raises():
    # the weight gradients overflow on extreme inputs, so the backward pass sees inf
    model = make_model(4, (3,), seed=9, activation="linear", epochs=3)
    model.train(np.eye(4))
    state = [p.copy() for p in (*model.weights, *model.biases, model._adam_m, model._adam_v)]
    x = np.full((5, 4), 1e200)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="non-finite gradient"):
        model.train_step(x)
    # the check runs before the update, so the raise leaves the model untouched
    after = (*model.weights, *model.biases, model._adam_m, model._adam_v)
    assert all(np.array_equal(a, b) for a, b in zip(after, state))
    assert model.step_count == 3


def test_overflowing_second_moment_raises():
    # the gradient is finite, but its square overflows Adam's second moment to
    # inf, where sqrt(v) would freeze those parameters at a zero update
    x = np.full((5, 4), 1e160)
    for call in ("train", "train_step"):
        model = make_model(4, (2,))
        with pytest.raises(NumericalError, match="second moment"):
            getattr(model, call)(x)


def test_forward_output_is_not_reused():
    model = make_model(5, (4, 2, 4), seed=4, epochs=3)
    x = np.random.default_rng(12).standard_normal((9, 5))
    out = model.forward(x)
    kept = out.copy()
    model.train(x)
    model.forward(x)
    gradients(model, x)
    assert np.array_equal(out, kept)
    # the workspace outlives train() and is dropped by release()
    assert model._workspace is not None
    model.release()
    assert model._workspace is None


def test_workspace_is_kept_while_the_row_count_holds():
    model = make_model(8, (6, 3, 6), seed=24, lr=1e-2, epochs=5)
    rng = np.random.default_rng(25)
    small, large = rng.standard_normal((30, 8)), rng.standard_normal((300, 8))
    expected = _reference_adam(model, [small] * 10 + [large] * 5 + [small] * 5)
    model.train(small)
    acts = model._workspace.acts[0]
    model.train(small)
    assert np.shares_memory(model._workspace.acts[0], acts)
    # another row count rebuilds it, and the steps keep the same bits
    for x in (large, small):
        model.train(x)
        assert model._workspace.rows == len(x)
        assert not np.shares_memory(model._workspace.acts[0], acts)
        acts = model._workspace.acts[0]
    params = model.weights + model.biases
    assert all(np.array_equal(p, q) for p, q in zip(params, expected))


def _owned_arrays(ws):
    """The arrays a workspace allocated, not the views into them."""
    for value in vars(ws).values():
        for a in value if isinstance(value, list) else [value]:
            if isinstance(a, np.ndarray) and a.base is None:
                yield a


@pytest.mark.parametrize(
    "rows, dims",
    [(1985, (16, 24, 12, 24, 16)), (1991, (10, 16, 8, 16, 10)), (1991, (10, 8, 10))],
)
def test_workspace_holds_the_layers_and_one_matmul_buffer(rows, dims):
    # the bench networks: series, matrix and f1. Each delta goes over its
    # layer's output, so past the two parameter-sized vectors the workspace
    # holds one buffer per layer and one sized to the widest hidden layer
    ws = _Workspace(dims, rows)
    n_params = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    batch_sized = sum(a.nbytes for a in _owned_arrays(ws)) - 2 * 8 * n_params
    assert batch_sized == 8 * rows * (sum(dims[1:]) + max(dims[1:-1]))


@pytest.mark.parametrize("activation", ["tanh", "sigmoid", "relu", "linear"])
def test_train_allocates_no_batch_sized_array(activation):
    model = make_model(16, (24, 12, 24), activation=activation, seed=26, epochs=3)
    x = np.random.default_rng(27).standard_normal((1985, 16))
    model.train(x)  # builds the workspace
    tracemalloc.start()
    try:
        model.train(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes


# activation f and its derivative f' from the pre-activation z and the activation a
_REFERENCE_ACTIVATIONS = {
    "tanh": (np.tanh, lambda z, a: 1.0 - a * a),
    "sigmoid": (lambda z: 1.0 / (1.0 + np.exp(-z)), lambda z, a: a * (1.0 - a)),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z, a: (z > 0.0).astype(np.float64)),
    "linear": (lambda z: z, lambda z, a: np.ones_like(z)),
}


def gradients(model, batch):
    """(weight, bias) gradients of the mean squared reconstruction error of
    ``batch``, from the model's own backward pass.

    They are computed in a workspace of their own, so the model's held one
    is left as it is.
    """
    ws = _Workspace(model.config.all_dims, len(batch))
    model._backward(np.asarray(batch, dtype=np.float64), ws)
    return [g.copy() for g in ws.grad_w], [g.copy() for g in ws.grad_b]


def _reference_gradients(activation, weights, biases, x):
    """(weight, bias) gradients of the mean squared reconstruction error of
    ``x``, one allocating ufunc per term; each bias gradient is its delta's
    ``sum(axis=0)``."""
    f, df = _REFERENCE_ACTIVATIONS[activation]
    n = len(weights)
    pre, acts = [], [x]
    for layer, (w, b) in enumerate(zip(weights, biases)):
        pre.append(acts[-1] @ w + b)
        acts.append(pre[-1] if layer == n - 1 else f(pre[-1]))
    delta = 2.0 * (acts[-1] - x) / acts[-1].size
    grads_w, grads_b = [None] * n, [None] * n
    for layer in range(n - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * df(pre[layer - 1], acts[layer])
    return grads_w, grads_b


def _reference_train_steps(model, x, steps):
    return _reference_adam(model, [x] * steps)


def _reference_adam(model, batches):
    """Adam steps on (weights, biases) copies, one step per batch and one
    allocating ufunc per term.

    Every arithmetic step is the one the model's step must make, in the same
    order, so the two agree bit for bit on any machine.
    """
    params = [p.copy() for p in model.weights + model.biases]
    moments = [np.zeros_like(p) for p in params + params]
    n = model.n_layers
    lr = model.config.learning_rate
    for t, x in enumerate(batches, 1):
        grads_w, grads_b = _reference_gradients(model.config.activation, params[:n], params[n:], x)
        for p, g, m, v in zip(params, grads_w + grads_b, moments[: 2 * n], moments[2 * n :]):
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            p -= lr * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
    return params


# sha256 of the parameter bytes (weights, then biases) after 25 steps,
# recorded with numpy 2.4.6 and scipy-openblas 0.3.31 on an x86-64 machine
# with AVX-512. Another numpy, BLAS or CPU may round differently, so the
# hashes are checked only on that set-up; the reference comparison runs
# everywhere.
RECORDED_PLATFORM = ("2.4.6", "0.3.31.188.0", "X86_V4")
RECORDED_STEP_HASHES = {
    "tanh": "73d6a691ebacaab23c5e26eee3ed959e7ad2ba93545b45e6f501b52a5fd58287",
    "sigmoid": "2cf44fac9861a7c7defe7356bcbf1bcc9087d4a2493ec8652e6dd630f6eee9f9",
    "relu": "bee29cb98007f6330c7e7c7aa8a6643071555577e54673a97595635799356bb5",
    "linear": "7780df903b4d4f0a72dd7f720fae08f30a64d40f365e3ad6f2489f4a99209956",
}


def _platform():
    """(numpy version, BLAS version, SIMD target of float64 tanh), or None."""
    try:
        from numpy.lib.introspect import opt_func_info

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        simd = opt_func_info(func_name="tanh", signature="float64")["tanh"]["dd"]["current"]
    except (ImportError, TypeError, KeyError):
        return None
    return (np.__version__, blas, simd)


@pytest.mark.parametrize("activation", ["tanh", "sigmoid", "relu", "linear"])
def test_train_steps_are_bit_stable(activation):
    model = make_model(8, (6, 3, 6), activation=activation, seed=21, lr=1e-2, epochs=25)
    x = np.random.default_rng(22).standard_normal((30, 8))
    expected = _reference_train_steps(model, x, 25)
    model.train(x)
    params = model.weights + model.biases
    assert all(np.array_equal(p, q) for p, q in zip(params, expected))
    if _platform() == RECORDED_PLATFORM:
        digest = hashlib.sha256(b"".join(p.tobytes() for p in params)).hexdigest()
        assert digest == RECORDED_STEP_HASHES[activation]
    # a width-1 bottleneck: np.sum adds an (n, 1) column pairwise, and einsum
    # gives other bits there
    for rows in (30, 300):
        model = make_model(8, (6, 1, 6), activation=activation, seed=23, lr=1e-2, epochs=25)
        x = np.random.default_rng(rows).standard_normal((rows, 8))
        expected = _reference_train_steps(model, x, 25)
        model.train(x)
        assert all(np.array_equal(p, q) for p, q in zip(model.weights + model.biases, expected))


@pytest.mark.parametrize("rows", [1, 7, 129, 1985])
@pytest.mark.parametrize("width", [1, 2, 3, 8, 24])
def test_bias_gradients_are_column_sums_bit_for_bit(width, rows):
    # linear, so the hidden delta keeps the spread of the inputs. Over 1e+-30
    # the largest entry of a 129-row column dwarfs the rest, so a pairwise
    # and an in-order sum round alike; over 1e+-10 they differ at 129 and
    # 1985 rows of width 1, where einsum would give other bits
    model = make_model(width + 1, (width,), activation="linear", seed=width)
    rng = np.random.default_rng(rows)
    shape = (rows, width + 1)
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-10, 10, shape)
    grads_w, grads_b = gradients(model, x)
    ref_w, ref_b = _reference_gradients("linear", model.weights, model.biases, x)
    assert all(np.array_equal(g, r) for g, r in zip(grads_w + grads_b, ref_w + ref_b))


def test_bottleneck_capacity_linear_subspace():
    # rank-3 data through a linear bottleneck: width 3 trains to near-exact,
    # width 2 cannot. Past convergence the gradient is rounding noise, Adam's
    # second moment decays toward it, and the step lr/sqrt(v) grows until it
    # passes the stability limit and the loss spikes back up. At this rate
    # the fit reaches the rounding floor by step ~800 and the first spike
    # comes after step ~1900 (model seeds 0-39), so the run stops in between.
    rng = np.random.default_rng(10)
    basis = rng.standard_normal((3, 8))
    coords = rng.standard_normal((40, 3))
    data = coords @ basis

    def final_rmse(width):
        cfg = AutoencoderConfig(
            input_dim=8,
            layer_dims=(width,),
            activation="linear",
            learning_rate=1e-2,
            inner_epochs=1300,
            seed=12,
        )
        model = AutoencoderModel(cfg)
        model.train(data)
        return np.sqrt(loss(model, data))

    assert final_rmse(3) < 1e-3 < final_rmse(2)


def test_parameters_stay_finite_on_sane_config():
    model = make_model(5, (4, 2, 4), seed=13, lr=1e-2, epochs=300)
    x = np.random.default_rng(11).standard_normal((10, 5))
    model.train(x)
    for p in model.weights + model.biases:
        assert np.all(np.isfinite(p))


def test_default_layer_dims_shape():
    dims = default_layer_dims(32)
    assert dims == (24, 8, 24)
    assert dims[1] < 32
    # the bottleneck stays narrower than a 2-wide input
    assert default_layer_dims(2) == (3, 1, 3)
    # and is floored at 2 from width 3 on, as before the cap at input_dim - 1
    for d in range(3, 300):
        wide = max(3, round(0.75 * d))
        assert default_layer_dims(d) == (wide, max(2, round(0.25 * d)), wide)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_gradient_check_random_seeds_tanh(seed):
    model = make_model(3, (2,), seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((4, 3))
    assert gradient_check(model, x) < 1e-4
