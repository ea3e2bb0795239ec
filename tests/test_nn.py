"""Tests for the neural-network kernel.

Every layer's analytic gradient is checked against central finite
differences (step 1e-3, 64-bit, relative error < 1e-4), and Adam is
checked against an independently coded scalar recurrence.
"""

from __future__ import annotations

import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import molcap
from molcap.dataset import CachedDataset
from molcap.errors import ConfigError, NonFiniteLossError, ShapeMismatchError
from molcap.nn import (
    Model,
    ModelConfig,
    TrainConfig,
    adam_step,
    bce_with_logits,
    init_train_state,
    load_checkpoint,
    predict_scores,
    reduce_lr_on_plateau,
    save_checkpoint,
    sigmoid,
    train,
    write_history_csv,
)
from molcap.nn import layers

# The package re-exports the train() function under the submodule's name,
# so fetch the module itself for monkeypatching and private helpers.
train_module = importlib.import_module("molcap.nn.train")

H = 1e-3
TOL = 1e-4


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def numeric_grad(loss_fn, array: np.ndarray, flat_index: int, h: float = H) -> float:
    flat = array.reshape(-1)
    saved = flat[flat_index]
    flat[flat_index] = saved + h
    plus = loss_fn()
    flat[flat_index] = saved - h
    minus = loss_fn()
    flat[flat_index] = saved
    return (plus - minus) / (2.0 * h)


def check_array_grad(loss_fn, array, analytic, rng, samples=6, h=H) -> None:
    indices = rng.choice(array.size, size=min(samples, array.size), replace=False)
    for i in indices:
        numeric = numeric_grad(loss_fn, array, int(i), h)
        assert rel_err(float(analytic.reshape(-1)[int(i)]), numeric) < TOL


# --------------------------------------------------------------------------
# Layer gradients


def test_conv2d_gradients_stride1() -> None:
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 7, 7, 3))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    r = rng.normal(size=(2, 7, 7, 4))

    def loss() -> float:
        y, _ = layers.conv2d_forward(x, w, b, stride=1)
        return float((y * r).sum())

    y, cache = layers.conv2d_forward(x, w, b, stride=1)
    assert y.shape == (2, 7, 7, 4)
    dx, dw, db = layers.conv2d_backward(r, cache)
    check_array_grad(loss, x, dx, rng)
    check_array_grad(loss, w, dw, rng)
    check_array_grad(loss, b, db, rng)


def test_conv2d_gradients_stride2_asymmetric_padding() -> None:
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 8, 8, 2))  # even side: pad splits 0/1
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    r = rng.normal(size=(2, 4, 4, 3))

    def loss() -> float:
        y, _ = layers.conv2d_forward(x, w, b, stride=2)
        return float((y * r).sum())

    y, cache = layers.conv2d_forward(x, w, b, stride=2)
    assert y.shape == (2, 4, 4, 3)
    dx, dw, db = layers.conv2d_backward(r, cache)
    check_array_grad(loss, x, dx, rng)
    check_array_grad(loss, w, dw, rng)
    check_array_grad(loss, b, db, rng)


def test_conv2d_asymmetric_kernel_gradients() -> None:
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 5, 9, 2))
    w = rng.normal(size=(2, 2, 1, 7))
    b = np.zeros(2)
    r = rng.normal(size=(1, 5, 9, 2))

    def loss() -> float:
        y, _ = layers.conv2d_forward(x, w, b, stride=1)
        return float((y * r).sum())

    y, cache = layers.conv2d_forward(x, w, b, stride=1)
    assert y.shape == (1, 5, 9, 2)
    dx, dw, _ = layers.conv2d_backward(r, cache)
    check_array_grad(loss, x, dx, rng)
    check_array_grad(loss, w, dw, rng)


def naive_same_conv(x, w, b, stride) -> np.ndarray:
    """Nested-loop cross-correlation with TensorFlow "same" padding."""
    n, h, width, c = x.shape
    f, _, kh, kw = w.shape
    oh, ow = -(-h // stride), -(-width // stride)
    top = max((oh - 1) * stride + kh - h, 0) // 2
    left = max((ow - 1) * stride + kw - width, 0) // 2
    y = np.zeros((n, oh, ow, f))
    for image in range(n):
        for r in range(oh):
            for s in range(ow):
                for filt in range(f):
                    total = b[filt]
                    for i in range(kh):
                        for j in range(kw):
                            row = r * stride + i - top
                            col = s * stride + j - left
                            if 0 <= row < h and 0 <= col < width:
                                for channel in range(c):
                                    total += x[image, row, col, channel] * w[filt, channel, i, j]
                    y[image, r, s, filt] = total
    return y


@pytest.mark.parametrize("kernel", [(3, 3), (1, 7), (1, 1)])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_matches_naive_loops(kernel, stride) -> None:
    rng = np.random.default_rng(20)
    for height, width in ((7, 7), (8, 8), (6, 9)):  # odd, even and mixed sides
        x = rng.normal(size=(2, height, width, 3))
        w = rng.normal(size=(4, 3, *kernel))
        b = rng.normal(size=4)
        y, _ = layers.conv2d_forward(x, w, b, stride=stride)
        expected = naive_same_conv(x, w, b, stride)
        assert y.shape == expected.shape
        assert np.allclose(y, expected, rtol=1e-12, atol=1e-12)


def test_conv2d_channel_mismatch() -> None:
    with pytest.raises(ShapeMismatchError):
        layers.conv2d_forward(
            np.zeros((1, 5, 5, 3)), np.zeros((2, 4, 3, 3)), np.zeros(2)
        )


def test_dense_gradients() -> None:
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 7))
    w = rng.normal(size=(7, 3))
    b = rng.normal(size=3)
    r = rng.normal(size=(5, 3))

    def loss() -> float:
        y, _ = layers.dense_forward(x, w, b)
        return float((y * r).sum())

    _, cache = layers.dense_forward(x, w, b)
    dx, dw, db = layers.dense_backward(r, cache)
    check_array_grad(loss, x, dx, rng, samples=10)
    check_array_grad(loss, w, dw, rng, samples=10)
    check_array_grad(loss, b, db, rng)


def test_relu_gradients_away_from_kink() -> None:
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, size=(4, 6))
    x += 0.05 * np.sign(x)  # keep perturbations on one side of zero
    r = rng.normal(size=(4, 6))

    def loss() -> float:
        y, _ = layers.relu_forward(x)
        return float((y * r).sum())

    _, mask = layers.relu_forward(x)
    dx = layers.relu_backward(r, mask)
    check_array_grad(loss, x, dx, rng, samples=12)


def test_maxpool_gradients_and_routing() -> None:
    rng = np.random.default_rng(6)
    x = 0.1 * rng.permutation(2 * 2 * 7 * 7).astype(np.float64).reshape(2, 7, 7, 2)
    r = rng.normal(size=(2, 4, 4, 2))

    def loss() -> float:
        y, _ = layers.maxpool_forward(x, size=3, stride=2)
        return float((y * r).sum())

    y, cache = layers.maxpool_forward(x, size=3, stride=2)
    assert y.shape == (2, 4, 4, 2)
    dx = layers.maxpool_backward(r, cache)
    check_array_grad(loss, x, dx, rng, samples=12)
    # Each window routes all gradient to exactly one input cell.
    ones, cache = layers.maxpool_forward(x, 3, 2)
    dx = layers.maxpool_backward(np.ones_like(ones), cache)
    assert dx.sum() == pytest.approx(16 * 2 * 2)


def test_maxpool_matches_naive_max() -> None:
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 6, 6, 1))
    y, _ = layers.maxpool_forward(x, size=3, stride=2)
    assert y.shape == (1, 3, 3, 1)
    padded = np.pad(x, ((0, 0), (0, 1), (0, 1), (0, 0)), constant_values=-np.inf)
    for i in range(3):
        for j in range(3):
            window = padded[0, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3, 0]
            assert y[0, i, j, 0] == window.max()


def test_global_avg_pool_gradients() -> None:
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 5, 5, 4))
    r = rng.normal(size=(3, 4))

    def loss() -> float:
        y, _ = layers.global_avg_pool_forward(x)
        return float((y * r).sum())

    y, shape = layers.global_avg_pool_forward(x)
    assert np.allclose(y, x.mean(axis=(1, 2)))
    dx = layers.global_avg_pool_backward(r, shape)
    check_array_grad(loss, x, dx, rng, samples=10)


def test_concat_roundtrip() -> None:
    rng = np.random.default_rng(9)
    parts = [rng.normal(size=(3, k)) for k in (2, 5, 1)]
    merged, widths = layers.concat_forward(parts)
    assert merged.shape == (3, 8)
    back = layers.concat_backward(merged, widths)
    for original, restored in zip(parts, back):
        assert np.array_equal(original, restored)


def test_sigmoid_stable_extremes() -> None:
    x = np.array([-1000.0, -20.0, 0.0, 20.0, 1000.0])
    s = sigmoid(x)
    assert np.all(np.isfinite(s))
    assert s[0] == 0.0 and s[4] == 1.0
    assert s[2] == 0.5
    assert np.all((s >= 0) & (s <= 1))


def test_bce_gradients_and_stability() -> None:
    rng = np.random.default_rng(10)
    z = rng.normal(size=(6, 1))
    y = rng.integers(0, 2, size=6)

    def loss() -> float:
        value, _ = bce_with_logits(z, y)
        return value

    _, dz = bce_with_logits(z, y)
    check_array_grad(loss, z, dz, rng, samples=6)
    huge, dhuge = bce_with_logits(np.array([[5000.0], [-5000.0]]), np.array([0, 1]))
    assert math.isfinite(huge)
    assert np.all(np.isfinite(dhuge))


def test_bce_matches_probability_form() -> None:
    z = np.array([[0.3], [-1.2], [2.0]])
    y = np.array([1, 0, 1])
    loss, _ = bce_with_logits(z, y)
    p = sigmoid(z).reshape(-1)
    expected = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
    assert loss == pytest.approx(expected, rel=1e-12)


# --------------------------------------------------------------------------
# Model wiring


SMALL = dict(
    blocks_per_stage=1,
    filters=2,
    image_side=12,
    fp_width=24,
    keys_width=16,
    maccs_hidden=3,
)


def small_inputs(rng, n=2, side=12, fp=24, keys=16):
    return (
        rng.random((n, side, side)),
        rng.integers(0, 2, size=(n, fp)).astype(np.uint8),
        rng.integers(0, 2, size=(n, keys)).astype(np.uint8),
    )


def test_forward_shape_and_range() -> None:
    model = Model(ModelConfig(**SMALL), seed=0)
    rng = np.random.default_rng(0)
    images, fps, keys = small_inputs(rng)
    probs, _ = model.forward(images, fps, keys)
    assert probs.shape == (2, 1)
    assert np.all((probs > 0) & (probs < 1))


def test_zero_parameters_give_half() -> None:
    model = Model(ModelConfig(**SMALL), seed=0)
    for name in model.params:
        model.params[name][:] = 0.0
    rng = np.random.default_rng(1)
    images, fps, keys = small_inputs(rng)
    probs, _ = model.forward(images, fps, keys)
    assert np.all(probs == 0.5)


def test_residual_block_with_zero_weights_is_relu() -> None:
    model = Model(ModelConfig(**SMALL), seed=3)
    for name in model.params:
        if name.startswith("a0."):
            model.params[name][:] = 0.0
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 12, 12, 2))
    out, _ = model._block_forward("a0", "a", x)
    assert np.array_equal(out, np.maximum(x, 0.0))


def test_no_cross_batch_coupling() -> None:
    model = Model(ModelConfig(**SMALL), seed=4)
    rng = np.random.default_rng(3)
    images, fps, keys = small_inputs(rng, n=1)
    single = model.predict(images, fps, keys)
    repeated = model.predict(
        np.repeat(images, 32, axis=0),
        np.repeat(fps, 32, axis=0),
        np.repeat(keys, 32, axis=0),
    )
    assert np.allclose(repeated, single[0], rtol=0, atol=1e-12)
    assert repeated.std() == pytest.approx(0.0, abs=1e-12)


def test_fingerprint_branch_is_linear() -> None:
    model = Model(ModelConfig(**SMALL), seed=5)
    model.params["fp.b"][:] = 0.0
    rng = np.random.default_rng(4)
    images, fps, keys = small_inputs(rng)
    base_w = model.params["fp.w"].copy()

    def logits() -> np.ndarray:
        _, cache = model.forward(images, fps, keys)
        return cache["logits"].copy()

    model.params["fp.w"][:] = 0.0
    zero = logits()
    model.params["fp.w"][:] = base_w
    one = logits()
    model.params["fp.w"][:] = 2.0 * base_w
    two = logits()
    assert np.allclose(two - zero, 2.0 * (one - zero), rtol=1e-10, atol=1e-12)


def test_forward_deterministic() -> None:
    model = Model(ModelConfig(**SMALL), seed=6)
    rng = np.random.default_rng(5)
    images, fps, keys = small_inputs(rng)
    a, _ = model.forward(images, fps, keys)
    b, _ = model.forward(images, fps, keys)
    assert np.array_equal(a, b)


def test_ablation_ignores_disabled_inputs() -> None:
    config = ModelConfig(**{**SMALL, "use_fingerprint": False})
    model = Model(config, seed=7)
    rng = np.random.default_rng(6)
    images, fps, keys = small_inputs(rng)
    a = model.predict(images, fps, keys)
    b = model.predict(images, 1 - fps, keys)
    assert np.array_equal(a, b)
    assert "fp.w" not in model.params

    config = ModelConfig(**{**SMALL, "use_keys": False})
    model = Model(config, seed=7)
    a = model.predict(images, fps, keys)
    b = model.predict(images, fps, 1 - keys)
    assert np.array_equal(a, b)
    assert "keys0.w" not in model.params


def test_image_only_model() -> None:
    config = ModelConfig(
        **{**SMALL, "use_fingerprint": False, "use_keys": False}
    )
    model = Model(config, seed=8)
    head_in = model.params["head.w"].shape[0]
    assert head_in == 5 * config.filters
    rng = np.random.default_rng(7)
    images, _, _ = small_inputs(rng)
    probs = model.predict(images)
    assert probs.shape == (2,)


def test_config_validation() -> None:
    with pytest.raises(ConfigError):
        ModelConfig(blocks_per_stage=0)
    with pytest.raises(ConfigError):
        ModelConfig(filters=0)
    with pytest.raises(ConfigError):
        ModelConfig(image_side=8)


def test_wrong_image_side_rejected() -> None:
    model = Model(ModelConfig(**SMALL), seed=9)
    rng = np.random.default_rng(8)
    images, fps, keys = small_inputs(rng, side=16)
    with pytest.raises(ShapeMismatchError):
        model.forward(images, fps, keys)


def test_head_bias_gradient_closed_form() -> None:
    model = Model(ModelConfig(**SMALL), seed=10)
    for name in model.params:
        model.params[name][:] = 0.0
    rng = np.random.default_rng(9)
    images, fps, keys = small_inputs(rng, n=6)
    labels = np.array([1, 0, 1, 1, 0, 0])
    _, cache = model.forward(images, fps, keys)
    _, grads = model.backward(cache, labels)
    assert grads["head.b"][0] == pytest.approx(np.mean(0.5 - labels), rel=1e-12)


def test_saturated_correct_predictions_have_tiny_gradients() -> None:
    model = Model(ModelConfig(**SMALL), seed=11)
    for name in model.params:
        model.params[name][:] = 0.0
    model.params["head.b"][:] = 30.0  # confidently positive
    rng = np.random.default_rng(10)
    images, fps, keys = small_inputs(rng, n=4)
    labels = np.ones(4, dtype=int)
    _, cache = model.forward(images, fps, keys)
    _, grads = model.backward(cache, labels)
    norm = math.sqrt(sum(float((g**2).sum()) for g in grads.values()))
    assert norm < 1e-6


def test_full_model_gradient_check() -> None:
    model = Model(ModelConfig(**SMALL), seed=12)
    rng = np.random.default_rng(11)
    # Zero biases leave pre-activations exactly on ReLU kinks wherever the
    # input to a convolution is all zeros (padding, dead units), where the
    # two-sided difference quotient is not the subgradient backprop uses.
    # Move them off zero, and keep the step small enough that no kink
    # falls inside any stencil: a bias step shifts whole channels, so at
    # 1e-3 it crosses ReLU/maxpool switching points of this small model.
    for name, value in model.params.items():
        if name.endswith(".b"):
            value[:] = rng.normal(0.0, 0.05, size=value.shape)
    images, fps, keys = small_inputs(rng)
    labels = np.array([1, 0])

    def loss() -> float:
        probs, cache = model.forward(images, fps, keys)
        value, _ = bce_with_logits(cache["logits"], labels)
        return value

    _, _, grads = model.loss_and_gradients(images, fps, keys, labels)
    assert set(grads) == set(model.params)
    for name in sorted(model.params):
        check_array_grad(
            loss, model.params[name], grads[name], rng, samples=3, h=1e-5
        )


def test_nonfinite_loss_raises() -> None:
    model = Model(ModelConfig(**SMALL), seed=13)
    model.params["head.w"][0, 0] = np.nan
    rng = np.random.default_rng(12)
    images, fps, keys = small_inputs(rng)
    with pytest.raises(NonFiniteLossError):
        model.loss_and_gradients(images, fps, keys, np.array([1, 0]))


def test_float32_mode() -> None:
    model = Model(ModelConfig(**SMALL), seed=14, dtype=np.float32)
    assert all(p.dtype == np.float32 for p in model.params.values())
    rng = np.random.default_rng(13)
    images, fps, keys = small_inputs(rng)
    probs, _ = model.forward(images, fps, keys)
    assert probs.dtype == np.float32
    loss, _, grads = model.loss_and_gradients(images, fps, keys, np.array([1, 0]))
    assert all(g.dtype == np.float32 for g in grads.values())


# Prints a digest of the float64 probabilities and every gradient, one
# line per (blocks, filters, side, batch) configuration on the command line.
_THREAD_PROBE = """
import hashlib, sys
import numpy as np
from molcap.nn import Model, ModelConfig

for spec in sys.argv[1:]:
    blocks, filters, side, batch = map(int, spec.split(","))
    model = Model(ModelConfig(blocks_per_stage=blocks, filters=filters, image_side=side), seed=1)
    rng = np.random.default_rng(2)
    images = rng.random((batch, side, side))
    fps = rng.integers(0, 2, (batch, model.config.fp_width))
    keys = rng.integers(0, 2, (batch, model.config.keys_width))
    _, probs, grads = model.loss_and_gradients(images, fps, keys, np.arange(batch) % 2)
    digest = hashlib.sha256(probs.tobytes())
    for name in sorted(grads):
        digest.update(grads[name].tobytes())
    print(spec, digest.hexdigest())
"""


def test_float64_results_independent_of_blas_threads() -> None:
    # The desk configuration, criterion 7's 20 px model and the default
    # model at its training batch.
    specs = ["1,4,22,32", "1,4,20,2", "3,16,60,32"]
    source_root = str(Path(molcap.__file__).resolve().parents[1])
    python_path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "PYTHONPATH": python_path,
        }
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE, *specs],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == len(specs)
    assert outputs[0] == outputs[1]


def test_initialization_seeded_and_bounded() -> None:
    a = Model(ModelConfig(**SMALL), seed=15)
    b = Model(ModelConfig(**SMALL), seed=15)
    c = Model(ModelConfig(**SMALL), seed=16)
    assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)
    for name, value in a.params.items():
        if name.endswith(".b"):
            assert np.all(value == 0)
        else:
            fan_in = (
                value.shape[0]
                if value.ndim == 2
                else value.shape[1] * value.shape[2] * value.shape[3]
            )
            assert np.abs(value).max() <= math.sqrt(3.0 / fan_in)


# --------------------------------------------------------------------------
# Optimizer


def test_adam_first_step_magnitude() -> None:
    params = {"w": np.array([1.0])}
    state = init_train_state(params, lr=0.001)
    adam_step(state, {"w": np.array([0.5])})
    assert state.step == 1
    assert abs(1.0 - params["w"][0]) == pytest.approx(0.001, rel=1e-6)


def test_adam_zero_gradient_no_change() -> None:
    params = {"w": np.array([1.0, -2.0]), "b": np.array([0.5])}
    state = init_train_state(params, lr=0.01)
    adam_step(state, {"w": np.zeros(2), "b": np.zeros(1)})
    assert np.array_equal(params["w"], [1.0, -2.0])
    assert np.array_equal(params["b"], [0.5])


def test_adam_matches_scalar_recurrence() -> None:
    # Independent transcription of the published update equations.
    w = 4.0
    m = v = 0.0
    trajectory = []
    for t in range(1, 501):
        g = w - 3.0
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * (g * g)
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        w = w - 0.01 * m_hat / (math.sqrt(v_hat) + 1e-8)
        trajectory.append(w)

    params = {"w": np.array([4.0])}
    state = init_train_state(params, lr=0.01)
    for t in range(500):
        adam_step(state, {"w": params["w"] - 3.0})
        assert params["w"][0] == pytest.approx(trajectory[t], rel=1e-12)
    assert abs(params["w"][0] - 3.0) < 1e-2


def test_adam_rejects_bad_gradients() -> None:
    params = {"w": np.zeros((2, 2))}
    state = init_train_state(params, lr=0.01)
    with pytest.raises(ShapeMismatchError):
        adam_step(state, {})
    with pytest.raises(ShapeMismatchError):
        adam_step(state, {"w": np.zeros(3)})


def test_moment_shapes_mirror_parameters() -> None:
    params = {"a": np.zeros((3, 4)), "b": np.zeros(7)}
    state = init_train_state(params, lr=0.1)
    for name, value in params.items():
        assert state.first_moment[name].shape == value.shape
        assert state.second_moment[name].shape == value.shape
    assert state.current_lr == state.initial_lr == 0.1


def test_plateau_five_stalls_halve() -> None:
    state = init_train_state({"w": np.zeros(1)}, lr=0.001)
    reduce_lr_on_plateau(state, 0.8)
    for _ in range(5):
        reduce_lr_on_plateau(state, 0.8)  # equal is not an improvement
    assert state.current_lr == pytest.approx(0.0005)
    assert state.epochs_since_improvement == 0


def test_plateau_improvement_resets_counter() -> None:
    state = init_train_state({"w": np.zeros(1)}, lr=0.001)
    for metric in (0.7, 0.6, 0.6, 0.6, 0.9):
        reduce_lr_on_plateau(state, metric)
    assert state.current_lr == 0.001
    assert state.epochs_since_improvement == 0
    assert state.best_val_metric == 0.9


def test_plateau_two_halvings_after_ten_stalls() -> None:
    state = init_train_state({"w": np.zeros(1)}, lr=0.001)
    reduce_lr_on_plateau(state, 0.8)
    for _ in range(10):
        reduce_lr_on_plateau(state, 0.5)
    assert state.current_lr == pytest.approx(0.00025)


def test_plateau_pure_function_of_history() -> None:
    script = [0.5, 0.6, 0.6, 0.55, 0.61, 0.61, 0.61, 0.61, 0.61, 0.2, 0.1]

    def run() -> list[float]:
        state = init_train_state({"w": np.zeros(1)}, lr=0.004)
        rates = []
        for metric in script:
            reduce_lr_on_plateau(state, metric, patience=3, factor=0.5)
            rates.append(state.current_lr)
        return rates

    first, second = run(), run()
    assert first == second
    assert all(rate <= 0.004 for rate in first)


# --------------------------------------------------------------------------
# Training loop


def synthetic_data(n=64, side=12, fp=24, keys=16, seed=0, separable=False):
    rng = np.random.default_rng(seed)
    images = (rng.random((n, side, side)) * 0.2).astype(np.float32)
    fingerprints = rng.integers(0, 2, size=(n, fp)).astype(np.uint8)
    key_bits = rng.integers(0, 2, size=(n, keys)).astype(np.uint8)
    if separable:
        labels = (rng.random(n) < 0.5).astype(np.uint8)
        labels[0], labels[1] = 0, 1
        # Signal in every modality, like a visible substructure would be.
        fingerprints[:, 0] = labels
        key_bits[:, 0] = labels
        images[labels == 1, 2:5, 2:5] += 0.5
    else:
        labels = (rng.random(n) < 0.3).astype(np.uint8)
        labels[0], labels[1] = 0, 1
    return CachedDataset(
        images=images,
        fingerprints=fingerprints,
        keys=key_bits,
        labels=labels,
        corpus_hash="",
        featurizer_version=1,
        side=side,
    )


def small_model(seed=0, dtype=np.float64, **overrides) -> Model:
    return Model(ModelConfig(**{**SMALL, **overrides}), seed=seed, dtype=dtype)


def test_train_history_shape() -> None:
    data = synthetic_data()
    model = small_model(seed=1)
    config = TrainConfig(max_epochs=3, batch_size=16, seed=5)
    result = train(model, data, list(range(48)), list(range(48, 64)), config)
    assert [r.epoch for r in result.history] == [1, 2, 3]
    assert all(math.isfinite(r.train_loss) for r in result.history)
    assert all(0.0 <= r.val_auc <= 1.0 for r in result.history)
    assert all(r.lr == 0.001 for r in result.history)  # patience 5 > 3 epochs
    assert all(r.seconds >= 0 for r in result.history)
    assert result.best_epoch in (1, 2, 3)
    assert result.best_val_auc == max(r.val_auc for r in result.history)


def test_train_deterministic_given_seed() -> None:
    data = synthetic_data(seed=3)
    config = TrainConfig(max_epochs=2, batch_size=16, seed=9)
    runs = []
    for _ in range(2):
        model = small_model(seed=2)
        result = train(model, data, list(range(48)), list(range(48, 64)), config)
        runs.append([(r.epoch, r.train_loss, r.val_auc, r.lr) for r in result.history])
    assert runs[0] == runs[1]


def test_train_seed_changes_trajectory() -> None:
    data = synthetic_data(seed=3)
    losses = []
    for seed in (1, 2):
        model = small_model(seed=2)
        config = TrainConfig(max_epochs=1, batch_size=16, seed=seed)
        result = train(model, data, list(range(48)), list(range(48, 64)), config)
        losses.append(result.history[0].train_loss)
    assert losses[0] != losses[1]


def test_train_zero_epochs_initial_state_only() -> None:
    data = synthetic_data(seed=4)
    model = small_model(seed=3)
    initial = {k: v.copy() for k, v in model.params.items()}
    config = TrainConfig(max_epochs=0, seed=1)
    result = train(model, data, list(range(48)), list(range(48, 64)), config)
    assert len(result.history) == 1
    assert result.history[0].epoch == 0
    assert result.best_epoch == 0
    for name in initial:
        assert np.array_equal(model.params[name], initial[name])
        assert np.array_equal(result.best_parameters[name], initial[name])


def test_train_upsamples_only_training_pool() -> None:
    data = synthetic_data(seed=5)
    labels = data.labels
    train_idx = list(range(48))
    val_idx = list(range(48, 64))
    model = small_model(seed=4)
    config = TrainConfig(max_epochs=1, batch_size=16, seed=2)
    result = train(model, data, train_idx, val_idx, config)
    pool = list(result.train_pool)
    assert pool[: len(train_idx)] == train_idx
    assert set(pool) == set(train_idx)  # no validation index leaks in
    pool_labels = [int(labels[i]) for i in pool]
    assert pool_labels.count(0) == pool_labels.count(1)


def test_train_without_upsampling() -> None:
    data = synthetic_data(seed=6)
    model = small_model(seed=5)
    config = TrainConfig(max_epochs=1, batch_size=16, seed=2)
    result = train(
        model, data, list(range(48)), list(range(48, 64)), config, upsample=False
    )
    assert list(result.train_pool) == list(range(48))


def _steps_per_epoch(data, train_size, batch_size) -> int:
    positives = int(data.labels[:train_size].sum())
    pool_size = train_size + abs(train_size - 2 * positives)
    return math.ceil(pool_size / batch_size)


def _poison_after(monkeypatch, n_calls: int) -> None:
    calls = {"n": 0}
    real_step = train_module.adam_step

    def poisoned(state, grads):
        calls["n"] += 1
        out = real_step(state, grads)
        if calls["n"] == n_calls:
            state.parameters["head.w"][0, 0] = np.nan
        return out

    monkeypatch.setattr(train_module, "adam_step", poisoned)


def test_train_nonfinite_keeps_partial_history(monkeypatch) -> None:
    data = synthetic_data(seed=7)
    model = small_model(seed=6)
    config = TrainConfig(max_epochs=5, batch_size=32, seed=3)
    steps = _steps_per_epoch(data, 48, 32)
    assert steps >= 2  # the corrupting batch must not end its epoch
    _poison_after(monkeypatch, steps + 1)  # first update of epoch 2
    with pytest.raises(NonFiniteLossError) as excinfo:
        train(model, data, list(range(48)), list(range(48, 64)), config)
    assert excinfo.value.epoch == 2
    assert len(excinfo.value.history) == 1
    assert excinfo.value.history[0].epoch == 1


def test_train_nonfinite_at_validation_time(monkeypatch) -> None:
    # The last batch of an epoch can break the parameters after its own
    # loss was already computed; validation must still abort the run.
    data = synthetic_data(seed=7)
    model = small_model(seed=6)
    config = TrainConfig(max_epochs=5, batch_size=32, seed=3)
    _poison_after(monkeypatch, _steps_per_epoch(data, 48, 32))
    with pytest.raises(NonFiniteLossError) as excinfo:
        train(model, data, list(range(48)), list(range(48, 64)), config)
    assert excinfo.value.epoch == 1
    assert excinfo.value.history == []


def test_train_loss_decreases_first_epoch_on_separable_task() -> None:
    wins = 0
    for seed in range(10):
        data = synthetic_data(n=96, seed=100 + seed, separable=True)
        model = small_model(seed=seed)
        indices = list(range(72))
        before = train_module._mean_loss(model, data, indices, batch_size=24)
        config = TrainConfig(
            max_epochs=1, batch_size=12, learning_rate=0.01, seed=seed
        )
        train(model, data, indices, list(range(72, 96)), config, augment=False)
        after = train_module._mean_loss(model, data, indices, batch_size=24)
        if after < before:
            wins += 1
    assert wins >= 9


def test_train_empty_split_rejected() -> None:
    data = synthetic_data()
    model = small_model()
    with pytest.raises(ConfigError):
        train(model, data, [], list(range(8)), TrainConfig(max_epochs=1))


def test_train_config_validation() -> None:
    with pytest.raises(ConfigError):
        TrainConfig(lr_factor=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(lr_factor=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=-1)


def test_predict_scores_batching() -> None:
    data = synthetic_data(seed=8)
    model = small_model(seed=7)
    indices = list(range(40))
    small_batches = predict_scores(model, data, indices, batch_size=7)
    one_batch = predict_scores(model, data, indices, batch_size=64)
    assert small_batches.shape == (40,)
    assert np.allclose(small_batches, one_batch, rtol=0, atol=1e-12)


def test_checkpoint_roundtrip(tmp_path) -> None:
    model = small_model(seed=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    restored = load_checkpoint(path)
    assert restored.config == model.config
    assert set(restored.params) == set(model.params)
    for name in model.params:
        assert np.array_equal(restored.params[name], model.params[name])
    rng = np.random.default_rng(20)
    images, fps, keys = small_inputs(rng)
    assert np.array_equal(
        model.predict(images, fps, keys), restored.predict(images, fps, keys)
    )


def test_write_history_csv(tmp_path) -> None:
    data = synthetic_data(seed=9)
    model = small_model(seed=9)
    config = TrainConfig(max_epochs=2, batch_size=16, seed=4)
    result = train(model, data, list(range(48)), list(range(48, 64)), config)
    path = tmp_path / "history.csv"
    write_history_csv(result.history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_auc,lr,seconds"
    assert len(lines) == 3
    epoch, loss, auc, lr, seconds = lines[1].split(",")
    assert int(epoch) == 1
    assert float(loss) == result.history[0].train_loss
    assert float(auc) == result.history[0].val_auc
    assert float(lr) == 0.001
    assert float(seconds) >= 0
