"""Tests for the neural-network kernel.

Every layer's analytic gradient is checked against central finite
differences (step 1e-3, 64-bit, relative error < 1e-4), and Adam is
checked against an independently coded scalar recurrence.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
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
model_module = importlib.import_module("molcap.nn.model")

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
    check_array_grad(loss, w, dw.sum(axis=0), rng)
    check_array_grad(loss, b, db.sum(axis=0), rng)


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
    check_array_grad(loss, w, dw.sum(axis=0), rng)
    check_array_grad(loss, b, db.sum(axis=0), rng)


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
    check_array_grad(loss, w, dw.sum(axis=0), rng)


def tap_sum_dx(dy, w, x_shape, stride) -> np.ndarray:
    """Reference dX, the scatter form: each tap's dY @ W_tap, taps in
    row-major order, added into the tap's view of a zeroed padded
    gradient (a 1x1 stride-1 convolution is the one product alone)."""
    n, h, width, c = x_shape
    f, _, kh, kw = w.shape
    oh, top, bottom = layers.same_pad(h, kh, stride)
    ow, left, right = layers.same_pad(width, kw, stride)
    if kh == kw == stride == 1:
        return dy @ np.ascontiguousarray(w[:, :, 0, 0])
    dpadded = np.zeros((n, h + top + bottom, width + left + right, c), dtype=dy.dtype)
    for i in range(kh):
        for j in range(kw):
            window = dpadded[
                :, i : i + stride * (oh - 1) + 1 : stride, j : j + stride * (ow - 1) + 1 : stride
            ]
            window += dy @ np.ascontiguousarray(w[:, :, i, j])
    return dpadded[:, top : top + h, left : left + width]


@pytest.mark.parametrize(
    "x_shape, w_shape, stride",
    [
        ((3, 7, 7, 3), (4, 3, 3, 3), 1),
        ((3, 8, 8, 2), (3, 2, 3, 3), 2),  # even side: pad splits 0/1
        ((3, 5, 9, 2), (2, 2, 1, 7), 1),
        ((3, 6, 5, 4), (3, 4, 1, 1), 1),
    ],
)
def test_conv2d_backward_gradients_per_image(x_shape, w_shape, stride) -> None:
    # Image i's dW[i] and db[i] are the bytes of a batch holding image i
    # alone, so they do not depend on how a batch is sliced.
    rng = np.random.default_rng(31)
    x = rng.normal(size=x_shape)
    w = rng.normal(size=w_shape)
    b = rng.normal(size=w_shape[0])
    y, cache = layers.conv2d_forward(x, w, b, stride)
    dy = rng.normal(size=y.shape)
    dx, dw, db = layers.conv2d_backward(dy, cache)
    assert dw.shape == (len(x), *w.shape)
    assert db.shape == (len(x), len(b))
    for i in range(len(x)):
        _, alone = layers.conv2d_forward(x[i : i + 1], w, b, stride)
        _, dw_i, db_i = layers.conv2d_backward(dy[i : i + 1], alone)
        assert dw_i[0].tobytes() == dw[i].tobytes()
        assert db_i[0].tobytes() == db[i].tobytes()
    assert dx.tobytes() == tap_sum_dx(dy, w, x.shape, stride).tobytes()


@pytest.mark.parametrize(
    "x_shape, w_shape, stride",
    [
        ((3, 7, 7, 1), (4, 1, 3, 3), 1),  # a stem: one input channel
        ((3, 8, 8, 2), (3, 2, 3, 3), 2),
        ((3, 6, 5, 4), (3, 4, 1, 1), 1),
    ],
)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_conv2d_backward_without_dx_keeps_dw_db_bytes(x_shape, w_shape, stride, dtype) -> None:
    rng = np.random.default_rng(32)
    x = rng.normal(size=x_shape).astype(dtype)
    w = rng.normal(size=w_shape).astype(dtype)
    b = rng.normal(size=w_shape[0]).astype(dtype)
    y, cache = layers.conv2d_forward(x, w, b, stride)
    dy = rng.normal(size=y.shape).astype(dtype)
    _, dw, db = layers.conv2d_backward(dy, cache)
    dx, dw_alone, db_alone = layers.conv2d_backward(dy, cache, need_dx=False)
    assert dx is None
    assert dw_alone.tobytes() == dw.tobytes()
    assert db_alone.tobytes() == db.tobytes()


def tap_rows_dw_db(dy, x, w) -> tuple[np.ndarray, np.ndarray]:
    """Reference stride-1 dW and db, per image: each tap's dY-transposed
    times the tap's view of the padded input, one image row at a time,
    summed over the rows; db sums dY over both spatial axes."""
    f, c, kh, kw = w.shape
    _, top, bottom = layers.same_pad(x.shape[1], kh, 1)
    _, left, right = layers.same_pad(x.shape[2], kw, 1)
    padded = np.pad(x, ((0, 0), (top, bottom), (left, right), (0, 0)))
    dw = np.empty((len(x), f, c, kh, kw), dtype=dy.dtype)
    for i in range(kh):
        for j in range(kw):
            view = padded[:, i : i + x.shape[1], j : j + x.shape[2]]
            dw[..., i, j] = np.matmul(dy.swapaxes(2, 3), view).sum(axis=1)
    return dw, dy.sum(axis=(1, 2))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "x_shape, w_shape",
    [
        # Every stride-1 convolution with more than one tap: the default
        # model (60 px, 16 filters), then the desk model (22 px, 4 filters).
        ((2, 60, 60, 1), (16, 1, 3, 3)),
        ((2, 60, 60, 16), (16, 16, 3, 3)),
        ((2, 30, 30, 16), (16, 16, 1, 7)),
        ((2, 15, 15, 16), (16, 16, 1, 3)),
        ((2, 22, 22, 1), (4, 1, 3, 3)),
        ((2, 22, 22, 4), (4, 4, 3, 3)),
        ((2, 11, 11, 4), (4, 4, 1, 7)),
        ((2, 6, 6, 4), (4, 4, 1, 3)),
    ],
)
def test_gather_dx_keeps_scatter_bytes(x_shape, w_shape, dtype) -> None:
    # dY as a ReLU mask leaves it: exact zeros and -0.0 among the values,
    # and bands of -0.0 wide enough that some dX cells get only zero
    # products.  Padded zeros must not change any cell's bytes.
    rng = np.random.default_rng(34)
    x = rng.normal(size=x_shape).astype(dtype)
    w = rng.normal(size=w_shape).astype(dtype)
    b = rng.normal(size=w_shape[0]).astype(dtype)
    y, cache = layers.conv2d_forward(x, w, b, 1)
    # perfbench/tracer.py reads x.shape, w and stride from these positions.
    padded, shape, padded_shape, cached_w, stride, out_shape, pad = cache
    assert cached_w is w and (shape, stride, out_shape) == (x.shape, 1, y.shape[1:3])
    assert padded_shape == padded.shape and len(pad) == 2
    dy = rng.normal(size=y.shape).astype(dtype)
    dy[rng.random(dy.shape) < 0.3] = 0.0
    dy[rng.random(dy.shape) < 0.3] = -0.0
    dy[:, : x_shape[1] // 3] = -0.0
    dy[:, :, : x_shape[2] // 3] = -0.0
    dx, dw, db = layers.conv2d_backward(dy, cache)
    assert dx.dtype == dtype and dx.shape == x.shape
    assert dx.tobytes() == tap_sum_dx(dy, w, x.shape, 1).tobytes()
    dw_ref, db_ref = tap_rows_dw_db(dy, x, w)
    no_dx, dw_alone, db_alone = layers.conv2d_backward(dy, cache, need_dx=False)
    assert no_dx is None
    for got in (dw, dw_alone):
        assert got.dtype == dtype and got.tobytes() == dw_ref.tobytes()
    for got in (db, db_alone):
        assert got.dtype == dtype and got.tobytes() == db_ref.tobytes()


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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("value", [0.0, -np.inf])
@pytest.mark.parametrize(
    "x_shape, kernel, stride",
    [
        ((2, 7, 7, 3), (3, 3), 1),  # one row and column on every side
        ((2, 8, 8, 16), (3, 3), 2),  # even side: pad splits 0/1
        ((2, 5, 9, 1), (1, 7), 1),
        ((2, 6, 5, 4), (1, 3), 1),
    ],
)
def test_pad_matches_np_pad(x_shape, kernel, stride, value, dtype) -> None:
    x = np.random.default_rng(32).normal(size=x_shape).astype(dtype)
    padded, (oh, ow), (top, left) = layers._pad(x, *kernel, stride, value)
    oh_, top_, bottom = layers.same_pad(x_shape[1], kernel[0], stride)
    ow_, left_, right = layers.same_pad(x_shape[2], kernel[1], stride)
    expected = np.pad(
        x, ((0, 0), (top_, bottom), (left_, right), (0, 0)), constant_values=value
    )
    assert (oh, ow, top, left) == (oh_, ow_, top_, left_)
    assert padded.dtype == dtype and padded.flags.c_contiguous
    assert padded.shape == expected.shape
    assert padded.tobytes() == expected.tobytes()


def test_pad_returns_input_when_none_needed() -> None:
    x = np.zeros((2, 8, 8, 3))
    assert layers._pad(x, 1, 1, 1)[0] is x
    assert layers._pad(x, 2, 2, 2, -np.inf)[0] is x


def tap_matmul_conv(x, w, b, stride) -> np.ndarray:
    """Reference forward: each tap's strided view of the padded input
    times W_tap through np.matmul, taps in row-major order, plus bias."""
    n, h, width, c = x.shape
    f, _, kh, kw = w.shape
    oh, top, bottom = layers.same_pad(h, kh, stride)
    ow, left, right = layers.same_pad(width, kw, stride)
    padded = np.pad(x, ((0, 0), (top, bottom), (left, right), (0, 0)))
    y = None
    for i in range(kh):
        for j in range(kw):
            view = padded[
                :, i : i + stride * (oh - 1) + 1 : stride, j : j + stride * (ow - 1) + 1 : stride
            ]
            tap = np.matmul(view, np.ascontiguousarray(w[:, :, i, j].T))
            y = tap if y is None else y + tap
    return y + b


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "side, kernel, stride", [(60, (3, 3), 1), (22, (3, 3), 2), (22, (1, 7), 1)]
)
def test_one_channel_conv_matches_tap_matmuls(side, kernel, stride, dtype) -> None:
    # Rasters in [0, 1] with blank regions, half the biases zero: zero
    # products meet negative weights, as in the stem.
    rng = np.random.default_rng(33)
    x = rng.random((3, side, side, 1)).astype(dtype)
    x[:, : side // 3] = 0.0
    w = rng.normal(size=(16, 1, *kernel)).astype(dtype)
    b = np.where(np.arange(16) % 2 == 0, 0.0, rng.normal(size=16)).astype(dtype)
    y, _ = layers.conv2d_forward(x, w, b, stride)
    expected = tap_matmul_conv(x, w, b, stride)
    assert y.dtype == expected.dtype == dtype
    assert y.tobytes() == expected.tobytes()


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
    unit = next(unit for unit in model._plan if unit.name == "a0")
    out, _ = model._unit_forward(unit, x)
    assert np.array_equal(out, np.maximum(x, 0.0))


@pytest.mark.parametrize(
    "blocks, filters, side", [(1, 4, 22), (3, 16, 60)], ids=["desk", "default"]
)
def test_example_scored_alone_gets_its_batch_bytes(blocks, filters, side) -> None:
    # No layer may let a row's float64 result depend on its neighbours,
    # such as one BLAS product blocking the whole batch in a dense layer.
    model = Model(ModelConfig(blocks_per_stage=blocks, filters=filters, image_side=side), seed=2)
    rng = np.random.default_rng(24)
    images = rng.random((32, side, side))
    fps = rng.integers(0, 2, (32, model.config.fp_width))
    keys = rng.integers(0, 2, (32, model.config.keys_width))
    batch = model.predict(images, fps, keys)
    for i in range(32):
        alone = model.predict(images[i : i + 1], fps[i : i + 1], keys[i : i + 1])
        assert alone.tobytes() == batch[i : i + 1].tobytes(), i


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
    # Channels-last (N, side, side, 1) is not an accepted form either.
    images, fps, keys = small_inputs(rng)
    with pytest.raises(ShapeMismatchError):
        model.forward(images[:, :, :, None], fps, keys)


def test_bad_caption_inputs_rejected() -> None:
    model = Model(ModelConfig(**SMALL), seed=9)
    rng = np.random.default_rng(8)
    images, fps, keys = small_inputs(rng, n=3)
    for bad_fps, bad_keys in (
        (None, keys),
        (fps, None),
        (fps[0], keys),
        (fps, keys[:, 0]),
        (fps[:2], keys),
        (fps, keys[:2]),
    ):
        with pytest.raises(ShapeMismatchError):
            model.forward(images, bad_fps, bad_keys)


def test_head_bias_gradient_closed_form() -> None:
    model = Model(ModelConfig(**SMALL), seed=10)
    for name in model.params:
        model.params[name][:] = 0.0
    rng = np.random.default_rng(9)
    images, fps, keys = small_inputs(rng, n=6)
    labels = np.array([1, 0, 1, 1, 0, 0])
    _, cache = model.forward(images, fps, keys, labels)
    _, grads = model.backward(cache)
    assert grads["head.b"][0] == pytest.approx(np.mean(0.5 - labels), rel=1e-12)


def test_saturated_correct_predictions_have_tiny_gradients() -> None:
    model = Model(ModelConfig(**SMALL), seed=11)
    for name in model.params:
        model.params[name][:] = 0.0
    model.params["head.b"][:] = 30.0  # confidently positive
    rng = np.random.default_rng(10)
    images, fps, keys = small_inputs(rng, n=4)
    labels = np.ones(4, dtype=int)
    _, cache = model.forward(images, fps, keys, labels)
    _, grads = model.backward(cache)
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
import hashlib, os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from molcap.nn import Model, ModelConfig

for spec in sys.argv[2:]:
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
    # model at its training batch.  The last child is pinned to one CPU,
    # so its layers run every batch slice in the calling thread.
    specs = ["1,4,22,32", "1,4,20,2", "3,16,60,32"]
    source_root = str(Path(molcap.__file__).resolve().parents[1])
    python_path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads, cpus in (("1", "all"), ("2", "all"), ("2", "pinned")):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "PYTHONPATH": python_path,
        }
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE, cpus, *specs],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == len(specs)
    assert outputs[0] == outputs[1] == outputs[2]


# _THREAD_PROBE with float32 parameters.
_THREAD_PROBE_F32 = _THREAD_PROBE.replace("seed=1)", "seed=1, dtype=np.float32)")


def test_float32_results_independent_of_blas_threads() -> None:
    # The same configurations and children as the float64 test above.
    assert _THREAD_PROBE_F32 != _THREAD_PROBE
    specs = ["1,4,22,32", "1,4,20,2", "3,16,60,32"]
    source_root = str(Path(molcap.__file__).resolve().parents[1])
    python_path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads, cpus in (("1", "all"), ("2", "all"), ("2", "pinned")):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "PYTHONPATH": python_path,
        }
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE_F32, cpus, *specs],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == len(specs)
    assert outputs[0] == outputs[1] == outputs[2]


def _model_bytes(model: Model, batch: int) -> list[bytes]:
    """Probabilities, loss, every gradient and predict's output, as bytes."""
    side = model.config.image_side
    rng = np.random.default_rng(21)
    images = rng.random((batch, side, side))
    fps = rng.integers(0, 2, (batch, model.config.fp_width))
    keys = rng.integers(0, 2, (batch, model.config.keys_width))
    loss, probs, grads = model.loss_and_gradients(images, fps, keys, np.arange(batch) % 2)
    return [
        probs.tobytes(),
        repr(loss).encode(),
        *(name.encode() + grads[name].tobytes() for name in grads),
        model.predict(images, fps, keys).tobytes(),
    ]


def test_model_split_independent_of_slices_and_workers(monkeypatch) -> None:
    # A 60 px, 16-filter model: at batch 7 its stem output is above the
    # split threshold.  The odd batch runs as one slice, then in slices
    # of 1, 2 and 3 images (the last one short) on 1, 2 and 3 workers
    # (more CPUs than some machines have).  Frequent thread switches
    # shake out any slice that writes outside its rows or adds its dW
    # and db out of turn.
    model = Model(ModelConfig(blocks_per_stage=1, filters=16, image_side=60), seed=23)
    image_size = 60 * 60 * 16
    assert 7 * image_size >= model_module._SPLIT_MIN
    monkeypatch.setattr(model_module, "_workers", lambda: 1)
    monkeypatch.setattr(model_module, "_SPLIT_MIN", 7 * image_size)
    whole = _model_bytes(model, 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            for images in (1, 2, 3):
                monkeypatch.setattr(model_module, "_workers", lambda n=workers: n)
                monkeypatch.setattr(model_module, "_SPLIT_MIN", images * image_size)
                assert _model_bytes(model, 7) == whole, (workers, images)
    finally:
        sys.setswitchinterval(interval)


def test_float32_model_split_independent_of_slices_and_workers(monkeypatch) -> None:
    # The slice and worker sweep above, on a float32 (--fast32) model.
    model = Model(
        ModelConfig(blocks_per_stage=1, filters=16, image_side=60), seed=23, dtype=np.float32
    )
    image_size = 60 * 60 * 16
    monkeypatch.setattr(model_module, "_workers", lambda: 1)
    monkeypatch.setattr(model_module, "_SPLIT_MIN", 7 * image_size)
    whole = _model_bytes(model, 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            for images in (1, 2, 3):
                monkeypatch.setattr(model_module, "_workers", lambda n=workers: n)
                monkeypatch.setattr(model_module, "_SPLIT_MIN", images * image_size)
                assert _model_bytes(model, 7) == whole, (workers, images)
    finally:
        sys.setswitchinterval(interval)


def test_default_batch_runs_in_one_image_slices() -> None:
    # Batch 32 of the default model (57,600 stem-output elements per
    # image, under 2**16): 32 slices of one image each.  The desk model
    # (1,936 per image) runs a whole share of 16 images as one slice.
    assert model_module._batch_slices(32, 32 * 60 * 60 * 16) == [
        (lo, lo + 1) for lo in range(32)
    ]
    assert model_module._batch_slices(5, 5 * 60 * 60 * 16) == [(k, k + 1) for k in range(5)]
    assert model_module._batch_slices(16, 16 * 22 * 22 * 4) == [(0, 16)]


def _arrays_reachable(obj) -> list[np.ndarray]:
    """Every array in a tree of dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [a for value in obj for a in _arrays_reachable(value)]
    return []


def _split_model_step(model: Model, batch: int) -> tuple:
    """Inputs and labels of one step of a 60 px model."""
    rng = np.random.default_rng(5)
    return (
        rng.random((batch, 60, 60)),
        rng.integers(0, 2, (batch, model.config.fp_width)),
        rng.integers(0, 2, (batch, model.config.keys_width)),
        np.arange(batch) % 2,
    )


def test_forward_frees_trunk_activations() -> None:
    # Five one-image slices.  Activations, masks, padded inputs and pooling
    # argmaxes are all (N, H, W, C); a labelled forward leaves none in its
    # cache, only each image's convolution gradients, which backward
    # consumes.
    model = Model(ModelConfig(blocks_per_stage=1, filters=16, image_side=60), seed=4)
    *inputs, labels = _split_model_step(model, 5)
    _, cache = model.forward(*inputs, labels)
    assert len(cache["per_image"]) == 5
    assert all(a.ndim != 4 for a in _arrays_reachable(cache))
    assert any(a.shape == (1, 16, 1, 3, 3) for a in _arrays_reachable(cache["per_image"]))
    model.backward(cache)
    assert "per_image" not in cache
    with pytest.raises(ValueError, match="labels="):
        model.backward(cache)


def test_scoring_keeps_no_trunk_array() -> None:
    model = Model(ModelConfig(blocks_per_stage=1, filters=16, image_side=60), seed=4)
    *inputs, labels = _split_model_step(model, 5)
    probs, cache = model.forward(*inputs)
    assert list(cache) == ["logits"]
    assert cache["logits"].shape == (5, 1)
    assert np.array_equal(probs, sigmoid(cache["logits"]))
    with pytest.raises(ValueError, match="labels="):
        model.backward(cache)


def test_forward_refuses_wrong_label_count() -> None:
    model = Model(ModelConfig(**SMALL), seed=4)
    images, fps, keys = small_inputs(np.random.default_rng(6), n=3)
    with pytest.raises(ShapeMismatchError):
        model.forward(images, fps, keys, np.array([1, 0]))


def _share_peak(model: Model, rows: int, batch: int = 32) -> int:
    """tracemalloc peak of one process's share of a training step: the
    trunk and head of ``rows`` images of a batch of ``batch``, in slices."""
    side = model.config.image_side
    rng = np.random.default_rng(5)
    x = rng.random((rows, side, side, 1))
    captions = rng.random((rows, len(model.params["head.w"]) - model._trunk_width))
    labels = (np.arange(rows) % 2).astype(float).reshape(-1, 1)
    slices = model_module._batch_slices(rows, rows * side * side * model.config.filters)
    tracemalloc.start()
    try:
        model._share(x, captions, labels, batch, slices)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_step_memory_follows_slices_in_flight() -> None:
    # Each process runs its share in one-image slices, one after another.
    # A share of 16 images (batch 32 on two CPUs) then holds about the
    # activations of a share of 4 (batch 8), each image's gradients aside:
    # 1.4x here.  Running each share as one slice reads 4.0x.
    model = Model(ModelConfig(blocks_per_stage=1, filters=16, image_side=60), seed=4)
    assert model_module._batch_slices(16, 16 * 60 * 60 * 16)[-1] == (15, 16)
    assert _share_peak(model, 16) <= 1.5 * _share_peak(model, 4)


def test_default_step_memory_on_two_cpus(monkeypatch) -> None:
    # A float64 default-model step at batch 32 on two CPUs: the calling
    # process runs share 0 (16 images) one image at a time and gathers
    # every image's convolution gradients (about 16 MB), about 28 MB; a
    # worker's share of 16 images peaks at about 25 MB, where two-image
    # slices peak at about 40 MB, four-image ones at about 70 MB and one
    # slice at 255.
    # A step made under four CPUs comes first: its three workers must
    # give way to one once two CPUs remain.
    model = Model(ModelConfig(), seed=4)
    inputs = _split_model_step(model, 32)
    monkeypatch.setattr(model_module, "_workers", lambda: 4)
    model.loss_and_gradients(*inputs)
    assert len(model_module._pool.processes) == 3
    monkeypatch.setattr(model_module, "_workers", lambda: 2)
    model.loss_and_gradients(*inputs)  # the pool starts outside the trace
    assert len(model_module._pool.processes) == 1
    tracemalloc.start()
    try:
        model.loss_and_gradients(*inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 35e6
    assert _share_peak(model, 16) <= 35e6


def test_model_split_threshold() -> None:
    # The desk model's batch of 32 (1,936 stem-output elements an image)
    # runs in two shares on two CPUs, and the default model's too.
    desk = 22 * 22 * 4
    assert model_module._shares(32, 32 * desk, 2) == [(0, 16), (16, 32)]
    assert model_module._shares(32, 32 * 60 * 60 * 16, 2) == [(0, 16), (16, 32)]
    # Share 0, the calling process's, is never the larger.
    assert model_module._shares(7, 7 * desk, 2) == [(0, 3), (3, 7)]
    # A share needs at least _SHARE_MIN elements, and one row; otherwise
    # the batch runs in the calling process.
    assert 4 * desk < 2 * model_module._SHARE_MIN <= 5 * desk
    assert model_module._shares(4, 4 * desk, 2) == [(0, 4)]
    assert model_module._shares(5, 5 * desk, 2) == [(0, 2), (2, 5)]
    assert model_module._shares(1, 60 * 60 * 16, 2) == [(0, 1)]
    assert model_module._shares(32, 32 * desk, 1) == [(0, 32)]
    # Four CPUs: a batch of 8 holds three shares' worth, not four.
    assert model_module._shares(8, 8 * desk, 4) == [(0, 2), (2, 5), (5, 8)]


class _FailingModel(Model):
    """A model whose share fails when it holds a marked image.

    Image k is filled with (k + 1) / 64, negated to mark it.  With
    ``kill`` set, a worker process that gets a marked image kills itself
    instead.  Defined at module level, so a worker can unpickle it under
    any start method.
    """

    kill = False
    caller = 0  # the pid of the process that calls forward

    def _share(self, x, *rest):
        marked = [round(-v * 64) - 1 for v in x[:, 0, 0, 0] if v < 0]
        if marked and self.kill and os.getpid() != self.caller:
            os.kill(os.getpid(), signal.SIGKILL)
        if marked:
            raise RuntimeError(f"image {marked[0]} failed")
        return super()._share(x, *rest)


_DESK = ModelConfig(blocks_per_stage=1, filters=4, image_side=22)


def _marked_step(model: Model, batch: int, marked: tuple[int, ...]):
    """A training step on images k = (k + 1) / 64, the marked ones negated."""
    images = np.arange(1, batch + 1)[:, None, None] / 64 * np.ones((batch, 22, 22))
    images[list(marked)] *= -1
    rng = np.random.default_rng(2)
    fps = rng.integers(0, 2, (batch, model.config.fp_width))
    keys = rng.integers(0, 2, (batch, model.config.keys_width))
    return model.loss_and_gradients(images, fps, keys, np.arange(batch) % 2)


def test_failing_share_reaches_caller(monkeypatch) -> None:
    # Two shares of a desk batch of 32; image 20, in the worker's share,
    # fails.  The error reaches the caller, with the worker's traceback as
    # its cause, and the next step, on the same workers, gives the calling
    # process's own bytes.
    monkeypatch.setattr(model_module, "_workers", lambda: 1)
    reference = _model_bytes(Model(_DESK, seed=1), 32)
    monkeypatch.setattr(model_module, "_workers", lambda: 2)
    model = _FailingModel(_DESK, seed=1)
    with pytest.raises(RuntimeError, match="image 20 failed") as failed:
        _marked_step(model, 32, (20,))
    assert "in _share" in str(failed.value.__cause__)  # the worker's traceback
    pool = model_module._pool
    assert _model_bytes(model, 32) == reference
    assert model_module._pool is pool


def test_lowest_failing_share_reaches_caller(monkeypatch) -> None:
    # Three shares of a desk batch of 6, two images each, on three
    # processes.  Shares 1 and 2 fail: the caller gets share 1's error.
    # Shares 0 and 2 fail: share 0's, raised in the calling process,
    # which stops the workers; the next step starts new ones.
    monkeypatch.setattr(model_module, "_workers", lambda: 3)
    monkeypatch.setattr(model_module, "_SHARE_MIN", 1)
    model = _FailingModel(_DESK, seed=1)
    with pytest.raises(RuntimeError, match="image 3 failed"):
        _marked_step(model, 6, (5, 3))
    workers = model_module._pool.processes
    with pytest.raises(RuntimeError, match="image 1 failed"):
        _marked_step(model, 6, (1, 4))
    assert model_module._pool is None
    assert not any(process.is_alive() for process in workers)
    _marked_step(model, 6, ())
    assert len(model_module._pool.processes) == 2


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in the block if it runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL and SIGALRM")
def test_killed_worker_gives_clear_error(monkeypatch) -> None:
    # The worker is killed while the calling process waits for its share.
    # The caller gets an error naming the worker and its exit code, not a
    # hang, and the next step starts a new worker and gets the bytes of
    # the calling process alone.
    monkeypatch.setattr(model_module, "_workers", lambda: 1)
    reference = _model_bytes(Model(_DESK, seed=1), 32)
    monkeypatch.setattr(model_module, "_workers", lambda: 2)
    model = _FailingModel(_DESK, seed=1)
    model.kill, model.caller = True, os.getpid()
    _marked_step(model, 32, ())
    [worker] = model_module._pool.processes
    with _deadline(60):
        with pytest.raises(RuntimeError, match=f"process {worker.pid} exited with code -9"):
            _marked_step(model, 32, (31,))
    assert model_module._pool is None
    assert _model_bytes(model, 32) == reference
    assert model_module._pool.processes[0].pid != worker.pid


# Runs a desk step on two shares with the start method named on the
# command line, and prints whether its bytes equal the calling process's
# alone, then the pids of its workers.  Guarded, as a script must be
# under spawn.
_WORKER_PROBE = """
import multiprocessing, sys
import numpy as np
from molcap.nn import Model, ModelConfig, model as model_module

def step_bytes():
    model = Model(ModelConfig(blocks_per_stage=1, filters=4, image_side=22), seed=1)
    rng = np.random.default_rng(2)
    images = rng.random((32, 22, 22))
    fps = rng.integers(0, 2, (32, model.config.fp_width))
    keys = rng.integers(0, 2, (32, model.config.keys_width))
    loss, probs, grads = model.loss_and_gradients(images, fps, keys, np.arange(32) % 2)
    scores = model.predict(images, fps, keys)
    return [repr(loss), probs.tobytes(), scores.tobytes(), *(g.tobytes() for g in grads.values())]

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    model_module._workers = lambda: 1
    alone = step_bytes()
    model_module._workers = lambda: 2
    print(step_bytes() == alone)
    print(*(process.pid for process in model_module._pool.processes))
"""


def _running(pid: int) -> bool:
    """Whether a process with this pid runs (a zombie does not)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_workers_end_with_their_interpreter(method) -> None:
    # A child interpreter runs a desk step on two shares and exits; its
    # workers exit with it.  Under spawn, workers unpickle the model and
    # its share anew, and still give the bytes of the calling process.
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    source_root = str(Path(molcap.__file__).resolve().parents[1])
    python_path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER_PROBE, method],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": python_path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    same, pids = proc.stdout.splitlines()
    assert same == "True"
    pids = [int(pid) for pid in pids.split()]
    assert len(pids) == 1
    deadline = time.monotonic() + 5
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, pids))


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


@pytest.mark.parametrize(
    "cfg, count, digest",
    [
        ({}, 106, "a1ab1ad43c049c27a6e80c9df5dcb2016b61db46436a756357129226c58712ba"),
        (
            dict(blocks_per_stage=1, filters=4, image_side=22),
            50,
            "abf85072defa2833b686973543f7f38731a9a5262bb1c2d92674d7a19939f98c",
        ),
        (
            dict(blocks_per_stage=2, filters=8, image_side=40, use_fingerprint=False),
            76,
            "5bbb91db4e0d7bb663a0e560798ae6cbf66dc133b0e9842a0d59a198215ca841",
        ),
    ],
)
def test_parameter_layout_and_init_order_pinned(cfg, count, digest) -> None:
    # Names, shapes, order and seeded values of every parameter; PCG64
    # draws are the same on every machine.  A saved checkpoint loads only
    # into the same names and shapes, and the init order fixes a seeded
    # run's weights and so its model.ckpt bytes.
    model = Model(ModelConfig(**cfg), seed=1)
    h = hashlib.sha256()
    for name, value in model.params.items():
        h.update(f"{name}{value.shape}".encode() + value.tobytes())
    assert len(model.params) == count
    assert h.hexdigest() == digest


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
    assert state.current_lr == 0.1


def test_plateau_five_stalls_halve() -> None:
    state = init_train_state({"w": np.zeros(1)}, lr=0.001)
    assert reduce_lr_on_plateau(state, 0.8, patience=5, factor=0.5)
    for _ in range(5):
        # Equal is not an improvement.
        assert not reduce_lr_on_plateau(state, 0.8, patience=5, factor=0.5)
    assert state.current_lr == pytest.approx(0.0005)
    assert state.epochs_since_improvement == 0


def test_plateau_improvement_resets_counter() -> None:
    state = init_train_state({"w": np.zeros(1)}, lr=0.001)
    improved = [
        reduce_lr_on_plateau(state, metric, patience=5, factor=0.5)
        for metric in (0.7, 0.6, 0.6, 0.6, 0.9)
    ]
    assert improved == [True, False, False, False, True]
    assert state.current_lr == 0.001
    assert state.epochs_since_improvement == 0
    assert state.best_val_metric == 0.9


def test_plateau_two_halvings_after_ten_stalls() -> None:
    state = init_train_state({"w": np.zeros(1)}, lr=0.001)
    reduce_lr_on_plateau(state, 0.8, patience=5, factor=0.5)
    for _ in range(10):
        reduce_lr_on_plateau(state, 0.5, patience=5, factor=0.5)
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
    """A dataset as read_cache returns it: palette codes (intensities up to
    0.2) and packed fingerprints."""
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 17, size=(n, side, side), dtype=np.uint8)
    fingerprints = rng.integers(0, 2, size=(n, fp)).astype(np.uint8)
    key_bits = rng.integers(0, 2, size=(n, keys)).astype(np.uint8)
    if separable:
        labels = (rng.random(n) < 0.5).astype(np.uint8)
        labels[0], labels[1] = 0, 1
        # Signal in every modality, like a visible substructure would be.
        fingerprints[:, 0] = labels
        key_bits[:, 0] = labels
        images[labels == 1, 2:5, 2:5] += 40  # +0.5
    else:
        labels = (rng.random(n) < 0.3).astype(np.uint8)
        labels[0], labels[1] = 0, 1
    return CachedDataset(
        images=images,
        fingerprints=np.packbits(fingerprints, axis=1),
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


def test_train_keeps_best_epoch_scores() -> None:
    data = synthetic_data(seed=6)
    val_idx = list(range(48, 64))
    config = TrainConfig(max_epochs=3, batch_size=16, seed=5)
    result = train(small_model(seed=1), data, list(range(48)), val_idx, config)
    rescored = small_model(seed=1)
    rescored.params = result.best_parameters
    scores = predict_scores(rescored, data, val_idx, config.batch_size)
    assert result.best_val_scores.tobytes() == scores.tobytes()
    assert result.history[result.best_epoch - 1].val_auc == result.best_val_auc


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
