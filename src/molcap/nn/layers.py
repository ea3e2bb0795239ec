"""Numpy layer primitives with explicit forward and backward passes.

Every forward function returns (output, cache); the matching backward
function consumes the upstream gradient plus that cache and returns the
input gradient together with any parameter gradients.  All operations
preserve the dtype of their inputs, so the same code runs in 64-bit
(gradient checks, deterministic tests) and 32-bit (fast training).

Image tensors are channels-last, (N, H, W, C), and stay contiguous from
layer to layer.  Convolution filters keep the (F, C, kh, kw) layout of
the parameters and checkpoints.  A convolution is a sum of kh*kw
shifted matmuls: kernel tap (i, j) meets one strided view of the padded
input, an (N, Ho, Wo, C) array that multiplies the tap's (C, F) slice of
the filters, so every product has K = C.  A 1x1 convolution is therefore
a single matmul with no padding.  Backward walks the same taps: dX adds
each dY @ (F, C) product into the tap's view of a zeroed padded
gradient, and dW sums tap-transposed-times-dY products.  A convolution
caches only its padded input (its input, for a 1x1), never a patch
matrix: a default-model forward pass keeps about 15 MB per example in
float64.

The matmuls run on 4-D operands, which NumPy hands to BLAS one image row
at a time.  For the model's layer sizes each such product is below
OpenBLAS's threading threshold, so it runs on one thread and float64
results do not depend on the BLAS thread count.

Convolutions and pooling use TensorFlow-style "same" padding: the
output side is ceil(input / stride) and any asymmetric padding puts the
extra row/column at the bottom/right.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from ..errors import ShapeMismatchError

__all__ = [
    "same_pad",
    "conv2d_forward",
    "conv2d_backward",
    "dense_forward",
    "dense_backward",
    "relu_forward",
    "relu_backward",
    "maxpool_forward",
    "maxpool_backward",
    "global_avg_pool_forward",
    "global_avg_pool_backward",
    "concat_forward",
    "concat_backward",
    "sigmoid",
    "bce_with_logits",
]


def same_pad(size: int, kernel: int, stride: int) -> tuple[int, int, int]:
    """TF-style padding: (output size, pad before, pad after)."""
    out = math.ceil(size / stride)
    total = max((out - 1) * stride + kernel - size, 0)
    before = total // 2
    return out, before, total - before


def _pad(x: np.ndarray, kh: int, kw: int, stride: int, value: float = 0.0):
    """Same-pad the spatial axes of a NHWC batch.

    Returns (padded batch, (Ho, Wo), (pad top, pad left)); the batch
    itself comes back when no padding is needed.
    """
    _, h, w, _ = x.shape
    oh, pbh, peh = same_pad(h, kh, stride)
    ow, pbw, pew = same_pad(w, kw, stride)
    if pbh or peh or pbw or pew:
        x = np.pad(x, ((0, 0), (pbh, peh), (pbw, pew), (0, 0)), constant_values=value)
    return x, (oh, ow), (pbh, pbw)


def _tap(padded: np.ndarray, i: int, j: int, stride: int, oh: int, ow: int):
    """View of the cells kernel tap (i, j) meets, one per output cell."""
    return padded[
        :, i : i + stride * (oh - 1) + 1 : stride, j : j + stride * (ow - 1) + 1 : stride
    ]


# --------------------------------------------------------------------------
# Convolution


def conv2d_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1
) -> tuple[np.ndarray, tuple]:
    """Cross-correlate a NHWC batch with filters (F, C, kh, kw).

    Args:
        x: Input batch, shape (N, H, W, C).
        w: Filters, shape (F, C, kh, kw).
        b: Per-filter bias, shape (F,).
        stride: Step in both spatial directions.

    Returns:
        (output (N, ceil(H/stride), ceil(W/stride), F), backward cache).

    Raises:
        ShapeMismatchError: Input channels disagree with the filters.
    """
    n, h, width, c = x.shape
    f, wc, kh, kw = w.shape
    if wc != c:
        raise ShapeMismatchError((n, h, width, wc), x.shape)
    padded, (oh, ow), pad = _pad(x, kh, kw, stride)
    taps = np.ascontiguousarray(w.transpose(2, 3, 1, 0))  # (kh, kw, C, F)
    first, *rest = product(range(kh), range(kw))
    y = _tap(padded, *first, stride, oh, ow) @ taps[first]
    part = np.empty_like(y)
    for i, j in rest:
        y += np.matmul(_tap(padded, i, j, stride, oh, ow), taps[i, j], out=part)
    y += b
    # perfbench/tracer.py reads x.shape, w and stride from these positions.
    cache = (padded, x.shape, padded.shape, w, stride, (oh, ow), pad)
    return y, cache


def conv2d_backward(
    dy: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv2d_forward: returns (dx, dw, db)."""
    padded, x_shape, padded_shape, w, stride, (oh, ow), (pbh, pbw) = cache
    _, h, width, _ = x_shape
    _, _, kh, kw = w.shape
    taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1))  # (kh, kw, F, C)
    dy_t = dy.swapaxes(2, 3)
    dw = np.empty(w.shape, dtype=dy.dtype)
    db = dy.sum(axis=(0, 1, 2))
    if kh == kw == stride == 1:  # one tap covers the unpadded input
        dw[:, :, 0, 0] = (dy_t @ padded).sum(axis=(0, 1))
        return dy @ taps[0, 0], dw, db
    dpadded = np.zeros(padded_shape, dtype=dy.dtype)
    part = np.empty(dy.shape[:3] + (padded_shape[3],), dtype=dy.dtype)
    for i, j in product(range(kh), range(kw)):
        dw[:, :, i, j] = (dy_t @ _tap(padded, i, j, stride, oh, ow)).sum(axis=(0, 1))
        window = _tap(dpadded, i, j, stride, oh, ow)
        window += np.matmul(dy, taps[i, j], out=part)
    return dpadded[:, pbh : pbh + h, pbw : pbw + width], dw, db


# --------------------------------------------------------------------------
# Dense


def dense_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Affine map of a (N, D) batch by (D, M) weights plus (M,) bias."""
    if x.shape[1] != w.shape[0]:
        raise ShapeMismatchError((x.shape[0], w.shape[0]), x.shape)
    return x @ w + b, (x, w)


def dense_backward(
    dy: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x, w = cache
    return dy @ w.T, x.T @ dy, dy.sum(axis=0)


# --------------------------------------------------------------------------
# Activations and pooling


def relu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.maximum(x, 0), x > 0


def relu_backward(dy: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return dy * mask


def maxpool_forward(
    x: np.ndarray, size: int = 3, stride: int = 2
) -> tuple[np.ndarray, tuple]:
    """Max pooling of a NHWC batch with same padding; ties resolve to the
    first cell in row-major window order."""
    padded, (oh, ow), pad = _pad(x, size, size, stride, value=-np.inf)
    out = _tap(padded, 0, 0, stride, oh, ow).copy()
    # Window position of each maximum, as a row-major tap index.
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(size * size - 1))
    for t, (i, j) in enumerate(product(range(size), range(size))):
        cells = _tap(padded, i, j, stride, oh, ow)
        np.putmask(arg, cells > out, t)
        np.maximum(out, cells, out=out)
    cache = (x.shape, padded.shape, arg, size, stride, (oh, ow), pad)
    return out, cache


def maxpool_backward(dy: np.ndarray, cache: tuple) -> np.ndarray:
    x_shape, padded_shape, arg, size, stride, (oh, ow), (pbh, pbw) = cache
    _, h, w, _ = x_shape
    dpadded = np.zeros(padded_shape, dtype=dy.dtype)
    for t, (i, j) in enumerate(product(range(size), range(size))):
        window = _tap(dpadded, i, j, stride, oh, ow)
        window += np.where(arg == t, dy, 0)
    return dpadded[:, pbh : pbh + h, pbw : pbw + w]


def global_avg_pool_forward(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Mean over the two spatial axes: (N, H, W, C) -> (N, C)."""
    return x.mean(axis=(1, 2)), x.shape


def global_avg_pool_backward(dy: np.ndarray, x_shape: tuple) -> np.ndarray:
    n, h, w, c = x_shape
    return np.broadcast_to(dy[:, None, None, :], x_shape) / np.asarray(
        h * w, dtype=dy.dtype
    )


def concat_forward(parts: list[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """Concatenate along the last (channel) axis, remembering the widths."""
    return np.concatenate(parts, axis=-1), [p.shape[-1] for p in parts]


def concat_backward(dy: np.ndarray, widths: list[int]) -> list[np.ndarray]:
    split_at = np.cumsum(widths)[:-1]
    return np.split(dy, split_at, axis=-1)


# --------------------------------------------------------------------------
# Output head


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def bce_with_logits(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy straight from logits.

    Uses the softplus form max(z,0) - z*y + log1p(exp(-|z|)), which never
    exponentiates a positive number, so saturated predictions cannot
    overflow.

    Args:
        logits: Pre-sigmoid scores, shape (N, 1) or (N,).
        labels: Binary targets with the same number of elements.

    Returns:
        (scalar loss, gradient with respect to logits).
    """
    z = logits.reshape(-1)
    y = np.asarray(labels, dtype=z.dtype).reshape(-1)
    if z.shape != y.shape:
        raise ShapeMismatchError(z.shape, y.shape)
    per_example = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    loss = float(per_example.mean())
    dz = (sigmoid(z) - y) / z.size
    return loss, dz.reshape(logits.shape).astype(logits.dtype, copy=False)
