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
OpenBLAS's threading threshold, so it runs on one BLAS thread and
float64 results do not depend on the BLAS thread count.  Parallelism
comes from the batch axis instead: convolution, max pooling and ReLU
cut their batch into contiguous slices that the calling thread and a
process-wide thread pool, one thread per further usable CPU, work
through (NumPy releases the GIL inside these matmuls and ufuncs).  Each
slice writes only its own rows, and every reduction across the batch
(the dW and db sums) runs once in the calling thread over the whole
batch, so results are byte for byte the same for any CPU count.  Ops
whose output has fewer than 2**18 elements, such as every layer of the
small desk model, run in the calling thread.

Convolutions and pooling use TensorFlow-style "same" padding: the
output side is ceil(input / stride) and any asymmetric padding puts the
extra row/column at the bottom/right.
"""

from __future__ import annotations

import math
import os
from collections import deque
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ShapeMismatchError

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

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


# Below this many output elements an op runs in the calling thread: the
# hand-off to the pool would cost more than the split saves.
_SPLIT_MIN = 1 << 18
# A split op is cut into batch slices of about this many output elements,
# several per worker, which the workers take in turn: a CPU that the host
# stalls holds up one slice instead of half the batch.
_SLICE = 1 << 16

# (pid, executor); recreated in a forked child, whose copy has no threads.
_pool: tuple[int, ThreadPoolExecutor] | None = None


def _workers() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor() -> ThreadPoolExecutor:
    # Imported on first use: a process that never splits an op, such as
    # every command but cv, does not pay for it at start-up.
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    if _pool is None or _pool[0] != os.getpid():
        _pool = (os.getpid(), ThreadPoolExecutor(_workers(), "molcap-nn"))
    return _pool[1]


def _over_batch(fn, n: int, size: int) -> None:
    """Call fn(lo, hi) on contiguous slices covering batch rows [0, n).

    fn must write only rows lo..hi-1 of its outputs.  The calling thread
    and one pool worker per further CPU take slices of about _SLICE
    output elements until none is left.  A single CPU, a single row or an
    op of fewer than _SPLIT_MIN output elements gets one call, fn(0, n).
    """
    workers = min(_workers(), n)
    if workers < 2 or size < _SPLIT_MIN:
        fn(0, n)
        return
    step = max(1, _SLICE * n // size)
    todo = deque(range(0, n, step))

    def drain() -> None:
        while True:
            try:
                lo = todo.popleft()  # atomic, so each slice runs once
            except IndexError:
                return
            fn(lo, min(lo + step, n))

    pool = _executor()
    futures = [pool.submit(drain) for _ in range(workers - 1)]
    try:
        drain()
    finally:
        for future in futures:
            future.result()


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
    y = np.empty((n, oh, ow, f), dtype=np.result_type(padded, taps))

    def rows(lo: int, hi: int) -> None:
        block, out = padded[lo:hi], y[lo:hi]
        np.matmul(_tap(block, *first, stride, oh, ow), taps[first], out=out)
        part = np.empty_like(out)
        for i, j in rest:
            out += np.matmul(_tap(block, i, j, stride, oh, ow), taps[i, j], out=part)
        out += b

    _over_batch(rows, n, y.size)
    # perfbench/tracer.py reads x.shape, w and stride from these positions.
    cache = (padded, x.shape, padded.shape, w, stride, (oh, ow), pad)
    return y, cache


def conv2d_backward(
    dy: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv2d_forward: returns (dx, dw, db)."""
    padded, x_shape, padded_shape, w, stride, (oh, ow), (pbh, pbw) = cache
    n, h, width, c = x_shape
    f, _, kh, kw = w.shape
    taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1))  # (kh, kw, F, C)
    dy_t = dy.swapaxes(2, 3)
    dw = np.empty(w.shape, dtype=dy.dtype)
    db = dy.sum(axis=(0, 1, 2))
    # Per-row dW products, summed over the whole batch by the caller.
    dw_rows = np.empty((n, oh, f, c), dtype=np.result_type(dy, padded))
    if kh == kw == stride == 1:  # one tap covers the unpadded input
        dx = np.empty(x_shape, dtype=np.result_type(dy, taps))

        def rows(lo: int, hi: int) -> None:
            np.matmul(dy_t[lo:hi], padded[lo:hi], out=dw_rows[lo:hi])
            np.matmul(dy[lo:hi], taps[0, 0], out=dx[lo:hi])

        _over_batch(rows, n, dy.size)
        dw[:, :, 0, 0] = dw_rows.sum(axis=(0, 1))
        return dx, dw, db
    dpadded = np.zeros(padded_shape, dtype=dy.dtype)
    part = np.empty((n, oh, ow, c), dtype=dy.dtype)
    for i, j in product(range(kh), range(kw)):

        def rows(lo: int, hi: int) -> None:
            block = _tap(padded[lo:hi], i, j, stride, oh, ow)
            np.matmul(dy_t[lo:hi], block, out=dw_rows[lo:hi])
            window = _tap(dpadded[lo:hi], i, j, stride, oh, ow)
            window += np.matmul(dy[lo:hi], taps[i, j], out=part[lo:hi])

        _over_batch(rows, n, dy.size)
        dw[:, :, i, j] = dw_rows.sum(axis=(0, 1))
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
    out = np.empty_like(x)
    mask = np.empty_like(x, dtype=bool)

    def rows(lo: int, hi: int) -> None:
        np.maximum(x[lo:hi], 0, out=out[lo:hi])
        np.greater(x[lo:hi], 0, out=mask[lo:hi])

    _over_batch(rows, len(x), x.size)
    return out, mask


def relu_backward(dy: np.ndarray, mask: np.ndarray) -> np.ndarray:
    dx = np.empty_like(dy, dtype=np.result_type(dy, mask))

    def rows(lo: int, hi: int) -> None:
        np.multiply(dy[lo:hi], mask[lo:hi], out=dx[lo:hi])

    _over_batch(rows, len(dy), dy.size)
    return dx


def maxpool_forward(
    x: np.ndarray, size: int = 3, stride: int = 2
) -> tuple[np.ndarray, tuple]:
    """Max pooling of a NHWC batch with same padding; ties resolve to the
    first cell in row-major window order."""
    padded, (oh, ow), pad = _pad(x, size, size, stride, value=-np.inf)
    out = np.empty((len(x), oh, ow, x.shape[3]), dtype=padded.dtype)
    # Window position of each maximum, as a row-major tap index.
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(size * size - 1))

    def rows(lo: int, hi: int) -> None:
        best, where = out[lo:hi], arg[lo:hi]
        best[...] = _tap(padded[lo:hi], 0, 0, stride, oh, ow)
        for t, (i, j) in enumerate(product(range(size), range(size))):
            cells = _tap(padded[lo:hi], i, j, stride, oh, ow)
            np.putmask(where, cells > best, t)
            np.maximum(best, cells, out=best)

    _over_batch(rows, len(x), out.size)
    cache = (x.shape, padded.shape, arg, size, stride, (oh, ow), pad)
    return out, cache


def maxpool_backward(dy: np.ndarray, cache: tuple) -> np.ndarray:
    x_shape, padded_shape, arg, size, stride, (oh, ow), (pbh, pbw) = cache
    _, h, w, _ = x_shape
    dpadded = np.zeros(padded_shape, dtype=dy.dtype)

    def rows(lo: int, hi: int) -> None:
        for t, (i, j) in enumerate(product(range(size), range(size))):
            window = _tap(dpadded[lo:hi], i, j, stride, oh, ow)
            window += np.where(arg[lo:hi] == t, dy[lo:hi], 0)

    _over_batch(rows, len(dy), dpadded.size)
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
