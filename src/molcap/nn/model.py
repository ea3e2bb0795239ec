"""Fused image+caption classifier built from the layer primitives.

The image trunk is defined once, as data: :func:`_trunk_plan` lists its
units (the stem, the residual blocks and the reductions) in forward
order.  ``_build`` walks that list to create the parameters,
``_unit_forward`` and ``_unit_backward`` run any unit, and the trunk
walks the list forwards and in reverse.

Activations are channels-last, (N, H, W, C), from the stem to global
pooling; see :mod:`molcap.nn.layers` for the convolution scheme.

Captions enter through side branches: the fingerprint through a single
linear neuron, the key vector through dense(5)+ReLU then a linear
neuron.  Pooled image features and the enabled caption scalars are
concatenated and a final dense(1) produces the logit; predictions are
its sigmoid.

The batch is split here, once, and nowhere else: the layer kernels are
serial.  The caption branches run first, on the whole batch in the
calling process.  Then the batch is cut into contiguous shares, one per
usable CPU, once each holds enough work (see ``_SHARE_MIN``).  The
calling process computes share 0 and worker processes, one per further
CPU, compute the others: processes, not threads, because a step makes
thousands of short NumPy calls and two threads would hand the GIL back
and forth at every one.  A share runs in contiguous slices of one
default-model image, one after another, so each process holds one
slice's activations at a time and a layer's working set fits a 2 MB L2
cache (see ``_SPLIT_MIN``).  A slice runs the convolutional trunk, stem
through global average pooling, and the head on its own rows.  In a
training step, given the labels, it then back-propagates its rows'
logit gradients through the trunk at once, freeing each unit's forward
cache as it goes, and keeps only each image's dW and db of each
convolution.  When scoring, it keeps no unit's cache past that unit.
Every image's activations, and every image's own dW and db, depend on
that image alone, and every dense layer multiplies one row at a time,
so they come out the same for any cut.
No share waits for another: ``backward`` runs the head and the caption
branches on the whole batch, then sums each convolution's per-image dW
and db over the batch, in image order, in the calling process, so
float64 results are byte for byte the same for any slicing and any
number of CPUs.

Workers start on the first split batch, with the platform's default
start method; they are daemons, ignore Ctrl-C (the calling process
handles it) and exit when their pipe closes.  Under spawn or forkserver
a script that trains must guard its entry point with
``if __name__ == "__main__":``.  A worker runs the layer functions this
module held when it started: patching one afterwards reaches the calling
process only.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..errors import ConfigError, NonFiniteLossError, ShapeMismatchError
from ..fingerprints import DEFAULT_NBITS
from ..imaging import DEFAULT_SIDE
from ..maccs import N_KEYS
from .layers import (
    bce_gradient,
    bce_with_logits,
    concat_backward,
    concat_forward,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    global_avg_pool_backward,
    global_avg_pool_forward,
    maxpool_backward,
    maxpool_forward,
    relu_backward,
    relu_forward,
    sigmoid,
)

__all__ = ["ModelConfig", "Model", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_VERSION = 1

# A share runs in slices of about this many stem-output elements, one
# after another, so a process holds one slice's activations at a time.
# One default-model image is 57,600, so its slices are one image: a
# layer's working set is then about 1.5 MB in float64 and fits a 2 MB L2
# cache, where two images' does not.  The desk model's share is one
# slice.  A float64 training share of 16 default-model images (batch
# 32 on two CPUs) on a 2-vCPU Xeon VM, median [quartiles] ms of 15
# calls taken in turn, and tracemalloc peak:
#   1 image a slice:  512 [483-556] ms, 24.5 MB
#   2 images a slice: 574 [532-582] ms, 39.7 MB
#   4 images a slice: 648 [618-678] ms, 70.4 MB
_SPLIT_MIN = 1 << 16

# A batch is cut into shares only when each holds at least this many
# stem-output elements; a smaller batch runs in the calling process.
# Float64 desk-model training steps (1 block, 4 filters, 22 px: 1,936
# elements per image) on a 2-vCPU Xeon VM, median ms of 150 calls,
# in the calling process against in two shares, taken in turn:
#   batch  4 ( 3,872 per share):  7.9 against 10.4
#   batch  6 ( 5,808 per share):  9.9 against  7.9
#   batch  8 ( 7,744 per share): 12.4 against  9.6
#   batch 16 (15,488 per share): 16.0 against 13.0
#   batch 32 (30,976 per share): 33.3 against 21.8
# Scoring the same batches gains from batch 6 on as well.
_SHARE_MIN = 1 << 12


def _workers() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _batch_slices(n: int, size: int) -> list[tuple[int, int]]:
    """Contiguous (lo, hi) row ranges covering a batch of n rows whose
    stem output has ``size`` elements."""
    if size < _SPLIT_MIN:
        return [(0, n)]
    step = max(1, _SPLIT_MIN * n // size)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _shares(n: int, size: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous (lo, hi) row ranges, one per process, covering a batch
    of n rows whose stem output has ``size`` elements.

    At most one per worker and one per row, and each holds at least
    ``_SHARE_MIN`` elements.  Share 0, the calling process's, is never
    the larger: that process also sends, receives and sums.
    """
    count = max(1, min(workers, n, size // _SHARE_MIN))
    return [(n * k // count, n * (k + 1) // count) for k in range(count)]


class _Workers:
    """Worker processes of one process, one pipe to each."""

    def __init__(self, key: tuple[int, int]) -> None:
        # Imported on first use: a process that never splits a batch, such
        # as every command but cv, does not pay for it at start-up.
        import multiprocessing

        self.context = multiprocessing.get_context()
        self.key = key
        self.processes, self.pipes = [], []

    def grow(self, count: int) -> None:
        """Start workers until there are ``count``."""
        while len(self.processes) < count:
            ours, theirs = self.context.Pipe()
            process = self.context.Process(
                target=_serve, args=(theirs,), name="molcap-nn", daemon=True
            )
            process.start()
            theirs.close()  # so that the worker's exit reads as EOF here
            self.processes.append(process)
            self.pipes.append(ours)

    def _lost(self, k: int) -> RuntimeError:
        process = self.processes[k]
        process.join(5)
        return RuntimeError(
            f"model worker process {process.pid} exited with code {process.exitcode}"
        )

    def send(self, k: int, message: tuple) -> None:
        try:
            self.pipes[k].send(message)
        except OSError:  # BrokenPipeError, ConnectionResetError
            raise self._lost(k) from None

    def receive(self, k: int):
        try:
            return self.pipes[k].recv()
        except (EOFError, OSError):
            raise self._lost(k) from None

    def close(self) -> None:
        for pipe in self.pipes:
            pipe.close()
        if self.key[0] == os.getpid():  # a forked child must not stop its parent's workers
            for process in self.processes:
                process.terminate()
                process.join()


# The worker processes of the process whose pid the key holds: at most
# one fewer than the CPU count the key holds, started as batches need
# them.  Made again in a forked child, which never uses its parent's
# workers, when the usable CPU count changes, and after an exchange that
# broke off.  The lock keeps one exchange at a time on the pipes.
_pool: _Workers | None = None
_pool_lock = threading.Lock()


def _discard_pool() -> None:
    global _pool
    if _pool is not None:
        _pool.close()
    _pool = None


def _run_shares(model: Model, shares: list[tuple], workers: int) -> list[tuple]:
    """model._share(*share) for every share, in order.

    Share 0 runs in the calling process once the others have gone to
    the workers.  If any share raises, the lowest one's error is raised.
    If the exchange itself breaks off (share 0 raised, the caller was
    interrupted or a worker died), the workers are discarded and the
    next split batch starts new ones.
    """
    if len(shares) == 1:
        return [model._share(*shares[0])]
    global _pool
    with _pool_lock:
        key = (os.getpid(), workers)
        if _pool is None or _pool.key != key:
            _discard_pool()
            _pool = _Workers(key)
        try:
            _pool.grow(len(shares) - 1)
            for k, share in enumerate(shares[1:]):
                _pool.send(k, (model, *share))
            replies = [(True, model._share(*shares[0]))]
            replies += [_pool.receive(k) for k in range(len(shares) - 1)]
        except BaseException:
            _discard_pool()
            raise
    for ok, value in replies:
        if not ok:
            raise value
    return [value for _, value in replies]


def _serve(pipe) -> None:
    """A worker process: answer each share its pipe brings, until EOF."""
    import signal
    from multiprocessing.pool import ExceptionWithTraceback

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the calling process's
    try:
        while True:
            model, *share = pipe.recv()
            try:
                reply = True, model._share(*share)
            except Exception as error:
                # Unpickled, the error's cause is the worker's traceback.
                reply = False, ExceptionWithTraceback(error, error.__traceback__)
            pipe.send(reply)
    except (EOFError, OSError):  # the calling process closed its end or exited
        pass


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    Attributes:
        blocks_per_stage: Residual blocks in each of the three stages.
        filters: Filter count of every convolution.
        image_side: Input raster size in pixels.
        fp_width: Fingerprint bit width.
        keys_width: Key-vector bit width.
        maccs_hidden: Hidden neurons in the key branch.
        use_fingerprint: Wire the fingerprint branch into the head.
        use_keys: Wire the key branch into the head.
    """

    blocks_per_stage: int = 3
    filters: int = 16
    image_side: int = DEFAULT_SIDE
    fp_width: int = DEFAULT_NBITS
    keys_width: int = N_KEYS
    maccs_hidden: int = 5
    use_fingerprint: bool = True
    use_keys: bool = True

    def __post_init__(self) -> None:
        if self.blocks_per_stage < 1:
            raise ConfigError("blocks_per_stage must be at least 1")
        if self.filters < 1:
            raise ConfigError("filters must be at least 1")
        final_side = math.ceil(math.ceil(self.image_side / 2) / 2)
        if final_side < 3:
            raise ConfigError(
                f"image side {self.image_side} leaves {final_side} px after "
                "two reductions; need at least 3"
            )


class _Unit(NamedTuple):
    """One unit of the image trunk; a ReLU follows every convolution."""

    name: str  # prefix of the proj convolution
    # Chains of (conv name, kh, kw, stride); each chain reads the unit's
    # input and every convolution has ``filters`` outputs.
    branches: tuple[tuple[tuple[str, int, int, int], ...], ...]
    pool: bool = False  # a 3x3 stride-2 max-pool of the input joins them
    # A linear 1x1 maps the concatenation back to the input width; the
    # input is added and a ReLU applied.
    proj: bool = False


def _trunk_plan(blocks_per_stage: int) -> tuple[_Unit, ...]:
    """The image trunk, stem to last block, in forward order.

    Each block's longest branch stops at its first spatial convolution:
    the deepest convolution of the classic three-branch layout is
    omitted.  A zero-initialized block is exactly ReLU(identity).
    """
    plan = [_Unit("stem", ((("stem", 3, 3, 1),),))]
    for stage, kh, kw, width in (("a", 3, 3, 3), ("b", 1, 7, 2), ("c", 1, 3, 2)):
        for u in (f"{stage}{i}" for i in range(blocks_per_stage)):
            deeps = (
                ((f"{u}.b{j}c0", 1, 1, 1), (f"{u}.b{j}c1", kh, kw, 1)) for j in range(1, width)
            )
            plan.append(_Unit(u, (((f"{u}.b0", 1, 1, 1),), *deeps), proj=True))
        if stage != "c":
            r = f"r{stage}"
            deep = ((f"{r}.b1c0", 1, 1, 1), (f"{r}.b1c1", 3, 3, 2))
            plan.append(_Unit(r, (((f"{r}.b0", 3, 3, 2),), deep), pool=True))
    return tuple(plan)


class Model:
    """Parameter container plus explicit forward/backward passes."""

    def __init__(
        self,
        config: ModelConfig,
        seed: int = 0,
        dtype: type = np.float64,
    ):
        self.config = config
        self.dtype = np.dtype(dtype).type
        self.params: dict[str, np.ndarray] = {}
        self._rng = np.random.default_rng(seed)
        self._build()
        del self._rng

    # -- construction ------------------------------------------------------

    def _weight(self, name: str, shape: tuple[int, ...], fan_in: int) -> None:
        limit = math.sqrt(3.0 / fan_in)
        self.params[name] = self._rng.uniform(-limit, limit, size=shape).astype(
            self.dtype
        )

    def _conv(self, name: str, c_in: int, c_out: int, kh: int, kw: int) -> None:
        self._weight(f"{name}.w", (c_out, c_in, kh, kw), c_in * kh * kw)
        self.params[f"{name}.b"] = np.zeros(c_out, dtype=self.dtype)

    def _dense(self, name: str, d_in: int, d_out: int) -> None:
        self._weight(f"{name}.w", (d_in, d_out), d_in)
        self.params[f"{name}.b"] = np.zeros(d_out, dtype=self.dtype)

    def _build(self) -> None:
        cfg = self.config
        f = cfg.filters
        self._plan = _trunk_plan(cfg.blocks_per_stage)
        channels = 1
        for unit in self._plan:
            for branch in unit.branches:
                c_in = channels
                for name, kh, kw, _ in branch:
                    self._conv(name, c_in, f, kh, kw)
                    c_in = f
            width = len(unit.branches) * f
            if unit.proj:
                self._conv(f"{unit.name}.proj", width, channels, 1, 1)
            else:
                channels = width + channels * unit.pool
        self._trunk_width = channels
        if cfg.use_fingerprint:
            self._dense("fp", cfg.fp_width, 1)
        if cfg.use_keys:
            self._dense("keys0", cfg.keys_width, cfg.maccs_hidden)
            self._dense("keys1", cfg.maccs_hidden, 1)
        head_in = channels + int(cfg.use_fingerprint) + int(cfg.use_keys)
        self._dense("head", head_in, 1)

    # -- forward -----------------------------------------------------------

    def _conv_forward(self, name: str, x: np.ndarray, stride: int):
        return conv2d_forward(x, self.params[f"{name}.w"], self.params[f"{name}.b"], stride)

    def _unit_forward(self, unit: _Unit, x: np.ndarray):
        # The branch 1x1 convolutions that read x stay separate matmuls:
        # one fused F -> branches*F product measured no faster on OpenBLAS,
        # and its output would have to be split per branch again.
        outs = []
        cache: dict = {"branches": []}
        for branch in unit.branches:
            y, steps = x, []
            for name, _, _, stride in branch:
                y, conv_cache = self._conv_forward(name, y, stride)
                y, mask = relu_forward(y)
                steps.append((conv_cache, mask))
            outs.append(y)
            cache["branches"].append(steps)
        if unit.pool:
            pooled, cache["pool"] = maxpool_forward(x, size=3, stride=2)
            outs.append(pooled)
        if len(outs) == 1:
            out = outs[0]
        else:
            out, cache["widths"] = concat_forward(outs)
        if unit.proj:
            proj, cache["proj"] = self._conv_forward(f"{unit.name}.proj", out, 1)
            out, cache["mask"] = relu_forward(x + proj)
        return out, cache

    @staticmethod
    def _conv_backward(name: str, dy, conv_cache: tuple, grads: dict, need_dx: bool = True):
        dx, grads[f"{name}.w"], grads[f"{name}.b"] = conv2d_backward(
            dy, conv_cache, need_dx=need_dx
        )
        return dx

    @classmethod
    def _unit_backward(cls, unit: _Unit, dy, cache: dict, grads: dict, need_dx: bool = True):
        """The unit's parameter gradients into ``grads``; returns its input
        gradient, or None without ``need_dx`` (a unit of plain chains)."""
        # dx adds the residual's, each branch's and the pool's gradient,
        # in that order, each as soon as it is known.
        dx = None
        if unit.proj:
            dx = relu_backward(dy, cache["mask"])
            dy = cls._conv_backward(f"{unit.name}.proj", dx, cache["proj"], grads)
        parts = concat_backward(dy, cache["widths"]) if "widths" in cache else [dy]
        for part, branch, steps in zip(parts, unit.branches, cache["branches"]):
            for depth, (name, *_) in reversed(list(enumerate(branch))):
                conv_cache, mask = steps[depth]
                part = cls._conv_backward(
                    name, relu_backward(part, mask), conv_cache, grads, need_dx or depth > 0
                )
            if dx is None:
                dx = part
            else:
                dx += part
        if unit.pool:
            dx += maxpool_backward(parts[-1], cache["pool"])
        return dx

    def _trunk_forward(self, x: np.ndarray, keep: bool) -> tuple[np.ndarray, tuple]:
        """Stem through global average pooling: (features, cache).

        Without ``keep`` the cache holds no unit's cache: each is freed
        once its unit has run.
        """
        caches = []
        for unit in self._plan:
            x, unit_cache = self._unit_forward(unit, x)
            if keep:
                caches.append(unit_cache)
            del unit_cache
        features, gap_cache = global_avg_pool_forward(x)
        return features, (caches, gap_cache)

    def _trunk_backward(self, dfeatures: np.ndarray, cache: tuple) -> dict:
        """Per-image dW and db of every convolution, in backward order.

        The stem's input is the image, so its gradient is not computed.
        """
        caches, gap_cache = cache
        grads: dict[str, np.ndarray] = {}
        dx = global_avg_pool_backward(dfeatures, gap_cache)
        for unit in reversed(self._plan):
            dx = self._unit_backward(unit, dx, caches.pop(), grads, need_dx=bool(caches))
        return grads

    def _share(
        self,
        x: np.ndarray,
        captions: np.ndarray,
        labels: np.ndarray | None,
        n: int,
        slices: list[tuple[int, int]],
    ) -> tuple[np.ndarray, np.ndarray, list]:
        """Trunk and head of one share of a batch, slice after slice.

        Args:
            x: The share's images, (rows, side, side, 1).
            captions: The share's rows of the caption columns of the
                head input.
            labels: The share's targets, (rows, 1), in a training step;
                None when scoring.
            n: Rows in the whole batch, which the mean BCE divides by.
            slices: Contiguous (lo, hi) row ranges covering the share.

        Returns:
            (trunk features, logits, and per slice each image's
            convolution gradients; no gradients when scoring).
        """
        head_w, head_b = self.params["head.w"], self.params["head.b"]
        width = self._trunk_width
        fused = np.empty((len(x), len(head_w)), dtype=self.dtype)
        fused[:, width:] = captions
        logits = np.empty((len(x), 1), dtype=self.dtype)
        per_image = []
        for lo, hi in slices:
            features, trunk = self._trunk_forward(x[lo:hi], keep=labels is not None)
            fused[lo:hi, :width] = features
            logits[lo:hi], _ = dense_forward(fused[lo:hi], head_w, head_b)
            if labels is not None:
                dlogits = bce_gradient(logits[lo:hi], labels[lo:hi], n)
                per_image.append(self._trunk_backward(dlogits @ head_w[:width].T, trunk))
        return fused[:, :width], logits, per_image

    def forward(
        self,
        images: np.ndarray,
        fingerprints: np.ndarray | None = None,
        keys: np.ndarray | None = None,
        labels: np.ndarray | None = None,
    ) -> tuple[np.ndarray, dict]:
        """Run the network; given labels, also back-propagate the trunk.

        Args:
            images: (N, side, side) rasters.
            fingerprints: (N, fp_width) bit array; ignored when the
                fingerprint branch is disabled.
            keys: (N, keys_width) bit array; ignored when the key branch
                is disabled.
            labels: Binary targets, one per row, for a training step.
                Each trunk slice then back-propagates its rows' part of
                the mean-BCE gradient as soon as its forward pass ends,
                and the cache keeps the labels and each image's
                convolution gradients instead of its activations.

        Returns:
            (probabilities of shape (N, 1), cache).  The cache always
            holds the logits, (N, 1); only a labelled forward's cache can
            go to :meth:`backward`.

        Raises:
            ShapeMismatchError: The images have the wrong side, an
                enabled caption input is missing or not (N, width), or
                labels are given but not N of them.
        """
        cfg = self.config
        x = np.asarray(images, dtype=self.dtype)
        if x.shape[1:] != (cfg.image_side, cfg.image_side):
            raise ShapeMismatchError(x.shape[:1] + (cfg.image_side,) * 2, x.shape)
        x = x[:, :, :, None]
        n = len(x)
        if labels is not None:
            y = np.asarray(labels, dtype=self.dtype).reshape(-1, 1)
            if len(y) != n:
                raise ShapeMismatchError((n,), np.shape(labels))
        head_w = self.params["head.w"]
        # Head input rows: trunk features, then the enabled caption scalars.
        width = self._trunk_width
        fused = np.empty((n, len(head_w)), dtype=self.dtype)
        cache: dict = {}
        at = width
        if cfg.use_fingerprint:
            fp = self._caption(fingerprints, (n, cfg.fp_width))
            fused[:, at : at + 1], cache["fp"] = dense_forward(
                fp, self.params["fp.w"], self.params["fp.b"]
            )
            at += 1
        if cfg.use_keys:
            kv = self._caption(keys, (n, cfg.keys_width))
            hidden, k0 = dense_forward(kv, self.params["keys0.w"], self.params["keys0.b"])
            activated, k_mask = relu_forward(hidden)
            fused[:, at : at + 1], k1 = dense_forward(
                activated, self.params["keys1.w"], self.params["keys1.b"]
            )
            cache["keys"] = (k0, k_mask, k1)

        image_size = cfg.image_side**2 * cfg.filters
        workers = _workers()
        shares = _shares(n, n * image_size, workers)
        requests = [
            (
                x[lo:hi],
                fused[lo:hi, width:],
                None if labels is None else y[lo:hi],
                n,
                _batch_slices(hi - lo, (hi - lo) * image_size),
            )
            for lo, hi in shares
        ]
        logits = np.empty((n, 1), dtype=self.dtype)
        per_image: list = []
        for (lo, hi), (features, share_logits, grads) in zip(
            shares, _run_shares(self, requests, workers)
        ):
            fused[lo:hi, :width] = features
            logits[lo:hi] = share_logits
            per_image += grads
        if labels is None:
            return sigmoid(logits), {"logits": logits}
        cache.update(logits=logits, head=(fused, head_w), labels=y, per_image=per_image)
        return sigmoid(logits), cache

    def _caption(self, array: np.ndarray | None, shape: tuple[int, int]) -> np.ndarray:
        got = None if array is None else np.shape(array)
        if got != shape:
            raise ShapeMismatchError(shape, got)
        return np.asarray(array, dtype=self.dtype)

    def predict(
        self,
        images: np.ndarray,
        fingerprints: np.ndarray | None = None,
        keys: np.ndarray | None = None,
    ) -> np.ndarray:
        """Probabilities only, shape (N,)."""
        probs, _ = self.forward(images, fingerprints, keys)
        return probs.reshape(-1)

    # -- backward ----------------------------------------------------------

    def backward(self, cache: dict) -> tuple[float, dict]:
        """Mean-BCE loss and its gradient for every parameter.

        The trunk slices already back-propagated in :meth:`forward`; this
        runs the head and the caption branches on the whole batch and
        sums each convolution's per-image gradients over the batch, in
        image order.

        Args:
            cache: Second return value of :meth:`forward` called with
                ``labels``, which it keeps.  Backward consumes its
                per-image gradients, so it runs once per forward.

        Returns:
            (loss, gradient map keyed like ``params``).

        Raises:
            ValueError: The cache is not that of a labelled forward, or
                was already used.
            NonFiniteLossError: The loss came out NaN or infinite.
        """
        if "per_image" not in cache:
            raise ValueError(
                "backward takes the cache of forward(..., labels=...), once; "
                "this one has no trunk gradients"
            )
        cfg = self.config
        loss, dlogits = bce_with_logits(cache["logits"], cache["labels"])
        if not math.isfinite(loss):
            raise NonFiniteLossError(epoch=-1)
        grads: dict[str, np.ndarray] = {}
        dfused, dw, db = dense_backward(dlogits, cache["head"])
        grads["head.w"] = dw
        grads["head.b"] = db
        at = self._trunk_width
        if cfg.use_fingerprint:
            _, dw, db = dense_backward(dfused[:, at : at + 1], cache["fp"])
            grads["fp.w"] = dw
            grads["fp.b"] = db
            at += 1
        if cfg.use_keys:
            k0, k_mask, k1 = cache["keys"]
            dhidden, dw, db = dense_backward(dfused[:, at : at + 1], k1)
            grads["keys1.w"] = dw
            grads["keys1.b"] = db
            _, dw, db = dense_backward(relu_backward(dhidden, k_mask), k0)
            grads["keys0.w"] = dw
            grads["keys0.b"] = db

        per_image = cache.pop("per_image")
        # Sums over the whole batch, one image after another.
        for name in list(per_image[0]):
            grads[name] = np.concatenate([g.pop(name) for g in per_image]).sum(axis=0)
        return loss, grads

    def loss_and_gradients(
        self,
        images: np.ndarray,
        fingerprints: np.ndarray | None,
        keys: np.ndarray | None,
        labels: np.ndarray,
    ) -> tuple[float, np.ndarray, dict]:
        """Labelled forward, then backward of its cache: (loss, probs, grads)."""
        probs, cache = self.forward(images, fingerprints, keys, labels)
        loss, grads = self.backward(cache)
        return loss, probs, grads


# --------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path: str | Path, model: Model) -> None:
    """Write parameters plus config as a compressed npz archive."""
    meta = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "dtype": np.dtype(model.dtype).name,
    }
    with open(path, "wb") as handle:
        np.savez_compressed(
            handle, __meta__=np.array(json.dumps(meta)), **model.params
        )


def load_checkpoint(path: str | Path) -> Model:
    """Rebuild a model from :func:`save_checkpoint` output."""
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive["__meta__"]))
        if meta["checkpoint_version"] != CHECKPOINT_VERSION:
            raise ConfigError(
                f"unsupported checkpoint version {meta['checkpoint_version']}"
            )
        config = ModelConfig(**meta["config"])
        model = Model(config, seed=0, dtype=np.dtype(meta["dtype"]).type)
        for name in model.params:
            model.params[name] = archive[name].astype(model.dtype, copy=False)
    return model
