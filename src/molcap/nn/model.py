"""Fused image+caption classifier built from the layer primitives.

Architecture: a 3x3 stem convolution, then three stages of residual
multi-branch blocks separated by two stride-2 reductions, then global
average pooling.  Stage-1 blocks use 3x3 branch convolutions, stage-2
blocks 1x7, stage-3 blocks 1x3; every block concatenates its branches,
projects back to the input channel count with a linear 1x1, adds the
input, and applies ReLU, so a zero-initialized block is exactly
ReLU(identity).  Each block's longest branch stops at its first spatial
convolution; the deepest convolution of the classic three-branch layout
is omitted.

Activations are channels-last, (N, H, W, C), from the stem to global
pooling; see :mod:`molcap.nn.layers` for the convolution scheme.

Captions enter through side branches: the fingerprint through a single
linear neuron, the key vector through dense(5)+ReLU then a linear
neuron.  Pooled image features and the enabled caption scalars are
concatenated and a final dense(1) produces the logit; predictions are
its sigmoid.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..errors import ConfigError, NonFiniteLossError, ShapeMismatchError
from .layers import (
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

_STAGE_KERNELS = {"a": (3, 3), "b": (1, 7), "c": (1, 3)}
_STAGE_BRANCHES = {"a": 3, "b": 2, "c": 2}


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
    image_side: int = 60
    fp_width: int = 2048
    keys_width: int = 167
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


def _stage_channels(filters: int) -> dict[str, int]:
    # Each reduction concatenates two F-filter conv branches with the
    # pooled pass-through, so channels grow F -> 3F -> 5F.
    return {"a": filters, "b": 3 * filters, "c": 5 * filters}


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
        channels = _stage_channels(f)
        self._conv("stem", 1, f, 3, 3)
        for stage in ("a", "b", "c"):
            c_in = channels[stage]
            kh, kw = _STAGE_KERNELS[stage]
            branches = _STAGE_BRANCHES[stage]
            for i in range(cfg.blocks_per_stage):
                prefix = f"{stage}{i}"
                self._conv(f"{prefix}.b0", c_in, f, 1, 1)
                for branch in range(1, branches):
                    self._conv(f"{prefix}.b{branch}c0", c_in, f, 1, 1)
                    self._conv(f"{prefix}.b{branch}c1", f, f, kh, kw)
                self._conv(f"{prefix}.proj", branches * f, c_in, 1, 1)
            if stage != "c":
                reduction = "ra" if stage == "a" else "rb"
                self._conv(f"{reduction}.b0", c_in, f, 3, 3)
                self._conv(f"{reduction}.b1c0", c_in, f, 1, 1)
                self._conv(f"{reduction}.b1c1", f, f, 3, 3)
        if cfg.use_fingerprint:
            self._dense("fp", cfg.fp_width, 1)
        if cfg.use_keys:
            self._dense("keys0", cfg.keys_width, cfg.maccs_hidden)
            self._dense("keys1", cfg.maccs_hidden, 1)
        head_in = channels["c"] + int(cfg.use_fingerprint) + int(cfg.use_keys)
        self._dense("head", head_in, 1)

    # -- forward -----------------------------------------------------------

    def _conv_relu(self, name: str, x: np.ndarray, stride: int = 1):
        y, conv_cache = conv2d_forward(
            x, self.params[f"{name}.w"], self.params[f"{name}.b"], stride
        )
        out, mask = relu_forward(y)
        return out, (conv_cache, mask)

    def _conv_relu_backward(self, name: str, dy, cache, grads):
        conv_cache, mask = cache
        dx, dw, db = conv2d_backward(relu_backward(dy, mask), conv_cache)
        grads[f"{name}.w"] = dw
        grads[f"{name}.b"] = db
        return dx

    def _block_forward(self, prefix: str, stage: str, x: np.ndarray):
        # The branch 1x1 convolutions that read x stay separate matmuls:
        # one fused F -> branches*F product measured no faster on OpenBLAS,
        # and its output would have to be split per branch again.
        branches = _STAGE_BRANCHES[stage]
        outs = []
        caches: dict = {}
        out0, caches["b0"] = self._conv_relu(f"{prefix}.b0", x)
        outs.append(out0)
        for branch in range(1, branches):
            mid, c0 = self._conv_relu(f"{prefix}.b{branch}c0", x)
            deep, c1 = self._conv_relu(f"{prefix}.b{branch}c1", mid)
            caches[f"b{branch}"] = (c0, c1)
            outs.append(deep)
        merged, widths = concat_forward(outs)
        proj, proj_cache = conv2d_forward(
            merged, self.params[f"{prefix}.proj.w"], self.params[f"{prefix}.proj.b"], 1
        )
        out, mask = relu_forward(x + proj)
        caches.update(widths=widths, proj=proj_cache, mask=mask)
        return out, caches

    def _block_backward(self, prefix: str, stage: str, dy, caches, grads):
        branches = _STAGE_BRANCHES[stage]
        d_pre = relu_backward(dy, caches["mask"])
        dmerged, dw, db = conv2d_backward(d_pre, caches["proj"])
        grads[f"{prefix}.proj.w"] = dw
        grads[f"{prefix}.proj.b"] = db
        parts = concat_backward(dmerged, caches["widths"])
        dx = d_pre + self._conv_relu_backward(
            f"{prefix}.b0", parts[0], caches["b0"], grads
        )
        for branch in range(1, branches):
            c0, c1 = caches[f"b{branch}"]
            dmid = self._conv_relu_backward(
                f"{prefix}.b{branch}c1", parts[branch], c1, grads
            )
            dx += self._conv_relu_backward(f"{prefix}.b{branch}c0", dmid, c0, grads)
        return dx

    def _reduction_forward(self, name: str, x: np.ndarray):
        out0, c0 = self._conv_relu(f"{name}.b0", x, stride=2)
        mid, c1a = self._conv_relu(f"{name}.b1c0", x)
        out1, c1b = self._conv_relu(f"{name}.b1c1", mid, stride=2)
        pooled, pool_cache = maxpool_forward(x, size=3, stride=2)
        merged, widths = concat_forward([out0, out1, pooled])
        return merged, {"b0": c0, "b1": (c1a, c1b), "pool": pool_cache, "widths": widths}

    def _reduction_backward(self, name: str, dy, caches, grads):
        parts = concat_backward(dy, caches["widths"])
        dx = self._conv_relu_backward(f"{name}.b0", parts[0], caches["b0"], grads)
        c1a, c1b = caches["b1"]
        dmid = self._conv_relu_backward(f"{name}.b1c1", parts[1], c1b, grads)
        dx += self._conv_relu_backward(f"{name}.b1c0", dmid, c1a, grads)
        dx += maxpool_backward(parts[2], caches["pool"])
        return dx

    def forward(
        self,
        images: np.ndarray,
        fingerprints: np.ndarray | None = None,
        keys: np.ndarray | None = None,
    ) -> tuple[np.ndarray, dict]:
        """Run the network, keeping every activation needed by backward.

        Args:
            images: (N, side, side) or channels-last (N, side, side, 1)
                rasters.
            fingerprints: (N, fp_width) bit array; ignored when the
                fingerprint branch is disabled.
            keys: (N, keys_width) bit array; ignored when the key branch
                is disabled.

        Returns:
            (probabilities of shape (N, 1), cache for backward).
        """
        cfg = self.config
        x = np.asarray(images, dtype=self.dtype)
        if x.ndim == 3:
            x = x[:, :, :, None]
        if x.shape[1:] != (cfg.image_side, cfg.image_side, 1):
            raise ShapeMismatchError(
                (x.shape[0], cfg.image_side, cfg.image_side, 1), x.shape
            )
        cache: dict = {}
        x, cache["stem"] = self._conv_relu("stem", x)
        for stage, reduction in (("a", "ra"), ("b", "rb"), ("c", None)):
            stage_caches = []
            for i in range(cfg.blocks_per_stage):
                x, block_cache = self._block_forward(f"{stage}{i}", stage, x)
                stage_caches.append(block_cache)
            cache[stage] = stage_caches
            if reduction is not None:
                x, cache[reduction] = self._reduction_forward(reduction, x)
        features, cache["gap"] = global_avg_pool_forward(x)

        parts = [features]
        if cfg.use_fingerprint:
            fp = np.asarray(fingerprints, dtype=self.dtype)
            fp_out, cache["fp"] = dense_forward(
                fp, self.params["fp.w"], self.params["fp.b"]
            )
            parts.append(fp_out)
        if cfg.use_keys:
            kv = np.asarray(keys, dtype=self.dtype)
            hidden, k0 = dense_forward(
                kv, self.params["keys0.w"], self.params["keys0.b"]
            )
            activated, k_mask = relu_forward(hidden)
            keys_out, k1 = dense_forward(
                activated, self.params["keys1.w"], self.params["keys1.b"]
            )
            cache["keys"] = (k0, k_mask, k1)
            parts.append(keys_out)
        fused, cache["head_widths"] = concat_forward(parts)
        logits, cache["head"] = dense_forward(
            fused, self.params["head.w"], self.params["head.b"]
        )
        cache["logits"] = logits
        return sigmoid(logits), cache

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

    def backward(self, cache: dict, labels: np.ndarray) -> tuple[float, dict]:
        """Mean-BCE loss and its gradient for every parameter.

        Args:
            cache: Second return value of :func:`forward`.
            labels: Binary targets, one per batch row.

        Returns:
            (loss, gradient map keyed like ``params``).

        Raises:
            NonFiniteLossError: The loss came out NaN or infinite.
        """
        cfg = self.config
        loss, dlogits = bce_with_logits(cache["logits"], labels)
        if not math.isfinite(loss):
            raise NonFiniteLossError(epoch=-1)
        grads: dict[str, np.ndarray] = {}
        dfused, dw, db = dense_backward(dlogits, cache["head"])
        grads["head.w"] = dw
        grads["head.b"] = db
        parts = concat_backward(dfused, cache["head_widths"])
        dfeatures = parts[0]
        at = 1
        if cfg.use_fingerprint:
            _, dw, db = dense_backward(parts[at], cache["fp"])
            grads["fp.w"] = dw
            grads["fp.b"] = db
            at += 1
        if cfg.use_keys:
            k0, k_mask, k1 = cache["keys"]
            dhidden, dw, db = dense_backward(parts[at], k1)
            grads["keys1.w"] = dw
            grads["keys1.b"] = db
            _, dw, db = dense_backward(relu_backward(dhidden, k_mask), k0)
            grads["keys0.w"] = dw
            grads["keys0.b"] = db

        dx = global_avg_pool_backward(dfeatures, cache["gap"])
        for stage, reduction in (("c", "rb"), ("b", "ra"), ("a", None)):
            for i in reversed(range(cfg.blocks_per_stage)):
                dx = self._block_backward(f"{stage}{i}", stage, dx, cache[stage][i], grads)
            if reduction is not None:
                dx = self._reduction_backward(reduction, dx, cache[reduction], grads)
        self._conv_relu_backward("stem", dx, cache["stem"], grads)
        return loss, grads

    def loss_and_gradients(
        self,
        images: np.ndarray,
        fingerprints: np.ndarray | None,
        keys: np.ndarray | None,
        labels: np.ndarray,
    ) -> tuple[float, np.ndarray, dict]:
        """Forward plus backward in one call: (loss, probs, grads)."""
        probs, cache = self.forward(images, fingerprints, keys)
        loss, grads = self.backward(cache, labels)
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
