"""Epoch loop: shuffled balanced batches, augmentation, Adam, plateau decay.

Each epoch shuffles the upsampled training indices with the run seed,
walks them in fixed-size batches (augmenting every image draw-by-draw
from the same generator, so runs are reproducible), and ends with one
validation pass.  Its AUC drives the plateau learning-rate schedule,
which also tells whether the epoch is the best so far; the result keeps
the best epoch's parameters and scores.
Wall-clock seconds are recorded per epoch but carry no semantic weight;
every numeric column of the history is a pure function of (seed, data,
config) in 64-bit mode.

The dataset keeps palette codes and packed fingerprints; each batch is
decoded to float32 pixels and fingerprint bits just before the model
sees it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..dataset import CachedDataset, augment_image, upsample_minority
from ..errors import ConfigError, NonFiniteLossError
from ..imaging import PALETTE, ChemImage
from ..metrics import auc_roc
from .layers import bce_with_logits
from .model import Model
from .optim import TrainState, adam_step, init_train_state, reduce_lr_on_plateau

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "TrainResult",
    "train",
    "predict_scores",
    "write_history_csv",
]


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters.

    Attributes:
        learning_rate: Initial Adam step size.
        batch_size: Examples per gradient step.
        patience: Non-improving epochs before the rate decays.
        lr_factor: Decay multiplier, strictly between 0 and 1.
        max_epochs: Epochs to run; 0 evaluates the initial state only.
        seed: Drives upsampling, shuffling, and augmentation.
    """

    learning_rate: float = 0.001
    batch_size: int = 32
    patience: int = 5
    lr_factor: float = 0.5
    max_epochs: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.lr_factor < 1.0:
            raise ConfigError(f"lr_factor must be in (0, 1), got {self.lr_factor}")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.max_epochs < 0:
            raise ConfigError("max_epochs cannot be negative")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")


@dataclass(frozen=True)
class EpochRecord:
    """One history row; ``lr`` is the rate the epoch actually used."""

    epoch: int
    train_loss: float
    val_auc: float
    lr: float
    seconds: float


@dataclass
class TrainResult:
    """Final optimizer state plus the snapshot of the best epoch.

    The best epoch has the highest validation AUC. ``best_val_scores``
    are its validation scores, in ``val_indices`` order, computed at the
    training batch size from the parameters kept in ``best_parameters``.
    """

    state: TrainState
    history: list[EpochRecord]
    best_parameters: dict[str, np.ndarray] = field(default_factory=dict)
    best_epoch: int = 0
    best_val_scores: np.ndarray = field(default_factory=lambda: np.zeros(0))
    train_pool: tuple[int, ...] = field(default=())

    @property
    def best_val_auc(self) -> float:
        """The best epoch's validation AUC, as the schedule keeps it."""
        return self.state.best_val_metric


def _batch_inputs(
    data: CachedDataset, batch: list[int], rng: np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pixels, fingerprint bits, key bits) of a batch, decoded for the model.

    With a generator, each image's codes are augmented first, in batch
    order.  The pixels are ``PALETTE[codes]``, float32.
    """
    codes = data.images[batch]
    if rng is not None:
        codes = np.stack(
            [augment_image(ChemImage(codes=c, side=data.side), rng).codes for c in codes]
        )
    return PALETTE[codes], np.unpackbits(data.fingerprints[batch], axis=1), data.keys[batch]


def predict_scores(
    model: Model,
    data: CachedDataset,
    indices: list[int],
    batch_size: int,
) -> np.ndarray:
    """Forward-only scores for the given examples, in index order.

    Scoring keeps no activations past the unit that made them, so its
    memory follows the trunk slices in flight, at most one per CPU,
    rather than batch_size.  Each example's score does not depend on
    the batch it is scored in.
    """
    scores = []
    for start in range(0, len(indices), batch_size):
        batch = list(indices[start : start + batch_size])
        scores.append(model.predict(*_batch_inputs(data, batch)))
    return np.concatenate(scores) if scores else np.zeros(0)


def _mean_loss(
    model: Model, data: CachedDataset, indices: list[int], batch_size: int
) -> float:
    total = 0.0
    for start in range(0, len(indices), batch_size):
        batch = list(indices[start : start + batch_size])
        _, cache = model.forward(*_batch_inputs(data, batch))
        loss, _ = bce_with_logits(cache["logits"], data.labels[batch])
        total += loss * len(batch)
    return total / len(indices)


def _fit_epoch(
    model: Model,
    data: CachedDataset,
    pool: list[int],
    state: TrainState,
    rng: np.random.Generator,
    batch_size: int,
    augment: bool,
) -> float:
    """One shuffled pass of Adam steps over the pool; returns the mean loss."""
    order = rng.permutation(len(pool))
    total = 0.0
    for start in range(0, len(pool), batch_size):
        batch = [pool[i] for i in order[start : start + batch_size]]
        inputs = _batch_inputs(data, batch, rng if augment else None)
        loss, _, grads = model.loss_and_gradients(*inputs, data.labels[batch])
        total += loss * len(batch)
        adam_step(state, grads)
    return total / len(pool)


def train(
    model: Model,
    data: CachedDataset,
    train_indices: list[int],
    val_indices: list[int],
    config: TrainConfig,
    augment: bool = True,
    upsample: bool = True,
) -> TrainResult:
    """Fit the model on one train/validation split.

    Upsampling happens here, strictly on ``train_indices``; validation
    examples are never duplicated or augmented.

    Args:
        model: Freshly built or checkpointed model; parameters update in
            place.
        data: Featurized corpus arrays.
        train_indices: Training examples (balanced internally when
            ``upsample`` is set).
        val_indices: Held-out examples scored after every epoch.
        config: Optimization settings.
        augment: Apply random rotation/translation to each training
            image.
        upsample: Balance classes inside the training pool.

    Returns:
        TrainResult; ``best_parameters`` and ``best_val_scores`` come from
        the epoch with the highest validation AUC (epoch 0, the initial
        state, for max_epochs 0).

    Raises:
        NonFiniteLossError: Training diverged; carries the partial
            history.
    """
    if not len(train_indices) or not len(val_indices):
        raise ConfigError("train and validation sets must both be non-empty")
    labels = data.labels
    pool = (
        upsample_minority(list(train_indices), labels, seed=config.seed)
        if upsample
        else list(train_indices)
    )
    val_indices = list(val_indices)
    val_labels = labels[val_indices].tolist()
    rng = np.random.default_rng(config.seed)
    state = init_train_state(model.params, config.learning_rate)
    result = TrainResult(state=state, history=[], train_pool=tuple(pool))
    # max_epochs 0 runs one epoch 0 that scores the initial state untrained.
    for epoch in range(min(config.max_epochs, 1), config.max_epochs + 1):
        started = time.perf_counter()
        if epoch == 0:
            loss = _mean_loss(model, data, pool, config.batch_size)
        else:
            try:
                loss = _fit_epoch(model, data, pool, state, rng, config.batch_size, augment)
            except NonFiniteLossError:
                raise NonFiniteLossError(epoch, result.history) from None
        scores = predict_scores(model, data, val_indices, config.batch_size)
        if not np.all(np.isfinite(scores)):
            # Divergence can surface here first when the final batch of an
            # epoch breaks the parameters after its own loss was computed.
            raise NonFiniteLossError(epoch, result.history)
        auc = auc_roc(scores.tolist(), val_labels)
        seconds = time.perf_counter() - started
        result.history.append(EpochRecord(epoch, loss, auc, state.current_lr, seconds))
        if reduce_lr_on_plateau(state, auc, config.patience, config.lr_factor):
            result.best_epoch = epoch
            result.best_val_scores = scores
            result.best_parameters = {k: v.copy() for k, v in model.params.items()}
    return result


def write_history_csv(history: list[EpochRecord], path: str | Path) -> None:
    """Write the per-epoch history with a fixed column order."""
    lines = ["epoch,train_loss,val_auc,lr,seconds"]
    for record in history:
        lines.append(
            f"{record.epoch},{record.train_loss!r},{record.val_auc!r},"
            f"{record.lr!r},{record.seconds:.3f}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
