"""Adam with bias correction and plateau-based learning-rate decay."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatchError

__all__ = ["TrainState", "init_train_state", "adam_step", "reduce_lr_on_plateau"]

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class TrainState:
    """Everything the optimizer carries between steps and epochs.

    Attributes:
        parameters: The live parameter tensors (updated in place by
            :func:`adam_step`).
        first_moment: Adam m accumulator per parameter.
        second_moment: Adam v accumulator per parameter.
        current_lr: Learning rate after any plateau decays.
        step: Completed Adam steps.
        best_val_metric: Highest validation metric seen so far.
        epochs_since_improvement: Plateau counter.
    """

    parameters: dict[str, np.ndarray]
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    current_lr: float
    step: int = 0
    best_val_metric: float = -math.inf
    epochs_since_improvement: int = 0


def init_train_state(parameters: dict[str, np.ndarray], lr: float) -> TrainState:
    """Zeroed moments for every parameter, matching shapes and dtypes."""
    return TrainState(
        parameters=parameters,
        first_moment={k: np.zeros_like(v) for k, v in parameters.items()},
        second_moment={k: np.zeros_like(v) for k, v in parameters.items()},
        current_lr=lr,
    )


def adam_step(state: TrainState, grads: dict[str, np.ndarray]) -> TrainState:
    """One bias-corrected Adam update at the state's current rate.

    Args:
        state: Mutated in place and returned.
        grads: Gradient per parameter name; every parameter must have
            one and shapes must match.

    Returns:
        The same state, with parameters and moments advanced.
    """
    if set(grads) != set(state.parameters):
        missing = set(state.parameters) ^ set(grads)
        raise ShapeMismatchError(sorted(state.parameters), sorted(missing))
    state.step += 1
    correction1 = 1.0 - BETA1**state.step
    correction2 = 1.0 - BETA2**state.step
    for name, param in state.parameters.items():
        grad = grads[name]
        if grad.shape != param.shape:
            raise ShapeMismatchError(param.shape, grad.shape)
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * np.square(grad)
        m_hat = m / correction1
        v_hat = v / correction2
        param -= state.current_lr * m_hat / (np.sqrt(v_hat) + EPSILON)
    return state


def reduce_lr_on_plateau(
    state: TrainState, val_metric: float, patience: int, factor: float
) -> bool:
    """End-of-epoch schedule: decay the rate after a patience-long stall.

    An epoch improves when its metric strictly exceeds the best so far.
    After ``patience`` consecutive non-improving epochs the learning
    rate is multiplied by ``factor`` and the counter restarts.

    Args:
        state: Mutated in place.
        val_metric: This epoch's validation metric (higher is better).
        patience: Stall length that triggers a decay.
        factor: Multiplier in (0, 1).

    Returns:
        Whether this epoch improved, so it is the best so far.
    """
    if val_metric > state.best_val_metric:
        state.best_val_metric = val_metric
        state.epochs_since_improvement = 0
        return True
    state.epochs_since_improvement += 1
    if state.epochs_since_improvement >= patience:
        state.current_lr *= factor
        state.epochs_since_improvement = 0
    return False
