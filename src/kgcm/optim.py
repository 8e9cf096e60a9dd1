"""Adam with bias correction and global-norm gradient clipping."""

from __future__ import annotations

import math

import numpy as np

from .errors import TrainingError
from .numeric import Tensor

__all__ = ["AdamState", "clip_global_norm", "adam_step"]

DEFAULT_CLIP_NORM = 5.0
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """Optimizer state: learning rate, clip norm and per-parameter moment arrays."""

    def __init__(self, lr: float = 1e-3, clip_norm: float = DEFAULT_CLIP_NORM):
        self.lr = lr
        self.clip_norm = clip_norm
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients by max_norm/norm when the global norm exceeds it."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = math.sqrt(total)
    if norm <= max_norm or norm == 0.0:
        return grads
    factor = max_norm / norm
    return {name: g * factor for name, g in grads.items()}


def adam_step(state: AdamState, params: dict[str, Tensor], grads: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """Apply one clipped, bias-corrected Adam update in place.

    Parameter values are replaced between tape passes; moment arrays keep the
    dims of their parameter. Raises on any non-finite gradient, naming the
    offending parameter.
    """
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {name}")
        if params[name].data.shape != g.shape:
            raise TrainingError(f"gradient shape {g.shape} does not match parameter {name} with shape {params[name].data.shape}")
    grads = clip_global_norm(grads, state.clip_norm)
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, g in grads.items():
        p = params[name]
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p.data = p.data - state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    return params
