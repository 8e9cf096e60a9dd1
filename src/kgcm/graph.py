"""Adaptive feature-relation graph with smoothed updates.

``run_dgso`` takes a window's (T, d) fused rows. The d model dimensions act
as graph nodes whose states are their own recent history: at step t,
``numeric.history_columns`` lifts rows t-n+1..t to the (d, n) node states.
Every step builds a row-stochastic relation matrix from projected node
states, smooths it against the previous step's matrix, and runs one graph
convolution per layer with residual + layer norm. Gradients flow through
the current step's raw matrix only; the smoothing history is carried as a
constant. ``run_dgso`` is what ``Model`` calls; ``gradcheck`` checks it and
the per-layer functions it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .numeric import (
    SeededRng,
    Tensor,
    conv_residual_norm,
    history_columns,
    lerp_const,
    relation_softmax,
    take_col,
)

__all__ = [
    "DgsoLayerParams",
    "DgsoParams",
    "DgsoResult",
    "init_dgso_params",
    "uniform_matrix",
    "build_relation_matrix",
    "ema_update",
    "graph_conv_layer",
    "run_dgso",
]


@dataclass
class DgsoLayerParams:
    w_query: Tensor  # (n, n')
    w_key: Tensor  # (n, n')
    w_trans: Tensor  # (n, n)
    ln_gamma: Tensor  # (n,)
    ln_beta: Tensor  # (n,)


@dataclass
class DgsoParams:
    layers: list[DgsoLayerParams]
    ema_lambda: float

    @property
    def depth(self) -> int:
        return len(self.layers)


def init_dgso_params(n: int, n_prime: int, depth: int, ema_lambda: float, rng: SeededRng) -> DgsoParams:
    if depth < 1:
        raise ConfigError(f"graph depth must be >= 1, got {depth}")
    if not 0.0 <= ema_lambda <= 1.0:
        raise ConfigError(f"ema_lambda must lie in [0, 1], got {ema_lambda}")
    layers = []
    for l in range(depth):
        layers.append(
            DgsoLayerParams(
                w_query=Tensor(rng.glorot(n, n_prime), requires_grad=True, name=f"dgso/l{l}/w_query"),
                w_key=Tensor(rng.glorot(n, n_prime), requires_grad=True, name=f"dgso/l{l}/w_key"),
                w_trans=Tensor(rng.glorot(n, n), requires_grad=True, name=f"dgso/l{l}/w_trans"),
                ln_gamma=Tensor(np.ones(n), requires_grad=True, name=f"dgso/l{l}/ln_gamma"),
                ln_beta=Tensor(np.zeros(n), requires_grad=True, name=f"dgso/l{l}/ln_beta"),
            )
        )
    return DgsoParams(layers=layers, ema_lambda=ema_lambda)


def uniform_matrix(d: int) -> np.ndarray:
    """The unbiased row-stochastic start state: every entry 1/d."""
    return np.full((d, d), 1.0 / d, dtype=np.float64)


def build_relation_matrix(states: Tensor, layer: DgsoLayerParams) -> Tensor:
    """Row-softmax of ReLU(Q K^T) over projected node states."""
    return relation_softmax(states, layer.w_query, layer.w_key)


def ema_update(prev: np.ndarray, raw: Tensor, ema_lambda: float) -> Tensor:
    """lambda * prev + (1 - lambda) * raw; ``prev`` is carried as a constant."""
    if not 0.0 <= ema_lambda <= 1.0:
        raise ConfigError(f"ema_lambda must lie in [0, 1], got {ema_lambda}")
    if prev.shape != raw.data.shape:
        raise ShapeError(f"smoothing shapes disagree: {prev.shape} vs {raw.data.shape}")
    return lerp_const(raw, prev, ema_lambda)


def graph_conv_layer(states: Tensor, relation: Tensor, layer: DgsoLayerParams) -> Tensor:
    """ReLU(A H W) with residual connection and per-node layer norm."""
    return conv_residual_norm(states, relation, layer.w_trans, layer.ln_gamma, layer.ln_beta)


@dataclass
class DgsoResult:
    step_vectors: list[Tensor]  # refined current-state vector per step, each (d,)
    final_states: Tensor  # (d, n) node states after the last step
    final_matrices: list[np.ndarray]  # smoothed relation matrix per layer, last step
    pad_count: int


def run_dgso(
    fused_rows: Tensor,
    params: DgsoParams,
    n: int,
    init_matrices: Sequence[np.ndarray] | None = None,
) -> DgsoResult:
    """Run the full graph pass over a (T, d) window of fused step rows.

    Smoothing state starts uniform (or at ``init_matrices``) and is carried
    across the window's consecutive steps, per layer. Steps earlier than n-1
    pad their history by repeating the first step; the total pad count is
    reported so callers can log it.
    """
    if fused_rows.data.ndim != 2 or fused_rows.data.shape[0] < 1:
        raise ContractError(f"run_dgso needs a (T, d) window, got shape {fused_rows.data.shape}")
    t_steps, d = fused_rows.data.shape
    prev = [m.copy() for m in init_matrices] if init_matrices is not None else [uniform_matrix(d) for _ in params.layers]
    if len(prev) != params.depth:
        raise ShapeError(f"expected {params.depth} smoothing matrices, got {len(prev)}")
    step_vectors: list[Tensor] = []
    pad_count = 0
    states: Tensor | None = None
    for t in range(t_steps):
        pad_count += max(0, n - 1 - t)
        states = history_columns(fused_rows, t, n)
        for l, layer in enumerate(params.layers):
            raw = build_relation_matrix(states, layer)
            smoothed = ema_update(prev[l], raw, params.ema_lambda)
            prev[l] = smoothed.data.copy()
            states = graph_conv_layer(states, smoothed, layer)
        step_vectors.append(take_col(states, n - 1))
    return DgsoResult(step_vectors=step_vectors, final_states=states, final_matrices=prev, pad_count=pad_count)
