"""Adaptive feature-relation graph with smoothed updates.

``run_dgso`` takes a window's (T, d) fused rows. The d model dimensions act
as graph nodes whose states are their own recent history: at step t,
``numeric.history_columns`` lifts rows t-n+1..t to the (d, n) node states.
Every step builds a row-stochastic relation matrix from projected node
states, smooths it against the previous step's matrix, and runs one graph
convolution per layer with residual + layer norm. Gradients flow through
the current step's raw matrix only; the smoothing history is carried as a
constant (backpropagation through time truncated at one step). A step's
math therefore depends only on its own inputs and the parameters, so each
layer runs on all T steps at once: one lift of the (T, d, n) states, then
per layer one fused kernel (``numeric.graph_layer``) that builds, smooths
and convolves the stack and records one tape entry. Stage 1 reads only the
last step, so it tapes step T-1 alone from matrices carried off the tape.
``run_dgso`` is what ``Model`` calls and what ``gradcheck`` checks,
together with the layer kernel.

``run_dgso`` also takes a (C, T, d) stack of C windows' rows, on a tape and
off it. The lift then gives (T, C, d, n) states, the step axis outermost,
and each layer builds, smooths and convolves all C windows' steps at once,
carrying C smoothing states from the shared start; each window's states,
matrix and row gradient are bitwise those of its own call, and a
parameter's gradient is the sum of the windows' own up to rounding.
Training runs the pass so on ``pipeline.TRAIN_STACK`` windows per tape, and
scoring on each chunk of ``pipeline.SCORE_CHUNK`` windows, through the same
calls off the tape.

The pass computes in the dtype of the rows it is given. ``Model`` casts its
fused rows to ``GRAPH_DTYPE`` (float32) before ``run_dgso`` and casts the
rows it reads back to float64 after it, with two ``numeric.cast`` entries on
the tape; the parameters stay float64, and so do their gradients. The
gradient checks run the pass on float64 rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError
from .numeric import (
    SeededRng,
    Tensor,
    graph_layer,
    history_columns,
    no_tape,
    relation_carry,
)

__all__ = [
    "DgsoLayerParams",
    "DgsoParams",
    "init_dgso_params",
    "uniform_matrix",
    "GRAPH_DTYPE",
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


# The dtype Model runs the graph pass in: the (T, d, d) relation stacks set its time by the bytes they move,
# and float32 halves them (mixed precision over float64 master weights, as in Micikevicius et al., 2018).
GRAPH_DTYPE = np.float32


def run_dgso(fused_rows: Tensor, params: DgsoParams, n: int, last_step_only: bool = False) -> tuple[Tensor, np.ndarray]:
    """Run the full graph pass over a (T, d) window of fused step rows.

    Returns the last layer's (T, d, n) node states and its smoothed relation
    matrix at the last step. Every layer's smoothing state starts at the
    uniform matrix at the window's first step and is carried across its
    consecutive steps, so a window's pass depends on that window alone.
    Steps earlier than n-1 pad their history by repeating the first step.
    States and matrix have the dtype of ``fused_rows``.

    With ``last_step_only`` (stage 1) the states are step T-1's, (1, d, n),
    and the matrix is the same: steps 0..T-2 run off the tape, the last
    layer through ``relation_carry``, and each layer's matrix at step T-2
    is the constant ``start`` of its taped call on step T-1.

    ``fused_rows`` may also be a (C, T, d) stack of C windows. The pass then
    runs them together, the step axis outermost, and returns (T, C, d, n)
    states, or (1, C, d, n), and (C, d, d) matrices, each window's slice
    bitwise its own call's, on a tape and off it.
    """
    shape = fused_rows.data.shape
    if len(shape) not in (2, 3) or 0 in shape[:-1]:
        raise ContractError(f"run_dgso needs a (T, d) window or a (C, T, d) stack, got shape {shape}")
    t_steps, d = shape[-2:]
    layers, lam, steps = params.layers, params.ema_lambda, range(t_steps)
    starts = [uniform_matrix(d)] * len(layers)
    if last_step_only:
        steps = [t_steps - 1]
        if t_steps > 1:
            with no_tape():
                states = history_columns(fused_rows, range(t_steps - 1), n)
                for l, layer in enumerate(layers[:-1]):
                    states, starts[l] = graph_layer(states, layer.w_query, layer.w_key, layer.w_trans,
                                                    layer.ln_gamma, layer.ln_beta, starts[l], lam)
                starts[-1] = relation_carry(states, layers[-1].w_query, layers[-1].w_key, starts[-1], lam)
    states = history_columns(fused_rows, steps, n)
    for layer, start in zip(layers, starts):
        states, matrix = graph_layer(states, layer.w_query, layer.w_key, layer.w_trans, layer.ln_gamma,
                                     layer.ln_beta, start, lam)
    return states, matrix
