"""Fusion of structured features with text, and the frozen-matrix weighting.

A window's (T, F) structured rows are embedded as (T, d) rows in one pass.
The rows whose step carries text query the window's packed token vectors in
one prompt-augmented cross-attention call (``numeric.step_cross_attention``),
masked so that each row sees only its own step's tokens; a (C, T, d)
stack of windows' rows makes one call too, each window's tokens packed on
their own. ``Model`` blends
the structured and text rows with ``numeric.sigmoid_gate`` and the ``lpo``
gate weight. The shared-context gate (rcpg) runs through the same kernel,
with the pooled cross-region text vector tiled over the steps and a bias;
its weights are ``GlobalGateParams``. A squared-distance penalty keeps the
two modality prompts aligned. ``acmfw_weight`` applies the relation matrix
frozen after the first training stage to the (T, d) rows as a fixed linear
operator; ``load_model`` validates a stored matrix. These are the functions
``Model`` calls and ``gradcheck`` checks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeError
from .numeric import (
    SeededRng,
    Tensor,
    constant,
    linear,
    matmul_nt,
    relu,
    step_cross_attention,
    sub,
    sum_sq,
    zeros,
)

log = logging.getLogger(__name__)

__all__ = [
    "LpoParams",
    "init_lpo_params",
    "embed_structured_rows",
    "guided_cross_attention",
    "prompt_loss",
    "GlobalGateParams",
    "init_global_gate",
    "acmfw_weight",
]


@dataclass
class LpoParams:
    """Learnable pieces of the local fusion step.

    ``w_embed``/``b_embed`` always exist (the structured embedding); the
    attention and gate weights are None when local text fusion is disabled.
    """

    w_embed: Tensor  # (d, F)
    b_embed: Tensor  # (d,)
    prompt_struct: Tensor | None = None  # (d,)
    prompt_text: Tensor | None = None  # (d,)
    w_query: Tensor | None = None  # (d, d)
    w_key: Tensor | None = None  # (d, d)
    w_value: Tensor | None = None  # (d, d)
    w_gate: Tensor | None = None  # (d, 2d)

    @property
    def dim(self) -> int:
        return self.w_embed.data.shape[0]

    @property
    def has_text_fusion(self) -> bool:
        return self.prompt_struct is not None


def init_lpo_params(d: int, feature_count: int, rng: SeededRng, with_text: bool) -> LpoParams:
    """Glorot weights, zero biases, prompts from N(0, 0.02^2)."""
    params = LpoParams(
        w_embed=Tensor(rng.glorot(d, feature_count), requires_grad=True, name="lpo/w_embed"),
        b_embed=Tensor(np.zeros(d), requires_grad=True, name="lpo/b_embed"),
    )
    if with_text:
        params.prompt_struct = Tensor(rng.normal((d,), std=0.02), requires_grad=True, name="lpo/prompt_struct")
        params.prompt_text = Tensor(rng.normal((d,), std=0.02), requires_grad=True, name="lpo/prompt_text")
        params.w_query = Tensor(rng.glorot(d, d), requires_grad=True, name="lpo/w_query")
        params.w_key = Tensor(rng.glorot(d, d), requires_grad=True, name="lpo/w_key")
        params.w_value = Tensor(rng.glorot(d, d), requires_grad=True, name="lpo/w_value")
        params.w_gate = Tensor(rng.glorot(d, 2 * d), requires_grad=True, name="lpo/w_gate")
    return params


@dataclass
class GlobalGateParams:
    """The shared-context (rcpg) gate: ``numeric.sigmoid_gate`` with a bias, over the pooled vector tiled on the rows."""

    w_gate: Tensor  # (d, 2d)
    b_gate: Tensor  # (d,)


def init_global_gate(d: int, rng: SeededRng) -> GlobalGateParams:
    return GlobalGateParams(
        w_gate=Tensor(rng.glorot(d, 2 * d), requires_grad=True, name="global/w_gate"),
        b_gate=Tensor(np.zeros(d), requires_grad=True, name="global/b_gate"),
    )


def embed_structured_rows(x: Tensor, params: LpoParams) -> Tensor:
    """ReLU(x W^T + b) for a (T, F) matrix of structured rows."""
    return relu(linear(x, params.w_embed, params.b_embed))


def _packed(tokens: Sequence[np.ndarray], t: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A window's (M, d) block of its T steps' token rows in step order, and the (T,) count of each step's."""
    if len(tokens) != t:
        raise ShapeError(f"{t} rows need one token matrix each, got {len(tokens)}")
    for step in tokens:
        if step.ndim != 2 or step.shape[1] != d:
            raise ShapeError(f"token matrix has shape {step.shape}, expected (m, {d})")
    return np.concatenate(tokens), np.array([step.shape[0] for step in tokens])


def guided_cross_attention(h_s: Tensor, tokens: Sequence, params: LpoParams) -> Tensor:
    """Attend from each step's structured row to that step's token rows.

    ``h_s`` holds the window's (T, d) embedded rows and ``tokens[t]`` is the
    (m_t, d) token matrix of step t. The tokens are packed into one (M, d)
    block; each row with m_t > 0 is scored against all M tokens under a
    constant mask that leaves it only its own step's tokens. m_t = 0 is
    legal: that row of the (T, d) result is zero and is not scored. A window
    with no tokens at all returns untracked zeros and logs the event, so
    sparsely annotated data still flows through. A (C, T, d) stack of rows
    takes window c's token matrices in ``tokens[c]``, packed per window.
    """
    d = params.dim
    rows = h_s.data
    if rows.ndim not in (2, 3) or rows.shape[-1] != d or (rows.ndim == 3 and len(tokens) != len(rows)):
        raise ShapeError(f"query rows {rows.shape} need shape (T, {d}), or (C, T, {d}) with {len(tokens)} windows")
    if rows.ndim == 2:
        block, counts = _packed(tokens, rows.shape[0], d)
    else:
        block, counts = zip(*(_packed(window, rows.shape[1], d) for window in tokens))
    if not (counts.any() if rows.ndim == 2 else any(k.any() for k in counts)):
        log.debug("empty local text: cross-attention output is the zero matrix")
        return zeros(rows.shape)
    return step_cross_attention(h_s, block, counts, params.w_query, params.w_key, params.w_value,
                                params.prompt_struct, params.prompt_text)


def prompt_loss(params: LpoParams) -> Tensor:
    """Squared L2 distance between the two modality prompts."""
    return sum_sq(sub(params.prompt_struct, params.prompt_text))


def acmfw_weight(rows: Tensor, matrix: np.ndarray) -> Tensor:
    """Reweight the feature dimensions of each (T, d) row by the frozen matrix: row i becomes A h_i.

    The rows may also be a (C, T, d) stack of windows' rows.
    """
    d = matrix.shape[0]
    if matrix.shape != (d, d) or rows.data.ndim not in (2, 3) or rows.data.shape[-1] != d:
        raise ShapeError(f"rows {rows.data.shape} cannot be weighted by a matrix of shape {matrix.shape}")
    return matmul_nt(rows, constant(matrix))
