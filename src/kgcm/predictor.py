"""Structure-aware sequence encoder and multi-step forecast heads.

The encoder alternates two attention sublayers per block: standard attention
over the time axis, and attention over the feature axis whose pre-softmax
scores carry a log-damped structural bias built from the frozen relation
matrix. A position-wise feedforward closes each block. Every sublayer adds
its input back and layer-normalizes, and each is one fused kernel of
``numeric`` (``time_attention_norm``, ``feature_attention_norm``,
``feedforward_norm``), one tape entry per sublayer. The horizon is produced
by independent linear heads over the encoder's last row. A last block with
feature attention therefore computes only that row: its feature attention
still scores every row but outputs the last, and its feedforward runs on
that one row. A last block without feature attention runs every row.

``embed_sequence`` and ``forecast`` also take a (C, T, d) stack of C
windows' rows, on the tape or off it (scoring and training run them so, see
``numeric``); each window's result and the gradient of its rows are bitwise
those of its own (T, d) call, and a parameter's gradient sums over the
stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ContractError, DataError, ShapeError
from .numeric import (
    SeededRng,
    Tensor,
    add,
    constant,
    feature_attention_norm,
    feedforward_norm,
    gather_rows,
    linear,
    take,
    time_attention_norm,
)

__all__ = [
    "SsaBlockParams",
    "SsaParams",
    "init_ssa_params",
    "sinusoidal_positions",
    "embed_sequence",
    "structural_bias",
    "ssa_block",
    "forecast",
]


@dataclass(kw_only=True)
class SsaBlockParams:
    """One block's tensors, in the sublayer order that ``Model.named_parameters`` and the gradient clip follow."""

    t_wq: Tensor
    t_wk: Tensor
    t_wv: Tensor
    t_wo: Tensor
    ln1_gamma: Tensor
    ln1_beta: Tensor
    # feature-axis attention; None when the structure-aware sublayer is off
    f_wq: Tensor | None = None
    f_wk: Tensor | None = None
    f_wv: Tensor | None = None
    f_wo: Tensor | None = None
    ln2_gamma: Tensor | None = None
    ln2_beta: Tensor | None = None
    ff_w1: Tensor  # (4d, d)
    ff_b1: Tensor
    ff_w2: Tensor  # (d, 4d)
    ff_b2: Tensor
    ln3_gamma: Tensor
    ln3_beta: Tensor

    @property
    def has_feature_attention(self) -> bool:
        return self.f_wq is not None


@dataclass
class SsaParams:
    tod_table: Tensor  # (S, d)
    dow_table: Tensor  # (7, d)
    blocks: list[SsaBlockParams]
    head_w: Tensor  # (T', d)
    head_b: Tensor  # (T',)


def init_ssa_params(
    d: int,
    horizon: int,
    blocks: int,
    day_slots: int,
    rng: SeededRng,
    with_feature_attention: bool,
) -> SsaParams:
    if blocks < 1:
        raise ContractError(f"encoder needs at least one block, got {blocks}")
    block_list = []
    for i in range(blocks):
        p = SsaBlockParams(
            t_wq=Tensor(rng.glorot(d, d), requires_grad=True, name=f"ssa/b{i}/t_wq"),
            t_wk=Tensor(rng.glorot(d, d), requires_grad=True, name=f"ssa/b{i}/t_wk"),
            t_wv=Tensor(rng.glorot(d, d), requires_grad=True, name=f"ssa/b{i}/t_wv"),
            t_wo=Tensor(rng.glorot(d, d), requires_grad=True, name=f"ssa/b{i}/t_wo"),
            ln1_gamma=Tensor(np.ones(d), requires_grad=True, name=f"ssa/b{i}/ln1_gamma"),
            ln1_beta=Tensor(np.zeros(d), requires_grad=True, name=f"ssa/b{i}/ln1_beta"),
            ff_w1=Tensor(rng.glorot(4 * d, d), requires_grad=True, name=f"ssa/b{i}/ff_w1"),
            ff_b1=Tensor(np.zeros(4 * d), requires_grad=True, name=f"ssa/b{i}/ff_b1"),
            ff_w2=Tensor(rng.glorot(d, 4 * d), requires_grad=True, name=f"ssa/b{i}/ff_w2"),
            ff_b2=Tensor(np.zeros(d), requires_grad=True, name=f"ssa/b{i}/ff_b2"),
            ln3_gamma=Tensor(np.ones(d), requires_grad=True, name=f"ssa/b{i}/ln3_gamma"),
            ln3_beta=Tensor(np.zeros(d), requires_grad=True, name=f"ssa/b{i}/ln3_beta"),
        )
        if with_feature_attention:
            p.f_wq = Tensor(rng.glorot(d, d), requires_grad=True, name=f"ssa/b{i}/f_wq")
            p.f_wk = Tensor(rng.glorot(d, d), requires_grad=True, name=f"ssa/b{i}/f_wk")
            p.f_wv = Tensor(rng.glorot(d, d), requires_grad=True, name=f"ssa/b{i}/f_wv")
            p.f_wo = Tensor(rng.glorot(d, d), requires_grad=True, name=f"ssa/b{i}/f_wo")
            p.ln2_gamma = Tensor(np.ones(d), requires_grad=True, name=f"ssa/b{i}/ln2_gamma")
            p.ln2_beta = Tensor(np.zeros(d), requires_grad=True, name=f"ssa/b{i}/ln2_beta")
        block_list.append(p)
    return SsaParams(
        tod_table=Tensor(rng.normal((day_slots, d), std=0.02), requires_grad=True, name="ssa/tod_table"),
        dow_table=Tensor(rng.normal((7, d), std=0.02), requires_grad=True, name="ssa/dow_table"),
        blocks=block_list,
        head_w=Tensor(rng.glorot(horizon, d), requires_grad=True, name="ssa/head_w"),
        head_b=Tensor(np.zeros(horizon), requires_grad=True, name="ssa/head_b"),
    )


@lru_cache(maxsize=None)
def sinusoidal_positions(length: int, d: int) -> np.ndarray:
    """Fixed sin/cos position table: even columns sine, odd columns cosine.

    Computed once per (length, d); every caller shares the read-only array.
    """
    pe = np.zeros((length, d), dtype=np.float64)
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(0, d, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, idx / d)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : pe[:, 1::2].shape[1]])
    pe.setflags(write=False)
    return pe


def embed_sequence(h_seq: Tensor, slots: Sequence[int] | np.ndarray, dows: Sequence[int] | np.ndarray,
                   params: SsaParams) -> Tensor:
    """Add time-of-day, day-of-week and positional encodings to the sequence.

    (T, d) rows take (T,) slots and days; a (C, T, d) stack takes (C, T).
    """
    t, d = h_seq.data.shape[-2:]
    slots, dows = np.asarray(slots), np.asarray(dows)
    if slots.shape != h_seq.data.shape[:-1] or dows.shape != slots.shape:
        raise ShapeError(f"timestamps of shapes {slots.shape} and {dows.shape} do not cover the sequence's "
                         f"{h_seq.data.shape[:-1]} steps")
    day_slots = params.tod_table.data.shape[0]
    bad = slots[(slots < 0) | (slots >= day_slots)]
    if bad.size:
        raise DataError(f"time-of-day slot {bad[0]} outside table of size {day_slots}")
    bad = dows[(dows < 0) | (dows >= 7)]
    if bad.size:
        raise DataError(f"day-of-week {bad[0]} outside 0..6")
    te = add(gather_rows(params.tod_table, slots), gather_rows(params.dow_table, dows))
    return add(add(h_seq, te), constant(sinusoidal_positions(t, d)))


def structural_bias(matrix: np.ndarray) -> np.ndarray:
    """Elementwise log(1 + A); rejects negative entries."""
    if (matrix < 0).any():
        raise ContractError("structural bias requires a nonnegative matrix")
    return np.log1p(matrix)


def ssa_block(x: Tensor, bias: np.ndarray | None, block: SsaBlockParams, last_only: bool = False) -> Tensor:
    """One encoder block: single-head time attention, optional feature attention, feedforward.

    Each sublayer adds its input back and layer-normalizes. ``bias`` is added
    to the feature-axis scores before the softmax; passing None skips the
    addition (identical to an all-zero bias). With ``last_only`` a block with
    feature attention returns the last row's (1, d) output alone: feature
    attention outputs only that row, and the feedforward runs on it. A block
    without feature attention runs every row either way.
    """
    x = time_attention_norm(x, block.t_wq, block.t_wk, block.t_wv, block.t_wo, block.ln1_gamma, block.ln1_beta)
    if block.has_feature_attention:
        x = feature_attention_norm(x, block.f_wq, block.f_wk, block.f_wv, block.f_wo,
                                   block.ln2_gamma, block.ln2_beta, bias, last_only=last_only)
    return feedforward_norm(x, block.ff_w1, block.ff_b1, block.ff_w2, block.ff_b2, block.ln3_gamma, block.ln3_beta)


def forecast(e: Tensor, bias: np.ndarray | None, params: SsaParams) -> Tensor:
    """Stack the encoder blocks and apply the per-horizon linear heads to the last row.

    The heads read the last row alone, so the last block runs cut to it
    (``ssa_block``'s ``last_only``). One window's rows give (T',) values. A
    (C, T, d) stack gives (C, 1, T'): each window's last row goes through
    the heads as a (1, d) row, the vector-matrix product one window makes,
    where a (C, d) matrix product would round differently.
    """
    x = e
    last = len(params.blocks) - 1
    for i, block in enumerate(params.blocks):
        x = ssa_block(x, bias, block, last_only=i == last)
    return linear(take(x, -1 if x.data.ndim == 2 else np.s_[:, -1:]), params.head_w, params.head_b)
