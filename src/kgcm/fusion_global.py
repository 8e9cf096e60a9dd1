"""Shared-context gate parameters and frozen relation-matrix weighting.

The shared-context gate (rcpg) blends a window's (T, d) step rows with the
pooled cross-region text vector through ``fusion_local.gated_fuse``; this
module holds its weights. ``acmfw_weight`` applies the relation matrix
frozen after the first training stage to the (T, d) rows as a fixed linear
operator. ``load_model`` validates a stored matrix. These are the functions
``Model`` calls and ``gradcheck`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .numeric import SeededRng, Tensor, constant, matmul_nt

__all__ = ["GlobalGateParams", "init_global_gate", "acmfw_weight"]


@dataclass
class GlobalGateParams:
    w_gate: Tensor  # (d, 2d)
    b_gate: Tensor  # (d,)


def init_global_gate(d: int, rng: SeededRng) -> GlobalGateParams:
    return GlobalGateParams(
        w_gate=Tensor(rng.glorot(d, 2 * d), requires_grad=True, name="global/w_gate"),
        b_gate=Tensor(np.zeros(d), requires_grad=True, name="global/b_gate"),
    )


def acmfw_weight(rows: Tensor, matrix: np.ndarray) -> Tensor:
    """Reweight the feature dimensions of each (T, d) row by the frozen matrix: row i becomes A h_i."""
    d = matrix.shape[0]
    if matrix.shape != (d, d) or rows.data.ndim != 2 or rows.data.shape[1] != d:
        raise ShapeError(f"rows {rows.data.shape} cannot be weighted by a matrix of shape {matrix.shape}")
    return matmul_nt(rows, constant(matrix))
