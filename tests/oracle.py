"""Generic tape ops that no model path runs, kept as the tests' reference.

The fused kernels of ``kgcm.numeric`` replaced these ops on the value path.
The tests build each kernel's composite from them, so the kernels are held
to a second, op-by-op derivation of the same math. They use ``numeric``'s
private helpers, so they share its softmax, layer norm and sigmoid
arithmetic, and their gradients are checked in ``test_numeric``.
"""

from __future__ import annotations

import numpy as np

from kgcm.errors import ShapeError
from kgcm.numeric import (
    Tensor,
    _check_affine,
    _norm_backward,
    _norm_forward,
    _result,
    _sigmoid,
    _softmax,
    _softmax_backward,
    _unbroadcast,
)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bw(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _result(out, (a, b), bw)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)

    def bw(g):
        return (g * out * (1.0 - out),)

    return _result(out, (a,), bw)


def mix(g: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """Convex gate: g * a + (1 - g) * b, elementwise with broadcasting."""
    out = g.data * a.data + (1.0 - g.data) * b.data

    def bw(grad):
        return (
            _unbroadcast(grad * (a.data - b.data), g.data.shape),
            _unbroadcast(grad * g.data, a.data.shape),
            _unbroadcast(grad * (1.0 - g.data), b.data.shape),
        )

    return _result(out, (g, a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for rank-2 operands."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ShapeError(f"matmul expects rank-2 operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {ad.shape} @ {bd.shape}")
    out = ad @ bd

    def bw(g):
        return g @ bd.T, ad.T @ g

    return _result(out, (a, b), bw)


def matmul_tn(a: Tensor, b: Tensor) -> Tensor:
    """a.T @ b for rank-2 operands."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[0] != bd.shape[0]:
        raise ShapeError(f"matmul_tn expects (m,k) and (m,n), got {ad.shape} and {bd.shape}")
    out = ad.T @ bd

    def bw(g):
        return bd @ g.T, ad @ g

    return _result(out, (a, b), bw)


def softmax_rows(m: Tensor) -> Tensor:
    """Row-wise softmax of a rank-2 tensor with max-subtraction stability."""
    md = m.data
    if md.ndim != 2:
        raise ShapeError(f"softmax_rows expects rank 2, got shape {md.shape}")
    if md.shape[1] == 0:
        raise ShapeError("softmax_rows on empty rows")
    out = _softmax(md)

    def bw(g):
        return (_softmax_backward(g, out),)

    return _result(out, (m,), bw)


def layer_norm(h: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    hd = h.data
    n = hd.shape[-1] if hd.ndim else 0
    if n == 0:
        raise ShapeError("layer_norm on a zero-length axis")
    _check_affine("layer_norm", n, gamma, beta)
    out, xhat, inv = _norm_forward(hd, gamma.data, beta.data)

    def bw(g):
        return _norm_backward(g, gamma.data, xhat, inv)

    return _result(out, (h, gamma, beta), bw)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two rank-2 tensors along the column axis."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
        raise ShapeError(f"concat_cols expects matching row counts, got {a.data.shape} and {b.data.shape}")
    split = a.data.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)

    def bw(g):
        return g[:, :split], g[:, split:]

    return _result(out, (a, b), bw)


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())

    def bw(g):
        return (np.full_like(a.data, float(g)),)

    return _result(out, (a,), bw)
