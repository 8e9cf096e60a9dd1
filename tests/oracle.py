"""Tape ops that no model path runs, kept as the tests' reference.

The fused kernels of ``kgcm.numeric`` replaced these ops on the value path.
The tests build each kernel's composite from them, so the kernels are held
to a second, op-by-op derivation of the same math. They use ``numeric``'s
private helpers, so they share its softmax, layer norm and sigmoid
arithmetic, and their gradients are checked in ``test_numeric``.

The three stacked graph kernels (relation, smoothing scan, convolution)
are the graph layer split into one tape entry each; the tests hold
``numeric.graph_layer`` to their composite. ``assert_window_sum`` at the end
holds a stack's parameter gradient to its windows' own gradients.
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


def relation_softmax(states: Tensor, w_query: Tensor, w_key: Tensor) -> Tensor:
    """softmax_rows(relu((H Wq)(H Wk)^T)) for each step of a (S, d, n) stack, as a single tape entry.

    The result is one (d, d) matrix per step; the weight gradients sum over
    the steps.
    """
    h, wq, wk = states.data, w_query.data, w_key.data
    if h.ndim != 3 or wq.ndim != 2 or wk.ndim != 2 or h.shape[-1] != wq.shape[0] or h.shape[-1] != wk.shape[0]:
        raise ShapeError(f"relation_softmax shapes disagree: {h.shape}, {wq.shape}, {wk.shape}")
    q = h @ wq
    k = h @ wk
    # in place from the scores on: the (S, d, d) temporaries dominate the memory traffic
    out = q @ k.transpose(0, 2, 1)
    positive = out > 0.0
    np.maximum(out, 0.0, out=out)
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def bw(g):
        gs = g * out
        np.subtract(g, gs.sum(axis=-1, keepdims=True), out=gs)
        gs *= out
        gs *= positive
        gq = gs @ k
        gk = gs.transpose(0, 2, 1) @ q
        gh = gq @ wq.T + gk @ wk.T
        flat = h.reshape(-1, h.shape[-1]).T
        return gh, flat @ gq.reshape(-1, wq.shape[1]), flat @ gk.reshape(-1, wk.shape[1])

    return _result(out, (states, w_query, w_key), bw)


def lerp_const(raw: Tensor, prev: np.ndarray, lam: float) -> Tensor:
    """Smoothing scan ``out[t] = lam * out[t-1] + (1 - lam) * raw[t]`` over a stack of steps from ``out[-1] = prev``.

    The history is carried as a constant, so the gradient reaches ``raw[t]``
    through ``out[t]`` alone.
    """
    r = raw.data
    if r.ndim != prev.ndim + 1 or r.shape[1:] != prev.shape:
        raise ShapeError(f"lerp_const needs a stack of {prev.shape} steps, got {r.shape}")
    out = (1.0 - lam) * r
    for t in range(len(out)):
        out[t] += lam * prev
        prev = out[t]

    def bw(g):
        return (g * (1.0 - lam),)

    return _result(out, (raw,), bw)


def conv_residual_norm(states: Tensor, relation: Tensor, w_trans: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """layer_norm(relu(A H W) + H) for each step of a (S, d, n) stack with (S, d, d) relations, as a single tape entry.

    The parameter gradients sum over the steps.
    """
    h, a, w = states.data, relation.data, w_trans.data
    if h.ndim != 3 or a.shape != h.shape[:-1] + (h.shape[-2],) or w.shape != (h.shape[-1],) * 2:
        raise ShapeError(f"conv_residual_norm shapes disagree: {h.shape}, {a.shape}, {w.shape}")
    n = h.shape[-1]
    _check_affine("conv_residual_norm", n, gamma, beta)
    mixed = a @ h
    z = mixed @ w
    out, xhat, inv = _norm_forward(np.maximum(z, 0.0) + h, gamma.data, beta.data)

    def bw(g):
        dy, dgamma, dbeta = _norm_backward(g, gamma.data, xhat, inv)
        dz = dy * (z > 0.0)
        dw = mixed.reshape(-1, n).T @ dz.reshape(-1, n)
        dmixed = dz @ w.T
        da = dmixed @ h.transpose(0, 2, 1)
        dh = a.transpose(0, 2, 1) @ dmixed + dy
        return dh, da, dw, dgamma, dbeta

    return _result(out, (states, relation, w_trans, gamma, beta), bw)


def assert_window_sum(got: np.ndarray, windows: list[np.ndarray]) -> None:
    """A stack's parameter gradient is the sum of its windows' one-window gradients, to 1e-12 of their largest entry.

    The stack adds the same terms as the windows in another order, so it may
    differ from their sum by rounding alone.
    """
    want = windows[0].copy()
    for g in windows[1:]:
        want += g
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * max(np.abs(g).max(initial=0.0) for g in windows)
