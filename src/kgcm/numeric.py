"""Dense float64 arrays with reverse-mode gradients on a global tape.

Every tensor the model touches is a ``Tensor``: a rank <= 3 float64 numpy
array plus a ``requires_grad`` flag. Differentiable operations append an
entry to a module-level tape; ``backward`` replays the tape in reverse and
accumulates exactly one gradient per requires-grad leaf, then clears the
tape. Non-finite values are rejected at every op boundary.

Randomness is centralized in ``SeededRng``, a thin wrapper over the
counter-based Philox generator: one root seed, named child streams, and an
identical draw sequence on every platform.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "SeededRng",
    "backward",
    "grad_check",
    "tensor",
    "constant",
    "zeros",
    "tape_size",
    "clear_tape",
    "no_tape",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "matmul_nt",
    "matmul_tn",
    "linear",
    "relu",
    "sigmoid",
    "softmax_rows",
    "layer_norm",
    "mix",
    "lerp_const",
    "concat_cols",
    "take",
    "gather_rows",
    "mean_rows",
    "sum_all",
    "sum_sq",
    "sse",
    "relation_softmax",
    "conv_residual_norm",
    "history_columns",
    "fnv1a64",
]

LAYER_NORM_EPS = 1e-5

_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_U64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _U64
    return h


# ---------------------------------------------------------------------------
# Tensor and tape
# ---------------------------------------------------------------------------


class Tensor:
    """Rank <= 3 float64 array that can participate in differentiation."""

    __slots__ = ("data", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 3:
            raise ShapeError(f"rank {arr.ndim} exceeds the supported maximum of 3")
        if not np.isfinite(arr).all():
            raise NumericError(f"non-finite values in tensor {name or '<anonymous>'}")
        self.data = arr
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Copy of the current value with no gradient tracking."""
        return Tensor(self.data.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self.name or "tensor"
        return f"<{tag} shape={self.data.shape} grad={self.requires_grad}>"


# Tape entries are (output, inputs, backward_fn) triples. backward_fn maps the
# output gradient to a tuple of input gradients (None for non-grad inputs).
_TAPE: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
_TRACING = True


def tape_size() -> int:
    return len(_TAPE)


def clear_tape() -> None:
    _TAPE.clear()


@contextmanager
def no_tape():
    """Disable tape recording (inference, numeric probes)."""
    global _TRACING
    prev = _TRACING
    _TRACING = False
    try:
        yield
    finally:
        _TRACING = prev


def tensor(data, requires_grad: bool = False, name: str | None = None) -> Tensor:
    return Tensor(data, requires_grad=requires_grad, name=name)


def constant(data) -> Tensor:
    return Tensor(data)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64))


def _result(arr: np.ndarray, inputs: tuple[Tensor, ...], backward_fn: Callable) -> Tensor:
    """Wrap an op result, recording it on the tape when gradients are needed."""
    # One reduction instead of isfinite().all(): NaN/inf propagate through the
    # sum. Confirm with the full check before raising so huge-but-finite sums
    # cannot trigger a false alarm.
    if not math.isfinite(float(arr.sum())) and not np.isfinite(arr).all():
        raise NumericError("operation produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.name = None
    if _TRACING and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPE.append((out, inputs, backward_fn))
    else:
        out.requires_grad = False
    return out


def backward(loss: Tensor, params: Iterable[Tensor] = ()) -> dict[Tensor, np.ndarray]:
    """Accumulate d(loss)/d(leaf) for every requires-grad leaf on the tape.

    ``loss`` must be scalar. Returns a map from tensor to gradient; tensors in
    ``params`` that the loss does not depend on get explicit zeros. The tape
    is cleared before returning.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not _TAPE:
        raise ContractError("backward called with an empty tape")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones((), dtype=np.float64)}
    for out, inputs, backward_fn in reversed(_TAPE):
        g = grads.pop(out, None)
        if g is None:
            continue
        for t, gi in zip(inputs, backward_fn(g)):
            if gi is None or not t.requires_grad:
                continue
            prev = grads.get(t)
            grads[t] = gi if prev is None else prev + gi
    clear_tape()
    grads.pop(loss, None)
    for p in params:
        if p not in grads:
            grads[p] = np.zeros_like(p.data)
    return grads


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes that numpy broadcasting introduced."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# Elementwise and affine operations
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _result(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), -_unbroadcast(g, b.data.shape)

    return _result(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bw(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _result(out, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    out = a.data * c

    def bw(g):
        return (g * c,)

    return _result(out, (a,), bw)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def bw(g):
        return (g * (a.data > 0.0),)

    return _result(out, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    # Split by sign to avoid overflow in exp.
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

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


def lerp_const(raw: Tensor, prev: np.ndarray, lam: float) -> Tensor:
    """Smoothing scan ``out[t] = lam * out[t-1] + (1 - lam) * raw[t]`` from ``out[-1] = prev``.

    ``raw`` is one step of shape ``prev.shape`` or a stack of steps with one
    more leading axis. The history is carried as a constant, so the gradient
    reaches ``raw[t]`` through ``out[t]`` alone.
    """
    r = raw.data
    if r.shape[-prev.ndim:] != prev.shape or r.ndim - prev.ndim not in (0, 1):
        raise ShapeError(f"lerp_const shapes disagree: {r.shape} vs {prev.shape}")
    out = (1.0 - lam) * r.reshape((-1,) + prev.shape)
    for t in range(len(out)):
        out[t] += lam * prev
        prev = out[t]

    def bw(g):
        return (g * (1.0 - lam),)

    return _result(out.reshape(r.shape), (raw,), bw)


# ---------------------------------------------------------------------------
# Matrix products
# ---------------------------------------------------------------------------


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


def matmul_nt(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T for rank-2 operands."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[1]:
        raise ShapeError(f"matmul_nt expects (m,k) and (n,k), got {ad.shape} and {bd.shape}")
    out = ad @ bd.T

    def bw(g):
        return g @ bd, g.T @ ad

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


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight.T + bias with weight stored as (out_dim, in_dim)."""
    xd, wd = x.data, weight.data
    if wd.ndim != 2 or xd.ndim not in (1, 2) or xd.shape[-1] != wd.shape[1]:
        raise ShapeError(f"linear expects x (..,{wd.shape[1] if wd.ndim == 2 else '?'}), got {xd.shape} with weight {wd.shape}")
    out = xd @ wd.T
    if bias is not None:
        out = out + bias.data

    def bw(g):
        gx = g @ wd
        if xd.ndim == 1:
            gw = np.outer(g, xd)
            gb = g
        else:
            gw = g.T @ xd
            gb = g.sum(axis=0)
        if bias is None:
            return gx, gw
        return gx, gw, gb

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _result(out, inputs, bw)


# ---------------------------------------------------------------------------
# Normalizations
# ---------------------------------------------------------------------------


def softmax_rows(m: Tensor) -> Tensor:
    """Row-wise softmax of a rank-2 tensor with max-subtraction stability."""
    md = m.data
    if md.ndim != 2:
        raise ShapeError(f"softmax_rows expects rank 2, got shape {md.shape}")
    if md.shape[1] == 0:
        raise ShapeError("softmax_rows on empty rows")
    shifted = md - md.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        return (out * (g - (g * out).sum(axis=1, keepdims=True)),)

    return _result(out, (m,), bw)


def layer_norm(h: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    hd = h.data
    n = hd.shape[-1] if hd.ndim else 0
    if n == 0:
        raise ShapeError("layer_norm on a zero-length axis")
    if gamma.data.shape != (n,) or beta.data.shape != (n,):
        raise ShapeError(f"layer_norm affine params must have length {n}, got {gamma.data.shape} and {beta.data.shape}")
    mu = hd.mean(axis=-1, keepdims=True)
    centered = hd - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    out = gamma.data * xhat + beta.data

    def bw(g):
        dxhat = g * gamma.data
        dh = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        axes = tuple(range(hd.ndim - 1))
        dgamma = (g * xhat).sum(axis=axes) if axes else g * xhat
        dbeta = g.sum(axis=axes) if axes else g
        return dh, dgamma, dbeta

    return _result(out, (h, gamma, beta), bw)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two rank-2 tensors along the column axis."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
        raise ShapeError(f"concat_cols expects matching row counts, got {a.data.shape} and {b.data.shape}")
    split = a.data.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)

    def bw(g):
        return g[:, :split], g[:, split:]

    return _result(out, (a, b), bw)


def take(a: Tensor, key) -> Tensor:
    """``a[key]`` for a basic index of ints and slices; the gradient is zero elsewhere."""
    parts = key if isinstance(key, tuple) else (key,)
    if not all(isinstance(p, (int, np.integer, slice)) for p in parts):
        raise ShapeError(f"take expects an index of ints and slices, got {key!r}")
    try:
        out = a.data[key].copy()
    except IndexError as exc:
        raise ShapeError(f"take index {key!r} does not fit shape {a.data.shape}") from exc

    def bw(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)

    return _result(out, (a,), bw)


def gather_rows(table: Tensor, indices: Sequence[int]) -> Tensor:
    """Select rows of a rank-2 table; gradients scatter-add back."""
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows expects rank 2, got shape {table.data.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ShapeError(f"gather_rows index out of range for table with {table.data.shape[0]} rows")
    out = table.data[idx]

    def bw(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return (full,)

    return _result(out, (table,), bw)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def mean_rows(a: Tensor) -> Tensor:
    """Mean over axis 0 of a rank-2 tensor."""
    if a.data.ndim != 2:
        raise ShapeError(f"mean_rows expects rank 2, got shape {a.data.shape}")
    rows = a.data.shape[0]
    out = a.data.mean(axis=0)

    def bw(g):
        return (np.tile(g / rows, (rows, 1)),)

    return _result(out, (a,), bw)


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())

    def bw(g):
        return (np.full_like(a.data, float(g)),)

    return _result(out, (a,), bw)


def sum_sq(a: Tensor) -> Tensor:
    """Sum of squared entries as a scalar."""
    out = np.asarray((a.data * a.data).sum())

    def bw(g):
        return (2.0 * float(g) * a.data,)

    return _result(out, (a,), bw)


def sse(pred: Tensor, target: np.ndarray) -> Tensor:
    """Sum of squared errors against a constant target."""
    t = np.asarray(target, dtype=np.float64)
    if pred.data.shape != t.shape:
        raise ShapeError(f"prediction shape {pred.data.shape} does not match target shape {t.shape}")
    diff = pred.data - t
    out = np.asarray((diff * diff).sum())

    def bw(g):
        return (2.0 * float(g) * diff,)

    return _result(out, (pred,), bw)


# ---------------------------------------------------------------------------
# Fused kernels for the graph hot path
# ---------------------------------------------------------------------------
#
# Each kernel takes one step, rank-2 (d, n) states, or a stack of S steps
# with a leading step axis, (S, d, n), and records one tape entry either
# way; the graph pass runs all T steps of a window as one stack. Parameter
# gradients sum over the steps. Backward leaves out the steps whose
# incoming gradient is exactly zero: backward is linear in that gradient,
# so this is exact, and a readout of the last step alone (stage 1) then
# costs one step of backward instead of T.


def _stacked(x: np.ndarray) -> np.ndarray:
    """A rank-2 step as a stack of one; a rank-3 stack as it is."""
    return x if x.ndim == 3 else x[None]


def _live_steps(g: np.ndarray, *arrays: np.ndarray):
    """The stacked steps whose gradient is not all zero, and ``g`` and ``arrays`` cut to them.

    Backward is linear in ``g``, so leaving out the all-zero steps is exact.
    Returns ``slice(None)`` and the inputs unchanged when every step is live.
    """
    live = np.flatnonzero(g.reshape(len(g), -1).any(axis=1))
    if live.size == len(g):
        return slice(None), (g,) + arrays
    return live, tuple(x[live] for x in (g,) + arrays)


def _on_steps(part: np.ndarray, live, shape: tuple[int, ...]) -> np.ndarray:
    """The live steps' gradient placed in zeros of the full stacked ``shape``."""
    if isinstance(live, slice):
        return part
    full = np.zeros(shape)
    full[live] = part
    return full


def relation_softmax(states: Tensor, w_query: Tensor, w_key: Tensor) -> Tensor:
    """softmax_rows(relu((H Wq)(H Wk)^T)) as a single tape entry.

    ``states`` is one (d, n) step or a stack of (S, d, n) steps, one (d, d)
    matrix each; the weight gradients sum over the steps.
    """
    h, wq, wk = states.data, w_query.data, w_key.data
    if h.ndim not in (2, 3) or wq.ndim != 2 or wk.ndim != 2 or h.shape[-1] != wq.shape[0] or h.shape[-1] != wk.shape[0]:
        raise ShapeError(f"relation_softmax shapes disagree: {h.shape}, {wq.shape}, {wk.shape}")
    h3 = _stacked(h)
    q = h3 @ wq
    k = h3 @ wk
    # in place from the scores on: the (S, d, d) temporaries dominate the memory traffic
    out = q @ k.transpose(0, 2, 1)
    positive = out > 0.0
    np.maximum(out, 0.0, out=out)
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def bw(g):
        live, (g, o, pos, hl, ql, kl) = _live_steps(g.reshape(out.shape), out, positive, h3, q, k)
        gs = g * o
        np.subtract(g, gs.sum(axis=-1, keepdims=True), out=gs)
        gs *= o
        gs *= pos
        gq = gs @ kl
        gk = gs.transpose(0, 2, 1) @ ql
        gh = _on_steps(gq @ wq.T + gk @ wk.T, live, h3.shape)
        flat = hl.reshape(-1, h.shape[-1]).T
        return gh.reshape(h.shape), flat @ gq.reshape(-1, wq.shape[1]), flat @ gk.reshape(-1, wk.shape[1])

    return _result(out.reshape(h.shape[:-1] + (h.shape[-2],)), (states, w_query, w_key), bw)


def conv_residual_norm(states: Tensor, relation: Tensor, w_trans: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """layer_norm(relu(A H W) + H) as a single tape entry.

    ``states`` is one (d, n) step with a (d, d) relation or a stack of
    (S, d, n) steps with (S, d, d) relations; the parameter gradients sum
    over the steps.
    """
    h, a, w = states.data, relation.data, w_trans.data
    n = h.shape[-1]
    if h.ndim not in (2, 3) or a.shape != h.shape[:-1] + (h.shape[-2],) or w.shape != (n, n):
        raise ShapeError(f"conv_residual_norm shapes disagree: {h.shape}, {a.shape}, {w.shape}")
    if gamma.data.shape != (n,) or beta.data.shape != (n,):
        raise ShapeError(f"conv_residual_norm affine params must have length {n}")
    h3, a3 = _stacked(h), _stacked(a)
    mixed = a3 @ h3
    z = mixed @ w
    u = np.maximum(z, 0.0)
    y = u + h3
    mu = y.sum(axis=-1, keepdims=True) / n
    centered = y - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    out = gamma.data * xhat + beta.data

    def bw(g):
        live, (g, al, hl, ml, zl, il, xl) = _live_steps(g.reshape(out.shape), a3, h3, mixed, z, inv, xhat)
        dxhat = g * gamma.data
        dy = il * (
            dxhat
            - dxhat.sum(axis=-1, keepdims=True) / n
            - xl * (dxhat * xl).sum(axis=-1, keepdims=True) / n
        )
        dgamma = (g * xl).reshape(-1, n).sum(axis=0)
        dbeta = g.reshape(-1, n).sum(axis=0)
        dz = dy * (zl > 0.0)
        dw = ml.reshape(-1, n).T @ dz.reshape(-1, n)
        dmixed = dz @ w.T
        da = _on_steps(dmixed @ hl.transpose(0, 2, 1), live, a3.shape)
        dh = _on_steps(al.transpose(0, 2, 1) @ dmixed + dy, live, h3.shape)
        return dh.reshape(h.shape), da.reshape(a.shape), dw, dgamma, dbeta

    return _result(out.reshape(h.shape), (states, relation, w_trans, gamma, beta), bw)


def history_columns(rows: Tensor, steps, n: int) -> Tensor:
    """Columns t-n+1..t of the row sequence, transposed to (d, n), for each step t.

    An int step gives one (d, n) state; a sequence of S steps gives a stack
    of (S, d, n) states from one gather. Negative history indices repeat
    row 0, matching the pad-by-repetition rule for the start of a window.
    """
    x = rows.data
    if x.ndim != 2:
        raise ShapeError(f"history_columns expects rank 2, got shape {x.shape}")
    t = np.asarray(steps, dtype=np.intp)
    if t.ndim > 1 or t.size == 0 or t.min() < 0 or t.max() >= x.shape[0]:
        raise ShapeError(f"steps {steps!r} are not steps of a sequence of length {x.shape[0]}")
    idx = np.maximum(t[..., None] + np.arange(1 - n, 1), 0)
    out = np.swapaxes(x[idx], -1, -2).copy()

    def bw(g):
        full = np.zeros_like(x)
        kept = idx
        if t.ndim:
            _, (g, kept) = _live_steps(g, idx)
        np.add.at(full, kept, np.swapaxes(g, -1, -2))
        return (full,)

    return _result(out, (rows,), bw)


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` maps one tensor to a scalar tensor. The relative error at each
    coordinate is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    probe = Tensor(x.data.copy(), requires_grad=True)
    clear_tape()
    loss = f(probe)
    grads = backward(loss, params=(probe,))
    analytic = grads[probe]
    numeric = np.zeros_like(probe.data)
    flat = probe.data.reshape(-1)
    nflat = numeric.reshape(-1)
    with no_tape():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f(probe).item()
            flat[i] = orig - h
            down = f(probe).item()
            flat[i] = orig
            if not (math.isfinite(up) and math.isfinite(down)):
                raise NumericError("function non-finite at finite-difference probe point")
            nflat[i] = (up - down) / (2.0 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------


class SeededRng:
    """Deterministic random stream backed by the Philox counter generator.

    One 64-bit root seed fixes every draw; named children give independent,
    reproducible substreams (seed and FNV-1a of the name form the Philox key).
    """

    def __init__(self, seed: int, _key: tuple[int, int] | None = None):
        self.seed = int(seed) & _U64
        key = _key if _key is not None else (self.seed, fnv1a64(b"root"))
        self._key = key
        self._gen = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))

    def child(self, name: str) -> "SeededRng":
        mixed = fnv1a64(name.encode("utf-8") + self._key[1].to_bytes(8, "little"))
        return SeededRng(self.seed, _key=(self.seed, mixed))

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, std, size=shape)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def glorot(self, fan_out: int, fan_in: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return self._gen.uniform(-limit, limit, size=(fan_out, fan_in))

    def random(self) -> float:
        return float(self._gen.random())

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
