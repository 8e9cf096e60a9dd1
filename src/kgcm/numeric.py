"""Dense arrays with reverse-mode gradients on a global tape.

Every tensor the model touches is a ``Tensor``: a rank <= 3 numpy array
plus a ``requires_grad`` flag. Differentiable operations append an entry to
a module-level tape; ``backward`` replays the tape in reverse and
accumulates exactly one gradient per requires-grad leaf, then clears the
tape. Non-finite values are rejected at every op boundary.

Tensors are float64, with one exception: the ``dgso`` graph pass runs in
float32, between two ``cast`` entries that ``Model`` records around it.
``history_columns`` and ``graph_layer`` compute in the dtype of their
states and cast their float64 parameters to it on entry; the parameter
gradients they return are float64 again, and ``cast`` returns its gradient
in the dtype of its source. Parameters, optimizer state and everything
outside the graph pass stay float64, and so do the graph kernels when they
are given float64 states, as the gradient checks give them.

The module holds only what a model path runs: the generic ops that the
embedding, the heads, the losses and the graph lift use, and one fused
kernel per value-path sublayer (see the comment that opens the fused-kernel
section).

The value-path ops (``add``, ``relu``, ``linear``, ``matmul_nt``,
``gather_rows``, ``sse``, the encoder kernels and ``sigmoid_gate``) also
take a leading window axis: (C, T, d) rows, where each window's slice of
the result is bitwise that window's own call, on the tape or off it.
``take`` takes any rank. A tape records a stacked call as one entry, and
``backward`` of a (C,) loss of C window losses differentiates their sum: a
stacked tensor's gradient has its own shape, each window's slice bitwise
its own, and a parameter's gradient is summed over the stack's rows. The
ops a stack cannot run (``step_cross_attention`` and the graph kernels on a
tape) run once per window, on the ``unstack``-ed slices of a stack, inside
``each_window``, which stacks their results; a slice's gradient lands in
its window's slice of the stack's.
The graph kernels take an untaped stack too, after their step axis:
``history_columns`` lifts (C, T, d) rows to (T, C, d, n) states, and
``graph_layer`` runs them; a stacked call that a tape would record raises
``ContractError``.

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
    "tensor",
    "constant",
    "zeros",
    "tape_size",
    "clear_tape",
    "no_tape",
    "unstack",
    "each_window",
    "add",
    "sub",
    "scale",
    "matmul_nt",
    "linear",
    "relu",
    "cast",
    "take",
    "gather_rows",
    "mean_rows",
    "sum_sq",
    "sse",
    "graph_layer",
    "history_columns",
    "time_attention_norm",
    "feature_attention_norm",
    "feedforward_norm",
    "sigmoid_gate",
    "step_cross_attention",
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
    """Rank <= 3 array that can participate in differentiation.

    The graph kernels return rank-4 tensors for an untaped stack of windows
    (see ``graph_layer``); no tensor of rank 4 is built from data.

    Data is float64, except that a float32 numpy array is kept as float32:
    the graph pass's node states and relations are float32 (see the module
    docstring). Every other input is converted to float64.
    """

    __slots__ = ("data", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, np.ndarray) and data.dtype == np.float32:
            arr = data
        else:
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self.name or "tensor"
        return f"<{tag} shape={self.data.shape} grad={self.requires_grad}>"


class _Slice(Tensor):
    """Window ``index``'s slice of a stacked tensor, as a view; ``backward`` adds its gradient into the stack's."""

    __slots__ = ("stack", "index")


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


def unstack(stacked: Tensor) -> list[Tensor]:
    """Each window's slice of a (C, ...) stack, as a view that records nothing; its gradient lands in the stack's."""
    views = []
    for c, rows in enumerate(stacked.data):
        view = _Slice.__new__(_Slice)
        view.data, view.requires_grad, view.name = rows, stacked.requires_grad, None
        view.stack, view.index = stacked, c
        views.append(view)
    return views


def each_window(count: int, step: Callable[[int], Tensor]) -> Tensor:
    """The (C, ...) stack of ``step(c)`` for each window c of ``count``, as one tape entry.

    The entry hands slice c of the stack's gradient to ``step(c)``.
    """
    parts = [step(c) for c in range(count)]
    try:
        out = np.stack([p.data for p in parts])
    except ValueError as exc:
        raise ShapeError(f"the parts of a stack differ in shape: {exc}") from exc

    def bw(g):
        return tuple(g)

    return _result(out, tuple(parts), bw)


def _records(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``inputs`` goes on the tape, so that its backward will run."""
    return _TRACING and any(t.requires_grad for t in inputs)


def _untaped_stack(op: str, ndim: int, inputs: tuple[Tensor, ...], rank: int = 2) -> None:
    """Refuse a leading window axis (rank ``ndim`` above one window's ``rank``) on a call that a tape would record."""
    if ndim > rank and _records(inputs):
        raise ContractError(f"{op} takes a stack of windows only where no tape records it")


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
    if _records(inputs):
        out.requires_grad = True
        _TAPE.append((out, inputs, backward_fn))
    else:
        out.requires_grad = False
    return out


def backward(loss: Tensor, params: Iterable[Tensor] = ()) -> dict[Tensor, np.ndarray]:
    """Accumulate d(loss)/d(leaf) for every requires-grad leaf on the tape.

    ``loss`` is a scalar, or a (C,) stack of C windows' losses, whose sum is
    differentiated: each is seeded with one. Returns a map from tensor to
    gradient; tensors in ``params`` that the loss does not depend on get
    explicit zeros. The tape is cleared before returning.

    Gradients are added in reverse tape order, each sum a new array, except
    that a window's slice of a stack (``unstack``) adds its gradient into
    that slice of the stack's, in place. Such an array starts at -0.0, which
    adds to any x as x bitwise, so each slice is bitwise that window's own
    gradient, signed zeros included.
    """
    if loss.data.ndim > 1:
        raise ContractError(f"backward requires a scalar loss or a (C,) stack of window losses, "
                            f"got shape {loss.data.shape}")
    if not _TAPE:
        raise ContractError("backward called with an empty tape")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones(loss.data.shape, dtype=np.float64)}
    owned: set[Tensor] = set()  # the stacks whose gradient array backward made, to add slices into
    for out, inputs, backward_fn in reversed(_TAPE):
        g = grads.pop(out, None)
        if g is None:
            continue
        for t, gi in zip(inputs, backward_fn(g)):
            if gi is None or not t.requires_grad:
                continue
            if type(t) is _Slice:
                stack = t.stack
                arr = grads.get(stack)
                if stack not in owned:  # none yet, or another entry's array, which may be in use elsewhere
                    arr = grads[stack] = np.full(stack.data.shape, -0.0, gi.dtype) if arr is None else arr.copy()
                    owned.add(stack)
                arr[t.index] += gi
            else:
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
    """a + b, broadcast; each input's gradient is summed over the axes it was broadcast along."""
    out = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _result(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), -_unbroadcast(g, b.data.shape)

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


def cast(a: Tensor, dtype) -> Tensor:
    """``a`` converted to ``dtype``; the gradient comes back in ``a``'s own dtype."""
    source = a.data.dtype

    def bw(g):
        return (g.astype(source),)

    return _result(a.data.astype(dtype), (a,), bw)


# ---------------------------------------------------------------------------
# Matrix products
# ---------------------------------------------------------------------------


def matmul_nt(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T for a rank-2 ``b`` and a rank-2 ``a``, or a (C, m, k) stack of them."""
    ad, bd = a.data, b.data
    if ad.ndim not in (2, 3) or bd.ndim != 2 or ad.shape[-1] != bd.shape[1]:
        raise ShapeError(f"matmul_nt expects (m,k) and (n,k), got {ad.shape} and {bd.shape}")
    out = ad @ bd.T

    def bw(g):
        return g @ bd, _rows(g).T @ _rows(ad)

    return _result(out, (a, b), bw)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight.T + bias with weight stored as (out_dim, in_dim).

    x is rank 1 or 2, or a (C, T, in) stack of rank 3, whose parameter
    gradients sum over all C * T rows in one product.
    """
    xd, wd = x.data, weight.data
    if wd.ndim != 2 or xd.ndim not in (1, 2, 3) or xd.shape[-1] != wd.shape[1]:
        raise ShapeError(f"linear expects x (..,{wd.shape[1] if wd.ndim == 2 else '?'}), got {xd.shape} with weight {wd.shape}")
    inputs = (x, weight) if bias is None else (x, weight, bias)
    out = xd @ wd.T
    if bias is not None:
        out = out + bias.data

    def bw(g):
        gx = g @ wd
        if xd.ndim == 1:
            gw = np.outer(g, xd)
            gb = g
        else:
            gw = _rows(g).T @ _rows(xd)
            gb = _rows(g).sum(axis=0)
        if bias is None:
            return gx, gw
        return gx, gw, gb

    return _result(out, inputs, bw)


# ---------------------------------------------------------------------------
# Softmax, layer norm and sigmoid arithmetic shared by the kernels
# ---------------------------------------------------------------------------


def _softmax(s: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-subtraction stability."""
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gradient of the scores of ``p = _softmax(scores)`` for the output gradient ``g``."""
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign to avoid overflow in exp.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_affine(op: str, n: int, gamma: Tensor, beta: Tensor) -> None:
    if gamma.data.shape != (n,) or beta.data.shape != (n,):
        raise ShapeError(f"{op} affine params must have length {n}, got {gamma.data.shape} and {beta.data.shape}")


def _row_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1, keepdims=True)``, bitwise, in fewer passes for rows of 8 elements.

    numpy adds a C-contiguous row of exactly 8 elements to a start value of
    +0.0 as ((x0+x1)+(x2+x3))+((x4+x5)+(x6+x7)). Three strided slice-adds in
    that order take about half the time of the reduction on the graph
    layer's rows of n = 8 history columns, the default. Every other row
    length and layout keeps ``sum``; the tests hold the short path to
    numpy's own sum, signed zeros included.
    """
    if x.shape[-1] != 8 or not x.flags.c_contiguous:
        return x.sum(axis=-1, keepdims=True)
    u = x[..., 0::2] + x[..., 1::2]
    u = u[..., 0::2] + u[..., 1::2]
    s = u[..., :1] + u[..., 1:]
    s += 0.0
    return s


def _norm_forward(y: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Layer norm over the last axis: the output, and the ``xhat`` and ``inv`` its backward reads."""
    # sum / n is the arithmetic of mean(), without its per-call Python overhead
    n = y.shape[-1]
    centered = y - _row_sum(y) / n
    var = _row_sum(centered * centered) / n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    return gamma * xhat + beta, xhat, inv


def _rows(a: np.ndarray) -> np.ndarray:
    """The rows of a (..., k) array as one (rows, k) matrix; a rank-2 array unchanged."""
    return a if a.ndim == 2 else a.reshape(-1, a.shape[-1])


def _norm_backward(g: np.ndarray, gamma: np.ndarray, xhat: np.ndarray, inv: np.ndarray):
    """Gradients of the layer norm's input, gamma and beta; the affine ones sum over the leading axes."""
    n = g.shape[-1]
    dxhat = g * gamma
    dy = inv * (
        dxhat
        - _row_sum(dxhat) / n
        - xhat * _row_sum(dxhat * xhat) / n
    )
    return dy, _rows(g * xhat).sum(axis=0), _rows(g).sum(axis=0)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


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


def gather_rows(table: Tensor, indices: Sequence[int] | np.ndarray) -> Tensor:
    """Select rows of a rank-2 table; gradients scatter-add back.

    (C, T) indices give a (C, T, d) stack, whose gradient scatter-adds every
    window's rows into the one table gradient.
    """
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


def sum_sq(a: Tensor) -> Tensor:
    """Sum of squared entries as a scalar."""
    out = np.asarray((a.data * a.data).sum())

    def bw(g):
        return (2.0 * float(g) * a.data,)

    return _result(out, (a,), bw)


def sse(pred: Tensor, target: np.ndarray, windows: bool = False) -> Tensor:
    """Sum of squared errors against a constant target.

    With ``windows`` the first axis of ``pred`` is a stack of windows, and
    the result is (C,): each window's own sum.
    """
    t = np.asarray(target, dtype=np.float64)
    if pred.data.shape != t.shape:
        raise ShapeError(f"prediction shape {pred.data.shape} does not match target shape {t.shape}")
    diff = pred.data - t
    if windows:
        out = (diff * diff).reshape(len(diff), -1).sum(axis=1)
    else:
        out = np.asarray((diff * diff).sum())

    def bw(g):
        if windows:
            return ((2.0 * g).reshape((-1,) + (1,) * (diff.ndim - 1)) * diff,)
        return (2.0 * float(g) * diff,)

    return _result(out, (pred,), bw)


# ---------------------------------------------------------------------------
# Fused kernels for the value path
# ---------------------------------------------------------------------------
#
# Every sublayer on the value path is one kernel with a hand-derived
# backward and records one tape entry, where the same math built from
# generic matmul, softmax and layer-norm ops records five to twenty: on a
# window's (48, 32) arrays the per-op cost of the tape, not the arithmetic,
# sets the time. Each kernel checks the shapes of its inputs, ends in
# ``_result`` so its output is finite-checked, and keeps for its backward
# only the arrays that backward reads. The generic ops live on in the tests,
# which hold each kernel to its composite of them.
#
# ``graph_layer`` is one whole graph layer: relation softmax, smoothing scan
# and convolution with residual and layer norm, over a stack of S steps of
# (S, d, n) node states; the graph pass runs all T steps of a window as one
# stack. Its backward takes the convolution's gradient in the smoothed
# matrices through the constant smoothing factor straight into the softmax
# backward, and writes that gradient stack into the smoothed stack's memory,
# so backward allocates no (S, d, d) stack of its own. Fewer fresh stacks
# matter beyond their copies: glibc hands a freed heap top back to the OS,
# and every fresh page then faults in again. Parameter gradients sum over
# the steps. Backward leaves out the steps
# whose incoming gradient is exactly zero: backward is linear in that
# gradient, so this is exact, and a readout of the last step alone (stage 1)
# then costs one step of backward instead of T. When no tape records the
# call (``predict``, ``evaluate``), the layer keeps nothing for a backward:
# no ReLU mask, and the smoothing runs in place over the relation stack;
# its scores take a contiguous copy of k^T, and it frees the relation stack
# before its layer norm, whose residual sum runs in place. Its layer norms
# reduce rows of only n history columns, which ``_row_sum`` adds for n = 8
# by strided slice-adds in numpy's own summation order, so every output
# stays bitwise what ``sum`` gives. The model runs the layer on float32 states, which
# halves the bytes its (S, d, d) stacks move; given float64 states it is
# the float64 layer it was, bit for bit.
#
# The encoder kernels (``time_attention_norm``, ``feature_attention_norm``,
# ``feedforward_norm``) are the three sublayers of one encoder block, each
# with its residual and layer norm. Time attention has one head over all d
# columns. Feature attention takes ``last_only`` for the last block, whose
# last row alone the forecast reads: it scores Q^T K over every row but
# weighs, projects and normalizes the last row alone. Cut or not, one
# code path runs; its backward adds the input gradient's terms in place, in
# the uncut kernel's order, so an uncut call is bitwise what it was.
# ``sigmoid_gate`` is the gated mix of two (T, d) row sets, and
# ``step_cross_attention`` the masked attention of a window's rows to its
# step text.
#
# The encoder kernels and ``sigmoid_gate`` also take a leading window axis,
# a (C, T, d) stack of C windows' rows (see the module docstring). numpy
# runs a stacked matmul slice by slice, each slice through the BLAS call
# that one window's rank-2 product makes, and every other step is
# elementwise or reduces the last axis, so each window's slice of the
# result is bitwise its own call's. Scoring runs the value path so, a chunk
# of windows per call, and training a stack of windows per tape, and the
# fixed cost of each numpy call, each ``_result`` check and each tape entry
# is paid once per stack. The backwards follow the same rule for the input
# gradient, whose transposes are ``swapaxes`` of the last two axes. A
# parameter's gradient is the gradient of the windows' summed loss: one
# product, or one sum, over the flattened rows of the whole stack
# (``_rows``), such as ``_rows(x).T @ _rows(g)``. ``_rows`` hands a rank-2
# array back as it is, so a one-window call makes the BLAS call it always
# made, and a stack's sum differs from the sum of its windows' gradients
# only in the order of the additions. The graph kernels
# stack windows the same way off the tape, but with the step axis
# outermost: (S, C, d, n) states and (S, C, d, d) relations, so that each
# step of the smoothing scan is one contiguous (C, d, d) block and the scan
# makes one numpy call per step for all C windows; every 2-D slice of their
# products is still one window's step. On a tape they and
# ``step_cross_attention`` stay one window per call.


def _live_steps(g: np.ndarray, *arrays: np.ndarray):
    """The stacked steps whose gradient is not all zero, and ``g`` and ``arrays`` cut to them.

    Backward is linear in ``g``, so leaving out the all-zero steps is exact.
    Returns ``slice(None)`` and the inputs unchanged when every step is live.
    """
    live = np.flatnonzero(g.reshape(len(g), -1).any(axis=1))
    if live.size == len(g):
        return slice(None), (g,) + arrays
    return live, tuple(x[live] for x in (g,) + arrays)


def _on_steps(part: np.ndarray, live, shape: tuple[int, ...], first: int = 0) -> np.ndarray:
    """The live steps' gradient placed in zeros of the full stacked ``shape``, counting the steps from ``first``."""
    if isinstance(live, slice) and not first:
        return part
    full = np.zeros(shape, dtype=part.dtype)
    full[first:][live] = part
    return full


def graph_layer(states: Tensor, w_query: Tensor, w_key: Tensor, w_trans: Tensor, gamma: Tensor, beta: Tensor,
                start: np.ndarray, lam: float, last_only: bool = False) -> tuple[Tensor, np.ndarray]:
    """One graph layer over a (S, d, n) stack of node states, as a single tape entry.

    Where no tape records the call, the states may also be a (S, C, d, n)
    stack of C windows' states, the step axis outermost: the scan then
    carries each window's (C, d, d) matrices from the shared ``start``, and
    each window's slice of the states and matrix is bitwise its own call's.
    Each step builds its relation softmax_rows(relu((H Wq)(H Wk)^T)), the
    smoothing scan ``A[t] = lam * A[t-1] + (1 - lam) * raw[t]`` from
    ``A[-1] = start`` carries it across the steps, and the convolution gives
    layer_norm(relu(A H W) + H). With ``last_only`` every step's relation is
    built and smoothed, but only the last step is convolved. Returns the
    convolved steps' (S, d, n) or (1, d, n) states, (S, C, d, n) or
    (1, C, d, n) for a stack, and a copy of the last smoothed matrix, (d, d)
    or (C, d, d), a constant. The history is a constant too, so a step's
    gradient reaches its raw relation through its own smoothed matrix alone;
    the parameter gradients sum over the steps. Only a call that a tape
    records keeps the ReLU mask and the relations for its backward; without
    one the smoothing runs in place, the scores take a contiguous k^T, and
    the relations are freed before the layer norm.
    The layer norm's row sums over the n history columns take
    ``_row_sum``'s short path for n = 8. The layer computes in the dtype of
    ``states``, float32 in the model's graph pass and float64 in the
    gradient checks: the states, their gradient and the returned matrix
    have that dtype, and the parameter gradients are float64.
    """
    h, wq, wk, w = states.data, w_query.data, w_key.data, w_trans.data
    if h.ndim not in (3, 4) or not len(h) or wq.ndim != 2 or wk.ndim != 2 or h.shape[-1] != wq.shape[0] \
            or h.shape[-1] != wk.shape[0] or w.shape != (h.shape[-1],) * 2 or start.shape != (h.shape[-2],) * 2:
        raise ShapeError(f"graph_layer shapes disagree: {h.shape}, {wq.shape}, {wk.shape}, {w.shape}, {start.shape}")
    n = h.shape[-1]
    _check_affine("graph_layer", n, gamma, beta)
    inputs = (states, w_query, w_key, w_trans, gamma, beta)
    _untaped_stack("graph_layer", h.ndim, inputs, rank=3)
    # the layer computes in its states' dtype: the parameters and the start matrix are cast to it (no copy
    # when they share it), and lam becomes a Python float, which numpy applies in the array's dtype where a
    # numpy float64 scalar would widen a float32 array
    wq, wk, w, gam, bet, start = (np.asarray(x, dtype=h.dtype) for x in (wq, wk, w, gamma.data, beta.data, start))
    lam = float(lam)
    taped = _records(inputs)  # without a tape no backward runs, so the layer keeps nothing for one
    first = len(h) - 1 if last_only else 0  # the first step convolved, and the first that backward reads
    q = h @ wq
    k = h @ wk
    # in place from the scores on: the (S, d, d) temporaries dominate the memory traffic. A contiguous
    # k^T gives the same product faster than the transposed view; a taped call keeps the view, since
    # with that extra temporary training fell into glibc's heap trimming, faulting pages in every window
    kt = k.swapaxes(-1, -2)
    raw = q @ (kt if taped else np.ascontiguousarray(kt))
    positive = raw[first:] > 0.0 if taped else None
    np.maximum(raw, 0.0, out=raw)
    # non-negative floats order as their bit patterns read as signed integers of the same width: the same
    # exact row max, about twice as fast
    bits = np.dtype(f"i{raw.itemsize}")
    raw -= raw.view(bits).max(axis=-1, keepdims=True).view(raw.dtype)
    np.exp(raw, out=raw)
    raw /= raw.sum(axis=-1, keepdims=True)
    # the relations backward reads; the cut (after copying the step it reads) and an untaped call smooth in place
    p = raw[first:].copy() if taped and last_only else raw
    a = np.multiply(raw, 1.0 - lam, out=None if taped and not last_only else raw)
    prev, carry = start, np.empty(a.shape[1:], dtype=a.dtype)  # the first step broadcasts start over a stack
    for step in a:
        np.multiply(prev, lam, out=carry)
        step += carry
        prev = step
    hc, ac = h[first:], a[first:]
    mixed = ac @ hc
    z = mixed @ w
    if not taped:
        # nothing reads the projections, the relations or the products again: they go before the layer norm,
        # whose residual sum takes z's memory. A stack of four windows that held them to the end freed more
        # than glibc's trim threshold on return, and every call faulted its pages in again
        matrix = a[-1].copy()
        del q, k, kt, raw, p, a, ac, mixed
        y = np.maximum(z, 0.0, out=z)
        y += hc
        return _result(_norm_forward(y, gam, bet)[0], inputs, None), matrix
    out, xhat, inv = _norm_forward(np.maximum(z, 0.0) + hc, gam, bet)

    def bw(g):
        live, (g, al, hl, ml, zl, il, xl, pl, pos, ql, kl) = _live_steps(
            g, ac, hc, mixed, z, inv, xhat, p, positive, q[first:], k[first:])
        dy, dgamma, dbeta = _norm_backward(g, gam, xl, il)
        dz = dy * (zl > 0.0)
        dw = ml.reshape(-1, n).T @ dz.reshape(-1, n)
        dmixed = dz @ w.T
        dh = al.transpose(0, 2, 1) @ dmixed + dy
        # the convolution's gradient in A, through the smoothing factor, into the softmax of the raw
        # relation; backward runs once, so the gradient stack takes the smoothed stack's memory
        gs = np.matmul(dmixed, hl.transpose(0, 2, 1), out=al)
        gs *= 1.0 - lam
        gs -= (gs * pl).sum(axis=-1, keepdims=True)
        gs *= pl
        gs *= pos
        gq = gs @ kl
        gk = gs.transpose(0, 2, 1) @ ql
        dh = _on_steps(dh + (gq @ wq.T + gk @ wk.T), live, h.shape, first)
        flat = hl.reshape(-1, n).T
        dparams = (flat @ gq.reshape(-1, wq.shape[1]), flat @ gk.reshape(-1, wk.shape[1]), dw, dgamma, dbeta)
        return (dh,) + tuple(d.astype(np.float64, copy=False) for d in dparams)

    return _result(out, inputs, bw), a[-1].copy()


def history_columns(rows: Tensor, steps, n: int) -> Tensor:
    """Columns t-n+1..t of the row sequence, transposed to (d, n), for each step t.

    An int step gives one (d, n) state; a sequence of S steps gives a stack
    of (S, d, n) states from one gather. Negative history indices repeat
    row 0, matching the pad-by-repetition rule for the start of a window.
    Where no tape records the call, the rows may be a (C, T, d) stack of
    windows, and the states then take a window axis after the step axis:
    (C, d, n) or (S, C, d, n), each window's slice its own call's.
    The states and the gradient of the rows keep the rows' dtype.
    """
    x = rows.data
    if x.ndim not in (2, 3):
        raise ShapeError(f"history_columns expects rank 2, or 3 for a stack, got shape {x.shape}")
    _untaped_stack("history_columns", x.ndim, (rows,))
    t = np.asarray(steps, dtype=np.intp)
    if t.ndim > 1 or t.size == 0 or t.min() < 0 or t.max() >= x.shape[-2]:
        raise ShapeError(f"steps {steps!r} are not steps of a sequence of length {x.shape[-2]}")
    idx = np.maximum(t[..., None] + np.arange(1 - n, 1), 0)
    cols = x[..., idx, :]
    if x.ndim == 3:  # the window axis goes after the step axis
        cols = np.moveaxis(cols, 0, t.ndim)
    out = np.swapaxes(cols, -1, -2).copy()
    whole = t.ndim == 1 and np.array_equal(t, np.arange(x.shape[0]))

    def bw(g):
        full = np.zeros_like(x)
        live, kept = None, idx
        if t.ndim:
            live, (g, kept) = _live_steps(g, idx)
        g = np.swapaxes(g, -1, -2)
        if not (whole and isinstance(live, slice)):
            np.add.at(full, kept, g)
            return (full,)
        # every step of the whole sequence: row r > 0 is column n-1-k of step r+k, summed in add.at's step
        # order by one slice-add per k; row 0 takes every padded column too, so those keep add.at
        pad = idx == 0
        np.add.at(full, idx[pad], g[pad])
        for k in range(min(n, len(x) - 1)):
            full[1:len(x) - k] += g[1 + k:, n - 1 - k]
        return (full,)

    return _result(out, (rows,), bw)


def _check_rows(op: str, x: np.ndarray, *weights: Tensor) -> tuple[int, int]:
    """(T, d) of (T, d) rows ``x`` or of a (C, T, d) stack of them; every weight must be (d, d)."""
    if x.ndim not in (2, 3) or any(w.data.shape != (x.shape[-1], x.shape[-1]) for w in weights):
        shapes = ", ".join(str(w.data.shape) for w in weights)
        raise ShapeError(f"{op} expects (T, d) rows and (d, d) weights, got {x.shape} with {shapes}")
    return x.shape[-2:]


def time_attention_norm(x: Tensor, w_query: Tensor, w_key: Tensor, w_value: Tensor, w_out: Tensor,
                        gamma: Tensor, beta: Tensor) -> Tensor:
    """layer_norm(attention over the T steps of (T, d) rows, times W_o, plus the rows) as one tape entry.

    With Q = x W_q, K = x W_k and V = x W_v, the steps are weighed by
    softmax(Q K^T / sqrt(d)) row by row, and the weighted V rows go through
    W_o. One head spans all d columns.
    """
    xd = x.data
    t, d = _check_rows("time_attention_norm", xd, w_query, w_key, w_value, w_out)
    _check_affine("time_attention_norm", d, gamma, beta)
    inputs = (x, w_query, w_key, w_value, w_out, gamma, beta)
    wq, wk, wv, wo = w_query.data, w_key.data, w_value.data, w_out.data
    c = 1.0 / math.sqrt(d)
    q, k, v = xd @ wq, xd @ wk, xd @ wv
    p = _softmax((q @ k.swapaxes(-1, -2)) * c)
    att = p @ v
    out, xhat, inv = _norm_forward(att @ wo + xd, gamma.data, beta.data)

    def bw(g):
        dy, dgamma, dbeta = _norm_backward(g, gamma.data, xhat, inv)
        datt = dy @ wo.T
        ds = _softmax_backward(datt @ v.swapaxes(-1, -2), p) * c
        dq, dk, dv = ds @ k, ds.swapaxes(-1, -2) @ q, p.swapaxes(-1, -2) @ datt
        dx = dq @ wq.T + dk @ wk.T + dv @ wv.T + dy
        xt = _rows(xd).T
        return dx, xt @ _rows(dq), xt @ _rows(dk), xt @ _rows(dv), _rows(att).T @ _rows(dy), dgamma, dbeta

    return _result(out, inputs, bw)


def feature_attention_norm(x: Tensor, w_query: Tensor, w_key: Tensor, w_value: Tensor, w_out: Tensor,
                           gamma: Tensor, beta: Tensor, bias: np.ndarray | None = None,
                           last_only: bool = False) -> Tensor:
    """layer_norm(attention over the d feature axes of (T, d) rows, times W_o, plus the rows) as one tape entry.

    With Q = x W_q, K = x W_k and V = x W_v, the (d, d) weights are
    softmax(Q^T K / sqrt(T) + bias) row by row, and feature i of each row
    becomes the weighted sum of that row's V features. ``bias`` is a
    constant; None adds nothing. With ``last_only`` the weights are still
    scored over every row, but only the last row is weighted, projected,
    added back and normalized: the result is that row's (1, d) output.
    """
    xd = x.data
    t, d = _check_rows("feature_attention_norm", xd, w_query, w_key, w_value, w_out)
    if bias is not None and bias.shape != (d, d):
        raise ShapeError(f"feature_attention_norm bias must have shape ({d}, {d}), got {bias.shape}")
    _check_affine("feature_attention_norm", d, gamma, beta)
    inputs = (x, w_query, w_key, w_value, w_out, gamma, beta)
    wq, wk, wv, wo = w_query.data, w_key.data, w_value.data, w_out.data
    c = 1.0 / math.sqrt(t)
    rows = np.s_[..., -1:, :] if last_only else np.s_[:]
    xr = xd[rows]
    q, k, v = xd @ wq, xd @ wk, xr @ wv
    scores = (q.swapaxes(-1, -2) @ k) * c
    if bias is not None:
        scores = scores + bias
    p = _softmax(scores)
    att = v @ p.swapaxes(-1, -2)
    out, xhat, inv = _norm_forward(att @ wo + xr, gamma.data, beta.data)

    def bw(g):
        dy, dgamma, dbeta = _norm_backward(g, gamma.data, xhat, inv)
        datt = dy @ wo.T
        ds = _softmax_backward(datt.swapaxes(-1, -2) @ v, p) * c
        dq, dk, dv = k @ ds.swapaxes(-1, -2), q @ ds, datt @ p
        # ((dq + dk) + dv) + dy with dv and dy on the value rows alone, in that order, so uncut it is bitwise
        dx = dq @ wq.T + dk @ wk.T
        dx[rows] += dv @ wv.T
        dx[rows] += dy
        xt = _rows(xd).T
        return (dx, xt @ _rows(dq), xt @ _rows(dk), _rows(xr).T @ _rows(dv), _rows(att).T @ _rows(dy), dgamma,
                dbeta)

    return _result(out, inputs, bw)


def feedforward_norm(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """layer_norm(relu(x W1^T + b1) W2^T + b2 + x) for (T, d) rows as one tape entry; weights are (out, in)."""
    xd = x.data
    hidden = b1.data.shape[0] if b1.data.ndim == 1 else -1
    if xd.ndim not in (2, 3) or w1.data.shape != (hidden, xd.shape[-1]) or w2.data.shape != (xd.shape[-1], hidden) \
            or b2.data.shape != (xd.shape[-1],):
        raise ShapeError(f"feedforward_norm shapes disagree: x {xd.shape}, w1 {w1.data.shape}, b1 {b1.data.shape}, "
                         f"w2 {w2.data.shape}, b2 {b2.data.shape}")
    _check_affine("feedforward_norm", xd.shape[-1], gamma, beta)
    inputs = (x, w1, b1, w2, b2, gamma, beta)
    w1d, w2d = w1.data, w2.data
    r = xd @ w1d.T + b1.data
    np.maximum(r, 0.0, out=r)
    out, xhat, inv = _norm_forward(r @ w2d.T + b2.data + xd, gamma.data, beta.data)

    def bw(g):
        dy, dgamma, dbeta = _norm_backward(g, gamma.data, xhat, inv)
        dh = dy @ w2d
        dh *= r > 0.0
        hr, yr = _rows(dh), _rows(dy)
        return dh @ w1d + dy, hr.T @ _rows(xd), hr.sum(axis=0), yr.T @ _rows(r), yr.sum(axis=0), dgamma, dbeta

    return _result(out, inputs, bw)


def sigmoid_gate(h: Tensor, z: Tensor, w_gate: Tensor, b_gate: Tensor | None = None) -> Tensor:
    """Row by row over (T, d) inputs: g = sigmoid([h, z] W^T + b), then g * h + (1 - g) * z, as one tape entry."""
    hd, zd, w = h.data, z.data, w_gate.data
    if hd.ndim not in (2, 3) or hd.shape != zd.shape:
        raise ShapeError(f"gate inputs must be matching (T, d) rows, got {hd.shape} and {zd.shape}")
    d = hd.shape[-1]
    if w.shape != (d, 2 * d) or (b_gate is not None and b_gate.data.shape != (d,)):
        bias_shape = None if b_gate is None else b_gate.data.shape
        raise ShapeError(f"gate over width {d} needs a ({d}, {2 * d}) weight and a ({d},) bias, got {w.shape} and {bias_shape}")
    inputs = (h, z, w_gate) if b_gate is None else (h, z, w_gate, b_gate)
    both = np.concatenate((hd, zd), axis=-1)
    pre = both @ w.T
    if b_gate is not None:
        pre = pre + b_gate.data
    g = _sigmoid(pre)
    out = g * hd + (1.0 - g) * zd

    def bw(grad):
        dpre = grad * (hd - zd) * g * (1.0 - g)
        dboth = dpre @ w
        dh = grad * g + dboth[..., :d]
        dz = grad * (1.0 - g) + dboth[..., d:] if z.requires_grad else None
        dw = _rows(dpre).T @ _rows(both)
        if b_gate is None:
            return dh, dz, dw
        return dh, dz, dw, _rows(dpre).sum(axis=0)

    return _result(out, inputs, bw)


# Score added where a row must not see a token: finite because tensors must be,
# and so large that exp gives exactly 0 there after softmax's max shift.
MASKED_SCORE = -1e30


def step_cross_attention(rows: Tensor, tokens: np.ndarray, counts: np.ndarray, w_query: Tensor, w_key: Tensor,
                         w_value: Tensor, prompt_query: Tensor, prompt_key: Tensor) -> Tensor:
    """Each of the (T, d) rows attends to its own step's token rows, as one tape entry.

    ``tokens`` is the constant (M, d) block of every step's token rows in
    step order, ``counts[t]`` the number of step t's. Queries are
    row W_q^T + p_q, keys token W_k^T + p_k and values token W_v^T. Only
    the rows whose step has tokens are scored, q k^T / sqrt(d) against all
    M keys under a constant mask that leaves each row its own step's
    tokens; the other rows of the (T, d) result are zero.
    """
    xd = rows.data
    t, d = _check_rows("step_cross_attention", xd, w_query, w_key, w_value)
    if xd.ndim != 2:
        raise ShapeError(f"step_cross_attention expects one window's (T, d) rows, got {xd.shape}")
    counts = np.asarray(counts)
    if tokens.ndim != 2 or tokens.shape[1] != d or counts.shape != (t,) or not tokens.shape[0] \
            or counts.sum() != tokens.shape[0] or counts.min() < 0:
        raise ShapeError(f"{tokens.shape} token rows do not split into the per-step counts {counts.tolist()}")
    _check_affine("step_cross_attention", d, prompt_query, prompt_key)
    wq, wk, wv = w_query.data, w_key.data, w_value.data
    keep = np.flatnonzero(counts)
    mask = np.where(np.repeat(np.arange(t), counts) == keep[:, None], 0.0, MASKED_SCORE)
    kept = xd[keep]
    c = 1.0 / math.sqrt(d)
    q = kept @ wq.T + prompt_query.data
    k = tokens @ wk.T + prompt_key.data
    v = tokens @ wv.T
    p = _softmax((q @ k.T) * c + mask)
    out = np.zeros_like(xd)
    out[keep] = p @ v

    def bw(g):
        gk = g[keep]
        ds = _softmax_backward(gk @ v.T, p) * c
        dq, dk = ds @ k, ds.T @ q
        dx = np.zeros_like(xd)
        dx[keep] = dq @ wq
        return dx, dq.T @ kept, dk.T @ tokens, (p.T @ gk).T @ tokens, dq.sum(axis=0), dk.sum(axis=0)

    return _result(out, (rows, w_query, w_key, w_value, prompt_query, prompt_key), bw)


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
