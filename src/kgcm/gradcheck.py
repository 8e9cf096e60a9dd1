"""Finite-difference verification of what ``Model`` runs.

Each check builds a scalar function around one function or kernel that
``Model`` calls (or around the whole joint objective), on the shapes it
passes, and compares tape gradients against central differences. Every
kernel with a window axis gets a stack of two different windows, as
training and scoring stack them: (C, T, F) rows for the embedding, in its
weight, and ``linear``, in the rows and the weight; the cross-attention, in
the rows and ``w_key``, on a third window too, without text between two
whose token counts differ and skip a step, so its per-window loop sums two
windows' gradients; the gate as the ``lpo`` gate (no bias, both row sets
tracked) and as the ``rcpg`` gate (a bias, each window's pooled vector
tiled over its steps); ``acmfw_weight``; the graph layer on (S, C, d, n)
states lifted from rows by ``history_columns``, one step read out as zero,
in the rows, ``w_query`` and ``w_trans`` (``numeric._window_sum``), and cut
to its last step (``last_only``) as stage 1's last layer runs it; the graph
pass through two layers with T > n, in the rows (the stacked
``history_columns`` scatter) and ``w_key``; each encoder kernel in its rows
and one weight: time attention, feature attention under a non-uniform
structural bias, also cut to its last row (``last_only``), and the
feedforward across its ReLU; and the whole encoder through two blocks and
the heads on each window's last row, an uncut block feeding a cut one.

The end-to-end instance runs the joint objective on a stack of one window,
as training does, with its graph pass in float64, where ``Model`` runs it
in float32: a float32 loss rounds far above what central differences can
resolve. The graph layer and graph pass checks get float64 states and rows.
The graph layer check and the end-to-end instance keep the smoothing
coefficient at zero because the smoothing history is deliberately carried
as a constant; any nonzero coefficient would make the comparison measure
that design choice instead of the gradients. The tests hold the layer at a
nonzero coefficient to its three-kernel composite instead. The end-to-end
instance's input series is smooth so the two-point node layer norm stays in
its epsilon-dominated regime, where finite differences can resolve the true
gradients. Its loss is scored against the noise of its own finite
differences (see ``_check_joint_loss``).

``grad_check`` compares one tensor's tape gradients with central
differences. No model path runs it, so it stays out of ``numeric``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import timedelta
from typing import Callable

import numpy as np

from . import numeric as nm
from .data import START_TIME
from .errors import NumericError
from .fusion_local import (
    acmfw_weight,
    embed_structured_rows,
    guided_cross_attention,
    init_global_gate,
    init_lpo_params,
    prompt_loss,
)
from .graph import init_dgso_params, run_dgso, uniform_matrix
from .model import ALL_COMPONENTS, SeriesWindow, TrainConfig, build_model, joint_loss
from .numeric import SeededRng, Tensor, sum_sq, tensor
from .predictor import forecast, init_ssa_params, structural_bias
from .text import encode_hashed

__all__ = ["CheckResult", "grad_check", "run_all_checks", "tiny_instance_window", "tiny_instance_config"]

DEFAULT_TOLERANCE = 1e-4
STACK_STEPS = 4  # stacked graph-layer check: enough steps for one read out as zero
# The joint-loss check allows each coordinate this many times its finite
# difference's estimated noise on top of the relative tolerance. The estimate
# |CD(h) - CD(2h)| is three times CD(h)'s O(h^2) truncation error, but the
# rounding noise of the two differences (about eps |loss| / h and half that)
# can cancel in it by chance, so it may fall below the error it stands for.
# On seeds 0 to 19 the worst coordinate's error reached 1.18 times the
# estimate; twice the estimate covers that.
NOISE_FACTOR = 2.0


@dataclass
class CheckResult:
    name: str
    max_error: float

    def passed(self) -> bool:
        return self.max_error < DEFAULT_TOLERANCE


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` maps one tensor to a scalar tensor. The relative error at each
    coordinate is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    probe = Tensor(x.data.copy(), requires_grad=True)
    nm.clear_tape()
    loss = f(probe)
    grads = nm.backward(loss, params=(probe,))
    analytic = grads[probe]
    flat = probe.data.reshape(-1)
    with nm.no_tape():
        numeric = np.array([_central_difference(lambda: f(probe), flat, i, h) for i in range(flat.size)])
    numeric = numeric.reshape(probe.data.shape)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _central_difference(loss: Callable[[], Tensor], flat: np.ndarray, i: int, h: float) -> float:
    """(loss() at x + h e_i - loss() at x - h e_i) / 2h, where ``flat`` is x's storage; ``flat[i]`` is restored."""
    orig = flat[i]
    flat[i] = orig + h
    up = loss().item()
    flat[i] = orig - h
    down = loss().item()
    flat[i] = orig
    if not (math.isfinite(up) and math.isfinite(down)):
        raise NumericError("function non-finite at finite-difference probe point")
    return (up - down) / (2.0 * h)


def _weighted(x: Tensor, rng: SeededRng) -> Tensor:
    """Squared error against a random target; keeps probes away from flat loss directions."""
    return nm.sse(x, rng.normal(x.data.shape))


def _weighted_steps(x: Tensor, rng: SeededRng) -> Tensor:
    """``_weighted`` on a stack of steps without step 1, so step 1's gradient is exactly zero."""
    target = rng.normal(x.data.shape)
    return nm.add(nm.sse(nm.take(x, 0), target[0]), nm.sse(nm.take(x, np.s_[2:]), target[2:]))


def _each_argument(f, *arrays: np.ndarray) -> float:
    """Worst of the checks of ``f(*arrays)`` in each argument, the others held constant."""
    fixed = [tensor(a) for a in arrays]
    return max(grad_check(lambda x, i=i: f(*fixed[:i], x, *fixed[i + 1:]), tensor(probe))
               for i, probe in enumerate(arrays))


def _check_linear(rng: SeededRng) -> float:
    b = tensor(rng.normal((3,)))
    return _each_argument(lambda x, w: sum_sq(nm.linear(x, w, b)), rng.normal((2, 4, 5)), rng.glorot(3, 5))


def _check_embed_structured_rows(rng: SeededRng) -> float:
    params = init_lpo_params(6, 5, rng.child("p"), with_text=False)
    x = tensor(rng.normal((2, 4, 5)))
    return grad_check(lambda w: sum_sq(embed_structured_rows(x, replace(params, w_embed=w))),
                      Tensor(params.w_embed.data.copy()))


def _check_cross_attention(rng: SeededRng) -> float:
    d = 6
    params = init_lpo_params(d, 5, rng.child("p"), with_text=True)
    texts = [("festival crowd near stadium tonight", "", "rain", "late trains"), ("",) * 4,
             ("concert", "road closure downtown", "", "parade crowd")]
    tokens = [[encode_hashed(text, d).tokens for text in window] for window in texts]

    def f(x, wk):
        return _weighted(guided_cross_attention(x, tokens, replace(params, w_key=wk)), rng.child("w"))

    return _each_argument(f, rng.normal((len(texts), 4, d)), params.w_key.data)


def _check_sigmoid_gate(rng: SeededRng) -> float:
    d = 6
    h, z = rng.normal((2, 4, d)), rng.normal((2, 4, d))
    w_lpo = init_lpo_params(d, 5, rng.child("lpo"), with_text=True).w_gate.data
    w_rcpg = init_global_gate(d, rng.child("rcpg")).w_gate.data
    pooled = tensor(np.repeat(rng.normal((2, 1, d)), 4, axis=1))

    def lpo_gate(x, text_rows, w):
        return _weighted(nm.sigmoid_gate(x, text_rows, w), rng.child("w/lpo"))

    def rcpg_gate(x, w, b):
        return _weighted(nm.sigmoid_gate(x, pooled, w, b), rng.child("w/rcpg"))

    return max(_each_argument(lpo_gate, h, z, w_lpo), _each_argument(rcpg_gate, h, w_rcpg, rng.normal((d,))))


def _check_acmfw_weight(rng: SeededRng) -> float:
    raw = rng.uniform((6, 6)) + 0.1
    matrix = raw / raw.sum(axis=1, keepdims=True)
    return grad_check(lambda x: _weighted(acmfw_weight(x, matrix), rng.child("w")), tensor(rng.normal((2, 4, 6))))


def _check_prompt_loss(rng: SeededRng) -> float:
    params = init_lpo_params(6, 5, rng.child("p"), with_text=True)
    return grad_check(lambda ps: prompt_loss(replace(params, prompt_struct=ps)), Tensor(params.prompt_struct.data.copy()))


def _check_graph_layer(rng: SeededRng, last_only: bool = False) -> float:
    layer = init_dgso_params(4, 4, 1, 0.0, rng.child("p")).layers[0]

    def f(rows, wq, w):
        states = nm.history_columns(rows, range(STACK_STEPS), 4)  # (S, C, d, n): no tensor of rank 4 holds data
        out, _ = nm.graph_layer(states, wq, layer.w_key, w, layer.ln_gamma, layer.ln_beta, uniform_matrix(5), 0.0,
                                last_only)
        return _weighted(out, rng.child("w")) if last_only else _weighted_steps(out, rng.child("ws"))

    return _each_argument(f, rng.normal((2, STACK_STEPS, 5)), layer.w_query.data, layer.w_trans.data)


def _check_graph_pass(rng: SeededRng) -> float:
    n = 4
    params = init_dgso_params(n, n, 2, 0.0, rng.child("p"))
    first = params.layers[0]

    def f(rows, wk):
        states, _ = run_dgso(rows, replace(params, layers=[replace(first, w_key=wk)] + params.layers[1:]), n)
        return _weighted(states, rng.child("w"))

    return _each_argument(f, rng.normal((2, 6, 3)), first.w_key.data)


def _check_predictor(rng: SeededRng) -> float:
    d = 4
    # two blocks: the uncut first block feeds the last block, cut to the last row the heads read
    params = init_ssa_params(d, 2, 2, 4, rng.child("p"), with_feature_attention=True)
    bias = structural_bias(np.full((d, d), 1.0 / d))
    target = rng.normal((2, 1, 2))

    def f(x):
        return nm.sse(forecast(x, bias, params), target)

    return grad_check(f, tensor(rng.normal((2, 4, d))))


def _check_time_attention(rng: SeededRng) -> float:
    b = init_ssa_params(4, 2, 1, 4, rng.child("p"), with_feature_attention=False).blocks[0]

    def f(x, wq):
        out = nm.time_attention_norm(x, wq, b.t_wk, b.t_wv, b.t_wo, b.ln1_gamma, b.ln1_beta)
        return _weighted(out, rng.child("w"))

    return _each_argument(f, rng.normal((2, 5, 4)), b.t_wq.data)


def _check_feature_attention(rng: SeededRng, last_only: bool = False) -> float:
    b = init_ssa_params(4, 2, 1, 4, rng.child("p"), with_feature_attention=True).blocks[0]
    raw = rng.uniform((4, 4)) + 0.1
    bias = structural_bias(raw / raw.sum(axis=1, keepdims=True))

    def f(x, wk):
        out = nm.feature_attention_norm(x, b.f_wq, wk, b.f_wv, b.f_wo, b.ln2_gamma, b.ln2_beta, bias,
                                        last_only=last_only)
        return _weighted(out, rng.child("w"))

    return _each_argument(f, rng.normal((2, 5, 4)), b.f_wk.data)


def _check_feedforward(rng: SeededRng) -> float:
    b = init_ssa_params(4, 2, 1, 4, rng.child("p"), with_feature_attention=False).blocks[0]

    def f(x, w1):
        out = nm.feedforward_norm(x, w1, b.ff_b1, b.ff_w2, b.ff_b2, b.ln3_gamma, b.ln3_beta)
        return _weighted(out, rng.child("w"))

    return _each_argument(f, rng.normal((2, 5, 4)), b.ff_w1.data)


def tiny_instance_config(seed: int = 0) -> TrainConfig:
    """The end-to-end check instance: d=4, n=2, T=4, T'=2, smoothing off."""
    return TrainConfig(
        d=4, n=2, n_prime=2, layers=1, window=4, horizon=2, blocks=1,
        day_slots=4, lambda_prompt=0.1, ema_lambda=0.0,
        epochs_stage1=1, epochs_stage2=1, batch_size=1, seed=seed,
    )


def tiny_instance_window(config: TrainConfig, seed: int = 0) -> SeriesWindow:
    """A smooth 4-step window whose per-step text has three tokens; its targets follow its inputs slot by slot."""
    rng = SeededRng(seed).child("tiny-window")
    t, d = config.window, config.d
    base = rng.normal((5,), std=0.5)
    drift = rng.normal((5,), std=0.01)
    inputs = np.stack([base + k * drift for k in range(t)])
    tokens = encode_hashed("festival crowd expected", d).tokens
    return SeriesWindow(
        region="r0",
        inputs=inputs,
        targets=rng.normal((config.horizon,), std=0.5),
        slots=[k % config.day_slots for k in range(t)],
        dows=[0] * t,
        local_tokens=[tokens.copy() for _ in range(t)],
        global_pooled=encode_hashed("citywide gathering", d).pooled,
        target_times=[START_TIME + timedelta(days=(t + k) / config.day_slots) for k in range(config.horizon)],
    )


def _check_joint_loss(seed: int, h: float) -> float:
    """Gradients of the full objective for every live parameter at once.

    Each coordinate is scored by the part of its error that exceeds
    ``NOISE_FACTOR`` times the noise of its central difference CD(h), relative
    to the larger of the analytic and the numeric gradient. The noise is the
    larger of |CD(h) - CD(2h)| and eps |loss| / h, the difference quotient of
    one rounding step of the loss. So the check passes when every
    |analytic - CD(h)| is below the tolerance times the gradient plus that
    allowance. An error within ``NOISE_FACTOR`` rounding steps scores zero
    whatever CD(2h) reads, so CD(2h) is computed only for the others: on
    seeds 0 to 2, for 6 to 37 coordinates of 518.
    """
    config = tiny_instance_config(seed)
    model = build_model(config, ALL_COMPONENTS, feature_count=5)
    # central differences of a float32 graph pass cannot resolve its gradients; the check runs it in float64
    model.graph_dtype = np.float64
    window = tiny_instance_window(config, seed)
    params = model.stage2_parameters()

    def loss_value() -> Tensor:
        losses = joint_loss(model.stage2_forward([window]), model.scale_targets(window.targets[None]), model.lpo,
                            config.lambda_prompt)
        return nm.take(losses, 0)  # the one loss of a stack of one

    nm.clear_tape()
    loss = loss_value()
    rounding = np.finfo(np.float64).eps * abs(loss.item()) / h
    grads = nm.backward(loss, params=params.values())
    worst = 0.0
    with nm.no_tape():
        for param in params.values():
            flat = param.data.reshape(-1)
            for i, analytic in enumerate(grads[param].reshape(-1)):
                numeric = _central_difference(loss_value, flat, i, h)
                error = abs(analytic - numeric)
                if error > NOISE_FACTOR * rounding:
                    coarse = _central_difference(loss_value, flat, i, 2.0 * h)
                    excess = max(0.0, error - NOISE_FACTOR * max(abs(numeric - coarse), rounding))
                    worst = max(worst, excess / max(abs(analytic), abs(numeric), 1e-8))
    return worst


def run_all_checks(seed: int = 0, h: float = 1e-5) -> list[CheckResult]:
    """Every check of a function ``Model`` calls, plus the end-to-end joint objective."""
    checks = [
        ("linear", _check_linear),
        ("embed_structured_rows", _check_embed_structured_rows),
        ("guided_cross_attention", _check_cross_attention),
        ("sigmoid_gate", _check_sigmoid_gate),
        ("prompt_loss", _check_prompt_loss),
        ("graph_layer", _check_graph_layer),
        ("graph_pass", _check_graph_pass),
        ("acmfw_weight", _check_acmfw_weight),
        ("predictor", _check_predictor),
        ("time_attention_norm", _check_time_attention),
        ("feature_attention_norm", _check_feature_attention),
        ("feature_attention_norm/last_only", lambda rng: _check_feature_attention(rng, last_only=True)),
        ("graph_layer/last_only", lambda rng: _check_graph_layer(rng, last_only=True)),
        ("feedforward_norm", _check_feedforward),
    ]
    results = []
    for name, fn in checks:
        rng = SeededRng(seed).child(f"gradcheck/{name}")
        results.append(CheckResult(name=name, max_error=fn(rng)))
    results.append(CheckResult(name="joint_loss", max_error=_check_joint_loss(seed, h)))
    return results
