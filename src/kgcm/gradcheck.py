"""Finite-difference verification of every differentiable operation.

Each check builds a scalar function around one operation (or the whole
joint objective) and compares tape gradients against central differences.
Each component check calls the function ``Model`` calls, on the shapes it
passes: (T, F) structured rows, (T, d) gate rows with the rcpg pooled vector
tiled over the steps, (T, d) rows for ``acmfw_weight``, (T, d) query rows
with a text-free step and unequal token counts for cross-attention, (d, n)
node states and (S, d, n) stacks of them with one step read out as zero for
the graph kernels, and (T, d) rows with T > n through two layers for the
graph pass. Each fused value-path kernel is also checked on its own, for
its input rows and one weight: time attention with two heads, feature
attention under a non-uniform structural bias, the feedforward across its
ReLU, the gate with a bias, and cross-attention through its mask.
The end-to-end instance keeps the smoothing coefficient at zero because the
smoothing history is deliberately carried as a constant; any nonzero
coefficient would make the comparison measure that design choice instead of
the gradients. Its input series is smooth so the two-point node layer norm
stays in its epsilon-dominated regime, where finite differences can resolve
the true gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numeric as nm
from .fusion_global import acmfw_weight, init_global_gate
from .fusion_local import embed_structured_rows, gated_fuse, guided_cross_attention, init_lpo_params, prompt_loss
from .graph import build_relation_matrix, graph_conv_layer, init_dgso_params, run_dgso
from .model import ALL_COMPONENTS, SeriesWindow, TrainConfig, build_model, joint_loss
from .numeric import SeededRng, Tensor, grad_check, sum_sq, tensor
from .predictor import forecast, init_ssa_params, structural_bias
from .text import encode_hashed

__all__ = ["CheckResult", "run_all_checks", "tiny_instance_window", "tiny_instance_config"]

DEFAULT_TOLERANCE = 1e-4
STACK_STEPS = 4  # stacked graph-kernel checks: enough steps for one read out as zero


@dataclass
class CheckResult:
    name: str
    max_error: float

    def passed(self, tolerance: float) -> bool:
        return self.max_error < tolerance


def _weighted(x: Tensor, rng: SeededRng) -> Tensor:
    """Random linear readout; keeps probes away from flat loss directions."""
    return sum_sq(nm.mul(x, tensor(rng.normal(x.data.shape))))


def _check_matmul(rng: SeededRng) -> float:
    b = tensor(rng.normal((4, 3)))
    return grad_check(lambda x: sum_sq(nm.matmul(x, b)), tensor(rng.normal((3, 4))))


def _check_relu(rng: SeededRng) -> float:
    return grad_check(lambda x: sum_sq(nm.relu(x)), tensor(rng.normal((4, 4)) + 0.05))


def _check_sigmoid(rng: SeededRng) -> float:
    return grad_check(lambda x: sum_sq(nm.sigmoid(x)), tensor(rng.normal((4, 4))))


def _check_softmax_rows(rng: SeededRng) -> float:
    return grad_check(lambda x: _weighted(nm.softmax_rows(x), rng.child("w")), tensor(rng.normal((3, 5))))


def _check_layer_norm(rng: SeededRng) -> float:
    gamma = tensor(rng.normal((6,)) + 1.0)
    beta = tensor(rng.normal((6,)))
    return grad_check(lambda x: sum_sq(nm.layer_norm(x, gamma, beta)), tensor(rng.normal((4, 6))))


def _check_linear(rng: SeededRng) -> float:
    w = tensor(rng.glorot(3, 5))
    b = tensor(rng.normal((3,)))
    return grad_check(lambda x: sum_sq(nm.linear(x, w, b)), tensor(rng.normal((4, 5))))


def _check_gate_mix(rng: SeededRng) -> float:
    a = tensor(rng.normal((5,)))
    b = tensor(rng.normal((5,)))
    return grad_check(lambda g: sum_sq(nm.mix(nm.sigmoid(g), a, b)), tensor(rng.normal((5,))))


def _check_embed_structured_rows(rng: SeededRng) -> float:
    params = init_lpo_params(6, 5, rng.child("p"), with_text=False)
    x = tensor(rng.normal((4, 5)))
    return grad_check(lambda w: sum_sq(embed_structured_rows(x, replace(params, w_embed=w))),
                      Tensor(params.w_embed.data.copy()))


def _check_cross_attention(rng: SeededRng) -> float:
    d = 6
    params = init_lpo_params(d, 5, rng.child("p"), with_text=True)
    tokens = [encode_hashed("festival crowd near stadium tonight", d).tokens, np.zeros((0, d)),
              encode_hashed("rain", d).tokens, encode_hashed("late trains", d).tokens]
    h_s = tensor(rng.normal((len(tokens), d)))

    def f(wk):
        return _weighted(guided_cross_attention(h_s, tokens, replace(params, w_key=wk)), rng.child("w"))

    return grad_check(f, Tensor(params.w_key.data.copy()))


def _check_lpo_gate(rng: SeededRng) -> float:
    d = 6
    params = init_lpo_params(d, 5, rng.child("p"), with_text=True)
    h = tensor(rng.normal((4, d)))
    z = tensor(rng.normal((4, d)))
    return grad_check(lambda w: sum_sq(gated_fuse(h, z, w)), Tensor(params.w_gate.data.copy()))


def _check_rcpg_gate(rng: SeededRng) -> float:
    d = 6
    params = init_global_gate(d, rng.child("p"))
    h = tensor(rng.normal((4, d)))
    pooled = tensor(np.tile(rng.normal((d,)), (4, 1)))
    return grad_check(lambda w: sum_sq(gated_fuse(h, pooled, w, params.b_gate)), Tensor(params.w_gate.data.copy()))


def _check_acmfw_weight(rng: SeededRng) -> float:
    raw = rng.uniform((6, 6)) + 0.1
    matrix = raw / raw.sum(axis=1, keepdims=True)
    return grad_check(lambda x: _weighted(acmfw_weight(x, matrix), rng.child("w")), tensor(rng.normal((4, 6))))


def _check_prompt_loss(rng: SeededRng) -> float:
    params = init_lpo_params(6, 5, rng.child("p"), with_text=True)
    return grad_check(lambda ps: prompt_loss(replace(params, prompt_struct=ps)), Tensor(params.prompt_struct.data.copy()))


def _weighted_steps(x: Tensor, rng: SeededRng) -> Tensor:
    """Random readout of a stack of steps that reads step 1 as zero, so its gradient is exactly zero."""
    w = rng.normal(x.data.shape)
    w[1] = 0.0
    return sum_sq(nm.mul(x, tensor(w)))


def _check_relation_matrix(rng: SeededRng) -> float:
    layer = init_dgso_params(4, 4, 1, 0.0, rng.child("p")).layers[0]
    states = tensor(rng.normal((5, 4)))
    stack = tensor(rng.normal((STACK_STEPS, 5, 4)))
    one = grad_check(lambda wq: _weighted(build_relation_matrix(states, replace(layer, w_query=wq)), rng.child("w")),
                     Tensor(layer.w_query.data.copy()))
    stacked = grad_check(
        lambda wq: _weighted_steps(build_relation_matrix(stack, replace(layer, w_query=wq)), rng.child("ws")),
        Tensor(layer.w_query.data.copy()))
    return max(one, stacked)


def _check_graph_conv(rng: SeededRng) -> float:
    layer = init_dgso_params(4, 4, 1, 0.0, rng.child("p")).layers[0]
    states = tensor(rng.normal((5, 4)))
    relation = tensor(np.full((5, 5), 0.2))
    stack = tensor(rng.normal((STACK_STEPS, 5, 4)))
    raw = rng.uniform((STACK_STEPS, 5, 5)) + 0.1
    relations = tensor(raw / raw.sum(axis=2, keepdims=True))
    one = grad_check(lambda w: _weighted(graph_conv_layer(states, relation, replace(layer, w_trans=w)), rng.child("w")),
                     Tensor(layer.w_trans.data.copy()))
    stacked = grad_check(
        lambda w: _weighted_steps(graph_conv_layer(stack, relations, replace(layer, w_trans=w)), rng.child("ws")),
        Tensor(layer.w_trans.data.copy()))
    return max(one, stacked)


def _check_graph_pass(rng: SeededRng) -> float:
    n = 4
    params = init_dgso_params(n, n, 2, 0.0, rng.child("p"))
    first = params.layers[0]
    rows = tensor(rng.normal((6, 3)))

    def f(wk):
        result = run_dgso(rows, replace(params, layers=[replace(first, w_key=wk)] + params.layers[1:]), n)
        return nm.add(_weighted(result.step_rows, rng.child("w")), _weighted(result.final_states, rng.child("wf")))

    return grad_check(f, Tensor(first.w_key.data.copy()))


def _check_predictor(rng: SeededRng) -> float:
    d = 4
    params = init_ssa_params(d, 2, 1, 4, rng.child("p"), with_feature_attention=True)
    bias = structural_bias(np.full((d, d), 1.0 / d))
    target = rng.normal((2,))

    def f(x):
        return nm.sse(forecast(x, bias, params), target)

    return grad_check(f, tensor(rng.normal((4, d))))


def _rows_and_weight(f, rows: np.ndarray, weight: Tensor) -> float:
    """Worst of the checks of ``f(rows, weight)`` in its rows and in its weight."""
    fixed = tensor(rows)
    return max(grad_check(lambda x: f(x, weight), tensor(rows)),
               grad_check(lambda w: f(fixed, w), Tensor(weight.data.copy())))


def _check_time_attention(rng: SeededRng) -> float:
    b = init_ssa_params(4, 2, 1, 4, rng.child("p"), with_feature_attention=False, heads=2).blocks[0]

    def f(x, wq):
        out = nm.time_attention_norm(x, wq, b.t_wk, b.t_wv, b.t_wo, b.ln1_gamma, b.ln1_beta, heads=2)
        return _weighted(out, rng.child("w"))

    return _rows_and_weight(f, rng.normal((5, 4)), b.t_wq)


def _check_feature_attention(rng: SeededRng) -> float:
    b = init_ssa_params(4, 2, 1, 4, rng.child("p"), with_feature_attention=True).blocks[0]
    raw = rng.uniform((4, 4)) + 0.1
    bias = structural_bias(raw / raw.sum(axis=1, keepdims=True))

    def f(x, wk):
        out = nm.feature_attention_norm(x, b.f_wq, wk, b.f_wv, b.f_wo, b.ln2_gamma, b.ln2_beta, bias)
        return _weighted(out, rng.child("w"))

    return _rows_and_weight(f, rng.normal((5, 4)), b.f_wk)


def _check_feedforward(rng: SeededRng) -> float:
    b = init_ssa_params(4, 2, 1, 4, rng.child("p"), with_feature_attention=False).blocks[0]

    def f(x, w1):
        out = nm.feedforward_norm(x, w1, b.ff_b1, b.ff_w2, b.ff_b2, b.ln3_gamma, b.ln3_beta)
        return _weighted(out, rng.child("w"))

    return _rows_and_weight(f, rng.normal((5, 4)), b.ff_w1)


def _check_sigmoid_gate(rng: SeededRng) -> float:
    params = init_global_gate(6, rng.child("p"))
    bias = tensor(rng.normal((6,)))
    z = tensor(rng.normal((4, 6)))
    return _rows_and_weight(lambda h, w: _weighted(nm.sigmoid_gate(h, z, w, bias), rng.child("w")),
                            rng.normal((4, 6)), params.w_gate)


def _check_step_cross_attention(rng: SeededRng) -> float:
    d = 6
    params = init_lpo_params(d, 5, rng.child("p"), with_text=True)
    steps = [encode_hashed(text, d).tokens for text in ("festival crowd near stadium tonight", "", "rain", "late trains")]
    tokens, counts = np.concatenate(steps), np.array([len(step) for step in steps])

    def f(x, wk):
        out = nm.step_cross_attention(x, tokens, counts, params.w_query, wk, params.w_value,
                                      params.prompt_struct, params.prompt_text)
        return _weighted(out, rng.child("w"))

    return _rows_and_weight(f, rng.normal((len(steps), d)), params.w_key)


def tiny_instance_config(seed: int = 0) -> TrainConfig:
    """The end-to-end check instance: d=4, n=2, T=4, T'=2, smoothing off."""
    return TrainConfig(
        d=4, n=2, n_prime=2, layers=1, window=4, horizon=2, blocks=1, heads=1,
        day_slots=4, lambda_prompt=0.1, ema_lambda=0.0,
        epochs_stage1=1, epochs_stage2=1, batch_size=1, seed=seed,
    )


def tiny_instance_window(config: TrainConfig, seed: int = 0) -> SeriesWindow:
    """A smooth 4-step window whose per-step text has three tokens."""
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
        start_index=0,
    )


def _check_joint_loss(seed: int, h: float) -> float:
    """Gradients of the full objective for every live parameter at once."""
    config = tiny_instance_config(seed)
    model = build_model(config, ALL_COMPONENTS, feature_count=5)
    window = tiny_instance_window(config, seed)
    params = model.stage2_parameters()

    def loss_value() -> Tensor:
        result = model.stage2_forward(window)
        return joint_loss(result.predictions, model.scale_targets(window.targets),
                          model.lpo, config.lambda_prompt)

    nm.clear_tape()
    grads = nm.backward(loss_value(), params=params.values())
    worst = 0.0
    with nm.no_tape():
        for param in params.values():
            analytic = grads[param]
            flat = param.data.reshape(-1)
            aflat = analytic.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_value().item()
                flat[i] = orig - h
                down = loss_value().item()
                flat[i] = orig
                if not (math.isfinite(up) and math.isfinite(down)):
                    raise nm.NumericError("joint loss non-finite at probe point")
                numeric = (up - down) / (2.0 * h)
                denom = max(abs(aflat[i]), abs(numeric), 1e-8)
                worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst


def run_all_checks(seed: int = 0, h: float = 1e-5) -> list[CheckResult]:
    """Every per-op check plus the end-to-end joint objective."""
    checks = [
        ("matmul", _check_matmul),
        ("relu", _check_relu),
        ("sigmoid", _check_sigmoid),
        ("softmax_rows", _check_softmax_rows),
        ("layer_norm", _check_layer_norm),
        ("linear", _check_linear),
        ("gate_mix", _check_gate_mix),
        ("embed_structured_rows", _check_embed_structured_rows),
        ("guided_cross_attention", _check_cross_attention),
        ("gated_fuse/lpo", _check_lpo_gate),
        ("prompt_loss", _check_prompt_loss),
        ("relation_matrix", _check_relation_matrix),
        ("graph_conv", _check_graph_conv),
        ("graph_pass", _check_graph_pass),
        ("gated_fuse/rcpg", _check_rcpg_gate),
        ("acmfw_weight", _check_acmfw_weight),
        ("predictor", _check_predictor),
        ("time_attention_norm", _check_time_attention),
        ("feature_attention_norm", _check_feature_attention),
        ("feedforward_norm", _check_feedforward),
        ("sigmoid_gate", _check_sigmoid_gate),
        ("step_cross_attention", _check_step_cross_attention),
    ]
    results = []
    for name, fn in checks:
        rng = SeededRng(seed).child(f"gradcheck/{name}")
        results.append(CheckResult(name=name, max_error=fn(rng)))
    results.append(CheckResult(name="joint_loss", max_error=_check_joint_loss(seed, h)))
    return results
