"""Model assembly: configuration, parameter registry, and window forwards.

A model is a set of component toggles over one shared parameter pool. The
five optional components follow the cumulative ablation order: feature-axis
attention with structural bias (ssa), the shared-context gate (rcpg), the
adaptive relation graph (dgso), frozen-matrix feature weighting (acmfw), and
local text cross-attention (lpo). With everything disabled the model is the
backbone: structured embedding, temporal-only encoder, forecast heads.

The parameter list is read off the parameter dataclasses: every tensor
reachable from ``lpo``, ``dgso``, ``global_gate``, ``ssa`` and the auxiliary
head, in field declaration order. Each forward returns only what its
callers read.

The ``dgso`` graph pass is the model's one float32 region: both forwards
cast the fused (T, d) rows to ``graph_dtype`` (``graph.GRAPH_DTYPE``) before
``run_dgso`` and cast the rows they read out back to float64, each through
one ``numeric.cast`` tape entry. Parameters and their gradients, the
scaler, ``a_star`` (the float64 mean of float32 matrices) and model files
stay float64.

Both forwards take a list of windows as one stack, whose ops, the text
cross-attention, the graph pass and stage 1's readout included, run on
(C, T, d) rows, one tape entry each; the graph pass runs on (T, C, d, n)
states, the step axis outermost, and its (T, C, d) rows return to
(C, T, d) through one ``swap_leading`` entry, on the tape and off it.
Training, scoring (``stage2_values``) and the gradient checks of both
stage objectives pass stacks, stacks of one included. A single window keeps a rank-2 path
with two readers: ``pipeline.predict``, and the tests, which hold each
window's values, loss, stage-1 matrix and row gradients in a stack bitwise
to those of its own one-window forward. A parameter's gradient from a
stack's (C,) losses is the gradient of their sum, which differs from the
sum of the windows' own gradients only in the order of the additions.

The paper (arXiv:2509.06976) mapped to the code: quoted phrases are the
abstract's, the rest this package's; "gradcheck:X" is the check ``kgcm
gradcheck`` prints as X, "row +X" the ablation row that adds X.

==============================================  ===================================  ==================================
Paper phrase                                    Module and function                  Tested by
==============================================  ===================================  ==================================
"structured temporal traffic data" (backbone)   fusion_local.embed_structured_rows,  gradcheck:embed_structured_rows,
                                                predictor.embed_sequence, forecast   gradcheck:time_attention_norm,
                                                                                     gradcheck:feedforward_norm,
                                                                                     gradcheck:predictor, row backbone
feature attention, matrix as bias (ssa)         predictor.structural_bias,           gradcheck:feature_attention_norm,
                                                numeric.feature_attention_norm       row +ssa
"global knowledge": shared text gate (rcpg)     fusion_local.GlobalGateParams,       gradcheck:sigmoid_gate, row +rcpg
                                                numeric.sigmoid_gate
"adaptive graph networks" of features (dgso)    graph.run_dgso, numeric.graph_layer  gradcheck:graph_layer,
                                                                                     gradcheck:graph_pass, row +dgso
"cross-modal feature fusion": weights (acmfw)   fusion_local.acmfw_weight            gradcheck:acmfw_weight, row +acmfw
"cross-modal feature fusion": text (lpo)        fusion_local.guided_cross_attention  gradcheck:guided_cross_attention,
                                                and prompt_loss,                     gradcheck:prompt_loss, row +lpo
                                                numeric.step_cross_attention
"reasoning-based dynamic update strategy"       pipeline.train_stage1 freezes        gradcheck:graph_layer/carried
                                                a_star, the mean of the graph's      (its taped last step),
                                                ema_lambda-smoothed last matrices    gradcheck:stage1_loss,
                                                                                     gradcheck:stage1_loss/lpo, rows
                                                                                     +dgso, +acmfw and +lpo run it;
                                                                                     no row leaves it out
joint training of the value path (stage 2)      pipeline.train_stage2, joint_loss    gradcheck:joint_loss, every row
"local and global adaptive graph networks"      none between regions: no forward     not testable on this data
                                                pass reads SeriesWindow.region
"prior knowledge dataset" built by an LLM       data.generate_synthetic templates,   not testable on this data
                                                text.encode_hashed
==============================================  ===================================  ==================================
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, ShapeError
from .fusion_local import (
    GlobalGateParams,
    LpoParams,
    acmfw_weight,
    embed_structured_rows,
    guided_cross_attention,
    init_global_gate,
    init_lpo_params,
    prompt_loss,
)
from .graph import GRAPH_DTYPE, DgsoParams, init_dgso_params, run_dgso, uniform_matrix
from .numeric import (
    SeededRng,
    Tensor,
    add,
    cast,
    constant,
    history_columns,
    linear,
    mean_rows,
    no_tape,
    scale,
    sigmoid_gate,
    sse,
    swap_leading,
    take,
)
from .predictor import SsaParams, embed_sequence, forecast, init_ssa_params, structural_bias
from .text import EncoderConfig

log = logging.getLogger(__name__)

__all__ = [
    "COMPONENT_ORDER",
    "ALL_COMPONENTS",
    "TrainConfig",
    "SeriesWindow",
    "Model",
    "build_model",
    "joint_loss",
]

COMPONENT_ORDER = ("ssa", "rcpg", "dgso", "acmfw", "lpo")
ALL_COMPONENTS = frozenset(COMPONENT_ORDER)

@dataclass
class TrainConfig:
    """Model dimensions and optimization settings with validated defaults."""

    d: int = 32
    n: int = 8
    n_prime: int = 0  # 0 means "same as n"
    layers: int = 2
    window: int = 48
    horizon: int = 12
    blocks: int = 2
    day_slots: int = 48
    lr: float = 1e-3
    lambda_prompt: float = 0.1
    ema_lambda: float = 0.9
    clip_norm: float = 5.0
    epochs_stage1: int = 100
    epochs_stage2: int = 200
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        self.validate()

    @property
    def projection_width(self) -> int:
        return self.n_prime if self.n_prime > 0 else self.n

    def validate(self) -> None:
        # a model file is rendered from these fields and must parse back, and config files refuse non-finite values
        for name in ("lr", "lambda_prompt", "ema_lambda", "clip_norm"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("d", "layers", "window", "horizon", "blocks", "day_slots", "epochs_stage1",
                     "epochs_stage2", "batch_size", "lr", "clip_norm"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.n < 2:
            raise ConfigError(f"n must be >= 2 (layer norm over one history point is degenerate), got {self.n}")
        if self.n_prime < 0:
            raise ConfigError(f"n_prime must be >= 0, got {self.n_prime}")
        if not 0.0 <= self.ema_lambda <= 1.0:
            raise ConfigError(f"ema_lambda must lie in [0, 1], got {self.ema_lambda}")
        if self.lambda_prompt < 0.0:
            raise ConfigError(f"lambda_prompt must be >= 0, got {self.lambda_prompt}")
        if not 0 <= self.seed < 2 ** 64:  # the random streams take a 64-bit seed, and would wrap any other
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass
class SeriesWindow:
    """One training sample: inputs, timestamps, texts, and horizon targets."""

    region: str
    inputs: np.ndarray  # (T, F) raw feature rows
    targets: np.ndarray  # (T',) raw demand
    slots: list[int]  # time-of-day slot per input step
    dows: list[int]  # day-of-week per input step
    local_tokens: list[np.ndarray]  # per step token matrix (m_t, d)
    global_pooled: np.ndarray  # (d,) pooled shared-context vector
    target_times: list  # (T',) timestamps of the targets


Windows = SeriesWindow | Sequence[SeriesWindow]  # one window, or a stack of them


# ``predict`` keeps the rank-2 path of one window, not a stack of one: through ``Model._values`` a stack of one cost
# 544 -> 617 us on train-text and 1,532 -> 1,650 us on train-full (1 BLAS thread, interleaved, 2-vCPU x86-64 guest).
def _stacked(windows: Windows, read) -> np.ndarray:
    """``read(window)`` for one window; for a stack, the (C, ...) stack of each window's, which must share a shape."""
    if isinstance(windows, SeriesWindow):
        return np.asarray(read(windows))
    try:
        return np.stack([read(w) for w in windows])
    except ValueError as exc:
        raise ShapeError(f"the windows of a stack differ in shape: {exc}") from exc


def _tensors(node) -> Iterator[Tensor]:
    """Depth first: dataclass fields in declaration order, list items in order; None and non-tensors skipped."""
    if isinstance(node, Tensor):
        yield node
    elif isinstance(node, list):
        for item in node:
            yield from _tensors(item)
    elif is_dataclass(node):
        for f in fields(node):
            yield from _tensors(getattr(node, f.name))


class Model:
    """Parameter pool plus the component-gated forward passes."""

    def __init__(self, config: TrainConfig, components: frozenset[str], feature_count: int):
        unknown = components - ALL_COMPONENTS
        if unknown:
            raise ConfigError(f"unknown components: {sorted(unknown)}")
        self.config = config
        self.components = frozenset(components)
        self.feature_count = feature_count
        root = SeededRng(config.seed)
        self.lpo = init_lpo_params(config.d, feature_count, root.child("init/lpo"), with_text="lpo" in components)
        self.dgso: DgsoParams | None = None
        self.graph_dtype = GRAPH_DTYPE  # the gradient check's instance runs its graph in float64
        if "dgso" in components:
            self.dgso = init_dgso_params(
                config.n, config.projection_width, config.layers, config.ema_lambda, root.child("init/dgso")
            )
        self.global_gate: GlobalGateParams | None = None
        if "rcpg" in components:
            self.global_gate = init_global_gate(config.d, root.child("init/global"))
        self.ssa: SsaParams = init_ssa_params(
            config.d,
            config.horizon,
            config.blocks,
            config.day_slots,
            root.child("init/ssa"),
            with_feature_attention="ssa" in components,
        )
        self.aux_w: Tensor | None = None
        self.aux_b: Tensor | None = None
        if self.uses_stage1:
            aux_rng = root.child("init/aux")
            self.aux_w = Tensor(aux_rng.glorot(1, config.n), requires_grad=True, name="aux/w")
            self.aux_b = Tensor(np.zeros(1), requires_grad=True, name="aux/b")
        self.a_star: np.ndarray | None = None
        self.encoder = EncoderConfig()  # how the training windows' text was encoded; saved in the model file
        self.scaler_mean = np.zeros(feature_count)
        self.scaler_std = np.ones(feature_count)
        self.stage1_history: list[float] = []
        self.stage2_history: list[float] = []
        self.pad_events = 0

    # -- bookkeeping ---------------------------------------------------

    @property
    def uses_stage1(self) -> bool:
        return "dgso" in self.components or "lpo" in self.components

    def named_parameters(self) -> dict[str, Tensor]:
        """Every parameter tensor by name; the order is the one ``clip_global_norm`` sums in."""
        roots = [self.lpo, self.dgso, self.global_gate, self.ssa, self.aux_w, self.aux_b]
        return {t.name: t for t in _tensors(roots)}

    def stage1_parameters(self) -> dict[str, Tensor]:
        """Embedding, local fusion, graph, and the auxiliary head."""
        keep = ("lpo/", "dgso/", "aux/")
        return {k: v for k, v in self.named_parameters().items() if k.startswith(keep)}

    def stage2_parameters(self) -> dict[str, Tensor]:
        """Everything except the stage-1 auxiliary head."""
        return {k: v for k, v in self.named_parameters().items() if not k.startswith("aux/")}

    def set_scaler(self, mean: np.ndarray, std: np.ndarray) -> None:
        if mean.shape != (self.feature_count,) or std.shape != (self.feature_count,):
            raise ShapeError(f"scaler arrays must have shape ({self.feature_count},)")
        self.scaler_mean = mean.astype(np.float64)
        self.scaler_std = np.where(std == 0.0, 1.0, std).astype(np.float64)

    def freeze_structure(self, matrix: np.ndarray) -> None:
        """Hold the row-normalised float64 ``matrix`` as ``a_star``."""
        rows = matrix.sum(axis=1, keepdims=True)
        normalized = matrix / rows
        normalized.setflags(write=False)
        self.a_star = normalized

    def structure_or_uniform(self) -> np.ndarray:
        return self.a_star if self.a_star is not None else uniform_matrix(self.config.d)

    # -- scaling -------------------------------------------------------

    def scale_inputs(self, x: np.ndarray) -> np.ndarray:
        return (x - self.scaler_mean) / self.scaler_std

    def scale_targets(self, y: np.ndarray) -> np.ndarray:
        return (y - self.scaler_mean[0]) / self.scaler_std[0]

    def unscale_predictions(self, y: np.ndarray) -> np.ndarray:
        return y * self.scaler_std[0] + self.scaler_mean[0]

    # -- forwards ------------------------------------------------------

    def _fused_rows(self, windows: Windows, first: int = 0) -> Tensor:
        """Embedded rows of steps ``first``..T-1, gated with the step text by one cross-attention call when lpo is on.

        One window gives (T - first, d) rows, a stack a (C, T - first, d)
        stack. Each fused row depends on its own step alone, so the rows of
        a cut window are the same rows as those of the whole one.
        """
        x = constant(self.scale_inputs(_stacked(windows, lambda w: w.inputs[first:])))
        hs = embed_structured_rows(x, self.lpo)
        if "lpo" not in self.components:
            return hs
        one = isinstance(windows, SeriesWindow)
        tokens = windows.local_tokens[first:] if one else [w.local_tokens[first:] for w in windows]
        return sigmoid_gate(hs, guided_cross_attention(hs, tokens, self.lpo), self.lpo.w_gate)

    def stage1_forward(self, windows: Windows) -> tuple[Tensor, np.ndarray | None]:
        """Auxiliary one-step-ahead loss over the final node states, and the graph's last smoothed matrix.

        Without the graph the loss reads only the last n fused rows (the last
        step's history columns), so only the last min(n, T) steps are fused;
        a window shorter than n still pads by repeating its first row. One
        window gives a scalar loss and a (d, d) matrix, a stack (C,) losses
        and (C, d, d) matrices.
        """
        n, matrix = self.config.n, None
        steps = len((windows if isinstance(windows, SeriesWindow) else windows[0]).inputs)
        rows = self._fused_rows(windows, max(steps - n, 0) if self.dgso is None else 0)
        if self.dgso is None:
            final_states = history_columns(rows, rows.data.shape[-2] - 1, n)
        else:
            states, matrix = run_dgso(cast(rows, self.graph_dtype), self.dgso, n, last_step_only=True)
            final_states = cast(take(states, 0), np.float64)
        pred = linear(mean_rows(final_states), self.aux_w, self.aux_b)  # (1,), or (C, 1, 1) for a stack
        targets = self.scale_targets(_stacked(windows, lambda w: w.targets[:1]))
        return joint_loss(pred, targets.reshape(pred.data.shape), self.lpo, self.config.lambda_prompt), matrix

    def stage2_forward(self, windows: Windows) -> Tensor:
        """Full value path: fuse, refine, gate, weight, encode, forecast; on the scaled target scale.

        One window gives (T',) values, a stack (C, T'), one row per window.
        """
        values = self._values(windows)
        return values if isinstance(windows, SeriesWindow) else take(values, np.s_[:, 0])

    def stage2_values(self, windows: Sequence[SeriesWindow]) -> np.ndarray:
        """``stage2_forward``'s values for each of ``windows``, as (C, T') rows, computed off the tape.

        The windows run as one (C, T, d) stack, and must share their shapes;
        each row is bitwise its window's one-window ``stage2_forward`` value.
        """
        with no_tape():
            return self._values(windows).data.reshape(len(windows), -1)

    def _graph_rows(self, rows: Tensor) -> Tensor:
        """Each step's column n-1 of the graph pass's final node states, in float64, for (T, d) or (C, T, d) rows.

        The rows run between two ``cast`` entries, a whole stack in one
        ``run_dgso`` call; a stack's (T, C, d) columns go back to (C, T, d)
        through ``swap_leading``.
        """
        n = self.config.n
        states = run_dgso(cast(rows, self.graph_dtype), self.dgso, n)[0]
        if rows.data.ndim == 2:
            return cast(take(states, np.s_[:, :, n - 1]), np.float64)
        return cast(swap_leading(take(states, np.s_[:, :, :, n - 1])), np.float64)

    def _values(self, windows: Windows) -> Tensor:
        """The value path for one window's (T, d) rows, or for a stack's (C, T, d) rows: (T',) or (C, 1, T')."""
        vecs = self._fused_rows(windows)
        if self.dgso is not None:
            vecs = self._graph_rows(vecs)
        if self.global_gate is not None:
            pooled = _stacked(windows, lambda w: w.global_pooled[None])  # (1, d) per window, repeated over its rows
            vecs = sigmoid_gate(vecs, constant(np.repeat(pooled, vecs.data.shape[-2], axis=-2)),
                                self.global_gate.w_gate, self.global_gate.b_gate)
        if "acmfw" in self.components:
            vecs = acmfw_weight(vecs, self.structure_or_uniform())
        e = embed_sequence(vecs, _stacked(windows, lambda w: w.slots), _stacked(windows, lambda w: w.dows), self.ssa)
        bias = structural_bias(self.structure_or_uniform()) if "ssa" in self.components else None
        return forecast(e, bias, self.ssa)


def joint_loss(predictions: Tensor, targets: np.ndarray, lpo_params: LpoParams | None, lambda_prompt: float) -> Tensor:
    """Sum of squared errors plus the weighted prompt-alignment term.

    Stage 2 scores the horizon forecast with it, stage 1 the auxiliary
    one-step prediction. One window's (k,) predictions give a scalar loss; a
    (C, ...) stack gives (C,) losses, one per window. The prompt term is
    computed once and added to each window's loss, so its gradient from the
    (C,) losses is C times one window's.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.data.shape != targets.shape:
        raise ShapeError(f"predictions {predictions.data.shape} do not match targets {targets.shape}")
    loss = sse(predictions, targets, windows=predictions.data.ndim > 1)
    if lpo_params is not None and lpo_params.has_text_fusion and lambda_prompt > 0.0:
        loss = add(loss, scale(prompt_loss(lpo_params), lambda_prompt))
    return loss


def build_model(config: TrainConfig, components: frozenset[str] | Sequence[str] = ALL_COMPONENTS,
                feature_count: int = 5) -> Model:
    return Model(config, frozenset(components), feature_count)
