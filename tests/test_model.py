import dataclasses
import re
import tracemalloc
from collections import Counter
from datetime import timedelta

import numpy as np
import pytest

from kgcm import numeric as nm
from kgcm.data import START_TIME, GeneratorConfig, generate_synthetic
from kgcm import gradcheck
from kgcm import model as model_module
from kgcm.errors import ConfigError
from kgcm.evaluate import ablation_variants
from kgcm.fusion_local import guided_cross_attention
from kgcm.model import ALL_COMPONENTS, COMPONENT_ORDER, SeriesWindow, TrainConfig, build_model, joint_loss
from kgcm.numeric import Tensor
from kgcm.pipeline import load_model, new_model, save_model, train_stage1
from kgcm.text import encode_hashed

import oracle

INVALID_FIELDS = [
    ("d", 0, "d must be positive"),
    ("n", 1, "n must be >= 2"),
    ("n_prime", -1, "n_prime must be >= 0"),
    ("layers", 0, "layers must be positive"),
    ("window", 0, "window must be positive"),
    ("horizon", -2, "horizon must be positive"),
    ("blocks", 0, "blocks must be positive"),
    ("day_slots", 0, "day_slots must be positive"),
    ("lr", 0.0, "lr must be positive"),
    ("lr", float("nan"), "lr must be finite"),
    ("lambda_prompt", -0.1, "lambda_prompt must be >= 0"),
    ("ema_lambda", 1.5, r"ema_lambda must lie in \[0, 1\]"),
    ("clip_norm", -1.0, "clip_norm must be positive"),
    ("epochs_stage1", 0, "epochs_stage1 must be positive"),
    ("epochs_stage2", 0, "epochs_stage2 must be positive"),
    ("batch_size", 0, "batch_size must be positive"),
]


@pytest.mark.parametrize("name,value,message", INVALID_FIELDS, ids=[f"{n}={v}" for n, v, _ in INVALID_FIELDS])
def test_train_config_refuses_each_invalid_field_by_name(name, value, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        TrainConfig(**{name: value})


def _reachable(node, seen: set[int]) -> list[Tensor]:
    """Every tensor reachable through attributes and list items, each object visited once."""
    if id(node) in seen:
        return []
    seen.add(id(node))
    if isinstance(node, Tensor):
        return [node]
    if isinstance(node, list):
        return [t for item in node for t in _reachable(item, seen)]
    if hasattr(node, "__dict__"):
        return [t for value in vars(node).values() for t in _reachable(value, seen)]
    return []


COMPONENT_SETS = [ALL_COMPONENTS, frozenset()] + [frozenset({name}) for name in COMPONENT_ORDER]


@pytest.mark.parametrize("components", COMPONENT_SETS, ids=lambda c: ",".join(sorted(c)) or "none")
def test_named_parameters_hold_every_reachable_tensor_once(components):
    model = build_model(TrainConfig(layers=3, blocks=2), components)
    named = model.named_parameters()
    reachable = _reachable(model, set())
    assert len({id(t) for t in named.values()}) == len(named)
    assert {id(t) for t in named.values()} == {id(t) for t in reachable}
    assert all(name == t.name and t.requires_grad for name, t in named.items())


def test_parameter_order_is_the_order_the_gradient_clip_sums_in():
    # clip_global_norm sums the squared gradients in this order, so fixed-seed results depend on it
    block = ["t_wq", "t_wk", "t_wv", "t_wo", "ln1_gamma", "ln1_beta", "f_wq", "f_wk", "f_wv", "f_wo",
             "ln2_gamma", "ln2_beta", "ff_w1", "ff_b1", "ff_w2", "ff_b2", "ln3_gamma", "ln3_beta"]
    model = build_model(TrainConfig(layers=1, blocks=1), ALL_COMPONENTS)
    assert list(model.named_parameters()) == [
        *(f"lpo/{name}" for name in ("w_embed", "b_embed", "prompt_struct", "prompt_text",
                                      "w_query", "w_key", "w_value", "w_gate")),
        *(f"dgso/l0/{name}" for name in ("w_query", "w_key", "w_trans", "ln_gamma", "ln_beta")),
        "global/w_gate", "global/b_gate", "ssa/tod_table", "ssa/dow_table",
        *(f"ssa/b0/{name}" for name in block),
        "ssa/head_w", "ssa/head_b", "aux/w", "aux/b",
    ]


@pytest.mark.parametrize("components", COMPONENT_SETS, ids=lambda c: ",".join(sorted(c)) or "none")
def test_the_stages_together_train_every_parameter(components):
    model = build_model(TrainConfig(layers=2, blocks=2), components)
    named = model.named_parameters()
    stage2 = model.stage2_parameters()
    stage1 = model.stage1_parameters() if model.uses_stage1 else {}
    assert set(stage1) | set(stage2) == set(named)
    assert {k for k in named if k.startswith("aux/")} == {k for k in stage1 if k.startswith("aux/")}
    assert not any(k.startswith("aux/") for k in stage2)
    assert model.uses_stage1 == any(k.startswith("aux/") for k in named)


def _other_value(field: dataclasses.Field):
    if isinstance(field.default, float):
        return field.default / 2
    return field.default + 1


@pytest.mark.parametrize("field", dataclasses.fields(TrainConfig), ids=lambda f: f.name)
def test_every_train_config_field_survives_a_model_file(tmp_path, field):
    value = _other_value(field)
    assert value != field.default
    config = TrainConfig(**{field.name: value})
    model = build_model(config, ALL_COMPONENTS)
    model.freeze_structure(np.ones((config.d, config.d)))
    save_model(model, tmp_path / "model.kgcm")
    loaded = load_model(tmp_path / "model.kgcm")
    assert getattr(loaded.config, field.name) == value
    assert loaded.config == config


def _train_full_shaped(windows: int):
    """An all-five model at the default dimensions and ``windows`` of its train split (default data, seed 0)."""
    model, split = new_model(generate_synthetic(GeneratorConfig()), TrainConfig(epochs_stage1=1, epochs_stage2=1))
    return model, split.train[:windows]


def test_the_graph_pass_alone_runs_in_float32():
    model, (window,) = _train_full_shaped(1)
    # a numpy float64 scalar widens a float32 array where a Python float does not
    model.dgso.ema_lambda = np.float64(model.dgso.ema_lambda)
    nm.clear_tape()
    loss = joint_loss(model.stage2_forward(window), model.scale_targets(window.targets), model.lpo,
                      model.config.lambda_prompt)
    dtypes = [out.data.dtype for out, *_ in nm._TAPE]
    narrow = [i for i, dtype in enumerate(dtypes) if dtype == np.float32]
    # the cast in, the lift, one entry per layer and the readout, in one run; the cast out and all else is float64
    assert len(narrow) == 3 + model.config.layers and narrow == list(range(narrow[0], narrow[-1] + 1))
    assert set(dtypes) == {np.dtype(np.float32), np.dtype(np.float64)}
    cast_in, cast_out = nm._TAPE[narrow[0]], nm._TAPE[narrow[-1] + 1]
    assert cast_in[1][0].data.dtype == np.float64 and cast_out[0].data.dtype == np.float64
    params = model.stage2_parameters()
    grads = nm.backward(loss, params.values())
    assert all(p.data.dtype == np.float64 for p in params.values())
    assert {grads[p].dtype for p in params.values()} == {np.dtype(np.float64)}
    assert any(grads[p].any() for name, p in params.items() if name.startswith("dgso/"))


def test_a_star_is_row_stochastic_from_float32_matrices():
    model, windows = _train_full_shaped(8)
    _, matrix = model.stage1_forward(windows[0])
    assert matrix.dtype == np.float32
    nm.clear_tape()
    train_stage1(model, windows, model.config)
    assert model.a_star.dtype == np.float64
    assert (model.a_star >= 0).all()
    assert np.abs(model.a_star.sum(axis=1) - 1.0).max() <= 1e-12  # the benchmark's row-sum tolerance


GRAPH_FREE = frozenset({"ssa", "rcpg", "lpo"})  # the train-text components: stage 1 without the graph


def _text_window(config: TrainConfig, texts: list[str]) -> SeriesWindow:
    """A window of ``len(texts)`` steps whose step t carries ``texts[t]`` ('' for none)."""
    rng = nm.SeededRng(7).child("text-window")
    t = len(texts)
    return SeriesWindow(region="r0", inputs=rng.normal((t, 5)), targets=rng.normal((config.horizon,)),
                        slots=[k % config.day_slots for k in range(t)], dows=[0] * t,
                        local_tokens=[encode_hashed(text, config.d).tokens for text in texts],
                        global_pooled=np.zeros(config.d),
                        target_times=[START_TIME + timedelta(days=(t + k) / config.day_slots)
                                      for k in range(config.horizon)])


def _uncut_stage1_loss(model, window):
    """Graph-free stage 1 over every fused row of the window, then the last step's history columns."""
    fused = model._fused_rows(window)
    states = nm.history_columns(fused, len(window.inputs) - 1, model.config.n)
    aux_pred = nm.linear(nm.mean_rows(states), model.aux_w, model.aux_b)
    return joint_loss(aux_pred, model.scale_targets(window.targets[:1]), model.lpo, model.config.lambda_prompt)


def _loss_and_gradients(model, loss_fn, window):
    nm.clear_tape()
    loss = loss_fn(model, window)
    params = model.stage1_parameters()
    grads = nm.backward(loss, params.values())
    return loss.item(), {name: grads[p] for name, p in params.items()}


SMALL = TrainConfig(d=8, n=3, window=8, horizon=2, blocks=1, day_slots=4)
TEXTS = ["", "festival crowd", "", "rain all day", "", "late trains tonight", "", "stadium match"]


@pytest.mark.parametrize("texts", [TEXTS, TEXTS[:5] + [""] * 3, [""] * 8],
                         ids=["text-in-lift", "text-before-lift", "no-text"])
def test_graph_free_stage1_equals_the_uncut_composition(texts):
    model = build_model(SMALL, GRAPH_FREE)
    window = _text_window(SMALL, texts)
    loss, grads = _loss_and_gradients(model, lambda m, w: m.stage1_forward(w)[0], window)
    want_loss, want_grads = _loss_and_gradients(model, _uncut_stage1_loss, window)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    for name, want in want_grads.items():
        assert np.abs(grads[name] - want).max() <= 1e-12 * np.abs(want).max(), name


def test_text_before_the_lift_leaves_stage1_bitwise_unchanged():
    model = build_model(SMALL, GRAPH_FREE)
    early_text = TEXTS[:SMALL.window - SMALL.n] + [""] * SMALL.n
    assert "".join(early_text)
    with_text, without = (_text_window(SMALL, texts) for texts in (early_text, [""] * SMALL.window))
    nm.clear_tape()
    loss = model.stage1_forward(with_text)[0].item()
    nm.clear_tape()
    assert loss == model.stage1_forward(without)[0].item()
    nm.clear_tape()


def test_a_window_shorter_than_n_pads_by_repeating_its_first_row():
    config = dataclasses.replace(SMALL, n=8, window=5)
    model = build_model(config, GRAPH_FREE)
    window = _text_window(config, TEXTS[:5])
    nm.clear_tape()
    fused = model._fused_rows(window).data
    padded = np.vstack([fused[:1]] * 3 + [fused])  # (n, d): three copies of row 0, then the five rows
    aux_pred = model.aux_w.data @ padded.T.mean(axis=0) + model.aux_b.data
    prompt = ((model.lpo.prompt_struct.data - model.lpo.prompt_text.data) ** 2).sum()
    want = ((aux_pred - model.scale_targets(window.targets[:1])) ** 2).sum() + config.lambda_prompt * prompt
    nm.clear_tape()
    loss = model.stage1_forward(window)[0].item()
    nm.clear_tape()
    assert abs(loss - want) <= 1e-12 * abs(want)


STACK_SETS = {**{name: components for name, components in ablation_variants()}, "train-text": GRAPH_FREE,
              "acmfw-alone": frozenset({"acmfw"}), "lpo-alone": frozenset({"lpo"})}
_STACK_MODELS = {}


def _stack_model(name: str):
    """A model of ``STACK_SETS[name]`` at the default dimensions, a frozen matrix, and four train windows with text."""
    if name not in _STACK_MODELS:
        data = generate_synthetic(GeneratorConfig(event_rate=0.5))
        model, split = new_model(data, TrainConfig(epochs_stage1=1, epochs_stage2=1), STACK_SETS[name])
        model.freeze_structure(np.abs(nm.SeededRng(1).normal((model.config.d, model.config.d))) + 0.01)
        _STACK_MODELS[name] = model, split.train[40:44]
    return _STACK_MODELS[name]


def _stage_loss(model, stage, windows):
    """The stage's loss of one window or a stack, and the stage-1 matrices."""
    if stage == 1:
        return model.stage1_forward(windows)
    one = isinstance(windows, SeriesWindow)
    targets = windows.targets if one else np.stack([w.targets for w in windows])
    return joint_loss(model.stage2_forward(windows), model.scale_targets(targets), model.lpo,
                      model.config.lambda_prompt), None


def _stage_gradients(model, stage, windows):
    nm.clear_tape()
    loss, matrices = _stage_loss(model, stage, windows)
    params = model.stage1_parameters() if stage == 1 else model.stage2_parameters()
    grads = nm.backward(loss, params.values())
    return loss.data, matrices, {name: grads[p] for name, p in params.items()}


STAGE_CASES = [(name, stage) for name in STACK_SETS for stage in (1, 2)
               if stage == 2 or build_model(TrainConfig(), STACK_SETS[name]).uses_stage1]


@pytest.mark.parametrize("count", [1, 2, 4])
@pytest.mark.parametrize("name,stage", STAGE_CASES, ids=[f"{name}-stage{stage}" for name, stage in STAGE_CASES])
def test_a_stack_of_windows_is_each_windows_own_forward_and_backward(name, stage, count):
    # each window's loss and matrix bitwise its own; the parameter gradients the sum of the windows' own
    model, windows = _stack_model(name)
    losses, matrices, grads = _stage_gradients(model, stage, windows[:count])
    assert losses.shape == (count,)
    alone = [_stage_gradients(model, stage, window) for window in windows[:count]]
    for c, (loss, matrix, _) in enumerate(alone):
        assert losses[c].tobytes() == loss.tobytes()
        assert (matrices is None) == (matrix is None)
        if matrix is not None:
            assert matrices[c].tobytes() == matrix.tobytes()
    for key, g in grads.items():
        oracle.assert_window_sum(g, [want[key] for _, _, want in alone])
    nm.clear_tape()
    values = model.stage2_forward(windows[:count]).data
    nm.clear_tape()
    assert [v.tobytes() for v in values] == [model.stage2_forward(w).data.tobytes() for w in windows[:count]]
    nm.clear_tape()


def test_a_taped_graph_stack_keeps_one_relation_stack_per_layer_and_a_bounded_backward_peak():
    # each taped graph layer keeps its (T, C, d, d) relations and rebuilds the smoothed stack and the products in
    # its backward, and backward drops each entry once it has run. All five components, stage 2, a stack of four
    # at the default shapes, traced by tracemalloc: 5.9 MiB held after the forward and a 6.6 MiB peak in the
    # backward. Layers that also kept the smoothed stack, q, k, A H and its product with W peaked at 9.6 MiB, and
    # a backward that dropped no entry before its end at 8.7 MiB
    model, windows = _stack_model("+lpo")
    assert model.components == ALL_COMPONENTS
    t_steps, d = len(windows[0].inputs), model.config.d
    _stage_gradients(model, 2, windows)  # the first pass allocates what later passes reuse
    tracemalloc.start()
    try:
        loss = _stage_loss(model, 2, windows)[0]
        layers = [bw for _, _, bw in nm._TAPE if bw.__qualname__.startswith("graph_layer")]
        assert len(layers) == model.config.layers
        for bw in layers:
            kept = [cell.cell_contents for cell in bw.__closure__ if isinstance(cell.cell_contents, np.ndarray)]
            assert sum(a.shape == (t_steps, len(windows), d, d) and a.dtype.kind == "f" for a in kept) == 1
        del layers, bw, kept
        tracemalloc.reset_peak()
        nm.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2 ** 20


def _without_text(window: SeriesWindow) -> SeriesWindow:
    return dataclasses.replace(window, local_tokens=[tokens[:0] for tokens in window.local_tokens])


@pytest.mark.parametrize("stage", [1, 2])
def test_a_stack_that_mixes_windows_with_and_without_text_is_each_windows_own(monkeypatch, stage):
    model, windows = _stack_model("train-text")
    mixed = [windows[0], _without_text(windows[1]), windows[2]]
    assert all(any(len(t) for t in w.local_tokens[-model.config.n:]) for w in (windows[0], windows[2]))
    attended = []
    monkeypatch.setattr(model_module, "guided_cross_attention",
                        lambda *args: attended.append(guided_cross_attention(*args)) or attended[-1])
    losses, _, grads = _stage_gradients(model, stage, mixed)
    stacked_text = attended.pop().data
    alone = [_stage_gradients(model, stage, window) for window in mixed]
    assert not stacked_text[1].any() and all(stacked_text[c].any() for c in (0, 2))
    assert not attended[1].requires_grad  # the text-free window alone: untracked zeros
    for c, (loss, _, _) in enumerate(alone):
        assert losses[c].tobytes() == loss.tobytes()
    for key, g in grads.items():
        oracle.assert_window_sum(g, [want[key] for _, _, want in alone])
    for key in ("lpo/w_query", "lpo/w_key", "lpo/w_value"):  # the text-free window adds no attention gradient
        assert not alone[1][2][key].any() and grads[key].any()
    nm.clear_tape()
    values = model.stage2_values(mixed)
    assert [v.tobytes() for v in values] == [model.stage2_values([w])[0].tobytes() for w in mixed]
    nm.clear_tape()


def _kernels(tape) -> Counter:
    """The kernels a tape recorded, by the name of their backward's function."""
    return Counter(entry[2].__qualname__.split(".")[0] for entry in tape)


@pytest.mark.parametrize("count", [2, 4])
def test_a_stack_records_each_kernel_once(count):
    model, windows = _stack_model("train-text")
    assert all(any(len(t) for t in w.local_tokens) for w in windows)  # every window's cross-attention records
    nm.clear_tape()
    _stage_loss(model, 2, windows[0])
    one = _kernels(nm._TAPE)
    nm.clear_tape()
    _stage_loss(model, 2, windows[:count])
    stacked = _kernels(nm._TAPE)
    nm.clear_tape()
    # everything once, the prompt term and the cross-attention too, plus the (C, 1, T') -> (C, T') take
    assert one["step_cross_attention"] == 1
    assert stacked == one + Counter({"take": 1})


def _paper_table() -> list[list[str]]:
    """The rows of the paper-to-code table in ``model``'s docstring, each cell's lines joined by spaces.

    A simple table: columns under the runs of "=", and a row goes on below its first line with a blank first cell.
    """
    lines = model_module.__doc__.splitlines()
    borders = [i for i, line in enumerate(lines) if line.startswith("=")]
    assert len(borders) == 3
    spans = [m.span() for m in re.finditer("=+", lines[borders[0]])]
    rows = []
    for line in lines[borders[0] + 1: borders[2]]:
        if line.startswith("="):
            continue
        cells = [line[a:b].strip() for a, b in spans]
        assert all(line[b: b + 2].strip() == "" for _, b in spans)  # no cell runs into the next column
        if cells[0]:
            rows.append(cells)
        else:
            rows[-1] = [" ".join(filter(None, pair)) for pair in zip(rows[-1], cells)]
    return rows


def test_the_paper_table_maps_every_component_and_both_stages_and_cites_real_checks(monkeypatch):
    header, *rows = _paper_table()
    assert header == ["Paper phrase", "Module and function", "Tested by"]
    for name in COMPONENT_ORDER:
        assert any(f"({name})" in phrase for phrase, _, _ in rows), name
    code = " ".join(functions for _, functions, _ in rows)
    assert "pipeline.train_stage1" in code and "pipeline.train_stage2" in code
    cited = {name for _, _, tested in rows for name in re.findall(r"gradcheck:([\w/]+)", tested)}
    for name in dir(gradcheck):  # the names alone: no check runs
        if name.startswith("_check_"):
            monkeypatch.setattr(gradcheck, name, lambda *args, **kwargs: 0.0)
    checks = {result.name for result in gradcheck.run_all_checks()}
    assert cited and cited <= checks
    variants = {name for _, _, tested in rows for name in re.findall(r"\+\w+|backbone", tested)}
    assert variants <= {name for name, _ in ablation_variants()}
