import ast
import dataclasses
import io
import math
import multiprocessing
import os
import re
import signal
import tempfile
import time
import warnings
import zipfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgcm import pipeline
from kgcm.configio import render_model_config
from kgcm.data import GeneratorConfig, generate_synthetic
from kgcm.errors import ConfigError, DataError, FormatError, HelperError, NumericError, ShapeError, TrainingError
from kgcm.evaluate import ablation_variants
from kgcm.gradcheck import tiny_instance_config, tiny_instance_window
from kgcm.model import ALL_COMPONENTS, Model, TrainConfig, build_model
from kgcm.model import joint_loss
from kgcm.numeric import clear_tape, tape_size
from kgcm.text import EncoderConfig


@pytest.fixture(autouse=True)
def fresh_tape():
    clear_tape()
    yield
    clear_tape()


def _config(**overrides) -> TrainConfig:
    base = dict(d=8, n=2, window=8, horizon=2, blocks=1, day_slots=12,
                epochs_stage1=1, epochs_stage2=2, batch_size=4, seed=3)
    base.update(overrides)
    return TrainConfig(**base)


def _dataset(seed: int = 0):
    return generate_synthetic(GeneratorConfig(regions=1, days=2, slots_per_day=12, event_rate=0.3, seed=seed))


def _split(config):
    return pipeline.split_windows(pipeline.build_windows(_dataset(), config))


def _fit(config=None):
    config = config or _config()
    model = pipeline.fit(_dataset(), config, ALL_COMPONENTS)
    return model, _split(config).test


def _forecasts(model, windows) -> bytes:
    return np.stack([pipeline.predict(model, w) for w in windows]).tobytes()


class TestTrainingLoop:
    def test_same_seed_fits_are_bitwise_equal(self):
        first, test = _fit()
        second, _ = _fit()
        assert len(first.stage1_history) == 1 and len(first.stage2_history) == 2
        assert np.array(first.stage1_history).tobytes() == np.array(second.stage1_history).tobytes()
        assert np.array(first.stage2_history).tobytes() == np.array(second.stage2_history).tobytes()
        assert first.a_star.tobytes() == second.a_star.tobytes()
        assert _forecasts(first, test) == _forecasts(second, test)

    def test_frozen_matrix_is_last_epoch_mean(self, monkeypatch):
        # the recording forward below sees only this process's windows, so no helper may compute any
        monkeypatch.setattr(pipeline, "_helper_can_start", lambda: False)
        config = _config(epochs_stage1=2)
        windows = _split(config).train
        model = build_model(config, ALL_COMPONENTS, pipeline.FEATURE_COUNT)
        matrices = []
        forward = model.stage1_forward

        def recording(windows):
            loss, matrix = forward(windows)
            matrices.extend(matrix.reshape(-1, 8, 8).copy())  # one (d, d) matrix per window of a stack
            return loss, matrix

        model.stage1_forward = recording
        pipeline.train_stage1(model, windows, config)
        mean = sum(matrices[-len(windows):], np.zeros((8, 8))) / len(windows)
        np.testing.assert_array_equal(model.a_star, mean / mean.sum(axis=1, keepdims=True))
        assert len(matrices) == 2 * len(windows)
        # with n = 2 only step 0 of each pass pads its history, by one slot
        assert model.pad_events == len(matrices)

    def test_stage1_without_the_graph_pads_only_the_last_step(self):
        # the auxiliary head lifts the last of the 8 steps with a history of 10: 2 padded slots per pass
        config = _config(n=10, window=8, epochs_stage1=3)
        windows = _split(config).train
        model = build_model(config, {"lpo"}, pipeline.FEATURE_COUNT)
        pipeline.train_stage1(model, windows, config)
        assert model.a_star is None
        assert model.pad_events == 2 * 3 * len(windows)

    @pytest.mark.parametrize("stage", [1, 2])
    def test_nan_input_names_stage_and_epoch(self, stage):
        config = _config()
        windows = _split(config).train
        windows[1].inputs = windows[1].inputs.copy()
        windows[1].inputs[3, 0] = np.nan
        model = build_model(config, ALL_COMPONENTS, pipeline.FEATURE_COUNT)
        train = pipeline.train_stage1 if stage == 1 else pipeline.train_stage2
        with pytest.raises(TrainingError, match=f"stage {stage}, epoch 0, batch "):
            train(model, windows, config)

    @pytest.mark.parametrize("stage", [1, 2])
    def test_empty_window_list(self, stage):
        config = _config()
        model = build_model(config, ALL_COMPONENTS, pipeline.FEATURE_COUNT)
        train = pipeline.train_stage1 if stage == 1 else pipeline.train_stage2
        with pytest.raises(TrainingError, match=f"stage {stage} needs a nonempty training set"):
            train(model, [], config)

    def test_stage1_needs_graph_or_text(self):
        config = _config()
        model = build_model(config, {"ssa", "rcpg"}, pipeline.FEATURE_COUNT)
        with pytest.raises(TrainingError, match="stage 1 requires"):
            pipeline.train_stage1(model, _split(config).train, config)

    def test_stage2_tape_size_does_not_grow_with_the_window(self):
        # every component runs on the window's (T, d) rows at once: no op is recorded per step
        sizes = []
        for window in (12, 48):
            config = _config(window=window, n=8)
            model = build_model(config, ALL_COMPONENTS, pipeline.FEATURE_COUNT)
            clear_tape()
            model.stage2_forward(tiny_instance_window(config))
            sizes.append(tape_size())
        assert sizes[0] == sizes[1]


    def test_all_five_stage2_window_stays_under_forty_tape_entries(self):
        # one entry per value-path sublayer: the encoder, gates and text attention are fused kernels
        config = _config(window=12, n=8, blocks=2)
        model = build_model(config, ALL_COMPONENTS, pipeline.FEATURE_COUNT)
        window = tiny_instance_window(config)
        clear_tape()
        joint_loss(model.stage2_forward(window), model.scale_targets(window.targets), model.lpo, config.lambda_prompt)
        assert tape_size() <= 40


def test_usable_cpus_is_one_where_no_child_may_start_on_another(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert pipeline.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.setattr(pipeline.multiprocessing, "current_process", lambda: SimpleNamespace(daemon=True))
    assert pipeline.usable_cpus() == 1
    monkeypatch.undo()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert pipeline.usable_cpus() == 1


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the training helper is forked")
class TestTrainingHelper:
    """A forked helper computes the windows at odd batch positions; ``_helper_can_start`` picks the path."""

    @staticmethod
    def _helper(monkeypatch, on: bool):
        monkeypatch.setattr(pipeline, "_helper_can_start", lambda: on)

    @pytest.mark.parametrize("variant,components", ablation_variants(), ids=[v for v, _ in ablation_variants()])
    def test_two_process_fits_equal_in_process_fits(self, monkeypatch, variant, components):
        # 10 training windows in batches of 9: the helper computes the second stack of four of the first batch,
        # and this process the lone window of the last one
        config = _config(batch_size=9, epochs_stage1=2)
        started = []
        init = pipeline._Helper.__init__
        monkeypatch.setattr(pipeline._Helper, "__init__", lambda self, *args: started.append(1) or init(self, *args))
        fits = {}
        for on in (True, False):
            self._helper(monkeypatch, on)
            model = pipeline.fit(_dataset(), config, components)
            fits[on] = (np.array(model.stage1_history).tobytes(), np.array(model.stage2_history).tobytes(),
                        None if model.a_star is None else model.a_star.tobytes(),
                        {name: p.data.tobytes() for name, p in model.named_parameters().items()},
                        _forecasts(model, _split(config).test))
        assert len(started) == (2 if model.uses_stage1 else 1)
        assert fits[True] == fits[False]

    @pytest.mark.parametrize("stage", [1, 2])
    def test_a_nan_helper_window_raises_the_in_process_error(self, monkeypatch, stage):
        # batches of 8: the helper computes each batch's second stack of four, and the NaN window heads it
        config = _config(batch_size=8)
        windows = _split(config).train
        fifth = int(pipeline.SeededRng(config.seed).child(f"stage{stage}/shuffle").permutation(len(windows))[4])
        windows[fifth].inputs = windows[fifth].inputs.copy()
        windows[fifth].inputs[3, 0] = np.nan
        train = pipeline.train_stage1 if stage == 1 else pipeline.train_stage2
        messages = []
        for on in (True, False):
            self._helper(monkeypatch, on)
            with pytest.raises(TrainingError, match=f"stage {stage}, epoch 0, batch 0: ") as raised:
                train(build_model(config, ALL_COMPONENTS, pipeline.FEATURE_COUNT), windows, config)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

    def test_each_two_process_batch_is_one_request_and_one_reply(self, monkeypatch):
        # 10 windows in one batch of five stacks of two: the helper computes the stacks at positions 1 and 3
        monkeypatch.setattr(pipeline, "TRAIN_STACK", 2)
        self._helper(monkeypatch, True)
        sent, received = [], []
        send, recv = pipeline._Helper.send, pipeline._Helper.recv
        monkeypatch.setattr(pipeline._Helper, "send", lambda self, message: sent.append(
            message[0] if isinstance(message, tuple) else message) or send(self, message))
        monkeypatch.setattr(pipeline._Helper, "recv", lambda self: received.append(1) or recv(self))
        pipeline.fit(_dataset(), _config(batch_size=10, epochs_stage1=2, epochs_stage2=3), ALL_COMPONENTS)
        assert sent == ["train"] * 5
        assert len(received) == 5

    def test_a_helper_that_dies_ends_the_fit_with_a_training_error(self, monkeypatch):
        self._helper(monkeypatch, True)
        forward, parent = Model.stage2_forward, os.getpid()

        def dying(model, window):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return forward(model, window)

        monkeypatch.setattr(Model, "stage2_forward", dying)
        with pytest.raises(TrainingError, match="^stage 2, epoch 0, batch 0: helper process ended with exit code -9$"):
            pipeline.fit(_dataset(), _config(batch_size=8), ALL_COMPONENTS)

    def test_a_helper_that_cannot_fork_leaves_the_fit_to_this_process(self, monkeypatch, caplog):
        fits, maps = {}, []
        real_mmap = pipeline.mmap.mmap
        for refused in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                self._helper(patch, refused)
                if refused:
                    patch.setattr(multiprocessing.get_context("fork").Process, "start", _refused_fork)
                    patch.setattr(pipeline.mmap, "mmap", lambda *args: maps.append(real_mmap(*args)) or maps[-1])
                with caplog.at_level("DEBUG", logger="kgcm.pipeline"):
                    model = pipeline.fit(_dataset(), _config(batch_size=8), ALL_COMPONENTS)
            fits[refused] = (np.array(model.stage1_history).tobytes(), np.array(model.stage2_history).tobytes(),
                             model.a_star.tobytes(),
                             {name: p.data.tobytes() for name, p in model.named_parameters().items()})
        assert fits[True] == fits[False]
        assert "helper process could not start" in caplog.text
        # one shared mapping per stage, each unmapped when its fork was refused
        assert len(maps) == 2 and all(m.closed for m in maps)

    def test_a_stage_whose_helper_a_pass_ended_finishes_in_this_process(self, monkeypatch):
        # a caller that catches the pass's HelperError and goes on training gets the one-process fit
        config = _config(batch_size=8)
        step, killed = pipeline.adam_step, []

        def step_then_kill_and_score(*args):
            step(*args)
            if not killed:
                killed.append(pipeline._helper._process.pid)
                os.kill(killed[0], signal.SIGKILL)
                with pytest.raises(HelperError, match="^helper process ended with exit code -9$"):
                    pipeline.predict_windows(model, split.val + split.test)

        fits = {}
        for on in (True, False):
            self._helper(monkeypatch, on)
            with pytest.MonkeyPatch.context() as patch:
                if on:
                    patch.setattr(pipeline, "adam_step", step_then_kill_and_score)
                model, split = pipeline.new_model(_dataset(), config, ALL_COMPONENTS)
                pipeline.train_stage1(model, split.train, config)
            fits[on] = (np.array(model.stage1_history).tobytes(), model.a_star.tobytes(),
                        {name: p.data.tobytes() for name, p in model.named_parameters().items()})
        assert len(killed) == 1
        assert fits[True] == fits[False]

    def test_a_pass_inside_a_stage_is_scored_by_the_stages_helper(self, monkeypatch):
        # item 1's validation path: after each batch's Adam step, score windows with the model being trained
        config = _config(batch_size=8)
        stages, passes = [], []
        init = pipeline._Helper.__init__
        monkeypatch.setattr(pipeline._Helper, "__init__", lambda self, *args: stages.append(self) or init(self, *args))
        step = pipeline.adam_step

        def step_then_score(*args):
            step(*args)
            scored = pipeline.predict_windows(model, split.val + split.test)
            passes.append(([f.tobytes() for f in scored], len(multiprocessing.active_children()),
                           pipeline._helper, stages[-1] if stages else None))

        fits = {}
        for on, score in ((True, True), (False, True), (True, False)):
            self._helper(monkeypatch, on)
            with pytest.MonkeyPatch.context() as patch:
                if score:
                    patch.setattr(pipeline, "adam_step", step_then_score)
                model, split = pipeline.new_model(_dataset(), config, ALL_COMPONENTS)
                pipeline.train_stage1(model, split.train, config)
                pipeline.train_stage2(model, split.train, config)
            fits[on, score] = (np.array(model.stage1_history).tobytes(), np.array(model.stage2_history).tobytes(),
                               model.a_star.tobytes(),
                               {name: p.data.tobytes() for name, p in model.named_parameters().items()})
        assert len(split.val + split.test) >= 2
        assert fits[True, True] == fits[False, True] == fits[True, False]
        with_helper, alone = passes[:len(passes) // 2], passes[len(passes) // 2:]
        assert len(with_helper) == len(alone) == 6  # 10 windows in batches of 8: 2 steps an epoch, 3 epochs
        assert len(stages) == 4  # one helper per stage, on each of the two fits with the helper on
        assert [forecasts for forecasts, *_ in with_helper] == [forecasts for forecasts, *_ in alone]
        assert all(children == 1 and live is stage for _, children, live, stage in with_helper)
        assert all(children == 0 for _, children, *_ in alone)


STACKED_SETS = {**{name: components for name, components in ablation_variants()},
                "train-text": frozenset({"ssa", "rcpg", "lpo"})}


class TestTrainingStacks:
    """A batch splits into stacks of up to ``TRAIN_STACK`` windows, one tape and one summed gradient each."""

    @staticmethod
    def _fit(monkeypatch, components, stack: int, helper: bool) -> dict[str, np.ndarray]:
        """The loss histories, the test forecasts and the parameters of a fit, by name."""
        monkeypatch.setattr(pipeline, "TRAIN_STACK", stack)
        monkeypatch.setattr(pipeline, "_helper_can_start", lambda: helper)
        # 10 windows in batches of 7: stacks of 4 and 3, the second the helper's, then one stack of 3
        config = _config(batch_size=7, epochs_stage1=2, epochs_stage2=2)
        model = pipeline.fit(_dataset(), config, components)
        return {"stage1_history": np.array(model.stage1_history), "stage2_history": np.array(model.stage2_history),
                "forecasts": np.stack([pipeline.predict(model, w) for w in _split(config).test]),
                **{name: p.data.copy() for name, p in model.named_parameters().items()}}

    @pytest.mark.parametrize("helper", [False, True], ids=["one-process", "two-process"])
    @pytest.mark.parametrize("name", list(STACKED_SETS))
    def test_a_fit_in_stacks_of_four_is_the_fit_in_stacks_of_one(self, monkeypatch, name, helper):
        # a stack sums its windows' parameter gradients in another order than the windows' own sums: measured
        # here, no array moved by more than 1e-15 of its largest entry
        if helper and "fork" not in multiprocessing.get_all_start_methods():
            helper = False  # the helper is forked; the one-process fits still compare
        one, four = (self._fit(monkeypatch, STACKED_SETS[name], stack, helper) for stack in (1, 4))
        assert four.keys() == one.keys()
        for key, want in one.items():
            assert four[key].shape == want.shape
            assert np.abs(four[key] - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0), key

    def test_the_losses_of_a_stack_are_added_in_batch_order(self, monkeypatch):
        # with the parameters held, every window's loss is bitwise the same in a stack and alone, and so is
        # each epoch's sum of them
        monkeypatch.setattr(pipeline, "adam_step", lambda *args: None)
        one, four = (self._fit(monkeypatch, STACKED_SETS["train-text"], stack, False) for stack in (1, 4))
        for key in ("stage1_history", "stage2_history"):
            assert four[key].tobytes() == one[key].tobytes()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the helper is forked")
    @pytest.mark.parametrize("name", list(STACKED_SETS))
    def test_a_fit_in_stacks_is_the_same_on_one_process_and_on_two(self, monkeypatch, name):
        one, two = (self._fit(monkeypatch, STACKED_SETS[name], 4, helper) for helper in (False, True))
        assert {key: a.tobytes() for key, a in two.items()} == {key: a.tobytes() for key, a in one.items()}

    @pytest.mark.parametrize("stage", [1, 2])
    def test_every_model_trains_in_stacks(self, monkeypatch, stage):
        # 10 windows in batches of 8: stacks of four and four, then one of two
        sizes = []
        name = f"stage{stage}_forward"
        forward = getattr(Model, name)
        monkeypatch.setattr(Model, name, lambda model, windows: sizes.append(len(windows)) or forward(model, windows))
        monkeypatch.setattr(pipeline, "_helper_can_start", lambda: False)
        config = _config(batch_size=8, epochs_stage1=1, epochs_stage2=1)
        train = pipeline.train_stage1 if stage == 1 else pipeline.train_stage2
        for components in (ALL_COMPONENTS, STACKED_SETS["train-text"]):
            windows = _split(config).train
            assert len(windows) == 10
            train(build_model(config, components, pipeline.FEATURE_COUNT), windows, config)
            assert sizes == [4, 4, 2]
            sizes.clear()

    @pytest.mark.parametrize("helper", [False, True], ids=["one-process", "two-process"])
    def test_a_stack_that_raises_raises_its_own_error_once(self, monkeypatch, tmp_path, helper):
        # batches of 8: stacks of four at batch positions 0-3 and 4-7, the second the helper's on two processes.
        # The window at position 5 has a NaN target, so its stack raises in the loss, after its forward was taped.
        # Each stage2_forward call appends to a file how many NaN windows its stack holds, so the helper's count too
        monkeypatch.setattr(pipeline, "_helper_can_start", lambda: helper)
        log, forward = tmp_path / "calls.txt", Model.stage2_forward

        def logged(model, windows):
            with open(log, "a") as fh:
                fh.write(f"{sum(bool(np.isnan(w.targets).any()) for w in windows)}\n")
            return forward(model, windows)

        monkeypatch.setattr(Model, "stage2_forward", logged)
        config = _config(batch_size=8)
        windows = _split(config).train
        order = pipeline.SeededRng(config.seed).child("stage2/shuffle").permutation(len(windows))
        bad = windows[int(order[5])]
        bad.targets = bad.targets.copy()
        bad.targets[1] = np.nan
        model = build_model(config, STACKED_SETS["train-text"], pipeline.FEATURE_COUNT)
        with pytest.raises(TrainingError, match="^stage 2, epoch 0, batch 0: ") as raised:
            pipeline.train_stage2(model, windows, config)
        assert isinstance(raised.value.__cause__, NumericError)
        assert sorted(log.read_text().split()) == ["0", "1"]  # batch 0's two stacks, each once
        assert tape_size() == 0
        log.unlink()
        # a cut window is refused before any stack runs, and names its place in the window list
        cut = len(windows) - 1
        windows[cut] = dataclasses.replace(windows[cut], inputs=windows[cut].inputs[1:])
        with pytest.raises(TrainingError, match=re.escape(f"stage 2 needs windows of one shape: window {cut} has "
                                                          "inputs (7, 5)")) as raised:
            pipeline.train_stage2(model, windows, config)
        assert isinstance(raised.value.__cause__, ShapeError)
        assert not log.exists()

    @pytest.mark.parametrize("helper", [False, True], ids=["one-process", "two-process"])
    def test_this_processs_failing_stack_raises_before_the_helpers(self, monkeypatch, helper):
        # batches of 8: the window at batch position 1 has a slot outside the table and the one at 5 a NaN input, so
        # each stack of batch 0 raises, the second in the helper on two processes
        monkeypatch.setattr(pipeline, "_helper_can_start", lambda: helper)
        config = _config(batch_size=8)
        windows = _split(config).train
        order = pipeline.SeededRng(config.seed).child("stage2/shuffle").permutation(len(windows))
        bad_slot, bad_input = windows[int(order[1])], windows[int(order[5])]
        bad_slot.slots = bad_slot.slots[:3] + [config.day_slots] + bad_slot.slots[4:]
        bad_input.inputs = bad_input.inputs.copy()
        bad_input.inputs[3, 0] = np.nan
        model = build_model(config, STACKED_SETS["train-text"], pipeline.FEATURE_COUNT)
        with pytest.raises(DataError, match=f"^time-of-day slot {config.day_slots} outside table of size "):
            pipeline.train_stage2(model, windows, config)

    @pytest.mark.parametrize("stage", [1, 2])
    def test_windows_of_two_shapes_are_refused(self, stage):
        config = _config()
        windows = _split(config).train
        windows[3] = dataclasses.replace(windows[3], inputs=windows[3].inputs[1:])
        model = build_model(config, ALL_COMPONENTS, pipeline.FEATURE_COUNT)
        train = pipeline.train_stage1 if stage == 1 else pipeline.train_stage2
        with pytest.raises(TrainingError, match=re.escape(
                f"stage {stage} needs windows of one shape: window 3 has inputs (7, 5) and targets (2,), "
                "window 0 has (8, 5) and (2,)")):
            train(model, windows, config)


def _refused_fork(process):
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the helper is forked")
def test_a_child_forked_while_the_helper_lives_does_not_hold_it_open():
    # the child must not keep the main end of the helper's pipe open, or closing the helper waits
    # HELPER_EXIT_S and kills it
    assert pipeline._start_helper({}, [], None) is not None
    context = multiprocessing.get_context("fork")
    ours, theirs = context.Pipe()
    child = context.Process(target=theirs.recv)
    child.start()
    try:
        start = time.perf_counter()
        assert pipeline._end_helper() == 0
        assert time.perf_counter() - start < pipeline.HELPER_EXIT_S / 5
    finally:
        ours.send(None)
        child.join(pipeline.HELPER_EXIT_S)
    assert child.exitcode == 0 and pipeline._helper is None


@pytest.mark.parametrize("variant, components", ablation_variants(), ids=[v for v, _ in ablation_variants()])
def test_predict_matches_the_taped_forward(variant, components):
    # predict runs under no_tape, where the graph layer keeps no backward state; n = 8 takes the short-row sums
    config = _config(n=8)
    model = pipeline.fit(_dataset(), config, components)
    for window in _split(config).test:
        taped = model.unscale_predictions(model.stage2_forward(window).data)
        assert tape_size() > 0
        clear_tape()
        assert pipeline.predict(model, window).tobytes() == taped.tobytes()
        assert tape_size() == 0


def _slot_of_day_reference(ts: datetime, slot_seconds: int) -> int:
    """The slot as datetime subtraction gives it: the reference for ``pipeline._slot_of_day``."""
    midnight = ts.replace(hour=0, minute=0, second=0, microsecond=0)
    return int((ts - midnight).total_seconds()) // slot_seconds


@settings(max_examples=500, deadline=None)
@given(ts=st.datetimes(timezones=st.one_of(
           st.just(timezone.utc),
           st.builds(timezone, st.timedeltas(min_value=timedelta(hours=-23, minutes=-59, seconds=-59),
                                             max_value=timedelta(hours=23, minutes=59, seconds=59))))),
       slot_seconds=st.sampled_from([s for s in range(1, 86401) if 86400 % s == 0]))
def test_slot_of_day_matches_datetime_subtraction(ts, slot_seconds):
    assert pipeline._slot_of_day(ts, slot_seconds) == _slot_of_day_reference(ts, slot_seconds)


class TestBuildWindows:
    def test_each_distinct_text_is_encoded_once(self, monkeypatch):
        # local and cross-region texts share one cache: a text that occurs in
        # both, such as the empty text, is encoded once
        calls = []
        real = pipeline.encode

        def counted(text, key, encoder, d):
            calls.append(text)
            return real(text, key, encoder, d)

        monkeypatch.setattr(pipeline, "encode", counted)
        config, dataset = _config(), _dataset()
        pipeline.build_windows(dataset, config)
        last = len(dataset.timestamps) - config.horizon
        texts = {region_texts[i] for region_texts in dataset.local_texts for i in range(last)}
        texts |= {dataset.global_texts[i] for i in range(config.window - 1, last)}
        assert "" in texts
        assert sorted(calls) == sorted(texts)


    @staticmethod
    def _per_window_reference(dataset, config, encoder, encode):
        """The windows built as each window encoding its own steps: the reference for build_windows."""
        t, horizon = config.window, config.horizon
        cache = {}

        def encoded(text, rec_id):
            key = text if encoder.embedding_file is None else rec_id
            if key not in cache:
                cache[key] = encode(text, key, encoder, config.d)
            return cache[key]

        out = {}
        stamps = dataset.timestamps
        for r, region in enumerate(dataset.regions):
            features = dataset.features[r]
            slots = [_slot_of_day_reference(ts, dataset.slot_seconds) for ts in stamps]
            dows = [ts.weekday() for ts in stamps]
            windows = []
            for start in range(0, len(stamps) - t - horizon + 1):
                local = [encoded(dataset.local_texts[r][i], f"{region}|{stamps[i].isoformat()}").tokens
                         for i in range(start, start + t)]
                last = start + t - 1
                pooled = encoded(dataset.global_texts[last], f"global|{stamps[last].isoformat()}").pooled
                windows.append(pipeline.SeriesWindow(
                    region=region, inputs=features[start: start + t],
                    targets=features[start + t: start + t + horizon, 0].copy(), slots=slots[start: start + t],
                    dows=dows[start: start + t], local_tokens=local, global_pooled=pooled,
                    target_times=stamps[start + t: start + t + horizon]))
            out[region] = windows
        return out

    @staticmethod
    def _file_encoder(dataset, config, read_only, path):
        """An embedding file for the dataset's step ids; ``read_only`` leaves out the steps no window reads."""
        last = len(dataset.timestamps) - config.horizon if read_only else len(dataset.timestamps)
        first_global = config.window - 1 if read_only else 0
        ids = [f"{region}|{ts.isoformat()}" for region in dataset.regions for ts in dataset.timestamps[:last]]
        ids += [f"global|{ts.isoformat()}" for ts in dataset.timestamps[first_global:last]]
        rng = np.random.default_rng(0)
        path.write_text("".join(f"{i}," + ",".join(format(v, ".17g") for v in rng.normal(size=config.d)) + "\n" for i in ids))
        return EncoderConfig(str(path))

    @pytest.mark.parametrize("mode", ["hashed", "file"])
    def test_windows_match_per_window_encoding(self, monkeypatch, tmp_path, mode):
        config = _config()
        dataset = generate_synthetic(GeneratorConfig(regions=2, days=2, slots_per_day=12, event_rate=0.3, seed=4))
        if mode == "hashed":
            encoder = EncoderConfig()
        else:
            encoder = self._file_encoder(dataset, config, False, tmp_path / "embeddings.csv")
        real = pipeline.encode
        seen = {"built": [], "reference": []}

        def recording(calls):
            def encode(text, key, enc, d):
                calls.append(key)
                return real(text, key, enc, d)
            return encode

        monkeypatch.setattr(pipeline, "encode", recording(seen["built"]))
        built = pipeline.build_windows(dataset, config, encoder)
        _assert_same_windows(built, self._per_window_reference(dataset, config, encoder, recording(seen["reference"])))
        assert len(seen["built"]) == len(set(seen["built"]))
        assert set(seen["built"]) == set(seen["reference"])

    def test_a_file_encoder_looks_up_each_read_step_once_by_its_id(self, monkeypatch, tmp_path):
        config, dataset = _config(), _dataset()
        encoder = self._file_encoder(dataset, config, False, tmp_path / "embeddings.csv")
        keys, real = [], pipeline.encode
        monkeypatch.setattr(pipeline, "encode", lambda text, key, enc, d: keys.append(key) or real(text, key, enc, d))
        pipeline.build_windows(dataset, config, encoder)
        last = len(dataset.timestamps) - config.horizon
        ids = [f"{region}|{ts.isoformat()}" for region in dataset.regions for ts in dataset.timestamps[:last]]
        ids += [f"global|{ts.isoformat()}" for ts in dataset.timestamps[config.window - 1: last]]
        assert sorted(keys) == sorted(ids)

    def test_hashed_text_is_given_no_id(self):
        # every timestamp refuses isoformat, which an embedding id is built from
        class NoIsoformat(datetime):
            def isoformat(self, *args, **kwargs):
                raise AssertionError("hashed text was given an id")

        def bare(stamps):
            return [NoIsoformat.combine(ts.date(), ts.timetz()) for ts in stamps]

        config, dataset = _config(), _dataset()
        stripped = dataclasses.replace(dataset, timestamps=bare(dataset.timestamps))
        _assert_same_windows(pipeline.build_windows(stripped, config), pipeline.build_windows(dataset, config))

    def test_a_data_set_too_short_for_a_window_encodes_nothing(self, tmp_path):
        # the embedding file is read on the first lookup, so a lookup would fail on the absent file
        encoder = EncoderConfig(str(tmp_path / "absent.csv"))
        assert pipeline.build_windows(_dataset(), _config(window=30), encoder) == {"r0": []}

    def test_windows_do_not_alias_the_data_set(self):
        config = _config()
        dataset = generate_synthetic(GeneratorConfig(regions=2, days=2, slots_per_day=12, event_rate=0.3))
        built = pipeline.build_windows(dataset, config)
        before = {region: [(w.inputs.copy(), w.targets.copy()) for w in windows] for region, windows in built.items()}
        dataset.features[:] = -1.0
        for region, windows in built.items():
            for window, (inputs, targets) in zip(windows, before[region], strict=True):
                assert window.inputs.tobytes() == inputs.tobytes()
                assert window.targets.tobytes() == targets.tobytes()

    def test_file_mode_needs_no_embedding_for_unread_steps(self, tmp_path):
        # the last horizon steps are only ever targets, so their text has no embedding to look up
        config = _config()
        dataset = _dataset()
        encoder = self._file_encoder(dataset, config, True, tmp_path / "embeddings.csv")
        windows = pipeline.build_windows(dataset, config, encoder)
        assert sum(len(w) for w in windows.values()) == len(dataset.timestamps) - config.window - config.horizon + 1


class TestComputeScaler:
    @pytest.mark.parametrize("case", ["default-data", "large-offset"])
    def test_matches_an_fsum_reference(self, case):
        if case == "default-data":
            dataset = generate_synthetic(GeneratorConfig(event_rate=0.5, seed=5))
            windows = pipeline.split_windows(pipeline.build_windows(dataset, TrainConfig())).train
        else:
            rows = np.random.default_rng(0).normal(1e3, 1.0, size=(4000, 5))
            windows = [SimpleNamespace(inputs=rows[i: i + 8]) for i in range(0, len(rows), 8)]
        rows = np.concatenate([w.inputs for w in windows])
        n = len(rows)
        # A pairwise sum of n terms errs by at most ceil(log2 n) * u * sum|x| (u = eps / 2); numpy's
        # blocked pairwise sum adds up to 16 sequential additions per block and the std a subtraction,
        # a square and a square root, so 20 more steps bound both.
        rel = (math.ceil(math.log2(n)) + 20) * np.finfo(np.float64).eps / 2
        mean, std = pipeline.compute_scaler(windows)
        for j, column in enumerate(rows.T.tolist()):
            want_mean = math.fsum(column) / n
            want_std = math.sqrt(math.fsum((x - want_mean) ** 2 for x in column) / n)
            assert abs(mean[j] - want_mean) <= rel * math.fsum(map(abs, column)) / n
            assert abs(std[j] - want_std) <= rel * want_std

    def test_a_constant_feature_is_scaled_by_one(self):
        # 3.1 does not add exactly, and the rounding noise of its mean used to be its std (4.6e-13),
        # which scaled a later 3.2 to about 2e11
        dataset = generate_synthetic(GeneratorConfig())
        dataset.features[:, :, 2] = 3.1
        windows = pipeline.split_windows(pipeline.build_windows(dataset, TrainConfig())).train
        mean, std = pipeline.compute_scaler(windows)
        assert std[2] == 0.0
        model = build_model(TrainConfig(), ALL_COMPONENTS, pipeline.FEATURE_COUNT)
        model.set_scaler(mean, std)
        assert model.scaler_std[2] == 1.0
        assert abs((3.2 - model.scaler_mean[2]) / model.scaler_std[2]) < 0.2


def _assert_same_windows(built, reference) -> None:
    assert sorted(built) == sorted(reference)
    for region in reference:
        assert len(built[region]) == len(reference[region]) > 0
        for got, want in zip(built[region], reference[region]):
            for field in dataclasses.fields(want):
                assert _same(getattr(got, field.name), getattr(want, field.name)), field.name


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _rewrite_archive(path, edit) -> None:
    """Apply ``edit`` to the model file's records, then write them back as a valid archive."""
    with np.load(path) as archive:
        members = {name: archive[name].copy() for name in archive.files}
    edit(members)
    with open(path, "wb") as fh:
        np.savez(fh, **members)


class TestModelFile:
    def test_save_load_predict_bitwise(self, tmp_path):
        model, test = _fit()
        path = tmp_path / "model.kgcm"
        pipeline.save_model(model, path)
        loaded = pipeline.load_model(path)
        assert _forecasts(loaded, test) == _forecasts(model, test)
        assert loaded.stage1_history == model.stage1_history
        assert loaded.stage2_history == model.stage2_history

    def test_a_model_that_cannot_be_reloaded_is_not_saved(self, tmp_path):
        # load_model sizes every model with FEATURE_COUNT features
        model = build_model(_config(), frozenset(), pipeline.FEATURE_COUNT - 2)
        path = tmp_path / "model.kgcm"
        with pytest.raises(ConfigError, match="features"):
            pipeline.save_model(model, path)
        assert list(tmp_path.iterdir()) == []

    def test_a_repeated_member_is_refused(self, tmp_path):
        # zipfile appends a second member of the same name, and reads the name as that later copy
        path = tmp_path / "model.kgcm"
        pipeline.save_model(build_model(_config(), ALL_COMPONENTS, pipeline.FEATURE_COUNT), path)
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, np.ones(_config().horizon))
        with warnings.catch_warnings(), zipfile.ZipFile(path, "a") as archive:
            warnings.simplefilter("ignore", UserWarning)  # "Duplicate name"
            archive.writestr("ssa/head_b.npy", buffer.getvalue())
        with pytest.raises(FormatError, match=re.escape("repeated member names ['ssa/head_b.npy']")):
            pipeline.load_model(path)

    def test_members_that_name_one_record_are_both_named(self, tmp_path):
        # np.savez writes "ssa/head_b.npy", and a member "ssa/head_b" reads as the same record
        path = tmp_path / "model.kgcm"
        pipeline.save_model(build_model(_config(), ALL_COMPONENTS, pipeline.FEATURE_COUNT), path)
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, np.ones(_config().horizon))
        with zipfile.ZipFile(path, "a") as archive:
            archive.writestr("ssa/head_b", buffer.getvalue())
        with pytest.raises(FormatError, match=re.escape("repeated member names ['ssa/head_b', 'ssa/head_b.npy']")):
            pipeline.load_model(path)

    def test_a_save_that_raises_part_way_leaves_no_file(self, tmp_path, monkeypatch):
        model = build_model(_config(), ALL_COMPONENTS, pipeline.FEATURE_COUNT)
        savez = np.savez

        def cut_short(fh, **records):
            savez(fh, **dict(list(records.items())[:3]))
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "savez", cut_short)
        with pytest.raises(OSError, match="No space left"):
            pipeline.save_model(model, tmp_path / "model.kgcm")
        assert list(tmp_path.iterdir()) == []

    @pytest.fixture
    def saved(self, tmp_path):
        model = build_model(_config(), ALL_COMPONENTS, pipeline.FEATURE_COUNT)
        model.freeze_structure(np.ones((8, 8)))
        return model, tmp_path / "model.kgcm"

    @pytest.mark.parametrize("key", ["_meta/scaler_mean", "_meta/scaler_std"])
    def test_missing_scaler_record(self, saved, key):
        model, path = saved
        pipeline.save_model(model, path)
        _rewrite_archive(path, lambda members: members.pop(key))
        with pytest.raises(FormatError, match=key):
            pipeline.load_model(path)

    @pytest.mark.parametrize("std", [0.0, -1.0])
    def test_scaler_std_must_be_positive(self, saved, std):
        # set_scaler never writes such a std; a 0 made evaluate divide by zero, a -1 served every forecast scaled by -1
        model, path = saved
        pipeline.save_model(model, path)
        spoiled = np.r_[std, np.ones(pipeline.FEATURE_COUNT - 1)]
        _rewrite_archive(path, lambda members: members.update({"_meta/scaler_std": spoiled}))
        with pytest.raises(FormatError, match="_meta/scaler_std"):
            pipeline.load_model(path)

    @pytest.mark.parametrize("key", ["lpo/w_embed", "_meta/scaler_std"])
    def test_non_finite_record(self, saved, key):
        model, path = saved
        if key.startswith("_meta/"):
            model.scaler_std = np.full(pipeline.FEATURE_COUNT, np.inf)
        else:
            model.named_parameters()[key].data[0, 0] = np.nan
        pipeline.save_model(model, path)
        with pytest.raises(FormatError, match="non-finite"):
            pipeline.load_model(path)

    @pytest.mark.parametrize("key", ["_meta/history_stage1", "_meta/history_stage2"])
    def test_loss_history_must_be_one_dimensional(self, saved, monkeypatch, key):
        # a (1, 2) history loaded as a list of arrays, and `train --stage 2` then failed to print it
        model, path = saved
        meta = pipeline._meta_records
        monkeypatch.setattr(pipeline, "_meta_records", lambda m: {**meta(m), key: np.ones((1, 2))})
        pipeline.save_model(model, path)
        with pytest.raises(FormatError, match=key):
            pipeline.load_model(path)

    def test_config_record_with_heads_and_pooling_is_refused(self, saved):
        # earlier versions wrote both keys under [model]; they are no longer settings
        model, path = saved
        pipeline.save_model(model, path)

        def add_removed_keys(members):
            text = members[pipeline.CONFIG_RECORD].tobytes().decode("utf-8")
            text = text.replace("\nwindow = ", "\nheads = 1\nwindow = ").replace("\ncomponents = ",
                                                                                 "\npooling = last\ncomponents = ")
            members[pipeline.CONFIG_RECORD] = np.frombuffer(text.encode("utf-8"), np.uint8)

        _rewrite_archive(path, add_removed_keys)
        with pytest.raises(FormatError, match="unknown key model.heads$"):
            pipeline.load_model(path)

    def test_invalid_utf8_config(self, saved):
        model, path = saved
        pipeline.save_model(model, path)

        def spoil(members):
            members[pipeline.CONFIG_RECORD][-2] = 0xFF

        _rewrite_archive(path, spoil)
        with pytest.raises(FormatError, match="UTF-8"):
            pipeline.load_model(path)

    @pytest.mark.parametrize("edit", [(b"'shape': (", b"'shape': ,"), (b"(5,)", b"(10000000000000,)")],
                             ids=["unparsable-header", "huge-shape"])
    def test_npy_header_under_a_valid_crc(self, saved, edit):
        # a rewritten member keeps a valid CRC-32, so numpy parses its header
        model, path = saved
        pipeline.save_model(model, path)
        with zipfile.ZipFile(path) as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        members["_meta/scaler_mean.npy"] = members["_meta/scaler_mean.npy"].replace(*edit, 1)
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in members.items():
                archive.writestr(name, data)
        with pytest.raises(FormatError, match="intact"):
            pipeline.load_model(path)

    def test_fit_records_the_file_encoder(self, tmp_path):
        # a programmatic fit on file embeddings must save its [text] embedding_file, not load back as hashed
        dataset = _dataset()
        ids = [f"{region}|{ts.isoformat()}" for region in dataset.regions for ts in dataset.timestamps]
        ids += [f"global|{ts.isoformat()}" for ts in dataset.timestamps]
        rng = np.random.default_rng(0)
        table = tmp_path / "embeddings.csv"
        table.write_text("".join(f"{i}," + ",".join(f"{v:.6f}" for v in rng.normal(size=8)) + "\n" for i in ids))
        model = pipeline.fit(dataset, _config(epochs_stage2=1), ALL_COMPONENTS, EncoderConfig(str(table)))
        path = tmp_path / "model.kgcm"
        pipeline.save_model(model, path)
        loaded = pipeline.load_model(path)
        assert loaded.encoder == EncoderConfig(str(table))


def _damageable_model() -> tuple:
    """An all-five model with a frozen relation matrix and loss histories, and its model file's bytes.

    The 600-epoch stage-2 history is a member longer than zipfile's 4,096-byte
    read, so a reader that stops where its npy header's shape ends skips the
    member's CRC-32 check.
    """
    model = build_model(tiny_instance_config(), ALL_COMPONENTS, pipeline.FEATURE_COUNT)
    model.freeze_structure(np.ones((4, 4)))
    rng = np.random.default_rng(0)
    model.stage1_history = list(rng.normal(size=3))
    model.stage2_history = list(rng.normal(size=600))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.kgcm"
        pipeline.save_model(model, path)
        return model, path.read_bytes()


def _carried(model) -> list:
    """All a model file carries: parameters, scaler, loss histories, relation matrix and config."""
    params = model.named_parameters()
    return [list(params), [t.data for t in params.values()], model.scaler_mean, model.scaler_std,
            np.array(model.stage1_history), np.array(model.stage2_history), model.a_star,
            render_model_config(model.config, model.components, model.encoder.embedding_file)]


MODEL, MODEL_BLOB = _damageable_model()
damage = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, len(MODEL_BLOB) - 1), st.just(0)),
    st.tuples(st.just("flip"), st.integers(0, len(MODEL_BLOB) - 1), st.integers(0, 7)),
)


def damaged_model_blob(kind: str, index: int, bit: int) -> bytes:
    if kind == "truncate":
        return MODEL_BLOB[:index]
    blob = bytearray(MODEL_BLOB)
    blob[index] ^= 1 << bit
    return bytes(blob)


@settings(max_examples=400, deadline=None)
@given(damage=damage)
@example(damage=("flip", 9, 0))  # the first local header's compression method, which zipfile does not read
@example(damage=("flip", MODEL_BLOB.index(b"(600,)") + 1, 2))  # the history's npy header now says (200,)
# the high byte of the central directory's comment length for scaler_std: the entries after it read as its comment
@example(damage=("flip", MODEL_BLOB.rindex(b"_meta/scaler_std.npy") - 13, 0))
def test_a_damaged_model_file_loads_or_raises_format_error(tmp_path_factory, damage):
    path = tmp_path_factory.getbasetemp() / "damaged.kgcm"
    path.write_bytes(damaged_model_blob(*damage))
    try:
        loaded = pipeline.load_model(path)
    except FormatError:
        return
    assert _same(_carried(loaded), _carried(MODEL))


class TestSplitWindows:
    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 300), horizon=st.integers(1, 24))
    def test_rejects_exactly_the_splits_whose_test_targets_are_training_targets(self, k, horizon):
        windows = [SimpleNamespace(targets=np.zeros(horizon), target_times=list(range(s, s + horizon)))
                   for s in range(k)]
        n_train, n_val = max(1, int(k * pipeline.TRAIN_FRACTION)), int(k * pipeline.VAL_FRACTION)
        train = {t for w in windows[:n_train] for t in w.target_times}
        test = {t for w in windows[n_train + n_val:] for t in w.target_times}
        if train & test:
            with pytest.raises(DataError, match=f"{horizon}-step horizon needs {horizon - 1}"):
                pipeline.split_windows({"r": windows})
        else:
            assert len(pipeline.split_windows({"r": windows}).test) == k - n_train - n_val

    def test_default_data_at_two_days_is_refused(self):
        # 25 / 5 / 7 windows per region: 9 test target slots per region were also training targets
        per_region = pipeline.build_windows(generate_synthetic(GeneratorConfig(days=2)), TrainConfig())
        with pytest.raises(DataError, match="5 validation windows"):
            pipeline.split_windows(per_region)

    @pytest.mark.parametrize("days", [3, 6])
    def test_default_data_shares_no_target_slot(self, days):
        split = pipeline.split_windows(pipeline.build_windows(generate_synthetic(GeneratorConfig(days=days)),
                                                              TrainConfig()))
        train = {(w.region, t) for w in split.train for t in w.target_times}
        test = {(w.region, t) for w in split.test for t in w.target_times}
        assert split.test and not train & test


def test_only_pipeline_builds_windows():
    # every window set a model sees comes from pipeline.new_model or pipeline.model_split
    names = {"build_windows", "split_windows"}
    found = []
    for path in sorted(Path(pipeline.__file__).parent.glob("*.py")):
        if path.name == "pipeline.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used = {node.id}
            elif isinstance(node, ast.Attribute):
                used = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                used = {alias.name for alias in node.names}
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in used & names]
    assert found == []


def test_new_model_needs_a_training_window():
    with pytest.raises(TrainingError, match="no training windows"):
        pipeline.new_model(_dataset(), _config(window=30))
