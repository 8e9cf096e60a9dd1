import ast
import dataclasses
import tempfile
import zipfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgcm import pipeline
from kgcm.configio import render_model_config
from kgcm.data import GeneratorConfig, generate_synthetic
from kgcm.errors import ConfigError, DataError, FormatError, TrainingError
from kgcm.evaluate import ablation_variants
from kgcm.gradcheck import tiny_instance_config, tiny_instance_window
from kgcm.model import ALL_COMPONENTS, TrainConfig, build_model
from kgcm.model import joint_loss
from kgcm.numeric import clear_tape, tape_size
from kgcm.text import EncoderConfig, TextRecord


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

    def test_frozen_matrix_is_last_epoch_mean(self):
        config = _config(epochs_stage1=2)
        windows = _split(config).train
        model = build_model(config, ALL_COMPONENTS, pipeline.FEATURE_COUNT)
        matrices = []
        forward = model.stage1_forward

        def recording(window):
            loss, matrix = forward(window)
            matrices.append(matrix.copy())
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


class TestBuildWindows:
    def test_each_distinct_text_is_encoded_once(self, monkeypatch):
        # local and cross-region texts share one cache: a text that occurs in
        # both, such as the empty text, is encoded once
        calls = []
        real = pipeline.encode

        def counted(record, encoder, d):
            calls.append(record.text)
            return real(record, encoder, d)

        monkeypatch.setattr(pipeline, "encode", counted)
        config, dataset = _config(), _dataset()
        pipeline.build_windows(dataset, config)
        last = len(dataset.timestamps) - config.horizon
        texts = {series.local_texts[i] for series in dataset.regions for i in range(last)}
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
                cache[key] = encode(TextRecord(text, id=rec_id), encoder, config.d)
            return cache[key]

        out = {}
        for series in dataset.regions:
            features = np.column_stack([series.demand, series.passengers, series.distance,
                                        series.is_holiday.astype(np.float64), series.is_weekend.astype(np.float64)])
            slots = [pipeline._slot_of_day(ts, dataset.slot_seconds) for ts in series.timestamps]
            dows = [ts.weekday() for ts in series.timestamps]
            windows = []
            for start in range(0, len(series.timestamps) - t - horizon + 1):
                local = [encoded(series.local_texts[i], f"{series.region}|{series.timestamps[i].isoformat()}").tokens
                         for i in range(start, start + t)]
                last = start + t - 1
                pooled = encoded(dataset.global_texts[last], f"global|{dataset.timestamps[last].isoformat()}").pooled
                windows.append(pipeline.SeriesWindow(
                    region=series.region, inputs=features[start: start + t],
                    targets=series.demand[start + t: start + t + horizon].copy(), slots=slots[start: start + t],
                    dows=dows[start: start + t], local_tokens=local, global_pooled=pooled,
                    target_times=series.timestamps[start + t: start + t + horizon]))
            out[series.region] = windows
        return out

    @staticmethod
    def _file_encoder(dataset, config, read_only, path):
        """An embedding file for the dataset's step ids; ``read_only`` leaves out the steps no window reads."""
        last = len(dataset.timestamps) - config.horizon if read_only else len(dataset.timestamps)
        first_global = config.window - 1 if read_only else 0
        ids = [f"{series.region}|{ts.isoformat()}" for series in dataset.regions for ts in series.timestamps[:last]]
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
            def encode(record, enc, d):
                calls.append(record.id)
                return real(record, enc, d)
            return encode

        monkeypatch.setattr(pipeline, "encode", recording(seen["built"]))
        built = pipeline.build_windows(dataset, config, encoder)
        reference = self._per_window_reference(dataset, config, encoder, recording(seen["reference"]))
        assert sorted(built) == sorted(reference)
        for region in reference:
            assert len(built[region]) == len(reference[region]) > 0
            for got, want in zip(built[region], reference[region]):
                for field in dataclasses.fields(want):
                    assert _same(getattr(got, field.name), getattr(want, field.name)), field.name
        assert len(seen["built"]) == len(set(seen["built"]))
        assert set(seen["built"]) == set(seen["reference"])

    def test_file_mode_needs_no_embedding_for_unread_steps(self, tmp_path):
        # the last horizon steps are only ever targets, so their text has no embedding to look up
        config = _config()
        dataset = _dataset()
        encoder = self._file_encoder(dataset, config, True, tmp_path / "embeddings.csv")
        windows = pipeline.build_windows(dataset, config, encoder)
        assert sum(len(w) for w in windows.values()) == len(dataset.timestamps) - config.window - config.horizon + 1


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
        # a programmatic fit on file embeddings must save [text] encoder = file, not hashed
        dataset = _dataset()
        ids = [f"{s.region}|{ts.isoformat()}" for s in dataset.regions for ts in s.timestamps]
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
