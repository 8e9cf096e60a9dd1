"""Two-stage training orchestration, prediction, and model persistence.

Stage 1 fits the local fusion and graph parameters against a one-step-ahead
auxiliary head, then freezes the epoch-averaged relation matrix. Stage 2
trains the whole value path end to end under the joint objective with that
matrix held fixed. Both stages run the same minibatch loop and are
deterministic given the config seed.

Every window set a model sees is built here: ``new_model`` with a new model,
which records its text encoder, and ``model_split`` as a model recorded.
"""

from __future__ import annotations

import io
import logging
import os
import tokenize
import zipfile
from dataclasses import dataclass
from datetime import datetime
from typing import Callable

import numpy as np

from .data import DemandDataset
from .errors import ConfigError, DataError, FormatError, NumericError, TrainingError
from .model import ALL_COMPONENTS, Model, SeriesWindow, TrainConfig, build_model, joint_loss
from .numeric import SeededRng, Tensor, backward, clear_tape, no_tape
from .optim import AdamState, adam_step
from .text import EncoderConfig, TextRecord, TokenEmbeddings, encode

log = logging.getLogger(__name__)

__all__ = [
    "SplitWindows",
    "build_windows",
    "split_windows",
    "compute_scaler",
    "new_model",
    "model_split",
    "train_stage1",
    "train_stage2",
    "fit",
    "predict",
    "save_model",
    "load_model",
]

FEATURE_COUNT = 5  # demand, avg_passengers, avg_distance, is_holiday, is_weekend

TRAIN_FRACTION = 0.70
VAL_FRACTION = 0.15


def _slot_of_day(ts: datetime, slot_seconds: int) -> int:
    midnight = ts.replace(hour=0, minute=0, second=0, microsecond=0)
    return int((ts - midnight).total_seconds()) // slot_seconds


def build_windows(dataset: DemandDataset, config: TrainConfig,
                  encoder: EncoderConfig = EncoderConfig()) -> dict[str, list[SeriesWindow]]:
    """Stride-1 windows per region with text vectors pre-encoded by ``encoder``.

    Each step's text is encoded once, when the first window that reads the
    step is built, and every window slices its steps' token rows from that
    list; steps that no window reads are not encoded.
    """
    t, horizon = config.window, config.horizon
    cache: dict[str, TokenEmbeddings] = {}

    def encoded(text: str, rec_id: str) -> TokenEmbeddings:
        key = text if encoder.embedding_file is None else rec_id
        if key not in cache:
            cache[key] = encode(TextRecord(text, id=rec_id), encoder, config.d)
        return cache[key]

    out: dict[str, list[SeriesWindow]] = {}
    for series in dataset.regions:
        total = len(series.timestamps)
        features = np.column_stack(
            [series.demand, series.passengers, series.distance,
             series.is_holiday.astype(np.float64), series.is_weekend.astype(np.float64)]
        )
        slots = [_slot_of_day(ts, dataset.slot_seconds) for ts in series.timestamps]
        dows = [ts.weekday() for ts in series.timestamps]
        for s in slots:
            if s >= config.day_slots:
                raise ConfigError(
                    f"dataset has {dataset.slots_per_day} slots per day but the model tables cover {config.day_slots}"
                )
        windows = []
        local: list[np.ndarray] = []  # token rows of each step, encoded when a window first reads it
        for start in range(0, total - t - horizon + 1):
            while len(local) < start + t:
                i = len(local)
                local.append(encoded(series.local_texts[i], f"{series.region}|{series.timestamps[i].isoformat()}").tokens)
            last_input = start + t - 1
            pooled = encoded(
                dataset.global_texts[last_input], f"global|{dataset.timestamps[last_input].isoformat()}"
            ).pooled
            if pooled.shape != (config.d,):
                raise ConfigError(f"text vectors have dimension {pooled.shape[0]}, model expects {config.d}")
            windows.append(
                SeriesWindow(
                    region=series.region,
                    inputs=features[start: start + t],
                    targets=series.demand[start + t: start + t + horizon].copy(),
                    slots=slots[start: start + t],
                    dows=dows[start: start + t],
                    local_tokens=local[start: start + t],
                    global_pooled=pooled,
                    target_times=series.timestamps[start + t: start + t + horizon],
                )
            )
        out[series.region] = windows
    return out


@dataclass
class SplitWindows:
    train: list[SeriesWindow]
    val: list[SeriesWindow]
    test: list[SeriesWindow]


def split_windows(per_region: dict[str, list[SeriesWindow]]) -> SplitWindows:
    """Chronological 70/15/15 split of each region's window list.

    Stride-1 windows with an h-step horizon share target slots with their
    next h - 1 windows, so a region with test windows needs at least h - 1
    validation windows between its train and test splits; fewer raise
    ``DataError``, since test targets would then also be training targets.
    """
    train: list[SeriesWindow] = []
    val: list[SeriesWindow] = []
    test: list[SeriesWindow] = []
    for region in sorted(per_region):
        windows = per_region[region]
        k = len(windows)
        n_train = max(1, int(k * TRAIN_FRACTION))
        n_val = int(k * VAL_FRACTION)
        horizon = len(windows[0].targets) if windows else 0
        if k > n_train + n_val and n_val < horizon - 1:
            raise DataError(f"region {region}: {n_val} validation windows leave test targets among the training "
                            f"targets; a {horizon}-step horizon needs {horizon - 1}")
        train.extend(windows[:n_train])
        val.extend(windows[n_train: n_train + n_val])
        test.extend(windows[n_train + n_val:])
    return SplitWindows(train=train, val=val, test=test)


def compute_scaler(windows: list[SeriesWindow]) -> tuple[np.ndarray, np.ndarray]:
    rows = np.concatenate([w.inputs for w in windows], axis=0)
    return rows.mean(axis=0), rows.std(axis=0)


def _chunks(order: np.ndarray, size: int):
    for i in range(0, len(order), size):
        yield order[i: i + size]


def _accumulate(model_params: dict, grads_by_tensor: dict, sums: dict[str, np.ndarray]) -> None:
    for name, tensor in model_params.items():
        g = grads_by_tensor.get(tensor)
        if g is None:
            continue
        if name in sums:
            sums[name] = sums[name] + g
        else:
            sums[name] = g


def _batch_grads(params: dict, sums: dict[str, np.ndarray], batch_size: int) -> dict[str, np.ndarray]:
    return {
        k: (sums[k] / batch_size if k in sums else np.zeros_like(params[k].data))
        for k in params
    }


def _train_epochs(model: Model, windows: list[SeriesWindow], config: TrainConfig, stage: int,
                  window_loss: Callable[[SeriesWindow, int], Tensor]) -> None:
    """The minibatch loop both stages share.

    Every epoch shuffles the windows with the stage's own random stream. Each
    batch backpropagates ``window_loss(window, epoch)`` window by window and
    takes one Adam step on the stage's parameters with the mean gradient. The
    epoch's mean loss is appended to the stage's history.
    """
    if not windows:
        raise TrainingError(f"stage {stage} needs a nonempty training set")
    if stage == 1:
        params, history, epochs = model.stage1_parameters(), model.stage1_history, config.epochs_stage1
    else:
        params, history, epochs = model.stage2_parameters(), model.stage2_history, config.epochs_stage2
    adam = AdamState(lr=config.lr, clip_norm=config.clip_norm)
    shuffle = SeededRng(config.seed).child(f"stage{stage}/shuffle")
    for epoch in range(epochs):
        order = shuffle.permutation(len(windows))
        loss_total = 0.0
        for batch_no, batch in enumerate(_chunks(order, config.batch_size)):
            sums: dict[str, np.ndarray] = {}
            try:
                for idx in batch:
                    loss = window_loss(windows[idx], epoch)
                    loss_total += loss.item()
                    _accumulate(params, backward(loss), sums)
                adam_step(adam, params, _batch_grads(params, sums, len(batch)))
            except NumericError as exc:
                raise TrainingError(f"stage {stage}, epoch {epoch}, batch {batch_no}: {exc}") from exc
        history.append(loss_total / len(windows))


def train_stage1(model: Model, windows: list[SeriesWindow], config: TrainConfig) -> None:
    """Fit fusion + graph weights on the auxiliary objective; freeze the matrix.

    The frozen matrix is the mean of the last graph layer's final smoothed
    matrix over the last epoch's windows. ``model.pad_events`` grows by the
    padded history slots the stage lifted: those of every step with the
    graph, of the last step without it, per window and epoch.
    """
    if not model.uses_stage1:
        raise TrainingError("stage 1 requires the graph or local-text component")
    matrix_sum = np.zeros((config.d, config.d))

    def window_loss(window: SeriesWindow, epoch: int) -> Tensor:
        nonlocal matrix_sum
        loss, matrix = model.stage1_forward(window)
        if epoch == config.epochs_stage1 - 1 and matrix is not None:
            matrix_sum += matrix
        return loss

    _train_epochs(model, windows, config, 1, window_loss)
    t_steps = windows[0].inputs.shape[0]
    lifted = range(t_steps) if model.dgso is not None else [t_steps - 1]
    model.pad_events += sum(max(0, config.n - 1 - t) for t in lifted) * config.epochs_stage1 * len(windows)
    if model.dgso is not None:
        model.freeze_structure(matrix_sum / len(windows))
    if model.pad_events:
        log.debug("stage 1 padded %d short history lifts", model.pad_events)


def train_stage2(model: Model, windows: list[SeriesWindow], config: TrainConfig) -> None:
    """End-to-end training of the full value path under the joint objective."""
    frozen_bytes = model.a_star.tobytes() if model.a_star is not None else None

    def window_loss(window: SeriesWindow, epoch: int) -> Tensor:
        return joint_loss(model.stage2_forward(window), model.scale_targets(window.targets), model.lpo,
                          config.lambda_prompt)

    _train_epochs(model, windows, config, 2, window_loss)
    if frozen_bytes is not None and model.a_star.tobytes() != frozen_bytes:
        raise TrainingError("frozen relation matrix changed during stage 2")


def new_model(dataset: DemandDataset, config: TrainConfig, components: frozenset[str] = ALL_COMPONENTS,
              encoder: EncoderConfig = EncoderConfig()) -> tuple[Model, SplitWindows]:
    """An untrained model for ``dataset``, scaled to its train split, and that split.

    The model records ``encoder``, so ``model_split`` and its model file
    encode text as its training windows were encoded.
    """
    split = split_windows(build_windows(dataset, config, encoder))
    if not split.train:
        raise TrainingError("no training windows can be constructed from this dataset")
    model = build_model(config, components, FEATURE_COUNT)
    model.encoder = encoder
    model.set_scaler(*compute_scaler(split.train))
    return model, split


def model_split(model: Model, dataset: DemandDataset) -> SplitWindows:
    """The split of ``dataset``'s windows, with text encoded as ``model`` recorded."""
    return split_windows(build_windows(dataset, model.config, model.encoder))


def fit(dataset: DemandDataset, config: TrainConfig, components: frozenset[str] = ALL_COMPONENTS,
        encoder: EncoderConfig = EncoderConfig()) -> Model:
    """``new_model``, then both stages over its train split; returns the trained model."""
    model, split = new_model(dataset, config, components, encoder)
    clear_tape()
    if model.uses_stage1:
        train_stage1(model, split.train, config)
    train_stage2(model, split.train, config)
    return model


def predict(model: Model, window: SeriesWindow) -> np.ndarray:
    """Forecast in demand units for one window."""
    with no_tape():
        return model.unscale_predictions(model.stage2_forward(window).data)


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------

CONFIG_RECORD = "_meta/config"


def _meta_records(model: Model) -> dict[str, np.ndarray]:
    from .configio import render_model_config

    config_text = render_model_config(model.config, model.components, model.encoder.embedding_file)
    return {
        CONFIG_RECORD: np.frombuffer(config_text.encode("utf-8"), dtype=np.uint8),
        "_meta/scaler_mean": model.scaler_mean,
        "_meta/scaler_std": model.scaler_std,
        "_meta/a_star": np.zeros((0, 0)) if model.a_star is None else model.a_star,
        "_meta/history_stage1": np.array(model.stage1_history, dtype=np.float64),
        "_meta/history_stage2": np.array(model.stage2_history, dtype=np.float64),
    }


def save_model(model: Model, path) -> None:
    """Write ``model`` as one uncompressed numpy archive (``np.savez``).

    The archive holds one float64 member per parameter, named as
    ``Model.named_parameters`` names it, and the ``_meta/`` members:
    ``scaler_mean`` and ``scaler_std``; ``a_star``, 0 x 0 until stage 1
    freezes the relation matrix; ``history_stage1`` and ``history_stage2``,
    one loss per epoch; and ``config``, the rendered model config as UTF-8
    ``uint8`` bytes. Every member is always written, and zip keeps a CRC-32
    of each. The archive is written under a temporary name and renamed into
    place.

    Raises ``ConfigError``, and writes nothing, for a model over other than
    ``FEATURE_COUNT`` features: a model file is always read back with that
    many.
    """
    if model.feature_count != FEATURE_COUNT:
        raise ConfigError(f"a model over {model.feature_count} features cannot be saved: model files hold "
                          f"{FEATURE_COUNT}")
    records = {name: t.data for name, t in model.named_parameters().items()}
    records.update(_meta_records(model))
    tmp = f"{path}.tmp"
    # through the handle, since np.savez appends ".npz" to a path without it
    with open(tmp, "wb") as fh:
        np.savez(fh, **records)
    os.replace(tmp, path)


def load_model(path) -> Model:
    """Read a model file, rejecting any archive ``save_model`` could not have written.

    An unreadable path raises ``OSError``. ``FormatError`` is raised for
    bytes that are not an intact numpy archive, a member among them that
    fails its CRC-32 check; for a record other than the config that is not
    finite float64; for a config that is not UTF-8 or does not parse; for
    record names other than those ``save_model`` writes for the config's
    model, or parameter shapes other than its own; and for a mis-shaped
    scaler, a scaler std not above zero, a loss history that is not
    one-dimensional, or a relation matrix that is neither 0 x 0 nor d x d
    and row-stochastic.
    """
    from .configio import parse_config_text

    with open(path, "rb") as fh:  # outside the try, so an unreadable path stays an OSError
        blob = fh.read()
    try:
        with zipfile.ZipFile(io.BytesIO(blob)) as archive:
            # each member is read whole, since zipfile checks its CRC-32 only where a read reaches its end
            records = {name.removesuffix(".npy"): np.lib.format.read_array(io.BytesIO(archive.read(name)))
                       for name in archive.namelist()}
    except (zipfile.BadZipFile, EOFError, NotImplementedError, RuntimeError, ValueError, OSError,
            tokenize.TokenError, MemoryError) as exc:
        # a bad directory or CRC, a cut-off member, a compression or encryption flag, a bad offset, or an
        # npy header that does not parse or gives a shape too large to allocate
        raise FormatError(f"{path}: not an intact model archive: {exc}") from exc
    for name, arr in records.items():
        kind = np.dtype(np.uint8 if name == CONFIG_RECORD else np.float64)
        if arr.dtype != kind:
            raise FormatError(f"{path}: record {name} is not a {kind} array")
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: record {name} holds non-finite values")
    if CONFIG_RECORD not in records:
        raise FormatError(f"{path}: record {CONFIG_RECORD} is missing")
    try:
        parsed = parse_config_text(records[CONFIG_RECORD].tobytes().decode("utf-8"))
        model = build_model(parsed.train, parsed.components, FEATURE_COUNT)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: model config is not UTF-8 text") from exc
    except ConfigError as exc:
        raise FormatError(f"{path}: invalid model config: {exc}") from exc
    config = parsed.train
    model.encoder = parsed.encoder
    params = model.named_parameters()
    # a damaged central directory can drop members without a zip error
    expected = set(params) | set(_meta_records(model))
    if set(records) != expected:
        missing = sorted(expected - set(records))
        extra = sorted(set(records) - expected)
        raise FormatError(f"{path}: record names disagree (missing {missing}, extra {extra})")
    for name, param in params.items():
        if param.data.shape != records[name].shape:
            raise FormatError(f"{path}: record {name} has shape {records[name].shape}, expected {param.data.shape}")
        param.data = records[name]
    a_star = records["_meta/a_star"]
    if a_star.shape != (0, 0):  # 0 x 0 until stage 1 freezes the matrix
        if a_star.shape != (config.d, config.d):
            raise FormatError(f"{path}: relation matrix has shape {a_star.shape}, expected ({config.d}, {config.d})")
        if (a_star < 0).any() or np.abs(a_star.sum(axis=1) - 1.0).max() > 1e-9:
            raise FormatError(f"{path}: relation matrix is not row-stochastic")
        a_star.setflags(write=False)
        model.a_star = a_star
    for key in ("_meta/scaler_mean", "_meta/scaler_std"):
        if records[key].shape != (FEATURE_COUNT,):
            raise FormatError(f"{path}: record {key} has shape {records[key].shape}, expected ({FEATURE_COUNT},)")
    if (records["_meta/scaler_std"] <= 0.0).any():  # set_scaler writes 1 for a constant feature
        raise FormatError(f"{path}: record _meta/scaler_std holds values <= 0")
    for key in ("_meta/history_stage1", "_meta/history_stage2"):
        if records[key].ndim != 1:
            raise FormatError(f"{path}: record {key} has shape {records[key].shape}, expected one loss per epoch")
    model.scaler_mean = records["_meta/scaler_mean"]
    model.scaler_std = records["_meta/scaler_std"]
    model.stage1_history = list(records["_meta/history_stage1"])
    model.stage2_history = list(records["_meta/history_stage2"])
    return model
