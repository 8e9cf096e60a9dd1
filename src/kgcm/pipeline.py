"""Two-stage training orchestration, prediction, and model persistence.

Stage 1 fits the local fusion and graph parameters against a one-step-ahead
auxiliary head, then freezes the epoch-averaged relation matrix. Stage 2
trains the whole value path end to end under the joint objective with that
matrix held fixed. Both stages run the same minibatch loop and are
deterministic given the config seed. A batch splits into stacks of up to
``TRAIN_STACK`` consecutive windows (one window for a model with the
graph), one taped pass and one summed gradient each. Where a second CPU
and ``fork`` are there, this process has at most one forked helper
process. Each stage forks its own, which computes every other stack of
each batch, and this process adds every stack's losses and gradients in
stack order, so the trained model is bitwise the same either way; the
stage ends it when it returns.
``predict_windows`` splits a window set the same way: the helper, the
stage's or, outside a stage, one forked by the first two-process pass and
kept for later ones, forecasts the windows at odd positions and is sent the
model and its windows pickled. Each process runs its share in chunks
of ``SCORE_CHUNK`` windows, one untaped stacked value-path pass per chunk
(``Model.stage2_values``) whose graph pass runs on stacks of
``model.GRAPH_STACK`` windows, and each forecast is bitwise the one
``predict`` gives. A helper that cannot be forked leaves the work to this
process.

Every window set a model sees is built here: ``new_model`` with a new model,
which records its text encoder, and ``model_split`` as a model recorded.
"""

from __future__ import annotations

import atexit
import io
import logging
import mmap
import multiprocessing
import os
import signal
import tokenize
import zipfile
from dataclasses import dataclass
from datetime import datetime
from multiprocessing.connection import Connection
from typing import Callable

import numpy as np

from .data import FEATURES, DemandDataset, atomic_open
from .errors import ConfigError, DataError, FormatError, HelperError, NumericError, TrainingError
from .model import ALL_COMPONENTS, Model, SeriesWindow, TrainConfig, build_model, joint_loss
from .numeric import SeededRng, Tensor, backward, clear_tape, no_tape
from .optim import AdamState, adam_step
from .text import EncoderConfig, TokenEmbeddings, embedding_id, encode

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
    "predict_windows",
    "save_model",
    "load_model",
]

FEATURE_COUNT = len(FEATURES)

TRAIN_FRACTION = 0.70
VAL_FRACTION = 0.15


def _slot_of_day(ts: datetime, slot_seconds: int) -> int:
    return (ts.hour * 3600 + ts.minute * 60 + ts.second) // slot_seconds


def build_windows(dataset: DemandDataset, config: TrainConfig,
                  encoder: EncoderConfig = EncoderConfig()) -> dict[str, list[SeriesWindow]]:
    """Stride-1 windows per region with text vectors pre-encoded by ``encoder``.

    Slots of the day, weekdays and the pooled vector of each global slot
    that ends a window are computed once, on the data set's one time axis,
    and the windows of every region that end at a slot share them. Each
    step that some window reads is encoded once, and every window slices
    its steps' token rows from that list; steps that no window reads are
    not encoded. Hashed text is cached by the text itself, so a step is
    given its ``embedding_id`` only when a file encoder looks it up. A
    vector's width is checked once, when its text is first encoded. The
    windows of a region slice their inputs from one copy of its features
    and their targets from one copy of its demand, so no window aliases
    the data set.
    """
    t, horizon = config.window, config.horizon
    hashed = encoder.embedding_file is None
    cache: dict[str, TokenEmbeddings] = {}

    def encoded(text: str, source: str, ts: datetime) -> TokenEmbeddings:
        key = text if hashed else embedding_id(source, ts)
        if key not in cache:
            vectors = encode(text, key, encoder, config.d)
            if vectors.pooled.shape != (config.d,):
                raise ConfigError(f"text vectors have dimension {vectors.pooled.shape[0]}, model expects {config.d}")
            cache[key] = vectors
        return cache[key]

    stamps = dataset.timestamps
    count = len(stamps) - t - horizon + 1  # windows per region
    read = count + t - 1 if count > 0 else 0  # steps the windows read as inputs
    slots = [_slot_of_day(ts, dataset.slot_seconds) for ts in stamps]
    dows = [ts.weekday() for ts in stamps]
    if max(slots, default=0) >= config.day_slots:
        raise ConfigError(f"dataset has {dataset.slots_per_day} slots per day but the model tables cover {config.day_slots}")
    # pooled vector of global slot t - 1 + i, the last input of window i
    pooled = [encoded(dataset.global_texts[i], "global", stamps[i]).pooled for i in range(t - 1, read)]
    out: dict[str, list[SeriesWindow]] = {}
    for region, region_texts, region_features in zip(dataset.regions, dataset.local_texts, dataset.features):
        local = [encoded(region_texts[i], region, stamps[i]).tokens for i in range(read)]
        features = region_features.copy()  # windows must not alias the data set
        demand = features[:, 0].copy()
        out[region] = [
            SeriesWindow(
                region=region,
                inputs=features[start: start + t],
                targets=demand[start + t: start + t + horizon],
                slots=slots[start: start + t],
                dows=dows[start: start + t],
                local_tokens=local[start: start + t],
                global_pooled=pooled[start],
                target_times=stamps[start + t: start + t + horizon],
            )
            for start in range(count)
        ]
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
    """Per-feature mean and std over every input row of ``windows``.

    The rows are reduced as their (F, N) transpose, so each feature's sums
    run along one contiguous row, which numpy adds pairwise; along axis 0
    of the (N, F) rows it adds row by row. A feature whose maximum equals
    its minimum gets std 0, not the rounding noise of its mean, so
    ``Model.set_scaler`` divides it by 1.
    """
    columns = np.concatenate([w.inputs for w in windows], axis=0).T.copy()
    std = columns.std(axis=1)
    std[columns.max(axis=1) == columns.min(axis=1)] = 0.0
    return columns.mean(axis=1), std


def _chunks(order: np.ndarray, size: int):
    for i in range(0, len(order), size):
        yield order[i: i + size]


# A window loss takes a stack of windows and the epoch. For one window it
# returns the window's scalar loss, for several their (C,) losses; and a
# list of one array per window that the stage sums over its windows, or None.
WindowLoss = Callable[[list[SeriesWindow], int], tuple[Tensor, list | None]]

# Windows per tape when a stage trains a model without the graph: a batch splits into stacks of up to this many
# consecutive windows, one taped pass and one backward per stack. A steady two-process train-text stage-2 epoch took
# 0.89-1.12 ms per window one window per tape, 0.74-0.94 in stacks of two, 0.65-0.69 in stacks of four and 0.60-0.72
# in stacks of eight, with peaks of 43.5, 44.5, 46.9 and 51.8 MiB; at eight some epochs faulted 200-400 pages in
# where the others faulted under 35 (2-vCPU x86-64 guest). A model with the graph trains one window per tape, since
# its windows' taped graph state costs the most memory: on the train-full benchmark workload (perfbench/run.py,
# 30 s runs, 3 alternating pairs), stacks of four raised peak_rss_mib from 51.4-51.7 to 59.0-59.2, 14.9% on the
# medians and beyond the benchmark's 10% bound, while train_windows_per_s rose from 621-663 to 733-772.
TRAIN_STACK = 4

HELPER_EXIT_S = 5.0  # a helper that has not ended this long after its pipe closed is killed


def usable_cpus() -> int:
    """How many CPUs this process may run on and start children on: 1 where it cannot tell or may not.

    Pool workers are daemonic, and a daemonic process may not have children.
    """
    if not hasattr(os, "sched_getaffinity") or multiprocessing.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


def _helper_can_start() -> bool:
    """Whether this process can fork a helper process and has a second CPU to run it on."""
    return usable_cpus() >= 2 and "fork" in multiprocessing.get_all_start_methods()


class _Helper:
    """A daemonic forked process that computes part of this process's work, and the main end of its pipe.

    It serves two kinds of message. A "train" message is a batch of the
    stage that forked it: the helper shares one anonymous ``mmap`` with the
    main process, in two regions sized to the stage's parameters. Once per
    batch the main process writes the parameters into the first and sends
    the epoch and the helper's stacks of window indices. The helper
    computes them (``_window_results``) and hands them back one stack at a
    time: it writes the stack's summed gradients into the second region and
    sends its losses, the names of the parameters with a gradient and its
    arrays, and writes the next stack's gradients only after the main
    process acks, having added these. An exception from a stack is sent in
    place of its results. A "score" message is a model and windows,
    pickled, and the helper replies with their ``_forecasts``. A helper
    forked only to score maps no memory. Sending each window's gradients
    pickled through the pipe instead, with no shared ``mmap`` and no acks,
    trains bitwise the same model but made fits slower: train-full by 6-22%
    (6 of 6 pairs) and train-text by 18-25% (4 of 4), on a 2-vCPU x86-64
    guest.

    The helper ignores SIGINT: the main process takes Ctrl-C and ends it.
    It ends when the main process closes its end of the pipe: every forked
    child closes its copy of that end (``_forget_inherited_helper``), so no
    other process holds it open. ``close`` closes the pipe, waits
    ``HELPER_EXIT_S`` for the helper and kills it if it is still alive. A
    helper that ends while the main process sends to it or waits for it
    raises ``HelperError`` naming its exit code. A fork that fails raises
    its ``OSError`` and leaves no pipe open and no memory mapped.
    """

    def __init__(self, params: dict[str, Tensor], windows: list[SeriesWindow], window_loss: WindowLoss | None):
        self._params = params
        self._last = []  # the helper's latest stack results (see _window_results)
        self._buffer = None
        self._shared = []
        if params:
            offsets = np.cumsum([0] + [p.data.size for p in params.values()])
            self._buffer = mmap.mmap(-1, 2 * 8 * int(offsets[-1]))  # anonymous and shared, so the fork sees it
            self._shared = [{name: row[a:b].reshape(p.data.shape)
                             for (name, p), a, b in zip(params.items(), offsets, offsets[1:])}
                            for row in np.frombuffer(self._buffer, dtype=np.float64).reshape(2, -1)]
        context = multiprocessing.get_context("fork")
        self._conn, child = context.Pipe()
        self._process = context.Process(target=self._serve, args=(child, windows, window_loss), daemon=True)
        try:
            self._process.start()
        except BaseException:
            self._conn.close()
            self._unmap()
            raise
        finally:
            child.close()

    def _serve(self, conn: Connection, windows: list[SeriesWindow], window_loss: WindowLoss | None) -> None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        self._conn.close()
        try:
            while True:
                kind, *message = conn.recv()
                if kind == "score":
                    conn.send(_forecasts(*message))
                else:
                    self._train(conn, windows, window_loss, *message)
        except (EOFError, OSError):  # the main process closed its end
            pass

    def _train(self, conn: Connection, windows: list[SeriesWindow], window_loss: WindowLoss, epoch: int,
               stacks: list[list[int]]) -> None:
        shared_params, grad_slot = self._shared
        for name, p in self._params.items():
            p.data = shared_params[name].copy()
        acked = True
        results = _window_results(self._params, windows, window_loss, stacks, epoch, self._last)
        while True:
            try:
                values, grads, arrays = next(results)
            except StopIteration:
                break
            except Exception as exc:  # raised in the main process at this stack's position
                conn.send(exc)
                break
            if not acked:
                conn.recv()
            for name in grads:
                grad_slot[name][...] = grads[name]
            conn.send((values, list(grads), arrays))
            grads = None  # see _window_results
            acked = False
        if not acked:
            conn.recv()

    def send(self, message) -> None:
        try:
            self._conn.send(message)
        except OSError as exc:
            raise self._ended() from exc

    def recv(self):
        try:
            return self._conn.recv()
        except (EOFError, OSError) as exc:
            raise self._ended() from exc

    def _ended(self) -> HelperError:
        self._process.join(HELPER_EXIT_S)
        return HelperError(f"helper process ended with exit code {self._process.exitcode}")

    def start_batch(self, epoch: int, stacks: list[np.ndarray]) -> None:
        """Hand the helper the current parameters and the stacks of windows it computes this batch."""
        for name, p in self._params.items():
            self._shared[0][name][...] = p.data
        self.send(("train", epoch, [stack.tolist() for stack in stacks]))

    def add_next(self, sums: dict[str, np.ndarray]) -> tuple[list[float], list | None]:
        """Add the helper's next stack's gradients into ``sums``; its losses and arrays.

        Raises the stack's own exception if it raised one.
        """
        message = self.recv()
        if isinstance(message, BaseException):
            raise message
        values, present, arrays = message
        for name in present:
            sums[name] += self._shared[1][name]
        self.send(True)
        return values, arrays

    def _unmap(self) -> None:
        self._shared = []
        if self._buffer is not None:
            self._buffer.close()

    def close(self) -> int:
        """End and join the helper, and unmap the shared memory; returns its exit code."""
        self._conn.close()
        self._process.join(HELPER_EXIT_S)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()
        code = self._process.exitcode
        self._process.close()
        self._unmap()
        return code


_helper: _Helper | None = None  # this process's helper: at most one lives at a time


def _start_helper(params: dict[str, Tensor], windows: list[SeriesWindow], window_loss: WindowLoss | None
                  ) -> _Helper | None:
    """End this process's helper, if it has one, and fork a new one; None if the fork fails.

    A helper that cannot be forked, at a process limit or out of memory,
    leaves its work to this process.
    """
    global _helper
    _end_helper()
    try:
        _helper = _Helper(params, windows, window_loss)
    except OSError as exc:
        log.debug("helper process could not start (%s); computing in this process", exc)
    return _helper


def _end_helper() -> int | None:
    """End this process's helper, if it has one; returns its exit code. Interpreter exit calls this."""
    global _helper
    helper, _helper = _helper, None
    return None if helper is None else helper.close()


atexit.register(_end_helper)


def _forget_inherited_helper() -> None:
    """In a forked child: close its copy of the main end of the parent's helper pipe, and drop the helper.

    A helper sees its pipe close only when every copy of the main end is
    closed, so a child that kept one would hold the helper open until
    ``close`` gives up on it and kills it.
    """
    global _helper
    if _helper is not None:
        _helper._conn.close()
        _helper = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_inherited_helper)


def _window_results(params: dict[str, Tensor], windows: list[SeriesWindow], window_loss: WindowLoss, stacks,
                    epoch: int, last: list):
    """Yield each stack's results in turn: its losses, its parameter gradients by name and its ``arrays``.

    Each stack of window indices in ``stacks`` is one tape and one backward,
    computed when its turn comes; each gradient is the sum over the stack's
    windows. A stack of several windows that
    raises is computed again one window at a time, so the first failing
    window raises its own exception.

    ``last`` holds the latest stack's results from call to call, until the
    next stack's forward has run: freed then, under the forward's arrays,
    their memory takes the next backward's gradients. Freed as soon as they
    were added, they freed the heap top and glibc gave it back to the OS: in
    steady two-process train-text stage-2 epochs the helper then faulted
    8,053-34,370 pages in again in three epochs of nine, where with the hold
    each process faulted at most 60 in any epoch (2-vCPU x86-64 guest).
    """
    for stack in stacks:
        part = [windows[i] for i in stack]
        try:
            loss, arrays = window_loss(part, epoch)
            last.clear()
            grads = backward(loss)
            last.append((loss.data.reshape(-1).tolist(), {name: grads[p] for name, p in params.items() if p in grads},
                         arrays))
        except Exception:
            if len(part) == 1:
                raise
            clear_tape()
            for window in part:
                window_loss([window], epoch)
                clear_tape()
            raise
        yield last[0]


def _train_epochs(model: Model, windows: list[SeriesWindow], config: TrainConfig, stage: int,
                  window_loss: WindowLoss) -> np.ndarray | None:
    """The minibatch loop both stages share; returns the float64 sum of the arrays ``window_loss`` gave.

    Every epoch shuffles the windows with the stage's own random stream. Each
    batch splits into stacks of up to ``TRAIN_STACK`` consecutive windows,
    one window for a model with the graph, and each stack is one
    ``window_loss`` and one ``backward``, which sums the stack's parameter
    gradients (``_window_results``). Each batch takes one Adam step on the
    stage's parameters with the mean gradient: each stack's gradients are
    added in place, in stack order, into one zeroed buffer per parameter.
    The windows' losses are added to the epoch's total in batch order, and
    the epoch's mean loss is appended to the stage's history. The arrays
    ``window_loss`` returns, if any, are summed in batch order. The windows
    must share one shape.

    When a batch can hold two stacks and ``_helper_can_start``, the stage
    ends this process's helper, if it has one, and forks its own
    (``_start_helper``), which computes the stacks at odd positions of each
    batch while this process computes the even ones. This process still
    adds every stack's losses, gradients and arrays in stack order, so the
    result is bitwise the same as with every stack computed here, which is
    what a batch of one stack, a daemonic process, a host with one usable
    CPU or one without ``fork``, or a failed fork does. An exception from a
    helper stack is raised at that stack's position; a helper that ends
    mid-batch raises ``TrainingError``. A ``predict_windows`` pass made
    between batches is scored by the stage's helper; if the pass ends that
    helper, the stage's later batches run in this process. The stage ends
    its helper when it returns or raises.
    """
    if not windows:
        raise TrainingError(f"stage {stage} needs a nonempty training set")
    shape = (windows[0].inputs.shape, windows[0].targets.shape)
    odd = next((i for i, w in enumerate(windows) if (w.inputs.shape, w.targets.shape) != shape), None)
    if odd is not None:
        raise TrainingError(f"stage {stage} needs windows of one shape: window {odd} has inputs "
                            f"{windows[odd].inputs.shape} and targets {windows[odd].targets.shape}, window 0 has "
                            f"{shape[0]} and {shape[1]}")
    if stage == 1:
        params, history, epochs = model.stage1_parameters(), model.stage1_history, config.epochs_stage1
    else:
        params, history, epochs = model.stage2_parameters(), model.stage2_history, config.epochs_stage2
    adam = AdamState(lr=config.lr, clip_norm=config.clip_norm)
    shuffle = SeededRng(config.seed).child(f"stage{stage}/shuffle")
    array_sum = None
    stack = 1 if model.dgso is not None else TRAIN_STACK
    two = min(config.batch_size, len(windows)) > stack and _helper_can_start()
    helper = _start_helper(params, windows, window_loss) if two else None
    last = []  # this process's latest stack results (see _window_results)
    try:
        for epoch in range(epochs):
            order = shuffle.permutation(len(windows))
            loss_total = 0.0
            for batch_no, batch in enumerate(_chunks(order, config.batch_size)):
                sums = {name: np.zeros_like(p.data) for name, p in params.items()}
                stacks = list(_chunks(batch, stack))
                shared = helper is not None and helper is _helper and len(stacks) > 1  # not ended by a pass
                try:
                    if shared:
                        helper.start_batch(epoch, stacks[1::2])
                    mine = _window_results(params, windows, window_loss, stacks[0::2] if shared else stacks, epoch,
                                           last)
                    for pos in range(len(stacks)):
                        if shared and pos % 2:
                            values, arrays = helper.add_next(sums)
                        else:
                            values, grads, arrays = next(mine)
                            for name in grads:
                                sums[name] += grads[name]
                            grads = None  # see _window_results
                        for value in values:
                            loss_total += value
                        for array in arrays or ():
                            if array_sum is None:  # float64: the graph pass's float32 matrices sum in double
                                array_sum = np.zeros(array.shape)
                            array_sum += array
                    adam_step(adam, params, {name: s / len(batch) for name, s in sums.items()})
                except (NumericError, HelperError) as exc:
                    raise TrainingError(f"stage {stage}, epoch {epoch}, batch {batch_no}: {exc}") from exc
            history.append(loss_total / len(windows))
    finally:
        if helper is not None:
            _end_helper()
    return array_sum


def train_stage1(model: Model, windows: list[SeriesWindow], config: TrainConfig) -> None:
    """Fit fusion + graph weights on the auxiliary objective; freeze the matrix.

    The frozen matrix is the mean of the last graph layer's final smoothed
    matrix over the last epoch's windows. ``model.pad_events`` grows by the
    padded history slots the stage lifted: those of every step with the
    graph, of the last step without it, per window and epoch.
    """
    if not model.uses_stage1:
        raise TrainingError("stage 1 requires the graph or local-text component")

    def window_loss(stack: list[SeriesWindow], epoch: int) -> tuple[Tensor, list | None]:
        one = len(stack) == 1
        loss, matrix = model.stage1_forward(stack[0] if one else stack)
        if matrix is None or epoch != config.epochs_stage1 - 1:
            return loss, None
        return loss, [matrix] if one else list(matrix)

    matrix_sum = _train_epochs(model, windows, config, 1, window_loss)
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

    def window_loss(stack: list[SeriesWindow], epoch: int) -> tuple[Tensor, None]:
        if len(stack) == 1:
            values, targets = model.stage2_forward(stack[0]), stack[0].targets
        else:
            values, targets = model.stage2_forward(stack), np.stack([w.targets for w in stack])
        return joint_loss(values, model.scale_targets(targets), model.lpo, config.lambda_prompt), None

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


# Windows per stacked value-path pass when a window set is scored; the chunk's graph pass runs on stacks of
# model.GRAPH_STACK windows. One constant for both, chunks of four, gives bitwise the same forecasts but made a
# 105-window evaluate pass slower: train-full by 4-17% and train-text by 6-31% (6 rounds each, 2-vCPU x86-64 guest).
SCORE_CHUNK = 8


def _forecasts(model: Model, windows: list[SeriesWindow]) -> list[np.ndarray] | None:
    """``predict`` of each window, ``SCORE_CHUNK`` at a time through one ``Model.stage2_values`` stack each.

    None if a chunk raises, its windows' differing shapes included.
    """
    forecasts = []
    try:
        for start in range(0, len(windows), SCORE_CHUNK):
            forecasts += list(model.unscale_predictions(model.stage2_values(windows[start: start + SCORE_CHUNK])))
    except Exception:
        return None
    return forecasts


def predict_windows(model: Model, windows: list[SeriesWindow]) -> list[np.ndarray]:
    """``predict`` of each window, in window order, bitwise.

    Windows are forecast in chunks of ``SCORE_CHUNK`` through one stacked
    pass each (``_forecasts``). When ``_helper_can_start`` and there are at
    least two windows, this process's helper forecasts the windows at odd
    positions while this process forecasts the even ones: it is sent the
    model and its windows, pickled, and sends the forecasts back in one
    message. Inside a training stage that helper is the stage's. With no
    live helper, the pass forks one that only scores, and later passes reuse
    it; it ends when a stage starts, at interpreter exit, or when this
    process dies and its pipe closes. It serves one pass at a time, so
    threads must not run passes at once. A helper that cannot be forked
    leaves every window to this process. If a chunk raises in either
    process, the whole set runs again through ``predict`` one window at a
    time here, so the first failing window raises its own exception and
    windows of any shape are forecast. A helper that ends before it sends
    raises ``HelperError``, and the next pass forks a new one.
    """
    helper = (_helper or _start_helper({}, [], None)) if len(windows) >= 2 and _helper_can_start() else None
    if helper is None:
        out = _forecasts(model, windows)
    else:
        try:
            helper.send(("score", model, windows[1::2]))
            even = _forecasts(model, windows[0::2])
            odd = helper.recv()
        except BaseException:  # a helper that died, or a pass cut short with the helper's reply still to come
            _end_helper()
            raise
        out = None
        if even is not None and odd is not None:
            out = [None] * len(windows)
            out[::2], out[1::2] = even, odd
    if out is None:
        return [predict(model, window) for window in windows]
    return out


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
    of each. The archive is written through ``data.atomic_open``: under a
    temporary name, renamed into place, and removed if the write raises.

    Raises ``ConfigError``, and writes nothing, for a model over other than
    ``FEATURE_COUNT`` features: a model file is always read back with that
    many.
    """
    if model.feature_count != FEATURE_COUNT:
        raise ConfigError(f"a model over {model.feature_count} features cannot be saved: model files hold "
                          f"{FEATURE_COUNT}")
    records = {name: t.data for name, t in model.named_parameters().items()}
    records.update(_meta_records(model))
    # through the handle, since np.savez appends ".npz" to a path without it
    with atomic_open(path, binary=True) as fh:
        np.savez(fh, **records)


def load_model(path) -> Model:
    """Read a model file, rejecting any archive ``save_model`` could not have written.

    An unreadable path raises ``OSError``. ``FormatError`` is raised for
    bytes that are not an intact numpy archive, a member among them that
    fails its CRC-32 check; for a record other than the config that is not
    finite float64; for a member name that appears twice; for a config that
    is not UTF-8 or does not parse; for record names other than those
    ``save_model`` writes for the config's model, or parameter shapes other
    than its own; and for a mis-shaped
    scaler, a scaler std not above zero, a loss history that is not
    one-dimensional, or a relation matrix that is neither 0 x 0 nor d x d
    and row-stochastic.
    """
    from .configio import parse_config_text

    with open(path, "rb") as fh:  # outside the try, so an unreadable path stays an OSError
        blob = fh.read()
    try:
        with zipfile.ZipFile(io.BytesIO(blob)) as archive:
            names = archive.namelist()
            # each member is read whole, since zipfile checks its CRC-32 only where a read reaches its end
            records = {name.removesuffix(".npy"): np.lib.format.read_array(io.BytesIO(archive.read(name)))
                       for name in names}
    except (zipfile.BadZipFile, EOFError, NotImplementedError, RuntimeError, ValueError, OSError,
            tokenize.TokenError, MemoryError) as exc:
        # a bad directory or CRC, a cut-off member, a compression or encryption flag, a bad offset, or an
        # npy header that does not parse or gives a shape too large to allocate
        raise FormatError(f"{path}: not an intact model archive: {exc}") from exc
    if len(records) != len(names):  # zipfile reads a repeated name as its last copy
        repeated = sorted({name for name in names if names.count(name) > 1})
        raise FormatError(f"{path}: repeated member names {repeated}")
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
