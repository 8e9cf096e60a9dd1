import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from kgcm import evaluate as kgcm_evaluate
from kgcm import pipeline
from kgcm.data import GeneratorConfig, PredictionRow, generate_synthetic
from kgcm.errors import ConfigError, HelperError, MetricError, NumericError, ShapeError
from kgcm.evaluate import (
    AblationRow,
    MetricReport,
    ablation_variants,
    compute_metrics,
    evaluate,
    mae,
    mape,
    render_ablation_table,
    rmse,
    run_ablation,
)
from kgcm.model import ALL_COMPONENTS, Model, TrainConfig
from kgcm.numeric import SeededRng
from kgcm.text import EncoderConfig


@pytest.mark.parametrize("seed", range(5))
def test_mae_is_at_most_rmse(seed):
    rng = SeededRng(seed)
    pred, truth = rng.normal((40,), std=3.0), rng.normal((40,), std=3.0)
    assert 0.0 < mae(pred, truth) <= rmse(pred, truth)


def test_mae_equals_rmse_for_equal_errors():
    assert mae([1.0, 3.0], [0.0, 4.0]) == rmse([1.0, 3.0], [0.0, 4.0]) == 1.0


def test_mape_floors_small_denominators_and_counts_them():
    # denominators max(|t|, 1) = 1, 1, 2, 4 and errors 1, 0.5, 1, 5
    percent, floored = mape([1.0, 1.0, 1.0, 1.0], [0.0, 0.5, 2.0, -4.0])
    assert percent == pytest.approx(100.0 * (1.0 + 0.5 + 0.5 + 1.25) / 4)
    assert floored == 2
    # a floor below every |t| leaves the plain percentage error
    percent, floored = mape([1.0, 3.0], [2.0, 4.0])
    assert (percent, floored) == (pytest.approx(100.0 * (0.5 + 0.25) / 2), 0)


@pytest.mark.parametrize("metric", [mae, rmse, mape, compute_metrics])
@pytest.mark.parametrize("pred,truth", [([], []), ([1.0], []), ([1.0, 2.0], [1.0])])
def test_empty_or_mismatched_input_is_refused(metric, pred, truth):
    with pytest.raises(MetricError):
        metric(pred, truth)


def test_evaluate_mae_is_the_mae_of_its_predict_calls():
    dataset = generate_synthetic(GeneratorConfig(regions=2, days=2, slots_per_day=12, event_rate=0.3))
    config = TrainConfig(d=8, n=2, window=8, horizon=3, blocks=1, day_slots=12)
    model, split = pipeline.new_model(dataset, config, ALL_COMPONENTS)
    report = evaluate(model, split.test)
    errors = np.concatenate([np.abs(pipeline.predict(model, w) - w.targets) for w in split.test])
    assert report.metrics.mae == pytest.approx(float(errors.mean()), rel=1e-12)
    assert report.metrics.n_points == len(report.rows) == len(split.test) * config.horizon


def _rows_on(monkeypatch, cpus: int, *args) -> list[AblationRow]:
    monkeypatch.setattr(kgcm_evaluate, "usable_cpus", lambda: cpus)
    return run_ablation(*args)


def test_an_ablation_over_two_workers_gives_the_rows_of_one(monkeypatch):
    # pool workers are daemonic, so each trains in its one process, which may not fork a training helper
    dataset = generate_synthetic(GeneratorConfig(regions=1, days=2, slots_per_day=12, event_rate=0.3))
    config = TrainConfig(d=8, n=2, window=8, horizon=2, blocks=1, day_slots=12, epochs_stage1=1, epochs_stage2=1,
                         batch_size=3)
    pooled = _rows_on(monkeypatch, 2, dataset, config, [1, 2])
    alone = _rows_on(monkeypatch, 1, dataset, config, [1, 2])
    assert pooled == alone
    # the rows come in task order, which is the CSV's: variant first, then seed
    want = [(variant, seed) for variant, _ in ablation_variants() for seed in (1, 2)]
    assert [(r.variant, r.seed) for r in pooled] == [(r.variant, r.seed) for r in alone] == want


@pytest.mark.parametrize("cpus, workers", [(1, None), (2, 2), (6, 6), (7, 6), (64, 6), (10**6, 6)])
def test_an_ablation_pool_starts_no_more_workers_than_tasks(monkeypatch, cpus, workers):
    # one seed gives six tasks; one usable CPU runs them here, and the pool is a stand-in, so no process starts
    asked = []

    class Pool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def imap(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(kgcm_evaluate, "get_context", lambda method: method == "spawn" and SimpleNamespace(Pool=Pool))
    monkeypatch.setattr(kgcm_evaluate, "_run_one", lambda task: AblationRow(task[2], task[3], task[1].seed,
                                                                          MetricReport(1.0, 1.0, 1.0, 1, 0)))
    assert len(_rows_on(monkeypatch, cpus, None, TrainConfig(), [0])) == 6
    assert asked == ([] if workers is None else [workers])


def test_an_ablation_refuses_a_seed_range_past_the_last_64_bit_seed_before_any_fit(monkeypatch):
    # seed 2**64 would wrap to seed 0 in the random streams, so the range [2**64 - 1, 2**64] is refused whole
    monkeypatch.setattr(kgcm_evaluate, "_run_one", lambda task: pytest.fail("a fit started"))
    with pytest.raises(ConfigError, match=r"seed must lie in \[0, 2\*\*64\), got 18446744073709551616"):
        _rows_on(monkeypatch, 1, None, TrainConfig(seed=2 ** 64 - 1), [2 ** 64 - 1, 2 ** 64])


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the prediction helper is forked")
class TestPredictionHelper:
    """A forked helper forecasts the windows at odd positions; ``_helper_can_start`` picks the path."""

    DATA = GeneratorConfig(regions=2, days=2, slots_per_day=12, event_rate=0.3)
    CONFIG = TrainConfig(d=8, n=2, window=8, horizon=2, blocks=1, day_slots=12, epochs_stage1=1, epochs_stage2=1,
                         batch_size=4)

    def _windows(self, count: int = 9) -> list:
        """``count`` windows; 9 split as 4 for the helper and 5 for this process, each in one chunk."""
        split = pipeline.split_windows(pipeline.build_windows(generate_synthetic(self.DATA), self.CONFIG))
        return (split.val + split.test + split.train)[:count]

    def _untrained(self):
        return pipeline.new_model(generate_synthetic(self.DATA), self.CONFIG, ALL_COMPONENTS)[0]

    @staticmethod
    def _started(monkeypatch, on: bool) -> list:
        """Switch the helper on or off; the returned list grows by one per helper started.

        A live helper is ended first, so the next one forks with the patches made before this call.
        """
        pipeline._end_helper()
        monkeypatch.setattr(pipeline, "_helper_can_start", lambda: on)
        started = []
        init = pipeline._Helper.__init__
        monkeypatch.setattr(pipeline._Helper, "__init__", lambda self, *args: started.append(1) or init(self, *args))
        return started

    @pytest.mark.parametrize("event_rate", [0.04, 0.5])
    @pytest.mark.parametrize("variant,components", ablation_variants(), ids=[v for v, _ in ablation_variants()])
    def test_chunked_forecasts_equal_per_window_predict(self, monkeypatch, variant, components, event_rate):
        # the default data and model shapes; a frozen matrix stands in for stage 1's where the graph makes one
        config = TrainConfig()
        data = generate_synthetic(GeneratorConfig(event_rate=event_rate))
        model, split = pipeline.new_model(data, config, components)
        if "dgso" in components:
            model.freeze_structure(np.abs(SeededRng(1).normal((config.d, config.d))) + 0.01)
        windows = split.test[:19]
        want = [pipeline.predict(model, window).tobytes() for window in windows]

        def refused(*args):
            raise AssertionError("a chunk fell back to predict")

        monkeypatch.setattr(pipeline, "predict", refused)  # every chunk must run stacked
        # with all five components, more sets whose last chunk falls short of SCORE_CHUNK, so the graph pass runs on
        # stacks of more sizes
        sizes = (1, 7, 8, 9, 19) + ((3, 5, 12, 13) if components == ALL_COMPONENTS else ())
        for on in (True, False):
            self._started(monkeypatch, on)
            for size in sizes:
                got = pipeline.predict_windows(model, windows[:size])
                assert [forecast.tobytes() for forecast in got] == want[:size]
        assert np.array([row.y_pred for row in evaluate(model, windows).rows]).tobytes() == b"".join(want)

    @pytest.mark.parametrize("variant,components", ablation_variants(), ids=[v for v, _ in ablation_variants()])
    def test_two_process_reports_equal_one_process_reports(self, monkeypatch, variant, components):
        self._started(monkeypatch, False)
        model = pipeline.fit(generate_synthetic(self.DATA), self.CONFIG, components)
        windows = self._windows()
        assert len(windows) == 9
        reports = {}
        for on in (True, False):
            started = self._started(monkeypatch, on)
            reports[on] = evaluate(model, windows)
            assert len(started) == on
        assert reports[True].metrics == reports[False].metrics
        assert reports[True].forecasts.tobytes() == reports[False].forecasts.tobytes()
        assert ([np.float64(r.y_pred).tobytes() for r in reports[True].rows]
                == [np.float64(r.y_pred).tobytes() for r in reports[False].rows])

    @staticmethod
    def _point_fields(rows) -> list[tuple]:
        """Each row's fields, its floats by type and exact value."""
        return [(r.region, r.timestamp, r.horizon_step, type(r.y_true), r.y_true.hex(), type(r.y_pred), r.y_pred.hex())
                for r in rows]

    @pytest.mark.parametrize("count", [1, 9, 19])
    @pytest.mark.parametrize("on", [True, False], ids=["helper", "alone"])
    def test_a_report_holds_the_forecasts_and_targets_as_arrays(self, monkeypatch, count, on):
        model, windows = self._untrained(), self._windows(count)
        self._started(monkeypatch, on)
        report = evaluate(model, windows)
        forecasts = np.array(pipeline.predict_windows(model, windows))
        assert report.forecasts.shape == report.targets.shape == (count, self.CONFIG.horizon)
        assert report.forecasts.dtype == report.targets.dtype == np.float64
        assert report.forecasts.tobytes() == forecasts.tobytes()
        assert report.targets.tobytes() == np.stack([window.targets for window in windows]).tobytes()
        assert report.metrics == compute_metrics(report.forecasts, report.targets)
        # the reference: one row per point, built from each window and its forecast
        want = [PredictionRow(region=window.region, timestamp=window.target_times[step], horizon_step=step + 1,
                              y_true=float(window.targets[step]), y_pred=float(y_pred[step]))
                for window, y_pred in zip(windows, forecasts) for step in range(len(window.targets))]
        assert self._point_fields(report.rows) == self._point_fields(want)

    def test_evaluate_builds_no_per_point_row(self, monkeypatch):
        model, windows = self._untrained(), self._windows()

        def refused(*args, **kwargs):
            raise AssertionError("evaluate built a PredictionRow")

        for on in (True, False):
            self._started(monkeypatch, on)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kgcm_evaluate, "PredictionRow", refused)
                report = evaluate(model, windows)
            assert len(report.rows) == report.metrics.n_points == len(windows) * self.CONFIG.horizon

    def test_rows_refuse_a_window_whose_target_times_miss_a_target(self):
        model, windows = self._untrained(), self._windows(3)
        windows[1].target_times = windows[1].target_times[:-1]
        with pytest.raises(ValueError, match="zip"):
            evaluate(model, windows).rows

    # 19 windows: with the helper, this process scores positions 0, 2, ..., 18 in the chunks 0-14 and 16-18, the
    # helper 1, 3, ..., 17 in the chunks 1-15 and 17; alone, this process scores the chunks 0-7, 8-15 and 16-18
    @pytest.mark.parametrize("bad_at", [2, 17], ids=["even", "odd"])
    def test_a_bad_window_raises_its_own_error_once(self, monkeypatch, tmp_path, bad_at):
        # a NaN input raises NumericError from the one chunk that holds it, computed once; a cut window is refused
        # with a ShapeError that names it before any chunk runs. Each stage2_values call appends to a file how many
        # NaN windows its chunk holds, so the helper's calls count too
        model, windows = self._untrained(), self._windows(19)
        log, values = tmp_path / "calls.txt", Model.stage2_values

        def logged(model, chunk):
            with open(log, "a") as fh:
                fh.write(f"{sum(bool(np.isnan(w.inputs).any()) for w in chunk)}\n")
            return values(model, chunk)

        monkeypatch.setattr(Model, "stage2_values", logged)
        windows[bad_at].inputs = windows[bad_at].inputs.copy()
        windows[bad_at].inputs[3, 0] = np.nan
        for on in (True, False):
            started = self._started(monkeypatch, on)
            with pytest.raises(NumericError):
                evaluate(model, windows)
            assert len(started) == on
            assert log.read_text().split().count("1") == 1
            log.unlink()
        windows[bad_at].inputs = windows[bad_at].inputs[:5]
        for on in (True, False):
            started = self._started(monkeypatch, on)
            with pytest.raises(ShapeError, match=re.escape(f"scoring needs windows of one shape: window {bad_at} has "
                                                           "inputs (5, 5) and targets (2,), window 0 has (8, 5) and "
                                                           "(2,)")):
                evaluate(model, windows)
            assert started == []
            assert not log.exists()

    @pytest.mark.parametrize("bad_at", [16, 17], ids=["even", "odd"])
    @pytest.mark.parametrize("on", [True, False], ids=["helper", "alone"])
    def test_a_chunk_that_raises_ends_the_pass_with_its_error(self, monkeypatch, on, bad_at):
        # a failing stacked pass, a bug included, is not forecast again window by window
        model, windows = self._untrained(), self._windows(19)
        values, marked = Model.stage2_values, (windows[bad_at].region, windows[bad_at].target_times)

        def failing(model, chunk):
            if any((w.region, w.target_times) == marked for w in chunk):  # the helper's windows are copies
                raise RuntimeError("a chunk failed")
            return values(model, chunk)

        def refused(*args):
            raise AssertionError("a pass fell back to predict")

        monkeypatch.setattr(Model, "stage2_values", failing)
        monkeypatch.setattr(pipeline, "predict", refused)
        started = self._started(monkeypatch, on)
        with pytest.raises(RuntimeError, match="^a chunk failed$"):
            evaluate(model, windows)
        assert len(started) == on

    def test_a_helper_that_answered_with_an_error_serves_the_next_pass(self, monkeypatch):
        model, windows = self._untrained(), self._windows()
        values, parent, failed = Model.stage2_values, os.getpid(), []

        def failing_once_in_the_helper(model, chunk):
            if os.getpid() != parent and not failed:  # the forked helper keeps its own copy of the list
                failed.append(1)
                raise RuntimeError("the helper's chunk failed")
            return values(model, chunk)

        monkeypatch.setattr(Model, "stage2_values", failing_once_in_the_helper)
        started = self._started(monkeypatch, True)
        with pytest.raises(RuntimeError, match="^the helper's chunk failed$"):
            evaluate(model, windows)
        helper = pipeline._helper
        got = pipeline.predict_windows(model, windows)
        assert started == [1]
        assert pipeline._helper is helper
        assert [f.tobytes() for f in got] == [pipeline.predict(model, w).tobytes() for w in windows]

    def test_a_helper_that_dies_ends_the_pass_with_a_helper_error(self, monkeypatch):
        model = self._untrained()
        self._started(monkeypatch, True)
        values, parent = Model.stage2_values, os.getpid()

        def dying(model, windows):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return values(model, windows)

        monkeypatch.setattr(Model, "stage2_values", dying)
        windows = self._windows()
        with pytest.raises(HelperError, match="^helper process ended with exit code -9$"):
            evaluate(model, windows)
        # the next pass forks a new helper, which scores with the restored method
        monkeypatch.setattr(Model, "stage2_values", values)
        started = self._started(monkeypatch, True)
        got = pipeline.predict_windows(model, windows)
        assert started == [1]
        assert [f.tobytes() for f in got] == [pipeline.predict(model, w).tobytes() for w in windows]

    def test_a_file_encoder_model_scores_on_two_processes_as_predict_does(self, monkeypatch, tmp_path):
        data = generate_synthetic(self.DATA)
        ids = [f"{source}|{ts.isoformat()}" for source in (*data.regions, "global") for ts in data.timestamps]
        rng = np.random.default_rng(0)
        table = tmp_path / "embeddings.csv"
        table.write_text("".join(f"{i}," + ",".join(map(str, rng.normal(size=self.CONFIG.d).tolist())) + "\n" for i in ids))
        model, split = pipeline.new_model(data, self.CONFIG, ALL_COMPONENTS, EncoderConfig(str(table)))
        assert "embeddings" in vars(model.encoder)  # read by new_model's window build
        windows = split.test + split.val
        started = self._started(monkeypatch, True)
        report = evaluate(model, windows)
        assert started == [1]
        assert report.forecasts.tobytes() == np.stack([pipeline.predict(model, w) for w in windows]).tobytes()

    @pytest.mark.parametrize("on", [True, False], ids=["helper", "alone"])
    def test_every_batch_call_gets_a_stack(self, monkeypatch, tmp_path, on):
        # each call appends its kind and process to a file, so calls in the forked helper count too
        log = tmp_path / "calls.txt"

        def recording(method):
            def wrapped(model, windows, *args):
                with open(log, "a") as fh:
                    fh.write(f"{type(windows).__name__} {os.getpid()}\n")
                return method(model, windows, *args)
            return wrapped

        def calls() -> list[tuple[str, bool]]:
            """(argument type, made in this process) of each call logged so far; clears the log."""
            lines = log.read_text().split() if log.exists() else []
            log.unlink(missing_ok=True)
            return [(kind, int(pid) == os.getpid()) for kind, pid in zip(lines[::2], lines[1::2])]

        for name in ("stage1_forward", "_values"):
            monkeypatch.setattr(Model, name, recording(getattr(Model, name)))
        monkeypatch.setattr(pipeline, "TRAIN_STACK", 4)
        self._started(monkeypatch, on)
        model, split = pipeline.new_model(generate_synthetic(self.DATA), replace(self.CONFIG, batch_size=5),
                                          ALL_COMPONENTS)
        assert len(split.train) % 5 == 0  # every batch is a stack of four and a stack of one
        pipeline.train_stage1(model, split.train, model.config)
        pipeline.train_stage2(model, split.train, model.config)
        fitted = calls()
        assert {kind for kind, _ in fitted} == {"list"}
        assert {here for _, here in fitted} == {True, False} if on else {True}
        # 17 windows: alone, chunks of 8, 8 and 1; with the helper, this process's 9 in chunks of 8 and 1
        windows = (split.val + split.test + split.train)[:17]
        pipeline.predict_windows(model, windows)
        scored = calls()
        assert {kind for kind, _ in scored} == {"list"}
        assert {here for _, here in scored} == {True, False} if on else {True}
        pipeline.predict(model, windows[0])
        assert calls() == [("SeriesWindow", True)]

    def test_one_helper_serves_many_passes(self, monkeypatch):
        data = generate_synthetic(self.DATA)
        models = [self._untrained(),
                  pipeline.new_model(data, replace(self.CONFIG, seed=7), frozenset({"ssa", "rcpg", "lpo"}))[0]]
        windows = self._windows(19)
        want = [[pipeline.predict(model, w).tobytes() for w in windows] for model in models]
        started = self._started(monkeypatch, True)
        for size in (2, 9, 19):
            for model, forecasts in zip(models, want):
                got = pipeline.predict_windows(model, windows[:size])
                assert [f.tobytes() for f in got] == forecasts[:size]
        assert started == [1]
        assert want[0] != want[1]

    def test_a_helper_that_cannot_fork_leaves_the_pass_to_this_process(self, monkeypatch, caplog):
        model, windows = self._untrained(), self._windows()
        self._started(monkeypatch, True)
        monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", _refused_fork)
        with caplog.at_level("DEBUG", logger="kgcm.pipeline"):
            got = pipeline.predict_windows(model, windows)
        assert [f.tobytes() for f in got] == [pipeline.predict(model, w).tobytes() for w in windows]
        assert "helper process could not start" in caplog.text
        assert pipeline._helper is None

    @pytest.mark.parametrize("ending", ["exit", "sigkill"])
    def test_no_helper_outlives_its_process(self, ending):
        # a process that exits ends its helper on the way out; one that is killed closes the helper's pipe,
        # and the helper ends on its own
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", _ONE_PASS, ending], env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == (0 if ending == "exit" else -signal.SIGKILL), done.stderr
        pid = int(done.stdout)
        if ending == "exit":
            assert not _alive(pid)
        deadline = time.monotonic() + pipeline.HELPER_EXIT_S
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(pid)

    def test_a_one_window_pass_forks_nothing(self, monkeypatch):
        model, windows = self._untrained(), self._windows()
        started = self._started(monkeypatch, True)
        assert pipeline.predict_windows(model, windows[:1])[0].tobytes() == pipeline.predict(model, windows[0]).tobytes()
        assert started == []
        pipeline.predict_windows(model, windows[:2])
        assert started == [1]


def _refused_fork(process):
    raise BlockingIOError(11, "Resource temporarily unavailable")


# One two-process evaluate pass in a fresh interpreter, which prints its helper's pid and then exits, or kills
# itself when its argument is "sigkill".
_ONE_PASS = """
import os, signal, sys
from kgcm import pipeline
from kgcm.data import GeneratorConfig, generate_synthetic
from kgcm.evaluate import evaluate
from kgcm.model import ALL_COMPONENTS, TrainConfig
pipeline._helper_can_start = lambda: True
data = generate_synthetic(GeneratorConfig(regions=2, days=2, slots_per_day=12, event_rate=0.3))
model, split = pipeline.new_model(data, TrainConfig(d=8, n=2, window=8, horizon=2, blocks=1, day_slots=12),
                                  ALL_COMPONENTS)
evaluate(model, split.test)
print(pipeline._helper._process.pid, flush=True)
if sys.argv[1] == "sigkill":
    os.kill(os.getpid(), signal.SIGKILL)
"""


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a running process: where /proc shows it, not gone and not a zombie left unreaped."""
    if not os.path.isdir("/proc/self"):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _rows(values: dict[str, list[float]]) -> list[AblationRow]:
    """One row per seed and variant; every metric of a row is the given value."""
    components = dict(ablation_variants())
    return [AblationRow(variant, components[variant], seed, MetricReport(v, 2 * v, 3 * v, 10, 0))
            for variant, per_seed in values.items() for seed, v in enumerate(per_seed)]


def test_ablation_table_deltas_are_differences_of_medians():
    values = {"backbone": [4.0, 1.0, 2.0], "+ssa": [3.0, 5.0, 6.0], "+rcpg": [0.5, 0.25, 1.0]}
    lines = render_ablation_table(_rows(values)).splitlines()
    assert len(lines) == 1 + len(values)
    medians = [float(np.median(v)) for v in values.values()]
    first = [cell.strip() for cell in lines[1].split("|")]
    assert first == ["backbone", f"{3 * medians[0]:.2f}", f"{medians[0]:.2f}", f"{2 * medians[0]:.2f}"]
    for line, prev, cur in zip(lines[2:], medians, medians[1:]):
        deltas = [float(d) for d in re.findall(r"\(([-+][0-9.]+)%?\)", line)]
        assert deltas == pytest.approx([3 * (cur - prev), cur - prev, 2 * (cur - prev)], abs=0.005)


def test_ablation_csv_keeps_task_order_and_every_float_bit_for_bit():
    # seeds and variants out of the table's order: the file keeps the order of the rows it is given
    awkward = [1 / 3, 5e-324, 123456.789, 0.1 + 0.2, 1e300 / 3, 2.0 ** -1074 * 3, 7.0]
    components = dict(ablation_variants())
    tasks = [("+rcpg", 2), ("backbone", 0), ("+lpo", 1), ("+ssa", 0), ("backbone", 1)]
    rows = [AblationRow(variant, components[variant], seed,
                        MetricReport(awkward[i % 7], awkward[(i + 1) % 7], awkward[(i + 2) % 7], 10 * i + 1, i))
            for i, (variant, seed) in enumerate(tasks)]
    text = kgcm_evaluate.ablation_csv(rows)
    assert text.endswith("\n")
    header, *lines = text.splitlines()
    assert header == "variant,seed,mape_percent,mae,rmse,n_points,n_floored"
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        variant, seed, mape_percent, mae_, rmse_, n_points, n_floored = line.split(",")
        assert (variant, int(seed)) == (row.variant, row.seed)
        for cell, value in ((mape_percent, row.report.mape_percent), (mae_, row.report.mae),
                            (rmse_, row.report.rmse)):
            assert np.float64(float(cell)).tobytes() == np.float64(value).tobytes()
        assert (int(n_points), int(n_floored)) == (row.report.n_points, row.report.n_floored)
