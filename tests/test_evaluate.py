import multiprocessing
import os
import re
import signal
from types import SimpleNamespace

import numpy as np
import pytest

from kgcm import evaluate as kgcm_evaluate
from kgcm import pipeline
from kgcm.data import GeneratorConfig, generate_synthetic
from kgcm.errors import HelperError, MetricError, NumericError, ShapeError
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
    assert pooled == _rows_on(monkeypatch, 1, dataset, config, [1, 2])


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
    monkeypatch.setattr(kgcm_evaluate, "_run_one", lambda task: AblationRow(task[2], task[3], task[4],
                                                                          MetricReport(1.0, 1.0, 1.0, 1, 0)))
    assert len(_rows_on(monkeypatch, cpus, None, TrainConfig(), [0])) == 6
    assert asked == ([] if workers is None else [workers])


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the prediction helper is forked")
class TestPredictionHelper:
    """A forked helper forecasts the windows at odd positions; ``_helper_can_start`` picks the path."""

    DATA = GeneratorConfig(regions=2, days=2, slots_per_day=12, event_rate=0.3)
    CONFIG = TrainConfig(d=8, n=2, window=8, horizon=2, blocks=1, day_slots=12, epochs_stage1=1, epochs_stage2=1,
                         batch_size=4)

    def _windows(self) -> list:
        split = pipeline.split_windows(pipeline.build_windows(generate_synthetic(self.DATA), self.CONFIG))
        return (split.val + split.test)[:9]  # the helper forecasts 4 of them, this process 5

    def _untrained(self):
        return pipeline.new_model(generate_synthetic(self.DATA), self.CONFIG, ALL_COMPONENTS)[0]

    @staticmethod
    def _started(monkeypatch, on: bool) -> list:
        """Switch the helper on or off; the returned list grows by one per helper started."""
        monkeypatch.setattr(pipeline, "_helper_can_start", lambda: on)
        started = []
        init = pipeline._Forked.__init__
        monkeypatch.setattr(pipeline._Forked, "__init__", lambda self, *args: started.append(1) or init(self, *args))
        return started

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
        assert reports[True] == reports[False]
        assert ([np.float64(r.y_pred).tobytes() for r in reports[True].rows]
                == [np.float64(r.y_pred).tobytes() for r in reports[False].rows])

    @pytest.mark.parametrize("odd_first", [True, False], ids=["odd-then-even", "even-then-odd"])
    def test_the_first_bad_window_in_order_raises_wherever_it_ran(self, monkeypatch, odd_first):
        # a NaN input raises NumericError and a cut window ShapeError; the earlier, the NaN, must win
        model, windows = self._untrained(), self._windows()
        nan_at, cut_at = (1, 4) if odd_first else (2, 5)
        windows[nan_at].inputs = windows[nan_at].inputs.copy()
        windows[nan_at].inputs[3, 0] = np.nan
        windows[cut_at].inputs = windows[cut_at].inputs[:5]
        raised = {}
        for on in (True, False):
            started = self._started(monkeypatch, on)
            with pytest.raises((NumericError, ShapeError)) as info:
                evaluate(model, windows)
            assert len(started) == on
            raised[on] = (type(info.value), str(info.value))
        assert raised[True] == raised[False] == (NumericError, raised[False][1])

    def test_a_helper_that_dies_ends_the_pass_with_a_helper_error(self, monkeypatch):
        model = self._untrained()
        self._started(monkeypatch, True)
        forward, parent = Model.stage2_forward, os.getpid()

        def dying(model, window):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return forward(model, window)

        monkeypatch.setattr(Model, "stage2_forward", dying)
        with pytest.raises(HelperError, match="prediction helper process ended with exit code -9"):
            evaluate(model, self._windows())

    def test_a_one_window_pass_forks_nothing(self, monkeypatch):
        model, windows = self._untrained(), self._windows()
        started = self._started(monkeypatch, True)
        assert pipeline.predict_windows(model, windows[:1])[0].tobytes() == pipeline.predict(model, windows[0]).tobytes()
        assert started == []
        pipeline.predict_windows(model, windows[:2])
        assert started == [1]


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
