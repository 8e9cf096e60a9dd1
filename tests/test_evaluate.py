import re

import numpy as np
import pytest

from kgcm import pipeline
from kgcm.data import GeneratorConfig, generate_synthetic
from kgcm.errors import MetricError
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
from kgcm.model import ALL_COMPONENTS, TrainConfig
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


def test_an_ablation_over_two_workers_gives_the_rows_of_one():
    # pool workers are daemonic, so each trains in its one process, which may not fork a training helper
    dataset = generate_synthetic(GeneratorConfig(regions=1, days=2, slots_per_day=12, event_rate=0.3))
    config = TrainConfig(d=8, n=2, window=8, horizon=2, blocks=1, day_slots=12, epochs_stage1=1, epochs_stage2=1,
                         batch_size=3)
    assert run_ablation(dataset, config, [1, 2], jobs=2) == run_ablation(dataset, config, [1, 2], jobs=1)


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
