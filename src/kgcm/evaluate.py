"""Regression metrics and the cumulative component-ablation harness.

Metrics are computed over every (region, window, horizon-step) point of a
split. ``evaluate`` returns the scored windows with their forecasts and
targets as (W, H) arrays; per-point rows are derived from these. It
forecasts through ``pipeline.predict_windows``: each process scores its
windows in chunks of ``pipeline.SCORE_CHUNK``, one untaped stacked
value-path pass per chunk, its graph pass included. Where a second CPU
and ``fork`` are there, the process's one helper process forecasts the
windows at odd positions: inside a training stage the stage's helper,
elsewhere one forked by the first such pass that serves every later one. Either way
every forecast is bitwise the one ``pipeline.predict`` gives.
The ablation harness trains six variants per seed, enabling the components
one at a time in the fixed order backbone, +ssa, +rcpg, +dgso, +acmfw,
+lpo, and reports the median metrics per variant with deltas against the
previous row. It runs its fits in a spawned pool with one worker per usable
CPU, never more than there are fits, and in this process on one CPU.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from multiprocessing import get_context

import numpy as np

from .data import DemandDataset, PredictionRow
from .errors import MetricError
from .model import COMPONENT_ORDER, Model, SeriesWindow, TrainConfig
from .pipeline import fit, model_split, predict_windows, usable_cpus
from .text import EncoderConfig

__all__ = [
    "MAPE_FLOOR",
    "MetricReport",
    "ForecastReport",
    "AblationRow",
    "mae",
    "rmse",
    "mape",
    "compute_metrics",
    "evaluate",
    "ablation_variants",
    "run_ablation",
    "render_ablation_table",
    "ablation_csv",
]

MAPE_FLOOR = 1.0


def _check_lengths(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=np.float64).ravel()
    t = np.asarray(truth, dtype=np.float64).ravel()
    if p.size == 0 or t.size == 0:
        raise MetricError("metrics need at least one point")
    if p.size != t.size:
        raise MetricError(f"prediction count {p.size} does not match truth count {t.size}")
    return p, t


def mae(pred, truth) -> float:
    p, t = _check_lengths(pred, truth)
    return float(np.mean(np.abs(p - t)))


def rmse(pred, truth) -> float:
    p, t = _check_lengths(pred, truth)
    return float(np.sqrt(np.mean((p - t) ** 2)))


def mape(pred, truth) -> tuple[float, int]:
    """Percentage error with denominators floored at ``MAPE_FLOOR``; returns (percent, n_floored)."""
    p, t = _check_lengths(pred, truth)
    denom = np.maximum(np.abs(t), MAPE_FLOOR)
    n_floored = int((np.abs(t) < MAPE_FLOOR).sum())
    return float(100.0 * np.mean(np.abs(p - t) / denom)), n_floored


@dataclass
class MetricReport:
    mae: float
    rmse: float
    mape_percent: float
    n_points: int
    n_floored: int


@dataclass
class ForecastReport:
    """A scored window set: row w of ``forecasts`` and ``targets`` is ``windows[w]``'s horizon, in demand units.

    ``metrics`` is computed from the two arrays; ``rows`` is derived from them and the windows.
    """

    windows: list[SeriesWindow]  # each carries its region and target times
    forecasts: np.ndarray  # (W, H) float64
    targets: np.ndarray  # (W, H) float64
    metrics: MetricReport

    @property
    def rows(self) -> list[PredictionRow]:
        """One row per point, window by window and then by horizon step, built from the arrays on each read."""
        return [PredictionRow(window.region, ts, step, float(y_true), float(y_pred))
                for window, truth, forecast in zip(self.windows, self.targets, self.forecasts, strict=True)
                for step, (ts, y_true, y_pred) in enumerate(zip(window.target_times, truth, forecast, strict=True), 1)]


def compute_metrics(pred, truth) -> MetricReport:
    p, t = _check_lengths(pred, truth)
    pct, n_floored = mape(p, t)
    return MetricReport(mae=mae(p, t), rmse=rmse(p, t), mape_percent=pct, n_points=p.size, n_floored=n_floored)


def evaluate(model: Model, windows: list[SeriesWindow]) -> ForecastReport:
    """Forecast every window with ``pipeline.predict_windows`` and score every horizon point, as arrays only."""
    forecasts = np.array(predict_windows(model, windows))
    targets = np.array([window.targets for window in windows])
    return ForecastReport(windows, forecasts, targets, compute_metrics(forecasts, targets))


# ---------------------------------------------------------------------------
# Ablation
# ---------------------------------------------------------------------------


@dataclass
class AblationRow:
    variant: str
    components: frozenset[str]
    seed: int
    report: MetricReport


def ablation_variants() -> list[tuple[str, frozenset[str]]]:
    """Cumulative component sets in the fixed row order."""
    variants = [("backbone", frozenset())]
    enabled: set[str] = set()
    for name in COMPONENT_ORDER:
        enabled.add(name)
        variants.append((f"+{name}", frozenset(enabled)))
    return variants


def _run_one(args) -> AblationRow:
    dataset, config, variant, components, seed, encoder = args
    model = fit(dataset, replace(config, seed=seed), components, encoder)
    report = evaluate(model, model_split(model, dataset).test)
    return AblationRow(variant=variant, components=components, seed=seed, report=report.metrics)


def run_ablation(dataset: DemandDataset, config: TrainConfig, seeds,
                 encoder: EncoderConfig = EncoderConfig()) -> list[AblationRow]:
    """Train and evaluate the six cumulative variants for every seed, all on text encoded by ``encoder``.

    The fits run in a pool of ``min(usable_cpus(), fits)`` spawned workers
    when that is at least 2, and in this process otherwise. Each worker is
    daemonic, so it fits in its one process. The rows are the same either
    way, in task order: variant order and then seed order. If fits raise,
    the exception of the first in that order is raised.
    """
    seeds = list(seeds)
    if not seeds:
        raise MetricError("ablation needs at least one seed")
    tasks = [(dataset, config, variant, components, seed, encoder)
             for variant, components in ablation_variants() for seed in seeds]
    workers = min(usable_cpus(), len(tasks))
    if workers < 2:
        return [_run_one(task) for task in tasks]
    with get_context("spawn").Pool(processes=workers) as pool:
        return list(pool.imap(_run_one, tasks))


def median_by_variant(rows: list[AblationRow]) -> dict[str, MetricReport]:
    out: dict[str, MetricReport] = {}
    for variant, _ in ablation_variants():
        group = [r.report for r in rows if r.variant == variant]
        if not group:
            continue
        out[variant] = MetricReport(
            mae=statistics.median(r.mae for r in group),
            rmse=statistics.median(r.rmse for r in group),
            mape_percent=statistics.median(r.mape_percent for r in group),
            n_points=group[0].n_points,
            n_floored=int(statistics.median(r.n_floored for r in group)),
        )
    return out


def render_ablation_table(rows: list[AblationRow]) -> str:
    """Human-readable medians with deltas, e.g. `35.62(-2.33%)`."""
    medians = median_by_variant(rows)
    lines = ["variant       | MAPE(%)          | MAE            | RMSE"]
    prev: MetricReport | None = None
    for variant, _ in ablation_variants():
        if variant not in medians:
            continue
        m = medians[variant]
        if prev is None:
            mape_cell = f"{m.mape_percent:.2f}"
            mae_cell = f"{m.mae:.2f}"
            rmse_cell = f"{m.rmse:.2f}"
        else:
            mape_cell = f"{m.mape_percent:.2f}({m.mape_percent - prev.mape_percent:+.2f}%)"
            mae_cell = f"{m.mae:.2f}({m.mae - prev.mae:+.2f})"
            rmse_cell = f"{m.rmse:.2f}({m.rmse - prev.rmse:+.2f})"
        lines.append(f"{variant:<13} | {mape_cell:<16} | {mae_cell:<14} | {rmse_cell}")
        prev = m
    return "\n".join(lines)


def ablation_csv(rows: list[AblationRow]) -> str:
    lines = ["variant,seed,mape_percent,mae,rmse,n_points,n_floored"]
    for r in rows:
        m = r.report
        lines.append(
            f"{r.variant},{r.seed},{format(m.mape_percent, '.17g')},{format(m.mae, '.17g')},"
            f"{format(m.rmse, '.17g')},{m.n_points},{m.n_floored}"
        )
    return "\n".join(lines) + "\n"
