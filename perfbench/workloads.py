"""Workloads, output checks and metrics of the kgcm benchmark.

Every input comes from ``data.generate_synthetic`` with the default
``GeneratorConfig`` (3 regions x 6 days x 48 slots) and the workload seed;
the model uses the default ``TrainConfig`` dimensions, model seed 0 and one
epoch per stage. The two workloads differ only in components and event rate.

A run, timed with no tracing, does one set-up (generate, ``build_windows``,
split, scaler and ``build_model``) and one ``pipeline.fit`` on the
``--seed`` data, the fit for ``test_mae`` below, and a
``save_model``/``load_model`` round trip of the first fitted model. Then
it repeats serving rounds, each followed by the set-up of a new data set,
until ``MIN_PREDICT_CALLS`` predict calls are done and ``--seconds`` have
passed since the run began. A serving round is one
closed-loop pass over the test windows of the latest data set with the
loaded model (one caller, the next ``pipeline.predict`` call only after the
previous returns) and one ``evaluate.evaluate`` pass over them. Round ``k``
serves the data of seed ``seed + ROUND_SEED_STRIDE * k``: the share of test
steps that carry text, and with it the predict latency on ``train-text``,
varies by up to 30% between data sets, and a run that serves many of them
varies much less between seeds than one data set does.

Every unit's time is taken at reference speed (see ``reference.py``):
``setup_s`` is the median over the set-ups, ``predict_ms_p50`` the median
over all predict calls and ``evaluate_windows_per_s`` comes from the median
evaluate pass.

``test_mae`` comes from one more fit, on data of the fixed seed
``QUALITY_SEED``, scored by ``evaluate.evaluate`` on its test split;
``train_windows_per_s`` counts the window passes of both fits. ``test_mae``
is the same number for every ``--seed``, so a change that alters the
trained model by more than floating-point reordering shows against a tight
bound, while the MAE of the ``--seed`` model varies by 10-30% between seeds.

An operation is one fit, one predict call or one evaluate pass; a
``KgcmError`` counts it as failed. A failed output check makes the run
incorrect; it never just lowers a metric.

The traced run (``--trace 1``) does a fixed amount of work so that its
counts repeat exactly: one untraced and one traced fit, a traced save and
load, then ``TRACED_SERVE_ROUNDS`` serving rounds untraced and as many
traced, all on the ``--seed`` data; it runs no reference kernel.
Per-window metrics divide by the traced fit's stage-1 plus stage-2 window
forwards; per-forecast metrics by the forecasts of the traced serving
rounds.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kgcm import data, evaluate, numeric, pipeline
from kgcm import model as kmodel
from kgcm.errors import KgcmError
from kgcm.model import ALL_COMPONENTS, Model, TrainConfig

import tracer
from reference import REFERENCE_S, Pacer
from tracer import END, NAME, PARENT, START, Target, Tracer, timed

EPOCHS_STAGE1 = 1
EPOCHS_STAGE2 = 1
MODEL_SEED = 0
QUALITY_SEED = 0
ROUND_SEED_STRIDE = 1_000_000
MIN_PREDICT_CALLS = 1000  # p99 then has at least 10 calls beyond it
TRACED_SETUP_REPS = 5
TRACED_SERVE_ROUNDS = 5
# Time of the traced fit that no layer below pipeline.fit accounts for (the
# fit span's own self time and the time outside it) may be at most this
# share of the fit's wall time.
COVERAGE_MARGIN = 0.02
ROW_SUM_TOLERANCE = 1e-12
MAE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    components: frozenset[str]
    event_rate: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-full", ALL_COMPONENTS, 0.04),
        Workload("train-text", frozenset({"ssa", "rcpg", "lpo"}), 0.5),
    )
}

TARGETS = [
    Target("kgcm.data", "generate_synthetic"),
    Target("kgcm.text", "encode"),
    Target("kgcm.pipeline", "build_windows"),
    Target("kgcm.pipeline", "split_windows"),
    Target("kgcm.pipeline", "compute_scaler"),
    Target("kgcm.pipeline", "fit"),
    Target("kgcm.pipeline", "train_stage1"),
    Target("kgcm.pipeline", "train_stage2"),
    Target("kgcm.pipeline", "predict"),
    Target("kgcm.pipeline", "save_model"),
    Target("kgcm.pipeline", "load_model"),
    Target("kgcm.model", "build_model"),
    Target("kgcm.model", "joint_loss"),
    Target("kgcm.model", "stage1_forward", cls="Model"),
    Target("kgcm.model", "stage2_forward", cls="Model"),
    Target("kgcm.fusion_local", "embed_structured_rows"),
    Target("kgcm.fusion_local", "guided_cross_attention"),
    Target("kgcm.fusion_local", "prompt_loss"),
    Target("kgcm.graph", "run_dgso"),
    Target("kgcm.predictor", "embed_sequence"),
    Target("kgcm.predictor", "structural_bias"),
    Target("kgcm.predictor", "forecast"),
    Target("kgcm.numeric", "backward", probe=numeric.tape_size),
    Target("kgcm.optim", "adam_step"),
    Target("kgcm.evaluate", "evaluate"),
]
# The reference kernel runs before each call of these inside a measured unit.
FORWARDS = [Target("kgcm.model", "stage1_forward", cls="Model"),
            Target("kgcm.model", "stage2_forward", cls="Model")]
PREDICTS = [Target("kgcm.pipeline", "predict")]


@dataclass
class Prepared:
    dataset: data.DemandDataset
    config: TrainConfig
    split: pipeline.SplitWindows


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok

    def attempt(self, call, *args):
        """One operation; returns None when it raises a KgcmError."""
        self.attempted += 1
        try:
            return call(*args)
        except KgcmError as exc:
            self.failed += 1
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return None


@dataclass
class Served:
    """What the serving phase measured."""

    calls: list[float] = field(default_factory=list)  # seconds per predict call
    eval_times: list[float] = field(default_factory=list)  # seconds per evaluate pass


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def prepare(w: Workload, seed: int) -> Prepared:
    """The set-up every workload repeats: generate, windows, split, scaler, model."""
    config = TrainConfig(epochs_stage1=EPOCHS_STAGE1, epochs_stage2=EPOCHS_STAGE2, seed=MODEL_SEED)
    dataset = data.generate_synthetic(data.GeneratorConfig(event_rate=w.event_rate, seed=seed))
    split = pipeline.split_windows(pipeline.build_windows(dataset, config))
    mean, std = pipeline.compute_scaler(split.train)
    kmodel.build_model(config, w.components, pipeline.FEATURE_COUNT).set_scaler(mean, std)
    return Prepared(dataset, config, split)


def workload_info(prep: Prepared) -> dict:
    steps = [tokens.shape[0] > 0 for w in prep.split.train for tokens in w.local_tokens]
    return {"train_windows": len(prep.split.train), "test_windows": len(prep.split.test),
            "text_step_share": sum(steps) / len(steps)}


def window_passes(model: Model, train_windows: int) -> int:
    epochs = (EPOCHS_STAGE1 if model.uses_stage1 else 0) + EPOCHS_STAGE2
    return epochs * train_windows


# -- checks ----------------------------------------------------------------


def check_fit(run: Run, model: Model) -> None:
    run.check(all(np.isfinite(model.stage1_history)) and all(np.isfinite(model.stage2_history)),
              "fit: non-finite loss history")
    if "dgso" not in model.components:
        return
    a = model.a_star
    if run.check(a is not None, "fit: no frozen relation matrix after stage 1"):
        run.check(bool((a >= 0).all()) and bool(np.abs(a.sum(axis=1) - 1.0).max() <= ROW_SUM_TOLERANCE),
                  "fit: a_star is not row-stochastic")


# -- phases ----------------------------------------------------------------


def fit_once(run: Run, w: Workload, prep: Prepared) -> Model | None:
    fitted = run.attempt(pipeline.fit, prep.dataset, prep.config, w.components)
    if fitted is not None:
        check_fit(run, fitted)
    return fitted


def unpaced(targets, call, *args):
    """``Pacer.measure`` without the reference kernel: the plain wall time."""
    return timed(call, *args)


def save_and_load(run: Run, fitted: Model, windows, out_dir: Path) -> tuple[Model, float, float]:
    """Round-trip the model through its file; the loaded model's forecasts must equal the fitted one's bitwise."""
    path = out_dir / f"model-{os.getpid()}.kgcm"
    try:
        _, save_s = timed(pipeline.save_model, fitted, path)
        loaded, load_s = timed(pipeline.load_model, path)
    finally:
        path.unlink(missing_ok=True)
    for i, window in enumerate(windows):
        same = pipeline.predict(loaded, window).tobytes() == pipeline.predict(fitted, window).tobytes()
        if not run.check(same, f"load_model: forecast for test window {i} differs from the saved model's"):
            break
    return loaded, save_s, load_s


def serve_round(run: Run, model: Model, windows, out: Served, measure=unpaced) -> bool:
    """A closed predict loop over the windows, then an evaluate pass; False if evaluate failed.

    Each forecast must be finite with shape (horizon,) and leave the tape
    empty; the evaluate pass must report the MAE of the forecasts the
    predict calls returned. ``measure`` times each call and the pass.
    """
    horizon = model.config.horizon
    forecasts: list[np.ndarray | None] = [None] * len(windows)
    for i, window in enumerate(windows):
        y, seconds = measure([], run.attempt, pipeline.predict, model, window)
        out.calls.append(seconds)
        if y is None:
            continue
        run.check(y.shape == (horizon,) and bool(np.isfinite(y).all()),
                  f"predict: window {i} gave shape {y.shape} or non-finite values")
        run.check(numeric.tape_size() == 0, "predict: tape not empty after a no_tape predict")
        forecasts[i] = y
    report, seconds = measure(PREDICTS, run.attempt, evaluate.evaluate, model, windows)
    if report is None:
        return False
    out.eval_times.append(seconds)
    check_report(run, report, windows, forecasts, horizon)
    return True


def serve(run: Run, model: Model, windows, rounds: int) -> Served:
    out = Served()
    for _ in range(rounds):
        if not serve_round(run, model, windows, out):
            break
    return out


def check_report(run: Run, report, windows, forecasts, horizon: int) -> None:
    y_pred = np.array([row.y_pred for row in report.rows])
    run.check(y_pred.shape == (len(windows) * horizon,) and bool(np.isfinite(y_pred).all()),
              "evaluate: missing or non-finite forecasts")
    if any(y is None for y in forecasts):
        return
    pred = np.concatenate(forecasts)
    truth = np.concatenate([w.targets for w in windows])
    direct = float(np.mean(np.abs(pred - truth)))
    run.check(abs(direct - report.metrics.mae) <= MAE_TOLERANCE * direct,
              f"evaluate: MAE {report.metrics.mae} disagrees with the predict calls' MAE {direct}")


def quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values), q, method="linear"))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


# -- the two kinds of run --------------------------------------------------


def run_untraced(w: Workload, seed: int, seconds: float, out_dir: Path) -> tuple[Run, dict, dict]:
    run = Run()
    pacer = Pacer()
    deadline = time.perf_counter() + seconds
    prep, setup_s = pacer.measure([], prepare, w, seed)
    setup_times = [setup_s]
    info = workload_info(prep)
    served = Served()
    fitted, fit_s = pacer.measure(FORWARDS, fit_once, run, w, prep)
    quality = prepare(w, QUALITY_SEED)
    quality_model, quality_fit_s = pacer.measure(FORWARDS, fit_once, run, w, quality)
    report = quality_model and run.attempt(evaluate.evaluate, quality_model, quality.split.test)
    if fitted is not None:
        loaded, save_s, load_s = save_and_load(run, fitted, prep.split.test, out_dir)
        info.update({"save_model_ms": save_s * 1e3, "load_model_ms": load_s * 1e3})
        latest = prep
        while serve_round(run, loaded, latest.split.test, served, pacer.measure):
            latest, setup_s = pacer.measure([], prepare, w, seed + ROUND_SEED_STRIDE * len(served.eval_times))
            setup_times.append(setup_s)
            if len(served.calls) >= MIN_PREDICT_CALLS and time.perf_counter() >= deadline:
                break
    run.check(bool(served.eval_times), "no trained model to measure")

    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    if fitted is not None and quality_model is not None:
        passes = window_passes(fitted, len(prep.split.train)) + window_passes(quality_model, len(quality.split.train))
        metrics["train_windows_per_s"] = (passes / (fit_s + quality_fit_s), "1/s")
    if report:
        metrics["test_mae"] = (report.metrics.mae, "demand")
    if served.eval_times:
        metrics["predict_ms_p50"] = (statistics.median(served.calls) * 1e3, "ms")
        metrics["evaluate_windows_per_s"] = (len(prep.split.test) / statistics.median(served.eval_times), "1/s")
        info.update({f"predict_ms_p{q}": quantile(served.calls, q / 100) * 1e3 for q in (90, 99)})
    metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
    metrics["ok_ratio"] = (1.0 - run.failed / max(run.attempted, 1), "ratio")
    info.update({"reference_s": REFERENCE_S, "host_slowdown": pacer.slowdown(), "fit_s": [fit_s, quality_fit_s],
                 "setup_reps_s": setup_times, "predict_calls": len(served.calls),
                 "serving_rounds": len(served.eval_times), "failed_ratio": run.failed / max(run.attempted, 1)})
    return run, metrics, info


def run_traced(w: Workload, seed: int, out_dir: Path) -> tuple[Run, dict, dict, list]:
    """Fixed work, so counts repeat; fit and serving run once untraced too, for the overhead."""
    run = Run()
    tr = Tracer()
    with tr.installed(TARGETS):
        prep = prepare(w, seed)
        for _ in range(TRACED_SETUP_REPS - 1):
            prepare(w, seed)
    info = workload_info(prep)
    test = prep.split.test
    _, fit_untraced_s = timed(fit_once, run, w, prep)
    tr.phase = "fit"
    with tr.installed(TARGETS):
        fitted, fit_s = timed(fit_once, run, w, prep)
    if not run.check(fitted is not None, "no trained model to measure"):
        return run, {}, info, tr.spans
    tr.phase = "save"
    with tr.installed(TARGETS):
        loaded, _, _ = save_and_load(run, fitted, test, out_dir)
    _, serve_untraced_s = timed(serve, run, loaded, test, TRACED_SERVE_ROUNDS)
    tr.phase = "serve"
    with tr.installed(TARGETS):
        _, serve_s = timed(serve, run, loaded, test, TRACED_SERVE_ROUNDS)

    spans, selves = tr.spans, tracer.self_times(tr.spans)
    fit_root = [i for i, s in enumerate(spans) if s[NAME] == "pipeline.fit" and s[PARENT] < 0][-1]
    fit_layers = tracer.layer_self_seconds(spans, selves, tracer.subtree(spans, fit_root))
    unattributed = selves[fit_root] + fit_s - (spans[fit_root][END] - spans[fit_root][START])
    coverage = 1.0 - unattributed / fit_s
    run.check(coverage >= 1.0 - COVERAGE_MARGIN,
              f"trace: the layers below pipeline.fit cover only {coverage:.4f} of the fit wall time")
    info["fit_layer_self_share"] = {k: v / fit_s for k, v in sorted(fit_layers.items())}

    metrics = layer_metrics(spans, selves, prep, fitted)
    untraced = fit_untraced_s + serve_untraced_s
    metrics["trace.overhead_pct"] = ((fit_s + serve_s - untraced) / untraced * 100.0, "%")
    metrics["trace.fit_self_time_coverage"] = (coverage, "ratio")
    return run, metrics, info, spans


def layer_metrics(spans: list[list], selves: list[float], prep: Prepared, fitted: Model) -> dict:
    """Per-window metrics cover the traced fit's forwards; per-forecast ones the traced serving rounds."""
    empty = tracer.SpanStats()
    main = tracer.summarize(spans, selves, tracer.by_phase(spans, "fit"))
    setup_idx = tracer.by_phase(spans, "setup")
    save = tracer.summarize(spans, selves, tracer.by_phase(spans, "save"))
    serving = tracer.summarize(spans, selves, tracer.by_phase(spans, "serve"))
    evals = serving["evaluate.evaluate"]
    forecasts = serving["model.stage2_forward"].calls

    def s(name):
        return main.get(name, empty)

    def per_forecast_ms(name):
        return serving.get(name, empty).total / forecasts * 1e3

    passes1, passes2 = s("model.stage1_forward").calls, s("model.stage2_forward").calls
    passes = passes1 + passes2

    def per_window_ms(name):
        return s(name).total / passes * 1e3

    def duration(i):
        return spans[i][END] - spans[i][START]

    top = [i for i in setup_idx if spans[i][PARENT] < 0]
    generate = [duration(i) for i in top if spans[i][NAME] == "data.generate_synthetic"]
    windows = [i for i in top if spans[i][NAME] == "pipeline.build_windows"]
    encodes = [i for i in tracer.subtree(spans, windows[0]) if spans[i][NAME] == "text.encode"]
    # build_windows looks up T token matrices and one pooled vector per window.
    lookups = sum(len(w.local_tokens) + 1 for w in prep.split.train + prep.split.val + prep.split.test)
    stage1, stage2 = s("pipeline.train_stage1"), s("pipeline.train_stage2")
    backward, adam = s("numeric.backward"), s("optim.adam_step")
    return {
        "data.generate_s": (statistics.median(generate), "s"),
        "pipeline.build_windows_s": (statistics.median(duration(i) for i in windows), "s"),
        "text.encode_calls": (len(encodes), "count"),
        "text.encode_ms": (sum(duration(i) for i in encodes) * 1e3, "ms"),
        "text.cache_hit_ratio": (1.0 - len(encodes) / lookups, "ratio"),
        "pipeline.stage1_windows_per_s": (passes1 / stage1.total if stage1.total else 0.0, "1/s"),
        "pipeline.stage2_windows_per_s": (passes2 / stage2.total if stage2.total else 0.0, "1/s"),
        "pipeline.loop_self_ms_per_window": ((stage1.self + stage2.self) / passes * 1e3, "ms"),
        "model.stage1_forward_ms_per_window": (
            s("model.stage1_forward").total / passes1 * 1e3 if passes1 else 0.0, "ms"),
        "model.stage2_forward_ms_per_window": (s("model.stage2_forward").total / passes2 * 1e3, "ms"),
        "model.stage2_forward_self_ms_per_window": (s("model.stage2_forward").self / passes2 * 1e3, "ms"),
        "model.pad_events": (fitted.pad_events, "count"),
        "fusion_local.embed_ms_per_window": (per_window_ms("fusion_local.embed_structured_rows"), "ms"),
        "fusion_local.cross_attention_ms_per_window": (per_window_ms("fusion_local.guided_cross_attention"), "ms"),
        "fusion_local.cross_attention_calls_per_window": (
            s("fusion_local.guided_cross_attention").calls / passes, "count"),
        "graph.run_dgso_ms_per_window": (per_window_ms("graph.run_dgso"), "ms"),
        "graph.run_dgso_calls": (s("graph.run_dgso").calls, "count"),
        "predictor.embed_sequence_ms_per_window": (per_window_ms("predictor.embed_sequence"), "ms"),
        "predictor.forecast_ms_per_window": (per_window_ms("predictor.forecast"), "ms"),
        "numeric.backward_ms_per_window": (per_window_ms("numeric.backward"), "ms"),
        "numeric.tape_entries_per_window": (
            backward.probe_sum / backward.calls if backward.calls else 0.0, "count"),
        "optim.adam_step_ms": (adam.total / adam.calls * 1e3 if adam.calls else 0.0, "ms"),
        "optim.adam_steps": (adam.calls, "count"),
        "pipeline.save_model_ms": (save["pipeline.save_model"].total * 1e3, "ms"),
        "pipeline.load_model_ms": (save["pipeline.load_model"].total * 1e3, "ms"),
        "model.stage2_forward_ms_per_forecast": (per_forecast_ms("model.stage2_forward"), "ms"),
        "fusion_local.cross_attention_ms_per_forecast": (per_forecast_ms("fusion_local.guided_cross_attention"), "ms"),
        "graph.run_dgso_ms_per_forecast": (per_forecast_ms("graph.run_dgso"), "ms"),
        "predictor.forecast_ms_per_forecast": (per_forecast_ms("predictor.forecast"), "ms"),
        "evaluate.evaluate_ms_per_window": (evals.total / (evals.calls * len(prep.split.test)) * 1e3, "ms"),
    }
