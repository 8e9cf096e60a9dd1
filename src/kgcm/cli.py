"""Command-line entry point.

Subcommands: generate, train, evaluate, predict, ablate, gradcheck. Exit
codes: 0 success, 1 usage, 2 data/config error, 3 training/numeric error,
4 I/O error. Standard output is machine-parseable CSV-style lines. All file
outputs are written to a temp file and renamed into place.

Seed priority per subcommand: --seed flag, then the config file, then the
KGCM_SEED environment variable, then 0.

`train --stage 2` continues the model given by --init: every model, training
and text setting comes from that model file, and --config, --seed and
KGCM_SEED do not change them. `evaluate` and `predict` likewise encode the
data's text as the model file's [text] section says.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from .configio import ParsedConfig, parse_config
from .data import atomic_write_text, generate_synthetic, load_csv, write_dataset, write_predictions
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    KgcmError,
    MetricError,
    NumericError,
    ShapeError,
    TrainingError,
)
from .evaluate import ablation_csv, evaluate, render_ablation_table, run_ablation
from .gradcheck import run_all_checks
from .pipeline import fit, load_model, model_split, new_model, save_model, train_stage1, train_stage2

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3
EXIT_IO = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and greater than 0, got {text!r}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _resolve_seed(flag_seed: int | None, parsed: ParsedConfig | None, section: str, key: str, config_value: int) -> int:
    if flag_seed is not None:
        return flag_seed
    if parsed is not None and parsed.was_set(section, key):
        return config_value
    env = os.environ.get("KGCM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"KGCM_SEED must be an integer, got {env!r}") from exc
    return 0


def _load_dataset(data_dir: str):
    demand = os.path.join(data_dir, "demand.csv")
    if not os.path.exists(demand):
        raise FileNotFoundError(f"missing {demand}")
    return load_csv(
        demand,
        os.path.join(data_dir, "local_text.csv"),
        os.path.join(data_dir, "global_text.csv"),
    )


def cmd_generate(args) -> int:
    parsed = parse_config(args.config)
    gen = parsed.data
    seed = _resolve_seed(args.seed, parsed, "data", "seed", gen.seed)
    gen = dataclasses.replace(gen, seed=seed)
    dataset = generate_synthetic(gen)
    write_dataset(dataset, args.out)
    print(f"generated,{args.out},regions={gen.regions},slots={len(dataset.timestamps)},seed={seed}")
    return EXIT_OK


def cmd_train(args) -> int:
    parsed = parse_config(args.config)
    seed = _resolve_seed(args.seed, parsed, "train", "seed", parsed.train.seed)
    config = dataclasses.replace(parsed.train, seed=seed)
    dataset = _load_dataset(args.data)
    if args.stage == "2":
        if not args.init:
            raise UsageError("--stage 2 requires --init MODEL from a stage-1 run")
        model = load_model(args.init)
        train_stage2(model, model_split(model, dataset).train, model.config)
    elif args.stage == "1":
        model, split = new_model(dataset, config, parsed.components, parsed.encoder)
        if not model.uses_stage1:
            raise UsageError("--stage 1 needs the graph or local-text component enabled")
        train_stage1(model, split.train, config)
    else:
        model = fit(dataset, config, parsed.components, parsed.encoder)
    save_model(model, args.out)
    for epoch, loss in enumerate(model.stage1_history):
        print(f"1,{epoch},{format(loss, '.17g')}")
    for epoch, loss in enumerate(model.stage2_history):
        print(f"2,{epoch},{format(loss, '.17g')}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    report = evaluate(model, model_split(model, _load_dataset(args.data)).test, floor=args.mape_floor)
    m = report.metrics
    lines = ["metric,value"]
    lines.append(f"mae,{format(m.mae, '.17g')}")
    lines.append(f"rmse,{format(m.rmse, '.17g')}")
    lines.append(f"mape_percent,{format(m.mape_percent, '.17g')}")
    lines.append(f"n_points,{m.n_points}")
    lines.append(f"n_floored,{m.n_floored}")
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"mae,{format(m.mae, '.17g')}")
    print(f"rmse,{format(m.rmse, '.17g')}")
    print(f"mape_percent,{format(m.mape_percent, '.17g')}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_model(args.model)
    report = evaluate(model, model_split(model, _load_dataset(args.data)).test)
    write_predictions(report.rows, args.out)
    print(f"predictions,{args.out},rows={len(report.rows)},horizon={model.config.horizon}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    parsed = parse_config(args.config)
    dataset = _load_dataset(args.data)
    base_seed = _resolve_seed(args.seed, parsed, "train", "seed", parsed.train.seed)
    seeds = [base_seed + k for k in range(args.seeds)]
    rows = run_ablation(dataset, parsed.train, seeds, floor=parsed.mape_floor, jobs=args.jobs, encoder=parsed.encoder)
    atomic_write_text(args.out, ablation_csv(rows))
    print(render_ablation_table(rows))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_all_checks(seed=_resolve_seed(args.seed, None, "train", "seed", 0))
    failed = [r for r in results if not r.passed(args.tolerance)]
    for r in results:
        status = "pass" if r.passed(args.tolerance) else "FAIL"
        print(f"{r.name},{format(r.max_error, '.6e')},{status}")
    if failed:
        names = ",".join(r.name for r in failed)
        raise TrainingError(f"gradient check failed for: {names}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="kgcm", description="Knowledge-guided cross-modal demand forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(name="generate", help="write a synthetic benchmark dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(name="train", help="train a model on a dataset directory")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stage", choices=("1", "2", "both"), default="both")
    p.add_argument("--init", default=None,
                   help="stage-1 model file (required for --stage 2); stage 2 takes every model, training "
                        "and text setting from it")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(name="evaluate", help="compute test metrics for a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mape-floor", type=float, default=1.0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(name="predict", help="write test-split predictions")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(name="ablate", help="train and compare the cumulative component variants")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--seeds", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser(name="gradcheck", help="verify gradients against central differences")
    p.add_argument("--tolerance", type=positive_float, default=1e-4)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ConfigError, FormatError, MetricError, ShapeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingError, NumericError) as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (OSError, IOError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KgcmError as exc:  # catch-all for package errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
