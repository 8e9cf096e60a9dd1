"""Command-line entry point.

Subcommands: generate, train, evaluate, ablate, gradcheck. Exit codes: 0
success, 1 usage, 2 data/config error, 3 training/numeric error or a helper
process that ended before it sent its results, 4 I/O error. Standard output
is machine-parseable CSV-style lines. All file outputs are written to a temp
file and renamed into place; `train`, `evaluate` and `ablate` check that the
directory of --out exists, and that --out is not a directory, before they
read any model or data.

The seed of `generate`, `train` and `ablate` is the --seed flag if given,
else the config's value; `gradcheck --seed` defaults to 0. A set KGCM_SEED
environment variable is refused with exit 1, since it is no longer read.
`ablate` fits in min(usable CPUs, fits) spawned worker processes, and in
its own process on one usable CPU.

Text is hashed unless a config's [text] section sets `embedding_file = PATH`,
a table of precomputed vectors. `train` runs both training stages.
`evaluate` encodes the data's text as the model file's [text] section says,
writes one row per test point to --out and prints the test metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .configio import parse_config
from .data import atomic_write_text, generate_synthetic, load_csv, write_dataset, write_predictions
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    HelperError,
    KgcmError,
    MetricError,
    NumericError,
    ShapeError,
    TrainingError,
)
from .evaluate import ablation_csv, evaluate, render_ablation_table, run_ablation
from .gradcheck import run_all_checks
from .pipeline import fit, load_model, model_split, save_model

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


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _seeded(config, flag_seed: int | None):
    """``config`` with the --seed flag's seed, or as it is when the flag was not given."""
    return config if flag_seed is None else dataclasses.replace(config, seed=flag_seed)


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
    gen = _seeded(parse_config(args.config).data, args.seed)
    dataset = generate_synthetic(gen)
    write_dataset(dataset, args.out)
    print(f"generated,{args.out},regions={gen.regions},slots={len(dataset.timestamps)},seed={gen.seed}")
    return EXIT_OK


def _check_out_dir(path: str) -> None:
    """Refuse ``path`` before a long run, not at the final write, if its directory is missing or it is one."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"--out {path}: directory {directory} does not exist")
    if os.path.isdir(path):
        raise IsADirectoryError(f"--out {path} is a directory")


def cmd_train(args) -> int:
    _check_out_dir(args.out)
    parsed = parse_config(args.config)
    config = _seeded(parsed.train, args.seed)
    model = fit(_load_dataset(args.data), config, parsed.components, parsed.encoder)
    save_model(model, args.out)
    for epoch, loss in enumerate(model.stage1_history):
        print(f"1,{epoch},{format(loss, '.17g')}")
    for epoch, loss in enumerate(model.stage2_history):
        print(f"2,{epoch},{format(loss, '.17g')}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    _check_out_dir(args.out)
    model = load_model(args.model)
    report = evaluate(model, model_split(model, _load_dataset(args.data)).test)
    write_predictions(report.rows, args.out)
    m = report.metrics
    print(f"mae,{format(m.mae, '.17g')}")
    print(f"rmse,{format(m.rmse, '.17g')}")
    print(f"mape_percent,{format(m.mape_percent, '.17g')}")
    print(f"n_points,{m.n_points}")
    print(f"n_floored,{m.n_floored}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    _check_out_dir(args.out)
    parsed = parse_config(args.config)
    dataset = _load_dataset(args.data)
    config = _seeded(parsed.train, args.seed)
    seeds = [config.seed + k for k in range(args.seeds)]
    rows = run_ablation(dataset, config, seeds, encoder=parsed.encoder)
    atomic_write_text(args.out, ablation_csv(rows))
    print(render_ablation_table(rows))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_all_checks(seed=args.seed)
    failed = [r for r in results if not r.passed()]
    for r in results:
        status = "pass" if r.passed() else "FAIL"
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
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(name="evaluate", help="write test-split predictions and print the test metrics")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(name="ablate", help="train and compare the cumulative component variants")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--seeds", type=positive_int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser(name="gradcheck", help="verify gradients against central differences")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "KGCM_SEED" in os.environ:
            raise UsageError("KGCM_SEED is no longer read; unset it and pass the seed as --seed")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ConfigError, FormatError, MetricError, ShapeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingError, NumericError, HelperError) as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KgcmError as exc:  # catch-all for package errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
