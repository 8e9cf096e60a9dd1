import argparse
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgcm import cli, pipeline
from kgcm import evaluate as kgcm_evaluate
from kgcm.data import GeneratorConfig, generate_synthetic, load_csv, write_dataset, write_predictions
from kgcm.evaluate import evaluate
from kgcm.gradcheck import tiny_instance_config
from kgcm.model import ALL_COMPONENTS, Model, TrainConfig, build_model
from kgcm.pipeline import CONFIG_RECORD, build_windows, load_model, model_split, save_model, split_windows
from kgcm.text import EncoderConfig

CSV_FILES = ("demand.csv", "local_text.csv", "global_text.csv")

TINY = """[model]
d = {d}
n = 2
window = 8
horizon = 2
blocks = 1
components = all
[train]
epochs_stage1 = 1
epochs_stage2 = 1
batch_size = 4
[data]
regions = 1
days = 2
slots_per_day = 12
"""


def _write_embeddings(dataset, path):
    """Random 8-wide vectors for every step id of ``dataset``."""
    ids = [f"{region}|{ts.isoformat()}" for region in dataset.regions for ts in dataset.timestamps]
    ids += [f"global|{ts.isoformat()}" for ts in dataset.timestamps]
    rng = np.random.default_rng(0)
    path.write_text("".join(f"{i}," + ",".join(f"{v:.6f}" for v in rng.normal(size=8)) + "\n" for i in ids))
    return path


def test_gradcheck_rejects_bad_seed_env(monkeypatch, capsys):
    # the variable is no longer read, so any value is refused rather than silently ignored
    for value in ("abc", "0", ""):
        monkeypatch.setenv("KGCM_SEED", value)
        assert cli.main(["gradcheck"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "KGCM_SEED" in err and "--seed" in err
        assert "Traceback" not in err


def test_train_rejects_a_nan_learning_rate_before_training(tmp_path, capsys):
    data_dir = tmp_path / "data"
    write_dataset(generate_synthetic(GeneratorConfig(regions=1, days=2, slots_per_day=12, event_rate=0.3)), data_dir)
    config = tmp_path / "nan.cfg"
    config.write_text(TINY.format(d=8).replace("[train]\n", "[train]\nlr = nan\n"))
    code = cli.main(["train", "--config", str(config), "--data", str(data_dir), "--out", str(tmp_path / "m.kgcm")])
    assert code == cli.EXIT_DATA
    assert "train.lr: expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "m.kgcm").exists()


def test_ablate_encodes_text_as_the_config_says(tmp_path, capsys):
    # an embedding table without the dataset's ids must stop the run; a run
    # that ignores [text] would train on hashed vectors and exit 0
    data_dir = tmp_path / "data"
    write_dataset(generate_synthetic(GeneratorConfig(regions=1, days=2, slots_per_day=12, event_rate=0.3)), data_dir)
    table = tmp_path / "embeddings.csv"
    table.write_text("unrelated-id," + ",".join(["0.5"] * 8) + "\n")
    config = tmp_path / "file.cfg"
    config.write_text(TINY.format(d=8) + f"[text]\nembedding_file = {table}\n")
    code = cli.main(["ablate", "--config", str(config), "--data", str(data_dir), "--seeds", "1",
                     "--out", str(tmp_path / "ablation.csv")])
    assert code == cli.EXIT_DATA
    assert "no precomputed embedding" in capsys.readouterr().err
    assert not (tmp_path / "ablation.csv").exists()


def test_evaluate_encodes_text_as_the_model_was_trained(tmp_path, capsys):
    # the model file records [text]; evaluate must score on the training
    # encoder's vectors, not on hashed ones
    dataset = generate_synthetic(GeneratorConfig(regions=1, days=2, slots_per_day=12, event_rate=0.3))
    data_dir = tmp_path / "data"
    write_dataset(dataset, data_dir)
    table = _write_embeddings(dataset, tmp_path / "embeddings.csv")
    config = tmp_path / "file.cfg"
    config.write_text(TINY.format(d=8) + f"[text]\nembedding_file = {table}\n")
    model_path = str(tmp_path / "model.kgcm")
    assert cli.main(["train", "--config", str(config), "--data", str(data_dir), "--out", model_path]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["evaluate", "--model", model_path, "--data", str(data_dir),
                     "--out", str(tmp_path / "metrics.csv")]) == cli.EXIT_OK, capsys.readouterr().err
    printed = capsys.readouterr().out.splitlines()[0]

    model = load_model(model_path)
    encoder = EncoderConfig(str(table))
    windows = split_windows(build_windows(load_csv(*(data_dir / f for f in CSV_FILES)), model.config, encoder)).test
    assert printed == f"mae,{format(evaluate(model, windows).metrics.mae, '.17g')}"
    assert model.encoder == encoder


def test_evaluate_writes_the_rows_and_prints_the_metrics_of_one_report(tmp_path, capsys):
    dataset = generate_synthetic(GeneratorConfig(regions=2, days=2, slots_per_day=12, event_rate=0.3))
    data_dir = tmp_path / "data"
    write_dataset(dataset, data_dir)
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY.format(d=8))
    model_path = str(tmp_path / "model.kgcm")
    assert cli.main(["train", "--config", str(config), "--data", str(data_dir), "--out", model_path]) == cli.EXIT_OK
    capsys.readouterr()
    out = tmp_path / "predictions.csv"
    assert cli.main(["evaluate", "--model", model_path, "--data", str(data_dir), "--out", str(out)]) == cli.EXIT_OK
    printed = capsys.readouterr().out.splitlines()

    model = load_model(model_path)
    report = evaluate(model, model_split(model, load_csv(*(data_dir / f for f in CSV_FILES))).test)
    write_predictions(report.rows, tmp_path / "expected.csv")
    assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()
    m = report.metrics
    assert printed == [f"mae,{format(m.mae, '.17g')}", f"rmse,{format(m.rmse, '.17g')}",
                       f"mape_percent,{format(m.mape_percent, '.17g')}", f"n_points,{m.n_points}",
                       f"n_floored,{m.n_floored}"]


OUT_CASES = [(command, out) for out in ("no-such-dir/out", "existing-dir") for command in ("train", "evaluate", "ablate")]


@pytest.mark.parametrize("command,out", OUT_CASES,
                         ids=[command if out == "no-such-dir/out" else f"{command}-{out}" for command, out in OUT_CASES])
def test_a_missing_out_directory_is_refused_before_any_data_is_read(tmp_path, monkeypatch, capsys, command, out):
    # a typo in --out, or a directory named as --out, used to surface only at the final write, after the whole run
    write_dataset(generate_synthetic(GeneratorConfig(regions=1, days=2, slots_per_day=12)), tmp_path / "data")
    (tmp_path / "existing-dir").mkdir()
    (tmp_path / "tiny.cfg").write_text(TINY.format(d=8))
    calls = []
    for module in (cli, kgcm_evaluate, pipeline):
        monkeypatch.setattr(module, "fit", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(cli, "load_csv", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "load_model", lambda *args: calls.append(args))
    argv = [command, "--data", str(tmp_path / "data"), "--out", str(tmp_path / out)]
    if command == "evaluate":
        argv += ["--model", str(tmp_path / "model.kgcm")]
    else:
        argv += ["--config", str(tmp_path / "tiny.cfg")]
    if command == "ablate":
        argv += ["--seeds", "1"]
    assert cli.main(argv) == cli.EXIT_IO
    assert out.split("/")[0] in capsys.readouterr().err
    assert calls == []


def test_the_docstring_lists_the_registered_subcommands():
    listed = re.search(r"Subcommands: ([^.]*)\.", cli.__doc__).group(1)
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert [name.strip() for name in listed.split(",")] == list(subparsers.choices)


def test_model_file_without_text_section_loads_as_hashed(tmp_path):
    config = tiny_instance_config()
    model = build_model(config, frozenset(), feature_count=5)
    path = tmp_path / "model.kgcm"
    save_model(model, path)  # a hashed model's file has no [text] section
    with np.load(path) as archive:
        assert b"[text]" not in archive[CONFIG_RECORD].tobytes()
    loaded = load_model(path)
    assert loaded.encoder == EncoderConfig()


def _with_byte(path, byte: bytes):
    """Write ``path`` again with ``byte`` added at the end of its first line."""
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"\n", byte + b"\n", 1))


def _with_field(data_dir, out_dir, column: int, value: str):
    """Copy ``data_dir`` to ``out_dir`` with field ``column`` of the first demand row (row 2) set to ``value``."""
    shutil.copytree(data_dir, out_dir)
    lines = (out_dir / "demand.csv").read_text().splitlines(keepends=True)
    fields = lines[1].rstrip("\n").split(",")
    fields[column] = value
    lines[1] = ",".join(fields) + "\n"
    (out_dir / "demand.csv").write_text("".join(lines))


# a demand field set to a bad value, the field's column, and the name the error must give
BAD_DEMAND_FIELDS = {
    "nan-demand": (2, "nan", "demand"),
    "infinite-passengers": (3, "inf", "avg_passengers"),
    "negative-infinite-distance": (4, "-inf", "avg_distance"),
    "holiday-flag-2": (5, "2", "is_holiday"),
    "weekend-flag-minus-1": (6, "-1", "is_weekend"),
}
BAD_EMBEDDING_VALUES = {"nan-embedding": "nan", "infinite-embedding": "inf"}
# [model] keys of earlier versions, each set to the one value those versions' model files carry
REMOVED_MODEL_KEYS = {"heads": "1", "pooling": "last"}


@pytest.fixture
def workspace(tmp_path):
    """A data directory, configs, model files, and files that are damaged or not UTF-8."""
    write_dataset(generate_synthetic(GeneratorConfig(regions=1, days=2, slots_per_day=12, event_rate=0.3)),
                  tmp_path / "data")
    (tmp_path / "tiny.cfg").write_text(TINY.format(d=8))
    (tmp_path / "metrics-section.cfg").write_text(TINY.format(d=8) + "[metrics]\nmape_floor = 1.0\n")
    (tmp_path / "unknown-key.cfg").write_text(TINY.format(d=8).replace("[train]\n", "[train]\nbogus = 1\n"))
    (tmp_path / "three-features.cfg").write_text(TINY.format(d=8).replace("[train]\n", "features = 3\n[train]\n"))
    for key, value in REMOVED_MODEL_KEYS.items():
        (tmp_path / f"{key}-key.cfg").write_text(TINY.format(d=8).replace("[train]\n", f"{key} = {value}\n[train]\n"))
    (tmp_path / "seed-twice.cfg").write_text(TINY.format(d=8).replace("[train]\n", "[train]\nseed = 1\nseed = 2\n"))
    (tmp_path / "latin1.cfg").write_text(TINY.format(d=8))
    _with_byte(tmp_path / "latin1.cfg", b"\xff")
    for name in CSV_FILES:
        shutil.copytree(tmp_path / "data", tmp_path / f"latin1-{name}")
        _with_byte(tmp_path / f"latin1-{name}" / name, b"\xe9")
    table = _write_embeddings(load_csv(*(tmp_path / "data" / f for f in CSV_FILES)), tmp_path / "latin1.csv")
    _with_byte(table, b"\xe9")
    (tmp_path / "latin1-table.cfg").write_text(TINY.format(d=8) + f"[text]\nembedding_file = {table}\n")
    for case, (column, value, _) in BAD_DEMAND_FIELDS.items():
        _with_field(tmp_path / "data", tmp_path / case, column, value)
    for case, value in BAD_EMBEDDING_VALUES.items():
        bad = _write_embeddings(load_csv(*(tmp_path / "data" / f for f in CSV_FILES)), tmp_path / f"{case}.csv")
        lines = bad.read_text().splitlines(keepends=True)
        lines[1] = lines[1].split(",")[0] + f",{value}" * 8 + "\n"  # line 2 keeps its id, so only the value is bad
        bad.write_text("".join(lines))
        (tmp_path / f"{case}.cfg").write_text(TINY.format(d=8) + f"[text]\nembedding_file = {bad}\n")
    # an untrained model that fits the data, so evaluate reaches the metrics
    save_model(build_model(TrainConfig(d=8, n=2, window=8, horizon=2, blocks=1, day_slots=12), frozenset()),
               tmp_path / "plain.kgcm")
    blob = bytearray((tmp_path / "plain.kgcm").read_bytes())
    blob[blob.index(b"\x93NUMPY")] ^= 1  # the first member's npy magic, under that member's CRC-32
    (tmp_path / "damaged.kgcm").write_bytes(bytes(blob))
    for name, std in (("zero-std", 0.0), ("negative-std", -1.0)):
        with np.load(tmp_path / "plain.kgcm") as archive:
            members = dict(archive)
        members["_meta/scaler_std"] = np.r_[std, np.ones(4)]
        with open(tmp_path / f"{name}.kgcm", "wb") as fh:
            np.savez(fh, **members)
    # the [text] section of a model file written before embedding_file alone chose the encoder
    with np.load(tmp_path / "plain.kgcm") as archive:
        members = dict(archive)
    members[CONFIG_RECORD] = np.r_[members[CONFIG_RECORD], np.frombuffer(b"[text]\nencoder = hashed\n", np.uint8)]
    with open(tmp_path / "encoder-key.kgcm", "wb") as fh:
        np.savez(fh, **members)
    # the config record as earlier versions wrote it, with heads and pooling under [model]
    with np.load(tmp_path / "plain.kgcm") as archive:
        members = dict(archive)
    record = members[CONFIG_RECORD].tobytes()
    record = record.replace(b"\nwindow = ", b"\nheads = 1\nwindow = ").replace(b"\ncomponents = ",
                                                                              b"\npooling = last\ncomponents = ")
    members[CONFIG_RECORD] = np.frombuffer(record, np.uint8)
    with open(tmp_path / "heads-pooling.kgcm", "wb") as fh:
        np.savez(fh, **members)
    (tmp_path / "kgcm1.kgcm").write_bytes(b"KGCM1" + bytes(64))
    np.save(tmp_path / "array.npy", np.zeros(3))
    return tmp_path


def _train(config, data="data", *extra):
    return ["train", "--config", config, "--data", data, "--out", "out.kgcm", *extra]


EXIT_CODE_CASES = {
    # a subcommand, three flags and a config section that no longer exist
    "removed-predict-command": (["predict", "--model", "plain.kgcm", "--data", "data", "--out", "m.csv"], {},
                                cli.EXIT_USAGE),
    "removed-stage-flag": (_train("tiny.cfg", "data", "--stage", "1"), {}, cli.EXIT_USAGE),
    # --init was only ever accepted beside --stage 2
    "removed-init-flag": (_train("tiny.cfg", "data", "--stage", "2", "--init", "plain.kgcm"), {}, cli.EXIT_USAGE),
    "removed-mape-floor-flag": (["evaluate", "--model", "plain.kgcm", "--data", "data", "--out", "m.csv",
                                 "--mape-floor", "1.0"], {}, cli.EXIT_USAGE),
    "removed-jobs-flag": (["ablate", "--config", "tiny.cfg", "--data", "data", "--seeds", "1", "--out", "m.csv",
                           "--jobs", "2"], {}, cli.EXIT_USAGE),
    "removed-tolerance-flag": (["gradcheck", "--tolerance", "1e-3"], {}, cli.EXIT_USAGE),
    "removed-metrics-section": (_train("metrics-section.cfg"), {}, cli.EXIT_DATA),
    "unknown-config-key": (_train("unknown-key.cfg"), {}, cli.EXIT_DATA),
    "features-other-than-five": (_train("three-features.cfg"), {}, cli.EXIT_DATA),
    **{f"removed-{key}-key": (_train(f"{key}-key.cfg"), {}, cli.EXIT_DATA) for key in REMOVED_MODEL_KEYS},
    "config-key-set-twice": (_train("seed-twice.cfg"), {}, cli.EXIT_DATA),
    "heads-pooling-model-file": (["evaluate", "--model", "heads-pooling.kgcm", "--data", "data", "--out", "m.csv"],
                                 {}, cli.EXIT_DATA),
    "non-integer-seed-env": (_train("tiny.cfg"), {"KGCM_SEED": "x"}, cli.EXIT_USAGE),
    "missing-data-directory": (_train("tiny.cfg", "no-such-dir"), {}, cli.EXIT_IO),
    "missing-config-file": (_train("no-such.cfg"), {}, cli.EXIT_IO),
    "damaged-model-file": (["evaluate", "--model", "damaged.kgcm", "--data", "data", "--out", "m.csv"], {},
                           cli.EXIT_DATA),
    "kgcm1-model-file": (["evaluate", "--model", "kgcm1.kgcm", "--data", "data", "--out", "m.csv"], {},
                         cli.EXIT_DATA),
    "bare-npy-array-model-file": (["evaluate", "--model", "array.npy", "--data", "data", "--out", "m.csv"], {},
                                  cli.EXIT_DATA),
    "missing-model-file": (["evaluate", "--model", "no-such.kgcm", "--data", "data", "--out", "m.csv"], {},
                           cli.EXIT_IO),
    "non-utf8-config-file": (_train("latin1.cfg"), {}, cli.EXIT_DATA),
    **{f"non-utf8-{name}": (_train("tiny.cfg", f"latin1-{name}"), {}, cli.EXIT_DATA) for name in CSV_FILES},
    "non-utf8-embedding-file": (_train("latin1-table.cfg"), {}, cli.EXIT_DATA),
    "zero-scaler-std": (["evaluate", "--model", "zero-std.kgcm", "--data", "data", "--out", "m.csv"], {},
                        cli.EXIT_DATA),
    "negative-scaler-std": (["evaluate", "--model", "negative-std.kgcm", "--data", "data", "--out", "m.csv"], {},
                            cli.EXIT_DATA),
    **{f"gradcheck-tolerance-{value}": (["gradcheck", "--tolerance", value], {}, cli.EXIT_USAGE)
       for value in ("nan", "inf", "-1", "0", "abc")},
    **{f"ablate-jobs-{value}": (["ablate", "--config", "tiny.cfg", "--data", "data", "--seeds", "1", "--out", "m.csv",
                                 "--jobs", value], {}, cli.EXIT_USAGE)
       for value in ("-2", "0", "1.5")},
    **{f"ablate-seeds-{value}": (["ablate", "--config", "tiny.cfg", "--data", "data", "--seeds", value,
                                  "--out", "m.csv"], {}, cli.EXIT_USAGE)
       for value in ("0", "-3", "1.5")},
    # a seed outside [0, 2**64) would wrap to another seed in the random streams
    **{f"{command}-seed-{value}": (argv + ["--seed", value], {}, cli.EXIT_DATA)
       for command, argv in (("generate", ["generate", "--config", "tiny.cfg", "--out", "gen"]),
                             ("train", _train("tiny.cfg")))
       for value in ("-1", str(2 ** 64))},
    "ablate-seed-range-past-the-last-seed": (["ablate", "--config", "tiny.cfg", "--data", "data", "--seeds", "2",
                                              "--out", "m.csv", "--seed", str(2 ** 64 - 1)], {}, cli.EXIT_DATA),
    "text-encoder-key-model-file": (["evaluate", "--model", "encoder-key.kgcm", "--data", "data", "--out", "m.csv"],
                                    {}, cli.EXIT_DATA),
    **{f"bad-{case}": (_train("tiny.cfg", case), {}, cli.EXIT_DATA) for case in BAD_DEMAND_FIELDS},
    **{f"bad-{case}": (_train(f"{case}.cfg"), {}, cli.EXIT_DATA) for case in BAD_EMBEDDING_VALUES},
}


@pytest.mark.parametrize("case", sorted(EXIT_CODE_CASES))
def test_exit_codes(workspace, monkeypatch, capsys, case):
    argv, env, expected = EXIT_CODE_CASES[case]
    monkeypatch.chdir(workspace)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert cli.main(argv) == expected
    assert "Traceback" not in capsys.readouterr().err
    assert not (workspace / "out.kgcm").exists()
    assert not (workspace / "m.csv").exists()


def test_a_model_write_that_fails_part_way_exits_with_the_io_code(workspace, monkeypatch, capsys):
    savez = np.savez

    def cut_short(fh, **records):
        savez(fh, **dict(list(records.items())[:3]))
        raise OSError(28, "No space left on device")

    monkeypatch.chdir(workspace)
    monkeypatch.setattr(np, "savez", cut_short)
    assert cli.main(_train("tiny.cfg")) == cli.EXIT_IO
    assert "No space left" in capsys.readouterr().err
    assert not (workspace / "out.kgcm").exists()
    assert not (workspace / "out.kgcm.tmp").exists()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the scoring helper is forked")
def test_evaluate_whose_helper_dies_exits_with_the_training_code(workspace, monkeypatch, capsys):
    # the untrained model scores the data's test windows through a helper that kills itself in its first chunk
    pipeline._end_helper()
    monkeypatch.chdir(workspace)
    monkeypatch.setattr(pipeline, "_helper_can_start", lambda: True)
    values, parent = Model.stage2_values, os.getpid()

    def dying(model, windows):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return values(model, windows)

    monkeypatch.setattr(Model, "stage2_values", dying)
    assert cli.main(["evaluate", "--model", "plain.kgcm", "--data", "data", "--out", "m.csv"]) == cli.EXIT_TRAINING
    err = capsys.readouterr().err
    assert "helper process ended with exit code -9" in err
    assert "Traceback" not in err
    assert not (workspace / "m.csv").exists()


@pytest.mark.parametrize("case", sorted(case for case in EXIT_CODE_CASES if case.startswith("non-utf8-")))
def test_non_utf8_input_error_names_the_file(workspace, monkeypatch, capsys, case):
    monkeypatch.chdir(workspace)
    cli.main(EXIT_CODE_CASES[case][0])
    assert re.search(r"latin1\S*: not UTF-8 text", capsys.readouterr().err)


@pytest.mark.parametrize("case", sorted(BAD_DEMAND_FIELDS))
def test_bad_demand_field_error_names_the_file_row_and_field(workspace, monkeypatch, capsys, case):
    monkeypatch.chdir(workspace)
    cli.main(_train("tiny.cfg", case))
    assert re.search(rf"{case}\S*demand\.csv row 2: {BAD_DEMAND_FIELDS[case][2]} must be", capsys.readouterr().err)


@pytest.mark.parametrize("case", sorted(BAD_EMBEDDING_VALUES))
def test_non_finite_embedding_error_names_the_file_and_line(workspace, monkeypatch, capsys, case):
    monkeypatch.chdir(workspace)
    cli.main(_train(f"{case}.cfg"))
    assert re.search(rf"{case}\.csv line 2: non-finite embedding value", capsys.readouterr().err)


@pytest.mark.parametrize("key", sorted(REMOVED_MODEL_KEYS))
def test_removed_model_key_error_names_the_key(workspace, monkeypatch, capsys, key):
    monkeypatch.chdir(workspace)
    cli.main(_train(f"{key}-key.cfg"))
    assert f"unknown key model.{key}" in capsys.readouterr().err


def test_python_m_kgcm_runs_the_command_line(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY.format(d=8))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "kgcm", *argv], env=env, capture_output=True, text=True,
                              timeout=120)

    generated = run("generate", "--config", str(config), "--out", str(tmp_path / "data"))
    assert generated.returncode == cli.EXIT_OK, generated.stderr
    assert (tmp_path / "data" / "demand.csv").exists()
    usage = run("no-such-command")
    assert usage.returncode == cli.EXIT_USAGE
    assert usage.stderr.startswith("usage error: ")
