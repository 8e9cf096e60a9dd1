import re
import shutil

import numpy as np
import pytest

from kgcm import cli
from kgcm.configio import render_model_config
from kgcm.data import GeneratorConfig, generate_synthetic, load_csv, write_dataset
from kgcm.evaluate import evaluate
from kgcm.gradcheck import tiny_instance_config
from kgcm.model import ALL_COMPONENTS, TrainConfig, build_model
from kgcm.pipeline import CONFIG_RECORD, build_windows, load_model, save_model, split_windows, train_stage2
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
    ids = [f"{s.region}|{ts.isoformat()}" for s in dataset.regions for ts in s.timestamps]
    ids += [f"global|{ts.isoformat()}" for ts in dataset.timestamps]
    rng = np.random.default_rng(0)
    path.write_text("".join(f"{i}," + ",".join(f"{v:.6f}" for v in rng.normal(size=8)) + "\n" for i in ids))
    return path


def test_gradcheck_rejects_bad_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("KGCM_SEED", "abc")
    assert cli.main(["gradcheck"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "KGCM_SEED must be an integer" in err
    assert "Traceback" not in err


def test_stage2_encodes_text_at_the_loaded_model_width(tmp_path, capsys):
    data_dir = tmp_path / "data"
    write_dataset(generate_synthetic(GeneratorConfig(regions=1, days=2, slots_per_day=12, event_rate=0.3)), data_dir)
    configs = {}
    for d in (8, 16):
        configs[d] = tmp_path / f"d{d}.cfg"
        configs[d].write_text(TINY.format(d=d))
    stage1, stage2 = str(tmp_path / "stage1.kgcm"), str(tmp_path / "stage2.kgcm")
    assert cli.main(["train", "--config", str(configs[8]), "--data", str(data_dir),
                     "--out", stage1, "--stage", "1"]) == cli.EXIT_OK
    assert cli.main(["train", "--config", str(configs[16]), "--data", str(data_dir),
                     "--out", stage2, "--stage", "2", "--init", stage1]) == cli.EXIT_OK, capsys.readouterr().err
    model = load_model(stage2)
    assert model.config.d == 8
    assert len(model.stage1_history) == 1 and len(model.stage2_history) == 1


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
    config.write_text(TINY.format(d=8) + f"[text]\nencoder = file\nembedding_file = {table}\n")
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
    config.write_text(TINY.format(d=8) + f"[text]\nencoder = file\nembedding_file = {table}\n")
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


def test_model_file_without_text_section_loads_as_hashed(tmp_path):
    config = tiny_instance_config()
    model = build_model(config, frozenset(), feature_count=5)
    path = tmp_path / "model.kgcm"
    save_model(model, path)
    with np.load(path) as archive:
        members = dict(archive)
    text = render_model_config(config, model.components)
    members[CONFIG_RECORD] = np.frombuffer(text[: text.index("[text]")].encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **members)
    loaded = load_model(path)
    assert loaded.encoder == EncoderConfig()


def test_stage2_encodes_text_as_the_init_model_recorded(tmp_path, capsys):
    # stage 1 trains on file embeddings; a stage-2 config without [text] must
    # neither re-encode the text as hashed nor relabel the model as hashed
    dataset = generate_synthetic(GeneratorConfig(regions=1, days=2, slots_per_day=12, event_rate=0.3))
    data_dir = tmp_path / "data"
    write_dataset(dataset, data_dir)
    table = _write_embeddings(dataset, tmp_path / "embeddings.csv")
    file_config, plain_config = tmp_path / "file.cfg", tmp_path / "plain.cfg"
    file_config.write_text(TINY.format(d=8) + f"[text]\nencoder = file\nembedding_file = {table}\n")
    plain_config.write_text(TINY.format(d=8))
    stage1, stage2 = str(tmp_path / "stage1.kgcm"), str(tmp_path / "stage2.kgcm")
    assert cli.main(["train", "--config", str(file_config), "--data", str(data_dir),
                     "--out", stage1, "--stage", "1"]) == cli.EXIT_OK
    assert cli.main(["train", "--config", str(plain_config), "--data", str(data_dir),
                     "--out", stage2, "--stage", "2", "--init", stage1]) == cli.EXIT_OK, capsys.readouterr().err

    model = load_model(stage2)
    assert model.encoder == EncoderConfig(str(table))
    reference = load_model(stage1)
    windows = split_windows(build_windows(load_csv(*(data_dir / f for f in CSV_FILES)), reference.config,
                                          EncoderConfig(str(table)))).train
    train_stage2(reference, windows, reference.config)
    assert model.stage2_history == reference.stage2_history


def _with_byte(path, byte: bytes):
    """Write ``path`` again with ``byte`` added at the end of its first line."""
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"\n", byte + b"\n", 1))


@pytest.fixture
def workspace(tmp_path):
    """A data directory, configs, model files, and files that are damaged or not UTF-8."""
    write_dataset(generate_synthetic(GeneratorConfig(regions=1, days=2, slots_per_day=12, event_rate=0.3)),
                  tmp_path / "data")
    (tmp_path / "tiny.cfg").write_text(TINY.format(d=8))
    (tmp_path / "graphless.cfg").write_text(TINY.format(d=8).replace("components = all", "components = ssa,rcpg"))
    (tmp_path / "unknown-key.cfg").write_text(TINY.format(d=8).replace("[train]\n", "[train]\nbogus = 1\n"))
    (tmp_path / "three-features.cfg").write_text(TINY.format(d=8).replace("[train]\n", "features = 3\n[train]\n"))
    (tmp_path / "latin1.cfg").write_text(TINY.format(d=8))
    _with_byte(tmp_path / "latin1.cfg", b"\xff")
    for name in CSV_FILES:
        shutil.copytree(tmp_path / "data", tmp_path / f"latin1-{name}")
        _with_byte(tmp_path / f"latin1-{name}" / name, b"\xe9")
    table = _write_embeddings(load_csv(*(tmp_path / "data" / f for f in CSV_FILES)), tmp_path / "latin1.csv")
    _with_byte(table, b"\xe9")
    (tmp_path / "latin1-table.cfg").write_text(TINY.format(d=8) + f"[text]\nencoder = file\nembedding_file = {table}\n")
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
    (tmp_path / "kgcm1.kgcm").write_bytes(b"KGCM1" + bytes(64))
    np.save(tmp_path / "array.npy", np.zeros(3))
    return tmp_path


def _train(config, data="data", *extra):
    return ["train", "--config", config, "--data", data, "--out", "out.kgcm", *extra]


EXIT_CODE_CASES = {
    "stage-2-without-init": (_train("tiny.cfg", "data", "--stage", "2"), {}, cli.EXIT_USAGE),
    "stage-1-without-graph-or-text": (_train("graphless.cfg", "data", "--stage", "1"), {}, cli.EXIT_USAGE),
    "unknown-config-key": (_train("unknown-key.cfg"), {}, cli.EXIT_DATA),
    "features-other-than-five": (_train("three-features.cfg"), {}, cli.EXIT_DATA),
    "non-integer-seed-env": (_train("tiny.cfg"), {"KGCM_SEED": "x"}, cli.EXIT_DATA),
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
    "nan-mape-floor": (["evaluate", "--model", "plain.kgcm", "--data", "data", "--out", "m.csv",
                        "--mape-floor", "nan"], {}, cli.EXIT_DATA),
    "infinite-mape-floor": (["evaluate", "--model", "plain.kgcm", "--data", "data", "--out", "m.csv",
                             "--mape-floor", "inf"], {}, cli.EXIT_DATA),
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


@pytest.mark.parametrize("case", sorted(case for case in EXIT_CODE_CASES if case.startswith("non-utf8-")))
def test_non_utf8_input_error_names_the_file(workspace, monkeypatch, capsys, case):
    monkeypatch.chdir(workspace)
    cli.main(EXIT_CODE_CASES[case][0])
    assert re.search(r"latin1\S*: not UTF-8 text", capsys.readouterr().err)
