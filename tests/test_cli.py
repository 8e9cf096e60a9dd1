from kgcm import cli
from kgcm.data import GeneratorConfig, generate_synthetic, write_dataset
from kgcm.pipeline import load_model

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
