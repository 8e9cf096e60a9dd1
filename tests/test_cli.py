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
